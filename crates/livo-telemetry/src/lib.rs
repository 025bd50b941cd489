//! Telemetry substrate for the LiVo workspace: metrics, the per-frame
//! event trace, and structured logging.
//!
//! Every headline claim of the paper is an observability claim — per-stage
//! latency (Table 6), throughput and utilisation (Table 1), the 200–300 ms
//! end-to-end budget — and tail latency, not means, decides conferencing
//! QoE. This crate is the measurement layer the rest of the workspace
//! publishes into:
//!
//! - [`registry`]: [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s exposing p50/p95/p99/max. Registration is
//!   locked; recording is lock-free atomics on held handles. Whoever runs
//!   a step times it and records the elapsed time into a histogram.
//! - [`trace`]: [`EventTrace`] — the one per-frame record, a causal
//!   cross-layer event ring: every frame's capture→cull→tile→encode→
//!   packetize→send→(nack→retx)→recv→playout→decode→display life, keyed
//!   by frame sequence and party id, stitched across threads and layers
//!   into one causal order and queryable per frame ([`TraceQuery`]).
//! - `chrometrace`: Chrome trace-event JSON export of a trace snapshot
//!   (Perfetto-loadable, flow arrows stitching frames across tracks).
//! - `flight`: [`FlightRecorder`] — freezes the trace and the metrics
//!   into one bundle when a display stall runs long, with the cause the
//!   display clock gave it as the verdict.
//! - [`log`]: structured events with levels and key=value fields, filtered
//!   by `LIVO_LOG`, one text line per event on stderr, and rate-limited
//!   warnings ([`log::warn_limited`]).
//! - [`json`]: the dependency-free JSON writer the snapshots share.
//!
//! Design constraints: **std only** (this crate sits below every other
//! workspace crate and must never cycle), bounded memory (the trace is a
//! ring, histograms are fixed arrays), and hot-path cost of one atomic op per
//! sample after warm-up — the overhead budget that keeps instrumented
//! throughput within 5% of uninstrumented.

mod chrometrace;
mod flight;
mod histogram;
pub mod json;
pub mod log;
pub mod registry;
pub mod trace;

pub use chrometrace::chrome_trace_json;
pub use flight::{FlightBundle, FlightRecorder};
pub use histogram::{Histogram, HistogramSnapshot};
pub use log::{Level, Logger, Value};
pub use registry::{
    global, metric_safe, name_follows_convention, Counter, Gauge, MetricsRegistry, RegistrySnapshot,
};
pub use trace::{intern, kind, EventTrace, FramePath, Hop, TraceEvent, TraceQuery, NO_FRAME};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn end_to_end_registry_spans_timeline() {
        // The shape of a typical instrumented stage: resolve handles once,
        // record per frame, snapshot at the end.
        let reg = Arc::new(MetricsRegistry::new());
        let trace = EventTrace::new(1024);
        let encode_ms = reg.histogram("pipeline.encode_ms");
        let frames = reg.counter("pipeline.frames");
        for seq in 0..30u64 {
            let t0 = std::time::Instant::now();
            std::hint::black_box(seq * 17 % 5);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            encode_ms.record(ms);
            let us = (ms * 1e3) as i64;
            trace.record(seq * 33_333, seq, 0, "pipeline", kind::ENCODE, us);
            frames.inc();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pipeline.frames"), Some(30));
        let h = snap.histogram("pipeline.encode_ms").unwrap();
        assert_eq!(h.count, 30);
        assert!(h.p50 <= h.p99 && h.p99 <= h.max);
        let q = TraceQuery::from_trace(&trace);
        assert_eq!(q.frames().len(), 30);
        assert_eq!(
            q.frame(29).unwrap().ts_of(kind::ENCODE, 0),
            Some(29 * 33_333)
        );
        // The whole snapshot serialises to JSON.
        let j = snap.to_json();
        assert!(j.contains("\"pipeline.encode_ms\""));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(a, b));
        a.counter("lib.test.global").add(2);
        assert_eq!(b.counter("lib.test.global").get(), 2);
    }
}
