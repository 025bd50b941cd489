//! Stall-triggered flight recorder: the moment a display stall runs long,
//! freeze the evidence as one diagnostic bundle.
//!
//! The trace ring answers "what happened?" only while the events are
//! still in the ring; by the time a human looks, a 30 fps run has long
//! overwritten the interesting seconds. When a stall runs longer than
//! 150 ms, the recorder freezes the last 256 trace events (the recent
//! frames' paths, via [`crate::TraceQuery`]) and a registry snapshot as
//! one [`FlightBundle`] kept in memory, whose verdict is the cause the
//! display clock gave the stall. Dumps are rate-limited by a 2 s cooldown
//! in the caller's (virtual) clock, so a sustained stall produces one
//! bundle, not thousands; the newest 8 bundles are kept.

use crate::json::ObjectWriter;
use crate::registry::{MetricsRegistry, RegistrySnapshot};
use crate::trace::{EventTrace, TraceEvent};
use std::sync::Arc;

/// A stall longer than this freezes a bundle, milliseconds.
const STALL_MS: f64 = 150.0;
/// Minimum spacing between dumps, in the caller's clock.
const COOLDOWN_US: u64 = 2_000_000;
/// Trace events kept per bundle (the newest).
const BUNDLE_EVENTS: usize = 256;
/// Bundles kept (the oldest is dropped).
const MAX_BUNDLES: usize = 8;

/// One frozen diagnostic bundle.
#[derive(Debug, Clone)]
pub struct FlightBundle {
    /// Caller-clock time of the trigger.
    pub ts_us: u64,
    /// The stall's cause, as the display clock named it.
    pub verdict: &'static str,
    /// Party whose display stalled.
    pub party: u16,
    /// Human-readable trigger detail ("display stall 312.0 ms > 150 ms").
    pub detail: String,
    /// The newest trace events at trigger time, causal order.
    pub events: Vec<TraceEvent>,
    /// Metrics at trigger time (when a registry is attached).
    pub metrics: Option<RegistrySnapshot>,
}

impl FlightBundle {
    /// One JSON object.
    pub fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field_u64("ts_us", self.ts_us)
            .field_str("verdict", self.verdict)
            .field_u64("party", self.party as u64)
            .field_str("detail", &self.detail);
        {
            let buf = o.field_raw("events");
            buf.push('[');
            for (i, e) in self.events.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                e.write_json(buf);
            }
            buf.push(']');
        }
        if let Some(m) = &self.metrics {
            let buf = o.field_raw("metrics");
            m.write_json(buf);
        }
        o.finish();
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// The recorder, fed every stalled display slot of one run.
pub struct FlightRecorder {
    trace: Arc<EventTrace>,
    registry: Arc<MetricsRegistry>,
    last_dump_us: Option<u64>,
    bundles: Vec<FlightBundle>,
}

impl FlightRecorder {
    /// Freeze events from `trace` and snapshots of `registry`.
    pub fn new(trace: Arc<EventTrace>, registry: Arc<MetricsRegistry>) -> Self {
        FlightRecorder {
            trace,
            registry,
            last_dump_us: None,
            bundles: Vec::new(),
        }
    }

    /// A display stall of `stall_ms` for `cause`, observed at `now_us` on
    /// `party`.
    pub fn observe_stall(&mut self, now_us: u64, party: u16, stall_ms: f64, cause: &'static str) {
        let cooling = self
            .last_dump_us
            .is_some_and(|t| now_us.saturating_sub(t) < COOLDOWN_US);
        if stall_ms <= STALL_MS || cooling {
            return;
        }
        self.last_dump_us = Some(now_us);
        let mut events = self.trace.snapshot();
        events.drain(..events.len().saturating_sub(BUNDLE_EVENTS));
        if self.bundles.len() == MAX_BUNDLES {
            self.bundles.remove(0);
        }
        self.bundles.push(FlightBundle {
            ts_us: now_us,
            verdict: cause,
            party,
            detail: format!("display stall {stall_ms:.1} ms > {STALL_MS:.0} ms"),
            events,
            metrics: Some(self.registry.snapshot()),
        });
    }

    /// The retained bundles, oldest first.
    pub fn bundles(&self) -> &[FlightBundle] {
        &self.bundles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::kind;

    fn recorder() -> FlightRecorder {
        let trace = Arc::new(EventTrace::new(1024));
        FlightRecorder::new(trace, Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn stall_detector_fires_once_within_cooldown() {
        let mut fr = recorder();
        fr.observe_stall(1_000, 1, 150.0, "in_transport"); // not over the threshold
        fr.observe_stall(2_000, 1, 250.0, "pair_miss"); // fires
        fr.observe_stall(3_000, 1, 250.0, "in_transport"); // cooldown suppresses the dump
        assert_eq!(fr.bundles().len(), 1);
        let b = &fr.bundles()[0];
        assert_eq!(b.verdict, "pair_miss");
        assert_eq!(b.party, 1);
        assert!(b.detail.contains("250.0 ms"));
        // After the cooldown a new dump happens.
        fr.observe_stall(2_002_000, 1, 250.0, "not_sent");
        assert_eq!(fr.bundles().len(), 2);
        // Only the newest bundles are kept.
        for i in 2..12 {
            fr.observe_stall(i * COOLDOWN_US, 1, 200.0, "startup");
        }
        assert_eq!(fr.bundles().len(), MAX_BUNDLES);
        assert_eq!(fr.bundles()[0].ts_us, 4 * COOLDOWN_US);
    }

    #[test]
    fn bundle_freezes_trace_registry_and_timeline_evidence() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("conference.frames_shown").add(7);
        let trace = Arc::new(EventTrace::new(1024));
        trace.record(500, 4, 0, "pipeline", kind::CAPTURE, 0);
        trace.record(900, 4, 1, "display", kind::STALL, 180);

        let mut fr = FlightRecorder::new(Arc::clone(&trace), reg);
        fr.observe_stall(1_000, 1, 180.0, "in_transport");
        let b = &fr.bundles()[0];
        assert_eq!(b.events.len(), 2);
        // The frozen events are frame 4's timeline.
        let path = crate::TraceQuery::new(b.events.clone()).frame(4).unwrap();
        assert_eq!(path.ts_of(kind::CAPTURE, 0), Some(500));
        assert_eq!(
            b.metrics
                .as_ref()
                .unwrap()
                .counter("conference.frames_shown"),
            Some(7)
        );
        let json = b.to_json();
        assert!(json.starts_with("{\"ts_us\":1000,\"verdict\":\"in_transport\""));
        assert!(json.contains("\"kind\":\"stall\""));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"frame_seq\":4"));
    }
}
