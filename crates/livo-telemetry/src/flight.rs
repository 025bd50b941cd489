//! Anomaly-triggered flight recorder: online detectors over the live
//! telemetry that, on trigger, dump a diagnostic bundle.
//!
//! The trace ring answers "what happened?" only while the events are
//! still in the ring; by the time a human looks, a 30 fps run has long
//! overwritten the interesting seconds. The flight recorder watches the
//! live signals — display stalls, PLI/keyframe storms, GCC estimate
//! collapse, decode errors, worker-pool starvation — and the moment a
//! detector fires it freezes the evidence: the last-N trace events (the
//! recent frames' paths, via [`crate::TraceQuery`]), a registry snapshot
//! and the detector's verdict, as one [`FlightBundle`] kept in memory.
//!
//! Detection is armed per signal via [`AnomalyConfig`] (a threshold of
//! `None` disarms that detector — tests arm exactly one). Dumps are
//! rate-limited by a cooldown in the caller's (virtual) clock so a
//! sustained anomaly produces one bundle, not thousands, while the
//! `trace.anomalies.*` counters keep counting every detection.

use crate::json::ObjectWriter;
use crate::registry::{Counter, MetricsRegistry, RegistrySnapshot};
use crate::trace::{EventTrace, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Detector verdicts (the `verdict` field of a bundle and the suffix of
/// the matching `trace.anomalies.*` counter).
pub mod verdict {
    pub const STALL: &str = "stall";
    pub const PLI_STORM: &str = "pli_storm";
    pub const GCC_COLLAPSE: &str = "gcc_collapse";
    pub const DECODE_ERROR: &str = "decode_error";
    pub const POOL_STARVATION: &str = "pool_starvation";
}

/// Per-detector thresholds. `None` (or `false`) disarms a detector.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// Display stall longer than this many milliseconds.
    pub stall_ms: Option<f64>,
    /// `(count, window_us)`: this many PLIs within the window.
    pub pli_storm: Option<(u32, u64)>,
    /// `(factor, window_us)`: GCC estimate dropping below `peak/factor`
    /// relative to the windowed peak.
    pub gcc_collapse: Option<(f64, u64)>,
    /// Any decoder hard error.
    pub decode_error: bool,
    /// Worker-pool queue depth at or above this.
    pub pool_queue: Option<u64>,
    /// Minimum spacing between dumps, in the caller's clock.
    pub cooldown_us: u64,
    /// Trace events kept per bundle (the newest N).
    pub bundle_events: usize,
    /// Hard cap on retained bundles (oldest dropped).
    pub max_bundles: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            stall_ms: Some(150.0),
            pli_storm: Some((5, 1_000_000)),
            gcc_collapse: Some((4.0, 3_000_000)),
            decode_error: true,
            pool_queue: Some(256),
            cooldown_us: 2_000_000,
            bundle_events: 256,
            max_bundles: 8,
        }
    }
}

impl AnomalyConfig {
    /// Everything disarmed — the base for tests arming one detector.
    pub fn disarmed() -> Self {
        AnomalyConfig {
            stall_ms: None,
            pli_storm: None,
            gcc_collapse: None,
            decode_error: false,
            pool_queue: None,
            ..AnomalyConfig::default()
        }
    }
}

/// One frozen diagnostic bundle.
#[derive(Debug, Clone)]
pub struct FlightBundle {
    /// Caller-clock time of the trigger.
    pub ts_us: u64,
    /// Which detector fired (see [`verdict`]).
    pub verdict: &'static str,
    /// Party the triggering signal belonged to.
    pub party: u16,
    /// Human-readable trigger detail ("stall 312.0 ms > 150 ms", …).
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

/// Counters registered under `trace.anomalies.*` at attach time.
struct AnomalyCounters {
    stall: Arc<Counter>,
    pli_storm: Arc<Counter>,
    gcc_collapse: Arc<Counter>,
    decode_error: Arc<Counter>,
    pool_starvation: Arc<Counter>,
    dumps: Arc<Counter>,
}

impl AnomalyCounters {
    fn for_verdict(&self, v: &str) -> &Arc<Counter> {
        match v {
            verdict::STALL => &self.stall,
            verdict::PLI_STORM => &self.pli_storm,
            verdict::GCC_COLLAPSE => &self.gcc_collapse,
            verdict::DECODE_ERROR => &self.decode_error,
            _ => &self.pool_starvation,
        }
    }
}

#[derive(Default)]
struct DetectorState {
    last_dump_us: Option<u64>,
    /// Recent PLI times (all parties pooled: a storm is a storm).
    pli_times: VecDeque<u64>,
    /// Per-party windowed GCC peak: party → (peak_bps, peak_ts).
    gcc_peak: HashMap<u16, (f64, u64)>,
}

/// The recorder. Share via `Arc`; every method takes `&self`.
pub struct FlightRecorder {
    cfg: AnomalyConfig,
    trace: Option<Arc<EventTrace>>,
    registry: Option<Arc<MetricsRegistry>>,
    counters: Option<AnomalyCounters>,
    state: Mutex<DetectorState>,
    bundles: Mutex<Vec<FlightBundle>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("cfg", &self.cfg)
            .field("dumps", &self.dump_count())
            .finish()
    }
}

impl FlightRecorder {
    pub fn new(cfg: AnomalyConfig) -> Self {
        FlightRecorder {
            cfg,
            trace: None,
            registry: None,
            counters: None,
            state: Mutex::new(DetectorState::default()),
            bundles: Mutex::new(Vec::new()),
        }
    }

    /// Evidence source: the trace ring to snapshot into bundles.
    pub fn attach_trace(&mut self, trace: Arc<EventTrace>) {
        self.trace = Some(trace);
    }

    /// Evidence source: the metrics registry. Also registers the
    /// `trace.anomalies.*` counters there.
    pub fn attach_registry(&mut self, registry: &Arc<MetricsRegistry>) {
        self.counters = Some(AnomalyCounters {
            stall: registry.counter("trace.anomalies.stall"),
            pli_storm: registry.counter("trace.anomalies.pli_storm"),
            gcc_collapse: registry.counter("trace.anomalies.gcc_collapse"),
            decode_error: registry.counter("trace.anomalies.decode_error"),
            pool_starvation: registry.counter("trace.anomalies.pool_starvation"),
            dumps: registry.counter("trace.anomalies.dumps"),
        });
        self.registry = Some(Arc::clone(registry));
    }

    pub fn config(&self) -> &AnomalyConfig {
        &self.cfg
    }

    /// A display stall of `stall_ms` observed at `now_us` on `party`.
    pub fn observe_stall(&self, now_us: u64, party: u16, stall_ms: f64) {
        let Some(limit) = self.cfg.stall_ms else {
            return;
        };
        if stall_ms > limit {
            self.trigger(
                now_us,
                verdict::STALL,
                party,
                format!("display stall {stall_ms:.1} ms > {limit:.0} ms"),
            );
        }
    }

    /// A PLI emitted at `now_us` by `party`.
    pub fn observe_pli(&self, now_us: u64, party: u16) {
        let Some((count, window_us)) = self.cfg.pli_storm else {
            return;
        };
        let n = {
            let mut st = self.state.lock().unwrap();
            st.pli_times.push_back(now_us);
            while st
                .pli_times
                .front()
                .is_some_and(|&t| t + window_us < now_us)
            {
                st.pli_times.pop_front();
            }
            st.pli_times.len()
        };
        if n as u32 >= count {
            self.trigger(
                now_us,
                verdict::PLI_STORM,
                party,
                format!("{n} PLIs within {} ms", window_us / 1_000),
            );
        }
    }

    /// A GCC bandwidth estimate published at `now_us` for `party`.
    pub fn observe_gcc(&self, now_us: u64, party: u16, estimate_bps: f64) {
        let Some((factor, window_us)) = self.cfg.gcc_collapse else {
            return;
        };
        let collapsed_from = {
            let mut st = self.state.lock().unwrap();
            let peak = st.gcc_peak.entry(party).or_insert((estimate_bps, now_us));
            if estimate_bps >= peak.0 || now_us.saturating_sub(peak.1) > window_us {
                *peak = (estimate_bps, now_us);
                None
            } else if estimate_bps * factor < peak.0 {
                let from = peak.0;
                // Re-arm from the collapsed level so one collapse is one
                // detection, not one per subsequent tick.
                *peak = (estimate_bps, now_us);
                Some(from)
            } else {
                None
            }
        };
        if let Some(from) = collapsed_from {
            self.trigger(
                now_us,
                verdict::GCC_COLLAPSE,
                party,
                format!(
                    "estimate fell {:.2} → {:.2} Mbps (>{factor:.0}x)",
                    from / 1e6,
                    estimate_bps / 1e6
                ),
            );
        }
    }

    /// A decoder hard error at `now_us` on `party`.
    pub fn observe_decode_error(&self, now_us: u64, party: u16, what: &str) {
        if self.cfg.decode_error {
            self.trigger(
                now_us,
                verdict::DECODE_ERROR,
                party,
                format!("decode error: {what}"),
            );
        }
    }

    /// Worker-pool queue depth sampled at `now_us`.
    pub fn observe_pool_queue(&self, now_us: u64, depth: u64) {
        let Some(limit) = self.cfg.pool_queue else {
            return;
        };
        if depth >= limit {
            self.trigger(
                now_us,
                verdict::POOL_STARVATION,
                0,
                format!("worker pool queue depth {depth} >= {limit}"),
            );
        }
    }

    /// Bundles dumped so far.
    pub fn dump_count(&self) -> usize {
        self.bundles.lock().unwrap().len()
    }

    /// Clone of the retained bundles.
    pub fn bundles(&self) -> Vec<FlightBundle> {
        self.bundles.lock().unwrap().clone()
    }

    fn trigger(&self, now_us: u64, verdict: &'static str, party: u16, detail: String) {
        if let Some(c) = &self.counters {
            c.for_verdict(verdict).inc();
        }
        {
            let mut st = self.state.lock().unwrap();
            if st
                .last_dump_us
                .is_some_and(|t| now_us.saturating_sub(t) < self.cfg.cooldown_us)
            {
                return;
            }
            st.last_dump_us = Some(now_us);
        }

        let mut events = self
            .trace
            .as_ref()
            .map(|t| t.snapshot())
            .unwrap_or_default();
        if events.len() > self.cfg.bundle_events {
            events.drain(..events.len() - self.cfg.bundle_events);
        }
        let bundle = FlightBundle {
            ts_us: now_us,
            verdict,
            party,
            detail,
            events,
            metrics: self.registry.as_ref().map(|r| r.snapshot()),
        };

        if let Some(c) = &self.counters {
            c.dumps.inc();
        }
        let mut bundles = self.bundles.lock().unwrap();
        bundles.push(bundle);
        while bundles.len() > self.cfg.max_bundles {
            bundles.remove(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::kind;

    fn armed_only_stall() -> AnomalyConfig {
        AnomalyConfig {
            stall_ms: Some(100.0),
            ..AnomalyConfig::disarmed()
        }
    }

    #[test]
    fn stall_detector_fires_once_within_cooldown() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut fr = FlightRecorder::new(armed_only_stall());
        fr.attach_registry(&reg);
        fr.observe_stall(1_000, 1, 50.0); // under threshold
        fr.observe_stall(2_000, 1, 250.0); // fires
        fr.observe_stall(3_000, 1, 250.0); // cooldown suppresses the dump
        assert_eq!(fr.dump_count(), 1);
        let b = &fr.bundles()[0];
        assert_eq!(b.verdict, verdict::STALL);
        assert_eq!(b.party, 1);
        assert!(b.detail.contains("250.0 ms"));
        // Detections counted even when the dump is suppressed.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("trace.anomalies.stall"), Some(2));
        assert_eq!(snap.counter("trace.anomalies.dumps"), Some(1));
        // After the cooldown a new dump happens.
        fr.observe_stall(3_000_000, 1, 250.0);
        assert_eq!(fr.dump_count(), 2);
    }

    #[test]
    fn pli_storm_needs_count_within_window() {
        let cfg = AnomalyConfig {
            pli_storm: Some((3, 1_000_000)),
            ..AnomalyConfig::disarmed()
        };
        let fr = FlightRecorder::new(cfg);
        fr.observe_pli(0, 2);
        fr.observe_pli(2_000_000, 2); // first fell out of the window
        fr.observe_pli(2_100_000, 2);
        assert_eq!(fr.dump_count(), 0);
        fr.observe_pli(2_200_000, 2);
        assert_eq!(fr.dump_count(), 1);
        assert_eq!(fr.bundles()[0].verdict, verdict::PLI_STORM);
    }

    #[test]
    fn gcc_collapse_compares_to_windowed_peak() {
        let cfg = AnomalyConfig {
            gcc_collapse: Some((4.0, 10_000_000)),
            ..AnomalyConfig::disarmed()
        };
        let fr = FlightRecorder::new(cfg);
        fr.observe_gcc(0, 3, 8e6);
        fr.observe_gcc(100_000, 3, 6e6); // mild dip: no trigger
        assert_eq!(fr.dump_count(), 0);
        fr.observe_gcc(200_000, 3, 1.5e6); // 8 → 1.5 Mbps: > 4x collapse
        assert_eq!(fr.dump_count(), 1);
        let b = &fr.bundles()[0];
        assert_eq!(b.verdict, verdict::GCC_COLLAPSE);
        assert!(b.detail.contains("8.00"));
        // Peak re-armed at the collapsed level: recovery is not a trigger.
        fr.observe_gcc(3_000_000, 3, 6e6);
        assert_eq!(fr.dump_count(), 1);
    }

    #[test]
    fn bundle_freezes_trace_registry_and_timeline_evidence() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("conference.frames_shown").add(7);
        let trace = Arc::new(EventTrace::new(1024));
        trace.record(500, 4, 0, "pipeline", kind::CAPTURE, 0);
        trace.record(900, 4, 1, "display", kind::STALL, 180);

        let mut fr = FlightRecorder::new(armed_only_stall());
        fr.attach_registry(&reg);
        fr.attach_trace(Arc::clone(&trace));

        fr.observe_stall(1_000, 1, 180.0);
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
        assert!(json.starts_with("{\"ts_us\":1000,\"verdict\":\"stall\""));
        assert!(json.contains("\"kind\":\"stall\""));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"frame_seq\":4"));
    }

    #[test]
    fn disarmed_detectors_never_fire() {
        let fr = FlightRecorder::new(AnomalyConfig::disarmed());
        fr.observe_stall(0, 0, 1e9);
        fr.observe_pli(0, 0);
        fr.observe_gcc(0, 0, 1e9);
        fr.observe_gcc(1, 0, 1.0);
        fr.observe_decode_error(0, 0, "boom");
        fr.observe_pool_queue(0, u64::MAX);
        assert_eq!(fr.dump_count(), 0);
    }
}
