//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration (name → handle lookup) takes a `RwLock` and may allocate;
//! it happens once per metric at attach time. The handles themselves
//! ([`Counter`], [`Gauge`], [`Histogram`]) are plain atomics — the 30 fps
//! hot path holds `Arc`s to them and never touches the registry maps again,
//! so recording a sample after warm-up costs an atomic op and nothing else.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into plain data for
//! reporting; [`RegistrySnapshot::to_json`] is the machine-readable form
//! `repro --metrics` dumps and the `BENCH_*.json` perf-trajectory files
//! are built from.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::{self, ObjectWriter};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point metric (stored as f64 bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The registry. Cheap to create; share via `Arc`.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters.read().unwrap().len())
            .field("gauges", &self.gauges.read().unwrap().len())
            .field("histograms", &self.histograms.read().unwrap().len())
            .finish()
    }
}

fn get_or_insert<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().unwrap().get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the named counter. Hold the returned handle; repeated
    /// lookups work but pay the map read lock.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Every registered metric name (counters, gauges, histograms),
    /// sorted and deduplicated — the input to the naming-convention gate.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .read()
            .unwrap()
            .keys()
            .chain(self.gauges.read().unwrap().keys())
            .chain(self.histograms.read().unwrap().keys())
            .cloned()
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Freeze current values into plain data.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Unit tokens that may only appear as a `_unit` suffix of a segment,
/// never as a standalone dotted segment (`conference.decode.ms` is drift;
/// `conference.decode_ms` is the convention).
const UNIT_TOKENS: [&str; 12] = [
    "ms", "us", "ns", "s", "bits", "bytes", "bps", "kbps", "mbps", "hz", "pct", "ratio",
];

/// The documented metric naming convention, `component.noun[.qualifier]`:
///
/// - at least two dot-separated segments;
/// - each segment matches `[a-z][a-z0-9_]*`;
/// - unit tokens ride as a `_unit` suffix on a segment, never as a
///   standalone segment;
/// - no stutter: a segment must not restate its predecessor as a prefix
///   (`transport.transport_latency_ms` is drift; `transport.latency_ms`
///   is the convention).
///
/// Enforced over every live registry by the `metric_names` suite.
pub fn name_follows_convention(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 2 {
        return false;
    }
    let mut prev: Option<&str> = None;
    for seg in segments {
        let mut chars = seg.chars();
        if !chars.next().is_some_and(|c| c.is_ascii_lowercase()) {
            return false;
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        if UNIT_TOKENS.contains(&seg) {
            return false;
        }
        if let Some(p) = prev {
            if seg.len() > p.len() && seg.starts_with(p) && seg.as_bytes()[p.len()] == b'_' {
                return false;
            }
        }
        prev = Some(seg);
    }
    true
}

/// Fold a display name (a subscriber, a link) into one segment that
/// [`name_follows_convention`] accepts: lowercase, anything outside
/// `[a-z0-9_]` becomes `_`, and an `l` goes in front of a name that does
/// not start with a letter. Two names that fold alike share the segment,
/// so a publisher keyed by display names compares folded names.
pub fn metric_safe(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| match c.to_ascii_lowercase() {
            c @ ('a'..='z' | '0'..='9' | '_') => c,
            _ => '_',
        })
        .collect();
    if !out.starts_with(|c: char| c.is_ascii_lowercase()) {
        out.insert(0, 'l');
    }
    out
}

/// The process-wide default registry. Long-lived tools (`repro`, examples)
/// publish here; tests and per-run harnesses create their own
/// [`MetricsRegistry`] for isolation.
pub fn global() -> &'static Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

/// Plain-data copy of a registry at one instant. Keys are sorted
/// (`BTreeMap`) so the JSON output is byte-stable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serialise the whole snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,"p50":..},..}}`.
    pub fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        {
            let buf = o.field_raw("counters");
            buf.push('{');
            for (i, (k, v)) in self.counters.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                json::write_str(buf, k);
                buf.push(':');
                json::write_u64(buf, *v);
            }
            buf.push('}');
        }
        {
            let buf = o.field_raw("gauges");
            buf.push('{');
            for (i, (k, v)) in self.gauges.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                json::write_str(buf, k);
                buf.push(':');
                json::write_f64(buf, *v);
            }
            buf.push('}');
        }
        {
            let buf = o.field_raw("histograms");
            buf.push('{');
            for (i, (k, v)) in self.histograms.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                json::write_str(buf, k);
                buf.push(':');
                v.write_json(buf);
            }
            buf.push('}');
        }
        o.finish();
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_metric() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(r.counter("x").get(), 4);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn kinds_are_namespaced_separately() {
        let r = MetricsRegistry::new();
        r.counter("n").add(7);
        r.gauge("n").set(2.5);
        let s = r.snapshot();
        assert_eq!(s.counter("n"), Some(7));
        assert_eq!(s.gauge("n"), Some(2.5));
    }

    #[test]
    fn concurrent_counter_updates_sum_exactly() {
        let r = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("hits");
                    for _ in 0..25_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("hits").get(), 200_000);
    }

    #[test]
    fn names_unions_all_kinds_sorted() {
        let r = MetricsRegistry::new();
        r.counter("b.count");
        r.gauge("a.level");
        r.histogram("c.wait_ms");
        r.gauge("b.count"); // same name, different kind: deduplicated
        assert_eq!(r.names(), vec!["a.level", "b.count", "c.wait_ms"]);
    }

    #[test]
    fn naming_convention_accepts_and_rejects() {
        for good in [
            "codec.color.bits_total",
            "transport.latency_ms",
            "conference.decode_ms",
            "sfu.sub.producer_desk.transport.plis",
            "runtime.pool.queue_depth",
            "display.stall_cause.pair_miss",
        ] {
            assert!(name_follows_convention(good), "{good} should pass");
        }
        for bad in [
            "frames",                         // no component
            "conference.decode.ms",           // standalone unit segment
            "transport.transport_latency_ms", // stutter
            "Codec.bits",                     // uppercase
            "codec.2pass",                    // digit-leading segment
            "codec..bits",                    // empty segment
            "codec.bits-total",               // illegal character
        ] {
            assert!(!name_follows_convention(bad), "{bad} should fail");
        }
    }

    #[test]
    fn snapshot_json_is_valid_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("b.count").add(2);
        r.counter("a.count").add(1);
        r.gauge("g").set(1.5);
        r.histogram("h").record(3.0);
        let j1 = r.snapshot().to_json();
        let j2 = r.snapshot().to_json();
        assert_eq!(j1, j2);
        // Keys sorted; structure shape.
        assert!(j1.starts_with("{\"counters\":{\"a.count\":1,\"b.count\":2}"));
        assert!(j1.contains("\"histograms\":{\"h\":{\"count\":1"));
    }
}
