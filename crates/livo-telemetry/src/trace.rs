//! Causal event trace: a lock-light, fixed-capacity ring of cross-layer
//! frame events.
//!
//! Aggregate metrics say *how much*; they cannot say what happened to
//! frame 217, nor "which hop ate the latency, for which subscriber, and in
//! what order did the transport events interleave?" The event trace does,
//! and it is the only per-frame record. Every layer — capture, cull, codec,
//! packetizer, link, jitter buffer, SFU router, receiver, display clock —
//! appends [`TraceEvent`]s keyed by frame sequence and party id, and the
//! merged, causally-ordered record reconstructs one frame's full life
//! across the sender→SFU→receiver fan-out ([`TraceQuery::frame`]):
//! packetize → send → (nack → retx) → recv → playout → decode → display.
//!
//! Design: the trace is **always on** and must cost nearly nothing.
//! Events land in one of [`SHARDS`] fixed-capacity ring buffers; each
//! thread is pinned to a shard by a thread-local slot id, so a shard's
//! mutex is in practice uncontended (the per-thread write buffer of the
//! classic flight-recorder design, drained lazily at snapshot time) and a
//! single thread's events stay in program order. A global atomic ordinal
//! stamps every event, giving a total causal order for same-timestamp
//! events when the shards are merged. Memory is strictly bounded: a full
//! shard overwrites its oldest event and counts the eviction.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Canonical event kinds, in rough pipeline order. `arg` semantics are
/// per-kind (bits for `encode`, packet count for `packetize`, …); kinds
/// not listed here can be added by any layer via [`intern`].
pub mod kind {
    pub const CAPTURE: &str = "capture";
    pub const CULL: &str = "cull";
    pub const TILE: &str = "tile";
    pub const ENCODE: &str = "encode";
    pub const PACKETIZE: &str = "packetize";
    pub const SEND: &str = "send";
    pub const NACK: &str = "nack";
    pub const RETX: &str = "retx";
    pub const PLI: &str = "pli";
    pub const RECV: &str = "recv";
    /// The jitter buffer released the frame to the decoder; per stream by
    /// `component`, `arg` is send→playout µs.
    pub const PLAYOUT: &str = "playout";
    pub const DECODE: &str = "decode";
    pub const DECODE_ERROR: &str = "decode_error";
    pub const DISPLAY: &str = "display";
    pub const STALL: &str = "stall";
    pub const GCC: &str = "gcc_estimate";
    // SFU membership churn (join/leave/regroup), recorded against
    // [`super::NO_FRAME`] on the subscriber's track.
    pub const JOIN: &str = "join";
    pub const LEAVE: &str = "leave";
    pub const REGROUP: &str = "regroup";
    // Bonded-transport link lifecycle (livo-bond), recorded against
    // [`super::NO_FRAME`]. `arg` is the link index for up/down and the
    // count of stranded in-flight packets for failover.
    pub const LINK_UP: &str = "link_up";
    pub const LINK_DOWN: &str = "link_down";
    pub const FAILOVER: &str = "failover";
}

/// Sentinel `frame_seq` for events not tied to a frame (GCC ticks, pool
/// starvation, …).
pub const NO_FRAME: u64 = u64::MAX;

/// One cross-layer event. 48 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in the emitting harness's clock (virtual µs in the
    /// conference/SFU simulations).
    pub ts_us: u64,
    /// Global ordinal: total causal order across shards, tie-breaking
    /// same-`ts_us` events.
    pub ord: u64,
    /// Frame sequence number, or [`NO_FRAME`].
    pub frame_seq: u64,
    /// Party id: 0 = sender, 1 = SFU (when present), 2+ = subscribers in
    /// the SFU topology; 0 = sender, 1 = receiver point-to-point.
    pub party: u16,
    /// Emitting component (track in the Chrome export), e.g.
    /// `"transport.color"` or `"sfu.cluster0"`. Use [`intern`] for
    /// dynamically built names.
    pub component: &'static str,
    /// Event kind (see [`kind`]).
    pub kind: &'static str,
    /// Kind-specific argument (bits, packet count, estimate bps, …).
    pub arg: i64,
}

impl TraceEvent {
    /// Serialise as one JSON object (the flight-recorder bundle format).
    pub fn write_json(&self, out: &mut String) {
        let mut o = crate::json::ObjectWriter::new(out);
        o.field_u64("ts_us", self.ts_us).field_u64("ord", self.ord);
        if self.frame_seq != NO_FRAME {
            o.field_u64("frame_seq", self.frame_seq);
        }
        o.field_u64("party", self.party as u64)
            .field_str("component", self.component)
            .field_str("kind", self.kind)
            .field_raw("arg")
            .push_str(&self.arg.to_string());
        o.finish();
    }
}

/// Shard count. A power of two; threads are spread round-robin, so up to
/// 16 concurrent writers never share a lock.
pub const SHARDS: usize = 16;

/// One ring: a fixed-capacity circular buffer of events.
#[derive(Debug, Default)]
struct Shard {
    buf: Vec<TraceEvent>,
    /// Next write position once `buf` has reached capacity.
    head: usize,
}

impl Shard {
    /// Append, overwriting the oldest event when full. Returns true when
    /// an event was evicted.
    fn push(&mut self, cap: usize, ev: TraceEvent) -> bool {
        if self.buf.len() < cap {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            true
        }
    }

    /// Events oldest → newest.
    fn drain_ordered(&self, out: &mut Vec<TraceEvent>) {
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
    }
}

/// Stable per-thread slot used to pick a shard, so one thread always
/// writes the same ring (keeping its events in program order) and
/// concurrent threads spread across rings.
fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// The trace: [`SHARDS`] rings plus the global ordinal counter.
#[derive(Debug)]
pub struct EventTrace {
    shards: [Mutex<Shard>; SHARDS],
    shard_cap: usize,
    ord: AtomicU64,
    enabled: AtomicBool,
    evicted: AtomicU64,
}

impl EventTrace {
    /// A trace holding at most ~`capacity` events (rounded up to a
    /// multiple of [`SHARDS`]).
    pub fn new(capacity: usize) -> Self {
        EventTrace {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_cap: capacity.div_ceil(SHARDS).max(1),
            ord: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            evicted: AtomicU64::new(0),
        }
    }

    /// Total event capacity.
    pub fn capacity(&self) -> usize {
        self.shard_cap * SHARDS
    }

    /// Disable/re-enable recording (the overhead gate measures both).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one event. Cost when enabled: one atomic add plus one
    /// (in practice uncontended) shard lock and a ring write.
    pub fn record(
        &self,
        ts_us: u64,
        frame_seq: u64,
        party: u16,
        component: &'static str,
        kind: &'static str,
        arg: i64,
    ) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let ev = TraceEvent {
            ts_us,
            ord: self.ord.fetch_add(1, Ordering::Relaxed),
            frame_seq,
            party,
            component,
            kind,
            arg,
        };
        let mut shard = self.shards[thread_slot() % SHARDS].lock().unwrap();
        if shard.push(self.shard_cap, ev) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events recorded so far (including later-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ord.load(Ordering::Relaxed)
    }

    /// Events overwritten by ring wraparound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().buf.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge every shard into one list sorted by `(ts_us, ord)` — the
    /// causal order of the whole system.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all = Vec::with_capacity(self.len());
        for s in &self.shards {
            s.lock().unwrap().drain_ordered(&mut all);
        }
        all.sort_by_key(|e| (e.ts_us, e.ord));
        all
    }

    /// Drop every held event (counters keep running).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock().unwrap();
            s.buf.clear();
            s.head = 0;
        }
    }
}

/// Intern a dynamically built component name to `&'static str`. Each
/// distinct string leaks exactly once; call at attach time, never per
/// event.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = pool.lock().unwrap();
    if let Some(&v) = set.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// One hop between two consecutive events of a frame's path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    pub from_party: u16,
    pub from_component: &'static str,
    pub from_kind: &'static str,
    pub to_party: u16,
    pub to_component: &'static str,
    pub to_kind: &'static str,
    pub dt_us: u64,
}

/// The reconstructed life of one frame: its events in causal order plus
/// the per-hop latency breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePath {
    pub seq: u64,
    pub events: Vec<TraceEvent>,
    pub hops: Vec<Hop>,
}

impl FramePath {
    /// First-event → last-event span.
    pub fn total_us(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.ts_us.saturating_sub(a.ts_us),
            _ => 0,
        }
    }

    /// Timestamp of the first `kind` event emitted by `party`.
    pub fn ts_of(&self, kind: &str, party: u16) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.kind == kind && e.party == party)
            .map(|e| e.ts_us)
    }

    /// Timestamp of the first `kind` event `party` emitted on `component`
    /// — one stream's leg of the path (`"transport.depth"`, `"codec.color"`).
    pub fn ts_on(&self, kind: &str, party: u16, component: &str) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.kind == kind && e.party == party && e.component == component)
            .map(|e| e.ts_us)
    }

    /// Whether `party` emitted a `kind` event for this frame.
    pub fn has(&self, kind: &str, party: u16) -> bool {
        self.ts_of(kind, party).is_some()
    }

    /// Human-readable per-hop breakdown (the `repro conference` report).
    pub fn describe(&self, party_name: &dyn Fn(u16) -> String) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "frame {}: {} events, {:.2} ms end to end\n",
            self.seq,
            self.events.len(),
            self.total_us() as f64 / 1e3
        ));
        for (i, e) in self.events.iter().enumerate() {
            let dt = if i == 0 { 0 } else { self.hops[i - 1].dt_us };
            out.push_str(&format!(
                "  {:>8} µs  +{:>6} µs  {:<12} {:<18} {:<13} arg={}\n",
                e.ts_us,
                dt,
                party_name(e.party),
                e.component,
                e.kind,
                e.arg
            ));
        }
        out
    }
}

/// Query interface over a causally-ordered event snapshot.
#[derive(Debug, Clone)]
pub struct TraceQuery {
    events: Vec<TraceEvent>,
}

impl TraceQuery {
    /// Build from a raw event list (re-sorted into causal order).
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| (e.ts_us, e.ord));
        TraceQuery { events }
    }

    pub fn from_trace(trace: &EventTrace) -> Self {
        TraceQuery {
            events: trace.snapshot(),
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Distinct frame sequence numbers present, ascending.
    pub fn frames(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.frame_seq != NO_FRAME)
            .map(|e| e.frame_seq)
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        seqs
    }

    /// Reconstruct one frame's path: its events in causal order plus the
    /// hop-by-hop latency deltas. `None` when the frame left no events
    /// (never captured, or evicted by wraparound).
    pub fn frame(&self, seq: u64) -> Option<FramePath> {
        let events: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.frame_seq == seq)
            .copied()
            .collect();
        if events.is_empty() {
            return None;
        }
        let hops = events
            .windows(2)
            .map(|w| Hop {
                from_party: w[0].party,
                from_component: w[0].component,
                from_kind: w[0].kind,
                to_party: w[1].party,
                to_component: w[1].component,
                to_kind: w[1].kind,
                dt_us: w[1].ts_us.saturating_sub(w[0].ts_us),
            })
            .collect();
        Some(FramePath { seq, events, hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_orders_events() {
        let t = EventTrace::new(64);
        t.record(200, 1, 0, "pipeline", kind::ENCODE, 9000);
        t.record(100, 1, 0, "pipeline", kind::CAPTURE, 0);
        t.record(300, 1, 1, "display", kind::DISPLAY, 0);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].kind, kind::CAPTURE);
        assert_eq!(snap[2].kind, kind::DISPLAY);
        assert!(snap.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn same_timestamp_ties_break_by_ordinal() {
        let t = EventTrace::new(64);
        t.record(5, 1, 0, "a", kind::SEND, 0);
        t.record(5, 1, 0, "a", kind::RECV, 0);
        let snap = t.snapshot();
        assert_eq!(snap[0].kind, kind::SEND);
        assert_eq!(snap[1].kind, kind::RECV);
        assert!(snap[0].ord < snap[1].ord);
    }

    #[test]
    fn capacity_is_bounded_and_evicts_oldest() {
        let t = EventTrace::new(SHARDS * 4); // 4 events per shard
        for i in 0..1000u64 {
            t.record(i, i, 0, "x", kind::CAPTURE, 0);
        }
        // Single-threaded: every event lands in one shard, which holds
        // only its own 4-slot ring and evicts the rest.
        assert_eq!(t.len(), 4);
        assert_eq!(t.recorded(), 1000);
        assert_eq!(t.evicted(), 1000 - 4);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 4);
        // Survivors are the newest events, oldest → newest.
        assert_eq!(
            snap.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![996, 997, 998, 999]
        );
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = EventTrace::new(16);
        t.set_enabled(false);
        t.record(1, 1, 0, "x", kind::CAPTURE, 0);
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(2, 1, 0, "x", kind::CAPTURE, 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("codec.color.trace-test");
        let b = intern(&format!("codec.{}.trace-test", "color"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn frame_query_builds_hops() {
        let t = EventTrace::new(1024);
        t.record(100, 7, 0, "pipeline", kind::CAPTURE, 0);
        t.record(180, 7, 0, "codec.color", kind::ENCODE, 40_000);
        t.record(230, 7, 0, "transport.color", kind::SEND, 12);
        t.record(9_000, 7, 1, "transport.color", kind::RECV, 12);
        t.record(9_400, 7, 1, "display", kind::DISPLAY, 0);
        t.record(500, 8, 0, "pipeline", kind::CAPTURE, 0);
        let q = TraceQuery::from_trace(&t);
        assert_eq!(q.frames(), vec![7, 8]);
        let p = q.frame(7).unwrap();
        assert_eq!(p.events.len(), 5);
        assert_eq!(p.hops.len(), 4);
        assert_eq!(p.total_us(), 9_300);
        assert_eq!(p.hops[2].dt_us, 8_770);
        assert_eq!(p.hops[2].to_party, 1);
        assert!(p.has(kind::DISPLAY, 1));
        assert!(!p.has(kind::DISPLAY, 0));
        assert_eq!(p.ts_on(kind::RECV, 1, "transport.color"), Some(9_000));
        assert_eq!(p.ts_on(kind::RECV, 1, "transport.depth"), None);
        assert!(q.frame(99).is_none());
        let text = p.describe(&|p| format!("party{p}"));
        assert!(text.contains("frame 7"));
        assert!(text.contains("party1"));
    }

    #[test]
    fn concurrent_writers_never_tear_and_keep_thread_order() {
        let t = Arc::new(EventTrace::new(16 * 1024));
        let threads: Vec<_> = (0..8u16)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        // arg encodes (thread, i) so tearing is detectable.
                        t.record(
                            i,
                            i,
                            tid,
                            "worker",
                            kind::ENCODE,
                            (tid as i64) << 32 | i as i64,
                        );
                    }
                })
            })
            .collect();
        for th in threads {
            t.record(0, NO_FRAME, 99, "main", kind::GCC, 0);
            th.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 8 * 500 + 8);
        let mut next = [0u64; 8];
        for e in snap.iter().filter(|e| e.party < 8) {
            let tid = (e.arg >> 32) as usize;
            let i = (e.arg & 0xffff_ffff) as u64;
            assert_eq!(e.party as usize, tid, "torn event: {e:?}");
            assert_eq!(e.frame_seq, i, "torn event: {e:?}");
            assert_eq!(e.ts_us, i, "torn event: {e:?}");
            // Events of one thread appear in that thread's program order
            // once re-sorted by (ts, ord) — i strictly increases per tid.
            assert_eq!(i, next[tid], "order broken for thread {tid}");
            next[tid] += 1;
        }
        assert!(next.iter().all(|&n| n == 500));
    }
}
