//! The sender→receiver real-time session.
//!
//! [`RtcSession`] wires packetisation, pacing, trace-driven links, GCC
//! estimation, the per-stream receive buffers (reassembly and playout) and
//! NACK/PLI into the object LiVo's pipeline drives: the sender calls
//! [`RtcSession::send_frame`] once per encoded frame per stream and
//! [`RtcSession::estimate_bps`] to size the next frame; the receiver pulls
//! ready frames with [`RtcSession::recv_frames`].
//!
//! A session carries its packets over one or more *legs* — emulated links
//! bonded under one sender/receiver pair. [`RtcSession::new`] builds the
//! common one-leg call; [`RtcSession::with_legs`] bonds several (WiFi +
//! LTE, …). Each leg runs its *own* [`GccEstimator`] fed by that leg's
//! arrival timestamps and reaches the sender through that leg's delayed
//! feedback path (like REMB/transport-wide-cc), so the per-packet
//! [`scheduler`](crate::scheduler) sees honest per-path rates; the
//! receiver side (receive buffers, NACK/PLI) is *shared*, so
//! frames arriving interleaved across legs reassemble exactly as
//! out-of-order packets on one path would.
//!
//! Failover falls out of the scheduler: a dead leg stops being pickable
//! the instant its event fires, in-flight packets it strands are
//! recovered by the ordinary NACK path over the surviving legs, and the
//! session object never restarts.

use crate::gcc::GccEstimator;
use crate::link::{Delivery, LinkAction, LinkConfig, LinkEmulator, LinkEvent, LinkStats};
use crate::nack::{NackGenerator, RetransmitBuffer};
use crate::packet::{AssembledFrame, FrameBuffer, Packet, Packetizer, StreamId};
use crate::scheduler::{self, LinkSnapshot};
use crate::Micros;
use bytes::Bytes;
use livo_capture::BandwidthTrace;
use livo_telemetry::trace::{kind, EventTrace, NO_FRAME};
use livo_telemetry::{metric_safe, Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Parameters of a one-leg session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub link: LinkConfig,
    /// Jitter-buffer playout target (paper: 100 ms).
    pub jitter_target: Micros,
    /// Initial sender estimate.
    pub initial_estimate_bps: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            link: LinkConfig::default(),
            jitter_target: 100_000,
            initial_estimate_bps: 20e6,
        }
    }
}

/// One leg of a session: a named emulated link and the impairment
/// events that fire on it mid-call.
#[derive(Debug, Clone)]
pub struct LegConfig {
    /// Display name — keys the `{prefix}.link.<name>.*` metrics after
    /// sanitisation.
    pub name: String,
    pub trace: BandwidthTrace,
    pub link: LinkConfig,
    /// Sorted by time.
    pub events: Vec<LinkEvent>,
}

/// Spacing of receiver→sender feedback (RTCP-ish), per leg.
const FEEDBACK_INTERVAL: Micros = 50_000;

/// Pacing headroom over the aggregate estimate.
const PACING_FACTOR: f64 = 1.25;

/// Pacer credit is kept in bit·µs (rate in bit/s × elapsed µs), so it
/// accrues in integers: k ticks of 1 ms add exactly what one of k ms adds,
/// which is what lets a session skip the ticks where nothing is due.
const BIT_US: u64 = 1_000_000;

/// Credit after `dt` µs at `rate` bit/s. Unused credit is capped at 5 ms
/// of sending: bursts larger than that create standing queues at the
/// bottleneck that read as overuse (WebRTC's pacer enforces a similar
/// burst bound). The floor of two MTUs keeps low-rate sessions able to
/// emit full packets at all.
fn accrue(credit: u64, rate: u64, dt: Micros) -> u64 {
    let cap = rate.saturating_mul(5_000).max(20_000 * BIT_US);
    credit.saturating_add(rate.saturating_mul(dt)).min(cap)
}

/// Aggregate session statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub bits_sent: u64,
    pub bits_delivered: u64,
    /// Incomplete frames given up because playout passed them.
    pub late_drops: u64,
    pub plis: u64,
    pub nacks_sent: u64,
    /// NACKed packets of frames already behind playout: a newer frame
    /// played, so their retransmits are stale on arrival.
    pub nacks_superseded: u64,
    pub retransmits: u64,
    /// Sum and count of frame transport latency (send → playout-ready).
    pub latency_sum_us: u128,
    pub latency_count: u64,
}

impl SessionStats {
    /// Mean end-to-end transport latency (packetisation → playout) in ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum_us as f64 / self.latency_count as f64 / 1000.0
        }
    }

    /// Delivered application throughput over `duration_s`, in Mbps.
    /// Returns 0 for a non-positive duration rather than inf/NaN.
    pub fn throughput_mbps(&self, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            0.0
        } else {
            self.bits_delivered as f64 / duration_s / 1e6
        }
    }
}

/// Point-in-time view of one leg, for benches and diagnostics.
#[derive(Debug, Clone)]
pub struct LinkReport {
    pub name: String,
    pub tx_packets: u64,
    pub dup_packets: u64,
    pub stats: LinkStats,
}

/// Per-leg metric handles (resolved once at attach).
struct LegTelemetry {
    estimate_bps: Arc<Gauge>,
    owd_ms: Arc<Gauge>,
    loss_fraction: Arc<Gauge>,
    up: Arc<Gauge>,
    tx_packets: Arc<Counter>,
    dup_packets: Arc<Counter>,
}

/// Held metric handles for the session, resolved once at attach time so
/// the per-packet and per-tick paths touch only atomics.
struct SessionTelemetry {
    gcc_estimate_bps: Arc<Gauge>,
    gcc_queuing_delay_ms: Arc<Gauge>,
    gcc_trend_ms: Arc<Gauge>,
    gcc_threshold_ms: Arc<Gauge>,
    gcc_loss_fraction: Arc<Gauge>,
    sender_estimate_bps: Arc<Gauge>,
    jitter_occupancy: Arc<Gauge>,
    owd_ms: Arc<Gauge>,
    nacks_sent: Arc<Counter>,
    nacks_superseded: Arc<Counter>,
    retransmits: Arc<Counter>,
    plis: Arc<Counter>,
    late_drops: Arc<Gauge>,
    bits_sent_color: Arc<Counter>,
    bits_sent_depth: Arc<Counter>,
    bits_delivered: Arc<Counter>,
    frames_delivered: Arc<Counter>,
    latency_ms: Arc<Histogram>,
    /// Sum of the aggregate GCC estimates sampled at each feedback
    /// interval, with the sample count — the denominator of the QoE
    /// delivered-vs-estimate ratio.
    estimate_sum_bps: Arc<Gauge>,
    estimate_samples: Arc<Counter>,
    bond_links_up: Arc<Gauge>,
    bond_failovers: Arc<Counter>,
}

/// Causal-trace sink plus the party ids of the session's two endpoints.
struct SessionTrace {
    trace: Arc<EventTrace>,
    send_party: u16,
    recv_party: u16,
}

/// One path: emulated link + its own congestion estimator.
struct Leg {
    name: String,
    em: LinkEmulator,
    estimator: GccEstimator,
    /// Feedback-delayed estimate the sender schedules with.
    sender_estimate_bps: f64,
    pending_feedback: VecDeque<(Micros, f64)>,
    /// Smoothed one-way delay (µs), the Δt input to frustum prediction.
    smoothed_owd: f64,
    /// (sent, dropped) counter base of the current feedback window.
    loss_window_base: (u64, u64),
    /// Decaying loss memory (peak-hold with 0.9/window decay): burst loss
    /// stays visible for ~1–2 s, which is the signal key-packet
    /// duplication and retransmit placement key off — a Gilbert–Elliott
    /// link is untrustworthy *between* bursts too.
    loss_ewma: f64,
    /// Administratively up (events can toggle).
    up: bool,
    /// False once killed — never comes back.
    alive: bool,
    events: VecDeque<LinkEvent>,
    tx_packets: u64,
    dup_packets: u64,
    /// Highest sequence this leg has *delivered*, per stream. Legs are
    /// FIFO, so a missing sequence below every up leg's frontier cannot
    /// still be in flight — it is provably lost (see
    /// [`RtcSession::loss_frontier`]).
    max_seq: BTreeMap<StreamId, u64>,
    telemetry: Option<LegTelemetry>,
}

impl Leg {
    /// Schedulable: administratively up and not killed.
    fn is_up(&self) -> bool {
        self.up && self.alive
    }

    /// Smoothed one-way delay, or the propagation delay before the first
    /// arrival.
    fn owd_us(&self) -> f64 {
        if self.smoothed_owd > 0.0 {
            self.smoothed_owd
        } else {
            self.em.propagation() as f64
        }
    }

    fn snapshot(&self, now: Micros) -> LinkSnapshot {
        LinkSnapshot {
            estimate_bps: self.sender_estimate_bps,
            owd_us: self.owd_us(),
            backlog_us: self.em.backlog(now),
            recent_loss: self.loss_ewma,
            up: self.is_up(),
        }
    }
}

/// Causal-trace track for a media stream.
fn component_of(stream: StreamId) -> &'static str {
    match stream {
        StreamId::Color => "transport.color",
        StreamId::Depth => "transport.depth",
        StreamId::Control => "transport.control",
    }
}

/// One direction of a conference call, over one or more legs.
pub struct RtcSession {
    jitter_target: Micros,
    legs: Vec<Leg>,
    // --- sender side ---
    packetizers: BTreeMap<StreamId, Packetizer>,
    retransmit: BTreeMap<StreamId, RetransmitBuffer>,
    pacer: VecDeque<Packet>,
    /// Unspent pacing credit, bit·µs ([`BIT_US`]).
    pacer_credit: u64,
    last_pace: Micros,
    pending_retx: VecDeque<(Micros, Packet)>,
    /// Keyframe requests in request order: when each reaches the sender,
    /// and the stream and frame whose decode broke.
    pending_pli: VecDeque<(Micros, StreamId, u64)>,
    /// Per stream, the frame id of the last keyframe
    /// [`send_frame`](RtcSession::send_frame) sent: the keyframe-storm
    /// guard of [`take_pli`](RtcSession::take_pli).
    keyframe_sent: BTreeMap<StreamId, u64>,
    /// Reused per-packet scheduler input (one snapshot per leg).
    snaps: Vec<LinkSnapshot>,
    // --- shared receiver side ---
    buffers: BTreeMap<StreamId, FrameBuffer>,
    nack: BTreeMap<StreamId, NackGenerator>,
    /// First time each currently-missing seq was seen missing — gaps
    /// younger than the cross-leg reorder grace are packets still in
    /// flight on a slower leg, not losses.
    missing_since: BTreeMap<(StreamId, u64), Micros>,
    /// When a gap next ages past the reorder grace or a NACK retry falls
    /// due; `nack_gaps` also runs on every arrival and leg event.
    nack_due: Micros,
    /// Earliest instant the next `tick` can change anything, computed by
    /// the last tick that ran (see [`RtcSession::next_event`]).
    wake: Micros,
    ready: Vec<AssembledFrame>,
    last_feedback: Micros,
    stats: SessionStats,
    failovers: u64,
    telemetry: Option<SessionTelemetry>,
    trace: Option<SessionTrace>,
    /// Reused arrival buffer for [`LinkEmulator::poll_into`] — keeps the
    /// per-tick receive path allocation-free.
    poll_scratch: Vec<Delivery>,
}

impl RtcSession {
    /// A session over one emulated link with no scheduled impairments.
    pub fn new(trace: BandwidthTrace, cfg: SessionConfig) -> Self {
        let leg = LegConfig {
            name: "main".to_string(),
            trace,
            link: cfg.link,
            events: Vec::new(),
        };
        RtcSession::with_legs(vec![leg], cfg.jitter_target, cfg.initial_estimate_bps)
    }

    /// A session bonded over `legs` (at least one, names unique);
    /// `initial_estimate_bps` is the *aggregate*, split evenly across legs.
    pub fn with_legs(
        legs: Vec<LegConfig>,
        jitter_target: Micros,
        initial_estimate_bps: f64,
    ) -> Self {
        assert!(!legs.is_empty(), "a session needs at least one leg");
        let per_leg_estimate = initial_estimate_bps / legs.len() as f64;
        let legs: Vec<Leg> = legs
            .into_iter()
            .map(|l| Leg {
                name: l.name,
                em: LinkEmulator::new(l.trace, l.link),
                estimator: GccEstimator::new(per_leg_estimate),
                sender_estimate_bps: per_leg_estimate,
                pending_feedback: VecDeque::new(),
                smoothed_owd: 0.0,
                loss_window_base: (0, 0),
                loss_ewma: 0.0,
                up: true,
                alive: true,
                events: l.events.into(),
                tx_packets: 0,
                dup_packets: 0,
                max_seq: BTreeMap::new(),
                telemetry: None,
            })
            .collect();
        RtcSession {
            jitter_target,
            snaps: Vec::with_capacity(legs.len()),
            legs,
            packetizers: BTreeMap::new(),
            retransmit: BTreeMap::new(),
            pacer: VecDeque::new(),
            pacer_credit: 0,
            last_pace: 0,
            pending_retx: VecDeque::new(),
            pending_pli: VecDeque::new(),
            keyframe_sent: BTreeMap::new(),
            buffers: BTreeMap::new(),
            nack: BTreeMap::new(),
            missing_since: BTreeMap::new(),
            nack_due: Micros::MAX,
            wake: 0,
            ready: Vec::new(),
            last_feedback: 0,
            stats: SessionStats::default(),
            failovers: 0,
            telemetry: None,
            trace: None,
            poll_scratch: Vec::new(),
        }
    }

    /// Publish session metrics under `{prefix}.*` in `registry`.
    ///
    /// Gauges: aggregate GCC internals ([`GccEstimator::state`]), the
    /// sender-side (feedback-delayed) estimate, jitter-buffer occupancy,
    /// smoothed one-way delay and cumulative late drops. Counters: NACKs,
    /// retransmits, PLIs, per-stream sent bits, delivered bits/frames.
    /// Histogram: per-frame transport latency (send → playout-ready).
    /// Plus the per-leg `{prefix}.link.<name>.*` family and
    /// `{prefix}.bond.*`.
    pub fn attach_telemetry(&mut self, registry: &Arc<MetricsRegistry>, prefix: &str) {
        for leg in &mut self.legs {
            let lp = format!("{prefix}.link.{}", metric_safe(&leg.name));
            let t = LegTelemetry {
                estimate_bps: registry.gauge(&format!("{lp}.estimate_bps")),
                owd_ms: registry.gauge(&format!("{lp}.owd_ms")),
                loss_fraction: registry.gauge(&format!("{lp}.loss_fraction")),
                up: registry.gauge(&format!("{lp}.up")),
                tx_packets: registry.counter(&format!("{lp}.tx_packets")),
                dup_packets: registry.counter(&format!("{lp}.dup_packets")),
            };
            t.up.set(if leg.up { 1.0 } else { 0.0 });
            leg.telemetry = Some(t);
        }
        let t = SessionTelemetry {
            gcc_estimate_bps: registry.gauge(&format!("{prefix}.gcc.estimate_bps")),
            gcc_queuing_delay_ms: registry.gauge(&format!("{prefix}.gcc.queuing_delay_ms")),
            gcc_trend_ms: registry.gauge(&format!("{prefix}.gcc.trend_ms")),
            gcc_threshold_ms: registry.gauge(&format!("{prefix}.gcc.threshold_ms")),
            gcc_loss_fraction: registry.gauge(&format!("{prefix}.gcc.loss_fraction")),
            sender_estimate_bps: registry.gauge(&format!("{prefix}.sender_estimate_bps")),
            jitter_occupancy: registry.gauge(&format!("{prefix}.jitter_occupancy")),
            owd_ms: registry.gauge(&format!("{prefix}.owd_ms")),
            nacks_sent: registry.counter(&format!("{prefix}.nacks_sent")),
            nacks_superseded: registry.counter(&format!("{prefix}.nacks_superseded")),
            retransmits: registry.counter(&format!("{prefix}.retransmits")),
            plis: registry.counter(&format!("{prefix}.plis")),
            late_drops: registry.gauge(&format!("{prefix}.late_drops")),
            bits_sent_color: registry.counter(&format!("{prefix}.bits_sent.color")),
            bits_sent_depth: registry.counter(&format!("{prefix}.bits_sent.depth")),
            bits_delivered: registry.counter(&format!("{prefix}.bits_delivered")),
            frames_delivered: registry.counter(&format!("{prefix}.frames_delivered")),
            latency_ms: registry.histogram(&format!("{prefix}.latency_ms")),
            estimate_sum_bps: registry.gauge(&format!("{prefix}.gcc.estimate_sum_bps")),
            estimate_samples: registry.counter(&format!("{prefix}.gcc.estimate_samples")),
            bond_links_up: registry.gauge(&format!("{prefix}.bond.links_up")),
            bond_failovers: registry.counter(&format!("{prefix}.bond.failovers")),
        };
        t.bond_links_up.set(self.links_up() as f64);
        self.telemetry = Some(t);
    }

    /// Record cross-layer causal events into `trace`: per-frame
    /// `packetize`/`send`/`retx` on the sender endpoint (`send_party`) and
    /// `nack`/`recv`/`playout`/`pli` on the receiver endpoint
    /// (`recv_party`), each stream on its own `transport.<stream>`
    /// component, plus the receiver's `gcc_estimate` on `transport.gcc`; and
    /// `link_up`/`link_down`/`failover` on the `transport.bond` component
    /// (arg = leg index, or stranded packet count for failover).
    pub fn attach_trace(&mut self, trace: Arc<EventTrace>, send_party: u16, recv_party: u16) {
        self.trace = Some(SessionTrace {
            trace,
            send_party,
            recv_party,
        });
    }

    /// Current sender-side bandwidth estimate (feedback-delayed): the sum
    /// over schedulable legs, each discounted by its decaying loss
    /// memory. A leg that has been dropping 30% of its packets in bursts
    /// does not offer its full GCC rate as *goodput* — pricing the loss
    /// into the aggregate keeps the offered load off the bursty leg's
    /// ceiling (fewer packets on a Gilbert–Elliott link is fewer burst
    /// hits), where per-leg GCC alone under-reacts: a short burst barely
    /// dents a 50 ms loss window, so the raw estimate parks at capacity
    /// and every burst lands on full-rate traffic.
    pub fn estimate_bps(&self) -> f64 {
        self.legs
            .iter()
            .filter(|l| l.is_up())
            .map(|l| l.sender_estimate_bps * (1.0 - l.loss_ewma.min(0.5)))
            .sum()
    }

    /// Smoothed one-way delay of the *fastest* schedulable leg, µs — the
    /// Δt a frustum predictor should assume for the next frame (transport
    /// only; LiVo adds processing delays on top).
    pub fn one_way_delay_us(&self) -> f64 {
        self.legs
            .iter()
            .filter(|l| l.is_up())
            .map(Leg::owd_us)
            .fold(f64::INFINITY, f64::min)
            .min(1e9)
    }

    /// Number of legs currently schedulable.
    pub fn links_up(&self) -> usize {
        self.legs.iter().filter(|l| l.is_up()).count()
    }

    /// Times a carrying leg died/downed while another leg survived.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Instantaneous ground-truth capacity of the schedulable legs' traces
    /// (for utilisation reporting — Table 1).
    pub fn capacity_bps(&self, now: Micros) -> f64 {
        self.legs
            .iter()
            .filter(|l| l.is_up())
            .map(|l| l.em.capacity_bps(now))
            .sum()
    }

    /// Wire bits the pacer still holds, not yet handed to a leg.
    pub fn queued_bits(&self) -> u64 {
        self.pacer.iter().map(Packet::wire_bits).sum()
    }

    /// Per-leg diagnostics for benches.
    pub fn link_reports(&self) -> Vec<LinkReport> {
        self.legs
            .iter()
            .map(|l| LinkReport {
                name: l.name.clone(),
                tx_packets: l.tx_packets,
                dup_packets: l.dup_packets,
                stats: l.em.stats(),
            })
            .collect()
    }

    /// Queue a frame for transmission. A keyframe answers the keyframe
    /// requests about its stream's earlier frames (see
    /// [`take_pli`](Self::take_pli)).
    pub fn send_frame(
        &mut self,
        now: Micros,
        stream: StreamId,
        frame_id: u64,
        data: Bytes,
        keyframe: bool,
    ) {
        let pz = self
            .packetizers
            .entry(stream)
            .or_insert_with(|| Packetizer::new(stream));
        let pkts = pz.packetize(frame_id, data, now, keyframe);
        let rb = self
            .retransmit
            .entry(stream)
            .or_insert_with(|| RetransmitBuffer::new(4096));
        self.stats.frames_sent += 1;
        if keyframe {
            self.keyframe_sent.insert(stream, frame_id);
        }
        self.wake = self.wake.min(now);
        let mut frame_bits = 0u64;
        let mut n_pkts = 0i64;
        for p in pkts {
            frame_bits += p.wire_bits();
            n_pkts += 1;
            rb.store(&p);
            self.pacer.push_back(p);
        }
        self.stats.bits_sent += frame_bits;
        if let Some(t) = &self.telemetry {
            match stream {
                StreamId::Color => t.bits_sent_color.add(frame_bits),
                StreamId::Depth => t.bits_sent_depth.add(frame_bits),
                StreamId::Control => {}
            }
        }
        if let Some(tr) = &self.trace {
            let comp = component_of(stream);
            tr.trace
                .record(now, frame_id, tr.send_party, comp, kind::PACKETIZE, n_pkts);
            tr.trace.record(
                now,
                frame_id,
                tr.send_party,
                comp,
                kind::SEND,
                frame_bits as i64,
            );
        }
    }

    /// Advance the session to `now`. Call at ≥ millisecond granularity.
    /// A tick before [`next_event`](Self::next_event) is a no-op and
    /// returns at once.
    pub fn tick(&mut self, now: Micros) {
        if now < self.next_event() {
            return;
        }
        // Credit for the time since the last tick accrues at the rate that
        // held over it, before this instant's leg events change the rate.
        let dt = now.saturating_sub(self.last_pace);
        self.pacer_credit = accrue(self.pacer_credit, self.pacing_rate(), dt);
        self.last_pace = now;
        let fired = self.apply_events(now);
        self.pace(now);
        let arrived = self.deliver(now);
        // Gaps open, close, age and become provable only on an arrival or
        // a leg event; otherwise nothing is due before `nack_due`.
        if arrived || fired || now >= self.nack_due {
            self.nack_gaps(now);
        }
        self.feedback(now);
        self.wake = self.wake_after_tick();
    }

    /// The earliest instant at which [`tick`](Self::tick) can change
    /// anything, or at which [`take_pli`](Self::take_pli) has a PLI to hand
    /// out. [`send_frame`](Self::send_frame) lowers it to its `now`.
    pub fn next_event(&self) -> Micros {
        self.pending_pli
            .front()
            .map_or(self.wake, |&(due, ..)| due.min(self.wake))
    }

    /// Minimum over everything a tick acts on: leg events, link arrivals,
    /// feedback reaching the sender, the first retransmit, the pacer's
    /// release of its head packet, playout, NACK aging and retries, and the
    /// next feedback report.
    fn wake_after_tick(&self) -> Micros {
        let legs = self.legs.iter().flat_map(|l| {
            let feedback = l.pending_feedback.front().map(|f| f.0);
            [
                l.events.front().map(|e| e.at),
                l.em.next_arrival(),
                feedback,
            ]
        });
        let release = self.pacer.front().map(|p| self.release_at(p.wire_bits()));
        legs.chain([self.pending_retx.front().map(|r| r.0), release])
            .chain(self.buffers.values().map(FrameBuffer::next_ready))
            .flatten()
            .fold(self.nack_due, Micros::min)
            .min(self.last_feedback + FEEDBACK_INTERVAL)
    }

    /// Pacing rate, bit/s: [`PACING_FACTOR`] × the aggregate estimate.
    fn pacing_rate(&self) -> u64 {
        (self.estimate_bps() * PACING_FACTOR) as u64
    }

    /// When the pacer's credit covers a packet of `bits` at today's rate (a
    /// zero rate changes only at an instant that is itself a wake-up).
    fn release_at(&self, bits: u64) -> Micros {
        let short = (bits * BIT_US).saturating_sub(self.pacer_credit);
        let rate = self.pacing_rate().max(1);
        self.last_pace.saturating_add(short.div_ceil(rate))
    }

    /// Fire every leg event due by `now`; returns whether any fired.
    fn apply_events(&mut self, now: Micros) -> bool {
        let mut fired = false;
        for i in 0..self.legs.len() {
            while let Some(ev) = self.legs[i].events.front().copied() {
                if ev.at > now {
                    break;
                }
                self.legs[i].events.pop_front();
                fired = true;
                match ev.action {
                    LinkAction::Down => self.take_leg_down(i, now, false),
                    LinkAction::Kill => self.take_leg_down(i, now, true),
                    LinkAction::Up => {
                        let leg = &mut self.legs[i];
                        if leg.alive && !leg.up {
                            leg.up = true;
                            leg.em.set_down(false);
                            if let Some(t) = &leg.telemetry {
                                t.up.set(1.0);
                            }
                            self.trace_leg_event(now, kind::LINK_UP, i as i64);
                        }
                    }
                    LinkAction::SetPropagation(p) => {
                        self.legs[i].em.set_propagation(p);
                    }
                }
            }
        }
        if fired {
            if let Some(t) = &self.telemetry {
                t.bond_links_up.set(self.links_up() as f64);
            }
        }
        fired
    }

    /// Record a leg up/down/failover event on the `transport.bond` track.
    fn trace_leg_event(&self, now: Micros, kind: &'static str, arg: i64) {
        if let Some(tr) = &self.trace {
            tr.trace
                .record(now, NO_FRAME, tr.send_party, "transport.bond", kind, arg);
        }
    }

    fn take_leg_down(&mut self, i: usize, now: Micros, kill: bool) {
        let was_up = self.legs[i].is_up();
        if kill {
            self.legs[i].alive = false;
        }
        self.legs[i].up = false;
        if !was_up {
            return;
        }
        let stranded = self.legs[i].em.set_down(true);
        if let Some(t) = &self.legs[i].telemetry {
            t.up.set(0.0);
        }
        let survivors = self.links_up();
        self.trace_leg_event(now, kind::LINK_DOWN, i as i64);
        if survivors > 0 {
            self.trace_leg_event(now, kind::FAILOVER, stranded as i64);
            self.failovers += 1;
            if let Some(t) = &self.telemetry {
                t.bond_failovers.inc();
            }
        }
        livo_telemetry::log::warn_limited(
            "transport.link_down",
            1_000,
            "transport",
            if kill { "link killed" } else { "link down" },
            &[
                ("link", self.legs[i].name.clone().into()),
                ("stranded_packets", (stranded as u64).into()),
                ("links_up", (survivors as u64).into()),
                ("now_us", now.into()),
            ],
        );
    }

    /// Refill the scheduler's per-leg view (a leg's backlog moves with
    /// every packet it is handed).
    fn refresh_snapshots(&mut self, now: Micros) {
        self.snaps.clear();
        self.snaps.extend(self.legs.iter().map(|l| l.snapshot(now)));
    }

    /// Hand one packet to leg `i`, as the scheduled copy or as the
    /// insurance duplicate.
    fn transmit(&mut self, i: usize, p: Packet, now: Micros, duplicate: bool) {
        let leg = &mut self.legs[i];
        if duplicate {
            leg.dup_packets += 1;
        } else {
            leg.tx_packets += 1;
        }
        if let Some(t) = &leg.telemetry {
            if duplicate {
                t.dup_packets.inc();
            } else {
                t.tx_packets.inc();
            }
        }
        leg.em.send(p, now);
    }

    /// Pacer + per-packet scheduler: spend the accrued credit releasing
    /// packets, each onto the leg with the minimum scheduling cost;
    /// keyframe packets are duplicated onto the second-best leg while the
    /// session is seeing loss.
    fn pace(&mut self, now: Micros) {
        // Retransmissions jump the queue, on the most reliable leg — a
        // retransmit that dies again costs a PLI — and are mirrored onto
        // the fastest *other* leg: retransmits are a sliver of the
        // traffic but each one is a display deadline, so recovery
        // latency should be the min over two paths, not the reliable
        // leg's RTT alone.
        while self
            .pending_retx
            .front()
            .is_some_and(|(due, _)| *due <= now)
        {
            let (_, mut p) = self.pending_retx.pop_front().unwrap();
            // Re-stamp the true departure time: a retransmit carrying its
            // original `send_ts` would feed the per-leg delay estimator
            // an apparent OWD of the whole NACK round-trip, and a few
            // hundred of those per call drags the GCC estimate and the
            // smoothed OWD (hence the reorder grace) into fantasy land.
            p.send_ts = now;
            p.retransmit = true;
            let bits = p.wire_bits();
            self.refresh_snapshots(now);
            let Some(i) = scheduler::pick_reliable(&self.snaps, bits) else {
                break; // every leg down — drop the retx, NACK will refire
            };
            if let Some(second) = scheduler::pick_duplicate(&self.snaps, bits, i) {
                self.transmit(second, p.clone(), now, true);
            }
            self.stats.retransmits += 1;
            if let Some(t) = &self.telemetry {
                t.retransmits.inc();
            }
            if let Some(tr) = &self.trace {
                tr.trace.record(
                    now,
                    p.frame_id,
                    tr.send_party,
                    component_of(p.stream),
                    kind::RETX,
                    bits as i64,
                );
            }
            self.transmit(i, p, now, false);
        }

        while let Some(head) = self.pacer.front() {
            let bits = head.wire_bits();
            if self.pacer_credit < bits * BIT_US {
                break;
            }
            self.refresh_snapshots(now);
            let Some(primary) = scheduler::pick_primary(&self.snaps, bits) else {
                break; // total blackout: hold packets, NACK recovers later
            };
            self.pacer_credit -= bits * BIT_US;
            let mut p = self.pacer.pop_front().unwrap();
            // True departure time, for the delay estimator.
            p.send_ts = now;
            // Keyframes are insured whenever the session sees any loss:
            // losing one costs a PLI round-trip.
            if p.keyframe
                && (self.snaps[primary].is_degraded() || self.aggregate_recent_loss() > 0.01)
            {
                if let Some(second) = scheduler::pick_duplicate(&self.snaps, bits, primary) {
                    self.transmit(second, p.clone(), now, true);
                }
            }
            self.transmit(primary, p, now, false);
        }
    }

    /// How long a sequence gap may be plain cross-leg reordering: the
    /// spread between the slowest and fastest up leg's smoothed one-way
    /// delay, plus slack for queueing wobble. Zero with fewer than two
    /// legs up — a single FIFO path cannot reorder.
    fn reorder_grace(&self) -> Micros {
        let (mut up, mut min, mut max) = (0, f64::INFINITY, 0.0f64);
        for l in self.legs.iter().filter(|l| l.is_up()) {
            up += 1;
            min = min.min(l.owd_us());
            max = max.max(l.owd_us());
        }
        if up < 2 {
            return 0;
        }
        (max - min) as Micros + 10_000
    }

    /// Loss across all legs over the last feedback window, weighted by
    /// how much each leg carried.
    fn aggregate_recent_loss(&self) -> f64 {
        let mut loss = 0.0;
        let mut weight = 0.0;
        for l in self.legs.iter().filter(|l| l.is_up()) {
            let w = l.sender_estimate_bps.max(1.0);
            loss += l.loss_ewma * w;
            weight += w;
        }
        if weight > 0.0 {
            loss / weight
        } else {
            0.0
        }
    }

    /// Receiver side: drain every leg into the *shared* per-stream
    /// [`FrameBuffer`], then play out what is due. The buffer drops a second
    /// copy of a fragment and every packet of a frame it already holds
    /// complete, so key packets duplicated across legs collapse back into
    /// one copy here. Returns whether any packet arrived.
    fn deliver(&mut self, now: Micros) -> bool {
        // Delay-aligned playout: a frame plays the slowest up leg's
        // propagation plus the jitter target after capture, so display
        // cadence is uniform whichever leg it rode — or on arrival, if it
        // completes later (NACK recovery).
        let path_delay = self
            .legs
            .iter()
            .filter(|l| l.is_up())
            .map(|l| l.em.propagation())
            .max()
            .unwrap_or(20_000)
            + self.jitter_target;
        let mut arrivals = std::mem::take(&mut self.poll_scratch);
        let mut arrived = false;
        for leg in &mut self.legs {
            arrivals.clear();
            arrived |= leg.em.poll_into(now, &mut arrivals) > 0;
            for d in arrivals.drain(..) {
                let owd = d.arrival.saturating_sub(d.packet.send_ts) as f64;
                leg.smoothed_owd = if leg.smoothed_owd == 0.0 {
                    owd
                } else {
                    0.9 * leg.smoothed_owd + 0.1 * owd
                };
                // Per-link ACK timestamps feed this leg's own estimator.
                leg.estimator
                    .on_packet(d.packet.send_ts, d.arrival, d.packet.wire_bits());
                let stream = d.packet.stream;
                let frame_id = d.packet.frame_id;
                let fr = leg.max_seq.entry(stream).or_insert(d.packet.seq);
                *fr = (*fr).max(d.packet.seq);
                let buf = self.buffers.entry(stream).or_default();
                let Some(frame) = buf.push(d.packet, d.arrival, path_delay) else {
                    continue;
                };
                if let Some(tr) = &self.trace {
                    tr.trace.record(
                        d.arrival,
                        frame_id,
                        tr.recv_party,
                        component_of(stream),
                        kind::RECV,
                        frame.data.len() as i64 * 8,
                    );
                }
            }
        }
        self.poll_scratch = arrivals;
        // Play what is due; each release gives up what playout passed.
        let mut played = false;
        for (stream, buf) in self.buffers.iter_mut() {
            while let Some(f) = buf.pop_ready(now) {
                played = true;
                self.stats.frames_delivered += 1;
                self.stats.bits_delivered += f.data.len() as u64 * 8;
                let latency_us = now.saturating_sub(f.send_ts);
                self.stats.latency_sum_us += latency_us as u128;
                self.stats.latency_count += 1;
                if let Some(t) = &self.telemetry {
                    t.frames_delivered.inc();
                    t.bits_delivered.add(f.data.len() as u64 * 8);
                    t.latency_ms.record(latency_us as f64 / 1000.0);
                }
                if let Some(tr) = &self.trace {
                    tr.trace.record(
                        now,
                        f.frame_id,
                        tr.recv_party,
                        component_of(*stream),
                        kind::PLAYOUT,
                        latency_us as i64,
                    );
                }
                self.ready.push(f);
            }
        }
        // Everything below moves only when a packet came in or a frame
        // went out.
        if !(arrived || played) {
            return false;
        }
        self.stats.late_drops = self.buffers.values().map(|b| b.late_drops).sum();
        if let Some(t) = &self.telemetry {
            t.jitter_occupancy
                .set(self.buffers.values().map(|b| b.depth()).sum::<usize>() as f64);
            t.late_drops.set(self.stats.late_drops as f64);
            t.owd_ms.set(self.one_way_delay_us() / 1000.0);
        }
        arrived
    }

    /// Feedback/NACK travel back to the sender over the fastest
    /// surviving path.
    fn fb_delay(&self) -> Micros {
        self.legs
            .iter()
            .filter(|l| l.is_up())
            .map(|l| l.em.propagation())
            .min()
            .unwrap_or(20_000)
    }

    /// Provable-loss frontier of `stream`: the smallest "highest
    /// delivered sequence" across the up legs. Packets are paced in
    /// sequence order and every leg is FIFO, so once *every* up leg has
    /// delivered something newer, a missing sequence below the frontier
    /// cannot still be in flight anywhere — it is a real loss and skips
    /// the cross-leg reorder grace. During a burst this fires as soon as
    /// both legs deliver past the hole, typically well inside the grace
    /// window. `None` while some up leg has delivered nothing on the
    /// stream (or no leg is up): nothing is provable.
    fn loss_frontier(&self, stream: StreamId) -> Option<u64> {
        let mut frontier: Option<u64> = None;
        for l in self.legs.iter().filter(|l| l.is_up()) {
            let delivered = *l.max_seq.get(&stream)?;
            frontier = Some(frontier.map_or(delivered, |f| f.min(delivered)));
        }
        frontier
    }

    /// Event-driven NACK. On one FIFO link a sequence gap is a loss;
    /// across legs with different propagation a packet in flight on the
    /// slower leg *looks* like a gap next to its faster siblings. Gaps
    /// must therefore age past the current cross-leg OWD spread before
    /// they are NACK-eligible, or a lossless bond retransmits its own
    /// reordering — but once a gap has aged, waiting for the next feedback
    /// round would add up to a full interval to every burst-loss recovery,
    /// so eligibility is checked on every tick that can change it (see
    /// `nack_due`). The generator's per-seq retry spacing keeps this
    /// storm-free.
    fn nack_gaps(&mut self, now: Micros) {
        self.nack_due = Micros::MAX;
        for (&stream, buf) in &self.buffers {
            let mut missing = buf.missing_seqs(64);
            // Forget first-seen times of gaps that closed; `missing_seqs`
            // is ascending, so membership is a binary search.
            self.missing_since
                .retain(|(s, seq), _| *s != stream || missing.binary_search(seq).is_ok());
            if missing.is_empty() {
                continue;
            }
            let grace = self.reorder_grace();
            let provable = self.loss_frontier(stream);
            missing.retain(|&seq| {
                let first = *self.missing_since.entry((stream, seq)).or_insert(now);
                let eligible =
                    provable.is_some_and(|f| seq < f) || now.saturating_sub(first) >= grace;
                if !eligible {
                    self.nack_due = self.nack_due.min(first + grace);
                }
                eligible
            });
            if missing.is_empty() {
                continue;
            }
            let ng = self
                .nack
                .entry(stream)
                .or_insert_with(NackGenerator::with_defaults);
            let to_request = ng.nacks(&missing, now);
            self.nack_due = self.nack_due.min(ng.next_due());
            if to_request.is_empty() {
                continue;
            }
            self.stats.nacks_sent += to_request.len() as u64;
            if let Some(t) = &self.telemetry {
                t.nacks_sent.add(to_request.len() as u64);
            }
            if let Some(rb) = self.retransmit.get(&stream) {
                let due = now + self.fb_delay();
                let requested = rb.lookup(&to_request);
                let superseded = requested.iter().filter(|p| buf.passed(p.frame_id)).count() as u64;
                self.stats.nacks_superseded += superseded;
                if let Some(t) = &self.telemetry {
                    t.nacks_superseded.add(superseded);
                }
                if let Some(tr) = &self.trace {
                    // One event per frame the request reaches into (arg: its
                    // packets asked for), so the frame's path carries it.
                    for run in requested.chunk_by(|a, b| a.frame_id == b.frame_id) {
                        tr.trace.record(
                            now,
                            run[0].frame_id,
                            tr.recv_party,
                            component_of(stream),
                            kind::NACK,
                            run.len() as i64,
                        );
                    }
                }
                for p in requested {
                    self.pending_retx.push_back((due, p));
                }
            }
        }
    }

    /// Receiver→sender feedback, per leg.
    fn feedback(&mut self, now: Micros) {
        if now.saturating_sub(self.last_feedback) >= FEEDBACK_INTERVAL {
            self.last_feedback = now;
            for leg in &mut self.legs {
                // Loss fraction over the interval, from offered/dropped deltas.
                let stats = leg.em.stats();
                let (base_sent, base_drop) = leg.loss_window_base;
                let d_sent = stats.sent_packets.saturating_sub(base_sent);
                let d_drop = stats.dropped_total().saturating_sub(base_drop);
                leg.loss_window_base = (stats.sent_packets, stats.dropped_total());
                let loss = if d_sent == 0 {
                    0.0
                } else {
                    d_drop as f64 / d_sent as f64
                };
                leg.loss_ewma = loss.max(leg.loss_ewma * 0.9);
                leg.estimator.on_loss_report(loss);
                leg.pending_feedback
                    .push_back((now + leg.em.propagation(), leg.estimator.estimate_bps()));
                if let Some(t) = &leg.telemetry {
                    t.estimate_bps.set(leg.sender_estimate_bps);
                    t.owd_ms.set(leg.smoothed_owd / 1000.0);
                    t.loss_fraction.set(loss);
                }
            }
            if let Some(t) = &self.telemetry {
                // Aggregate GCC view: estimate is the sum; the delay
                // internals come from the leg with the worst queuing
                // delay (the one closest to overuse).
                let agg: f64 = self
                    .legs
                    .iter()
                    .filter(|l| l.is_up())
                    .map(|l| l.estimator.estimate_bps())
                    .sum();
                let worst = self
                    .legs
                    .iter()
                    .filter(|l| l.is_up())
                    .map(|l| l.estimator.state())
                    .max_by(|a, b| a.queuing_delay_ms.total_cmp(&b.queuing_delay_ms));
                t.gcc_estimate_bps.set(agg);
                if let Some(st) = worst {
                    t.gcc_queuing_delay_ms.set(st.queuing_delay_ms);
                    t.gcc_trend_ms.set(st.trend_ms);
                    t.gcc_threshold_ms.set(st.threshold_ms);
                }
                t.gcc_loss_fraction.set(self.aggregate_recent_loss());
                t.estimate_sum_bps.set(t.estimate_sum_bps.get() + agg);
                t.estimate_samples.inc();
            }
            if let Some(tr) = &self.trace {
                tr.trace.record(
                    now,
                    NO_FRAME,
                    tr.recv_party,
                    "transport.gcc",
                    kind::GCC,
                    self.estimate_bps() as i64,
                );
            }
        }
        // Apply per-leg feedback that has reached the sender.
        let mut applied = false;
        for leg in &mut self.legs {
            while let Some(&(due, est)) = leg.pending_feedback.front() {
                if due > now {
                    break;
                }
                leg.pending_feedback.pop_front();
                leg.sender_estimate_bps = est;
                applied = true;
            }
        }
        if applied {
            if let Some(t) = &self.telemetry {
                t.sender_estimate_bps.set(self.estimate_bps());
            }
        }
    }

    /// Receiver side: ask the sender for a keyframe, because the decode of
    /// `stream`'s frame `frame_id` lost its reference. The request counts
    /// in `plis`, records a `pli` event on that frame's path (arg: the
    /// feedback delay, µs) and reaches the sender one feedback delay
    /// later, where [`take_pli`](Self::take_pli) hands it out.
    pub fn request_keyframe(&mut self, now: Micros, stream: StreamId, frame_id: u64) {
        let fb_delay = self.fb_delay();
        self.stats.plis += 1;
        if let Some(t) = &self.telemetry {
            t.plis.inc();
        }
        if let Some(tr) = &self.trace {
            tr.trace.record(
                now,
                frame_id,
                tr.recv_party,
                component_of(stream),
                kind::PLI,
                fb_delay as i64,
            );
        }
        self.pending_pli
            .push_back((now + fb_delay, stream, frame_id));
    }

    /// True once per keyframe request that has reached the sender; the
    /// application responds by forcing a keyframe.
    ///
    /// Keyframe-storm guard: a request about a frame older than a
    /// keyframe already sent on that stream is answered by that keyframe —
    /// in flight or waiting to play, the lane resynchronises on it — so it is
    /// consumed *without* granting a second intra, which would burst
    /// another full intra into a link that is already losing packets. A
    /// request about that keyframe or a later frame (the keyframe was lost
    /// or undecodable, or the chain broke again after it) is granted, so no
    /// request goes unanswered. The guard reads what was sent, not what was
    /// granted, so it also holds where intras are fired by something other
    /// than a grant (an SFU cluster's chain).
    pub fn take_pli(&mut self, now: Micros) -> bool {
        while let Some(&(due, stream, frame_id)) = self.pending_pli.front() {
            if due > now {
                break;
            }
            self.pending_pli.pop_front();
            let answered = self
                .keyframe_sent
                .get(&stream)
                .is_some_and(|&key| key > frame_id);
            if !answered {
                return true;
            }
        }
        false
    }

    /// Frames ready for decode, in playout order per stream.
    pub fn recv_frames(&mut self) -> Vec<AssembledFrame> {
        std::mem::take(&mut self.ready)
    }

    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::GilbertElliott;
    use crate::{mbps, ms};
    use livo_capture::TraceId;
    use livo_math::rng::{cases, SplitMix64};
    use livo_telemetry::TraceQuery;

    fn run_session(
        trace: BandwidthTrace,
        cfg: SessionConfig,
        frame_bits_fn: impl Fn(f64) -> usize,
        duration_s: f64,
    ) -> (RtcSession, Vec<AssembledFrame>) {
        let mut s = RtcSession::new(trace, cfg);
        let mut frames = Vec::new();
        let mut t: Micros = 0;
        let end = (duration_s * 1e6) as Micros;
        let mut frame_id = 0u64;
        let mut next_frame: Micros = 0;
        while t < end {
            if t >= next_frame {
                let budget = s.estimate_bps() / 30.0;
                let bytes = frame_bits_fn(budget) / 8;
                s.send_frame(
                    t,
                    StreamId::Color,
                    frame_id,
                    Bytes::from(vec![0u8; bytes]),
                    frame_id == 0,
                );
                frame_id += 1;
                next_frame += 33_333;
            }
            s.tick(t);
            frames.extend(s.recv_frames());
            t += 1000;
        }
        (s, frames)
    }

    #[test]
    fn frames_flow_end_to_end() {
        let trace = BandwidthTrace::constant(50.0, 30.0);
        let (s, frames) = run_session(
            trace,
            SessionConfig::default(),
            |budget| (budget * 0.8) as usize,
            5.0,
        );
        assert!(frames.len() > 100, "delivered {} frames", frames.len());
        assert_eq!(s.stats().late_drops, 0);
        // In-order delivery.
        for w in frames.windows(2) {
            assert!(w[1].frame_id > w[0].frame_id);
        }
    }

    #[test]
    fn latency_is_dominated_by_jitter_buffer() {
        let trace = BandwidthTrace::constant(100.0, 30.0);
        let (s, frames) = run_session(
            trace,
            SessionConfig::default(),
            |budget| (budget * 0.5) as usize,
            5.0,
        );
        assert!(!frames.is_empty());
        let lat = s.stats().mean_latency_ms();
        // 100 ms jitter target + 20 ms propagation + transmission ≈ 125–165.
        assert!((115.0..190.0).contains(&lat), "latency {lat} ms");
    }

    #[test]
    fn estimate_tracks_capacity_with_good_utilization() {
        // The Table 1 behaviour: direct adaptation utilises most of the
        // trace capacity.
        let trace = BandwidthTrace::constant(80.0, 40.0);
        let (s, _frames) = run_session(
            trace,
            SessionConfig {
                initial_estimate_bps: 10e6,
                ..Default::default()
            },
            |budget| (budget * 0.9) as usize,
            30.0,
        );
        let est = s.estimate_bps();
        assert!(
            est > mbps(40.0) && est < mbps(110.0),
            "estimate {:.1} Mbps vs 80 Mbps capacity",
            est / 1e6
        );
        let tput = s.stats().throughput_mbps(30.0);
        assert!(tput / 80.0 > 0.45, "utilization {:.2}", tput / 80.0);
    }

    #[test]
    fn overload_backs_off_instead_of_collapsing() {
        // Offer far more than capacity: the estimator must pull the rate
        // down near capacity rather than queueing forever.
        let trace = BandwidthTrace::constant(20.0, 40.0);
        let (s, frames) = run_session(
            trace,
            SessionConfig {
                initial_estimate_bps: 60e6,
                ..Default::default()
            },
            |budget| (budget * 0.9) as usize,
            20.0,
        );
        assert!(
            s.estimate_bps() < mbps(35.0),
            "estimate {:.1}",
            s.estimate_bps() / 1e6
        );
        assert!(!frames.is_empty());
    }

    #[test]
    fn random_loss_triggers_nack_and_recovery() {
        let cfg = SessionConfig {
            link: LinkConfig {
                random_loss: 0.03,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let trace = BandwidthTrace::constant(50.0, 30.0);
        let (s, frames) = run_session(trace, cfg, |budget| (budget * 0.6) as usize, 10.0);
        assert!(s.stats().nacks_sent > 0, "loss must trigger NACKs");
        assert!(s.stats().retransmits > 0, "NACKs must trigger retransmits");
        // Most frames still get through.
        assert!(frames.len() > 200, "only {} frames", frames.len());
    }

    #[test]
    fn a_keyframe_request_is_handed_out_once_after_the_feedback_delay() {
        let trace = BandwidthTrace::constant(50.0, 30.0);
        let mut s = RtcSession::new(trace, SessionConfig::default());
        let registry = Arc::new(MetricsRegistry::new());
        let events = Arc::new(EventTrace::new(1 << 10));
        s.attach_telemetry(&registry, "transport");
        s.attach_trace(events.clone(), 0, 1);
        let fb_delay = s.fb_delay();
        s.tick(0);
        s.request_keyframe(5_000, StreamId::Depth, 7);
        assert_eq!(
            s.next_event(),
            5_000 + fb_delay,
            "the request makes the session due"
        );
        let grants: Vec<Micros> = (5_000..300_000)
            .step_by(1_000)
            .filter(|&t| {
                s.tick(t);
                s.take_pli(t)
            })
            .collect();
        assert_eq!(grants, vec![5_000 + fb_delay]);
        assert_eq!(s.stats().plis, 1);
        assert_eq!(registry.snapshot().counter("transport.plis"), Some(1));
        // One `pli` event, on the requesting frame's depth path.
        let q = TraceQuery::from_trace(&events);
        let path = q.frame(7).expect("the request is on frame 7's path");
        assert_eq!(path.ts_on(kind::PLI, 1, "transport.depth"), Some(5_000));
        assert_eq!(path.ts_on(kind::PLI, 1, "transport.color"), None);
    }

    #[test]
    fn pli_within_one_rtt_of_granted_keyframe_is_suppressed() {
        // Regression for the keyframe-storm edge case: on a near-blackout
        // link (90% loss) a receiver asks for a keyframe every 10 ms about
        // the frame it is at (sent one propagation ago), and the sender
        // answers each grant with an intra at once. The requests about
        // frames before that intra are answered by it, so grants come at
        // most once per round trip (propagation out, feedback delay back).
        let cfg = SessionConfig {
            link: LinkConfig {
                random_loss: 0.9,
                seed: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let prop = cfg.link.propagation;
        let trace = BandwidthTrace::constant(50.0, 30.0);
        let mut s = RtcSession::new(trace, cfg);
        let min_rtt = prop + s.fb_delay();
        let mut grants: Vec<Micros> = Vec::new();
        let mut sent: Vec<Micros> = Vec::new(); // send time by frame id
        let mut t: Micros = 0;
        let mut next: Micros = 0;
        while t < ms(10_000) {
            let key = s.take_pli(t);
            if key {
                grants.push(t);
            }
            if key || t >= next {
                let frame_id = sent.len() as u64;
                let payload = Bytes::from(vec![0u8; 30_000]);
                s.send_frame(t, StreamId::Depth, frame_id, payload, key || t == 0);
                sent.push(t);
                next = t + 33_333;
            }
            s.tick(t);
            if t.is_multiple_of(10_000) {
                if let Some(at) = sent.iter().rposition(|&sent| sent + prop <= t) {
                    s.request_keyframe(t, StreamId::Depth, at as u64);
                }
            }
            t += 1000;
        }
        // Requests kept coming, yet the session granted no keyframe storm.
        assert!(
            s.stats().plis > 2 * grants.len() as u64,
            "guard must swallow most requests"
        );
        assert!(grants.len() > 10, "the storm still gets keyframes");
        for w in grants.windows(2) {
            assert!(
                w[1] - w[0] >= min_rtt,
                "keyframe grants {} and {} within one RTT ({min_rtt} µs)",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn spaced_plis_are_each_granted_but_same_rtt_duplicates_are_not() {
        let trace = BandwidthTrace::constant(50.0, 30.0);
        let mut s = RtcSession::new(trace, SessionConfig::default());
        let rtt = (2.0 * s.one_way_delay_us()) as Micros;
        let fb = s.fb_delay();
        let send = |s: &mut RtcSession, t: Micros, frame_id: u64, key: bool| {
            s.send_frame(
                t,
                StreamId::Color,
                frame_id,
                Bytes::from(vec![0u8; 100]),
                key,
            );
        };
        // Keyframe 10 goes out, whoever asked for it (a call's first frame,
        // an SFU chain's intra); P frame 11 follows.
        send(&mut s, 100_000, 10, true);
        send(&mut s, 100_000 + rtt / 4, 11, false);
        // Within one RTT of the keyframe: a request about frame 9, which
        // keyframe 10 answers, a request about depth frame 9, which no
        // depth keyframe answers, and one about frame 11, whose chain broke
        // after keyframe 10.
        let due = 100_000 + rtt / 2;
        s.request_keyframe(due - fb, StreamId::Color, 9);
        s.request_keyframe(due - fb, StreamId::Depth, 9);
        s.request_keyframe(due - fb, StreamId::Color, 11);
        assert!(s.take_pli(due), "no depth keyframe answers depth frame 9");
        assert_eq!(s.pending_pli.len(), 1, "the answered request was consumed");
        assert!(
            s.take_pli(due),
            "a break after the keyframe sent gets an intra, within one RTT too"
        );
        assert!(!s.take_pli(due), "each request is handed out once");
        // A genuinely new loss event after the RTT window.
        s.request_keyframe(100_000 + 2 * rtt - fb, StreamId::Color, 12);
        assert!(s.take_pli(100_000 + 2 * rtt));
    }

    #[test]
    fn a_lane_broken_after_a_delivered_keyframe_gets_an_intra_on_a_queued_link() {
        // A 3 Mbps link offered ≈ 3.2 Mbps plus a 40 kB keyframe every
        // second: its queue grows, and the smoothed one-way delay with it
        // (≈ 190 ms by frame 31, against 20 ms of propagation). A lane that
        // decoded keyframe 30 and then breaks on frame 31 asks for a
        // keyframe; the request reaches the sender within two smoothed
        // one-way delays of keyframe 30's send, and must still be granted:
        // the sender sent no keyframe after frame 31.
        let trace = BandwidthTrace::constant(3.0, 30.0);
        let cfg = SessionConfig {
            jitter_target: 30_000,
            ..Default::default()
        };
        let mut s = RtcSession::new(trace, cfg);
        let fb = s.fb_delay();
        let mut sent: Vec<Micros> = Vec::new(); // send time by frame id
        let mut asked: Option<Micros> = None;
        let mut granted: Option<Micros> = None;
        let mut t: Micros = 0;
        while t < ms(5_000) && granted.is_none() {
            if t.is_multiple_of(33_000) {
                let frame_id = sent.len() as u64;
                let key = frame_id.is_multiple_of(30);
                let bytes = if key { 40_000 } else { 13_000 };
                let payload = Bytes::from(vec![0u8; bytes]);
                s.send_frame(t, StreamId::Color, frame_id, payload, key);
                sent.push(t);
            }
            s.tick(t);
            for f in s.recv_frames() {
                if f.frame_id == 31 {
                    s.request_keyframe(t, StreamId::Color, 31);
                    asked = Some(t);
                }
            }
            if s.take_pli(t) {
                granted = Some(t);
                let owd = s.one_way_delay_us() as Micros;
                assert!(
                    t - sent[30] < 2 * owd,
                    "the request must reach the sender within 2 × OWD ({owd} µs) \
                     of keyframe 30 (sent {}, request at {t})",
                    sent[30]
                );
            }
            t += 1000;
        }
        let asked = asked.expect("frame 31 arrived");
        assert_eq!(
            granted,
            Some(asked + fb),
            "the request was granted on arrival"
        );
    }

    #[test]
    fn telemetry_reports_gcc_and_delivery() {
        let trace = BandwidthTrace::constant(50.0, 30.0);
        let mut s = RtcSession::new(trace, SessionConfig::default());
        let registry = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(EventTrace::new(1 << 16));
        s.attach_telemetry(&registry, "transport");
        s.attach_trace(trace.clone(), 0, 1);

        let mut t: Micros = 0;
        let mut frame_id = 0u64;
        let mut next_frame: Micros = 0;
        while t < 3_000_000 {
            if t >= next_frame {
                let bytes = (s.estimate_bps() / 30.0 * 0.5) as usize / 8;
                s.send_frame(
                    t,
                    StreamId::Color,
                    frame_id,
                    Bytes::from(vec![0u8; bytes]),
                    frame_id == 0,
                );
                frame_id += 1;
                next_frame += 33_333;
            }
            s.tick(t);
            s.recv_frames();
            t += 1000;
        }

        let snap = registry.snapshot();
        assert!(snap.counter("transport.frames_delivered").unwrap() > 0);
        assert!(snap.counter("transport.bits_sent.color").unwrap() > 0);
        assert_eq!(snap.counter("transport.bits_sent.depth"), Some(0));
        assert!(snap.gauge("transport.gcc.estimate_bps").unwrap() > 0.0);
        assert!(snap.gauge("transport.sender_estimate_bps").unwrap() > 0.0);
        let lat = snap.histogram("transport.latency_ms").unwrap();
        assert!(lat.count > 0 && lat.p50 > 0.0);

        // Every delivered frame has a causally ordered packetize → send →
        // recv → playout path on the colour track.
        let q = TraceQuery::from_trace(&trace);
        let mut checked = 0;
        for seq in q.frames() {
            let p = q.frame(seq).unwrap();
            let on = |k, party| p.ts_on(k, party, "transport.color");
            if on(kind::PLAYOUT, 1).is_none() {
                continue; // frame still in flight at cutoff
            }
            let path = [
                on(kind::PACKETIZE, 0),
                on(kind::SEND, 0),
                on(kind::RECV, 1),
                on(kind::PLAYOUT, 1),
            ];
            assert!(path.iter().all(Option::is_some), "frame {seq}: {path:?}");
            assert!(path.is_sorted(), "frame {seq} out of order: {path:?}");
            checked += 1;
        }
        assert!(checked > 50, "only {checked} complete frame timelines");
    }

    #[test]
    fn gcc_state_struct_matches_estimate() {
        let trace = BandwidthTrace::constant(50.0, 30.0);
        let s = RtcSession::new(trace, SessionConfig::default());
        let estimator = &s.legs[0].estimator;
        let st = estimator.state();
        assert_eq!(st.estimate_bps, estimator.estimate_bps());
        assert_eq!(st.loss_fraction, 0.0);
        assert!(st.threshold_ms > 0.0);
    }

    #[test]
    fn one_way_delay_estimate_is_sane() {
        let trace = BandwidthTrace::constant(100.0, 10.0);
        let (s, _) = run_session(
            trace,
            SessionConfig::default(),
            |budget| (budget * 0.3) as usize,
            3.0,
        );
        let owd = s.one_way_delay_us();
        // ≥ propagation, < 100 ms under light load.
        assert!((20_000.0..100_000.0).contains(&owd), "owd {owd} µs");
    }

    #[test]
    fn retransmits_do_not_inflate_the_one_way_delay() {
        // A retransmit leaves with a fresh departure stamp; carrying the
        // original would read the whole NACK round trip as path delay.
        let cfg = SessionConfig {
            link: LinkConfig {
                random_loss: 0.03,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let propagation = cfg.link.propagation as f64;
        let mut s = RtcSession::new(BandwidthTrace::constant(50.0, 12.0), cfg);
        let mut peak: f64 = 0.0;
        for t in (0..10_000_000).step_by(1_000) {
            if t % 33_333 < 1_000 {
                let id = t / 33_333;
                s.send_frame(
                    t,
                    StreamId::Color,
                    id,
                    Bytes::from(vec![0u8; 8_000]),
                    id == 0,
                );
            }
            s.tick(t);
            s.recv_frames();
            peak = peak.max(s.one_way_delay_us());
        }
        assert!(s.stats().retransmits > 0, "3% loss must retransmit");
        assert!(
            peak <= 1.5 * propagation,
            "smoothed OWD peaked at {peak} µs on a {propagation} µs path"
        );
    }

    #[test]
    fn credit_accrues_the_same_in_one_step_or_many() {
        cases(0xC4ED, 200, |rng| {
            let credit = rng.gen_range(0..40_000 * BIT_US);
            let rate = rng.gen_range(0..200_000_000u64);
            let k = rng.gen_range(1..400u64);
            let stepped = (0..k).fold(credit, |c, _| accrue(c, rate, 1_000));
            assert_eq!(stepped, accrue(credit, rate, k * 1_000));
        });
    }

    /// A random 1–2 leg session: constant or `trace-2` capacity, random
    /// and Gilbert–Elliott loss, and leg events of every kind.
    fn random_legs(rng: &mut SplitMix64, secs: f32) -> Vec<LegConfig> {
        (0..rng.gen_range(1..3usize))
            .map(|i| {
                let trace = if rng.gen_bool(0.5) {
                    BandwidthTrace::constant(rng.gen_range(1.5..30.0), secs)
                } else {
                    BandwidthTrace::generate(TraceId::Trace2, secs, rng.gen()).scaled(0.1)
                };
                let link = LinkConfig {
                    propagation: rng.gen_range(5..60) * 1_000,
                    random_loss: [0.0, 0.03, 0.1][rng.gen_range(0..3)],
                    burst: rng
                        .gen_bool(0.3)
                        .then(|| GilbertElliott::bursty(150.0, 8.0, 0.5)),
                    seed: rng.gen(),
                    ..Default::default()
                };
                let mut events: Vec<LinkEvent> = (0..rng.gen_range(0..4))
                    .map(|_| LinkEvent {
                        at: rng.gen_range(0..(secs * 1e6) as Micros),
                        action: match rng.gen_range(0..4) {
                            0 => LinkAction::Down,
                            1 => LinkAction::Up,
                            2 => LinkAction::Kill,
                            _ => LinkAction::SetPropagation(rng.gen_range(5..80) * 1_000),
                        },
                    })
                    .collect();
                events.sort_by_key(|e| e.at);
                LegConfig {
                    name: format!("leg{i}"),
                    trace,
                    link,
                    events,
                }
            })
            .collect()
    }

    #[test]
    fn waking_on_next_event_equals_ticking_every_millisecond() {
        // A runs every 1 ms tick in full (its wake-up and NACK times are
        // reset before each); B is ticked only at the millisecond instants at or after
        // its `next_event()`, which its sends lower to the send instant.
        let (mut ran_a, mut ran_b) = (0u64, 0u64);
        cases(0x3A7E, 32, |rng| {
            let secs = 4.0;
            let legs = random_legs(rng, secs + 1.0);
            let initial = rng.gen_range(2e6..20e6);
            let mut a = RtcSession::with_legs(legs.clone(), 100_000, initial);
            let mut b = RtcSession::with_legs(legs, 100_000, initial);
            let poll_pli = rng.gen_bool(0.7);
            // Sparse frames leave the link quiet while gaps age and retry.
            let spacing = [33_333, 100_000, 250_000][rng.gen_range(0..3)];
            let mut frame_id = 0u64;
            for t in (0..(secs * 1e6) as Micros).step_by(1_000) {
                if t % spacing < 1_000 {
                    for stream in [StreamId::Color, StreamId::Depth] {
                        // Half the estimate per stream, give or take.
                        let share = a.estimate_bps() / 30.0 / 16.0 * rng.gen_range(0.1..1.2);
                        let data = Bytes::from(vec![0u8; share as usize + 100]);
                        let key = rng.gen_bool(0.05);
                        a.send_frame(t, stream, frame_id, data.clone(), key);
                        b.send_frame(t, stream, frame_id, data, key);
                    }
                    frame_id += 1;
                }
                (a.wake, a.nack_due) = (0, 0);
                a.tick(t);
                ran_a += 1;
                let due = b.next_event() <= t;
                if due {
                    b.tick(t);
                    ran_b += 1;
                }
                // A lane asks for a keyframe now and then.
                if poll_pli && t.is_multiple_of(97_000) {
                    a.request_keyframe(t, StreamId::Color, frame_id);
                    b.request_keyframe(t, StreamId::Color, frame_id);
                }
                let pli_a = poll_pli && a.take_pli(t);
                let pli_b = poll_pli && due && b.take_pli(t);
                assert_eq!(pli_a, pli_b, "take_pli at {t}");
                let frames = |s: &mut RtcSession| -> Vec<(u64, Micros, Bytes)> {
                    let got = s.recv_frames().into_iter();
                    got.map(|f| (f.frame_id, f.completed_at, f.data)).collect()
                };
                assert_eq!(frames(&mut a), frames(&mut b), "frames at {t}");
                assert_eq!(a.stats(), b.stats(), "stats at {t}");
                assert_eq!(a.estimate_bps().to_bits(), b.estimate_bps().to_bits());
                assert_eq!(
                    a.one_way_delay_us().to_bits(),
                    b.one_way_delay_us().to_bits()
                );
            }
        });
        assert!(ran_b * 5 < ran_a * 4, "B ran {ran_b} of {ran_a} ticks");
    }

    #[test]
    fn metric_names_sanitised() {
        assert_eq!(metric_safe("WiFi-5G"), "wifi_5g");
        assert_eq!(metric_safe("5g"), "l5g");
        assert_eq!(metric_safe("lte"), "lte");
    }
}
