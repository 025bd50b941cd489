//! Trace-driven bottleneck link emulation (the Mahimahi stand-in).
//!
//! A single FIFO bottleneck: packets are serviced at the instantaneous
//! capacity given by a bandwidth trace, wait in a drop-tail queue bounded
//! by queuing delay, then cross a fixed propagation delay. Optional i.i.d.
//! random loss models the residual wireless loss the paper's NACK/PLI
//! features exist for.

use crate::packet::Packet;
use crate::Micros;
use livo_capture::BandwidthTrace;
use livo_math::rng::SplitMix64;
use std::collections::VecDeque;

/// Two-state Gilbert–Elliott burst-loss model. The chain advances one
/// step per *offered* packet: a long "good" residency with near-zero loss
/// punctuated by short "bad" residencies where most packets die — the
/// shape of wireless interference bursts that i.i.d. loss can't produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) per offered packet.
    pub p_enter_bad: f64,
    /// P(bad → good) per offered packet.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Bursty profile from mean state residencies (in packets): lossless
    /// good state, `loss_bad` inside bursts of mean length `mean_bad_pkts`.
    pub fn bursty(mean_good_pkts: f64, mean_bad_pkts: f64, loss_bad: f64) -> Self {
        GilbertElliott {
            p_enter_bad: 1.0 / mean_good_pkts.max(1.0),
            p_exit_bad: 1.0 / mean_bad_pkts.max(1.0),
            loss_good: 0.0,
            loss_bad,
        }
    }
}

/// Configuration of one direction of the emulated path.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub propagation: Micros,
    /// Drop-tail bound on queuing delay (Mahimahi-style "droptail with a
    /// queue of N packets" expressed in time).
    pub max_queue_delay: Micros,
    /// I.i.d. packet loss probability (applied before the queue).
    pub random_loss: f64,
    /// Optional Gilbert–Elliott burst-loss chain, applied independently of
    /// (on top of) `random_loss`.
    pub burst: Option<GilbertElliott>,
    /// RNG seed for loss decisions.
    pub seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            propagation: 20_000, // 20 ms one way
            max_queue_delay: 500_000,
            random_loss: 0.0,
            burst: None,
            seed: 1,
        }
    }
}

/// Something that happens to one link at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAction {
    /// Administratively down: in-flight packets are stranded, sends drop.
    /// The link can come back with [`LinkAction::Up`].
    Down,
    /// Bring a downed link back up (no-op on a killed link).
    Up,
    /// Permanently dead — never comes back (pulled cable, out of range).
    Kill,
    /// RTT jump: change the one-way propagation delay.
    SetPropagation(Micros),
}

/// A scheduled [`LinkAction`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEvent {
    pub at: Micros,
    pub action: LinkAction,
}

/// Cumulative counter snapshot of one link, cheap to copy out per tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub sent_packets: u64,
    pub delivered_packets: u64,
    pub delivered_bits: u64,
    pub dropped_random: u64,
    pub dropped_burst: u64,
    pub dropped_queue: u64,
    pub dropped_down: u64,
}

impl LinkStats {
    /// Every packet offered but not delivered (any cause).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_random + self.dropped_burst + self.dropped_queue + self.dropped_down
    }
}

/// One delivered packet with its arrival time.
#[derive(Debug, Clone)]
pub struct Delivery {
    pub packet: Packet,
    pub arrival: Micros,
}

/// The emulated link.
pub struct LinkEmulator {
    trace: BandwidthTrace,
    cfg: LinkConfig,
    rng: SplitMix64,
    /// Time the bottleneck server becomes free.
    busy_until: Micros,
    /// Packets in flight: ordered by arrival time (service completion +
    /// propagation).
    in_flight: VecDeque<Delivery>,
    /// Gilbert–Elliott chain state (`true` = bad/bursty state).
    ge_bad: bool,
    /// Administratively down: sends are dropped, in-flight was flushed.
    down: bool,
    // --- statistics ---
    pub delivered_packets: u64,
    pub delivered_bits: u64,
    pub dropped_random: u64,
    pub dropped_burst: u64,
    pub dropped_queue: u64,
    pub dropped_down: u64,
    pub sent_packets: u64,
}

impl LinkEmulator {
    pub fn new(trace: BandwidthTrace, cfg: LinkConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed ^ 0x1357_9BDF_2468_ACE0);
        LinkEmulator {
            trace,
            cfg,
            rng,
            busy_until: 0,
            in_flight: VecDeque::new(),
            ge_bad: false,
            down: false,
            delivered_packets: 0,
            delivered_bits: 0,
            dropped_random: 0,
            dropped_burst: 0,
            dropped_queue: 0,
            dropped_down: 0,
            sent_packets: 0,
        }
    }

    /// Instantaneous capacity in bits/second at virtual time `now`.
    pub fn capacity_bps(&self, now: Micros) -> f64 {
        self.trace.capacity_at(now as f64 / 1e6) * 1e6
    }

    /// Offer one packet to the link at time `now`. Returns `false` when the
    /// packet was dropped (random loss or full queue).
    pub fn send(&mut self, packet: Packet, now: Micros) -> bool {
        self.sent_packets += 1;
        if self.down {
            self.dropped_down += 1;
            return false;
        }
        if self.cfg.random_loss > 0.0 && self.rng.gen_bool(self.cfg.random_loss) {
            self.dropped_random += 1;
            return false;
        }
        if let Some(ge) = self.cfg.burst {
            // Advance the chain once per offered packet, then draw.
            let flip = if self.ge_bad {
                ge.p_exit_bad
            } else {
                ge.p_enter_bad
            };
            if flip > 0.0 && self.rng.gen_bool(flip.min(1.0)) {
                self.ge_bad = !self.ge_bad;
            }
            let p_loss = if self.ge_bad {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if p_loss > 0.0 && self.rng.gen_bool(p_loss.min(1.0)) {
                self.dropped_burst += 1;
                return false;
            }
        }
        let start = now.max(self.busy_until);
        // Drop-tail on queuing delay.
        if start.saturating_sub(now) > self.cfg.max_queue_delay {
            self.dropped_queue += 1;
            return false;
        }
        let cap = self.capacity_bps(start).max(1e3);
        let service = (packet.wire_bits() as f64 / cap * 1e6).ceil() as Micros;
        self.busy_until = start + service;
        let arrival = self.busy_until + self.cfg.propagation;
        self.in_flight.push_back(Delivery { packet, arrival });
        true
    }

    /// Pop every packet that has arrived by `now`, in arrival order.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should prefer
    /// [`Self::poll_into`] with a reused scratch buffer.
    pub fn poll(&mut self, now: Micros) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// Drain every packet that has arrived by `now` into `out` (appended in
    /// arrival order, `out` is not cleared). Returns how many were drained.
    pub fn poll_into(&mut self, now: Micros, out: &mut Vec<Delivery>) -> usize {
        let mut n = 0;
        while let Some(front) = self.in_flight.front() {
            if front.arrival <= now {
                let d = self.in_flight.pop_front().unwrap();
                self.delivered_packets += 1;
                self.delivered_bits += d.packet.wire_bits();
                out.push(d);
                n += 1;
            } else {
                break;
            }
        }
        n
    }

    /// Arrival time of the packet [`Self::poll_into`] hands out next (the
    /// FIFO head, even when a propagation drop lets a later one land first).
    pub fn next_arrival(&self) -> Option<Micros> {
        self.in_flight.front().map(|d| d.arrival)
    }

    /// Take the link administratively down or bring it back up. Going down
    /// flushes everything in flight (those packets are lost, counted as
    /// `dropped_down`); the count of stranded packets is returned. Bringing
    /// an up link up (or a down link down again) is a no-op returning 0.
    pub fn set_down(&mut self, down: bool) -> usize {
        if down == self.down {
            return 0;
        }
        self.down = down;
        if down {
            let stranded = self.in_flight.len();
            self.dropped_down += stranded as u64;
            self.in_flight.clear();
            self.busy_until = 0;
            stranded
        } else {
            0
        }
    }

    /// Change the one-way propagation delay mid-run (RTT jump). Applies to
    /// packets offered from now on; packets already in flight keep their
    /// original arrival time.
    pub fn set_propagation(&mut self, propagation: Micros) {
        self.cfg.propagation = propagation;
    }

    /// Current one-way propagation delay.
    pub fn propagation(&self) -> Micros {
        self.cfg.propagation
    }

    /// Copy out the cumulative counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            sent_packets: self.sent_packets,
            delivered_packets: self.delivered_packets,
            delivered_bits: self.delivered_bits,
            dropped_random: self.dropped_random,
            dropped_burst: self.dropped_burst,
            dropped_queue: self.dropped_queue,
            dropped_down: self.dropped_down,
        }
    }

    /// Current queuing backlog in time (how long a new packet would wait).
    pub fn backlog(&self, now: Micros) -> Micros {
        self.busy_until.saturating_sub(now)
    }

    /// Fraction of offered packets dropped so far.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent_packets == 0 {
            0.0
        } else {
            self.stats().dropped_total() as f64 / self.sent_packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packetizer, StreamId};
    use bytes::Bytes;

    fn mk_packets(n: usize, size: usize) -> Vec<Packet> {
        let mut p = Packetizer::with_mtu(StreamId::Color, size);
        (0..n)
            .flat_map(|i| p.packetize(i as u64, Bytes::from(vec![0u8; size]), 0, false))
            .collect()
    }

    #[test]
    fn delivery_includes_service_and_propagation() {
        // 10 Mbps constant link, one 1200 B packet: service = 982 µs
        // (1228 B wire), propagation 20 ms.
        let trace = BandwidthTrace::constant(10.0, 10.0);
        let mut link = LinkEmulator::new(trace, LinkConfig::default());
        let pkts = mk_packets(1, 1200);
        assert!(link.send(pkts[0].clone(), 0));
        assert!(link.poll(10_000).is_empty(), "not yet arrived");
        let out = link.poll(30_000);
        assert_eq!(out.len(), 1);
        let expect = (1228.0 * 8.0 / 10e6 * 1e6) as Micros + 20_000;
        assert!(
            (out[0].arrival as i64 - expect as i64).abs() <= 2,
            "{}",
            out[0].arrival
        );
    }

    #[test]
    fn queue_builds_under_overload() {
        let trace = BandwidthTrace::constant(1.0, 10.0); // 1 Mbps
        let mut link = LinkEmulator::new(trace, LinkConfig::default());
        for p in mk_packets(50, 1200) {
            link.send(p, 0);
        }
        // 50 packets at ~9.8 ms each ≈ 490 ms backlog.
        let backlog = link.backlog(0);
        assert!(backlog > 400_000, "backlog {backlog} µs");
        // Arrivals are spaced by the service time.
        let out = link.poll(10_000_000);
        assert_eq!(out.len(), 50);
        let gaps: Vec<i64> = out
            .windows(2)
            .map(|w| w[1].arrival as i64 - w[0].arrival as i64)
            .collect();
        for g in gaps {
            assert!((g - 9824).abs() < 20, "gap {g}");
        }
    }

    #[test]
    fn droptail_kicks_in() {
        let trace = BandwidthTrace::constant(1.0, 10.0);
        let cfg = LinkConfig {
            max_queue_delay: 50_000,
            ..Default::default()
        };
        let mut link = LinkEmulator::new(trace, cfg);
        let mut accepted = 0;
        for p in mk_packets(100, 1200) {
            if link.send(p, 0) {
                accepted += 1;
            }
        }
        // Only ~5 packets fit in 50 ms at 1 Mbps.
        assert!(accepted < 10, "{accepted} accepted");
        assert!(link.dropped_queue > 80);
        assert!(link.loss_fraction() > 0.8);
    }

    #[test]
    fn random_loss_drops_expected_fraction() {
        let trace = BandwidthTrace::constant(100.0, 10.0);
        let cfg = LinkConfig {
            random_loss: 0.2,
            seed: 7,
            ..Default::default()
        };
        let mut link = LinkEmulator::new(trace, cfg);
        let mut lost = 0;
        for (i, p) in mk_packets(2000, 200).into_iter().enumerate() {
            if !link.send(p, i as Micros * 1000) {
                lost += 1;
            }
        }
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.2).abs() < 0.04, "loss {frac}");
    }

    #[test]
    fn throughput_tracks_trace_capacity() {
        // Saturate a 5 Mbps link for 5 s; delivered bits ≈ 5 Mbit × 5.
        let trace = BandwidthTrace::constant(5.0, 10.0);
        let mut link = LinkEmulator::new(
            trace,
            LinkConfig {
                max_queue_delay: 100_000,
                ..Default::default()
            },
        );
        let mut t = 0;
        let mut p = Packetizer::with_mtu(StreamId::Color, 1200);
        while t < 5_000_000 {
            for pkt in p.packetize(t, Bytes::from(vec![0u8; 1200]), t, false) {
                link.send(pkt, t);
            }
            link.poll(t);
            t += 500; // 19.6 Mbps offered
        }
        let delivered = link.poll(20_000_000);
        let total_bits: u64 = delivered.iter().map(|d| d.packet.wire_bits()).sum::<u64>()
            + link.delivered_bits
            - delivered.iter().map(|d| d.packet.wire_bits()).sum::<u64>();
        let mbps = total_bits as f64 / 5.0 / 1e6;
        assert!((mbps - 5.0).abs() < 0.5, "delivered {mbps} Mbps");
    }

    #[test]
    fn poll_into_matches_poll() {
        let mk = || {
            let trace = BandwidthTrace::constant(10.0, 10.0);
            let mut link = LinkEmulator::new(trace, LinkConfig::default());
            for (i, p) in mk_packets(20, 800).into_iter().enumerate() {
                link.send(p, i as Micros * 500);
            }
            link
        };
        let mut a = mk();
        let mut b = mk();
        let via_poll = a.poll(1_000_000);
        let mut scratch = Vec::new();
        let n = b.poll_into(1_000_000, &mut scratch);
        assert_eq!(n, via_poll.len());
        let seqs = |ds: &[Delivery]| ds.iter().map(|d| d.packet.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&via_poll), seqs(&scratch));
    }

    #[test]
    fn burst_loss_is_bursty_and_hits_mean() {
        let trace = BandwidthTrace::constant(100.0, 30.0);
        let ge = GilbertElliott::bursty(200.0, 20.0, 0.6);
        let cfg = LinkConfig {
            burst: Some(ge),
            seed: 11,
            ..Default::default()
        };
        let mut link = LinkEmulator::new(trace, cfg);
        let mut outcomes = Vec::new();
        for (i, p) in mk_packets(20_000, 200).into_iter().enumerate() {
            outcomes.push(link.send(p, i as Micros * 100));
        }
        let frac = link.dropped_burst as f64 / outcomes.len() as f64;
        // The chain's long-run loss: in the bad state 20 of every 220 packets.
        let mean_loss = 0.6 * 20.0 / 220.0;
        assert!((frac - mean_loss).abs() < 0.02, "burst loss {frac}");
        // Burstiness: consecutive-loss pairs far above the i.i.d. rate frac².
        let pairs = outcomes.windows(2).filter(|w| !w[0] && !w[1]).count();
        let pair_rate = pairs as f64 / (outcomes.len() - 1) as f64;
        assert!(
            pair_rate > 3.0 * frac * frac,
            "pair rate {pair_rate} vs iid {}",
            frac * frac
        );
    }

    #[test]
    fn down_link_drops_and_strands_in_flight() {
        let trace = BandwidthTrace::constant(10.0, 10.0);
        let mut link = LinkEmulator::new(trace, LinkConfig::default());
        for p in mk_packets(5, 800) {
            assert!(link.send(p, 0));
        }
        let stranded = link.set_down(true);
        assert_eq!(stranded, 5);
        assert!(link.down);
        assert!(!link.send(mk_packets(1, 800).pop().unwrap(), 1000));
        assert_eq!(link.dropped_down, 6);
        assert!(link.poll(10_000_000).is_empty());
        assert_eq!(link.set_down(false), 0);
        assert!(link.send(mk_packets(1, 800).pop().unwrap(), 2000));
        assert_eq!(link.poll(10_000_000).len(), 1);
    }

    #[test]
    fn propagation_change_applies_to_new_packets() {
        let trace = BandwidthTrace::constant(10.0, 10.0);
        let mut link = LinkEmulator::new(trace, LinkConfig::default());
        link.set_propagation(80_000);
        assert_eq!(link.propagation(), 80_000);
        let pkts = mk_packets(1, 1200);
        link.send(pkts[0].clone(), 0);
        let out = link.poll(10_000_000);
        assert!(out[0].arrival >= 80_000, "arrival {}", out[0].arrival);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let trace = BandwidthTrace::constant(2.0, 10.0);
            let cfg = LinkConfig {
                random_loss: 0.1,
                seed: 42,
                ..Default::default()
            };
            let mut link = LinkEmulator::new(trace, cfg);
            let mut pattern = Vec::new();
            for (i, p) in mk_packets(100, 600).into_iter().enumerate() {
                pattern.push(link.send(p, i as Micros * 2000));
            }
            pattern
        };
        assert_eq!(run(), run());
    }
}
