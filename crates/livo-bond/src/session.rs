//! Bonded calls over the shared session type.
//!
//! The N-leg session itself is [`livo_transport::RtcSession`]; this module
//! only maps a [`BondScenario`] onto its legs.

use crate::scenario::BondScenario;
use livo_transport::{LegConfig, Micros, RtcSession, SessionConfig};
use std::ops::{Deref, DerefMut};

/// A bonded call: the topology plus the settings it shares with a
/// one-leg [`SessionConfig`].
#[derive(Debug, Clone)]
pub struct BondConfig {
    pub scenario: BondScenario,
    /// Jitter-buffer playout target (paper: 100 ms).
    pub jitter_target: Micros,
    /// Initial *aggregate* estimate, split evenly across legs.
    pub initial_estimate_bps: f64,
}

impl BondConfig {
    pub fn new(scenario: BondScenario) -> Self {
        BondConfig::from_session(scenario, &SessionConfig::default())
    }

    /// Copy the shared settings from a one-leg [`SessionConfig`] (its
    /// `link` field is ignored — the scenario describes the links).
    pub fn from_session(scenario: BondScenario, s: &SessionConfig) -> Self {
        BondConfig {
            scenario,
            jitter_target: s.jitter_target,
            initial_estimate_bps: s.initial_estimate_bps,
        }
    }

    /// The session over this topology. Panics on an invalid scenario
    /// (`BondScenario::validate` before constructing).
    pub fn build(self) -> RtcSession {
        self.scenario
            .validate()
            .expect("invalid bond scenario (validate before constructing)");
        let legs = self
            .scenario
            .links
            .into_iter()
            .map(|l| LegConfig {
                name: l.name,
                trace: l.trace,
                link: l.link,
                events: l.events,
            })
            .collect();
        RtcSession::with_legs(legs, self.jitter_target, self.initial_estimate_bps)
    }
}

/// [`BondConfig::build`] under the name external harnesses construct it
/// by; everything else is the shared [`RtcSession`].
pub struct BondedSession(RtcSession);

impl BondedSession {
    pub fn new(cfg: BondConfig) -> Self {
        BondedSession(cfg.build())
    }
}

impl Deref for BondedSession {
    type Target = RtcSession;
    fn deref(&self) -> &RtcSession {
        &self.0
    }
}

impl DerefMut for BondedSession {
    fn deref_mut(&mut self) -> &mut RtcSession {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LinkScenario;
    use bytes::Bytes;
    use livo_capture::BandwidthTrace;
    use livo_transport::{LinkConfig, SessionStats, StreamId};

    /// Drive a bond at 30 fps with estimate-adaptive frame sizes; returns
    /// the delivered frame ids in playout order.
    fn drive(cfg: BondConfig, duration_s: f64) -> (BondedSession, Vec<u64>) {
        let mut s = BondedSession::new(cfg);
        let end = (duration_s * 1e6) as Micros;
        let mut t: Micros = 0;
        let mut frame_id = 0u64;
        let mut next_frame: Micros = 0;
        let mut delivered = Vec::new();
        while t < end {
            if t >= next_frame {
                let budget = (s.estimate_bps() * 0.85 / 30.0) as usize;
                let bytes = (budget / 8).clamp(400, 4_000_000);
                // Periodic intra refresh (every 2 s) like a real encoder;
                // nothing here decodes, so nothing asks for a keyframe.
                let key = frame_id.is_multiple_of(60);
                s.send_frame(
                    t,
                    StreamId::Color,
                    frame_id,
                    Bytes::from(vec![0u8; bytes]),
                    key,
                );
                frame_id += 1;
                next_frame += 33_333;
            }
            s.tick(t);
            for f in s.recv_frames() {
                delivered.push(f.frame_id);
            }
            t += 1_000;
        }
        // Drain the tail.
        for _ in 0..1_500 {
            s.tick(t);
            for f in s.recv_frames() {
                delivered.push(f.frame_id);
            }
            t += 1_000;
        }
        (s, delivered)
    }

    #[test]
    fn aggregate_estimate_approaches_sum_of_links() {
        let cfg = BondConfig::new(BondScenario::dual_clean(12.0));
        let (s, delivered) = drive(cfg, 12.0);
        // 12 + 6 Mbps bonded: the aggregate estimate must clearly exceed
        // the best single link's capacity.
        let est = s.estimate_bps();
        assert!(est > 13e6, "aggregate estimate {est} <= best single link");
        assert!(delivered.len() > 300, "only {} frames", delivered.len());
    }

    #[test]
    fn both_legs_carry_traffic() {
        let cfg = BondConfig::new(BondScenario::dual_clean(8.0));
        let (s, _) = drive(cfg, 8.0);
        for r in s.link_reports() {
            assert!(
                r.tx_packets > 100,
                "leg {} carried {}",
                r.name,
                r.tx_packets
            );
        }
    }

    #[test]
    fn mid_call_kill_fails_over() {
        let cfg = BondConfig::new(BondScenario::wifi_to_lte(10.0));
        let (s, delivered) = drive(cfg, 10.0);
        assert_eq!(s.failovers(), 1);
        assert_eq!(s.links_up(), 1);
        // Frames sent well after the 5 s kill still arrive (over LTE).
        let post_kill = delivered.iter().filter(|&&id| id > 6 * 30).count();
        assert!(post_kill > 60, "only {post_kill} frames after the kill");
        // Playout order per stream is monotonic — no receiver restart.
        assert!(delivered.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn keyframes_duplicated_under_loss() {
        let cfg = BondConfig::new(BondScenario::wifi_burst(10.0));
        let (s, _) = drive(cfg, 10.0);
        // `dup_packets` counts mirrored retransmits too, but each
        // retransmit is mirrored at most once: only key-packet copies take
        // the count past the retransmits.
        let dups: u64 = s.link_reports().iter().map(|r| r.dup_packets).sum();
        let retransmits = s.stats().retransmits;
        assert!(
            dups > retransmits,
            "{dups} copies for {retransmits} retransmits: no key packet duplicated under burst loss"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || drive(BondConfig::new(BondScenario::wifi_to_lte(6.0)), 6.0).1;
        assert_eq!(run(), run());
    }

    #[test]
    fn all_links_down_then_recover() {
        let sc = BondScenario::new("blackout")
            .link(LinkScenario::new("a", 8.0, 8.0).down_at(2.0).up_at(3.0))
            .link(LinkScenario::new("b", 4.0, 8.0).down_at(2.0).up_at(3.5));
        let (s, delivered) = drive(BondConfig::new(sc), 8.0);
        assert_eq!(s.links_up(), 2);
        // Frames flow again after the blackout window.
        let post = delivered.iter().filter(|&&id| id > 4 * 30).count();
        assert!(post > 30, "only {post} frames after blackout recovery");
    }

    /// 30 fps of fixed 8 kB colour frames for 10 s plus a drain; returns
    /// every `(frame_id, playout µs)` and the final stats.
    fn playout_log(s: &mut RtcSession) -> (Vec<(u64, Micros)>, SessionStats) {
        let mut log = Vec::new();
        for t in (0..11_500_000).step_by(1_000) {
            if t < 10_000_000 && t % 33_333 < 1_000 {
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
            s.take_pli(t);
            log.extend(s.recv_frames().into_iter().map(|f| (f.frame_id, t)));
        }
        (log, s.stats().clone())
    }

    #[test]
    fn one_link_bond_is_the_single_link_session() {
        // Pins the config mapping of the two constructors: same link, same
        // trace, same settings → the same session, packet for packet.
        let link = LinkConfig {
            random_loss: 0.02,
            seed: 7,
            ..Default::default()
        };
        let cfg = SessionConfig {
            link: link.clone(),
            jitter_target: 80_000,
            initial_estimate_bps: 12e6,
        };
        let trace = BandwidthTrace::constant(20.0, 12.0);
        let mut leg = LinkScenario::new("only", 1.0, 1.0).trace(trace.clone());
        leg.link = link;
        let bond = BondConfig::from_session(BondScenario::new("solo").link(leg), &cfg);
        let single = playout_log(&mut RtcSession::new(trace, cfg));
        let bonded = playout_log(&mut BondedSession::new(bond));
        assert!(
            single.0.len() > 250,
            "only {} frames played",
            single.0.len()
        );
        assert!(single.1.retransmits > 0, "2% loss must exercise recovery");
        assert_eq!(single, bonded);
    }
}
