//! Per-packet link selection across a session's legs.
//!
//! The scheduler is deliberately stateless: each decision is a pure
//! function of per-link snapshots (GCC estimate, RTT, bottleneck backlog,
//! recent loss), so the policy is auditable and the whole bond stays
//! deterministic. Packets go to the up link with the minimum *expected
//! delivery time* — queueing backlog plus one-way propagation plus the
//! serialisation time of this packet at the link's estimated rate — which
//! is water-filling in the limit: a link absorbs traffic until its queue
//! makes the next packet cheaper elsewhere.

use crate::Micros;

/// What the scheduler knows about one link at decision time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkSnapshot {
    /// Sender-side (feedback-delayed) GCC estimate for this link.
    pub estimate_bps: f64,
    /// Smoothed one-way delay, µs.
    pub owd_us: f64,
    /// Bottleneck queueing backlog, µs.
    pub backlog_us: Micros,
    /// Loss fraction over the last feedback interval.
    pub recent_loss: f64,
    /// Administratively up and not killed.
    pub up: bool,
}

impl LinkSnapshot {
    /// Expected delivery time (µs) for a packet of `wire_bits` offered now.
    pub(crate) fn expected_delivery_us(&self, wire_bits: u64) -> f64 {
        let rate = self.estimate_bps.max(10_000.0);
        self.backlog_us as f64 + self.owd_us + wire_bits as f64 / rate * 1e6
    }

    /// Degraded: losing packets or building a standing queue.
    pub(crate) fn is_degraded(&self) -> bool {
        self.recent_loss > DEGRADED_LOSS || self.backlog_us > DEGRADED_BACKLOG
    }

    /// Scheduling cost (µs) for load-balancing. Queueing backlog and
    /// serialisation at full weight, propagation at [`RTT_BIAS`] weight,
    /// plus the *expected* loss-recovery cost.
    ///
    /// Propagation is damped because water-filling on the full one-way
    /// delay would build a standing queue on the low-RTT link just to
    /// equalise a constant — 25 ms of wifi/LTE RTT spread becomes 25 ms
    /// of wifi queue, which the per-link GCC then reads as overuse and
    /// throttles (the classic multipath-scheduler pathology). Loss is
    /// additive: a lost packet pays roughly a NACK detection + retransmit
    /// round-trip ([`LOSS_RECOVERY_US`]), so recent-loss fraction times
    /// that is the honest expected price — and unlike a multiplier it
    /// still bites when the lossy link is idle and its base cost is tiny.
    pub(crate) fn cost_us(&self, wire_bits: u64) -> f64 {
        let rate = self.estimate_bps.max(10_000.0);
        self.backlog_us as f64
            + wire_bits as f64 / rate * 1e6
            + RTT_BIAS * self.owd_us
            + self.recent_loss.min(0.5) * LOSS_RECOVERY_US
    }
}

/// Weight of one-way propagation in the scheduling cost.
const RTT_BIAS: f64 = 0.1;

/// A link is "degraded" when its recent loss fraction exceeds this…
const DEGRADED_LOSS: f64 = 0.08;

/// …or when its bottleneck backlog exceeds this many microseconds.
const DEGRADED_BACKLOG: Micros = 100_000;

/// Approximate cost of losing a packet: half a feedback interval to
/// detect the gap plus an RTT for the retransmit to land.
const LOSS_RECOVERY_US: f64 = 120_000.0;

/// Pick the up link with the minimum expected delivery time for a packet
/// of `wire_bits`. Ties break to the lowest index, so decisions are
/// deterministic. Returns `None` when every link is down.
pub(crate) fn pick_primary(links: &[LinkSnapshot], wire_bits: u64) -> Option<usize> {
    links
        .iter()
        .enumerate()
        .filter(|(_, l)| l.up)
        .min_by(|(_, a), (_, b)| a.cost_us(wire_bits).total_cmp(&b.cost_us(wire_bits)))
        .map(|(i, _)| i)
}

/// Second-best up link (for key-packet duplication): the cheapest up link
/// other than `primary`.
pub(crate) fn pick_duplicate(
    links: &[LinkSnapshot],
    wire_bits: u64,
    primary: usize,
) -> Option<usize> {
    links
        .iter()
        .enumerate()
        .filter(|(i, l)| l.up && *i != primary)
        .min_by(|(_, a), (_, b)| a.cost_us(wire_bits).total_cmp(&b.cost_us(wire_bits)))
        .map(|(i, _)| i)
}

/// Up link with the lowest recent loss (for retransmissions, which we do
/// not want to lose twice). Ties break to the lowest expected delivery.
pub(crate) fn pick_reliable(links: &[LinkSnapshot], wire_bits: u64) -> Option<usize> {
    links
        .iter()
        .enumerate()
        .filter(|(_, l)| l.up)
        .min_by(|(_, a), (_, b)| {
            (a.recent_loss, a.expected_delivery_us(wire_bits))
                .partial_cmp(&(b.recent_loss, b.expected_delivery_us(wire_bits)))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(estimate: f64, owd: f64, backlog: Micros, loss: f64, up: bool) -> LinkSnapshot {
        LinkSnapshot {
            estimate_bps: estimate,
            owd_us: owd,
            backlog_us: backlog,
            recent_loss: loss,
            up,
        }
    }

    #[test]
    fn primary_prefers_fast_idle_link() {
        let links = [
            snap(20e6, 20_000.0, 0, 0.0, true),
            snap(5e6, 45_000.0, 0, 0.0, true),
        ];
        assert_eq!(pick_primary(&links, 10_000), Some(0));
    }

    #[test]
    fn backlog_shifts_traffic_to_slower_link() {
        // Fast link with a 200 ms standing queue loses to an idle slow one.
        let links = [
            snap(20e6, 20_000.0, 200_000, 0.0, true),
            snap(5e6, 45_000.0, 0, 0.0, true),
        ];
        assert_eq!(pick_primary(&links, 10_000), Some(1));
    }

    #[test]
    fn down_links_are_never_picked() {
        let links = [
            snap(20e6, 20_000.0, 0, 0.0, false),
            snap(5e6, 45_000.0, 0, 0.0, true),
        ];
        assert_eq!(pick_primary(&links, 10_000), Some(1));
        assert_eq!(pick_duplicate(&links, 10_000, 1), None);
        let all_down = [snap(20e6, 20_000.0, 0, 0.0, false)];
        assert_eq!(pick_primary(&all_down, 10_000), None);
    }

    #[test]
    fn duplicate_is_distinct_from_primary() {
        let links = [
            snap(20e6, 20_000.0, 0, 0.0, true),
            snap(5e6, 45_000.0, 0, 0.0, true),
            snap(2e6, 80_000.0, 0, 0.0, true),
        ];
        let p = pick_primary(&links, 10_000).unwrap();
        let d = pick_duplicate(&links, 10_000, p).unwrap();
        assert_ne!(p, d);
        assert_eq!(d, 1, "second-cheapest link");
    }

    #[test]
    fn loss_penalty_shifts_primary_off_bursty_link() {
        // Clean water-filling would keep the fast link; its hot loss
        // memory makes the clean slow link cheaper.
        let links = [
            snap(20e6, 20_000.0, 0, 0.25, true),
            snap(5e6, 45_000.0, 0, 0.0, true),
        ];
        assert_eq!(pick_primary(&links, 10_000), Some(1));
        // With the loss memory decayed the fast link wins again.
        let cooled = [
            snap(20e6, 20_000.0, 0, 0.01, true),
            snap(5e6, 45_000.0, 0, 0.0, true),
        ];
        assert_eq!(pick_primary(&cooled, 10_000), Some(0));
    }

    #[test]
    fn reliable_avoids_lossy_link() {
        let links = [
            snap(20e6, 20_000.0, 0, 0.2, true),
            snap(5e6, 45_000.0, 0, 0.0, true),
        ];
        assert_eq!(pick_reliable(&links, 10_000), Some(1));
    }

    #[test]
    fn degradation_thresholds() {
        assert!(snap(1e6, 0.0, 0, 0.1, true).is_degraded());
        assert!(snap(1e6, 0.0, 150_000, 0.0, true).is_degraded());
        assert!(!snap(1e6, 0.0, 50_000, 0.01, true).is_degraded());
    }
}
