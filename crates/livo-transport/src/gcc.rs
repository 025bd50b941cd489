//! A Google-congestion-control-style bandwidth estimator.
//!
//! GCC (Carlucci et al., MMSys '16) combines a *delay-based* controller —
//! watch the gradient of one-way queuing delay; back off multiplicatively
//! on sustained increase — with a *loss-based* cap (back off when loss
//! exceeds 10%, grow when below 2%). LiVo feeds the resulting estimate to
//! its bandwidth splitter every frame (§3.3 of the paper).
//!
//! This implementation keeps GCC's structure (arrival grouping, trendline
//! slope, adaptive overuse threshold, Increase/Hold/Decrease state machine)
//! with simplifications appropriate to a per-experiment simulation.

use crate::Micros;

/// Overuse signal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Signal {
    Normal,
    Overuse,
    Underuse,
}

/// AIMD controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RateState {
    Increase,
    Hold,
    Decrease,
}

/// One arrival group (packets within a burst window).
#[derive(Debug, Clone, Copy)]
struct Group {
    send_ts: Micros,
    arrival_ts: Micros,
    bits: u64,
}

/// The estimator. Feed per-packet arrivals with [`GccEstimator::on_packet`]
/// and loss reports with [`GccEstimator::on_loss_report`]; read the current
/// target with [`GccEstimator::estimate_bps`].
#[derive(Debug)]
pub(crate) struct GccEstimator {
    // --- arrival grouping ---
    current: Option<Group>,
    prev_group: Option<Group>,
    /// Recent (arrival_time_s, accumulated_delay_ms) samples for the
    /// trendline filter.
    samples: Vec<(f64, f64)>,
    acc_delay_ms: f64,
    smoothed_delay_ms: f64,

    // --- overuse detector ---
    threshold_ms: f64,
    overuse_since: Option<Micros>,
    last_signal: Signal,

    // --- incoming rate meter ---
    window: std::collections::VecDeque<(Micros, u64)>,

    // --- AIMD ---
    state: RateState,
    rate_bps: f64,
    last_update: Micros,
    min_bps: f64,
    max_bps: f64,

    // --- loss controller ---
    loss_fraction: f64,

    // --- queuing-delay tracker ---
    /// Minimum observed one-way delay (the propagation baseline).
    min_owd_us: f64,
    /// Smoothed one-way delay.
    owd_us: f64,
}

/// Packets arriving within this window form one group (GCC uses 5 ms).
const GROUP_WINDOW: Micros = 5_000;
/// Trendline window length.
const TREND_SAMPLES: usize = 20;
/// Gain applied to the trendline slope before threshold comparison.
const TREND_GAIN: f64 = 4.0;
/// Overuse must persist this long before we act (GCC: 10 ms).
const OVERUSE_HOLD: Micros = 10_000;
/// Multiplicative decrease factor (GCC: 0.85).
const BETA: f64 = 0.85;

impl GccEstimator {
    pub(crate) fn new(initial_bps: f64) -> Self {
        GccEstimator {
            current: None,
            prev_group: None,
            samples: Vec::new(),
            acc_delay_ms: 0.0,
            smoothed_delay_ms: 0.0,
            threshold_ms: 6.0,
            overuse_since: None,
            last_signal: Signal::Normal,
            window: Default::default(),
            state: RateState::Increase,
            rate_bps: initial_bps,
            last_update: 0,
            min_bps: 1e5,
            max_bps: 1e9,
            loss_fraction: 0.0,
            min_owd_us: f64::INFINITY,
            owd_us: 0.0,
        }
    }

    /// Record one packet arrival.
    pub(crate) fn on_packet(&mut self, send_ts: Micros, arrival_ts: Micros, bits: u64) {
        // One-way delay tracking: the running minimum is the propagation
        // baseline; the excess is queuing delay.
        let owd = arrival_ts.saturating_sub(send_ts) as f64;
        self.owd_us = if self.owd_us == 0.0 {
            owd
        } else {
            0.85 * self.owd_us + 0.15 * owd
        };
        if owd < self.min_owd_us {
            self.min_owd_us = owd;
        } else {
            // Let the baseline drift up slowly so route changes don't pin it.
            self.min_owd_us += (owd - self.min_owd_us) * 2e-4;
        }

        // Rate meter.
        self.window.push_back((arrival_ts, bits));
        while let Some(&(t, _)) = self.window.front() {
            if arrival_ts.saturating_sub(t) > 500_000 {
                self.window.pop_front();
            } else {
                break;
            }
        }

        // Grouping: a new group starts when send time advances past the
        // burst window.
        match &mut self.current {
            Some(g) if send_ts.saturating_sub(g.send_ts) <= GROUP_WINDOW => {
                g.arrival_ts = g.arrival_ts.max(arrival_ts);
                g.bits += bits;
            }
            _ => {
                if let Some(done) = self.current.take() {
                    self.complete_group(done);
                }
                self.current = Some(Group {
                    send_ts,
                    arrival_ts,
                    bits,
                });
            }
        }
    }

    fn complete_group(&mut self, g: Group) {
        if let Some(prev) = self.prev_group {
            let d_arrival = g.arrival_ts as i64 - prev.arrival_ts as i64;
            let d_send = g.send_ts as i64 - prev.send_ts as i64;
            let delay_var_ms = (d_arrival - d_send) as f64 / 1000.0;
            self.acc_delay_ms += delay_var_ms;
            self.smoothed_delay_ms = 0.9 * self.smoothed_delay_ms + 0.1 * self.acc_delay_ms;
            let t_s = g.arrival_ts as f64 / 1e6;
            self.samples.push((t_s, self.smoothed_delay_ms));
            if self.samples.len() > TREND_SAMPLES {
                self.samples.remove(0);
            }
            self.detect(g.arrival_ts);
        }
        self.prev_group = Some(g);
    }

    /// Least-squares slope of the delay samples, scaled to "ms of delay
    /// growth per trendline window".
    fn trend_ms(&self) -> f64 {
        let n = self.samples.len();
        if n < 4 {
            return 0.0;
        }
        let mean_t: f64 = self.samples.iter().map(|s| s.0).sum::<f64>() / n as f64;
        let mean_d: f64 = self.samples.iter().map(|s| s.1).sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for (t, d) in &self.samples {
            num += (t - mean_t) * (d - mean_d);
            den += (t - mean_t) * (t - mean_t);
        }
        if den <= 0.0 {
            return 0.0;
        }
        // Slope is ms/s; one trendline window spans the sample range.
        let span = self.samples[n - 1].0 - self.samples[0].0;
        (num / den) * span.max(1e-3) * TREND_GAIN
    }

    /// Estimated queuing delay in milliseconds (one-way delay in excess of
    /// the propagation baseline).
    pub(crate) fn queuing_delay_ms(&self) -> f64 {
        if self.min_owd_us.is_finite() {
            (self.owd_us - self.min_owd_us).max(0.0) / 1000.0
        } else {
            0.0
        }
    }

    fn detect(&mut self, now: Micros) {
        let trend = self.trend_ms();
        // The trendline alone is noisy under coarse simulation ticks, so
        // overuse additionally requires real queuing delay to have built up
        // (and deep queues alone suffice) — the same "gradient + standing
        // queue" structure GCC's overuse detector converges to in practice.
        let queuing = self.queuing_delay_ms();
        let signal = if queuing > 25.0 || (trend > self.threshold_ms && queuing > 8.0) {
            Signal::Overuse
        } else if trend < -self.threshold_ms && queuing > 4.0 {
            Signal::Underuse
        } else {
            Signal::Normal
        };
        // Adaptive threshold (drifts toward the observed |trend|).
        let k = if trend.abs() < self.threshold_ms {
            0.039
        } else {
            0.0087
        };
        self.threshold_ms += k * (trend.abs() - self.threshold_ms).clamp(-1.0, 1.0);
        self.threshold_ms = self.threshold_ms.clamp(1.0, 60.0);

        match signal {
            Signal::Overuse => {
                let since = *self.overuse_since.get_or_insert(now);
                if now.saturating_sub(since) >= OVERUSE_HOLD {
                    self.state = RateState::Decrease;
                    self.apply_rate(now);
                    self.state = RateState::Hold;
                }
            }
            Signal::Underuse => {
                self.overuse_since = None;
                self.state = RateState::Hold;
            }
            Signal::Normal => {
                self.overuse_since = None;
                // Hold → Increase on normal.
                if self.last_signal == Signal::Normal {
                    self.state = RateState::Increase;
                }
                self.apply_rate(now);
            }
        }
        self.last_signal = signal;
    }

    /// Incoming rate over the 500 ms window.
    pub(crate) fn incoming_rate_bps(&self) -> f64 {
        if self.window.len() < 2 {
            return 0.0;
        }
        let bits: u64 = self.window.iter().map(|&(_, b)| b).sum();
        let span = self
            .window
            .back()
            .unwrap()
            .0
            .saturating_sub(self.window.front().unwrap().0)
            .max(1);
        bits as f64 * 1e6 / span as f64
    }

    fn apply_rate(&mut self, now: Micros) {
        let dt_s = (now.saturating_sub(self.last_update) as f64 / 1e6).min(0.5);
        self.last_update = now;
        match self.state {
            RateState::Increase => {
                // Multiplicative growth ~8%/s, but never grow beyond 1.5×
                // what's actually arriving (GCC's incoming-rate cap keeps
                // the estimate tethered to reality). The cap bounds
                // *growth* only: an app-limited sender whose traffic sits
                // far below its estimate must not see the estimate slashed.
                let grown = self.rate_bps * (1.0 + 0.08 * dt_s);
                let incoming = self.incoming_rate_bps();
                if incoming > 0.0 {
                    self.rate_bps = grown.min((1.5 * incoming + 1e5).max(self.rate_bps));
                } else {
                    self.rate_bps = grown;
                }
            }
            RateState::Decrease => {
                let incoming = self.incoming_rate_bps();
                let base = if incoming > 0.0 {
                    incoming
                } else {
                    self.rate_bps
                };
                self.rate_bps = BETA * base;
            }
            RateState::Hold => {}
        }
        self.rate_bps = self.rate_bps.clamp(self.min_bps, self.max_bps);
    }

    /// Feed a loss report (fraction of packets lost over the last RTCP
    /// interval).
    pub(crate) fn on_loss_report(&mut self, fraction: f64) {
        self.loss_fraction = fraction.clamp(0.0, 1.0);
        if self.loss_fraction > 0.10 {
            self.rate_bps *= 1.0 - 0.5 * self.loss_fraction;
        } else if self.loss_fraction < 0.02 {
            self.rate_bps *= 1.02;
        }
        self.rate_bps = self.rate_bps.clamp(self.min_bps, self.max_bps);
    }

    /// The current send-rate target.
    pub(crate) fn estimate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Named snapshot of the estimator internals, for telemetry gauges,
    /// tests and tracing.
    pub(crate) fn state(&self) -> GccState {
        GccState {
            estimate_bps: self.rate_bps,
            queuing_delay_ms: self.queuing_delay_ms(),
            trend_ms: self.trend_ms(),
            threshold_ms: self.threshold_ms,
            loss_fraction: self.loss_fraction,
        }
    }
}

/// A point-in-time view of the GCC estimator's internal signals.
///
/// Replaces the old anonymous `debug_state()` tuple: every field is named
/// so telemetry gauges and assertions read unambiguously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GccState {
    /// Current delay-based send-rate target (bps).
    pub estimate_bps: f64,
    /// Estimated standing queue at the bottleneck (ms).
    pub queuing_delay_ms: f64,
    /// Trendline slope of inter-group delay variation (ms per group).
    pub trend_ms: f64,
    /// Adaptive overuse detection threshold (ms).
    pub threshold_ms: f64,
    /// Loss fraction from the most recent loss report.
    pub loss_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the estimator through a simulated constant-capacity link:
    /// packets of `pkt_bits` sent every `gap_us`, serviced at `cap_bps`
    /// with a growing queue if oversubscribed.
    fn drive(
        est: &mut GccEstimator,
        cap_bps: f64,
        send_bps: f64,
        dur_s: f64,
        start: Micros,
    ) -> Micros {
        let pkt_bits = 9600u64; // 1200 B
        let gap = (pkt_bits as f64 / send_bps * 1e6) as Micros;
        let service = (pkt_bits as f64 / cap_bps * 1e6) as Micros;
        let mut t = start;
        let mut link_free = start;
        let end = start + (dur_s * 1e6) as Micros;
        while t < end {
            let start_srv = t.max(link_free);
            let done = start_srv + service;
            link_free = done;
            est.on_packet(t, done + 10_000, pkt_bits); // 10 ms propagation
            t += gap;
        }
        end
    }

    #[test]
    fn estimate_grows_when_underutilizing() {
        let mut est = GccEstimator::new(5e6);
        // Send at 5 Mbps over a 100 Mbps link for 10 s: delay stays flat, so
        // the estimate should grow well past the initial value.
        drive(&mut est, 100e6, 5e6, 10.0, 0);
        assert!(
            est.estimate_bps() > 6e6,
            "estimate {:.1} Mbps",
            est.estimate_bps() / 1e6
        );
    }

    #[test]
    fn estimate_caps_near_incoming_rate() {
        let mut est = GccEstimator::new(5e6);
        drive(&mut est, 100e6, 5e6, 30.0, 0);
        // The 1.5×incoming cap keeps it from exploding past what's proven.
        assert!(
            est.estimate_bps() < 5e6 * 2.0,
            "estimate {:.1} Mbps",
            est.estimate_bps() / 1e6
        );
    }

    #[test]
    fn overuse_forces_backoff() {
        let mut est = GccEstimator::new(30e6);
        // Saturate: send 30 Mbps through a 10 Mbps link. Queuing delay grows
        // linearly → overuse → decrease toward ~0.85 × incoming (≤ 10 Mbps).
        drive(&mut est, 10e6, 30e6, 5.0, 0);
        assert!(
            est.estimate_bps() < 15e6,
            "estimate {:.1} Mbps should collapse toward capacity",
            est.estimate_bps() / 1e6
        );
    }

    #[test]
    fn loss_reports_cut_rate() {
        let mut est = GccEstimator::new(50e6);
        est.on_loss_report(0.3);
        assert!((est.estimate_bps() - 50e6 * 0.85).abs() < 1e5);
        // Small loss grows slightly.
        let before = est.estimate_bps();
        est.on_loss_report(0.0);
        assert!(est.estimate_bps() > before);
        // Mid-range loss holds.
        let mid = est.estimate_bps();
        est.on_loss_report(0.05);
        assert_eq!(est.estimate_bps(), mid);
    }

    #[test]
    fn bounds_are_respected() {
        let mut est = GccEstimator::new(50e6);
        for _ in 0..50 {
            est.on_loss_report(0.5);
        }
        assert_eq!(est.estimate_bps(), est.min_bps);
        for _ in 0..500 {
            est.on_loss_report(0.0);
        }
        assert_eq!(est.estimate_bps(), est.max_bps);
    }

    #[test]
    fn incoming_rate_meter_measures_throughput() {
        let mut est = GccEstimator::new(1e6);
        // 100 packets of 9600 bits over 100 ms → ~9.6 Mbps.
        for i in 0..100u64 {
            est.on_packet(i * 1000, i * 1000 + 5_000, 9600);
        }
        let rate = est.incoming_rate_bps();
        assert!(
            (rate - 9.6e6).abs() / 9.6e6 < 0.1,
            "rate {:.2} Mbps",
            rate / 1e6
        );
    }

    #[test]
    fn recovers_after_congestion_clears() {
        let mut est = GccEstimator::new(30e6);
        let t1 = drive(&mut est, 10e6, 30e6, 5.0, 0);
        let after_backoff = est.estimate_bps();
        assert!(after_backoff < 15e6);
        // Congestion clears; send at the backed-off rate over a big pipe.
        drive(
            &mut est,
            100e6,
            after_backoff.max(5e6),
            10.0,
            t1 + 1_000_000,
        );
        assert!(
            est.estimate_bps() > after_backoff,
            "no recovery: {:.1} → {:.1} Mbps",
            after_backoff / 1e6,
            est.estimate_bps() / 1e6
        );
    }
}
