//! Bandwidth traces calibrated to Table 4 of the paper.
//!
//! The paper replays two measured WiFi traces through Mahimahi, scaled to
//! broadband capacities: `trace-1` (home WiFi ×10, mean ≈ 217 Mbps) and
//! `trace-2` (mall WiFi ×15, mean ≈ 89 Mbps, including deep fades while the
//! user walks). We synthesise traces whose marginal statistics match
//! Table 4 and whose temporal structure (smooth wander + occasional fades)
//! drives the adaptation logic the same way.
//!
//! | trace   | mean   | max    | min    | p90    | p10    |
//! |---------|--------|--------|--------|--------|--------|
//! | trace-1 | 216.90 | 262.19 | 151.91 | 234.41 | 191.52 |
//! | trace-2 | 89.20  | 106.37 | 36.35  | 98.09  | 80.52  |

use livo_math::rng::SplitMix64;

/// Which of the two evaluation traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceId {
    Trace1,
    Trace2,
}

impl TraceId {
    pub const ALL: [TraceId; 2] = [TraceId::Trace1, TraceId::Trace2];

    pub fn name(self) -> &'static str {
        match self {
            TraceId::Trace1 => "trace-1",
            TraceId::Trace2 => "trace-2",
        }
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Samples per second of the trace (Mahimahi uses per-ms schedules; 10 Hz
/// capacity updates are indistinguishable at the frame level).
pub const TRACE_SAMPLE_HZ: u32 = 10;

/// A capacity trace in Mbps.
#[derive(Debug, Clone)]
pub struct BandwidthTrace {
    pub id: Option<TraceId>,
    pub samples_mbps: Vec<f64>,
}

/// Summary statistics (the columns of Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    pub mean: f64,
    pub max: f64,
    pub min: f64,
    pub p90: f64,
    pub p10: f64,
}

impl BandwidthTrace {
    /// Generate the named trace with `duration_s` seconds of samples.
    pub fn generate(id: TraceId, duration_s: f32, seed: u64) -> BandwidthTrace {
        let params = match id {
            // (mean, max, min, fade probability/sample, fade depth)
            TraceId::Trace1 => (216.90, 262.19, 151.91, 0.002, 0.35),
            TraceId::Trace2 => (89.20, 106.37, 36.35, 0.006, 0.62),
        };
        let (mean, max, min, fade_p, fade_depth) = params;
        let n = (duration_s * TRACE_SAMPLE_HZ as f32).ceil().max(1.0) as usize;
        let mut rng = SplitMix64::new(seed ^ 0xB5AD_4ECE_DA1C_E2A9);

        // Smooth wander: a sum of slow sinusoids + AR(1) noise, then fades.
        let f1 = rng.gen_range(0.01..0.03);
        let f2 = rng.gen_range(0.05..0.09);
        let p1 = rng.gen_range(0.0..std::f64::consts::TAU);
        let p2 = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut ar = 0.0f64;
        let mut fade_level = 0.0f64; // 0 = no fade, 1 = full fade
        let mut fade_target = 0.0f64;
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 / TRACE_SAMPLE_HZ as f64;
            ar = 0.92 * ar + rng.gen_range(-1.0..1.0);
            // Start a fade? Onset ramps over ~0.5 s (walking out of coverage
            // is gradual), recovery over a few seconds.
            if fade_level <= 0.01 && fade_target <= 0.01 && rng.gen_bool(fade_p) {
                fade_target = 1.0;
            }
            if fade_target > fade_level {
                // Onset: ~0.4 s from clear to deep fade.
                fade_level += (fade_target - fade_level) * 0.45;
                if fade_level > 0.85 {
                    fade_target = 0.0;
                }
            } else {
                fade_level *= 0.93; // recover over a few seconds
            }
            let wander = 0.09 * (2.0 * std::f64::consts::PI * f1 * t + p1).sin()
                + 0.05 * (2.0 * std::f64::consts::PI * f2 * t + p2).sin()
                + 0.015 * ar;
            let v = mean * (1.0 + wander) * (1.0 - fade_depth * fade_level);
            samples.push(v.clamp(min, max));
        }

        // Affine re-centre onto the target mean (the wander is zero-mean in
        // expectation; fades bias it slightly low).
        let got_mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let shift = mean - got_mean;
        for s in &mut samples {
            *s = (*s + shift).clamp(min, max);
        }
        BandwidthTrace {
            id: Some(id),
            samples_mbps: samples,
        }
    }

    /// A constant trace, useful for controlled sweeps (Figs. 18–19 use
    /// fixed 60–120 Mbps bitrates).
    pub fn constant(mbps: f64, duration_s: f32) -> BandwidthTrace {
        let n = (duration_s * TRACE_SAMPLE_HZ as f32).ceil().max(1.0) as usize;
        BandwidthTrace {
            id: None,
            samples_mbps: vec![mbps; n],
        }
    }

    /// A copy of the trace with every sample multiplied by `factor`.
    /// Replays at reduced capture resolution scale traces by canvas area so
    /// the *relative* bandwidth pressure matches the paper's full-scale
    /// setup.
    pub fn scaled(&self, factor: f64) -> BandwidthTrace {
        BandwidthTrace {
            id: self.id,
            samples_mbps: self.samples_mbps.iter().map(|s| s * factor).collect(),
        }
    }

    /// Capacity at time `t` (clamped to the trace ends).
    pub fn capacity_at(&self, t: f64) -> f64 {
        let i = ((t * TRACE_SAMPLE_HZ as f64).floor() as usize)
            .min(self.samples_mbps.len().saturating_sub(1));
        self.samples_mbps[i]
    }

    /// Duration covered by the samples in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples_mbps.len() as f64 / TRACE_SAMPLE_HZ as f64
    }

    /// Table 4 statistics of this trace.
    pub fn stats(&self) -> TraceStats {
        let mut sorted = self.samples_mbps.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        let pct = |p: f64| sorted[((n as f64 - 1.0) * p).round() as usize];
        TraceStats {
            mean: self.samples_mbps.iter().sum::<f64>() / n as f64,
            max: *sorted.last().unwrap(),
            min: sorted[0],
            p90: pct(0.9),
            p10: pct(0.1),
        }
    }

    /// Coefficient of variation of consecutive-sample *changes* — the
    /// variability measure behind Fig. A.3.
    pub fn variability(&self) -> f64 {
        if self.samples_mbps.len() < 2 {
            return 0.0;
        }
        let diffs: Vec<f64> = self
            .samples_mbps
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .collect();
        let mean_abs_change = diffs.iter().sum::<f64>() / diffs.len() as f64;
        let mean = self.samples_mbps.iter().sum::<f64>() / self.samples_mbps.len() as f64;
        mean_abs_change / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace1_statistics_match_table4() {
        let t = BandwidthTrace::generate(TraceId::Trace1, 300.0, 1);
        let s = t.stats();
        assert!((s.mean - 216.90).abs() < 216.9 * 0.05, "mean {}", s.mean);
        assert!(s.max <= 262.19 + 1e-9);
        assert!(s.min >= 151.91 - 1e-9);
        assert!(s.p90 > s.mean && s.p90 < s.max + 1e-9);
        assert!(s.p10 < s.mean && s.p10 > s.min - 1e-9);
    }

    #[test]
    fn trace2_statistics_match_table4() {
        let t = BandwidthTrace::generate(TraceId::Trace2, 300.0, 2);
        let s = t.stats();
        assert!((s.mean - 89.20).abs() < 89.2 * 0.05, "mean {}", s.mean);
        assert!(s.max <= 106.37 + 1e-9);
        assert!(s.min >= 36.35 - 1e-9);
    }

    #[test]
    fn trace2_has_deep_fades() {
        // The mall trace should occasionally dip well below p10 (the walk
        // through coverage holes); the home trace shouldn't relative to its
        // own spread.
        let t2 = BandwidthTrace::generate(TraceId::Trace2, 600.0, 3);
        let s = t2.stats();
        let deep = t2
            .samples_mbps
            .iter()
            .filter(|&&v| v < s.mean * 0.6)
            .count();
        assert!(deep > 0, "no deep fades in trace-2");
    }

    #[test]
    fn traces_are_deterministic() {
        let a = BandwidthTrace::generate(TraceId::Trace1, 30.0, 9);
        let b = BandwidthTrace::generate(TraceId::Trace1, 30.0, 9);
        assert_eq!(a.samples_mbps, b.samples_mbps);
    }

    #[test]
    fn capacity_lookup_clamps() {
        let t = BandwidthTrace::constant(100.0, 1.0);
        assert_eq!(t.capacity_at(0.0), 100.0);
        assert_eq!(t.capacity_at(500.0), 100.0);
        assert!((t.duration_s() - 1.0).abs() < 0.11);
    }

    #[test]
    fn variability_is_positive_for_real_traces_zero_for_constant() {
        let c = BandwidthTrace::constant(50.0, 10.0);
        assert_eq!(c.variability(), 0.0);
        let t = BandwidthTrace::generate(TraceId::Trace2, 60.0, 4);
        assert!(t.variability() > 0.0);
    }

    #[test]
    fn trace2_is_relatively_more_variable_than_trace1() {
        // Fig. A.3: the mall trace swings more, relative to its mean.
        let t1 = BandwidthTrace::generate(TraceId::Trace1, 600.0, 5);
        let t2 = BandwidthTrace::generate(TraceId::Trace2, 600.0, 5);
        assert!(
            t2.variability() > t1.variability(),
            "t2 {} !> t1 {}",
            t2.variability(),
            t1.variability()
        );
    }
}
