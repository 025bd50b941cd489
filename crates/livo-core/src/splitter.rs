//! Adaptive bandwidth splitting between the depth and colour streams.
//!
//! §3.3 of the paper: given the congestion controller's estimate `B`, LiVo
//! assigns `s·B` to depth and `(1−s)·B` to colour, and *continuously
//! adapts* `s` so the sender-measured depth and colour errors balance:
//!
//! - every `k` frames (k = 3) the sender decodes its own output and
//!   computes tiled-frame RMSEs `RMSE_d` (millimetres) and `RMSE_c`
//!   (8-bit luma);
//! - if `|RMSE_d − RMSE_c| ≤ ε` the split holds; otherwise a
//!   multi-dimensional line search walks `s` by δ = 0.005 toward balance;
//! - `s` is clamped to [0.5, 0.9]: depth always gets at least half (humans
//!   are more sensitive to depth distortion) and colour is never starved.

/// Splitter parameters (defaults follow the paper).
#[derive(Debug, Clone, Copy)]
pub struct SplitterConfig {
    /// Initial split s_i.
    pub initial: f64,
    /// Line-search step δ.
    pub step: f64,
    /// Dead-band ε on |RMSE_d − RMSE_c|.
    pub epsilon: f64,
    /// Lower clamp (depth never below half).
    pub min: f64,
    /// Upper clamp (colour never starved).
    pub max: f64,
    /// Re-measure RMSE every k frames.
    pub every_k: u32,
}

impl Default for SplitterConfig {
    fn default() -> Self {
        SplitterConfig {
            initial: 0.8,
            step: 0.005,
            epsilon: 0.5,
            min: 0.5,
            max: 0.9,
            every_k: 3,
        }
    }
}

/// The adaptive splitter.
#[derive(Debug, Clone)]
pub struct BandwidthSplitter {
    cfg: SplitterConfig,
    s: f64,
    frames_since_update: u32,
    steps: u64,
}

impl BandwidthSplitter {
    pub fn new(cfg: SplitterConfig) -> Self {
        assert!(cfg.min <= cfg.max && cfg.step > 0.0);
        BandwidthSplitter {
            s: cfg.initial.clamp(cfg.min, cfg.max),
            cfg,
            frames_since_update: 0,
            steps: 0,
        }
    }

    /// Line-search steps actually taken so far (measurements whose error
    /// imbalance exceeded the dead-band). Telemetry counter.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Current split (fraction of bandwidth for depth).
    pub fn split(&self) -> f64 {
        self.s
    }

    /// Whether this frame is due for an RMSE measurement (every k-th).
    pub fn measurement_due(&mut self) -> bool {
        let due = self.frames_since_update == 0;
        self.frames_since_update = (self.frames_since_update + 1) % self.cfg.every_k;
        due
    }

    /// One line-search step given the sender-measured errors (depth RMSE in
    /// millimetres, colour RMSE in 8-bit luma units — the paper compares
    /// them on a common axis, cf. Fig. 4's single log scale).
    pub fn update(&mut self, rmse_depth: f64, rmse_color: f64) {
        let diff = rmse_depth - rmse_color;
        if diff.abs() <= self.cfg.epsilon {
            return;
        }
        if diff > 0.0 {
            self.s += self.cfg.step;
        } else {
            self.s -= self.cfg.step;
        }
        self.steps += 1;
        self.s = self.s.clamp(self.cfg.min, self.cfg.max);
    }

    /// Apportion `bandwidth_bps` into (depth_bps, color_bps).
    pub fn apportion(&self, bandwidth_bps: f64) -> (f64, f64) {
        (bandwidth_bps * self.s, bandwidth_bps * (1.0 - self.s))
    }

    pub fn config(&self) -> &SplitterConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_initial_clamped() {
        let s = BandwidthSplitter::new(SplitterConfig {
            initial: 0.95,
            ..Default::default()
        });
        assert_eq!(s.split(), 0.9);
        let s2 = BandwidthSplitter::new(SplitterConfig {
            initial: 0.3,
            ..Default::default()
        });
        assert_eq!(s2.split(), 0.5);
    }

    #[test]
    fn depth_error_dominant_raises_split() {
        let mut s = BandwidthSplitter::new(SplitterConfig::default());
        let before = s.split();
        s.update(10.0, 2.0);
        assert!((s.split() - before - 0.005).abs() < 1e-12);
    }

    #[test]
    fn color_error_dominant_lowers_split() {
        let mut s = BandwidthSplitter::new(SplitterConfig::default());
        let before = s.split();
        s.update(1.0, 9.0);
        assert!((before - s.split() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn dead_band_holds_split() {
        let mut s = BandwidthSplitter::new(SplitterConfig::default());
        let before = s.split();
        s.update(5.0, 5.3);
        assert_eq!(s.split(), before);
    }

    #[test]
    fn split_clamps_at_both_ends() {
        let mut s = BandwidthSplitter::new(SplitterConfig::default());
        for _ in 0..1000 {
            s.update(100.0, 0.0); // depth always worse → drive up
        }
        assert_eq!(
            s.split(),
            0.9,
            "clamped at 0.9 (the paper's anti-starvation cap)"
        );
        for _ in 0..1000 {
            s.update(0.0, 100.0);
        }
        assert_eq!(s.split(), 0.5, "clamped at 0.5 (depth keeps at least half)");
    }

    #[test]
    fn apportion_sums_to_bandwidth() {
        let s = BandwidthSplitter::new(SplitterConfig::default());
        let (d, c) = s.apportion(100e6);
        assert!((d + c - 100e6).abs() < 1e-6);
        assert!(d > c, "depth gets the bigger share");
    }

    #[test]
    fn measurement_cadence_every_k() {
        let mut s = BandwidthSplitter::new(SplitterConfig {
            every_k: 3,
            ..Default::default()
        });
        let pattern: Vec<bool> = (0..9).map(|_| s.measurement_due()).collect();
        assert_eq!(
            pattern,
            vec![true, false, false, true, false, false, true, false, false]
        );
    }

    #[test]
    fn converges_toward_balance_in_closed_loop() {
        // A toy distortion model: depth error falls with its share, colour
        // error with the rest; the fixed point sits where they cross.
        let mut s = BandwidthSplitter::new(SplitterConfig {
            initial: 0.5,
            epsilon: 0.05,
            ..Default::default()
        });
        let b = 100.0;
        for _ in 0..2000 {
            let (d_bw, c_bw) = s.apportion(b);
            let rmse_d = 600.0 / d_bw; // needs ~7× more bandwidth to balance
            let rmse_c = 80.0 / c_bw;
            s.update(rmse_d, rmse_c);
        }
        // Analytic balance: 600/(s·b) = 80/((1−s)·b) → s ≈ 0.882.
        assert!(
            (s.split() - 0.882).abs() < 0.02,
            "converged to {}",
            s.split()
        );
    }

    #[test]
    fn oscillation_is_bounded_by_step() {
        // At balance, consecutive updates flip direction; the split must
        // stay within one step of the fixed point.
        let mut s = BandwidthSplitter::new(SplitterConfig {
            epsilon: 0.0,
            ..Default::default()
        });
        let b = 100.0;
        let mut history = Vec::new();
        for _ in 0..3000 {
            let (d_bw, c_bw) = s.apportion(b);
            s.update(600.0 / d_bw, 80.0 / c_bw);
            history.push(s.split());
        }
        let tail = &history[2000..];
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min <= 0.011, "oscillation span {}", max - min);
    }
}
