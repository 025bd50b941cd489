//! Offline rate profiles: the workaround for a non-rate-adaptive codec.
//!
//! Draco cannot encode to a target bitrate, so systems built on it
//! (MeshReduce, and the paper's Draco-Oracle baseline) profile offline:
//! encode representative frames at every (quantisation, level) setting and
//! record the resulting size and modelled time. At run time, given a bit
//! budget and a deadline, the profile answers "which setting fits?" —
//! *indirect* adaptation, with all the conservatism Table 1 shows.

use crate::codec::{DracoEncoder, DracoParams, QuantBits};
use crate::timing;
use livo_pointcloud::PointCloud;

/// One profiled operating point.
#[derive(Debug, Clone, Copy)]
pub struct ProfileEntry {
    pub quant_bits: u8,
    pub level: u8,
    /// Compressed bits per input point (sizes scale ~linearly with points).
    pub bits_per_point: f64,
    /// Modelled encode microseconds per input point.
    pub encode_us_per_point: f64,
}

/// A rate profile: every (quantisation, level) point measured on sample
/// frames.
#[derive(Debug, Clone, Default)]
pub struct RateProfile {
    pub entries: Vec<ProfileEntry>,
}

/// The (quantisation, level) grid the paper describes: Draco has 10 levels
/// and 31 quantisation settings; we profile the practically distinct subset
/// (quantisation beyond 14 bits exceeds sensor resolution; below 5 is
/// unusable).
pub(crate) fn parameter_grid() -> Vec<(QuantBits, u8)> {
    let mut grid = Vec::new();
    for bits in 5..=14u8 {
        for level in [0u8, 2, 4, 5, 6, 7, 8, 9] {
            grid.push((QuantBits(bits), level));
        }
    }
    grid
}

impl RateProfile {
    /// Profile the grid on sample frames (typically a handful of frames
    /// spread through a video).
    pub fn build(samples: &[&PointCloud]) -> RateProfile {
        assert!(!samples.is_empty(), "need at least one sample frame");
        let mut entries = Vec::new();
        for (quant_bits, level) in parameter_grid() {
            let mut bpp_acc = 0.0;
            let mut n = 0usize;
            for cloud in samples {
                if cloud.is_empty() {
                    continue;
                }
                if let Some(enc) = DracoEncoder::encode(
                    cloud,
                    DracoParams {
                        quant_bits,
                        level,
                        color_bits: 8,
                    },
                ) {
                    bpp_acc += enc.bits() as f64 / cloud.len() as f64;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let encode_us_per_point = (timing::encode_time_ms(1_000_000, level, quant_bits)
                - timing::encode_time_ms(0, level, quant_bits))
                / 1.0; // µs/point × 1e6 points / 1e3 → ms; see below
            entries.push(ProfileEntry {
                quant_bits: quant_bits.0,
                level,
                bits_per_point: bpp_acc / n as f64,
                // Convert: model(1e6 points) ms − overhead ms ≡ µs/point.
                encode_us_per_point: encode_us_per_point / 1000.0,
            });
        }
        RateProfile { entries }
    }

    /// Best setting (highest fidelity: most quantisation bits, then highest
    /// level) whose predicted size fits `budget_bits` and predicted encode
    /// time fits `deadline_ms`, for a frame of `n_points`. `None` when
    /// nothing fits — the caller records a stall.
    pub fn best_fitting(
        &self,
        n_points: usize,
        budget_bits: f64,
        deadline_ms: f64,
    ) -> Option<ProfileEntry> {
        self.entries
            .iter()
            .filter(|e| {
                let size = e.bits_per_point * n_points as f64;
                let time = 1.5 + e.encode_us_per_point * n_points as f64 / 1000.0;
                size <= budget_bits && time <= deadline_ms
            })
            .max_by(|a, b| {
                (a.quant_bits, a.level, -a.bits_per_point)
                    .partial_cmp(&(b.quant_bits, b.level, -b.bits_per_point))
                    .unwrap()
            })
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::rng::SplitMix64;
    use livo_math::Vec3;
    use livo_pointcloud::Point;

    fn cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    Vec3::new(
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(0.0..2.0),
                        rng.gen_range(-2.0..2.0),
                    ),
                    [rng.gen(), rng.gen(), rng.gen()],
                )
            })
            .collect()
    }

    #[test]
    fn grid_covers_many_settings() {
        let g = parameter_grid();
        assert!(g.len() >= 60, "grid of {} points", g.len());
    }

    #[test]
    fn profile_builds_and_orders_sanely() {
        let c = cloud(800, 1);
        let p = RateProfile::build(&[&c]);
        assert!(!p.entries.is_empty());
        // More quantisation bits at same level → more bits per point.
        let at = |bits: u8, level: u8| {
            p.entries
                .iter()
                .find(|e| e.quant_bits == bits && e.level == level)
                .unwrap()
                .bits_per_point
        };
        assert!(at(14, 7) > at(8, 7));
        // Higher level at same bits → fewer bits per point.
        assert!(at(11, 9) <= at(11, 0));
    }

    #[test]
    fn best_fitting_respects_budget() {
        let c = cloud(800, 2);
        let p = RateProfile::build(&[&c]);
        let n = 100_000;
        let tight = p.best_fitting(n, 1_000_000.0, 33.0);
        let loose = p.best_fitting(n, 100_000_000.0, 1000.0);
        if let (Some(t), Some(l)) = (tight, loose) {
            assert!(t.quant_bits <= l.quant_bits);
            assert!(t.bits_per_point * n as f64 <= 1_000_000.0);
        }
        // An impossible budget yields None → stall.
        assert!(p.best_fitting(n, 10.0, 33.0).is_none());
    }

    #[test]
    fn deadline_excludes_slow_settings() {
        let c = cloud(800, 3);
        let p = RateProfile::build(&[&c]);
        // A full-scene frame (670 k points) cannot be encoded in a 33 ms
        // inter-frame interval at any setting — the paper's core finding.
        let verdict = p.best_fitting(670_000, f64::MAX, 33.0);
        assert!(
            verdict.is_none(),
            "full-scene Draco in 33 ms should be impossible, got {verdict:?}"
        );
        // But a small single-person cloud fits at 15 fps (66 ms).
        assert!(p.best_fitting(67_000, f64::MAX, 66.0).is_some());
    }
}
