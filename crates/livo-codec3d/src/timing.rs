//! Encode-latency model, calibrated to the paper's measurements.
//!
//! §1 of the paper measures Draco on the evaluation testbed (i7-8700K):
//! compressing a 1 MB point cloud (a single person, ≈ 67 k points at
//! 15 B/point) takes ~25 ms, and a 10 MB full-scene frame (≈ 670 k points)
//! takes > 300 ms — i.e. latency grows linearly in point count at roughly
//! 0.4 µs/point under default settings. Draco's compression level trades
//! this time against size, and finer quantisation deepens the octree
//! (log-linear cost).
//!
//! The model lets the Draco-Oracle baseline account stalls the way the
//! paper's testbed would, independent of this machine's speed.

use crate::codec::QuantBits;

/// Per-point cost in microseconds at level 7, 11-bit quantisation.
const BASE_US_PER_POINT: f64 = 0.45;
/// Fixed per-frame overhead in milliseconds.
const BASE_OVERHEAD_MS: f64 = 1.5;

/// Modelled encode time in milliseconds on the paper's testbed.
pub fn encode_time_ms(n_points: usize, level: u8, quant: QuantBits) -> f64 {
    // Level scaling relative to the level-7 reference: Draco's speed
    // presets span roughly 3× end to end (level 0 ≈ 38% of level 7's cost).
    let level_factor = 1.15f64.powi(level as i32 - 7);
    // Octree depth scaling relative to the 11-bit reference. Depth affects
    // traversal cost only mildly — point count dominates Draco's runtime —
    // so the factor is flattened toward 1.
    let depth_factor = 0.7 + 0.3 * (quant.0 as f64 / 11.0);
    BASE_OVERHEAD_MS
        + n_points as f64 * BASE_US_PER_POINT * level_factor.max(0.05) * depth_factor / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ≈ 15 bytes per point (12 position + 3 colour).
    fn points_for_mb(mb: f64) -> usize {
        (mb * 1e6 / 15.0) as usize
    }

    #[test]
    fn one_mb_cloud_takes_about_25ms() {
        let t = encode_time_ms(points_for_mb(1.0), 7, QuantBits(11));
        assert!((20.0..35.0).contains(&t), "1 MB → {t} ms");
    }

    #[test]
    fn ten_mb_cloud_takes_over_300ms() {
        let t = encode_time_ms(points_for_mb(10.0), 7, QuantBits(11));
        assert!(t > 250.0 && t < 400.0, "10 MB → {t} ms");
    }

    #[test]
    fn time_is_linear_in_points() {
        let t1 = encode_time_ms(100_000, 7, QuantBits(11));
        let t2 = encode_time_ms(200_000, 7, QuantBits(11));
        let marginal = t2 - t1;
        let t3 = encode_time_ms(300_000, 7, QuantBits(11));
        assert!(((t3 - t2) - marginal).abs() < 1e-9);
    }

    #[test]
    fn higher_level_is_slower() {
        for l in 0..9 {
            assert!(
                encode_time_ms(100_000, l + 1, QuantBits(11))
                    > encode_time_ms(100_000, l, QuantBits(11))
            );
        }
    }

    #[test]
    fn deeper_quantisation_is_slower() {
        assert!(
            encode_time_ms(100_000, 7, QuantBits(14)) > encode_time_ms(100_000, 7, QuantBits(8))
        );
    }
}
