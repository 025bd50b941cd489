//! Point-to-point geometry and colour error metrics.
//!
//! These are the cheap distortion measures used in the literature
//! (Tian et al., ICIP '17): symmetric point-to-point RMSE and the derived
//! geometry PSNR. LiVo itself adapts on 2D-frame RMSE (far cheaper, §3.3);
//! these 3D metrics serve the offline evaluation alongside PointSSIM.

use crate::point::PointCloud;
use crate::voxel::VoxelIndex;

/// One-sided mean-squared point-to-point distance from `a` to `b`
/// (each point of `a` to its nearest neighbour in `b`). Returns `None` if
/// either cloud is empty.
pub fn one_sided_mse(a: &PointCloud, b_index: &VoxelIndex<'_>) -> Option<f64> {
    if a.is_empty() || b_index.cloud().is_empty() {
        return None;
    }
    let mut acc = 0.0f64;
    for p in &a.points {
        let n = b_index.nearest(p.position)?;
        let q = b_index.cloud().points[n as usize].position;
        acc += p.position.distance_squared(q) as f64;
    }
    Some(acc / a.len() as f64)
}

/// Symmetric point-to-point RMSE between two clouds, in metres: the max of
/// the two one-sided errors (the usual conservative pooling).
pub fn p2p_rmse(a: &PointCloud, b: &PointCloud, cell_size: f32) -> Option<f64> {
    let ia = VoxelIndex::build(a, cell_size);
    let ib = VoxelIndex::build(b, cell_size);
    let ab = one_sided_mse(a, &ib)?;
    let ba = one_sided_mse(b, &ia)?;
    Some(ab.max(ba).sqrt())
}

/// Geometry PSNR in dB with a peak equal to the bounding-box diagonal of the
/// reference cloud (the MPEG convention). Returns `None` for empty clouds,
/// `f64::INFINITY` for identical clouds.
pub fn p2p_psnr(reference: &PointCloud, distorted: &PointCloud, cell_size: f32) -> Option<f64> {
    let (lo, hi) = reference.bounds()?;
    let peak = (hi - lo).length() as f64;
    let rmse = p2p_rmse(reference, distorted, cell_size)?;
    if rmse <= 0.0 {
        return Some(f64::INFINITY);
    }
    Some(20.0 * (peak / rmse).log10())
}

/// Mean per-point colour MSE (0–255 scale per channel) between `a` and the
/// colours of each point's nearest neighbour in `b`.
pub fn color_mse(a: &PointCloud, b_index: &VoxelIndex<'_>) -> Option<f64> {
    if a.is_empty() || b_index.cloud().is_empty() {
        return None;
    }
    let mut acc = 0.0f64;
    for p in &a.points {
        let n = b_index.nearest(p.position)?;
        let q = &b_index.cloud().points[n as usize];
        let mut e = 0.0f64;
        for c in 0..3 {
            let d = p.color[c] as f64 - q.color[c] as f64;
            e += d * d;
        }
        acc += e / 3.0;
    }
    Some(acc / a.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use livo_math::rng::SplitMix64;
    use livo_math::Vec3;

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    Vec3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ),
                    [rng.gen(), rng.gen(), rng.gen()],
                )
            })
            .collect()
    }

    #[test]
    fn identical_clouds_have_zero_rmse_and_infinite_psnr() {
        let a = random_cloud(200, 1);
        assert_eq!(p2p_rmse(&a, &a, 0.2), Some(0.0));
        assert_eq!(p2p_psnr(&a, &a, 0.2), Some(f64::INFINITY));
    }

    #[test]
    fn rmse_detects_uniform_offset() {
        let a = random_cloud(200, 2);
        let mut b = a.clone();
        for p in &mut b.points {
            p.position += Vec3::new(0.05, 0.0, 0.0);
        }
        let rmse = p2p_rmse(&a, &b, 0.2).unwrap();
        // Nearest neighbours may pair better than the direct correspondence,
        // so RMSE is bounded by the offset but should be a good fraction of it.
        assert!(rmse <= 0.05 + 1e-6);
        assert!(rmse > 0.005, "rmse {rmse}");
    }

    #[test]
    fn rmse_is_symmetric() {
        let a = random_cloud(150, 3);
        let b = random_cloud(150, 4);
        let ab = p2p_rmse(&a, &b, 0.3).unwrap();
        let ba = p2p_rmse(&b, &a, 0.3).unwrap();
        assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn psnr_decreases_with_more_noise() {
        let a = random_cloud(300, 5);
        let mut rng = SplitMix64::new(6);
        let noisy = |scale: f32, rng: &mut SplitMix64| {
            let mut b = a.clone();
            for p in &mut b.points {
                p.position += Vec3::new(
                    rng.gen_range(-scale..scale),
                    rng.gen_range(-scale..scale),
                    rng.gen_range(-scale..scale),
                );
            }
            b
        };
        let small = p2p_psnr(&a, &noisy(0.001, &mut rng), 0.2).unwrap();
        let large = p2p_psnr(&a, &noisy(0.05, &mut rng), 0.2).unwrap();
        assert!(
            small > large,
            "psnr small-noise {small} vs large-noise {large}"
        );
    }

    #[test]
    fn empty_cloud_yields_none() {
        let a = random_cloud(10, 7);
        let empty = PointCloud::new();
        assert!(p2p_rmse(&a, &empty, 0.2).is_none());
        assert!(p2p_rmse(&empty, &a, 0.2).is_none());
        assert!(p2p_psnr(&empty, &a, 0.2).is_none());
    }

    #[test]
    fn color_mse_zero_for_identical() {
        let a = random_cloud(100, 8);
        let idx = VoxelIndex::build(&a, 0.2);
        assert_eq!(color_mse(&a, &idx), Some(0.0));
    }

    #[test]
    fn color_mse_detects_channel_shift() {
        let a = random_cloud(100, 9);
        let mut b = a.clone();
        for p in &mut b.points {
            p.color[0] = p.color[0].saturating_add(40);
        }
        let idx = VoxelIndex::build(&b, 0.2);
        let mse = color_mse(&a, &idx).unwrap();
        assert!(mse > 100.0, "mse {mse}"); // ≈ 40²/3 averaged over points
    }
}
