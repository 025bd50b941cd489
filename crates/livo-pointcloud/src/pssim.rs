//! PointSSIM: the structural-similarity quality metric for point clouds.
//!
//! Reimplementation of Alexiou & Ebrahimi, *"Towards a Point Cloud Structural
//! Similarity Metric"* (ICMEW 2020) — the objective metric LiVo's evaluation
//! reports. The metric extends SSIM to 3D:
//!
//! 1. For every point, gather a k-nearest neighbourhood.
//! 2. Compute per-point *features*: for **geometry**, the distances to the
//!    neighbours plus the PCA curvature of the neighbourhood; for **colour**,
//!    the luminance values of the neighbours.
//! 3. Summarise each neighbourhood by a *dispersion* statistic (standard
//!    deviation of the feature samples).
//! 4. For each point in A, find the nearest point in B and compare the two
//!    dispersions with the relative-difference similarity
//!    `1 − |σ_A − σ_B| / max(σ_A, σ_B)`.
//! 5. Pool by averaging, symmetrise by taking the *minimum* of the two
//!    directions (conservative, like the max-error convention), and scale
//!    to 0–100.
//!
//! Values in the high 80s or above are good (matching the paper's reading of
//! the scale). Identical clouds score 100.

use crate::normals;
use crate::point::PointCloud;
use crate::voxel::VoxelIndex;

/// Parameters for [`pssim`].
#[derive(Debug, Clone, Copy)]
pub struct PssimConfig {
    /// Neighbourhood size (the reference implementation defaults to ~10).
    pub neighbors: usize,
    /// Spatial-hash cell size in metres; should be close to the local point
    /// spacing. Pick ~2–4× the voxel size used for rendering.
    pub cell_size: f32,
    /// Weight of the curvature feature inside the geometry score (0–1);
    /// the remainder weights the distance-dispersion feature.
    pub curvature_weight: f64,
}

impl Default for PssimConfig {
    fn default() -> Self {
        PssimConfig {
            neighbors: 9,
            cell_size: 0.08,
            curvature_weight: 0.3,
        }
    }
}

/// Separate geometry and colour quality scores, each 0–100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PssimScore {
    pub geometry: f64,
    pub color: f64,
}

/// Per-point feature dispersions for one cloud.
struct FeatureMaps {
    /// Std-dev of neighbour distances (local spacing structure).
    geo_dispersion: Vec<f64>,
    /// PCA curvature of the neighbourhood.
    curvature: Vec<f64>,
    /// Std-dev of neighbour luminances (SSIM's contrast term).
    color_dispersion: Vec<f64>,
    /// Mean neighbourhood luminance (SSIM's luminance term).
    color_mean: Vec<f64>,
}

fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    var.sqrt()
}

fn feature_maps(cloud: &PointCloud, index: &VoxelIndex<'_>, cfg: &PssimConfig) -> FeatureMaps {
    let n = cloud.len();
    let mut geo = Vec::with_capacity(n);
    let mut curv = Vec::with_capacity(n);
    let mut col = Vec::with_capacity(n);
    let mut col_mean = Vec::with_capacity(n);
    let mut dists = Vec::with_capacity(cfg.neighbors);
    let mut lumas = Vec::with_capacity(cfg.neighbors);
    for p in &cloud.points {
        let nn = index.knn(p.position, cfg.neighbors + 1); // includes self
        dists.clear();
        lumas.clear();
        for &i in nn.iter().skip(1) {
            let q = &cloud.points[i as usize];
            dists.push(p.position.distance(q.position) as f64);
            lumas.push(q.luma() as f64);
        }
        geo.push(std_dev(&dists) + dists.iter().copied().sum::<f64>() / dists.len().max(1) as f64);
        col.push(std_dev(&lumas));
        col_mean.push(lumas.iter().sum::<f64>() / lumas.len().max(1) as f64);
        let est = normals::estimate_at(cloud, &nn);
        curv.push(est.map_or(0.0, |e| e.curvature as f64));
    }
    FeatureMaps {
        geo_dispersion: geo,
        curvature: curv,
        color_dispersion: col,
        color_mean: col_mean,
    }
}

/// SSIM's luminance-comparison term `(2μaμb + c) / (μa² + μb² + c)` with the
/// conventional stabiliser for 8-bit dynamic range.
#[inline]
fn luminance_sim(a: f64, b: f64) -> f64 {
    const C1: f64 = (0.01 * 255.0) * (0.01 * 255.0);
    ((2.0 * a * b + C1) / (a * a + b * b + C1)).clamp(0.0, 1.0)
}

/// Relative-difference similarity of two non-negative dispersions, in [0, 1].
#[inline]
fn rel_sim(a: f64, b: f64) -> f64 {
    let m = a.max(b);
    if m <= 1e-12 {
        1.0
    } else {
        1.0 - (a - b).abs() / m
    }
}

/// One direction of the metric: compare each point of `a` against its nearest
/// correspondence in `b`. Returns (geometry similarity, colour similarity),
/// both in [0, 1].
fn one_sided(
    a: &PointCloud,
    fa: &FeatureMaps,
    b_index: &VoxelIndex<'_>,
    fb: &FeatureMaps,
    cfg: &PssimConfig,
) -> (f64, f64) {
    let mut geo_acc = 0.0;
    let mut col_acc = 0.0;
    let n = a.len() as f64;
    for (i, p) in a.points.iter().enumerate() {
        let j = b_index.nearest(p.position).expect("non-empty cloud") as usize;
        let g = rel_sim(fa.geo_dispersion[i], fb.geo_dispersion[j]);
        let c = rel_sim(fa.curvature[i], fb.curvature[j]);
        geo_acc += (1.0 - cfg.curvature_weight) * g + cfg.curvature_weight * c;
        // Colour combines SSIM's luminance and contrast comparisons.
        let lum = luminance_sim(fa.color_mean[i], fb.color_mean[j]);
        let con = rel_sim(fa.color_dispersion[i], fb.color_dispersion[j]);
        col_acc += 0.6 * lum + 0.4 * con;
    }
    (geo_acc / n, col_acc / n)
}

/// Compute PointSSIM between a reference and a distorted cloud.
///
/// Returns `None` when either cloud has fewer points than the neighbourhood
/// size (the metric is undefined there; the evaluation harness scores stalled
/// frames as 0 explicitly, as the paper does).
pub fn pssim(
    reference: &PointCloud,
    distorted: &PointCloud,
    cfg: &PssimConfig,
) -> Option<PssimScore> {
    if reference.len() <= cfg.neighbors || distorted.len() <= cfg.neighbors {
        return None;
    }
    let ia = VoxelIndex::build(reference, cfg.cell_size);
    let ib = VoxelIndex::build(distorted, cfg.cell_size);
    let fa = feature_maps(reference, &ia, cfg);
    let fb = feature_maps(distorted, &ib, cfg);
    let (g_ab, c_ab) = one_sided(reference, &fa, &ib, &fb, cfg);
    let (g_ba, c_ba) = one_sided(distorted, &fb, &ia, &fa, cfg);
    Some(PssimScore {
        geometry: 100.0 * g_ab.min(g_ba),
        color: 100.0 * c_ab.min(c_ba),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use livo_math::rng::SplitMix64;
    use livo_math::Vec3;

    /// A wavy coloured surface patch — structured geometry and colour.
    fn surface_cloud(n: usize, pitch: f32) -> PointCloud {
        let mut pc = PointCloud::new();
        for i in 0..n {
            for j in 0..n {
                let x = i as f32 * pitch;
                let z = j as f32 * pitch;
                let y = 0.05 * (x * 8.0).sin() + 0.03 * (z * 11.0).cos();
                let l = (127.0 + 100.0 * (x * 5.0).sin() * (z * 7.0).cos()) as u8;
                pc.push(Point::new(Vec3::new(x, y, z), [l, l / 2, 255 - l]));
            }
        }
        pc
    }

    fn jitter(pc: &PointCloud, pos_scale: f32, col_scale: i16, seed: u64) -> PointCloud {
        let mut rng = SplitMix64::new(seed);
        let mut out = pc.clone();
        for p in &mut out.points {
            p.position += Vec3::new(
                rng.gen_range(-pos_scale..=pos_scale),
                rng.gen_range(-pos_scale..=pos_scale),
                rng.gen_range(-pos_scale..=pos_scale),
            );
            for c in 0..3 {
                let v = p.color[c] as i16 + rng.gen_range(-col_scale..=col_scale);
                p.color[c] = v.clamp(0, 255) as u8;
            }
        }
        out
    }

    fn cfg() -> PssimConfig {
        PssimConfig {
            neighbors: 8,
            cell_size: 0.05,
            curvature_weight: 0.3,
        }
    }

    #[test]
    fn identical_clouds_score_100() {
        let pc = surface_cloud(20, 0.02);
        let s = pssim(&pc, &pc, &cfg()).unwrap();
        assert!((s.geometry - 100.0).abs() < 1e-6, "{s:?}");
        assert!((s.color - 100.0).abs() < 1e-6, "{s:?}");
    }

    #[test]
    fn geometry_noise_lowers_geometry_score() {
        let pc = surface_cloud(20, 0.02);
        let small = pssim(&pc, &jitter(&pc, 0.001, 0, 1), &cfg()).unwrap();
        let large = pssim(&pc, &jitter(&pc, 0.01, 0, 2), &cfg()).unwrap();
        assert!(small.geometry > large.geometry, "{small:?} vs {large:?}");
        // Curvature on a near-planar patch is noise-sensitive, so even small
        // jitter costs a noticeable number of points — but the ordering and a
        // clear gap must hold.
        assert!(small.geometry > 70.0, "{small:?}");
        assert!(large.geometry < small.geometry - 2.0);
    }

    #[test]
    fn color_noise_lowers_color_score_not_geometry() {
        let pc = surface_cloud(20, 0.02);
        let s = pssim(&pc, &jitter(&pc, 0.0, 60, 3), &cfg()).unwrap();
        assert!((s.geometry - 100.0).abs() < 1e-6, "{s:?}");
        assert!(s.color < 95.0, "{s:?}");
    }

    #[test]
    fn quantized_geometry_lowers_geometry_score() {
        let pc = surface_cloud(24, 0.02);
        // Snap positions to a coarse 2 cm grid (what a coarse codec does).
        let mut q = pc.clone();
        for p in &mut q.points {
            let snap = |v: f32| (v / 0.02).round() * 0.02;
            p.position = Vec3::new(snap(p.position.x), snap(p.position.y), snap(p.position.z));
        }
        let s = pssim(&pc, &q, &cfg()).unwrap();
        assert!(s.geometry < 97.0, "{s:?}");
    }

    #[test]
    fn scores_are_in_range() {
        let pc = surface_cloud(16, 0.03);
        let bad = jitter(&pc, 0.05, 120, 4);
        let s = pssim(&pc, &bad, &cfg()).unwrap();
        assert!(s.geometry >= 0.0 && s.geometry <= 100.0);
        assert!(s.color >= 0.0 && s.color <= 100.0);
    }

    #[test]
    fn symmetric_in_arguments() {
        let pc = surface_cloud(14, 0.03);
        let d = jitter(&pc, 0.004, 20, 5);
        let ab = pssim(&pc, &d, &cfg()).unwrap();
        let ba = pssim(&d, &pc, &cfg()).unwrap();
        assert!((ab.geometry - ba.geometry).abs() < 1e-9);
        assert!((ab.color - ba.color).abs() < 1e-9);
    }

    #[test]
    fn tiny_clouds_are_none() {
        let mut a = PointCloud::new();
        let mut b = PointCloud::new();
        for i in 0..5 {
            a.push(Point::new(Vec3::new(i as f32, 0.0, 0.0), [0; 3]));
            b.push(Point::new(Vec3::new(i as f32, 0.0, 0.0), [0; 3]));
        }
        assert!(pssim(&a, &b, &cfg()).is_none());
    }
}
