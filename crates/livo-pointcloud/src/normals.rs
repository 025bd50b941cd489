//! PCA normal and curvature estimation.
//!
//! PointSSIM's feature space includes normals and curvatures; both come from
//! the eigen-decomposition of the local covariance of each point's
//! neighbourhood. We compute the smallest eigenvector (the normal) and the
//! surface-variation curvature `λ₀ / (λ₀ + λ₁ + λ₂)`.

use crate::point::PointCloud;
use livo_math::Vec3;

/// Per-point differential-geometry estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceEstimate {
    /// Unit normal (sign is arbitrary).
    pub normal: Vec3,
    /// Surface variation in `[0, 1/3]`: 0 for a perfect plane.
    pub curvature: f32,
}

/// Symmetric 3×3 eigen-decomposition by Jacobi rotations. Returns
/// eigenvalues ascending with matching eigenvectors as columns.
fn eigen_sym3(mut a: [[f32; 3]; 3]) -> ([f32; 3], [[f32; 3]; 3]) {
    // v starts as identity; accumulate rotations.
    let mut v = [[1.0f32, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
    for _ in 0..32 {
        // Find the largest off-diagonal element.
        let (mut p, mut q, mut max) = (0usize, 1usize, a[0][1].abs());
        if a[0][2].abs() > max {
            p = 0;
            q = 2;
            max = a[0][2].abs();
        }
        if a[1][2].abs() > max {
            p = 1;
            q = 2;
            max = a[1][2].abs();
        }
        if max < 1e-12 {
            break;
        }
        let app = a[p][p];
        let aqq = a[q][q];
        let apq = a[p][q];
        // Annihilate a[p][q]: for the Givens convention below (A ← GᵀAG with
        // G[p][p]=c, G[p][q]=s, G[q][p]=−s, G[q][q]=c) the angle satisfies
        // tan 2θ = 2·a_pq / (a_qq − a_pp).
        let theta = 0.5 * (2.0 * apq).atan2(aqq - app);
        let (s, c) = theta.sin_cos();
        // Apply Givens rotation G(p,q,theta) on both sides.
        for row in a.iter_mut() {
            let (akp, akq) = (row[p], row[q]);
            row[p] = c * akp - s * akq;
            row[q] = s * akp + c * akq;
        }
        let (rowp, rowq) = (a[p], a[q]);
        a[p] = std::array::from_fn(|k| c * rowp[k] - s * rowq[k]);
        a[q] = std::array::from_fn(|k| s * rowp[k] + c * rowq[k]);
        for row in v.iter_mut() {
            let (vkp, vkq) = (row[p], row[q]);
            row[p] = c * vkp - s * vkq;
            row[q] = s * vkp + c * vkq;
        }
    }
    let mut evals = [a[0][0], a[1][1], a[2][2]];
    // Sort ascending, permute eigenvector columns accordingly.
    let mut order = [0usize, 1, 2];
    order.sort_by(|&x, &y| evals[x].partial_cmp(&evals[y]).unwrap());
    let sorted_vals = [evals[order[0]], evals[order[1]], evals[order[2]]];
    let mut sorted_vecs = [[0.0f32; 3]; 3];
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..3 {
            sorted_vecs[r][new_c] = v[r][old_c];
        }
    }
    evals = sorted_vals;
    (evals, sorted_vecs)
}

/// Estimate normal + curvature for the neighbourhood point set `idxs` of
/// `cloud`. Returns `None` for degenerate neighbourhoods (< 3 points).
pub fn estimate_at(cloud: &PointCloud, idxs: &[u32]) -> Option<SurfaceEstimate> {
    if idxs.len() < 3 {
        return None;
    }
    let n = idxs.len() as f32;
    let mut mean = Vec3::ZERO;
    for &i in idxs {
        mean += cloud.points[i as usize].position;
    }
    mean /= n;
    let mut cov = [[0.0f32; 3]; 3];
    for &i in idxs {
        let d = cloud.points[i as usize].position - mean;
        let da = d.to_array();
        for r in 0..3 {
            for c in 0..3 {
                cov[r][c] += da[r] * da[c];
            }
        }
    }
    for row in &mut cov {
        for v in row.iter_mut() {
            *v /= n;
        }
    }
    let (evals, evecs) = eigen_sym3(cov);
    let normal = Vec3::new(evecs[0][0], evecs[1][0], evecs[2][0]).normalized();
    let total: f32 = evals.iter().map(|&e| e.max(0.0)).sum();
    let curvature = if total <= 1e-12 {
        0.0
    } else {
        evals[0].max(0.0) / total
    };
    Some(SurfaceEstimate { normal, curvature })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::voxel::VoxelIndex;

    fn plane_cloud(n: usize, pitch: f32, normal_axis: usize) -> PointCloud {
        let mut pc = PointCloud::new();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (i as f32 * pitch, j as f32 * pitch);
                let pos = match normal_axis {
                    0 => Vec3::new(0.0, a, b),
                    1 => Vec3::new(a, 0.0, b),
                    _ => Vec3::new(a, b, 0.0),
                };
                pc.push(Point::new(pos, [100; 3]));
            }
        }
        pc
    }

    #[test]
    fn plane_normal_is_perpendicular() {
        for axis in 0..3 {
            let pc = plane_cloud(8, 0.02, axis);
            let all: Vec<u32> = (0..pc.len() as u32).collect();
            let est = estimate_at(&pc, &all).unwrap();
            let expected = match axis {
                0 => Vec3::X,
                1 => Vec3::Y,
                _ => Vec3::Z,
            };
            assert!(
                est.normal.dot(expected).abs() > 0.999,
                "axis {axis}: normal {:?}",
                est.normal
            );
            assert!(est.curvature < 1e-4, "plane curvature {}", est.curvature);
        }
    }

    #[test]
    fn sphere_patch_has_positive_curvature() {
        // Points on a small sphere cap.
        let mut pc = PointCloud::new();
        let r = 0.1f32;
        for i in 0..12 {
            for j in 0..12 {
                let theta = 0.3 + i as f32 * 0.05;
                let phi = j as f32 * 0.05;
                pc.push(Point::new(
                    Vec3::new(
                        r * theta.sin() * phi.cos(),
                        r * theta.sin() * phi.sin(),
                        r * theta.cos(),
                    ),
                    [0; 3],
                ));
            }
        }
        let all: Vec<u32> = (0..pc.len() as u32).collect();
        let est = estimate_at(&pc, &all).unwrap();
        assert!(est.curvature > 1e-4, "sphere curvature {}", est.curvature);
    }

    #[test]
    fn degenerate_neighborhood_is_none() {
        let pc = plane_cloud(2, 1.0, 2);
        assert!(estimate_at(&pc, &[0]).is_none());
        assert!(estimate_at(&pc, &[0, 1]).is_none());
    }

    #[test]
    fn estimate_all_aligns_with_cloud() {
        // Every point's estimate from its 9 nearest neighbours, as PSSIM
        // takes them.
        let pc = plane_cloud(6, 0.05, 1);
        let idx = VoxelIndex::build(&pc, 0.1);
        let ests: Vec<SurfaceEstimate> = pc
            .points
            .iter()
            .map(|p| estimate_at(&pc, &idx.knn(p.position, 9)).expect("a plane is not degenerate"))
            .collect();
        // Most normals should be ±Y.
        let good = ests
            .iter()
            .filter(|e| e.normal.dot(Vec3::Y).abs() > 0.99)
            .count();
        assert!(good as f32 / ests.len() as f32 > 0.9);
    }

    #[test]
    fn eigen_sym3_recovers_diagonal() {
        let (vals, _) = eigen_sym3([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]);
        assert!((vals[0] - 1.0).abs() < 1e-5);
        assert!((vals[1] - 2.0).abs() < 1e-5);
        assert!((vals[2] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn eigen_sym3_orthogonal_eigenvectors() {
        let a = [[2.0, 0.5, 0.1], [0.5, 1.5, 0.2], [0.1, 0.2, 1.0]];
        let (_, v) = eigen_sym3(a);
        let col = |c: usize| Vec3::new(v[0][c], v[1][c], v[2][c]);
        assert!(col(0).dot(col(1)).abs() < 1e-4);
        assert!(col(0).dot(col(2)).abs() < 1e-4);
        assert!(col(1).dot(col(2)).abs() < 1e-4);
    }
}
