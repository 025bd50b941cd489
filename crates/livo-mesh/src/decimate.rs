//! Vertex-clustering decimation.
//!
//! MeshReduce fits a bandwidth budget by decimating the per-frame mesh:
//! fewer triangles → smaller Draco-coded geometry, at the cost of the
//! "triangles are disturbing" / "blobs" artefacts the paper's participants
//! reported. Vertex clustering (snap vertices to a grid, merge, drop
//! degenerate triangles) is the classic fast decimator — quality-blind but
//! real-time, which is the trade MeshReduce makes.

use crate::mesh::{Mesh, Vertex};
use livo_math::Vec3;
use std::collections::HashMap;

/// Decimate by clustering vertices on a grid of the given cell size.
pub(crate) fn decimate_with_cell(mesh: &Mesh, cell: f32) -> Mesh {
    assert!(cell > 0.0);
    let inv = 1.0 / cell;
    let mut cluster_of: HashMap<(i32, i32, i32), u32> = HashMap::new();
    let mut accum: Vec<(Vec3, [u32; 3], u32)> = Vec::new();
    let mut remap = vec![0u32; mesh.vertices.len()];
    for (i, v) in mesh.vertices.iter().enumerate() {
        let key = (
            (v.position.x * inv).floor() as i32,
            (v.position.y * inv).floor() as i32,
            (v.position.z * inv).floor() as i32,
        );
        let idx = *cluster_of.entry(key).or_insert_with(|| {
            accum.push((Vec3::ZERO, [0; 3], 0));
            (accum.len() - 1) as u32
        });
        let a = &mut accum[idx as usize];
        a.0 += v.position;
        for c in 0..3 {
            a.1[c] += v.color[c] as u32;
        }
        a.2 += 1;
        remap[i] = idx;
    }
    let vertices: Vec<Vertex> = accum
        .into_iter()
        .map(|(p, c, n)| Vertex {
            position: p / n as f32,
            color: [(c[0] / n) as u8, (c[1] / n) as u8, (c[2] / n) as u8],
        })
        .collect();
    let mut triangles: Vec<[u32; 3]> = mesh
        .triangles
        .iter()
        .map(|t| {
            [
                remap[t[0] as usize],
                remap[t[1] as usize],
                remap[t[2] as usize],
            ]
        })
        .filter(|t| t[0] != t[1] && t[1] != t[2] && t[0] != t[2])
        .collect();
    // Deduplicate collapsed triangles.
    triangles.sort_unstable();
    triangles.dedup();
    let mut out = Mesh {
        vertices,
        triangles,
    };
    out.compact();
    out
}

/// Decimate to (at most) `target_triangles` by binary-searching the cluster
/// cell size. Returns the input unchanged when it already fits.
pub fn decimate(mesh: &Mesh, target_triangles: usize) -> Mesh {
    if mesh.triangle_count() <= target_triangles || mesh.is_empty() {
        return mesh.clone();
    }
    // Bracket the cell size between "no effect" and "everything collapses".
    let bbox = {
        let mut lo = mesh.vertices[0].position;
        let mut hi = lo;
        for v in &mesh.vertices {
            lo = lo.min(v.position);
            hi = hi.max(v.position);
        }
        (hi - lo).max_element().max(1e-3)
    };
    let mut lo_cell = bbox * 1e-4;
    let mut hi_cell = bbox;
    let mut best = decimate_with_cell(mesh, hi_cell);
    for _ in 0..20 {
        let mid = (lo_cell * hi_cell).sqrt();
        let m = decimate_with_cell(mesh, mid);
        if m.triangle_count() > target_triangles {
            lo_cell = mid;
        } else {
            best = m;
            hi_cell = mid;
        }
        if hi_cell / lo_cell < 1.05 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangulate::triangulate_depth;
    use livo_math::{CameraIntrinsics, Pose, RgbdCamera};

    fn wall_mesh() -> Mesh {
        let cam = RgbdCamera::new(CameraIntrinsics::kinect_depth(0.1), Pose::IDENTITY);
        let n = (cam.intrinsics.width * cam.intrinsics.height) as usize;
        // Gently varying depth so clustering has structure to keep.
        let w = cam.intrinsics.width as usize;
        let d: Vec<u16> = (0..n)
            .map(|i| 2000 + ((i % w) as f32 * 3.0).sin() as i32 as u16 * 10)
            .collect();
        let c = vec![99u8; n * 3];
        triangulate_depth(&cam, &d, &c, 100, 1)
    }

    #[test]
    fn decimate_hits_target_budget() {
        let m = wall_mesh();
        assert!(m.triangle_count() > 2000);
        for target in [2000usize, 500, 100] {
            let d = decimate(&m, target);
            assert!(
                d.triangle_count() <= target,
                "target {target}: got {}",
                d.triangle_count()
            );
            assert!(!d.is_empty(), "target {target} collapsed everything");
        }
    }

    #[test]
    fn decimation_preserves_rough_extent() {
        let m = wall_mesh();
        let d = decimate(&m, 300);
        let extent = |mesh: &Mesh| {
            let mut lo = mesh.vertices[0].position;
            let mut hi = lo;
            for v in &mesh.vertices {
                lo = lo.min(v.position);
                hi = hi.max(v.position);
            }
            hi - lo
        };
        let e0 = extent(&m);
        let e1 = extent(&d);
        assert!((e0 - e1).length() / e0.length() < 0.25, "{e0:?} vs {e1:?}");
    }

    #[test]
    fn already_small_mesh_is_unchanged() {
        let m = wall_mesh();
        let small = decimate(&m, 200);
        let again = decimate(&small, 200);
        assert_eq!(small.triangle_count(), again.triangle_count());
    }

    #[test]
    fn decimation_is_monotone_in_cell_size() {
        let m = wall_mesh();
        let fine = decimate_with_cell(&m, 0.02);
        let coarse = decimate_with_cell(&m, 0.2);
        assert!(coarse.triangle_count() < fine.triangle_count());
    }

    #[test]
    fn empty_mesh_decimates_to_empty() {
        let m = Mesh::new();
        assert!(decimate(&m, 100).is_empty());
    }
}
