//! Depth-image triangulation.
//!
//! The standard RGB-D meshing step: each 2×2 pixel quad with valid depth
//! becomes two triangles, unless a depth discontinuity (> threshold)
//! separates the corners — those edges are object silhouettes and bridging
//! them creates the "block of black mass" artefacts the paper's user-study
//! participants complained about in MeshReduce.

use crate::mesh::{Mesh, Vertex};
use livo_math::RgbdCamera;

/// Triangulate one camera's RGB-D frame into a world-space mesh.
///
/// `depth_mm`/`rgb` are row-major at the camera's intrinsic resolution;
/// `max_jump_mm` is the discontinuity threshold (typically 50 mm);
/// `stride` subsamples the pixel grid (2 halves each dimension — MeshReduce
/// builds meshes at reduced vertex density before decimating further).
pub fn triangulate_depth(
    camera: &RgbdCamera,
    depth_mm: &[u16],
    rgb: &[u8],
    max_jump_mm: u16,
    stride: usize,
) -> Mesh {
    let w = camera.intrinsics.width as usize;
    let h = camera.intrinsics.height as usize;
    assert_eq!(depth_mm.len(), w * h);
    assert_eq!(rgb.len(), w * h * 3);
    assert!(stride >= 1);

    // Grid of candidate vertices (subsampled).
    let gw = w.div_ceil(stride);
    let gh = h.div_ceil(stride);
    let mut vertex_index = vec![u32::MAX; gw * gh];
    let mut mesh = Mesh::new();
    let mut depth_of = vec![0u16; gw * gh];

    for gy in 0..gh {
        for gx in 0..gw {
            let x = (gx * stride).min(w - 1);
            let y = (gy * stride).min(h - 1);
            let d = depth_mm[y * w + x];
            depth_of[gy * gw + gx] = d;
            if d == 0 {
                continue;
            }
            if let Some(world) = camera.pixel_to_world(x as u32, y as u32, d) {
                let i = (y * w + x) * 3;
                vertex_index[gy * gw + gx] = mesh.vertices.len() as u32;
                mesh.vertices.push(Vertex {
                    position: world,
                    color: [rgb[i], rgb[i + 1], rgb[i + 2]],
                });
            }
        }
    }

    let jump = |a: u16, b: u16| (a as i32 - b as i32).unsigned_abs() > max_jump_mm as u32;
    for gy in 0..gh - 1 {
        for gx in 0..gw - 1 {
            let i00 = gy * gw + gx;
            let i10 = i00 + 1;
            let i01 = i00 + gw;
            let i11 = i01 + 1;
            let (v00, v10, v01, v11) = (
                vertex_index[i00],
                vertex_index[i10],
                vertex_index[i01],
                vertex_index[i11],
            );
            let (d00, d10, d01, d11) = (depth_of[i00], depth_of[i10], depth_of[i01], depth_of[i11]);
            // First triangle: 00-01-10.
            if v00 != u32::MAX
                && v01 != u32::MAX
                && v10 != u32::MAX
                && !jump(d00, d01)
                && !jump(d00, d10)
                && !jump(d01, d10)
            {
                mesh.triangles.push([v00, v01, v10]);
            }
            // Second triangle: 10-01-11.
            if v10 != u32::MAX
                && v01 != u32::MAX
                && v11 != u32::MAX
                && !jump(d10, d01)
                && !jump(d10, d11)
                && !jump(d01, d11)
            {
                mesh.triangles.push([v10, v01, v11]);
            }
        }
    }
    mesh.compact();
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::{CameraIntrinsics, Pose};

    fn camera(scale: f32) -> RgbdCamera {
        RgbdCamera::new(CameraIntrinsics::kinect_depth(scale), Pose::IDENTITY)
    }

    fn flat_wall(cam: &RgbdCamera, depth: u16) -> (Vec<u16>, Vec<u8>) {
        let n = (cam.intrinsics.width * cam.intrinsics.height) as usize;
        (vec![depth; n], vec![128u8; n * 3])
    }

    #[test]
    fn flat_wall_triangulates_fully() {
        let cam = camera(0.1);
        let (d, c) = flat_wall(&cam, 2000);
        let m = triangulate_depth(&cam, &d, &c, 50, 1);
        let w = cam.intrinsics.width as usize;
        let h = cam.intrinsics.height as usize;
        assert_eq!(m.vertices.len(), w * h);
        assert_eq!(m.triangle_count(), (w - 1) * (h - 1) * 2);
    }

    #[test]
    fn stride_reduces_vertex_count() {
        let cam = camera(0.1);
        let (d, c) = flat_wall(&cam, 2000);
        let full = triangulate_depth(&cam, &d, &c, 50, 1);
        let half = triangulate_depth(&cam, &d, &c, 50, 2);
        assert!(half.vertices.len() < full.vertices.len() / 3);
        assert!(!half.is_empty());
    }

    #[test]
    fn zero_depth_pixels_are_holes() {
        let cam = camera(0.1);
        let (mut d, c) = flat_wall(&cam, 2000);
        let w = cam.intrinsics.width as usize;
        // Punch a hole in the middle.
        for y in 10..20 {
            for x in 10..20 {
                d[y * w + x] = 0;
            }
        }
        let m = triangulate_depth(&cam, &d, &c, 50, 1);
        let h = cam.intrinsics.height as usize;
        assert!(m.vertices.len() < w * h);
        assert!(m.triangle_count() < (w - 1) * (h - 1) * 2);
    }

    #[test]
    fn depth_discontinuity_is_not_bridged() {
        let cam = camera(0.1);
        let w = cam.intrinsics.width as usize;
        let h = cam.intrinsics.height as usize;
        // Left half at 1 m, right half at 3 m: a silhouette edge.
        let mut d = vec![0u16; w * h];
        for y in 0..h {
            for x in 0..w {
                d[y * w + x] = if x < w / 2 { 1000 } else { 3000 };
            }
        }
        let c = vec![100u8; w * h * 3];
        let m = triangulate_depth(&cam, &d, &c, 50, 1);
        // No triangle may span the jump: check every triangle's extent in
        // depth is small.
        for (i, t) in m.triangles.iter().enumerate() {
            let zs: Vec<f32> = t
                .iter()
                .map(|&v| m.vertices[v as usize].position.z)
                .collect();
            let spread = zs.iter().cloned().fold(0.0f32, f32::max)
                - zs.iter().cloned().fold(f32::INFINITY, f32::min);
            assert!(
                spread < 0.5,
                "triangle {i} bridges the discontinuity: {spread}"
            );
        }
    }

    #[test]
    fn mesh_vertices_lie_on_surface() {
        let cam = camera(0.1);
        let (d, c) = flat_wall(&cam, 2500);
        let m = triangulate_depth(&cam, &d, &c, 50, 2);
        for v in &m.vertices {
            assert!((v.position.z - 2.5).abs() < 0.01, "{:?}", v.position);
        }
        // Colour carried through.
        assert_eq!(m.vertices[0].color, [128, 128, 128]);
    }

    #[test]
    fn all_invalid_depth_yields_empty_mesh() {
        let cam = camera(0.1);
        let n = (cam.intrinsics.width * cam.intrinsics.height) as usize;
        let m = triangulate_depth(&cam, &vec![0u16; n], &vec![0u8; n * 3], 50, 1);
        assert!(m.is_empty());
        assert_eq!(m.vertices.len(), 0);
    }
}
