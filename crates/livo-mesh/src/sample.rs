//! Area-weighted surface sampling.
//!
//! PSSIM is defined on point clouds, so the evaluation samples as many
//! points from the (rendered) mesh as the ground-truth cloud has (§4.1 of
//! the paper). Sampling is area-weighted and deterministic given the seed,
//! with barycentric colour interpolation.

use crate::mesh::Mesh;
use livo_math::rng::SplitMix64;
use livo_pointcloud::{Point, PointCloud};

/// Draw `n` points uniformly over the mesh surface.
pub fn sample_points(mesh: &Mesh, n: usize, seed: u64) -> PointCloud {
    if mesh.is_empty() || n == 0 {
        return PointCloud::new();
    }
    // Cumulative-area table for triangle selection.
    let mut cum = Vec::with_capacity(mesh.triangle_count());
    let mut total = 0.0f64;
    for i in 0..mesh.triangle_count() {
        total += mesh.triangle_area(i) as f64;
        cum.push(total);
    }
    if total <= 0.0 {
        return PointCloud::new();
    }
    let mut rng = SplitMix64::new(seed);
    let mut out = PointCloud::with_capacity(n);
    for _ in 0..n {
        let r = rng.gen_range(0.0..total);
        let ti = cum
            .partition_point(|&c| c < r)
            .min(mesh.triangle_count() - 1);
        let [ia, ib, ic] = mesh.triangles[ti];
        let va = &mesh.vertices[ia as usize];
        let vb = &mesh.vertices[ib as usize];
        let vc = &mesh.vertices[ic as usize];
        // Uniform barycentric sample.
        let (mut u, mut v): (f32, f32) = (rng.gen(), rng.gen());
        if u + v > 1.0 {
            u = 1.0 - u;
            v = 1.0 - v;
        }
        let w = 1.0 - u - v;
        let pos = va.position * w + vb.position * u + vc.position * v;
        let color = [
            (va.color[0] as f32 * w + vb.color[0] as f32 * u + vc.color[0] as f32 * v) as u8,
            (va.color[1] as f32 * w + vb.color[1] as f32 * u + vc.color[1] as f32 * v) as u8,
            (va.color[2] as f32 * w + vb.color[2] as f32 * u + vc.color[2] as f32 * v) as u8,
        ];
        out.push(Point::new(pos, color));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh, Vertex};
    use livo_math::Vec3;

    fn quad(z: f32) -> Mesh {
        Mesh {
            vertices: vec![
                Vertex {
                    position: Vec3::new(0.0, 0.0, z),
                    color: [255, 0, 0],
                },
                Vertex {
                    position: Vec3::new(1.0, 0.0, z),
                    color: [255, 0, 0],
                },
                Vertex {
                    position: Vec3::new(1.0, 1.0, z),
                    color: [255, 0, 0],
                },
                Vertex {
                    position: Vec3::new(0.0, 1.0, z),
                    color: [255, 0, 0],
                },
            ],
            triangles: vec![[0, 1, 2], [0, 2, 3]],
        }
    }

    #[test]
    fn samples_requested_count() {
        let pc = sample_points(&quad(0.0), 500, 1);
        assert_eq!(pc.len(), 500);
    }

    #[test]
    fn samples_lie_on_surface() {
        let pc = sample_points(&quad(2.0), 300, 2);
        for p in &pc.points {
            assert!((p.position.z - 2.0).abs() < 1e-6);
            assert!(p.position.x >= -1e-6 && p.position.x <= 1.0 + 1e-6);
            assert!(p.position.y >= -1e-6 && p.position.y <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn sampling_is_area_weighted() {
        // A mesh with one big and one tiny triangle: nearly all samples
        // should land on the big one.
        let m = Mesh {
            vertices: vec![
                Vertex {
                    position: Vec3::new(0.0, 0.0, 0.0),
                    color: [0; 3],
                },
                Vertex {
                    position: Vec3::new(10.0, 0.0, 0.0),
                    color: [0; 3],
                },
                Vertex {
                    position: Vec3::new(0.0, 10.0, 0.0),
                    color: [0; 3],
                },
                Vertex {
                    position: Vec3::new(100.0, 0.0, 0.0),
                    color: [0; 3],
                },
                Vertex {
                    position: Vec3::new(100.1, 0.0, 0.0),
                    color: [0; 3],
                },
                Vertex {
                    position: Vec3::new(100.0, 0.1, 0.0),
                    color: [0; 3],
                },
            ],
            triangles: vec![[0, 1, 2], [3, 4, 5]],
        };
        let pc = sample_points(&m, 1000, 3);
        let on_tiny = pc.points.iter().filter(|p| p.position.x > 50.0).count();
        assert!(on_tiny < 10, "{on_tiny} samples on the tiny triangle");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sample_points(&quad(0.0), 100, 7);
        let b = sample_points(&quad(0.0), 100, 7);
        let c = sample_points(&quad(0.0), 100, 8);
        assert_eq!(a.points, b.points);
        assert_ne!(a.points, c.points);
    }

    #[test]
    fn empty_mesh_samples_nothing() {
        assert!(sample_points(&Mesh::new(), 100, 1).is_empty());
        assert!(sample_points(&quad(0.0), 0, 1).is_empty());
    }
}
