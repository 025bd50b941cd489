//! Indexed triangle meshes with per-vertex colour.

use livo_math::Vec3;

/// A mesh vertex: position plus colour (textures are baked per-vertex; the
/// MeshReduce baseline codes them separately from geometry, as the real
/// system codes its texture atlas separately).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    pub position: Vec3,
    pub color: [u8; 3],
}

/// An indexed triangle mesh.
#[derive(Debug, Clone, Default)]
pub struct Mesh {
    pub vertices: Vec<Vertex>,
    /// Triangles as vertex-index triples.
    pub triangles: Vec<[u32; 3]>,
}

impl Mesh {
    pub fn new() -> Self {
        Mesh::default()
    }

    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }

    /// Area of triangle `i`.
    pub(crate) fn triangle_area(&self, i: usize) -> f32 {
        let [a, b, c] = self.triangles[i];
        let pa = self.vertices[a as usize].position;
        let pb = self.vertices[b as usize].position;
        let pc = self.vertices[c as usize].position;
        (pb - pa).cross(pc - pa).length() * 0.5
    }

    /// Total surface area.
    pub fn surface_area(&self) -> f32 {
        (0..self.triangles.len())
            .map(|i| self.triangle_area(i))
            .sum()
    }

    /// Append all geometry of `other`.
    pub fn merge(&mut self, other: &Mesh) {
        let base = self.vertices.len() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.triangles.extend(
            other
                .triangles
                .iter()
                .map(|t| [t[0] + base, t[1] + base, t[2] + base]),
        );
    }

    /// Drop triangles that reference out-of-range vertices (defensive, used
    /// after lossy geometry coding) and unused vertices.
    pub fn compact(&mut self) {
        let n = self.vertices.len() as u32;
        self.triangles
            .retain(|t| t.iter().all(|&i| i < n) && t[0] != t[1] && t[1] != t[2] && t[0] != t[2]);
        let mut used = vec![false; self.vertices.len()];
        for t in &self.triangles {
            for &i in t {
                used[i as usize] = true;
            }
        }
        let mut remap = vec![u32::MAX; self.vertices.len()];
        let mut out = Vec::with_capacity(self.vertices.len());
        for (i, v) in self.vertices.iter().enumerate() {
            if used[i] {
                remap[i] = out.len() as u32;
                out.push(*v);
            }
        }
        self.vertices = out;
        for t in &mut self.triangles {
            for i in t.iter_mut() {
                *i = remap[*i as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> Mesh {
        Mesh {
            vertices: vec![
                Vertex {
                    position: Vec3::new(0.0, 0.0, 0.0),
                    color: [255, 0, 0],
                },
                Vertex {
                    position: Vec3::new(1.0, 0.0, 0.0),
                    color: [0, 255, 0],
                },
                Vertex {
                    position: Vec3::new(1.0, 1.0, 0.0),
                    color: [0, 0, 255],
                },
                Vertex {
                    position: Vec3::new(0.0, 1.0, 0.0),
                    color: [255, 255, 0],
                },
            ],
            triangles: vec![[0, 1, 2], [0, 2, 3]],
        }
    }

    #[test]
    fn unit_quad_area_is_one() {
        assert!((quad().surface_area() - 1.0).abs() < 1e-6);
        assert!((quad().triangle_area(0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn merge_offsets_indices() {
        let mut a = quad();
        let b = quad();
        a.merge(&b);
        assert_eq!(a.vertices.len(), 8);
        assert_eq!(a.triangle_count(), 4);
        assert_eq!(a.triangles[2], [4, 5, 6]);
        assert!((a.surface_area() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn compact_drops_degenerate_and_unused() {
        let mut m = quad();
        m.triangles.push([0, 0, 1]); // degenerate
        m.triangles.push([0, 1, 99]); // out of range
        m.vertices.push(Vertex {
            position: Vec3::splat(9.0),
            color: [0; 3],
        }); // unused
        m.compact();
        assert_eq!(m.triangle_count(), 2);
        assert_eq!(m.vertices.len(), 4);
        // Geometry preserved.
        assert!((m.surface_area() - 1.0).abs() < 1e-6);
    }
}
