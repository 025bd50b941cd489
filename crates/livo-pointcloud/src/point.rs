//! The point cloud frame representation.

use livo_math::{Frustum, Mat4, Vec3};

/// One point: a 3D position (metres, world frame) and an sRGB colour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub position: Vec3,
    pub color: [u8; 3],
}

impl Point {
    #[inline]
    pub fn new(position: Vec3, color: [u8; 3]) -> Self {
        Point { position, color }
    }

    /// Rec. 601 luma of the point colour, 0–255.
    pub fn luma(&self) -> f32 {
        0.299 * self.color[0] as f32 + 0.587 * self.color[1] as f32 + 0.114 * self.color[2] as f32
    }
}

/// A point-cloud frame.
///
/// One of these per inter-frame interval (1/30 s), fused from the `N`
/// RGB-D cameras of a capture rig. Uncompressed wire size is
/// [`PointCloud::byte_size`] — positions as 3×f32 plus 3 colour bytes,
/// matching the ~10 MB/frame full-scene sizes the paper reports (Table 3).
#[derive(Debug, Clone, Default)]
pub struct PointCloud {
    pub points: Vec<Point>,
}

/// Uncompressed bytes per point: 12 position + 3 colour.
pub const BYTES_PER_POINT: usize = 15;

impl PointCloud {
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        PointCloud {
            points: Vec::with_capacity(n),
        }
    }

    pub fn from_points(points: Vec<Point>) -> Self {
        PointCloud { points }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    #[inline]
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Uncompressed size in bytes (the "frame size" of Table 3).
    pub fn byte_size(&self) -> usize {
        self.points.len() * BYTES_PER_POINT
    }

    /// Axis-aligned bounding box, `None` when empty.
    pub fn bounds(&self) -> Option<(Vec3, Vec3)> {
        let first = self.points.first()?.position;
        let mut lo = first;
        let mut hi = first;
        for p in &self.points {
            lo = lo.min(p.position);
            hi = hi.max(p.position);
        }
        Some((lo, hi))
    }

    /// Centroid of the positions, `None` when empty.
    pub fn centroid(&self) -> Option<Vec3> {
        if self.points.is_empty() {
            return None;
        }
        let sum = self
            .points
            .iter()
            .fold(Vec3::ZERO, |acc, p| acc + p.position);
        Some(sum / self.points.len() as f32)
    }

    /// Apply a rigid transform to every point in place.
    pub fn transform(&mut self, xf: &Mat4) {
        for p in &mut self.points {
            p.position = xf.transform_point(p.position);
        }
    }

    /// Append all points of `other`.
    pub fn merge(&mut self, other: &PointCloud) {
        self.points.extend_from_slice(&other.points);
    }

    /// Keep only points inside the frustum (the receiver-side final cull of
    /// §A.1; the sender-side cull operates on RGB-D images instead).
    pub fn cull_to_frustum(&self, frustum: &Frustum) -> PointCloud {
        PointCloud {
            points: self
                .points
                .iter()
                .copied()
                .filter(|p| frustum.contains(p.position))
                .collect(),
        }
    }
}

impl FromIterator<Point> for PointCloud {
    fn from_iter<T: IntoIterator<Item = Point>>(iter: T) -> Self {
        PointCloud {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::{FrustumParams, Pose, Quat};

    fn cube_cloud(n_per_axis: usize, size: f32) -> PointCloud {
        let mut pc = PointCloud::new();
        for i in 0..n_per_axis {
            for j in 0..n_per_axis {
                for k in 0..n_per_axis {
                    let f = |v: usize| (v as f32 / (n_per_axis - 1) as f32 - 0.5) * size;
                    pc.push(Point::new(
                        Vec3::new(f(i), f(j), f(k)),
                        [i as u8, j as u8, k as u8],
                    ));
                }
            }
        }
        pc
    }

    #[test]
    fn byte_size_matches_layout() {
        let pc = cube_cloud(4, 1.0);
        assert_eq!(pc.byte_size(), 64 * 15);
    }

    #[test]
    fn bounds_cover_all_points() {
        let pc = cube_cloud(5, 2.0);
        let (lo, hi) = pc.bounds().unwrap();
        assert!((lo - Vec3::splat(-1.0)).length() < 1e-5);
        assert!((hi - Vec3::splat(1.0)).length() < 1e-5);
        assert!(PointCloud::new().bounds().is_none());
    }

    #[test]
    fn centroid_of_symmetric_cloud_is_origin() {
        let pc = cube_cloud(4, 2.0);
        assert!(pc.centroid().unwrap().length() < 1e-5);
    }

    #[test]
    fn transform_shifts_centroid() {
        let mut pc = cube_cloud(3, 1.0);
        let t = Vec3::new(1.0, 2.0, 3.0);
        pc.transform(&Mat4::from_translation(t));
        assert!((pc.centroid().unwrap() - t).length() < 1e-5);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = cube_cloud(2, 1.0);
        let b = cube_cloud(3, 1.0);
        let total = a.len() + b.len();
        a.merge(&b);
        assert_eq!(a.len(), total);
    }

    #[test]
    fn cull_keeps_only_visible() {
        // Viewer at -5 on z looking at origin; cube spans ±1.
        let pc = cube_cloud(5, 2.0);
        let pose = Pose::new(Vec3::new(0.0, 0.0, -5.0), Quat::IDENTITY);
        let f = livo_math::Frustum::from_params(
            &pose,
            &FrustumParams {
                hfov: 1.2,
                aspect: 1.0,
                near: 0.1,
                far: 20.0,
            },
        );
        let culled = pc.cull_to_frustum(&f);
        assert_eq!(culled.len(), pc.len(), "whole cube visible");

        // Narrow frustum looking away sees nothing.
        let away = Pose::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::new(0.0, 0.0, -10.0),
            Vec3::Y,
        );
        let f2 = livo_math::Frustum::from_params(
            &away,
            &FrustumParams {
                hfov: 0.5,
                aspect: 1.0,
                near: 0.1,
                far: 20.0,
            },
        );
        assert_eq!(pc.cull_to_frustum(&f2).len(), 0);
    }

    #[test]
    fn luma_weights_sum_to_unity() {
        let white = Point::new(Vec3::ZERO, [255, 255, 255]);
        assert!((white.luma() - 255.0).abs() < 0.1);
        let black = Point::new(Vec3::ZERO, [0, 0, 0]);
        assert_eq!(black.luma(), 0.0);
    }

    #[test]
    fn from_iterator_collects() {
        let pc: PointCloud = (0..10)
            .map(|i| Point::new(Vec3::new(i as f32, 0.0, 0.0), [0; 3]))
            .collect();
        assert_eq!(pc.len(), 10);
    }
}
