//! The point cloud frame representation.

use livo_math::{Frustum, Vec3};

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
    pub(crate) fn luma(&self) -> f32 {
        0.299 * self.color[0] as f32 + 0.587 * self.color[1] as f32 + 0.114 * self.color[2] as f32
    }
}

/// A point-cloud frame.
///
/// One of these per inter-frame interval (1/30 s), fused from the `N`
/// RGB-D cameras of a capture rig. Uncompressed, a point is 15 bytes —
/// its position as 3×f32 plus 3 colour bytes — which matches the
/// ~10 MB/frame full-scene sizes the paper reports (Table 3).
#[derive(Debug, Clone, Default)]
pub struct PointCloud {
    pub points: Vec<Point>,
}

impl PointCloud {
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        PointCloud {
            points: Vec::with_capacity(n),
        }
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
    fn bounds_cover_all_points() {
        let pc = cube_cloud(5, 2.0);
        let (lo, hi) = pc.bounds().unwrap();
        assert!((lo - Vec3::splat(-1.0)).length() < 1e-5);
        assert!((hi - Vec3::splat(1.0)).length() < 1e-5);
        assert!(PointCloud::new().bounds().is_none());
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
