//! Oriented planes, the building block of frusta.

use crate::mat::Mat4;
use crate::vec3::Vec3;

/// An oriented plane `n · p + d = 0` with unit normal `n`.
///
/// The signed distance of a point is positive on the side the normal points
/// to. LiVo's frustum stores its six planes with normals pointing *inward*,
/// so a point is inside when every signed distance is ≥ 0 (§3.4 of the paper
/// states the equivalent outward-normal formulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    pub normal: Vec3,
    pub d: f32,
}

impl Plane {
    /// Plane through `point` with the given `normal` (normalised here).
    pub fn from_point_normal(point: Vec3, normal: Vec3) -> Self {
        let n = normal.normalized();
        Plane {
            normal: n,
            d: -n.dot(point),
        }
    }

    /// Signed distance; positive on the normal side.
    #[inline]
    pub fn signed_distance(&self, p: Vec3) -> f32 {
        self.normal.dot(p) + self.d
    }

    /// Translate the plane along its own normal by `offset` (positive moves
    /// it in the normal direction, which *shrinks* the inside half-space).
    /// Frustum guard bands use negative offsets to grow the frustum.
    pub(crate) fn offset(&self, offset: f32) -> Plane {
        Plane {
            normal: self.normal,
            d: self.d - offset,
        }
    }

    /// Transform the plane by a rigid transform `xf` (maps plane in frame A
    /// to frame B when `xf` maps points A→B).
    pub fn transformed(&self, xf: &Mat4) -> Plane {
        // A rigid transform preserves lengths, so the normal just rotates and
        // d is recomputed from a transformed point on the plane.
        let n = xf.transform_dir(self.normal);
        let p_on = self.normal * -self.d; // closest point to origin
        let p2 = xf.transform_point(p_on);
        Plane {
            normal: n,
            d: -n.dot(p2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pose::Pose;
    use crate::quat::Quat;

    #[test]
    fn signed_distance_sign_convention() {
        let p = Plane::from_point_normal(Vec3::ZERO, Vec3::Y);
        assert!(p.signed_distance(Vec3::new(0.0, 1.0, 0.0)) > 0.0);
        assert!(p.signed_distance(Vec3::new(0.0, -1.0, 0.0)) < 0.0);
        assert!(p.signed_distance(Vec3::new(5.0, 0.0, -3.0)).abs() < 1e-6);
    }

    #[test]
    fn offset_moves_along_normal() {
        let p = Plane::from_point_normal(Vec3::ZERO, Vec3::Y);
        let up = p.offset(1.0);
        // point at y=1 is now exactly on the plane
        assert!(up.signed_distance(Vec3::new(0.0, 1.0, 0.0)).abs() < 1e-6);
        // negative offset grows the positive half-space
        let down = p.offset(-0.5);
        assert!(down.signed_distance(Vec3::new(0.0, -0.4, 0.0)) > 0.0);
    }

    #[test]
    fn transform_preserves_distances() {
        let plane = Plane::from_point_normal(Vec3::new(0.0, 0.0, 2.0), Vec3::Z);
        let pose = Pose::new(
            Vec3::new(1.0, 2.0, 3.0),
            Quat::from_axis_angle(Vec3::new(0.3, 0.7, 0.1).normalized(), 0.9),
        );
        let xf = pose.to_mat4();
        let moved = plane.transformed(&xf);
        for p in [
            Vec3::ZERO,
            Vec3::new(0.5, -1.0, 4.0),
            Vec3::new(-2.0, 0.3, 2.0),
        ] {
            let d_before = plane.signed_distance(p);
            let d_after = moved.signed_distance(xf.transform_point(p));
            assert!((d_before - d_after).abs() < 1e-4);
        }
    }
}
