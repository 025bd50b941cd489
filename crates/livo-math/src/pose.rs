//! 6-DoF rigid poses.

use crate::mat::Mat4;
use crate::quat::Quat;
use crate::vec3::Vec3;

/// A 6-DoF pose: position plus orientation.
///
/// Used for camera extrinsics (the pose of a camera in the world) and for
/// headset poses in user traces. The convention is *local-to-world*: a pose
/// maps points in the local frame of the posed object into world coordinates.
///
/// The camera/headset local frame is right-handed with `+Z` pointing *forward*
/// (into the scene), `+X` right and `+Y` up.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    pub position: Vec3,
    pub orientation: Quat,
}

impl Pose {
    pub const IDENTITY: Pose = Pose {
        position: Vec3::ZERO,
        orientation: Quat {
            w: 1.0,
            x: 0.0,
            y: 0.0,
            z: 0.0,
        },
    };

    pub fn new(position: Vec3, orientation: Quat) -> Self {
        Pose {
            position,
            orientation,
        }
    }

    /// A pose at `eye` looking toward `target`, with `up` as the approximate
    /// up direction. This is the standard "look-at" construction used to aim
    /// both capture cameras and synthetic viewers.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let fwd = (target - eye).normalized();
        let right = up.cross(fwd).normalized();
        // Degenerate when fwd ∥ up; fall back to world X.
        let right = if right.length_squared() < 1e-8 {
            Vec3::X
        } else {
            right
        };
        let true_up = fwd.cross(right).normalized();
        // Columns are the local axes expressed in world coordinates.
        let m = crate::mat::Mat3::from_cols(right, true_up, fwd);
        Pose {
            position: eye,
            orientation: mat3_to_quat(&m),
        }
    }

    /// Forward (+Z of the local frame) in world coordinates.
    pub fn forward(&self) -> Vec3 {
        self.orientation.rotate(Vec3::Z)
    }

    /// Right (+X of the local frame) in world coordinates.
    pub fn right(&self) -> Vec3 {
        self.orientation.rotate(Vec3::X)
    }

    /// Up (+Y of the local frame) in world coordinates.
    pub fn up(&self) -> Vec3 {
        self.orientation.rotate(Vec3::Y)
    }

    /// Local-to-world homogeneous matrix.
    pub fn to_mat4(&self) -> Mat4 {
        Mat4::from_rotation_translation(self.orientation.to_mat3(), self.position)
    }

    /// World-to-local homogeneous matrix.
    pub fn world_to_local(&self) -> Mat4 {
        self.to_mat4().rigid_inverse()
    }

    /// Map a point from this pose's local frame into world coordinates.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.orientation.rotate(p) + self.position
    }

    /// Map a world point into this pose's local frame.
    pub fn inverse_transform_point(&self, p: Vec3) -> Vec3 {
        self.orientation.conjugate().rotate(p - self.position)
    }

    /// Interpolate between two poses (lerp position, slerp orientation).
    pub fn interpolate(&self, o: &Pose, t: f32) -> Pose {
        Pose {
            position: self.position.lerp(o.position, t),
            orientation: self.orientation.slerp(o.orientation, t),
        }
    }

    /// Positional distance in metres plus angular distance in degrees.
    pub fn error_to(&self, o: &Pose) -> (f32, f32) {
        (
            self.position.distance(o.position),
            self.orientation.angle_to_degrees(o.orientation),
        )
    }
}

/// Convert an orthonormal rotation matrix to a quaternion (Shepperd's method).
fn mat3_to_quat(m: &crate::mat::Mat3) -> Quat {
    let m = &m.m;
    let trace = m[0][0] + m[1][1] + m[2][2];
    if trace > 0.0 {
        let s = (trace + 1.0).sqrt() * 2.0;
        Quat::new(
            0.25 * s,
            (m[2][1] - m[1][2]) / s,
            (m[0][2] - m[2][0]) / s,
            (m[1][0] - m[0][1]) / s,
        )
    } else if m[0][0] > m[1][1] && m[0][0] > m[2][2] {
        let s = (1.0 + m[0][0] - m[1][1] - m[2][2]).sqrt() * 2.0;
        Quat::new(
            (m[2][1] - m[1][2]) / s,
            0.25 * s,
            (m[0][1] + m[1][0]) / s,
            (m[0][2] + m[2][0]) / s,
        )
    } else if m[1][1] > m[2][2] {
        let s = (1.0 + m[1][1] - m[0][0] - m[2][2]).sqrt() * 2.0;
        Quat::new(
            (m[0][2] - m[2][0]) / s,
            (m[0][1] + m[1][0]) / s,
            0.25 * s,
            (m[1][2] + m[2][1]) / s,
        )
    } else {
        let s = (1.0 + m[2][2] - m[0][0] - m[1][1]).sqrt() * 2.0;
        Quat::new(
            (m[1][0] - m[0][1]) / s,
            (m[0][2] + m[2][0]) / s,
            (m[1][2] + m[2][1]) / s,
            0.25 * s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: Vec3, b: Vec3, eps: f32) -> bool {
        (a - b).length() < eps
    }

    #[test]
    fn identity_pose_is_noop() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Pose::IDENTITY.transform_point(p), p);
        assert_eq!(Pose::IDENTITY.inverse_transform_point(p), p);
    }

    #[test]
    fn transform_round_trip() {
        let pose = Pose::new(
            Vec3::new(1.0, -0.5, 2.0),
            Quat::from_axis_angle(Vec3::new(0.2, 1.0, 0.1).normalized(), 0.8),
        );
        let p = Vec3::new(0.3, 0.7, -1.1);
        let w = pose.transform_point(p);
        assert!(approx(pose.inverse_transform_point(w), p, 1e-5));
    }

    #[test]
    fn matrix_matches_quaternion_transform() {
        let pose = Pose::new(
            Vec3::new(-2.0, 0.4, 1.0),
            Quat::from_axis_angle(Vec3::Y, 1.3),
        );
        let p = Vec3::new(0.5, 0.5, 0.5);
        assert!(approx(
            pose.to_mat4().transform_point(p),
            pose.transform_point(p),
            1e-5
        ));
        assert!(approx(
            pose.world_to_local()
                .transform_point(pose.transform_point(p)),
            p,
            1e-4
        ));
    }

    #[test]
    fn look_at_faces_target() {
        let eye = Vec3::new(0.0, 1.0, -3.0);
        let target = Vec3::new(0.0, 1.0, 0.0);
        let pose = Pose::look_at(eye, target, Vec3::Y);
        let fwd = pose.forward();
        assert!(approx(fwd, (target - eye).normalized(), 1e-4));
        // Up should stay close to world up for a level look-at.
        assert!(pose.up().dot(Vec3::Y) > 0.99);
    }

    #[test]
    fn look_at_orthonormal_axes() {
        let pose = Pose::look_at(Vec3::new(2.0, 1.5, 2.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
        let (r, u, f) = (pose.right(), pose.up(), pose.forward());
        assert!(r.dot(u).abs() < 1e-4);
        assert!(r.dot(f).abs() < 1e-4);
        assert!(u.dot(f).abs() < 1e-4);
        assert!((r.length() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn interpolate_endpoints() {
        let a = Pose::new(Vec3::ZERO, Quat::IDENTITY);
        let b = Pose::new(
            Vec3::new(2.0, 0.0, 0.0),
            Quat::from_axis_angle(Vec3::Y, 1.0),
        );
        let at0 = a.interpolate(&b, 0.0);
        let at1 = a.interpolate(&b, 1.0);
        assert!(approx(at0.position, a.position, 1e-5));
        assert!(approx(at1.position, b.position, 1e-5));
        assert!(at1.orientation.angle_to(b.orientation) < 1e-4);
    }

    #[test]
    fn error_to_reports_metres_and_degrees() {
        let a = Pose::IDENTITY;
        let b = Pose::new(
            Vec3::new(0.0, 3.0, 4.0),
            Quat::from_axis_angle(Vec3::Y, std::f32::consts::FRAC_PI_2),
        );
        let (pos_err, ang_err) = a.error_to(&b);
        assert!((pos_err - 5.0).abs() < 1e-4);
        assert!((ang_err - 90.0).abs() < 0.1);
    }
}
