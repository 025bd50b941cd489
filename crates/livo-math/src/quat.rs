//! Unit quaternions for orientation.

use crate::angles;
use crate::mat::Mat3;
use crate::vec3::Vec3;
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`. Orientations are represented by *unit*
/// quaternions; constructors in this crate always normalise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    pub w: f32,
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    pub(crate) fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Quat { w, x, y, z }.normalized()
    }

    /// Rotation of `angle` radians about `axis` (need not be unit length).
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let axis = axis.normalized();
        let (s, c) = (angle * 0.5).sin_cos();
        Quat {
            w: c,
            x: axis.x * s,
            y: axis.y * s,
            z: axis.z * s,
        }
    }

    /// Intrinsic yaw (about +Y), pitch (about +X), roll (about +Z) — the
    /// convention headset SDKs report, and the one LiVo's Kalman filter
    /// predicts in.
    pub fn from_yaw_pitch_roll(yaw: f32, pitch: f32, roll: f32) -> Self {
        let qy = Quat::from_axis_angle(Vec3::Y, yaw);
        let qx = Quat::from_axis_angle(Vec3::X, pitch);
        let qz = Quat::from_axis_angle(Vec3::Z, roll);
        qy * qx * qz
    }

    /// Recover `(yaw, pitch, roll)` matching [`Quat::from_yaw_pitch_roll`].
    pub fn to_yaw_pitch_roll(self) -> (f32, f32, f32) {
        let m = self.to_mat3().m;
        // R = Ry(yaw) * Rx(pitch) * Rz(roll)
        // m[1][2] = -sin(pitch)
        let pitch = (-m[1][2]).clamp(-1.0, 1.0).asin();
        if pitch.abs() > std::f32::consts::FRAC_PI_2 - 1e-4 {
            // Gimbal lock: fold roll into yaw.
            let yaw = m[0][1].atan2(m[0][0]);
            (yaw, pitch, 0.0)
        } else {
            let yaw = m[0][2].atan2(m[2][2]);
            let roll = m[1][0].atan2(m[1][1]);
            (yaw, pitch, roll)
        }
    }

    pub(crate) fn normalized(self) -> Quat {
        let n = (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt();
        if n <= f32::EPSILON {
            Quat::IDENTITY
        } else {
            Quat {
                w: self.w / n,
                x: self.x / n,
                y: self.y / n,
                z: self.z / n,
            }
        }
    }

    pub fn conjugate(self) -> Quat {
        Quat {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }

    /// Rotate a vector by this quaternion.
    #[inline]
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 * q_vec × (q_vec × v + w v)
        let qv = Vec3::new(self.x, self.y, self.z);
        let t = qv.cross(v) * 2.0;
        v + t * self.w + qv.cross(t)
    }

    /// Convert to a rotation matrix.
    pub(crate) fn to_mat3(self) -> Mat3 {
        let Quat { w, x, y, z } = self;
        Mat3::from_rows(
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        )
    }

    /// Spherical linear interpolation; `self` at `t = 0`, `o` at `t = 1`.
    /// Takes the shorter arc.
    pub fn slerp(self, mut o: Quat, t: f32) -> Quat {
        let mut dot = self.w * o.w + self.x * o.x + self.y * o.y + self.z * o.z;
        if dot < 0.0 {
            o = Quat {
                w: -o.w,
                x: -o.x,
                y: -o.y,
                z: -o.z,
            };
            dot = -dot;
        }
        if dot > 0.9995 {
            // Nearly parallel: lerp then renormalise.
            return Quat {
                w: self.w + (o.w - self.w) * t,
                x: self.x + (o.x - self.x) * t,
                y: self.y + (o.y - self.y) * t,
                z: self.z + (o.z - self.z) * t,
            }
            .normalized();
        }
        let theta = dot.clamp(-1.0, 1.0).acos();
        let sin_theta = theta.sin();
        let a = ((1.0 - t) * theta).sin() / sin_theta;
        let b = (t * theta).sin() / sin_theta;
        Quat {
            w: a * self.w + b * o.w,
            x: a * self.x + b * o.x,
            y: a * self.y + b * o.y,
            z: a * self.z + b * o.z,
        }
        .normalized()
    }

    /// Angular distance in radians between two orientations.
    pub fn angle_to(self, o: Quat) -> f32 {
        let dot = (self.w * o.w + self.x * o.x + self.y * o.y + self.z * o.z).abs();
        2.0 * dot.clamp(-1.0, 1.0).acos()
    }

    /// Angular distance in degrees, wrapped to `[0, 180]`.
    pub fn angle_to_degrees(self, o: Quat) -> f32 {
        angles::to_degrees(self.angle_to(o))
    }
}

impl Mul for Quat {
    type Output = Quat;
    fn mul(self, o: Quat) -> Quat {
        Quat {
            w: self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            x: self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            y: self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            z: self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    fn approx(a: Vec3, b: Vec3, eps: f32) -> bool {
        (a - b).length() < eps
    }

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Quat::IDENTITY.rotate(v), v);
    }

    #[test]
    fn axis_angle_quarter_turn() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!(approx(q.rotate(Vec3::X), Vec3::Y, 1e-5));
    }

    #[test]
    fn rotate_matches_matrix() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.3).normalized(), 0.77);
        let m = q.to_mat3();
        let v = Vec3::new(-0.4, 2.0, 1.5);
        assert!(approx(q.rotate(v), m.mul_vec(v), 1e-5));
    }

    #[test]
    fn conjugate_inverts_rotation() {
        let q = Quat::from_axis_angle(Vec3::Y, 1.2);
        let v = Vec3::new(3.0, -1.0, 0.5);
        assert!(approx(q.conjugate().rotate(q.rotate(v)), v, 1e-5));
    }

    #[test]
    fn mul_composes_rotations() {
        let a = Quat::from_axis_angle(Vec3::X, 0.3);
        let b = Quat::from_axis_angle(Vec3::Y, 0.8);
        let v = Vec3::new(0.1, 0.2, 0.9);
        assert!(approx((a * b).rotate(v), a.rotate(b.rotate(v)), 1e-5));
    }

    #[test]
    fn yaw_pitch_roll_round_trip() {
        let cases = [
            (0.3f32, 0.2f32, -0.4f32),
            (-1.0, 0.5, 0.1),
            (2.0, -0.9, 0.7),
            (0.0, 0.0, 0.0),
        ];
        for (yaw, pitch, roll) in cases {
            let q = Quat::from_yaw_pitch_roll(yaw, pitch, roll);
            let (y2, p2, r2) = q.to_yaw_pitch_roll();
            let q2 = Quat::from_yaw_pitch_roll(y2, p2, r2);
            // Compare rotations, not raw angles (angle representation is
            // not unique). Tolerance is loose because acos near 1 is
            // ill-conditioned in f32.
            assert!(q.angle_to(q2) < 1e-2, "case ({yaw},{pitch},{roll})");
        }
    }

    #[test]
    fn slerp_endpoints() {
        let a = Quat::from_axis_angle(Vec3::Y, 0.2);
        let b = Quat::from_axis_angle(Vec3::Y, 1.4);
        assert!(a.slerp(b, 0.0).angle_to(a) < 1e-4);
        assert!(a.slerp(b, 1.0).angle_to(b) < 1e-4);
    }

    #[test]
    fn slerp_halfway_is_half_angle() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Y, 1.0);
        let mid = a.slerp(b, 0.5);
        assert!((mid.angle_to(a) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn angle_to_self_is_zero() {
        let q = Quat::from_axis_angle(Vec3::X, 0.9);
        assert!(q.angle_to(q) < 1e-4);
    }

    #[test]
    fn angle_to_handles_double_cover() {
        let q = Quat::from_axis_angle(Vec3::Y, 0.4);
        let nq = Quat {
            w: -q.w,
            x: -q.x,
            y: -q.y,
            z: -q.z,
        };
        // q and -q are the same rotation
        assert!(q.angle_to(nq) < 1e-3);
    }

    #[test]
    fn half_turn_angle() {
        let q = Quat::from_axis_angle(Vec3::Z, PI);
        assert!((q.angle_to(Quat::IDENTITY) - PI).abs() < 1e-4);
    }
}
