//! Small fixed-size matrices: 3×3 rotations and 4×4 homogeneous transforms.

use crate::vec3::Vec3;
use std::ops::Mul;

/// Row-major 3×3 matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix: `m[r][c]`.
    pub m: [[f32; 3]; 3],
}

impl Mat3 {
    #[cfg(test)]
    const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    #[inline]
    pub(crate) const fn from_rows(r0: [f32; 3], r1: [f32; 3], r2: [f32; 3]) -> Self {
        Mat3 { m: [r0, r1, r2] }
    }

    /// Build from three column vectors.
    pub(crate) fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Mat3 {
            m: [[c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z]],
        }
    }

    #[inline]
    pub(crate) fn row(&self, r: usize) -> Vec3 {
        Vec3::from_array(self.m[r])
    }

    #[inline]
    pub(crate) fn col(&self, c: usize) -> Vec3 {
        Vec3::new(self.m[0][c], self.m[1][c], self.m[2][c])
    }

    pub(crate) fn transpose(&self) -> Mat3 {
        let mut t = [[0.0f32; 3]; 3];
        for (r, row) in self.m.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                t[c][r] = *v;
            }
        }
        Mat3 { m: t }
    }

    #[inline]
    pub(crate) fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, o: Mat3) -> Mat3 {
        let mut out = [[0.0f32; 3]; 3];
        for (r, orow) in out.iter_mut().enumerate() {
            for (c, cell) in orow.iter_mut().enumerate() {
                *cell = self.row(r).dot(o.col(c));
            }
        }
        Mat3 { m: out }
    }
}

/// Row-major 4×4 homogeneous transform.
///
/// Used for camera extrinsics (local→world and world→local). The bottom row
/// is `[0 0 0 1]` for all rigid transforms built by this crate, but general
/// 4×4 contents are supported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    pub m: [[f32; 4]; 4],
}

impl Mat4 {
    /// Rigid transform from a rotation and a translation.
    pub(crate) fn from_rotation_translation(rot: Mat3, t: Vec3) -> Mat4 {
        let r = &rot.m;
        Mat4 {
            m: [
                [r[0][0], r[0][1], r[0][2], t.x],
                [r[1][0], r[1][1], r[1][2], t.y],
                [r[2][0], r[2][1], r[2][2], t.z],
                [0.0, 0.0, 0.0, 1.0],
            ],
        }
    }

    #[cfg(test)]
    fn from_translation(t: Vec3) -> Mat4 {
        Mat4::from_rotation_translation(Mat3::IDENTITY, t)
    }

    /// Extract the upper-left 3×3 block.
    pub(crate) fn rotation(&self) -> Mat3 {
        let m = &self.m;
        Mat3::from_rows(
            [m[0][0], m[0][1], m[0][2]],
            [m[1][0], m[1][1], m[1][2]],
            [m[2][0], m[2][1], m[2][2]],
        )
    }

    /// Extract the translation column.
    pub(crate) fn translation(&self) -> Vec3 {
        Vec3::new(self.m[0][3], self.m[1][3], self.m[2][3])
    }

    /// Transform a point (w = 1).
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let m = &self.m;
        Vec3::new(
            m[0][0] * p.x + m[0][1] * p.y + m[0][2] * p.z + m[0][3],
            m[1][0] * p.x + m[1][1] * p.y + m[1][2] * p.z + m[1][3],
            m[2][0] * p.x + m[2][1] * p.y + m[2][2] * p.z + m[2][3],
        )
    }

    /// Transform a direction (w = 0): rotation only.
    #[inline]
    pub(crate) fn transform_dir(&self, d: Vec3) -> Vec3 {
        let m = &self.m;
        Vec3::new(
            m[0][0] * d.x + m[0][1] * d.y + m[0][2] * d.z,
            m[1][0] * d.x + m[1][1] * d.y + m[1][2] * d.z,
            m[2][0] * d.x + m[2][1] * d.y + m[2][2] * d.z,
        )
    }

    /// Fast inverse for rigid transforms (orthonormal rotation + translation):
    /// `R⁻¹ = Rᵀ`, `t⁻¹ = -Rᵀ t`.
    pub fn rigid_inverse(&self) -> Mat4 {
        let rt = self.rotation().transpose();
        let t = self.translation();
        let nt = rt.mul_vec(t) * -1.0;
        Mat4::from_rotation_translation(rt, nt)
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, o: Mat4) -> Mat4 {
        let mut out = [[0.0f32; 4]; 4];
        for (r, outrow) in out.iter_mut().enumerate() {
            for (c, cell) in outrow.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (k, orow) in o.m.iter().enumerate() {
                    acc += self.m[r][k] * orow[c];
                }
                *cell = acc;
            }
        }
        Mat4 { m: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quat::Quat;

    fn approx(a: Vec3, b: Vec3, eps: f32) -> bool {
        (a - b).length() < eps
    }

    #[test]
    fn mat3_identity_mul() {
        let r = Quat::from_axis_angle(Vec3::Y, 0.7).to_mat3();
        let p = r * Mat3::IDENTITY;
        for i in 0..3 {
            for j in 0..3 {
                assert!((p.m[i][j] - r.m[i][j]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn mat4_transform_point_translates() {
        let t = Mat4::from_translation(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(t.transform_point(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0));
        // directions are unaffected by translation
        assert_eq!(t.transform_dir(Vec3::X), Vec3::X);
    }

    #[test]
    fn mat4_rigid_inverse_round_trip() {
        let rot = Quat::from_axis_angle(Vec3::new(0.3, 1.0, -0.2).normalized(), 0.9).to_mat3();
        let xf = Mat4::from_rotation_translation(rot, Vec3::new(0.5, -1.0, 2.0));
        let inv = xf.rigid_inverse();
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert!(approx(inv.transform_point(xf.transform_point(p)), p, 1e-4));
        // composition with inverse is identity
        let id = xf * inv;
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((id.m[i][j] - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn mat4_mul_applies_right_to_left() {
        let a = Mat4::from_translation(Vec3::X);
        let rot = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2).to_mat3();
        let b = Mat4::from_rotation_translation(rot, Vec3::ZERO);
        // (a*b) p == a (b p)
        let p = Vec3::new(1.0, 0.0, 0.0);
        let lhs = (a * b).transform_point(p);
        let rhs = a.transform_point(b.transform_point(p));
        assert!(approx(lhs, rhs, 1e-5));
    }

    #[test]
    fn mat3_rows_and_cols() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(m.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.col(2), Vec3::new(3.0, 6.0, 9.0));
        let mc = Mat3::from_cols(m.col(0), m.col(1), m.col(2));
        assert_eq!(m, mc);
    }
}
