//! Geometry and estimation substrate for the LiVo volumetric-video stack.
//!
//! This crate provides the math LiVo's pipeline is built on:
//!
//! - [`Vec3`], [`Mat3`], [`Mat4`], [`Quat`]: small fixed-size linear algebra,
//!   the subset of Eigen the original C++ implementation used.
//! - [`Pose`]: a 6-DoF rigid transform (position + orientation) used both for
//!   camera extrinsics and for headset poses in user traces.
//! - [`CameraIntrinsics`] / [`RgbdCamera`]: the pinhole model used to
//!   back-project RGB-D pixels into 3D and to build per-camera frusta.
//! - [`Plane`] / [`Frustum`]: the six-plane truncated pyramid used by LiVo's
//!   view culling (§3.4 of the paper).
//! - [`kalman`]: the 6-DoF constant-velocity pose predictor LiVo uses for
//!   frustum prediction — six independent 2-state Kalman filters, one per
//!   pose dimension.
//! - [`rng`]: the workspace's seeded generator, [`rng::SplitMix64`], and the
//!   seeded-case runner its property tests use.
//!
//! All scene-space quantities are in **metres**; depth images elsewhere in the
//! workspace use millimetres (matching Kinect-class sensors) and convert at
//! the boundary.

pub mod angles;
pub mod camera;
pub mod frustum;
pub mod kalman;
pub mod mat;
pub mod plane;
pub mod pose;
pub mod quat;
pub mod raytable;
pub mod rng;
pub mod simd;
pub mod vec3;

pub use camera::{CameraIntrinsics, RgbdCamera};
pub use frustum::{Frustum, FrustumParams};
pub use kalman::PosePredictor;
pub use mat::{Mat3, Mat4};
pub use plane::Plane;
pub use pose::Pose;
pub use quat::Quat;
pub use raytable::RayTable;
pub use vec3::Vec3;

/// Pixels per chunk of the pixel path's row loops (image → canvas → cloud):
/// eight `f32` lanes, two SSE registers.
pub const LANES: usize = 8;

/// `x.round().clamp(0.0, peak as f32) as u16` for every `f32`, NaN (→ 0)
/// included, without the call into libm that `f32::round` is on baseline
/// x86-64: clamp, truncate, then add one when the fraction — exactly
/// representable below 2²³ — is at least ½. Each step is a lane operation
/// SSE2 has, so a loop over a row of these vectorises.
#[inline]
pub fn round_clamp(x: f32, peak: u16) -> u16 {
    let hi = peak as f32;
    // Written as selects so that NaN takes the constant arm.
    let c = if x > 0.0 { x } else { 0.0 };
    let c = if c < hi { c } else { hi };
    // SAFETY: `c` is finite and in [0, 65 535], which `i32` holds.
    let t = unsafe { c.to_int_unchecked::<i32>() };
    (t + (c - t as f32 >= 0.5) as i32) as u16
}

/// `v.floor() as i32` (saturating, NaN to 0) without the call into libm:
/// truncate, then step down once if that rounded a negative value up.
#[inline]
pub fn floor_to_i32(v: f32) -> i32 {
    if v.abs() < 2_147_483_648.0 {
        // SAFETY: |v| < 2³¹ and not NaN, so its truncation is an `i32`.
        // (The checked cast costs twice this whole function.)
        let t = unsafe { v.to_int_unchecked::<i32>() };
        // |t| < 2³¹ too, so stepping down cannot overflow.
        t - (t as f32 > v) as i32
    } else {
        v as i32
    }
}

#[cfg(test)]
mod tests {
    use super::{floor_to_i32, round_clamp};

    fn libm(x: f32, peak: u16) -> u16 {
        x.round().clamp(0.0, peak as f32) as u16
    }

    #[test]
    fn round_clamp_is_round_then_clamp_at_the_edges() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.499_999_97,
            0.5,
            1.5,
            2.5,
            254.5,
            255.499_98,
            65_534.5,
            65_535.0,
            65_535.5,
            8_388_607.5,
            -0.4,
            -0.5,
            -1.7,
            3e9,
            -3e9,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Every half-integer of the coded range from both sides.
        for k in 0..=65_536u32 {
            let h = k as f32 + 0.5;
            cases.extend([
                h,
                f32::from_bits(h.to_bits() - 1),
                f32::from_bits(h.to_bits() + 1),
            ]);
        }
        for x in cases {
            for peak in [1, 255, 6000, u16::MAX] {
                assert_eq!(round_clamp(x, peak), libm(x, peak), "{x:?} peak {peak}");
            }
        }
    }

    #[test]
    fn round_clamp_is_round_then_clamp_on_a_stride_of_all_bit_patterns() {
        // Every 4 099th `f32` (a prime stride, so every exponent and both
        // signs are met): about a million values.
        for bits in (0..=u32::MAX).step_by(4_099) {
            let x = f32::from_bits(bits);
            assert_eq!(round_clamp(x, 255), libm(x, 255), "{x:?}");
            assert_eq!(round_clamp(x, u16::MAX), libm(x, u16::MAX), "{x:?}");
        }
    }

    #[test]
    fn floor_to_i32_is_floor_then_cast() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            1.0,
            -1e-30,
            16_777_216.0,
            -16_777_217.0,
            2_147_483_520.0,
            -2_147_483_648.0,
            3e9,
            -3e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Every integer boundary of a room-sized grid, from both sides.
        for k in -2000..2000 {
            let b = k as f32 * 0.25;
            cases.extend([
                b,
                f32::from_bits(b.to_bits() + 1),
                f32::from_bits(b.to_bits().wrapping_sub(1)),
            ]);
        }
        for v in cases {
            assert_eq!(floor_to_i32(v), v.floor() as i32, "{v:?}");
        }
    }
}
