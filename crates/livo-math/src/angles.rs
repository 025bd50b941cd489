//! Angle helpers: wrapping and unit conversion.
//!
//! The pose predictor works on Euler angles, which live on a circle; naive
//! subtraction across the ±π seam produces huge phantom velocities. These
//! helpers keep angle arithmetic well-defined.

use std::f32::consts::PI;

/// Wrap an angle to `(-π, π]`.
pub fn wrap(a: f32) -> f32 {
    let mut a = a % (2.0 * PI);
    if a > PI {
        a -= 2.0 * PI;
    } else if a <= -PI {
        a += 2.0 * PI;
    }
    a
}

/// Shortest signed difference `a - b`, wrapped to `(-π, π]`.
pub(crate) fn diff(a: f32, b: f32) -> f32 {
    wrap(a - b)
}

/// Unwrap `next` so it is within π of `prev` (adds/subtracts multiples of
/// 2π). Used to turn a wrapped angle time series into a continuous one the
/// Kalman filter can differentiate.
pub fn unwrap_near(prev: f32, next: f32) -> f32 {
    prev + diff(next, prev)
}

pub fn to_degrees(rad: f32) -> f32 {
    rad * 180.0 / PI
}

pub(crate) fn to_radians(deg: f32) -> f32 {
    deg * PI / 180.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_stays_in_range() {
        for k in -10..=10 {
            let a = 0.5 + k as f32 * 2.0 * PI;
            let w = wrap(a);
            assert!(w > -PI && w <= PI);
            assert!((w - 0.5).abs() < 1e-4);
        }
    }

    #[test]
    fn wrap_boundary() {
        assert!((wrap(PI) - PI).abs() < 1e-6);
        assert!((wrap(-PI) - PI).abs() < 1e-6); // -π maps to +π
        assert!(wrap(2.0 * PI).abs() < 1e-6);
    }

    #[test]
    fn diff_across_seam_is_short_way() {
        let a = PI - 0.1;
        let b = -PI + 0.1;
        assert!((diff(b, a) - 0.2).abs() < 1e-5);
        assert!((diff(a, b) + 0.2).abs() < 1e-5);
    }

    #[test]
    fn unwrap_produces_continuous_series() {
        // A series that crosses the seam twice.
        let wrapped = [3.0, 3.1, -3.1, -3.0, 3.1, 3.0];
        let mut unwrapped = vec![wrapped[0]];
        for &w in &wrapped[1..] {
            let prev = *unwrapped.last().unwrap();
            unwrapped.push(unwrap_near(prev, w));
        }
        for pair in unwrapped.windows(2) {
            assert!((pair[1] - pair[0]).abs() < 0.5, "jump in {unwrapped:?}");
        }
    }

    #[test]
    fn degree_radian_round_trip() {
        assert!((to_degrees(to_radians(123.0)) - 123.0).abs() < 1e-4);
        assert!((to_radians(180.0) - PI).abs() < 1e-6);
    }
}
