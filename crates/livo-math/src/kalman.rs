//! Kalman filtering for 6-DoF pose prediction.
//!
//! LiVo predicts the receiver's frustum `Δt` ahead by running a Kalman filter
//! over the six pose dimensions (position x/y/z and yaw/pitch/roll), following
//! Gül et al. (MM '20), with Euler-angle unwrapping so the filter never
//! differentiates across the ±π seam.
//!
//! Written as one filter, the state is `[p₀..p₅, v₀..v₅]` and every matrix in
//! it — transition F, measurement H, noises Q and R, prior P₀ — is
//! block-diagonal per dimension: the 12-state filter *is* six independent
//! 2-state constant-velocity filters. [`PosePredictor`] runs them as such, a
//! few dozen `f64` operations per observation and no allocation, replaying
//! the dense filter's operation order so every prediction is bit-equal to it
//! (`tests/kalman_scenarios.rs` holds the dense filter as its oracle).

use crate::angles;
use crate::pose::Pose;
use crate::quat::Quat;
use crate::vec3::Vec3;

/// Configuration for [`PosePredictor`].
#[derive(Debug, Clone, Copy)]
pub struct PosePredictorConfig {
    /// Nominal sampling interval of pose observations in seconds (30 Hz
    /// headset tracking → 1/30).
    pub dt: f64,
    /// Process (acceleration) noise variance for position dims, m²/s⁴.
    pub pos_accel_var: f64,
    /// Process noise variance for angular dims, rad²/s⁴.
    pub ang_accel_var: f64,
    /// Measurement noise std-dev for position, metres.
    pub pos_meas_std: f64,
    /// Measurement noise std-dev for angles, radians.
    pub ang_meas_std: f64,
}

impl Default for PosePredictorConfig {
    fn default() -> Self {
        PosePredictorConfig {
            dt: 1.0 / 30.0,
            pos_accel_var: 4.0,
            ang_accel_var: 9.0,
            pos_meas_std: 0.003,
            ang_meas_std: 0.005,
        }
    }
}

/// One dimension's constant-velocity filter: state `(p, v)`, its covariance
/// (all four entries — rounding leaves it only nearly symmetric), the
/// white-noise-acceleration process noise and the measurement variance.
///
/// Each step is the dense filter's matrix products restricted to this
/// block, term for term in the dense summation order. A `0.0 +` is a dense
/// product's zero accumulator: it turns −0.0 into +0.0, so it stays. Terms
/// the dense products add from other blocks are ±0.0 products, which
/// change no finite sum.
#[derive(Debug, Clone, Copy)]
struct Axis {
    p: f64,
    v: f64,
    pp: f64,
    pv: f64,
    vp: f64,
    vv: f64,
    q_pp: f64,
    q_pv: f64,
    q_vv: f64,
    r: f64,
}

impl Axis {
    fn new(dt: f64, accel_var: f64, meas_std: f64) -> Self {
        let dt2 = dt * dt;
        let dt3 = dt2 * dt;
        let dt4 = dt3 * dt;
        Axis {
            p: 0.0,
            v: 0.0,
            pp: 1.0,
            pv: 0.0,
            vp: 0.0,
            vv: 1.0,
            q_pp: dt4 / 4.0 * accel_var,
            q_pv: dt3 / 2.0 * accel_var,
            q_vv: dt2 * accel_var,
            r: meas_std * meas_std,
        }
    }

    /// `x ← F x`, `P ← F P Fᵀ + Q`.
    fn time_update(&mut self, dt: f64) {
        self.p = 0.0 + self.p + dt * self.v;
        // The dense `0.0 + 1.0·v`.
        self.v += 0.0;
        // F P, then (F P) Fᵀ + Q.
        let (fp_pp, fp_pv) = (0.0 + self.pp + dt * self.vp, 0.0 + self.pv + dt * self.vv);
        let (fp_vp, fp_vv) = (0.0 + self.vp, 0.0 + self.vv);
        self.pp = 0.0 + fp_pp + fp_pv * dt + self.q_pp;
        self.pv = 0.0 + fp_pv + self.q_pv;
        self.vp = 0.0 + fp_vp + fp_vv * dt + self.q_pv;
        self.vv = 0.0 + fp_vv + self.q_vv;
    }

    /// Measurement update with the observed position `z`:
    /// `K = P Hᵀ S⁻¹`, `x ← x + K (z − H x)`, `P ← (I − K H) P`.
    fn measure(&mut self, z: f64) {
        let s_inv = 1.0 / (0.0 + self.pp + self.r);
        let k_p = 0.0 + (0.0 + self.pp) * s_inv;
        let k_v = 0.0 + (0.0 + self.vp) * s_inv;
        let y = z - (0.0 + self.p);
        self.p += 0.0 + k_p * y;
        self.v += 0.0 + k_v * y;
        let ikh_pp = 1.0 - (0.0 + k_p);
        let ikh_vp = 0.0 - (0.0 + k_v);
        let (pp, pv) = (self.pp, self.pv);
        self.pp = 0.0 + ikh_pp * pp;
        self.pv = 0.0 + ikh_pp * pv;
        self.vp += 0.0 + ikh_vp * pp;
        self.vv += 0.0 + ikh_vp * pv;
    }

    /// The state extrapolated `horizon` seconds: `p + horizon · v`.
    fn at(&self, horizon: f64) -> f64 {
        0.0 + self.p + horizon * self.v
    }
}

/// 6-DoF constant-velocity pose predictor (the paper's frustum predictor).
///
/// Feed observed headset poses with [`PosePredictor::observe`]; ask for the
/// pose `horizon` seconds past the last observation with
/// [`PosePredictor::predict`].
#[derive(Debug, Clone)]
pub struct PosePredictor {
    /// x, y, z, then yaw, pitch, roll (unwrapped).
    axes: [Axis; 6],
    cfg: PosePredictorConfig,
    /// Last unwrapped Euler angles, for seam-free measurements; `None`
    /// until the first observation.
    last_angles: Option<[f64; 3]>,
}

impl PosePredictor {
    pub fn new(cfg: PosePredictorConfig) -> Self {
        let pos = Axis::new(cfg.dt, cfg.pos_accel_var, cfg.pos_meas_std);
        let ang = Axis::new(cfg.dt, cfg.ang_accel_var, cfg.ang_meas_std);
        PosePredictor {
            axes: [pos, pos, pos, ang, ang, ang],
            cfg,
            last_angles: None,
        }
    }

    /// Observe a headset pose (one tracking sample). The pose comes from a
    /// remote client: a sample with any non-finite component is dropped, as
    /// if it had never been sent — absorbed, it would make every later
    /// prediction NaN.
    pub fn observe(&mut self, pose: &Pose) {
        let q = pose.orientation;
        let (yaw, pitch, roll) = q.to_yaw_pitch_roll();
        let mut ang = [yaw as f64, pitch as f64, roll as f64];
        if let Some(prev) = self.last_angles {
            for (a, prev) in ang.iter_mut().zip(prev) {
                *a = angles::unwrap_near(prev as f32, *a as f32) as f64;
            }
        }
        let z = [
            pose.position.x as f64,
            pose.position.y as f64,
            pose.position.z as f64,
            ang[0],
            ang[1],
            ang[2],
        ];
        if ![q.w, q.x, q.y, q.z].iter().all(|c| c.is_finite()) || !z.iter().all(|c| c.is_finite()) {
            return;
        }
        let first = self.last_angles.replace(ang).is_none();
        for (axis, z) in self.axes.iter_mut().zip(z) {
            if first {
                // Seed the state directly from the first observation.
                axis.p = z;
            } else {
                axis.time_update(self.cfg.dt);
                axis.measure(z);
            }
        }
    }

    /// Predict the pose `horizon` seconds past the last observation.
    pub fn predict(&self, horizon: f64) -> Pose {
        let x = self.axes.map(|a| a.at(horizon) as f32);
        Pose {
            position: Vec3::new(x[0], x[1], x[2]),
            orientation: Quat::from_yaw_pitch_roll(
                angles::wrap(x[3]),
                angles::wrap(x[4]),
                angles::wrap(x[5]),
            ),
        }
    }

    /// Current filtered pose (zero-horizon prediction).
    pub fn filtered(&self) -> Pose {
        self.predict(0.0)
    }

    pub fn config(&self) -> &PosePredictorConfig {
        &self.cfg
    }

    /// Whether at least one observation has been consumed.
    pub fn is_initialized(&self) -> bool {
        self.last_angles.is_some()
    }
}

#[cfg(test)]
#[path = "../tests/common/dense_kalman.rs"]
mod dense_kalman;

#[cfg(test)]
mod tests {
    use super::dense_kalman::{DMatrix, DensePosePredictor};
    use super::*;

    #[test]
    fn dmatrix_identity_mul() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DMatrix::identity(2);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
    }

    #[test]
    fn dmatrix_inverse_round_trip() {
        let a = DMatrix::from_rows(&[&[4.0, 7.0, 1.0], &[2.0, 6.0, 0.5], &[1.0, 1.0, 3.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.mul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-9, "{prod:?}");
            }
        }
    }

    #[test]
    fn dmatrix_singular_inverse_is_none() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn dmatrix_transpose_involution() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows, 3);
    }

    #[test]
    fn constant_velocity_transition_moves_position() {
        let mut a = Axis::new(0.5, 1.0, 0.1);
        (a.p, a.v) = (1.0, 10.0);
        a.time_update(0.5);
        assert_eq!((a.p, a.v), (6.0, 10.0), "velocity unchanged");
        (a.p, a.v) = (2.0, -4.0);
        assert_eq!(a.at(0.5), 0.0);
    }

    #[test]
    fn kalman_tracks_constant_velocity_1d() {
        // One axis: a constant-velocity target observed with small noise.
        let dt = 0.1;
        let mut kf = Axis::new(dt, 0.01, 0.01);
        let v_true = 2.0;
        for step in 1..=100 {
            let t = step as f64 * dt;
            kf.time_update(dt);
            kf.measure(v_true * t);
        }
        assert!((kf.v - v_true).abs() < 0.05, "estimated v = {}", kf.v);
    }

    /// The six axes carry the dense filter's state and covariance bit for
    /// bit — a stricter check than the `f32` predictions
    /// `tests/kalman_scenarios.rs` compares — and the dense covariance
    /// really is block-diagonal: every entry outside the six 2×2 blocks
    /// stays +0.0.
    #[test]
    fn axes_carry_the_dense_filter_state_bit_for_bit() {
        let cfg = PosePredictorConfig::default();
        let mut fast = PosePredictor::new(cfg);
        let mut dense = DensePosePredictor::new(cfg);
        let mut rng = crate::rng::SplitMix64::new(7);
        let (mut eye, mut yaw) = (Vec3::new(0.0, 1.6, 0.0), 3.0f32);
        for n in 0..5_000 {
            let step = if rng.gen_bool(0.02) { 3.0 } else { 0.3 };
            yaw = angles::wrap(yaw + rng.gen_range(-step..step));
            eye += Vec3::new(
                rng.gen_range(-0.05..0.05),
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.05..0.05),
            );
            let (pitch, roll) = (rng.gen_range(-1.57..1.57), rng.gen_range(-0.5..0.5));
            let pose = Pose::new(eye, Quat::from_yaw_pitch_roll(yaw, pitch, roll));
            fast.observe(&pose);
            dense.observe(&pose);
            let (x, p) = (&dense.kf.x, &dense.kf.p);
            for (d, a) in fast.axes.iter().enumerate() {
                let (i, j) = (d, d + 6);
                let want = [
                    x[(i, 0)],
                    x[(j, 0)],
                    p[(i, i)],
                    p[(i, j)],
                    p[(j, i)],
                    p[(j, j)],
                ];
                let got = [a.p, a.v, a.pp, a.pv, a.vp, a.vv];
                assert_eq!(
                    want.map(f64::to_bits),
                    got.map(f64::to_bits),
                    "sample {n}, axis {d}"
                );
            }
            for r in 0..12 {
                for c in (0..12).filter(|c| c % 6 != r % 6) {
                    assert_eq!(p[(r, c)].to_bits(), 0, "sample {n}, P[{r}, {c}]");
                }
            }
        }
    }

    #[test]
    fn nonfinite_samples_are_dropped_not_absorbed() {
        let cfg = PosePredictorConfig::default();
        let pose_at = |i: usize| {
            let t = i as f32 / 30.0;
            Pose::new(
                Vec3::new(0.5 * t, 1.6, -t),
                Quat::from_yaw_pitch_roll(0.4 * t, 0.1, 0.0),
            )
        };
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut clean = PosePredictor::new(cfg);
        let mut dirty = PosePredictor::new(cfg);
        for i in 0..60 {
            if i % 7 == 3 {
                let c = bad[i % 3];
                let mut p = pose_at(i);
                match i % 4 {
                    0 => p.position.x = c,
                    1 => p.position.z = c,
                    2 => p.orientation.w = c,
                    _ => p.orientation.y = c,
                }
                dirty.observe(&p);
            }
            clean.observe(&pose_at(i));
            dirty.observe(&pose_at(i));
            for h in [0.0, 0.05, 0.137] {
                let (a, b) = (clean.predict(h), dirty.predict(h));
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "sample {i}, horizon {h}"
                );
                assert!(b.position.is_finite());
            }
        }
        // A non-finite first sample does not initialise the filter either.
        let mut p = PosePredictor::new(cfg);
        p.observe(&Pose::new(Vec3::new(f32::NAN, 0.0, 0.0), Quat::IDENTITY));
        assert!(!p.is_initialized());
    }

    #[test]
    fn pose_predictor_initializes_from_first_observation() {
        let mut p = PosePredictor::new(PosePredictorConfig::default());
        assert!(!p.is_initialized());
        let pose = Pose::new(
            Vec3::new(1.0, 2.0, 3.0),
            Quat::from_axis_angle(Vec3::Y, 0.4),
        );
        p.observe(&pose);
        assert!(p.is_initialized());
        let (pos_err, ang_err) = p.filtered().error_to(&pose);
        assert!(pos_err < 1e-4);
        assert!(ang_err < 0.5);
    }

    #[test]
    fn pose_predictor_extrapolates_linear_motion() {
        let cfg = PosePredictorConfig::default();
        let mut p = PosePredictor::new(cfg);
        // Walk along +X at 1 m/s while turning at 0.5 rad/s.
        let dt = cfg.dt as f32;
        for step in 0..60 {
            let t = step as f32 * dt;
            let pose = Pose::new(
                Vec3::new(t, 1.6, 0.0),
                Quat::from_yaw_pitch_roll(0.5 * t, 0.0, 0.0),
            );
            p.observe(&pose);
        }
        let horizon = 0.1; // 100 ms one-way delay
        let t_pred = 59.0 * dt + horizon as f32;
        let truth = Pose::new(
            Vec3::new(t_pred, 1.6, 0.0),
            Quat::from_yaw_pitch_roll(0.5 * t_pred, 0.0, 0.0),
        );
        let (pos_err, ang_err) = p.predict(horizon).error_to(&truth);
        assert!(pos_err < 0.02, "position error {pos_err}");
        assert!(ang_err < 2.0, "angle error {ang_err}°");
    }

    #[test]
    fn pose_predictor_handles_yaw_seam() {
        // Rotate through the ±π seam; prediction must not explode.
        let cfg = PosePredictorConfig::default();
        let mut p = PosePredictor::new(cfg);
        let dt = cfg.dt as f32;
        let rate = 1.0f32; // rad/s
        let start = 3.0f32; // near +π
        for step in 0..40 {
            let yaw = angles::wrap(start + rate * step as f32 * dt);
            p.observe(&Pose::new(
                Vec3::ZERO,
                Quat::from_yaw_pitch_roll(yaw, 0.0, 0.0),
            ));
        }
        let horizon = 0.1;
        let yaw_truth = angles::wrap(start + rate * (39.0 * dt + horizon as f32));
        let truth = Pose::new(Vec3::ZERO, Quat::from_yaw_pitch_roll(yaw_truth, 0.0, 0.0));
        let (_, ang_err) = p.predict(horizon).error_to(&truth);
        assert!(ang_err < 3.0, "angle error across seam {ang_err}°");
    }

    #[test]
    fn stationary_pose_prediction_stays_put() {
        let cfg = PosePredictorConfig::default();
        let mut p = PosePredictor::new(cfg);
        let pose = Pose::new(
            Vec3::new(0.5, 1.7, -2.0),
            Quat::from_yaw_pitch_roll(1.0, 0.2, 0.0),
        );
        for _ in 0..30 {
            p.observe(&pose);
        }
        let (pos_err, ang_err) = p.predict(0.2).error_to(&pose);
        assert!(pos_err < 0.01, "drift {pos_err} m");
        assert!(ang_err < 1.0, "drift {ang_err}°");
    }
}
