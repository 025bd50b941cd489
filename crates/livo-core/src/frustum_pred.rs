//! Frustum prediction: where will the receiver be looking when this frame
//! arrives?
//!
//! §3.4 of the paper: the sender must cull against the receiver's frustum
//! at `t + Δt`, where `Δt` is the one-way delay (network + processing).
//! LiVo runs a constant-velocity Kalman filter over the six pose
//! dimensions (Gül et al.), predicts `Δt` ahead, and expands the predicted
//! frustum by a guard band ε (20 cm by default) to absorb residual error.

use livo_math::kalman::PosePredictorConfig;
use livo_math::{Frustum, FrustumParams, Pose, PosePredictor};

/// The sender-side frustum predictor.
#[derive(Debug, Clone)]
pub struct FrustumPredictor {
    predictor: PosePredictor,
    params: FrustumParams,
    /// Guard band ε in metres (paper default: 0.2).
    pub guard_m: f32,
    /// Exponentially-smoothed one-way delay estimate in seconds.
    smoothed_owd_s: f64,
}

impl FrustumPredictor {
    pub fn new(params: FrustumParams, guard_m: f32) -> Self {
        FrustumPredictor {
            predictor: PosePredictor::new(PosePredictorConfig::default()),
            params,
            guard_m,
            smoothed_owd_s: 0.1,
        }
    }

    /// Feed a received headset pose sample.
    pub fn observe(&mut self, pose: &Pose) {
        self.predictor.observe(pose);
    }

    /// Feed an application-level RTT measurement; the horizon is half of
    /// the smoothed RTT (§3.4).
    pub fn observe_rtt(&mut self, rtt_s: f64) {
        let owd = rtt_s / 2.0;
        self.smoothed_owd_s = 0.9 * self.smoothed_owd_s + 0.1 * owd;
    }

    /// Current prediction horizon in seconds.
    pub fn horizon_s(&self) -> f64 {
        self.smoothed_owd_s
    }

    /// Predicted pose at the horizon.
    pub fn predicted_pose(&self) -> Pose {
        self.predictor.predict(self.smoothed_owd_s)
    }

    /// Predicted frustum, guard band applied.
    pub fn predicted_frustum(&self) -> Frustum {
        self.predicted_view().1
    }

    /// Predicted pose at the horizon and its guard-banded frustum, from one
    /// prediction.
    pub fn predicted_view(&self) -> (Pose, Frustum) {
        let pose = self.predicted_pose();
        let frustum = Frustum::from_params(&pose, &self.params).expanded(self.guard_m);
        (pose, frustum)
    }

    /// Predicted frustum at an explicit horizon with an explicit guard.
    pub fn predicted_frustum_at(&self, horizon_s: f64, guard_m: f32) -> Frustum {
        Frustum::from_params(&self.predictor.predict(horizon_s), &self.params).expanded(guard_m)
    }

    pub fn params(&self) -> &FrustumParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::{Quat, Vec3};

    fn walking_pose(t: f32) -> Pose {
        Pose::new(
            Vec3::new(2.0 - 0.5 * t, 1.6, 0.0),
            Quat::from_yaw_pitch_roll(0.3 * t, 0.0, 0.0),
        )
    }

    #[test]
    fn predictor_tracks_linear_walk() {
        let mut fp = FrustumPredictor::new(FrustumParams::default(), 0.2);
        for i in 0..60 {
            fp.observe(&walking_pose(i as f32 / 30.0));
        }
        fp.observe_rtt(0.2); // → horizon drifts toward 100 ms
        let horizon = fp.horizon_s();
        let truth = walking_pose(59.0 / 30.0 + horizon as f32);
        let (pos_err, ang_err) = fp.predicted_pose().error_to(&truth);
        assert!(pos_err < 0.05, "position error {pos_err}");
        assert!(ang_err < 3.0, "angle error {ang_err}");
    }

    #[test]
    fn rtt_smoothing_converges() {
        let mut fp = FrustumPredictor::new(FrustumParams::default(), 0.2);
        for _ in 0..100 {
            fp.observe_rtt(0.3);
        }
        assert!((fp.horizon_s() - 0.15).abs() < 0.005);
    }

    #[test]
    fn guard_band_grows_the_frustum() {
        let mut fp = FrustumPredictor::new(
            FrustumParams {
                hfov: 1.2,
                aspect: 1.0,
                near: 0.1,
                far: 10.0,
            },
            0.0,
        );
        fp.observe(&Pose::IDENTITY);
        let tight = fp.predicted_frustum_at(0.0, 0.0);
        let guarded = fp.predicted_frustum_at(0.0, 0.3);
        // A point just outside the tight frustum's side plane.
        let p = Vec3::new(3.6, 0.0, 5.0);
        if !tight.contains(p) {
            assert!(guarded.penetration(p) > tight.penetration(p));
        }
        // Everything inside tight stays inside guarded.
        for q in [Vec3::new(0.0, 0.0, 5.0), Vec3::new(1.0, 1.0, 4.0)] {
            if tight.contains(q) {
                assert!(guarded.contains(q));
            }
        }
    }

    #[test]
    fn prediction_with_saccade_is_absorbed_by_guard_band() {
        // A sudden 0.5 rad yaw jump mid-trace: the predicted frustum without
        // guard may miss points the true frustum sees; with a 20 cm guard
        // most of the scene volume near the boundary is retained.
        let mut fp = FrustumPredictor::new(FrustumParams::default(), 0.2);
        for i in 0..30 {
            fp.observe(&walking_pose(i as f32 / 30.0));
        }
        // Saccade.
        let jump = Pose::new(
            walking_pose(1.0).position,
            Quat::from_yaw_pitch_roll(0.5, 0.0, 0.0),
        );
        fp.observe(&jump);
        // Prediction is still finite and usable.
        let f = fp.predicted_frustum();
        assert!(f.planes.iter().all(|p| p.normal.is_finite()));
    }
}
