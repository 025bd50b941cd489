//! Motion-scenario tests for the pose predictor: the trajectories headset
//! wearers actually produce, with tracking noise — and the per-axis filter
//! against the dense 12-state filter it replaced, prediction for prediction.

#[path = "common/dense_kalman.rs"]
mod dense_kalman;

use dense_kalman::DensePosePredictor;
use livo_capture::usertrace::{TraceStyle, UserTrace};
use livo_math::kalman::{ANG_ACCEL_VAR, ANG_MEAS_STD, POS_ACCEL_VAR, POS_MEAS_STD, SAMPLE_DT};
use livo_math::rng::SplitMix64;
use livo_math::{angles, Pose, PosePredictor, Quat, Vec3};
use std::f32::consts::FRAC_PI_2;

const DT: f32 = 1.0 / 30.0;

/// Prediction horizons of the differential tests, seconds.
const HORIZONS: [f64; 4] = [0.0, 0.05, 0.137, 0.5];

fn bits(p: &Pose) -> [u32; 7] {
    let (v, q) = (p.position, p.orientation);
    [v.x, v.y, v.z, q.w, q.x, q.y, q.z].map(f32::to_bits)
}

/// Feed `poses` to the per-axis predictor and the dense oracle alike and
/// require every prediction at every horizon to be bit-equal.
fn assert_replays_dense(poses: &[Pose], what: &str) -> usize {
    let mut fast = PosePredictor::new();
    let mut dense = DensePosePredictor::new();
    for (i, pose) in poses.iter().enumerate() {
        fast.observe(pose);
        dense.observe(pose);
        for h in HORIZONS {
            let (a, b) = (fast.predict(h), dense.predict(h));
            assert_eq!(
                bits(&a),
                bits(&b),
                "{what}, sample {i}, horizon {h}: {a:?} vs {b:?}"
            );
        }
    }
    poses.len() * HORIZONS.len()
}

/// The study's three motion styles × ten seeds, eight seconds each.
#[test]
fn per_axis_filter_is_bit_equal_to_the_dense_filter_on_user_traces() {
    let mut predictions = 0;
    for style in TraceStyle::ALL {
        for seed in 0..10 {
            let trace = UserTrace::generate(style, 8.0, seed);
            predictions += assert_replays_dense(&trace.poses, &format!("{style:?} seed {seed}"));
        }
    }
    assert_eq!(predictions, 3 * 10 * 240 * HORIZONS.len());
}

/// 20 000 random poses in twenty runs that keep crossing the ±π yaw seam:
/// small and large yaw steps, the full pitch range up to gimbal lock,
/// tracking noise, and the odd teleport.
#[test]
fn per_axis_filter_is_bit_equal_to_the_dense_filter_across_the_yaw_seam() {
    let mut rng = SplitMix64::new(0x5EA3);
    let mut crossings = 0;
    for run in 0..20 {
        // Yaw is π + `off`, `off` a walk held inside ±0.6 rad, so it
        // changes sign — crosses the seam — every few samples.
        let mut off = 0.0f32;
        let mut eye = Vec3::new(0.0, 1.6, 0.0);
        let poses: Vec<Pose> = (0..1_000)
            .map(|_| {
                let step = if rng.gen_bool(0.05) { 0.6 } else { 0.15 };
                let next = (off + rng.gen_range(-step..step)).clamp(-0.6, 0.6);
                crossings += (next.signum() != off.signum()) as usize;
                off = next;
                let yaw = angles::wrap(std::f32::consts::PI + off);
                eye = if rng.gen_bool(0.01) {
                    Vec3::new(rng.gen_range(-5.0..5.0), 1.6, rng.gen_range(-5.0..5.0))
                } else {
                    eye + Vec3::new(
                        rng.gen_range(-0.05..0.05),
                        rng.gen_range(-0.01..0.01),
                        rng.gen_range(-0.05..0.05),
                    )
                };
                let pitch = rng.gen_range(-FRAC_PI_2..FRAC_PI_2);
                let roll = rng.gen_range(-0.6..0.6f32);
                Pose::new(eye, Quat::from_yaw_pitch_roll(yaw, pitch, roll))
            })
            .collect();
        assert_replays_dense(&poses, &format!("seam run {run}"));
    }
    assert!(crossings > 1_000, "only {crossings} seam crossings");
}

fn noisy(pose: Pose, rng: &mut SplitMix64) -> Pose {
    // Headset tracking noise: ~2 mm positional, ~0.2° rotational.
    let jitter = Vec3::new(
        rng.gen_range(-0.002..0.002),
        rng.gen_range(-0.002..0.002),
        rng.gen_range(-0.002..0.002),
    );
    let rot = Quat::from_axis_angle(
        Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        )
        .normalized(),
        rng.gen_range(-0.004..0.004),
    );
    Pose::new(pose.position + jitter, rot * pose.orientation)
}

/// Circular walking (the orbit viewing style): constant-velocity prediction
/// cuts the corner, but the error at a 150 ms horizon must stay small
/// relative to the motion.
#[test]
fn circular_walk_prediction_error_is_bounded() {
    let mut rng = SplitMix64::new(1);
    let mut p = PosePredictor::new();
    let pose_at = |t: f32| {
        let a = 0.3 * t; // rad/s around a 2.5 m circle
        Pose::look_at(
            Vec3::new(2.5 * a.cos(), 1.6, 2.5 * a.sin()),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::Y,
        )
    };
    for i in 0..150 {
        p.observe(&noisy(pose_at(i as f32 * DT), &mut rng));
    }
    let horizon = 0.15f64;
    let truth = pose_at(149.0 * DT + horizon as f32);
    let (pos_err, ang_err) = p.predict(horizon).error_to(&truth);
    // Tangential speed 0.75 m/s → 11 cm per horizon; the predictor should
    // do far better than "assume stationary".
    assert!(pos_err < 0.05, "position error {pos_err} m");
    assert!(ang_err < 5.0, "angle error {ang_err}°");
    let (naive_err, _) = pose_at(149.0 * DT).error_to(&truth);
    assert!(
        pos_err < naive_err,
        "must beat the zero-motion baseline ({naive_err} m)"
    );
}

/// Stop-and-go: after the wearer halts, the velocity estimate must wash out
/// quickly instead of projecting phantom motion.
#[test]
fn stop_and_go_velocity_washes_out() {
    let mut rng = SplitMix64::new(2);
    let mut p = PosePredictor::new();
    // 2 s of walking, then 2 s standing still.
    for i in 0..60 {
        let t = i as f32 * DT;
        p.observe(&noisy(
            Pose::new(Vec3::new(t, 1.6, 0.0), Quat::IDENTITY),
            &mut rng,
        ));
    }
    let stop = Vec3::new(59.0 * DT, 1.6, 0.0);
    for _ in 0..60 {
        p.observe(&noisy(Pose::new(stop, Quat::IDENTITY), &mut rng));
    }
    let (pos_err, _) = p.predict(0.3).error_to(&Pose::new(stop, Quat::IDENTITY));
    assert!(
        pos_err < 0.03,
        "phantom motion after stop: {pos_err} m at 300 ms horizon"
    );
}

/// Longer horizons degrade gracefully (Fig. 15's window axis): error grows
/// with the horizon but stays finite and monotone-ish.
#[test]
fn error_grows_with_horizon() {
    let mut rng = SplitMix64::new(3);
    let mut p = PosePredictor::new();
    let pose_at = |t: f32| {
        Pose::new(
            Vec3::new((0.5 * t).sin() * 1.5, 1.6, (0.4 * t).cos() * 1.5),
            Quat::from_yaw_pitch_roll(0.4 * t, 0.1 * (t * 0.7).sin(), 0.0),
        )
    };
    let n = 240;
    for i in 0..n {
        p.observe(&noisy(pose_at(i as f32 * DT), &mut rng));
    }
    let t_now = (n - 1) as f32 * DT;
    let mut last_err = 0.0;
    for w in [5u32, 10, 20, 30] {
        let horizon = w as f64 / 30.0;
        let truth = pose_at(t_now + horizon as f32);
        let (pos_err, _) = p.predict(horizon).error_to(&truth);
        assert!(pos_err < 0.5, "W={w}: error {pos_err} m");
        // Allow small non-monotonicity from curvature luck, but the long
        // horizon must be clearly worse than the short one overall.
        if w == 30 {
            assert!(pos_err > last_err * 0.5);
        }
        last_err = last_err.max(pos_err);
    }
}

/// Tracking noise alone must not destabilise the filter over long runs.
#[test]
fn long_run_with_noise_stays_stable() {
    let mut rng = SplitMix64::new(4);
    let mut p = PosePredictor::new();
    let still = Pose::new(
        Vec3::new(0.3, 1.65, -2.0),
        Quat::from_yaw_pitch_roll(0.5, -0.1, 0.0),
    );
    for _ in 0..3000 {
        p.observe(&noisy(still, &mut rng));
    }
    let (pos_err, ang_err) = p.predict(0.15).error_to(&still);
    assert!(pos_err < 0.01, "drift {pos_err} m after 100 s");
    assert!(ang_err < 1.0, "drift {ang_err}° after 100 s");
    // Internal state is finite.
    let pose = p.filtered();
    assert!(pose.position.is_finite());
}

/// The yaw seam (±π) under continuous rotation: predictions remain small-
/// error through multiple full turns.
#[test]
fn multiple_full_turns_cross_the_seam_cleanly() {
    let mut p = PosePredictor::new();
    let rate = 1.2f32; // rad/s, ~3 full turns over 16 s
    for i in 0..500 {
        let yaw = angles::wrap(rate * i as f32 * DT);
        p.observe(&Pose::new(
            Vec3::new(0.0, 1.6, 0.0),
            Quat::from_yaw_pitch_roll(yaw, 0.0, 0.0),
        ));
    }
    let horizon = 0.1f64;
    let yaw_truth = angles::wrap(rate * (499.0 * DT + horizon as f32));
    let truth = Pose::new(
        Vec3::new(0.0, 1.6, 0.0),
        Quat::from_yaw_pitch_roll(yaw_truth, 0.0, 0.0),
    );
    let (_, ang_err) = p.predict(horizon).error_to(&truth);
    assert!(ang_err < 4.0, "seam-crossing error {ang_err}°");
}
