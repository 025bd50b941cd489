//! Synthetic 6-DoF viewer traces.
//!
//! The paper collected headset pose traces under an IRB study (three per
//! video). We synthesise traces with the motion structure such studies
//! report: mostly smooth locomotion (orbiting the scene, walking in for a
//! closer look, standing and inspecting) punctuated by saccade-like quick
//! turns. The Kalman predictor's accuracy (Fig. 16) and the culling study
//! (Fig. 15) depend only on these dynamics.

use livo_math::rng::SplitMix64;
use livo_math::{Pose, Quat, Vec3};

/// Sampling rate of headset tracking.
pub const TRACE_HZ: u32 = 30;

/// The broad motion style of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStyle {
    /// Circle the scene at a comfortable radius.
    Orbit,
    /// Start wide, walk in close to a subject, back out.
    WalkIn,
    /// Stand near the scene, small translations, lots of head rotation.
    Inspect,
}

impl TraceStyle {
    pub const ALL: [TraceStyle; 3] = [TraceStyle::Orbit, TraceStyle::WalkIn, TraceStyle::Inspect];
}

/// A recorded sequence of headset poses at [`TRACE_HZ`].
#[derive(Debug, Clone)]
pub struct UserTrace {
    pub style: TraceStyle,
    pub poses: Vec<Pose>,
}

impl UserTrace {
    /// Generate a trace of `duration_s` seconds with the given style and
    /// seed. The viewer looks toward the scene centre (with noise) while
    /// moving; saccades briefly rotate the view away and back.
    pub fn generate(style: TraceStyle, duration_s: f32, seed: u64) -> UserTrace {
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let n = (duration_s * TRACE_HZ as f32).ceil() as usize;
        let mut poses = Vec::with_capacity(n);
        let scene_center = Vec3::new(0.0, 1.0, 0.0);

        // Style parameters.
        // Viewers stand close to (or inside) the capture volume, as the
        // paper's participants did — the frustum then covers the 0.6–0.75 of
        // the scene Fig. 15 reports, rather than the whole dome.
        let (r_mid, r_amp, angular_rate) = match style {
            TraceStyle::Orbit => (2.5f32, 0.3f32, 0.25f32),
            TraceStyle::WalkIn => (2.0, 1.2, 0.10),
            TraceStyle::Inspect => (1.4, 0.2, 0.05),
        };
        let start_angle: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let height = rng.gen_range(1.5..1.75);

        // Saccade schedule: a quick yaw excursion every few seconds.
        let mut saccade_t = rng.gen_range(2.0..5.0f32);
        let mut saccade_amp = 0.0f32;
        let mut saccade_phase = 0.0f32;

        for i in 0..n {
            let t = i as f32 / TRACE_HZ as f32;
            let angle = start_angle + angular_rate * t * std::f32::consts::TAU / 4.0;
            let radius = r_mid + r_amp * (t * 0.11).sin();
            let wobble = Vec3::new(
                0.05 * (t * 1.3).sin(),
                0.03 * (t * 0.9).cos(),
                0.05 * (t * 1.1).cos(),
            );
            let eye = Vec3::new(radius * angle.cos(), height, radius * angle.sin()) + wobble;

            // Gaze: at the centre, with a slowly drifting offset, plus
            // saccades.
            if t >= saccade_t {
                // Glance-sized excursions (~8–25°): viewers checking another
                // part of the scene, then returning to the subject.
                saccade_amp =
                    rng.gen_range(0.15..0.45) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                saccade_phase = t;
                saccade_t = t + rng.gen_range(3.0..7.0);
            }
            let since = t - saccade_phase;
            // Saccade envelope: fast out (~150 ms), hold, ease back (~1 s).
            let saccade = if since < 0.15 {
                saccade_amp * (since / 0.15)
            } else if since < 0.5 {
                saccade_amp
            } else if since < 1.5 {
                saccade_amp * (1.0 - (since - 0.5))
            } else {
                0.0
            };
            let gaze_target = scene_center
                + Vec3::new(
                    0.4 * (t * 0.23).sin(),
                    0.2 * (t * 0.31).cos(),
                    0.4 * (t * 0.17).cos(),
                );
            let base = Pose::look_at(eye, gaze_target, Vec3::Y);
            let saccade_rot = Quat::from_axis_angle(Vec3::Y, saccade);
            poses.push(Pose::new(eye, saccade_rot * base.orientation));
        }
        UserTrace { style, poses }
    }

    /// The three traces the study collected for a video, seeded from the
    /// video name so every run sees the same traces.
    pub fn study_traces(video_seed: u64, duration_s: f32) -> Vec<UserTrace> {
        TraceStyle::ALL
            .iter()
            .enumerate()
            .map(|(i, &style)| {
                UserTrace::generate(
                    style,
                    duration_s,
                    video_seed.wrapping_mul(31).wrapping_add(i as u64),
                )
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.poses.len()
    }

    pub fn is_empty(&self) -> bool {
        self.poses.is_empty()
    }

    /// Pose at frame index `i` (clamped to the last pose).
    pub fn pose_at(&self, i: usize) -> Pose {
        self.poses[i.min(self.poses.len().saturating_sub(1))]
    }

    /// Pose at fractional time `t` seconds, interpolated.
    pub fn pose_at_time(&self, t: f32) -> Pose {
        let ft = (t * TRACE_HZ as f32).max(0.0);
        let i = ft.floor() as usize;
        let frac = ft - ft.floor();
        let a = self.pose_at(i);
        let b = self.pose_at(i + 1);
        a.interpolate(&b, frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_expected_length() {
        let t = UserTrace::generate(TraceStyle::Orbit, 10.0, 1);
        assert_eq!(t.len(), 300);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = UserTrace::generate(TraceStyle::WalkIn, 5.0, 7);
        let b = UserTrace::generate(TraceStyle::WalkIn, 5.0, 7);
        let c = UserTrace::generate(TraceStyle::WalkIn, 5.0, 8);
        assert_eq!(a.poses.len(), b.poses.len());
        for (x, y) in a.poses.iter().zip(&b.poses) {
            assert_eq!(x.position, y.position);
        }
        assert!(a
            .poses
            .iter()
            .zip(&c.poses)
            .any(|(x, y)| x.position != y.position));
    }

    #[test]
    fn motion_is_smooth_between_samples() {
        // Max inter-sample translation should be walking speed (< 2 m/s →
        // < 7 cm per 33 ms).
        for style in TraceStyle::ALL {
            let t = UserTrace::generate(style, 20.0, 3);
            for w in t.poses.windows(2) {
                let step = w[0].position.distance(w[1].position);
                assert!(step < 0.12, "{style:?}: step {step} m too large");
            }
        }
    }

    #[test]
    fn viewer_looks_at_scene_most_of_the_time() {
        let t = UserTrace::generate(TraceStyle::Orbit, 30.0, 5);
        let center = Vec3::new(0.0, 1.0, 0.0);
        let mut looking = 0;
        for p in &t.poses {
            let to_center = (center - p.position).normalized();
            if p.forward().dot(to_center) > 0.6 {
                looking += 1;
            }
        }
        assert!(
            looking as f32 / t.poses.len() as f32 > 0.6,
            "only {looking}/{} samples look at the scene",
            t.poses.len()
        );
    }

    #[test]
    fn walkin_changes_distance_substantially() {
        let t = UserTrace::generate(TraceStyle::WalkIn, 40.0, 9);
        let center = Vec3::new(0.0, 1.0, 0.0);
        let d: Vec<f32> = t
            .poses
            .iter()
            .map(|p| p.position.distance(center))
            .collect();
        let min = d.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = d.iter().cloned().fold(0.0f32, f32::max);
        assert!(max - min > 1.0, "walk-in range {min}..{max}");
    }

    #[test]
    fn study_traces_cover_all_styles() {
        let ts = UserTrace::study_traces(42, 5.0);
        assert_eq!(ts.len(), 3);
        let styles: Vec<TraceStyle> = ts.iter().map(|t| t.style).collect();
        assert_eq!(styles, TraceStyle::ALL.to_vec());
    }

    #[test]
    fn pose_at_time_interpolates() {
        let t = UserTrace::generate(TraceStyle::Orbit, 2.0, 1);
        let a = t.pose_at(0);
        let b = t.pose_at(1);
        let mid = t.pose_at_time(0.5 / TRACE_HZ as f32);
        let expect = a.position.lerp(b.position, 0.5);
        assert!((mid.position - expect).length() < 1e-5);
        // Clamping past the end.
        let end = t.pose_at_time(100.0);
        assert_eq!(end.position, t.poses.last().unwrap().position);
    }

    #[test]
    fn saccades_produce_fast_rotations() {
        // At least one inter-sample rotation in a long trace should exceed
        // what smooth tracking alone produces (~2°/sample).
        let t = UserTrace::generate(TraceStyle::Inspect, 30.0, 11);
        let max_rot = t
            .poses
            .windows(2)
            .map(|w| w[0].orientation.angle_to_degrees(w[1].orientation))
            .fold(0.0f32, f32::max);
        // Minimum glance amplitude (0.15 rad over 150 ms) yields ~1.9°/sample.
        assert!(max_rot > 1.8, "max inter-sample rotation {max_rot}°");
    }
}
