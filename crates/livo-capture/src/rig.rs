//! Camera rigs: circular arrays of RGB-D cameras around a scene.
//!
//! The paper's capture setup is `N` frame-synchronised RGB-D cameras
//! encircling a conference table / stage, each calibrated into a common
//! world frame. [`camera_ring`] reproduces that geometry; calibration is
//! exact here (the pose *is* the extrinsic), which matches the paper's
//! assumption of one-shot offline calibration.

use livo_math::{CameraIntrinsics, Pose, RgbdCamera, Vec3};

/// Build `n` cameras evenly spaced on a circle of `radius` metres at
/// `height`, all aimed at `target`.
pub fn camera_ring(
    n: usize,
    radius: f32,
    height: f32,
    target: Vec3,
    intrinsics: CameraIntrinsics,
) -> Vec<RgbdCamera> {
    (0..n)
        .map(|i| {
            let angle = i as f32 / n as f32 * std::f32::consts::TAU;
            let eye = Vec3::new(radius * angle.cos(), height, radius * angle.sin());
            RgbdCamera::new(intrinsics, Pose::look_at(eye, target, Vec3::Y))
        })
        .collect()
}

/// The paper's capture rig: `n` Kinect-class cameras (10 in the paper) at
/// 2.5 m radius, 1.4 m height, aimed at chest height over the scene centre.
/// `scale` trades per-camera resolution for speed (1.0 = full 640×576).
pub fn panoptic_rig(n: usize, scale: f32) -> Vec<RgbdCamera> {
    camera_ring(
        n,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(scale),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_has_n_cameras_on_circle() {
        let cams = camera_ring(
            8,
            3.0,
            1.5,
            Vec3::ZERO,
            CameraIntrinsics::kinect_depth(0.25),
        );
        assert_eq!(cams.len(), 8);
        for c in &cams {
            let horiz = Vec3::new(c.pose.position.x, 0.0, c.pose.position.z);
            assert!((horiz.length() - 3.0).abs() < 1e-4);
            assert!((c.pose.position.y - 1.5).abs() < 1e-5);
        }
    }

    #[test]
    fn all_cameras_face_the_target() {
        let target = Vec3::new(0.0, 1.0, 0.0);
        let cams = camera_ring(10, 2.5, 1.4, target, CameraIntrinsics::kinect_depth(0.25));
        for c in &cams {
            let to_target = (target - c.pose.position).normalized();
            assert!(c.pose.forward().dot(to_target) > 0.999);
        }
    }

    #[test]
    fn cameras_are_evenly_spaced() {
        let cams = camera_ring(
            6,
            2.0,
            1.0,
            Vec3::ZERO,
            CameraIntrinsics::kinect_depth(0.25),
        );
        let angle = |c: &RgbdCamera| c.pose.position.z.atan2(c.pose.position.x);
        for i in 0..6 {
            let a = angle(&cams[i]);
            let b = angle(&cams[(i + 1) % 6]);
            let diff = livo_math::angles::wrap(b - a).abs();
            assert!((diff - std::f32::consts::TAU / 6.0).abs() < 1e-3);
        }
    }

    #[test]
    fn target_is_visible_from_every_ring_camera() {
        let target = Vec3::new(0.0, 1.0, 0.0);
        let cams = panoptic_rig(10, 0.25);
        assert_eq!(cams.len(), 10);
        for c in &cams {
            assert!(
                c.frustum().contains(target),
                "camera at {:?}",
                c.pose.position
            );
        }
    }
}
