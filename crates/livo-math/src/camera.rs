//! Pinhole camera model for RGB-D capture and back-projection.

use crate::frustum::{Frustum, FrustumParams};
use crate::mat::Mat4;
use crate::pose::Pose;
use crate::vec3::Vec3;

/// Pinhole intrinsics: focal lengths and principal point in pixels.
///
/// The camera looks down its local `+Z`; a pixel `(u, v)` at depth `z` (in
/// metres along the optical axis, *not* ray length) back-projects to
/// `((u - cx) z / fx, (v - cy) z / fy, z)` in the camera frame. `v` grows
/// downward in image space and maps to local `-Y` (so the image is upright).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    pub width: u32,
    pub height: u32,
    pub fx: f32,
    pub fy: f32,
    pub cx: f32,
    pub cy: f32,
}

impl CameraIntrinsics {
    /// Intrinsics from a horizontal field of view in radians; `fy = fx`
    /// (square pixels) and the principal point is the image centre.
    pub fn from_hfov(width: u32, height: u32, hfov: f32) -> Self {
        let fx = width as f32 / (2.0 * (hfov * 0.5).tan());
        CameraIntrinsics {
            width,
            height,
            fx,
            fy: fx,
            cx: width as f32 * 0.5,
            cy: height as f32 * 0.5,
        }
    }

    /// The Azure Kinect DK NFOV-unbinned-like depth mode used by the paper's
    /// capture rig: 640×576, 75° horizontal FoV — scaled by `scale` to let
    /// experiments trade resolution for speed without changing the FoV.
    pub fn kinect_depth(scale: f32) -> Self {
        let w = ((640.0 * scale).round() as u32).max(8);
        let h = ((576.0 * scale).round() as u32).max(8);
        Self::from_hfov(w, h, crate::angles::to_radians(75.0))
    }

    pub fn aspect(&self) -> f32 {
        self.width as f32 / self.height as f32
    }

    /// Horizontal field of view in radians implied by `fx`.
    pub fn hfov(&self) -> f32 {
        2.0 * (self.width as f32 / (2.0 * self.fx)).atan()
    }

    /// Back-project pixel `(u, v)` with depth `z_m` (metres along the optical
    /// axis) into the camera's local frame.
    ///
    /// Evaluated ray-first — `((u - cx) / fx) * z` rather than
    /// `((u - cx) * z) / fx` — so the result is bit-identical to scaling the
    /// cached per-pixel ray of a [`crate::RayTable`] by `z_m`. The culling
    /// fast path relies on this exact association; don't reorder.
    #[inline]
    pub fn unproject(&self, u: f32, v: f32, z_m: f32) -> Vec3 {
        Vec3::new(
            (u - self.cx) / self.fx * z_m,
            (self.cy - v) / self.fy * z_m, // image v grows downward
            z_m,
        )
    }

    /// Project a local-frame point to pixel coordinates plus its depth.
    /// Returns `None` for points at or behind the camera plane.
    #[inline]
    pub fn project(&self, p: Vec3) -> Option<(f32, f32, f32)> {
        if p.z <= 1e-6 {
            return None;
        }
        let u = p.x * self.fx / p.z + self.cx;
        let v = self.cy - p.y * self.fy / p.z;
        Some((u, v, p.z))
    }

    /// Direction (unit vector, local frame) of the ray through pixel centre
    /// `(u, v)`.
    pub fn ray_dir(&self, u: f32, v: f32) -> Vec3 {
        self.unproject(u, v, 1.0).normalized()
    }
}

/// A posed RGB-D camera: intrinsics plus extrinsics (local→world pose).
///
/// Matches the calibration output the paper assumes (Zhang's method produces
/// the local→global transformation matrix per camera).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RgbdCamera {
    pub intrinsics: CameraIntrinsics,
    pub pose: Pose,
    /// Minimum sensing range in metres (Kinect-class: ~0.25 m).
    pub min_range_m: f32,
    /// Maximum sensing range in metres (Kinect-class: 5–6 m).
    pub max_range_m: f32,
}

impl RgbdCamera {
    pub fn new(intrinsics: CameraIntrinsics, pose: Pose) -> Self {
        RgbdCamera {
            intrinsics,
            pose,
            min_range_m: 0.25,
            max_range_m: 6.0,
        }
    }

    /// World→local matrix.
    pub fn world_to_local(&self) -> Mat4 {
        self.pose.world_to_local()
    }

    /// Back-project an image pixel (with depth in millimetres, the sensor's
    /// native unit) into world coordinates. Returns `None` for zero depth
    /// (no return) or out-of-range depth.
    #[inline]
    pub fn pixel_to_world(&self, u: u32, v: u32, depth_mm: u16) -> Option<Vec3> {
        if depth_mm == 0 {
            return None;
        }
        let z = depth_mm as f32 / 1000.0;
        if z < self.min_range_m || z > self.max_range_m {
            return None;
        }
        let local = self.intrinsics.unproject(u as f32 + 0.5, v as f32 + 0.5, z);
        Some(self.pose.transform_point(local))
    }

    /// The camera's own viewing frustum (used by capture and by per-camera
    /// culling bounds).
    pub fn frustum(&self) -> Frustum {
        Frustum::from_params(
            &self.pose,
            &FrustumParams {
                hfov: self.intrinsics.hfov(),
                aspect: self.intrinsics.aspect(),
                near: self.min_range_m,
                far: self.max_range_m,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quat::Quat;

    #[test]
    fn project_unproject_round_trip() {
        let k = CameraIntrinsics::from_hfov(640, 576, 1.3);
        let p = k.unproject(100.5, 200.5, 2.5);
        let (u, v, z) = k.project(p).unwrap();
        assert!((u - 100.5).abs() < 1e-3);
        assert!((v - 200.5).abs() < 1e-3);
        assert!((z - 2.5).abs() < 1e-5);
    }

    #[test]
    fn principal_point_maps_to_axis() {
        let k = CameraIntrinsics::from_hfov(640, 480, 1.2);
        let p = k.unproject(k.cx, k.cy, 3.0);
        assert!(p.x.abs() < 1e-5 && p.y.abs() < 1e-5);
        assert!((p.z - 3.0).abs() < 1e-6);
    }

    #[test]
    fn behind_camera_does_not_project() {
        let k = CameraIntrinsics::from_hfov(640, 480, 1.2);
        assert!(k.project(Vec3::new(0.0, 0.0, -1.0)).is_none());
        assert!(k.project(Vec3::new(0.1, 0.1, 0.0)).is_none());
    }

    #[test]
    fn hfov_round_trips() {
        let hfov = crate::angles::to_radians(75.0);
        let k = CameraIntrinsics::from_hfov(640, 576, hfov);
        assert!((k.hfov() - hfov).abs() < 1e-4);
    }

    #[test]
    fn image_v_grows_downward() {
        let k = CameraIntrinsics::from_hfov(640, 480, 1.2);
        let top = k.unproject(k.cx, 0.0, 1.0);
        let bottom = k.unproject(k.cx, 479.0, 1.0);
        assert!(top.y > 0.0, "top of image should be +Y (up)");
        assert!(bottom.y < 0.0);
    }

    #[test]
    fn pixel_to_world_respects_range_and_zero() {
        let cam = RgbdCamera::new(CameraIntrinsics::kinect_depth(1.0), Pose::IDENTITY);
        assert!(cam.pixel_to_world(10, 10, 0).is_none());
        assert!(cam.pixel_to_world(10, 10, 100).is_none()); // 0.1 m < min range
        assert!(cam.pixel_to_world(10, 10, 7000).is_none()); // 7 m > max range
        assert!(cam.pixel_to_world(10, 10, 2000).is_some());
    }

    #[test]
    fn pixel_to_world_applies_pose() {
        let pose = Pose::new(Vec3::new(0.0, 0.0, -2.0), Quat::IDENTITY);
        let cam = RgbdCamera::new(CameraIntrinsics::kinect_depth(1.0), pose);
        let k = cam.intrinsics;
        let w = cam.pixel_to_world(k.width / 2, k.height / 2, 2000).unwrap();
        // Camera at z=-2 looking +Z; a 2 m depth at the principal point lands
        // near the world origin.
        assert!(w.length() < 0.01, "got {w:?}");
    }

    #[test]
    fn camera_frustum_contains_seen_points() {
        let cam = RgbdCamera::new(
            CameraIntrinsics::kinect_depth(1.0),
            Pose::look_at(Vec3::new(3.0, 1.0, 0.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y),
        );
        let f = cam.frustum();
        // A point straight ahead at mid range.
        let p = cam.pose.transform_point(Vec3::new(0.0, 0.0, 2.0));
        assert!(f.contains(p));
        // A point behind the camera.
        let q = cam.pose.transform_point(Vec3::new(0.0, 0.0, -1.0));
        assert!(!f.contains(q));
    }
}
