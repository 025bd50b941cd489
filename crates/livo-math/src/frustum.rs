//! Viewing frusta: the receiver's 3D field of view.
//!
//! LiVo's sender culls every RGB-D pixel whose back-projected point falls
//! outside the receiver's (predicted) frustum (§3.4). A frustum is a
//! truncated pyramid bounded by six planes; we store the planes with inward
//! normals, so a point is inside iff all six signed distances are ≥ 0 —
//! equivalent to the paper's "outside if positive distance from any
//! outward-pointing plane".

use crate::mat::Mat4;
use crate::plane::Plane;
use crate::pose::Pose;
use crate::vec3::Vec3;

/// Viewing-volume parameters of a headset or camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrustumParams {
    /// Horizontal field of view in radians.
    pub hfov: f32,
    /// Width / height.
    pub aspect: f32,
    /// Near plane distance in metres.
    pub near: f32,
    /// Far plane distance in metres.
    pub far: f32,
}

impl Default for FrustumParams {
    /// A headset-like viewing volume: ~90° horizontal FoV, 16:9, 10 cm–10 m.
    fn default() -> Self {
        FrustumParams {
            hfov: crate::angles::to_radians(90.0),
            aspect: 16.0 / 9.0,
            near: 0.1,
            far: 10.0,
        }
    }
}

/// A six-plane frustum in world coordinates. Plane normals point inward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frustum {
    /// Order: near, far, left, right, top, bottom.
    pub planes: [Plane; 6],
}

impl Frustum {
    /// Build the frustum of a viewer at `pose` with viewing volume `params`.
    pub fn from_params(pose: &Pose, params: &FrustumParams) -> Self {
        let fwd = pose.forward();
        let right = pose.right();
        let up = pose.up();
        let eye = pose.position;

        let half_h = (params.hfov * 0.5).tan();
        let half_v = half_h / params.aspect;

        // Near and far planes: inward normals face each other.
        let near = Plane::from_point_normal(eye + fwd * params.near, fwd);
        let far = Plane::from_point_normal(eye + fwd * params.far, -fwd);

        // Side planes pass through the eye. Inward normal of the left plane
        // points rightward-ish: rotate `right` by the half-angle about `up`.
        // Constructed from the plane containing eye, spanned by `up` and the
        // edge direction.
        let left_dir = (fwd - right * half_h).normalized();
        let right_dir = (fwd + right * half_h).normalized();
        let top_dir = (fwd + up * half_v).normalized();
        let bottom_dir = (fwd - up * half_v).normalized();

        let left =
            Plane::from_point_normal(eye, left_dir.cross(up).normalized().flip_toward(right));
        let right_p =
            Plane::from_point_normal(eye, right_dir.cross(up).normalized().flip_toward(-right));
        let top = Plane::from_point_normal(eye, top_dir.cross(right).normalized().flip_toward(-up));
        let bottom =
            Plane::from_point_normal(eye, bottom_dir.cross(right).normalized().flip_toward(up));

        Frustum {
            planes: [near, far, left, right_p, top, bottom],
        }
    }

    /// True when the point is inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        self.planes.iter().all(|pl| pl.signed_distance(p) >= 0.0)
    }

    /// Signed "depth" into the frustum: the minimum distance to any plane.
    /// Negative outside; larger positive values are deeper inside.
    #[inline]
    pub fn penetration(&self, p: Vec3) -> f32 {
        self.planes
            .iter()
            .map(|pl| pl.signed_distance(p))
            .fold(f32::INFINITY, f32::min)
    }

    /// Expand every plane outward by `guard_m` metres. This is LiVo's guard
    /// band (ε, default 20 cm) absorbing frustum-prediction error.
    pub fn expanded(&self, guard_m: f32) -> Frustum {
        let mut planes = self.planes;
        for p in &mut planes {
            *p = p.offset(-guard_m);
        }
        Frustum { planes }
    }

    /// Transform the frustum by a rigid transform (e.g. world → camera-local,
    /// the first step of LiVo's per-camera culling).
    pub fn transformed(&self, xf: &Mat4) -> Frustum {
        let mut planes = self.planes;
        for p in &mut planes {
            *p = p.transformed(xf);
        }
        Frustum { planes }
    }

    /// Fraction of the viewing volume of `(pose, params)` that falls inside
    /// `self`, estimated on a deterministic `n³` stratified sample grid
    /// (cell centres in view-space `(u, v, depth)`, depth uniform between
    /// the near and far planes).
    ///
    /// This is the overlap measure the SFU uses to decide whether two
    /// subscribers' predicted frusta are similar enough to share one
    /// cull+encode pass: mutual coverage close to 1 means either receiver
    /// could be served from the union of the two volumes at little extra
    /// cost. It is an estimate — grid resolution `n` trades accuracy for
    /// the `n³` containment tests — but it is exact at the extremes:
    /// identical volumes give 1.0 and disjoint volumes give 0.0.
    pub fn coverage_of(&self, pose: &Pose, params: &FrustumParams, n: usize) -> f32 {
        let n = n.max(1);
        let fwd = pose.forward();
        let right = pose.right();
        let up = pose.up();
        let eye = pose.position;
        let half_h = (params.hfov * 0.5).tan();
        let half_v = half_h / params.aspect;
        let mut inside = 0usize;
        for k in 0..n {
            // Depth at the cell centre; linear in distance, so near cells —
            // where a head-mounted viewer's attention lives — are sampled
            // as densely as far ones per metre of frustum.
            let z = params.near + (params.far - params.near) * ((k as f32 + 0.5) / n as f32);
            for j in 0..n {
                let v = -1.0 + 2.0 * ((j as f32 + 0.5) / n as f32);
                for i in 0..n {
                    let u = -1.0 + 2.0 * ((i as f32 + 0.5) / n as f32);
                    let p = eye + fwd * z + right * (u * half_h * z) + up * (v * half_v * z);
                    if self.contains(p) {
                        inside += 1;
                    }
                }
            }
        }
        inside as f32 / (n * n * n) as f32
    }
}

/// Internal helper: orient a normal to point the same way as a reference.
trait FlipToward {
    fn flip_toward(self, reference: Vec3) -> Vec3;
}

impl FlipToward for Vec3 {
    fn flip_toward(self, reference: Vec3) -> Vec3 {
        if self.dot(reference) < 0.0 {
            -self
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quat::Quat;

    fn viewer_at_origin() -> Frustum {
        Frustum::from_params(
            &Pose::IDENTITY,
            &FrustumParams {
                hfov: std::f32::consts::FRAC_PI_2,
                aspect: 1.0,
                near: 0.5,
                far: 10.0,
            },
        )
    }

    #[test]
    fn contains_point_straight_ahead() {
        let f = viewer_at_origin();
        assert!(f.contains(Vec3::new(0.0, 0.0, 5.0)));
    }

    #[test]
    fn rejects_point_behind() {
        let f = viewer_at_origin();
        assert!(!f.contains(Vec3::new(0.0, 0.0, -1.0)));
    }

    #[test]
    fn rejects_near_and_far() {
        let f = viewer_at_origin();
        assert!(!f.contains(Vec3::new(0.0, 0.0, 0.2))); // closer than near
        assert!(!f.contains(Vec3::new(0.0, 0.0, 11.0))); // beyond far
        assert!(f.contains(Vec3::new(0.0, 0.0, 0.6)));
        assert!(f.contains(Vec3::new(0.0, 0.0, 9.9)));
    }

    #[test]
    fn side_planes_at_90_degree_hfov() {
        // 90° hfov → the frustum edge is at |x| = z.
        let f = viewer_at_origin();
        assert!(f.contains(Vec3::new(1.9, 0.0, 2.0)));
        assert!(!f.contains(Vec3::new(2.1, 0.0, 2.0)));
        assert!(f.contains(Vec3::new(-1.9, 0.0, 2.0)));
        assert!(!f.contains(Vec3::new(-2.1, 0.0, 2.0)));
        // aspect=1 → same vertically
        assert!(f.contains(Vec3::new(0.0, 1.9, 2.0)));
        assert!(!f.contains(Vec3::new(0.0, 2.1, 2.0)));
        assert!(!f.contains(Vec3::new(0.0, -2.1, 2.0)));
    }

    #[test]
    fn expanded_guard_band_admits_border_points() {
        let f = viewer_at_origin();
        let p = Vec3::new(2.1, 0.0, 2.0); // just outside the right plane
        assert!(!f.contains(p));
        assert!(f.expanded(0.2).contains(p));
        // ... but not points far outside
        assert!(!f.expanded(0.2).contains(Vec3::new(4.0, 0.0, 2.0)));
    }

    #[test]
    fn expansion_is_monotonic() {
        let f = viewer_at_origin();
        let samples = [
            Vec3::new(1.0, 1.0, 3.0),
            Vec3::new(2.5, 0.0, 2.0),
            Vec3::new(0.0, 0.0, 10.4),
            Vec3::new(-3.0, 2.0, 4.0),
        ];
        for p in samples {
            if f.contains(p) {
                assert!(f.expanded(0.5).contains(p), "expansion must keep {p:?}");
            }
        }
    }

    #[test]
    fn transformed_frustum_matches_transformed_points() {
        let f = viewer_at_origin();
        let pose = Pose::new(
            Vec3::new(1.0, -2.0, 0.5),
            Quat::from_axis_angle(Vec3::new(0.1, 1.0, 0.3).normalized(), 0.7),
        );
        let xf = pose.to_mat4();
        let g = f.transformed(&xf);
        for p in [
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(1.9, 0.0, 2.0),
            Vec3::new(2.5, 0.0, 2.0),
            Vec3::new(0.0, 0.0, -1.0),
        ] {
            assert_eq!(f.contains(p), g.contains(xf.transform_point(p)), "{p:?}");
        }
    }

    #[test]
    fn rotated_viewer_sees_rotated_scene() {
        // Viewer looking along -X (yaw of -90° maps +Z to... use look_at).
        let pose = Pose::look_at(Vec3::ZERO, Vec3::new(-5.0, 0.0, 0.0), Vec3::Y);
        let f = Frustum::from_params(
            &pose,
            &FrustumParams {
                hfov: 1.0,
                aspect: 1.0,
                near: 0.1,
                far: 10.0,
            },
        );
        assert!(f.contains(Vec3::new(-3.0, 0.0, 0.0)));
        assert!(!f.contains(Vec3::new(3.0, 0.0, 0.0)));
    }

    #[test]
    fn coverage_of_self_is_total_and_disjoint_is_zero() {
        let params = FrustumParams {
            hfov: 1.2,
            aspect: 1.0,
            near: 0.2,
            far: 8.0,
        };
        let pose = Pose::IDENTITY;
        let f = Frustum::from_params(&pose, &params);
        assert_eq!(
            f.coverage_of(&pose, &params, 4),
            1.0,
            "a frustum covers itself"
        );

        // A viewer facing the opposite way shares no volume.
        let away = Pose::look_at(Vec3::ZERO, Vec3::new(0.0, 0.0, -5.0), Vec3::Y);
        let g = Frustum::from_params(&away, &params);
        assert_eq!(
            g.coverage_of(&pose, &params, 4),
            0.0,
            "opposed frusta are disjoint"
        );
    }

    #[test]
    fn coverage_shrinks_with_divergence() {
        let params = FrustumParams {
            hfov: 1.2,
            aspect: 1.0,
            near: 0.2,
            far: 8.0,
        };
        let base = Pose::IDENTITY;
        let f = Frustum::from_params(&base, &params);
        let mut last = 1.0f32;
        for yaw in [0.1f32, 0.4, 0.8, 1.6] {
            let turned = Pose::new(Vec3::ZERO, Quat::from_yaw_pitch_roll(yaw, 0.0, 0.0));
            let c = f.coverage_of(&turned, &params, 5);
            assert!(
                c <= last + 1e-6,
                "coverage not monotone at yaw {yaw}: {c} > {last}"
            );
            last = c;
        }
        assert!(
            last < 0.3,
            "a 1.6 rad turn shares little volume, got {last}"
        );
    }

    #[test]
    fn penetration_sign_matches_contains() {
        let f = viewer_at_origin();
        let inside = Vec3::new(0.0, 0.0, 5.0);
        let outside = Vec3::new(5.0, 0.0, 1.0);
        assert!(f.penetration(inside) > 0.0);
        assert!(f.penetration(outside) < 0.0);
    }
}
