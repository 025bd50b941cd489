//! Property tests for the geometry substrate, on the seeded-case runner.

use livo_math::rng::{cases, SplitMix64};
use livo_math::{angles, CameraIntrinsics, Frustum, FrustumParams, Mat4, Plane, Pose, Quat, Vec3};

const CASES: u32 = 256;

fn vec3(rng: &mut SplitMix64, range: f32) -> Vec3 {
    Vec3::new(
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
    )
}

fn unit_vec3(rng: &mut SplitMix64) -> Vec3 {
    loop {
        let v = vec3(rng, 1.0);
        if v.length() > 1e-2 {
            return v.normalized();
        }
    }
}

fn quat(rng: &mut SplitMix64) -> Quat {
    Quat::from_axis_angle(unit_vec3(rng), rng.gen_range(-3.0f32..3.0))
}

fn pose(rng: &mut SplitMix64) -> Pose {
    Pose::new(vec3(rng, 5.0), quat(rng))
}

#[test]
fn cross_product_is_orthogonal() {
    cases(1, CASES, |rng| {
        let (a, b) = (vec3(rng, 10.0), vec3(rng, 10.0));
        let c = a.cross(b);
        // |a·(a×b)| scales with |a||b|² — normalise the check.
        let scale = (a.length() * b.length()).max(1.0);
        assert!(c.dot(a).abs() / (scale * scale) < 1e-3);
    });
}

#[test]
fn quaternion_rotation_preserves_length() {
    cases(2, CASES, |rng| {
        let (q, v) = (quat(rng), vec3(rng, 10.0));
        let r = q.rotate(v);
        assert!((r.length() - v.length()).abs() < 1e-3 * (1.0 + v.length()));
    });
}

#[test]
fn quaternion_rotation_preserves_dot() {
    cases(3, CASES, |rng| {
        let (q, a, b) = (quat(rng), vec3(rng, 5.0), vec3(rng, 5.0));
        let d0 = a.dot(b);
        let d1 = q.rotate(a).dot(q.rotate(b));
        assert!((d0 - d1).abs() < 1e-2 * (1.0 + d0.abs()));
    });
}

#[test]
fn pose_transform_round_trips() {
    cases(4, CASES, |rng| {
        let (pose, p) = (pose(rng), vec3(rng, 5.0));
        let w = pose.transform_point(p);
        let back = pose.inverse_transform_point(w);
        assert!((back - p).length() < 1e-3);
    });
}

#[test]
fn rigid_matrix_inverse_round_trips() {
    cases(5, CASES, |rng| {
        let (pose, p) = (pose(rng), vec3(rng, 5.0));
        let m = pose.to_mat4();
        let inv = m.rigid_inverse();
        let back = inv.transform_point(m.transform_point(p));
        assert!((back - p).length() < 1e-3);
    });
}

#[test]
fn mat4_composition_associates_with_application() {
    cases(6, CASES, |rng| {
        let (a, b, p) = (pose(rng), pose(rng), vec3(rng, 3.0));
        let (ma, mb): (Mat4, Mat4) = (a.to_mat4(), b.to_mat4());
        let lhs = (ma * mb).transform_point(p);
        let rhs = ma.transform_point(mb.transform_point(p));
        assert!((lhs - rhs).length() < 1e-2);
    });
}

#[test]
fn plane_transform_preserves_signed_distance() {
    cases(7, CASES, |rng| {
        let (pose, n) = (pose(rng), unit_vec3(rng));
        let (point, probe) = (vec3(rng, 3.0), vec3(rng, 5.0));
        let plane = Plane::from_point_normal(point, n);
        let xf = pose.to_mat4();
        let moved = plane.transformed(&xf);
        let d0 = plane.signed_distance(probe);
        let d1 = moved.signed_distance(xf.transform_point(probe));
        assert!((d0 - d1).abs() < 1e-2);
    });
}

#[test]
fn frustum_expansion_is_superset() {
    cases(8, CASES, |rng| {
        let (pose, p) = (pose(rng), vec3(rng, 8.0));
        let guard = rng.gen_range(0.0f32..1.0);
        let f = Frustum::from_params(&pose, &FrustumParams::default());
        if f.contains(p) {
            assert!(f.expanded(guard).contains(p));
        }
    });
}

#[test]
fn frustum_transform_commutes_with_contains() {
    cases(9, CASES, |rng| {
        let (pose, p) = (pose(rng), vec3(rng, 8.0));
        let f = Frustum::from_params(&Pose::IDENTITY, &FrustumParams::default());
        let xf = pose.to_mat4();
        let g = f.transformed(&xf);
        // Skip boundary points where f32 error can legitimately flip the test.
        if f.penetration(p).abs() > 1e-3 {
            assert_eq!(f.contains(p), g.contains(xf.transform_point(p)));
        }
    });
}

#[test]
fn camera_project_unproject_round_trips() {
    cases(10, CASES, |rng| {
        let u = rng.gen_range(0.0f32..640.0);
        let v = rng.gen_range(0.0f32..576.0);
        let z = rng.gen_range(0.3f32..6.0);
        let k = CameraIntrinsics::kinect_depth(1.0);
        let p = k.unproject(u, v, z);
        let (u2, v2, z2) = k.project(p).unwrap();
        assert!((u - u2).abs() < 1e-2);
        assert!((v - v2).abs() < 1e-2);
        assert!((z - z2).abs() < 1e-4);
    });
}

#[test]
fn angle_wrap_is_idempotent() {
    cases(11, CASES, |rng| {
        let w = angles::wrap(rng.gen_range(-100.0f32..100.0));
        assert!((angles::wrap(w) - w).abs() < 1e-6);
        assert!(w > -std::f32::consts::PI - 1e-6);
        assert!(w <= std::f32::consts::PI + 1e-6);
    });
}

#[test]
fn slerp_stays_between_endpoints() {
    cases(12, CASES, |rng| {
        let (qa, qb) = (quat(rng), quat(rng));
        let q = qa.slerp(qb, rng.gen_range(0.0f32..1.0));
        let total = qa.angle_to(qb);
        // Triangle inequality on the rotation group.
        assert!(qa.angle_to(q) <= total + 1e-2);
        assert!(qb.angle_to(q) <= total + 1e-2);
    });
}
