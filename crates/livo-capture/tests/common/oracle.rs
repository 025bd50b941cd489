//! The renderer as it was first written, kept as the test oracle of
//! `render_rgbd_at`: every pixel's ray cast alone, at every shape of the
//! scene, with no tile binning and no ray packets; a hit is shaded as soon
//! as it is the nearest so far, and depth is rounded by `f32::round`.
//! Nothing outside tests uses it.
//!
//! Included once, as `crate::oracle`, by `src/lib.rs` under `#[cfg(test)]`;
//! `render.rs`'s and `scene.rs`'s unit tests use it.

use crate::render::{depth_noise_mm, RgbdFrame};
use crate::scene::{ResolvedShape, SceneSnapshot, ShapeGeom};
use livo_math::{RgbdCamera, Vec3};

/// Render the snapshot from one camera, casting each ray at all shapes.
/// Must equal `render_rgbd_at` byte for byte.
pub fn render_rgbd_reference(
    camera: &RgbdCamera,
    scene: &SceneSnapshot,
    time_key: u32,
) -> RgbdFrame {
    let k = &camera.intrinsics;
    let mut out = RgbdFrame::new(k.width as usize, k.height as usize);
    let all: Vec<usize> = (0..scene.shapes.len()).collect();
    for y in 0..out.height {
        for x in 0..out.width {
            cast_pixel(&mut out, camera, scene, &all, (x, y), time_key);
        }
    }
    out
}

/// Cast pixel `(x, y)`'s ray at the shapes at `candidates` and store the
/// return, if there is one in range, in `out`.
fn cast_pixel(
    out: &mut RgbdFrame,
    camera: &RgbdCamera,
    scene: &SceneSnapshot,
    candidates: &[usize],
    (x, y): (usize, usize),
    time_key: u32,
) {
    let local_dir = camera.intrinsics.ray_dir(x as f32 + 0.5, y as f32 + 0.5);
    let dir = camera.pose.orientation.rotate(local_dir);
    // The ray's length per unit z: local_dir.z is cos of the angle to the
    // optical axis.
    let cos_axis = local_dir.z.max(1e-6);
    let s_min = camera.min_range_m / cos_axis;
    let s_max = camera.max_range_m / cos_axis;
    let origin = camera.pose.position;
    if let Some((s, color)) = scene.cast_ray(candidates, origin, dir, s_min, s_max) {
        let depth_m = s * cos_axis;
        let clean_mm = depth_m * 1000.0;
        let depth_mm = (clean_mm + depth_noise_mm(x, y, time_key, clean_mm)).round();
        if depth_mm >= 1.0 && depth_mm <= u16::MAX as f32 {
            let i = y * out.width + x;
            out.depth_mm[i] = depth_mm as u16;
            out.rgb[i * 3] = color[0];
            out.rgb[i * 3 + 1] = color[1];
            out.rgb[i * 3 + 2] = color[2];
        }
    }
}

impl SceneSnapshot {
    /// Nearest intersection along the ray among the shapes at `candidates`
    /// (indices into `shapes`, ascending). Returns `(distance, colour)`; of
    /// equally near hits the first candidate wins, so a candidate list that
    /// keeps scene order and leaves out only shapes the ray cannot hit
    /// within `s_max` returns what the whole scene would.
    pub fn cast_ray(
        &self,
        candidates: &[usize],
        origin: Vec3,
        dir: Vec3,
        s_min: f32,
        s_max: f32,
    ) -> Option<(f32, [u8; 3])> {
        let mut best: Option<(f32, [u8; 3])> = None;
        for shape in candidates.iter().map(|&i| &self.shapes[i]) {
            if let Some(s) = shape.intersect(origin, dir, s_min) {
                if s <= s_max && best.is_none_or(|(bs, _)| s < bs) {
                    let hit = origin + dir * s;
                    best = Some((s, shape.texture.color_at(hit)));
                }
            }
        }
        best
    }
}

impl ResolvedShape {
    /// Ray intersection: smallest `s > s_min` with `origin + s·dir` on the
    /// surface. `dir` must be unit length.
    pub fn intersect(&self, origin: Vec3, dir: Vec3, s_min: f32) -> Option<f32> {
        match self.geom {
            ShapeGeom::Sphere { center, radius } => ray_sphere(origin, dir, center, radius, s_min),
            ShapeGeom::Capsule { a, b, radius } => ray_capsule(origin, dir, a, b, radius, s_min),
            ShapeGeom::Box { center, half } => ray_aabb(origin, dir, center, half, s_min),
            ShapeGeom::Floor { height, radius } => {
                if dir.y.abs() < 1e-8 {
                    return None;
                }
                let s = (height - origin.y) / dir.y;
                if s <= s_min {
                    return None;
                }
                let hit = origin + dir * s;
                let r2 = hit.x * hit.x + hit.z * hit.z;
                (r2 <= radius * radius).then_some(s)
            }
        }
    }
}

fn ray_sphere(o: Vec3, d: Vec3, c: Vec3, r: f32, s_min: f32) -> Option<f32> {
    let oc = o - c;
    let b = oc.dot(d);
    let disc = b * b - (oc.length_squared() - r * r);
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let s1 = -b - sq;
    if s1 > s_min {
        return Some(s1);
    }
    let s2 = -b + sq;
    (s2 > s_min).then_some(s2)
}

fn ray_aabb(o: Vec3, d: Vec3, c: Vec3, half: Vec3, s_min: f32) -> Option<f32> {
    let lo = c - half;
    let hi = c + half;
    let mut tmin = f32::NEG_INFINITY;
    let mut tmax = f32::INFINITY;
    for axis in 0..3 {
        let (o_a, d_a, lo_a, hi_a) = (o[axis], d[axis], lo[axis], hi[axis]);
        if d_a.abs() < 1e-9 {
            if o_a < lo_a || o_a > hi_a {
                return None;
            }
            continue;
        }
        let inv = 1.0 / d_a;
        let (t0, t1) = {
            let a = (lo_a - o_a) * inv;
            let b = (hi_a - o_a) * inv;
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        };
        tmin = tmin.max(t0);
        tmax = tmax.min(t1);
        if tmin > tmax {
            return None;
        }
    }
    if tmin > s_min {
        Some(tmin)
    } else if tmax > s_min {
        Some(tmax)
    } else {
        None
    }
}

fn ray_capsule(o: Vec3, d: Vec3, a: Vec3, b: Vec3, r: f32, s_min: f32) -> Option<f32> {
    // Infinite-cylinder intersection around axis a→b, then validate the hit
    // lies between the caps; cap spheres handle the ends.
    let axis = b - a;
    let len2 = axis.length_squared();
    if len2 < 1e-12 {
        return ray_sphere(o, d, a, r, s_min);
    }
    let mut best: Option<f32> = None;
    let mut consider = |s: Option<f32>| {
        if let Some(s) = s {
            if s > s_min && best.is_none_or(|bst| s < bst) {
                best = Some(s);
            }
        }
    };

    // Cylinder part: project out the axis component.
    let ao = o - a;
    let d_perp = d - axis * (d.dot(axis) / len2);
    let ao_perp = ao - axis * (ao.dot(axis) / len2);
    let qa = d_perp.length_squared();
    if qa > 1e-12 {
        let qb = 2.0 * d_perp.dot(ao_perp);
        let qc = ao_perp.length_squared() - r * r;
        let disc = qb * qb - 4.0 * qa * qc;
        if disc >= 0.0 {
            let sq = disc.sqrt();
            for s in [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)] {
                if s > s_min {
                    // Validate against caps.
                    let hit = o + d * s;
                    let u = (hit - a).dot(axis) / len2;
                    if (0.0..=1.0).contains(&u) {
                        consider(Some(s));
                    }
                }
            }
        }
    }
    // Cap spheres.
    consider(ray_sphere(o, d, a, r, s_min));
    consider(ray_sphere(o, d, b, r, s_min));
    best
}
