//! The RGB-D renderer: analytic ray casting with a pinhole camera.
//!
//! Produces exactly what a Kinect-class camera produces per frame: a depth
//! image (`u16` millimetres, 0 = no return) and a pixel-aligned RGB colour
//! image at the same resolution (the paper downsamples colour to depth
//! resolution before tiling, §3.2 — our renderer outputs that directly).
//!
//! # Tile binning and ray packets
//!
//! Every pixel casts one ray, but not at every shape. Per camera, each
//! shape's hull is moved into the camera frame once: a ball for a sphere
//! and for the floor disc, the two end balls for a capsule, the centre and
//! rotated half-axes for a box. The image is cut into [`TILE`]×[`TILE`]
//! pixel tiles; a tile's candidate list keeps, in scene order, the shapes
//! whose hull meets the tile's wedge (the four planes through the camera
//! centre and the tile's corner pixel-centre rays) and the
//! `[min_range_m, max_range_m]` depth slab. Each tile row is then cast as
//! one packet of [`LANES`] rays at its tile's list only: one lane body per
//! shape kind returns every lane's hit distance (NaN for none), the
//! packet keeps per lane the nearest hit within range and its shape, and
//! only that final hit is shaded, noised and rounded. A partial packet at
//! the right image edge repeats its last pixel and discards those lanes.
//! The body is compiled twice, at the baseline tier and under AVX2, and
//! picked by [`livo_math::simd::has_avx2`].
//!
//! The output is the same, byte for byte, as casting every pixel's ray
//! alone at every shape (kept as the test oracle in
//! `tests/common/oracle.rs`):
//! - A dropped shape is one that no ray of the tile can hit within range.
//!   Every pixel-centre ray of the tile lies inside its wedge, and every
//!   hull extent is inflated to `extent·1.001 + 1 mm` (ball and capsule
//!   radii first widened by [`GRAZE_M2`] under the root), more than the
//!   rounding in the ray casts and in the move to the camera frame.
//! - The list keeps scene order, and the packet keeps the first of equally
//!   near hits, so ties resolve as they did over the whole scene.
//! - A lane runs the scalar cast's operations in their order: the same
//!   `ray_dir` and `Quat::rotate` calls, and in each lane body the same
//!   products, sums, divisions and square roots, none fused. A branch of
//!   the scalar cast is a mask, so a lane computes both arms and keeps the
//!   one the scalar cast would take. Every one of those operations is
//!   correctly rounded at 128 and 256 bits alike, so each lane is
//!   bit-equal to its ray cast alone, at either tier.
//! - Shading only the final hit shades what the scalar cast stored last,
//!   and [`round_clamp`] equals `f32::round` on `[0.5, 65 535.5)`, the
//!   values that round into `1 ..= 65 535`.

use crate::scene::{RayPacket, SceneSnapshot, ShapeGeom, NO_HIT};
use livo_math::{round_clamp, CameraIntrinsics, Pose, RgbdCamera, Vec3, LANES};
use livo_runtime::WorkerPool;

/// Edge of the square pixel tiles that share one candidate list. One tile
/// row is one ray packet.
const TILE: usize = LANES;

/// Slack in m² added to a ball or capsule radius squared before
/// inflation. A grazing ray's discriminant carries an absolute rounding
/// error of ~1e-5 m² at the 6 m range limit, which can report a ray that
/// passes `sqrt(r² + 1e-5)` from the centre as a hit: for a millimetre
/// ball that is more than [`pad`]'s 1 mm covers.
const GRAZE_M2: f32 = 1e-4;

/// Inflate a hull extent (a radius, or a box's projected half-width) by
/// 0.1 % plus 1 mm.
fn pad(extent: f32) -> f32 {
    extent * 1.001 + 1e-3
}

/// A shape's inflated bound in one camera's local frame.
#[derive(Debug, Clone, Copy)]
enum Hull {
    /// Spheres and the floor disc: centre and inflated radius.
    Ball(Vec3, f32),
    /// A capsule: its end centres and inflated radius. It is outside a
    /// plane when both end balls are.
    Capsule(Vec3, Vec3, f32),
    /// A box: centre and its three half-axes, rotated into the camera frame.
    Box(Vec3, [Vec3; 3]),
}

impl Hull {
    fn new(geom: &ShapeGeom, pose: &Pose) -> Hull {
        let local = |p| pose.inverse_transform_point(p);
        let round = |r: f32| pad((r * r + GRAZE_M2).sqrt());
        match *geom {
            ShapeGeom::Sphere { center, radius } => Hull::Ball(local(center), round(radius)),
            ShapeGeom::Capsule { a, b, radius } => Hull::Capsule(local(a), local(b), round(radius)),
            ShapeGeom::Box { center, half } => {
                let to_local = pose.orientation.conjugate();
                Hull::Box(
                    local(center),
                    [
                        to_local.rotate(Vec3::X * half.x),
                        to_local.rotate(Vec3::Y * half.y),
                        to_local.rotate(Vec3::Z * half.z),
                    ],
                )
            }
            ShapeGeom::Floor { height, radius } => {
                Hull::Ball(local(Vec3::new(0.0, height, 0.0)), pad(radius))
            }
        }
    }

    /// `max n·p` over the inflated hull, for a unit normal `n`.
    fn reach(&self, n: Vec3) -> f32 {
        match *self {
            Hull::Ball(c, r) => n.dot(c) + r,
            Hull::Capsule(a, b, r) => n.dot(a).max(n.dot(b)) + r,
            Hull::Box(c, axes) => n.dot(c) + pad(axes.iter().map(|u| n.dot(*u).abs()).sum()),
        }
    }

    /// Whether the hull meets every plane of `wedge` (inside is `n·p ≥ 0`)
    /// and the depth slab `[near, far]`.
    fn meets(&self, wedge: &[Vec3; 4], near: f32, far: f32) -> bool {
        self.reach(Vec3::Z) >= near
            && -self.reach(-Vec3::Z) <= far
            && wedge.iter().all(|&n| self.reach(n) >= 0.0)
    }
}

/// Unit inward normals of the four planes through the camera centre that
/// bound the pixel-centre rays of pixels `x0..x1` × `y0..y1`.
fn tile_wedge(k: &CameraIntrinsics, x0: usize, x1: usize, y0: usize, y1: usize) -> [Vec3; 4] {
    let left = (x0 as f32 + 0.5 - k.cx) / k.fx;
    let right = (x1 as f32 - 0.5 - k.cx) / k.fx;
    // Image v grows downward, local y upward.
    let top = (k.cy - (y0 as f32 + 0.5)) / k.fy;
    let bottom = (k.cy - (y1 as f32 - 0.5)) / k.fy;
    [
        Vec3::new(1.0, 0.0, -left).normalized(),
        Vec3::new(-1.0, 0.0, right).normalized(),
        Vec3::new(0.0, -1.0, top).normalized(),
        Vec3::new(0.0, 1.0, -bottom).normalized(),
    ]
}

/// Deterministic per-(pixel, time) depth noise, approximating Kinect-class
/// time-of-flight error: ~1.5 mm up close, growing quadratically to ~9 mm at
/// the 6 m range limit. Real depth maps are noisy — this is what makes the
/// depth stream expensive to encode (and why LiVo gives it the larger
/// bandwidth share). Hash-based so the same (pixel, time) always gets the
/// same noise: renders are reproducible.
pub(crate) fn depth_noise_mm(x: usize, y: usize, t_key: u32, depth_mm: f32) -> f32 {
    let mut h = (x as u32).wrapping_mul(0x9E37_79B9)
        ^ (y as u32).wrapping_mul(0x85EB_CA6B)
        ^ t_key.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    h = h.wrapping_mul(0x7FEB_352D);
    h ^= h >> 15;
    h = h.wrapping_mul(0x846C_A68B);
    h ^= h >> 16;
    // Two 16-bit uniforms → triangular ≈ gaussian-ish, zero-mean in [-1, 1].
    let u1 = (h & 0xFFFF) as f32 / 65535.0;
    let u2 = (h >> 16) as f32 / 65535.0;
    let n = (u1 + u2) - 1.0;
    let sigma = 1.5 + 7.5 * (depth_mm / 6000.0).powi(2);
    n * sigma * 1.5
}

/// One camera's output for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbdFrame {
    pub width: usize,
    pub height: usize,
    /// Row-major depth in millimetres; 0 means no return.
    pub depth_mm: Vec<u16>,
    /// Row-major packed RGB; undefined (black) where depth is 0.
    pub rgb: Vec<u8>,
}

impl RgbdFrame {
    pub fn new(width: usize, height: usize) -> Self {
        RgbdFrame {
            width,
            height,
            depth_mm: vec![0; width * height],
            rgb: vec![0; width * height * 3],
        }
    }

    #[inline]
    pub fn depth_at(&self, x: usize, y: usize) -> u16 {
        self.depth_mm[y * self.width + x]
    }

    #[inline]
    pub fn rgb_at(&self, x: usize, y: usize) -> [u8; 3] {
        let i = (y * self.width + x) * 3;
        [self.rgb[i], self.rgb[i + 1], self.rgb[i + 2]]
    }

    /// Number of pixels with a valid depth return.
    pub fn valid_pixels(&self) -> usize {
        self.depth_mm.iter().filter(|&&d| d != 0).count()
    }
}

/// Render the snapshot from one camera.
///
/// Depth is the *z-coordinate in the camera frame* (not ray length), which
/// is what time-of-flight depth images store and what
/// [`livo_math::CameraIntrinsics::unproject`] expects back. Depth carries
/// sensor noise keyed by pixel and `time_key` (pass the frame time so noise
/// varies frame to frame, as on a real sensor). Each tile row is cast as
/// one ray packet at the shapes that can reach its tile (see the module
/// docs). The AVX2 build of the same body runs where the CPU has it; the
/// bytes are the same at every tier.
pub fn render_rgbd_at(camera: &RgbdCamera, scene: &SceneSnapshot, time_key: u32) -> RgbdFrame {
    #[cfg(target_arch = "x86_64")]
    if livo_math::simd::has_avx2() {
        // SAFETY: has_avx2() never reports true unless the CPU supports it.
        return unsafe { render_avx2(camera, scene, time_key) };
    }
    render_body(camera, scene, time_key)
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn render_avx2(camera: &RgbdCamera, scene: &SceneSnapshot, time_key: u32) -> RgbdFrame {
    render_body(camera, scene, time_key)
}

#[inline(always)]
fn render_body(camera: &RgbdCamera, scene: &SceneSnapshot, time_key: u32) -> RgbdFrame {
    let k = &camera.intrinsics;
    let w = k.width as usize;
    let h = k.height as usize;
    let mut out = RgbdFrame::new(w, h);
    let hulls: Vec<Hull> = scene
        .shapes
        .iter()
        .map(|s| Hull::new(&s.geom, &camera.pose))
        .collect();
    let mut candidates = Vec::with_capacity(hulls.len());
    for y0 in (0..h).step_by(TILE) {
        let y1 = (y0 + TILE).min(h);
        for x0 in (0..w).step_by(TILE) {
            let x1 = (x0 + TILE).min(w);
            let wedge = tile_wedge(k, x0, x1, y0, y1);
            candidates.clear();
            candidates.extend(
                (0..hulls.len())
                    .filter(|&i| hulls[i].meets(&wedge, camera.min_range_m, camera.max_range_m)),
            );
            if candidates.is_empty() {
                continue;
            }
            for y in y0..y1 {
                cast_tile_row(&mut out, camera, scene, &candidates, (x0..x1, y), time_key);
            }
        }
    }
    out
}

/// Cast the rays of pixels `xs` (at most [`LANES`]) of row `y` as one
/// packet at the shapes at `candidates`, and store each return in range in
/// `out`. A partial packet repeats its last pixel; those lanes are
/// discarded.
#[inline(always)]
fn cast_tile_row(
    out: &mut RgbdFrame,
    camera: &RgbdCamera,
    scene: &SceneSnapshot,
    candidates: &[usize],
    (xs, y): (std::ops::Range<usize>, usize),
    time_key: u32,
) {
    let mut rays = RayPacket {
        origin: camera.pose.position,
        dir: [[0.0; LANES]; 3],
        s_min: [0.0; LANES],
    };
    let mut cos_axis = [0.0; LANES];
    let mut s_max = [0.0; LANES];
    for l in 0..LANES {
        let x = (xs.start + l).min(xs.end - 1);
        let local_dir = camera.intrinsics.ray_dir(x as f32 + 0.5, y as f32 + 0.5);
        let dir = camera.pose.orientation.rotate(local_dir);
        // The ray's length per unit z: local_dir.z is cos of the angle to
        // the optical axis.
        cos_axis[l] = local_dir.z.max(1e-6);
        rays.s_min[l] = camera.min_range_m / cos_axis[l];
        s_max[l] = camera.max_range_m / cos_axis[l];
        (rays.dir[0][l], rays.dir[1][l], rays.dir[2][l]) = (dir.x, dir.y, dir.z);
    }
    let (s, hit) = scene.cast_packet(candidates, &rays, &s_max);
    for (l, x) in xs.enumerate() {
        if hit[l] == NO_HIT {
            continue;
        }
        let depth_m = s[l] * cos_axis[l];
        let clean_mm = depth_m * 1000.0;
        let depth_mm = clean_mm + depth_noise_mm(x, y, time_key, clean_mm);
        // Exactly the values that round to 1 ..= 65 535.
        if (0.5..65_535.5).contains(&depth_mm) {
            let shape = &scene.shapes[hit[l] as usize];
            let color = shape.texture.color_at(rays.origin + rays.dir(l) * s[l]);
            let i = y * out.width + x;
            out.depth_mm[i] = round_clamp(depth_mm, u16::MAX);
            out.rgb[i * 3..i * 3 + 3].copy_from_slice(&color);
        }
    }
}

/// [`render_rgbd_at`] with a zero time key (static captures, tests).
pub fn render_rgbd(camera: &RgbdCamera, scene: &SceneSnapshot) -> RgbdFrame {
    render_rgbd_at(camera, scene, 0)
}

/// Render the snapshot from every camera of a rig, one pool task per camera
/// (the cameras are independent ray casts over the same immutable snapshot).
/// A single-thread pool — or a single camera — renders serially; the output
/// is identical either way and ordered like `cameras`.
pub fn render_views_at(
    pool: &WorkerPool,
    cameras: &[RgbdCamera],
    scene: &SceneSnapshot,
    time_key: u32,
) -> Vec<RgbdFrame> {
    if pool.threads() <= 1 || cameras.len() <= 1 {
        return cameras
            .iter()
            .map(|c| render_rgbd_at(c, scene, time_key))
            .collect();
    }
    let mut out: Vec<Option<RgbdFrame>> = (0..cameras.len()).map(|_| None).collect();
    pool.scope(|s| {
        for (slot, cam) in out.iter_mut().zip(cameras) {
            s.spawn(move || *slot = Some(render_rgbd_at(cam, scene, time_key)));
        }
    });
    out.into_iter()
        .map(|f| f.expect("render task ran to completion"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetPreset;
    use crate::oracle::render_rgbd_reference;
    use crate::rig;
    use crate::scene::{AnimatedShape, Scene, Texture};
    use livo_math::rng::{cases, SplitMix64};
    use livo_math::Quat;

    /// Pixels whose depth or colour differ.
    fn differing_pixels(a: &RgbdFrame, b: &RgbdFrame) -> usize {
        assert_eq!((a.width, a.height), (b.width, b.height));
        (0..a.depth_mm.len())
            .filter(|&i| {
                a.depth_mm[i] != b.depth_mm[i] || a.rgb[i * 3..i * 3 + 3] != b.rgb[i * 3..i * 3 + 3]
            })
            .count()
    }

    #[test]
    fn tile_binned_render_equals_the_all_shapes_reference_on_every_preset() {
        // 0.06× and 0.08× are 38×35 and 51×46: edge tiles narrower and
        // shorter than TILE.
        for preset in DatasetPreset::all() {
            for scale in [0.06, 0.08, 0.125, 0.25] {
                let ring = rig::camera_ring(
                    4,
                    2.5,
                    1.4,
                    Vec3::new(0.0, 1.0, 0.0),
                    CameraIntrinsics::kinect_depth(scale),
                );
                for cams in [ring, rig::panoptic_rig(scale)] {
                    for (key, t) in [(0, 0.0), (41, 1.37), (299, 9.97)] {
                        let snap = preset.scene.at(t);
                        for (i, cam) in cams.iter().enumerate() {
                            let n = differing_pixels(
                                &render_rgbd_at(cam, &snap, key),
                                &render_rgbd_reference(cam, &snap, key),
                            );
                            assert_eq!(
                                n,
                                0,
                                "{} at {scale}×, t = {t}: camera {i} of {}",
                                preset.id,
                                cams.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packets_equal_the_reference_when_partial_and_when_axis_aligned() {
        // 45 = 5·8 + 5: the last packet of every row repeats its last
        // pixel in three lanes. With an identity orientation, cx = 22.5
        // and cy = 18.5, the rays of column 22 have dir.x == 0.0 and those
        // of row 18 dir.y == 0.0 exactly: box lanes flat on an axis, with
        // the eye inside, outside and on the face of that slab, and floor
        // lanes parallel to the plane.
        let k = CameraIntrinsics {
            width: 45,
            height: 37,
            fx: 40.0,
            fy: 38.0,
            cx: 22.5,
            cy: 18.5,
        };
        let eye = Vec3::new(0.0, 1.0, -3.0);
        let aligned = RgbdCamera::new(k, Pose::new(eye, Quat::IDENTITY));
        let dir = |x: f32, y: f32| aligned.pose.orientation.rotate(k.ray_dir(x + 0.5, y + 0.5));
        assert_eq!(dir(22.0, 3.0).x, 0.0);
        assert_eq!(dir(40.0, 18.0).y, 0.0);
        let mut cams = rig::camera_ring(4, 2.5, 1.4, Vec3::new(0.0, 1.0, 0.0), k);
        cams.push(aligned);
        let mut boxes = Scene::new();
        for (center, half, color) in [
            // Spans x = 0 and y = 1: flat lanes start inside both slabs.
            (
                Vec3::new(0.0, 1.0, 0.5),
                Vec3::new(0.4, 0.3, 0.2),
                [9, 9, 90],
            ),
            // Beside x = 0 and above y = 1: flat lanes start outside.
            (
                Vec3::new(0.6, 1.6, 1.0),
                Vec3::new(0.2, 0.2, 0.2),
                [90, 9, 9],
            ),
            (
                Vec3::new(-0.7, 0.4, 1.5),
                Vec3::new(0.3, 0.4, 0.3),
                [9, 90, 9],
            ),
            // Its x = 0 face holds the eye: column 22 grazes it and hits.
            (
                Vec3::new(-0.25, 1.6, 1.0),
                Vec3::new(0.25, 0.15, 0.1),
                [90, 90, 9],
            ),
        ] {
            boxes.add(AnimatedShape::fixed(
                ShapeGeom::Box { center, half },
                Texture::Solid(color),
            ));
        }
        boxes.add(AnimatedShape::fixed(
            ShapeGeom::Floor {
                height: 0.0,
                radius: 5.0,
            },
            Texture::Checker([200, 200, 200], [30, 30, 30], 0.25),
        ));
        let box_view = render_rgbd_at(&aligned, &boxes.at(0.0), 7);
        assert_eq!(
            box_view.rgb_at(22, 18),
            [9, 9, 90],
            "the near box is in view"
        );
        assert_eq!(
            box_view.rgb_at(22, 13),
            [90, 90, 9],
            "the eye's face box is hit"
        );
        let mut scenes: Vec<Scene> = DatasetPreset::all().into_iter().map(|p| p.scene).collect();
        scenes.push(boxes);
        for scene in &scenes {
            for (key, t) in [(0, 0.0), (41, 1.37), (299, 9.97)] {
                let snap = scene.at(t);
                for (i, cam) in cams.iter().enumerate() {
                    let want = render_rgbd_reference(cam, &snap, key);
                    // The auto-detected tier, then the baseline body.
                    for got in [
                        render_rgbd_at(cam, &snap, key),
                        render_body(cam, &snap, key),
                    ] {
                        assert_eq!(differing_pixels(&got, &want), 0, "t = {t}: camera {i}");
                    }
                }
            }
        }
    }

    fn unit(rng: &mut SplitMix64) -> Vec3 {
        let v = Vec3::new(
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
        );
        if v.length_squared() < 1e-4 {
            Vec3::Y
        } else {
            v.normalized()
        }
    }

    /// One random shape centred on `c`.
    fn random_shape(rng: &mut SplitMix64, c: Vec3) -> ShapeGeom {
        let r = rng.gen_range(0.005f32..0.4);
        match rng.gen_range(0u32..5) {
            0 => ShapeGeom::Sphere {
                center: c,
                radius: r,
            },
            1 => {
                let half = unit(rng) * rng.gen_range(0.0f32..0.8);
                ShapeGeom::Capsule {
                    a: c - half,
                    b: c + half,
                    radius: r,
                }
            }
            // Degenerate: both ends at one point.
            2 => ShapeGeom::Capsule {
                a: c,
                b: c,
                radius: r,
            },
            3 => ShapeGeom::Box {
                center: c,
                half: Vec3::new(
                    rng.gen_range(0.01f32..0.6),
                    rng.gen_range(0.01f32..0.6),
                    rng.gen_range(0.01f32..0.6),
                ),
            },
            // Thin: one axis a millimetre thick.
            _ => {
                let mut half = [
                    rng.gen_range(0.05f32..1.0),
                    rng.gen_range(0.05f32..1.0),
                    rng.gen_range(0.05f32..1.0),
                ];
                half[rng.gen_range(0usize..3)] = 0.001;
                ShapeGeom::Box {
                    center: c,
                    half: Vec3::from_array(half),
                }
            }
        }
    }

    /// A shape that touches a bounding plane of one random tile to within
    /// ±3 mm, from outside or inside: a wedge plane (so the rays along that
    /// tile edge graze it), or the near or far end of the depth slab. Float
    /// rounding decides these hits, which is what the hull inflation is for.
    fn grazing_shape(rng: &mut SplitMix64, cam: &RgbdCamera) -> ShapeGeom {
        let k = &cam.intrinsics;
        let (w, h) = (k.width as usize, k.height as usize);
        let x0 = rng.gen_range(0..w.div_ceil(TILE)) * TILE;
        let y0 = rng.gen_range(0..h.div_ceil(TILE)) * TILE;
        let (x1, y1) = ((x0 + TILE).min(w), (y0 + TILE).min(h));
        let side = rng.gen_range(0usize..6);
        // A pixel on the chosen edge of the tile.
        let (x, y) = match side {
            0 => (x0, rng.gen_range(y0..y1)),
            1 => (x1 - 1, rng.gen_range(y0..y1)),
            2 => (rng.gen_range(x0..x1), y0),
            3 => (rng.gen_range(x0..x1), y1 - 1),
            _ => (rng.gen_range(x0..x1), rng.gen_range(y0..y1)),
        };
        let dir = k.ray_dir(x as f32 + 0.5, y as f32 + 0.5);
        // `p` on the pixel's ray and on the plane, `n` the plane's inward
        // unit normal (camera frame).
        let (p, n) = match side {
            0..=3 => (
                dir * (rng.gen_range(0.3f32..6.0) / dir.z),
                tile_wedge(k, x0, x1, y0, y1)[side],
            ),
            4 => (dir * (cam.min_range_m / dir.z), Vec3::Z),
            _ => (dir * (cam.max_range_m / dir.z), -Vec3::Z),
        };
        // The shape's extreme point along `n` sits at `p + n·delta`, with
        // |delta| log-uniform in 10 nm … 3 mm.
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let delta = sign * 10f32.powf(rng.gen_range(-8.0f32..-2.5));
        let world = |q: Vec3| cam.pose.transform_point(q);
        // Millimetre balls and capsules are where a grazing ray's rounding
        // reaches furthest past the radius.
        let r = if rng.gen_bool(0.5) {
            rng.gen_range(0.0005f32..0.005)
        } else {
            rng.gen_range(0.005f32..0.4)
        };
        match rng.gen_range(0u32..3) {
            0 => ShapeGeom::Sphere {
                center: world(p + n * (delta - r)),
                radius: r,
            },
            1 => {
                let a = p + n * (delta - r);
                let along = n.cross(unit(rng)).normalized() * rng.gen_range(0.0f32..0.8);
                ShapeGeom::Capsule {
                    a: world(a),
                    b: world(a + along),
                    radius: r,
                }
            }
            _ => {
                let half = Vec3::new(
                    rng.gen_range(0.001f32..0.5),
                    rng.gen_range(0.001f32..0.5),
                    rng.gen_range(0.001f32..0.5),
                );
                // Centre so that the box corner furthest along `n` is at
                // `p + n·delta`.
                let to_local = cam.pose.orientation.conjugate();
                let corner: Vec3 = [Vec3::X * half.x, Vec3::Y * half.y, Vec3::Z * half.z]
                    .iter()
                    .map(|&e| {
                        let u = to_local.rotate(e);
                        u * n.dot(u).signum()
                    })
                    .fold(Vec3::ZERO, |acc, u| acc + u);
                ShapeGeom::Box {
                    center: world(p + n * delta - corner),
                    half,
                }
            }
        }
    }

    #[test]
    fn tile_binned_render_equals_the_reference_on_random_scenes() {
        cases(0x7115_B1A5, 512, |rng| {
            // Odd sizes leave edge tiles of 1–7 pixels; an off-centre
            // principal point with fx ≠ fy skews every wedge.
            let (w, h) = (rng.gen_range(8u32..70), rng.gen_range(8u32..70));
            let fx = w as f32 * rng.gen_range(0.4f32..1.6);
            let k = CameraIntrinsics {
                width: w,
                height: h,
                fx,
                fy: fx * rng.gen_range(0.8f32..1.25),
                cx: w as f32 * rng.gen_range(0.3f32..0.7),
                cy: h as f32 * rng.gen_range(0.3f32..0.7),
            };
            let eye = Vec3::new(
                rng.gen_range(-3.0f32..3.0),
                rng.gen_range(0.2f32..2.5),
                rng.gen_range(-3.0f32..3.0),
            );
            let cam = RgbdCamera::new(k, Pose::look_at(eye, eye + unit(rng), Vec3::Y));
            let mut scene = Scene::new();
            for _ in 0..rng.gen_range(4usize..14) {
                let geom = if rng.gen_bool(0.5) {
                    grazing_shape(rng, &cam)
                } else {
                    // A shape around a pixel ray (a little outside the
                    // image too), straddling tiles, near the 0.25 m or 6 m
                    // limit or anywhere between.
                    let u = rng.gen_range(-3.0f32..w as f32 + 3.0);
                    let v = rng.gen_range(-3.0f32..h as f32 + 3.0);
                    let z = match rng.gen_range(0u32..3) {
                        0 => cam.min_range_m + rng.gen_range(-0.05f32..0.05),
                        1 => cam.max_range_m + rng.gen_range(-0.3f32..0.3),
                        _ => rng.gen_range(0.3f32..6.0),
                    };
                    let c = cam.pose.transform_point(k.unproject(u, v, z));
                    random_shape(rng, c)
                };
                let texture = Texture::Checker([200, 40, 40], [40, 40, 200], 0.05);
                scene.add(AnimatedShape::fixed(geom, texture));
            }
            if rng.gen_bool(0.3) {
                // The camera inside a shape's bounding sphere.
                let c = eye + unit(rng) * 0.01;
                let geom = random_shape(rng, c);
                scene.add(AnimatedShape::fixed(geom, Texture::Solid([9, 90, 9])));
            }
            if rng.gen_bool(0.3) {
                let floor = ShapeGeom::Floor {
                    height: eye.y - rng.gen_range(0.1f32..2.0),
                    radius: rng.gen_range(0.5f32..8.0),
                };
                scene.add(AnimatedShape::fixed(floor, Texture::Solid([90, 9, 9])));
            }
            let snap = scene.at(0.0);
            let key = rng.gen_range(0u32..1000);
            let n = differing_pixels(
                &render_rgbd_at(&cam, &snap, key),
                &render_rgbd_reference(&cam, &snap, key),
            );
            assert_eq!(n, 0, "{w}×{h}, {} shapes", snap.shapes.len());
        });
    }

    fn camera_at_origin(scale: f32) -> RgbdCamera {
        RgbdCamera::new(CameraIntrinsics::kinect_depth(scale), Pose::IDENTITY)
    }

    fn sphere_scene(z: f32, r: f32, color: [u8; 3]) -> Scene {
        let mut s = Scene::new();
        s.add(AnimatedShape::fixed(
            ShapeGeom::Sphere {
                center: Vec3::new(0.0, 0.0, z),
                radius: r,
            },
            Texture::Solid(color),
        ));
        s
    }

    #[test]
    fn center_pixel_sees_sphere_depth() {
        let cam = camera_at_origin(0.25);
        let scene = sphere_scene(3.0, 0.5, [10, 200, 30]);
        let frame = render_rgbd(&cam, &scene.at(0.0));
        let (cx, cy) = (frame.width / 2, frame.height / 2);
        let d = frame.depth_at(cx, cy);
        assert!(
            (d as i32 - 2500).abs() <= 15,
            "depth {d} ≉ 2500 mm (noise ≤ ~3σ)"
        );
        assert_eq!(frame.rgb_at(cx, cy), [10, 200, 30]);
    }

    #[test]
    fn background_pixels_have_zero_depth() {
        let cam = camera_at_origin(0.25);
        let scene = sphere_scene(3.0, 0.3, [1, 1, 1]);
        let frame = render_rgbd(&cam, &scene.at(0.0));
        assert_eq!(frame.depth_at(0, 0), 0, "corner misses the small sphere");
        assert_eq!(frame.rgb_at(0, 0), [0, 0, 0]);
        assert!(frame.valid_pixels() > 0);
        assert!(frame.valid_pixels() < frame.width * frame.height);
    }

    #[test]
    fn objects_beyond_range_are_invisible() {
        let cam = camera_at_origin(0.2);
        let scene = sphere_scene(8.0, 0.5, [1, 1, 1]); // beyond 6 m max range
        let frame = render_rgbd(&cam, &scene.at(0.0));
        assert_eq!(frame.valid_pixels(), 0);
    }

    #[test]
    fn objects_closer_than_min_range_are_invisible() {
        let cam = camera_at_origin(0.2);
        let scene = sphere_scene(0.1, 0.05, [1, 1, 1]); // inside 0.25 m min range
        let frame = render_rgbd(&cam, &scene.at(0.0));
        assert_eq!(frame.valid_pixels(), 0);
    }

    #[test]
    fn depth_is_axial_not_radial() {
        // A wall (big box face) at z = 2: every pixel that hits it should
        // read ~2000 mm regardless of image position, because ToF depth
        // images store z, not ray length.
        let cam = camera_at_origin(0.25);
        let mut scene = Scene::new();
        scene.add(AnimatedShape::fixed(
            ShapeGeom::Box {
                center: Vec3::new(0.0, 0.0, 2.05),
                half: Vec3::new(5.0, 5.0, 0.05),
            },
            Texture::Solid([9, 9, 9]),
        ));
        let frame = render_rgbd(&cam, &scene.at(0.0));
        let corner = frame.depth_at(2, 2);
        let center = frame.depth_at(frame.width / 2, frame.height / 2);
        assert!((corner as i32 - 2000).abs() <= 15, "corner {corner}");
        assert!((center as i32 - 2000).abs() <= 15, "center {center}");
    }

    #[test]
    fn unproject_render_round_trip() {
        // Rendering then back-projecting the centre pixel lands on the
        // sphere surface.
        let cam = camera_at_origin(0.25);
        let scene = sphere_scene(3.0, 0.5, [1, 1, 1]);
        let frame = render_rgbd(&cam, &scene.at(0.0));
        let (cx, cy) = (frame.width / 2, frame.height / 2);
        let world = cam
            .pixel_to_world(cx as u32, cy as u32, frame.depth_at(cx, cy))
            .unwrap();
        // Sphere at (0,0,3) r=0.5: nearest surface point ≈ (0,0,2.5).
        assert!(
            (world - Vec3::new(0.0, 0.0, 2.5)).length() < 0.05,
            "{world:?}"
        );
    }

    #[test]
    fn moving_object_changes_frames() {
        use crate::scene::Animation;
        let cam = camera_at_origin(0.2);
        let mut scene = Scene::new();
        scene.add(AnimatedShape {
            geom: ShapeGeom::Sphere {
                center: Vec3::new(0.0, 0.0, 3.0),
                radius: 0.5,
            },
            texture: Texture::Solid([50, 50, 50]),
            animation: Animation::Sway {
                axis: Vec3::X,
                amplitude: 1.0,
                freq_hz: 0.5,
                phase: 0.0,
            },
        });
        let f0 = render_rgbd(&cam, &scene.at(0.0));
        let f1 = render_rgbd(&cam, &scene.at(0.5));
        assert_ne!(f0.depth_mm, f1.depth_mm, "animation must move depth pixels");
    }
}
