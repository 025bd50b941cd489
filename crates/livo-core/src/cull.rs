//! RGB-D view culling: removing pixels outside the receiver's frustum
//! *without* reconstructing a point cloud.
//!
//! §3.4 of the paper: for each camera, transform the frustum into the
//! camera's local coordinate frame once, then test each pixel's
//! back-projected local point against the six planes. A point is outside
//! if it is on the outward side of any plane. Culled pixels are zeroed in
//! both depth and colour, which makes them (a) free to encode — zero
//! regions compress to nothing — and (b) recognisable as "no data" at the
//! receiver.
//!
//! # Fast path
//!
//! Culling runs per pixel per camera per frame, so it is one of the
//! pipeline's hot kernels. [`CullContext`] holds a cached per-camera
//! [`RayTable`] (the unprojection rays never change while intrinsics are
//! fixed) and every pass runs through `cull_row`: depth rows are walked in
//! 16-pixel chunks, chunks whose depths are all zero (the common case after
//! background removal) are skipped with one scan, and non-empty chunks
//! evaluate all six plane tests branch-free over small fixed-size arrays
//! that LLVM can vectorise. The per-pixel decisions are **bit-identical** to
//! the per-pixel cull it replaced, kept as the test oracle in
//! `tests/common/oracle.rs`: the ray table reproduces
//! [`CameraIntrinsics::unproject`] exactly (see `livo_math::raytable`), and
//! the chunk kernel evaluates the same [`Plane::signed_distance`] ≥ 0
//! comparisons — computing them unconditionally and AND/OR-ing the results
//! changes the schedule, not the outcome. Pinned by
//! `fast_union_cull_is_bit_identical_to_reference` here and by
//! `tests/kernel_differential.rs` across all five dataset presets.
//!
//! There is one cull body, [`CullContext::cull`]: any number of frusta —
//! equal ones tested once, since a union is duplicate-free — over one row
//! loop on the calling thread. Long-lived callers hold a
//! [`CullContext`] to amortise the ray tables and to export
//! `cull.lut_rebuilds` / `kernel.cull_ns_per_mpx` telemetry; the free
//! [`cull_views`] runs it on an ephemeral context (it rebuilds the tables
//! each call: width + height divisions per camera, negligible next to the
//! per-pixel work).

use std::sync::Arc;
use std::time::Instant;

use livo_capture::RgbdFrame;
use livo_math::{CameraIntrinsics, Frustum, Plane, RayTable, RgbdCamera, Vec3};
use livo_runtime::WorkerPool;
use livo_telemetry::registry::{Counter, Gauge, MetricsRegistry};

/// Statistics of one cull pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CullStats {
    pub total_valid: usize,
    pub kept: usize,
}

impl CullStats {
    /// Fraction of valid pixels kept.
    pub fn keep_fraction(&self) -> f64 {
        if self.total_valid == 0 {
            0.0
        } else {
            self.kept as f64 / self.total_valid as f64
        }
    }
}

/// Pixels per chunk of the branch-free row kernel. 16 depths fill a cache
/// line and give LLVM a full vector lane set to work with.
const CHUNK: usize = 16;

/// Cull one depth/colour row pair in place against `frusta` (a pixel
/// survives when *any* frustum contains it; single-frustum culls pass a
/// one-element slice). `ray_x` are the per-column ray components of the
/// camera's [`RayTable`], `ray_y_v` the component of this row.
///
/// Depth rows are walked in 16-pixel chunks, all-zero chunks skipped with
/// one scan, non-empty chunks evaluating all six plane tests branch-free
/// over small fixed arrays LLVM vectorises, one frustum after another until
/// every valid lane of the chunk is kept.
///
/// Decisions are bit-identical to the per-pixel reference: each lane
/// computes `signed_distance(ray·z) >= 0.0` for the same planes in the same
/// point; conjunction/disjunction of identical comparisons is order-free.
/// Lanes with zero depth produce a mask that the apply pass never reads, so
/// their rgb bytes are left untouched exactly like the reference.
#[inline]
fn cull_row(
    frusta: &[Frustum],
    ray_x: &[f32],
    ray_y_v: f32,
    drow: &mut [u16],
    crow: &mut [u8],
    stats: &mut CullStats,
) {
    let width = drow.len();
    let mut x0 = 0;
    while x0 + CHUNK <= width {
        let dchunk = &mut drow[x0..x0 + CHUNK];
        if dchunk.iter().all(|&d| d == 0) {
            x0 += CHUNK;
            continue;
        }
        let rx = &ray_x[x0..x0 + CHUNK];
        let mut z = [0.0f32; CHUNK];
        let mut px = [0.0f32; CHUNK];
        let mut py = [0.0f32; CHUNK];
        for i in 0..CHUNK {
            // Division (not a reciprocal multiply): must match `d / 1000.0`
            // in the reference bit for bit.
            z[i] = dchunk[i] as f32 / 1000.0;
            px[i] = rx[i] * z[i];
            py[i] = ray_y_v * z[i];
        }
        // Lanes without depth count as kept from the start: the apply pass
        // never reads them, and it lets "every lane kept" end the loop.
        let mut keep: [bool; CHUNK] = std::array::from_fn(|i| dchunk[i] == 0);
        for f in frusta {
            // A frustum can only add lanes, so once all are kept the rest
            // of a large union (the SFU's ~48 frusta) cannot change a mask.
            if keep.iter().all(|&k| k) {
                break;
            }
            let mut inside = [true; CHUNK];
            for pl in &f.planes {
                for i in 0..CHUNK {
                    inside[i] &= pl.signed_distance(Vec3::new(px[i], py[i], z[i])) >= 0.0;
                }
            }
            for i in 0..CHUNK {
                keep[i] |= inside[i];
            }
        }
        let cchunk = &mut crow[x0 * 3..(x0 + CHUNK) * 3];
        for i in 0..CHUNK {
            if dchunk[i] == 0 {
                continue;
            }
            stats.total_valid += 1;
            if keep[i] {
                stats.kept += 1;
            } else {
                dchunk[i] = 0;
                cchunk[i * 3] = 0;
                cchunk[i * 3 + 1] = 0;
                cchunk[i * 3 + 2] = 0;
            }
        }
        x0 += CHUNK;
    }
    // Tail when the width is not a multiple of CHUNK: plain per-pixel path
    // (same ray products, same `contains` comparisons).
    for x in x0..width {
        let d = drow[x];
        if d == 0 {
            continue;
        }
        stats.total_valid += 1;
        let zv = d as f32 / 1000.0;
        let p = Vec3::new(ray_x[x] * zv, ray_y_v * zv, zv);
        if frusta.iter().any(|f| f.contains(p)) {
            stats.kept += 1;
        } else {
            drow[x] = 0;
            crow[x * 3] = 0;
            crow[x * 3 + 1] = 0;
            crow[x * 3 + 2] = 0;
        }
    }
}

/// Reusable per-sender culling state: cached unprojection tables plus
/// optional telemetry. Results are identical whether a context is reused or
/// rebuilt every call — reuse only saves the table builds.
#[derive(Default)]
pub struct CullContext {
    /// One [`RayTable`] per camera index, lazily (re)built when the
    /// camera's intrinsics change.
    tables: Vec<RayTable>,
    /// Scratch: the distinct frusta of a union, then their camera-local
    /// transforms.
    distinct: Vec<Frustum>,
    local_frusta: Vec<Frustum>,
    /// Counts table (re)builds — steady state is zero per frame.
    lut_rebuilds: Option<Arc<Counter>>,
    /// Most recent cull cost, nanoseconds per megapixel scanned.
    ns_per_mpx: Option<Arc<Gauge>>,
}

impl CullContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register this context's metrics: `cull.lut_rebuilds` (counter) and
    /// `kernel.cull_ns_per_mpx` (gauge, set after every pass). Also stamps
    /// the `kernel.simd_level` gauge with the runtime dispatch tier
    /// (0 = scalar, 1 = sse2, 2 = avx2) — constant per process, published
    /// here so any telemetry consumer can correlate kernel timings with the
    /// tier that produced them.
    pub(crate) fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.lut_rebuilds = Some(registry.counter("cull.lut_rebuilds"));
        self.ns_per_mpx = Some(registry.gauge("kernel.cull_ns_per_mpx"));
        registry
            .gauge("kernel.simd_level")
            .set(livo_math::simd::level() as f64);
    }

    /// Make `tables[i]` current for every camera, counting rebuilds.
    fn refresh_tables(&mut self, cameras: &[RgbdCamera]) {
        if self.tables.len() < cameras.len() {
            self.tables.resize_with(cameras.len(), RayTable::empty);
        }
        for (table, cam) in self.tables.iter_mut().zip(cameras) {
            if !table.matches(&cam.intrinsics) {
                *table = RayTable::build(&cam.intrinsics);
                if let Some(c) = &self.lut_rebuilds {
                    c.inc();
                }
            }
        }
    }

    fn record_cost(&self, started: Option<Instant>, pixels: usize) {
        if let (Some(t0), Some(g)) = (started, &self.ns_per_mpx) {
            if pixels > 0 {
                g.set(t0.elapsed().as_nanos() as f64 / (pixels as f64 / 1e6));
            }
        }
    }

    /// Cull every view in place against the **union** of `frusta`: a pixel
    /// survives when *any* (world-space) frustum contains its back-projected
    /// point. One frustum is the two-party sender's cull; several are the
    /// SFU's encode-sharing primitive (the paper's §5 multi-way
    /// optimisation), where one pass serves a whole cluster of receivers.
    ///
    /// The rows are walked on the calling thread. Row bands over a worker
    /// pool measured slower than this loop on two CPUs: 1.06–1.48× its time
    /// for ten full-resolution views in 9 of 10 runs, and 2.6–4.2× at 0.08
    /// scale (EXPERIMENTS.md, "Item 9's pool rows").
    pub fn cull(
        &mut self,
        views: &mut [RgbdFrame],
        cameras: &[RgbdCamera],
        frusta: &[Frustum],
    ) -> CullStats {
        assert!(!frusta.is_empty(), "cull needs at least one frustum");
        assert_eq!(views.len(), cameras.len());
        self.refresh_tables(cameras);
        let started = self.ns_per_mpx.as_ref().map(|_| Instant::now());
        let mut stats = CullStats::default();
        let mut pixels = 0usize;
        let CullContext {
            tables,
            distinct,
            local_frusta,
            ..
        } = self;
        // A union is order- and duplicate-free, so equal frusta are tested
        // once (`==` also equates planes that differ only in the sign of a
        // zero, which decide every `>= 0.0` alike): an SFU cluster's static
        // viewers predict the same one (4 distinct of 48 in `sfu_fanout`),
        // and the camera loop below costs per distinct view, not per member.
        distinct.clear();
        for f in frusta {
            if !distinct.contains(f) {
                distinct.push(*f);
            }
        }
        for ((view, cam), table) in views.iter_mut().zip(cameras).zip(tables.iter()) {
            // Transform the frusta into this camera's local frame: cheaper
            // than transforming every pixel into world coordinates.
            local_frusta.clear();
            local_frusta.extend(
                distinct
                    .iter()
                    .map(|f| f.transformed(&cam.world_to_local())),
            );
            let (width, height) = (view.width, view.height);
            if width == 0 || height == 0 {
                continue;
            }
            pixels += width * height;
            let ray_y = table.ray_y();
            for (y, (drow, crow)) in view
                .depth_mm
                .chunks_mut(width)
                .zip(view.rgb.chunks_mut(width * 3))
                .enumerate()
            {
                cull_row(
                    local_frusta,
                    table.ray_x(),
                    ray_y[y],
                    drow,
                    crow,
                    &mut stats,
                );
            }
        }
        self.record_cost(started, pixels);
        stats
    }

    /// [`CullContext::cull`] against one frustum. `_pool` is unused: the
    /// name and signature stay only because `benchmark/src/adapters.rs`
    /// calls them, until the benchmark's own call and SFU loops go
    /// (ROADMAP item 3).
    /// Nothing else calls this.
    pub fn cull_views_on(
        &mut self,
        _pool: &WorkerPool,
        views: &mut [RgbdFrame],
        cameras: &[RgbdCamera],
        frustum: &Frustum,
    ) -> CullStats {
        self.cull(views, cameras, std::slice::from_ref(frustum))
    }
}

/// Cull every view in place against the (world-space) frustum, inline on
/// the calling thread: [`CullContext::cull`] on an ephemeral context.
pub fn cull_views(views: &mut [RgbdFrame], cameras: &[RgbdCamera], frustum: &Frustum) -> CullStats {
    CullContext::new().cull(views, cameras, std::slice::from_ref(frustum))
}

// Re-assert the types the fast path's bit-identity argument leans on, so a
// refactor of livo-math that changes them fails here with a message rather
// than silently changing cull decisions.
const _: fn(&Plane, Vec3) -> f32 = Plane::signed_distance;
const _: fn(&CameraIntrinsics, f32, f32, f32) -> Vec3 = CameraIntrinsics::unproject;

/// Measure, without modifying, how many pixels would survive a cull —
/// used by the Fig. 15 accuracy analysis (culling accuracy = kept ∩ truth
/// over truth).
pub fn cull_accuracy(
    views: &[RgbdFrame],
    cameras: &[RgbdCamera],
    predicted: &Frustum,
    truth: &Frustum,
) -> CullAccuracy {
    let mut acc = CullAccuracy::default();
    for (view, cam) in views.iter().zip(cameras) {
        let pred_local = predicted.transformed(&cam.world_to_local());
        let truth_local = truth.transformed(&cam.world_to_local());
        let k = &cam.intrinsics;
        for y in 0..view.height {
            for x in 0..view.width {
                let d = view.depth_mm[y * view.width + x];
                if d == 0 {
                    continue;
                }
                let local = k.unproject(x as f32 + 0.5, y as f32 + 0.5, d as f32 / 1000.0);
                let in_pred = pred_local.contains(local);
                let in_truth = truth_local.contains(local);
                acc.total += 1;
                if in_truth {
                    acc.needed += 1;
                    if in_pred {
                        acc.covered += 1;
                    }
                }
                if in_pred {
                    acc.sent += 1;
                }
            }
        }
    }
    acc
}

/// Accuracy of predictive culling against the true frustum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CullAccuracy {
    /// Valid pixels in all views.
    pub total: u64,
    /// Pixels inside the *true* frustum.
    pub needed: u64,
    /// Needed pixels that the predicted (guard-banded) frustum kept.
    pub covered: u64,
    /// Pixels the predicted frustum kept (needed or not) — the data volume.
    pub sent: u64,
}

impl CullAccuracy {
    /// Fig. 15's "accuracy": fraction of needed pixels covered.
    pub fn accuracy(&self) -> f64 {
        if self.needed == 0 {
            1.0
        } else {
            self.covered as f64 / self.needed as f64
        }
    }

    /// Fig. 15's bracketed number: fraction of all points sent.
    pub fn sent_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sent as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
#[path = "../tests/common/oracle.rs"]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::cull_views_union_reference;
    use super::*;
    use livo_capture::scene::{AnimatedShape, Scene, ShapeGeom, Texture};
    use livo_capture::{render_rgbd, rig};
    use livo_math::{Frustum, FrustumParams, Pose, Vec3};

    fn test_scene() -> Scene {
        let mut s = Scene::new();
        s.add(AnimatedShape::fixed(
            ShapeGeom::Sphere {
                center: Vec3::new(0.0, 1.0, 0.0),
                radius: 0.4,
            },
            Texture::Solid([200, 30, 30]),
        ));
        s.add(AnimatedShape::fixed(
            ShapeGeom::Sphere {
                center: Vec3::new(1.5, 1.0, 0.0),
                radius: 0.4,
            },
            Texture::Solid([30, 200, 30]),
        ));
        s
    }

    fn render_all(cams: &[livo_math::RgbdCamera]) -> Vec<RgbdFrame> {
        let snap = test_scene().at(0.0);
        cams.iter().map(|c| render_rgbd(c, &snap)).collect()
    }

    #[test]
    fn full_scene_frustum_keeps_everything() {
        let cams = rig::camera_ring(
            4,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.15),
        );
        let mut views = render_all(&cams);
        let viewer = Pose::look_at(Vec3::new(0.0, 1.2, -4.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
        let wide = Frustum::from_params(
            &viewer,
            &FrustumParams {
                hfov: 2.0,
                aspect: 1.6,
                near: 0.05,
                far: 20.0,
            },
        );
        let before: usize = views.iter().map(|v| v.valid_pixels()).sum();
        let stats = cull_views(&mut views, &cams, &wide);
        assert_eq!(stats.total_valid, before);
        assert_eq!(stats.kept, before, "wide frustum sees the whole scene");
    }

    #[test]
    fn narrow_frustum_culls_off_target_object() {
        let cams = rig::camera_ring(
            4,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.15),
        );
        let mut views = render_all(&cams);
        // Look only at the red sphere at the origin, narrowly.
        let viewer = Pose::look_at(Vec3::new(0.0, 1.0, -3.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
        let narrow = Frustum::from_params(
            &viewer,
            &FrustumParams {
                hfov: 0.35,
                aspect: 1.0,
                near: 0.05,
                far: 20.0,
            },
        );
        let stats = cull_views(&mut views, &cams, &narrow);
        assert!(stats.kept > 0, "target object survives");
        assert!(
            stats.keep_fraction() < 0.8,
            "off-target content culled: kept {}",
            stats.keep_fraction()
        );
        // Every surviving pixel back-projects inside the frustum.
        for (view, cam) in views.iter().zip(&cams) {
            for y in 0..view.height {
                for x in 0..view.width {
                    let d = view.depth_mm[y * view.width + x];
                    if d != 0 {
                        let w = cam.pixel_to_world(x as u32, y as u32, d).unwrap();
                        assert!(narrow.contains(w), "kept pixel outside frustum: {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn culled_pixels_are_fully_zeroed() {
        let cams = rig::camera_ring(
            2,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.15),
        );
        let mut views = render_all(&cams);
        // A frustum looking away from everything.
        let away = Pose::look_at(
            Vec3::new(0.0, 1.0, -3.0),
            Vec3::new(0.0, 1.0, -10.0),
            Vec3::Y,
        );
        let f = Frustum::from_params(
            &away,
            &FrustumParams {
                hfov: 0.4,
                aspect: 1.0,
                near: 0.1,
                far: 5.0,
            },
        );
        let stats = cull_views(&mut views, &cams, &f);
        assert_eq!(stats.kept, 0);
        for v in &views {
            assert_eq!(v.valid_pixels(), 0);
            assert!(v.rgb.iter().all(|&b| b == 0), "colour zeroed too");
        }
    }

    /// A handful of viewer frusta that exercise keep-all, cull-most and
    /// mixed outcomes.
    fn test_frusta() -> Vec<Frustum> {
        let mk = |eye: Vec3, at: Vec3, hfov: f32| {
            Frustum::from_params(
                &Pose::look_at(eye, at, Vec3::Y),
                &FrustumParams {
                    hfov,
                    aspect: 1.3,
                    near: 0.1,
                    far: 8.0,
                },
            )
        };
        vec![
            mk(Vec3::new(0.0, 1.2, -4.0), Vec3::new(0.0, 1.0, 0.0), 2.0),
            mk(Vec3::new(1.0, 1.4, -2.5), Vec3::new(0.5, 1.0, 0.0), 0.8),
            mk(Vec3::new(0.0, 1.0, -3.0), Vec3::new(0.0, 1.0, 0.0), 0.35),
            mk(Vec3::new(-2.0, 1.0, 1.0), Vec3::new(1.5, 1.0, 0.0), 0.6),
        ]
    }

    #[test]
    fn fast_cull_is_bit_identical_to_reference() {
        // Odd scale → width 77, not a multiple of the chunk size, so the
        // tail path is exercised too.
        let cams = rig::camera_ring(
            3,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.12),
        );
        let views = render_all(&cams);
        let mut ctx = CullContext::new();
        for f in test_frusta() {
            let one = std::slice::from_ref(&f);
            let mut fast = views.clone();
            let fast_stats = ctx.cull(&mut fast, &cams, one);
            let mut naive = views.clone();
            let naive_stats = cull_views_union_reference(&mut naive, &cams, one);
            assert_eq!(fast_stats, naive_stats);
            for (a, b) in fast.iter().zip(&naive) {
                assert_eq!(a.depth_mm, b.depth_mm, "depth masks differ");
                assert_eq!(a.rgb, b.rgb, "rgb masks differ");
            }
        }
    }

    #[test]
    fn attach_telemetry_publishes_simd_level() {
        let registry = MetricsRegistry::new();
        let mut ctx = CullContext::new();
        ctx.attach_telemetry(&registry);
        assert_eq!(
            registry.snapshot().gauge("kernel.simd_level"),
            Some(livo_math::simd::level() as f64)
        );
    }

    #[test]
    fn fast_union_cull_is_bit_identical_to_reference() {
        let cams = rig::camera_ring(
            3,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.12),
        );
        let views = render_all(&cams);
        let frusta = test_frusta();
        // The first of them keeps everything, so the prefixes end the
        // frusta loop after one; `keep_all_last` puts it behind the two
        // narrow ones, which keep part of a chunk first.
        let keep_all_last = [frusta[1], frusta[2], frusta[0]];
        let unions = [
            &frusta[..2],
            &frusta[..3],
            &frusta[..],
            &frusta[1..],
            &keep_all_last[..],
        ];
        let mut ctx = CullContext::new();
        for union in unions {
            let mut naive = views.clone();
            let naive_stats = cull_views_union_reference(&mut naive, &cams, union);
            let mut fast = views.clone();
            let fast_stats = ctx.cull(&mut fast, &cams, union);
            assert_eq!(fast_stats, naive_stats);
            for (a, b) in fast.iter().zip(&naive) {
                assert_eq!(a.depth_mm, b.depth_mm, "depth masks differ");
                assert_eq!(a.rgb, b.rgb, "rgb masks differ");
            }
        }
        // The keep-all frustum really keeps all, and the narrow two do not.
        let stats = ctx.cull(&mut views.clone(), &cams, &frusta[..1]);
        assert_eq!(stats.kept, stats.total_valid);
        let stats = ctx.cull(&mut views.clone(), &cams, &keep_all_last[..2]);
        assert!(0 < stats.kept && stats.kept < stats.total_valid);
    }

    #[test]
    fn repeated_frusta_cull_like_their_distinct_set() {
        // Each frustum of a distinct set repeated 1–12 times, shuffled: the
        // cull collapses the copies, so masks, rgb and stats are those of
        // the distinct set (on the un-collapsing reference). A set of one
        // in round 0 is a single-frustum call.
        let cams = rig::camera_ring(
            3,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.12),
        );
        let views = render_all(&cams);
        let frusta = test_frusta();
        let sets: Vec<&[Frustum]> = vec![
            &frusta[..1],
            &frusta[2..3],
            &frusta[3..],
            &frusta[1..],
            &frusta[..],
        ];
        let mut rng = livo_math::rng::SplitMix64::new(25);
        let mut ctx = CullContext::new();
        for set in &sets {
            let mut want = views.clone();
            let want_stats = cull_views_union_reference(&mut want, &cams, set);
            // Round 0 is the set itself (shuffled), then each frustum 1–12
            // times.
            for max_copies in [1, 12, 12, 12] {
                let mut repeated: Vec<Frustum> = set
                    .iter()
                    .flat_map(|f| std::iter::repeat_n(*f, rng.gen_range(1..=max_copies)))
                    .collect();
                rng.shuffle(&mut repeated);
                let mut got = views.clone();
                let got_stats = ctx.cull(&mut got, &cams, &repeated);
                assert_eq!(got_stats, want_stats);
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.depth_mm, b.depth_mm, "depth masks differ");
                    assert_eq!(a.rgb, b.rgb, "rgb masks differ");
                }
            }
        }
    }

    #[test]
    fn ray_tables_rebuild_only_on_intrinsics_change() {
        let registry = MetricsRegistry::new();
        let mut ctx = CullContext::new();
        ctx.attach_telemetry(&registry);
        let mut cams = rig::camera_ring(
            2,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.1),
        );
        let f = test_frusta().remove(0);
        let mut views = render_all(&cams);
        ctx.cull(&mut views, &cams, std::slice::from_ref(&f));
        assert_eq!(registry.snapshot().counter("cull.lut_rebuilds"), Some(2));
        // Steady state: same intrinsics, no rebuilds.
        let mut views = render_all(&cams);
        ctx.cull(&mut views, &cams, std::slice::from_ref(&f));
        assert_eq!(registry.snapshot().counter("cull.lut_rebuilds"), Some(2));
        // One camera changes resolution → exactly one rebuild.
        cams[1].intrinsics = livo_math::CameraIntrinsics::kinect_depth(0.15);
        let mut views = render_all(&cams);
        ctx.cull(&mut views, &cams, std::slice::from_ref(&f));
        assert_eq!(registry.snapshot().counter("cull.lut_rebuilds"), Some(3));
        let cost = registry.snapshot().gauge("kernel.cull_ns_per_mpx");
        assert!(cost.unwrap() > 0.0, "cost gauge set: {cost:?}");
    }

    #[test]
    fn cull_matches_world_space_reference() {
        // The local-frame fast path must agree with the naive "reconstruct
        // to world, test there" reference.
        let cams = rig::camera_ring(
            3,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.12),
        );
        let views = render_all(&cams);
        let viewer = Pose::look_at(Vec3::new(1.0, 1.4, -2.5), Vec3::new(0.5, 1.0, 0.0), Vec3::Y);
        let f = Frustum::from_params(
            &viewer,
            &FrustumParams {
                hfov: 0.8,
                aspect: 1.3,
                near: 0.1,
                far: 8.0,
            },
        );
        let mut fast = views.clone();
        cull_views(&mut fast, &cams, &f);
        for (vi, (view, cam)) in views.iter().zip(&cams).enumerate() {
            for y in 0..view.height {
                for x in 0..view.width {
                    let i = y * view.width + x;
                    let d = view.depth_mm[i];
                    if d == 0 {
                        continue;
                    }
                    let world = cam.pixel_to_world(x as u32, y as u32, d).unwrap();
                    let expect_kept = f.contains(world);
                    let got_kept = fast[vi].depth_mm[i] != 0;
                    // f32 boundary cases may differ; allow only points very
                    // near a plane to disagree.
                    if expect_kept != got_kept {
                        assert!(
                            f.penetration(world).abs() < 2e-3,
                            "camera {vi} pixel ({x},{y}): fast={got_kept} ref={expect_kept}, pen {}",
                            f.penetration(world)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn union_cull_keeps_what_either_member_sees() {
        let cams = rig::camera_ring(
            4,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.15),
        );
        let views = render_all(&cams);
        // Two narrow viewers: one locked on the red sphere at the origin,
        // one locked on the green sphere at x=1.5.
        let params = FrustumParams {
            hfov: 0.35,
            aspect: 1.0,
            near: 0.05,
            far: 20.0,
        };
        let on_red = Frustum::from_params(
            &Pose::look_at(Vec3::new(0.0, 1.0, -3.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y),
            &params,
        );
        let on_green = Frustum::from_params(
            &Pose::look_at(Vec3::new(1.5, 1.0, -3.0), Vec3::new(1.5, 1.0, 0.0), Vec3::Y),
            &params,
        );

        let mut red_only = views.clone();
        let red_stats = cull_views(&mut red_only, &cams, &on_red);
        let mut green_only = views.clone();
        let green_stats = cull_views(&mut green_only, &cams, &on_green);
        let mut union = views.clone();
        let union_stats = CullContext::new().cull(&mut union, &cams, &[on_red, on_green]);

        // The union keeps at least what each member keeps...
        assert!(union_stats.kept >= red_stats.kept.max(green_stats.kept));
        // ...and in this disjoint two-target scene, roughly their sum.
        assert!(union_stats.kept <= red_stats.kept + green_stats.kept);
        assert!(red_stats.kept > 0 && green_stats.kept > 0);

        // Pixel-level: every pixel surviving either single cull survives
        // the union cull.
        for (vi, v) in union.iter().enumerate() {
            for i in 0..v.depth_mm.len() {
                let either = red_only[vi].depth_mm[i] != 0 || green_only[vi].depth_mm[i] != 0;
                if either {
                    assert_eq!(v.depth_mm[i], views[vi].depth_mm[i], "view {vi} pixel {i}");
                }
            }
        }
    }

    #[test]
    fn accuracy_is_one_with_perfect_prediction() {
        let cams = rig::camera_ring(
            3,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.12),
        );
        let views = render_all(&cams);
        let viewer = Pose::look_at(Vec3::new(0.0, 1.2, -3.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
        let f = Frustum::from_params(&viewer, &FrustumParams::default());
        let acc = cull_accuracy(&views, &cams, &f, &f);
        assert_eq!(acc.accuracy(), 1.0);
        assert_eq!(acc.covered, acc.needed);
    }

    #[test]
    fn guard_band_raises_accuracy_and_sent_fraction() {
        let cams = rig::camera_ring(
            3,
            2.5,
            1.2,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(0.12),
        );
        let views = render_all(&cams);
        let truth_pose =
            Pose::look_at(Vec3::new(0.0, 1.2, -3.0), Vec3::new(0.3, 1.0, 0.0), Vec3::Y);
        // Predicted pose is slightly off (as after a mis-predicted turn).
        let pred_pose = Pose::look_at(Vec3::new(0.0, 1.2, -3.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
        let truth = Frustum::from_params(&truth_pose, &FrustumParams::default());
        let pred = Frustum::from_params(&pred_pose, &FrustumParams::default());
        let tight = cull_accuracy(&views, &cams, &pred, &truth);
        let guarded = cull_accuracy(&views, &cams, &pred.expanded(0.3), &truth);
        assert!(guarded.accuracy() >= tight.accuracy());
        assert!(guarded.sent_fraction() >= tight.sent_fraction());
        assert!(
            guarded.accuracy() > 0.95,
            "guarded accuracy {}",
            guarded.accuracy()
        );
    }
}
