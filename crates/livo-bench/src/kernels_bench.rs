//! Hot-kernel microbenchmarks: the optimised per-frame kernels against the
//! reference implementations they replaced.
//!
//! Each kernel keeps its pre-optimisation form in-tree (`cull_views_union_reference`,
//! `dct::forward_ref`/`inverse_ref`, `motion::sad_ref`), both as the oracle
//! of the differential tests and as the baseline here — so the reported
//! speedups measure the actual replacement, on the actual machine, not a
//! synthetic stand-in. The pixel-path points (`compose`, `reconstruct`,
//! `voxel_downsample`, `render_prep`) and the inter-frame points
//! (`encode_inter_static`, `decode_inter_static`, `coeff_coder_*`) carry
//! their baselines in this file instead: the product has one pixel path, one
//! inter-frame coder and one block layout, no reference twins. The two
//! `coeff_coder` points also carry both coders' payload bits, which repeat
//! exactly and are gated against a ceiling beside the clock.
//! `repro kernels` prints the table; `--json` snapshots it (schema
//! `livo-bench-kernels-v1`, committed as `BENCH_kernels.json`);
//! `--gate` exits non-zero if any gated kernel runs slower than what it
//! replaced ([`GATE_FLOOR`]), which `scripts/tier1.sh` uses as a perf
//! ratchet: a tier that does not pay for itself is deleted, not given a
//! looser floor. Points marked `gated: false` (the slice-parallel decode
//! scaling measurement, the two `pool_scope_*` dispatch diagnostics, the
//! AVX2 tier points on a host without AVX2) are reported but not ratcheted.
//!
//! Timing protocol: fast and reference passes alternate within each
//! repetition (so drift hits both alike) and the per-iteration median over
//! [`REPS`] repetitions is reported — robust to scheduler noise on small
//! CI machines. The inter-frame points report the smallest of the
//! repetitions instead (`best_of_pair`): each pass redoes untimed set-up (a
//! fresh encoder, a primed decoder), and the minimum is what a frame costs
//! when nothing else ran.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use livo_capture::{datasets::DatasetPreset, render::render_rgbd_at, rig, RgbdFrame, VideoId};
use livo_codec2d::block::{
    decode_block, decode_svalue, encode_block, encode_svalue, CoeffContexts,
};
use livo_codec2d::dct::ZIGZAG;
use livo_codec2d::motion::{MotionVector, MB_SIZE};
use livo_codec2d::plane::write_block8_into_stripe;
use livo_codec2d::quant::{self, DC_SCALE};
use livo_codec2d::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use livo_codec2d::{dct, motion, Decoder, Encoder, EncoderConfig, Frame, PixelFormat, Plane};
use livo_core::cull::{cull_views_union_reference, CullContext};
use livo_core::frustum_pred::FrustumPredictor;
use livo_core::reconstruct::prepare_for_render;
use livo_core::stage::GUARD_BAND_M;
use livo_core::tile::{compose_color, compose_depth, write_seq, TileLayout};
use livo_core::{cull_views, reconstruct_point_cloud, DepthCodec};
use livo_math::{CameraIntrinsics, Frustum, FrustumParams, Pose, RgbdCamera, Vec3};
use livo_pointcloud::{Point, PointCloud, VoxelGrid};
use livo_runtime::WorkerPool;
use livo_telemetry::json::ObjectWriter;

/// Repetitions per kernel; the median is reported.
const REPS: usize = 7;

/// Minimum speedup `--gate` accepts on every gated point.
pub const GATE_FLOOR: f64 = 1.0;

/// One benchmarked kernel.
pub struct KernelPoint {
    pub name: &'static str,
    /// What one timed iteration covers.
    pub unit: &'static str,
    /// Median wall-clock of the optimised kernel, nanoseconds.
    pub fast_ns: f64,
    /// Median wall-clock of the retained reference, nanoseconds.
    pub ref_ns: f64,
    /// Whether `--gate` enforces `speedup() >= GATE_FLOOR` for this point.
    /// Informational points (thread-scaling measurements on an unknown
    /// core count) are reported but not ratcheted.
    pub gated: bool,
    /// What both sides wrote, where the point compares two coders.
    pub bits: Option<CodedBits>,
}

/// Payload sizes of a coder point. They repeat exactly, so `--gate` holds
/// `fast` to `ceiling` times `reference` whatever the clock says.
pub struct CodedBits {
    pub fast: u64,
    pub reference: u64,
    pub ceiling: f64,
}

impl KernelPoint {
    pub fn speedup(&self) -> f64 {
        if self.fast_ns <= 0.0 {
            0.0
        } else {
            self.ref_ns / self.fast_ns
        }
    }
}

/// Median of per-rep timings for interleaved fast/reference closures.
fn time_pair(mut fast: impl FnMut(), mut reference: impl FnMut()) -> (f64, f64) {
    // One untimed warm-up of each (page faults, lazy init).
    fast();
    reference();
    let mut fast_ns = Vec::with_capacity(REPS);
    let mut ref_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        fast();
        fast_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        reference();
        ref_ns.push(t0.elapsed().as_nanos() as f64);
    }
    fast_ns.sort_by(f64::total_cmp);
    ref_ns.sort_by(f64::total_cmp);
    (fast_ns[REPS / 2], ref_ns[REPS / 2])
}

/// Deterministic pseudo-random 8×8 block (xorshift; no external RNG).
fn pseudo_block(seed: u64, peak: i32) -> [i32; 64] {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut blk = [0i32; 64];
    for v in &mut blk {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = (s % (peak as u64 + 1)) as i32 - peak / 2;
    }
    blk
}

fn textured_plane(w: usize, h: usize, phase: usize) -> Plane {
    let mut p = Plane::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let fx = (x + phase) as f32;
            let fy = y as f32;
            let v = 128.0 + 80.0 * (fx * 0.21).sin() + 40.0 * (fy * 0.17).cos();
            p.set(x, y, v.max(0.0) as u16);
        }
    }
    p
}

fn test_frame(w: usize, h: usize, phase: usize) -> Frame {
    let mut rgb = vec![0u8; w * h * 3];
    for y in 0..h {
        for x in 0..w {
            let i = (y * w + x) * 3;
            rgb[i] = (((x + phase) * 5) % 256) as u8;
            rgb[i + 1] = ((y * 3 + phase) % 256) as u8;
            rgb[i + 2] = (((x + y) * 2) % 256) as u8;
        }
    }
    Frame::from_rgb8(w, h, &rgb)
}

fn bench_cull() -> KernelPoint {
    let cameras: Vec<RgbdCamera> = rig::camera_ring(
        3,
        2.5,
        1.2,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(0.2),
    );
    let preset = DatasetPreset::load(VideoId::Band2);
    let snap = preset.scene.at(0.5);
    let views: Vec<RgbdFrame> = cameras
        .iter()
        .map(|c| render_rgbd_at(c, &snap, 0))
        .collect();
    let frustum = Frustum::from_params(
        &Pose::look_at(Vec3::new(1.0, 1.4, -2.5), Vec3::new(0.0, 1.0, 0.0), Vec3::Y),
        &FrustumParams {
            hfov: 0.9,
            aspect: 1.3,
            near: 0.1,
            far: 8.0,
        },
    );
    // The cull mutates its input, so each timed pass works on a fresh copy.
    // Both sides pay the identical clone; its median cost is measured
    // separately below and subtracted from each.
    let (fast, naive) = time_pair(
        || {
            let mut v = views.clone();
            black_box(cull_views(&mut v, &cameras, &frustum));
        },
        || {
            let mut v = views.clone();
            black_box(cull_views_union_reference(
                &mut v,
                &cameras,
                std::slice::from_ref(&frustum),
            ));
        },
    );
    let clone_med = clone_median(&views);
    KernelPoint {
        name: "cull",
        unit: "3 cameras, scale 0.2, one frustum",
        fast_ns: (fast - clone_med).max(1.0),
        ref_ns: (naive - clone_med).max(1.0),
        gated: true,
        bits: None,
    }
}

/// Median wall-clock of cloning `views`, which each timed cull pass pays.
fn clone_median(views: &[RgbdFrame]) -> f64 {
    let mut clone_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(views.to_vec());
        clone_ns.push(t0.elapsed().as_nanos() as f64);
    }
    clone_ns.sort_by(f64::total_cmp);
    clone_ns[REPS / 2]
}

/// One cluster's union cull in `sfu_fanout`: its rig (four cameras at scale
/// 0.08), and the frusta of one gaze group's 48 static viewers as their
/// predictors give them — four yaws, twelve viewers each, interleaved — on
/// a reused context as a cluster holds one, against the reference, which
/// tests every member.
fn bench_union_cull() -> KernelPoint {
    let cameras = rig::camera_ring(
        4,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(0.08),
    );
    let snap = DatasetPreset::load(VideoId::Band2).scene.at(0.5);
    let views: Vec<RgbdFrame> = cameras
        .iter()
        .map(|c| render_rgbd_at(c, &snap, 0))
        .collect();
    let frusta: Vec<Frustum> = (0..48)
        .map(|i| {
            let yaw = 0.02 * (i % 4) as f32;
            let eye = Vec3::new(0.0, 1.5, 2.0);
            let dir = Vec3::new(yaw.sin(), 0.0, -yaw.cos());
            let mut p = FrustumPredictor::new(FrustumParams::default(), GUARD_BAND_M);
            p.observe(&Pose::look_at(eye, eye + dir, Vec3::Y));
            p.predicted_frustum()
        })
        .collect();
    let mut ctx = CullContext::new();
    let (mut fast_views, mut ref_views) = (views.clone(), views.clone());
    assert_eq!(
        ctx.cull(None, &mut fast_views, &cameras, &frusta),
        cull_views_union_reference(&mut ref_views, &cameras, &frusta),
    );
    assert!(fast_views
        .iter()
        .zip(&ref_views)
        .all(|(a, b)| a.depth_mm == b.depth_mm && a.rgb == b.rgb));
    let (fast, naive) = time_pair(
        || {
            let mut v = views.clone();
            black_box(ctx.cull(None, &mut v, &cameras, &frusta));
        },
        || {
            let mut v = views.clone();
            black_box(cull_views_union_reference(&mut v, &cameras, &frusta));
        },
    );
    let clone_med = clone_median(&views);
    KernelPoint {
        name: "union_cull",
        unit: "4 cameras, scale 0.08, an SFU cluster's 48 frusta (4 distinct)",
        fast_ns: (fast - clone_med).max(1.0),
        ref_ns: (naive - clone_med).max(1.0),
        gated: true,
        bits: None,
    }
}

fn bench_dct() -> (KernelPoint, KernelPoint) {
    const BLOCKS: usize = 4096;
    let blocks: Vec<[i32; 64]> = (0..BLOCKS)
        .map(|i| pseudo_block(i as u64 + 1, if i % 2 == 0 { 255 } else { 65535 }))
        .collect();
    let coeffs: Vec<[f32; 64]> = blocks.iter().map(dct::forward).collect();

    let (f_fast, f_ref) = time_pair(
        || {
            for b in &blocks {
                black_box(dct::forward(black_box(b)));
            }
        },
        || {
            for b in &blocks {
                black_box(dct::forward_ref(black_box(b)));
            }
        },
    );
    let (i_fast, i_ref) = time_pair(
        || {
            for c in &coeffs {
                black_box(dct::inverse(black_box(c)));
            }
        },
        || {
            for c in &coeffs {
                black_box(dct::inverse_ref(black_box(c)));
            }
        },
    );
    let per = BLOCKS as f64;
    (
        KernelPoint {
            name: "dct_forward",
            unit: "per 8x8 block",
            fast_ns: f_fast / per,
            ref_ns: f_ref / per,
            gated: true,
            bits: None,
        },
        KernelPoint {
            name: "dct_inverse",
            unit: "per 8x8 block",
            fast_ns: i_fast / per,
            ref_ns: i_ref / per,
            gated: true,
            bits: None,
        },
    )
}

fn bench_sad() -> KernelPoint {
    let cur = textured_plane(256, 256, 2);
    let reference = textured_plane(256, 256, 0);
    let vectors = [(0i16, 0i16), (3, 0), (-2, 1), (5, -4), (-7, -7), (8, 8)];
    let mut count = 0usize;
    for by in (16..224).step_by(16) {
        for _bx in (16..224).step_by(16) {
            count += vectors.len();
            let _ = by;
        }
    }
    let (fast, naive) = time_pair(
        || {
            for by in (16..224).step_by(16) {
                for bx in (16..224).step_by(16) {
                    for (dx, dy) in vectors {
                        let mv = motion::MotionVector { dx, dy };
                        black_box(motion::sad(&cur, &reference, bx, by, mv, u64::MAX));
                    }
                }
            }
        },
        || {
            for by in (16..224).step_by(16) {
                for bx in (16..224).step_by(16) {
                    for (dx, dy) in vectors {
                        let mv = motion::MotionVector { dx, dy };
                        black_box(motion::sad_ref(&cur, &reference, bx, by, mv, u64::MAX));
                    }
                }
            }
        },
    );
    KernelPoint {
        name: "sad",
        unit: "per 16x16 SAD, no early exit",
        fast_ns: fast / count as f64,
        ref_ns: naive / count as f64,
        gated: true,
        bits: None,
    }
}

/// The `_avx2` points compare the *dispatched* kernel against the retained
/// next-lower tier (`*_baseline`: the SSE2/scalar shared body), isolating
/// the 256-bit recompile from the algorithmic win the base points measure.
/// On hosts without AVX2 both sides run the same code, so the points are
/// reported at ~1.0× but not gated.
fn avx2_gated() -> bool {
    livo_math::simd::has_avx2()
}

fn bench_dct_avx2() -> (KernelPoint, KernelPoint) {
    const BLOCKS: usize = 4096;
    let blocks: Vec<[i32; 64]> = (0..BLOCKS)
        .map(|i| pseudo_block(i as u64 + 7, if i % 2 == 0 { 255 } else { 65535 }))
        .collect();
    let coeffs: Vec<[f32; 64]> = blocks.iter().map(dct::forward).collect();
    let (f_fast, f_base) = time_pair(
        || {
            for b in &blocks {
                black_box(dct::forward(black_box(b)));
            }
        },
        || {
            for b in &blocks {
                black_box(dct::forward_baseline(black_box(b)));
            }
        },
    );
    let (i_fast, i_base) = time_pair(
        || {
            for c in &coeffs {
                black_box(dct::inverse(black_box(c)));
            }
        },
        || {
            for c in &coeffs {
                black_box(dct::inverse_baseline(black_box(c)));
            }
        },
    );
    let per = BLOCKS as f64;
    (
        KernelPoint {
            name: "dct_avx2",
            unit: "per 8x8 forward, vs sse2/scalar tier",
            fast_ns: f_fast / per,
            ref_ns: f_base / per,
            gated: avx2_gated(),
            bits: None,
        },
        KernelPoint {
            name: "idct_avx2",
            unit: "per 8x8 inverse, vs sse2/scalar tier",
            fast_ns: i_fast / per,
            ref_ns: i_base / per,
            gated: avx2_gated(),
            bits: None,
        },
    )
}

fn bench_sad_avx2() -> KernelPoint {
    let cur = textured_plane(256, 256, 2);
    let reference = textured_plane(256, 256, 0);
    let vectors = [(0i16, 0i16), (3, 0), (-2, 1), (5, -4), (-7, -7), (8, 8)];
    let count = 13 * 13 * vectors.len();
    let (fast, base) = time_pair(
        || {
            for by in (16..224).step_by(16) {
                for bx in (16..224).step_by(16) {
                    for (dx, dy) in vectors {
                        let mv = motion::MotionVector { dx, dy };
                        black_box(motion::sad(&cur, &reference, bx, by, mv, u64::MAX));
                    }
                }
            }
        },
        || {
            for by in (16..224).step_by(16) {
                for bx in (16..224).step_by(16) {
                    for (dx, dy) in vectors {
                        let mv = motion::MotionVector { dx, dy };
                        black_box(motion::sad_baseline(&cur, &reference, bx, by, mv, u64::MAX));
                    }
                }
            }
        },
    );
    KernelPoint {
        name: "sad_avx2",
        unit: "per 16x16 SAD, vs sse2/scalar tier",
        fast_ns: fast / count as f64,
        ref_ns: base / count as f64,
        gated: avx2_gated(),
        bits: None,
    }
}

fn bench_decode_sliced() -> KernelPoint {
    const W: usize = 128;
    const H: usize = 128;
    const QP: u8 = 12;
    const SLICES: u8 = 4;
    let frames: Vec<Frame> = (0..3).map(|i| test_frame(W, H, i)).collect();
    let mut cfg = EncoderConfig::new(W, H, PixelFormat::Yuv420);
    cfg.gop_length = 0;
    cfg.slices = SLICES;
    let mut enc = Encoder::new(cfg);
    let streams: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| enc.encode_fixed_qp(f, QP).data)
        .collect();

    let pool = std::sync::Arc::new(WorkerPool::new(SLICES as usize));
    let (par, serial) = time_pair(
        || {
            let mut dec = Decoder::new();
            dec.set_worker_pool(pool.clone());
            for s in &streams {
                black_box(dec.decode(s).expect("sliced stream decodes"));
            }
        },
        || {
            let mut dec = Decoder::new();
            for s in &streams {
                black_box(dec.decode(s).expect("sliced stream decodes"));
            }
        },
    );
    // Reported per slice: both sides decode 3 frames × 4 slices. Not gated
    // — on a single-core box the pool's thread handoff can make the
    // parallel side slower; the point records the scaling headroom.
    let per = 3.0 * SLICES as f64;
    KernelPoint {
        name: "decode_sliced",
        unit: "per slice, 3 frames 128x128 x4 slices, pool(4) vs serial",
        fast_ns: par / per,
        ref_ns: serial / per,
        gated: false,
        bits: None,
    }
}

/// What a receiver holds when a frame is due: the decoded colour and depth
/// canvases of one culled 4-camera capture at scale 0.25, with the layout,
/// rig and depth codec it agreed on at set-up.
struct ReceiverInput {
    color: Frame,
    depth: Frame,
    layout: TileLayout,
    cameras: Vec<RgbdCamera>,
    codec: DepthCodec,
}

/// The bench rig's four cameras at scale 0.25.
fn bench_cameras() -> Vec<RgbdCamera> {
    rig::camera_ring(
        4,
        2.5,
        1.2,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(0.25),
    )
}

/// One culled 4-camera capture of `band2` at scene time `t`, and the tile
/// layout of its canvases.
fn culled_views(t: f32, seq: u32) -> (Vec<RgbdFrame>, TileLayout) {
    let cameras = bench_cameras();
    let snap = DatasetPreset::load(VideoId::Band2).scene.at(t);
    let mut views: Vec<RgbdFrame> = cameras
        .iter()
        .map(|c| render_rgbd_at(c, &snap, seq))
        .collect();
    let frustum = Frustum::from_params(
        &Pose::look_at(Vec3::new(1.0, 1.4, -2.5), Vec3::new(0.0, 1.0, 0.0), Vec3::Y),
        &FrustumParams::default(),
    );
    cull_views(&mut views, &cameras, &frustum);
    let layout = TileLayout::new(views[0].width, views[0].height, cameras.len());
    (views, layout)
}

fn receiver_input() -> ReceiverInput {
    let cameras = bench_cameras();
    let (views, layout) = culled_views(0.5, 0);
    let codec = DepthCodec::default();
    let through_codec = |canvas: Frame| {
        let mut enc = Encoder::new(EncoderConfig::new(
            layout.canvas_w,
            layout.canvas_h,
            canvas.format,
        ));
        let data = enc.encode_fixed_qp(&canvas, 12).data;
        Decoder::new().decode(&data).expect("own stream decodes")
    };
    ReceiverInput {
        color: through_codec(compose_color(&views, &layout, 0)),
        depth: through_codec(compose_depth(&views, &layout, &codec, 0)),
        layout,
        cameras,
        codec,
    }
}

/// `reconstruct_point_cloud` as it was before the fused pass: per camera,
/// convert the whole colour canvas to RGB, copy the camera's slot out of
/// both canvases, then back-project the slot copies.
fn reconstruct_reference(input: &ReceiverInput) -> PointCloud {
    let l = &input.layout;
    let mut cloud = PointCloud::with_capacity(l.n * l.cam_w * l.cam_h / 4);
    for (i, cam) in input.cameras.iter().enumerate() {
        let (ox, oy) = l.slot_origin(i);
        let mut depth = vec![0u16; l.cam_w * l.cam_h];
        for y in 0..l.cam_h {
            for x in 0..l.cam_w {
                let coded = input.depth.planes[0].get(ox + x, oy + y);
                depth[y * l.cam_w + x] = input.codec.decode_sample(coded);
            }
        }
        let canvas_rgb = input.color.to_rgb8();
        let mut rgb = vec![0u8; l.cam_w * l.cam_h * 3];
        for y in 0..l.cam_h {
            let src = ((oy + y) * l.canvas_w + ox) * 3;
            let dst = y * l.cam_w * 3;
            rgb[dst..dst + l.cam_w * 3].copy_from_slice(&canvas_rgb[src..src + l.cam_w * 3]);
        }
        for y in 0..l.cam_h {
            for x in 0..l.cam_w {
                let p = y * l.cam_w + x;
                if depth[p] == 0 {
                    continue;
                }
                if let Some(world) = cam.pixel_to_world(x as u32, y as u32, depth[p]) {
                    cloud.push(Point::new(
                        world,
                        [rgb[p * 3], rgb[p * 3 + 1], rgb[p * 3 + 2]],
                    ));
                }
            }
        }
    }
    cloud
}

/// One voxel's position sum, colour sums and point count.
type VoxelSums = (Vec3, [u32; 3], u32);

/// `VoxelGrid::downsample` as it was before the flat table: per-voxel sums
/// through the standard `HashMap`, emitted in the map's order.
fn downsample_reference(voxel_size: f32, cloud: &PointCloud) -> PointCloud {
    let inv = 1.0 / voxel_size;
    let mut acc: HashMap<(i32, i32, i32), VoxelSums> = HashMap::new();
    for p in &cloud.points {
        let key = (
            (p.position.x * inv).floor() as i32,
            (p.position.y * inv).floor() as i32,
            (p.position.z * inv).floor() as i32,
        );
        let e = acc.entry(key).or_insert((Vec3::ZERO, [0, 0, 0], 0));
        e.0 += p.position;
        for c in 0..3 {
            e.1[c] += p.color[c] as u32;
        }
        e.2 += 1;
    }
    let mut out = PointCloud::with_capacity(acc.len());
    for (_, (pos_sum, col_sum, n)) in acc {
        let color = [
            (col_sum[0] / n) as u8,
            (col_sum[1] / n) as u8,
            (col_sum[2] / n) as u8,
        ];
        out.push(Point::new(pos_sum / n as f32, color));
    }
    out
}

fn bench_receiver() -> (KernelPoint, KernelPoint) {
    const VOXEL_M: f32 = 0.02;
    let input = receiver_input();
    let reconstruct = || {
        reconstruct_point_cloud(
            &input.color,
            &input.depth,
            &input.layout,
            &input.cameras,
            &input.codec,
        )
    };
    let (rec_fast, rec_ref) = time_pair(
        || {
            black_box(reconstruct());
        },
        || {
            black_box(reconstruct_reference(black_box(&input)));
        },
    );
    let cloud = reconstruct();
    assert_eq!(
        cloud.points,
        reconstruct_reference(&input).points,
        "the reference must rebuild the same cloud"
    );
    let grid = VoxelGrid::new(VOXEL_M);
    assert_eq!(
        grid.downsample(&cloud).len(),
        downsample_reference(VOXEL_M, &cloud).len(),
        "the reference must find the same voxels"
    );
    let (vox_fast, vox_ref) = time_pair(
        || {
            black_box(grid.downsample(black_box(&cloud)));
        },
        || {
            black_box(downsample_reference(VOXEL_M, black_box(&cloud)));
        },
    );
    (
        KernelPoint {
            name: "reconstruct",
            unit: "4 cameras, scale 0.25, one decoded canvas pair",
            fast_ns: rec_fast,
            ref_ns: rec_ref,
            gated: true,
            bits: None,
        },
        KernelPoint {
            name: "voxel_downsample",
            unit: "that cloud at 0.02 m, vs std HashMap accumulate",
            fast_ns: vox_fast,
            ref_ns: vox_ref,
            gated: true,
            bits: None,
        },
    )
}

/// `compose_color` + `compose_depth` as they were before the lanes: luma
/// and depth a sample at a time through `f32::round` (a libm call on
/// baseline x86-64), chroma a quad at a time, black tested per pixel.
fn compose_reference(views: &[RgbdFrame], l: &TileLayout, codec: &DepthCodec) -> (Frame, Frame) {
    let round = |v: f32| v.round().clamp(0.0, 255.0) as u16;
    let (w, row_bytes) = (l.canvas_w, l.cam_w * 3);
    let mut color = Frame::new(PixelFormat::Yuv420, w, l.canvas_h);
    let mut depth = Frame::new(PixelFormat::Y16, w, l.canvas_h);
    let mut pair = vec![0u8; 2 * w * 3];
    for y in 0..l.canvas_h {
        let rgb = &mut pair[y % 2 * w * 3..][..w * 3];
        rgb.fill(0);
        if let Some(vy) = y.checked_sub(l.header_rows) {
            let in_row = views.iter().skip(vy / l.cam_h * l.cols).take(l.cols);
            for (v, dst) in in_row.zip(rgb.chunks_exact_mut(row_bytes)) {
                dst.copy_from_slice(&v.rgb[vy % l.cam_h * row_bytes..][..row_bytes]);
            }
        }
        let luma = color.planes[0].data[y * w..].iter_mut();
        for (s, px) in luma
            .zip(rgb.chunks_exact(3))
            .filter(|(_, px)| *px != [0; 3])
        {
            *s = round(0.299 * px[0] as f32 + 0.587 * px[1] as f32 + 0.114 * px[2] as f32);
        }
        // Canvas heights are even: a row of quads ends on every odd row.
        for cx in (0..w / 2).filter(|_| y % 2 == 1) {
            let (top, bottom) = (&pair[cx * 6..][..6], &pair[(w + cx * 2) * 3..][..6]);
            let (mut usum, mut vsum) = (512.0f32, 512.0f32);
            if top != [0; 6] || bottom != [0; 6] {
                (usum, vsum) = (0.0, 0.0);
                for px in [&top[..3], &top[3..], &bottom[..3], &bottom[3..]] {
                    let (r, g, b) = (px[0] as f32, px[1] as f32, px[2] as f32);
                    usum += -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
                    vsum += 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
                }
            }
            color.planes[1].data[y / 2 * (w / 2) + cx] = round(usum / 4.0);
            color.planes[2].data[y / 2 * (w / 2) + cx] = round(vsum / 4.0);
        }
    }
    for (i, v) in views.iter().enumerate() {
        let (ox, oy) = l.slot_origin(i);
        for (y, src) in v.depth_mm.chunks_exact(v.width).enumerate() {
            let dst = depth.planes[0].data[(oy + y) * w + ox..].iter_mut();
            for (c, &d) in dst.zip(src) {
                let mm = d.min(codec.max_depth_mm) as f32;
                *c = (mm * codec.scale()).round().min(u16::MAX as f32) as u16;
            }
        }
    }
    write_seq(&mut color.planes[0], 0, 255);
    write_seq(&mut depth.planes[0], 0, u16::MAX);
    (color, depth)
}

/// The two ends of the pixel path: one capture tiled into its canvas pair,
/// and one cloud voxelised and culled to the viewer — each against the
/// body it had before the lanes.
fn bench_compose_and_render_prep() -> (KernelPoint, KernelPoint) {
    const VOXEL_M: f32 = 0.03;
    let (views, l) = culled_views(0.5, 0);
    let codec = DepthCodec::default();
    let compose = || {
        (
            compose_color(&views, &l, 0),
            compose_depth(&views, &l, &codec, 0),
        )
    };
    assert!(
        compose() == compose_reference(&views, &l, &codec),
        "same canvases"
    );
    let (compose_fast, compose_ref) = time_pair(
        || drop(black_box(compose())),
        || drop(black_box(compose_reference(black_box(&views), &l, &codec))),
    );
    let rx = receiver_input();
    let cloud = reconstruct_point_cloud(&rx.color, &rx.depth, &rx.layout, &rx.cameras, &rx.codec);
    let viewer = Pose::look_at(Vec3::new(1.0, 1.4, -2.5), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
    let frustum = Frustum::from_params(&viewer, &FrustumParams::default());
    let grid = VoxelGrid::new(VOXEL_M);
    let two_clouds = || grid.downsample(black_box(&cloud)).cull_to_frustum(&frustum);
    let shown = prepare_for_render(&cloud, VOXEL_M, &frustum);
    assert_eq!(shown.points, two_clouds().points, "same shown cloud");
    let (prep_fast, prep_ref) = time_pair(
        || {
            drop(black_box(prepare_for_render(
                black_box(&cloud),
                VOXEL_M,
                &frustum,
            )))
        },
        || drop(black_box(two_clouds())),
    );
    (
        KernelPoint {
            name: "compose",
            unit: "4 culled views, scale 0.25, colour + depth canvas, vs per-sample f32::round",
            fast_ns: compose_fast,
            ref_ns: compose_ref,
            gated: true,
            bits: None,
        },
        KernelPoint {
            name: "render_prep",
            unit: "that cloud at 0.03 m, vs downsample then cull_to_frustum",
            fast_ns: prep_fast,
            ref_ns: prep_ref,
            gated: true,
            bits: None,
        },
    )
}

/// What a `WorkerPool::scope` costs on pool(2) against the inline pool: a
/// scope of two empty tasks (wake-up and join alone) and one of eight
/// ≈ 1 ms spins (whether a second thread is there to take half of them).
/// Diagnostics for ROADMAP item 5(b), not gated.
fn bench_pool_scope() -> (KernelPoint, KernelPoint) {
    const SCOPES: usize = 200;
    // ≈ 1 ms of dependent shifts at 2–3 GHz.
    let spin = || {
        black_box((0..black_box(400_000)).fold(1u64, |s, _| {
            let s = s ^ (s << 13);
            let s = s ^ (s >> 7);
            s ^ (s << 17)
        }));
    };
    let scope_of = |pool: &WorkerPool, tasks: usize, task: &(dyn Fn() + Sync)| {
        pool.scope(|s| (0..tasks).for_each(|_| s.spawn(task)));
    };
    let (two, inline) = (WorkerPool::new(2), WorkerPool::new(1));
    let empty = |pool: &WorkerPool| (0..SCOPES).for_each(|_| scope_of(pool, 2, &|| {}));
    let (empty_two, empty_inline) = time_pair(|| empty(&two), || empty(&inline));
    let (spins_two, spins_inline) =
        time_pair(|| scope_of(&two, 8, &spin), || scope_of(&inline, 8, &spin));
    let point = |name, unit, fast_ns, ref_ns| KernelPoint {
        name,
        unit,
        fast_ns,
        ref_ns,
        gated: false,
        bits: None,
    };
    (
        point(
            "pool_scope_empty",
            "per scope of two empty tasks, pool(2) vs inline pool(1)",
            empty_two / SCOPES as f64,
            empty_inline / SCOPES as f64,
        ),
        point(
            "pool_scope_tasks",
            "per scope of 8 spins of ~1 ms, pool(2) vs inline pool(1)",
            spins_two,
            spins_inline,
        ),
    )
}

// ---------------------------------------------------------------------
// Static macroblocks and the block coder: one inter frame of the canvas pair.
// ---------------------------------------------------------------------

/// QPs the rate controller settles on for this content on `call_steady`.
const COLOR_QP: u8 = 24;
const DEPTH_QP: u8 = 40;
/// `EncoderConfig::new`'s search range.
const SEARCH_RANGE: i16 = 8;

/// The block coder as it was while every coefficient went through the range
/// coder: a banded significance flag per position under `last` and a
/// "greater than one" flag per level, both context-coded, with exp-Golomb
/// tails and a raw sign. What `coeff_coder` times and sizes the product's
/// coder against, and kept nowhere else.
const BAND_OLD: [u8; 64] = {
    let mut t = [0u8; 64];
    let mut pos = 0;
    while pos < 64 {
        t[pos] = match pos {
            0 => 0,
            1..=2 => 1,
            3..=9 => 2,
            10..=24 => 3,
            _ => 4,
        };
        pos += 1;
    }
    t
};

#[inline]
fn band_old(pos: usize) -> usize {
    BAND_OLD[pos] as usize
}

#[derive(Default)]
struct ContextsOld {
    cbf: BitModel,
    sig: [BitModel; 5],
    gt1: [BitModel; 5],
    last_hi: BitModel,
}

fn encode_block_old(enc: &mut RangeEncoder, ctx: &mut ContextsOld, levels: &[i32; 64]) {
    // Scan in zig-zag order, find the last significant position.
    let mut last: Option<usize> = None;
    for pos in (0..64).rev() {
        if levels[ZIGZAG[pos]] != 0 {
            last = Some(pos);
            break;
        }
    }
    let Some(last) = last else {
        enc.encode_bit(&mut ctx.cbf, false);
        return;
    };
    enc.encode_bit(&mut ctx.cbf, true);
    if last < 32 {
        enc.encode_bit(&mut ctx.last_hi, false);
        enc.encode_bits(last as u32, 5);
    } else {
        enc.encode_bit(&mut ctx.last_hi, true);
        enc.encode_bits(last as u32 - 32, 5);
    }
    for pos in 0..=last {
        let level = levels[ZIGZAG[pos]];
        if pos < last {
            let significant = level != 0;
            enc.encode_bit(&mut ctx.sig[band_old(pos)], significant);
            if !significant {
                continue;
            }
        }
        // Magnitude ≥ 1 here.
        let mag = level.unsigned_abs();
        let gt1 = mag > 1;
        enc.encode_bit(&mut ctx.gt1[band_old(pos)], gt1);
        if gt1 {
            enc.encode_ue_bypass(mag - 2);
        }
        enc.encode_bypass(level < 0);
    }
}

fn decode_block_old(
    dec: &mut RangeDecoder<'_>,
    ctx: &mut ContextsOld,
    levels: &mut [i32; 64],
) -> bool {
    *levels = [0; 64];
    if !dec.decode_bit(&mut ctx.cbf) {
        return false;
    }
    let hi = dec.decode_bit(&mut ctx.last_hi);
    let mut last = dec.decode_bits(5) as usize;
    if hi {
        last += 32;
    }
    for pos in 0..=last {
        if pos < last && !dec.decode_bit(&mut ctx.sig[band_old(pos)]) {
            continue;
        }
        let gt1 = dec.decode_bit(&mut ctx.gt1[band_old(pos)]);
        let mag = if gt1 {
            dec.decode_ue_bypass().saturating_add(2)
        } else {
            1
        };
        let neg = dec.decode_bypass();
        let mag = mag.min(i32::MAX as u32) as i32;
        levels[ZIGZAG[pos]] = if neg { -mag } else { mag };
    }
    true
}

/// `motion::diamond_search` as it was: every probe scored, SAD 0 or not.
fn diamond_search_oracle(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    start: MotionVector,
) -> MotionVector {
    let clamp_mv = |mv: MotionVector| MotionVector {
        dx: mv.dx.clamp(-SEARCH_RANGE, SEARCH_RANGE),
        dy: mv.dy.clamp(-SEARCH_RANGE, SEARCH_RANGE),
    };
    let mut best = clamp_mv(start);
    let mut best_sad = motion::sad(cur, reference, bx, by, best, u64::MAX);
    let mut came_from: Option<MotionVector> = None;
    let zero = MotionVector::default();
    let zero_sad = motion::sad(cur, reference, bx, by, zero, best_sad);
    if zero_sad < best_sad {
        came_from = Some(best);
        best = zero;
        best_sad = zero_sad;
    }
    const LARGE: [(i16, i16); 8] = [
        (0, -2),
        (1, -1),
        (2, 0),
        (1, 1),
        (0, 2),
        (-1, 1),
        (-2, 0),
        (-1, -1),
    ];
    const SMALL: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];
    let mut probe = |best: &mut MotionVector, best_sad: &mut u64, (ddx, ddy): (i16, i16)| {
        let cand = clamp_mv(MotionVector {
            dx: best.dx + ddx,
            dy: best.dy + ddy,
        });
        if cand == *best || Some(cand) == came_from {
            return false;
        }
        let s = motion::sad(cur, reference, bx, by, cand, *best_sad);
        if s < *best_sad {
            came_from = Some(*best);
            *best = cand;
            *best_sad = s;
            return true;
        }
        false
    };
    let mut steps = 0;
    loop {
        let mut improved = false;
        for d in LARGE {
            improved |= probe(&mut best, &mut best_sad, d);
        }
        steps += 1;
        if !improved || steps > 32 {
            break;
        }
    }
    for d in SMALL {
        probe(&mut best, &mut best_sad, d);
    }
    best
}

struct PlanOracle {
    mv: MotionVector,
    pred_mv: MotionVector,
    skip: bool,
    levels4: [[i32; 64]; 4],
}

/// The luma plan as it was: every macroblock searched to the end, four
/// forward transforms, and four inverse ones unless skipped.
fn plan_luma_oracle(
    plane: &Plane,
    prev: &Plane,
    recon: &mut Plane,
    step: f32,
    peak: u16,
) -> Vec<PlanOracle> {
    let mut plans = Vec::new();
    let mut pred_buf = [0i32; MB_SIZE * MB_SIZE];
    let mut blk = [0i32; 64];
    for (mby, stripe) in recon.data.chunks_mut(plane.width * MB_SIZE).enumerate() {
        let by = mby * MB_SIZE;
        let mut left_mv = MotionVector::default();
        for mbx in 0..plane.width.div_ceil(MB_SIZE) {
            let bx = mbx * MB_SIZE;
            let pred_mv = left_mv;
            let mv = diamond_search_oracle(plane, prev, bx, by, pred_mv);
            motion::predict_block(prev, bx, by, mv, &mut pred_buf);
            let mut levels4 = [[0i32; 64]; 4];
            let mut all_zero = true;
            for (sb, levels) in levels4.iter_mut().enumerate() {
                let (ox, oy) = ((sb % 2) * 8, (sb / 2) * 8);
                for dy in 0..8 {
                    for dx in 0..8 {
                        let cur = plane
                            .get_clamped((bx + ox + dx) as isize, (by + oy + dy) as isize)
                            as i32;
                        blk[dy * 8 + dx] = cur - pred_buf[(oy + dy) * MB_SIZE + ox + dx];
                    }
                }
                *levels = quant::quantize_block(&dct::forward(&blk), step, DC_SCALE);
                all_zero &= levels.iter().all(|&l| l == 0);
            }
            let skip = all_zero && mv == pred_mv;
            for (sb, levels) in levels4.iter().enumerate() {
                let (ox, oy) = ((sb % 2) * 8, (sb / 2) * 8);
                let res = if skip {
                    [0i32; 64]
                } else {
                    dct::inverse(&quant::dequantize_block(levels, step, DC_SCALE))
                };
                let mut rec = [0i32; 64];
                for dy in 0..8 {
                    for dx in 0..8 {
                        rec[dy * 8 + dx] =
                            res[dy * 8 + dx] + pred_buf[(oy + dy) * MB_SIZE + ox + dx];
                    }
                }
                write_block8_into_stripe(stripe, plane.width, by, bx + ox, by + oy, &rec, peak);
            }
            plans.push(PlanOracle {
                mv,
                pred_mv,
                skip,
                levels4,
            });
            left_mv = mv;
        }
    }
    plans
}

/// The chroma plan as it was: every block through both transforms.
fn plan_chroma_oracle(
    plane: &Plane,
    prev: &Plane,
    recon: &mut Plane,
    step: f32,
    peak: u16,
    plans: &[PlanOracle],
    mbs_x: usize,
) -> Vec<[i32; 64]> {
    let mut out = Vec::new();
    let mut blk = [0i32; 64];
    for (row, stripe) in recon.data.chunks_mut(plane.width * 8).enumerate() {
        let by = row * 8;
        for bxi in 0..plane.width.div_ceil(8) {
            let bx = bxi * 8;
            let mv = plans
                .get(row * mbs_x + bxi)
                .map_or_else(Default::default, |p| p.mv);
            let pred_at = |dx: usize, dy: usize| {
                prev.get_clamped(
                    (bx + dx) as isize + (mv.dx / 2) as isize,
                    (by + dy) as isize + (mv.dy / 2) as isize,
                ) as i32
            };
            for dy in 0..8 {
                for dx in 0..8 {
                    let cur = plane.get_clamped((bx + dx) as isize, (by + dy) as isize) as i32;
                    blk[dy * 8 + dx] = cur - pred_at(dx, dy);
                }
            }
            let levels = quant::quantize_block(&dct::forward(&blk), step, DC_SCALE);
            let res = dct::inverse(&quant::dequantize_block(&levels, step, DC_SCALE));
            let mut rec = [0i32; 64];
            for dy in 0..8 {
                for dx in 0..8 {
                    rec[dy * 8 + dx] = res[dy * 8 + dx] + pred_at(dx, dy);
                }
            }
            write_block8_into_stripe(stripe, plane.width, by, bx, by, &rec, peak);
            out.push(levels);
        }
    }
    out
}

/// Macroblock-row range of each slice of a frame this tall (the encoder's
/// automatic partition: as even as possible, earlier slices one longer).
fn slice_rows(height: usize) -> Vec<(usize, usize)> {
    let mbs_y = height.div_ceil(MB_SIZE);
    let n = livo_codec2d::slice::slice_count(0, height);
    let mut mb0 = 0;
    (0..n)
        .map(|i| {
            let mb1 = mb0 + mbs_y / n + usize::from(i < mbs_y % n);
            let rows = (mb0, mb1);
            mb0 = mb1;
            rows
        })
        .collect()
}

/// Chroma QP offset of the codec (`encoder::plane_qp`).
fn plane_qp(qp: u8, pi: usize) -> u8 {
    if pi == 0 {
        qp
    } else {
        (qp + 4).min(quant::QP_MAX)
    }
}

/// One inter frame planned the way it was before the static-macroblock
/// path: the reconstruction and the plans of every plane.
struct InterOracle {
    recon: Frame,
    luma: Vec<PlanOracle>,
    chroma: Vec<Vec<[i32; 64]>>,
}

fn plan_inter_oracle(frame: &Frame, prev: &Frame, qp: u8) -> InterOracle {
    let peak = frame.format.peak_value();
    let mut recon = Frame::new(frame.format, frame.width, frame.height);
    let mbs_x = frame.width.div_ceil(MB_SIZE);
    let luma = plan_luma_oracle(
        &frame.planes[0],
        &prev.planes[0],
        &mut recon.planes[0],
        quant::qstep(qp),
        peak,
    );
    let chroma = (1..frame.planes.len())
        .map(|pi| {
            plan_chroma_oracle(
                &frame.planes[pi],
                &prev.planes[pi],
                &mut recon.planes[pi],
                quant::qstep(plane_qp(qp, pi)),
                peak,
                &luma,
                mbs_x,
            )
        })
        .collect();
    InterOracle {
        recon,
        luma,
        chroma,
    }
}

impl InterOracle {
    /// Each slice's luma macroblocks and chroma block rows, plane by plane.
    fn slices(&self) -> impl Iterator<Item = (&[PlanOracle], Vec<&[[i32; 64]]>)> {
        let mbs_x = self.recon.width.div_ceil(MB_SIZE);
        slice_rows(self.recon.height)
            .into_iter()
            .map(move |(mb0, mb1)| {
                let chroma = self
                    .chroma
                    .iter()
                    .map(|plans| &plans[mb0 * mbs_x..(mb1 * mbs_x).min(plans.len())])
                    .collect();
                (&self.luma[mb0 * mbs_x..mb1 * mbs_x], chroma)
            })
    }

    /// The slice payloads, through the product's block coder.
    fn payloads(&self) -> Vec<Vec<u8>> {
        self.slices()
            .map(|(luma, chroma)| {
                let mut enc = RangeEncoder::new();
                let mut coeff = CoeffContexts::new();
                let mut skip_model = BitModel::new();
                for plan in luma {
                    enc.encode_bit(&mut skip_model, plan.skip);
                    if !plan.skip {
                        encode_svalue(&mut enc, (plan.mv.dx - plan.pred_mv.dx) as i32);
                        encode_svalue(&mut enc, (plan.mv.dy - plan.pred_mv.dy) as i32);
                        for levels in &plan.levels4 {
                            encode_block(&mut enc, &mut coeff, levels);
                        }
                    }
                }
                for plans in chroma {
                    let mut cctx = CoeffContexts::new();
                    for levels in plans {
                        encode_block(&mut enc, &mut cctx, levels);
                    }
                }
                enc.finish()
            })
            .collect()
    }

    /// The level blocks the frame codes, grouped as they share contexts.
    fn coded_blocks(&self) -> Vec<Vec<[i32; 64]>> {
        self.slices()
            .flat_map(|(luma, chroma)| {
                let coded = luma.iter().filter(|p| !p.skip);
                let luma = coded.flat_map(|p| p.levels4).collect();
                std::iter::once(luma).chain(chroma.into_iter().map(<[_]>::to_vec))
            })
            .collect()
    }
}

/// Byte offset of the first slice payload of a frame with `n` slices and
/// the derived geometry: 8 fixed bytes and one `u32` length per slice.
fn payload_offset(n: usize) -> usize {
    8 + 4 * n
}

/// One inter frame decoded the way it was: every macroblock predicted into
/// a buffer and written back block by block, every coded block — empty or
/// not — through the inverse transform.
fn decode_inter_oracle(data: &[u8], prev: &Frame, qp: u8) -> Frame {
    let format = prev.format;
    let peak = format.peak_value();
    let width = prev.width;
    let mbs_x = width.div_ceil(MB_SIZE);
    let mut out = Frame::new(format, width, prev.height);
    let slices = slice_rows(prev.height);
    let mut offset = payload_offset(slices.len());
    for (si, &(mb0, mb1)) in slices.iter().enumerate() {
        let len = u32::from_le_bytes(data[8 + 4 * si..][..4].try_into().unwrap()) as usize;
        let mut dec = RangeDecoder::new(&data[offset..offset + len]);
        offset += len;
        let mut mvs = vec![MotionVector::default(); (mb1 - mb0) * mbs_x];
        let step = quant::qstep(qp);
        let mut coeff = CoeffContexts::new();
        let mut skip_model = BitModel::new();
        let mut pred_buf = [0i32; MB_SIZE * MB_SIZE];
        let y0 = mb0 * MB_SIZE;
        let luma = &mut out.planes[0];
        let y1 = (mb1 * MB_SIZE).min(luma.height);
        let stripe = &mut luma.data[y0 * width..y1 * width];
        for row in 0..mb1 - mb0 {
            let by = (mb0 + row) * MB_SIZE;
            for mbx in 0..mbs_x {
                let bx = mbx * MB_SIZE;
                let pred_mv = if mbx > 0 {
                    mvs[row * mbs_x + mbx - 1]
                } else {
                    MotionVector::default()
                };
                let (mv, levels4) = if dec.decode_bit(&mut skip_model) {
                    (pred_mv, None)
                } else {
                    let dx = (decode_svalue(&mut dec) as i16).wrapping_add(pred_mv.dx);
                    let dy = (decode_svalue(&mut dec) as i16).wrapping_add(pred_mv.dy);
                    let mut l4 = [[0i32; 64]; 4];
                    for l in &mut l4 {
                        decode_block(&mut dec, &mut coeff, l);
                    }
                    (MotionVector { dx, dy }, Some(l4))
                };
                mvs[row * mbs_x + mbx] = mv;
                motion::predict_block(&prev.planes[0], bx, by, mv, &mut pred_buf);
                for sb in 0..4 {
                    let (ox, oy) = ((sb % 2) * 8, (sb / 2) * 8);
                    let res = match &levels4 {
                        None => [0i32; 64],
                        Some(l4) => dct::inverse(&quant::dequantize_block(&l4[sb], step, DC_SCALE)),
                    };
                    let mut rec = [0i32; 64];
                    for dy in 0..8 {
                        for dx in 0..8 {
                            rec[dy * 8 + dx] =
                                res[dy * 8 + dx] + pred_buf[(oy + dy) * MB_SIZE + ox + dx];
                        }
                    }
                    write_block8_into_stripe(stripe, width, y0, bx + ox, by + oy, &rec, peak);
                }
            }
        }
        for pi in 1..out.planes.len() {
            let cprev = &prev.planes[pi];
            let plane = &mut out.planes[pi];
            let (pw, ph) = (plane.width, plane.height);
            let (c0, c1) = ((mb0 * 8).min(ph), (mb1 * 8).min(ph));
            let stripe = &mut plane.data[c0 * pw..c1 * pw];
            let cstep = quant::qstep(plane_qp(qp, pi));
            let mut cctx = CoeffContexts::new();
            let mut levels = [0i32; 64];
            for by in (c0..c1).step_by(8) {
                for bx in (0..pw).step_by(8) {
                    let mv = mvs
                        .get((by / 8 - mb0) * mbs_x + bx / 8)
                        .copied()
                        .unwrap_or_default();
                    decode_block(&mut dec, &mut cctx, &mut levels);
                    let res = dct::inverse(&quant::dequantize_block(&levels, cstep, DC_SCALE));
                    let mut rec = [0i32; 64];
                    for dy in 0..8 {
                        for dx in 0..8 {
                            let pred = cprev.get_clamped(
                                (bx + dx) as isize + (mv.dx / 2) as isize,
                                (by + dy) as isize + (mv.dy / 2) as isize,
                            ) as i32;
                            rec[dy * 8 + dx] = res[dy * 8 + dx] + pred;
                        }
                    }
                    write_block8_into_stripe(stripe, pw, c0, bx, by, &rec, peak);
                }
            }
        }
    }
    out
}

/// Smallest of `REPS` timings each of `fast` and `reference`, alternating;
/// each call returns the nanoseconds of its own timed part, so set-up that
/// must be redone per pass (a fresh encoder, a primed decoder) stays out.
fn best_of_pair(mut fast: impl FnMut() -> f64, mut reference: impl FnMut() -> f64) -> (f64, f64) {
    fast();
    reference();
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..REPS {
        best.0 = best.0.min(fast());
        best.1 = best.1.min(reference());
    }
    best
}

/// One frame's coded level blocks written and read back through a block
/// coder, fresh contexts per group: the payload's bits, and whether every
/// block came back.
fn replay_blocks<C: Default>(
    groups: &[Vec<[i32; 64]>],
    encode: impl Fn(&mut RangeEncoder, &mut C, &[i32; 64]),
    decode: impl Fn(&mut RangeDecoder<'_>, &mut C, &mut [i32; 64]) -> bool,
) -> (u64, bool) {
    let mut enc = RangeEncoder::new();
    for group in groups {
        let mut ctx = C::default();
        for levels in group {
            encode(&mut enc, &mut ctx, levels);
        }
    }
    let data = enc.finish();
    let mut dec = RangeDecoder::new(&data);
    let mut levels = [0i32; 64];
    let mut same = true;
    for group in groups {
        let mut ctx = C::default();
        for want in group {
            decode(&mut dec, &mut ctx, &mut levels);
            same &= levels == *want;
        }
    }
    (data.len() as u64 * 8, same)
}

/// The product's block coder against the one it replaced, on the blocks
/// one inter frame codes. `ceiling` bounds new bits over old bits.
fn bench_coeff_coder(
    name: &'static str,
    unit: &'static str,
    groups: &[Vec<[i32; 64]>],
    ceiling: f64,
) -> KernelPoint {
    let new = || replay_blocks::<CoeffContexts>(groups, encode_block, decode_block);
    let old = || replay_blocks::<ContextsOld>(groups, encode_block_old, decode_block_old);
    let ((fast, new_same), (reference, old_same)) = (new(), old());
    assert!(new_same && old_same, "{name}: replays read back");
    let timed = |f: &dyn Fn() -> (u64, bool)| {
        let t0 = Instant::now();
        black_box(f());
        t0.elapsed().as_nanos() as f64
    };
    let (fast_ns, ref_ns) = best_of_pair(|| timed(&new), || timed(&old));
    KernelPoint {
        name,
        unit,
        fast_ns,
        ref_ns,
        gated: true,
        bits: Some(CodedBits {
            fast,
            reference,
            ceiling,
        }),
    }
}

fn bench_inter_static() -> [KernelPoint; 4] {
    // Three consecutive captures: a keyframe and two inter frames a stream.
    const FRAMES: usize = 3;
    let canvases: Vec<(Frame, Frame)> = (0..FRAMES)
        .map(|i| {
            let (views, layout) = culled_views(0.5 + i as f32 / 30.0, i as u32);
            (
                compose_color(&views, &layout, i as u32),
                compose_depth(&views, &layout, &DepthCodec::default(), i as u32),
            )
        })
        .collect();
    let streams: [(Vec<&Frame>, u8); 2] = [
        (canvases.iter().map(|c| &c.0).collect(), COLOR_QP),
        (canvases.iter().map(|c| &c.1).collect(), DEPTH_QP),
    ];
    let encoder_for = |f: &Frame| Encoder::new(EncoderConfig::new(f.width, f.height, f.format));

    // What the product makes of them: bitstreams and the reference chain.
    let coded: Vec<Vec<livo_codec2d::EncodedFrame>> = streams
        .iter()
        .map(|(frames, qp)| {
            let mut enc = encoder_for(frames[0]);
            frames.iter().map(|f| enc.encode_fixed_qp(f, *qp)).collect()
        })
        .collect();

    // The oracles must rebuild exactly that, or the timings compare
    // different work. The first inter frame of each stream keeps its coded
    // blocks for the coefficient-coder replay.
    let mut blocks = Vec::new();
    for ((frames, qp), coded) in streams.iter().zip(&coded) {
        for i in 1..FRAMES {
            let prev = &coded[i - 1].reconstruction;
            let oracle = plan_inter_oracle(frames[i], prev, *qp);
            assert_eq!(
                oracle.recon, coded[i].reconstruction,
                "oracle reconstruction"
            );
            assert_eq!(
                oracle.payloads().concat(),
                coded[i].data[payload_offset(slice_rows(oracle.recon.height).len())..],
                "oracle bitstream"
            );
            assert_eq!(
                decode_inter_oracle(&coded[i].data, prev, *qp),
                oracle.recon,
                "oracle decode"
            );
            if i == 1 {
                blocks.push(oracle.coded_blocks());
            }
        }
    }

    let inter_frames = (FRAMES - 1) as f64;
    let (enc_fast, enc_ref) = best_of_pair(
        || {
            let mut ns = 0.0;
            for (frames, qp) in &streams {
                let mut enc = encoder_for(frames[0]);
                enc.encode_fixed_qp(frames[0], *qp);
                let t0 = Instant::now();
                for f in &frames[1..] {
                    black_box(enc.encode_fixed_qp(f, *qp));
                }
                ns += t0.elapsed().as_nanos() as f64;
            }
            ns
        },
        || {
            let t0 = Instant::now();
            for ((frames, qp), coded) in streams.iter().zip(&coded) {
                for i in 1..FRAMES {
                    let oracle = plan_inter_oracle(frames[i], &coded[i - 1].reconstruction, *qp);
                    black_box(oracle.payloads());
                    black_box(oracle.recon);
                }
            }
            t0.elapsed().as_nanos() as f64
        },
    );
    let (dec_fast, dec_ref) = best_of_pair(
        || {
            let mut ns = 0.0;
            for coded in &coded {
                let mut dec = Decoder::new();
                dec.decode(&coded[0].data).expect("own keyframe decodes");
                let t0 = Instant::now();
                for c in &coded[1..] {
                    black_box(dec.decode(&c.data).expect("own stream decodes"));
                }
                ns += t0.elapsed().as_nanos() as f64;
            }
            ns
        },
        || {
            let t0 = Instant::now();
            for ((_, qp), coded) in streams.iter().zip(&coded) {
                for i in 1..FRAMES {
                    black_box(decode_inter_oracle(
                        &coded[i].data,
                        &coded[i - 1].reconstruction,
                        *qp,
                    ));
                }
            }
            t0.elapsed().as_nanos() as f64
        },
    );

    [
        KernelPoint {
            name: "encode_inter_static",
            unit: "per inter frame pair (colour + depth), culled 0.25-scale canvases, best of 7",
            fast_ns: enc_fast / inter_frames,
            ref_ns: enc_ref / inter_frames,
            gated: true,
            bits: None,
        },
        KernelPoint {
            name: "decode_inter_static",
            unit: "per inter frame pair (colour + depth), same streams, best of 7",
            fast_ns: dec_fast / inter_frames,
            ref_ns: dec_ref / inter_frames,
            gated: true,
            bits: None,
        },
        bench_coeff_coder(
            "coeff_coder_color",
            "per colour inter frame at QP 24, its coded blocks written and read back, vs context-coded coefficients, best of 7",
            &blocks[0],
            1.02,
        ),
        bench_coeff_coder(
            "coeff_coder_depth",
            "per depth inter frame at QP 40, its coded blocks written and read back, vs context-coded coefficients, best of 7",
            &blocks[1],
            1.0,
        ),
    ]
}

/// Run the full kernel sweep.
pub fn run() -> Vec<KernelPoint> {
    let (dct_f, dct_i) = bench_dct();
    let (dct_f_avx2, dct_i_avx2) = bench_dct_avx2();
    let (reconstruct, voxel_downsample) = bench_receiver();
    let (compose, render_prep) = bench_compose_and_render_prep();
    let (pool_scope_empty, pool_scope_tasks) = bench_pool_scope();
    let mut points = vec![
        bench_cull(),
        bench_union_cull(),
        dct_f,
        dct_i,
        dct_f_avx2,
        dct_i_avx2,
        bench_sad(),
        bench_sad_avx2(),
        bench_decode_sliced(),
        pool_scope_empty,
        pool_scope_tasks,
        compose,
        reconstruct,
        voxel_downsample,
        render_prep,
    ];
    points.extend(bench_inter_static());
    points
}

/// Human-readable table.
pub fn text(points: &[KernelPoint]) -> String {
    let mut s = String::from("Hot-kernel speedups vs retained reference implementations\n\n");
    s.push_str(&format!(
        "{:>19} | {:>12} | {:>12} | {:>8} | unit\n",
        "kernel", "fast ns", "ref ns", "speedup"
    ));
    s.push_str(&format!(
        "{:->19}-+-{:->12}-+-{:->12}-+-{:->8}-+-----\n",
        "", "", "", ""
    ));
    for p in points {
        s.push_str(&format!(
            "{:>19} | {:>12.1} | {:>12.1} | {:>7.2}x | {}{}\n",
            p.name,
            p.fast_ns,
            p.ref_ns,
            p.speedup(),
            p.unit,
            if p.gated { "" } else { " [not gated]" }
        ));
        if let Some(b) = &p.bits {
            s.push_str(&format!(
                "{:>19} | {:>12} | {:>12} | {:>7.3}x | bits, fast over ref at most {}x\n",
                "",
                b.fast,
                b.reference,
                b.fast as f64 / b.reference as f64,
                b.ceiling
            ));
        }
    }
    s.push_str("\nReferences stay in-tree (cull_views_union_reference, dct::*_ref, motion::*_ref)\nand double as differential-test oracles; the reconstruct and\nvoxel_downsample references are the pre-fusion algorithms, the compose\nand render_prep ones the bodies before the lanes, the\nencode_inter_static and decode_inter_static ones the inter coder before\nstatic macroblocks took the copy path, and the coeff_coder ones the block\ncoder while every coefficient went through the range coder, kept in\nkernels_bench.rs only.\n");
    s
}

/// The snapshot written to `BENCH_kernels.json`, schema
/// `livo-bench-kernels-v1`.
pub fn json(points: &[KernelPoint]) -> String {
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.field_str("schema", "livo-bench-kernels-v1");
    {
        let cfg = o.field_raw("config");
        let mut c = ObjectWriter::new(cfg);
        c.field_u64("reps", REPS as u64);
        c.field_str("stat", "median, fast/ref interleaved");
        // The dispatch tier every `simd`-aware kernel ran at on this host
        // (0 scalar, 1 sse2, 2 avx2) — the same value the telemetry
        // registry publishes as the `kernel.simd_level` gauge.
        c.field_u64("simd_level", livo_math::simd::level() as u64);
        c.field_str(
            "simd_level_name",
            livo_math::simd::level_name(livo_math::simd::level()),
        );
        c.finish();
    }
    crate::write_host(o.field_raw("host"));
    {
        let arr = o.field_raw("kernels");
        arr.push('[');
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            let mut w = ObjectWriter::new(arr);
            w.field_str("name", p.name);
            w.field_str("unit", p.unit);
            w.field_f64("fast_ns", p.fast_ns);
            w.field_f64("ref_ns", p.ref_ns);
            w.field_f64("speedup", p.speedup());
            w.field_bool("gated", p.gated);
            w.field_f64("gate_floor", GATE_FLOOR);
            if let Some(b) = &p.bits {
                w.field_u64("fast_bits", b.fast);
                w.field_u64("ref_bits", b.reference);
                w.field_f64("bits_ceiling", b.ceiling);
            }
            w.finish();
        }
        arr.push(']');
    }
    o.finish();
    out
}

/// Perf ratchet: true when every gated kernel clears [`GATE_FLOOR`].
/// Non-gated points are informational.
pub fn gate_ok(points: &[KernelPoint]) -> bool {
    points.iter().filter(|p| p.gated).all(|p| {
        let bits_ok = p
            .bits
            .as_ref()
            .is_none_or(|b| b.fast as f64 <= b.reference as f64 * b.ceiling);
        p.speedup() >= GATE_FLOOR && bits_ok
    })
}
