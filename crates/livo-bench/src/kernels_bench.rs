//! Hot-kernel microbenchmarks: each per-frame kernel whose subject is still
//! open, against the body it replaced.
//!
//! The references are the test oracles, included here from each crate's
//! `tests/common/oracle.rs` — the per-pixel union cull for `cull` and
//! `union_cull`, the matrix DCT pair for `dct_forward` / `dct_inverse`, the
//! clamped-loop SAD for `sad` — so the reported speedups measure the actual
//! replacement, on the actual machine, against the body the differential
//! tests hold it to. The two `coeff_coder` points write and read back the
//! level blocks of one colour and one depth inter frame (planned by the
//! codec's inter plan oracle) through the product's block coder and through
//! the one it replaced, kept below as its only copy; they also carry both
//! coders' payload bits, which repeat exactly and are gated against a
//! ceiling beside the clock. A point whose win is measured on a `call_*`
//! workload and whose subject no open change touches is retired into its
//! differential test (DESIGN.md, the second-path ledger).
//! `repro kernels` prints the table; `--json` snapshots it (schema
//! `livo-bench-kernels-v1`, committed as `BENCH_kernels.json`);
//! `--gate` exits non-zero if any gated kernel runs slower than what it
//! replaced ([`GATE_FLOOR`]), which `scripts/tier1.sh` uses as a perf
//! ratchet: a kernel that does not pay for itself is deleted, not given a
//! looser floor. Points marked `gated: false` (the two `pool_scope_*`
//! dispatch diagnostics) are reported but not ratcheted.
//!
//! Timing protocol: fast and reference passes alternate within each
//! repetition (so drift hits both alike) and the per-iteration median over
//! [`REPS`] repetitions is reported — robust to scheduler noise on small
//! CI machines. The coder points report the smallest of the repetitions
//! instead (`best_of_pair`): the minimum is what a frame costs when nothing
//! else ran.

use std::hint::black_box;
use std::time::Instant;

use livo_capture::{datasets::DatasetPreset, render::render_rgbd_at, rig, RgbdFrame, VideoId};
use livo_codec2d::block::{decode_block, encode_block, CoeffContexts};
use livo_codec2d::dct::ZIGZAG;
use livo_codec2d::encoder::SEARCH_RANGE;
use livo_codec2d::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use livo_codec2d::slice::slice_count;
use livo_codec2d::{dct, motion, plane, quant};
use livo_codec2d::{Encoder, EncoderConfig, Frame, Plane};
use livo_core::cull::CullContext;
use livo_core::frustum_pred::FrustumPredictor;
use livo_core::stage::GUARD_BAND_M;
use livo_core::tile::{compose_color, compose_depth, TileLayout};
use livo_core::{cull_views, CullStats, DepthCodec};
use livo_math::{CameraIntrinsics, Frustum, FrustumParams, Pose, RgbdCamera, Vec3};
use livo_runtime::WorkerPool;
use livo_telemetry::json::ObjectWriter;

#[path = "../../livo-codec2d/tests/common/oracle.rs"]
mod codec_oracle;
#[path = "../../livo-core/tests/common/oracle.rs"]
mod cull_oracle;

use codec_oracle::{forward_ref, inverse_ref, plan_inter, sad_ref, InterPlan};
use cull_oracle::cull_views_union_reference;

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
    /// Median wall-clock of the reference it replaced, nanoseconds.
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
        ctx.cull(&mut fast_views, &cameras, &frusta),
        cull_views_union_reference(&mut ref_views, &cameras, &frusta),
    );
    assert!(fast_views
        .iter()
        .zip(&ref_views)
        .all(|(a, b)| a.depth_mm == b.depth_mm && a.rgb == b.rgb));
    let (fast, naive) = time_pair(
        || {
            let mut v = views.clone();
            black_box(ctx.cull(&mut v, &cameras, &frusta));
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
                black_box(forward_ref(black_box(b)));
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
                black_box(inverse_ref(black_box(c)));
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
    // Interior macroblocks only: every vector keeps the block inside.
    let blocks = || {
        (16..224)
            .step_by(16)
            .flat_map(|by| (16..224).step_by(16).map(move |bx| (bx, by)))
    };
    let count = blocks().count() * vectors.len();
    let sweep = |sad: fn(&Plane, &Plane, usize, usize, motion::MotionVector, u64) -> u64| {
        for (bx, by) in blocks() {
            for (dx, dy) in vectors {
                let mv = motion::MotionVector { dx, dy };
                black_box(sad(&cur, &reference, bx, by, mv, u64::MAX));
            }
        }
    };
    let (fast, naive) = time_pair(|| sweep(motion::sad), || sweep(sad_ref));
    KernelPoint {
        name: "sad",
        unit: "per 16x16 SAD, no early exit",
        fast_ns: fast / count as f64,
        ref_ns: naive / count as f64,
        gated: true,
        bits: None,
    }
}

/// One culled capture of `band2` at scene time `t` by four cameras at
/// scale 0.25, and the tile layout of its canvases.
fn culled_views(t: f32, seq: u32) -> (Vec<RgbdFrame>, TileLayout) {
    let k = CameraIntrinsics::kinect_depth(0.25);
    let cameras = rig::camera_ring(4, 2.5, 1.2, Vec3::new(0.0, 1.0, 0.0), k);
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
// The block coder: the level blocks of one inter frame of the canvas pair.
// ---------------------------------------------------------------------

/// QPs the rate controller settles on for this content on `call_steady`.
const COLOR_QP: u8 = 24;
const DEPTH_QP: u8 = 40;

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

/// Smallest of `REPS` wall-clock timings each of `fast` and `reference`,
/// alternating, after one untimed pass of each.
fn best_of_pair(mut fast: impl FnMut(), mut reference: impl FnMut()) -> (f64, f64) {
    fast();
    reference();
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64
    };
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..REPS {
        best.0 = best.0.min(time(&mut fast));
        best.1 = best.1.min(time(&mut reference));
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
    let (fast_ns, ref_ns) = best_of_pair(|| _ = black_box(new()), || _ = black_box(old()));
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

/// The level blocks `plan` codes, grouped as they share contexts: per
/// slice, the coded luma macroblocks' blocks, then each chroma plane's.
fn coded_blocks(plan: &InterPlan, slices: usize) -> Vec<Vec<[i32; 64]>> {
    plan.slices(slices)
        .flat_map(|(luma, chroma)| {
            let coded = luma.iter().filter(|p| !p.skip);
            let luma = coded.flat_map(|p| p.levels4).collect();
            std::iter::once(luma).chain(chroma.into_iter().map(<[_]>::to_vec))
        })
        .collect()
}

/// Both coder points, on the first inter frame of the colour and of the
/// depth stream of two consecutive captures.
fn bench_coeff_coders() -> [KernelPoint; 2] {
    let canvases: Vec<(Frame, Frame)> = (0..2)
        .map(|i| {
            let (views, layout) = culled_views(0.5 + i as f32 / 30.0, i as u32);
            (
                compose_color(&views, &layout, i as u32),
                compose_depth(&views, &layout, &DepthCodec::default(), i as u32),
            )
        })
        .collect();
    let blocks = |frames: [&Frame; 2], qp: u8| {
        let cfg = EncoderConfig::new(frames[0].width, frames[0].height, frames[0].format);
        let mut enc = Encoder::new(cfg);
        let key = enc.encode_fixed_qp(frames[0], qp).reconstruction;
        let inter = enc.encode_fixed_qp(frames[1], qp).reconstruction;
        // The oracle must rebuild what the product coded, or the replay
        // codes different blocks.
        let plan = plan_inter(frames[1], &key, qp, SEARCH_RANGE);
        assert_eq!(plan.recon, inter, "oracle reconstruction");
        coded_blocks(&plan, slice_count(cfg.slices, frames[1].height))
    };
    [
        bench_coeff_coder(
            "coeff_coder_color",
            "per colour inter frame at QP 24, its coded blocks written and read back, vs context-coded coefficients, best of 7",
            &blocks([&canvases[0].0, &canvases[1].0], COLOR_QP),
            1.02,
        ),
        bench_coeff_coder(
            "coeff_coder_depth",
            "per depth inter frame at QP 40, its coded blocks written and read back, vs context-coded coefficients, best of 7",
            &blocks([&canvases[0].1, &canvases[1].1], DEPTH_QP),
            1.0,
        ),
    ]
}

/// Run the full kernel sweep.
pub fn run() -> Vec<KernelPoint> {
    let (dct_f, dct_i) = bench_dct();
    let (pool_scope_empty, pool_scope_tasks) = bench_pool_scope();
    let mut points = vec![
        bench_cull(),
        bench_union_cull(),
        dct_f,
        dct_i,
        bench_sad(),
        pool_scope_empty,
        pool_scope_tasks,
    ];
    points.extend(bench_coeff_coders());
    points
}

/// Human-readable table.
pub fn text(points: &[KernelPoint]) -> String {
    let mut s = String::from("Hot-kernel speedups vs the bodies they replaced\n\n");
    s.push_str(&crate::table_head(
        &[
            ("kernel", 19),
            ("fast ns", 12),
            ("ref ns", 12),
            ("speedup", 8),
            ("unit", 4),
        ],
        true,
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
    s.push_str("\nThe cull, DCT and SAD references are the test oracles in livo-core's and\nlivo-codec2d's tests/common/oracle.rs; the coeff_coder one is the block\ncoder while every coefficient went through the range coder, kept in\nkernels_bench.rs only.\n");
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
    o.field_objects("kernels", points, |w, p| {
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
    });
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
