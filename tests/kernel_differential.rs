//! Differential tests for the cull fast path and the pixel path (image →
//! canvas → cloud) on realistic content.
//!
//! `livo-core`'s production cull runs a chunked branch-free row kernel over
//! cached unprojection ray tables; `livo-core`'s test oracle,
//! `cull_views_union_reference`, is the original per-pixel loop. The fast path is only correct if both produce
//! the *same* result — not approximately: the cull mask feeds tiling and
//! encode, so a single diverging pixel changes bitstreams downstream. This
//! pins bit-identical masks (depth + RGB zeroing) and identical
//! [`CullStats`] on every Table 3 scene preset, for the single-frustum and
//! the union (multi-frustum) kernels.
//!
//! The pixel path — `compose_color` / `compose_depth`,
//! `reconstruct_point_cloud`, `prepare_for_render` — runs in lanes with an
//! integer rounding helper in place of `f32::round`; the bodies it replaced
//! are written out below as per-pixel oracles over `f32::round` and
//! `RgbdCamera::pixel_to_world`, and every canvas sample and cloud point
//! must match them bit for bit. Where the domain is small the rounding is
//! checked exhaustively instead: every coded depth sample, every (Y, U, V)
//! and every RGB triple.
//!
//! The codec's plan and reconstruction loops fetch and store 8×8 blocks
//! through `Plane::read_block8_at` and `write_block8_into_stripe`, which
//! take row slices for a block wholly inside the plane or stripe; the
//! sample-by-sample clamped loops they fall back to at an edge are written
//! out below, and both must agree at every block origin and every vector.

use livo::capture::{camera_ring, RgbdFrame};
use livo::codec2d::plane::{write_block8_into_stripe, yuv_to_rgb8};
use livo::codec2d::Plane;
use livo::core::reconstruct::{back_project_views, prepare_for_render, reconstruct_point_cloud};
use livo::core::tile::{compose_color, compose_depth, write_seq};
use livo::core::{cull_views, CullContext, CullStats};
use livo::math::rng::SplitMix64;
use livo::math::{CameraIntrinsics, Frustum, FrustumParams, Pose, RgbdCamera, Vec3};
use livo::pointcloud::VoxelGrid;
use livo::prelude::*;
use livo::runtime::WorkerPool;

#[path = "../crates/livo-core/tests/common/oracle.rs"]
mod cull_oracle;

use cull_oracle::cull_views_union_reference;

const N_CAMERAS: usize = 3;
const SCALE: f32 = 0.15;

fn viewer_frusta() -> Vec<Frustum> {
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
        // Wide view taking in most of the scene.
        mk(Vec3::new(0.0, 1.2, -4.0), Vec3::new(0.0, 1.0, 0.0), 2.0),
        // Narrow views that cut through the middle of the stage.
        mk(Vec3::new(1.0, 1.4, -2.5), Vec3::new(0.5, 1.0, 0.0), 0.8),
        mk(Vec3::new(-2.0, 1.0, 1.0), Vec3::new(1.5, 1.0, 0.0), 0.6),
    ]
}

fn render_views(video: VideoId, t: f32, seq: u32) -> Vec<RgbdFrame> {
    let cameras = camera_ring(
        N_CAMERAS,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(SCALE),
    );
    let preset = DatasetPreset::load(video);
    let snap = preset.scene.at(t);
    let pool = WorkerPool::new(1);
    livo::capture::render_views_at(&pool, &cameras, &snap, seq)
}

fn cameras() -> Vec<livo::math::RgbdCamera> {
    camera_ring(
        N_CAMERAS,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(SCALE),
    )
}

fn assert_views_identical(fast: &[RgbdFrame], refr: &[RgbdFrame], what: &str) {
    for (i, (a, b)) in fast.iter().zip(refr).enumerate() {
        assert!(
            a.depth_mm == b.depth_mm,
            "{what}: view {i} depth mask diverged"
        );
        assert!(a.rgb == b.rgb, "{what}: view {i} rgb mask diverged");
    }
}

/// Single-frustum fast cull: masks and stats bit-identical to the
/// per-pixel oracle on all five presets.
#[test]
fn fast_cull_matches_reference_on_every_preset() {
    let cams = cameras();
    for video in VideoId::ALL {
        for (fi, frustum) in viewer_frusta().iter().enumerate() {
            let views = render_views(video, 0.4, 7);
            let mut fast = views.clone();
            let mut refr = views;
            let s_fast: CullStats = cull_views(&mut fast, &cams, frustum);
            let s_ref = cull_views_union_reference(&mut refr, &cams, std::slice::from_ref(frustum));
            assert_eq!(s_fast, s_ref, "{video} frustum {fi}: stats diverged");
            assert!(
                s_fast.total_valid > 0,
                "{video} frustum {fi}: degenerate scene"
            );
            assert_views_identical(&fast, &refr, &format!("{video} frustum {fi}"));
        }
    }
}

/// Union cull (the SFU's merged-subscriber path) against its reference,
/// with 2- and 3-frustum unions, on all five presets.
#[test]
fn fast_union_cull_matches_reference_on_every_preset() {
    let cams = cameras();
    let frusta = viewer_frusta();
    for video in VideoId::ALL {
        for n in [2, 3] {
            let views = render_views(video, 0.9, 13);
            let mut fast = views.clone();
            let mut refr = views;
            let s_fast = CullContext::new().cull(None, &mut fast, &cams, &frusta[..n]);
            let s_ref = cull_views_union_reference(&mut refr, &cams, &frusta[..n]);
            assert_eq!(s_fast, s_ref, "{video} union({n}): stats diverged");
            assert_views_identical(&fast, &refr, &format!("{video} union({n})"));
        }
    }
}

// ---------------------------------------------------------------------
// The pixel path: oracles over `f32::round` and `pixel_to_world`.
// ---------------------------------------------------------------------

fn luma_oracle(px: &[u8]) -> u16 {
    let (r, g, b) = (px[0] as f32, px[1] as f32, px[2] as f32);
    (0.299 * r + 0.587 * g + 0.114 * b)
        .round()
        .clamp(0.0, 255.0) as u16
}

/// U and V of one 2×2 quad, summed top-left, top-right, bottom-left,
/// bottom-right from zero.
fn chroma_oracle(quad: [&[u8]; 4]) -> (u16, u16) {
    let (mut usum, mut vsum) = (0.0f32, 0.0f32);
    for px in quad {
        let (r, g, b) = (px[0] as f32, px[1] as f32, px[2] as f32);
        usum += -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
        vsum += 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
    }
    (
        (usum / 4.0).round().clamp(0.0, 255.0) as u16,
        (vsum / 4.0).round().clamp(0.0, 255.0) as u16,
    )
}

/// `Frame::from_rgb8` pixel by pixel, quads edge-clamped.
fn yuv420_oracle(w: usize, h: usize, rgb: &[u8]) -> Frame {
    let mut f = Frame::new(PixelFormat::Yuv420, w, h);
    let px = |x: usize, y: usize| &rgb[(y.min(h - 1) * w + x.min(w - 1)) * 3..][..3];
    for y in 0..h {
        for x in 0..w {
            f.planes[0].set(x, y, luma_oracle(px(x, y)));
        }
    }
    for cy in 0..h.div_ceil(2) {
        for cx in 0..w.div_ceil(2) {
            let (x, y) = (cx * 2, cy * 2);
            let (u, v) = chroma_oracle([px(x, y), px(x + 1, y), px(x, y + 1), px(x + 1, y + 1)]);
            f.planes[1].set(cx, cy, u);
            f.planes[2].set(cx, cy, v);
        }
    }
    f
}

fn yuv_to_rgb8_oracle(luma: u16, u: u16, v: u16) -> [u8; 3] {
    let (luma, u, v) = (luma as f32, u as f32 - 128.0, v as f32 - 128.0);
    [
        (luma + 1.402 * v).round().clamp(0.0, 255.0) as u8,
        (luma - 0.344_136 * u - 0.714_136 * v)
            .round()
            .clamp(0.0, 255.0) as u8,
        (luma + 1.772 * u).round().clamp(0.0, 255.0) as u8,
    ]
}

fn encode_sample_oracle(codec: &DepthCodec, depth_mm: u16) -> u16 {
    match codec.encoding {
        DepthEncoding::ScaledY16 => {
            let d = depth_mm.min(codec.max_depth_mm) as f32;
            (d * codec.scale()).round().min(u16::MAX as f32) as u16
        }
        _ => depth_mm,
    }
}

fn decode_sample_oracle(codec: &DepthCodec, coded: u16) -> u16 {
    match codec.encoding {
        DepthEncoding::ScaledY16 => (coded as f32 / codec.scale()).round() as u16,
        _ => coded,
    }
}

/// Both canvases as first composed: every view copied into its slot of a
/// scratch canvas, converted sample by sample.
fn compose_oracle(
    views: &[RgbdFrame],
    l: &TileLayout,
    codec: &DepthCodec,
    seq: u32,
) -> (Frame, Frame) {
    let mut rgb = vec![0u8; l.canvas_w * l.canvas_h * 3];
    let mut samples = vec![0u16; l.canvas_w * l.canvas_h];
    for (i, v) in views.iter().enumerate() {
        let (ox, oy) = l.slot_origin(i);
        for y in 0..v.height {
            for x in 0..v.width {
                let dst = (oy + y) * l.canvas_w + ox + x;
                rgb[dst * 3..dst * 3 + 3].copy_from_slice(&v.rgb_at(x, y));
                samples[dst] = encode_sample_oracle(codec, v.depth_at(x, y));
            }
        }
    }
    let mut color = yuv420_oracle(l.canvas_w, l.canvas_h, &rgb);
    write_seq(&mut color.planes[0], seq, 255);
    let mut depth = Frame::from_y16(l.canvas_w, l.canvas_h, samples);
    write_seq(&mut depth.planes[0], seq, u16::MAX);
    (color, depth)
}

/// The receiver's cloud pixel by pixel through `pixel_to_world`.
fn reconstruct_oracle(
    color: &Frame,
    depth: &Frame,
    l: &TileLayout,
    cameras: &[RgbdCamera],
    codec: &DepthCodec,
) -> PointCloud {
    let mut cloud = PointCloud::new();
    for (i, cam) in cameras.iter().enumerate() {
        let (ox, oy) = l.slot_origin(i);
        for y in 0..l.cam_h {
            for x in 0..l.cam_w {
                let (cx, cy) = (ox + x, oy + y);
                let d = decode_sample_oracle(codec, depth.planes[0].get(cx, cy));
                if let Some(world) = cam.pixel_to_world(x as u32, y as u32, d) {
                    let rgb = yuv_to_rgb8_oracle(
                        color.planes[0].get(cx, cy),
                        color.planes[1].get(cx / 2, cy / 2),
                        color.planes[2].get(cx / 2, cy / 2),
                    );
                    cloud.push(Point::new(world, rgb));
                }
            }
        }
    }
    cloud
}

/// Same points in the same order, positions compared as bits.
fn assert_same_cloud(got: &PointCloud, want: &PointCloud, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: point count");
    for (i, (g, w)) in got.points.iter().zip(&want.points).enumerate() {
        let bits = |p: &Point| p.position.to_array().map(f32::to_bits);
        assert_eq!((bits(g), g.color), (bits(w), w.color), "{what}: point {i}");
    }
}

fn through_codec(canvas: &Frame, qp: u8) -> Frame {
    let cfg = EncoderConfig::new(canvas.width, canvas.height, canvas.format);
    let data = Encoder::new(cfg).encode_fixed_qp(canvas, qp).data;
    Decoder::new().decode(&data).expect("own stream decodes")
}

/// Compose, reconstruct and render-prep one capture against the oracles;
/// returns the reconstructed point count.
fn assert_pixel_path_matches(
    what: &str,
    views: &[RgbdFrame],
    cams: &[RgbdCamera],
    viewer: &Frustum,
) -> usize {
    let l = TileLayout::new(views[0].width, views[0].height, cams.len());
    let mut points = 0;
    for encoding in [DepthEncoding::ScaledY16, DepthEncoding::RawY16] {
        let what = format!("{what} {encoding:?}");
        let codec = DepthCodec::new(6000, encoding);
        let (color, depth) = compose_oracle(views, &l, &codec, 0xA5A5_0FF0);
        assert!(
            compose_color(views, &l, 0xA5A5_0FF0) == color,
            "{what}: colour canvas"
        );
        assert!(
            compose_depth(views, &l, &codec, 0xA5A5_0FF0) == depth,
            "{what}: depth canvas"
        );
        // What a receiver holds: the canvases after the codec.
        let (color, depth) = (through_codec(&color, 24), through_codec(&depth, 40));
        let cloud = reconstruct_point_cloud(&color, &depth, &l, cams, &codec);
        assert_same_cloud(
            &cloud,
            &reconstruct_oracle(&color, &depth, &l, cams, &codec),
            &what,
        );
        for voxel_m in [0.03, 0.2] {
            let want = VoxelGrid::new(voxel_m)
                .downsample(&cloud)
                .cull_to_frustum(viewer);
            assert_same_cloud(&prepare_for_render(&cloud, voxel_m, viewer), &want, &what);
        }
        points = cloud.len();
    }
    // The truth cloud takes the same back-projection over un-tiled views.
    let mut truth = PointCloud::new();
    for (cam, v) in cams.iter().zip(views) {
        for (p, &d) in v.depth_mm.iter().enumerate() {
            let (x, y) = (p % v.width, p / v.width);
            if let Some(world) = cam.pixel_to_world(x as u32, y as u32, d) {
                truth.push(Point::new(world, v.rgb_at(x, y)));
            }
        }
    }
    assert_same_cloud(&back_project_views(views, cams), &truth, what);
    points
}

#[test]
fn pixel_path_matches_the_per_pixel_oracles_on_every_preset() {
    let cams = cameras();
    let frusta = viewer_frusta();
    for video in VideoId::ALL {
        let mut views = render_views(video, 0.4, 7);
        cull_views(&mut views, &cams, &frusta[1]);
        // Beyond the cull: pixels nearer than `min_range_m` and (raw Y16
        // carries them) far past `max_range_m`.
        for v in &mut views {
            for (p, d) in v.depth_mm.iter_mut().enumerate() {
                match p % 11 {
                    0 => *d = 120,
                    1 => *d = 60_000,
                    _ => {}
                }
            }
        }
        let n = assert_pixel_path_matches(&video.to_string(), &views, &cams, &frusta[2]);
        assert!(n > 500, "{video}: {n} points");
    }
}

#[test]
fn pixel_path_matches_on_odd_sizes_short_range_rigs_and_empty_clouds() {
    let scene = DatasetPreset::load(VideoId::Band2).scene.at(0.2);
    let pool = WorkerPool::new(1);
    let frusta = viewer_frusta();
    // Odd widths and heights put slot origins on odd columns and rows (a
    // pixel's chroma sample is found in canvas coordinates), leave a part
    // chunk at the end of every row, and 5 and 7 cameras a part-empty slot
    // row.
    for (w, h, n) in [(45, 37, 4), (45, 37, 5), (33, 21, 7), (7, 9, 2), (17, 8, 1)] {
        let k = CameraIntrinsics::from_hfov(w, h, 1.3);
        let mut cams = camera_ring(n, 2.5, 1.3, Vec3::new(0.0, 1.0, 0.0), k);
        for cam in &mut cams {
            cam.max_range_m = 2.6; // part of the scene lies beyond it
        }
        let views = livo::capture::render_views_at(&pool, &cams, &scene, 3);
        assert_pixel_path_matches(&format!("{w}x{h}x{n}"), &views, &cams, &frusta[0]);
    }
    // Nothing captured: black canvases, an empty cloud, nothing to show.
    let cams = cameras();
    let k = cams[0].intrinsics;
    let blank = vec![RgbdFrame::new(k.width as usize, k.height as usize); cams.len()];
    assert_eq!(
        assert_pixel_path_matches("blank", &blank, &cams, &frusta[0]),
        0
    );
    assert!(prepare_for_render(&PointCloud::new(), 0.03, &frusta[0]).is_empty());
    // A frustum that keeps nothing: the viewer has its back to the stage.
    let away = Frustum::from_params(
        &Pose::look_at(
            Vec3::new(0.0, 1.2, -4.0),
            Vec3::new(0.0, 1.2, -9.0),
            Vec3::Y,
        ),
        &FrustumParams::default(),
    );
    let views = render_views(VideoId::Band2, 0.4, 7);
    assert!(assert_pixel_path_matches("away", &views, &cams, &away) > 500);
    let cloud = back_project_views(&views, &cams);
    assert!(prepare_for_render(&cloud, 0.03, &away).is_empty());
}

#[test]
fn depth_samples_round_like_f32_round_for_every_coded_value() {
    for max_depth_mm in [1, 4000, 6000, 65_535] {
        for encoding in [DepthEncoding::ScaledY16, DepthEncoding::RawY16] {
            let codec = DepthCodec::new(max_depth_mm, encoding);
            let all: Vec<u16> = (0..=u16::MAX).collect();
            let (mut coded, mut mm) = (vec![0u16; all.len()], vec![0u16; all.len()]);
            codec.encode_row(&all, &mut coded);
            codec.decode_row(&all, &mut mm);
            for &s in &all {
                let (enc, dec) = (
                    encode_sample_oracle(&codec, s),
                    decode_sample_oracle(&codec, s),
                );
                let what = format!("{s} at {max_depth_mm} mm {encoding:?}");
                assert_eq!(
                    (codec.encode_sample(s), coded[s as usize]),
                    (enc, enc),
                    "{what}"
                );
                assert_eq!(
                    (codec.decode_sample(s), mm[s as usize]),
                    (dec, dec),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn every_yuv_triple_converts_like_f32_round() {
    for luma in 0..256 {
        for u in 0..256 {
            for v in 0..256 {
                let (got, want) = (yuv_to_rgb8(luma, u, v), yuv_to_rgb8_oracle(luma, u, v));
                assert_eq!(got, want, "({luma}, {u}, {v})");
            }
        }
    }
    // A decoder hands over whatever it reconstructed: samples past 8 bits.
    let mut rng = SplitMix64::new(0x59_5556);
    for _ in 0..1_000_000 {
        let (luma, u, v) = (rng.gen(), rng.gen(), rng.gen());
        let (got, want) = (yuv_to_rgb8(luma, u, v), yuv_to_rgb8_oracle(luma, u, v));
        assert_eq!(got, want, "({luma}, {u}, {v})");
    }
}

#[test]
fn every_rgb_triple_gets_the_luma_of_f32_round() {
    // One 256×256 image per red value: green down the rows, blue along them.
    let mut rgb = vec![0u8; 256 * 256 * 3];
    for r in 0..=255u8 {
        for (p, px) in rgb.chunks_exact_mut(3).enumerate() {
            px.copy_from_slice(&[r, (p / 256) as u8, p as u8]);
        }
        let luma = &Frame::from_rgb8(256, 256, &rgb).planes[0];
        for (p, px) in rgb.chunks_exact(3).enumerate() {
            assert_eq!(luma.data[p], luma_oracle(px), "{px:?}");
        }
    }
}

#[test]
fn a_million_random_quads_get_the_chroma_of_f32_round() {
    let mut rng = SplitMix64::new(0xC0_10A);
    // Ten images of 100 000 quads, odd-sized so the last column and row of
    // quads are edge-clamped; runs of black so chunks come all black, part
    // black and not black at all.
    let (w, h) = (999, 399);
    for image in 0..10 {
        let mut rgb = vec![0u8; w * h * 3];
        for (p, px) in rgb.chunks_exact_mut(3).enumerate() {
            if (p / 13 + image) % 3 != 0 {
                px.fill_with(|| rng.gen());
            }
        }
        let got = Frame::from_rgb8(w, h, &rgb);
        assert!(got == yuv420_oracle(w, h, &rgb), "image {image}");
    }
}

// ---------------------------------------------------------------------
// The codec's block gather and block write against their clamped loops.
// ---------------------------------------------------------------------

/// `write_block8_into_stripe` one sample at a time: clamp to the peak, leave
/// out what falls off the stripe or the plane.
fn write_block8_oracle(
    stripe: &mut [u16],
    width: usize,
    y0: usize,
    (bx, by): (usize, usize),
    block: &[i32; 64],
    peak: u16,
) {
    for (i, &v) in block.iter().enumerate() {
        let (x, y) = (bx + i % 8, by + i / 8);
        if x < width && y >= y0 && y < y0 + stripe.len() / width {
            stripe[(y - y0) * width + x] = v.clamp(0, peak as i32) as u16;
        }
    }
}

#[test]
fn block_gather_and_write_take_the_clamped_loops_values() {
    let mut rng = SplitMix64::new(0xB10C);
    for (w, h) in [(20usize, 12usize), (33, 17)] {
        // Both formats: 8-bit samples and the full 16-bit range.
        for peak in [255u16, u16::MAX] {
            let samples = (0..w * h).map(|_| rng.gen_range(0..=peak)).collect();
            let plane = Plane::from_data(w, h, samples);
            // Residual-plus-prediction values on both sides of the clamp.
            let block: [i32; 64] = std::array::from_fn(|_| rng.gen_range(-300..=peak as i32 + 300));
            for by in 0..h {
                for bx in 0..w {
                    // Every vector a search of range 8 can return, and one
                    // more: the halved ones of chroma lie inside.
                    for dy in -9..=9isize {
                        for dx in -9..=9isize {
                            let (x, y) = (bx as isize + dx, by as isize + dy);
                            let mut got = [0i32; 64];
                            plane.read_block8_at(x, y, &mut got);
                            let want: [i32; 64] = std::array::from_fn(|i| {
                                plane.get_clamped(x + (i % 8) as isize, y + (i / 8) as isize) as i32
                            });
                            assert_eq!(got, want, "{w}x{h} block ({bx},{by}) mv ({dx},{dy})");
                        }
                    }
                    // The stripe holding the block's first row, luma-tall
                    // and chroma-tall, the plane's partial last one included;
                    // and one that begins inside the block.
                    for (y0, tall) in [(by / 16 * 16, 16usize), (by / 8 * 8, 8), (by + 3, 8)] {
                        let rows = tall.min(h.saturating_sub(y0));
                        let mut got = vec![0xABCD_u16; rows * w];
                        let mut want = got.clone();
                        write_block8_into_stripe(&mut got, w, y0, bx, by, &block, peak);
                        write_block8_oracle(&mut want, w, y0, (bx, by), &block, peak);
                        assert_eq!(got, want, "{w}x{h} block ({bx},{by}) stripe at {y0}");
                    }
                }
            }
        }
    }
}
