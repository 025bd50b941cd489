//! What a second temporal layer costs a two-party call at equal QP — the
//! reason `EncoderConfig::temporal_layers` defaults to 1 and only an SFU
//! cluster, whose slow members drop T1, encodes two.
//!
//! A T0 of a two-layer stream predicts from the frame two back, so it
//! carries more residual than a one-layer P frame at the same quantiser,
//! while T1 costs about what a P frame does. `one_layer_is_the_cheaper_default`
//! gates that on a small rig; `two_layer_cost_on_call_steady` (ignored, run
//! it with `cargo test --release --test temporal_layers -- --ignored
//! --nocapture`) prints bits a frame and PSSIM on `call_steady`'s capture
//! for EXPERIMENTS.md.

use livo::capture::{render::render_views_at, rig, RgbdFrame};
use livo::core::reconstruct::{prepare_for_render, reconstruct_point_cloud};
use livo::core::stage::{Rate, NOADAPT_QPS, RENDER_VOXEL_M};
use livo::prelude::*;

/// Bits a frame and, over every `score_every`-th frame, mean PSSIM
/// (geometry, colour) against the un-culled capture, for one encode of
/// `frames` frames of `band2` at NoAdapt's fixed QPs.
struct Cost {
    bits_per_frame: f64,
    pssim: (f64, f64),
}

fn truth(views: &[RgbdFrame], cameras: &[livo::math::RgbdCamera]) -> PointCloud {
    let mut cloud = PointCloud::new();
    for (cam, v) in cameras.iter().zip(views) {
        for y in 0..v.height {
            for x in 0..v.width {
                if let Some(w) = cam.pixel_to_world(x as u32, y as u32, v.depth_mm[y * v.width + x])
                {
                    cloud.push(Point::new(w, v.rgb_at(x, y)));
                }
            }
        }
    }
    cloud
}

fn measure(camera_scale: f32, frames: u32, score_every: u32) -> [Cost; 2] {
    let cameras = rig::camera_ring(
        4,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        livo::math::CameraIntrinsics::kinect_depth(camera_scale),
    );
    let k = cameras[0].intrinsics;
    let layout = TileLayout::new(k.width as usize, k.height as usize, cameras.len());
    let scene = DatasetPreset::load(VideoId::Band2).scene;
    let pool = livo::runtime::WorkerPool::new(1);
    let clip: Vec<Vec<RgbdFrame>> = (0..frames)
        .map(|f| render_views_at(&pool, &cameras, &scene.at(f as f32 / 30.0), f))
        .collect();
    let pose = Pose::look_at(Vec3::new(0.0, 1.5, 3.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
    let viewer = Frustum::from_params(&pose, &FrustumParams::default());
    let pssim_cfg = PssimConfig {
        neighbors: 6,
        cell_size: RENDER_VOXEL_M * 3.0,
        curvature_weight: 0.3,
    };
    let (color, depth) = NOADAPT_QPS;
    [1u8, 2].map(|layers| {
        let mut sender = SenderStage::new(layout, DepthEncoding::ScaledY16, layers);
        let (mut bits, mut scores) = (0u64, Vec::new());
        for (seq, captured) in clip.iter().enumerate() {
            let mut views = captured.clone();
            sender.cull(&mut views, &cameras, &[viewer.expanded(0.2)]);
            let canvases = sender.compose(&views, seq as u32);
            let rate = Rate::FixedQp { color, depth };
            let (c, d) = sender.encode(&canvases, rate, seq as u64, 0);
            bits += c.bits() + d.bits();
            if (seq as u32).is_multiple_of(score_every) {
                let cloud = reconstruct_point_cloud(
                    &c.reconstruction,
                    &d.reconstruction,
                    &layout,
                    &cameras,
                    sender.depth_codec(),
                );
                let shown = prepare_for_render(&cloud, RENDER_VOXEL_M, &viewer);
                let reference =
                    prepare_for_render(&truth(captured, &cameras), RENDER_VOXEL_M, &viewer);
                let s = pssim(&reference, &shown, &pssim_cfg).expect("both clouds have points");
                scores.push((s.geometry, s.color));
            }
        }
        let n = scores.len().max(1) as f64;
        Cost {
            bits_per_frame: bits as f64 / frames as f64,
            pssim: (
                scores.iter().map(|s| s.0).sum::<f64>() / n,
                scores.iter().map(|s| s.1).sum::<f64>() / n,
            ),
        }
    })
}

#[test]
fn one_layer_is_the_cheaper_default() {
    assert_eq!(
        EncoderConfig::new(64, 64, PixelFormat::Yuv420).temporal_layers,
        1
    );
    let [one, two] = measure(0.08, 12, u32::MAX);
    assert!(
        two.bits_per_frame > one.bits_per_frame,
        "two layers {:.0} bit/frame, one {:.0}",
        two.bits_per_frame,
        one.bits_per_frame
    );
}

#[test]
#[ignore = "prints EXPERIMENTS.md's equal-QP table; seconds in release"]
fn two_layer_cost_on_call_steady() {
    let [one, two] = measure(0.25, 60, 5);
    for (layers, c) in [(1, &one), (2, &two)] {
        println!(
            "{layers} layer(s): {:.0} bit/frame, PSSIM geometry {:.2} colour {:.2}",
            c.bits_per_frame, c.pssim.0, c.pssim.1
        );
    }
    println!(
        "two layers cost {:+.1} % bits/frame",
        100.0 * (two.bits_per_frame / one.bits_per_frame - 1.0)
    );
}
