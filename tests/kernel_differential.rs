//! Differential tests for the cull fast path on realistic content.
//!
//! `livo-core`'s production cull runs a chunked branch-free row kernel over
//! cached unprojection ray tables; `cull_views_union_reference` retains the
//! original per-pixel loop. The fast path is only correct if both produce
//! the *same* result — not approximately: the cull mask feeds tiling and
//! encode, so a single diverging pixel changes bitstreams downstream. This
//! pins bit-identical masks (depth + RGB zeroing) and identical
//! [`CullStats`] on every Table 3 scene preset, for the single-frustum and
//! the union (multi-frustum) kernels.

use livo::capture::{camera_ring, RgbdFrame};
use livo::core::cull::cull_views_union_reference;
use livo::core::{cull_views, CullContext, CullStats};
use livo::math::{CameraIntrinsics, Frustum, FrustumParams, Pose, Vec3};
use livo::prelude::*;
use livo::runtime::WorkerPool;

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

/// Single-frustum fast cull: masks and stats bit-identical to the retained
/// per-pixel reference on all five presets.
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
