//! Property and determinism tests for the capture substrate.

use livo_capture::datasets::{DatasetPreset, VideoId};
use livo_capture::usertrace::{TraceStyle, UserTrace};
use livo_capture::{render_rgbd, rig, BandwidthTrace, TraceId};
use livo_math::rng::cases;

#[test]
fn rendering_is_deterministic() {
    let preset = DatasetPreset::load(VideoId::Band2);
    let cams = rig::panoptic_rig(0.06);
    let snap = preset.scene.at(1.234);
    let a = render_rgbd(&cams[3], &snap);
    let b = render_rgbd(&cams[3], &snap);
    assert_eq!(a, b);
}

#[test]
fn every_camera_sees_the_scene() {
    for preset in DatasetPreset::all() {
        let cams = rig::panoptic_rig(0.06);
        let snap = preset.scene.at(0.5);
        for (i, c) in cams.iter().enumerate() {
            let f = render_rgbd(c, &snap);
            let frac = f.valid_pixels() as f64 / (f.width * f.height) as f64;
            assert!(
                frac > 0.1,
                "{}: camera {i} sees almost nothing ({frac:.3})",
                preset.id
            );
        }
    }
}

#[test]
fn depth_values_respect_sensor_range() {
    let preset = DatasetPreset::load(VideoId::Pizza1);
    let cams = rig::panoptic_rig(0.06);
    let snap = preset.scene.at(2.0);
    for c in &cams {
        let f = render_rgbd(c, &snap);
        for &d in &f.depth_mm {
            assert!(
                d == 0 || (240..=6030).contains(&d),
                "depth {d} out of range (noise can nudge past the 6 m limit)"
            );
        }
    }
}

const CASES: u32 = 64;

/// Scene resolution at any time never panics and always yields shapes.
#[test]
fn scenes_resolve_at_any_time() {
    cases(1, CASES, |rng| {
        let t = rng.gen_range(0.0f32..400.0);
        for preset in DatasetPreset::all() {
            assert!(!preset.scene.at(t).shapes.is_empty());
        }
    });
}

/// Bandwidth traces always respect their documented min/max bounds.
#[test]
fn traces_respect_bounds() {
    cases(2, CASES, |rng| {
        let (seed, dur) = (rng.gen_range(0u64..500), rng.gen_range(5.0f32..120.0));
        let t1 = BandwidthTrace::generate(TraceId::Trace1, dur, seed);
        for &s in &t1.samples_mbps {
            assert!((151.91..=262.19).contains(&s));
        }
        let t2 = BandwidthTrace::generate(TraceId::Trace2, dur, seed);
        for &s in &t2.samples_mbps {
            assert!((36.35..=106.37).contains(&s));
        }
    });
}

/// User traces keep the viewer at plausible human heights and speeds.
#[test]
fn user_traces_are_humanly_possible() {
    cases(3, CASES, |rng| {
        let (seed, dur) = (rng.gen_range(0u64..300), rng.gen_range(2.0f32..40.0));
        for style in TraceStyle::ALL {
            let tr = UserTrace::generate(style, dur, seed);
            for p in &tr.poses {
                assert!(
                    (1.0..2.2).contains(&p.position.y),
                    "height {}",
                    p.position.y
                );
            }
            for w in tr.poses.windows(2) {
                let speed = w[0].position.distance(w[1].position) * 30.0;
                assert!(speed < 4.0, "speed {speed} m/s");
            }
        }
    });
}

/// Trace scaling scales the statistics linearly.
#[test]
fn trace_scaling_is_linear() {
    cases(4, CASES, |rng| {
        let (seed, factor) = (rng.gen_range(0u64..200), rng.gen_range(0.01f64..10.0));
        let t = BandwidthTrace::generate(TraceId::Trace2, 30.0, seed);
        let s = t.scaled(factor);
        let (a, b) = (t.stats(), s.stats());
        assert!((b.mean - a.mean * factor).abs() < 1e-6 * a.mean.max(1.0) * factor.max(1.0));
        assert!((b.max - a.max * factor).abs() < 1e-9 * factor.max(1.0) * a.max);
    });
}
