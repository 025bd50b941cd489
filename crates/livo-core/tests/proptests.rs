//! Property tests for LiVo's core mechanisms: tiling round trips, sequence
//! embedding robustness, splitter safety, and cull soundness.

use livo_capture::RgbdFrame;
use livo_codec2d::{Encoder, EncoderConfig, PixelFormat};
use livo_core::depth::DepthCodec;
use livo_core::splitter::{BandwidthSplitter, SplitterConfig};
use livo_core::tile::{compose_color, compose_depth, read_seq, TileLayout};
use livo_math::rng::{cases, SplitMix64};

const CASES: u32 = 64;

fn views(rng: &mut SplitMix64, n: usize, w: usize, h: usize) -> Vec<RgbdFrame> {
    (0..n)
        .map(|_| {
            let mut f = RgbdFrame::new(w, h);
            for p in 0..w * h {
                // ~25% no-return pixels like a real sensor.
                if rng.gen_bool(0.75) {
                    f.depth_mm[p] = rng.gen_range(300..6000);
                    f.rgb[p * 3] = rng.gen();
                    f.rgb[p * 3 + 1] = rng.gen();
                    f.rgb[p * 3 + 2] = rng.gen();
                }
            }
            f
        })
        .collect()
}

/// Depth tiling is within 1 mm for any camera count and size, and zero
/// pixels stay zero.
#[test]
fn depth_tiling_round_trips() {
    cases(1, CASES, |rng| {
        let n = rng.gen_range(1usize..12);
        let (w, h) = (rng.gen_range(8usize..80), rng.gen_range(8usize..72));
        let views = views(rng, n, w, h);
        let layout = TileLayout::new(w, h, n);
        let codec = DepthCodec::default();
        let canvas = compose_depth(&views, &layout, &codec, 7);
        for (i, v) in views.iter().enumerate() {
            let (ox, oy) = layout.slot_origin(i);
            for (p, b) in v.depth_mm.iter().enumerate() {
                let coded = canvas.planes[0].get(ox + p % w, oy + p / w);
                let a = codec.decode_sample(coded);
                if *b == 0 {
                    assert_eq!(a, 0u16);
                } else {
                    assert!((a as i32 - *b as i32).abs() <= 1);
                }
            }
        }
    });
}

/// The embedded sequence number survives encode/decode at any rate the
/// rate controller will actually pick.
#[test]
fn seq_survives_any_rate() {
    cases(2, CASES, |rng| {
        let (seq, target) = (rng.gen::<u32>(), rng.gen_range(2_000u64..200_000));
        let views = views(rng, 4, 48, 40);
        let layout = TileLayout::new(48, 40, 4);
        let canvas = compose_color(&views, &layout, seq);
        let mut enc = Encoder::new(EncoderConfig::new(
            layout.canvas_w,
            layout.canvas_h,
            PixelFormat::Yuv420,
        ));
        let out = enc.encode(&canvas, target);
        assert_eq!(read_seq(&out.reconstruction.planes[0], 255), seq);
    });
}

/// The splitter never leaves its clamp range and never produces a
/// negative share, for any error sequence.
#[test]
fn splitter_stays_in_bounds() {
    cases(3, CASES, |rng| {
        let mut s = BandwidthSplitter::new(SplitterConfig::default());
        for _ in 0..rng.gen_range(0..300) {
            s.update(rng.gen_range(0.0f64..100.0), rng.gen_range(0.0f64..100.0));
            assert!((0.5..=0.9).contains(&s.split()));
            let (db, cb) = s.apportion(50e6);
            assert!(db >= 0.0 && cb >= 0.0);
            assert!((db + cb - 50e6).abs() < 1e-3);
        }
    });
}

/// Culling is sound: every surviving pixel back-projects inside the
/// frustum.
#[test]
fn cull_is_sound() {
    use livo_core::cull::cull_views;
    use livo_math::{CameraIntrinsics, Frustum, FrustumParams, Pose, Quat, RgbdCamera, Vec3};
    cases(4, CASES, |rng| {
        let cam = RgbdCamera::new(
            CameraIntrinsics::kinect_depth(0.05),
            Pose::look_at(Vec3::new(2.0, 1.2, 0.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y),
        );
        let (w, h) = (
            cam.intrinsics.width as usize,
            cam.intrinsics.height as usize,
        );
        let mut views = views(rng, 1, w, h);
        let viewer = Pose::new(
            Vec3::new(0.0, 1.5, -3.0),
            Quat::from_yaw_pitch_roll(rng.gen_range(-3.0f32..3.0), 0.0, 0.0),
        );
        let frustum = Frustum::from_params(&viewer, &FrustumParams::default());
        cull_views(&mut views, &[cam], &frustum);
        for y in 0..h {
            for x in 0..w {
                let d = views[0].depth_mm[y * w + x];
                if d != 0 {
                    let p = cam.pixel_to_world(x as u32, y as u32, d).unwrap();
                    assert!(
                        frustum.penetration(p) > -5e-3,
                        "kept pixel clearly outside: {p:?}"
                    );
                }
            }
        }
    });
}
