//! Serial-vs-parallel encoder bit-exactness across all five scene presets.
//!
//! The parallel inter-frame path in `livo-codec2d` splits each plane into
//! macroblock-row stripes that run motion search + transform + quantisation
//! concurrently, then entropy-codes the planned rows one slice per task.
//! That design is only correct if the bitstream is *byte-identical* to the
//! serial encoder's — otherwise sender and receiver drift apart depending on
//! `LIVO_THREADS`. This test pins that property on realistic content: every
//! preset of Table 3, colour (YUV 4:2:0) and scaled-Y16 depth canvases,
//! closed-loop over several frames, at pool sizes 1, 2 and 4 (the same sizes
//! `LIVO_THREADS=1|2|4` would give the process-wide pool).
//!
//! Each encoder is also paired with a decoder that consumes its bitstream
//! every frame and must reproduce the encoder's reconstruction bit-exactly.
//! The encoder reuses its pooled scratch (plan/motion-vector arenas, the
//! double-buffered work reconstruction) across all frames, so this pins the
//! scratch-reuse path against prediction drift over a multi-frame GOP.

use std::sync::Arc;

use livo::capture::{camera_ring, RgbdFrame};
use livo::codec2d::EncodedFrame;
use livo::core::depth::{DepthCodec, DepthEncoding};
use livo::core::tile::{compose_color, compose_depth, TileLayout};
use livo::prelude::*;
use livo::runtime::WorkerPool;

const N_CAMERAS: usize = 2;
const SCALE: f32 = 0.18; // 115×104 tiles → ~7 MB rows per plane, real stripes
const FRAMES: u32 = 5;
const THREADS: [usize; 3] = [1, 2, 4];

fn encoders(w: usize, h: usize, format: PixelFormat, slices: u8) -> Vec<(String, Encoder)> {
    let mut cfg = EncoderConfig::new(w, h, format);
    cfg.gop_length = 0; // open GOP: frames 1.. are inter, the parallel path
    cfg.slices = slices;
    let mut out = vec![("serial".to_string(), Encoder::new(cfg))];
    for n in THREADS {
        let mut enc = Encoder::new(cfg);
        enc.set_worker_pool(Arc::new(WorkerPool::new(n)));
        out.push((format!("pool({n})"), enc));
    }
    out
}

fn decoders() -> Vec<(String, Decoder)> {
    let mut out = vec![("serial".to_string(), Decoder::new())];
    for n in THREADS {
        let mut dec = Decoder::new();
        dec.set_worker_pool(Arc::new(WorkerPool::new(n)));
        out.push((format!("pool({n})"), dec));
    }
    out
}

#[test]
fn parallel_encode_is_bit_exact_on_every_preset() {
    let cameras = camera_ring(
        N_CAMERAS,
        2.5,
        1.4,
        livo::math::Vec3::new(0.0, 1.0, 0.0),
        livo::math::CameraIntrinsics::kinect_depth(SCALE),
    );
    let k = cameras[0].intrinsics;
    let layout = TileLayout::new(k.width as usize, k.height as usize, N_CAMERAS);
    let depth_codec = DepthCodec::new(6000, DepthEncoding::ScaledY16);

    for video in VideoId::ALL {
        let preset = DatasetPreset::load(video);
        let mut color_encs = encoders(layout.canvas_w, layout.canvas_h, PixelFormat::Yuv420, 0);
        let mut depth_encs = encoders(layout.canvas_w, layout.canvas_h, PixelFormat::Y16, 0);
        let mut color_decs: Vec<Decoder> = color_encs.iter().map(|_| Decoder::new()).collect();
        let mut depth_decs: Vec<Decoder> = depth_encs.iter().map(|_| Decoder::new()).collect();

        for seq in 0..FRAMES {
            // Advance scene time each frame so inter frames carry real motion.
            let snap = preset.scene.at(seq as f32 / 30.0);
            let pool = WorkerPool::new(1);
            let views: Vec<RgbdFrame> = livo::capture::render_views_at(&pool, &cameras, &snap, seq);
            let color = compose_color(&views, &layout, seq);
            let depth = compose_depth(&views, &layout, &depth_codec, seq);

            for (canvas, encs, decs, bits) in [
                (&color, &mut color_encs, &mut color_decs, 180_000u64),
                (&depth, &mut depth_encs, &mut depth_decs, 220_000u64),
            ] {
                let outputs: Vec<(String, EncodedFrame)> = encs
                    .iter_mut()
                    .map(|(n, e)| (n.clone(), e.encode(canvas, bits)))
                    .collect();
                let (_, reference) = &outputs[0];
                for (name, out) in &outputs[1..] {
                    assert_eq!(
                        out.data, reference.data,
                        "{video} frame {seq}: {name} bitstream diverged from serial"
                    );
                }
                for ((name, out), dec) in outputs.iter().zip(decs.iter_mut()) {
                    let decoded = dec
                        .decode(&out.data)
                        .unwrap_or_else(|e| panic!("{video} frame {seq}: {name} decode: {e:?}"));
                    assert!(
                        decoded == out.reconstruction,
                        "{video} frame {seq}: {name} decoder drifted from encoder reconstruction"
                    );
                }
            }
        }
    }
}

/// The multi-slice matrix: encoders at pool sizes {serial,1,2,4} must emit
/// byte-identical bitstreams, and decoders at pool sizes {serial,1,2,4}
/// must all reproduce the encoder reconstruction bit-exactly — every preset,
/// colour and depth, closed-loop over inter frames.
#[test]
fn sliced_encode_and_decode_are_bit_exact_on_every_preset() {
    const SLICES: u8 = 4; // the ~115x104 canvas has 7 MB rows → real stripes
    let cameras = camera_ring(
        N_CAMERAS,
        2.5,
        1.4,
        livo::math::Vec3::new(0.0, 1.0, 0.0),
        livo::math::CameraIntrinsics::kinect_depth(SCALE),
    );
    let k = cameras[0].intrinsics;
    let layout = TileLayout::new(k.width as usize, k.height as usize, N_CAMERAS);
    let depth_codec = DepthCodec::new(6000, DepthEncoding::ScaledY16);

    for video in VideoId::ALL {
        let preset = DatasetPreset::load(video);
        let mut color_encs = encoders(
            layout.canvas_w,
            layout.canvas_h,
            PixelFormat::Yuv420,
            SLICES,
        );
        let mut depth_encs = encoders(layout.canvas_w, layout.canvas_h, PixelFormat::Y16, SLICES);
        let mut color_decs = decoders();
        let mut depth_decs = decoders();

        for seq in 0..FRAMES {
            let snap = preset.scene.at(seq as f32 / 30.0);
            let pool = WorkerPool::new(1);
            let views: Vec<RgbdFrame> = livo::capture::render_views_at(&pool, &cameras, &snap, seq);
            let color = compose_color(&views, &layout, seq);
            let depth = compose_depth(&views, &layout, &depth_codec, seq);

            for (canvas, encs, decs, bits) in [
                (&color, &mut color_encs, &mut color_decs, 180_000u64),
                (&depth, &mut depth_encs, &mut depth_decs, 220_000u64),
            ] {
                let outputs: Vec<(String, EncodedFrame)> = encs
                    .iter_mut()
                    .map(|(n, e)| (n.clone(), e.encode(canvas, bits)))
                    .collect();
                let (_, reference) = &outputs[0];
                assert_eq!(
                    reference.data[7], SLICES,
                    "{video} frame {seq}: the header carries the configured slice count"
                );
                for (name, out) in &outputs[1..] {
                    assert_eq!(
                        out.data, reference.data,
                        "{video} frame {seq}: sliced {name} bitstream diverged from serial"
                    );
                }
                // Every decode pool size consumes the same stream and must
                // land on the same pixels as the encoder's closed loop.
                for (name, dec) in decs.iter_mut() {
                    let decoded = dec.decode(&reference.data).unwrap_or_else(|e| {
                        panic!("{video} frame {seq}: sliced decode ({name}): {e:?}")
                    });
                    assert!(
                        decoded == reference.reconstruction,
                        "{video} frame {seq}: sliced decoder ({name}) drifted from reconstruction"
                    );
                }
            }
        }
    }
}

/// Where a committed golden bitstream lives. Relative to the manifest dir
/// under cargo, and to the repo root when the offline harness runs the test
/// binary from a checkout.
fn golden_path(file: &str) -> std::path::PathBuf {
    let base = option_env!("CARGO_MANIFEST_DIR").unwrap_or(".");
    std::path::Path::new(base).join("tests/data").join(file)
}

/// Deterministic synthetic frame with per-frame motion; no renderer or RNG
/// involved so the golden bytes cannot drift with unrelated scene changes.
fn golden_frame(w: usize, h: usize, t: usize) -> livo::codec2d::Frame {
    let rgb: Vec<u8> = (0..w * h * 3)
        .map(|i| {
            let p = i / 3;
            let (x, y) = (p % w + 2 * t, p / w + t);
            (((x * 11) ^ (y * 23)) % 239) as u8
        })
        .collect();
    livo::codec2d::Frame::from_rgb8(w, h, &rgb)
}

/// Frames under 8 macroblock rows are one-slice frames in the same sliced
/// container as everything else. Pinned separately from the preset matrix,
/// whose canvases happen to be 7 macroblock rows and whose decoders are all
/// serial: both pixel formats, closed-loop over inter frames, encoders at
/// pool sizes {serial,1,2,4} byte-identical, decoders at pool sizes
/// {serial,1,2,4} bit-exact with the encoder's reconstruction.
#[test]
fn one_slice_frames_are_bit_exact_at_every_pool_size() {
    const W: usize = 80;
    const H: usize = 72; // 5 MB rows (the last one partial) → one slice
    for format in [PixelFormat::Yuv420, PixelFormat::Y16] {
        let mut encs = encoders(W, H, format, 0);
        let mut decs = decoders();
        for t in 0..4 {
            let frame = match format {
                PixelFormat::Yuv420 => golden_frame(W, H, t),
                PixelFormat::Y16 => livo::codec2d::Frame::from_y16(
                    W,
                    H,
                    (0..W * H)
                        .map(|i| (((i % W + 3 * t) * 211 + (i / W + t) * 397) % 60013) as u16)
                        .collect(),
                ),
            };
            let outputs: Vec<(String, EncodedFrame)> = encs
                .iter_mut()
                .map(|(n, e)| (n.clone(), e.encode(&frame, 120_000)))
                .collect();
            let (_, reference) = &outputs[0];
            assert_eq!(
                reference.data[0],
                livo::codec2d::slice::SLICED_MAGIC,
                "{format:?} frame {t}"
            );
            assert_eq!(reference.data[7], 1, "{format:?} frame {t}: one slice");
            for (name, out) in &outputs[1..] {
                assert_eq!(
                    out.data, reference.data,
                    "{format:?} frame {t}: {name} bitstream diverged from serial"
                );
            }
            for (name, dec) in decs.iter_mut() {
                let decoded = dec
                    .decode(&reference.data)
                    .unwrap_or_else(|e| panic!("{format:?} frame {t} ({name}): {e:?}"));
                assert!(
                    decoded == reference.reconstruction,
                    "{format:?} frame {t}: decoder ({name}) drifted from reconstruction"
                );
            }
        }
    }
}

/// The container is pinned by one committed golden file holding two
/// sequences of an intra and two inter frames each: a 48-row frame, which
/// is one slice, and a 128-row frame in two slices. The current encoder
/// must reproduce those exact bytes, and decoders at every pool size must
/// decode them. Regenerate the golden file with `LIVO_BLESS_GOLDEN=1` after
/// a *deliberate* bitstream change.
#[test]
fn sliced_golden_stream_still_decodes() {
    const N: usize = 3; // intra + two inter frames per sequence
                        // (width, height, configured slices, expected slice count, bit budget)
    const SEQUENCES: [(usize, usize, u8, u8, u64); 2] =
        [(64, 48, 0, 1, 90_000), (64, 128, 2, 2, 160_000)];

    let mut blob = Vec::new();
    let mut recons = Vec::new();
    blob.extend_from_slice(&((SEQUENCES.len() * N) as u32).to_le_bytes());
    for (w, h, slices, expect, bits) in SEQUENCES {
        let mut cfg = EncoderConfig::new(w, h, PixelFormat::Yuv420);
        cfg.gop_length = 0;
        cfg.slices = slices;
        let mut enc = Encoder::new(cfg);
        for t in 0..N {
            let out = enc.encode(&golden_frame(w, h, t), bits);
            assert_eq!(out.data[0], livo::codec2d::slice::SLICED_MAGIC);
            assert_eq!(out.data[7], expect, "{w}x{h} frame {t}: slice count");
            blob.extend_from_slice(&(out.data.len() as u32).to_le_bytes());
            blob.extend_from_slice(&out.data);
            recons.push(out.reconstruction);
        }
    }

    let path = golden_path("golden_sliced_stream.bin");
    if std::env::var_os("LIVO_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &blob).unwrap();
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "read {} (bless with LIVO_BLESS_GOLDEN=1): {e}",
            path.display()
        )
    });
    assert_eq!(
        blob, golden,
        "encoder no longer reproduces the committed bitstream byte-for-byte"
    );

    // Parse the golden blob back and decode it at every pool size; all must
    // agree with the current encoder's reconstruction chain. A decoder moves
    // from one sequence to the next on its keyframe.
    let mut off = 4usize;
    let mut frames = Vec::new();
    for _ in 0..recons.len() {
        let len = u32::from_le_bytes(golden[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        frames.push(&golden[off..off + len]);
        off += len;
    }
    for (name, dec) in decoders().iter_mut() {
        for (t, data) in frames.iter().enumerate() {
            let decoded = dec
                .decode(data)
                .unwrap_or_else(|e| panic!("golden frame {t} ({name}): {e:?}"));
            assert!(
                decoded == recons[t],
                "golden frame {t} ({name}): decode drifted from reconstruction"
            );
        }
    }
}

/// The SIMD tier is fixed when a process first asks for it, so the golden
/// stream and the one-slice frames run once more in a child capped to each
/// tier below AVX2: the encoder writes the same bytes on every tier, and
/// every tier decodes them to the same pictures.
#[test]
fn golden_bytes_hold_on_the_sse2_and_scalar_tiers() {
    if std::env::var_os("LIVO_SIMD").is_some() {
        return; // a capped child (what ends the recursion), or a capped run
    }
    let exe = std::env::current_exe().expect("test binary path");
    for tier in ["sse2", "scalar"] {
        let out = std::process::Command::new(&exe)
            .env("LIVO_SIMD", tier)
            .env_remove("LIVO_BLESS_GOLDEN")
            .args([
                "--exact",
                "sliced_golden_stream_still_decodes",
                "one_slice_frames_are_bit_exact_at_every_pool_size",
            ])
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("2 passed"),
            "{tier}-tier run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
