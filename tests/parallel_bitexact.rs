//! Bit-exactness of the sender's parallel encode across all five scene
//! presets.
//!
//! `SenderStage` encodes its colour and depth canvases side by side, one
//! `WorkerPool::join` per frame; each encoder codes its own frame serially.
//! That is only correct if the bitstreams are *byte-identical* to a stage
//! without a pool — otherwise sender and receiver drift apart depending on
//! `LIVO_THREADS`. This test pins that property on realistic content: every
//! preset of Table 3, colour (YUV 4:2:0) and scaled-Y16 depth canvases,
//! closed-loop over several frames under rate control and at fixed QPs,
//! with no pool and at pool sizes 1, 2 and 4 (the same sizes
//! `LIVO_THREADS=1|2|4` would give the process-wide pool).
//!
//! Each stream is also paired with a decoder that consumes its bitstream
//! every frame and must reproduce the encoder's reconstruction bit-exactly.
//! The encoders reuse their scratch (plan/motion-vector arenas, the
//! double-buffered work reconstruction) across all frames, so this pins the
//! scratch-reuse path against prediction drift over a multi-frame GOP.

use std::sync::Arc;

use livo::capture::{camera_ring, RgbdFrame};
use livo::codec2d::{EncodedFrame, FrameType};
use livo::core::depth::{DepthCodec, DepthEncoding};
use livo::core::stage::{Canvases, Rate, NOADAPT_QPS};
use livo::core::tile::{compose_color, compose_depth, TileLayout};
use livo::prelude::*;
use livo::runtime::WorkerPool;

const N_CAMERAS: usize = 2;
const SCALE: f32 = 0.18; // 115×104 tiles → ~7 MB rows per plane
const FRAMES: u32 = 5;
const THREADS: [usize; 3] = [1, 2, 4];

/// The sender matrix: a stage with no pool, then one on each pool size.
fn senders(layout: TileLayout) -> Vec<(String, SenderStage)> {
    let stage = || SenderStage::new(layout, DepthEncoding::ScaledY16, 1);
    let mut out = vec![("no pool".to_string(), stage())];
    for n in THREADS {
        let mut s = stage();
        s.set_worker_pool(Arc::new(WorkerPool::new(n)));
        out.push((format!("pool({n})"), s));
    }
    out
}

/// Encode `canvases` on every stage of the matrix, and check each stage's
/// pair against the first's byte for byte and each stream against its
/// decoder. Returns the first stage's pair.
fn encode_matrix(
    stages: &mut [(String, SenderStage)],
    decoders: &mut [[Decoder; 2]],
    canvases: &Canvases,
    rate: Rate,
    tag: &str,
) -> (EncodedFrame, EncodedFrame) {
    let outputs: Vec<(EncodedFrame, EncodedFrame)> = stages
        .iter_mut()
        .map(|(_, s)| s.encode(canvases, rate, 0, 0))
        .collect();
    for (((name, _), (color, depth)), decs) in stages.iter().zip(&outputs).zip(decoders) {
        for ((stream, out, reference), dec) in [
            ("colour", color, &outputs[0].0),
            ("depth", depth, &outputs[0].1),
        ]
        .into_iter()
        .zip(decs)
        {
            assert_eq!(
                out.data, reference.data,
                "{tag}: {name} {stream} bitstream diverged from the stage without a pool"
            );
            assert!(
                out.reconstruction == reference.reconstruction,
                "{tag}: {name} {stream} reconstruction diverged"
            );
            let decoded = dec
                .decode(&out.data)
                .unwrap_or_else(|e| panic!("{tag}: {name} {stream} decode: {e:?}"));
            assert!(
                decoded == out.reconstruction,
                "{tag}: {name} {stream} decoder drifted from encoder reconstruction"
            );
        }
    }
    outputs.into_iter().next().unwrap()
}

fn decoders(n: usize) -> Vec<[Decoder; 2]> {
    (0..n).map(|_| [Decoder::new(), Decoder::new()]).collect()
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

    for video in VideoId::ALL {
        let preset = DatasetPreset::load(video);
        let mut stages = senders(layout);
        let mut decs = decoders(stages.len());

        for seq in 0..FRAMES {
            // Advance scene time each frame so inter frames carry real motion.
            let snap = preset.scene.at(seq as f32 / 30.0);
            let pool = WorkerPool::new(1);
            let views: Vec<RgbdFrame> = livo::capture::render_views_at(&pool, &cameras, &snap, seq);
            let canvases = stages[0].1.compose(&views, seq);
            // The last frame takes the fixed-QP arm of the join.
            let rate = if seq + 1 < FRAMES {
                Rate::Budget {
                    color_bits: 180_000,
                    depth_bits: 220_000,
                }
            } else {
                Rate::FixedQp {
                    color: NOADAPT_QPS.0,
                    depth: NOADAPT_QPS.1,
                }
            };
            encode_matrix(
                &mut stages,
                &mut decs,
                &canvases,
                rate,
                &format!("{video} frame {seq}"),
            );
        }
    }
}

/// The sender's join is the only encode parallelism: an encoder handed a
/// two-thread pool still codes an intra and an inter frame on the calling
/// thread, and queues no pool task. (`Encoder::set_worker_pool` is inert
/// and called by path here; nothing else calls it.)
#[test]
fn a_pool_handed_to_the_encoder_runs_no_task() {
    let pool = Arc::new(WorkerPool::new(2));
    let registry = Arc::new(livo::telemetry::MetricsRegistry::new());
    pool.attach_telemetry(&registry, "runtime.pool");
    let mut enc = Encoder::new(EncoderConfig::new(128, 96, PixelFormat::Yuv420));
    Encoder::set_worker_pool(&mut enc, pool);
    let types: Vec<FrameType> = (0..2)
        .map(|t| enc.encode(&golden_frame(128, 96, t), 60_000).frame_type)
        .collect();
    assert_eq!(types, [FrameType::Intra, FrameType::Inter]);
    assert_eq!(registry.snapshot().counter("runtime.pool.tasks"), Some(0));
}

/// The multi-slice stream: an encoder configured for four slices writes
/// them, and a decoder reproduces its reconstruction bit-exactly — every
/// preset, colour and depth, closed-loop over inter frames.
#[test]
fn sliced_encode_and_decode_are_bit_exact_on_every_preset() {
    const SLICES: u8 = 4; // the ~115x104 canvas has 7 MB rows
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
        let encoder = |format| {
            let mut cfg = EncoderConfig::new(layout.canvas_w, layout.canvas_h, format);
            cfg.gop_length = 0; // open GOP: frames 1.. are inter
            cfg.slices = SLICES;
            Encoder::new(cfg)
        };
        let mut color_enc = encoder(PixelFormat::Yuv420);
        let mut depth_enc = encoder(PixelFormat::Y16);
        let mut color_dec = Decoder::new();
        let mut depth_dec = Decoder::new();

        for seq in 0..FRAMES {
            let snap = preset.scene.at(seq as f32 / 30.0);
            let pool = WorkerPool::new(1);
            let views: Vec<RgbdFrame> = livo::capture::render_views_at(&pool, &cameras, &snap, seq);
            let color = compose_color(&views, &layout, seq);
            let depth = compose_depth(&views, &layout, &depth_codec, seq);

            for (canvas, enc, dec, bits) in [
                (&color, &mut color_enc, &mut color_dec, 180_000u64),
                (&depth, &mut depth_enc, &mut depth_dec, 220_000u64),
            ] {
                let out = enc.encode(canvas, bits);
                assert_eq!(
                    out.data[7], SLICES,
                    "{video} frame {seq}: the header carries the configured slice count"
                );
                // The decoder consumes the stream and must land on the
                // same pixels as the encoder's closed loop.
                let decoded = dec
                    .decode(&out.data)
                    .unwrap_or_else(|e| panic!("{video} frame {seq}: sliced decode: {e:?}"));
                assert!(
                    decoded == out.reconstruction,
                    "{video} frame {seq}: sliced decoder drifted from reconstruction"
                );
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
/// whose canvases happen to be 7 macroblock rows: a synthetic colour and
/// depth pair, closed-loop over inter frames, through the sender matrix
/// (no pool, pools of 1, 2 and 4) byte-identical, each decoder bit-exact
/// with its encoder's reconstruction.
#[test]
fn one_slice_frames_are_bit_exact_at_every_pool_size() {
    const W: usize = 80;
    const H: usize = 72; // 5 MB rows (the last one partial) → one slice
    let layout = TileLayout {
        canvas_w: W,
        canvas_h: H,
        ..TileLayout::new(W, H - 8, 1)
    };
    let mut stages = senders(layout);
    let mut decs = decoders(stages.len());
    for t in 0..4 {
        let canvases = Canvases {
            color: golden_frame(W, H, t),
            depth: livo::codec2d::Frame::from_y16(
                W,
                H,
                (0..W * H)
                    .map(|i| (((i % W + 3 * t) * 211 + (i / W + t) * 397) % 60013) as u16)
                    .collect(),
            ),
        };
        let rate = Rate::Budget {
            color_bits: 120_000,
            depth_bits: 120_000,
        };
        let (color, depth) = encode_matrix(
            &mut stages,
            &mut decs,
            &canvases,
            rate,
            &format!("frame {t}"),
        );
        for out in [color, depth] {
            assert_eq!(out.data[0], livo::codec2d::slice::SLICED_MAGIC, "frame {t}");
            assert_eq!(out.data[7], 1, "frame {t}: one slice");
        }
    }
}

/// The container is pinned by one committed golden file holding two
/// sequences of an intra and two inter frames each: a 48-row frame, which
/// is one slice, and a 128-row frame in two slices. The current encoder
/// must reproduce those exact bytes, and the decoder must decode them.
/// Regenerate the golden file with `LIVO_BLESS_GOLDEN=1` after
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

    // Parse the golden blob back and decode it; it must agree with the
    // current encoder's reconstruction chain. The decoder moves from one
    // sequence to the next on its keyframe.
    let mut off = 4usize;
    let mut frames = Vec::new();
    for _ in 0..recons.len() {
        let len = u32::from_le_bytes(golden[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        frames.push(&golden[off..off + len]);
        off += len;
    }
    let mut dec = Decoder::new();
    for (t, data) in frames.iter().enumerate() {
        let decoded = dec
            .decode(data)
            .unwrap_or_else(|e| panic!("golden frame {t}: {e:?}"));
        assert!(
            decoded == recons[t],
            "golden frame {t}: decode drifted from reconstruction"
        );
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
