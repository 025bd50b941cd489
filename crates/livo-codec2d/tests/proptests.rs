//! Property and behavioural tests for the 2D codec.

use livo_codec2d::block::{decode_block, encode_block, CoeffContexts};
use livo_codec2d::rangecoder::{RangeDecoder, RangeEncoder};
use livo_codec2d::{
    luma_mse, luma_rmse, DecodeError, Decoder, Encoder, EncoderConfig, Frame, FrameType,
    PixelFormat,
};
use livo_math::rng::{cases, SplitMix64};

fn smooth_yuv_frame(w: usize, h: usize, seed: u64, t: f32) -> Frame {
    // Smooth, mildly animated content (sums of sinusoids) — video-like.
    let mut rng = SplitMix64::new(seed);
    let (a, b, c): (f32, f32, f32) = (
        rng.gen_range(0.05..0.3),
        rng.gen_range(0.05..0.3),
        rng.gen_range(0.0..6.0),
    );
    let mut rgb = vec![0u8; w * h * 3];
    for y in 0..h {
        for x in 0..w {
            let i = (y * w + x) * 3;
            let v = 128.0
                + 70.0 * ((x as f32) * a + t).sin()
                + 50.0 * ((y as f32) * b + c + 0.5 * t).cos();
            rgb[i] = v.clamp(0.0, 255.0) as u8;
            rgb[i + 1] = (255.0 - v).clamp(0.0, 255.0) as u8;
            rgb[i + 2] = (v * 0.5 + 60.0).clamp(0.0, 255.0) as u8;
        }
    }
    Frame::from_rgb8(w, h, &rgb)
}

const CASES: u32 = 32;

/// The decoder must reproduce the encoder's reconstruction bit-exactly
/// for arbitrary (not-necessarily-smooth) content and any dimensions.
#[test]
fn decoder_bit_exact_on_random_content() {
    cases(1, CASES, |rng| {
        let (w, h) = (rng.gen_range(8usize..96), rng.gen_range(8usize..96));
        let frames = rng.gen_range(1usize..5);
        let target = rng.gen_range(5_000u64..500_000);
        let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Yuv420));
        let mut dec = Decoder::new();
        for _ in 0..frames {
            let rgb: Vec<u8> = (0..w * h * 3).map(|_| rng.gen()).collect();
            let f = Frame::from_rgb8(w, h, &rgb);
            let out = enc.encode(&f, target);
            let decoded = dec.decode(&out.data).unwrap();
            assert_eq!(decoded, out.reconstruction);
        }
    });
}

#[test]
fn y16_decoder_bit_exact() {
    cases(2, CASES, |rng| {
        let (w, h) = (rng.gen_range(8usize..64), rng.gen_range(8usize..64));
        let target = rng.gen_range(10_000u64..400_000);
        let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Y16));
        let mut dec = Decoder::new();
        for _ in 0..3 {
            let samples: Vec<u16> = (0..w * h).map(|_| rng.gen()).collect();
            let f = Frame::from_y16(w, h, samples);
            let out = enc.encode(&f, target);
            let decoded = dec.decode(&out.data).unwrap();
            assert_eq!(decoded, out.reconstruction);
        }
    });
}

/// Runs of blocks sharing one set of contexts, each with its own scan
/// length, density (from empty to full, so every mask class and the gap
/// codes' terminating cases occur) and magnitude scale (from ones to a
/// 16-bit intra DC, so the Rice parameter climbs, falls and escapes), come
/// back level for level.
#[test]
fn block_coder_round_trips_any_density_and_magnitude() {
    cases(3, 4 * CASES, |rng| {
        let blocks: Vec<[i32; 64]> = (0..rng.gen_range(1usize..40))
            .map(|_| {
                let mut b = [0i32; 64];
                let scan = rng.gen_range(0usize..=64);
                let density = [0.0, 0.06, 0.12, 0.2, 0.5, 0.8, 0.9, 0.95, 1.0][rng.gen_range(0..9)];
                let peak = 1i32 << rng.gen_range(0..21u32);
                for (pos, &i) in livo_codec2d::dct::ZIGZAG.iter().enumerate() {
                    if pos < scan && rng.gen_bool(density) {
                        let mag = rng.gen_range(1..=peak);
                        b[i] = if rng.gen_bool(0.5) { -mag } else { mag };
                    }
                }
                b
            })
            .collect();
        let mut enc = RangeEncoder::new();
        let mut ctx = CoeffContexts::new();
        for b in &blocks {
            encode_block(&mut enc, &mut ctx, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut ctx = CoeffContexts::new();
        let mut got = [7i32; 64];
        for (i, b) in blocks.iter().enumerate() {
            let coded = decode_block(&mut dec, &mut ctx, &mut got);
            assert_eq!(&got, b, "block {i}");
            assert_eq!(coded, b.iter().any(|&l| l != 0), "block {i} flag");
        }
    });
}

/// On bytes no encoder wrote (random, all zeros — where every unary prefix
/// runs into its cap — and all ones) and on an encoder's bytes with bits
/// flipped, `decode_block` returns every time with every level written: the
/// same from two starting arrays. Debug builds trap a shift or an index out
/// of range on the way.
#[test]
fn block_decoder_is_total_on_arbitrary_bytes() {
    cases(4, 4 * CASES, |rng| {
        let len = rng.gen_range(0usize..300);
        let mut data: Vec<u8> = match rng.gen_range(0..6) {
            0 => vec![0x00; len],
            1 => vec![0xFF; len],
            2 | 3 => (0..len).map(|_| rng.gen()).collect(),
            _ => {
                let mut enc = RangeEncoder::new();
                let mut ctx = CoeffContexts::new();
                for _ in 0..20 {
                    let b: [i32; 64] = std::array::from_fn(|_| {
                        if rng.gen_bool(0.4) {
                            rng.gen_range(-40..=40)
                        } else {
                            0
                        }
                    });
                    encode_block(&mut enc, &mut ctx, &b);
                }
                enc.finish()
            }
        };
        for _ in 0..rng.gen_range(0..6) {
            if !data.is_empty() {
                let at = rng.gen_range(0..data.len());
                data[at] ^= 1 << rng.gen_range(0..8);
            }
        }
        let mut decs = [RangeDecoder::new(&data), RangeDecoder::new(&data)];
        let mut ctxs = [CoeffContexts::new(), CoeffContexts::new()];
        for _ in 0..60 {
            let (mut a, mut b) = ([7i32; 64], [-9i32; 64]);
            let coded = decode_block(&mut decs[0], &mut ctxs[0], &mut a);
            decode_block(&mut decs[1], &mut ctxs[1], &mut b);
            assert_eq!(a, b, "an entry kept its stale value");
            assert_eq!(coded, a.iter().any(|&l| l != 0), "the coded-block flag");
        }
    });
}

#[test]
fn rate_controller_converges_to_target() {
    let (w, h) = (160, 96);
    let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Yuv420));
    let target = 40_000u64; // bits per frame
    let mut sizes = Vec::new();
    for i in 0..40 {
        let f = smooth_yuv_frame(w, h, 7, i as f32 * 0.3);
        let out = enc.encode(&f, target);
        sizes.push(out.bits());
    }
    // After convergence (last 20 frames), the mean rate should be within
    // ±40% of target — hardware CBR encoders have similar tolerances
    // per-frame, tighter over windows.
    let tail: Vec<u64> = sizes[20..].to_vec();
    let mean = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
    assert!(
        (mean - target as f64).abs() / (target as f64) < 0.4,
        "mean {mean} vs target {target}, sizes {sizes:?}"
    );
}

#[test]
fn quality_scales_with_rate_on_video_content() {
    let (w, h) = (128, 96);
    let mut mses = Vec::new();
    for target in [4_000u64, 12_000, 48_000] {
        let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Yuv420));
        // Warm up the rate model, then measure.
        let mut last_mse = 0.0;
        for i in 0..10 {
            let f = smooth_yuv_frame(w, h, 3, i as f32 * 0.2);
            let out = enc.encode(&f, target);
            last_mse = luma_mse(&f, &out.reconstruction);
        }
        mses.push(last_mse);
    }
    assert!(
        mses[0] > mses[1] && mses[1] > mses[2],
        "mse not monotone: {mses:?}"
    );
}

#[test]
fn inter_coding_beats_all_intra_on_video() {
    let (w, h) = (128, 96);
    let target = 12_000u64;
    // Translating content: each frame shifts 2 px — the case motion
    // compensation is built for (LiVo's tiled streams translate or stay put).
    let frames: Vec<Frame> = (0..12)
        .map(|i| {
            let mut rgb = vec![0u8; w * h * 3];
            for y in 0..h {
                for x in 0..w {
                    let fx = (x + 2 * i) as f32;
                    let v = 128.0 + 70.0 * (fx * 0.11).sin() + 50.0 * ((y as f32) * 0.13).cos();
                    let j = (y * w + x) * 3;
                    rgb[j] = v.clamp(0.0, 255.0) as u8;
                    rgb[j + 1] = (v * 0.7).clamp(0.0, 255.0) as u8;
                    rgb[j + 2] = (255.0 - v * 0.5).clamp(0.0, 255.0) as u8;
                }
            }
            Frame::from_rgb8(w, h, &rgb)
        })
        .collect();

    let mut inter_cfg = EncoderConfig::new(w, h, PixelFormat::Yuv420);
    inter_cfg.gop_length = 120;
    let mut intra_cfg = inter_cfg;
    intra_cfg.gop_length = 1;

    let run = |cfg: EncoderConfig| -> (u64, f64) {
        let mut enc = Encoder::new(cfg);
        let mut total_bits = 0;
        let mut err = 0.0;
        for f in &frames {
            let out = enc.encode(f, target);
            total_bits += out.bits();
            err += luma_rmse(f, &out.reconstruction);
        }
        (total_bits, err / frames.len() as f64)
    };
    let (inter_bits, inter_err) = run(inter_cfg);
    let (intra_bits, intra_err) = run(intra_cfg);
    // At (roughly) matched rates, inter coding should deliver lower error —
    // or at matched error, fewer bits. Accept either dominance direction.
    let better = (inter_err <= intra_err && inter_bits <= intra_bits * 11 / 10)
        || (inter_bits < intra_bits && inter_err <= intra_err * 1.1);
    assert!(
        better,
        "inter: {inter_bits} bits err {inter_err}; intra: {intra_bits} bits err {intra_err}"
    );
}

#[test]
fn sixteen_bit_depth_scaling_reduces_relative_error() {
    // The paper's Fig. 17/A.1 effect: scaling depth to fill the 16-bit range
    // before encoding yields lower error after unscaling than encoding raw
    // millimetre values. This is the core of LiVo's depth encoding.
    let (w, h) = (96, 96);
    let target = 60_000u64;
    // A depth-like field: smooth surfaces (1500–5500 mm) with a step edge.
    let depth_mm: Vec<u16> = (0..w * h)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            let base =
                2000.0 + 1200.0 * ((x as f32) * 0.07).sin() + 900.0 * ((y as f32) * 0.05).cos();
            let step = if x > w / 2 { 1200.0 } else { 0.0 };
            (base + step) as u16
        })
        .collect();

    let scale = (u16::MAX as f32) / 6000.0;

    // Unscaled path.
    let mut enc1 = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Y16));
    let raw = Frame::from_y16(w, h, depth_mm.clone());
    let out1 = enc1.encode(&raw, target);
    let err_raw: f64 = depth_mm
        .iter()
        .zip(&out1.reconstruction.planes[0].data)
        .map(|(a, b)| (*a as f64 - *b as f64).powi(2))
        .sum::<f64>()
        / depth_mm.len() as f64;

    // Scaled path: scale up, encode, decode, unscale.
    let scaled: Vec<u16> = depth_mm
        .iter()
        .map(|&d| ((d as f32 * scale).round() as u32).min(65535) as u16)
        .collect();
    let mut enc2 = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Y16));
    let out2 = enc2.encode(&Frame::from_y16(w, h, scaled), target);
    let err_scaled: f64 = depth_mm
        .iter()
        .zip(&out2.reconstruction.planes[0].data)
        .map(|(a, b)| {
            let unscaled = (*b as f32 / scale).round() as f64;
            (*a as f64 - unscaled).powi(2)
        })
        .sum::<f64>()
        / depth_mm.len() as f64;

    assert!(
        err_scaled < err_raw,
        "scaled MSE {err_scaled} should beat raw MSE {err_raw} (both in mm²)"
    );
}

fn two_layer_encoder(w: usize, h: usize, format: PixelFormat) -> Encoder {
    let mut cfg = EncoderConfig::new(w, h, format);
    cfg.temporal_layers = 2;
    Encoder::new(cfg)
}

fn layered_frame(w: usize, h: usize, format: PixelFormat, seed: u64, t: usize) -> Frame {
    match format {
        PixelFormat::Yuv420 => smooth_yuv_frame(w, h, seed, t as f32 * 0.3),
        PixelFormat::Y16 => Frame::from_y16(
            w,
            h,
            (0..w * h)
                .map(|p| (((p + t * 7) * 401 + seed as usize) % 60_000) as u16)
                .collect(),
        ),
    }
}

/// A two-layer stream alternates T0, T1 from every intra on, and with any
/// seeded pattern of T1 frames dropped in transit the decoder reproduces
/// the encoder's reconstruction for every frame it is given.
#[test]
fn two_layer_stream_survives_any_dropped_t1() {
    cases(9, CASES, |rng| {
        let (w, h) = (rng.gen_range(16usize..80), rng.gen_range(16usize..80));
        let format = [PixelFormat::Yuv420, PixelFormat::Y16][rng.gen_range(0usize..2)];
        let target = rng.gen_range(5_000u64..200_000);
        let drop_share = rng.gen_range(0.0..1.0);
        let mut enc = two_layer_encoder(w, h, format);
        let mut dec = Decoder::new();
        let mut expect_t1 = false;
        for t in 0..12 {
            if rng.gen_bool(0.1) {
                enc.force_keyframe();
            }
            let out = enc.encode(&layered_frame(w, h, format, 3, t), target);
            if out.frame_type == FrameType::Intra {
                expect_t1 = false;
            }
            assert_eq!(out.temporal_id, u8::from(expect_t1), "frame {t}");
            expect_t1 = !expect_t1;
            if out.temporal_id == 1 && rng.gen_bool(drop_share) {
                continue;
            }
            assert_eq!(
                dec.decode(&out.data).unwrap(),
                out.reconstruction,
                "frame {t}"
            );
        }
    });
}

/// A T0 whose reference T0 never reached the decoder is an error, not a
/// garbage frame, and so is the T1 that predicts from the missing T0; the
/// next intra recovers.
#[test]
fn two_layer_stream_rejects_a_t0_whose_reference_is_missing() {
    cases(10, 8, |rng| {
        let (w, h) = (rng.gen_range(16usize..64), rng.gen_range(16usize..64));
        let mut enc = two_layer_encoder(w, h, PixelFormat::Yuv420);
        let frames: Vec<_> = (0..7)
            .map(|t| enc.encode(&layered_frame(w, h, PixelFormat::Yuv420, 4, t), 60_000))
            .collect();
        // I T1 T0 T1 T0 T1 T0: frame 2 (a T0) is lost.
        let mut dec = Decoder::new();
        dec.decode(&frames[0].data).unwrap();
        dec.decode(&frames[1].data).unwrap();
        for lacking in &frames[3..5] {
            assert_eq!(
                dec.decode(&lacking.data),
                Err(DecodeError::MissingReference)
            );
        }
        enc.force_keyframe();
        let key = enc.encode(&layered_frame(w, h, PixelFormat::Yuv420, 4, 7), 60_000);
        assert_eq!(dec.decode(&key.data).unwrap(), key.reconstruction);
        let next = enc.encode(&layered_frame(w, h, PixelFormat::Yuv420, 4, 8), 60_000);
        assert_eq!(dec.decode(&next.data).unwrap(), next.reconstruction);
    });
}

/// The decoder stays total on a two-layer stream's mutated bytes, with T1
/// frames and tags flipped anywhere: garbage or an error, never a panic.
#[test]
fn two_layer_decoder_is_total_under_mutation() {
    cases(11, CASES, |rng| {
        let (w, h) = (rng.gen_range(16usize..64), rng.gen_range(16usize..64));
        let mut enc = two_layer_encoder(w, h, PixelFormat::Yuv420);
        let mut dec = Decoder::new();
        for t in 0..6 {
            let mut data = enc
                .encode(&layered_frame(w, h, PixelFormat::Yuv420, 5, t), 40_000)
                .data;
            for _ in 0..rng.gen_range(0usize..4) {
                let at = rng.gen_range(0..data.len());
                data[at] ^= 1 << rng.gen_range(0u32..8);
            }
            let _ = dec.decode(&data);
        }
    });
}
