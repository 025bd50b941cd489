//! Decoder robustness: hostile bitstreams must fail cleanly, never panic,
//! hang, or allocate unboundedly — the property a real-time receiver needs
//! when packet payloads are corrupted in flight.

use livo_codec2d::slice::SLICED_MAGIC;
use livo_codec2d::{DecodeError, Decoder, Encoder, EncoderConfig, Frame, PixelFormat};
use livo_math::rng::SplitMix64;

fn valid_stream(w: usize, h: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let rgb: Vec<u8> = (0..w * h * 3).map(|_| rng.gen()).collect();
    let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Yuv420));
    enc.encode(&Frame::from_rgb8(w, h, &rgb), 60_000).data
}

#[test]
fn truncated_streams_never_panic() {
    let data = valid_stream(48, 40, 1);
    for cut in 0..data.len() {
        let mut dec = Decoder::new();
        // Truncation may decode garbage (the range coder reads zeros past
        // the end) but must terminate and never panic.
        let _ = dec.decode(&data[..cut]);
    }
}

#[test]
fn bit_flips_never_panic() {
    let data = valid_stream(48, 40, 2);
    let mut rng = SplitMix64::new(3);
    for _ in 0..200 {
        let mut corrupted = data.clone();
        let n_flips = rng.gen_range(1..8);
        for _ in 0..n_flips {
            let i = rng.gen_range(0..corrupted.len());
            corrupted[i] ^= 1 << rng.gen_range(0..8);
        }
        let mut dec = Decoder::new();
        let _ = dec.decode(&corrupted);
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(4);
    for len in [0usize, 1, 4, 5, 64, 4096] {
        for _ in 0..20 {
            let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let mut dec = Decoder::new();
            let _ = dec.decode(&garbage);
        }
    }
}

#[test]
fn decoder_state_survives_a_bad_frame() {
    // A corrupted P-frame mustn't poison the decoder: after a reset and a
    // fresh keyframe, decoding must be bit-exact again.
    let (w, h) = (48, 40);
    let mut rng = SplitMix64::new(5);
    let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Yuv420));
    let mut dec = Decoder::new();

    let frame = |rng: &mut SplitMix64| {
        let rgb: Vec<u8> = (0..w * h * 3).map(|_| rng.gen()).collect();
        Frame::from_rgb8(w, h, &rgb)
    };

    let f0 = enc.encode(&frame(&mut rng), 60_000);
    dec.decode(&f0.data).unwrap();

    let f1 = enc.encode(&frame(&mut rng), 60_000);
    let mut bad = f1.data.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    let _ = dec.decode(&bad); // may "succeed" with garbage or fail — either way:

    dec.reset();
    enc.force_keyframe();
    let f2 = enc.encode(&frame(&mut rng), 60_000);
    let out = dec.decode(&f2.data).unwrap();
    assert_eq!(out, f2.reconstruction, "post-recovery decode must match");
}

#[test]
fn y16_full_range_extremes_round_trip() {
    // All-min, all-max, and checkerboard extremes at both ends of the 16-bit
    // range: the coder must neither clip nor wrap.
    let (w, h) = (32, 32);
    for pattern in 0..3 {
        let samples: Vec<u16> = (0..w * h)
            .map(|i| match pattern {
                0 => 0,
                1 => u16::MAX,
                _ => {
                    if (i % w + i / w) % 2 == 0 {
                        0
                    } else {
                        u16::MAX
                    }
                }
            })
            .collect();
        let f = Frame::from_y16(w, h, samples);
        let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Y16));
        let out = enc.encode(&f, 1_000_000);
        let mut dec = Decoder::new();
        let decoded = dec.decode(&out.data).unwrap();
        assert_eq!(decoded, out.reconstruction, "pattern {pattern}");
        // Flat frames at generous rate must reconstruct near-exactly.
        if pattern < 2 {
            let err = livo_codec2d::luma_rmse(&f, &decoded);
            assert!(err < 2.0, "pattern {pattern} rmse {err}");
        }
    }
}

/// The five codec presets the mutation sweep covers: both pixel formats
/// and slice counts from 1 (frames too small to split) to 8.
const MUTATION_PRESETS: [(usize, usize, PixelFormat, u8); 5] = [
    (48, 40, PixelFormat::Yuv420, 0),   // one-slice colour
    (64, 64, PixelFormat::Y16, 0),      // one-slice depth
    (96, 80, PixelFormat::Yuv420, 3),   // sliced colour
    (80, 96, PixelFormat::Y16, 4),      // sliced depth
    (128, 128, PixelFormat::Yuv420, 8), // max slice fan-out
];

/// Deterministic textured frame (no RNG: byte-mutation coverage must be
/// reproducible run-to-run and across rand versions).
fn pattern_frame(w: usize, h: usize, format: PixelFormat, t: usize) -> Frame {
    match format {
        PixelFormat::Yuv420 => {
            let rgb: Vec<u8> = (0..w * h * 3)
                .map(|i| {
                    let x = (i / 3) % w;
                    let y = (i / 3) / w;
                    ((x * 7 + y * 13 + t * 29 + i * 3) % 251) as u8
                })
                .collect();
            Frame::from_rgb8(w, h, &rgb)
        }
        PixelFormat::Y16 => {
            let samples: Vec<u16> = (0..w * h)
                .map(|i| (((i % w) * 211 + (i / w) * 397 + t * 1009) % 60013) as u16)
                .collect();
            Frame::from_y16(w, h, samples)
        }
    }
}

/// Encode one intra + two inter frames for a preset and return the streams.
fn preset_streams(w: usize, h: usize, format: PixelFormat, slices: u8) -> Vec<Vec<u8>> {
    let mut cfg = EncoderConfig::new(w, h, format);
    cfg.slices = slices;
    let mut enc = Encoder::new(cfg);
    (0..3)
        .map(|t| enc.encode(&pattern_frame(w, h, format, t), 120_000).data)
        .collect()
}

#[test]
fn mutated_streams_never_panic_across_presets() {
    // Deterministic byte-mutation sweep over encoded frames of all five
    // presets: every header/slice-table byte and a stride through the
    // payload gets forced to 0x00 and 0xFF. Decoders may return garbage or
    // `Err`, but must always terminate cleanly.
    for &(w, h, format, slices) in &MUTATION_PRESETS {
        let streams = preset_streams(w, h, format, slices);
        for s in &streams {
            assert_eq!(s[0], SLICED_MAGIC, "{w}x{h}: every frame is a sliced frame");
        }
        // One long-lived decoder eats every mutation without resets —
        // garbage references included, like a receiver that keeps going.
        let mut warm = Decoder::new();
        for data in &streams {
            // Dense over the first 64 bytes (headers and slice tables live
            // there), strided through the payload to bound the test's cost.
            let positions = (0..data.len().min(64)).chain((64..data.len()).step_by(97));
            for i in positions {
                for forced in [0x00u8, 0xFF] {
                    let mut corrupted = data.clone();
                    if corrupted[i] == forced {
                        continue;
                    }
                    corrupted[i] = forced;
                    // Fresh decoder (no reference: mutated inter frames
                    // must fail cleanly, not panic) and the warm decoder
                    // (stale references).
                    let _ = Decoder::new().decode(&corrupted);
                    let _ = warm.decode(&corrupted);
                }
            }
        }
    }
}

#[test]
fn corrupt_slice_tables_are_rejected() {
    // Targeted header/slice-table corruptions must map to `Err`, not
    // to a silent garbage frame of the wrong shape.
    let (w, h) = (96usize, 80usize);
    let data = {
        let mut cfg = EncoderConfig::new(w, h, PixelFormat::Yuv420);
        cfg.slices = 3;
        let mut enc = Encoder::new(cfg);
        enc.encode(&pattern_frame(w, h, PixelFormat::Yuv420, 0), 120_000)
            .data
    };
    assert_eq!(data[0], SLICED_MAGIC);
    let n_slices = data[7] as usize;
    assert_eq!(n_slices, 3);
    let header_len = 8 + 4 * n_slices;

    let decode = |bytes: &[u8]| Decoder::new().decode(bytes).map(|_| ());

    // Truncated inside the fixed header and inside the slice table.
    assert_eq!(decode(&data[..4]), Err(DecodeError::Truncated));
    assert_eq!(decode(&data[..header_len - 2]), Err(DecodeError::Truncated));
    // Truncated payload.
    assert_eq!(decode(&data[..data.len() - 1]), Err(DecodeError::Truncated));
    // Trailing junk after the last slice payload.
    let mut long = data.clone();
    long.push(0);
    assert_eq!(decode(&long), Err(DecodeError::BadSliceTable));

    // Zero slices, and more slices than macroblock rows (80px → 5 rows).
    for bad_count in [0u8, 6, 255] {
        let mut c = data.clone();
        c[7] = bad_count;
        assert_eq!(
            decode(&c),
            Err(DecodeError::BadSliceTable),
            "count {bad_count}"
        );
    }
    // A slice payload shorter than the 5-byte range-coder minimum.
    let mut c = data.clone();
    c[8..12].copy_from_slice(&4u32.to_le_bytes());
    assert_eq!(decode(&c), Err(DecodeError::BadSliceTable));
    // A grown slice length makes the byte count disagree with the table.
    let mut c = data.clone();
    let len0 = u32::from_le_bytes(c[8..12].try_into().unwrap());
    c[8..12].copy_from_slice(&(len0 + 1).to_le_bytes());
    assert_eq!(decode(&c), Err(DecodeError::Truncated));

    // Header field corruption: reserved flag bits, QP out of range,
    // zero dimensions, and an absurd pixel count.
    let mut c = data.clone();
    c[1] |= 0x80;
    assert_eq!(decode(&c), Err(DecodeError::BadHeader));
    let mut c = data.clone();
    c[2] = 52; // QP_MAX is 51
    assert_eq!(decode(&c), Err(DecodeError::BadHeader));
    let mut c = data.clone();
    c[3..5].copy_from_slice(&0u16.to_le_bytes());
    assert_eq!(decode(&c), Err(DecodeError::BadHeader));
    let mut c = data.clone();
    c[3..5].copy_from_slice(&u16::MAX.to_le_bytes());
    c[5..7].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(decode(&c).is_err());

    // And the original stream still decodes after all that.
    Decoder::new().decode(&data).unwrap();
}

#[test]
fn flag_bit_3_is_the_temporal_id() {
    // Bit 3 selected the retired interleaved entropy lanes; it is the
    // temporal id now. An intra is never T1, and a T1 in a one-layer
    // stream names a reference the decoder does not hold, on one-slice and
    // multi-slice frames alike. Bits 5-7 stay reserved.
    for &(w, h, format, slices) in &MUTATION_PRESETS {
        let streams = preset_streams(w, h, format, slices);
        let mut dec = Decoder::new();
        dec.decode(&streams[0]).unwrap();
        for (i, data) in streams.iter().enumerate() {
            let mut t1 = data.clone();
            t1[1] |= 0b1000;
            let want = if i == 0 {
                DecodeError::BadHeader
            } else {
                DecodeError::MissingReference
            };
            assert_eq!(dec.decode(&t1).map(|_| ()), Err(want), "{w}x{h} #{i}");
            for bit in 5..8 {
                let mut c = data.clone();
                c[1] |= 1 << bit;
                assert_eq!(
                    Decoder::new().decode(&c).map(|_| ()),
                    Err(DecodeError::BadHeader),
                    "{w}x{h} #{i} bit {bit}"
                );
            }
        }
    }
}

#[test]
fn former_v1_buffers_are_rejected() {
    // A v1 frame was one range-coder stream, whose first byte is always the
    // 0x00 priming byte. Such a buffer is not a frame any more, whatever
    // follows and however long it is.
    let mut rng = SplitMix64::new(6);
    for len in [1usize, 5, 8, 64, 4096] {
        let mut v1: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        v1[0] = 0x00;
        assert_eq!(
            Decoder::new().decode(&v1).map(|_| ()),
            Err(DecodeError::BadMagic),
            "len {len}"
        );
    }
}

#[test]
fn sliced_inter_frames_fail_cleanly_without_reference() {
    // P-frames decoded without their reference must report
    // `MissingReference`, never panic.
    let streams = preset_streams(96, 80, PixelFormat::Yuv420, 3);
    let mut dec = Decoder::new();
    assert_eq!(
        dec.decode(&streams[1]).map(|_| ()),
        Err(DecodeError::MissingReference)
    );
    // Recovery: the keyframe then the P-frame decode fine.
    dec.decode(&streams[0]).unwrap();
    dec.decode(&streams[1]).unwrap();
}

#[test]
fn one_by_n_and_n_by_one_frames() {
    // Degenerate aspect ratios exercise the partial-block paths.
    for (w, h) in [(8usize, 256usize), (256, 8), (9, 17)] {
        let samples: Vec<u16> = (0..w * h).map(|i| ((i * 37) % 60000) as u16).collect();
        let f = Frame::from_y16(w, h, samples);
        let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Y16));
        let out = enc.encode(&f, 200_000);
        let mut dec = Decoder::new();
        assert_eq!(
            dec.decode(&out.data).unwrap(),
            out.reconstruction,
            "{w}x{h}"
        );
    }
}

/// A scene that stands still: texture in the top-left quarter, black
/// (padding slots, culled pixels) everywhere else. After the keyframe most
/// macroblocks of every frame match their reference exactly, so encoder
/// and decoder rebuild them by copying reference rows.
fn still_frame(w: usize, h: usize, format: PixelFormat) -> Frame {
    let mut f = pattern_frame(w, h, format, 0);
    for (pi, p) in f.planes.iter_mut().enumerate() {
        let black = if pi == 0 { 0 } else { 128 };
        for y in 0..p.height {
            for x in 0..p.width {
                if x * 2 >= p.width || y * 2 >= p.height {
                    p.data[y * p.width + x] = black;
                }
            }
        }
    }
    f
}

#[test]
fn copy_path_survives_bit_flips_in_static_inter_frames() {
    // Sizes with partial macroblocks on the right and bottom, one sliced.
    for &(w, h, format, slices) in &[
        (72usize, 56usize, PixelFormat::Yuv420, 0u8),
        (72, 56, PixelFormat::Y16, 0),
        (96, 136, PixelFormat::Yuv420, 2),
    ] {
        let mut cfg = EncoderConfig::new(w, h, format);
        cfg.slices = slices;
        let mut enc = Encoder::new(cfg);
        let frame = still_frame(w, h, format);
        let streams: Vec<_> = (0..4).map(|_| enc.encode_fixed_qp(&frame, 28)).collect();
        let luma_mbs = (w.div_ceil(16) * h.div_ceil(16)) as u64;
        for s in &streams[1..] {
            assert!(
                s.blocks.skip * 2 >= luma_mbs,
                "{w}x{h}: a still scene must mostly skip ({:?} of {luma_mbs} macroblocks)",
                s.blocks
            );
        }
        let mut rng = SplitMix64::new(w as u64 * 31 + h as u64);
        for victim in 1..streams.len() {
            for _ in 0..150 {
                let mut bad = streams[victim].data.clone();
                for _ in 0..rng.gen_range(1..6) {
                    let i = rng.gen_range(0..bad.len());
                    bad[i] ^= 1 << rng.gen_range(0..8);
                }
                // A receiver that took every frame so far, then this one,
                // then carries on with whatever reference that left.
                let mut dec = Decoder::new();
                for good in &streams[..victim] {
                    dec.decode(&good.data).expect("own stream decodes");
                }
                // A flip in the header can make it another well-formed
                // header; one in the payload leaves the frame its shape.
                let good = &streams[victim].data;
                let header = 8 + 4 * good[7] as usize;
                if let Ok(out) = dec.decode(&bad) {
                    if bad[..header] == good[..header] {
                        assert_eq!((out.width, out.height, out.format), (w, h, format));
                    }
                }
                for later in &streams[victim + 1..] {
                    let _ = dec.decode(&later.data);
                }
            }
        }
    }
}

/// Hand-build a one-slice inter frame of 3×3 macroblocks whose four corner
/// macroblocks carry vectors of ±32 767 per axis. `coded_corner` gives
/// each corner one non-zero level; otherwise every block is empty, which
/// is the case that would copy reference rows if the vector allowed it.
/// The macroblock after each top corner is skipped, so it inherits the
/// extreme vector as its predictor.
fn corner_vector_frame(format: PixelFormat, qp: u8, coded_corner: bool) -> Vec<u8> {
    use livo_codec2d::block::{encode_block, encode_svalue, CoeffContexts};
    use livo_codec2d::rangecoder::{BitModel, RangeEncoder};
    const E: i32 = 32_767;
    let corner = |mbx: usize, mby: usize| match (mbx, mby) {
        (0, 0) => Some((E, E)),
        (2, 0) => Some((-E, E)),
        (0, 2) => Some((E, -E)),
        (2, 2) => Some((-E, -E)),
        _ => None,
    };
    let mut enc = RangeEncoder::new();
    let mut coeff = CoeffContexts::new();
    let mut skip = BitModel::new();
    let empty = [0i32; 64];
    let mut one = [0i32; 64];
    one[0] = 3;
    for mby in 0..3 {
        let mut pred = (0i32, 0i32);
        for mbx in 0..3 {
            if (mbx, mby) == (1, 0) {
                // Skipped: keeps the left corner's vector.
                enc.encode_bit(&mut skip, true);
                continue;
            }
            enc.encode_bit(&mut skip, false);
            let mv = corner(mbx, mby).unwrap_or((0, 0));
            encode_svalue(&mut enc, mv.0 - pred.0);
            encode_svalue(&mut enc, mv.1 - pred.1);
            for sb in 0..4 {
                let levels = if coded_corner && corner(mbx, mby).is_some() && sb == 0 {
                    &one
                } else {
                    &empty
                };
                encode_block(&mut enc, &mut coeff, levels);
            }
            pred = mv;
        }
    }
    if format == PixelFormat::Yuv420 {
        for _plane in 0..2 {
            let mut cctx = CoeffContexts::new();
            for _ in 0..9 {
                encode_block(&mut enc, &mut cctx, &empty);
            }
        }
    }
    let payload = enc.finish();
    let fmt_bits = if format == PixelFormat::Y16 { 1u8 } else { 0 };
    let mut data = vec![SLICED_MAGIC, 1 | (fmt_bits << 1), qp, 48, 0, 48, 0, 1];
    data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    data.extend_from_slice(&payload);
    data
}

#[test]
fn copy_path_sends_extreme_corner_vectors_through_the_clamp() {
    for format in [PixelFormat::Yuv420, PixelFormat::Y16] {
        let mut cfg = EncoderConfig::new(48, 48, format);
        cfg.slices = 1;
        let key = Encoder::new(cfg).encode_fixed_qp(&pattern_frame(48, 48, format, 0), 16);
        for coded_corner in [false, true] {
            let mut dec = Decoder::new();
            let reference = dec.decode(&key.data).expect("keyframe decodes");
            let out = dec
                .decode(&corner_vector_frame(format, 16, coded_corner))
                .expect("a well-formed frame, whatever its vectors");
            if coded_corner {
                continue; // total is all that is asked of it
            }
            // A vector that far out reads one clamped corner sample for the
            // whole block; the skipped neighbour inherits it.
            for (pi, (got, want)) in out.planes.iter().zip(&reference.planes).enumerate() {
                let size = if pi == 0 { 16 } else { 8 };
                let (w, h) = (got.width, got.height);
                let blocks = [
                    ((0, 0), want.get(w - 1, h - 1)),
                    ((1, 0), want.get(w - 1, h - 1)),
                    ((2, 0), want.get(0, h - 1)),
                    ((0, 2), want.get(w - 1, 0)),
                    ((2, 2), want.get(0, 0)),
                ];
                for ((bx, by), sample) in blocks {
                    for y in by * size..(by + 1) * size {
                        for x in bx * size..(bx + 1) * size {
                            assert_eq!(
                                got.get(x, y),
                                sample,
                                "{format:?} plane {pi} block ({bx},{by}) at ({x},{y})"
                            );
                        }
                    }
                }
                // Zero vector, no levels: the centre block is the reference.
                for y in size..2 * size {
                    for x in size..2 * size {
                        assert_eq!(
                            got.get(x, y),
                            want.get(x, y),
                            "{format:?} plane {pi} centre"
                        );
                    }
                }
            }
        }
    }
}

/// Each slice payload ends in its raw-bit tail, read from the last byte
/// backward with nothing but the slice table saying where that is. Shorten a
/// payload (table rewritten to match, so the container is well formed) or
/// flip bits at its back, and the slice decodes different symbols — a frame
/// of the right shape all the same, and a receiver that carries on.
#[test]
fn raw_bit_tail_survives_cuts_and_bit_flips() {
    for &(w, h, format, slices, still) in &[
        (72usize, 56usize, PixelFormat::Yuv420, 0u8, true),
        (72, 56, PixelFormat::Y16, 0, false),
        (96, 136, PixelFormat::Yuv420, 2, false),
        (80, 96, PixelFormat::Y16, 4, true),
    ] {
        let mut cfg = EncoderConfig::new(w, h, format);
        cfg.slices = slices;
        let mut enc = Encoder::new(cfg);
        let streams: Vec<Vec<u8>> = (0..4)
            .map(|t| {
                let frame = if still {
                    still_frame(w, h, format)
                } else {
                    pattern_frame(w, h, format, t)
                };
                enc.encode_fixed_qp(&frame, 28).data
            })
            .collect();
        // Frames 0..victim as sent, the damaged one, then the rest.
        let receive = |victim: usize, bad: &[u8]| {
            let mut dec = Decoder::new();
            for good in &streams[..victim] {
                dec.decode(good).expect("own stream decodes");
            }
            let out = dec.decode(bad).expect("header and slice table are intact");
            assert_eq!((out.width, out.height, out.format), (w, h, format));
            for later in &streams[victim + 1..] {
                dec.decode(later)
                    .expect("own stream decodes on any reference");
            }
        };
        let mut rng = SplitMix64::new(w as u64 * 37 + h as u64);
        for (victim, data) in streams.iter().enumerate().skip(1) {
            let n_slices = data[7] as usize;
            let mut start = 8 + 4 * n_slices;
            for si in 0..n_slices {
                let entry = 8 + 4 * si;
                let len = u32::from_le_bytes(data[entry..entry + 4].try_into().unwrap()) as usize;
                let end = start + len;
                // Down to the shortest payload the slice table admits.
                for cut in (1..=len - 5).take(24).chain([len - 5]) {
                    let mut bad = data[..end - cut].to_vec();
                    bad.extend_from_slice(&data[end..]);
                    bad[entry..entry + 4].copy_from_slice(&((len - cut) as u32).to_le_bytes());
                    receive(victim, &bad);
                }
                let back = len.div_ceil(4);
                for _ in 0..40 {
                    let mut bad = data.clone();
                    for _ in 0..rng.gen_range(1..6) {
                        bad[end - 1 - rng.gen_range(0..back)] ^= 1 << rng.gen_range(0..8);
                    }
                    receive(victim, &bad);
                }
                start = end;
            }
            assert_eq!(start, data.len());
        }
    }
}

/// The SIMD tier is fixed when a process first asks for it, so the three
/// cases above run once more in a child capped to the scalar tier.
#[test]
fn copy_path_cases_hold_on_the_scalar_tier() {
    if std::env::var("LIVO_SIMD").as_deref() == Ok("scalar") {
        return; // already there; also what ends the recursion
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .env("LIVO_SIMD", "scalar")
        .args([
            "--exact",
            "copy_path_survives_bit_flips_in_static_inter_frames",
            "copy_path_sends_extreme_corner_vectors_through_the_clamp",
            "raw_bit_tail_survives_cuts_and_bit_flips",
        ])
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("3 passed"),
        "scalar-tier run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
