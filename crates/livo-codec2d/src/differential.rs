//! Differential tests for the inter-frame coder: the entropy and
//! slice-decode bodies as they stood before static macroblocks took the
//! copy path, with every bypass field pushed one bit at a time (which is
//! what defines the order of the raw-bit tail), written out as oracles over
//! the inter plan oracle of `tests/common/oracle.rs`.
//! The product must match them byte for byte — bitstream, reconstruction,
//! block counts and decoder output — at every pool size.

use std::sync::Arc;

use livo_math::rng::SplitMix64;
use livo_runtime::WorkerPool;

use crate::dct::{self, ZIGZAG};
use crate::decoder::Decoder;
use crate::encoder::{plane_qp, BlockCounts, Encoder, EncoderConfig, FrameType, SEARCH_RANGE};
use crate::motion::{self, MotionVector, MB_SIZE};
use crate::oracle::{plan_inter, MbPlan};
use crate::plane::{write_block8_into_stripe, Frame, PixelFormat};
use crate::quant::{self, DC_SCALE};
use crate::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use crate::slice::{self, SliceRows};

// ---------------------------------------------------------------------
// Oracles: entropy layer, one bypass bit at a time.
// ---------------------------------------------------------------------

fn band_oracle(pos: usize) -> usize {
    match pos {
        0 => 0,
        1..=2 => 1,
        3..=9 => 2,
        10..=24 => 3,
        _ => 4,
    }
}

#[derive(Default)]
struct ContextsOracle {
    cbf: BitModel,
    last_hi: BitModel,
    dens: [BitModel; 4],
    mag: [u32; 5],
}

impl ContextsOracle {
    /// The Rice parameter for a magnitude at `pos`: the bit length of an
    /// eighth of the band's decayed sum, 15 at most.
    fn rice_k(&self, pos: usize) -> u32 {
        let mean = self.mag[band_oracle(pos)] / 8;
        let mut k = 0;
        while k < 15 && mean >> k != 0 {
            k += 1;
        }
        k
    }

    fn take_in(&mut self, pos: usize, v: u32) {
        let m = &mut self.mag[band_oracle(pos)];
        *m = (*m - *m / 8).saturating_add(v);
    }
}

/// How a mask of `last` flags, `nnz` of them set, is written: `None` raw,
/// or `(dense, k)` — the gaps between its zeros (`dense`) or its ones,
/// Rice-coded with parameter `k`.
fn density_oracle(last: usize, nnz: usize) -> Option<(bool, u32)> {
    let zeros = last - nnz;
    if last < 8 {
        None
    } else if nnz * 8 < last {
        Some((false, 3))
    } else if nnz * 4 < last {
        Some((false, 2))
    } else if zeros * 8 < last {
        Some((true, 3))
    } else if zeros * 4 < last {
        Some((true, 2))
    } else {
        None
    }
}

pub(crate) fn encode_bits_oracle(enc: &mut RangeEncoder, value: u32, nbits: u32) {
    for i in (0..nbits).rev() {
        enc.encode_bypass((value >> i) & 1 == 1);
    }
}

pub(crate) fn encode_ue_oracle(enc: &mut RangeEncoder, value: u32) {
    let v = value + 1;
    let nbits = 32 - v.leading_zeros();
    for _ in 0..nbits - 1 {
        enc.encode_bypass(false);
    }
    enc.encode_bypass(true);
    for i in (0..nbits - 1).rev() {
        enc.encode_bypass((v >> i) & 1 == 1);
    }
}

fn encode_svalue_oracle(enc: &mut RangeEncoder, v: i32) {
    encode_ue_oracle(enc, v.unsigned_abs());
    if v != 0 {
        enc.encode_bypass(v < 0);
    }
}

/// `zeros` zeros, a one, then `value` in `nbits` bits.
pub(crate) fn encode_unary_oracle(enc: &mut RangeEncoder, zeros: u32, value: u32, nbits: u32) {
    for _ in 0..zeros {
        enc.encode_bypass(false);
    }
    enc.encode_bypass(true);
    encode_bits_oracle(enc, value, nbits);
}

fn encode_block_oracle(enc: &mut RangeEncoder, ctx: &mut ContextsOracle, levels: &[i32; 64]) {
    let sig: Vec<bool> = ZIGZAG.iter().map(|&i| levels[i] != 0).collect();
    let Some(last) = sig.iter().rposition(|&s| s) else {
        enc.encode_bit(&mut ctx.cbf, false);
        return;
    };
    enc.encode_bit(&mut ctx.cbf, true);
    enc.encode_bit(&mut ctx.last_hi, last >= 32);
    encode_bits_oracle(enc, last as u32 % 32, 5);

    let class = density_oracle(last, sig[..last].iter().filter(|&&s| s).count());
    if last >= 8 {
        enc.encode_bit(&mut ctx.dens[0], class.is_some());
    }
    match class {
        None => {
            for &s in sig[..last].iter().rev() {
                enc.encode_bypass(s);
            }
        }
        Some((dense, k)) => {
            enc.encode_bit(&mut ctx.dens[1], dense);
            enc.encode_bit(&mut ctx.dens[2 + dense as usize], k == 3);
            // A gap before every minority flag, and one more for what is
            // left behind the last of them.
            let mut gap = 0u32;
            for &s in &sig[..last] {
                if s == dense {
                    gap += 1;
                } else {
                    encode_unary_oracle(enc, gap >> k, gap % (1 << k), k);
                    gap = 0;
                }
            }
            if gap > 0 {
                encode_unary_oracle(enc, gap >> k, gap % (1 << k), k);
            }
        }
    }

    for pos in (0..=last).filter(|&pos| sig[pos]) {
        let level = levels[ZIGZAG[pos]];
        let v = level.unsigned_abs() - 1;
        let k = ctx.rice_k(pos);
        ctx.take_in(pos, v);
        if v >> k < 10 {
            encode_unary_oracle(enc, v >> k, v % (1 << k), k);
        } else {
            for _ in 0..10 {
                enc.encode_bypass(false);
            }
            encode_ue_oracle(enc, v - (10 << k));
        }
        enc.encode_bypass(level < 0);
    }
}

pub(crate) fn decode_bits_oracle(dec: &mut RangeDecoder<'_>, nbits: u32) -> u32 {
    let mut v = 0;
    for _ in 0..nbits {
        v = (v << 1) | dec.decode_bypass() as u32;
    }
    v
}

pub(crate) fn decode_ue_oracle(dec: &mut RangeDecoder<'_>) -> u32 {
    let mut nbits = 1u32;
    while !dec.decode_bypass() {
        if nbits == 32 {
            break;
        }
        nbits += 1;
    }
    let mut v = 1u32;
    for _ in 0..nbits - 1 {
        v = (v << 1) | dec.decode_bypass() as u32;
    }
    v - 1
}

fn decode_svalue_oracle(dec: &mut RangeDecoder<'_>) -> i32 {
    let mag = decode_ue_oracle(dec).min(i32::MAX as u32) as i32;
    if mag == 0 {
        0
    } else if dec.decode_bypass() {
        -mag
    } else {
        mag
    }
}

/// Zeros up to the first one, which is consumed too; `None` once `cap`
/// zeros went by without one.
pub(crate) fn decode_unary_oracle(dec: &mut RangeDecoder<'_>, cap: u32) -> Option<u32> {
    (0..cap).find(|_| dec.decode_bypass())
}

fn decode_block_oracle(dec: &mut RangeDecoder<'_>, ctx: &mut ContextsOracle) -> [i32; 64] {
    let mut levels = [0i32; 64];
    if !dec.decode_bit(&mut ctx.cbf) {
        return levels;
    }
    let hi = dec.decode_bit(&mut ctx.last_hi);
    let last = decode_bits_oracle(dec, 5) as usize + if hi { 32 } else { 0 };

    let mut sig = [false; 64];
    sig[last] = true;
    if last >= 8 && dec.decode_bit(&mut ctx.dens[0]) {
        let dense = dec.decode_bit(&mut ctx.dens[1]);
        let k = if dec.decode_bit(&mut ctx.dens[2 + dense as usize]) {
            3
        } else {
            2
        };
        sig[..last].fill(dense);
        let mut pos = 0;
        while pos < last {
            pos += match decode_unary_oracle(dec, 16) {
                Some(q) => ((q << k) | decode_bits_oracle(dec, k)) as usize,
                None => 64,
            };
            if pos < last {
                sig[pos] = !dense;
            }
            pos += 1;
        }
    } else {
        for pos in (0..last).rev() {
            sig[pos] = dec.decode_bypass();
        }
    }

    for pos in (0..=last).filter(|&pos| sig[pos]) {
        let k = ctx.rice_k(pos);
        let v = match decode_unary_oracle(dec, 10) {
            Some(q) => (q << k) | decode_bits_oracle(dec, k),
            None => decode_ue_oracle(dec).saturating_add(10 << k),
        };
        ctx.take_in(pos, v);
        let mag = v.saturating_add(1).min(i32::MAX as u32) as i32;
        levels[ZIGZAG[pos]] = if dec.decode_bypass() { -mag } else { mag };
    }
    levels
}

// ---------------------------------------------------------------------
// Oracles: entropy walk and slice decode.
// ---------------------------------------------------------------------

fn entropy_inter_slice_oracle(
    luma: &[MbPlan],
    chroma: Vec<&[[i32; 64]]>,
) -> (Vec<u8>, BlockCounts) {
    let mut counts = BlockCounts::default();
    let mut enc = RangeEncoder::new();
    let mut coeff = ContextsOracle::default();
    let mut skip_model = BitModel::new();
    for plan in luma {
        if plan.skip {
            counts.skip += 1;
        } else {
            counts.coded += 1;
        }
        enc.encode_bit(&mut skip_model, plan.skip);
        if !plan.skip {
            encode_svalue_oracle(&mut enc, (plan.mv.dx - plan.pred_mv.dx) as i32);
            encode_svalue_oracle(&mut enc, (plan.mv.dy - plan.pred_mv.dy) as i32);
            for levels in &plan.levels4 {
                encode_block_oracle(&mut enc, &mut coeff, levels);
            }
        }
    }
    for plans in chroma {
        let mut cctx = ContextsOracle::default();
        for levels in plans {
            counts.coded += 1;
            encode_block_oracle(&mut enc, &mut cctx, levels);
        }
    }
    (enc.finish(), counts)
}

/// The whole inter encode at a given QP: bitstream, reconstruction, counts.
fn encode_inter_oracle(
    frame: &Frame,
    prev: &Frame,
    qp: u8,
    search_range: i16,
    cfg_slices: u8,
) -> (Vec<u8>, Frame, BlockCounts) {
    let plan = plan_inter(frame, prev, qp, search_range);
    let mut counts = BlockCounts::default();
    let mut payloads = Vec::new();
    for (luma, chroma) in plan.slices(slice::slice_count(cfg_slices, frame.height)) {
        let (bytes, c) = entropy_inter_slice_oracle(luma, chroma);
        counts.skip += c.skip;
        counts.coded += c.coded;
        payloads.push(bytes);
    }
    let lens: Vec<usize> = payloads.iter().map(Vec::len).collect();
    let mut data = slice::write_header(
        FrameType::Inter,
        slice::Layer::default(),
        frame.format,
        qp,
        frame.width,
        frame.height,
        &lens,
    );
    for p in &payloads {
        data.extend_from_slice(p);
    }
    (data, plan.recon, counts)
}

/// One inter slice decoded the long way: predict every sample through
/// `get_clamped` and run every coded block, zero or not,
/// through the inverse transform.
fn decode_inter_slice_oracle(
    payload: &[u8],
    sr: &SliceRows,
    stripes: &mut [&mut [u16]],
    prev: &Frame,
    qp: u8,
    peak: u16,
) {
    let mut dec = RangeDecoder::new(payload);
    let format = prev.format;
    let width = prev.width;
    let mbs_x = width.div_ceil(MB_SIZE);
    let n_rows = sr.mb1 - sr.mb0;
    let mut mvs = vec![MotionVector::default(); n_rows * mbs_x];

    let (luma_stripe, chroma_stripes) = stripes.split_first_mut().unwrap();
    let step = quant::qstep(plane_qp(qp, 0, format));
    let mut coeff = ContextsOracle::default();
    let mut skip_model = BitModel::new();
    for row in 0..n_rows {
        let by = (sr.mb0 + row) * MB_SIZE;
        for mbx in 0..mbs_x {
            let bx = mbx * MB_SIZE;
            let pred_mv = if mbx > 0 {
                mvs[row * mbs_x + mbx - 1]
            } else {
                MotionVector::default()
            };
            let skip = dec.decode_bit(&mut skip_model);
            let (mv, levels4) = if skip {
                (pred_mv, None)
            } else {
                let dx = (decode_svalue_oracle(&mut dec) as i16).wrapping_add(pred_mv.dx);
                let dy = (decode_svalue_oracle(&mut dec) as i16).wrapping_add(pred_mv.dy);
                let mut levels4 = [[0i32; 64]; 4];
                for l in &mut levels4 {
                    *l = decode_block_oracle(&mut dec, &mut coeff);
                }
                (MotionVector { dx, dy }, Some(levels4))
            };
            mvs[row * mbs_x + mbx] = mv;
            for sb in 0..4 {
                let ox = (sb % 2) * 8;
                let oy = (sb / 2) * 8;
                let mut rec = [0i32; 64];
                let res = match &levels4 {
                    None => [0i32; 64],
                    Some(l4) => dct::inverse(&quant::dequantize_block(&l4[sb], step, DC_SCALE)),
                };
                for dy in 0..8 {
                    for dx in 0..8 {
                        let pred = prev.planes[0].get_clamped(
                            (bx + ox + dx) as isize + mv.dx as isize,
                            (by + oy + dy) as isize + mv.dy as isize,
                        ) as i32;
                        rec[dy * 8 + dx] = res[dy * 8 + dx] + pred;
                    }
                }
                write_block8_into_stripe(luma_stripe, width, sr.y0, bx + ox, by + oy, &rec, peak);
            }
        }
    }

    for (ci, stripe) in chroma_stripes.iter_mut().enumerate() {
        let pi = ci + 1;
        let (pw, _) = format.plane_dims(pi, width, prev.height);
        let cstep = quant::qstep(plane_qp(qp, pi, format));
        let cprev = &prev.planes[pi];
        let mut cctx = ContextsOracle::default();
        for by in (sr.c0..sr.c1).step_by(8) {
            for bx in (0..pw).step_by(8) {
                let local = (by / 8 - sr.mb0) * mbs_x + bx / 8;
                let mv = mvs.get(local).copied().unwrap_or_default();
                let cmv = MotionVector {
                    dx: mv.dx / 2,
                    dy: mv.dy / 2,
                };
                let levels = decode_block_oracle(&mut dec, &mut cctx);
                let deq = quant::dequantize_block(&levels, cstep, DC_SCALE);
                let res = dct::inverse(&deq);
                let mut rec = [0i32; 64];
                for dy in 0..8 {
                    for dx in 0..8 {
                        let pred = cprev.get_clamped(
                            (bx + dx) as isize + cmv.dx as isize,
                            (by + dy) as isize + cmv.dy as isize,
                        ) as i32;
                        rec[dy * 8 + dx] = res[dy * 8 + dx] + pred;
                    }
                }
                write_block8_into_stripe(stripe, pw, sr.c0, bx, by, &rec, peak);
            }
        }
    }
}

/// Decode an inter frame against `prev`; `None` when the header does not
/// parse as one.
fn decode_inter_oracle(data: &[u8], prev: &Frame) -> Option<Frame> {
    let hdr = slice::parse_header(data).ok()?;
    if hdr.frame_type != FrameType::Inter
        || (hdr.width, hdr.height, hdr.format) != (prev.width, prev.height, prev.format)
    {
        return None;
    }
    let n = hdr.payload_lens.len();
    let slices = slice::partition(hdr.format, hdr.height, n);
    let mut out = Frame::new(hdr.format, hdr.width, hdr.height);
    let mut per_plane: Vec<std::vec::IntoIter<&mut [u16]>> = out
        .planes
        .iter_mut()
        .enumerate()
        .map(|(pi, p)| {
            let rows: Vec<(usize, usize)> = slices.iter().map(|sr| sr.plane_rows(pi)).collect();
            slice::split_plane_rows(&mut p.data, p.width, &rows).into_iter()
        })
        .collect();
    let mut offset = slice::header_len(n);
    for (sr, &len) in slices.iter().zip(&hdr.payload_lens) {
        let mut stripes: Vec<&mut [u16]> =
            per_plane.iter_mut().map(|it| it.next().unwrap()).collect();
        let peak = hdr.format.peak_value();
        decode_inter_slice_oracle(
            &data[offset..offset + len],
            sr,
            &mut stripes,
            prev,
            hdr.qp,
            peak,
        );
        offset += len;
    }
    drop(per_plane);
    Some(out)
}

// ---------------------------------------------------------------------
// Content.
// ---------------------------------------------------------------------

/// Smooth texture scaled to the format's range, so the search has a slope
/// to follow.
fn texture(x: usize, y: usize, phase: usize, peak: u16) -> u16 {
    let v = 0.5
        + 0.3 * ((x + phase) as f32 * 0.21).sin()
        + 0.15 * ((y + 2 * phase) as f32 * 0.17).cos();
    (v * peak as f32) as u16
}

/// First frame: texture over the left two thirds, black (what padding
/// slots and culled pixels are) over the right third and a band of rows.
fn first_frame(format: PixelFormat, w: usize, h: usize) -> Frame {
    let mut f = Frame::new(format, w, h);
    let peak = format.peak_value();
    for (pi, p) in f.planes.iter_mut().enumerate() {
        for y in 0..p.height {
            for x in 0..p.width {
                let black = x * 3 >= p.width * 2 || (y * 5 >= p.height * 2 && y * 5 < p.height * 3);
                let v = if black {
                    if pi == 0 {
                        0
                    } else {
                        128
                    }
                } else {
                    texture(x, y, pi * 7, peak)
                };
                p.data[y * p.width + x] = v;
            }
        }
    }
    f
}

/// The next input, built from the last reconstruction so that exact
/// matches exist whatever the quantiser did:
/// - everything not named below repeats `recon` (SAD 0 at the zero vector,
///   the bottom and right partial macroblocks included), and every third
///   frame repeats it whole;
/// - the top-left quarter shows `recon` displaced by `shift` luma samples
///   (half that in chroma), so its inner macroblocks score SAD 0 at
///   `shift`: the first of each row differs from its predictor and is
///   coded with four empty blocks, the rest are skipped at a non-zero
///   vector;
/// - a block of rows in the middle left gets fresh texture and noise, so
///   the transform path runs beside the copy path.
fn next_frame(recon: &Frame, index: usize, shift: (isize, isize), rng: &mut SplitMix64) -> Frame {
    let mut f = recon.clone();
    if index % 3 == 2 {
        return f;
    }
    let peak = recon.format.peak_value();
    for (pi, (p, r)) in f.planes.iter_mut().zip(&recon.planes).enumerate() {
        let div = if pi == 0 { 1 } else { 2 };
        let (sx, sy) = (shift.0 / div, shift.1 / div);
        for y in 0..p.height / 2 {
            for x in 0..p.width / 2 {
                p.data[y * p.width + x] = r.get_clamped(x as isize + sx, y as isize + sy);
            }
        }
        for y in p.height * 3 / 5..p.height * 4 / 5 {
            for x in 0..p.width / 3 {
                let noise = rng.gen_range(0..9u16);
                p.data[y * p.width + x] = texture(x, y, index * 3 + pi, peak).saturating_sub(noise);
            }
        }
    }
    f
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

const GOP: usize = 12;

/// Drive one 12-frame GOP with a forced keyframe in the middle through
/// encoders and decoders at pool sizes 1, 2 and 4, checking every inter
/// frame against the oracles. `qp_of(i)` fixes the QP of frame `i`; `None`
/// leaves it to the rate controller at `target_bits`.
fn run_gop(format: PixelFormat, w: usize, h: usize, qp_of: impl Fn(usize) -> Option<u8>) {
    let mut cfg = EncoderConfig::new(w, h, format);
    cfg.gop_length = GOP as u32;
    let pools = [1usize, 2, 4];
    let mut encoders: Vec<Encoder> = pools
        .iter()
        .map(|&n| {
            let mut e = Encoder::new(cfg);
            e.set_worker_pool(Arc::new(WorkerPool::new(n)));
            e
        })
        .collect();
    let mut decoders: Vec<Decoder> = pools
        .iter()
        .map(|&n| {
            let mut d = Decoder::new();
            d.set_worker_pool(Arc::new(WorkerPool::new(n)));
            d
        })
        .collect();
    let target_bits = (w * h) as u64 / 2 + 4000;
    let shifts = [(2, 0), (0, -2), (-1, 2), (4, 2), (-2, -2), (1, 1)];
    let mut rng = SplitMix64::new(15);
    let mut frame = first_frame(format, w, h);
    let mut prev: Option<Frame> = None;
    let mut totals = BlockCounts::default();
    let mut zero_vector_free = 0u64;
    for i in 0..GOP {
        let tag = format!("{format:?} {w}x{h} frame {i}");
        let mut outs = Vec::new();
        for enc in &mut encoders {
            if i == GOP / 2 {
                enc.force_keyframe();
            }
            outs.push(match qp_of(i) {
                Some(qp) => enc.encode_fixed_qp(&frame, qp),
                None => enc.encode(&frame, target_bits),
            });
        }
        let out = &outs[0];
        for (o, n) in outs.iter().zip(pools).skip(1) {
            assert_eq!(o.data, out.data, "{tag}: bitstream at pool {n}");
            assert_eq!(
                o.reconstruction, out.reconstruction,
                "{tag}: recon at pool {n}"
            );
            assert_eq!(o.blocks, out.blocks, "{tag}: counts at pool {n}");
        }
        let want_intra = i == 0 || i == GOP / 2;
        assert_eq!(out.frame_type == FrameType::Intra, want_intra, "{tag}");
        if let (FrameType::Inter, Some(prev)) = (out.frame_type, &prev) {
            let (data, recon, counts) =
                encode_inter_oracle(&frame, prev, out.qp, SEARCH_RANGE, cfg.slices);
            assert_eq!(out.data, data, "{tag}: bitstream vs oracle");
            assert_eq!(out.reconstruction, recon, "{tag}: reconstruction vs oracle");
            assert_eq!(out.blocks, counts, "{tag}: block counts vs oracle");
            assert_eq!(
                decode_inter_oracle(&out.data, prev).as_ref(),
                Some(&recon),
                "{tag}: oracle decode"
            );
            totals.skip += counts.skip;
            totals.coded += counts.coded;
            // Macroblocks coded (not skipped) although nothing in them
            // changed: the search landed on SAD 0 away from its predictor.
            let mbs_x = w.div_ceil(MB_SIZE);
            let luma = &frame.planes[0];
            for mby in 0..h.div_ceil(MB_SIZE) {
                let mut left = MotionVector::default();
                for mbx in 0..mbs_x {
                    let (mv, sad) = motion::diamond_search(
                        luma,
                        &prev.planes[0],
                        mbx * MB_SIZE,
                        mby * MB_SIZE,
                        left,
                        SEARCH_RANGE,
                    );
                    if sad == 0 && mv != left {
                        zero_vector_free += 1;
                    }
                    left = mv;
                }
            }
        }
        for (dec, n) in decoders.iter_mut().zip(pools) {
            let got = dec.decode(&out.data).expect("own stream decodes");
            assert_eq!(got, out.reconstruction, "{tag}: decode at pool {n}");
        }
        frame = next_frame(
            &out.reconstruction,
            i + 1,
            shifts[i % shifts.len()],
            &mut rng,
        );
        prev = Some(out.reconstruction.clone());
    }
    // The content must have reached every path: skipped macroblocks, coded
    // ones, and (on frames big enough to hold the moving quarter) matches
    // at a vector other than the predictor.
    assert!(totals.skip > 0, "{format:?} {w}x{h}: nothing skipped");
    assert!(totals.coded > 0, "{format:?} {w}x{h}: nothing coded");
    if w >= 96 && h >= 96 {
        assert!(
            zero_vector_free > 0,
            "{format:?} {w}x{h}: no SAD-0 match away from the predictor"
        );
    }
}

const SIZES: [(usize, usize); 3] = [(480, 296), (50, 38), (16, 16)];

#[test]
fn inter_frames_match_the_oracle_at_fixed_qps() {
    let qps = [24u8, 40, 12, 51, 4, 30];
    for format in [PixelFormat::Yuv420, PixelFormat::Y16] {
        for (w, h) in SIZES {
            run_gop(format, w, h, |i| Some(qps[i % qps.len()]));
        }
    }
}

#[test]
fn inter_frames_match_the_oracle_under_rate_control() {
    for format in [PixelFormat::Yuv420, PixelFormat::Y16] {
        run_gop(format, 480, 296, |_| None);
        run_gop(format, 50, 38, |_| None);
    }
}

/// The copy path must leave corrupt streams where the clamped path left
/// them: flip bits in inter frames of a mostly static scene and compare
/// the decoder with the oracle, garbage for garbage.
#[test]
fn corrupt_inter_frames_decode_like_the_oracle() {
    for format in [PixelFormat::Yuv420, PixelFormat::Y16] {
        let (w, h) = (80, 56);
        let mut cfg = EncoderConfig::new(w, h, format);
        cfg.gop_length = 0;
        let mut enc = Encoder::new(cfg);
        let mut rng = SplitMix64::new(16);
        let first = enc.encode_fixed_qp(&first_frame(format, w, h), 20);
        let mut reference = first.reconstruction;
        let mut chain = vec![first.data];
        let header = slice::header_len(slice::slice_count(cfg.slices, h));
        for i in 1..6 {
            let frame = next_frame(&reference, i, (2, -2), &mut rng);
            let out = enc.encode_fixed_qp(&frame, 20);
            assert_eq!(out.frame_type, FrameType::Inter);
            for _ in 0..40 {
                let mut bad = out.data.clone();
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(header..bad.len());
                    bad[at] ^= 1 << rng.gen_range(0..8);
                }
                // A fresh decoder brought to this frame's reference.
                let mut dec = Decoder::new();
                for good in &chain {
                    dec.decode(good).expect("own stream decodes");
                }
                let got = dec
                    .decode(&bad)
                    .expect("payload damage leaves the header whole");
                let want = decode_inter_oracle(&bad, &reference).expect("and an inter frame");
                assert_eq!(got, want, "{format:?} frame {i}");
            }
            reference = out.reconstruction;
            chain.push(out.data);
        }
    }
}
