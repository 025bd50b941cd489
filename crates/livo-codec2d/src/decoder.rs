//! The video decoder: the exact mirror of the encoder's closed loop.
//!
//! Every frame is a sliced frame (see [`crate::slice`]); its independent
//! slices decode concurrently when a worker pool is attached via
//! [`Decoder::set_worker_pool`]. The reconstruction is bit-exact across pool
//! sizes — slice geometry comes from the header, and each slice's entropy
//! state is self-contained.
//!
//! Corrupt input must never panic: header inconsistencies map to
//! [`DecodeError`], and past the header the range decoder is total (it
//! reads zeros past the end of the buffer), so truncated or bit-flipped
//! payloads decode to garbage pixels, not crashes.

use std::sync::Arc;

use livo_runtime::WorkerPool;
use livo_telemetry::{Counter, MetricsRegistry};

use crate::block::{decode_block, decode_svalue, CoeffContexts};
use crate::dct;
use crate::encoder::{add_residual, plane_qp, run_slice_jobs, FrameType};
use crate::motion::{self, MotionVector, MB_SIZE};
use crate::plane::{write_block8_into_stripe, Frame, PixelFormat};
use crate::quant::{self, DC_SCALE};
use crate::rangecoder::{BitModel, RangeDecoder};
use crate::slice::{self, Layer, SliceRows};

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream does not start with the frame magic.
    BadMagic,
    /// An inter frame arrived but its reference is not available (e.g.
    /// after a reset, when the first received frame was not intra, or when
    /// the T0 it predicts from never reached this decoder).
    MissingReference,
    /// Header fields are inconsistent (zero or absurd dimensions, unknown
    /// format, out-of-range QP).
    BadHeader,
    /// The buffer ends before the header (or the slice payloads it
    /// declares) is complete.
    Truncated,
    /// The slice table is inconsistent (zero or too many slices,
    /// impossible payload lengths, trailing bytes).
    BadSliceTable,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bitstream does not start with frame magic"),
            DecodeError::MissingReference => {
                write!(f, "inter frame received without a decoded reference frame")
            }
            DecodeError::BadHeader => write!(f, "inconsistent frame header"),
            DecodeError::Truncated => write!(f, "bitstream shorter than its header declares"),
            DecodeError::BadSliceTable => write!(f, "inconsistent slice table"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Per-decoder scratch arena, the receive-side mirror of the encoder's
/// `EncoderScratch`: the work frame the decode writes into (rotated with
/// the reference frame after each commit, so the steady-state loop
/// allocates only the one clone handed to the caller).
struct DecoderScratch {
    work: Frame,
}

impl Default for DecoderScratch {
    fn default() -> Self {
        DecoderScratch {
            // Zero-sized: matches no real frame, so the first decode always
            // allocates a correctly-shaped work frame.
            work: Frame::new(PixelFormat::Yuv420, 0, 0),
        }
    }
}

impl DecoderScratch {
    /// Make `work` a `format`/`w`×`h` frame, reusing the existing
    /// allocation when the shape matches. Returns whether it was reused.
    /// Stale contents are harmless: inter frames overwrite every pixel, and
    /// intra DC prediction only reads pixels already reconstructed this
    /// frame.
    fn ensure_work(&mut self, format: PixelFormat, w: usize, h: usize) -> bool {
        let r = &self.work;
        if r.format == format && (r.width, r.height) == (w, h) && w > 0 {
            true
        } else {
            self.work = Frame::new(format, w, h);
            false
        }
    }
}

/// Held metric handles recorded once per decoded frame.
struct DecoderTelemetry {
    slices: Arc<Counter>,
    scratch_reuses: Arc<Counter>,
}

/// The decoder. Holds the last intra or T0 reconstruction as the
/// inter-prediction reference.
#[derive(Default)]
pub struct Decoder {
    recon: Option<Frame>,
    /// The reference's tag, and the last intra's (two layers or one).
    ref_tag: bool,
    layered: bool,
    /// Worker pool for slice-parallel decode. `None` (or a single-thread
    /// pool) decodes slices serially; the output is identical either way.
    pool: Option<Arc<WorkerPool>>,
    scratch: DecoderScratch,
    telemetry: Option<DecoderTelemetry>,
}

impl Decoder {
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Decode slices concurrently on `pool` (one task per slice). A pool
    /// with one thread behaves exactly like no pool.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Publish per-frame bitstream metrics in `registry`. The names are
    /// deliberately unprefixed — one decode-stage account shared by the
    /// colour and depth decoders: the `codec.decode_slices` counter and the
    /// `codec.decode_scratch_reuses` arena-effectiveness counter. Timing a
    /// decode is the caller's, who owns the clock.
    pub fn attach_telemetry(&mut self, registry: &Arc<MetricsRegistry>) {
        self.telemetry = Some(DecoderTelemetry {
            slices: registry.counter("codec.decode_slices"),
            scratch_reuses: registry.counter("codec.decode_scratch_reuses"),
        });
    }

    /// Drop the reference frame (e.g. after an unrecoverable loss, before
    /// requesting a keyframe via PLI). The scratch arena is kept.
    pub fn reset(&mut self) {
        self.recon = None;
    }

    /// Decode one frame.
    pub fn decode(&mut self, data: &[u8]) -> Result<Frame, DecodeError> {
        let (frame, n_slices) = self.decode_sliced(data)?;
        if let Some(t) = &self.telemetry {
            t.slices.add(n_slices as u64);
        }
        Ok(frame)
    }

    /// Rotate the reconstruction double buffer after a successful decode
    /// (not of a T1): the work frame becomes the prediction reference and
    /// the outgoing reference's allocation becomes the next frame's
    /// workspace. Returns the caller's copy of the reconstruction.
    fn commit(&mut self, layer: Layer) -> Frame {
        if !layer.is_t0() {
            return self.scratch.work.clone();
        }
        self.ref_tag = layer.tag;
        let recycled = self
            .recon
            .take()
            .unwrap_or_else(|| Frame::new(PixelFormat::Yuv420, 0, 0));
        let frame = std::mem::replace(&mut self.scratch.work, recycled);
        self.recon = Some(frame.clone());
        frame
    }

    /// Parse the header and decode every slice; returns the frame and its
    /// slice count.
    fn decode_sliced(&mut self, data: &[u8]) -> Result<(Frame, usize), DecodeError> {
        let hdr = slice::parse_header(data)?;
        if hdr.frame_type == FrameType::Intra {
            self.layered = hdr.layer.tag;
        } else if hdr.layer != Layer::following(hdr.layer.temporal_id, self.ref_tag, self.layered)
            || !(hdr.layer.is_t0() || self.layered)
        {
            // A P frame names its reference by tag, and only a two-layer
            // stream has T1s.
            return Err(DecodeError::MissingReference);
        }
        let n_slices = hdr.payload_lens.len();
        let mut offset = slice::header_len(n_slices);
        let mut payloads: Vec<&[u8]> = Vec::with_capacity(n_slices);
        for &len in &hdr.payload_lens {
            // parse_header validated that the lengths sum to the buffer end.
            payloads.push(&data[offset..offset + len]);
            offset += len;
        }

        if self.scratch.ensure_work(hdr.format, hdr.width, hdr.height) {
            if let Some(t) = &self.telemetry {
                t.scratch_reuses.inc();
            }
        }
        let slices = slice::partition(hdr.format, hdr.height, n_slices);
        let peak = hdr.format.peak_value();
        let pool = self.pool.as_deref().filter(|p| p.threads() > 1);
        let work = &mut self.scratch.work;

        // Carve every plane into per-slice row stripes, then transpose to
        // one stripe set per slice.
        let mut per_plane: Vec<std::vec::IntoIter<&mut [u16]>> = work
            .planes
            .iter_mut()
            .enumerate()
            .map(|(pi, p)| {
                let rows: Vec<(usize, usize)> = slices.iter().map(|sr| sr.plane_rows(pi)).collect();
                slice::split_plane_rows(&mut p.data, p.width, &rows).into_iter()
            })
            .collect();
        let jobs: Vec<SliceJob<'_>> = slices
            .iter()
            .zip(payloads)
            .map(|(sr, payload)| {
                let stripes = per_plane.iter_mut().map(|it| it.next().unwrap()).collect();
                (*sr, payload, stripes)
            })
            .collect();

        match hdr.frame_type {
            FrameType::Intra => {
                run_slice_jobs(pool, jobs, |(sr, payload, mut stripes)| {
                    decode_intra_slice(
                        payload,
                        &sr,
                        &mut stripes,
                        hdr.format,
                        hdr.width,
                        hdr.height,
                        hdr.qp,
                        peak,
                    );
                });
            }
            FrameType::Inter => {
                let prev = self.recon.as_ref().ok_or(DecodeError::MissingReference)?;
                if (prev.width, prev.height, prev.format) != (hdr.width, hdr.height, hdr.format) {
                    return Err(DecodeError::MissingReference);
                }
                run_slice_jobs(pool, jobs, |(sr, payload, mut stripes)| {
                    decode_inter_slice(payload, &sr, &mut stripes, prev, hdr.qp, peak);
                });
            }
        }
        Ok((self.commit(hdr.layer), n_slices))
    }
}

/// One slice's decode job: its rows, payload bytes and plane stripes.
type SliceJob<'a> = (SliceRows, &'a [u8], Vec<&'a mut [u16]>);

/// Decode a motion-vector difference and add the predictor. Corrupt
/// streams can produce arbitrary magnitudes; the wrapping arithmetic keeps
/// the result a (garbage but valid) vector instead of overflowing.
fn decode_mv(dec: &mut RangeDecoder<'_>, pred_mv: MotionVector) -> MotionVector {
    let dx = (decode_svalue(dec) as i16).wrapping_add(pred_mv.dx);
    let dy = (decode_svalue(dec) as i16).wrapping_add(pred_mv.dy);
    MotionVector { dx, dy }
}

/// Decode one intra slice into its plane stripes — the exact mirror of the
/// encoder's `encode_intra_slice`: plane-major, fresh contexts per plane,
/// slice-local DC prediction. Total on corrupt input: the range decoder
/// reads zeros past the end of the payload.
#[allow(clippy::too_many_arguments)]
fn decode_intra_slice(
    payload: &[u8],
    sr: &SliceRows,
    stripes: &mut [&mut [u16]],
    format: PixelFormat,
    width: usize,
    height: usize,
    qp: u8,
    peak: u16,
) {
    let mut dec = RangeDecoder::new(payload);
    let mut levels = [0i32; 64];
    for (pi, stripe) in stripes.iter_mut().enumerate() {
        let (pw, _) = format.plane_dims(pi, width, height);
        let step = quant::qstep(plane_qp(qp, pi, format));
        let (r0, r1) = sr.plane_rows(pi);
        let mut coeff = CoeffContexts::new();
        for by in (r0..r1).step_by(8) {
            for bx in (0..pw).step_by(8) {
                decode_block(&mut dec, &mut coeff, &mut levels);
                let pred = slice::intra_dc_pred_stripe(stripe, pw, r0, bx, by, peak);
                let deq = quant::dequantize_block(&levels, step, DC_SCALE);
                let mut rec = dct::inverse(&deq);
                for v in &mut rec {
                    // Wraps on a corrupt stream's levels; the write clamps.
                    *v = v.wrapping_add(pred);
                }
                write_block8_into_stripe(stripe, pw, r0, bx, by, &rec, peak);
            }
        }
    }
}

/// Decode one inter slice into its plane stripes — the mirror of the
/// encoder's `entropy_inter_slice` walk: the slice's luma macroblock rows
/// (left-neighbour MV prediction, reset per row), then each chroma plane's
/// matching block rows against the halved luma motion field.
///
/// A block without a coded level reconstructs to its prediction exactly
/// (the inverse transform of zeros is zero), so it skips the transform; and
/// where that prediction is a plain copy of reference rows
/// ([`motion::copy_origin`]) a skipped or level-free macroblock, or a
/// level-free chroma block, is that copy. Any other vector — every hostile
/// one included — goes through the clamped prediction as before.
fn decode_inter_slice(
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

    let (luma_stripe, chroma_stripes) = stripes.split_first_mut().expect("at least one plane");
    let luma_prev = &prev.planes[0];
    let step = quant::qstep(plane_qp(qp, 0, format));
    let mut coeff = CoeffContexts::new();
    let mut skip_model = BitModel::new();
    let mut pred_buf = [0i32; MB_SIZE * MB_SIZE];
    let mut levels4 = [[0i32; 64]; 4];
    for row in 0..n_rows {
        let by = (sr.mb0 + row) * MB_SIZE;
        for mbx in 0..mbs_x {
            let bx = mbx * MB_SIZE;
            let pred_mv = if mbx > 0 {
                mvs[row * mbs_x + mbx - 1]
            } else {
                MotionVector::default()
            };
            let mut coded = [false; 4];
            let mv = if dec.decode_bit(&mut skip_model) {
                pred_mv
            } else {
                let mv = decode_mv(&mut dec, pred_mv);
                for (levels, c) in levels4.iter_mut().zip(&mut coded) {
                    *c = decode_block(&mut dec, &mut coeff, levels);
                }
                mv
            };
            mvs[row * mbs_x + mbx] = mv;
            if coded == [false; 4] {
                if let Some(origin) = motion::copy_origin(luma_prev, bx, by, mv, MB_SIZE) {
                    motion::copy_block_into_stripe(
                        luma_stripe,
                        sr.y0,
                        bx,
                        by,
                        luma_prev,
                        origin,
                        MB_SIZE,
                    );
                    continue;
                }
            }
            motion::predict_block(luma_prev, bx, by, mv, &mut pred_buf);
            for sb in 0..4 {
                let ox = (sb % 2) * 8;
                let oy = (sb / 2) * 8;
                let mut rec = [0i32; 64];
                for dy in 0..8 {
                    rec[dy * 8..][..8].copy_from_slice(&pred_buf[(oy + dy) * MB_SIZE + ox..][..8]);
                }
                if coded[sb] {
                    add_residual(&mut rec, &levels4[sb], step);
                }
                write_block8_into_stripe(luma_stripe, width, sr.y0, bx + ox, by + oy, &rec, peak);
            }
        }
    }

    let mut levels = [0i32; 64];
    for (ci, stripe) in chroma_stripes.iter_mut().enumerate() {
        let pi = ci + 1;
        let (pw, _) = format.plane_dims(pi, width, prev.height);
        let cstep = quant::qstep(plane_qp(qp, pi, format));
        let cprev = &prev.planes[pi];
        let mut cctx = CoeffContexts::new();
        for by in (sr.c0..sr.c1).step_by(8) {
            for bx in (0..pw).step_by(8) {
                // A chroma block row maps 1:1 to a luma macroblock row.
                let local = (by / 8 - sr.mb0) * mbs_x + bx / 8;
                let mv = mvs.get(local).copied().unwrap_or_default();
                let cmv = MotionVector {
                    dx: mv.dx / 2,
                    dy: mv.dy / 2,
                };
                let coded = decode_block(&mut dec, &mut cctx, &mut levels);
                if !coded {
                    if let Some(origin) = motion::copy_origin(cprev, bx, by, cmv, 8) {
                        motion::copy_block_into_stripe(stripe, sr.c0, bx, by, cprev, origin, 8);
                        continue;
                    }
                }
                let mut rec = [0i32; 64];
                cprev.read_block8_at(
                    bx as isize + cmv.dx as isize,
                    by as isize + cmv.dy as isize,
                    &mut rec,
                );
                if coded {
                    add_residual(&mut rec, &levels, cstep);
                }
                write_block8_into_stripe(stripe, pw, sr.c0, bx, by, &rec, peak);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};

    fn test_frame(w: usize, h: usize, phase: usize) -> Frame {
        let mut rgb = vec![0u8; w * h * 3];
        for y in 0..h {
            for x in 0..w {
                let i = (y * w + x) * 3;
                rgb[i] = (((x + phase) * 5) % 256) as u8;
                rgb[i + 1] = ((y * 3 + phase * 2) % 256) as u8;
                rgb[i + 2] = (((x * y) / 4 + phase) % 256) as u8;
            }
        }
        Frame::from_rgb8(w, h, &rgb)
    }

    #[test]
    fn decoder_matches_encoder_reconstruction_intra() {
        let f = test_frame(80, 48, 0);
        let mut enc = Encoder::new(EncoderConfig::new(80, 48, PixelFormat::Yuv420));
        let out = enc.encode(&f, 100_000);
        let mut dec = Decoder::new();
        let decoded = dec.decode(&out.data).unwrap();
        assert_eq!(
            decoded, out.reconstruction,
            "decoder must be bit-exact with encoder loop"
        );
    }

    #[test]
    fn decoder_matches_encoder_over_gop() {
        let mut enc = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        let mut dec = Decoder::new();
        for i in 0..8 {
            let f = test_frame(64, 64, i);
            let out = enc.encode(&f, 60_000);
            let decoded = dec.decode(&out.data).unwrap();
            assert_eq!(decoded, out.reconstruction, "frame {i}");
        }
    }

    #[test]
    fn y16_round_trip_bit_exact_with_encoder() {
        let mut enc = Encoder::new(EncoderConfig::new(48, 48, PixelFormat::Y16));
        let mut dec = Decoder::new();
        for i in 0..4 {
            let samples: Vec<u16> = (0..48usize * 48)
                .map(|p| (((p + i * 31) * 401) % 60000) as u16)
                .collect();
            let f = Frame::from_y16(48, 48, samples);
            let out = enc.encode(&f, 150_000);
            let decoded = dec.decode(&out.data).unwrap();
            assert_eq!(decoded, out.reconstruction, "frame {i}");
        }
    }

    #[test]
    fn sliced_round_trip_matches_encoder() {
        let mut cfg = EncoderConfig::new(128, 128, PixelFormat::Yuv420);
        cfg.slices = 4;
        let mut enc = Encoder::new(cfg);
        let mut dec = Decoder::new();
        for i in 0..6 {
            let f = test_frame(128, 128, i);
            let out = enc.encode(&f, 120_000);
            assert_eq!(out.data[0], slice::SLICED_MAGIC, "frame {i}");
            let decoded = dec.decode(&out.data).unwrap();
            assert_eq!(decoded, out.reconstruction, "frame {i}");
        }
    }

    #[test]
    fn sliced_y16_round_trip_matches_encoder() {
        let mut cfg = EncoderConfig::new(96, 96, PixelFormat::Y16);
        cfg.slices = 3;
        let mut enc = Encoder::new(cfg);
        let mut dec = Decoder::new();
        for i in 0..4 {
            let samples: Vec<u16> = (0..96usize * 96)
                .map(|p| (((p + i * 31) * 401) % 60000) as u16)
                .collect();
            let f = Frame::from_y16(96, 96, samples);
            let out = enc.encode(&f, 200_000);
            assert_eq!(out.data[0], slice::SLICED_MAGIC, "frame {i}");
            let decoded = dec.decode(&out.data).unwrap();
            assert_eq!(decoded, out.reconstruction, "frame {i}");
        }
    }

    #[test]
    fn parallel_slice_decode_matches_serial() {
        let mut cfg = EncoderConfig::new(128, 128, PixelFormat::Yuv420);
        cfg.slices = 4;
        let mut enc = Encoder::new(cfg);
        let mut serial = Decoder::new();
        let mut parallel = Decoder::new();
        parallel.set_worker_pool(Arc::new(WorkerPool::new(3)));
        for i in 0..5 {
            let out = enc.encode(&test_frame(128, 128, i), 120_000);
            let a = serial.decode(&out.data).unwrap();
            let b = parallel.decode(&out.data).unwrap();
            assert_eq!(a, b, "frame {i}");
        }
    }

    #[test]
    fn inter_without_reference_fails() {
        let mut enc = Encoder::new(EncoderConfig::new(32, 32, PixelFormat::Yuv420));
        enc.encode(&test_frame(32, 32, 0), 50_000);
        let p = enc.encode(&test_frame(32, 32, 1), 50_000);
        assert_eq!(p.frame_type, FrameType::Inter);
        let mut dec = Decoder::new();
        assert_eq!(dec.decode(&p.data), Err(DecodeError::MissingReference));
    }

    #[test]
    fn sliced_inter_without_reference_fails() {
        let mut cfg = EncoderConfig::new(128, 128, PixelFormat::Yuv420);
        cfg.slices = 2;
        let mut enc = Encoder::new(cfg);
        enc.encode(&test_frame(128, 128, 0), 120_000);
        let p = enc.encode(&test_frame(128, 128, 1), 120_000);
        assert_eq!(p.frame_type, FrameType::Inter);
        let mut dec = Decoder::new();
        assert_eq!(dec.decode(&p.data), Err(DecodeError::MissingReference));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut dec = Decoder::new();
        // 0x00 opened every frame of the retired v1 container.
        assert_eq!(dec.decode(&[0u8; 32]), Err(DecodeError::BadMagic));
    }

    #[test]
    fn reset_then_keyframe_recovers() {
        let mut enc = Encoder::new(EncoderConfig::new(32, 32, PixelFormat::Yuv420));
        let mut dec = Decoder::new();
        let f0 = enc.encode(&test_frame(32, 32, 0), 50_000);
        dec.decode(&f0.data).unwrap();
        // Simulate loss: decoder resets, P-frame fails, PLI → keyframe.
        dec.reset();
        let p = enc.encode(&test_frame(32, 32, 1), 50_000);
        assert!(dec.decode(&p.data).is_err());
        enc.force_keyframe();
        let k = enc.encode(&test_frame(32, 32, 2), 50_000);
        let decoded = dec.decode(&k.data).unwrap();
        assert_eq!(decoded, k.reconstruction);
    }

    #[test]
    fn scratch_reuse_keeps_decodes_identical() {
        // Two decoders for the same all-intra stream; one also decodes an
        // interleaved stream of a different shape, so its work-frame arena
        // is reallocated every frame while the other reuses it every frame.
        let mut cfg_a = EncoderConfig::new(64, 64, PixelFormat::Yuv420);
        cfg_a.gop_length = 1;
        let mut cfg_b = EncoderConfig::new(32, 32, PixelFormat::Yuv420);
        cfg_b.gop_length = 1;
        let mut enc_a = Encoder::new(cfg_a);
        let mut enc_b = Encoder::new(cfg_b);
        let mut dec_clean = Decoder::new();
        let mut dec_shared = Decoder::new();
        for i in 0..4 {
            let a = enc_a.encode(&test_frame(64, 64, i), 60_000);
            let b = enc_b.encode(&test_frame(32, 32, i), 30_000);
            let x = dec_clean.decode(&a.data).unwrap();
            let y = dec_shared.decode(&a.data).unwrap();
            assert_eq!(x, y, "frame {i}");
            dec_shared.decode(&b.data).unwrap();
        }
    }
}
