//! The bitstream: independent entropy slices.
//!
//! Every frame is split into `S ≥ 1` horizontal slices of whole luma
//! macroblock rows; every slice carries its **own** adaptive range-coder
//! contexts and a byte-aligned payload, so slices encode and decode
//! independently (the H.265 "entropy slice" / wavefront idea this codec
//! stands in for). The price is a small uncompressed frame header and
//! per-slice context resets. Both ends code the slices one after another
//! on the stream's thread: the parallelism is the sender's and the
//! receiver's colour ∥ depth join (`livo-core`'s stages), which row or
//! slice tasks inside a stream lost to. A frame too small to split is a
//! one-slice frame in the same container.
//!
//! ```text
//! byte 0        SLICED_MAGIC (0xB2)
//! byte 1        flags: bit0 = inter, bits1-2 = pixel format (0 YUV420,
//!               1 Y16), bit3 = temporal id (0 T0, 1 T1; an intra is
//!               T0), bit4 = reference tag; bits 5-7 are reserved and
//!               rejected
//! byte 2        QP
//! bytes 3-4     width,  u16 little-endian
//! bytes 5-6     height, u16 little-endian
//! byte 7        slice count S (1..=mb rows)
//! ...next 4S    payload length of each slice, u32 little-endian
//! ...           S concatenated slice payloads (independent, byte-aligned)
//!
//! one payload:  | range-coder bytes → … | … ← raw-bit tail |
//!               first byte                         last byte
//! ```
//!
//! A payload is two streams ([`crate::rangecoder`]). Context-coded bits go
//! through the range coder, from the payload's first byte forward. Bypass
//! bits (signs, `last` positions, exp-Golomb magnitudes and vector
//! differences) are written verbatim from its last byte backward, in the
//! order they were coded, a field MSB first: raw bit `i` is bit
//! `7 − i % 8` of byte `len − 1 − i / 8`, zeros padding the byte nearest
//! the range coder. The length table above is what tells the tail reader
//! where to start, so the tail has no length field and costs under one
//! byte of padding per slice; where it ends nobody needs to know, because
//! the range decoder reads exactly the bytes the range encoder wrote. Both
//! readers are total — zeros past the payload's last byte for the one,
//! past its first for the other, neither looking at the other — so a
//! damaged payload, or a table that cuts a tail short, decodes to garbage
//! of the right shape.
//!
//! **Temporal layers.** A one-layer stream is all T0 with tag 0. A
//! two-layer stream alternates T0, T1 from each intra on; a P frame
//! predicts from the last T0, and nothing from a T1. Its intra carries tag
//! 1, each T0 flips the tag of the T0 it predicts from, and a T1 repeats
//! it, so a frame names its reference (DESIGN.md "Bitstream").
//!
//! Slice geometry is a pure function of `(height, S)`, so the bitstream is
//! identical however many threads the sender has.
//!
//! Inside a slice, planes are coded plane-major (all luma rows, then U,
//! then V) with fresh contexts per plane. Intra DC prediction treats the
//! slice's top row as a frame edge (that is what makes intra slices
//! independent); inter prediction is already row-independent because the
//! motion-vector predictor is the left neighbour only and reference reads
//! come from the previous frame.

use crate::decoder::DecodeError;
use crate::encoder::FrameType;
use crate::motion::MB_SIZE;
use crate::plane::PixelFormat;
use crate::quant;

/// First byte of every encoded frame.
pub const SLICED_MAGIC: u8 = 0xB2;

/// Fixed part of the frame header, before the slice length table.
pub(crate) const FIXED_HEADER_LEN: usize = 8;

/// Upper bound on decoded frame size (samples of the luma plane), against
/// corrupt headers requesting multi-gigabyte allocations. 1<<25 = 33.5M
/// luma samples, comfortably above 8K (7680x4320 = 33.2M).
pub(crate) const MAX_DECODE_PIXELS: u64 = 1 << 25;

/// Total header bytes for `n` slices.
pub(crate) fn header_len(n: usize) -> usize {
    FIXED_HEADER_LEN + 4 * n
}

/// Effective slice count for a frame of this height: the configured count,
/// or for `cfg_slices == 0` an automatic choice of one slice per four
/// macroblock rows capped at 8 (frames under 8 macroblock rows are one
/// slice). Always in `1..=mb_rows`.
pub fn slice_count(cfg_slices: u8, height: usize) -> usize {
    let mbs_y = height.div_ceil(MB_SIZE).max(1);
    let want = if cfg_slices == 0 {
        (mbs_y / 4).clamp(1, 8)
    } else {
        cfg_slices as usize
    };
    want.clamp(1, mbs_y).min(255)
}

/// Row extent of one slice: a contiguous run of luma macroblock rows and
/// the matching luma / chroma sample-row ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SliceRows {
    /// Luma macroblock-row range `[mb0, mb1)`.
    pub mb0: usize,
    pub mb1: usize,
    /// Luma sample-row range `[y0, y1)`.
    pub y0: usize,
    pub y1: usize,
    /// Chroma sample-row range `[c0, c1)` (4:2:0 only; empty for Y16).
    pub c0: usize,
    pub c1: usize,
}

impl SliceRows {
    /// Sample-row range of this slice in plane `pi`.
    pub(crate) fn plane_rows(&self, pi: usize) -> (usize, usize) {
        if pi == 0 {
            (self.y0, self.y1)
        } else {
            (self.c0, self.c1)
        }
    }
}

/// Split a frame's macroblock rows into `n` contiguous slices, as evenly as
/// possible (the first `mb_rows % n` slices get one extra row). Deterministic
/// in `(format, height, n)` alone. Panics if `n` is 0 or exceeds the
/// macroblock-row count — callers validate first.
pub(crate) fn partition(format: PixelFormat, height: usize, n: usize) -> Vec<SliceRows> {
    let mbs_y = height.div_ceil(MB_SIZE);
    assert!(n >= 1 && n <= mbs_y, "bad slice count {n} for {mbs_y} rows");
    // An 8x8 chroma block row corresponds 1:1 to a luma macroblock row:
    // ceil(ceil(h/2)/8) == ceil(h/16), so slices are self-contained in
    // every plane.
    let ch = if format.num_planes() > 1 {
        format.plane_dims(1, 0, height).1
    } else {
        0
    };
    let base = mbs_y / n;
    let extra = mbs_y % n;
    let mut out = Vec::with_capacity(n);
    let mut mb0 = 0usize;
    for i in 0..n {
        let rows = base + usize::from(i < extra);
        let mb1 = mb0 + rows;
        out.push(SliceRows {
            mb0,
            mb1,
            y0: mb0 * MB_SIZE,
            y1: (mb1 * MB_SIZE).min(height),
            c0: (mb0 * 8).min(ch),
            c1: (mb1 * 8).min(ch),
        });
        mb0 = mb1;
    }
    out
}

/// Split a plane's samples into the per-slice row stripes given by `rows`
/// (contiguous, exhaustive `(r0, r1)` ranges). Each stripe can then be
/// handed to a different worker.
pub(crate) fn split_plane_rows<'a>(
    data: &'a mut [u16],
    width: usize,
    rows: &[(usize, usize)],
) -> Vec<&'a mut [u16]> {
    let mut out = Vec::with_capacity(rows.len());
    let mut rest = data;
    for &(r0, r1) in rows {
        let (head, tail) = rest.split_at_mut((r1 - r0) * width);
        out.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "row ranges must cover the plane");
    out
}

/// DC predictor for an intra block inside a slice stripe: the mean of the
/// reconstructed row above and column left of the block *within the slice*
/// (the slice's top row predicts like a frame edge), else mid-range.
pub(crate) fn intra_dc_pred_stripe(
    stripe: &[u16],
    width: usize,
    y0: usize,
    bx: usize,
    by: usize,
    peak: u16,
) -> i32 {
    let rows = stripe.len() / width;
    let mut acc = 0u64;
    let mut n = 0u64;
    if by > y0 {
        for dx in 0..8 {
            let x = (bx + dx).min(width - 1);
            acc += stripe[(by - 1 - y0) * width + x] as u64;
            n += 1;
        }
    }
    if bx > 0 {
        for dy in 0..8 {
            let y = (by + dy).min(y0 + rows - 1);
            acc += stripe[(y - y0) * width + bx - 1] as u64;
            n += 1;
        }
    }
    match acc.checked_div(n) {
        Some(mean) => mean as i32,
        None => (peak as i32 + 1) / 2,
    }
}

/// Flags bits 3 and 4: a frame's place in its stream's temporal layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    /// 0 (T0, a reference) or 1 (T1, never a reference).
    pub temporal_id: u8,
    /// The reference tag.
    pub tag: bool,
}

impl Layer {
    /// Whether this is a T0 (an intra included): what later frames
    /// predict from.
    pub fn is_t0(&self) -> bool {
        self.temporal_id == 0
    }

    /// The layer of a frame that follows a reference tagged `ref_tag`: a
    /// two-layer T0 flips the tag, anything else repeats it.
    pub(crate) fn following(temporal_id: u8, ref_tag: bool, layered: bool) -> Layer {
        Layer {
            temporal_id,
            tag: ref_tag ^ (layered && temporal_id == 0),
        }
    }
}

/// Split the flags byte; every value outside the header table is a
/// [`DecodeError::BadHeader`].
fn parse_flags(flags: u8) -> Result<(FrameType, PixelFormat, Layer), DecodeError> {
    let frame_type = if flags & 1 == 1 {
        FrameType::Inter
    } else {
        FrameType::Intra
    };
    let format = match (flags >> 1) & 0b11 {
        0 => PixelFormat::Yuv420,
        1 => PixelFormat::Y16,
        _ => return Err(DecodeError::BadHeader),
    };
    let layer = Layer {
        temporal_id: (flags >> 3) & 1,
        tag: flags & 0b1_0000 != 0,
    };
    // Bits 5-7 are reserved, and an intra restarts the pattern as T0.
    if flags >> 5 != 0 || (frame_type == FrameType::Intra && !layer.is_t0()) {
        return Err(DecodeError::BadHeader);
    }
    Ok((frame_type, format, layer))
}

/// A frame's type and temporal layer, read from its flags byte alone;
/// `None` when `data` does not open with a valid frame header.
pub fn peek_layer(data: &[u8]) -> Option<(FrameType, Layer)> {
    if data.len() < FIXED_HEADER_LEN || data[0] != SLICED_MAGIC {
        return None;
    }
    let (frame_type, _, layer) = parse_flags(data[1]).ok()?;
    Some((frame_type, layer))
}

/// Serialise the frame header: fixed fields, then the slice length table.
pub(crate) fn write_header(
    frame_type: FrameType,
    layer: Layer,
    format: PixelFormat,
    qp: u8,
    width: usize,
    height: usize,
    payload_lens: &[usize],
) -> Vec<u8> {
    debug_assert!(!payload_lens.is_empty() && payload_lens.len() <= 255);
    let n = payload_lens.len();
    let mut out = Vec::with_capacity(header_len(n));
    out.push(SLICED_MAGIC);
    let fmt_bits = match format {
        PixelFormat::Yuv420 => 0u8,
        PixelFormat::Y16 => 1,
    };
    out.push(
        u8::from(frame_type == FrameType::Inter)
            | (fmt_bits << 1)
            | (layer.temporal_id << 3)
            | (u8::from(layer.tag) << 4),
    );
    out.push(qp);
    out.extend_from_slice(&(width as u16).to_le_bytes());
    out.extend_from_slice(&(height as u16).to_le_bytes());
    out.push(n as u8);
    for &len in payload_lens {
        out.extend_from_slice(&(len as u32).to_le_bytes());
    }
    out
}

/// Parsed frame header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    pub frame_type: FrameType,
    pub layer: Layer,
    pub format: PixelFormat,
    pub qp: u8,
    pub width: usize,
    pub height: usize,
    /// Byte length of each slice payload, in slice order.
    pub payload_lens: Vec<usize>,
}

/// Parse and validate a frame header against the actual buffer length.
/// Every inconsistency maps to a [`DecodeError`]; nothing here (or later in
/// the slice decode) can panic on corrupt input.
pub(crate) fn parse_header(data: &[u8]) -> Result<FrameHeader, DecodeError> {
    if data.first() != Some(&SLICED_MAGIC) {
        return Err(DecodeError::BadMagic);
    }
    if data.len() < FIXED_HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let (frame_type, format, layer) = parse_flags(data[1])?;
    let qp = data[2];
    if qp > quant::QP_MAX {
        return Err(DecodeError::BadHeader);
    }
    let width = u16::from_le_bytes([data[3], data[4]]) as usize;
    let height = u16::from_le_bytes([data[5], data[6]]) as usize;
    if width == 0 || height == 0 || (width as u64) * (height as u64) > MAX_DECODE_PIXELS {
        return Err(DecodeError::BadHeader);
    }
    let mb_rows = height.div_ceil(MB_SIZE);
    let n = data[7] as usize;
    if n == 0 || n > mb_rows {
        return Err(DecodeError::BadSliceTable);
    }
    let total_header = header_len(n);
    if data.len() < total_header {
        return Err(DecodeError::Truncated);
    }
    let mut payload_lens = Vec::with_capacity(n);
    let mut total = total_header as u64;
    for i in 0..n {
        let off = FIXED_HEADER_LEN + 4 * i;
        let len = u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]);
        // A finished range-coder stream is never shorter than its 5 flush
        // bytes, so smaller entries can only come from corruption.
        if len < 5 {
            return Err(DecodeError::BadSliceTable);
        }
        payload_lens.push(len as usize);
        total += len as u64;
    }
    match (data.len() as u64).cmp(&total) {
        std::cmp::Ordering::Less => Err(DecodeError::Truncated),
        // Trailing bytes mean the offsets are inconsistent with the buffer.
        std::cmp::Ordering::Greater => Err(DecodeError::BadSliceTable),
        std::cmp::Ordering::Equal => Ok(FrameHeader {
            frame_type,
            layer,
            format,
            qp,
            width,
            height,
            payload_lens,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_rows_contiguously() {
        for (h, n) in [(128usize, 2usize), (115, 3), (720, 8), (17, 2), (16, 1)] {
            let slices = partition(PixelFormat::Yuv420, h, n);
            assert_eq!(slices.len(), n);
            let ch = h.div_ceil(2);
            assert_eq!(slices[0].y0, 0);
            assert_eq!(slices[0].c0, 0);
            assert_eq!(slices[n - 1].y1, h);
            assert_eq!(slices[n - 1].c1, ch);
            for w in slices.windows(2) {
                assert_eq!(w[0].y1, w[1].y0, "luma rows contiguous");
                assert_eq!(w[0].c1, w[1].c0, "chroma rows contiguous");
                assert_eq!(w[0].mb1, w[1].mb0);
            }
            for s in &slices {
                assert!(s.mb1 > s.mb0, "no empty slice");
                assert_eq!(s.y0, s.mb0 * MB_SIZE);
                // Interior slice boundaries sit on macroblock rows, so
                // 8x8 blocks never straddle a slice.
                if s.y1 != h {
                    assert_eq!(s.y1 % MB_SIZE, 0);
                }
            }
        }
    }

    #[test]
    fn partition_is_independent_of_anything_but_height_and_count() {
        let a = partition(PixelFormat::Yuv420, 240, 4);
        let b = partition(PixelFormat::Yuv420, 240, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn auto_slice_count_scales_with_height() {
        assert_eq!(slice_count(0, 64), 1, "4 MB rows are one slice");
        assert_eq!(slice_count(0, 128), 2);
        assert_eq!(slice_count(0, 512), 8);
        assert_eq!(slice_count(0, 4096), 8, "capped at 8");
        assert_eq!(slice_count(3, 64), 3, "explicit count wins");
        assert_eq!(slice_count(200, 64), 4, "clamped to MB rows");
    }

    #[test]
    fn header_round_trips() {
        let lens = [64usize, 1000, 5];
        let layer = Layer {
            temporal_id: 1,
            tag: true,
        };
        let h = write_header(
            FrameType::Inter,
            layer,
            PixelFormat::Y16,
            17,
            320,
            240,
            &lens,
        );
        assert_eq!(h.len(), header_len(3));
        // Pad to the advertised total so parse sees a consistent buffer.
        let mut buf = h.clone();
        buf.resize(header_len(3) + lens.iter().sum::<usize>(), 0);
        let parsed = parse_header(&buf).unwrap();
        assert_eq!(parsed.frame_type, FrameType::Inter);
        assert_eq!(parsed.layer, layer);
        assert_eq!(peek_layer(&buf), Some((FrameType::Inter, layer)));
        assert_eq!(parsed.format, PixelFormat::Y16);
        assert_eq!(parsed.qp, 17);
        assert_eq!((parsed.width, parsed.height), (320, 240));
        assert_eq!(parsed.payload_lens, lens);
    }

    #[test]
    fn corrupt_headers_map_to_errors_not_panics() {
        let lens = [64usize, 64];
        let good = {
            let mut b = write_header(
                FrameType::Intra,
                Layer::default(),
                PixelFormat::Yuv420,
                10,
                64,
                64,
                &lens,
            );
            b.resize(header_len(2) + 128, 0);
            b
        };
        assert!(parse_header(&good).is_ok());

        // Truncation anywhere below the advertised total.
        for cut in [0, 1, 7, header_len(2), good.len() - 1] {
            assert!(
                matches!(
                    parse_header(&good[..cut]),
                    Err(DecodeError::Truncated | DecodeError::BadMagic)
                ),
                "cut={cut}"
            );
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0xFF);
        assert_eq!(parse_header(&long), Err(DecodeError::BadSliceTable));
        // Zero / oversized slice count.
        let mut zero = good.clone();
        zero[7] = 0;
        assert_eq!(parse_header(&zero), Err(DecodeError::BadSliceTable));
        let mut many = good.clone();
        many[7] = 200; // 64px high frame has 4 MB rows
        assert_eq!(parse_header(&many), Err(DecodeError::BadSliceTable));
        // Inconsistent slice length.
        let mut bad_len = good.clone();
        bad_len[8] = 0xFF;
        assert!(parse_header(&bad_len).is_err());
        // Zero dimensions and absurd dimensions.
        let mut dim = good.clone();
        dim[3] = 0;
        dim[4] = 0;
        assert_eq!(parse_header(&dim), Err(DecodeError::BadHeader));
        let mut huge = good.clone();
        huge[3] = 0xFF;
        huge[4] = 0xFF;
        huge[5] = 0xFF;
        huge[6] = 0xFF;
        assert_eq!(parse_header(&huge), Err(DecodeError::BadHeader));
        // Every value of the flags byte either parses to its (inter,
        // format, temporal id, tag) or is a bad header: format codes 2 and
        // 3 are unknown, an intra is never T1, and bits 5-7 are reserved.
        // Bits 3-5 carried meaning in retired revisions of the format; 3
        // and 4 are the temporal id and tag now, and 5 is still rejected.
        for flags in 0..=255u8 {
            let mut flag = good.clone();
            flag[1] = flags;
            let valid = flags < 0b10_0000 && (flags >> 1) & 0b11 < 2 && flags & 0b1001 != 0b1000;
            match parse_header(&flag) {
                Ok(h) => {
                    assert!(valid, "flags {flags:#010b} must be rejected");
                    assert_eq!(h.frame_type == FrameType::Inter, flags & 1 == 1);
                    let format = [PixelFormat::Yuv420, PixelFormat::Y16][(flags >> 1) as usize & 1];
                    assert_eq!(h.format, format);
                    assert_eq!(h.layer.temporal_id, (flags >> 3) & 1);
                    assert_eq!(h.layer.tag, flags & 0b1_0000 != 0);
                    assert_eq!(peek_layer(&flag), Some((h.frame_type, h.layer)));
                }
                Err(e) => {
                    assert!(!valid, "flags {flags:#010b} must parse");
                    assert_eq!(e, DecodeError::BadHeader, "flags {flags:#010b}");
                    assert_eq!(peek_layer(&flag), None);
                }
            }
        }
        // QP beyond the codec's range.
        let mut qp = good.clone();
        qp[2] = 120;
        assert_eq!(parse_header(&qp), Err(DecodeError::BadHeader));
        // Not the frame magic (0x00 opened every frame of the retired v1
        // container).
        let mut magic = good;
        magic[0] = 0x00;
        assert_eq!(parse_header(&magic), Err(DecodeError::BadMagic));
    }

    /// Whole-plane DC predictor: the mean of the reconstructed row above and
    /// column left of the block (whichever exist), else mid-range. The
    /// oracle for [`intra_dc_pred_stripe`] on a stripe covering the plane.
    fn intra_dc_pred(recon: &crate::plane::Plane, bx: usize, by: usize, peak: u16) -> i32 {
        let mut acc = 0u64;
        let mut n = 0u64;
        if by > 0 {
            for dx in 0..8 {
                let x = (bx + dx).min(recon.width - 1);
                acc += recon.get(x, by - 1) as u64;
                n += 1;
            }
        }
        if bx > 0 {
            for dy in 0..8 {
                let y = (by + dy).min(recon.height - 1);
                acc += recon.get(bx - 1, y) as u64;
                n += 1;
            }
        }
        match acc.checked_div(n) {
            Some(mean) => mean as i32,
            None => (peak as i32 + 1) / 2,
        }
    }

    #[test]
    fn stripe_dc_pred_matches_full_plane_at_y0_zero() {
        use crate::plane::Plane;
        let mut p = Plane::new(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                p.set(x, y, ((x * 7 + y * 13) % 256) as u16);
            }
        }
        for by in (0..24).step_by(8) {
            for bx in (0..24).step_by(8) {
                assert_eq!(
                    intra_dc_pred_stripe(&p.data, 24, 0, bx, by, 255),
                    intra_dc_pred(&p, bx, by, 255),
                    "({bx},{by})"
                );
            }
        }
    }

    #[test]
    fn split_plane_rows_partitions_exactly() {
        let mut data: Vec<u16> = (0..6 * 4).map(|i| i as u16).collect();
        let stripes = split_plane_rows(&mut data, 4, &[(0, 2), (2, 5), (5, 6)]);
        assert_eq!(stripes.len(), 3);
        assert_eq!(stripes[0].len(), 8);
        assert_eq!(stripes[1].len(), 12);
        assert_eq!(stripes[2].len(), 4);
        assert_eq!(stripes[1][0], 8);
        assert_eq!(stripes[2][3], 23);
    }
}
