//! Stream composition: tiling N camera images into two canvas streams.
//!
//! §3.2 of the paper: multiplexing all 2N images onto one stream defeats
//! inter prediction, and one stream per image needs 2N encoders (hardware
//! caps at ~8). LiVo instead tiles the N colour images into one 4K canvas
//! and the N depth images into another, with *fixed slot assignment* so
//! macroblocks keep their location frame to frame.
//!
//! WebRTC cannot carry frame numbers in-band, so the paper embeds a QR code
//! in each canvas (§A.1). We embed the 32-bit frame sequence number as a
//! strip of solid 8×8 blocks (one bit per block) — like the QR code, solid
//! blocks survive any realistic quantisation, and the receiver recovers the
//! number by thresholding block means against mid-range.

use livo_capture::RgbdFrame;
use livo_codec2d::{Frame, PixelFormat, Plane};

use crate::depth::{DepthCodec, DepthEncoding};

/// Bits in the embedded sequence number.
pub const SEQ_BITS: usize = 32;

/// Header rows needed for a canvas of the given width: 8-pixel-tall bit
/// blocks, wrapped over as many block rows as the width requires.
pub fn header_rows_for(canvas_w: usize) -> usize {
    let bits_per_row = (canvas_w / 8).max(1);
    SEQ_BITS.div_ceil(bits_per_row) * 8
}

/// Fixed tile layout: `n` slots of `cam_w × cam_h` arranged in a grid on a
/// canvas, plus the header strip on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLayout {
    pub cam_w: usize,
    pub cam_h: usize,
    pub cols: usize,
    pub rows: usize,
    pub n: usize,
    /// Height of the sequence-number header strip at the top of the canvas.
    pub header_rows: usize,
    /// Canvas dimensions (multiple of 8, includes the header strip).
    pub canvas_w: usize,
    pub canvas_h: usize,
}

impl TileLayout {
    /// Layout for `n` cameras of `cam_w × cam_h`, packed as square-ish grid.
    /// The canvas is sized to fit (the paper's 4K canvas fits 10 Kinects;
    /// at reduced evaluation scale the canvas shrinks proportionally).
    pub fn new(cam_w: usize, cam_h: usize, n: usize) -> TileLayout {
        assert!(n > 0);
        // Choose the column count that keeps the canvas aspect near 16:9.
        let mut best = (1usize, usize::MAX);
        for cols in 1..=n {
            let rows = n.div_ceil(cols);
            let w = cols * cam_w;
            let h = rows * cam_h + header_rows_for(w);
            let aspect = w as f64 / h as f64;
            let score = ((aspect - 16.0 / 9.0).abs() * 1e6) as usize;
            if score < best.1 {
                best = (cols, score);
            }
        }
        let cols = best.0;
        let rows = n.div_ceil(cols);
        // Round the canvas up to multiples of 8 for clean block coding.
        let canvas_w = (cols * cam_w).div_ceil(8) * 8;
        let header_rows = header_rows_for(canvas_w);
        let canvas_h = (rows * cam_h + header_rows).div_ceil(8) * 8;
        TileLayout {
            cam_w,
            cam_h,
            cols,
            rows,
            n,
            header_rows,
            canvas_w,
            canvas_h,
        }
    }

    /// Top-left pixel of camera `i`'s slot.
    pub fn slot_origin(&self, i: usize) -> (usize, usize) {
        assert!(i < self.n, "slot {i} out of range");
        let col = i % self.cols;
        let row = i / self.cols;
        (col * self.cam_w, self.header_rows + row * self.cam_h)
    }

    /// Total pixels in the canvas.
    pub fn canvas_pixels(&self) -> usize {
        self.canvas_w * self.canvas_h
    }
}

/// Write the 32-bit sequence number into the header strip of a plane.
pub fn write_seq(plane: &mut Plane, seq: u32, peak: u16) {
    let bits_per_row = (plane.width / 8).max(1);
    for bit in 0..SEQ_BITS {
        let value = if (seq >> (SEQ_BITS - 1 - bit)) & 1 == 1 {
            peak
        } else {
            0
        };
        let (brow, bcol) = (bit / bits_per_row, bit % bits_per_row);
        for y in 0..8 {
            for x in 0..8 {
                plane.set(bcol * 8 + x, brow * 8 + y, value);
            }
        }
    }
}

/// Recover the sequence number from a (possibly distorted) header strip.
/// Total on any plane: a bit block that does not lie wholly inside it (a
/// decoded frame smaller than the strip) reads as a 0 bit.
pub fn read_seq(plane: &Plane, peak: u16) -> u32 {
    let bits_per_row = (plane.width / 8).max(1);
    let mut seq = 0u32;
    let mid = peak as u64 / 2;
    for bit in 0..SEQ_BITS {
        let (brow, bcol) = (bit / bits_per_row, bit % bits_per_row);
        if bcol * 8 + 8 > plane.width || brow * 8 + 8 > plane.height {
            continue;
        }
        let mut acc = 0u64;
        for y in 0..8 {
            let row = &plane.data[(brow * 8 + y) * plane.width + bcol * 8..][..8];
            acc += row.iter().map(|&s| s as u64).sum::<u64>();
        }
        let mean = acc / 64;
        if mean > mid {
            seq |= 1 << (SEQ_BITS - 1 - bit);
        }
    }
    seq
}

/// Compose the colour canvas (YUV 4:2:0) from per-camera RGB-D frames.
/// Colour is already at depth resolution (§3.2: LiVo downsamples colour to
/// match depth before tiling; our renderer outputs that directly).
///
/// The canvas is black outside the slots, and chroma quads are taken in
/// canvas coordinates: with an odd `cam_w` or `cam_h` a quad straddles two
/// slots, or a slot and the padding.
pub fn compose_color(views: &[RgbdFrame], layout: &TileLayout, seq: u32) -> Frame {
    assert_eq!(views.len(), layout.n);
    for (i, v) in views.iter().enumerate() {
        assert_eq!(
            (v.width, v.height),
            (layout.cam_w, layout.cam_h),
            "camera {i} size"
        );
    }
    let row_bytes = layout.cam_w * 3;
    let mut f = Frame::from_rgb8_rows(layout.canvas_w, layout.canvas_h, |y, row| {
        row.fill(0);
        if y < layout.header_rows {
            return;
        }
        // Canvas row `y` is image row `vy` of the views in this slot row
        // (none below the last one).
        let slot_row = (y - layout.header_rows) / layout.cam_h;
        let vy = (y - layout.header_rows) % layout.cam_h;
        let in_row = views.iter().skip(slot_row * layout.cols).take(layout.cols);
        for (v, dst) in in_row.zip(row.chunks_exact_mut(row_bytes)) {
            dst.copy_from_slice(&v.rgb[vy * row_bytes..][..row_bytes]);
        }
    });
    write_seq(&mut f.planes[0], seq, 255);
    f
}

/// Compose the depth canvas in the depth codec's encoding: scaled or raw
/// millimetres as Y16, or — for [`DepthEncoding::RgbPacked`] — the tiled
/// millimetres packed into an 8-bit YUV 4:2:0 frame.
pub fn compose_depth(
    views: &[RgbdFrame],
    layout: &TileLayout,
    codec: &DepthCodec,
    seq: u32,
) -> Frame {
    assert_eq!(views.len(), layout.n);
    let mut f = Frame::new(PixelFormat::Y16, layout.canvas_w, layout.canvas_h);
    let samples = &mut f.planes[0].data;
    for (i, v) in views.iter().enumerate() {
        let (ox, oy) = layout.slot_origin(i);
        for y in 0..v.height {
            let src = &v.depth_mm[y * v.width..][..v.width];
            let dst = &mut samples[(oy + y) * layout.canvas_w + ox..][..v.width];
            codec.encode_row(src, dst);
        }
    }
    if codec.encoding == DepthEncoding::RgbPacked {
        f = codec.pack_rgb(&f.planes[0].data, layout.canvas_w, layout.canvas_h);
    }
    write_seq(&mut f.planes[0], seq, f.format.peak_value());
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_codec2d::{Encoder, EncoderConfig};

    /// Extract camera `i`'s depth image (millimetres) from a decoded depth
    /// canvas.
    fn extract_depth(frame: &Frame, layout: &TileLayout, codec: &DepthCodec, i: usize) -> Vec<u16> {
        assert_eq!(frame.format, PixelFormat::Y16);
        let (ox, oy) = layout.slot_origin(i);
        let mut out = vec![0u16; layout.cam_w * layout.cam_h];
        let plane = &frame.planes[0];
        for y in 0..layout.cam_h {
            for x in 0..layout.cam_w {
                out[y * layout.cam_w + x] = codec.decode_sample(plane.get(ox + x, oy + y));
            }
        }
        out
    }

    /// Extract camera `i`'s RGB image from a decoded colour canvas.
    fn extract_color(frame: &Frame, layout: &TileLayout, i: usize) -> Vec<u8> {
        assert_eq!(frame.format, PixelFormat::Yuv420);
        let (ox, oy) = layout.slot_origin(i);
        let mut out = Vec::with_capacity(layout.cam_w * layout.cam_h * 3);
        for y in 0..layout.cam_h {
            for x in 0..layout.cam_w {
                out.extend_from_slice(&frame.rgb_at(ox + x, oy + y));
            }
        }
        out
    }

    fn mk_views(n: usize, w: usize, h: usize) -> Vec<RgbdFrame> {
        (0..n)
            .map(|i| {
                let mut f = RgbdFrame::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let p = y * w + x;
                        f.depth_mm[p] = (1000 + i * 300 + x * 2 + y) as u16;
                        f.rgb[p * 3] = (i * 37 + x) as u8;
                        f.rgb[p * 3 + 1] = (y * 2) as u8;
                        f.rgb[p * 3 + 2] = 200;
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn layout_fits_all_slots() {
        for n in [1usize, 2, 4, 7, 10, 16] {
            let l = TileLayout::new(64, 56, n);
            assert!(l.cols * l.rows >= n, "n={n}");
            for i in 0..n {
                let (x, y) = l.slot_origin(i);
                assert!(x + l.cam_w <= l.canvas_w, "slot {i} overflows width");
                assert!(y + l.cam_h <= l.canvas_h, "slot {i} overflows height");
                assert!(y >= l.header_rows, "slot {i} collides with header");
            }
        }
    }

    #[test]
    fn slots_do_not_overlap() {
        let l = TileLayout::new(64, 56, 10);
        let mut covered = vec![false; l.canvas_w * l.canvas_h];
        for i in 0..10 {
            let (ox, oy) = l.slot_origin(i);
            for y in 0..l.cam_h {
                for x in 0..l.cam_w {
                    let p = (oy + y) * l.canvas_w + ox + x;
                    assert!(!covered[p], "overlap at slot {i}");
                    covered[p] = true;
                }
            }
        }
    }

    #[test]
    fn paper_scale_layout_is_4k_class() {
        // 10 Kinect-class cameras at full 640×576: the canvas should land in
        // the 4K neighbourhood the paper describes.
        let l = TileLayout::new(640, 576, 10);
        assert!(l.canvas_w <= 3840 && l.canvas_h <= 2168, "{l:?}");
        assert!(l.canvas_pixels() >= 10 * 640 * 576);
    }

    #[test]
    fn seq_round_trips_clean() {
        let l = TileLayout::new(64, 56, 4);
        let views = mk_views(4, 64, 56);
        for seq in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            let f = compose_color(&views, &l, seq);
            assert_eq!(read_seq(&f.planes[0], 255), seq);
            let d = compose_depth(&views, &l, &DepthCodec::default(), seq);
            assert_eq!(read_seq(&d.planes[0], u16::MAX), seq);
        }
    }

    #[test]
    fn seq_survives_heavy_compression() {
        let l = TileLayout::new(64, 56, 4);
        let views = mk_views(4, 64, 56);
        let seq = 0x1234_5678;
        let f = compose_color(&views, &l, seq);
        let mut enc = Encoder::new(EncoderConfig::new(
            l.canvas_w,
            l.canvas_h,
            PixelFormat::Yuv420,
        ));
        // Brutal target: ~2 kbit for the whole canvas.
        let out = enc.encode(&f, 2_000);
        assert_eq!(read_seq(&out.reconstruction.planes[0], 255), seq);
    }

    #[test]
    fn color_round_trip_through_tiling() {
        let l = TileLayout::new(64, 56, 4);
        let views = mk_views(4, 64, 56);
        let f = compose_color(&views, &l, 7);
        for (i, view) in views.iter().enumerate() {
            let got = extract_color(&f, &l, i);
            // 4:2:0 chroma costs a little; compare channel-wise loosely.
            let mut max_err = 0i32;
            for (a, b) in got.iter().zip(&view.rgb) {
                max_err = max_err.max((*a as i32 - *b as i32).abs());
            }
            assert!(max_err <= 16, "camera {i}: max error {max_err}");
        }
    }

    /// Views with every depth and colour byte drawn from a xorshift
    /// stream, zero depths included.
    fn noisy_views(n: usize, w: usize, h: usize) -> Vec<RgbdFrame> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u32
        };
        (0..n)
            .map(|_| {
                let mut f = RgbdFrame::new(w, h);
                for d in &mut f.depth_mm {
                    *d = if next() % 5 == 0 {
                        0
                    } else {
                        (next() % 7000) as u16
                    };
                }
                for c in &mut f.rgb {
                    *c = next() as u8;
                }
                f
            })
            .collect()
    }

    /// The canvases as first composed: a full RGB (or sample) scratch
    /// canvas with every view copied into its slot, converted as a whole.
    fn scratch_canvases(
        views: &[RgbdFrame],
        l: &TileLayout,
        codec: &DepthCodec,
        seq: u32,
    ) -> (Frame, Frame) {
        let mut rgb = vec![0u8; l.canvas_w * l.canvas_h * 3];
        let mut samples = vec![0u16; l.canvas_w * l.canvas_h];
        for (i, v) in views.iter().enumerate() {
            let (ox, oy) = l.slot_origin(i);
            for y in 0..v.height {
                for x in 0..v.width {
                    let dst = (oy + y) * l.canvas_w + ox + x;
                    rgb[dst * 3..dst * 3 + 3].copy_from_slice(&v.rgb_at(x, y));
                    samples[dst] = codec.encode_sample(v.depth_at(x, y));
                }
            }
        }
        let mut color = Frame::from_rgb8(l.canvas_w, l.canvas_h, &rgb);
        write_seq(&mut color.planes[0], seq, 255);
        let mut depth = Frame::from_y16(l.canvas_w, l.canvas_h, samples);
        write_seq(&mut depth.planes[0], seq, u16::MAX);
        (color, depth)
    }

    #[test]
    fn composed_canvases_are_byte_identical_to_the_scratch_canvas_construction() {
        // Odd camera sizes put slot origins on odd columns and rows, so
        // chroma quads straddle two slots or a slot and the black padding;
        // 5 and 7 cameras leave the last slot row part empty.
        for (w, h, n) in [
            (64, 56, 4),
            (45, 37, 4),
            (45, 37, 5),
            (33, 21, 7),
            (7, 9, 2),
        ] {
            let l = TileLayout::new(w, h, n);
            let views = noisy_views(n, w, h);
            for encoding in [
                crate::DepthEncoding::ScaledY16,
                crate::DepthEncoding::RawY16,
            ] {
                let codec = DepthCodec::new(6000, encoding);
                let (color, depth) = scratch_canvases(&views, &l, &codec, 0xA5A5_0FF0);
                assert_eq!(compose_color(&views, &l, 0xA5A5_0FF0), color, "{l:?}");
                assert_eq!(
                    compose_depth(&views, &l, &codec, 0xA5A5_0FF0),
                    depth,
                    "{l:?} {encoding:?}"
                );
            }
        }
    }

    #[test]
    fn extract_color_is_the_slot_window_of_the_whole_canvas_conversion() {
        let l = TileLayout::new(45, 37, 5);
        let f = compose_color(&noisy_views(5, 45, 37), &l, 1);
        let whole = f.to_rgb8();
        for i in 0..5 {
            let (ox, oy) = l.slot_origin(i);
            let got = extract_color(&f, &l, i);
            for y in 0..l.cam_h {
                let src = ((oy + y) * l.canvas_w + ox) * 3;
                assert_eq!(
                    got[y * l.cam_w * 3..][..l.cam_w * 3],
                    whole[src..src + l.cam_w * 3],
                    "camera {i} row {y}"
                );
            }
        }
    }

    #[test]
    fn depth_round_trip_through_tiling_is_near_exact() {
        let l = TileLayout::new(64, 56, 4);
        let views = mk_views(4, 64, 56);
        let codec = DepthCodec::default();
        let d = compose_depth(&views, &l, &codec, 9);
        for (i, view) in views.iter().enumerate() {
            let got = extract_depth(&d, &l, &codec, i);
            for (a, b) in got.iter().zip(&view.depth_mm) {
                assert!(
                    (*a as i32 - *b as i32).abs() <= 1,
                    "camera {i}: {a} vs {b} (scaling quantisation ≤ 1 mm)"
                );
            }
        }
    }

    #[test]
    fn zero_depth_stays_zero_through_tiling() {
        let l = TileLayout::new(64, 56, 1);
        let mut views = mk_views(1, 64, 56);
        views[0].depth_mm[100] = 0;
        let codec = DepthCodec::default();
        let d = compose_depth(&views, &l, &codec, 0);
        let got = extract_depth(&d, &l, &codec, 0);
        assert_eq!(got[100], 0, "no-return pixels must survive as no-return");
    }
}
