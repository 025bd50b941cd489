//! Sample planes and video frames.

use livo_math::{round_clamp, LANES};

/// A rectangular plane of samples. Samples are stored as `u16` regardless of
/// bit depth so 8-bit colour and 16-bit depth share one code path; the
/// format's [`PixelFormat::peak_value`] bounds the valid range.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    pub width: usize,
    pub height: usize,
    pub data: Vec<u16>,
}

impl Plane {
    pub fn new(width: usize, height: usize) -> Self {
        Plane {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    pub fn from_data(width: usize, height: usize, data: Vec<u16>) -> Self {
        assert_eq!(data.len(), width * height, "plane data size mismatch");
        Plane {
            width,
            height,
            data,
        }
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u16 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u16) {
        self.data[y * self.width + x] = v;
    }

    /// Clamped fetch: coordinates outside the plane read the nearest edge
    /// sample (used by motion compensation at frame borders).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u16 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Copy an 8×8 block starting at `(bx, by)` into `out`, edge-clamped.
    pub fn read_block8(&self, bx: usize, by: usize, out: &mut [i32; 64]) {
        self.read_block8_at(bx as isize, by as isize, out);
    }

    /// Copy the 8×8 block whose first sample is `(x, y)` into `out`; samples
    /// outside the plane read the nearest edge sample, as a displaced
    /// prediction block does. A block wholly inside is eight row slices,
    /// any other the clamped fetch sample by sample — the same values.
    pub fn read_block8_at(&self, x: isize, y: isize, out: &mut [i32; 64]) {
        if x >= 0 && y >= 0 && x as usize + 8 <= self.width && y as usize + 8 <= self.height {
            let first = y as usize * self.width + x as usize;
            for (dy, row) in out.chunks_exact_mut(8).enumerate() {
                let src = &self.data[first + dy * self.width..][..8];
                for (o, s) in row.iter_mut().zip(src) {
                    *o = *s as i32;
                }
            }
            return;
        }
        for dy in 0..8 {
            for dx in 0..8 {
                out[dy * 8 + dx] = self.get_clamped(x + dx as isize, y + dy as isize) as i32;
            }
        }
    }

    /// Write an 8×8 block at `(bx, by)`, clamping each sample to
    /// `[0, peak]` and skipping out-of-bounds pixels (for non-multiple-of-8
    /// dimensions).
    pub fn write_block8(&mut self, bx: usize, by: usize, block: &[i32; 64], peak: u16) {
        for dy in 0..8 {
            let y = by + dy;
            if y >= self.height {
                break;
            }
            for dx in 0..8 {
                let x = bx + dx;
                if x >= self.width {
                    break;
                }
                self.data[y * self.width + x] = block[dy * 8 + dx].clamp(0, peak as i32) as u16;
            }
        }
    }

    /// Mean absolute difference to another plane (same dimensions).
    /// See also [`write_block8_into_stripe`] for writing into a borrowed
    /// horizontal stripe of a plane's rows.
    pub fn mad(&self, o: &Plane) -> f64 {
        assert_eq!((self.width, self.height), (o.width, o.height));
        // 65 535 differences of at most 65 535 each still fit a `u32`, and
        // a `u32` sum of `u16` differences vectorises where one `i64` per
        // sample does not. The integer total is the same either way.
        const RUN: usize = u16::MAX as usize;
        let sum: u64 = self
            .data
            .chunks(RUN)
            .zip(o.data.chunks(RUN))
            .map(|(a, b)| {
                let run: u32 = a.iter().zip(b).map(|(a, b)| a.abs_diff(*b) as u32).sum();
                run as u64
            })
            .sum();
        sum as f64 / self.data.len() as f64
    }
}

/// Write an 8×8 block into a horizontal stripe of plane rows, as handed out
/// by `data.chunks_mut(width * stripe_height)`. `stripe` holds plane rows
/// `[y0, y0 + stripe.len() / width)`; `(bx, by)` are whole-plane coordinates.
/// Semantics match [`Plane::write_block8`]: samples clamp to `[0, peak]` and
/// pixels outside the plane (here: outside the stripe) are skipped, so the
/// partial last stripe of a non-multiple-of-stripe-height plane behaves like
/// the plane's bottom edge. A block wholly inside the stripe is written row
/// slice by row slice; the sample-by-sample loop is the edge fallback.
pub fn write_block8_into_stripe(
    stripe: &mut [u16],
    width: usize,
    y0: usize,
    bx: usize,
    by: usize,
    block: &[i32; 64],
    peak: u16,
) {
    let rows = stripe.len() / width;
    let peak = peak as i32;
    if by >= y0 && by + 8 <= y0 + rows && bx + 8 <= width {
        // Wholly inside the stripe: eight row slices, nothing to skip.
        for (dy, src) in block.chunks_exact(8).enumerate() {
            let dst = &mut stripe[(by - y0 + dy) * width + bx..][..8];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = (*s).clamp(0, peak) as u16;
            }
        }
        return;
    }
    for dy in 0..8 {
        let y = by + dy;
        if y < y0 {
            continue;
        }
        if y >= y0 + rows {
            break;
        }
        for dx in 0..8 {
            let x = bx + dx;
            if x >= width {
                break;
            }
            stripe[(y - y0) * width + x] = block[dy * 8 + dx].clamp(0, peak) as u16;
        }
    }
}

/// Pixel format of a [`Frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// 8-bit 4:2:0: planes `[Y(w×h), U(w/2×h/2), V(w/2×h/2)]`. Used for the
    /// tiled colour stream.
    Yuv420,
    /// 16-bit luma only: plane `[Y16(w×h)]`. Mirrors the `Y444_16LE` H.265
    /// mode LiVo uses for the depth stream (§3.2); the constant-valued U/V
    /// channels of the real stream carry no information, so they are not
    /// stored.
    Y16,
}

impl PixelFormat {
    /// Maximum sample value.
    pub fn peak_value(self) -> u16 {
        match self {
            PixelFormat::Yuv420 => 255,
            PixelFormat::Y16 => u16::MAX,
        }
    }

    /// Number of planes.
    pub fn num_planes(self) -> usize {
        match self {
            PixelFormat::Yuv420 => 3,
            PixelFormat::Y16 => 1,
        }
    }

    /// Dimensions of plane `i` for a `width`×`height` frame.
    pub fn plane_dims(self, i: usize, width: usize, height: usize) -> (usize, usize) {
        match (self, i) {
            (PixelFormat::Yuv420, 0) | (PixelFormat::Y16, 0) => (width, height),
            (PixelFormat::Yuv420, 1 | 2) => (width.div_ceil(2), height.div_ceil(2)),
            _ => panic!("plane index {i} out of range for {self:?}"),
        }
    }
}

/// A video frame: one or more sample planes in a given format.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub format: PixelFormat,
    pub width: usize,
    pub height: usize,
    pub planes: Vec<Plane>,
}

impl Frame {
    /// An all-zero frame.
    pub fn new(format: PixelFormat, width: usize, height: usize) -> Self {
        let planes = (0..format.num_planes())
            .map(|i| {
                let (w, h) = format.plane_dims(i, width, height);
                Plane::new(w, h)
            })
            .collect();
        Frame {
            format,
            width,
            height,
            planes,
        }
    }

    /// Build a YUV 4:2:0 frame from packed RGB8 data (`len = w*h*3`),
    /// BT.601 full-range.
    pub fn from_rgb8(width: usize, height: usize, rgb: &[u8]) -> Self {
        assert_eq!(rgb.len(), width * height * 3);
        Frame::from_rgb8_rows(width, height, |y, row| {
            row.copy_from_slice(&rgb[y * width * 3..][..width * 3]);
        })
    }

    /// [`Frame::from_rgb8`] over an image that exists only row by row:
    /// `fill_row(y, row)` writes the packed RGB8 of image row `y` into
    /// `row` (`width * 3` bytes, holding an earlier row's bytes on entry).
    /// Rows are asked for once each, top to bottom, so a caller that tiles
    /// several sources into one picture needs no full-size RGB copy of it.
    pub fn from_rgb8_rows(
        width: usize,
        height: usize,
        mut fill_row: impl FnMut(usize, &mut [u8]),
    ) -> Self {
        let mut f = Frame::new(PixelFormat::Yuv420, width, height);
        let [luma, u_plane, v_plane] = &mut f.planes[..] else {
            unreachable!("a Yuv420 frame has three planes");
        };
        let cw = u_plane.width;
        // One chroma row at a time: the two image rows its quads cover.
        let mut pair = vec![0u8; 2 * width * 3];
        let (top, bottom) = pair.split_at_mut(width * 3);
        for cy in 0..u_plane.height {
            let y0 = cy * 2;
            fill_row(y0, top);
            write_luma_row(&mut luma.data[y0 * width..][..width], top);
            if y0 + 1 < height {
                fill_row(y0 + 1, bottom);
                write_luma_row(&mut luma.data[(y0 + 1) * width..][..width], bottom);
            } else {
                // Odd height: the last quad row reads the edge row twice.
                bottom.copy_from_slice(top);
            }
            write_chroma_row(
                &mut u_plane.data[cy * cw..][..cw],
                &mut v_plane.data[cy * cw..][..cw],
                top,
                bottom,
            );
        }
        f
    }

    /// Convert back to packed RGB8 (BT.601 full-range, chroma upsampled by
    /// nearest neighbour).
    pub fn to_rgb8(&self) -> Vec<u8> {
        assert_eq!(self.format, PixelFormat::Yuv420, "to_rgb8 needs YUV");
        let mut out = vec![0u8; self.width * self.height * 3];
        for y in 0..self.height {
            for x in 0..self.width {
                let i = (y * self.width + x) * 3;
                out[i..i + 3].copy_from_slice(&self.rgb_at(x, y));
            }
        }
        out
    }

    /// RGB8 of the one pixel `(x, y)` of a YUV 4:2:0 frame; its chroma
    /// sample is the one at `(x / 2, y / 2)`.
    #[inline]
    pub fn rgb_at(&self, x: usize, y: usize) -> [u8; 3] {
        yuv_to_rgb8(
            self.planes[0].get(x, y),
            self.planes[1].get(x / 2, y / 2),
            self.planes[2].get(x / 2, y / 2),
        )
    }

    /// Build a 16-bit luma frame from raw `u16` samples.
    pub fn from_y16(width: usize, height: usize, samples: Vec<u16>) -> Self {
        Frame {
            format: PixelFormat::Y16,
            width,
            height,
            planes: vec![Plane::from_data(width, height, samples)],
        }
    }

    /// Total sample count across planes.
    pub fn sample_count(&self) -> usize {
        self.planes.iter().map(|p| p.data.len()).sum()
    }
}

/// One 8-bit YUV sample triple to RGB8, BT.601 full-range: the inverse
/// conversion every reader of a [`PixelFormat::Yuv420`] frame shares.
#[inline]
pub fn yuv_to_rgb8(luma: u16, u: u16, v: u16) -> [u8; 3] {
    let luma = luma as f32;
    let u = u as f32 - 128.0;
    let v = v as f32 - 128.0;
    let r = luma + 1.402 * v;
    let g = luma - 0.344_136 * u - 0.714_136 * v;
    let b = luma + 1.772 * u;
    [
        round_clamp(r, 255) as u8,
        round_clamp(g, 255) as u8,
        round_clamp(b, 255) as u8,
    ]
}

/// A chunk of black RGB8 pixels. Tiled canvases are black between slots
/// and wherever the sender culled, so the conversion steps over whole
/// chunks of it: black luma is 0 and a black quad's chroma exactly 128.
const BLACK: [u8; 3 * LANES] = [0; 3 * LANES];

/// BT.601 full-range luma of one packed RGB8 row, into a zeroed luma row.
fn write_luma_row(luma: &mut [u16], rgb: &[u8]) {
    let y = |px: &[u8]| {
        let (r, g, b) = (px[0] as f32, px[1] as f32, px[2] as f32);
        round_clamp(0.299 * r + 0.587 * g + 0.114 * b, 255)
    };
    let mut chunks = luma.chunks_exact_mut(LANES);
    let mut px = rgb.chunks_exact(3 * LANES);
    for (l, px) in (&mut chunks).zip(&mut px) {
        if px != BLACK {
            for (l, px) in l.iter_mut().zip(px.chunks_exact(3)) {
                *l = y(px);
            }
        }
    }
    let tail = chunks.into_remainder().iter_mut();
    for (l, px) in tail.zip(px.remainder().chunks_exact(3)) {
        *l = y(px);
    }
}

/// What one RGB8 pixel adds to its quad's U and V sums.
#[inline(always)]
fn chroma_terms(px: &[u8]) -> (f32, f32) {
    let (r, g, b) = (px[0] as f32, px[1] as f32, px[2] as f32);
    (
        -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0,
        0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0,
    )
}

/// One row of U and V samples from the two packed RGB8 rows its 2×2 quads
/// cover, each quad averaged top-left, top-right, bottom-left,
/// bottom-right (odd width: the last quad reads the edge column twice).
/// The sums start at the first term where a running sum would start at
/// +0.0: `0.0 + t` is `t` for any `t` but −0.0, and a term is at least 0.5.
fn write_chroma_row(u_row: &mut [u16], v_row: &mut [u16], top: &[u8], bottom: &[u8]) {
    let width = top.len() / 3;
    let whole = width / LANES;
    for c in 0..whole {
        let (t, b) = (
            &top[c * 3 * LANES..][..3 * LANES],
            &bottom[c * 3 * LANES..][..3 * LANES],
        );
        let u_out = &mut u_row[c * LANES / 2..][..LANES / 2];
        let v_out = &mut v_row[c * LANES / 2..][..LANES / 2];
        if t == BLACK && b == BLACK {
            u_out.fill(128);
            v_out.fill(128);
            continue;
        }
        let (mut tu, mut tv, mut bu, mut bv) =
            ([0f32; LANES], [0f32; LANES], [0f32; LANES], [0f32; LANES]);
        for i in 0..LANES {
            (tu[i], tv[i]) = chroma_terms(&t[3 * i..]);
            (bu[i], bv[i]) = chroma_terms(&b[3 * i..]);
        }
        for q in 0..LANES / 2 {
            let (l, r) = (2 * q, 2 * q + 1);
            u_out[q] = round_clamp((tu[l] + tu[r] + bu[l] + bu[r]) / 4.0, 255);
            v_out[q] = round_clamp((tv[l] + tv[r] + bv[l] + bv[r]) / 4.0, 255);
        }
    }
    for cx in whole * LANES / 2..u_row.len() {
        let (x0, x1) = (cx * 2 * 3, (cx * 2 + 1).min(width - 1) * 3);
        let [a, b, c, d] = [&top[x0..], &top[x1..], &bottom[x0..], &bottom[x1..]].map(chroma_terms);
        u_row[cx] = round_clamp((a.0 + b.0 + c.0 + d.0) / 4.0, 255);
        v_row[cx] = round_clamp((a.1 + b.1 + c.1 + d.1) / 4.0, 255);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_get_set_round_trip() {
        let mut p = Plane::new(4, 3);
        p.set(2, 1, 777);
        assert_eq!(p.get(2, 1), 777);
        assert_eq!(p.get(0, 0), 0);
    }

    #[test]
    fn clamped_fetch_at_borders() {
        let mut p = Plane::new(2, 2);
        p.set(0, 0, 1);
        p.set(1, 0, 2);
        p.set(0, 1, 3);
        p.set(1, 1, 4);
        assert_eq!(p.get_clamped(-5, -5), 1);
        assert_eq!(p.get_clamped(10, -1), 2);
        assert_eq!(p.get_clamped(-1, 10), 3);
        assert_eq!(p.get_clamped(10, 10), 4);
    }

    #[test]
    fn block_read_write_round_trip() {
        let mut p = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, (x * 16 + y) as u16);
            }
        }
        let mut blk = [0i32; 64];
        p.read_block8(8, 8, &mut blk);
        let mut q = Plane::new(16, 16);
        q.write_block8(8, 8, &blk, u16::MAX);
        for dy in 0..8 {
            for dx in 0..8 {
                assert_eq!(q.get(8 + dx, 8 + dy), p.get(8 + dx, 8 + dy));
            }
        }
    }

    #[test]
    fn write_block_clamps_to_peak() {
        let mut p = Plane::new(8, 8);
        let blk = [300i32; 64];
        p.write_block8(0, 0, &blk, 255);
        assert_eq!(p.get(0, 0), 255);
        let neg = [-5i32; 64];
        p.write_block8(0, 0, &neg, 255);
        assert_eq!(p.get(0, 0), 0);
    }

    #[test]
    fn write_block_partial_at_edges() {
        let mut p = Plane::new(10, 10);
        let blk = [7i32; 64];
        p.write_block8(8, 8, &blk, 255); // only 2×2 in bounds
        assert_eq!(p.get(9, 9), 7);
        assert_eq!(p.get(7, 7), 0);
    }

    #[test]
    fn yuv420_plane_dims() {
        let f = Frame::new(PixelFormat::Yuv420, 9, 7);
        assert_eq!((f.planes[0].width, f.planes[0].height), (9, 7));
        assert_eq!((f.planes[1].width, f.planes[1].height), (5, 4));
        assert_eq!(f.sample_count(), 63 + 20 + 20);
    }

    #[test]
    fn rgb_yuv_round_trip_is_close() {
        // Smooth gradient survives 4:2:0 with small error.
        let (w, h) = (16, 16);
        let mut rgb = vec![0u8; w * h * 3];
        for y in 0..h {
            for x in 0..w {
                let i = (y * w + x) * 3;
                rgb[i] = (x * 16) as u8;
                rgb[i + 1] = (y * 16) as u8;
                rgb[i + 2] = 128;
            }
        }
        let f = Frame::from_rgb8(w, h, &rgb);
        let back = f.to_rgb8();
        let max_err = rgb
            .iter()
            .zip(&back)
            .map(|(a, b)| (*a as i32 - *b as i32).abs())
            .max()
            .unwrap();
        assert!(max_err <= 12, "max channel error {max_err}");
    }

    /// `from_rgb8` as first written: luma per pixel, then each chroma
    /// sample from the four edge-clamped pixels of its quad.
    fn from_rgb8_oracle(width: usize, height: usize, rgb: &[u8]) -> Frame {
        let mut f = Frame::new(PixelFormat::Yuv420, width, height);
        for y in 0..height {
            for x in 0..width {
                let i = (y * width + x) * 3;
                let (r, g, b) = (rgb[i] as f32, rgb[i + 1] as f32, rgb[i + 2] as f32);
                let luma = 0.299 * r + 0.587 * g + 0.114 * b;
                f.planes[0].set(x, y, luma.round().clamp(0.0, 255.0) as u16);
            }
        }
        let (cw, ch) = PixelFormat::Yuv420.plane_dims(1, width, height);
        for cy in 0..ch {
            for cx in 0..cw {
                let mut usum = 0.0f32;
                let mut vsum = 0.0f32;
                let mut n = 0.0f32;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let x = (cx * 2 + dx).min(width - 1);
                        let y = (cy * 2 + dy).min(height - 1);
                        let i = (y * width + x) * 3;
                        let (r, g, b) = (rgb[i] as f32, rgb[i + 1] as f32, rgb[i + 2] as f32);
                        usum += -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
                        vsum += 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
                        n += 1.0;
                    }
                }
                f.planes[1].set(cx, cy, (usum / n).round().clamp(0.0, 255.0) as u16);
                f.planes[2].set(cx, cy, (vsum / n).round().clamp(0.0, 255.0) as u16);
            }
        }
        f
    }

    /// Xorshift noise with runs of black pixels through it, so quads come
    /// all black, part black and not black at all.
    fn noisy_rgb(w: usize, h: usize) -> Vec<u8> {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        };
        let mut rgb = vec![0u8; w * h * 3];
        for (i, px) in rgb.chunks_exact_mut(3).enumerate() {
            if (i / 3) % 3 != 1 {
                px.fill_with(&mut next);
            }
        }
        rgb
    }

    #[test]
    fn from_rgb8_is_byte_identical_to_the_per_pixel_construction() {
        // Odd sizes exercise the clamped last quad column and row.
        for (w, h) in [(16, 16), (9, 7), (1, 1), (2, 5), (13, 2)] {
            let rgb = noisy_rgb(w, h);
            assert_eq!(
                Frame::from_rgb8(w, h, &rgb),
                from_rgb8_oracle(w, h, &rgb),
                "{w}x{h}"
            );
        }
    }

    #[test]
    fn rgb_at_and_to_rgb8_keep_the_whole_frame_conversion() {
        // Odd size: the last column and row share their chroma sample with
        // no neighbour.
        let (w, h) = (9, 7);
        let f = Frame::from_rgb8(w, h, &noisy_rgb(w, h));
        let all = f.to_rgb8();
        for y in 0..h {
            for x in 0..w {
                let luma = f.planes[0].get(x, y) as f32;
                let u = f.planes[1].get(x / 2, y / 2) as f32 - 128.0;
                let v = f.planes[2].get(x / 2, y / 2) as f32 - 128.0;
                let want = [
                    (luma + 1.402 * v).round().clamp(0.0, 255.0) as u8,
                    (luma - 0.344_136 * u - 0.714_136 * v)
                        .round()
                        .clamp(0.0, 255.0) as u8,
                    (luma + 1.772 * u).round().clamp(0.0, 255.0) as u8,
                ];
                let i = (y * w + x) * 3;
                assert_eq!(f.rgb_at(x, y), want, "({x}, {y})");
                assert_eq!(all[i..i + 3], want, "({x}, {y})");
            }
        }
    }

    #[test]
    fn gray_rgb_preserves_luma_exactly() {
        let (w, h) = (8, 8);
        let rgb: Vec<u8> = (0..w * h).flat_map(|i| [(i * 4) as u8; 3]).collect();
        let f = Frame::from_rgb8(w, h, &rgb);
        for y in 0..h {
            for x in 0..w {
                let expect = ((y * w + x) * 4) as u16;
                let got = f.planes[0].get(x, y);
                assert!((got as i32 - expect as i32).abs() <= 1);
            }
        }
    }

    #[test]
    fn y16_frame_holds_full_range() {
        let f = Frame::from_y16(2, 2, vec![0, 1000, 40000, u16::MAX]);
        assert_eq!(f.planes[0].get(1, 1), u16::MAX);
        assert_eq!(f.format.peak_value(), u16::MAX);
    }

    /// `mad` as first written: one `i64` difference per sample.
    fn mad_oracle(a: &Plane, b: &Plane) -> f64 {
        let sum: u64 = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(a, b)| (*a as i64 - *b as i64).unsigned_abs())
            .sum();
        sum as f64 / a.data.len() as f64
    }

    #[test]
    fn mad_is_bit_equal_to_the_per_sample_sum() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u16
        };
        for (w, h) in [(480, 296), (50, 38), (1, 1), (7, 3)] {
            let a = Plane::from_data(w, h, (0..w * h).map(|_| next()).collect());
            let b = Plane::from_data(w, h, (0..w * h).map(|_| next()).collect());
            assert_eq!(a.mad(&b).to_bits(), mad_oracle(&a, &b).to_bits(), "{w}x{h}");
            assert_eq!(b.mad(&a).to_bits(), mad_oracle(&a, &b).to_bits(), "{w}x{h}");
        }
        // Every difference at the peak, over runs of exactly the longest
        // length a `u32` total holds, one sample less and one more.
        for w in [65_534usize, 65_535, 65_536] {
            let peak = Plane::from_data(w, 3, vec![u16::MAX; w * 3]);
            let zero = Plane::new(w, 3);
            assert_eq!(peak.mad(&zero), 65_535.0, "width {w}");
            assert_eq!(
                peak.mad(&zero).to_bits(),
                mad_oracle(&peak, &zero).to_bits(),
                "width {w}"
            );
        }
    }

    #[test]
    fn mad_of_identical_planes_is_zero() {
        let p = Plane::from_data(2, 2, vec![5, 6, 7, 8]);
        assert_eq!(p.mad(&p), 0.0);
        let q = Plane::from_data(2, 2, vec![6, 6, 7, 8]);
        assert_eq!(p.mad(&q), 0.25);
    }
}
