//! Depth encoding: scaling 16-bit depth to fill the coding range.
//!
//! Kinect-class cameras output millimetre depth up to ~6 m, using only
//! 0–6000 of the 16-bit range. Quantisation in the video codec erases
//! low-order precision; scaling the values by ~10.9× first means a given
//! quantisation step lands *between* distinct depths instead of merging
//! them (§3.2 of the paper; Fig. A.1 shows the artefacts without scaling).
//!
//! [`DepthEncoding`] also provides the two baselines of Fig. 17: unscaled
//! Y16, and the colour-channel encoding of Pece et al. (coarse depth in
//! luma, quadrature triangle waves of the fine phase in the chroma
//! channels), which suffers 8-bit quantisation and chroma subsampling.

use livo_codec2d::{Frame, PixelFormat};
use livo_math::round_clamp;

/// Which depth-to-video mapping to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepthEncoding {
    /// LiVo's: scale to fill 16 bits, encode as Y16.
    ScaledY16,
    /// Baseline: raw millimetres in Y16 (wastes most of the range).
    RawY16,
    /// Baseline: depth packed into an 8-bit YUV 4:2:0 frame à la Pece et
    /// al. — coarse depth in Y, quadrature triangle waves of the fine
    /// phase in U and V.
    RgbPacked,
}

/// Scaler between sensor depth (mm) and coded samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCodec {
    /// Sensor maximum range in millimetres (Kinect-class: 6000).
    pub max_depth_mm: u16,
    pub encoding: DepthEncoding,
}

impl Default for DepthCodec {
    fn default() -> Self {
        DepthCodec {
            max_depth_mm: 6000,
            encoding: DepthEncoding::ScaledY16,
        }
    }
}

impl DepthCodec {
    pub fn new(max_depth_mm: u16, encoding: DepthEncoding) -> Self {
        assert!(max_depth_mm > 0);
        DepthCodec {
            max_depth_mm,
            encoding,
        }
    }

    /// The scale factor applied to depth values.
    pub fn scale(&self) -> f32 {
        match self.encoding {
            DepthEncoding::ScaledY16 => u16::MAX as f32 / self.max_depth_mm as f32,
            DepthEncoding::RawY16 | DepthEncoding::RgbPacked => 1.0,
        }
    }

    /// Pixel format of the depth canvas stream: RGB-packed depth rides an
    /// 8-bit colour frame, the other two encodings a Y16 one.
    pub(crate) fn pixel_format(&self) -> PixelFormat {
        match self.encoding {
            DepthEncoding::RgbPacked => PixelFormat::Yuv420,
            DepthEncoding::ScaledY16 | DepthEncoding::RawY16 => PixelFormat::Y16,
        }
    }

    /// Map one sensor sample to a coded sample (Y16 modes).
    #[inline]
    pub fn encode_sample(&self, depth_mm: u16) -> u16 {
        let mut coded = 0;
        self.encode_row(&[depth_mm], std::slice::from_mut(&mut coded));
        coded
    }

    /// [`DepthCodec::encode_sample`] over a row of samples, with the
    /// encoding looked at and the scale divided out once, not per sample.
    #[inline]
    pub fn encode_row(&self, depth_mm: &[u16], coded: &mut [u16]) {
        assert_eq!(depth_mm.len(), coded.len());
        match self.encoding {
            DepthEncoding::ScaledY16 => {
                let (max, scale) = (self.max_depth_mm, self.scale());
                for (c, &d) in coded.iter_mut().zip(depth_mm) {
                    *c = round_clamp(d.min(max) as f32 * scale, u16::MAX);
                }
            }
            DepthEncoding::RawY16 | DepthEncoding::RgbPacked => coded.copy_from_slice(depth_mm),
        }
    }

    /// Map one coded sample back to millimetres.
    #[inline]
    pub fn decode_sample(&self, coded: u16) -> u16 {
        let mut depth_mm = 0;
        self.decode_row(&[coded], std::slice::from_mut(&mut depth_mm));
        depth_mm
    }

    /// [`DepthCodec::decode_sample`] over a row of samples, the mirror of
    /// [`DepthCodec::encode_row`].
    #[inline]
    pub fn decode_row(&self, coded: &[u16], depth_mm: &mut [u16]) {
        assert_eq!(coded.len(), depth_mm.len());
        match self.encoding {
            DepthEncoding::ScaledY16 => {
                let scale = self.scale();
                for (d, &c) in depth_mm.iter_mut().zip(coded) {
                    *d = round_clamp(c as f32 / scale, u16::MAX);
                }
            }
            DepthEncoding::RawY16 | DepthEncoding::RgbPacked => depth_mm.copy_from_slice(coded),
        }
    }

    /// Pack a depth image into an 8-bit YUV 4:2:0 frame (RgbPacked mode),
    /// following Pece et al.: depth normalised to [0,1) goes coarsely into
    /// the Y channel; U and V carry two quadrature triangle waves of the
    /// fine phase (`PERIODS` per range), so chroma refines luma. Zero depth
    /// (no return) maps to the all-zero pixel.
    pub(crate) fn pack_rgb(&self, depth_mm: &[u16], w: usize, h: usize) -> Frame {
        assert_eq!(depth_mm.len(), w * h);
        let mut f = Frame::new(PixelFormat::Yuv420, w, h);
        // Full-resolution phase maps, then box-filtered into 4:2:0 chroma.
        let mut ha = vec![0.0f32; w * h];
        let mut hb = vec![0.0f32; w * h];
        for (i, &d) in depth_mm.iter().enumerate() {
            if d == 0 {
                continue;
            }
            let wn = d.min(self.max_depth_mm) as f32 / (self.max_depth_mm as f32 + 1.0);
            let phase = wn * PERIODS;
            ha[i] = tri(phase);
            hb[i] = tri(phase - 0.25);
            let (x, y) = (i % w, i / w);
            f.planes[0].set(x, y, (wn * 255.0).round().clamp(1.0, 255.0) as u16);
        }
        let (cw, ch) = PixelFormat::Yuv420.plane_dims(1, w, h);
        for cy in 0..ch {
            for cx in 0..cw {
                let mut asum = 0.0;
                let mut bsum = 0.0;
                let mut n = 0.0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let x = (cx * 2 + dx).min(w - 1);
                        let y = (cy * 2 + dy).min(h - 1);
                        asum += ha[y * w + x];
                        bsum += hb[y * w + x];
                        n += 1.0;
                    }
                }
                f.planes[1].set(cx, cy, (asum / n * 255.0).round() as u16);
                f.planes[2].set(cx, cy, (bsum / n * 255.0).round() as u16);
            }
        }
        f
    }

    /// Inverse of [`DepthCodec::pack_rgb`] on a decoded frame.
    pub(crate) fn unpack_rgb(&self, frame: &Frame) -> Vec<u16> {
        assert_eq!(frame.format, PixelFormat::Yuv420);
        let (w, h) = (frame.width, frame.height);
        let mut out = vec![0u16; w * h];
        for y in 0..h {
            for x in 0..w {
                let ych = frame.planes[0].get(x, y);
                if ych == 0 {
                    continue;
                }
                let coarse = ych as f32 / 255.0;
                let a = frame.planes[1].get(x / 2, y / 2) as f32 / 255.0;
                let b = frame.planes[2].get(x / 2, y / 2) as f32 / 255.0;
                // Two phase candidates from the primary triangle; the
                // quadrature wave disambiguates.
                let p1 = a / 2.0;
                let p2 = 1.0 - a / 2.0;
                let err = |p: f32| (tri(p - 0.25) - b).abs();
                let phase = if err(p1) <= err(p2) { p1 } else { p2 };
                let k = (coarse * PERIODS - phase).round();
                let wn = ((k + phase) / PERIODS).clamp(0.0, 1.0);
                out[y * w + x] = (wn * (self.max_depth_mm as f32 + 1.0)).round() as u16;
            }
        }
        out
    }

    /// Depth RMSE in millimetres between a composed depth canvas and what a
    /// decoder makes of it — the splitter's depth error (§3.3). Y16 canvases
    /// are compared sample by sample over the whole canvas; RGB-packed ones
    /// are unpacked first and compared where the truth has a return.
    pub(crate) fn rmse_mm(&self, canvas: &Frame, decoded: &Frame) -> f64 {
        if self.encoding == DepthEncoding::RgbPacked {
            return depth_mse_mm(&self.unpack_rgb(canvas), &self.unpack_rgb(decoded)).sqrt();
        }
        let a = &canvas.planes[0].data;
        let b = &decoded.planes[0].data;
        let scale = self.scale() as f64;
        let mse = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| {
                let d = (x as f64 - y as f64) / scale;
                d * d
            })
            .sum::<f64>()
            / a.len().max(1) as f64;
        mse.sqrt()
    }
}

/// Triangle waves per depth range in the Pece-style packing.
const PERIODS: f32 = 8.0;

/// Triangle wave in [0,1]: 0 at integer phase, 1 at half-integer phase.
#[inline]
fn tri(x: f32) -> f32 {
    let f = x - x.floor();
    if f < 0.5 {
        2.0 * f
    } else {
        2.0 - 2.0 * f
    }
}

/// Mean-squared depth error in mm² between a ground-truth depth image and a
/// decoded one (ignoring no-return pixels in the ground truth).
pub fn depth_mse_mm(truth: &[u16], decoded: &[u16]) -> f64 {
    assert_eq!(truth.len(), decoded.len());
    let mut acc = 0.0f64;
    let mut n = 0u64;
    for (&t, &d) in truth.iter().zip(decoded) {
        if t == 0 {
            continue;
        }
        let e = t as f64 - d as f64;
        acc += e * e;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_codec2d::{Encoder, EncoderConfig};

    #[test]
    fn scaled_round_trip_is_within_1mm() {
        let c = DepthCodec::default();
        for d in [0u16, 1, 100, 2500, 5999, 6000] {
            let back = c.decode_sample(c.encode_sample(d));
            assert!((back as i32 - d as i32).abs() <= 1, "{d} → {back}");
        }
    }

    #[test]
    fn scaled_clamps_beyond_max_range() {
        let c = DepthCodec::default();
        assert_eq!(c.encode_sample(9000), u16::MAX);
    }

    #[test]
    fn scale_fills_the_range() {
        let c = DepthCodec::default();
        assert_eq!(c.encode_sample(0), 0);
        assert_eq!(c.encode_sample(6000), u16::MAX);
        assert!((c.scale() - 10.922).abs() < 0.01);
    }

    #[test]
    fn raw_mode_is_identity() {
        let c = DepthCodec::new(6000, DepthEncoding::RawY16);
        for d in [0u16, 777, 6000, 40000] {
            assert_eq!(c.encode_sample(d), d);
            assert_eq!(c.decode_sample(d), d);
        }
    }

    #[test]
    fn rgb_packing_round_trips_closely_before_coding() {
        let c = DepthCodec::new(6000, DepthEncoding::RgbPacked);
        let (w, h) = (16, 16);
        // A gently sloped depth field (~5 mm/pixel). Steeper gradients make
        // the packed low byte cycle faster than chroma can carry — which is
        // the encoding's real weakness, shown in the Fig. 17 test below.
        let depth: Vec<u16> = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                (2000.0 + 40.0 * ((x as f32) * 0.15).sin() + 30.0 * ((y as f32) * 0.12).cos())
                    as u16
            })
            .collect();
        let f = c.pack_rgb(&depth, w, h);
        let back = c.unpack_rgb(&f);
        // YUV 4:2:0 conversion already costs accuracy — exactly the paper's
        // objection to RGB-packed depth — but smooth fields stay bounded.
        let rmse = depth_mse_mm(&depth, &back).sqrt();
        assert!(rmse < 50.0, "pre-coding RGB pack rmse {rmse} mm");
    }

    #[test]
    fn fig17_ordering_scaled_beats_raw_beats_rgb() {
        // The paper's Fig. 17: scaled Y16 < raw Y16 < RGB-packed, in depth
        // error after encode/decode at the same bit budget.
        let (w, h) = (96, 96);
        let depth: Vec<u16> = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                let v = 2200.0
                    + 1100.0 * ((x as f32) * 0.08).sin()
                    + 800.0 * ((y as f32) * 0.06).cos()
                    + if x > w / 2 { 900.0 } else { 0.0 };
                v as u16
            })
            .collect();
        // Bandwidth-constrained regime — the setting the paper cares about
        // (at very generous rates all encodings converge).
        let budget = 10_000u64;

        let run_y16 = |codec: DepthCodec| {
            let samples: Vec<u16> = depth.iter().map(|&d| codec.encode_sample(d)).collect();
            let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Y16));
            let out = enc.encode(&Frame::from_y16(w, h, samples), budget);
            let decoded: Vec<u16> = out.reconstruction.planes[0]
                .data
                .iter()
                .map(|&s| codec.decode_sample(s))
                .collect();
            depth_mse_mm(&depth, &decoded)
        };
        let scaled = run_y16(DepthCodec::default());
        let raw = run_y16(DepthCodec::new(6000, DepthEncoding::RawY16));

        let rgb_codec = DepthCodec::new(6000, DepthEncoding::RgbPacked);
        let packed = rgb_codec.pack_rgb(&depth, w, h);
        let mut enc = Encoder::new(EncoderConfig::new(w, h, PixelFormat::Yuv420));
        let out = enc.encode(&packed, budget);
        let rgb = depth_mse_mm(&depth, &rgb_codec.unpack_rgb(&out.reconstruction));

        assert!(scaled < raw, "scaled {scaled} !< raw {raw}");
        assert!(raw < rgb, "raw {raw} !< rgb-packed {rgb}");
    }

    #[test]
    fn rmse_mm_reads_coded_samples_in_millimetres() {
        let (w, h) = (16, 8);
        let mm: Vec<u16> = (0..w * h).map(|i| 1000 + 20 * i as u16).collect();
        for encoding in [DepthEncoding::ScaledY16, DepthEncoding::RawY16] {
            let codec = DepthCodec::new(6000, encoding);
            let coded: Vec<u16> = mm.iter().map(|&d| codec.encode_sample(d)).collect();
            let far: Vec<u16> = mm.iter().map(|&d| codec.encode_sample(d + 30)).collect();
            let canvas = Frame::from_y16(w, h, coded);
            assert_eq!(codec.rmse_mm(&canvas, &canvas), 0.0);
            // 30 mm everywhere, to within the rounding of a coded sample.
            let rmse = codec.rmse_mm(&canvas, &Frame::from_y16(w, h, far));
            assert!((rmse - 30.0).abs() < 0.1, "{encoding:?}: {rmse}");
        }
        // RGB-packed canvases are compared after unpacking, where the truth
        // has a return.
        let codec = DepthCodec::new(6000, DepthEncoding::RgbPacked);
        let mut holes = mm.clone();
        holes[..w].fill(0);
        let (a, b) = (codec.pack_rgb(&holes, w, h), codec.pack_rgb(&mm, w, h));
        assert_eq!(codec.rmse_mm(&a, &a), 0.0);
        let want = depth_mse_mm(&codec.unpack_rgb(&a), &codec.unpack_rgb(&b)).sqrt();
        assert_eq!(codec.rmse_mm(&a, &b), want);
        assert!(
            codec.rmse_mm(&b, &a) > want,
            "the holes count where the truth has depth"
        );
    }

    #[test]
    fn depth_mse_ignores_no_return() {
        let truth = vec![0u16, 1000, 2000];
        let decoded = vec![500u16, 1010, 1990];
        let mse = depth_mse_mm(&truth, &decoded);
        assert!((mse - 100.0).abs() < 1e-9);
    }
}
