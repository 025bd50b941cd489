//! Octree geometry + Morton-order colour coding.

use livo_codec2d::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use livo_math::Vec3;
use livo_pointcloud::{Point, PointCloud};
use std::collections::HashMap;

/// Bits per position axis (Draco's quantisation parameter). Practical range
/// for metre-scale scenes at millimetre resolution is ≤ 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantBits(pub u8);

impl QuantBits {
    pub(crate) const MIN: u8 = 1;
    pub(crate) const MAX: u8 = 16;
}

/// Encoder parameters: the two knobs Draco exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DracoParams {
    pub quant_bits: QuantBits,
    /// 0–9. Levels ≥ 4 use adaptive occupancy contexts (smaller, slower);
    /// lower levels write raw occupancy bytes (larger, faster).
    pub level: u8,
    /// Colour bits per channel (Draco's attribute quantisation), 1–8.
    pub color_bits: u8,
}

impl Default for DracoParams {
    fn default() -> Self {
        DracoParams {
            quant_bits: QuantBits(11),
            level: 7,
            color_bits: 8,
        }
    }
}

/// An encoded point cloud.
#[derive(Debug, Clone)]
pub struct EncodedCloud {
    pub data: Vec<u8>,
    pub params: DracoParams,
    /// Number of occupied cells actually coded (after quantisation merge).
    pub points_coded: usize,
    /// Modelled encode latency on the paper's testbed, in milliseconds.
    pub modeled_encode_ms: f64,
}

impl EncodedCloud {
    pub fn bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }
}

const MAGIC: u32 = 0xD4;

/// Interleave the low `bits` bits of x, y, z into a Morton code.
fn morton(x: u32, y: u32, z: u32, bits: u8) -> u64 {
    let mut m = 0u64;
    for b in 0..bits {
        m |= ((x >> b & 1) as u64) << (3 * b)
            | ((y >> b & 1) as u64) << (3 * b + 1)
            | ((z >> b & 1) as u64) << (3 * b + 2);
    }
    m
}

/// The stateless encoder.
pub struct DracoEncoder;

impl DracoEncoder {
    /// Encode a cloud. Returns `None` for an empty cloud.
    pub fn encode(cloud: &PointCloud, params: DracoParams) -> Option<EncodedCloud> {
        assert!((1..=8).contains(&params.color_bits), "color bits 1–8");
        assert!(params.level <= 9, "level 0–9");
        let (lo, hi) = cloud.bounds()?;
        let bits = params.quant_bits.0;
        let cells = 1u32 << bits;
        let extent = (hi - lo).max_element().max(1e-6);
        let inv = cells as f32 / extent;

        // Quantise and merge duplicate cells (averaging colour).
        let mut occupied: HashMap<u64, ([u32; 3], [u32; 3], u32)> = HashMap::new();
        for p in &cloud.points {
            let q = |v: f32, l: f32| (((v - l) * inv) as u32).min(cells - 1);
            let (ix, iy, iz) = (
                q(p.position.x, lo.x),
                q(p.position.y, lo.y),
                q(p.position.z, lo.z),
            );
            let key = morton(ix, iy, iz, bits);
            let e = occupied.entry(key).or_insert(([ix, iy, iz], [0, 0, 0], 0));
            for c in 0..3 {
                e.1[c] += p.color[c] as u32;
            }
            e.2 += 1;
        }
        let mut cells_sorted: Vec<(u64, [u32; 3], [u8; 3])> = occupied
            .into_iter()
            .map(|(key, (idx, csum, n))| {
                (
                    key,
                    idx,
                    [
                        (csum[0] / n) as u8,
                        (csum[1] / n) as u8,
                        (csum[2] / n) as u8,
                    ],
                )
            })
            .collect();
        cells_sorted.sort_unstable_by_key(|&(key, _, _)| key);

        let mut enc = RangeEncoder::new();
        enc.encode_bits(MAGIC, 8);
        enc.encode_bits(bits as u32, 5);
        enc.encode_bits(params.level as u32, 4);
        enc.encode_bits(params.color_bits as u32, 4);
        // Bounding box (f32 bit patterns).
        for v in [lo.x, lo.y, lo.z, extent] {
            enc.encode_bits(v.to_bits(), 32);
        }
        enc.encode_bits(cells_sorted.len() as u32, 32);

        // Octree occupancy, depth-first over the Morton-sorted cells. Each
        // node covers a contiguous range of the sorted array; its occupancy
        // byte says which of the 8 children are non-empty.
        let adaptive = params.level >= 4;
        let mut occ_models = vec![BitModel::new(); 8 * bits as usize];
        struct Walk<'a> {
            enc: &'a mut RangeEncoder,
            cells: &'a [(u64, [u32; 3], [u8; 3])],
            bits: u8,
            adaptive: bool,
            occ_models: &'a mut [BitModel],
        }
        impl Walk<'_> {
            /// Code the subtree covering `range` at `depth` (0 = root).
            fn node(&mut self, range: std::ops::Range<usize>, depth: u8) {
                if depth == self.bits {
                    return; // leaf
                }
                let shift = 3 * (self.bits - 1 - depth) as u64;
                // Partition the range by 3-bit child index at this depth.
                let mut bounds = [range.start; 9];
                let mut pos = range.start;
                for child in 0..8u64 {
                    while pos < range.end && (self.cells[pos].0 >> shift) & 7 == child {
                        pos += 1;
                    }
                    bounds[child as usize + 1] = pos;
                }
                // Emit occupancy bits.
                for child in 0..8usize {
                    let occupied = bounds[child + 1] > bounds[child];
                    if self.adaptive {
                        let ctx = depth as usize * 8 + child;
                        self.enc.encode_bit(&mut self.occ_models[ctx], occupied);
                    } else {
                        self.enc.encode_bypass(occupied);
                    }
                }
                for child in 0..8usize {
                    if bounds[child + 1] > bounds[child] {
                        self.node(bounds[child]..bounds[child + 1], depth + 1);
                    }
                }
            }
        }
        Walk {
            enc: &mut enc,
            cells: &cells_sorted,
            bits,
            adaptive,
            occ_models: &mut occ_models,
        }
        .node(0..cells_sorted.len(), 0);

        // Colours: delta-coded per channel in Morton order.
        let cshift = 8 - params.color_bits;
        let mut prev = [0i32; 3];
        for (_, _, color) in &cells_sorted {
            for c in 0..3 {
                let q = (color[c] >> cshift) as i32;
                livo_codec2d::block::encode_svalue(&mut enc, q - prev[c]);
                prev[c] = q;
            }
        }

        let points_coded = cells_sorted.len();
        let data = enc.finish();
        let modeled_encode_ms =
            crate::timing::encode_time_ms(cloud.len(), params.level, params.quant_bits);
        Some(EncodedCloud {
            data,
            params,
            points_coded,
            modeled_encode_ms,
        })
    }
}

/// The stateless decoder.
pub struct DracoDecoder;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadStream(pub &'static str);

impl std::fmt::Display for BadStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt draco stream: {}", self.0)
    }
}

impl std::error::Error for BadStream {}

impl DracoDecoder {
    pub fn decode(data: &[u8]) -> Result<PointCloud, BadStream> {
        let mut dec = RangeDecoder::new(data);
        if dec.decode_bits(8) != MAGIC {
            return Err(BadStream("magic"));
        }
        let bits = dec.decode_bits(5) as u8;
        if !(QuantBits::MIN..=QuantBits::MAX).contains(&bits) {
            return Err(BadStream("quant bits"));
        }
        let level = dec.decode_bits(4) as u8;
        let color_bits = dec.decode_bits(4) as u8;
        if level > 9 || !(1..=8).contains(&color_bits) {
            return Err(BadStream("params"));
        }
        let lo = Vec3::new(
            f32::from_bits(dec.decode_bits(32)),
            f32::from_bits(dec.decode_bits(32)),
            f32::from_bits(dec.decode_bits(32)),
        );
        let extent = f32::from_bits(dec.decode_bits(32));
        if !lo.is_finite() || !extent.is_finite() || extent <= 0.0 {
            return Err(BadStream("bbox"));
        }
        let n = dec.decode_bits(32) as usize;
        // Every point costs at least its three colour deltas of one bit
        // each; a count the stream cannot hold must not size an allocation.
        if n > data.len() * 8 / 3 {
            return Err(BadStream("point count"));
        }

        // Rebuild occupancy depth-first, collecting leaf Morton codes in
        // order (the same order the encoder walked).
        let adaptive = level >= 4;
        let mut occ_models = vec![BitModel::new(); 8 * bits as usize];
        let mut leaves: Vec<u64> = Vec::with_capacity(n);
        struct Walk<'d, 'a> {
            dec: &'a mut RangeDecoder<'d>,
            bits: u8,
            adaptive: bool,
            occ_models: &'a mut [BitModel],
            leaves: &'a mut Vec<u64>,
            budget: usize,
        }
        impl Walk<'_, '_> {
            fn node(&mut self, prefix: u64, depth: u8) -> Result<(), BadStream> {
                if self.leaves.len() > self.budget {
                    return Err(BadStream("too many leaves"));
                }
                if depth == self.bits {
                    self.leaves.push(prefix);
                    return Ok(());
                }
                let mut mask = [false; 8];
                for (child, m) in mask.iter_mut().enumerate() {
                    *m = if self.adaptive {
                        let ctx = depth as usize * 8 + child;
                        self.dec.decode_bit(&mut self.occ_models[ctx])
                    } else {
                        self.dec.decode_bypass()
                    };
                }
                if depth == 0 && !mask.iter().any(|&m| m) && self.budget > 0 {
                    return Err(BadStream("empty root"));
                }
                for (child, &m) in mask.iter().enumerate() {
                    if m {
                        self.node((prefix << 3) | child as u64, depth + 1)?;
                    }
                }
                Ok(())
            }
        }
        if n > 0 {
            Walk {
                dec: &mut dec,
                bits,
                adaptive,
                occ_models: &mut occ_models,
                leaves: &mut leaves,
                budget: n,
            }
            .node(0, 0)?;
        }
        if leaves.len() != n {
            return Err(BadStream("leaf count"));
        }

        // Colours.
        let cshift = 8 - color_bits;
        let mut prev = [0i32; 3];
        let cells = 1u32 << bits;
        let cell_size = extent / cells as f32;
        let mut out = PointCloud::with_capacity(n);
        for &leaf in &leaves {
            let mut color = [0u8; 3];
            for c in 0..3 {
                // Wraps on a corrupt stream's deltas; the clamp below bounds it.
                let q = prev[c].wrapping_add(livo_codec2d::block::decode_svalue(&mut dec));
                prev[c] = q;
                let q = q.clamp(0, (1 << color_bits) - 1) as u32;
                // Mid-rise reconstruction of the quantised channel.
                let rec = if color_bits == 8 {
                    q
                } else {
                    (q << cshift) + (1 << (cshift - 1)).min(255)
                };
                color[c] = rec.min(255) as u8;
            }
            // De-interleave the Morton code. The walk built `prefix` by
            // pushing the *most significant* 3-bit groups first, so leaf bit
            // group (bits-1-b) holds axis bits b.
            let mut ix = 0u32;
            let mut iy = 0u32;
            let mut iz = 0u32;
            for b in 0..bits {
                let grp = (leaf >> (3 * b as u64)) & 7;
                ix |= ((grp & 1) as u32) << b;
                iy |= (((grp >> 1) & 1) as u32) << b;
                iz |= (((grp >> 2) & 1) as u32) << b;
            }
            let pos = Vec3::new(
                lo.x + (ix as f32 + 0.5) * cell_size,
                lo.y + (iy as f32 + 0.5) * cell_size,
                lo.z + (iz as f32 + 0.5) * cell_size,
            );
            out.push(Point::new(pos, color));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::rng::SplitMix64;

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    Vec3::new(
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(0.0..2.0),
                        rng.gen_range(-2.0..2.0),
                    ),
                    [rng.gen(), rng.gen(), rng.gen()],
                )
            })
            .collect()
    }

    #[test]
    fn empty_cloud_returns_none() {
        assert!(DracoEncoder::encode(&PointCloud::new(), DracoParams::default()).is_none());
    }

    #[test]
    fn round_trip_preserves_point_count_at_high_quant() {
        let cloud = random_cloud(500, 1);
        let enc = DracoEncoder::encode(&cloud, DracoParams::default()).unwrap();
        let dec = DracoDecoder::decode(&enc.data).unwrap();
        // At 11 bits over 4 m, cells are ~2 mm: random points rarely merge.
        assert_eq!(dec.len(), enc.points_coded);
        assert!(dec.len() >= 495, "{} points after merge", dec.len());
    }

    #[test]
    fn round_trip_geometry_error_bounded_by_cell() {
        let cloud = random_cloud(300, 2);
        for bits in [8u8, 10, 12] {
            let params = DracoParams {
                quant_bits: QuantBits(bits),
                ..Default::default()
            };
            let enc = DracoEncoder::encode(&cloud, params).unwrap();
            let dec = DracoDecoder::decode(&enc.data).unwrap();
            let cell = 4.0f32 / (1 << bits) as f32;
            // Every decoded point must be within half a cell diagonal of some
            // original point.
            let idx = livo_pointcloud::VoxelIndex::build(&cloud, 0.2);
            for p in &dec.points {
                let n = idx.nearest(p.position).unwrap();
                let d = cloud.points[n as usize].position.distance(p.position);
                assert!(d <= cell * 0.9, "bits {bits}: error {d} > cell {cell}");
            }
        }
    }

    #[test]
    fn coarser_quantisation_is_smaller() {
        let cloud = random_cloud(2000, 3);
        let size = |bits: u8| {
            DracoEncoder::encode(
                &cloud,
                DracoParams {
                    quant_bits: QuantBits(bits),
                    ..Default::default()
                },
            )
            .unwrap()
            .data
            .len()
        };
        assert!(size(6) < size(10));
        assert!(size(10) < size(14));
    }

    #[test]
    fn higher_level_compresses_better() {
        let cloud = random_cloud(3000, 4);
        let size = |level: u8| {
            DracoEncoder::encode(
                &cloud,
                DracoParams {
                    level,
                    ..Default::default()
                },
            )
            .unwrap()
            .data
            .len()
        };
        assert!(size(9) < size(0), "adaptive contexts must beat raw bits");
    }

    #[test]
    fn color_round_trip_exact_at_8_bits() {
        let cloud = random_cloud(200, 5);
        let enc = DracoEncoder::encode(&cloud, DracoParams::default()).unwrap();
        let dec = DracoDecoder::decode(&enc.data).unwrap();
        // Map decoded points back to original by nearest neighbour; colours
        // must match exactly (unless cells merged).
        let idx = livo_pointcloud::VoxelIndex::build(&cloud, 0.2);
        let mut exact = 0;
        for p in &dec.points {
            let n = idx.nearest(p.position).unwrap() as usize;
            if cloud.points[n].color == p.color {
                exact += 1;
            }
        }
        assert!(
            exact as f64 / dec.len() as f64 > 0.95,
            "{exact}/{}",
            dec.len()
        );
    }

    #[test]
    fn fewer_color_bits_distort_colors() {
        let cloud = random_cloud(500, 6);
        let params = DracoParams {
            color_bits: 3,
            ..Default::default()
        };
        let enc = DracoEncoder::encode(&cloud, params).unwrap();
        let dec = DracoDecoder::decode(&enc.data).unwrap();
        let idx = livo_pointcloud::VoxelIndex::build(&cloud, 0.2);
        let mut err = 0.0f64;
        for p in &dec.points {
            let n = idx.nearest(p.position).unwrap() as usize;
            for c in 0..3 {
                err += (cloud.points[n].color[c] as f64 - p.color[c] as f64).abs();
            }
        }
        err /= (dec.len() * 3) as f64;
        assert!(
            err > 2.0,
            "3-bit colour should show quantisation error, got {err}"
        );
        assert!(err < 40.0, "but bounded by the step size, got {err}");
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let cloud = random_cloud(100, 7);
        let enc = DracoEncoder::encode(&cloud, DracoParams::default()).unwrap();
        // Garbage magic.
        assert!(DracoDecoder::decode(&[0u8; 64]).is_err());
        // Truncated stream decodes some junk but must not panic or hang.
        let half = &enc.data[..enc.data.len() / 2];
        let _ = DracoDecoder::decode(half);
        // A well-formed header that promises more points than the stream has
        // bits for: an error, not a 32 GiB allocation.
        let mut header = RangeEncoder::new();
        header.encode_bits(MAGIC, 8);
        header.encode_bits(11, 5);
        header.encode_bits(7, 4);
        header.encode_bits(8, 4);
        for v in [0.0f32, 0.0, 0.0, 1.0] {
            header.encode_bits(v.to_bits(), 32);
        }
        header.encode_bits(u32::MAX, 32);
        let header = header.finish();
        assert_eq!(header.len(), 5 + 23);
        assert_eq!(
            DracoDecoder::decode(&header).err(),
            Some(BadStream("point count"))
        );
        assert!(DracoDecoder::decode(&[0xFFu8; 64]).is_err());
    }

    #[test]
    fn single_point_cloud() {
        let mut pc = PointCloud::new();
        pc.push(Point::new(Vec3::new(1.0, 2.0, 3.0), [9, 8, 7]));
        let enc = DracoEncoder::encode(&pc, DracoParams::default()).unwrap();
        let dec = DracoDecoder::decode(&enc.data).unwrap();
        assert_eq!(dec.len(), 1);
        assert_eq!(dec.points[0].color, [9, 8, 7]);
    }

    #[test]
    fn encode_reports_modeled_time() {
        let cloud = random_cloud(1000, 8);
        let enc = DracoEncoder::encode(&cloud, DracoParams::default()).unwrap();
        assert!(enc.modeled_encode_ms > 0.0);
    }
}
