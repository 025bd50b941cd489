//! Quantised-coefficient block coding.
//!
//! Each 8×8 block of quantised transform levels is coded in zig-zag order
//! with a CABAC-like scheme: a coded-block flag, the last significant
//! position, a banded significance map, and level magnitudes with adaptive
//! "greater-than-one" contexts plus exp-Golomb tails. Contexts are grouped
//! per plane and reset at every slice of every frame, so slices are
//! independently parseable after a resync.

use crate::dct::ZIGZAG;
use crate::rangecoder::{BitModel, RangeDecoder, RangeEncoder};

/// Significance-context band of each zig-zag scan position: `0`, `1..=2`,
/// `3..=9`, `10..=24`, the rest. A table, not a `match`: the lookup sits
/// between every two context-coded symbols of a block.
const BAND: [u8; 64] = {
    let mut t = [0u8; 64];
    let mut pos = 0;
    while pos < 64 {
        t[pos] = match pos {
            0 => 0,
            1..=2 => 1,
            3..=9 => 2,
            10..=24 => 3,
            _ => 4,
        };
        pos += 1;
    }
    t
};

#[inline]
fn band(pos: usize) -> usize {
    BAND[pos] as usize
}

/// Adaptive contexts for one plane's coefficient coding.
#[derive(Debug, Clone)]
pub struct CoeffContexts {
    cbf: BitModel,
    sig: [BitModel; 5],
    gt1: [BitModel; 5],
    last_hi: BitModel,
}

impl Default for CoeffContexts {
    fn default() -> Self {
        CoeffContexts {
            cbf: BitModel::new(),
            sig: [BitModel::new(); 5],
            gt1: [BitModel::new(); 5],
            last_hi: BitModel::new(),
        }
    }
}

impl CoeffContexts {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Encode one block of raster-order quantised levels.
pub fn encode_block(enc: &mut RangeEncoder, ctx: &mut CoeffContexts, levels: &[i32; 64]) {
    // Scan in zig-zag order, find the last significant position.
    let mut last: Option<usize> = None;
    for pos in (0..64).rev() {
        if levels[ZIGZAG[pos]] != 0 {
            last = Some(pos);
            break;
        }
    }
    let Some(last) = last else {
        enc.encode_bit(&mut ctx.cbf, false);
        return;
    };
    enc.encode_bit(&mut ctx.cbf, true);
    // Last position: one adaptive bit selects the low range (most content is
    // low-frequency), then 5 or 6 raw bits.
    if last < 32 {
        enc.encode_bit(&mut ctx.last_hi, false);
        enc.encode_bits(last as u32, 5);
    } else {
        enc.encode_bit(&mut ctx.last_hi, true);
        enc.encode_bits(last as u32 - 32, 5);
    }
    for pos in 0..=last {
        let level = levels[ZIGZAG[pos]];
        if pos < last {
            let significant = level != 0;
            enc.encode_bit(&mut ctx.sig[band(pos)], significant);
            if !significant {
                continue;
            }
        }
        // Magnitude ≥ 1 here.
        let mag = level.unsigned_abs();
        let gt1 = mag > 1;
        enc.encode_bit(&mut ctx.gt1[band(pos)], gt1);
        if gt1 {
            enc.encode_ue_bypass(mag - 2);
        }
        enc.encode_bypass(level < 0);
    }
}

/// Decode one block into raster-order quantised `levels` (every entry is
/// written). Returns the coded-block flag: `false` means all levels are
/// zero, so the caller can leave the inverse transform out.
pub fn decode_block(
    dec: &mut RangeDecoder<'_>,
    ctx: &mut CoeffContexts,
    levels: &mut [i32; 64],
) -> bool {
    *levels = [0; 64];
    if !dec.decode_bit(&mut ctx.cbf) {
        return false;
    }
    let hi = dec.decode_bit(&mut ctx.last_hi);
    let mut last = dec.decode_bits(5) as usize;
    if hi {
        last += 32;
    }
    for pos in 0..=last {
        if pos < last && !dec.decode_bit(&mut ctx.sig[band(pos)]) {
            continue;
        }
        let gt1 = dec.decode_bit(&mut ctx.gt1[band(pos)]);
        // Corrupt streams can produce magnitudes near u32::MAX; saturate
        // instead of overflowing (legal encodes stay far below i32::MAX).
        let mag = if gt1 {
            dec.decode_ue_bypass().saturating_add(2)
        } else {
            1
        };
        let neg = dec.decode_bypass();
        let mag = mag.min(i32::MAX as u32) as i32;
        levels[ZIGZAG[pos]] = if neg { -mag } else { mag };
    }
    true
}

/// Encode a signed value as (ue magnitude, sign) in bypass mode — used for
/// motion-vector differences.
pub fn encode_svalue(enc: &mut RangeEncoder, v: i32) {
    enc.encode_ue_bypass(v.unsigned_abs());
    if v != 0 {
        enc.encode_bypass(v < 0);
    }
}

/// Inverse of [`encode_svalue`]. Magnitudes from corrupt streams saturate
/// at `i32::MAX` rather than wrapping through the sign.
pub fn decode_svalue(dec: &mut RangeDecoder<'_>) -> i32 {
    let mag = dec.decode_ue_bypass().min(i32::MAX as u32) as i32;
    if mag == 0 {
        0
    } else if dec.decode_bypass() {
        -mag
    } else {
        mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::rng::SplitMix64;

    fn round_trip(blocks: &[[i32; 64]]) {
        let mut enc = RangeEncoder::new();
        let mut ctx = CoeffContexts::new();
        for b in blocks {
            encode_block(&mut enc, &mut ctx, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut ctx2 = CoeffContexts::new();
        // Stale contents: every entry must be overwritten.
        let mut got = [7i32; 64];
        for (i, b) in blocks.iter().enumerate() {
            let coded = decode_block(&mut dec, &mut ctx2, &mut got);
            assert_eq!(&got, b, "block {i}");
            assert_eq!(coded, b.iter().any(|&l| l != 0), "block {i} flag");
        }
    }

    #[test]
    fn band_table_holds_the_five_ranges() {
        for pos in 0..64 {
            let want = match pos {
                0 => 0,
                1..=2 => 1,
                3..=9 => 2,
                10..=24 => 3,
                _ => 4,
            };
            assert_eq!(band(pos), want, "scan position {pos}");
        }
    }

    #[test]
    fn zero_block_round_trip() {
        round_trip(&[[0i32; 64]]);
    }

    #[test]
    fn dc_only_block() {
        let mut b = [0i32; 64];
        b[0] = -37;
        round_trip(&[b]);
    }

    #[test]
    fn last_position_boundaries() {
        // Significant coefficient exactly at scan positions 31, 32 and 63.
        for pos in [0usize, 1, 31, 32, 63] {
            let mut b = [0i32; 64];
            b[ZIGZAG[pos]] = 5;
            round_trip(&[b]);
        }
    }

    #[test]
    fn dense_random_blocks() {
        let mut rng = SplitMix64::new(3);
        let blocks: Vec<[i32; 64]> = (0..50)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-100..=100)))
            .collect();
        round_trip(&blocks);
    }

    #[test]
    fn sparse_typical_blocks() {
        let mut rng = SplitMix64::new(4);
        let blocks: Vec<[i32; 64]> = (0..200)
            .map(|_| {
                let mut b = [0i32; 64];
                b[0] = rng.gen_range(-500..=500);
                for _ in 0..rng.gen_range(0..6) {
                    b[ZIGZAG[rng.gen_range(0..20)]] = rng.gen_range(-8..=8);
                }
                b
            })
            .collect();
        round_trip(&blocks);
    }

    #[test]
    fn large_magnitudes_for_16bit_content() {
        let mut b = [0i32; 64];
        b[0] = 500_000;
        b[1] = -123_456;
        b[63] = 65_535;
        round_trip(&[b]);
    }

    #[test]
    fn sparse_blocks_compress_well() {
        // Mostly-zero blocks should cost only a few bits each.
        let blocks: Vec<[i32; 64]> = (0..1000).map(|_| [0i32; 64]).collect();
        let mut enc = RangeEncoder::new();
        let mut ctx = CoeffContexts::new();
        for b in &blocks {
            encode_block(&mut enc, &mut ctx, b);
        }
        let data = enc.finish();
        assert!(
            data.len() < 100,
            "1000 empty blocks took {} bytes",
            data.len()
        );
    }

    #[test]
    fn svalue_round_trip() {
        let values = [0i32, 1, -1, 7, -7, 100, -100, 32767, -32768];
        let mut enc = RangeEncoder::new();
        for &v in &values {
            encode_svalue(&mut enc, v);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        for &v in &values {
            assert_eq!(decode_svalue(&mut dec), v);
        }
    }
}
