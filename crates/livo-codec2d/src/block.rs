//! Quantised-coefficient block coding.
//!
//! Each 8×8 block of quantised transform levels is coded in zig-zag order.
//! The range coder carries only per-block flags — a coded-block flag, the
//! high bit of the last significant position and, for scans long enough to
//! have one, the density class of the significance mask. Every
//! per-coefficient symbol is a field of the raw-bit tail written with one
//! `encode_bits` call: the low bits of the last position, the mask (raw, or
//! as Rice-coded gaps between its minority symbol) and, per non-zero level,
//! an adaptive-Rice magnitude with the sign folded in. Contexts and Rice
//! statistics are grouped per plane and reset at every slice of every
//! frame, so slices are independently parseable after a resync.

use crate::dct::ZIGZAG;
use crate::rangecoder::{BitModel, RangeDecoder, RangeEncoder};

/// Magnitude band of each zig-zag scan position: `0`, `1..=2`, `3..=9`,
/// `10..=24`, the rest. A table, not a `match`: the lookup sits in front of
/// every magnitude of a block.
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

/// A scan whose last position is below this writes its mask raw: seven
/// flags have no density worth a context bit.
const DENSITY_MIN_LAST: u32 = 8;
/// Unary prefix at which the decoder gives a mask gap up. A legal gap is at
/// most 63 and its prefix at most `63 >> 2`; a capped one reads as a gap
/// past every `last`, which ends the mask.
const GAP_PREFIX_CAP: u32 = 16;
/// Unary prefix at which a magnitude's Rice code gives way to exp-Golomb:
/// this many zeros and no terminating one.
const MAG_ESCAPE: u32 = 10;
/// Largest Rice parameter of a magnitude.
const MAG_K_MAX: u32 = 15;

/// Adaptive state for one plane's coefficient coding.
#[derive(Debug, Clone, Default)]
pub struct CoeffContexts {
    cbf: BitModel,
    last_hi: BitModel,
    /// Density class of a mask: classed or raw, sparse or dense, then under
    /// an eighth or not (sparse and dense apart).
    dens: [BitModel; 4],
    /// Decayed sum of `|level| − 1` per band: eight times its recent mean.
    mag: [u32; 5],
}

impl CoeffContexts {
    pub fn new() -> Self {
        Self::default()
    }
}

/// The Rice parameter a band's decayed sum `m` asks for.
#[inline]
fn rice_k(m: u32) -> u32 {
    (32 - (m >> 3).leading_zeros()).min(MAG_K_MAX)
}

/// `m` after taking the magnitude `v` in. Saturating, because a corrupt
/// stream's escapes reach `u32::MAX`.
#[inline]
fn rice_update(m: u32, v: u32) -> u32 {
    (m - (m >> 3)).saturating_add(v)
}

/// The `n < 64` low bits set.
#[inline]
fn low_bits(n: u32) -> u64 {
    (1u64 << n) - 1
}

/// Encode the significance flags `below` of scan positions `0..last`.
///
/// Under [`DENSITY_MIN_LAST`] flags go raw. Otherwise the share of the
/// mask's minority symbol (ones if few levels are non-zero, zeros if most
/// are) picks a class with up to three context-coded decisions: a quarter
/// or more writes the mask raw; under a quarter writes the gaps between
/// minority symbols as Rice codes with `k = 2`, under an eighth with
/// `k = 3`, so the loop runs over the minority only. A gap that reaches
/// `last` ends the mask.
fn encode_mask(enc: &mut RangeEncoder, dens: &mut [BitModel; 4], below: u64, last: u32) {
    if last >= DENSITY_MIN_LAST {
        let nnz = below.count_ones();
        let dense = (last - nnz) * 4 < last;
        let classed = dense || nnz * 4 < last;
        enc.encode_bit(&mut dens[0], classed);
        if classed {
            enc.encode_bit(&mut dens[1], dense);
            let (minority, runs) = if dense {
                (last - nnz, !below & low_bits(last))
            } else {
                (nnz, below)
            };
            let far = minority * 8 < last;
            enc.encode_bit(&mut dens[2 + dense as usize], far);
            let k = 2 + far as u32;
            let (mut pos, mut rest) = (0, runs);
            while pos < last {
                let next = if rest == 0 {
                    last
                } else {
                    rest.trailing_zeros()
                };
                let gap = next - pos;
                enc.encode_unary_then(gap >> k, gap & ((1 << k) - 1), k);
                rest &= rest.wrapping_sub(1);
                pos = next + 1;
            }
            return;
        }
    }
    // Position `last − 1` first, in one field or two.
    if last > 32 {
        enc.encode_bits((below >> 32) as u32, last - 32);
    }
    enc.encode_bits(below as u32, last.min(32));
}

/// Inverse of [`encode_mask`]; total on any bytes.
fn decode_mask(dec: &mut RangeDecoder<'_>, dens: &mut [BitModel; 4], last: u32) -> u64 {
    if last >= DENSITY_MIN_LAST && dec.decode_bit(&mut dens[0]) {
        let dense = dec.decode_bit(&mut dens[1]);
        let k = 2 + dec.decode_bit(&mut dens[2 + dense as usize]) as u32;
        let (mut pos, mut runs) = (0, 0u64);
        while pos < last {
            let (q, low) = dec.decode_unary_then(GAP_PREFIX_CAP, k);
            pos += (q << k) | low;
            if pos < last {
                runs |= 1 << pos;
            }
            pos += 1;
        }
        return if dense { !runs & low_bits(last) } else { runs };
    }
    let hi = if last > 32 {
        (dec.decode_bits(last - 32) as u64) << 32
    } else {
        0
    };
    hi | dec.decode_bits(last.min(32)) as u64
}

/// Encode one block of raster-order quantised levels.
pub fn encode_block(enc: &mut RangeEncoder, ctx: &mut CoeffContexts, levels: &[i32; 64]) {
    // Most blocks of an inter frame are empty; an OR over the levels says so
    // without looking at them one by one.
    let coded = levels.iter().fold(0, |any, &l| any | l) != 0;
    enc.encode_bit(&mut ctx.cbf, coded);
    if !coded {
        return;
    }
    // Bit `pos` says whether scan position `pos` holds a non-zero level.
    let mut mask = 0u64;
    for (pos, &i) in ZIGZAG.iter().enumerate() {
        mask |= ((levels[i] != 0) as u64) << pos;
    }
    // Last position: one adaptive bit selects the low range (most content is
    // low-frequency), then 5 raw bits.
    let last = 63 - mask.leading_zeros();
    enc.encode_bit(&mut ctx.last_hi, last >= 32);
    enc.encode_bits(last & 31, 5);
    encode_mask(enc, &mut ctx.dens, mask & low_bits(last), last);
    // `|level| − 1` as `q` zeros, a one, `k` bits and the sign: one field.
    while mask != 0 {
        let pos = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let level = levels[ZIGZAG[pos]];
        let v = level.unsigned_abs() - 1;
        let m = &mut ctx.mag[band(pos)];
        let k = rice_k(*m);
        *m = rice_update(*m, v);
        let neg = (level < 0) as u32;
        if v >> k < MAG_ESCAPE {
            let low = v & ((1 << k) - 1);
            enc.encode_unary_then(v >> k, (low << 1) | neg, k + 1);
        } else {
            enc.encode_bits(0, MAG_ESCAPE);
            enc.encode_ue_bypass(v - (MAG_ESCAPE << k));
            enc.encode_bypass(level < 0);
        }
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
    let last = dec.decode_bits(5) + 32 * hi as u32;
    let mut mask = decode_mask(dec, &mut ctx.dens, last) | 1 << last;
    while mask != 0 {
        let pos = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let m = &mut ctx.mag[band(pos)];
        let k = rice_k(*m);
        let (q, field) = dec.decode_unary_then(MAG_ESCAPE, k + 1);
        // Corrupt streams can produce magnitudes near u32::MAX; saturate
        // instead of overflowing (legal encodes stay far below i32::MAX).
        let (v, neg) = if q < MAG_ESCAPE {
            ((q << k) | (field >> 1), field & 1 != 0)
        } else {
            let v = dec.decode_ue_bypass().saturating_add(MAG_ESCAPE << k);
            (v, dec.decode_bypass())
        };
        *m = rice_update(*m, v);
        let mag = v.saturating_add(1).min(i32::MAX as u32) as i32;
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

    /// A block with its last level at scan position `last` and `nnz` more
    /// at random positions below it, magnitudes from `mag`.
    fn block_with(
        rng: &mut SplitMix64,
        last: usize,
        nnz: usize,
        mut mag: impl FnMut(&mut SplitMix64) -> i32,
    ) -> [i32; 64] {
        let mut b = [0i32; 64];
        let mut free: Vec<usize> = (0..last).collect();
        for _ in 0..nnz {
            let pos = free.swap_remove(rng.gen_range(0..free.len()));
            b[ZIGZAG[pos]] = mag(rng);
        }
        b[ZIGZAG[last]] = mag(rng);
        b
    }

    #[test]
    fn every_last_and_every_density_round_trips() {
        // Every `nnz` in `0..=last` takes in each class boundary
        // (nnz·8 = last, nnz·4 = last and their mirrors), a mask of zeros
        // under the last level, and a scan without a zero.
        let mut rng = SplitMix64::new(5);
        let mut small = |rng: &mut SplitMix64| [-3, -1, 1, 2][rng.gen_range(0..4usize)];
        for last in 0..64 {
            let blocks: Vec<[i32; 64]> = (0..=last)
                .map(|nnz| block_with(&mut rng, last, nnz, &mut small))
                .collect();
            round_trip(&blocks);
            // And each alone, on fresh contexts.
            for b in &blocks {
                round_trip(std::slice::from_ref(b));
            }
        }
    }

    #[test]
    fn density_classes_sit_where_the_shares_say() {
        // A mask is classed when its minority symbol is under a quarter.
        for last in DENSITY_MIN_LAST..64 {
            for nnz in 0..=last {
                let below = low_bits(nnz);
                let mut enc = RangeEncoder::new();
                let mut dens = [BitModel::new(); 4];
                encode_mask(&mut enc, &mut dens, below, last);
                let data = enc.finish();
                let minority = nnz.min(last - nnz);
                let raw = (5 + last.div_ceil(8)) as usize;
                if minority * 4 >= last {
                    assert_eq!(data.len(), raw, "last {last} nnz {nnz}: raw mask");
                }
                let mut dec = RangeDecoder::new(&data);
                let mut dens = [BitModel::new(); 4];
                assert_eq!(decode_mask(&mut dec, &mut dens, last), below);
            }
        }
    }

    #[test]
    fn magnitudes_round_trip_at_every_code_boundary() {
        // 1, 2^k ± 1, both sides of the escape at every parameter the sum
        // passes through, and a 16-bit intra DC at QP 4.
        let mut mags = vec![1i32, 2, 1 << 20, -(1 << 20), i32::MAX, -i32::MAX];
        for k in 0..=MAG_K_MAX {
            for v in [(1i32 << k) - 1, 1 << k, (1 << k) + 1] {
                mags.extend([v.max(1), -v.max(1)]);
            }
            let escape = (MAG_ESCAPE as i32) << k;
            mags.extend([escape - 1, escape, escape + 1, escape + 2]);
        }
        // One per block at DC, so that one band's sum sees them all in turn;
        // then all of them spread over dense blocks.
        let mut blocks: Vec<[i32; 64]> = mags
            .iter()
            .map(|&m| {
                let mut b = [0i32; 64];
                b[0] = m;
                b
            })
            .collect();
        for chunk in mags.chunks(64) {
            let mut b = [1i32; 64];
            b[..chunk.len()].copy_from_slice(chunk);
            blocks.push(b);
        }
        round_trip(&blocks);
    }

    #[test]
    fn rice_parameter_reaches_its_cap_and_comes_back() {
        let mut enc = RangeEncoder::new();
        let mut ctx = CoeffContexts::new();
        let mut big = [0i32; 64];
        big[0] = 1 << 20;
        let mut one = [0i32; 64];
        one[0] = 1;
        let mut blocks = Vec::new();
        for _ in 0..4 {
            encode_block(&mut enc, &mut ctx, &big);
            blocks.push(big);
        }
        assert_eq!(rice_k(ctx.mag[0]), MAG_K_MAX);
        for _ in 0..200 {
            encode_block(&mut enc, &mut ctx, &one);
            blocks.push(one);
        }
        assert_eq!(rice_k(ctx.mag[0]), 0);
        assert_eq!(ctx.mag[1..], [0; 4], "other bands untouched");
        round_trip(&blocks);
        // Saturating, not wrapping, when a corrupt stream keeps escaping.
        let m = (0..64).fold(0, |m, _| rice_update(m, u32::MAX));
        assert_eq!((m, rice_k(m)), (u32::MAX, MAG_K_MAX));
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
