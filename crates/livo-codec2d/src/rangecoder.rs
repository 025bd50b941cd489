//! Adaptive binary range coder (the entropy-coding stage).
//!
//! An LZMA-style byte-oriented range coder with adaptive binary contexts —
//! functionally the same family as H.265's CABAC. Probabilities are 12-bit;
//! contexts adapt with shift-5 exponential updates. "Bypass" bits encode at
//! a fixed probability of ½ for sign bits and raw value bits.

/// Total probability scale (12 bits).
const PROB_BITS: u32 = 12;
const PROB_ONE: u16 = 1 << PROB_BITS;
/// Adaptation rate: higher shifts adapt more slowly.
const ADAPT_SHIFT: u16 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive binary probability model (context).
#[derive(Debug, Clone, Copy)]
pub struct BitModel {
    /// Probability that the next bit is 0, in `[1, PROB_ONE-1]`.
    prob0: u16,
}

impl Default for BitModel {
    fn default() -> Self {
        BitModel {
            prob0: PROB_ONE / 2,
        }
    }
}

impl BitModel {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn update(&mut self, bit: bool) {
        if bit {
            self.prob0 -= self.prob0 >> ADAPT_SHIFT;
        } else {
            self.prob0 += (PROB_ONE - self.prob0) >> ADAPT_SHIFT;
        }
    }
}

/// The encoding half of the range coder.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    pub fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
            let carry = (self.low >> 32) as u8;
            let mut c = self.cache;
            while self.cache_size > 0 {
                self.out.push(c.wrapping_add(carry));
                c = 0xFF;
                self.cache_size -= 1;
            }
            self.cache = ((self.low >> 24) & 0xFF) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one bit under an adaptive context.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.prob0 as u32;
        if bit {
            self.low += bound as u64;
            self.range -= bound;
        } else {
            self.range = bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode one bit at fixed probability ½ (no context).
    #[inline]
    pub fn encode_bypass(&mut self, bit: bool) {
        self.range >>= 1;
        if bit {
            self.low += self.range as u64;
        }
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode `nbits` raw bits of `value`, MSB first.
    pub fn encode_bits(&mut self, value: u32, nbits: u32) {
        self.encode_bypass_run(value as u64, nbits);
    }

    /// Encode an unsigned value with order-0 exponential-Golomb in bypass
    /// mode (prefix + suffix); good for rare large magnitudes.
    pub fn encode_ue_bypass(&mut self, value: u32) {
        let v = value + 1;
        let nbits = 32 - v.leading_zeros();
        // `nbits - 1 ≥ 0` zeros, the leading one of `v`, then its
        // `nbits - 1` low bits: `v` itself, written `2·nbits − 1` wide.
        self.encode_bypass_run(v as u64, 2 * nbits - 1);
    }

    /// The low `nbits ≤ 64` bits of `value` as bypass bits, MSB first, a
    /// renormalisation interval at a time. [`encode_bypass`] renormalises
    /// only when a halving takes `range` below `TOP`, which from a `range`
    /// of bit length `25 + k` is the `k + 1`-th halving; until then the
    /// bits only add to `low`. So a run of up to `8 − leading_zeros(range)`
    /// bits is `low += Σ bitᵢ·(range ≫ i)`, one shift of `range` and at
    /// most one `shift_low` — the same additions in the same order, hence
    /// the same bytes. The sum is not `(range ≫ k)·value`: each halving
    /// truncates, so the addends are not shifts of one another.
    ///
    /// [`encode_bypass`]: RangeEncoder::encode_bypass
    fn encode_bypass_run(&mut self, value: u64, nbits: u32) {
        let mut left = nbits;
        while left > 0 {
            let run = (8 - self.range.leading_zeros()).min(left);
            left -= run;
            let bits = value >> left;
            for i in 1..=run {
                // All-ones when bit `run − i` of the run is set.
                let mask = ((bits >> (run - i)) & 1).wrapping_neg();
                self.low += (self.range >> i) as u64 & mask;
            }
            self.range >>= run;
            if self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Flush and return the bitstream.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }

    /// Bytes produced so far (excluding unflushed state). Useful for rate
    /// accounting mid-encode.
    pub fn bytes_written(&self) -> usize {
        self.out.len()
    }
}

/// The decoding half. Must see the exact byte stream produced by
/// [`RangeEncoder::finish`] and consume bits with identical context usage.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder {
            code: 0,
            range: u32::MAX,
            input,
            pos: 1,
        };
        // First byte is always 0 (encoder cache priming); the next four seed
        // the code register.
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decode one bit under an adaptive context.
    #[inline]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.prob0 as u32;
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        model.update(bit);
        while self.range < TOP {
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.range <<= 8;
        }
        bit
    }

    /// Decode one fixed-probability bit.
    #[inline]
    pub fn decode_bypass(&mut self) -> bool {
        self.range >>= 1;
        let bit = if self.code >= self.range {
            self.code -= self.range;
            true
        } else {
            false
        };
        while self.range < TOP {
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.range <<= 8;
        }
        bit
    }

    /// Decode `nbits` raw bits, MSB first — in runs up to the next
    /// renormalisation, the mirror of the encoder's bypass runs: the same
    /// comparisons against the same halvings of `range` as
    /// [`decode_bypass`](RangeDecoder::decode_bypass) bit by bit, with the
    /// one renormalisation a run can need made once at its end.
    pub fn decode_bits(&mut self, nbits: u32) -> u32 {
        let mut v = 0u32;
        let mut left = nbits;
        while left > 0 {
            let run = (8 - self.range.leading_zeros()).min(left);
            left -= run;
            for i in 1..=run {
                let half = self.range >> i;
                let bit = self.code >= half;
                if bit {
                    self.code -= half;
                }
                v = (v << 1) | bit as u32;
            }
            self.range >>= run;
            if self.range < TOP {
                self.code = (self.code << 8) | self.next_byte() as u32;
                self.range <<= 8;
            }
        }
        v
    }

    /// Inverse of [`RangeEncoder::encode_ue_bypass`]. A corrupt stream can
    /// present an arbitrarily long zero prefix; it is capped at the widest
    /// prefix a legal encode can produce (32) instead of panicking — the
    /// resulting garbage value flows into the callers' range clamps and the
    /// frame fails or decodes to noise, but the decoder never aborts.
    pub fn decode_ue_bypass(&mut self) -> u32 {
        let mut nbits = 1u32;
        while !self.decode_bypass() {
            if nbits == 32 {
                break;
            }
            nbits += 1;
        }
        // The leading one, then the `nbits - 1` suffix bits as one field.
        let v = (1u32 << (nbits - 1)) | self.decode_bits(nbits - 1);
        v - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn single_context_round_trip() {
        let bits: Vec<bool> = (0..500).map(|i| i % 7 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut m2 = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut m2), b);
        }
    }

    #[test]
    fn biased_source_compresses() {
        // 95% zeros should code well below 1 bit/symbol.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let bits: Vec<bool> = (0..20_000).map(|_| rng.gen_bool(0.05)).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let data = enc.finish();
        let bits_per_symbol = data.len() as f64 * 8.0 / bits.len() as f64;
        assert!(bits_per_symbol < 0.45, "got {bits_per_symbol} bits/symbol");
        // And decodes exactly.
        let mut dec = RangeDecoder::new(&data);
        let mut m2 = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut m2), b);
        }
    }

    #[test]
    fn bypass_bits_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let bits: Vec<bool> = (0..4000).map(|_| rng.gen_bool(0.5)).collect();
        let mut enc = RangeEncoder::new();
        for &b in &bits {
            enc.encode_bypass(b);
        }
        let data = enc.finish();
        // Uniform bits can't compress: expect ~1 bit/symbol.
        assert!(data.len() * 8 >= bits.len());
        let mut dec = RangeDecoder::new(&data);
        for &b in &bits {
            assert_eq!(dec.decode_bypass(), b);
        }
    }

    #[test]
    fn raw_bit_fields_round_trip() {
        let values = [0u32, 1, 255, 256, 65535, 0xFFFF_FFFF, 0x1234_5678];
        let mut enc = RangeEncoder::new();
        for &v in &values {
            enc.encode_bits(v, 32);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        for &v in &values {
            assert_eq!(dec.decode_bits(32), v);
        }
    }

    #[test]
    fn exp_golomb_round_trip() {
        let values = [0u32, 1, 2, 3, 7, 8, 100, 1000, 65535, 1_000_000];
        let mut enc = RangeEncoder::new();
        for &v in &values {
            enc.encode_ue_bypass(v);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        for &v in &values {
            assert_eq!(dec.decode_ue_bypass(), v);
        }
    }

    #[test]
    fn mixed_context_and_bypass_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut enc = RangeEncoder::new();
        let mut models = vec![BitModel::new(); 8];
        let mut script: Vec<(u8, u32)> = Vec::new();
        for _ in 0..5000 {
            match rng.gen_range(0..3) {
                0 => {
                    let ctx = rng.gen_range(0..8usize);
                    let bit = rng.gen_bool(0.2);
                    enc.encode_bit(&mut models[ctx], bit);
                    script.push((0, ((ctx as u32) << 1) | bit as u32));
                }
                1 => {
                    let v = rng.gen_range(0..10_000u32);
                    enc.encode_ue_bypass(v);
                    script.push((1, v));
                }
                _ => {
                    let v = rng.gen_range(0..256u32);
                    enc.encode_bits(v, 8);
                    script.push((2, v));
                }
            }
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut models2 = vec![BitModel::new(); 8];
        for (kind, v) in script {
            match kind {
                0 => {
                    let ctx = (v >> 1) as usize;
                    let bit = v & 1 == 1;
                    assert_eq!(dec.decode_bit(&mut models2[ctx]), bit);
                }
                1 => assert_eq!(dec.decode_ue_bypass(), v),
                _ => assert_eq!(dec.decode_bits(8), v),
            }
        }
    }

    /// A script of context bits, raw fields of every width and exp-Golomb
    /// values, drawn so that the fields start from many different `range`
    /// states (the context bits in between move it).
    enum Sym {
        Ctx(usize, bool),
        Bits(u32, u32),
        Ue(u32),
    }

    fn bypass_script(seed: u64) -> Vec<Sym> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edge = [0u32, 1, 2, 3, 254, 255, 256, 65_535, 65_536, u32::MAX - 1];
        let mut script = Vec::new();
        for round in 0..40u32 {
            for n in 0..=32u32 {
                for _ in 0..rng.gen_range(0..4) {
                    script.push(Sym::Ctx(rng.gen_range(0..4usize), rng.gen_bool(0.3)));
                }
                // Unmasked: bits above `n` must be ignored.
                script.push(Sym::Bits(rng.gen_range(0..=u32::MAX), n));
                let ue = if (n + round) % 3 == 0 {
                    edge[(n + round) as usize % edge.len()]
                } else {
                    rng.gen_range(0..=u32::MAX - 1) >> rng.gen_range(0..32u32)
                };
                script.push(Sym::Ue(ue));
            }
        }
        script
    }

    #[test]
    fn bypass_runs_write_the_bytes_of_bit_at_a_time_coding() {
        use crate::differential::{encode_bits_oracle, encode_ue_oracle};
        for seed in 0..8 {
            let script = bypass_script(seed);
            let mut fast = RangeEncoder::new();
            let mut slow = RangeEncoder::new();
            let mut fast_models = [BitModel::new(); 4];
            let mut slow_models = [BitModel::new(); 4];
            for sym in &script {
                match *sym {
                    Sym::Ctx(c, bit) => {
                        fast.encode_bit(&mut fast_models[c], bit);
                        slow.encode_bit(&mut slow_models[c], bit);
                    }
                    Sym::Bits(v, n) => {
                        fast.encode_bits(v, n);
                        encode_bits_oracle(&mut slow, v, n);
                    }
                    Sym::Ue(v) => {
                        fast.encode_ue_bypass(v);
                        encode_ue_oracle(&mut slow, v);
                    }
                }
                assert_eq!(
                    (fast.low, fast.range),
                    (slow.low, slow.range),
                    "seed {seed}"
                );
            }
            let data = fast.finish();
            assert_eq!(data, slow.finish(), "seed {seed}");

            // And both decoders read the script back, in step.
            let mut fast = RangeDecoder::new(&data);
            let mut slow = RangeDecoder::new(&data);
            let mut fast_models = [BitModel::new(); 4];
            let mut slow_models = [BitModel::new(); 4];
            for sym in &script {
                match *sym {
                    Sym::Ctx(c, bit) => {
                        assert_eq!(fast.decode_bit(&mut fast_models[c]), bit);
                        assert_eq!(slow.decode_bit(&mut slow_models[c]), bit);
                    }
                    Sym::Bits(v, n) => {
                        let want = if n == 32 { v } else { v & ((1 << n) - 1) };
                        assert_eq!(fast.decode_bits(n), want, "seed {seed} width {n}");
                        assert_eq!(crate::differential::decode_bits_oracle(&mut slow, n), want);
                    }
                    Sym::Ue(v) => {
                        assert_eq!(fast.decode_ue_bypass(), v, "seed {seed}");
                        assert_eq!(crate::differential::decode_ue_oracle(&mut slow), v);
                    }
                }
                assert_eq!(
                    (fast.code, fast.range, fast.pos),
                    (slow.code, slow.range, slow.pos),
                    "seed {seed}"
                );
            }
        }
    }

    /// On bytes no encoder wrote, the run decoder still walks the states
    /// of the bit-at-a-time one.
    #[test]
    fn bypass_runs_decode_garbage_like_bit_at_a_time_decoding() {
        use crate::differential::{decode_bits_oracle, decode_ue_oracle};
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for trial in 0..200 {
            let len = rng.gen_range(0..96usize);
            let fill = [0x00u8, 0xFF][trial % 2];
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    if trial % 5 < 2 {
                        fill
                    } else {
                        rng.gen_range(0..=255u8)
                    }
                })
                .collect();
            let mut fast = RangeDecoder::new(&data);
            let mut slow = RangeDecoder::new(&data);
            let mut fast_model = BitModel::new();
            let mut slow_model = BitModel::new();
            for _ in 0..64 {
                match rng.gen_range(0..3) {
                    0 => assert_eq!(
                        fast.decode_bit(&mut fast_model),
                        slow.decode_bit(&mut slow_model)
                    ),
                    1 => {
                        let n = rng.gen_range(0..=32u32);
                        assert_eq!(fast.decode_bits(n), decode_bits_oracle(&mut slow, n));
                    }
                    _ => assert_eq!(fast.decode_ue_bypass(), decode_ue_oracle(&mut slow)),
                }
                assert_eq!(
                    (fast.code, fast.range, fast.pos),
                    (slow.code, slow.range, slow.pos),
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn exp_golomb_prefix_cap_survives_the_suffix_field() {
        // All zeros: no 1 ever ends the prefix, so it stops at 32 and the
        // 31 suffix bits read as zeros too.
        let mut dec = RangeDecoder::new(&[0u8; 64]);
        assert_eq!(dec.decode_ue_bypass(), (1u32 << 31) - 1);
        // The widest legal value sits one short of the cap.
        let mut enc = RangeEncoder::new();
        enc.encode_ue_bypass(u32::MAX - 1);
        let data = enc.finish();
        assert_eq!(RangeDecoder::new(&data).decode_ue_bypass(), u32::MAX - 1);
    }

    #[test]
    fn corrupt_exp_golomb_prefix_does_not_panic() {
        // An all-zero code register never yields a 1 bit, so the prefix
        // walk must terminate via the cap, not an assert.
        let mut dec = RangeDecoder::new(&[0u8; 64]);
        let _ = dec.decode_ue_bypass();
        // And with a register of all ones (long run of 1-bits in bypass).
        let mut dec = RangeDecoder::new(&[0xFFu8; 64]);
        for _ in 0..16 {
            let _ = dec.decode_ue_bypass();
        }
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let enc = RangeEncoder::new();
        let data = enc.finish();
        assert_eq!(data.len(), 5);
        assert_eq!(data[0], 0, "priming byte");
    }

    #[test]
    fn carry_propagation_stress() {
        // Long runs of highly-probable bits exercise the carry path.
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        let pattern: Vec<bool> = (0..100_000).map(|i| (i % 1001) == 0).collect();
        for &b in &pattern {
            enc.encode_bit(&mut m, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut m2 = BitModel::new();
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(dec.decode_bit(&mut m2), b, "at {i}");
        }
    }
}
