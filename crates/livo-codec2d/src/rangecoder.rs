//! Adaptive binary range coder and raw-bit tail (the entropy-coding stage).
//!
//! An LZMA-style byte-oriented range coder with adaptive binary contexts —
//! functionally the same family as H.265's CABAC. Probabilities are 12-bit;
//! contexts adapt with shift-5 exponential updates.
//!
//! "Bypass" bits (raw value bits, significance masks, Rice and exp-Golomb
//! magnitudes with their signs) are written at their own width, so they do
//! not go through the arithmetic coder at all: one payload is two streams growing toward each other (the
//! Opus / CELT `ec_enc_bits` layout).
//!
//! ```text
//! payload:  | range-coder bytes  → … | … ←  raw-bit tail |
//!           first byte                          last byte
//! ```
//!
//! The raw bits are the bypass symbols in the order they were coded, a
//! field being its bits MSB first; bit `i` of that sequence is bit
//! `7 − i % 8` of the payload's byte `len − 1 − i / 8`, and the last tail
//! byte is padded with zeros. Whoever frames the payload (the slice table,
//! a length prefix) already says where it ends, so the tail needs no length
//! field of its own: `finish().len()` is the range coder's bytes plus
//! `⌈raw bits / 8⌉`.

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
    /// Raw-bit tail in coding order; `finish` reverses it into place.
    tail: Vec<u8>,
    /// The last `raw_bits < 32` raw bits, not yet in `tail`, in the low
    /// bits (older ones above them are stale).
    raw: u64,
    raw_bits: u32,
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
            tail: Vec::new(),
            raw: 0,
            raw_bits: 0,
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

    /// Append one raw bit to the tail.
    #[inline]
    pub fn encode_bypass(&mut self, bit: bool) {
        self.encode_bits(bit as u32, 1);
    }

    /// Append the low `nbits ≤ 32` bits of `value` to the tail, MSB first.
    #[inline]
    pub fn encode_bits(&mut self, value: u32, nbits: u32) {
        debug_assert!(nbits <= 32);
        self.raw = (self.raw << nbits) | (value as u64 & ((1 << nbits) - 1));
        self.raw_bits += nbits;
        if self.raw_bits >= 32 {
            self.raw_bits -= 32;
            let word = (self.raw >> self.raw_bits) as u32;
            self.tail.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Append an unsigned value as order-0 exponential-Golomb raw bits
    /// (prefix + suffix); good for rare large magnitudes.
    #[inline]
    pub fn encode_ue_bypass(&mut self, value: u32) {
        let v = value + 1;
        let nbits = 32 - v.leading_zeros();
        // `nbits - 1` zeros, the leading one of `v`, then its `nbits - 1`
        // low bits: `v` itself, written `2·nbits − 1` wide.
        if nbits > 16 {
            self.encode_bits(0, nbits - 1);
            self.encode_bits(v, nbits);
        } else {
            self.encode_bits(v, 2 * nbits - 1);
        }
    }

    /// Append `zeros` zeros, a one and the low `nbits` bits of `value` as one
    /// field: a Rice code's unary quotient, stop bit and remainder (and
    /// whatever rides behind it). `zeros + 1 + nbits ≤ 32`.
    #[inline]
    pub fn encode_unary_then(&mut self, zeros: u32, value: u32, nbits: u32) {
        debug_assert!(value >> nbits == 0);
        self.encode_bits((1 << nbits) | value, zeros + 1 + nbits);
    }

    /// Flush both streams and return the payload: the range coder's bytes,
    /// then the tail, last byte first.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        // The `raw_bits < 32` pending bits left-aligned in a word, the stale
        // ones above them cut off; the padding is zeros.
        let pending = (self.raw << (32 - self.raw_bits)) as u32;
        let bytes = self.raw_bits.div_ceil(8) as usize;
        self.tail.extend_from_slice(&pending.to_be_bytes()[..bytes]);
        self.out.extend(self.tail.iter().rev());
        self.out
    }
}

/// The decoding half. Must see the exact payload produced by
/// [`RangeEncoder::finish`] and consume symbols in the order they were
/// coded, context bits with identical context usage.
///
/// Both streams are total on any bytes: the range coder reads zeros past
/// the payload's last byte and the tail reads zeros past its first. Neither
/// looks at how far the other has come — on a payload an encoder wrote they
/// never meet (the range decoder consumes exactly the bytes the range
/// encoder flushed), and on any other the bytes read twice are garbage like
/// the rest.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
    /// Raw bits read from the tail so far.
    raw_pos: usize,
}

impl<'a> RangeDecoder<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder {
            code: 0,
            range: u32::MAX,
            input,
            pos: 1,
            raw_pos: 0,
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

    /// The raw bits from `raw_pos` on, next one in the MSB; at least 57 are
    /// there, zeros below them. A little-endian load of the eight bytes that
    /// end with the one holding the next bit is those bits MSB first.
    #[inline]
    fn peek_raw(&self) -> u64 {
        // Payload bytes with raw bits still to read; the next is in the last.
        let left = self.input.len().saturating_sub(self.raw_pos / 8);
        let word = match left.checked_sub(8) {
            Some(start) => {
                let bytes = self.input[start..left].try_into().expect("eight bytes");
                u64::from_le_bytes(bytes)
            }
            None => self.peek_raw_near_start(left),
        };
        word << (self.raw_pos % 8)
    }

    /// [`peek_raw`](Self::peek_raw)'s load with fewer than eight bytes
    /// `left`, the missing ones — before the payload's first — being zeros.
    #[cold]
    fn peek_raw_near_start(&self, left: usize) -> u64 {
        let mut bytes = [0u8; 8];
        bytes[8 - left..].copy_from_slice(&self.input[..left]);
        u64::from_le_bytes(bytes)
    }

    /// Read one raw bit from the tail.
    #[inline]
    pub fn decode_bypass(&mut self) -> bool {
        self.decode_bits(1) != 0
    }

    /// Read `nbits ≤ 32` raw bits from the tail, MSB first.
    #[inline]
    pub fn decode_bits(&mut self, nbits: u32) -> u32 {
        debug_assert!(nbits <= 32);
        // Two shifts, so that a width of 0 is not a shift by 64.
        let v = (self.peek_raw() >> 1 >> (63 - nbits)) as u32;
        self.raw_pos += nbits as usize;
        v
    }

    /// Inverse of [`RangeEncoder::encode_unary_then`]: the count of zeros
    /// before the first one, then `nbits ≤ 32` bits. A run of `cap ≤ 24`
    /// zeros is an escape: exactly `cap` bits are consumed and `(cap, 0)`
    /// returned, so a corrupt stream's prefix is bounded by the caller.
    #[inline]
    pub fn decode_unary_then(&mut self, cap: u32, nbits: u32) -> (u32, u32) {
        debug_assert!(cap <= 24 && nbits <= 32);
        let word = self.peek_raw();
        let zeros = word.leading_zeros();
        if zeros >= cap {
            self.raw_pos += cap as usize;
            return (cap, 0);
        }
        self.raw_pos += (zeros + 1 + nbits) as usize;
        // The one shifted out; two shifts more, so a width of 0 is not 64.
        (zeros, (word << (zeros + 1) >> 1 >> (63 - nbits)) as u32)
    }

    /// Inverse of [`RangeEncoder::encode_ue_bypass`]. A corrupt stream can
    /// present an arbitrarily long zero prefix; it is capped at the widest
    /// prefix a legal encode can produce (32) instead of panicking — the
    /// resulting garbage value flows into the callers' range clamps and the
    /// frame fails or decodes to noise, but the decoder never aborts.
    #[inline]
    pub fn decode_ue_bypass(&mut self) -> u32 {
        // The prefix ends with its first one, or unterminated at 32 bits.
        let zeros = self.peek_raw().leading_zeros().min(31);
        self.raw_pos += zeros as usize + 1;
        // The leading one, then as many suffix bits as the prefix had zeros.
        let v = (1u32 << zeros) | self.decode_bits(zeros);
        v - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::rng::SplitMix64;

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
        let mut rng = SplitMix64::new(42);
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
        let mut rng = SplitMix64::new(7);
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
        let mut rng = SplitMix64::new(99);
        let mut enc = RangeEncoder::new();
        let mut models = [BitModel::new(); 8];
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
        let mut models2 = [BitModel::new(); 8];
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

    /// A script of context bits, raw fields of every width, exp-Golomb
    /// values and unary-prefixed fields, the context bits in between moving
    /// the range coder while the fields land on every bit offset of the tail.
    enum Sym {
        Ctx(usize, bool),
        Bits(u32, u32),
        Ue(u32),
        /// Zeros, value, width of the value.
        Unary(u32, u32, u32),
    }

    /// Above every prefix the script writes, so none of them escapes.
    const SCRIPT_CAP: u32 = 16;

    fn bypass_script(seed: u64) -> Vec<Sym> {
        let mut rng = SplitMix64::new(seed);
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
                let width = n / 2;
                let value = rng.gen_range(0..=u32::MAX) >> 1 >> (31 - width);
                script.push(Sym::Unary((n + round) % SCRIPT_CAP, value, width));
            }
        }
        script
    }

    /// Everything an encoder holds: the range coder's registers and how far
    /// the tail has come, pending bits included.
    fn encoder_state(e: &RangeEncoder) -> (u64, u32, usize, usize, u64, u32) {
        let pending = e.raw & ((1 << e.raw_bits) - 1);
        (
            e.low,
            e.range,
            e.out.len(),
            e.tail.len(),
            pending,
            e.raw_bits,
        )
    }

    fn decoder_state(d: &RangeDecoder<'_>) -> (u32, u32, usize, usize) {
        (d.code, d.range, d.pos, d.raw_pos)
    }

    /// A field writes the bytes of its bits pushed one at a time, and reads
    /// back in step.
    #[test]
    fn raw_fields_write_the_bytes_of_bit_at_a_time_coding() {
        use crate::differential::{
            decode_unary_oracle, encode_bits_oracle, encode_ue_oracle, encode_unary_oracle,
        };
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
                    Sym::Unary(zeros, v, n) => {
                        fast.encode_unary_then(zeros, v, n);
                        encode_unary_oracle(&mut slow, zeros, v, n);
                    }
                }
                assert_eq!(encoder_state(&fast), encoder_state(&slow), "seed {seed}");
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
                    Sym::Unary(zeros, v, n) => {
                        let got = fast.decode_unary_then(SCRIPT_CAP, n);
                        assert_eq!(got, (zeros, v), "seed {seed}");
                        assert_eq!(decode_unary_oracle(&mut slow, SCRIPT_CAP), Some(zeros));
                        assert_eq!(crate::differential::decode_bits_oracle(&mut slow, n), v);
                    }
                }
                assert_eq!(decoder_state(&fast), decoder_state(&slow), "seed {seed}");
            }
            // Every byte was somebody's: the range decoder stopped where the
            // tail decoder's last byte begins.
            assert_eq!(fast.pos + fast.raw_pos.div_ceil(8), data.len());
        }
    }

    /// On bytes no encoder wrote — short, empty, constant, random — a field
    /// still reads what its bits read one at a time would, and both streams
    /// go on into zeros.
    #[test]
    fn raw_fields_decode_garbage_like_bit_at_a_time_decoding() {
        use crate::differential::{decode_bits_oracle, decode_ue_oracle, decode_unary_oracle};
        let mut rng = SplitMix64::new(5);
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
                match rng.gen_range(0..4) {
                    0 => assert_eq!(
                        fast.decode_bit(&mut fast_model),
                        slow.decode_bit(&mut slow_model)
                    ),
                    1 => {
                        let n = rng.gen_range(0..=32u32);
                        assert_eq!(fast.decode_bits(n), decode_bits_oracle(&mut slow, n));
                    }
                    2 => {
                        // A prefix that runs into the cap ends there.
                        let (cap, n) = (rng.gen_range(0..=24u32), rng.gen_range(0..=32u32));
                        let want = match decode_unary_oracle(&mut slow, cap) {
                            Some(zeros) => (zeros, decode_bits_oracle(&mut slow, n)),
                            None => (cap, 0),
                        };
                        assert_eq!(fast.decode_unary_then(cap, n), want, "trial {trial}");
                    }
                    _ => assert_eq!(fast.decode_ue_bypass(), decode_ue_oracle(&mut slow)),
                }
                assert_eq!(decoder_state(&fast), decoder_state(&slow), "trial {trial}");
            }
        }
    }

    #[test]
    fn payload_is_the_range_coder_bytes_then_the_raw_bits_rounded_up() {
        for seed in 0..8 {
            let script = bypass_script(seed);
            // Cut the script at many lengths so every padding 0..=7 occurs.
            for cut in [0, 1, 2, 3, 5, 8, 13, 40, 333, script.len()] {
                let mut both = RangeEncoder::new();
                let mut front = RangeEncoder::new();
                let mut both_models = [BitModel::new(); 4];
                let mut front_models = [BitModel::new(); 4];
                let mut raw_bits = 0usize;
                for sym in &script[..cut] {
                    match *sym {
                        Sym::Ctx(c, bit) => {
                            both.encode_bit(&mut both_models[c], bit);
                            front.encode_bit(&mut front_models[c], bit);
                        }
                        Sym::Bits(v, n) => {
                            both.encode_bits(v, n);
                            raw_bits += n as usize;
                        }
                        Sym::Ue(v) => {
                            both.encode_ue_bypass(v);
                            raw_bits += 2 * (32 - (v + 1).leading_zeros()) as usize - 1;
                        }
                        Sym::Unary(zeros, v, n) => {
                            both.encode_unary_then(zeros, v, n);
                            raw_bits += (zeros + 1 + n) as usize;
                        }
                    }
                }
                let (both, front) = (both.finish(), front.finish());
                // No length field, under a byte of padding, and the front is
                // what the range coder writes when there is no tail at all.
                assert_eq!(both.len(), front.len() + raw_bits.div_ceil(8));
                assert_eq!(both[..front.len()], front[..]);
                if !raw_bits.is_multiple_of(8) {
                    let padding = both[front.len()] & (0xFF >> (raw_bits % 8));
                    assert_eq!(padding, 0, "seed {seed} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn tail_starts_at_the_last_byte_msb_first() {
        let mut enc = RangeEncoder::new();
        enc.encode_bypass(true);
        enc.encode_bits(0b0110, 4);
        enc.encode_ue_bypass(4); // 00101
        enc.encode_bits(0xABCD, 16);
        let data = enc.finish();
        assert_eq!(data.len(), 5 + 4);
        // 1 0110 00101 1010101111001101, cut into bytes from the first bit
        // on and padded: 10110001 01101010 11110011 01(000000).
        assert_eq!(
            data[5..],
            [0b0100_0000, 0b1111_0011, 0b0110_1010, 0b1011_0001]
        );
    }

    #[test]
    fn both_streams_read_zeros_past_their_end() {
        let mut rng = SplitMix64::new(17);
        for trial in 0..60 {
            let len = [0, 1, 4, 5, 7, 8, 9, 40][trial % 8];
            let data: Vec<u8> = match trial % 3 {
                0 => vec![0x00; len],
                1 => vec![0xFF; len],
                _ => (0..len).map(|_| rng.gen()).collect(),
            };
            // The range coder cannot tell a payload from one with zeros after
            // it, nor the tail from one with zeros before it.
            let mut after = data.clone();
            after.extend_from_slice(&[0; 24]);
            let mut before = vec![0u8; 24];
            before.extend_from_slice(&data);
            let (mut a, mut a_long) = (RangeDecoder::new(&data), RangeDecoder::new(&after));
            let (mut model, mut model_long) = (BitModel::new(), BitModel::new());
            for _ in 0..(len + 16) * 8 {
                assert_eq!(
                    a.decode_bit(&mut model),
                    a_long.decode_bit(&mut model_long),
                    "trial {trial}"
                );
            }
            let (mut b, mut b_long) = (RangeDecoder::new(&data), RangeDecoder::new(&before));
            while b.raw_pos < (len + 16) * 8 {
                let n = rng.gen_range(0..=32u32);
                assert_eq!(b.decode_bits(n), b_long.decode_bits(n), "trial {trial}");
                assert_eq!(b.decode_ue_bypass(), b_long.decode_ue_bypass());
            }
            // And past the payload's first byte there is nothing but zeros.
            assert_eq!(b.decode_bits(32), 0);
            assert!(!b.decode_bypass());
            assert_eq!(b.decode_ue_bypass(), (1u32 << 31) - 1);
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
