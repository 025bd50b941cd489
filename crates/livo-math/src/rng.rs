//! The workspace's one pseudo-random generator and the seeded-case runner
//! its property tests are written on.
//!
//! [`SplitMix64`] is the generator every committed number in this
//! repository came from; its arithmetic is pinned by the tests below, so
//! traces, loss draws and bench snapshots repeat for a seed.

use std::ops::{Range, RangeInclusive};

/// Steele, Lea & Flood's 64-bit mixer over a Weyl sequence.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

impl SplitMix64 {
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed.wrapping_mul(GAMMA) ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An unsigned integer (the low bits of one draw) or an `f32` in
    /// `[0, 1)`.
    #[inline]
    pub fn gen<T: Draw>(&mut self) -> T {
        T::from_bits(self.next_u64())
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }

    /// Uniform in `lo..hi` or `lo..=hi`; panics on an empty integer range.
    #[inline]
    pub fn gen_range<T: Uniform>(&mut self, range: impl Bounds<T>) -> T {
        let (lo, hi, inclusive) = range.bounds();
        T::between(lo, hi, inclusive, self.next_u64())
    }

    /// Fisher–Yates, from the last element down.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.gen_range(0..=i));
        }
    }
}

/// Types [`SplitMix64::gen`] produces from one 64-bit draw.
#[doc(hidden)]
pub trait Draw {
    fn from_bits(bits: u64) -> Self;
}

/// Types [`SplitMix64::gen_range`] produces from one 64-bit draw.
#[doc(hidden)]
pub trait Uniform: Sized {
    fn between(lo: Self, hi: Self, inclusive: bool, bits: u64) -> Self;
}

/// `lo..hi` and `lo..=hi` as `(lo, hi, inclusive)`.
#[doc(hidden)]
pub trait Bounds<T> {
    fn bounds(self) -> (T, T, bool);
}

impl<T> Bounds<T> for Range<T> {
    #[inline]
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> Bounds<T> for RangeInclusive<T> {
    #[inline]
    fn bounds(self) -> (T, T, bool) {
        let (lo, hi) = self.into_inner();
        (lo, hi, true)
    }
}

macro_rules! draws {
    ($($t:ty),*) => {$(
        impl Draw for $t {
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
draws!(u8, u16, u32, u64);

impl Draw for f32 {
    #[inline]
    fn from_bits(bits: u64) -> Self {
        (bits >> 40) as f32 / (1u64 << 24) as f32
    }
}

macro_rules! ints {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn between(lo: Self, hi: Self, inclusive: bool, bits: u64) -> Self {
                let span = hi as i128 - lo as i128 + inclusive as i128;
                assert!(span > 0, "empty range in gen_range");
                (lo as i128 + (bits as i128).rem_euclid(span)) as $t
            }
        }
    )*};
}
ints!(u8, u16, u32, u64, usize, i16, i32);

macro_rules! floats {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn between(lo: Self, hi: Self, _inclusive: bool, bits: u64) -> Self {
                (lo as f64 + unit_f64(bits) * (hi as f64 - lo as f64)) as $t
            }
        }
    )*};
}
floats!(f32, f64);

/// Run `property` on `n` freshly seeded generators: the first on
/// `base_seed` itself — which is what makes a printed seed replayable —
/// the rest on the successive draws of `SplitMix64::new(base_seed)`, so
/// case 1's seed is also case 0's first draw and two suites given the same
/// base seed see the same streams. A case fails by panicking; its index
/// and seed are printed on the way out, and `cases(that_seed, 1, ..)`
/// replays it. No shrinking.
pub fn cases(base_seed: u64, n: u32, mut property: impl FnMut(&mut SplitMix64)) {
    struct Replay(u32, u64);
    impl Drop for Replay {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case {}, seed {:#x}", self.0, self.1);
            }
        }
    }
    let mut seeds = SplitMix64::new(base_seed);
    let mut seed = base_seed;
    for case in 0..n {
        let _replay = Replay(case, seed);
        property(&mut SplitMix64::new(seed));
        seed = seeds.next_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pinned() {
        // First draws of seed 1: every committed trace, loss pattern and
        // bench snapshot depends on this stream.
        let mut r = SplitMix64::new(1);
        assert_eq!(r.next_u64(), 0x1EA5_9F28_78E5_1FB5);
        assert_eq!(r.gen::<u8>(), 0xF5);
    }

    #[test]
    fn ranges_hold_their_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..2000 {
            assert!((-3..4).contains(&r.gen_range(-3i32..4)));
            assert!((250..=255).contains(&r.gen_range(250u8..=255)));
            assert!((0.5..2.0).contains(&r.gen_range(0.5f32..2.0)));
            let _: u64 = r.gen_range(0..=u64::MAX);
        }
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix64::new(3).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn cases_replay_from_the_printed_seed() {
        let mut firsts = Vec::new();
        cases(11, 4, |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts[0], SplitMix64::new(11).next_u64());
        let mut replayed = 0;
        let third_seed = {
            let mut s = SplitMix64::new(11);
            s.next_u64();
            s.next_u64()
        };
        cases(third_seed, 1, |rng| replayed = rng.next_u64());
        assert_eq!(replayed, firsts[2]);
    }
}
