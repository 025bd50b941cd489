//! 8×8 floating-point DCT-II/III with the conventional zig-zag scan.
//!
//! The transform is orthonormal (`idct(dct(x)) == x` up to rounding), so the
//! only loss in the codec comes from quantisation — matching how real video
//! codecs behave and keeping the rate/distortion relationship clean.
//!
//! [`forward`] / [`inverse`] are a separable AAN-style (Arai–Agui–Nakajima)
//! butterfly — 5 multiplies and 29 additions per 8-point pass plus one
//! 64-entry scale map back to the orthonormal convention, against 64
//! multiplies per pass for the matrix form. The encoder and decoder share
//! it, so the closed loop stays self-consistent. Each dispatches to an AVX2
//! body or to the SSE2/scalar one a `LIVO_SIMD` cap selects; the matrix
//! transform they are checked against is a test oracle in
//! `tests/common/oracle.rs`. The scale maps are compile-time `const`s — no
//! `OnceLock` fetch (an atomic load per block) on the hot path.

/// Zig-zag scan order for an 8×8 block: `ZIGZAG[scan_pos] = raster_index`.
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// AAN post-/pre-scale factors: `SF[0] = 1`, `SF[k] = cos(kπ/16)·√2`.
const AAN_SF: [f64; 8] = [
    1.0,
    1.387_039_845_322_148,
    1.306_562_964_876_377,
    1.175_875_602_419_359,
    1.000_000_000_000_000_2,
    0.785_694_958_387_102_2,
    0.541_196_100_146_197,
    0.275_899_379_282_943_1,
];

const fn build_forward_scale() -> [f32; 64] {
    let mut t = [0.0f32; 64];
    let mut v = 0;
    while v < 8 {
        let mut u = 0;
        while u < 8 {
            t[v * 8 + u] = (1.0 / (8.0 * AAN_SF[u] * AAN_SF[v])) as f32;
            u += 1;
        }
        v += 1;
    }
    t
}

const fn build_inverse_scale() -> [f32; 64] {
    let mut t = [0.0f32; 64];
    let mut v = 0;
    while v < 8 {
        let mut u = 0;
        while u < 8 {
            t[v * 8 + u] = ((AAN_SF[u] * AAN_SF[v]) / 8.0) as f32;
            u += 1;
        }
        v += 1;
    }
    t
}

/// Maps raw AAN forward-butterfly output onto the orthonormal convention.
const FWD_SCALE: [f32; 64] = build_forward_scale();
/// Maps orthonormal coefficients onto the AAN inverse-butterfly input.
const INV_SCALE: [f32; 64] = build_inverse_scale();

// AAN rotator constants (f32, rounded from full-precision values).
const A_707: f32 = std::f32::consts::FRAC_1_SQRT_2; // cos(4π/16)
const A_382: f32 = 0.382_683_43; // cos(6π/16)
const A_541: f32 = 0.541_196_1; // cos(2π/16) − cos(6π/16)
const A_1306: f32 = 1.306_563; // cos(2π/16) + cos(6π/16)
const SQRT2: f32 = std::f32::consts::SQRT_2;
const A_1847: f32 = 1.847_759; // 2·cos(2π/16)
const A_1082: f32 = 1.082_392_2; // 2·(cos(2π/16) − cos(4π/16))
const A_2613: f32 = 2.613_126; // 2·(cos(2π/16) + cos(4π/16))

/// Round to the nearest integer, ties to even, branch-free: the magic-number
/// trick. Adding `1.5·2^23` pushes the value into the f32 range whose ulp is
/// exactly 1, so the hardware add performs the rounding; subtracting recovers
/// the integer. Valid for `|x| ≤ 2^22`, far above any dequantised sample this
/// codec produces. Unlike `f32::round` (a libm call on baseline x86-64, and
/// ties away from zero) this is two adds and vectorises; the tie-break
/// difference only matters at exact `.5` inputs, which quantisation noise
/// makes measure-zero — and encoder and decoder share this path, so the
/// closed loop stays self-consistent either way.
#[inline(always)]
pub(crate) fn round_i32(x: f32) -> i32 {
    // `MAGIC + n` for integer `n` in ±2^22 stays inside [2^23, 2^24), where
    // consecutive f32s are consecutive integers — so the rounded integer sits
    // directly in the low mantissa bits, and an integer subtract extracts it
    // without a float→int cast (whose Rust saturating semantics cost a
    // clamp sequence per element). The subtract wraps: a corrupt stream can
    // dequantise to anything, and the decoder has to stay total on it.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    ((x + MAGIC).to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32)
}

// Lane-parallel helpers for the butterfly passes: one `[f32; W]` holds the
// same butterfly variable across W independent 8-point signals, so every op
// below is elementwise and auto-vectorises. The passes run W = 4 so the ~16
// live butterfly variables fit the 16 SSE registers of baseline x86-64
// without spilling; per-lane arithmetic order is identical regardless of W,
// so results are bit-identical to any scalar reading of the same butterfly.
#[inline(always)]
fn vadd<const W: usize>(a: [f32; W], b: [f32; W]) -> [f32; W] {
    std::array::from_fn(|i| a[i] + b[i])
}
#[inline(always)]
fn vsub<const W: usize>(a: [f32; W], b: [f32; W]) -> [f32; W] {
    std::array::from_fn(|i| a[i] - b[i])
}
#[inline(always)]
fn vmul<const W: usize>(a: [f32; W], k: f32) -> [f32; W] {
    std::array::from_fn(|i| a[i] * k)
}

/// 8×8 transpose of the lane matrix. On x86-64 this is four SSE 4×4
/// unpack/move-half transposes (SSE2 is part of the baseline ABI, so no
/// runtime feature detection is needed); elsewhere it falls back to the
/// scalar loop. Pure data movement — results are bit-identical either way.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn transpose8(m: [[f32; 8]; 8]) -> [[f32; 8]; 8] {
    use std::arch::x86_64::*;
    let mut out = [[0.0f32; 8]; 8];
    // SAFETY: both matrices are 64 contiguous f32s; every load/store below
    // stays inside them, and SSE2 is unconditionally available on x86-64.
    unsafe {
        let p = m.as_ptr() as *const f32;
        let q = out.as_mut_ptr() as *mut f32;
        for (bi, bj) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
            let a = _mm_loadu_ps(p.add((bi * 4) * 8 + bj * 4));
            let b = _mm_loadu_ps(p.add((bi * 4 + 1) * 8 + bj * 4));
            let c = _mm_loadu_ps(p.add((bi * 4 + 2) * 8 + bj * 4));
            let d = _mm_loadu_ps(p.add((bi * 4 + 3) * 8 + bj * 4));
            let t0 = _mm_unpacklo_ps(a, b);
            let t1 = _mm_unpackhi_ps(a, b);
            let t2 = _mm_unpacklo_ps(c, d);
            let t3 = _mm_unpackhi_ps(c, d);
            _mm_storeu_ps(q.add((bj * 4) * 8 + bi * 4), _mm_movelh_ps(t0, t2));
            _mm_storeu_ps(q.add((bj * 4 + 1) * 8 + bi * 4), _mm_movehl_ps(t2, t0));
            _mm_storeu_ps(q.add((bj * 4 + 2) * 8 + bi * 4), _mm_movelh_ps(t1, t3));
            _mm_storeu_ps(q.add((bj * 4 + 3) * 8 + bi * 4), _mm_movehl_ps(t3, t1));
        }
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn transpose8(m: [[f32; 8]; 8]) -> [[f32; 8]; 8] {
    std::array::from_fn(|i| std::array::from_fn(|j| m[j][i]))
}

/// One 8-point AAN forward pass — 5 multiplies, 29 additions — across W
/// independent signals at once: `s[k]` is butterfly input `k` for every
/// lane. Output is the *scaled* DCT; [`FWD_SCALE`] folds it back to
/// orthonormal.
#[inline(always)]
fn fdct8_half<const W: usize>(s: [[f32; W]; 8]) -> [[f32; W]; 8] {
    let [s0, s1, s2, s3, s4, s5, s6, s7] = s;
    let tmp0 = vadd(s0, s7);
    let tmp7 = vsub(s0, s7);
    let tmp1 = vadd(s1, s6);
    let tmp6 = vsub(s1, s6);
    let tmp2 = vadd(s2, s5);
    let tmp5 = vsub(s2, s5);
    let tmp3 = vadd(s3, s4);
    let tmp4 = vsub(s3, s4);

    // Even part.
    let tmp10 = vadd(tmp0, tmp3);
    let tmp13 = vsub(tmp0, tmp3);
    let tmp11 = vadd(tmp1, tmp2);
    let tmp12 = vsub(tmp1, tmp2);
    let o0 = vadd(tmp10, tmp11);
    let o4 = vsub(tmp10, tmp11);
    let z1 = vmul(vadd(tmp12, tmp13), A_707);
    let o2 = vadd(tmp13, z1);
    let o6 = vsub(tmp13, z1);

    // Odd part.
    let tmp10 = vadd(tmp4, tmp5);
    let tmp11 = vadd(tmp5, tmp6);
    let tmp12 = vadd(tmp6, tmp7);
    let z5 = vmul(vsub(tmp10, tmp12), A_382);
    let z2 = vadd(vmul(tmp10, A_541), z5);
    let z4 = vadd(vmul(tmp12, A_1306), z5);
    let z3 = vmul(tmp11, A_707);
    let z11 = vadd(tmp7, z3);
    let z13 = vsub(tmp7, z3);
    let o5 = vadd(z13, z2);
    let o3 = vsub(z13, z2);
    let o1 = vadd(z11, z4);
    let o7 = vsub(z11, z4);

    [o0, o1, o2, o3, o4, o5, o6, o7]
}

/// One 8-point AAN inverse pass across W independent signals at once
/// (expects [`INV_SCALE`]-premultiplied input).
#[inline(always)]
fn idct8_half<const W: usize>(s: [[f32; W]; 8]) -> [[f32; W]; 8] {
    let [s0, s1, s2, s3, s4, s5, s6, s7] = s;
    // Even part.
    let tmp10 = vadd(s0, s4);
    let tmp11 = vsub(s0, s4);
    let tmp13 = vadd(s2, s6);
    let tmp12 = vsub(vmul(vsub(s2, s6), SQRT2), tmp13);
    let t0 = vadd(tmp10, tmp13);
    let t3 = vsub(tmp10, tmp13);
    let t1 = vadd(tmp11, tmp12);
    let t2 = vsub(tmp11, tmp12);

    // Odd part.
    let z13 = vadd(s5, s3);
    let z10 = vsub(s5, s3);
    let z11 = vadd(s1, s7);
    let z12 = vsub(s1, s7);
    let t7 = vadd(z11, z13);
    let tmp11 = vmul(vsub(z11, z13), SQRT2);
    let z5 = vmul(vadd(z10, z12), A_1847);
    let tmp10 = vsub(vmul(z12, A_1082), z5);
    let tmp12 = vsub(z5, vmul(z10, A_2613));
    let t6 = vsub(tmp12, t7);
    let t5 = vsub(tmp11, t6);
    let t4 = vadd(tmp10, t5);

    [
        vadd(t0, t7),
        vadd(t1, t6),
        vadd(t2, t5),
        vsub(t3, t4),
        vadd(t3, t4),
        vsub(t2, t5),
        vsub(t1, t6),
        vsub(t0, t7),
    ]
}

// Run a butterfly pass over all 8 lanes as two sequential 4-wide halves.
// Each half keeps its ~16 live variables in the 16 SSE registers; the two
// halves are independent, so out-of-order execution overlaps their latency
// chains. (Written as a macro so the half pass reliably inlines.)
macro_rules! by_halves {
    ($pass:ident, $s:expr) => {{
        let s: [[f32; 8]; 8] = $s;
        let mut out = [[0.0f32; 8]; 8];
        for h in 0..2 {
            let g: [[f32; 4]; 8] =
                std::array::from_fn(|k| std::array::from_fn(|i| s[k][h * 4 + i]));
            let o = $pass::<4>(g);
            for k in 0..8 {
                out[k][h * 4..h * 4 + 4].copy_from_slice(&o[k]);
            }
        }
        out
    }};
}

#[inline(always)]
fn fdct8_lanes(s: [[f32; 8]; 8]) -> [[f32; 8]; 8] {
    by_halves!(fdct8_half, s)
}

#[inline(always)]
fn idct8_lanes(s: [[f32; 8]; 8]) -> [[f32; 8]; 8] {
    by_halves!(idct8_half, s)
}

/// Forward 8×8 DCT of a raster-order block of samples. Output is raster
/// order (DC at index 0). Dispatches to the AVX2 path when the runtime tier
/// allows (bit-identical — see the `avx2` module); agrees with the matrix transform
/// up to f32 rounding either way.
pub fn forward(block: &[i32; 64]) -> [f32; 64] {
    #[cfg(target_arch = "x86_64")]
    if livo_math::simd::has_avx2() {
        // SAFETY: has_avx2() never reports true unless the CPU supports it.
        return unsafe { avx2::forward(block) };
    }
    forward_baseline(block)
}

/// Inverse 8×8 DCT back to integer samples (rounded, unclamped). Dispatches
/// like [`forward`]; agrees with the matrix transform up to the same rounding
/// the codec's tolerances already allow.
pub fn inverse(coeffs: &[f32; 64]) -> [i32; 64] {
    #[cfg(target_arch = "x86_64")]
    if livo_math::simd::has_avx2() {
        // SAFETY: has_avx2() never reports true unless the CPU supports it.
        return unsafe { avx2::inverse(coeffs) };
    }
    inverse_baseline(coeffs)
}

/// The SSE2/scalar tier (4-wide halves + SSE2 transpose), what
/// [`forward`] runs below AVX2.
fn forward_baseline(block: &[i32; 64]) -> [f32; 64] {
    // Column pass first: a row-major load puts column `u` in lane `u`, so
    // the int→float conversion and the whole pass stay contiguous.
    let rows: [[f32; 8]; 8] =
        std::array::from_fn(|y| std::array::from_fn(|x| block[y * 8 + x] as f32));
    let c = fdct8_lanes(rows); // c[v][u] = column-DCT coefficient v of column u
    let mut o = fdct8_lanes(transpose8(c)); // o[w][v] = coefficient (v, w)
                                            // Fold back to the orthonormal convention while still in lane registers;
                                            // FWD_SCALE is symmetric in (u, v), so the transposed layout indexes it
                                            // contiguously. The last transpose then writes raster order directly.
    for (w, lane) in o.iter_mut().enumerate() {
        for (v, val) in lane.iter_mut().enumerate() {
            *val *= FWD_SCALE[w * 8 + v];
        }
    }
    let f = transpose8(o);
    let mut d = [0.0f32; 64];
    for (v, lane) in f.iter().enumerate() {
        d[v * 8..v * 8 + 8].copy_from_slice(lane);
    }
    d
}

/// The SSE2/scalar tier of [`inverse`]; see [`forward_baseline`].
fn inverse_baseline(coeffs: &[f32; 64]) -> [i32; 64] {
    // Pre-scale while loading: lane `u` carries column `u`, index `v` is
    // the coefficient row, so the column pass needs no transpose.
    let rows: [[f32; 8]; 8] =
        std::array::from_fn(|v| std::array::from_fn(|u| coeffs[v * 8 + u] * INV_SCALE[v * 8 + u]));
    let c = idct8_lanes(rows); // c[y][u] = column-IDCT sample y of column u
    let o = idct8_lanes(transpose8(c)); // o[x][y] = sample (x, y)
    let f = transpose8(o); // back to raster order: f[y] is output row y
    let mut out = [0i32; 64];
    for (y, lane) in f.iter().enumerate() {
        for (x, val) in lane.iter().enumerate() {
            out[y * 8 + x] = round_i32(*val);
        }
    }
    out
}

/// AVX2 tier: the same AAN butterflies at the full lane width — one 256-bit
/// register per butterfly variable instead of two 4-wide halves — written
/// directly in intrinsics so every stage (int→float conversion, both
/// passes, the unpack/shuffle/permute2f128 transposes, the scale multiply,
/// the magic-number rounding) stays in `__m256` registers with no stack
/// round-trips between stages.
///
/// Bit-exactness with the baseline is by construction: `vaddps`/`vsubps`/
/// `vmulps` are per-lane IEEE operations applied in *exactly* the operation
/// order of [`fdct8_half`]/[`idct8_half`], `vcvtdq2ps` rounds like `as f32`,
/// the transposes are pure data movement, and only `avx2` is enabled (never
/// `fma`, whose contraction would change rounding). The in-module tests pin
/// this against [`forward_baseline`] / [`inverse_baseline`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Full 8×8 transpose on eight 256-bit rows, register to register:
    /// interleave pairs of rows, then pairs of pairs, then swap 128-bit
    /// halves — the standard three-stage 8×8 float transpose.
    #[inline(always)]
    unsafe fn transpose8_avx2(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// [`fdct8_half`] on 256-bit lanes, same operations in the same order.
    #[inline(always)]
    unsafe fn fdct8_m256(s: [__m256; 8]) -> [__m256; 8] {
        let add = |a, b| _mm256_add_ps(a, b);
        let sub = |a, b| _mm256_sub_ps(a, b);
        let mul = |a, k: f32| _mm256_mul_ps(a, _mm256_set1_ps(k));
        let [s0, s1, s2, s3, s4, s5, s6, s7] = s;
        let tmp0 = add(s0, s7);
        let tmp7 = sub(s0, s7);
        let tmp1 = add(s1, s6);
        let tmp6 = sub(s1, s6);
        let tmp2 = add(s2, s5);
        let tmp5 = sub(s2, s5);
        let tmp3 = add(s3, s4);
        let tmp4 = sub(s3, s4);

        // Even part.
        let tmp10 = add(tmp0, tmp3);
        let tmp13 = sub(tmp0, tmp3);
        let tmp11 = add(tmp1, tmp2);
        let tmp12 = sub(tmp1, tmp2);
        let o0 = add(tmp10, tmp11);
        let o4 = sub(tmp10, tmp11);
        let z1 = mul(add(tmp12, tmp13), A_707);
        let o2 = add(tmp13, z1);
        let o6 = sub(tmp13, z1);

        // Odd part.
        let tmp10 = add(tmp4, tmp5);
        let tmp11 = add(tmp5, tmp6);
        let tmp12 = add(tmp6, tmp7);
        let z5 = mul(sub(tmp10, tmp12), A_382);
        let z2 = add(mul(tmp10, A_541), z5);
        let z4 = add(mul(tmp12, A_1306), z5);
        let z3 = mul(tmp11, A_707);
        let z11 = add(tmp7, z3);
        let z13 = sub(tmp7, z3);
        let o5 = add(z13, z2);
        let o3 = sub(z13, z2);
        let o1 = add(z11, z4);
        let o7 = sub(z11, z4);

        [o0, o1, o2, o3, o4, o5, o6, o7]
    }

    /// [`idct8_half`] on 256-bit lanes, same operations in the same order.
    #[inline(always)]
    unsafe fn idct8_m256(s: [__m256; 8]) -> [__m256; 8] {
        let add = |a, b| _mm256_add_ps(a, b);
        let sub = |a, b| _mm256_sub_ps(a, b);
        let mul = |a, k: f32| _mm256_mul_ps(a, _mm256_set1_ps(k));
        let [s0, s1, s2, s3, s4, s5, s6, s7] = s;
        // Even part.
        let tmp10 = add(s0, s4);
        let tmp11 = sub(s0, s4);
        let tmp13 = add(s2, s6);
        let tmp12 = sub(mul(sub(s2, s6), SQRT2), tmp13);
        let t0 = add(tmp10, tmp13);
        let t3 = sub(tmp10, tmp13);
        let t1 = add(tmp11, tmp12);
        let t2 = sub(tmp11, tmp12);

        // Odd part.
        let z13 = add(s5, s3);
        let z10 = sub(s5, s3);
        let z11 = add(s1, s7);
        let z12 = sub(s1, s7);
        let t7 = add(z11, z13);
        let tmp11 = mul(sub(z11, z13), SQRT2);
        let z5 = mul(add(z10, z12), A_1847);
        let tmp10 = sub(mul(z12, A_1082), z5);
        let tmp12 = sub(z5, mul(z10, A_2613));
        let t6 = sub(tmp12, t7);
        let t5 = sub(tmp11, t6);
        let t4 = add(tmp10, t5);

        [
            add(t0, t7),
            add(t1, t6),
            add(t2, t5),
            sub(t3, t4),
            add(t3, t4),
            sub(t2, t5),
            sub(t1, t6),
            sub(t0, t7),
        ]
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn forward(block: &[i32; 64]) -> [f32; 64] {
        let p = block.as_ptr();
        // vcvtdq2ps rounds to nearest even, identical to `i32 as f32`.
        let rows: [__m256; 8] = std::array::from_fn(|y| {
            _mm256_cvtepi32_ps(_mm256_loadu_si256(p.add(y * 8) as *const __m256i))
        });
        let c = fdct8_m256(rows);
        let o = fdct8_m256(transpose8_avx2(c));
        let sp = FWD_SCALE.as_ptr();
        let scaled: [__m256; 8] =
            std::array::from_fn(|w| _mm256_mul_ps(o[w], _mm256_loadu_ps(sp.add(w * 8))));
        let f = transpose8_avx2(scaled);
        let mut d = [0.0f32; 64];
        let q = d.as_mut_ptr();
        for (v, lane) in f.iter().enumerate() {
            _mm256_storeu_ps(q.add(v * 8), *lane);
        }
        d
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn inverse(coeffs: &[f32; 64]) -> [i32; 64] {
        let p = coeffs.as_ptr();
        let sp = INV_SCALE.as_ptr();
        let rows: [__m256; 8] = std::array::from_fn(|v| {
            _mm256_mul_ps(
                _mm256_loadu_ps(p.add(v * 8)),
                _mm256_loadu_ps(sp.add(v * 8)),
            )
        });
        let c = idct8_m256(rows);
        let o = idct8_m256(transpose8_avx2(c));
        let f = transpose8_avx2(o);
        // Vectorised `round_i32`: the same magic-number add then mantissa
        // extraction by integer subtract, 8 lanes at a time.
        const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
        let magic = _mm256_set1_ps(MAGIC);
        let magic_bits = _mm256_set1_epi32(MAGIC.to_bits() as i32);
        let mut out = [0i32; 64];
        let q = out.as_mut_ptr();
        for (y, lane) in f.iter().enumerate() {
            let rounded =
                _mm256_sub_epi32(_mm256_castps_si256(_mm256_add_ps(*lane, magic)), magic_bits);
            _mm256_storeu_si256(q.add(y * 8) as *mut __m256i, rounded);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{forward_ref, inverse_ref, COS};

    /// Deterministic pseudo-random block generator (xorshift), no rand dep.
    fn pseudo_block(seed: u64, peak: i32) -> [i32; 64] {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut b = [0i32; 64];
        for v in &mut b {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s % (peak as u64 + 1)) as i32;
        }
        b
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Starts at DC, walks the first anti-diagonal.
        assert_eq!(&ZIGZAG[..4], &[0, 1, 8, 16]);
    }

    #[test]
    fn const_cos_table_matches_runtime_computation() {
        for (u, row) in COS.iter().enumerate() {
            let cu = if u == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            };
            for (x, &got) in row.iter().enumerate() {
                let want =
                    cu * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos();
                let got = got as f64;
                assert!((got - want).abs() < 1e-7, "COS[{u}][{x}]: {got} vs {want}");
            }
        }
    }

    #[test]
    fn dc_of_constant_block() {
        let block = [100i32; 64];
        let c = forward(&block);
        // Orthonormal DCT: DC = 8 * sample value for a constant block.
        assert!((c[0] - 800.0).abs() < 1e-2, "DC {}", c[0]);
        for &v in &c[1..] {
            assert!(v.abs() < 1e-3, "AC leak {v}");
        }
    }

    #[test]
    fn round_trip_is_exact_for_8bit() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 256) as i32;
        }
        let back = inverse(&forward(&block));
        assert_eq!(back, block);
    }

    #[test]
    fn round_trip_is_exact_for_16bit() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 9973) % 65536) as i32;
        }
        let back = inverse(&forward(&block));
        // f32 basis: 16-bit content can be off by ±1 after rounding.
        for (a, b) in back.iter().zip(&block) {
            assert!((a - b).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn round_trip_of_residuals_with_negatives() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as i32 % 17) - 8;
        }
        let back = inverse(&forward(&block));
        assert_eq!(back, block);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 53) % 101) as i32 - 50;
        }
        let c = forward(&block);
        let e_spatial: f64 = block.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let e_freq: f64 = c.iter().map(|&v| (v as f64) * (v as f64)).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial.max(1.0) < 1e-4);
    }

    #[test]
    fn smooth_block_concentrates_energy_in_low_frequencies() {
        let mut block = [0i32; 64];
        for y in 0..8 {
            for x in 0..8 {
                block[y * 8 + x] = (x * 10 + y * 5) as i32; // linear ramp
            }
        }
        let c = forward(&block);
        // Energy in the first 10 zig-zag coefficients dominates.
        let low: f64 = ZIGZAG[..10].iter().map(|&i| (c[i] as f64).powi(2)).sum();
        let total: f64 = c.iter().map(|&v| (v as f64).powi(2)).sum();
        assert!(low / total > 0.999, "low-frequency share {}", low / total);
    }

    /// Differential: AAN forward agrees coefficient-by-coefficient with the
    /// matrix oracle, for 8-bit, 16-bit and residual content.
    #[test]
    fn aan_forward_matches_reference() {
        for seed in 0..32u64 {
            for peak in [255, 65535] {
                let mut block = pseudo_block(seed + 1, peak);
                if seed % 2 == 1 {
                    // Residual-like content with negatives.
                    for v in &mut block {
                        *v -= peak / 2;
                    }
                }
                let fast = forward(&block);
                let naive = forward_ref(&block);
                for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
                    let tol = 1e-4 * (peak as f32) + 1e-3;
                    assert!(
                        (a - b).abs() <= tol,
                        "seed {seed} peak {peak} coeff {i}: aan {a} vs ref {b}"
                    );
                }
            }
        }
    }

    /// The AVX2 tier must be **bit-identical** to the baseline — not merely
    /// within tolerance — or encoder and decoder could disagree across
    /// machines. Exercises both transform directions on 8-bit, 16-bit and
    /// residual content. No-op on hosts without AVX2.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_paths_are_bit_identical_to_baseline() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for seed in 0..64u64 {
            for peak in [255, 65535] {
                let mut block = pseudo_block(seed + 1, peak);
                if seed % 2 == 1 {
                    for v in &mut block {
                        *v -= peak / 2;
                    }
                }
                // SAFETY: guarded by the runtime AVX2 check above.
                let fwd = unsafe { avx2::forward(&block) };
                let base = forward_baseline(&block);
                assert_eq!(
                    fwd.map(f32::to_bits),
                    base.map(f32::to_bits),
                    "seed {seed} peak {peak}: avx2 forward diverged"
                );
                let inv = unsafe { avx2::inverse(&fwd) };
                assert_eq!(
                    inv,
                    inverse_baseline(&base),
                    "seed {seed} peak {peak}: avx2 inverse diverged"
                );
            }
        }
    }

    /// Differential: cross-implementation round trips stay within the same
    /// tolerance as the same-implementation round trip (exact for 8-bit,
    /// ±1 for 16-bit content).
    #[test]
    fn cross_implementation_round_trips_match_tolerances() {
        for seed in 0..16u64 {
            let b8 = pseudo_block(seed + 101, 255);
            assert_eq!(inverse(&forward_ref(&b8)), b8, "seed {seed} aan∘ref 8bit");
            assert_eq!(inverse_ref(&forward(&b8)), b8, "seed {seed} ref∘aan 8bit");
            let b16 = pseudo_block(seed + 201, 65535);
            for (name, back) in [
                ("aan∘ref", inverse(&forward_ref(&b16))),
                ("ref∘aan", inverse_ref(&forward(&b16))),
                ("aan∘aan", inverse(&forward(&b16))),
            ] {
                for (a, b) in back.iter().zip(&b16) {
                    assert!((a - b).abs() <= 1, "seed {seed} {name}: {a} vs {b}");
                }
            }
        }
    }
}
