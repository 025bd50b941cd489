//! Quantisation: mapping transform coefficients to integer levels.
//!
//! QP follows the H.26x convention: the step size doubles every 6 QP values.
//! The valid range is 0–51 for 8-bit content; 16-bit content re-uses the
//! same scale (the paper's depth scaling works precisely because a given
//! step size erases low-order bits — scaling depth up moves signal above the
//! erased bits).

/// Inclusive QP range.
pub const QP_MIN: u8 = 0;
pub const QP_MAX: u8 = 51;
/// Finest QP the encoder codes at, rate-controlled or fixed.
pub const QP_FLOOR: u8 = 4;

/// Quantisation step size for a QP, H.26x-style: `0.625 · 2^(qp/6)`.
pub fn qstep(qp: u8) -> f32 {
    0.625 * 2.0f32.powf(qp as f32 / 6.0)
}

/// Quantise one coefficient (uniform, dead-zone-free rounding).
///
/// Rounding is `f32::round` — ties away from zero — and is frozen: real
/// content hits exact-`.5` quotients, so switching to the DCT scale path's
/// ties-to-even `round_i32` would change committed bitstreams (the golden
/// pins catch exactly that). The scalar and SIMD block paths instead
/// share one rounding contract structurally: both run this same
/// `#[inline(always)]` body, pinned bitwise by a differential test.
#[inline]
pub fn quantize(coeff: f32, step: f32) -> i32 {
    (coeff / step).round() as i32
}

/// Reconstruct a coefficient from its level.
#[inline]
pub fn dequantize(level: i32, step: f32) -> f32 {
    level as f32 * step
}

/// Quantise a whole block, DC getting a finer step (`dc_scale < 1`) because
/// DC errors are the most visible (and for depth, the most damaging).
/// Dispatches to a 256-bit path on AVX2 hosts; the division stays a true
/// `vdivps` (never a reciprocal multiply), so results are bit-exact with
/// the scalar tier.
pub fn quantize_block(coeffs: &[f32; 64], step: f32, dc_scale: f32) -> [i32; 64] {
    #[cfg(target_arch = "x86_64")]
    if livo_math::simd::has_avx2() {
        // SAFETY: has_avx2() never reports true unless the CPU supports it.
        return unsafe { quantize_block_avx2(coeffs, step, dc_scale) };
    }
    quantize_block_body(coeffs, step, dc_scale)
}

/// Inverse of [`quantize_block`]; same dispatch and bit-exactness contract.
pub fn dequantize_block(levels: &[i32; 64], step: f32, dc_scale: f32) -> [f32; 64] {
    #[cfg(target_arch = "x86_64")]
    if livo_math::simd::has_avx2() {
        // SAFETY: has_avx2() never reports true unless the CPU supports it.
        return unsafe { dequantize_block_avx2(levels, step, dc_scale) };
    }
    dequantize_block_body(levels, step, dc_scale)
}

// The shared block bodies: `#[inline(always)]`, so the `#[target_feature]`
// wrappers below recompile the identical element-wise loops with 256-bit
// vectors. Same per-element operations in the same order → bit-exact.
#[inline(always)]
fn quantize_block_body(coeffs: &[f32; 64], step: f32, dc_scale: f32) -> [i32; 64] {
    let mut out = [0i32; 64];
    for i in 0..64 {
        out[i] = quantize(coeffs[i], step);
    }
    out[0] = quantize(coeffs[0], step * dc_scale);
    out
}

#[inline(always)]
fn dequantize_block_body(levels: &[i32; 64], step: f32, dc_scale: f32) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for i in 0..64 {
        out[i] = dequantize(levels[i], step);
    }
    out[0] = dequantize(levels[0], step * dc_scale);
    out
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_block_avx2(coeffs: &[f32; 64], step: f32, dc_scale: f32) -> [i32; 64] {
    quantize_block_body(coeffs, step, dc_scale)
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequantize_block_avx2(levels: &[i32; 64], step: f32, dc_scale: f32) -> [f32; 64] {
    dequantize_block_body(levels, step, dc_scale)
}

/// Default DC step scale.
pub const DC_SCALE: f32 = 0.5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qstep_doubles_every_six() {
        for qp in 0..=(QP_MAX - 6) {
            let ratio = qstep(qp + 6) / qstep(qp);
            assert!((ratio - 2.0).abs() < 1e-4, "qp {qp}: ratio {ratio}");
        }
    }

    #[test]
    fn qstep_is_monotonic() {
        for qp in QP_MIN..QP_MAX {
            assert!(qstep(qp + 1) > qstep(qp));
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded_by_half_step() {
        let step = qstep(30);
        for c in [-1000.0f32, -3.3, 0.0, 7.7, 123.4, 9999.0] {
            let l = quantize(c, step);
            let r = dequantize(l, step);
            assert!(
                (r - c).abs() <= step / 2.0 + 1e-3,
                "coeff {c}: err {}",
                (r - c).abs()
            );
        }
    }

    #[test]
    fn zero_is_fixed_point() {
        assert_eq!(quantize(0.0, qstep(20)), 0);
        assert_eq!(dequantize(0, qstep(20)), 0.0);
    }

    #[test]
    fn coarser_qp_zeroes_more_coefficients() {
        let coeffs: [f32; 64] = std::array::from_fn(|i| (i as f32 * 0.7).sin() * 20.0);
        let fine = quantize_block(&coeffs, qstep(10), DC_SCALE);
        let coarse = quantize_block(&coeffs, qstep(40), DC_SCALE);
        let nz = |b: &[i32; 64]| b.iter().filter(|&&v| v != 0).count();
        assert!(nz(&coarse) < nz(&fine));
    }

    /// The quantiser's rounding contract is frozen at ties-away-from-zero
    /// (`f32::round`): committed bitstreams — the golden pins — depend on
    /// exact-`.5` quotients landing this way on every tier.
    #[test]
    fn quantize_rounds_ties_away_from_zero() {
        for (coeff, want) in [
            (6.5f32, 7),
            (7.5, 8),
            (8.5, 9),
            (-6.5, -7),
            (-7.5, -8),
            (0.5, 1),
            (-0.5, -1),
            (1.49, 1),
            (1.51, 2),
        ] {
            assert_eq!(quantize(coeff, 1.0), want, "coeff {coeff}");
        }
    }

    /// Differential: the block paths (AVX2 on capable hosts, the scalar
    /// body elsewhere) must agree bitwise with per-element `quantize` /
    /// `dequantize` across QPs and magnitudes up to 16-bit DCT output.
    #[test]
    fn block_paths_match_per_element_scalar_bitwise() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for qp in [0u8, 4, 12, 26, 40, 51] {
            let step = qstep(qp);
            for _ in 0..16 {
                let coeffs: [f32; 64] = std::array::from_fn(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    // ±~524k: the forward-DCT range for 16-bit content.
                    (s % 1_048_577) as f32 - 524_288.0
                });
                let q = quantize_block(&coeffs, step, DC_SCALE);
                assert_eq!(q[0], quantize(coeffs[0], step * DC_SCALE), "qp {qp} DC");
                for i in 1..64 {
                    assert_eq!(q[i], quantize(coeffs[i], step), "qp {qp} coeff {i}");
                }
                let d = quantize_block(&coeffs, step, DC_SCALE);
                let deq = dequantize_block(&d, step, DC_SCALE);
                assert_eq!(
                    deq[0].to_bits(),
                    dequantize(d[0], step * DC_SCALE).to_bits(),
                    "qp {qp} DC dequant"
                );
                for i in 1..64 {
                    assert_eq!(
                        deq[i].to_bits(),
                        dequantize(d[i], step).to_bits(),
                        "qp {qp} dequant {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_uses_finer_step() {
        let mut coeffs = [0.0f32; 64];
        coeffs[0] = 10.0;
        coeffs[1] = 10.0;
        let step = 15.0;
        let q = quantize_block(&coeffs, step, 0.5);
        // DC step = 7.5 → level 1; AC step = 15 → level 1 as well (10/15
        // rounds to 1)... pick values that differ:
        assert_eq!(q[0], 1);
        let deq = dequantize_block(&q, step, 0.5);
        assert!((deq[0] - 7.5).abs() < 1e-5);
        assert!((deq[1] - 15.0).abs() < 1e-5);
    }
}
