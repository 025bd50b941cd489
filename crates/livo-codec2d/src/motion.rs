//! Block motion estimation for inter prediction.
//!
//! P-frames predict each 16×16 macroblock from the previous reconstructed
//! frame. A small-diamond search around the predicted vector finds an
//! integer-pixel motion vector minimising SAD; LiVo's tiled content is
//! mostly static (fixed tile slots — §3.2 of the paper), so most vectors are
//! zero and most macroblocks are skipped outright.
//!
//! [`sad`] and [`predict_block`] take an **interior fast path** over
//! contiguous row slices whenever both the current block and the displaced
//! reference block lie fully inside their planes — no per-sample bounds
//! check, no `get_clamped`, and the early-exit test folded to once per row.
//! Edge macroblocks (and out-of-range vectors) fall back to the clamped
//! loops `sad_clamped` / `predict_clamped`. Both paths accumulate the same
//! per-sample values in the same order, so results are identical; the
//! tests hold them, and the full search, to the oracles in
//! `tests/common/oracle.rs`.

use crate::plane::Plane;

/// Integer-pixel motion vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    pub dx: i16,
    pub dy: i16,
}

/// Macroblock size in samples.
pub const MB_SIZE: usize = 16;

/// Where the `mv`-displaced counterpart of the `size`² block at `(bx, by)`
/// starts in `reference`, when both it and the block itself (in `cur`) lie
/// fully in bounds; `None` when either crosses an edge.
#[inline]
fn interior(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    size: usize,
) -> Option<(usize, usize)> {
    let rx = bx as isize + mv.dx as isize;
    let ry = by as isize + mv.dy as isize;
    let inside = bx + size <= cur.width
        && by + size <= cur.height
        && rx >= 0
        && ry >= 0
        && rx as usize + size <= reference.width
        && ry as usize + size <= reference.height;
    inside.then_some((rx as usize, ry as usize))
}

/// Where in `reference` the prediction of the `size`² block at `(bx, by)`
/// under `mv` starts, when that prediction is a plain copy of reference
/// rows — no in-bounds pixel of the block reads an edge-clamped sample. That
/// holds for the zero vector (every pixel predicts from itself, partial
/// edge blocks included) and whenever the block and its displaced
/// counterpart both lie fully inside the plane. `None` sends the caller to
/// the clamped path, which is where every out-of-range vector of a corrupt
/// stream lands.
#[inline]
pub(crate) fn copy_origin(
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    size: usize,
) -> Option<(usize, usize)> {
    if mv == MotionVector::default() {
        return Some((bx, by));
    }
    interior(reference, reference, bx, by, mv, size)
}

/// Reconstruct a block whose residual is zero: copy the `size`² block of
/// `reference` at `origin` (from [`copy_origin`]) over the block at
/// `(bx, by)` of `stripe`, plane rows `[y0, ..)` of a plane shaped like
/// `reference`. Columns past the plane's right edge and rows past the
/// stripe's end are left out, as `write_block8_into_stripe` leaves them
/// out; reference samples are reconstructions, within the peak already.
pub(crate) fn copy_block_into_stripe(
    stripe: &mut [u16],
    y0: usize,
    bx: usize,
    by: usize,
    reference: &Plane,
    origin: (usize, usize),
    size: usize,
) {
    let width = reference.width;
    let (rx, ry) = origin;
    let cols = size.min(width - bx);
    let rows = size.min(y0 + stripe.len() / width - by);
    for dy in 0..rows {
        stripe[(by - y0 + dy) * width + bx..][..cols]
            .copy_from_slice(&reference.data[(ry + dy) * width + rx..][..cols]);
    }
}

/// Sum of absolute differences between the `MB_SIZE`² block of `cur` at
/// `(bx, by)` and the block of `reference` displaced by `mv` (edge-clamped).
/// Returns early (with a partial sum) once the accumulator reaches
/// `early_exit`, checked after each row.
pub fn sad(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    early_exit: u64,
) -> u64 {
    let Some((rx, ry)) = interior(cur, reference, bx, by, mv, MB_SIZE) else {
        return sad_clamped(cur, reference, bx, by, mv, early_exit);
    };
    #[cfg(target_arch = "x86_64")]
    if livo_math::simd::has_avx2() {
        // SAFETY: interior() guarantees both 16-wide row loads are in
        // bounds for every dy; has_avx2() gates the instruction set.
        return unsafe { avx2::sad_interior(cur, reference, bx, by, rx, ry, early_exit) };
    }
    sad_interior(cur, reference, bx, by, rx, ry, early_exit)
}

/// The interior SAD of the SSE2/scalar tier, what [`sad`] runs below AVX2.
#[inline(always)]
fn sad_interior(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    rx: usize,
    ry: usize,
    early_exit: u64,
) -> u64 {
    let mut acc = 0u64;
    for dy in 0..MB_SIZE {
        let c = &cur.data[(by + dy) * cur.width + bx..][..MB_SIZE];
        let r = &reference.data[(ry + dy) * reference.width + rx..][..MB_SIZE];
        // Row sums fit u32 (16 × 65535); one widening add per row.
        let mut row = 0u32;
        for (a, b) in c.iter().zip(r) {
            row += (*a as i32 - *b as i32).unsigned_abs();
        }
        acc += row as u64;
        if acc >= early_exit {
            return acc;
        }
    }
    acc
}

/// AVX2 tier for the interior paths: 16 `u16` lanes per row in one 256-bit
/// register. Bit-exact with the scalar loops — `|a−b|` via
/// `max_epu16 − min_epu16`, widened to u32 and summed per row (integer adds
/// are order-free), with the same after-each-row early-exit partial sums.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must guarantee AVX2 and that rows `[bx, bx+16)` at `by+dy` of
    /// `cur` and `[rx, rx+16)` at `ry+dy` of `reference` are in bounds for
    /// `dy in 0..16` (the `interior()` precondition).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sad_interior(
        cur: &Plane,
        reference: &Plane,
        bx: usize,
        by: usize,
        rx: usize,
        ry: usize,
        early_exit: u64,
    ) -> u64 {
        let zero = _mm256_setzero_si256();
        let mut acc = 0u64;
        for dy in 0..MB_SIZE {
            let c = cur.data.as_ptr().add((by + dy) * cur.width + bx);
            let r = reference
                .data
                .as_ptr()
                .add((ry + dy) * reference.width + rx);
            let a = _mm256_loadu_si256(c as *const __m256i);
            let b = _mm256_loadu_si256(r as *const __m256i);
            let diff = _mm256_sub_epi16(_mm256_max_epu16(a, b), _mm256_min_epu16(a, b));
            // Widen to 8 u32 partials (each the sum of two u16 diffs), then
            // reduce horizontally — the row total a u32 always holds.
            let sums = _mm256_add_epi32(
                _mm256_unpacklo_epi16(diff, zero),
                _mm256_unpackhi_epi16(diff, zero),
            );
            let s = _mm_add_epi32(
                _mm256_castsi256_si128(sums),
                _mm256_extracti128_si256::<1>(sums),
            );
            let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
            let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
            acc += _mm_cvtsi128_si32(s) as u32 as u64;
            if acc >= early_exit {
                return acc;
            }
        }
        acc
    }

    /// # Safety
    /// Same preconditions as [`sad_interior`], for `reference` rows at
    /// `(rx, ry)`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn predict_interior(
        reference: &Plane,
        rx: usize,
        ry: usize,
        out: &mut [i32; MB_SIZE * MB_SIZE],
    ) {
        for dy in 0..MB_SIZE {
            let src = reference
                .data
                .as_ptr()
                .add((ry + dy) * reference.width + rx);
            let v = _mm256_loadu_si256(src as *const __m256i);
            let lo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(v));
            let hi = _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(v));
            let dst = out.as_mut_ptr().add(dy * MB_SIZE) as *mut __m256i;
            _mm256_storeu_si256(dst, lo);
            _mm256_storeu_si256(dst.add(1), hi);
        }
    }
}

/// [`sad`] of a block that crosses an edge: every reference sample through
/// `get_clamped`, the block's samples past the plane left out.
fn sad_clamped(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    early_exit: u64,
) -> u64 {
    let mut acc = 0u64;
    for dy in 0..MB_SIZE {
        let y = by + dy;
        if y >= cur.height {
            break;
        }
        for dx in 0..MB_SIZE {
            let x = bx + dx;
            if x >= cur.width {
                break;
            }
            let a = cur.get(x, y) as i64;
            let b = reference.get_clamped(x as isize + mv.dx as isize, y as isize + mv.dy as isize)
                as i64;
            acc += (a - b).unsigned_abs();
        }
        if acc >= early_exit {
            return acc;
        }
    }
    acc
}

/// Diamond search around `start` with a maximum displacement of `range`
/// pixels per axis. Returns the best vector and its SAD.
///
/// Each large-diamond iteration tracks the candidate it arrived from (the
/// previous best) and skips re-scoring it: its full SAD was the previous
/// `best_sad`, which is strictly greater than the current one, so the probe
/// can never win — dropping it is a pure saving with an identical result
/// (pinned by `diamond_skip_matches_reference`). For the same reason the
/// search returns the moment a candidate scores SAD 0: a later probe
/// replaces the best only when strictly lower, so the vector cannot change.
pub fn diamond_search(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    start: MotionVector,
    range: i16,
) -> (MotionVector, u64) {
    let clamp_mv = |mv: MotionVector| MotionVector {
        dx: mv.dx.clamp(-range, range),
        dy: mv.dy.clamp(-range, range),
    };
    let mut best = clamp_mv(start);
    let mut best_sad = sad(cur, reference, bx, by, best, u64::MAX);
    // The point the search came from: scored already, SAD ≥ best_sad.
    let mut came_from: Option<MotionVector> = None;
    // Always consider the zero vector: skip-mode coding depends on it.
    let zero = MotionVector::default();
    let zero_sad = sad(cur, reference, bx, by, zero, best_sad);
    if zero_sad < best_sad {
        came_from = Some(best);
        best = zero;
        best_sad = zero_sad;
    }
    if best_sad == 0 {
        return (best, 0);
    }
    // Large diamond until the centre wins, then small diamond once.
    let large: [(i16, i16); 8] = [
        (0, -2),
        (1, -1),
        (2, 0),
        (1, 1),
        (0, 2),
        (-1, 1),
        (-2, 0),
        (-1, -1),
    ];
    let small: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];
    let mut steps = 0;
    loop {
        let mut improved = false;
        for (ddx, ddy) in large {
            let cand = clamp_mv(MotionVector {
                dx: best.dx + ddx,
                dy: best.dy + ddy,
            });
            if cand == best || Some(cand) == came_from {
                continue;
            }
            let s = sad(cur, reference, bx, by, cand, best_sad);
            if s < best_sad {
                if s == 0 {
                    return (cand, 0);
                }
                came_from = Some(best);
                best = cand;
                best_sad = s;
                improved = true;
            }
        }
        steps += 1;
        if !improved || steps > 32 {
            break;
        }
    }
    for (ddx, ddy) in small {
        let cand = clamp_mv(MotionVector {
            dx: best.dx + ddx,
            dy: best.dy + ddy,
        });
        if cand == best || Some(cand) == came_from {
            continue;
        }
        let s = sad(cur, reference, bx, by, cand, best_sad);
        if s < best_sad {
            if s == 0 {
                return (cand, 0);
            }
            came_from = Some(best);
            best = cand;
            best_sad = s;
        }
    }
    (best, best_sad)
}

/// Copy the motion-compensated prediction block for macroblock `(bx, by)`
/// from `reference` into `out` (row-major `MB_SIZE`²).
pub fn predict_block(
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    out: &mut [i32; MB_SIZE * MB_SIZE],
) {
    // The current-block bounds don't matter for prediction (it only reads
    // `reference`), but reusing the shared interior test keeps the fast-path
    // condition in one place; it is just as tight for the displaced block.
    let Some((rx, ry)) = interior(reference, reference, bx, by, mv, MB_SIZE) else {
        return predict_clamped(reference, bx, by, mv, out);
    };
    #[cfg(target_arch = "x86_64")]
    if livo_math::simd::has_avx2() {
        // SAFETY: interior() bounds every displaced row; has_avx2() gates
        // the instruction set. Pure widening copy, bit-exact trivially.
        return unsafe { avx2::predict_interior(reference, rx, ry, out) };
    }
    for dy in 0..MB_SIZE {
        let src = &reference.data[(ry + dy) * reference.width + rx..][..MB_SIZE];
        let dst = &mut out[dy * MB_SIZE..][..MB_SIZE];
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s as i32;
        }
    }
}

/// [`predict_block`] of a block whose displaced counterpart crosses an
/// edge: every sample through `get_clamped`.
fn predict_clamped(
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    out: &mut [i32; MB_SIZE * MB_SIZE],
) {
    for dy in 0..MB_SIZE {
        for dx in 0..MB_SIZE {
            out[dy * MB_SIZE + dx] = reference.get_clamped(
                (bx + dx) as isize + mv.dx as isize,
                (by + dy) as isize + mv.dy as isize,
            ) as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{diamond_search_ref, sad_ref};

    /// Smooth texture: diamond search needs a well-behaved SAD landscape
    /// (real video is smooth; adversarial noise has no findable motion).
    fn textured_plane(w: usize, h: usize, phase: usize) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let fx = (x + phase) as f32;
                let fy = y as f32;
                let v = 128.0 + 80.0 * (fx * 0.21).sin() + 40.0 * (fy * 0.17).cos();
                p.set(x, y, v.max(0.0) as u16);
            }
        }
        p
    }

    #[test]
    fn sad_zero_for_identical_blocks() {
        let p = textured_plane(64, 64, 0);
        assert_eq!(sad(&p, &p, 16, 16, MotionVector::default(), u64::MAX), 0);
    }

    #[test]
    fn search_finds_pure_translation() {
        let reference = textured_plane(64, 64, 0);
        let cur = textured_plane(64, 64, 3); // content shifted by -3 in x
                                             // cur(x) == ref(x+3): the motion vector should be (3, 0).
        let (mv, best_sad) = diamond_search(&cur, &reference, 16, 16, MotionVector::default(), 8);
        assert_eq!(mv, MotionVector { dx: 3, dy: 0 });
        assert_eq!(best_sad, 0);
    }

    #[test]
    fn search_respects_range_clamp() {
        let reference = textured_plane(64, 64, 0);
        let cur = textured_plane(64, 64, 12); // true shift 12, range 4
        let (mv, _) = diamond_search(&cur, &reference, 16, 16, MotionVector::default(), 4);
        assert!(mv.dx.abs() <= 4 && mv.dy.abs() <= 4);
    }

    #[test]
    fn predict_block_applies_vector() {
        let reference = textured_plane(64, 64, 0);
        let mut out = [0i32; MB_SIZE * MB_SIZE];
        predict_block(&reference, 16, 16, MotionVector { dx: 2, dy: -1 }, &mut out);
        assert_eq!(out[0], reference.get(18, 15) as i32);
        assert_eq!(out[MB_SIZE + 1], reference.get(19, 16) as i32);
    }

    #[test]
    fn predict_block_clamps_at_borders() {
        let reference = textured_plane(32, 32, 0);
        let mut out = [0i32; MB_SIZE * MB_SIZE];
        predict_block(&reference, 0, 0, MotionVector { dx: -5, dy: -5 }, &mut out);
        // Top-left of the prediction reads the clamped (0,0) sample.
        assert_eq!(out[0], reference.get(0, 0) as i32);
    }

    #[test]
    fn early_exit_caps_work() {
        let a = textured_plane(32, 32, 0);
        let b = textured_plane(32, 32, 9);
        let full = sad(&a, &b, 0, 0, MotionVector::default(), u64::MAX);
        let capped = sad(&a, &b, 0, 0, MotionVector::default(), 10);
        assert!(capped >= 10);
        assert!(capped <= full);
    }

    /// Block positions and vectors covering the interior fast path, the
    /// right/bottom partial-macroblock edges, and negative vectors pushing
    /// reads past the top-left corner.
    fn differential_cases(w: usize, h: usize) -> Vec<(usize, usize, MotionVector)> {
        let mut cases = Vec::new();
        let positions = [
            (16, 16),         // interior
            (0, 0),           // top-left corner
            (w - 16, 16),     // right edge, full block
            (16, h - 16),     // bottom edge, full block
            (w - 10, h - 10), // right/bottom partial macroblock
            (w - 16, h - 16), // corner, full block
        ];
        let vectors = [
            (0, 0),
            (3, 0),
            (0, -2),
            (-4, -4), // negative-MV corner reads
            (5, 7),
            (-8, 2),
            (8, 8),
        ];
        for &(bx, by) in &positions {
            for &(dx, dy) in &vectors {
                cases.push((bx, by, MotionVector { dx, dy }));
            }
        }
        cases
    }

    #[test]
    fn sad_fast_path_matches_reference() {
        let (w, h) = (70, 54); // non-multiple-of-16: partial edge blocks
        let cur = textured_plane(w, h, 2);
        let reference = textured_plane(w, h, 0);
        for (bx, by, mv) in differential_cases(w, h) {
            for cap in [u64::MAX, 10_000, 300, 1] {
                let fast = sad(&cur, &reference, bx, by, mv, cap);
                let naive = sad_ref(&cur, &reference, bx, by, mv, cap);
                assert_eq!(fast, naive, "({bx},{by}) mv {mv:?} cap {cap}");
            }
        }
    }

    #[test]
    fn predict_block_fast_path_matches_reference() {
        let (w, h) = (70, 54);
        let reference = textured_plane(w, h, 0);
        for (bx, by, mv) in differential_cases(w, h) {
            let mut fast = [0i32; MB_SIZE * MB_SIZE];
            let mut naive = [0i32; MB_SIZE * MB_SIZE];
            predict_block(&reference, bx, by, mv, &mut fast);
            predict_clamped(&reference, bx, by, mv, &mut naive);
            assert_eq!(fast, naive, "({bx},{by}) mv {mv:?}");
        }
    }

    /// The AVX2 interior paths must be bit-identical to the pre-AVX2 tier —
    /// same partial sums under every early-exit cap included. No-op on
    /// hosts without AVX2.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_interior_paths_are_bit_identical_to_baseline() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let (w, h) = (70, 54);
        let cur = textured_plane(w, h, 2);
        let reference = textured_plane(w, h, 0);
        for (bx, by, mv) in differential_cases(w, h) {
            for cap in [u64::MAX, 10_000, 300, 1] {
                let below_avx2 = match interior(&cur, &reference, bx, by, mv, MB_SIZE) {
                    Some((rx, ry)) => sad_interior(&cur, &reference, bx, by, rx, ry, cap),
                    None => sad_clamped(&cur, &reference, bx, by, mv, cap),
                };
                assert_eq!(
                    sad(&cur, &reference, bx, by, mv, cap),
                    below_avx2,
                    "({bx},{by}) mv {mv:?} cap {cap}"
                );
            }
            let mut fast = [0i32; MB_SIZE * MB_SIZE];
            let mut naive = [0i32; MB_SIZE * MB_SIZE];
            predict_block(&reference, bx, by, mv, &mut fast);
            predict_clamped(&reference, bx, by, mv, &mut naive);
            assert_eq!(fast, naive, "({bx},{by}) mv {mv:?}");
        }
    }

    #[test]
    fn copy_origin_is_the_zero_vector_or_a_fully_inside_pair() {
        let p = textured_plane(70, 54, 0);
        let mv = |dx, dy| MotionVector { dx, dy };
        // The zero vector copies from where it stands, partial blocks too.
        assert_eq!(copy_origin(&p, 64, 48, mv(0, 0), MB_SIZE), Some((64, 48)));
        // Block and displaced block inside: the displaced origin.
        assert_eq!(copy_origin(&p, 16, 16, mv(-3, 5), MB_SIZE), Some((13, 21)));
        assert_eq!(copy_origin(&p, 48, 32, mv(6, 6), MB_SIZE), Some((54, 38)));
        assert_eq!(copy_origin(&p, 8, 8, mv(-8, -8), 8), Some((0, 0)));
        // One sample over any edge, a partial block under a non-zero
        // vector, or a vector from a corrupt stream: the clamped path.
        assert_eq!(copy_origin(&p, 48, 32, mv(7, 0), MB_SIZE), None);
        assert_eq!(copy_origin(&p, 48, 32, mv(0, 7), MB_SIZE), None);
        assert_eq!(copy_origin(&p, 16, 16, mv(-17, 0), MB_SIZE), None);
        assert_eq!(copy_origin(&p, 64, 16, mv(-8, 0), MB_SIZE), None);
        for (dx, dy) in [
            (i16::MAX, 0),
            (i16::MIN, 0),
            (0, i16::MAX),
            (i16::MIN, i16::MIN),
        ] {
            assert_eq!(copy_origin(&p, 16, 16, mv(dx, dy), MB_SIZE), None);
            assert_eq!(copy_origin(&p, 0, 0, mv(dx, dy), 8), None);
        }
    }

    #[test]
    fn copied_block_equals_clamped_prediction_written_back() {
        let reference = textured_plane(70, 54, 0);
        let peak = 255u16;
        for (bx, by, mv) in differential_cases(70, 54) {
            let Some(origin) = copy_origin(&reference, bx, by, mv, MB_SIZE) else {
                continue;
            };
            // A stripe of the macroblock row holding the block, both ways.
            let y0 = by / MB_SIZE * MB_SIZE;
            let rows = MB_SIZE.min(54 - y0);
            let mut copied = vec![7u16; 70 * rows];
            let mut written = copied.clone();
            copy_block_into_stripe(&mut copied, y0, bx, by, &reference, origin, MB_SIZE);
            let mut pred = [0i32; MB_SIZE * MB_SIZE];
            predict_clamped(&reference, bx, by, mv, &mut pred);
            for sb in 0..4 {
                let (ox, oy) = ((sb % 2) * 8, (sb / 2) * 8);
                let mut blk = [0i32; 64];
                for dy in 0..8 {
                    blk[dy * 8..][..8].copy_from_slice(&pred[(oy + dy) * MB_SIZE + ox..][..8]);
                }
                crate::plane::write_block8_into_stripe(
                    &mut written,
                    70,
                    y0,
                    bx + ox,
                    by + oy,
                    &blk,
                    peak,
                );
            }
            assert_eq!(copied, written, "({bx},{by}) mv {mv:?}");
        }
    }

    /// The came-from skip must never change the search outcome: pin
    /// (mv, sad) against the no-skip oracle on the textured
    /// planes over a sweep of shifts, starts and block positions.
    #[test]
    fn diamond_skip_matches_reference() {
        for shift in [0usize, 1, 3, 5, 9, 12] {
            let reference = textured_plane(96, 96, 0);
            let cur = textured_plane(96, 96, shift);
            for (bx, by) in [(16, 16), (0, 0), (80, 80), (48, 32)] {
                for start in [
                    MotionVector::default(),
                    MotionVector { dx: 2, dy: -1 },
                    MotionVector { dx: -6, dy: 6 },
                ] {
                    for range in [4i16, 8] {
                        let fast = diamond_search(&cur, &reference, bx, by, start, range);
                        let naive = diamond_search_ref(&cur, &reference, bx, by, start, range);
                        assert_eq!(
                            fast, naive,
                            "shift {shift} block ({bx},{by}) start {start:?} range {range}"
                        );
                    }
                }
            }
        }
    }
}
