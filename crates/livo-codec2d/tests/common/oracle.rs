//! The codec's replaced kernels, each written out once as a test oracle:
//! the matrix DCT pair the AAN butterflies replaced, the clamped-loop SAD,
//! the diamond search without its came-from skip or SAD-0 return, and the
//! inter plan as it stood before static macroblocks took the copy path,
//! and the quantiser's rounding through libm. Nothing outside tests and
//! `repro kernels` uses them.
//!
//! Included as a module by `src/lib.rs`'s unit tests and by
//! `livo-bench`'s `kernels_bench.rs`; both parents bring `dct`, `motion`,
//! `plane`, `quant`, `Frame` and `Plane` into scope.

#![allow(dead_code)]

use super::motion::{MotionVector, MB_SIZE};
use super::plane::write_block8_into_stripe;
use super::{dct, quant, Frame, Plane};

/// `cos(k·π/16)` for `k = 0..=8`, to f64 precision; every basis angle
/// reduces onto this first quadrant by symmetry.
const COS_PI_16: [f64; 9] = [
    1.0,
    0.980_785_280_403_230_4,
    0.923_879_532_511_286_7,
    0.831_469_612_302_545_2,
    std::f64::consts::FRAC_1_SQRT_2,
    0.555_570_233_019_602_2,
    0.382_683_432_365_089_8,
    0.195_090_322_016_128_27,
    0.0,
];

/// `cos((2x+1)·u·π/16)` via quadrant symmetry on [`COS_PI_16`].
const fn basis_cos(x: usize, u: usize) -> f64 {
    let k = ((2 * x + 1) * u) % 32;
    if k <= 8 {
        COS_PI_16[k]
    } else if k <= 16 {
        -COS_PI_16[16 - k]
    } else if k <= 24 {
        -COS_PI_16[k - 16]
    } else {
        COS_PI_16[32 - k]
    }
}

const fn build_cos_table() -> [[f32; 8]; 8] {
    let mut t = [[0.0f32; 8]; 8];
    let mut u = 0;
    while u < 8 {
        // c(0) = √(1/8), c(u>0) = √(2/8).
        // √(1/8) = (1/√2)/2, exact in binary floating point.
        let cu = if u == 0 {
            std::f64::consts::FRAC_1_SQRT_2 * 0.5
        } else {
            0.5
        };
        let mut x = 0;
        while x < 8 {
            t[u][x] = (cu * basis_cos(x, u)) as f32;
            x += 1;
        }
        u += 1;
    }
    t
}

/// Cosine basis table, computed at compile time:
/// `COS[u][x] = c(u) * cos((2x+1) u π / 16)` where `c(0) = √(1/8)`,
/// `c(u>0) = √(2/8)`.
pub const COS: [[f32; 8]; 8] = build_cos_table();

/// Naive matrix forward DCT, rows then columns (8 multiplies per output
/// coefficient): the reference for `dct::forward`.
pub fn forward_ref(block: &[i32; 64]) -> [f32; 64] {
    let t = &COS;
    let mut tmp = [0.0f32; 64];
    for y in 0..8 {
        for u in 0..8 {
            tmp[y * 8 + u] = (0..8).fold(0.0, |acc, x| acc + block[y * 8 + x] as f32 * t[u][x]);
        }
    }
    let mut out = [0.0f32; 64];
    for u in 0..8 {
        for v in 0..8 {
            out[v * 8 + u] = (0..8).fold(0.0, |acc, y| acc + tmp[y * 8 + u] * t[v][y]);
        }
    }
    out
}

/// Naive matrix inverse DCT, columns then rows, rounded by `f32::round`:
/// the reference for `dct::inverse`.
pub fn inverse_ref(coeffs: &[f32; 64]) -> [i32; 64] {
    let t = &COS;
    let mut tmp = [0.0f32; 64];
    for u in 0..8 {
        for y in 0..8 {
            tmp[y * 8 + u] = (0..8).fold(0.0, |acc, v| acc + coeffs[v * 8 + u] * t[v][y]);
        }
    }
    let mut out = [0i32; 64];
    for y in 0..8 {
        for x in 0..8 {
            let acc = (0..8).fold(0.0f32, |acc, u| acc + tmp[y * 8 + u] * t[u][x]);
            out[y * 8 + x] = acc.round() as i32;
        }
    }
    out
}

/// SAD of the in-plane part of the macroblock at `(bx, by)` against
/// `reference` displaced by `mv`, every reference sample through
/// `get_clamped`; returns the partial sum after the first row at which it
/// reaches `early_exit`. The reference for `motion::sad`.
pub fn sad_ref(
    cur: &Plane,
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    early_exit: u64,
) -> u64 {
    let mut acc = 0u64;
    for y in by..(by + MB_SIZE).min(cur.height) {
        for x in bx..(bx + MB_SIZE).min(cur.width) {
            let r = reference.get_clamped(x as isize + mv.dx as isize, y as isize + mv.dy as isize);
            acc += (cur.get(x, y) as i64 - r as i64).unsigned_abs();
        }
        if acc >= early_exit {
            return acc;
        }
    }
    acc
}

/// `motion::diamond_search` without its shortcuts: every probe scored
/// through [`sad_ref`], the point it came from and SAD 0 included. A large
/// diamond until the centre wins (at most 33 rounds), then the small one.
pub fn diamond_search_ref(
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
    let mut best_sad = sad_ref(cur, reference, bx, by, best, u64::MAX);
    let zero = MotionVector::default();
    let zero_sad = sad_ref(cur, reference, bx, by, zero, best_sad);
    if zero_sad < best_sad {
        (best, best_sad) = (zero, zero_sad);
    }
    // Move to the probe when it scores strictly lower; true when it did.
    let probe = |best: &mut MotionVector, best_sad: &mut u64, (ddx, ddy): (i16, i16)| {
        let cand = clamp_mv(MotionVector {
            dx: best.dx + ddx,
            dy: best.dy + ddy,
        });
        if cand == *best {
            return false;
        }
        let s = sad_ref(cur, reference, bx, by, cand, *best_sad);
        let better = s < *best_sad;
        if better {
            (*best, *best_sad) = (cand, s);
        }
        better
    };
    const LARGE: [(i16, i16); 8] = [
        (0, -2),
        (1, -1),
        (2, 0),
        (1, 1),
        (0, 2),
        (-1, 1),
        (-2, 0),
        (-1, -1),
    ];
    for _ in 0..33 {
        let mut improved = false;
        for d in LARGE {
            improved |= probe(&mut best, &mut best_sad, d);
        }
        if !improved {
            break;
        }
    }
    for d in [(0, -1), (1, 0), (0, 1), (-1, 0)] {
        probe(&mut best, &mut best_sad, d);
    }
    (best, best_sad)
}

/// One luma macroblock as the inter plan decided it.
pub struct MbPlan {
    pub mv: MotionVector,
    pub pred_mv: MotionVector,
    pub skip: bool,
    pub levels4: [[i32; 64]; 4],
}

/// One inter frame planned the way it was before the static-macroblock
/// path: its reconstruction, the luma macroblocks in raster order, and each
/// chroma plane's 8×8 levels in raster order.
pub struct InterPlan {
    pub recon: Frame,
    pub luma: Vec<MbPlan>,
    pub chroma: Vec<Vec<[i32; 64]>>,
}

/// Levels of the 8×8 block whose samples are `cur(dx, dy)` predicted by
/// `pred(dx, dy)`.
fn levels_of(
    cur: impl Fn(usize, usize) -> i32,
    pred: impl Fn(usize, usize) -> i32,
    step: f32,
) -> [i32; 64] {
    let residual = std::array::from_fn(|i| cur(i % 8, i / 8) - pred(i % 8, i / 8));
    quant::quantize_block(&dct::forward(&residual), step, quant::DC_SCALE)
}

/// The block `levels` reconstruct to over `pred`; `None` is a skipped
/// block, which reconstructs to its prediction.
fn recon_of(
    levels: Option<&[i32; 64]>,
    pred: impl Fn(usize, usize) -> i32,
    step: f32,
) -> [i32; 64] {
    let res = levels.map_or([0; 64], |l| {
        dct::inverse(&quant::dequantize_block(l, step, quant::DC_SCALE))
    });
    std::array::from_fn(|i| res[i] + pred(i % 8, i / 8))
}

/// Plan an inter frame of `frame` against `prev` at `qp` (chroma 4 coarser):
/// every macroblock searched by [`diamond_search_ref`] from its left
/// neighbour's vector, every block predicted sample by sample through
/// `get_clamped`, transformed, quantised and reconstructed through the
/// inverse transform unless the macroblock is skipped.
pub fn plan_inter(frame: &Frame, prev: &Frame, qp: u8, search_range: i16) -> InterPlan {
    let peak = frame.format.peak_value();
    let mut recon = Frame::new(frame.format, frame.width, frame.height);
    let (cur, old) = (&frame.planes[0], &prev.planes[0]);
    // Sample `(x, y)` of `p` displaced by `(dx, dy)`, edge-clamped.
    let at = |p: &Plane, x: usize, y: usize, (dx, dy): (isize, isize)| {
        p.get_clamped(x as isize + dx, y as isize + dy) as i32
    };
    let step = quant::qstep(qp);
    let mut luma = Vec::new();
    for (mby, stripe) in recon.planes[0]
        .data
        .chunks_mut(cur.width * MB_SIZE)
        .enumerate()
    {
        let by = mby * MB_SIZE;
        let mut pred_mv = MotionVector::default();
        for bx in (0..cur.width).step_by(MB_SIZE) {
            let (mv, _) = diamond_search_ref(cur, old, bx, by, pred_mv, search_range);
            let d = (mv.dx as isize, mv.dy as isize);
            let origins = [(0, 0), (8, 0), (0, 8), (8, 8)].map(|(ox, oy)| (bx + ox, by + oy));
            let levels4 = origins.map(|(x0, y0)| {
                let cur_at = |x, y| at(cur, x0 + x, y0 + y, (0, 0));
                levels_of(cur_at, |x, y| at(old, x0 + x, y0 + y, d), step)
            });
            let skip = mv == pred_mv && levels4.iter().all(|l| l.iter().all(|&v| v == 0));
            for (&(x0, y0), levels) in origins.iter().zip(&levels4) {
                let pred = |x, y| at(old, x0 + x, y0 + y, d);
                let rec = recon_of((!skip).then_some(levels), pred, step);
                write_block8_into_stripe(stripe, cur.width, by, x0, y0, &rec, peak);
            }
            luma.push(MbPlan {
                mv,
                pred_mv,
                skip,
                levels4,
            });
            pred_mv = mv;
        }
    }
    let mbs_x = cur.width.div_ceil(MB_SIZE);
    let chroma_step = quant::qstep((qp + 4).min(quant::QP_MAX));
    let mut chroma = Vec::new();
    for pi in 1..frame.planes.len() {
        let (cur, old) = (&frame.planes[pi], &prev.planes[pi]);
        let mut levels = Vec::new();
        for (row, stripe) in recon.planes[pi].data.chunks_mut(cur.width * 8).enumerate() {
            let by = row * 8;
            for (col, bx) in (0..cur.width).step_by(8).enumerate() {
                // Chroma moves by the luma vector halved towards zero.
                let mv = luma
                    .get(row * mbs_x + col)
                    .map_or_else(Default::default, |p| p.mv);
                let d = ((mv.dx / 2) as isize, (mv.dy / 2) as isize);
                let pred = |x, y| at(old, bx + x, by + y, d);
                let block = levels_of(|x, y| at(cur, bx + x, by + y, (0, 0)), pred, chroma_step);
                let rec = recon_of(Some(&block), pred, chroma_step);
                write_block8_into_stripe(stripe, cur.width, by, bx, by, &rec, peak);
                levels.push(block);
            }
        }
        chroma.push(levels);
    }
    InterPlan {
        recon,
        luma,
        chroma,
    }
}

impl InterPlan {
    /// The luma macroblocks and each chroma plane's blocks of every slice,
    /// in a partition into `n` slices the way the encoder makes it: runs of
    /// macroblock rows as even as possible, the earlier slices one longer.
    pub fn slices(&self, n: usize) -> impl Iterator<Item = (&[MbPlan], Vec<&[[i32; 64]]>)> {
        let mbs_x = self.recon.width.div_ceil(MB_SIZE);
        let mbs_y = self.recon.height.div_ceil(MB_SIZE);
        let mut mb0 = 0;
        (0..n).map(move |i| {
            let mb1 = mb0 + mbs_y / n + usize::from(i < mbs_y % n);
            let (a, b) = (mb0 * mbs_x, mb1 * mbs_x);
            mb0 = mb1;
            let chroma = self.chroma.iter().map(|c| &c[a..b.min(c.len())]).collect();
            (&self.luma[a..b], chroma)
        })
    }
}

/// The quantiser's rounding as one libm `round` per coefficient, before
/// `quant::quantize` rounded in lanes.
pub fn quantize_ref(coeff: f32, step: f32) -> i32 {
    (coeff / step).round() as i32
}
