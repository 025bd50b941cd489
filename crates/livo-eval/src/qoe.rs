//! The user-study substitution: an objective-to-subjective QoE model.
//!
//! The paper's Figs. 5–8 and Table 5 come from an IRB-approved user study
//! (20 participants, 57 ratings per scheme). A study cannot be re-run
//! here, so — per the reproduction ground rules — we substitute a
//! *documented model* that maps the objective metrics the harness measures
//! (PSSIM with stalls scored zero, stall rate, delivered frame rate) onto
//! 1–5 opinion scores, calibrated so the paper's anchors hold:
//!
//! | scheme       | PSSIM-G | stalls | fps | paper MOS | model MOS |
//! |--------------|---------|--------|-----|-----------|-----------|
//! | LiVo         | ~88     | ~2%    | 30  | 4.1       | ≈ 4.1     |
//! | LiVo-NoCull  | ~81     | ~8%    | 28  | 3.4       | ≈ 3.5     |
//! | MeshReduce   | ~67     | 0%     | 12  | 2.5       | ≈ 2.7     |
//! | Draco-Oracle | ~28     | ~69%   | ~5  | 1.5       | ≈ 1.4     |
//!
//! Per-participant scores add seeded response noise (people disagree), and
//! Table 5's comment categories are sampled from soft bins over the same
//! inputs.

use livo_math::rng::SplitMix64;

/// Objective inputs to the model.
#[derive(Debug, Clone, Copy)]
pub struct QoeInputs {
    /// PSSIM geometry with stalled frames scored 0 (§4.3's convention).
    pub pssim_geometry: f64,
    /// PSSIM colour, same convention.
    pub pssim_color: f64,
    pub stall_rate: f64,
    /// Delivered frames per second.
    pub fps: f64,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Mean opinion score (1–5) for the given objective metrics.
pub fn mos(q: &QoeInputs) -> f64 {
    // Blend geometry-weighted quality (humans weigh depth errors heavier —
    // the premise of §3.3), squash onto 0–1, and scale by a frame-rate
    // smoothness term. Stalls already zero out quality samples, so they are
    // not double-counted beyond a mild annoyance term.
    let quality = 0.65 * q.pssim_geometry + 0.35 * q.pssim_color;
    let f_q = sigmoid((quality - 64.0) / 16.0);
    let fps_term = (q.fps / 30.0).clamp(0.0, 1.0).powf(0.7);
    let smooth = 0.55 + 0.45 * fps_term;
    let stall_annoyance = 1.0 - 0.35 * q.stall_rate.clamp(0.0, 1.0);
    (1.0 + 4.0 * f_q * smooth * stall_annoyance).clamp(1.0, 5.0)
}

/// A single simulated participant's rating: the model MOS plus seeded
/// response noise, clamped and rounded to the Likert grid.
pub(crate) fn participant_score(q: &QoeInputs, participant_seed: u64) -> u8 {
    let mut rng = SplitMix64::new(participant_seed ^ 0xC0FF_EE00);
    let noise: f64 = rng.gen_range(-0.7..0.7);
    (mos(q) + noise).round().clamp(1.0, 5.0) as u8
}

/// A batch of participant scores (the paper collected 57 per scheme).
pub(crate) fn study_scores(q: &QoeInputs, n: usize, seed: u64) -> Vec<u8> {
    (0..n as u64)
        .map(|i| participant_score(q, seed.wrapping_mul(1_000_003).wrapping_add(i)))
        .collect()
}

/// Table 5's comment-category shares: the percentage of free-form comments
/// rating frame rate / stalls / quality as Low, Medium or High.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct CommentShares {
    pub frame_rate: [f64; 3],
    pub stalls: [f64; 3],
    pub quality: [f64; 3],
}

/// Soft-bin a 0–1 "goodness" into (low, medium, high) shares with seeded
/// sampling over `n` comments.
fn soft_bin(goodness: f64, n: usize, rng: &mut SplitMix64) -> [f64; 3] {
    let mut counts = [0usize; 3];
    for _ in 0..n {
        let g = (goodness + rng.gen_range(-0.18..0.18)).clamp(0.0, 1.0);
        let bin = if g < 0.45 {
            0
        } else if g < 0.72 {
            1
        } else {
            2
        };
        counts[bin] += 1;
    }
    let total = n.max(1) as f64;
    [
        counts[0] as f64 * 100.0 / total,
        counts[1] as f64 * 100.0 / total,
        counts[2] as f64 * 100.0 / total,
    ]
}

/// Generate the comment-category shares for a scheme.
pub(crate) fn comment_shares(q: &QoeInputs, n_comments: usize, seed: u64) -> CommentShares {
    let mut rng = SplitMix64::new(seed ^ 0x7AB1_E005);
    let fps_goodness = (q.fps / 30.0).clamp(0.0, 1.0);
    // "Low stalls" is good: invert the rate. MeshReduce's 0% stalls rate
    // highest here (§4.2's finding).
    let stall_goodness = 1.0 - (q.stall_rate * 3.0).clamp(0.0, 1.0);
    let quality = 0.65 * q.pssim_geometry + 0.35 * q.pssim_color;
    let quality_goodness = sigmoid((quality - 64.0) / 16.0);
    CommentShares {
        frame_rate: soft_bin(fps_goodness, n_comments, &mut rng),
        stalls: soft_bin(1.0 - stall_goodness, n_comments, &mut rng), // shares of L/M/H *stall amount*
        quality: soft_bin(quality_goodness, n_comments, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn livo() -> QoeInputs {
        QoeInputs {
            pssim_geometry: 87.8,
            pssim_color: 82.9,
            stall_rate: 0.017,
            fps: 30.0,
        }
    }
    fn nocull() -> QoeInputs {
        QoeInputs {
            pssim_geometry: 81.0,
            pssim_color: 80.9,
            stall_rate: 0.079,
            fps: 28.0,
        }
    }
    fn meshreduce() -> QoeInputs {
        QoeInputs {
            pssim_geometry: 67.0,
            pssim_color: 77.3,
            stall_rate: 0.0,
            fps: 12.1,
        }
    }
    fn draco() -> QoeInputs {
        QoeInputs {
            pssim_geometry: 28.3,
            pssim_color: 29.9,
            stall_rate: 0.693,
            fps: 4.6,
        }
    }

    #[test]
    fn anchors_match_paper_within_tolerance() {
        assert!((mos(&livo()) - 4.1).abs() < 0.35, "LiVo {}", mos(&livo()));
        assert!(
            (mos(&nocull()) - 3.4).abs() < 0.45,
            "NoCull {}",
            mos(&nocull())
        );
        assert!(
            (mos(&meshreduce()) - 2.5).abs() < 0.5,
            "MeshReduce {}",
            mos(&meshreduce())
        );
        assert!((mos(&draco()) - 1.5).abs() < 0.4, "Draco {}", mos(&draco()));
    }

    #[test]
    fn ordering_matches_the_study() {
        assert!(mos(&livo()) > mos(&nocull()));
        assert!(mos(&nocull()) > mos(&meshreduce()));
        assert!(mos(&meshreduce()) > mos(&draco()));
    }

    #[test]
    fn mos_is_bounded() {
        let perfect = QoeInputs {
            pssim_geometry: 100.0,
            pssim_color: 100.0,
            stall_rate: 0.0,
            fps: 30.0,
        };
        let terrible = QoeInputs {
            pssim_geometry: 0.0,
            pssim_color: 0.0,
            stall_rate: 1.0,
            fps: 0.0,
        };
        assert!(mos(&perfect) <= 5.0);
        assert!(mos(&terrible) >= 1.0);
        assert!(mos(&perfect) > 4.5);
        assert!(mos(&terrible) < 1.2);
    }

    #[test]
    fn mos_is_monotone_in_quality() {
        let mut q = livo();
        let hi = mos(&q);
        q.pssim_geometry = 60.0;
        assert!(mos(&q) < hi);
    }

    #[test]
    fn participant_scores_center_on_mos() {
        let scores = study_scores(&livo(), 200, 42);
        let m: f64 = scores.iter().map(|&s| s as f64).sum::<f64>() / scores.len() as f64;
        assert!(
            (m - mos(&livo())).abs() < 0.3,
            "mean {m} vs mos {}",
            mos(&livo())
        );
        assert!(scores.iter().all(|&s| (1..=5).contains(&s)));
        // Not everyone agrees.
        assert!(scores.iter().any(|&s| s != scores[0]));
    }

    #[test]
    fn study_scores_are_deterministic_per_seed() {
        assert_eq!(study_scores(&livo(), 57, 1), study_scores(&livo(), 57, 1));
        assert_ne!(study_scores(&livo(), 57, 1), study_scores(&livo(), 57, 2));
    }

    #[test]
    fn comment_shares_sum_to_100() {
        let c = comment_shares(&nocull(), 40, 7);
        for cat in [c.frame_rate, c.stalls, c.quality] {
            let sum: f64 = cat.iter().sum();
            assert!((sum - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table5_shape_holds() {
        // LiVo: all-high frame rate, mostly-low stalls, mostly-high quality.
        let livo_c = comment_shares(&livo(), 60, 3);
        assert!(livo_c.frame_rate[2] > 80.0, "{:?}", livo_c.frame_rate);
        assert!(livo_c.stalls[0] > 50.0, "{:?}", livo_c.stalls);
        assert!(livo_c.quality[2] > 40.0, "{:?}", livo_c.quality);
        // Draco: low frame rate, high stalls, low quality.
        let draco_c = comment_shares(&draco(), 60, 3);
        assert!(draco_c.frame_rate[0] > 80.0, "{:?}", draco_c.frame_rate);
        assert!(draco_c.stalls[2] > 60.0, "{:?}", draco_c.stalls);
        assert!(draco_c.quality[0] > 50.0, "{:?}", draco_c.quality);
        // MeshReduce is best on stalls (reliable transport).
        let mesh_c = comment_shares(&meshreduce(), 60, 3);
        assert!(mesh_c.stalls[0] > livo_c.stalls[0] - 10.0);
    }
}
