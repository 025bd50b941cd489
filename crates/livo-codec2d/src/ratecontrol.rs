//! Closed-loop rate control: pick QP to hit a per-frame bit budget.
//!
//! The model is the classic `R = g · C / Q` form: bits scale with frame
//! complexity `C` (temporal or spatial activity per pixel times pixel
//! count) and inversely with quantisation step `Q`. The gain `g` is learnt
//! online per frame type with an exponential moving average, so the
//! controller converges onto a content-specific model within a few frames —
//! this is the "rate-adaptive codec implementation" that LiVo's direct
//! bandwidth adaptation assumes (§3.3).

use crate::encoder::FrameType;
use crate::quant::{self, QP_FLOOR, QP_MAX};

/// Online rate model + QP chooser.
#[derive(Debug, Clone)]
pub struct RateController {
    /// Model gain for intra frames: bits per (complexity / qstep).
    gain_intra: f64,
    /// Model gain for inter frames.
    gain_inter: f64,
    /// EWMA smoothing factor for gain updates.
    alpha: f64,
}

impl Default for RateController {
    fn default() -> Self {
        Self::new()
    }
}

impl RateController {
    pub fn new() -> Self {
        // Initial gains are rough priors; they converge within a few frames.
        RateController {
            gain_intra: 1.2,
            gain_inter: 0.6,
            alpha: 0.35,
        }
    }

    fn gain(&self, ft: FrameType) -> f64 {
        match ft {
            FrameType::Intra => self.gain_intra,
            FrameType::Inter => self.gain_inter,
        }
    }

    /// Pick the QP in [`QP_FLOOR`, `QP_MAX`] whose step size best matches
    /// the bit budget under the current model. `complexity` is the
    /// encoder's activity measure times nothing — the gain absorbs scale, so
    /// only consistency matters.
    pub fn pick_qp(&self, ft: FrameType, complexity: f64, target_bits: f64) -> u8 {
        let desired_step = (self.gain(ft) * complexity / target_bits).max(1e-9);
        // Invert qstep(qp) = 0.625 · 2^(qp/6).
        let qp = 6.0 * (desired_step / 0.625).log2();
        (qp.round().clamp(QP_FLOOR as f64, QP_MAX as f64)) as u8
    }

    /// Feed back the result of an encode to refine the model.
    pub fn update(&mut self, ft: FrameType, complexity: f64, actual_bits: f64, qp: u8) {
        let step = quant::qstep(qp) as f64;
        if complexity > 1e-9 && actual_bits > 0.0 {
            let observed_gain = actual_bits * step / complexity;
            let g = match ft {
                FrameType::Intra => &mut self.gain_intra,
                FrameType::Inter => &mut self.gain_inter,
            };
            *g = (1.0 - self.alpha) * *g + self.alpha * observed_gain;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_target_means_lower_qp() {
        let rc = RateController::new();
        let c = 5.0 * 1e6; // per-pixel activity × pixels
        let qp_small = rc.pick_qp(FrameType::Inter, c, 10_000.0);
        let qp_big = rc.pick_qp(FrameType::Inter, c, 1_000_000.0);
        assert!(qp_big < qp_small, "{qp_big} !< {qp_small}");
    }

    #[test]
    fn higher_complexity_means_higher_qp() {
        let rc = RateController::new();
        let qp_calm = rc.pick_qp(FrameType::Inter, 1.0e6, 100_000.0);
        let qp_busy = rc.pick_qp(FrameType::Inter, 50.0e6, 100_000.0);
        assert!(qp_busy > qp_calm);
    }

    #[test]
    fn qp_respects_bounds() {
        let rc = RateController::new();
        assert_eq!(rc.pick_qp(FrameType::Intra, 1e12, 10.0), QP_MAX);
        assert_eq!(rc.pick_qp(FrameType::Intra, 0.001, 1e12), QP_FLOOR);
    }

    #[test]
    fn update_converges_model_toward_observations() {
        let mut rc = RateController::new();
        // Pretend the true relationship is bits = 2.0 * C / Q.
        let true_gain = 2.0;
        let complexity = 8.0e6;
        for _ in 0..30 {
            let qp = rc.pick_qp(FrameType::Inter, complexity, 50_000.0);
            let step = quant::qstep(qp) as f64;
            let actual = true_gain * complexity / step;
            rc.update(FrameType::Inter, complexity, actual, qp);
        }
        assert!(
            (rc.gain_inter - true_gain).abs() / true_gain < 0.1,
            "gain {}",
            rc.gain_inter
        );
    }

    #[test]
    fn intra_and_inter_models_are_separate() {
        let mut rc = RateController::new();
        rc.update(FrameType::Intra, 10.0, 1e6, 20);
        let gi = rc.gain_intra;
        let gp = rc.gain_inter;
        rc.update(FrameType::Inter, 10.0, 1e4, 20);
        assert_eq!(gi, rc.gain_intra);
        assert_ne!(gp, rc.gain_inter);
    }
}
