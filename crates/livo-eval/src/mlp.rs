//! A small feed-forward network for the learned-viewport-predictor
//! comparison (Fig. 16 of the paper).
//!
//! ViVo trains MLP viewport predictors on user traces; the paper asks
//! whether such a predictor, trained on the *few* traces a conferencing
//! setting can collect, can match LiVo's Kalman filter. It reproduces the
//! finding: with few hidden units the MLP is unusable; with 64 it becomes
//! competitive on rotation while the Kalman filter remains better on
//! position — and needs no training data at all.
//!
//! The network is a 1-hidden-layer tanh MLP trained with plain SGD on
//! (window of past poses → pose at horizon) pairs, all in `f64`, seeded
//! and dependency-free.

use livo_capture::usertrace::{UserTrace, TRACE_HZ};
use livo_math::rng::SplitMix64;
use livo_math::{angles, Pose};

/// Pose as a 6-vector: position (m) + yaw/pitch/roll (rad, unwrapped by the
/// dataset builder).
fn pose_vec(p: &Pose) -> [f64; 6] {
    let (y, pi, r) = p.orientation.to_yaw_pitch_roll();
    [
        p.position.x as f64,
        p.position.y as f64,
        p.position.z as f64,
        y as f64,
        pi as f64,
        r as f64,
    ]
}

/// One (input window, target) training pair.
pub struct Sample {
    /// `window × 6` values, deltas relative to the last observed pose.
    pub input: Vec<f64>,
    /// 6 values: target pose delta relative to the last observed pose.
    pub target: [f64; 6],
}

/// Build supervised samples from traces: inputs are the last `window`
/// poses (as deltas to the final one, which makes the task translation-
/// invariant), targets the pose `horizon_frames` ahead.
pub fn build_samples(traces: &[&UserTrace], window: usize, horizon_frames: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    for tr in traces {
        // Unwrap angles over the whole trace first.
        let mut vecs: Vec<[f64; 6]> = tr.poses.iter().map(pose_vec).collect();
        for i in 1..vecs.len() {
            let prev = vecs[i - 1];
            for (cur, &pr) in vecs[i].iter_mut().zip(prev.iter()).skip(3) {
                *cur = angles::unwrap_near(pr as f32, *cur as f32) as f64;
            }
        }
        if vecs.len() < window + horizon_frames + 1 {
            continue;
        }
        for end in (window - 1)..(vecs.len() - horizon_frames) {
            let anchor = vecs[end];
            let mut input = Vec::with_capacity(window * 6);
            for k in 0..window {
                let v = vecs[end + 1 - window + k];
                for d in 0..6 {
                    input.push(v[d] - anchor[d]);
                }
            }
            let fut = vecs[end + horizon_frames];
            let mut target = [0.0; 6];
            for d in 0..6 {
                target[d] = fut[d] - anchor[d];
            }
            out.push(Sample { input, target });
        }
    }
    out
}

/// A 1-hidden-layer tanh MLP with 6·window inputs and 6 outputs.
pub struct Mlp {
    w1: Vec<f64>, // hidden × input
    b1: Vec<f64>,
    w2: Vec<f64>, // 6 × hidden
    b2: [f64; 6],
    hidden: usize,
    inputs: usize,
}

impl Mlp {
    pub fn new(inputs: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let scale1 = (1.0 / inputs as f64).sqrt();
        let scale2 = (1.0 / hidden as f64).sqrt();
        Mlp {
            w1: (0..hidden * inputs)
                .map(|_| rng.gen_range(-scale1..scale1))
                .collect(),
            b1: vec![0.0; hidden],
            w2: (0..6 * hidden)
                .map(|_| rng.gen_range(-scale2..scale2))
                .collect(),
            b2: [0.0; 6],
            hidden,
            inputs,
        }
    }

    /// Forward pass; returns (hidden activations, output).
    fn forward(&self, x: &[f64]) -> (Vec<f64>, [f64; 6]) {
        let mut h = vec![0.0; self.hidden];
        for (j, hj) in h.iter_mut().enumerate() {
            let mut acc = self.b1[j];
            let row = &self.w1[j * self.inputs..(j + 1) * self.inputs];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *hj = acc.tanh();
        }
        let mut y = self.b2;
        for (d, yd) in y.iter_mut().enumerate() {
            let row = &self.w2[d * self.hidden..(d + 1) * self.hidden];
            for (w, hj) in row.iter().zip(&h) {
                *yd += w * hj;
            }
        }
        (h, y)
    }

    pub fn predict(&self, x: &[f64]) -> [f64; 6] {
        self.forward(x).1
    }

    /// One SGD epoch over the samples; returns mean squared error.
    pub fn train_epoch(&mut self, samples: &[Sample], lr: f64, rng: &mut SplitMix64) -> f64 {
        let mut order: Vec<usize> = (0..samples.len()).collect();
        // Fisher-Yates with the provided RNG for reproducibility.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut total = 0.0;
        for &si in &order {
            let s = &samples[si];
            let (h, y) = self.forward(&s.input);
            let mut dy = [0.0; 6];
            for ((dyd, yd), td) in dy.iter_mut().zip(&y).zip(&s.target) {
                *dyd = yd - td;
                total += *dyd * *dyd;
            }
            // Backprop.
            let mut dh = vec![0.0; self.hidden];
            for (d, &dyd) in dy.iter().enumerate() {
                let row = &self.w2[d * self.hidden..(d + 1) * self.hidden];
                for (dhj, w) in dh.iter_mut().zip(row) {
                    *dhj += dyd * w;
                }
            }
            for (d, &dyd) in dy.iter().enumerate() {
                let row = &mut self.w2[d * self.hidden..(d + 1) * self.hidden];
                for (w, hj) in row.iter_mut().zip(&h) {
                    *w -= lr * dyd * hj;
                }
                self.b2[d] -= lr * dyd;
            }
            for j in 0..self.hidden {
                let g = dh[j] * (1.0 - h[j] * h[j]);
                let row = &mut self.w1[j * self.inputs..(j + 1) * self.inputs];
                for (w, xi) in row.iter_mut().zip(&s.input) {
                    *w -= lr * g * xi;
                }
                self.b1[j] -= lr * g;
            }
        }
        total / samples.len().max(1) as f64
    }
}

/// Errors of a predictor on held-out samples: (mean position error in m,
/// mean rotation error in degrees).
pub fn evaluate(mlp: &Mlp, samples: &[Sample]) -> (f64, f64) {
    let mut pos = 0.0;
    let mut rot = 0.0;
    for s in samples {
        let y = mlp.predict(&s.input);
        let dp = ((y[0] - s.target[0]).powi(2)
            + (y[1] - s.target[1]).powi(2)
            + (y[2] - s.target[2]).powi(2))
        .sqrt();
        let dr = ((y[3] - s.target[3]).powi(2)
            + (y[4] - s.target[4]).powi(2)
            + (y[5] - s.target[5]).powi(2))
        .sqrt();
        pos += dp;
        rot += angles::to_degrees(dr as f32) as f64;
    }
    let n = samples.len().max(1) as f64;
    (pos / n, rot / n)
}

/// The Fig. 16 experiment: train MLPs of several widths on a few traces,
/// evaluate on a held-out trace at the given horizon, and compare with the
/// Kalman predictor on the same data.
pub struct Fig16Row {
    pub method: String,
    pub hidden: Option<usize>,
    pub position_m: f64,
    pub rotation_deg: f64,
}

pub fn fig16_experiment(horizon_s: f64, trace_dur_s: f32) -> Vec<Fig16Row> {
    let horizon_frames = ((horizon_s * TRACE_HZ as f64).round() as usize).max(1);
    let window = 10;
    // The conferencing constraint the paper highlights: every call is
    // unique, so a learned predictor only ever sees a couple of *other*
    // traces — train on two styles, test on a third the net never saw.
    let train: Vec<UserTrace> = (0..2)
        .map(|i| {
            let style = livo_capture::usertrace::TraceStyle::ALL[i % 2]; // Orbit, WalkIn
            UserTrace::generate(style, trace_dur_s, 100 + i as u64)
        })
        .collect();
    let test = UserTrace::generate(
        livo_capture::usertrace::TraceStyle::Inspect,
        trace_dur_s,
        999,
    );
    let train_refs: Vec<&UserTrace> = train.iter().collect();
    let train_samples = build_samples(&train_refs, window, horizon_frames);
    let test_samples = build_samples(&[&test], window, horizon_frames);

    let mut rows = Vec::new();
    for hidden in [3usize, 32, 64] {
        let mut mlp = Mlp::new(window * 6, hidden, 7 + hidden as u64);
        let mut rng = SplitMix64::new(13);
        let epochs = 30;
        for e in 0..epochs {
            let lr = 0.02 / (1.0 + e as f64 * 0.15);
            mlp.train_epoch(&train_samples, lr, &mut rng);
        }
        let (p, r) = evaluate(&mlp, &test_samples);
        rows.push(Fig16Row {
            method: "MLP".to_string(),
            hidden: Some(hidden),
            position_m: p,
            rotation_deg: r,
        });
    }

    // Kalman filter on the test trace.
    let mut kf = livo_math::PosePredictor::new(livo_math::kalman::PosePredictorConfig::default());
    let mut pos_err = 0.0;
    let mut rot_err = 0.0;
    let mut n = 0.0f64;
    for i in 0..test.poses.len().saturating_sub(horizon_frames) {
        kf.observe(&test.poses[i]);
        if i >= window {
            let pred = kf.predict(horizon_s);
            let truth = test.poses[i + horizon_frames];
            let (dp, dr) = pred.error_to(&truth);
            pos_err += dp as f64;
            rot_err += dr as f64;
            n += 1.0;
        }
    }
    rows.push(Fig16Row {
        method: "Kalman Filter".to_string(),
        hidden: None,
        position_m: pos_err / n.max(1.0),
        rotation_deg: rot_err / n.max(1.0),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_capture::usertrace::TraceStyle;

    #[test]
    fn samples_have_consistent_shapes() {
        let t = UserTrace::generate(TraceStyle::Orbit, 10.0, 1);
        let s = build_samples(&[&t], 8, 3);
        assert!(!s.is_empty());
        for smp in &s {
            assert_eq!(smp.input.len(), 48);
        }
        // Last window entry is the anchor: all-zero deltas.
        let last6 = &s[0].input[42..48];
        assert!(last6.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn training_reduces_loss() {
        let t = UserTrace::generate(TraceStyle::WalkIn, 20.0, 2);
        let samples = build_samples(&[&t], 8, 3);
        let mut mlp = Mlp::new(48, 16, 5);
        let mut rng = SplitMix64::new(6);
        let first = mlp.train_epoch(&samples, 0.02, &mut rng);
        let mut last = first;
        for _ in 0..10 {
            last = mlp.train_epoch(&samples, 0.02, &mut rng);
        }
        assert!(last < first, "loss {first} → {last}");
    }

    #[test]
    fn wider_network_fits_better() {
        let rows = fig16_experiment(0.1, 30.0);
        assert_eq!(rows.len(), 4);
        let by_hidden = |h: usize| rows.iter().find(|r| r.hidden == Some(h)).unwrap();
        let narrow = by_hidden(3);
        let wide = by_hidden(64);
        assert!(
            wide.position_m < narrow.position_m,
            "64 hidden {} !< 3 hidden {}",
            wide.position_m,
            narrow.position_m
        );
    }

    #[test]
    fn kalman_is_competitive_without_training() {
        // The paper's point: the Kalman filter is at least as good on
        // position as the narrow MLPs and needs no data.
        let rows = fig16_experiment(0.1, 30.0);
        let kalman = rows.iter().find(|r| r.hidden.is_none()).unwrap();
        let narrow = rows.iter().find(|r| r.hidden == Some(3)).unwrap();
        assert!(kalman.position_m < narrow.position_m);
        assert!(
            kalman.position_m < 0.1,
            "Kalman position error {}",
            kalman.position_m
        );
    }
}
