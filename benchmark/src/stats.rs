//! Small numeric helpers over raw samples.

/// Percentile of raw samples, linearly interpolated between the two
/// nearest ranks; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = (v.len() - 1) as f64 * q;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Sum that is `0.0`, not the iterator's `-0.0`, when there is nothing.
pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |a, &b| a + b)
}

pub fn mean(samples: &[f64]) -> f64 {
    ratio(sum(samples), samples.len() as f64)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
