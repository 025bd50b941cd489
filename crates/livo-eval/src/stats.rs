//! Descriptive statistics and ASCII rendering helpers.

/// Mean of a sample (0 for empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Population standard deviation.
pub fn std_dev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

/// p-th percentile (0–1) by nearest-rank on a sorted copy.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s[(((s.len() - 1) as f64) * p).round() as usize]
}

/// Median.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// A horizontal ASCII bar scaled to `width` characters for `value` out of
/// `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "█".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentiles_bracket_the_data() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!((median(&v) - 50.0).abs() <= 1.0);
        assert!((percentile(&v, 0.9) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn bars_scale_with_value() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10).chars().count(), 0);
        assert!(bar(1.0, 0.0, 10).is_empty());
    }
}
