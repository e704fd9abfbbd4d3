//! Order statistics over a run's repetitions.

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `p`-quantile by Python's `statistics.quantiles` exclusive method
/// (position `p * (n + 1)`, linear interpolation, clamped to the range),
/// so a spread computed here matches one computed there.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// # Panics
/// Panics when `values` is empty or holds a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are not NaN"));
    Summary {
        n: v.len(),
        min: v[0],
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        max: v[v.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `statistics.quantiles(range(1, 11), n=4)` is `[2.75, 5.5, 8.25]`
    /// and `statistics.quantiles([1, 2, 3], n=4)` is `[1.0, 2.0, 3.0]`.
    #[test]
    fn quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.0, 2.0, 3.0, 3.0)
        );
    }
}
