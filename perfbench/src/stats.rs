//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, and the highest percentile a sample can support.

/// The percentile ladder [`tail`] climbs, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of an ascending
/// slice: the smallest sample with at least `p`% of the samples at or
/// below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (e.g. 99.9% of 10,000) from
    // rounding up to the next rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median of an unsorted sample (the mean of the middle two for even
/// counts, as Python's `statistics.median`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A percentile together with the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. `99.0`).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}={:.1} (n={})", self.percentile, self.value, self.n)
    }
}

/// The highest ladder percentile (p50, p90, p99, p99.9) that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    LADDER
        .iter()
        .rev()
        .find(|&&p| !s.is_empty() && beyond(s.len(), p) >= MIN_BEYOND)
        .map(|&p| Tail {
            percentile: p,
            value: percentile(&s, p),
            n: s.len(),
        })
}

/// The `p`-th percentile, only if the sample supports it (at least
/// [`MIN_BEYOND`] samples beyond); otherwise an error naming the shortfall.
pub fn supported(values: &[f64], p: f64, what: &str) -> Result<f64, String> {
    let n = values.len();
    if n == 0 || beyond(n, p) < MIN_BEYOND {
        return Err(format!(
            "{what}: {n} samples cannot support p{p} (needs {MIN_BEYOND} beyond it)"
        ));
    }
    Ok(percentile(&sorted(values), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&ramp(10_000), 99.9), 9_990.0);
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1,000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1_000)).expect("supported");
        assert_eq!((t.percentile, t.value, t.n), (99.0, 990.0, 1_000));
        // 999 samples: p99 leaves 9 beyond, so the tail drops to p90.
        let t = tail(&ramp(999)).expect("supported");
        assert_eq!((t.percentile, t.n), (90.0, 999));
        assert_eq!(t.value, 900.0);
        // 10,000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)).expect("supported").percentile, 99.9);
        // 20 samples: the median leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(20)).expect("supported").percentile, 50.0);
        // 19 samples support nothing; neither does an empty sample.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_reports_the_sample_count_and_ignores_input_order() {
        let mut v = ramp(2_000);
        v.reverse();
        let t = tail(&v).expect("supported");
        assert_eq!((t.percentile, t.value, t.n), (99.0, 1_980.0, 2_000));
        assert_eq!(t.to_string(), "p99=1980.0 (n=2000)");
    }

    #[test]
    fn supported_refuses_thin_samples() {
        assert_eq!(supported(&ramp(1_000), 99.0, "x"), Ok(990.0));
        let err = supported(&ramp(999), 99.0, "lat").expect_err("thin");
        assert!(err.starts_with("lat: 999 samples"), "{err}");
        assert!(supported(&[], 50.0, "none").is_err());
    }
}
