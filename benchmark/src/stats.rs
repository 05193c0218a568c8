//! Order statistics for timing samples.
//!
//! Timings are reported as a median with quartiles and the sample
//! count; a tail is reported only at the highest percentile that still
//! has ten samples beyond it, so a "p99" of 40 samples (which would be
//! the maximum) is never printed.

/// Percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [0.90, 0.95, 0.975, 0.99, 0.995, 0.999];
/// Samples that must lie beyond a reported tail percentile.
const BEYOND: usize = 10;

/// Returns `values` sorted ascending (NaNs last, so they surface in the
/// tail instead of corrupting the median).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median by linear interpolation (the mean of the two middle samples
/// for even counts). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values), 0.5)
}

/// Linearly interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let s = sorted(values);
        Some(Summary {
            n: s.len(),
            p25: quantile(&s, 0.25)?,
            p50: quantile(&s, 0.5)?,
            p75: quantile(&s, 0.75)?,
        })
    }
}

/// The highest percentile of the ladder with at least ten of `n`
/// samples strictly beyond its nearest rank; `None` below 100 samples
/// (p90 needs 100).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&q| n > 0 && n - rank(n, q) >= BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        // Matches Python's statistics.quantiles(method="inclusive").
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!((s.p25, s.p75), (17.5, 32.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(200.0));
        assert_eq!(percentile(&v, 0.9), Some(360.0));
        assert_eq!(percentile(&v, 0.975), Some(390.0));
        assert_eq!(percentile(&v, 1.0), Some(400.0));
        assert_eq!(percentile(&v[..1], 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(160), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        // 400 jobs: p97.5 is rank 390, exactly ten beyond; p99 has four.
        assert_eq!(tail_percentile(400), Some(0.975));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn nans_sort_last() {
        let s = sorted(&[2.0, f64::NAN, 1.0]);
        assert_eq!(&s[..2], &[1.0, 2.0]);
        assert!(s[2].is_nan());
    }
}
