//! Streaming descriptive statistics (Welford's algorithm).

/// Numerically stable streaming accumulator for mean and variance.
///
/// Uses Welford's online algorithm so that map tasks can stream values
/// through without buffering them.
///
/// # Example
///
/// ```
/// use approxhadoop_stats::describe::Streaming;
///
/// let mut s = Streaming::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Streaming {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Streaming {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Streaming {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel Welford /
    /// Chan et al.), so per-task statistics can be combined in the reduce.
    pub fn merge(&mut self, other: &Streaming) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n - 1` denominator); `0.0` if fewer than
    /// two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (`n` denominator); `0.0` if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Minimum observation; `+∞` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; `-∞` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_defaults() {
        let s = Streaming::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn single_value() {
        let mut s = Streaming::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn variance_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut s = Streaming::new();
        for &v in &data {
            s.push(v);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.sample_variance() - var).abs() < 1e-8);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..50).map(|i| i as f64 * 0.7).collect();
        let b: Vec<f64> = (0..80).map(|i| 100.0 - i as f64).collect();
        let mut s1 = Streaming::new();
        let mut s2 = Streaming::new();
        let mut all = Streaming::new();
        for &v in &a {
            s1.push(v);
            all.push(v);
        }
        for &v in &b {
            s2.push(v);
            all.push(v);
        }
        s1.merge(&s2);
        assert_eq!(s1.count(), all.count());
        assert!((s1.mean() - all.mean()).abs() < 1e-10);
        assert!((s1.sample_variance() - all.sample_variance()).abs() < 1e-8);
        assert_eq!(s1.min(), all.min());
        assert_eq!(s1.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Streaming::new();
        s.push(1.0);
        s.push(2.0);
        let before = s;
        s.merge(&Streaming::new());
        assert_eq!(s, before);

        let mut e = Streaming::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
