//! Distinct-value (species-richness) estimation.
//!
//! The paper's Section 3.1 notes that online sampling can miss rarely
//! occurring intermediate keys entirely, and that "we could estimate the
//! overall number of keys … by extrapolating from a sample, as described
//! in [Haas et al., VLDB'95]". This module implements that extension:
//! given the *frequency-of-frequencies* of the sampled keys (how many
//! keys were seen once, twice, …), it estimates how many keys exist in
//! the whole population, including the unseen ones.
//!
//! The estimator is **Chao1**, `D̂ = d + f₁² / (2 f₂)`, a lower-bound-style
//! estimate that is robust when most unseen keys are rare; it is what the
//! multi-stage reducer publishes.

use std::collections::HashMap;

use crate::{Result, StatsError};

/// Frequency-of-frequencies summary of a sample: `f[k]` = number of
/// distinct values observed exactly `k` times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrequencyCounts {
    counts: HashMap<u64, u64>,
    observed_distinct: u64,
    sample_size: u64,
}

impl FrequencyCounts {
    /// Builds the summary from per-value observation counts.
    pub fn from_counts<I: IntoIterator<Item = u64>>(per_value_counts: I) -> Self {
        let mut fc = FrequencyCounts::default();
        for c in per_value_counts {
            if c == 0 {
                continue;
            }
            *fc.counts.entry(c).or_default() += 1;
            fc.observed_distinct += 1;
            fc.sample_size += c;
        }
        fc
    }

    /// Number of distinct values observed (`d`).
    pub fn observed_distinct(&self) -> u64 {
        self.observed_distinct
    }

    /// Total observations (`n`).
    pub fn sample_size(&self) -> u64 {
        self.sample_size
    }

    /// `f_k` — values seen exactly `k` times.
    pub fn seen_exactly(&self, k: u64) -> u64 {
        self.counts.get(&k).copied().unwrap_or(0)
    }
}

/// The Chao1 estimate of the total number of distinct values:
/// `D̂ = d + f₁² / (2 f₂)` (with the bias-corrected form
/// `d + f₁(f₁-1)/2` when no value was seen twice).
///
/// Returns an error for an empty sample.
pub fn chao1(fc: &FrequencyCounts) -> Result<f64> {
    if fc.observed_distinct == 0 {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    let d = fc.observed_distinct as f64;
    let f1 = fc.seen_exactly(1) as f64;
    let f2 = fc.seen_exactly(2) as f64;
    Ok(if f2 > 0.0 {
        d + f1 * f1 / (2.0 * f2)
    } else {
        d + f1 * (f1 - 1.0) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::hash::Hash;

    /// The summary of a raw sample of values.
    fn from_sample<T: Eq + Hash>(sample: impl IntoIterator<Item = T>) -> FrequencyCounts {
        let mut per_value: HashMap<T, u64> = HashMap::new();
        for v in sample {
            *per_value.entry(v).or_default() += 1;
        }
        FrequencyCounts::from_counts(per_value.into_values())
    }

    #[test]
    fn frequency_counts_from_sample() {
        let fc = from_sample(vec!["a", "b", "a", "c", "a", "b"]);
        assert_eq!(fc.observed_distinct(), 3);
        assert_eq!(fc.sample_size(), 6);
        assert_eq!(fc.seen_exactly(1), 1); // c
        assert_eq!(fc.seen_exactly(2), 1); // b
        assert_eq!(fc.seen_exactly(3), 1); // a
    }

    #[test]
    fn zero_counts_are_skipped() {
        let fc = FrequencyCounts::from_counts(vec![0, 3, 0, 1]);
        assert_eq!(fc.observed_distinct(), 2);
        assert_eq!(fc.sample_size(), 4);
    }

    #[test]
    fn full_census_estimates_observed() {
        // Every value seen many times → no singletons → D̂ = d.
        let fc = FrequencyCounts::from_counts(vec![10, 20, 30]);
        assert_eq!(chao1(&fc).unwrap(), 3.0);
    }

    #[test]
    fn empty_sample_errors() {
        let fc = FrequencyCounts::default();
        assert!(chao1(&fc).is_err());
    }

    #[test]
    fn estimators_recover_uniform_population() {
        // 1 000 equally likely values, sample 1 500 draws with
        // replacement: many values unseen; Chao1 should land far closer
        // to 1 000 than the observed count.
        let mut rng = StdRng::seed_from_u64(7);
        let sample: Vec<u32> = (0..1500).map(|_| rng.gen_range(0..1000)).collect();
        let fc = from_sample(sample);
        let observed = fc.observed_distinct() as f64;
        assert!(observed < 900.0, "sample should miss values ({observed})");
        let chao = chao1(&fc).unwrap();
        assert!(
            (850.0..1250.0).contains(&chao),
            "chao1 {chao} should approach 1000 (observed {observed})"
        );
        assert!(chao > observed);
    }

    #[test]
    fn chao1_bias_corrected_without_doubletons() {
        // 3 singletons, no doubletons: D̂ = 3 + 3·2/2 = 6.
        let fc = FrequencyCounts::from_counts(vec![1, 1, 1]);
        assert_eq!(chao1(&fc).unwrap(), 6.0);
    }
}
