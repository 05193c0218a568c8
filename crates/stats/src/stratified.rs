//! Stratified estimation over two-stage cluster samples — the
//! statistics behind approximate joins.
//!
//! A join aggregate grouped by join key (or by any category of the
//! joining records) is a **stratified** population: each category is a
//! stratum, estimated independently from the same sampled clusters,
//! and the whole-join aggregate is the sum of the strata. Because the
//! per-stratum estimators are (approximately) independent, the
//! combined error bound adds in quadrature:
//!
//! ```text
//! τ̂ = Σ_k τ̂_k        ε = sqrt(Σ_k ε_k²)
//! ```
//!
//! Each stratum is a two-stage total ([`TwoStageEstimator`]) over
//! indicator-weighted cluster observations: a sampled unit that does
//! not belong to stratum `k` counts as a zero-valued unit of stratum
//! `k`'s estimator, exactly like the paper's treatment of keys a unit
//! did not emit (Section 3.1). That keeps every stratum's `m_i`/`M_i`
//! identical to the cluster's and Eq. 1–3 valid per stratum.
//!
//! Sampling itself is not done here: the join samples each dataset's
//! blocks with the runtime's per-dataset ratios and the systematic
//! sampler of [`crate::sampling`].

use std::collections::BTreeMap;

use crate::interval::Interval;
use crate::multistage::{ClusterObservation, ExecutedClusters, TwoStageEstimator};
use crate::Result;

/// Combines independent per-stratum intervals into one interval for
/// the population total: estimates add, half-widths add in quadrature.
///
/// An empty slice combines to the exact zero interval at the given
/// confidence. Infinite half-widths (single-cluster strata) propagate
/// to an infinite combined half-width, as they must.
pub fn combine_strata(intervals: &[Interval], confidence: f64) -> Interval {
    let estimate: f64 = intervals.iter().map(|i| i.estimate).sum();
    let var: f64 = intervals.iter().map(|i| i.half_width * i.half_width).sum();
    Interval::new(estimate, var.sqrt(), confidence)
}

/// Stratified two-stage estimator: one two-stage total per stratum
/// over a shared cluster population of `total_clusters`.
///
/// Strata are keyed by an ordered key type so iteration (and therefore
/// output) is deterministic.
#[derive(Debug, Clone)]
pub struct StratifiedEstimator<K: Ord + Clone> {
    total_clusters: u64,
    strata: BTreeMap<K, Vec<ClusterObservation>>,
}

impl<K: Ord + Clone> StratifiedEstimator<K> {
    /// An estimator over a population of `total_clusters` clusters
    /// (`N` in Eq. 1), shared by every stratum.
    pub fn new(total_clusters: u64) -> Self {
        StratifiedEstimator {
            total_clusters,
            strata: BTreeMap::new(),
        }
    }

    /// Records one cluster observation for `stratum`. The observation's
    /// `total_units`/`sampled_units` must be the *cluster's* counts —
    /// units outside the stratum are zero-valued, not absent.
    pub fn push(&mut self, stratum: K, obs: ClusterObservation) {
        self.strata.entry(stratum).or_default().push(obs);
    }

    /// Per-stratum intervals at `confidence`, in key order: each
    /// stratum's observations are its executed clusters, and it is
    /// present in all of them.
    pub fn estimate_strata(&self, confidence: f64) -> Result<Vec<(K, Interval)>> {
        self.strata
            .iter()
            .map(|(k, obs)| {
                let executed = ExecutedClusters::new(
                    self.total_clusters,
                    obs.iter().map(|o| (o.total_units, o.sampled_units)),
                    confidence,
                );
                let parts = TwoStageEstimator::from_present(&executed, obs.iter().copied())?;
                Ok((k.clone(), parts.interval()?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(id: u64, total: u64, sampled: u64, sum: f64) -> ClusterObservation {
        ClusterObservation {
            cluster_id: id,
            total_units: total,
            sampled_units: sampled,
            sum,
            sum_sq: sum * sum / sampled.max(1) as f64,
        }
    }

    #[test]
    fn combine_adds_estimates_and_quadratures_errors() {
        let a = Interval::new(100.0, 3.0, 0.95);
        let b = Interval::new(50.0, 4.0, 0.95);
        let c = combine_strata(&[a, b], 0.95);
        assert_eq!(c.estimate, 150.0);
        assert!((c.half_width - 5.0).abs() < 1e-12);
    }

    #[test]
    fn combine_of_nothing_is_exact_zero() {
        let c = combine_strata(&[], 0.95);
        assert_eq!(c.estimate, 0.0);
        assert_eq!(c.half_width, 0.0);
    }

    #[test]
    fn combine_propagates_infinite_half_widths() {
        let a = Interval::new(10.0, f64::INFINITY, 0.95);
        let b = Interval::new(5.0, 1.0, 0.95);
        assert!(combine_strata(&[a, b], 0.95).half_width.is_infinite());
    }

    /// The strata's intervals and their quadrature combination.
    fn combined(est: &StratifiedEstimator<&str>) -> (Vec<Interval>, Interval) {
        let strata: Vec<Interval> = est
            .estimate_strata(0.95)
            .unwrap()
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        let combined = combine_strata(&strata, 0.95);
        (strata, combined)
    }

    #[test]
    fn stratified_census_is_exact_per_stratum_and_combined() {
        let mut est = StratifiedEstimator::new(2);
        for cluster in 0..2u64 {
            est.push("a", obs(cluster, 10, 10, 100.0));
            est.push("b", obs(cluster, 10, 10, 30.0));
        }
        let (strata, combined) = combined(&est);
        assert_eq!(strata.len(), 2);
        for i in &strata {
            assert_eq!(i.half_width, 0.0);
        }
        assert_eq!(combined.estimate, 260.0);
        assert_eq!(combined.half_width, 0.0);
    }

    #[test]
    fn stratified_sampling_covers_truth() {
        // 10 clusters of 100 units; stratum "a" units are worth 2.0,
        // stratum "b" units worth 5.0, half of each per cluster. Sample
        // 5 clusters at 50 units each.
        let mut est = StratifiedEstimator::new(10);
        for cluster in 0..5u64 {
            est.push("a", obs(cluster, 100, 50, 2.0 * 25.0));
            est.push("b", obs(cluster, 100, 50, 5.0 * 25.0));
        }
        let (_, combined) = combined(&est);
        let truth = 10.0 * (2.0 * 50.0 + 5.0 * 50.0);
        assert!(
            (combined.estimate - truth).abs() <= combined.half_width.max(1e-9),
            "estimate {} ± {} misses truth {}",
            combined.estimate,
            combined.half_width,
            truth
        );
    }
}
