//! Property-based tests for the statistical substrate.

mod reference;

use approxhadoop_stats::dist::{
    cached_two_sided_critical_value, ContinuousDistribution, Gev, Normal, StudentT,
};
use approxhadoop_stats::gev::{block_maxima, block_minima};
use approxhadoop_stats::multistage::{
    ClusterObservation, ExecutedClusters, PairedClusterObservation, RatioEstimator,
    SecondaryObservation, ThreeStageEstimator, ThreeStageObservation, TwoStageEstimator,
    WaveStatistics,
};
use approxhadoop_stats::sampling::{choose_indices, random_order, SystematicSampler, Zipf};
use approxhadoop_stats::special::{inv_reg_inc_beta, reg_inc_beta};
use approxhadoop_stats::Interval;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One key's statistics over a job's executed clusters: `(Mᵢ, mᵢ)` per
/// executed cluster and, where the key appeared, its paired sums
/// `(Σy, Σy², Σx, Σx², Σxy)` (`y` alone is the two-stage variable).
struct KeyTable {
    total_clusters: u64,
    clusters: Vec<(u64, u64)>,
    present: Vec<Option<[f64; 5]>>,
    confidence: f64,
}

/// The table shapes the sparse path must agree with the dense one on.
const SHAPES: u8 = 7;

/// A random key table of one `shape`: 0 sparse (the key in few
/// clusters), 1 census, 2 a single executed cluster, 3 every cluster
/// executed but sampled, 4 an executed cluster with `mᵢ = 0 < Mᵢ` or
/// `mᵢ > Mᵢ`, 5 a non-finite sum, 6 an invalid confidence. Every shape
/// has some empty `(0, 0)` clusters and sometimes a key present in all
/// or none of the clusters.
fn key_table(seed: u64, shape: u8) -> KeyTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = if shape == 2 {
        1
    } else {
        rng.gen_range(1..16usize)
    };
    let unexecuted = if matches!(shape, 1 | 3) {
        0
    } else {
        rng.gen_range(0..4u64)
    };
    let mut clusters: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                return (0, 0);
            }
            let total = rng.gen_range(1..60u64);
            let sampled = if shape == 1 {
                total
            } else {
                rng.gen_range(1..=total)
            };
            (total, sampled)
        })
        .collect();
    if shape == 4 {
        let c = &mut clusters[rng.gen_range(0..n)];
        let total = c.0.max(1);
        *c = if rng.gen_bool(0.5) {
            (total, 0)
        } else {
            (total, total + 1)
        };
    }
    let share = [0.1, 0.3, 1.0][rng.gen_range(0..3usize)];
    let mut present: Vec<Option<[f64; 5]>> = clusters
        .iter()
        .map(|&(_, sampled)| {
            if !rng.gen_bool(share) {
                return None;
            }
            // An empty cluster can only hold zero sums; now and then it
            // holds a non-zero one, which both paths must reject.
            let emitting = if sampled == 0 {
                0
            } else {
                rng.gen_range(1..=sampled.min(20))
            };
            let mut sums = [0.0; 5];
            for _ in 0..emitting {
                let y = rng.gen_range(-100.0..100.0f64);
                let x = rng.gen_range(0..3u32) as f64;
                sums[0] += y;
                sums[1] += y * y;
                sums[2] += x;
                sums[3] += x * x;
                sums[4] += x * y;
            }
            if sampled == 0 && rng.gen_bool(0.1) {
                sums[0] = 1.0;
            }
            Some(sums)
        })
        .collect();
    if shape == 5 {
        let at = rng.gen_range(0..n);
        let sums = present[at].get_or_insert([1.0; 5]);
        sums[rng.gen_range(0..2usize) * 2] = [f64::NAN, f64::INFINITY][rng.gen_range(0..2usize)];
    }
    let confidence = if shape == 6 {
        1.0
    } else {
        [0.8, 0.95, 0.99][rng.gen_range(0..3usize)]
    };
    KeyTable {
        total_clusters: n as u64 + unexecuted,
        clusters,
        present,
        confidence,
    }
}

impl KeyTable {
    fn executed(&self) -> ExecutedClusters {
        ExecutedClusters::new(
            self.total_clusters,
            self.clusters.iter().copied(),
            self.confidence,
        )
    }

    /// Cluster `i`'s observation, all-zero where the key is absent.
    fn observation(&self, i: usize) -> ClusterObservation {
        let sums = self.present[i].unwrap_or_default();
        ClusterObservation {
            cluster_id: i as u64,
            total_units: self.clusters[i].0,
            sampled_units: self.clusters[i].1,
            sum: sums[0],
            sum_sq: sums[1],
        }
    }

    fn paired(&self, i: usize) -> PairedClusterObservation {
        let s = self.present[i].unwrap_or_default();
        PairedClusterObservation {
            cluster_id: i as u64,
            total_units: self.clusters[i].0,
            sampled_units: self.clusters[i].1,
            sum_y: s[0],
            sum_y_sq: s[1],
            sum_x: s[2],
            sum_x_sq: s[3],
            sum_xy: s[4],
        }
    }

    fn present_indices(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.clusters.len()).filter(|&i| self.present[i].is_some())
    }

    fn all_present(&self) -> bool {
        self.present.iter().all(Option::is_some)
    }
}

/// One three-stage key over a job's executed clusters: `(Mᵢ, mᵢ)` per
/// executed cluster and, where the key appeared, the secondary units
/// that held its tertiary units (at most `mᵢ` of them; the rest of the
/// `mᵢ` are silent).
struct ThreeStageTable {
    total_clusters: u64,
    clusters: Vec<(u64, u64)>,
    present: Vec<Option<Vec<SecondaryObservation>>>,
    confidence: f64,
}

/// The three-stage table shapes: 0 sparse, 1 census, 2 a single
/// executed cluster, 3 every cluster executed but sampled, 4 an executed
/// cluster with `mᵢ = 0 < Mᵢ` or `mᵢ > Mᵢ`, 5 a census of clusters and
/// items whose tertiary units are partly sampled (`kᵢⱼ < Kᵢⱼ`), 6 an
/// invalid confidence. Shapes 0 and 3 sample tertiary units now and
/// then too; every shape has present clusters with silent items, and
/// sometimes a key present in all or none of the clusters.
fn three_stage_table(seed: u64, shape: u8) -> ThreeStageTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = if shape == 2 {
        1
    } else {
        rng.gen_range(1..12usize)
    };
    let unexecuted = if matches!(shape, 1 | 3 | 5) {
        0
    } else {
        rng.gen_range(0..4u64)
    };
    let census = matches!(shape, 1 | 5);
    let mut clusters: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            let total = rng.gen_range(1..30u64);
            let sampled = if census {
                total
            } else {
                rng.gen_range(1..=total)
            };
            (total, sampled)
        })
        .collect();
    if shape == 4 {
        let c = &mut clusters[rng.gen_range(0..n)];
        *c = if rng.gen_bool(0.5) {
            (c.0, 0)
        } else {
            (c.0, c.0 + 1)
        };
    }
    let tertiary_sampling = match shape {
        5 => 0.5,
        0 | 3 if rng.gen_bool(0.3) => 0.3,
        _ => 0.0,
    };
    let share = [0.1, 0.3, 1.0][rng.gen_range(0..3usize)];
    let present = clusters
        .iter()
        .map(|&(_, sampled)| {
            if !rng.gen_bool(share) {
                return None;
            }
            let listed = rng.gen_range(0..=sampled.min(8));
            let secondaries = (0..listed)
                .map(|_| {
                    let total = rng.gen_range(1..6u64);
                    let sampled = if rng.gen_bool(tertiary_sampling) {
                        rng.gen_range(1..=total)
                    } else {
                        total
                    };
                    let values: Vec<f64> =
                        (0..sampled).map(|_| rng.gen_range(-100.0..100.0)).collect();
                    SecondaryObservation {
                        total_tertiary: total,
                        sampled_tertiary: sampled,
                        sum: values.iter().sum(),
                        sum_sq: values.iter().map(|v| v * v).sum(),
                    }
                })
                .collect();
            Some(secondaries)
        })
        .collect();
    let confidence = if shape == 6 {
        1.0
    } else {
        [0.8, 0.95, 0.99][rng.gen_range(0..3usize)]
    };
    ThreeStageTable {
        total_clusters: n as u64 + unexecuted,
        clusters,
        present,
        confidence,
    }
}

impl ThreeStageTable {
    /// The dense model: every executed cluster, each holding its listed
    /// secondary units and then one zero secondary per silent item.
    fn dense(&self) -> reference::ThreeStageEstimator {
        let mut dense = reference::ThreeStageEstimator::new(self.total_clusters);
        for (i, &(total_units, sampled_units)) in self.clusters.iter().enumerate() {
            let mut secondaries = self.present[i].clone().unwrap_or_default();
            let silent = sampled_units.saturating_sub(secondaries.len() as u64);
            secondaries.extend((0..silent).map(|_| SecondaryObservation {
                total_tertiary: 1,
                sampled_tertiary: 1,
                sum: 0.0,
                sum_sq: 0.0,
            }));
            dense.push(reference::ThreeStageCluster {
                cluster_id: i as u64,
                total_units,
                secondaries,
            });
        }
        dense
    }

    fn sparse(&self) -> approxhadoop_stats::Result<approxhadoop_stats::multistage::TwoStageParts> {
        let executed = ExecutedClusters::new(
            self.total_clusters,
            self.clusters.iter().copied(),
            self.confidence,
        );
        let present = self
            .clusters
            .iter()
            .zip(&self.present)
            .filter_map(|(c, p)| {
                Some(ThreeStageObservation {
                    total_units: c.0,
                    sampled_units: c.1,
                    secondaries: p.as_ref()?.iter().copied(),
                })
            });
        ThreeStageEstimator::from_present(&executed, present)
    }

    fn all_present(&self) -> bool {
        self.present.iter().all(Option::is_some)
    }
}

/// `a` and `b` agree to 1e-12 relative (or are the same infinity/zero).
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// The sparse interval matches the dense one: the same `Ok`/`Err`, a
/// bit-identical estimate, a half-width within 1e-12 relative — and
/// bit-identical throughout when `exact`.
fn same_interval(
    dense: &approxhadoop_stats::Result<Interval>,
    sparse: &approxhadoop_stats::Result<Interval>,
    exact: bool,
) -> std::result::Result<(), String> {
    match (dense, sparse) {
        (Err(_), Err(_)) => Ok(()),
        (Ok(d), Ok(s))
            if d.estimate.to_bits() == s.estimate.to_bits()
                && if exact {
                    d.half_width.to_bits() == s.half_width.to_bits()
                } else {
                    close(d.half_width, s.half_width)
                } =>
        {
            Ok(())
        }
        _ => Err(format!("dense {dense:?} vs sparse {sparse:?}")),
    }
}

/// The two-stage interval of `total` clusters of which `obs` are the
/// executed ones, the key present in each: what a reducer computes.
fn two_stage(total: u64, obs: &[ClusterObservation], confidence: f64) -> Interval {
    let executed = ExecutedClusters::new(
        total,
        obs.iter().map(|o| (o.total_units, o.sampled_units)),
        confidence,
    );
    TwoStageEstimator::from_present(&executed, obs.iter().copied())
        .and_then(|parts| parts.interval())
        .unwrap()
}

/// A bound on the rounding the dense mean estimator adds to its squared
/// half-width in the clusters a key is absent from, at ratio `r`. Every
/// sampled unit of such a cluster has the residual `d = −r`, so its
/// within variance is exactly `0`; the dense path computes it as
/// `(r²mᵢ − (r·mᵢ)²/mᵢ)/(mᵢ − 1)`, which cancels to a few ulps of
/// `r²mᵢ/(mᵢ − 1)` (bounded here by 16ε). The sparse path adds the `0`.
fn absent_rounding(table: &KeyTable, r: f64) -> f64 {
    let n = table.clusters.len() as f64;
    let nn = table.total_clusters as f64;
    let mut units = 0.0;
    let mut within = 0.0;
    for (i, &(total, sampled)) in table.clusters.iter().enumerate() {
        units += total as f64;
        if table.present[i].is_none() && sampled >= 2 {
            let (m, mm) = (sampled as f64, total as f64);
            within += mm * (mm - m) / m * (16.0 * f64::EPSILON * r * r * m / (m - 1.0));
        }
    }
    let tx = nn / n * units;
    let t = cached_two_sided_critical_value(n - 1.0, table.confidence);
    t * t * (nn / n * within) / (tx * tx)
}

/// Strategy: a population of blocks of values.
fn blocks_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0..100.0f64, 1..40), 2..12)
}

proptest! {
    /// A census (all blocks, all items) is exact for any population.
    #[test]
    fn census_is_always_exact(blocks in blocks_strategy()) {
        let truth: f64 = blocks.iter().flatten().sum();
        let obs: Vec<ClusterObservation> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| ClusterObservation {
                cluster_id: i as u64,
                total_units: b.len() as u64,
                sampled_units: b.len() as u64,
                sum: b.iter().sum(),
                sum_sq: b.iter().map(|v| v * v).sum(),
            })
            .collect();
        let iv = two_stage(blocks.len() as u64, &obs, 0.95);
        prop_assert!((iv.estimate - truth).abs() <= 1e-6 * (1.0 + truth.abs()));
        prop_assert_eq!(iv.half_width, 0.0);
    }

    /// Scaling all values by a constant scales the estimate and the
    /// half-width by |c| (linearity of the estimator).
    #[test]
    fn estimator_is_scale_equivariant(
        blocks in blocks_strategy(),
        c in -5.0..5.0f64,
        keep in 2usize..6,
    ) {
        prop_assume!(c.abs() > 1e-3);
        let n = blocks.len().min(keep);
        let build = |scale: f64| {
            let obs: Vec<ClusterObservation> = blocks
                .iter()
                .take(n)
                .enumerate()
                .map(|(i, b)| {
                    let m = (b.len() / 2).max(1);
                    let vals: Vec<f64> = b[..m].iter().map(|v| v * scale).collect();
                    ClusterObservation {
                        cluster_id: i as u64,
                        total_units: b.len() as u64,
                        sampled_units: m as u64,
                        sum: vals.iter().sum(),
                        sum_sq: vals.iter().map(|v| v * v).sum(),
                    }
                })
                .collect();
            two_stage(blocks.len() as u64, &obs, 0.95)
        };
        let base = build(1.0);
        let scaled = build(c);
        let tol = 1e-6 * (1.0 + base.estimate.abs() * c.abs());
        prop_assert!((scaled.estimate - c * base.estimate).abs() <= tol);
        if base.half_width.is_finite() {
            let tol = 1e-6 * (1.0 + base.half_width * c.abs());
            prop_assert!((scaled.half_width - c.abs() * base.half_width).abs() <= tol);
        }
    }

    /// Adding c to every sampled unit value of N clusters that all hold
    /// M units moves each cluster total τ̂ᵢ by c·M, so τ̂ moves by c·N·M
    /// while the inter-cluster variance, and in exact arithmetic every
    /// within-cluster variance, stays put: the half-width must not move.
    ///
    /// Fails today on the first generated case (five executed clusters
    /// of M = 27 units with m = 13 sampled, one cluster unexecuted,
    /// c = 1e9): the half-width moves from 2354.48 to 2367.94, because
    /// `ClusterObservation::within_variance` computes
    /// `(Σv² − (Σv)²/m)/(m−1)` and clamps it at zero.
    #[test]
    #[ignore = "fails until ROADMAP 1(c)"]
    fn estimator_is_shift_invariant(
        blocks in prop::collection::vec(prop::collection::vec(-100.0..100.0f64, 40), 2..12),
        units in 2usize..41,
        unexecuted in 0usize..4,
        decade in 1i32..5,
    ) {
        let c = 10f64.powi(3 * decade);
        let clusters = blocks.len() + unexecuted;
        let build = |shift: f64| {
            let obs: Vec<ClusterObservation> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let vals: Vec<f64> = b[..units / 2].iter().map(|v| v + shift).collect();
                    ClusterObservation {
                        cluster_id: i as u64,
                        total_units: units as u64,
                        sampled_units: vals.len() as u64,
                        sum: vals.iter().sum(),
                        sum_sq: vals.iter().map(|v| v * v).sum(),
                    }
                })
                .collect();
            two_stage(clusters as u64, &obs, 0.95)
        };
        let base = build(0.0);
        let shifted = build(c);
        let moved = c * (clusters * units) as f64;
        prop_assert!(
            (shifted.estimate - base.estimate - moved).abs() <= 1e-9 * moved,
            "estimate {} -> {}, expected a move of {moved}",
            base.estimate,
            shifted.estimate
        );
        prop_assert!(
            (shifted.half_width - base.half_width).abs() <= 1e-6 * base.half_width,
            "half-width {} -> {} at c = {c}",
            base.half_width,
            shifted.half_width
        );
    }

    /// Higher confidence always widens the interval.
    #[test]
    fn interval_widens_with_confidence(blocks in blocks_strategy()) {
        let obs: Vec<ClusterObservation> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let m = (b.len() / 2).max(1);
                ClusterObservation {
                    cluster_id: i as u64,
                    total_units: b.len() as u64,
                    sampled_units: m as u64,
                    sum: b[..m].iter().sum(),
                    sum_sq: b[..m].iter().map(|v| v * v).sum(),
                }
            })
            .collect();
        let total = (blocks.len() + 2) as u64;
        let lo = two_stage(total, &obs, 0.80);
        let hi = two_stage(total, &obs, 0.99);
        prop_assert!(hi.half_width >= lo.half_width);
    }

    /// The predicted bound (planner input) shrinks when either more
    /// clusters run precisely or more units are sampled per cluster.
    #[test]
    fn predicted_bound_is_monotone(
        su in 0.1..1e4f64,
        within in 0.1..1e3f64,
        n1 in 2u64..20,
        extra in 1u64..50,
    ) {
        let w = WaveStatistics {
            total_clusters: 100,
            completed_clusters: n1,
            inter_cluster_var: su,
            mean_cluster_size: 1000.0,
            mean_within_var: within,
            completed_within_term: 0.0,
            estimate: 1e6,
        };
        let full = w.predicted_bound(extra, 1000.0, 0.95);
        let more = w.predicted_bound(extra + 5, 1000.0, 0.95);
        prop_assert!(more <= full + 1e-9);
        let coarse = w.predicted_bound(extra, 10.0, 0.95);
        prop_assert!(full <= coarse + 1e-9);
    }

    /// Student-t: quantile is monotone in p and symmetric about 0.5.
    #[test]
    fn student_t_quantile_monotone_symmetric(df in 1.0..200.0f64, p in 0.01..0.49f64) {
        let t = StudentT::new(df);
        prop_assert!(t.quantile(p) < t.quantile(p + 0.02));
        prop_assert!((t.quantile(p) + t.quantile(1.0 - p)).abs() < 1e-8);
    }

    /// Normal cdf/quantile round-trip for arbitrary parameters.
    #[test]
    fn normal_roundtrip(mean in -100.0..100.0f64, std in 0.01..50.0f64, p in 0.001..0.999f64) {
        let n = Normal::new(mean, std);
        let x = n.quantile(p);
        prop_assert!((n.cdf(x) - p).abs() < 1e-9);
    }

    /// GEV cdf/quantile round-trip across the shape parameter range.
    #[test]
    fn gev_roundtrip(mu in -10.0..10.0f64, sigma in 0.1..10.0f64, xi in -0.8..1.5f64, p in 0.01..0.99f64) {
        let g = Gev::new(mu, sigma, xi);
        let x = g.quantile(p);
        prop_assert!((g.cdf(x) - p).abs() < 1e-8);
    }

    /// Incomplete beta inverse round-trip.
    #[test]
    fn inc_beta_roundtrip(a in 0.2..50.0f64, b in 0.2..50.0f64, p in 0.001..0.999f64) {
        let x = inv_reg_inc_beta(a, b, p);
        prop_assert!((reg_inc_beta(a, b, x) - p).abs() < 1e-7);
    }

    /// Block minima/maxima: outputs are genuine extremes of a partition
    /// covering the input.
    #[test]
    fn block_extremes_bound_input(values in prop::collection::vec(-1e6..1e6f64, 1..200), blocks in 1usize..20) {
        let maxima = block_maxima(&values, blocks);
        let minima = block_minima(&values, blocks);
        let global_max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let global_min = values.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(maxima.iter().copied().fold(f64::NEG_INFINITY, f64::max), global_max);
        prop_assert_eq!(minima.iter().copied().fold(f64::INFINITY, f64::min), global_min);
        prop_assert_eq!(maxima.len(), blocks.min(values.len()));
    }

    /// Systematic sampling: deterministic per seed, correct count shape,
    /// indices strictly increasing.
    #[test]
    fn systematic_sampler_properties(total in 1usize..5000, stride in 1usize..100, seed in 0u64..100) {
        let s = SystematicSampler::new(stride);
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = s.sample_indices(&mut rng, total);
        let mut rng2 = StdRng::seed_from_u64(seed);
        prop_assert_eq!(&idx, &s.sample_indices(&mut rng2, total));
        prop_assert!(!idx.is_empty());
        prop_assert!(idx.windows(2).all(|w| w[1] > w[0]));
        prop_assert!(idx.iter().all(|&i| i < total));
        // Count within one of total/stride.
        let expected = total / stride;
        let lower = expected.max(1).saturating_sub(usize::from(expected > 0));
        prop_assert!(idx.len() >= lower);
        prop_assert!(idx.len() <= expected + 1);
    }

    /// choose_indices returns k distinct in-range indices.
    #[test]
    fn choose_indices_properties(n in 1usize..500, k in 0usize..500, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = choose_indices(&mut rng, n, k);
        prop_assert_eq!(idx.len(), k.min(n));
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), idx.len());
        prop_assert!(idx.iter().all(|&i| i < n));
    }

    /// random_order is a permutation.
    #[test]
    fn random_order_is_permutation(n in 0usize..300, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = random_order(&mut rng, n);
        p.sort_unstable();
        prop_assert_eq!(p, (0..n).collect::<Vec<_>>());
    }

    /// Zipf samples stay in range for any exponent/catalogue size.
    #[test]
    fn zipf_in_range(n in 1u64..100_000, s in 0.1..3.0f64, seed in 0u64..20) {
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let k = z.sample(&mut rng);
            prop_assert!(k >= 1 && k <= n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `TwoStageEstimator::from_present` over the clusters a key
    /// appeared in gives what the dense estimator gives over every
    /// executed cluster with zeros where the key is absent: the same
    /// `Ok`/`Err`, a bit-identical estimate and within term, `s_u²`,
    /// variance and half-width within 1e-12 relative — all bit-identical
    /// when the key is in every cluster.
    #[test]
    fn sparse_two_stage_matches_dense(seed in 0u64..u64::MAX, shape in 0u8..SHAPES) {
        let table = key_table(seed, shape);
        let mut dense = reference::TwoStageEstimator::new(table.total_clusters);
        for i in 0..table.clusters.len() {
            dense.push(table.observation(i));
        }
        let sparse = TwoStageEstimator::from_present(
            &table.executed(),
            table.present_indices().map(|i| table.observation(i)),
        );
        let exact = table.all_present();
        let interval = sparse.as_ref().map_err(Clone::clone).and_then(|p| p.interval());
        let checked = same_interval(&dense.estimate(table.confidence), &interval, exact);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        prop_assert_eq!(dense.variance().is_ok(), sparse.is_ok());
        if let (Ok(variance), Ok(parts)) = (dense.variance(), &sparse) {
            let s_u2 = dense.inter_cluster_variance();
            let n = table.clusters.len() as f64;
            let mut within = 0.0;
            let mut mean_within = 0.0;
            for o in (0..table.clusters.len()).map(|i| table.observation(i)) {
                mean_within += reference::within_variance(&o) / n;
                if o.sampled_units > 0 {
                    let (m, mm) = (o.sampled_units as f64, o.total_units as f64);
                    within += mm * (mm - m) * reference::within_variance(&o) / m;
                }
            }
            prop_assert_eq!(parts.estimate.to_bits(), dense.estimated_total().unwrap().to_bits());
            prop_assert_eq!(parts.within_term.to_bits(), within.to_bits());
            prop_assert_eq!(parts.mean_within_var.to_bits(), mean_within.to_bits());
            if exact {
                prop_assert_eq!(parts.inter_cluster_var.to_bits(), s_u2.to_bits());
                prop_assert_eq!(parts.variance.to_bits(), variance.to_bits());
            } else {
                prop_assert!(close(parts.inter_cluster_var, s_u2), "s_u² {s_u2} vs {}", parts.inter_cluster_var);
                prop_assert!(close(parts.variance, variance), "variance {variance} vs {}", parts.variance);
            }
        }
    }

    /// `RatioEstimator::from_present` matches the dense ratio estimator
    /// the same way: an absent cluster has `y = x = 0`, so its residual
    /// is zero.
    #[test]
    fn sparse_ratio_matches_dense(seed in 0u64..u64::MAX, shape in 0u8..SHAPES) {
        let table = key_table(seed, shape);
        let mut dense = reference::RatioEstimator::new(table.total_clusters);
        for i in 0..table.clusters.len() {
            dense.push(table.paired(i));
        }
        let sparse = RatioEstimator::from_present(
            &table.executed(),
            table.present_indices().map(|i| table.paired(i)),
        );
        let checked = same_interval(&dense.estimate(table.confidence), &sparse, table.all_present());
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// `RatioEstimator::mean_from_present` matches the dense mean
    /// estimator the same way. An absent cluster is not zero in the
    /// mean's denominator (`x ≡ 1`), so it enters in closed form: its
    /// residual total is `−r̂·Mᵢ`, and its within variance is `0`.
    #[test]
    fn sparse_mean_matches_dense(seed in 0u64..u64::MAX, shape in 0u8..SHAPES) {
        let table = key_table(seed, shape);
        let mut dense = reference::MeanEstimator::new(table.total_clusters);
        for i in 0..table.clusters.len() {
            dense.push(table.observation(i));
        }
        let sparse = RatioEstimator::mean_from_present(
            &table.executed(),
            table.present_indices().map(|i| table.observation(i)),
        );
        let checked = match (dense.estimate(table.confidence), &sparse) {
            (Ok(d), Ok(s)) if !table.all_present() && d.half_width != s.half_width => {
                // Compared squared: the dense path's rounding in the
                // absent clusters adds to the variance, not the width.
                let (d2, s2) = (d.half_width * d.half_width, s.half_width * s.half_width);
                let slack = absent_rounding(&table, d.estimate);
                if d.estimate.to_bits() == s.estimate.to_bits()
                    && (d2 - s2).abs() <= 2e-12 * d2.max(s2) + slack
                {
                    Ok(())
                } else {
                    Err(format!("dense {d:?} vs sparse {s:?} (slack {slack:e} on the squares)"))
                }
            }
            (dense, _) => same_interval(&dense, &sparse, table.all_present()),
        };
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// `ThreeStageEstimator::from_present` over the clusters a key
    /// appeared in, each listing only its emitting items, gives what the
    /// dense estimator gives over every executed cluster with one
    /// secondary unit per sampled item, silent ones as zeros: the same
    /// `Ok`/`Err`, a bit-identical estimate and within term (third stage
    /// included, `kᵢⱼ < Kᵢⱼ` or not), and `s_u²`, variance and
    /// half-width within 1e-12 relative — bit-identical when the key is
    /// in every cluster.
    #[test]
    fn sparse_three_stage_matches_dense(seed in 0u64..u64::MAX, shape in 0u8..SHAPES) {
        let table = three_stage_table(seed, shape);
        let dense = table.dense();
        let sparse = table.sparse();
        let exact = table.all_present();
        let interval = sparse.as_ref().map_err(Clone::clone).and_then(|p| p.interval());
        let checked = same_interval(&dense.estimate(table.confidence), &interval, exact);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        prop_assert_eq!(dense.variance().is_ok(), sparse.is_ok());
        if let (Ok(variance), Ok(parts)) = (dense.variance(), &sparse) {
            let s_u2 = dense.inter_cluster_variance();
            let within = dense.within_term();
            prop_assert_eq!(parts.estimate.to_bits(), dense.estimated_total().unwrap().to_bits());
            prop_assert_eq!(parts.within_term.to_bits(), within.to_bits());
            if exact {
                prop_assert_eq!(parts.inter_cluster_var.to_bits(), s_u2.to_bits());
                prop_assert_eq!(parts.variance.to_bits(), variance.to_bits());
            } else {
                prop_assert!(close(parts.inter_cluster_var, s_u2), "s_u² {s_u2} vs {}", parts.inter_cluster_var);
                prop_assert!(close(parts.variance, variance), "variance {variance} vs {}", parts.variance);
            }
        }
    }
}
