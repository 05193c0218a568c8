//! Multi-stage cluster sampling estimators (paper Section 3.1).
//!
//! ApproxHadoop maps MapReduce onto two-stage cluster sampling: the input
//! data blocks are the *clusters* (first stage — executing only a subset
//! of map tasks is cluster sampling) and the data items within each block
//! are the *units* (second stage — input data sampling within a block).
//!
//! For a population of `N` clusters where cluster `i` holds `M_i` units,
//! a sample of `n` clusters with `m_i` units sampled from cluster `i`
//! gives the estimated total (paper Eq. 1):
//!
//! ```text
//! τ̂ = (N/n) · Σᵢ (Mᵢ/mᵢ) · Σⱼ vᵢⱼ
//! ```
//!
//! with error bound `ε = t_{n-1, 1-α/2} · sqrt(Var(τ̂))` (Eq. 2) and
//!
//! ```text
//! Var(τ̂) = N(N-n)·s_u²/n + (N/n)·Σᵢ Mᵢ(Mᵢ-mᵢ)·sᵢ²/mᵢ     (Eq. 3)
//! ```
//!
//! The key MapReduce-specific assumption (Section 3.1): a sampled unit
//! that produced **no** value for an intermediate key is counted as a
//! `0`-valued observation, so `sum`/`sum_sq` only accumulate emitted
//! values while `sampled_units` counts every sampled item.
//!
//! # Per-key cost
//!
//! A reducer estimates every key of a job over the same executed
//! clusters, but a key typically appears in a few of them. Every
//! estimator here takes only the clusters a key appeared in and costs
//! O(those clusters), not O(`n`):
//!
//! * [`ExecutedClusters`] holds what every key shares, computed once per
//!   evaluation from the executed clusters' `(Mᵢ, mᵢ)`: `N`, `n`, whether
//!   they form a census, whether one of them is invalid (`mᵢ = 0 < Mᵢ`
//!   or `mᵢ > Mᵢ`, which fails every key, present in it or not), the
//!   one `t_{n−1}` lookup, and the sums of `Mᵢ`, `Mᵢ²` and `(Mᵢ/mᵢ)·mᵢ`
//!   that the mean per unit needs.
//! * [`TwoStageEstimator::from_present`] (sum, count) and
//!   [`RatioEstimator::from_present`]: an absent cluster has `τ̂ᵢ = 0`
//!   and `sᵢ² = 0`, so it adds nothing to `τ̂` or to the within term,
//!   and exactly `τ̄²` to `Σ(τ̂ᵢ − τ̄)²`. The `n − p` absent clusters
//!   enter in closed form as `(n − p)·τ̄²` (for a ratio, an absent
//!   cluster's residual is `0`).
//! * [`RatioEstimator::mean_from_present`]: the mean per unit is the
//!   ratio with `x ≡ 1`, so an absent cluster is not zero in its
//!   denominator. Its residual total is `−r̂·Mᵢ` and its within term
//!   `0`, which the executed clusters' integer sums of `Mᵢ` and `Mᵢ²`
//!   put in closed form.
//! * [`ThreeStageEstimator::from_present`] (blocks → items → pairs): a
//!   present cluster lists only the items that emitted for the key; its
//!   `mᵢ − listed` silent items are zero secondaries, added one by one
//!   (O(`mᵢ`) per present cluster). An absent cluster is all silent
//!   items, so it adds exactly what an absent two-stage cluster adds and
//!   enters in the same closed form.
//!
//! All of them share one assembly of Eq. 1–3 — the between-cluster sum,
//! the census and `n < 2` rules, and the `t` lookup — over each present
//! cluster's `τ̂ᵢ`, `sᵢ²` and within terms.
//!
//! A caller holding one observation per executed cluster (the join's
//! strata, a simulation) passes them all as present. With `p = n` each
//! function is bit-identical to the dense `Vec`-of-observation
//! estimators, which `tests/reference` keeps as the property tests'
//! model.

use crate::dist::cached_two_sided_critical_value;
use crate::interval::Interval;
use crate::{Result, StatsError};

/// Per-cluster (per map task) statistics for one intermediate key.
///
/// `sum` and `sum_sq` are over the values emitted for the key by the
/// `sampled_units` items actually processed; items that emitted nothing
/// implicitly contribute zeros (they are included in `sampled_units`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterObservation {
    /// Identifier of the cluster (map task / block id); informational.
    pub cluster_id: u64,
    /// `M_i` — total number of units (data items) in the block.
    pub total_units: u64,
    /// `m_i` — number of units sampled (processed) from the block.
    pub sampled_units: u64,
    /// `Σⱼ vᵢⱼ` over the sampled units.
    pub sum: f64,
    /// `Σⱼ vᵢⱼ²` over the sampled units.
    pub sum_sq: f64,
}

impl ClusterObservation {
    /// The unbiased estimate of this cluster's total: `(Mᵢ/mᵢ)·Σⱼ vᵢⱼ`.
    /// An empty cluster (`Mᵢ = mᵢ = 0`) has total `0`.
    ///
    /// `sampled_units == 0` with `total_units > 0` is an *invalid*
    /// observation (no expansion factor exists): callers that skip
    /// validation would silently read a biased `0.0`, so the invariant
    /// is debug-asserted here.
    pub fn estimated_total(&self) -> f64 {
        debug_assert!(
            self.sampled_units > 0 || self.total_units == 0,
            "invalid cluster observation: sampled_units == 0 with total_units == {} \
             (validate() rejects this)",
            self.total_units
        );
        if self.sampled_units == 0 {
            return 0.0;
        }
        self.total_units as f64 / self.sampled_units as f64 * self.sum
    }

    /// Intra-cluster sample variance `sᵢ²` of the unit values (including
    /// implicit zeros); `0` when fewer than two units were sampled.
    pub fn within_variance(&self) -> f64 {
        let m = self.sampled_units as f64;
        if self.sampled_units < 2 {
            return 0.0;
        }
        let var = (self.sum_sq - self.sum * self.sum / m) / (m - 1.0);
        var.max(0.0)
    }

    /// The paired observation of the mean per unit: `y = v` and `x ≡ 1`
    /// over the same sampled units.
    fn per_unit(&self) -> PairedClusterObservation {
        let m = self.sampled_units as f64;
        PairedClusterObservation {
            cluster_id: self.cluster_id,
            total_units: self.total_units,
            sampled_units: self.sampled_units,
            sum_y: self.sum,
            sum_y_sq: self.sum_sq,
            sum_x: m,
            sum_x_sq: m,
            sum_xy: self.sum,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.sampled_units == 0 {
            // An entirely empty block is a legitimate (zero) cluster.
            if self.total_units == 0 && self.sum == 0.0 && self.sum_sq == 0.0 {
                return Ok(());
            }
            return Err(StatsError::invalid(
                "sampled_units",
                "must sample at least one unit per executed non-empty cluster",
            ));
        }
        if self.sampled_units > self.total_units {
            return Err(StatsError::invalid(
                "sampled_units",
                format!(
                    "cannot exceed total_units ({} > {})",
                    self.sampled_units, self.total_units
                ),
            ));
        }
        if !self.sum.is_finite() || !self.sum_sq.is_finite() {
            return Err(StatsError::Numerical {
                context: "cluster observation sums",
            });
        }
        Ok(())
    }
}

impl PresentCluster for ClusterObservation {
    fn terms(&self, within: &mut f64) -> Result<ClusterTerms> {
        self.validate()?;
        let s2 = self.within_variance();
        if self.sampled_units > 0 {
            let m = self.sampled_units as f64;
            let mm = self.total_units as f64;
            *within += mm * (mm - m) * s2 / m;
        }
        Ok(ClusterTerms {
            total: self.estimated_total(),
            s2,
            whole: true,
        })
    }

    fn total(&self) -> f64 {
        self.estimated_total()
    }
}

/// Two-stage sampling estimator of a population **total** (sum).
///
/// Counts are sums of indicator values, so this estimator also covers the
/// paper's `count` aggregate.
#[derive(Debug, Clone, Copy)]
pub struct TwoStageEstimator;

impl TwoStageEstimator {
    /// One key's Eq. 1–3 from only the executed clusters it appeared in,
    /// in O(`present`) rather than O(`n`): the numbers the dense
    /// estimator gives for one observation per executed cluster, all-zero
    /// where the key is absent.
    ///
    /// An absent cluster has `τ̂ᵢ = 0` and `sᵢ² = 0`, so it adds nothing
    /// to `τ̂` or to the within term, and exactly `τ̄²` to
    /// `Σ(τ̂ᵢ − τ̄)²`. The present clusters are summed in the order given
    /// (the dense path's order), so `τ̂` and the within term are
    /// bit-identical to the dense path's. `Σ(τ̂ᵢ − τ̄)²` starts from the
    /// `n − p` absent clusters' `(n − p)·τ̄²` and adds the present terms
    /// in order, so `s_u²` differs from the dense sum, which interleaves
    /// the absent `τ̄²`s, by rounding only, and only when `p < n`.
    ///
    /// Every present observation is checked as the dense path checks it.
    /// What an absent cluster could fail — `mᵢ = 0 < Mᵢ` or `mᵢ > Mᵢ` —
    /// is `clusters`' job-level validity, and fails every key alike.
    pub fn from_present<I>(clusters: &ExecutedClusters, present: I) -> Result<TwoStageParts>
    where
        I: IntoIterator<Item = ClusterObservation>,
        I::IntoIter: Clone,
    {
        two_stage_parts(clusters, present.into_iter(), Absent::ZERO)
    }
}

/// `Στ̂ᵢ` and `Στ̂ᵢ²` over the executed clusters a key is absent from, each
/// of which has `sᵢ² = 0`.
#[derive(Debug, Clone, Copy)]
struct Absent {
    total: f64,
    total_sq: f64,
}

impl Absent {
    /// A sum or count: an absent cluster's total is `0`.
    const ZERO: Absent = Absent {
        total: 0.0,
        total_sq: 0.0,
    };
}

/// What one present cluster adds to Eq. 1–3 beside its within terms.
#[derive(Debug, Clone, Copy)]
struct ClusterTerms {
    /// `τ̂ᵢ`.
    total: f64,
    /// `sᵢ²` among the cluster's sampled units.
    s2: f64,
    /// Whether every stage below the cluster's units was read in full,
    /// which a census needs besides `n = N` and `mᵢ = Mᵢ`.
    whole: bool,
}

/// One present cluster of [`two_stage_parts`]: a two- or three-stage
/// observation of one key.
trait PresentCluster {
    /// Checks the cluster as the dense estimator checks it, adds its
    /// within terms to `within` in the dense estimator's order, and
    /// returns the rest of its share.
    fn terms(&self, within: &mut f64) -> Result<ClusterTerms>;

    /// `τ̂ᵢ` again, for the between-cluster pass.
    fn total(&self) -> f64;
}

/// Eq. 1–3 over the `present` clusters plus the closed-form share of the
/// `n − p` absent ones: they add `absent.total` to `Στ̂ᵢ` and
/// `Σ(τ̂ᵢ − τ̄)² = Στ̂ᵢ² − 2τ̄·Στ̂ᵢ + (n − p)·τ̄²` over them.
fn two_stage_parts<C: PresentCluster>(
    clusters: &ExecutedClusters,
    present: impl Iterator<Item = C> + Clone,
    absent: Absent,
) -> Result<TwoStageParts> {
    clusters.check()?;
    let n = clusters.executed;
    let nf = n as f64;
    let nn = clusters.total_clusters as f64;
    let mut sum = 0.0;
    let mut within = 0.0;
    let mut mean_within = 0.0;
    let mut whole = true;
    let mut seen = 0u64;
    for cluster in present.clone() {
        let terms = cluster.terms(&mut within)?;
        seen += 1;
        sum += terms.total;
        mean_within += terms.s2 / nf;
        whole &= terms.whole;
    }
    debug_assert!(seen <= n, "{seen} present clusters of {n} executed");
    // `sum` starts at +0.0, so adding a sum's or count's +0.0 leaves its
    // bits alone.
    sum += absent.total;
    let inter_cluster_var = if n < 2 {
        0.0
    } else {
        let mean = sum / nf;
        let mut squares = if seen < n {
            (n - seen) as f64 * (mean * mean) + absent.total_sq - 2.0 * mean * absent.total
        } else {
            0.0
        };
        for cluster in present {
            let d = cluster.total() - mean;
            squares += d * d;
        }
        squares / (nf - 1.0)
    };
    let between = nn * (nn - nf) * inter_cluster_var / nf;
    Ok(TwoStageParts {
        estimate: nn / nf * sum,
        inter_cluster_var,
        within_term: within,
        mean_within_var: mean_within,
        variance: between + nn / nf * within,
        clusters: if whole {
            *clusters
        } else {
            clusters.sampled_below()
        },
    })
}

/// What every key of one job shares in Eq. 1–3, computed once from the
/// executed clusters' `(Mᵢ, mᵢ)` rather than once per key: `N`, `n`,
/// whether the clusters form a census (`n = N` and every `mᵢ = Mᵢ`),
/// whether one of them is invalid (`mᵢ = 0 < Mᵢ` or `mᵢ > Mᵢ`, which
/// fails every key), the critical value `t_{n−1, 1−α/2}`, and what the
/// mean per unit needs of the clusters a key is absent from: `ΣMᵢ`,
/// `ΣMᵢ²` and its denominator's `Σ(Mᵢ/mᵢ)·mᵢ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedClusters {
    total_clusters: u64,
    executed: u64,
    census: bool,
    invalid: bool,
    confidence: f64,
    critical: f64,
    /// `Σ(Mᵢ/mᵢ)·mᵢ` over the non-empty clusters, in executed order: the
    /// mean's `τ̂_x` before its `N/n`, rounded as the dense sum rounds it.
    unit_total: f64,
    /// `ΣMᵢ`, exact.
    units: u64,
    /// `ΣMᵢ²`, exact.
    units_sq: u128,
}

impl ExecutedClusters {
    /// The facts of `total_clusters` (`N`) clusters of which `executed`
    /// yields each executed one's `(Mᵢ, mᵢ)`, for intervals at
    /// `confidence`.
    pub fn new(
        total_clusters: u64,
        executed: impl IntoIterator<Item = (u64, u64)>,
        confidence: f64,
    ) -> Self {
        let mut n = 0u64;
        let mut all_units = true;
        let mut invalid = false;
        let mut unit_total = 0.0;
        let mut units = 0u64;
        let mut units_sq = 0u128;
        for (total_units, sampled_units) in executed {
            n += 1;
            all_units &= sampled_units == total_units;
            invalid |= (sampled_units == 0 && total_units > 0) || sampled_units > total_units;
            if sampled_units > 0 {
                let m = sampled_units as f64;
                unit_total += total_units as f64 / m * m;
            }
            units += total_units;
            units_sq += u128::from(total_units) * u128::from(total_units);
        }
        let census = n == total_clusters && all_units;
        ExecutedClusters {
            total_clusters,
            executed: n,
            census,
            invalid,
            confidence,
            critical: if census {
                f64::NAN
            } else {
                critical(n, confidence)
            },
            unit_total,
            units,
            units_sq,
        }
    }

    /// These clusters for a key that was sampled below its clusters'
    /// units (a three-stage key with some `kᵢⱼ < Kᵢⱼ`): not a census,
    /// even where every `mᵢ = Mᵢ`.
    fn sampled_below(&self) -> Self {
        if !self.census {
            return *self;
        }
        ExecutedClusters {
            census: false,
            critical: critical(self.executed, self.confidence),
            ..*self
        }
    }

    /// `N` — total clusters in the population.
    pub fn total_clusters(&self) -> u64 {
        self.total_clusters
    }

    /// `n` — executed clusters.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The errors every key shares: no executed cluster, or an invalid
    /// one.
    fn check(&self) -> Result<()> {
        if self.executed == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        if self.invalid {
            return Err(StatsError::invalid(
                "sampled_units",
                "every executed non-empty cluster must sample between one and all of its units",
            ));
        }
        Ok(())
    }

    /// `estimate ± t·√variance`, with the census and `n < 2` cases of
    /// Eq. 2 — the tail every interval of the job shares.
    fn interval(&self, estimate: f64, variance: f64, context: &'static str) -> Result<Interval> {
        if !valid_confidence(self.confidence) {
            return Err(StatsError::invalid("confidence", "must lie in (0, 1)"));
        }
        if self.census {
            return Ok(Interval::new(estimate, 0.0, self.confidence));
        }
        if self.executed < 2 {
            return Ok(Interval::new(estimate, f64::INFINITY, self.confidence));
        }
        if variance < 0.0 || !variance.is_finite() {
            return Err(StatsError::Numerical { context });
        }
        Ok(Interval::new(
            estimate,
            self.critical * variance.sqrt(),
            self.confidence,
        ))
    }
}

fn valid_confidence(confidence: f64) -> bool {
    0.0 < confidence && confidence < 1.0
}

/// `t_{n−1, 1−α/2}`, or NaN where Eq. 2 needs none.
fn critical(n: u64, confidence: f64) -> f64 {
    if valid_confidence(confidence) && n >= 2 {
        cached_two_sided_critical_value((n - 1) as f64, confidence)
    } else {
        f64::NAN
    }
}

/// One key's Eq. 1–3 quantities from [`TwoStageEstimator::from_present`]
/// or [`ThreeStageEstimator::from_present`]: the estimate, the parts of
/// its variance, and what the planner's [`WaveStatistics`] reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStageParts {
    /// `τ̂` (Eq. 1).
    pub estimate: f64,
    /// `s_u²` over the `n` executed clusters' `τ̂ᵢ`, absent ones as `0`.
    pub inter_cluster_var: f64,
    /// `Σᵢ Mᵢ(Mᵢ−mᵢ)sᵢ²/mᵢ` — Eq. 3's within term before its `N/n`
    /// (with three stages, plus each cluster's third-stage term).
    pub within_term: f64,
    /// Mean `sᵢ²` over the `n` executed clusters.
    pub mean_within_var: f64,
    /// `Var(τ̂)` (Eq. 3).
    pub variance: f64,
    clusters: ExecutedClusters,
}

impl TwoStageParts {
    /// `τ̂ ± ε` (Eq. 2) at the confidence the [`ExecutedClusters`] were
    /// built for: with a census the interval is exact, and with a single
    /// executed cluster its half-width is `+∞` (the Student-t with 0
    /// degrees of freedom is undefined).
    pub fn interval(&self) -> Result<Interval> {
        self.clusters
            .interval(self.estimate, self.variance, "two-stage variance")
    }
}

/// Paired per-cluster statistics for ratio/mean estimation.
///
/// `y` is the numerator variable, `x` the denominator variable; both are
/// accumulated over the same `sampled_units` items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedClusterObservation {
    /// Identifier of the cluster (map task / block id).
    pub cluster_id: u64,
    /// `M_i` — total units in the block.
    pub total_units: u64,
    /// `m_i` — sampled units.
    pub sampled_units: u64,
    /// `Σ yᵢⱼ`.
    pub sum_y: f64,
    /// `Σ yᵢⱼ²`.
    pub sum_y_sq: f64,
    /// `Σ xᵢⱼ`.
    pub sum_x: f64,
    /// `Σ xᵢⱼ²`.
    pub sum_x_sq: f64,
    /// `Σ xᵢⱼ·yᵢⱼ`.
    pub sum_xy: f64,
}

impl PairedClusterObservation {
    /// The residual `d = y − r·x` as a one-variable observation.
    fn residual(&self, r: f64) -> ClusterObservation {
        let sum_d = self.sum_y - r * self.sum_x;
        let sum_d_sq = self.sum_y_sq - 2.0 * r * self.sum_xy + r * r * self.sum_x_sq;
        ClusterObservation {
            cluster_id: self.cluster_id,
            total_units: self.total_units,
            sampled_units: self.sampled_units,
            sum: sum_d,
            sum_sq: sum_d_sq.max(0.0),
        }
    }
}

/// `(τ̂_y, τ̂_x)` of `N` clusters of which `n` executed, summed over
/// `observations`: every executed cluster, or only those a key appeared
/// in (an absent one would add `0` to both sums of a ratio).
fn ratio_totals(
    total_clusters: u64,
    n: u64,
    observations: impl IntoIterator<Item = PairedClusterObservation>,
) -> Result<(f64, f64)> {
    let mut ty = 0.0;
    let mut tx = 0.0;
    for o in observations {
        if o.sampled_units == 0 {
            // An entirely empty block (M_i = m_i = 0) is a legitimate
            // zero-weight cluster, exactly as TwoStageEstimator (and
            // ClusterObservation::validate) treats it — it still
            // counts toward n below, just contributes nothing here.
            if o.total_units == 0 && o.sum_y == 0.0 && o.sum_x == 0.0 {
                continue;
            }
            return Err(StatsError::invalid(
                "sampled_units",
                "must sample at least one unit per executed non-empty cluster",
            ));
        }
        if o.sampled_units > o.total_units {
            return Err(StatsError::invalid(
                "sampled_units",
                "must be in [1, total_units]",
            ));
        }
        let w = o.total_units as f64 / o.sampled_units as f64;
        ty += w * o.sum_y;
        tx += w * o.sum_x;
    }
    let scale = total_clusters as f64 / n as f64;
    Ok((scale * ty, scale * tx))
}

/// Two-stage **ratio** estimator `r̂ = τ̂_y / τ̂_x` with a linearised
/// variance (Lohr, Sampling: Design and Analysis, ratio estimation in
/// cluster samples): with residuals `d = y − r̂·x`,
/// `Var(r̂) ≈ Var(τ̂_d) / τ̂_x²`, where `Var(τ̂_d)` is Eq. 3 applied to
/// `d`.
///
/// The population **mean per unit** is the special case `x ≡ 1`
/// ([`RatioEstimator::mean_from_present`]).
#[derive(Debug, Clone, Copy)]
pub struct RatioEstimator;

impl RatioEstimator {
    /// One key's `r̂ ± ε` from only the executed clusters it appeared
    /// in, in O(`present`). An absent cluster has `y = x = 0`, so it adds
    /// nothing to `τ̂_y` or `τ̂_x` and its residual `d = y − r̂·x` is `0`:
    /// the residuals' variance is [`TwoStageEstimator::from_present`]'s
    /// closed form.
    pub fn from_present<I>(clusters: &ExecutedClusters, present: I) -> Result<Interval>
    where
        I: IntoIterator<Item = PairedClusterObservation>,
        I::IntoIter: Clone,
    {
        clusters.check()?;
        let present = present.into_iter();
        let (ty, tx) = ratio_totals(clusters.total_clusters, clusters.executed, present.clone())?;
        ratio_interval(clusters, present, ty, tx, |_| Absent::ZERO)
    }

    /// One key's mean per unit `μ̂ ± ε` — the ratio with `x ≡ 1` for
    /// every sampled unit — from only the executed clusters it appeared
    /// in, in O(`present`).
    ///
    /// An absent cluster is not zero in the denominator: its `mᵢ` units
    /// count there, so `τ̂_x` sums `(Mᵢ/mᵢ)·mᵢ` over every executed
    /// cluster, in executed order ([`ExecutedClusters`] holds that sum).
    /// Its residual total is `−r̂·Mᵢ` and its within term `0` (each of its
    /// units has `d = −r̂`), so with `A₁ = Σ_absent Mᵢ` and
    /// `A₂ = Σ_absent Mᵢ²` — the executed sums minus the present ones,
    /// exact in integers — the absent clusters add `−r̂·A₁` to `Στ̂_d,i`
    /// and `r̂²A₂ + 2r̂·d̄·A₁ + (n − p)·d̄²` to `Σ(τ̂_d,i − d̄)²`.
    ///
    /// When the key is in every executed cluster the result is
    /// bit-identical to the dense estimator's. Otherwise it differs by
    /// rounding, and by the dense path's rounding in the absent clusters'
    /// within variances, which are exactly `0` here.
    pub fn mean_from_present<I>(clusters: &ExecutedClusters, present: I) -> Result<Interval>
    where
        I: IntoIterator<Item = ClusterObservation>,
        I::IntoIter: Clone,
    {
        clusters.check()?;
        let present = present.into_iter();
        let (units, units_sq) = present.clone().fold((0u64, 0u128), |(s, q), o| {
            let mm = o.total_units;
            (s + mm, q + u128::from(mm) * u128::from(mm))
        });
        let present = present.map(|o| o.per_unit());
        let (ty, _) = ratio_totals(clusters.total_clusters, clusters.executed, present.clone())?;
        let tx = clusters.total_clusters as f64 / clusters.executed as f64 * clusters.unit_total;
        let absent_units = (clusters.units - units) as f64;
        let absent_units_sq = (clusters.units_sq - units_sq) as f64;
        ratio_interval(clusters, present, ty, tx, |r| Absent {
            total: -r * absent_units,
            total_sq: r * r * absent_units_sq,
        })
    }
}

/// `r̂ = τ̂_y / τ̂_x` with its linearised interval from the `present`
/// clusters' residuals and the absent ones' closed-form share at `r̂`.
fn ratio_interval(
    clusters: &ExecutedClusters,
    present: impl Iterator<Item = PairedClusterObservation> + Clone,
    ty: f64,
    tx: f64,
    absent: impl FnOnce(f64) -> Absent,
) -> Result<Interval> {
    if tx == 0.0 {
        return Err(StatsError::Numerical {
            context: "ratio estimator denominator",
        });
    }
    let r = ty / tx;
    if clusters.census || clusters.executed < 2 {
        // No residuals needed: the interval is exact or unbounded.
        return clusters.interval(r, 0.0, "ratio estimator variance");
    }
    let d = two_stage_parts(clusters, present.map(|o| o.residual(r)), absent(r))?;
    clusters.interval(r, d.variance / (tx * tx), "ratio estimator variance")
}

/// One sampled secondary unit (e.g. an intermediate `<key, value>` group)
/// in three-stage sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondaryObservation {
    /// `K_ij` — total tertiary units in this secondary unit.
    pub total_tertiary: u64,
    /// `k_ij` — sampled tertiary units.
    pub sampled_tertiary: u64,
    /// Sum of sampled tertiary values.
    pub sum: f64,
    /// Sum of squares of sampled tertiary values.
    pub sum_sq: f64,
}

impl SecondaryObservation {
    fn estimated_total(&self) -> f64 {
        self.total_tertiary as f64 / self.sampled_tertiary as f64 * self.sum
    }

    fn within_variance(&self) -> f64 {
        let k = self.sampled_tertiary as f64;
        if self.sampled_tertiary < 2 {
            return 0.0;
        }
        ((self.sum_sq - self.sum * self.sum / k) / (k - 1.0)).max(0.0)
    }
}

/// One executed cluster in three-stage sampling, as one key saw it: the
/// cluster's `Mᵢ` and `mᵢ`, and the sampled secondary units that held
/// at least one of the key's tertiary units. The other `mᵢ − listed`
/// sampled secondary units are silent: each is one tertiary unit of
/// value `0`, fully read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreeStageObservation<J> {
    /// `M_i` — total secondary units in the cluster.
    pub total_units: u64,
    /// `m_i` — sampled secondary units, silent ones included.
    pub sampled_units: u64,
    /// The listed secondary units, in the order their totals are summed.
    pub secondaries: J,
}

impl<J> PresentCluster for ThreeStageObservation<J>
where
    J: IntoIterator<Item = SecondaryObservation> + Clone,
{
    fn terms(&self, within: &mut f64) -> Result<ClusterTerms> {
        let mut listed = 0u64;
        let mut whole = true;
        for s in self.secondaries.clone() {
            if s.sampled_tertiary == 0 || s.sampled_tertiary > s.total_tertiary {
                return Err(StatsError::invalid(
                    "sampled_tertiary",
                    "must be in [1, total_tertiary]",
                ));
            }
            if !s.sum.is_finite() || !s.sum_sq.is_finite() {
                return Err(StatsError::Numerical {
                    context: "secondary observation sums",
                });
            }
            listed += 1;
            whole &= s.sampled_tertiary == s.total_tertiary;
        }
        let sampled = self.sampled_units;
        if listed > sampled || sampled > self.total_units || (sampled == 0 && self.total_units > 0)
        {
            return Err(StatsError::invalid(
                "secondaries",
                "must list at most the sampled units, and sample between one and all of a non-empty cluster's",
            ));
        }
        if sampled == 0 {
            // An empty block (M_i = m_i = 0) is a zero cluster.
            return Ok(ClusterTerms {
                total: 0.0,
                s2: 0.0,
                whole,
            });
        }
        let m = sampled as f64;
        let mm = self.total_units as f64;
        let inner = self.inner_total();
        // Variance among the estimated secondary totals, a silent one's
        // being `0`. Its `τ̄ᵢ²` terms are added one by one after the
        // listed ones, so the sum rounds as the reference model's does.
        let s2 = if sampled < 2 {
            0.0
        } else {
            let mean = inner / m;
            let mut squares: f64 = self
                .secondaries
                .clone()
                .into_iter()
                .map(|s| {
                    let d = s.estimated_total() - mean;
                    d * d
                })
                .sum();
            for _ in listed..sampled {
                squares += mean * mean;
            }
            squares / (m - 1.0)
        };
        *within += mm * (mm - m) * s2 / m;
        // Third stage; a silent item, fully read, adds nothing.
        let mut third = 0.0;
        for s in self.secondaries.clone() {
            let k = s.sampled_tertiary as f64;
            let kk = s.total_tertiary as f64;
            third += kk * (kk - k) * s.within_variance() / k;
        }
        *within += mm / m * third;
        Ok(ClusterTerms {
            total: mm / m * inner,
            s2,
            whole,
        })
    }

    fn total(&self) -> f64 {
        if self.sampled_units == 0 {
            return 0.0;
        }
        self.total_units as f64 / self.sampled_units as f64 * self.inner_total()
    }
}

impl<J> ThreeStageObservation<J>
where
    J: IntoIterator<Item = SecondaryObservation> + Clone,
{
    /// `Σⱼ τ̂ᵢⱼ` over the listed secondary units (a silent one's is `0`).
    fn inner_total(&self) -> f64 {
        self.secondaries
            .clone()
            .into_iter()
            .map(|s| s.estimated_total())
            .sum()
    }
}

/// Three-stage sampling estimator of a population total (paper
/// Section 3.1, "Three-stage sampling"): clusters → secondary units →
/// tertiary units, e.g. blocks → pages → paragraphs.
#[derive(Debug, Clone, Copy)]
pub struct ThreeStageEstimator;

impl ThreeStageEstimator {
    /// One key's three-stage Eq. 1–3 from only the executed clusters it
    /// appeared in, in O(`Σ mᵢ` over them): the numbers the dense
    /// estimator gives for one cluster per executed cluster, each holding
    /// one secondary unit per sampled one, silent ones as zeros.
    ///
    /// `Var(τ̂) = N(N−n)·s_u²/n + (N/n)·Σᵢ [Mᵢ(Mᵢ−mᵢ)·sᵢ²/mᵢ +
    /// (Mᵢ/mᵢ)·Σⱼ Kᵢⱼ(Kᵢⱼ−kᵢⱼ)·sᵢⱼ²/kᵢⱼ]`, where `sᵢ²` is the variance
    /// among the cluster's estimated secondary totals. A cluster the key
    /// is absent from has `τ̂ᵢ = 0` and no within terms, so it enters in
    /// the closed form of [`TwoStageEstimator::from_present`], and `τ̂`,
    /// the within term and (when `p = n`) `s_u²` are bit-identical to the
    /// dense estimator's.
    ///
    /// A census also needs every listed `kᵢⱼ = Kᵢⱼ`; with one below, the
    /// interval is sampled even where every `mᵢ = Mᵢ`. An empty executed
    /// cluster (`Mᵢ = mᵢ = 0`) counts in `n` as a zero cluster, and one
    /// with `mᵢ = 0 < Mᵢ` fails every key, as for two stages.
    pub fn from_present<I, J>(clusters: &ExecutedClusters, present: I) -> Result<TwoStageParts>
    where
        I: IntoIterator<Item = ThreeStageObservation<J>>,
        I::IntoIter: Clone,
        J: IntoIterator<Item = SecondaryObservation> + Clone,
    {
        two_stage_parts(clusters, present.into_iter(), Absent::ZERO)
    }
}

/// Inputs to the predicted error bound of paper Eq. (4)–(7): statistics
/// collected from the `n₁` completed map tasks, used to predict the bound
/// after `n₂` further tasks run at sampling size `m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveStatistics {
    /// `N` — total map tasks (clusters).
    pub total_clusters: u64,
    /// `n₁` — completed map tasks.
    pub completed_clusters: u64,
    /// `s_u²` — inter-cluster variance measured over the completed tasks.
    pub inter_cluster_var: f64,
    /// `M̄` — mean block size (units per cluster).
    pub mean_cluster_size: f64,
    /// `s̄²` — mean intra-cluster variance over completed tasks.
    pub mean_within_var: f64,
    /// `Σᵢ Mᵢ(Mᵢ-mᵢ)sᵢ²/mᵢ` — the within contribution already locked in
    /// by the completed tasks (zero when the first wave ran precisely).
    pub completed_within_term: f64,
    /// Current point estimate `τ̂` of the watched key.
    pub estimate: f64,
}

impl WaveStatistics {
    /// Predicted `Var(τ̂)` after running `n₂` more tasks sampling `m`
    /// units each (paper Eq. 6–7):
    ///
    /// ```text
    /// Var = N(N-n)·s_u²/n + (N/n)·CVar
    /// CVar = n₂·M̄(M̄-m)·s̄²/m + Σᵢ Mᵢ(Mᵢ-mᵢ)sᵢ²/mᵢ
    /// ```
    pub fn predicted_variance(&self, additional_clusters: u64, units_per_cluster: f64) -> f64 {
        let n1 = self.completed_clusters as f64;
        let n2 = additional_clusters as f64;
        let n = n1 + n2;
        if n < 1.0 {
            return f64::INFINITY;
        }
        let nn = self.total_clusters as f64;
        let m = units_per_cluster.max(1.0).min(self.mean_cluster_size);
        let mbar = self.mean_cluster_size;
        let cvar =
            n2 * mbar * (mbar - m).max(0.0) * self.mean_within_var / m + self.completed_within_term;
        (nn * (nn - n).max(0.0) * self.inter_cluster_var / n + nn / n * cvar).max(0.0)
    }

    /// Predicted error bound `ε = t_{n-1,1-α/2}·sqrt(Var)` (Eq. 4, LHS).
    /// Returns `+∞` when `n < 2`.
    pub fn predicted_bound(
        &self,
        additional_clusters: u64,
        units_per_cluster: f64,
        confidence: f64,
    ) -> f64 {
        let n = self.completed_clusters + additional_clusters;
        if n < 2 {
            return f64::INFINITY;
        }
        let t = cached_two_sided_critical_value((n - 1) as f64, confidence);
        t * self
            .predicted_variance(additional_clusters, units_per_cluster)
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sum_parts(total: u64, obs: &[ClusterObservation]) -> Result<TwoStageParts> {
        let units = obs.iter().map(|o| (o.total_units, o.sampled_units));
        TwoStageEstimator::from_present(
            &ExecutedClusters::new(total, units, 0.95),
            obs.iter().copied(),
        )
    }

    /// The two-stage interval of `total` clusters of which `obs` are the
    /// executed ones, the key present in each.
    fn sum_of(total: u64, obs: &[ClusterObservation], confidence: f64) -> Result<Interval> {
        let units = obs.iter().map(|o| (o.total_units, o.sampled_units));
        TwoStageEstimator::from_present(
            &ExecutedClusters::new(total, units, confidence),
            obs.iter().copied(),
        )?
        .interval()
    }

    fn mean_of(total: u64, obs: &[ClusterObservation]) -> Result<Interval> {
        let units = obs.iter().map(|o| (o.total_units, o.sampled_units));
        RatioEstimator::mean_from_present(
            &ExecutedClusters::new(total, units, 0.95),
            obs.iter().copied(),
        )
    }

    fn ratio_of(total: u64, obs: &[PairedClusterObservation]) -> Result<Interval> {
        let units = obs.iter().map(|o| (o.total_units, o.sampled_units));
        RatioEstimator::from_present(
            &ExecutedClusters::new(total, units, 0.95),
            obs.iter().copied(),
        )
    }

    fn full_census(values: &[Vec<f64>]) -> Vec<ClusterObservation> {
        values
            .iter()
            .enumerate()
            .map(|(i, block)| ClusterObservation {
                cluster_id: i as u64,
                total_units: block.len() as u64,
                sampled_units: block.len() as u64,
                sum: block.iter().sum(),
                sum_sq: block.iter().map(|v| v * v).sum(),
            })
            .collect()
    }

    #[test]
    fn census_is_exact() {
        let blocks = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0], vec![6.0]];
        let iv = sum_of(3, &full_census(&blocks), 0.95).unwrap();
        assert_eq!(iv.estimate, 21.0);
        assert_eq!(iv.half_width, 0.0);
    }

    #[test]
    fn single_cluster_has_infinite_bound() {
        let obs = ClusterObservation {
            cluster_id: 0,
            total_units: 100,
            sampled_units: 50,
            sum: 10.0,
            sum_sq: 4.0,
        };
        let iv = sum_of(10, &[obs], 0.95).unwrap();
        assert_eq!(iv.half_width, f64::INFINITY);
        // But the point estimate is still the unbiased expansion.
        assert!((iv.estimate - 10.0 * 2.0 * 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_estimator_errors() {
        assert!(matches!(
            sum_of(5, &[], 0.95),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn invalid_observation_is_rejected() {
        let obs = ClusterObservation {
            cluster_id: 0,
            total_units: 10,
            sampled_units: 11, // > total
            sum: 1.0,
            sum_sq: 1.0,
        };
        assert!(sum_of(5, &[obs], 0.95).is_err());

        let obs = ClusterObservation {
            cluster_id: 0,
            total_units: 10,
            sampled_units: 0,
            sum: 0.0,
            sum_sq: 0.0,
        };
        assert!(sum_of(5, &[obs], 0.95).is_err());
    }

    #[test]
    fn bad_confidence_is_rejected() {
        let obs = full_census(&[vec![1.0], vec![2.0]]);
        assert!(sum_of(2, &obs, 0.0).is_err());
        assert!(sum_of(2, &obs, 1.0).is_err());
        assert!(sum_of(2, &obs, -0.5).is_err());
    }

    /// Matches a hand-computed example: N=4 clusters, sample n=2 clusters
    /// fully enumerated (one-stage cluster sampling).
    #[test]
    fn one_stage_cluster_sampling_hand_computed() {
        // Clusters sampled: totals 10 and 14; N=4, n=2.
        // τ̂ = 4/2 · (10+14) = 48.
        // s_u² = ((10-12)² + (14-12)²)/1 = 8.
        // Var = 4·(4-2)·8/2 = 32 (within term zero, fully enumerated).
        // ε = t₁,0.975 · √32 = 12.706 · 5.657 = 71.87.
        let obs: Vec<ClusterObservation> = [10.0, 14.0]
            .iter()
            .enumerate()
            .map(|(i, &tot)| ClusterObservation {
                cluster_id: i as u64,
                total_units: 5,
                sampled_units: 5,
                sum: tot,
                sum_sq: tot * tot / 5.0 + 1.0,
            })
            .collect();
        let parts = sum_parts(4, &obs).unwrap();
        let iv = parts.interval().unwrap();
        assert!((iv.estimate - 48.0).abs() < 1e-12);
        assert!((parts.variance - 32.0).abs() < 1e-12);
        assert!((iv.half_width - 12.706 * 32.0f64.sqrt()).abs() < 0.01);
    }

    /// Statistical coverage test: over many repetitions of two-stage
    /// sampling from a known population, the 95% CI should contain the
    /// true total roughly 95% of the time (we accept ≥ 88% to keep the
    /// test robust yet meaningful).
    #[test]
    fn coverage_of_true_total() {
        let mut rng = StdRng::seed_from_u64(42);
        // Population: 50 blocks of 200 items with block-level locality.
        let blocks: Vec<Vec<f64>> = (0..50)
            .map(|b| {
                let base = 10.0 + (b % 7) as f64;
                (0..200).map(|_| base + rng.gen_range(-3.0..3.0)).collect()
            })
            .collect();
        let truth: f64 = blocks.iter().flatten().sum();

        let reps = 300;
        let mut covered = 0;
        for _ in 0..reps {
            let mut obs = Vec::new();
            // Sample 15 random blocks, 40 random items each.
            let mut ids: Vec<usize> = (0..blocks.len()).collect();
            for i in 0..15 {
                let j = rng.gen_range(i..ids.len());
                ids.swap(i, j);
            }
            for &b in ids.iter().take(15) {
                let block = &blocks[b];
                let mut items: Vec<usize> = (0..block.len()).collect();
                for i in 0..40 {
                    let j = rng.gen_range(i..items.len());
                    items.swap(i, j);
                }
                let vals: Vec<f64> = items.iter().take(40).map(|&i| block[i]).collect();
                obs.push(ClusterObservation {
                    cluster_id: b as u64,
                    total_units: block.len() as u64,
                    sampled_units: 40,
                    sum: vals.iter().sum(),
                    sum_sq: vals.iter().map(|v| v * v).sum(),
                });
            }
            if sum_of(blocks.len() as u64, &obs, 0.95)
                .unwrap()
                .contains(truth)
            {
                covered += 1;
            }
        }
        let rate = covered as f64 / reps as f64;
        assert!(rate > 0.88, "coverage too low: {rate}");
    }

    #[test]
    fn mean_estimator_census_matches_population_mean() {
        let blocks = [vec![2.0, 4.0], vec![6.0, 8.0, 10.0]];
        let iv = mean_of(2, &full_census(&blocks)).unwrap();
        assert!((iv.estimate - 6.0).abs() < 1e-12);
        assert_eq!(iv.half_width, 0.0);
    }

    #[test]
    fn mean_estimator_sampled_is_near_truth() {
        let mut rng = StdRng::seed_from_u64(7);
        let blocks: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..100).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        let all: Vec<f64> = blocks.iter().flatten().copied().collect();
        let truth = all.iter().sum::<f64>() / all.len() as f64;
        let obs: Vec<ClusterObservation> = blocks
            .iter()
            .take(10)
            .enumerate()
            .map(|(i, b)| {
                let vals = &b[..25];
                ClusterObservation {
                    cluster_id: i as u64,
                    total_units: 100,
                    sampled_units: 25,
                    sum: vals.iter().sum(),
                    sum_sq: vals.iter().map(|v| v * v).sum(),
                }
            })
            .collect();
        let iv = mean_of(40, &obs).unwrap();
        assert!(
            (iv.estimate - truth).abs() < 1.0,
            "estimate {} vs truth {truth}",
            iv.estimate
        );
        assert!(iv.half_width.is_finite());
    }

    /// Two fully enumerated clusters of two units each: `y` = bytes,
    /// `x` = requests; the ratio is the mean bytes per request, 8.
    fn two_paired_clusters() -> [PairedClusterObservation; 2] {
        [
            PairedClusterObservation {
                cluster_id: 0,
                total_units: 2,
                sampled_units: 2,
                sum_y: 30.0,
                sum_y_sq: 500.0,
                sum_x: 3.0,
                sum_x_sq: 5.0,
                sum_xy: 38.0,
            },
            PairedClusterObservation {
                cluster_id: 1,
                total_units: 2,
                sampled_units: 2,
                sum_y: 10.0,
                sum_y_sq: 60.0,
                sum_x: 2.0,
                sum_x_sq: 2.0,
                sum_xy: 10.0,
            },
        ]
    }

    #[test]
    fn ratio_estimator_census_exact() {
        let iv = ratio_of(2, &two_paired_clusters()).unwrap();
        assert!((iv.estimate - 8.0).abs() < 1e-12);
        assert_eq!(iv.half_width, 0.0);
    }

    #[test]
    fn ratio_and_mean_tolerate_empty_blocks() {
        // Regression: an input ending in an empty block used to make
        // avg/ratio jobs fail with InvalidInput while the same job's
        // sum succeeded (the two-stage sum already skipped it).
        let [a, b] = two_paired_clusters();
        let empty = PairedClusterObservation {
            cluster_id: 2,
            total_units: 0,
            sampled_units: 0,
            sum_y: 0.0,
            sum_y_sq: 0.0,
            sum_x: 0.0,
            sum_x_sq: 0.0,
            sum_xy: 0.0,
        };
        let iv = ratio_of(3, &[a, b, empty]).unwrap();
        assert!((iv.estimate - 8.0).abs() < 1e-12);
        // All non-empty clusters fully enumerated and n = N: a census.
        assert_eq!(iv.half_width, 0.0);

        let mean = [
            ClusterObservation {
                cluster_id: 0,
                total_units: 3,
                sampled_units: 3,
                sum: 6.0,
                sum_sq: 14.0,
            },
            ClusterObservation {
                cluster_id: 1,
                total_units: 0,
                sampled_units: 0,
                sum: 0.0,
                sum_sq: 0.0,
            },
        ];
        let iv = mean_of(2, &mean).unwrap();
        assert!((iv.estimate - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_estimator_still_rejects_invalid_observation() {
        // sampled == 0 with a non-empty block stays an error.
        let obs = PairedClusterObservation {
            cluster_id: 0,
            total_units: 10,
            sampled_units: 0,
            sum_y: 0.0,
            sum_y_sq: 0.0,
            sum_x: 0.0,
            sum_x_sq: 0.0,
            sum_xy: 0.0,
        };
        assert!(ratio_of(2, &[obs]).is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invalid cluster observation")]
    fn estimated_total_debug_asserts_invalid_observation() {
        // Direct callers that skip validate() used to read a silent
        // (biased) 0.0 here.
        let obs = ClusterObservation {
            cluster_id: 0,
            total_units: 10,
            sampled_units: 0,
            sum: 5.0,
            sum_sq: 25.0,
        };
        let _ = obs.estimated_total();
    }

    #[test]
    fn ratio_estimator_zero_denominator_errors() {
        let obs = PairedClusterObservation {
            cluster_id: 0,
            total_units: 5,
            sampled_units: 5,
            sum_y: 1.0,
            sum_y_sq: 1.0,
            sum_x: 0.0,
            sum_x_sq: 0.0,
            sum_xy: 0.0,
        };
        assert!(matches!(
            ratio_of(3, &[obs]),
            Err(StatsError::Numerical { .. })
        ));
    }

    /// The three-stage interval of `total` clusters of which `executed`
    /// are the executed ones, each `(Mᵢ, mᵢ, listed secondaries)`.
    fn three_stage_of(
        total: u64,
        executed: &[(u64, u64, Vec<SecondaryObservation>)],
    ) -> Result<Interval> {
        let clusters = ExecutedClusters::new(total, executed.iter().map(|c| (c.0, c.1)), 0.95);
        let present = executed.iter().map(|(mm, m, s)| ThreeStageObservation {
            total_units: *mm,
            sampled_units: *m,
            secondaries: s.iter().copied(),
        });
        ThreeStageEstimator::from_present(&clusters, present)?.interval()
    }

    fn secondary(k: u64, kk: u64, values: &[f64]) -> SecondaryObservation {
        SecondaryObservation {
            total_tertiary: kk,
            sampled_tertiary: k,
            sum: values.iter().sum(),
            sum_sq: values.iter().map(|v| v * v).sum(),
        }
    }

    #[test]
    fn three_stage_census_is_exact() {
        let cluster = vec![
            secondary(3, 3, &[1.0, 2.0, 3.0]),
            secondary(2, 2, &[2.0, 3.0]),
        ];
        let executed = [(2, 2, cluster.clone()), (2, 2, cluster)];
        let iv = three_stage_of(2, &executed).unwrap();
        assert!((iv.estimate - 22.0).abs() < 1e-12);
        assert_eq!(iv.half_width, 0.0);
    }

    #[test]
    fn three_stage_sampling_estimates_and_bounds() {
        let mut rng = StdRng::seed_from_u64(99);
        // 20 clusters × 10 secondaries × 50 tertiaries of value ~5.
        let pop: Vec<Vec<Vec<f64>>> = (0..20)
            .map(|_| {
                (0..10)
                    .map(|_| (0..50).map(|_| rng.gen_range(4.0..6.0)).collect())
                    .collect()
            })
            .collect();
        let truth: f64 = pop.iter().flatten().flatten().sum();
        let executed: Vec<_> = pop
            .iter()
            .take(8)
            .map(|c| {
                let listed = c.iter().take(5).map(|s| secondary(20, 50, &s[..20]));
                (10, 5, listed.collect())
            })
            .collect();
        let iv = three_stage_of(20, &executed).unwrap();
        assert!(iv.half_width.is_finite() && iv.half_width > 0.0);
        assert!(
            (iv.estimate - truth).abs() / truth < 0.05,
            "estimate {} vs truth {truth}",
            iv.estimate
        );
    }

    #[test]
    fn three_stage_invalid_rejected() {
        // No secondary sampled from a non-empty cluster.
        assert!(three_stage_of(2, &[(2, 0, vec![])]).is_err());
        // More listed secondaries than sampled, or sampled than total.
        let two = vec![secondary(1, 1, &[1.0]), secondary(1, 1, &[2.0])];
        assert!(three_stage_of(2, &[(3, 1, two.clone())]).is_err());
        assert!(three_stage_of(2, &[(1, 2, two)]).is_err());
        // A tertiary count outside [1, K], or a non-finite sum.
        for bad in [
            secondary(0, 2, &[]),
            secondary(3, 2, &[1.0, 1.0, 1.0]),
            secondary(1, 1, &[f64::NAN]),
        ] {
            assert!(three_stage_of(2, &[(2, 2, vec![bad])]).is_err());
        }
    }

    #[test]
    fn predicted_bound_decreases_with_more_clusters_and_units() {
        let w = WaveStatistics {
            total_clusters: 100,
            completed_clusters: 10,
            inter_cluster_var: 50.0,
            mean_cluster_size: 1000.0,
            mean_within_var: 4.0,
            completed_within_term: 0.0,
            estimate: 1e6,
        };
        // More *precise* clusters (m = M̄, no within-variance) shrink the
        // between-cluster term; more units per cluster shrink the within
        // term at fixed n₂.
        let b_small = w.predicted_bound(10, 1000.0, 0.95);
        let b_more_clusters = w.predicted_bound(40, 1000.0, 0.95);
        assert!(b_more_clusters < b_small);
        let b_coarse = w.predicted_bound(10, 100.0, 0.95);
        let b_fine = w.predicted_bound(10, 800.0, 0.95);
        assert!(b_fine < b_coarse);
        // Sampling within clusters can only add variance vs. precise.
        assert!(b_small <= b_coarse);
    }

    #[test]
    fn predicted_bound_matches_direct_variance_when_full() {
        // n2 additional precise clusters (m = M̄) add no within-variance.
        let w = WaveStatistics {
            total_clusters: 50,
            completed_clusters: 5,
            inter_cluster_var: 10.0,
            mean_cluster_size: 100.0,
            mean_within_var: 2.0,
            completed_within_term: 0.0,
            estimate: 1000.0,
        };
        let v = w.predicted_variance(5, 100.0);
        // Var = N(N-n)s_u²/n with n = 10.
        let expected = 50.0 * 40.0 * 10.0 / 10.0;
        assert!((v - expected).abs() < 1e-9);
    }

    #[test]
    fn predicted_bound_infinite_below_two_clusters() {
        let w = WaveStatistics {
            total_clusters: 10,
            completed_clusters: 0,
            inter_cluster_var: 1.0,
            mean_cluster_size: 10.0,
            mean_within_var: 1.0,
            completed_within_term: 0.0,
            estimate: 5.0,
        };
        assert_eq!(w.predicted_bound(1, 5.0, 0.95), f64::INFINITY);
        assert!(w.predicted_bound(2, 5.0, 0.95).is_finite());
    }
}
