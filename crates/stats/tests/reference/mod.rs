//! The dense `Vec`-of-observation two- and three-stage estimators: one
//! observation per executed cluster, zeros included, each key costing
//! O(`n`). This is the model the library's closed forms
//! (`from_present`, `mean_from_present`) are checked against.
//!
//! It is self-contained on purpose: the per-cluster helpers
//! (`estimated_total`, `within_variance`, `validate`, `residual`, and
//! the secondary units' `secondary_total` and
//! `secondary_within_variance`) are copies of the library's as they
//! stood when the two paths were one, so a change to the library's
//! arithmetic is measured against this model rather than edited into
//! both.

// Kept whole; not every accessor is compared.
#![allow(dead_code)]

use approxhadoop_stats::dist::cached_two_sided_critical_value;
use approxhadoop_stats::multistage::{
    ClusterObservation, PairedClusterObservation, SecondaryObservation,
};
use approxhadoop_stats::{Interval, Result, StatsError};

/// The unbiased estimate of a cluster's total: `(Mᵢ/mᵢ)·Σⱼ vᵢⱼ`; `0`
/// for an empty cluster.
fn estimated_total(obs: &ClusterObservation) -> f64 {
    if obs.sampled_units == 0 {
        return 0.0;
    }
    obs.total_units as f64 / obs.sampled_units as f64 * obs.sum
}

/// Intra-cluster sample variance `sᵢ²`; `0` below two sampled units.
pub fn within_variance(obs: &ClusterObservation) -> f64 {
    let m = obs.sampled_units as f64;
    if obs.sampled_units < 2 {
        return 0.0;
    }
    let var = (obs.sum_sq - obs.sum * obs.sum / m) / (m - 1.0);
    var.max(0.0)
}

fn validate(obs: &ClusterObservation) -> Result<()> {
    if obs.sampled_units == 0 {
        // An entirely empty block is a legitimate (zero) cluster.
        if obs.total_units == 0 && obs.sum == 0.0 && obs.sum_sq == 0.0 {
            return Ok(());
        }
        return Err(StatsError::invalid(
            "sampled_units",
            "must sample at least one unit per executed non-empty cluster",
        ));
    }
    if obs.sampled_units > obs.total_units {
        return Err(StatsError::invalid(
            "sampled_units",
            format!(
                "cannot exceed total_units ({} > {})",
                obs.sampled_units, obs.total_units
            ),
        ));
    }
    if !obs.sum.is_finite() || !obs.sum_sq.is_finite() {
        return Err(StatsError::Numerical {
            context: "cluster observation sums",
        });
    }
    Ok(())
}

/// The residual `d = y − r·x` as a one-variable observation.
fn residual(obs: &PairedClusterObservation, r: f64) -> ClusterObservation {
    let sum_d = obs.sum_y - r * obs.sum_x;
    let sum_d_sq = obs.sum_y_sq - 2.0 * r * obs.sum_xy + r * r * obs.sum_x_sq;
    ClusterObservation {
        cluster_id: obs.cluster_id,
        total_units: obs.total_units,
        sampled_units: obs.sampled_units,
        sum: sum_d,
        sum_sq: sum_d_sq.max(0.0),
    }
}

/// Two-stage sampling estimator of a population **total** (sum).
#[derive(Debug, Clone)]
pub struct TwoStageEstimator {
    total_clusters: u64,
    observations: Vec<ClusterObservation>,
}

impl TwoStageEstimator {
    /// Creates an estimator for a population partitioned into
    /// `total_clusters` (`N`) clusters.
    ///
    /// # Panics
    ///
    /// Panics if `total_clusters == 0`.
    pub fn new(total_clusters: u64) -> Self {
        assert!(
            total_clusters > 0,
            "population must have at least one cluster"
        );
        TwoStageEstimator {
            total_clusters,
            observations: Vec::new(),
        }
    }

    /// Adds the statistics of one executed cluster (map task).
    pub fn push(&mut self, obs: ClusterObservation) {
        self.observations.push(obs);
    }

    /// `n` — executed (sampled) clusters so far.
    pub fn sampled_clusters(&self) -> usize {
        self.observations.len()
    }

    /// The point estimate `τ̂` (paper Eq. 1). Errors if no clusters have
    /// been observed or an observation is invalid.
    pub fn estimated_total(&self) -> Result<f64> {
        let n = self.observations.len();
        if n == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        let mut sum = 0.0;
        for obs in &self.observations {
            validate(obs)?;
            sum += estimated_total(obs);
        }
        Ok(self.total_clusters as f64 / n as f64 * sum)
    }

    /// Inter-cluster sample variance `s_u²` of the estimated cluster
    /// totals; `0` with fewer than two clusters.
    pub fn inter_cluster_variance(&self) -> f64 {
        let n = self.observations.len();
        if n < 2 {
            return 0.0;
        }
        let totals: Vec<f64> = self.observations.iter().map(estimated_total).collect();
        let mean = totals.iter().sum::<f64>() / n as f64;
        totals.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / (n - 1) as f64
    }

    /// The estimated variance `Var(τ̂)` (paper Eq. 3).
    pub fn variance(&self) -> Result<f64> {
        let n = self.observations.len();
        if n == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        for obs in &self.observations {
            validate(obs)?;
        }
        let nf = n as f64;
        let nn = self.total_clusters as f64;
        let between = nn * (nn - nf) * self.inter_cluster_variance() / nf;
        let mut within = 0.0;
        for obs in &self.observations {
            if obs.sampled_units == 0 {
                continue; // empty block: no within-cluster contribution
            }
            let m = obs.sampled_units as f64;
            let mm = obs.total_units as f64;
            within += mm * (mm - m) * within_variance(obs) / m;
        }
        Ok(between + nn / nf * within)
    }

    /// The full estimate `τ̂ ± ε` at the given confidence level
    /// (paper Eq. 1–3).
    ///
    /// * With a complete census (`n = N` and every `mᵢ = Mᵢ`) the interval
    ///   is exact.
    /// * With a single sampled cluster the half-width is `+∞` (the
    ///   Student-t with 0 degrees of freedom is undefined).
    pub fn estimate(&self, confidence: f64) -> Result<Interval> {
        if !(0.0 < confidence && confidence < 1.0) {
            return Err(StatsError::invalid("confidence", "must lie in (0, 1)"));
        }
        let total = self.estimated_total()?;
        let n = self.observations.len();
        let census = n as u64 == self.total_clusters
            && self
                .observations
                .iter()
                .all(|o| o.sampled_units == o.total_units);
        if census {
            return Ok(Interval::new(total, 0.0, confidence));
        }
        if n < 2 {
            return Ok(Interval::new(total, f64::INFINITY, confidence));
        }
        let var = self.variance()?;
        if var < 0.0 || !var.is_finite() {
            return Err(StatsError::Numerical {
                context: "two-stage variance",
            });
        }
        let t = cached_two_sided_critical_value((n - 1) as f64, confidence);
        Ok(Interval::new(total, t * var.sqrt(), confidence))
    }
}

/// `(τ̂_y, τ̂_x)` of `N` clusters of which `n` executed, summed over
/// `observations`.
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
            // zero-weight cluster: it still counts toward n below, just
            // contributes nothing here.
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
/// cluster samples).
///
/// The population **mean per unit** is the special case `x ≡ 1`; use
/// [`MeanEstimator`] for that.
#[derive(Debug, Clone)]
pub struct RatioEstimator {
    total_clusters: u64,
    observations: Vec<PairedClusterObservation>,
}

impl RatioEstimator {
    /// Creates a ratio estimator for a population of `total_clusters`
    /// clusters.
    ///
    /// # Panics
    ///
    /// Panics if `total_clusters == 0`.
    pub fn new(total_clusters: u64) -> Self {
        assert!(
            total_clusters > 0,
            "population must have at least one cluster"
        );
        RatioEstimator {
            total_clusters,
            observations: Vec::new(),
        }
    }

    /// Adds one executed cluster's paired statistics.
    pub fn push(&mut self, obs: PairedClusterObservation) {
        self.observations.push(obs);
    }

    /// Executed clusters so far.
    pub fn sampled_clusters(&self) -> usize {
        self.observations.len()
    }

    fn totals(&self) -> Result<(f64, f64)> {
        let n = self.observations.len();
        if n == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        ratio_totals(
            self.total_clusters,
            n as u64,
            self.observations.iter().copied(),
        )
    }

    /// The point estimate `r̂ = τ̂_y / τ̂_x`.
    pub fn estimated_ratio(&self) -> Result<f64> {
        let (ty, tx) = self.totals()?;
        if tx == 0.0 {
            return Err(StatsError::Numerical {
                context: "ratio estimator denominator",
            });
        }
        Ok(ty / tx)
    }

    /// The estimate `r̂ ± ε` at the given confidence level.
    ///
    /// Variance via linearisation: with residuals `d = y - r̂·x`,
    /// `Var(r̂) ≈ Var(τ̂_d) / τ̂_x²` where `τ̂_d` follows the two-stage
    /// variance formula applied to `d`.
    pub fn estimate(&self, confidence: f64) -> Result<Interval> {
        if !(0.0 < confidence && confidence < 1.0) {
            return Err(StatsError::invalid("confidence", "must lie in (0, 1)"));
        }
        let (ty, tx) = self.totals()?;
        if tx == 0.0 {
            return Err(StatsError::Numerical {
                context: "ratio estimator denominator",
            });
        }
        let r = ty / tx;
        let n = self.observations.len();
        let census = n as u64 == self.total_clusters
            && self
                .observations
                .iter()
                .all(|o| o.sampled_units == o.total_units);
        if census {
            return Ok(Interval::new(r, 0.0, confidence));
        }
        if n < 2 {
            return Ok(Interval::new(r, f64::INFINITY, confidence));
        }
        // Residual statistics: d = y - r x.
        let mut d_est = TwoStageEstimator::new(self.total_clusters);
        for o in &self.observations {
            d_est.push(residual(o, r));
        }
        let var_d = d_est.variance()?;
        let var_r = var_d / (tx * tx);
        if !var_r.is_finite() {
            return Err(StatsError::Numerical {
                context: "ratio estimator variance",
            });
        }
        let t = cached_two_sided_critical_value((n - 1) as f64, confidence);
        Ok(Interval::new(r, t * var_r.sqrt(), confidence))
    }
}

/// Two-stage estimator of the population **mean per unit** — the ratio
/// estimator with denominator `x ≡ 1` for every unit.
#[derive(Debug, Clone)]
pub struct MeanEstimator {
    inner: RatioEstimator,
}

impl MeanEstimator {
    /// Creates a mean estimator for a population of `total_clusters`
    /// clusters.
    pub fn new(total_clusters: u64) -> Self {
        MeanEstimator {
            inner: RatioEstimator::new(total_clusters),
        }
    }

    /// Adds one executed cluster's statistics (as for
    /// [`TwoStageEstimator::push`]).
    pub fn push(&mut self, obs: ClusterObservation) {
        let m = obs.sampled_units as f64;
        self.inner.push(PairedClusterObservation {
            cluster_id: obs.cluster_id,
            total_units: obs.total_units,
            sampled_units: obs.sampled_units,
            sum_y: obs.sum,
            sum_y_sq: obs.sum_sq,
            sum_x: m,
            sum_x_sq: m,
            sum_xy: obs.sum,
        });
    }

    /// Executed clusters so far.
    pub fn sampled_clusters(&self) -> usize {
        self.inner.sampled_clusters()
    }

    /// The estimate `μ̂ ± ε` at the given confidence level.
    pub fn estimate(&self, confidence: f64) -> Result<Interval> {
        self.inner.estimate(confidence)
    }
}

fn secondary_total(s: &SecondaryObservation) -> f64 {
    s.total_tertiary as f64 / s.sampled_tertiary as f64 * s.sum
}

fn secondary_within_variance(s: &SecondaryObservation) -> f64 {
    let k = s.sampled_tertiary as f64;
    if s.sampled_tertiary < 2 {
        return 0.0;
    }
    ((s.sum_sq - s.sum * s.sum / k) / (k - 1.0)).max(0.0)
}

/// One sampled cluster in three-stage sampling, holding its sampled
/// secondary units (`m_i = secondaries.len()`).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreeStageCluster {
    /// Identifier of the cluster (map task / block id).
    pub cluster_id: u64,
    /// `M_i` — total secondary units in the cluster.
    pub total_units: u64,
    /// The sampled secondary units.
    pub secondaries: Vec<SecondaryObservation>,
}

/// Three-stage sampling estimator of a population total (paper
/// Section 3.1, "Three-stage sampling"): clusters → secondary units →
/// tertiary units, e.g. blocks → pages → paragraphs.
#[derive(Debug, Clone)]
pub struct ThreeStageEstimator {
    total_clusters: u64,
    clusters: Vec<ThreeStageCluster>,
}

impl ThreeStageEstimator {
    /// Creates an estimator for `total_clusters` (`N`) clusters.
    ///
    /// # Panics
    ///
    /// Panics if `total_clusters == 0`.
    pub fn new(total_clusters: u64) -> Self {
        assert!(
            total_clusters > 0,
            "population must have at least one cluster"
        );
        ThreeStageEstimator {
            total_clusters,
            clusters: Vec::new(),
        }
    }

    /// Adds one executed cluster.
    pub fn push(&mut self, cluster: ThreeStageCluster) {
        self.clusters.push(cluster);
    }

    fn validate(&self) -> Result<()> {
        for c in &self.clusters {
            if c.secondaries.is_empty() {
                return Err(StatsError::invalid(
                    "secondaries",
                    "each sampled cluster must contain at least one sampled secondary unit",
                ));
            }
            if c.secondaries.len() as u64 > c.total_units {
                return Err(StatsError::invalid(
                    "secondaries",
                    "sampled secondary units exceed cluster total",
                ));
            }
            for s in &c.secondaries {
                if s.sampled_tertiary == 0 || s.sampled_tertiary > s.total_tertiary {
                    return Err(StatsError::invalid(
                        "sampled_tertiary",
                        "must be in [1, total_tertiary]",
                    ));
                }
            }
        }
        Ok(())
    }

    fn cluster_estimated_total(c: &ThreeStageCluster) -> f64 {
        let m = c.secondaries.len() as f64;
        let inner: f64 = c.secondaries.iter().map(secondary_total).sum();
        c.total_units as f64 / m * inner
    }

    /// The point estimate `τ̂`.
    pub fn estimated_total(&self) -> Result<f64> {
        self.validate()?;
        let n = self.clusters.len();
        if n == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        let sum: f64 = self
            .clusters
            .iter()
            .map(Self::cluster_estimated_total)
            .sum();
        Ok(self.total_clusters as f64 / n as f64 * sum)
    }

    /// Inter-cluster sample variance `s_u²` of the estimated cluster
    /// totals; `0` with fewer than two clusters.
    pub fn inter_cluster_variance(&self) -> f64 {
        let n = self.clusters.len();
        let nf = n as f64;
        let totals: Vec<f64> = self
            .clusters
            .iter()
            .map(Self::cluster_estimated_total)
            .collect();
        let mean = totals.iter().sum::<f64>() / nf;
        if n < 2 {
            0.0
        } else {
            totals.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / (nf - 1.0)
        }
    }

    /// The second- and third-stage terms before their `N/n`.
    pub fn within_term(&self) -> f64 {
        let mut within = 0.0;
        for c in &self.clusters {
            let m = c.secondaries.len() as f64;
            let mm = c.total_units as f64;
            // Variance among estimated secondary totals within the cluster.
            let sec_totals: Vec<f64> = c.secondaries.iter().map(secondary_total).collect();
            let sec_mean = sec_totals.iter().sum::<f64>() / m;
            let s_2i = if c.secondaries.len() < 2 {
                0.0
            } else {
                sec_totals
                    .iter()
                    .map(|t| (t - sec_mean) * (t - sec_mean))
                    .sum::<f64>()
                    / (m - 1.0)
            };
            within += mm * (mm - m) * s_2i / m;
            // Third-stage contribution.
            let mut third = 0.0;
            for s in &c.secondaries {
                let k = s.sampled_tertiary as f64;
                let kk = s.total_tertiary as f64;
                third += kk * (kk - k) * secondary_within_variance(s) / k;
            }
            within += mm / m * third;
        }
        within
    }

    /// The estimated variance of `τ̂` (three-term extension of Eq. 3).
    pub fn variance(&self) -> Result<f64> {
        self.validate()?;
        let n = self.clusters.len();
        if n == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        let nf = n as f64;
        let nn = self.total_clusters as f64;
        let mut var = nn * (nn - nf) * self.inter_cluster_variance() / nf;
        var += nn / nf * self.within_term();
        Ok(var.max(0.0))
    }

    /// The full estimate `τ̂ ± ε` at the given confidence level.
    pub fn estimate(&self, confidence: f64) -> Result<Interval> {
        if !(0.0 < confidence && confidence < 1.0) {
            return Err(StatsError::invalid("confidence", "must lie in (0, 1)"));
        }
        let total = self.estimated_total()?;
        let n = self.clusters.len();
        let census = n as u64 == self.total_clusters
            && self.clusters.iter().all(|c| {
                c.secondaries.len() as u64 == c.total_units
                    && c.secondaries
                        .iter()
                        .all(|s| s.sampled_tertiary == s.total_tertiary)
            });
        if census {
            return Ok(Interval::new(total, 0.0, confidence));
        }
        if n < 2 {
            return Ok(Interval::new(total, f64::INFINITY, confidence));
        }
        let var = self.variance()?;
        let t = cached_two_sided_critical_value((n - 1) as f64, confidence);
        Ok(Interval::new(total, t * var.sqrt(), confidence))
    }
}
