//! Extreme value estimation (paper Section 3.2).
//!
//! For min/max reduces, ApproxHadoop treats the values produced by map
//! tasks as a sample of IID random variables. The Fisher–Tippett–Gnedenko
//! theorem says block minima/maxima converge to a Generalized Extreme
//! Value (GEV) distribution, so:
//!
//! 1. Transform the sample via [`block_minima`] / [`block_maxima`] (unless
//!    each map already outputs a per-task minimum/maximum, in which case
//!    the values are used directly).
//! 2. Fit a GEV by maximum likelihood ([`fit_gev_maxima`]) with
//!    Nelder–Mead; parameter confidence intervals come from the observed
//!    information (numerical Hessian of the negative log-likelihood).
//! 3. Estimate the min/max as a low/high percentile of the fitted GEV,
//!    with a confidence interval from the delta method
//!    ([`GevFit::quantile_interval`]).
//!
//! [`MinEstimator`] and [`MaxEstimator`] package the full pipeline.

use crate::dist::{ContinuousDistribution, Gev, Normal};
use crate::interval::Interval;
use crate::opt::{nelder_mead, NelderMeadOptions};
use crate::{Result, StatsError};

/// Splits `values` into `num_blocks` contiguous blocks and returns the
/// maximum of each block (the Block Maxima method). Trailing values that
/// do not fill a block are folded into the last block.
///
/// Returns an empty vector if `values` is empty or `num_blocks == 0`.
pub fn block_maxima(values: &[f64], num_blocks: usize) -> Vec<f64> {
    block_extremes(values, num_blocks, f64::max)
}

/// Splits `values` into `num_blocks` contiguous blocks and returns the
/// minimum of each block (the Block Minima method).
pub fn block_minima(values: &[f64], num_blocks: usize) -> Vec<f64> {
    block_extremes(values, num_blocks, f64::min)
}

fn block_extremes(values: &[f64], num_blocks: usize, pick: fn(f64, f64) -> f64) -> Vec<f64> {
    if values.is_empty() || num_blocks == 0 {
        return Vec::new();
    }
    let num_blocks = num_blocks.min(values.len());
    let block_size = values.len() / num_blocks;
    let mut out = Vec::with_capacity(num_blocks);
    for b in 0..num_blocks {
        let start = b * block_size;
        let end = if b + 1 == num_blocks {
            values.len()
        } else {
            start + block_size
        };
        let first = values[start];
        out.push(
            values[start + 1..end]
                .iter()
                .fold(first, |a, &v| pick(a, v)),
        );
    }
    out
}

/// A maximum-likelihood GEV fit with its parameter covariance matrix.
#[derive(Debug, Clone)]
pub struct GevFit {
    dist: Gev,
    /// Covariance of `(μ, σ, ξ)` from the observed information matrix.
    cov: [[f64; 3]; 3],
    /// Number of (block) observations used in the fit.
    n: usize,
}

impl GevFit {
    /// The fitted distribution.
    pub fn dist(&self) -> &Gev {
        &self.dist
    }

    /// Number of observations used in the fit.
    pub fn sample_size(&self) -> usize {
        self.n
    }

    /// Standard errors of `(μ, σ, ξ)`.
    pub fn std_errors(&self) -> [f64; 3] {
        [
            self.cov[0][0].max(0.0).sqrt(),
            self.cov[1][1].max(0.0).sqrt(),
            self.cov[2][2].max(0.0).sqrt(),
        ]
    }

    /// Confidence intervals for `(μ, σ, ξ)` at the given level, using the
    /// asymptotic normality of the MLE.
    pub fn param_intervals(&self, confidence: f64) -> [Interval; 3] {
        let z = Normal::standard().quantile(0.5 + confidence / 2.0);
        let se = self.std_errors();
        [
            Interval::new(self.dist.mu(), z * se[0], confidence),
            Interval::new(self.dist.sigma(), z * se[1], confidence),
            Interval::new(self.dist.xi(), z * se[2], confidence),
        ]
    }

    /// The `p`-quantile of the fitted GEV with a delta-method confidence
    /// interval at level `confidence`.
    ///
    /// This is the paper's estimator: the min/max estimate is
    /// `G⁻¹(p)` for a low/high percentile `p`, and the interval
    /// `[min_l, min_h]` comes from the uncertainty of the fit.
    pub fn quantile_interval(&self, p: f64, confidence: f64) -> Result<Interval> {
        if !(0.0 < p && p < 1.0) {
            return Err(StatsError::invalid("p", "must lie in (0, 1)"));
        }
        if !(0.0 < confidence && confidence < 1.0) {
            return Err(StatsError::invalid("confidence", "must lie in (0, 1)"));
        }
        let q = self.dist.quantile(p);
        // Gradient of the quantile w.r.t. (μ, σ, ξ), numerically.
        let params = [self.dist.mu(), self.dist.sigma(), self.dist.xi()];
        let mut grad = [0.0; 3];
        for (i, g) in grad.iter_mut().enumerate() {
            let h = 1e-6 * (1.0 + params[i].abs());
            let mut hi = params;
            let mut lo = params;
            hi[i] += h;
            lo[i] -= h;
            // Keep σ positive when perturbing.
            hi[1] = hi[1].max(1e-12);
            lo[1] = lo[1].max(1e-12);
            let qh = Gev::new(hi[0], hi[1], hi[2]).quantile(p);
            let ql = Gev::new(lo[0], lo[1], lo[2]).quantile(p);
            *g = (qh - ql) / (hi[i] - lo[i]);
        }
        let mut var = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                var += grad[i] * self.cov[i][j] * grad[j];
            }
        }
        if !var.is_finite() {
            return Err(StatsError::Numerical {
                context: "gev quantile variance",
            });
        }
        let z = Normal::standard().quantile(0.5 + confidence / 2.0);
        Ok(Interval::new(q, z * var.max(0.0).sqrt(), confidence))
    }
}

/// Fits a GEV to a sample of (block) **maxima** by maximum likelihood.
///
/// Requires at least 5 observations. Optimises over `(μ, ln σ, ξ)` with
/// Nelder–Mead, starting from Gumbel moment estimates; the covariance is
/// the inverse of the numerical Hessian of the negative log-likelihood at
/// the optimum.
pub fn fit_gev_maxima(maxima: &[f64]) -> Result<GevFit> {
    let n = maxima.len();
    if n < 5 {
        return Err(StatsError::InsufficientData { needed: 5, got: n });
    }
    if maxima.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::Numerical {
            context: "gev fit input",
        });
    }

    // Moment-based Gumbel initialisation.
    let mean = maxima.iter().sum::<f64>() / n as f64;
    let var = maxima.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1).max(1) as f64;
    let sigma0 = (6.0 * var).sqrt() / std::f64::consts::PI;
    let sigma0 = if sigma0 > 1e-12 { sigma0 } else { 1e-6 };
    let mu0 = mean - 0.5772156649 * sigma0;

    let nll = |x: &[f64]| {
        let sigma = x[1].exp();
        if !sigma.is_finite() || sigma <= 0.0 || x[2].abs() > 5.0 {
            return f64::INFINITY;
        }
        Gev::new(x[0], sigma, x[2]).neg_log_likelihood(maxima)
    };

    // Try a few starting shapes and keep the best optimum.
    let mut best: Option<(Vec<f64>, f64)> = None;
    for &xi0 in &[0.1, -0.1, 0.0001, 0.5] {
        let r = nelder_mead(
            nll,
            &[mu0, sigma0.ln(), xi0],
            NelderMeadOptions {
                max_iters: 3000,
                f_tol: 1e-10,
                x_tol: 1e-9,
                initial_step: 0.1,
            },
        );
        if r.fx.is_finite() && best.as_ref().is_none_or(|(_, f)| r.fx < *f) {
            best = Some((r.x, r.fx));
        }
    }
    let (x, fx) = best.ok_or(StatsError::NoConvergence {
        what: "gev-mle",
        iterations: 3000,
    })?;
    if !fx.is_finite() {
        return Err(StatsError::NoConvergence {
            what: "gev-mle",
            iterations: 3000,
        });
    }
    let (mu, sigma, xi) = (x[0], x[1].exp(), x[2]);
    let dist = Gev::new(mu, sigma, xi);

    // Observed information: numerical Hessian of the NLL in (μ, σ, ξ).
    let f = |p: &[f64]| -> f64 {
        if p[1] <= 0.0 {
            return f64::INFINITY;
        }
        Gev::new(p[0], p[1], p[2]).neg_log_likelihood(maxima)
    };
    let theta = [mu, sigma, xi];
    let cov = match invert3(&hessian3(f, &theta)) {
        Some(c) if c[0][0] >= 0.0 && c[1][1] >= 0.0 && c[2][2] >= 0.0 => c,
        _ => {
            // Fall back to a conservative diagonal covariance based on the
            // asymptotic Gumbel information, inflated 4x: prevents silent
            // over-confidence when the Hessian is ill-conditioned.
            let s2 = sigma * sigma / n as f64;
            [
                [4.0 * 1.11 * s2, 0.0, 0.0],
                [0.0, 4.0 * 0.61 * s2, 0.0],
                [0.0, 0.0, 4.0 * 0.9 / n as f64],
            ]
        }
    };
    Ok(GevFit { dist, cov, n })
}

/// Fits a GEV to a sample of (block) **minima** by negating the data and
/// fitting maxima; see [`MinEstimator`] for the quantile mapping.
pub fn fit_gev_minima(minima: &[f64]) -> Result<GevFit> {
    let negated: Vec<f64> = minima.iter().map(|v| -v).collect();
    fit_gev_maxima(&negated)
}

/// Numerical Hessian of `f` at `x` via central differences.
fn hessian3<F: Fn(&[f64]) -> f64>(f: F, x: &[f64; 3]) -> [[f64; 3]; 3] {
    let mut h = [[0.0; 3]; 3];
    let steps: Vec<f64> = x.iter().map(|v| 1e-4 * (1.0 + v.abs())).collect();
    for i in 0..3 {
        for j in i..3 {
            let mut xpp = *x;
            let mut xpm = *x;
            let mut xmp = *x;
            let mut xmm = *x;
            xpp[i] += steps[i];
            xpp[j] += steps[j];
            xpm[i] += steps[i];
            xpm[j] -= steps[j];
            xmp[i] -= steps[i];
            xmp[j] += steps[j];
            xmm[i] -= steps[i];
            xmm[j] -= steps[j];
            let v = (f(&xpp) - f(&xpm) - f(&xmp) + f(&xmm)) / (4.0 * steps[i] * steps[j]);
            h[i][j] = v;
            h[j][i] = v;
        }
    }
    h
}

/// Inverts a symmetric 3×3 matrix; `None` if singular or non-finite.
fn invert3(m: &[[f64; 3]; 3]) -> Option<[[f64; 3]; 3]> {
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    if !det.is_finite() || det.abs() < 1e-300 {
        return None;
    }
    let inv_det = 1.0 / det;
    let mut inv = [[0.0; 3]; 3];
    inv[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
    inv[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
    inv[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
    inv[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
    inv[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
    inv[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
    inv[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
    inv[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
    inv[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
    if inv.iter().flatten().any(|v| !v.is_finite()) {
        return None;
    }
    Some(inv)
}

/// Default percentile used when estimating a minimum/maximum from a
/// fitted GEV (the paper's "low percentile p, e.g. 1st percentile").
pub const DEFAULT_EXTREME_PERCENTILE: f64 = 0.01;

/// Estimates the **minimum** of an underlying population from a sample of
/// per-map minima (or raw values transformed via [`block_minima`]).
///
/// # Example
///
/// ```
/// use approxhadoop_stats::gev::MinEstimator;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // 60 per-map minima, each the min of many uniform(10, 20) draws.
/// let minima: Vec<f64> = (0..60)
///     .map(|_| (0..500).map(|_| rng.gen_range(10.0..20.0)).fold(f64::INFINITY, f64::min))
///     .collect();
/// let est = MinEstimator::new().estimate(&minima, 0.95).unwrap();
/// // The estimated minimum should be close to (just below) 10.
/// assert!(est.estimate > 8.0 && est.estimate < 10.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MinEstimator {
    percentile: f64,
}

impl Default for MinEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl MinEstimator {
    /// Creates an estimator with the default percentile
    /// ([`DEFAULT_EXTREME_PERCENTILE`]).
    pub fn new() -> Self {
        MinEstimator {
            percentile: DEFAULT_EXTREME_PERCENTILE,
        }
    }

    /// Overrides the percentile `p` at which `G(min) = p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn with_percentile(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "percentile must lie in (0,1)");
        MinEstimator { percentile: p }
    }

    /// Fits a GEV to the per-map minima and returns the estimated overall
    /// minimum with its confidence interval.
    pub fn estimate(&self, minima: &[f64], confidence: f64) -> Result<Interval> {
        let fit = fit_gev_minima(minima)?;
        // G_min(x) = 1 - G_maxfit(-x): the p-quantile of the minima
        // distribution is the negated (1-p)-quantile of the maxima fit.
        let iv = fit.quantile_interval(1.0 - self.percentile, confidence)?;
        Ok(Interval::new(-iv.estimate, iv.half_width, confidence))
    }
}

/// Estimates the **maximum** of an underlying population from a sample of
/// per-map maxima; mirror image of [`MinEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct MaxEstimator {
    percentile: f64,
}

impl Default for MaxEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl MaxEstimator {
    /// Creates an estimator with the default percentile.
    pub fn new() -> Self {
        MaxEstimator {
            percentile: DEFAULT_EXTREME_PERCENTILE,
        }
    }

    /// Overrides the percentile (the estimate is the `(1-p)`-quantile).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn with_percentile(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "percentile must lie in (0,1)");
        MaxEstimator { percentile: p }
    }

    /// Fits a GEV to the per-map maxima and returns the estimated overall
    /// maximum with its confidence interval.
    pub fn estimate(&self, maxima: &[f64], confidence: f64) -> Result<Interval> {
        let fit = fit_gev_maxima(maxima)?;
        fit.quantile_interval(1.0 - self.percentile, confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn block_maxima_basic() {
        let v = [1.0, 5.0, 2.0, 8.0, 3.0, 0.0];
        assert_eq!(block_maxima(&v, 3), vec![5.0, 8.0, 3.0]);
        assert_eq!(block_minima(&v, 3), vec![1.0, 2.0, 0.0]);
        // Two blocks of three: [1,5,2] and [8,3,0].
        assert_eq!(block_maxima(&v, 2), vec![5.0, 8.0]);
    }

    #[test]
    fn block_extremes_edge_cases() {
        assert!(block_maxima(&[], 4).is_empty());
        assert!(block_maxima(&[1.0], 0).is_empty());
        // More blocks than values: one block per value.
        assert_eq!(block_maxima(&[3.0, 1.0], 10), vec![3.0, 1.0]);
        // Trailing remainder folds into last block.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(block_maxima(&v, 2), vec![2.0, 5.0]);
    }

    #[test]
    fn fit_recovers_gumbel_parameters() {
        // Sample from a Gumbel(μ=10, σ=2) via inverse cdf.
        let mut rng = StdRng::seed_from_u64(3);
        let g = Gev::new(10.0, 2.0, 0.0);
        let data: Vec<f64> = (0..2000)
            .map(|_| g.quantile(rng.gen_range(1e-9..1.0)))
            .collect();
        let fit = fit_gev_maxima(&data).unwrap();
        assert!(
            (fit.dist().mu() - 10.0).abs() < 0.2,
            "mu={}",
            fit.dist().mu()
        );
        assert!(
            (fit.dist().sigma() - 2.0).abs() < 0.2,
            "sigma={}",
            fit.dist().sigma()
        );
        assert!(fit.dist().xi().abs() < 0.1, "xi={}", fit.dist().xi());
    }

    #[test]
    fn fit_recovers_frechet_shape() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = Gev::new(0.0, 1.0, 0.3);
        let data: Vec<f64> = (0..3000)
            .map(|_| g.quantile(rng.gen_range(1e-9..1.0)))
            .collect();
        let fit = fit_gev_maxima(&data).unwrap();
        assert!(
            (fit.dist().xi() - 0.3).abs() < 0.1,
            "xi={}",
            fit.dist().xi()
        );
    }

    #[test]
    fn fit_recovers_weibull_shape() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = Gev::new(5.0, 1.0, -0.25);
        let data: Vec<f64> = (0..3000)
            .map(|_| g.quantile(rng.gen_range(1e-9..1.0)))
            .collect();
        let fit = fit_gev_maxima(&data).unwrap();
        assert!(
            (fit.dist().xi() + 0.25).abs() < 0.1,
            "xi={}",
            fit.dist().xi()
        );
    }

    #[test]
    fn fit_requires_minimum_sample() {
        assert!(matches!(
            fit_gev_maxima(&[1.0, 2.0, 3.0]),
            Err(StatsError::InsufficientData { needed: 5, .. })
        ));
    }

    #[test]
    fn fit_rejects_non_finite() {
        let data = [1.0, 2.0, f64::NAN, 3.0, 4.0, 5.0];
        assert!(fit_gev_maxima(&data).is_err());
    }

    #[test]
    fn param_intervals_cover_truth_reasonably() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Gev::new(3.0, 1.5, 0.1);
        let data: Vec<f64> = (0..1500)
            .map(|_| g.quantile(rng.gen_range(1e-9..1.0)))
            .collect();
        let fit = fit_gev_maxima(&data).unwrap();
        let [mu_iv, sigma_iv, xi_iv] = fit.param_intervals(0.95);
        assert!(mu_iv.contains(3.0), "mu interval {mu_iv} misses 3.0");
        assert!(
            sigma_iv.contains(1.5),
            "sigma interval {sigma_iv} misses 1.5"
        );
        assert!(xi_iv.contains(0.1), "xi interval {xi_iv} misses 0.1");
    }

    #[test]
    fn quantile_interval_widens_with_confidence() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Gev::new(0.0, 1.0, 0.0);
        let data: Vec<f64> = (0..400)
            .map(|_| g.quantile(rng.gen_range(1e-9..1.0)))
            .collect();
        let fit = fit_gev_maxima(&data).unwrap();
        let iv90 = fit.quantile_interval(0.99, 0.90).unwrap();
        let iv99 = fit.quantile_interval(0.99, 0.99).unwrap();
        assert!(iv99.half_width > iv90.half_width);
    }

    #[test]
    fn quantile_interval_rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(13);
        let data: Vec<f64> = (0..50).map(|_| rng.gen_range(0.0..1.0)).collect();
        let fit = fit_gev_maxima(&data).unwrap();
        assert!(fit.quantile_interval(0.0, 0.95).is_err());
        assert!(fit.quantile_interval(0.5, 1.0).is_err());
    }

    #[test]
    fn min_estimator_close_to_true_minimum() {
        let mut rng = StdRng::seed_from_u64(29);
        // Underlying population uniform(100, 200); per-map minima over 1000
        // draws cluster near 100.
        let minima: Vec<f64> = (0..80)
            .map(|_| {
                (0..1000)
                    .map(|_| rng.gen_range(100.0..200.0))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let iv = MinEstimator::new().estimate(&minima, 0.95).unwrap();
        assert!(
            iv.estimate > 95.0 && iv.estimate < 101.0,
            "estimate {}",
            iv.estimate
        );
        assert!(iv.half_width.is_finite());
    }

    #[test]
    fn max_estimator_close_to_true_maximum() {
        let mut rng = StdRng::seed_from_u64(31);
        let maxima: Vec<f64> = (0..80)
            .map(|_| {
                (0..1000)
                    .map(|_| rng.gen_range(0.0..50.0))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let iv = MaxEstimator::new().estimate(&maxima, 0.95).unwrap();
        assert!(
            iv.estimate > 49.0 && iv.estimate < 53.0,
            "estimate {}",
            iv.estimate
        );
    }

    #[test]
    fn more_maps_narrow_the_interval() {
        // Larger samples should (statistically) tighten the CI; use fixed
        // seeds so the test is deterministic.
        let mut rng = StdRng::seed_from_u64(37);
        let draw = |rng: &mut StdRng, n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    (0..500)
                        .map(|_| rng.gen_range(0.0..10.0))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        };
        let small = draw(&mut rng, 12);
        let large = draw(&mut rng, 200);
        let iv_small = MinEstimator::new().estimate(&small, 0.95).unwrap();
        let iv_large = MinEstimator::new().estimate(&large, 0.95).unwrap();
        assert!(
            iv_large.half_width < iv_small.half_width,
            "large {} vs small {}",
            iv_large.half_width,
            iv_small.half_width
        );
    }

    #[test]
    fn invert3_identity() {
        let id = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        assert_eq!(invert3(&id), Some(id));
        let singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]];
        assert!(invert3(&singular).is_none());
    }

    #[test]
    fn hessian_of_quadratic_is_exact() {
        // f = x² + 2y² + 3z² + xy → Hessian [[2,1,0],[1,4,0],[0,0,6]].
        let f = |p: &[f64]| p[0] * p[0] + 2.0 * p[1] * p[1] + 3.0 * p[2] * p[2] + p[0] * p[1];
        let h = hessian3(f, &[0.3, -0.2, 0.9]);
        let expect = [[2.0, 1.0, 0.0], [1.0, 4.0, 0.0], [0.0, 0.0, 6.0]];
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (h[i][j] - expect[i][j]).abs() < 1e-4,
                    "h[{i}][{j}]={}",
                    h[i][j]
                );
            }
        }
    }
}
