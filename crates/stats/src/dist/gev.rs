//! The Generalized Extreme Value (GEV) distribution.
//!
//! By the Fisher–Tippett–Gnedenko theorem, block maxima of IID samples
//! converge to a GEV; ApproxHadoop uses a fitted GEV to estimate min/max
//! reduces with confidence intervals when map tasks are dropped.

use crate::dist::ContinuousDistribution;

/// A GEV distribution with location `mu`, scale `sigma` and shape `xi`.
///
/// The cdf (for maxima) is `F(x) = exp(-t(x))` with
/// `t(x) = (1 + ξ·(x-μ)/σ)^(-1/ξ)` when `ξ ≠ 0` and
/// `t(x) = exp(-(x-μ)/σ)` in the Gumbel limit `ξ = 0`.
///
/// # Example
///
/// ```
/// use approxhadoop_stats::dist::{ContinuousDistribution, Gev};
///
/// let g = Gev::new(0.0, 1.0, 0.0); // Gumbel
/// // F(μ) = exp(-1) for a Gumbel.
/// assert!((g.cdf(0.0) - (-1.0f64).exp()).abs() < 1e-12);
/// let q = g.quantile(0.5);
/// assert!((g.cdf(q) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gev {
    mu: f64,
    sigma: f64,
    xi: f64,
}

/// Shape values with absolute value below this are treated as the Gumbel
/// (`ξ = 0`) limit for numerical stability.
const XI_EPS: f64 = 1e-9;

impl Gev {
    /// Creates a GEV distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0` or any parameter is non-finite.
    pub fn new(mu: f64, sigma: f64, xi: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && xi.is_finite(),
            "GEV parameters must be finite"
        );
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        Gev { mu, sigma, xi }
    }

    /// Location parameter μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Shape parameter ξ.
    pub fn xi(&self) -> f64 {
        self.xi
    }

    /// The auxiliary `t(x)` with cdf `exp(-t(x))`; returns `+∞` below the
    /// support and `0` above it.
    fn t(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        if self.xi.abs() < XI_EPS {
            (-z).exp()
        } else {
            let u = 1.0 + self.xi * z;
            if u <= 0.0 {
                if self.xi > 0.0 {
                    // Below the lower endpoint: cdf = 0.
                    f64::INFINITY
                } else {
                    // Above the upper endpoint: cdf = 1.
                    0.0
                }
            } else {
                u.powf(-1.0 / self.xi)
            }
        }
    }

    /// Negative log-likelihood of IID observations under this GEV; `+∞`
    /// if any observation falls outside the support.
    pub fn neg_log_likelihood(&self, data: &[f64]) -> f64 {
        let mut nll = data.len() as f64 * self.sigma.ln();
        for &x in data {
            let z = (x - self.mu) / self.sigma;
            if self.xi.abs() < XI_EPS {
                nll += z + (-z).exp();
            } else {
                let u = 1.0 + self.xi * z;
                if u <= 1e-12 {
                    return f64::INFINITY;
                }
                nll += (1.0 + 1.0 / self.xi) * u.ln() + u.powf(-1.0 / self.xi);
            }
        }
        nll
    }
}

impl ContinuousDistribution for Gev {
    fn pdf(&self, x: f64) -> f64 {
        let t = self.t(x);
        if !t.is_finite() || t == 0.0 {
            return 0.0;
        }
        t.powf(1.0 + self.xi) * (-t).exp() / self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        (-self.t(x)).exp()
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        let y = -p.ln(); // so that exp(-y) = p
        if self.xi.abs() < XI_EPS {
            self.mu - self.sigma * y.ln()
        } else {
            self.mu + self.sigma * (y.powf(-self.xi) - 1.0) / self.xi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gumbel_cdf_known_value() {
        // Gumbel: F(μ) = exp(-1) ≈ 0.3679
        let g = Gev::new(2.0, 1.5, 0.0);
        assert!((g.cdf(2.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn quantile_cdf_roundtrip_all_shapes() {
        for &xi in &[-0.4, -0.1, 0.0, 0.1, 0.5, 1.2] {
            let g = Gev::new(1.0, 2.0, xi);
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let x = g.quantile(p);
                assert!(
                    (g.cdf(x) - p).abs() < 1e-10,
                    "xi={xi} p={p}: got cdf={}",
                    g.cdf(x)
                );
            }
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let g = Gev::new(0.0, 1.0, 0.3);
        let mut prev = -1.0;
        // Just above the support's lower end, μ − σ/ξ.
        let mut x = -1.0 / 0.3 + 0.01;
        while x < 20.0 {
            let c = g.cdf(x);
            assert!(c >= prev);
            prev = c;
            x += 0.25;
        }
    }

    #[test]
    fn support_endpoints() {
        // ξ > 0: bounded below at μ - σ/ξ = -2.
        let g = Gev::new(0.0, 1.0, 0.5);
        assert_eq!(g.cdf(-2.5), 0.0);
        assert_eq!(g.pdf(-2.5), 0.0);
        // ξ < 0: bounded above at μ - σ/ξ = 2.
        let g = Gev::new(0.0, 1.0, -0.5);
        assert!((g.cdf(2.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pdf_matches_cdf_derivative() {
        for &xi in &[-0.2, 0.0, 0.3] {
            let g = Gev::new(0.5, 2.0, xi);
            let h = 1e-6;
            for &x in &[0.0, 1.0, 3.0] {
                let slope = (g.cdf(x + h) - g.cdf(x - h)) / (2.0 * h);
                assert!(
                    (slope - g.pdf(x)).abs() < 1e-6,
                    "xi={xi} x={x}: slope={slope} pdf={}",
                    g.pdf(x)
                );
            }
        }
    }

    #[test]
    fn nll_finite_inside_support_infinite_outside() {
        let g = Gev::new(0.0, 1.0, 0.5); // support is [-2, ∞)
        assert!(g.neg_log_likelihood(&[0.0, 1.0, 5.0]).is_finite());
        assert_eq!(g.neg_log_likelihood(&[-3.0]), f64::INFINITY);
    }

    #[test]
    fn gumbel_limit_is_continuous_in_xi() {
        // NLL and quantiles at ξ = ±1e-10 should match ξ = 0 closely.
        let data = [0.3, 1.2, -0.4, 2.2, 0.9];
        let g0 = Gev::new(0.0, 1.0, 0.0);
        let gp = Gev::new(0.0, 1.0, 1e-10);
        assert!((g0.neg_log_likelihood(&data) - gp.neg_log_likelihood(&data)).abs() < 1e-6);
        assert!((g0.quantile(0.3) - gp.quantile(0.3)).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_sigma() {
        Gev::new(0.0, -1.0, 0.0);
    }
}
