//! Numerical optimisation: [`nelder_mead`], derivative-free simplex
//! minimisation, used for the GEV maximum-likelihood fit.
//!
//! The paper's Section 4.4 search for dropping and sampling ratios needs
//! no root-finder from here: `approxhadoop_core::target::plan_with_margin`
//! runs its own integer search.

/// Options controlling [`nelder_mead`].
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadOptions {
    /// Maximum number of simplex iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the function-value spread across the
    /// simplex.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex diameter.
    pub x_tol: f64,
    /// Initial per-coordinate step used to build the starting simplex.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_iters: 2000,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a [`nelder_mead`] minimisation.
#[derive(Debug, Clone)]
pub struct NelderMeadResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Function value at `x`.
    pub fx: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerances were met before `max_iters`.
    pub converged: bool,
}

/// Minimises `f` starting from `x0` with the Nelder–Mead simplex method.
///
/// The implementation uses the standard reflection/expansion/contraction/
/// shrink steps (α=1, γ=2, ρ=0.5, σ=0.5). `f` may return `f64::INFINITY`
/// to encode constraints (e.g. GEV support violations).
///
/// # Example
///
/// ```
/// use approxhadoop_stats::opt::{nelder_mead, NelderMeadOptions};
///
/// // Rosenbrock's banana function, minimum at (1, 1).
/// let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
/// let r = nelder_mead(f, &[-1.2, 1.0], NelderMeadOptions { max_iters: 5000, ..Default::default() });
/// assert!((r.x[0] - 1.0).abs() < 1e-4 && (r.x[1] - 1.0).abs() < 1e-4);
/// ```
pub fn nelder_mead<F>(mut f: F, x0: &[f64], opts: NelderMeadOptions) -> NelderMeadResult
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    assert!(n > 0, "nelder_mead requires at least one dimension");

    // Build the initial simplex: x0 plus n perturbed vertices.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        let step = if v[i].abs() > 1e-12 {
            opts.initial_step * v[i].abs()
        } else {
            opts.initial_step
        };
        v[i] += step;
        simplex.push(v);
    }
    let mut fvals: Vec<f64> = simplex.iter().map(|v| f(v)).collect();

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut iterations = 0;
    let mut converged = false;

    while iterations < opts.max_iters {
        iterations += 1;
        // Order vertices by function value.
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&a, &b| {
            fvals[a]
                .partial_cmp(&fvals[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let ordered: Vec<Vec<f64>> = idx.iter().map(|&i| simplex[i].clone()).collect();
        let ordered_f: Vec<f64> = idx.iter().map(|&i| fvals[i]).collect();
        simplex = ordered;
        fvals = ordered_f;

        // Convergence checks.
        let f_spread = (fvals[n] - fvals[0]).abs();
        let x_spread = simplex[1..]
            .iter()
            .map(|v| {
                v.iter()
                    .zip(&simplex[0])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        if f_spread < opts.f_tol && x_spread < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for v in &simplex[..n] {
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x / n as f64;
            }
        }

        // Reflection.
        let reflected: Vec<f64> = centroid
            .iter()
            .zip(&simplex[n])
            .map(|(c, w)| c + alpha * (c - w))
            .collect();
        let fr = f(&reflected);

        if fr < fvals[0] {
            // Expansion.
            let expanded: Vec<f64> = centroid
                .iter()
                .zip(&reflected)
                .map(|(c, r)| c + gamma * (r - c))
                .collect();
            let fe = f(&expanded);
            if fe < fr {
                simplex[n] = expanded;
                fvals[n] = fe;
            } else {
                simplex[n] = reflected;
                fvals[n] = fr;
            }
        } else if fr < fvals[n - 1] {
            simplex[n] = reflected;
            fvals[n] = fr;
        } else {
            // Contraction.
            let contracted: Vec<f64> = centroid
                .iter()
                .zip(&simplex[n])
                .map(|(c, w)| c + rho * (w - c))
                .collect();
            let fc = f(&contracted);
            if fc < fvals[n] {
                simplex[n] = contracted;
                fvals[n] = fc;
            } else {
                // Shrink towards the best vertex.
                let best = simplex[0].clone();
                for v in simplex.iter_mut().skip(1) {
                    for (x, b) in v.iter_mut().zip(&best) {
                        *x = b + sigma * (*x - b);
                    }
                }
                for (i, v) in simplex.iter().enumerate().skip(1) {
                    fvals[i] = f(v);
                }
            }
        }
    }

    // Return the best vertex.
    let (best_i, _) = fvals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty simplex");
    NelderMeadResult {
        x: simplex[best_i].clone(),
        fx: fvals[best_i],
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 7.0;
        let r = nelder_mead(f, &[0.0, 0.0], NelderMeadOptions::default());
        assert!(r.converged);
        assert!((r.x[0] - 3.0).abs() < 1e-5);
        assert!((r.x[1] + 1.0).abs() < 1e-5);
        assert!((r.fx - 7.0).abs() < 1e-9);
    }

    #[test]
    fn nelder_mead_1d() {
        let f = |x: &[f64]| (x[0] - 2.5).powi(2);
        let r = nelder_mead(f, &[10.0], NelderMeadOptions::default());
        assert!((r.x[0] - 2.5).abs() < 1e-5);
    }

    #[test]
    fn nelder_mead_with_infinite_barrier() {
        // Constrained: f = (x-2)² for x > 0, ∞ otherwise; start near 0.
        let f = |x: &[f64]| {
            if x[0] <= 0.0 {
                f64::INFINITY
            } else {
                (x[0] - 2.0).powi(2)
            }
        };
        let r = nelder_mead(f, &[0.5, 0.0], NelderMeadOptions::default());
        assert!((r.x[0] - 2.0).abs() < 1e-4);
    }
}
