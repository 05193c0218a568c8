//! Shared helpers for the experiment binaries that regenerate every
//! table and figure of the ApproxHadoop paper.
//!
//! Each paper binary (`table1`, `fig5` … `fig13`, `table2`) prints the
//! same rows/series the paper reports, using the laptop-scale synthetic
//! datasets for real-engine measurements and the cluster simulator for
//! paper-scale timing and energy. `EXPERIMENTS.md` records paper-vs-
//! measured values for each. Beside them: `ablation` (the design
//! choices `DESIGN.md` calls out), `coverage` (empirical interval
//! coverage per estimator) and `join` (the multi-input join's
//! baseline-gated scale harness). Engine throughput, the shuffle,
//! spilling and admission are measured by the repository's
//! `benchmark/` package, and load tests run as `approxhadoop loadtest`.
//!
//! Environment knobs:
//!
//! * `APPROX_REPS` — repetitions per configuration (default 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Repetitions per configuration (`APPROX_REPS`, default 3).
pub fn reps() -> usize {
    std::env::var("APPROX_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Measures the wall time of `f` in seconds, returning `(secs, value)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let v = f();
    (start.elapsed().as_secs_f64(), v)
}

/// Aggregate of repeated scalar measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean value.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarise zero measurements");
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Summary {
            mean,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} [{:.3}, {:.3}]", self.mean, self.min, self.max)
    }
}

/// Prints a figure/table header in a consistent style.
pub fn header(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.to_string().contains("2.000"));
    }

    #[test]
    #[should_panic]
    fn summary_rejects_empty() {
        Summary::of(&[]);
    }

    #[test]
    fn timed_returns_value() {
        let (secs, v) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}

use approxhadoop_cluster::{simulate, ClusterSpec, SimJobSpec};
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_stats::Interval;

/// Outcome of one real-engine run used by the ratio sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Wall-clock seconds of the real laptop-scale run.
    pub wall_secs: f64,
    /// Worst-key 95% relative confidence half-width.
    pub bound_rel: f64,
    /// Actual relative error of the worst key against ground truth.
    pub actual_rel: f64,
}

/// Picks the key with the maximum predicted absolute error (the paper's
/// reporting rule) and returns `(relative bound, actual relative error)`
/// against the precise run.
pub fn worst_key_metrics<K: PartialEq>(
    outputs: &[(K, Interval)],
    truth: &[(K, Interval)],
) -> (f64, f64) {
    let worst = outputs
        .iter()
        .max_by(|a, b| a.1.half_width.total_cmp(&b.1.half_width));
    match worst {
        Some((k, iv)) => {
            let t = truth
                .iter()
                .find(|(tk, _)| tk == k)
                .map(|(_, tiv)| tiv.estimate)
                .unwrap_or(0.0);
            (iv.relative_error(), iv.actual_error(t))
        }
        None => (f64::INFINITY, f64::INFINITY),
    }
}

/// Runs the paper's dropping × sampling ratio sweep (Figures 6, 7, 11):
/// for each combination, repeats the real-engine run `reps()` times and
/// optionally simulates the same ratios at cluster scale.
pub fn ratio_sweep(
    drops: &[f64],
    samples: &[f64],
    sim: Option<(&ClusterSpec, &SimJobSpec)>,
    mut run: impl FnMut(ApproxSpec, u64) -> Outcome,
) {
    println!(
        "{:>6} | {:>8} | {:>10} | {:>10} | {:>9} | {:>9}",
        "drop%", "sample%", "real(s)", "sim(s)", "95%CI", "actual%"
    );
    for &drop in drops {
        for &sample in samples {
            let spec = if drop == 0.0 && sample >= 1.0 {
                ApproxSpec::Precise
            } else {
                ApproxSpec::ratios(drop, sample)
            };
            let mut walls = Vec::new();
            let mut bounds = Vec::new();
            let mut actuals = Vec::new();
            for seed in 0..reps() as u64 {
                let o = run(spec, seed);
                walls.push(o.wall_secs);
                bounds.push(o.bound_rel);
                actuals.push(o.actual_rel);
            }
            let sim_secs = sim
                .map(|(cluster, job)| {
                    simulate(cluster, job, spec, 7)
                        .map(|r| r.wall_secs)
                        .unwrap_or(f64::NAN)
                })
                .unwrap_or(f64::NAN);
            println!(
                "{:>5.0}% | {:>7.0}% | {:>10.3} | {:>10.0} | {:>8.2}% | {:>8.2}%",
                drop * 100.0,
                sample * 100.0,
                Summary::of(&walls).mean,
                sim_secs,
                Summary::of(&bounds).mean * 100.0,
                Summary::of(&actuals).mean * 100.0
            );
        }
    }
}
