//! Empirical coverage validation: do the 95% confidence intervals of
//! every estimator class actually contain the truth ~95% of the time?
//!
//! This is the repo's statistical acceptance test at larger sample
//! sizes than the unit tests run: two-stage sums, ratio estimates,
//! three-stage totals, and GEV extreme estimates, each over hundreds of
//! resampled executions of a known synthetic population.

use approxhadoop_bench::header;
use approxhadoop_stats::gev::MinEstimator;
use approxhadoop_stats::multistage::{
    ClusterObservation, ExecutedClusters, PairedClusterObservation, RatioEstimator,
    SecondaryObservation, ThreeStageEstimator, ThreeStageObservation, TwoStageEstimator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REPS: usize = 400;
const CONFIDENCE: f64 = 0.95;

fn sample_indices(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx
}

/// The sampled clusters' `(Mᵢ, mᵢ)` as the executed clusters of `total`.
fn executed(total: u64, units: impl IntoIterator<Item = (u64, u64)>) -> ExecutedClusters {
    ExecutedClusters::new(total, units, CONFIDENCE)
}

fn report(name: &str, covered: usize, width_rel: f64) {
    println!(
        "{:>22} | {:>9.1}% | {:>12.2}%",
        name,
        covered as f64 / REPS as f64 * 100.0,
        width_rel * 100.0
    );
}

fn two_stage_coverage(rng: &mut StdRng) {
    // Population: 60 blocks × 150 items with locality.
    let blocks: Vec<Vec<f64>> = (0..60)
        .map(|_| {
            let base = 20.0 + rng.gen_range(-4.0..4.0);
            (0..150)
                .map(|_| base + rng.gen_range(-10.0..10.0))
                .collect()
        })
        .collect();
    let truth: f64 = blocks.iter().flatten().sum();
    let mut covered = 0;
    let mut width = 0.0;
    for _ in 0..REPS {
        let mut obs = Vec::new();
        for b in sample_indices(rng, 60, 20) {
            let items = sample_indices(rng, 150, 40);
            let vals: Vec<f64> = items.iter().map(|&i| blocks[b][i]).collect();
            obs.push(ClusterObservation {
                cluster_id: b as u64,
                total_units: 150,
                sampled_units: 40,
                sum: vals.iter().sum(),
                sum_sq: vals.iter().map(|v| v * v).sum(),
            });
        }
        let executed = executed(60, obs.iter().map(|o| (o.total_units, o.sampled_units)));
        let iv = TwoStageEstimator::from_present(&executed, obs)
            .and_then(|parts| parts.interval())
            .unwrap();
        if iv.contains(truth) {
            covered += 1;
        }
        width += iv.relative_error() / REPS as f64;
    }
    report("two-stage sum", covered, width);
}

fn ratio_coverage(rng: &mut StdRng) {
    // y ≈ 8x with noise; ratio ≈ 8.
    let blocks: Vec<Vec<(f64, f64)>> = (0..50)
        .map(|_| {
            (0..100)
                .map(|_| {
                    let x = rng.gen_range(1.0..5.0);
                    (8.0 * x + rng.gen_range(-2.0..2.0), x)
                })
                .collect()
        })
        .collect();
    let ty: f64 = blocks.iter().flatten().map(|(y, _)| y).sum();
    let tx: f64 = blocks.iter().flatten().map(|(_, x)| x).sum();
    let truth = ty / tx;
    let mut covered = 0;
    let mut width = 0.0;
    for _ in 0..REPS {
        let mut obs = Vec::new();
        for b in sample_indices(rng, 50, 15) {
            let items = sample_indices(rng, 100, 30);
            let mut o = PairedClusterObservation {
                cluster_id: b as u64,
                total_units: 100,
                sampled_units: 30,
                sum_y: 0.0,
                sum_y_sq: 0.0,
                sum_x: 0.0,
                sum_x_sq: 0.0,
                sum_xy: 0.0,
            };
            for &i in &items {
                let (y, x) = blocks[b][i];
                o.sum_y += y;
                o.sum_y_sq += y * y;
                o.sum_x += x;
                o.sum_x_sq += x * x;
                o.sum_xy += x * y;
            }
            obs.push(o);
        }
        let executed = executed(50, obs.iter().map(|o| (o.total_units, o.sampled_units)));
        let iv = RatioEstimator::from_present(&executed, obs).unwrap();
        if iv.contains(truth) {
            covered += 1;
        }
        width += iv.relative_error() / REPS as f64;
    }
    report("two-stage ratio", covered, width);
}

fn three_stage_coverage(rng: &mut StdRng) {
    // 30 blocks × 20 items × 10 tertiary values.
    let pop: Vec<Vec<Vec<f64>>> = (0..30)
        .map(|_| {
            (0..20)
                .map(|_| (0..10).map(|_| rng.gen_range(2.0..8.0)).collect())
                .collect()
        })
        .collect();
    let truth: f64 = pop.iter().flatten().flatten().sum();
    let mut covered = 0;
    let mut width = 0.0;
    for _ in 0..REPS {
        let blocks: Vec<Vec<SecondaryObservation>> = sample_indices(rng, 30, 10)
            .into_iter()
            .map(|b| {
                sample_indices(rng, 20, 8)
                    .iter()
                    .map(|&i| {
                        let ters = sample_indices(rng, 10, 5);
                        let vals: Vec<f64> = ters.iter().map(|&t| pop[b][i][t]).collect();
                        SecondaryObservation {
                            total_tertiary: 10,
                            sampled_tertiary: 5,
                            sum: vals.iter().sum(),
                            sum_sq: vals.iter().map(|v| v * v).sum(),
                        }
                    })
                    .collect()
            })
            .collect();
        let executed = executed(30, blocks.iter().map(|s| (20, s.len() as u64)));
        let present = blocks.iter().map(|s| ThreeStageObservation {
            total_units: 20,
            sampled_units: s.len() as u64,
            secondaries: s.iter().copied(),
        });
        let iv = ThreeStageEstimator::from_present(&executed, present)
            .and_then(|parts| parts.interval())
            .unwrap();
        if iv.contains(truth) {
            covered += 1;
        }
        width += iv.relative_error() / REPS as f64;
    }
    report("three-stage sum", covered, width);
}

fn gev_coverage(rng: &mut StdRng) {
    // True minimum of a uniform(100, 300) population; per-map minima over
    // 500 draws each. The "truth" for coverage is the support endpoint.
    let truth = 100.0;
    let mut covered = 0;
    let mut width = 0.0;
    for _ in 0..REPS {
        let minima: Vec<f64> = (0..50)
            .map(|_| {
                (0..500)
                    .map(|_| rng.gen_range(100.0..300.0))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        if let Ok(iv) = MinEstimator::new().estimate(&minima, CONFIDENCE) {
            if iv.contains(truth) {
                covered += 1;
            }
            width += (iv.half_width / truth) / REPS as f64;
        }
    }
    report("GEV minimum", covered, width);
}

fn main() {
    header(
        "Coverage",
        "Empirical 95% CI coverage of every estimator class (target ≈ 95%; \
         GEV is an asymptotic fit, so its coverage is approximate)",
    );
    println!(
        "{:>22} | {:>10} | {:>13}",
        "estimator", "coverage", "mean CI width"
    );
    let mut rng = StdRng::seed_from_u64(2026);
    two_stage_coverage(&mut rng);
    ratio_coverage(&mut rng);
    three_stage_coverage(&mut rng);
    gev_coverage(&mut rng);
}
