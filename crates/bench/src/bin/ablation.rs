//! Ablation studies for the design choices called out in `DESIGN.md` /
//! `EXPERIMENTS.md`:
//!
//! 1. **Student-t vs normal quantile** in the CI (Eq. 2 uses t with
//!    `n-1` degrees of freedom — how much coverage does the normal
//!    approximation lose at realistic cluster counts?);
//! 2. **Planning safety margin** (0.8× vs the paper's exact-target
//!    planning): violation rate vs extra work;
//! 3. **Estimate freezing** on early stop: violation rate without it;
//! 4. **Pilot wave** vs a precise first wave on single-wave jobs:
//!    precisely processed records.

use approxhadoop_bench::header;
use approxhadoop_core::multistage::{
    Aggregation, BoundMonitor, MultiStageMapper, MultiStageReducer,
};
use approxhadoop_core::spec::{ApproxSpec, ErrorTarget, PilotSpec};
use approxhadoop_core::target::TargetErrorCoordinator;
use approxhadoop_runtime::engine::{run_job_with_session, JobConfig};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::{JobId, JobSession};
use approxhadoop_stats::dist::{cached_two_sided_critical_value, ContinuousDistribution, Normal};
use approxhadoop_stats::multistage::{ClusterObservation, ExecutedClusters, TwoStageEstimator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic population: `blocks × per_block` values with block-level
/// locality.
fn population(blocks: usize, per_block: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..blocks)
        .map(|_| {
            let base = 50.0 + rng.gen_range(-5.0..5.0);
            (0..per_block)
                .map(|_| base + rng.gen_range(-20.0..20.0))
                .collect()
        })
        .collect()
}

/// Ablation 1: CI coverage with t vs z quantiles at small n.
fn ablate_quantile() {
    println!("\n--- Ablation 1: Student-t vs normal quantile (Eq. 2) ---");
    println!(
        "{:>10} | {:>12} | {:>12}",
        "clusters n", "t coverage", "z coverage"
    );
    let mut rng = StdRng::seed_from_u64(1);
    for n in [3usize, 5, 10, 30] {
        let mut covered_t = 0;
        let mut covered_z = 0;
        let reps = 600;
        for _ in 0..reps {
            let blocks = population(40, 50, rng.gen());
            let truth: f64 = blocks.iter().flatten().sum();
            let mut obs = Vec::new();
            // Sample n random blocks fully.
            let mut ids: Vec<usize> = (0..40).collect();
            for i in 0..n {
                let j = rng.gen_range(i..40);
                ids.swap(i, j);
            }
            for &b in ids.iter().take(n) {
                obs.push(ClusterObservation {
                    cluster_id: b as u64,
                    total_units: 50,
                    sampled_units: 50,
                    sum: blocks[b].iter().sum(),
                    sum_sq: blocks[b].iter().map(|v| v * v).sum(),
                });
            }
            let units = obs.iter().map(|o| (o.total_units, o.sampled_units));
            let executed = ExecutedClusters::new(40, units, 0.95);
            let parts = TwoStageEstimator::from_present(&executed, obs).unwrap();
            let (var, tau) = (parts.variance, parts.estimate);
            let t = cached_two_sided_critical_value((n - 1) as f64, 0.95);
            let z = Normal::standard().quantile(0.975);
            if (tau - truth).abs() <= t * var.sqrt() {
                covered_t += 1;
            }
            if (tau - truth).abs() <= z * var.sqrt() {
                covered_z += 1;
            }
        }
        println!(
            "{:>10} | {:>11.1}% | {:>11.1}%",
            n,
            covered_t as f64 / reps as f64 * 100.0,
            covered_z as f64 / reps as f64 * 100.0
        );
    }
    println!("(the normal approximation under-covers at small n — Eq. 2's t is load-bearing)");
}

/// One target-mode run with explicit margin/freeze knobs; returns
/// `(reported_rel_bound, executed_maps, avg_sampling)`.
fn run_target(
    blocks: &[Vec<f64>],
    target: f64,
    margin: f64,
    freeze: bool,
    seed: u64,
) -> (f64, usize, f64) {
    let total = blocks.len();
    let input = VecSource::new(blocks.to_vec());
    let mapper = MultiStageMapper::new(|v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v));
    let config = JobConfig {
        map_slots: 4,
        reduce_tasks: 1,
        seed,
        ..Default::default()
    };
    // Built by hand, not from an `ApproxSpec`: the margin and the freeze
    // are the knobs under study.
    let mut coordinator = TargetErrorCoordinator::new(
        total,
        ErrorTarget::Relative(target),
        0.95,
        config.map_slots,
        None,
    )
    .with_margin(margin);
    let monitor = BoundMonitor {
        freeze_at: coordinator.monitor().freeze_at.filter(|_| freeze),
        ..coordinator.monitor()
    };
    let job = run_job_with_session(
        &input,
        &mapper,
        |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95).with_monitor(monitor),
        config,
        &mut coordinator,
        &JobSession::new(JobId(0)),
    )
    .expect("target job");
    let bound = job
        .outputs
        .first()
        .map(|(_, iv)| iv.relative_error())
        .unwrap_or(f64::INFINITY);
    (
        bound,
        job.metrics.executed_maps,
        job.metrics.effective_sampling_ratio(),
    )
}

/// Ablations 2 & 3: margin and freeze.
fn ablate_margin_and_freeze() {
    println!("\n--- Ablations 2 & 3: planning margin and estimate freezing ---");
    println!(
        "{:>18} | {:>11} | {:>10} | {:>9}",
        "variant", "violations", "avg maps", "avg smpl"
    );
    let target = 0.02;
    let reps = 40;
    for (name, margin, freeze) in [
        ("margin 1.0, -frz", 1.0, false),
        ("margin 0.8, -frz", 0.8, false),
        ("margin 1.0, +frz", 1.0, true),
        ("margin 0.8, +frz", 0.8, true),
    ] {
        let mut violations = 0;
        let mut maps = 0usize;
        let mut sampling = 0.0;
        for seed in 0..reps {
            let blocks = population(48, 120, 1000 + seed);
            let (bound, m, s) = run_target(&blocks, target, margin, freeze, seed);
            if bound > target + 1e-9 {
                violations += 1;
            }
            maps += m;
            sampling += s;
        }
        println!(
            "{:>18} | {:>8}/{:<2} | {:>10.1} | {:>8.2}",
            name,
            violations,
            reps,
            maps as f64 / reps as f64,
            sampling / reps as f64
        );
    }
    println!("(margin+freeze buy a deterministic early-stop guarantee for a little extra work)");
}

/// Ablation 4: pilot wave on a single-wave job.
fn ablate_pilot() {
    println!("\n--- Ablation 4: pilot wave on a single-wave job ---");
    // 16 blocks on 16 slots: without a pilot, everything runs precisely
    // before statistics exist.
    let blocks = population(16, 400, 7);
    let input = VecSource::new(blocks);
    let config = JobConfig {
        map_slots: 16,
        reduce_tasks: 1,
        ..Default::default()
    };
    for (name, pilot) in [
        ("no pilot", None),
        (
            "pilot 3 maps @5%",
            Some(PilotSpec {
                tasks: 3,
                sampling_ratio: 0.05,
            }),
        ),
    ] {
        let spec = match pilot {
            None => ApproxSpec::target(0.05, 0.95),
            Some(p) => ApproxSpec::target(0.05, 0.95).with_pilot(p),
        };
        let r = approxhadoop_core::job::AggregationJob::sum(
            |v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v),
        )
        .spec(spec)
        .config(config.clone())
        .run(&input)
        .expect("pilot job");
        println!(
            "{:>18}: {:>6} of {} records processed precisely-equivalent (ratio {:.2}), bound {:.2}%",
            name,
            r.metrics.sampled_records,
            r.metrics.total_records,
            r.metrics.effective_sampling_ratio(),
            r.outputs[0].1.relative_error() * 100.0
        );
    }
    println!("(the pilot replaces the mandatory precise wave with a 5% sample)");
}

fn main() {
    header(
        "Ablations",
        "Design-choice studies: t vs z quantiles, planning margin, freezing, pilot waves",
    );
    ablate_quantile();
    ablate_margin_and_freeze();
    ablate_pilot();
}
