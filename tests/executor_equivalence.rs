//! Cross-crate differential tests for the unified scheduler.
//!
//! 1. The multi-stage estimator (core, paper Eq. 1–3) produces
//!    **identical confidence intervals** whether the job ran on
//!    job-private task-tracker threads or on a shared slot pool — the
//!    statistics cannot tell the backends apart.
//! 2. A job that loses clusters three different ways at once —
//!    deliberately dropped, degraded after fault-retry exhaustion, and
//!    killed mid-flight — widens its interval **exactly** as a clean
//!    job that deliberately drops the same cluster set: every terminal
//!    non-completion is one dropped cluster to Eq. 1–3, regardless of
//!    how it died.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use approxhadoop::core::job::AggregationJob;
use approxhadoop::core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
use approxhadoop::core::spec::ApproxSpec;
use approxhadoop::runtime::control::{Coordinator, JobControl, MapDirective};
use approxhadoop::runtime::engine::{
    run_job_on_pool, run_job_process, run_job_with_session, JobConfig, WorkerSpec,
};
use approxhadoop::runtime::fault::{FaultDecision, FaultPlan, FaultPolicy};
use approxhadoop::runtime::input::{SplitMeta, VecSource};
use approxhadoop::runtime::metrics::{MapStats, TaskOutcome};
use approxhadoop::runtime::pool::SlotPool;
use approxhadoop::runtime::{FixedCoordinator, JobId, JobSession, TaskId};
use approxhadoop::stats::sampling::random_order;
use approxhadoop::stats::Interval;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn value_blocks(n_blocks: usize, per_block: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_blocks)
        .map(|_| (0..per_block).map(|_| rng.gen_range(0.0..10.0)).collect())
        .collect()
}

/// Serial deterministic config shared by both backends: one slot on one
/// server, zero retry backoff, sampling + dropping + io faults engaged.
fn serial_config(seed: u64) -> JobConfig {
    JobConfig {
        map_slots: 1,
        servers: 1,
        reduce_tasks: 2,
        seed,
        fault_plan: Some(FaultPlan {
            seed,
            map_io_error_prob: 0.15,
            ..Default::default()
        }),
        fault_policy: FaultPolicy {
            max_task_retries: 2,
            retry_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            degrade_to_drop: true,
            blacklist_after: 0,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn ms_map(x: &f64, emit: &mut dyn FnMut(u8, f64)) {
    emit((*x as u64 % 5) as u8, *x)
}

/// The two backends feed the multi-stage estimator identical cluster
/// data in identical order, so the resulting intervals must be equal to
/// the last bit — estimate, half-width and confidence alike.
#[test]
fn multistage_intervals_are_identical_across_backends() {
    let n_blocks = 30;
    for seed in [5u64, 23, 91] {
        let blocks = value_blocks(n_blocks, 80, seed);
        let cfg = serial_config(seed);

        let mut c1 = FixedCoordinator::new(n_blocks, 0.6, 0.25, seed);
        let s1 = JobSession::new(JobId(7));
        let scoped = run_job_with_session(
            &VecSource::new(blocks.clone()),
            &MultiStageMapper::new(ms_map),
            |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
            cfg.clone(),
            &mut c1,
            &s1,
        )
        .unwrap();

        let pool = SlotPool::new(1);
        let tenant = pool.register_tenant(1.0);
        let mut c2 = FixedCoordinator::new(n_blocks, 0.6, 0.25, seed);
        let s2 = JobSession::new(JobId(7));
        let pooled = run_job_on_pool(
            Arc::new(VecSource::new(blocks.clone())),
            Arc::new(MultiStageMapper::new(ms_map)),
            |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
            cfg.clone(),
            &mut c2,
            &pool,
            tenant,
            &s2,
        )
        .unwrap();
        pool.unregister_tenant(tenant);

        // Third leg: the same job on worker OS processes. The mapper
        // lives in the `approx-worker` binary (same map function, same
        // KeyStat shuffle), so identical intervals prove the wire
        // protocol, mmap'd block reads and spill-capable shuffle are
        // invisible to the estimators.
        let spec = WorkerSpec::new(env!("CARGO_BIN_EXE_approx-worker"), "multistage-mod5-sum");
        let mut c3 = FixedCoordinator::new(n_blocks, 0.6, 0.25, seed);
        let s3 = JobSession::new(JobId(7));
        let processed = run_job_process(
            &VecSource::new(blocks.clone()),
            &spec,
            |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
            JobConfig {
                workers: 1,
                ..cfg.clone()
            },
            &mut c3,
            &s3,
        )
        .unwrap();

        // The builder on top: `AggregationJob::run` (threads) and
        // `run_on_workers` (processes) share one body, so every spec —
        // including the target-error controller with its reduce-side
        // bound monitor — must hand back bit-equal intervals. The target
        // is far too tight to meet, so the controller runs every map
        // precisely and the outcome does not depend on map timings.
        let input = VecSource::new(blocks);
        for approx in [
            ApproxSpec::Precise,
            ApproxSpec::ratios(0.25, 0.6),
            ApproxSpec::target(1e-9, 0.95),
        ] {
            let job = || {
                AggregationJob::sum(ms_map).spec(approx).config(JobConfig {
                    workers: 1,
                    ..cfg.clone()
                })
            };
            let threads = job().run(&input).unwrap();
            let workers = job().run_on_workers(&input, &spec).unwrap();
            assert_eq!(
                threads.outputs, workers.outputs,
                "seed {seed}, {approx:?}: builder intervals diverged between backends"
            );
            assert_eq!(
                threads.metrics.dropped_maps, workers.metrics.dropped_maps,
                "seed {seed}, {approx:?}"
            );
            assert_eq!(
                threads.distinct_keys_estimate, workers.distinct_keys_estimate,
                "seed {seed}, {approx:?}"
            );
        }

        let mut a: Vec<(u8, Interval)> = scoped.outputs;
        let mut b: Vec<(u8, Interval)> = pooled.outputs;
        let mut c: Vec<(u8, Interval)> = processed.outputs;
        a.sort_by_key(|(k, _)| *k);
        b.sort_by_key(|(k, _)| *k);
        c.sort_by_key(|(k, _)| *k);
        assert_eq!(a, b, "seed {seed}: intervals diverged between backends");
        assert_eq!(
            a, c,
            "seed {seed}: process-backend intervals diverged from in-process"
        );
        assert_eq!(
            scoped.metrics.dropped_maps, processed.metrics.dropped_maps,
            "seed {seed}: process backend dropped a different cluster set"
        );
        assert_eq!(
            scoped.metrics.degraded_to_drop, processed.metrics.degraded_to_drop,
            "seed {seed}: process backend degraded differently"
        );
        assert!(
            a.iter().any(|(_, iv)| iv.half_width > 0.0),
            "seed {seed}: the approximate run must have nonzero error bounds"
        );
        assert_eq!(
            scoped.metrics.dropped_maps, pooled.metrics.dropped_maps,
            "seed {seed}"
        );
        assert!(
            scoped.metrics.dropped_maps > 0,
            "seed {seed}: drops must be exercised"
        );
        assert_eq!(
            scoped.metrics.degraded_to_drop, pooled.metrics.degraded_to_drop,
            "seed {seed}"
        );
    }
}

/// The two-input join leg of the differential suite: the tagged
/// multi-dataset scheduler, the Bloom pre-filter and the per-stratum
/// estimators produce **bit-identical** outcomes on scoped threads,
/// the shared slot pool, and worker OS processes — the process leg
/// additionally proves the catalogue survives the params blob and the
/// worker rebuilds the same Bloom filter in another address space.
#[test]
fn join_outcomes_are_identical_across_backends() {
    use approxhadoop::runtime::control::DatasetRatios;
    use approxhadoop::workloads::join::{self, JoinWorkload, PageCatalog};
    use approxhadoop::workloads::wikilog::WikiLog;

    for seed in [5u64, 23, 91] {
        let w = JoinWorkload {
            log: WikiLog {
                days: 1,
                entries_per_block: 250,
                blocks_per_day: 10,
                pages: 2_000,
                projects: 10,
                seed,
            },
            catalog: PageCatalog {
                pages: 1_200,
                pages_per_block: 400,
                categories: 4,
                seed,
                fpr: 0.01,
            },
        };
        let ratios = DatasetRatios {
            sampling_ratio: 0.6,
            drop_ratio: 0.25,
        };
        // Faults only on the log side's schedule positions would be
        // ideal, but the plan is task-indexed and the catalogue must
        // complete — keep retries generous so io faults never degrade
        // a build-side cluster to a drop.
        let cfg = JobConfig {
            fault_policy: FaultPolicy {
                max_task_retries: 6,
                retry_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                degrade_to_drop: true,
                blacklist_after: 0,
                ..Default::default()
            },
            ..serial_config(seed)
        };

        let scoped = join::join_category_traffic(&w, ratios, cfg.clone(), 0.95).unwrap();
        let pooled = join::join_category_traffic_pooled(&w, ratios, cfg.clone(), 0.95, 1).unwrap();
        let spec = WorkerSpec::new(env!("CARGO_BIN_EXE_approx-worker"), join::JOIN_JOB);
        let processed = join::join_category_traffic_process(
            &w,
            ratios,
            JobConfig { workers: 1, ..cfg },
            0.95,
            &spec,
        )
        .unwrap();

        assert_eq!(
            scoped.categories, pooled.categories,
            "seed {seed}: join strata diverged between scoped and pooled"
        );
        assert_eq!(
            scoped.categories, processed.categories,
            "seed {seed}: join strata diverged between scoped and process"
        );
        assert_eq!(scoped.combined, pooled.combined, "seed {seed}");
        assert_eq!(scoped.combined, processed.combined, "seed {seed}");
        assert_eq!(
            scoped.metrics.dropped_maps, pooled.metrics.dropped_maps,
            "seed {seed}"
        );
        assert_eq!(
            scoped.metrics.dropped_maps, processed.metrics.dropped_maps,
            "seed {seed}"
        );
        assert!(
            scoped.metrics.dropped_maps > 0,
            "seed {seed}: log-side drops must be exercised"
        );
        assert!(
            scoped
                .categories
                .iter()
                .all(|(_, iv)| iv.half_width > 0.0 && iv.half_width.is_finite()),
            "seed {seed}: sampled strata must carry real bounds"
        );
    }
}

/// Run-A policy: deliberately drop a planned set at schedule time, then
/// request that everything still outstanding be dropped once enough
/// maps have completed (killing whatever is mid-flight).
struct PlannedStopCoordinator {
    planned: HashSet<usize>,
    completions: usize,
    stop_after: usize,
}

impl Coordinator for PlannedStopCoordinator {
    fn directive(
        &mut self,
        task: TaskId,
        _meta: &SplitMeta,
        _control: &JobControl,
    ) -> MapDirective {
        if self.planned.contains(&task.0) {
            MapDirective::Drop
        } else {
            MapDirective::Run {
                sampling_ratio: 1.0,
            }
        }
    }

    fn on_map_complete(&mut self, _stats: &MapStats, _control: &JobControl) {
        self.completions += 1;
    }

    fn want_drop_remaining(&mut self, _control: &JobControl) -> bool {
        self.completions >= self.stop_after
    }
}

/// Run-B policy: deliberately drop exactly the given set, run the rest
/// precisely.
struct SetDropCoordinator {
    drop: HashSet<usize>,
}

impl Coordinator for SetDropCoordinator {
    fn directive(
        &mut self,
        task: TaskId,
        _meta: &SplitMeta,
        _control: &JobControl,
    ) -> MapDirective {
        if self.drop.contains(&task.0) {
            MapDirective::Drop
        } else {
            MapDirective::Run {
                sampling_ratio: 1.0,
            }
        }
    }
}

/// Finds a fault seed whose io plan spares the slow task's first attempt
/// (so it stays alive long enough to be killed) while failing at least
/// one task that is dispatched early (so the degrade path fires).
fn pick_fault_seed(base: u64, slow: usize, early: &[usize]) -> u64 {
    for fs in base.. {
        let plan = FaultPlan {
            seed: fs,
            map_io_error_prob: 0.2,
            ..Default::default()
        };
        let slow_clean = plan.decide(slow, 0) == FaultDecision::None;
        let some_early_fault = early
            .iter()
            .any(|t| plan.decide(*t, 0) == FaultDecision::IoError);
        if slow_clean && some_early_fault {
            return fs;
        }
    }
    unreachable!("some seed satisfies the predicate")
}

/// Satellite acceptance test: dropped + degraded + killed clusters in
/// ONE job widen the interval exactly like the same set of deliberate
/// drops — across a three-seed matrix.
#[test]
fn mixed_loss_modes_widen_exactly_like_deliberate_drops() {
    let n_blocks = 36;
    let per_block = 50;
    for seed in [1u64, 2, 3] {
        // Replicate the tracker's dispatch order so we can pick a slow
        // task that is guaranteed to be launched first (and therefore
        // still running when the stop fires) and a planned-drop set
        // right behind it.
        let mut order_rng = StdRng::seed_from_u64(seed);
        let order = random_order(&mut order_rng, n_blocks);
        let slow = order[0];
        let planned: HashSet<usize> = order[1..4].iter().copied().collect();
        let fault_seed = pick_fault_seed(seed + 100, slow, &order[4..16]);

        // Items carry their block id so the mapper can stall only the
        // designated slow cluster (the estimator only sees the value).
        let raw = value_blocks(n_blocks, per_block, seed);
        let blocks: Vec<Vec<(usize, f64)>> = raw
            .iter()
            .enumerate()
            .map(|(b, vs)| vs.iter().map(|v| (b, *v)).collect())
            .collect();
        let map_fn = move |item: &(usize, f64), emit: &mut dyn FnMut(u8, f64)| {
            if item.0 == slow {
                std::thread::sleep(Duration::from_millis(3));
            }
            emit(0, item.1)
        };

        // Run A: planned drops + io-fault degrades + a mid-flight kill.
        let mut coord_a = PlannedStopCoordinator {
            planned: planned.clone(),
            completions: 0,
            stop_after: 20,
        };
        let a = run_job_with_session(
            &VecSource::new(blocks.clone()),
            &MultiStageMapper::new(map_fn),
            |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
            JobConfig {
                map_slots: 2,
                servers: 1,
                seed,
                fault_plan: Some(FaultPlan {
                    seed: fault_seed,
                    map_io_error_prob: 0.2,
                    ..Default::default()
                }),
                fault_policy: FaultPolicy::tolerant(0),
                ..Default::default()
            },
            &mut coord_a,
            &JobSession::new(JobId(0)),
        )
        .unwrap();
        let ma = &a.metrics;
        assert!(ma.dropped_maps > 0, "seed {seed}: no deliberate drops");
        assert!(ma.degraded_to_drop > 0, "seed {seed}: no degraded tasks");
        assert!(ma.killed_maps > 0, "seed {seed}: no mid-flight kill");
        assert_eq!(
            ma.executed_maps + ma.dropped_maps + ma.killed_maps + ma.degraded_to_drop,
            n_blocks,
            "seed {seed}: every task must reach a terminal state"
        );

        // Every non-completed task, however it died, is one lost cluster.
        let lost: HashSet<usize> = ma
            .task_outcomes
            .iter()
            .filter(|r| r.outcome != TaskOutcome::Completed)
            .map(|r| r.task.0)
            .collect();
        assert!(lost.contains(&slow), "seed {seed}: slow task must be lost");
        assert!(
            planned.iter().all(|t| lost.contains(t)),
            "seed {seed}: planned drops must be lost"
        );
        assert_eq!(n_blocks - lost.len(), ma.executed_maps, "seed {seed}");

        // Run B: a clean job deliberately dropping exactly the same set.
        let mut coord_b = SetDropCoordinator { drop: lost.clone() };
        let b = run_job_with_session(
            &VecSource::new(blocks.clone()),
            &MultiStageMapper::new(move |item: &(usize, f64), emit: &mut dyn FnMut(u8, f64)| {
                emit(0, item.1)
            }),
            |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
            JobConfig {
                map_slots: 1,
                servers: 1,
                seed,
                ..Default::default()
            },
            &mut coord_b,
            &JobSession::new(JobId(0)),
        )
        .unwrap();
        let mb = &b.metrics;
        assert_eq!(mb.dropped_maps, lost.len(), "seed {seed}");
        assert_eq!(mb.executed_maps, ma.executed_maps, "seed {seed}");
        assert_eq!(mb.killed_maps, 0, "seed {seed}");
        assert_eq!(mb.degraded_to_drop, 0, "seed {seed}");

        // Eq. 1–3 see the same n executed clusters out of N: identical
        // widening, up to float summation order across the two slots.
        let (_, iva) = a.outputs[0];
        let (_, ivb) = b.outputs[0];
        assert!(
            iva.half_width > 0.0 && iva.half_width.is_finite(),
            "seed {seed}: lossy run must carry a real bound"
        );
        let est_tol = 1e-9 * iva.estimate.abs().max(1.0);
        let hw_tol = 1e-9 * iva.half_width.max(1.0);
        assert!(
            (iva.estimate - ivb.estimate).abs() <= est_tol,
            "seed {seed}: estimates diverged: {} vs {}",
            iva.estimate,
            ivb.estimate
        );
        assert!(
            (iva.half_width - ivb.half_width).abs() <= hw_tol,
            "seed {seed}: widening diverged: {} vs {}",
            iva.half_width,
            ivb.half_width
        );
        // And the mixed-loss interval still contains the truth over the
        // executed clusters' population estimate target: the full sum.
        let truth: f64 = raw.iter().flatten().sum();
        assert!(
            iva.contains(truth),
            "seed {seed}: {} ± {} must contain {truth}",
            iva.estimate,
            iva.half_width
        );
    }
}
