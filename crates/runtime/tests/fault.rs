//! Fault-tolerance integration tests: injected map faults, bounded
//! retry, degrade-to-drop, the degraded-job error budget, and retry
//! events on the pool scheduler.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use approxhadoop_runtime::engine::{run_job, run_job_on_pool, JobConfig};
use approxhadoop_runtime::event::{JobEvent, JobId, JobSession};
use approxhadoop_runtime::fault::{FaultPlan, FaultPolicy};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::mapper::{FnMapper, MapTaskContext, Mapper};
use approxhadoop_runtime::metrics::TaskOutcome;
use approxhadoop_runtime::pool::SlotPool;
use approxhadoop_runtime::reducer::{GroupedReducer, MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::{FixedCoordinator, RuntimeError, TaskId};
use approxhadoop_stats::Interval;

fn blocks(n: usize) -> Vec<Vec<u64>> {
    (0..n).map(|b| vec![b as u64, b as u64]).collect()
}

fn sum_mapper() -> impl Mapper<Item = u64, Key = u8, Value = u64> {
    FnMapper::new(|v: &u64, emit: &mut dyn FnMut(u8, u64)| emit(0, *v))
}

fn sum_reducer() -> impl Reducer<Key = u8, Value = u64, Output = u64> {
    GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.iter().sum::<u64>()))
}

fn expected_sum(n: usize) -> u64 {
    (0..n as u64).map(|b| 2 * b).sum()
}

/// A mapper whose first attempt of every task panics; retries succeed.
struct FirstAttemptPanics {
    attempts: AtomicUsize,
}

impl Mapper for FirstAttemptPanics {
    type Item = u64;
    type Key = u8;
    type Value = u64;
    type TaskState = ();

    fn begin_task(&self, ctx: &MapTaskContext) -> Self::TaskState {
        self.attempts.fetch_add(1, Ordering::SeqCst);
        if ctx.attempt == 0 {
            panic!("transient failure on attempt 0 of {}", ctx.task);
        }
    }

    fn map(&self, _state: &mut (), item: u64, emit: &mut dyn FnMut(u8, u64)) {
        emit(0, item);
    }
}

#[test]
fn panicking_mapper_is_retried_until_it_succeeds() {
    let n = 6;
    let mapper = FirstAttemptPanics {
        attempts: AtomicUsize::new(0),
    };
    let result = run_job(
        &VecSource::new(blocks(n)),
        &mapper,
        |_| sum_reducer(),
        JobConfig {
            map_slots: 3,
            fault_policy: FaultPolicy::tolerant(2),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.outputs, vec![expected_sum(n)]);
    let m = &result.metrics;
    assert_eq!(m.executed_maps, n);
    assert_eq!(m.failed_maps, n, "every task fails exactly once");
    assert_eq!(m.retried_maps, n);
    assert_eq!(m.degraded_to_drop, 0);
    assert_eq!(m.killed_maps, 0, "failures must never count as kills");
    assert!(m
        .task_outcomes
        .iter()
        .all(|r| r.outcome == TaskOutcome::Completed));
    assert_eq!(mapper.attempts.load(Ordering::SeqCst), 2 * n);
}

#[test]
fn injected_io_faults_clear_on_retry() {
    let n = 12;
    let plan = FaultPlan::parse("io=0.3,seed=42").unwrap();
    let result = run_job(
        &VecSource::new(blocks(n)),
        &sum_mapper(),
        |_| sum_reducer(),
        JobConfig {
            map_slots: 4,
            servers: 2,
            fault_plan: Some(plan),
            fault_policy: FaultPolicy::tolerant(10),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.outputs, vec![expected_sum(n)], "retries recover");
    let m = &result.metrics;
    assert_eq!(m.executed_maps, n);
    assert!(m.failed_maps > 0, "the plan must actually inject faults");
    assert_eq!(m.failed_maps, m.retried_maps);
    assert_eq!(m.degraded_to_drop, 0);
    assert_eq!(m.killed_maps, 0);
}

#[test]
fn retry_exhaustion_degrades_to_drop_and_job_completes() {
    // Every attempt of every task fails: with degrade-to-drop the job
    // still completes, recording each task as Failed (never Killed).
    let n = 5;
    let plan = FaultPlan {
        map_io_error_prob: 1.0,
        ..Default::default()
    };
    let result = run_job(
        &VecSource::new(blocks(n)),
        &sum_mapper(),
        |_| sum_reducer(),
        JobConfig {
            map_slots: 2,
            fault_plan: Some(plan),
            fault_policy: FaultPolicy::tolerant(1),
            ..Default::default()
        },
    )
    .unwrap();
    let m = &result.metrics;
    assert_eq!(m.executed_maps, 0);
    assert_eq!(m.degraded_to_drop, n);
    assert_eq!(m.failed_maps, 2 * n, "initial attempt + one retry each");
    assert_eq!(m.retried_maps, n);
    assert_eq!(m.killed_maps, 0);
    assert!(m
        .task_outcomes
        .iter()
        .all(|r| r.outcome == TaskOutcome::Failed));
    assert!((m.drop_fraction() - 1.0).abs() < 1e-12);
}

#[test]
fn default_policy_still_fails_fast_with_the_task_error() {
    let plan = FaultPlan {
        map_io_error_prob: 1.0,
        ..Default::default()
    };
    let err = run_job(
        &VecSource::new(blocks(4)),
        &sum_mapper(),
        |_| sum_reducer(),
        JobConfig {
            map_slots: 2,
            fault_plan: Some(plan),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, RuntimeError::InjectedFault { .. }),
        "expected the injected fault to surface, got: {err}"
    );
}

#[test]
fn job_config_validation_rejects_bad_fault_settings() {
    for sf in [0.5, f64::NAN, f64::INFINITY] {
        let err = run_job(
            &VecSource::new(blocks(2)),
            &sum_mapper(),
            |_| sum_reducer(),
            JobConfig {
                straggler_factor: sf,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidJob { .. }), "sf={sf}");
    }
    let err = run_job(
        &VecSource::new(blocks(2)),
        &sum_mapper(),
        |_| sum_reducer(),
        JobConfig {
            fault_policy: FaultPolicy {
                max_degraded_bound: Some(f64::NAN),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidJob { .. }));
}

/// A reducer that reports a relative bound equal to the dropped-map
/// fraction it has seen — a miniature of the paper's CI widening.
struct DropBoundReducer {
    dropped: usize,
    sum: u64,
}

impl Reducer for DropBoundReducer {
    type Key = u8;
    type Value = u64;
    type Output = u64;

    fn on_map_output(
        &mut self,
        _meta: &MapOutputMeta,
        pairs: Vec<(u8, u64)>,
        ctx: &mut ReduceContext,
    ) {
        self.sum += pairs.into_iter().map(|(_, v)| v).sum::<u64>();
        let bound = self.dropped as f64 / ctx.total_maps() as f64;
        ctx.report_bound(Interval::new(1.0, bound, 0.95), None);
    }

    fn on_map_dropped(&mut self, _task: TaskId, ctx: &mut ReduceContext) {
        self.dropped += 1;
        let bound = self.dropped as f64 / ctx.total_maps() as f64;
        ctx.report_bound(Interval::new(1.0, bound, 0.95), None);
    }

    fn finish(&mut self, _ctx: &mut ReduceContext) -> Vec<u64> {
        vec![self.sum]
    }
}

#[test]
fn degraded_job_over_its_error_budget_fails_with_a_structured_error() {
    let n = 8;
    let plan = FaultPlan {
        map_io_error_prob: 1.0,
        ..Default::default()
    };
    let make_reducer = |_| DropBoundReducer { dropped: 0, sum: 0 };
    let config = |bound: Option<f64>| JobConfig {
        map_slots: 2,
        fault_plan: Some(plan.clone()),
        fault_policy: FaultPolicy {
            max_degraded_bound: bound,
            ..FaultPolicy::tolerant(0)
        },
        ..Default::default()
    };
    // Without a budget the fully degraded job completes.
    let ok = run_job(
        &VecSource::new(blocks(n)),
        &sum_mapper(),
        make_reducer,
        config(None),
    )
    .unwrap();
    assert_eq!(ok.metrics.degraded_to_drop, n);
    // With a budget tighter than the widened bound, it must fail,
    // naming the bound and the limit.
    let err = run_job(
        &VecSource::new(blocks(n)),
        &sum_mapper(),
        make_reducer,
        config(Some(0.25)),
    )
    .unwrap_err();
    match err {
        RuntimeError::DegradeBudgetExceeded {
            worst_bound,
            limit,
            degraded_maps,
        } => {
            assert!((worst_bound - 1.0).abs() < 1e-12, "all maps degraded");
            assert_eq!(limit, 0.25);
            assert_eq!(degraded_maps, n);
        }
        other => panic!("expected DegradeBudgetExceeded, got: {other}"),
    }
    // A budget exactly at the widened bound passes (the limit is
    // inclusive).
    let ok = run_job(
        &VecSource::new(blocks(n)),
        &sum_mapper(),
        make_reducer,
        config(Some(1.0)),
    )
    .unwrap();
    assert_eq!(ok.metrics.degraded_to_drop, n);
}

#[test]
fn pool_job_retries_and_streams_retry_events() {
    let n = 12;
    let pool = SlotPool::new(4);
    let tenant = pool.register_tenant(1.0);
    let (tx, rx) = std::sync::mpsc::channel();
    let session = JobSession::new(JobId(1)).with_events(tx);
    let mut coordinator = FixedCoordinator::new(n, 1.0, 0.0, 0);
    let result = run_job_on_pool(
        Arc::new(VecSource::new(blocks(n))),
        Arc::new(sum_mapper()),
        |_| sum_reducer(),
        JobConfig {
            map_slots: 4,
            fault_plan: Some(FaultPlan::parse("io=0.3,seed=42").unwrap()),
            fault_policy: FaultPolicy::tolerant(10),
            ..Default::default()
        },
        &mut coordinator,
        &pool,
        tenant,
        &session,
    )
    .unwrap();
    pool.unregister_tenant(tenant);
    assert_eq!(result.outputs, vec![expected_sum(n)]);
    let m = &result.metrics;
    assert!(m.failed_maps > 0);
    assert_eq!(m.failed_maps, m.retried_maps);
    assert_eq!(m.killed_maps, 0);
    let retries = rx
        .try_iter()
        .filter(|e| matches!(e, JobEvent::TaskRetry { .. }))
        .count();
    assert_eq!(retries, m.retried_maps, "one TaskRetry event per retry");
}

#[test]
fn three_seed_fault_matrix_completes_without_fatal_errors() {
    // Acceptance criterion: per-attempt failure probability 0.2 (io +
    // panic combined), retries enabled — every seed completes with zero
    // fatal errors and no task recorded as Killed.
    let n = 15;
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::parse(&format!("io=0.15,panic=0.05,seed={seed}")).unwrap();
        let result = run_job(
            &VecSource::new(blocks(n)),
            &sum_mapper(),
            |_| sum_reducer(),
            JobConfig {
                map_slots: 4,
                servers: 2,
                seed,
                fault_plan: Some(plan),
                fault_policy: FaultPolicy::tolerant(4),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed} must complete, got: {e}"));
        let m = &result.metrics;
        assert_eq!(m.executed_maps + m.degraded_to_drop, n, "seed {seed}");
        assert_eq!(m.killed_maps, 0, "seed {seed}");
        assert!(
            m.task_outcomes
                .iter()
                .all(|r| r.outcome != TaskOutcome::Killed),
            "seed {seed}: no task may be recorded as Killed"
        );
    }
}
