//! Differential proof that the three executor backends are one
//! scheduler.
//!
//! The same job — same input, same seed, same coordinator policy, same
//! injected faults — is run on job-private task-tracker threads
//! (`run_job_with_session`), on a shared [`SlotPool`]
//! (`run_job_on_pool`), and on worker OS processes
//! (`run_job_process`). Because the unified `JobTracker` owns every
//! scheduling decision and the configuration below makes execution
//! serial (one slot, one server, zero retry backoff), the runs must
//! produce **byte-identical** `JobEvent` streams, identical outputs,
//! and identical task-level metrics. Any divergence means a scheduling
//! decision leaked into a backend.

use std::sync::Arc;
use std::time::Duration;

use approxhadoop_runtime::engine::{
    run_job_on_pool, run_job_process, run_job_with_session, JobConfig, JobResult, WorkerSpec,
};
use approxhadoop_runtime::input::{BoxedSource, DatasetId, InputSource, TaggedSource, VecSource};
use approxhadoop_runtime::mapper::{FnMapper, MapTaskContext, Mapper};
use approxhadoop_runtime::pool::SlotPool;
use approxhadoop_runtime::reducer::GroupedReducer;
use approxhadoop_runtime::{
    DatasetRatios, FaultPlan, FaultPolicy, FixedCoordinator, JobEvent, JobId, JobSession,
};

/// The worker binary holding this suite's registered jobs, built by
/// cargo alongside the test.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_approx-worker-rt")
}

fn blocks() -> Vec<Vec<u32>> {
    (0..24)
        .map(|b| (0..60).map(|i| b * 60 + i).collect())
        .collect()
}

/// Serial, fully deterministic configuration: one slot on one server
/// (so message arrival order is the completion order), zero backoff (so
/// retries redispatch immediately regardless of wall time), sampling and
/// dropping engaged, and seeded io-fault injection exercising the
/// retry → degrade path.
fn config(seed: u64) -> JobConfig {
    JobConfig {
        map_slots: 1,
        servers: 1,
        reduce_tasks: 2,
        sampling_ratio: 0.5,
        drop_ratio: 0.2,
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

struct Run {
    result: JobResult<(u8, u64)>,
    events: Vec<JobEvent>,
}

fn run_scoped_backend(seed: u64) -> Run {
    let input = VecSource::new(blocks());
    let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| emit((*v % 8) as u8, 1));
    let cfg = config(seed);
    let mut coordinator = FixedCoordinator::new(24, cfg.sampling_ratio, cfg.drop_ratio, cfg.seed);
    let (tx, rx) = crossbeam::channel::unbounded();
    let session = JobSession::new(JobId(7)).with_events(tx);
    let result = run_job_with_session(
        &input,
        &mapper,
        |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        cfg,
        &mut coordinator,
        &session,
    )
    .unwrap();
    drop(session);
    Run {
        result,
        events: rx.try_iter().collect(),
    }
}

fn run_pool_backend(seed: u64) -> Run {
    let cfg = config(seed);
    let mut coordinator = FixedCoordinator::new(24, cfg.sampling_ratio, cfg.drop_ratio, cfg.seed);
    let pool = SlotPool::new(1);
    let tenant = pool.register_tenant(1.0);
    let (tx, rx) = crossbeam::channel::unbounded();
    let session = JobSession::new(JobId(7)).with_events(tx);
    let result = run_job_on_pool(
        Arc::new(VecSource::new(blocks())),
        Arc::new(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
            emit((*v % 8) as u8, 1)
        })),
        |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        cfg,
        &mut coordinator,
        &pool,
        tenant,
        &session,
    )
    .unwrap();
    drop(session);
    pool.unregister_tenant(tenant);
    Run {
        result,
        events: rx.try_iter().collect(),
    }
}

fn run_process_backend(seed: u64) -> Run {
    let input = VecSource::new(blocks());
    let spec = WorkerSpec::new(worker_bin(), "mod8-count");
    let cfg = JobConfig {
        workers: 1,
        ..config(seed)
    };
    let mut coordinator = FixedCoordinator::new(24, cfg.sampling_ratio, cfg.drop_ratio, cfg.seed);
    let (tx, rx) = crossbeam::channel::unbounded();
    let session = JobSession::new(JobId(7)).with_events(tx);
    let result = run_job_process(
        &input,
        &spec,
        |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        cfg,
        &mut coordinator,
        &session,
    )
    .unwrap();
    drop(session);
    Run {
        result,
        events: rx.try_iter().collect(),
    }
}

/// Asserts two backends produced byte-identical event streams, outputs
/// and task accounting for one seed.
fn assert_runs_identical(seed: u64, a: &Run, b: &Run, pair: &str) {
    // Byte-identical lifecycle event streams.
    assert_eq!(
        a.events, b.events,
        "seed {seed} [{pair}]: JobEvent streams diverged between backends"
    );
    assert_eq!(
        format!("{:?}", a.events),
        format!("{:?}", b.events),
        "seed {seed} [{pair}]: rendered event streams diverged"
    );
    assert!(
        !a.events.is_empty(),
        "seed {seed} [{pair}]: the job must stream at least one wave"
    );

    // Identical reduce outputs.
    let mut oa = a.result.outputs.clone();
    let mut ob = b.result.outputs.clone();
    oa.sort();
    ob.sort();
    assert_eq!(oa, ob, "seed {seed} [{pair}]: outputs diverged");

    // Identical task-level accounting (everything but wall time).
    let (ma, mb) = (&a.result.metrics, &b.result.metrics);
    assert_eq!(ma.total_maps, mb.total_maps, "seed {seed} [{pair}]");
    assert_eq!(ma.executed_maps, mb.executed_maps, "seed {seed} [{pair}]");
    assert_eq!(ma.dropped_maps, mb.dropped_maps, "seed {seed} [{pair}]");
    assert_eq!(ma.killed_maps, mb.killed_maps, "seed {seed} [{pair}]");
    assert_eq!(ma.failed_maps, mb.failed_maps, "seed {seed} [{pair}]");
    assert_eq!(ma.retried_maps, mb.retried_maps, "seed {seed} [{pair}]");
    assert_eq!(
        ma.degraded_to_drop, mb.degraded_to_drop,
        "seed {seed} [{pair}]"
    );
    assert_eq!(ma.local_maps, mb.local_maps, "seed {seed} [{pair}]");
    assert_eq!(
        format!("{:?}", ma.task_outcomes),
        format!("{:?}", mb.task_outcomes),
        "seed {seed} [{pair}]: per-task terminal states diverged"
    );

    // Identical per-attempt sampling/shuffle accounting (timings
    // excluded — they are the only legitimately nondeterministic
    // fields).
    let key = |m: &approxhadoop_runtime::metrics::MapStats| {
        (
            m.task,
            m.total_records,
            m.sampled_records,
            m.emitted,
            m.shuffled,
        )
    };
    let sa: Vec<_> = ma.map_stats.iter().map(key).collect();
    let sb: Vec<_> = mb.map_stats.iter().map(key).collect();
    assert_eq!(
        sa, sb,
        "seed {seed} [{pair}]: map attempt statistics diverged"
    );
}

#[test]
fn event_streams_and_metrics_are_identical_across_backends() {
    for seed in [3u64, 17, 42] {
        let a = run_scoped_backend(seed);
        let b = run_pool_backend(seed);
        let c = run_process_backend(seed);
        assert_runs_identical(seed, &a, &b, "scoped vs pool");
        assert_runs_identical(seed, &a, &c, "scoped vs process");

        // The config exercised the interesting paths.
        let ma = &a.result.metrics;
        assert!(ma.dropped_maps > 0, "seed {seed}: drop path not exercised");
        assert!(
            ma.retried_maps > 0 || ma.degraded_to_drop > 0,
            "seed {seed}: fault path not exercised"
        );
    }
}

/// The tagged two-dataset differential's mapper: fact rows (dataset 0)
/// count one event each, dimension rows (any other dataset) contribute a
/// small deterministic weight, so the reduce output is sensitive to both
/// the split's dataset and the per-dataset sampling decisions. The
/// dataset comes from the task context, once per task.
///
/// Must stay byte-for-byte in sync with the copy registered as
/// `tagged-weigh` in the `approx-worker-rt` binary.
struct TagWeigh;

impl Mapper for TagWeigh {
    type Item = u32;
    type Key = u8;
    type Value = u64;
    type TaskState = DatasetId;

    fn begin_task(&self, ctx: &MapTaskContext) -> DatasetId {
        ctx.dataset
    }

    fn map(&self, dataset: &mut DatasetId, item: u32, emit: &mut dyn FnMut(u8, u64)) {
        match dataset.0 {
            0 => emit((item % 8) as u8, 1),
            _ => emit((item % 8) as u8, 1_000 + u64::from(item % 7)),
        }
    }
}

/// Two datasets with disjoint value ranges: 16 fact clusters of 40 rows
/// and 4 dimension clusters of 25 rows, flattened by [`TaggedSource`]
/// into one 20-split job (fact splits 0..16, dimension splits 16..20).
fn tagged_input() -> TaggedSource<u32> {
    let fact: Vec<Vec<u32>> = (0..16u32)
        .map(|b| (0..40).map(|i| b * 40 + i).collect())
        .collect();
    let dim: Vec<Vec<u32>> = (0..4u32)
        .map(|b| (0..25).map(|i| 9_000 + b * 25 + i).collect())
        .collect();
    TaggedSource::try_new(vec![
        Box::new(VecSource::new(fact)) as BoxedSource<u32>,
        Box::new(VecSource::new(dim)),
    ])
    .unwrap()
}

/// Fact side sampled and droppable, dimension side precise — the ratio
/// shape every join-style job uses.
fn tagged_ratios() -> [DatasetRatios; 2] {
    [
        DatasetRatios {
            sampling_ratio: 0.5,
            drop_ratio: 0.25,
        },
        DatasetRatios::precise(),
    ]
}

fn tagged_coordinator(seed: u64) -> FixedCoordinator {
    let config = JobConfig {
        datasets: tagged_ratios().to_vec(),
        seed,
        ..Default::default()
    };
    FixedCoordinator::for_job(&tagged_input().splits(), &config).unwrap()
}

fn run_tagged_scoped(seed: u64) -> Run {
    let input = tagged_input();
    let mapper = TagWeigh;
    let cfg = config(seed);
    let mut coordinator = tagged_coordinator(seed);
    let (tx, rx) = crossbeam::channel::unbounded();
    let session = JobSession::new(JobId(9)).with_events(tx);
    let result = run_job_with_session(
        &input,
        &mapper,
        |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        cfg,
        &mut coordinator,
        &session,
    )
    .unwrap();
    drop(session);
    Run {
        result,
        events: rx.try_iter().collect(),
    }
}

fn run_tagged_pool(seed: u64) -> Run {
    let cfg = config(seed);
    let mut coordinator = tagged_coordinator(seed);
    let pool = SlotPool::new(1);
    let tenant = pool.register_tenant(1.0);
    let (tx, rx) = crossbeam::channel::unbounded();
    let session = JobSession::new(JobId(9)).with_events(tx);
    let result = run_job_on_pool(
        Arc::new(tagged_input()),
        Arc::new(TagWeigh),
        |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        cfg,
        &mut coordinator,
        &pool,
        tenant,
        &session,
    )
    .unwrap();
    drop(session);
    pool.unregister_tenant(tenant);
    Run {
        result,
        events: rx.try_iter().collect(),
    }
}

fn run_tagged_process(seed: u64) -> Run {
    let input = tagged_input();
    let spec = WorkerSpec::new(worker_bin(), "tagged-weigh");
    let cfg = JobConfig {
        workers: 1,
        ..config(seed)
    };
    let mut coordinator = tagged_coordinator(seed);
    let (tx, rx) = crossbeam::channel::unbounded();
    let session = JobSession::new(JobId(9)).with_events(tx);
    let result = run_job_process(
        &input,
        &spec,
        |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        cfg,
        &mut coordinator,
        &session,
    )
    .unwrap();
    drop(session);
    Run {
        result,
        events: rx.try_iter().collect(),
    }
}

/// The multi-input differential: a tagged two-dataset job — sampled fact
/// side, precise dimension side, seeded io faults — must be
/// byte-identical across the scoped, pooled and process backends, and
/// the per-dataset ratios must actually bite (fact clusters dropped,
/// dimension clusters never).
#[test]
fn tagged_two_dataset_runs_are_identical_across_backends() {
    let n_fact = 16usize;
    for seed in [5u64, 19, 73] {
        let a = run_tagged_scoped(seed);
        let b = run_tagged_pool(seed);
        let c = run_tagged_process(seed);
        assert_runs_identical(seed, &a, &b, "tagged scoped vs pool");
        assert_runs_identical(seed, &a, &c, "tagged scoped vs process");

        let ma = &a.result.metrics;
        assert_eq!(ma.total_maps, 20, "seed {seed}: 16 fact + 4 dim splits");
        assert!(
            ma.dropped_maps > 0,
            "seed {seed}: fact-side drop path not exercised"
        );
        // Dropping is confined to the sampled dataset: the precise
        // dimension splits (global indices 16..20) are never dropped by
        // the coordinator; only fault degradation may take one out, and
        // then identically on every backend (checked above).
        for rec in &ma.task_outcomes {
            if rec.task.0 >= n_fact {
                assert_ne!(
                    rec.outcome,
                    approxhadoop_runtime::metrics::TaskOutcome::Dropped,
                    "seed {seed}: precise dimension split {} was drop-scheduled",
                    rec.task.0
                );
            }
        }
        // Fact-side sampling engaged: some attempt read fewer records
        // than its split holds.
        assert!(
            ma.map_stats
                .iter()
                .any(|m| m.sampled_records < m.total_records),
            "seed {seed}: sampling never engaged"
        );
    }
}

/// The same differential without faults, checking the common path and
/// that wave progress events agree even when the job is precise.
#[test]
fn precise_runs_agree_exactly() {
    let input = VecSource::new(blocks());
    let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| emit(0, *v as u64));
    let cfg = JobConfig {
        map_slots: 1,
        servers: 1,
        ..Default::default()
    };
    let mut c1 = FixedCoordinator::new(24, 1.0, 0.0, cfg.seed);
    let (tx1, rx1) = crossbeam::channel::unbounded();
    let s1 = JobSession::new(JobId(7)).with_events(tx1);
    let a = run_job_with_session(
        &input,
        &mapper,
        |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.len())),
        cfg.clone(),
        &mut c1,
        &s1,
    )
    .unwrap();
    drop(s1);

    let pool = SlotPool::new(1);
    let tenant = pool.register_tenant(1.0);
    let mut c2 = FixedCoordinator::new(24, 1.0, 0.0, cfg.seed);
    let (tx2, rx2) = crossbeam::channel::unbounded();
    let s2 = JobSession::new(JobId(7)).with_events(tx2);
    let b = run_job_on_pool(
        Arc::new(VecSource::new(blocks())),
        Arc::new(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
            emit(0, *v as u64)
        })),
        |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.len())),
        cfg,
        &mut c2,
        &pool,
        tenant,
        &s2,
    )
    .unwrap();
    drop(s2);

    let spec = WorkerSpec::new(worker_bin(), "sum-all");
    let mut c3 = FixedCoordinator::new(24, 1.0, 0.0, 0);
    let (tx3, rx3) = crossbeam::channel::unbounded();
    let s3 = JobSession::new(JobId(7)).with_events(tx3);
    let c = run_job_process(
        &VecSource::new(blocks()),
        &spec,
        |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.len())),
        JobConfig {
            workers: 1,
            map_slots: 1,
            servers: 1,
            ..Default::default()
        },
        &mut c3,
        &s3,
    )
    .unwrap();
    drop(s3);

    assert_eq!(a.outputs, vec![24 * 60]);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.outputs, c.outputs, "process backend outputs diverged");
    let ea: Vec<JobEvent> = rx1.try_iter().collect();
    let eb: Vec<JobEvent> = rx2.try_iter().collect();
    let ec: Vec<JobEvent> = rx3.try_iter().collect();
    assert_eq!(ea, eb, "precise-run event streams diverged");
    assert_eq!(ea, ec, "precise-run process event stream diverged");
    let last = ea.last().expect("at least one event");
    assert!(
        matches!(
            last,
            JobEvent::Wave {
                finished: 24,
                total: 24,
                ..
            }
        ),
        "both backends end with the trailing full-completion wave, got {last:?}"
    );
}
