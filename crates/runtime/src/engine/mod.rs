//! The MapReduce engine: one scheduler, pluggable execution backends.
//!
//! The engine is split along the paper's own seam (§3): *deciding* what
//! to run is the JobTracker's job, *running* it is the cluster's.
//!
//! * `scheduler` — the single `JobTracker` state machine owning every
//!   control-flow decision: dispatch order and data locality, task
//!   dropping, mid-flight kills, speculative execution, bounded retry
//!   with backoff and blacklisting, degrade-to-drop plus its error
//!   budget, wave accounting and event/telemetry emission.
//! * `executor` — the `Executor` trait, the one job driver every
//!   backend runs under, and the two in-process backends: scoped
//!   task-tracker threads (job-private simulated servers) and the
//!   shared [`crate::pool::SlotPool`] (service mode).
//! * `attempt` — the one body of a map attempt, shared by every
//!   backend, generic over its record source and its pair sink.
//! * `shuffle` — per-reducer channels, batch shipping, drop
//!   broadcasts and the one reduce-task body.
//! * `clock` — the time source scheduling decisions consult, swapped
//!   for a fake in deterministic tests and for simulated time by
//!   [`run_job_on_executor`] callers.
//!
//! The public entry points below are thin wrappers, one per backend, all
//! shaped `(job parts, config, &mut dyn Coordinator, &JobSession)`: they
//! validate the [`JobConfig`] and hand everything to the tracker. The
//! approximation policy is a value the caller builds; [`run_job`] is the
//! convenience that builds the fixed one.

mod attempt;
mod clock;
mod executor;
pub mod process;
mod scheduler;
mod shuffle;

pub use attempt::{RemoteSpan, WorkItem, WorkerMsg};
pub use clock::Clock;
pub use executor::{Executor, RecvOutcome};
pub use process::{run_job_process, WorkerSpec};

use std::path::PathBuf;
use std::sync::Arc;

use std::sync::mpsc::Sender;

use crate::control::{Coordinator, FixedCoordinator};
use crate::event::{JobId, JobSession};
use crate::fault::{FaultPlan, FaultPolicy};
use crate::input::{InputSource, SplitMeta};
use crate::mapper::Mapper;
use crate::metrics::JobMetrics;
use crate::pool::{SlotPool, TenantId};
use crate::reducer::{ReduceEvent, Reducer};
use crate::{Result, RuntimeError};

use clock::SystemClock;
use executor::{ReducePlacement, Topology};

/// Configuration of one MapReduce job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Concurrent map tasks across the cluster (total map slots).
    pub map_slots: usize,
    /// Simulated servers hosting the slots (slots are spread round-robin
    /// across servers; the scheduler prefers tasks whose input block has
    /// a replica on the assigned server — HDFS-style data locality).
    pub servers: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Within-block input sampling ratio applied by the default policy
    /// (`1.0` = precise).
    pub sampling_ratio: f64,
    /// Fraction of map tasks dropped by the default policy.
    pub drop_ratio: f64,
    /// Per-dataset approximation ratios for **multi-input** jobs:
    /// `datasets[d]` governs every split tagged
    /// [`DatasetId`](crate::input::DatasetId)` (d)`, overriding the
    /// job-wide `sampling_ratio`/`drop_ratio` pair. Empty (the default)
    /// means single-input behaviour: one dataset, the job-wide ratios —
    /// bit-identical to the pre-multi-input engine.
    pub datasets: Vec<crate::control::DatasetRatios>,
    /// Seed for task ordering, drop selection and per-task sampling.
    pub seed: u64,
    /// Enable speculative execution of stragglers.
    pub speculative: bool,
    /// A task is a straggler when it runs longer than
    /// `straggler_factor × mean completed-map time`. Must be finite and
    /// at least `1.0` (below that, every task is "slower than itself"
    /// and gets speculatively relaunched).
    pub straggler_factor: f64,
    /// Deterministic fault injection (testing/chaos); `None` injects
    /// nothing. DFS-level knobs additionally need the plan installed on
    /// the cluster via
    /// [`DfsCluster::set_read_faults`](approxhadoop_dfs::DfsCluster::set_read_faults).
    pub fault_plan: Option<FaultPlan>,
    /// How the tracker reacts to failed map attempts: bounded retry with
    /// backoff, server blacklisting, and degrade-to-drop. The default
    /// policy (no retries, no degrading) fails the job on the first
    /// exhausted task, matching the engine's historical behaviour.
    pub fault_policy: FaultPolicy,
    /// Optional observability context: when set, the tracker records
    /// registry metrics and a `job → wave → task` span tree into it.
    /// `None` (the default) runs fully uninstrumented.
    pub obs: Option<Arc<approxhadoop_obs::Obs>>,
    /// Enable map-side combining for mappers that provide a
    /// [`crate::combine::Combiner`] (on by default). Turning this off
    /// forces the raw per-pair shuffle path — useful for A/B perf
    /// comparisons; results are identical either way.
    pub combining: bool,
    /// Worker **processes** spawned by the process backend
    /// ([`run_job_process`]); each worker holds one map slot. Ignored by
    /// the in-process backends, which size themselves from `map_slots`.
    pub workers: usize,
    /// Per-attempt in-memory shuffle budget (bytes of encoded pairs) on
    /// the process backend. When an attempt's buffered map output
    /// exceeds this budget the worker spills a sorted run to disk and
    /// merges the runs back while shipping, so shuffles larger than RAM
    /// complete. Ignored by the in-process backends.
    pub shuffle_mem_bytes: usize,
    /// Directory for process-backend scratch files (input spool, spill
    /// runs). `None` (the default) uses the system temp directory.
    pub spill_dir: Option<PathBuf>,
    /// Directory for flight-recorder dumps: when the job fails (fatal
    /// error, reducer panic, degrade-budget breach) or a worker process
    /// crashes, the scheduler writes its recent-decision ring there as
    /// `flight-<job>-<reason>.json`. `None` falls back to the
    /// `APPROX_FLIGHT_DIR` environment variable; with neither set, no
    /// dump is written.
    pub flight_dir: Option<PathBuf>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            map_slots: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            servers: 1,
            reduce_tasks: 1,
            sampling_ratio: 1.0,
            drop_ratio: 0.0,
            datasets: Vec::new(),
            seed: 0,
            speculative: false,
            straggler_factor: 2.0,
            fault_plan: None,
            fault_policy: FaultPolicy::default(),
            obs: None,
            combining: true,
            workers: 2,
            shuffle_mem_bytes: 64 * 1024 * 1024,
            spill_dir: None,
            flight_dir: None,
        }
    }
}

impl JobConfig {
    /// Checks every invariant a job needs to run — positive slot/server/
    /// reducer counts, ratio ranges, a sane straggler factor, and the
    /// embedded fault plan/policy. Every entry point (engine, job
    /// service, CLI) funnels through this one check, so a config is
    /// rejected identically no matter how it arrives.
    pub fn validate(&self) -> Result<()> {
        if self.map_slots == 0 {
            return Err(RuntimeError::invalid("map_slots must be positive"));
        }
        if self.servers == 0 {
            return Err(RuntimeError::invalid("servers must be positive"));
        }
        if self.reduce_tasks == 0 {
            return Err(RuntimeError::invalid("reduce_tasks must be positive"));
        }
        if self.workers == 0 {
            return Err(RuntimeError::invalid("workers must be positive"));
        }
        if self.shuffle_mem_bytes == 0 {
            return Err(RuntimeError::invalid("shuffle_mem_bytes must be positive"));
        }
        if !(self.sampling_ratio > 0.0 && self.sampling_ratio <= 1.0) {
            return Err(RuntimeError::invalid(format!(
                "sampling_ratio must lie in (0, 1], got {}",
                self.sampling_ratio
            )));
        }
        if !(0.0..1.0).contains(&self.drop_ratio) {
            return Err(RuntimeError::invalid(format!(
                "drop_ratio must lie in [0, 1), got {}",
                self.drop_ratio
            )));
        }
        for (d, r) in self.datasets.iter().enumerate() {
            r.validate()
                .map_err(|e| RuntimeError::invalid(format!("dataset {d}: {e}")))?;
        }
        if !(self.straggler_factor.is_finite() && self.straggler_factor >= 1.0) {
            return Err(RuntimeError::invalid(format!(
                "straggler_factor must be finite and >= 1.0, got {}",
                self.straggler_factor
            )));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(RuntimeError::invalid)?;
        }
        self.fault_policy
            .validate()
            .map_err(RuntimeError::invalid)?;
        Ok(())
    }
}

/// The outcome of a job: reducer outputs (concatenated in reducer order)
/// plus execution metrics.
#[derive(Debug)]
pub struct JobResult<O> {
    /// All reducers' outputs.
    pub outputs: Vec<O>,
    /// Execution metrics.
    pub metrics: JobMetrics,
}

/// Runs a job with the fixed policy its configuration asks for
/// ([`FixedCoordinator::for_job`]: `config.sampling_ratio` /
/// `config.drop_ratio`, or `config.datasets` for a multi-input job) on
/// the scoped backend, under a fresh [`JobSession`] — the paper's
/// "user-specified dropping/sampling ratios" mode.
pub fn run_job<S, M, R, FR>(
    input: &S,
    mapper: &M,
    make_reducer: FR,
    config: JobConfig,
) -> Result<JobResult<R::Output>>
where
    S: InputSource,
    M: Mapper<Item = S::Item>,
    R: Reducer<Key = M::Key, Value = M::Value>,
    FR: Fn(usize) -> R + Sync,
{
    config.validate()?;
    let mut coordinator = FixedCoordinator::for_job(&input.splits(), &config)?;
    let session = JobSession::new(JobId(0));
    run_job_with_session(
        input,
        mapper,
        make_reducer,
        config,
        &mut coordinator,
        &session,
    )
}

/// Runs a job on the scoped backend — job-private task-tracker threads —
/// under an explicit [`Coordinator`] policy and a caller-owned
/// [`JobSession`]. The session adds cancellation (the job fails with
/// [`RuntimeError::Cancelled`]), an optional deadline (remaining maps are
/// dropped and the job completes **approximately**, flagged via
/// [`JobMetrics::deadline_hit`]) and a stream of [`JobEvent`] progress
/// events; a caller that wants none of them passes a fresh
/// `JobSession::new(JobId(0))`.
///
/// [`JobEvent`]: crate::event::JobEvent
pub fn run_job_with_session<S, M, R, FR>(
    input: &S,
    mapper: &M,
    make_reducer: FR,
    config: JobConfig,
    coordinator: &mut dyn Coordinator,
    session: &JobSession,
) -> Result<JobResult<R::Output>>
where
    S: InputSource,
    M: Mapper<Item = S::Item>,
    R: Reducer<Key = M::Key, Value = M::Value>,
    FR: Fn(usize) -> R + Sync,
{
    config.validate()?;
    executor::run_scoped(
        input,
        mapper,
        make_reducer,
        config,
        coordinator,
        session,
        &SystemClock,
    )
}

/// Runs a job on a shared [`SlotPool`] instead of job-private
/// task-tracker threads — the service-mode entry point.
///
/// Same coordinator and session semantics as [`run_job_with_session`],
/// with these differences:
///
/// * map attempts execute on `pool` slots shared with other concurrent
///   jobs, queued under `tenant` for weighted fair sharing; the job's
///   own `config.map_slots` caps *its* attempts in flight, while the
///   pool caps how many actually run at once across all jobs;
/// * simulated data locality and speculative execution do not apply —
///   the pool is one shared cluster, not per-job virtual servers.
///
/// `input` and `mapper` are `Arc`s because attempts outlive the borrow
/// a scoped thread could give them: they run on pool workers owned by
/// the service, not by this call.
#[allow(clippy::too_many_arguments)] // the service-facing surface: job + policy + pool + session
pub fn run_job_on_pool<S, M, R, FR>(
    input: Arc<S>,
    mapper: Arc<M>,
    make_reducer: FR,
    config: JobConfig,
    coordinator: &mut dyn Coordinator,
    pool: &SlotPool,
    tenant: TenantId,
    session: &JobSession,
) -> Result<JobResult<R::Output>>
where
    S: InputSource + 'static,
    M: Mapper<Item = S::Item> + 'static,
    R: Reducer<Key = M::Key, Value = M::Value> + Send + 'static,
    R::Output: Send + 'static,
    FR: Fn(usize) -> R,
{
    config.validate()?;
    executor::run_pooled(
        input,
        mapper,
        make_reducer,
        config,
        coordinator,
        pool,
        tenant,
        session,
        &SystemClock,
    )
}

/// Runs a job over `splits` on a caller-supplied [`Executor`] and
/// [`Clock`] — the entry point for backends outside this crate, such as
/// a discrete-event cluster simulator.
///
/// The engine's one `JobTracker` schedules over the scoped backend's
/// topology (`config.servers` servers sharing `config.map_slots` slots);
/// `build` receives the reducer senders and returns the executor, which
/// owns them from then on. The reduce tasks run inline on the calling
/// thread: each `recv`, `try_recv` and `notify_drop` of the executor
/// absorbs whatever it sent the reducers before the tracker sees its
/// result. An executor that does its work on the calling thread is
/// therefore deterministic by construction: the bound monitor and the
/// coordinator never depend on thread timing. A reducer panic fails the
/// job with [`RuntimeError::TaskPanicked`], as on the other backends.
pub fn run_job_on_executor<R, E>(
    splits: Vec<SplitMeta>,
    make_reducer: impl Fn(usize) -> R,
    config: JobConfig,
    coordinator: &mut dyn Coordinator,
    session: &JobSession,
    clock: &dyn Clock,
    build: impl FnOnce(Vec<Sender<ReduceEvent<R::Key, R::Value>>>) -> E,
) -> Result<JobResult<R::Output>>
where
    R: Reducer,
    E: Executor,
{
    config.validate()?;
    executor::drive(
        splits,
        make_reducer,
        &config,
        Topology::scoped(&config),
        ReducePlacement::Inline,
        coordinator,
        session,
        clock,
        |_, reducer_txs, _| Ok(build(reducer_txs)),
    )
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::collections::VecDeque;
    use std::sync::mpsc::Sender;
    use std::time::Duration;

    use super::clock::SystemClock;
    use super::{
        run_job_on_executor, shuffle, Executor, JobConfig, JobResult, RecvOutcome, WorkItem,
        WorkerMsg,
    };
    use crate::control::FixedCoordinator;
    use crate::event::{JobId, JobSession};
    use crate::input::SplitMeta;
    use crate::mapper::FnMapper;
    use crate::metrics::MapStats;
    use crate::reducer::{GroupedReducer, MapOutputMeta, ReduceEvent, Reducer};
    use crate::types::{Key, Value};
    use crate::Result;

    pub(crate) fn word_blocks() -> Vec<Vec<String>> {
        vec![
            vec!["a b a".into(), "c".into()],
            vec!["b c".into(), "a a".into()],
            vec!["c c c".into()],
        ]
    }

    #[allow(clippy::type_complexity)] // test helper returning the full generic
    pub(crate) fn word_mapper(
    ) -> FnMapper<String, String, u64, impl Fn(&String, &mut dyn FnMut(String, u64)) + Send + Sync>
    {
        FnMapper::new(|line: &String, emit: &mut dyn FnMut(String, u64)| {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1);
            }
        })
    }

    #[allow(clippy::type_complexity)] // test helper returning the full generic
    pub(crate) fn sum_reducer(
    ) -> GroupedReducer<String, u64, impl FnMut(&String, &[u64]) -> Option<(String, u64)> + Send>
    {
        GroupedReducer::new(|k: &String, vs: &[u64]| Some((k.clone(), vs.iter().sum::<u64>())))
    }

    /// Completes each attempt on the calling thread as it is dispatched,
    /// shipping `pair` to every reducer: completions come back in
    /// dispatch (FIFO) order, one record per map.
    pub(crate) struct InstantExecutor<K: Key, V: Value> {
        reducer_txs: Vec<Sender<ReduceEvent<K, V>>>,
        pair: (K, V),
        done: VecDeque<WorkerMsg>,
    }

    impl<K: Key, V: Value> Executor for InstantExecutor<K, V> {
        fn dispatch(&mut self, _server: usize, work: WorkItem) -> bool {
            let stats = MapStats {
                task: work.task,
                dataset: work.dataset,
                total_records: 1,
                sampled_records: 1,
                emitted: 1,
                shuffled: 1,
                duration_secs: 0.0,
                read_secs: 0.0,
            };
            for tx in &self.reducer_txs {
                let _ = tx.send(ReduceEvent::MapOutput {
                    meta: MapOutputMeta::from(&stats),
                    pairs: vec![self.pair.clone()],
                });
            }
            self.done.push_back(WorkerMsg::Completed {
                stats,
                attempt: work.attempt,
                spans: Vec::new(),
            });
            true
        }

        fn recv(&mut self, _timeout: Duration) -> RecvOutcome {
            self.done
                .pop_front()
                .map_or(RecvOutcome::Closed, RecvOutcome::Msg)
        }

        fn notify_drop(&mut self, task: usize) {
            shuffle::broadcast_drop(&self.reducer_txs, task);
        }
    }

    /// Runs a precise job over `splits` on an [`InstantExecutor`] shipping
    /// `pair` (job 0, system clock). The reducers run inline on the
    /// calling thread, so the outcome is exact under any machine load.
    pub(crate) fn run_instant<R: Reducer>(
        splits: Vec<SplitMeta>,
        make_reducer: impl Fn(usize) -> R,
        config: JobConfig,
        pair: (R::Key, R::Value),
    ) -> Result<JobResult<R::Output>> {
        let mut coordinator = FixedCoordinator::new(splits.len(), 1.0, 0.0, config.seed);
        run_job_on_executor(
            splits,
            make_reducer,
            config,
            &mut coordinator,
            &JobSession::new(JobId(0)),
            &SystemClock,
            |reducer_txs| InstantExecutor {
                reducer_txs,
                pair,
                done: VecDeque::new(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{sum_reducer, word_blocks, word_mapper};
    use super::*;
    use crate::fault::FaultPlan;
    use crate::input::VecSource;
    use crate::mapper::FnMapper;
    use crate::reducer::GroupedReducer;

    #[test]
    fn precise_word_count() {
        let input = VecSource::new(word_blocks());
        let mapper = word_mapper();
        let result = run_job(&input, &mapper, |_| sum_reducer(), JobConfig::default()).unwrap();
        let mut out = result.outputs;
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 4),
                ("b".to_string(), 2),
                ("c".to_string(), 5)
            ]
        );
        assert_eq!(result.metrics.executed_maps, 3);
        assert_eq!(result.metrics.dropped_maps, 0);
        assert_eq!(result.metrics.total_records, 5);
        assert_eq!(result.metrics.sampled_records, 5);
    }

    #[test]
    fn results_are_deterministic_for_fixed_seed() {
        let run = |seed| {
            let input = VecSource::new(word_blocks());
            let mapper = word_mapper();
            let config = JobConfig {
                seed,
                reduce_tasks: 2,
                sampling_ratio: 0.5,
                ..Default::default()
            };
            let mut out = run_job(&input, &mapper, |_| sum_reducer(), config)
                .unwrap()
                .outputs;
            out.sort();
            out
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn drop_ratio_drops_exact_count() {
        let blocks: Vec<Vec<u32>> = (0..20).map(|i| vec![i, i, i]).collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|item: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *item));
        let config = JobConfig {
            drop_ratio: 0.25,
            ..Default::default()
        };
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_k: &u8, vs: &[u32]| Some(vs.len())),
            config,
        )
        .unwrap();
        assert_eq!(result.metrics.dropped_maps, 5);
        assert_eq!(result.metrics.executed_maps, 15);
        assert_eq!(result.outputs, vec![45]); // 15 maps × 3 items
    }

    #[test]
    fn sampling_ratio_reduces_processed_records() {
        let blocks: Vec<Vec<u32>> = (0..4).map(|_| (0..100).collect()).collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|item: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *item));
        let config = JobConfig {
            sampling_ratio: 0.1,
            ..Default::default()
        };
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_k: &u8, vs: &[u32]| Some(vs.len())),
            config,
        )
        .unwrap();
        assert_eq!(result.metrics.total_records, 400);
        assert_eq!(result.metrics.sampled_records, 40);
        assert_eq!(result.outputs, vec![40]);
    }

    #[test]
    fn single_block_single_slot() {
        let input = VecSource::new(vec![vec![1u32, 2, 3]]);
        let mapper = FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *i));
        let config = JobConfig {
            map_slots: 1,
            ..Default::default()
        };
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.iter().sum::<u32>())),
            config,
        )
        .unwrap();
        assert_eq!(result.outputs, vec![6]);
    }

    // ---- JobConfig::validate: one unit test per rejection ----

    fn rejects(config: JobConfig, what: &str) {
        let err = config.validate().expect_err(what);
        assert!(
            matches!(err, RuntimeError::InvalidJob { .. }),
            "{what}: unexpected error {err:?}"
        );
    }

    #[test]
    fn validate_rejects_zero_map_slots() {
        rejects(
            JobConfig {
                map_slots: 0,
                ..Default::default()
            },
            "map_slots = 0",
        );
    }

    #[test]
    fn validate_rejects_zero_servers() {
        rejects(
            JobConfig {
                servers: 0,
                ..Default::default()
            },
            "servers = 0",
        );
    }

    #[test]
    fn validate_rejects_zero_reduce_tasks() {
        rejects(
            JobConfig {
                reduce_tasks: 0,
                ..Default::default()
            },
            "reduce_tasks = 0",
        );
    }

    #[test]
    fn validate_rejects_zero_workers() {
        rejects(
            JobConfig {
                workers: 0,
                ..Default::default()
            },
            "workers = 0",
        );
    }

    #[test]
    fn validate_rejects_zero_shuffle_mem() {
        rejects(
            JobConfig {
                shuffle_mem_bytes: 0,
                ..Default::default()
            },
            "shuffle_mem_bytes = 0",
        );
    }

    #[test]
    fn validate_rejects_bad_sampling_ratios() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            rejects(
                JobConfig {
                    sampling_ratio: bad,
                    ..Default::default()
                },
                "bad sampling_ratio",
            );
        }
        assert!(JobConfig {
            sampling_ratio: 1.0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn validate_rejects_bad_drop_ratios() {
        for bad in [-0.1, 1.0, 1.5, f64::NAN] {
            rejects(
                JobConfig {
                    drop_ratio: bad,
                    ..Default::default()
                },
                "bad drop_ratio",
            );
        }
        assert!(JobConfig {
            drop_ratio: 0.0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn validate_rejects_bad_straggler_factor() {
        for bad in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            rejects(
                JobConfig {
                    straggler_factor: bad,
                    ..Default::default()
                },
                "bad straggler_factor",
            );
        }
        assert!(JobConfig {
            straggler_factor: 1.0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn validate_rejects_invalid_fault_plan() {
        rejects(
            JobConfig {
                fault_plan: Some(FaultPlan {
                    map_panic_prob: 1.5,
                    ..Default::default()
                }),
                ..Default::default()
            },
            "map_panic_prob out of range",
        );
    }

    #[test]
    fn validate_rejects_invalid_fault_policy() {
        let policy = crate::fault::FaultPolicy {
            max_degraded_bound: Some(-0.2),
            ..Default::default()
        };
        rejects(
            JobConfig {
                fault_policy: policy,
                ..Default::default()
            },
            "negative max_degraded_bound",
        );
    }

    // ---- entry points reject invalid configs identically ----

    #[test]
    fn zero_slots_rejected() {
        let input = VecSource::new(vec![vec![1u32]]);
        let mapper = FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *i));
        let config = JobConfig {
            map_slots: 0,
            ..Default::default()
        };
        assert!(run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, _: &[u32]| Some(())),
            config
        )
        .is_err());
    }

    #[test]
    fn zero_servers_rejected() {
        let input = VecSource::new(vec![vec![1u32]]);
        let mapper = FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *i));
        let config = JobConfig {
            servers: 0,
            ..Default::default()
        };
        assert!(run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, _: &[u32]| Some(())),
            config
        )
        .is_err());
    }

    #[test]
    fn bad_ratios_rejected() {
        let input = VecSource::new(vec![vec![1u32]]);
        let mapper = FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *i));
        for (sampling, drop) in [(0.0, 0.0), (1.5, 0.0), (1.0, 1.0), (1.0, -0.1)] {
            let config = JobConfig {
                sampling_ratio: sampling,
                drop_ratio: drop,
                ..Default::default()
            };
            assert!(
                run_job(
                    &input,
                    &mapper,
                    |_| GroupedReducer::new(|_: &u8, _: &[u32]| Some(())),
                    config
                )
                .is_err(),
                "sampling={sampling} drop={drop} should be rejected"
            );
        }
    }
}
