//! Execution backends: *how* map attempts run, with zero scheduling
//! authority — and the one job driver every backend runs under.
//!
//! An [`Executor`] owns the worker side of a job — threads or pool
//! slots, the shuffle senders, the worker message channel — and exposes
//! exactly four verbs to the engine's `JobTracker`: dispatch
//! an attempt, receive outcomes, and broadcast drop notifications. All
//! decisions (what to run, where, when to kill) stay in the tracker.
//!
//! This module owns `drive`, the only job driver: input check,
//! `JobControl`, reducer channels and reduce tasks, the tracker loop,
//! executor shutdown, reducer finish and `finish`. A backend is a
//! `Topology` plus a closure that builds its executor inside the
//! driver's `std::thread::scope`. The live backends run each reduce
//! task on its own thread, so reduce overlaps map work; a
//! caller-supplied executor (`run_job_on_executor`, e.g. the cluster
//! simulator) does no work off the tracker thread, so its reduce tasks
//! run inline there instead, and its runs are deterministic by
//! construction. The two in-process
//! backends live here and share one executor type: `run_scoped` spawns
//! job-private task-tracker threads spread over simulated servers (data
//! locality, speculation and blacklisting apply); `run_pooled` submits
//! attempts to a shared [`SlotPool`] (one virtual server; the pool
//! arbitrates slots across jobs). The process backend's closure is in
//! [`super::process`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::control::{Coordinator, JobControl};
use crate::event::JobSession;
use crate::input::{InputSource, SplitMeta};
use crate::mapper::Mapper;
use crate::pool::{SlotPool, TenantId};
use crate::reducer::{ReduceEvent, Reducer};
use crate::types::{Key, Value};
use crate::{Result, RuntimeError};

use super::attempt::{run_map_attempt, WorkItem, WorkerMsg};
use super::clock::Clock;
use super::scheduler::JobTracker;
use super::shuffle::{self, ReduceTask};
use super::{JobConfig, JobResult};

/// The slot layout a tracker schedules over.
pub(crate) struct Topology {
    /// Map slots per server (`capacity.len()` servers).
    pub(crate) capacity: Vec<usize>,
    /// Whether server identity is meaningful: placement-aware topologies
    /// get data locality, speculative duplicates, avoid-server retries
    /// and per-server blacklisting; a placement-free topology (the
    /// shared pool) is a single anonymous server.
    pub(crate) placement: bool,
}

impl Topology {
    /// Job-private servers with slots spread round-robin — the scoped
    /// backend's simulated cluster.
    pub(crate) fn scoped(config: &JobConfig) -> Self {
        let servers = config.servers.min(config.map_slots).max(1);
        let mut capacity = vec![0usize; servers];
        for w in 0..config.map_slots {
            capacity[w % servers] += 1;
        }
        Topology {
            capacity,
            placement: true,
        }
    }

    /// One virtual server holding the job's whole in-flight cap — the
    /// pool backend (the shared pool arbitrates real slots).
    pub(crate) fn pooled(config: &JobConfig) -> Self {
        Topology {
            capacity: vec![config.map_slots],
            placement: false,
        }
    }

    pub(crate) fn servers(&self) -> usize {
        self.capacity.len()
    }
}

/// Result of waiting on an executor for worker events.
pub enum RecvOutcome {
    /// One worker message arrived.
    Msg(WorkerMsg),
    /// Nothing arrived within the timeout.
    Timeout,
    /// Every worker-side sender is gone: no outcome can ever arrive.
    Closed,
}

/// A backend that runs attempts and reports outcomes — nothing more.
///
/// The engine's `JobTracker` owns every scheduling decision (what to run,
/// where, when to kill, when to retry); an `Executor` owns only the
/// worker side of a job — threads, pool slots or worker processes, the
/// shuffle senders, the message channel — and exposes exactly these
/// four verbs. Three backends implement it: scoped task-tracker
/// threads, the shared [`SlotPool`], and multi-process workers
/// ([`super::process`]).
///
/// The contract every implementation must honour:
///
/// * `dispatch` never blocks on attempt *execution* — it enqueues the
///   work and returns; `false` means the backend can no longer run
///   anything (the tracker fails the job).
/// * Every dispatched attempt is eventually terminated by exactly one
///   [`WorkerMsg`] delivered through `recv`/`try_recv`, even if the
///   worker running it dies (the process backend synthesizes a
///   [`RuntimeError::WorkerLost`] failure).
/// * `notify_drop` forwards a drop decision to every reduce task so the
///   multi-stage estimators can widen their confidence intervals
///   (Eq. 1–3 of the paper) — backends must deliver it exactly once per
///   dropped task.
///
/// All methods are called from the tracker thread only; implementations
/// need not be re-entrant.
///
/// [`SlotPool`]: crate::pool::SlotPool
pub trait Executor {
    /// Hands an attempt to `server`. Returns `false` if the backend
    /// rejected it (e.g. the shared pool shut down mid-job).
    fn dispatch(&mut self, server: usize, work: WorkItem) -> bool;
    /// Blocks up to `timeout` for one worker message.
    fn recv(&mut self, timeout: Duration) -> RecvOutcome;
    /// Drains one already-queued worker message, if any.
    fn try_recv(&mut self) -> Option<WorkerMsg> {
        match self.recv(Duration::ZERO) {
            RecvOutcome::Msg(msg) => Some(msg),
            _ => None,
        }
    }
    /// Tells every reducer that `task` will never deliver output.
    fn notify_drop(&mut self, task: usize);
}

/// The in-process backends' executor: attempts leave through `dispatch`
/// (a send on the server's task channel, or a submission to the shared
/// [`SlotPool`]), outcomes come back on one message channel.
struct LocalExecutor<K: Key, V: Value, D> {
    dispatch: D,
    msg_rx: Receiver<WorkerMsg>,
    reducer_txs: Vec<Sender<ReduceEvent<K, V>>>,
}

impl<K: Key, V: Value, D: FnMut(usize, WorkItem) -> bool> Executor for LocalExecutor<K, V, D> {
    fn dispatch(&mut self, server: usize, work: WorkItem) -> bool {
        (self.dispatch)(server, work)
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome {
        match self.msg_rx.recv_timeout(timeout) {
            Ok(msg) => RecvOutcome::Msg(msg),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::Timeout,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    fn notify_drop(&mut self, task: usize) {
        shuffle::broadcast_drop(&self.reducer_txs, task);
    }
}

/// Where a job's reduce tasks run.
pub(crate) enum ReducePlacement {
    /// One scoped thread per task, absorbing events as they arrive, so
    /// reduce overlaps map work on the live backends.
    Threads,
    /// On the driving thread, fed through [`Reducing`].
    Inline,
}

/// The executor the tracker drives: the backend's own, plus the inline
/// reduce tasks (none under [`ReducePlacement::Threads`]), each with the
/// channel it drains. Every `recv`, `try_recv` and `notify_drop` drains
/// those channels before it returns, so an event is absorbed before the
/// tracker sees the message that caused it.
struct Reducing<E, R: Reducer> {
    exec: E,
    #[allow(clippy::type_complexity)] // a (channel, task) pair per reducer
    inline: Vec<(Receiver<ReduceEvent<R::Key, R::Value>>, ReduceTask<R>)>,
    panicked: bool,
}

impl<E, R: Reducer> Reducing<E, R> {
    /// Absorbs every queued event; with `finish`, then finalises the
    /// inline tasks in partition order. This is the one catch for inline
    /// reduction: a reducer panic drops the tasks and their channels, as
    /// a dying reducer thread would, and is reported like one.
    fn absorb(&mut self, finish: bool) -> Vec<R::Output> {
        let inline = &mut self.inline;
        catch_unwind(AssertUnwindSafe(|| {
            for (rx, task) in inline.iter_mut() {
                rx.try_iter().for_each(|event| task.absorb(event));
            }
            let finished = if finish {
                std::mem::take(inline)
            } else {
                Vec::new()
            };
            finished
                .into_iter()
                .flat_map(|(_, task)| task.finish())
                .collect()
        }))
        .unwrap_or_else(|_| {
            self.inline.clear();
            self.panicked = true;
            Vec::new()
        })
    }
}

impl<E: Executor, R: Reducer> Executor for Reducing<E, R> {
    fn dispatch(&mut self, server: usize, work: WorkItem) -> bool {
        self.exec.dispatch(server, work)
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome {
        let outcome = self.exec.recv(timeout);
        self.absorb(false);
        outcome
    }

    fn try_recv(&mut self) -> Option<WorkerMsg> {
        let msg = self.exec.try_recv();
        self.absorb(false);
        msg
    }

    fn notify_drop(&mut self, task: usize) {
        self.exec.notify_drop(task);
        self.absorb(false);
    }
}

/// The one job driver, shared by every backend: rejects empty inputs,
/// builds the reduce tasks and places them, lets the backend `build` its
/// [`Executor`] (handing it the scope to spawn workers into and the
/// reducer senders it owns from then on), drives the [`JobTracker`]
/// against it, shuts the executor down, finishes the reducers and
/// finalises.
///
/// Reducers are constructed on the calling thread. Under
/// [`ReducePlacement::Threads`] each moves into a scoped thread; a
/// `build` that fails has dropped the senders it was given, so the
/// reducers drain out and the scope joins them before the error returns.
/// Under [`ReducePlacement::Inline`] the calling thread owns and feeds
/// them. Either way a reducer panic fails the job with
/// [`RuntimeError::TaskPanicked`] once the tracker loop is over.
///
/// Everything runs inside `catch_unwind` around `std::thread::scope`: a
/// panic on the driving thread (the tracker or its coordinator), or in a
/// worker thread nobody joins, waits for every scoped thread to finish
/// and then fails the job with `TaskPanicked { what: "task tracker" }`.
#[allow(clippy::too_many_arguments)] // internal driver: the full job context
pub(crate) fn drive<'env, R, E>(
    splits: Vec<SplitMeta>,
    make_reducer: impl Fn(usize) -> R,
    config: &JobConfig,
    topology: Topology,
    placement: ReducePlacement,
    coordinator: &mut dyn Coordinator,
    session: &JobSession,
    clock: &dyn Clock,
    build: impl for<'scope> FnOnce(
        &'scope Scope<'scope, 'env>,
        Vec<Sender<ReduceEvent<R::Key, R::Value>>>,
        &[SplitMeta],
    ) -> Result<E>,
) -> Result<JobResult<R::Output>>
where
    R: Reducer + 'env,
    E: Executor,
{
    let total = splits.len();
    if total == 0 {
        return Err(RuntimeError::invalid("input has no splits"));
    }
    let start = Instant::now();
    let control = Arc::new(JobControl::new(config.reduce_tasks));
    let (reducer_txs, reducer_rxs) = shuffle::reducer_channels(config.reduce_tasks);
    let label = session.job.to_string();
    let job = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|s| {
            let (mut threads, mut inline) = (Vec::new(), Vec::new());
            for (r, rx) in reducer_rxs.into_iter().enumerate() {
                let mut task = ReduceTask::new(make_reducer(r), r, total, Arc::clone(&control));
                match placement {
                    ReducePlacement::Inline => inline.push((rx, task)),
                    ReducePlacement::Threads => threads.push(s.spawn(move || {
                        rx.iter().for_each(|event| task.absorb(event));
                        task.finish()
                    })),
                }
            }
            let mut executor = Reducing {
                exec: build(s, reducer_txs, &splits)?,
                inline,
                panicked: false,
            };
            let mut tracker = JobTracker::new(
                config,
                &splits,
                &control,
                session,
                clock,
                topology,
                start,
                session.job.0 + 2,
                &label,
            );
            tracker.run_loop(&mut executor, coordinator);
            // Every event was absorbed before the tracker saw its message,
            // so the inline tasks can finish while the executor lives.
            let mut outputs = executor.absorb(true);
            let mut panicked = executor.panicked;

            // Shut down: the executor stops its workers (closing the task
            // channels, or reaping the worker processes) and releases the
            // last reducer senders, so the reducer threads can finish.
            drop(executor);
            for h in threads {
                match h.join() {
                    Ok(out) => outputs.extend(out),
                    Err(_) => panicked = true,
                }
            }
            tracker
                .finish(panicked)
                .map(|metrics| JobResult { outputs, metrics })
        })
    }));
    job.unwrap_or_else(|_| {
        Err(RuntimeError::TaskPanicked {
            what: "task tracker".into(),
        })
    })
}

/// The scoped backend: job-private task-tracker threads spread over
/// simulated servers, one task channel per server.
pub(crate) fn run_scoped<S, M, R, FR>(
    input: &S,
    mapper: &M,
    make_reducer: FR,
    config: JobConfig,
    coordinator: &mut dyn Coordinator,
    session: &JobSession,
    clock: &dyn Clock,
) -> Result<JobResult<R::Output>>
where
    S: InputSource,
    M: Mapper<Item = S::Item>,
    R: Reducer<Key = M::Key, Value = M::Value>,
    FR: Fn(usize) -> R,
{
    let topology = Topology::scoped(&config);
    let servers = topology.servers();
    let map_slots = config.map_slots;
    drive(
        input.splits(),
        make_reducer,
        &config,
        topology,
        ReducePlacement::Threads,
        coordinator,
        session,
        clock,
        |s, reducer_txs, _| {
            // One task queue per server, shared by its slot threads: each
            // takes the lock only to receive one item, and exits once the
            // executor (the queue's one sender) is gone.
            let (task_txs, task_rxs): (Vec<_>, Vec<_>) = (0..servers)
                .map(|_| {
                    let (tx, rx) = channel::<WorkItem>();
                    (tx, Arc::new(Mutex::new(rx)))
                })
                .unzip();
            let (msg_tx, msg_rx) = channel::<WorkerMsg>();
            for w in 0..map_slots {
                let task_rx = Arc::clone(&task_rxs[w % servers]);
                let msg_tx = msg_tx.clone();
                let reducer_txs = reducer_txs.clone();
                s.spawn(move || {
                    // One arena per task-tracker thread, reused across every
                    // attempt it runs: combine tables keep their hash-table
                    // allocations, raw pair vectors start pre-sized.
                    let mut bufs = shuffle::MapBuffers::new();
                    let next = || task_rx.lock().recv().ok();
                    while let Some(work) = next() {
                        run_map_attempt(input, mapper, &work, &reducer_txs, &msg_tx, &mut bufs);
                    }
                });
            }
            Ok(LocalExecutor {
                dispatch: move |server: usize, work| {
                    let _ = task_txs[server].send(work);
                    true
                },
                msg_rx,
                reducer_txs,
            })
        },
    )
}

/// The pool backend: each attempt is boxed and queued on the shared
/// [`SlotPool`] under the job's tenant; the pool decides when it runs.
#[allow(clippy::too_many_arguments)] // internal driver: job + pool + session
pub(crate) fn run_pooled<S, M, R, FR>(
    input: Arc<S>,
    mapper: Arc<M>,
    make_reducer: FR,
    config: JobConfig,
    coordinator: &mut dyn Coordinator,
    pool: &SlotPool,
    tenant: TenantId,
    session: &JobSession,
    clock: &dyn Clock,
) -> Result<JobResult<R::Output>>
where
    S: InputSource + 'static,
    M: Mapper<Item = S::Item> + 'static,
    R: Reducer<Key = M::Key, Value = M::Value>,
    FR: Fn(usize) -> R,
{
    drive(
        input.splits(),
        make_reducer,
        &config,
        Topology::pooled(&config),
        ReducePlacement::Threads,
        coordinator,
        session,
        clock,
        |_, reducer_txs, _| {
            // The executor keeps one `msg_tx`, so its channel never
            // closes; the tracker exits once every submitted attempt has
            // reported, when no closure still holds a reducer sender.
            let (msg_tx, msg_rx) = channel::<WorkerMsg>();
            let attempt_txs = reducer_txs.clone();
            Ok(LocalExecutor {
                dispatch: move |_server, work| {
                    let input = Arc::clone(&input);
                    let mapper = Arc::clone(&mapper);
                    let attempt_txs = attempt_txs.clone();
                    let msg_tx = msg_tx.clone();
                    pool.submit(
                        tenant,
                        Box::new(move || {
                            // Pool slots are shared across jobs with different
                            // key/value types, so the buffers live per attempt.
                            let mut bufs = shuffle::MapBuffers::new();
                            run_map_attempt(
                                &*input,
                                &*mapper,
                                &work,
                                &attempt_txs,
                                &msg_tx,
                                &mut bufs,
                            );
                        }),
                    )
                },
                msg_rx,
                reducer_txs,
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use super::super::clock::FakeClock;
    use super::super::testutil::{run_instant, sum_reducer, word_blocks, word_mapper};
    use super::super::{run_job, run_job_on_pool, run_job_with_session, JobConfig, JobResult};
    use super::run_pooled;
    use crate::control::{Coordinator, FixedCoordinator, JobControl, MapDirective};
    use crate::event::{JobEvent, JobId, JobSession};
    use crate::input::{InputSource, SplitMeta, VecSource};
    use crate::mapper::FnMapper;
    use crate::metrics::MapStats;
    use crate::pool::SlotPool;
    use crate::reducer::{GroupedReducer, MapOutputMeta, ReduceContext, Reducer};
    use crate::types::TaskId;
    use crate::{Result, RuntimeError};

    #[test]
    fn pool_word_count_matches_scoped_engine() {
        let config = JobConfig {
            map_slots: 3,
            reduce_tasks: 2,
            ..Default::default()
        };
        let scoped = run_job(
            &VecSource::new(word_blocks()),
            &word_mapper(),
            |_| sum_reducer(),
            config.clone(),
        )
        .unwrap();

        let pool = SlotPool::new(3);
        let tenant = pool.register_tenant(1.0);
        let total = word_blocks().len();
        let mut coordinator = FixedCoordinator::new(total, 1.0, 0.0, config.seed);
        let session = JobSession::new(JobId(1));
        let pooled = run_job_on_pool(
            Arc::new(VecSource::new(word_blocks())),
            Arc::new(word_mapper()),
            |_| sum_reducer(),
            config,
            &mut coordinator,
            &pool,
            tenant,
            &session,
        )
        .unwrap();

        let mut a = scoped.outputs;
        let mut b = pooled.outputs;
        a.sort();
        b.sort();
        assert_eq!(a, b, "pool and scoped backends must agree exactly");
        assert_eq!(scoped.metrics.executed_maps, pooled.metrics.executed_maps);
    }

    #[test]
    fn pool_jobs_share_slots_concurrently() {
        let pool = SlotPool::new(4);
        let mut handles = Vec::new();
        for j in 0..3u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let tenant = pool.register_tenant(1.0);
                let blocks: Vec<Vec<u32>> = (0..10).map(|_| (0..40).collect()).collect();
                let mut coordinator = FixedCoordinator::new(10, 1.0, 0.0, j);
                let session = JobSession::new(JobId(j + 1));
                let result = run_job_on_pool(
                    Arc::new(VecSource::new(blocks)),
                    Arc::new(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                        emit((*v % 2) as u8, 1)
                    })),
                    |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.iter().sum::<u64>())),
                    JobConfig {
                        map_slots: 2,
                        seed: j,
                        ..Default::default()
                    },
                    &mut coordinator,
                    &pool,
                    tenant,
                    &session,
                )
                .unwrap();
                pool.unregister_tenant(tenant);
                let total: u64 = result.outputs.iter().sum();
                assert_eq!(total, 400, "job {j} lost records");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pool_job_streams_wave_events() {
        let pool = SlotPool::new(2);
        let tenant = pool.register_tenant(1.0);
        let (tx, rx) = std::sync::mpsc::channel();
        let session = JobSession::new(JobId(5)).with_events(tx);
        let blocks: Vec<Vec<u32>> = (0..12).map(|_| (0..5).collect()).collect();
        let mut coordinator = FixedCoordinator::new(12, 1.0, 0.0, 0);
        run_job_on_pool(
            Arc::new(VecSource::new(blocks)),
            Arc::new(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                emit(0, *v as u64)
            })),
            |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.len())),
            JobConfig {
                map_slots: 2,
                ..Default::default()
            },
            &mut coordinator,
            &pool,
            tenant,
            &session,
        )
        .unwrap();
        drop(session);
        let waves: Vec<(usize, usize)> = rx
            .try_iter()
            .filter_map(|e| match e {
                JobEvent::Wave {
                    finished, total, ..
                } => Some((finished, total)),
                _ => None,
            })
            .collect();
        assert!(!waves.is_empty(), "at least one wave event streams out");
        for w in waves.windows(2) {
            assert!(
                w[0].0 <= w[1].0,
                "wave progress must be monotone: {waves:?}"
            );
        }
        let last = waves.last().unwrap();
        assert_eq!(
            *last,
            (12, 12),
            "the final wave flush reports full completion on every backend"
        );
    }

    /// Deadline handling without wall-clock sleeps: the mapper advances a
    /// fake clock past the deadline mid-job, and the tracker must degrade
    /// the remainder to drops and complete approximately.
    #[test]
    fn pool_job_deadline_completes_approximately() {
        let pool = SlotPool::new(1);
        let tenant = pool.register_tenant(1.0);
        let clock = Arc::new(FakeClock::new());
        let deadline = clock.base() + Duration::from_millis(100);
        let session = JobSession::new(JobId(6)).with_deadline(deadline);
        let blocks: Vec<Vec<u32>> = (0..50).map(|i| vec![i as u32]).collect();
        let seen = Arc::new(AtomicUsize::new(0));
        let mapper = {
            let clock = Arc::clone(&clock);
            let seen = Arc::clone(&seen);
            FnMapper::new(move |_: &u32, emit: &mut dyn FnMut(u8, u64)| {
                if seen.fetch_add(1, Ordering::SeqCst) == 9 {
                    clock.advance(Duration::from_millis(200));
                }
                emit(0, 1);
            })
        };
        let mut coordinator = FixedCoordinator::new(50, 1.0, 0.0, 0);
        let result = run_pooled(
            Arc::new(VecSource::new(blocks)),
            Arc::new(mapper),
            |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.len())),
            JobConfig {
                map_slots: 1,
                ..Default::default()
            },
            &mut coordinator,
            &pool,
            tenant,
            &session,
            &*clock,
        )
        .unwrap();
        assert!(result.metrics.deadline_hit, "deadline must be recorded");
        assert!(
            result.metrics.executed_maps < 50,
            "deadline must cut the job short: {}",
            result.metrics.executed_maps
        );
        assert!(result.metrics.dropped_maps > 0);
        assert_eq!(
            result.metrics.executed_maps + result.metrics.dropped_maps + result.metrics.killed_maps,
            50
        );
    }

    /// Reduce outputs partitioned across several reduce tasks cover every
    /// key exactly once.
    #[test]
    fn multiple_reducers_cover_all_keys() {
        let blocks: Vec<Vec<u32>> = (0..8)
            .map(|b| (0..100).map(|i| b * 100 + i).collect())
            .collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u32, u64)| emit(*v % 16, 1));
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|k: &u32, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
            JobConfig {
                map_slots: 2,
                reduce_tasks: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let mut keys: Vec<u32> = result.outputs.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..16).collect::<Vec<u32>>(), "all keys, each once");
        assert!(result.outputs.iter().all(|(_, n)| *n == 50));
    }

    /// A reducer with a bug: it panics on the first map output.
    struct PanickingReducer;

    impl Reducer for PanickingReducer {
        type Key = u8;
        type Value = u64;
        type Output = ();

        fn on_map_output(&mut self, _: &MapOutputMeta, _: Vec<(u8, u64)>, _: &mut ReduceContext) {
            panic!("reducer bug");
        }

        fn finish(&mut self, _: &mut ReduceContext) -> Vec<()> {
            Vec::new()
        }
    }

    /// A panicking reducer fails the job with the same error and flight
    /// dump whether it runs on its own thread or inline on the driving
    /// thread — never a hang, never an unwind out of the call.
    #[test]
    fn reducer_panic_fails_the_job_in_both_placements() {
        let input = VecSource::new((0..6).map(|i| vec![i as u64]).collect());
        let mapper = FnMapper::new(|v: &u64, emit: &mut dyn FnMut(u8, u64)| emit(0, *v));
        type Run<'a> = Box<dyn Fn(JobConfig) -> Result<JobResult<()>> + 'a>;
        let rows: [(&str, Run); 2] = [
            (
                "threads",
                Box::new(|config| run_job(&input, &mapper, |_| PanickingReducer, config)),
            ),
            (
                "inline",
                Box::new(|config| {
                    run_instant(input.splits(), |_| PanickingReducer, config, (0, 1))
                }),
            ),
        ];
        for (row, run) in rows {
            let dir = std::env::temp_dir().join(format!(
                "approxhadoop-reducer-panic-{row}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let result = run(JobConfig {
                map_slots: 2,
                reduce_tasks: 2,
                flight_dir: Some(dir.clone()),
                ..Default::default()
            });
            assert!(
                matches!(&result, Err(RuntimeError::TaskPanicked { what }) if what == "reduce task"),
                "{row}: {result:?}"
            );
            assert!(
                dir.join("flight-job_0000-reducer-panicked.json").is_file(),
                "{row}: no flight dump"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A coordinator with a bug: it panics on the second completed map.
    #[derive(Default)]
    struct PanickingCoordinator {
        completed: usize,
    }

    impl Coordinator for PanickingCoordinator {
        fn directive(&mut self, _: TaskId, _: &SplitMeta, _: &JobControl) -> MapDirective {
            MapDirective::Run {
                sampling_ratio: 1.0,
            }
        }

        fn on_map_complete(&mut self, _: &MapStats, _: &JobControl) {
            self.completed += 1;
            if self.completed > 1 {
                panic!("coordinator bug");
            }
        }
    }

    /// A panic on the tracker thread, raised while slot and reducer
    /// threads are still live, fails the job with `TaskPanicked { what:
    /// "task tracker" }` on both live backends — never a hang, never an
    /// unwind out of the call.
    #[test]
    fn tracker_panic_fails_the_job_on_both_live_backends() {
        let blocks = || {
            (0..40)
                .map(|_| (0..50).collect())
                .collect::<Vec<Vec<u32>>>()
        };
        let mapper = || FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| emit(0, *v as u64));
        let reducer = |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.len()));
        let config = JobConfig {
            map_slots: 2,
            reduce_tasks: 2,
            ..Default::default()
        };
        let pool = SlotPool::new(2);
        type Run<'a> = Box<dyn Fn() -> Result<JobResult<usize>> + 'a>;
        let rows: [(&str, Run); 2] = [
            (
                "scoped",
                Box::new(|| {
                    run_job_with_session(
                        &VecSource::new(blocks()),
                        &mapper(),
                        reducer,
                        config.clone(),
                        &mut PanickingCoordinator::default(),
                        &JobSession::new(JobId(0)),
                    )
                }),
            ),
            (
                "pool",
                Box::new(|| {
                    run_job_on_pool(
                        Arc::new(VecSource::new(blocks())),
                        Arc::new(mapper()),
                        reducer,
                        config.clone(),
                        &mut PanickingCoordinator::default(),
                        &pool,
                        pool.register_tenant(1.0),
                        &JobSession::new(JobId(0)),
                    )
                }),
            ),
        ];
        for (row, run) in rows {
            let result = run();
            assert!(
                matches!(&result, Err(RuntimeError::TaskPanicked { what }) if what == "task tracker"),
                "{row}: {result:?}"
            );
        }
    }
}
