//! One map attempt: the unit of work a scheduler dispatches to an
//! executor, and the one body that runs it on every backend.
//!
//! Attempts are deliberately generic-free on the control path: a
//! [`WorkItem`] describes *what* to run (task, attempt number, sampling
//! ratio, read seed, kill flag, fault plan) and a [`WorkerMsg`] reports
//! *how it went*, so the [`super::scheduler::JobTracker`] never touches
//! the job's key/value types.
//!
//! This module owns `run_attempt`, the only implementation of "run one
//! map attempt": kill checks, fault injection, panic containment, the
//! read clock, hashing and partitioning of every emission, and the
//! `(M_i, m_i)` counts the estimators consume. It is generic over the
//! two things that differ between backends — the closure that opens the
//! record stream and the `EmitSink` pairs go to. Its callers own only
//! their transport: `run_map_attempt` (here) ships an in-process arena
//! over channels; `process::registry` drains a spill buffer into frames.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Sender;

use crate::fault::{FaultDecision, FaultPlan};
use crate::input::{DatasetId, InputSource, SplitStream};
use crate::mapper::{MapTaskContext, Mapper};
use crate::metrics::MapStats;
use crate::reducer::{MapOutputMeta, ReduceEvent};
use crate::types::{fx_hash, Key, Partitioner, TaskId};
use crate::RuntimeError;

use super::shuffle;

/// Records pulled from the input stream per timing slice: the lazy read
/// work (block decode, sample filtering) is attributed to `read_secs`
/// once per batch, so the clock is read twice per `READ_BATCH` records
/// instead of twice per record.
const READ_BATCH: usize = 256;

/// A dispatched map attempt — everything a backend needs to execute one
/// map task, with no reference to the job's key/value types.
///
/// The scheduler builds one `WorkItem` per [`Executor::dispatch`] call;
/// backends either run it in-process ([`crate::engine::run_job`], the
/// pool) or serialize its plain-data fields over a pipe to a worker
/// process (the `kill` flag cannot cross the process boundary — the
/// process backend forwards kill requests as explicit `Kill` frames).
///
/// [`Executor::dispatch`]: crate::engine::Executor::dispatch
pub struct WorkItem {
    /// The map task to run.
    pub task: TaskId,
    /// The dataset the task's split belongs to (`DatasetId(0)` for
    /// single-input jobs).
    pub dataset: DatasetId,
    /// Attempt number (`> 0` for retries and speculative duplicates).
    pub attempt: u32,
    /// Within-block input sampling ratio chosen at schedule time.
    pub sampling_ratio: f64,
    /// Per-task read seed — identical across attempts (see
    /// `read_seed`), so retries re-draw the exact same sample.
    pub seed: u64,
    /// Cooperative kill flag: the tracker raises it to abort the attempt
    /// mid-flight (task dropped, or a sibling finished first).
    pub kill: Arc<AtomicBool>,
    /// Deterministic fault-injection plan, if the job runs under one.
    pub fault: Option<Arc<FaultPlan>>,
    /// Whether map-side combining is enabled for this job.
    pub combining: bool,
    /// Span id allocated for this attempt by the parent's tracer (0
    /// when tracing is off). The process backend propagates it to the
    /// worker so remote spans can be parented under the attempt's span
    /// in the merged Chrome trace.
    pub span: u64,
}

/// A span completed inside a worker process, reported back with the
/// attempt's [`WorkerMsg::Completed`]. Timestamps are relative to the
/// attempt's start on the worker's clock; the parent re-bases them into
/// the task-attempt span's window, so worker/parent clock skew never
/// shows in the merged trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSpan {
    /// Span name (e.g. `"read block"`).
    pub name: String,
    /// Span category (the process backend uses `"worker"`).
    pub category: String,
    /// Microseconds from the attempt's start to the span's start.
    pub rel_ts_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// What a worker reports back to the tracker about one attempt.
///
/// Exactly one `WorkerMsg` terminates every dispatched [`WorkItem`]; the
/// tracker's accounting (waves, retries, degrade-to-drop, Eq. 1–3
/// interval widening) is driven entirely by this stream.
pub enum WorkerMsg {
    /// The attempt ran to completion and shipped its outputs.
    Completed {
        /// Execution statistics for the attempt.
        stats: MapStats,
        /// Attempt number that completed.
        attempt: u32,
        /// Spans completed inside the worker process (empty on the
        /// in-process backends, which trace directly into the parent's
        /// tracer).
        spans: Vec<RemoteSpan>,
    },
    /// The attempt observed its kill flag and aborted without shipping.
    Killed {
        /// The killed task.
        task: TaskId,
        /// Attempt number that was killed.
        attempt: u32,
    },
    /// The attempt failed; the tracker decides between retry,
    /// degrade-to-drop and failing the job.
    Failed {
        /// The failed task.
        task: TaskId,
        /// Attempt number that failed.
        attempt: u32,
        /// Why the attempt failed.
        error: RuntimeError,
    },
}

/// The per-task read seed: identical across attempts so a retry (or a
/// speculative sibling) re-draws the exact same sample, keeping the
/// estimator independent of the fault history.
pub(crate) fn read_seed(job_seed: u64, task: usize) -> u64 {
    job_seed ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Where a map attempt's pairs go: the in-process arena
/// ([`shuffle::BufferSink`]) or the worker's spill-capable buffer
/// (`process::spill::SpillShuffle`). `hash` is the key's
/// [`fx_hash`], already reduced to `partition` by the attempt body.
pub(crate) trait EmitSink<K, V> {
    /// Buffers one pair; an error fails the attempt.
    fn emit(&mut self, partition: usize, hash: u64, key: K, value: V) -> Result<(), String>;
}

/// How [`run_attempt`] ended.
pub(crate) enum AttemptOutcome {
    /// The kill flag was seen, before launch or between two records.
    Killed,
    /// Injected fault, failed read, panicking user code or a sink error.
    Failed(RuntimeError),
    /// Every record was mapped and every pair reached the sink.
    Mapped(Mapped),
}

/// What a fully mapped attempt measured; its caller ships the sink's
/// contents and reports [`Mapped::stats`].
pub(crate) struct Mapped {
    /// `M_i` — records in the task's split.
    pub(crate) total_records: u64,
    /// `m_i` — records the stream yielded after sampling (checked
    /// against the count it advertised).
    pub(crate) sampled_records: u64,
    /// Pairs the user code emitted.
    pub(crate) emitted: u64,
    /// Stream construction plus the batched lazy reads.
    pub(crate) read_secs: f64,
    /// Phase boundaries: read start, stream open, end of `end_task`.
    pub(crate) started: Instant,
    pub(crate) opened: Instant,
    pub(crate) mapped: Instant,
}

impl Mapped {
    /// The attempt's statistics once its caller knows how many pairs it
    /// shipped and when it stopped the attempt's clock.
    pub(crate) fn stats(&self, work: &WorkItem, shuffled: u64, duration_secs: f64) -> MapStats {
        MapStats {
            task: work.task,
            dataset: work.dataset,
            total_records: self.total_records,
            sampled_records: self.sampled_records,
            emitted: self.emitted,
            shuffled,
            duration_secs,
            read_secs: self.read_secs,
        }
    }
}

/// Per-attempt emission state: counts every pair, hashes its key once
/// (shared by the partitioner and the sink's combine probe) and hands it
/// to the sink until the sink first fails.
struct Router<'a, S> {
    sink: &'a mut S,
    partitioner: Partitioner,
    emitted: u64,
    sink_err: Option<String>,
}

impl<S> Router<'_, S> {
    #[inline]
    fn emit<K: Key, V>(&mut self, key: K, value: V)
    where
        S: EmitSink<K, V>,
    {
        self.emitted += 1;
        let h = fx_hash(&key);
        let p = self.partitioner.partition_of_hash(h);
        if self.sink_err.is_none() {
            if let Err(e) = self.sink.emit(p, h, key, value) {
                self.sink_err = Some(e);
            }
        }
    }
}

/// Runs one map attempt — the only implementation, shared by every
/// backend: honours the kill flag (before launch and between records),
/// injects the configured faults, opens the record stream, contains
/// panics in user code, routes every emission of `map` and `end_task`
/// into `sink` over `partitions` reduce partitions, and fails the attempt
/// if a drained stream yielded other than the `m_i` it advertised (or
/// advertised `m_i > M_i`). Backends differ only in `open` (where
/// records come from) and `sink` (where pairs go); shipping the sink and
/// reporting are the caller's.
pub(crate) fn run_attempt<'s, M, S>(
    mapper: &M,
    work: &WorkItem,
    partitions: usize,
    open: impl FnOnce() -> crate::Result<SplitStream<'s, M::Item>>,
    sink: &mut S,
) -> AttemptOutcome
where
    M: Mapper,
    S: EmitSink<M::Key, M::Value>,
{
    if work.kill.load(Ordering::SeqCst) {
        return AttemptOutcome::Killed;
    }
    let decision = work
        .fault
        .as_deref()
        .map(|f| f.decide(work.task.0, work.attempt))
        .unwrap_or(FaultDecision::None);
    if decision == FaultDecision::IoError {
        return AttemptOutcome::Failed(RuntimeError::InjectedFault {
            what: format!("input read of {} (attempt {})", work.task, work.attempt),
        });
    }
    let started = Instant::now();
    let mut stream = match open() {
        Ok(s) => s,
        Err(e) => return AttemptOutcome::Failed(e),
    };
    // Stream construction is only the first slice of read time; lazy
    // reads are timed batch-by-batch in the loop below.
    let opened = Instant::now();
    let (total_records, sampled_records) = (stream.total, stream.sampled);
    let mut router = Router {
        sink,
        partitioner: Partitioner::new(partitions),
        emitted: 0,
        sink_err: None,
    };
    // User map code may panic; contain it so the tracker can retry or
    // fail the job cleanly instead of losing a worker. Sinks are safe to
    // reuse or drop afterwards: partial state is discarded either way.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if decision == FaultDecision::MapPanic {
            panic!("injected map panic in {}", work.task);
        }
        let mut read_secs = (opened - started).as_secs_f64();
        let mut state = mapper.begin_task(&MapTaskContext {
            task: work.task,
            dataset: work.dataset,
            sampling_ratio: work.sampling_ratio,
            attempt: work.attempt,
        });
        let mut killed = false;
        let mut batch: Vec<M::Item> = Vec::with_capacity(READ_BATCH);
        let mut exhausted = false;
        let mut yielded = 0u64;
        while !exhausted && !killed && router.sink_err.is_none() {
            let rt = Instant::now();
            while batch.len() < READ_BATCH {
                match stream.next() {
                    Some(item) => batch.push(item),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            read_secs += rt.elapsed().as_secs_f64();
            yielded += batch.len() as u64;
            for item in batch.drain(..) {
                if work.kill.load(Ordering::Relaxed) {
                    killed = true;
                    break;
                }
                if router.sink_err.is_some() {
                    break;
                }
                mapper.map(&mut state, item, &mut |k, v| router.emit(k, v));
            }
        }
        if !killed && router.sink_err.is_none() {
            mapper.end_task(state, &mut |k, v| router.emit(k, v));
        }
        (killed, read_secs, yielded)
    }));
    match run {
        Err(_) => AttemptOutcome::Failed(RuntimeError::TaskPanicked {
            what: format!("user map code in {}", work.task),
        }),
        Ok((true, ..)) => AttemptOutcome::Killed,
        Ok((false, read_secs, yielded)) => match router.sink_err {
            Some(display) => AttemptOutcome::Failed(RuntimeError::Remote { display }),
            // Neither killed nor cut short by the sink: the stream was
            // drained, so its advertised `m_i` (and `M_i`) can be checked
            // before Eq. 1–3 scale by `M_i / m_i`.
            None if yielded != sampled_records || sampled_records > total_records => {
                AttemptOutcome::Failed(RuntimeError::invalid(format!(
                    "split {} advertises {sampled_records} sampled of {total_records} records \
                     but yielded {yielded}",
                    work.task.0
                )))
            }
            None => AttemptOutcome::Mapped(Mapped {
                total_records,
                sampled_records,
                emitted: router.emitted,
                read_secs,
                started,
                opened,
                mapped: Instant::now(),
            }),
        },
    }
}

/// The in-process caller of [`run_attempt`] (task-tracker thread or pool
/// slot): streams the split from `input` into the thread's arena, ships
/// one pre-partitioned batch per reducer and reports a [`WorkerMsg`].
pub(crate) fn run_map_attempt<S, M>(
    input: &S,
    mapper: &M,
    work: &WorkItem,
    reducer_txs: &[Sender<ReduceEvent<M::Key, M::Value>>],
    msg_tx: &Sender<WorkerMsg>,
    bufs: &mut shuffle::MapBuffers<M::Key, M::Value>,
) where
    S: InputSource,
    M: Mapper<Item = S::Item>,
{
    let combiner = mapper.combiner().filter(|_| work.combining);
    bufs.reset(reducer_txs.len());
    let outcome = run_attempt(
        mapper,
        work,
        reducer_txs.len(),
        || input.stream_split(work.task.0, work.sampling_ratio, work.seed),
        &mut shuffle::BufferSink {
            combiner,
            bufs: &mut *bufs,
        },
    );
    let (task, attempt) = (work.task, work.attempt);
    let _ = msg_tx.send(match outcome {
        AttemptOutcome::Killed => WorkerMsg::Killed { task, attempt },
        AttemptOutcome::Failed(error) => WorkerMsg::Failed {
            task,
            attempt,
            error,
        },
        AttemptOutcome::Mapped(m) => {
            let mut stats = m.stats(work, 0, m.started.elapsed().as_secs_f64());
            let meta = MapOutputMeta::from(&stats);
            stats.shuffled = shuffle::ship_outputs(reducer_txs, meta, combiner.is_some(), bufs);
            WorkerMsg::Completed {
                stats,
                attempt,
                spans: Vec::new(),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::super::process::spill::SpillShuffle;
    use super::super::{run_job, JobConfig};
    use super::*;
    use crate::input::{SplitMeta, VecSource};
    use crate::mapper::FnMapper;
    use crate::reducer::{GroupedReducer, ReduceContext, Reducer};

    #[test]
    fn read_seed_is_stable_per_task() {
        assert_eq!(super::read_seed(7, 3), super::read_seed(7, 3));
        assert_ne!(super::read_seed(7, 3), super::read_seed(7, 4));
        assert_ne!(super::read_seed(7, 3), super::read_seed(8, 3));
    }

    /// Input source whose third split fails to read.
    struct FailingSource;

    impl crate::input::InputSource for FailingSource {
        type Item = u32;

        fn splits(&self) -> Vec<SplitMeta> {
            (0..4)
                .map(|i| SplitMeta {
                    index: i,
                    dataset: Default::default(),
                    records: 1,
                    bytes: 0,
                    locations: vec![],
                })
                .collect()
        }

        fn stream_split(
            &self,
            index: usize,
            _ratio: f64,
            _seed: u64,
        ) -> crate::Result<SplitStream<'_, u32>> {
            if index == 2 {
                Err(approxhadoop_dfs::DfsError::BlockNotFound {
                    block: approxhadoop_dfs::BlockId(2),
                }
                .into())
            } else {
                Ok(SplitStream::new(1, 1, std::iter::once(1)))
            }
        }
    }

    #[test]
    fn input_failure_aborts_job() {
        let mapper = FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *i));
        let result = run_job(
            &FailingSource,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            JobConfig::default(),
        );
        assert!(matches!(result, Err(RuntimeError::Input { .. })));
    }

    #[test]
    fn panicking_mapper_fails_job_cleanly() {
        let blocks: Vec<Vec<u32>> = (0..6).map(|i| vec![i as u32]).collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| {
            assert!(*v != 3, "poisoned item");
            emit(0, *v);
        });
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            JobConfig::default(),
        );
        assert!(
            matches!(result, Err(RuntimeError::TaskPanicked { .. })),
            "panic must surface as a job error"
        );
    }

    /// A mapper that emits nothing at all still completes with correct
    /// metadata flowing to the reducers.
    #[test]
    fn silent_mapper_completes() {
        struct CountMaps(usize);
        impl Reducer for CountMaps {
            type Key = u8;
            type Value = u32;
            type Output = usize;
            fn on_map_output(
                &mut self,
                meta: &MapOutputMeta,
                pairs: Vec<(u8, u32)>,
                _ctx: &mut ReduceContext,
            ) {
                assert!(pairs.is_empty());
                assert_eq!(meta.total_records, 4);
                self.0 += 1;
            }
            fn finish(&mut self, _ctx: &mut ReduceContext) -> Vec<usize> {
                vec![self.0]
            }
        }
        let blocks: Vec<Vec<u32>> = (0..6).map(|_| vec![0; 4]).collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|_: &u32, _emit: &mut dyn FnMut(u8, u32)| {});
        let result = run_job(&input, &mapper, |_| CountMaps(0), JobConfig::default()).unwrap();
        assert_eq!(result.outputs, vec![6]);
    }

    /// Emits `(item % 3, item)` per record and `(99, records seen)` from
    /// `end_task`; panics on `panic_at`, raises `kill` while mapping
    /// `kill_at`.
    struct TableMapper {
        panic_at: Option<u32>,
        kill_at: Option<u32>,
        kill: Arc<AtomicBool>,
    }

    impl Mapper for TableMapper {
        type Item = u32;
        type Key = u32;
        type Value = u64;
        type TaskState = u64;
        fn begin_task(&self, _c: &crate::mapper::MapTaskContext) -> u64 {
            0
        }
        fn map(&self, seen: &mut u64, item: u32, emit: &mut dyn FnMut(u32, u64)) {
            assert!(self.panic_at != Some(item), "poisoned item");
            if self.kill_at == Some(item) {
                self.kill.store(true, Ordering::SeqCst);
            }
            *seen += 1;
            emit(item % 3, u64::from(item));
        }
        fn end_task(&self, seen: u64, emit: &mut dyn FnMut(u32, u64)) {
            emit(99, seen);
        }
    }

    /// Passes `left` emissions through to `inner`, then fails.
    struct FailAfter<S> {
        inner: S,
        left: u64,
    }

    impl<K, V, S: EmitSink<K, V>> EmitSink<K, V> for FailAfter<S> {
        fn emit(&mut self, p: usize, h: u64, k: K, v: V) -> Result<(), String> {
            if self.left == 0 {
                return Err("sink refused the pair".into());
            }
            self.left -= 1;
            self.inner.emit(p, h, k, v)
        }
    }

    #[derive(Default)]
    struct Case {
        name: &'static str,
        kill_before: bool,
        kill_at: Option<u32>,
        fault: Option<FaultPlan>,
        panic_at: Option<u32>,
        sink_fails_after: Option<u64>,
        /// Each `next()` of the stream sleeps this long — none of it at
        /// stream construction, the shape a construction-only read clock
        /// books as zero read time.
        per_item: Duration,
        /// `(advertised, yielded)`: the stream claims `advertised` as
        /// both `M_i` and `m_i` but yields only `yielded` records.
        lying_stream: Option<(u64, u32)>,
        /// `Err(rendered outcome)` or `Ok((total, sampled, emitted))`.
        expect: Option<std::result::Result<(u64, u64, u64), &'static str>>,
    }

    /// What one run of the body produced, in comparable form: the
    /// outcome, the pairs the sink held per partition, and the read and
    /// map-phase clocks.
    type Observed = (
        std::result::Result<(u64, u64, u64), String>,
        Vec<(usize, u32, u64)>,
        f64,
        f64,
    );

    const RECORDS: u32 = 10;
    const PARTITIONS: usize = 2;

    fn observe(case: &Case, spill: bool) -> Observed {
        let kill = Arc::new(AtomicBool::new(case.kill_before));
        let mapper = TableMapper {
            panic_at: case.panic_at,
            kill_at: case.kill_at,
            kill: Arc::clone(&kill),
        };
        let work = WorkItem {
            task: TaskId(4),
            dataset: DatasetId(0),
            attempt: 1,
            sampling_ratio: 1.0,
            seed: 0,
            kill,
            fault: case.fault.clone().map(Arc::new),
            combining: false,
            span: 0,
        };
        let per_item = case.per_item;
        let (advertised, yielded) = case.lying_stream.unwrap_or((RECORDS.into(), RECORDS));
        let open = || {
            let iter = (0..yielded).inspect(move |_| std::thread::sleep(per_item));
            Ok(SplitStream::new(advertised, advertised, iter))
        };
        let left = case.sink_fails_after.unwrap_or(u64::MAX);
        let mut pairs = Vec::new();
        let outcome = if spill {
            let dir = std::env::temp_dir().join(format!(
                "approxhadoop-attempt-table-{}-{}",
                std::process::id(),
                case.name.replace(' ', "-")
            ));
            let mut sink = FailAfter {
                inner: SpillShuffle::new(PARTITIONS, None, 1, dir),
                left,
            };
            let outcome = run_attempt(&mapper, &work, PARTITIONS, open, &mut sink);
            if matches!(outcome, AttemptOutcome::Mapped(_)) {
                sink.inner
                    .drain(|p, k, v| {
                        pairs.push((p, k, v));
                        Ok(())
                    })
                    .unwrap();
            }
            outcome
        } else {
            let mut bufs = shuffle::MapBuffers::new();
            bufs.reset(PARTITIONS);
            let mut sink = FailAfter {
                inner: shuffle::BufferSink {
                    combiner: None,
                    bufs: &mut bufs,
                },
                left,
            };
            let outcome = run_attempt(&mapper, &work, PARTITIONS, open, &mut sink);
            if matches!(outcome, AttemptOutcome::Mapped(_)) {
                for (p, raw) in bufs.raw.iter().enumerate() {
                    pairs.extend(raw.iter().map(|&(k, v)| (p, k, v)));
                }
            }
            outcome
        };
        match outcome {
            AttemptOutcome::Killed => (Err("Killed".into()), pairs, 0.0, 0.0),
            AttemptOutcome::Failed(e) => (Err(format!("{e:?}")), pairs, 0.0, 0.0),
            AttemptOutcome::Mapped(m) => (
                Ok((m.total_records, m.sampled_records, m.emitted)),
                pairs,
                m.read_secs,
                (m.mapped - m.started).as_secs_f64(),
            ),
        }
    }

    /// Every way an attempt can end, on both sinks — the in-process
    /// arena and the worker's spill buffer at a 1-byte budget (one run
    /// file per emission): same outcome, same error text, same counts,
    /// same pairs in the same order.
    #[test]
    fn attempt_body_outcomes_are_identical_on_both_sinks() {
        let all = u64::from(RECORDS);
        let per_item = Duration::from_millis(2);
        let cases = [
            Case {
                name: "kill set before launch",
                kill_before: true,
                expect: Some(Err("Killed")),
                ..Default::default()
            },
            Case {
                name: "kill raised mid-stream",
                kill_at: Some(3),
                expect: Some(Err("Killed")),
                ..Default::default()
            },
            Case {
                name: "IoError fault",
                fault: Some(FaultPlan {
                    map_io_error_prob: 1.0,
                    ..Default::default()
                }),
                expect: Some(Err(
                    "InjectedFault { what: \"input read of map_000004 (attempt 1)\" }",
                )),
                ..Default::default()
            },
            Case {
                name: "MapPanic fault",
                fault: Some(FaultPlan {
                    map_panic_prob: 1.0,
                    ..Default::default()
                }),
                expect: Some(Err(
                    "TaskPanicked { what: \"user map code in map_000004\" }",
                )),
                ..Default::default()
            },
            Case {
                name: "panicking user map",
                panic_at: Some(5),
                expect: Some(Err(
                    "TaskPanicked { what: \"user map code in map_000004\" }",
                )),
                ..Default::default()
            },
            Case {
                name: "sink fails on the 4th emission",
                sink_fails_after: Some(3),
                expect: Some(Err("Remote { display: \"sink refused the pair\" }")),
                ..Default::default()
            },
            Case {
                name: "stream yields fewer records than it advertised",
                lying_stream: Some((5, 3)),
                expect: Some(Err(
                    "InvalidJob { reason: \"split 4 advertises 5 sampled of 5 \
                     records but yielded 3\" }",
                )),
                ..Default::default()
            },
            Case {
                name: "clean run with an end_task emission",
                expect: Some(Ok((all, all, all + 1))),
                ..Default::default()
            },
            Case {
                name: "slow lazy stream",
                per_item,
                expect: Some(Ok((all, all, all + 1))),
                ..Default::default()
            },
        ];
        for case in &cases {
            let (outcome, pairs, read_secs, phase_secs) = observe(case, false);
            let (spill_outcome, spill_pairs, spill_read_secs, spill_phase_secs) =
                observe(case, true);
            let expect = case.expect.expect("every row states its outcome");
            assert_eq!(outcome, expect.map_err(String::from), "{}", case.name);
            assert_eq!(spill_outcome, outcome, "{}: sinks disagree", case.name);
            assert_eq!(
                spill_pairs, pairs,
                "{}: sinks hold different pairs",
                case.name
            );
            if outcome.is_ok() {
                assert_eq!(pairs.len() as u64, all + 1, "{}", case.name);
                assert_eq!(
                    pairs
                        .iter()
                        .filter(|&&(_, k, v)| (k, v) == (99, all))
                        .count(),
                    1
                );
            }
            // The batched read clock must cover the per-`next()` work of
            // a lazy stream (generous slack for coarse sleeps) and can
            // never exceed the phases it is part of.
            let floor = f64::from(RECORDS) * case.per_item.as_secs_f64() * 0.75;
            for (read, phases) in [(read_secs, phase_secs), (spill_read_secs, spill_phase_secs)] {
                assert!(read >= floor, "{}: read_secs {read} < {floor}", case.name);
                assert!(read <= phases, "{}: read_secs {read} > {phases}", case.name);
            }
        }
    }

    /// Stateful end_task emission arrives even when items were sampled
    /// down to a single record.
    #[test]
    fn end_task_emission_with_heavy_sampling() {
        let blocks: Vec<Vec<u32>> = (0..5).map(|_| (0..100).collect()).collect();
        let input = VecSource::new(blocks);
        struct PerTaskCount;
        impl Mapper for PerTaskCount {
            type Item = u32;
            type Key = u8;
            type Value = u64;
            type TaskState = u64;
            fn begin_task(&self, _c: &crate::mapper::MapTaskContext) -> u64 {
                0
            }
            fn map(&self, s: &mut u64, _i: u32, _e: &mut dyn FnMut(u8, u64)) {
                *s += 1;
            }
            fn end_task(&self, s: u64, emit: &mut dyn FnMut(u8, u64)) {
                emit(0, s);
            }
        }
        let result = run_job(
            &input,
            &PerTaskCount,
            |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some((vs.len(), vs.iter().sum::<u64>()))),
            JobConfig {
                sampling_ratio: 0.01,
                ..Default::default()
            },
        )
        .unwrap();
        let (tasks, items) = result.outputs[0];
        assert_eq!(tasks, 5, "every task emits its count");
        assert_eq!(items, 5, "1% of 100 items per task");
    }
}
