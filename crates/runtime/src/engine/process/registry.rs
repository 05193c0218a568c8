//! The worker process side of the backend: a by-name job registry and
//! the [`worker_main`] frame loop a worker binary runs.
//!
//! Closures cannot cross a process boundary, so process-backend jobs
//! are **named**: a worker binary registers each job's mapper under a
//! string name (plus a params decoder), and the parent ships only the
//! name and an opaque params blob in the
//! [`WorkerJobSpec`](super::wire::WorkerJobSpec). Both sides of a job
//! must agree on the item/key/value `Wire` encodings — in practice the
//! worker binary lives in the same crate as the code submitting the
//! job, so the types are literally shared.
//!
//! A registered job runs the engine's shared attempt body
//! (`engine::attempt::run_attempt`) over its spool block and a
//! [`SpillShuffle`]. This module owns only what is the worker's alone:
//! the dataset-table admission check, opening a spool block as a record
//! stream, worker spans and counters, the `Telemetry` frame, and
//! chunking the drained shuffle into `Output` frames.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use approxhadoop_dfs::{BlockId, FileStore};
use approxhadoop_ipc::{read_frame, write_frame, Decoder, Wire};
use approxhadoop_obs::{Counter, DeltaCursor, Obs};

use crate::engine::attempt::{run_attempt, AttemptOutcome, WorkItem};
use crate::input::{DatasetId, SplitStream};
use crate::mapper::Mapper;
use crate::types::TaskId;
use crate::RuntimeError;

use super::spill::SpillShuffle;
use super::wire::{FromWorker, ToWorker, WireJobError, WireWorkItem, WorkerJobSpec};

/// Kill flags of in-flight attempts, shared with the frame-reader
/// thread and keyed by `(task, attempt)`.
type KillMap = Arc<Mutex<HashMap<(u64, u32), Arc<AtomicBool>>>>;

/// Map-output chunks are flushed to the pipe at roughly this size.
const CHUNK_BYTES: usize = 1 << 20;

/// The per-job environment a worker builds from its [`WorkerJobSpec`].
struct WorkerEnv {
    spool: FileStore,
    spec: WorkerJobSpec,
    telemetry: Option<WorkerTelemetry>,
}

/// The worker's own observability context, present when the job spec
/// carried a non-empty `telemetry_label`. Counters accumulate in the
/// local registry and flow back as high-water-marked deltas; spans
/// accumulate in the local tracer ring and are drained per attempt.
struct WorkerTelemetry {
    obs: Arc<Obs>,
    cursor: Mutex<DeltaCursor>,
    label: String,
}

impl WorkerTelemetry {
    fn counter(&self, name: &str) -> Arc<Counter> {
        self.obs.registry.counter(name, &[("job", &self.label)])
    }
}

/// The worker process's single observability context.
///
/// [`Obs::shared`] creates a *fresh* context per call, so a job builder
/// and the frame loop's telemetry would otherwise hold two unrelated
/// registries — and builder-attached counters (e.g. a join mapper's
/// Bloom discard counts) would never reach the parent. Everything in a
/// worker binary that wants its metrics piggybacked to the parent's
/// registry must attach them here.
pub fn worker_obs() -> Arc<Obs> {
    static OBS: std::sync::OnceLock<Arc<Obs>> = std::sync::OnceLock::new();
    Arc::clone(OBS.get_or_init(Obs::shared))
}

/// Object-safe attempt runner; one per registered job, erased over the
/// job's item/key/value types.
trait RunnableJob: Send + Sync {
    fn run_attempt(
        &self,
        env: &WorkerEnv,
        work: &WorkItem,
        send: &mut dyn FnMut(FromWorker) -> std::io::Result<()>,
    ) -> std::io::Result<()>;
}

type JobBuilder = Box<dyn Fn(&[u8]) -> Result<Box<dyn RunnableJob>, String> + Send + Sync>;

/// Maps job names to mapper builders inside a worker binary.
///
/// ```
/// use approxhadoop_runtime::engine::process::JobRegistry;
/// use approxhadoop_runtime::mapper::FnMapper;
///
/// let mut registry = JobRegistry::new();
/// registry.register("mod8-count", |_params: &[u8]| {
///     Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
///         emit((*v % 8) as u8, 1)
///     }))
/// });
/// assert!(registry.contains("mod8-count"));
/// ```
#[derive(Default)]
pub struct JobRegistry {
    builders: HashMap<String, JobBuilder>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `build` under `name`. The builder decodes the job's
    /// params blob into a mapper; its item, key and value types must
    /// implement [`Wire`] identically on the submitting side.
    pub fn register<I, M, F>(&mut self, name: &str, build: F)
    where
        I: Wire + Send + Sync + 'static,
        M: Mapper<Item = I> + 'static,
        M::Key: Wire,
        M::Value: Wire,
        F: Fn(&[u8]) -> Result<M, String> + Send + Sync + 'static,
    {
        self.builders.insert(
            name.to_string(),
            Box::new(move |params| {
                let mapper = build(params)?;
                Ok(Box::new(TypedJob { mapper }) as Box<dyn RunnableJob>)
            }),
        );
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.builders.contains_key(name)
    }

    fn build(&self, name: &str, params: &[u8]) -> Result<Box<dyn RunnableJob>, String> {
        match self.builders.get(name) {
            Some(b) => b(params),
            None => Err(format!("job {name:?} is not registered in this worker")),
        }
    }
}

struct TypedJob<M> {
    mapper: M,
}

impl<I, M> RunnableJob for TypedJob<M>
where
    I: Wire + Send + Sync + 'static,
    M: Mapper<Item = I>,
    M::Key: Wire,
    M::Value: Wire,
{
    /// The worker-side caller of [`run_attempt`]: the record source is
    /// the attempt's spool block, the sink a [`SpillShuffle`], and the
    /// outcome leaves as frames — chunked `Output`, `Telemetry`, `Done`.
    /// Everything here is the process backend's own; the attempt itself
    /// (kill points, faults, panic containment, counts) is the shared body.
    fn run_attempt(
        &self,
        env: &WorkerEnv,
        work: &WorkItem,
        send: &mut dyn FnMut(FromWorker) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let (task, attempt) = (work.task.0 as u64, work.attempt);
        let fail = |send: &mut dyn FnMut(FromWorker) -> std::io::Result<()>,
                    error: &RuntimeError| {
            send(FromWorker::Failed {
                task,
                attempt,
                error: WireJobError::from_error(error),
            })
        };
        // A work item tagged with a dataset the job spec never declared
        // means the parent and worker disagree about the dataset table.
        // That is a job error, not a worker crash: fail the attempt so
        // the parent's retry/degrade machinery sees it.
        if !env.spec.admits_dataset(work.dataset.0) {
            let display = format!(
                "work item for {} tagged {} but the job spec's dataset table does not admit it",
                work.task, work.dataset
            );
            return fail(send, &RuntimeError::Remote { display });
        }
        // Telemetry setup: stamp the attempt's epoch on the local
        // tracer's clock and discard spans left over from attempts that
        // ended without a Telemetry frame, so nothing is misattributed.
        let telemetry = env.telemetry.as_ref().map(|t| {
            let _ = t.obs.tracer.drain();
            t.counter("approx_worker_attempts_total").inc();
            (t, t.obs.tracer.now_us(), Instant::now())
        });
        let partitions = env.spec.num_reducers as usize;
        let mut shuffle = SpillShuffle::new(
            partitions,
            self.mapper.combiner().filter(|_| work.combining),
            env.spec.shuffle_mem_bytes as usize,
            Path::new(&env.spec.spill_dir).join(format!("attempt-{task}-{attempt}")),
        );
        if let Some((t, ..)) = telemetry {
            shuffle = shuffle.with_counters(
                t.counter("approx_process_spill_runs_total"),
                t.counter("approx_process_spill_bytes_total"),
            );
        }
        let open =
            || read_block(&env.spool, work).map_err(|display| RuntimeError::Remote { display });
        let mapped = match run_attempt(&self.mapper, work, partitions, open, &mut shuffle) {
            AttemptOutcome::Killed => return send(FromWorker::Killed { task, attempt }),
            AttemptOutcome::Failed(e) => return fail(send, &e),
            AttemptOutcome::Mapped(m) => m,
        };
        // Drain the (possibly spilled) buffer into chunked Output
        // frames: one partition at a time, ~1 MiB of encoded pairs per
        // frame, so a huge shuffle never materialises in the worker.
        let mut shuffled = 0u64;
        let mut chunk: Vec<u8> = Vec::new();
        let mut chunk_partition = 0usize;
        let mut io_err: Option<std::io::Error> = None;
        let mut flush = |partition: usize, pairs: Vec<u8>| {
            send(FromWorker::Output {
                task,
                attempt,
                partition: partition as u32,
                pairs,
            })
            .map_err(|e| {
                io_err = Some(e);
                "pipe closed".to_string()
            })
        };
        let drained = shuffle
            .drain(|p, k, v| {
                if !chunk.is_empty() && (p != chunk_partition || chunk.len() >= CHUNK_BYTES) {
                    flush(chunk_partition, std::mem::take(&mut chunk))?;
                }
                chunk_partition = p;
                k.encode(&mut chunk);
                v.encode(&mut chunk);
                shuffled += 1;
                Ok(())
            })
            .and_then(|report| {
                if !chunk.is_empty() {
                    flush(chunk_partition, std::mem::take(&mut chunk))?;
                }
                Ok(report)
            });
        if let Some(e) = io_err {
            return Err(e);
        }
        let report = match drained {
            Ok(r) => r,
            Err(display) => return fail(send, &RuntimeError::Remote { display }),
        };
        // Telemetry rides between the last Output chunk and the Done
        // frame. The three phase spans come from the instants the shared
        // body returned, placed on the tracer's clock via the epoch pair;
        // every span leaves relative to the epoch so the parent can graft
        // it into the task-attempt span's window regardless of clock skew.
        if let Some((tel, epoch_us, epoch)) = telemetry {
            tel.counter("approx_worker_records_total")
                .add(mapped.sampled_records);
            for (name, from, to) in [
                ("read block", mapped.started, mapped.opened),
                ("map+combine", mapped.opened, mapped.mapped),
                ("drain shuffle", mapped.mapped, Instant::now()),
            ] {
                let ts_us = epoch_us + (from - epoch).as_micros() as u64;
                let dur_us = ((to - from).as_micros() as u64).max(1);
                tel.obs
                    .tracer
                    .complete(name, "worker", ts_us, dur_us, 0, 0, None, vec![]);
            }
            let counters = tel
                .obs
                .registry
                .counter_deltas(&mut tel.cursor.lock().expect("cursor poisoned"))
                .into_iter()
                .map(|d| (d.name, d.labels, d.delta))
                .collect();
            let spans = tel
                .obs
                .tracer
                .drain()
                .into_iter()
                .filter(|e| e.phase == 'X')
                .map(|e| {
                    (
                        e.name,
                        e.category,
                        e.ts_us.saturating_sub(epoch_us),
                        e.dur_us,
                    )
                })
                .collect();
            send(FromWorker::Telemetry {
                task,
                attempt,
                counters,
                spans,
            })?;
        }
        send(FromWorker::Done {
            attempt,
            stats: mapped.stats(work, shuffled, mapped.started.elapsed().as_secs_f64()),
            spill_runs: report.runs,
            spill_bytes: report.bytes,
        })
    }
}

/// Opens the attempt's spool block as the same [`SplitStream`] the
/// in-process sources yield: decodes it eagerly and samples it with
/// [`SplitStream::sampled`] — the same `(total, ratio, seed)` draw — so
/// every backend processes the identical sample.
fn read_block<I: Wire + Send + 'static>(
    spool: &FileStore,
    work: &WorkItem,
) -> Result<SplitStream<'static, I>, String> {
    let id = BlockId(work.task.0 as u64);
    let buf = spool
        .slice(id)
        .ok_or_else(|| format!("spool has no block for task {}", id.0))?;
    let total = spool
        .records(id)
        .ok_or_else(|| format!("spool has no record count for task {}", id.0))?;
    let mut d = Decoder::new(buf);
    // `total` comes from the file's header: every record encodes to at
    // least one byte, so the block's length bounds what a corrupt count
    // may reserve.
    let mut items = Vec::with_capacity(total.min(buf.len() as u64) as usize);
    for _ in 0..total {
        items.push(I::decode(&mut d).map_err(|e| format!("spool block corrupt: {e}"))?);
    }
    d.finish()
        .map_err(|e| format!("spool block has trailing bytes: {e}"))?;
    Ok(SplitStream::sampled(items, work.sampling_ratio, work.seed))
}

/// Runs the worker frame loop against the process's stdin/stdout until
/// the parent sends `Shutdown` or closes the pipe, then exits the
/// process. This is the entire body of a worker binary's `main`:
///
/// ```no_run
/// use approxhadoop_runtime::engine::process::{worker_main, JobRegistry};
///
/// let mut registry = JobRegistry::new();
/// // registry.register(...)
/// worker_main(registry);
/// ```
pub fn worker_main(registry: JobRegistry) -> ! {
    let code = worker_loop(
        registry,
        BufReader::new(std::io::stdin()),
        BufWriter::new(std::io::stdout()),
    );
    std::process::exit(code)
}

/// The worker-side [`WorkItem`] of a `Work` frame: the wire fields plus
/// the local flag that the attempt's `Kill` frame raises.
fn local_work(w: WireWorkItem, kill: Arc<AtomicBool>) -> WorkItem {
    WorkItem {
        task: TaskId(w.task as usize),
        dataset: DatasetId(w.dataset),
        attempt: w.attempt,
        sampling_ratio: w.sampling_ratio,
        seed: w.seed,
        kill,
        fault: w.fault.map(Arc::new),
        combining: w.combining,
        span: w.span,
    }
}

/// The loop behind [`worker_main`], testable over arbitrary streams.
/// Returns the process exit code.
fn worker_loop<R, W>(registry: JobRegistry, reader: R, writer: W) -> i32
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let mut reader = reader;
    let spec: WorkerJobSpec = match read_frame(&mut reader) {
        Ok(Some(frame)) => match ToWorker::from_bytes(&frame) {
            Ok(ToWorker::Job(spec)) => spec,
            _ => {
                eprintln!("approx-worker: first frame was not a Job spec");
                return 1;
            }
        },
        _ => return 1,
    };
    let job = match registry.build(&spec.job, &spec.params) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("approx-worker: {e}");
            return 1;
        }
    };
    let spool = match FileStore::open(Path::new(&spec.spool)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("approx-worker: {e}");
            return 1;
        }
    };
    let env = WorkerEnv {
        spool,
        telemetry: (!spec.telemetry_label.is_empty()).then(|| WorkerTelemetry {
            obs: worker_obs(),
            cursor: Mutex::new(DeltaCursor::new()),
            label: spec.telemetry_label.clone(),
        }),
        spec,
    };

    let writer = Arc::new(Mutex::new(writer));
    let send_frame = |fw: &FromWorker| -> std::io::Result<()> {
        let mut w = writer.lock().expect("writer poisoned");
        write_frame(&mut *w, &fw.to_bytes()).map_err(std::io::Error::other)?;
        w.flush()
    };
    if send_frame(&FromWorker::Ready).is_err() {
        return 1;
    }

    // Kill frames must land while an attempt is running, so frame
    // reading happens on a side thread: it forwards Work to the main
    // thread over a channel and flips kill flags in place. Shutdown and
    // pipe EOF exit the process immediately — the parent has already
    // discarded this worker's in-flight work.
    let kills: KillMap = Arc::new(Mutex::new(HashMap::new()));
    let (work_tx, work_rx) = std::sync::mpsc::channel::<WorkItem>();
    let reader_kills = Arc::clone(&kills);
    std::thread::spawn(move || loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => match ToWorker::from_bytes(&frame) {
                Ok(ToWorker::Work(work)) => {
                    let kill = Arc::new(AtomicBool::new(false));
                    reader_kills
                        .lock()
                        .expect("kills poisoned")
                        .insert((work.task, work.attempt), Arc::clone(&kill));
                    if work_tx.send(local_work(work, kill)).is_err() {
                        std::process::exit(1);
                    }
                }
                Ok(ToWorker::Kill { task, attempt }) => {
                    if let Some(flag) = reader_kills
                        .lock()
                        .expect("kills poisoned")
                        .get(&(task, attempt))
                    {
                        flag.store(true, Ordering::SeqCst);
                    }
                }
                Ok(ToWorker::Shutdown) | Ok(ToWorker::Job(_)) => std::process::exit(0),
                Err(e) => {
                    eprintln!("approx-worker: corrupt frame: {e}");
                    std::process::exit(1);
                }
            },
            Ok(None) => std::process::exit(0),
            Err(e) => {
                eprintln!("approx-worker: pipe error: {e}");
                std::process::exit(1);
            }
        }
    });

    for work in work_rx {
        let key = (work.task.0 as u64, work.attempt);
        let result = job.run_attempt(&env, &work, &mut |fw| send_frame(&fw));
        kills.lock().expect("kills poisoned").remove(&key);
        if result.is_err() {
            // The parent end of the pipe is gone; nothing left to serve.
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::FnMapper;

    #[test]
    fn registry_builds_registered_jobs_only() {
        let mut r = JobRegistry::new();
        r.register("count", |_p: &[u8]| {
            Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                emit((*v % 8) as u8, 1)
            }))
        });
        assert!(r.contains("count"));
        assert!(!r.contains("other"));
        assert!(r.build("count", &[]).is_ok());
        assert!(r.build("other", &[]).is_err());
    }

    /// One direction of an in-memory pipe: whole writes travel over a
    /// channel, reads block until the next one arrives.
    struct PipeEnd {
        tx: Option<std::sync::mpsc::Sender<Vec<u8>>>,
        rx: Option<std::sync::mpsc::Receiver<Vec<u8>>>,
        buf: std::collections::VecDeque<u8>,
    }

    fn pipe() -> (PipeEnd, PipeEnd) {
        let (tx, rx) = std::sync::mpsc::channel();
        let end = |tx, rx| PipeEnd {
            tx,
            rx,
            buf: Default::default(),
        };
        (end(Some(tx), None), end(None, Some(rx)))
    }

    impl Write for PipeEnd {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            let tx = self.tx.as_ref().expect("write end");
            tx.send(bytes.to_vec())
                .map_err(|_| std::io::ErrorKind::BrokenPipe)?;
            Ok(bytes.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for PipeEnd {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            while self.buf.is_empty() {
                match self.rx.as_ref().expect("read end").recv() {
                    Ok(bytes) => self.buf.extend(bytes),
                    Err(_) => return Ok(0),
                }
            }
            let n = out.len().min(self.buf.len());
            for (o, b) in out.iter_mut().zip(self.buf.drain(..n)) {
                *o = b;
            }
            Ok(n)
        }
    }

    /// A corrupt spool block fails its attempt — `Failed { kind: 2 }`
    /// with the decoder's reason — and nothing else: the worker neither
    /// panics nor aborts on the advertised record count, and serves the
    /// next `Work` frame normally.
    #[test]
    fn corrupt_spool_blocks_fail_the_attempt_not_the_worker() {
        let dir = std::env::temp_dir().join(format!(
            "approxhadoop-worker-loop-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("input.spool");
        let mut good = Vec::new();
        for v in [1u32, 2, 3] {
            v.encode(&mut good);
        }
        let mut w = approxhadoop_dfs::FileStoreWriter::create(&spool).unwrap();
        // Truncated mid-record: three records advertised, 2½ present.
        w.append(BlockId(0), 3, &good[..10]).unwrap();
        // Trailing bytes: two records advertised, three present.
        w.append(BlockId(1), 2, &good).unwrap();
        // A record count no block of this size can hold.
        w.append(BlockId(2), u64::MAX, &good).unwrap();
        w.append(BlockId(3), 3, &good).unwrap();
        w.finish().unwrap();

        let mut registry = JobRegistry::new();
        registry.register("count", |_p: &[u8]| {
            Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                emit((*v % 2) as u8, 1)
            }))
        });
        // The loop serves until its input closes, and a closed input
        // exits the *process*. So the write end is leaked up front — not
        // even a failing assertion below may close it — and the loop's
        // threads stay blocked on it until the test binary ends.
        let (to_worker, worker_stdin) = pipe();
        let to_worker = Box::leak(Box::new(to_worker));
        let (worker_stdout, mut from_worker) = pipe();
        std::thread::spawn(move || worker_loop(registry, worker_stdin, worker_stdout));
        let mut send = |frame: ToWorker| write_frame(to_worker, &frame.to_bytes()).unwrap();
        let mut recv = || FromWorker::from_bytes(&read_frame(&mut from_worker).unwrap().unwrap());
        send(ToWorker::Job(WorkerJobSpec {
            job: "count".into(),
            params: Vec::new(),
            spool: spool.to_string_lossy().into_owned(),
            num_reducers: 1,
            shuffle_mem_bytes: 1 << 20,
            spill_dir: dir.join("spill").to_string_lossy().into_owned(),
            telemetry_label: String::new(),
            datasets: Vec::new(),
        }));
        assert_eq!(recv().unwrap(), FromWorker::Ready);

        for (task, reason) in [
            (0, "spool block corrupt"),
            (1, "spool block has trailing bytes"),
            (2, "spool block corrupt"),
        ] {
            send(ToWorker::Work(WireWorkItem {
                task,
                dataset: 0,
                attempt: 0,
                sampling_ratio: 1.0,
                seed: 0,
                combining: false,
                fault: None,
                span: 0,
            }));
            match recv().unwrap() {
                FromWorker::Failed {
                    task: t,
                    attempt: 0,
                    error: WireJobError { kind: 2, what },
                } if t == task => assert!(what.starts_with(reason), "task {task}: {what}"),
                other => panic!("task {task}: expected Failed {{ kind: 2 }}, got {other:?}"),
            }
        }

        send(ToWorker::Work(WireWorkItem {
            task: 3,
            dataset: 0,
            attempt: 0,
            sampling_ratio: 1.0,
            seed: 0,
            combining: false,
            fault: None,
            span: 0,
        }));
        let mut pairs = Vec::new();
        [1u8, 0, 1].iter().for_each(|k| {
            k.encode(&mut pairs);
            1u64.encode(&mut pairs);
        });
        assert_eq!(
            recv().unwrap(),
            FromWorker::Output {
                task: 3,
                attempt: 0,
                partition: 0,
                pairs
            }
        );
        match recv().unwrap() {
            FromWorker::Done {
                attempt: 0, stats, ..
            } => {
                assert_eq!((stats.task, stats.total_records), (TaskId(3), 3));
                assert_eq!(
                    (stats.sampled_records, stats.emitted, stats.shuffled),
                    (3, 3, 3)
                );
            }
            other => panic!("expected Done, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_params_errors_propagate() {
        let mut r = JobRegistry::new();
        r.register("strict", |p: &[u8]| {
            if p.is_empty() {
                return Err("params required".to_string());
            }
            Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                emit(0, *v as u64)
            }))
        });
        assert!(r.build("strict", &[]).is_err());
        assert!(r.build("strict", &[1]).is_ok());
    }
}
