//! The parent side of the process backend: an [`Executor`] whose
//! "servers" are worker OS processes.
//!
//! Each worker holds one map slot; attempts travel to it as `Work`
//! frames and outcomes come back as `Done`/`Killed`/`Failed` frames
//! (with map output streamed ahead of `Done` in `Output` chunks). Kill
//! flags cannot cross the process boundary, so the executor forwards
//! them as `Kill` frames at the entry of every verb — safe because the
//! tracker raises kill flags exclusively from its own thread, the same
//! thread that calls these verbs.
//!
//! A worker that dies (crash, `abort`, kill -9) surfaces as a pipe EOF;
//! every attempt in flight on it is synthesized into a
//! [`RuntimeError::WorkerLost`] failure so the tracker's retry /
//! blacklist / degrade-to-drop machinery handles process loss exactly
//! like any other task failure. The dead worker is respawned on the
//! next dispatch to its slot.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approxhadoop_ipc::{read_frame, write_frame, Decoder, FrameError, Wire};
use approxhadoop_obs::{Counter, CounterDelta, Obs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

use crate::reducer::{MapOutputMeta, ReduceEvent};
use crate::types::{Key, TaskId, Value};
use crate::RuntimeError;

use super::super::attempt::{RemoteSpan, WorkItem, WorkerMsg};
use super::super::executor::{Executor, RecvOutcome};
use super::super::shuffle;
use super::wire::{FromWorker, ToWorker, WireWorkItem};

/// Transport counters, labelled per job. Spill counters live in the
/// worker's own registry (incremented when a spill actually happens)
/// and arrive via merged `Telemetry` deltas — but they are still
/// pre-registered here so `/metrics` renders them at 0 before the
/// first spill.
pub(super) struct ProcObs {
    /// The parent context worker counter deltas merge into.
    parent: Arc<Obs>,
    frames_tx: Arc<Counter>,
    bytes_tx: Arc<Counter>,
    frames_rx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    restarts: Arc<Counter>,
}

impl ProcObs {
    pub(super) fn new(obs: &Arc<Obs>, label: &str) -> Self {
        let c = |name: &str| obs.registry.counter(name, &[("job", label)]);
        c("approx_process_spill_runs_total");
        c("approx_process_spill_bytes_total");
        ProcObs {
            parent: Arc::clone(obs),
            frames_tx: c("approx_process_frames_tx_total"),
            bytes_tx: c("approx_process_bytes_tx_total"),
            frames_rx: c("approx_process_frames_rx_total"),
            bytes_rx: c("approx_process_bytes_rx_total"),
            restarts: c("approx_process_worker_restarts_total"),
        }
    }
}

fn frame_io(e: FrameError) -> String {
    format!("pipe write failed: {e}")
}

/// Reader-thread events: a decoded worker frame (with its payload size
/// for the byte counters), an `Output` chunk decoded into typed pairs
/// **on the reader thread**, or the worker's pipe closing.
///
/// Decoding the (potentially large) output chunks reader-side keeps the
/// per-pair wire decode off the tracker thread and runs it in parallel
/// across workers — the process backend's share of the parallel reduce
/// drain (reduce partitions themselves each own a thread already).
enum ExecEvent<K, V> {
    Msg(FromWorker, u64),
    Output {
        task: u64,
        attempt: u32,
        partition: u32,
        /// The decoded chunk, or the wire error rendered reader-side.
        pairs: Result<Vec<(K, V)>, String>,
        bytes: u64,
    },
    Gone(usize),
}

struct WorkerHandle {
    child: Child,
    stdin: Option<ChildStdin>,
    reader: Option<std::thread::JoinHandle<()>>,
    dead: bool,
}

impl WorkerHandle {
    fn spawn<K, V>(
        bin: &Path,
        job_frame: &[u8],
        server: usize,
        tx: Sender<ExecEvent<K, V>>,
    ) -> Result<Self, String>
    where
        K: Key + Wire,
        V: Value + Wire,
    {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("failed to spawn worker {}: {e}", bin.display()))?;
        let mut stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        write_frame(&mut stdin, job_frame).map_err(frame_io)?;
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            loop {
                match read_frame(&mut r) {
                    Ok(Some(frame)) => match FromWorker::from_bytes(&frame) {
                        Ok(FromWorker::Output {
                            task,
                            attempt,
                            partition,
                            pairs,
                        }) => {
                            let ev = ExecEvent::Output {
                                task,
                                attempt,
                                partition,
                                pairs: decode_pairs::<K, V>(&pairs)
                                    .map_err(|e| format!("corrupt output chunk: {e}")),
                                bytes: frame.len() as u64,
                            };
                            if tx.send(ev).is_err() {
                                break;
                            }
                        }
                        Ok(msg) => {
                            if tx.send(ExecEvent::Msg(msg, frame.len() as u64)).is_err() {
                                break;
                            }
                        }
                        Err(_) => {
                            let _ = tx.send(ExecEvent::Gone(server));
                            break;
                        }
                    },
                    _ => {
                        let _ = tx.send(ExecEvent::Gone(server));
                        break;
                    }
                }
            }
        });
        Ok(WorkerHandle {
            child,
            stdin: Some(stdin),
            reader: Some(reader),
            dead: false,
        })
    }

    /// Reaps the child: close stdin, escalate SIGTERM → SIGKILL if it
    /// doesn't exit, and always `wait()` so no zombie survives.
    fn reap(&mut self, grace: Duration) {
        self.stdin.take();
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            approxhadoop_ipc::process::sigterm(self.child.id());
            let deadline = Instant::now() + Duration::from_millis(500);
            while Instant::now() < deadline {
                if matches!(self.child.try_wait(), Ok(Some(_))) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

struct Inflight {
    server: usize,
    kill: Arc<AtomicBool>,
    kill_sent: bool,
}

/// Decoded output partitions stashed per `(task, attempt)` until the
/// attempt's terminal frame arrives.
type OutputStash<K, V> = HashMap<(u64, u32), Vec<Vec<(K, V)>>>;

/// [`Executor`] backed by worker processes, one map slot each.
pub(super) struct ProcessExecutor<K: Key + Wire, V: Value + Wire> {
    bin: PathBuf,
    job_frame: Vec<u8>,
    workers: Vec<WorkerHandle>,
    ev_tx: Sender<ExecEvent<K, V>>,
    ev_rx: Receiver<ExecEvent<K, V>>,
    inflight: HashMap<(u64, u32), Inflight>,
    stash: OutputStash<K, V>,
    /// Worker spans stashed per `(task, attempt)` between the attempt's
    /// `Telemetry` frame and its `Done` frame.
    span_stash: HashMap<(u64, u32), Vec<RemoteSpan>>,
    pending: VecDeque<WorkerMsg>,
    reducer_txs: Vec<Sender<ReduceEvent<K, V>>>,
    /// `Some` exactly when the job spec carries a telemetry label.
    obs: Option<ProcObs>,
}

impl<K: Key + Wire, V: Value + Wire> ProcessExecutor<K, V> {
    pub(super) fn new(
        bin: &Path,
        job_frame: Vec<u8>,
        workers: usize,
        reducer_txs: Vec<Sender<ReduceEvent<K, V>>>,
        obs: Option<ProcObs>,
    ) -> crate::Result<Self> {
        let (ev_tx, ev_rx) = channel();
        let mut handles = Vec::with_capacity(workers);
        for server in 0..workers {
            match WorkerHandle::spawn(bin, &job_frame, server, ev_tx.clone()) {
                Ok(h) => handles.push(h),
                Err(what) => {
                    for mut h in handles {
                        h.reap(Duration::from_millis(100));
                    }
                    return Err(RuntimeError::WorkerLost { what });
                }
            }
        }
        if let Some(o) = &obs {
            o.frames_tx.add(workers as u64);
            o.bytes_tx.add(workers as u64 * job_frame.len() as u64);
        }
        Ok(ProcessExecutor {
            bin: bin.to_path_buf(),
            job_frame,
            workers: handles,
            ev_tx,
            ev_rx,
            inflight: HashMap::new(),
            stash: HashMap::new(),
            span_stash: HashMap::new(),
            pending: VecDeque::new(),
            reducer_txs,
            obs,
        })
    }

    /// Writes one frame to `server`'s worker, respawning it first when
    /// `respawn` is set and the previous incarnation died.
    fn send_to(&mut self, server: usize, frame: &[u8], respawn: bool) -> Result<(), String> {
        if self.workers[server].dead {
            if !respawn {
                return Ok(());
            }
            let mut fresh =
                WorkerHandle::spawn(&self.bin, &self.job_frame, server, self.ev_tx.clone())
                    .map_err(|e| format!("respawn failed: {e}"))?;
            std::mem::swap(&mut self.workers[server], &mut fresh);
            fresh.reap(Duration::from_millis(100));
            if let Some(o) = &self.obs {
                o.restarts.inc();
                o.frames_tx.inc();
                o.bytes_tx.add(self.job_frame.len() as u64);
            }
        }
        let handle = &mut self.workers[server];
        let Some(stdin) = handle.stdin.as_mut() else {
            return Err("worker stdin already closed".into());
        };
        match write_frame(stdin, frame) {
            Ok(()) => {
                if let Some(o) = &self.obs {
                    o.frames_tx.inc();
                    o.bytes_tx.add(frame.len() as u64);
                }
                Ok(())
            }
            Err(e) => {
                handle.dead = true;
                Err(frame_io(e))
            }
        }
    }

    /// Ends an attempt that will deliver no output: forgets its stashed
    /// chunks and spans and queues `msg` as its terminal message. A no-op
    /// for attempts already terminated.
    fn abandon(&mut self, key: (u64, u32), msg: WorkerMsg) {
        if self.inflight.remove(&key).is_some() {
            self.stash.remove(&key);
            self.span_stash.remove(&key);
            self.pending.push_back(msg);
        }
    }

    /// Synthesizes a [`RuntimeError::WorkerLost`] failure for an
    /// attempt whose worker can no longer report it.
    fn fail_attempt(&mut self, key: (u64, u32), what: String) {
        self.abandon(
            key,
            WorkerMsg::Failed {
                task: TaskId(key.0 as usize),
                attempt: key.1,
                error: RuntimeError::WorkerLost { what },
            },
        );
    }

    /// Forwards freshly raised kill flags as `Kill` frames. Sound
    /// without polling because only the tracker thread raises kill
    /// flags, and it calls an executor verb immediately afterwards.
    fn forward_kills(&mut self) {
        let mut kills = Vec::new();
        for (key, e) in self.inflight.iter_mut() {
            if !e.kill_sent && e.kill.load(Ordering::SeqCst) {
                e.kill_sent = true;
                kills.push((e.server, key.0, key.1));
            }
        }
        for (server, task, attempt) in kills {
            let frame = ToWorker::Kill { task, attempt }.to_bytes();
            // A failed write means the worker died; its Gone event will
            // synthesize the terminal message for this attempt.
            let _ = self.send_to(server, &frame, false);
        }
    }

    fn handle(&mut self, ev: ExecEvent<K, V>) {
        match ev {
            ExecEvent::Msg(msg, bytes) => {
                if let Some(o) = &self.obs {
                    o.frames_rx.inc();
                    o.bytes_rx.add(bytes);
                }
                self.handle_msg(msg);
            }
            ExecEvent::Output {
                task,
                attempt,
                partition,
                pairs,
                bytes,
            } => {
                if let Some(o) = &self.obs {
                    o.frames_rx.inc();
                    o.bytes_rx.add(bytes);
                }
                let key = (task, attempt);
                if !self.inflight.contains_key(&key) {
                    return;
                }
                let partitions = self.reducer_txs.len();
                match pairs {
                    Ok(decoded) if (partition as usize) < partitions => {
                        self.stash
                            .entry(key)
                            .or_insert_with(|| (0..partitions).map(|_| Vec::new()).collect())
                            [partition as usize]
                            .extend(decoded);
                    }
                    Ok(_) => self.fail_attempt(
                        key,
                        format!("worker sent output for unknown partition {partition}"),
                    ),
                    Err(e) => self.fail_attempt(key, e),
                }
            }
            ExecEvent::Gone(server) => {
                self.workers[server].dead = true;
                let lost: Vec<(u64, u32)> = self
                    .inflight
                    .iter()
                    .filter(|(_, e)| e.server == server)
                    .map(|(k, _)| *k)
                    .collect();
                for key in lost {
                    self.fail_attempt(
                        key,
                        format!(
                            "worker process for server {server} exited while running {} (attempt {})",
                            TaskId(key.0 as usize),
                            key.1
                        ),
                    );
                }
            }
        }
    }

    fn handle_msg(&mut self, msg: FromWorker) {
        match msg {
            FromWorker::Ready => {}
            // Output chunks are decoded reader-side and arrive as
            // `ExecEvent::Output`; one reaching this path would mean the
            // reader forwarded it undecoded, which it never does.
            FromWorker::Output { .. } => unreachable!("Output frames are decoded reader-side"),
            FromWorker::Done {
                attempt,
                stats,
                // Spill totals now originate on the worker's registry at
                // actual spill time and arrive merged via the attempt's
                // Telemetry frame (which precedes Done); the Done copy
                // is kept as the attempt's drain report, not re-counted
                // here — adding it too would double the totals.
                spill_runs: _,
                spill_bytes: _,
            } => {
                let key = (stats.task.0 as u64, attempt);
                if self.inflight.remove(&key).is_none() {
                    return;
                }
                let partitions = self.reducer_txs.len();
                let parts = self
                    .stash
                    .remove(&key)
                    .unwrap_or_else(|| (0..partitions).map(|_| Vec::new()).collect());
                let meta = MapOutputMeta::from(&stats);
                // One MapOutput per reducer even when the batch is
                // empty — identical to `shuffle::ship_outputs`.
                for (p, pairs) in parts.into_iter().enumerate() {
                    let _ = self.reducer_txs[p].send(ReduceEvent::MapOutput { meta, pairs });
                }
                let spans = self.span_stash.remove(&key).unwrap_or_default();
                self.pending.push_back(WorkerMsg::Completed {
                    stats,
                    attempt,
                    spans,
                });
            }
            FromWorker::Killed { task, attempt } => self.abandon(
                (task, attempt),
                WorkerMsg::Killed {
                    task: TaskId(task as usize),
                    attempt,
                },
            ),
            FromWorker::Failed {
                task,
                attempt,
                error,
            } => self.abandon(
                (task, attempt),
                WorkerMsg::Failed {
                    task: TaskId(task as usize),
                    attempt,
                    error: error.into_error(),
                },
            ),
            FromWorker::Telemetry {
                task,
                attempt,
                counters,
                spans,
            } => {
                let key = (task, attempt);
                if !self.inflight.contains_key(&key) {
                    return;
                }
                let Some(obs) = &self.obs else { return };
                // Counters merge immediately — a live /metrics scrape
                // should reflect worker activity without waiting for the
                // tracker to consume the attempt's Completed message.
                let deltas: Vec<CounterDelta> = counters
                    .into_iter()
                    .map(|(name, labels, delta)| CounterDelta {
                        name,
                        labels,
                        delta,
                    })
                    .collect();
                obs.parent.registry.merge_delta(&deltas);
                // Spans wait for Done: they ride on the Completed message
                // so the tracker can graft them under the attempt's span.
                self.span_stash
                    .entry(key)
                    .or_default()
                    .extend(
                        spans
                            .into_iter()
                            .map(|(name, category, rel_ts_us, dur_us)| RemoteSpan {
                                name,
                                category,
                                rel_ts_us,
                                dur_us,
                            }),
                    );
            }
        }
    }
}

impl<K: Key + Wire, V: Value + Wire> Executor for ProcessExecutor<K, V> {
    fn dispatch(&mut self, server: usize, work: WorkItem) -> bool {
        self.forward_kills();
        let key = (work.task.0 as u64, work.attempt);
        let frame = ToWorker::Work(WireWorkItem {
            task: key.0,
            dataset: work.dataset.0,
            attempt: work.attempt,
            sampling_ratio: work.sampling_ratio,
            seed: work.seed,
            combining: work.combining,
            fault: work.fault.as_deref().cloned(),
            span: work.span,
        })
        .to_bytes();
        self.inflight.insert(
            key,
            Inflight {
                server,
                kill: Arc::clone(&work.kill),
                kill_sent: false,
            },
        );
        if let Err(what) = self.send_to(server, &frame, true) {
            // Dispatch itself always "succeeds": the attempt is
            // registered and immediately failed with WorkerLost, which
            // feeds the tracker's retry path instead of failing the job.
            self.fail_attempt(key, what);
        }
        true
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome {
        self.forward_kills();
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.pending.pop_front() {
                return RecvOutcome::Msg(msg);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.ev_rx.recv_timeout(remaining) {
                Ok(ev) => self.handle(ev),
                Err(RecvTimeoutError::Timeout) => return RecvOutcome::Timeout,
                // Unreachable in practice: this executor holds `ev_tx`.
                Err(RecvTimeoutError::Disconnected) => return RecvOutcome::Closed,
            }
        }
    }

    fn notify_drop(&mut self, task: usize) {
        shuffle::broadcast_drop(&self.reducer_txs, task);
    }
}

impl<K: Key + Wire, V: Value + Wire> Drop for ProcessExecutor<K, V> {
    /// Graceful worker shutdown: Shutdown frame + stdin EOF, a short
    /// grace period, then SIGTERM and finally SIGKILL — and always a
    /// `wait()`, so no worker outlives the job as an orphan or zombie.
    fn drop(&mut self) {
        let bye = ToWorker::Shutdown.to_bytes();
        for w in &mut self.workers {
            if !w.dead {
                if let Some(stdin) = w.stdin.as_mut() {
                    let _ = write_frame(stdin, &bye);
                }
            }
        }
        for w in &mut self.workers {
            w.reap(Duration::from_secs(2));
        }
    }
}

/// Decodes a chunk of back-to-back `(key, value)` encodings.
fn decode_pairs<K: Wire, V: Wire>(buf: &[u8]) -> Result<Vec<(K, V)>, approxhadoop_ipc::WireError> {
    let mut d = Decoder::new(buf);
    let mut out = Vec::new();
    while d.remaining() > 0 {
        let k = K::decode(&mut d)?;
        let v = V::decode(&mut d)?;
        out.push((k, v));
    }
    Ok(out)
}
