//! The multi-process execution backend: map attempts run in separate
//! worker OS processes, talking to the scheduler over length-prefixed
//! pipe frames, with a spill-capable shuffle on the worker side.
//!
//! # Architecture
//!
//! ```text
//! parent (tracker thread)                 worker process (×N)
//! ┌──────────────────────┐   ToWorker    ┌─────────────────────┐
//! │ JobTracker           │ ───frames───▶ │ worker_main loop    │
//! │   └─ ProcessExecutor │   (stdin)     │   └─ JobRegistry    │
//! │        │             │               │        └─ mapper    │
//! │        │             │  FromWorker   │   SpillShuffle      │
//! │   reducer threads ◀──┼ ◀──frames──── │   (mem → runs →     │
//! └──────────────────────┘   (stdout)    │    merge on drain)  │
//!                                        └─────────────────────┘
//!              shared: input spool file (FileStore, mmap)
//! ```
//!
//! The parent snapshots the job's input into a spool file
//! ([`approxhadoop_dfs::FileStore`]); workers `mmap` it and decode only
//! the blocks they are assigned, so input bytes cross the process
//! boundary zero-copy through the page cache rather than through the
//! pipes. Each worker is one map slot on its own simulated server, so
//! locality, speculation, blacklisting and degrade-to-drop behave
//! exactly as on the scoped backend.
//!
//! Closures cannot be shipped to another process, so process-backend
//! jobs are *named*: the worker binary registers mappers in a
//! [`JobRegistry`] and the parent sends a [`WorkerSpec`] naming one of
//! them plus an opaque params blob.
//!
//! # Who owns what
//!
//! [`run_job_process`] contributes to the engine's one job driver
//! (`engine::executor::drive`) only what is this backend's own: the
//! one-slot-per-worker topology and a closure that creates the scratch
//! directory, writes the spool, encodes the job frame and spawns the
//! `ProcessExecutor`. Reducers, the tracker loop, shutdown order and
//! finalisation are the driver's. Likewise the worker runs the engine's
//! one attempt body; `registry` adds the spool source, the spill sink
//! and the frames.
//!
//! # Failure semantics
//!
//! A worker that crashes (abort, OOM-kill, `kill -9`) surfaces as pipe
//! EOF; the executor synthesizes a [`RuntimeError::WorkerLost`]
//! failure for every attempt it owed, which flows into the tracker's
//! bounded-retry / blacklist / degrade-to-drop machinery like any other
//! task failure — and degraded tasks still widen the job's confidence
//! intervals per Eq. 1–3 of the paper. The dead worker is respawned on
//! the next dispatch to its slot.

pub mod wire;

mod executor;
mod registry;
pub(super) mod spill;

pub use registry::{worker_main, worker_obs, JobRegistry};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use approxhadoop_dfs::{BlockId, FileStoreWriter};
use approxhadoop_ipc::Wire;

use crate::control::Coordinator;
use crate::event::JobSession;
use crate::input::InputSource;
use crate::reducer::Reducer;
use crate::types::{Key, Value};
use crate::{Result, RuntimeError};

use super::clock::SystemClock;
use super::executor::{drive, ReducePlacement, Topology};
use super::{JobConfig, JobResult};

use executor::{ProcObs, ProcessExecutor};
use wire::{ToWorker, WorkerJobSpec};

/// Which worker binary to launch and which registered job it should run.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Path of the worker executable (a binary calling [`worker_main`]).
    pub bin: PathBuf,
    /// Name of the job in the worker's [`JobRegistry`].
    pub job: String,
    /// Opaque parameters handed to the registered builder.
    pub params: Vec<u8>,
}

impl WorkerSpec {
    /// A spec for `job` in the worker binary at `bin`, with no params.
    pub fn new(bin: impl Into<PathBuf>, job: impl Into<String>) -> Self {
        WorkerSpec {
            bin: bin.into(),
            job: job.into(),
            params: Vec::new(),
        }
    }

    /// Attaches an opaque params blob for the worker-side job builder.
    #[must_use]
    pub fn with_params(mut self, params: Vec<u8>) -> Self {
        self.params = params;
        self
    }

    /// Resolves a worker binary installed next to the current
    /// executable — the layout `cargo` produces for sibling `[[bin]]`
    /// targets and the one deployments ship. Inside a test harness the
    /// executable lives one level down in `deps/`, so the parent
    /// directory is consulted too.
    pub fn sibling(bin_name: &str, job: impl Into<String>) -> Result<Self> {
        let exe = std::env::current_exe()
            .map_err(|e| RuntimeError::invalid(format!("cannot locate current executable: {e}")))?;
        let mut dirs: Vec<PathBuf> = Vec::new();
        if let Some(dir) = exe.parent() {
            dirs.push(dir.to_path_buf());
            if dir.file_name().is_some_and(|n| n == "deps") {
                if let Some(up) = dir.parent() {
                    dirs.push(up.to_path_buf());
                }
            }
        }
        for dir in &dirs {
            let candidate = dir.join(bin_name);
            if candidate.is_file() {
                return Ok(WorkerSpec::new(candidate, job));
            }
        }
        Err(RuntimeError::invalid(format!(
            "worker binary {bin_name:?} not found next to {}",
            exe.display()
        )))
    }
}

/// Runs a job on the process backend: `config.workers` worker processes
/// are spawned from `spec.bin`, each holding one map slot, and the job
/// named by `spec.job` runs inside them.
///
/// Mirrors [`run_job_with_session`](super::run_job_with_session) —
/// same coordinator/session semantics (cancellation, deadline, event
/// stream), same scheduler — with these differences:
///
/// * the mapper is named via `spec` instead of passed as a value (it
///   must be registered in the worker binary's [`JobRegistry`]);
/// * the input is snapshotted into a spool file read by the workers via
///   `mmap`, so `S::Item` must implement [`Wire`], as must the job's
///   key and value types;
/// * map output buffered beyond `config.shuffle_mem_bytes` spills
///   sorted runs to disk and is merged back while shipping, so
///   shuffles larger than memory complete (results are identical
///   either way).
pub fn run_job_process<S, R, FR>(
    input: &S,
    spec: &WorkerSpec,
    make_reducer: FR,
    config: JobConfig,
    coordinator: &mut dyn Coordinator,
    session: &JobSession,
) -> Result<JobResult<R::Output>>
where
    S: InputSource,
    S::Item: Wire,
    R: Reducer,
    R::Key: Key + Wire,
    R::Value: Value + Wire,
    FR: Fn(usize) -> R + Sync,
{
    config.validate()?;
    // Created by the build closure, dropped when this function returns —
    // after the driver has dropped the executor and reaped the workers.
    let mut scratch_guard = None;
    let label = session.job.to_string();
    let topology = Topology {
        capacity: vec![1; config.workers],
        placement: true,
    };
    drive(
        input.splits(),
        make_reducer,
        &config,
        topology,
        ReducePlacement::Threads,
        coordinator,
        session,
        &SystemClock,
        |_, reducer_txs, splits| {
            // Scratch space for the spool and the workers' spill runs.
            let scratch = config
                .spill_dir
                .clone()
                .unwrap_or_else(std::env::temp_dir)
                .join(format!(
                    "approxhadoop-job-{}-{}-{}",
                    std::process::id(),
                    session.job.0,
                    SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed),
                ));
            std::fs::create_dir_all(&scratch).map_err(|e| {
                RuntimeError::invalid(format!(
                    "cannot create scratch dir {}: {e}",
                    scratch.display()
                ))
            })?;
            scratch_guard = Some(ScratchGuard(scratch.clone()));
            let spool = scratch.join("input.spool");
            write_spool(input, splits.len(), &spool)?;

            let job_frame = ToWorker::Job(WorkerJobSpec {
                job: spec.job.clone(),
                params: spec.params.clone(),
                spool: spool.to_string_lossy().into_owned(),
                num_reducers: config.reduce_tasks as u32,
                shuffle_mem_bytes: config.shuffle_mem_bytes as u64,
                spill_dir: scratch.join("spill").to_string_lossy().into_owned(),
                // A non-empty label switches worker-side telemetry on:
                // workers run their own registry/tracer and piggyback
                // deltas on the frame stream.
                telemetry_label: config
                    .obs
                    .as_ref()
                    .map(|_| label.clone())
                    .unwrap_or_default(),
                datasets: dataset_table(splits),
            })
            .to_bytes();
            ProcessExecutor::new(
                &spec.bin,
                job_frame,
                config.workers,
                reducer_txs,
                config.obs.as_ref().map(|o| ProcObs::new(o, &label)),
            )
        },
    )
}

/// Distinguishes concurrent jobs of one process in scratch-dir names.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Owns the job's scratch directory (input spool + worker spill runs)
/// and removes it on drop, which must come after the workers are reaped.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Snapshots every split into a spool file the workers can `mmap`:
/// one block per map task, payload = back-to-back item encodings.
/// Builds the job spec's dataset table from the splits: one
/// `(dataset, split count)` entry per distinct dataset, in dataset
/// order. Single-input jobs (every split tagged dataset 0) get an
/// empty table so their spec bytes are unchanged from before
/// multi-input support.
fn dataset_table(splits: &[crate::input::SplitMeta]) -> Vec<(u32, u64)> {
    let mut table: Vec<(u32, u64)> = Vec::new();
    for s in splits {
        match table.iter_mut().find(|(d, _)| *d == s.dataset.0) {
            Some((_, n)) => *n += 1,
            None => table.push((s.dataset.0, 1)),
        }
    }
    table.sort_by_key(|&(d, _)| d);
    if table.len() == 1 && table[0].0 == 0 {
        Vec::new()
    } else {
        table
    }
}

fn write_spool<S>(input: &S, total: usize, path: &Path) -> Result<()>
where
    S: InputSource,
    S::Item: Wire,
{
    let mut writer = FileStoreWriter::create(path)?;
    let mut payload = Vec::new();
    for i in 0..total {
        payload.clear();
        let stream = input.stream_split(i, 1.0, 0)?;
        let expect = stream.total;
        let mut yielded = 0u64;
        for item in stream {
            item.encode(&mut payload);
            yielded += 1;
        }
        if yielded != expect {
            return Err(RuntimeError::invalid(format!(
                "split {i} advertises {expect} records but yielded {yielded}"
            )));
        }
        writer.append(BlockId(i as u64), expect, &payload)?;
    }
    writer.finish()?;
    Ok(())
}
