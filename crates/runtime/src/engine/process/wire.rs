//! The process backend's wire protocol: typed frames exchanged between
//! the parent (scheduler side) and a worker process over the worker's
//! stdin/stdout pipes.
//!
//! Every frame is a length-prefixed byte payload
//! ([`approxhadoop_ipc::write_frame`]) whose body is the
//! [`Wire`] encoding of [`ToWorker`]
//! (parent → worker) or [`FromWorker`] (worker → parent). Map output
//! pairs travel as opaque byte chunks inside [`FromWorker::Output`] —
//! the parent decodes them with the job's key/value types, so the
//! protocol layer itself stays generic-free, mirroring how
//! [`WorkItem`](crate::engine::WorkItem) /
//! [`WorkerMsg`](crate::engine::WorkerMsg) keep the scheduler
//! generic-free in process.

use approxhadoop_ipc::{Decoder, Wire, WireError};

use crate::fault::FaultPlan;
use crate::input::DatasetId;
use crate::metrics::MapStats;
use crate::types::TaskId;
use crate::RuntimeError;

impl Wire for FaultPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seed.encode(out);
        self.map_panic_prob.encode(out);
        self.map_io_error_prob.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(FaultPlan {
            seed: Wire::decode(d)?,
            map_panic_prob: Wire::decode(d)?,
            map_io_error_prob: Wire::decode(d)?,
        })
    }
}

/// Everything a worker needs to set itself up for one job; sent as the
/// first frame after spawn.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerJobSpec {
    /// Registry name of the job to run (see
    /// [`JobRegistry`](super::JobRegistry)).
    pub job: String,
    /// Opaque job parameters, decoded by the registered builder.
    pub params: Vec<u8>,
    /// Path of the input spool file
    /// ([`approxhadoop_dfs::FileStore`]) holding one block per map task.
    pub spool: String,
    /// Number of reduce partitions.
    pub num_reducers: u32,
    /// In-memory shuffle budget in bytes before spilling.
    pub shuffle_mem_bytes: u64,
    /// Directory for spill run files.
    pub spill_dir: String,
    /// Job label for worker-side telemetry (`job` label on worker
    /// counters). Empty means telemetry is disabled and the worker
    /// sends no [`FromWorker::Telemetry`] frames.
    pub telemetry_label: String,
    /// The job's dataset table: `(dataset id, split count)` per dataset,
    /// in dataset order. Empty means a single-input job (every work item
    /// must be tagged dataset 0). Workers validate incoming
    /// [`WireWorkItem::dataset`] tags against this table and reject
    /// mismatches as job errors rather than aborting the process.
    pub datasets: Vec<(u32, u64)>,
}

impl WorkerJobSpec {
    /// Whether `dataset` is admissible under this spec's dataset table:
    /// an empty table admits only dataset 0 (single-input job), a
    /// non-empty table admits exactly its listed ids.
    pub fn admits_dataset(&self, dataset: u32) -> bool {
        if self.datasets.is_empty() {
            dataset == 0
        } else {
            self.datasets.iter().any(|&(d, _)| d == dataset)
        }
    }
}

impl Wire for WorkerJobSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.params.encode(out);
        self.spool.encode(out);
        self.num_reducers.encode(out);
        self.shuffle_mem_bytes.encode(out);
        self.spill_dir.encode(out);
        self.telemetry_label.encode(out);
        self.datasets.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(WorkerJobSpec {
            job: Wire::decode(d)?,
            params: Wire::decode(d)?,
            spool: Wire::decode(d)?,
            num_reducers: Wire::decode(d)?,
            shuffle_mem_bytes: Wire::decode(d)?,
            spill_dir: Wire::decode(d)?,
            telemetry_label: Wire::decode(d)?,
            datasets: Wire::decode(d)?,
        })
    }
}

/// The plain-data fields of a [`WorkItem`](crate::engine::WorkItem),
/// serializable across the process boundary. The in-process kill flag
/// is replaced by explicit [`ToWorker::Kill`] frames.
#[derive(Debug, Clone, PartialEq)]
pub struct WireWorkItem {
    /// Map task index.
    pub task: u64,
    /// Dataset tag of the task's split (0 for single-input jobs).
    pub dataset: u32,
    /// Attempt number.
    pub attempt: u32,
    /// Input sampling ratio for this attempt.
    pub sampling_ratio: f64,
    /// Per-task read seed (attempt-independent).
    pub seed: u64,
    /// Whether map-side combining is enabled.
    pub combining: bool,
    /// Deterministic fault-injection plan, if any.
    pub fault: Option<FaultPlan>,
    /// Parent-allocated span id of the task attempt (0 when tracing is
    /// off); worker spans from this attempt are parented under it.
    pub span: u64,
}

impl Wire for WireWorkItem {
    fn encode(&self, out: &mut Vec<u8>) {
        self.task.encode(out);
        self.dataset.encode(out);
        self.attempt.encode(out);
        self.sampling_ratio.encode(out);
        self.seed.encode(out);
        self.combining.encode(out);
        self.fault.encode(out);
        self.span.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(WireWorkItem {
            task: Wire::decode(d)?,
            dataset: Wire::decode(d)?,
            attempt: Wire::decode(d)?,
            sampling_ratio: Wire::decode(d)?,
            seed: Wire::decode(d)?,
            combining: Wire::decode(d)?,
            fault: Wire::decode(d)?,
            span: Wire::decode(d)?,
        })
    }
}

/// Frames the parent sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Job setup; always the first frame.
    Job(WorkerJobSpec),
    /// Run one map attempt.
    Work(WireWorkItem),
    /// Abort a previously dispatched attempt (the wire form of raising
    /// the in-process kill flag).
    Kill {
        /// Task of the attempt to abort.
        task: u64,
        /// Attempt number to abort.
        attempt: u32,
    },
    /// Exit cleanly; no further frames follow.
    Shutdown,
}

impl Wire for ToWorker {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ToWorker::Job(spec) => {
                0u8.encode(out);
                spec.encode(out);
            }
            ToWorker::Work(work) => {
                1u8.encode(out);
                work.encode(out);
            }
            ToWorker::Kill { task, attempt } => {
                2u8.encode(out);
                task.encode(out);
                attempt.encode(out);
            }
            ToWorker::Shutdown => 3u8.encode(out),
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match u8::decode(d)? {
            0 => Ok(ToWorker::Job(Wire::decode(d)?)),
            1 => Ok(ToWorker::Work(Wire::decode(d)?)),
            2 => Ok(ToWorker::Kill {
                task: Wire::decode(d)?,
                attempt: Wire::decode(d)?,
            }),
            3 => Ok(ToWorker::Shutdown),
            _ => Err(WireError::Corrupt {
                what: "ToWorker frame tag",
            }),
        }
    }
}

/// Wire form of [`MapStats`]: `task` as `u64`, `dataset` as `u32`, the
/// rest as declared.
impl Wire for MapStats {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.task.0 as u64).encode(out);
        self.dataset.0.encode(out);
        self.total_records.encode(out);
        self.sampled_records.encode(out);
        self.emitted.encode(out);
        self.shuffled.encode(out);
        self.duration_secs.encode(out);
        self.read_secs.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let stats = MapStats {
            task: TaskId(u64::decode(d)? as usize),
            dataset: DatasetId(Wire::decode(d)?),
            total_records: Wire::decode(d)?,
            sampled_records: Wire::decode(d)?,
            emitted: Wire::decode(d)?,
            shuffled: Wire::decode(d)?,
            duration_secs: Wire::decode(d)?,
            read_secs: Wire::decode(d)?,
        };
        // `m_i > M_i` is no sample of the block: every estimator would
        // reject every key, and the job would return an empty output.
        if stats.sampled_records > stats.total_records {
            return Err(WireError::Corrupt {
                what: "MapStats sampled_records > total_records",
            });
        }
        Ok(stats)
    }
}

/// A [`RuntimeError`] crossing the process boundary.
///
/// The two failure shapes the scheduler's event stream renders —
/// injected faults and user-code panics — are reconstructed as their
/// original variants so retry/degrade event payloads are byte-identical
/// to the in-process backends; anything else is carried as its
/// `Display` output and resurfaces as [`RuntimeError::Remote`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireJobError {
    /// 0 = `InjectedFault`, 1 = `TaskPanicked`, 2 = other.
    pub kind: u8,
    /// The variant's description (`what` for 0/1, full `Display` for 2).
    pub what: String,
}

impl WireJobError {
    /// Encodes a worker-side error for the wire.
    pub fn from_error(e: &RuntimeError) -> Self {
        match e {
            RuntimeError::InjectedFault { what } => WireJobError {
                kind: 0,
                what: what.clone(),
            },
            RuntimeError::TaskPanicked { what } => WireJobError {
                kind: 1,
                what: what.clone(),
            },
            other => WireJobError {
                kind: 2,
                what: other.to_string(),
            },
        }
    }

    /// Reconstructs the parent-side [`RuntimeError`].
    pub fn into_error(self) -> RuntimeError {
        match self.kind {
            0 => RuntimeError::InjectedFault { what: self.what },
            1 => RuntimeError::TaskPanicked { what: self.what },
            _ => RuntimeError::Remote { display: self.what },
        }
    }
}

impl Wire for WireJobError {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.what.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let kind = u8::decode(d)?;
        if kind > 2 {
            return Err(WireError::Corrupt {
                what: "WireJobError kind",
            });
        }
        Ok(WireJobError {
            kind,
            what: Wire::decode(d)?,
        })
    }
}

/// A completed worker-side span in wire form:
/// `(name, category, rel_ts_us, dur_us)`. Timestamps are relative to
/// the start of the attempt that produced them — the parent re-bases
/// them into the task-attempt span's window, so worker/parent clock
/// skew never shows in the merged trace.
pub type WireSpan = (String, String, u64, u64);

/// A counter delta in wire form: `(name, labels, delta)`.
pub type WireCounterDelta = (String, Vec<(String, String)>, u64);

/// Frames a worker sends to the parent.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Job setup succeeded; the worker is accepting work.
    Ready,
    /// One chunk of map output for a single reduce partition. Chunks
    /// for an attempt arrive in partition order and are terminated by
    /// the attempt's [`FromWorker::Done`] frame; `pairs` is a
    /// back-to-back sequence of `(key, value)` encodings.
    Output {
        /// Task that produced the chunk.
        task: u64,
        /// Attempt number.
        attempt: u32,
        /// Destination reduce partition.
        partition: u32,
        /// Encoded `(key, value)` pairs, back to back.
        pairs: Vec<u8>,
    },
    /// The attempt completed; all of its `Output` chunks precede this
    /// frame on the pipe.
    Done {
        /// Attempt number that completed.
        attempt: u32,
        /// Execution statistics.
        stats: MapStats,
        /// Spill runs written while buffering this attempt's output.
        spill_runs: u64,
        /// Total bytes of spill runs written.
        spill_bytes: u64,
    },
    /// The attempt observed a kill request and aborted.
    Killed {
        /// The killed task.
        task: u64,
        /// Attempt number.
        attempt: u32,
    },
    /// The attempt failed.
    Failed {
        /// The failed task.
        task: u64,
        /// Attempt number.
        attempt: u32,
        /// The error, in wire form.
        error: WireJobError,
    },
    /// Compact telemetry piggybacked on the attempt's frame stream:
    /// counter deltas since the worker's last report plus the spans the
    /// attempt completed. Sent after the attempt's `Output` chunks and
    /// before its `Done` frame, and only when the job spec carried a
    /// non-empty `telemetry_label`.
    Telemetry {
        /// Task that produced the telemetry.
        task: u64,
        /// Attempt number.
        attempt: u32,
        /// Counter deltas since the worker's previous Telemetry frame.
        counters: Vec<WireCounterDelta>,
        /// Spans completed during the attempt, timestamps relative to
        /// the attempt start.
        spans: Vec<WireSpan>,
    },
}

impl Wire for FromWorker {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FromWorker::Ready => 0u8.encode(out),
            FromWorker::Output {
                task,
                attempt,
                partition,
                pairs,
            } => {
                1u8.encode(out);
                task.encode(out);
                attempt.encode(out);
                partition.encode(out);
                pairs.encode(out);
            }
            FromWorker::Done {
                attempt,
                stats,
                spill_runs,
                spill_bytes,
            } => {
                2u8.encode(out);
                attempt.encode(out);
                stats.encode(out);
                spill_runs.encode(out);
                spill_bytes.encode(out);
            }
            FromWorker::Killed { task, attempt } => {
                3u8.encode(out);
                task.encode(out);
                attempt.encode(out);
            }
            FromWorker::Failed {
                task,
                attempt,
                error,
            } => {
                4u8.encode(out);
                task.encode(out);
                attempt.encode(out);
                error.encode(out);
            }
            FromWorker::Telemetry {
                task,
                attempt,
                counters,
                spans,
            } => {
                5u8.encode(out);
                task.encode(out);
                attempt.encode(out);
                counters.encode(out);
                spans.encode(out);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match u8::decode(d)? {
            0 => Ok(FromWorker::Ready),
            1 => Ok(FromWorker::Output {
                task: Wire::decode(d)?,
                attempt: Wire::decode(d)?,
                partition: Wire::decode(d)?,
                pairs: Wire::decode(d)?,
            }),
            2 => Ok(FromWorker::Done {
                attempt: Wire::decode(d)?,
                stats: Wire::decode(d)?,
                spill_runs: Wire::decode(d)?,
                spill_bytes: Wire::decode(d)?,
            }),
            3 => Ok(FromWorker::Killed {
                task: Wire::decode(d)?,
                attempt: Wire::decode(d)?,
            }),
            4 => Ok(FromWorker::Failed {
                task: Wire::decode(d)?,
                attempt: Wire::decode(d)?,
                error: Wire::decode(d)?,
            }),
            5 => Ok(FromWorker::Telemetry {
                task: Wire::decode(d)?,
                attempt: Wire::decode(d)?,
                counters: Wire::decode(d)?,
                spans: Wire::decode(d)?,
            }),
            _ => Err(WireError::Corrupt {
                what: "FromWorker frame tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_item_roundtrips_with_fault_plan() {
        let w = WireWorkItem {
            task: 9,
            dataset: 1,
            attempt: 2,
            sampling_ratio: 0.25,
            seed: 0xDEAD_BEEF,
            combining: true,
            fault: Some(FaultPlan {
                seed: 7,
                map_panic_prob: 0.1,
                map_io_error_prob: 0.2,
            }),
            span: 41,
        };
        let back = WireWorkItem::from_bytes(&ToWorker::Work(w.clone()).to_bytes()[1..]).unwrap();
        assert_eq!(back, w);
    }

    /// The `Done` frame's bytes, captured before `MapStats` took over
    /// its own wire form from the `WireMapStats` mirror struct: the
    /// layout must never move under a worker built from another commit.
    #[test]
    fn done_frame_bytes_are_pinned() {
        let done = FromWorker::Done {
            attempt: 3,
            stats: MapStats {
                task: TaskId(0x0102_0304_0506_0708),
                dataset: DatasetId(9),
                total_records: 1000,
                sampled_records: 250,
                emitted: 777,
                shuffled: 55,
                duration_secs: 1.5,
                read_secs: 0.25,
            },
            spill_runs: 4,
            spill_bytes: 65536,
        };
        #[rustfmt::skip]
        let golden: [u8; 81] = [
            2, 3, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 9, 0, 0, 0,
            232, 3, 0, 0, 0, 0, 0, 0, 250, 0, 0, 0, 0, 0, 0, 0,
            9, 3, 0, 0, 0, 0, 0, 0, 55, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 248, 63, 0, 0, 0, 0, 0, 0, 208, 63,
            4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
        ];
        assert_eq!(done.to_bytes(), golden);
        assert_eq!(FromWorker::from_bytes(&golden).unwrap(), done);
    }

    #[test]
    fn telemetry_frame_roundtrips() {
        let t = FromWorker::Telemetry {
            task: 4,
            attempt: 1,
            counters: vec![(
                "approx_process_spill_runs_total".to_string(),
                vec![("job".to_string(), "job_0003".to_string())],
                2,
            )],
            spans: vec![("read block".to_string(), "worker".to_string(), 10, 250)],
        };
        let back = FromWorker::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn error_reconstruction_preserves_display() {
        for e in [
            RuntimeError::InjectedFault { what: "x".into() },
            RuntimeError::TaskPanicked { what: "y".into() },
            RuntimeError::invalid("z"),
        ] {
            let display = e.to_string();
            let back = WireJobError::from_bytes(&WireJobError::from_error(&e).to_bytes())
                .unwrap()
                .into_error();
            assert_eq!(back.to_string(), display);
        }
    }

    #[test]
    fn job_spec_dataset_table_roundtrips_and_gates() {
        let spec = WorkerJobSpec {
            job: "join".into(),
            params: vec![1, 2, 3],
            spool: "/tmp/spool".into(),
            num_reducers: 2,
            shuffle_mem_bytes: 1 << 20,
            spill_dir: "/tmp/spill".into(),
            telemetry_label: String::new(),
            datasets: vec![(0, 24), (1, 3)],
        };
        let back = match ToWorker::from_bytes(&ToWorker::Job(spec.clone()).to_bytes()).unwrap() {
            ToWorker::Job(s) => s,
            other => panic!("wrong frame: {other:?}"),
        };
        assert_eq!(back, spec);
        assert!(spec.admits_dataset(0));
        assert!(spec.admits_dataset(1));
        assert!(!spec.admits_dataset(2));
        // Legacy single-input spec: empty table admits only dataset 0.
        let legacy = WorkerJobSpec {
            datasets: vec![],
            ..spec
        };
        assert!(legacy.admits_dataset(0));
        assert!(!legacy.admits_dataset(1));
    }

    #[test]
    fn frame_tags_are_validated() {
        assert!(ToWorker::from_bytes(&[9]).is_err());
        assert!(FromWorker::from_bytes(&[9]).is_err());
        assert!(WireJobError::from_bytes(&[3, 0, 0, 0, 0]).is_err());
    }
}
