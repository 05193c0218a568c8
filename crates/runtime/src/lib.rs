//! A multi-threaded MapReduce engine — the "modified Hadoop" of the
//! ApproxHadoop paper, built from scratch in Rust.
//!
//! The engine reproduces the pieces of Hadoop the paper modifies:
//!
//! * a **JobTracker** ([`engine`]) that schedules one map task per input
//!   block, **in random order** (required by the cluster-sampling
//!   theory), on a fixed number of map slots. The scheduler is a single
//!   backend-agnostic state machine; *where* attempts run is a pluggable
//!   executor — job-private task-tracker threads
//!   ([`engine::run_job_with_session`], or [`engine::run_job`] for the
//!   fixed policy under a fresh session), a shared, weighted-fair [`pool::SlotPool`]
//!   ([`engine::run_job_on_pool`], service mode), or separate worker
//!   **processes** with a spill-capable shuffle
//!   ([`engine::run_job_process`], [`engine::process`]);
//! * **task dropping**: tasks can be dropped before launch or **killed
//!   while running**; dropped maps get a distinct terminal state and the
//!   job still completes (paper Section 4.3);
//! * **barrier-less incremental reduce** ([`reducer`]): reduce tasks
//!   consume map outputs as each map finishes, can report error bounds
//!   to the JobTracker, and can request that all remaining maps be
//!   dropped (the Verma et al. extension the paper builds on);
//! * **input data sampling** ([`input`]): every input source reads a
//!   block at a per-task sampling ratio decided at schedule time and
//!   reports `(m_i, M_i)` with the map output;
//! * **speculative execution** of stragglers (duplicate launch, first
//!   completion wins);
//! * **fault tolerance** ([`fault`]): deterministic fault injection
//!   ([`fault::FaultPlan`]), bounded per-task retry with exponential
//!   backoff and server blacklisting, and **degrade-to-drop** — a task
//!   that exhausts its retries is absorbed into the sampling design as
//!   a dropped cluster (widening the confidence interval) instead of
//!   failing the job ([`fault::FaultPolicy`]).
//!
//! Approximation *policy* — error estimation, ratio selection, target
//! bounds — lives in `approxhadoop-core`, which drives this engine
//! through the [`control::Coordinator`] trait and the reduce-side
//! [`control::JobControl`] channel.
//!
//! # Example: word count
//!
//! ```
//! use approxhadoop_runtime::engine::{run_job, JobConfig};
//! use approxhadoop_runtime::input::VecSource;
//! use approxhadoop_runtime::mapper::FnMapper;
//! use approxhadoop_runtime::reducer::GroupedReducer;
//!
//! let blocks = vec![
//!     vec!["a b a".to_string()],
//!     vec!["b c".to_string()],
//! ];
//! let input = VecSource::new(blocks);
//! let mapper = FnMapper::new(|line: &String, emit: &mut dyn FnMut(String, u64)| {
//!     for w in line.split_whitespace() {
//!         emit(w.to_string(), 1);
//!     }
//! });
//! let result = run_job(
//!     &input,
//!     &mapper,
//!     |_| GroupedReducer::new(|key: &String, counts: &[u64]| {
//!         Some((key.clone(), counts.iter().sum::<u64>()))
//!     }),
//!     JobConfig::default(),
//! )
//! .unwrap();
//! let mut counts = result.outputs;
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod control;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod input;
mod instrument;
pub mod mapper;
pub mod metrics;
pub mod pool;
pub mod reducer;
pub mod text;
pub mod types;

pub use combine::{
    CombineTable, Combined, Combiner, FnCombiner, MaxCombiner, MinCombiner, PairSumCombiner,
    SumCombiner,
};
pub use control::{Coordinator, DatasetRatios, FixedCoordinator, JobControl, MapDirective};
pub use engine::{
    run_job, run_job_on_executor, run_job_on_pool, run_job_process, run_job_with_session, Clock,
    Executor, JobConfig, JobResult, RecvOutcome, WorkItem, WorkerMsg, WorkerSpec,
};
pub use error::RuntimeError;
pub use event::{CancelHandle, JobEvent, JobId, JobSession};
pub use fault::{FaultDecision, FaultPlan, FaultPolicy};
pub use mapper::MapTaskContext;
pub use pool::{SlotPool, TenantId};
pub use types::{FxHashMap, FxHasher, Key, Partitioner, TaskId, Value};

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;
