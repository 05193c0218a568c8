//! The repository's benchmark (declared by `BENCHMARK.json` at the root).
//!
//! One command runs one named workload against the real engine, checks
//! every output against a single-threaded reference computed from the
//! same seed, and prints one JSON line of metrics. The engine is driven
//! only through the public API the root `approxhadoop` crate re-exports;
//! spans and counts are recorded by this package's own files, around
//! the calls into each layer (see `README.md`).
//!
//! * [`stats`] — medians, quartiles and tail percentiles.
//! * [`spans`] — the in-memory span log and self-time computation.
//! * [`env`] — environment stamp, `VmHWM`, scratch directory, worker scan.
//! * [`gen`] — seeded inputs and arrival schedules.
//! * [`jobs`] — the map functions shared with the `bench-worker` binary.
//! * [`check`] — reference checkers and their self-test.
//! * [`layers`] — isolated, single-threaded drives of each engine layer.
//! * [`batch`] / [`service`] — the eight workloads.
//! * [`report`] — metric names and units, and the result line.
//! * [`sets`] — running every workload, and two sets against each other.

pub mod batch;
pub mod check;
pub mod env;
pub mod gen;
pub mod jobs;
pub mod layers;
pub mod report;
pub mod service;
pub mod sets;
pub mod spans;
pub mod stats;

/// Engine parallelism, pinned regardless of the host's core count so
/// numbers from different hosts describe the same configuration.
pub const MAP_SLOTS: usize = 2;
/// Reduce tasks of every job.
pub const REDUCE_TASKS: usize = 2;
/// Worker processes of every process-backend job.
pub const WORKERS: usize = 2;
