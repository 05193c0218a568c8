//! Discrete-event cluster simulator for ApproxHadoop-RS.
//!
//! The paper evaluates on a 10-server Xeon cluster (and a 60-server Atom
//! cluster for the 12.5 TB runs). This crate reproduces those
//! cluster-scale *timing and energy* results on a laptop:
//!
//! * **the real scheduler**: the engine's one JobTracker runs the job
//!   through [`approxhadoop_runtime::run_job_on_executor`] on a
//!   discrete-event executor and a simulated clock, so waves emerge from
//!   servers with a fixed number of map slots, and drops and kills
//!   follow the same code as live jobs;
//! * the paper's map-task time model `t_map(M, m) = t0 + M·t_r + m·t_p`
//!   (Eq. 5) with optional straggler noise;
//! * the paper's linear power model (60 W idle → 150 W peak per server)
//!   plus an ACPI-S3 sleep state for servers left without work when map
//!   tasks are dropped (Figure 12's energy savings);
//! * **the real approximation stack**: the job's
//!   [`approxhadoop_core::ApproxSpec`] builds the actual
//!   [`approxhadoop_core::target::TargetErrorCoordinator`] or fixed
//!   policy, and a [`approxhadoop_core::multistage::MultiStageReducer`]
//!   receives synthetic per-block statistics, so plans, bounds and early
//!   termination are computed by the same code that runs real jobs.
//!
//! # Example
//!
//! ```
//! use approxhadoop_cluster::{simulate, ClusterSpec, SimJobSpec};
//! use approxhadoop_core::ApproxSpec;
//!
//! let cluster = ClusterSpec::xeon(10);
//! let job = SimJobSpec::log_processing(740, 600_000);
//! let precise = simulate(&cluster, &job, ApproxSpec::Precise, 1).unwrap();
//! let approx = simulate(&cluster, &job, ApproxSpec::target(0.01, 0.95), 1).unwrap();
//! assert!(approx.wall_secs < precise.wall_secs);
//! assert!(approx.bound_rel <= 0.01 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod power;
pub mod sim;
pub mod spec;

pub use power::PowerModel;
pub use sim::{simulate, SimError, SimResult};
pub use spec::{ClusterSpec, KeyStatModel, SimJobSpec};
