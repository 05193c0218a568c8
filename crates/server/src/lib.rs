//! A multi-tenant job service over the ApproxHadoop-RS engine.
//!
//! The paper treats one job at a time: submit, approximate, report a
//! bound. A real cluster runs *many* jobs against *one* set of map
//! slots. This crate adds that service layer:
//!
//! * **[`service::JobService`]** — accepts concurrent submissions and
//!   schedules every job's map tasks onto one shared
//!   [`approxhadoop_runtime::pool::SlotPool`], with start-time fair
//!   queuing weighted per tenant. Each job gets per-job cancellation, an
//!   optional deadline (expiry drops the remaining maps — approximate
//!   completion rather than failure), and a stream of
//!   [`approxhadoop_runtime::event::JobEvent`]s.
//! * **[`admission::AdmissionController`]** — the ApproxHadoop twist on
//!   admission control: when p99 latency exceeds its target or the pool
//!   backlog builds, the service does not reject or queue-forever —
//!   it **degrades** new jobs (raises their drop ratio, lowers their
//!   sampling ratio) inside the [`admission::ApproxBudget`] each caller
//!   declared. An SLO-holding dual controller moves the degrade factor
//!   up under overload, holds it at the knee, and decays it when the
//!   service has clear headroom.
//!
//! ```
//! use std::sync::Arc;
//! use approxhadoop_server::admission::{AdmissionConfig, ApproxBudget};
//! use approxhadoop_server::service::{JobService, JobSpec};
//! use approxhadoop_runtime::input::VecSource;
//! use approxhadoop_runtime::mapper::FnMapper;
//! use approxhadoop_runtime::reducer::GroupedReducer;
//!
//! let service = JobService::new(4, AdmissionConfig::default());
//! let spec = JobSpec {
//!     budget: ApproxBudget::up_to(0.5, 0.25), // degradable under load
//!     ..Default::default()
//! };
//! let handle = service
//!     .submit(
//!         spec,
//!         Arc::new(VecSource::new(vec![vec![1u32, 2], vec![3, 4]])),
//!         Arc::new(FnMapper::new(|x: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *x))),
//!         |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.iter().sum::<u32>())),
//!     )
//!     .unwrap();
//! assert_eq!(handle.wait().unwrap().outputs, vec![10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod loadgen;
pub mod service;

pub use admission::{AdmissionConfig, AdmissionController, ApproxBudget, DegradeDecision};
pub use loadgen::{LoadConfig, LoadReport, SatConfig, SaturationReport, SloSpec};
pub use service::{ErrorGoal, JobHandle, JobService, JobSpec};
