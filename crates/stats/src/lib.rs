//! Statistical substrate for ApproxHadoop-RS.
//!
//! This crate implements, from scratch, every piece of statistics the
//! ApproxHadoop paper (ASPLOS 2015) relies on:
//!
//! * **Multi-stage cluster sampling** ([`multistage`]) — the theory behind
//!   error bounds for aggregation reduces (sum, count, mean, ratio) when
//!   map tasks are dropped (cluster sampling) and/or input data items are
//!   sampled within a block (second-stage sampling). Equations (1)–(3) and
//!   (6)–(7) of the paper.
//! * **Extreme value theory** ([`gev`]) — Generalized Extreme Value
//!   fitting via Block Minima/Maxima + maximum likelihood, used to bound
//!   errors of min/max reduces when map tasks are dropped.
//! * **Distributions** ([`dist`]) — Normal, Student-t and GEV with pdf,
//!   cdf and quantile functions, built on from-scratch [`special`]
//!   functions (ln-gamma, incomplete beta/gamma, error function).
//! * **Numerical optimisation** ([`opt`]) — Nelder–Mead simplex, for the
//!   GEV MLE.
//! * **Sampling primitives** ([`sampling`]) — the systematic sampler
//!   (the paper's "1 out of every k items"), map-task selection, and a
//!   bounded Zipf generator used by the synthetic workloads.
//! * **Stratified estimation** ([`stratified`]) — per-stratum two-stage
//!   estimators with quadrature interval combination; the statistics
//!   behind approximate joins.
//! * **Distinct-key extrapolation** ([`distinct`]) — the Chao1 estimate
//!   of how many keys a sample missed.
//! * **Bloom filters** ([`bloom`]) — seeded, bit-reproducible filters
//!   for map-side join pre-filtering (ApproxJoin's filtering stage).
//!
//! # Example: two-stage sampling with error bounds
//!
//! ```
//! use approxhadoop_stats::multistage::{
//!     ClusterObservation, ExecutedClusters, TwoStageEstimator,
//! };
//!
//! // Population: 100 blocks; we executed 4 of them, each holding 1000
//! // items of which 100 were sampled.
//! let observations: Vec<ClusterObservation> = [5010.0f64, 4985.0, 5102.0, 4933.0]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, sum)| ClusterObservation {
//!         cluster_id: i as u64,
//!         total_units: 1000,
//!         sampled_units: 100,
//!         sum: *sum,
//!         sum_sq: sum * sum / 60.0, // toy second moment
//!     })
//!     .collect();
//! // What every key of the job shares: N, n, census, the t lookup.
//! let executed = ExecutedClusters::new(
//!     100,
//!     observations.iter().map(|o| (o.total_units, o.sampled_units)),
//!     0.95,
//! );
//! // One key's interval from the clusters it appeared in (here: all).
//! let parts = TwoStageEstimator::from_present(&executed, observations.iter().copied()).unwrap();
//! let interval = parts.interval().unwrap();
//! assert!(interval.half_width > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod describe;
pub mod dist;
pub mod distinct;
pub mod error;
pub mod gev;
pub mod interval;
pub mod multistage;
pub mod opt;
pub mod sampling;
pub mod special;
pub mod stratified;

pub use error::StatsError;
pub use interval::Interval;

/// Result alias for fallible statistical computations.
pub type Result<T> = std::result::Result<T, StatsError>;
