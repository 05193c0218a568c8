//! ApproxHadoop-RS core: the approximation mechanisms and error-bounded
//! MapReduce templates of the ASPLOS'15 paper.
//!
//! Three approximation mechanisms (paper Section 3):
//!
//! 1. **Input data sampling** — map tasks process a random subset of
//!    their block's records (mechanism provided by the runtime's input
//!    sources; policy set here).
//! 2. **Task dropping** — only a subset of map tasks executes; the rest
//!    are dropped up front or killed mid-flight.
//! 3. **User-defined approximation** ([`userdef`]) — the user supplies a
//!    precise and an approximate version of the map code.
//!
//! Error bounds come from two statistical theories:
//!
//! * [`multistage`] — templates for **aggregation** reduces (sum, count,
//!   mean): [`multistage::MultiStageMapper`] gathers per-block/per-key
//!   statistics, [`multistage::MultiStageReducer`] applies two-stage
//!   cluster sampling (paper Eq. 1–3) and emits `τ̂ ± ε` per key.
//! * [`ratio`] — the same for **ratio** reduces (`R = Σy / Σx` per
//!   key, the paper's fourth aggregate), with the linearised two-stage
//!   ratio variance.
//! * [`threestage`] — the same where the population is the set of
//!   **intermediate pairs** (blocks → items → pairs; paper Section 3.1,
//!   "Three-stage sampling").
//! * [`extreme`] — templates for **min/max** reduces using Generalized
//!   Extreme Value fitting (paper Section 3.2).
//!
//! The three sampling templates are one mapper and one reduce-side
//! table ([`clusters`]) parameterised by the statistic carried per key
//! per cluster; each module keeps only its statistic and its estimator
//! call.
//!
//! Two usage modes (paper Section 4.2), expressed as an [`ApproxSpec`]:
//!
//! * user-specified dropping/sampling **ratios** — ApproxHadoop computes
//!   the resulting error bounds;
//! * a **target error bound** at a confidence level — the
//!   [`target::TargetErrorCoordinator`] runs a first (or pilot) wave,
//!   fits the task timing model `t_map(M,m) = t0 + M·t_r + m·t_p`
//!   (Eq. 5), solves the runtime-minimisation problem (Eq. 4–7), and
//!   drops all remaining maps the moment the reduce tasks' reports show
//!   the job's worst key meeting the target ([`target::policy`] builds
//!   it, with its reducers' bound monitor, from the spec).
//!
//! The easiest entry points are the [`job`] builders:
//!
//! ```
//! use approxhadoop_core::job::AggregationJob;
//! use approxhadoop_core::spec::ApproxSpec;
//! use approxhadoop_runtime::input::VecSource;
//!
//! // Approximate word count: 25% of maps dropped, 50% of lines sampled.
//! let blocks: Vec<Vec<String>> = (0..8)
//!     .map(|b| (0..100).map(|i| format!("w{} w{}", i % 7, (b + i) % 3)).collect())
//!     .collect();
//! let input = VecSource::new(blocks);
//! let result = AggregationJob::sum(|line: &String, emit: &mut dyn FnMut(String, f64)| {
//!     for w in line.split_whitespace() {
//!         emit(w.to_string(), 1.0);
//!     }
//! })
//! .spec(ApproxSpec::ratios(0.25, 0.5))
//! .run(&input)
//! .unwrap();
//! for (_word, interval) in &result.outputs {
//!     assert!(interval.half_width.is_finite());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clusters;
pub mod error;
pub mod extreme;
pub mod job;
pub mod keystat;
pub mod multistage;
pub mod ratio;
pub mod spec;
pub mod target;
pub mod threestage;
pub mod userdef;

pub use error::CoreError;
pub use keystat::KeyStat;
pub use spec::{ApproxSpec, ErrorTarget, PilotSpec};

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
