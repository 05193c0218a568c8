//! The workspace's worker binary for the process backend.
//!
//! `approxhadoop run/serve/loadtest --backend process` starts `--workers N`
//! copies of this binary (resolved as a sibling of the CLI executable)
//! and dispatches map attempts to them over the pipe protocol. Every
//! job the process backend can run must be registered here by name —
//! the worker is a separate address space, so closures cannot cross;
//! only the job name and its `Wire`-encoded parameters do. The wikilog
//! aggregations and the join come from `workloads::apps`, the table the
//! submitting side reads too.

use approxhadoop::core::multistage::MultiStageMapper;
use approxhadoop::runtime::engine::process::{worker_main, JobRegistry};
use approxhadoop::workloads::apps;

fn main() {
    let mut registry = JobRegistry::new();

    // The cross-crate differential suite: f64 values keyed mod 5,
    // shuffled as per-key `KeyStat` sums for the Eq. 1–3 estimators.
    registry.register("multistage-mod5-sum", |_params: &[u8]| {
        Ok(MultiStageMapper::new(
            |x: &f64, emit: &mut dyn FnMut(u8, f64)| emit((*x as u64 % 5) as u8, *x),
        ))
    });

    apps::register_jobs(&mut registry);

    worker_main(registry);
}
