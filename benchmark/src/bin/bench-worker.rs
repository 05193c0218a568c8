//! The benchmark's own worker binary for the process-backend workloads.
//!
//! It registers exactly the two jobs the benchmark submits, with the
//! same map functions the thread-backend workloads pass as closures, so
//! `wikilog_process` / `wikilog_spill` run the *same* job as
//! `wikilog_precise` on the other side of a process boundary.

use approx_benchmark::jobs::{page_traffic, project_bytes, PAGE_TRAFFIC_JOB, PROJECT_BYTES_JOB};
use approxhadoop::core::multistage::MultiStageMapper;
use approxhadoop::runtime::engine::process::{worker_main, JobRegistry};
use approxhadoop::workloads::wikilog::LogEntry;

fn main() {
    let mut registry = JobRegistry::new();
    registry.register(PAGE_TRAFFIC_JOB, |_params: &[u8]| {
        Ok(MultiStageMapper::<LogEntry, u64, _>::new(page_traffic))
    });
    registry.register(PROJECT_BYTES_JOB, |_params: &[u8]| {
        Ok(MultiStageMapper::<LogEntry, u64, _>::new(project_bytes))
    });
    worker_main(registry);
}
