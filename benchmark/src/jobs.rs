//! The user map functions of the benchmark's jobs. They live here, not
//! in the workload files, because the `bench-worker` binary must
//! register the *same* functions under the names below: a closure
//! cannot cross the process boundary, a name can.

use approxhadoop::workloads::wikilog::LogEntry;

/// Registry name of the page-traffic job (`wikilog_*` workloads).
pub const PAGE_TRAFFIC_JOB: &str = "bench-page-traffic";
/// Registry name of the project-bytes job (`service_*` workloads).
pub const PROJECT_BYTES_JOB: &str = "bench-project-bytes";

/// Bytes served per page — the paper's page-traffic aggregation.
pub fn page_traffic(e: &LogEntry, emit: &mut dyn FnMut(u64, f64)) {
    emit(e.page, e.bytes as f64);
}

/// Bytes served per project — the job every service tenant submits.
pub fn project_bytes(e: &LogEntry, emit: &mut dyn FnMut(u64, f64)) {
    emit(e.project, e.bytes as f64);
}

/// Word count: one `(word, 1)` per whitespace-separated token.
// `&String` because the engine's `TextSource` yields owned lines and
// `FnMapper` hands the closure a reference to the item type itself.
#[allow(clippy::ptr_arg)]
pub fn word_split(line: &String, emit: &mut dyn FnMut(String, u64)) {
    for w in line.split_whitespace() {
        emit(w.to_string(), 1);
    }
}
