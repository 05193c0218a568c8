//! Metric names and units, and the one JSON line a run prints.
//!
//! The tables below are the benchmark's half of the contract in
//! `BENCHMARK.json`; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// The eight workloads, in the order a full set runs them.
pub const WORKLOADS: [&str; 8] = [
    "wc_raw",
    "wc_combined",
    "wikilog_precise",
    "wikilog_approx",
    "wikilog_process",
    "wikilog_spill",
    "service_open",
    "service_process_tiny",
];

/// `(name, unit)` of every end-to-end metric. Each is defined, and
/// non-zero, on every workload, and is measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("job_wall_s", "s"),
    ("job_wall_p90_s", "s"),
    ("input_records_per_s", "rec/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, reported by the traced
/// run. A layer that does not run in a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 60] = [
    // The record path, each layer driven alone and single-threaded over
    // the workload's own input and intermediate pairs.
    ("dfs.read_block_ns_per_rec", "ns"),
    ("input.read_ns_per_rec", "ns"),
    ("input.sample_ns_per_poprec", "ns"),
    ("input.sampled_share", "share"),
    ("map.udf_ns_per_rec", "ns"),
    ("map.pairs_per_rec", "count"),
    ("types.hash_partition_ns_per_pair", "ns"),
    ("combine.fold_ns_per_pair", "ns"),
    ("combine.drain_ns_per_key", "ns"),
    ("combine.out_in_ratio", "share"),
    ("channel.send_recv_ns_per_batch", "ns"),
    ("shuffle.shipped_pairs", "count"),
    ("reducer.absorb_ns_per_pair", "ns"),
    ("estimator.finish_us_per_key", "us"),
    ("estimator.keys", "count"),
    ("ipc.wire_encode_ns_per_rec", "ns"),
    ("ipc.wire_decode_ns_per_rec", "ns"),
    ("ipc.wire_bytes_per_rec", "count"),
    ("ipc.wire_pair_encode_ns", "ns"),
    ("ipc.wire_pair_decode_ns", "ns"),
    ("ipc.frame_roundtrip_us_per_mib", "us"),
    ("dfs.spool_write_ns_per_rec", "ns"),
    ("ipc.mmap_decode_ns_per_rec", "ns"),
    // Exact counts from the traced job's `Obs` registry.
    ("process.frames_tx", "count"),
    ("process.bytes_tx", "count"),
    ("process.bytes_rx", "count"),
    ("process.spill_runs", "count"),
    ("process.spill_bytes", "count"),
    ("process.worker_restarts", "count"),
    // Fixed cost of the job wrapper.
    ("process.job_floor_ms", "ms"),
    ("engine.job_floor_us", "us"),
    // Copied out of the traced job's `JobMetrics`.
    ("engine.map_task_s_p50", "s"),
    ("engine.map_read_share", "share"),
    ("engine.slot_busy_share", "share"),
    ("engine.useful_attempt_share", "share"),
    ("engine.maps_dropped", "count"),
    ("engine.task_retries", "count"),
    ("engine.unattributed_share", "share"),
    // The service wrapper and the load generator.
    ("service.submit_us", "us"),
    ("admission.admit_us", "us"),
    ("admission.on_outcome_us", "us"),
    ("admission.degraded_share", "share"),
    ("admission.mean_degrade", "share"),
    ("pool.wait_p50_ms", "ms"),
    ("pool.wait_p90_ms", "ms"),
    ("service.queue_wait_share", "share"),
    ("service.peak_in_flight", "count"),
    ("loadgen.lag_p90_ms", "ms"),
    // Quality and tail figures that can be exactly 0, so they cannot be
    // gated end-to-end metrics; the run fails outright on their limits.
    ("quality.worst_bound_pct", "%"),
    ("quality.bound_violation_share", "share"),
    ("quality.failed_share", "share"),
    ("service.slo_miss_share", "share"),
    ("service.latency_p50_s", "s"),
    ("service.latency_tail_s", "s"),
    ("service.latency_tail_pct", "%"),
    ("service.jobs_per_s", "1/s"),
    // The traced run itself.
    ("trace.job_wall_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.jobs", "count"),
    ("trace.spans", "count"),
];

/// Metric name → value, for one run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted in the measured phase.
    pub attempted: u64,
    /// Jobs that returned an error or were refused.
    pub failed: u64,
    /// Every failed check, in words. Empty means the run is correct.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Free-form lines for the human reading stderr (quartiles, counts).
    pub notes: Vec<String>,
}

/// One metric as results files and the result line carry it.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MetricValue {
    /// The measured value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// `name → {value, unit}` for every metric of `table`, taking the values
/// from `value_of` (the units come from the table).
pub fn with_units(
    table: &[(&'static str, &'static str)],
    value_of: impl Fn(&'static str) -> f64,
) -> BTreeMap<&'static str, MetricValue> {
    table
        .iter()
        .map(|&(name, unit)| {
            let unit = unit.to_string();
            (
                name,
                MetricValue {
                    value: value_of(name),
                    unit,
                },
            )
        })
        .collect()
}

#[derive(serde::Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, MetricValue>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line for `table` ([`END_TO_END`] or [`PER_LAYER`]).
    /// An end-to-end metric the run did not produce, or produced as 0 or
    /// a non-number, is a bug in the benchmark and is reported as an
    /// error; a per-layer metric the workload has no layer for is 0.
    pub fn result_line(&mut self, table: &[(&'static str, &'static str)], gated: bool) -> String {
        let mut resolved = Metrics::new();
        for &(name, _) in table {
            let value = match self.metrics.get(name).copied() {
                Some(v) if v.is_finite() && (v != 0.0 || !gated) => v,
                None if !gated => 0.0,
                // JSON has no infinity; an unbounded interval reads -1.
                Some(_) if !gated => -1.0,
                other => {
                    self.errors
                        .push(format!("end-to-end metric {name} is {other:?}"));
                    -1.0
                }
            };
            resolved.insert(name, value);
        }
        let metrics = with_units(table, |name| resolved[name]);
        let line = ResultLine {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        };
        serde_json::to_string(&line).expect("the writer shim is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop::obs::json::{self, Value};

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit")
                        .map_or(String::new(), |u| u.as_str().unwrap().to_string()),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn printed_line_parses_back_to_the_declared_names() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Default::default()
        };
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            outcome.metrics.insert(name, 1.5 + i as f64);
        }
        let doc = json::parse(&outcome.result_line(&END_TO_END, true)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(3.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            panic!("metrics is not an object");
        };
        let printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(printed, declared);
        for &(name, unit) in &END_TO_END {
            let m = &metrics[name];
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert!(m.get("value").and_then(Value::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn missing_or_zero_gated_metric_is_an_error_but_an_idle_layer_is_zero() {
        let mut outcome = Outcome {
            attempted: 1,
            ..Default::default()
        };
        outcome.metrics.insert("setup_s", 0.0);
        let doc = json::parse(&outcome.result_line(&END_TO_END, true)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(outcome.errors.len(), END_TO_END.len());

        let mut traced = Outcome {
            attempted: 1,
            ..Default::default()
        };
        traced
            .metrics
            .insert("quality.worst_bound_pct", f64::INFINITY);
        let doc = json::parse(&traced.result_line(&PER_LAYER, false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let metrics = doc.get("metrics").unwrap();
        let value = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(value("ipc.wire_bytes_per_rec"), Some(0.0));
        assert_eq!(value("quality.worst_bound_pct"), Some(-1.0));
    }
}
