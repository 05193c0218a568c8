//! Observability substrate for ApproxHadoop-RS.
//!
//! The paper's target-error mode works because the JobTracker can *see*
//! per-task statistics and error bounds as the job runs; this crate
//! gives the reproduction the same visibility. It bundles:
//!
//! * [`Registry`] — a lock-cheap metrics registry (atomic counters,
//!   gauges, fixed-bucket histograms with p50/p95/p99 snapshots),
//!   rendered either as a Prometheus text exposition
//!   ([`Registry::render_prometheus`]) or a JSON-serializable
//!   [`RegistrySnapshot`].
//! * [`Tracer`] — a bounded ring buffer of span/instant/counter events
//!   with parent links, rendered as Chrome-trace-format JSON
//!   ([`Tracer::render_chrome_trace`]) for `chrome://tracing`.
//! * [`json`] — a small JSON parser for validating exporter output
//!   (the in-tree `serde_json` shim is writer-only).
//! * [`serve_metrics`] — a dependency-free HTTP exporter serving
//!   `/metrics`, `/trace` and `/jobs` live while jobs run.
//! * [`FlightRecorder`] — a bounded ring of recent per-job events,
//!   dumped as JSON when a job ends badly.
//!
//! Everything is in-tree (no external deps beyond the workspace shims)
//! and instrumentation is optional: the runtime threads an
//! `Option<Arc<Obs>>` through, so uninstrumented runs pay nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod http;
pub mod json;
pub mod registry;
pub mod trace;

pub use flight::{FlightEntry, FlightRecorder};
pub use http::{serve_metrics, BoundSample, JobsBoard, ObsServer};
pub use registry::{
    Counter, CounterDelta, CounterSample, DeltaCursor, Gauge, GaugeSample, Histogram,
    HistogramSample, HistogramSnapshot, Label, Registry, RegistrySnapshot,
};
pub use trace::{arg_num, arg_str, SpanId, TraceArg, TraceEvent, Tracer};

use std::sync::Arc;

/// One observability context: a metrics registry plus a tracer, shared
/// by every component of a service or job run.
#[derive(Debug, Default)]
pub struct Obs {
    /// Metrics registry.
    pub registry: Registry,
    /// Span/event tracer.
    pub tracer: Tracer,
    /// Per-job bound-convergence series for the `/jobs` endpoint.
    pub jobs: JobsBoard,
}

impl Obs {
    /// Creates a fresh context behind an `Arc`, ready to clone into
    /// pools, controllers and job configs.
    pub fn shared() -> Arc<Obs> {
        Arc::new(Obs::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_context_feeds_both_sides() {
        let obs = Obs::shared();
        obs.registry.counter("events_total", &[]).inc();
        obs.tracer.instant("boot", "test", 1, 0, vec![]);
        assert_eq!(obs.registry.snapshot().counter_total("events_total"), 1);
        assert_eq!(obs.tracer.events().len(), 1);
    }

    #[test]
    fn concurrent_histogram_increments_are_deterministic() {
        // Concurrent increments from scoped threads must produce a
        // deterministic final count (no lost updates).
        let obs = Obs::shared();
        let h = obs
            .registry
            .histogram_with_bounds("latency_secs", &[], vec![0.25, 0.5, 1.0]);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic values spread across buckets.
                        let v = ((t * PER_THREAD + i) % 4) as f64 * 0.3;
                        h.observe(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, (THREADS * PER_THREAD) as u64);
        assert_eq!(
            snap.counts.iter().sum::<u64>(),
            (THREADS * PER_THREAD) as u64
        );
        // 0.0 and 0.3 exceed no bound / first bound... bucket split is
        // exact: values cycle 0.0, 0.3, 0.6, 0.9 in equal proportion.
        let quarter = (THREADS * PER_THREAD / 4) as u64;
        assert_eq!(snap.counts, vec![quarter, quarter, 2 * quarter, 0]);
    }

    #[test]
    fn prometheus_render_parses_and_is_stable() {
        // Satellite: line-by-line parse of names/labels/TYPE headers,
        // stable across two renders.
        let obs = Obs::shared();
        obs.registry
            .counter("jobs_total", &[("tenant", "a\"b\\c\nd")])
            .add(3);
        obs.registry.gauge("queue_depth", &[]).set(2.0);
        let h = obs
            .registry
            .histogram_with_bounds("wait_secs", &[("tenant", "a")], vec![0.5, 1.0]);
        h.observe(0.4);
        h.observe(2.0);

        let text = obs.registry.render_prometheus();
        assert_eq!(text, obs.registry.render_prometheus(), "render not stable");

        let mut type_headers = Vec::new();
        let mut samples = Vec::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines expected");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("metric name");
                let kind = it.next().expect("metric kind");
                assert!(matches!(kind, "counter" | "gauge" | "histogram"));
                type_headers.push((name.to_string(), kind.to_string()));
            } else {
                // Sample line: name{labels} value
                let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
                assert!(
                    value.parse::<f64>().is_ok() || value == "+Inf",
                    "unparsable value {value:?} in {line:?}"
                );
                let name = series.split('{').next().expect("series name");
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                    "bad metric name {name:?}"
                );
                samples.push(series.to_string());
            }
        }
        assert_eq!(
            type_headers,
            vec![
                ("jobs_total".to_string(), "counter".to_string()),
                ("queue_depth".to_string(), "gauge".to_string()),
                ("wait_secs".to_string(), "histogram".to_string()),
            ]
        );
        // Label escaping: quote, backslash and newline escaped.
        assert!(text.contains("jobs_total{tenant=\"a\\\"b\\\\c\\nd\"} 3"));
        // Histogram exposition: cumulative buckets, +Inf, _sum, _count.
        assert!(samples.contains(&"wait_secs_bucket{tenant=\"a\",le=\"0.5\"}".to_string()));
        assert!(samples.contains(&"wait_secs_bucket{tenant=\"a\",le=\"+Inf\"}".to_string()));
        assert!(text.contains("wait_secs_bucket{tenant=\"a\",le=\"0.5\"} 1"));
        assert!(text.contains("wait_secs_bucket{tenant=\"a\",le=\"+Inf\"} 2"));
        assert!(text.contains("wait_secs_count{tenant=\"a\"} 2"));
    }

    #[test]
    fn registry_snapshot_serializes_to_valid_json() {
        let obs = Obs::shared();
        obs.registry.counter("a_total", &[("k", "v")]).inc();
        obs.registry.histogram("h_secs", &[]).observe(0.01);
        let snap = obs.registry.snapshot();
        let text = serde_json::to_string(&snap).expect("snapshot serializes");
        let v = json::parse(&text).expect("snapshot JSON parses");
        let counters = v.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters[0].get("name").unwrap().as_str(), Some("a_total"));
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("count").unwrap().as_f64(), Some(1.0));
    }
}
