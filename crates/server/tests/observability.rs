//! End-to-end observability acceptance tests: the load generator must
//! produce (a) a Prometheus snapshot covering pool, admission, and
//! error-bound metrics, (b) a Chrome trace with correct
//! `job → wave → task` nesting, and (c) per-reducer bound-convergence
//! series in the JSON report — all without breaking uninstrumented
//! runs or adding meaningful overhead.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use approxhadoop_obs::{json, Obs, TraceEvent};
use approxhadoop_server::loadgen::{run_phase_with_obs, LoadConfig, PhaseReport};

fn tiny() -> LoadConfig {
    LoadConfig {
        slots: 2,
        jobs: 3,
        arrival_rate: 200.0,
        blocks_per_job: 6,
        entries_per_block: 60,
        p99_target_secs: 1e-6, // force overload immediately
        ..Default::default()
    }
}

fn instrumented_phase() -> (PhaseReport, Arc<Obs>) {
    let obs = Obs::shared();
    let report = run_phase_with_obs(&tiny(), true, Arc::clone(&obs));
    (report, obs)
}

#[test]
fn prometheus_snapshot_covers_pool_admission_and_bounds() {
    let (report, _obs) = instrumented_phase();
    let text = &report.prometheus;
    for metric in [
        // Pool: queue depth, slot occupancy, per-tenant waits, fairness.
        "pool_slots",
        "pool_queue_depth",
        "pool_busy_slots",
        "pool_submitted_total",
        "pool_dispatched_total",
        "pool_wait_secs",
        "pool_vtime_skew",
        // Admission: latency window, latency distribution, decisions.
        "admission_decisions_total",
        "admission_job_latency_secs",
        "admission_window_len",
        "admission_degrade",
        // Engine: per-task timing, sampling decisions, error bounds.
        "engine_jobs_total",
        "engine_tasks_total",
        "engine_task_secs",
        "engine_directives_total",
        "engine_reducer_bound",
        "engine_bound_reports_total",
    ] {
        assert!(
            text.contains(metric),
            "prometheus output missing `{metric}`:\n{text}"
        );
    }
    // The structured snapshot mirrors the text exposition.
    assert_eq!(
        report.metrics.counter_total("engine_jobs_total"),
        tiny().jobs as u64
    );
    assert!(report.metrics.counter_total("pool_dispatched_total") > 0);
    assert!(report.metrics.gauge("pool_slots") == Some(2.0));
    // An impossible p99 target must register overload + degradation.
    assert!(report.metrics.counter_total("admission_overloaded_total") > 0);
}

#[test]
fn chrome_trace_nests_job_wave_task() {
    let (_report, obs) = instrumented_phase();
    let events = obs.tracer.events();
    assert_eq!(obs.tracer.dropped(), 0, "tiny run must fit the ring");

    let spans: HashMap<u64, &TraceEvent> = events
        .iter()
        .filter(|e| e.phase == 'X')
        .filter_map(|e| e.span.map(|s| (s.0, e)))
        .collect();
    let jobs: Vec<&&TraceEvent> = spans.values().filter(|e| e.category == "job").collect();
    let waves: Vec<&&TraceEvent> = spans.values().filter(|e| e.category == "wave").collect();
    let tasks: Vec<&&TraceEvent> = spans.values().filter(|e| e.category == "task").collect();
    assert_eq!(jobs.len(), tiny().jobs, "one job span per submitted job");
    assert!(!waves.is_empty(), "jobs must record wave spans");
    assert!(!tasks.is_empty(), "waves must record task spans");

    for wave in &waves {
        let parent = wave.parent.expect("wave span has a parent");
        let owner = spans.get(&parent.0).expect("wave parent span exists");
        assert_eq!(owner.category, "job", "wave parents are job spans");
        assert_eq!(owner.pid, wave.pid, "waves stay on their job's lane");
    }
    for task in &tasks {
        let parent = task.parent.expect("task span has a parent");
        let owner = spans.get(&parent.0).expect("task parent span exists");
        assert_eq!(owner.category, "wave", "task parents are wave spans");
        // Time containment: the task ran inside its job's span.
        let job = spans
            .get(&owner.parent.expect("wave has a job parent").0)
            .expect("job span exists");
        assert!(
            task.ts_us >= job.ts_us && task.ts_us + task.dur_us <= job.ts_us + job.dur_us,
            "task [{}, {}] escapes job [{}, {}]",
            task.ts_us,
            task.ts_us + task.dur_us,
            job.ts_us,
            job.ts_us + job.dur_us
        );
    }

    // The rendered trace is valid JSON in Chrome trace format.
    let rendered = obs.tracer.render_chrome_trace();
    let value = json::parse(&rendered).expect("chrome trace parses as JSON");
    let trace_events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(trace_events.len(), events.len());
    for ev in trace_events {
        for field in ["ph", "name", "ts", "pid", "tid"] {
            assert!(ev.get(field).is_some(), "event missing `{field}`");
        }
    }
    // Admission decisions appear as instant events with before/after
    // budget args.
    let admit = trace_events
        .iter()
        .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("admission"))
        .expect("admission decision event in trace");
    let args = admit.get("args").expect("admission event has args");
    for field in [
        "max_drop_ratio",
        "min_sampling_ratio",
        "drop_ratio",
        "sampling_ratio",
    ] {
        assert!(
            args.get(field).is_some(),
            "admission args missing `{field}`"
        );
    }
}

#[test]
fn report_carries_bound_convergence_series() {
    let (report, _obs) = instrumented_phase();
    let with_series = report
        .jobs
        .iter()
        .filter(|o| !o.bound_series.is_empty())
        .count();
    assert!(
        with_series > 0,
        "no job recorded a bound-convergence series"
    );
    for o in &report.jobs {
        let mut last_t = 0.0f64;
        for p in &o.bound_series {
            assert!(p.t_secs >= last_t, "series must be time-ordered");
            last_t = p.t_secs;
            assert!(p.maps_processed > 0);
            assert!(p.relative_bound >= 0.0);
        }
    }
    // The series round-trips through the JSON report.
    let rendered = serde_json::to_string(&report).unwrap();
    assert!(rendered.contains("\"bound_series\""));
    assert!(rendered.contains("\"maps_processed\""));
    json::parse(&rendered).expect("phase report serializes to valid JSON");
}

/// Instrumentation must be cheap: the same engine run with tracing +
/// metrics attached stays within noise of the uninstrumented run.
/// (The documented budget is <= 5%; the assertion is deliberately
/// looser so scheduler jitter on CI cannot flake it.)
#[test]
fn instrumentation_overhead_is_bounded() {
    use approxhadoop_runtime::engine::{run_job, JobConfig};
    use approxhadoop_runtime::input::VecSource;
    use approxhadoop_runtime::mapper::FnMapper;
    use approxhadoop_runtime::reducer::GroupedReducer;

    let blocks: Vec<Vec<u64>> = (0..64)
        .map(|b| (0..400).map(|i| b * 400 + i).collect())
        .collect();
    let run_once = |obs: Option<Arc<Obs>>| -> f64 {
        let input = VecSource::new(blocks.clone());
        let mapper =
            FnMapper::new(|i: &u64, emit: &mut dyn FnMut(u8, u64)| emit((i % 8) as u8, *i));
        let config = JobConfig {
            obs,
            ..Default::default()
        };
        let start = Instant::now();
        run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.len()))),
            config,
        )
        .unwrap();
        start.elapsed().as_secs_f64()
    };
    // Warm up once, then best-of-3 each to damp scheduler noise.
    run_once(None);
    let plain = (0..3).map(|_| run_once(None)).fold(f64::MAX, f64::min);
    let traced = (0..3)
        .map(|_| run_once(Some(Obs::shared())))
        .fold(f64::MAX, f64::min);
    assert!(
        traced <= plain * 1.5 + 0.05,
        "instrumented run too slow: {traced:.4}s vs {plain:.4}s uninstrumented"
    );
}
