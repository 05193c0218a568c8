//! Engine-side observability glue.
//!
//! [`EngineObs`] turns the JobTracker's existing bookkeeping into a
//! `job → wave → task` span tree plus a handful of registry metrics,
//! and [`BoundTracker`] turns reducer [`BoundReport`]s into the
//! error-bound convergence series recorded in
//! [`JobMetrics::bound_series`](crate::metrics::JobMetrics::bound_series).
//! Both are optional: the engine only constructs them when a
//! [`JobConfig`](crate::engine::JobConfig) carries an `Obs` context, so
//! uninstrumented runs pay nothing.
//!
//! Span layout in the Chrome trace: each job gets its own `pid` lane;
//! `tid 0` holds the job span and the wave spans (waves close whenever
//! the finished-task count advances), while tasks are packed greedily
//! onto `tid >= 1` lanes so overlapping attempts render side by side.
//! Task spans are logged retroactively from the worker-reported
//! [`MapStats`] and carry the read/process time split as args; parent
//! links (`args.parent` → `args.span`) encode the logical nesting.

use std::sync::Arc;
use std::time::Instant;

use approxhadoop_obs::{arg_num, BoundSample, Obs, SpanId};

use crate::control::{BoundReport, JobControl};
use crate::engine::RemoteSpan;
use crate::metrics::{BoundPoint, JobMetrics, MapStats, TaskOutcome};

/// Sampling-ratio histogram buckets: ratios live in `(0, 1]`.
fn ratio_bounds() -> Vec<f64> {
    vec![0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
}

/// Per-job trace/metric recorder held by the JobTracker loop.
pub(crate) struct EngineObs {
    obs: Arc<Obs>,
    pid: u64,
    job_label: String,
    job_span: SpanId,
    job_open_us: u64,
    wave_span: SpanId,
    wave_open_us: u64,
    wave_index: usize,
    /// Any task recorded under the currently open wave span?
    wave_dirty: bool,
    /// Greedy task-lane allocator: per-lane busy-until timestamp (µs).
    lanes: Vec<u64>,
}

impl EngineObs {
    /// Starts recording a job on trace lane `pid` (one process lane per
    /// job; `pid 0` is reserved for pool-wide counters).
    pub(crate) fn new(obs: Arc<Obs>, pid: u64, job_label: &str) -> Self {
        obs.tracer.name_process(pid, job_label);
        obs.registry.counter("engine_jobs_total", &[]).inc();
        let job_span = obs.tracer.new_span_id();
        let wave_span = obs.tracer.new_span_id();
        let now = obs.tracer.now_us();
        EngineObs {
            obs,
            pid,
            job_label: job_label.to_string(),
            job_span,
            job_open_us: now,
            wave_span,
            wave_open_us: now,
            wave_index: 0,
            wave_dirty: false,
            lanes: Vec::new(),
        }
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    pub(crate) fn job_label(&self) -> &str {
        &self.job_label
    }

    /// Records one schedule-time sampling decision.
    pub(crate) fn directive(&self, run: bool, sampling_ratio: f64) {
        let d = if run { "run" } else { "drop" };
        self.obs
            .registry
            .counter("engine_directives_total", &[("directive", d)])
            .inc();
        if run {
            self.obs
                .registry
                .histogram_with_bounds("engine_sampling_ratio", &[], ratio_bounds())
                .observe(sampling_ratio);
        }
    }

    /// Counts a task reaching a terminal state.
    pub(crate) fn task_outcome(&self, outcome: TaskOutcome) {
        let label = match outcome {
            TaskOutcome::Completed => "completed",
            TaskOutcome::Dropped => "dropped",
            TaskOutcome::Killed => "killed",
            TaskOutcome::Failed => "failed",
        };
        self.obs
            .registry
            .counter("engine_tasks_total", &[("outcome", label)])
            .inc();
    }

    /// Counts one failed map attempt.
    pub(crate) fn task_failed(&self) {
        self.obs
            .registry
            .counter("engine_task_failures_total", &[])
            .inc();
    }

    /// Counts one retry scheduled after a failure.
    pub(crate) fn task_retry(&self) {
        self.obs
            .registry
            .counter("engine_task_retries_total", &[])
            .inc();
    }

    /// Counts one task degraded to a dropped cluster after exhausting
    /// its retries.
    pub(crate) fn task_degraded(&self) {
        self.obs
            .registry
            .counter("engine_tasks_degraded_total", &[])
            .inc();
    }

    /// Counts one server blacklisted after repeated attempt failures.
    pub(crate) fn server_blacklisted(&self) {
        self.obs
            .registry
            .counter("engine_servers_blacklisted_total", &[])
            .inc();
    }

    /// Retro-logs a completed map attempt as a task span under the
    /// current wave, with the read/process split as metrics and args.
    ///
    /// `span` is the attempt's pre-allocated span id (0 when none was
    /// allocated — a fresh id is drawn then). `remote` holds spans the
    /// worker process recorded inside the attempt; their timestamps are
    /// attempt-relative and get re-based into the task span's window, so
    /// worker/parent clock skew never shows in the merged trace.
    pub(crate) fn task_completed(&mut self, stats: &MapStats, span: u64, remote: &[RemoteSpan]) {
        let reg = &self.obs.registry;
        reg.histogram("engine_task_secs", &[("phase", "total")])
            .observe(stats.duration_secs);
        reg.histogram("engine_task_secs", &[("phase", "read")])
            .observe(stats.read_secs);
        let now = self.obs.tracer.now_us();
        let dur = ((stats.duration_secs * 1e6) as u64).max(1);
        let start = now.saturating_sub(dur);
        let lane = match self.lanes.iter().position(|&end| end <= start) {
            Some(l) => l,
            None => {
                self.lanes.push(0);
                self.lanes.len() - 1
            }
        };
        self.lanes[lane] = now;
        self.wave_dirty = true;
        let task_span = if span != 0 {
            SpanId(span)
        } else {
            self.obs.tracer.new_span_id()
        };
        self.obs.tracer.complete_as(
            task_span,
            &format!("map {}", stats.task.0),
            "task",
            start,
            dur,
            self.pid,
            lane as u64 + 1,
            Some(self.wave_span),
            vec![
                arg_num("read_secs", stats.read_secs),
                arg_num(
                    "process_secs",
                    (stats.duration_secs - stats.read_secs).max(0.0),
                ),
                arg_num("records", stats.total_records as f64),
                arg_num("sampled", stats.sampled_records as f64),
            ],
        );
        for r in remote {
            // Clamp the re-based span inside [start, start + dur] so a
            // worker whose clock ran ahead can't escape the task window.
            let ts = start + r.rel_ts_us.min(dur.saturating_sub(1));
            let max_dur = (start + dur).saturating_sub(ts).max(1);
            self.obs.tracer.complete(
                &r.name,
                &r.category,
                ts,
                r.dur_us.clamp(1, max_dur),
                self.pid,
                lane as u64 + 1,
                Some(task_span),
                vec![],
            );
        }
    }

    /// Closes the current wave span (the finished count advanced) and
    /// opens the next one.
    pub(crate) fn wave_tick(&mut self, finished: usize, total: usize, bound: Option<f64>) {
        let now = self.obs.tracer.now_us();
        let mut args = vec![
            arg_num("finished", finished as f64),
            arg_num("total", total as f64),
        ];
        if let Some(b) = bound {
            args.push(arg_num("worst_bound", b));
        }
        self.obs.tracer.complete_as(
            self.wave_span,
            &format!("wave {}", self.wave_index),
            "wave",
            self.wave_open_us,
            now.saturating_sub(self.wave_open_us).max(1),
            self.pid,
            0,
            Some(self.job_span),
            args,
        );
        if let Some(b) = bound {
            self.obs
                .registry
                .gauge("engine_worst_relative_bound", &[("job", &self.job_label)])
                .set(b);
            self.obs
                .tracer
                .counter("error_bound", self.pid, &[("worst_relative_bound", b)]);
        }
        self.wave_index += 1;
        self.wave_span = self.obs.tracer.new_span_id();
        self.wave_open_us = now;
        self.wave_dirty = false;
    }

    /// Closes the trailing wave (if it recorded tasks) and the job span.
    pub(crate) fn finish(&mut self, metrics: &JobMetrics) {
        let now = self.obs.tracer.now_us();
        if self.wave_dirty {
            self.obs.tracer.complete_as(
                self.wave_span,
                &format!("wave {}", self.wave_index),
                "wave",
                self.wave_open_us,
                now.saturating_sub(self.wave_open_us).max(1),
                self.pid,
                0,
                Some(self.job_span),
                vec![arg_num("finished", metrics.total_maps as f64)],
            );
            self.wave_dirty = false;
        }
        self.obs.tracer.complete_as(
            self.job_span,
            &self.job_label.clone(),
            "job",
            self.job_open_us,
            now.saturating_sub(self.job_open_us).max(1),
            self.pid,
            0,
            None,
            vec![
                arg_num("executed_maps", metrics.executed_maps as f64),
                arg_num("dropped_maps", metrics.dropped_maps as f64),
                arg_num("killed_maps", metrics.killed_maps as f64),
                arg_num("failed_maps", metrics.failed_maps as f64),
                arg_num("retried_maps", metrics.retried_maps as f64),
                arg_num("degraded_to_drop", metrics.degraded_to_drop as f64),
                arg_num("wall_secs", metrics.wall_secs),
            ],
        );
    }
}

/// Records the per-reducer error-bound convergence series by polling
/// [`JobControl`] from the tracker loop and appending every *changed*
/// report. Works without an `Obs` context — the series always lands in
/// the job's metrics; registry gauges are updated only when one is
/// attached.
pub(crate) struct BoundTracker {
    start: Instant,
    last: Vec<Option<BoundReport>>,
}

impl BoundTracker {
    /// `start` is the job's start instant so `t_secs` aligns with the
    /// job's wall clock.
    pub(crate) fn new(start: Instant, reducers: usize) -> Self {
        BoundTracker {
            start,
            last: vec![None; reducers],
        }
    }

    /// Appends any new reducer reports to `series`.
    pub(crate) fn poll(
        &mut self,
        control: &JobControl,
        series: &mut Vec<BoundPoint>,
        eobs: Option<&EngineObs>,
    ) {
        let reports = control.bound_reports();
        let t_secs = self.start.elapsed().as_secs_f64();
        for (reducer, report) in reports.into_iter().enumerate() {
            let Some(report) = report else { continue };
            if reducer >= self.last.len() || self.last[reducer] == Some(report) {
                continue;
            }
            self.last[reducer] = Some(report);
            series.push(BoundPoint {
                t_secs,
                reducer,
                maps_processed: report.maps_processed,
                relative_bound: report.relative_bound,
            });
            if let Some(e) = eobs {
                let obs = e.obs();
                obs.registry
                    .counter("engine_bound_reports_total", &[])
                    .inc();
                obs.registry
                    .gauge(
                        "engine_reducer_bound",
                        &[("job", e.job_label()), ("reducer", &reducer.to_string())],
                    )
                    .set(report.relative_bound);
                obs.jobs.record(
                    e.job_label(),
                    BoundSample {
                        t_secs,
                        reducer,
                        maps_processed: report.maps_processed as u64,
                        relative_bound: report.relative_bound,
                    },
                );
            }
        }
    }
}
