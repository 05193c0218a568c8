//! Poisson open-loop load generator over the [`JobService`].
//!
//! The harness fires jobs at the service with exponentially distributed
//! inter-arrival times (an *open loop*: arrivals do not wait for
//! completions, so backlog builds exactly as it would under real
//! tenant traffic). Every job is a per-project byte total
//! ([`PROJECT_BYTES`], submitted by [`submit_tenant`]) over a synthetic
//! Wikipedia access log and declares an [`ApproxBudget`] the admission
//! controller may spend.
//!
//! [`run`] executes the same arrival sequence twice — once with the
//! controller disabled (every job admitted precise) and once enabled
//! (degradation inside each job's budget) — and reports throughput,
//! p50/p99 latency, peak concurrency, per-job achieved error bounds,
//! and every degradation decision. The two phases share seeds, so the
//! p99 delta isolates the controller's effect.
//!
//! [`find_max_tps`] instead *searches*: it hill-climbs the offered
//! arrival rate — multiplicative ramp until the stated [`SloSpec`]
//! breaks, then binary refinement of the bracket — to find the
//! service's maximum sustainable TPS at that SLO (the knee), detecting
//! when the *generator* rather than the service saturates
//! (scheduled-vs-actual submission lag).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approxhadoop_core::multistage::{BoundMonitor, MultiStageReducer};
use approxhadoop_obs::{Obs, RegistrySnapshot};
use approxhadoop_runtime::engine::WorkerSpec;
use approxhadoop_runtime::metrics::BoundPoint;
use approxhadoop_runtime::RuntimeError;
use approxhadoop_stats::Interval;
use approxhadoop_workloads::apps::PROJECT_BYTES;
use approxhadoop_workloads::wikilog::WikiLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::admission::{percentile, AdmissionConfig, ApproxBudget, DegradeDecision};
use crate::service::{JobHandle, JobService, JobSpec};

/// Knobs of one load-generation run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct LoadConfig {
    /// Shared map slots in the service pool.
    pub slots: usize,
    /// Jobs fired per phase.
    pub jobs: usize,
    /// Mean arrival rate in jobs/second (Poisson process).
    pub arrival_rate: f64,
    /// Map tasks (blocks) per job.
    pub blocks_per_job: u64,
    /// Log entries per block (controls per-map work).
    pub entries_per_block: u64,
    /// Every job's budget: how far drop may rise under load.
    pub max_drop_ratio: f64,
    /// Every job's budget: how far sampling may fall under load.
    pub min_sampling_ratio: f64,
    /// The controller's p99 latency target, seconds.
    pub p99_target_secs: f64,
    /// The controller's accuracy SLO: worst relative interval
    /// half-width it tries to stay under (`None` = latency only).
    pub max_relative_bound: Option<f64>,
    /// Base seed for arrivals and per-job data/sampling.
    pub seed: u64,
    /// `0` (the default) runs jobs on the shared thread pool; a
    /// positive value runs every job on the **process backend** with
    /// that many worker processes (started from the sibling
    /// `approx-worker` binary) and a spill-capable shuffle.
    pub process_workers: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            slots: 4,
            jobs: 16,
            arrival_rate: 8.0,
            blocks_per_job: 48,
            entries_per_block: 50_000,
            max_drop_ratio: 0.7,
            min_sampling_ratio: 0.25,
            p99_target_secs: 0.4,
            max_relative_bound: None,
            seed: 0,
            process_workers: 0,
        }
    }
}

/// One completed job, as reported in the JSON output.
#[derive(Debug, Clone, serde::Serialize)]
pub struct JobOutcome {
    /// Service-wide job id.
    pub job: u64,
    /// Tenant name.
    pub name: String,
    /// Seconds after phase start the job arrived.
    pub arrival_secs: f64,
    /// How far behind its scheduled arrival the generator actually
    /// submitted the job, seconds. A growing lag means the *generator*
    /// is the bottleneck (underpowered-generator saturation), not the
    /// service.
    pub submit_lag_secs: f64,
    /// Degrade factor applied at admission.
    pub degrade: f64,
    /// Admitted drop ratio.
    pub drop_ratio: f64,
    /// Admitted sampling ratio.
    pub sampling_ratio: f64,
    /// Submission-to-completion latency, seconds.
    pub latency_secs: f64,
    /// Engine wall time, seconds.
    pub wall_secs: f64,
    /// Map tasks in the job.
    pub total_maps: usize,
    /// Map tasks that ran.
    pub executed_maps: usize,
    /// Map tasks dropped by approximation.
    pub dropped_maps: usize,
    /// Worst relative 95%-confidence half-width across output keys
    /// (`None` if the job produced no bounded keys).
    pub worst_relative_bound: Option<f64>,
    /// Per-reducer error-bound convergence over the job's lifetime:
    /// how fast the bound tightened as maps were folded in.
    pub bound_series: Vec<BoundPoint>,
}

/// One phase (controller on or off) of a load run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PhaseReport {
    /// Whether the admission controller was active.
    pub controller_enabled: bool,
    /// First submission to last completion, seconds.
    pub makespan_secs: f64,
    /// Completed jobs per second over the makespan.
    pub throughput_jobs_per_sec: f64,
    /// Median job latency, seconds.
    pub p50_latency_secs: f64,
    /// 99th-percentile job latency, seconds.
    pub p99_latency_secs: f64,
    /// Mean job latency, seconds.
    pub mean_latency_secs: f64,
    /// Most jobs simultaneously in flight.
    pub peak_concurrency: usize,
    /// Jobs that were rejected at submission or failed while running.
    /// They appear in no latency statistic and not in `jobs`; a load
    /// test that injects faults or overloads a backend reports them
    /// here instead of aborting.
    pub failed_jobs: usize,
    /// Arrival rate the generator actually achieved, jobs/second over
    /// the submission span. Falling visibly short of the configured
    /// rate means the generator saturated before the service did.
    pub achieved_arrival_rate: f64,
    /// Mean submission lag behind the open-loop schedule, seconds.
    pub mean_submit_lag_secs: f64,
    /// Controller updates that saw the service overloaded.
    pub overloaded_observations: u64,
    /// Recent admission decisions, in admission order (ring-capped; see
    /// `decisions_total` for the lifetime count).
    pub decisions: Vec<DegradeDecision>,
    /// Lifetime admission-decision count, including any evicted from
    /// the ring.
    pub decisions_total: u64,
    /// Per-job outcomes, in completion order.
    pub jobs: Vec<JobOutcome>,
    /// Prometheus text exposition of the observability registry at
    /// phase end. When phases share an `Obs` context (the default in
    /// [`run`]), counters are cumulative across phases, exactly as a
    /// live scrape would see them.
    pub prometheus: String,
    /// The same registry as a structured JSON snapshot.
    pub metrics: RegistrySnapshot,
}

/// The full report: both phases plus the headline comparison.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadReport {
    /// The configuration that produced this report.
    pub config: LoadConfig,
    /// Controller disabled: every job admitted precise.
    pub baseline: PhaseReport,
    /// Controller enabled: jobs degraded within their budgets.
    pub controlled: PhaseReport,
    /// `baseline.p99 − controlled.p99`, seconds (positive = the
    /// controller lowered tail latency).
    pub p99_improvement_secs: f64,
    /// `baseline.p99 / controlled.p99`.
    pub p99_speedup: f64,
}

/// Exponentially distributed arrival offsets for a Poisson process at
/// `rate` jobs/sec; deterministic in `seed`.
fn arrival_times(jobs: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11A_17A1);
    let mut t = 0.0;
    (0..jobs)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate.max(1e-9);
            t
        })
        .collect()
}

/// Worst relative confidence half-width across a job's output keys.
fn worst_relative_bound(outputs: &[(u64, Interval)]) -> Option<f64> {
    outputs
        .iter()
        .filter(|(_, iv)| iv.estimate.abs() > 0.0)
        .map(|(_, iv)| iv.half_width / iv.estimate.abs())
        .fold(None, |acc, b| Some(acc.map_or(b, |a: f64| a.max(b))))
}

/// Submits tenant `j` of the load `config` describes: a
/// [`PROJECT_BYTES`] aggregation over the tenant's own synthetic access
/// log. `base` supplies everything but the tenant's name, slots, seed,
/// budget and worker count, which come from `config`. The job runs on
/// the shared pool, or on `config.process_workers` `approx-worker`
/// processes when that is positive. Its reducers stream their running
/// bound ([`BoundMonitor::reporting`]), which feeds the `Wave` events,
/// the bound series and the live bound gauges.
pub fn submit_tenant(
    service: &JobService,
    config: &LoadConfig,
    j: usize,
    base: &JobSpec,
) -> Result<JobHandle<(u64, Interval)>, RuntimeError> {
    let log = WikiLog {
        days: 1,
        entries_per_block: config.entries_per_block,
        blocks_per_day: config.blocks_per_job,
        pages: 5_000,
        projects: 12,
        seed: config.seed.wrapping_add(1 + j as u64),
    };
    let spec = JobSpec {
        name: format!("tenant-{j}"),
        map_slots: config.slots.max(2),
        seed: config.seed.wrapping_add(101 + j as u64),
        budget: ApproxBudget::up_to(config.max_drop_ratio, config.min_sampling_ratio),
        workers: config.process_workers.max(1),
        ..base.clone()
    };
    let make_reducer = |_| {
        MultiStageReducer::<u64>::new(PROJECT_BYTES.aggregation, 0.95)
            .with_monitor(BoundMonitor::reporting())
    };
    if config.process_workers > 0 {
        let worker = WorkerSpec::sibling("approx-worker", PROJECT_BYTES.name)?;
        service.submit_process(spec, Arc::new(log.source()), worker, make_reducer)
    } else {
        let mapper = Arc::new(PROJECT_BYTES.mapper());
        service.submit(spec, Arc::new(log.source()), mapper, make_reducer)
    }
}

/// The service one phase runs against, publishing into `obs`.
fn phase_service(config: &LoadConfig, controller_enabled: bool, obs: Arc<Obs>) -> JobService {
    JobService::with_obs(
        config.slots,
        AdmissionConfig {
            p99_target_secs: config.p99_target_secs,
            max_relative_bound: config.max_relative_bound,
            // A backlog deeper than one full round of slots means jobs
            // are already waiting — react at admission, not first
            // completion.
            queue_threshold: config.slots,
            increase_step: 0.35,
            enabled: controller_enabled,
            ..Default::default()
        },
        obs,
    )
}

/// Runs one phase: the full arrival sequence against a fresh service
/// with its own observability context.
pub fn run_phase(config: &LoadConfig, controller_enabled: bool) -> PhaseReport {
    run_phase_with_obs(config, controller_enabled, Obs::shared())
}

/// Runs one phase against a fresh service publishing into `obs` —
/// callers that keep the `Arc` can render the Chrome trace or scrape
/// the registry afterwards.
pub fn run_phase_with_obs(
    config: &LoadConfig,
    controller_enabled: bool,
    obs: Arc<Obs>,
) -> PhaseReport {
    let service = phase_service(config, controller_enabled, Arc::clone(&obs));
    let arrivals = arrival_times(config.jobs, config.arrival_rate, config.seed);
    let base = JobSpec::default();

    let in_flight = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = std::sync::mpsc::channel::<JobOutcome>();

    let start = Instant::now();
    let mut waiters = Vec::with_capacity(config.jobs);
    let mut lag_sum = 0.0;
    let mut last_submit_secs = 0.0;
    for (j, arrival) in arrivals.iter().copied().enumerate() {
        // Open loop: submit at the scheduled instant no matter how far
        // behind the service is.
        let due = start + Duration::from_secs_f64(arrival);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let submit_lag = (start.elapsed().as_secs_f64() - arrival).max(0.0);
        lag_sum += submit_lag;
        // A rejected submission (or, on the process backend, a missing
        // worker binary) is a failed job, not a dead load test.
        let handle = submit_tenant(&service, config, j, &base).ok();
        last_submit_secs = start.elapsed().as_secs_f64();
        let Some(handle) = handle else { continue };
        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);

        let job_in_flight = Arc::clone(&in_flight);
        let done_tx = done_tx.clone();
        let submitted = Instant::now();
        let waiter = std::thread::Builder::new()
            .name(format!("waiter-{j}"))
            .spawn(move || {
                let (id, name) = (handle.id, handle.name.clone());
                let (degrade, drop_ratio, sampling_ratio) =
                    (handle.degrade, handle.drop_ratio, handle.sampling_ratio);
                let result = handle.wait();
                let latency = submitted.elapsed().as_secs_f64();
                job_in_flight.fetch_sub(1, Ordering::SeqCst);
                // A failed job sends no outcome; the phase counts it.
                let Ok(mut result) = result else { return };
                let _ = done_tx.send(JobOutcome {
                    job: id.0,
                    name,
                    arrival_secs: arrival,
                    submit_lag_secs: submit_lag,
                    degrade,
                    drop_ratio,
                    sampling_ratio,
                    latency_secs: latency,
                    wall_secs: result.metrics.wall_secs,
                    total_maps: result.metrics.total_maps,
                    executed_maps: result.metrics.executed_maps,
                    dropped_maps: result.metrics.dropped_maps,
                    worst_relative_bound: worst_relative_bound(&result.outputs),
                    bound_series: std::mem::take(&mut result.metrics.bound_series),
                });
            });
        match waiter {
            Ok(waiter) => waiters.push(waiter),
            // No waiter, no outcome: one more failed job.
            Err(_) => {
                in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    drop(done_tx);
    for w in waiters {
        // A waiter that panicked sent no outcome: one more failed job.
        let _ = w.join();
    }
    let makespan = start.elapsed().as_secs_f64();
    let jobs: Vec<JobOutcome> = done_rx.try_iter().collect();

    let latencies: Vec<f64> = jobs.iter().map(|o| o.latency_secs).collect();
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    PhaseReport {
        controller_enabled,
        makespan_secs: makespan,
        throughput_jobs_per_sec: jobs.len() as f64 / makespan.max(1e-9),
        p50_latency_secs: percentile(&latencies, 0.50).unwrap_or(0.0),
        p99_latency_secs: percentile(&latencies, 0.99).unwrap_or(0.0),
        mean_latency_secs: mean,
        peak_concurrency: peak.load(Ordering::SeqCst),
        failed_jobs: config.jobs - jobs.len(),
        achieved_arrival_rate: config.jobs as f64 / last_submit_secs.max(1e-9),
        mean_submit_lag_secs: lag_sum / config.jobs.max(1) as f64,
        overloaded_observations: service.controller().overloaded_observations(),
        decisions: service.controller().decisions(),
        decisions_total: service.controller().decisions_total(),
        jobs,
        prometheus: obs.registry.render_prometheus(),
        metrics: obs.registry.snapshot(),
    }
}

/// Runs the baseline (controller off) and controlled (controller on)
/// phases over the same arrival sequence and reports both.
pub fn run(config: &LoadConfig) -> LoadReport {
    run_with_obs(config, Obs::shared())
}

/// [`run`] with a caller-supplied observability context shared by both
/// phases, so the Chrome trace shows them back to back on one timeline.
pub fn run_with_obs(config: &LoadConfig, obs: Arc<Obs>) -> LoadReport {
    let baseline = run_phase_with_obs(config, false, Arc::clone(&obs));
    let controlled = run_phase_with_obs(config, true, obs);
    let p99_improvement_secs = baseline.p99_latency_secs - controlled.p99_latency_secs;
    let p99_speedup = baseline.p99_latency_secs / controlled.p99_latency_secs.max(1e-9);
    LoadReport {
        config: *config,
        baseline,
        controlled,
        p99_improvement_secs,
        p99_speedup,
    }
}

// ---------------------------------------------------------------------
// Saturation-seeking search (`loadtest --find-max-tps`)
// ---------------------------------------------------------------------

/// The service-level objective a saturation search holds the service
/// to while hunting for its maximum sustainable arrival rate.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SloSpec {
    /// p99 job latency ceiling, seconds.
    pub p99_secs: f64,
    /// Worst relative interval half-width ceiling (`None` = latency
    /// only).
    pub max_relative_bound: Option<f64>,
    /// Fraction of a step's jobs allowed over the latency ceiling
    /// before the step counts as violating.
    pub violation_tolerance: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            p99_secs: 0.4,
            max_relative_bound: None,
            violation_tolerance: 0.1,
        }
    }
}

/// Knobs of a saturation search.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SatConfig {
    /// Template for each measurement step (slots, job shape, budget,
    /// seed, backend); `arrival_rate`/`jobs`/`p99_target_secs` are
    /// overridden per step.
    pub base: LoadConfig,
    /// The SLO to hold.
    pub slo: SloSpec,
    /// First offered arrival rate, jobs/second.
    pub start_rate: f64,
    /// Jobs fired per measurement step.
    pub jobs_per_step: usize,
    /// Step budget across ramp and refinement.
    pub max_steps: usize,
    /// Refinement stops once the bracket narrows to this fraction of
    /// the passing rate.
    pub precision: f64,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            base: LoadConfig::default(),
            slo: SloSpec::default(),
            start_rate: 1.0,
            jobs_per_step: 12,
            max_steps: 12,
            precision: 0.15,
        }
    }
}

/// Which stage of the search a step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum SearchPhase {
    /// Multiplicative ramp: rate doubles until the SLO breaks.
    Ramp,
    /// Binary refinement inside the `[passing, failing]` bracket.
    Refine,
}

/// One measured operating point.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StepMeasurement {
    /// Search stage this step ran under.
    pub phase: SearchPhase,
    /// Offered (scheduled) arrival rate, jobs/second.
    pub offered_rate: f64,
    /// Arrival rate the generator actually achieved.
    pub achieved_rate: f64,
    /// Completed jobs per second over the step's makespan.
    pub throughput_jobs_per_sec: f64,
    /// p99 job latency, seconds.
    pub p99_latency_secs: f64,
    /// Fraction of jobs over the latency SLO (a failed job counts as
    /// over it).
    pub violation_rate: f64,
    /// Worst relative bound across the step's jobs, if any reported.
    pub worst_relative_bound: Option<f64>,
    /// Mean degrade factor across admissions.
    pub mean_degrade: f64,
    /// Whether the step held the SLO.
    pub slo_met: bool,
    /// Whether the *generator* fell behind its own schedule (achieved
    /// rate visibly short of offered): the measurement says nothing
    /// about the service past this rate.
    pub generator_saturated: bool,
}

/// The saturation search's verdict.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SaturationReport {
    /// The search configuration.
    pub config: SatConfig,
    /// Every measured step, in execution order.
    pub steps: Vec<StepMeasurement>,
    /// Highest offered arrival rate that held the SLO (the knee), in
    /// jobs/second; `0` if even the starting rate violated it.
    pub knee_rate: f64,
    /// Measured completion throughput at the knee, jobs/second.
    pub max_sustainable_tps: f64,
    /// Whether the search found a stable operating point (at least one
    /// passing step, bracket refined or ramp exhausted).
    pub converged: bool,
    /// Whether the ramp stopped because the generator, not the
    /// service, saturated.
    pub generator_saturated: bool,
}

/// Threshold below which `achieved/offered` marks the generator as the
/// bottleneck.
const GENERATOR_SATURATION_FRACTION: f64 = 0.85;

/// Judges one completed phase against the SLO.
fn judge_step(
    phase: SearchPhase,
    offered_rate: f64,
    slo: &SloSpec,
    report: &PhaseReport,
) -> StepMeasurement {
    let violations = report
        .jobs
        .iter()
        .filter(|o| o.latency_secs > slo.p99_secs)
        .count()
        + report.failed_jobs;
    let violation_rate = violations as f64 / (report.jobs.len() + report.failed_jobs).max(1) as f64;
    let worst_bound = report
        .jobs
        .iter()
        .filter_map(|o| o.worst_relative_bound)
        .fold(None, |acc: Option<f64>, b| {
            Some(acc.map_or(b, |a| a.max(b)))
        });
    let mean_degrade = report.decisions.iter().map(|d| d.degrade).sum::<f64>()
        / report.decisions.len().max(1) as f64;
    let bound_ok = match (slo.max_relative_bound, worst_bound) {
        (Some(max), Some(b)) => b <= max,
        _ => true,
    };
    let slo_met = report.p99_latency_secs <= slo.p99_secs
        && violation_rate <= slo.violation_tolerance
        && bound_ok;
    let generator_saturated =
        report.achieved_arrival_rate < GENERATOR_SATURATION_FRACTION * offered_rate;
    StepMeasurement {
        phase,
        offered_rate,
        achieved_rate: report.achieved_arrival_rate,
        throughput_jobs_per_sec: report.throughput_jobs_per_sec,
        p99_latency_secs: report.p99_latency_secs,
        violation_rate,
        worst_relative_bound: worst_bound,
        mean_degrade,
        slo_met,
        generator_saturated,
    }
}

/// The search skeleton with a pluggable step runner, so the hill-climb
/// logic is testable against a synthetic service with a known knee.
/// `measure` receives `(offered_rate, phase)` and returns the measured
/// operating point.
pub fn find_max_tps_with<F>(cfg: &SatConfig, mut measure: F) -> SaturationReport
where
    F: FnMut(f64, SearchPhase) -> StepMeasurement,
{
    let mut steps: Vec<StepMeasurement> = Vec::new();
    let mut best_pass: Option<StepMeasurement> = None;
    let mut lo: Option<f64> = None; // highest passing rate
    let mut hi: Option<f64> = None; // lowest failing rate
    let mut generator_saturated = false;

    // Phase 1 — multiplicative ramp: double until the SLO breaks, the
    // generator saturates, or the step budget runs out.
    let mut rate = cfg.start_rate.max(1e-3);
    while steps.len() < cfg.max_steps {
        let m = measure(rate, SearchPhase::Ramp);
        let passed = m.slo_met;
        let gen_sat = m.generator_saturated;
        steps.push(m.clone());
        if passed {
            lo = Some(rate);
            best_pass = Some(m);
            if gen_sat {
                // Passing but the generator cannot offer more load:
                // the knee is at least here; stop ramping.
                generator_saturated = true;
                break;
            }
            rate *= 2.0;
        } else {
            hi = Some(rate);
            break;
        }
    }

    // Phase 2 — binary refinement of the [lo, hi] bracket.
    if let (Some(mut lo_r), Some(mut hi_r)) = (lo, hi) {
        while steps.len() < cfg.max_steps && (hi_r - lo_r) > cfg.precision * lo_r {
            let mid = 0.5 * (lo_r + hi_r);
            let m = measure(mid, SearchPhase::Refine);
            let passed = m.slo_met;
            steps.push(m.clone());
            if passed {
                lo_r = mid;
                best_pass = Some(m);
            } else {
                hi_r = mid;
            }
        }
        lo = Some(lo_r);
    }

    let knee_rate = lo.unwrap_or(0.0);
    let max_sustainable_tps = best_pass
        .as_ref()
        .map(|m| m.throughput_jobs_per_sec)
        .unwrap_or(0.0);
    let converged = best_pass.is_some();

    SaturationReport {
        config: *cfg,
        steps,
        knee_rate,
        max_sustainable_tps,
        converged,
        generator_saturated,
    }
}

/// Runs the saturation search against the real [`JobService`] on the
/// synthetic wikilog workload, publishing search state into `obs`
/// (`loadtest_target_tps`, `loadtest_search_phase` — 0 ramp / 1 refine —
/// and `loadtest_knee_tps`).
pub fn find_max_tps_with_obs(cfg: &SatConfig, obs: Arc<Obs>) -> SaturationReport {
    let report = find_max_tps_with(cfg, |rate, phase| {
        obs.registry.gauge("loadtest_target_tps", &[]).set(rate);
        obs.registry
            .gauge("loadtest_search_phase", &[])
            .set(match phase {
                SearchPhase::Ramp => 0.0,
                SearchPhase::Refine => 1.0,
            });
        let step_config = LoadConfig {
            arrival_rate: rate,
            jobs: cfg.jobs_per_step,
            p99_target_secs: cfg.slo.p99_secs,
            max_relative_bound: cfg.slo.max_relative_bound,
            ..cfg.base
        };
        let phase_report = run_phase_with_obs(&step_config, true, Arc::clone(&obs));
        judge_step(phase, rate, &cfg.slo, &phase_report)
    });
    obs.registry
        .gauge("loadtest_knee_tps", &[])
        .set(report.knee_rate);
    report
}

/// [`find_max_tps_with_obs`] with a private observability context.
pub fn find_max_tps(cfg: &SatConfig) -> SaturationReport {
    find_max_tps_with_obs(cfg, Obs::shared())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LoadConfig {
        LoadConfig {
            slots: 2,
            jobs: 4,
            arrival_rate: 200.0,
            blocks_per_job: 8,
            entries_per_block: 60,
            p99_target_secs: 1e-6, // force overload immediately
            ..Default::default()
        }
    }

    /// Synthetic service: holds the SLO up to `knee` offered jobs/s,
    /// violates above it; the generator cannot exceed `gen_limit`.
    fn synthetic_step(rate: f64, phase: SearchPhase, knee: f64, gen_limit: f64) -> StepMeasurement {
        let achieved = rate.min(gen_limit);
        StepMeasurement {
            phase,
            offered_rate: rate,
            achieved_rate: achieved,
            throughput_jobs_per_sec: achieved.min(knee),
            p99_latency_secs: if rate <= knee { 0.1 } else { 1.0 },
            violation_rate: if rate <= knee { 0.0 } else { 0.5 },
            worst_relative_bound: None,
            mean_degrade: 0.0,
            slo_met: rate <= knee,
            generator_saturated: achieved < GENERATOR_SATURATION_FRACTION * rate,
        }
    }

    #[test]
    fn search_converges_on_a_synthetic_knee() {
        let cfg = SatConfig {
            start_rate: 1.0,
            max_steps: 20,
            precision: 0.1,
            ..Default::default()
        };
        let report = find_max_tps_with(&cfg, |r, p| synthetic_step(r, p, 10.0, f64::INFINITY));
        assert!(report.converged);
        assert!(!report.generator_saturated);
        // The knee is found within the configured precision and never
        // overshoots the true knee (it is the highest *passing* rate).
        assert!(report.knee_rate <= 10.0 + 1e-9, "{}", report.knee_rate);
        assert!(
            (10.0 - report.knee_rate) <= cfg.precision * 10.0,
            "knee {} too far from 10.0",
            report.knee_rate
        );
        assert!(report.max_sustainable_tps > 0.0);
        // The ramp comes first, refinement after; both respect the
        // step budget.
        assert!(report.steps.len() <= cfg.max_steps);
        let first_refine = report
            .steps
            .iter()
            .position(|s| s.phase == SearchPhase::Refine)
            .expect("bracket was refined");
        assert!(report.steps[..first_refine]
            .iter()
            .all(|s| s.phase == SearchPhase::Ramp));
    }

    #[test]
    fn underpowered_generator_stops_the_ramp_and_is_reported() {
        let cfg = SatConfig {
            start_rate: 1.0,
            max_steps: 20,
            ..Default::default()
        };
        // Service knee at 10 jobs/s but the generator tops out at 3:
        // the search must stop at the last honest measurement instead
        // of crediting the service with rates it never saw.
        let report = find_max_tps_with(&cfg, |r, p| synthetic_step(r, p, 10.0, 3.0));
        assert!(report.converged);
        assert!(report.generator_saturated);
        assert!(
            report.knee_rate < 10.0,
            "knee {} claims more than the generator could offer",
            report.knee_rate
        );
    }

    #[test]
    fn search_without_a_passing_step_does_not_converge() {
        let cfg = SatConfig {
            start_rate: 1.0,
            max_steps: 8,
            ..Default::default()
        };
        // Even the starting rate violates the SLO.
        let report = find_max_tps_with(&cfg, |r, p| synthetic_step(r, p, 0.25, f64::INFINITY));
        assert!(!report.converged);
        assert_eq!(report.knee_rate, 0.0);
        assert_eq!(report.max_sustainable_tps, 0.0);
    }

    #[test]
    fn ramp_respects_the_step_budget() {
        let cfg = SatConfig {
            start_rate: 1.0,
            max_steps: 3,
            ..Default::default()
        };
        // SLO never breaks: the ramp must stop at the budget with the
        // best measured rate rather than doubling forever.
        let report = find_max_tps_with(&cfg, |r, p| {
            synthetic_step(r, p, f64::INFINITY, f64::INFINITY)
        });
        assert!(report.converged);
        assert_eq!(report.steps.len(), 3);
        assert_eq!(report.knee_rate, 4.0); // 1 -> 2 -> 4
    }

    #[test]
    fn phase_report_accounts_for_every_job() {
        let report = run_phase(&tiny(), true);
        assert_eq!(report.jobs.len(), 4);
        assert_eq!(report.failed_jobs, 0);
        assert_eq!(report.decisions.len(), 4);
        assert!(report.throughput_jobs_per_sec > 0.0);
        assert!(report.p99_latency_secs >= report.p50_latency_secs);
        for o in &report.jobs {
            assert_eq!(o.total_maps, 8);
            assert_eq!(o.executed_maps + o.dropped_maps, 8);
        }
    }

    #[test]
    fn failed_jobs_are_counted_instead_of_killing_the_phase() {
        // A budget the service rejects: every submission fails, and the
        // phase still reports — with the failures counted, kept out of
        // the latency statistics, and held against the SLO.
        let config = LoadConfig {
            max_drop_ratio: 1.5,
            ..tiny()
        };
        let report = run_phase(&config, true);
        assert_eq!(report.failed_jobs, 4);
        assert!(report.jobs.is_empty());
        assert_eq!(report.p99_latency_secs, 0.0);
        let step = judge_step(SearchPhase::Ramp, 200.0, &SloSpec::default(), &report);
        assert_eq!(step.violation_rate, 1.0);
        assert!(!step.slo_met, "a step whose jobs all failed holds no SLO");
    }

    #[test]
    fn baseline_phase_admits_everything_precise() {
        let report = run_phase(&tiny(), false);
        for o in &report.jobs {
            assert_eq!(o.drop_ratio, 0.0);
            assert_eq!(o.sampling_ratio, 1.0);
            assert_eq!(o.executed_maps, 8);
            // Precise jobs carry zero-width bounds.
            assert_eq!(o.worst_relative_bound, Some(0.0));
        }
    }

    /// The controlled phase's admissions, exactly. On the controlled
    /// phase's service (p99 target 1 µs, no accuracy SLO) tenant 0 is
    /// admitted at degrade 0: the controller starts at 0 and the pool
    /// has no backlog. Its tracker feeds its outcome to the controller
    /// before `wait` returns. The latency exceeds 1 µs, so the window's
    /// p99 is over target and the update adds
    /// `increase_step·(1 + severity) > 0` to the degrade factor. No
    /// later update lowers it: every completion is over target, so
    /// every update adds, and so does every backlog check at admission.
    /// The ceiling stays 1 without an accuracy SLO. So tenants 1–3,
    /// submitted after tenant 0 finished, are all admitted degraded.
    #[test]
    fn controlled_phase_degrades_under_impossible_target() {
        let config = tiny();
        let service = phase_service(&config, true, Obs::shared());
        let base = JobSpec::default();
        let first = submit_tenant(&service, &config, 0, &base).unwrap();
        assert_eq!(first.degrade, 0.0);
        first.wait().unwrap();
        let later: Vec<_> = (1..4)
            .map(|j| submit_tenant(&service, &config, j, &base).unwrap())
            .collect();
        for handle in later {
            assert!(handle.degrade > 0.0, "{} admitted precise", handle.name);
            assert!(handle.drop_ratio > 0.0 && handle.sampling_ratio < 1.0);
            let result = handle.wait().unwrap();
            // Degraded jobs report non-trivial bounds that stay finite.
            if let Some(b) = worst_relative_bound(&result.outputs) {
                assert!(b.is_finite());
            }
        }
    }

    #[test]
    fn load_report_carries_both_phases() {
        let report = run(&tiny());
        assert!(!report.baseline.controller_enabled);
        assert!(report.controlled.controller_enabled);
        assert_eq!(report.baseline.jobs.len(), 4);
        assert_eq!(report.controlled.jobs.len(), 4);
        for o in &report.controlled.jobs {
            if let Some(b) = o.worst_relative_bound {
                assert!(b.is_finite());
            }
        }
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"p99_speedup\""));
        assert!(json.contains("\"worst_relative_bound\""));
    }
}
