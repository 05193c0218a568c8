//! The two service workloads: jobs submitted to a [`JobService`].
//!
//! * `service_open` — **open loop** beside a saturating batch tenant:
//!   independent tenants arrive on a seeded schedule at a fixed rate,
//!   whatever the service is doing, while one background tenant keeps
//!   the shared pool busy with back-to-back jobs of the same kind.
//!   Admission, weighted fair queuing on the pool and queue wait decide
//!   the arrivals' latency. Latency is timed from the instant a job was
//!   *due*, not from when the generator got round to sending it, so a
//!   stall is charged to the jobs behind it.
//! * `service_process_tiny` — **closed loop**, one client: the next job
//!   is submitted when the previous one returns. Each job is a few
//!   milliseconds of map work under the process backend's per-job
//!   spool, worker spawn, handshake and reap, so the fixed cost of the
//!   job wrapper is the workload.
//!
//! The load generator is one submitting thread plus one collecting
//! thread (which also keeps the background tenant supplied), in this
//! process.
//!
//! Why the background tenant: at the 25–50 % utilisation an open loop
//! alone offers, this kernel sometimes packs *every* thread of the
//! process onto one of the two vCPUs for a whole run, and every latency
//! doubles — a coin toss per run that no change to the engine moves.
//! With the pool saturated both CPUs stay busy, the arrivals measure
//! what the fair queue gives them, and runs repeat.

use std::sync::Arc;
use std::time::{Duration, Instant};

use approxhadoop::core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
use approxhadoop::obs::Obs;
use approxhadoop::runtime::engine::{JobResult, WorkerSpec};
use approxhadoop::runtime::RuntimeError;
use approxhadoop::server::admission::{AdmissionConfig, ApproxBudget};
use approxhadoop::server::service::{JobHandle, JobService, JobSpec};
use approxhadoop::stats::Interval;
use approxhadoop::workloads::wikilog::WikiLog;

use crate::batch::{
    boxed_source, engine_metrics, job_counts, job_seed, process_counters, repeat_setup, LogSource,
    RunArgs,
};
use crate::layers::{self, RecordPathPlan};
use crate::report::{Metrics, Outcome};
use crate::spans::SpanLog;
use crate::stats::{self, Summary};
use crate::{check, env, gen, jobs, MAP_SLOTS, REDUCE_TASKS, WORKERS};

/// Blocks × entries of one `service_open` job.
pub const OPEN_JOB: (u64, u64) = (24, 5_000);
/// Blocks × entries of one `service_process_tiny` job.
pub const TINY_JOB: (u64, u64) = (12, 5_000);
/// Arrival rate of `service_open`'s open loop, jobs per second: about a
/// quarter of what two slots sustain here, on top of the background
/// tenant that takes whatever is left. 400 arrivals in a 10 s run put 40
/// samples beyond the 90th percentile.
pub const OPEN_RATE: f64 = 40.0;
/// Latency limit of `service_open`, seconds: a job that fails, is
/// refused or finishes later than this counts as an SLO miss. Also the
/// p99 target handed to the admission controller.
pub const LATENCY_LIMIT_SECS: f64 = 0.25;
/// How late the generator may submit (p90) before the run is void: a
/// late generator is measuring itself.
pub const MAX_LAG_P90_MS: f64 = 1.0;
/// Times set-up is repeated in an untraced run (`setup_s` is the
/// median): it takes tens of milliseconds here, so a few more
/// repetitions than the batch workloads get cost nothing and steady it.
const SETUP_REPS: usize = 9;
/// Untimed jobs that warm a fresh service.
const WARM_JOBS: u64 = 2;
/// How often the collecting thread polls its outstanding handles.
const POLL: Duration = Duration::from_micros(250);

type Output = (u64, Interval);
/// The job every tenant submits, and the truth about its answer.
struct Tenant {
    open: bool,
    log: WikiLog,
    input: Arc<LogSource>,
    /// True bytes per project, ascending by project.
    reference: Vec<(u64, f64)>,
    worker: Option<WorkerSpec>,
}

/// A fresh service plus the tenant job — what set-up builds.
struct Prepared {
    service: JobService,
    tenant: Tenant,
}

/// Everything the generator observed about one job.
struct JobRecord {
    job: u64,
    due: Instant,
    sent: Instant,
    returned: Instant,
    done: Instant,
    degrade: f64,
    precise: bool,
    /// A job of the background tenant: checked and counted as work
    /// done, but not an arrival whose latency is reported.
    background: bool,
    result: Result<JobResult<Output>, String>,
}

impl JobRecord {
    fn latency(&self) -> f64 {
        (self.done - self.due).as_secs_f64()
    }
}

impl Tenant {
    fn prepare(seed: u64, open: bool) -> Result<Tenant, String> {
        let (blocks, entries) = if open { OPEN_JOB } else { TINY_JOB };
        let log = gen::tenant_log(blocks, entries, seed);
        Ok(Tenant {
            open,
            log,
            input: Arc::new(boxed_source(log)),
            reference: check::fold_log(&log, log.projects, |e| (e.project, e.bytes as f64)),
            worker: match open {
                true => None,
                false => Some(env::worker(jobs::PROJECT_BYTES_JOB)?),
            },
        })
    }

    fn sizes(&self) -> String {
        let shape = match self.open {
            true => format!(
                "open loop, {OPEN_RATE} jobs/s jittered, limit {LATENCY_LIMIT_SECS} s, \
                 shared pool saturated by 1 background tenant"
            ),
            false => format!("closed loop, 1 client, {WORKERS} worker processes per job"),
        };
        format!(
            "{} blocks x {} entries per job, {} projects; {shape}",
            self.log.num_blocks(),
            self.log.entries_per_block,
            self.log.projects
        )
    }

    /// Submits one job: on the shared pool (open loop) or on worker
    /// processes of its own (closed loop). The budget lets admission
    /// drop up to 70 % of the maps and sample down to 25 % under load.
    fn submit(&self, service: &JobService, job: u64) -> Result<JobHandle<Output>, RuntimeError> {
        let spec = JobSpec {
            name: format!("tenant-{job}"),
            map_slots: MAP_SLOTS,
            reduce_tasks: REDUCE_TASKS,
            workers: WORKERS,
            seed: job,
            budget: ApproxBudget::up_to(0.7, 0.25),
            ..Default::default()
        };
        let reducer = |_| MultiStageReducer::<u64>::new(Aggregation::Sum, 0.95);
        match &self.worker {
            None => service.submit(
                spec,
                Arc::clone(&self.input),
                Arc::new(MultiStageMapper::new(jobs::project_bytes)),
                reducer,
            ),
            Some(worker) => {
                service.submit_process(spec, Arc::clone(&self.input), worker.clone(), reducer)
            }
        }
    }

    /// Checks one finished job: a job admitted at full ratios must equal
    /// the reference bit for bit; a degraded one must bound every key.
    /// Returns the job's worst relative bound in percent.
    fn check(&self, record: &JobRecord) -> Result<f64, String> {
        let result = record.result.as_ref().map_err(|e| format!("failed: {e}"))?;
        let mut outputs = result.outputs.clone();
        outputs.sort_unstable_by_key(|&(project, _)| project);
        check::check_latency(record.latency(), result.metrics.wall_secs)?;
        if record.precise {
            check::check_precise(&outputs, &self.reference)?;
        } else {
            check::check_finite_bounds(&outputs)?;
        }
        Ok(check::approx_quality(&outputs, &[]).worst_bound_pct)
    }
}

fn prepare(seed: u64, open: bool) -> Result<Prepared, String> {
    let tenant = Tenant::prepare(seed, open)?;
    let service = JobService::with_obs(MAP_SLOTS, admission_config(), Obs::shared());
    let prepared = Prepared { service, tenant };
    for job in 0..WARM_JOBS {
        let record = one_job(&prepared, job, Instant::now());
        prepared.tenant.check(&record)?;
    }
    Ok(prepared)
}

fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        p99_target_secs: LATENCY_LIMIT_SECS,
        ..Default::default()
    }
}

/// Submits job `job` (due at `due`) and waits for it.
fn one_job(p: &Prepared, job: u64, due: Instant) -> JobRecord {
    InFlight::submit(p, job, due, false).wait()
}

/// Sleeps until shortly before `t`, then spins: `sleep` alone
/// overshoots by the timer slack, which would show up as generator lag.
fn wait_until(t: Instant) {
    loop {
        let left = t.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(250));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A submitted job the collector has yet to see finish.
struct InFlight {
    job: u64,
    due: Instant,
    sent: Instant,
    returned: Instant,
    background: bool,
    handle: Result<JobHandle<Output>, String>,
}

impl InFlight {
    /// Submits `job`, due at `due`, now.
    fn submit(p: &Prepared, job: u64, due: Instant, background: bool) -> InFlight {
        let sent = Instant::now();
        let handle = p.tenant.submit(&p.service, job).map_err(|e| e.to_string());
        InFlight {
            job,
            due,
            sent,
            returned: Instant::now(),
            background,
            handle,
        }
    }

    /// `(degrade, precise)` the job was admitted at.
    fn admitted(&self) -> (f64, bool) {
        self.handle.as_ref().map_or((0.0, false), |h| {
            (h.degrade, h.sampling_ratio >= 1.0 && h.drop_ratio == 0.0)
        })
    }

    /// The record of the job, which finished just now with `result`.
    fn record(
        &self,
        admitted: (f64, bool),
        result: Result<JobResult<Output>, String>,
    ) -> JobRecord {
        JobRecord {
            job: self.job,
            due: self.due,
            sent: self.sent,
            returned: self.returned,
            done: Instant::now(),
            degrade: admitted.0,
            precise: admitted.1,
            background: self.background,
            result,
        }
    }

    /// The finished job's record, if it has finished.
    fn poll(&self) -> Option<JobRecord> {
        let result = match &self.handle {
            Ok(h) => h.try_wait()?.map_err(|e| e.to_string()),
            Err(e) => Err(format!("refused: {e}")),
        };
        Some(self.record(self.admitted(), result))
    }

    /// Blocks until the job finishes.
    fn wait(mut self) -> JobRecord {
        let admitted = self.admitted();
        let result = match std::mem::replace(&mut self.handle, Err(String::new())) {
            Ok(h) => h.wait().map_err(|e| e.to_string()),
            Err(e) => Err(format!("refused: {e}")),
        };
        self.record(admitted, result)
    }
}

/// Open loop: the submitting thread follows `schedule` (seconds from
/// now) regardless of completions; this thread collects, and keeps one
/// job of the background tenant in the service for as long as arrivals
/// are due or in flight. Returns the records (arrivals in due order,
/// then background jobs) and the peak number of arrivals in flight.
fn open_loop(p: &Prepared, schedule: &[f64], seed: u64) -> (Vec<JobRecord>, usize) {
    let (tx, rx) = crossbeam::channel::unbounded::<InFlight>();
    let start = Instant::now() + Duration::from_millis(5);
    let first_job = job_seed(seed, WARM_JOBS);
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, offset) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(*offset);
                wait_until(due);
                let _ = tx.send(InFlight::submit(p, first_job + i as u64, due, false));
            }
        });
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut records = Vec::with_capacity(schedule.len());
        let (mut peak, mut background_jobs) = (0, 0u64);
        let mut submitting = true;
        loop {
            loop {
                match rx.try_recv() {
                    Ok(f) => in_flight.push(f),
                    Err(crossbeam::channel::TryRecvError::Empty) => break,
                    Err(crossbeam::channel::TryRecvError::Disconnected) => {
                        submitting = false;
                        break;
                    }
                }
            }
            let mut i = 0;
            while i < in_flight.len() {
                match in_flight[i].poll() {
                    Some(record) => {
                        in_flight.swap_remove(i);
                        records.push(record);
                    }
                    None => i += 1,
                }
            }
            let arrivals = in_flight.iter().filter(|f| !f.background).count();
            peak = peak.max(arrivals);
            if in_flight.len() == arrivals && (submitting || arrivals > 0) {
                let job = first_job + (1 << 15) + background_jobs;
                background_jobs += 1;
                in_flight.push(InFlight::submit(p, job, Instant::now(), true));
            }
            if in_flight.is_empty() {
                break;
            }
            std::thread::sleep(POLL);
        }
        records.sort_by_key(|r| (r.background, r.due));
        (records, peak)
    })
}

/// Closed loop, one client: each job is due the moment the previous
/// one returned.
fn closed_loop(p: &Prepared, seconds: f64, seed: u64) -> (Vec<JobRecord>, usize) {
    let started = Instant::now();
    let mut records = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        let job = seed
            .wrapping_mul(0x1_0000)
            .wrapping_add(WARM_JOBS + records.len() as u64);
        records.push(one_job(p, job, Instant::now()));
    }
    (records, 1)
}

fn generate(p: &Prepared, seconds: f64, seed: u64) -> (Vec<JobRecord>, usize) {
    match p.tenant.open {
        true => open_loop(p, &gen::jittered_schedule(OPEN_RATE, seconds, seed), seed),
        false => closed_loop(p, seconds, seed),
    }
}

/// What the records of one generated run add up to.
struct LoadSummary {
    latency: Summary,
    latency_p90: f64,
    tail: Option<(f64, f64)>,
    jobs_per_s: f64,
    records_per_s: f64,
    slo_miss_share: f64,
    lag_p90_ms: f64,
    worst_bound_pct: f64,
    background_jobs: usize,
}

/// Checks every record and summarises the run. Failures and check
/// errors land in `outcome`.
fn summarise(
    p: &Prepared,
    records: &[JobRecord],
    outcome: &mut Outcome,
) -> Result<LoadSummary, String> {
    let mut bounds = Vec::new();
    let mut misses = 0usize;
    for r in records {
        outcome.attempted += 1;
        if r.result.is_err() {
            outcome.failed += 1;
        }
        match p.tenant.check(r) {
            Ok(bound) => bounds.push(bound),
            Err(e) => outcome.errors.push(format!("job {}: {e}", r.job)),
        }
        if !r.background && (r.result.is_err() || r.latency() > LATENCY_LIMIT_SECS) {
            misses += 1;
        }
    }
    // Latency and lag are the arrivals'; work done counts every job.
    let arrivals = || records.iter().filter(|r| !r.background);
    let latencies: Vec<f64> = arrivals().map(JobRecord::latency).collect();
    let sorted = stats::sorted(&latencies);
    let lags: Vec<f64> = arrivals()
        .map(|r| (r.sent - r.due).as_secs_f64() * 1e3)
        .collect();
    let first = records
        .iter()
        .map(|r| r.due)
        .min()
        .ok_or("no job was generated")?;
    let last = records
        .iter()
        .map(|r| r.done)
        .max()
        .expect("records is non-empty");
    let makespan = (last - first).as_secs_f64();
    let completed = records.iter().filter(|r| r.result.is_ok()).count() as f64;
    let summary = LoadSummary {
        latency: Summary::of(&latencies).expect("records is non-empty"),
        latency_p90: stats::percentile(&sorted, 0.9).expect("records is non-empty"),
        tail: stats::tail_percentile(sorted.len())
            .map(|q| (q * 100.0, stats::percentile(&sorted, q).expect("non-empty"))),
        jobs_per_s: completed / makespan,
        records_per_s: completed * p.tenant.log.total_entries() as f64 / makespan,
        slo_miss_share: misses as f64 / latencies.len() as f64,
        background_jobs: records.len() - latencies.len(),
        lag_p90_ms: stats::percentile(&stats::sorted(&lags), 0.9).expect("records is non-empty"),
        worst_bound_pct: stats::median(&bounds).unwrap_or(f64::INFINITY),
    };
    if p.tenant.open && summary.lag_p90_ms > MAX_LAG_P90_MS {
        outcome.errors.push(format!(
            "the generator submitted {:.3} ms late at p90 (limit {MAX_LAG_P90_MS} ms): the run is void",
            summary.lag_p90_ms
        ));
    }
    Ok(summary)
}

/// Runs a service workload.
pub fn run_service(name: &str, open: bool, args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let result = if args.trace {
        traced(name, open, args, &mut outcome)
    } else {
        untraced(open, args, &mut outcome)
    };
    if let Err(e) = result {
        outcome.errors.push(e);
    }
    outcome
}

fn untraced(open: bool, args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    let (p, setups) = repeat_setup(SETUP_REPS, || prepare(args.seed, open))?;
    let (records, peak) = generate(&p, args.seconds, args.seed);
    let s = summarise(&p, &records, outcome)?;
    let m = &mut outcome.metrics;
    m.insert(
        "setup_s",
        stats::median(&setups).expect("SETUP_REPS is positive"),
    );
    m.insert("job_wall_s", s.latency.p50);
    m.insert("job_wall_p90_s", s.latency_p90);
    m.insert("input_records_per_s", s.records_per_s);
    m.insert("peak_rss_mb", env::peak_rss_mib().unwrap_or(0.0));
    outcome.notes.push(format!("sizes: {}", p.tenant.sizes()));
    outcome.notes.push(format!(
        "latency: n={} p25={:.4} p50={:.4} p75={:.4} p90={:.4} tail={:?}; jobs/s={:.2} slo_miss_share={:.4} \
         lag_p90_ms={:.3} peak_in_flight={peak} background_jobs={} worst_bound_pct={:.3}; setup_s: {setups:?}",
        s.latency.n, s.latency.p25, s.latency.p50, s.latency.p75, s.latency_p90, s.tail,
        s.jobs_per_s, s.slo_miss_share, s.lag_p90_ms, s.background_jobs, s.worst_bound_pct
    ));
    Ok(())
}

fn traced(name: &str, open: bool, args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    let run_started = Instant::now();
    let mut log = SpanLog::new();
    let (p, _) = log.scope("setup", 0, |_| prepare(args.seed, open));
    let p = p?;
    let (generated, _) = log.scope("generate", 0, |_| {
        generate(&p, args.seconds * 0.6, args.seed)
    });
    let (records, peak) = generated;
    let s = summarise(&p, &records, outcome)?;

    // One span per job from due time to completion, with the time inside
    // `submit*` and the time in the service as children; the rest of the
    // job span (its self time) is how late the generator sent it.
    let root = log.spans().len() - 1;
    // (The background tenant's jobs are counted, not drawn.)
    for r in records.iter().filter(|r| !r.background) {
        let job = log.record("job", r.job, Some(root), r.due, r.done);
        log.record("service.submit", r.job, Some(job), r.sent, r.returned);
        log.record("service.run", r.job, Some(job), r.returned, r.done);
    }

    let mut m = Metrics::new();
    let completed: Vec<(&JobRecord, &JobResult<Output>)> = records
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|res| (r, res)))
        .collect();
    // The trace reports the engine metrics of the last arrival.
    let (_, last) = completed
        .iter()
        .rev()
        .find(|(r, _)| !r.background)
        .ok_or("no arrival completed")?;
    engine_metrics(&mut m, &last.metrics, MAP_SLOTS);

    // ---- the service wrapper, from the generator's own clock ----
    let submit_us: Vec<f64> = records
        .iter()
        .map(|r| (r.returned - r.sent).as_secs_f64() * 1e6)
        .collect();
    let queue_share: Vec<f64> = completed
        .iter()
        .filter(|(r, _)| !r.background)
        .map(|(r, res)| 1.0 - res.metrics.wall_secs / r.latency())
        .collect();
    let degrades: Vec<f64> = records
        .iter()
        .filter(|r| !r.background)
        .map(|r| r.degrade)
        .collect();
    m.insert(
        "service.submit_us",
        stats::median(&submit_us).unwrap_or(0.0),
    );
    m.insert(
        "service.queue_wait_share",
        stats::median(&queue_share).unwrap_or(0.0),
    );
    m.insert("service.peak_in_flight", peak as f64);
    m.insert(
        "admission.degraded_share",
        degrades.iter().filter(|&&d| d > 0.0).count() as f64 / degrades.len() as f64,
    );
    m.insert(
        "admission.mean_degrade",
        degrades.iter().sum::<f64>() / degrades.len() as f64,
    );
    m.insert("loadgen.lag_p90_ms", s.lag_p90_ms);
    m.insert("service.slo_miss_share", s.slo_miss_share);
    m.insert("service.latency_p50_s", s.latency.p50);
    if let Some((pct, value)) = s.tail {
        m.insert("service.latency_tail_pct", pct);
        m.insert("service.latency_tail_s", value);
    }
    m.insert("service.jobs_per_s", s.jobs_per_s);
    m.insert("quality.worst_bound_pct", s.worst_bound_pct);
    m.insert(
        "quality.failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );

    // ---- published by the service's own Obs registry ----
    let snapshot = p.service.obs().registry.snapshot();
    // Every job is its own pool tenant, so each `pool_wait_secs`
    // histogram holds one job's task waits: its mean is exact.
    let waits_ms: Vec<f64> = snapshot
        .histograms
        .iter()
        .filter(|h| h.name == "pool_wait_secs" && h.count > 0)
        .map(|h| h.sum / h.count as f64 * 1e3)
        .collect();
    let waits_ms = stats::sorted(&waits_ms);
    m.insert(
        "pool.wait_p50_ms",
        stats::percentile(&waits_ms, 0.5).unwrap_or(0.0),
    );
    m.insert(
        "pool.wait_p90_ms",
        stats::percentile(&waits_ms, 0.9).unwrap_or(0.0),
    );
    // Per job: the registry accumulates over the service's lifetime.
    process_counters(&mut m, &snapshot, (records.len() as u64 + WARM_JOBS) as f64);

    // ---- measured here: each layer alone ----
    let (driven, _) = log.scope("layers", 0, |log| -> Result<(), String> {
        layers::drive_admission(log, &mut m, admission_config());
        let mut costs = layers::drive_record_path(
            log,
            &mut m,
            p.tenant.input.as_ref(),
            &MultiStageMapper::new(jobs::project_bytes),
            |_| MultiStageReducer::<u64>::new(Aggregation::Sum, 0.95),
            &RecordPathPlan {
                sampling_ratio: 1.0,
                combining: true,
                max_splits: usize::MAX,
                total_maps_factor: 1.0,
                seed: args.seed,
            },
        )?;
        if let Some(worker) = &p.tenant.worker {
            let log_ = &p.tenant.log;
            layers::drive_process_path(
                log,
                &mut m,
                log_,
                log_.num_blocks(),
                worker,
                &args.scratch,
                &mut costs,
            )?;
        }
        m.insert(
            "engine.unattributed_share",
            layers::unattributed_share(&costs, &last.metrics),
        );
        m.insert("engine.job_floor_us", layers::engine_job_floor_us(log)?);
        Ok(())
    });
    driven?;
    m.insert(
        "combine.out_in_ratio",
        last.metrics.shuffled_pairs as f64 / last.metrics.emitted_pairs.max(1) as f64,
    );
    // The service always carries an `Obs`, so there is no untraced
    // figure to compare with: overhead stays 0 here.
    m.insert("trace.job_wall_s", s.latency.p50);
    m.insert("trace.jobs", s.latency.n as f64);
    m.insert("trace.spans", log.spans().len() as f64);
    let mut counts = job_counts(&last.metrics);
    counts.push(("arrivals", s.latency.n as f64));
    counts.push(("background_jobs", s.background_jobs as f64));
    crate::sets::write_trace(
        name,
        args,
        &p.tenant.sizes(),
        &counts,
        &m,
        &log,
        run_started.elapsed().as_secs_f64(),
    )?;
    outcome.notes.push(format!("sizes: {}", p.tenant.sizes()));
    outcome.metrics = m;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The open loop's defining property, with the generator made to
    /// stall: a job sent late is still timed from when it was due.
    #[test]
    fn latency_counts_from_the_due_time_when_the_generator_stalls() {
        let due = Instant::now();
        let stall = Duration::from_millis(40);
        let sent = due + stall;
        let done = sent + Duration::from_millis(10);
        let record = JobRecord {
            job: 1,
            due,
            sent,
            returned: sent,
            done,
            degrade: 0.0,
            precise: true,
            background: false,
            result: Err("unused".into()),
        };
        assert_eq!(record.latency(), 0.050);
        assert!(record.latency() > (done - sent).as_secs_f64());
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let t = Instant::now() + Duration::from_millis(3);
        wait_until(t);
        assert!(Instant::now() >= t);
        wait_until(t); // already past: returns at once
    }

    /// The whole open loop against a real service, with a schedule whose
    /// second job is due while the first is still running.
    #[test]
    fn open_loop_times_every_job_from_its_schedule() {
        let tenant = Tenant {
            open: true,
            log: gen::tenant_log(4, 2_000, 1),
            input: Arc::new(boxed_source(gen::tenant_log(4, 2_000, 1))),
            reference: check::fold_log(&gen::tenant_log(4, 2_000, 1), 12, |e| {
                (e.project, e.bytes as f64)
            }),
            worker: None,
        };
        let p = Prepared {
            service: JobService::with_obs(MAP_SLOTS, admission_config(), Obs::shared()),
            tenant,
        };
        let schedule = [0.0, 0.0001, 0.0002, 0.05];
        let (records, peak) = open_loop(&p, &schedule, 9);
        let arrivals: Vec<&JobRecord> = records.iter().filter(|r| !r.background).collect();
        assert_eq!(arrivals.len(), 4);
        assert!(
            records.len() > 4,
            "the background tenant ran beside the arrivals"
        );
        assert!(peak >= 1);
        for r in &records {
            p.tenant.check(r).unwrap();
        }
        for (r, offset) in arrivals.iter().zip(schedule) {
            assert!(r.sent >= r.due && r.done >= r.returned);
            let gap = (r.due - arrivals[0].due).as_secs_f64();
            assert!((gap - offset).abs() < 1e-6, "due times follow the schedule");
        }
        let mut outcome = Outcome::default();
        let s = summarise(&p, &records, &mut outcome).unwrap();
        assert_eq!(
            (outcome.attempted, outcome.failed),
            (records.len() as u64, 0)
        );
        assert_eq!((s.latency.n, s.background_jobs), (4, records.len() - 4));
        assert!(s.latency.p50 > 0.0 && s.jobs_per_s > 0.0);
    }
}
