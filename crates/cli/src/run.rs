//! Subcommand implementations.

use approxhadoop_cluster::{simulate as sim, ClusterSpec, SimJobSpec};
use approxhadoop_core::job::ApproxResult;
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_runtime::engine::JobConfig;
use approxhadoop_runtime::fault::{FaultPlan, FaultPolicy};
use approxhadoop_runtime::metrics::JobMetrics;
use approxhadoop_stats::Interval;
use approxhadoop_workloads::apps;
use approxhadoop_workloads::dcgrid::{AnnealConfig, Grid};
use approxhadoop_workloads::deptlog::DeptLog;
use approxhadoop_workloads::kmeans::DocVectors;
use approxhadoop_workloads::wikidump::WikiDump;
use approxhadoop_workloads::wikilog::WikiLog;
use approxhadoop_workloads::APPLICATIONS;

use crate::args::{Args, UsageError};

/// Observability sinks requested on the command line: `--trace-out`
/// writes Chrome trace-format JSON (load it at `chrome://tracing` or
/// in Perfetto), `--metrics-out` writes the Prometheus text
/// exposition of the metrics registry, and `--obs-addr HOST:PORT`
/// serves both live over HTTP (`GET /metrics`, `/trace`, `/jobs`)
/// for the duration of the command.
struct ObsSinks {
    obs: std::sync::Arc<approxhadoop_obs::Obs>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    /// Keeps the HTTP exporter alive until the command finishes.
    _server: Option<approxhadoop_obs::ObsServer>,
}

/// `Some` only when at least one sink flag was given — uninstrumented
/// runs stay uninstrumented.
fn obs_sinks(args: &Args) -> Result<Option<ObsSinks>, UsageError> {
    let trace_out = args.get("trace-out").map(str::to_string);
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let obs_addr = args.get("obs-addr").map(str::to_string);
    if trace_out.is_none() && metrics_out.is_none() && obs_addr.is_none() {
        return Ok(None);
    }
    let obs = approxhadoop_obs::Obs::shared();
    let server = obs_addr
        .map(|addr| {
            approxhadoop_obs::serve_metrics(&addr, std::sync::Arc::clone(&obs))
                .map_err(|e| UsageError(format!("cannot serve --obs-addr {addr}: {e}")))
        })
        .transpose()?;
    if let Some(s) = &server {
        eprintln!(
            "serving /metrics, /trace and /jobs on http://{}/",
            s.local_addr()
        );
    }
    Ok(Some(ObsSinks {
        obs,
        trace_out,
        metrics_out,
        _server: server,
    }))
}

impl ObsSinks {
    /// Writes whichever files were requested.
    fn write(&self) -> Result<(), UsageError> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, self.obs.tracer.render_chrome_trace())
                .map_err(|e| UsageError(format!("cannot write --trace-out {path}: {e}")))?;
            eprintln!("wrote Chrome trace to {path}");
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, self.obs.registry.render_prometheus())
                .map_err(|e| UsageError(format!("cannot write --metrics-out {path}: {e}")))?;
            eprintln!("wrote Prometheus metrics to {path}");
        }
        Ok(())
    }
}

/// `approxhadoop list`
pub fn list() {
    println!(
        "{:<22} {:<22} {:^7} {:^5}",
        "Application", "Input", "Approx.", "Err."
    );
    for app in APPLICATIONS {
        let mut mech = String::new();
        if app.mechanisms.sampling {
            mech.push('S');
        }
        if app.mechanisms.dropping {
            mech.push('D');
        }
        if app.mechanisms.user_defined {
            mech.push('U');
        }
        println!(
            "{:<22} {:<22} {:^7} {:^5}",
            app.name,
            app.input,
            mech,
            app.error.to_string()
        );
    }
}

/// Dataset scale factors.
struct Scale {
    mult: u64,
}

fn scale(args: &Args) -> Result<Scale, UsageError> {
    match args.get("scale").unwrap_or("small") {
        "small" => Ok(Scale { mult: 1 }),
        "medium" => Ok(Scale { mult: 4 }),
        "large" => Ok(Scale { mult: 16 }),
        other => Err(UsageError(format!("unknown --scale `{other}`"))),
    }
}

/// Which executor runs the map side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// In-process scoped task-tracker threads.
    Threads,
    /// The shared slot pool (the service-mode executor).
    Pool,
    /// Separate worker OS processes with a spill-capable shuffle.
    Process,
}

fn backend(args: &Args) -> Result<Backend, UsageError> {
    match args.get("backend").unwrap_or("threads") {
        "threads" | "scoped" => Ok(Backend::Threads),
        "pool" => Ok(Backend::Pool),
        "process" => Ok(Backend::Process),
        other => Err(UsageError(format!(
            "unknown --backend `{other}` (expected `threads`/`scoped`, `pool` or `process`)"
        ))),
    }
}

/// `--slo-bound B`: the accuracy half of the SLO (worst relative
/// interval half-width), e.g. `0.05` for ±5%.
fn slo_bound(args: &Args) -> Result<Option<f64>, UsageError> {
    args.get("slo-bound")
        .map(|raw| {
            raw.parse::<f64>()
                .map_err(|_| UsageError(format!("invalid --slo-bound `{raw}`")))
        })
        .transpose()
}

fn job_config(args: &Args) -> Result<JobConfig, UsageError> {
    let mut config = JobConfig {
        reduce_tasks: args.get_parsed("reduce-tasks", 2usize)?,
        seed: args.get_parsed("seed", 0u64)?,
        ..Default::default()
    };
    config.workers = args.get_parsed("workers", config.workers)?;
    let shuffle_mib: usize = args.get_parsed("shuffle-mem", config.shuffle_mem_bytes >> 20)?;
    config.shuffle_mem_bytes = shuffle_mib.checked_mul(1 << 20).ok_or_else(|| {
        UsageError(format!(
            "--shuffle-mem {shuffle_mib} MiB overflows a byte count"
        ))
    })?;
    config.flight_dir = args.get("flight-dir").map(std::path::PathBuf::from);
    if let Some(spec) = args.get("fault-plan") {
        config.fault_plan = Some(FaultPlan::parse(spec).map_err(UsageError)?);
    }
    let retries = args.get_parsed("max-task-retries", 0u32)?;
    if retries > 0 {
        config.fault_policy = FaultPolicy::tolerant(retries);
    }
    if let Some(raw) = args.get("fault-bound") {
        let bound: f64 = raw
            .parse()
            .map_err(|_| UsageError(format!("invalid --fault-bound `{raw}`")))?;
        config.fault_policy.max_degraded_bound = Some(bound);
    }
    // Surface bad flag combinations as usage errors up front, before any
    // data is generated or a job is started.
    config.validate().map_err(|e| UsageError(e.to_string()))?;
    Ok(config)
}

fn print_outputs<K: std::fmt::Display>(result: &ApproxResult<(K, Interval)>, top: usize) {
    let mut rows: Vec<&(K, Interval)> = result.outputs.iter().collect();
    rows.sort_by(|a, b| b.1.estimate.total_cmp(&a.1.estimate));
    println!(
        "{:>16} | {:>14} | {:>12} | {:>8}",
        "key", "estimate", "±95% CI", "rel%"
    );
    for (k, iv) in rows.into_iter().take(top) {
        println!(
            "{:>16} | {:>14.2} | {:>12.2} | {:>7.2}%",
            k,
            iv.estimate,
            iv.half_width,
            iv.relative_error() * 100.0
        );
    }
    print_metrics(&result.metrics, result.outputs.len());
}

fn print_metrics(m: &JobMetrics, keys: usize) {
    println!(
        "\n{} keys; {} maps executed, {} dropped, {} killed; sampling ratio {:.1}%; {:.3}s",
        keys,
        m.executed_maps,
        m.dropped_maps,
        m.killed_maps,
        m.effective_sampling_ratio() * 100.0,
        m.wall_secs
    );
    if m.failed_maps > 0 || m.retried_maps > 0 || m.degraded_to_drop > 0 {
        println!(
            "fault tolerance: {} failed attempts, {} retries, {} tasks degraded to drops",
            m.failed_maps, m.retried_maps, m.degraded_to_drop
        );
    }
}

/// Runs the two-input approximate join (access log × page catalogue)
/// on whichever backend `--backend` selected: scoped threads, the
/// shared slot pool, or worker processes.
fn run_join(
    args: &Args,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<approxhadoop_workloads::join::JoinOutcome, UsageError> {
    use approxhadoop_runtime::control::DatasetRatios;
    use approxhadoop_workloads::join;

    let (drop_ratio, sampling_ratio) = spec
        .fixed_ratios()
        .ok_or_else(|| UsageError("join supports --drop/--sample only".into()))?;
    let ratios = DatasetRatios {
        sampling_ratio,
        drop_ratio,
    };
    let seed = args.get_parsed("seed", 0u64)?;
    let sc = scale(args)?;
    let w = join::JoinWorkload::demo(sc.mult, seed);
    let fail = |e: approxhadoop_core::CoreError| UsageError(e.to_string());
    match backend(args)? {
        Backend::Threads => join::join_category_traffic(&w, ratios, config, 0.95).map_err(fail),
        Backend::Pool => {
            let slots = args.get_parsed("slots", 4usize)?;
            join::join_category_traffic_pooled(&w, ratios, config, 0.95, slots).map_err(fail)
        }
        Backend::Process => {
            use approxhadoop_runtime::engine::WorkerSpec;
            let worker = WorkerSpec::sibling("approx-worker", join::JOIN_JOB)
                .map_err(|e| UsageError(e.to_string()))?;
            join::join_category_traffic_process(&w, ratios, config, 0.95, &worker).map_err(fail)
        }
    }
}

/// `approxhadoop run <app> [options]`
pub fn run_app(args: &Args) -> Result<(), UsageError> {
    let app = args
        .positional
        .first()
        .ok_or_else(|| UsageError("run requires an application name".into()))?
        .as_str();
    let spec = args.approx_spec()?;
    let sinks = obs_sinks(args)?;
    let mut config = job_config(args)?;
    if let Some(s) = &sinks {
        config.obs = Some(std::sync::Arc::clone(&s.obs));
    }
    let seed = args.get_parsed("seed", 0u64)?;
    let sc = scale(args)?;
    let top = args.get_parsed("top", 10usize)?;

    let dump = WikiDump {
        articles: 50_000 * sc.mult,
        articles_per_block: 1_000,
        seed,
    };
    let log = WikiLog {
        days: 7,
        entries_per_block: 4_000 * sc.mult,
        blocks_per_day: 12,
        pages: 100_000,
        projects: 500,
        seed,
    };
    let dept = DeptLog {
        weeks: 80,
        requests_per_week: 4_000 * sc.mult,
        clients: 20_000,
        attack_fraction: 1e-3,
        seed,
    };
    let fail = |e: approxhadoop_core::CoreError| UsageError(e.to_string());

    // The two-input join is the one multi-dataset application; it has
    // its own runners for all three backends.
    if app == "join" || app == approxhadoop_workloads::join::JOIN_JOB {
        let outcome = run_join(args, spec, config)?;
        println!(
            "{:>10} | {:>16} | {:>12} | {:>8}",
            "category", "bytes (est.)", "±95% CI", "rel%"
        );
        for (category, iv) in &outcome.categories {
            println!(
                "{:>10} | {:>16.0} | {:>12.0} | {:>7.2}%",
                category,
                iv.estimate,
                iv.half_width,
                iv.relative_error() * 100.0
            );
        }
        println!(
            "{:>10} | {:>16.0} | {:>12.0} | {:>7.2}%",
            "TOTAL",
            outcome.combined.estimate,
            outcome.combined.half_width,
            outcome.combined.relative_error() * 100.0
        );
        print_metrics(&outcome.metrics, outcome.categories.len());
        if let Some(s) = &sinks {
            s.write()?;
        }
        return Ok(());
    }

    // Single-input applications run on scoped threads or worker
    // processes; the pool executor is reached through `serve` (or the
    // join above, which drives it directly).
    if backend(args)? == Backend::Pool {
        return Err(UsageError(
            "--backend pool supports only the `join` application; \
             single-input apps run pooled via `serve`"
                .into(),
        ));
    }

    // The wikilog aggregations run on scoped threads or, dispatched by
    // name, in worker OS processes started from the sibling
    // `approx-worker` binary.
    if let Some(job) = apps::WikilogJob::named(app) {
        let r = match backend(args)? {
            Backend::Process => {
                use approxhadoop_runtime::engine::WorkerSpec;
                let worker = WorkerSpec::sibling("approx-worker", job.name)
                    .map_err(|e| UsageError(e.to_string()))?;
                job.run_on_workers(&log, spec, config, &worker.bin)
            }
            Backend::Threads | Backend::Pool => job.run(&log, spec, config),
        };
        print_outputs(&r.map_err(fail)?, top);
        if let Some(s) = &sinks {
            s.write()?;
        }
        return Ok(());
    }
    if backend(args)? == Backend::Process {
        let supported: Vec<&str> = apps::WIKILOG_JOBS.iter().map(|job| job.name).collect();
        return Err(UsageError(format!(
            "application `{app}` is not available on the process backend (supported: {})",
            supported.join(", ")
        )));
    }

    match app {
        "wiki-length" => print_outputs(&apps::wiki_length(&dump, spec, config).map_err(fail)?, top),
        "wiki-page-rank" => print_outputs(
            &apps::wiki_page_rank(&dump, spec, config).map_err(fail)?,
            top,
        ),
        "bytes-per-access" => print_outputs(
            &apps::bytes_per_access(&log, spec, config).map_err(fail)?,
            top,
        ),
        "total-size" => print_outputs(&apps::total_size(&dept, spec, config).map_err(fail)?, top),
        "request-size" => {
            print_outputs(&apps::request_size(&dept, spec, config).map_err(fail)?, top)
        }
        "clients" => print_outputs(&apps::clients(&dept, spec, config).map_err(fail)?, top),
        "client-browser" => print_outputs(
            &apps::client_browser(&dept, spec, config).map_err(fail)?,
            top,
        ),
        "attack-frequencies" => print_outputs(
            &apps::attack_frequencies(&dept, spec, config).map_err(fail)?,
            top,
        ),
        "dept-request-rate" => print_outputs(
            &apps::dept_request_rate(&dept, spec, config).map_err(fail)?,
            top,
        ),
        "mentions-per-paragraph" => {
            let (drop, sample) = spec.fixed_ratios().ok_or_else(|| {
                UsageError("mentions-per-paragraph supports --drop/--sample only".into())
            })?;
            let r = apps::mentions_per_paragraph(&dump, drop, sample, config).map_err(fail)?;
            print_outputs(&r, top);
        }
        "dc-placement" => {
            let grid = Grid::us_like(16, seed);
            let anneal = AnnealConfig::default();
            let maps = (40 * sc.mult) as usize;
            let r = apps::dc_placement(&grid, &anneal, maps, 2, spec, config).map_err(fail)?;
            let out = &r.outputs[0];
            println!("best placement cost found: {:.2}", out.observed);
            match out.estimated {
                Some(iv) => println!("GEV estimate of the optimum: {iv}"),
                None => println!("(too few maps for a GEV fit)"),
            }
            print_metrics(&r.metrics, 1);
        }
        "video-encoding" => {
            let approx_fraction = args.get_parsed("approx-fraction", 0.5f64)?;
            let r = apps::video_encoding(
                32,
                (16 * sc.mult) as usize,
                4,
                approx_fraction,
                seed,
                config,
            )
            .map_err(fail)?;
            println!(
                "{} frames; {} coefficients; mean PSNR {:.2} dB; {:.0}% chunks approximate",
                r.frames,
                r.coefficients,
                r.mean_psnr_db,
                r.approx_chunk_fraction * 100.0
            );
        }
        "kmeans" => {
            let (_, sample) = spec
                .fixed_ratios()
                .ok_or_else(|| UsageError("kmeans supports --sample only".into()))?;
            let data = DocVectors {
                points: 10_000 * sc.mult,
                points_per_block: 2_000,
                dims: 8,
                true_clusters: 5,
                seed,
            };
            let r = apps::kmeans(&data, 5, 8, sample, config).map_err(fail)?;
            println!(
                "k-means inertia {:.0} at sampling ratio {:.1}%",
                r.inertia,
                r.sampling_ratio * 100.0
            );
        }
        other => return Err(UsageError(format!("unknown application `{other}`"))),
    }
    if let Some(s) = &sinks {
        s.write()?;
    }
    Ok(())
}

/// `approxhadoop simulate [options]`
pub fn simulate(args: &Args) -> Result<(), UsageError> {
    let maps = args.get_parsed("maps", 740usize)?;
    let records = args.get_parsed("records", 2_600_000u64)?;
    let servers = args.get_parsed("servers", 10usize)?;
    let seed = args.get_parsed("seed", 0u64)?;
    let mut cluster = if args.flag("atom") {
        ClusterSpec::atom(servers)
    } else {
        ClusterSpec::xeon(servers)
    };
    if args.flag("s3") {
        cluster = cluster.with_s3();
    }
    let spec = args.approx_spec()?;
    let job = SimJobSpec::log_processing(maps, records);
    let r = sim(&cluster, &job, spec, seed).map_err(|e| UsageError(e.to_string()))?;
    println!(
        "wall {:.0}s | energy {:.1}Wh | maps: {} run, {} dropped, {} killed | sampling {:.1}%",
        r.wall_secs,
        r.energy_wh,
        r.executed_maps,
        r.dropped_maps,
        r.killed_maps,
        r.effective_sampling_ratio * 100.0
    );
    println!(
        "estimate {:.3e} | {:.0}% bound {:.3}% | actual error {:.3}%",
        r.estimate,
        spec.confidence() * 100.0,
        r.bound_rel * 100.0,
        r.actual_error_rel * 100.0
    );
    Ok(())
}

/// `approxhadoop serve` — run the multi-tenant job service against a
/// Poisson arrival stream, printing job events live.
pub fn serve(args: &Args) -> Result<(), UsageError> {
    use approxhadoop_server::loadgen::{submit_tenant, LoadConfig};
    use approxhadoop_server::{AdmissionConfig, ApproxBudget, JobService, JobSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // The flags `serve` shares with `run` (workers, shuffle memory and
    // the fault flags) are parsed and checked by the same code.
    let engine = job_config(args)?;
    // The tenants' shape: `submit_tenant` builds each one's log and
    // spec from it, on the shared pool (`threads` and `pool` are the
    // same thing here) or on `approx-worker` processes.
    let load = LoadConfig {
        slots: args.get_parsed("slots", 4usize)?,
        jobs: args.get_parsed("jobs", 8usize)?,
        arrival_rate: args.get_parsed("rate", 6.0f64)?,
        blocks_per_job: args.get_parsed("blocks", 32u64)?,
        entries_per_block: args.get_parsed("entries", 800u64)?,
        max_drop_ratio: args.get_parsed("max-drop", 0.7f64)?,
        min_sampling_ratio: args.get_parsed("min-sample", 0.25f64)?,
        p99_target_secs: args.get_parsed("p99-target", 0.4f64)?,
        max_relative_bound: slo_bound(args)?,
        seed: engine.seed,
        process_workers: match backend(args)? {
            Backend::Threads | Backend::Pool => 0,
            Backend::Process => engine.workers,
        },
    };
    let base = JobSpec {
        max_task_retries: engine.fault_policy.max_task_retries,
        fault_plan: engine.fault_plan,
        max_degraded_bound: engine.fault_policy.max_degraded_bound,
        shuffle_mem_bytes: engine.shuffle_mem_bytes,
        ..Default::default()
    };
    let (slots, jobs, rate) = (load.slots, load.jobs, load.arrival_rate);
    ApproxBudget::up_to(load.max_drop_ratio, load.min_sampling_ratio)
        .validate()
        .map_err(UsageError)?;
    if slots == 0 {
        return Err(UsageError("--slots must be at least 1".into()));
    }
    if !(rate > 0.0 && rate.is_finite()) {
        return Err(UsageError(format!(
            "--rate must be positive and finite, got {rate}"
        )));
    }

    println!(
        "serving {jobs} jobs at {rate}/s over {slots} shared slots \
         (p99 target {}s, budget: drop<={}, sample>={})",
        load.p99_target_secs, load.max_drop_ratio, load.min_sampling_ratio
    );
    let sinks = obs_sinks(args)?;
    let admission = AdmissionConfig {
        p99_target_secs: load.p99_target_secs,
        max_relative_bound: load.max_relative_bound,
        ..Default::default()
    };
    // With sinks the service publishes into the CLI's observability
    // context so `--obs-addr` / `--metrics-out` / `--trace-out` see
    // every tenant; without, it keeps its private default context.
    let service = match &sinks {
        Some(s) => JobService::with_obs(slots, admission, Arc::clone(&s.obs)),
        None => JobService::new(slots, admission),
    };
    let mut rng = StdRng::seed_from_u64(load.seed ^ 0xA11A_17A1);
    let start = Instant::now();
    let mut handles = Vec::new();
    let mut results: Vec<Option<_>> = (0..jobs).map(|_| None).collect();
    let mut next_arrival = 0.0f64;

    let stamp = |start: Instant| format!("[{:7.3}s]", start.elapsed().as_secs_f64());
    let mut submitted = 0usize;
    while submitted < jobs || results.iter().any(|r| r.is_none()) {
        // Submit every job whose scheduled arrival has passed.
        while submitted < jobs && start.elapsed().as_secs_f64() >= next_arrival {
            let handle = submit_tenant(&service, &load, submitted, &base)
                .map_err(|e| UsageError(e.to_string()))?;
            println!(
                "{} {} submitted as {} (degrade {:.2}: drop {:.2}, sample {:.2})",
                stamp(start),
                handle.name,
                handle.id,
                handle.degrade,
                handle.drop_ratio,
                handle.sampling_ratio
            );
            handles.push(handle);
            submitted += 1;
            let u: f64 = rng.gen();
            next_arrival += -(1.0 - u).ln() / rate.max(1e-9);
        }
        // Drain and print everyone's events; collect finished results.
        for (j, handle) in handles.iter().enumerate() {
            for event in handle.events().try_iter() {
                use approxhadoop_runtime::event::JobEvent;
                match event {
                    JobEvent::Queued { job } => println!("{} {job} queued", stamp(start)),
                    JobEvent::Wave {
                        job,
                        finished,
                        total,
                        worst_bound,
                    } => match worst_bound {
                        Some(b) => println!(
                            "{} {job} wave {finished}/{total} (bound {:.3}%)",
                            stamp(start),
                            b * 100.0
                        ),
                        None => println!("{} {job} wave {finished}/{total}", stamp(start)),
                    },
                    JobEvent::Estimate {
                        job,
                        worst_relative_bound,
                    } => println!(
                        "{} {job} bound {:.3}%",
                        stamp(start),
                        worst_relative_bound * 100.0
                    ),
                    JobEvent::TaskRetry {
                        job,
                        task,
                        attempt,
                        reason,
                    } => println!(
                        "{} {job} retrying {task} (attempt {attempt}): {reason}",
                        stamp(start)
                    ),
                    JobEvent::Done { job, wall_secs } => {
                        println!("{} {job} done in {wall_secs:.3}s", stamp(start))
                    }
                    JobEvent::Failed { job, reason } => {
                        println!("{} {job} FAILED: {reason}", stamp(start))
                    }
                }
            }
            if results[j].is_none() {
                if let Some(r) = handle.try_wait() {
                    results[j] = Some(r);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "\n{:<12} {:>8} {:>14} {:>10}",
        "job", "maps", "dropped", "wall"
    );
    for (j, r) in results.into_iter().enumerate() {
        match r.expect("loop exits once every job finished") {
            Ok(r) => println!(
                "tenant-{j:<5} {:>8} {:>14} {:>9.3}s",
                r.metrics.executed_maps, r.metrics.dropped_maps, r.metrics.wall_secs
            ),
            Err(e) => println!("tenant-{j:<5} failed: {e}"),
        }
    }
    println!(
        "service p50 {:.3}s | p99 {:.3}s | {} overload observations",
        service.controller().p50().unwrap_or(0.0),
        service.controller().p99().unwrap_or(0.0),
        service.controller().overloaded_observations()
    );
    if let Some(s) = &sinks {
        s.write()?;
    }
    Ok(())
}

/// `approxhadoop loadtest` — run the Poisson load harness with the
/// controller off then on and print the comparison report as JSON, or
/// with `--find-max-tps` hill-climb the arrival rate to the service's
/// maximum sustainable TPS at a stated SLO and print the
/// `SaturationReport`.
pub fn loadtest(args: &Args) -> Result<(), UsageError> {
    use approxhadoop_server::loadgen::{
        find_max_tps, find_max_tps_with_obs, run, run_with_obs, LoadConfig, SatConfig, SloSpec,
    };

    let defaults = LoadConfig::default();
    let mut config = LoadConfig {
        slots: args.get_parsed("slots", defaults.slots)?,
        jobs: args.get_parsed("jobs", defaults.jobs)?,
        arrival_rate: args.get_parsed("rate", defaults.arrival_rate)?,
        blocks_per_job: args.get_parsed("blocks", defaults.blocks_per_job)?,
        entries_per_block: args.get_parsed("entries", defaults.entries_per_block)?,
        max_drop_ratio: args.get_parsed("max-drop", defaults.max_drop_ratio)?,
        min_sampling_ratio: args.get_parsed("min-sample", defaults.min_sampling_ratio)?,
        p99_target_secs: args.get_parsed("p99-target", defaults.p99_target_secs)?,
        max_relative_bound: slo_bound(args)?,
        seed: args.get_parsed("seed", defaults.seed)?,
        process_workers: match backend(args)? {
            Backend::Threads | Backend::Pool => 0,
            Backend::Process => args.get_parsed("workers", 2usize)?,
        },
    };
    if config.slots == 0 {
        return Err(UsageError("--slots must be at least 1".into()));
    }
    if !(config.arrival_rate > 0.0 && config.arrival_rate.is_finite()) {
        return Err(UsageError(format!(
            "--rate must be positive and finite, got {}",
            config.arrival_rate
        )));
    }
    if config.process_workers > 0 {
        // As in `serve`: a missing worker binary is a usage error up
        // front, not a load test whose every job fails.
        approxhadoop_runtime::engine::WorkerSpec::sibling(
            "approx-worker",
            apps::PROJECT_BYTES.name,
        )
        .map_err(|e| UsageError(e.to_string()))?;
    }
    let sinks = obs_sinks(args)?;

    if args.flag("find-max-tps") {
        let sat_defaults = SatConfig::default();
        let smoke = args.flag("smoke");
        if smoke {
            // A seconds-scale search for CI: tiny jobs, few steps.
            config.blocks_per_job = args.get_parsed("blocks", 6u64)?;
            config.entries_per_block = args.get_parsed("entries", 200u64)?;
        }
        let sat = SatConfig {
            base: config,
            slo: SloSpec {
                p99_secs: args.get_parsed("slo-p99", config.p99_target_secs)?,
                max_relative_bound: config.max_relative_bound,
                violation_tolerance: args
                    .get_parsed("slo-tolerance", sat_defaults.slo.violation_tolerance)?,
            },
            start_rate: args.get_parsed("start-rate", sat_defaults.start_rate)?,
            jobs_per_step: args.get_parsed(
                "jobs-per-step",
                if smoke { 6 } else { sat_defaults.jobs_per_step },
            )?,
            max_steps: args
                .get_parsed("max-steps", if smoke { 7 } else { sat_defaults.max_steps })?,
            precision: args.get_parsed("precision", sat_defaults.precision)?,
        };
        eprintln!(
            "loadtest --find-max-tps: SLO p99<={}s{}; ramp from {}/s, {} jobs/step, {} steps max",
            sat.slo.p99_secs,
            match sat.slo.max_relative_bound {
                Some(b) => format!(", bound<={b}"),
                None => String::new(),
            },
            sat.start_rate,
            sat.jobs_per_step,
            sat.max_steps
        );
        let report = match &sinks {
            Some(s) => find_max_tps_with_obs(&sat, std::sync::Arc::clone(&s.obs)),
            None => find_max_tps(&sat),
        };
        for step in &report.steps {
            eprintln!(
                "  [{:?}] offered {:.2}/s achieved {:.2}/s p99 {:.3}s viol {:.0}% degrade {:.2} -> {}",
                step.phase,
                step.offered_rate,
                step.achieved_rate,
                step.p99_latency_secs,
                step.violation_rate * 100.0,
                step.mean_degrade,
                if step.slo_met { "PASS" } else { "FAIL" }
            );
        }
        eprintln!(
            "knee {:.2} jobs/s (max sustainable TPS {:.2}), converged={}, generator_saturated={}",
            report.knee_rate,
            report.max_sustainable_tps,
            report.converged,
            report.generator_saturated
        );
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| UsageError(format!("{e:?}")))?
        );
        if let Some(s) = &sinks {
            s.write()?;
        }
        if !report.converged {
            return Err(UsageError(
                "saturation search found no stable operating point at the stated SLO".into(),
            ));
        }
        return Ok(());
    }

    eprintln!(
        "loadtest: {} jobs at {}/s over {} slots, twice (controller off, then on)",
        config.jobs, config.arrival_rate, config.slots
    );
    let report = match &sinks {
        Some(s) => run_with_obs(&config, std::sync::Arc::clone(&s.obs)),
        None => run(&config),
    };
    eprintln!(
        "p99 {:.3}s -> {:.3}s ({:.2}x)",
        report.baseline.p99_latency_secs, report.controlled.p99_latency_secs, report.p99_speedup
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| UsageError(format!("{e:?}")))?
    );
    if let Some(s) = &sinks {
        s.write()?;
    }
    Ok(())
}
