//! Load-generator harness over the multi-tenant job service.
//!
//! Fires a Poisson open-loop arrival stream of aggregation jobs at a
//! [`approxhadoop_server::JobService`] twice — admission controller off
//! (baseline) then on — and emits one JSON document comparing the two:
//! throughput, p50/p99 latency, peak concurrency, per-job achieved
//! error bounds, and every degradation decision.
//!
//! With `--find-max-tps` the harness searches instead of replaying: a
//! saturation-seeking hill-climb of the arrival rate to the maximum
//! sustainable TPS at a stated SLO (see
//! [`approxhadoop_server::loadgen::find_max_tps`]), emitting a
//! `SaturationReport` JSON document and exiting 1 if no stable
//! operating point exists.
//!
//! ```text
//! loadgen [--slots N] [--jobs N] [--rate JOBS_PER_SEC]
//!         [--blocks N] [--entries N] [--max-drop R] [--min-sample R]
//!         [--p99-target SECS] [--slo-bound B]
//!         [--seed N]
//!         [--find-max-tps [--slo-p99 SECS] [--slo-tolerance F]
//!          [--start-rate R] [--jobs-per-step N] [--max-steps N]
//!          [--precision F] [--smoke]]
//! ```

use approxhadoop_server::loadgen::{find_max_tps, run, LoadConfig, SatConfig};

struct SearchArgs {
    enabled: bool,
    smoke: bool,
    slo_p99: Option<f64>,
    slo_tolerance: Option<f64>,
    start_rate: Option<f64>,
    jobs_per_step: Option<usize>,
    max_steps: Option<usize>,
    precision: Option<f64>,
}

fn parse_args(config: &mut LoadConfig, search: &mut SearchArgs) -> Result<(), String> {
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {key}"));
        match key.as_str() {
            "--slots" => config.slots = value()?.parse().map_err(|e| format!("--slots: {e}"))?,
            "--jobs" => config.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--rate" => {
                config.arrival_rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?
            }
            "--blocks" => {
                config.blocks_per_job = value()?.parse().map_err(|e| format!("--blocks: {e}"))?
            }
            "--entries" => {
                config.entries_per_block =
                    value()?.parse().map_err(|e| format!("--entries: {e}"))?
            }
            "--max-drop" => {
                config.max_drop_ratio = value()?.parse().map_err(|e| format!("--max-drop: {e}"))?
            }
            "--min-sample" => {
                config.min_sampling_ratio =
                    value()?.parse().map_err(|e| format!("--min-sample: {e}"))?
            }
            "--p99-target" => {
                config.p99_target_secs =
                    value()?.parse().map_err(|e| format!("--p99-target: {e}"))?
            }
            "--slo-bound" => {
                config.max_relative_bound =
                    Some(value()?.parse().map_err(|e| format!("--slo-bound: {e}"))?)
            }
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--find-max-tps" => search.enabled = true,
            "--smoke" => search.smoke = true,
            "--slo-p99" => {
                search.slo_p99 = Some(value()?.parse().map_err(|e| format!("--slo-p99: {e}"))?)
            }
            "--slo-tolerance" => {
                search.slo_tolerance = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--slo-tolerance: {e}"))?,
                )
            }
            "--start-rate" => {
                search.start_rate =
                    Some(value()?.parse().map_err(|e| format!("--start-rate: {e}"))?)
            }
            "--jobs-per-step" => {
                search.jobs_per_step = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--jobs-per-step: {e}"))?,
                )
            }
            "--max-steps" => {
                search.max_steps = Some(value()?.parse().map_err(|e| format!("--max-steps: {e}"))?)
            }
            "--precision" => {
                search.precision = Some(value()?.parse().map_err(|e| format!("--precision: {e}"))?)
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(())
}

fn saturation_search(config: LoadConfig, search: &SearchArgs) -> ! {
    let mut sat = SatConfig {
        base: config,
        ..Default::default()
    };
    if search.smoke {
        sat.base.blocks_per_job = 6;
        sat.base.entries_per_block = 200;
        sat.jobs_per_step = 6;
        sat.max_steps = 7;
    }
    sat.slo.p99_secs = search.slo_p99.unwrap_or(sat.base.p99_target_secs);
    sat.slo.max_relative_bound = sat.base.max_relative_bound;
    if let Some(v) = search.slo_tolerance {
        sat.slo.violation_tolerance = v;
    }
    if let Some(v) = search.start_rate {
        sat.start_rate = v;
    }
    if let Some(v) = search.jobs_per_step {
        sat.jobs_per_step = v;
    }
    if let Some(v) = search.max_steps {
        sat.max_steps = v;
    }
    if let Some(v) = search.precision {
        sat.precision = v;
    }
    eprintln!(
        "# Saturation search: SLO p99<={}s, ramp from {}/s, {} jobs/step, {} steps max",
        sat.slo.p99_secs, sat.start_rate, sat.jobs_per_step, sat.max_steps
    );
    let report = find_max_tps(&sat);
    for step in &report.steps {
        eprintln!(
            "# [{:?}] offered {:.2}/s achieved {:.2}/s p99 {:.3}s -> {}",
            step.phase,
            step.offered_rate,
            step.achieved_rate,
            step.p99_latency_secs,
            if step.slo_met { "PASS" } else { "FAIL" }
        );
    }
    eprintln!(
        "# knee {:.2} jobs/s (max sustainable TPS {:.2}), converged={}, generator_saturated={}",
        report.knee_rate, report.max_sustainable_tps, report.converged, report.generator_saturated
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    std::process::exit(if report.converged { 0 } else { 1 });
}

fn main() {
    let mut config = LoadConfig::default();
    let mut search = SearchArgs {
        enabled: false,
        smoke: false,
        slo_p99: None,
        slo_tolerance: None,
        start_rate: None,
        jobs_per_step: None,
        max_steps: None,
        precision: None,
    };
    if let Err(e) = parse_args(&mut config, &mut search) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if search.enabled {
        saturation_search(config, &search);
    }
    // Narration goes to stderr; stdout carries exactly one JSON document.
    eprintln!(
        "# Loadgen: open-loop Poisson load on the shared-pool job service, controller off vs on"
    );
    eprintln!(
        "# {} jobs at {}/s over {} slots; {} maps x {} entries per job",
        config.jobs,
        config.arrival_rate,
        config.slots,
        config.blocks_per_job,
        config.entries_per_block,
    );
    let report = run(&config);
    eprintln!(
        "# baseline : p50 {:.3}s  p99 {:.3}s  thru {:.2}/s  peak {} in flight",
        report.baseline.p50_latency_secs,
        report.baseline.p99_latency_secs,
        report.baseline.throughput_jobs_per_sec,
        report.baseline.peak_concurrency,
    );
    eprintln!(
        "# controlled: p50 {:.3}s  p99 {:.3}s  thru {:.2}/s  peak {} in flight  ({} degradations)",
        report.controlled.p50_latency_secs,
        report.controlled.p99_latency_secs,
        report.controlled.throughput_jobs_per_sec,
        report.controlled.peak_concurrency,
        report
            .controlled
            .decisions
            .iter()
            .filter(|d| d.degrade > 0.0)
            .count(),
    );
    eprintln!(
        "# p99 improvement: {:.3}s ({:.2}x)",
        report.p99_improvement_secs, report.p99_speedup
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
}
