//! Figure 9: performance and accuracy when the user specifies a target
//! error bound — (a) Project Popularity, (b) Page Popularity with a
//! pilot wave, (c) DC Placement.

use approxhadoop_bench::{header, reps, timed, Summary};
use approxhadoop_cluster::{simulate, ClusterSpec, SimJobSpec};
use approxhadoop_core::spec::{ApproxSpec, PilotSpec};
use approxhadoop_runtime::engine::JobConfig;
use approxhadoop_workloads::apps;
use approxhadoop_workloads::dcgrid::{AnnealConfig, Grid};
use approxhadoop_workloads::wikilog::WikiLog;

fn config() -> JobConfig {
    JobConfig {
        map_slots: 8,
        reduce_tasks: 2,
        ..Default::default()
    }
}

fn wiki_log() -> WikiLog {
    WikiLog {
        days: 7,
        entries_per_block: 5_000,
        blocks_per_day: 12,
        pages: 100_000,
        projects: 500,
        seed: 9,
    }
}

const TARGETS: [f64; 7] = [0.0005, 0.001, 0.005, 0.01, 0.02, 0.05, 0.10];

/// Runs a target-mode sweep of Project or Page Popularity.
fn popularity_sweep(name: &str, page_level: bool, pilot: Option<PilotSpec>) {
    // Page Popularity uses a larger block count so the pilot wave is a
    // small fraction of the job (the pilot's coarse blocks put a floor
    // under the achievable bound, exactly as the paper observes: "we
    // cannot target errors lower than 0.2%").
    let log = if page_level {
        WikiLog {
            days: 8,
            entries_per_block: 3_000,
            blocks_per_day: 20,
            pages: 20_000,
            projects: 500,
            seed: 9,
        }
    } else {
        wiki_log()
    };
    let run = |spec: ApproxSpec, seed: u64| {
        let mut cfg = config();
        cfg.seed = seed;
        if page_level {
            apps::page_popularity(&log, spec, cfg)
        } else {
            apps::project_popularity(&log, spec, cfg)
        }
    };
    let truth = run(ApproxSpec::Precise, 0).unwrap();
    let (precise_wall, _) = timed(|| run(ApproxSpec::Precise, 1).unwrap());
    println!("\n--- {name}: precise runtime {precise_wall:.3}s ---");
    println!(
        "{:>8} | {:>9} | {:>6} | {:>8} | {:>9} | {:>9} | {:>9}",
        "target%", "real(s)", "maps", "sample%", "bound%", "actual%", "sim(s)"
    );

    // Paper-scale simulation: 740-map week on 10 Xeons.
    let cluster = ClusterSpec::xeon(10);
    let sim_job = SimJobSpec::log_processing(740, 2_600_000);

    for target in TARGETS {
        let mut walls = Vec::new();
        let mut bounds = Vec::new();
        let mut actuals = Vec::new();
        let mut maps = 0;
        let mut sample = 1.0;
        let spec = match pilot {
            Some(p) => ApproxSpec::target(target, 0.95).with_pilot(p),
            None => ApproxSpec::target(target, 0.95),
        };
        for seed in 0..reps() as u64 {
            let (wall, r) = timed(|| run(spec, seed).expect("target job"));
            walls.push(wall);
            maps = r.metrics.executed_maps;
            sample = r.metrics.effective_sampling_ratio();
            let (bound, actual) = approxhadoop_bench::worst_key_metrics(&r.outputs, &truth.outputs);
            bounds.push(bound);
            actuals.push(actual);
        }
        let sim_secs = simulate(&cluster, &sim_job, spec, 9)
            .map(|r| r.wall_secs)
            .unwrap_or(f64::NAN);
        println!(
            "{:>7.2}% | {:>9.3} | {:>6} | {:>7.1}% | {:>8.3}% | {:>8.3}% | {:>9.0}",
            target * 100.0,
            Summary::of(&walls).mean,
            maps,
            sample * 100.0,
            Summary::of(&bounds).mean * 100.0,
            Summary::of(&actuals).mean * 100.0,
            sim_secs
        );
    }
}

fn main() {
    header(
        "Figure 9",
        "Runtime & accuracy vs user-specified target error bound (95% confidence)",
    );

    // (a) Project Popularity, no pilot.
    popularity_sweep("(a) Project Popularity", false, None);

    // (b) Page Popularity with a 1% pilot wave.
    popularity_sweep(
        "(b) Page Popularity (pilot wave: 4 maps @ 5% sampling)",
        true,
        Some(PilotSpec {
            tasks: 4,
            sampling_ratio: 0.05,
        }),
    );

    // (c) DC Placement with target bounds (GEV).
    let grid = Grid::us_like(16, 19);
    let anneal = AnnealConfig {
        datacenters: 4,
        max_latency_ms: 50.0,
        iterations: 300,
    };
    let num_maps = 320;
    let full = apps::dc_placement(&grid, &anneal, num_maps, 1, ApproxSpec::Precise, config())
        .expect("full search");
    let best_known = full.outputs[0].observed;
    println!("\n--- (c) DC Placement ({num_maps} maps): best cost {best_known:.2} ---");
    println!(
        "{:>8} | {:>9} | {:>6} | {:>9} | {:>9}",
        "target%", "real(s)", "maps", "bound%", "actual%"
    );
    for target in [0.01, 0.02, 0.04, 0.06, 0.08, 0.10] {
        let mut walls = Vec::new();
        let mut maps = 0;
        let mut bound = f64::NAN;
        let mut actual = f64::NAN;
        for seed in 0..reps() as u64 {
            let mut cfg = config();
            cfg.seed = seed;
            let (wall, r) = timed(|| {
                apps::dc_placement(
                    &grid,
                    &anneal,
                    num_maps,
                    1,
                    ApproxSpec::target(target, 0.95),
                    cfg,
                )
                .expect("dc target job")
            });
            walls.push(wall);
            maps = r.metrics.executed_maps;
            if let Some(iv) = r.outputs[0].estimated {
                bound = iv.relative_error();
                actual = iv.actual_error(best_known);
            }
        }
        println!(
            "{:>7.1}% | {:>9.3} | {:>6} | {:>8.2}% | {:>8.2}%",
            target * 100.0,
            Summary::of(&walls).mean,
            maps,
            bound * 100.0,
            actual * 100.0
        );
    }
    println!(
        "\nShape check (paper Fig. 9): tiny targets force precise execution; from ~0.5%\n\
         upward the controller saves increasing work while always meeting the bound;\n\
         the pilot wave keeps even the first wave cheap."
    );
}
