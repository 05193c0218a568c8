//! End-to-end integration tests spanning every crate: DFS → engine →
//! approximation templates → statistics, plus the cluster simulator.

use approxhadoop::cluster::{simulate, ClusterSpec, SimJobSpec};
use approxhadoop::core::job::AggregationJob;
use approxhadoop::core::spec::{ApproxSpec, PilotSpec};
use approxhadoop::dfs::{DfsCluster, DfsConfig};
use approxhadoop::runtime::engine::JobConfig;
use approxhadoop::runtime::text::TextSource;
use approxhadoop::workloads::apps;
use approxhadoop::workloads::dcgrid::{AnnealConfig, Grid};
use approxhadoop::workloads::deptlog::DeptLog;
use approxhadoop::workloads::wikilog::WikiLog;

use std::collections::HashMap;

fn small_config() -> JobConfig {
    JobConfig {
        map_slots: 4,
        reduce_tasks: 2,
        ..Default::default()
    }
}

/// DFS-stored text through the whole stack: the precise run must equal a
/// directly computed ground truth.
#[test]
fn dfs_to_estimate_pipeline_is_exact_when_precise() {
    let lines: Vec<String> = (0..5_000)
        .map(|i| format!("user{} {}", i % 13, (i * 7) % 100))
        .collect();
    let mut truth: HashMap<String, f64> = HashMap::new();
    for l in &lines {
        let user = l.split_whitespace().next().unwrap().to_string();
        *truth.entry(user).or_default() += 1.0;
    }

    let mut dfs = DfsCluster::new(DfsConfig {
        datanodes: 3,
        replication: 2,
        block_records: 250,
    });
    dfs.write_lines("log", &lines).unwrap();
    let input = TextSource::open(&dfs, "log").unwrap();

    let result = AggregationJob::count(|line: &String, emit: &mut dyn FnMut(String, f64)| {
        emit(line.split_whitespace().next().unwrap().to_string(), 1.0)
    })
    .spec(ApproxSpec::Precise)
    .config(small_config())
    .run(&input)
    .unwrap();

    assert_eq!(result.outputs.len(), truth.len());
    for (k, iv) in &result.outputs {
        assert_eq!(iv.half_width, 0.0);
        assert_eq!(iv.estimate, truth[k], "key {k}");
    }
    assert_eq!(result.metrics.executed_maps, 20);
}

/// Statistical validity: across seeds, the 95% interval of an
/// approximated run must contain the truth the vast majority of the time.
#[test]
fn sampled_intervals_cover_truth_across_seeds() {
    let log = WikiLog {
        days: 3,
        entries_per_block: 2_000,
        blocks_per_day: 10,
        pages: 20_000,
        projects: 100,
        seed: 5,
    };
    let precise = apps::project_popularity(&log, ApproxSpec::Precise, small_config()).unwrap();
    let truth: HashMap<u64, f64> = precise
        .outputs
        .iter()
        .map(|(k, iv)| (*k, iv.estimate))
        .collect();

    let mut covered = 0;
    let mut total = 0;
    for seed in 0..10 {
        let mut config = small_config();
        config.seed = seed;
        let approx = apps::project_popularity(&log, ApproxSpec::ratios(0.2, 0.25), config).unwrap();
        // Check the 5 most popular projects (popular keys have reliable
        // intervals; rare keys are the documented limitation).
        for k in 1..=5u64 {
            if let Some((_, iv)) = approx.outputs.iter().find(|(ak, _)| *ak == k) {
                total += 1;
                if iv.contains(truth[&k]) {
                    covered += 1;
                }
            }
        }
    }
    assert!(total >= 40, "most runs must see the top projects");
    let rate = covered as f64 / total as f64;
    assert!(rate >= 0.85, "coverage {rate} too low ({covered}/{total})");
}

/// Target-error mode never reports a bound above the target, across
/// applications and targets.
#[test]
fn target_mode_always_meets_reported_bounds() {
    let log = DeptLog {
        weeks: 40,
        requests_per_week: 2_000,
        clients: 3_000,
        attack_fraction: 1e-3,
        seed: 9,
    };
    for target in [0.01, 0.03, 0.10] {
        let r = apps::total_size(&log, ApproxSpec::target(target, 0.95), small_config()).unwrap();
        let iv = r.outputs[0].1;
        assert!(
            iv.relative_error() <= target + 1e-9,
            "target {target}: bound {} exceeded",
            iv.relative_error()
        );
    }
}

/// The pilot wave allows approximation even when the job would fit in a
/// single wave.
#[test]
fn pilot_wave_enables_single_wave_approximation() {
    let log = WikiLog {
        days: 1,
        entries_per_block: 5_000,
        blocks_per_day: 16,
        pages: 10_000,
        projects: 50,
        seed: 3,
    };
    // 16 maps on 16 slots = one wave: without a pilot everything runs
    // precisely before stats exist.
    let config = JobConfig {
        map_slots: 16,
        reduce_tasks: 1,
        ..Default::default()
    };
    let spec = ApproxSpec::target(0.05, 0.95).with_pilot(PilotSpec {
        tasks: 3,
        sampling_ratio: 0.05,
    });
    let r = apps::project_popularity(&log, spec, config).unwrap();
    assert!(
        r.metrics.effective_sampling_ratio() < 1.0,
        "pilot must enable sampling (ratio {})",
        r.metrics.effective_sampling_ratio()
    );
    let worst = r
        .outputs
        .iter()
        .map(|(_, iv)| iv.relative_error())
        .fold(0.0f64, f64::max);
    assert!(worst.is_finite());
}

/// GEV path end-to-end: dropping maps still produces an interval that
/// brackets the best cost any full run would find.
#[test]
fn dc_placement_gev_interval_brackets_optimum() {
    let grid = Grid::us_like(10, 17);
    let anneal = AnnealConfig {
        datacenters: 3,
        max_latency_ms: 60.0,
        iterations: 400,
    };
    let full =
        apps::dc_placement(&grid, &anneal, 40, 1, ApproxSpec::Precise, small_config()).unwrap();
    let best_known = full.outputs[0].observed;
    let dropped = apps::dc_placement(
        &grid,
        &anneal,
        40,
        1,
        ApproxSpec::ratios(0.5, 1.0),
        small_config(),
    )
    .unwrap();
    let out = &dropped.outputs[0];
    assert!(out.observed >= best_known, "subset cannot beat full search");
    if let Some(iv) = out.estimated {
        // The GEV estimate of the minimum should be at or below what the
        // dropped run observed, and near the full search's best.
        assert!(iv.estimate <= out.observed + 1e-9);
        assert!(
            iv.lo() <= best_known * 1.02,
            "interval [{}, {}] should reach down to {best_known}",
            iv.lo(),
            iv.hi()
        );
    }
}

/// The simulator and the real engine agree on the bookkeeping of
/// dropping/sampling (executed counts, sampling ratio) for the same
/// specification.
#[test]
fn simulator_matches_engine_bookkeeping() {
    let num_maps = 40;
    // Real engine.
    let log = WikiLog {
        days: 4,
        entries_per_block: 1_000,
        blocks_per_day: 10,
        pages: 5_000,
        projects: 20,
        seed: 21,
    };
    let real =
        apps::project_popularity(&log, ApproxSpec::ratios(0.25, 0.5), small_config()).unwrap();
    assert_eq!(real.metrics.dropped_maps, 10);
    assert_eq!(real.metrics.executed_maps, 30);
    assert!((real.metrics.effective_sampling_ratio() - 0.5).abs() < 0.02);

    // Simulator with the same shape.
    let job = SimJobSpec::log_processing(num_maps, 1_000);
    let sim = simulate(
        &ClusterSpec::xeon(2),
        &job,
        ApproxSpec::ratios(0.25, 0.5),
        21,
    )
    .unwrap();
    assert_eq!(sim.dropped_maps, 10);
    assert_eq!(sim.executed_maps, 30);
    assert!((sim.effective_sampling_ratio - 0.5).abs() < 0.02);
}

/// Actual errors stay within the same order as the predicted bounds for
/// the simulator's synthetic statistics (95% interval sanity).
#[test]
fn simulator_bounds_are_honest() {
    let job = SimJobSpec::log_processing(200, 50_000);
    let cluster = ClusterSpec::xeon(5);
    let mut violations = 0;
    for seed in 0..10 {
        let r = simulate(&cluster, &job, ApproxSpec::ratios(0.3, 0.2), seed).unwrap();
        assert!(r.bound_rel.is_finite());
        if r.actual_error_rel > r.bound_rel {
            violations += 1;
        }
    }
    // 95% confidence: allow at most a few violations out of 10.
    assert!(violations <= 2, "{violations}/10 bound violations");
}

/// Dropping reduces runtime more than sampling, but widens intervals —
/// the paper's core qualitative claim (Section 5.2).
#[test]
fn dropping_vs_sampling_tradeoff_shape() {
    let job = SimJobSpec::log_processing(320, 100_000);
    let cluster = ClusterSpec::xeon(10);
    let sampled = simulate(&cluster, &job, ApproxSpec::ratios(0.0, 0.1), 4).unwrap();
    let dropped = simulate(&cluster, &job, ApproxSpec::ratios(0.5, 1.0), 4).unwrap();
    // Dropping eliminates whole waves: faster than sampling (which still
    // pays the per-record read cost).
    assert!(
        dropped.wall_secs < sampled.wall_secs,
        "dropped {} vs sampled {}",
        dropped.wall_secs,
        sampled.wall_secs
    );
    // But block-level locality makes dropped intervals wider.
    assert!(
        dropped.bound_rel > sampled.bound_rel,
        "dropped bound {} vs sampled bound {}",
        dropped.bound_rel,
        sampled.bound_rel
    );
}

/// The DFS → TextSource → engine locality path: with one server per
/// datanode, most maps should be scheduled on a replica holder.
#[test]
fn dfs_locality_flows_to_the_scheduler() {
    use approxhadoop::workloads::deptlog::{DeptLog, Request};

    // Render a departmental log to DFS text and parse it back through
    // the full engine path.
    let log = DeptLog {
        weeks: 24,
        requests_per_week: 200,
        clients: 500,
        attack_fraction: 0.01,
        seed: 33,
    };
    let lines: Vec<String> = (0..log.weeks)
        .flat_map(|w| log.block(w).iter().map(|r| r.to_line()).collect::<Vec<_>>())
        .collect();
    let mut dfs = DfsCluster::new(DfsConfig {
        datanodes: 4,
        replication: 2,
        block_records: 200, // one block per week
    });
    dfs.write_lines("dept", &lines).unwrap();
    let input = TextSource::open(&dfs, "dept").unwrap();

    let config = JobConfig {
        map_slots: 4,
        servers: 4, // one server per datanode
        reduce_tasks: 2,
        ..Default::default()
    };
    let result = AggregationJob::count(|line: &String, emit: &mut dyn FnMut(u32, f64)| {
        if let Some(r) = Request::parse(line) {
            emit(r.hour % 24, 1.0);
        }
    })
    .spec(ApproxSpec::ratios(0.0, 0.5))
    .config(config)
    .run(&input)
    .unwrap();

    assert_eq!(result.metrics.executed_maps, 24);
    // With replication 2 on 4 nodes, locality should be achievable for
    // well over half the maps.
    assert!(
        result.metrics.local_maps >= 12,
        "local maps {} too few",
        result.metrics.local_maps
    );
    let total: f64 = result.outputs.iter().map(|(_, iv)| iv.estimate).sum();
    let truth = (log.weeks as u64 * log.requests_per_week) as f64;
    assert!(
        (total - truth).abs() / truth < 0.1,
        "total {total} vs {truth}"
    );
}

/// Distinct-key extrapolation recovers part of the gap left by missed
/// rare keys (the paper's §3.1 extension) on a real application.
#[test]
fn distinct_key_extrapolation_on_page_popularity() {
    let log = WikiLog {
        days: 2,
        entries_per_block: 2_000,
        blocks_per_day: 10,
        pages: 30_000,
        projects: 100,
        seed: 44,
    };
    let precise = apps::page_popularity(&log, ApproxSpec::Precise, small_config()).unwrap();
    let approx = apps::page_popularity(&log, ApproxSpec::ratios(0.0, 0.1), small_config()).unwrap();
    let truth = precise.outputs.len() as f64;
    let observed = approx.outputs.len() as f64;
    let est = approx.distinct_keys_estimate.expect("estimate");
    assert!(observed < truth, "sampling must miss pages");
    assert!(est > observed, "extrapolation exceeds the observed count");
    assert!(
        (est - truth).abs() < (observed - truth).abs(),
        "chao1 {est} should beat observed {observed} vs truth {truth}"
    );
}
