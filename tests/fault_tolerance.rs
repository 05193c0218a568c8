//! End-to-end fault-tolerance tests: injected failures flow through the
//! whole stack (DFS replica failover → engine retry → degrade-to-drop →
//! multi-stage interval widening) and the statistics stay honest.

use approxhadoop::core::job::AggregationJob;
use approxhadoop::core::spec::ApproxSpec;
use approxhadoop::dfs::{DfsCluster, DfsConfig, ReadFaults};
use approxhadoop::runtime::engine::JobConfig;
use approxhadoop::runtime::fault::{FaultPlan, FaultPolicy};
use approxhadoop::runtime::input::VecSource;
use approxhadoop::runtime::metrics::TaskOutcome;
use approxhadoop::runtime::text::TextSource;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn value_blocks(n_blocks: usize, per_block: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_blocks)
        .map(|_| (0..per_block).map(|_| rng.gen_range(0.0..10.0)).collect())
        .collect()
}

#[allow(clippy::type_complexity)]
fn sum_job() -> AggregationJob<f64, u8, impl Fn(&f64, &mut dyn FnMut(u8, f64)) + Send + Sync> {
    AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
}

/// A task that exhausts its retries becomes a dropped cluster: the
/// interval widens exactly as it would for a deliberately dropped map,
/// and still contains the precise run's answer.
#[test]
fn degraded_interval_contains_the_precise_answer() {
    let n_blocks = 40;
    let blocks = value_blocks(n_blocks, 100, 11);
    let truth: f64 = blocks.iter().flatten().sum();
    let input = VecSource::new(blocks);

    // Faulty run: ~30% of first attempts fail, zero retries, degrade.
    let degraded = sum_job()
        .spec(ApproxSpec::ratios(0.0, 1.0))
        .config(JobConfig {
            map_slots: 4,
            seed: 7,
            fault_plan: Some(FaultPlan::parse("io=0.3,seed=7").unwrap()),
            fault_policy: FaultPolicy::tolerant(0),
            ..Default::default()
        })
        .run(&input)
        .unwrap();
    let d = degraded.metrics.degraded_to_drop;
    assert!(d > 0, "the plan must degrade some tasks");
    assert_eq!(degraded.metrics.killed_maps, 0);
    assert_eq!(degraded.metrics.executed_maps + d, n_blocks);
    let div = degraded.outputs[0].1;
    assert!(div.half_width > 0.0 && div.half_width.is_finite());
    assert!(
        div.contains(truth),
        "degraded interval {} ± {} must contain {truth}",
        div.estimate,
        div.half_width
    );

    // Equivalent run dropping the same *number* of maps deliberately at
    // the same seed: the degraded interval must be in the same regime
    // (degraded tasks are ordinary dropped clusters, nothing worse).
    let dropped = sum_job()
        .spec(ApproxSpec::ratios(d as f64 / n_blocks as f64, 1.0))
        .config(JobConfig {
            map_slots: 4,
            seed: 7,
            ..Default::default()
        })
        .run(&input)
        .unwrap();
    assert_eq!(dropped.metrics.dropped_maps, d, "same number of drops");
    let riv = dropped.outputs[0].1;
    assert!(riv.contains(truth));
    let ratio = div.half_width / riv.half_width;
    assert!(
        (0.25..=4.0).contains(&ratio),
        "degraded half-width {} vs dropped half-width {} (ratio {ratio})",
        div.half_width,
        riv.half_width
    );
}

/// Acceptance matrix: per-attempt failure probability 0.2 across three
/// seeds — every job completes with finite error bounds, no fatal
/// errors, and exhausted tasks are degraded, never recorded as Killed.
#[test]
fn three_seed_fault_matrix_yields_finite_bounds() {
    let n_blocks = 30;
    for seed in [1u64, 2, 3] {
        let blocks = value_blocks(n_blocks, 80, seed);
        let truth: f64 = blocks.iter().flatten().sum();
        let input = VecSource::new(blocks);
        let result = sum_job()
            .spec(ApproxSpec::ratios(0.0, 1.0))
            .config(JobConfig {
                map_slots: 4,
                servers: 2,
                seed,
                fault_plan: Some(
                    FaultPlan::parse(&format!("io=0.15,panic=0.05,seed={seed}")).unwrap(),
                ),
                fault_policy: FaultPolicy::tolerant(3),
                ..Default::default()
            })
            .run(&input)
            .unwrap_or_else(|e| panic!("seed {seed}: job must complete, got {e}"));
        let m = &result.metrics;
        assert!(m.failed_maps > 0, "seed {seed}: faults must fire");
        assert_eq!(
            m.executed_maps + m.degraded_to_drop,
            n_blocks,
            "seed {seed}"
        );
        assert_eq!(m.killed_maps, 0, "seed {seed}");
        assert!(
            m.task_outcomes
                .iter()
                .all(|r| r.outcome != TaskOutcome::Killed),
            "seed {seed}: exhausted tasks must be Failed, never Killed"
        );
        let iv = result.outputs[0].1;
        assert!(
            iv.half_width.is_finite() && iv.estimate.is_finite(),
            "seed {seed}: bounds must be finite"
        );
        assert!(
            (iv.estimate - truth).abs() / truth < 0.25,
            "seed {seed}: estimate {} too far from {truth}",
            iv.estimate
        );
    }
}

/// A dead datanode: every block still has a live replica (replication 2
/// on 3 nodes), so the DFS fails over and the job completes exactly,
/// counting the failovers.
#[test]
fn dead_datanode_fails_over_to_replicas() {
    let lines: Vec<String> = (0..3_000)
        .map(|i| format!("user{} {}", i % 13, (i * 7) % 100))
        .collect();
    let mut dfs = DfsCluster::new(DfsConfig {
        datanodes: 3,
        replication: 2,
        block_records: 150,
    });
    dfs.write_lines("log", &lines).unwrap();

    dfs.set_read_faults(Some(ReadFaults {
        seed: 5,
        dead_nodes: vec![0],
        ..Default::default()
    }));
    let input = TextSource::open(&dfs, "log").unwrap();

    let result = AggregationJob::count(|line: &String, emit: &mut dyn FnMut(String, f64)| {
        emit(line.split_whitespace().next().unwrap().to_string(), 1.0)
    })
    .spec(ApproxSpec::Precise)
    .config(JobConfig {
        map_slots: 4,
        reduce_tasks: 2,
        fault_policy: FaultPolicy::tolerant(2),
        ..Default::default()
    })
    .run(&input)
    .unwrap();

    assert_eq!(result.metrics.executed_maps, 20);
    let total: f64 = result.outputs.iter().map(|(_, iv)| iv.estimate).sum();
    assert_eq!(total, lines.len() as f64, "failover must not lose data");
    for (_, iv) in &result.outputs {
        assert_eq!(iv.half_width, 0.0, "precise run despite faults");
    }
    let stats = dfs.fault_stats();
    assert!(
        stats.failed_replica_reads > 0,
        "the dead node must be asked for blocks"
    );
    assert!(
        stats.failovers > 0,
        "failed replica reads must fail over, got {stats:?}"
    );
}
