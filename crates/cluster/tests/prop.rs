//! Property-based tests for the discrete-event cluster simulator.

use approxhadoop_cluster::{simulate, ClusterSpec, SimJobSpec};
use approxhadoop_core::ApproxSpec;
use proptest::prelude::*;

fn job(maps: usize, records: u64) -> SimJobSpec {
    SimJobSpec::log_processing(maps, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every map ends in exactly one terminal state.
    #[test]
    fn task_accounting_is_conserved(
        maps in 1usize..200,
        servers in 1usize..12,
        drop_pct in 0u32..90,
        sample_pct in 1u32..=100,
        seed in 0u64..30,
    ) {
        let approx = ApproxSpec::ratios(drop_pct as f64 / 100.0, sample_pct as f64 / 100.0);
        let r = simulate(&ClusterSpec::xeon(servers), &job(maps, 10_000), approx, seed).unwrap();
        prop_assert_eq!(r.executed_maps + r.dropped_maps + r.killed_maps, maps);
        prop_assert!(r.wall_secs > 0.0);
        prop_assert!(r.energy_wh > 0.0);
    }

    /// Precise runs are exact and deterministic.
    #[test]
    fn precise_runs_are_exact(maps in 1usize..100, seed in 0u64..30) {
        let j = job(maps, 5_000);
        let a = simulate(&ClusterSpec::xeon(4), &j, ApproxSpec::Precise, seed).unwrap();
        let b = simulate(&ClusterSpec::xeon(4), &j, ApproxSpec::Precise, seed).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.executed_maps, maps);
        prop_assert!(a.actual_error_rel < 1e-9);
        prop_assert_eq!(a.bound_rel, 0.0);
    }

    /// More servers never slow the job down (same work, more slots).
    #[test]
    fn more_servers_never_slower(maps in 20usize..120, seed in 0u64..20) {
        let j = job(maps, 20_000);
        let small = simulate(&ClusterSpec::xeon(2), &j, ApproxSpec::Precise, seed).unwrap();
        let large = simulate(&ClusterSpec::xeon(8), &j, ApproxSpec::Precise, seed).unwrap();
        prop_assert!(
            large.wall_secs <= small.wall_secs * 1.01,
            "8 servers {} vs 2 servers {}",
            large.wall_secs,
            small.wall_secs
        );
    }

    /// S3 never increases energy, never changes accounting.
    #[test]
    fn s3_never_increases_energy(
        maps in 10usize..120,
        drop_pct in 0u32..80,
        seed in 0u64..20,
    ) {
        let j = job(maps, 20_000);
        let approx = ApproxSpec::ratios(drop_pct as f64 / 100.0, 1.0);
        let base = simulate(&ClusterSpec::xeon(5), &j, approx, seed).unwrap();
        let s3 = simulate(&ClusterSpec::xeon(5).with_s3(), &j, approx, seed).unwrap();
        prop_assert!(s3.energy_wh <= base.energy_wh + 1e-9);
        prop_assert_eq!(s3.executed_maps, base.executed_maps);
        prop_assert_eq!(s3.wall_secs, base.wall_secs);
    }

    /// Target mode: bounds reported as met are met, and the job never
    /// outlives the precise run.
    #[test]
    fn target_mode_within_precise_runtime(maps in 50usize..300, seed in 0u64..15) {
        let j = job(maps, 50_000);
        let cluster = ClusterSpec::xeon(5);
        let precise = simulate(&cluster, &j, ApproxSpec::Precise, seed).unwrap();
        let target = simulate(
            &cluster,
            &j,
            ApproxSpec::target(0.02, 0.95),
            seed,
        )
        .unwrap();
        prop_assert!(target.wall_secs <= precise.wall_secs * 1.05);
        if target.dropped_maps + target.killed_maps > 0 {
            prop_assert!(
                target.bound_rel <= 0.02 + 1e-9,
                "early-stopped with bound {}",
                target.bound_rel
            );
        }
    }
}
