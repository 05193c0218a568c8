//! Combiner equivalence properties: map-side combining is a pure
//! shuffle-volume optimisation, so enabling it must leave every
//! reported confidence interval **bit-identical** across the sum /
//! count / mean / ratio / three-stage templates, for any sampling and
//! dropping ratios.
//!
//! Both runs pin `map_slots: 1` so that map outputs arrive at the
//! reducers in the same cluster order — the estimators fold per-cluster
//! statistics in arrival order, and float addition is not associative,
//! so a thread-timing difference (not combining) would otherwise be
//! able to perturb the last ulp.

use approxhadoop_core::job::{AggregationJob, ApproxResult, RatioJob};
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_core::threestage::{ThreeStageAggregation, ThreeStageMapper, ThreeStageReducer};
use approxhadoop_runtime::engine::{run_job, JobConfig};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_stats::Interval;
use proptest::prelude::*;

fn blocks_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..100, 0..25), 1..10)
}

/// Asserts two job results agree key-for-key with bitwise-equal
/// intervals.
fn assert_bit_identical<K: std::fmt::Debug + PartialEq>(
    with: &ApproxResult<(K, Interval)>,
    without: &ApproxResult<(K, Interval)>,
) {
    assert_eq!(with.outputs.len(), without.outputs.len());
    for ((ka, iva), (kb, ivb)) in with.outputs.iter().zip(&without.outputs) {
        assert_eq!(ka, kb);
        assert_eq!(
            iva.estimate.to_bits(),
            ivb.estimate.to_bits(),
            "estimate drifted: {} vs {}",
            iva.estimate,
            ivb.estimate
        );
        assert_eq!(
            iva.half_width.to_bits(),
            ivb.half_width.to_bits(),
            "half-width drifted: {} vs {}",
            iva.half_width,
            ivb.half_width
        );
        assert_eq!(iva.confidence.to_bits(), ivb.confidence.to_bits());
    }
    // Combining can only shrink the shuffle, never grow it.
    assert!(with.metrics.shuffled_pairs <= with.metrics.emitted_pairs);
    assert_eq!(
        without.metrics.shuffled_pairs,
        without.metrics.emitted_pairs
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sum / count / mean aggregations report bit-identical intervals
    /// with combining on and off.
    #[test]
    fn combining_is_interval_invariant_for_aggregations(
        blocks in blocks_strategy(),
        sample_pct in 1u32..=100,
        drop_pct in 0u32..60,
        seed in 0u64..50,
        which in 0usize..3,
    ) {
        let spec = ApproxSpec::ratios(drop_pct as f64 / 100.0, sample_pct as f64 / 100.0);
        let run = |combining: bool| {
            let input = VecSource::new(blocks.clone());
            let config = JobConfig { combining, map_slots: 1, seed, ..Default::default() };
            let map_fn =
                |v: &u32, emit: &mut dyn FnMut(u32, f64)| emit(v % 5, f64::from(*v) * 0.5);
            let job = match which {
                0 => AggregationJob::sum(map_fn),
                1 => AggregationJob::count(map_fn),
                _ => AggregationJob::mean(map_fn),
            };
            job.spec(spec).config(config).run(&input).unwrap()
        };
        assert_bit_identical(&run(true), &run(false));
    }

    /// Ratio jobs (`R = Σy / Σx` per key) report bit-identical
    /// intervals with combining on and off.
    #[test]
    fn combining_is_interval_invariant_for_ratios(
        blocks in blocks_strategy(),
        sample_pct in 1u32..=100,
        drop_pct in 0u32..60,
        seed in 0u64..50,
    ) {
        let spec = ApproxSpec::ratios(drop_pct as f64 / 100.0, sample_pct as f64 / 100.0);
        let run = |combining: bool| {
            let input = VecSource::new(blocks.clone());
            let config = JobConfig { combining, map_slots: 1, seed, ..Default::default() };
            RatioJob::new(|v: &u32, emit: &mut dyn FnMut(u8, (f64, f64))| {
                emit((v % 3) as u8, (f64::from(*v), 1.0 + f64::from(v % 7)))
            })
            .spec(spec)
            .config(config)
            .run(&input)
            .unwrap()
        };
        assert_bit_identical(&run(true), &run(false));
    }

    /// Three-stage jobs (mean per intermediate pair) report
    /// bit-identical intervals with combining on and off: each task
    /// ships one `GroupStat` per key, so the merge combiner has nothing
    /// to reorder.
    #[test]
    fn combining_is_interval_invariant_for_three_stage(
        blocks in blocks_strategy(),
        sample_pct in 1u32..=100,
        drop_pct in 0u32..60,
        seed in 0u64..50,
    ) {
        let run = |combining: bool| {
            let config = JobConfig {
                combining,
                map_slots: 1,
                seed,
                drop_ratio: drop_pct as f64 / 100.0,
                sampling_ratio: sample_pct as f64 / 100.0,
                ..Default::default()
            };
            // Each value is an item of `v % 4` pairs (silent when 0).
            let mapper = ThreeStageMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, f64)| {
                for p in 0..v % 4 {
                    emit((v % 3) as u8, f64::from(*v) + f64::from(p));
                }
            });
            let job = run_job(
                &VecSource::new(blocks.clone()),
                &mapper,
                |_| ThreeStageReducer::<u8>::new(ThreeStageAggregation::MeanPerPair, 0.95),
                config,
            )
            .unwrap();
            let mut outputs = job.outputs;
            outputs.sort_by_key(|(k, _)| *k);
            ApproxResult { outputs, metrics: job.metrics, distinct_keys_estimate: None }
        };
        assert_bit_identical(&run(true), &run(false));
    }
}
