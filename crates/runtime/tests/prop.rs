//! Property-based tests for the MapReduce engine: the parallel engine
//! must agree with a sequential reference execution for arbitrary
//! inputs and configurations.

use std::collections::HashMap;

use approxhadoop_runtime::combine::{Combined, PairSumCombiner, SumCombiner};
use approxhadoop_runtime::engine::{run_job, JobConfig};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::mapper::FnMapper;
use approxhadoop_runtime::metrics::JobMetrics;
use approxhadoop_runtime::reducer::GroupedReducer;
use proptest::prelude::*;

fn blocks_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..50, 0..30), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Precise parallel execution equals the sequential reference, for
    /// any input, slot count, and reducer count.
    #[test]
    fn parallel_equals_sequential(
        blocks in blocks_strategy(),
        map_slots in 1usize..6,
        reduce_tasks in 1usize..5,
        seed in 0u64..100,
    ) {
        // Sequential reference: count occurrences mod 7.
        let mut expected: HashMap<u32, u64> = HashMap::new();
        for v in blocks.iter().flatten() {
            *expected.entry(v % 7).or_default() += 1;
        }

        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u32, u64)| emit(v % 7, 1));
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|k: &u32, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
            JobConfig { map_slots, reduce_tasks, seed, ..Default::default() },
        )
        .unwrap();
        let got: HashMap<u32, u64> = result.outputs.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// Drop ratios drop exactly `floor(ratio × n)` tasks and the job
    /// always terminates with consistent accounting.
    #[test]
    fn drop_accounting_is_exact(
        num_blocks in 1usize..40,
        drop_pct in 0u32..100,
        seed in 0u64..50,
    ) {
        let drop_ratio = drop_pct as f64 / 100.0;
        prop_assume!(drop_ratio < 1.0);
        let blocks: Vec<Vec<u32>> = (0..num_blocks).map(|i| vec![i as u32]).collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *v));
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            JobConfig { drop_ratio, seed, ..Default::default() },
        )
        .unwrap();
        let expected_drops = (drop_ratio * num_blocks as f64).floor() as usize;
        prop_assert_eq!(result.metrics.dropped_maps, expected_drops);
        prop_assert_eq!(result.metrics.executed_maps, num_blocks - expected_drops);
        prop_assert_eq!(
            result.metrics.executed_maps + result.metrics.dropped_maps,
            result.metrics.total_maps
        );
    }

    /// Results are reproducible: the same seed yields identical outputs
    /// even with sampling and multiple reducers.
    #[test]
    fn same_seed_same_result(
        blocks in blocks_strategy(),
        seed in 0u64..100,
    ) {
        let run_once = |blocks: Vec<Vec<u32>>| {
            let input = VecSource::new(blocks);
            let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u32, u64)| emit(*v, 1));
            let mut out = run_job(
                &input,
                &mapper,
                |_| GroupedReducer::new(|k: &u32, vs: &[u64]| Some((*k, vs.len()))),
                JobConfig {
                    sampling_ratio: 0.5,
                    drop_ratio: 0.25,
                    reduce_tasks: 3,
                    seed,
                    ..Default::default()
                },
            )
            .unwrap()
            .outputs;
            out.sort();
            out
        };
        prop_assert_eq!(run_once(blocks.clone()), run_once(blocks));
    }

    /// Sampling never processes more records than exist and reports
    /// consistent `m ≤ M` per the metrics.
    #[test]
    fn sampling_counts_are_consistent(
        blocks in blocks_strategy(),
        sample_pct in 1u32..=100,
    ) {
        let total: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *v));
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            JobConfig {
                sampling_ratio: sample_pct as f64 / 100.0,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert_eq!(result.metrics.total_records, total);
        prop_assert!(result.metrics.sampled_records <= total);
        if sample_pct == 100 {
            prop_assert_eq!(result.metrics.sampled_records, total);
        }
        for s in &result.metrics.map_stats {
            prop_assert!(s.sampled_records <= s.total_records);
        }
    }

    /// Map-side combining never changes the job's output — the combined
    /// run folds pairs into per-task partial sums, the uncombined run
    /// ships every pair, and both must agree with the sequential
    /// reference while the combined shuffle is never larger. Two
    /// combiners: `SumCombiner` over `(key, 1)` counts, and
    /// `PairSumCombiner` over `(key, (value, 1.0))` sum/count pairs,
    /// whose float sums are integer-valued and so compared exactly.
    #[test]
    fn combining_preserves_grouped_counts(
        blocks in blocks_strategy(),
        map_slots in 1usize..6,
        reduce_tasks in 1usize..5,
        seed in 0u64..50,
    ) {
        let input = VecSource::new(blocks.clone());
        let config = |combining| JobConfig {
            combining, map_slots, reduce_tasks, seed, ..Default::default()
        };
        let counts = |combining: bool| {
            let mapper = Combined::new(
                FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u32, u64)| emit(v % 7, 1)),
                SumCombiner,
            );
            run_job(
                &input,
                &mapper,
                |_| GroupedReducer::new(|k: &u32, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
                config(combining),
            )
            .unwrap()
        };
        let pair_sums = |combining: bool| {
            let mapper = Combined::new(
                FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u32, (f64, f64))| {
                    emit(v % 7, (*v as f64, 1.0))
                }),
                PairSumCombiner,
            );
            run_job(
                &input,
                &mapper,
                |_| {
                    GroupedReducer::new(|k: &u32, vs: &[(f64, f64)]| {
                        Some((*k, vs.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1))))
                    })
                },
                config(combining),
            )
            .unwrap()
        };

        let mut expected_counts: HashMap<u32, u64> = HashMap::new();
        let mut expected_sums: HashMap<u32, (f64, f64)> = HashMap::new();
        for v in blocks.iter().flatten() {
            *expected_counts.entry(v % 7).or_default() += 1;
            let s = expected_sums.entry(v % 7).or_default();
            *s = (s.0 + *v as f64, s.1 + 1.0);
        }

        let (with, without) = (counts(true), counts(false));
        assert_combine_accounting(&with.metrics, &without.metrics);
        let got_with: HashMap<u32, u64> = with.outputs.into_iter().collect();
        let got_without: HashMap<u32, u64> = without.outputs.into_iter().collect();
        prop_assert_eq!(&got_with, &expected_counts);
        prop_assert_eq!(&got_without, &expected_counts);

        let (with, without) = (pair_sums(true), pair_sums(false));
        assert_combine_accounting(&with.metrics, &without.metrics);
        let got_with: HashMap<u32, (f64, f64)> = with.outputs.into_iter().collect();
        let got_without: HashMap<u32, (f64, f64)> = without.outputs.into_iter().collect();
        prop_assert_eq!(&got_with, &expected_sums);
        prop_assert_eq!(&got_without, &expected_sums);
    }
}

/// Shuffle accounting of one job run with combining on and off:
/// pre-combine emission counts match, the combined shuffle is no larger
/// (at most one pair per key — 7 keys — per executed map task), and
/// without combining nothing shrinks.
fn assert_combine_accounting(with: &JobMetrics, without: &JobMetrics) {
    assert_eq!(with.emitted_pairs, without.emitted_pairs);
    assert!(with.shuffled_pairs <= with.emitted_pairs);
    assert_eq!(without.shuffled_pairs, without.emitted_pairs);
    assert!(with.shuffled_pairs <= 7 * with.executed_maps as u64);
}
