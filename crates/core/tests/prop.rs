//! Property-based tests for the approximation layer: estimates must be
//! statistically sound for arbitrary synthetic populations.

use std::collections::BTreeMap;

use approxhadoop_core::clusters::{ClusterTable, Run};
use approxhadoop_core::job::AggregationJob;
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_core::threestage::GroupStat;
use approxhadoop_core::userdef::{version_for, Version};
use approxhadoop_runtime::engine::JobConfig;
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::reducer::MapOutputMeta;
use approxhadoop_runtime::types::TaskId;
use approxhadoop_stats::Interval;
use proptest::prelude::*;

fn population() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..100.0f64, 4..40), 4..16)
}

/// One map output: `(M_i, m_i)` — clamped to `m_i ≤ M_i` by the test,
/// `(0, 0)` being an empty block — and its pairs, which may be empty and
/// may repeat a key. The values become [`GroupStat`]s: not `Copy`, and
/// their merge (concatenation) is order-sensitive, so a table that
/// merged out of order would show.
type Arrival = (u64, u64, Vec<(u8, Vec<(u64, f64, f64)>)>);

/// One executed cluster of a run expanded against the table's clusters:
/// the cluster's `(task, M_i, m_i)` and the key's statistic there.
type DenseRow<'a> = ((TaskId, u64, u64), Option<&'a GroupStat>);

/// `run` expanded to one row per executed cluster, in arrival order,
/// `None` where the key did not appear.
fn dense<'a>(run: Run<'a, GroupStat>) -> Vec<DenseRow<'a>> {
    let mut present = run.present().peekable();
    run.clusters()
        .iter()
        .enumerate()
        .map(|(ci, cluster)| {
            let stat = present.next_if(|(at, _)| *at == ci);
            (*cluster, stat.map(|(_, stat)| stat))
        })
        .collect()
}

fn arrival() -> impl Strategy<Value = Arrival> {
    let items = prop::collection::vec((1u64..4, 0.0..9.0f64, 0.0..9.0f64), 0..3);
    (
        0u64..6,
        0u64..6,
        prop::collection::vec((0u8..5, items), 0..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `ClusterTable` against the nested-map layout it replaced: for any
    /// arrival sequence, `grouped`, `present` (also expanded against
    /// `clusters`) and `finish` agree
    /// with the model element for element — whether the table is read
    /// after every arrival, as the bound monitor reads it, after some, or
    /// only by `finish`.
    #[test]
    fn cluster_table_matches_nested_map_model(arrivals in prop::collection::vec(arrival(), 0..12)) {
        let mut table = ClusterTable::<u8, GroupStat>::default();
        let mut sometimes = ClusterTable::<u8, GroupStat>::default();
        let mut unread = ClusterTable::<u8, GroupStat>::default();
        let mut clusters = Vec::new();
        let mut model: BTreeMap<u8, BTreeMap<usize, GroupStat>> = BTreeMap::new();
        for (t, (total, sampled, pairs)) in arrivals.into_iter().enumerate() {
            // Task ids descend so arrival order is not task order.
            let meta = MapOutputMeta {
                task: TaskId(100 - t),
                dataset: Default::default(),
                total_records: total,
                sampled_records: sampled.min(total),
                duration_secs: 0.0,
            };
            let sampled = meta.sampled_records;
            clusters.push((meta.task, total, sampled));
            let pairs: Vec<(u8, GroupStat)> = pairs
                .into_iter()
                .map(|(k, items)| (k, GroupStat { items }))
                .collect();
            for (k, stat) in &pairs {
                model.entry(*k).or_default().entry(t).or_default().merge(stat);
            }
            sometimes.absorb(&meta, pairs.clone());
            unread.absorb(&meta, pairs.clone());
            table.absorb(&meta, pairs);
            prop_assert_eq!(table.grouped().count(), model.len());
            if t % 3 == 1 {
                prop_assert_eq!(sometimes.grouped().count(), model.len());
            }
        }
        prop_assert_eq!(table.clusters(), &clusters[..]);
        prop_assert_eq!(table.is_empty(), model.is_empty());
        prop_assert_eq!(table.grouped().count(), model.len());

        // An arbitrary estimate reading every expanded row, and
        // declining keys absent from the first cluster.
        let digest = |rows: &[DenseRow]| {
            rows.first()?.1?;
            let weigh = |(i, ((_, total, sampled), stat)): (usize, &DenseRow)| {
                let v: f64 = stat.map_or(0.0, |s| s.items.iter().map(|it| it.1).sum());
                (i + 1) as f64 * v + (total * 7 + sampled) as f64
            };
            let estimate = rows.iter().enumerate().map(weigh).sum();
            Some(Interval::new(estimate, rows.len() as f64, 0.95))
        };
        let mut expected_out = Vec::new();
        let mut rows: Vec<_> = table.grouped().collect();
        rows.sort_unstable_by_key(|(k, _)| **k);
        let mut rows = rows.into_iter();
        for (key, per_cluster) in &model {
            let (k, run) = rows.next().expect("table has every model key");
            prop_assert_eq!(k, key);
            let expected: Vec<_> = clusters
                .iter()
                .enumerate()
                .map(|(ci, c)| (*c, per_cluster.get(&ci)))
                .collect();
            prop_assert_eq!(&dense(run), &expected);
            prop_assert_eq!(
                run.present().collect::<Vec<_>>(),
                per_cluster.iter().map(|(ci, s)| (*ci, s)).collect::<Vec<_>>()
            );
            expected_out.extend(digest(&expected).map(|iv| (*key, iv)));
        }
        prop_assert!(rows.next().is_none(), "table has a key the model lacks");
        for table in [table, sometimes, unread] {
            let out = table.finish(|run| digest(&dense(run)));
            prop_assert_eq!(&out, &expected_out);
        }
    }

    /// Precise aggregation equals the arithmetic ground truth for any
    /// population.
    #[test]
    fn precise_sum_matches_truth(blocks in population()) {
        let truth: f64 = blocks.iter().flatten().sum();
        let input = VecSource::new(blocks);
        let r = AggregationJob::sum(|v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v))
            .run(&input)
            .unwrap();
        prop_assert!((r.outputs[0].1.estimate - truth).abs() <= 1e-6 * (1.0 + truth));
        prop_assert_eq!(r.outputs[0].1.half_width, 0.0);
    }

    /// Approximate estimates carry finite bounds and non-crazy values
    /// (within an order of magnitude of the truth) for any ratios.
    #[test]
    fn ratio_estimates_are_sane(
        blocks in population(),
        drop_pct in 0u32..60,
        sample_pct in 10u32..=100,
        seed in 0u64..20,
    ) {
        let truth: f64 = blocks.iter().flatten().sum();
        prop_assume!(truth > 1.0);
        let input = VecSource::new(blocks);
        let spec = ApproxSpec::ratios(drop_pct as f64 / 100.0, sample_pct as f64 / 100.0);
        let r = AggregationJob::sum(|v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v))
            .spec(spec)
            .config(JobConfig { seed, ..Default::default() })
            .run(&input)
            .unwrap();
        let iv = r.outputs[0].1;
        prop_assert!(iv.estimate.is_finite());
        prop_assert!(iv.estimate >= 0.0);
        prop_assert!(iv.estimate < truth * 10.0 + 1.0);
        // Executed ≥ 2 clusters → finite bound.
        if r.metrics.executed_maps >= 2 {
            prop_assert!(iv.half_width.is_finite());
        }
    }

    /// The mean estimator always lands inside the value range of the
    /// population (a mean cannot escape its support).
    #[test]
    fn mean_respects_support(
        blocks in population(),
        sample_pct in 20u32..=100,
        seed in 0u64..20,
    ) {
        let lo = blocks.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        let hi = blocks.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max);
        let input = VecSource::new(blocks);
        let r = AggregationJob::mean(|v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v))
            .spec(ApproxSpec::ratios(0.0, sample_pct as f64 / 100.0))
            .config(JobConfig { seed, ..Default::default() })
            .run(&input)
            .unwrap();
        let est = r.outputs[0].1.estimate;
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "mean {est} outside [{lo}, {hi}]");
    }

    /// Target mode's contract: whenever the controller *chooses* to stop
    /// early (some maps dropped/killed), the reported bound meets the
    /// target — the estimate is frozen at the moment the target was met.
    /// When every map runs (the controller could not stop), the bound is
    /// best-effort: sampled blocks cannot be re-read, so a plan built on
    /// noisy first-wave statistics may land slightly above the target on
    /// adversarial tiny populations (at the paper's block counts the
    /// planning margin absorbs this).
    #[test]
    fn target_mode_early_stop_never_violates(
        blocks in population(),
        target_pct in 1u32..30,
        seed in 0u64..10,
    ) {
        let truth: f64 = blocks.iter().flatten().sum();
        prop_assume!(truth > 1.0);
        let target = target_pct as f64 / 100.0;
        let input = VecSource::new(blocks);
        let r = AggregationJob::sum(|v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v))
            .spec(ApproxSpec::target(target, 0.95))
            .config(JobConfig { map_slots: 4, seed, ..Default::default() })
            .run(&input)
            .unwrap();
        let iv = r.outputs[0].1;
        let stopped_early = r.metrics.dropped_maps + r.metrics.killed_maps > 0;
        if stopped_early {
            prop_assert!(
                iv.relative_error() <= target + 1e-9,
                "early stop with bound {} above target {target}",
                iv.relative_error()
            );
        } else {
            // Ran everything: bound must at least be finite and the
            // point estimate honest.
            prop_assert!(iv.relative_error().is_finite());
            prop_assert!(iv.estimate.is_finite());
        }
    }

    /// User-defined version selection is deterministic and respects the
    /// extreme fractions.
    #[test]
    fn version_selection_properties(task in 0usize..10_000, seed in 0u64..100, frac in 0.0..=1.0f64) {
        let v1 = version_for(TaskId(task), frac, seed);
        let v2 = version_for(TaskId(task), frac, seed);
        prop_assert_eq!(v1, v2);
        prop_assert_eq!(version_for(TaskId(task), 0.0, seed), Version::Precise);
        prop_assert_eq!(version_for(TaskId(task), 1.0, seed), Version::Approximate);
    }
}
