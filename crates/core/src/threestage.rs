//! Three-stage sampling template (paper Section 3.1, "Three-stage
//! sampling").
//!
//! Sometimes the population of interest is the set of **intermediate
//! pairs** rather than the input items — the paper's example: the
//! average number of occurrences of a word *per paragraph*, where each
//! input item is a whole page emitting one `<W, count>` per paragraph.
//! The sampling hierarchy then has three stages: blocks (map tasks) →
//! items (pages) → pairs (paragraphs), and the variance picks up a
//! third term.
//!
//! The paper requires the programmer to "understand her application and
//! explicitly add the third sampling level"; here that means using
//! [`ThreeStageMapper`] (whose user function emits one value per
//! tertiary unit) together with [`ThreeStageReducer`].

use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::types::Key;
use approxhadoop_stats::multistage::{
    ExecutedClusters, SecondaryObservation, ThreeStageEstimator, ThreeStageObservation,
};
use approxhadoop_stats::Interval;

use crate::clusters::{ClusterTable, Run, UnitMapper, UnitStat};

/// Per-task per-key statistics: one [`SecondaryObservation`] per
/// processed item that emitted for the key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupStat {
    /// One entry per emitting item: `(pairs, Σv, Σv²)`.
    pub items: Vec<(u64, f64, f64)>,
}

impl GroupStat {
    /// Merges another statistic (concatenates item groups).
    pub fn merge(&mut self, other: &GroupStat) {
        self.items.extend_from_slice(&other.items);
    }
}

impl UnitStat for GroupStat {
    type Emit = f64;
    /// `(pairs, Σv, Σv²)` of one item.
    type Unit = (u64, f64, f64);

    fn unit(first: f64) -> (u64, f64, f64) {
        (1, first, first * first)
    }

    fn fold(unit: &mut (u64, f64, f64), v: f64) {
        unit.0 += 1;
        unit.1 += v;
        unit.2 += v * v;
    }

    fn add_unit(&mut self, unit: (u64, f64, f64)) {
        self.items.push(unit);
    }

    fn merge(&mut self, other: &GroupStat) {
        GroupStat::merge(self, other);
    }
}

/// Map-side template: `f(item, emit)` emits one value **per tertiary
/// unit** (e.g. one count per paragraph); the task ships, per key, the
/// per-item group statistics the three-stage estimator needs.
pub type ThreeStageMapper<I, K, F> = UnitMapper<I, K, GroupStat, F>;

/// What the three-stage reducer estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreeStageAggregation {
    /// Total of all tertiary values in the population.
    Total,
    /// Mean value **per intermediate pair** (the paper's example: mean
    /// occurrences per paragraph). Computed as estimated total divided
    /// by the estimated number of pairs.
    MeanPerPair,
}

/// Reduce-side three-stage estimator.
pub struct ThreeStageReducer<K: Key> {
    agg: ThreeStageAggregation,
    confidence: f64,
    table: ClusterTable<K, GroupStat>,
}

impl<K: Key> ThreeStageReducer<K> {
    /// Creates a reducer computing `agg` at `confidence`.
    pub fn new(agg: ThreeStageAggregation, confidence: f64) -> Self {
        ThreeStageReducer {
            agg,
            confidence,
            table: ClusterTable::default(),
        }
    }

    fn estimate_key(
        &self,
        executed: &ExecutedClusters,
        run: Run<'_, GroupStat>,
    ) -> Option<Interval> {
        match self.agg {
            ThreeStageAggregation::Total => three_stage(executed, run, false),
            ThreeStageAggregation::MeanPerPair => {
                let total = three_stage(executed, run, false)?;
                let pairs = three_stage(executed, run, true)?;
                if pairs.estimate <= 0.0 {
                    return None;
                }
                let mean = total.estimate / pairs.estimate;
                // First-order error propagation for the quotient.
                let rel = (total.relative_error().powi(2) + pairs.relative_error().powi(2)).sqrt();
                Some(Interval::new(mean, mean.abs() * rel, self.confidence))
            }
        }
    }
}

/// One key's three-stage interval from the clusters it appeared in: of
/// its tertiary values, or with `count_pairs` of its pair counts. Each
/// item that emitted for the key is one fully read secondary unit; the
/// cluster's other sampled items are silent.
fn three_stage(
    executed: &ExecutedClusters,
    run: Run<'_, GroupStat>,
    count_pairs: bool,
) -> Option<Interval> {
    let clusters = run.clusters();
    let present = run.present().map(move |(ci, stat)| {
        let (_, total_units, sampled_units) = clusters[ci];
        ThreeStageObservation {
            total_units,
            sampled_units,
            secondaries: stat.items.iter().map(move |&(pairs, sum, sum_sq)| {
                let (sum, sum_sq) = if count_pairs {
                    (pairs as f64, pairs as f64)
                } else {
                    (sum, sum_sq)
                };
                SecondaryObservation {
                    total_tertiary: pairs,
                    sampled_tertiary: pairs,
                    sum,
                    sum_sq,
                }
            }),
        }
    });
    ThreeStageEstimator::from_present(executed, present)
        .and_then(|parts| parts.interval())
        .ok()
}

impl<K: Key> Reducer for ThreeStageReducer<K> {
    type Key = K;
    type Value = GroupStat;
    type Output = (K, Interval);

    fn on_map_output(
        &mut self,
        meta: &MapOutputMeta,
        pairs: Vec<(K, GroupStat)>,
        _ctx: &mut ReduceContext,
    ) {
        self.table.absorb(meta, pairs);
    }

    fn finish(&mut self, ctx: &mut ReduceContext) -> Vec<(K, Interval)> {
        let executed = self
            .table
            .executed(ctx.total_maps() as u64, self.confidence);
        std::mem::take(&mut self.table).finish(|run| self.estimate_key(&executed, run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
    use approxhadoop_runtime::control::JobControl;
    use approxhadoop_runtime::engine::{run_job, JobConfig};
    use approxhadoop_runtime::input::VecSource;
    use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
    use approxhadoop_runtime::metrics::JobMetrics;
    use approxhadoop_runtime::types::TaskId;
    use std::sync::Arc;

    fn ctx(total: usize) -> ReduceContext {
        ReduceContext::new(0, total, Arc::new(JobControl::new(1)))
    }

    fn meta(task: usize, total: u64, sampled: u64) -> MapOutputMeta {
        MapOutputMeta {
            task: TaskId(task),
            dataset: Default::default(),
            total_records: total,
            sampled_records: sampled,
            duration_secs: 0.0,
        }
    }

    fn run_mapper(items: &[Vec<f64>]) -> Vec<(String, GroupStat)> {
        // Each item emits one value per inner element ("paragraph").
        let m = ThreeStageMapper::new(|item: &Vec<f64>, emit| {
            for &v in item {
                emit("w".to_string(), v);
            }
        });
        let mctx = MapTaskContext {
            task: TaskId(0),
            dataset: Default::default(),
            sampling_ratio: 1.0,
            attempt: 0,
        };
        let mut state = m.begin_task(&mctx);
        for item in items {
            m.map(&mut state, item.clone(), &mut |_, _| {});
        }
        let mut out = Vec::new();
        m.end_task(state, &mut |k, v| out.push((k, v)));
        out
    }

    #[test]
    fn mapper_groups_per_item() {
        let out = run_mapper(&[vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(out.len(), 1);
        let stat = &out[0].1;
        assert_eq!(stat.items.len(), 2);
        assert_eq!(stat.items[0], (2, 3.0, 5.0));
        assert_eq!(stat.items[1], (1, 3.0, 9.0));
    }

    #[test]
    fn census_total_and_mean_per_pair_are_exact() {
        // Two blocks of two items; values per paragraph.
        let mut r = ThreeStageReducer::<String>::new(ThreeStageAggregation::Total, 0.95);
        let mut c = ctx(2);
        let block0 = run_mapper(&[vec![1.0, 2.0], vec![3.0]]);
        let block1 = run_mapper(&[vec![4.0], vec![5.0, 6.0]]);
        r.on_map_output(&meta(0, 2, 2), block0.clone(), &mut c);
        r.on_map_output(&meta(1, 2, 2), block1.clone(), &mut c);
        let out = r.finish(&mut c);
        assert_eq!(out[0].1.estimate, 21.0);
        assert_eq!(out[0].1.half_width, 0.0);

        let mut r = ThreeStageReducer::<String>::new(ThreeStageAggregation::MeanPerPair, 0.95);
        let mut c = ctx(2);
        r.on_map_output(&meta(0, 2, 2), block0, &mut c);
        r.on_map_output(&meta(1, 2, 2), block1, &mut c);
        let out = r.finish(&mut c);
        // 6 paragraphs totalling 21 → mean 3.5 per paragraph.
        assert!((out[0].1.estimate - 3.5).abs() < 1e-12);
        assert_eq!(out[0].1.half_width, 0.0);
    }

    #[test]
    fn sampled_three_stage_estimates_with_bounds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        // Population: 20 blocks × 10 items × ~4 paragraphs of value ~5.
        let blocks: Vec<Vec<Vec<f64>>> = (0..20)
            .map(|_| {
                (0..10)
                    .map(|_| (0..4).map(|_| rng.gen_range(4.0..6.0)).collect())
                    .collect()
            })
            .collect();
        let truth: f64 = blocks.iter().flatten().flatten().sum();
        let mut r = ThreeStageReducer::<String>::new(ThreeStageAggregation::Total, 0.95);
        let mut c = ctx(20);
        // Execute 8 blocks, sampling 5 of 10 items each.
        for (t, b) in blocks.iter().take(8).enumerate() {
            let pairs = run_mapper(&b[..5]);
            r.on_map_output(&meta(t, 10, 5), pairs, &mut c);
        }
        let out = r.finish(&mut c);
        let iv = out[0].1;
        assert!(iv.half_width.is_finite() && iv.half_width > 0.0);
        assert!(
            iv.actual_error(truth) < 0.1,
            "estimate {} vs truth {truth}",
            iv.estimate
        );
    }

    #[test]
    fn silent_items_count_as_zero_groups() {
        // One block, 4 items sampled, only 2 emitted.
        let mut r = ThreeStageReducer::<String>::new(ThreeStageAggregation::Total, 0.95);
        let mut c = ctx(1);
        let pairs = run_mapper(&[vec![2.0], vec![4.0]]);
        r.on_map_output(&meta(0, 4, 4), pairs, &mut c);
        let out = r.finish(&mut c);
        // Census of the block: total 6 regardless of silent items.
        assert_eq!(out[0].1.estimate, 6.0);
        assert_eq!(out[0].1.half_width, 0.0);
    }

    /// Blocks `[1, 2, 3], [], [4, 5], [6]`, each item one pair of its
    /// value: 6 pairs totalling 21.
    fn with_empty_block() -> VecSource<f64> {
        VecSource::new(vec![vec![1.0, 2.0, 3.0], vec![], vec![4.0, 5.0], vec![6.0]])
    }

    /// The one output row of `agg` over [`with_empty_block`], and the
    /// job's metrics.
    fn three_stage_job(agg: ThreeStageAggregation, config: JobConfig) -> (Interval, JobMetrics) {
        let mapper = ThreeStageMapper::new(|v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v));
        let job = run_job(
            &with_empty_block(),
            &mapper,
            |_| ThreeStageReducer::<u8>::new(agg, 0.95),
            config,
        )
        .unwrap();
        assert_eq!(job.outputs.len(), 1);
        (job.outputs[0].1, job.metrics)
    }

    /// The two-stage Sum of the same job.
    fn sum_job(config: JobConfig) -> Interval {
        let mapper = MultiStageMapper::new(|v: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *v));
        let job = run_job(
            &with_empty_block(),
            &mapper,
            |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
            config,
        )
        .unwrap();
        job.outputs[0].1
    }

    fn one_slot(drop_ratio: f64) -> JobConfig {
        JobConfig {
            map_slots: 1,
            drop_ratio,
            seed: 1,
            ..Default::default()
        }
    }

    #[test]
    fn a_precise_job_with_an_empty_block_is_exact() {
        // The empty block is a zero cluster in `n`, as it is in `N`.
        let (total, _) = three_stage_job(ThreeStageAggregation::Total, one_slot(0.0));
        assert_eq!((total.estimate, total.half_width), (21.0, 0.0));
        assert_eq!(total, sum_job(one_slot(0.0)));
        let (mean, _) = three_stage_job(ThreeStageAggregation::MeanPerPair, one_slot(0.0));
        assert_eq!((mean.estimate, mean.half_width), (3.5, 0.0));
    }

    #[test]
    fn an_executed_empty_block_counts_in_n() {
        // The seed drops `[6]` and executes the empty block: τ̂ =
        // 4/3 · (6 + 0 + 9). With one pair per item the three-stage
        // total is the two-stage sum, so both divide by the same `n`.
        let (total, metrics) = three_stage_job(ThreeStageAggregation::Total, one_slot(0.25));
        assert_eq!(metrics.dropped_maps, 1);
        assert!(metrics.map_stats.iter().any(|m| m.total_records == 0));
        assert_eq!(total.estimate, 20.0);
        assert!(total.half_width.is_finite() && total.half_width > 0.0);
        assert_eq!(total, sum_job(one_slot(0.25)));
    }
}
