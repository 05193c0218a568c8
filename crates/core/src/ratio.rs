//! Ratio-estimation template — the paper's fourth supported aggregate
//! (`sum`, `count`, `average`, **`ratio`**).
//!
//! The user map emits `(key, (y, x))` pairs; the job estimates
//! `R = Σy / Σx` per key with the linearised two-stage ratio variance
//! (e.g. bytes-per-request per project, where `y` = bytes and `x` = 1
//! per request — or click-through rates, cache hit ratios, …).

use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::types::Key;
use approxhadoop_stats::multistage::{ExecutedClusters, PairedClusterObservation, RatioEstimator};
use approxhadoop_stats::Interval;

use crate::clusters::{ClusterTable, Run, UnitMapper, UnitStat};

/// Per-task per-key paired statistics (`y` numerator, `x` denominator).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PairStat {
    /// `Σy` over emitting items.
    pub sum_y: f64,
    /// `Σy²`.
    pub sum_y_sq: f64,
    /// `Σx`.
    pub sum_x: f64,
    /// `Σx²`.
    pub sum_x_sq: f64,
    /// `Σxy`.
    pub sum_xy: f64,
}

impl PairStat {
    /// Folds one item's `(y, x)` pair in.
    pub fn add(&mut self, y: f64, x: f64) {
        self.sum_y += y;
        self.sum_y_sq += y * y;
        self.sum_x += x;
        self.sum_x_sq += x * x;
        self.sum_xy += x * y;
    }

    /// Merges another statistic.
    pub fn merge(&mut self, other: &PairStat) {
        self.sum_y += other.sum_y;
        self.sum_y_sq += other.sum_y_sq;
        self.sum_x += other.sum_x;
        self.sum_x_sq += other.sum_x_sq;
        self.sum_xy += other.sum_xy;
    }
}

impl UnitStat for PairStat {
    type Emit = (f64, f64);
    type Unit = (f64, f64);

    fn unit(first: (f64, f64)) -> (f64, f64) {
        first
    }

    fn fold(unit: &mut (f64, f64), (y, x): (f64, f64)) {
        unit.0 += y;
        unit.1 += x;
    }

    fn add_unit(&mut self, (y, x): (f64, f64)) {
        self.add(y, x);
    }

    fn merge(&mut self, other: &PairStat) {
        PairStat::merge(self, other);
    }
}

/// Map-side template: the user `f(item, emit)` emits `(key, (y, x))`;
/// per-item emissions for the same key are summed (one paired value per
/// unit), and one [`PairStat`] per key per task is shuffled.
pub type RatioMapper<I, K, F> = UnitMapper<I, K, PairStat, F>;

/// Reduce-side template computing `R̂ ± ε` per key with the linearised
/// two-stage ratio estimator.
pub struct RatioReducer<K: Key> {
    confidence: f64,
    table: ClusterTable<K, PairStat>,
}

impl<K: Key> RatioReducer<K> {
    /// Creates a reducer estimating ratios at `confidence`.
    pub fn new(confidence: f64) -> Self {
        RatioReducer {
            confidence,
            table: ClusterTable::default(),
        }
    }

    /// One key's ratio over the clusters it appeared in.
    fn estimate_key(
        &self,
        run: Run<'_, PairStat>,
        executed: &ExecutedClusters,
    ) -> Option<Interval> {
        let clusters = run.clusters();
        RatioEstimator::from_present(
            executed,
            run.present().map(|(ci, s)| {
                let (task, total_units, sampled_units) = clusters[ci];
                PairedClusterObservation {
                    cluster_id: task.0 as u64,
                    total_units,
                    sampled_units,
                    sum_y: s.sum_y,
                    sum_y_sq: s.sum_y_sq,
                    sum_x: s.sum_x,
                    sum_x_sq: s.sum_x_sq,
                    sum_xy: s.sum_xy,
                }
            }),
        )
        .ok()
    }
}

impl<K: Key> Reducer for RatioReducer<K> {
    type Key = K;
    type Value = PairStat;
    type Output = (K, Interval);

    fn on_map_output(
        &mut self,
        meta: &MapOutputMeta,
        pairs: Vec<(K, PairStat)>,
        _ctx: &mut ReduceContext,
    ) {
        self.table.absorb(meta, pairs);
    }

    fn finish(&mut self, ctx: &mut ReduceContext) -> Vec<(K, Interval)> {
        let executed = self
            .table
            .executed(ctx.total_maps() as u64, self.confidence);
        std::mem::take(&mut self.table).finish(|run| self.estimate_key(run, &executed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::control::JobControl;
    use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
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

    #[test]
    fn pair_stat_accumulates() {
        let mut s = PairStat::default();
        s.add(10.0, 2.0);
        s.add(20.0, 3.0);
        assert_eq!(s.sum_y, 30.0);
        assert_eq!(s.sum_x, 5.0);
        assert_eq!(s.sum_xy, 80.0);
        let mut t = PairStat::default();
        t.merge(&s);
        assert_eq!(t.sum_y_sq, 500.0);
    }

    #[test]
    fn mapper_sums_per_item_emissions() {
        let m = RatioMapper::new(|item: &Vec<(f64, f64)>, emit| {
            for &(y, x) in item {
                emit("k".to_string(), (y, x));
            }
        });
        let mctx = MapTaskContext {
            task: TaskId(0),
            dataset: Default::default(),
            sampling_ratio: 1.0,
            attempt: 0,
        };
        let mut state = m.begin_task(&mctx);
        // Item with two emissions: y = 3+1 = 4, x = 1+1 = 2.
        m.map(&mut state, vec![(3.0, 1.0), (1.0, 1.0)], &mut |_, _| {});
        let mut out = Vec::new();
        m.end_task(state, &mut |k, v| out.push((k, v)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.sum_y, 4.0);
        assert_eq!(out[0].1.sum_x, 2.0);
        assert_eq!(out[0].1.sum_y_sq, 16.0);
    }

    #[test]
    fn census_ratio_is_exact() {
        let mut r = RatioReducer::<String>::new(0.95);
        let mut c = ctx(2);
        // Cluster 0: y = 30 over x = 3; cluster 1: y = 10 over x = 2.
        let mut s0 = PairStat::default();
        s0.add(10.0, 1.0);
        s0.add(20.0, 2.0);
        let mut s1 = PairStat::default();
        s1.add(4.0, 1.0);
        s1.add(6.0, 1.0);
        r.on_map_output(&meta(0, 2, 2), vec![("k".into(), s0)], &mut c);
        r.on_map_output(&meta(1, 2, 2), vec![("k".into(), s1)], &mut c);
        let out = r.finish(&mut c);
        assert_eq!(out.len(), 1);
        assert!((out[0].1.estimate - 40.0 / 5.0).abs() < 1e-12);
        assert_eq!(out[0].1.half_width, 0.0);
    }

    #[test]
    fn sampled_ratio_has_finite_bound() {
        let mut r = RatioReducer::<String>::new(0.95);
        let mut c = ctx(10);
        for t in 0..4 {
            let mut s = PairStat::default();
            for i in 0..5 {
                s.add(10.0 + (t + i) as f64, 1.0);
            }
            r.on_map_output(&meta(t, 20, 5), vec![("k".into(), s)], &mut c);
        }
        let out = r.finish(&mut c);
        let iv = out[0].1;
        assert!((10.0..20.0).contains(&iv.estimate), "ratio {}", iv.estimate);
        assert!(iv.half_width.is_finite() && iv.half_width > 0.0);
    }
}
