//! Approximation-aware templates for aggregation jobs — the paper's
//! `MultiStageSamplingMapper` / `MultiStageSamplingReducer` classes.
//!
//! The user writes an ordinary `map()` that emits `(key, f64)` pairs per
//! input item; the template does the rest:
//!
//! * the **mapper wrapper** aggregates the emissions of each input item
//!   (so each item contributes one value `v_ij` per key), accumulates a
//!   [`KeyStat`] per key across the task, and ships exactly one
//!   `(key, KeyStat)` pair per key per task — the information the
//!   two-stage estimator needs, at negligible shuffle cost;
//! * the **reducer** collects each executed map's `(M_i, m_i)` counts and
//!   per-key statistics, treats non-emitting sampled items as zeros
//!   (the paper's one assumption), and produces `τ̂ ± ε` per key via
//!   two-stage cluster sampling;
//! * in target-error mode the reducer re-evaluates bounds as maps arrive
//!   (barrier-less) and posts its worst key's interval and statistics to
//!   the job's bound board (`ReduceContext::report_bound`), where the
//!   [`crate::target::TargetErrorCoordinator`] plans from them and ends
//!   the job once the worst key meets the target.

use std::sync::Arc;

use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::types::Key;
use approxhadoop_stats::multistage::{
    ClusterObservation, ExecutedClusters, RatioEstimator, TwoStageEstimator, TwoStageParts,
    WaveStatistics,
};
use approxhadoop_stats::{Interval, Result};

use crate::clusters::{ClusterTable, Run, UnitMapper};
use crate::keystat::KeyStat;
use crate::spec::ErrorTarget;

/// The aggregation computed per key.
///
/// `Count` is the sum of `1.0`-valued emissions and is provided for
/// readability; it estimates identically to `Sum`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Estimate the population total of the emitted values.
    Sum,
    /// Estimate the number of emissions (emit `1.0` per occurrence).
    Count,
    /// Estimate the mean emitted value per input item.
    Mean,
}

/// Map-side template: wraps a user `map()` emitting `(K, f64)` and ships
/// one [`KeyStat`] per key per task.
pub type MultiStageMapper<I, K, F> = UnitMapper<I, K, KeyStat, F>;

/// Configuration of the online bound monitor inside
/// [`MultiStageReducer`]: every `check_every` map outputs the reducer
/// posts its worst key to the job's bound board. A target-error job's
/// monitor comes from [`crate::target::TargetErrorCoordinator::monitor`];
/// one without a freeze only streams bounds to the telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundMonitor {
    /// Re-evaluate bounds every this many map outputs (≥ 1).
    pub check_every: usize,
    /// Once the worst key meets this target, the reducer stops
    /// incorporating further map outputs, so the *final* interval is
    /// exactly the one that met it (map kills are asynchronous; without
    /// freezing, an output racing the kill could move the bound back
    /// above the target).
    pub freeze_at: Option<ErrorTarget>,
    /// Minimum executed clusters before the freeze may engage. A bound
    /// computed from a couple of clusters is unreliable (the variance
    /// estimate has almost no degrees of freedom); the paper waits for
    /// the first wave.
    pub min_maps_before_freeze: usize,
}

impl BoundMonitor {
    /// A monitor that reports after every map output and never freezes.
    pub fn reporting() -> Self {
        BoundMonitor {
            check_every: 1,
            freeze_at: None,
            min_maps_before_freeze: 0,
        }
    }
}

/// Where reducers publish their partition's distinct-key estimate at
/// job end (one slot per reducer; keys are hash-partitioned so the
/// global estimate is the sum over partitions).
pub type DistinctSink = Arc<parking_lot::Mutex<Vec<Option<f64>>>>;

/// Reduce-side template computing `τ̂ ± ε` per key with two-stage
/// sampling (paper Eq. 1–3).
pub struct MultiStageReducer<K: Key> {
    agg: Aggregation,
    confidence: f64,
    table: ClusterTable<K, KeyStat>,
    monitor: Option<BoundMonitor>,
    since_check: usize,
    distinct_sink: Option<DistinctSink>,
    /// Set once the target is met: the worst key's interval and wave
    /// statistics, locked in.
    frozen: Option<(Interval, WaveStatistics)>,
}

impl<K: Key> MultiStageReducer<K> {
    /// Creates a reducer computing `agg` at `confidence`.
    pub fn new(agg: Aggregation, confidence: f64) -> Self {
        MultiStageReducer {
            agg,
            confidence,
            table: ClusterTable::default(),
            monitor: None,
            since_check: 0,
            distinct_sink: None,
            frozen: None,
        }
    }

    /// Publishes this reducer's distinct-key estimate into `sink` at job
    /// end (slot = partition index).
    pub fn with_distinct_sink(mut self, sink: DistinctSink) -> Self {
        self.distinct_sink = Some(sink);
        self
    }

    /// Enables online bound monitoring (target-error mode); `None`
    /// leaves it off.
    pub fn with_monitor(mut self, monitor: impl Into<Option<BoundMonitor>>) -> Self {
        self.monitor = monitor.into();
        self
    }

    /// Estimates the total number of distinct keys in the population,
    /// including keys the sampling never observed, by extrapolating from
    /// the frequency of singleton/doubleton keys (Chao1 — the paper's
    /// §3.1 extension citing Haas et al.). `None` with no keys.
    pub fn estimate_distinct_keys(&mut self) -> Option<f64> {
        use approxhadoop_stats::distinct::{chao1, FrequencyCounts};
        let fc = FrequencyCounts::from_counts(
            self.table
                .grouped()
                .map(|(_, run)| run.present().map(|(_, s)| s.emitting_units).sum::<u64>()),
        );
        chao1(&fc).ok()
    }

    /// Evaluates all keys, returning the worst (largest absolute
    /// half-width) key's interval and wave statistics.
    ///
    /// Keys are *ranked* by the estimated variance of their total: all
    /// keys share the cluster count `n`, so ranking by variance is
    /// ranking by half-width without paying a Student-t inversion per
    /// key. (For `Mean`, the numerator variance is the ranking proxy;
    /// the reported interval is exact.) Among keys of equal variance the
    /// smallest key is the worst, whatever order the table holds them
    /// in.
    fn evaluate_worst(
        &mut self,
        executed: &ExecutedClusters,
    ) -> Option<(Interval, WaveStatistics)> {
        let (run, worst) = self.table.max_by_score(|run| {
            let parts = parts(run, executed).ok();
            (parts.map_or(f64::INFINITY, |p| p.variance), parts)
        })?;
        let (worst, iv) = (worst?, estimate_key(self.agg, run, executed)?);
        let clusters = run.clusters();
        let mean_cluster_size =
            clusters.iter().map(|(_, m, _)| *m as f64).sum::<f64>() / clusters.len().max(1) as f64;
        let wave = WaveStatistics {
            total_clusters: executed.total_clusters(),
            completed_clusters: executed.executed(),
            inter_cluster_var: worst.inter_cluster_var,
            mean_cluster_size,
            mean_within_var: worst.mean_within_var,
            completed_within_term: worst.within_term,
            estimate: iv.estimate,
        };
        Some((iv, wave))
    }

    fn monitor_tick(&mut self, ctx: &mut ReduceContext) {
        let Some(monitor) = self.monitor else { return };
        self.since_check += 1;
        if self.since_check < monitor.check_every && self.table.clusters().len() > 2 {
            return;
        }
        self.since_check = 0;
        let total_maps = ctx.total_maps() as u64;
        let executed = self.table.executed(total_maps, self.confidence);
        if let Some((iv, wave)) = self.evaluate_worst(&executed) {
            ctx.report_bound(iv, Some(wave));
            if let Some(target) = monitor.freeze_at {
                if target.met(iv.half_width, iv.relative_error())
                    && self.table.clusters().len() >= monitor.min_maps_before_freeze
                {
                    self.frozen = Some((iv, wave));
                }
            }
        } else if self.table.is_empty() && !self.table.clusters().is_empty() {
            // No keys routed here: this reducer imposes no bound.
            let wave = WaveStatistics {
                total_clusters: total_maps,
                completed_clusters: self.table.clusters().len() as u64,
                inter_cluster_var: 0.0,
                mean_cluster_size: 0.0,
                mean_within_var: 0.0,
                completed_within_term: 0.0,
                estimate: 0.0,
            };
            ctx.report_bound(Interval::exact(0.0), Some(wave));
        }
    }
}

/// One key's statistics as observations of the clusters it appeared
/// in, in arrival order.
fn observations(run: Run<'_, KeyStat>) -> impl Iterator<Item = ClusterObservation> + Clone + '_ {
    let clusters = run.clusters();
    run.present().map(move |(ci, stat)| {
        let (task, total_units, sampled_units) = clusters[ci];
        ClusterObservation {
            cluster_id: task.0 as u64,
            total_units,
            sampled_units,
            sum: stat.sum,
            sum_sq: stat.sum_sq,
        }
    })
}

/// One key's Eq. 1–3 parts over the clusters it appeared in.
fn parts(run: Run<'_, KeyStat>, executed: &ExecutedClusters) -> Result<TwoStageParts> {
    TwoStageEstimator::from_present(executed, observations(run))
}

/// Builds the interval for one key from the collected statistics.
fn estimate_key(
    agg: Aggregation,
    run: Run<'_, KeyStat>,
    executed: &ExecutedClusters,
) -> Option<Interval> {
    match agg {
        Aggregation::Sum | Aggregation::Count => parts(run, executed).ok()?.interval().ok(),
        Aggregation::Mean => RatioEstimator::mean_from_present(executed, observations(run)).ok(),
    }
}

impl<K: Key> Reducer for MultiStageReducer<K> {
    type Key = K;
    type Value = KeyStat;
    type Output = (K, Interval);

    fn on_map_output(
        &mut self,
        meta: &MapOutputMeta,
        pairs: Vec<(K, KeyStat)>,
        ctx: &mut ReduceContext,
    ) {
        if let Some((iv, wave)) = self.frozen {
            // Target already met: the interval is locked in; any output
            // racing the JobTracker's kill is discarded like a drop. The
            // report is refreshed so the tracker sees it as current.
            ctx.report_bound(iv, Some(wave));
            return;
        }
        self.table.absorb(meta, pairs);
        self.monitor_tick(ctx);
    }

    fn finish(&mut self, ctx: &mut ReduceContext) -> Vec<(K, Interval)> {
        if let Some(sink) = self.distinct_sink.clone() {
            let est = self.estimate_distinct_keys();
            let mut slots = sink.lock();
            let p = ctx.partition();
            if p < slots.len() {
                slots[p] = est;
            }
        }
        let executed = self
            .table
            .executed(ctx.total_maps() as u64, self.confidence);
        let agg = self.agg;
        std::mem::take(&mut self.table).finish(|run| estimate_key(agg, run, &executed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::control::JobControl;
    use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
    use approxhadoop_runtime::types::TaskId;

    fn ctx(total_maps: usize) -> ReduceContext {
        ReduceContext::new(0, total_maps, Arc::new(JobControl::new(1)))
    }

    fn run_mapper<I: Send + 'static + Clone>(
        mapper: &MultiStageMapper<
            I,
            String,
            impl Fn(&I, &mut dyn FnMut(String, f64)) + Send + Sync,
        >,
        items: &[I],
    ) -> Vec<(String, KeyStat)> {
        let mctx = MapTaskContext {
            task: TaskId(0),
            dataset: Default::default(),
            sampling_ratio: 1.0,
            attempt: 0,
        };
        let mut state = mapper.begin_task(&mctx);
        for item in items {
            mapper.map(&mut state, item.clone(), &mut |_k, _v| {});
        }
        let mut out = Vec::new();
        mapper.end_task(state, &mut |k, v| out.push((k, v)));
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn mapper_aggregates_per_item_then_per_task() {
        // Each item may emit the same key several times: per-item values
        // are summed first (v_ij), then squared into the task statistic.
        let mapper = MultiStageMapper::new(|item: &Vec<(&str, f64)>, emit| {
            for (k, v) in item {
                emit(k.to_string(), *v);
            }
        });
        let items = vec![
            vec![("a", 1.0), ("a", 2.0)], // item 0: v_a = 3
            vec![("a", 4.0), ("b", 5.0)], // item 1: v_a = 4, v_b = 5
        ];
        let out = run_mapper(&mapper, &items);
        assert_eq!(out.len(), 2);
        let (k, stat) = &out[0];
        assert_eq!(k, "a");
        assert_eq!(stat.sum, 7.0);
        assert_eq!(stat.sum_sq, 9.0 + 16.0);
        assert_eq!(stat.emitting_units, 2);
        let (k, stat) = &out[1];
        assert_eq!(k, "b");
        assert_eq!(stat.sum, 5.0);
        assert_eq!(stat.emitting_units, 1);
    }

    fn meta(task: usize, total: u64, sampled: u64) -> MapOutputMeta {
        MapOutputMeta {
            task: TaskId(task),
            dataset: Default::default(),
            total_records: total,
            sampled_records: sampled,
            duration_secs: 0.01,
        }
    }

    #[test]
    fn reducer_census_is_exact() {
        let mut r = MultiStageReducer::<String>::new(Aggregation::Sum, 0.95);
        let mut c = ctx(2);
        r.on_map_output(
            &meta(0, 3, 3),
            vec![(
                "x".into(),
                KeyStat {
                    sum: 6.0,
                    sum_sq: 14.0,
                    emitting_units: 3,
                },
            )],
            &mut c,
        );
        r.on_map_output(
            &meta(1, 2, 2),
            vec![(
                "x".into(),
                KeyStat {
                    sum: 9.0,
                    sum_sq: 41.0,
                    emitting_units: 2,
                },
            )],
            &mut c,
        );
        let out = r.finish(&mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.estimate, 15.0);
        assert_eq!(out[0].1.half_width, 0.0);
    }

    #[test]
    fn reducer_scales_sampled_clusters() {
        // 4 total maps, 2 executed, each block 10 items with 5 sampled
        // summing to 10 → per-cluster total est 20 → τ̂ = 4/2·(20+20)=80.
        let mut r = MultiStageReducer::<String>::new(Aggregation::Sum, 0.95);
        let mut c = ctx(4);
        for t in 0..2 {
            r.on_map_output(
                &meta(t, 10, 5),
                vec![(
                    "x".into(),
                    KeyStat {
                        sum: 10.0,
                        sum_sq: 20.5,
                        emitting_units: 5,
                    },
                )],
                &mut c,
            );
        }
        let out = r.finish(&mut c);
        assert_eq!(out[0].1.estimate, 80.0);
        assert!(out[0].1.half_width > 0.0);
    }

    #[test]
    fn key_missing_from_one_cluster_counts_zeros() {
        // Key appears only in cluster 0; cluster 1 contributes zeros,
        // which must still widen the inter-cluster variance.
        let mut r = MultiStageReducer::<String>::new(Aggregation::Sum, 0.95);
        let mut c = ctx(4);
        r.on_map_output(
            &meta(0, 10, 10),
            vec![(
                "rare".into(),
                KeyStat {
                    sum: 5.0,
                    sum_sq: 25.0,
                    emitting_units: 1,
                },
            )],
            &mut c,
        );
        r.on_map_output(&meta(1, 10, 10), vec![], &mut c);
        let out = r.finish(&mut c);
        assert_eq!(out.len(), 1);
        // τ̂ = 4/2 · (5 + 0) = 10.
        assert_eq!(out[0].1.estimate, 10.0);
        assert!(out[0].1.half_width > 0.0);
    }

    #[test]
    fn mean_aggregation_estimates_per_item_mean() {
        let mut r = MultiStageReducer::<String>::new(Aggregation::Mean, 0.95);
        let mut c = ctx(1);
        // One block, census: items [2, 4, 6] → mean 4.
        r.on_map_output(
            &meta(0, 3, 3),
            vec![(
                "x".into(),
                KeyStat {
                    sum: 12.0,
                    sum_sq: 56.0,
                    emitting_units: 3,
                },
            )],
            &mut c,
        );
        let out = r.finish(&mut c);
        assert!((out[0].1.estimate - 4.0).abs() < 1e-12);
        assert_eq!(out[0].1.half_width, 0.0);
    }

    #[test]
    fn monitor_publishes_worst_key() {
        let mut r = MultiStageReducer::<String>::new(Aggregation::Sum, 0.95)
            .with_monitor(BoundMonitor::reporting());
        let control = Arc::new(JobControl::new(1));
        let mut c = ReduceContext::new(0, 10, Arc::clone(&control));
        for t in 0..3 {
            c.note_map();
            r.on_map_output(
                &meta(t, 100, 10),
                vec![
                    (
                        "big".into(),
                        KeyStat {
                            sum: 100.0 + t as f64 * 17.0,
                            sum_sq: 5000.0,
                            emitting_units: 10,
                        },
                    ),
                    (
                        "small".into(),
                        KeyStat {
                            sum: 1.0,
                            sum_sq: 0.5,
                            emitting_units: 2,
                        },
                    ),
                ],
                &mut c,
            );
        }
        let report = control.bound_reports()[0].expect("monitor published");
        let wave = report.wave.expect("planner statistics");
        assert_eq!(report.maps_processed, 3);
        assert!(report.half_width > 0.0);
        assert!(wave.completed_clusters == 3);
        assert!(wave.estimate > 100.0, "worst key is the big one");
    }

    #[test]
    fn worst_key_ties_break_to_the_smallest_key() {
        // A census of two clusters gives every key variance 0: the tie
        // must go to "a" whichever order the keys arrive in.
        for order in [["a", "b"], ["b", "a"]] {
            let mut r = MultiStageReducer::<String>::new(Aggregation::Sum, 0.95)
                .with_monitor(BoundMonitor::reporting());
            let control = Arc::new(JobControl::new(1));
            let mut c = ReduceContext::new(0, 2, Arc::clone(&control));
            for t in 0..2 {
                c.note_map();
                let pairs = order
                    .iter()
                    .map(|&k| (k.to_string(), stat(if k == "a" { 5.0 } else { 9.0 })))
                    .collect();
                r.on_map_output(&meta(t, 2, 2), pairs, &mut c);
            }
            let report = control.bound_reports()[0].expect("monitor published");
            assert_eq!(report.half_width, 0.0);
            assert_eq!(report.wave.expect("wave").estimate, 10.0, "order {order:?}");
        }
    }

    #[test]
    fn a_reporting_monitor_leaves_finish_bit_identical() {
        // A check after every output groups the table between arrivals;
        // repeated keys within an output still merge into their newest
        // entry, so both reducers must finish with the same bits.
        let outputs: Vec<(MapOutputMeta, Vec<(String, KeyStat)>)> = (0..9u64)
            .map(|t| {
                let pairs = (0..12u64)
                    .filter(|k| (k * 7 + t * 3) % 5 != 0)
                    .flat_map(|k| {
                        let v = ((k * 31 + t * 17) % 23) as f64 + 0.125;
                        let again = (k + t) % 4 == 0;
                        let pair = (format!("k{k:02}"), stat(v));
                        std::iter::once(pair.clone()).chain(again.then_some(pair))
                    })
                    .collect();
                (meta(t as usize, 50 + t, 10 + t), pairs)
            })
            .collect();
        for agg in [Aggregation::Sum, Aggregation::Mean] {
            let finish = |monitor: Option<BoundMonitor>| {
                let mut r = MultiStageReducer::<String>::new(agg, 0.95).with_monitor(monitor);
                let mut c = ctx(12);
                for (m, pairs) in &outputs {
                    c.note_map();
                    r.on_map_output(m, pairs.clone(), &mut c);
                }
                r.finish(&mut c)
                    .into_iter()
                    .map(|(k, iv)| (k, iv.estimate.to_bits(), iv.half_width.to_bits()))
                    .collect::<Vec<_>>()
            };
            let plain = finish(None);
            assert_eq!(plain.len(), 12);
            assert_eq!(finish(Some(BoundMonitor::reporting())), plain, "{agg:?}");
        }
    }

    fn stat(sum: f64) -> KeyStat {
        KeyStat {
            sum,
            sum_sq: sum * sum / 2.0,
            emitting_units: 2,
        }
    }

    #[test]
    fn an_invalid_cluster_drops_every_key() {
        // Cluster 1 sampled none of its 10 records. No key appears in it,
        // yet it invalidates Eq. 1–3 for every key (each counts it as a
        // cluster of zeros with no expansion factor), so the reducer
        // outputs nothing and its monitor stops publishing.
        let mut r = MultiStageReducer::<String>::new(Aggregation::Sum, 0.95)
            .with_monitor(BoundMonitor::reporting());
        let control = Arc::new(JobControl::new(1));
        let mut c = ReduceContext::new(0, 6, Arc::clone(&control));
        let outputs = [
            (meta(0, 10, 5), vec![("a".to_string(), stat(4.0))]),
            (meta(1, 10, 0), vec![]),
            (meta(2, 10, 5), vec![("a".to_string(), stat(6.0))]),
        ];
        for (i, (m, pairs)) in outputs.into_iter().enumerate() {
            c.note_map();
            r.on_map_output(&m, pairs, &mut c);
            let report = control.bound_reports()[0].expect("published after cluster 0");
            assert_eq!(report.maps_processed, 1, "published after cluster {i}");
        }
        assert!(r.finish(&mut c).is_empty());
    }

    /// Six executed clusters of nine, one key in every cluster and a
    /// rare one where `rare` gives it a statistic: the reducer's output
    /// for the rare key, and the same key's observations with zeros
    /// where it is absent — the dense input.
    fn six_clusters(
        agg: Aggregation,
        rare: impl Fn(usize) -> Option<KeyStat>,
    ) -> (Interval, ExecutedClusters, Vec<ClusterObservation>) {
        let mut r = MultiStageReducer::<String>::new(agg, 0.95);
        let mut c = ctx(9);
        let mut units = Vec::new();
        let mut dense = Vec::new();
        for t in 0..6 {
            let (total, sampled) = (40 + t as u64, 10 + t as u64);
            let mut pairs = vec![("common".to_string(), stat(3.0 + t as f64))];
            let rare = rare(t);
            pairs.extend(rare.map(|s| ("rare".to_string(), s)));
            r.on_map_output(&meta(t, total, sampled), pairs, &mut c);
            let rare = rare.unwrap_or_default();
            units.push((total, sampled));
            dense.push(ClusterObservation {
                cluster_id: t as u64,
                total_units: total,
                sampled_units: sampled,
                sum: rare.sum,
                sum_sq: rare.sum_sq,
            });
        }
        let out = r.finish(&mut c);
        let rare = out.iter().find(|(k, _)| k == "rare").expect("rare key").1;
        (rare, ExecutedClusters::new(9, units, 0.95), dense)
    }

    /// `reducer` agrees with `expected`: the same estimate, and a
    /// half-width within 1e-12 relative.
    fn assert_dense(reducer: Interval, expected: Interval) {
        assert_eq!(reducer.estimate.to_bits(), expected.estimate.to_bits());
        let drift = (reducer.half_width - expected.half_width).abs();
        assert!(
            drift <= 1e-12 * expected.half_width,
            "{reducer:?} vs {expected:?}"
        );
    }

    #[test]
    fn a_key_in_one_cluster_of_six_gets_the_dense_interval() {
        let (rare, executed, dense) =
            six_clusters(Aggregation::Sum, |t| (t == 3).then(|| stat(17.5)));
        // Every cluster passed as present, zeros included: the dense
        // computation.
        let expected = TwoStageEstimator::from_present(&executed, dense)
            .and_then(|parts| parts.interval())
            .unwrap();
        assert_dense(rare, expected);
    }

    #[test]
    fn a_mean_key_absent_from_two_clusters_of_six_gets_the_dense_interval() {
        // An absent cluster's sampled units still count in the mean's
        // denominator: the reducer must add them in closed form.
        let (rare, executed, dense) = six_clusters(Aggregation::Mean, |t| {
            (t != 1 && t != 4).then(|| stat(17.5 + t as f64))
        });
        let expected = RatioEstimator::mean_from_present(&executed, dense).unwrap();
        assert!(expected.half_width.is_finite() && expected.half_width > 0.0);
        assert_dense(rare, expected);
    }

    #[test]
    fn empty_blocks_are_tolerated() {
        let mut r = MultiStageReducer::<String>::new(Aggregation::Sum, 0.95);
        let mut c = ctx(2);
        r.on_map_output(
            &meta(0, 5, 5),
            vec![(
                "x".into(),
                KeyStat {
                    sum: 5.0,
                    sum_sq: 5.0,
                    emitting_units: 5,
                },
            )],
            &mut c,
        );
        r.on_map_output(&meta(1, 0, 0), vec![], &mut c);
        let out = r.finish(&mut c);
        assert_eq!(out[0].1.estimate, 5.0);
    }
}
