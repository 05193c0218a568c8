//! The reduce-side user code interface: **incremental** (barrier-less)
//! reducers.
//!
//! Unlike stock Hadoop, reduce tasks here consume each map task's output
//! as soon as that map finishes (the paper's barrier-less extension).
//! A reducer therefore sees a stream of [`ReduceEvent`]s and produces its
//! final output in [`Reducer::finish`]. Classic `reduce(key, values)`
//! semantics are provided by [`GroupedReducer`].

use std::collections::HashSet;
use std::sync::Arc;

use approxhadoop_stats::multistage::WaveStatistics;
use approxhadoop_stats::Interval;

use crate::control::{BoundReport, JobControl};
use crate::input::DatasetId;
use crate::metrics::MapStats;
use crate::types::{FxHashMap, Key, TaskId, Value};

/// Metadata accompanying one map task's output: exactly the statistics
/// the multi-stage estimators need (`M_i`, `m_i`) plus timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapOutputMeta {
    /// The producing map task.
    pub task: TaskId,
    /// The dataset the map's split belongs to (`DatasetId(0)` for
    /// single-input jobs) — multi-input reducers key their per-dataset
    /// estimators off this.
    pub dataset: DatasetId,
    /// `M_i` — total records in the map's block.
    pub total_records: u64,
    /// `m_i` — records the map actually processed.
    pub sampled_records: u64,
    /// Map attempt duration in seconds.
    pub duration_secs: f64,
}

impl From<&MapStats> for MapOutputMeta {
    /// The shuffle metadata of a completed attempt — the `(M_i, m_i)` the
    /// estimators consume, taken from the one [`MapStats`] it reports.
    fn from(stats: &MapStats) -> Self {
        MapOutputMeta {
            task: stats.task,
            dataset: stats.dataset,
            total_records: stats.total_records,
            sampled_records: stats.sampled_records,
            duration_secs: stats.duration_secs,
        }
    }
}

/// Events delivered to a reduce task.
#[derive(Debug, Clone)]
pub enum ReduceEvent<K, V> {
    /// A map completed; `pairs` is this reducer's partition of its output
    /// (possibly empty — the metadata still matters for the estimators).
    MapOutput {
        /// The map's statistics.
        meta: MapOutputMeta,
        /// The key/value pairs routed to this reducer.
        pairs: Vec<(K, V)>,
    },
    /// A map was dropped or killed and will never deliver output.
    MapDropped {
        /// The dropped task.
        task: TaskId,
    },
}

/// Context handed to reducer callbacks.
#[derive(Debug)]
pub struct ReduceContext {
    partition: usize,
    total_maps: usize,
    maps_seen: usize,
    control: Arc<JobControl>,
}

impl ReduceContext {
    /// Creates a context. Normally the engine constructs contexts; this
    /// is public so custom engines and template tests can drive reducers
    /// directly.
    pub fn new(partition: usize, total_maps: usize, control: Arc<JobControl>) -> Self {
        ReduceContext {
            partition,
            total_maps,
            maps_seen: 0,
            control,
        }
    }

    /// Records that one more map (completed or dropped) has been
    /// observed. The engine calls this before each reducer callback.
    pub fn note_map(&mut self) {
        self.maps_seen += 1;
    }

    /// This reducer's partition index.
    pub fn partition(&self) -> usize {
        self.partition
    }

    /// Total map tasks in the job.
    pub fn total_maps(&self) -> usize {
        self.total_maps
    }

    /// Maps (completed + dropped) observed by this reducer so far.
    pub fn maps_seen(&self) -> usize {
        self.maps_seen
    }

    /// Asks the JobTracker to kill and/or drop all remaining maps — the
    /// paper's early-termination path once a target error bound is met.
    pub fn request_drop_remaining(&self) {
        self.control.request_drop_remaining();
    }

    /// Posts this reducer's worst key — its interval and, for the
    /// target-error planner, its wave statistics — to the job's bound
    /// board, so the JobTracker and its policy can track bounds across
    /// the entire job.
    pub fn report_bound(&self, worst: Interval, wave: Option<WaveStatistics>) {
        self.control.report_bound(
            self.partition,
            BoundReport {
                maps_processed: self.maps_seen,
                half_width: worst.half_width,
                relative_bound: worst.relative_error(),
                wave,
            },
        );
    }
}

/// An incremental reduce task.
pub trait Reducer: Send {
    /// Intermediate key type.
    type Key: Key;
    /// Intermediate value type.
    type Value: Value;
    /// Final output record type.
    type Output: Send + 'static;

    /// Handles one completed map's partition of pairs.
    fn on_map_output(
        &mut self,
        meta: &MapOutputMeta,
        pairs: Vec<(Self::Key, Self::Value)>,
        ctx: &mut ReduceContext,
    );

    /// Handles a dropped map (no output will come). Default: no-op.
    fn on_map_dropped(&mut self, task: TaskId, ctx: &mut ReduceContext) {
        let _ = (task, ctx);
    }

    /// Produces the final output once every map has completed or been
    /// dropped.
    fn finish(&mut self, ctx: &mut ReduceContext) -> Vec<Self::Output>;
}

/// Classic Hadoop-style grouped reduce: buffers all values per key and
/// calls `f(key, values)` once per key at the end, in key order.
///
/// Grouping uses a hash table (fixed-key [`FxHashMap`]) so the
/// per-record cost of the reduce drain is a single O(1) probe; the keys
/// are sorted exactly once in [`Reducer::finish`], which keeps the
/// output key order — and therefore every backend's bytes — identical
/// to the earlier ordered-insert (`BTreeMap`) implementation.
pub struct GroupedReducer<K: Key, V, F> {
    groups: FxHashMap<K, Vec<V>>,
    f: F,
}

impl<K: Key, V: Value, O, F> GroupedReducer<K, V, F>
where
    F: FnMut(&K, &[V]) -> Option<O> + Send,
{
    /// Wraps `f` as a grouped reducer; returning `None` suppresses the
    /// key from the output.
    pub fn new(f: F) -> Self {
        GroupedReducer {
            groups: FxHashMap::default(),
            f,
        }
    }
}

impl<K: Key, V: Value, O: Send + 'static, F> Reducer for GroupedReducer<K, V, F>
where
    F: FnMut(&K, &[V]) -> Option<O> + Send,
{
    type Key = K;
    type Value = V;
    type Output = O;

    fn on_map_output(
        &mut self,
        _meta: &MapOutputMeta,
        pairs: Vec<(K, V)>,
        _ctx: &mut ReduceContext,
    ) {
        for (k, v) in pairs {
            self.groups.entry(k).or_default().push(v);
        }
    }

    fn finish(&mut self, _ctx: &mut ReduceContext) -> Vec<O> {
        let mut groups: Vec<(K, Vec<V>)> = self.groups.drain().collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        groups
            .iter()
            .filter_map(|(k, vs)| (self.f)(k, vs))
            .collect()
    }
}

/// Deduplicating wrapper used by the engine: speculative execution can
/// deliver the same map task's output twice (once per attempt); only the
/// first delivery per task id is forwarded.
pub(crate) struct DedupState {
    seen: HashSet<TaskId>,
}

impl DedupState {
    pub(crate) fn new() -> Self {
        DedupState {
            seen: HashSet::new(),
        }
    }

    /// Returns `true` if this is the first event for `task`.
    pub(crate) fn first(&mut self, task: TaskId) -> bool {
        self.seen.insert(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(task: usize) -> MapOutputMeta {
        MapOutputMeta {
            task: TaskId(task),
            dataset: DatasetId::default(),
            total_records: 10,
            sampled_records: 10,
            duration_secs: 0.0,
        }
    }

    #[test]
    fn grouped_reducer_groups_and_orders() {
        let mut r =
            GroupedReducer::new(|k: &String, vs: &[u64]| Some((k.clone(), vs.iter().sum::<u64>())));
        let control = Arc::new(JobControl::new(1));
        let mut ctx = ReduceContext::new(0, 2, control);
        r.on_map_output(&meta(0), vec![("b".into(), 1), ("a".into(), 2)], &mut ctx);
        r.on_map_output(&meta(1), vec![("a".into(), 3)], &mut ctx);
        let out = r.finish(&mut ctx);
        assert_eq!(out, vec![("a".into(), 5), ("b".into(), 1)]);
    }

    #[test]
    fn grouped_reducer_can_filter_keys() {
        let mut r =
            GroupedReducer::new(|k: &u32, vs: &[u32]| (vs.len() > 1).then_some((*k, vs.len())));
        let control = Arc::new(JobControl::new(1));
        let mut ctx = ReduceContext::new(0, 1, control);
        r.on_map_output(&meta(0), vec![(1, 0), (1, 0), (2, 0)], &mut ctx);
        assert_eq!(r.finish(&mut ctx), vec![(1, 2)]);
    }

    #[test]
    fn context_reports_flow_to_control() {
        let control = Arc::new(JobControl::new(1));
        let mut ctx = ReduceContext::new(0, 4, Arc::clone(&control));
        ctx.note_map();
        ctx.note_map();
        ctx.report_bound(Interval::new(100.0, 7.0, 0.95), None);
        let report = control.bound_reports()[0].unwrap();
        assert_eq!(report.maps_processed, 2);
        assert_eq!(report.half_width, 7.0);
        assert!((report.relative_bound - 0.07).abs() < 1e-12);
        assert!(!control.drop_requested());
        ctx.request_drop_remaining();
        assert!(control.drop_requested());
    }

    #[test]
    fn dedup_state_filters_repeats() {
        let mut d = DedupState::new();
        assert!(d.first(TaskId(1)));
        assert!(!d.first(TaskId(1)));
        assert!(d.first(TaskId(2)));
    }
}
