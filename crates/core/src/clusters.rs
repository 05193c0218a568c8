//! What every sampling template shares: the map-side unit fold
//! ([`UnitMapper`]) and the reduce-side sampled-cluster table
//! ([`ClusterTable`]) — the paper's one `MultiStageSamplingMapper` /
//! `MultiStageSamplingReducer` pair, parameterised by the sufficient
//! statistic an aggregate carries per key per cluster.
//!
//! A new aggregate supplies three things: a statistic implementing
//! [`UnitStat`] (how one item's emissions fold into a unit, how units
//! add up, how two statistics merge), and an `estimate_key` turning one
//! key's [`Run`] into an interval. Everything else — per-item
//! pre-aggregation, the per-task flush, the combiner, the executed
//! cluster list, zero-filling absent clusters, sorted output — is here,
//! and the per-key layout is this module's private decision.

use std::collections::HashMap;
use std::marker::PhantomData;

use approxhadoop_runtime::combine::Combiner;
use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
use approxhadoop_runtime::reducer::MapOutputMeta;
use approxhadoop_runtime::types::{Key, TaskId, Value};
use approxhadoop_stats::multistage::ExecutedClusters;
use approxhadoop_stats::Interval;

/// A per-key per-cluster sufficient statistic, and how the map side
/// builds it: the user's `map()` emits [`UnitStat::Emit`]s, one input
/// item's emissions for a key fold into one [`UnitStat::Unit`] (the
/// paper's `v_ij`), and a task's units add up to the statistic.
pub trait UnitStat: Value + Default {
    /// What the user's `map()` emits per occurrence of a key.
    type Emit;
    /// One input item's folded emissions for one key.
    type Unit: Send;

    /// Starts an item's unit from its first emission for the key.
    fn unit(first: Self::Emit) -> Self::Unit;
    /// Folds a further emission of the same item for the same key.
    fn fold(unit: &mut Self::Unit, again: Self::Emit);
    /// Adds one item's finished unit to the task's statistic.
    fn add_unit(&mut self, unit: Self::Unit);
    /// Adds another statistic of the same key and cluster.
    fn merge(&mut self, other: &Self);
}

/// The map-side combiner of every [`UnitStat`]: [`UnitStat::merge`] is
/// plain addition (or concatenation) of exactly the sums the estimators
/// consume, so pre-combining in the map task leaves every confidence
/// interval identical to the uncombined run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeCombiner;

impl<K, S: UnitStat> Combiner<K, S> for MergeCombiner {
    fn combine(&self, _key: &K, acc: &mut S, incoming: S) {
        acc.merge(&incoming);
    }
}

/// Map-side template: wraps a user `map()` emitting `(K, S::Emit)`,
/// folds each input item's emissions into one unit per key, accumulates
/// the units per key across the task, and ships exactly one `(key, S)`
/// pair per key per task — what the estimators need, at negligible
/// shuffle cost.
pub struct UnitMapper<I, K, S, F> {
    f: F,
    _marker: PhantomData<fn(I) -> (K, S)>,
}

impl<I, K, S, F> UnitMapper<I, K, S, F>
where
    S: UnitStat,
    F: Fn(&I, &mut dyn FnMut(K, S::Emit)) + Send + Sync,
{
    /// Wraps the user map function.
    pub fn new(f: F) -> Self {
        UnitMapper {
            f,
            _marker: PhantomData,
        }
    }
}

impl<I, K, S, F> Mapper for UnitMapper<I, K, S, F>
where
    I: Send + 'static,
    K: Key,
    S: UnitStat,
    F: Fn(&I, &mut dyn FnMut(K, S::Emit)) + Send + Sync,
{
    type Item = I;
    type Key = K;
    type Value = S;
    /// The task's statistic per key, and the current item's units.
    type TaskState = (HashMap<K, S>, Vec<(K, S::Unit)>);

    fn begin_task(&self, _ctx: &MapTaskContext) -> Self::TaskState {
        (HashMap::new(), Vec::new())
    }

    fn map(&self, (per_key, scratch): &mut Self::TaskState, item: I, _emit: &mut dyn FnMut(K, S)) {
        // An item emitting a key several times contributes one unit.
        (self.f)(
            &item,
            &mut |k, e| match scratch.iter_mut().find(|(ek, _)| *ek == k) {
                Some((_, unit)) => S::fold(unit, e),
                None => scratch.push((k, S::unit(e))),
            },
        );
        for (k, unit) in scratch.drain(..) {
            per_key.entry(k).or_default().add_unit(unit);
        }
    }

    fn end_task(&self, (per_key, _): Self::TaskState, emit: &mut dyn FnMut(K, S)) {
        for (k, stat) in per_key {
            emit(k, stat);
        }
    }

    fn combiner(&self) -> Option<&dyn Combiner<K, S>> {
        Some(&MergeCombiner)
    }
}

/// One key's statistics over the clusters it appeared in. Opaque: read
/// it through [`ClusterTable::dense`] or [`Run::present`].
#[derive(Debug, Default)]
pub struct Run<S>(Vec<(u32, S)>);

impl<S> Run<S> {
    /// The clusters the key appeared in, as `(index into
    /// [`ClusterTable::clusters`], statistic)` in arrival order.
    pub fn present(&self) -> impl Iterator<Item = (usize, &S)> + Clone {
        self.0.iter().map(|(ci, stat)| (*ci as usize, stat))
    }
}

/// Reduce-side state of a sampling template: the executed clusters in
/// arrival order plus, per key, the statistics of the clusters the key
/// appeared in. A cluster absent from a key's run is a cluster whose
/// sampled items all emitted nothing for the key — the zeros the
/// estimators must count (the paper's one assumption).
#[derive(Debug)]
pub struct ClusterTable<K, S> {
    clusters: Vec<(TaskId, u64, u64)>,
    /// Each run ascends in cluster index: clusters are numbered as they
    /// arrive, so a key's newest entry is always its last.
    keys: HashMap<K, Run<S>>,
}

impl<K: Key, S: UnitStat> Default for ClusterTable<K, S> {
    fn default() -> Self {
        ClusterTable {
            clusters: Vec::new(),
            keys: HashMap::new(),
        }
    }
}

impl<K: Key, S: UnitStat> ClusterTable<K, S> {
    /// Records one executed map as the next cluster and folds its pairs
    /// in (a key repeated within `pairs` merges).
    pub fn absorb(&mut self, meta: &MapOutputMeta, pairs: impl IntoIterator<Item = (K, S)>) {
        debug_assert!(
            meta.sampled_records <= meta.total_records,
            "map reported m_i > M_i"
        );
        let ci = self.clusters.len() as u32;
        self.clusters
            .push((meta.task, meta.total_records, meta.sampled_records));
        for (k, stat) in pairs {
            let run = &mut self.keys.entry(k).or_default().0;
            match run.last_mut() {
                Some((last, acc)) if *last == ci => acc.merge(&stat),
                _ => run.push((ci, stat)),
            }
        }
    }

    /// `(task, M_i, m_i)` of each executed cluster, in arrival order.
    pub fn clusters(&self) -> &[(TaskId, u64, u64)] {
        &self.clusters
    }

    /// What every key's Eq. 1–3 shares — `N = total_clusters`, `n`,
    /// census, validity and the t critical value at `confidence` —
    /// computed once from the executed clusters.
    pub fn executed(&self, total_clusters: u64, confidence: f64) -> ExecutedClusters {
        ExecutedClusters::new(
            total_clusters,
            self.clusters
                .iter()
                .map(|&(_, total, sampled)| (total, sampled)),
            confidence,
        )
    }

    /// Whether no key has been seen.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every key's run, in no particular order.
    pub fn runs(&self) -> impl Iterator<Item = &Run<S>> {
        self.keys.values()
    }

    /// Every key with its run, in ascending key order.
    pub fn sorted(&self) -> impl Iterator<Item = (&K, &Run<S>)> {
        let mut keys: Vec<_> = self.keys.iter().collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(b.0));
        keys.into_iter()
    }

    /// Expands a run to one entry per executed cluster, in arrival
    /// order: the cluster's `(task, M_i, m_i)` and the key's statistic
    /// there, `None` where the key did not appear.
    pub fn dense<'a>(
        &'a self,
        run: &'a Run<S>,
    ) -> impl Iterator<Item = ((TaskId, u64, u64), Option<&'a S>)> + 'a {
        let mut present = run.0.iter().peekable();
        self.clusters.iter().enumerate().map(move |(ci, cluster)| {
            let stat = present.next_if(|(at, _)| *at as usize == ci);
            (*cluster, stat.map(|(_, stat)| stat))
        })
    }

    /// The reducer's output: `estimate` applied to every key's run, keys
    /// it declines dropped, rows in ascending key order.
    pub fn finish(&self, estimate: impl Fn(&Run<S>) -> Option<Interval>) -> Vec<(K, Interval)> {
        self.sorted()
            .filter_map(|(k, run)| estimate(run).map(|iv| (k.clone(), iv)))
            .collect()
    }
}
