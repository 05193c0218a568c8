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
//! cluster list that absent clusters' zeros are read from, sorted
//! output — is here, and the per-key layout is this module's private
//! decision.
//!
//! That layout is flat on both sides. A map task folds into one
//! [`FxHashMap`] (the engine's deterministic hasher). The reduce side
//! keeps one append-only log of `(slot, cluster, statistic)` entries
//! and an [`FxHashMap`] from each key to its slot, so no key owns an
//! allocation; a [`Run`] is a borrowed view of one key's entries, in
//! arrival order, which is the order every estimator folds them in.

use std::marker::PhantomData;

use approxhadoop_runtime::combine::Combiner;
use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
use approxhadoop_runtime::reducer::MapOutputMeta;
use approxhadoop_runtime::types::{FxHashMap, Key, TaskId, Value};
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
    type TaskState = (FxHashMap<K, S>, Vec<(K, S::Unit)>);

    fn begin_task(&self, _ctx: &MapTaskContext) -> Self::TaskState {
        (FxHashMap::default(), Vec::new())
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

/// One absorbed statistic: the key's slot, the index of the cluster it
/// came from, and the statistic.
#[derive(Debug)]
struct Entry<S> {
    slot: u32,
    cluster: u32,
    stat: S,
}

/// Where a key's statistics live: its slot, which numbers it densely
/// in arrival order, and its newest log entry with that entry's cluster
/// (`NO_CLUSTER` before the first).
#[derive(Debug, Clone, Copy)]
struct KeyAt {
    slot: u32,
    newest: u32,
    newest_cluster: u32,
}

const NO_CLUSTER: u32 = u32::MAX;

/// One key's statistics over the clusters it appeared in: borrowed
/// parts of its [`ClusterTable`]'s log. Read it through
/// [`Run::present`], with [`Run::clusters`] for each cluster's
/// `(task, M_i, m_i)`; an estimator puts the clusters the key is absent
/// from in closed form from [`ClusterTable::executed`].
pub struct Run<'a, S> {
    clusters: &'a [(TaskId, u64, u64)],
    /// The key's entries in arrival order: the older part's, the newer
    /// part's, then those the log indices `arrived` name.
    older: &'a [Entry<S>],
    newer: &'a [Entry<S>],
    log: &'a [Entry<S>],
    arrived: &'a [u32],
}

impl<S> Clone for Run<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Run<'_, S> {}

impl<'a, S> Run<'a, S> {
    /// `(task, M_i, m_i)` of each executed cluster, in arrival order.
    pub fn clusters(&self) -> &'a [(TaskId, u64, u64)] {
        self.clusters
    }

    /// The clusters the key appeared in, as `(index into
    /// [`Run::clusters`], statistic)` in arrival order.
    pub fn present(&self) -> impl Iterator<Item = (usize, &'a S)> + Clone + 'a {
        let log = self.log;
        self.older
            .iter()
            .chain(self.newer)
            .chain(self.arrived.iter().map(move |&i| &log[i as usize]))
            .map(|entry| (entry.cluster as usize, &entry.stat))
    }
}

/// Reduce-side state of a sampling template: the executed clusters in
/// arrival order plus, per key, the statistics of the clusters the key
/// appeared in. A cluster absent from a key's run is a cluster whose
/// sampled items all emitted nothing for the key — the zeros the
/// estimators must count (the paper's one assumption).
///
/// Flat: every statistic is one entry of a single log, and an Fx-hashed
/// map gives each key a dense slot and its newest entry, so a key
/// repeated within one map output merges in place. Absorbing appends.
/// A bound-monitor read regroups: it moves what arrived since the last
/// read, grouped by slot, into a newer grouped part, which merges into
/// the older one once it has grown to a quarter of its size, so a check
/// after every map output moves each entry O(1) times on average and
/// then reads every key's entries contiguously. The consuming sweep
/// moves nothing: it groups the arrivals' log indices instead. Both
/// group with a stable counting sort, which keeps each key's entries in
/// arrival order, and the buffers are kept, so a check allocates
/// nothing once they have grown.
#[derive(Debug)]
pub struct ClusterTable<K, S> {
    clusters: Vec<(TaskId, u64, u64)>,
    keys: FxHashMap<K, KeyAt>,
    /// `log[..older]` and `log[older..newer]` each hold their entries
    /// grouped by slot, slots ascending; `log[newer..]` arrived since
    /// the last read, in arrival order. A key's entries ascend in
    /// cluster index, which is arrival order: clusters are numbered as
    /// they arrive.
    log: Vec<Entry<S>>,
    older: usize,
    newer: usize,
    /// Slot `s`'s entries in each grouped part run from `starts[s]` to
    /// `starts[s + 1]`. Slots past the end of `older_starts` arrived
    /// after the older part was last rebuilt.
    older_starts: Vec<u32>,
    newer_starts: Vec<u32>,
    /// The arrivals' log indices grouped into buckets: bucket `b`'s are
    /// `arrived[arrived_starts[b]..arrived_starts[b + 1]]`.
    arrived_starts: Vec<u32>,
    arrived: Vec<u32>,
    /// The entries a merge moves.
    moving: Vec<Entry<S>>,
}

impl<K: Key, S: UnitStat> Default for ClusterTable<K, S> {
    fn default() -> Self {
        ClusterTable {
            clusters: Vec::new(),
            keys: FxHashMap::default(),
            log: Vec::new(),
            older: 0,
            newer: 0,
            older_starts: Vec::new(),
            newer_starts: Vec::new(),
            arrived_starts: Vec::new(),
            arrived: Vec::new(),
            moving: Vec::new(),
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
            let fresh = KeyAt {
                slot: self.keys.len() as u32,
                newest: 0,
                newest_cluster: NO_CLUSTER,
            };
            let at = self.keys.entry(k).or_insert(fresh);
            // `newest` is only read within the absorb that set it: no
            // regroup can have moved the entry since.
            if at.newest_cluster == ci {
                self.log[at.newest as usize].stat.merge(&stat);
            } else {
                at.newest = self.log.len() as u32;
                at.newest_cluster = ci;
                self.log.push(Entry {
                    slot: at.slot,
                    cluster: ci,
                    stat,
                });
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

    /// Every key with its run, in no particular order.
    pub fn grouped(&mut self) -> impl Iterator<Item = (&K, Run<'_, S>)> + '_ {
        self.regroup();
        let table = &*self;
        table
            .keys
            .iter()
            .map(|(k, at)| (k, table.run(at.slot as usize, &[])))
    }

    /// The run that `score` ranks highest (by [`f64::total_cmp`]), with
    /// what `score` returned beside the rank: what the bound monitor
    /// looks for on every check. Runs are scored in the order they lie
    /// in the log, and of runs ranked equal the smallest key's wins,
    /// whatever the table's layout. `None` with no keys.
    pub fn max_by_score<T>(
        &mut self,
        mut score: impl FnMut(Run<'_, S>) -> (f64, T),
    ) -> Option<(Run<'_, S>, T)> {
        self.regroup();
        let mut best: Option<(f64, usize, T)> = None;
        let mut tied = false;
        for s in 0..self.keys.len() {
            let (rank, also) = score(self.run(s, &[]));
            match best.as_ref().map(|b| rank.total_cmp(&b.0)) {
                Some(std::cmp::Ordering::Less) => {}
                Some(std::cmp::Ordering::Equal) => tied = true,
                _ => {
                    best = Some((rank, s, also));
                    tied = false;
                }
            }
        }
        let (rank, mut slot, mut also) = best?;
        if tied {
            // Scoring again is cheaper than keeping every rank: ties
            // are rare past a job's first and last checks.
            let (_, at) = self
                .keys
                .iter()
                .filter(|(_, at)| {
                    score(self.run(at.slot as usize, &[]))
                        .0
                        .total_cmp(&rank)
                        .is_eq()
                })
                .min_by(|a, b| a.0.cmp(b.0))?;
            if at.slot as usize != slot {
                slot = at.slot as usize;
                also = score(self.run(slot, &[])).1;
            }
        }
        Some((self.run(slot, &[]), also))
    }

    /// Consumes the table, visiting every key with its run in ascending
    /// key order.
    pub fn for_each_sorted(mut self, mut visit: impl FnMut(K, Run<'_, S>)) {
        let mut keys: Vec<(K, u32)> = std::mem::take(&mut self.keys)
            .into_iter()
            .map(|(k, at)| (k, at.slot))
            .collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rank = vec![0u32; keys.len()];
        for (r, &(_, slot)) in keys.iter().enumerate() {
            rank[slot as usize] = r as u32;
        }
        // By rank, so the sweep reads the index buffers in order.
        self.group_arrivals(keys.len(), |entry| rank[entry.slot as usize] as usize);
        for (r, (k, slot)) in keys.into_iter().enumerate() {
            let arrived =
                &self.arrived[self.arrived_starts[r] as usize..self.arrived_starts[r + 1] as usize];
            visit(k, self.run(slot as usize, arrived));
        }
    }

    /// The reducer's output, consuming the table: `estimate` applied to
    /// every key's run, keys it declines dropped, rows in ascending key
    /// order.
    pub fn finish(
        self,
        mut estimate: impl FnMut(Run<'_, S>) -> Option<Interval>,
    ) -> Vec<(K, Interval)> {
        let mut out = Vec::with_capacity(self.keys.len());
        self.for_each_sorted(|k, run| out.extend(estimate(run).map(|iv| (k, iv))));
        out
    }

    /// Slot `s`'s run: its entries in the grouped parts, then the
    /// arrivals `arrived` names.
    fn run<'a>(&'a self, s: usize, arrived: &'a [u32]) -> Run<'a, S> {
        let part = |starts: &[u32]| match starts.get(s..s + 2) {
            Some(&[begin, end]) => &self.log[begin as usize..end as usize],
            _ => &[],
        };
        Run {
            clusters: &self.clusters,
            older: part(&self.older_starts),
            newer: part(&self.newer_starts),
            log: &self.log,
            arrived,
        }
    }

    /// Groups the arrivals' log indices into `buckets` buckets by
    /// `bucket`, a stable counting sort.
    fn group_arrivals(&mut self, buckets: usize, bucket: impl Fn(&Entry<S>) -> usize) {
        // Count bucket `b` at `starts[b + 2]`; after the prefix sum
        // `starts[b + 1]` is where `b` begins, and the scatter advances
        // it to where `b` ends, which is where `b + 1` begins.
        let starts = &mut self.arrived_starts;
        starts.clear();
        starts.resize(buckets + 2, 0);
        let arrivals = &self.log[self.newer..];
        for entry in arrivals {
            starts[bucket(entry) + 2] += 1;
        }
        for b in 2..buckets + 2 {
            starts[b] += starts[b - 1];
        }
        self.arrived.resize(arrivals.len(), 0);
        for (i, entry) in arrivals.iter().enumerate() {
            let next = &mut starts[bucket(entry) + 1];
            self.arrived[*next as usize] = (self.newer + i) as u32;
            *next += 1;
        }
    }

    /// Moves the arrivals, grouped by slot, into the newer part, and
    /// merges that into the older part once it is a quarter of its size.
    fn regroup(&mut self) {
        let n = self.log.len();
        if self.newer == n {
            return;
        }
        let slots = self.keys.len();
        self.group_arrivals(slots, |entry| entry.slot as usize);
        for &i in &self.arrived {
            let entry = std::mem::replace(&mut self.log[i as usize], placeholder());
            self.moving.push(entry);
        }
        self.log.truncate(self.newer);
        merge_back(&mut self.log, self.older, &mut self.moving);
        self.newer = n;
        if (n - self.older) * 4 >= self.older {
            if self.older > 0 {
                self.moving.extend(self.log.drain(self.older..));
                merge_back(&mut self.log, 0, &mut self.moving);
            }
            self.older = n;
            count_starts(&self.log, 0, slots, &mut self.older_starts);
        }
        count_starts(
            &self.log[self.older..],
            self.older,
            slots,
            &mut self.newer_starts,
        );
    }
}

/// An entry to leave where one moved out.
fn placeholder<S: Default>() -> Entry<S> {
    Entry {
        slot: 0,
        cluster: 0,
        stat: S::default(),
    }
}

/// Appends `moving` to `log` merged into `log[from..]`, both sorted by
/// slot; for one slot the entries already in `log` stay first. Works
/// from the back, so each entry moves once; the placeholders the moves
/// leave behind end in `moving`, which is left empty.
fn merge_back<S: Default>(log: &mut Vec<Entry<S>>, from: usize, moving: &mut Vec<Entry<S>>) {
    let mut old = log.len();
    if old == from {
        log.append(moving);
        return;
    }
    let mut new = moving.len();
    log.resize_with(old + new, placeholder);
    for to in (from..log.len()).rev() {
        if new == 0 {
            break;
        }
        if old > from && log[old - 1].slot > moving[new - 1].slot {
            old -= 1;
            log.swap(old, to);
        } else {
            new -= 1;
            std::mem::swap(&mut log[to], &mut moving[new]);
        }
    }
    moving.clear();
}

/// Where each slot's entries begin in `part` (grouped by slot, which
/// starts at log index `base`): `starts[s]` to `starts[s + 1]`.
fn count_starts<S>(part: &[Entry<S>], base: usize, slots: usize, starts: &mut Vec<u32>) {
    starts.clear();
    starts.resize(slots + 1, 0);
    starts[0] = base as u32;
    for entry in part {
        starts[entry.slot as usize + 1] += 1;
    }
    for s in 1..=slots {
        starts[s] += starts[s - 1];
    }
}
