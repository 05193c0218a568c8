//! Approximate equi-join: access logs × page metadata with a map-side
//! Bloom pre-filter and per-stratum error bounds.
//!
//! This is the first two-input workload: dataset `0` is the synthetic
//! Wikipedia access log ([`WikiLog`]) and dataset `1` is a page
//! metadata catalogue ([`PageCatalog`]) assigning each catalogued page
//! a category. The job joins `access.page = meta.page` and reports
//! **bytes served per category** — only for accesses whose page exists
//! in the catalogue.
//!
//! The three approximation mechanisms compose per ApproxJoin:
//!
//! * **Bloom pre-filter** — every map task over the log holds a Bloom
//!   filter built from the catalogue's join keys and discards accesses
//!   that cannot join *before* the shuffle. False positives only cost
//!   shuffle bytes (the reduce-side join still drops them); the result
//!   is never changed. Discard/pass totals are exported as the
//!   `join_filter_discarded_total` / `join_filter_passed_total`
//!   counters.
//! * **Per-dataset sampling** — the log side may be sampled and/or
//!   dropped ([`approxhadoop_runtime::control::DatasetRatios`]) while
//!   the catalogue side always runs precisely; a sampled-out or
//!   filtered-out access is a **zero-valued sampled unit**, so every
//!   cluster's `(M_i, m_i)` stays exactly the split's counts and
//!   Eq. 1–3 remain valid.
//! * **Per-stratum bounds** — each category is a stratum estimated by
//!   its own two-stage estimator over the *log* dataset's cluster
//!   population; the whole-join bound combines the strata in
//!   quadrature (`ε = sqrt(Σ ε_k²)`,
//!   [`approxhadoop_stats::stratified`]).
//!
//! The same workload runs on all three executors — scoped threads,
//! the shared slot pool, and worker OS processes — and produces
//! bit-identical outcomes for the same config and seed.

use std::collections::BTreeMap;
use std::sync::Arc;

use approxhadoop_core::clusters::ClusterTable;
use approxhadoop_core::keystat::KeyStat;
use approxhadoop_core::Result;
use approxhadoop_ipc::{Decoder, Wire, WireError};
use approxhadoop_obs::{Counter, Obs};
use approxhadoop_runtime::control::{DatasetRatios, FixedCoordinator};
use approxhadoop_runtime::engine::{
    run_job, run_job_on_pool, run_job_process, JobConfig, JobResult, WorkerSpec,
};
use approxhadoop_runtime::input::{
    BoxedSource, DatasetId, FnSource, InputSource, SplitMeta, TaggedSource,
};
use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
use approxhadoop_runtime::metrics::{JobMetrics, TaskOutcome};
use approxhadoop_runtime::pool::SlotPool;
use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::{JobId, JobSession, RuntimeError};
use approxhadoop_stats::bloom::BloomFilter;
use approxhadoop_stats::multistage::ClusterObservation;
use approxhadoop_stats::stratified::{combine_strata, StratifiedEstimator};
use approxhadoop_stats::Interval;

use crate::wikilog::{LogEntry, WikiLog};

/// The job name the process backend dispatches to worker binaries;
/// workers must register it with [`register_join_job`].
pub const JOIN_JOB: &str = "join-category-traffic";

// ---------------------------------------------------------------------
// The metadata side: a deterministic page catalogue
// ---------------------------------------------------------------------

/// One catalogued page: the join key plus its category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Page rank (the join key; matches [`LogEntry::page`]).
    pub page: u64,
    /// Category the page belongs to (1-based).
    pub category: u64,
}

impl Wire for PageMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.page.encode(out);
        self.category.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result2<Self> {
        Ok(PageMeta {
            page: u64::decode(d)?,
            category: u64::decode(d)?,
        })
    }
}

type Result2<T> = std::result::Result<T, WireError>;

/// A deterministic page-metadata catalogue covering pages
/// `1..=pages`: the **small side** of the join, and the key set the
/// Bloom pre-filter is built from.
///
/// Everything — block contents, category assignment, the Bloom filter —
/// is a pure function of the fields, so the submitting process and
/// every worker process reconstruct identical state from the
/// `Wire`-encoded spec alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageCatalog {
    /// Pages `1..=pages` are catalogued; log accesses to higher ranks
    /// cannot join and are what the Bloom filter discards.
    pub pages: u64,
    /// Pages per input split of the catalogue dataset.
    pub pages_per_block: u64,
    /// Number of categories (strata); page `p` belongs to
    /// `p % categories + 1`.
    pub categories: u64,
    /// Seed of the Bloom filter's hash family.
    pub seed: u64,
    /// Target false-positive rate of the Bloom filter.
    pub fpr: f64,
}

impl Wire for PageCatalog {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pages.encode(out);
        self.pages_per_block.encode(out);
        self.categories.encode(out);
        self.seed.encode(out);
        self.fpr.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result2<Self> {
        let c = PageCatalog {
            pages: u64::decode(d)?,
            pages_per_block: u64::decode(d)?,
            categories: u64::decode(d)?,
            seed: u64::decode(d)?,
            fpr: f64::decode(d)?,
        };
        if c.pages == 0
            || c.pages_per_block == 0
            || c.categories == 0
            || !(c.fpr > 0.0 && c.fpr < 1.0)
        {
            return Err(WireError::Corrupt {
                what: "PageCatalog",
            });
        }
        Ok(c)
    }
}

impl PageCatalog {
    /// Number of input splits the catalogue contributes.
    pub fn num_blocks(&self) -> u64 {
        self.pages.div_ceil(self.pages_per_block)
    }

    /// The category of a catalogued page.
    pub fn category_of(&self, page: u64) -> u64 {
        page % self.categories + 1
    }

    /// The pages of catalogue block `b`, in page order.
    pub fn block(&self, b: u64) -> Vec<PageMeta> {
        let first = b * self.pages_per_block + 1;
        let last = (first + self.pages_per_block - 1).min(self.pages);
        (first..=last)
            .map(|page| PageMeta {
                page,
                category: self.category_of(page),
            })
            .collect()
    }

    /// Builds the Bloom filter over the catalogue's join keys. The
    /// result is bit-identical wherever it is built — parent or worker
    /// — because the filter's hashing is seeded and from-scratch.
    pub fn bloom(&self) -> BloomFilter {
        let mut filter = BloomFilter::with_capacity(self.pages as usize, self.fpr, self.seed);
        for page in 1..=self.pages {
            filter.insert(&page.to_le_bytes());
        }
        filter
    }

    /// The catalogue as an input source of [`JoinRecord::Meta`] rows.
    pub fn source(
        &self,
    ) -> FnSource<JoinRecord, impl Fn(usize) -> Vec<JoinRecord> + Send + Sync + use<>> {
        let this = *self;
        let metas = (0..self.num_blocks())
            .map(|b| {
                let first = b * this.pages_per_block + 1;
                let last = (first + this.pages_per_block - 1).min(this.pages);
                SplitMeta {
                    index: b as usize,
                    dataset: Default::default(),
                    records: last - first + 1,
                    bytes: (last - first + 1) * 16,
                    locations: vec![],
                }
            })
            .collect();
        FnSource::new(metas, move |i| {
            this.block(i as u64)
                .into_iter()
                .map(JoinRecord::Meta)
                .collect()
        })
    }
}

// ---------------------------------------------------------------------
// Records and shuffle payloads
// ---------------------------------------------------------------------

/// One record of the two-input join job. The variant mirrors the
/// dataset the record was read from: `Access` rows come from dataset 0
/// (the log), `Meta` rows from dataset 1 (the catalogue).
#[derive(Debug, Clone, PartialEq)]
pub enum JoinRecord {
    /// An access-log entry (dataset 0).
    Access(LogEntry),
    /// A catalogue row (dataset 1).
    Meta(PageMeta),
}

impl Wire for JoinRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JoinRecord::Access(e) => {
                0u8.encode(out);
                e.encode(out);
            }
            JoinRecord::Meta(m) => {
                1u8.encode(out);
                m.encode(out);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result2<Self> {
        match u8::decode(d)? {
            0 => Ok(JoinRecord::Access(LogEntry::decode(d)?)),
            1 => Ok(JoinRecord::Meta(PageMeta::decode(d)?)),
            _ => Err(WireError::Corrupt {
                what: "JoinRecord tag",
            }),
        }
    }
}

/// The shuffle value of the join job, keyed by page (the join key).
#[derive(Debug, Clone, PartialEq)]
pub enum JoinValue {
    /// Per-task access statistics for the page: `Σ bytes`, `Σ bytes²`
    /// and how many sampled accesses emitted them — exactly what the
    /// per-stratum estimators consume.
    Access(KeyStat),
    /// The page's category, shipped from the catalogue side.
    Meta {
        /// The category (stratum) the page belongs to.
        category: u64,
    },
}

impl Wire for JoinValue {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JoinValue::Access(s) => {
                0u8.encode(out);
                s.encode(out);
            }
            JoinValue::Meta { category } => {
                1u8.encode(out);
                category.encode(out);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result2<Self> {
        match u8::decode(d)? {
            0 => Ok(JoinValue::Access(KeyStat::decode(d)?)),
            1 => Ok(JoinValue::Meta {
                category: u64::decode(d)?,
            }),
            _ => Err(WireError::Corrupt {
                what: "JoinValue tag",
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Map side: Bloom pre-filter + per-task aggregation
// ---------------------------------------------------------------------

/// The join's map function: access rows (dataset 0) are Bloom-filtered
/// and aggregated per page within the task; catalogue rows (dataset 1)
/// ship `(page, category)` directly. The [`JoinRecord`] variant says
/// which side a record comes from, so no dataset tag is needed.
pub struct JoinMapper {
    bloom: BloomFilter,
    discarded: Option<Arc<Counter>>,
    passed: Option<Arc<Counter>>,
}

impl JoinMapper {
    /// A mapper holding `catalog`'s Bloom filter, with no counters.
    pub fn new(catalog: &PageCatalog) -> Self {
        JoinMapper {
            bloom: catalog.bloom(),
            discarded: None,
            passed: None,
        }
    }

    /// Attaches the Bloom discard/pass counters to `obs`. In worker
    /// processes, pass [`Obs::shared`]: the worker telemetry path
    /// piggybacks shared-registry counter deltas back to the parent,
    /// so the discards show up on the parent's `/metrics` even though
    /// the filtering happened in another address space.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        let labels = [("app", JOIN_JOB)];
        self.discarded = Some(obs.registry.counter("join_filter_discarded_total", &labels));
        self.passed = Some(obs.registry.counter("join_filter_passed_total", &labels));
        self
    }

    /// The Bloom filter the mapper screens access rows against.
    pub fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }
}

impl Mapper for JoinMapper {
    type Item = JoinRecord;
    type Key = u64;
    type Value = JoinValue;
    // Per-page stats accumulate in a BTreeMap so `end_task` emits in
    // page order — deterministic shuffle bytes on every backend.
    type TaskState = BTreeMap<u64, KeyStat>;

    fn begin_task(&self, _ctx: &MapTaskContext) -> Self::TaskState {
        BTreeMap::new()
    }

    fn map(
        &self,
        state: &mut Self::TaskState,
        item: JoinRecord,
        emit: &mut dyn FnMut(u64, JoinValue),
    ) {
        match item {
            JoinRecord::Access(e) => {
                if self.bloom.contains(&e.page.to_le_bytes()) {
                    if let Some(c) = &self.passed {
                        c.inc();
                    }
                    state.entry(e.page).or_default().add_value(e.bytes as f64);
                } else {
                    // Cannot join: discard before the shuffle. The
                    // access remains a sampled unit of its cluster —
                    // it just contributes zero to every stratum.
                    if let Some(c) = &self.discarded {
                        c.inc();
                    }
                }
            }
            JoinRecord::Meta(m) => {
                emit(
                    m.page,
                    JoinValue::Meta {
                        category: m.category,
                    },
                );
            }
        }
    }

    fn end_task(&self, state: Self::TaskState, emit: &mut dyn FnMut(u64, JoinValue)) {
        for (page, stat) in state {
            emit(page, JoinValue::Access(stat));
        }
    }
}

// ---------------------------------------------------------------------
// Reduce side: the join + per-stratum cluster observations
// ---------------------------------------------------------------------

/// One reducer's contribution to a category: the category's
/// [`ClusterObservation`]s over every executed log cluster, in task
/// order, restricted to the pages this reducer's partition owns.
///
/// Per-category estimates cannot be finished inside a single reducer —
/// a category's pages hash across all partitions — so reducers emit
/// these partials and [`finish_join`] merges them (same cluster set
/// everywhere; sums add) before estimating.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPartial {
    /// The category (stratum).
    pub category: u64,
    /// Observations over this reducer's share of the category, one per
    /// executed log cluster, sorted by cluster id.
    pub clusters: Vec<ClusterObservation>,
}

/// The join's reduce task: joins access stats against the catalogue's
/// page → category map and emits per-category cluster partials.
///
/// Only **dataset-0** (log) map outputs count as clusters for the
/// estimators; dataset-1 outputs carry the join's build side and have
/// no sampling semantics (the catalogue always runs precisely). A page
/// whose category is unknown — a Bloom false positive, or a page
/// missing from the catalogue — joins nothing and contributes nothing,
/// which is exactly the precise join's behaviour.
pub struct JoinReducer {
    /// Executed log clusters, and per page its access stats in them.
    table: ClusterTable<u64, KeyStat>,
    /// page → category, from the catalogue side.
    page_category: BTreeMap<u64, u64>,
}

impl JoinReducer {
    /// An empty join reducer.
    pub fn new() -> Self {
        JoinReducer {
            table: ClusterTable::default(),
            page_category: BTreeMap::new(),
        }
    }
}

impl Default for JoinReducer {
    fn default() -> Self {
        Self::new()
    }
}

impl Reducer for JoinReducer {
    type Key = u64;
    type Value = JoinValue;
    type Output = JoinPartial;

    fn on_map_output(
        &mut self,
        meta: &MapOutputMeta,
        pairs: Vec<(u64, JoinValue)>,
        _ctx: &mut ReduceContext,
    ) {
        if meta.dataset == DatasetId(0) {
            let stats = pairs.into_iter().filter_map(|(page, value)| match value {
                JoinValue::Access(stat) => Some((page, stat)),
                JoinValue::Meta { .. } => None,
            });
            self.table.absorb(meta, stats);
        } else {
            for (page, value) in pairs {
                if let JoinValue::Meta { category } = value {
                    self.page_category.insert(page, category);
                }
            }
        }
    }

    fn finish(&mut self, _ctx: &mut ReduceContext) -> Vec<JoinPartial> {
        // The join: fold each page's per-cluster stats into its
        // category, one slot per executed cluster. Pages ascend, so
        // every slot's additions happen in one deterministic order.
        let table = std::mem::take(&mut self.table);
        let clusters = table.clusters().to_vec();
        let mut cats: BTreeMap<u64, Vec<KeyStat>> = BTreeMap::new();
        table.for_each_sorted(|page, run| {
            let Some(&category) = self.page_category.get(&page) else {
                return; // Bloom false positive or uncatalogued page.
            };
            let slots = cats
                .entry(category)
                .or_insert_with(|| vec![KeyStat::default(); clusters.len()]);
            for (ci, stat) in run.present() {
                slots[ci].merge(stat);
            }
        });
        // Observations in cluster-id order, independent of the order
        // map outputs happened to arrive in.
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        order.sort_by_key(|&ci| clusters[ci].0);
        cats.into_iter()
            .map(|(category, slots)| JoinPartial {
                category,
                clusters: order
                    .iter()
                    .map(|&ci| {
                        let (task, total, sampled) = clusters[ci];
                        ClusterObservation {
                            cluster_id: task.0 as u64,
                            total_units: total,
                            sampled_units: sampled,
                            sum: slots[ci].sum,
                            sum_sq: slots[ci].sum_sq,
                        }
                    })
                    .collect(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// The workload and its runners
// ---------------------------------------------------------------------

/// The two-input workload: an access log joined against a page
/// catalogue.
#[derive(Debug, Clone, Copy)]
pub struct JoinWorkload {
    /// Dataset 0: the access log (the big, sampled side).
    pub log: WikiLog,
    /// Dataset 1: the page catalogue (the small, precise side).
    pub catalog: PageCatalog,
}

impl JoinWorkload {
    /// A demo-sized workload: `mult` scales the log volume, `seed`
    /// drives both generators and the Bloom hash family. Roughly 40% of
    /// the log's page *ranks* are uncatalogued, so the Bloom filter has
    /// real work; popular (low-rank) pages are catalogued, so most
    /// traffic joins.
    pub fn demo(mult: u64, seed: u64) -> Self {
        JoinWorkload {
            log: WikiLog {
                days: 2,
                entries_per_block: 4_000 * mult,
                blocks_per_day: 12,
                pages: 50_000,
                projects: 100,
                seed,
            },
            catalog: PageCatalog {
                pages: 30_000,
                pages_per_block: 6_000,
                categories: 8,
                seed,
                fpr: 0.01,
            },
        }
    }

    /// The two-dataset input: dataset 0 = the log, dataset 1 = the
    /// catalogue.
    pub fn source(&self) -> Result<TaggedSource<JoinRecord>> {
        let log = self.log;
        let log_metas = (0..log.num_blocks())
            .map(|b| SplitMeta {
                index: b as usize,
                dataset: Default::default(),
                records: log.entries_per_block,
                bytes: log.entries_per_block * 64,
                locations: vec![],
            })
            .collect();
        let access = FnSource::new(log_metas, move |i| {
            log.block(i as u64)
                .into_iter()
                .map(JoinRecord::Access)
                .collect::<Vec<_>>()
        });
        let sources: Vec<BoxedSource<JoinRecord>> =
            vec![Box::new(access), Box::new(self.catalog.source())];
        Ok(TaggedSource::try_new(sources)?)
    }

    /// The log dataset's cluster population `N` — the denominator of
    /// every stratum's estimator.
    pub fn log_clusters(&self) -> u64 {
        self.log.num_blocks()
    }

    /// The per-dataset approximation config: `ratios` for the log,
    /// precise for the catalogue (dropping catalogue blocks would lose
    /// join keys, not widen an interval).
    pub fn dataset_ratios(&self, ratios: DatasetRatios) -> Vec<DatasetRatios> {
        vec![ratios, DatasetRatios::precise()]
    }

    /// The precise join aggregate, computed directly (no engine):
    /// bytes per category over accesses whose page is catalogued. The
    /// ground truth the approximate intervals must cover.
    pub fn precise_by_category(&self) -> BTreeMap<u64, f64> {
        let mut totals = BTreeMap::new();
        for b in 0..self.log.num_blocks() {
            for e in self.log.block(b) {
                if e.page <= self.catalog.pages {
                    *totals
                        .entry(self.catalog.category_of(e.page))
                        .or_insert(0.0) += e.bytes as f64;
                }
            }
        }
        totals
    }
}

/// The outcome of a join run: per-stratum intervals plus the
/// quadrature-combined whole-join interval.
#[derive(Debug)]
pub struct JoinOutcome {
    /// Per-category `(estimate, interval)` rows in category order.
    pub categories: Vec<(u64, Interval)>,
    /// The whole-join interval: estimates summed, half-widths combined
    /// in quadrature.
    pub combined: Interval,
    /// Engine metrics of the run.
    pub metrics: JobMetrics,
}

/// Merges every reducer's [`JoinPartial`]s and estimates each stratum
/// over the log dataset's `total_log_clusters` population.
pub fn finish_join(
    result: JobResult<JoinPartial>,
    total_log_clusters: u64,
    confidence: f64,
) -> Result<JoinOutcome> {
    // (category, cluster) cells from different reducers cover disjoint
    // page sets of the same cluster: sums add, (M_i, m_i) agree.
    let mut merged: BTreeMap<u64, BTreeMap<u64, ClusterObservation>> = BTreeMap::new();
    for partial in result.outputs {
        let per_cat = merged.entry(partial.category).or_default();
        for obs in partial.clusters {
            per_cat
                .entry(obs.cluster_id)
                .and_modify(|acc| {
                    acc.sum += obs.sum;
                    acc.sum_sq += obs.sum_sq;
                })
                .or_insert(obs);
        }
    }
    let mut est: StratifiedEstimator<u64> = StratifiedEstimator::new(total_log_clusters);
    for (category, per_cluster) in &merged {
        for obs in per_cluster.values() {
            est.push(*category, *obs);
        }
    }
    // Nothing joined (e.g. the filter discarded everything) combines to
    // the exact empty result.
    let categories = est.estimate_strata(confidence)?;
    let strata: Vec<Interval> = categories.iter().map(|&(_, iv)| iv).collect();
    let combined = combine_strata(&strata, confidence);
    Ok(JoinOutcome {
        categories,
        combined,
        metrics: result.metrics,
    })
}

/// Errors when any catalogue (build-side) cluster failed to complete.
/// Losing a *log* cluster widens the intervals (Eq. 1–3 account for
/// it); losing a *catalogue* cluster silently removes join keys — every
/// access to its pages would be skipped as "uncatalogued" with no trace
/// in any bound — so it must be a hard error, never a degradation.
fn ensure_build_side_complete(w: &JoinWorkload, metrics: &JobMetrics) -> Result<()> {
    // Dataset-1 tasks occupy the contiguous tail of the flattened task
    // space (the tagged source lays datasets out in order).
    let n_log = w.log.num_blocks() as usize;
    if let Some(rec) = metrics
        .task_outcomes
        .iter()
        .find(|r| r.task.0 >= n_log && r.outcome != TaskOutcome::Completed)
    {
        return Err(RuntimeError::invalid(format!(
            "catalogue cluster {} did not complete ({:?}): the join's \
             build side must run precisely (its loss cannot be bounded)",
            rec.task.0, rec.outcome
        ))
        .into());
    }
    Ok(())
}

/// Builds the mapper, attaching Bloom counters when the config carries
/// an observability context.
fn join_mapper(w: &JoinWorkload, config: &JobConfig) -> JoinMapper {
    let mut mapper = JoinMapper::new(&w.catalog);
    if let Some(obs) = &config.obs {
        mapper = mapper.with_obs(obs);
    }
    mapper
}

/// Runs the join on the **scoped-threads** backend.
pub fn join_category_traffic(
    w: &JoinWorkload,
    ratios: DatasetRatios,
    config: JobConfig,
    confidence: f64,
) -> Result<JoinOutcome> {
    let config = JobConfig {
        datasets: w.dataset_ratios(ratios),
        ..config
    };
    let source = w.source()?;
    let result = run_job(
        &source,
        &join_mapper(w, &config),
        |_| JoinReducer::new(),
        config,
    )?;
    ensure_build_side_complete(w, &result.metrics)?;
    finish_join(result, w.log_clusters(), confidence)
}

/// Runs the join on the **shared slot pool** backend (a private pool of
/// `pool_slots` slots for this one job — the service-mode executor).
pub fn join_category_traffic_pooled(
    w: &JoinWorkload,
    ratios: DatasetRatios,
    config: JobConfig,
    confidence: f64,
    pool_slots: usize,
) -> Result<JoinOutcome> {
    let config = JobConfig {
        datasets: w.dataset_ratios(ratios),
        ..config
    };
    let source = w.source()?;
    let mut coordinator = FixedCoordinator::for_job(&source.splits(), &config)?;
    let pool = SlotPool::new(pool_slots.max(1));
    let tenant = pool.register_tenant(1.0);
    let session = JobSession::new(JobId(0));
    let mapper = join_mapper(w, &config);
    let result = run_job_on_pool(
        Arc::new(source),
        Arc::new(mapper),
        |_| JoinReducer::new(),
        config,
        &mut coordinator,
        &pool,
        tenant,
        &session,
    );
    pool.unregister_tenant(tenant);
    let result = result?;
    ensure_build_side_complete(w, &result.metrics)?;
    finish_join(result, w.log_clusters(), confidence)
}

/// Runs the join on the **worker-process** backend. `worker.bin` must
/// register [`JOIN_JOB`] (see [`register_join_job`]); the catalogue
/// travels as the job's params blob, so workers rebuild a bit-identical
/// Bloom filter on their side of the process boundary.
pub fn join_category_traffic_process(
    w: &JoinWorkload,
    ratios: DatasetRatios,
    config: JobConfig,
    confidence: f64,
    worker: &WorkerSpec,
) -> Result<JoinOutcome> {
    let config = JobConfig {
        datasets: w.dataset_ratios(ratios),
        ..config
    };
    let spec = WorkerSpec::new(&worker.bin, JOIN_JOB).with_params(w.catalog.to_bytes());
    let source = w.source()?;
    let mut coordinator = FixedCoordinator::for_job(&source.splits(), &config)?;
    let session = JobSession::new(JobId(0));
    let result = run_job_process(
        &source,
        &spec,
        |_| JoinReducer::new(),
        config,
        &mut coordinator,
        &session,
    )?;
    ensure_build_side_complete(w, &result.metrics)?;
    finish_join(result, w.log_clusters(), confidence)
}

/// Registers the join job in a worker binary's registry under
/// [`JOIN_JOB`]: decodes the [`PageCatalog`] from the params blob and
/// rebuilds the Bloom-filtering mapper. Counters attach to the worker
/// process's own observability context
/// ([`approxhadoop_runtime::engine::process::worker_obs`]), whose
/// deltas the frame loop piggybacks back to the parent's registry when
/// the job enables telemetry.
pub fn register_join_job(registry: &mut approxhadoop_runtime::engine::process::JobRegistry) {
    registry.register(JOIN_JOB, |params: &[u8]| {
        let catalog =
            PageCatalog::from_bytes(params).map_err(|e| format!("bad {JOIN_JOB} params: {e}"))?;
        Ok(
            JoinMapper::new(&catalog)
                .with_obs(&approxhadoop_runtime::engine::process::worker_obs()),
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::input::InputSource;

    fn small() -> JoinWorkload {
        JoinWorkload {
            log: WikiLog {
                days: 1,
                entries_per_block: 300,
                blocks_per_day: 8,
                pages: 2_000,
                projects: 10,
                seed: 42,
            },
            catalog: PageCatalog {
                pages: 1_200,
                pages_per_block: 500,
                categories: 4,
                seed: 42,
                fpr: 0.01,
            },
        }
    }

    #[test]
    fn catalog_blocks_cover_every_page_once() {
        let c = small().catalog;
        let mut pages: Vec<u64> = (0..c.num_blocks())
            .flat_map(|b| c.block(b))
            .map(|m| m.page)
            .collect();
        pages.sort_unstable();
        assert_eq!(pages, (1..=c.pages).collect::<Vec<_>>());
    }

    #[test]
    fn join_record_wire_roundtrips() {
        let records = vec![
            JoinRecord::Access(LogEntry {
                timestamp: 7,
                project: 3,
                page: 999,
                bytes: 120,
            }),
            JoinRecord::Meta(PageMeta {
                page: 999,
                category: 2,
            }),
        ];
        for r in &records {
            assert_eq!(&JoinRecord::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        // An invalid tag is rejected, not misread.
        let mut bad = records[0].to_bytes();
        bad[0] = 9;
        assert!(JoinRecord::from_bytes(&bad).is_err());
    }

    #[test]
    fn tagged_source_flattens_datasets_in_order() {
        let w = small();
        let source = w.source().unwrap();
        let splits = source.splits();
        assert_eq!(
            splits.len() as u64,
            w.log.num_blocks() + w.catalog.num_blocks()
        );
        assert!(splits[..w.log.num_blocks() as usize]
            .iter()
            .all(|s| s.dataset == DatasetId(0)));
        assert!(splits[w.log.num_blocks() as usize..]
            .iter()
            .all(|s| s.dataset == DatasetId(1)));
    }

    #[test]
    fn precise_join_is_exact_and_matches_truth() {
        let w = small();
        let outcome = join_category_traffic(
            &w,
            DatasetRatios::precise(),
            JobConfig {
                reduce_tasks: 2,
                seed: 1,
                ..Default::default()
            },
            0.95,
        )
        .unwrap();
        let truth = w.precise_by_category();
        assert_eq!(outcome.categories.len(), truth.len());
        for (category, interval) in &outcome.categories {
            assert_eq!(interval.half_width, 0.0, "census must be exact");
            let t = truth[category];
            assert!(
                (interval.estimate - t).abs() < 1e-6,
                "category {category}: {} != {t}",
                interval.estimate
            );
        }
        let total: f64 = truth.values().sum();
        assert!((outcome.combined.estimate - total).abs() < 1e-6);
        assert_eq!(outcome.combined.half_width, 0.0);
    }

    #[test]
    fn sampled_join_covers_truth_per_stratum() {
        let w = small();
        let outcome = join_category_traffic(
            &w,
            DatasetRatios {
                sampling_ratio: 0.5,
                drop_ratio: 0.25,
            },
            JobConfig {
                reduce_tasks: 2,
                seed: 3,
                ..Default::default()
            },
            0.95,
        )
        .unwrap();
        let truth = w.precise_by_category();
        assert!(outcome.metrics.dropped_maps > 0, "drops must engage");
        let mut covered = 0usize;
        for (category, interval) in &outcome.categories {
            assert!(interval.half_width > 0.0, "sampling must widen intervals");
            if interval.contains(truth[category]) {
                covered += 1;
            }
        }
        // 95% intervals: demand every stratum covers here (seed chosen
        // to behave; the e2e matrix exercises more seeds).
        assert_eq!(
            covered,
            outcome.categories.len(),
            "strata must cover their precise values"
        );
        assert!(outcome.combined.contains(truth.values().sum()));
    }

    /// Values captured (`f64::to_bits`) from the commit before
    /// `JoinReducer` moved onto `ClusterTable`: each `(category,
    /// cluster)` slot must keep adding its pages in ascending order.
    #[test]
    fn sampled_join_categories_are_bit_pinned() {
        let outcome = join_category_traffic(
            &small(),
            DatasetRatios {
                sampling_ratio: 0.5,
                drop_ratio: 0.25,
            },
            JobConfig {
                reduce_tasks: 2,
                seed: 3,
                ..Default::default()
            },
            0.95,
        )
        .unwrap();
        let mut rows: Vec<(u64, u64, u64)> = outcome
            .categories
            .iter()
            .map(|(c, iv)| (*c, iv.estimate.to_bits(), iv.half_width.to_bits()))
            .collect();
        let total = outcome.combined;
        rows.push((0, total.estimate.to_bits(), total.half_width.to_bits()));
        let expected = [
            (1, 0x415f098aaaaaaaaa, 0x41325d32bb17f47f),
            (2, 0x41668e4eaaaaaaaa, 0x41398c91305b82f1),
            (3, 0x4160f9b455555555, 0x41336be0d1927853),
            (4, 0x415e18aaaaaaaaaa, 0x413043784e50fdf1),
            // The whole-join row (key 0 is not a category).
            (0, 0x418186476aaaaaaa, 0x41443273f8df28a8),
        ];
        assert!(
            rows == expected,
            "join drifted from the pinned bits; actual rows:\n{}",
            rows.iter()
                .map(|(k, e, h)| format!("            ({k}, {e:#018x}, {h:#018x}),\n"))
                .collect::<String>()
        );
    }

    #[test]
    fn bloom_prefilter_discards_uncatalogued_traffic() {
        let w = small();
        let obs = Obs::shared();
        let outcome = join_category_traffic(
            &w,
            DatasetRatios::precise(),
            JobConfig {
                reduce_tasks: 2,
                seed: 1,
                obs: Some(Arc::clone(&obs)),
                ..Default::default()
            },
            0.95,
        )
        .unwrap();
        drop(outcome);
        let metrics = obs.registry.render_prometheus();
        let discarded = metrics
            .lines()
            .find(|l| l.starts_with("join_filter_discarded_total"))
            .and_then(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .unwrap_or(0.0);
        let passed = metrics
            .lines()
            .find(|l| l.starts_with("join_filter_passed_total"))
            .and_then(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .unwrap_or(0.0);
        assert!(
            discarded > 0.0,
            "uncatalogued pages must be filtered map-side:\n{metrics}"
        );
        assert!(passed > 0.0, "catalogued traffic must pass the filter");
    }
}
