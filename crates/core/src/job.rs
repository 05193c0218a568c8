//! High-level job builders — the ergonomic entry point mirroring the
//! paper's "inherit the pre-defined classes, keep your map() code"
//! workflow.

use std::sync::Arc;

use approxhadoop_ipc::Wire;
use approxhadoop_runtime::engine::{
    run_job, run_job_process, run_job_with_session, JobConfig, JobResult, WorkerSpec,
};
use approxhadoop_runtime::input::InputSource;
use approxhadoop_runtime::metrics::JobMetrics;
use approxhadoop_runtime::types::Key;
use approxhadoop_runtime::{Coordinator, JobId, JobSession};
use approxhadoop_stats::Interval;

use crate::extreme::{Extreme, ExtremeMapper, ExtremeOutput, ExtremeReducer};
use crate::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
use crate::spec::{ApproxSpec, ErrorTarget};
use crate::target::policy;
use crate::{CoreError, Result};

/// The outcome of an approximate job.
#[derive(Debug)]
pub struct ApproxResult<O> {
    /// The job's outputs.
    pub outputs: Vec<O>,
    /// Execution metrics (executed/dropped maps, sampling counts, wall
    /// time).
    pub metrics: JobMetrics,
    /// Chao1 estimate of the total number of distinct keys in the
    /// population, including keys the sampling missed (paper §3.1's
    /// extension; `None` for job types that don't compute it).
    pub distinct_keys_estimate: Option<f64>,
}

/// Builder for aggregation jobs (sum / count / mean) with multi-stage
/// sampling error bounds.
///
/// ```
/// use approxhadoop_core::job::AggregationJob;
/// use approxhadoop_core::spec::ApproxSpec;
/// use approxhadoop_runtime::input::VecSource;
///
/// let input = VecSource::new(vec![vec![1.0f64, 2.0], vec![3.0, 4.0]]);
/// let result = AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(&'static str, f64)| {
///     emit("total", *x)
/// })
/// .spec(ApproxSpec::Precise)
/// .run(&input)
/// .unwrap();
/// assert_eq!(result.outputs[0].1.estimate, 10.0);
/// ```
pub struct AggregationJob<I, K, F> {
    map_fn: F,
    agg: Aggregation,
    spec: ApproxSpec,
    config: JobConfig,
    _marker: std::marker::PhantomData<fn(I) -> K>,
}

impl<I, K, F> AggregationJob<I, K, F>
where
    I: Send + 'static,
    K: Key,
    F: Fn(&I, &mut dyn FnMut(K, f64)) + Send + Sync,
{
    /// A job estimating `agg` of the emitted values per key.
    pub fn new(agg: Aggregation, map_fn: F) -> Self {
        AggregationJob {
            map_fn,
            agg,
            spec: ApproxSpec::Precise,
            config: JobConfig::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// A job estimating per-key **sums** of the emitted values.
    pub fn sum(map_fn: F) -> Self {
        Self::new(Aggregation::Sum, map_fn)
    }

    /// A job estimating per-key **counts** (emit `1.0` per occurrence).
    pub fn count(map_fn: F) -> Self {
        Self::new(Aggregation::Count, map_fn)
    }

    /// A job estimating the per-item **mean** of the emitted values.
    pub fn mean(map_fn: F) -> Self {
        Self::new(Aggregation::Mean, map_fn)
    }

    /// Sets the approximation specification (default: precise).
    pub fn spec(mut self, spec: ApproxSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the engine configuration (slots, reducers, seed, …).
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the job on `input`, on job-private threads.
    pub fn run<S>(self, input: &S) -> Result<ApproxResult<(K, Interval)>>
    where
        S: InputSource<Item = I>,
    {
        let mapper = MultiStageMapper::new(self.map_fn);
        run_aggregation(
            self.agg,
            self.spec,
            self.config,
            input,
            |make_reducer, config, coordinator| {
                let session = JobSession::new(JobId(0));
                run_job_with_session(input, &mapper, make_reducer, config, coordinator, &session)
            },
        )
    }

    /// Runs the job on the **process backend**: map attempts execute in
    /// `config.workers` worker processes started from `worker`, with a
    /// spill-capable shuffle bounded by `config.shuffle_mem_bytes`.
    ///
    /// The worker binary — not this builder's `map_fn` — supplies the
    /// map function: `worker.job` must name a registered job applying
    /// the *same* mapping, or results will silently differ (the
    /// workloads crate keeps both sides in one table row for that
    /// reason: `apps::WikilogJob`). All three
    /// approximation modes work, including the target-error controller
    /// (the bound monitor rides the reduce side, which stays in this
    /// process).
    pub fn run_on_workers<S>(
        self,
        input: &S,
        worker: &WorkerSpec,
    ) -> Result<ApproxResult<(K, Interval)>>
    where
        S: InputSource<Item = I>,
        I: Wire,
        K: Wire,
    {
        run_aggregation(
            self.agg,
            self.spec,
            self.config,
            input,
            |make_reducer, config, coordinator| {
                let session = JobSession::new(JobId(0));
                run_job_process(input, worker, make_reducer, config, coordinator, &session)
            },
        )
    }
}

/// The reducer factory [`run_aggregation`] hands to its engine call.
type MakeReducer<'a, K> = dyn Fn(usize) -> MultiStageReducer<K> + Sync + 'a;

/// The one body behind [`AggregationJob::run`] and
/// [`AggregationJob::run_on_workers`]: builds the policy the spec names
/// (fixed ratios, or the target-error controller with its reduce-side
/// bound monitor), lets `engine` run the job on whichever backend the
/// caller chose, and assembles the sorted result.
fn run_aggregation<S, K, E>(
    agg: Aggregation,
    spec: ApproxSpec,
    config: JobConfig,
    input: &S,
    engine: E,
) -> Result<ApproxResult<(K, Interval)>>
where
    S: InputSource,
    K: Key,
    E: FnOnce(
        &MakeReducer<'_, K>,
        JobConfig,
        &mut dyn Coordinator,
    ) -> approxhadoop_runtime::Result<JobResult<(K, Interval)>>,
{
    let splits = input.splits();
    if splits.is_empty() {
        return Err(CoreError::invalid("input has no splits"));
    }
    let (mut coordinator, monitor) = policy(spec, &splits, &config)?;
    let confidence = spec.confidence();
    let distinct_sink: crate::multistage::DistinctSink =
        Arc::new(parking_lot::Mutex::new(vec![None; config.reduce_tasks]));
    let make_reducer = |_| {
        MultiStageReducer::<K>::new(agg, confidence)
            .with_distinct_sink(Arc::clone(&distinct_sink))
            .with_monitor(monitor)
    };
    let job = engine(&make_reducer, config, coordinator.as_mut())?;
    let mut outputs = job.outputs;
    outputs.sort_by(|a, b| a.0.cmp(&b.0));
    // Keys are hash-partitioned: the global distinct-key estimate is
    // the sum over reducer partitions (all must have reported).
    let slots = distinct_sink.lock();
    let distinct_keys_estimate = if slots.iter().all(|s| s.is_some()) {
        Some(slots.iter().map(|s| s.unwrap_or(0.0)).sum())
    } else {
        None
    };
    Ok(ApproxResult {
        outputs,
        metrics: job.metrics,
        distinct_keys_estimate,
    })
}

/// Builder for extreme-value jobs (min / max) with GEV error bounds.
///
/// ```
/// use approxhadoop_core::job::ExtremeJob;
/// use approxhadoop_core::spec::ApproxSpec;
/// use approxhadoop_runtime::input::VecSource;
///
/// // 20 maps, each scanning one block of values.
/// let blocks: Vec<Vec<f64>> = (0..20)
///     .map(|b| (0..50).map(|i| 100.0 + ((b * 31 + i * 7) % 97) as f64).collect())
///     .collect();
/// let input = VecSource::new(blocks);
/// let result = ExtremeJob::min(|v: &f64, emit: &mut dyn FnMut(f64)| emit(*v))
///     .spec(ApproxSpec::ratios(0.25, 1.0))
///     .run(&input)
///     .unwrap();
/// assert!(result.outputs[0].observed >= 100.0);
/// ```
pub struct ExtremeJob<I, F> {
    map_fn: F,
    kind: Extreme,
    spec: ApproxSpec,
    config: JobConfig,
    percentile: f64,
    _marker: std::marker::PhantomData<fn(I)>,
}

impl<I, F> ExtremeJob<I, F>
where
    I: Send + 'static,
    F: Fn(&I, &mut dyn FnMut(f64)) + Send + Sync,
{
    fn new(kind: Extreme, map_fn: F) -> Self {
        ExtremeJob {
            map_fn,
            kind,
            spec: ApproxSpec::Precise,
            config: JobConfig::default(),
            percentile: approxhadoop_stats::gev::DEFAULT_EXTREME_PERCENTILE,
            _marker: std::marker::PhantomData,
        }
    }

    /// A job estimating the population **minimum**.
    pub fn min(map_fn: F) -> Self {
        Self::new(Extreme::Min, map_fn)
    }

    /// A job estimating the population **maximum**.
    pub fn max(map_fn: F) -> Self {
        Self::new(Extreme::Max, map_fn)
    }

    /// Sets the approximation specification (default: precise).
    pub fn spec(mut self, spec: ApproxSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the engine configuration. The reduce count is forced to 1
    /// (extreme jobs have a single intermediate key).
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the GEV estimation percentile (default 1%).
    pub fn percentile(mut self, p: f64) -> Self {
        self.percentile = p;
        self
    }

    /// Runs the job on `input`.
    pub fn run<S>(self, input: &S) -> Result<ApproxResult<ExtremeOutput>>
    where
        S: InputSource<Item = I>,
    {
        self.spec.validate()?;
        if input.splits().is_empty() {
            return Err(CoreError::invalid("input has no splits"));
        }
        let kind = self.kind;
        let percentile = self.percentile;
        let mapper = ExtremeMapper::new(kind, self.map_fn);
        let mut config = self.config;
        config.reduce_tasks = 1;
        // A target job schedules every map; its reducer stops the job
        // once the GEV interval meets the target.
        (config.drop_ratio, config.sampling_ratio) = self.spec.fixed_ratios().unwrap_or((0.0, 1.0));
        let target = match self.spec {
            ApproxSpec::Target {
                target: ErrorTarget::Relative(rel),
                ..
            } => Some(rel),
            ApproxSpec::Target { .. } => {
                return Err(CoreError::invalid(
                    "extreme-value jobs support relative targets only",
                ))
            }
            _ => None,
        };
        let confidence = self.spec.confidence();
        let job = run_job(
            input,
            &mapper,
            |_| {
                let reducer = ExtremeReducer::new(kind, confidence).with_percentile(percentile);
                match target {
                    Some(rel) => reducer.with_target(rel),
                    None => reducer,
                }
            },
            config,
        )?;
        Ok(ApproxResult {
            outputs: job.outputs,
            metrics: job.metrics,
            distinct_keys_estimate: None,
        })
    }
}

/// Builder for **ratio** jobs (`R = Σy / Σx` per key) — the paper's
/// fourth aggregate.
///
/// ```
/// use approxhadoop_core::job::RatioJob;
/// use approxhadoop_runtime::input::VecSource;
///
/// // Mean bytes per request: y = bytes, x = 1 per request.
/// let input = VecSource::new(vec![vec![(100.0, 1.0), (300.0, 1.0)], vec![(200.0, 1.0)]]);
/// let result = RatioJob::new(|&(y, x): &(f64, f64), emit: &mut dyn FnMut(u8, (f64, f64))| {
///     emit(0, (y, x))
/// })
/// .run(&input)
/// .unwrap();
/// assert_eq!(result.outputs[0].1.estimate, 200.0);
/// ```
pub struct RatioJob<I, K, F> {
    map_fn: F,
    spec: ApproxSpec,
    config: JobConfig,
    _marker: std::marker::PhantomData<fn(I) -> K>,
}

impl<I, K, F> RatioJob<I, K, F>
where
    I: Send + 'static,
    K: Key,
    F: Fn(&I, &mut dyn FnMut(K, (f64, f64))) + Send + Sync,
{
    /// A job estimating per-key ratios of the emitted `(y, x)` pairs.
    pub fn new(map_fn: F) -> Self {
        RatioJob {
            map_fn,
            spec: ApproxSpec::Precise,
            config: JobConfig::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Sets the approximation specification. Ratio jobs support
    /// [`ApproxSpec::Precise`] and [`ApproxSpec::Ratios`]; target-error
    /// mode is not implemented for ratios (the paper's controller is
    /// defined for totals).
    pub fn spec(mut self, spec: ApproxSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the engine configuration.
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the job on `input`.
    pub fn run<S>(self, input: &S) -> Result<ApproxResult<(K, Interval)>>
    where
        S: InputSource<Item = I>,
    {
        self.spec.validate()?;
        if input.splits().is_empty() {
            return Err(CoreError::invalid("input has no splits"));
        }
        let confidence = self.spec.confidence();
        let mapper = crate::ratio::RatioMapper::new(self.map_fn);
        let mut config = self.config;
        let Some((drop_ratio, sampling_ratio)) = self.spec.fixed_ratios() else {
            return Err(CoreError::invalid(
                "ratio jobs support Precise and Ratios specs only",
            ));
        };
        config.drop_ratio = drop_ratio;
        config.sampling_ratio = sampling_ratio;
        let job = run_job(
            input,
            &mapper,
            |_| crate::ratio::RatioReducer::<K>::new(confidence),
            config,
        )?;
        let mut outputs = job.outputs;
        outputs.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(ApproxResult {
            outputs,
            metrics: job.metrics,
            distinct_keys_estimate: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::input::VecSource;

    fn sum_blocks(blocks: &[Vec<f64>]) -> f64 {
        blocks.iter().flatten().sum()
    }

    fn make_blocks(n_blocks: usize, per_block: usize, seed: u64) -> Vec<Vec<f64>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_blocks)
            .map(|_| (0..per_block).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect()
    }

    #[test]
    fn precise_sum_is_exact() {
        let blocks = make_blocks(6, 50, 1);
        let truth = sum_blocks(&blocks);
        let input = VecSource::new(blocks);
        let result = AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
            .run(&input)
            .unwrap();
        assert_eq!(result.outputs.len(), 1);
        assert!((result.outputs[0].1.estimate - truth).abs() < 1e-9);
        assert_eq!(result.outputs[0].1.half_width, 0.0);
        assert_eq!(result.metrics.dropped_maps, 0);
    }

    #[test]
    fn ratio_spec_produces_bounded_estimate() {
        let blocks = make_blocks(40, 200, 2);
        let truth = sum_blocks(&blocks);
        let input = VecSource::new(blocks);
        let result = AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
            .spec(ApproxSpec::ratios(0.25, 0.2))
            .run(&input)
            .unwrap();
        let iv = result.outputs[0].1;
        assert!(iv.half_width > 0.0 && iv.half_width.is_finite());
        assert!(
            (iv.estimate - truth).abs() / truth < 0.2,
            "estimate {} vs truth {truth}",
            iv.estimate
        );
        assert_eq!(result.metrics.dropped_maps, 10);
        assert!(result.metrics.effective_sampling_ratio() < 0.3);
    }

    /// Bound and coverage only. Whether the engine run also *saves work*
    /// depends on thread timing — 60 maps of 300 `f64`s can all finish
    /// before the first reducer report arrives, and the coordinator
    /// rightly keeps the precise first-wave policy while statistics are
    /// not ready — so that is asserted by the synchronous test below.
    #[test]
    fn target_mode_meets_bound() {
        let blocks = make_blocks(60, 300, 3);
        let truth = sum_blocks(&blocks);
        let input = VecSource::new(blocks);
        let config = JobConfig {
            map_slots: 8,
            ..Default::default()
        };
        let result = AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
            .spec(ApproxSpec::target(0.05, 0.95))
            .config(config)
            .run(&input)
            .unwrap();
        let iv = result.outputs[0].1;
        assert!(
            iv.relative_error() <= 0.05 + 1e-9,
            "bound {} exceeds target",
            iv.relative_error()
        );
        assert!(
            iv.contains(truth) || iv.actual_error(truth) < 0.05,
            "estimate {} ± {} vs truth {truth}",
            iv.estimate,
            iv.half_width
        );
    }

    /// The same job with ordering controlled: the coordinator and the
    /// monitoring reducer `run_aggregation` builds, driven on one thread
    /// so every map output is absorbed before the next directive.
    #[test]
    fn target_mode_saves_work_when_reports_keep_pace() {
        use crate::keystat::KeyStat;
        use approxhadoop_runtime::control::{JobControl, MapDirective};
        use approxhadoop_runtime::metrics::MapStats;
        use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
        use approxhadoop_runtime::types::TaskId;

        let blocks = make_blocks(60, 300, 3);
        let total = blocks.len();
        let splits = VecSource::new(blocks.clone()).splits();
        let config = JobConfig {
            map_slots: 8,
            ..Default::default()
        };
        let (mut coordinator, monitor) =
            policy(ApproxSpec::target(0.05, 0.95), &splits, &config).unwrap();
        let mut reducer = MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95)
            .with_monitor(monitor.expect("target mode monitors"));
        let control = Arc::new(JobControl::new(1));
        let mut ctx = ReduceContext::new(0, total, Arc::clone(&control));
        let (mut executed, mut processed) = (0usize, 0usize);
        for (t, block) in blocks.iter().enumerate() {
            if coordinator.want_drop_remaining(&control) {
                break;
            }
            ctx.note_map();
            let MapDirective::Run { sampling_ratio } =
                coordinator.directive(TaskId(t), &splits[t], &control)
            else {
                reducer.on_map_dropped(TaskId(t), &mut ctx);
                continue;
            };
            // The values are i.i.d., so a prefix is a fair sample.
            let m = ((block.len() as f64 * sampling_ratio).ceil() as usize).clamp(1, block.len());
            let mut stat = KeyStat::default();
            for v in &block[..m] {
                stat.add_value(*v);
            }
            let meta = MapOutputMeta {
                task: TaskId(t),
                dataset: Default::default(),
                total_records: block.len() as u64,
                sampled_records: m as u64,
                duration_secs: 1e-3 + 1e-5 * m as f64,
            };
            reducer.on_map_output(&meta, vec![(0, stat)], &mut ctx);
            let stats = MapStats {
                task: meta.task,
                dataset: meta.dataset,
                total_records: meta.total_records,
                sampled_records: meta.sampled_records,
                emitted: m as u64,
                shuffled: 1,
                duration_secs: meta.duration_secs,
                read_secs: 1e-3,
            };
            coordinator.on_map_complete(&stats, &control);
            executed += 1;
            processed += m;
        }
        assert!(
            executed < total || processed < total * 300,
            "target mode should approximate something"
        );
        let iv = reducer.finish(&mut ctx)[0].1;
        assert!(iv.relative_error() <= 0.05 + 1e-9);
    }

    /// Bound telemetry is relative whatever the target's unit: under an
    /// absolute target the convergence series still ends at the final
    /// interval's relative error, not at its half-width.
    #[test]
    fn absolute_target_bound_series_is_relative() {
        let input = VecSource::new(make_blocks(60, 300, 3));
        let result = AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
            .spec(ApproxSpec::Target {
                target: ErrorTarget::Absolute(20_000.0),
                confidence: 0.95,
                pilot: None,
            })
            .config(JobConfig {
                map_slots: 8,
                ..Default::default()
            })
            .run(&input)
            .unwrap();
        let iv = result.outputs[0].1;
        assert!(iv.half_width <= 20_000.0, "{iv}");
        let last = result
            .metrics
            .bound_series
            .last()
            .expect("monitor reported");
        assert!(
            (last.relative_bound - iv.relative_error()).abs() <= 1e-12 * iv.relative_error(),
            "series ends at {}, final interval {iv} (relative {})",
            last.relative_bound,
            iv.relative_error()
        );
    }

    #[test]
    fn tight_target_runs_precise() {
        // An impossible target (0.0001%) on noisy data: the controller
        // must fall back to (near-)precise execution and the bound
        // reported must reflect whatever was achieved.
        let blocks = make_blocks(10, 50, 4);
        let truth = sum_blocks(&blocks);
        let input = VecSource::new(blocks);
        let result = AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
            .spec(ApproxSpec::target(0.000001, 0.95))
            .run(&input)
            .unwrap();
        // Everything ran precisely → exact result.
        assert_eq!(result.metrics.executed_maps, 10);
        assert!((result.outputs[0].1.estimate - truth).abs() < 1e-9);
    }

    #[test]
    fn count_and_mean_aggregations() {
        let blocks: Vec<Vec<f64>> = (0..4).map(|_| vec![2.0; 25]).collect();
        let input = VecSource::new(blocks);
        let result = AggregationJob::count(|_x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, 1.0))
            .run(&input)
            .unwrap();
        assert_eq!(result.outputs[0].1.estimate, 100.0);

        let input = VecSource::new((0..4).map(|_| vec![2.0f64; 25]).collect::<Vec<_>>());
        let result = AggregationJob::mean(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
            .run(&input)
            .unwrap();
        assert!((result.outputs[0].1.estimate - 2.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_job_precise_and_target() {
        let blocks: Vec<Vec<f64>> = (0..30)
            .map(|b| {
                (0..100)
                    .map(|i| 50.0 + ((b * 13 + i * 7) % 101) as f64)
                    .collect()
            })
            .collect();
        let true_min = blocks
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let input = VecSource::new(blocks);
        let result = ExtremeJob::min(|v: &f64, emit: &mut dyn FnMut(f64)| emit(*v))
            .run(&input)
            .unwrap();
        assert_eq!(result.outputs[0].observed, true_min);

        let result = ExtremeJob::min(|v: &f64, emit: &mut dyn FnMut(f64)| emit(*v))
            .spec(ApproxSpec::target(0.5, 0.95))
            .run(&input)
            .unwrap();
        assert!(result.outputs[0].samples >= 8);
    }

    #[test]
    fn extreme_job_rejects_absolute_target() {
        let input = VecSource::new(vec![vec![1.0f64]]);
        let spec = ApproxSpec::Target {
            target: ErrorTarget::Absolute(1.0),
            confidence: 0.95,
            pilot: None,
        };
        let r = ExtremeJob::min(|v: &f64, emit: &mut dyn FnMut(f64)| emit(*v))
            .spec(spec)
            .run(&input);
        assert!(r.is_err());
    }

    #[test]
    fn distinct_keys_estimate_extrapolates_missed_keys() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 500 keys, Zipf-ish: sampling misses the rare ones; the Chao1
        // estimate must land far closer to 500 than the observed count.
        let mut rng = StdRng::seed_from_u64(3);
        let blocks: Vec<Vec<u64>> = (0..20)
            .map(|_| {
                (0..400)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        (u * u * u * 500.0) as u64 // skew towards low keys
                    })
                    .collect()
            })
            .collect();
        let mut all = std::collections::HashSet::new();
        for b in &blocks {
            all.extend(b.iter().copied());
        }
        let true_distinct = all.len() as f64;
        let input = VecSource::new(blocks);
        let r = AggregationJob::count(|k: &u64, emit: &mut dyn FnMut(u64, f64)| emit(*k, 1.0))
            .spec(ApproxSpec::ratios(0.5, 0.1))
            .run(&input)
            .unwrap();
        let observed = r.outputs.len() as f64;
        let est = r.distinct_keys_estimate.expect("estimate available");
        assert!(observed < true_distinct, "sampling must miss keys");
        assert!(
            est > observed,
            "extrapolation must exceed the observed count"
        );
        assert!(
            (est - true_distinct).abs() < (observed - true_distinct).abs(),
            "Chao1 {est} should beat observed {observed} against truth {true_distinct}"
        );
    }

    #[test]
    fn invalid_spec_is_rejected_before_running() {
        let input = VecSource::new(vec![vec![1.0f64]]);
        let r = AggregationJob::sum(|x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x))
            .spec(ApproxSpec::ratios(2.0, 0.5))
            .run(&input);
        assert!(matches!(r, Err(CoreError::InvalidSpec { .. })));
    }
}
