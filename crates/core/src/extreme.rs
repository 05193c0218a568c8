//! Approximation-aware templates for extreme-value (min/max) jobs —
//! the paper's `ApproxMinReducer` / `ApproxMaxReducer` (Section 3.2).
//!
//! Each map task computes candidate values (e.g. one simulated-annealing
//! search per input item) and ships only its per-task extreme; the
//! reduce fits a Generalized Extreme Value distribution to the per-map
//! extremes and reports both the best value actually observed and the
//! GEV-estimated extreme with a confidence interval. In target-error
//! mode the reduce requests that remaining maps be dropped as soon as
//! the interval is tight enough (Figure 2 of the paper).

use std::marker::PhantomData;

use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::types::TaskId;
use approxhadoop_stats::gev::{MaxEstimator, MinEstimator};
use approxhadoop_stats::Interval;

/// Which extreme is being computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extreme {
    /// Estimate the population minimum.
    Min,
    /// Estimate the population maximum.
    Max,
}

/// Output of an extreme-value job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremeOutput {
    /// The best value actually found by the executed maps.
    pub observed: f64,
    /// The GEV estimate of the true extreme, with its confidence
    /// interval; `None` if too few maps completed to fit.
    pub estimated: Option<Interval>,
    /// How many per-map extremes the estimate is based on.
    pub samples: usize,
}

/// Map-side template: the user `f(item, emit)` emits candidate values;
/// the task ships a single per-task extreme.
pub struct ExtremeMapper<I, F> {
    f: F,
    kind: Extreme,
    _marker: PhantomData<fn(I)>,
}

impl<I, F> ExtremeMapper<I, F>
where
    F: Fn(&I, &mut dyn FnMut(f64)) + Send + Sync,
{
    /// Creates a mapper computing `kind` over the values emitted by `f`.
    pub fn new(kind: Extreme, f: F) -> Self {
        ExtremeMapper {
            f,
            kind,
            _marker: PhantomData,
        }
    }
}

impl<I, F> Mapper for ExtremeMapper<I, F>
where
    I: Send + 'static,
    F: Fn(&I, &mut dyn FnMut(f64)) + Send + Sync,
{
    type Item = I;
    type Key = ();
    type Value = f64;
    type TaskState = Option<f64>;

    fn begin_task(&self, _ctx: &MapTaskContext) -> Self::TaskState {
        None
    }

    fn map(&self, state: &mut Option<f64>, item: I, _emit: &mut dyn FnMut((), f64)) {
        let kind = self.kind;
        (self.f)(&item, &mut |v| {
            *state = Some(match (*state, kind) {
                (None, _) => v,
                (Some(cur), Extreme::Min) => cur.min(v),
                (Some(cur), Extreme::Max) => cur.max(v),
            });
        });
    }

    fn end_task(&self, state: Option<f64>, emit: &mut dyn FnMut((), f64)) {
        if let Some(v) = state {
            emit((), v);
        }
    }
}

/// Reduce-side template: GEV fit over per-map extremes.
pub struct ExtremeReducer {
    kind: Extreme,
    confidence: f64,
    percentile: f64,
    /// Target relative half-width that triggers early termination, if in
    /// target-error mode.
    target_relative: Option<f64>,
    /// Minimum per-map samples before attempting a fit.
    min_samples: usize,
    values: Vec<f64>,
    /// Once the target is met the estimate is locked in; values racing
    /// the JobTracker's kill are discarded.
    frozen: bool,
}

impl ExtremeReducer {
    /// Creates a reducer estimating `kind` at `confidence`.
    pub fn new(kind: Extreme, confidence: f64) -> Self {
        ExtremeReducer {
            kind,
            confidence,
            percentile: approxhadoop_stats::gev::DEFAULT_EXTREME_PERCENTILE,
            target_relative: None,
            min_samples: 8,
            values: Vec::new(),
            frozen: false,
        }
    }

    /// Sets the estimation percentile (default 1%).
    pub fn with_percentile(mut self, p: f64) -> Self {
        self.percentile = p;
        self
    }

    /// Enables target-error mode: once the interval's relative half-width
    /// drops to `target` (and at least `min_samples` maps completed), the
    /// reducer asks the JobTracker to drop all remaining maps.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target_relative = Some(target);
        self
    }

    fn fit(&self) -> Option<Interval> {
        if self.values.len() < self.min_samples {
            return None;
        }
        let iv = match self.kind {
            Extreme::Min => MinEstimator::with_percentile(self.percentile)
                .estimate(&self.values, self.confidence)
                .ok(),
            Extreme::Max => MaxEstimator::with_percentile(self.percentile)
                .estimate(&self.values, self.confidence)
                .ok(),
        };
        iv.map(|iv| self.clamp_to_observed(iv))
    }

    /// The observed extreme is itself achievable, so a fitted estimate
    /// beyond it (above the observed min / below the observed max) is
    /// incoherent — sampling noise in the GEV fit can produce one. Clamp
    /// the point estimate to the observed value, keeping the far
    /// endpoint of the interval (the extrapolated bound) in place.
    fn clamp_to_observed(&self, iv: Interval) -> Interval {
        let observed = self.observed();
        if !observed.is_finite() {
            return iv;
        }
        let overshoot = match self.kind {
            Extreme::Min => iv.estimate - observed,
            Extreme::Max => observed - iv.estimate,
        };
        if overshoot <= 0.0 {
            return iv;
        }
        Interval::new(
            observed,
            (iv.half_width - overshoot).max(0.0),
            iv.confidence,
        )
    }

    fn observed(&self) -> f64 {
        match self.kind {
            Extreme::Min => self.values.iter().copied().fold(f64::INFINITY, f64::min),
            Extreme::Max => self
                .values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl Reducer for ExtremeReducer {
    type Key = ();
    type Value = f64;
    type Output = ExtremeOutput;

    fn on_map_output(
        &mut self,
        _meta: &MapOutputMeta,
        pairs: Vec<((), f64)>,
        ctx: &mut ReduceContext,
    ) {
        if self.frozen {
            return;
        }
        for (_, v) in pairs {
            self.values.push(v);
        }
        if let Some(target) = self.target_relative {
            if let Some(iv) = self.fit() {
                ctx.report_bound(iv, None);
                if iv.relative_error() <= target {
                    self.frozen = true;
                    ctx.request_drop_remaining();
                }
            }
        }
    }

    fn on_map_dropped(&mut self, _task: TaskId, _ctx: &mut ReduceContext) {}

    fn finish(&mut self, _ctx: &mut ReduceContext) -> Vec<ExtremeOutput> {
        if self.values.is_empty() {
            return vec![ExtremeOutput {
                observed: f64::NAN,
                estimated: None,
                samples: 0,
            }];
        }
        vec![ExtremeOutput {
            observed: self.observed(),
            estimated: self.fit(),
            samples: self.values.len(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::control::JobControl;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn ctx(total: usize, control: &Arc<JobControl>) -> ReduceContext {
        ReduceContext::new(0, total, Arc::clone(control))
    }

    fn meta(task: usize) -> MapOutputMeta {
        MapOutputMeta {
            task: TaskId(task),
            dataset: Default::default(),
            total_records: 10,
            sampled_records: 10,
            duration_secs: 0.1,
        }
    }

    #[test]
    fn mapper_ships_per_task_extreme() {
        let m = ExtremeMapper::new(Extreme::Min, |item: &Vec<f64>, emit| {
            for &v in item {
                emit(v);
            }
        });
        let mctx = MapTaskContext {
            task: TaskId(0),
            dataset: Default::default(),
            sampling_ratio: 1.0,
            attempt: 0,
        };
        let mut state = m.begin_task(&mctx);
        m.map(&mut state, vec![5.0, 2.0], &mut |_, _| {});
        m.map(&mut state, vec![7.0, 3.0], &mut |_, _| {});
        let mut out = Vec::new();
        m.end_task(state, &mut |_, v| out.push(v));
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn mapper_emits_nothing_without_values() {
        let m = ExtremeMapper::new(Extreme::Max, |_item: &u32, _emit| {});
        let mctx = MapTaskContext {
            task: TaskId(0),
            dataset: Default::default(),
            sampling_ratio: 1.0,
            attempt: 0,
        };
        let state = m.begin_task(&mctx);
        let mut out = Vec::new();
        m.end_task(state, &mut |_, v| out.push(v));
        assert!(out.is_empty());
    }

    #[test]
    fn reducer_estimates_minimum() {
        let mut rng = StdRng::seed_from_u64(5);
        let control = Arc::new(JobControl::new(1));
        let mut c = ctx(60, &control);
        let mut r = ExtremeReducer::new(Extreme::Min, 0.95);
        for t in 0..60 {
            let per_map_min = (0..400)
                .map(|_| rng.gen_range(10.0..30.0))
                .fold(f64::INFINITY, f64::min);
            r.on_map_output(&meta(t), vec![((), per_map_min)], &mut c);
        }
        let out = r.finish(&mut c);
        assert_eq!(out.len(), 1);
        assert!(out[0].observed >= 10.0);
        let iv = out[0].estimated.expect("enough samples to fit");
        assert!(
            iv.estimate > 8.0 && iv.estimate < 10.6,
            "estimate {}",
            iv.estimate
        );
        assert_eq!(out[0].samples, 60);
    }

    #[test]
    fn reducer_with_target_requests_drop() {
        let mut rng = StdRng::seed_from_u64(11);
        let control = Arc::new(JobControl::new(1));
        let mut c = ctx(1000, &control);
        // Loose 50% target: met quickly.
        let mut r = ExtremeReducer::new(Extreme::Min, 0.95).with_target(0.5);
        let mut fired_at = None;
        for t in 0..200 {
            let v = (0..300)
                .map(|_| rng.gen_range(100.0..200.0))
                .fold(f64::INFINITY, f64::min);
            r.on_map_output(&meta(t), vec![((), v)], &mut c);
            if control.drop_requested() {
                fired_at = Some(t);
                break;
            }
        }
        assert!(fired_at.is_some(), "target should be reached");
        assert!(fired_at.unwrap() < 199, "should fire before all maps run");
    }

    #[test]
    fn reducer_handles_no_values() {
        let control = Arc::new(JobControl::new(1));
        let mut c = ctx(4, &control);
        let mut r = ExtremeReducer::new(Extreme::Max, 0.95);
        let out = r.finish(&mut c);
        assert_eq!(out[0].samples, 0);
        assert!(out[0].estimated.is_none());
    }

    #[test]
    fn too_few_samples_yields_no_estimate() {
        let control = Arc::new(JobControl::new(1));
        let mut c = ctx(4, &control);
        let mut r = ExtremeReducer::new(Extreme::Max, 0.95);
        for t in 0..3 {
            r.on_map_output(&meta(t), vec![((), t as f64)], &mut c);
        }
        let out = r.finish(&mut c);
        assert_eq!(out[0].observed, 2.0);
        assert!(out[0].estimated.is_none());
        assert_eq!(out[0].samples, 3);
    }
}
