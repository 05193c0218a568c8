//! The target-error-bound controller (paper Section 4.4).
//!
//! When the user specifies a target error bound instead of explicit
//! ratios, ApproxHadoop must *choose* the dropping/sampling ratios. The
//! pieces:
//!
//! * the job's [`JobControl`] — reduce tasks post their worst key's
//!   interval and [`WaveStatistics`] there (the JobTracker "collecting
//!   error estimates from all reduce tasks"), and the tracker hands it
//!   to every coordinator hook;
//! * [`TimingModel`] — a fit of `t_map(M, m) = t0 + M·t_r + m·t_p`
//!   (Eq. 5) from completed-map measurements;
//! * [`plan`] — the optimisation problem: minimise the remaining
//!   execution time `RET = n₂ · t_map(M̄, m)` subject to the predicted
//!   bound meeting the target (Eq. 4, 6–7), solved by scanning `n₂` with
//!   a binary search over `m` and a lower-bound prune;
//! * [`TargetErrorCoordinator`] — the [`Coordinator`] gluing it together:
//!   first (or pilot) wave, re-planning as statistics arrive, dropping
//!   the tail once the plan is exhausted or the reports meet the target
//!   — and, through [`TargetErrorCoordinator::monitor`], the reducers'
//!   half of the same policy;
//! * [`policy`] — the one place an [`ApproxSpec`] becomes a job's
//!   coordinator and bound monitor.

use approxhadoop_runtime::control::{Coordinator, FixedCoordinator, JobControl, MapDirective};
use approxhadoop_runtime::engine::JobConfig;
use approxhadoop_runtime::input::SplitMeta;
use approxhadoop_runtime::metrics::MapStats;
use approxhadoop_runtime::types::TaskId;
use approxhadoop_stats::dist::cached_two_sided_critical_value;
use approxhadoop_stats::multistage::WaveStatistics;

use crate::multistage::BoundMonitor;
use crate::spec::{ApproxSpec, ErrorTarget, PilotSpec};
use crate::Result;

/// Builds the policy `spec` names for a job over `splits` — the
/// JobTracker's half and, in target-error mode, the reducers' half: a
/// [`FixedCoordinator`] at the spec's ratios (with `config`'s seed and
/// per-dataset table), or a [`TargetErrorCoordinator`] planning waves of
/// `config.map_slots` tasks with its [`TargetErrorCoordinator::monitor`].
pub fn policy(
    spec: ApproxSpec,
    splits: &[SplitMeta],
    config: &JobConfig,
) -> Result<(Box<dyn Coordinator>, Option<BoundMonitor>)> {
    spec.validate()?;
    let ApproxSpec::Target {
        target,
        confidence,
        pilot,
    } = spec
    else {
        let (drop_ratio, sampling_ratio) = spec.fixed_ratios().unwrap_or((0.0, 1.0));
        let config = JobConfig {
            drop_ratio,
            sampling_ratio,
            ..config.clone()
        };
        return Ok((Box::new(FixedCoordinator::for_job(splits, &config)?), None));
    };
    let coordinator =
        TargetErrorCoordinator::new(splits.len(), target, confidence, config.map_slots, pilot);
    let monitor = coordinator.monitor();
    Ok((Box::new(coordinator), Some(monitor)))
}

/// The paper's map-task running-time model (Eq. 5):
/// `t_map(M, m) = t0 + M·t_r + m·t_p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Base task start-up time (seconds).
    pub t0: f64,
    /// Per-record read time (seconds).
    pub tr: f64,
    /// Per-record processing time (seconds).
    pub tp: f64,
}

impl TimingModel {
    /// Predicted duration of a map over a block of `m_total` records
    /// processing `m_sampled` of them.
    pub fn t_map(&self, m_total: f64, m_sampled: f64) -> f64 {
        self.t0 + m_total * self.tr + m_sampled * self.tp
    }

    /// Fits the model from completed-map measurements.
    ///
    /// Read time scales with `M` (every record is read even when not
    /// processed — the paper's observation about why sampling saves less
    /// than dropping), processing time with `m`:
    /// `t_r = Σ read / ΣM`, `t_p = Σ(duration − read) / Σm`, and `t0`
    /// absorbs the residual mean (clamped at 0).
    ///
    /// Returns `None` if `stats` is empty or degenerate.
    pub fn fit(stats: &[MapStats]) -> Option<TimingModel> {
        if stats.is_empty() {
            return None;
        }
        let n = stats.len() as f64;
        let sum_m_total: f64 = stats.iter().map(|s| s.total_records as f64).sum();
        let sum_m_sampled: f64 = stats.iter().map(|s| s.sampled_records as f64).sum();
        let sum_read: f64 = stats.iter().map(|s| s.read_secs).sum();
        let sum_proc: f64 = stats
            .iter()
            .map(|s| (s.duration_secs - s.read_secs).max(0.0))
            .sum();
        if sum_m_total <= 0.0 {
            return None;
        }
        let tr = sum_read / sum_m_total;
        let tp = if sum_m_sampled > 0.0 {
            sum_proc / sum_m_sampled
        } else {
            0.0
        };
        let mean_dur: f64 = stats.iter().map(|s| s.duration_secs).sum::<f64>() / n;
        let t0 = (mean_dur - tr * sum_m_total / n - tp * sum_m_sampled / n).max(0.0);
        Some(TimingModel { t0, tr, tp })
    }
}

/// A chosen continuation: run `additional_tasks` more maps at
/// `sampling_ratio`, then drop the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// `n₂` — further map tasks to execute.
    pub additional_tasks: u64,
    /// Sampling ratio `m / M̄` for those tasks.
    pub sampling_ratio: f64,
    /// Whether the target is predicted to be met. When `false` the plan
    /// degenerates to "run everything remaining precisely" (the paper's
    /// "no approximation is possible" outcome).
    pub feasible: bool,
}

/// The default planning safety margin (see [`plan_with_margin`]).
pub const DEFAULT_PLANNING_MARGIN: f64 = 0.8;

/// Solves the Section 4.4 optimisation problem with the default safety
/// margin; see [`plan_with_margin`].
pub fn plan(
    wave: &WaveStatistics,
    timing: &TimingModel,
    target: ErrorTarget,
    confidence: f64,
    remaining: u64,
) -> Plan {
    plan_with_margin(
        wave,
        timing,
        target,
        confidence,
        remaining,
        DEFAULT_PLANNING_MARGIN,
    )
}

/// Solves the Section 4.4 optimisation problem.
///
/// Minimises `RET = n₂ · t_map(M̄, m)` over `(n₂, m)` subject to the
/// predicted bound (Eq. 4, 6–7) meeting `margin × target` at
/// `confidence`. `remaining` caps `n₂`.
///
/// `margin < 1` plans for a tighter bound than requested: the prediction
/// comes from noisy first-wave statistics, and once a block has been
/// sampled it cannot be re-read — without headroom, a job that runs its
/// whole plan can land just above the target with no way back. The
/// ablation benches measure the effect (`--bin ablation`).
pub fn plan_with_margin(
    wave: &WaveStatistics,
    timing: &TimingModel,
    target: ErrorTarget,
    confidence: f64,
    remaining: u64,
    margin: f64,
) -> Plan {
    let mbar = wave.mean_cluster_size.max(1.0);
    let allowed = margin
        * match target {
            ErrorTarget::Relative(x) => x * wave.estimate.abs(),
            ErrorTarget::Absolute(x) => x,
        };
    if allowed <= 0.0 {
        return Plan {
            additional_tasks: remaining,
            sampling_ratio: 1.0,
            feasible: false,
        };
    }
    let n1 = wave.completed_clusters;

    // meets(n2, m): predicted variance within the allowance at the
    // t-quantile for n = n1 + n2 (cached per n2).
    let allowed_var = |n2: u64| -> f64 {
        let n = n1 + n2;
        if n < 2 {
            return -1.0;
        }
        let t = cached_two_sided_critical_value((n - 1) as f64, confidence);
        (allowed / t) * (allowed / t)
    };

    // Already met without any further task?
    if n1 >= 2 && wave.predicted_variance(0, mbar) <= allowed_var(0) {
        return Plan {
            additional_tasks: 0,
            sampling_ratio: 1.0,
            feasible: true,
        };
    }

    let mut best: Option<(u64, f64, f64)> = None; // (n2, m, ret)
    for n2 in 1..=remaining {
        // Prune: even the cheapest possible per-task time rules this out.
        let t_cheapest = timing.t_map(mbar, 1.0).max(1e-12);
        if let Some((_, _, ret)) = best {
            if n2 as f64 * t_cheapest >= ret {
                break;
            }
        }
        let av = allowed_var(n2);
        if av < 0.0 || wave.predicted_variance(n2, mbar) > av {
            continue; // infeasible even running these tasks precisely
        }
        // Smallest m meeting the bound (variance is decreasing in m).
        let mut lo = 1u64;
        let mut hi = mbar.ceil() as u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if wave.predicted_variance(n2, mid as f64) <= av {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let m = lo as f64;
        let ret = n2 as f64 * timing.t_map(mbar, m);
        if best.is_none_or(|(_, _, b)| ret < b) {
            best = Some((n2, m, ret));
        }
    }
    match best {
        Some((n2, m, _)) => Plan {
            additional_tasks: n2,
            sampling_ratio: (m / mbar).clamp(1e-6, 1.0),
            feasible: true,
        },
        None => Plan {
            additional_tasks: remaining,
            sampling_ratio: 1.0,
            feasible: false,
        },
    }
}

/// Bound checks per job: the reducers re-evaluate their worst key every
/// `total / CHECKS_PER_JOB` map outputs. A coarser interval overshoots
/// the stopping point by whole waves on large jobs (at one check per 50
/// maps the simulated one-year Fig. 13 job runs 2.5× longer).
const CHECKS_PER_JOB: usize = 200;

/// The [`Coordinator`] implementing target-error mode.
pub struct TargetErrorCoordinator {
    total: usize,
    target: ErrorTarget,
    confidence: f64,
    wave1_count: usize,
    wave1_ratio: f64,
    completed: Vec<MapStats>,
    scheduled_run: usize,
    current_plan: Option<Plan>,
    allowed_total: usize,
    replan_every: usize,
    completions_since_plan: usize,
    margin: f64,
}

impl TargetErrorCoordinator {
    /// Creates a coordinator.
    ///
    /// * `total` — total map tasks;
    /// * `wave_size` — tasks per wave (usually the cluster's map slots);
    /// * `pilot` — optional pilot wave replacing the precise first wave.
    pub fn new(
        total: usize,
        target: ErrorTarget,
        confidence: f64,
        wave_size: usize,
        pilot: Option<PilotSpec>,
    ) -> Self {
        let (wave1_count, wave1_ratio) = match pilot {
            Some(p) => (p.tasks.min(total), p.sampling_ratio),
            None => (wave_size.max(2).min(total), 1.0),
        };
        TargetErrorCoordinator {
            total,
            target,
            confidence,
            wave1_count,
            wave1_ratio,
            completed: Vec::new(),
            scheduled_run: 0,
            current_plan: None,
            allowed_total: total,
            replan_every: (total / 100).max(1),
            completions_since_plan: 0,
            margin: DEFAULT_PLANNING_MARGIN,
        }
    }

    /// Overrides the planning safety margin (default
    /// [`DEFAULT_PLANNING_MARGIN`]); `1.0` plans to the exact target, as
    /// the paper describes.
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!(margin > 0.0 && margin <= 1.0, "margin must lie in (0, 1]");
        self.margin = margin;
        self
    }

    /// The reducers' half of this policy: re-evaluate the worst key every
    /// `total / 200` map outputs (at least every one) and freeze at this
    /// coordinator's target once its first wave has executed.
    pub fn monitor(&self) -> BoundMonitor {
        BoundMonitor {
            check_every: (self.total / CHECKS_PER_JOB).max(1),
            freeze_at: Some(self.target),
            min_maps_before_freeze: self.wave1_count,
        }
    }

    /// The latest plan, if any (for instrumentation).
    pub fn current_plan(&self) -> Option<Plan> {
        self.current_plan
    }

    /// The stop rule, one for [`Coordinator::directive`] and
    /// [`Coordinator::want_drop_remaining`]: the first wave has completed
    /// (at least two clusters), every reducer's report covers the
    /// completed maps (a stale report could be invalidated by in-flight
    /// outputs), and the job's worst key — the largest half-width across
    /// all reducers — meets the target in the target's own unit.
    fn target_met(&self, control: &JobControl) -> bool {
        let completed = self.completed.len();
        if completed < self.wave1_count.min(self.total).max(2) {
            return false;
        }
        control
            .worst_report(completed)
            .is_some_and(|r| self.target.met(r.half_width, r.relative_bound))
    }

    fn replan(&mut self, control: &JobControl) {
        // Need the first wave done and reducer statistics available.
        if self.completed.len() < self.wave1_count.min(self.total) {
            return;
        }
        let Some(observed) = control.worst_report(0).and_then(|r| r.wave) else {
            return;
        };
        let Some(timing) = TimingModel::fit(&self.completed) else {
            return;
        };
        // Plan from what has actually been scheduled: tasks already
        // dispatched will complete regardless.
        let remaining = (self.total - self.scheduled_run.min(self.total)) as u64;
        if remaining == 0 {
            return;
        }
        let p = plan_with_margin(
            &observed,
            &timing,
            self.target,
            self.confidence,
            remaining,
            self.margin,
        );
        self.allowed_total = (self.scheduled_run + p.additional_tasks as usize).min(self.total);
        // Never stop below two executed clusters.
        self.allowed_total = self.allowed_total.max(2.min(self.total));
        self.current_plan = Some(p);
    }
}

impl Coordinator for TargetErrorCoordinator {
    fn directive(
        &mut self,
        _task: TaskId,
        _meta: &SplitMeta,
        control: &JobControl,
    ) -> MapDirective {
        if self.scheduled_run < self.wave1_count {
            self.scheduled_run += 1;
            return MapDirective::Run {
                sampling_ratio: self.wave1_ratio,
            };
        }
        if self.current_plan.is_none() {
            self.replan(control);
        }
        match self.current_plan {
            None => {
                // Statistics not ready yet: keep the first-wave policy.
                self.scheduled_run += 1;
                MapDirective::Run {
                    sampling_ratio: self.wave1_ratio,
                }
            }
            Some(p) => {
                if self.scheduled_run < self.allowed_total {
                    self.scheduled_run += 1;
                    return MapDirective::Run {
                        sampling_ratio: if p.feasible { p.sampling_ratio } else { 1.0 },
                    };
                }
                // Plan exhausted. The plan was a *prediction* from noisy
                // first-wave statistics; only drop the tail once the
                // reducers confirm the achieved bound (the paper keeps
                // re-planning wave after wave otherwise).
                if self.target_met(control) {
                    return MapDirective::Drop;
                }
                self.replan(control);
                let ratio = match self.current_plan {
                    Some(p) if p.feasible => p.sampling_ratio,
                    _ => 1.0,
                };
                self.scheduled_run += 1;
                MapDirective::Run {
                    sampling_ratio: ratio,
                }
            }
        }
    }

    fn on_map_complete(&mut self, stats: &MapStats, control: &JobControl) {
        self.completed.push(*stats);
        self.completions_since_plan += 1;
        if self.completions_since_plan >= self.replan_every {
            self.completions_since_plan = 0;
            self.replan(control);
        }
    }

    fn want_drop_remaining(&mut self, control: &JobControl) -> bool {
        self.target_met(control)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::control::BoundReport;

    fn wave(n1: u64, total: u64, su2: f64, within: f64, estimate: f64) -> WaveStatistics {
        WaveStatistics {
            total_clusters: total,
            completed_clusters: n1,
            inter_cluster_var: su2,
            mean_cluster_size: 1000.0,
            mean_within_var: within,
            completed_within_term: 0.0,
            estimate,
        }
    }

    fn timing() -> TimingModel {
        TimingModel {
            t0: 0.5,
            tr: 1e-4,
            tp: 1e-3,
        }
    }

    #[test]
    fn timing_model_fit_recovers_components() {
        let stats: Vec<MapStats> = (0..10)
            .map(|i| MapStats {
                task: TaskId(i),
                dataset: Default::default(),
                total_records: 1000,
                sampled_records: 100,
                emitted: 0,
                shuffled: 0,
                // read = 1000·1e-4 = 0.1; process = 100·2e-3 = 0.2
                read_secs: 0.1,
                duration_secs: 0.1 + 0.2,
            })
            .collect();
        let t = TimingModel::fit(&stats).unwrap();
        assert!((t.tr - 1e-4).abs() < 1e-8);
        assert!((t.tp - 2e-3).abs() < 1e-8);
        assert!((t.t_map(1000.0, 100.0) - 0.3).abs() < 1e-6);
        assert!(TimingModel::fit(&[]).is_none());
    }

    #[test]
    fn plan_prefers_no_extra_tasks_when_bound_met() {
        // Tiny variance: the bound is already met with the completed wave.
        let w = wave(20, 100, 1e-9, 1e-9, 1_000_000.0);
        let p = plan(&w, &timing(), ErrorTarget::Relative(0.01), 0.95, 80);
        assert!(p.feasible);
        assert_eq!(p.additional_tasks, 0);
    }

    #[test]
    fn plan_runs_everything_when_no_approximation_possible() {
        // Huge variance and a very tight target: the only way to meet it
        // is the census — run every remaining task precisely (the
        // paper's "no approximation is possible" outcome).
        let w = wave(10, 100, 1e12, 1e12, 1.0);
        let p = plan(&w, &timing(), ErrorTarget::Relative(0.0001), 0.95, 90);
        assert!(p.feasible, "census always meets the bound");
        assert_eq!(p.additional_tasks, 90);
        assert_eq!(p.sampling_ratio, 1.0);
    }

    #[test]
    fn plan_infeasible_when_zero_estimate() {
        // A relative target around a zero estimate can never be met.
        let w = wave(10, 100, 1e3, 1e2, 0.0);
        let p = plan(&w, &timing(), ErrorTarget::Relative(0.01), 0.95, 90);
        assert!(!p.feasible);
        assert_eq!(p.additional_tasks, 90);
        assert_eq!(p.sampling_ratio, 1.0);
    }

    #[test]
    fn plan_trades_tasks_against_sampling() {
        // Moderate inter-cluster variance dominated by the between term:
        // some additional clusters needed, each samplable.
        let w = wave(8, 200, 5e4, 50.0, 1e5);
        let p = plan(&w, &timing(), ErrorTarget::Relative(0.05), 0.95, 192);
        assert!(p.feasible);
        assert!(p.additional_tasks > 0);
        assert!(p.additional_tasks < 192, "should not need everything");
        assert!(p.sampling_ratio > 0.0 && p.sampling_ratio <= 1.0);
        // The plan must actually satisfy the predicted bound.
        let bound = w.predicted_bound(
            p.additional_tasks,
            p.sampling_ratio * w.mean_cluster_size,
            0.95,
        ) / w.estimate.abs();
        assert!(bound <= 0.05 + 1e-9, "plan violates target: {bound}");
    }

    #[test]
    fn plan_handles_absolute_targets() {
        let w = wave(8, 50, 100.0, 10.0, 500.0);
        let p = plan(&w, &timing(), ErrorTarget::Absolute(200.0), 0.95, 42);
        assert!(p.feasible);
        let bound = w.predicted_bound(
            p.additional_tasks,
            p.sampling_ratio * w.mean_cluster_size,
            0.95,
        );
        assert!(bound <= 200.0 + 1e-6);
    }

    fn meta(records: u64) -> SplitMeta {
        SplitMeta {
            index: 0,
            dataset: Default::default(),
            records,
            bytes: 0,
            locations: vec![],
        }
    }

    fn completion(t: usize) -> MapStats {
        MapStats {
            task: TaskId(t),
            dataset: Default::default(),
            total_records: 1000,
            sampled_records: 1000,
            emitted: 10,
            shuffled: 10,
            duration_secs: 0.5,
            read_secs: 0.1,
        }
    }

    fn report(maps: usize, half_width: f64, relative: f64, wave: WaveStatistics) -> BoundReport {
        BoundReport {
            maps_processed: maps,
            half_width,
            relative_bound: relative,
            wave: Some(wave),
        }
    }

    #[test]
    fn coordinator_first_wave_is_precise() {
        let mut c = TargetErrorCoordinator::new(100, ErrorTarget::Relative(0.01), 0.95, 8, None);
        let control = JobControl::new(1);
        for t in 0..8 {
            match c.directive(TaskId(t), &meta(100), &control) {
                MapDirective::Run { sampling_ratio } => assert_eq!(sampling_ratio, 1.0),
                MapDirective::Drop => panic!("first wave must run"),
            }
        }
    }

    #[test]
    fn coordinator_pilot_wave_uses_pilot_ratio() {
        let mut c = TargetErrorCoordinator::new(
            100,
            ErrorTarget::Relative(0.01),
            0.95,
            8,
            Some(PilotSpec {
                tasks: 3,
                sampling_ratio: 0.05,
            }),
        );
        let control = JobControl::new(1);
        for t in 0..3 {
            match c.directive(TaskId(t), &meta(100), &control) {
                MapDirective::Run { sampling_ratio } => {
                    assert!((sampling_ratio - 0.05).abs() < 1e-12)
                }
                MapDirective::Drop => panic!("pilot must run"),
            }
        }
    }

    #[test]
    fn monitor_is_the_coordinators_reduce_half() {
        let target = ErrorTarget::Absolute(20.0);
        let c = TargetErrorCoordinator::new(1000, target, 0.95, 8, None);
        assert_eq!(
            c.monitor(),
            BoundMonitor {
                check_every: 5,
                freeze_at: Some(target),
                min_maps_before_freeze: 8,
            }
        );
        let pilot = PilotSpec {
            tasks: 3,
            sampling_ratio: 0.05,
        };
        let small = TargetErrorCoordinator::new(40, target, 0.95, 8, Some(pilot));
        assert_eq!(small.monitor().check_every, 1);
        assert_eq!(small.monitor().min_maps_before_freeze, 3);
    }

    #[test]
    fn coordinator_plans_and_drops_after_wave() {
        let mut c = TargetErrorCoordinator::new(50, ErrorTarget::Relative(0.05), 0.95, 4, None);
        let control = JobControl::new(1);
        let meta = meta(1000);
        // First wave: 4 precise tasks.
        for t in 0..4 {
            assert!(matches!(
                c.directive(TaskId(t), &meta, &control),
                MapDirective::Run { .. }
            ));
        }
        // The reducer reports a wave needing a handful more tasks.
        control.report_bound(0, report(4, 5e4, 0.5, wave(4, 50, 1e4, 4.0, 1e5)));
        for t in 0..4 {
            c.on_map_complete(&completion(t), &control);
        }
        // Subsequent directives follow the plan; while the reducers still
        // report a bound above the target, nothing is dropped.
        let mut ran = 0;
        for t in 4..20 {
            match c.directive(TaskId(t), &meta, &control) {
                MapDirective::Run { sampling_ratio } => {
                    ran += 1;
                    assert!(sampling_ratio > 0.0 && sampling_ratio <= 1.0);
                }
                MapDirective::Drop => panic!("must not drop before the bound is met"),
            }
        }
        assert!(c.current_plan().is_some());
        assert!(ran > 0);
        // Once the reducers confirm the bound, the tail is dropped.
        control.report_bound(0, report(20, 1e3, 0.01, wave(20, 50, 1e2, 4.0, 1e5)));
        let mut dropped = 0;
        for t in 20..50 {
            if matches!(c.directive(TaskId(t), &meta, &control), MapDirective::Drop) {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "tail should be dropped once the bound is met");
    }

    /// One stop rule however keys fall across reducers: a reducer whose
    /// worst key is A (half-width 1e5, ±1%) beside one whose only key is
    /// tiny but relatively wide (B: half-width 10, ±50%) is the same job
    /// as A alone — the job's worst key is A — and `directive` and
    /// `want_drop_remaining` give the same answer for it.
    #[test]
    fn stop_rule_is_independent_of_reducer_count() {
        // A's statistics say no further task is needed, so the plan is
        // exhausted right after the wave and `directive` consults the
        // stop rule.
        let a = |relative| report(4, 1e5, relative, wave(4, 50, 1e-9, 1e-9, 1e5 / relative));
        let b = report(4, 10.0, 0.5, wave(4, 50, 4.0, 1.0, 20.0));
        let decide = |target, reports: &[BoundReport]| {
            let mut c = TargetErrorCoordinator::new(50, target, 0.95, 4, None);
            let control = JobControl::new(reports.len());
            for t in 0..4 {
                c.directive(TaskId(t), &meta(1000), &control);
            }
            for (partition, r) in reports.iter().enumerate() {
                control.report_bound(partition, *r);
            }
            for t in 0..4 {
                c.on_map_complete(&completion(t), &control);
            }
            let stop = c.want_drop_remaining(&control);
            let drop = c.directive(TaskId(4), &meta(1000), &control) == MapDirective::Drop;
            (stop, drop)
        };
        let relative = ErrorTarget::Relative(0.02);
        assert_eq!(decide(relative, &[a(0.01)]), (true, true));
        assert_eq!(decide(relative, &[a(0.01), b]), (true, true));
        assert_eq!(decide(relative, &[b, a(0.01)]), (true, true));
        assert_eq!(decide(relative, &[a(0.03), b]), (false, false));
        // An absolute target reads the same key's half-width.
        let absolute = ErrorTarget::Absolute(2e5);
        assert_eq!(decide(absolute, &[a(0.01), b]), (true, true));
        assert_eq!(
            decide(ErrorTarget::Absolute(20.0), &[b, a(0.01)]),
            (false, false)
        );
        // A reducer whose report lags the completed maps blocks both.
        let stale = BoundReport {
            maps_processed: 3,
            ..b
        };
        assert_eq!(decide(relative, &[a(0.01), stale]), (false, false));
    }
}
