//! Job control: the channel between reduce tasks, the JobTracker, and
//! the approximation policy.
//!
//! * [`JobControl`] is the job's one bound board: each reducer posts its
//!   worst key's [`BoundReport`] (interval and, for the target-error
//!   planner, wave statistics) and can request that all remaining maps
//!   be dropped; the tracker polls it and hands it to every
//!   [`Coordinator`] hook.
//! * [`Coordinator`] is the policy hook: it decides, per task and *at
//!   schedule time*, whether to run (and at what sampling ratio) or drop
//!   — this late binding is what lets `approxhadoop-core` implement the
//!   paper's wave-based ratio selection.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use approxhadoop_stats::multistage::WaveStatistics;
use approxhadoop_stats::sampling::choose_indices;

use crate::engine::JobConfig;
use crate::input::SplitMeta;
use crate::metrics::MapStats;
use crate::types::TaskId;
use crate::RuntimeError;

/// A reduce task's latest error-bound report: the interval of its worst
/// key (the one with the largest half-width).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// Map outputs the reducer had processed when reporting.
    pub maps_processed: usize,
    /// The worst key's half-width, in output units; `f64::INFINITY`
    /// while it is still unbounded.
    pub half_width: f64,
    /// The worst key's relative bound, `half_width / |estimate|`.
    pub relative_bound: f64,
    /// The worst key's statistics for the target-error planner (paper
    /// Eq. 4–7); `None` from reducers that do not feed it.
    pub wave: Option<WaveStatistics>,
}

/// Shared job-control state (one per running job).
#[derive(Debug)]
pub struct JobControl {
    drop_remaining: AtomicBool,
    bounds: Mutex<Vec<Option<BoundReport>>>,
}

impl JobControl {
    /// Creates control state for a job with `reduce_tasks` reducers.
    pub fn new(reduce_tasks: usize) -> Self {
        JobControl {
            drop_remaining: AtomicBool::new(false),
            bounds: Mutex::new(vec![None; reduce_tasks]),
        }
    }

    /// Requests that the JobTracker drop all remaining maps (kill running
    /// ones, discard pending ones). Idempotent.
    pub fn request_drop_remaining(&self) {
        self.drop_remaining.store(true, Ordering::SeqCst);
    }

    /// Whether a drop of remaining maps has been requested.
    pub fn drop_requested(&self) -> bool {
        self.drop_remaining.load(Ordering::SeqCst)
    }

    /// Posts reducer `partition`'s latest error report.
    pub fn report_bound(&self, partition: usize, report: BoundReport) {
        let mut bounds = self.bounds.lock();
        if partition < bounds.len() {
            bounds[partition] = Some(report);
        }
    }

    /// Snapshot of every reducer's latest report (`None` = no report yet).
    pub fn bound_reports(&self) -> Vec<Option<BoundReport>> {
        self.bounds.lock().clone()
    }

    /// Folds every reducer's latest report into `init`, provided
    /// **every** reducer has reported after processing at least
    /// `min_maps` maps; `None` otherwise. A job with zero reducers has no
    /// bound (`None`) rather than a vacuous perfect one.
    fn fold_reports<T>(
        &self,
        min_maps: usize,
        init: T,
        f: impl Fn(T, &BoundReport) -> T,
    ) -> Option<T> {
        let bounds = self.bounds.lock();
        if bounds.is_empty() {
            return None;
        }
        bounds.iter().try_fold(init, |acc, b| {
            b.as_ref()
                .filter(|r| r.maps_processed >= min_maps)
                .map(|r| f(acc, r))
        })
    }

    /// The report with the largest half-width across all reducers — the
    /// job's worst key — provided **every** reducer has reported after
    /// processing at least `min_maps` maps; `None` otherwise (and for a
    /// job with zero reducers).
    pub fn worst_report(&self, min_maps: usize) -> Option<BoundReport> {
        self.fold_reports(
            min_maps,
            None,
            |worst: Option<BoundReport>, r| match worst {
                Some(w) if r.half_width > w.half_width => Some(*r),
                Some(w) => Some(w),
                None => Some(*r),
            },
        )?
    }

    /// The worst relative bound across all reducers, under the same rule
    /// as [`JobControl::worst_report`].
    pub fn worst_bound_across_reducers(&self, min_maps: usize) -> Option<f64> {
        self.fold_reports(min_maps, 0.0, |worst: f64, r| worst.max(r.relative_bound))
    }
}

/// Scheduling decision for one map task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MapDirective {
    /// Execute the task, sampling its block at `sampling_ratio`
    /// (`1.0` = precise).
    Run {
        /// Within-block input data sampling ratio in `(0, 1]`.
        sampling_ratio: f64,
    },
    /// Drop the task without executing it.
    Drop,
}

/// The approximation policy driving a job.
///
/// The tracker calls [`Coordinator::directive`] immediately before
/// launching each task (tasks are dispatched one slot at a time, so later
/// calls observe earlier completions — waves), and
/// [`Coordinator::on_map_complete`] for every completed attempt. Every
/// hook sees the job's [`JobControl`], the reducers' bound board.
pub trait Coordinator: Send {
    /// Decides the fate of `task` at schedule time.
    fn directive(&mut self, task: TaskId, meta: &SplitMeta, control: &JobControl) -> MapDirective;

    /// Observes a completed map attempt (timing + sampling counts).
    fn on_map_complete(&mut self, stats: &MapStats, control: &JobControl) {
        let _ = (stats, control);
    }

    /// Polled by the tracker after processing events: should all
    /// remaining maps be dropped now? (In addition to reducers setting
    /// [`JobControl::request_drop_remaining`] directly.)
    fn want_drop_remaining(&mut self, control: &JobControl) -> bool {
        let _ = control;
        false
    }
}

/// Per-dataset approximation ratios of a multi-input job: dataset `d`
/// runs with `datasets[d]`'s sampling/drop ratios, independent of every
/// other dataset. A join can sample its fact table aggressively while
/// reading its dimension table precisely (`sampling_ratio: 1.0,
/// drop_ratio: 0.0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetRatios {
    /// Within-block input sampling ratio in `(0, 1]`.
    pub sampling_ratio: f64,
    /// Fraction of this dataset's map tasks dropped, in `[0, 1)`.
    pub drop_ratio: f64,
}

impl DatasetRatios {
    /// Precise execution: no sampling, no drops.
    pub fn precise() -> Self {
        DatasetRatios {
            sampling_ratio: 1.0,
            drop_ratio: 0.0,
        }
    }

    /// Checks the ratio ranges.
    pub fn validate(&self) -> crate::Result<()> {
        if !(self.sampling_ratio > 0.0 && self.sampling_ratio <= 1.0) {
            return Err(RuntimeError::invalid(format!(
                "dataset sampling_ratio must lie in (0, 1], got {}",
                self.sampling_ratio
            )));
        }
        if !(0.0..1.0).contains(&self.drop_ratio) {
            return Err(RuntimeError::invalid(format!(
                "dataset drop_ratio must lie in [0, 1), got {}",
                self.drop_ratio
            )));
        }
        Ok(())
    }
}

/// The fixed policy — the paper's "user-specified dropping/sampling
/// ratios" mode: every task runs at a sampling ratio decided up front,
/// except an exact fraction of randomly pre-selected tasks, which drop.
///
/// A multi-input job carries one ratio pair per dataset, and the
/// exact-count drop selection happens **within each dataset's own task
/// set**. Dropping `floor(drop_ratio_d · N_d)` clusters of dataset `d` —
/// never of a co-scheduled dataset — is what keeps the per-dataset
/// `N_d (N_d - n_d)` variance terms (Eq. 1–3) and degrade-to-drop
/// accounting honest when a job reads several inputs.
#[derive(Debug, Clone)]
pub struct FixedCoordinator {
    /// Per-task sampling ratio (indexed by global task id).
    sampling_ratios: Vec<f64>,
    /// Per-task drop flag (indexed by global task id).
    dropped: Vec<bool>,
}

impl FixedCoordinator {
    /// Creates a single-input policy for `total_tasks` tasks that drops
    /// `floor(drop_ratio · total)` random tasks and samples the rest at
    /// `sampling_ratio`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < sampling_ratio <= 1` and `0 <= drop_ratio < 1`.
    pub fn new(total_tasks: usize, sampling_ratio: f64, drop_ratio: f64, seed: u64) -> Self {
        let ratios = DatasetRatios {
            sampling_ratio,
            drop_ratio,
        };
        Self::single_input(total_tasks, ratios, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the policy a job's configuration asks for, over the job's
    /// split table. With `config.datasets` empty the job is single-input:
    /// the job-wide `sampling_ratio`/`drop_ratio` pair governs every
    /// split, exactly as [`FixedCoordinator::new`] would. Otherwise
    /// `config.datasets[d]` governs every split tagged
    /// [`DatasetId`](crate::input::DatasetId)`(d)`, each dataset drawing
    /// its drops from its own seed stream.
    ///
    /// Rejects (rather than panics on) out-of-range ratios and splits
    /// referring to datasets missing from the table, so a malformed spec
    /// fails the job cleanly.
    pub fn for_job(splits: &[SplitMeta], config: &JobConfig) -> crate::Result<Self> {
        if config.datasets.is_empty() {
            let ratios = DatasetRatios {
                sampling_ratio: config.sampling_ratio,
                drop_ratio: config.drop_ratio,
            };
            return Self::single_input(splits.len(), ratios, config.seed);
        }
        let mut policy = Self::precise(splits.len());
        let mut per_dataset: Vec<Vec<usize>> = vec![Vec::new(); config.datasets.len()];
        for s in splits {
            let Some(tasks) = per_dataset.get_mut(s.dataset.0 as usize) else {
                return Err(RuntimeError::invalid(format!(
                    "split {} is tagged {}, but the job declares only {} dataset(s)",
                    s.index,
                    s.dataset,
                    config.datasets.len()
                )));
            };
            tasks.push(s.index);
        }
        for (d, tasks) in per_dataset.iter().enumerate() {
            // The single-input seed family, further mixed with the dataset
            // id so each dataset's selection is its own deterministic
            // stream.
            let stream = (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            policy.assign(tasks, config.datasets[d], config.seed ^ stream)?;
        }
        Ok(policy)
    }

    /// One implicit dataset spanning every task.
    fn single_input(total_tasks: usize, ratios: DatasetRatios, seed: u64) -> crate::Result<Self> {
        let mut policy = Self::precise(total_tasks);
        let all: Vec<usize> = (0..total_tasks).collect();
        policy.assign(&all, ratios, seed)?;
        Ok(policy)
    }

    fn precise(total_tasks: usize) -> Self {
        FixedCoordinator {
            sampling_ratios: vec![1.0; total_tasks],
            dropped: vec![false; total_tasks],
        }
    }

    /// Applies `ratios` to `tasks`: all of them sample at the given
    /// ratio and an exact `floor(drop_ratio · tasks.len())` of them,
    /// drawn from `seed`'s stream, drop.
    fn assign(&mut self, tasks: &[usize], ratios: DatasetRatios, seed: u64) -> crate::Result<()> {
        ratios.validate()?;
        for &t in tasks {
            self.sampling_ratios[t] = ratios.sampling_ratio;
        }
        let k = (ratios.drop_ratio * tasks.len() as f64).floor() as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD20F_F00D);
        for i in choose_indices(&mut rng, tasks.len(), k) {
            self.dropped[tasks[i]] = true;
        }
        Ok(())
    }

    /// The number of tasks this policy will drop, across all datasets.
    pub fn planned_drops(&self) -> usize {
        self.dropped.iter().filter(|&&d| d).count()
    }
}

impl Coordinator for FixedCoordinator {
    fn directive(
        &mut self,
        task: TaskId,
        _meta: &SplitMeta,
        _control: &JobControl,
    ) -> MapDirective {
        if self.dropped.get(task.0).copied().unwrap_or(false) {
            MapDirective::Drop
        } else {
            MapDirective::Run {
                sampling_ratio: self.sampling_ratios.get(task.0).copied().unwrap_or(1.0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DatasetId;

    #[test]
    fn job_control_drop_flag() {
        let c = JobControl::new(2);
        assert!(!c.drop_requested());
        c.request_drop_remaining();
        assert!(c.drop_requested());
        c.request_drop_remaining(); // idempotent
        assert!(c.drop_requested());
    }

    /// A report without planner statistics.
    fn report(maps_processed: usize, half_width: f64, relative_bound: f64) -> BoundReport {
        BoundReport {
            maps_processed,
            half_width,
            relative_bound,
            wave: None,
        }
    }

    #[test]
    fn worst_bound_requires_all_reducers() {
        let c = JobControl::new(2);
        assert_eq!(c.worst_bound_across_reducers(1), None);
        c.report_bound(0, report(5, 2.0, 0.02));
        assert_eq!(c.worst_bound_across_reducers(1), None);
        assert_eq!(c.worst_report(1), None);
        c.report_bound(1, report(4, 1.0, 0.05));
        assert_eq!(c.worst_bound_across_reducers(1), Some(0.05));
        // min_maps gate.
        assert_eq!(c.worst_bound_across_reducers(5), None);
        assert_eq!(c.worst_report(5), None);
    }

    #[test]
    fn worst_bound_with_zero_reducers_is_none() {
        // A vacuous `Some(0.0)` here would tell the target-error planner
        // the job is already perfectly bounded and stop it instantly.
        let c = JobControl::new(0);
        assert_eq!(c.worst_bound_across_reducers(0), None);
        assert_eq!(c.worst_bound_across_reducers(3), None);
        assert_eq!(c.worst_report(0), None);
    }

    #[test]
    fn worst_bound_min_maps_zero_accepts_fresh_reports() {
        let c = JobControl::new(1);
        c.report_bound(0, report(0, f64::INFINITY, f64::INFINITY));
        // min_maps = 0: a report from a reducer that has seen nothing
        // still counts, and its (infinite) bound dominates.
        assert_eq!(c.worst_bound_across_reducers(0), Some(f64::INFINITY));
        // But requiring at least one processed map gates it out again.
        assert_eq!(c.worst_bound_across_reducers(1), None);
    }

    #[test]
    fn worst_bound_takes_max_not_last() {
        let c = JobControl::new(3);
        for (p, b) in [(0, 0.01), (1, 0.20), (2, 0.05)] {
            c.report_bound(p, report(10, 1.0, b));
        }
        assert_eq!(c.worst_bound_across_reducers(1), Some(0.20));
    }

    /// The worst key is the one with the largest half-width, whatever
    /// its relative bound; ties keep the lowest partition.
    #[test]
    fn worst_report_is_the_largest_half_width() {
        let c = JobControl::new(3);
        c.report_bound(0, report(7, 10.0, 0.5));
        c.report_bound(1, report(7, 1e5, 0.01));
        c.report_bound(2, report(7, 1e5, 0.02));
        assert_eq!(c.worst_report(7), Some(report(7, 1e5, 0.01)));
        assert_eq!(c.worst_bound_across_reducers(7), Some(0.5));
    }

    #[test]
    fn report_to_out_of_range_partition_is_ignored() {
        let c = JobControl::new(1);
        c.report_bound(5, report(1, 1.0, 0.1));
        assert_eq!(c.bound_reports(), vec![None]);
    }

    #[test]
    fn fixed_coordinator_drops_exact_fraction() {
        let mut c = FixedCoordinator::new(100, 0.5, 0.25, 42);
        assert_eq!(c.planned_drops(), 25);
        let meta = SplitMeta {
            index: 0,
            dataset: DatasetId::default(),
            records: 1,
            bytes: 0,
            locations: vec![],
        };
        let mut drops = 0;
        for t in 0..100 {
            match c.directive(TaskId(t), &meta, &JobControl::new(0)) {
                MapDirective::Drop => drops += 1,
                MapDirective::Run { sampling_ratio } => {
                    assert!((sampling_ratio - 0.5).abs() < 1e-12)
                }
            }
        }
        assert_eq!(drops, 25);
    }

    #[test]
    fn fixed_coordinator_zero_drop() {
        let c = FixedCoordinator::new(10, 1.0, 0.0, 1);
        assert_eq!(c.planned_drops(), 0);
    }

    #[test]
    #[should_panic]
    fn fixed_coordinator_rejects_full_drop() {
        FixedCoordinator::new(10, 1.0, 1.0, 1);
    }

    /// The job configuration of a multi-input job with these ratios.
    fn tagged_config(ratios: &[DatasetRatios], seed: u64) -> JobConfig {
        JobConfig {
            datasets: ratios.to_vec(),
            seed,
            ..Default::default()
        }
    }

    fn tagged_splits(counts: &[usize]) -> Vec<SplitMeta> {
        let mut splits = Vec::new();
        for (d, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                splits.push(SplitMeta {
                    index: splits.len(),
                    dataset: DatasetId(d as u32),
                    records: 10,
                    bytes: 0,
                    locations: vec![],
                });
            }
        }
        splits
    }

    #[test]
    fn dataset_coordinator_drops_within_each_dataset() {
        let splits = tagged_splits(&[40, 10]);
        let ratios = [
            DatasetRatios {
                sampling_ratio: 0.25,
                drop_ratio: 0.5,
            },
            DatasetRatios::precise(),
        ];
        let mut c = FixedCoordinator::for_job(&splits, &tagged_config(&ratios, 7)).unwrap();
        assert_eq!(c.planned_drops(), 20, "half of dataset 0 only");
        let mut drops_by_dataset = [0usize; 2];
        for s in &splits {
            match c.directive(TaskId(s.index), s, &JobControl::new(0)) {
                MapDirective::Drop => drops_by_dataset[s.dataset.0 as usize] += 1,
                MapDirective::Run { sampling_ratio } => {
                    let expect = ratios[s.dataset.0 as usize].sampling_ratio;
                    assert!(
                        (sampling_ratio - expect).abs() < 1e-12,
                        "task {} ({}) ran at {sampling_ratio}, expected {expect}",
                        s.index,
                        s.dataset
                    );
                }
            }
        }
        assert_eq!(drops_by_dataset, [20, 0], "the precise dataset never drops");
    }

    #[test]
    fn dataset_coordinator_is_deterministic_per_seed() {
        let splits = tagged_splits(&[30, 30]);
        let ratios = [
            DatasetRatios {
                sampling_ratio: 0.5,
                drop_ratio: 0.2,
            },
            DatasetRatios {
                sampling_ratio: 0.5,
                drop_ratio: 0.2,
            },
        ];
        let pick = |seed| {
            let mut c = FixedCoordinator::for_job(&splits, &tagged_config(&ratios, seed)).unwrap();
            splits
                .iter()
                .map(|s| {
                    matches!(
                        c.directive(TaskId(s.index), s, &JobControl::new(0)),
                        MapDirective::Drop
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(3), pick(3));
        assert_ne!(pick(3), pick(4), "different seed, different drop set");
        // Same ratios, but each dataset draws from its own stream: the
        // drop pattern of dataset 0 differs from dataset 1's.
        let drops = pick(3);
        assert_ne!(drops[..30], drops[30..]);
    }

    #[test]
    fn dataset_coordinator_rejects_malformed_tables() {
        let splits = tagged_splits(&[4, 4]);
        // Split tagged beyond the declared dataset table.
        assert!(matches!(
            FixedCoordinator::for_job(&splits, &tagged_config(&[DatasetRatios::precise()], 0)),
            Err(RuntimeError::InvalidJob { .. })
        ));
        // Out-of-range ratios.
        for bad in [
            DatasetRatios {
                sampling_ratio: 0.0,
                drop_ratio: 0.0,
            },
            DatasetRatios {
                sampling_ratio: 1.0,
                drop_ratio: 1.0,
            },
        ] {
            assert!(FixedCoordinator::for_job(&splits, &tagged_config(&[bad, bad], 0)).is_err());
        }
    }

    /// Indices `policy` drops over `splits`.
    fn dropped_tasks(mut policy: FixedCoordinator, splits: &[SplitMeta]) -> Vec<usize> {
        splits
            .iter()
            .filter(|s| {
                matches!(
                    policy.directive(TaskId(s.index), s, &JobControl::new(0)),
                    MapDirective::Drop
                )
            })
            .map(|s| s.index)
            .collect()
    }

    /// Drop sets at drop ratio 0.25 captured from the two coordinator
    /// types this one replaced (a single-input one and a per-dataset
    /// one): a job's seed must keep selecting the same clusters, or
    /// every recorded result shifts.
    #[test]
    fn drop_sets_match_the_pre_unification_goldens() {
        #[rustfmt::skip]
        let golden: [(u64, [&[usize]; 3]); 3] = [
            (0, [
                &[6, 9, 10, 17, 19],
                &[6, 10, 13, 16, 17, 18, 26, 30, 31, 33, 34, 44, 47, 52, 53, 61, 67, 72, 74, 78, 82],
                &[6, 14, 16, 25, 29, 30, 32, 33, 38, 40, 45, 49, 56, 57, 63, 65, 66, 69, 72, 77, 82, 84],
            ]),
            (7, [
                &[0, 4, 7, 9, 16],
                &[4, 8, 12, 13, 17, 22, 24, 30, 36, 45, 47, 49, 51, 55, 57, 59, 61, 66, 71, 72, 75],
                &[3, 6, 15, 21, 22, 23, 27, 31, 32, 40, 44, 54, 55, 57, 58, 60, 62, 66, 76, 79, 81, 85],
            ]),
            (42, [
                &[1, 3, 7, 8, 11],
                &[1, 8, 9, 11, 14, 17, 18, 20, 23, 32, 42, 43, 59, 61, 68, 69, 71, 79, 80, 82, 83],
                &[0, 10, 21, 24, 25, 27, 29, 35, 39, 45, 48, 50, 55, 58, 61, 63, 65, 66, 72, 74, 82, 87],
            ]),
        ];
        let ratios = DatasetRatios {
            sampling_ratio: 0.5,
            drop_ratio: 0.25,
        };
        for (seed, [single_20, single_84, two_datasets]) in golden {
            for (tasks, expect) in [(20, single_20), (84, single_84)] {
                let splits = tagged_splits(&[tasks]);
                let config = JobConfig {
                    sampling_ratio: ratios.sampling_ratio,
                    drop_ratio: ratios.drop_ratio,
                    seed,
                    ..Default::default()
                };
                let via_config = FixedCoordinator::for_job(&splits, &config).unwrap();
                assert_eq!(dropped_tasks(via_config, &splits), expect, "seed {seed}");
                let direct = FixedCoordinator::new(tasks, 0.5, 0.25, seed);
                assert_eq!(dropped_tasks(direct, &splits), expect, "seed {seed}");
            }
            let splits = tagged_splits(&[84, 4]);
            let tagged =
                FixedCoordinator::for_job(&splits, &tagged_config(&[ratios; 2], seed)).unwrap();
            assert_eq!(dropped_tasks(tagged, &splits), two_datasets, "seed {seed}");
        }
    }
}
