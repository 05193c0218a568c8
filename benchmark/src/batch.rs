//! The six batch workloads: one job at a time, back to back, each from
//! input to complete result (estimator finalisation included).
//!
//! | workload          | what does the work                                   |
//! |-------------------|------------------------------------------------------|
//! | `wc_raw`          | every emission hashed, shipped and absorbed          |
//! | `wc_combined`     | the combine table's hit path; the shuffle ships ~nothing |
//! | `wikilog_precise` | generation, a large per-task key map, 10⁵ finalisations |
//! | `wikilog_approx`  | read + sample; a tenth of the map work; real t-quantile bounds |
//! | `wikilog_process` | `wikilog_precise` through spool, `mmap`, `Wire` and pipes |
//! | `wikilog_spill`   | the same with a shuffle budget small enough to spill |
//!
//! Sizes are constants — the same on every commit — calibrated once so
//! that a job takes 0.1–0.5 s here and a run holds dozens of jobs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use approxhadoop::core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
use approxhadoop::dfs::{DfsCluster, DfsConfig};
use approxhadoop::obs::{Obs, RegistrySnapshot};
use approxhadoop::runtime::combine::{Combined, SumCombiner};
use approxhadoop::runtime::control::FixedCoordinator;
use approxhadoop::runtime::engine::{run_job, run_job_process, JobConfig, JobResult, WorkerSpec};
use approxhadoop::runtime::input::InputSource;
use approxhadoop::runtime::mapper::FnMapper;
use approxhadoop::runtime::metrics::JobMetrics;
use approxhadoop::runtime::reducer::GroupedReducer;
use approxhadoop::runtime::text::TextSource;
use approxhadoop::runtime::{JobId, JobSession};
use approxhadoop::stats::Interval;
use approxhadoop::workloads::wikilog::{LogEntry, WikiLog};

use crate::check::{self, ApproxQuality};
use crate::layers::{self, MapSideCosts, RecordPathPlan};
use crate::report::{Metrics, Outcome};
use crate::spans::SpanLog;
use crate::stats::{self, Summary};
use crate::{env, gen, jobs, MAP_SLOTS, REDUCE_TASKS, WORKERS};

/// Blocks of the word-count corpus (one map task each).
pub const WC_BLOCKS: usize = 16;
/// Lines per block; ~8.5 words a line, so a job emits ~1.4 M pairs.
pub const WC_LINES_PER_BLOCK: usize = 10_000;
/// Entries per block of the page log.
pub const WIKI_ENTRIES_PER_BLOCK: u64 = 8_000;
/// Days of log the precise and process workloads aggregate (84 blocks).
pub const PRECISE_DAYS: u64 = 7;
/// Days of log the approximate workload aggregates (420 blocks): five
/// times the data, for about the wall time of the precise job.
pub const APPROX_DAYS: u64 = 35;
/// Within-block sampling ratio of the approximate workload.
pub const APPROX_SAMPLING: f64 = 0.10;
/// Share of map tasks the approximate workload drops.
pub const APPROX_DROP: f64 = 0.25;
/// Shuffle budget of `wikilog_process`: nothing may spill.
pub const PROCESS_SHUFFLE_MEM: usize = 64 << 20;
/// Shuffle budget of `wikilog_spill`: a quarter of one map's output, so
/// every attempt spills several sorted runs and merges them back.
pub const SPILL_SHUFFLE_MEM: usize = 32 << 10;
/// Spill runs a `wikilog_spill` job must record for the workload to
/// count as exercising the spill path at all.
pub const MIN_SPILL_RUNS: u64 = 16;
/// Times a batch workload's set-up is repeated in an untraced run;
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Splits the traced run's layer drives cover at most.
pub const LAYER_DRIVE_SPLITS: usize = 512;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of every generated input and schedule.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Where the traced run writes `TRACE_<workload>.json`.
    pub out_dir: PathBuf,
    /// The run's scratch directory (spool, spill runs).
    pub scratch: PathBuf,
}

/// One batch workload: a prepared input plus the job that runs over it.
pub trait BatchWorkload: Sized {
    /// Reducer output record.
    type Output;

    /// Population records of the input (sampled or not).
    fn population(&self) -> u64;

    /// The frozen sizes, for results files.
    fn sizes(&self) -> String;

    /// Runs one job; `obs` is `None` for every end-to-end measurement.
    fn run(&self, job: u64, obs: Option<Arc<Obs>>) -> Result<JobResult<Self::Output>, String>;

    /// Checks one job's result against the reference. Approximate
    /// workloads also return the bound and its honesty.
    fn check(&self, result: &JobResult<Self::Output>) -> Result<Option<ApproxQuality>, String>;

    /// Checks what a job published into its `Obs` registry — counters
    /// that exist only there (spill runs).
    fn check_obs(&self, _snapshot: &RegistrySnapshot) -> Result<(), String> {
        Ok(())
    }

    /// Map slots (or workers) the job's tasks run on.
    fn slots(&self) -> usize {
        MAP_SLOTS
    }

    /// Drives every layer on this workload's path, alone.
    fn drive_layers(
        &self,
        log: &mut SpanLog,
        metrics: &mut Metrics,
        args: &RunArgs,
    ) -> Result<MapSideCosts, String>;
}

/// Runs one untimed job and checks it: lets caches fill and lazy set-up
/// finish before timing, and proves the workload is on its path (with an
/// `Obs`, so the spill counters can be checked too).
fn warm_up<W: BatchWorkload>(w: &W) -> Result<(), String> {
    let obs = Obs::shared();
    let result = w.run(0, Some(Arc::clone(&obs)))?;
    w.check(&result)?;
    w.check_obs(&obs.registry.snapshot())
}

/// Sets up `reps` times; returns the last set-up and how long each took. The previous copy is released first, so peak memory is
/// that of one prepared workload, not two.
pub fn repeat_setup<T>(
    reps: usize,
    prepare: impl Fn() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((prepared.ok_or("set-up must run at least once")?, secs))
}

/// Runs a batch workload: the untraced run measures the end-to-end
/// metrics; the traced run measures the layers.
pub fn run_batch<W: BatchWorkload>(
    name: &str,
    args: &RunArgs,
    prepare: impl Fn() -> Result<W, String>,
) -> Outcome {
    let mut outcome = Outcome::default();
    let result = if args.trace {
        traced(name, args, &prepare, &mut outcome)
    } else {
        untraced(args, &prepare, &mut outcome)
    };
    if let Err(e) = result {
        outcome.errors.push(e);
    }
    outcome
}

fn untraced<W: BatchWorkload>(
    args: &RunArgs,
    prepare: &impl Fn() -> Result<W, String>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    // ---- set-up, several times: generate, reference, spool, warm ----
    let (w, setups) = repeat_setup(SETUP_REPS, || {
        let w = prepare()?;
        warm_up(&w)?;
        Ok(w)
    })?;

    // ---- timed jobs, back to back, until the time is up ----
    let mut walls = Vec::new();
    let mut quality = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        let job = 1 + outcome.attempted;
        outcome.attempted += 1;
        let t = Instant::now();
        let result = w.run(job_seed(args.seed, job), None);
        let wall = t.elapsed().as_secs_f64();
        match result {
            Ok(result) => {
                walls.push(wall);
                match w.check(&result) {
                    Ok(q) => quality.extend(q),
                    Err(e) => outcome.errors.push(format!("job {job}: {e}")),
                }
            }
            Err(e) => {
                outcome.failed += 1;
                outcome.errors.push(format!("job {job} failed: {e}"));
            }
        }
    }
    let wall = Summary::of(&walls).ok_or("no job completed")?;
    let setup = Summary::of(&setups).expect("SETUP_REPS is positive");
    let sorted = stats::sorted(&walls);
    let busy: f64 = walls.iter().sum();
    let m = &mut outcome.metrics;
    m.insert("setup_s", setup.p50);
    m.insert("job_wall_s", wall.p50);
    m.insert(
        "job_wall_p90_s",
        stats::percentile(&sorted, 0.9).expect("walls is non-empty"),
    );
    m.insert(
        "input_records_per_s",
        w.population() as f64 * walls.len() as f64 / busy,
    );
    m.insert("peak_rss_mb", env::peak_rss_mib().unwrap_or(0.0));
    outcome.notes.push(format!("sizes: {}", w.sizes()));
    outcome.notes.push(format!(
        "job_wall_s: n={} p25={:.4} p50={:.4} p75={:.4}; setup_s: {:?}",
        wall.n, wall.p25, wall.p50, wall.p75, setups
    ));
    if let Some(q) = summarise_quality(&quality, outcome) {
        outcome.notes.push(format!(
            "worst_bound_pct={:.3} bound_violation_share={:.4} (medians over {} jobs)",
            q.worst_bound_pct,
            q.violation_share,
            quality.len()
        ));
    }
    Ok(())
}

/// Engine seed of the `job`-th job of a run: every job orders, drops
/// and samples differently, so a median over jobs is a median over
/// samples, not the same sample measured repeatedly.
pub fn job_seed(seed: u64, job: u64) -> u64 {
    seed.wrapping_mul(0x1_0000).wrapping_add(job)
}

/// Median bound and median violation share over the run's jobs; fails
/// the run when the intervals miss the truth too often.
fn summarise_quality(quality: &[ApproxQuality], outcome: &mut Outcome) -> Option<ApproxQuality> {
    let bounds: Vec<f64> = quality.iter().map(|q| q.worst_bound_pct).collect();
    let shares: Vec<f64> = quality.iter().map(|q| q.violation_share).collect();
    let q = ApproxQuality {
        worst_bound_pct: stats::median(&bounds)?,
        violation_share: stats::median(&shares)?,
    };
    if let Err(e) = check::check_violation_share(q.violation_share) {
        outcome.errors.push(e);
    }
    Some(q)
}

fn traced<W: BatchWorkload>(
    name: &str,
    args: &RunArgs,
    prepare: &impl Fn() -> Result<W, String>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let run_started = Instant::now();
    let mut log = SpanLog::new();
    let (w, _) = log.scope("setup", 0, |log| -> Result<W, String> {
        let (w, _) = log.scope("setup.prepare", 0, |_| prepare());
        let w = w?;
        log.scope("setup.warm_up", 0, |_| warm_up(&w)).0?;
        Ok(w)
    });
    let w = w?;

    // ---- jobs, alternately without and with the engine's own Obs ----
    let (mut plain, mut with_obs, mut quality) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(JobMetrics, RegistrySnapshot)> = None;
    let started = Instant::now();
    while last.is_none() || started.elapsed().as_secs_f64() < args.seconds * 0.6 {
        for obs in [None, Some(Obs::shared())] {
            let job = 1 + outcome.attempted;
            outcome.attempted += 1;
            let span = if obs.is_some() {
                "job.obs_on"
            } else {
                "job.obs_off"
            };
            let (result, secs) = log.scope(span, job, |log| {
                log.scope("engine.run_job", job, |_| {
                    w.run(job_seed(args.seed, job), obs.clone())
                })
                .0
            });
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    outcome.failed += 1;
                    outcome.errors.push(format!("job {job} failed: {e}"));
                    continue;
                }
            };
            match log.scope("check", job, |_| w.check(&result)).0 {
                Ok(q) => quality.extend(q),
                Err(e) => outcome.errors.push(format!("job {job}: {e}")),
            }
            match obs {
                None => plain.push(secs),
                Some(obs) => {
                    with_obs.push(secs);
                    let snapshot = obs.registry.snapshot();
                    if let Err(e) = w.check_obs(&snapshot) {
                        outcome.errors.push(format!("job {job}: {e}"));
                    }
                    last = Some((result.metrics, snapshot));
                }
            }
        }
        if outcome.failed > 0 {
            return Err("a traced job failed; no layer figures".into());
        }
    }
    let (jm, snapshot) = last.expect("the loop runs until a traced job completed");

    let mut m = Metrics::new();
    // ---- published by the program: JobMetrics and the Obs registry ----
    engine_metrics(&mut m, &jm, w.slots());
    for (metric, counter) in [
        ("process.frames_tx", "approx_process_frames_tx_total"),
        ("process.bytes_tx", "approx_process_bytes_tx_total"),
        ("process.bytes_rx", "approx_process_bytes_rx_total"),
        ("process.spill_runs", "approx_process_spill_runs_total"),
        ("process.spill_bytes", "approx_process_spill_bytes_total"),
        (
            "process.worker_restarts",
            "approx_process_worker_restarts_total",
        ),
    ] {
        m.insert(metric, snapshot.counter_total(counter) as f64);
    }

    // ---- measured here: each layer alone ----
    let (costs, _) = log.scope("layers", 0, |log| w.drive_layers(log, &mut m, args));
    let costs = costs?;
    m.insert(
        "engine.unattributed_share",
        layers::unattributed_share(&costs, &jm),
    );
    m.insert(
        "engine.job_floor_us",
        layers::engine_job_floor_us(&mut log)?,
    );
    // The job's own ratio, not the drive's: the drive may cover fewer splits.
    m.insert(
        "combine.out_in_ratio",
        jm.shuffled_pairs as f64 / jm.emitted_pairs.max(1) as f64,
    );

    // ---- the traced run itself ----
    let (off, on) = (
        stats::median(&plain).unwrap_or(f64::NAN),
        stats::median(&with_obs).unwrap_or(f64::NAN),
    );
    m.insert("trace.job_wall_s", on);
    m.insert("trace.overhead_share", on / off - 1.0);
    m.insert("trace.jobs", outcome.attempted as f64);
    if let Some(q) = summarise_quality(&quality, outcome) {
        m.insert("quality.worst_bound_pct", q.worst_bound_pct);
        m.insert("quality.bound_violation_share", q.violation_share);
    }
    m.insert(
        "quality.failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    m.insert("trace.spans", log.spans().len() as f64);
    crate::sets::write_trace(
        name,
        args,
        &w.sizes(),
        &job_counts(&jm),
        &m,
        &log,
        run_started.elapsed().as_secs_f64(),
    )?;
    outcome.notes.push(format!("sizes: {}", w.sizes()));
    outcome.metrics = m;
    Ok(())
}

/// Figures the engine publishes about one job, copied out of
/// [`JobMetrics`] — no new probes.
pub fn engine_metrics(m: &mut Metrics, jm: &JobMetrics, slots: usize) {
    let durations: Vec<f64> = jm.map_stats.iter().map(|s| s.duration_secs).collect();
    let task_secs: f64 = durations.iter().sum();
    let read_secs: f64 = jm.map_stats.iter().map(|s| s.read_secs).sum();
    let attempts = jm.executed_maps + jm.killed_maps + jm.failed_maps + jm.speculative_attempts;
    m.insert(
        "engine.map_task_s_p50",
        stats::median(&durations).unwrap_or(0.0),
    );
    m.insert(
        "engine.map_read_share",
        read_secs / task_secs.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "engine.slot_busy_share",
        task_secs / (slots as f64 * jm.wall_secs).max(f64::MIN_POSITIVE),
    );
    m.insert(
        "engine.useful_attempt_share",
        jm.executed_maps as f64 / attempts.max(1) as f64,
    );
    m.insert(
        "engine.maps_dropped",
        (jm.dropped_maps + jm.killed_maps + jm.degraded_to_drop) as f64,
    );
    m.insert("engine.task_retries", jm.retried_maps as f64);
    m.insert("shuffle.shipped_pairs", jm.shuffled_pairs as f64);
}

/// The process backend's exact counts, out of an `Obs` registry that
/// accumulated over `jobs` jobs.
pub fn process_counters(m: &mut Metrics, snapshot: &RegistrySnapshot, jobs: f64) {
    for (metric, counter) in [
        ("process.frames_tx", "approx_process_frames_tx_total"),
        ("process.bytes_tx", "approx_process_bytes_tx_total"),
        ("process.bytes_rx", "approx_process_bytes_rx_total"),
        ("process.spill_runs", "approx_process_spill_runs_total"),
        ("process.spill_bytes", "approx_process_spill_bytes_total"),
        (
            "process.worker_restarts",
            "approx_process_worker_restarts_total",
        ),
    ] {
        m.insert(metric, snapshot.counter_total(counter) as f64 / jobs);
    }
}

/// The counts taken at the job boundary, for the trace file.
pub fn job_counts(jm: &JobMetrics) -> Vec<(&'static str, f64)> {
    vec![
        ("total_maps", jm.total_maps as f64),
        ("executed_maps", jm.executed_maps as f64),
        ("dropped_maps", jm.dropped_maps as f64),
        ("killed_maps", jm.killed_maps as f64),
        ("failed_attempts", jm.failed_maps as f64),
        ("population_records", jm.total_records as f64),
        ("sampled_records", jm.sampled_records as f64),
        ("emitted_pairs", jm.emitted_pairs as f64),
        ("shuffled_pairs", jm.shuffled_pairs as f64),
        ("wall_secs", jm.wall_secs),
    ]
}

// ---------------------------------------------------------------------
// Word count over a DFS text file.
// ---------------------------------------------------------------------

/// `wc_raw` / `wc_combined`: the same file and job, differing only in
/// `JobConfig::combining` — one exercises ship and absorb, the other
/// bypasses them through the combine table.
pub struct WordCount {
    combining: bool,
    dfs: DfsCluster,
    source: TextSource,
    reference: Vec<(String, u64)>,
}

impl WordCount {
    /// Generates the corpus, folds the reference counts single-threaded
    /// and writes the corpus to a 3-datanode, 2-replica DFS.
    pub fn prepare(seed: u64, combining: bool) -> Result<Self, String> {
        let lines = gen::wordcount_lines(WC_BLOCKS, WC_LINES_PER_BLOCK, seed);
        let mut counts = std::collections::HashMap::<&str, u64>::new();
        for w in lines.iter().flat_map(|l| l.split_whitespace()) {
            *counts.entry(w).or_default() += 1;
        }
        let mut reference: Vec<(String, u64)> = counts
            .into_iter()
            .map(|(w, n)| (w.to_string(), n))
            .collect();
        reference.sort();
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 3,
            replication: 2,
            block_records: WC_LINES_PER_BLOCK as u64,
        });
        dfs.write_lines("corpus", &lines)
            .map_err(|e| e.to_string())?;
        let source = TextSource::open(&dfs, "corpus").map_err(|e| e.to_string())?;
        Ok(WordCount {
            combining,
            dfs,
            source,
            reference,
        })
    }
}

type WordReducer = GroupedReducer<String, u64, fn(&String, &[u64]) -> Option<(String, u64)>>;

// `&String`: the reducer callback receives a reference to the key type.
#[allow(clippy::ptr_arg)]
fn sum_counts(word: &String, counts: &[u64]) -> Option<(String, u64)> {
    Some((word.clone(), counts.iter().sum()))
}

fn word_reducer(_partition: usize) -> WordReducer {
    GroupedReducer::new(sum_counts)
}

impl BatchWorkload for WordCount {
    type Output = (String, u64);

    fn population(&self) -> u64 {
        self.source.handle().total_records()
    }

    fn sizes(&self) -> String {
        format!(
            "{WC_BLOCKS} blocks x {WC_LINES_PER_BLOCK} lines, {} words, combining={}",
            gen::VOCABULARY,
            self.combining
        )
    }

    fn run(&self, job: u64, obs: Option<Arc<Obs>>) -> Result<JobResult<(String, u64)>, String> {
        let mapper = Combined::new(FnMapper::new(jobs::word_split), SumCombiner);
        let mut result = run_job(
            &self.source,
            &mapper,
            word_reducer,
            JobConfig {
                map_slots: MAP_SLOTS,
                servers: MAP_SLOTS,
                reduce_tasks: REDUCE_TASKS,
                combining: self.combining,
                seed: job,
                obs,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
        result.outputs.sort();
        Ok(result)
    }

    fn check(&self, result: &JobResult<(String, u64)>) -> Result<Option<ApproxQuality>, String> {
        check::check_counts(&result.outputs, &self.reference)?;
        let shipped = result.metrics.shuffled_pairs;
        let emitted = result.metrics.emitted_pairs;
        // The exercise/bypass design itself: raw ships every pair,
        // combined ships a small fraction.
        if self.combining == (shipped * 20 > emitted) {
            return Err(format!(
                "combining={} but {shipped} of {emitted} pairs were shipped",
                self.combining
            ));
        }
        Ok(None)
    }

    fn drive_layers(
        &self,
        log: &mut SpanLog,
        metrics: &mut Metrics,
        args: &RunArgs,
    ) -> Result<MapSideCosts, String> {
        let (read, secs) = log.scope("dfs.read_block", 0, |_| -> Result<u64, String> {
            let mut lines = 0u64;
            for block in &self.source.handle().blocks {
                let read = self
                    .dfs
                    .read_block_lines(block.id)
                    .map_err(|e| e.to_string())?;
                lines += std::hint::black_box(read).len() as u64;
            }
            Ok(lines)
        });
        metrics.insert(
            "dfs.read_block_ns_per_rec",
            secs * 1e9 / read?.max(1) as f64,
        );
        let mapper = Combined::new(FnMapper::new(jobs::word_split), SumCombiner);
        layers::drive_record_path(
            log,
            metrics,
            &self.source,
            &mapper,
            word_reducer,
            &RecordPathPlan {
                sampling_ratio: 1.0,
                combining: self.combining,
                max_splits: LAYER_DRIVE_SPLITS,
                total_maps_factor: 1.0,
                seed: args.seed,
            },
        )
    }
}

// ---------------------------------------------------------------------
// Page traffic over the synthetic Wikipedia access log.
// ---------------------------------------------------------------------

/// Which of the four page-traffic workloads a [`PageTraffic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Thread backend, every record of every block.
    Precise,
    /// Thread backend, 10 % of the records of 75 % of the blocks.
    Approx,
    /// Process backend, ample shuffle memory.
    Process,
    /// Process backend, shuffle memory small enough to spill.
    Spill,
}

/// A log's block generator as an input source with a nameable type.
pub type LogSource = approxhadoop::runtime::input::FnSource<
    LogEntry,
    Box<dyn Fn(usize) -> Vec<LogEntry> + Send + Sync>,
>;

/// `wikilog_*`: per-page byte totals with 95 % intervals — the paper's
/// own aggregation on its own log shape.
pub struct PageTraffic {
    variant: Variant,
    log: WikiLog,
    source: LogSource,
    /// True totals, ascending by page (precise variants), or the top
    /// [`check::TOP_KEYS`] only (approximate variant).
    reference: Vec<(u64, f64)>,
    worker: Option<WorkerSpec>,
    scratch: PathBuf,
}

impl PageTraffic {
    /// Fixes the log from `seed` and folds the true totals
    /// single-threaded. Blocks are generated on the fly when read, as in
    /// every wikilog experiment of the repository, so "read" here is
    /// generation, not I/O.
    pub fn prepare(seed: u64, variant: Variant, scratch: &Path) -> Result<Self, String> {
        let days = if variant == Variant::Approx {
            APPROX_DAYS
        } else {
            PRECISE_DAYS
        };
        let log = gen::page_log(days, WIKI_ENTRIES_PER_BLOCK, seed);
        let totals = check::fold_log(&log, log.pages, |e| (e.page, e.bytes as f64));
        let reference = match variant {
            Variant::Approx => check::top_keys(&totals, check::TOP_KEYS),
            _ => totals,
        };
        let worker = match variant {
            Variant::Process | Variant::Spill => Some(env::worker(jobs::PAGE_TRAFFIC_JOB)?),
            _ => None,
        };
        Ok(PageTraffic {
            variant,
            log,
            source: boxed_source(log),
            reference,
            worker,
            scratch: scratch.to_path_buf(),
        })
    }

    fn ratios(&self) -> (f64, f64) {
        match self.variant {
            Variant::Approx => (APPROX_SAMPLING, APPROX_DROP),
            _ => (1.0, 0.0),
        }
    }

    fn shuffle_mem(&self) -> usize {
        match self.variant {
            Variant::Spill => SPILL_SHUFFLE_MEM,
            _ => PROCESS_SHUFFLE_MEM,
        }
    }
}

/// Wraps `log`'s block generator as a [`LogSource`].
pub fn boxed_source(log: WikiLog) -> LogSource {
    let metas = log.source().splits();
    LogSource::new(metas, Box::new(move |i| log.block(i as u64)))
}

fn page_reducer(_partition: usize) -> MultiStageReducer<u64> {
    MultiStageReducer::new(Aggregation::Sum, 0.95)
}

impl BatchWorkload for PageTraffic {
    type Output = (u64, Interval);

    fn population(&self) -> u64 {
        self.log.total_entries()
    }

    fn sizes(&self) -> String {
        let (sampling, drop) = self.ratios();
        format!(
            "{} blocks x {} entries, {} pages, sampling={sampling} drop={drop}, shuffle_mem={}",
            self.log.num_blocks(),
            self.log.entries_per_block,
            self.log.pages,
            self.shuffle_mem()
        )
    }

    fn slots(&self) -> usize {
        if self.worker.is_some() {
            WORKERS
        } else {
            MAP_SLOTS
        }
    }

    fn run(&self, job: u64, obs: Option<Arc<Obs>>) -> Result<JobResult<(u64, Interval)>, String> {
        let (sampling_ratio, drop_ratio) = self.ratios();
        let config = JobConfig {
            map_slots: MAP_SLOTS,
            reduce_tasks: REDUCE_TASKS,
            workers: WORKERS,
            sampling_ratio,
            drop_ratio,
            shuffle_mem_bytes: self.shuffle_mem(),
            spill_dir: Some(self.scratch.clone()),
            seed: job,
            obs,
            ..Default::default()
        };
        let result = match &self.worker {
            None => run_job(
                &self.source,
                &MultiStageMapper::new(jobs::page_traffic),
                page_reducer,
                config,
            ),
            Some(worker) => run_job_process(
                &self.source,
                worker,
                page_reducer,
                config,
                &mut FixedCoordinator::new(
                    self.log.num_blocks() as usize,
                    sampling_ratio,
                    drop_ratio,
                    job,
                ),
                &JobSession::new(JobId(job)),
            ),
        };
        let mut result = result.map_err(|e| e.to_string())?;
        result.outputs.sort_unstable_by_key(|&(page, _)| page);
        Ok(result)
    }

    fn check(&self, result: &JobResult<(u64, Interval)>) -> Result<Option<ApproxQuality>, String> {
        if self.variant != Variant::Approx {
            // The process variants are checked against the very totals
            // `wikilog_precise` is, so all three agree bit for bit.
            check::check_precise(&result.outputs, &self.reference)?;
            return Ok(None);
        }
        let m = &result.metrics;
        let planned = (APPROX_DROP * m.total_maps as f64).floor() as usize;
        if m.dropped_maps != planned {
            return Err(format!(
                "{} maps dropped, {planned} planned",
                m.dropped_maps
            ));
        }
        let share = m.effective_sampling_ratio();
        if (share - APPROX_SAMPLING).abs() > 0.01 {
            return Err(format!(
                "sampled {share:.4} of the records, asked {APPROX_SAMPLING}"
            ));
        }
        Ok(Some(check::approx_quality(
            &result.outputs,
            &self.reference,
        )))
    }

    fn check_obs(&self, snapshot: &RegistrySnapshot) -> Result<(), String> {
        let runs = snapshot.counter_total("approx_process_spill_runs_total");
        match self.variant {
            Variant::Process if runs != 0 => {
                Err(format!("{runs} spill runs under an ample shuffle budget"))
            }
            Variant::Spill if runs < MIN_SPILL_RUNS => Err(format!(
                "{runs} spill runs; the workload must record at least {MIN_SPILL_RUNS}"
            )),
            _ => Ok(()),
        }
    }

    fn drive_layers(
        &self,
        log: &mut SpanLog,
        metrics: &mut Metrics,
        args: &RunArgs,
    ) -> Result<MapSideCosts, String> {
        let (sampling_ratio, drop_ratio) = self.ratios();
        let mut costs = layers::drive_record_path(
            log,
            metrics,
            &self.source,
            &MultiStageMapper::new(jobs::page_traffic),
            page_reducer,
            &RecordPathPlan {
                sampling_ratio,
                combining: true,
                max_splits: LAYER_DRIVE_SPLITS,
                total_maps_factor: 1.0 / (1.0 - drop_ratio),
                seed: args.seed,
            },
        )?;
        if let Some(worker) = &self.worker {
            let blocks = self.log.num_blocks().min(24);
            layers::drive_process_path(
                log,
                metrics,
                &self.log,
                blocks,
                worker,
                &self.scratch,
                &mut costs,
            )?;
        }
        Ok(costs)
    }
}
