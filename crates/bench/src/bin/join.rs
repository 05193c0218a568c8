//! Join scale benchmark: the two-input access-log × page-catalogue
//! equi-join across input scales, precise vs sampled.
//!
//! Runs [`approxhadoop_workloads::join`] through the real engine at
//! several log-volume scales, once precisely and once under cluster
//! sampling (sample 0.5, drop 0.25 on the log side; the catalogue side
//! is always precise), and reports log records/s per cell plus the
//! Bloom pre-filter's discard fraction. This is the regression harness
//! for the multi-input path: the tagged source, the per-dataset
//! coordinator, the map-side Bloom filter and the per-stratum
//! estimators all sit on this wall clock.
//!
//! Human-readable narration goes to stdout; one JSON document lands in
//! `BENCH_join.json` (or `--out PATH`).
//!
//! ```text
//! join [--smoke] [--check] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--smoke` shrinks the log volumes for CI;
//! * `--check` exits non-zero unless the precise run matches the
//!   directly computed ground truth, sampled per-stratum intervals
//!   cover it comfortably often (a loose floor that only a collapsed
//!   estimator misses — the strict validation is the `join_e2e` test),
//!   and the Bloom filter both passed and discarded traffic;
//! * `--baseline PATH` compares each scale's aggregate best-of-reps log
//!   records/s against a previously written report and exits non-zero
//!   on any scale more than 20% slower than the baseline.

use std::sync::Arc;

use approxhadoop_bench::{header, reps, timed, Summary};
use approxhadoop_obs::Obs;
use approxhadoop_runtime::engine::JobConfig;
use approxhadoop_runtime::DatasetRatios;
use approxhadoop_workloads::join::{join_category_traffic, JoinOutcome, JoinWorkload};

/// Fractional slowdown per scale tolerated against the baseline.
const BASELINE_TOLERANCE: f64 = 0.20;

/// The sampled cell's log-side ratios.
const SAMPLE_RATIO: f64 = 0.5;
const DROP_RATIO: f64 = 0.25;

/// One (precise | sampled) cell of a scale.
#[derive(Debug, Clone, Copy, serde::Serialize)]
struct CellReport {
    sampled: bool,
    wall_secs_mean: f64,
    wall_secs_min: f64,
    /// Log records the maps actually read (the sampled subset under
    /// approximation; every record when precise).
    processed_log_records: u64,
    /// `processed_log_records / wall_secs_mean`.
    records_per_sec: f64,
    /// Best of the reps — the value the baseline gate aggregates (the
    /// mean also absorbs scheduler noise; the best rep tracks the
    /// code's speed).
    records_per_sec_best: f64,
    /// Fraction of processed log records the Bloom pre-filter discarded
    /// before the shuffle.
    discard_fraction: f64,
    /// Whole-join relative half-width (0 when precise).
    combined_rel_error: f64,
    /// Fraction of per-category 95% intervals (across all reps) that
    /// covered the directly computed truth. Each interval covers with
    /// ~95% probability, so demanding *every* one cover would fail a
    /// multi-rep run by design; the gate checks this rate instead.
    stratum_coverage: f64,
}

/// Both cells of one log-volume scale.
#[derive(Debug, Clone, serde::Serialize)]
struct ScaleReport {
    name: String,
    /// `JoinWorkload::demo` log-volume multiplier.
    mult: u64,
    /// Total log records in the input (before sampling).
    total_log_records: u64,
    cells: Vec<CellReport>,
    /// Processed log records across both cells over the summed best-rep
    /// walls — the value the baseline gate compares. One cell can swing
    /// past any sane tolerance on scheduler noise alone; the per-scale
    /// aggregate is stable, and a real per-record regression slows
    /// every cell, so the aggregate still catches it.
    aggregate_records_per_sec_best: f64,
}

#[derive(Debug, Clone, serde::Serialize)]
struct Report {
    reps: usize,
    smoke: bool,
    sample_ratio: f64,
    drop_ratio: f64,
    scales: Vec<ScaleReport>,
}

/// One join run; returns `(wall, outcome, processed log records,
/// discard fraction)`.
fn run_join(w: &JoinWorkload, ratios: DatasetRatios, seed: u64) -> (f64, JoinOutcome, u64, f64) {
    // Fresh observability context per run, so the Bloom counters
    // measure this run alone.
    let obs = Arc::new(Obs::default());
    let config = JobConfig {
        reduce_tasks: 4,
        seed,
        obs: Some(obs.clone()),
        ..Default::default()
    };
    let (secs, outcome) =
        timed(|| join_category_traffic(w, ratios, config, 0.95).expect("join job"));
    let n_log = w.log_clusters() as usize;
    let processed: u64 = outcome
        .metrics
        .map_stats
        .iter()
        .filter(|s| s.task.0 < n_log)
        .map(|s| s.sampled_records)
        .sum();
    let snap = obs.registry.snapshot();
    let discarded = snap.counter_total("join_filter_discarded_total") as f64;
    let passed = snap.counter_total("join_filter_passed_total") as f64;
    let discard_fraction = if discarded + passed > 0.0 {
        discarded / (discarded + passed)
    } else {
        0.0
    };
    (secs, outcome, processed, discard_fraction)
}

/// Counts `(covered, total)` per-category intervals against the
/// directly computed precise aggregate. A category missing from the
/// outcome (or truth) counts as uncovered.
fn strata_coverage(w: &JoinWorkload, outcome: &JoinOutcome) -> (usize, usize) {
    let truth = w.precise_by_category();
    let covered = outcome
        .categories
        .iter()
        .filter(|(cat, iv)| {
            truth
                .get(cat)
                .is_some_and(|&t| (iv.estimate - t).abs() <= iv.half_width + 1e-6)
        })
        .count();
    (covered, truth.len().max(outcome.categories.len()))
}

fn bench_cell(mult: u64, sampled: bool) -> CellReport {
    let ratios = if sampled {
        DatasetRatios {
            sampling_ratio: SAMPLE_RATIO,
            drop_ratio: DROP_RATIO,
        }
    } else {
        DatasetRatios::precise()
    };
    let mut walls = Vec::new();
    let mut last = None;
    let (mut covered, mut total) = (0usize, 0usize);
    for seed in 0..reps() as u64 {
        let w = JoinWorkload::demo(mult, seed);
        let (secs, outcome, processed, discard) = run_join(&w, ratios, seed);
        let (c, t) = strata_coverage(&w, &outcome);
        covered += c;
        total += t;
        walls.push(secs);
        last = Some((outcome, processed, discard));
    }
    let (outcome, processed, discard) = last.expect("at least one rep");
    let wall = Summary::of(&walls);
    CellReport {
        sampled,
        wall_secs_mean: wall.mean,
        wall_secs_min: wall.min,
        processed_log_records: processed,
        records_per_sec: processed as f64 / wall.mean,
        records_per_sec_best: processed as f64 / wall.min,
        discard_fraction: discard,
        combined_rel_error: outcome.combined.relative_error(),
        stratum_coverage: if total > 0 {
            covered as f64 / total as f64
        } else {
            0.0
        },
    }
}

fn bench_scale(name: &str, mult: u64) -> ScaleReport {
    let w = JoinWorkload::demo(mult, 0);
    let total_log_records = w.log_clusters() * w.log.entries_per_block;
    let mut cells = Vec::new();
    for sampled in [false, true] {
        let cell = bench_cell(mult, sampled);
        print_cell(name, &cell);
        cells.push(cell);
    }
    let processed: u64 = cells.iter().map(|c| c.processed_log_records).sum();
    let best_walls: f64 = cells.iter().map(|c| c.wall_secs_min).sum();
    ScaleReport {
        name: name.to_string(),
        mult,
        total_log_records,
        cells,
        aggregate_records_per_sec_best: processed as f64 / best_walls,
    }
}

fn print_cell(scale: &str, c: &CellReport) {
    println!(
        "{:>8} {:>8} | {:>9.3} | {:>11.0} | {:>8.1}% | {:>8.2}% | {:>6.0}%",
        scale,
        if c.sampled { "sampled" } else { "precise" },
        c.wall_secs_mean,
        c.records_per_sec,
        c.discard_fraction * 100.0,
        c.combined_rel_error * 100.0,
        c.stratum_coverage * 100.0,
    );
}

/// Extracts every `(scale key, aggregate records/s)` pair from a
/// previously written report, parsed with the in-tree JSON reader (the
/// serde shim is write-only).
fn baseline_scales(
    doc: &approxhadoop_obs::json::Value,
) -> Option<std::collections::BTreeMap<(String, u64), f64>> {
    let mut scales = std::collections::BTreeMap::new();
    for scale in doc.get("scales")?.as_array()? {
        let name = scale.get("name")?.as_str()?.to_string();
        let mult = scale.get("mult")?.as_f64()? as u64;
        let rps = scale.get("aggregate_records_per_sec_best")?.as_f64()?;
        scales.insert((name, mult), rps);
    }
    Some(scales)
}

/// Compares `report` against the baseline at `path`; returns the list
/// of regressions (empty = pass). Scales are matched by name *and*
/// multiplier, so a smoke run silently skips a full baseline's scales
/// (and an all-skip comparison is an error, not a pass).
fn compare_baseline(report: &Report, path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = approxhadoop_obs::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let base_scales =
        baseline_scales(&doc).ok_or_else(|| format!("{path} is not a join report"))?;
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for s in &report.scales {
        let key = (s.name.clone(), s.mult);
        let Some(&base) = base_scales.get(&key) else {
            continue;
        };
        compared += 1;
        let floor = base * (1.0 - BASELINE_TOLERANCE);
        if s.aggregate_records_per_sec_best < floor {
            failures.push(format!(
                "{}: {:.0} records/s aggregate is >{:.0}% below baseline {:.0}",
                s.name,
                s.aggregate_records_per_sec_best,
                BASELINE_TOLERANCE * 100.0,
                base,
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "baseline {path} has no scales matching this run \
             (smoke vs full mismatch?)"
        ));
    }
    Ok(failures)
}

fn main() {
    let mut smoke = false;
    let mut check = false;
    let mut out = "BENCH_join.json".to_string();
    let mut baseline: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--out" => match it.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("error: missing value for --out");
                    std::process::exit(2);
                }
            },
            "--baseline" => match it.next() {
                Some(path) => baseline = Some(path),
                None => {
                    eprintln!("error: missing value for --baseline");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "error: unknown option `{other}` (expected --smoke/--check/--out/--baseline)"
                );
                std::process::exit(2);
            }
        }
    }

    header(
        "Join",
        "Two-input Bloom-filtered join across log volumes: {precise, sampled 0.5/drop 0.25}",
    );
    // Smoke scales are sized so the fastest cell still takes tens of
    // milliseconds — small enough for CI, large enough that the
    // baseline gate measures code speed, not timer granularity.
    let scales: &[(&str, u64)] = if smoke {
        &[("small", 2), ("medium", 4)]
    } else {
        &[("small", 2), ("medium", 4), ("large", 8)]
    };

    println!(
        "{:>8} {:>8} | {:>9} | {:>11} | {:>9} | {:>9} | {:>6}",
        "scale", "mode", "wall(s)", "records/s", "discard", "±95%", "covers"
    );
    let reports: Vec<ScaleReport> = scales
        .iter()
        .map(|&(name, mult)| bench_scale(name, mult))
        .collect();

    let report = Report {
        reps: reps(),
        smoke,
        sample_ratio: SAMPLE_RATIO,
        drop_ratio: DROP_RATIO,
        scales: reports,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).expect("write benchmark report");
    println!("wrote {out}");

    let mut failures = Vec::new();
    if check {
        for s in &report.scales {
            for c in &s.cells {
                // Precise runs must cover everywhere. Sampled 95%
                // intervals get a deliberately loose 50% floor: with
                // `APPROX_REPS=1` a cell holds only ~8 intervals, so a
                // tight floor would fail on ordinary 5% misses. This
                // gate only catches estimator collapse; the strict
                // per-stratum statistical validation is the `join_e2e`
                // seed-matrix test.
                let floor = if c.sampled { 0.5 } else { 1.0 };
                if c.stratum_coverage < floor {
                    failures.push(format!(
                        "{}: {} stratum coverage {:.0}% is below {:.0}%",
                        s.name,
                        if c.sampled { "sampled" } else { "precise" },
                        c.stratum_coverage * 100.0,
                        floor * 100.0
                    ));
                }
                if c.discard_fraction <= 0.0 || c.discard_fraction >= 1.0 {
                    failures.push(format!(
                        "{}: Bloom filter did no useful work (discard fraction {:.3})",
                        s.name, c.discard_fraction
                    ));
                }
            }
            let precise = s.cells.iter().find(|c| !c.sampled);
            let sampled = s.cells.iter().find(|c| c.sampled);
            if let (Some(p), Some(a)) = (precise, sampled) {
                if p.combined_rel_error != 0.0 {
                    failures.push(format!(
                        "{}: precise run reported a nonzero error bound ({:.4})",
                        s.name, p.combined_rel_error
                    ));
                }
                if a.processed_log_records >= p.processed_log_records {
                    failures.push(format!(
                        "{}: sampling processed every log record ({} vs {})",
                        s.name, a.processed_log_records, p.processed_log_records
                    ));
                }
            }
        }
    }
    if let Some(path) = baseline {
        match compare_baseline(&report, &path) {
            Ok(regressions) => failures.extend(regressions),
            Err(e) => failures.push(e),
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("CHECK FAILED: {f}");
        }
        std::process::exit(1);
    }
    if check {
        println!("all checks passed");
    }
}
