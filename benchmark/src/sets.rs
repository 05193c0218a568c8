//! Running every workload, each in a child process of its own (so peak
//! memory and allocator state do not leak from one workload into the
//! next), writing results files, and holding two sets against each
//! other.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use approxhadoop::obs::json::{self, Value};

use crate::batch::{self, PageTraffic, RunArgs, Variant, WordCount};
use crate::env::EnvStamp;
use crate::report::{with_units, MetricValue, Metrics, Outcome, PER_LAYER, WORKLOADS};
use crate::service;
use crate::spans::SpanLog;

/// Runs workload `name` in this process; `None` for an unknown name.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    let pages = |variant| {
        batch::run_batch(name, args, || {
            PageTraffic::prepare(args.seed, variant, &args.scratch)
        })
    };
    Some(match name {
        "wc_raw" => batch::run_batch(name, args, || WordCount::prepare(args.seed, false)),
        "wc_combined" => batch::run_batch(name, args, || WordCount::prepare(args.seed, true)),
        "wikilog_precise" => pages(Variant::Precise),
        "wikilog_approx" => pages(Variant::Approx),
        "wikilog_process" => pages(Variant::Process),
        "wikilog_spill" => pages(Variant::Spill),
        "service_open" => service::run_service(name, true, args),
        "service_process_tiny" => service::run_service(name, false, args),
        _ => return None,
    })
}

/// The head of a trace file; the spans follow it, one per line.
#[derive(serde::Serialize)]
struct TraceHead {
    workload: String,
    seed: u64,
    seconds: f64,
    wall_clock_s: f64,
    env: EnvStamp,
    sizes: String,
    job_counts: BTreeMap<&'static str, f64>,
    layer_metrics: BTreeMap<&'static str, MetricValue>,
    self_time_us: BTreeMap<String, f64>,
}

/// Writes `TRACE_<workload>.json`: the environment, the frozen sizes,
/// the counts taken at the job boundary, every layer metric, self time
/// per span name and the spans themselves (one per line).
pub fn write_trace(
    name: &str,
    args: &RunArgs,
    sizes: &str,
    counts: &[(&'static str, f64)],
    metrics: &Metrics,
    log: &SpanLog,
    wall_clock_s: f64,
) -> Result<(), String> {
    let head = TraceHead {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        wall_clock_s,
        env: EnvStamp::capture(),
        sizes: sizes.to_string(),
        job_counts: counts.iter().copied().collect(),
        layer_metrics: with_units(&PER_LAYER, |n| metrics.get(n).copied().unwrap_or(0.0)),
        self_time_us: log.self_time_by_name().into_iter().collect(),
    };
    let head = pretty(&head);
    let head = head
        .trim_end()
        .strip_suffix('}')
        .expect("an object")
        .trim_end();
    let spans: Vec<String> = log
        .spans()
        .iter()
        .map(|s| format!("    {}", compact(s)))
        .collect();
    let doc = format!("{head},\n  \"spans\": [\n{}\n  ]\n}}\n", spans.join(",\n"));
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    write_doc(&args.out_dir.join(format!("TRACE_{name}.json")), doc)
}

fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("the writer shim is infallible")
}

fn compact<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("the writer shim is infallible")
}

fn write_doc(path: &Path, doc: String) -> Result<(), String> {
    debug_assert!(
        json::validate(&doc).is_ok(),
        "{} is not JSON",
        path.display()
    );
    std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// One end-to-end metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the first value by which the second may be worse.
    pub bound: f64,
}

/// Reads `(run_seconds, gates)` out of the text of `BENCHMARK.json`.
pub fn parse_declaration(text: &str) -> Result<(f64, Vec<Gate>), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let gates = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            Some(Gate {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Gate>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    Ok((seconds, gates))
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worse_by(gate: &Gate, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if gate.higher_is_better {
        -change
    } else {
        change
    }
}

/// What a child run printed.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ChildResult {
    /// The `correct` flag of the result line (and a zero exit code).
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: f64,
    /// Jobs failed.
    pub failed: f64,
    /// `# ` lines printed before the result line (sizes, quartiles).
    pub notes: Vec<String>,
    /// Metric name → value and unit.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl ChildResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).map(|m| m.value)
    }
}

/// Parses a child's standard output: notes, then the result line.
pub fn parse_child_output(stdout: &str) -> Result<ChildResult, String> {
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        attempted: doc.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        metrics: metrics
            .iter()
            .filter_map(|(k, m)| {
                let value = m.get("value")?.as_f64()?;
                let unit = m.get("unit")?.as_str()?.to_string();
                Some((k.clone(), MetricValue { value, unit }))
            })
            .collect(),
        notes: stdout
            .lines()
            .filter_map(|l| l.strip_prefix("# "))
            .map(str::to_string)
            .collect(),
    })
}

/// Options of a full-set run.
#[derive(Debug, Clone)]
pub struct SetOptions {
    /// Seed handed to every workload.
    pub seed: u64,
    /// Seconds each run measures for (`run_seconds` unless overridden).
    pub seconds: Option<f64>,
    /// How many times to run the whole set.
    pub sets: usize,
    /// Also make the traced run of every workload.
    pub trace: bool,
    /// Where results files go.
    pub out_dir: PathBuf,
}

fn run_child(
    name: &str,
    opts: &SetOptions,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let mut result = parse_child_output(&String::from_utf8_lossy(&out.stdout))?;
    result.correct &= out.status.success();
    Ok(result)
}

/// One full set: workload → what its run printed.
type Set = BTreeMap<String, ChildResult>;

/// `BASELINE.json`: one set, with the environment it ran in.
#[derive(serde::Serialize)]
struct Baseline {
    env: EnvStamp,
    seed: u64,
    seconds: f64,
    wall_clock_s: f64,
    workloads: Set,
}

/// One gated metric of one workload, held against its bound.
#[derive(serde::Serialize)]
struct Comparison {
    workload: &'static str,
    metric: String,
    set1: f64,
    set2: f64,
    worse_by: f64,
    bound: f64,
    within: bool,
}

/// `REPEAT.json`: two sets of the same code against each other.
#[derive(serde::Serialize)]
struct Repeat {
    env: EnvStamp,
    seed: u64,
    seconds: f64,
    wall_clock_s: f64,
    order: &'static str,
    agree: bool,
    comparison: Vec<Comparison>,
    set1: Set,
    set2: Set,
}

fn print_metrics(r: &ChildResult, width: usize) {
    for (metric, m) in &r.metrics {
        println!("  {metric:<width$} {:>16.6} {}", m.value, m.unit);
    }
}

/// Runs every workload `opts.sets` times (reversing the order on every
/// second set, so a drift over the session does not favour one side),
/// prints every metric by name and unit, writes `BASELINE.json` and —
/// with two sets or more — `REPEAT.json`. `Ok(false)` when a run was
/// incorrect or a gated metric disagreed between the first two sets by
/// more than its bound.
pub fn run_sets(opts: &SetOptions) -> Result<bool, String> {
    let declaration = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let (run_seconds, gates) = parse_declaration(&declaration)?;
    let seconds = opts.seconds.unwrap_or(run_seconds);
    let started = Instant::now();
    let env = EnvStamp::capture();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut sets: Vec<Set> = Vec::new();
    for set in 0..opts.sets {
        let mut order: Vec<&str> = WORKLOADS.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut results = BTreeMap::new();
        for name in order {
            eprintln!("== set {} · {name}", set + 1);
            let r = run_child(name, opts, seconds, false)?;
            ok &= r.correct;
            println!(
                "{name}: correct={} attempted={} failed={}",
                r.correct, r.attempted, r.failed
            );
            print_metrics(&r, 24);
            results.insert(name.to_string(), r);
            if opts.trace && set == 0 {
                let t = run_child(name, opts, seconds, true)?;
                ok &= t.correct;
                println!("{name} (traced): correct={}", t.correct);
                print_metrics(&t, 34);
            }
        }
        sets.push(results);
    }
    let wall_clock_s = started.elapsed().as_secs_f64();
    let baseline = Baseline {
        env: env.clone(),
        seed: opts.seed,
        seconds,
        wall_clock_s,
        workloads: sets[0].clone(),
    };
    write_doc(
        &opts.out_dir.join("BASELINE.json"),
        pretty(&baseline) + "\n",
    )?;
    if let [first, second, ..] = sets.as_slice() {
        let mut comparison = Vec::new();
        println!(
            "\n{:<22} {:<22} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "set 1", "set 2", "worse by", "bound"
        );
        for workload in WORKLOADS {
            for gate in &gates {
                let (a, b) = (
                    first[workload].value(&gate.name),
                    second[workload].value(&gate.name),
                );
                let (Some(set1), Some(set2)) = (a, b) else {
                    return Err(format!("{workload}: {} missing from a set", gate.name));
                };
                let worse_by = worse_by(gate, set1, set2);
                let within = worse_by.abs() <= gate.bound;
                ok &= within;
                println!(
                    "{workload:<22} {:<22} {set1:>14.5} {set2:>14.5} {:>8.2}% {:>6.0}%{}",
                    gate.name,
                    worse_by * 100.0,
                    gate.bound * 100.0,
                    if within { "" } else { "  DISAGREE" }
                );
                comparison.push(Comparison {
                    workload,
                    metric: gate.name.clone(),
                    set1,
                    set2,
                    worse_by,
                    bound: gate.bound,
                    within,
                });
            }
        }
        let repeat = Repeat {
            env,
            seed: opts.seed,
            seconds,
            wall_clock_s,
            order: "set 2 runs the workloads in reverse",
            agree: ok,
            comparison,
            set1: first.clone(),
            set2: second.clone(),
        };
        write_doc(&opts.out_dir.join("REPEAT.json"), pretty(&repeat) + "\n")?;
    }
    eprintln!("whole run: {:.1} s", started.elapsed().as_secs_f64());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_and_direction() {
        let (seconds, gates) = parse_declaration(include_str!("../../BENCHMARK.json")).unwrap();
        assert!((1.0..=60.0).contains(&seconds));
        assert_eq!(gates.len(), crate::report::END_TO_END.len());
        assert!(gates.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
        let lower = Gate {
            name: "job_wall_s".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        let higher = Gate {
            name: "input_records_per_s".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        assert!((worse_by(&lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worse_by(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(&higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn child_output_keeps_notes_and_reads_the_last_line() {
        let stdout =
            "# sizes: 16 blocks\nnoise\n{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
                      \"metrics\": {\"job_wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}\n";
        let r = parse_child_output(stdout).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (5.0, 0.0));
        assert_eq!(r.value("job_wall_s"), Some(0.25));
        assert_eq!(r.metrics["job_wall_s"].unit, "s");
        assert_eq!(r.notes, ["sizes: 16 blocks"]);
        assert!(parse_child_output("").is_err());
        assert!(parse_child_output("not json").is_err());
    }

    #[test]
    fn results_documents_are_json() {
        let mut r = ChildResult {
            correct: true,
            attempted: 2.0,
            ..Default::default()
        };
        let metric = |value: f64| MetricValue {
            value,
            unit: "s".into(),
        };
        r.metrics.insert("setup_s".into(), metric(0.5));
        r.metrics
            .insert("quality.worst_bound_pct".into(), metric(f64::INFINITY));
        r.notes.push("a \"quoted\" note".into());
        let set = Set::from([("wc_raw".to_string(), r)]);
        json::validate(&pretty(&set)).unwrap();
    }
}
