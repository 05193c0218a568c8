//! The benchmark's command. See `benchmark/README.md`.
//!
//! ```text
//! approx-bench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! approx-bench [--seed N] [--sets K] [--trace] [--out-dir DIR]    every workload, K times
//! approx-bench --selftest                                         prove each check can fail
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use approx_benchmark::batch::RunArgs;
use approx_benchmark::env::{self, Scratch};
use approx_benchmark::report::{END_TO_END, PER_LAYER, WORKLOADS};
use approx_benchmark::sets::{self, SetOptions};

/// The seed the committed results were produced with.
const DEFAULT_SEED: u64 = 11;
/// Where traces, results and scratch go unless `--out-dir` says
/// otherwise (ignored by git; `results/` holds the committed copies).
const DEFAULT_OUT_DIR: &str = "benchmark/out";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    selftest: bool,
    out_dir: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 1,
        selftest: false,
        out_dir: PathBuf::from(DEFAULT_OUT_DIR),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                cli.seconds = Some(s);
            }
            "--sets" => {
                cli.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if cli.sets == 0 {
                    return Err("--sets must be positive".into());
                }
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--selftest" => cli.selftest = true,
            // `--trace 0|1` for a single run; a bare `--trace` asks a
            // full set for the traced runs as well.
            "--trace" => {
                cli.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(cli)
}

/// One workload, in this process: checks, then one JSON line.
fn single(name: &str, cli: &Cli) -> Result<bool, String> {
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
    }
    let scratch = Scratch::create(&cli.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(10.0),
        trace: cli.trace,
        out_dir: cli.out_dir.clone(),
        scratch: scratch.path().to_path_buf(),
    };
    // A panic unwinds through here, so the scratch directory goes with
    // it; the process then exits non-zero without a result line.
    let mut outcome = sets::run_workload(name, &args).expect("the name was checked");
    drop(scratch);
    let left = env::leftover_workers();
    if !left.is_empty() {
        outcome.errors.push(format!(
            "worker processes outlived their jobs: pids {left:?}"
        ));
    }
    let line = match cli.trace {
        true => outcome.result_line(&PER_LAYER, false),
        false => outcome.result_line(&END_TO_END, true),
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for error in &outcome.errors {
        eprintln!("CHECK FAILED ({name}): {error}");
    }
    println!("{line}");
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let cli = parse_cli()?;
        if cli.selftest {
            for line in approx_benchmark::check::selftest()? {
                println!("fires: {line}");
            }
            return Ok(true);
        }
        match &cli.workload {
            Some(name) => single(name, &cli),
            None => sets::run_sets(&SetOptions {
                seed: cli.seed,
                seconds: cli.seconds,
                sets: cli.sets,
                trace: cli.trace,
                out_dir: cli.out_dir.clone(),
            }),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
