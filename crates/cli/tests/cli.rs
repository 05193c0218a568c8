//! Integration tests for the CLI subcommands.

use approxhadoop_cli::args::Args;
use approxhadoop_cli::run;

fn args(s: &str) -> Args {
    Args::parse(s.split_whitespace().map(String::from)).unwrap()
}

#[test]
fn run_rejects_unknown_app() {
    let e = run::run_app(&args("run no-such-app")).unwrap_err();
    assert!(e.to_string().contains("no-such-app"));
}

#[test]
fn run_requires_app_name() {
    assert!(run::run_app(&args("run")).is_err());
}

#[test]
fn run_small_apps_succeed() {
    run::run_app(&args("run total-size --drop 0.25 --sample 0.5 --top 3")).unwrap();
    run::run_app(&args("run client-browser --sample 0.2")).unwrap();
    run::run_app(&args("run bytes-per-access --drop 0.25 --top 3")).unwrap();
}

#[test]
fn run_target_mode_succeeds() {
    run::run_app(&args("run project-popularity --target 5% --top 3")).unwrap();
}

#[test]
fn kmeans_rejects_target_mode() {
    assert!(run::run_app(&args("run kmeans --target 1%")).is_err());
}

#[test]
fn simulate_runs_and_validates() {
    run::simulate(&args("simulate --maps 40 --records 10000 --servers 2")).unwrap();
    run::simulate(&args("simulate --maps 40 --records 10000 --target 2%")).unwrap();
    assert!(run::simulate(&args("simulate --maps 0")).is_err());
}

#[test]
fn bad_scale_is_reported() {
    assert!(run::run_app(&args("run total-size --scale enormous")).is_err());
}

#[test]
fn out_of_range_approx_fraction_is_an_error() {
    for bad in ["1.5", "-0.1", "NaN"] {
        let e = run::run_app(&args(&format!(
            "run video-encoding --approx-fraction {bad}"
        )))
        .unwrap_err();
        assert!(e.to_string().contains("approx_fraction"), "{bad}: {e}");
    }
}

#[test]
fn overflowing_shuffle_mem_is_an_error() {
    // 2^44 + 1 MiB: shifting it into bytes wraps to a 1 MiB budget.
    let e = run::run_app(&args("run total-size --shuffle-mem 17592186044417")).unwrap_err();
    assert!(e.to_string().contains("--shuffle-mem"), "{e}");
}
