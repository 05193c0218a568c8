//! `approxhadoop` — command-line front end for ApproxHadoop-RS.
//!
//! ```text
//! approxhadoop list
//! approxhadoop run <app> [--drop R] [--sample R] [--target X%]
//!                        [--confidence C] [--pilot-tasks N] [--pilot-sample R]
//!                        [--scale small|medium|large] [--seed N]
//!                        [--reduce-tasks N] [--top K]
//! approxhadoop simulate [--maps N] [--records M] [--servers S]
//!                        [--atom] [--s3] [--drop R] [--sample R]
//!                        [--target X%] [--seed N]
//! ```

use approxhadoop_cli::args::{Args, UsageError};
use approxhadoop_cli::run;

const USAGE: &str = "approxhadoop — approximation-enabled MapReduce (ASPLOS'15 reproduction)

USAGE:
  approxhadoop list
      Print the application inventory (paper Table 1).

  approxhadoop run <app> [options]
      Run one application on its synthetic dataset.
      apps: wiki-length | wiki-page-rank | project-popularity |
            page-popularity | request-rate | page-traffic |
            bytes-per-access | total-size | request-size | clients |
            client-browser | attack-frequencies | dept-request-rate |
            mentions-per-paragraph | dc-placement | video-encoding | kmeans
      options:
        --drop R             fraction of map tasks to drop (0..1)
        --sample R           within-block sampling ratio (0..1]
        --target X[%]        target error bound (selects target mode)
        --confidence C       confidence level (target mode only,
                             default 0.95)
        --pilot-tasks N      pilot wave size (target mode only)
        --pilot-sample R     pilot sampling ratio (target mode only)
        --scale small|medium|large   dataset size (default small)
        --seed N             RNG seed (default 0)
        --reduce-tasks N     reduce tasks (default 2)
        --top K              keys to print (default 10)
        --fault-plan SPEC    inject faults, e.g. io=0.2,panic=0.05,seed=3
        --max-task-retries N retry failed maps N times, then degrade the
                             task to a dropped cluster (default 0 = abort)
        --fault-bound B      fail a degraded job whose final relative
                             error bound exceeds B (e.g. 0.05)
        --backend B          threads (default) or process: run map
                             attempts in separate worker OS processes
                             (wikilog apps: project-popularity,
                             page-popularity, request-rate, page-traffic)
        --workers N          worker processes (process backend, default 2)
        --shuffle-mem MIB    per-worker shuffle memory budget in MiB
                             before map output spills to disk (default 64)
        --trace-out FILE     write a Chrome trace (job→wave→task→worker
                             spans; worker spans come from the process
                             backend's telemetry frames)
        --metrics-out FILE   write Prometheus text metrics
        --obs-addr HOST:PORT serve GET /metrics (Prometheus text),
                             /trace (Chrome trace JSON) and /jobs
                             (bound-convergence series) live over HTTP
                             while the command runs
        --flight-dir DIR     write a flight-recorder dump (the
                             scheduler's recent decisions as JSON) on
                             job failure or worker crash; the
                             APPROX_FLIGHT_DIR env var is the fallback

  approxhadoop simulate [options]
      Discrete-event cluster simulation (runtime + energy).
      options:
        --maps N --records M --servers S --atom --s3
        --drop R --sample R --target X[%] --seed N

  approxhadoop serve [options]
      Run the multi-tenant job service against a Poisson arrival
      stream of aggregation jobs, printing job events live.
      options:
        --slots N            shared map slots (default 4)
        --jobs N             jobs to fire (default 8)
        --rate R             mean arrivals per second (default 6)
        --blocks N           map tasks per job (default 32)
        --entries N          records per map (default 800)
        --p99-target SECS    admission p99 latency target (default 0.4)
        --slo-bound B        accuracy SLO: worst relative interval
                             half-width the controller holds (e.g. 0.05);
                             omit for latency-only control
        --max-drop R         per-job degradation budget (default 0.7)
        --min-sample R       per-job sampling floor (default 0.25)
        --fault-plan SPEC    inject faults into every job's map path
        --max-task-retries N per-task retries before degrade-to-drop
        --fault-bound B      error-bound budget for degraded jobs
        --backend B          threads (default) or process: each job runs
                             on its own worker OS processes instead of
                             the shared slot pool
        --workers N          worker processes per job (process backend)
        --shuffle-mem MIB    per-worker shuffle budget in MiB (default 64)
        --seed N             RNG seed (default 0)
        --trace-out FILE     write a Chrome trace of every tenant
        --metrics-out FILE   write Prometheus text metrics
        --obs-addr HOST:PORT serve /metrics, /trace and /jobs live
                             over HTTP while the service runs

  approxhadoop loadtest [options]
      Fire the same Poisson job stream twice — admission controller
      off, then on — and print a JSON comparison report (throughput,
      p50/p99 latency, per-job error bounds, degradation decisions).
      options: same as serve, but the defaults are heavier so the
      shared pool saturates: --jobs 16, --rate 8, --blocks 48,
      --entries 50000. Also accepts --backend process / --workers N
      (run every job on worker OS processes), --trace-out FILE
      (Chrome trace of both phases), --metrics-out FILE
      (Prometheus text) and --obs-addr HOST:PORT (live /metrics,
      /trace and /jobs over HTTP while the test runs).

      With --find-max-tps the harness searches instead of replaying:
      it hill-climbs the offered arrival rate (double until the SLO
      breaks, then binary refinement) to the maximum sustainable TPS
      at the stated SLO, detects underpowered-generator saturation,
      and prints a SaturationReport as JSON (exit 2 if no stable
      operating point exists).
      search options:
        --slo-p99 SECS       latency SLO held during the search
                             (default: --p99-target)
        --slo-bound B        accuracy SLO (worst relative half-width)
        --slo-tolerance F    fraction of a step's jobs allowed over the
                             latency SLO (default 0.1)
        --start-rate R       first offered rate, jobs/s (default 1)
        --jobs-per-step N    jobs fired per measurement (default 12)
        --max-steps N        step budget (default 12)
        --precision F        stop once the bracket narrows to this
                             fraction of the knee (default 0.15)
        --smoke              seconds-scale search for CI (tiny jobs,
                             6 jobs/step, 7 steps)
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(raw) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn dispatch(raw: Vec<String>) -> Result<(), UsageError> {
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        "list" => {
            run::list();
            Ok(())
        }
        "run" => run::run_app(&args),
        "simulate" => run::simulate(&args),
        "serve" => run::serve(&args),
        "loadtest" => run::loadtest(&args),
        other => Err(UsageError(format!("unknown command `{other}`"))),
    }
}
