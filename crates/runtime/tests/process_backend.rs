//! End-to-end tests of the process backend that go beyond the
//! three-way differential: worker crashes feeding the retry path,
//! shuffles that exceed the memory budget and spill to disk, scratch
//! cleanup, and worker reaping (no orphan processes).

use std::path::PathBuf;
use std::time::Duration;

use approxhadoop_ipc::Wire;
use approxhadoop_obs::Obs;
use approxhadoop_runtime::engine::{
    run_job_process, run_job_with_session, JobConfig, JobResult, WorkerSpec,
};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::mapper::FnMapper;
use approxhadoop_runtime::reducer::GroupedReducer;
use approxhadoop_runtime::{FaultPolicy, FixedCoordinator, JobEvent, JobId, JobSession};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_approx-worker-rt")
}

fn blocks() -> Vec<Vec<u32>> {
    (0..12)
        .map(|b| (0..40).map(|i| b * 40 + i).collect())
        .collect()
}

/// Serial process-backend config with the retry path armed.
fn retry_config() -> JobConfig {
    JobConfig {
        workers: 1,
        map_slots: 1,
        servers: 1,
        reduce_tasks: 2,
        fault_policy: FaultPolicy {
            max_task_retries: 2,
            retry_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            degrade_to_drop: true,
            blacklist_after: 0,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run_process(spec: &WorkerSpec, config: JobConfig) -> (JobResult<(u8, u64)>, Vec<JobEvent>) {
    let input = VecSource::new(blocks());
    let mut coordinator =
        FixedCoordinator::new(12, config.sampling_ratio, config.drop_ratio, config.seed);
    let (tx, rx) = std::sync::mpsc::channel();
    let session = JobSession::new(JobId(9)).with_events(tx);
    let result = run_job_process(
        &input,
        spec,
        |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        config,
        &mut coordinator,
        &session,
    )
    .unwrap();
    drop(session);
    (result, rx.try_iter().collect())
}

/// A worker that aborts mid-job surfaces as a task failure, flows into
/// bounded retry, and the retried run produces exactly the crash-free
/// results: same outputs, same events minus the `TaskRetry`.
#[test]
fn worker_crash_retries_and_matches_crash_free_run() {
    let clean = run_process(&WorkerSpec::new(worker_bin(), "mod8-count"), retry_config());

    // Crash the worker process the first time it starts task 5.
    let mut params = Vec::new();
    5u64.encode(&mut params);
    0u32.encode(&mut params);
    let crash_spec = WorkerSpec::new(worker_bin(), "crash-at").with_params(params);
    let (crashed, crash_events) = run_process(&crash_spec, retry_config());

    // The crash registered as a retried failure, not a lost job.
    assert!(
        crashed.metrics.retried_maps >= 1,
        "worker crash must feed the retry path: {:?}",
        crashed.metrics
    );
    assert_eq!(crashed.metrics.executed_maps, 12);
    assert_eq!(crashed.metrics.degraded_to_drop, 0);

    // Same final answer (read seeds are attempt-independent).
    let mut a = clean.0.outputs.clone();
    let mut b = crashed.outputs.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "crash + retry must not change the job's results");

    // The event streams agree except for the injected retries.
    let retries: Vec<&JobEvent> = crash_events
        .iter()
        .filter(|e| matches!(e, JobEvent::TaskRetry { .. }))
        .collect();
    assert!(!retries.is_empty(), "a TaskRetry event must stream out");
    for e in &retries {
        let JobEvent::TaskRetry { task, reason, .. } = e else {
            unreachable!()
        };
        assert_eq!(format!("{task}"), "map_000005");
        assert!(
            reason.contains("worker lost"),
            "retry reason must name the lost worker: {reason}"
        );
    }
    let no_retries: Vec<&JobEvent> = crash_events
        .iter()
        .filter(|e| !matches!(e, JobEvent::TaskRetry { .. }))
        .collect();
    let clean_events: Vec<&JobEvent> = clean.1.iter().collect();
    assert_eq!(
        no_retries, clean_events,
        "crash run events must equal the clean run's, minus retries"
    );
}

/// A shuffle bigger than the memory budget spills runs to disk, the
/// results stay bit-identical to the unspilled and in-process runs, and
/// the scratch directory is removed afterwards.
#[test]
fn spilling_shuffle_matches_in_memory_results_and_cleans_up() {
    let spill_root = std::env::temp_dir().join(format!("approx-spill-test-{}", std::process::id()));
    std::fs::create_dir_all(&spill_root).unwrap();

    let run = |budget: usize, obs: std::sync::Arc<Obs>| {
        let input = VecSource::new(blocks());
        let spec = WorkerSpec::new(worker_bin(), "wide-pairs");
        let config = JobConfig {
            workers: 1,
            map_slots: 1,
            servers: 1,
            reduce_tasks: 2,
            shuffle_mem_bytes: budget,
            spill_dir: Some(spill_root.clone()),
            obs: Some(obs),
            ..Default::default()
        };
        let mut coordinator = FixedCoordinator::new(12, 1.0, 0.0, 0);
        let session = JobSession::new(JobId(11));
        run_job_process(
            &input,
            &spec,
            |_| {
                GroupedReducer::new(|k: &u32, vs: &[String]| {
                    Some((*k, vs.len() as u64, vs.first().cloned().unwrap_or_default()))
                })
            },
            config,
            &mut coordinator,
            &session,
        )
        .unwrap()
    };

    // Tiny budget: every emission overflows 1 KiB quickly.
    let spilled_obs = Obs::shared();
    let spilled = run(1024, std::sync::Arc::clone(&spilled_obs));
    // Default-sized budget: everything stays in memory.
    let unspilled_obs = Obs::shared();
    let unspilled = run(64 * 1024 * 1024, std::sync::Arc::clone(&unspilled_obs));

    let spill_runs = spilled_obs
        .registry
        .snapshot()
        .counter_total("approx_process_spill_runs_total");
    let spill_bytes = spilled_obs
        .registry
        .snapshot()
        .counter_total("approx_process_spill_bytes_total");
    assert!(spill_runs > 0, "the 1 KiB budget must force spill runs");
    assert!(spill_bytes > 0, "spilled runs must report their bytes");
    assert_eq!(
        unspilled_obs
            .registry
            .snapshot()
            .counter_total("approx_process_spill_runs_total"),
        0,
        "the 64 MiB budget must never spill this job"
    );

    // Bit-identical outputs, spilling or not.
    assert_eq!(
        spilled.outputs, unspilled.outputs,
        "spilling must not change results"
    );

    // And identical to the same job on the in-process backend.
    let input = VecSource::new(blocks());
    let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u32, String)| {
        emit(*v % 16, format!("{v:0>100}"))
    });
    let mut coordinator = FixedCoordinator::new(12, 1.0, 0.0, 0);
    let session = JobSession::new(JobId(11));
    let scoped = run_job_with_session(
        &input,
        &mapper,
        |_| {
            GroupedReducer::new(|k: &u32, vs: &[String]| {
                Some((*k, vs.len() as u64, vs.first().cloned().unwrap_or_default()))
            })
        },
        JobConfig {
            map_slots: 1,
            servers: 1,
            reduce_tasks: 2,
            ..Default::default()
        },
        &mut coordinator,
        &session,
    )
    .unwrap();
    assert_eq!(
        spilled.outputs, scoped.outputs,
        "process backend must agree with the in-process backend"
    );

    // Scratch cleanup: the job's spool/spill directory is gone.
    let leftovers: Vec<PathBuf> = std::fs::read_dir(&spill_root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch dirs must be removed after the job: {leftovers:?}"
    );
    std::fs::remove_dir_all(&spill_root).unwrap();
}

/// The combining spill path (sorted runs, k-way merge with fold) agrees
/// with the in-memory combining path.
#[test]
fn combined_spill_matches_unspilled_combining() {
    let spec = WorkerSpec::new(worker_bin(), "mod8-count-combined");
    let tiny = run_process(
        &spec,
        JobConfig {
            shuffle_mem_bytes: 64,
            ..retry_config()
        },
    );
    let big = run_process(&spec, retry_config());
    assert_eq!(
        tiny.0.outputs, big.0.outputs,
        "combined spill must fold to the identical table"
    );
    // Combining collapses each task's pairs to at most 8 keys.
    assert!(tiny.0.metrics.map_stats.iter().all(|m| m.shuffled <= 8));
}

/// `WorkerSpec::sibling` finds the worker binary cargo builds next to
/// the test executable (one level up from `deps/`).
#[test]
fn sibling_resolution_finds_worker_binary() {
    let spec = WorkerSpec::sibling("approx-worker-rt", "mod8-count").unwrap();
    assert!(spec.bin.is_file());
    let (result, _) = run_process(&spec, retry_config());
    assert_eq!(result.metrics.executed_maps, 12);
    assert!(
        WorkerSpec::sibling("no-such-worker-binary", "x").is_err(),
        "a missing binary must be reported, not deferred to spawn time"
    );
}

/// With an `Obs` attached, workers run their own registry/tracer and
/// piggyback telemetry on the result stream: worker-originated
/// counters merge into the parent registry, and worker spans arrive
/// re-based and parented under the owning task-attempt span.
#[test]
fn worker_spans_nest_under_task_attempt_spans() {
    use std::collections::HashMap;
    use std::sync::Arc;

    use approxhadoop_obs::TraceEvent;

    let obs = Obs::shared();
    let config = JobConfig {
        obs: Some(Arc::clone(&obs)),
        ..retry_config()
    };
    let (result, _) = run_process(&WorkerSpec::new(worker_bin(), "mod8-count"), config);
    assert_eq!(result.metrics.executed_maps, 12);

    // Worker-originated counters merged into the parent registry.
    let snap = obs.registry.snapshot();
    assert_eq!(
        snap.counter_total("approx_worker_attempts_total"),
        12,
        "one worker-side attempt counter tick per executed map"
    );
    assert!(
        snap.counter_total("approx_worker_records_total") > 0,
        "worker-side record counts must merge into the parent"
    );

    // Worker spans nest under task-attempt spans and stay inside them.
    let events = obs.tracer.events();
    let spans: HashMap<u64, &TraceEvent> = events
        .iter()
        .filter(|e| e.phase == 'X')
        .filter_map(|e| e.span.map(|s| (s.0, e)))
        .collect();
    let workers: Vec<&&TraceEvent> = spans.values().filter(|e| e.category == "worker").collect();
    let tasks: Vec<&&TraceEvent> = spans.values().filter(|e| e.category == "task").collect();
    assert_eq!(tasks.len(), 12, "one task span per executed map");
    assert!(
        workers.len() >= tasks.len(),
        "each attempt ships worker spans (read/map/drain), got {}",
        workers.len()
    );
    let names: std::collections::HashSet<&str> = workers.iter().map(|e| e.name.as_str()).collect();
    for phase in ["read block", "map+combine", "drain shuffle"] {
        assert!(names.contains(phase), "missing worker span `{phase}`");
    }
    for w in &workers {
        let parent = w.parent.expect("worker span has a parent");
        let owner = spans.get(&parent.0).expect("worker parent span exists");
        assert_eq!(owner.category, "task", "worker spans nest under tasks");
        assert_eq!(owner.pid, w.pid, "worker spans stay on the job's lane");
        assert_eq!(owner.tid, w.tid, "worker spans share the task's lane");
        assert!(
            w.ts_us >= owner.ts_us && w.ts_us + w.dur_us <= owner.ts_us + owner.dur_us,
            "worker span [{}, {}] escapes task [{}, {}]",
            w.ts_us,
            w.ts_us + w.dur_us,
            owner.ts_us,
            owner.ts_us + owner.dur_us
        );
    }
}

/// A worker crash triggers a flight-recorder dump: the scheduler's
/// recent-decision ring lands as structured JSON in the configured
/// directory, even when retries save the job afterwards.
#[test]
fn worker_crash_writes_flight_recorder_dump() {
    let dir = std::env::temp_dir().join(format!("approx-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut params = Vec::new();
    5u64.encode(&mut params);
    0u32.encode(&mut params);
    let crash_spec = WorkerSpec::new(worker_bin(), "crash-at").with_params(params);
    let config = JobConfig {
        flight_dir: Some(dir.clone()),
        ..retry_config()
    };
    let (result, _) = run_process(&crash_spec, config);
    assert_eq!(result.metrics.executed_maps, 12, "retries save the job");

    let path = dir.join("flight-job_0009-worker-crash.json");
    assert!(path.is_file(), "missing flight dump at {}", path.display());
    let text = std::fs::read_to_string(&path).unwrap();
    let v = approxhadoop_obs::json::parse(&text).expect("flight dump parses as JSON");
    assert_eq!(v.get("job").and_then(|j| j.as_str()), Some("job_0009"));
    assert_eq!(
        v.get("reason").and_then(|r| r.as_str()),
        Some("worker-crash")
    );
    let entries = v
        .get("entries")
        .and_then(|e| e.as_array())
        .expect("entries array");
    assert!(!entries.is_empty(), "dump must carry ring entries");
    let kinds: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("kind").and_then(|k| k.as_str()))
        .collect();
    assert!(
        kinds.contains(&"launch"),
        "ring records launches: {kinds:?}"
    );
    assert!(
        kinds.contains(&"failed"),
        "ring records the crash as a failed attempt: {kinds:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Telemetry must be cheap on the process backend too: the same job
/// with worker registries, spans, and telemetry frames enabled stays
/// within noise of the uninstrumented run. (The documented budget is
/// <= 5%; the assertion is looser so CI jitter cannot flake it.)
#[test]
fn process_telemetry_overhead_is_bounded() {
    let run_once = |obs: Option<std::sync::Arc<Obs>>| -> f64 {
        let config = JobConfig {
            obs,
            ..retry_config()
        };
        let start = std::time::Instant::now();
        let (result, _) = run_process(&WorkerSpec::new(worker_bin(), "mod8-count"), config);
        assert_eq!(result.metrics.executed_maps, 12);
        start.elapsed().as_secs_f64()
    };
    // Warm up once, then best-of-3 each: process spawn and pipe setup
    // dominate, so the minimum damps scheduler noise best.
    run_once(None);
    let plain = (0..3).map(|_| run_once(None)).fold(f64::MAX, f64::min);
    let traced = (0..3)
        .map(|_| run_once(Some(Obs::shared())))
        .fold(f64::MAX, f64::min);
    assert!(
        traced <= plain * 1.5 + 0.1,
        "telemetry-on run too slow: {traced:.4}s vs {plain:.4}s telemetry-off"
    );
}

/// After a job completes, no worker process may survive — not even
/// reparented to init. A worker whose parent pipe is gone exits on its
/// own; the executor SIGTERMs and reaps the rest on drop.
#[test]
fn workers_do_not_outlive_their_job() {
    let (result, _) = run_process(&WorkerSpec::new(worker_bin(), "mod8-count"), retry_config());
    assert_eq!(result.metrics.executed_maps, 12);

    // Give the reaped children a beat, then scan for orphans: any
    // process running our worker binary whose parent is init (PPID 1)
    // escaped the reaper. Workers owned by concurrently running tests
    // still have their test process as parent and don't count.
    std::thread::sleep(Duration::from_millis(200));
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if !cmdline
            .split(|b| *b == 0)
            .next()
            .is_some_and(|argv0| String::from_utf8_lossy(argv0).contains("approx-worker-rt"))
        {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // stat field 4 (after the parenthesised comm) is the PPID.
        if let Some(rest) = stat.rsplit(')').next() {
            let ppid: Option<u32> = rest.split_whitespace().nth(1).and_then(|s| s.parse().ok());
            if ppid == Some(1) {
                orphans.push(pid);
            }
        }
    }
    assert!(orphans.is_empty(), "orphaned worker processes: {orphans:?}");
}
