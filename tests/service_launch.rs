//! The launch contract every `JobService::submit*` path shares.
//!
//! `submit`, `submit_with_goal` and `submit_process` differ only in the
//! engine entry point and policy they name; session set-up, the tracker
//! thread, controller feedback and the `Done`/`Failed` hand-off are one
//! routine. This table-driven suite runs the same tiny job through all
//! three and holds each to the same contract: the event stream opens
//! with `Queued` and closes with exactly one `Done` or `Failed`, every
//! finished job (failed ones included) is one controller observation and
//! a cancelled job is none, an input without splits fails cleanly, and a
//! rejected spec takes no job id.

use std::sync::{Arc, Condvar, Mutex};

use approxhadoop::core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
use approxhadoop::runtime::engine::WorkerSpec;
use approxhadoop::runtime::event::JobEvent;
use approxhadoop::runtime::input::{InputSource, SplitMeta, SplitStream, VecSource};
use approxhadoop::runtime::RuntimeError;
use approxhadoop::server::service::{ErrorGoal, JobHandle};
use approxhadoop::server::{AdmissionConfig, JobService, JobSpec};
use approxhadoop::stats::Interval;

/// A latch the test opens once; readers block until then.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// The job's input: six blocks of twenty values, or — what `VecSource`
/// refuses to be — no splits at all. With a gate, no block can be read
/// (by a pool slot, or by the process backend's spool writer) until the
/// test opens it, which pins "the job has not finished yet" without a
/// sleep.
struct Blocks {
    inner: Option<VecSource<f64>>,
    gate: Option<Arc<Gate>>,
}

impl Blocks {
    fn tiny() -> Self {
        let blocks = (0..6)
            .map(|b| (0..20).map(|i| f64::from(b * 20 + i)).collect())
            .collect();
        Blocks {
            inner: Some(VecSource::new(blocks)),
            gate: None,
        }
    }

    fn empty() -> Self {
        Blocks {
            inner: None,
            gate: None,
        }
    }

    fn gated(gate: &Arc<Gate>) -> Self {
        Blocks {
            gate: Some(Arc::clone(gate)),
            ..Blocks::tiny()
        }
    }
}

impl InputSource for Blocks {
    type Item = f64;

    fn splits(&self) -> Vec<SplitMeta> {
        self.inner.as_ref().map_or_else(Vec::new, |s| s.splits())
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> approxhadoop::runtime::Result<SplitStream<'_, f64>> {
        if let Some(gate) = &self.gate {
            gate.wait();
        }
        self.inner
            .as_ref()
            .expect("an input without splits is never read")
            .stream_split(index, sampling_ratio, seed)
    }
}

type Outputs = Vec<(u8, Interval)>;
type Handle = JobHandle<(u8, Interval)>;
type Submitted = Result<Handle, RuntimeError>;
type Submit = fn(&JobService, JobSpec, Blocks) -> Submitted;

/// The same map function the `approx-worker` binary registers as
/// `multistage-mod5-sum`.
fn mod5(x: &f64, emit: &mut dyn FnMut(u8, f64)) {
    emit((*x as u64 % 5) as u8, *x)
}

fn via_submit(service: &JobService, spec: JobSpec, input: Blocks) -> Submitted {
    service.submit(
        spec,
        Arc::new(input),
        Arc::new(MultiStageMapper::new(mod5)),
        |_| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
    )
}

fn via_goal(service: &JobService, spec: JobSpec, input: Blocks) -> Submitted {
    service.submit_with_goal(
        spec,
        ErrorGoal::relative(0.05),
        Arc::new(input),
        Arc::new(MultiStageMapper::new(mod5)),
        |_, monitor| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95).with_monitor(monitor),
    )
}

fn via_process(service: &JobService, spec: JobSpec, input: Blocks) -> Submitted {
    let worker = WorkerSpec::new(env!("CARGO_BIN_EXE_approx-worker"), "multistage-mod5-sum");
    service.submit_process(spec, Arc::new(input), worker, |_| {
        MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95)
    })
}

const PATHS: [(&str, Submit); 3] = [
    ("submit", via_submit),
    ("submit_with_goal", via_goal),
    ("submit_process", via_process),
];

fn spec() -> JobSpec {
    JobSpec {
        map_slots: 2,
        workers: 1,
        ..Default::default()
    }
}

/// Completions the admission controller has been told about.
fn controller_observations(service: &JobService) -> u64 {
    service
        .obs()
        .registry
        .histogram("admission_job_latency_secs", &[])
        .snapshot()
        .count
}

/// Waits for the job and returns its result with its whole event stream.
fn finish(handle: Handle) -> (Result<Outputs, RuntimeError>, Vec<JobEvent>) {
    let events = handle.events().clone();
    let result = handle.wait().map(|r| r.outputs);
    (result, events.try_iter().collect())
}

/// `Queued` first, one terminal event last, neither anywhere else.
fn assert_bracketed(path: &str, events: &[JobEvent], done: bool) {
    assert!(
        matches!(events.first(), Some(JobEvent::Queued { .. })),
        "{path}: {events:?}"
    );
    let terminal_ok = match events.last() {
        Some(JobEvent::Done { .. }) => done,
        Some(JobEvent::Failed { .. }) => !done,
        _ => false,
    };
    assert!(terminal_ok, "{path}: {events:?}");
    let bracket = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                JobEvent::Queued { .. } | JobEvent::Done { .. } | JobEvent::Failed { .. }
            )
        })
        .count();
    assert_eq!(bracket, 2, "{path}: {events:?}");
}

#[test]
fn finished_jobs_share_one_launch_contract() {
    for (path, submit) in PATHS {
        let service = JobService::new(2, AdmissionConfig::default());
        let handle = submit(&service, spec(), Blocks::tiny()).unwrap();
        assert_eq!(handle.id.0, 0, "{path}");
        let (result, events) = finish(handle);
        let outputs = result.unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(outputs.len(), 5, "{path}: one interval per key");
        assert_bracketed(path, &events, true);
        assert_eq!(controller_observations(&service), 1, "{path}");
        assert_eq!(service.controller().decisions_total(), 1, "{path}");
    }
}

#[test]
fn input_without_splits_fails_cleanly_on_every_path() {
    for (path, submit) in PATHS {
        let service = JobService::new(2, AdmissionConfig::default());
        let (result, events) = finish(submit(&service, spec(), Blocks::empty()).unwrap());
        assert!(
            matches!(result, Err(RuntimeError::InvalidJob { .. })),
            "{path}: {result:?}"
        );
        assert_bracketed(path, &events, false);
        // A failure is still a completion the controller learns from.
        assert_eq!(controller_observations(&service), 1, "{path}");
    }
}

#[test]
fn cancelled_jobs_tell_the_controller_nothing() {
    for (path, submit) in PATHS {
        let service = JobService::new(2, AdmissionConfig::default());
        let gate = Arc::new(Gate::default());
        let handle = submit(&service, spec(), Blocks::gated(&gate)).unwrap();
        // No block has been read yet, so the job cannot have finished:
        // the cancellation always lands on a live job.
        handle.cancel();
        gate.open();
        let (result, events) = finish(handle);
        assert!(
            matches!(result, Err(RuntimeError::Cancelled)),
            "{path}: {result:?}"
        );
        assert_bracketed(path, &events, false);
        assert_eq!(controller_observations(&service), 0, "{path}");
    }
}

#[test]
fn rejected_specs_take_no_job_id() {
    for (path, submit) in PATHS {
        let service = JobService::new(2, AdmissionConfig::default());
        let weightless = JobSpec {
            weight: 0.0,
            ..spec()
        };
        let no_reducers = JobSpec {
            reduce_tasks: 0,
            ..spec()
        };
        for bad in [weightless, no_reducers] {
            assert!(
                matches!(
                    submit(&service, bad, Blocks::tiny()),
                    Err(RuntimeError::InvalidJob { .. })
                ),
                "{path}"
            );
        }
        assert_eq!(service.submitted(), 0, "{path}");
        assert_eq!(service.controller().decisions_total(), 0, "{path}");
        // The next valid job is the service's first.
        let handle = submit(&service, spec(), Blocks::tiny()).unwrap();
        assert_eq!(handle.id.0, 0, "{path}");
        handle.wait().unwrap();
    }
}
