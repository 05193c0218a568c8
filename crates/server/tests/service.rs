//! Service-layer integration tests: concurrent-submission determinism,
//! cancellation mid-wave, two-tenant fairness, and load-driven
//! degradation within the error budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use approxhadoop_runtime::event::JobEvent;
use approxhadoop_runtime::input::{InputSource, SplitMeta, SplitStream, VecSource};
use approxhadoop_runtime::mapper::FnMapper;
use approxhadoop_runtime::reducer::GroupedReducer;
use approxhadoop_runtime::RuntimeError;
use approxhadoop_server::admission::{AdmissionConfig, ApproxBudget};
use approxhadoop_server::service::{JobHandle, JobService, JobSpec};

fn blocks(n: usize, per_block: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|b| (0..per_block).map(|i| (b * per_block + i) as u32).collect())
        .collect()
}

type SumHandle = JobHandle<(u8, u64)>;

/// The job's events up to its terminal `Done`/`Failed`, which the
/// service sends before the result: read these, then `wait`.
fn events_to_end<O>(h: &JobHandle<O>) -> Vec<JobEvent> {
    let mut events = Vec::new();
    for e in h.events().iter() {
        let end = matches!(e, JobEvent::Done { .. } | JobEvent::Failed { .. });
        events.push(e);
        if end {
            break;
        }
    }
    events
}

/// Submits a per-key summing job; `delay_us` slows each record down to
/// make jobs long enough to observe scheduling.
fn submit_sum(
    service: &JobService,
    spec: JobSpec,
    input: Vec<Vec<u32>>,
    delay_us: u64,
) -> SumHandle {
    service
        .submit(
            spec,
            Arc::new(VecSource::new(input)),
            Arc::new(FnMapper::new(
                move |x: &u32, emit: &mut dyn FnMut(u8, u64)| {
                    if delay_us > 0 {
                        std::thread::sleep(Duration::from_micros(delay_us));
                    }
                    emit((x % 4) as u8, *x as u64)
                },
            )),
            |_| GroupedReducer::new(|k: &u8, vs: &[u64]| Some((*k, vs.iter().sum::<u64>()))),
        )
        .unwrap()
}

#[test]
fn concurrent_submissions_are_deterministic_under_fixed_seed() {
    // Eight concurrent copies of the same approximate job (fixed seed,
    // controller disabled so admission cannot vary the ratios) must all
    // produce identical outputs, regardless of pool interleaving.
    let service = JobService::new(
        4,
        AdmissionConfig {
            enabled: false,
            ..Default::default()
        },
    );
    let input = blocks(16, 50);
    let spec = JobSpec {
        seed: 42,
        budget: ApproxBudget {
            base_drop_ratio: 0.25,
            max_drop_ratio: 0.25,
            base_sampling_ratio: 0.5,
            min_sampling_ratio: 0.5,
        },
        ..Default::default()
    };
    let handles: Vec<SumHandle> = (0..8)
        .map(|_| submit_sum(&service, spec.clone(), input.clone(), 0))
        .collect();
    let mut results: Vec<Vec<(u8, u64)>> = handles
        .into_iter()
        .map(|h| {
            let mut out = h.wait().unwrap().outputs;
            out.sort();
            out
        })
        .collect();
    let first = results.remove(0);
    assert!(!first.is_empty());
    for (i, r) in results.iter().enumerate() {
        assert_eq!(*r, first, "job {} diverged", i + 1);
    }
}

#[test]
fn cancellation_mid_wave_fails_job_and_leaves_service_usable() {
    let service = JobService::new(2, AdmissionConfig::default());
    // A long job: 60 maps × 40 records × 500µs ≈ 1.2 s of slot time.
    let h = submit_sum(&service, JobSpec::default(), blocks(60, 40), 500);
    // Wait until at least one wave completed, then cancel mid-flight.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match h.events().recv_timeout(Duration::from_secs(5)) {
            Ok(JobEvent::Wave { finished, .. }) if finished > 0 => break,
            Ok(_) => {}
            Err(_) => panic!("no progress events before cancellation"),
        }
        assert!(Instant::now() < deadline, "timed out waiting for a wave");
    }
    h.cancel();
    let events = events_to_end(&h);
    let err = h.wait().unwrap_err();
    assert!(matches!(err, RuntimeError::Cancelled), "got {err:?}");
    let failed = events
        .into_iter()
        .any(|e| matches!(e, JobEvent::Failed { .. }));
    assert!(failed, "a Failed event must be streamed on cancellation");
    // The pool survives the cancelled tenant: a fresh job completes.
    let h2 = submit_sum(&service, JobSpec::default(), blocks(4, 10), 0);
    assert!(h2.wait().is_ok());
}

#[test]
fn two_tenant_fairness_small_job_is_not_starved() {
    // One slot. A long job floods the pool first; a short job with equal
    // weight arrives afterwards. Under FIFO the short job would wait for
    // the long job's entire backlog; under weighted fair sharing its few
    // tasks interleave 1:1, so it must finish well before the long job.
    let service = JobService::new(
        1,
        AdmissionConfig {
            enabled: false,
            ..Default::default()
        },
    );
    let long = submit_sum(
        &service,
        JobSpec {
            name: "long".into(),
            map_slots: 8,
            ..Default::default()
        },
        blocks(40, 20),
        300,
    );
    // Let the long job occupy the slot and queue a backlog.
    std::thread::sleep(Duration::from_millis(30));
    let start = Instant::now();
    let short = submit_sum(
        &service,
        JobSpec {
            name: "short".into(),
            map_slots: 8,
            ..Default::default()
        },
        blocks(4, 20),
        300,
    );
    short.wait().unwrap();
    let short_latency = start.elapsed();
    long.wait().unwrap();
    let long_latency = start.elapsed();
    assert!(
        short_latency < long_latency / 2,
        "short job ({short_latency:?}) should finish far before the long job ({long_latency:?})"
    );
}

#[test]
fn overload_degrades_later_jobs_within_budget() {
    // Impossible p99 target: every completion marks the service
    // overloaded, ratcheting the degrade factor up. Later jobs must be
    // admitted with more aggressive ratios — but never beyond budget.
    let service = JobService::new(
        2,
        AdmissionConfig {
            p99_target_secs: 1e-6,
            increase_step: 0.5,
            ..Default::default()
        },
    );
    let budget = ApproxBudget::up_to(0.5, 0.25);
    let spec = JobSpec {
        budget,
        ..Default::default()
    };
    let first = submit_sum(&service, spec.clone(), blocks(8, 20), 0);
    assert_eq!(first.drop_ratio, 0.0, "no history: admitted precise");
    first.wait().unwrap();
    let second = submit_sum(&service, spec.clone(), blocks(8, 20), 0);
    assert!(
        second.degrade > 0.0,
        "controller must degrade after an over-target completion"
    );
    assert!(second.drop_ratio > 0.0 && second.drop_ratio <= budget.max_drop_ratio);
    assert!(second.sampling_ratio < 1.0 && second.sampling_ratio >= budget.min_sampling_ratio);
    let result = second.wait().unwrap();
    assert!(
        result.metrics.dropped_maps > 0 || result.metrics.effective_sampling_ratio() < 1.0,
        "degradation must actually reduce work"
    );
    // A precise-budget job is untouched even under full overload.
    let precise = submit_sum(
        &service,
        JobSpec {
            budget: ApproxBudget::precise(),
            ..Default::default()
        },
        blocks(4, 10),
        0,
    );
    assert_eq!(precise.drop_ratio, 0.0);
    assert_eq!(precise.sampling_ratio, 1.0);
    let r = precise.wait().unwrap();
    assert_eq!(r.metrics.dropped_maps, 0);
    assert_eq!(r.metrics.executed_maps, 4);
}

#[test]
fn deadline_job_completes_approximately_via_service() {
    let service = JobService::new(1, AdmissionConfig::default());
    let spec = JobSpec {
        map_slots: 1,
        deadline: Some(Duration::from_millis(50)),
        ..Default::default()
    };
    // ~50 maps × 20 records × 400µs ≈ 400 ms of work against a 50 ms
    // deadline: the job must cut itself short, not fail.
    let h = submit_sum(&service, spec, blocks(50, 20), 400);
    let result = h.wait().unwrap();
    assert!(result.metrics.deadline_hit);
    assert!(result.metrics.executed_maps < 50);
}

#[test]
fn event_stream_brackets_the_job() {
    let service = JobService::new(2, AdmissionConfig::default());
    let h = submit_sum(&service, JobSpec::default(), blocks(5, 10), 0);
    let events = events_to_end(&h);
    h.wait().unwrap();
    assert!(
        matches!(events.first(), Some(JobEvent::Queued { .. })),
        "events: {events:?}"
    );
    assert!(
        matches!(events.last(), Some(JobEvent::Done { .. })),
        "events: {events:?}"
    );
    assert!(events.iter().any(|e| matches!(
        e,
        JobEvent::Wave {
            finished: 5,
            total: 5,
            ..
        }
    )));
}

#[test]
fn wave_events_carry_running_bound_when_reducers_report() {
    use approxhadoop_core::multistage::{
        Aggregation, BoundMonitor, MultiStageMapper, MultiStageReducer,
    };

    // A GroupedReducer never reports a bound: every wave says `None`.
    let service = JobService::new(2, AdmissionConfig::default());
    let h = submit_sum(&service, JobSpec::default(), blocks(6, 10), 0);
    let events = events_to_end(&h);
    h.wait().unwrap();
    for e in events {
        if let JobEvent::Wave { worst_bound, .. } = e {
            assert_eq!(worst_bound, None, "unmonitored job must not report");
        }
    }

    // A monitored multistage reducer streams its bound; the final wave
    // (all maps finished) must carry it.
    let h = service
        .submit(
            JobSpec::default(),
            Arc::new(VecSource::new(blocks(6, 10))),
            Arc::new(MultiStageMapper::new(
                |x: &u32, emit: &mut dyn FnMut(u8, f64)| emit((x % 4) as u8, *x as f64),
            )),
            |_| {
                MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95)
                    .with_monitor(BoundMonitor::reporting())
            },
        )
        .unwrap();
    let events = events_to_end(&h);
    h.wait().unwrap();
    let waves: Vec<JobEvent> = events
        .into_iter()
        .filter(|e| matches!(e, JobEvent::Wave { .. }))
        .collect();
    assert!(!waves.is_empty());
    let bound_of = |e: &JobEvent| match e {
        JobEvent::Wave {
            finished,
            total,
            worst_bound,
            ..
        } => (*finished, *total, *worst_bound),
        _ => unreachable!(),
    };
    let (finished, total, worst_bound) = bound_of(waves.last().unwrap());
    assert_eq!((finished, total), (6, 6));
    assert!(
        worst_bound.is_some(),
        "final wave of a monitored job must carry the running bound"
    );
}

/// A latch the test opens once. Waiting gives up after a minute, so an
/// engine that never opens it fails the test instead of hanging it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait(&self) {
        let open = self.open.lock().unwrap();
        let _ = self
            .opened
            .wait_timeout_while(open, Duration::from_secs(60), |open| !*open)
            .unwrap();
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// A `VecSource` whose blocks past the first `free` opened wait for the
/// gate before they can be read.
struct GatedAfter {
    inner: VecSource<u32>,
    free: usize,
    opened: AtomicUsize,
    gate: Arc<Gate>,
}

impl InputSource for GatedAfter {
    type Item = u32;

    fn splits(&self) -> Vec<SplitMeta> {
        self.inner.splits()
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> approxhadoop_runtime::Result<SplitStream<'_, u32>> {
        if self.opened.fetch_add(1, Ordering::SeqCst) >= self.free {
            self.gate.wait();
        }
        self.inner.stream_split(index, sampling_ratio, seed)
    }
}

#[test]
fn goal_job_on_shared_pool_stops_early_once_the_bound_is_met() {
    use approxhadoop_core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
    use approxhadoop_server::service::ErrorGoal;

    // Forty identical clusters (every block sums to the same value):
    // the between-cluster variance is zero, so the first wave already
    // proves the bound and the coordinator must drop the whole tail
    // instead of running the job to completion.
    // Blocks past the first wave (one per slot) wait until the job's
    // finished count passes that wave, which only dropping can do while
    // they wait. So the reducer's bound is always in before a second
    // wave could finish: on live threads, 40 tiny maps could otherwise
    // all finish before the reducer thread reports.
    let gate = Arc::new(Gate::default());
    let input = GatedAfter {
        inner: VecSource::new((0..40).map(|_| vec![1u32; 25]).collect()),
        free: 4,
        opened: AtomicUsize::new(0),
        gate: Arc::clone(&gate),
    };
    let service = JobService::new(4, AdmissionConfig::default());
    let spec = JobSpec {
        map_slots: 4,
        reduce_tasks: 1,
        ..Default::default()
    };
    let h = service
        .submit_with_goal(
            spec,
            ErrorGoal::relative(0.05), // "±5% at 95%"
            Arc::new(input),
            Arc::new(MultiStageMapper::new(
                |x: &u32, emit: &mut dyn FnMut(u8, f64)| emit(0u8, *x as f64),
            )),
            // The factory receives the policy's bound monitor; attaching
            // it is what lets the coordinator see this reducer's running
            // bound and stop the job.
            |_, monitor| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95).with_monitor(monitor),
        )
        .unwrap();
    while let Ok(event) = h.events().recv_timeout(Duration::from_secs(60)) {
        match event {
            JobEvent::Wave { finished, .. } if finished > 4 => break,
            JobEvent::Done { .. } | JobEvent::Failed { .. } => break,
            _ => {}
        }
    }
    gate.open();
    let r = h.wait().unwrap();
    let m = &r.metrics;
    assert_eq!(m.total_maps, 40);
    assert!(
        m.executed_maps < m.total_maps,
        "goal job never stopped early: executed {} of {}",
        m.executed_maps,
        m.total_maps
    );
    assert!(m.dropped_maps > 0);
    assert_eq!(m.executed_maps + m.dropped_maps + m.killed_maps, 40);
    // The final reported bound meets the stated goal...
    let final_bound = m
        .bound_series
        .iter()
        .rev()
        .find(|p| p.relative_bound.is_finite())
        .map(|p| p.relative_bound)
        .expect("monitored reducer reported bounds");
    assert!(final_bound <= 0.05, "final bound {final_bound} over goal");
    // ...and the estimate still covers the whole input despite the
    // dropped tail: τ̂ for 40 clusters of 25 ones is 1000.
    let (_, interval) = &r.outputs[0];
    assert!(
        (interval.estimate - 1000.0).abs() / 1000.0 <= 0.05,
        "estimate {} not within ±5% of 1000",
        interval.estimate
    );
    assert!(interval.contains(1000.0));
}
