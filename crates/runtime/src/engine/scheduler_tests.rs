//! Scheduler-level tests for the unified [`super::scheduler::JobTracker`]:
//! early termination, locality accounting, deterministic (fake-clock)
//! speculation and session cancellation. Kept out of `scheduler.rs` so
//! the state machine itself stays a single readable unit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use super::super::clock::FakeClock;
use super::super::executor::run_scoped;
use super::super::{run_job, JobConfig};
use crate::control::FixedCoordinator;
use crate::event::{JobId, JobSession};
use crate::input::VecSource;
use crate::mapper::{FnMapper, MapTaskContext, Mapper};
use crate::reducer::{GroupedReducer, MapOutputMeta, ReduceContext, Reducer};
use crate::types::TaskId;

/// A reducer that requests early termination after the first map
/// output — the GEV-style "target achieved, kill the rest" path.
struct EarlyStopReducer {
    seen_outputs: usize,
    seen_drops: usize,
}

impl Reducer for EarlyStopReducer {
    type Key = u8;
    type Value = u32;
    type Output = (usize, usize);

    fn on_map_output(
        &mut self,
        _meta: &MapOutputMeta,
        _pairs: Vec<(u8, u32)>,
        ctx: &mut ReduceContext,
    ) {
        self.seen_outputs += 1;
        if self.seen_outputs >= 2 {
            ctx.request_drop_remaining();
        }
    }

    fn on_map_dropped(&mut self, _task: TaskId, _ctx: &mut ReduceContext) {
        self.seen_drops += 1;
    }

    fn finish(&mut self, _ctx: &mut ReduceContext) -> Vec<(usize, usize)> {
        vec![(self.seen_outputs, self.seen_drops)]
    }
}

#[test]
fn reducer_initiated_drop_terminates_job() {
    let blocks: Vec<Vec<u32>> = (0..50).map(|_| (0..200).collect()).collect();
    let input = VecSource::new(blocks);
    let mapper = FnMapper::new(|item: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *item));
    let config = JobConfig {
        map_slots: 2,
        ..Default::default()
    };
    let result = run_job(
        &input,
        &mapper,
        |_| EarlyStopReducer {
            seen_outputs: 0,
            seen_drops: 0,
        },
        config,
    )
    .unwrap();
    let (outputs, drops) = result.outputs[0];
    assert!(outputs >= 2, "at least the triggering maps completed");
    assert!(drops > 0, "remaining maps were dropped");
    assert_eq!(outputs + drops, 50);
    assert!(
        result.metrics.executed_maps < 50,
        "job must not run all maps: {}",
        result.metrics.executed_maps
    );
    assert_eq!(
        result.metrics.executed_maps + result.metrics.dropped_maps + result.metrics.killed_maps,
        50
    );
}

/// Early termination during the very first map output, with many
/// reducers: everything still shuts down cleanly.
#[test]
fn immediate_drop_request_with_many_reducers() {
    struct InstantStop;
    impl Reducer for InstantStop {
        type Key = u8;
        type Value = u32;
        type Output = usize;
        fn on_map_output(
            &mut self,
            _m: &MapOutputMeta,
            _p: Vec<(u8, u32)>,
            ctx: &mut ReduceContext,
        ) {
            ctx.request_drop_remaining();
        }
        fn finish(&mut self, ctx: &mut ReduceContext) -> Vec<usize> {
            vec![ctx.maps_seen()]
        }
    }
    let blocks: Vec<Vec<u32>> = (0..30).map(|i| vec![i as u32]).collect();
    let input = VecSource::new(blocks);
    let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| emit(*v as u8, *v));
    let result = run_job(
        &input,
        &mapper,
        |_| InstantStop,
        JobConfig {
            map_slots: 3,
            reduce_tasks: 5,
            ..Default::default()
        },
    )
    .unwrap();
    // Every reducer eventually observes all 30 maps (as outputs or
    // drop notifications).
    assert_eq!(result.outputs, vec![30; 5]);
    assert!(result.metrics.executed_maps < 30);
}

#[test]
fn locality_preference_is_tracked() {
    // 12 blocks, each local to exactly one of 4 servers round-robin;
    // with 4 servers × 1 slot, every task can be scheduled locally.
    let blocks: Vec<Vec<u32>> = (0..12).map(|i| vec![i as u32]).collect();
    let locations: Vec<Vec<usize>> = (0..12).map(|i| vec![i % 4]).collect();
    let input = VecSource::new(blocks).with_locations(locations);
    let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *v));
    let config = JobConfig {
        map_slots: 4,
        servers: 4,
        ..Default::default()
    };
    let result = run_job(
        &input,
        &mapper,
        |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
        config,
    )
    .unwrap();
    assert_eq!(result.outputs, vec![12]);
    assert_eq!(result.metrics.executed_maps, 12);
    assert!(
        result.metrics.local_maps >= 9,
        "most maps should be local, got {}",
        result.metrics.local_maps
    );
}

/// A reopenable gate the straggling attempt blocks on.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// One task's first attempt advances the fake clock far past the
/// straggler threshold and then parks on a gate; the speculative
/// duplicate (attempt 1) opens the gate as it starts. No real
/// sleeps: "slowness" is a clock jump, so the test is deterministic
/// under any machine load.
struct StragglerMapper {
    clock: Arc<FakeClock>,
    gate: Arc<Gate>,
    slow_task: usize,
}

impl Mapper for StragglerMapper {
    type Item = u32;
    type Key = u8;
    type Value = u64;
    type TaskState = MapTaskContext;

    fn begin_task(&self, ctx: &MapTaskContext) -> MapTaskContext {
        *ctx
    }

    fn map(&self, st: &mut MapTaskContext, _item: u32, emit: &mut dyn FnMut(u8, u64)) {
        if st.task.0 == self.slow_task {
            if st.attempt == 0 {
                self.clock.advance(Duration::from_secs(10));
                self.gate.wait();
            } else {
                self.gate.open();
            }
        }
        emit(0, 1);
    }
}

#[test]
fn speculative_execution_completes_correctly() {
    let blocks: Vec<Vec<u32>> = (0..8).map(|_| (0..50).collect()).collect();
    let input = VecSource::new(blocks);
    let clock = Arc::new(FakeClock::new());
    let gate = Arc::new(Gate::new());
    let mapper = StragglerMapper {
        clock: Arc::clone(&clock),
        gate: Arc::clone(&gate),
        slow_task: 5,
    };
    let config = JobConfig {
        map_slots: 4,
        speculative: true,
        straggler_factor: 2.0,
        ..Default::default()
    };
    let mut coordinator = FixedCoordinator::new(8, 1.0, 0.0, config.seed);
    let session = JobSession::new(JobId(0));
    let result = run_scoped::<_, _, _, _>(
        &input,
        &mapper,
        |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some(vs.len())),
        config,
        &mut coordinator,
        &session,
        &*clock,
    )
    .unwrap();
    assert_eq!(result.outputs, vec![400]);
    assert_eq!(result.metrics.executed_maps, 8);
    assert!(
        result.metrics.speculative_attempts >= 1,
        "the straggler must be duplicated"
    );
}

/// A mapper that cancels its own session after the first item of the
/// first task — the job must fail with `Cancelled` without running
/// the remaining maps, deterministically.
#[test]
fn cancellation_via_session_aborts_scoped_job() {
    let blocks: Vec<Vec<u32>> = (0..40).map(|_| (0..20).collect()).collect();
    let input = VecSource::new(blocks);
    let session = JobSession::new(JobId(9));
    let handle = session.cancel_handle();
    let cancelled_after = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&cancelled_after);
    let mapper = FnMapper::new(move |_: &u32, emit: &mut dyn FnMut(u8, u32)| {
        if counter.fetch_add(1, Ordering::SeqCst) == 0 {
            handle.cancel();
        }
        emit(0, 1);
    });
    let config = JobConfig {
        map_slots: 1,
        ..Default::default()
    };
    let mut coordinator = FixedCoordinator::new(40, 1.0, 0.0, config.seed);
    let result = run_scoped::<_, _, _, _>(
        &input,
        &mapper,
        |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
        config,
        &mut coordinator,
        &session,
        &super::super::clock::SystemClock,
    );
    assert!(matches!(result, Err(crate::RuntimeError::Cancelled)));
}
