//! Scheduler-level tests for the unified [`super::scheduler::JobTracker`]:
//! early termination, locality accounting, deterministic (fake-clock)
//! speculation and session cancellation. Early termination and locality
//! assert exact counts on the scripted `InstantExecutor`; their
//! live-thread variants assert only what does not depend on timing.
//! Kept out of `scheduler.rs` so the state machine itself stays a single
//! readable unit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use super::super::clock::FakeClock;
use super::super::executor::run_scoped;
use super::super::testutil::run_instant;
use super::super::{run_job, JobConfig};
use crate::control::FixedCoordinator;
use crate::event::{JobId, JobSession};
use crate::input::{InputSource, VecSource};
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

fn early_stop_reducer(_: usize) -> EarlyStopReducer {
    EarlyStopReducer {
        seen_outputs: 0,
        seen_drops: 0,
    }
}

/// Exact under FIFO completions with the reducer inline. The first
/// `dispatch_pending` fills both slots (2 maps), and both outputs reach
/// the reducer when the tracker next receives, so the drop request is up
/// before either completion is handled. The next loop turn starts
/// dropping: the 48 pending maps become drops, and nothing is killed.
#[test]
fn reducer_initiated_drop_terminates_job() {
    let splits = VecSource::new((0..50).map(|i| vec![i as u32]).collect()).splits();
    let config = JobConfig {
        map_slots: 2,
        ..Default::default()
    };
    let result = run_instant(splits, early_stop_reducer, config, (0, 1)).unwrap();
    assert_eq!(result.outputs, vec![(2, 48)]);
    assert_eq!(result.metrics.executed_maps, 2);
    assert_eq!(result.metrics.dropped_maps, 48);
    assert_eq!(result.metrics.killed_maps, 0);
}

/// The same job on live threads: how many maps finish before the drop
/// request lands depends on timing, so only what does not is asserted.
#[test]
fn reducer_initiated_drop_on_live_threads_accounts_every_map() {
    let blocks: Vec<Vec<u32>> = (0..50).map(|_| (0..200).collect()).collect();
    let input = VecSource::new(blocks);
    let mapper = FnMapper::new(|item: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *item));
    let config = JobConfig {
        map_slots: 2,
        ..Default::default()
    };
    let result = run_job(&input, &mapper, early_stop_reducer, config).unwrap();
    let (outputs, drops) = result.outputs[0];
    assert!(outputs >= 2, "at least the triggering maps completed");
    assert_eq!(outputs + drops, 50);
    assert_eq!(
        result.metrics.executed_maps + result.metrics.dropped_maps + result.metrics.killed_maps,
        50
    );
}

/// Requests early termination on its first map output; reports how many
/// maps it saw as outputs or drops.
struct InstantStop;

impl Reducer for InstantStop {
    type Key = u8;
    type Value = u32;
    type Output = usize;
    fn on_map_output(&mut self, _m: &MapOutputMeta, _p: Vec<(u8, u32)>, ctx: &mut ReduceContext) {
        ctx.request_drop_remaining();
    }
    fn finish(&mut self, ctx: &mut ReduceContext) -> Vec<usize> {
        vec![ctx.maps_seen()]
    }
}

fn many_reducers_config() -> JobConfig {
    JobConfig {
        map_slots: 3,
        reduce_tasks: 5,
        ..Default::default()
    }
}

/// Early termination during the very first map output, with many
/// reducers: everything still shuts down cleanly. Exact under FIFO
/// completions with the reducers inline: the first dispatch fills the 3
/// slots, their outputs raise the drop request before any completion is
/// handled, and the other 27 maps are dropped.
#[test]
fn immediate_drop_request_with_many_reducers() {
    let splits = VecSource::new((0..30).map(|i| vec![i as u32]).collect()).splits();
    let result = run_instant(splits, |_| InstantStop, many_reducers_config(), (0, 1)).unwrap();
    // Every reducer observes all 30 maps (as outputs or drop
    // notifications).
    assert_eq!(result.outputs, vec![30; 5]);
    assert_eq!(result.metrics.executed_maps, 3);
    assert_eq!(result.metrics.dropped_maps, 27);
}

/// The same job on live threads: how many maps run before a reducer
/// thread raises the request depends on timing, so only what does not
/// is asserted.
#[test]
fn immediate_drop_request_on_live_threads_reaches_every_reducer() {
    let input = VecSource::new((0..30).map(|i| vec![i as u32]).collect());
    let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| emit(*v as u8, *v));
    let result = run_job(&input, &mapper, |_| InstantStop, many_reducers_config()).unwrap();
    assert_eq!(result.outputs, vec![30; 5]);
    assert_eq!(
        result.metrics.executed_maps + result.metrics.dropped_maps + result.metrics.killed_maps,
        30
    );
}

/// 12 blocks, each local to exactly one of 4 servers round-robin.
fn locality_input() -> VecSource<u32> {
    let blocks: Vec<Vec<u32>> = (0..12).map(|i| vec![i as u32]).collect();
    let locations: Vec<Vec<usize>> = (0..12).map(|i| vec![i % 4]).collect();
    VecSource::new(blocks).with_locations(locations)
}

fn locality_config() -> JobConfig {
    JobConfig {
        map_slots: 4,
        servers: 4,
        ..Default::default()
    }
}

/// Exact under FIFO completions: with 4 servers × 1 slot, every
/// `dispatch_pending` finds all four servers free, and each still hosts
/// as many pending blocks as every other (3, then 2, then 1), so each
/// server picks a local block every time.
#[test]
fn locality_preference_is_tracked() {
    let result = run_instant(
        locality_input().splits(),
        |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
        locality_config(),
        (0, 1),
    )
    .unwrap();
    assert_eq!(result.outputs, vec![12]);
    assert_eq!(result.metrics.executed_maps, 12);
    assert_eq!(result.metrics.local_maps, 12);
}

/// The same job on live threads: a server that finishes its local blocks
/// first may take a neighbour's, so the local count depends on timing
/// and only the outputs are asserted.
#[test]
fn locality_job_on_live_threads_runs_every_map() {
    let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *v));
    let result = run_job(
        &locality_input(),
        &mapper,
        |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
        locality_config(),
    )
    .unwrap();
    assert_eq!(result.outputs, vec![12]);
    assert_eq!(result.metrics.executed_maps, 12);
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
