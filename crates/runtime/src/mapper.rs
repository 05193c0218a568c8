//! The map-side user code interface.
//!
//! A [`Mapper`] is invoked once per input record. Mappers may keep
//! per-task state (created by [`Mapper::begin_task`], flushed by
//! [`Mapper::end_task`]) — the approximation templates in
//! `approxhadoop-core` use this to aggregate per-key statistics within a
//! task before shuffling them.
//!
//! `Mapper` is the only map interface, multi-input jobs included: a
//! task reads exactly one split of exactly one dataset, so a mapper
//! that treats datasets differently reads [`MapTaskContext::dataset`]
//! in `begin_task` and keeps it in its `TaskState`.

use crate::combine::Combiner;
use crate::input::DatasetId;
use crate::types::{Key, TaskId, Value};

/// Context of one map task attempt, visible to the mapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapTaskContext {
    /// The task being executed.
    pub task: TaskId,
    /// The dataset this task's split belongs to (`DatasetId(0)` for
    /// single-input jobs).
    pub dataset: DatasetId,
    /// The input sampling ratio the scheduler chose for this task.
    pub sampling_ratio: f64,
    /// Attempt number (`> 0` for speculative duplicates).
    pub attempt: u32,
}

/// User map code. One instance is shared by all task trackers, so the
/// mapper itself must be stateless (`&self`); per-task state lives in
/// `TaskState`.
pub trait Mapper: Send + Sync {
    /// Input record type.
    type Item: Send + 'static;
    /// Intermediate key type.
    type Key: Key;
    /// Intermediate value type.
    type Value: Value;
    /// Per-task mutable state.
    type TaskState: Send;

    /// Creates the state for one map task attempt.
    fn begin_task(&self, ctx: &MapTaskContext) -> Self::TaskState;

    /// Processes one record, emitting intermediate pairs.
    fn map(
        &self,
        state: &mut Self::TaskState,
        item: Self::Item,
        emit: &mut dyn FnMut(Self::Key, Self::Value),
    );

    /// Called at the end of the task; may emit final pairs (e.g. per-task
    /// aggregates).
    fn end_task(&self, state: Self::TaskState, emit: &mut dyn FnMut(Self::Key, Self::Value)) {
        let _ = (state, emit);
    }

    /// The map-side combiner for this mapper's emissions, if any.
    ///
    /// Returning `Some` opts the job into the combining fast path: the
    /// engine folds same-key pairs per reduce partition inside the map
    /// task, so each map ships at most one value per key per reducer.
    /// Only return `Some` when the reducer treats incoming values as
    /// partial aggregates (see [`crate::combine`]); the default is no
    /// combining.
    fn combiner(&self) -> Option<&dyn Combiner<Self::Key, Self::Value>> {
        None
    }
}

/// A stateless mapper from a closure `f(&item, emit)`.
pub struct FnMapper<I, K, V, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(I) -> (K, V)>,
}

impl<I, K, V, F> FnMapper<I, K, V, F>
where
    F: Fn(&I, &mut dyn FnMut(K, V)) + Send + Sync,
{
    /// Wraps `f` as a [`Mapper`].
    pub fn new(f: F) -> Self {
        FnMapper {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<I, K, V, F> Mapper for FnMapper<I, K, V, F>
where
    I: Send + 'static,
    K: Key,
    V: Value,
    F: Fn(&I, &mut dyn FnMut(K, V)) + Send + Sync,
{
    type Item = I;
    type Key = K;
    type Value = V;
    type TaskState = ();

    fn begin_task(&self, _ctx: &MapTaskContext) -> Self::TaskState {}

    fn map(&self, _state: &mut (), item: I, emit: &mut dyn FnMut(K, V)) {
        (self.f)(&item, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx() -> MapTaskContext {
        MapTaskContext {
            task: TaskId(0),
            dataset: DatasetId::default(),
            sampling_ratio: 1.0,
            attempt: 0,
        }
    }

    #[test]
    fn fn_mapper_emits() {
        let m = FnMapper::new(|item: &u32, emit: &mut dyn FnMut(u32, u32)| {
            emit(*item % 2, *item);
        });
        let mut out = Vec::new();
        Mapper::begin_task(&m, &test_ctx());
        Mapper::map(&m, &mut (), 5, &mut |k, v| out.push((k, v)));
        Mapper::map(&m, &mut (), 6, &mut |k, v| out.push((k, v)));
        Mapper::end_task(&m, (), &mut |k, v| out.push((k, v)));
        assert_eq!(out, vec![(1, 5), (0, 6)]);
    }

    struct CountingMapper;

    impl Mapper for CountingMapper {
        type Item = u32;
        type Key = &'static str;
        type Value = u64;
        type TaskState = u64;

        fn begin_task(&self, _ctx: &MapTaskContext) -> u64 {
            0
        }

        fn map(&self, state: &mut u64, _item: u32, _emit: &mut dyn FnMut(&'static str, u64)) {
            *state += 1;
        }

        fn end_task(&self, state: u64, emit: &mut dyn FnMut(&'static str, u64)) {
            emit("count", state);
        }
    }

    #[test]
    fn stateful_mapper_flushes_at_end() {
        let m = CountingMapper;
        let mut out = Vec::new();
        let mut state = Mapper::begin_task(&m, &test_ctx());
        for i in 0..5 {
            Mapper::map(&m, &mut state, i, &mut |k, v| out.push((k, v)));
        }
        Mapper::end_task(&m, state, &mut |k, v| out.push((k, v)));
        assert_eq!(out, vec![("count", 5)]);
    }
}
