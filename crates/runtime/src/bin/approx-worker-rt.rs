//! Worker binary for the runtime crate's own process-backend tests.
//!
//! Registers the jobs the differential and spill test suites submit;
//! deployments register their jobs in their own worker binary (see the
//! workspace-level `approx-worker`).

use approxhadoop_ipc::{Decoder, Wire};
use approxhadoop_runtime::combine::{Combined, SumCombiner};
use approxhadoop_runtime::engine::process::{worker_main, JobRegistry};
use approxhadoop_runtime::input::DatasetId;
use approxhadoop_runtime::mapper::{FnMapper, MapTaskContext, Mapper};

/// A mod-8 counting mapper that aborts the whole worker process when it
/// starts the attempt named in its params — the test harness's stand-in
/// for a worker crash (OOM kill, segfault) mid-attempt.
struct CrashingMapper {
    task: u64,
    attempt: u32,
}

impl Mapper for CrashingMapper {
    type Item = u32;
    type Key = u8;
    type Value = u64;
    type TaskState = ();

    fn begin_task(&self, ctx: &MapTaskContext) -> Self::TaskState {
        if ctx.task.0 as u64 == self.task && ctx.attempt == self.attempt {
            std::process::abort();
        }
    }

    fn map(&self, _state: &mut (), item: u32, emit: &mut dyn FnMut(u8, u64)) {
        emit((item % 8) as u8, 1);
    }
}

/// The tagged two-dataset differential's mapper: fact rows (dataset 0)
/// count one event each, dimension rows (any other dataset) contribute a
/// small deterministic weight, so the reduce output is sensitive to both
/// the split's dataset and the per-dataset sampling decisions. The
/// dataset comes from the task context, once per task.
///
/// Must stay byte-for-byte in sync with the copy in the runtime crate's
/// `executor_equivalence` test, which runs the identical job on the
/// in-process backends.
struct TagWeigh;

impl Mapper for TagWeigh {
    type Item = u32;
    type Key = u8;
    type Value = u64;
    type TaskState = DatasetId;

    fn begin_task(&self, ctx: &MapTaskContext) -> DatasetId {
        ctx.dataset
    }

    fn map(&self, dataset: &mut DatasetId, item: u32, emit: &mut dyn FnMut(u8, u64)) {
        match dataset.0 {
            0 => emit((item % 8) as u8, 1),
            _ => emit((item % 8) as u8, 1_000 + u64::from(item % 7)),
        }
    }
}

fn main() {
    let mut registry = JobRegistry::new();

    // The fault-injection differential: count values mod 8.
    registry.register("mod8-count", |_params: &[u8]| {
        Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
            emit((*v % 8) as u8, 1)
        }))
    });

    // The precise differential: everything onto one key.
    registry.register("sum-all", |_params: &[u8]| {
        Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
            emit(0, *v as u64)
        }))
    });

    // Combining variant, exercising the sorted-run merge on spill.
    registry.register("mod8-count-combined", |_params: &[u8]| {
        Ok(Combined::new(
            FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| emit((*v % 8) as u8, 1)),
            SumCombiner,
        ))
    });

    // Wide pairs: each record emits a ~100-byte string value, so small
    // shuffle budgets force spill runs.
    registry.register("wide-pairs", |_params: &[u8]| {
        Ok(FnMapper::new(
            |v: &u32, emit: &mut dyn FnMut(u32, String)| emit(*v % 16, format!("{v:0>100}")),
        ))
    });

    // The tagged two-dataset differential: plain `u32` records from a
    // `TaggedSource`, weighed by the dataset of the task's split.
    registry.register("tagged-weigh", |_params: &[u8]| Ok(TagWeigh));

    // Worker-crash injection: params = Wire-encoded (task: u64,
    // attempt: u32) at which the worker aborts.
    registry.register("crash-at", |params: &[u8]| {
        let mut d = Decoder::new(params);
        let task = u64::decode(&mut d).map_err(|e| format!("crash-at params: {e}"))?;
        let attempt = u32::decode(&mut d).map_err(|e| format!("crash-at params: {e}"))?;
        Ok(CrashingMapper { task, attempt })
    });

    worker_main(registry);
}
