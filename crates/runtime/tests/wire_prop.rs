//! Property tests for the process backend's frame protocol: every
//! `ToWorker`/`FromWorker` frame — including fault-plan and sampling
//! payloads — round-trips bit-exactly, and truncated or corrupted
//! frames are rejected instead of mis-decoding.

use approxhadoop_ipc::{Wire, WireError};
use approxhadoop_runtime::engine::process::wire::{
    FromWorker, ToWorker, WireJobError, WireWorkItem, WorkerJobSpec,
};
use approxhadoop_runtime::input::DatasetId;
use approxhadoop_runtime::metrics::MapStats;
use approxhadoop_runtime::{FaultPlan, TaskId};
use proptest::prelude::*;

/// Builds the sampling-and-faults work item the strategies below vary.
#[allow(clippy::too_many_arguments)]
fn work_item(
    task: u64,
    dataset: u32,
    attempt: u32,
    ratio: f64,
    seed: u64,
    combining: bool,
    with_fault: bool,
    fault_seed: u64,
) -> WireWorkItem {
    WireWorkItem {
        task,
        dataset,
        attempt,
        sampling_ratio: ratio,
        seed,
        combining,
        span: seed ^ task,
        fault: with_fault.then_some(FaultPlan {
            seed: fault_seed,
            map_panic_prob: 0.125,
            map_io_error_prob: 0.25,
        }),
    }
}

/// Decoding must either succeed or return a structured `WireError` —
/// never panic, never allocate absurdly.
fn decodes_cleanly<T: Wire>(bytes: &[u8]) -> bool {
    match T::from_bytes(bytes) {
        Ok(_) => true,
        Err(WireError::Truncated { .. }) | Err(WireError::Corrupt { .. }) => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn work_frames_roundtrip(task in 0u64..1_000_000,
                             dataset in 0u32..8,
                             attempt in 0u32..16,
                             ratio in 0.001..1.0f64,
                             seed in 0u64..u64::MAX,
                             combining in 0u8..2,
                             with_fault in 0u8..2,
                             fault_seed in 0u64..u64::MAX) {
        let w = work_item(task, dataset, attempt, ratio, seed, combining == 1, with_fault == 1, fault_seed);
        let frame = ToWorker::Work(w.clone()).to_bytes();
        let back = ToWorker::from_bytes(&frame).unwrap();
        match back {
            ToWorker::Work(got) => {
                prop_assert_eq!(got.task, w.task);
                prop_assert_eq!(got.dataset, w.dataset);
                prop_assert_eq!(got.attempt, w.attempt);
                prop_assert_eq!(got.sampling_ratio.to_bits(), w.sampling_ratio.to_bits());
                prop_assert_eq!(got.seed, w.seed);
                prop_assert_eq!(got.combining, w.combining);
                prop_assert_eq!(got.span, w.span);
                prop_assert_eq!(got.fault, w.fault);
            }
            other => prop_assert!(false, "decoded a different frame kind: {:?}", other),
        }
    }

    #[test]
    fn work_frame_truncations_are_rejected(task in 0u64..1000,
                                           dataset in 0u32..4,
                                           ratio in 0.001..1.0f64,
                                           with_fault in 0u8..2) {
        let w = work_item(task, dataset, 1, ratio, 7, true, with_fault == 1, 42);
        let frame = ToWorker::Work(w).to_bytes();
        for cut in 0..frame.len() {
            prop_assert!(
                ToWorker::from_bytes(&frame[..cut]).is_err(),
                "truncation at {} of {} decoded", cut, frame.len()
            );
        }
    }

    #[test]
    fn output_frames_roundtrip(task in 0u64..1_000_000,
                               attempt in 0u32..8,
                               partition in 0u32..64,
                               pairs in prop::collection::vec(0u8..255, 0..256)) {
        let f = FromWorker::Output { task, attempt, partition, pairs };
        prop_assert_eq!(FromWorker::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn done_frames_roundtrip_sampling_counts(task in 0u64..1_000_000,
                                             dataset in 0u32..8,
                                             total in 0u64..1_000_000,
                                             sampled in 0u64..1_000_000,
                                             spill_runs in 0u64..100,
                                             spill_bytes in 0u64..1_000_000_000) {
        let f = FromWorker::Done {
            attempt: 3,
            stats: MapStats {
                task: TaskId(task as usize),
                dataset: DatasetId(dataset),
                total_records: total,
                sampled_records: sampled,
                emitted: sampled * 2,
                shuffled: sampled,
                duration_secs: 0.25,
                read_secs: 0.125,
            },
            spill_runs,
            spill_bytes,
        };
        // A worker claiming it processed more records than its block
        // holds is corrupt, not a sample: rejected at decode, so the
        // reducers never see `m_i > M_i`.
        match FromWorker::from_bytes(&f.to_bytes()) {
            Ok(back) => {
                prop_assert!(sampled <= total);
                prop_assert_eq!(back, f);
            }
            Err(e) => {
                prop_assert!(sampled > total);
                prop_assert!(matches!(e, WireError::Corrupt { .. }));
            }
        }
    }

    #[test]
    fn error_frames_roundtrip(kind in 0u8..3, what in "[a-z0-9 ()_]{0,48}") {
        let f = FromWorker::Failed {
            task: 12,
            attempt: 2,
            error: WireJobError { kind, what: what.clone() },
        };
        let back = FromWorker::from_bytes(&f.to_bytes()).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn job_spec_roundtrips(job in "[a-z0-9-]{1,24}",
                           params in prop::collection::vec(0u8..255, 0..64),
                           spool in "[a-z0-9/._-]{1,48}",
                           reducers in 1u32..64,
                           budget in 1u64..1_000_000_000,
                           label in "[a-z0-9_]{0,16}",
                           datasets in prop::collection::vec((0u32..8, 1u64..1000), 0..4)) {
        let spec = WorkerJobSpec {
            job,
            params,
            spool,
            num_reducers: reducers,
            shuffle_mem_bytes: budget,
            spill_dir: "/tmp/spill".to_string(),
            telemetry_label: label,
            datasets,
        };
        let frame = ToWorker::Job(spec.clone()).to_bytes();
        prop_assert_eq!(ToWorker::from_bytes(&frame).unwrap(), ToWorker::Job(spec));
    }

    #[test]
    fn job_spec_truncations_are_rejected(datasets in prop::collection::vec((0u32..8, 1u64..1000), 1..4)) {
        let spec = WorkerJobSpec {
            job: "join".to_string(),
            params: vec![1, 2, 3],
            spool: "/tmp/spool".to_string(),
            num_reducers: 4,
            shuffle_mem_bytes: 1 << 20,
            spill_dir: "/tmp/spill".to_string(),
            telemetry_label: String::new(),
            datasets,
        };
        let frame = ToWorker::Job(spec).to_bytes();
        for cut in 0..frame.len() {
            prop_assert!(ToWorker::from_bytes(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn telemetry_frames_roundtrip(task in 0u64..1_000_000,
                                  attempt in 0u32..8,
                                  counters in prop::collection::vec((0u8..8, 0u8..3, 0u64..1_000_000), 0..6),
                                  spans in prop::collection::vec((0u8..8, 0u64..10_000_000, 1u64..10_000_000), 0..6)) {
        let counters: Vec<_> = counters
            .into_iter()
            .map(|(name, labels, delta)| {
                (
                    format!("approx_counter_{name}_total"),
                    (0..labels)
                        .map(|l| (format!("label{l}"), format!("value{l}")))
                        .collect::<Vec<_>>(),
                    delta,
                )
            })
            .collect();
        let spans: Vec<_> = spans
            .into_iter()
            .map(|(name, rel_ts, dur)| (format!("span {name}"), "worker".to_string(), rel_ts, dur))
            .collect();
        let f = FromWorker::Telemetry { task, attempt, counters, spans };
        prop_assert_eq!(FromWorker::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn telemetry_truncations_and_corruptions_are_rejected(
            delta in 0u64..1_000_000,
            flip in prop::collection::vec(0usize..4096, 1..8)) {
        let f = FromWorker::Telemetry {
            task: 9,
            attempt: 1,
            counters: vec![(
                "approx_worker_records_total".to_string(),
                vec![("job".to_string(), "job_0001".to_string())],
                delta,
            )],
            spans: vec![("read block".to_string(), "worker".to_string(), 10, 250)],
        };
        let frame = f.to_bytes();
        for cut in 0..frame.len() {
            prop_assert!(FromWorker::from_bytes(&frame[..cut]).is_err());
        }
        let mut bad = frame.clone();
        for fbit in flip {
            let bit = fbit % (bad.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert!(decodes_cleanly::<FromWorker>(&bad));
    }

    #[test]
    fn corrupted_frames_never_panic(seed in 0u64..u64::MAX,
                                    flip in prop::collection::vec(0usize..4096, 1..8)) {
        // Corrupt a valid Work frame at arbitrary bit positions; both
        // frame directions must fail structurally or decode to
        // something — never panic.
        let w = work_item(seed % 100, (seed % 4) as u32, 0, 0.5, seed, true, true, seed);
        let mut frame = ToWorker::Work(w).to_bytes();
        for f in flip {
            let bit = f % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert!(decodes_cleanly::<ToWorker>(&frame));
        prop_assert!(decodes_cleanly::<FromWorker>(&frame));
    }

    #[test]
    fn from_worker_truncations_are_rejected(pairs in prop::collection::vec(0u8..255, 1..64)) {
        let f = FromWorker::Output { task: 3, attempt: 1, partition: 0, pairs };
        let frame = f.to_bytes();
        for cut in 0..frame.len() {
            prop_assert!(FromWorker::from_bytes(&frame[..cut]).is_err());
        }
    }
}
