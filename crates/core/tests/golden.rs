//! Bit-pinned goldens for the four estimator templates: one small job
//! per reducer, plus one synchronously driven bound-monitor run.
//!
//! Every expected value was captured (`f64::to_bits`) from the commit
//! *before* the reducers moved onto the shared `ClusterTable` and the
//! mappers onto `UnitMapper`, so a layout or fold-order change that
//! perturbs even the last ulp of an interval fails here. The jobs pin
//! `map_slots: 1` so map outputs reach the reducers in one arrival
//! order (see `combine_equiv.rs` for why that matters).

use std::sync::Arc;

use approxhadoop_core::job::{AggregationJob, RatioJob};
use approxhadoop_core::keystat::KeyStat;
use approxhadoop_core::multistage::{Aggregation, BoundMonitor, MultiStageReducer};
use approxhadoop_core::spec::{ApproxSpec, ErrorTarget};
use approxhadoop_core::threestage::{ThreeStageAggregation, ThreeStageMapper, ThreeStageReducer};
use approxhadoop_runtime::control::JobControl;
use approxhadoop_runtime::engine::{run_job, JobConfig};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::types::TaskId;
use approxhadoop_stats::Interval;

/// 12 blocks of 40 small integers, a pure function of the indices.
fn blocks() -> Vec<Vec<u32>> {
    (0..12u32)
        .map(|b| {
            (0..40u32)
                .map(|i| (b * 37 + i * 11 + (i * i) % 13) % 97)
                .collect()
        })
        .collect()
}

fn config() -> JobConfig {
    JobConfig {
        map_slots: 1,
        reduce_tasks: 2,
        seed: 7,
        ..Default::default()
    }
}

fn spec() -> ApproxSpec {
    ApproxSpec::ratios(0.25, 0.5)
}

/// `(key, estimate bits, half-width bits)` rows in key order.
fn bits<K: Copy + Into<u64>>(outputs: &[(K, Interval)]) -> Vec<(u64, u64, u64)> {
    outputs
        .iter()
        .map(|(k, iv)| ((*k).into(), iv.estimate.to_bits(), iv.half_width.to_bits()))
        .collect()
}

/// Compares against the pinned rows, printing the actual rows as a
/// pasteable literal on mismatch.
fn assert_pinned(name: &str, actual: &[(u64, u64, u64)], expected: &[(u64, u64, u64)]) {
    assert!(
        actual == expected,
        "{name} drifted from the pinned bits; actual rows:\n{}",
        actual
            .iter()
            .map(|(k, e, h)| format!("    ({k}, {e:#018x}, {h:#018x}),\n"))
            .collect::<String>()
    );
}

/// Keys `v % 5`; every third value emits its key twice, so the per-item
/// fold (one `v_ij` per key per item) is on the pinned path.
fn agg_map(v: &u32, emit: &mut dyn FnMut(u32, f64)) {
    emit(v % 5, f64::from(*v) * 0.5);
    if v.is_multiple_of(3) {
        emit(v % 5, 0.25);
    }
}

#[test]
fn sum_job_is_bit_pinned() {
    let r = AggregationJob::sum(agg_map)
        .spec(spec())
        .config(config())
        .run(&VecSource::new(blocks()))
        .unwrap();
    assert_pinned(
        "sum",
        &bits(&r.outputs),
        &[
            (0, 0x40a1555555555555, 0x408f4b562e8c031c),
            (1, 0x40aab95555555555, 0x409099e1f53b3a46),
            (2, 0x409cf00000000000, 0x4082bd3736112085),
            (3, 0x40a3caaaaaaaaaaa, 0x408ae806a353d663),
            (4, 0x409a080000000000, 0x4083301d0c8a7691),
        ],
    );
}

#[test]
fn mean_job_is_bit_pinned() {
    let r = AggregationJob::mean(agg_map)
        .spec(spec())
        .config(config())
        .run(&VecSource::new(blocks()))
        .unwrap();
    assert_pinned(
        "mean",
        &bits(&r.outputs),
        &[
            (0, 0x40127d27d27d27d2, 0x4000b0b67f399b42),
            (1, 0x401c816c16c16c16, 0x4001b53549d8c6b1),
            (2, 0x400eddddddddddde, 0x3ff3fd07b12355e4),
            (3, 0x40151c71c71c71c6, 0x3ffcb33a47d0e4ae),
            (4, 0x400bc44444444444, 0x3ff4779673c6e4df),
        ],
    );
}

#[test]
fn ratio_job_is_bit_pinned() {
    let r = RatioJob::new(|v: &u32, emit: &mut dyn FnMut(u8, (f64, f64))| {
        emit((v % 3) as u8, (f64::from(*v), 1.0 + f64::from(v % 7)));
        if v.is_multiple_of(4) {
            emit((v % 3) as u8, (0.5, 0.0));
        }
    })
    .spec(spec())
    .config(config())
    .run(&VecSource::new(blocks()))
    .unwrap();
    assert_pinned(
        "ratio",
        &bits(&r.outputs),
        &[
            (0, 0x40295a2811cf06ae, 0x40052ae468e7f396),
            (1, 0x402630cf30cf30d0, 0x4001396abf4e6054),
            (2, 0x402b3c8253c8253d, 0x400520e031d00151),
        ],
    );
}

#[test]
fn three_stage_mean_per_pair_job_is_bit_pinned() {
    // Each item emits `v % 4` "paragraphs" for key `v % 3`, so some
    // sampled items are silent for every key.
    let mapper = ThreeStageMapper::new(|v: &u32, emit: &mut dyn FnMut(u32, f64)| {
        for p in 0..v % 4 {
            emit(v % 3, f64::from(*v) + f64::from(p) * 0.5);
        }
    });
    let job = run_job(
        &VecSource::new(blocks()),
        &mapper,
        |_| ThreeStageReducer::<u32>::new(ThreeStageAggregation::MeanPerPair, 0.95),
        JobConfig {
            drop_ratio: 0.25,
            sampling_ratio: 0.5,
            ..config()
        },
    )
    .unwrap();
    let mut outputs = job.outputs;
    outputs.sort_by_key(|(k, _)| *k);
    assert_pinned(
        "three-stage",
        &bits(&outputs),
        &[
            (0, 0x40460ec4ec4ec4ec, 0x4030f14e3b4aa20b),
            (1, 0x4049ad82d82d82d7, 0x4034121a29f8c52d),
            (2, 0x404b018181818181, 0x40348600f1f5deee),
        ],
    );
}

fn meta(task: usize, total: u64, sampled: u64) -> MapOutputMeta {
    MapOutputMeta {
        task: TaskId(task),
        dataset: Default::default(),
        total_records: total,
        sampled_records: sampled,
        duration_secs: 0.0,
    }
}

/// One synthetic map output: cluster `t` of 100 records with 20
/// sampled. Key 0 appears everywhere, key 1 in the odd clusters, key 2
/// in a single cluster; cluster 5 is an empty block `(0, 0)` and
/// cluster 3 ships an empty batch. (Key 1 skips cluster 0 so the first
/// tick, where every variance is still infinite, sees one key and has
/// no tie to break.)
fn monitor_batch(t: usize) -> (MapOutputMeta, Vec<(u32, KeyStat)>) {
    if t == 5 {
        return (meta(t, 0, 0), vec![]);
    }
    let mut pairs = Vec::new();
    if t != 3 {
        let x = t as f64;
        pairs.push((
            0,
            KeyStat {
                sum: 400.0 + 3.0 * x,
                sum_sq: 8100.0 + 7.0 * x,
                emitting_units: 20,
            },
        ));
        if t % 2 == 1 {
            pairs.push((
                1,
                KeyStat {
                    sum: 30.0 + x,
                    sum_sq: 160.0 + x,
                    emitting_units: 7,
                },
            ));
        }
        if t == 4 {
            pairs.push((
                2,
                KeyStat {
                    sum: 2.5,
                    sum_sq: 6.25,
                    emitting_units: 1,
                },
            ));
        }
    }
    (meta(t, 100, 20), pairs)
}

#[test]
fn bound_monitor_reports_are_bit_pinned() {
    let mut reducer =
        MultiStageReducer::<u32>::new(Aggregation::Sum, 0.95).with_monitor(BoundMonitor {
            check_every: 1,
            freeze_at: Some(ErrorTarget::Relative(0.5)),
            min_maps_before_freeze: 4,
        });
    let control = Arc::new(JobControl::new(1));
    let mut ctx = ReduceContext::new(0, 30, Arc::clone(&control));
    let mut rows = Vec::new();
    for t in 0..10 {
        let (meta, pairs) = monitor_batch(t);
        ctx.note_map();
        reducer.on_map_output(&meta, pairs, &mut ctx);
        let r = control.bound_reports()[0].expect("monitor published");
        let wave = r.wave.expect("planner statistics");
        rows.push([
            r.maps_processed as u64,
            r.half_width.to_bits(),
            r.relative_bound.to_bits(),
            wave.total_clusters,
            wave.completed_clusters,
            wave.inter_cluster_var.to_bits(),
            wave.mean_cluster_size.to_bits(),
            wave.mean_within_var.to_bits(),
            wave.completed_within_term.to_bits(),
            wave.estimate.to_bits(),
        ]);
    }
    #[rustfmt::skip]
    let expected: [[u64; 10]; 10] = [
        [1, 0x7ff0000000000000, 0x7ff0000000000000, 30, 1, 0x0000000000000000, 0x4059000000000000, 0x40150d79435e50d8, 0x40a07286bca1af29, 0x40ed4c0000000000],
        [2, 0x40dbf83adc9397cd, 0x4028a329637e986f, 30, 2, 0x40c7764000000000, 0x4059000000000000, 0x4007c7691840ac77, 0x40a293ca1af286bd, 0x40a22a0000000000],
        [3, 0x40b8d991b12da591, 0x40106abd66d91e6f, 30, 3, 0x40bf485555555556, 0x4059000000000000, 0x3fffb48c20563b49, 0x40a293ca1af286bd, 0x4098380000000000],
        [4, 0x40e5dd5aeb33354c, 0x3fef9b0e6cdaec76, 30, 4, 0x412efb4c80000000, 0x4059000000000000, 0x3ff50d79435e50d8, 0x40a07286bca1af29, 0x40e6233000000000],
        [5, 0x40de1a1bd0ce3f82, 0x3fe4488d20391aed, 30, 5, 0x412912fc00000000, 0x4059000000000000, 0x3ff0d79435e50d7a, 0x40a07286bca1af29, 0x40e7bec000000000],
        [6, 0x40dcc7c037d7d138, 0x3fe745783eca914e, 30, 6, 0x4130b64c2aaaaaaa, 0x4054d55555555555, 0x3fec11f7047dc120, 0x40a07286bca1af29, 0x40e3c9a000000000],
        [7, 0x40d79d91f4bed831, 0x3fe1b5f3464b3b2d, 30, 7, 0x412e3c47e79e79e7, 0x40556db6db6db6db, 0x3fe80f6603d980f7, 0x40a07286bca1af29, 0x40e5559b6db6db6e],
        [8, 0x40d3eb42edd34b13, 0x3fdc4d352166fff5, 30, 8, 0x412b855000000000, 0x4055e00000000000, 0x3fe50d79435e50d8, 0x40a07286bca1af29, 0x40e685a000000000],
        [9, 0x40d3eb42edd34b13, 0x3fdc4d352166fff5, 30, 8, 0x412b855000000000, 0x4055e00000000000, 0x3fe50d79435e50d8, 0x40a07286bca1af29, 0x40e685a000000000],
        [10, 0x40d3eb42edd34b13, 0x3fdc4d352166fff5, 30, 8, 0x412b855000000000, 0x4055e00000000000, 0x3fe50d79435e50d8, 0x40a07286bca1af29, 0x40e685a000000000],
    ];
    assert!(
        rows == expected,
        "wave reports drifted from the pinned bits; actual rows:\n{}",
        rows.iter()
            .map(|r| format!(
                "    [{}, {:#018x}, {:#018x}, {}, {}, {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}],\n",
                r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], r[9]
            ))
            .collect::<String>()
    );
    // The interval that met the threshold is the one `finish` reports.
    assert_pinned(
        "frozen finish",
        &bits(&reducer.finish(&mut ctx)),
        &[
            (0, 0x40e685a000000000, 0x40d3eb42edd34b13),
            (1, 0x4093ec0000000000, 0x409af8c73fa1084d),
            (2, 0x4047700000000000, 0x405af61c67d19ae3),
        ],
    );
}
