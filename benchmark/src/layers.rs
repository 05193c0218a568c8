//! Isolated drives of each engine layer.
//!
//! The traced run calls every public function a record passes through —
//! alone, single-threaded, over the workload's *own* input and the
//! intermediate pairs that input produces — and times it. The figures
//! say what each layer costs per record (or pair, key, batch) when
//! nothing else runs, which is the ceiling on what optimising that
//! layer can save; `engine.unattributed_share` says how much of a real
//! job's map-task time these figures leave unexplained.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use approxhadoop::core::keystat::KeyStat;
use approxhadoop::core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
use approxhadoop::dfs::{BlockId, FileStore, FileStoreWriter};
use approxhadoop::ipc::{read_frame, write_frame, Decoder, Wire};
use approxhadoop::runtime::combine::CombineTable;
use approxhadoop::runtime::control::{FixedCoordinator, JobControl};
use approxhadoop::runtime::engine::{run_job, run_job_process, JobConfig, WorkerSpec};
use approxhadoop::runtime::input::{InputSource, VecSource};
use approxhadoop::runtime::mapper::{MapTaskContext, Mapper};
use approxhadoop::runtime::metrics::JobMetrics;
use approxhadoop::runtime::reducer::{MapOutputMeta, ReduceContext, ReduceEvent, Reducer};
use approxhadoop::runtime::types::{fx_hash, Partitioner, TaskId};
use approxhadoop::runtime::{JobId, JobSession};
use approxhadoop::server::admission::{AdmissionConfig, AdmissionController, ApproxBudget};
use approxhadoop::workloads::wikilog::{LogEntry, WikiLog};

use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{jobs, MAP_SLOTS, REDUCE_TASKS, WORKERS};

/// Nanoseconds per unit; 0 when nothing was counted.
fn ns_per(secs: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        secs * 1e9 / units as f64
    }
}

/// What one record-path drive needs to know about the workload's job.
pub struct RecordPathPlan {
    /// The job's within-block sampling ratio.
    pub sampling_ratio: f64,
    /// Whether map-side combining is on for the job.
    pub combining: bool,
    /// Drive at most this many splits, so the drive takes about as long
    /// as one job however large the input is.
    pub max_splits: usize,
    /// Cluster population `N` the reducers are told: the number of
    /// driven splits for a job that executes every map (so a precise
    /// estimator takes its census path, as it does in the job), more
    /// for a job that drops some.
    pub total_maps_factor: f64,
    /// Seed of the systematic samples.
    pub seed: u64,
}

/// Isolated per-unit costs of the map side of the record path, for
/// [`unattributed_share`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MapSideCosts {
    /// Reading (and sampling) one population record.
    pub read_ns_per_poprec: f64,
    /// The user map function, per processed record.
    pub udf_ns_per_rec: f64,
    /// Hash + partition + (fold | raw push), per emitted pair.
    pub route_ns_per_pair: f64,
    /// Draining a combine table (or nothing), per shipped pair.
    pub drain_ns_per_key: f64,
    /// Wire-encoding one shipped pair (process backend only).
    pub ship_ns_per_pair: f64,
    /// One channel send + receive.
    pub channel_ns_per_batch: f64,
}

/// Share of a job's summed map-task time that the isolated layer costs
/// do **not** explain, given the job's own record and pair counts.
/// Negative when the layers, driven alone, cost more than the tasks
/// took (e.g. a drive that misses a cache the job hits).
pub fn unattributed_share(costs: &MapSideCosts, m: &JobMetrics) -> f64 {
    let task_secs: f64 = m.map_stats.iter().map(|s| s.duration_secs).sum();
    if task_secs <= 0.0 {
        return 0.0;
    }
    let batches = (m.executed_maps * REDUCE_TASKS) as f64;
    let explained_ns = m.total_records as f64 * costs.read_ns_per_poprec
        + m.sampled_records as f64 * costs.udf_ns_per_rec
        + m.emitted_pairs as f64 * costs.route_ns_per_pair
        + m.shuffled_pairs as f64 * (costs.drain_ns_per_key + costs.ship_ns_per_pair)
        + batches * costs.channel_ns_per_batch;
    1.0 - explained_ns / 1e9 / task_secs
}

/// The intermediate pairs of mapper `M`.
type Pairs<M> = Vec<(<M as Mapper>::Key, <M as Mapper>::Value)>;

/// Drives read → sample → map → hash/partition → combine → channel →
/// reduce absorb → finish over the workload's input, one layer at a
/// time, recording a span per layer.
pub fn drive_record_path<S, M, R>(
    log: &mut SpanLog,
    metrics: &mut Metrics,
    input: &S,
    mapper: &M,
    make_reducer: impl Fn(usize) -> R,
    plan: &RecordPathPlan,
) -> Result<MapSideCosts, String>
where
    S: InputSource,
    M: Mapper<Item = S::Item>,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    let splits = input.splits();
    let n = splits.len().min(plan.max_splits);
    let seed_of = |i: usize| plan.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut costs = MapSideCosts::default();

    // ---- read: the whole block, drained ----
    let (read, secs) = log.scope("input.read", 0, |_| -> Result<u64, String> {
        let mut records = 0u64;
        for i in 0..n {
            let stream = input
                .stream_split(i, 1.0, seed_of(i))
                .map_err(|e| e.to_string())?;
            records += black_box(stream).count() as u64;
        }
        Ok(records)
    });
    let population = read?;
    metrics.insert("input.read_ns_per_rec", ns_per(secs, population));
    costs.read_ns_per_poprec = ns_per(secs, population);

    // ---- sample: the same blocks at the job's ratio ----
    let mut sampled = population;
    if plan.sampling_ratio < 1.0 {
        let (drawn, secs) = log.scope("input.sample", 0, |_| -> Result<u64, String> {
            let mut records = 0u64;
            for i in 0..n {
                let stream = input
                    .stream_split(i, plan.sampling_ratio, seed_of(i))
                    .map_err(|e| e.to_string())?;
                records += black_box(stream).count() as u64;
            }
            Ok(records)
        });
        sampled = drawn?;
        metrics.insert("input.sample_ns_per_poprec", ns_per(secs, population));
        costs.read_ns_per_poprec = ns_per(secs, population);
    }
    metrics.insert(
        "input.sampled_share",
        sampled as f64 / population.max(1) as f64,
    );

    // ---- map: the user function with a counting no-op emit ----
    let ctx_of = |i: usize| MapTaskContext {
        task: TaskId(i),
        dataset: Default::default(),
        sampling_ratio: plan.sampling_ratio,
        attempt: 0,
    };
    // One block at a time, as a map task sees them: the block is read
    // first (untimed), then mapped (timed).
    let (mut emitted, mut secs) = (0u64, 0.0);
    for i in 0..n {
        let block: Vec<S::Item> = input
            .stream_split(i, plan.sampling_ratio, seed_of(i))
            .map_err(|e| e.to_string())?
            .collect();
        let ((), task_secs) = log.scope("map.udf", 0, |_| {
            let mut state = mapper.begin_task(&ctx_of(i));
            let mut emit = |k: M::Key, v: M::Value| {
                emitted += 1;
                black_box((k, v));
            };
            for item in block {
                mapper.map(&mut state, item, &mut emit);
            }
            mapper.end_task(state, &mut emit);
        });
        secs += task_secs;
    }
    metrics.insert("map.udf_ns_per_rec", ns_per(secs, sampled));
    metrics.insert("map.pairs_per_rec", emitted as f64 / sampled.max(1) as f64);
    costs.udf_ns_per_rec = ns_per(secs, sampled);

    // The same emissions again, kept this time (untimed): the
    // intermediate pairs every later layer is driven with.
    let mut pairs: Vec<Pairs<M>> = Vec::with_capacity(n);
    let mut sampled_of = Vec::with_capacity(n);
    for i in 0..n {
        let mut out = Vec::new();
        let mut state = mapper.begin_task(&ctx_of(i));
        let block = input
            .stream_split(i, plan.sampling_ratio, seed_of(i))
            .map_err(|e| e.to_string())?;
        sampled_of.push(block.sampled);
        for item in block {
            mapper.map(&mut state, item, &mut |k, v| out.push((k, v)));
        }
        mapper.end_task(state, &mut |k, v| out.push((k, v)));
        pairs.push(out);
    }

    // ---- types: one Fx hash + partition per pair ----
    let partitioner = Partitioner::new(REDUCE_TASKS);
    let ((), secs) = log.scope("types.hash_partition", 0, |_| {
        let mut acc = 0usize;
        for (k, _) in pairs.iter().flatten() {
            acc ^= partitioner.partition_of_hash(fx_hash(k));
        }
        black_box(acc);
    });
    metrics.insert("types.hash_partition_ns_per_pair", ns_per(secs, emitted));
    costs.route_ns_per_pair = ns_per(secs, emitted);

    // ---- combine: fold every pair, then drain in key order ----
    let combiner = if plan.combining {
        mapper.combiner()
    } else {
        None
    };
    // batches[map][reducer]: the pairs one map ships to one reducer.
    let mut batches: Vec<Vec<Pairs<M>>> = Vec::with_capacity(n);
    let mut shipped = 0u64;
    if let Some(combiner) = combiner {
        // Hashes and partitions are precomputed so the fold span times
        // the table alone; the tables are reused across splits, as the
        // engine reuses them across the attempts of one slot.
        let mut tables: Vec<CombineTable<M::Key, M::Value>> =
            (0..REDUCE_TASKS).map(|_| CombineTable::new()).collect();
        let (mut fold_secs, mut drain_secs) = (0.0, 0.0);
        for split in pairs {
            let routed: Vec<(usize, u64, M::Key, M::Value)> = split
                .into_iter()
                .map(|(k, v)| {
                    let h = fx_hash(&k);
                    (partitioner.partition_of_hash(h), h, k, v)
                })
                .collect();
            let ((), secs) = log.scope("combine.fold", 0, |_| {
                for (p, h, k, v) in routed {
                    tables[p].fold(combiner, h, k, v);
                }
            });
            fold_secs += secs;
            let (drained, secs) = log.scope("combine.drain", 0, |_| {
                tables
                    .iter_mut()
                    .map(CombineTable::drain_sorted)
                    .collect::<Vec<_>>()
            });
            drain_secs += secs;
            shipped += drained.iter().map(|b| b.len() as u64).sum::<u64>();
            batches.push(drained);
        }
        metrics.insert("combine.fold_ns_per_pair", ns_per(fold_secs, emitted));
        metrics.insert("combine.drain_ns_per_key", ns_per(drain_secs, shipped));
        costs.route_ns_per_pair += ns_per(fold_secs, emitted);
        costs.drain_ns_per_key = ns_per(drain_secs, shipped);
    } else {
        for split in pairs {
            let mut raw: Vec<Pairs<M>> = (0..REDUCE_TASKS).map(|_| Vec::new()).collect();
            for (k, v) in split {
                raw[partitioner.partition(&k)].push((k, v));
            }
            batches.push(raw);
        }
        shipped = emitted;
    }
    metrics.insert(
        "combine.out_in_ratio",
        shipped as f64 / emitted.max(1) as f64,
    );

    // ---- channel: one send + receive per (map, reducer) batch ----
    let meta_of = |i: usize| MapOutputMeta {
        task: TaskId(i),
        dataset: Default::default(),
        total_records: splits[i].records,
        sampled_records: sampled_of[i],
        duration_secs: 0.0,
    };
    let (tx, rx) = crossbeam::channel::unbounded::<ReduceEvent<M::Key, M::Value>>();
    let batch_count = (n * REDUCE_TASKS) as u64;
    let (received, secs) = log.scope("channel.send_recv", 0, |_| {
        let mut received = Vec::with_capacity(n);
        for (i, split) in batches.into_iter().enumerate() {
            let mut back = Vec::with_capacity(REDUCE_TASKS);
            for pairs in split {
                let _ = tx.send(ReduceEvent::MapOutput {
                    meta: meta_of(i),
                    pairs,
                });
                match rx.recv() {
                    Ok(ReduceEvent::MapOutput { pairs, .. }) => back.push(pairs),
                    _ => unreachable!("the channel returns what was just sent"),
                }
            }
            received.push(back);
        }
        received
    });
    metrics.insert("channel.send_recv_ns_per_batch", ns_per(secs, batch_count));
    costs.channel_ns_per_batch = ns_per(secs, batch_count);

    // ---- reduce: absorb every batch, then finalise ----
    let total_maps = ((n as f64 * plan.total_maps_factor).round() as usize).max(n);
    let control = Arc::new(JobControl::new(REDUCE_TASKS));
    let mut by_reducer: Vec<Vec<(MapOutputMeta, Pairs<M>)>> =
        (0..REDUCE_TASKS).map(|_| Vec::new()).collect();
    for (i, split) in received.into_iter().enumerate() {
        for (p, pairs) in split.into_iter().enumerate() {
            by_reducer[p].push((meta_of(i), pairs));
        }
    }
    let (mut absorb_secs, mut finish_secs, mut keys) = (0.0, 0.0, 0u64);
    for (p, fed) in by_reducer.into_iter().enumerate() {
        let mut reducer = make_reducer(p);
        let mut ctx = ReduceContext::new(p, total_maps, Arc::clone(&control));
        let ((), secs) = log.scope("reducer.absorb", 0, |_| {
            for (meta, pairs) in fed {
                ctx.note_map();
                reducer.on_map_output(&meta, pairs, &mut ctx);
            }
        });
        absorb_secs += secs;
        let (out, secs) = log.scope("estimator.finish", 0, |_| reducer.finish(&mut ctx));
        finish_secs += secs;
        keys += out.len() as u64;
    }
    metrics.insert("reducer.absorb_ns_per_pair", ns_per(absorb_secs, shipped));
    metrics.insert(
        "estimator.finish_us_per_key",
        ns_per(finish_secs, keys) / 1e3,
    );
    metrics.insert("estimator.keys", keys as f64);
    Ok(costs)
}

/// Drives the process backend's data path over `blocks` of log entries:
/// `Wire` encode/decode of records and of shuffle pairs, a frame round
/// trip through an OS pipe, and the spool write → `mmap` → decode path.
/// Returns `(mmap_decode_ns_per_rec, pair_encode_ns)`.
pub fn drive_ipc(
    log: &mut SpanLog,
    metrics: &mut Metrics,
    blocks: &[Vec<LogEntry>],
    scratch: &Path,
) -> Result<(f64, f64), String> {
    let records: u64 = blocks.iter().map(|b| b.len() as u64).sum();

    // ---- Wire: records ----
    let (payloads, secs) = log.scope("ipc.wire_encode", 0, |_| {
        blocks
            .iter()
            .map(|block| {
                let mut payload = Vec::new();
                for e in block {
                    e.encode(&mut payload);
                }
                payload
            })
            .collect::<Vec<Vec<u8>>>()
    });
    let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    metrics.insert("ipc.wire_encode_ns_per_rec", ns_per(secs, records));
    metrics.insert(
        "ipc.wire_bytes_per_rec",
        bytes as f64 / records.max(1) as f64,
    );
    let (decoded, secs) = log.scope("ipc.wire_decode", 0, |_| decode_entries(&payloads));
    if decoded? != records {
        return Err("Wire decode lost records".into());
    }
    metrics.insert("ipc.wire_decode_ns_per_rec", ns_per(secs, records));

    // ---- Wire: shuffle pairs ----
    let pairs: Vec<(u64, KeyStat)> = blocks
        .iter()
        .flatten()
        .map(|e| (e.page, KeyStat::from_value(e.bytes as f64)))
        .collect();
    let (encoded, secs) = log.scope("ipc.wire_pair_encode", 0, |_| {
        let mut out = Vec::new();
        for p in &pairs {
            p.encode(&mut out);
        }
        out
    });
    let pair_encode_ns = ns_per(secs, records);
    metrics.insert("ipc.wire_pair_encode_ns", pair_encode_ns);
    let (decoded, secs) = log.scope("ipc.wire_pair_decode", 0, |_| -> Result<u64, String> {
        let mut d = Decoder::new(&encoded);
        let mut n = 0u64;
        while d.remaining() > 0 {
            black_box(<(u64, KeyStat)>::decode(&mut d).map_err(|e| e.to_string())?);
            n += 1;
        }
        Ok(n)
    });
    if decoded? != records {
        return Err("Wire pair decode lost pairs".into());
    }
    metrics.insert("ipc.wire_pair_decode_ns", ns_per(secs, records));

    // ---- frames through an OS pipe ----
    let (reader, mut writer) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let (through, secs) = log.scope("ipc.frame_roundtrip", 0, |_| {
        std::thread::scope(|s| {
            // The pipe holds 64 KiB; the writer needs its own thread.
            let sender = s.spawn(|| {
                for payload in &payloads {
                    if write_frame(&mut writer, payload).is_err() {
                        break;
                    }
                }
                drop(writer);
            });
            let mut reader = std::io::BufReader::new(reader);
            let mut through = 0u64;
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                through += black_box(frame).len() as u64;
            }
            let _ = sender.join();
            through
        })
    });
    if through != bytes {
        return Err(format!("pipe carried {through} of {bytes} bytes"));
    }
    metrics.insert(
        "ipc.frame_roundtrip_us_per_mib",
        secs * 1e6 / (bytes as f64 / (1 << 20) as f64),
    );

    // ---- spool write → mmap → decode ----
    let spool = scratch.join("layer-drive.spool");
    let (written, secs) = log.scope("dfs.spool_write", 0, |_| -> Result<(), String> {
        let mut w = FileStoreWriter::create(&spool).map_err(|e| e.to_string())?;
        for (i, (block, payload)) in blocks.iter().zip(&payloads).enumerate() {
            w.append(BlockId(i as u64), block.len() as u64, payload)
                .map_err(|e| e.to_string())?;
        }
        w.finish().map_err(|e| e.to_string())
    });
    written?;
    metrics.insert("dfs.spool_write_ns_per_rec", ns_per(secs, records));
    let (decoded, secs) = log.scope("ipc.mmap_decode", 0, |_| -> Result<u64, String> {
        let store = FileStore::open(&spool).map_err(|e| e.to_string())?;
        let mut n = 0u64;
        for i in 0..blocks.len() {
            let slice = store
                .slice(BlockId(i as u64))
                .ok_or_else(|| format!("spool lost block {i}"))?;
            let mut d = Decoder::new(slice);
            while d.remaining() > 0 {
                black_box(LogEntry::decode(&mut d).map_err(|e| e.to_string())?);
                n += 1;
            }
        }
        Ok(n)
    });
    let _ = std::fs::remove_file(&spool);
    if decoded? != records {
        return Err("mmap decode lost records".into());
    }
    let mmap_decode_ns = ns_per(secs, records);
    metrics.insert("ipc.mmap_decode_ns_per_rec", mmap_decode_ns);
    Ok((mmap_decode_ns, pair_encode_ns))
}

/// Everything the process backend adds to the record path, driven over
/// the first `blocks` blocks of `log`: [`drive_ipc`], the process job
/// floor, and the map-side costs as a worker sees them — a record is
/// decoded out of the mapped spool, not generated, and every shipped
/// pair is encoded into a frame instead of sent down a channel.
pub fn drive_process_path(
    spans: &mut SpanLog,
    metrics: &mut Metrics,
    log: &WikiLog,
    blocks: u64,
    worker: &WorkerSpec,
    scratch: &Path,
    costs: &mut MapSideCosts,
) -> Result<(), String> {
    let blocks: Vec<Vec<LogEntry>> = (0..blocks).map(|b| log.block(b)).collect();
    let (mmap_decode_ns, pair_encode_ns) = drive_ipc(spans, metrics, &blocks, scratch)?;
    costs.read_ns_per_poprec = mmap_decode_ns;
    costs.ship_ns_per_pair = pair_encode_ns;
    costs.channel_ns_per_batch = 0.0;
    metrics.insert(
        "process.job_floor_ms",
        process_job_floor_ms(spans, worker, scratch)?,
    );
    Ok(())
}

fn decode_entries(payloads: &[Vec<u8>]) -> Result<u64, String> {
    let mut n = 0u64;
    for payload in payloads {
        let mut d = Decoder::new(payload);
        while d.remaining() > 0 {
            black_box(LogEntry::decode(&mut d).map_err(|e| e.to_string())?);
            n += 1;
        }
    }
    Ok(n)
}

fn one_record() -> VecSource<LogEntry> {
    VecSource::new(vec![vec![LogEntry {
        timestamp: 0,
        project: 1,
        page: 1,
        bytes: 2_000,
    }]])
}

/// Wall time of a 1-block × 1-record job on the thread backend: what
/// the job wrapper costs when there is no work in it.
pub fn engine_job_floor_us(log: &mut SpanLog) -> Result<f64, String> {
    let input = one_record();
    let mapper = MultiStageMapper::new(jobs::page_traffic);
    let mut walls = Vec::new();
    for _ in 0..30 {
        let (result, secs) = log.scope("engine.job_floor", 0, |_| {
            run_job(
                &input,
                &mapper,
                |_| MultiStageReducer::new(Aggregation::Sum, 0.95),
                JobConfig {
                    map_slots: MAP_SLOTS,
                    reduce_tasks: REDUCE_TASKS,
                    ..Default::default()
                },
            )
        });
        result.map_err(|e| e.to_string())?;
        walls.push(secs * 1e6);
    }
    Ok(median(&walls).unwrap_or(0.0))
}

/// The same on the process backend: spool, spawn two workers, one frame
/// each way, reap.
pub fn process_job_floor_ms(
    log: &mut SpanLog,
    worker: &WorkerSpec,
    scratch: &Path,
) -> Result<f64, String> {
    let input = one_record();
    let mut walls = Vec::new();
    for i in 0..7 {
        let (result, secs) = log.scope("process.job_floor", 0, |_| {
            run_job_process(
                &input,
                worker,
                |_| MultiStageReducer::<u64>::new(Aggregation::Sum, 0.95),
                JobConfig {
                    workers: WORKERS,
                    reduce_tasks: REDUCE_TASKS,
                    spill_dir: Some(scratch.to_path_buf()),
                    ..Default::default()
                },
                &mut FixedCoordinator::new(1, 1.0, 0.0, 0),
                &JobSession::new(JobId(1_000 + i)),
            )
        });
        result.map_err(|e| e.to_string())?;
        walls.push(secs * 1e3);
    }
    Ok(median(&walls).unwrap_or(0.0))
}

/// Direct `admit` / `on_job_outcome` calls on a controller whose
/// 256-entry latency window is full, as it is in a long-running service.
pub fn drive_admission(log: &mut SpanLog, metrics: &mut Metrics, config: AdmissionConfig) {
    const CALLS: u64 = 2_000;
    let controller = AdmissionController::new(AdmissionConfig {
        window: 256,
        ..config
    });
    let budget = ApproxBudget::up_to(0.7, 0.25);
    let latency = |i: u64| config.p99_target_secs * (0.2 + (i % 7) as f64 * 0.1);
    for i in 0..256 {
        controller.on_job_outcome(latency(i), 0, Some(0.01));
    }
    let ((), secs) = log.scope("admission.admit", 0, |_| {
        for i in 0..CALLS {
            black_box(controller.admit(i, &budget, 0));
        }
    });
    metrics.insert("admission.admit_us", ns_per(secs, CALLS) / 1e3);
    let ((), secs) = log.scope("admission.on_outcome", 0, |_| {
        for i in 0..CALLS {
            controller.on_job_outcome(latency(i), 0, Some(0.01));
        }
    });
    metrics.insert("admission.on_outcome_us", ns_per(secs, CALLS) / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tenant_log;

    #[test]
    fn record_path_drive_counts_what_the_job_counts() {
        let log = tenant_log(4, 500, 3);
        let input = log.source();
        let mapper = MultiStageMapper::new(jobs::project_bytes);
        let mut spans = SpanLog::new();
        let mut metrics = Metrics::new();
        let plan = RecordPathPlan {
            sampling_ratio: 0.25,
            combining: true,
            max_splits: 3,
            total_maps_factor: 4.0 / 3.0,
            seed: 1,
        };
        let costs = drive_record_path(
            &mut spans,
            &mut metrics,
            &input,
            &mapper,
            |_| MultiStageReducer::new(Aggregation::Sum, 0.95),
            &plan,
        )
        .unwrap();
        assert_eq!(metrics["input.sampled_share"], 0.25);
        // 12 projects at most, one KeyStat per project per map.
        assert!(metrics["estimator.keys"] <= 12.0 && metrics["estimator.keys"] >= 1.0);
        assert_eq!(metrics["combine.out_in_ratio"], 1.0);
        assert!(costs.udf_ns_per_rec > 0.0 && costs.read_ns_per_poprec > 0.0);
        let names: Vec<&str> = spans.spans().iter().map(|s| s.name.as_str()).collect();
        for layer in [
            "input.read",
            "input.sample",
            "map.udf",
            "combine.fold",
            "estimator.finish",
        ] {
            assert!(names.contains(&layer), "{layer} missing from {names:?}");
        }
    }

    #[test]
    fn ipc_drive_round_trips_every_record() {
        let log = tenant_log(2, 300, 5);
        let blocks: Vec<Vec<LogEntry>> = (0..2).map(|b| log.block(b)).collect();
        let dir = std::env::temp_dir().join(format!("approx-bench-ipc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut metrics = Metrics::new();
        let drive = drive_ipc(&mut SpanLog::new(), &mut metrics, &blocks, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        drive.unwrap();
        assert_eq!(metrics["ipc.wire_bytes_per_rec"], 32.0);
        assert!(metrics["ipc.frame_roundtrip_us_per_mib"] > 0.0);
    }

    #[test]
    fn unattributed_share_is_one_minus_the_explained_part() {
        use approxhadoop::runtime::metrics::MapStats;
        let stats = MapStats {
            task: TaskId(0),
            dataset: Default::default(),
            total_records: 1_000,
            sampled_records: 1_000,
            emitted: 0,
            shuffled: 0,
            duration_secs: 1e-3,
            read_secs: 0.0,
        };
        let m = JobMetrics {
            executed_maps: 1,
            total_records: 1_000,
            sampled_records: 1_000,
            map_stats: vec![stats],
            ..Default::default()
        };
        let costs = MapSideCosts {
            read_ns_per_poprec: 250.0,
            udf_ns_per_rec: 500.0,
            ..Default::default()
        };
        assert!((unattributed_share(&costs, &m) - 0.25).abs() < 1e-12);
    }
}
