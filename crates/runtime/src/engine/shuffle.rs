//! Shuffle plumbing shared by every execution backend: per-reducer
//! channels, the in-process map-output arena and its sink,
//! pre-partitioned batch shipping, drop notifications, and the one
//! reduce-task body.
//!
//! Every executor routes map outputs through the same channel fabric, so
//! the shuffle contract — one deduplicated `MapOutput`/`MapDropped`
//! event per task per reducer — lives in exactly one place.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::combine::{route_emission, CombineTable, Combiner};
use crate::control::JobControl;
use crate::reducer::{DedupState, MapOutputMeta, ReduceContext, ReduceEvent, Reducer};
use crate::types::{Key, TaskId, Value};

use super::attempt::EmitSink;

/// Arena-reused per-reducer output buffers for map attempts.
///
/// A task-tracker thread keeps one `MapBuffers` alive across every
/// attempt it runs, so the hot path stops paying per-attempt allocation:
/// the combine tables keep their hash-table allocations across drains,
/// and raw pair vectors (whose backing store is moved out when a batch
/// ships) are pre-sized to the per-partition high-water mark of earlier
/// attempts on the same worker.
pub(crate) struct MapBuffers<K: Key, V: Value> {
    /// Raw path: one pair vector per reduce partition.
    pub(crate) raw: Vec<Vec<(K, V)>>,
    /// Combining path: one hash-fold table per reduce partition.
    pub(crate) combined: Vec<CombineTable<K, V>>,
    /// Largest raw batch shipped per partition so far.
    raw_hwm: Vec<usize>,
}

impl<K: Key, V: Value> MapBuffers<K, V> {
    /// Empty buffers; [`MapBuffers::reset`] sizes them per attempt.
    pub(crate) fn new() -> Self {
        MapBuffers {
            raw: Vec::new(),
            combined: Vec::new(),
            raw_hwm: Vec::new(),
        }
    }

    /// Prepares the buffers for one attempt over `reducers` partitions:
    /// discards leftovers from a killed or panicked predecessor (keeping
    /// allocations), and pre-sizes fresh raw vectors to the high-water
    /// mark so steady-state attempts never grow them incrementally.
    pub(crate) fn reset(&mut self, reducers: usize) {
        if self.raw.len() != reducers {
            self.raw = (0..reducers).map(|_| Vec::new()).collect();
            self.combined = (0..reducers).map(|_| CombineTable::new()).collect();
            self.raw_hwm = vec![0; reducers];
        }
        for (v, &hwm) in self.raw.iter_mut().zip(&self.raw_hwm) {
            v.clear();
            if v.capacity() == 0 && hwm > 0 {
                v.reserve(hwm);
            }
        }
        for table in &mut self.combined {
            table.clear();
        }
    }
}

/// One attempt's view of a thread's [`MapBuffers`] — the in-process
/// [`EmitSink`]: folds into the combine tables when the job combines,
/// appends to the raw vectors otherwise. Never fails.
pub(crate) struct BufferSink<'a, K: Key, V: Value> {
    pub(crate) combiner: Option<&'a dyn Combiner<K, V>>,
    pub(crate) bufs: &'a mut MapBuffers<K, V>,
}

impl<K: Key, V: Value> EmitSink<K, V> for BufferSink<'_, K, V> {
    #[inline]
    fn emit(&mut self, partition: usize, hash: u64, key: K, value: V) -> Result<(), String> {
        let MapBuffers { raw, combined, .. } = &mut *self.bufs;
        route_emission(self.combiner, raw, combined, partition, hash, key, value);
        Ok(())
    }
}

/// Creates one unbounded channel per reduce task.
#[allow(clippy::type_complexity)] // a (senders, receivers) pair, nothing deeper
pub(crate) fn reducer_channels<K: Key, V: Value>(
    reducers: usize,
) -> (
    Vec<Sender<ReduceEvent<K, V>>>,
    Vec<Receiver<ReduceEvent<K, V>>>,
) {
    let mut txs = Vec::with_capacity(reducers);
    let mut rxs = Vec::with_capacity(reducers);
    for _ in 0..reducers {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }
    (txs, rxs)
}

/// Tells every reducer that `task` will never deliver output (dropped,
/// killed, or degraded-to-drop) so barrier-less reducers can account for
/// the missing cluster per Eq. 1–3.
pub(crate) fn broadcast_drop<K: Key, V: Value>(txs: &[Sender<ReduceEvent<K, V>>], task: usize) {
    for tx in txs {
        let _ = tx.send(ReduceEvent::MapDropped { task: TaskId(task) });
    }
}

/// Ships one map attempt's outputs: each reducer receives exactly one
/// pre-partitioned batch (pre-combined and in key order when a combiner
/// ran — the hash tables are sorted here, once per batch, so shipped
/// bytes stay identical to the old ordered-insert path). Returns the
/// number of pairs shuffled.
pub(crate) fn ship_outputs<K: Key, V: Value>(
    reducer_txs: &[Sender<ReduceEvent<K, V>>],
    meta: MapOutputMeta,
    combined_path: bool,
    bufs: &mut MapBuffers<K, V>,
) -> u64 {
    let mut shuffled = 0u64;
    for (p, tx) in reducer_txs.iter().enumerate() {
        let pairs: Vec<(K, V)> = if combined_path {
            bufs.combined[p].drain_sorted()
        } else {
            bufs.raw_hwm[p] = bufs.raw_hwm[p].max(bufs.raw[p].len());
            std::mem::take(&mut bufs.raw[p])
        };
        shuffled += pairs.len() as u64;
        let _ = tx.send(ReduceEvent::MapOutput { meta, pairs });
    }
    shuffled
}

/// The one reduce-task body, wherever it runs: a reducer thread feeds it
/// each event as it arrives, the inline placement feeds it from the
/// driving thread. Only the first event per map task (speculative
/// siblings deliver duplicates) reaches the user reducer.
pub(crate) struct ReduceTask<R: Reducer> {
    reducer: R,
    ctx: ReduceContext,
    dedup: DedupState,
}

impl<R: Reducer> ReduceTask<R> {
    pub(crate) fn new(
        reducer: R,
        partition: usize,
        total_maps: usize,
        control: Arc<JobControl>,
    ) -> Self {
        ReduceTask {
            reducer,
            ctx: ReduceContext::new(partition, total_maps, control),
            dedup: DedupState::new(),
        }
    }

    /// Forwards one shuffle event to the reducer unless its task was
    /// already seen.
    pub(crate) fn absorb(&mut self, event: ReduceEvent<R::Key, R::Value>) {
        match event {
            ReduceEvent::MapOutput { meta, pairs } => {
                if self.dedup.first(meta.task) {
                    self.ctx.note_map();
                    self.reducer.on_map_output(&meta, pairs, &mut self.ctx);
                }
            }
            ReduceEvent::MapDropped { task } => {
                if self.dedup.first(task) {
                    self.ctx.note_map();
                    self.reducer.on_map_dropped(task, &mut self.ctx);
                }
            }
        }
    }

    /// Finalises the reducer once every event has been absorbed.
    pub(crate) fn finish(mut self) -> Vec<R::Output> {
        self.reducer.finish(&mut self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::GroupedReducer;

    #[test]
    fn ship_outputs_takes_raw_or_combined_path() {
        let (txs, rxs) = reducer_channels::<u32, u64>(2);
        let meta = MapOutputMeta {
            task: TaskId(0),
            dataset: Default::default(),
            total_records: 3,
            sampled_records: 3,
            duration_secs: 0.0,
        };
        let mut bufs: MapBuffers<u32, u64> = MapBuffers::new();
        bufs.reset(2);
        bufs.raw[0] = vec![(1u32, 1u64), (1, 1)];
        bufs.raw[1] = vec![(2, 1)];
        let c = crate::combine::SumCombiner;
        bufs.combined[0].fold(&c, crate::types::fx_hash(&1u32), 1u32, 2u64);
        // Raw path ships every pair.
        let shuffled = ship_outputs(&txs, meta, false, &mut bufs);
        assert_eq!(shuffled, 3);
        // Combined path ships the folded table (raw was already drained).
        let shuffled = ship_outputs(&txs, meta, true, &mut bufs);
        assert_eq!(shuffled, 1);
        drop(txs);
        let batches: Vec<_> = rxs[0].iter().collect();
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn combined_batches_ship_in_key_order() {
        let (txs, rxs) = reducer_channels::<String, u64>(1);
        let meta = MapOutputMeta {
            task: TaskId(0),
            dataset: Default::default(),
            total_records: 4,
            sampled_records: 4,
            duration_secs: 0.0,
        };
        let mut bufs: MapBuffers<String, u64> = MapBuffers::new();
        bufs.reset(1);
        let c = crate::combine::SumCombiner;
        for w in ["pear", "apple", "quince", "apple"] {
            bufs.combined[0].fold(&c, crate::types::fx_hash(w), w.to_string(), 1u64);
        }
        ship_outputs(&txs, meta, true, &mut bufs);
        drop(txs);
        let batch = match rxs[0].iter().next().unwrap() {
            ReduceEvent::MapOutput { pairs, .. } => pairs,
            _ => panic!("expected a MapOutput event"),
        };
        assert_eq!(
            batch,
            vec![
                ("apple".to_string(), 2),
                ("pear".to_string(), 1),
                ("quince".to_string(), 1),
            ],
            "hash-folded batches must still arrive sorted by key"
        );
    }

    #[test]
    fn map_buffers_reset_presizes_from_high_water_mark() {
        let (txs, _rxs) = reducer_channels::<u32, u64>(1);
        let meta = MapOutputMeta {
            task: TaskId(0),
            dataset: Default::default(),
            total_records: 64,
            sampled_records: 64,
            duration_secs: 0.0,
        };
        let mut bufs: MapBuffers<u32, u64> = MapBuffers::new();
        bufs.reset(1);
        bufs.raw[0].extend((0..64u32).map(|i| (i, 1u64)));
        ship_outputs(&txs, meta, false, &mut bufs);
        assert!(bufs.raw[0].capacity() == 0, "shipping moves the vector out");
        bufs.reset(1);
        assert!(
            bufs.raw[0].capacity() >= 64,
            "next attempt starts at the high-water mark, got {}",
            bufs.raw[0].capacity()
        );
        // Leftovers from an aborted attempt are discarded on reset.
        bufs.raw[0].push((9, 9));
        bufs.combined[0].fold(
            &crate::combine::SumCombiner,
            crate::types::fx_hash(&1u32),
            1u32,
            1u64,
        );
        bufs.reset(1);
        assert!(bufs.raw[0].is_empty() && bufs.combined[0].is_empty());
    }

    #[test]
    fn drain_dedups_sibling_outputs_and_drops() {
        let (txs, rxs) = reducer_channels::<u32, u64>(1);
        let meta = MapOutputMeta {
            task: TaskId(0),
            dataset: Default::default(),
            total_records: 1,
            sampled_records: 1,
            duration_secs: 0.0,
        };
        // Two sibling attempts deliver the same task; one other task drops
        // (twice — e.g. a killed sibling racing the drop broadcast).
        for _ in 0..2 {
            let _ = txs[0].send(ReduceEvent::MapOutput {
                meta,
                pairs: vec![(7u32, 1u64)],
            });
            broadcast_drop(&txs, 1);
        }
        drop(txs);
        let control = Arc::new(JobControl::new(1));
        let mut task = ReduceTask::new(
            GroupedReducer::new(|k: &u32, vs: &[u64]| Some((*k, vs.len()))),
            0,
            2,
            control,
        );
        for event in &rxs[0] {
            task.absorb(event);
        }
        assert_eq!(
            task.finish(),
            vec![(7, 1)],
            "duplicate deliveries must be ignored"
        );
    }
}
