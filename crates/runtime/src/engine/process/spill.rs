//! The worker-side spill-capable shuffle buffer.
//!
//! A map attempt's emissions accumulate in memory, pre-partitioned per
//! reducer, until their encoded size exceeds the configured budget; the
//! buffer is then **spilled** as one run file and cleared. At drain
//! time the runs are merged back per partition and streamed to the
//! sink, so an attempt whose output far exceeds RAM still completes
//! with the in-memory backends' exact results:
//!
//! * **raw path** (no combiner): runs preserve emission order, and the
//!   drain concatenates runs chronologically (in-memory tail last) —
//!   the final pair order is identical to a never-spilled run.
//! * **combining path**: each run is one sorted snapshot of the
//!   per-partition fold table (hash-folded, sorted by key at spill
//!   time); the drain performs a streaming k-way merge by key, folding
//!   equal keys in run order.
//!   Because combiners are associative reductions (see
//!   [`crate::combine`]), the merged value per key equals the
//!   never-spilled fold, and keys stream out in the same sorted order.
//!
//! Run files reuse the spool container format
//! ([`approxhadoop_dfs::FileStoreWriter`]) with one block per reduce
//! partition, and are read back through `mmap`, so a drain never loads
//! a whole run into memory.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use approxhadoop_dfs::{BlockId, FileStore, FileStoreWriter};
use approxhadoop_ipc::{Decoder, Wire};
use approxhadoop_obs::Counter;

use crate::combine::{CombineTable, Combiner};
use crate::engine::attempt::EmitSink;
use crate::types::{Key, Value};

/// What one attempt spilled, reported back to the parent for the
/// `approx_process_spill_*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpillReport {
    /// Number of run files written.
    pub(crate) runs: u64,
    /// Total bytes of run payloads written.
    pub(crate) bytes: u64,
}

/// A lazily-decoded cursor over one run's partition segment.
struct Cursor<'a, K, V> {
    dec: Decoder<'a>,
    head: Option<(K, V)>,
}

impl<'a, K: Wire, V: Wire> Cursor<'a, K, V> {
    fn new(buf: &'a [u8]) -> Result<Self, String> {
        let mut c = Cursor {
            dec: Decoder::new(buf),
            head: None,
        };
        c.advance()?;
        Ok(c)
    }

    fn advance(&mut self) -> Result<(), String> {
        self.head = if self.dec.remaining() == 0 {
            None
        } else {
            let k = K::decode(&mut self.dec).map_err(|e| format!("spill run corrupt: {e}"))?;
            let v = V::decode(&mut self.dec).map_err(|e| format!("spill run corrupt: {e}"))?;
            Some((k, v))
        };
        Ok(())
    }

    fn take(&mut self) -> Result<Option<(K, V)>, String> {
        let head = self.head.take();
        if head.is_some() {
            self.advance()?;
        }
        Ok(head)
    }
}

/// Per-attempt shuffle buffer with a byte budget and disk spilling.
pub(crate) struct SpillShuffle<'c, K: Key + Wire, V: Value + Wire> {
    combiner: Option<&'c dyn Combiner<K, V>>,
    /// Strict in-memory budget: buffering `> budget` encoded bytes
    /// triggers a spill (a single oversized pair spills immediately).
    budget: usize,
    dir: PathBuf,
    dir_created: bool,
    mem_bytes: usize,
    raw: Vec<Vec<(K, V)>>,
    combined: Vec<CombineTable<K, V>>,
    runs: Vec<PathBuf>,
    report: SpillReport,
    /// Optional live `(runs, bytes)` counters bumped at actual spill
    /// time, so a scrape mid-attempt already reflects the disk traffic
    /// (the [`SpillReport`] only surfaces at drain).
    counters: Option<(Arc<Counter>, Arc<Counter>)>,
    scratch: Vec<u8>,
    cleaned: bool,
}

impl<'c, K: Key + Wire, V: Value + Wire> SpillShuffle<'c, K, V> {
    /// Creates a buffer for `partitions` reducers spilling into `dir`
    /// (created lazily on first spill).
    pub(crate) fn new(
        partitions: usize,
        combiner: Option<&'c dyn Combiner<K, V>>,
        budget: usize,
        dir: PathBuf,
    ) -> Self {
        SpillShuffle {
            combiner,
            budget,
            dir,
            dir_created: false,
            mem_bytes: 0,
            raw: (0..partitions).map(|_| Vec::new()).collect(),
            combined: (0..partitions).map(|_| CombineTable::new()).collect(),
            runs: Vec::new(),
            report: SpillReport::default(),
            counters: None,
            scratch: Vec::new(),
            cleaned: false,
        }
    }

    /// Attaches live `(runs, bytes)` counters incremented inside
    /// [`spill`](Self::spill) whenever a run file is actually written.
    pub(crate) fn with_counters(mut self, runs: Arc<Counter>, bytes: Arc<Counter>) -> Self {
        self.counters = Some((runs, bytes));
        self
    }

    /// Writes everything buffered as one run file and clears the buffer.
    fn spill(&mut self) -> Result<(), String> {
        if self.mem_bytes == 0 {
            return Ok(());
        }
        if !self.dir_created {
            fs::create_dir_all(&self.dir).map_err(|e| format!("create spill dir: {e}"))?;
            self.dir_created = true;
        }
        let path = self.dir.join(format!("run-{:04}.spill", self.runs.len()));
        let mut w = FileStoreWriter::create(&path).map_err(|e| format!("spill: {e}"))?;
        let bytes_before = self.report.bytes;
        let mut payload = Vec::new();
        for p in 0..self.raw.len() {
            payload.clear();
            let mut count = 0u64;
            for (k, v) in self.raw[p].drain(..) {
                k.encode(&mut payload);
                v.encode(&mut payload);
                count += 1;
            }
            // The sort here keeps the run key-sorted — the invariant the
            // drain's k-way merge depends on.
            for (k, v) in self.combined[p].drain_sorted() {
                k.encode(&mut payload);
                v.encode(&mut payload);
                count += 1;
            }
            self.report.bytes += payload.len() as u64;
            w.append(BlockId(p as u64), count, &payload)
                .map_err(|e| format!("spill: {e}"))?;
        }
        w.finish().map_err(|e| format!("spill: {e}"))?;
        self.runs.push(path);
        self.report.runs += 1;
        if let Some((runs, bytes)) = &self.counters {
            runs.inc();
            bytes.add(self.report.bytes - bytes_before);
        }
        self.mem_bytes = 0;
        Ok(())
    }

    /// Streams the final merged output, partition by partition, into
    /// `sink`, then removes the run files. Pair order and values are
    /// identical to a never-spilled buffer (see module docs).
    pub(crate) fn drain(
        &mut self,
        mut sink: impl FnMut(usize, K, V) -> Result<(), String>,
    ) -> Result<SpillReport, String> {
        let stores: Vec<FileStore> = self
            .runs
            .iter()
            .map(|p| FileStore::open(p).map_err(|e| format!("spill: {e}")))
            .collect::<Result<_, String>>()?;
        let partitions = self.raw.len();
        let mut mem = Vec::new();
        for p in 0..partitions {
            // The in-memory remainder acts as the chronologically last
            // run, encoded through the same cursor machinery.
            mem.clear();
            for (k, v) in self.raw[p].drain(..) {
                k.encode(&mut mem);
                v.encode(&mut mem);
            }
            for (k, v) in self.combined[p].drain_sorted() {
                k.encode(&mut mem);
                v.encode(&mut mem);
            }
            let mut cursors: Vec<Cursor<'_, K, V>> = Vec::with_capacity(stores.len() + 1);
            for s in &stores {
                cursors.push(Cursor::new(s.slice(BlockId(p as u64)).unwrap_or(&[]))?);
            }
            cursors.push(Cursor::new(&mem)?);
            match self.combiner {
                None => {
                    for c in &mut cursors {
                        while let Some((k, v)) = c.take()? {
                            sink(p, k, v)?;
                        }
                    }
                }
                Some(combiner) => loop {
                    let min = cursors
                        .iter()
                        .filter_map(|c| c.head.as_ref().map(|(k, _)| k))
                        .min()
                        .cloned();
                    let Some(key) = min else { break };
                    let mut acc: Option<V> = None;
                    for c in &mut cursors {
                        while c.head.as_ref().is_some_and(|(k, _)| *k == key) {
                            let (_, v) = c.take()?.expect("head checked");
                            match &mut acc {
                                None => acc = Some(v),
                                Some(a) => combiner.combine(&key, a, v),
                            }
                        }
                    }
                    sink(p, key, acc.expect("at least one source held the key"))?;
                },
            }
        }
        drop(stores);
        self.cleanup();
        Ok(self.report)
    }

    fn cleanup(&mut self) {
        if self.cleaned {
            return;
        }
        for p in &self.runs {
            let _ = fs::remove_file(p);
        }
        if self.dir_created {
            let _ = fs::remove_dir(&self.dir);
        }
        self.cleaned = true;
    }
}

/// The worker's [`EmitSink`]: a failed spill fails the attempt.
impl<K: Key + Wire, V: Value + Wire> EmitSink<K, V> for SpillShuffle<'_, K, V> {
    /// Routes one emission into partition `p` (whose key hashes to
    /// `hash` under [`fx_hash`](crate::types::fx_hash)), spilling if the
    /// budget is exceeded. The cost charged is the pair's encoded size —
    /// on the combining path this is conservative (folding into an
    /// existing key grows memory far less), which only makes spills
    /// earlier, never later.
    fn emit(&mut self, p: usize, hash: u64, key: K, value: V) -> Result<(), String> {
        self.scratch.clear();
        key.encode(&mut self.scratch);
        value.encode(&mut self.scratch);
        self.mem_bytes += self.scratch.len();
        crate::combine::route_emission(
            self.combiner,
            &mut self.raw,
            &mut self.combined,
            p,
            hash,
            key,
            value,
        );
        if self.mem_bytes > self.budget {
            self.spill()?;
        }
        Ok(())
    }
}

impl<K: Key + Wire, V: Value + Wire> Drop for SpillShuffle<'_, K, V> {
    fn drop(&mut self) {
        // Killed / panicked attempts never drain; don't leak run files.
        self.cleanup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::SumCombiner;

    impl<K: Key + Wire, V: Value + Wire> SpillShuffle<'_, K, V> {
        /// Test shorthand for [`emit`](Self::emit): hashes the key
        /// inline, as the map hot path does once per emission.
        fn emit_kv(&mut self, p: usize, key: K, value: V) -> Result<(), String> {
            let hash = crate::types::fx_hash(&key);
            self.emit(p, hash, key, value)
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "approxhadoop-spill-test-{}-{name}",
            std::process::id()
        ))
    }

    fn collect(s: &mut SpillShuffle<'_, u32, u64>) -> Vec<(usize, u32, u64)> {
        let mut out = Vec::new();
        s.drain(|p, k, v| {
            out.push((p, k, v));
            Ok(())
        })
        .unwrap();
        out
    }

    /// Encoded size of one `(u32, u64)` pair.
    const PAIR: usize = 12;

    #[test]
    fn single_pair_larger_than_budget_spills_immediately() {
        let dir = test_dir("oversized");
        let mut s: SpillShuffle<'_, u32, u64> = SpillShuffle::new(2, None, PAIR - 1, dir.clone());
        s.emit_kv(0, 1, 100).unwrap();
        assert_eq!(s.report.runs, 1, "one pair over budget must spill at once");
        s.emit_kv(1, 2, 200).unwrap();
        let report = {
            let mut out = Vec::new();
            s.drain(|p, k, v| {
                out.push((p, k, v));
                Ok(())
            })
            .unwrap()
        };
        assert_eq!(report.runs, 2);
        assert!(!dir.exists(), "spill dir removed after drain");
    }

    #[test]
    fn budget_boundary_is_strict() {
        // Exactly filling the budget does NOT spill; one more byte does.
        let dir = test_dir("boundary");
        let mut s: SpillShuffle<'_, u32, u64> = SpillShuffle::new(2, None, 3 * PAIR, dir);
        s.emit_kv(0, 1, 1).unwrap();
        s.emit_kv(1, 2, 2).unwrap();
        s.emit_kv(0, 3, 3).unwrap();
        assert_eq!(s.report.runs, 0, "exactly at budget must not spill");
        s.emit_kv(1, 4, 4).unwrap();
        assert_eq!(s.report.runs, 1, "first byte past budget spills");
        assert_eq!(
            collect(&mut s),
            vec![(0, 1, 1), (0, 3, 3), (1, 2, 2), (1, 4, 4)]
        );
    }

    #[test]
    fn raw_drain_preserves_emission_order_across_spills() {
        let dir = test_dir("raworder");
        let mut spilled: SpillShuffle<'_, u32, u64> = SpillShuffle::new(2, None, 2 * PAIR, dir);
        let mut plain: SpillShuffle<'_, u32, u64> =
            SpillShuffle::new(2, None, usize::MAX, test_dir("rawplain"));
        for i in 0..40u64 {
            // Repeating keys, deliberately unsorted.
            let k = (40 - i) as u32 % 7;
            spilled.emit_kv((i % 2) as usize, k, i).unwrap();
            plain.emit_kv((i % 2) as usize, k, i).unwrap();
        }
        assert!(spilled.report.runs > 1);
        assert_eq!(collect(&mut spilled), collect(&mut plain));
    }

    #[test]
    fn combined_drain_matches_unspilled_fold() {
        let dir = test_dir("combined");
        let c = SumCombiner;
        let mut spilled: SpillShuffle<'_, u32, u64> = SpillShuffle::new(2, Some(&c), PAIR, dir);
        let mut plain: SpillShuffle<'_, u32, u64> =
            SpillShuffle::new(2, Some(&c), usize::MAX, test_dir("combplain"));
        for i in 0..60u64 {
            let k = (i * 7 % 11) as u32;
            spilled.emit_kv((k % 2) as usize, k, i).unwrap();
            plain.emit_kv((k % 2) as usize, k, i).unwrap();
        }
        assert!(spilled.report.runs > 5);
        let a = {
            let mut s = spilled;
            collect(&mut s)
        };
        let b = {
            let mut s = plain;
            collect(&mut s)
        };
        assert_eq!(a, b, "merged spill fold must equal the in-memory fold");
    }

    #[test]
    fn live_counters_tick_at_spill_time_and_match_the_report() {
        let obs = approxhadoop_obs::Obs::shared();
        let runs = obs
            .registry
            .counter("approx_process_spill_runs_total", &[("job", "t")]);
        let bytes = obs
            .registry
            .counter("approx_process_spill_bytes_total", &[("job", "t")]);
        let mut s: SpillShuffle<'_, u32, u64> =
            SpillShuffle::new(2, None, 2 * PAIR, test_dir("livecounters"))
                .with_counters(Arc::clone(&runs), Arc::clone(&bytes));
        for i in 0..10u64 {
            s.emit_kv((i % 2) as usize, i as u32, i).unwrap();
        }
        assert!(runs.get() > 0, "counters must tick before drain");
        assert!(bytes.get() > 0);
        let report = s.drain(|_, _, _| Ok(())).unwrap();
        assert_eq!(runs.get(), report.runs, "live runs == drained report");
        assert_eq!(bytes.get(), report.bytes, "live bytes == drained report");
    }

    /// Edge case: nothing ever spilled — the drain must serve the
    /// non-empty in-memory partitions alone, bit-identical to what the
    /// in-memory shuffle path would produce (sorted fold per partition
    /// on the combining path, emission order on the raw path).
    #[test]
    fn drain_with_zero_runs_serves_in_memory_partitions() {
        let c = SumCombiner;
        let mut s: SpillShuffle<'_, u32, u64> =
            SpillShuffle::new(2, Some(&c), usize::MAX, test_dir("zeroruns"));
        for (k, v) in [(9u32, 1u64), (3, 2), (9, 3), (4, 4)] {
            s.emit_kv((k % 2) as usize, k, v).unwrap();
        }
        assert_eq!(s.report.runs, 0, "budget never exceeded: no runs");
        assert_eq!(
            collect(&mut s),
            vec![(0, 4, 4), (1, 3, 2), (1, 9, 4)],
            "in-memory-only drain folds and sorts per partition"
        );

        let mut raw: SpillShuffle<'_, u32, u64> =
            SpillShuffle::new(1, None, usize::MAX, test_dir("zerorunsraw"));
        for (k, v) in [(9u32, 1u64), (3, 2), (9, 3)] {
            raw.emit_kv(0, k, v).unwrap();
        }
        assert_eq!(raw.report.runs, 0);
        assert_eq!(
            collect(&mut raw),
            vec![(0, 9, 1), (0, 3, 2), (0, 9, 3)],
            "raw in-memory-only drain preserves emission order"
        );
    }

    /// Edge case: runs whose key ranges do not overlap at all — the
    /// k-way merge must stitch them into one sorted stream and still
    /// match the never-spilled fold bit-for-bit.
    #[test]
    fn combined_merge_of_disjoint_key_ranges_matches_unspilled() {
        let c = SumCombiner;
        // Budget of 4 pairs per run; emit keys in disjoint phases so
        // each run covers its own key range (0..4, then 100..104, then
        // 50..54 — out of order across runs on purpose).
        let mut spilled: SpillShuffle<'_, u32, u64> =
            SpillShuffle::new(1, Some(&c), 4 * PAIR, test_dir("disjoint"));
        let mut plain: SpillShuffle<'_, u32, u64> =
            SpillShuffle::new(1, Some(&c), usize::MAX, test_dir("disjointplain"));
        for base in [0u32, 100, 50] {
            for i in 0..5u32 {
                let k = base + i;
                spilled.emit_kv(0, k, u64::from(k)).unwrap();
                plain.emit_kv(0, k, u64::from(k)).unwrap();
            }
        }
        assert!(
            spilled.report.runs >= 3,
            "each phase must land in its own run, got {}",
            spilled.report.runs
        );
        let merged = collect(&mut spilled);
        assert_eq!(merged, collect(&mut plain), "disjoint-range merge diverged");
        let keys: Vec<u32> = merged.iter().map(|(_, k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "merged stream must be globally key-sorted");
    }

    #[test]
    fn dropped_buffer_cleans_its_runs() {
        let dir = test_dir("dropcleanup");
        let mut s: SpillShuffle<'_, u32, u64> = SpillShuffle::new(1, None, 1, dir.clone());
        s.emit_kv(0, 1, 1).unwrap();
        assert!(dir.exists());
        drop(s);
        assert!(
            !dir.exists(),
            "Drop must remove spill files of killed attempts"
        );
    }
}
