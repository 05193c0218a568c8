//! A convenience façade wiring a namenode to block stores — the whole
//! "HDFS cluster" in one object.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::{BlockId, BlockMeta};
use crate::error::DfsError;
use crate::fault::{FaultStats, FaultStatsSnapshot, ReadFaults, ReplicaOutcome};
use crate::namenode::{NameNode, NodeId};
use crate::store::{BlockStore, CompositeStore, GeneratorStore, MemoryStore};
use crate::Result;

/// Configuration of a [`DfsCluster`].
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Number of datanodes (normally one per simulated server).
    pub datanodes: usize,
    /// Replication factor.
    pub replication: usize,
    /// Records per block (the analogue of HDFS's 64 MB block size,
    /// expressed in records because the sampling theory counts units).
    pub block_records: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            datanodes: 4,
            replication: 3,
            block_records: 10_000,
        }
    }
}

/// An open file: its ordered blocks plus their replica locations.
#[derive(Debug, Clone)]
pub struct FileHandle {
    /// The file path.
    pub path: String,
    /// Ordered block metadata.
    pub blocks: Vec<BlockMeta>,
    /// Replica locations, parallel to `blocks`.
    pub locations: Vec<Vec<NodeId>>,
}

impl FileHandle {
    /// Total records across all blocks.
    pub fn total_records(&self) -> u64 {
        self.blocks.iter().map(|b| b.records).sum()
    }

    /// Total bytes across all blocks.
    pub fn total_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.bytes).sum()
    }
}

/// An in-process DFS cluster: namenode + storage.
///
/// Shared handles are cheap: the cluster clones as an `Arc` internally so
/// the runtime's task trackers can read blocks concurrently.
pub struct DfsCluster {
    namenode: Arc<Mutex<NameNode>>,
    memory: MemoryStore,
    store: Arc<Mutex<CompositeStore>>,
    config: DfsConfig,
    faults: Arc<Mutex<Option<ReadFaults>>>,
    fault_stats: Arc<FaultStats>,
}

impl std::fmt::Debug for DfsCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfsCluster")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Clone for DfsCluster {
    fn clone(&self) -> Self {
        DfsCluster {
            namenode: Arc::clone(&self.namenode),
            memory: self.memory.clone(),
            store: Arc::clone(&self.store),
            config: self.config,
            faults: Arc::clone(&self.faults),
            fault_stats: Arc::clone(&self.fault_stats),
        }
    }
}

impl DfsCluster {
    /// Creates a cluster with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `datanodes`, `replication` or `block_records` is zero.
    pub fn new(config: DfsConfig) -> Self {
        assert!(config.block_records > 0, "block_records must be positive");
        let memory = MemoryStore::new();
        let mut composite = CompositeStore::new();
        composite.push(Arc::new(memory.clone()));
        DfsCluster {
            namenode: Arc::new(Mutex::new(NameNode::new(
                config.datanodes,
                config.replication,
            ))),
            memory,
            store: Arc::new(Mutex::new(composite)),
            config,
            faults: Arc::new(Mutex::new(None)),
            fault_stats: Arc::new(FaultStats::default()),
        }
    }

    /// Installs (or, with `None`, clears) a read-path fault-injection
    /// plan. Applies to all clones of this cluster — the plan lives on
    /// the shared cluster state, like a real datanode outage would.
    pub fn set_read_faults(&self, faults: Option<ReadFaults>) {
        *self.faults.lock() = faults.filter(ReadFaults::is_active);
    }

    /// Snapshot of the fault-injection counters (failed replica reads,
    /// failovers, slow reads, exhausted blocks).
    pub fn fault_stats(&self) -> FaultStatsSnapshot {
        self.fault_stats.snapshot()
    }

    /// The cluster configuration.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Writes `lines` as a text file, splitting into blocks of
    /// `block_records` lines (the last block may be short).
    pub fn write_lines<S: AsRef<str>>(&mut self, path: &str, lines: &[S]) -> Result<FileHandle> {
        let per = self.config.block_records as usize;
        let chunks: Vec<&[S]> = if lines.is_empty() {
            vec![&[]]
        } else {
            lines.chunks(per).collect()
        };
        let payloads: Vec<Arc<[u8]>> = chunks
            .iter()
            .map(|c| {
                let mut s = String::new();
                for l in c.iter() {
                    s.push_str(l.as_ref());
                    s.push('\n');
                }
                Arc::from(s.into_bytes())
            })
            .collect();
        let blocks = self.namenode.lock().create_file(
            path,
            payloads.len() as u64,
            |i| chunks[i as usize].len() as u64,
            |i| payloads[i as usize].len() as u64,
        )?;
        for (meta, payload) in blocks.iter().zip(payloads) {
            self.memory.put(meta.id, payload);
        }
        self.open(path)
    }

    /// Registers a *generated* file: `num_blocks` blocks whose contents
    /// are produced on demand by `generator(block_index)`, with
    /// `records(block_index)` records and `bytes(block_index)` bytes per
    /// block. Nothing is materialised until a block is read.
    pub fn write_generated(
        &mut self,
        path: &str,
        num_blocks: u64,
        records: impl Fn(u64) -> u64 + Send + Sync + 'static,
        bytes: impl Fn(u64) -> u64 + Send + Sync + 'static,
        generator: impl Fn(u64) -> Arc<[u8]> + Send + Sync + 'static,
    ) -> Result<FileHandle> {
        let blocks = self
            .namenode
            .lock()
            .create_file(path, num_blocks, records, bytes)?;
        let first = blocks[0].id.0;
        let last = blocks[blocks.len() - 1].id.0;
        let gen_store = GeneratorStore::new(move |id: BlockId| {
            (first..=last)
                .contains(&id.0)
                .then(|| generator(id.0 - first))
        });
        self.store.lock().push(Arc::new(gen_store));
        self.open(path)
    }

    /// Opens a file, returning its blocks and replica locations.
    pub fn open(&self, path: &str) -> Result<FileHandle> {
        let nn = self.namenode.lock();
        let blocks = nn.blocks_of(path)?;
        let locations = blocks
            .iter()
            .map(|b| nn.locate(b.id).map(|s| s.to_vec()))
            .collect::<Result<Vec<_>>>()?;
        Ok(FileHandle {
            path: path.into(),
            blocks,
            locations,
        })
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.namenode.lock().exists(path)
    }

    /// Deletes a file and frees its in-memory blocks.
    pub fn delete(&mut self, path: &str) -> Result<()> {
        let blocks = self.namenode.lock().delete_file(path)?;
        for b in blocks {
            self.memory.remove(b.id);
        }
        Ok(())
    }

    /// Reads the contents of one block.
    ///
    /// With a fault plan installed (see [`DfsCluster::set_read_faults`])
    /// the read walks the block's replicas in namenode placement order,
    /// failing over past dead or faulty replicas, and only errors with
    /// [`DfsError::AllReplicasFailed`] once every replica has failed.
    pub fn read_block(&self, id: BlockId) -> Result<Arc<[u8]>> {
        let faults = self.faults.lock().clone();
        let Some(faults) = faults else {
            return self.store.lock().read(id);
        };
        // Blocks the namenode cannot locate (e.g. deleted files) keep
        // their fault-free error behaviour.
        let Ok(replicas) = self.namenode.lock().locate(id).map(<[NodeId]>::to_vec) else {
            return self.store.lock().read(id);
        };
        let total = replicas.len();
        for (i, node) in replicas.into_iter().enumerate() {
            match faults.replica_outcome(id, node) {
                ReplicaOutcome::Fail => {
                    self.fault_stats.record_failed_replica();
                    if i + 1 < total {
                        self.fault_stats.record_failover();
                    }
                }
                ReplicaOutcome::Slow(delay) => {
                    self.fault_stats.record_slow_read();
                    std::thread::sleep(delay);
                    return self.store.lock().read(id);
                }
                ReplicaOutcome::Healthy => return self.store.lock().read(id),
            }
        }
        self.fault_stats.record_exhausted();
        Err(DfsError::AllReplicasFailed {
            block: id,
            replicas: total,
        })
    }

    /// Reads a block and splits it into text lines (records).
    pub fn read_block_lines(&self, id: BlockId) -> Result<Vec<String>> {
        let bytes = self.read_block(id)?;
        Ok(split_lines(&bytes))
    }
}

/// Splits a byte buffer into newline-terminated records.
pub fn split_lines(bytes: &[u8]) -> Vec<String> {
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("line {i}")).collect()
    }

    #[test]
    fn write_and_read_lines() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 3,
            replication: 2,
            block_records: 10,
        });
        let handle = dfs.write_lines("f", &lines(25)).unwrap();
        assert_eq!(handle.blocks.len(), 3);
        assert_eq!(handle.blocks[0].records, 10);
        assert_eq!(handle.blocks[2].records, 5);
        assert_eq!(handle.total_records(), 25);
        let rec = dfs.read_block_lines(handle.blocks[1].id).unwrap();
        assert_eq!(rec.len(), 10);
        assert_eq!(rec[0], "line 10");
    }

    #[test]
    fn empty_file_becomes_single_empty_block() {
        let mut dfs = DfsCluster::new(DfsConfig::default());
        let handle = dfs.write_lines::<String>("empty", &[]).unwrap();
        assert_eq!(handle.blocks.len(), 1);
        assert_eq!(handle.total_records(), 0);
        assert!(dfs
            .read_block_lines(handle.blocks[0].id)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn generated_file_materialises_on_read() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 2,
            replication: 1,
            block_records: 100,
        });
        let handle = dfs
            .write_generated(
                "gen",
                5,
                |_| 100,
                |_| 1000,
                |i| {
                    (0..100)
                        .flat_map(|j| format!("g{i}:{j}\n").into_bytes())
                        .collect()
                },
            )
            .unwrap();
        assert_eq!(handle.blocks.len(), 5);
        let rec = dfs.read_block_lines(handle.blocks[3].id).unwrap();
        assert_eq!(rec.len(), 100);
        assert_eq!(rec[0], "g3:0");
        // Deterministic regeneration.
        let again = dfs.read_block_lines(handle.blocks[3].id).unwrap();
        assert_eq!(rec, again);
    }

    #[test]
    fn generated_and_memory_files_coexist() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 2,
            replication: 1,
            block_records: 4,
        });
        let mem = dfs.write_lines("mem", &lines(4)).unwrap();
        let gen = dfs
            .write_generated("gen", 1, |_| 1, |_| 2, |_| Arc::from(&b"x\n"[..]))
            .unwrap();
        assert_eq!(dfs.read_block_lines(mem.blocks[0].id).unwrap().len(), 4);
        assert_eq!(dfs.read_block_lines(gen.blocks[0].id).unwrap(), vec!["x"]);
    }

    #[test]
    fn delete_frees_blocks() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 1,
            replication: 1,
            block_records: 10,
        });
        let handle = dfs.write_lines("f", &lines(5)).unwrap();
        assert!(dfs.exists("f"));
        dfs.delete("f").unwrap();
        assert!(!dfs.exists("f"));
        assert!(dfs.read_block(handle.blocks[0].id).is_err());
    }

    #[test]
    fn locations_match_replication() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 5,
            replication: 3,
            block_records: 1,
        });
        let handle = dfs.write_lines("f", &lines(7)).unwrap();
        for locs in &handle.locations {
            assert_eq!(locs.len(), 3);
        }
    }

    #[test]
    fn clone_shares_namespace() {
        let mut dfs = DfsCluster::new(DfsConfig::default());
        let other = dfs.clone();
        dfs.write_lines("shared", &lines(3)).unwrap();
        assert!(other.exists("shared"));
    }

    #[test]
    fn dead_datanode_fails_over_to_live_replica() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 3,
            replication: 2,
            block_records: 5,
        });
        let handle = dfs.write_lines("f", &lines(30)).unwrap();
        // Kill whichever node hosts the primary replica of block 0 so at
        // least one read must fail over.
        let primary = handle.locations[0][0].0;
        dfs.set_read_faults(Some(ReadFaults {
            dead_nodes: vec![primary],
            ..Default::default()
        }));
        for b in &handle.blocks {
            // Every block still reads: replication 2 over 3 nodes leaves
            // a live replica for every block.
            assert!(dfs.read_block(b.id).is_ok(), "block {:?}", b.id);
        }
        let stats = dfs.fault_stats();
        assert!(stats.failed_replica_reads > 0);
        assert!(stats.failovers > 0, "stats: {stats:?}");
        assert_eq!(stats.exhausted_reads, 0);
    }

    #[test]
    fn all_replicas_dead_exhausts_the_read() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 2,
            replication: 2,
            block_records: 5,
        });
        let handle = dfs.write_lines("f", &lines(5)).unwrap();
        dfs.set_read_faults(Some(ReadFaults {
            dead_nodes: vec![0, 1],
            ..Default::default()
        }));
        let err = dfs.read_block(handle.blocks[0].id).unwrap_err();
        assert!(
            matches!(err, DfsError::AllReplicasFailed { replicas: 2, .. }),
            "got {err:?}"
        );
        assert_eq!(dfs.fault_stats().exhausted_reads, 1);
        // Clearing the plan restores the read.
        dfs.set_read_faults(None);
        assert!(dfs.read_block(handle.blocks[0].id).is_ok());
    }

    #[test]
    fn slow_replica_delays_but_succeeds() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 2,
            replication: 1,
            block_records: 50,
        });
        let handle = dfs.write_lines("f", &lines(100)).unwrap();
        dfs.set_read_faults(Some(ReadFaults {
            slow_replica_prob: 1.0,
            slow_replica_delay: std::time::Duration::from_millis(5),
            ..Default::default()
        }));
        let t0 = std::time::Instant::now();
        for b in &handle.blocks {
            assert!(dfs.read_block(b.id).is_ok());
        }
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        assert_eq!(dfs.fault_stats().slow_reads, 2);
    }

    #[test]
    fn fault_plan_is_shared_across_clones() {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 1,
            replication: 1,
            block_records: 10,
        });
        let handle = dfs.write_lines("f", &lines(3)).unwrap();
        let clone = dfs.clone();
        dfs.set_read_faults(Some(ReadFaults {
            dead_nodes: vec![0],
            ..Default::default()
        }));
        assert!(clone.read_block(handle.blocks[0].id).is_err());
        // An inactive plan is treated as no plan.
        dfs.set_read_faults(Some(ReadFaults::default()));
        assert!(clone.read_block(handle.blocks[0].id).is_ok());
    }

    #[test]
    fn split_lines_handles_trailing_newline_and_empties() {
        assert_eq!(split_lines(b"a\n\nb\n"), vec!["a", "b"]);
        assert!(split_lines(b"").is_empty());
    }
}
