//! Block-structured distributed file system substrate for ApproxHadoop-RS.
//!
//! This crate plays HDFS's role in the paper: datasets are split into
//! fixed-size **blocks**, each block is placed (with replication) on a set
//! of **datanodes**, and a cluster-wide **namenode** maps file names to
//! block locations. The MapReduce runtime schedules one map task per
//! block, preferring servers that hold the block locally.
//!
//! Only the properties the paper depends on are modelled:
//!
//! * the block partition — blocks are the *clusters* of the two-stage
//!   sampling theory, so block boundaries and per-block record counts
//!   must be first class;
//! * locality metadata — the JobTracker prefers local slots;
//! * replication — block loss/recovery is out of scope.
//!
//! Storage is in-process: a [`DfsCluster`] keeps its blocks in one
//! [`store::MemoryStore`]. Synthetic datasets far larger than RAM are not
//! stored at all; the runtime's input sources generate each block on
//! demand. [`FileStore`] is the process backend's spool: the parent writes
//! a job's blocks to one file and each worker maps it read-only.
//!
//! # Example
//!
//! ```
//! use approxhadoop_dfs::{DfsCluster, DfsConfig};
//!
//! let mut dfs = DfsCluster::new(DfsConfig {
//!     datanodes: 4,
//!     replication: 2,
//!     block_records: 100,
//! });
//! let records: Vec<String> = (0..250).map(|i| format!("record {i}")).collect();
//! dfs.write_lines("logs/day1", &records).unwrap();
//!
//! let file = dfs.open("logs/day1").unwrap();
//! assert_eq!(file.blocks.len(), 3); // 100 + 100 + 50 records
//! let bytes = dfs.read_block(file.blocks[2].id).unwrap();
//! assert_eq!(bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod filestore;
pub mod namenode;
pub mod store;

pub use block::{BlockId, BlockMeta};
pub use cluster::{DfsCluster, DfsConfig, FileHandle};
pub use error::DfsError;
pub use fault::{FaultStats, FaultStatsSnapshot, ReadFaults, ReplicaOutcome};
pub use filestore::{FileStore, FileStoreWriter};
pub use namenode::{NameNode, NodeId};

/// Result alias for DFS operations.
pub type Result<T> = std::result::Result<T, DfsError>;
