//! Property-based tests for the DFS substrate.

use approxhadoop_dfs::{DfsCluster, DfsConfig};
use proptest::prelude::*;

proptest! {
    /// Writing lines and reading every block back reconstructs the file
    /// exactly, for any block size and content.
    #[test]
    fn write_read_roundtrip(
        lines in prop::collection::vec("[a-zA-Z0-9 ]{0,40}", 1..300),
        block_records in 1u64..64,
        datanodes in 1usize..6,
    ) {
        // Empty lines are dropped by the line codec; filter them from the
        // expectation.
        let expected: Vec<&String> = lines.iter().filter(|l| !l.is_empty()).collect();
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes,
            replication: 2,
            block_records,
        });
        let handle = dfs.write_lines("f", &lines).unwrap();
        let mut read_back = Vec::new();
        for b in &handle.blocks {
            read_back.extend(dfs.read_block_lines(b.id).unwrap());
        }
        prop_assert_eq!(read_back.len(), expected.len());
        for (got, want) in read_back.iter().zip(expected) {
            prop_assert_eq!(got, want);
        }
    }

    /// Block partition invariants: record counts per block sum to the
    /// total, every block except the last is full, and replica lists are
    /// valid.
    #[test]
    fn block_partition_invariants(
        num_lines in 1usize..500,
        block_records in 1u64..50,
        datanodes in 1usize..8,
        replication in 1usize..5,
    ) {
        let lines: Vec<String> = (0..num_lines).map(|i| format!("l{i}")).collect();
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes,
            replication,
            block_records,
        });
        let handle = dfs.write_lines("f", &lines).unwrap();
        prop_assert_eq!(handle.total_records(), num_lines as u64);
        let expected_blocks = num_lines.div_ceil(block_records as usize);
        prop_assert_eq!(handle.blocks.len(), expected_blocks);
        for (i, b) in handle.blocks.iter().enumerate() {
            if i + 1 < handle.blocks.len() {
                prop_assert_eq!(b.records, block_records);
            } else {
                prop_assert!(b.records >= 1 && b.records <= block_records);
            }
            prop_assert_eq!(b.index as usize, i);
        }
        let effective_replication = replication.min(datanodes);
        for locs in &handle.locations {
            prop_assert_eq!(locs.len(), effective_replication);
            let mut distinct = locs.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), locs.len());
            prop_assert!(locs.iter().all(|n| n.0 < datanodes));
        }
    }

    /// Generated files materialise identical content on repeated reads.
    #[test]
    fn generated_blocks_are_stable(blocks in 1u64..20, seed in 0u64..1000) {
        let mut dfs = DfsCluster::new(DfsConfig::default());
        let handle = dfs
            .write_generated(
                "gen",
                blocks,
                |_| 3,
                |_| 30,
                move |i| {
                    format!("{}a\n{}b\n{}c\n", i ^ seed, i, seed).into_bytes().into()
                },
            )
            .unwrap();
        for b in &handle.blocks {
            let first = dfs.read_block_lines(b.id).unwrap();
            let second = dfs.read_block_lines(b.id).unwrap();
            prop_assert_eq!(&first, &second);
            prop_assert_eq!(first.len(), 3);
        }
    }
}
