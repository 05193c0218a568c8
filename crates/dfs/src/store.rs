//! The cluster's in-memory block store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::BlockId;
use crate::{DfsError, Result};

/// In-memory block store: blocks are explicit byte buffers.
///
/// Clones share one map, so map tasks on every thread read the blocks
/// a [`crate::DfsCluster`] wrote.
#[derive(Debug, Default, Clone)]
pub struct MemoryStore {
    blocks: Arc<RwLock<HashMap<BlockId, Arc<[u8]>>>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a block.
    pub fn put(&self, id: BlockId, data: Arc<[u8]>) {
        self.blocks.write().insert(id, data);
    }

    /// Removes a block, returning whether it was present.
    pub fn remove(&self, id: BlockId) -> bool {
        self.blocks.write().remove(&id).is_some()
    }

    /// Reads the full contents of a block.
    pub fn read(&self, id: BlockId) -> Result<Arc<[u8]>> {
        self.blocks
            .read()
            .get(&id)
            .cloned()
            .ok_or(DfsError::BlockNotFound { block: id })
    }

    /// Whether the store holds the block.
    pub fn contains(&self, id: BlockId) -> bool {
        self.blocks.read().contains_key(&id)
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_roundtrip() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        store.put(BlockId(1), Arc::from(&b"hello"[..]));
        assert_eq!(store.len(), 1);
        assert!(store.contains(BlockId(1)));
        assert_eq!(&*store.read(BlockId(1)).unwrap(), b"hello");
        assert!(store.remove(BlockId(1)));
        assert!(!store.remove(BlockId(1)));
        assert!(matches!(
            store.read(BlockId(1)),
            Err(DfsError::BlockNotFound { .. })
        ));
    }

    #[test]
    fn memory_store_clones_share_state() {
        let a = MemoryStore::new();
        let b = a.clone();
        a.put(BlockId(9), Arc::from(&b"x"[..]));
        assert!(b.contains(BlockId(9)));
    }
}
