//! Block storage backends.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::BlockId;
use crate::{DfsError, Result};

/// A source of block contents.
///
/// Implementations must be cheap to clone/share and thread-safe: map
/// tasks read blocks concurrently.
pub trait BlockStore: Send + Sync {
    /// Reads the full contents of a block.
    fn read(&self, id: BlockId) -> Result<Arc<[u8]>>;

    /// Whether the store holds (or can produce) the block.
    fn contains(&self, id: BlockId) -> bool;
}

/// In-memory block store: blocks are explicit byte buffers.
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

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.read().is_empty()
    }
}

impl BlockStore for MemoryStore {
    fn read(&self, id: BlockId) -> Result<Arc<[u8]>> {
        self.blocks
            .read()
            .get(&id)
            .cloned()
            .ok_or(DfsError::BlockNotFound { block: id })
    }

    fn contains(&self, id: BlockId) -> bool {
        self.blocks.read().contains_key(&id)
    }
}

/// Generator-backed block store: block contents are produced
/// deterministically on every read by a user-supplied function.
///
/// This is how the repo handles the paper's multi-terabyte inputs on a
/// laptop: a year of synthetic Wikipedia access logs is "stored" as a
/// seed plus a generator, and each map task materialises only the block
/// it processes.
pub struct GeneratorStore {
    generator: Arc<dyn Fn(BlockId) -> Option<Arc<[u8]>> + Send + Sync>,
}

impl GeneratorStore {
    /// Creates a store backed by `generator`; the function must return
    /// `Some(bytes)` for every block it claims to hold and must be
    /// deterministic (the same block may be read several times, e.g. by
    /// a straggler duplicate).
    pub fn new(generator: impl Fn(BlockId) -> Option<Arc<[u8]>> + Send + Sync + 'static) -> Self {
        GeneratorStore {
            generator: Arc::new(generator),
        }
    }
}

impl std::fmt::Debug for GeneratorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneratorStore").finish_non_exhaustive()
    }
}

impl Clone for GeneratorStore {
    fn clone(&self) -> Self {
        GeneratorStore {
            generator: Arc::clone(&self.generator),
        }
    }
}

impl BlockStore for GeneratorStore {
    fn read(&self, id: BlockId) -> Result<Arc<[u8]>> {
        (self.generator)(id).ok_or(DfsError::BlockNotFound { block: id })
    }

    fn contains(&self, id: BlockId) -> bool {
        (self.generator)(id).is_some()
    }
}

/// A store that dispatches to one of several child stores (memory blocks
/// and generated blocks can coexist in one namespace).
#[derive(Clone)]
pub struct CompositeStore {
    children: Vec<Arc<dyn BlockStore>>,
}

impl CompositeStore {
    /// Creates an empty composite.
    pub fn new() -> Self {
        CompositeStore {
            children: Vec::new(),
        }
    }

    /// Adds a child store; children are consulted in insertion order.
    pub fn push(&mut self, store: Arc<dyn BlockStore>) {
        self.children.push(store);
    }
}

impl Default for CompositeStore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CompositeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeStore")
            .field("children", &self.children.len())
            .finish()
    }
}

impl BlockStore for CompositeStore {
    fn read(&self, id: BlockId) -> Result<Arc<[u8]>> {
        for c in &self.children {
            if c.contains(id) {
                return c.read(id);
            }
        }
        Err(DfsError::BlockNotFound { block: id })
    }

    fn contains(&self, id: BlockId) -> bool {
        self.children.iter().any(|c| c.contains(id))
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

    #[test]
    fn generator_store_is_deterministic() {
        let store = GeneratorStore::new(|id| {
            if id.0 < 10 {
                Some(Arc::from(format!("block {}", id.0).as_bytes()))
            } else {
                None
            }
        });
        assert_eq!(
            store.read(BlockId(3)).unwrap(),
            store.read(BlockId(3)).unwrap()
        );
        assert!(store.contains(BlockId(9)));
        assert!(!store.contains(BlockId(10)));
        assert!(store.read(BlockId(99)).is_err());
    }

    #[test]
    fn composite_store_dispatches() {
        let mem = MemoryStore::new();
        mem.put(BlockId(1), Arc::from(&b"mem"[..]));
        let gen = GeneratorStore::new(|id| (id.0 == 2).then(|| Arc::from(&b"gen"[..])));
        let mut comp = CompositeStore::new();
        comp.push(Arc::new(mem));
        comp.push(Arc::new(gen));
        assert_eq!(&*comp.read(BlockId(1)).unwrap(), b"mem");
        assert_eq!(&*comp.read(BlockId(2)).unwrap(), b"gen");
        assert!(comp.read(BlockId(3)).is_err());
    }
}
