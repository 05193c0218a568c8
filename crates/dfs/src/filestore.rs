//! A file-backed, memory-mapped block store.
//!
//! The process worker backend materialises a job's input blocks into
//! one **spool file** on the parent side, then each worker opens the
//! spool read-only via `mmap` ([`approxhadoop_ipc::Mmap`]) and decodes
//! only the blocks of the map tasks it is assigned. This keeps block
//! payloads out of the command pipe entirely and lets the kernel page
//! a spool far larger than RAM in and out on demand — the same role
//! HDFS-local short-circuit reads play for a real TaskTracker.
//!
//! ## On-disk format (all integers little-endian)
//!
//! ```text
//! [magic  8B = "AHSPOOL1"]
//! [block payloads, back to back]
//! [index: count u64, then per block: id u64, offset u64, len u64, records u64]
//! [index offset u64]
//! [magic  8B = "AHSPOOL1"]
//! ```
//!
//! The index lives at the end so [`FileStoreWriter`] can stream blocks
//! of unknown sizes without seeking; the trailing magic + offset let
//! [`FileStore::open`] validate the file before trusting any length.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use approxhadoop_ipc::Mmap;

use crate::block::BlockId;
use crate::{DfsError, Result};

const MAGIC: &[u8; 8] = b"AHSPOOL1";

fn corrupt(path: &Path, reason: &str) -> DfsError {
    DfsError::InvalidConfig {
        reason: format!("spool file {}: {reason}", path.display()),
    }
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> DfsError {
    DfsError::InvalidConfig {
        reason: format!("spool file {} ({op}): {e}", path.display()),
    }
}

/// Streams blocks into a new spool file.
pub struct FileStoreWriter {
    path: PathBuf,
    out: BufWriter<File>,
    offset: u64,
    index: Vec<(u64, u64, u64, u64)>,
}

impl FileStoreWriter {
    /// Creates (truncating) the spool at `path` and writes the header.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = File::create(&path).map_err(|e| io_err(&path, "create", e))?;
        let mut out = BufWriter::new(file);
        out.write_all(MAGIC)
            .map_err(|e| io_err(&path, "write", e))?;
        Ok(FileStoreWriter {
            path,
            out,
            offset: MAGIC.len() as u64,
            index: Vec::new(),
        })
    }

    /// Appends one block's payload; `records` is the block's record
    /// count (the cluster size `M_i` of the sampling theory).
    pub fn append(&mut self, id: BlockId, records: u64, payload: &[u8]) -> Result<()> {
        self.out
            .write_all(payload)
            .map_err(|e| io_err(&self.path, "write", e))?;
        self.index
            .push((id.0, self.offset, payload.len() as u64, records));
        self.offset += payload.len() as u64;
        Ok(())
    }

    /// Writes the index and footer and syncs the file to disk.
    pub fn finish(mut self) -> Result<()> {
        let index_offset = self.offset;
        let mut tail = Vec::with_capacity(8 + self.index.len() * 32 + 16);
        tail.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        for (id, off, len, records) in &self.index {
            tail.extend_from_slice(&id.to_le_bytes());
            tail.extend_from_slice(&off.to_le_bytes());
            tail.extend_from_slice(&len.to_le_bytes());
            tail.extend_from_slice(&records.to_le_bytes());
        }
        tail.extend_from_slice(&index_offset.to_le_bytes());
        tail.extend_from_slice(MAGIC);
        self.out
            .write_all(&tail)
            .map_err(|e| io_err(&self.path, "write", e))?;
        self.out
            .flush()
            .map_err(|e| io_err(&self.path, "flush", e))?;
        self.out
            .get_ref()
            .sync_all()
            .map_err(|e| io_err(&self.path, "sync", e))?;
        Ok(())
    }
}

/// A read-only, memory-mapped spool of blocks.
pub struct FileStore {
    map: Mmap,
    /// id → (offset, len, records)
    index: HashMap<u64, (usize, usize, u64)>,
}

impl FileStore {
    /// Opens and validates a spool written by [`FileStoreWriter`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let map = Mmap::open(path).map_err(|e| io_err(path, "open", e))?;
        let bytes: &[u8] = &map;
        if bytes.len() < MAGIC.len() * 2 + 16 {
            return Err(corrupt(path, "too short for header and footer"));
        }
        if &bytes[..MAGIC.len()] != MAGIC || &bytes[bytes.len() - MAGIC.len()..] != MAGIC {
            return Err(corrupt(path, "bad magic"));
        }
        let foot = bytes.len() - MAGIC.len() - 8;
        let index_offset = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
        if index_offset < MAGIC.len() || index_offset >= foot {
            return Err(corrupt(path, "index offset out of range"));
        }
        let mut cur = index_offset;
        let read_u64 = |cur: &mut usize| -> Result<u64> {
            if *cur + 8 > foot {
                return Err(corrupt(path, "index truncated"));
            }
            let v = u64::from_le_bytes(bytes[*cur..*cur + 8].try_into().unwrap());
            *cur += 8;
            Ok(v)
        };
        let count = read_u64(&mut cur)? as usize;
        if count.saturating_mul(32) != foot - cur {
            return Err(corrupt(path, "index size mismatch"));
        }
        let mut index = HashMap::with_capacity(count);
        for _ in 0..count {
            let id = read_u64(&mut cur)?;
            let off = read_u64(&mut cur)? as usize;
            let len = read_u64(&mut cur)? as usize;
            let records = read_u64(&mut cur)?;
            if off < MAGIC.len() || off.saturating_add(len) > index_offset {
                return Err(corrupt(path, "block extent out of range"));
            }
            index.insert(id, (off, len, records));
        }
        Ok(FileStore { map, index })
    }

    /// Borrows a block's payload straight from the mapping (zero copy).
    pub fn slice(&self, id: BlockId) -> Option<&[u8]> {
        let &(off, len, _) = self.index.get(&id.0)?;
        Some(&self.map[off..off + len])
    }

    /// The record count recorded for a block.
    pub fn records(&self, id: BlockId) -> Option<u64> {
        self.index.get(&id.0).map(|&(_, _, r)| r)
    }

    /// Number of blocks in the spool.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the spool holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("blocks", &self.index.len())
            .field("bytes", &self.map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "approxhadoop-spool-test-{}-{name}",
            std::process::id()
        ))
    }

    fn write_spool(path: &Path, blocks: &[(u64, u64, &[u8])]) {
        let mut w = FileStoreWriter::create(path).unwrap();
        for &(id, records, payload) in blocks {
            w.append(BlockId(id), records, payload).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn roundtrips_blocks_and_metadata() {
        let path = temp_path("roundtrip");
        write_spool(&path, &[(0, 3, b"abc"), (7, 0, b""), (2, 1, b"zzzz")]);
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.slice(BlockId(0)).unwrap(), b"abc");
        assert_eq!(store.slice(BlockId(7)).unwrap(), b"");
        assert_eq!(store.slice(BlockId(2)).unwrap(), b"zzzz");
        assert_eq!(store.records(BlockId(0)), Some(3));
        assert_eq!(store.records(BlockId(2)), Some(1));
        assert_eq!(store.records(BlockId(7)), Some(0));
        assert!(store.slice(BlockId(9)).is_none());
        assert!(store.records(BlockId(9)).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_spool_opens() {
        let path = temp_path("empty");
        write_spool(&path, &[]);
        let store = FileStore::open(&path).unwrap();
        assert!(store.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_spool_is_rejected() {
        let path = temp_path("truncated");
        write_spool(&path, &[(1, 2, b"payload")]);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = temp_path("badmagic");
        write_spool(&path, &[(1, 2, b"payload")]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_index_offset_is_rejected() {
        let path = temp_path("badoffset");
        write_spool(&path, &[(1, 2, b"payload")]);
        let mut bytes = std::fs::read(&path).unwrap();
        let foot = bytes.len() - 16;
        bytes[foot..foot + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
