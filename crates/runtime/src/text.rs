//! Text input over the DFS — the engine-side analogue of Hadoop's
//! `TextInputFormat`, with the sampling support of the paper's
//! `ApproxTextInputFormat` built in.

use approxhadoop_dfs::{DfsCluster, FileHandle};

use crate::input::{InputSource, SplitMeta, SplitStream};
use crate::Result;

/// Reads a DFS text file, producing one record per line; each DFS block
/// is one split. Sampling (when the scheduler requests a ratio below
/// `1.0`) is systematic within the block, mirroring the paper's
/// `ApproxTextInputFormat` ("1 out of every k lines" from a random
/// offset).
#[derive(Debug, Clone)]
pub struct TextSource {
    dfs: DfsCluster,
    handle: FileHandle,
}

impl TextSource {
    /// Opens `path` on the DFS.
    pub fn open(dfs: &DfsCluster, path: &str) -> Result<Self> {
        let handle = dfs.open(path)?;
        Ok(TextSource {
            dfs: dfs.clone(),
            handle,
        })
    }

    /// The underlying file handle.
    pub fn handle(&self) -> &FileHandle {
        &self.handle
    }
}

impl InputSource for TextSource {
    type Item = String;

    fn splits(&self) -> Vec<SplitMeta> {
        self.handle
            .blocks
            .iter()
            .zip(&self.handle.locations)
            .map(|(b, locs)| SplitMeta {
                index: b.index as usize,
                records: b.records,
                bytes: b.bytes,
                locations: locs.iter().map(|n| n.0).collect(),
                dataset: Default::default(),
            })
            .collect()
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, String>> {
        let meta = &self.handle.blocks[index];
        let lines = self.dfs.read_block_lines(meta.id)?;
        Ok(SplitStream::sampled(lines, sampling_ratio, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_dfs::DfsConfig;

    fn setup() -> (DfsCluster, TextSource) {
        let mut dfs = DfsCluster::new(DfsConfig {
            datanodes: 3,
            replication: 2,
            block_records: 50,
        });
        let lines: Vec<String> = (0..170).map(|i| format!("line {i}")).collect();
        dfs.write_lines("logs", &lines).unwrap();
        let src = TextSource::open(&dfs, "logs").unwrap();
        (dfs, src)
    }

    #[test]
    fn splits_mirror_blocks() {
        let (_dfs, src) = setup();
        let splits = src.splits();
        assert_eq!(splits.len(), 4);
        assert_eq!(splits[0].records, 50);
        assert_eq!(splits[3].records, 20);
        assert_eq!(splits[1].locations.len(), 2);
    }

    #[test]
    fn precise_read_returns_all_lines() {
        let (_dfs, src) = setup();
        let stream = src.stream_split(1, 1.0, 0).unwrap();
        assert_eq!((stream.total, stream.sampled), (50, 50));
        assert_eq!(stream.collect::<Vec<_>>()[0], "line 50");
    }

    #[test]
    fn sampled_read_reports_counts() {
        let (_dfs, src) = setup();
        let stream = src.stream_split(0, 0.1, 3).unwrap();
        assert_eq!((stream.total, stream.sampled), (50, 5));
        assert_eq!(stream.count(), 5);
    }

    #[test]
    fn missing_file_errors() {
        let dfs = DfsCluster::new(DfsConfig::default());
        assert!(TextSource::open(&dfs, "nope").is_err());
    }
}
