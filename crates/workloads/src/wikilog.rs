//! Synthetic Wikipedia access log (the paper's 46 GB/week · 12.5 TB/year
//! dataset, Table 2).
//!
//! Each entry is one page access: timestamp, project, page, bytes.
//! Page and project popularity are Zipf-distributed (Figures 5c/5d show
//! power-law popularity), request rates follow a diurnal pattern, and
//! consecutive entries share temporal locality within a block.

use approxhadoop_ipc::{Decoder, Wire, WireError};
use approxhadoop_runtime::input::{FnSource, SplitMeta};
use approxhadoop_stats::sampling::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Names of the most popular projects, by rank (rank 1 = `en`).
pub const PROJECTS: [&str; 12] = [
    "en", "de", "fr", "es", "ja", "ru", "it", "pt", "zh", "pl", "nl", "sv",
];

/// One access-log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Seconds since the start of the log.
    pub timestamp: u64,
    /// Project rank (1-based; 1 = most popular). Use
    /// [`LogEntry::project_name`] for a printable name.
    pub project: u64,
    /// Page rank within the catalogue (1-based).
    pub page: u64,
    /// Response size in bytes.
    pub bytes: u64,
}

impl Wire for LogEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.timestamp.encode(out);
        self.project.encode(out);
        self.page.encode(out);
        self.bytes.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(LogEntry {
            timestamp: u64::decode(d)?,
            project: u64::decode(d)?,
            page: u64::decode(d)?,
            bytes: u64::decode(d)?,
        })
    }
}

impl LogEntry {
    /// A printable project name (`en`, `de`, …, or `proj<rank>`).
    pub fn project_name(&self) -> String {
        PROJECTS
            .get(self.project as usize - 1)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("proj{}", self.project))
    }

    /// Renders as a text line (`ts project page bytes`).
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {}",
            self.timestamp, self.project, self.page, self.bytes
        )
    }

    /// Parses a line produced by [`LogEntry::to_line`].
    pub fn parse(line: &str) -> Option<LogEntry> {
        let mut it = line.split_whitespace();
        Some(LogEntry {
            timestamp: it.next()?.parse().ok()?,
            project: it.next()?.parse().ok()?,
            page: it.next()?.parse().ok()?,
            bytes: it.next()?.parse().ok()?,
        })
    }
}

/// Deterministic generator of a blocked access log.
#[derive(Debug, Clone, Copy)]
pub struct WikiLog {
    /// Days covered by the log.
    pub days: u64,
    /// Entries per block; a block covers a contiguous time slice.
    pub entries_per_block: u64,
    /// Blocks per day (`#Maps = days × blocks_per_day`, the analogue of
    /// Table 2's block counts).
    pub blocks_per_day: u64,
    /// Distinct pages in the catalogue.
    pub pages: u64,
    /// Distinct projects.
    pub projects: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl WikiLog {
    /// Laptop-scale one-week log: 92 blocks/day scaled down to 10, with
    /// 5 000 entries per block.
    pub fn week(seed: u64) -> Self {
        WikiLog {
            days: 7,
            entries_per_block: 5_000,
            blocks_per_day: 10,
            pages: 1_000_000,
            projects: 2_640,
            seed,
        }
    }

    /// Total blocks (map tasks).
    pub fn num_blocks(&self) -> u64 {
        self.days * self.blocks_per_day
    }

    /// Total entries.
    pub fn total_entries(&self) -> u64 {
        self.num_blocks() * self.entries_per_block
    }

    /// Generates one block of entries (a contiguous time slice of one
    /// day); deterministic per block.
    pub fn block(&self, block: u64) -> Vec<LogEntry> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ block.wrapping_mul(0xA24B_AED4));
        let day = block / self.blocks_per_day;
        let slice = block % self.blocks_per_day;
        let slice_secs = 86_400 / self.blocks_per_day;
        let base_ts = day * 86_400 + slice * slice_secs;
        let pages = Zipf::new(self.pages, 1.01);
        let projects = Zipf::new(self.projects, 1.3);
        (0..self.entries_per_block)
            .map(|i| {
                let ts = base_ts + i * slice_secs / self.entries_per_block;
                // Diurnal modulation of response sizes is irrelevant; the
                // diurnal *rate* is captured by the per-hour key downstream.
                let page = pages.sample(&mut rng);
                let project = projects.sample(&mut rng);
                let bytes = 2_000 + rng.gen_range(0..30_000) / (1 + page / 1000);
                LogEntry {
                    timestamp: ts,
                    project,
                    page,
                    bytes,
                }
            })
            .collect()
    }

    /// An [`FnSource`] over the blocked log.
    pub fn source(
        &self,
    ) -> FnSource<LogEntry, impl Fn(usize) -> Vec<LogEntry> + Send + Sync + use<>> {
        let this = *self;
        let metas = (0..self.num_blocks())
            .map(|b| SplitMeta {
                index: b as usize,
                records: this.entries_per_block,
                bytes: this.entries_per_block * 64,
                locations: vec![],
                dataset: Default::default(),
            })
            .collect();
        FnSource::new(metas, move |i| this.block(i as u64))
    }
}

/// One row of the paper's Table 2: log sizes for different periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogPeriod {
    /// Human-readable period name.
    pub name: &'static str,
    /// Days covered.
    pub days: u64,
    /// Accesses (entries), in millions.
    pub accesses_millions: f64,
    /// Compressed size in GB (what HDFS stores; blocks are 64 MB of
    /// compressed data).
    pub compressed_gb: f64,
    /// Uncompressed size in GB.
    pub uncompressed_gb: f64,
}

impl LogPeriod {
    /// Map tasks for this period: one per 64 MB compressed block
    /// (Table 2's `#Maps` column follows this rule, e.g. 5.7 GB → 92).
    pub fn num_maps(&self) -> u64 {
        (self.compressed_gb * 1024.0 / 64.0).ceil() as u64
    }

    /// Records per map (entries spread over the blocks).
    pub fn records_per_map(&self) -> u64 {
        ((self.accesses_millions * 1e6) / self.num_maps() as f64).round() as u64
    }
}

/// The paper's Table 2 (Wikipedia access log, year 2013).
pub const LOG_PERIODS: [LogPeriod; 10] = [
    LogPeriod {
        name: "1 day",
        days: 1,
        accesses_millions: 499.0,
        compressed_gb: 5.7,
        uncompressed_gb: 27.0,
    },
    LogPeriod {
        name: "2 days",
        days: 2,
        accesses_millions: 1_100.0,
        compressed_gb: 12.4,
        uncompressed_gb: 58.7,
    },
    LogPeriod {
        name: "5 days",
        days: 5,
        accesses_millions: 2_800.0,
        compressed_gb: 32.1,
        uncompressed_gb: 151.0,
    },
    LogPeriod {
        name: "1 week",
        days: 7,
        accesses_millions: 4_000.0,
        compressed_gb: 46.0,
        uncompressed_gb: 216.9,
    },
    LogPeriod {
        name: "10 days",
        days: 10,
        accesses_millions: 5_900.0,
        compressed_gb: 67.5,
        uncompressed_gb: 318.0,
    },
    LogPeriod {
        name: "2 weeks",
        days: 14,
        accesses_millions: 9_000.0,
        compressed_gb: 103.2,
        uncompressed_gb: 487.0,
    },
    LogPeriod {
        name: "1 month",
        days: 31,
        accesses_millions: 19_400.0,
        compressed_gb: 219.0,
        uncompressed_gb: 1_024.0,
    },
    LogPeriod {
        name: "3 months",
        days: 92,
        accesses_millions: 55_800.0,
        compressed_gb: 628.0,
        uncompressed_gb: 2_969.6,
    },
    LogPeriod {
        name: "6 months",
        days: 183,
        accesses_millions: 109_200.0,
        compressed_gb: 1_228.8,
        uncompressed_gb: 5_836.8,
    },
    LogPeriod {
        name: "1 year",
        days: 365,
        accesses_millions: 234_200.0,
        compressed_gb: 2_355.2,
        uncompressed_gb: 12_800.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::input::InputSource;
    use std::collections::HashMap;

    #[test]
    fn blocks_are_deterministic_and_time_ordered() {
        let log = WikiLog::week(1);
        let b = log.block(3);
        assert_eq!(b, log.block(3));
        assert_eq!(b.len(), 5_000);
        assert!(b.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        // Block 3 of day 0 covers its own slice.
        let slice_secs = 86_400 / log.blocks_per_day;
        assert!(b[0].timestamp >= 3 * slice_secs);
        assert!(b.last().unwrap().timestamp < 4 * slice_secs);
    }

    #[test]
    fn popularity_is_zipf_like() {
        let log = WikiLog::week(2);
        let mut project_counts: HashMap<u64, u32> = HashMap::new();
        for b in 0..10 {
            for e in log.block(b) {
                *project_counts.entry(e.project).or_default() += 1;
            }
        }
        let top = project_counts.get(&1).copied().unwrap_or(0);
        let tenth = project_counts.get(&10).copied().unwrap_or(0);
        assert!(top > tenth * 3, "top {top} vs tenth {tenth}");
    }

    #[test]
    fn line_roundtrip() {
        let e = LogEntry {
            timestamp: 123,
            project: 1,
            page: 42,
            bytes: 2048,
        };
        assert_eq!(LogEntry::parse(&e.to_line()).unwrap(), e);
        assert_eq!(e.project_name(), "en");
        assert!(LogEntry::parse("x y").is_none());
    }

    #[test]
    fn source_counts() {
        let log = WikiLog {
            days: 2,
            entries_per_block: 100,
            blocks_per_day: 3,
            pages: 1000,
            projects: 50,
            seed: 5,
        };
        let src = log.source();
        assert_eq!(src.splits().len(), 6);
        assert_eq!(src.stream_split(5, 1.0, 0).unwrap().total, 100);
        assert_eq!(log.total_entries(), 600);
    }

    #[test]
    fn table2_map_counts_match_paper() {
        // The paper reports 92 maps for 1 day and 736 for 1 week.
        assert_eq!(LOG_PERIODS[0].num_maps(), 92);
        let week = &LOG_PERIODS[3];
        assert!(
            (730..=740).contains(&week.num_maps()),
            "{}",
            week.num_maps()
        );
        // Monotone growth.
        for w in LOG_PERIODS.windows(2) {
            assert!(w[1].num_maps() > w[0].num_maps());
        }
    }
}
