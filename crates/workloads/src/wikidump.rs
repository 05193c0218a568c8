//! Synthetic Wikipedia dump: articles with heavy-tailed lengths and a
//! preferential-attachment link graph.
//!
//! Stands in for the paper's May-2014 English Wikipedia snapshot
//! (14 M articles, 40 GB uncompressed, 161 blocks). Lengths follow a
//! log-normal-ish heavy tail (so the WikiLength histogram matches
//! Figure 5a's shape) and link targets follow a Zipf distribution over
//! article ranks (so in-degrees match Figure 5b's power law).

use approxhadoop_runtime::input::{FnSource, SplitMeta};
use approxhadoop_stats::sampling::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One article of the synthetic dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Article {
    /// Article id (global, dense).
    pub id: u64,
    /// Body length in bytes.
    pub length: u64,
    /// Ids of articles this article links to.
    pub links: Vec<u64>,
}

impl Article {
    /// Renders the article as one text line (`id|length|l1,l2,…`).
    pub fn to_line(&self) -> String {
        let links: Vec<String> = self.links.iter().map(u64::to_string).collect();
        format!("{}|{}|{}", self.id, self.length, links.join(","))
    }

    /// The watched word's occurrence count per paragraph of this
    /// article, derived deterministically from the id and length.
    /// Paragraphs are ~500 bytes; used by the three-stage sampling
    /// application (mean occurrences per paragraph, paper §3.1).
    pub fn paragraph_mentions(&self) -> Vec<u64> {
        let paragraphs = (self.length / 500 + 1).min(64);
        (0..paragraphs)
            .map(|p| {
                let h = self
                    .id
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(p.wrapping_mul(0x85EB_CA6B));
                (h >> 13) % 4 // 0..=3 mentions per paragraph
            })
            .collect()
    }

    /// Parses a line produced by [`Article::to_line`].
    pub fn parse(line: &str) -> Option<Article> {
        let mut parts = line.splitn(3, '|');
        let id = parts.next()?.parse().ok()?;
        let length = parts.next()?.parse().ok()?;
        let links_str = parts.next()?;
        let links = if links_str.is_empty() {
            Vec::new()
        } else {
            links_str
                .split(',')
                .map(|s| s.parse().ok())
                .collect::<Option<Vec<u64>>>()?
        };
        Some(Article { id, length, links })
    }
}

/// Deterministic generator of a blocked synthetic dump.
#[derive(Debug, Clone, Copy)]
pub struct WikiDump {
    /// Total articles.
    pub articles: u64,
    /// Articles per block (per map task).
    pub articles_per_block: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl WikiDump {
    /// A laptop-scale default: 200k articles in blocks of 2 000
    /// (100 blocks ≈ the paper's 161-block layout, scaled).
    pub fn small(seed: u64) -> Self {
        WikiDump {
            articles: 200_000,
            articles_per_block: 2_000,
            seed,
        }
    }

    /// Number of blocks (map tasks).
    pub fn num_blocks(&self) -> u64 {
        self.articles.div_ceil(self.articles_per_block)
    }

    /// Generates the articles of one block; deterministic per block.
    pub fn block(&self, block: u64) -> Vec<Article> {
        let start = block * self.articles_per_block;
        let end = (start + self.articles_per_block).min(self.articles);
        let mut rng = StdRng::seed_from_u64(self.seed ^ block.wrapping_mul(0x9E37_79B9));
        let link_targets = Zipf::new(self.articles, 1.05);
        (start..end)
            .map(|id| {
                // Heavy-tailed length: log-uniform between 64 B and 512 KiB
                // with a bias towards short articles.
                let u: f64 = rng.gen::<f64>();
                let length = (64.0 * (8192.0f64).powf(u * u)) as u64;
                // Links: a handful per article, targets Zipf-distributed
                // (rank 1 = most linked-to), mapped onto article ids.
                let n_links = rng.gen_range(0..25);
                let links = (0..n_links)
                    .map(|_| link_targets.sample(&mut rng) - 1)
                    .collect();
                Article { id, length, links }
            })
            .collect()
    }

    /// An [`FnSource`] over the blocked dump for the MapReduce engine.
    pub fn source(
        &self,
    ) -> FnSource<Article, impl Fn(usize) -> Vec<Article> + Send + Sync + use<>> {
        let this = *self;
        let metas = (0..self.num_blocks())
            .map(|b| {
                let start = b * this.articles_per_block;
                let end = (start + this.articles_per_block).min(this.articles);
                SplitMeta {
                    index: b as usize,
                    records: end - start,
                    bytes: (end - start) * 256,
                    locations: vec![],
                    dataset: Default::default(),
                }
            })
            .collect();
        FnSource::new(metas, move |i| this.block(i as u64))
    }

    /// The histogram bin (power of two) used by WikiLength.
    pub fn length_bin(length: u64) -> u64 {
        length.next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::input::InputSource;

    #[test]
    fn blocks_are_deterministic_and_cover_all_articles() {
        let dump = WikiDump {
            articles: 5_000,
            articles_per_block: 1_000,
            seed: 7,
        };
        assert_eq!(dump.num_blocks(), 5);
        let b2 = dump.block(2);
        assert_eq!(b2, dump.block(2));
        assert_eq!(b2.len(), 1_000);
        assert_eq!(b2[0].id, 2_000);
        // Last block may be short.
        let dump2 = WikiDump {
            articles: 4_500,
            articles_per_block: 1_000,
            seed: 7,
        };
        assert_eq!(dump2.num_blocks(), 5);
        assert_eq!(dump2.block(4).len(), 500);
    }

    #[test]
    fn lengths_are_heavy_tailed() {
        let dump = WikiDump::small(1);
        let articles = dump.block(0);
        let short = articles.iter().filter(|a| a.length < 1_000).count();
        let long = articles.iter().filter(|a| a.length > 100_000).count();
        assert!(short > long * 3, "short {short} vs long {long}");
        assert!(long > 0, "tail must exist");
    }

    #[test]
    fn links_favor_popular_targets() {
        let dump = WikiDump {
            articles: 10_000,
            articles_per_block: 5_000,
            seed: 3,
        };
        let mut indegree = vec![0u32; 100];
        for b in 0..2 {
            for a in dump.block(b) {
                for l in a.links {
                    if (l as usize) < 100 {
                        indegree[l as usize] += 1;
                    }
                }
            }
        }
        assert!(indegree[0] > indegree[50]);
        assert!(indegree[0] > indegree[99]);
    }

    #[test]
    fn line_roundtrip() {
        let a = Article {
            id: 42,
            length: 1234,
            links: vec![1, 2, 3],
        };
        assert_eq!(Article::parse(&a.to_line()).unwrap(), a);
        let no_links = Article {
            id: 1,
            length: 10,
            links: vec![],
        };
        assert_eq!(Article::parse(&no_links.to_line()).unwrap(), no_links);
        assert!(Article::parse("garbage").is_none());
    }

    #[test]
    fn source_exposes_blocks() {
        let dump = WikiDump {
            articles: 3_000,
            articles_per_block: 1_000,
            seed: 9,
        };
        let src = dump.source();
        assert_eq!(src.splits().len(), 3);
        let mut stream = src.stream_split(1, 1.0, 0).unwrap();
        assert_eq!(stream.total, 1_000);
        assert_eq!(stream.next().unwrap().id, 1_000);
    }

    #[test]
    fn length_bins_are_powers_of_two() {
        assert_eq!(WikiDump::length_bin(100), 128);
        assert_eq!(WikiDump::length_bin(128), 128);
        assert_eq!(WikiDump::length_bin(129), 256);
    }
}
