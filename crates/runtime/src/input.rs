//! Input sources: splits, sampling-aware block readers.
//!
//! Each input split becomes one map task; the split is the *cluster* of
//! the two-stage sampling theory. `stream_split` takes the sampling ratio
//! decided by the scheduler for this task and must report both the
//! block's total record count `M_i` and the number of records actually
//! yielded `m_i`.

use approxhadoop_stats::sampling::SystematicSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Result, RuntimeError};

/// Identifies one dataset of a (possibly multi-input) job.
///
/// Single-input jobs live entirely in dataset `0`, which is what
/// [`DatasetId::default`] returns. Multi-input jobs (joins) tag every
/// split, work item and map output with the dataset it belongs to, so
/// cluster populations `N`/`n` and the Eq. 1–3 intervals stay correct
/// *per dataset*. Records carry no tag: a map task learns its split's
/// dataset from [`MapTaskContext::dataset`](crate::mapper::MapTaskContext).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub struct DatasetId(pub u32);

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset-{}", self.0)
    }
}

/// Metadata describing one input split (block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMeta {
    /// Split index (= map task id).
    pub index: usize,
    /// The dataset this split belongs to (`DatasetId(0)` for
    /// single-input jobs).
    pub dataset: DatasetId,
    /// Total records `M_i` in the split.
    pub records: u64,
    /// Size in bytes (for timing/energy models; `0` if unknown).
    pub bytes: u64,
    /// Indices of the servers holding a replica (for locality-aware
    /// scheduling; empty if unknown).
    pub locations: Vec<usize>,
}

/// A streaming view of one (possibly sampled) split: the counts are
/// known up front, the records are yielded lazily so sources can avoid
/// materialising or cloning whole blocks on the hot path.
pub struct SplitStream<'a, I> {
    /// `M_i` — total records in the split.
    pub total: u64,
    /// `m_i` — records the iterator will yield.
    pub sampled: u64,
    iter: Box<dyn Iterator<Item = I> + Send + 'a>,
}

impl<'a, I> SplitStream<'a, I> {
    /// Wraps an iterator with its split counts. `sampled` must equal the
    /// number of items `iter` yields.
    pub fn new(total: u64, sampled: u64, iter: impl Iterator<Item = I> + Send + 'a) -> Self {
        SplitStream {
            total,
            sampled,
            iter: Box::new(iter),
        }
    }
}

impl<I: Send + 'static> SplitStream<'static, I> {
    /// Samples an owned block systematically at `ratio` (`1.0` keeps
    /// every record) with the `(len, ratio, seed)` draw of
    /// [`sample_systematic_indices`], moving the kept records out of the
    /// block instead of cloning them. Sources that own a freshly read or
    /// generated block use this; the worker's spool reader does too, so
    /// every backend yields the identical sample.
    pub fn sampled(block: Vec<I>, ratio: f64, seed: u64) -> Self {
        let total = block.len() as u64;
        match sample_systematic_indices(block.len(), ratio, seed) {
            None => SplitStream::new(total, total, block.into_iter()),
            Some(idx) => {
                let sampled = idx.len() as u64;
                let mut keep = idx.into_iter().peekable();
                let iter = block.into_iter().enumerate().filter_map(move |(i, item)| {
                    if keep.peek() == Some(&i) {
                        keep.next();
                        Some(item)
                    } else {
                        None
                    }
                });
                SplitStream::new(total, sampled, iter)
            }
        }
    }
}

impl<I> Iterator for SplitStream<'_, I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

impl<I> std::fmt::Debug for SplitStream<'_, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitStream")
            .field("total", &self.total)
            .field("sampled", &self.sampled)
            .finish_non_exhaustive()
    }
}

/// A source of input splits for a job.
///
/// Implementations must be shareable across task-tracker threads.
pub trait InputSource: Send + Sync {
    /// The record type produced.
    type Item: Send + 'static;

    /// Describes every split of the input. Called once at job start.
    fn splits(&self) -> Vec<SplitMeta>;

    /// Reads split `index`, sampling records at `sampling_ratio`
    /// (`1.0` = precise), as a stream that knows `M_i` and `m_i` up
    /// front. `seed` makes the sample reproducible per task attempt.
    /// Implementations should use *systematic* sampling (every k-th
    /// record from a random offset), like the paper's
    /// `ApproxTextInputFormat` — [`SplitStream::sampled`] does exactly
    /// that for an owned block.
    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, Self::Item>>;
}

/// Computes the systematic-sample indices for a block of `total` records
/// at `ratio`: `None` means "keep every record" (`ratio >= 1.0`), so
/// precise reads never touch an index vector.
///
/// `ratio` must lie in `(0, 1]`; `0`, negatives and NaN are programming
/// errors (the `JobConfig`/CLI boundary validates user input), checked by
/// `debug_assert` here and by the sampler's own assertion in release.
pub fn sample_systematic_indices(total: usize, ratio: f64, seed: u64) -> Option<Vec<usize>> {
    debug_assert!(
        ratio > 0.0 && ratio <= 1.0,
        "sampling ratio must be in (0, 1], got {ratio}"
    );
    if ratio >= 1.0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = SystematicSampler::from_ratio(ratio);
    Some(sampler.sample_indices(&mut rng, total))
}

/// In-memory input source: one `Vec` of items per split. The workhorse of
/// unit tests and small jobs.
#[derive(Debug, Clone)]
pub struct VecSource<I> {
    blocks: Vec<Vec<I>>,
    locations: Vec<Vec<usize>>,
}

impl<I: Clone + Send + Sync> VecSource<I> {
    /// Creates a source with one split per inner vector.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty. Use [`VecSource::try_new`] where the
    /// blocks come from an untrusted boundary (a worker's dataset table,
    /// a decoded job spec) and a panic would abort the process mid-job.
    pub fn new(blocks: Vec<Vec<I>>) -> Self {
        Self::try_new(blocks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VecSource::new`]: rejects empty inputs with
    /// [`RuntimeError::InvalidJob`] instead of panicking.
    pub fn try_new(blocks: Vec<Vec<I>>) -> Result<Self> {
        if blocks.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "input must contain at least one block".into(),
            });
        }
        let locations = vec![Vec::new(); blocks.len()];
        Ok(VecSource { blocks, locations })
    }

    /// Attaches replica locations (parallel to the blocks).
    ///
    /// # Panics
    ///
    /// Panics if `locations.len() != blocks.len()`. See
    /// [`VecSource::try_with_locations`].
    pub fn with_locations(self, locations: Vec<Vec<usize>>) -> Self {
        self.try_with_locations(locations)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VecSource::with_locations`].
    pub fn try_with_locations(mut self, locations: Vec<Vec<usize>>) -> Result<Self> {
        if locations.len() != self.blocks.len() {
            return Err(RuntimeError::InvalidJob {
                reason: format!(
                    "locations table has {} entries for {} blocks",
                    locations.len(),
                    self.blocks.len()
                ),
            });
        }
        self.locations = locations;
        Ok(self)
    }

    /// Flattens a list of items into equal-size blocks of `per_block`.
    ///
    /// # Panics
    ///
    /// Panics if `per_block == 0` or `items` is empty. See
    /// [`VecSource::try_from_items`].
    pub fn from_items(items: Vec<I>, per_block: usize) -> Self {
        Self::try_from_items(items, per_block).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VecSource::from_items`].
    pub fn try_from_items(items: Vec<I>, per_block: usize) -> Result<Self> {
        if per_block == 0 {
            return Err(RuntimeError::InvalidJob {
                reason: "per_block must be positive".into(),
            });
        }
        if items.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "input must contain at least one item".into(),
            });
        }
        let blocks = items
            .chunks(per_block)
            .map(|c| c.to_vec())
            .collect::<Vec<_>>();
        VecSource::try_new(blocks)
    }
}

impl<I: Clone + Send + Sync + 'static> InputSource for VecSource<I> {
    type Item = I;

    fn splits(&self) -> Vec<SplitMeta> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| SplitMeta {
                index: i,
                dataset: DatasetId::default(),
                records: b.len() as u64,
                bytes: 0,
                locations: self.locations[i].clone(),
            })
            .collect()
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, I>> {
        // The block is borrowed, not owned: gather the kept records by
        // index and clone only those.
        let block = &self.blocks[index];
        let total = block.len() as u64;
        Ok(
            match sample_systematic_indices(block.len(), sampling_ratio, seed) {
                // Precise read: iterate the block in place, no index vector,
                // no second materialisation.
                None => SplitStream::new(total, total, block.iter().cloned()),
                Some(idx) => {
                    let sampled = idx.len() as u64;
                    SplitStream::new(
                        total,
                        sampled,
                        idx.into_iter().map(move |i| block[i].clone()),
                    )
                }
            },
        )
    }
}

/// A generator-backed source: splits are produced on demand by a
/// function, so synthetic inputs can be arbitrarily large. The generator
/// must be deterministic per index (straggler duplicates re-read splits).
pub struct FnSource<I, F> {
    metas: Vec<SplitMeta>,
    generator: F,
    _marker: std::marker::PhantomData<fn() -> I>,
}

impl<I, F> FnSource<I, F>
where
    F: Fn(usize) -> Vec<I> + Send + Sync,
{
    /// Creates a source over the given split metadata; `generator(i)`
    /// materialises the records of split `i`.
    ///
    /// # Panics
    ///
    /// Panics if `metas` is empty. See [`FnSource::try_new`].
    pub fn new(metas: Vec<SplitMeta>, generator: F) -> Self {
        Self::try_new(metas, generator).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`FnSource::new`].
    pub fn try_new(metas: Vec<SplitMeta>, generator: F) -> Result<Self> {
        if metas.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "input must contain at least one split".into(),
            });
        }
        Ok(FnSource {
            metas,
            generator,
            _marker: std::marker::PhantomData,
        })
    }
}

impl<I, F> InputSource for FnSource<I, F>
where
    I: Send + 'static,
    F: Fn(usize) -> Vec<I> + Send + Sync,
{
    type Item = I;

    fn splits(&self) -> Vec<SplitMeta> {
        self.metas.clone()
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, I>> {
        Ok(SplitStream::sampled(
            (self.generator)(index),
            sampling_ratio,
            seed,
        ))
    }
}

/// A boxed, object-safe input source — the element of a
/// [`TaggedSource`]'s dataset table.
pub type BoxedSource<I> = Box<dyn InputSource<Item = I> + 'static>;

/// Combines several [`InputSource`]s of one record type into one
/// multi-dataset input.
///
/// Splits of the member sources are flattened into a single global split
/// index space, in dataset order: dataset `0`'s splits first, then
/// dataset `1`'s, and so on. Each flattened [`SplitMeta`] carries its
/// [`DatasetId`], so the scheduler and estimators can keep per-dataset
/// cluster populations (`N_d`, `n_d`) without any extra plumbing — a
/// split remains exactly one cluster of exactly one dataset. The tag
/// rides on the split, not the record: records stream through
/// unchanged, and a mapper that treats datasets differently reads
/// [`MapTaskContext::dataset`](crate::mapper::MapTaskContext).
pub struct TaggedSource<I> {
    sources: Vec<BoxedSource<I>>,
    /// Global split index → (dataset, local split index).
    table: Vec<(DatasetId, usize)>,
    metas: Vec<SplitMeta>,
}

impl<I: Send + 'static> TaggedSource<I> {
    /// Builds the union of `sources`; dataset `d` is `sources[d]`.
    /// Rejects an empty source list and member sources without splits ([`RuntimeError::InvalidJob`]), so a malformed
    /// dataset table surfaces as a job error rather than a panic.
    pub fn try_new(sources: Vec<BoxedSource<I>>) -> Result<Self> {
        if sources.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "multi-input job must have at least one dataset".into(),
            });
        }
        if sources.len() > u32::MAX as usize {
            return Err(RuntimeError::InvalidJob {
                reason: "too many datasets".into(),
            });
        }
        let mut table = Vec::new();
        let mut metas = Vec::new();
        for (d, src) in sources.iter().enumerate() {
            let dataset = DatasetId(d as u32);
            let local = src.splits();
            if local.is_empty() {
                return Err(RuntimeError::InvalidJob {
                    reason: format!("{dataset} has no splits"),
                });
            }
            for (li, m) in local.into_iter().enumerate() {
                table.push((dataset, li));
                metas.push(SplitMeta {
                    index: metas.len(),
                    dataset,
                    records: m.records,
                    bytes: m.bytes,
                    locations: m.locations,
                });
            }
        }
        Ok(TaggedSource {
            sources,
            table,
            metas,
        })
    }
}

impl<I: Send + 'static> InputSource for TaggedSource<I> {
    type Item = I;

    fn splits(&self) -> Vec<SplitMeta> {
        self.metas.clone()
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, I>> {
        let (dataset, local) = self.table[index];
        self.sources[dataset.0 as usize].stream_split(local, sampling_ratio, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_splits_and_reads() {
        let src = VecSource::new(vec![vec![1, 2, 3], vec![4, 5]]);
        let splits = src.splits();
        assert_eq!(splits.len(), 2);
        assert_eq!(splits[0].records, 3);
        assert_eq!(splits[1].records, 2);
        let stream = src.stream_split(0, 1.0, 0).unwrap();
        assert_eq!((stream.total, stream.sampled), (3, 3));
        assert_eq!(stream.collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn vec_source_sampling_counts() {
        let src = VecSource::new(vec![(0..1000).collect::<Vec<i32>>()]);
        let stream = src.stream_split(0, 0.1, 7).unwrap();
        assert_eq!((stream.total, stream.sampled), (1000, 100));
        let items: Vec<i32> = stream.collect();
        assert_eq!(items.len(), 100);
        // Systematic: consecutive sampled items are 10 apart.
        assert_eq!(items[1] - items[0], 10);
        // Reproducible for the same seed.
        let again: Vec<i32> = src.stream_split(0, 0.1, 7).unwrap().collect();
        assert_eq!(items, again);
    }

    #[test]
    fn from_items_chunks_correctly() {
        let src = VecSource::from_items((0..25).collect(), 10);
        let splits = src.splits();
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[2].records, 5);
    }

    fn metas(n: usize, records: u64) -> Vec<SplitMeta> {
        (0..n)
            .map(|i| SplitMeta {
                index: i,
                dataset: DatasetId::default(),
                records,
                bytes: records * 10,
                locations: vec![],
            })
            .collect()
    }

    #[test]
    fn fn_source_generates_on_demand() {
        let src = FnSource::new(metas(4, 10), |i| {
            (0..10).map(|j| i * 100 + j).collect::<Vec<_>>()
        });
        let stream = src.stream_split(2, 1.0, 0).unwrap();
        assert_eq!(stream.sampled, 10);
        assert_eq!(stream.collect::<Vec<_>>()[0], 200);
    }

    #[test]
    fn sample_systematic_full_ratio() {
        assert_eq!(sample_systematic_indices(3, 1.0, 0), None);
        let stream = SplitStream::sampled(vec![1, 2, 3], 1.0, 0);
        assert_eq!((stream.total, stream.sampled), (3, 3));
        assert_eq!(stream.collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sampling ratio must be in (0, 1]")]
    fn sample_systematic_rejects_zero_ratio() {
        // Regression: ratio 0 used to be silently clamped to 1e-9,
        // turning a typo into a near-empty sample with garbage bounds.
        sample_systematic_indices(3, 0.0, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sampling ratio must be in (0, 1]")]
    fn sample_systematic_rejects_nan_ratio() {
        sample_systematic_indices(3, f64::NAN, 0);
    }

    /// `VecSource` gathers from a borrowed block, `FnSource` samples an
    /// owned one through `SplitStream::sampled`: the same block, ratio
    /// and seed must yield the same counts and records either way.
    #[test]
    fn owned_and_borrowed_sampling_agree() {
        let block: Vec<i32> = (0..1000).collect();
        let borrowed = VecSource::new(vec![block.clone()]);
        let owned = FnSource::new(metas(1, 1000), move |_| block.clone());
        for &(ratio, seed) in &[(1.0, 0), (0.1, 7), (0.37, 13), (0.003, 99)] {
            let read = |src: &dyn InputSource<Item = i32>| {
                let s = src.stream_split(0, ratio, seed).unwrap();
                (s.total, s.sampled, s.collect::<Vec<_>>())
            };
            let (total, sampled, records) = read(&owned);
            assert_eq!(
                read(&borrowed),
                (total, sampled, records.clone()),
                "ratio {ratio} seed {seed}"
            );
            assert_eq!(records.len() as u64, sampled);
        }
    }

    #[test]
    #[should_panic]
    fn vec_source_rejects_empty() {
        VecSource::<i32>::new(vec![]);
    }

    #[test]
    fn try_constructors_reject_bad_input_without_panicking() {
        assert!(VecSource::<i32>::try_new(vec![]).is_err());
        assert!(VecSource::<i32>::try_from_items(vec![], 4).is_err());
        assert!(VecSource::<i32>::try_from_items(vec![1], 0).is_err());
        assert!(VecSource::new(vec![vec![1, 2]])
            .try_with_locations(vec![vec![0], vec![1]])
            .is_err());
        assert!(FnSource::<i32, _>::try_new(vec![], |_| vec![]).is_err());
        // The happy paths behave exactly like the panicking constructors.
        let src = VecSource::try_from_items((0..25).collect::<Vec<i32>>(), 10).unwrap();
        assert_eq!(src.splits().len(), 3);
        let src = src
            .try_with_locations(vec![vec![0], vec![1], vec![2]])
            .unwrap();
        assert_eq!(src.splits()[1].locations, vec![1]);
    }

    #[test]
    fn tagged_source_flattens_and_tags() {
        let logs = VecSource::new(vec![vec![10, 11, 12], vec![20, 21]]);
        let meta = VecSource::new(vec![vec![90]]);
        let src = TaggedSource::try_new(vec![Box::new(logs), Box::new(meta)]).unwrap();
        // The tag rides on the split: datasets in order, global indices
        // contiguous and self-describing.
        let splits = src.splits();
        let tags: Vec<DatasetId> = splits.iter().map(|s| s.dataset).collect();
        assert_eq!(tags, vec![DatasetId(0), DatasetId(0), DatasetId(1)]);
        for (i, s) in splits.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        // Records stream through untouched, from the member's own split.
        let read = |i| src.stream_split(i, 1.0, 0).unwrap().collect::<Vec<_>>();
        assert_eq!(read(1), vec![20, 21]);
        assert_eq!(read(2), vec![90]);
        // Sampled reads are the member source's, counts included.
        let big = VecSource::new(vec![(0..500).collect::<Vec<i32>>()]);
        let direct = big.stream_split(0, 0.2, 9).unwrap();
        let (total, sampled, records) = (direct.total, direct.sampled, direct.collect::<Vec<_>>());
        let src = TaggedSource::try_new(vec![Box::new(big) as BoxedSource<i32>]).unwrap();
        let stream = src.stream_split(0, 0.2, 9).unwrap();
        assert_eq!((stream.total, stream.sampled), (total, sampled));
        assert_eq!(stream.collect::<Vec<_>>(), records);
    }

    #[test]
    fn tagged_source_rejects_malformed_tables() {
        assert!(TaggedSource::<i32>::try_new(vec![]).is_err());
        let ok = VecSource::new(vec![vec![1]]);
        let empty = FnSource::<i32, _>::new(metas(1, 0), |_| vec![]);
        // A member source is fine as long as it has splits…
        assert!(
            TaggedSource::try_new(vec![Box::new(ok) as BoxedSource<i32>, Box::new(empty)]).is_ok()
        );
    }
}
