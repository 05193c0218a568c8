//! The paper's applications (Table 1), each expressed against the
//! ApproxHadoop-RS public API.
//!
//! Every function takes the approximation [`ApproxSpec`] and engine
//! [`JobConfig`] so benches can sweep ratios and target bounds.

use std::path::Path;

use approxhadoop_core::extreme::ExtremeOutput;
use approxhadoop_core::job::{AggregationJob, ApproxResult, ExtremeJob};
use approxhadoop_core::multistage::{Aggregation, MultiStageMapper};
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_core::userdef::UserDefinedMapper;
use approxhadoop_core::Result;
use approxhadoop_runtime::engine::process::JobRegistry;
use approxhadoop_runtime::engine::{run_job, JobConfig, WorkerSpec};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
use approxhadoop_runtime::reducer::GroupedReducer;
use approxhadoop_stats::Interval;

use crate::dcgrid::{anneal, AnnealConfig, Grid};
use crate::deptlog::{DeptLog, Request, BROWSERS};
use crate::kmeans::{dist_sq, nearest, CentroidUpdate, DocVectors, Point};
use crate::video::{encode_frame, Frame, APPROX_QUANT, PRECISE_QUANT};
use crate::wikidump::{Article, WikiDump};
use crate::wikilog::{LogEntry, WikiLog};

// ---------------------------------------------------------------------
// Wikipedia dump analysis (Figures 5a/5b, 6)
// ---------------------------------------------------------------------

/// **WikiLength**: histogram of article lengths (key = power-of-two
/// size bin, value = article count). Paper Figure 5(a).
pub fn wiki_length(
    dump: &WikiDump,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u64, Interval)>> {
    AggregationJob::count(|a: &Article, emit: &mut dyn FnMut(u64, f64)| {
        emit(WikiDump::length_bin(a.length), 1.0)
    })
    .spec(spec)
    .config(config)
    .run(&dump.source())
}

/// **WikiPageRank**: number of articles linking to each article
/// (the in-degree kernel of PageRank). Paper Figure 5(b).
pub fn wiki_page_rank(
    dump: &WikiDump,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u64, Interval)>> {
    AggregationJob::count(|a: &Article, emit: &mut dyn FnMut(u64, f64)| {
        for &l in &a.links {
            emit(l, 1.0);
        }
    })
    .spec(spec)
    .config(config)
    .run(&dump.source())
}

// ---------------------------------------------------------------------
// Wikipedia access-log processing (Figures 5c/5d, 7, 9a/9b, 13)
// ---------------------------------------------------------------------

/// The user `map()` of a wikilog aggregation: the `(key, value)` pairs
/// one log entry contributes.
pub type WikilogMap = fn(&LogEntry, &mut dyn FnMut(u64, f64));

/// One wikilog aggregation — its one definition, which the in-process
/// and process runners, `approxhadoop run`/`serve`/`loadtest` and the
/// `approx-worker` binary all read. A closure cannot cross a process
/// boundary, so the worker registers each entry's `map` under its
/// `name` ([`register_jobs`]) and the submitting side sends the name:
/// both ends read the same row, so they cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub struct WikilogJob {
    /// Registry name: the `approxhadoop run` application and the job
    /// the worker binary registers.
    pub name: &'static str,
    /// What the reducers estimate per key.
    pub aggregation: Aggregation,
    /// The map function.
    pub map: WikilogMap,
}

/// Accesses per project (paper Figure 5(c)).
pub const PROJECT_POPULARITY: WikilogJob = WikilogJob {
    name: "project-popularity",
    aggregation: Aggregation::Count,
    map: |e, emit| emit(e.project, 1.0),
};

/// Accesses per page (paper Figure 5(d)).
pub const PAGE_POPULARITY: WikilogJob = WikilogJob {
    name: "page-popularity",
    aggregation: Aggregation::Count,
    map: |e, emit| emit(e.page, 1.0),
};

/// Accesses per hour of the log.
pub const REQUEST_RATE: WikilogJob = WikilogJob {
    name: "request-rate",
    aggregation: Aggregation::Count,
    map: |e, emit| emit(e.timestamp / 3_600, 1.0),
};

/// Bytes served per page.
pub const PAGE_TRAFFIC: WikilogJob = WikilogJob {
    name: "page-traffic",
    aggregation: Aggregation::Sum,
    map: |e, emit| emit(e.page, e.bytes as f64),
};

/// Bytes served per project: the job `serve` and `loadtest` submit for
/// every tenant.
pub const PROJECT_BYTES: WikilogJob = WikilogJob {
    name: "wikilog-project-bytes",
    aggregation: Aggregation::Sum,
    map: |e, emit| emit(e.project, e.bytes as f64),
};

/// Every wikilog aggregation.
pub const WIKILOG_JOBS: [WikilogJob; 5] = [
    PROJECT_POPULARITY,
    PAGE_POPULARITY,
    REQUEST_RATE,
    PAGE_TRAFFIC,
    PROJECT_BYTES,
];

impl WikilogJob {
    /// The entry registered as `name`, if any.
    pub fn named(name: &str) -> Option<WikilogJob> {
        WIKILOG_JOBS.into_iter().find(|job| job.name == name)
    }

    /// The map function wrapped for the multi-stage estimators.
    pub fn mapper(self) -> MultiStageMapper<LogEntry, u64, WikilogMap> {
        MultiStageMapper::new(self.map)
    }

    fn job(self, spec: ApproxSpec, config: JobConfig) -> AggregationJob<LogEntry, u64, WikilogMap> {
        AggregationJob::new(self.aggregation, self.map)
            .spec(spec)
            .config(config)
    }

    /// Runs the aggregation over `log` on job-private scoped threads.
    pub fn run(
        self,
        log: &WikiLog,
        spec: ApproxSpec,
        config: JobConfig,
    ) -> Result<ApproxResult<(u64, Interval)>> {
        self.job(spec, config).run(&log.source())
    }

    /// Runs the aggregation over `log` on the **process backend**: map
    /// attempts execute in worker OS processes started from
    /// `worker_bin`, which must register this table (the workspace's
    /// `approx-worker` does, through [`register_jobs`]). Results are
    /// identical to [`WikilogJob::run`] for the same spec, config and
    /// seed.
    pub fn run_on_workers(
        self,
        log: &WikiLog,
        spec: ApproxSpec,
        config: JobConfig,
        worker_bin: &Path,
    ) -> Result<ApproxResult<(u64, Interval)>> {
        self.job(spec, config)
            .run_on_workers(&log.source(), &WorkerSpec::new(worker_bin, self.name))
    }
}

/// Registers every [`WIKILOG_JOBS`] entry under its name, and the
/// two-input join under [`crate::join::JOIN_JOB`], in a worker binary's
/// registry.
pub fn register_jobs(registry: &mut JobRegistry) {
    for job in WIKILOG_JOBS {
        registry.register(job.name, move |_params: &[u8]| Ok(job.mapper()));
    }
    crate::join::register_join_job(registry);
}

/// **Project Popularity**: accesses per project. Paper Figure 5(c).
pub fn project_popularity(
    log: &WikiLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u64, Interval)>> {
    PROJECT_POPULARITY.run(log, spec, config)
}

/// **Page Popularity**: accesses per page. Paper Figure 5(d).
pub fn page_popularity(
    log: &WikiLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u64, Interval)>> {
    PAGE_POPULARITY.run(log, spec, config)
}

/// **Page Traffic**: bytes served per page.
pub fn page_traffic(
    log: &WikiLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u64, Interval)>> {
    PAGE_TRAFFIC.run(log, spec, config)
}

/// **Bytes per Access** (ratio aggregate): mean response size per access
/// for each project — the paper's fourth supported aggregation.
pub fn bytes_per_access(
    log: &WikiLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u64, Interval)>> {
    approxhadoop_core::job::RatioJob::new(|e: &LogEntry, emit: &mut dyn FnMut(u64, (f64, f64))| {
        emit(e.project, (e.bytes as f64, 1.0))
    })
    .spec(spec)
    .config(config)
    .run(&log.source())
}

/// **Mentions per Paragraph** (three-stage sampling, paper §3.1): the
/// mean number of occurrences of a watched word per *paragraph*, where
/// the population units are the intermediate pairs (paragraphs), not
/// the input articles.
pub fn mentions_per_paragraph(
    dump: &WikiDump,
    drop_ratio: f64,
    sampling_ratio: f64,
    config: JobConfig,
) -> Result<ApproxResult<(String, Interval)>> {
    use approxhadoop_core::threestage::{
        ThreeStageAggregation, ThreeStageMapper, ThreeStageReducer,
    };
    let mapper = ThreeStageMapper::new(|a: &Article, emit: &mut dyn FnMut(String, f64)| {
        for m in a.paragraph_mentions() {
            emit("mentions".to_string(), m as f64);
        }
    });
    let mut cfg = config;
    cfg.drop_ratio = drop_ratio;
    cfg.sampling_ratio = sampling_ratio;
    let job = run_job(
        &dump.source(),
        &mapper,
        |_| ThreeStageReducer::<String>::new(ThreeStageAggregation::MeanPerPair, 0.95),
        cfg,
    )?;
    Ok(ApproxResult {
        outputs: job.outputs,
        metrics: job.metrics,
        distinct_keys_estimate: None,
    })
}

// ---------------------------------------------------------------------
// Departmental web-server log (Figures 10, 11, 12)
// ---------------------------------------------------------------------

/// **Total Size**: total bytes served (single key).
pub fn total_size(
    log: &DeptLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u8, Interval)>> {
    AggregationJob::sum(|r: &Request, emit: &mut dyn FnMut(u8, f64)| emit(0, r.bytes as f64))
        .spec(spec)
        .config(config)
        .run(&log.source())
}

/// **Request Size**: mean bytes per request (single key).
pub fn request_size(
    log: &DeptLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u8, Interval)>> {
    AggregationJob::mean(|r: &Request, emit: &mut dyn FnMut(u8, f64)| emit(0, r.bytes as f64))
        .spec(spec)
        .config(config)
        .run(&log.source())
}

/// **Clients**: requests per client.
pub fn clients(
    log: &DeptLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u32, Interval)>> {
    AggregationJob::count(|r: &Request, emit: &mut dyn FnMut(u32, f64)| emit(r.client, 1.0))
        .spec(spec)
        .config(config)
        .run(&log.source())
}

/// **Client Browser**: requests per browser family.
pub fn client_browser(
    log: &DeptLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(String, Interval)>> {
    AggregationJob::count(|r: &Request, emit: &mut dyn FnMut(String, f64)| {
        emit(
            BROWSERS[r.browser as usize % BROWSERS.len()].to_string(),
            1.0,
        )
    })
    .spec(spec)
    .config(config)
    .run(&log.source())
}

/// **Request Rate** (departmental log): requests per hour-of-week
/// (Figure 10a/10b, 11a).
pub fn dept_request_rate(
    log: &DeptLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u32, Interval)>> {
    AggregationJob::count(|r: &Request, emit: &mut dyn FnMut(u32, f64)| emit(r.hour, 1.0))
        .spec(spec)
        .config(config)
        .run(&log.source())
}

/// **Attack Frequencies**: attacks per client (rare values —
/// Figure 10c, 11b).
pub fn attack_frequencies(
    log: &DeptLog,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<(u32, Interval)>> {
    AggregationJob::count(|r: &Request, emit: &mut dyn FnMut(u32, f64)| {
        if r.attack.is_some() {
            emit(r.client, 1.0);
        }
    })
    .spec(spec)
    .config(config)
    .run(&log.source())
}

// ---------------------------------------------------------------------
// DC Placement (Figures 8, 9c) — extreme values / GEV
// ---------------------------------------------------------------------

/// **DC Placement**: each map task runs independent simulated-annealing
/// searches and emits the minimum cost found; the reduce estimates the
/// global minimum with a fitted GEV.
pub fn dc_placement(
    grid: &Grid,
    anneal_config: &AnnealConfig,
    num_maps: usize,
    searches_per_map: usize,
    spec: ApproxSpec,
    config: JobConfig,
) -> Result<ApproxResult<ExtremeOutput>> {
    // Each input item is one search seed; one block per map task.
    let blocks: Vec<Vec<u64>> = (0..num_maps)
        .map(|m| {
            (0..searches_per_map)
                .map(|s| (m * searches_per_map + s) as u64)
                .collect()
        })
        .collect();
    let input = VecSource::new(blocks);
    let grid = grid.clone();
    let anneal_config = *anneal_config;
    ExtremeJob::min(move |seed: &u64, emit: &mut dyn FnMut(f64)| {
        emit(anneal(&grid, &anneal_config, *seed))
    })
    .spec(spec)
    .config(config)
    .run(&input)
}

// ---------------------------------------------------------------------
// Video Encoding — user-defined approximation
// ---------------------------------------------------------------------

/// Per-chunk statistics produced by the video encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Frames encoded.
    pub frames: u64,
    /// Total non-zero coefficients (compressed-size proxy).
    pub coefficients: u64,
    /// Sum of per-frame PSNR values (dB).
    pub psnr_sum: f64,
    /// Whether the approximate encoder produced this chunk.
    pub approximate: bool,
}

/// Result of a video-encoding job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoResult {
    /// Frames encoded in total.
    pub frames: u64,
    /// Total non-zero coefficients.
    pub coefficients: u64,
    /// Mean PSNR across frames (the user-defined quality metric).
    pub mean_psnr_db: f64,
    /// Fraction of chunks encoded approximately.
    pub approx_chunk_fraction: f64,
}

struct EncoderMapper {
    size: usize,
    seed: u64,
    quant: f64,
    approximate: bool,
}

impl Mapper for EncoderMapper {
    type Item = u64; // frame index
    type Key = u8;
    type Value = ChunkStats;
    type TaskState = ChunkStats;

    fn begin_task(&self, _ctx: &MapTaskContext) -> ChunkStats {
        ChunkStats {
            frames: 0,
            coefficients: 0,
            psnr_sum: 0.0,
            approximate: self.approximate,
        }
    }

    fn map(&self, state: &mut ChunkStats, frame_idx: u64, _emit: &mut dyn FnMut(u8, ChunkStats)) {
        let frame = Frame::synthetic(self.size, self.seed, frame_idx);
        let stats = encode_frame(&frame, self.quant);
        state.frames += 1;
        state.coefficients += stats.nonzero_coefficients;
        state.psnr_sum += stats.psnr_db;
    }

    fn end_task(&self, state: ChunkStats, emit: &mut dyn FnMut(u8, ChunkStats)) {
        if state.frames > 0 {
            emit(0, state);
        }
    }
}

/// **Video Encoding**: encodes `num_chunks × frames_per_chunk` synthetic
/// frames; `approx_fraction` of the chunks use the coarse (approximate)
/// encoder. Quality (PSNR) is the user-defined error metric.
///
/// An `approx_fraction` outside `[0, 1]` (NaN included) is an
/// [`CoreError::InvalidSpec`](approxhadoop_core::CoreError::InvalidSpec).
pub fn video_encoding(
    frame_size: usize,
    num_chunks: usize,
    frames_per_chunk: usize,
    approx_fraction: f64,
    seed: u64,
    config: JobConfig,
) -> Result<VideoResult> {
    if !(0.0..=1.0).contains(&approx_fraction) {
        return Err(approxhadoop_core::CoreError::invalid(format!(
            "approx_fraction must lie in [0, 1], got {approx_fraction}"
        )));
    }
    let blocks: Vec<Vec<u64>> = (0..num_chunks)
        .map(|c| {
            (0..frames_per_chunk)
                .map(|f| (c * frames_per_chunk + f) as u64)
                .collect()
        })
        .collect();
    let input = VecSource::new(blocks);
    let precise = EncoderMapper {
        size: frame_size,
        seed,
        quant: PRECISE_QUANT,
        approximate: false,
    };
    let approx = EncoderMapper {
        size: frame_size,
        seed,
        quant: APPROX_QUANT,
        approximate: true,
    };
    let mapper = UserDefinedMapper::new(precise, approx, approx_fraction, seed);
    let job = run_job(
        &input,
        &mapper,
        |_| {
            GroupedReducer::new(|_k: &u8, chunks: &[ChunkStats]| {
                let frames: u64 = chunks.iter().map(|c| c.frames).sum();
                let coefficients: u64 = chunks.iter().map(|c| c.coefficients).sum();
                let psnr: f64 = chunks.iter().map(|c| c.psnr_sum).sum();
                let approx = chunks.iter().filter(|c| c.approximate).count();
                Some((frames, coefficients, psnr, approx, chunks.len()))
            })
        },
        config,
    )?;
    let (frames, coefficients, psnr_sum, approx_chunks, total_chunks) = job.outputs[0];
    Ok(VideoResult {
        frames,
        coefficients,
        mean_psnr_db: if frames > 0 {
            psnr_sum / frames as f64
        } else {
            0.0
        },
        approx_chunk_fraction: if total_chunks > 0 {
            approx_chunks as f64 / total_chunks as f64
        } else {
            0.0
        },
    })
}

// ---------------------------------------------------------------------
// K-Means — user-defined approximation + input sampling
// ---------------------------------------------------------------------

/// Result of a k-means job.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Final centroids.
    pub centroids: Vec<Point>,
    /// Estimated total inertia, scaled up from the sampled points.
    pub inertia: f64,
    /// Effective fraction of points processed per iteration.
    pub sampling_ratio: f64,
}

/// **K-Means**: `iterations` of Lloyd's algorithm as MapReduce jobs,
/// optionally sampling points within each block (`sampling_ratio < 1`).
pub fn kmeans(
    data: &DocVectors,
    k: usize,
    iterations: usize,
    sampling_ratio: f64,
    config: JobConfig,
) -> Result<KMeansResult> {
    let mut centroids = crate::kmeans::initial_centroids(data, k);
    let data_copy = *data;
    let metas: Vec<approxhadoop_runtime::input::SplitMeta> = (0..data.num_blocks())
        .map(|b| approxhadoop_runtime::input::SplitMeta {
            index: b as usize,
            records: data
                .points_per_block
                .min(data.points - b * data.points_per_block),
            bytes: 0,
            locations: vec![],
            dataset: Default::default(),
        })
        .collect();
    let input =
        approxhadoop_runtime::input::FnSource::new(metas, move |i| data_copy.block(i as u64));

    let mut inertia = f64::INFINITY;
    let mut effective_ratio = 1.0;
    for iter in 0..iterations {
        let cents = centroids.clone();
        let dims = data.dims;
        // Map-side combining: per-centroid updates merge associatively
        // (the reducer below merge-folds anyway), so each map task ships
        // at most k pre-merged updates instead of one per point.
        let mapper = approxhadoop_runtime::combine::Combined::new(
            approxhadoop_runtime::mapper::FnMapper::new(
                move |p: &Point, emit: &mut dyn FnMut(usize, CentroidUpdate)| {
                    let i = nearest(p, &cents);
                    let d2 = dist_sq(p, &cents[i]);
                    let mut u = CentroidUpdate::zero(dims);
                    u.add(p, d2);
                    emit(i, u);
                },
            ),
            approxhadoop_runtime::combine::FnCombiner::new(
                |_k: &usize, acc: &mut CentroidUpdate, incoming: CentroidUpdate| {
                    acc.merge(&incoming);
                },
            ),
        );
        let mut cfg = config.clone();
        cfg.sampling_ratio = sampling_ratio;
        cfg.seed = config.seed ^ iter as u64;
        let job = run_job(
            &input,
            &mapper,
            |_| {
                GroupedReducer::new(move |k: &usize, us: &[CentroidUpdate]| {
                    let mut acc = CentroidUpdate::zero(dims);
                    for u in us {
                        acc.merge(u);
                    }
                    Some((*k, acc))
                })
            },
            cfg,
        )?;
        effective_ratio = job.metrics.effective_sampling_ratio();
        let scale = 1.0 / effective_ratio.max(1e-12);
        inertia = 0.0;
        for (idx, acc) in job.outputs {
            inertia += acc.inertia * scale;
            if let Some(c) = acc.centroid() {
                centroids[idx] = c;
            }
        }
    }
    Ok(KMeansResult {
        centroids,
        inertia,
        sampling_ratio: effective_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::lloyd_baseline;

    fn cfg() -> JobConfig {
        JobConfig {
            map_slots: 4,
            ..Default::default()
        }
    }

    fn tiny_dump() -> WikiDump {
        WikiDump {
            articles: 10_000,
            articles_per_block: 500,
            seed: 1,
        }
    }

    fn tiny_log() -> WikiLog {
        WikiLog {
            days: 2,
            entries_per_block: 1_000,
            blocks_per_day: 10,
            pages: 10_000,
            projects: 100,
            seed: 2,
        }
    }

    fn tiny_dept() -> DeptLog {
        DeptLog {
            weeks: 20,
            requests_per_week: 2_000,
            clients: 5_000,
            attack_fraction: 5e-3,
            seed: 3,
        }
    }

    #[test]
    fn wiki_length_precise_counts_all_articles() {
        let dump = tiny_dump();
        let r = wiki_length(&dump, ApproxSpec::Precise, cfg()).unwrap();
        let total: f64 = r.outputs.iter().map(|(_, iv)| iv.estimate).sum();
        assert!((total - 10_000.0).abs() < 1e-6);
        assert!(r.outputs.len() > 5, "several bins: {}", r.outputs.len());
    }

    #[test]
    fn wiki_length_sampled_approximates_histogram() {
        let dump = tiny_dump();
        let precise = wiki_length(&dump, ApproxSpec::Precise, cfg()).unwrap();
        let approx = wiki_length(&dump, ApproxSpec::ratios(0.0, 0.1), cfg()).unwrap();
        // Compare the biggest bin.
        let (bin, truth) = precise
            .outputs
            .iter()
            .max_by(|a, b| a.1.estimate.total_cmp(&b.1.estimate))
            .map(|(k, iv)| (*k, iv.estimate))
            .unwrap();
        let est = approx
            .outputs
            .iter()
            .find(|(k, _)| *k == bin)
            .map(|(_, iv)| *iv)
            .expect("big bin present in sample");
        assert!(
            est.actual_error(truth) < 0.15,
            "error {}",
            est.actual_error(truth)
        );
        assert!(est.half_width > 0.0);
    }

    #[test]
    fn wiki_page_rank_top_pages_are_found() {
        let dump = tiny_dump();
        let r = wiki_page_rank(&dump, ApproxSpec::ratios(0.0, 0.2), cfg()).unwrap();
        // Article 0 (rank 1 target) must be among the largest estimates.
        let top = r
            .outputs
            .iter()
            .max_by(|a, b| a.1.estimate.total_cmp(&b.1.estimate))
            .unwrap();
        assert!(
            top.0 < 10,
            "top linked article should be a low rank, got {}",
            top.0
        );
    }

    #[test]
    fn project_popularity_precise_and_approx_agree() {
        let log = tiny_log();
        let precise = project_popularity(&log, ApproxSpec::Precise, cfg()).unwrap();
        let approx = project_popularity(&log, ApproxSpec::ratios(0.25, 0.25), cfg()).unwrap();
        let truth = precise
            .outputs
            .iter()
            .find(|(k, _)| *k == 1)
            .unwrap()
            .1
            .estimate;
        let est = approx.outputs.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert!(
            est.actual_error(truth) < 0.2,
            "error {}",
            est.actual_error(truth)
        );
    }

    #[test]
    fn dept_apps_run_and_bound() {
        let log = tiny_dept();
        let spec = ApproxSpec::ratios(0.25, 0.5);
        let ts = total_size(&log, spec, cfg()).unwrap();
        assert_eq!(ts.outputs.len(), 1);
        assert!(ts.outputs[0].1.half_width.is_finite());

        let rs = request_size(&log, spec, cfg()).unwrap();
        // Mean request size is ~30 KB by construction.
        assert!((10_000.0..50_000.0).contains(&rs.outputs[0].1.estimate));

        let cb = client_browser(&log, spec, cfg()).unwrap();
        assert_eq!(cb.outputs.len(), BROWSERS.len());

        let rr = dept_request_rate(&log, spec, cfg()).unwrap();
        assert!(rr.outputs.len() > 100, "most hours observed");

        let af = attack_frequencies(&log, spec, cfg()).unwrap();
        assert!(!af.outputs.is_empty(), "some attackers observed");
    }

    #[test]
    fn attack_frequencies_has_wider_relative_bounds_than_request_rate() {
        // The paper's point: rare values estimate poorly.
        let log = tiny_dept();
        let spec = ApproxSpec::ratios(0.0, 0.2);
        let rr = dept_request_rate(&log, spec, cfg()).unwrap();
        let af = attack_frequencies(&log, spec, cfg()).unwrap();
        let rr_rel = rr
            .outputs
            .iter()
            .map(|(_, iv)| iv.relative_error())
            .fold(0.0f64, f64::max);
        let af_rel = af
            .outputs
            .iter()
            .map(|(_, iv)| iv.relative_error())
            .fold(0.0f64, f64::max);
        assert!(
            af_rel > rr_rel,
            "attacks rel {af_rel} should exceed rate rel {rr_rel}"
        );
    }

    #[test]
    fn dc_placement_estimates_min() {
        let grid = Grid::us_like(8, 7);
        let cfg_a = AnnealConfig {
            datacenters: 3,
            max_latency_ms: 50.0,
            iterations: 300,
        };
        let r = dc_placement(&grid, &cfg_a, 20, 2, ApproxSpec::Precise, cfg()).unwrap();
        let out = &r.outputs[0];
        assert_eq!(out.samples, 20);
        assert!(out.observed.is_finite());
        if let Some(iv) = out.estimated {
            assert!(iv.estimate <= out.observed * 1.05);
        }
    }

    #[test]
    fn dc_placement_with_dropping_still_bounds() {
        let grid = Grid::us_like(8, 8);
        let cfg_a = AnnealConfig {
            datacenters: 3,
            max_latency_ms: 50.0,
            iterations: 200,
        };
        let r = dc_placement(&grid, &cfg_a, 40, 1, ApproxSpec::ratios(0.5, 1.0), cfg()).unwrap();
        assert_eq!(r.outputs[0].samples, 20);
        assert_eq!(r.metrics.dropped_maps, 20);
    }

    #[test]
    fn video_encoding_quality_tracks_approx_fraction() {
        let precise = video_encoding(16, 8, 2, 0.0, 1, cfg()).unwrap();
        let mixed = video_encoding(16, 8, 2, 0.5, 1, cfg()).unwrap();
        let coarse = video_encoding(16, 8, 2, 1.0, 1, cfg()).unwrap();
        assert_eq!(precise.frames, 16);
        assert_eq!(precise.approx_chunk_fraction, 0.0);
        assert_eq!(coarse.approx_chunk_fraction, 1.0);
        assert!(coarse.coefficients < precise.coefficients);
        assert!(coarse.mean_psnr_db < precise.mean_psnr_db);
        assert!(mixed.mean_psnr_db <= precise.mean_psnr_db);
        assert!(mixed.mean_psnr_db >= coarse.mean_psnr_db);
    }

    #[test]
    fn bytes_per_access_is_a_sane_ratio() {
        let log = tiny_log();
        let precise = bytes_per_access(&log, ApproxSpec::Precise, cfg()).unwrap();
        let truth = precise.outputs.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert!(truth.half_width == 0.0);
        assert!((2_000.0..40_000.0).contains(&truth.estimate));
        let approx = bytes_per_access(&log, ApproxSpec::ratios(0.25, 0.25), cfg()).unwrap();
        let est = approx.outputs.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert!(est.half_width.is_finite() && est.half_width > 0.0);
        assert!(est.actual_error(truth.estimate) < 0.2);
    }

    #[test]
    fn mentions_per_paragraph_three_stage() {
        let dump = tiny_dump();
        // Ground truth directly from the generator.
        let mut total = 0.0f64;
        let mut pairs = 0u64;
        for b in 0..dump.num_blocks() {
            for a in dump.block(b) {
                for m in a.paragraph_mentions() {
                    total += m as f64;
                    pairs += 1;
                }
            }
        }
        let truth = total / pairs as f64;
        let precise = mentions_per_paragraph(&dump, 0.0, 1.0, cfg()).unwrap();
        assert!((precise.outputs[0].1.estimate - truth).abs() < 1e-9);
        let approx = mentions_per_paragraph(&dump, 0.25, 0.25, cfg()).unwrap();
        let iv = approx.outputs[0].1;
        assert!(iv.half_width.is_finite());
        assert!(
            iv.actual_error(truth) < 0.1,
            "err {}",
            iv.actual_error(truth)
        );
    }

    #[test]
    fn kmeans_sampled_tracks_baseline() {
        let data = DocVectors {
            points: 8_000,
            points_per_block: 500,
            dims: 4,
            true_clusters: 4,
            seed: 9,
        };
        let (_, base_inertia) = lloyd_baseline(&data, 4, 5);
        let precise = kmeans(&data, 4, 5, 1.0, cfg()).unwrap();
        assert!(
            (precise.inertia - base_inertia).abs() / base_inertia < 0.05,
            "precise {} vs baseline {base_inertia}",
            precise.inertia
        );
        let sampled = kmeans(&data, 4, 5, 0.2, cfg()).unwrap();
        assert!(sampled.sampling_ratio < 0.25);
        assert!(
            (sampled.inertia - base_inertia).abs() / base_inertia < 0.25,
            "sampled {} vs baseline {base_inertia}",
            sampled.inertia
        );
    }
}
