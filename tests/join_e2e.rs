//! End-to-end acceptance matrix for the two-input approximate join
//! (access log × page catalogue):
//!
//! 1. Under sampling + dropping on the log side, every per-stratum
//!    interval covers the precise join aggregate for its category, and
//!    the quadrature-combined interval covers the precise total — over
//!    a three-seed matrix.
//! 2. The Bloom pre-filter's discard counters are visible in the
//!    metrics registry, including when the filtering happened inside
//!    worker OS processes (the telemetry piggyback path).
//! 3. The join submits through the multi-tenant `JobService` with
//!    per-dataset ratios in the `JobSpec`, on both the shared-pool and
//!    process paths, and the serviced outcome matches a direct run.

use std::sync::Arc;

use approxhadoop::obs::Obs;
use approxhadoop::runtime::control::DatasetRatios;
use approxhadoop::runtime::engine::{JobConfig, WorkerSpec};
use approxhadoop::server::{AdmissionConfig, JobService, JobSpec};
use approxhadoop::workloads::join::{
    self, finish_join, JoinMapper, JoinReducer, JoinWorkload, PageCatalog,
};
use approxhadoop::workloads::wikilog::WikiLog;

fn workload(seed: u64) -> JoinWorkload {
    JoinWorkload {
        log: WikiLog {
            days: 1,
            entries_per_block: 400,
            blocks_per_day: 16,
            pages: 3_000,
            projects: 12,
            seed,
        },
        catalog: PageCatalog {
            pages: 1_800,
            pages_per_block: 600,
            categories: 5,
            seed,
            fpr: 0.01,
        },
    }
}

const RATIOS: DatasetRatios = DatasetRatios {
    sampling_ratio: 0.5,
    drop_ratio: 0.25,
};

/// Acceptance: per-stratum (estimate, interval) rows cover the precise
/// join aggregate per category, and the combined interval covers the
/// precise total, across a 3-seed matrix with sampling AND dropping
/// engaged on the probe side.
#[test]
fn sampled_join_strata_cover_precise_truth_across_seeds() {
    for seed in [11u64, 42, 77] {
        let w = workload(seed);
        let truth = w.precise_by_category();
        let total: f64 = truth.values().sum();
        let outcome = join::join_category_traffic(
            &w,
            RATIOS,
            JobConfig {
                reduce_tasks: 3,
                seed,
                ..Default::default()
            },
            0.95,
        )
        .unwrap();
        assert!(
            outcome.metrics.dropped_maps > 0,
            "seed {seed}: dropping must be engaged"
        );
        assert!(
            outcome.metrics.effective_sampling_ratio() < 1.0,
            "seed {seed}: sampling must be engaged"
        );
        assert_eq!(
            outcome.categories.len(),
            truth.len(),
            "seed {seed}: every category with precise traffic must be estimated"
        );
        for (category, interval) in &outcome.categories {
            assert!(
                interval.half_width > 0.0 && interval.half_width.is_finite(),
                "seed {seed}: stratum {category} must carry a real bound"
            );
            assert!(
                interval.contains(truth[category]),
                "seed {seed}: stratum {category} {} ± {} misses precise {}",
                interval.estimate,
                interval.half_width,
                truth[category]
            );
        }
        assert!(
            outcome.combined.contains(total),
            "seed {seed}: combined {} ± {} misses precise total {total}",
            outcome.combined.estimate,
            outcome.combined.half_width
        );
    }
}

/// The Bloom pre-filter runs inside worker OS processes, yet its
/// discard/pass counters land in the *parent's* metrics registry via
/// the worker-telemetry piggyback — so `/metrics` shows the filtering
/// regardless of backend.
#[test]
fn bloom_discard_counters_flow_back_from_worker_processes() {
    let w = workload(3);
    let obs = Obs::shared();
    let worker = WorkerSpec::new(env!("CARGO_BIN_EXE_approx-worker"), join::JOIN_JOB);
    let outcome = join::join_category_traffic_process(
        &w,
        DatasetRatios::precise(),
        JobConfig {
            reduce_tasks: 2,
            workers: 2,
            seed: 3,
            obs: Some(Arc::clone(&obs)),
            ..Default::default()
        },
        0.95,
        &worker,
    )
    .unwrap();
    let snap = obs.registry.snapshot();
    let discarded = snap.counter_total("join_filter_discarded_total");
    let passed = snap.counter_total("join_filter_passed_total");
    assert!(
        discarded > 0,
        "worker-side Bloom discards must reach the parent registry"
    );
    assert!(passed > 0, "joining traffic must be counted as passed");
    // Pages above the catalogue's range cannot pass (no false negatives
    // in the other direction): everything the filter let through plus
    // everything it discarded is exactly the log's record count.
    let log_records = w.log.num_blocks() * w.log.entries_per_block;
    assert_eq!(
        discarded + passed,
        log_records,
        "every access must be either passed or discarded on a precise run"
    );
    assert!(!outcome.categories.is_empty());
}

/// The join goes through the multi-tenant service: `JobSpec.datasets`
/// carries the per-dataset ratios, the tracker builds the
/// dataset-aware coordinator, and the serviced outcome is identical to
/// a direct run with the same seed — on both the shared-pool and the
/// process submission paths.
#[test]
fn join_submits_through_job_service_on_both_paths() {
    let seed = 9u64;
    let w = workload(seed);
    let direct = join::join_category_traffic(
        &w,
        RATIOS,
        JobConfig {
            reduce_tasks: 2,
            seed,
            ..Default::default()
        },
        0.95,
    )
    .unwrap();

    let spec = JobSpec {
        name: "join-tenant".into(),
        reduce_tasks: 2,
        seed,
        datasets: w.dataset_ratios(RATIOS),
        ..Default::default()
    };

    // Shared-pool path.
    let service = JobService::new(2, AdmissionConfig::default());
    let handle = service
        .submit(
            spec.clone(),
            Arc::new(w.source().unwrap()),
            Arc::new(join::JoinMapper::new(&w.catalog)),
            |_| JoinReducer::new(),
        )
        .unwrap();
    let pooled = finish_join(handle.wait().unwrap(), w.log_clusters(), 0.95).unwrap();
    assert_eq!(
        direct.categories, pooled.categories,
        "serviced pool run must match the direct run"
    );
    assert_eq!(direct.combined, pooled.combined);

    // Process path: the worker rebuilds the mapper from the catalogue
    // in the params blob.
    let worker = WorkerSpec::new(env!("CARGO_BIN_EXE_approx-worker"), join::JOIN_JOB)
        .with_params(approxhadoop::ipc::Wire::to_bytes(&w.catalog));
    let handle = service
        .submit_process(spec, Arc::new(w.source().unwrap()), worker, |_| {
            JoinReducer::new()
        })
        .unwrap();
    let processed = finish_join(handle.wait().unwrap(), w.log_clusters(), 0.95).unwrap();
    assert_eq!(
        direct.categories, processed.categories,
        "serviced process run must match the direct run"
    );
    assert_eq!(direct.combined, processed.combined);
}

/// Target-error (goal) submission is single-input by design: a spec
/// carrying per-dataset ratios must be rejected up front, not silently
/// mis-planned.
#[test]
fn goal_jobs_reject_multi_input_specs() {
    use approxhadoop::core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
    use approxhadoop::runtime::input::VecSource;
    use approxhadoop::server::ErrorGoal;

    let service = JobService::new(1, AdmissionConfig::default());
    let spec = JobSpec {
        datasets: vec![DatasetRatios::precise()],
        ..Default::default()
    };
    let err = service
        .submit_with_goal(
            spec,
            ErrorGoal::relative(0.05),
            Arc::new(VecSource::new(vec![vec![1.0f64]])),
            Arc::new(MultiStageMapper::new(
                |x: &f64, emit: &mut dyn FnMut(u8, f64)| emit(0, *x),
            )),
            |_, _| MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95),
        )
        .map(|_| ())
        .unwrap_err();
    assert!(
        err.to_string().contains("single-input"),
        "unexpected error: {err}"
    );
}

#[allow(dead_code)]
fn assert_mapper_types(catalog: &PageCatalog) {
    // Compile-time check that the public mapper type is usable
    // standalone (e.g. for custom submissions).
    let _ = JoinMapper::new(catalog);
}
