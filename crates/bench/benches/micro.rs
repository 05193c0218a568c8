//! Criterion micro-benchmarks for the performance-critical pieces:
//! estimator updates, statistical fits, the planner, sampling, and the
//! end-to-end engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use approxhadoop_core::job::AggregationJob;
use approxhadoop_core::spec::{ApproxSpec, ErrorTarget};
use approxhadoop_core::target::{plan, TimingModel};
use approxhadoop_runtime::engine::JobConfig;
use approxhadoop_runtime::input::VecSource;
use approxhadoop_stats::dist::{ContinuousDistribution, StudentT};
use approxhadoop_stats::gev::fit_gev_maxima;
use approxhadoop_stats::multistage::{
    ClusterObservation, ExecutedClusters, TwoStageEstimator, WaveStatistics,
};
use approxhadoop_stats::sampling::Zipf;

fn bench_two_stage_estimator(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let observations: Vec<ClusterObservation> = (0..1_000)
        .map(|i| ClusterObservation {
            cluster_id: i,
            total_units: 10_000,
            sampled_units: 1_000,
            sum: rng.gen_range(400.0..600.0),
            sum_sq: rng.gen_range(400.0..700.0),
        })
        .collect();
    c.bench_function("two_stage_estimate_1000_clusters", |b| {
        b.iter(|| {
            let units = observations
                .iter()
                .map(|o| (o.total_units, o.sampled_units));
            let executed = ExecutedClusters::new(2_000, units, 0.95);
            let parts =
                TwoStageEstimator::from_present(&executed, observations.iter().copied()).unwrap();
            black_box(parts.interval().unwrap())
        })
    });
}

fn bench_student_t_quantile(c: &mut Criterion) {
    c.bench_function("student_t_quantile", |b| {
        let t = StudentT::new(29.0);
        b.iter(|| black_box(t.quantile(black_box(0.975))))
    });
}

fn bench_gev_fit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let maxima: Vec<f64> = (0..100)
        .map(|_| {
            (0..200)
                .map(|_| rng.gen_range(0.0..100.0))
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    c.bench_function("gev_mle_fit_100_maxima", |b| {
        b.iter(|| black_box(fit_gev_maxima(black_box(&maxima)).unwrap()))
    });
}

fn bench_planner(c: &mut Criterion) {
    // The year-scale planning problem: 37k remaining tasks.
    let wave = WaveStatistics {
        total_clusters: 37_684,
        completed_clusters: 240,
        inter_cluster_var: 4.0e9,
        mean_cluster_size: 6_200_000.0,
        mean_within_var: 0.25,
        completed_within_term: 0.0,
        estimate: 1.17e11,
    };
    let timing = TimingModel {
        t0: 2.0,
        tr: 1.5e-5,
        tp: 2.5e-5,
    };
    c.bench_function("planner_year_scale", |b| {
        b.iter(|| {
            black_box(plan(
                black_box(&wave),
                &timing,
                ErrorTarget::Relative(0.01),
                0.95,
                37_444,
            ))
        })
    });
}

fn bench_zipf_sampling(c: &mut Criterion) {
    let z = Zipf::new(1_000_000, 1.01);
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("zipf_sample_1m_catalogue", |b| {
        b.iter(|| black_box(z.sample(&mut rng)))
    });
}

fn bench_engine_word_count(c: &mut Criterion) {
    let blocks: Vec<Vec<String>> = (0..16)
        .map(|b| {
            (0..500)
                .map(|i| format!("w{} w{} w{}", (b + i) % 50, i % 20, i % 7))
                .collect()
        })
        .collect();
    let input = VecSource::new(blocks);
    c.bench_function("engine_word_count_8000_lines", |b| {
        b.iter(|| {
            let r = AggregationJob::count(|line: &String, emit: &mut dyn FnMut(String, f64)| {
                for w in line.split_whitespace() {
                    emit(w.to_string(), 1.0);
                }
            })
            .spec(ApproxSpec::Precise)
            .config(JobConfig {
                map_slots: 4,
                ..Default::default()
            })
            .run(&input)
            .unwrap();
            black_box(r.outputs.len())
        })
    });
}

fn bench_sampled_read(c: &mut Criterion) {
    use approxhadoop_runtime::input::{InputSource, VecSource};
    let src = VecSource::new(vec![(0..100_000).collect::<Vec<u32>>()]);
    c.bench_function("systematic_sample_100k_at_1pct", |b| {
        b.iter(|| black_box(src.stream_split(0, 0.01, 42).unwrap().count()))
    });
}

fn bench_obs_registry(c: &mut Criterion) {
    use approxhadoop_obs::Registry;
    // Hot path: a pre-resolved handle, as the engine holds them.
    let reg = Registry::new();
    let counter = reg.counter("bench_counter", &[("k", "v")]);
    c.bench_function("obs_counter_inc", |b| b.iter(|| counter.inc()));
    let hist = reg.histogram("bench_hist", &[]);
    c.bench_function("obs_histogram_observe", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 0.013) % 12.0;
            hist.observe(black_box(x));
        })
    });
    // Cold path: lookup through the registry's mutex each time.
    c.bench_function("obs_counter_lookup_and_inc", |b| {
        b.iter(|| reg.counter(black_box("bench_counter"), &[("k", "v")]).inc())
    });
    // Exposition over a realistically sized registry.
    let reg = Registry::new();
    for i in 0..50 {
        reg.counter("c", &[("i", &i.to_string())]).add(i);
        reg.histogram("h", &[("i", &i.to_string())])
            .observe(i as f64 * 0.01);
    }
    c.bench_function("obs_render_prometheus_100_series", |b| {
        b.iter(|| black_box(reg.render_prometheus().len()))
    });
}

fn bench_obs_tracer(c: &mut Criterion) {
    use approxhadoop_obs::Tracer;
    let t = Tracer::new(65_536);
    c.bench_function("obs_trace_complete_span", |b| {
        b.iter(|| {
            black_box(t.complete("map 1", "task", 0, 100, 1, 1, None, vec![]));
        })
    });
}

fn bench_obs_http_endpoint(c: &mut Criterion) {
    use std::io::{Read, Write};

    use approxhadoop_obs::{serve_metrics, BoundSample, Obs};

    // A scrape-sized context: 100 counter series, a few job series —
    // what a live `/metrics` poll pays per request (accept + render +
    // write, both sides on loopback).
    let obs = Obs::shared();
    for i in 0..100 {
        obs.registry
            .counter(
                "approx_worker_records_total",
                &[("job", &format!("job_{i:04}"))],
            )
            .add(i);
    }
    for j in 0..4 {
        for p in 0..64 {
            obs.jobs.record(
                &format!("job_{j:04}"),
                BoundSample {
                    t_secs: p as f64 * 0.01,
                    reducer: 0,
                    maps_processed: p,
                    relative_bound: 1.0 / (p + 1) as f64,
                },
            );
        }
    }
    let server = serve_metrics("127.0.0.1:0", std::sync::Arc::clone(&obs)).unwrap();
    let addr = server.local_addr();
    let scrape = |path: &str| {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").unwrap();
        let mut body = Vec::new();
        conn.read_to_end(&mut body).unwrap();
        body.len()
    };
    c.bench_function("obs_http_metrics_scrape_100_series", |b| {
        b.iter(|| black_box(scrape("/metrics")))
    });
    c.bench_function("obs_http_jobs_scrape_4x64_points", |b| {
        b.iter(|| black_box(scrape("/jobs")))
    });
}

criterion_group!(
    benches,
    bench_two_stage_estimator,
    bench_student_t_quantile,
    bench_gev_fit,
    bench_planner,
    bench_zipf_sampling,
    bench_engine_word_count,
    bench_sampled_read,
    bench_obs_registry,
    bench_obs_tracer,
    bench_obs_http_endpoint,
);
criterion_main!(benches);
