//! Every wikilog aggregation in `workloads::apps` gives bit-identical
//! results on scoped threads and in `approx-worker` processes.
//!
//! The two backends get the map function from different places: the
//! threads from the table row itself, the workers from the registry
//! `approx-worker` builds with `apps::register_jobs`. Both read the
//! same row, so a drift between them — a renamed job, a changed key or
//! value — shows up here as a mismatch.

use std::path::Path;

use approxhadoop::core::spec::ApproxSpec;
use approxhadoop::runtime::engine::JobConfig;
use approxhadoop::workloads::apps::{WikilogJob, WIKILOG_JOBS};
use approxhadoop::workloads::wikilog::WikiLog;

fn small_log() -> WikiLog {
    WikiLog {
        days: 1,
        entries_per_block: 300,
        blocks_per_day: 12,
        pages: 2_000,
        projects: 20,
        seed: 2,
    }
}

/// One map slot on one server, and one worker process. The reducers add
/// map outputs in completion order, and with several attempts in flight
/// that order varies from run to run, so even two thread runs can
/// differ in the last bit of a sum. One attempt at a time fixes the
/// order on both backends, as in `executor_equivalence`.
fn config() -> JobConfig {
    JobConfig {
        map_slots: 1,
        servers: 1,
        reduce_tasks: 2,
        seed: 2,
        workers: 1,
        ..Default::default()
    }
}

#[test]
fn every_entry_is_bit_identical_on_threads_and_workers() {
    let log = small_log();
    let worker = Path::new(env!("CARGO_BIN_EXE_approx-worker"));
    for job in WIKILOG_JOBS {
        for spec in [ApproxSpec::Precise, ApproxSpec::ratios(0.2, 0.5)] {
            let threads = job.run(&log, spec, config()).unwrap();
            let workers = job.run_on_workers(&log, spec, config(), worker).unwrap();
            let case = format!("{} at {spec:?}", job.name);
            assert!(!threads.outputs.is_empty(), "{case}: no output");
            assert_eq!(threads.outputs.len(), workers.outputs.len(), "{case}");
            for ((kt, it), (kw, iw)) in threads.outputs.iter().zip(&workers.outputs) {
                assert_eq!(kt, kw, "{case}");
                for (t, w) in [
                    (it.estimate, iw.estimate),
                    (it.half_width, iw.half_width),
                    (it.confidence, iw.confidence),
                ] {
                    assert_eq!(t.to_bits(), w.to_bits(), "{case}: key {kt}");
                }
            }
            let (mt, mw) = (&threads.metrics, &workers.metrics);
            assert_eq!(mt.executed_maps, mw.executed_maps, "{case}");
            assert_eq!(mt.dropped_maps, mw.dropped_maps, "{case}");
            if spec != ApproxSpec::Precise {
                assert!(mt.dropped_maps > 0, "{case}: nothing dropped");
            }
        }
    }
}

#[test]
fn every_entry_is_found_by_its_own_name() {
    for job in WIKILOG_JOBS {
        let found = WikilogJob::named(job.name).expect("registered name");
        assert_eq!(found.name, job.name);
        assert_eq!(found.aggregation, job.aggregation);
    }
    assert!(WikilogJob::named("wiki-length").is_none());
}
