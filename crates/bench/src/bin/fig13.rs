//! Figure 13: performance of Page and Project Popularity for different
//! log sizes (1 day … 1 year of Wikipedia access logs), precise vs a
//! 1% target error bound, on the 60-server Atom cluster.

use approxhadoop_bench::header;
use approxhadoop_cluster::{simulate, ClusterSpec, SimJobSpec};
use approxhadoop_core::spec::{ApproxSpec, PilotSpec};
use approxhadoop_workloads::wikilog::LOG_PERIODS;

fn main() {
    header(
        "Figure 13",
        "Runtime vs log size (60 Atom servers; both axes log-scale in the paper)",
    );
    let atom = ClusterSpec::atom(60);
    println!(
        "{:>9} | {:>7} | {:>12} | {:>12} | {:>13} | {:>8} | {:>8}",
        "period", "maps", "precise(s)", "project(s)", "page+pilot(s)", "spd-proj", "spd-page"
    );
    for period in LOG_PERIODS {
        let job = SimJobSpec::log_processing(period.num_maps() as usize, period.records_per_map());
        let precise = simulate(&atom, &job, ApproxSpec::Precise, 13).expect("precise sim");
        // Project Popularity: plain 1% target.
        let project =
            simulate(&atom, &job, ApproxSpec::target(0.01, 0.95), 13).expect("project sim");
        // Page Popularity: 1% target with a 1% pilot wave (the paper's
        // configuration — page-level state doesn't fit in memory
        // without sampling, so a pilot replaces the precise first wave).
        let page = simulate(
            &atom,
            &job,
            ApproxSpec::target(0.01, 0.95).with_pilot(PilotSpec {
                tasks: 24,
                sampling_ratio: 0.01,
            }),
            13,
        )
        .expect("page sim");
        println!(
            "{:>9} | {:>7} | {:>12.0} | {:>12.0} | {:>13.0} | {:>7.1}x | {:>7.1}x",
            period.name,
            period.num_maps(),
            precise.wall_secs,
            project.wall_secs,
            page.wall_secs,
            precise.wall_secs / project.wall_secs,
            precise.wall_secs / page.wall_secs,
        );
    }
    println!(
        "\nShape check (paper Fig. 13): precise runtime scales linearly with input;\n\
         approximate runtime stays nearly flat, so the speedup grows with input size\n\
         (paper: >32x for Project and >20x for Page Popularity at one year)."
    );
}
