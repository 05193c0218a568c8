//! Cluster-scale simulation: runtime and energy at the paper's scale
//! (Figures 12 & 13).
//!
//! Simulates the paper's 10-server Xeon cluster running one week of
//! Wikipedia log processing (740 maps) precisely and with a ±1% target
//! bound, then shows the ACPI-S3 energy savings of task dropping on a
//! single-wave job, and finally scales the input up to a year
//! (12.5 TB-equivalent) on the 60-server Atom cluster.
//!
//! Run with: `cargo run --release --example energy_sim`

use approxhadoop::cluster::{simulate, ClusterSpec, SimJobSpec};
use approxhadoop::core::ApproxSpec;
use approxhadoop::workloads::wikilog::LOG_PERIODS;

fn main() {
    let xeon = ClusterSpec::xeon(10);

    // --- One week, precise vs 1% target (Figure 9a's headline). ---
    let week = SimJobSpec::log_processing(740, 2_600_000);
    let precise = simulate(&xeon, &week, ApproxSpec::Precise, 1).expect("precise sim");
    let target = simulate(&xeon, &week, ApproxSpec::target(0.01, 0.95), 1).expect("target sim");
    println!("== One week of Wikipedia logs on 10 Xeons ==");
    println!(
        "precise:    {:>7.0}s  {:>7.0}Wh  ({} maps)",
        precise.wall_secs, precise.energy_wh, precise.executed_maps
    );
    println!(
        "target ±1%: {:>7.0}s  {:>7.0}Wh  ({} maps run, {} dropped, bound {:.2}%, actual {:.2}%)",
        target.wall_secs,
        target.energy_wh,
        target.executed_maps,
        target.dropped_maps + target.killed_maps,
        target.bound_rel * 100.0,
        target.actual_error_rel * 100.0
    );
    println!("speedup: {:.1}x\n", precise.wall_secs / target.wall_secs);

    // --- S3 sleep: dropping inside a single wave saves energy, not time. ---
    println!("== Single-wave job (80 maps on 80 slots), drop 50% ==");
    let single_wave = SimJobSpec::log_processing(80, 2_600_000);
    let approx = ApproxSpec::ratios(0.5, 1.0);
    let no_s3 = simulate(&xeon, &single_wave, approx, 2).expect("no-s3 sim");
    let s3 = simulate(&xeon.with_s3(), &single_wave, approx, 2).expect("s3 sim");
    println!(
        "without S3: {:>6.0}s  {:>6.0}Wh",
        no_s3.wall_secs, no_s3.energy_wh
    );
    println!(
        "with S3:    {:>6.0}s  {:>6.0}Wh  (energy saved {:.0}%, runtime unchanged)\n",
        s3.wall_secs,
        s3.energy_wh,
        (1.0 - s3.energy_wh / no_s3.energy_wh) * 100.0
    );

    // --- Scaling to a year on the Atom cluster (Figure 13). ---
    println!("== Scaling on 60 Atoms (precise vs target ±1%) ==");
    println!(
        "{:>9} | {:>6} | {:>11} | {:>11} | {:>8}",
        "period", "maps", "precise(s)", "approx(s)", "speedup"
    );
    let atom = ClusterSpec::atom(60);
    for period in LOG_PERIODS
        .iter()
        .filter(|p| ["1 day", "1 week", "1 month", "1 year"].contains(&p.name))
    {
        let job = SimJobSpec::log_processing(period.num_maps() as usize, period.records_per_map());
        let p = simulate(&atom, &job, ApproxSpec::Precise, 3).expect("precise sim");
        let a = simulate(&atom, &job, ApproxSpec::target(0.01, 0.95), 3).expect("target sim");
        println!(
            "{:>9} | {:>6} | {:>11.0} | {:>11.0} | {:>7.1}x",
            period.name,
            period.num_maps(),
            p.wall_secs,
            a.wall_secs,
            p.wall_secs / a.wall_secs
        );
    }
    println!("\n(speedups grow with input size — the paper reports 32x at one year)");
}
