//! Figure 12: energy consumed processing the web-server log for
//! multiple dropping/sampling ratios — (a) Request Rate,
//! (b) Attack Frequencies.
//!
//! The key effect: the 80 weekly files run in a single wave on the
//! cluster, so dropping maps barely changes the runtime — but servers
//! whose maps were dropped go to ACPI-S3, so dropping still saves
//! energy (the paper's point that approximation can save energy
//! independently of time).

use approxhadoop_bench::header;
use approxhadoop_cluster::KeyStatModel;
use approxhadoop_cluster::{simulate, ClusterSpec, SimJobSpec};
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_core::target::TimingModel;

fn dept_log_job() -> SimJobSpec {
    // 80 weekly files, 500k requests each, read-dominated parsing.
    SimJobSpec {
        num_maps: 80,
        records_per_map: 500_000,
        timing: TimingModel {
            t0: 1.5,
            tr: 4.0e-5,
            tp: 6.0e-5,
        },
        straggler_std: 0.06,
        reduce_tail_secs: 8.0,
        stats: KeyStatModel {
            item_mean: 0.01,
            item_std: 0.0995,
            block_std: 0.0005,
        },
    }
}

fn main() {
    header(
        "Figure 12",
        "Energy (Wh) for web-server log processing on 10 Xeons with ACPI-S3 \
         (80 maps = one wave on 80 slots; dropping saves energy, not time)",
    );
    let cluster = ClusterSpec::xeon(10).with_s3();
    let job = dept_log_job();

    for (label, seed) in [
        ("(a) Request Rate", 12u64),
        ("(b) Attack Frequencies", 13u64),
    ] {
        println!("\n--- {label} ---");
        println!(
            "{:>7} | {:>9} | {:>9} | {:>9} | {:>9}",
            "maps", "100%smpl", "50%smpl", "10%smpl", "1%smpl"
        );
        for drop in [0.0, 0.25, 0.5, 0.75] {
            let mut row = format!("{:>6.0}% |", (1.0 - drop) * 100.0);
            for sample in [1.0, 0.5, 0.1, 0.01] {
                let spec = ApproxSpec::ratios(drop, sample);
                let r = simulate(&cluster, &job, spec, seed).expect("simulation");
                row.push_str(&format!(" {:>6.1}Wh |", r.energy_wh));
            }
            println!("{}", row.trim_end_matches('|'));
        }
        // Also show that runtime is flat in the dropping dimension.
        let precise = simulate(&cluster, &job, ApproxSpec::Precise, seed).unwrap();
        let dropped = simulate(&cluster, &job, ApproxSpec::ratios(0.5, 1.0), seed).unwrap();
        println!(
            "    runtime: precise {:.0}s vs 50% dropped {:.0}s (single wave — no speedup),\n\
             energy: {:.1}Wh vs {:.1}Wh (S3 savings from idle servers)",
            precise.wall_secs, dropped.wall_secs, precise.energy_wh, dropped.energy_wh
        );
    }
    println!(
        "\nShape check (paper Fig. 12): energy falls along BOTH axes — sampling\n\
         shortens the run; dropping parks whole servers in S3."
    );
}
