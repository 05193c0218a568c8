//! Cluster and simulated-job specifications.

use approxhadoop_core::target::TimingModel;

use crate::power::PowerModel;

/// A homogeneous server cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of servers.
    pub servers: usize,
    /// Map slots per server.
    pub map_slots_per_server: usize,
    /// Per-server power model.
    pub power: PowerModel,
    /// Whether idle servers may enter ACPI-S3 once they have no more
    /// work (Figure 12's energy knob).
    pub s3_enabled: bool,
    /// Relative CPU speed (1.0 = the paper's Xeon; the Atom cluster is
    /// slower).
    pub speed: f64,
}

impl ClusterSpec {
    /// The paper's Xeon cluster: 8 map slots per server, 60/150 W.
    pub fn xeon(servers: usize) -> Self {
        ClusterSpec {
            servers,
            map_slots_per_server: 8,
            power: PowerModel::xeon(),
            s3_enabled: false,
            speed: 1.0,
        }
    }

    /// The paper's Atom cluster (used for the 12.5 TB runs): 4 map slots,
    /// low power, roughly a quarter of the Xeon's speed.
    pub fn atom(servers: usize) -> Self {
        ClusterSpec {
            servers,
            map_slots_per_server: 4,
            power: PowerModel::atom(),
            s3_enabled: false,
            speed: 0.25,
        }
    }

    /// Enables the S3 sleep state.
    pub fn with_s3(mut self) -> Self {
        self.s3_enabled = true;
        self
    }

    /// Total map slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.servers * self.map_slots_per_server
    }
}

/// Statistical model of the *worst intermediate key* of a simulated job:
/// per-item values have mean `item_mean` and standard deviation
/// `item_std`; block means vary with standard deviation `block_std`
/// (data within blocks has locality — the paper's explanation for why
/// task dropping widens intervals more than item sampling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyStatModel {
    /// Mean per-item value of the watched key.
    pub item_mean: f64,
    /// Within-block per-item standard deviation.
    pub item_std: f64,
    /// Between-block standard deviation of the block means.
    pub block_std: f64,
}

/// A simulated MapReduce job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJobSpec {
    /// Number of map tasks (input blocks).
    pub num_maps: usize,
    /// Records per block (`M`).
    pub records_per_map: u64,
    /// The true per-task timing model (on a speed-1.0 server).
    pub timing: TimingModel,
    /// Log-scale standard deviation of multiplicative task-time noise
    /// (stragglers).
    pub straggler_std: f64,
    /// Time between the last map finishing and job completion (the
    /// incremental reduce tail; the Map phase dominates per the paper).
    pub reduce_tail_secs: f64,
    /// Statistics of the worst key.
    pub stats: KeyStatModel,
}

impl SimJobSpec {
    /// A Wikipedia-log-processing-shaped job (Project/Page Popularity):
    /// heavy log blocks, read-dominated, top key appearing in roughly
    /// half the records with mild block locality. Calibrated so a
    /// one-week log (740 maps of 2.6 M records) takes ≈ 980 s precise on
    /// the 10-server Xeon cluster, matching Figure 9(a).
    pub fn log_processing(num_maps: usize, records_per_map: u64) -> Self {
        SimJobSpec {
            num_maps,
            records_per_map,
            // Read-dominated: decompressing and parsing a log record
            // costs more than counting it, so 1% sampling cuts only the
            // ~37% processing share (paper Fig. 7a).
            timing: TimingModel {
                t0: 2.0,
                tr: 2.5e-5,
                tp: 1.5e-5,
            },
            straggler_std: 0.08,
            reduce_tail_secs: 15.0,
            stats: KeyStatModel {
                item_mean: 0.5,
                item_std: 0.5,
                block_std: 0.015,
            },
        }
    }

    /// A Wikipedia-dump-analysis-shaped job (WikiLength /
    /// WikiPageRank): fewer, heavier blocks, processing-dominated.
    pub fn data_analysis(num_maps: usize, records_per_map: u64) -> Self {
        SimJobSpec {
            num_maps,
            records_per_map,
            // bzip2 decompression dominates (paper Fig. 6a: 1% sampling
            // saves ~21% of the runtime).
            timing: TimingModel {
                t0: 3.0,
                tr: 8.0e-4,
                tp: 2.2e-4,
            },
            straggler_std: 0.06,
            reduce_tail_secs: 10.0,
            stats: KeyStatModel {
                item_mean: 0.15,
                item_std: 0.36,
                block_std: 0.01,
            },
        }
    }

    /// Total records in the simulated input.
    pub fn total_records(&self) -> u64 {
        self.num_maps as u64 * self.records_per_map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_presets() {
        let x = ClusterSpec::xeon(10);
        assert_eq!(x.total_slots(), 80);
        assert!(!x.s3_enabled);
        assert!(x.with_s3().s3_enabled);
        let a = ClusterSpec::atom(60);
        assert_eq!(a.total_slots(), 240);
        assert!(a.speed < x.speed);
    }

    #[test]
    fn week_log_job_is_calibrated_to_the_paper() {
        // 740 maps × ~106 s each on 80 slots ≈ 10 waves ≈ 980 s.
        let job = SimJobSpec::log_processing(740, 2_600_000);
        let per_map = job.timing.t_map(2_600_000.0, 2_600_000.0);
        assert!((100.0..115.0).contains(&per_map), "per-map {per_map}");
        assert_eq!(job.total_records(), 740 * 2_600_000);
    }
}
