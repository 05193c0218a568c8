//! Fault injection and fault-tolerance policy for the engine.
//!
//! [`FaultPlan`] is the deterministic, seedable chaos layer: it decides
//! — from a hash of `(seed, task, attempt)` — which map attempts panic
//! or fail their input read. Because decisions hash the attempt number,
//! a retry of a failed attempt draws a fresh coin — transient faults
//! clear on retry. Datanode faults (dead nodes, per-replica errors,
//! slow replicas) belong to the DFS, not the engine: install a
//! [`ReadFaults`](approxhadoop_dfs::ReadFaults) with
//! [`DfsCluster::set_read_faults`](approxhadoop_dfs::DfsCluster::set_read_faults).
//!
//! [`FaultPolicy`] is the recovery side: how many times the JobTracker
//! retries a failed task, with what backoff, whether an exhausted task
//! is **degraded to a dropped cluster** (the reducers widen their
//! confidence intervals exactly as for a deliberate drop, paper
//! Eq. 1–3) instead of aborting the job, and the worst relative bound
//! the degraded result may carry before the job fails anyway.

use std::time::Duration;

use approxhadoop_dfs::fault::unit_hash;

/// Hash salt for map-panic decisions.
const SALT_PANIC: u64 = 0xDEAD;
/// Hash salt for map read-error decisions.
const SALT_IO: u64 = 0x10E0;

/// What the fault plan injects into one map attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Run the attempt normally.
    None,
    /// Panic inside the user map code.
    MapPanic,
    /// Fail the attempt's input read with an I/O error.
    IoError,
}

/// A deterministic, seedable description of faults to inject.
///
/// Parse one from a CLI spec with [`FaultPlan::parse`]:
///
/// ```
/// use approxhadoop_runtime::fault::FaultPlan;
///
/// let plan = FaultPlan::parse("seed=7,panic=0.05,io=0.1").unwrap();
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.map_io_error_prob, 0.1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability that a map attempt panics in user code.
    pub map_panic_prob: f64,
    /// Probability that a map attempt's input read fails.
    pub map_io_error_prob: f64,
}

impl FaultPlan {
    /// Parses a comma-separated `key=value` spec:
    ///
    /// | key     | meaning                                   | example    |
    /// |---------|-------------------------------------------|------------|
    /// | `seed`  | injection seed                            | `seed=7`   |
    /// | `panic` | map panic probability                     | `panic=0.1`|
    /// | `io`    | map read-error probability                | `io=0.05`  |
    ///
    /// The datanode keys `read`, `slow` and `dead` are rejected: the
    /// engine cannot inject them, the DFS does (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan expects key=value, got `{part}`"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid probability `{v}` for `{key}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "probability for `{key}` must lie in [0, 1], got {p}"
                    ));
                }
                Ok(p)
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("invalid seed `{value}`"))?;
                }
                "panic" => plan.map_panic_prob = prob(value)?,
                "io" => plan.map_io_error_prob = prob(value)?,
                key @ ("read" | "slow" | "dead") => {
                    return Err(format!(
                        "fault plan key `{key}` is a datanode fault, which the job engine \
                         cannot inject; install a `ReadFaults` on the DFS with \
                         `DfsCluster::set_read_faults` instead"
                    ))
                }
                other => return Err(format!("unknown fault plan key `{other}`")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Validates probability ranges.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("panic", self.map_panic_prob),
            ("io", self.map_io_error_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "fault probability `{name}` must lie in [0, 1], got {p}"
                ));
            }
        }
        Ok(())
    }

    /// Whether the plan injects anything into the map execution path.
    pub fn injects_map_faults(&self) -> bool {
        self.map_panic_prob > 0.0 || self.map_io_error_prob > 0.0
    }

    /// The (deterministic) fate of map attempt `attempt` of `task`.
    /// Panics take precedence over read errors when both coins hit.
    pub fn decide(&self, task: usize, attempt: u32) -> FaultDecision {
        if self.map_panic_prob > 0.0
            && unit_hash(self.seed, task as u64, attempt as u64, SALT_PANIC) < self.map_panic_prob
        {
            return FaultDecision::MapPanic;
        }
        if self.map_io_error_prob > 0.0
            && unit_hash(self.seed, task as u64, attempt as u64, SALT_IO) < self.map_io_error_prob
        {
            return FaultDecision::IoError;
        }
        FaultDecision::None
    }
}

/// How the JobTracker reacts to failed map attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPolicy {
    /// Retries per task after its first failure (`0` = fail fast, the
    /// pre-fault-tolerance behaviour).
    pub max_task_retries: u32,
    /// Base delay before the first retry; doubles per subsequent failure
    /// of the same task (exponential backoff).
    pub retry_backoff: Duration,
    /// Cap on the backoff delay.
    pub max_backoff: Duration,
    /// When a task exhausts its retries: `true` converts it into a
    /// dropped cluster (the job completes with a widened confidence
    /// interval), `false` aborts the job with the task's error.
    pub degrade_to_drop: bool,
    /// With `degrade_to_drop`, fail the job anyway if the final worst
    /// relative error bound across reducers exceeds this limit (the
    /// job's error budget). `None` accepts any widening.
    pub max_degraded_bound: Option<f64>,
    /// Blacklist a server from new dispatches after this many failed
    /// attempts on it (`0` disables blacklisting). Ignored once every
    /// server is blacklisted.
    pub blacklist_after: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_task_retries: 0,
            retry_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
            degrade_to_drop: false,
            max_degraded_bound: None,
            blacklist_after: 3,
        }
    }
}

impl FaultPolicy {
    /// A forgiving policy: a few retries, then degrade to drop.
    pub fn tolerant(max_task_retries: u32) -> Self {
        FaultPolicy {
            max_task_retries,
            degrade_to_drop: true,
            ..Default::default()
        }
    }

    /// Validates the bound limit.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(b) = self.max_degraded_bound {
            if !(b.is_finite() && b > 0.0) {
                return Err(format!(
                    "max_degraded_bound must be positive and finite, got {b}"
                ));
            }
        }
        Ok(())
    }

    /// Backoff before retrying a task that has failed `failures` times:
    /// `retry_backoff × 2^(failures−1)`, capped at `max_backoff`.
    pub fn backoff_for(&self, failures: u32) -> Duration {
        let exp = failures.saturating_sub(1).min(16);
        (self.retry_backoff * 2u32.saturating_pow(exp)).min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("seed=9,panic=0.1,io=0.2").unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.map_panic_prob, 0.1);
        assert_eq!(p.map_io_error_prob, 0.2);
    }

    #[test]
    fn parse_partial_and_empty_specs() {
        let p = FaultPlan::parse("io=0.5").unwrap();
        assert_eq!(p.map_io_error_prob, 0.5);
        assert_eq!(p.map_panic_prob, 0.0);
        assert!(p.injects_map_faults());
        let p = FaultPlan::parse("").unwrap();
        assert_eq!(p, FaultPlan::default());
        assert!(!p.injects_map_faults());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "panic",
            "panic=2.0",
            "panic=-0.1",
            "io=x",
            "seed=abc",
            "dead=1+x",
            "slow=0.1:ms",
            "bogus=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_vary_by_attempt() {
        let p = FaultPlan {
            seed: 11,
            map_io_error_prob: 0.5,
            ..Default::default()
        };
        let mut differs = false;
        for t in 0..100 {
            assert_eq!(p.decide(t, 0), p.decide(t, 0));
            if p.decide(t, 0) != p.decide(t, 1) {
                differs = true;
            }
        }
        assert!(differs, "retries must draw a fresh coin");
    }

    #[test]
    fn decision_rate_matches_probability() {
        let p = FaultPlan {
            seed: 5,
            map_panic_prob: 0.2,
            ..Default::default()
        };
        let hits = (0..5_000)
            .filter(|&t| p.decide(t, 0) == FaultDecision::MapPanic)
            .count();
        let rate = hits as f64 / 5_000.0;
        assert!((rate - 0.2).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn panic_takes_precedence_over_io() {
        let p = FaultPlan {
            seed: 1,
            map_panic_prob: 1.0,
            map_io_error_prob: 1.0,
        };
        assert_eq!(p.decide(0, 0), FaultDecision::MapPanic);
    }

    /// The engine never read the datanode keys, so a plan carrying them
    /// injected nothing; parsing them now fails and points at the DFS.
    #[test]
    fn parse_rejects_datanode_keys() {
        for spec in ["dead=0", "read=0.2", "slow=0.1:25", "io=0.2,dead=0,seed=3"] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains("DfsCluster::set_read_faults"), "{spec}: {err}");
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = FaultPolicy {
            retry_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
            ..Default::default()
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(35));
        assert_eq!(policy.backoff_for(30), Duration::from_millis(35));
    }

    #[test]
    fn policy_validation() {
        assert!(FaultPolicy::default().validate().is_ok());
        assert!(FaultPolicy::tolerant(3).degrade_to_drop);
        let bad = FaultPolicy {
            max_degraded_bound: Some(f64::NAN),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPolicy {
            max_degraded_bound: Some(0.0),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }
}
