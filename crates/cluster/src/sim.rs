//! The simulator core: a discrete-event [`Executor`] under the engine's
//! one JobTracker, plus the power model.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::Sender;

use approxhadoop_core::multistage::{Aggregation, MultiStageReducer};
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_core::target::policy;
use approxhadoop_core::KeyStat;
use approxhadoop_runtime::engine::{
    run_job_on_executor, Clock, Executor, JobConfig, RecvOutcome, WorkItem, WorkerMsg,
};
use approxhadoop_runtime::event::{JobId, JobSession};
use approxhadoop_runtime::input::SplitMeta;
use approxhadoop_runtime::metrics::MapStats;
use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceEvent};
use approxhadoop_runtime::types::TaskId;

use crate::event::EventQueue;
use crate::spec::{ClusterSpec, SimJobSpec};

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// An input parameter was out of range, or the engine rejected or
    /// failed the simulated job.
    Invalid {
        /// Description of the problem.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid { reason } => write!(f, "invalid simulation: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of one simulated job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Simulated wall-clock job time in seconds.
    pub wall_secs: f64,
    /// Simulated cluster energy in watt-hours.
    pub energy_wh: f64,
    /// Maps that ran to completion.
    pub executed_maps: usize,
    /// Maps dropped before launch.
    pub dropped_maps: usize,
    /// Maps killed mid-flight.
    pub killed_maps: usize,
    /// Effective within-block sampling ratio over executed maps.
    pub effective_sampling_ratio: f64,
    /// The final estimate of the watched key's total.
    pub estimate: f64,
    /// The achieved relative error bound (half-width / estimate).
    pub bound_rel: f64,
    /// The actual relative error against the synthetic ground truth.
    pub actual_error_rel: f64,
}

/// Draws a standard normal via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Simulated time in seconds: the JobTracker reads it through [`Clock`],
/// the executor advances it to each completion it delivers.
struct SimClock {
    base: Instant,
    secs_bits: AtomicU64,
}

impl SimClock {
    fn secs(&self) -> f64 {
        f64::from_bits(self.secs_bits.load(Ordering::SeqCst))
    }
}

impl Clock for SimClock {
    fn now(&self) -> Instant {
        self.base + Duration::from_secs_f64(self.secs())
    }
}

/// Busy slots per server and the energy the cluster has drawn so far.
struct Power {
    cluster: ClusterSpec,
    busy: Vec<usize>,
    energy_wh: f64,
}

impl Power {
    /// Charges `secs` at the current busy counts; with S3, idle servers
    /// sleep once no task is left to start.
    fn integrate(&mut self, secs: f64, can_sleep: bool) {
        let c = &self.cluster;
        for &b in &self.busy {
            let watts = if b == 0 && can_sleep && c.s3_enabled {
                c.power.sleep_watts
            } else {
                c.power.watts(b, c.map_slots_per_server)
            };
            self.energy_wh += watts * secs / 3600.0;
        }
    }
}

/// A dispatched attempt: it completes at its queued event unless the
/// tracker raises its kill flag first.
struct Running {
    server: usize,
    kill: Arc<AtomicBool>,
    sampled: u64,
    duration: f64,
}

/// The simulated cluster. `dispatch` turns an attempt into a completion
/// event at `now + t_map(M, m)/speed · noise`; `recv` reports raised
/// kill flags first, then the next completion in simulated-time order,
/// shipping the watched key's synthetic statistics to the reducer. With
/// nothing left in flight it answers `Closed`, so a stall fails the job.
struct SimExecutor<'a> {
    job: &'a SimJobSpec,
    block_mu: &'a [f64],
    clock: &'a SimClock,
    power: &'a mut Power,
    rng: StdRng,
    events: EventQueue<(usize, u32)>,
    running: BTreeMap<(usize, u32), Running>,
    /// Tasks neither dispatched nor dropped yet (the S3 rule's input).
    unstarted: HashSet<usize>,
    reducer: Sender<ReduceEvent<u8, KeyStat>>,
}

impl SimExecutor<'_> {
    /// Advances simulated time to a completion, charging the energy drawn
    /// meanwhile, and ships the block's statistics for the watched key.
    fn complete(&mut self, time: f64, (task, attempt): (usize, u32), r: Running) -> RecvOutcome {
        let now = self.clock.secs();
        self.power.integrate(time - now, self.unstarted.is_empty());
        self.clock.secs_bits.store(time.to_bits(), Ordering::SeqCst);
        self.power.busy[r.server] -= 1;
        // The sample mean of m-of-M items drawn without replacement has
        // variance σ²·(1/m − 1/M) around the realized block mean, so a
        // full read (m = M) is exact.
        let (m, m_total) = (r.sampled as f64, self.job.records_per_map as f64);
        let item_std = self.job.stats.item_std;
        let fpc = (1.0 / m - 1.0 / m_total).max(0.0);
        let mean = self.block_mu[task] + item_std * fpc.sqrt() * normal(&mut self.rng);
        let stats = MapStats {
            task: TaskId(task),
            dataset: Default::default(),
            total_records: self.job.records_per_map,
            sampled_records: r.sampled,
            emitted: 1,
            shuffled: 1,
            duration_secs: r.duration,
            read_secs: m_total * self.job.timing.tr / self.power.cluster.speed,
        };
        let stat = KeyStat {
            sum: m * mean,
            sum_sq: m * (item_std * item_std + mean * mean),
            emitting_units: r.sampled,
        };
        let _ = self.reducer.send(ReduceEvent::MapOutput {
            meta: MapOutputMeta::from(&stats),
            pairs: vec![(0, stat)],
        });
        RecvOutcome::Msg(WorkerMsg::Completed {
            stats,
            attempt,
            spans: Vec::new(),
        })
    }
}

impl Executor for SimExecutor<'_> {
    fn dispatch(&mut self, server: usize, work: WorkItem) -> bool {
        let m_total = self.job.records_per_map;
        let sampled = ((m_total as f64 * work.sampling_ratio).round() as u64).clamp(1, m_total);
        let noise = (self.job.straggler_std * normal(&mut self.rng)).exp();
        let duration = self.job.timing.t_map(m_total as f64, sampled as f64)
            / self.power.cluster.speed
            * noise;
        self.power.busy[server] += 1;
        self.unstarted.remove(&work.task.0);
        let key = (work.task.0, work.attempt);
        self.events.push(self.clock.secs() + duration, key);
        self.running.insert(
            key,
            Running {
                server,
                kill: work.kill,
                sampled,
                duration,
            },
        );
        true
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome {
        let killed = self
            .running
            .iter()
            .find(|(_, r)| r.kill.load(Ordering::SeqCst))
            .map(|(&key, _)| key);
        if let Some((task, attempt)) = killed {
            let r = self.running.remove(&(task, attempt)).expect("found above");
            self.power.busy[r.server] -= 1;
            return RecvOutcome::Msg(WorkerMsg::Killed {
                task: TaskId(task),
                attempt,
            });
        }
        // A poll reports kills only: every completion waits for a blocking
        // `recv`, so the tracker re-plans after each step of simulated time.
        if timeout.is_zero() {
            return RecvOutcome::Timeout;
        }
        while let Some(next) = self.events.pop() {
            // A killed attempt's event is stale: skip it.
            if let Some(r) = self.running.remove(&next.event) {
                return self.complete(next.time, next.event, r);
            }
        }
        RecvOutcome::Closed
    }

    fn notify_drop(&mut self, task: usize) {
        self.unstarted.remove(&task);
        let _ = self
            .reducer
            .send(ReduceEvent::MapDropped { task: TaskId(task) });
    }
}

/// Simulates one job execution on the cluster.
///
/// Scheduling and approximation are the real ones: the engine's
/// JobTracker runs the job on a simulated [`Executor`] and clock, under
/// the policy [`policy`] builds from `spec` for live jobs too (fixed
/// ratios, or the target-error coordinator with the
/// [`MultiStageReducer`]'s bound monitor), so waves, drops, kills and
/// early termination follow the same code as live runs. The reducer
/// receives synthetic per-block statistics for the watched key.
pub fn simulate(
    cluster: &ClusterSpec,
    job: &SimJobSpec,
    spec: ApproxSpec,
    seed: u64,
) -> Result<SimResult, SimError> {
    let invalid = |reason: String| SimError::Invalid { reason };
    if cluster.servers == 0 || cluster.map_slots_per_server == 0 {
        return Err(invalid("cluster must have servers and slots".into()));
    }
    if job.num_maps == 0 || job.records_per_map == 0 {
        return Err(invalid("job must have maps and records".into()));
    }

    let total = job.num_maps;
    let slots = cluster.total_slots();
    let mut rng = StdRng::seed_from_u64(seed);

    // Ground truth: the *realized* per-block mean of the watched key's
    // per-item value — the superpopulation block mean plus the finite
    // block's own sampling deviation, so a census is exactly right.
    let m_total = job.records_per_map as f64;
    let block_mu: Vec<f64> = (0..total)
        .map(|_| {
            job.stats.item_mean
                + job.stats.block_std * normal(&mut rng)
                + job.stats.item_std / m_total.sqrt() * normal(&mut rng)
        })
        .collect();
    let truth: f64 = block_mu.iter().map(|mu| mu * m_total).sum();

    let splits: Vec<SplitMeta> = (0..total)
        .map(|index| SplitMeta {
            index,
            records: job.records_per_map,
            bytes: 0,
            locations: vec![],
            dataset: Default::default(),
        })
        .collect();
    let config = JobConfig {
        map_slots: slots,
        servers: cluster.servers,
        seed,
        ..JobConfig::default()
    };
    // The policy, built from the spec as live jobs build it.
    let (mut coordinator, monitor) =
        policy(spec, &splits, &config).map_err(|e| invalid(e.to_string()))?;
    let make_reducer =
        |_| MultiStageReducer::<u8>::new(Aggregation::Sum, spec.confidence()).with_monitor(monitor);

    let clock = SimClock {
        base: Instant::now(),
        secs_bits: AtomicU64::new(0.0f64.to_bits()),
    };
    let mut power = Power {
        cluster: *cluster,
        busy: vec![0; cluster.servers],
        energy_wh: 0.0,
    };
    let result = run_job_on_executor(
        splits,
        make_reducer,
        config,
        coordinator.as_mut(),
        &JobSession::new(JobId(0)),
        &clock,
        |reducer_txs| SimExecutor {
            job,
            block_mu: &block_mu,
            clock: &clock,
            power: &mut power,
            rng,
            events: EventQueue::new(),
            running: BTreeMap::new(),
            unstarted: (0..total).collect(),
            reducer: reducer_txs.into_iter().next().expect("one reduce task"),
        },
    )
    .map_err(|e| invalid(e.to_string()))?;

    // Reduce tail: maps are done; idle servers may sleep.
    power.integrate(job.reduce_tail_secs, true);
    let (estimate, bound_rel, actual_error_rel) = match result.outputs.first() {
        Some((_, iv)) => (iv.estimate, iv.relative_error(), iv.actual_error(truth)),
        None => (0.0, f64::INFINITY, f64::INFINITY),
    };
    let metrics = &result.metrics;
    Ok(SimResult {
        wall_secs: clock.secs() + job.reduce_tail_secs,
        energy_wh: power.energy_wh,
        executed_maps: metrics.executed_maps,
        dropped_maps: metrics.dropped_maps,
        killed_maps: metrics.killed_maps,
        effective_sampling_ratio: metrics.effective_sampling_ratio(),
        estimate,
        bound_rel,
        actual_error_rel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_core::spec::PilotSpec;

    fn small_job() -> SimJobSpec {
        SimJobSpec::log_processing(160, 50_000)
    }

    #[test]
    fn precise_run_executes_everything_exactly() {
        let r = simulate(&ClusterSpec::xeon(10), &small_job(), ApproxSpec::Precise, 1).unwrap();
        assert_eq!(r.executed_maps, 160);
        assert_eq!(r.dropped_maps + r.killed_maps, 0);
        assert_eq!(r.bound_rel, 0.0);
        assert!(r.actual_error_rel < 1e-9);
        assert!(r.wall_secs > 0.0 && r.energy_wh > 0.0);
    }

    #[test]
    fn waves_emerge_from_slots() {
        // 160 maps on 80 slots = 2 waves → wall ≈ 2 × per-map time.
        let job = small_job();
        let r = simulate(&ClusterSpec::xeon(10), &job, ApproxSpec::Precise, 2).unwrap();
        let per_map = job.timing.t_map(50_000.0, 50_000.0);
        assert!(
            r.wall_secs > 1.7 * per_map && r.wall_secs < 3.0 * per_map + job.reduce_tail_secs,
            "wall {} vs per-map {per_map}",
            r.wall_secs
        );
    }

    #[test]
    fn sampling_reduces_runtime_less_than_dropping() {
        let job = small_job();
        let precise = simulate(&ClusterSpec::xeon(10), &job, ApproxSpec::Precise, 3).unwrap();
        let sampled = simulate(
            &ClusterSpec::xeon(10),
            &job,
            ApproxSpec::ratios(0.0, 0.01),
            3,
        )
        .unwrap();
        let dropped = simulate(
            &ClusterSpec::xeon(10),
            &job,
            ApproxSpec::ratios(0.5, 1.0),
            3,
        )
        .unwrap();
        assert!(sampled.wall_secs < precise.wall_secs);
        assert!(dropped.wall_secs < precise.wall_secs);
        // Sampling still pays the read cost; dropping eliminates it.
        // At these ratios, dropping halves the work while 1% sampling
        // only removes the processing component.
        assert!(sampled.effective_sampling_ratio < 0.02);
        assert_eq!(dropped.dropped_maps, 80);
        // Dropping widens the interval compared to sampling (locality).
        assert!(dropped.bound_rel > 0.0);
        assert!(sampled.bound_rel > 0.0);
    }

    #[test]
    fn target_mode_meets_bound_and_saves_time() {
        let job = SimJobSpec::log_processing(740, 100_000);
        let cluster = ClusterSpec::xeon(10);
        let precise = simulate(&cluster, &job, ApproxSpec::Precise, 4).unwrap();
        let target = simulate(&cluster, &job, ApproxSpec::target(0.01, 0.95), 4).unwrap();
        assert!(
            target.bound_rel <= 0.01 + 1e-9,
            "bound {} misses target",
            target.bound_rel
        );
        assert!(
            target.wall_secs < precise.wall_secs,
            "target {} vs precise {}",
            target.wall_secs,
            precise.wall_secs
        );
        assert!(target.actual_error_rel < 0.02);
    }

    #[test]
    fn pilot_reduces_precise_work() {
        let job = SimJobSpec::log_processing(740, 100_000);
        let cluster = ClusterSpec::xeon(10);
        let no_pilot = simulate(&cluster, &job, ApproxSpec::target(0.01, 0.95), 5).unwrap();
        let pilot = simulate(
            &cluster,
            &job,
            ApproxSpec::target(0.01, 0.95).with_pilot(PilotSpec {
                tasks: 8,
                sampling_ratio: 0.01,
            }),
            5,
        )
        .unwrap();
        assert!(pilot.bound_rel <= 0.01 + 1e-9);
        // The pilot avoids a full precise first wave, so it should
        // process fewer records precisely.
        assert!(
            pilot.effective_sampling_ratio <= no_pilot.effective_sampling_ratio + 0.05,
            "pilot {} vs no pilot {}",
            pilot.effective_sampling_ratio,
            no_pilot.effective_sampling_ratio
        );
    }

    #[test]
    fn s3_saves_energy_when_dropping_single_wave() {
        // Single wave (80 maps, 80 slots): dropping half the maps frees
        // whole servers; S3 turns that into energy savings even though
        // runtime barely changes.
        let job = SimJobSpec::log_processing(80, 200_000);
        let base = ClusterSpec::xeon(10);
        let s3 = base.with_s3();
        let approx = ApproxSpec::ratios(0.5, 1.0);
        let without = simulate(&base, &job, approx, 6).unwrap();
        let with = simulate(&s3, &job, approx, 6).unwrap();
        assert!(
            with.energy_wh < without.energy_wh,
            "S3 {} Wh vs no-S3 {} Wh",
            with.energy_wh,
            without.energy_wh
        );
        // Runtime is essentially unchanged by dropping within one wave.
        assert!((with.wall_secs - without.wall_secs).abs() < 1.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let job = small_job();
        assert!(simulate(&ClusterSpec::xeon(0), &job, ApproxSpec::Precise, 0).is_err());
        let mut empty = job;
        empty.num_maps = 0;
        assert!(simulate(&ClusterSpec::xeon(1), &empty, ApproxSpec::Precise, 0).is_err());
        assert!(simulate(&ClusterSpec::xeon(1), &job, ApproxSpec::ratios(1.0, 1.0), 0).is_err());
    }

    /// The reducer runs inline on the tracker's thread, so every spec
    /// replays bit for bit without any waiting.
    #[test]
    fn deterministic_for_fixed_seed() {
        let job = small_job();
        let target = ApproxSpec::target(0.01, 0.95);
        let pilot = target.with_pilot(PilotSpec {
            tasks: 8,
            sampling_ratio: 0.01,
        });
        for spec in [
            ApproxSpec::Precise,
            ApproxSpec::ratios(0.25, 0.1),
            target,
            pilot,
        ] {
            let a = simulate(&ClusterSpec::xeon(4), &job, spec, 42).unwrap();
            let b = simulate(&ClusterSpec::xeon(4), &job, spec, 42).unwrap();
            assert_eq!(a, b, "{spec:?}");
        }
    }

    /// Once the target is met the tracker kills the running maps and the
    /// job ends at kill time: the killed attempts' completions are never
    /// waited out.
    #[test]
    fn killed_maps_end_the_job_at_kill_time() {
        let job = SimJobSpec::log_processing(740, 2_600_000);
        let per_map = job.timing.t_map(2_600_000.0, 2_600_000.0);
        for seed in 0..3 {
            let spec = ApproxSpec::target(0.01, 0.95);
            let r = simulate(&ClusterSpec::xeon(10), &job, spec, seed).unwrap();
            assert!(r.killed_maps > 0, "seed {seed}: {r:?}");
            assert!(
                r.wall_secs < 1.5 * per_map + job.reduce_tail_secs,
                "seed {seed}: wall {} s",
                r.wall_secs
            );
        }
    }

    #[test]
    fn target_confidence_reaches_the_reducer() {
        let job = SimJobSpec::log_processing(740, 100_000);
        let run = |confidence| {
            let spec = ApproxSpec::target(0.02, confidence);
            let r = simulate(&ClusterSpec::xeon(10), &job, spec, 7).unwrap();
            (r.bound_rel, r.executed_maps, r.dropped_maps, r.killed_maps)
        };
        assert_ne!(run(0.80), run(0.95));
    }
}
