//! The JobTracker: one backend-agnostic scheduler state machine.
//!
//! Every control-flow decision of a job — dispatch order and data
//! locality, speculative execution, retry/backoff/blacklisting,
//! degrade-to-drop and its error budget, early termination (reducer-,
//! policy-, or owner-initiated), mid-flight kills, wave accounting, and
//! event/telemetry emission — lives here, in exactly one function each.
//! The tracker is a pure synchronous loop: it never spawns threads and
//! never touches key/value types; executing attempts is delegated to an
//! [`super::executor::Executor`], which only runs [`WorkItem`]s and
//! reports [`WorkerMsg`]s back.
//!
//! This is also where the ROADMAP's target-error controller (Eq. 4–7)
//! plugs in: a [`Coordinator`] observes completed waves via
//! `on_map_complete`, steers per-task sampling through `directive`, and
//! stops the job through `want_drop_remaining` — the tracker itself
//! stays policy-free.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use approxhadoop_obs::FlightRecorder;
use approxhadoop_stats::sampling::random_order;

use crate::control::{Coordinator, JobControl, MapDirective};
use crate::event::{JobEvent, JobSession};
use crate::fault::{FaultPlan, FaultPolicy};
use crate::input::{DatasetId, SplitMeta};
use crate::instrument::{BoundTracker, EngineObs};
use crate::metrics::{DatasetMetrics, JobMetrics, MapStats, TaskOutcome, TaskOutcomeRecord};
use crate::types::TaskId;
use crate::{Result, RuntimeError};

use super::attempt::{read_seed, WorkItem, WorkerMsg};
use super::clock::Clock;
use super::executor::{Executor, RecvOutcome, Topology};
use super::JobConfig;

/// An attempt currently running on some executor slot.
struct RunningAttempt {
    started: Instant,
    kill: Arc<AtomicBool>,
    server: usize,
    /// Trace span id pre-allocated for the attempt (0 = tracing off).
    span: u64,
}

/// A failed task waiting out its backoff before redispatch.
struct RetryEntry {
    due: Instant,
    task: usize,
    attempt: u32,
    sampling_ratio: f64,
    /// The server whose attempt just failed — retries prefer any other.
    avoid_server: Option<usize>,
}

/// The unified scheduler state machine. Construct with [`JobTracker::new`],
/// drive with [`JobTracker::run_loop`], then consume with
/// [`JobTracker::finish`] after the wrapper has joined the reducers.
pub(crate) struct JobTracker<'a> {
    config: &'a JobConfig,
    splits: &'a [SplitMeta],
    control: &'a JobControl,
    session: &'a JobSession,
    clock: &'a dyn Clock,
    topology: Topology,
    /// Whether a free server scans `pending` for a block it hosts: only
    /// with placement, and only if some split names a location at all —
    /// otherwise the scan could never match and would cost O(pending)
    /// per dispatch.
    locality: bool,
    start: Instant,
    total: usize,
    pending: VecDeque<usize>,
    metrics: JobMetrics,
    running: HashMap<(usize, u32), RunningAttempt>,
    busy: Vec<usize>,
    completed: HashSet<usize>,
    duplicated: HashSet<usize>,
    finished: usize,
    dropping: bool,
    fatal: Option<RuntimeError>,
    last_wave: usize,
    last_bound: Option<f64>,
    eobs: Option<EngineObs>,
    bound_tracker: BoundTracker,
    policy: FaultPolicy,
    fault: Option<Arc<FaultPlan>>,
    failures: HashMap<usize, u32>,
    task_ratio: HashMap<usize, f64>,
    retry_queue: Vec<RetryEntry>,
    server_failures: Vec<u32>,
    blacklisted: Vec<bool>,
    /// Bounded ring of recent scheduler decisions, dumped as a JSON
    /// flight-recorder file when the job fails (see
    /// [`JobConfig::flight_dir`]).
    flight: FlightRecorder,
}

impl<'a> JobTracker<'a> {
    #[allow(clippy::too_many_arguments)] // internal constructor: the full job context
    pub(crate) fn new(
        config: &'a JobConfig,
        splits: &'a [SplitMeta],
        control: &'a JobControl,
        session: &'a JobSession,
        clock: &'a dyn Clock,
        topology: Topology,
        start: Instant,
        obs_pid: u64,
        obs_label: &str,
    ) -> Self {
        let total = splits.len();
        let servers = topology.servers();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pending: VecDeque<usize> = random_order(&mut rng, total).into_iter().collect();
        // Per-dataset cluster populations `N_d`: one entry per dataset id
        // appearing in the split table (single-input jobs get exactly one
        // entry, dataset 0). Tracked so multi-input estimators can widen
        // the right dataset's interval for drops.
        let mut datasets: Vec<DatasetMetrics> = Vec::new();
        for s in splits {
            let d = s.dataset.0 as usize;
            while datasets.len() <= d {
                datasets.push(DatasetMetrics {
                    dataset: DatasetId(datasets.len() as u32),
                    total_maps: 0,
                    executed_maps: 0,
                    dropped_maps: 0,
                });
            }
            datasets[d].total_maps += 1;
        }
        let eobs = config
            .obs
            .as_ref()
            .map(|o| EngineObs::new(Arc::clone(o), obs_pid, obs_label));
        let fault = config
            .fault_plan
            .as_ref()
            .filter(|p| p.injects_map_faults())
            .cloned()
            .map(Arc::new);
        let locality = topology.placement && splits.iter().any(|s| !s.locations.is_empty());
        JobTracker {
            config,
            splits,
            locality,
            control,
            session,
            clock,
            start,
            total,
            pending,
            metrics: JobMetrics {
                total_maps: total,
                datasets,
                ..Default::default()
            },
            running: HashMap::new(),
            busy: vec![0; servers],
            completed: HashSet::new(),
            duplicated: HashSet::new(),
            finished: 0,
            dropping: false,
            fatal: None,
            last_wave: 0,
            last_bound: None,
            eobs,
            bound_tracker: BoundTracker::new(start, config.reduce_tasks),
            policy: config.fault_policy.clone(),
            fault,
            failures: HashMap::new(),
            task_ratio: HashMap::new(),
            retry_queue: Vec::new(),
            server_failures: vec![0; servers],
            blacklisted: vec![false; servers],
            flight: FlightRecorder::default(),
            topology,
        }
    }

    /// Drives the job to completion (or to a latched fatal error). On
    /// return every task has reached a terminal state and any leftover
    /// speculative siblings carry a raised kill flag.
    pub(crate) fn run_loop(&mut self, exec: &mut dyn Executor, coordinator: &mut dyn Coordinator) {
        while self.finished < self.total {
            self.check_owner_termination();
            self.check_early_termination(coordinator);
            self.apply_dropping(exec);
            self.redispatch_retries(exec);
            self.dispatch_pending(exec, coordinator);
            if self.finished >= self.total {
                break;
            }
            self.speculate(exec);
            if !self.pump_messages(exec, coordinator) {
                break;
            }
            self.publish_progress();
        }
        self.final_wave_flush();
        self.kill_running();
    }

    /// Finalises the job after the wrapper joined the reducers: stamps
    /// wall time, flushes telemetry, surfaces latched errors and reducer
    /// panics, and enforces the degrade budget.
    pub(crate) fn finish(mut self, reducer_panicked: bool) -> Result<JobMetrics> {
        self.metrics.wall_secs = self.start.elapsed().as_secs_f64();
        if self.fatal.is_none() {
            self.bound_tracker.poll(
                self.control,
                &mut self.metrics.bound_series,
                self.eobs.as_ref(),
            );
        }
        if let Some(e) = self.eobs.as_mut() {
            e.finish(&self.metrics);
        }
        if let Some(e) = self.fatal.take() {
            self.flight.record("fatal", e.to_string());
            self.dump_flight("job-failed");
            return Err(e);
        }
        if reducer_panicked {
            self.flight.record("fatal", "reduce task panicked");
            self.dump_flight("reducer-panicked");
            return Err(RuntimeError::TaskPanicked {
                what: "reduce task".into(),
            });
        }
        if let Err(e) = check_degrade_budget(&self.policy, &self.metrics, self.control) {
            self.flight.record("fatal", e.to_string());
            self.dump_flight("degrade-budget-exceeded");
            return Err(e);
        }
        if let Some(bound) = self.control.worst_bound_across_reducers(1) {
            if self.last_bound != Some(bound) {
                self.session.emit(JobEvent::Estimate {
                    job: self.session.job,
                    worst_relative_bound: bound,
                });
            }
        }
        Ok(self.metrics)
    }

    /// Owner-driven termination: cancellation aborts the job, a passed
    /// deadline degrades it to an approximate result.
    fn check_owner_termination(&mut self) {
        if self.session.cancelled() && self.fatal.is_none() {
            self.fatal = Some(RuntimeError::Cancelled);
            self.dropping = true;
        }
        if let Some(deadline) = self.session.deadline {
            if !self.dropping && self.clock.now() >= deadline {
                self.metrics.deadline_hit = true;
                self.dropping = true;
            }
        }
    }

    /// Reduce-initiated or policy-initiated early termination (the
    /// paper's "target achieved, kill the rest" path).
    fn check_early_termination(&mut self, coordinator: &mut dyn Coordinator) {
        if !self.dropping
            && (self.control.drop_requested() || coordinator.want_drop_remaining(self.control))
        {
            self.dropping = true;
        }
    }

    /// While dropping: drains queued retries and pending tasks as
    /// dropped clusters and raises the kill flag on everything running.
    fn apply_dropping(&mut self, exec: &mut dyn Executor) {
        if !self.dropping {
            return;
        }
        let retries: Vec<usize> = self.retry_queue.drain(..).map(|e| e.task).collect();
        for task in retries {
            self.drop_task(exec, task);
        }
        while let Some(t) = self.pending.pop_front() {
            self.drop_task(exec, t);
        }
        for ra in self.running.values() {
            ra.kill.store(true, Ordering::SeqCst);
        }
    }

    /// Accounts one task as a dropped cluster and notifies the reducers
    /// (unless a fatal error made the estimate moot).
    fn drop_task(&mut self, exec: &mut dyn Executor, task: usize) {
        self.finished += 1;
        self.metrics.dropped_maps += 1;
        self.dataset_dropped(task);
        self.flight.record("dropped", format!("task {task}"));
        self.record_outcome(TaskId(task), TaskOutcome::Dropped);
        if self.fatal.is_none() {
            exec.notify_drop(task);
        }
    }

    /// Redispatches failed tasks whose retry backoff elapsed, preferring
    /// a server other than the one that just failed and skipping
    /// blacklisted servers (unless every server is blacklisted).
    fn redispatch_retries(&mut self, exec: &mut dyn Executor) {
        while !self.dropping {
            let now = self.clock.now();
            let Some(pos) = self.retry_queue.iter().position(|e| e.due <= now) else {
                break;
            };
            let Some(server) = self.pick_retry_server(self.retry_queue[pos].avoid_server) else {
                break;
            };
            let entry = self.retry_queue.swap_remove(pos);
            self.launch(
                exec,
                entry.task,
                entry.attempt,
                entry.sampling_ratio,
                server,
            );
        }
    }

    fn pick_retry_server(&self, avoid: Option<usize>) -> Option<usize> {
        let all_black = self.blacklisted.iter().all(|&b| b);
        let usable = |sv: usize| {
            self.busy[sv] < self.topology.capacity[sv] && (all_black || !self.blacklisted[sv])
        };
        let servers = self.topology.servers();
        (0..servers)
            .find(|&sv| usable(sv) && Some(sv) != avoid)
            .or_else(|| (0..servers).find(|&sv| usable(sv)))
    }

    /// Dispatches pending tasks while slots are free. Directives are
    /// requested lazily so the policy can adapt between waves; with a
    /// placement-aware topology each free server prefers a task whose
    /// input block it hosts (HDFS data locality).
    fn dispatch_pending(&mut self, exec: &mut dyn Executor, coordinator: &mut dyn Coordinator) {
        while !self.dropping && !self.pending.is_empty() {
            let Some(server) = self.pick_server() else {
                break;
            };
            let (t, local) = self.pick_task(server);
            match coordinator.directive(TaskId(t), &self.splits[t], self.control) {
                MapDirective::Drop => {
                    self.finished += 1;
                    self.metrics.dropped_maps += 1;
                    self.dataset_dropped(t);
                    if let Some(e) = self.eobs.as_ref() {
                        e.directive(false, 0.0);
                    }
                    self.record_outcome(TaskId(t), TaskOutcome::Dropped);
                    exec.notify_drop(t);
                }
                MapDirective::Run { sampling_ratio } => {
                    if let Some(e) = self.eobs.as_ref() {
                        e.directive(true, sampling_ratio);
                    }
                    if local {
                        self.metrics.local_maps += 1;
                    }
                    self.task_ratio.insert(t, sampling_ratio);
                    self.launch(exec, t, 0, sampling_ratio, server);
                }
            }
        }
    }

    fn pick_server(&self) -> Option<usize> {
        let all_black = self.blacklisted.iter().all(|&b| b);
        (0..self.topology.servers()).find(|&sv| {
            self.busy[sv] < self.topology.capacity[sv] && (all_black || !self.blacklisted[sv])
        })
    }

    /// Picks the next pending task for `server`: with locality, the first
    /// pending block hosted on that server, else the queue's front; also
    /// reports whether the choice was local.
    fn pick_task(&mut self, server: usize) -> (usize, bool) {
        let local_pos = if self.locality {
            self.pending
                .iter()
                .position(|&t| self.splits[t].locations.contains(&server))
        } else {
            None
        };
        let t = self
            .pending
            .remove(local_pos.unwrap_or(0))
            .expect("checked non-empty");
        (t, local_pos.is_some())
    }

    /// Dispatches one attempt: registers it as running and hands the
    /// [`WorkItem`] to the executor. A rejected dispatch (the slot pool
    /// shut down mid-job) rolls the attempt back, accounts the task as
    /// killed and latches a fatal error.
    fn launch(
        &mut self,
        exec: &mut dyn Executor,
        task: usize,
        attempt: u32,
        sampling_ratio: f64,
        server: usize,
    ) {
        let kill = Arc::new(AtomicBool::new(false));
        self.busy[server] += 1;
        let span = self
            .eobs
            .as_ref()
            .map(|e| e.obs().tracer.new_span_id().0)
            .unwrap_or(0);
        self.running.insert(
            (task, attempt),
            RunningAttempt {
                started: self.clock.now(),
                kill: Arc::clone(&kill),
                server,
                span,
            },
        );
        self.flight.record(
            "launch",
            format!("task {task} attempt {attempt} server {server} ratio {sampling_ratio:.3}"),
        );
        let work = WorkItem {
            task: TaskId(task),
            dataset: self.splits[task].dataset,
            attempt,
            sampling_ratio,
            seed: read_seed(self.config.seed, task),
            kill,
            fault: self.fault.clone(),
            combining: self.config.combining,
            span,
        };
        if !exec.dispatch(server, work) {
            self.running.remove(&(task, attempt));
            self.busy[server] = self.busy[server].saturating_sub(1);
            self.finished += 1;
            self.metrics.killed_maps += 1;
            self.dataset_dropped(task);
            self.record_outcome(TaskId(task), TaskOutcome::Killed);
            if self.fatal.is_none() {
                self.fatal = Some(RuntimeError::invalid(
                    "slot pool rejected task (pool shut down or tenant unregistered)",
                ));
            }
            self.dropping = true;
        }
    }

    /// Speculative execution: once the queue is empty and a baseline of
    /// completed maps exists, duplicate any first attempt running longer
    /// than `straggler_factor ×` the mean map time, on the least-loaded
    /// non-blacklisted server. Placement-free topologies (the shared
    /// slot pool) never speculate — the pool is one shared cluster, not
    /// per-job virtual servers.
    fn speculate(&mut self, exec: &mut dyn Executor) {
        if !self.config.speculative
            || !self.topology.placement
            || self.dropping
            || !self.pending.is_empty()
            || self.metrics.map_stats.len() < 3
        {
            return;
        }
        let mean = self.metrics.mean_map_secs();
        let threshold = (self.config.straggler_factor * mean).max(0.05);
        let now = self.clock.now();
        let stragglers: Vec<usize> = self
            .running
            .iter()
            .filter(|((t, a), ra)| {
                *a == 0
                    && !self.duplicated.contains(t)
                    && now.saturating_duration_since(ra.started).as_secs_f64() > threshold
            })
            .map(|((t, _), _)| *t)
            .collect();
        for t in stragglers {
            self.duplicated.insert(t);
            self.metrics.speculative_attempts += 1;
            let servers = self.topology.servers();
            let server = (0..servers)
                .filter(|&sv| !self.blacklisted[sv])
                .min_by_key(|&sv| self.busy[sv])
                .or_else(|| (0..servers).min_by_key(|&sv| self.busy[sv]))
                .unwrap_or(0);
            self.launch(exec, t, 1, 1.0, server);
        }
    }

    /// Waits briefly for worker events and applies everything queued.
    /// Returns `false` when the executor's message channel closed — all
    /// workers died without reporting — which latches a fatal error.
    fn pump_messages(
        &mut self,
        exec: &mut dyn Executor,
        coordinator: &mut dyn Coordinator,
    ) -> bool {
        match exec.recv(Duration::from_millis(10)) {
            RecvOutcome::Msg(msg) => {
                self.handle_msg(exec, coordinator, msg);
                while let Some(extra) = exec.try_recv() {
                    self.handle_msg(exec, coordinator, extra);
                }
                true
            }
            RecvOutcome::Timeout => true,
            RecvOutcome::Closed => {
                if self.fatal.is_none() {
                    self.fatal = Some(RuntimeError::TaskPanicked {
                        what: "all task trackers exited early".into(),
                    });
                }
                false
            }
        }
    }

    fn handle_msg(
        &mut self,
        exec: &mut dyn Executor,
        coordinator: &mut dyn Coordinator,
        msg: WorkerMsg,
    ) {
        match msg {
            WorkerMsg::Completed {
                stats,
                attempt,
                spans,
            } => self.on_attempt_completed(coordinator, stats, attempt, spans),
            WorkerMsg::Killed { task, attempt } => self.on_attempt_killed(exec, task, attempt),
            WorkerMsg::Failed {
                task,
                attempt,
                error,
            } => self.on_attempt_failed(exec, task, attempt, error),
        }
    }

    /// First completion of a task wins: account it, feed the
    /// coordinator, and kill the losing sibling attempt (if any). Later
    /// sibling completions only release their slot.
    fn on_attempt_completed(
        &mut self,
        coordinator: &mut dyn Coordinator,
        stats: MapStats,
        attempt: u32,
        spans: Vec<crate::engine::RemoteSpan>,
    ) {
        let span = self
            .running
            .get(&(stats.task.0, attempt))
            .map(|ra| ra.span)
            .unwrap_or(0);
        self.release_slot(stats.task.0, attempt);
        if self.completed.insert(stats.task.0) {
            self.finished += 1;
            self.metrics.executed_maps += 1;
            if let Some(d) = self.dataset_entry(stats.task.0) {
                d.executed_maps += 1;
            }
            self.metrics.total_records += stats.total_records;
            self.metrics.sampled_records += stats.sampled_records;
            self.metrics.emitted_pairs += stats.emitted;
            self.metrics.shuffled_pairs += stats.shuffled;
            coordinator.on_map_complete(&stats, self.control);
            self.metrics.task_outcomes.push(TaskOutcomeRecord {
                task: stats.task,
                outcome: TaskOutcome::Completed,
            });
            self.flight.record(
                "completed",
                format!(
                    "task {} attempt {attempt} records {}/{}",
                    stats.task.0, stats.sampled_records, stats.total_records
                ),
            );
            if let Some(e) = self.eobs.as_mut() {
                e.task_completed(&stats, span, &spans);
                e.task_outcome(TaskOutcome::Completed);
            }
            let task = stats.task.0;
            self.metrics.map_stats.push(stats);
            for ((t, _a), ra) in self.running.iter() {
                if *t == task {
                    ra.kill.store(true, Ordering::SeqCst);
                }
            }
        }
    }

    /// A killed attempt finishes the task as a dropped cluster — unless
    /// the task already completed or a sibling attempt is still running.
    fn on_attempt_killed(&mut self, exec: &mut dyn Executor, task: TaskId, attempt: u32) {
        self.release_slot(task.0, attempt);
        self.flight
            .record("killed", format!("task {} attempt {attempt}", task.0));
        let sibling_running = self.running.keys().any(|(t, _)| *t == task.0);
        if !self.completed.contains(&task.0) && !sibling_running {
            self.finished += 1;
            self.metrics.killed_maps += 1;
            self.dataset_dropped(task.0);
            self.record_outcome(task, TaskOutcome::Killed);
            if self.fatal.is_none() {
                exec.notify_drop(task.0);
            }
        }
    }

    /// A failed attempt either queues a retry (within the policy's
    /// budget), degrades the task to a dropped cluster, or fails the
    /// whole job fast.
    fn on_attempt_failed(
        &mut self,
        exec: &mut dyn Executor,
        task: TaskId,
        attempt: u32,
        error: RuntimeError,
    ) {
        let mut failed_server = None;
        if let Some(ra) = self.running.remove(&(task.0, attempt)) {
            self.busy[ra.server] = self.busy[ra.server].saturating_sub(1);
            if self.topology.placement {
                failed_server = Some(ra.server);
                self.server_failures[ra.server] += 1;
                if self.policy.blacklist_after > 0
                    && !self.blacklisted[ra.server]
                    && self.server_failures[ra.server] >= self.policy.blacklist_after
                {
                    self.blacklisted[ra.server] = true;
                    self.flight
                        .record("blacklist", format!("server {}", ra.server));
                    if let Some(e) = self.eobs.as_ref() {
                        e.server_blacklisted();
                    }
                }
            }
        }
        self.flight.record(
            "failed",
            format!("task {} attempt {attempt}: {error}", task.0),
        );
        if matches!(error, RuntimeError::WorkerLost { .. }) {
            self.dump_flight("worker-crash");
        }
        self.metrics.failed_maps += 1;
        if let Some(e) = self.eobs.as_ref() {
            e.task_failed();
        }
        let sibling_running = self.running.keys().any(|(t, _)| *t == task.0);
        if self.completed.contains(&task.0) || sibling_running {
            return;
        }
        let fails = self.failures.entry(task.0).or_insert(0);
        *fails += 1;
        let fails = *fails;
        if !self.dropping && fails <= self.policy.max_task_retries {
            self.metrics.retried_maps += 1;
            self.flight.record(
                "retry",
                format!("task {} attempt {} queued", task.0, attempt + 1),
            );
            if let Some(e) = self.eobs.as_ref() {
                e.task_retry();
            }
            self.session.emit(JobEvent::TaskRetry {
                job: self.session.job,
                task,
                attempt: attempt + 1,
                reason: error.to_string(),
            });
            self.retry_queue.push(RetryEntry {
                due: self.clock.now() + self.policy.backoff_for(fails),
                task: task.0,
                attempt: attempt + 1,
                sampling_ratio: self.task_ratio.get(&task.0).copied().unwrap_or(1.0),
                avoid_server: failed_server,
            });
        } else if self.policy.degrade_to_drop {
            self.finished += 1;
            self.metrics.degraded_to_drop += 1;
            self.dataset_dropped(task.0);
            self.flight
                .record("degraded", format!("task {} dropped after retries", task.0));
            self.record_outcome(task, TaskOutcome::Failed);
            if let Some(e) = self.eobs.as_ref() {
                e.task_degraded();
            }
            exec.notify_drop(task.0);
        } else {
            self.finished += 1;
            self.record_outcome(task, TaskOutcome::Failed);
            if self.fatal.is_none() {
                self.fatal = Some(error);
            }
            self.dropping = true;
        }
    }

    /// Writes the flight-recorder ring as `flight-<job>-<reason>.json`
    /// into [`JobConfig::flight_dir`] (or `$APPROX_FLIGHT_DIR` when the
    /// config carries none). A best-effort post-mortem aid: with neither
    /// destination configured, or on I/O errors, it silently does
    /// nothing — a failing job must not fail harder because its crash
    /// dump could not be written.
    fn dump_flight(&self, reason: &str) {
        let Some(dir) = self
            .config
            .flight_dir
            .clone()
            .or_else(|| std::env::var_os("APPROX_FLIGHT_DIR").map(std::path::PathBuf::from))
        else {
            return;
        };
        let path = dir.join(format!("flight-{}-{reason}.json", self.session.job));
        let json = self.flight.dump_json(&self.session.job.to_string(), reason);
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(path, json);
    }

    fn release_slot(&mut self, task: usize, attempt: u32) {
        if let Some(ra) = self.running.remove(&(task, attempt)) {
            self.busy[ra.server] = self.busy[ra.server].saturating_sub(1);
        }
    }

    /// The per-dataset population entry for `task`'s dataset.
    fn dataset_entry(&mut self, task: usize) -> Option<&mut DatasetMetrics> {
        let d = self.splits.get(task)?.dataset.0 as usize;
        self.metrics.datasets.get_mut(d)
    }

    /// Accounts `task` as a non-completing cluster (dropped, killed or
    /// degraded) of its dataset.
    fn dataset_dropped(&mut self, task: usize) {
        if let Some(d) = self.dataset_entry(task) {
            d.dropped_maps += 1;
        }
    }

    fn record_outcome(&mut self, task: TaskId, outcome: TaskOutcome) {
        self.metrics
            .task_outcomes
            .push(TaskOutcomeRecord { task, outcome });
        if let Some(e) = self.eobs.as_ref() {
            e.task_outcome(outcome);
        }
    }

    /// Streams progress to the submitter and records telemetry: a Wave
    /// event when the finished count moved, an Estimate event when the
    /// worst bound changed, and a bound-series sample. Once a fatal
    /// error is latched the bound is meaningless (the estimate will be
    /// discarded), so publishing stops.
    fn publish_progress(&mut self) {
        let worst_bound = if self.fatal.is_none() {
            self.control.worst_bound_across_reducers(1)
        } else {
            None
        };
        if self.finished != self.last_wave {
            self.last_wave = self.finished;
            self.flight.record(
                "wave",
                format!(
                    "{}/{} finished, worst bound {:?}",
                    self.finished, self.total, worst_bound
                ),
            );
            self.session.emit(JobEvent::Wave {
                job: self.session.job,
                finished: self.finished,
                total: self.total,
                worst_bound,
            });
            if let Some(e) = self.eobs.as_mut() {
                e.wave_tick(self.finished, self.total, worst_bound);
            }
        }
        if let Some(bound) = worst_bound {
            if self.last_bound != Some(bound) {
                self.last_bound = Some(bound);
                self.session.emit(JobEvent::Estimate {
                    job: self.session.job,
                    worst_relative_bound: bound,
                });
            }
        }
        if self.fatal.is_none() {
            self.bound_tracker.poll(
                self.control,
                &mut self.metrics.bound_series,
                self.eobs.as_ref(),
            );
        }
    }

    /// Emits the final wave if the loop ended between progress ticks —
    /// e.g. the last batch of completions broke the loop before
    /// `publish_progress` ran. Historically only the pool path flushed
    /// this; the unified tracker does it for every backend.
    fn final_wave_flush(&mut self) {
        if self.finished == self.last_wave {
            return;
        }
        let worst_bound = if self.fatal.is_none() {
            self.control.worst_bound_across_reducers(1)
        } else {
            None
        };
        self.session.emit(JobEvent::Wave {
            job: self.session.job,
            finished: self.finished,
            total: self.total,
            worst_bound,
        });
        if let Some(e) = self.eobs.as_mut() {
            e.wave_tick(self.finished, self.total, worst_bound);
        }
        self.last_wave = self.finished;
    }

    /// Raises the kill flag on any attempt still running at loop exit
    /// (a losing speculative sibling may outlive the job).
    fn kill_running(&mut self) {
        for ra in self.running.values() {
            ra.kill.store(true, Ordering::SeqCst);
        }
    }
}

/// Enforces a degraded job's error budget: when tasks were degraded to
/// drops and the policy carries a `max_degraded_bound`, the final worst
/// relative bound across reducers must not exceed it. An unbounded
/// (∞/NaN) result also fails the check.
fn check_degrade_budget(
    policy: &FaultPolicy,
    metrics: &JobMetrics,
    control: &JobControl,
) -> Result<()> {
    let Some(limit) = policy.max_degraded_bound else {
        return Ok(());
    };
    if metrics.degraded_to_drop == 0 {
        return Ok(());
    }
    let Some(worst_bound) = control.worst_bound_across_reducers(1) else {
        return Ok(());
    };
    if worst_bound.is_nan() || worst_bound > limit {
        return Err(RuntimeError::DegradeBudgetExceeded {
            worst_bound,
            limit,
            degraded_maps: metrics.degraded_to_drop,
        });
    }
    Ok(())
}

#[cfg(test)]
#[path = "scheduler_tests.rs"]
mod tests;
