//! The multi-tenant job service.
//!
//! One [`JobService`] owns a shared [`SlotPool`] and accepts concurrent
//! job submissions from many threads. Each submission is admitted
//! through the [`AdmissionController`] (which may degrade the job's
//! ratios within its declared [`ApproxBudget`]), registered as a pool
//! tenant for weighted fair sharing, and driven by a lightweight
//! tracker thread; the heavy map work runs on the shared slots. The
//! caller gets a [`JobHandle`] carrying the admission decision, a
//! stream of [`JobEvent`]s, a cancellation handle, and the result.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};

use approxhadoop_core::multistage::BoundMonitor;
use approxhadoop_core::spec::{ApproxSpec, ErrorTarget, PilotSpec};
use approxhadoop_core::target::policy;
use approxhadoop_ipc::Wire;
use approxhadoop_obs::Obs;
use approxhadoop_runtime::engine::{
    run_job_on_pool, run_job_process, JobConfig, JobResult, WorkerSpec,
};
use approxhadoop_runtime::event::{CancelHandle, JobEvent, JobId, JobSession};
use approxhadoop_runtime::input::InputSource;
use approxhadoop_runtime::mapper::Mapper;
use approxhadoop_runtime::metrics::JobMetrics;
use approxhadoop_runtime::pool::{SlotPool, TenantId};
use approxhadoop_runtime::reducer::Reducer;
use approxhadoop_runtime::{DatasetRatios, FaultPlan, FaultPolicy, FixedCoordinator, RuntimeError};

use crate::admission::{AdmissionConfig, AdmissionController, ApproxBudget, DegradeDecision};

/// The worst *final* relative error bound across the job's reducers, if
/// any reported a finite one — the accuracy signal fed back into the
/// admission controller's error loop after every completion.
fn worst_final_bound(metrics: &JobMetrics) -> Option<f64> {
    let mut last: HashMap<usize, f64> = HashMap::new();
    for p in &metrics.bound_series {
        last.insert(p.reducer, p.relative_bound);
    }
    last.values()
        .copied()
        .filter(|b| b.is_finite())
        .fold(None, |acc: Option<f64>, b| {
            Some(acc.map_or(b, |a| a.max(b)))
        })
}

/// What a submitter asks for: identity, fair-share weight, shape, and
/// the approximation budget the service may spend under load.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name (shows up in the load generator report).
    pub name: String,
    /// Fair-share weight across tenants (higher = more slots under
    /// contention). Must be positive.
    pub weight: f64,
    /// The job's own cap on map attempts in flight (its "slots" within
    /// the shared pool).
    pub map_slots: usize,
    /// Reduce tasks.
    pub reduce_tasks: usize,
    /// Seed for task ordering, drop selection and per-task sampling.
    pub seed: u64,
    /// The caller's error budget; admission interpolates inside it.
    pub budget: ApproxBudget,
    /// Optional deadline: on expiry remaining maps are dropped and the
    /// job completes approximately (never killed).
    pub deadline: Option<Duration>,
    /// Retries per failed map task before it is degraded to a dropped
    /// cluster (`0` = fail fast on the first task failure).
    pub max_task_retries: u32,
    /// Optional deterministic fault injection for this job's map path
    /// (testing/chaos).
    pub fault_plan: Option<FaultPlan>,
    /// With retries enabled, fail the job anyway if the final worst
    /// relative error bound of a degraded run exceeds this limit.
    pub max_degraded_bound: Option<f64>,
    /// Worker processes the job runs on when submitted through
    /// [`JobService::submit_process`]; ignored on the shared-pool path.
    pub workers: usize,
    /// Per-worker in-memory shuffle budget in bytes before map output
    /// spills to sorted on-disk runs (process backend only).
    pub shuffle_mem_bytes: usize,
    /// Per-dataset approximation ratios for **multi-input** (tagged)
    /// jobs, indexed by `DatasetId`. Empty (the default) means a
    /// single-input job whose ratios the admission controller decides
    /// within `budget`. Non-empty ratios are explicit and used as-is:
    /// the scheduler samples/drops each dataset independently and
    /// admission does not degrade them (a join's build side must stay
    /// precise, which a global degrade factor cannot know).
    pub datasets: Vec<DatasetRatios>,
}

impl Default for JobSpec {
    fn default() -> Self {
        let engine = JobConfig::default();
        JobSpec {
            name: "job".to_string(),
            weight: 1.0,
            map_slots: 4,
            reduce_tasks: 1,
            seed: 0,
            budget: ApproxBudget::precise(),
            deadline: None,
            max_task_retries: 0,
            fault_plan: None,
            max_degraded_bound: None,
            workers: engine.workers,
            shuffle_mem_bytes: engine.shuffle_mem_bytes,
            datasets: Vec::new(),
        }
    }
}

/// What a target-error submitter asks for: an accuracy goal instead of
/// mechanism ratios ("±1% relative at 95%"), per EARL and the paper's
/// Section 4.4. The service picks the mechanism — the target-error
/// policy runs a first (or pilot) wave on the shared pool, plans the
/// cheapest continuation (Eq. 4–7), and drops the remaining maps the
/// moment the reducers' reports confirm the bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorGoal {
    /// The error bound the job must reach before stopping early.
    pub target: ErrorTarget,
    /// Confidence level for the bound (e.g. `0.95`).
    pub confidence: f64,
    /// Optional pilot wave replacing the precise first wave.
    pub pilot: Option<PilotSpec>,
    /// How far admission may *relax* the goal under load, as a fraction
    /// of the target: at degrade factor `d` the effective target becomes
    /// `target × (1 + d × max_relaxation)`. `0` (the default) keeps the
    /// goal firm regardless of load — the goal-job analogue of
    /// [`ApproxBudget::precise`].
    pub max_relaxation: f64,
}

impl ErrorGoal {
    /// A firm relative goal at 95% confidence: "±`relative_error` at
    /// 95%" (e.g. `0.01` for ±1%).
    pub fn relative(relative_error: f64) -> Self {
        ErrorGoal {
            target: ErrorTarget::Relative(relative_error),
            confidence: 0.95,
            pilot: None,
            max_relaxation: 0.0,
        }
    }

    /// Validates ranges: `max_relaxation` here, the target, confidence
    /// and pilot through [`ApproxSpec::validate`] of the spec this goal
    /// describes.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.max_relaxation >= 0.0 && self.max_relaxation.is_finite()) {
            return Err(format!(
                "max_relaxation must be non-negative and finite, got {}",
                self.max_relaxation
            ));
        }
        self.spec(0.0).validate().map_err(|e| e.to_string())
    }

    /// The target-error spec this goal describes once admission spends
    /// `degrade` of the relaxation allowance.
    fn spec(&self, degrade: f64) -> ApproxSpec {
        let f = 1.0 + degrade.clamp(0.0, 1.0) * self.max_relaxation;
        let target = match self.target {
            ErrorTarget::Relative(x) => ErrorTarget::Relative(x * f),
            ErrorTarget::Absolute(x) => ErrorTarget::Absolute(x * f),
        };
        ApproxSpec::Target {
            target,
            confidence: self.confidence,
            pilot: self.pilot,
        }
    }
}

/// A submitted job: admission decision, event stream, cancellation, and
/// the (eventual) result.
#[derive(Debug)]
pub struct JobHandle<O> {
    /// The job's service-wide identity.
    pub id: JobId,
    /// The name from the spec.
    pub name: String,
    /// Degrade factor the controller applied at admission.
    pub degrade: f64,
    /// Effective drop ratio the job was admitted at.
    pub drop_ratio: f64,
    /// Effective sampling ratio the job was admitted at.
    pub sampling_ratio: f64,
    events: Receiver<JobEvent>,
    cancel: CancelHandle,
    result: Receiver<Result<JobResult<O>, RuntimeError>>,
}

impl<O> JobHandle<O> {
    /// The stream of lifecycle events
    /// (`Queued → Wave*/Estimate* → Done | Failed`).
    pub fn events(&self) -> &Receiver<JobEvent> {
        &self.events
    }

    /// Requests cancellation; the job fails with
    /// [`RuntimeError::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clonable cancellation handle.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(self) -> Result<JobResult<O>, RuntimeError> {
        self.result.recv().unwrap_or_else(|_| {
            Err(RuntimeError::TaskPanicked {
                what: "job tracker thread".into(),
            })
        })
    }

    /// Non-blocking poll: `Some(result)` once the job finished.
    pub fn try_wait(&self) -> Option<Result<JobResult<O>, RuntimeError>> {
        self.result.try_recv().ok()
    }
}

/// The multi-tenant job service (see the module docs).
#[derive(Debug)]
pub struct JobService {
    pool: Arc<SlotPool>,
    controller: Arc<AdmissionController>,
    next_job: AtomicU64,
    obs: Arc<Obs>,
}

impl JobService {
    /// Creates a service with `slots` shared map slots and the given
    /// admission configuration. The service always carries an
    /// observability context (see [`JobService::with_obs`] to share
    /// one across services or pre-register metrics).
    pub fn new(slots: usize, admission: AdmissionConfig) -> Self {
        Self::with_obs(slots, admission, Obs::shared())
    }

    /// Creates a service publishing metrics and trace events into a
    /// caller-supplied [`Obs`] context: the pool reports queue/slot
    /// gauges and per-tenant waits, the admission controller reports
    /// its feedback-loop state and per-decision events, and every job
    /// records a `job → wave → task` span tree on its own trace lane.
    pub fn with_obs(slots: usize, admission: AdmissionConfig, obs: Arc<Obs>) -> Self {
        JobService {
            pool: SlotPool::new_with_obs(slots, Some(Arc::clone(&obs))),
            controller: Arc::new(AdmissionController::with_obs(
                admission,
                Some(Arc::clone(&obs)),
            )),
            next_job: AtomicU64::new(0),
            obs,
        }
    }

    /// The service-wide observability context: metrics registry
    /// (Prometheus text / JSON snapshot) and trace ring (Chrome trace).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The shared slot pool (for instrumentation).
    pub fn pool(&self) -> &Arc<SlotPool> {
        &self.pool
    }

    /// The admission controller (for instrumentation).
    pub fn controller(&self) -> &Arc<AdmissionController> {
        &self.controller
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.next_job.load(Ordering::SeqCst)
    }

    /// Submits a job. Validates the spec, takes an admission decision
    /// (possibly degrading within `spec.budget`), and starts a tracker
    /// thread driving the job over the shared pool. Returns immediately
    /// with the job's handle.
    pub fn submit<S, M, R, FR>(
        &self,
        spec: JobSpec,
        input: Arc<S>,
        mapper: Arc<M>,
        make_reducer: FR,
    ) -> Result<JobHandle<R::Output>, RuntimeError>
    where
        S: InputSource + 'static,
        M: Mapper<Item = S::Item> + 'static,
        R: Reducer<Key = M::Key, Value = M::Value> + Send + 'static,
        R::Output: Send + 'static,
        FR: Fn(usize) -> R + Send + 'static,
    {
        spec.budget.validate().map_err(RuntimeError::invalid)?;
        let config = self.engine_config(&spec)?;
        let (id, decision) = self.admit(&spec.budget);
        let weight = spec.weight;
        self.launch(spec, id, decision, config, move |config, pool, session| {
            as_tenant(pool, weight, |tenant| {
                let mut coordinator = FixedCoordinator::for_job(&input.splits(), &config)?;
                run_job_on_pool(
                    input,
                    mapper,
                    make_reducer,
                    config,
                    &mut coordinator,
                    pool,
                    tenant,
                    session,
                )
            })
        })
    }

    /// Submits a **target-error job**: the caller states a goal
    /// ([`ErrorGoal`], e.g. "±1% relative at 95%") instead of
    /// drop/sampling ratios, and the service runs it on the shared pool
    /// under the policy [`policy`] builds from the goal's spec — a
    /// precise (or pilot) first wave, a timing-model fit, the Eq. 4–7
    /// plan, and an early stop that drops every remaining map once the
    /// reducers' reports confirm the bound.
    ///
    /// `make_reducer` receives the policy's [`BoundMonitor`] to attach
    /// (e.g. `MultiStageReducer::with_monitor`) — without reducer
    /// reports the coordinator never confirms the bound and the job
    /// degenerates to a precise run.
    ///
    /// Admission still applies: the decision is recorded, and under
    /// load the controller may *relax* the goal within
    /// [`ErrorGoal::max_relaxation`] (the goal-job analogue of
    /// degrading within an [`ApproxBudget`]); the coordinator and the
    /// monitor both work to the relaxed goal. `spec.budget` is ignored
    /// — the coordinator owns the ratios.
    pub fn submit_with_goal<S, M, R, FR>(
        &self,
        spec: JobSpec,
        goal: ErrorGoal,
        input: Arc<S>,
        mapper: Arc<M>,
        make_reducer: FR,
    ) -> Result<JobHandle<R::Output>, RuntimeError>
    where
        S: InputSource + 'static,
        M: Mapper<Item = S::Item> + 'static,
        R: Reducer<Key = M::Key, Value = M::Value> + Send + 'static,
        R::Output: Send + 'static,
        FR: Fn(usize, BoundMonitor) -> R + Send + 'static,
    {
        goal.validate().map_err(RuntimeError::invalid)?;
        if !spec.datasets.is_empty() {
            // The target-error coordinator plans over one homogeneous
            // cluster population; per-dataset ratio planning is a
            // different (open) problem. Joins submit with explicit
            // ratios through `submit`/`submit_process` instead.
            return Err(RuntimeError::invalid(
                "target-error jobs are single-input (spec.datasets must be empty)",
            ));
        }
        let config = self.engine_config(&spec)?;
        // Goal jobs carry no ratio budget — the coordinator decides
        // per-task sampling and the drop point, so the engine config
        // stays precise — but the decision still records the degrade
        // factor, which relaxes the goal within the caller's allowance.
        let (id, decision) = self.admit(&ApproxBudget::precise());
        let approx = goal.spec(decision.degrade);
        let weight = spec.weight;
        self.launch(spec, id, decision, config, move |config, pool, session| {
            let (mut coordinator, monitor) = policy(approx, &input.splits(), &config)
                .map_err(|e| RuntimeError::invalid(e.to_string()))?;
            let monitor = monitor.expect("a target spec's policy has a monitor");
            as_tenant(pool, weight, |tenant| {
                run_job_on_pool(
                    input,
                    mapper,
                    move |partition| make_reducer(partition, monitor),
                    config,
                    coordinator.as_mut(),
                    pool,
                    tenant,
                    session,
                )
            })
        })
    }

    /// Submits a job onto the **process backend**: the map work runs in
    /// `spec.workers` separate worker processes (started from `worker`)
    /// instead of on the shared slot pool, with a spill-capable shuffle
    /// bounded by `spec.shuffle_mem_bytes`.
    ///
    /// Admission control still applies — the job's sampling/drop ratios
    /// are degraded within its budget under load and its completion
    /// feeds the latency controller — but weighted fair sharing does
    /// not: process jobs own their workers outright, so `spec.weight`
    /// is ignored beyond validation. The worker binary must register
    /// the job named in `worker` (see `JobRegistry`).
    pub fn submit_process<S, R, FR>(
        &self,
        spec: JobSpec,
        input: Arc<S>,
        worker: WorkerSpec,
        make_reducer: FR,
    ) -> Result<JobHandle<R::Output>, RuntimeError>
    where
        S: InputSource + 'static,
        S::Item: Wire,
        R: Reducer + Send + 'static,
        R::Key: Wire,
        R::Value: Wire,
        R::Output: Send + 'static,
        FR: Fn(usize) -> R + Send + Sync + 'static,
    {
        spec.budget.validate().map_err(RuntimeError::invalid)?;
        let config = self.engine_config(&spec)?;
        let (id, decision) = self.admit(&spec.budget);
        self.launch(spec, id, decision, config, move |config, _pool, session| {
            let mut coordinator = FixedCoordinator::for_job(&input.splits(), &config)?;
            run_job_process(
                input.as_ref(),
                &worker,
                make_reducer,
                config,
                &mut coordinator,
                session,
            )
        })
    }

    /// The one `JobSpec → JobConfig` conversion, checked: the engine
    /// configuration `spec` asks for, at precise ratios ([`launch`]
    /// fills in the admitted ones). Runs before a job id is allocated,
    /// so rejected submissions are invisible (no id, no tracker thread,
    /// no admission-controller state).
    ///
    /// [`launch`]: JobService::launch
    fn engine_config(&self, spec: &JobSpec) -> Result<JobConfig, RuntimeError> {
        if !(spec.weight > 0.0 && spec.weight.is_finite()) {
            return Err(RuntimeError::invalid(format!(
                "weight must be positive and finite, got {}",
                spec.weight
            )));
        }
        let config = JobConfig {
            map_slots: spec.map_slots,
            reduce_tasks: spec.reduce_tasks,
            seed: spec.seed,
            fault_plan: spec.fault_plan.clone(),
            fault_policy: FaultPolicy {
                max_task_retries: spec.max_task_retries,
                degrade_to_drop: spec.max_task_retries > 0,
                max_degraded_bound: spec.max_degraded_bound,
                ..Default::default()
            },
            obs: Some(Arc::clone(&self.obs)),
            workers: spec.workers,
            shuffle_mem_bytes: spec.shuffle_mem_bytes,
            datasets: spec.datasets.clone(),
            ..JobConfig::default()
        };
        config.validate()?;
        Ok(config)
    }

    /// Allocates the next job id and takes its admission decision
    /// against `budget` at the pool's current backlog.
    fn admit(&self, budget: &ApproxBudget) -> (JobId, DegradeDecision) {
        let id = JobId(self.next_job.fetch_add(1, Ordering::SeqCst));
        (id, self.controller.admit(id.0, budget, self.pool.queued()))
    }

    /// The one launch routine behind every `submit*`: applies the
    /// admitted ratios, opens the job's session (event stream, deadline,
    /// cancellation), and starts the tracker thread, which calls `run` —
    /// the caller's choice of engine entry point and policy — then feeds
    /// the outcome to the admission controller, emits `Done`/`Failed`
    /// and hands the result to the [`JobHandle`].
    fn launch<O, F>(
        &self,
        spec: JobSpec,
        id: JobId,
        decision: DegradeDecision,
        mut config: JobConfig,
        run: F,
    ) -> Result<JobHandle<O>, RuntimeError>
    where
        O: Send + 'static,
        F: FnOnce(JobConfig, &SlotPool, &JobSession) -> Result<JobResult<O>, RuntimeError>
            + Send
            + 'static,
    {
        config.sampling_ratio = decision.sampling_ratio;
        config.drop_ratio = decision.drop_ratio;

        let (event_tx, event_rx) = unbounded();
        let mut session = JobSession::new(id).with_events(event_tx);
        if let Some(d) = spec.deadline {
            session = session.with_deadline(Instant::now() + d);
        }
        let cancel = session.cancel_handle();
        session.emit(JobEvent::Queued { job: id });

        let (result_tx, result_rx) = unbounded();
        let pool = Arc::clone(&self.pool);
        let controller = Arc::clone(&self.controller);
        let submitted = Instant::now();
        std::thread::Builder::new()
            .name(format!("tracker-{id}"))
            .spawn(move || {
                let outcome = run(config, &pool, &session);
                // Cancelled jobs say nothing about service health; all
                // other completions (and failures) feed the controller,
                // including the achieved error bound when the job's
                // reducers reported one (the accuracy half of the SLO).
                // Process jobs run beside the shared pool, not on it,
                // but in a mixed fleet a backed-up pool is still an
                // overload signal their completions should carry.
                if !matches!(outcome, Err(RuntimeError::Cancelled)) {
                    let bound = outcome
                        .as_ref()
                        .ok()
                        .and_then(|r| worst_final_bound(&r.metrics));
                    controller.on_job_outcome(
                        submitted.elapsed().as_secs_f64(),
                        pool.queued(),
                        bound,
                    );
                }
                if let Ok(r) = &outcome {
                    let m = &r.metrics;
                    if m.failed_maps > 0 || m.retried_maps > 0 || m.degraded_to_drop > 0 {
                        controller.on_job_faults(m.failed_maps, m.retried_maps, m.degraded_to_drop);
                    }
                }
                match &outcome {
                    Ok(r) => session.emit(JobEvent::Done {
                        job: id,
                        wall_secs: r.metrics.wall_secs,
                    }),
                    Err(e) => session.emit(JobEvent::Failed {
                        job: id,
                        reason: e.to_string(),
                    }),
                }
                let _ = result_tx.send(outcome);
            })
            // The job already holds an id and an admission decision, but
            // never ran: it reports nothing to the controller.
            .map_err(|e| RuntimeError::TaskPanicked {
                what: format!("job tracker thread for {id} (cannot spawn: {e})"),
            })?;

        Ok(JobHandle {
            id,
            name: spec.name,
            degrade: decision.degrade,
            drop_ratio: decision.drop_ratio,
            sampling_ratio: decision.sampling_ratio,
            events: event_rx,
            cancel,
            result: result_rx,
        })
    }
}

/// Runs `job` as a tenant of `pool` at fair-share `weight`.
fn as_tenant<T>(pool: &SlotPool, weight: f64, job: impl FnOnce(TenantId) -> T) -> T {
    let tenant = pool.register_tenant(weight);
    let out = job(tenant);
    pool.unregister_tenant(tenant);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_runtime::input::VecSource;
    use approxhadoop_runtime::mapper::FnMapper;
    use approxhadoop_runtime::reducer::GroupedReducer;

    fn count_job(service: &JobService, spec: JobSpec, blocks: Vec<Vec<u32>>) -> JobHandle<usize> {
        service
            .submit(
                spec,
                Arc::new(VecSource::new(blocks)),
                Arc::new(FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| {
                    emit(0, *i)
                })),
                |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            )
            .unwrap()
    }

    #[test]
    fn submit_runs_to_completion_with_events() {
        let service = JobService::new(4, AdmissionConfig::default());
        let blocks: Vec<Vec<u32>> = (0..6).map(|i| vec![i, i]).collect();
        let h = count_job(&service, JobSpec::default(), blocks);
        assert_eq!(h.degrade, 0.0);
        let result = h.wait().unwrap();
        assert_eq!(result.outputs, vec![12]);
        assert_eq!(service.submitted(), 1);
    }

    #[test]
    fn faulty_job_retries_and_feeds_fault_totals() {
        let service = JobService::new(4, AdmissionConfig::default());
        let blocks: Vec<Vec<u32>> = (0..8).map(|i| vec![i, i]).collect();
        let spec = JobSpec {
            max_task_retries: 5,
            fault_plan: Some(FaultPlan::parse("io=0.4,seed=1").unwrap()),
            ..Default::default()
        };
        let h = count_job(&service, spec, blocks);
        let result = h.wait().unwrap();
        assert_eq!(result.outputs, vec![16], "all retries must succeed");
        assert!(result.metrics.failed_maps > 0, "plan must inject failures");
        assert_eq!(result.metrics.failed_maps, result.metrics.retried_maps);
        assert_eq!(result.metrics.degraded_to_drop, 0);
        assert_eq!(result.metrics.killed_maps, 0, "failures are not kills");
        let (failed, retried, degraded) = service.controller().fault_totals();
        assert_eq!(failed, result.metrics.failed_maps as u64);
        assert_eq!(retried, result.metrics.retried_maps as u64);
        assert_eq!(degraded, 0);
    }

    /// An input whose `splits()` is empty — `VecSource` refuses to be
    /// constructed that way, but a dynamic source may come up dry.
    struct EmptySource;

    impl InputSource for EmptySource {
        type Item = u32;

        fn splits(&self) -> Vec<approxhadoop_runtime::input::SplitMeta> {
            Vec::new()
        }

        fn stream_split(
            &self,
            _index: usize,
            _sampling_ratio: f64,
            _seed: u64,
        ) -> approxhadoop_runtime::Result<approxhadoop_runtime::input::SplitStream<'_, u32>>
        {
            unreachable!("no splits to read")
        }
    }

    #[test]
    fn empty_input_fails_cleanly() {
        let service = JobService::new(2, AdmissionConfig::default());
        let h = service
            .submit(
                JobSpec::default(),
                Arc::new(EmptySource),
                Arc::new(FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| {
                    emit(0, *i)
                })),
                |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            )
            .unwrap();
        assert!(h.wait().is_err());
    }

    /// One goal validator: a goal passes `ErrorGoal::validate` exactly
    /// when the spec it describes passes `ApproxSpec::validate`, and
    /// `submit_with_goal` rejects every bad one before taking a job id.
    #[test]
    fn goal_and_spec_validators_reject_the_same_goals() {
        let goal = ErrorGoal::relative(0.01);
        let pilot = |tasks, sampling_ratio| {
            Some(PilotSpec {
                tasks,
                sampling_ratio,
            })
        };
        let with_target = |target| ErrorGoal { target, ..goal };
        let with_pilot = |pilot| ErrorGoal { pilot, ..goal };
        let with_confidence = |confidence| ErrorGoal { confidence, ..goal };
        let table = [
            (goal, true),
            (with_target(ErrorTarget::Absolute(5.0)), true),
            (with_pilot(pilot(2, 0.05)), true),
            (with_target(ErrorTarget::Relative(0.0)), false),
            (with_target(ErrorTarget::Absolute(-1.0)), false),
            (with_target(ErrorTarget::Relative(f64::INFINITY)), false),
            (with_target(ErrorTarget::Absolute(f64::NAN)), false),
            (with_confidence(0.0), false),
            (with_confidence(1.0), false),
            (with_pilot(pilot(0, 0.05)), false),
            (with_pilot(pilot(1, 0.05)), false),
            (with_pilot(pilot(4, 0.0)), false),
            (with_pilot(pilot(4, 1.5)), false),
        ];
        let service = JobService::new(1, AdmissionConfig::default());
        for (g, valid) in table {
            assert_eq!(g.validate().is_ok(), valid, "{g:?}");
            assert_eq!(g.spec(0.0).validate().is_ok(), valid, "{g:?}");
            if !valid {
                let r = service.submit_with_goal(
                    JobSpec::default(),
                    g,
                    Arc::new(VecSource::new(vec![vec![1u32]])),
                    Arc::new(FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| {
                        emit(0, *i)
                    })),
                    |_, _| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
                );
                assert!(matches!(r, Err(RuntimeError::InvalidJob { .. })), "{g:?}");
            }
        }
        // The relaxation allowance is the goal's own field.
        let loose = ErrorGoal {
            max_relaxation: -1.0,
            ..goal
        };
        assert!(loose.validate().is_err());
        assert_eq!(service.submitted(), 0, "rejected goals take no job id");
    }

    #[test]
    fn invalid_specs_rejected_at_submit() {
        let service = JobService::new(2, AdmissionConfig::default());
        let bad_weight = JobSpec {
            weight: 0.0,
            ..Default::default()
        };
        let r = service.submit(
            bad_weight,
            Arc::new(VecSource::new(vec![vec![1u32]])),
            Arc::new(FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| {
                emit(0, *i)
            })),
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
        );
        assert!(r.is_err());
        let mut bad_budget = JobSpec::default();
        bad_budget.budget.max_drop_ratio = 1.5;
        let r = service.submit(
            bad_budget,
            Arc::new(VecSource::new(vec![vec![1u32]])),
            Arc::new(FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| {
                emit(0, *i)
            })),
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
        );
        assert!(r.is_err());
        assert_eq!(service.submitted(), 0, "rejected jobs take no job id");
    }
}
