//! Per-job handles for service-mode execution: lifecycle events
//! streamed to the submitter, plus the cancellation/deadline handle the
//! job service hands to the engine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use std::sync::mpsc::Sender;

use crate::types::TaskId;

/// Identifier of a job within a [`crate::pool::SlotPool`]-backed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job_{:04}", self.0)
    }
}

/// A lifecycle event streamed to the submitter of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job was admitted and is waiting for slots.
    Queued {
        /// The job.
        job: JobId,
    },
    /// Progress: a wave of maps finished (completed, dropped or killed).
    Wave {
        /// The job.
        job: JobId,
        /// Maps finished so far (any terminal state).
        finished: usize,
        /// Total maps in the job.
        total: usize,
        /// Running worst relative error bound across reducers, once
        /// every reducer has reported at least once. Lets submitters
        /// implement client-side early stopping.
        worst_bound: Option<f64>,
    },
    /// All reducers have reported an error bound; this is the worst one.
    Estimate {
        /// The job.
        job: JobId,
        /// Worst relative error bound across reducers (∞ = unbounded).
        worst_relative_bound: f64,
    },
    /// A failed map attempt is being retried.
    TaskRetry {
        /// The job.
        job: JobId,
        /// The failing task.
        task: TaskId,
        /// The attempt number about to be scheduled.
        attempt: u32,
        /// Why the previous attempt failed.
        reason: String,
    },
    /// The job finished successfully.
    Done {
        /// The job.
        job: JobId,
        /// Wall-clock duration in seconds.
        wall_secs: f64,
    },
    /// The job failed or was cancelled.
    Failed {
        /// The job.
        job: JobId,
        /// Human-readable reason.
        reason: String,
    },
}

/// The per-job handle the service threads through the engine: identity,
/// cancellation flag, optional deadline, and an optional event stream.
///
/// The engine polls [`JobSession::cancelled`] between waves — cancelling
/// kills running attempts and fails the job with
/// [`crate::RuntimeError::Cancelled`]. A deadline instead *degrades*:
/// once it passes, remaining maps are dropped and the job completes
/// approximately, with `deadline_hit` set in its metrics.
#[derive(Debug, Clone)]
pub struct JobSession {
    /// The job's identity (used in emitted events).
    pub job: JobId,
    cancel: Arc<AtomicBool>,
    /// Optional wall-clock deadline for approximate completion.
    pub deadline: Option<Instant>,
    /// Optional sink for lifecycle events (send failures are ignored, so
    /// a departed subscriber never blocks the job).
    pub events: Option<Sender<JobEvent>>,
}

impl JobSession {
    /// Creates a detached session: no deadline, no event stream.
    pub fn new(job: JobId) -> Self {
        JobSession {
            job,
            cancel: Arc::new(AtomicBool::new(false)),
            deadline: None,
            events: None,
        }
    }

    /// Adds a deadline after which the job completes approximately.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds an event sink.
    pub fn with_events(mut self, events: Sender<JobEvent>) -> Self {
        self.events = Some(events);
        self
    }

    /// A clonable handle that cancels this job when triggered.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            flag: Arc::clone(&self.cancel),
        }
    }

    /// Whether the job has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Emits `event` to the subscriber, if any.
    pub fn emit(&self, event: JobEvent) {
        if let Some(tx) = &self.events {
            let _ = tx.send(event);
        }
    }
}

/// Cancels the associated job when triggered; clonable and sendable so
/// callers can keep it after submitting the job.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn cancel_handle_flips_session() {
        let s = JobSession::new(JobId(1));
        assert!(!s.cancelled());
        let h = s.cancel_handle();
        h.cancel();
        assert!(s.cancelled());
        assert!(h.is_cancelled());
    }

    #[test]
    fn emit_without_subscriber_is_noop() {
        let s = JobSession::new(JobId(2));
        s.emit(JobEvent::Queued { job: JobId(2) });
    }

    #[test]
    fn emit_reaches_subscriber_and_survives_departure() {
        let (tx, rx) = channel();
        let s = JobSession::new(JobId(3)).with_events(tx);
        s.emit(JobEvent::Done {
            job: JobId(3),
            wall_secs: 0.5,
        });
        assert!(matches!(rx.recv().unwrap(), JobEvent::Done { .. }));
        drop(rx);
        // Subscriber gone: emitting must not panic or block.
        s.emit(JobEvent::Queued { job: JobId(3) });
    }

    #[test]
    fn job_id_display() {
        assert_eq!(JobId(7).to_string(), "job_0007");
    }
}
