//! Time source for scheduler decisions.
//!
//! Every control-flow decision that reads the clock — straggler
//! detection, retry due-times, deadline checks — goes through [`Clock`]
//! so tests can drive them deterministically with [`FakeClock`] instead
//! of real sleeps. Telemetry timestamps (`wall_secs`, bound-series
//! times) stay on the real clock: they are reporting, not control flow.

use std::time::Instant;

/// A monotonic time source the engine's `JobTracker` consults for every
/// timing decision; a discrete-event [`super::Executor`] supplies its
/// own to [`super::run_job_on_executor`].
pub trait Clock: Sync {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// The real monotonic clock — production behaviour.
pub(crate) struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A deterministic test clock: a fixed base instant plus an atomically
/// advanced offset. "Time passing" is an explicit [`FakeClock::advance`]
/// call, so timing-sensitive scheduler tests never sleep and never race
/// against machine load.
#[cfg(test)]
pub(crate) struct FakeClock {
    base: Instant,
    offset_micros: std::sync::atomic::AtomicU64,
}

#[cfg(test)]
impl FakeClock {
    pub(crate) fn new() -> Self {
        FakeClock {
            base: Instant::now(),
            offset_micros: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The instant the fake clock started at; deadlines for tests are
    /// expressed relative to this.
    pub(crate) fn base(&self) -> Instant {
        self.base
    }

    /// Advances the clock by `d` for every subsequent `now()` reader.
    pub(crate) fn advance(&self, d: std::time::Duration) {
        self.offset_micros
            .fetch_add(d.as_micros() as u64, std::sync::atomic::Ordering::SeqCst);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now(&self) -> Instant {
        let offset = self.offset_micros.load(std::sync::atomic::Ordering::SeqCst);
        self.base + std::time::Duration::from_micros(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fake_clock_advances_without_sleeping() {
        let clock = FakeClock::new();
        let t0 = clock.now();
        assert_eq!(t0, clock.base());
        clock.advance(Duration::from_secs(5));
        assert_eq!(clock.now().duration_since(t0), Duration::from_secs(5));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
