//! The benchmark's own span log.
//!
//! The engine has a tracer, but its spans live *inside* the program
//! under test. This log is written by the benchmark's files, around
//! each call they make into a layer, so a later change to the engine
//! cannot move or rename the probes a claim rests on. Spans are kept in
//! memory and written once, when the traced run ends.

use std::time::Instant;

/// One recorded span. Times are microseconds since the log was created.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Span {
    /// Index of the span in the log.
    pub id: usize,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<usize>,
    /// Layer-boundary name, e.g. `engine.run_job`.
    pub name: String,
    /// Spans of one job share this identifier (0 = not part of a job).
    pub job: u64,
    /// Start, µs since the log's epoch.
    pub start_us: f64,
    /// End, µs since the log's epoch.
    pub end_us: f64,
}

/// An append-only span log with a current-parent stack.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the span currently
    /// open on this log (if any), and returns `f`'s value with the
    /// span's duration in seconds.
    pub fn scope<T>(
        &mut self,
        name: &str,
        job: u64,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            job,
            start_us: self.us(start),
            end_us: f64::NAN,
        });
        self.stack.push(id);
        let value = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[id].end_us = self.us(end);
        (value, (end - start).as_secs_f64())
    }

    /// Records a span whose endpoints were observed elsewhere (e.g. on a
    /// load-generator thread); returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            job,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        id
    }

    /// µs since the epoch, to a tenth: finer than any span is long, and
    /// a trace file full of fifteen-digit floats is no easier to read.
    fn us(&self, t: Instant) -> f64 {
        (t.saturating_duration_since(self.epoch).as_secs_f64() * 1e7).round() / 10.0
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in µs, ascending by name.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut by_name = std::collections::BTreeMap::<String, f64>::new();
        for (id, self_us) in self_times(&self.spans).into_iter().enumerate() {
            *by_name.entry(self.spans[id].name.clone()).or_default() += self_us;
        }
        by_name.into_iter().collect()
    }
}

/// Self time of every span, in µs: its duration minus the part of its
/// interval that its direct children cover. Children may overlap each
/// other (two jobs in flight under one load-generator span) and may
/// stick out of the parent (a completion observed late); the covered
/// part is the union of the children clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            job: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 60.0),
            span(2, Some(1), 20.0, 30.0),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 40.0, 10.0]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 10..50 and 30..70 overlap by 20: union is 60, not 80.
        let spans = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 50.0),
            span(2, Some(0), 30.0, 70.0),
            span(3, Some(0), 40.0, 45.0), // wholly inside the others
        ];
        assert_eq!(self_times(&spans)[0], 40.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(0, None, 10.0, 20.0),
            span(1, Some(0), 0.0, 15.0),
            span(2, Some(0), 18.0, 40.0),
            span(3, Some(0), 50.0, 60.0),
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn scope_nests_and_record_attaches() {
        let mut log = SpanLog::new();
        let ((), outer_secs) = log.scope("outer", 7, |log| {
            log.scope("inner", 7, |_| ());
        });
        let t = Instant::now();
        let id = log.record("observed", 8, Some(0), t, t);
        assert_eq!(id, 2);
        let s = log.spans();
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
        assert!(outer_secs >= 0.0);
        assert_eq!(log.self_time_by_name().len(), 3);
    }
}
