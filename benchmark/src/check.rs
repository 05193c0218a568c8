//! Reference checkers: every workload compares what the engine returned
//! with a single-threaded fold over the same generated input, computed
//! in set-up. A speed-up that changes an answer is not a speed-up, and
//! an interval that does not contain the truth is not a bound — EARL's
//! point that a bound must be checked against ground truth, not printed.

use approxhadoop::stats::Interval;
use approxhadoop::workloads::wikilog::{LogEntry, WikiLog};

/// Keys whose true totals are checked against their intervals on the
/// approximate workload: the largest ones, where the paper's users look.
pub const TOP_KEYS: usize = 1_000;

/// Share of [`TOP_KEYS`] intervals allowed to miss the truth before the
/// run fails outright. Nominal 95 % intervals miss 5 %; rare keys under
/// two-stage sampling have skewed estimates and miss somewhat more.
pub const MAX_VIOLATION_SHARE: f64 = 0.10;

/// True per-key totals of `value(entry)` by `key(entry)`, ascending by
/// key and without the keys that never occur — the single-threaded
/// reference for the wikilog jobs. Keys are ranks in `1..=key_space`, so
/// the fold is a dense array: a few MiB, so that the process's peak
/// memory is the engine's and not the checker's. Values are integers
/// far below 2⁵³, so the `f64` sums are exact in any order and a
/// precise engine run must reproduce them bit for bit.
pub fn fold_log(
    log: &WikiLog,
    key_space: u64,
    key_value: impl Fn(&LogEntry) -> (u64, f64),
) -> Vec<(u64, f64)> {
    let mut totals = vec![0.0f64; key_space as usize + 1];
    let mut seen = vec![false; key_space as usize + 1];
    for b in 0..log.num_blocks() {
        for e in log.block(b) {
            let (k, v) = key_value(&e);
            totals[k as usize] += v;
            seen[k as usize] = true;
        }
    }
    (0..=key_space)
        .filter(|&k| seen[k as usize])
        .map(|k| (k, totals[k as usize]))
        .collect()
}

/// The `n` keys with the largest true totals (ties broken by key).
pub fn top_keys(reference: &[(u64, f64)], n: usize) -> Vec<(u64, f64)> {
    let mut by_total = reference.to_vec();
    by_total.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    by_total.truncate(n);
    by_total
}

/// Word counts must equal the reference exactly. Both ascending by word.
pub fn check_counts(outputs: &[(String, u64)], reference: &[(String, u64)]) -> Result<(), String> {
    if outputs.len() != reference.len() {
        return Err(format!(
            "{} distinct words, reference has {}",
            outputs.len(),
            reference.len()
        ));
    }
    match outputs.iter().zip(reference).find(|(o, r)| o != r) {
        Some((o, r)) => Err(format!("count mismatch: got {o:?}, reference {r:?}")),
        None => Ok(()),
    }
}

/// A precise run must return every key with the reference total, bit
/// for bit, and a zero-width interval. Both ascending by key.
pub fn check_precise(outputs: &[(u64, Interval)], reference: &[(u64, f64)]) -> Result<(), String> {
    if outputs.len() != reference.len() {
        return Err(format!(
            "{} keys, reference has {}",
            outputs.len(),
            reference.len()
        ));
    }
    for ((k, iv), (rk, total)) in outputs.iter().zip(reference) {
        if k != rk || iv.estimate.to_bits() != total.to_bits() {
            return Err(format!(
                "key {k}: estimate {} differs from reference ({rk}, {total})",
                iv.estimate
            ));
        }
        if iv.half_width != 0.0 {
            return Err(format!(
                "key {k}: precise run reports half-width {}",
                iv.half_width
            ));
        }
    }
    Ok(())
}

/// Bound and honesty of one approximate run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxQuality {
    /// Relative 95 % half-width, in percent, of the key with the largest
    /// absolute half-width — the paper's reporting rule.
    pub worst_bound_pct: f64,
    /// Share of `top` keys whose true total lies outside the reported
    /// interval; a key missing from the output counts as outside.
    pub violation_share: f64,
}

/// Measures an approximate run's outputs against the true totals of the
/// top keys (`top` from [`top_keys`]; `outputs` ascending by key).
pub fn approx_quality(outputs: &[(u64, Interval)], top: &[(u64, f64)]) -> ApproxQuality {
    let worst = outputs
        .iter()
        .max_by(|a, b| a.1.half_width.total_cmp(&b.1.half_width));
    let violations = top
        .iter()
        .filter(|(k, truth)| {
            outputs
                .binary_search_by_key(k, |&(ok, _)| ok)
                .map_or(true, |i| !outputs[i].1.contains(*truth))
        })
        .count();
    ApproxQuality {
        worst_bound_pct: worst.map_or(f64::INFINITY, |(_, iv)| iv.relative_error() * 100.0),
        violation_share: violations as f64 / top.len().max(1) as f64,
    }
}

/// Fails a run whose intervals miss the truth too often.
pub fn check_violation_share(share: f64) -> Result<(), String> {
    if share > MAX_VIOLATION_SHARE {
        return Err(format!(
            "{:.1}% of the top {TOP_KEYS} true totals lie outside their 95% intervals (limit {:.0}%)",
            share * 100.0,
            MAX_VIOLATION_SHARE * 100.0
        ));
    }
    Ok(())
}

/// A degraded (sampled or dropped) service job must still bound every
/// key: a non-finite half-width means the estimator gave up.
pub fn check_finite_bounds(outputs: &[(u64, Interval)]) -> Result<(), String> {
    match outputs
        .iter()
        .find(|(_, iv)| !iv.half_width.is_finite() || !iv.estimate.is_finite())
    {
        Some((k, iv)) => Err(format!("key {k}: unbounded interval {iv:?}")),
        None => Ok(()),
    }
}

/// A latency counted from the due time cannot be shorter than the wall
/// time the engine itself reports for the job; one that is was counted
/// from the wrong instant.
pub fn check_latency(latency_secs: f64, engine_wall_secs: f64) -> Result<(), String> {
    if !latency_secs.is_finite() || latency_secs < engine_wall_secs {
        return Err(format!(
            "latency {latency_secs}s is shorter than the job's own wall time {engine_wall_secs}s"
        ));
    }
    Ok(())
}

/// Proves each check can fail: corrupts one count, one interval and one
/// latency, and returns what every check said. `Err` if any corrupted
/// input passed (or any clean input failed).
pub fn selftest() -> Result<Vec<String>, String> {
    let mut fired = Vec::new();
    let mut expect = |what: &str, clean: Result<(), String>, corrupt: Result<(), String>| {
        clean.map_err(|e| format!("{what}: clean input rejected: {e}"))?;
        match corrupt {
            Ok(()) => Err(format!("{what}: corrupted input passed")),
            Err(e) => {
                fired.push(format!("{what}: {e}"));
                Ok(())
            }
        }
    };

    let counts = vec![("w0".to_string(), 40), ("w1".to_string(), 2)];
    let mut bad_counts = counts.clone();
    bad_counts[1].1 += 1;
    expect(
        "count",
        check_counts(&counts, &counts),
        check_counts(&bad_counts, &counts),
    )?;

    let reference = vec![(1u64, 5_000.0), (2, 70.0)];
    let exact: Vec<(u64, Interval)> = reference
        .iter()
        .map(|&(k, t)| (k, Interval::exact(t)))
        .collect();
    let mut off_by_one_ulp = exact.clone();
    off_by_one_ulp[0].1.estimate = f64::from_bits(5_000f64.to_bits() + 1);
    expect(
        "precise estimate",
        check_precise(&exact, &reference),
        check_precise(&off_by_one_ulp, &reference),
    )?;
    let mut widened = exact.clone();
    widened[1].1.half_width = 1e-9;
    expect(
        "precise half-width",
        Ok(()),
        check_precise(&widened, &reference),
    )?;

    // Twenty keys whose intervals all hold; then shrink three of them
    // around a wrong estimate: 15 % violations is over the limit.
    let top: Vec<(u64, f64)> = (0..20).map(|k| (k, 1_000.0 + k as f64)).collect();
    let honest: Vec<(u64, Interval)> = top
        .iter()
        .map(|&(k, t)| (k, Interval::new(t * 1.01, t * 0.05, 0.95)))
        .collect();
    let mut dishonest = honest.clone();
    for (_, iv) in dishonest.iter_mut().take(3) {
        *iv = Interval::new(iv.estimate * 2.0, 1.0, 0.95);
    }
    expect(
        "interval",
        check_violation_share(approx_quality(&honest, &top).violation_share),
        check_violation_share(approx_quality(&dishonest, &top).violation_share),
    )?;
    let mut unbounded = honest.clone();
    unbounded[4].1.half_width = f64::INFINITY;
    expect(
        "degraded bound",
        check_finite_bounds(&honest),
        check_finite_bounds(&unbounded),
    )?;

    expect(
        "latency",
        check_latency(0.050, 0.020),
        check_latency(0.015, 0.020),
    )?;
    Ok(fired)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_check_fires_on_corruption() {
        let fired = selftest().unwrap();
        assert_eq!(fired.len(), 6, "{fired:#?}");
    }

    #[test]
    fn missing_key_counts_as_violation() {
        let top = vec![(1u64, 10.0), (2, 20.0)];
        let outputs = vec![(1u64, Interval::new(10.0, 1.0, 0.95))];
        let q = approx_quality(&outputs, &top);
        assert_eq!(q.violation_share, 0.5);
        assert_eq!(q.worst_bound_pct, 10.0);
    }

    #[test]
    fn worst_bound_follows_the_widest_absolute_interval() {
        // Key 2 is relatively worse (50 %) but key 1 is absolutely wider.
        let outputs = vec![
            (1u64, Interval::new(1_000.0, 100.0, 0.95)),
            (2, Interval::new(10.0, 5.0, 0.95)),
        ];
        assert_eq!(approx_quality(&outputs, &[]).worst_bound_pct, 10.0);
    }

    #[test]
    fn fold_and_top_keys_agree_with_a_direct_count() {
        let log = crate::gen::tenant_log(3, 200, 9);
        let totals = fold_log(&log, log.projects, |e| (e.project, e.bytes as f64));
        assert!(totals.windows(2).all(|w| w[0].0 < w[1].0));
        let bytes: f64 = (0..3)
            .flat_map(|b| log.block(b))
            .map(|e| e.bytes as f64)
            .sum();
        assert_eq!(totals.iter().map(|t| t.1).sum::<f64>(), bytes);
        let top = top_keys(&totals, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
        assert!(totals.iter().all(|t| t.1 <= top[0].1));
    }
}
