//! Seeded inputs and arrival schedules. `--seed N` regenerates every
//! one of them; the engine only ever sees the generated data.

use approxhadoop::workloads::wikilog::WikiLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct words of the word-count corpus. Frequencies fall off as
/// `1/sqrt(rank)`, so a few hundred hot words dominate and map-side
/// combining has something to collapse.
pub const VOCABULARY: u32 = 800;

/// `blocks × lines_per_block` lines of 6–11 Zipf-ish words each — the
/// corpus shape the repository's `hotpath` bench uses.
pub fn wordcount_lines(blocks: usize, lines_per_block: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_434F_5250_5553); // "WCORPUS"
    let mut line = String::new();
    (0..blocks * lines_per_block)
        .map(|_| {
            line.clear();
            for i in 0..rng.gen_range(6..12) {
                if i > 0 {
                    line.push(' ');
                }
                let u: f64 = rng.gen();
                line.push('w');
                line.push_str(&((u * u * VOCABULARY as f64) as u32).to_string());
            }
            line.clone()
        })
        .collect()
}

/// The access log of the `wikilog_*` workloads: the paper's log shape
/// (Zipf pages and projects, 12 blocks a day) at laptop scale.
pub fn page_log(days: u64, entries_per_block: u64, seed: u64) -> WikiLog {
    WikiLog {
        days,
        blocks_per_day: 12,
        entries_per_block,
        pages: 1_000_000,
        projects: 2_640,
        seed,
    }
}

/// The small log every service tenant aggregates: few keys, so the
/// job is read + map work under the service's per-job wrapper.
pub fn tenant_log(blocks: u64, entries_per_block: u64, seed: u64) -> WikiLog {
    WikiLog {
        days: 1,
        blocks_per_day: blocks,
        entries_per_block,
        pages: 5_000,
        projects: 12,
        seed,
    }
}

/// Due times (seconds from the start of the run) of an open-loop
/// arrival schedule at `rate` per second up to `horizon_secs`: arrival
/// `i` falls uniformly at random inside its own slot
/// `[i / rate, (i + 1) / rate)`. Gaps range from nothing to two mean
/// gaps, so tenants do collide, but the count and the load of every
/// second are fixed: with the few hundred arrivals a run has, a Poisson
/// process's own sampling noise (±8 % in the count alone) would swamp
/// any change to the service.
pub fn jittered_schedule(rate: f64, horizon_secs: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4152_5249_5645); // "ARRIVE"
    let n = (rate * horizon_secs).round() as usize;
    (0..n)
        .map(|i| (i as f64 + rng.gen::<f64>()) / rate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_shaped() {
        let a = wordcount_lines(2, 50, 1);
        assert_eq!(a, wordcount_lines(2, 50, 1));
        assert_ne!(a, wordcount_lines(2, 50, 2));
        assert_eq!(a.len(), 100);
        for line in &a {
            let words: Vec<&str> = line.split_whitespace().collect();
            assert!((6..12).contains(&words.len()), "{line}");
            assert!(words.iter().all(|w| w.starts_with('w')));
        }
    }

    #[test]
    fn schedule_is_seeded_and_keeps_one_arrival_per_slot() {
        let s = jittered_schedule(20.0, 50.0, 3);
        assert_eq!(s, jittered_schedule(20.0, 50.0, 3));
        assert_ne!(s, jittered_schedule(20.0, 50.0, 4));
        assert_eq!(s.len(), 1_000);
        for (i, &t) in s.iter().enumerate() {
            assert!(
                (i as f64 / 20.0..(i + 1) as f64 / 20.0).contains(&t),
                "{i}: {t}"
            );
        }
        // Jittered, not paced: some gaps are well under, some well over, the mean.
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().any(|&g| g < 0.01) && gaps.iter().any(|&g| g > 0.09));
    }
}
