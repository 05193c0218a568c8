//! A deterministic Bloom filter — the map-side pre-filter behind
//! approximate joins.
//!
//! Before joining a big dataset against a small one, the engine builds
//! a Bloom filter over the small side's join keys and ships it to every
//! map task of the big side; records whose key cannot join are
//! discarded at the map, never shuffled. False positives only cost
//! wasted shuffle bytes (the reduce-side join still drops them), so
//! the filter never changes the join result — it only shrinks the
//! intermediate data, which is the entire point (ApproxJoin's filtering
//! stage).
//!
//! Everything here is seeded and uses stable from-scratch hashing
//! (FNV-1a double hashing), so the parent process and every worker
//! process rebuild **bit-identical** filters from the same key set —
//! a requirement for the backend-equivalence guarantees.

/// A fixed-size Bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
    seed: u64,
    inserted: u64,
}

/// Seeded FNV-1a. The seed is absorbed through the byte stream rather
/// than XORed into the basis: an XORed seed only translates the key
/// space, so two seeds differing in a few low bits would build
/// *identical* filters over dense integer key sets.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in seed.to_le_bytes().iter().chain(bytes) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl BloomFilter {
    /// Sizes a filter for `expected` keys at false-positive rate `fpr`,
    /// using the standard optima `m = -n·ln(p)/ln(2)²` and
    /// `k = (m/n)·ln(2)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fpr < 1`.
    pub fn with_capacity(expected: usize, fpr: f64, seed: u64) -> Self {
        assert!(fpr > 0.0 && fpr < 1.0, "fpr must lie in (0, 1), got {fpr}");
        let n = expected.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let num_bits = ((-n * fpr.ln() / (ln2 * ln2)).ceil() as u64).max(64);
        let num_hashes = ((num_bits as f64 / n * ln2).round() as u32).clamp(1, 16);
        BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes,
            seed,
            inserted: 0,
        }
    }

    /// Kirsch–Mitzenmacher double hashing: bit `i` is
    /// `(h1 + i·h2) mod m`, with `h2` forced odd so the probe sequence
    /// cycles through distinct positions.
    fn bit_positions(&self, key: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let h1 = fnv1a(self.seed, key);
        let h2 = fnv1a(self.seed ^ 0x9E37_79B9_7F4A_7C15, key) | 1;
        let m = self.num_bits;
        (0..self.num_hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }

    /// Inserts `key`.
    pub fn insert(&mut self, key: &[u8]) {
        let positions: Vec<u64> = self.bit_positions(key).collect();
        for p in positions {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
        self.inserted += 1;
    }

    /// Whether `key` may have been inserted (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.bit_positions(key)
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }

    /// Number of bits `m`.
    pub fn num_bits(&self) -> u64 {
        self.num_bits
    }

    /// Number of hash functions `k`.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Serialises the filter to bytes (little-endian words after a
    /// small header), for shipping inside a job's params blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.bits.len() * 8);
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&self.num_hashes.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.inserted.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Rebuilds a filter from [`BloomFilter::to_bytes`] output. Returns
    /// `None` on a malformed buffer (wrong length, inconsistent header).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 28 {
            return None;
        }
        let num_bits = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let num_hashes = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let seed = u64::from_le_bytes(bytes[12..20].try_into().ok()?);
        let inserted = u64::from_le_bytes(bytes[20..28].try_into().ok()?);
        let words = num_bits.div_ceil(64) as usize;
        if num_bits == 0 || num_hashes == 0 || bytes.len() != 28 + words * 8 {
            return None;
        }
        let bits = bytes[28..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some(BloomFilter {
            bits,
            num_bits,
            num_hashes,
            seed,
            inserted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01, 7);
        for i in 0..1000u64 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..1000u64 {
            assert!(f.contains(&i.to_le_bytes()), "lost key {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut f = BloomFilter::with_capacity(10_000, 0.01, 11);
        for i in 0..10_000u64 {
            f.insert(&i.to_le_bytes());
        }
        let fp = (10_000..110_000u64)
            .filter(|i| f.contains(&i.to_le_bytes()))
            .count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false-positive rate {rate} far above target");
    }

    #[test]
    fn deterministic_across_builds() {
        let build = || {
            let mut f = BloomFilter::with_capacity(100, 0.05, 3);
            for i in 0..100u64 {
                f.insert(&(i * 17).to_le_bytes());
            }
            f
        };
        assert_eq!(build(), build());
        assert_eq!(build().to_bytes(), build().to_bytes());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut f = BloomFilter::with_capacity(64, 0.02, 99);
        for w in ["alpha", "beta", "gamma"] {
            f.insert(w.as_bytes());
        }
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
        assert!(back.contains(b"alpha"));
    }

    #[test]
    fn malformed_bytes_rejected() {
        let f = BloomFilter::with_capacity(10, 0.1, 1);
        let good = f.to_bytes();
        assert!(BloomFilter::from_bytes(&good[..good.len() - 1]).is_none());
        assert!(BloomFilter::from_bytes(&good[..10]).is_none());
        assert!(BloomFilter::from_bytes(&[]).is_none());
        let mut bad = good.clone();
        bad[0] = 0xFF; // inconsistent num_bits vs payload length
        assert!(BloomFilter::from_bytes(&bad).is_none());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = BloomFilter::with_capacity(100, 0.05, 1);
        let mut b = BloomFilter::with_capacity(100, 0.05, 2);
        for i in 0..100u64 {
            a.insert(&i.to_le_bytes());
            b.insert(&i.to_le_bytes());
        }
        assert_ne!(a.bits, b.bits);
    }
}
