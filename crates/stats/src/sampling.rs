//! Sampling primitives: the systematic sampler, map-task selection and
//! a bounded Zipf generator.
//!
//! [`SystematicSampler`] is the *input data sampling* mechanism
//! (`ApproxTextInputFormat` in the paper, "1 out of every k items"):
//! given a data block, it picks the kept items, and with them the counts
//! (`m_i`, `M_i`) the multi-stage estimators need. [`choose_indices`]
//! and [`random_order`] pick and order the map tasks the JobTracker
//! executes. The Zipf generator drives the synthetic heavy-tailed
//! workloads (page popularity, article sizes).

use rand::Rng;

/// Keeps every `k`-th item starting from a random offset (systematic
/// sampling) — the paper's "1 out of every 10 input data items".
#[derive(Debug, Clone, Copy)]
pub struct SystematicSampler {
    stride: usize,
}

impl SystematicSampler {
    /// Creates a sampler keeping one of every `stride` items.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        SystematicSampler { stride }
    }

    /// Builds a sampler from a ratio, i.e. `stride = round(1/ratio)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn from_ratio(ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "ratio must lie in (0, 1], got {ratio}"
        );
        SystematicSampler {
            stride: (1.0 / ratio).round().max(1.0) as usize,
        }
    }

    /// The stride `k`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Returns the indices of the kept items among `total` items, using a
    /// random start offset in `[0, stride)`.
    pub fn sample_indices<R: Rng + ?Sized>(&self, rng: &mut R, total: usize) -> Vec<usize> {
        if total == 0 {
            return Vec::new();
        }
        let offset = rng.gen_range(0..self.stride).min(total.saturating_sub(1));
        (offset..total).step_by(self.stride).collect()
    }
}

/// Selects `k` distinct indices uniformly at random from `0..n`
/// (partial Fisher–Yates). Used to pick which map tasks to *execute*
/// when the user specifies a dropping ratio.
pub fn choose_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Random permutation of `0..n` (Fisher–Yates). The JobTracker executes
/// map tasks in this order so cluster sampling assumptions hold.
pub fn random_order<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    choose_indices(rng, n, n)
}

/// Bounded Zipf distribution over `{1, …, n}` with exponent `s > 0`:
/// `P(k) ∝ k^(-s)`.
///
/// Uses Hörmann & Derflinger's rejection-inversion method, giving O(1)
/// sampling without precomputing the full CDF — important because the
/// synthetic Wikipedia workloads draw from catalogues of millions of
/// pages.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// `H(1.5) - h(1)` — upper end of the inversion range.
    h_integral_x1: f64,
    /// `H(n + 0.5)` — lower end of the inversion range.
    h_integral_n: f64,
    /// Acceptance threshold `2 - H⁻¹(H(2.5) - h(2))`.
    s_const: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `{1, …, n}` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(
            s > 0.0 && s.is_finite(),
            "exponent must be positive, got {s}"
        );
        let mut z = Zipf {
            n,
            s,
            h_integral_x1: 0.0,
            h_integral_n: 0.0,
            s_const: 0.0,
        };
        z.h_integral_x1 = z.h_integral(1.5) - 1.0;
        z.h_integral_n = z.h_integral(n as f64 + 0.5);
        z.s_const = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// Number of categories `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent `s`.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// `H(x) = ∫₁ˣ t^(-s) dt` (shifted antiderivative, `H(1) = 0`).
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.s) * log_x) * log_x
    }

    /// `h(x) = x^(-s)`.
    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    /// Inverse of [`Zipf::h_integral`].
    fn h_integral_inverse(&self, x: f64) -> f64 {
        let mut t = x * (1.0 - self.s);
        if t < -1.0 {
            // Numerical guard: t must stay >= -1.
            t = -1.0;
        }
        (helper1(t) * x).exp()
    }

    /// Draws one rank in `{1, …, n}` (rank 1 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 1 {
            return 1;
        }
        loop {
            // u uniformly in (H(n+0.5), H(1.5) - h(1)].
            let u = self.h_integral_n + rng.gen::<f64>() * (self.h_integral_x1 - self.h_integral_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.s_const || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }
}

/// `helper1(x) = ln(1+x)/x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `helper2(x) = (eˣ - 1)/x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn systematic_stride_and_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SystematicSampler::new(10);
        let idx = s.sample_indices(&mut rng, 1000);
        assert_eq!(idx.len(), 100);
        for w in idx.windows(2) {
            assert_eq!(w[1] - w[0], 10);
        }
    }

    #[test]
    fn systematic_from_ratio() {
        assert_eq!(SystematicSampler::from_ratio(0.1).stride(), 10);
        assert_eq!(SystematicSampler::from_ratio(1.0).stride(), 1);
        assert_eq!(SystematicSampler::from_ratio(0.333).stride(), 3);
    }

    #[test]
    fn systematic_small_inputs() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = SystematicSampler::new(10);
        assert!(s.sample_indices(&mut rng, 0).is_empty());
        // With a single item it is always kept (offset clamped).
        for _ in 0..20 {
            assert_eq!(s.sample_indices(&mut rng, 1), vec![0]);
        }
    }

    #[test]
    fn choose_indices_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let idx = choose_indices(&mut rng, 50, 20);
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 50));
        // k > n clamps.
        assert_eq!(choose_indices(&mut rng, 3, 10).len(), 3);
    }

    #[test]
    fn random_order_is_permutation() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = random_order(&mut rng, 100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_rank1_is_most_frequent() {
        let mut rng = StdRng::seed_from_u64(9);
        let z = Zipf::new(1000, 1.0);
        let mut counts = vec![0u32; 1001];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts[10] > counts[100]);
    }

    #[test]
    fn zipf_frequencies_match_theory() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 100u64;
        let s = 1.2;
        let z = Zipf::new(n, s);
        let mut counts = vec![0f64; n as usize + 1];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1.0;
        }
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        for &k in &[1usize, 2, 5, 20] {
            let expected = (k as f64).powf(-s) / norm;
            let observed = counts[k] / draws as f64;
            assert!(
                (observed - expected).abs() < 0.15 * expected + 0.002,
                "rank {k}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn zipf_handles_s_equal_one_and_small_n() {
        let mut rng = StdRng::seed_from_u64(11);
        let z = Zipf::new(1, 1.0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 1);
        }
        let z = Zipf::new(3, 1.0);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=3).contains(&k));
        }
    }

    #[test]
    fn zipf_stays_in_range_for_various_exponents() {
        let mut rng = StdRng::seed_from_u64(12);
        for &s in &[0.5, 0.99, 1.0, 1.01, 1.8, 3.0] {
            let z = Zipf::new(10_000, s);
            for _ in 0..2000 {
                let k = z.sample(&mut rng);
                assert!((1..=10_000).contains(&k), "s={s} produced {k}");
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `from_ratio` rounds `1/ratio` to the nearest stride, never
        /// yields stride 0, and is exact at the edges: ratio 1 keeps
        /// everything (stride 1) and ratio → 0 grows without pathology.
        #[test]
        fn systematic_from_ratio_stride_rounds(ratio in 0.0001f64..=1.0) {
            let s = SystematicSampler::from_ratio(ratio);
            prop_assert!(s.stride() >= 1);
            let exact = 1.0 / ratio;
            prop_assert!(
                (s.stride() as f64 - exact).abs() <= 0.5 + 1e-9,
                "ratio {} gave stride {}, expected round({})",
                ratio, s.stride(), exact
            );
        }

        /// Edge behaviour: ratio = 1 is a census; tiny ratios produce
        /// strides so large a short stream keeps at most one item.
        #[test]
        fn systematic_from_ratio_edges(total in 1usize..500, seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let census = SystematicSampler::from_ratio(1.0);
            prop_assert_eq!(census.stride(), 1);
            prop_assert_eq!(census.sample_indices(&mut rng, total).len(), total);

            let sparse = SystematicSampler::from_ratio(1e-4);
            prop_assert_eq!(sparse.stride(), 10_000);
            let kept = sparse.sample_indices(&mut rng, total);
            prop_assert!(kept.len() <= 1, "stride 10000 kept {} of {}", kept.len(), total);
        }

        /// The kept set is an arithmetic progression with the sampler's
        /// stride, so expansion by `stride` is unbiased for any offset.
        #[test]
        fn systematic_sample_is_arithmetic_progression(stride in 1usize..64,
                                                       total in 0usize..2000,
                                                       seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SystematicSampler::new(stride);
            let idx = s.sample_indices(&mut rng, total);
            if total == 0 {
                prop_assert!(idx.is_empty());
            } else {
                prop_assert!(!idx.is_empty(), "non-empty input must keep at least one item");
                prop_assert!(idx[0] < stride.min(total));
                for w in idx.windows(2) {
                    prop_assert_eq!(w[1] - w[0], stride);
                }
            }
        }
    }
}
