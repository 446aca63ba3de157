//! A small, fully deterministic random number generator.
//!
//! The workspace needs bit-for-bit reproducible experiments across machines
//! and across versions of the `rand` crate, whose standard generators do not
//! guarantee a stable stream. We therefore ship our own xoshiro256\*\*
//! implementation seeded through SplitMix64 (the construction recommended by
//! the xoshiro authors) and expose it through [`rand::RngCore`] so all
//! of `rand`'s distributions remain usable.

use rand::RngCore;

/// SplitMix64 step used to expand a single `u64` seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* random number generator.
///
/// The stream produced by a given seed is stable forever, unlike
/// `rand::rngs::StdRng` whose algorithm may change between `rand` releases.
///
/// # Example
///
/// ```
/// use fastgl_graph::rng::DeterministicRng;
/// use rand::Rng;
///
/// let mut a = DeterministicRng::seed(42);
/// let mut b = DeterministicRng::seed(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    s: [u64; 4],
}

impl DeterministicRng {
    /// Creates a generator from a single `u64` seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent child generator, e.g. one per worker thread.
    ///
    /// The child stream is a deterministic function of the parent seed and
    /// `stream`, and children with different `stream` values are
    /// statistically independent.
    pub fn derive(&self, stream: u64) -> Self {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit output of xoshiro256\*\*.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening multiply keeps the distribution unbiased enough for
        // simulation purposes (bias < 2^-64 * bound).
        let x = self.next();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal_f32(&mut self) -> f32 {
        let u1 = self.unit_f64().max(1e-12);
        let u2 = self.unit_f64();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)`.
    ///
    /// Allocating form of [`DeterministicRng::sample_distinct_into`]; both
    /// produce the same values from the same generator state.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(k);
        self.sample_distinct_into(n, k, &mut out);
        out
    }

    /// Appends `k` distinct indices from `[0, n)` to `out`.
    ///
    /// Floyd's algorithm: one draw per value, independent of `n`. A draw
    /// that repeats an earlier value of this call is replaced by the
    /// round's upper end `j`, which no earlier round could produce.
    /// Membership is a linear scan of the values this call has appended, so
    /// the call allocates nothing beyond `out`'s growth and costs `O(k²)`
    /// comparisons: meant for small `k` such as sampling fanouts. Whatever
    /// `out` held before is left alone and does not affect the draw.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct_into(&mut self, n: u64, k: usize, out: &mut Vec<u64>) {
        assert!(k as u64 <= n, "cannot sample {k} distinct values from {n}");
        let start = out.len();
        out.reserve(k);
        for j in (n - k as u64)..n {
            let t = self.below(j + 1);
            let v = if out[start..].contains(&t) { j } else { t };
            out.push(v);
        }
    }
}

impl RngCore for DeterministicRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed(1);
        let mut b = DeterministicRng::seed(1);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::seed(1);
        let mut b = DeterministicRng::seed(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DeterministicRng::seed(3);
        for bound in [1u64, 2, 3, 17, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut rng = DeterministicRng::seed(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = DeterministicRng::seed(5);
        for _ in 0..1000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = DeterministicRng::seed(6);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal_f32() as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DeterministicRng::seed(7);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let mut rng = DeterministicRng::seed(8);
        let got = rng.sample_distinct(50, 20);
        assert_eq!(got.len(), 20);
        let set: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(set.len(), 20);
        assert!(got.iter().all(|&v| v < 50));
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut rng = DeterministicRng::seed(9);
        let mut got = rng.sample_distinct(10, 10);
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_into_appends_the_same_stream() {
        // Earlier contents overlap the drawn range on purpose: they must
        // neither be touched nor count as already chosen.
        let prefix: Vec<u64> = (0..20).collect();
        for (n, k) in [(20u64, 0usize), (20, 7), (20, 19), (20, 20), (1, 1), (5, 5)] {
            for seed in 0..16 {
                let mut a = DeterministicRng::seed(seed);
                let mut b = a.clone();
                let mut out = prefix.clone();
                a.sample_distinct_into(n, k, &mut out);
                assert_eq!(&out[..prefix.len()], &prefix[..], "prefix modified");
                let drawn = &out[prefix.len()..];
                assert_eq!(drawn, &b.sample_distinct(n, k)[..], "n={n} k={k}");
                assert_eq!(a, b, "different number of draws consumed");
                assert!(drawn.iter().all(|&v| v < n));
                let mut sorted = drawn.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "n={n} k={k}: duplicates in {drawn:?}");
                if k as u64 == n {
                    assert_eq!(sorted, (0..n).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample 4 distinct values from 3")]
    fn sample_distinct_into_rejects_k_above_n() {
        DeterministicRng::seed(0).sample_distinct_into(3, 4, &mut Vec::new());
    }

    /// Pins the exact draw stream: every sampled subgraph in the repository
    /// depends on it. The second call (k = 15 of n = 16) takes Floyd's
    /// collision branch several times.
    #[test]
    fn sample_distinct_stream_is_pinned() {
        let mut rng = DeterministicRng::seed(77);
        assert_eq!(
            rng.sample_distinct(100, 15),
            [37, 19, 51, 85, 42, 15, 6, 60, 93, 38, 92, 12, 25, 7, 65]
        );
        assert_eq!(
            rng.sample_distinct(16, 15),
            [0, 2, 1, 4, 5, 6, 7, 8, 9, 3, 11, 12, 13, 14, 15]
        );
        assert_eq!(rng.sample_distinct(6, 6), [0, 1, 2, 3, 4, 5]);
        assert_eq!(rng.sample_distinct(6, 0), [] as [u64; 0]);
        // Floyd consumes exactly one draw per sampled value.
        assert_eq!(rng.next(), 10_641_622_588_914_122_397);
    }

    #[test]
    fn derive_produces_independent_streams() {
        let parent = DeterministicRng::seed(10);
        let mut c1 = parent.derive(0);
        let mut c2 = parent.derive(1);
        let mut c1b = parent.derive(0);
        assert_eq!(c1.next(), c1b.next());
        let same = (0..64).filter(|_| c1.next() == c2.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fill_bytes_deterministic_and_complete() {
        let mut a = DeterministicRng::seed(11);
        let mut b = DeterministicRng::seed(11);
        let mut buf_a = [0u8; 13];
        let mut buf_b = [0u8; 13];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        assert!(buf_a.iter().any(|&x| x != 0));
    }
}
