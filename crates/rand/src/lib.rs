//! Workspace-local stand-in for the tiny slice of the `rand` crate API this
//! workspace uses.
//!
//! The build environment is fully offline, so the real crates-io `rand`
//! cannot be fetched. This crate re-implements, dependency-free, exactly the
//! surface the workspace consumes — [`Rng`], [`SeedableRng`],
//! [`rngs::StdRng`] and [`seq::SliceRandom`] — with the same call-site
//! syntax, so library code, tests and examples compile unchanged.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64: deterministic per seed, fast, and of more than sufficient
//! statistical quality for Monte-Carlo experiments. It makes no security
//! claims whatsoever.

/// A source of uniformly distributed 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly from their "standard" distribution
/// (`[0, 1)` for floats, the full range for integers, fair coin for bool).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high-quality bits -> [0, 1) with full double precision.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for usize {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable uniformly; mirrors `rand`'s `gen_range` argument.
pub trait SampleRange {
    /// The element type produced by the range.
    type Output;
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty, matching the behaviour of the real
    /// `rand` crate.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform draw from `[0, n)` without modulo bias (Lemire's widening
/// multiply; the shim skips the rejection step — the bias is below 2⁻⁶⁴·n,
/// irrelevant for experiment workloads).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(n)) >> 64) as u64
}

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = (self.end - self.start) as u64;
        self.start + uniform_below(rng, span) as usize
    }
}

impl SampleRange for std::ops::Range<u64> {
    type Output = u64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + uniform_below(rng, self.end - self.start)
    }
}

impl SampleRange for std::ops::Range<i64> {
    type Output = i64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> i64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(uniform_below(rng, span) as i64)
    }
}

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::standard_sample(rng) * (self.end - self.start)
    }
}

/// The user-facing random-value interface, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value from the type's standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1], got {p}");
        f64::standard_sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64. Deterministic per seed; not cryptographically secure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut s = seed;
            let state = [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ];
            StdRng { state }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.state;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut n2 = s2 ^ s0;
            let mut n3 = s3 ^ s1;
            let n1 = s1 ^ n2;
            let n0 = s0 ^ n3;
            n2 ^= t;
            n3 = n3.rotate_left(45);
            self.state = [n0, n1, n2, n3];
            result
        }
    }
}

/// Non-uniform distributions, mirroring the slice of `rand_distr` the
/// workspace uses: exponential inter-arrival gaps and the Poisson arrival
/// process they generate, for open-loop traffic benchmarks.
pub mod dist {
    use super::{RngCore, StandardSample};

    /// The exponential distribution `Exp(rate)` with density
    /// `rate · exp(−rate·x)` and mean `1/rate`, sampled by inverse CDF:
    /// `x = −ln(1 − u)/rate` for `u` uniform on `[0, 1)`.
    ///
    /// `1 − u` is never zero for `u ∈ [0, 1)`, so samples are always
    /// finite. Deterministic per generator stream.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Exp {
        rate: f64,
    }

    impl Exp {
        /// An exponential distribution with the given rate parameter.
        ///
        /// # Panics
        ///
        /// Panics unless `rate` is finite and strictly positive.
        pub fn new(rate: f64) -> Self {
            assert!(
                rate.is_finite() && rate > 0.0,
                "Exp rate must be finite and positive, got {rate}"
            );
            Exp { rate }
        }

        /// The rate parameter `λ`.
        pub fn rate(&self) -> f64 {
            self.rate
        }

        /// Draws one sample (an inter-arrival gap with mean `1/rate`).
        pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            let u = f64::standard_sample(rng);
            -(1.0 - u).ln() / self.rate
        }
    }

    /// A homogeneous Poisson arrival process with intensity `rate` events
    /// per unit time: successive [`PoissonProcess::next_arrival`] calls
    /// return strictly increasing absolute arrival times whose gaps are
    /// i.i.d. `Exp(rate)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PoissonProcess {
        gaps: Exp,
        now: f64,
    }

    impl PoissonProcess {
        /// A process starting at time `0` with the given intensity.
        ///
        /// # Panics
        ///
        /// Panics unless `rate` is finite and strictly positive.
        pub fn new(rate: f64) -> Self {
            PoissonProcess {
                gaps: Exp::new(rate),
                now: 0.0,
            }
        }

        /// Advances to and returns the next absolute arrival time.
        pub fn next_arrival<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> f64 {
            self.now += self.gaps.sample(rng);
            self.now
        }

        /// All arrival times strictly before `horizon`, in order.
        pub fn arrivals_until<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            horizon: f64,
        ) -> Vec<f64> {
            let mut times = Vec::new();
            loop {
                let t = self.next_arrival(rng);
                if t >= horizon {
                    return times;
                }
                times.push(t);
            }
        }
    }
}

/// Slice helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{uniform_below, RngCore};

    /// Random operations on slices (Fisher–Yates shuffling, element choice).
    pub trait SliceRandom {
        /// The slice's element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, (i + 1) as u64) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[uniform_below(rng, self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_interval_and_mean() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
        for _ in 0..100 {
            let x = rng.gen_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn choose_covers_and_handles_empty() {
        let mut rng = StdRng::seed_from_u64(5);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*items.choose(&mut rng).expect("non-empty") as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_is_pinned() {
        // Property test over several seeds and rates: the empirical mean
        // of n = 100_000 draws must sit within 2% of 1/rate, and every
        // draw must be finite and nonnegative.
        for (seed, rate) in [(1u64, 0.5f64), (7, 1.0), (42, 4.0), (2026, 250.0)] {
            let exp = super::dist::Exp::new(rate);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 100_000;
            let mut sum = 0.0;
            for _ in 0..n {
                let x = exp.sample(&mut rng);
                assert!(x.is_finite() && x >= 0.0, "bad sample {x}");
                sum += x;
            }
            let mean = sum / n as f64;
            let expected = 1.0 / rate;
            assert!(
                (mean - expected).abs() < 0.02 * expected,
                "seed {seed}: mean {mean} far from {expected}"
            );
        }
    }

    #[test]
    fn exponential_is_deterministic_per_seed() {
        let exp = super::dist::Exp::new(3.0);
        assert_eq!(exp.rate(), 3.0);
        let mut a = StdRng::seed_from_u64(13);
        let mut b = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            assert_eq!(exp.sample(&mut a).to_bits(), exp.sample(&mut b).to_bits());
        }
    }

    #[test]
    fn poisson_arrivals_increase_and_track_intensity() {
        let mut process = super::dist::PoissonProcess::new(100.0);
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = process.arrivals_until(&mut rng, 50.0);
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(arrivals.iter().all(|&t| (0.0..50.0).contains(&t)));
        // Expect rate·horizon = 5000 arrivals within a few percent.
        let count = arrivals.len() as f64;
        assert!(
            (count - 5000.0).abs() < 250.0,
            "count {count} far from 5000"
        );
        // Resuming the process keeps times strictly increasing.
        let next = process.next_arrival(&mut rng);
        assert!(next >= 50.0);
    }

    #[test]
    #[should_panic(expected = "rate must be finite and positive")]
    fn exponential_rejects_bad_rate() {
        let _ = super::dist::Exp::new(0.0);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate} far from 0.25");
    }
}
