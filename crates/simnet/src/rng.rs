//! Deterministic randomness for the simulation.
//!
//! Self-contained xoshiro256++ generator (seeded via splitmix64) so the
//! simulator has no external RNG dependency and every stream is reproducible
//! bit-for-bit from its seed across platforms and toolchains.

/// A seeded random-number generator wrapper.
///
/// Every experiment takes an explicit seed so that a run can be reproduced
/// bit-for-bit; derived generators (`fork`) let independent components draw
/// from statistically independent streams without sharing mutable state.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits (xoshiro256++).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result =
            self.state[0].wrapping_add(self.state[3]).rotate_left(23).wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Derives an independent generator, keyed by a label hash so that two
    /// forks with different labels produce different streams.
    pub fn fork(&mut self, label: &str) -> Self {
        let salt: u64 = label
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3));
        Self::seed_from_u64(self.next_u64() ^ salt)
    }

    /// A uniform value in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.unit()
    }

    /// A uniform integer in `[lo, hi]`.
    pub fn int_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64() % (span + 1)
    }

    /// A standard-normal sample (Box–Muller).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.unit().max(1e-12);
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A normal sample with the given mean and standard deviation.
    pub(crate) fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// A log-normal sample parameterised by its *median* and the sigma of the
    /// underlying normal. Latency distributions in the paper are summarised
    /// by medians, so this parameterisation maps directly onto the reported
    /// numbers.
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        (median.max(1e-9).ln() + sigma * self.standard_normal()).exp()
    }

    /// Returns true with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Picks an index in `0..weights.len()` proportionally to the weights.
    ///
    /// Returns `None` for an empty slice or all-zero weights.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 || !w.is_finite() {
                continue;
            }
            if target < *w {
                return Some(i);
            }
            target -= *w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn forks_with_different_labels_diverge() {
        let mut root = SimRng::seed_from_u64(7);
        let mut a = root.clone().fork("dns");
        let mut b = root.fork("tcp");
        let same = (0..32).filter(|_| a.unit().to_bits() == b.unit().to_bits()).count();
        assert!(same < 4, "forked streams should not track each other");
    }

    #[test]
    fn uniform_and_int_ranges_hold() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.uniform(10.0, 20.0);
            assert!((10.0..20.0).contains(&v));
            let i = rng.int_inclusive(3, 6);
            assert!((3..=6).contains(&i));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
        assert_eq!(rng.int_inclusive(9, 2), 9);
    }

    #[test]
    fn lognormal_median_is_near_requested_median() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut samples: Vec<f64> = (0..4001).map(|_| rng.lognormal_median(76.0, 0.5)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 76.0).abs() < 6.0, "median {median} too far from 76");
    }

    #[test]
    fn normal_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(5);
        let mean: f64 = (0..4000).map(|_| rng.normal(10.0, 2.0)).sum::<f64>() / 4000.0;
        assert!((mean - 10.0).abs() < 0.2);
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = SimRng::seed_from_u64(11);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn chance_is_certain_at_its_extremes() {
        let mut rng = SimRng::seed_from_u64(13);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn unit_values_fill_the_half_open_interval() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let v = rng.unit();
            assert!((0.0..1.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }
}
