//! Latency models used for path RTTs, first-hop delays and system costs.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A distribution over delays, sampled in milliseconds.
///
/// Path latencies in the crowdsourced dataset are long-tailed, which is why
/// the paper reports medians rather than means (§4.2.2); the log-normal
/// variants here are parameterised by their median for that reason.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// A constant delay.
    Constant {
        /// The delay in milliseconds.
        ms: f64,
    },
    /// Uniformly distributed delay in `[lo_ms, hi_ms)`.
    Uniform {
        /// Lower bound in milliseconds.
        lo_ms: f64,
        /// Upper bound in milliseconds.
        hi_ms: f64,
    },
    /// Normally distributed delay, truncated at `min_ms`.
    Normal {
        /// Mean in milliseconds.
        mean_ms: f64,
        /// Standard deviation in milliseconds.
        std_ms: f64,
        /// Lower truncation bound in milliseconds.
        min_ms: f64,
    },
    /// Log-normal delay parameterised by its median, shifted by a floor.
    ///
    /// `floor_ms` models the propagation component that no amount of luck can
    /// beat (e.g., the ~43 ms minimum the paper observes for Cricket and U.S.
    /// Cellular DNS, §4.2.3).
    LogNormal {
        /// Median of the variable part in milliseconds.
        median_ms: f64,
        /// Sigma of the underlying normal distribution.
        sigma: f64,
        /// Additive floor in milliseconds.
        floor_ms: f64,
    },
}

impl LatencyModel {
    /// A uniform delay between `lo_ms` and `hi_ms`.
    pub fn uniform(lo_ms: f64, hi_ms: f64) -> Self {
        LatencyModel::Uniform { lo_ms, hi_ms }
    }

    /// A log-normal delay with explicit tail weight and floor.
    pub fn lognormal_with(median_ms: f64, sigma: f64, floor_ms: f64) -> Self {
        LatencyModel::LogNormal { median_ms, sigma, floor_ms }
    }

    /// Samples a delay in milliseconds.
    pub fn sample_ms(&self, rng: &mut SimRng) -> f64 {
        match self {
            LatencyModel::Constant { ms } => *ms,
            LatencyModel::Uniform { lo_ms, hi_ms } => rng.uniform(*lo_ms, *hi_ms),
            LatencyModel::Normal { mean_ms, std_ms, min_ms } => {
                rng.normal(*mean_ms, *std_ms).max(*min_ms)
            }
            LatencyModel::LogNormal { median_ms, sigma, floor_ms } => {
                floor_ms + rng.lognormal_median(*median_ms, *sigma)
            }
        }
        .max(0.0)
    }

    /// Samples a delay as a [`SimDuration`].
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_millis_f64(self.sample_ms(rng))
    }

    /// The nominal (median-ish) value of the model in milliseconds, used when
    /// a deterministic summary is needed without sampling.
    pub fn nominal_ms(&self) -> f64 {
        match self {
            LatencyModel::Constant { ms } => *ms,
            LatencyModel::Uniform { lo_ms, hi_ms } => (lo_ms + hi_ms) / 2.0,
            LatencyModel::Normal { mean_ms, min_ms, .. } => mean_ms.max(*min_ms),
            LatencyModel::LogNormal { median_ms, floor_ms, .. } => floor_ms + median_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_of(model: &LatencyModel, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..n).map(|_| model.sample_ms(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        v[n / 2]
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant { ms: 76.0 };
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(m.sample_ms(&mut rng), 76.0);
        }
        assert_eq!(m.nominal_ms(), 76.0);
    }

    #[test]
    fn lognormal_median_tracks_parameter() {
        for target in [33.0, 58.0, 281.0] {
            let m = LatencyModel::lognormal_with(target, 0.45, 0.0);
            let med = median_of(&m, 4001, 9);
            assert!((med - target).abs() / target < 0.12, "median {med} vs target {target}");
        }
    }

    #[test]
    fn floor_bounds_minimum() {
        let m = LatencyModel::lognormal_with(20.0, 0.6, 43.0);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..2000 {
            assert!(m.sample_ms(&mut rng) >= 43.0);
        }
    }

    #[test]
    fn samples_never_negative() {
        let m = LatencyModel::Normal { mean_ms: 1.0, std_ms: 10.0, min_ms: 0.0 };
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..2000 {
            assert!(m.sample_ms(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn sample_duration_roundtrip() {
        let m = LatencyModel::Constant { ms: 2.5 };
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng).as_micros(), 2500);
    }

    #[test]
    fn clone_and_eq_derive_work() {
        let m = LatencyModel::lognormal_with(46.0, 0.45, 755.0);
        assert_eq!(m.clone(), m);
    }
}
