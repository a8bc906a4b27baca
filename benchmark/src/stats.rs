//! Order statistics for timing samples.
//!
//! **Fastest observation first.** The reference host is a small shared VM
//! whose neighbours slow a core down by up to 40 % in bursts of tens of
//! milliseconds: over 15 s windows the *median* of identical 5 ms ALU units
//! moved by 30 %, their *minimum* by 0.25 % (README.md, "Noise"). Contention
//! only ever adds time, so every wall-clock figure is built from the fastest
//! observation of each distinct operation ([`Repeated::fastest`]). Where a
//! workload has many distinct operations (the served loop's steps), the
//! reported figure is the median — and, where the count supports one, a tail
//! percentile — *over those operations*, chosen by the rule "the highest
//! percentile that still has at least ten samples beyond it", so a p95 is
//! never quoted from twenty samples.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder step latencies choose their tail from.
pub const STEP_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 95.0];

/// The ladder request latencies choose their tail from (they have thousands
/// of samples, so p99 is usually supported).
pub const RPC_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The smallest value; `NaN` for an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Timings of a sequence of distinct operations that was repeated:
/// `ops[i]` holds every observation of the `i`-th operation (a batch rep is
/// one operation observed many times; the served loop's step `i` is one
/// operation observed once per round).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Repeated {
    ops: Vec<Vec<f64>>,
}

impl Repeated {
    /// Records one more observation of operation `op`.
    pub fn push(&mut self, op: usize, value: f64) {
        if self.ops.len() <= op {
            self.ops.resize(op + 1, Vec::new());
        }
        self.ops[op].push(value);
    }

    /// The fastest observation of each operation, in operation order.
    pub fn fastest(&self) -> Vec<f64> {
        self.ops.iter().map(|seen| fastest(seen)).collect()
    }

    /// Observations recorded, over all operations.
    pub fn observations(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }
}

/// The median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Percentile `p` (0–100) of already **sorted** data, interpolating
/// linearly between the two closest ranks; `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// spreads this harness prints agree with the driver's. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The interquartile distance as a share of the median — the spread the
/// driver holds against each metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile on `ladder` (ascending) that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the ladder's first rung when
/// none does.
pub fn supported_percentile(n: usize, ladder: &[f64]) -> f64 {
    ladder
        .iter()
        .copied()
        .rev()
        .find(|p| n.saturating_sub((n as f64 * p / 100.0).ceil() as usize) >= MIN_BEYOND)
        .unwrap_or(ladder[0])
}

/// Median, supported tail percentile and sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// Which percentile `tail` is (see [`supported_percentile`]).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarises `samples`, choosing the tail from `ladder`.
pub fn summarise(samples: &[f64], ladder: &[f64]) -> Summary {
    let data = sorted(samples);
    let tail_pct = supported_percentile(data.len(), ladder);
    Summary {
        n: data.len(),
        median: percentile(&data, 50.0),
        tail_pct,
        tail: percentile(&data, tail_pct),
    }
}

/// Median of the last tenth of `samples` over the median of the first
/// tenth — how much a latency grew while state accumulated. `None` below
/// twenty samples.
pub fn decile_growth(samples: &[f64]) -> Option<f64> {
    let tenth = samples.len() / 10;
    if tenth < 2 {
        return None;
    }
    let first = median(&samples[..tenth]);
    let last = median(&samples[samples.len() - tenth..]);
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_is_the_minimum_per_distinct_operation() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
        let mut steps = Repeated::default();
        // Two rounds of a three-step sequence, the second round contended.
        for (op, ms) in [(0, 1.0), (1, 4.0), (2, 2.0), (0, 1.4), (1, 3.5), (2, 2.9)] {
            steps.push(op, ms);
        }
        assert_eq!(steps.fastest(), [1.0, 3.5, 2.0]);
        assert_eq!(steps.observations(), 6);
        assert_eq!(median(&steps.fastest()), 2.0);
        assert!(Repeated::default().fastest().is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), Some([2.0, 7.0, 10.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = iqr_share(&ten).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // Three reps: nothing but the median is supported.
        assert_eq!(supported_percentile(3, &STEP_LADDER), 50.0);
        // 28 reps: p50 leaves 14 beyond, p75 only 7.
        assert_eq!(supported_percentile(28, &STEP_LADDER), 50.0);
        assert_eq!(supported_percentile(40, &STEP_LADDER), 75.0);
        assert_eq!(supported_percentile(100, &STEP_LADDER), 90.0);
        assert_eq!(supported_percentile(199, &STEP_LADDER), 90.0);
        assert_eq!(supported_percentile(200, &STEP_LADDER), 95.0);
        assert_eq!(supported_percentile(4_800, &STEP_LADDER), 95.0);
        assert_eq!(supported_percentile(999, &RPC_LADDER), 95.0);
        assert_eq!(supported_percentile(1_000, &RPC_LADDER), 99.0);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=400).map(f64::from).collect();
        let s = summarise(&samples, &STEP_LADDER);
        assert_eq!(s.n, 400);
        assert_eq!(s.median, 200.5);
        assert_eq!(s.tail_pct, 95.0);
        assert!((s.tail - 380.05).abs() < 1e-9, "{}", s.tail);
    }

    #[test]
    fn growth_compares_last_decile_to_first() {
        let ramp: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i)).collect();
        let growth = decile_growth(&ramp).unwrap();
        assert!((growth - 95.5 / 5.5).abs() < 1e-9, "{growth}");
        assert_eq!(decile_growth(&[1.0; 19]), None);
    }
}
