//! Statistics helpers: percentiles, summaries, CDFs and histograms.
//!
//! The paper reports medians almost everywhere ("We choose the median over
//! the mean value because the median is less affected by RTT outliers",
//! §4.2.2) and presents distributions as CDFs; Table 1 uses fixed histogram
//! bins. These are the corresponding primitives.

/// Computes the `p`-th percentile (0–100) of `values` by linear
/// interpolation. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0) / 100.0;
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// A five-number-plus-mean summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `values`. Returns `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Self> {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        let mean = finite.iter().sum::<f64>() / finite.len() as f64;
        Some(Self {
            count: finite.len(),
            min: percentile(&finite, 0.0)?,
            p25: percentile(&finite, 25.0)?,
            median: percentile(&finite, 50.0)?,
            p75: percentile(&finite, 75.0)?,
            p95: percentile(&finite, 95.0)?,
            max: percentile(&finite, 100.0)?,
            mean,
        })
    }
}

/// An empirical CDF, stored as sorted values.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples.
    pub fn from_values(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The fraction of samples at or below `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The value below which `q` (0–1) of the samples fall.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        percentile(&self.sorted, q * 100.0)
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Evaluates the CDF at evenly spaced points over `[0, x_max]`, producing
    /// `(x, F(x))` pairs — the series a figure plots.
    pub fn series(&self, x_max: f64, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        (0..points)
            .map(|i| {
                let x = x_max * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

/// A histogram over explicit bin edges, like Table 1's 0–1 / 1–2 / 2–5 /
/// 5–10 / >10 ms delay bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper edges of each bin except the last (which is unbounded).
    pub edges: Vec<f64>,
    /// Counts per bin (`edges.len() + 1` entries).
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with the given upper bin edges (must be ascending).
    pub(crate) fn with_edges(edges: Vec<f64>) -> Self {
        let bins = edges.len() + 1;
        Self { edges, counts: vec![0; bins] }
    }

    /// The Table 1 bin layout: 0–1, 1–2, 2–5, 5–10 and >10 ms.
    pub fn table1_bins() -> Self {
        Self::with_edges(vec![1.0, 2.0, 5.0, 10.0])
    }

    /// Adds one sample.
    pub fn add(&mut self, value: f64) {
        let idx = self.edges.partition_point(|e| value >= *e);
        self.counts[idx] += 1;
    }

    /// Adds many samples.
    pub fn add_all(&mut self, values: &[f64]) {
        for v in values {
            self.add(*v);
        }
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The fraction of samples at or above `edge` (which must be one of the
    /// configured edges); used for "large overhead" rates in Table 1.
    pub fn fraction_at_or_above(&self, edge: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let idx = self.edges.partition_point(|e| *e <= edge);
        let above: u64 = self.counts[idx..].iter().sum();
        above as f64 / total as f64
    }

    /// Human-readable bin labels ("0~1ms", "1~2ms", ..., ">10ms").
    pub fn labels(&self) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.counts.len());
        let mut lower = 0.0;
        for edge in &self.edges {
            labels.push(format!("{}~{}ms", trim(lower), trim(*edge)));
            lower = *edge;
        }
        labels.push(format!(">{}ms", trim(lower)));
        labels
    }
}

fn trim(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
    }

    #[test]
    fn summary_matches_hand_computed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!(s.p25 < s.median && s.median < s.p75 && s.p75 < s.p95);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn cdf_fraction_and_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let cdf = Cdf::from_values(&v);
        assert_eq!(cdf.len(), 1000);
        assert!((cdf.fraction_at_or_below(500.0) - 0.5).abs() < 0.01);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2000.0), 1.0);
        assert!((cdf.median().unwrap() - 500.5).abs() < 1.0);
        let series = cdf.series(1000.0, 11);
        assert_eq!(series.len(), 11);
        assert_eq!(series[0].0, 0.0);
        assert_eq!(series[10].1, 1.0);
        // Monotone non-decreasing.
        assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(Cdf::from_values(&[]).is_empty());
        assert_eq!(Cdf::from_values(&[]).fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    fn histogram_bins_match_table1_layout() {
        let mut h = Histogram::table1_bins();
        h.add_all(&[0.2, 0.9, 1.5, 2.5, 4.0, 7.0, 25.0]);
        assert_eq!(h.counts, vec![2, 1, 2, 1, 1]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.labels(), vec!["0~1ms", "1~2ms", "2~5ms", "5~10ms", ">10ms"]);
        let frac = h.fraction_at_or_above(1.0);
        assert!((frac - 5.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.fraction_at_or_above(10.0), 1.0 / 7.0);
    }

    #[test]
    fn histogram_boundary_values_go_to_upper_bin() {
        let mut h = Histogram::table1_bins();
        h.add(1.0);
        assert_eq!(h.counts, vec![0, 1, 0, 0, 0]);
        h.add(10.0);
        assert_eq!(h.counts[4], 1);
        assert_eq!(Histogram::with_edges(vec![]).total(), 0);
        assert_eq!(Histogram::table1_bins().fraction_at_or_above(1.0), 0.0);
    }
}
