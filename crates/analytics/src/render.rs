//! Plain-text rendering of tables and CDF series for `EXPERIMENTS.md` and the
//! `repro` binary.

use mop_measure::{Cdf, RttSketch, WindowedAggregateStore};

use crate::diagnose::epoch_series;

/// Renders a table with a header row and aligned columns.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a run's live epochs as an aligned table — one row per epoch,
/// with the epoch's start time in virtual seconds, its sample count and its
/// TCP median/p95. The longitudinal view behind the `report` binary's
/// `--epochs` flag.
pub fn render_epoch_table(title: &str, windows: &WindowedAggregateStore) -> String {
    let width_ns = windows.width_ns();
    let rows: Vec<Vec<String>> = epoch_series(windows)
        .into_iter()
        .map(|point| {
            let start_s = (point.epoch * width_ns) as f64 / 1e9;
            let fmt =
                |value: Option<f64>| value.map_or_else(|| "-".to_string(), |ms| format!("{ms:.1}"));
            vec![
                point.epoch.to_string(),
                format!("{start_s:.1}"),
                point.samples.to_string(),
                fmt(point.median_ms),
                fmt(point.p95_ms),
            ]
        })
        .collect();
    render_table(title, &["epoch", "start (s)", "samples", "tcp p50 (ms)", "tcp p95 (ms)"], &rows)
}

/// Renders a CDF as `x<TAB>F(x)` rows, one series per call.
pub fn render_cdf_series(label: &str, cdf: &Cdf, x_max: f64, points: usize) -> String {
    let mut out = format!("# CDF: {label} ({} samples)\n", cdf.len());
    for (x, f) in cdf.series(x_max, points) {
        out.push_str(&format!("{x:.1}\t{f:.4}\n"));
    }
    out
}

/// Renders a sketch's CDF as `x<TAB>F(x)` rows — the same format as
/// [`render_cdf_series`], read from the constant-memory aggregate instead of
/// a sample vector.
pub fn render_sketch_series(label: &str, sketch: &RttSketch, x_max: f64, points: usize) -> String {
    let mut out = format!("# CDF: {label} ({} samples)\n", sketch.count());
    for (x, f) in sketch.series(x_max, points) {
        out.push_str(&format!("{x:.1}\t{f:.4}\n"));
    }
    out
}

/// The relay's loss-recovery tallies for one run, ready to render. All
/// counters are zero on clean networks (no recovery state is ever created),
/// so reports usually show this section only when something actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LossRecoverySummary {
    /// The congestion-control algorithm label ("reno", "cubic").
    pub congestion: &'static str,
    /// Data segments retransmitted towards apps (fast + RTO paths).
    pub retransmits: u64,
    /// Fast-retransmit events (third duplicate ACK).
    pub fast_retransmits: u64,
    /// Retransmission-timer fires that resent a segment.
    pub rto_fires: u64,
    /// In-flight segments covered by SACK blocks from apps.
    pub sacked_segments: u64,
}

impl LossRecoverySummary {
    /// True if any recovery machinery fired during the run.
    pub fn any_fired(&self) -> bool {
        self.retransmits + self.fast_retransmits + self.rto_fires + self.sacked_segments > 0
    }
}

/// Renders the loss-recovery tallies as a one-row table (the crowd report's
/// loss section).
pub fn render_loss_recovery(summary: &LossRecoverySummary) -> String {
    render_table(
        "Loss recovery (data-path faults survived by the relay)",
        &["cc", "retransmits", "fast rtx", "RTO fires", "SACKed segs"],
        &[vec![
            summary.congestion.to_string(),
            summary.retransmits.to_string(),
            summary.fast_retransmits.to_string(),
            summary.rto_fires.to_string(),
            summary.sacked_segments.to_string(),
        ]],
    )
}

/// Formats a float with one decimal, using "n/a" for non-finite values.
pub fn fmt_ms(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "n/a".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let text = render_table(
            "Table X: demo",
            &["name", "value"],
            &[vec!["Google".into(), "4.3".into()], vec!["Dropbox".into(), "284.5".into()]],
        );
        assert!(text.starts_with("Table X: demo\n"));
        assert!(text.contains("name"));
        assert!(text.contains("Dropbox  284.5"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn cdf_series_renders_requested_points() {
        let cdf = Cdf::from_values(&[10.0, 20.0, 30.0, 40.0]);
        let text = render_cdf_series("demo", &cdf, 40.0, 5);
        assert!(text.starts_with("# CDF: demo (4 samples)"));
        assert_eq!(text.lines().count(), 6);
        assert!(text.trim_end().ends_with("1.0000"));
    }

    #[test]
    fn sketch_series_matches_the_cdf_format() {
        let sketch: RttSketch = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        let text = render_sketch_series("demo", &sketch, 40.0, 5);
        assert!(text.starts_with("# CDF: demo (4 samples)"));
        assert_eq!(text.lines().count(), 6);
        assert!(text.trim_end().ends_with("1.0000"));
    }

    #[test]
    fn fmt_ms_handles_nan() {
        assert_eq!(fmt_ms(12.34), "12.3");
        assert_eq!(fmt_ms(f64::NAN), "n/a");
    }

    #[test]
    fn loss_recovery_summary_renders_and_detects_quiet_runs() {
        let quiet = LossRecoverySummary { congestion: "reno", ..Default::default() };
        assert!(!quiet.any_fired());
        let busy = LossRecoverySummary {
            congestion: "cubic",
            retransmits: 12,
            fast_retransmits: 9,
            rto_fires: 3,
            sacked_segments: 40,
        };
        assert!(busy.any_fired());
        let text = render_loss_recovery(&busy);
        assert!(text.starts_with("Loss recovery"));
        assert!(text.contains("cubic"));
        assert!(text.contains("12"));
        assert!(text.contains("40"));
    }
}
