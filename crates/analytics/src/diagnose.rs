//! Per-app and per-ISP diagnosis from streaming aggregates.
//!
//! The point of MopEye's per-app measurement (§1, §4.2.4 of the paper) is to
//! answer the user's actual question: *is this app slow because its servers
//! are slow, or because my network is slow?* The two case studies answer it
//! by hand (WhatsApp: the SoftLayer servers; Jio: the LTE core); this module
//! mechanises the same reasoning over any [`AggregateStore`]:
//!
//! * [`diagnose_apps`] classifies each app by comparing its median RTT on
//!   each network against that network's all-apps baseline — the crowd
//!   control group that a single handset cannot provide,
//! * [`rank_isps`] orders operators by their median RTT for a measurement
//!   kind, the per-ISP league table behind Table 6 and Figure 11.
//!
//! Both run on sketches, so diagnosing a deployment costs O(cells), not
//! O(samples).

use mop_measure::{AggregateStore, MeasurementKind, RttSketch, WindowedAggregateStore};

/// The verdict of a per-app diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The app is much slower than other apps on the same networks: its
    /// server side (placement, peering, hosting) is the bottleneck — the
    /// WhatsApp/SoftLayer situation of Case 1.
    AppSlow,
    /// The app tracks the network baseline, but the baseline itself is slow:
    /// the access network is the bottleneck — the Jio situation of Case 2.
    NetworkSlow,
    /// The app tracks a healthy network baseline.
    Healthy,
}

impl Verdict {
    /// A stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::AppSlow => "app-slow",
            Verdict::NetworkSlow => "network-slow",
            Verdict::Healthy => "healthy",
        }
    }
}

/// The diagnosis of one app.
#[derive(Debug, Clone)]
pub struct AppDiagnosis {
    /// Package name.
    pub app: String,
    /// TCP measurements behind the diagnosis.
    pub samples: u64,
    /// The app's median RTT, in ms.
    pub app_median_ms: f64,
    /// The baseline: the median RTT of *all* apps, weighted to the networks
    /// this app was measured on, in ms.
    pub baseline_median_ms: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Tuning knobs for [`diagnose_apps`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnosisConfig {
    /// Apps with fewer TCP samples than this are skipped (no stable median).
    pub min_samples: u64,
    /// An app whose median exceeds `baseline × app_slow_ratio` is
    /// [`Verdict::AppSlow`].
    pub app_slow_ratio: f64,
    /// A baseline above this (ms) makes a non-app-slow app
    /// [`Verdict::NetworkSlow`].
    pub network_slow_ms: f64,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        // An app at twice its peers' latency is an outlier among apps; a
        // 150 ms all-apps median is a congested or badly-routed access
        // network by the paper's Figure 9/10 standards.
        Self { min_samples: 30, app_slow_ratio: 2.0, network_slow_ms: 150.0 }
    }
}

/// Classifies every app in the aggregates as app-slow, network-slow or
/// healthy. Results are sorted worst-first: app-slow apps by how far they
/// exceed their baseline, then network-slow, then healthy.
pub fn diagnose_apps(aggregates: &AggregateStore, config: DiagnosisConfig) -> Vec<AppDiagnosis> {
    // Three single passes over the cells: per-network all-apps baselines,
    // per-app sketches, and per-(app, network) sample counts. Everything
    // below is lookups, so the whole diagnosis is O(cells), not
    // O(apps × networks × cells).
    let baselines =
        aggregates.group_by(|k| k.network, |k| k.kind == MeasurementKind::Tcp && !k.app.is_empty());
    let per_app = aggregates
        .group_by(|k| k.app.clone(), |k| k.kind == MeasurementKind::Tcp && !k.app.is_empty());
    let per_app_network = aggregates.group_by(
        |k| (k.app.clone(), k.network),
        |k| k.kind == MeasurementKind::Tcp && !k.app.is_empty(),
    );
    let mut out = Vec::new();
    for (app, sketch) in per_app {
        if sketch.count() < config.min_samples {
            continue;
        }
        let Some(app_median) = sketch.median() else { continue };
        // Weight each network's baseline by this app's sample share on it, so
        // an LTE-heavy app is compared against LTE peers, not WiFi ones.
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for (network, baseline) in &baselines {
            let share = per_app_network.get(&(app.clone(), *network)).map_or(0, RttSketch::count);
            if share > 0 {
                if let Some(median) = baseline.median() {
                    weighted += median * share as f64;
                    weight += share as f64;
                }
            }
        }
        let baseline_median = if weight > 0.0 { weighted / weight } else { app_median };
        let verdict = if app_median > baseline_median * config.app_slow_ratio {
            Verdict::AppSlow
        } else if baseline_median > config.network_slow_ms {
            Verdict::NetworkSlow
        } else {
            Verdict::Healthy
        };
        out.push(AppDiagnosis {
            app,
            samples: sketch.count(),
            app_median_ms: app_median,
            baseline_median_ms: baseline_median,
            verdict,
        });
    }
    out.sort_by(|a, b| {
        let severity = |d: &AppDiagnosis| match d.verdict {
            Verdict::AppSlow => 0,
            Verdict::NetworkSlow => 1,
            Verdict::Healthy => 2,
        };
        severity(a)
            .cmp(&severity(b))
            .then(
                (b.app_median_ms / b.baseline_median_ms)
                    .total_cmp(&(a.app_median_ms / a.baseline_median_ms)),
            )
            .then(a.app.cmp(&b.app))
    });
    out
}

/// One row of the per-ISP ranking.
#[derive(Debug, Clone)]
pub struct IspRank {
    /// Operator / Wi-Fi network name.
    pub isp: String,
    /// Measurements behind the row.
    pub samples: u64,
    /// Median RTT, in ms.
    pub median_ms: f64,
    /// 95th-percentile RTT, in ms — the tail the median hides.
    pub p95_ms: f64,
}

/// Ranks ISPs by median RTT for one measurement kind, fastest first
/// (operators with fewer than `min_samples` measurements are skipped). The
/// Table 6 / Figure 11 league table, computed from sketches.
pub fn rank_isps(
    aggregates: &AggregateStore,
    kind: MeasurementKind,
    min_samples: u64,
) -> Vec<IspRank> {
    let per_isp = aggregates.group_by(|k| k.isp.clone(), |k| k.kind == kind && !k.isp.is_empty());
    let mut rows: Vec<IspRank> = per_isp
        .into_iter()
        .filter(|(_, sketch)| sketch.count() >= min_samples)
        .filter_map(|(isp, sketch)| {
            Some(IspRank {
                samples: sketch.count(),
                median_ms: sketch.median()?,
                p95_ms: sketch.quantile(0.95)?,
                isp,
            })
        })
        .collect();
    rows.sort_by(|a, b| a.median_ms.total_cmp(&b.median_ms).then(a.isp.cmp(&b.isp)));
    rows
}

// ----- time-series diagnosis over epoch windows ----------------------------

/// The verdict of a time-series diagnosis over a run's epoch windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendVerdict {
    /// An operator's all-apps baseline worsened across the run: the access
    /// network degraded, and apps on it got slow *together* — the mid-day
    /// cell-congestion shape.
    IspDegraded,
    /// One app worsened against a baseline that did not: its server side
    /// regressed mid-run while the network stayed put.
    AppRegressed,
    /// The subject's late epochs track its early ones.
    Stable,
}

impl TrendVerdict {
    /// A stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrendVerdict::IspDegraded => "isp-degraded",
            TrendVerdict::AppRegressed => "app-regressed",
            TrendVerdict::Stable => "stable",
        }
    }
}

/// The time-series diagnosis of one subject (an app or an ISP).
#[derive(Debug, Clone)]
pub struct TrendDiagnosis {
    /// The app package or operator name.
    pub subject: String,
    /// TCP measurements behind the diagnosis (early + late halves).
    pub samples: u64,
    /// Median RTT over the early half of the observed epochs, in ms.
    pub early_median_ms: f64,
    /// Median RTT over the late half, in ms.
    pub late_median_ms: f64,
    /// The verdict.
    pub verdict: TrendVerdict,
}

impl TrendDiagnosis {
    /// How much the subject slowed down: late median over early median.
    pub fn ratio(&self) -> f64 {
        self.late_median_ms / self.early_median_ms
    }
}

/// Tuning knobs for [`diagnose_trends`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendConfig {
    /// Subjects with fewer TCP samples than this in *either* half are
    /// skipped (no stable per-half median).
    pub min_samples: u64,
    /// A subject whose late median exceeds `early × degraded_ratio` has
    /// worsened.
    pub degraded_ratio: f64,
    /// An app only counts as regressed if it worsened this much *more* than
    /// the all-apps baseline did — apps riding a degrading network are the
    /// network's fault, not theirs.
    pub relative_margin: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        // Half again slower is a visible regression; the margin keeps an app
        // from being blamed for a network that dragged everyone down.
        Self { min_samples: 20, degraded_ratio: 1.5, relative_margin: 1.25 }
    }
}

/// Splits the observed epoch span in half and merges each half's live
/// epochs into one aggregate. The windowed store is bit-identical for any
/// shard count (and any merge order), so the halves — and every verdict
/// derived from them — are too.
fn split_halves(windows: &WindowedAggregateStore) -> (AggregateStore, AggregateStore) {
    let epochs = windows.live_epochs();
    let mut early = AggregateStore::new();
    let mut late = AggregateStore::new();
    let (Some(&first), Some(&last)) = (epochs.first(), epochs.last()) else {
        return (early, late);
    };
    // Epochs strictly past the span midpoint are "late"; a one-epoch span
    // has no late half and diagnoses everything stable.
    let mid = first + (last - first) / 2;
    let (mut early_stores, mut late_stores) = (Vec::new(), Vec::new());
    for &epoch in &epochs {
        let store = windows.epoch_store(epoch).expect("live epoch has a store");
        if epoch > mid {
            late_stores.push(store);
        } else {
            early_stores.push(store);
        }
    }
    early.merge_from_all(&early_stores);
    late.merge_from_all(&late_stores);
    (early, late)
}

/// Classifies every ISP and app by comparing its median RTT over the late
/// half of the run's epochs against the early half. ISPs whose baseline
/// worsened are [`TrendVerdict::IspDegraded`]; apps that worsened *more than
/// their baseline did* are [`TrendVerdict::AppRegressed`]; everything else
/// is stable. Results are sorted worst-first by slow-down ratio.
///
/// Only the window's live epochs participate: the folded tail has no epoch
/// resolution. Size the epoch window to cover the span being diagnosed.
pub fn diagnose_trends(
    windows: &WindowedAggregateStore,
    config: TrendConfig,
) -> Vec<TrendDiagnosis> {
    let (early, late) = split_halves(windows);
    let tcp_isp =
        |k: &mop_measure::AggregateKey| k.kind == MeasurementKind::Tcp && !k.isp.is_empty();
    let tcp_app =
        |k: &mop_measure::AggregateKey| k.kind == MeasurementKind::Tcp && !k.app.is_empty();
    let early_isps = early.group_by(|k| k.isp.clone(), tcp_isp);
    let late_isps = late.group_by(|k| k.isp.clone(), tcp_isp);
    let early_apps = early.group_by(|k| k.app.clone(), tcp_app);
    let late_apps = late.group_by(|k| k.app.clone(), tcp_app);
    let baseline_ratio = {
        let early_all = early.sketch_where(tcp_app);
        let late_all = late.sketch_where(tcp_app);
        match (early_all.median(), late_all.median()) {
            (Some(e), Some(l)) if e > 0.0 => l / e,
            _ => 1.0,
        }
    };

    let mut out = Vec::new();
    for (isp, early_sketch) in &early_isps {
        let Some(late_sketch) = late_isps.get(isp) else { continue };
        if early_sketch.count() < config.min_samples || late_sketch.count() < config.min_samples {
            continue;
        }
        let (Some(early_med), Some(late_med)) = (early_sketch.median(), late_sketch.median())
        else {
            continue;
        };
        let verdict = if late_med > early_med * config.degraded_ratio {
            TrendVerdict::IspDegraded
        } else {
            TrendVerdict::Stable
        };
        out.push(TrendDiagnosis {
            subject: isp.clone(),
            samples: early_sketch.count() + late_sketch.count(),
            early_median_ms: early_med,
            late_median_ms: late_med,
            verdict,
        });
    }
    for (app, early_sketch) in &early_apps {
        let Some(late_sketch) = late_apps.get(app) else { continue };
        if early_sketch.count() < config.min_samples || late_sketch.count() < config.min_samples {
            continue;
        }
        let (Some(early_med), Some(late_med)) = (early_sketch.median(), late_sketch.median())
        else {
            continue;
        };
        let ratio = if early_med > 0.0 { late_med / early_med } else { 1.0 };
        let verdict =
            if ratio > config.degraded_ratio && ratio > baseline_ratio * config.relative_margin {
                TrendVerdict::AppRegressed
            } else {
                TrendVerdict::Stable
            };
        out.push(TrendDiagnosis {
            subject: app.clone(),
            samples: early_sketch.count() + late_sketch.count(),
            early_median_ms: early_med,
            late_median_ms: late_med,
            verdict,
        });
    }
    out.sort_by(|a, b| {
        let severity = |d: &TrendDiagnosis| match d.verdict {
            TrendVerdict::IspDegraded | TrendVerdict::AppRegressed => 0,
            TrendVerdict::Stable => 1,
        };
        severity(a)
            .cmp(&severity(b))
            .then(b.ratio().total_cmp(&a.ratio()))
            .then(a.subject.cmp(&b.subject))
    });
    out
}

/// Every live verdict in one bundle: the app-slow-vs-network-slow
/// classification over everything the window has seen (tail included) plus
/// the early-vs-late trend diagnosis over the live epochs. This is the
/// payload of the control plane's `diagnose.query`.
#[derive(Debug, Clone)]
pub struct LiveDiagnosis {
    /// Per-app verdicts over the merged window (tail + live epochs).
    pub apps: Vec<AppDiagnosis>,
    /// Per-subject trend verdicts over the live epochs.
    pub trends: Vec<TrendDiagnosis>,
}

/// Diagnoses a windowed store in place: apps against their crowd baseline
/// over the full merged view, and trends across the live epoch span. Safe on
/// degenerate stores — empty, single-epoch, or fully folded windows simply
/// produce fewer (or no) verdicts.
pub fn diagnose_live(
    windows: &WindowedAggregateStore,
    apps: DiagnosisConfig,
    trends: TrendConfig,
) -> LiveDiagnosis {
    LiveDiagnosis {
        apps: diagnose_apps(&windows.merged(), apps),
        trends: diagnose_trends(windows, trends),
    }
}

/// One epoch of a run's time series, ready to render.
#[derive(Debug, Clone)]
pub struct EpochPoint {
    /// The epoch index (sample timestamp divided by the epoch width).
    pub epoch: u64,
    /// Measurements in the epoch.
    pub samples: u64,
    /// Median TCP RTT, in ms (`None` when the epoch has no TCP samples).
    pub median_ms: Option<f64>,
    /// 95th-percentile TCP RTT, in ms.
    pub p95_ms: Option<f64>,
}

/// The run's live epochs as a TCP-RTT time series, oldest first — the rows
/// of the epoch table.
pub fn epoch_series(windows: &WindowedAggregateStore) -> Vec<EpochPoint> {
    windows
        .live_epochs()
        .into_iter()
        .map(|epoch| {
            let store = windows.epoch_store(epoch).expect("live epoch has a store");
            let sketch = store.sketch_where(|k| k.kind == MeasurementKind::Tcp);
            EpochPoint {
                epoch,
                samples: store.sample_count(),
                median_ms: sketch.median(),
                p95_ms: sketch.quantile(0.95),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_measure::{NetKind, RttRecord};

    /// A small deployment: two healthy apps, one with a slow server, all on
    /// a fast network — plus one app on a slow network.
    fn aggregates() -> AggregateStore {
        let mut agg = AggregateStore::new();
        for i in 0..200u32 {
            let jitter = f64::from(i % 17);
            agg.observe(&RttRecord::tcp(40.0 + jitter, 1, "com.fast.a", NetKind::Wifi));
            agg.observe(&RttRecord::tcp(48.0 + jitter, 1, "com.fast.b", NetKind::Wifi));
            // Same network, far-away servers (the WhatsApp shape).
            agg.observe(&RttRecord::tcp(260.0 + jitter, 2, "com.slowserver", NetKind::Wifi));
            // Slow network, server no slower than its peers (the Jio shape).
            agg.observe(&RttRecord::tcp(290.0 + jitter, 3, "com.on3g", NetKind::Umts3g));
        }
        agg
    }

    #[test]
    fn classifies_app_slow_vs_network_slow() {
        let diagnoses = diagnose_apps(&aggregates(), DiagnosisConfig::default());
        let verdict_of =
            |app: &str| diagnoses.iter().find(|d| d.app == app).map(|d| d.verdict).unwrap();
        assert_eq!(verdict_of("com.fast.a"), Verdict::Healthy);
        assert_eq!(verdict_of("com.fast.b"), Verdict::Healthy);
        assert_eq!(verdict_of("com.slowserver"), Verdict::AppSlow);
        assert_eq!(verdict_of("com.on3g"), Verdict::NetworkSlow);
        // Worst first: the app-slow app leads the report.
        assert_eq!(diagnoses[0].app, "com.slowserver");
        assert!(diagnoses[0].app_median_ms > diagnoses[0].baseline_median_ms * 2.0);
    }

    #[test]
    fn small_apps_are_skipped_and_labels_are_stable() {
        let mut agg = aggregates();
        for _ in 0..5 {
            agg.observe(&RttRecord::tcp(900.0, 4, "com.tiny", NetKind::Wifi));
        }
        let diagnoses = diagnose_apps(&agg, DiagnosisConfig::default());
        assert!(diagnoses.iter().all(|d| d.app != "com.tiny"), "below min_samples");
        assert_eq!(Verdict::AppSlow.label(), "app-slow");
        assert_eq!(Verdict::NetworkSlow.label(), "network-slow");
        assert_eq!(Verdict::Healthy.label(), "healthy");
    }

    #[test]
    fn isp_ranking_orders_by_median() {
        let mut agg = AggregateStore::new();
        for i in 0..100u32 {
            let jitter = f64::from(i % 13);
            agg.observe(&RttRecord::dns(20.0 + jitter, 1, NetKind::Lte).with_isp("FastTel"));
            agg.observe(&RttRecord::dns(95.0 + jitter, 2, NetKind::Lte).with_isp("SlowTel"));
        }
        let ranks = rank_isps(&agg, MeasurementKind::Dns, 10);
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[0].isp, "FastTel");
        assert_eq!(ranks[1].isp, "SlowTel");
        assert!(ranks[0].median_ms < ranks[1].median_ms);
        assert!(ranks[0].p95_ms >= ranks[0].median_ms);
        assert_eq!(ranks[0].samples, 100);
        // Nothing ranks for a kind with no samples above the floor.
        assert!(rank_isps(&agg, MeasurementKind::Tcp, 10).is_empty());
    }

    /// Stamps `n` TCP samples for one (app, isp) into the epoch containing
    /// second `at_s`, with a small deterministic jitter.
    fn stamp(
        windows: &mut WindowedAggregateStore,
        at_s: u64,
        app: &str,
        isp: &str,
        device: u32,
        rtt_ms: f64,
        n: usize,
    ) {
        for i in 0..n {
            windows.observe_parts(
                at_s * 1_000_000_000 + i as u64 * 1_000,
                MeasurementKind::Tcp,
                NetKind::Lte,
                app,
                "example.com",
                isp,
                device + i as u32 % 5,
                "",
                rtt_ms + f64::from(i as u32 % 7),
            );
        }
    }

    /// A mid-day ISP degradation: every app on the operator slows down
    /// together in the late epochs.
    fn isp_degradation_day() -> WindowedAggregateStore {
        let mut windows = WindowedAggregateStore::new(1_000_000_000, 16);
        for hour in 0..8u64 {
            let rtt = if hour >= 4 { 160.0 } else { 45.0 };
            stamp(&mut windows, hour, "com.app.alpha", "SimTel LTE", 10, rtt, 30);
            stamp(&mut windows, hour, "com.app.beta", "SimTel LTE", 20, rtt + 5.0, 30);
        }
        windows
    }

    /// A mid-day app regression: one minority app slows down while the
    /// majority app — and therefore the baseline — stays put.
    fn app_regression_day() -> WindowedAggregateStore {
        let mut windows = WindowedAggregateStore::new(1_000_000_000, 16);
        for hour in 0..8u64 {
            stamp(&mut windows, hour, "com.app.steady", "SimTel LTE", 10, 45.0, 90);
            let rtt = if hour >= 4 { 200.0 } else { 50.0 };
            stamp(&mut windows, hour, "com.app.regressed", "SimTel LTE", 20, rtt, 30);
        }
        windows
    }

    fn verdict_of(diagnoses: &[TrendDiagnosis], subject: &str) -> TrendVerdict {
        diagnoses.iter().find(|d| d.subject == subject).expect(subject).verdict
    }

    #[test]
    fn trend_diagnosis_flags_a_degraded_isp_not_its_apps() {
        let diagnoses = diagnose_trends(&isp_degradation_day(), TrendConfig::default());
        assert_eq!(verdict_of(&diagnoses, "SimTel LTE"), TrendVerdict::IspDegraded);
        // The apps slowed down exactly as much as the crowd: the network's
        // fault, not theirs.
        assert_eq!(verdict_of(&diagnoses, "com.app.alpha"), TrendVerdict::Stable);
        assert_eq!(verdict_of(&diagnoses, "com.app.beta"), TrendVerdict::Stable);
        // Worst first.
        assert_eq!(diagnoses[0].subject, "SimTel LTE");
        assert!(diagnoses[0].ratio() > 2.0);
        assert_eq!(TrendVerdict::IspDegraded.label(), "isp-degraded");
    }

    #[test]
    fn trend_diagnosis_flags_a_regressed_app_not_its_isp() {
        let diagnoses = diagnose_trends(&app_regression_day(), TrendConfig::default());
        assert_eq!(verdict_of(&diagnoses, "com.app.regressed"), TrendVerdict::AppRegressed);
        assert_eq!(verdict_of(&diagnoses, "com.app.steady"), TrendVerdict::Stable);
        // The majority app keeps the operator's baseline flat.
        assert_eq!(verdict_of(&diagnoses, "SimTel LTE"), TrendVerdict::Stable);
        assert_eq!(diagnoses[0].subject, "com.app.regressed");
    }

    #[test]
    fn trend_diagnosis_is_identical_for_any_shard_partition() {
        // Rebuild the degradation day as three per-shard windows (samples
        // partitioned by device) and merge them in two different orders: the
        // diagnosis must be bit-identical to the unpartitioned store's.
        let whole = isp_degradation_day();
        let build_shard = |keep: u32| {
            let mut windows = WindowedAggregateStore::new(1_000_000_000, 16);
            for hour in 0..8u64 {
                let rtt = if hour >= 4 { 160.0 } else { 45.0 };
                if keep == 0 {
                    stamp(&mut windows, hour, "com.app.alpha", "SimTel LTE", 10, rtt, 30);
                } else {
                    stamp(&mut windows, hour, "com.app.beta", "SimTel LTE", 20, rtt + 5.0, 30);
                }
            }
            windows
        };
        let (a, b) = (build_shard(0), build_shard(1));
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab.digest(), whole.digest(), "partitioned merge == direct observation");
        assert_eq!(ba.digest(), whole.digest(), "merge order is irrelevant");
        for merged in [&ab, &ba] {
            let diagnoses = diagnose_trends(merged, TrendConfig::default());
            let reference = diagnose_trends(&whole, TrendConfig::default());
            assert_eq!(diagnoses.len(), reference.len());
            for (d, r) in diagnoses.iter().zip(&reference) {
                assert_eq!(d.subject, r.subject);
                assert_eq!(d.verdict, r.verdict);
                assert_eq!(d.early_median_ms.to_bits(), r.early_median_ms.to_bits());
                assert_eq!(d.late_median_ms.to_bits(), r.late_median_ms.to_bits());
            }
        }
    }

    #[test]
    fn epoch_series_walks_the_live_epochs_in_order() {
        let windows = isp_degradation_day();
        let series = epoch_series(&windows);
        assert_eq!(series.len(), 8);
        assert!(series.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert!(series.iter().all(|p| p.samples == 60));
        let early = series[0].median_ms.unwrap();
        let late = series[7].median_ms.unwrap();
        assert!(late > early * 2.0, "mid-day degradation visible per epoch: {early} → {late}");
        // Render smoke: a row per epoch plus title, header, rule.
        let table = crate::render::render_epoch_table("day", &windows);
        assert_eq!(table.lines().count(), 3 + 8);
        assert!(table.contains("tcp p50"));
    }

    #[test]
    fn trend_diagnosis_of_an_empty_window_is_empty() {
        let windows = WindowedAggregateStore::new(1_000_000_000, 16);
        assert!(diagnose_trends(&windows, TrendConfig::default()).is_empty());
        let live = diagnose_live(&windows, DiagnosisConfig::default(), TrendConfig::default());
        assert!(live.apps.is_empty());
        assert!(live.trends.is_empty());
    }

    #[test]
    fn trend_diagnosis_of_a_single_epoch_window_is_all_stable() {
        // One live epoch: the span has no late half, so nothing can have a
        // late median above min_samples and nothing is flagged.
        let mut windows = WindowedAggregateStore::new(1_000_000_000, 16);
        stamp(&mut windows, 0, "com.app.alpha", "SimTel LTE", 10, 45.0, 60);
        let diagnoses = diagnose_trends(&windows, TrendConfig::default());
        assert!(
            diagnoses.is_empty(),
            "a one-epoch span has no late half to diagnose: {diagnoses:?}"
        );
        // The merged-view app diagnosis still works on the same store.
        let live = diagnose_live(&windows, DiagnosisConfig::default(), TrendConfig::default());
        assert_eq!(live.apps.len(), 1);
        assert_eq!(live.apps[0].verdict, Verdict::Healthy);
    }

    #[test]
    fn trend_diagnosis_with_all_flows_on_one_app_blames_the_network() {
        // A single app degrading IS the baseline degrading: the ISP is
        // flagged, the app is not (its ratio cannot exceed the baseline's by
        // the relative margin when it is the whole crowd).
        let mut windows = WindowedAggregateStore::new(1_000_000_000, 16);
        for hour in 0..8u64 {
            let rtt = if hour >= 4 { 180.0 } else { 45.0 };
            stamp(&mut windows, hour, "com.app.only", "SimTel LTE", 10, rtt, 40);
        }
        let diagnoses = diagnose_trends(&windows, TrendConfig::default());
        assert_eq!(verdict_of(&diagnoses, "SimTel LTE"), TrendVerdict::IspDegraded);
        assert_eq!(verdict_of(&diagnoses, "com.app.only"), TrendVerdict::Stable);
    }

    #[test]
    fn trend_diagnosis_of_a_tail_only_store_is_empty_but_apps_still_diagnose() {
        // A store whose samples have all folded into the tail (no live ring
        // entries) has no epoch resolution: trends must come back empty
        // without panicking, while the merged view still carries every
        // sample for the app diagnosis.
        let mut windows = isp_degradation_day();
        let json = mop_json::to_value(&windows);
        // Rebuild the store with the live epochs stripped: everything that
        // was live is folded, max_epoch untouched.
        let folded_only = mop_json::json!({
            "width_ns": json["width_ns"].as_i64().unwrap(),
            "window": json["window"].as_i64().unwrap(),
            "max_epoch": json["max_epoch"].as_i64().unwrap(),
            "folded": mop_json::to_value(&windows.merged()),
            "epochs": Vec::<mop_json::Value>::new(),
        });
        windows = mop_json::from_value(&folded_only).unwrap();
        assert!(windows.live_epochs().is_empty());
        assert_eq!(windows.folded().sample_count(), windows.sample_count());

        assert!(diagnose_trends(&windows, TrendConfig::default()).is_empty());
        let live = diagnose_live(&windows, DiagnosisConfig::default(), TrendConfig::default());
        assert!(live.trends.is_empty());
        assert!(!live.apps.is_empty(), "the tail still feeds the merged app diagnosis");
    }

    #[test]
    fn app_sketch_drills_down() {
        let agg = aggregates();
        let app_sketch =
            |app: &str| agg.sketch_where(|k| k.kind == MeasurementKind::Tcp && k.app == app);
        let sketch = app_sketch("com.slowserver");
        assert_eq!(sketch.count(), 200);
        assert!(sketch.median().unwrap() > 200.0);
        assert!(app_sketch("com.absent").is_empty());
    }
}
