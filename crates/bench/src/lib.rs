//! The MopEye evaluation as a library: the experiments behind the paper's
//! tables and figures, which the `repro` binary writes out and
//! `tests/repro_golden.rs` pins, plus the lean fleet runs behind `report`.

pub mod alloc_counter;

use mop_analytics::diagnose::{diagnose_apps, rank_isps, DiagnosisConfig};
use mop_analytics::render::{fmt_ms, render_cdf_series, render_sketch_series, render_table};
use mop_analytics::{
    CaseJio, CaseWhatsapp, CrowdSummary, Fig10Dns, Fig11IspDns, Fig5Mapping, Fig6Contribution,
    Fig7Countries, Fig8Locations, Fig9AppRtt, Table1TunnelWrite, Table2Accuracy, Table3Throughput,
    Table4Resources, Table5Apps, Table6IspDns,
};
use mop_dataset::{DatasetSpec, Scenario, SyntheticDataset};
use mop_measure::{AggregateStore, MeasurementKind};
use mopeye_core::{CongestionAlgo, FleetConfig, FleetEngine, FleetReport};

/// Default seed used by the repro binary.
pub const REPRO_SEED: u64 = 20170712; // USENIX ATC '17 presentation date.

/// The rendered output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment identifier ("table1", "fig9", "case1", ...).
    pub id: String,
    /// Human-readable text (tables and summaries).
    pub text: String,
    /// Machine-readable series/values as JSON.
    pub json: mop_json::Value,
}

impl ExperimentOutput {
    /// The two files this experiment is written as, `(name, contents)`:
    /// `<id>.txt` holds the text and `<id>.json` the pretty-printed JSON.
    pub fn files(&self) -> [(String, String); 2] {
        [
            (format!("{}.txt", self.id), self.text.clone()),
            (format!("{}.json", self.id), mop_json::to_string_pretty(&self.json)),
        ]
    }
}

/// Every experiment id, in the order [`run_experiments`] runs them: the
/// §3/§4.1 micro-benchmarks, then the §4.2 crowd-dataset experiments.
pub const EXPERIMENTS: [&str; 15] = [
    "fig5", "table1", "table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9", "table5",
    "fig10", "table6", "fig11", "case1", "case2",
];

/// The evaluation's tunable inputs. [`Default`] is the published
/// configuration: what `repro` runs unless told otherwise, and what the
/// golden outputs pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproConfig {
    /// Crowd-dataset scale (1.0 is the paper's full dataset).
    pub scale: f64,
    /// Length of Table 4's HD-video session, in minutes.
    pub video_minutes: u64,
}

impl Default for ReproConfig {
    fn default() -> Self {
        Self { scale: 0.01, video_minutes: 58 }
    }
}

/// Runs every experiment of [`EXPERIMENTS`], or only the one named by
/// `only`, in that order. The crowd dataset is generated only when a §4.2
/// experiment is wanted.
pub fn run_experiments(config: &ReproConfig, only: Option<&str>) -> Vec<ExperimentOutput> {
    let wanted = |id: &str| only.map_or(true, |only| only == id);
    let mut outputs = Vec::new();
    if wanted("fig5") {
        outputs.push(run_fig5(REPRO_SEED));
    }
    if wanted("table1") {
        outputs.push(run_table1(REPRO_SEED, 5_000));
    }
    if wanted("table2") {
        outputs.push(run_table2(REPRO_SEED, 10));
    }
    if wanted("table3") {
        outputs.push(run_table3(REPRO_SEED, 24 * 1024 * 1024));
    }
    if wanted("table4") {
        outputs.push(run_table4(REPRO_SEED, config.video_minutes));
    }
    // Everything after Table 4 reads the crowd dataset.
    if EXPERIMENTS[5..].iter().any(|id| wanted(id)) {
        let dataset = crowd_dataset(config.scale);
        outputs.extend(run_crowd_experiments(&dataset).into_iter().filter(|o| wanted(&o.id)));
    }
    outputs
}

/// Generates the shared crowd dataset used by the §4.2 experiments.
pub(crate) fn crowd_dataset(scale: f64) -> SyntheticDataset {
    SyntheticDataset::generate(DatasetSpec { seed: REPRO_SEED, scale })
}

/// Runs Figure 5 and renders it.
pub(crate) fn run_fig5(seed: u64) -> ExperimentOutput {
    let fig5 = Fig5Mapping::run(seed);
    let before = fig5.before_cdf();
    let after = fig5.after_cdf();
    let mut text = String::new();
    text.push_str(&render_table(
        "Figure 5: packet-to-app mapping overhead per SYN (CDF summary)",
        &["variant", "p25 (ms)", "median (ms)", "p75 (ms)", ">5ms", ">15ms"],
        &[
            vec![
                "before (eager)".into(),
                fmt_ms(before.quantile(0.25).unwrap_or(f64::NAN)),
                fmt_ms(before.median().unwrap_or(f64::NAN)),
                fmt_ms(before.quantile(0.75).unwrap_or(f64::NAN)),
                format!("{:.1}%", 100.0 * (1.0 - before.fraction_at_or_below(5.0))),
                format!("{:.1}%", 100.0 * (1.0 - before.fraction_at_or_below(15.0))),
            ],
            vec![
                "after (lazy)".into(),
                fmt_ms(after.quantile(0.25).unwrap_or(f64::NAN)),
                fmt_ms(after.median().unwrap_or(f64::NAN)),
                fmt_ms(after.quantile(0.75).unwrap_or(f64::NAN)),
                format!("{:.1}%", 100.0 * (1.0 - after.fraction_at_or_below(5.0))),
                format!("{:.1}%", 100.0 * (1.0 - after.fraction_at_or_below(15.0))),
            ],
        ],
    ));
    text.push_str(&format!(
        "mitigation rate: {:.1}% ({} of {} connect threads parsed; paper: 67.8%, 155 of 481)\n",
        100.0 * fig5.mitigation_rate,
        fig5.lazy_parses,
        fig5.total_requests
    ));
    text.push_str(&render_cdf_series("fig5a-before", &before, 30.0, 31));
    text.push_str(&render_cdf_series("fig5b-after", &after, 30.0, 31));
    let json = mop_json::json!({
        "mitigation_rate": fig5.mitigation_rate,
        "lazy_parses": fig5.lazy_parses,
        "total_requests": fig5.total_requests,
        "before_cdf": before.series(30.0, 31),
        "after_cdf": after.series(30.0, 31),
    });
    ExperimentOutput { id: "fig5".into(), text, json }
}

/// Runs Table 1 and renders it.
pub(crate) fn run_table1(seed: u64, packets: usize) -> ExperimentOutput {
    let t1 = Table1TunnelWrite::run(seed, packets);
    let labels = t1.direct.labels();
    let mut rows = Vec::new();
    rows.push(vec![
        "Total".to_string(),
        t1.direct.total().to_string(),
        t1.queue.total().to_string(),
        t1.old_put.total().to_string(),
        t1.new_put.total().to_string(),
    ]);
    for (i, label) in labels.iter().enumerate() {
        rows.push(vec![
            label.clone(),
            t1.direct.counts[i].to_string(),
            t1.queue.counts[i].to_string(),
            t1.old_put.counts[i].to_string(),
            t1.new_put.counts[i].to_string(),
        ]);
    }
    let [d, q, o, n] = t1.large_fractions();
    let mut text = render_table(
        "Table 1: delay of writing packets to the VPN tunnel",
        &["bin", "directWrite", "queueWrite", "oldPut", "newPut"],
        &rows,
    );
    text.push_str(&format!(
        ">1ms fractions: directWrite {:.2}%, queueWrite {:.2}%, oldPut {:.2}%, newPut {:.3}% \
         (paper: 3.4%, 0.65%, 5.8%, 0.075%)\n",
        d * 100.0,
        q * 100.0,
        o * 100.0,
        n * 100.0
    ));
    let json = mop_json::json!({
        "bins": labels,
        "directWrite": t1.direct.counts,
        "queueWrite": t1.queue.counts,
        "oldPut": t1.old_put.counts,
        "newPut": t1.new_put.counts,
        "large_fractions": [d, q, o, n],
    });
    ExperimentOutput { id: "table1".into(), text, json }
}

/// Runs Table 2 and renders it.
pub(crate) fn run_table2(seed: u64, connects: usize) -> ExperimentOutput {
    let t2 = Table2Accuracy::run(seed, connects);
    let rows: Vec<Vec<String>> = t2
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt_ms(r.tcpdump_for_mopeye_ms),
                fmt_ms(r.mopeye_ms),
                fmt_ms(r.mopeye_delta_ms),
                fmt_ms(r.tcpdump_for_mobiperf_ms),
                fmt_ms(r.mobiperf_ms),
                fmt_ms(r.mobiperf_delta_ms),
            ]
        })
        .collect();
    let mut text = render_table(
        "Table 2: measurement accuracy of MopEye and MobiPerf (mean, ms)",
        &["dest", "tcpdump", "MopEye", "δ", "tcpdump", "MobiPerf", "δ"],
        &rows,
    );
    text.push_str(&format!(
        "worst MopEye δ = {:.2} ms (paper: ≤1 ms); best MobiPerf δ = {:.1} ms (paper: 12–79 ms)\n",
        t2.worst_mopeye_delta(),
        t2.best_mobiperf_delta()
    ));
    let json = mop_json::json!({
        "rows": t2.rows.iter().map(|r| mop_json::json!({
            "dest": &r.name,
            "tcpdump_mopeye": r.tcpdump_for_mopeye_ms,
            "mopeye": r.mopeye_ms,
            "mopeye_delta": r.mopeye_delta_ms,
            "tcpdump_mobiperf": r.tcpdump_for_mobiperf_ms,
            "mobiperf": r.mobiperf_ms,
            "mobiperf_delta": r.mobiperf_delta_ms,
        })).collect::<Vec<_>>(),
    });
    ExperimentOutput { id: "table2".into(), text, json }
}

/// Runs Table 3 and renders it.
pub(crate) fn run_table3(seed: u64, transfer_bytes: usize) -> ExperimentOutput {
    let t3 = Table3Throughput::run(seed, transfer_bytes);
    let (mop_down, mop_up) = t3.mopeye.delta_from(&t3.baseline);
    let (hay_down, hay_up) = t3.haystack.delta_from(&t3.baseline);
    let text = render_table(
        "Table 3: download/upload throughput overhead (Mbps)",
        &["direction", "Baseline", "MopEye", "Δ", "Haystack", "Δ"],
        &[
            vec![
                "Download".into(),
                fmt_ms(t3.baseline.download_mbps),
                fmt_ms(t3.mopeye.download_mbps),
                fmt_ms(mop_down),
                fmt_ms(t3.haystack.download_mbps),
                fmt_ms(hay_down),
            ],
            vec![
                "Upload".into(),
                fmt_ms(t3.baseline.upload_mbps),
                fmt_ms(t3.mopeye.upload_mbps),
                fmt_ms(mop_up),
                fmt_ms(t3.haystack.upload_mbps),
                fmt_ms(hay_up),
            ],
        ],
    );
    let json = mop_json::json!({
        "baseline": mop_json::json!({"down": t3.baseline.download_mbps, "up": t3.baseline.upload_mbps}),
        "mopeye": mop_json::json!({"down": t3.mopeye.download_mbps, "up": t3.mopeye.upload_mbps}),
        "haystack": mop_json::json!({"down": t3.haystack.download_mbps, "up": t3.haystack.upload_mbps}),
    });
    ExperimentOutput { id: "table3".into(), text, json }
}

/// Runs Table 4 and renders it.
pub(crate) fn run_table4(seed: u64, minutes: u64) -> ExperimentOutput {
    let t4 = Table4Resources::run(seed, minutes);
    let text = render_table(
        &format!("Table 4: resource overhead while streaming a {minutes}-minute HD video"),
        &["resource", "MopEye", "Haystack"],
        &[
            vec![
                "CPU".into(),
                format!("{:.2}%", t4.mopeye.cpu_percent),
                format!("{:.2}%", t4.haystack.cpu_percent),
            ],
            vec![
                "Battery".into(),
                format!("{:.1}%", t4.mopeye.battery_percent),
                format!("{:.1}%", t4.haystack.battery_percent),
            ],
            vec![
                "Memory".into(),
                format!("{:.0} MB", t4.mopeye.memory_mib),
                format!("{:.0} MB", t4.haystack.memory_mib),
            ],
        ],
    );
    let json = mop_json::json!({
        "mopeye": mop_json::json!({"cpu": t4.mopeye.cpu_percent, "battery": t4.mopeye.battery_percent, "memory_mib": t4.mopeye.memory_mib}),
        "haystack": mop_json::json!({"cpu": t4.haystack.cpu_percent, "battery": t4.haystack.battery_percent, "memory_mib": t4.haystack.memory_mib}),
    });
    ExperimentOutput { id: "table4".into(), text, json }
}

/// Runs every §4.2 dataset experiment and renders them.
pub(crate) fn run_crowd_experiments(dataset: &SyntheticDataset) -> Vec<ExperimentOutput> {
    let mut out = Vec::new();
    // Figure 6.
    let fig6 = Fig6Contribution::compute(dataset);
    out.push(ExperimentOutput {
        id: "fig6".into(),
        text: render_table(
            "Figure 6: measurements per user/app (bucketed, scaled)",
            &["bucket", "# users", "# apps"],
            &[">10K", "5K-10K", "1K-5K", "100-1K"]
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    vec![
                        b.to_string(),
                        fig6.users_per_bucket[i].to_string(),
                        fig6.apps_per_bucket[i].to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ),
        json: mop_json::json!({
            "users_per_bucket": fig6.users_per_bucket,
            "apps_per_bucket": fig6.apps_per_bucket,
        }),
    });
    // Figure 7.
    let fig7 = Fig7Countries::compute(dataset);
    out.push(ExperimentOutput {
        id: "fig7".into(),
        text: render_table(
            "Figure 7: top-20 user countries",
            &["country", "# devices"],
            &fig7.top.iter().map(|(c, n)| vec![c.clone(), n.to_string()]).collect::<Vec<_>>(),
        ),
        json: mop_json::json!({ "top": fig7.top }),
    });
    // Figure 8.
    let fig8 = Fig8Locations::compute(dataset);
    out.push(ExperimentOutput {
        id: "fig8".into(),
        text: format!(
            "Figure 8: {} measurement locations (lat/lon series in JSON output)\n",
            fig8.points.len()
        ),
        json: mop_json::json!({ "points": fig8.points }),
    });
    // Figure 9.
    let fig9 = Fig9AppRtt::compute(dataset);
    let mut fig9_text = render_table(
        "Figure 9: per-app RTT medians (ms)",
        &["slice", "median"],
        &[
            vec!["all".into(), fmt_ms(fig9.all.median().unwrap_or(f64::NAN))],
            vec!["WiFi".into(), fmt_ms(fig9.wifi.median().unwrap_or(f64::NAN))],
            vec!["cellular".into(), fmt_ms(fig9.cellular.median().unwrap_or(f64::NAN))],
            vec!["LTE".into(), fmt_ms(fig9.lte.median().unwrap_or(f64::NAN))],
            vec![
                format!("per-app medians ({} apps)", fig9.qualifying_apps),
                fmt_ms(fig9.per_app_medians.median().unwrap_or(f64::NAN)),
            ],
        ],
    );
    fig9_text.push_str("(paper: all 65, WiFi 58, cellular 84, LTE 76)\n");
    fig9_text.push_str(&render_sketch_series("fig9a-all", &fig9.all, 400.0, 41));
    fig9_text.push_str(&render_sketch_series("fig9a-wifi", &fig9.wifi, 400.0, 41));
    fig9_text.push_str(&render_sketch_series("fig9a-cellular", &fig9.cellular, 400.0, 41));
    fig9_text.push_str(&render_sketch_series(
        "fig9b-per-app-medians",
        &fig9.per_app_medians,
        400.0,
        41,
    ));
    out.push(ExperimentOutput {
        id: "fig9".into(),
        text: fig9_text,
        json: mop_json::json!({
            "medians": mop_json::json!({
                "all": fig9.all.median(), "wifi": fig9.wifi.median(),
                "cellular": fig9.cellular.median(), "lte": fig9.lte.median(),
            }),
            "all_cdf": fig9.all.series(400.0, 41),
            "wifi_cdf": fig9.wifi.series(400.0, 41),
            "cellular_cdf": fig9.cellular.series(400.0, 41),
            "per_app_median_cdf": fig9.per_app_medians.series(400.0, 41),
        }),
    });
    // Table 5.
    let t5 = Table5Apps::compute(dataset);
    out.push(ExperimentOutput {
        id: "table5".into(),
        text: render_table(
            "Table 5: network performance of 16 representative apps",
            &["category", "app", "# RTT", "median (ms)", "paper (ms)"],
            &t5.rows
                .iter()
                .map(|(cat, app, n, m, p)| {
                    vec![cat.clone(), app.clone(), n.to_string(), fmt_ms(*m), fmt_ms(*p)]
                })
                .collect::<Vec<_>>(),
        ),
        json: mop_json::json!({ "rows": t5.rows }),
    });
    // Figure 10.
    let fig10 = Fig10Dns::compute(dataset);
    let mut fig10_text = render_table(
        "Figure 10: DNS RTT medians (ms)",
        &["slice", "median"],
        &[
            vec!["all".into(), fmt_ms(fig10.all.median().unwrap_or(f64::NAN))],
            vec!["WiFi".into(), fmt_ms(fig10.wifi.median().unwrap_or(f64::NAN))],
            vec!["cellular".into(), fmt_ms(fig10.cellular.median().unwrap_or(f64::NAN))],
            vec!["4G".into(), fmt_ms(fig10.lte.median().unwrap_or(f64::NAN))],
            vec!["3G".into(), fmt_ms(fig10.umts3g.median().unwrap_or(f64::NAN))],
            vec!["2G".into(), fmt_ms(fig10.gprs2g.median().unwrap_or(f64::NAN))],
        ],
    );
    fig10_text.push_str("(paper: all 42, WiFi 33, cellular 61, 4G 56, 3G 105, 2G 755)\n");
    fig10_text.push_str(&render_sketch_series("fig10a-all", &fig10.all, 400.0, 41));
    fig10_text.push_str(&render_sketch_series("fig10b-4g", &fig10.lte, 400.0, 41));
    fig10_text.push_str(&render_sketch_series("fig10b-3g", &fig10.umts3g, 400.0, 41));
    fig10_text.push_str(&render_sketch_series("fig10b-2g", &fig10.gprs2g, 400.0, 41));
    out.push(ExperimentOutput {
        id: "fig10".into(),
        text: fig10_text,
        json: mop_json::json!({
            "medians": mop_json::json!({
                "all": fig10.all.median(), "wifi": fig10.wifi.median(),
                "cellular": fig10.cellular.median(), "lte": fig10.lte.median(),
                "umts3g": fig10.umts3g.median(), "gprs2g": fig10.gprs2g.median(),
            }),
        }),
    });
    // Table 6.
    let t6 = Table6IspDns::compute(dataset);
    out.push(ExperimentOutput {
        id: "table6".into(),
        text: render_table(
            "Table 6: DNS performance of 15 LTE operators",
            &["ISP", "country", "# RTT", "median (ms)", "paper (ms)"],
            &t6.rows
                .iter()
                .map(|(isp, country, n, m, p)| {
                    vec![isp.clone(), country.clone(), n.to_string(), fmt_ms(*m), fmt_ms(*p)]
                })
                .collect::<Vec<_>>(),
        ),
        json: mop_json::json!({ "rows": t6.rows }),
    });
    // Figure 11.
    let fig11 = Fig11IspDns::compute(dataset);
    let mut fig11_text = render_table(
        "Figure 11: DNS performance of four LTE ISPs",
        &["ISP", "median (ms)", "<10ms", "min (ms)"],
        &fig11
            .isps
            .iter()
            .map(|(name, cdf)| {
                vec![
                    name.clone(),
                    fmt_ms(cdf.median().unwrap_or(f64::NAN)),
                    format!("{:.1}%", 100.0 * cdf.fraction_at_or_below(10.0)),
                    fmt_ms(cdf.quantile(0.0).unwrap_or(f64::NAN)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for (name, cdf) in &fig11.isps {
        fig11_text.push_str(&render_sketch_series(&format!("fig11-{name}"), cdf, 400.0, 41));
    }
    out.push(ExperimentOutput {
        id: "fig11".into(),
        text: fig11_text,
        json: mop_json::json!({
            "isps": fig11.isps.iter().map(|(n, c)| mop_json::json!({
                "isp": n,
                "median": c.median(),
                "below_10ms": c.fraction_at_or_below(10.0),
                "cdf": c.series(400.0, 41),
            })).collect::<Vec<_>>(),
        }),
    });
    // Case studies.
    let whatsapp = CaseWhatsapp::compute(dataset);
    out.push(ExperimentOutput {
        id: "case1".into(),
        text: format!(
            "Case 1 (WhatsApp): {} whatsapp.net domains observed; SoftLayer median {} ms \
             (paper 261), CDN median {} ms, overall {} ms (paper 133).\n\
             Per-network medians over the SoftLayer domains ({} networks): \
             <100ms: {}, 100-200ms: {}, 200-300ms: {}, >300ms: {} (paper: 2, 6, 8, 4)\n",
            whatsapp.domains_observed,
            fmt_ms(whatsapp.softlayer_median_ms),
            fmt_ms(whatsapp.cdn_median_ms),
            fmt_ms(whatsapp.overall_median_ms),
            whatsapp.networks_analysed,
            whatsapp.network_buckets[0],
            whatsapp.network_buckets[1],
            whatsapp.network_buckets[2],
            whatsapp.network_buckets[3],
        ),
        json: mop_json::json!({
            "domains_observed": whatsapp.domains_observed,
            "softlayer_median_ms": whatsapp.softlayer_median_ms,
            "cdn_median_ms": whatsapp.cdn_median_ms,
            "overall_median_ms": whatsapp.overall_median_ms,
            "network_buckets": whatsapp.network_buckets,
        }),
    });
    let jio = CaseJio::compute(dataset);
    out.push(ExperimentOutput {
        id: "case2".into(),
        text: format!(
            "Case 2 (Jio): per-app median {} ms over {} measurements (paper 281 over 76,717); \
             DNS median {} ms (paper 59).\nDomain medians on Jio: <100ms: {}, 100-200: {}, \
             200-300: {}, 300-400: {}, >400: {}.\n{} of {} domains seen on both Jio and other \
             LTE networks are faster elsewhere, by {} ms on average (paper: 63 of 71, 138 ms).\n",
            fmt_ms(jio.app_median_ms),
            jio.app_measurements,
            fmt_ms(jio.dns_median_ms),
            jio.domain_buckets[0],
            jio.domain_buckets[1],
            jio.domain_buckets[2],
            jio.domain_buckets[3],
            jio.domain_buckets[4],
            jio.domains_better_off_jio,
            jio.domains_compared,
            fmt_ms(jio.mean_advantage_ms),
        ),
        json: mop_json::json!({
            "app_median_ms": jio.app_median_ms,
            "dns_median_ms": jio.dns_median_ms,
            "domain_buckets": jio.domain_buckets,
            "domains_better_off_jio": jio.domains_better_off_jio,
            "domains_compared": jio.domains_compared,
            "mean_advantage_ms": jio.mean_advantage_ms,
        }),
    });
    out
}

/// Runs a fleet scenario with raw-sample retention disabled and returns the
/// fleet report — every measurement lives only in the merged
/// [`AggregateStore`], so analytics memory is O(apps × networks), not
/// O(samples). This is the engine side of the `report` binary, with its
/// `--scenario` / `--cc` flags. On fault-capable scenarios (lossy 3G, the
/// degraded commute) the returned report's relay counters carry the loss
/// recovery tallies (retransmits, fast retransmits, RTO fires, SACKed
/// segments).
pub fn run_scenario_lean(
    scenario: &Scenario,
    shards: usize,
    seed: u64,
    congestion: CongestionAlgo,
) -> FleetReport {
    let mut config = FleetConfig::new(shards).with_seed(seed).with_congestion(congestion);
    config.engine = config.engine.with_retain_samples(false);
    let fleet = FleetEngine::new(config, scenario.network());
    fleet.run(scenario.generate())
}

/// Renders the full crowd report (per-network medians and CDFs, top apps,
/// per-app diagnosis, ISP ranking) from a run's merged aggregates.
pub fn render_crowd_report(aggregates: &AggregateStore) -> ExperimentOutput {
    let summary = CrowdSummary::compute(aggregates);
    let mut text = String::new();
    // --- per-network overview -------------------------------------------
    let mut rows = Vec::new();
    let overview = |label: &str, sketch: &mop_measure::RttSketch| -> Vec<String> {
        vec![
            label.to_string(),
            sketch.count().to_string(),
            fmt_ms(sketch.median().unwrap_or(f64::NAN)),
            fmt_ms(sketch.quantile(0.95).unwrap_or(f64::NAN)),
            fmt_ms(sketch.min().unwrap_or(f64::NAN)),
            fmt_ms(sketch.max().unwrap_or(f64::NAN)),
        ]
    };
    rows.push(overview("TCP (all)", &summary.tcp));
    for (net, sketch) in &summary.tcp_by_network {
        if !sketch.is_empty() {
            rows.push(overview(&format!("TCP {}", net.label()), sketch));
        }
    }
    rows.push(overview("DNS (all)", &summary.dns));
    for (net, sketch) in &summary.dns_by_network {
        if !sketch.is_empty() {
            rows.push(overview(&format!("DNS {}", net.label()), sketch));
        }
    }
    text.push_str(&render_table(
        &format!("Crowd report: {} devices, streaming sketches", summary.devices),
        &["slice", "# RTT", "median", "p95", "min", "max"],
        &rows,
    ));
    // --- top apps --------------------------------------------------------
    let app_rows: Vec<Vec<String>> = summary
        .apps
        .iter()
        .take(10)
        .map(|(app, count, sketch)| {
            vec![
                app.clone(),
                count.to_string(),
                fmt_ms(sketch.median().unwrap_or(f64::NAN)),
                fmt_ms(sketch.quantile(0.95).unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    text.push_str(&render_table(
        "Top apps by contribution",
        &["app", "# RTT", "median", "p95"],
        &app_rows,
    ));
    // --- diagnosis -------------------------------------------------------
    let diagnoses = diagnose_apps(aggregates, DiagnosisConfig::default());
    let diag_rows: Vec<Vec<String>> = diagnoses
        .iter()
        .map(|d| {
            vec![
                d.app.clone(),
                d.verdict.label().to_string(),
                fmt_ms(d.app_median_ms),
                fmt_ms(d.baseline_median_ms),
                d.samples.to_string(),
            ]
        })
        .collect();
    text.push_str(&render_table(
        "Per-app diagnosis (app-slow vs network-slow)",
        &["app", "verdict", "app median", "net baseline", "# RTT"],
        &diag_rows,
    ));
    // --- ISP ranking -----------------------------------------------------
    let ranking = rank_isps(aggregates, MeasurementKind::Tcp, 20);
    let isp_rows: Vec<Vec<String>> = ranking
        .iter()
        .map(|r| vec![r.isp.clone(), fmt_ms(r.median_ms), fmt_ms(r.p95_ms), r.samples.to_string()])
        .collect();
    text.push_str(&render_table(
        "ISP ranking (TCP, fastest first)",
        &["isp", "median", "p95", "# RTT"],
        &isp_rows,
    ));
    text.push_str(&render_sketch_series("crowd-tcp", &summary.tcp, 400.0, 41));
    if !summary.dns.is_empty() {
        text.push_str(&render_sketch_series("crowd-dns", &summary.dns, 400.0, 41));
    }
    let json = mop_json::json!({
        "devices": summary.devices as u64,
        "cells": aggregates.cell_count() as u64,
        "samples": aggregates.sample_count(),
        "tcp": mop_json::json!({
            "count": summary.tcp.count(),
            "median_ms": summary.tcp.median(),
            "p95_ms": summary.tcp.quantile(0.95),
            "cdf": summary.tcp.series(400.0, 41),
        }),
        "dns": mop_json::json!({
            "count": summary.dns.count(),
            "median_ms": summary.dns.median(),
            "p95_ms": summary.dns.quantile(0.95),
        }),
        "by_network": summary.tcp_by_network.iter().filter(|(_, s)| !s.is_empty()).map(|(net, s)| mop_json::json!({
            "network": net.label(),
            "count": s.count(),
            "median_ms": s.median(),
        })).collect::<Vec<_>>(),
        "apps": summary.apps.iter().take(10).map(|(app, count, s)| mop_json::json!({
            "app": app,
            "count": *count,
            "median_ms": s.median(),
        })).collect::<Vec<_>>(),
        "diagnosis": diagnoses.iter().map(|d| mop_json::json!({
            "app": &d.app,
            "verdict": d.verdict.label(),
            "app_median_ms": d.app_median_ms,
            "baseline_median_ms": d.baseline_median_ms,
            "samples": d.samples,
        })).collect::<Vec<_>>(),
        "isps": ranking.iter().map(|r| mop_json::json!({
            "isp": &r.isp,
            "median_ms": r.median_ms,
            "p95_ms": r.p95_ms,
            "samples": r.samples,
        })).collect::<Vec<_>>(),
    });
    ExperimentOutput { id: "fleet-crowd".into(), text, json }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_experiment_renderings_contain_their_headline_numbers() {
        let fig5 = run_fig5(1);
        assert!(fig5.text.contains("mitigation rate"));
        assert_eq!(fig5.id, "fig5");
        assert!(fig5.json["total_requests"].as_u64().unwrap() > 400);
        let t1 = run_table1(1, 800);
        assert!(t1.text.contains("directWrite"));
        assert!(t1.json["large_fractions"].as_array().unwrap().len() == 4);
    }

    #[test]
    fn fleet_crowd_report_renders_from_a_lean_run() {
        let report = run_scenario_lean(&Scenario::rush_hour(120, 7), 2, 7, CongestionAlgo::Reno);
        // Lean mode: no raw samples, everything in the aggregates.
        assert!(report.merged.samples.is_empty());
        assert!(report.merged.aggregates.sample_count() > 100);
        let output = render_crowd_report(&report.merged.aggregates);
        assert_eq!(output.id, "fleet-crowd");
        assert!(output.text.contains("Per-app diagnosis"));
        assert!(output.text.contains("ISP ranking"));
        assert!(output.json["samples"].as_u64().unwrap() > 100);
        assert!(!output.json["apps"].as_array().unwrap().is_empty());
    }

    #[test]
    fn crowd_experiments_cover_every_figure_and_table() {
        let dataset = crowd_dataset(0.002);
        let outputs = run_crowd_experiments(&dataset);
        let ids: Vec<&str> = outputs.iter().map(|o| o.id.as_str()).collect();
        for expected in
            ["fig6", "fig7", "fig8", "fig9", "table5", "fig10", "table6", "fig11", "case1", "case2"]
        {
            assert!(ids.contains(&expected), "missing {expected}");
        }
        for output in &outputs {
            assert!(!output.text.is_empty());
        }
    }
}
