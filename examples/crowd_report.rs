//! Streaming crowd analytics end to end: run a fleet scenario with raw-sample
//! retention disabled, then diagnose apps and rank ISPs straight from the
//! merged shard-sink sketches — no record vector is ever materialised.
//!
//! Run with `cargo run --release --example crowd_report`
//! (`CROWD_USERS=5000` scales the fleet).

use mopeye::analytics::diagnose::{diagnose_apps, rank_isps, DiagnosisConfig};
use mopeye::analytics::CrowdSummary;
use mopeye::dataset::Scenario;
use mopeye::engine::{FleetConfig, FleetEngine};
use mopeye::measure::MeasurementKind;

fn main() {
    let users: usize =
        std::env::var("CROWD_USERS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_500);
    let scenario = Scenario::rush_hour(users, 2017);
    let mut config = FleetConfig::new(4).with_seed(2017);
    config.engine = config.engine.with_retain_samples(false); // sketches only
    let fleet = FleetEngine::new(config, scenario.network());
    let report = fleet.run(scenario.generate());
    let aggregates = &report.merged.aggregates;

    println!(
        "rush hour: {} users, 4 shards -> {} flows, {} RTT samples folded into {} sketch cells",
        users,
        report.merged.flows.len(),
        aggregates.sample_count(),
        aggregates.cell_count(),
    );
    println!("raw sample vector retained: {} entries\n", report.merged.samples.len());

    let summary = CrowdSummary::compute(aggregates);
    println!(
        "TCP median {:.1} ms (p95 {:.1}), DNS median {:.1} ms over {} devices\n",
        summary.tcp.median().unwrap_or(f64::NAN),
        summary.tcp.quantile(0.95).unwrap_or(f64::NAN),
        summary.dns.median().unwrap_or(f64::NAN),
        summary.devices,
    );

    println!("Per-app diagnosis (worst first):");
    for d in diagnose_apps(aggregates, DiagnosisConfig::default()) {
        println!(
            "  {:<30} {:<13} median {:>6.1} ms vs network baseline {:>6.1} ms ({} samples)",
            d.app,
            d.verdict.label(),
            d.app_median_ms,
            d.baseline_median_ms,
            d.samples,
        );
    }

    println!("\nISP ranking (TCP, fastest first):");
    for r in rank_isps(aggregates, MeasurementKind::Tcp, 20) {
        println!(
            "  {:<12} median {:>6.1} ms, p95 {:>7.1} ms ({} samples)",
            r.isp, r.median_ms, r.p95_ms, r.samples
        );
    }
}
