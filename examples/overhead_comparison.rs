//! Overhead comparison: run the same traffic through MopEye's configuration
//! and a Haystack-like configuration and compare accuracy, throughput and
//! resource cost (§4.1 of the paper).
//!
//! Run with `cargo run --release --example overhead_comparison`.

use mopeye::baselines::SpeedTest;
use mopeye::engine::{MopEyeConfig, MopEyeEngine};
use mopeye::packet::Endpoint;
use mopeye::simnet::{SimDuration, SimNetwork, SimTime};
use mopeye::tun::{Workload, WorkloadKind};

fn run(config: MopEyeConfig) -> (f64, f64, f64) {
    let net = SimNetwork::builder().seed(3).with_table2_destinations().build();
    let mut engine = MopEyeEngine::new(config, net);
    let browsing = Workload::new(
        WorkloadKind::WebBrowsing,
        10_100,
        "com.android.chrome",
        vec![
            (Endpoint::v4(216, 58, 221, 132, 443), "www.google.com".into()),
            (Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into()),
        ],
        SimDuration::from_secs(120),
        12,
    );
    let report = engine.run(&[browsing]);
    let wall = report.finished_at - SimTime::ZERO;
    (
        report.mean_tcp_error_ms().unwrap_or(f64::NAN),
        report.ledger.cpu_percent(wall),
        report.ledger.memory_peak_bytes() as f64 / (1024.0 * 1024.0),
    )
}

fn main() {
    println!(
        "{:<28} {:>14} {:>10} {:>12}",
        "configuration", "RTT error (ms)", "CPU (%)", "memory (MB)"
    );
    for (name, config) in [
        ("MopEye", MopEyeConfig::mopeye()),
        ("Haystack-like", MopEyeConfig::haystack_like()),
        ("Naive (ToyVpn-style)", MopEyeConfig::naive()),
    ] {
        let (error, cpu, mem) = run(config);
        println!("{name:<28} {error:>14.3} {cpu:>10.2} {mem:>12.0}");
    }

    println!("\nThroughput through the relay (25 Mbps WiFi, Table 3):");
    let harness = SpeedTest::new(5, 12 * 1024 * 1024);
    let baseline = harness.baseline();
    println!(
        "  baseline  : {:>6.2} / {:>6.2} Mbps (down/up)",
        baseline.download_mbps, baseline.upload_mbps
    );
    for (name, config) in
        [("MopEye", MopEyeConfig::mopeye()), ("Haystack", MopEyeConfig::haystack_like())]
    {
        let r = harness.with_relay(&config);
        println!("  {name:<10}: {:>6.2} / {:>6.2} Mbps (down/up)", r.download_mbps, r.upload_mbps);
    }
}
