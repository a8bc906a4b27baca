//! Cross-crate integration tests: the full relay pipeline from app workloads
//! through the TUN device, the user-space TCP stack, the socket layer and the
//! simulated network, checked against the paper's headline claims.

use mopeye::engine::{MopEyeConfig, MopEyeEngine, ProtectMode, TimestampMode};
use mopeye::measure::Summary;
use mopeye::packet::Endpoint;
use mopeye::procnet::MappingStrategy;
use mopeye::simnet::{LatencyModel, ServerConfig, Service, SimDuration, SimNetwork};
use mopeye::tun::{FlowKind, FlowSpec, Workload, WorkloadKind};

fn network(seed: u64) -> SimNetwork {
    SimNetwork::builder().seed(seed).with_table2_destinations().build()
}

fn browsing_workload(uid: u32, package: &str, pages: u32) -> Workload {
    Workload::new(
        WorkloadKind::WebBrowsing,
        uid,
        package,
        vec![
            (Endpoint::v4(216, 58, 221, 132, 443), "www.google.com".into()),
            (Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into()),
        ],
        SimDuration::from_secs(60),
        pages,
    )
}

#[test]
fn zero_probe_traffic_is_injected_by_the_relay() {
    // MopEye's core claim: measurement with zero network overhead. Every
    // byte the servers see must have been sent by an app, not by the relay.
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network(1));
    let report = engine.run(&[browsing_workload(10_100, "com.android.chrome", 4)]);
    // Every successful connection corresponds to exactly one app SYN seen on
    // the tunnel, and exactly one RTT sample; no extra probe connections.
    assert_eq!(report.relay.syns, report.relay.connects_ok + report.relay.connects_failed);
    assert_eq!(report.tcp_samples().len() as u64, report.relay.connects_ok);
    // Bytes relayed to servers equal the bytes the apps sent (no padding or
    // probing), and apps received every relayed response byte.
    assert!(report.relay.bytes_out > 0);
    assert!(report.tun.bytes_from_apps > 0);
    let delivered: usize = report.flows.iter().map(|f| f.bytes_received).sum();
    assert_eq!(delivered as u64, report.relay.bytes_in);
}

#[test]
fn accuracy_holds_across_rtt_scales_like_table2() {
    // Sub-millisecond deviation from the tcpdump reference on paths from a
    // few milliseconds (Google) to hundreds of milliseconds (Dropbox).
    for dst in [
        Endpoint::v4(216, 58, 221, 132, 443),
        Endpoint::v4(31, 13, 79, 251, 443),
        Endpoint::v4(108, 160, 166, 126, 443),
    ] {
        let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network(2));
        let flows: Vec<FlowSpec> = (0..10)
            .map(|i| FlowSpec {
                at: mopeye::simnet::SimTime::from_millis(400 * i + 5),
                uid: 10_100,
                package: "com.measurement.app".into(),
                src: None,
                dst,
                domain: None,
                request_bytes: 300,
                close_after: 2048,
                kind: FlowKind::Tcp,
                network: None,
                isp: None,
            })
            .collect();
        let report = engine.run_flows(flows);
        assert_eq!(report.tcp_samples().len(), 10);
        let worst = report.tcp_samples().iter().map(|s| s.error_ms()).fold(0.0f64, f64::max);
        assert!(worst < 1.0, "worst error {worst} ms for {dst}");
    }
}

#[test]
fn per_app_attribution_separates_concurrent_apps() {
    // Two apps talk to the *same* destination concurrently; the lazy mapper
    // must attribute each connection to the right app (the scenario where
    // Haystack's endpoint cache goes wrong, §3.3).
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network(3));
    let facebook_app = Workload::new(
        WorkloadKind::Messaging,
        10_111,
        "com.facebook.katana",
        vec![(Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into())],
        SimDuration::from_secs(30),
        20,
    );
    let chrome = Workload::new(
        WorkloadKind::Messaging,
        10_222,
        "com.android.chrome",
        vec![(Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into())],
        SimDuration::from_secs(30),
        20,
    );
    let report = engine.run(&[facebook_app, chrome]);
    assert_eq!(report.mapping.mismapped, 0, "lazy mapping must not mis-attribute");
    let samples = report.tcp_samples();
    let fb = samples.iter().filter(|s| s.package.as_deref() == Some("com.facebook.katana")).count();
    let chrome_samples =
        samples.iter().filter(|s| s.package.as_deref() == Some("com.android.chrome")).count();
    assert!(fb >= 15, "facebook samples {fb}");
    assert!(chrome_samples >= 15, "chrome samples {chrome_samples}");
}

#[test]
fn cached_mapping_misattributes_shared_endpoints() {
    // The same scenario under the Haystack-style cache shows the failure the
    // paper warns about: some connections are charged to the wrong app.
    let mut engine = MopEyeEngine::new(
        MopEyeConfig { mapping: MappingStrategy::Cached, ..MopEyeConfig::mopeye() },
        network(4),
    );
    let apps: Vec<Workload> = [(10_111, "com.facebook.katana"), (10_222, "com.android.chrome")]
        .iter()
        .map(|(uid, package)| {
            Workload::new(
                WorkloadKind::Messaging,
                *uid,
                package,
                vec![(Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into())],
                SimDuration::from_secs(30),
                25,
            )
        })
        .collect();
    let report = engine.run(&apps);
    assert!(report.mapping.mismapped > 0, "the endpoint cache should mis-attribute some flows");
}

#[test]
fn dns_measurements_flow_end_to_end() {
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network(5));
    let dns_burst = Workload::new(
        WorkloadKind::DnsBurst,
        10_100,
        "com.android.chrome",
        vec![
            (Endpoint::v4(216, 58, 221, 132, 443), "www.google.com".into()),
            (Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into()),
        ],
        SimDuration::from_secs(20),
        30,
    );
    let report = engine.run(&[dns_burst]);
    assert_eq!(report.relay.dns_queries, 30);
    assert_eq!(report.dns_samples().len(), 30);
    let rtts: Vec<f64> = report.dns_samples().iter().map(|s| s.measured_ms).collect();
    let summary = Summary::of(&rtts).unwrap();
    // WiFi DNS latencies sit in the tens of milliseconds (Figure 10a).
    assert!(summary.median > 5.0 && summary.median < 150.0, "median {}", summary.median);
    // Every query was answered and the flows completed.
    assert!(report.flows.iter().all(|f| f.completed));
}

#[test]
fn failed_and_refused_servers_are_reported_not_measured() {
    let mut net = network(6);
    net.add_server(ServerConfig::new(
        "refuser",
        "10.66.0.1".parse().unwrap(),
        LatencyModel::Constant { ms: 25.0 },
        Service::Refuse,
    ));
    net.add_server(ServerConfig::new(
        "blackhole",
        "10.66.0.2".parse().unwrap(),
        LatencyModel::Constant { ms: 25.0 },
        Service::Blackhole,
    ));
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), net);
    let flows: Vec<FlowSpec> =
        [(106_601u32, Endpoint::v4(10, 66, 0, 1, 443)), (2, Endpoint::v4(10, 66, 0, 2, 443))]
            .iter()
            .enumerate()
            .map(|(i, (_, dst))| FlowSpec {
                at: mopeye::simnet::SimTime::from_millis(10 + i as u64),
                uid: 10_100,
                package: "com.unlucky.app".into(),
                src: None,
                dst: *dst,
                domain: None,
                request_bytes: 100,
                close_after: 100,
                kind: FlowKind::Tcp,
                network: None,
                isp: None,
            })
            .collect();
    let report = engine.run_flows(flows);
    assert_eq!(report.relay.connects_failed, 2);
    assert!(report.tcp_samples().is_empty());
    assert!(report.flows.iter().all(|f| !f.completed));
}

#[test]
fn design_choices_matter_selector_timestamps_and_per_socket_protect() {
    // Ablation: moving the timestamps to the selector and protect() to the
    // per-socket API measurably hurts (accuracy and connect-path latency).
    let flows = |seed: u64| {
        let mut engine = MopEyeEngine::new(
            MopEyeConfig {
                timestamp_mode: TimestampMode::SelectorNotification,
                protect: ProtectMode::PerSocket,
                ..MopEyeConfig::mopeye().with_seed(seed)
            },
            network(7),
        );
        engine.run(&[browsing_workload(10_100, "com.android.chrome", 5)])
    };
    let degraded = flows(9);
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye().with_seed(9), network(7));
    let good = engine.run(&[browsing_workload(10_100, "com.android.chrome", 5)]);
    let good_err = good.mean_tcp_error_ms().unwrap();
    let degraded_err = degraded.mean_tcp_error_ms().unwrap();
    assert!(good_err < 1.0, "MopEye error {good_err}");
    assert!(degraded_err > good_err, "degraded {degraded_err} vs good {good_err}");
}
