//! Workspace smoke test: every facade re-export resolves to a usable symbol
//! and a minimal end-to-end engine run produces at least one RTT sample.
//!
//! This is deliberately shallow — each layer has its own unit and property
//! suites — but it pins the facade surface so a future refactor cannot
//! silently drop one of the `mopeye::*` namespaces.

use mopeye::engine::{MopEyeConfig, MopEyeEngine};
use mopeye::packet::Endpoint;
use mopeye::simnet::{SimDuration, SimNetwork};
use mopeye::tun::{Workload, WorkloadKind};

#[test]
fn every_facade_namespace_resolves() {
    // One load-bearing symbol per re-exported crate; referencing them keeps
    // the namespaces honest without running anything heavy.
    let endpoint = mopeye::packet::Endpoint::v4(8, 8, 8, 8, 53);
    assert!(endpoint.is_ipv4());

    let time = mopeye::simnet::SimTime::from_millis(5);
    assert_eq!(time.as_nanos(), 5_000_000);

    let table = mopeye::procnet::ConnectionTable::new();
    assert!(table.uid_of(mopeye::packet::FourTuple::new(endpoint, endpoint)).is_none());

    let machine = mopeye::tcpstack::TcpStateMachine::new(
        mopeye::packet::FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000), endpoint),
        10_100,
    );
    assert!(!machine.state().is_terminal());

    let record =
        mopeye::measure::RttRecord::tcp(61.0, 1, "com.app", mopeye::measure::NetKind::Wifi);
    assert_eq!(record.dst_port, 443);

    let spec = mopeye::dataset::DatasetSpec { seed: 1, scale: 0.0005 };
    assert!(spec.scale > 0.0);

    let config = mopeye::engine::MopEyeConfig::mopeye();
    let _ = config.clone();

    // Baselines and analytics expose their run/compute entry points.
    let speedtest = mopeye::baselines::SpeedTest::default();
    let _ = format!("{speedtest:?}");
    let fig5 = mopeye::analytics::Fig5Mapping::run(7);
    assert!(fig5.total_requests > 0);

    assert!(!mopeye::VERSION.is_empty());
}

#[test]
fn minimal_engine_run_produces_rtt_samples() {
    let net = SimNetwork::builder().seed(99).with_table2_destinations().build();
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), net);
    let workload = Workload::new(
        WorkloadKind::Messaging,
        10_100,
        "com.whatsapp",
        vec![(Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into())],
        SimDuration::from_secs(10),
        5,
    );
    let report = engine.run(&[workload]);
    assert!(
        !report.tcp_samples().is_empty(),
        "a 10s messaging workload must yield at least one TCP RTT sample"
    );
    assert_eq!(report.relay.connects_ok as usize, report.tcp_samples().len());
    assert!(report.tcp_samples().iter().all(|s| s.measured_ms > 0.0));
}
