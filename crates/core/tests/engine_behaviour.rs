//! Behavioural tests of the staged engine pipeline, through the public API.
//!
//! These are the historical `engine.rs` unit tests, kept bit-for-bit
//! meaningful across the stage refactor (ingress / relay / egress / sink
//! behind the timing-wheel loop): accuracy, workload relaying, config
//! ablations and reporting must all behave exactly as the monolithic event
//! loop did. New here: the per-connection idle-timer coverage, the check
//! that an engine's keying is its network's, and the check that the event
//! payload arenas are invisible across reset.

use mop_packet::Endpoint;
use mop_simnet::{
    Component, LatencyModel, ServerConfig, Service, SimDuration, SimNetwork, SimNetworkBuilder,
    SimTime,
};
use mop_tun::{FlowKind, FlowSpec, Workload, WorkloadKind};
use mopeye_core::{FleetConfig, FleetEngine, MopEyeConfig, MopEyeEngine, RunReport, TimestampMode};

fn network() -> SimNetwork {
    SimNetwork::builder().seed(42).with_table2_destinations().build()
}

fn google() -> Endpoint {
    Endpoint::v4(216, 58, 221, 132, 443)
}

fn one_flow(request: usize, close_after: usize) -> FlowSpec {
    FlowSpec {
        at: SimTime::from_millis(10),
        uid: 10_100,
        package: "com.android.chrome".into(),
        src: None,
        dst: google(),
        domain: Some("www.google.com".into()),
        request_bytes: request,
        close_after,
        kind: FlowKind::Tcp,
        network: None,
        isp: None,
    }
}

#[test]
fn single_tcp_flow_completes_and_is_measured() {
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
    let report = engine.run_flows(vec![one_flow(400, 8 * 1024)]);
    assert_eq!(report.relay.syns, 1);
    assert_eq!(report.relay.connects_ok, 1);
    assert_eq!(report.relay.connects_failed, 0);
    assert!(report.relay.data_segments_in > 0);
    assert!(report.relay.pure_acks_discarded >= 1);
    assert_eq!(report.flows.len(), 1);
    let flow = &report.flows[0];
    assert!(flow.completed, "flow should finish cleanly");
    assert_eq!(flow.bytes_received, 32 * 1024, "full web response delivered");
    assert_eq!(flow.package, "com.android.chrome");
    // One TCP RTT sample with tight accuracy.
    let samples = report.tcp_samples();
    assert_eq!(samples.len(), 1);
    let s = samples[0];
    assert_eq!(s.package.as_deref(), Some("com.android.chrome"));
    assert_eq!(s.domain.as_deref(), Some("www.google.com"));
    assert!(s.error_ms() < 1.0, "MopEye accuracy should be sub-millisecond, got {}", s.error_ms());
    assert!(s.measured_ms > 1.0, "google RTT should be positive, got {}", s.measured_ms);
}

#[test]
fn dns_flow_is_measured_and_answered() {
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
    let spec = FlowSpec {
        at: SimTime::from_millis(5),
        uid: 10_100,
        package: "com.android.chrome".into(),
        src: None,
        dst: Endpoint::v4(192, 168, 1, 1, 53),
        domain: Some("www.google.com".into()),
        request_bytes: 0,
        close_after: 0,
        kind: FlowKind::Dns,
        network: None,
        isp: None,
    };
    let report = engine.run_flows(vec![spec]);
    assert_eq!(report.relay.dns_queries, 1);
    let samples = report.dns_samples();
    assert_eq!(samples.len(), 1);
    assert_eq!(samples[0].domain.as_deref(), Some("www.google.com"));
    assert!(samples[0].measured_ms > 1.0);
    assert!(samples[0].error_ms() < 1.5, "dns error {}", samples[0].error_ms());
    assert!(report.flows[0].completed);
}

#[test]
fn refused_destination_fails_the_flow() {
    let mut net = network();
    net.add_server(ServerConfig::new(
        "closed",
        "10.7.7.7".parse().unwrap(),
        LatencyModel::Constant { ms: 20.0 },
        Service::Refuse,
    ));
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), net);
    let mut spec = one_flow(100, 0);
    spec.dst = Endpoint::v4(10, 7, 7, 7, 80);
    spec.domain = None;
    let report = engine.run_flows(vec![spec]);
    assert_eq!(report.relay.connects_failed, 1);
    assert_eq!(report.relay.connects_ok, 0);
    assert!(!report.flows[0].completed);
    assert!(report.tcp_samples().is_empty(), "failed connects produce no RTT sample");
}

#[test]
fn web_browsing_workload_produces_many_accurate_samples() {
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
    let workload = Workload::new(
        WorkloadKind::WebBrowsing,
        10_100,
        "com.android.chrome",
        vec![
            (google(), "www.google.com".into()),
            (Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into()),
        ],
        SimDuration::from_secs(30),
        5,
    );
    let report = engine.run(&[workload]);
    assert!(report.relay.syns >= 30, "syns {}", report.relay.syns);
    assert_eq!(report.relay.syns, report.relay.connects_ok + report.relay.connects_failed);
    let samples = report.tcp_samples();
    assert_eq!(samples.len() as u64, report.relay.connects_ok);
    let mean_err = report.mean_tcp_error_ms().unwrap();
    assert!(mean_err < 1.0, "mean error {mean_err}");
    // Mapping ran once per successful connection and mostly avoided parses.
    assert_eq!(report.mapping.requests, report.relay.connects_ok);
    assert!(
        report.mapping.mitigation_rate() > 0.3,
        "mitigation {}",
        report.mapping.mitigation_rate()
    );
    assert_eq!(report.mapping.mismapped, 0);
    // DNS queries from the workload were measured too.
    assert_eq!(report.dns_samples().len() as u64, report.relay.dns_queries);
    assert!(report.relay.dns_queries >= 5);
    // The ledger charged every component of Figure 4.
    for component in [
        Component::TunReader,
        Component::MainWorker,
        Component::TunWriter,
        Component::ConnectThreads,
    ] {
        assert!(
            report.ledger.busy_of(component) > SimDuration::ZERO,
            "{component:?} should have CPU time"
        );
    }
    assert!(report.ledger.memory_peak_bytes() > 6 * 1024 * 1024);
    assert!(report.events_processed > 100);
    // The datapath recycles packet buffers: after warm-up nearly every
    // tunnel packet reuses a pooled buffer instead of allocating.
    assert!(report.buffer_pool.reuse_rate() > 0.9, "tunnel buffer reuse {:?}", report.buffer_pool);
}

#[test]
fn selector_timestamps_are_less_accurate_than_blocking_thread() {
    let flows: Vec<FlowSpec> = (0..40)
        .map(|i| {
            let mut f = one_flow(300, 4096);
            f.at = SimTime::from_millis(200 * i as u64 + 10);
            f
        })
        .collect();
    let mut accurate = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
    let report_accurate = accurate.run_flows(flows.clone());
    let mut sloppy = MopEyeEngine::new(
        MopEyeConfig {
            timestamp_mode: TimestampMode::SelectorNotification,
            ..MopEyeConfig::mopeye()
        },
        network(),
    );
    let report_sloppy = sloppy.run_flows(flows);
    let e_accurate = report_accurate.mean_tcp_error_ms().unwrap();
    let e_sloppy = report_sloppy.mean_tcp_error_ms().unwrap();
    assert!(e_accurate < 1.0, "blocking-thread error {e_accurate}");
    assert!(e_sloppy > e_accurate * 2.0, "selector error {e_sloppy} vs {e_accurate}");
}

#[test]
fn haystack_preset_burns_more_cpu_and_memory() {
    let flows: Vec<FlowSpec> = (0..30)
        .map(|i| {
            let mut f = one_flow(500, 16 * 1024);
            f.at = SimTime::from_millis(300 * i as u64 + 10);
            f
        })
        .collect();
    let mut mopeye = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
    let mop_report = mopeye.run_flows(flows.clone());
    let mut haystack = MopEyeEngine::new(MopEyeConfig::haystack_like(), network());
    let hay_report = haystack.run_flows(flows);
    let wall = mop_report.finished_at - SimTime::ZERO;
    let mop_cpu = mop_report.ledger.cpu_percent(wall);
    let hay_cpu = hay_report.ledger.cpu_percent(hay_report.finished_at - SimTime::ZERO);
    assert!(hay_cpu > mop_cpu, "haystack {hay_cpu}% vs mopeye {mop_cpu}%");
    assert!(hay_report.ledger.memory_peak_bytes() > mop_report.ledger.memory_peak_bytes() * 5);
}

#[test]
fn run_report_goodput_reflects_transferred_bytes() {
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
    let report = engine.run_flows(vec![one_flow(400, 16 * 1024)]);
    let goodput = report.download_goodput_mbps().unwrap();
    assert!(goodput > 0.1, "goodput {goodput}");
    assert!(report.tun.bytes_to_apps > report.tun.bytes_from_apps);
}

#[test]
fn idle_timers_are_cancelled_by_activity_and_never_fire_on_healthy_flows() {
    let flows: Vec<FlowSpec> = (0..10)
        .map(|i| {
            let mut f = one_flow(300, 4 * 1024);
            f.at = SimTime::from_millis(10 + 50 * i as u64);
            f
        })
        .collect();
    // A generous timeout: every healthy flow relays again long before it.
    let config =
        MopEyeConfig { idle_timeout: Some(SimDuration::from_secs(60)), ..MopEyeConfig::mopeye() };
    let mut engine = MopEyeEngine::new(config, network());
    let report = engine.run_flows(flows.clone());
    assert_eq!(report.relay.idle_reaped, 0, "healthy flows are never reaped");
    assert_eq!(report.relay.connects_ok, 10);
    assert!(report.flows.iter().all(|f| f.completed));
    // The timers existed: far more events were scheduled than processed
    // (every armed-then-cancelled timer is scheduled but never fires).
    assert!(
        report.events_scheduled > report.events_processed,
        "scheduled {} vs processed {}",
        report.events_scheduled,
        report.events_processed
    );
    // And the run is otherwise identical to a timerless one.
    let mut bare = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
    let bare_report = bare.run_flows(flows);
    assert_eq!(report.samples, bare_report.samples);
    assert_eq!(report.finished_at, bare_report.finished_at);
    assert_eq!(report.events_processed, bare_report.events_processed);
}

#[test]
fn a_silent_connection_is_reaped_by_its_idle_timer() {
    // A flow against a server that accepts the connection and then never
    // responds (an analytics sink): the app's request relays out, nothing
    // ever comes back, and the connection's idle timer reaps it.
    let mut net = network();
    net.add_server(ServerConfig::new(
        "staller",
        "10.9.9.9".parse().unwrap(),
        LatencyModel::Constant { ms: 15.0 },
        Service::Silent,
    ));
    let mut spec = one_flow(200, 1024 * 1024);
    spec.dst = Endpoint::v4(10, 9, 9, 9, 80);
    spec.domain = None;
    let config = MopEyeConfig {
        idle_timeout: Some(SimDuration::from_millis(500)),
        ..MopEyeConfig::mopeye()
    };
    let mut engine = MopEyeEngine::new(config, net);
    let report = engine.run_flows(vec![spec]);
    assert_eq!(report.relay.connects_ok, 1);
    assert_eq!(report.relay.idle_reaped, 1, "the stalled flow is reaped");
    assert!(!report.flows[0].completed, "a reaped flow is not a clean completion");
    // The reap fired as a real event, on the wheel.
    assert!(report.events_processed > 0);
}

/// Forty flows with pre-assigned sources (as flow-keyed runs expect), every
/// fourth a DNS lookup, close enough together that shared-device contention
/// shows.
fn sourced_flows() -> Vec<FlowSpec> {
    (0..40)
        .map(|i| {
            let mut f = one_flow(300, 4 * 1024);
            f.at = SimTime::from_millis(10 + 7 * i as u64);
            f.src = Some(Endpoint::v4(10, 1, 0, i as u8, 40_000));
            if i % 4 == 3 {
                f.kind = FlowKind::Dns;
            }
            f
        })
        .collect()
}

fn keyed_builder(flow_keyed: bool) -> SimNetworkBuilder {
    let builder = SimNetwork::builder().seed(42).with_table2_destinations();
    if flow_keyed {
        builder.flow_keyed()
    } else {
        builder
    }
}

fn assert_same_run(reused: RunReport, fresh: &RunReport, what: &str) {
    assert_eq!(reused.samples, fresh.samples, "{what}: samples");
    assert_eq!(reused.relay, fresh.relay, "{what}: relay counters");
    let sorted = |flows: &[mopeye_core::FlowOutcome]| {
        let mut flows = flows.to_vec();
        flows.sort_by_key(|f| f.flow);
        flows
    };
    assert_eq!(sorted(&reused.flows), sorted(&fresh.flows), "{what}: flow outcomes");
    assert_eq!(reused.events_processed, fresh.events_processed, "{what}: events");
    assert_eq!(reused.fleet_digest(), fresh.fleet_digest(), "{what}: digest");
}

#[test]
fn keying_follows_the_network_across_reset() {
    // The keying decision is made once, on the network builder: the engine
    // config has no say, and a reset onto a network of the other keying
    // must behave exactly like a fresh engine over that network.
    let flows = sourced_flows();
    let fresh = |flow_keyed: bool| {
        let net = keyed_builder(flow_keyed).build();
        MopEyeEngine::new(MopEyeConfig::mopeye(), net).run_flows(flows.clone())
    };
    let (shared, keyed) = (fresh(false), fresh(true));
    assert_ne!(shared.fleet_digest(), keyed.fleet_digest(), "the two keyings must differ here");
    // A plain engine over a flow-keyed network is exactly a fleet shard.
    let fleet = FleetEngine::new(FleetConfig::new(1), keyed_builder(true)).run(flows.clone());
    assert_eq!(keyed.fleet_digest(), fleet.digest(), "flow-keyed engine vs one-shard fleet");

    for (from, to, expected) in [(false, true, &keyed), (true, false, &shared)] {
        let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), keyed_builder(from).build());
        engine.run_flows(flows.clone());
        engine.reset(keyed_builder(to).build());
        let what = if to { "shared -> flow-keyed" } else { "flow-keyed -> shared" };
        assert_same_run(engine.run_flows(flows.clone()), expected, what);
    }
}

fn assert_arenas_empty(engine: &MopEyeEngine, what: &str) {
    for (arena, parked) in engine.parked_payloads() {
        assert_eq!(parked, 0, "{what}: {arena} left parked");
    }
}

#[test]
fn the_payload_arenas_are_invisible_across_reset() {
    // Events carry handles to payloads parked in two arenas — tunnel
    // packets and packets on their way to an app. A run its event budget
    // stops leaves payloads parked; a reset must drop them all, so the next
    // run is exactly a fresh engine's, and a completed run leaves both
    // arenas empty.
    let flows = sourced_flows();
    // The same flows again from other hosts, overlapping the first wave:
    // twice the work, so the budget stops it with flows still to start.
    let mut heavy = flows.clone();
    heavy.extend(flows.iter().cloned().enumerate().map(|(i, mut f)| {
        f.at += SimDuration::from_millis(150);
        f.src = Some(Endpoint::v4(10, 2, 0, i as u8, 40_000));
        f
    }));
    for flow_keyed in [false, true] {
        let light = MopEyeEngine::new(MopEyeConfig::mopeye(), keyed_builder(flow_keyed).build())
            .run_flows(flows.clone())
            .events_processed;
        // The first budget at or above the light run's events that stops
        // the heavy run with a tunnel packet and an app packet parked.
        let (mut engine, budget) = (light..light + 2_000)
            .map(|budget| {
                let config = MopEyeConfig::mopeye().with_max_events(budget);
                let mut engine = MopEyeEngine::new(config, keyed_builder(flow_keyed).build());
                engine.run_flows(heavy.clone());
                (engine, budget)
            })
            .find(|(engine, _)| engine.parked_payloads().iter().all(|&(_, parked)| parked > 0))
            .expect("some budget stops the heavy run with every arena in use");
        let config = MopEyeConfig::mopeye().with_max_events(budget);
        let mut fresh = MopEyeEngine::new(config, keyed_builder(flow_keyed).build());
        let expected = fresh.run_flows(flows.clone());
        assert_eq!(expected.events_processed, light, "the light run fits the budget");
        assert_arenas_empty(&fresh, "a completed run");

        engine.reset(keyed_builder(flow_keyed).build());
        assert_arenas_empty(&engine, "a reset engine");
        let what = if flow_keyed {
            "flow-keyed, after a stopped run"
        } else {
            "shared, after a stopped run"
        };
        assert_same_run(engine.run_flows(flows.clone()), &expected, what);
        assert_arenas_empty(&engine, what);
    }
}
