//! Shard determinism: the same seed and scenario produce an identical merged
//! RunReport no matter how many shards execute it.
//!
//! This is the contract the whole sharded architecture rests on: every
//! flow's RNG streams, link reservations, writer lane and source endpoint
//! are pure functions of `(seed, four-tuple)`, so partitioning the flow set
//! across 1, 2 or 8 workers changes *where* a flow runs but nothing about
//! what it does.

use mopeye::dataset::{NetProfile, Scenario, TrafficMix};
use mopeye::engine::{
    epoch_boundary, CongestionAlgo, Counters, FleetCheckpoint, FleetConfig, FleetEngine,
    FleetReport, FlowOutcome, ResidentFleet, RttSample, RunReport, SampleKind,
};
use mopeye::packet::{Endpoint, FourTuple};
use mopeye::server::{ControlPlane, PlaneConfig};
use mopeye::simnet::{AccessProfile, SimDuration, SimNetwork, SimTime};
use mopeye::tun::{FlowKind, FlowSpec};
use proptest::prelude::*;

#[path = "support/sequential_digest.rs"]
mod sequential_digest;
use sequential_digest::sequential_digest;

fn run(scenario: &Scenario, shards: usize, seed: u64) -> FleetReport {
    let fleet = FleetEngine::new(FleetConfig::new(shards).with_seed(seed), scenario.network());
    fleet.run(scenario.generate())
}

/// The rush-hour digest recorded on the pre-refactor engine (global
/// `BinaryHeap` event queue, monolithic event loop) for
/// `Scenario::rush_hour(300, 20_170_712)` at fleet seed 77. The timing-wheel
/// scheduler and the staged pipeline must reproduce it bit for bit — this
/// constant is the cross-PR anchor that says the refactor changed *nothing*
/// about what the relay computes. Recorded under the sequential digest, so
/// it is asserted through that model ([`sequential_digest`]) on the same
/// report, beside the report's own digest.
const PRE_REFACTOR_RUSH_HOUR_DIGEST: u64 = 0x9e91_0e37_fc9c_0e02;

/// `fleet_digest` of the report that [`PRE_REFACTOR_RUSH_HOUR_DIGEST`]
/// anchors, under the multiset fold: equal at 1, 2 and 8 shards.
const RUSH_HOUR_DIGEST: u64 = 0xe3b8_970b_a1c3_26db;

#[test]
fn same_seed_same_scenario_identical_report_at_1_2_8_shards() {
    let scenario = Scenario::rush_hour(300, 20_170_712);
    let reports: Vec<FleetReport> =
        [1usize, 2, 8].iter().map(|&s| run(&scenario, s, 77)).collect();

    // The digest is the one-line check...
    assert_eq!(reports[0].digest(), reports[1].digest(), "1 vs 2 shards");
    assert_eq!(reports[1].digest(), reports[2].digest(), "2 vs 8 shards");
    // ...anchored to the digest the pre-refactor heap loop produced, so the
    // timing-wheel scheduler and the stage split are provably behaviourally
    // silent. The anchor predates the multiset fold, so the sequential model
    // reproduces it from the same report, at every shard count.
    for (report, shards) in reports.iter().zip([1, 2, 8]) {
        assert_eq!(
            sequential_digest(&report.merged),
            PRE_REFACTOR_RUSH_HOUR_DIGEST,
            "the staged wheel engine diverged from the pre-refactor heap loop at {shards} shards"
        );
        assert_eq!(report.digest(), RUSH_HOUR_DIGEST, "{shards} shards: {:#018x}", report.digest());
    }

    // ...but also compare the underlying semantic content directly, so a
    // digest bug cannot mask a real divergence.
    for pair in reports.windows(2) {
        let (a, b) = (&pair[0].merged, &pair[1].merged);
        assert_eq!(a.samples, b.samples, "RTT samples must match exactly");
        assert_eq!(a.aggregates, b.aggregates, "merged sketch aggregates must be bit-identical");
        assert_eq!(a.aggregates.digest(), b.aggregates.digest());
        assert_eq!(a.relay, b.relay, "relay counters must match");
        assert_eq!(a.flows, b.flows, "flow outcomes must match");
        assert_eq!(a.tun, b.tun, "TUN counters must match");
        assert_eq!(a.finished_at, b.finished_at, "finish time must match");
        assert_eq!(a.events_processed, b.events_processed, "event count must match");
    }

    // Sanity: this was a real run, not a trivially empty one.
    let merged = &reports[0].merged;
    assert!(merged.flows.len() >= 300, "flows: {}", merged.flows.len());
    assert!(merged.relay.connects_ok > 200, "connects: {:?}", merged.relay);
    assert!(merged.samples.len() as u64 >= merged.relay.connects_ok);
    assert!(merged.buffer_pool.reuse_rate() > 0.9, "{:?}", merged.buffer_pool);
    // The streaming aggregates saw exactly the samples the vector retained,
    // labelled with the scenario's network profile.
    assert_eq!(merged.aggregates.sample_count() as usize, merged.samples.len());
    assert!(merged
        .aggregates
        .cells()
        .all(|(key, _)| key.isp == "HomeWiFi" && key.network == mopeye::measure::NetKind::Wifi));
}

/// The digest `report --users 1600` prints at any `--shards`: a lean
/// (sample-vector-free) Reno rush hour of 1,600 users at seed 2017.
const REPORT_1600_USERS_DIGEST: u64 = 0xdaab_5c0c_8aaa_3033;

#[test]
fn the_report_cli_digest_is_pinned_at_1_2_4_shards() {
    let scenario = Scenario::rush_hour(1600, 2017);
    for shards in [1usize, 2, 4] {
        let mut config =
            FleetConfig::new(shards).with_seed(2017).with_congestion(CongestionAlgo::Reno);
        config.engine = config.engine.with_retain_samples(false);
        let report = FleetEngine::new(config, scenario.network()).run(scenario.generate());
        assert_eq!(
            report.digest(),
            REPORT_1600_USERS_DIGEST,
            "{shards} shards: {:#018x}",
            report.digest()
        );
    }
}

#[test]
fn rush_hour_pins_hold_at_every_shard_count() {
    // The fleet's hand-off to its shards is *throughput* machinery, not
    // behaviour: every shard count must reproduce the pre-refactor digest
    // exactly.
    let scenario = Scenario::rush_hour(300, 20_170_712);
    let flows = scenario.generate();
    for shards in [1usize, 2, 8] {
        let fleet = FleetEngine::new(FleetConfig::new(shards).with_seed(77), scenario.network());
        let report = fleet.run(flows.clone());
        assert_eq!(
            sequential_digest(&report.merged),
            PRE_REFACTOR_RUSH_HOUR_DIGEST,
            "shards {shards} diverged"
        );
        assert_eq!(report.digest(), RUSH_HOUR_DIGEST, "shards {shards}");
    }
}

#[test]
fn every_profile_in_the_matrix_is_shard_count_invariant() {
    for profile in NetProfile::ALL {
        let scenario = Scenario::single(
            TrafficMix::WebBrowsing,
            profile,
            60,
            SimDuration::from_secs(4),
            9,
        );
        let one = run(&scenario, 1, 9);
        let four = run(&scenario, 4, 9);
        assert_eq!(
            one.digest(),
            four.digest(),
            "profile {} diverged between 1 and 4 shards",
            profile.label()
        );
    }
}

#[test]
fn different_seed_changes_the_run() {
    let scenario = Scenario::rush_hour(150, 5);
    let a = run(&scenario, 2, 1);
    let b = run(&scenario, 2, 2);
    assert_ne!(a.digest(), b.digest(), "seed must matter");
}

#[test]
fn repeated_runs_are_bit_identical() {
    let scenario = Scenario::rush_hour(200, 3);
    let a = run(&scenario, 4, 3);
    let b = run(&scenario, 4, 3);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.merged.samples, b.merged.samples);
}

#[test]
fn degraded_commute_loss_recovery_is_shard_count_invariant() {
    // The loss-recovery contract: every fault decision, retransmission and
    // SACK exchange is keyed by `(seed, four-tuple)`, so a lossy 3G → LTE
    // handover run partitions across shards without moving a bit — for
    // either congestion-control algorithm.
    let scenario = Scenario::degraded_commute(80, 21);
    let flows = scenario.generate();
    let mut digest_by_algo = Vec::new();
    for algo in [CongestionAlgo::Reno, CongestionAlgo::Cubic] {
        let reports: Vec<FleetReport> = [1usize, 2, 8]
            .iter()
            .map(|&shards| {
                FleetEngine::new(
                    FleetConfig::new(shards).with_seed(17).with_congestion(algo),
                    scenario.network(),
                )
                .run(flows.clone())
            })
            .collect();
        // The faults really fired and the machines really recovered.
        let relay = &reports[0].merged.relay;
        assert!(relay.retransmits > 0, "{algo:?}: no retransmits: {relay:?}");
        assert!(relay.fast_retransmits > 0, "{algo:?}: no fast retransmits: {relay:?}");
        assert!(relay.rto_fires > 0, "{algo:?}: no RTO fires: {relay:?}");
        assert!(relay.sacked_segments > 0, "{algo:?}: no SACKed segments: {relay:?}");
        assert_eq!(reports[0].digest(), reports[1].digest(), "{algo:?}: 1 vs 2 shards");
        assert_eq!(reports[1].digest(), reports[2].digest(), "{algo:?}: 2 vs 8 shards");
        for pair in reports.windows(2) {
            let (a, b) = (&pair[0].merged, &pair[1].merged);
            assert_eq!(a.relay, b.relay, "{algo:?}: recovery counters must match");
            assert_eq!(a.flows, b.flows, "{algo:?}: flow outcomes must match");
            assert_eq!(a.samples, b.samples, "{algo:?}: RTT samples must match");
        }
        digest_by_algo.push(reports[0].digest());
    }
    // Reno and CUBIC are each deterministic; nothing requires them to agree
    // with *each other*, and at scale they do not — this test only pins that
    // the choice is a config knob, not a shard-count artefact.
    assert_eq!(digest_by_algo.len(), 2);
}

#[test]
fn lossy_fleet_digest_survives_shard_count_changes() {
    // Same contract as `rush_hour_pins_hold_at_every_shard_count`, with the
    // fault stage and retransmission timers fully engaged.
    let scenario = Scenario::degraded_commute(60, 33);
    let flows = scenario.generate();
    let mut digests = Vec::new();
    for shards in [1usize, 2, 8] {
        let report =
            FleetEngine::new(FleetConfig::new(shards).with_seed(19), scenario.network())
                .run(flows.clone());
        assert!(report.merged.relay.retransmits > 0, "faults inert at {shards} shards");
        digests.push(report.digest());
    }
    assert_eq!(digests[0], digests[1], "1 vs 2 shards");
    assert_eq!(digests[1], digests[2], "2 vs 8 shards");
}

#[test]
fn clean_networks_never_touch_the_recovery_machinery() {
    // The zero-loss guard: on a clean network no recovery state exists, so
    // the congestion-control choice is invisible and the pre-refactor
    // rush-hour digest still reproduces bit for bit — the whole loss
    // subsystem is provably free when no faults can fire.
    let scenario = Scenario::rush_hour(300, 20_170_712);
    let flows = scenario.generate();
    for algo in [CongestionAlgo::Reno, CongestionAlgo::Cubic] {
        let report = FleetEngine::new(
            FleetConfig::new(4).with_seed(77).with_congestion(algo),
            scenario.network(),
        )
        .run(flows.clone());
        assert_eq!(
            sequential_digest(&report.merged),
            PRE_REFACTOR_RUSH_HOUR_DIGEST,
            "{algo:?} moved the zero-loss rush-hour digest"
        );
        assert_eq!(report.digest(), RUSH_HOUR_DIGEST, "{algo:?}");
        let relay = &report.merged.relay;
        assert_eq!(
            relay.retransmits + relay.fast_retransmits + relay.rto_fires + relay.sacked_segments,
            0,
            "{algo:?}: recovery counters must stay zero on a clean network: {relay:?}"
        );
    }
}

#[test]
fn loss_rate_matrix_is_shard_count_invariant() {
    // CI's loss-matrix job runs this at MOPEYE_LOSS_RATE ∈ {0, 0.005, 0.03};
    // locally it defaults to a light 0.5 % loss. Reorder and duplicate rates
    // scale with the loss rate, so rate 0 degenerates to a clean network and
    // the recovery machinery must stay inert.
    let rate: f64 = std::env::var("MOPEYE_LOSS_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.005);
    let scenario = Scenario::single(
        TrafficMix::VideoStreaming,
        NetProfile::Lte,
        60,
        SimDuration::from_secs(4),
        29,
    );
    let flows = scenario.generate();
    let access = AccessProfile::lte().with_data_faults(rate, rate / 3.0, rate / 15.0);
    let network = || {
        SimNetwork::builder()
            .seed(29)
            .flow_keyed()
            .with_table2_destinations()
            .access(access.clone())
    };
    let one = FleetEngine::new(FleetConfig::new(1).with_seed(41), network()).run(flows.clone());
    let four = FleetEngine::new(FleetConfig::new(4).with_seed(41), network()).run(flows.clone());
    assert_eq!(one.digest(), four.digest(), "loss rate {rate} diverged between 1 and 4 shards");
    assert_eq!(one.merged.relay, four.merged.relay);
    if rate == 0.0 {
        assert_eq!(one.merged.relay.retransmits, 0, "rate 0 must be a clean network");
    } else {
        assert!(one.merged.relay.retransmits > 0, "rate {rate} never faulted: {:?}", one.merged.relay);
    }
}

#[test]
fn flash_crowd_with_idle_timers_is_shard_count_invariant() {
    // The churn scenario arms and cancels a timer per relayed segment
    // (flow-keyed, so each timer's lifetime is a pure function of its flow).
    // The merged report must stay identical at any shard count even with
    // the timer machinery fully engaged.
    let scenario = Scenario::flash_crowd(120, 31);
    let flows = scenario.generate();
    let mut digests = Vec::new();
    for shards in [1usize, 2, 8] {
        let fleet = FleetEngine::new(
            FleetConfig::new(shards)
                .with_seed(13)
                .with_idle_timeout(SimDuration::from_secs(30)),
            scenario.network(),
        );
        let report = fleet.run(flows.clone());
        // Timers were really armed: more events scheduled than processed
        // (every cancelled timer is scheduled but never fires).
        assert!(
            report.merged.events_scheduled > report.merged.events_processed,
            "timers not engaged at {shards} shards"
        );
        digests.push((report.digest(), report.merged.relay.clone(), report.merged.finished_at));
    }
    assert_eq!(digests[0], digests[1], "1 vs 2 shards");
    assert_eq!(digests[1], digests[2], "2 vs 8 shards");
}

/// The digest of `shared_tuple_flows()` at fleet seed 23, recorded on the
/// engine that kept per-flow state in ten separately keyed maps, under the
/// sequential digest (asserted through [`sequential_digest`]).
const SHARED_TUPLE_DIGEST: u64 = 0xfa7a_9dd9_5ba9_2ee3;

/// `fleet_digest` of the report [`SHARED_TUPLE_DIGEST`] anchors, under the
/// multiset fold.
const SHARED_TUPLE_FOLD_DIGEST: u64 = 0x9111_de1e_52ed_66a0;

/// A small fleet in which several specs land on one four-tuple, the way
/// co-injected scenarios do (they share `Scenario::user_addr` and the
/// per-user port range): a TCP pair run back to back, a TCP pair whose second
/// SYN overlaps the first connect, and DNS pairs overlapping and sequential.
fn shared_tuple_flows() -> Vec<FlowSpec> {
    let spec = |user: u8, port: u16, at_ms: u64, kind: FlowKind| FlowSpec {
        at: SimTime::from_millis(at_ms),
        uid: 10_100 + u32::from(user % 3),
        package: format!("com.fleet.app{}", user % 3),
        src: Some(Endpoint::v4(10, 1, 0, user, port)),
        dst: Endpoint::v4(216, 58, 221, 132, 443),
        domain: Some("www.google.com".into()),
        request_bytes: 300,
        close_after: 2048,
        kind,
        network: None,
        isp: None,
    };
    let mut flows: Vec<FlowSpec> = (0..24u8)
        .map(|i| {
            let kind = if i % 4 == 3 { FlowKind::Dns } else { FlowKind::Tcp };
            spec(i, 40_000, 10 + 35 * u64::from(i), kind)
        })
        .collect();
    flows.extend([
        spec(100, 41_000, 50, FlowKind::Tcp),
        spec(100, 41_000, 4_050, FlowKind::Tcp),
        spec(101, 41_000, 60, FlowKind::Tcp),
        spec(101, 41_000, 62, FlowKind::Tcp),
        spec(102, 41_000, 70, FlowKind::Dns),
        spec(102, 41_000, 71, FlowKind::Dns),
        spec(103, 41_000, 80, FlowKind::Dns),
        spec(103, 41_000, 2_080, FlowKind::Dns),
    ]);
    flows.sort_by_key(|f| (f.at, f.src));
    flows
}

#[test]
fn specs_sharing_a_four_tuple_keep_their_pinned_digest() {
    // The second `FlowStart` on a tuple replaces the app endpoint and the
    // outcome record but continues the flow's RNG stream, writer lane and
    // external socket; the single connection record must reproduce what the
    // per-table maps did, bit for bit, at any shard count.
    for shards in [1usize, 2] {
        let mut fleet = ResidentFleet::new(FleetConfig::new(shards).with_seed(23));
        let net = SimNetwork::builder().seed(23).with_table2_destinations();
        let report = fleet.run_next(&net, shared_tuple_flows());
        assert_eq!(report.merged.flows.len(), 28, "one outcome per four-tuple");
        assert_eq!(
            sequential_digest(&report.merged),
            SHARED_TUPLE_DIGEST,
            "shared four-tuples at {shards} shards: {:#018x} {:?}",
            sequential_digest(&report.merged),
            report.merged.relay
        );
        assert_eq!(
            report.digest(),
            SHARED_TUPLE_FOLD_DIGEST,
            "shared four-tuples at {shards} shards: {:#018x}",
            report.digest()
        );
    }
}

// ----- what the multiset fold promises ---------------------------------------

/// The samples and flow outcomes of a small real run (rush hour and a lossy
/// commute co-run, so there are TCP and DNS samples, failed and completed
/// flows), to be rearranged and perturbed.
fn outcomes() -> (Vec<RttSample>, Vec<FlowOutcome>) {
    let mut fleet = ResidentFleet::new(FleetConfig::new(2).with_seed(5));
    let mut report = RunReport::empty();
    for scenario in [Scenario::rush_hour(30, 3), Scenario::degraded_commute(20, 4)] {
        report.absorb(fleet.run_next(&scenario.network(), scenario.generate()).merged);
    }
    report.canonicalise();
    assert!(report.samples.len() > 20 && report.flows.len() > 20, "a real run");
    assert!(report.samples.iter().any(|s| s.kind == SampleKind::Dns));
    assert!(report.flows.iter().any(|f| !f.completed), "some flow failed");
    (report.samples, report.flows)
}

/// A named edit of one record.
type Edit<T> = (&'static str, fn(&mut T));

fn digest_of(samples: &[RttSample], flows: &[FlowOutcome]) -> u64 {
    let mut report = RunReport::empty();
    report.samples = samples.to_vec();
    report.flows = flows.to_vec();
    report.fleet_digest()
}

/// A seeded Fisher–Yates shuffle (splitmix64 draws).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        items.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
}

#[test]
fn the_fleet_digest_ignores_the_order_of_samples_and_flows() {
    let (samples, flows) = outcomes();
    let digest = digest_of(&samples, &flows);
    for seed in 0..16u64 {
        let (mut s, mut f) = (samples.clone(), flows.clone());
        match seed % 3 {
            0 => shuffle(&mut s, seed),
            1 => shuffle(&mut f, seed),
            _ => {
                shuffle(&mut s, seed);
                shuffle(&mut f, !seed);
            }
        }
        assert_ne!((&s, &f), (&samples, &flows), "seed {seed} permuted nothing");
        // No `canonicalise`: the digest itself must not care.
        assert_eq!(digest_of(&s, &f), digest, "permutation {seed}");
    }
    let (mut s, mut f) = (samples.clone(), flows.clone());
    s.reverse();
    f.reverse();
    assert_eq!(digest_of(&s, &f), digest, "reversed");
}

#[test]
fn the_fleet_digest_moves_with_every_covered_field() {
    let (samples, flows) = outcomes();
    let digest = digest_of(&samples, &flows);
    let sample_edits: [Edit<RttSample>; 12] = [
        ("kind", |s| {
            s.kind = match s.kind {
                SampleKind::Tcp => SampleKind::Dns,
                SampleKind::Dns => SampleKind::Tcp,
            }
        }),
        ("flow.src.addr", |s| s.flow.src = Endpoint::v4(192, 0, 2, 7, s.flow.src.port)),
        ("flow.src.port", |s| s.flow.src.port ^= 1),
        ("flow.dst.addr", |s| s.flow.dst = Endpoint::v4(192, 0, 2, 7, s.flow.dst.port)),
        ("flow.dst.port", |s| s.flow.dst.port ^= 1),
        ("uid", |s| s.uid = Some(s.uid.unwrap_or(0) + 1)),
        ("package", |s| s.package = Some(format!("{}.x", s.package.as_deref().unwrap_or("")))),
        ("domain", |s| s.domain = Some(format!("{}.x", s.domain.as_deref().unwrap_or("")))),
        ("measured_ms", |s| s.measured_ms += 0.001),
        ("true_ms", |s| s.true_ms += 0.001),
        ("tcpdump_ms", |s| s.tcpdump_ms = Some(s.tcpdump_ms.unwrap_or(0.0) + 0.001)),
        ("at", |s| s.at += SimDuration::from_nanos(1)),
    ];
    for (field, edit) in sample_edits {
        for i in [0, samples.len() / 2, samples.len() - 1] {
            let mut s = samples.clone();
            edit(&mut s[i]);
            assert_ne!(digest_of(&s, &flows), digest, "sample {i}'s {field}");
        }
    }
    let flow_edits: [Edit<FlowOutcome>; 9] = [
        ("flow.src.addr", |f| f.flow.src = Endpoint::v4(192, 0, 2, 7, f.flow.src.port)),
        ("flow.src.port", |f| f.flow.src.port ^= 1),
        ("flow.dst.addr", |f| f.flow.dst = Endpoint::v4(192, 0, 2, 7, f.flow.dst.port)),
        ("flow.dst.port", |f| f.flow.dst.port ^= 1),
        ("package", |f| f.package.push('x')),
        ("started_at", |f| f.started_at += SimDuration::from_nanos(1)),
        ("finished_at", |f| f.finished_at += SimDuration::from_nanos(1)),
        ("bytes_received", |f| f.bytes_received += 1),
        ("completed", |f| f.completed = !f.completed),
    ];
    for (field, edit) in flow_edits {
        for i in [0, flows.len() / 2, flows.len() - 1] {
            let mut f = flows.clone();
            edit(&mut f[i]);
            assert_ne!(digest_of(&samples, &f), digest, "flow {i}'s {field}");
        }
    }
    // An IPv6 endpoint is covered too, distinct from every IPv4 one.
    let mut f = flows.clone();
    f[0].flow.dst = Endpoint::new(std::net::Ipv6Addr::LOCALHOST, f[0].flow.dst.port);
    let v6 = digest_of(&samples, &f);
    assert_ne!(v6, digest, "IPv6 destination");
    f[0].flow.dst = Endpoint::new(std::net::Ipv6Addr::new(0, 0, 0, 0, 0, 0, 0, 2), f[0].flow.dst.port);
    assert_ne!(digest_of(&samples, &f), v6, "IPv6 address");
}

#[test]
fn the_fleet_digest_folds_a_multiset_not_a_set() {
    let (samples, flows) = outcomes();
    let digest = digest_of(&samples, &flows);
    let mut s = samples.clone();
    s.push(samples[3].clone());
    assert_ne!(digest_of(&s, &flows), digest, "a duplicated sample");
    let mut f = flows.clone();
    f.push(flows[3].clone());
    assert_ne!(digest_of(&samples, &f), digest, "a duplicated flow outcome");
    // Equal counts, and every record present an even number of times: a
    // fold that cancels pairs (XOR) calls these two equal, a sum does not.
    let pairs = |i: usize| vec![samples[i].clone(), samples[i].clone()];
    assert_ne!(digest_of(&pairs(0), &[]), digest_of(&pairs(1), &[]), "sample pairs");
    let pairs = |i: usize| vec![flows[i].clone(), flows[i].clone()];
    assert_ne!(digest_of(&[], &pairs(0)), digest_of(&[], &pairs(1)), "flow pairs");
}

// ----- merging canonical reports --------------------------------------------

/// One of four four-tuples: few enough that reports share them.
fn merge_tuple(i: u16) -> FourTuple {
    FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000 + i), Endpoint::v4(31, 13, 79, 251, 443))
}

/// Samples from a small field space, so ties and fully equal samples are
/// common within and across reports.
fn arb_merge_sample() -> impl Strategy<Value = RttSample> {
    (0u16..4, 0u64..3, 0u8..2, 0u8..3).prop_map(|(tuple, at_ms, kind, ms)| RttSample {
        kind: if kind == 0 { SampleKind::Tcp } else { SampleKind::Dns },
        flow: merge_tuple(tuple),
        uid: Some(10_100),
        package: (kind == 0).then(|| "com.example".to_string()),
        domain: None,
        measured_ms: f64::from(ms) + 0.5,
        true_ms: 1.0,
        tcpdump_ms: Some(1.0),
        at: SimTime::from_millis(at_ms),
    })
}

/// Flow outcomes from a small field space, like [`arb_merge_sample`].
fn arb_merge_flow() -> impl Strategy<Value = FlowOutcome> {
    (0u16..4, 0u8..2, 0u64..3, 0usize..2).prop_map(|(tuple, app, at_ms, bytes)| FlowOutcome {
        flow: merge_tuple(tuple),
        package: format!("com.app{app}"),
        started_at: SimTime::from_millis(at_ms),
        finished_at: SimTime::from_millis(at_ms + 5),
        bytes_received: bytes * 1_000,
        completed: bytes == 1,
    })
}

/// A canonical report holding just these records.
fn canonical_report(samples: &[RttSample], flows: &[FlowOutcome]) -> RunReport {
    let mut report = RunReport::empty();
    report.samples = samples.to_vec();
    report.flows = flows.to_vec();
    report.canonicalise();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merging_canonical_reports_equals_absorb_then_canonicalise(
        mine in (
            proptest::collection::vec(arb_merge_sample(), 0..24),
            proptest::collection::vec(arb_merge_flow(), 0..24),
        ),
        theirs in (
            proptest::collection::vec(arb_merge_sample(), 0..24),
            proptest::collection::vec(arb_merge_flow(), 0..24),
        ),
        empty_side in 0u8..4,
    ) {
        let (mut mine, mut theirs) = (mine, theirs);
        match empty_side {
            0 => mine = (Vec::new(), Vec::new()),
            1 => theirs = (Vec::new(), Vec::new()),
            _ => {}
        }
        let mut expected = canonical_report(&mine.0, &mine.1);
        expected.absorb(canonical_report(&theirs.0, &theirs.1));
        expected.canonicalise();

        let mut merged = canonical_report(&mine.0, &mine.1);
        // With room reserved, the merge works inside the vectors it has.
        merged.samples.reserve(theirs.0.len());
        merged.flows.reserve(theirs.1.len());
        let buffers = (merged.samples.as_ptr(), merged.flows.as_ptr());
        merged.absorb_canonical(canonical_report(&theirs.0, &theirs.1));
        prop_assert_eq!(&merged.samples, &expected.samples);
        prop_assert_eq!(&merged.flows, &expected.flows);
        prop_assert_eq!(merged.fleet_digest(), expected.fleet_digest());
        if !mine.0.is_empty() {
            prop_assert_eq!(merged.samples.as_ptr(), buffers.0);
        }
        if !mine.1.is_empty() {
            prop_assert_eq!(merged.flows.as_ptr(), buffers.1);
        }
    }
}

// ----- the canonical flow order ---------------------------------------------

/// Flow outcomes whose covered fields vary independently over a few values
/// each, so every field gets to break a tie.
fn arb_order_flow() -> impl Strategy<Value = FlowOutcome> {
    (0u16..3, 0u8..2, 0u64..3, 0u64..3, 0usize..2, 0u8..2).prop_map(
        |(tuple, app, start_ms, end_ms, bytes, completed)| FlowOutcome {
            flow: merge_tuple(tuple),
            package: format!("com.app{app}"),
            started_at: SimTime::from_millis(start_ms),
            finished_at: SimTime::from_millis(end_ms),
            bytes_received: bytes * 1_000,
            completed: completed == 1,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_flows_order_by_start_time_then_every_covered_field(
        flows in proptest::collection::vec(arb_order_flow(), 0..32),
    ) {
        let mut report = RunReport::empty();
        report.flows = flows.clone();
        report.canonicalise();
        let mut expected = flows;
        expected.sort_by(|a, b| {
            (a.started_at, a.flow, &a.package, a.finished_at, a.bytes_received, a.completed).cmp(
                &(b.started_at, b.flow, &b.package, b.finished_at, b.bytes_received, b.completed),
            )
        });
        prop_assert_eq!(report.flows, expected);
    }
}

#[test]
fn a_stepped_planes_flows_are_the_batch_outcomes_in_canonical_order() {
    let config = PlaneConfig { shards: 2, ..PlaneConfig::default() };
    let scenarios = [Scenario::rush_hour(80, 5), Scenario::flash_crowd(40, 9)];
    let mut plane = ControlPlane::new(config);
    plane.inject("rush-hour", 80, 5).unwrap();
    plane.step(2);
    // Injected behind the cursor: its first step merges into the middle of
    // the cumulative flows, every later step appends.
    plane.inject("flash-crowd", 40, 9).unwrap();
    while plane.pending_flows() > 0 {
        plane.step(1);
    }

    let mut batch = RunReport::empty();
    for scenario in &scenarios {
        let fleet = FleetEngine::new(FleetConfig::new(1).with_seed(config.seed), scenario.network());
        batch.absorb(fleet.run(scenario.generate()).merged);
    }
    batch.canonicalise();
    let stepped = &plane.report().flows;
    assert_eq!(stepped.len(), batch.flows.len());
    assert!(stepped == &batch.flows, "the stepped merge left the canonical order");
    assert!(stepped.windows(2).all(|pair| pair[0].started_at <= pair[1].started_at));
}

// ----- structure counters: partition-local, outside the digest ---------------

#[test]
fn merged_counters_are_the_sum_of_the_shards() {
    let scenario = Scenario::rush_hour(300, 20_170_712);
    for shards in [1usize, 2, 8] {
        let report = run(&scenario, shards, 77);
        let mut sum = Counters::default();
        for shard in &report.per_shard {
            sum.merge(&shard.counters);
        }
        assert_eq!(report.merged.counters, sum, "{shards} shards");
        assert!(sum.iter().any(|(_, value)| value > 0), "{shards} shards counted nothing");
    }
}

#[test]
fn zeroed_counters_move_neither_the_digest_nor_the_checkpoint_bytes() {
    let scenario = Scenario::rush_hour(100, 5);
    let config = FleetConfig::new(2).with_seed(9).with_epochs(SimDuration::from_millis(250), 4);
    let fleet = FleetEngine::new(config, scenario.network());
    let mut checkpoint =
        FleetCheckpoint::capture(&fleet, scenario.generate(), epoch_boundary(250_000_000, 4));
    assert_ne!(checkpoint.base.counters, Counters::default());
    let (digest, bytes) = (checkpoint.base.fleet_digest(), checkpoint.to_json_string());
    checkpoint.base.counters = Counters::default();
    assert_eq!(checkpoint.base.fleet_digest(), digest);
    assert_eq!(checkpoint.to_json_string(), bytes);
}
