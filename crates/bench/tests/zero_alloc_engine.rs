//! Regression test: a warm engine allocates per flow, not per packet.
//!
//! `zero_alloc.rs` pins a hand-assembled component loop at exactly zero
//! allocations; this file holds the real thing — a
//! warm, lean, flow-keyed `MopEyeEngine` (`reset` + `run_flows` after one
//! cold run, what a resident fleet shard does on every step) — to an
//! allocation budget that does not grow with the packet count:
//!
//! * clean network: the same N bulk flows at response size R and at 4R. The
//!   4R run relays four times the packets, so `allocs(4R) − allocs(R)` is
//!   what the *packets* cost; it must stay within a small per-flow constant
//!   (the amortised doublings of per-flow vectors, such as a socket's
//!   pending-read ring, are the only thing allowed to scale,
//!   logarithmically). `allocs(R)` itself is a per-flow constant
//!   too: flow start, connect, mapping, the outcome record.
//! * `DegradedCommute` (lossy 3G, then LTE): recovery state exists and
//!   segments are dropped, reordered and duplicated. Resend lists, SACK-range
//!   vectors and out-of-order entries may allocate — per *loss event* (a
//!   retransmission sent, a duplicate ACK an app answered a hole or a
//!   duplicate with), never per packet.
//!
//! Memory is held to the same shape: what the warm engine and its report
//! still hold after the clean runs, `retained(4R) − retained(R)`, stays
//! within a per-flow constant. A capture kept per packet — the wire tap's
//! record vector, a raw delay sample per tunnel write — fails it.
//!
//! What a *finished* flow costs is bounded on its own: N flows that never
//! overlap, then 4N. Each run has one connection live at a time, so
//! `retained(4N) − retained(N)` over the 3N extra flows is what one finished
//! flow leaves behind, about 460 B: its outcome in the report and the
//! run's flow list, whose cells the warm engine keeps. A record that stayed
//! in the table with its index entry, socket entry and tap exchange made it
//! about 1.1 KB, and before that a socket that kept its pending-read ring,
//! an app endpoint that kept its request and a record sized by its largest
//! app variant made it about 2.1 KB.
//!
//! Counts only, no timing. Before the engine's ledger, machine outputs,
//! app outputs and segment payloads stopped allocating, this workload cost
//! about 5.5 allocations per packet — hundreds per flow.
//!
//! This file intentionally contains a single test: the counting allocator is
//! process-global, so a concurrently running test would pollute the window.

use mop_bench::alloc_counter::CountingAllocator;
use mop_dataset::NetProfile;
use mop_packet::Endpoint;
use mop_simnet::{
    LatencyModel, ServerConfig, Service, SimDuration, SimNetwork, SimNetworkBuilder, SimTime,
};
use mop_tun::{FlowKind, FlowSpec};
use mopeye_core::{MopEyeConfig, MopEyeEngine};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Flows per run (the shorter run of the non-overlapping pair).
const N: u64 = 64;
/// The small response size; the large one is four times it.
const R: usize = 32 * 1024;

/// Allocations a flow may cost whatever it relays (start, connect, mapping,
/// outcome record, first growth of its per-flow vectors).
const PER_FLOW: u64 = 32;
/// Extra allocations a flow may cost for relaying 4R instead of R: two
/// doublings each of the handful of per-flow vectors that hold a response.
const PER_FLOW_GROWTH: u64 = 8;
/// Allocations one loss event may cost (an out-of-order entry, SACK ranges,
/// the vector that carries a resend), charged on top of what the clean 4R run
/// over the same flows measured, so the bound binds per loss event: the
/// lossy run measures 1.32 allocations per loss event beyond the clean run's
/// (1,736 against 364, over 1,039 loss events), and a second allocation per
/// event would fail it. A resend and a duplicated packet are `(seq, len)`
/// and a header-sized `Packet`, so neither allocates. Counting per-flow
/// costs in, the run measured 2.15 allocations per loss event while every
/// resend and scoreboard entry copied its payload, and 3.08 while
/// out-of-order segments kept a copy too (1.67 now).
const PER_LOSS_EVENT: u64 = 2;
/// Extra bytes the warm engine and its report may retain per flow for
/// relaying 4R instead of R: the larger capacities of the per-flow vectors
/// that held a response (a socket's pending-read ring alone grows from 32
/// to 128 slots of 16 B). About 2 KB is measured; a 72-byte tap record plus
/// two raw delay samples per relayed packet made it about 11.5 KB.
const PER_FLOW_BYTES: u64 = 4096;
/// Bytes one finished flow may leave behind in the warm engine and its
/// report: its outcome, and its cells in the run's spec list and on the
/// timing wheel, which the warm engine keeps for the next run. 464 are
/// measured; it was 1,093 while the `Conn` record, its index entry, socket
/// entry and tap exchange stayed until the engine was reset, and 2,115
/// while a closed socket also kept its read ring, an endpoint its request
/// and every record the size of the largest app variant.
const PER_FINISHED_FLOW_BYTES: u64 = 512;
/// Virtual time between two non-overlapping flows: each one's handshake,
/// response and close fit well inside it.
const APART_MS: u64 = 2_000;

fn server() -> Endpoint {
    Endpoint::v4(203, 0, 113, 9, 443)
}

fn network(profile: NetProfile, response_bytes: usize) -> SimNetworkBuilder {
    let server = ServerConfig::new(
        "bulk",
        server().addr,
        LatencyModel::Constant { ms: 30.0 },
        Service::Request { response_bytes, processing: LatencyModel::Constant { ms: 2.0 } },
    );
    let builder = SimNetwork::builder().seed(2017).flow_keyed().server(server);
    profile.apply(builder, SimTime::ZERO + SimDuration::from_secs(2))
}

/// `count` flows opened `spacing_ms` apart.
fn flows(count: u64, spacing_ms: u64, response_bytes: usize) -> Vec<FlowSpec> {
    (0..count)
        .map(|i| FlowSpec {
            at: SimTime::from_millis(10 + spacing_ms * i),
            uid: 10_100,
            package: "com.android.chrome".into(),
            src: Some(Endpoint::v4(10, 1, (i >> 8) as u8, i as u8, 40_000)),
            dst: server(),
            domain: None,
            request_bytes: 300,
            close_after: response_bytes,
            kind: FlowKind::Tcp,
            network: None,
            isp: None,
        })
        .collect()
}

/// What one warm run cost and did.
struct Warm {
    allocs: u64,
    /// Bytes the warm engine plus its report hold after the run, relative to
    /// before the engine was built.
    retained_bytes: u64,
    packets: u64,
    loss_events: u64,
    /// Flows still open when the next one started.
    overlapping: usize,
}

/// Runs the flows cold, resets, and counts the allocations of the warm
/// rerun (the flow schedule is cloned outside the counted window, as a
/// fleet's dispatcher hands a shard its flows ready-made), then the bytes
/// the engine and the warm report still hold.
fn warm_run(profile: NetProfile, response_bytes: usize, schedule: Vec<FlowSpec>) -> Warm {
    let config = MopEyeConfig::mopeye().with_retain_samples(false);
    let net = network(profile, response_bytes);
    let count = schedule.len() as u64;
    let live_before = ALLOC.live_bytes();
    let mut engine = MopEyeEngine::new(config, net.clone().build());
    let cold = engine.run_flows(schedule.clone());
    assert_eq!(cold.relay.connects_ok, count, "every flow connects");
    assert!(cold.flows.iter().all(|flow| flow.completed), "every flow completes");
    let cold_events = cold.events_processed;
    drop(cold);

    engine.reset(net.build());
    let before = ALLOC.allocations();
    let report = engine.run_flows(schedule);
    let allocs = ALLOC.allocations() - before;
    let retained_bytes = ALLOC.live_bytes().saturating_sub(live_before);
    assert_eq!(report.events_processed, cold_events, "the warm run is the same run");
    let delivered: usize = report.flows.iter().map(|flow| flow.bytes_received).sum();
    let overlapping =
        report.flows.windows(2).filter(|pair| pair[0].finished_at > pair[1].started_at).count();
    assert!(delivered as u64 >= count * response_bytes as u64, "every response arrived in full");
    Warm {
        allocs,
        retained_bytes,
        packets: report.tun.packets_from_apps + report.tun.packets_to_apps,
        loss_events: report.relay.retransmits + engine.app_dup_acks_sent(),
        overlapping,
    }
}

#[test]
fn a_warm_engine_allocates_per_flow_and_per_loss_event_never_per_packet() {
    let small = warm_run(NetProfile::Lte, R, flows(N, 5, R));
    let large = warm_run(NetProfile::Lte, 4 * R, flows(N, 5, 4 * R));
    assert_eq!((small.loss_events, large.loss_events), (0, 0), "LTE never faults");
    assert!(
        large.packets > 3 * small.packets,
        "4R relays ~4x the packets: {} vs {}",
        large.packets,
        small.packets
    );
    assert!(
        small.allocs <= PER_FLOW * N,
        "{} allocations for {N} clean flows ({} packets): more than {PER_FLOW} per flow",
        small.allocs,
        small.packets
    );
    let growth = large.allocs.saturating_sub(small.allocs);
    assert!(
        growth <= PER_FLOW_GROWTH * N,
        "{} more packets cost {growth} more allocations ({} -> {}): that scales with packets, \
         not with the {N} flows",
        large.packets - small.packets,
        small.allocs,
        large.allocs
    );
    let retained_growth = large.retained_bytes.saturating_sub(small.retained_bytes);
    assert!(
        retained_growth <= PER_FLOW_BYTES * N,
        "{} more packets left {retained_growth} more bytes held by the engine and its report \
         ({} -> {}): more than {PER_FLOW_BYTES} per flow, so something keeps a record per packet",
        large.packets - small.packets,
        small.retained_bytes,
        large.retained_bytes
    );

    let few = warm_run(NetProfile::Lte, R, flows(N, APART_MS, R));
    let many = warm_run(NetProfile::Lte, R, flows(4 * N, APART_MS, R));
    assert_eq!((few.overlapping, many.overlapping), (0, 0), "one flow open at a time");
    let per_finished_flow = many.retained_bytes.saturating_sub(few.retained_bytes) / (3 * N);
    assert!(
        per_finished_flow <= PER_FINISHED_FLOW_BYTES,
        "{} finished flows left {} bytes held by the engine and its report, {N} left {}: \
         {per_finished_flow} per flow, more than {PER_FINISHED_FLOW_BYTES}, so a finished \
         connection keeps what only a live one needs",
        4 * N,
        many.retained_bytes,
        few.retained_bytes
    );

    let lossy = warm_run(NetProfile::DegradedCommute, 4 * R, flows(N, 5, 4 * R));
    assert!(lossy.loss_events > 0, "the degraded commute lost nothing");
    // The lossy run relays the clean 4R run's flows: what it allocates
    // beyond that run's measured count is what its loss events cost.
    let budget = large.allocs + PER_LOSS_EVENT * lossy.loss_events;
    assert!(
        lossy.allocs <= budget,
        "{} allocations over {} packets with {} loss events: budget {budget}, the clean 4R \
         run's {} plus {PER_LOSS_EVENT} per loss event",
        lossy.allocs,
        lossy.packets,
        lossy.loss_events,
        large.allocs
    );
}
