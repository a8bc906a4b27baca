//! Complexity guard: the work the engine's data structures do per flow must
//! not grow with the population.
//!
//! Every `RunReport` carries structure counters, live in every build. Four
//! count elements a structure examined or moved beyond its O(1) index
//! probe. Two of them sit on the connect path: `WireTap` and `ConnectionTable`
//! used to scan (the tap walked every packet ever captured twice per
//! connect, the table walked and shifted every entry per state change and
//! removal), so each counter's per-flow value grew in step with the
//! population (4× from 100 to 400 users) and the run's cost with its
//! square. This test holds those per-flow values flat and the other two
//! under absolute per-flow bounds, by counts alone — no wall clock, so it
//! is as deterministic as the digests. A new scan on these paths fails here
//! instead of waiting for a profiler run.
//!
//! Three more are gauges: the most connection records, socket entries and
//! wire-tap exchanges an engine held at once. A finished flow's entries
//! leave with it, so those follow the flows open at once; a table that keeps
//! every flow it has seen fails here.
//!
//! Another guard holds what a pending tunnel packet costs: its buffer, not
//! a full MTU.
//!
//! The last holds the four-tuple lookups to the one place the paper's relay
//! must make them, ingress, where MopEye sees only packet bytes: a run
//! probes the connection table once per tunnel packet plus a few times per
//! flow, and nothing past ingress keeps a tuple-keyed map.

use mopeye::dataset::{NetProfile, Scenario, TrafficMix};
use mopeye::engine::{Counter, FlowOutcome, MopEyeConfig, MopEyeEngine};
use mopeye::simnet::SimDuration;

/// Per-flow growth allowed from the small to the large population.
const MAX_GROWTH: f64 = 1.3;

/// The connect-path counters held flat in the population.
const CONNECT_PATH: [Counter; 2] = [Counter::ConnTableScanElems, Counter::TapScanElems];

/// `wheel.ready_inserts` and `wheel.ready_shift_elems` per flow, at most.
/// Only schedules at or before the wheel's cursor land in the sorted due
/// buffer; measured 0.16 / 0.011 inserts per flow at 100 / 400 users here
/// (0.001 at 1,600 users under `report --shards 1`), shifting about one
/// element each. Every flow schedules several timers and packets, so a
/// wheel that filed its ordinary schedules through the sorted buffer would
/// exceed one per flow.
const WHEEL_PER_FLOW: f64 = 1.0;

/// Runs a rush hour of `users` on one engine; returns each structure
/// counter divided by the number of flows run.
fn work_per_flow(users: usize) -> impl Fn(Counter) -> f64 {
    let scenario = Scenario::rush_hour(users, 2017);
    let flows = scenario.generate();
    let flow_count = flows.len();
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), scenario.network().build());
    let report = engine.run_flows(flows);
    assert_eq!(report.flows.len(), flow_count, "every flow has an outcome");
    let counters = report.counters;
    move |counter| counters[counter] as f64 / flow_count as f64
}

#[test]
fn connect_path_work_per_flow_is_flat_in_the_population() {
    let small = work_per_flow(100);
    let large = work_per_flow(400);
    for counter in CONNECT_PATH {
        let (small, large) = (small(counter), large(counter));
        let name = counter.name();
        assert!(
            large <= small * MAX_GROWTH,
            "{name} per flow grew {small:.2} -> {large:.2} from 100 to 400 users \
             (more than {MAX_GROWTH}x): something on the connect path scans again"
        );
    }
}

#[test]
fn wheel_work_per_flow_stays_under_its_bound() {
    for users in [100, 400] {
        let work = work_per_flow(users);
        let bounds = [
            (Counter::WheelReadyInserts, WHEEL_PER_FLOW),
            (Counter::WheelReadyShiftElems, WHEEL_PER_FLOW),
        ];
        for (counter, bound) in bounds {
            let value = work(counter);
            assert!(
                value <= bound,
                "{} per flow is {value:.3} at {users} users (bound {bound})",
                counter.name()
            );
        }
    }
}

/// The live-sized tables' peaks, against the most flows open at once.
const GAUGES: [Counter; 4] = [
    Counter::ConnsPeakRecords,
    Counter::SocketsPeakHeld,
    Counter::TapPeakExchanges,
    Counter::WheelPeakCells,
];

/// How far a gauge may exceed the most flows open at once: a record stays
/// a little past its flow's finish, until the app's last packets and the
/// relay's tail are done with it. A 300-user day holds 704 records, socket
/// entries and tap exchanges at its peak, with 704 of its 2,288 flows open;
/// before finished flows left, all three grew to the 2,288 flows run. Its
/// wheel holds 263 events at its peak; while every flow's start waited on
/// the wheel from the first event on, it held 2,288.
const GAUGE_PER_OPEN_FLOW: u64 = 2;

/// The most flows open at once. A flow is open from its start until it
/// finishes; one that never completed is open to the end of the run (in a
/// diurnal day those are bulk downloads whose app waits for more than the
/// server sends, still established when the day ends).
fn peak_open(flows: &[FlowOutcome]) -> u64 {
    let mut edges: Vec<(u64, i64)> = flows.iter().map(|f| (f.started_at.as_nanos(), 1)).collect();
    edges.extend(flows.iter().filter(|f| f.completed).map(|f| (f.finished_at.as_nanos(), -1)));
    // A flow that finishes at the instant another starts is not open with it.
    edges.sort_unstable();
    let (mut open, mut peak) = (0i64, 0i64);
    for (_, step) in edges {
        open += step;
        peak = peak.max(open);
    }
    peak as u64
}

#[test]
fn live_tables_follow_the_flows_open_at_once_not_the_flows_run() {
    // A diurnal day spreads its flows over 24 simulated hours, so few are
    // open at once: the records, socket entries, tap exchanges and pending
    // events held must follow those, not the day's total.
    let day = Scenario::diurnal(300, 2017);
    let flows = day.generate();
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), day.network().build());
    let report = engine.run_flows(flows);
    let (open, run) = (peak_open(&report.flows), report.flows.len() as u64);
    assert!(2 * open < run, "{open} of {run} flows open at once: not a sparse day");
    for gauge in GAUGES {
        let held = report.counters[gauge];
        assert!(
            held <= GAUGE_PER_OPEN_FLOW * open,
            "{} is {held} with at most {open} of {run} flows open at once",
            gauge.name()
        );
    }
}

/// Bytes of capacity the tunnel-packet pools may hold, at the end of a cold
/// run, per buffer they created. Most of what apps write into the tunnel is
/// ACKs, SACKs, SYNs and FINs of under 100 B, so those take header-only
/// buffers and only a request-carrying packet takes a full-MTU one; a 2 KiB
/// buffer for every packet put about 2 MB of a lossy run's peak into
/// headroom no packet used.
const POOL_BYTES_PER_BUFFER: u64 = 256;

#[test]
fn tunnel_packet_buffers_cost_their_packets_not_a_full_mtu() {
    // All downloads start at once, so about a thousand tunnel packets, most
    // of them SYNs and ACKs, are pending together.
    let scenario = Scenario::single(
        TrafficMix::BulkDownload,
        NetProfile::DegradedCommute,
        1_000,
        SimDuration::from_secs(4),
        2017,
    );
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), scenario.network().build());
    let pool = engine.run_flows(scenario.generate()).buffer_pool;
    assert!(pool.allocations > 0 && pool.reuses > 0, "{pool:?}");
    let per_buffer = pool.resident_bytes / pool.allocations;
    assert!(
        per_buffer <= POOL_BYTES_PER_BUFFER,
        "the tunnel-packet pools hold {} B in the {} buffers they created: {per_buffer} B each, \
         more than {POOL_BYTES_PER_BUFFER}",
        pool.resident_bytes,
        pool.allocations
    );
}

/// Four-tuple lookups a run may make per flow beyond one per tunnel packet
/// the apps write: the flow start's intern, the removal of the record, and
/// the start bookkeeping of a tuple that several flows open.
const TUPLE_PROBES_PER_FLOW: u64 = 4;

#[test]
fn past_ingress_no_stage_looks_a_four_tuple_up() {
    // A lossy flow-keyed run exercises every per-connection path: the
    // network's sampling and fault streams, retransmissions and RTO timers.
    // Only ingress resolves a packet's tuple to its record; everything after
    // it reaches the connection by id.
    let scenario = Scenario::single(
        TrafficMix::BulkDownload,
        NetProfile::DegradedCommute,
        300,
        SimDuration::from_secs(4),
        2017,
    );
    let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), scenario.network().build());
    let report = engine.run_flows(scenario.generate());
    assert!(report.relay.retransmits > 0, "the degraded commute lost nothing");
    let probes = report.counters[Counter::TupleProbes];
    let packets = report.tun.packets_from_apps;
    let flows = report.flows.len() as u64;
    assert!(probes >= packets, "{probes} tuple probes for {packets} tunnel packets");
    assert!(
        probes <= packets + TUPLE_PROBES_PER_FLOW * flows,
        "{probes} tuple probes for {packets} tunnel packets and {flows} flows: more than one \
         per packet plus {TUPLE_PROBES_PER_FLOW} per flow, so a stage past ingress looks a \
         four-tuple up"
    );
}
