//! Property-based tests for the simulation substrate: time arithmetic, event
//! ordering, latency sampling and network causality.

use proptest::prelude::*;

use mop_packet::{Endpoint, FourTuple};
use mop_simnet::tap::TapKind;
use mop_simnet::{
    AccessProfile, Component, CpuLedger, EventQueue, FlowNetState, LatencyModel, MemoryComponent,
    SimDuration, SimNetwork, SimRng, SimTime, TapDirection, WireTap,
};

/// The wire tap's reference semantics: the linear scans over the whole
/// capture that `WireTap` used before it was indexed per flow. The tap keeps
/// no capture, so the test keeps its own beside it.
mod tap_model {
    use super::*;

    /// One tapped packet.
    pub struct TapRecord {
        pub at: SimTime,
        pub direction: TapDirection,
        pub kind: TapKind,
        pub flow: FourTuple,
    }

    pub fn handshake_rtt(records: &[TapRecord], flow: FourTuple) -> Option<SimDuration> {
        let syn = records.iter().find(|r| {
            r.flow == flow && r.kind == TapKind::Syn && r.direction == TapDirection::Outbound
        })?;
        let syn_ack = records.iter().find(|r| {
            r.flow == flow
                && r.kind == TapKind::SynAck
                && r.direction == TapDirection::Inbound
                && r.at >= syn.at
        })?;
        Some(syn_ack.at - syn.at)
    }

    pub fn dns_rtt(records: &[TapRecord], flow: FourTuple) -> Option<SimDuration> {
        let q = records.iter().find(|r| r.flow == flow && r.kind == TapKind::DnsQuery)?;
        let a = records
            .iter()
            .find(|r| r.flow == flow && r.kind == TapKind::DnsResponse && r.at >= q.at)?;
        Some(a.at - q.at)
    }

    pub fn all_handshake_rtts(records: &[TapRecord]) -> Vec<(FourTuple, SimDuration)> {
        let mut out: Vec<(FourTuple, SimDuration)> = Vec::new();
        for r in records {
            if r.kind == TapKind::Syn && r.direction == TapDirection::Outbound {
                if let Some(rtt) = handshake_rtt(records, r.flow) {
                    if !out.iter().any(|(f, _)| *f == r.flow) {
                        out.push((r.flow, rtt));
                    }
                }
            }
        }
        out
    }
}

/// The CPU ledger's reference semantics: the pair of name-keyed maps
/// `CpuLedger` was before its components became enums indexing fixed arrays.
mod ledger_model {
    use std::collections::BTreeMap;

    use mop_simnet::SimDuration;

    #[derive(Debug, Default, Clone)]
    pub struct Ledger {
        busy: BTreeMap<String, SimDuration>,
        memory_bytes: BTreeMap<String, usize>,
        memory_peak: usize,
    }

    impl Ledger {
        pub fn reset(&mut self) {
            self.busy.clear();
            self.memory_bytes.clear();
            self.memory_peak = 0;
        }

        pub fn charge(&mut self, component: &str, cost: SimDuration) {
            *self.busy.entry(component.to_string()).or_default() += cost;
        }

        pub fn set_memory(&mut self, component: &str, bytes: usize) {
            self.memory_bytes.insert(component.to_string(), bytes);
            let total: usize = self.memory_bytes.values().sum();
            self.memory_peak = self.memory_peak.max(total);
        }

        pub fn total_busy(&self) -> SimDuration {
            self.busy.values().copied().sum()
        }

        pub fn busy_of(&self, component: &str) -> SimDuration {
            self.busy.get(component).copied().unwrap_or(SimDuration::ZERO)
        }

        pub fn cpu_percent(&self, wall: SimDuration) -> f64 {
            if wall == SimDuration::ZERO {
                return 0.0;
            }
            100.0 * self.total_busy().as_millis_f64() / wall.as_millis_f64()
        }

        pub fn memory_peak_bytes(&self) -> usize {
            self.memory_peak
        }

        pub fn merge(&mut self, other: &Ledger) {
            for (k, v) in &other.busy {
                *self.busy.entry(k.clone()).or_default() += *v;
            }
            for (k, v) in &other.memory_bytes {
                self.memory_bytes.insert(k.clone(), *v);
            }
            let total: usize = self.memory_bytes.values().sum();
            self.memory_peak = self.memory_peak.max(other.memory_peak).max(total);
        }
    }
}

/// One step of the ledger differential: every operation names which of the
/// two ledgers it acts on (a merge folds the other one in).
#[derive(Debug, Clone)]
enum LedgerOp {
    Charge(bool, usize, u64),
    SetMemory(bool, usize, usize),
    Merge(bool),
    Reset(bool),
}

fn arb_ledger_op() -> impl Strategy<Value = LedgerOp> {
    // Zero-cost charges and zero-byte readings are deliberately common: a
    // reading of zero still replaces the target's in a merge.
    let nanos = prop_oneof![1 => Just(0u64), 3 => 1u64..5_000_000];
    let bytes = prop_oneof![1 => Just(0usize), 3 => 1usize..200_000_000];
    prop_oneof![
        6 => (any::<bool>(), 0..Component::ALL.len(), nanos)
            .prop_map(|(first, c, ns)| LedgerOp::Charge(first, c, ns)),
        4 => (any::<bool>(), 0..MemoryComponent::ALL.len(), bytes)
            .prop_map(|(first, c, b)| LedgerOp::SetMemory(first, c, b)),
        2 => any::<bool>().prop_map(LedgerOp::Merge),
        1 => any::<bool>().prop_map(LedgerOp::Reset),
    ]
}

/// A tapped packet on one of `flows` four-tuples, so tuples are reused,
/// SYNs retransmitted and replies captured before their requests; `at` is
/// drawn independently of capture position, so timestamps run out of order.
fn arb_tap_record(flows: u16) -> impl Strategy<Value = (u64, TapDirection, TapKind, FourTuple)> {
    let kind = prop_oneof![
        3 => Just(TapKind::Syn),
        3 => Just(TapKind::SynAck),
        2 => Just(TapKind::DnsQuery),
        2 => Just(TapKind::DnsResponse),
        2 => (0usize..1461).prop_map(TapKind::Data),
        1 => Just(TapKind::Rst),
        1 => Just(TapKind::Fin),
    ];
    let direction = prop_oneof![Just(TapDirection::Outbound), Just(TapDirection::Inbound)];
    (0u64..40, direction, kind, 0..flows)
        .prop_map(|(at_ms, direction, kind, port)| (at_ms, direction, kind, tap_flow(port)))
}

fn tap_flow(port: u16) -> FourTuple {
    FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000 + port), Endpoint::v4(31, 13, 79, 251, 443))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn time_arithmetic_is_consistent(base_ms in 0u64..1_000_000, delta_ms in 0u64..1_000_000) {
        let t0 = SimTime::from_millis(base_ms);
        let d = SimDuration::from_millis(delta_ms);
        let t1 = t0 + d;
        prop_assert_eq!(t1 - t0, d);
        prop_assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        prop_assert_eq!(t1.max(t0), t1);
        prop_assert_eq!(t1.min(t0), t0);
    }

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut queue = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_millis(*t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, _)) = queue.pop() {
            popped.push(at);
        }
        prop_assert_eq!(popped.len(), times.len());
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn latency_models_never_sample_negative(
        median in 0.1f64..1_000.0,
        sigma in 0.05f64..1.5,
        floor in 0.0f64..100.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        for model in [
            LatencyModel::Constant { ms: median },
            LatencyModel::uniform(0.0, median),
            LatencyModel::Normal { mean_ms: median, std_ms: median, min_ms: 0.0 },
            LatencyModel::lognormal_with(median, sigma, floor),
        ] {
            for _ in 0..50 {
                let v = model.sample_ms(&mut rng);
                prop_assert!(v >= 0.0 && v.is_finite());
            }
        }
        // The floor really is a floor.
        let floored = LatencyModel::lognormal_with(median, sigma, floor);
        for _ in 0..50 {
            prop_assert!(floored.sample_ms(&mut rng) >= floor);
        }
    }

    #[test]
    fn connects_respect_causality_and_match_the_tap(
        seed in any::<u64>(),
        start_ms in 0u64..10_000,
        port in 1024u16..60_000,
        access in prop_oneof![
            Just(AccessProfile::wifi()),
            Just(AccessProfile::lte()),
            Just(AccessProfile::lossy_3g()),
        ],
    ) {
        let mut net = SimNetwork::builder()
            .seed(seed)
            .access(access)
            .with_table2_destinations()
            .build();
        let flow = FourTuple::new(
            Endpoint::v4(10, 0, 0, 2, port),
            Endpoint::v4(31, 13, 79, 251, 443),
        );
        let at = SimTime::from_millis(start_ms);
        let outcome = net.connect(&mut FlowNetState::default(), flow, at);
        prop_assert!(outcome.syn_sent >= at);
        prop_assert!(outcome.completed_at > outcome.syn_sent);
        prop_assert!(outcome.true_rtt > SimDuration::ZERO);
        if outcome.success {
            let tap_rtt = net.tap().handshake_rtt(flow).unwrap();
            prop_assert_eq!(outcome.completed_at - outcome.syn_sent, tap_rtt);
        }
        // DNS lookups are also causal.
        let dns = net.dns_lookup(&mut FlowNetState::default(), flow.src, "www.google.com", at);
        prop_assert!(dns.query_sent >= at);
        if let Some(response_at) = dns.response_at {
            prop_assert!(response_at > dns.query_sent);
        }
    }

    #[test]
    fn indexed_tap_queries_equal_the_linear_scan_model(
        first in proptest::collection::vec(arb_tap_record(6), 0..80),
        second in proptest::collection::vec(arb_tap_record(6), 0..40),
    ) {
        let mut tap = WireTap::new();
        // The same tap is checked after every record, then every flow is
        // forgotten and the tap refilled: nothing of the first capture may
        // leak into the second.
        for capture in [&first, &second] {
            for flow in (0..=6).map(tap_flow) {
                tap.forget(flow);
            }
            prop_assert!(tap.all_handshake_rtts().is_empty());
            let mut records = Vec::new();
            for &(at_ms, direction, kind, flow) in capture {
                let at = SimTime::from_millis(at_ms);
                tap.record(at, direction, kind, flow);
                records.push(tap_model::TapRecord { at, direction, kind, flow });
                // One untouched tuple too: absent flows answer `None`.
                for flow in (0..=6).map(tap_flow) {
                    prop_assert_eq!(tap.handshake_rtt(flow), tap_model::handshake_rtt(&records, flow));
                    prop_assert_eq!(tap.dns_rtt(flow), tap_model::dns_rtt(&records, flow));
                }
                prop_assert_eq!(tap.all_handshake_rtts(), tap_model::all_handshake_rtts(&records));
            }
        }
    }

    #[test]
    fn ledger_matches_the_string_keyed_map_model(
        ops in proptest::collection::vec(arb_ledger_op(), 1..60),
        wall_ms in 0u64..10_000,
    ) {
        let mut ledgers = [CpuLedger::new(), CpuLedger::new()];
        let mut models = [ledger_model::Ledger::default(), ledger_model::Ledger::default()];
        let wall = SimDuration::from_millis(wall_ms);
        for op in ops {
            match op {
                LedgerOp::Charge(first, c, ns) => {
                    let (i, component) = (usize::from(!first), Component::ALL[c]);
                    ledgers[i].charge(component, SimDuration::from_nanos(ns));
                    models[i].charge(&format!("{component:?}"), SimDuration::from_nanos(ns));
                }
                LedgerOp::SetMemory(first, c, bytes) => {
                    let (i, component) = (usize::from(!first), MemoryComponent::ALL[c]);
                    ledgers[i].set_memory(component, bytes);
                    models[i].set_memory(&format!("{component:?}"), bytes);
                }
                LedgerOp::Merge(first) => {
                    let (into, from) = (usize::from(!first), usize::from(first));
                    let (other, other_model) = (ledgers[from].clone(), models[from].clone());
                    ledgers[into].merge(&other);
                    models[into].merge(&other_model);
                }
                LedgerOp::Reset(first) => {
                    ledgers[usize::from(!first)].reset();
                    models[usize::from(!first)].reset();
                }
            }
            for (ledger, model) in ledgers.iter().zip(&models) {
                for component in Component::ALL {
                    let name = format!("{component:?}");
                    prop_assert_eq!(ledger.busy_of(component), model.busy_of(&name));
                }
                prop_assert_eq!(ledger.total_busy(), model.total_busy());
                prop_assert_eq!(ledger.cpu_percent(wall), model.cpu_percent(wall));
                prop_assert_eq!(ledger.memory_peak_bytes(), model.memory_peak_bytes());
            }
        }
    }

    #[test]
    fn bulk_transfers_never_exceed_the_configured_capacity(
        seed in any::<u64>(),
        megabytes in 1usize..6,
    ) {
        let mut net = SimNetwork::builder().seed(seed).with_table2_destinations().build();
        let flow = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 50_000), Endpoint::v4(216, 58, 221, 132, 443));
        let bytes = megabytes * 1024 * 1024;
        let start = SimTime::ZERO;
        let chunks = net.bulk_download(&mut FlowNetState::default(), flow, bytes, start);
        prop_assert!(!chunks.is_empty());
        prop_assert!(chunks.windows(2).all(|w| w[0].0 <= w[1].0));
        let total: usize = chunks.iter().map(|(_, b)| *b).sum();
        prop_assert_eq!(total, bytes);
        let elapsed = (chunks.last().unwrap().0 - start).as_secs_f64();
        let mbps = bytes as f64 * 8.0 / 1_000_000.0 / elapsed;
        // Never faster than the 25 Mbps WiFi profile (plus rounding slack).
        prop_assert!(mbps <= 25.5, "throughput {} exceeds the link capacity", mbps);
    }

    #[test]
    fn identical_seeds_produce_identical_networks(seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut net = SimNetwork::builder().seed(seed).with_table2_destinations().build();
            let flow = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 41_000), Endpoint::v4(108, 160, 166, 126, 443));
            net.connect(&mut FlowNetState::default(), flow, SimTime::from_millis(3)).true_rtt
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
