//! Property-based tests for the `/proc/net` substrate: the text format must
//! round-trip for arbitrary connections, and the mapping strategies must
//! never attribute a flow to an app that does not own it when they claim
//! correctness.

use proptest::prelude::*;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

use mop_packet::{Endpoint, FourTuple};
use mop_procnet::{
    parse_proc_net, render_proc_net, ConnectionEntry, ConnectionTable, EagerMapper, LazyMapper,
    Protocol, SocketStateCode,
};
use mop_simnet::{CostModel, SimRng, SimTime};

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<[u8; 4]>(), 1u16..=65535)
        .prop_map(|(o, port)| Endpoint::new(Ipv4Addr::new(o[0], o[1], o[2], o[3]), port))
}

fn arb_state() -> impl Strategy<Value = SocketStateCode> {
    prop_oneof![
        Just(SocketStateCode::Established),
        Just(SocketStateCode::SynSent),
        Just(SocketStateCode::TimeWait),
        Just(SocketStateCode::Close),
        Just(SocketStateCode::Listen),
    ]
}

/// The connection table's reference semantics: the plain entry `Vec` with
/// first-match scans and `retain` that `ConnectionTable` was before its
/// entries were position-indexed.
#[derive(Default)]
struct ModelTable {
    entries: Vec<ConnectionEntry>,
    registered: u64,
    uid_index: HashMap<FourTuple, u32>,
    generation: u64,
}

impl ModelTable {
    fn register(&mut self, flow: FourTuple, tcp: bool, uid: u32, state: SocketStateCode) -> u64 {
        let inode = 10_000 + self.registered;
        self.registered += 1;
        self.entries.push(ConnectionEntry {
            protocol: Protocol::for_flow(&flow, tcp),
            local: flow.src,
            remote: flow.dst,
            state,
            uid,
            inode,
        });
        self.uid_index.entry(flow).or_insert(uid);
        self.generation += 1;
        inode
    }

    fn set_state(&mut self, flow: FourTuple, state: SocketStateCode) -> bool {
        match self.entries.iter_mut().find(|e| e.local == flow.src && e.remote == flow.dst) {
            Some(e) => {
                e.state = state;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, flow: FourTuple) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| !(e.local == flow.src && e.remote == flow.dst));
        let removed = self.entries.len() != before;
        if removed {
            self.uid_index.remove(&flow);
            self.generation += 1;
        }
        removed
    }
}

/// One mutation of the table; flows are indices into [`flow_pool`].
#[derive(Debug, Clone)]
enum TableOp {
    Register { flow: usize, tcp: bool, uid: u32, state: SocketStateCode },
    SetState { flow: usize, state: SocketStateCode },
    Remove { flow: usize },
    Reset,
}

/// A handful of four-tuples, IPv4 and IPv6, so that registrations collide.
fn flow_pool() -> Vec<FourTuple> {
    let mut pool: Vec<FourTuple> = (0..5)
        .map(|i| {
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000 + i), Endpoint::v4(8, 8, 4, 4, 443))
        })
        .collect();
    for i in 0..2 {
        pool.push(FourTuple::new(
            Endpoint::new(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 2), 50_000 + i),
            Endpoint::new(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1), 443),
        ));
    }
    pool
}

fn arb_table_op(flows: usize) -> impl Strategy<Value = TableOp> {
    prop_oneof![
        6 => (0..flows, any::<bool>(), 10_000u32..10_010, arb_state())
            .prop_map(|(flow, tcp, uid, state)| TableOp::Register { flow, tcp, uid, state }),
        2 => (0..flows, arb_state()).prop_map(|(flow, state)| TableOp::SetState { flow, state }),
        4 => (0..flows).prop_map(|flow| TableOp::Remove { flow }),
        1 => Just(TableOp::Reset),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_table_equals_the_vec_scan_model(
        ops in proptest::collection::vec(arb_table_op(flow_pool().len()), 0..160),
    ) {
        let pool = flow_pool();
        let mut table = ConnectionTable::new();
        let mut model = ModelTable::default();
        for op in ops {
            match op {
                TableOp::Register { flow, tcp, uid, state } => prop_assert_eq!(
                    table.register(pool[flow], tcp, uid, state),
                    model.register(pool[flow], tcp, uid, state)
                ),
                TableOp::SetState { flow, state } => prop_assert_eq!(
                    table.set_state(pool[flow], state),
                    model.set_state(pool[flow], state)
                ),
                TableOp::Remove { flow } => {
                    prop_assert_eq!(table.remove(pool[flow]), model.remove(pool[flow]))
                }
                TableOp::Reset => {
                    table.reset();
                    model = ModelTable::default();
                }
            }
            prop_assert_eq!(table.len(), model.entries.len());
            prop_assert_eq!(table.is_empty(), model.entries.is_empty());
            prop_assert_eq!(table.generation(), model.generation);
            prop_assert_eq!(table.uid_index(), &model.uid_index);
            for &flow in &pool {
                prop_assert_eq!(table.uid_of(flow), model.uid_index.get(&flow).copied());
            }
            prop_assert_eq!(table.entries().collect::<Vec<_>>(), model.entries.iter().collect::<Vec<_>>());
            // The rendered text carries the model's rows, in order, under
            // consecutive slot numbers.
            for protocol in [Protocol::Tcp, Protocol::Tcp6, Protocol::Udp, Protocol::Udp6] {
                let file = render_proc_net(&table, protocol);
                let rows: Vec<ConnectionEntry> =
                    model.entries.iter().filter(|e| e.protocol == protocol).cloned().collect();
                prop_assert_eq!(parse_proc_net(&file), rows);
                for (sl, line) in file.content.lines().skip(1).enumerate() {
                    prop_assert_eq!(line.split(':').next().unwrap().trim(), sl.to_string());
                }
            }
        }
    }

    #[test]
    fn proc_net_text_roundtrips_arbitrary_tables(
        entries in proptest::collection::vec((arb_endpoint(), arb_endpoint(), 10_000u32..20_000, arb_state()), 0..40),
    ) {
        let mut table = ConnectionTable::new();
        for (local, remote, uid, state) in &entries {
            table.register(FourTuple::new(*local, *remote), true, *uid, *state);
        }
        let file = render_proc_net(&table, Protocol::Tcp);
        let parsed = parse_proc_net(&file);
        prop_assert_eq!(parsed.len(), entries.len());
        for (parsed_entry, (local, remote, uid, state)) in parsed.iter().zip(&entries) {
            prop_assert_eq!(parsed_entry.local, *local);
            prop_assert_eq!(parsed_entry.remote, *remote);
            prop_assert_eq!(parsed_entry.uid, *uid);
            prop_assert_eq!(parsed_entry.state, *state);
        }
    }

    #[test]
    fn eager_mapping_is_always_correct_for_registered_flows(
        flows in proptest::collection::vec((1024u16..60_000, 10_000u32..10_050), 1..30),
        seed in any::<u64>(),
    ) {
        let cost = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut table = ConnectionTable::new();
        let mut registered = Vec::new();
        for (port, uid) in &flows {
            let flow = FourTuple::new(
                Endpoint::v4(10, 0, 0, 2, *port),
                Endpoint::v4(31, 13, 79, 251, 443),
            );
            // Ports may repeat in the generated vector; only the first
            // registration counts (the kernel would not allow a duplicate).
            if table.uid_of(flow).is_none() {
                table.register(flow, true, *uid, SocketStateCode::SynSent);
                registered.push((flow, *uid));
            }
        }
        let mut mapper = EagerMapper::new();
        for (flow, uid) in &registered {
            let outcome = mapper.map(&table, &cost, &mut rng, *flow);
            prop_assert_eq!(outcome.uid, Some(*uid));
            prop_assert!(outcome.correct);
        }
        prop_assert_eq!(mapper.stats().mismap_rate(), 0.0);
    }

    #[test]
    fn lazy_mapping_is_correct_and_cheaper_in_aggregate(
        ports in proptest::collection::vec(1024u16..60_000, 2..25),
        seed in any::<u64>(),
    ) {
        let cost = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut table = ConnectionTable::new();
        let mut lazy = LazyMapper::new();
        let mut eager = EagerMapper::new();
        let mut seen = std::collections::HashSet::new();
        let mut t = SimTime::from_millis(10);
        for port in ports {
            if !seen.insert(port) {
                continue;
            }
            let flow = FourTuple::new(
                Endpoint::v4(10, 0, 0, 2, port),
                Endpoint::v4(216, 58, 221, 132, 443),
            );
            table.register(flow, true, 10_100, SocketStateCode::SynSent);
            let registered = t;
            let established = t + mop_simnet::SimDuration::from_millis(5);
            let lazy_outcome = lazy.map(&table, &cost, &mut rng, flow, registered, established);
            let eager_outcome = eager.map(&table, &cost, &mut rng, flow);
            prop_assert!(lazy_outcome.correct);
            prop_assert!(eager_outcome.correct);
            t += mop_simnet::SimDuration::from_millis(2);
        }
        // Lazy mapping never performs more parses than eager mapping (the
        // CPU totals are sampled, so only the structural property is stable).
        prop_assert!(lazy.stats().parses <= eager.stats().parses);
        prop_assert!(lazy.stats().mitigation_rate() >= 0.0);
    }
}
