//! The engine datapath, decomposed into explicit pipeline stages.
//!
//! The relay used to be one 1,300-line event-loop module; it is now four
//! stages, each driven through its own concrete methods, with `engine.rs`
//! reduced to the loop that drains the timing wheel and routes events
//! between them:
//!
//! ```text
//!             ┌─────────┐   parsed    ┌─────────┐  packets   ┌─────────┐
//!  TUN ──────▶│ ingress │────views───▶│  relay  │───to app──▶│ egress  │──▶ TUN
//!  (apps)     └─────────┘             └─────────┘            └─────────┘
//!   ▲     retrieval + parse      TCP/DNS relay decision,  TunWriter timing
//!   │     four-tuple → FlowId    sockets, mapper, timers       │
//!   └────────────── DeliverToApp events ◀──────────────────────┘
//!                                     │ samples
//!                                     ▼
//!                                ┌─────────┐
//!                                │  sink   │  measurement fold:
//!                                └─────────┘  sketches + samples
//! ```
//!
//! * [`ingress`] — TUN retrieval and parse: the app endpoints write raw IP
//!   bytes into pooled buffers, the `ReaderSim` models the retrieval cost,
//!   parsed packets are resolved to their connection record, and delivered
//!   responses re-enter here.
//! * [`relay`] — the relay decision: it drives the TCP state machine in
//!   each connection's record, starts DNS measurements, and owns the
//!   external sockets, the packet-to-app mapper and the arming of the
//!   cancellable per-connection timers.
//! * [`egress`] — the TunWriter timing model that carries packets back to
//!   the apps.
//! * [`sink`] — the measurement fold: every finished sample lands in the
//!   streaming sketch aggregates (and, optionally, the raw vector).
//!
//! Stages own their *machinery* — sockets, mapper, writer, sketches — but
//! per-connection state is not theirs: every connection has exactly one
//! [`crate::conn::Conn`] record in [`EngineShared`] (TCP machine, timers and
//! recovery state included), next to the rest of the cross-cutting substrate
//! (virtual time, the simulated network, the cost model and CPU ledger, the TUN
//! counters both ends touch), passed explicitly into every stage call. Events
//! and cross-stage calls name a connection by its dense [`FlowId`]; a
//! four-tuple is hashed only where raw packet bytes enter (the ingress
//! parse). Cross-stage effects travel either as direct calls on
//! the explicitly passed downstream stage or as events scheduled on the
//! timing wheel; no stage reaches into another's fields.

pub mod egress;
pub mod ingress;
pub mod relay;
pub mod sink;

use mop_packet::Packet;
use mop_simnet::{CostModel, CpuLedger, NetKeying, SimNetwork, SimRng, SimTime, TimingWheel};
use mop_tun::TunStats;

use crate::arena::Arena;
use crate::config::MopEyeConfig;
use crate::conn::{ConnTable, FlowId};
use crate::engine::Event;
use crate::tun_writer::WriterLane;

pub use egress::EgressStage;
pub use ingress::IngressStage;
pub use relay::RelayStage;
pub use sink::SinkStage;

/// Salt mixed into per-flow RNG seeds so the engine's flow-keyed streams do
/// not collide with the network's (which key off the same seed and hash).
const ENGINE_KEY_SALT: u64 = 0x656e_675f_6b65_7973; // "eng_keys"

/// The cross-cutting substrate every stage draws on: virtual time, the
/// simulated network, the TUN counters, the calibrated cost model, the CPU
/// ledger, the device-wide RNG stream and the per-connection records.
#[derive(Debug)]
pub struct EngineShared {
    /// The engine configuration.
    pub config: MopEyeConfig,
    /// The shard's virtual time: the latest instant an event was dispatched
    /// at (`EngineShared::advance_to`). A plain value: nothing outside the
    /// shard's thread reads it.
    pub now: SimTime,
    /// The simulated network (paths, DNS, wire tap). Its
    /// [`SimNetwork::keying`] is the engine's too: it decides whether
    /// per-flow state below is shared device-wide or keyed per flow.
    pub net: SimNetwork,
    /// The TUN counters both pipeline ends touch: ingress records each app
    /// write, egress each relay write back to the apps.
    pub tun: TunStats,
    /// Calibrated system-call and scheduler costs.
    pub cost: CostModel,
    /// CPU / memory / battery accounting.
    pub ledger: CpuLedger,
    /// The device-wide RNG stream ([`NetKeying::Shared`]).
    pub rng: SimRng,
    /// The per-connection records, holding (among everything else) each
    /// connection's RNG stream under [`NetKeying::FlowKeyed`].
    pub conns: ConnTable,
    /// Packets on their way to an app: egress (and the relay, for a DNS
    /// answer) parks each one here when it schedules the delivery, and the
    /// dispatched event takes it back, so the event itself stays
    /// handle-sized. Cleared by [`EngineShared::reset`].
    pub(crate) parked: Arena<Packet>,
}

impl EngineShared {
    /// Builds the substrate for `config` over `net`.
    pub(crate) fn new(config: MopEyeConfig, net: SimNetwork) -> Self {
        let rng = SimRng::seed_from_u64(config.seed);
        Self {
            config,
            now: SimTime::ZERO,
            net,
            tun: TunStats::default(),
            cost: CostModel::android_phone(),
            ledger: CpuLedger::new(),
            rng,
            conns: ConnTable::default(),
            parked: Arena::default(),
        }
    }

    /// Resets the substrate for a new run over `net`, keeping the config,
    /// the calibrated cost model and every table allocation: the clock
    /// restarts at zero, the device-wide RNG is reseeded from the config
    /// seed, and the connection records, tunnel counters and ledger are
    /// cleared — state indistinguishable from [`EngineShared::new`] with
    /// the same config.
    pub(crate) fn reset(&mut self, net: SimNetwork) {
        self.now = SimTime::ZERO;
        self.net = net;
        self.tun = TunStats::default();
        self.ledger.reset();
        self.rng = SimRng::seed_from_u64(self.config.seed);
        self.conns.clear();
        self.parked.clear();
    }

    /// Checks out the RNG stream backing `id`'s noise: the device-wide
    /// stream under [`NetKeying::Shared`], the connection's own stream
    /// (seeded from `config.seed ^ hash(canonical four-tuple)`) under
    /// [`NetKeying::FlowKeyed`]. Pair with [`EngineShared::checkin_rng`].
    pub(crate) fn checkout_rng(&mut self, id: FlowId) -> SimRng {
        match self.net.keying() {
            NetKeying::Shared => std::mem::replace(&mut self.rng, SimRng::seed_from_u64(0)),
            NetKeying::FlowKeyed => {
                let conn = &mut self.conns[id];
                conn.rng.take().unwrap_or_else(|| {
                    let key = conn.flow.canonical();
                    SimRng::seed_from_u64(self.config.seed ^ key.stable_hash() ^ ENGINE_KEY_SALT)
                })
            }
        }
    }

    /// Returns a stream checked out with [`EngineShared::checkout_rng`].
    pub(crate) fn checkin_rng(&mut self, id: FlowId, rng: SimRng) {
        match self.net.keying() {
            NetKeying::Shared => self.rng = rng,
            NetKeying::FlowKeyed => self.conns[id].rng = Some(rng),
        }
    }

    /// [`EngineShared::checkout_rng`] for packets whose four-tuple may be
    /// absent (malformed or non-IP): those fall back to the shared stream.
    pub(crate) fn checkout_rng_opt(&mut self, id: Option<FlowId>) -> SimRng {
        match id {
            Some(id) => self.checkout_rng(id),
            None => std::mem::replace(&mut self.rng, SimRng::seed_from_u64(0)),
        }
    }

    /// Returns a stream checked out with [`EngineShared::checkout_rng_opt`].
    pub(crate) fn checkin_rng_opt(&mut self, id: Option<FlowId>, rng: SimRng) {
        match id {
            Some(id) => self.checkin_rng(id, rng),
            None => self.rng = rng,
        }
    }

    /// Evicts a finished connection's keyed stochastic state (RNG stream,
    /// writer lane, network context), so shard memory is bounded by
    /// *concurrent* flows' streams, not by every flow a fleet run has seen.
    ///
    /// Safe for determinism: if a stray late packet draws again, the fresh
    /// stream restarts from the flow's seed — still a pure function of
    /// `(seed, four-tuple)`, so every shard count recreates it identically.
    pub(crate) fn release_flow(&mut self, id: FlowId) {
        if self.net.keying() == NetKeying::FlowKeyed {
            let conn = &mut self.conns[id];
            conn.rng = None;
            conn.lane = WriterLane::default();
            self.net.release_flow(conn.flow);
        }
    }

    /// Schedules `event` at `at`, holding the record it names until it is
    /// dispatched (see [`Event::holds`]).
    pub(crate) fn schedule(&mut self, sched: &mut TimingWheel<Event>, at: SimTime, event: Event) {
        if let Some(id) = event.holds() {
            self.conns.hold(id);
        }
        sched.schedule(at, event);
    }
}

#[cfg(test)]
mod tests {
    use mop_packet::{DnsMessage, Endpoint, FourTuple, Packet, PacketBuilder, PacketView};
    use mop_simnet::{SimNetwork, SimTime};
    use mop_tun::{FlowKind, FlowSpec};

    use crate::config::MopEyeConfig;
    use crate::conn::FlowId;
    use crate::engine::{Event, MopEyeEngine};
    use crate::report::Counter;

    /// Over a flow-keyed network, a finished flow leaves nothing behind:
    /// teardown releases its evictable state, and once nothing can reach it
    /// its record leaves the table with its socket entry and its wire-tap
    /// exchanges, and the next flow reuses the slot. (This needs engine
    /// internals, hence a unit test, not an integration test.)
    #[test]
    fn flow_keyed_engine_evicts_finished_flow_state() {
        let flows: Vec<FlowSpec> = (0..40)
            .map(|i| FlowSpec {
                at: SimTime::from_millis(10 + 40 * i as u64),
                uid: 10_100,
                package: "com.android.chrome".into(),
                src: Some(Endpoint::v4(10, 1, 0, i as u8, 40_000)),
                dst: Endpoint::v4(216, 58, 221, 132, 443),
                domain: Some("www.google.com".into()),
                request_bytes: 300,
                close_after: 2048,
                kind: if i % 4 == 3 { FlowKind::Dns } else { FlowKind::Tcp },
                network: None,
                isp: None,
            })
            .collect();
        let net = SimNetwork::builder().seed(42).flow_keyed().with_table2_destinations().build();
        let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), net);
        let report = engine.run_flows(flows);
        assert_eq!(report.relay.connects_ok, 30);
        assert_eq!(report.relay.dns_queries, 10);
        assert_eq!(report.flows.len(), 40);
        assert!(report.flows.iter().all(|flow| flow.completed));
        // Entries recreated by the app's final ACKs are swept by the
        // zombie-client cleanup, and then the records leave.
        assert_eq!(engine.shared.conns.live_clients(), 0, "zombie clients not removed");
        assert_eq!(engine.shared.conns.iter().count(), 0, "a finished record stayed");
        assert_eq!(engine.relay.sockets.open_count(), 0);
        assert!(engine.shared.net.tap().all_handshake_rtts().is_empty(), "the tap kept a flow");
        let peak = report.counters[Counter::ConnsPeakRecords];
        assert!((1..40).contains(&peak), "{peak} records held at once: none was reused");
        assert!(report.counters[Counter::SocketsPeakHeld] <= peak, "a socket outlived its record");
    }

    /// Relays one hand-built app packet of `flow` through the relay stage.
    fn relay_packet(engine: &mut MopEyeEngine, flow: FourTuple, packet: Packet) -> FlowId {
        let bytes = packet.to_bytes();
        let view = PacketView::parse(&bytes).expect("well-formed");
        let id = engine.shared.conns.intern(flow);
        engine.relay.on_packet(
            &mut engine.shared,
            &mut engine.egress,
            &mut engine.sched,
            SimTime::ZERO,
            Some(id),
            &view,
        );
        id
    }

    /// The ISN the relay answers a SYN on `flow` with, read off the SYN/ACK
    /// its machine emits once the external connect completes.
    fn isn_of_next_client(engine: &mut MopEyeEngine, flow: FourTuple) -> u32 {
        let id = relay_packet(engine, flow, PacketBuilder::new(flow.src, flow.dst).tcp_syn(7));
        let tcp = engine.shared.conns[id].tcp_mut().expect("a SYN creates the client");
        tcp.machine.on_external_connected()[0].tcp().expect("a SYN/ACK").seq
    }

    /// The ISN counter and the live-client census are part of what `reset`
    /// rewinds: after create → teardown → zombie re-create → reset, the next
    /// clients get the sequence numbers a fresh engine hands out.
    #[test]
    fn reset_rewinds_the_isn_sequence_and_the_live_client_census() {
        let server = Endpoint::v4(216, 58, 221, 132, 443);
        let flow = |host| FourTuple::new(Endpoint::v4(10, 1, 0, host, 40_000), server);
        let network = || SimNetwork::builder().seed(42).with_table2_destinations().build();
        let mut fresh = MopEyeEngine::new(MopEyeConfig::mopeye(), network());
        let mut reused = MopEyeEngine::new(MopEyeConfig::mopeye(), network());

        let to_server = PacketBuilder::new(flow(1).src, flow(1).dst);
        let first = isn_of_next_client(&mut reused, flow(1));
        assert_eq!(reused.shared.conns.live_clients(), 1);
        relay_packet(&mut reused, flow(1), to_server.tcp_rst_ack(8, 1));
        assert_eq!(reused.shared.conns.live_clients(), 0, "an RST drops the client");
        // The torn-down connection's tail ACK lands on a fresh machine (a
        // zombie the single-device engine keeps), which takes an ISN too.
        relay_packet(&mut reused, flow(1), to_server.tcp_ack(8, 1));
        assert_eq!(reused.shared.conns.live_clients(), 1);
        let third = isn_of_next_client(&mut reused, flow(2));
        assert_eq!(third.wrapping_sub(first), 2 * 0x01_0000, "the zombie took one");
        relay_packet(
            &mut reused,
            flow(2),
            PacketBuilder::new(flow(2).src, server).tcp_rst_ack(8, 1),
        );
        assert_eq!(reused.shared.conns.live_clients(), 1, "the zombie is still counted");

        reused.reset(network());
        assert_eq!(reused.shared.conns.live_clients(), 0);
        assert_eq!(isn_of_next_client(&mut fresh, flow(1)), first);
        assert_eq!(isn_of_next_client(&mut reused, flow(1)), first);
        for host in 2..=3 {
            let expected = isn_of_next_client(&mut fresh, flow(host));
            assert_eq!(isn_of_next_client(&mut reused, flow(host)), expected);
            assert_eq!(reused.shared.conns.live_clients(), fresh.shared.conns.live_clients());
        }
    }

    // ----- the relay's DNS path: `dns_query` plus `Conn::dns_pending` -----

    fn dns_engine() -> MopEyeEngine {
        let net = SimNetwork::builder().seed(42).with_table2_destinations().build();
        MopEyeEngine::new(MopEyeConfig::mopeye(), net)
    }

    fn to_resolver() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 1, 0, 9, 41_000), Endpoint::v4(192, 168, 1, 1, 53))
    }

    /// Pops the one event the relay scheduled, which must be `id`'s answer.
    fn scheduled_answer(engine: &mut MopEyeEngine, id: FlowId) -> (SimTime, Packet) {
        match engine.sched.pop() {
            Some((at, Event::DnsResponse { id: answered, packet })) if answered == id => {
                (at, engine.shared.parked.take(packet))
            }
            other => panic!("expected the DNS answer for {id:?}, got {other:?}"),
        }
    }

    #[test]
    fn non_dns_datagrams_are_relayed_but_not_measured() {
        let mut engine = dns_engine();
        let query = DnsMessage::query(0x77, "www.google.com");
        // A well-formed query off port 53, and garbage on port 53.
        let off_port = FourTuple::new(to_resolver().src, Endpoint::v4(3, 3, 3, 3, 4500));
        let to_4500 = PacketBuilder::new(off_port.src, off_port.dst);
        let not_dns = relay_packet(&mut engine, off_port, to_4500.dns(&query));
        let to_53 = PacketBuilder::new(to_resolver().src, to_resolver().dst);
        let garbage = relay_packet(&mut engine, to_resolver(), to_53.udp(vec![0xff; 3]));
        assert_eq!(engine.relay.stats.udp_datagrams, 2, "both datagrams are relayed");
        assert_eq!(engine.relay.stats.dns_queries, 0, "neither is a DNS query");
        for id in [not_dns, garbage] {
            assert!(engine.shared.conns[id].dns_pending.is_none());
        }
        assert!(engine.sched.pop().is_none(), "nothing is measured or answered");
    }

    #[test]
    fn the_relayed_answer_carries_the_query_transaction_id() {
        let mut engine = dns_engine();
        let query = DnsMessage::query(0x77, "www.google.com");
        let to_53 = PacketBuilder::new(to_resolver().src, to_resolver().dst);
        let id = relay_packet(&mut engine, to_resolver(), to_53.dns(&query));
        assert_eq!(engine.relay.stats.dns_queries, 1);
        let pending = engine.shared.conns[id].dns_pending.as_ref().map(|(_, name)| name.as_str());
        assert_eq!(pending, Some("www.google.com"));
        // The answer written back to the app is a response to *this* query:
        // the app's resolver matches it by transaction id, so an answer with
        // another id would never complete the app's lookup.
        let (_, packet) = scheduled_answer(&mut engine, id);
        assert_eq!(packet.four_tuple(), Some(FourTuple::new(to_resolver().dst, to_resolver().src)));
        let answer = DnsMessage::parse(&packet.udp().expect("a datagram").payload).expect("DNS");
        assert!(answer.flags.response);
        assert_eq!(answer.id, 0x77);
        assert!(engine.sched.pop().is_none(), "one query, one answer");
    }

    #[test]
    fn a_repeated_query_is_not_a_response() {
        let mut engine = dns_engine();
        let query = DnsMessage::query(9, "www.google.com");
        let to_53 = PacketBuilder::new(to_resolver().src, to_resolver().dst);
        let id = relay_packet(&mut engine, to_resolver(), to_53.dns(&query));
        let (at, answer) = scheduled_answer(&mut engine, id);
        // The app asks again before the answer arrives: a second query, so
        // nothing is measured yet and the measurement stays pending.
        relay_packet(&mut engine, to_resolver(), to_53.dns(&query));
        assert_eq!(engine.relay.stats.dns_queries, 2);
        assert!(engine.sink.samples.is_empty(), "a query completed a measurement");
        assert!(engine.shared.conns[id].dns_pending.is_some());
        // Only the answer completes it.
        engine.relay.on_dns_response(
            &mut engine.shared,
            &mut engine.egress,
            &mut engine.sink,
            &mut engine.sched,
            at,
            id,
            answer,
        );
        assert_eq!(engine.sink.samples.len(), 1);
        assert!(engine.shared.conns[id].dns_pending.is_none());
    }
}
