//! The MopEye engine event loop.
//!
//! [`MopEyeEngine`] wires the substrates together exactly the way Figure 4 of
//! the paper wires the app's three core threads, and drives everything in
//! virtual time:
//!
//! ```text
//!  apps ──TUN──▶ TunReader ──read queue──▶ MainWorker ──sockets──▶ servers
//!   ▲                                          │    ▲
//!   └────────── TunWriter ◀──write queue───────┘    └── socket-connect
//!                                                        threads (RTT!)
//! ```
//!
//! The module itself is only the *loop*. A run's flows are a sorted input:
//! the loop opens each one when it is due, merging that cursor with the
//! O(1) [`TimingWheel`], where pending work waits as handle-sized events — a
//! tunnel packet and a packet on its way to an app wait in their arenas,
//! and the event names them. Each popped event is routed to the pipeline
//! stage that owns it — [`IngressStage`] (TUN retrieval + parse + app endpoints),
//! [`RelayStage`] (TCP/UDP/DNS state-machine dispatch and per-connection
//! timers), [`EgressStage`] (TunWriter lanes) and [`SinkStage`] (the
//! measurement fold). See [`crate::stages`] for the pipeline diagram and
//! `docs/ARCHITECTURE.md` for the life of a packet and of a timer.
//!
//! Each run consumes a set of app workloads, relays every packet they
//! generate, and produces a [`RunReport`] with the RTT samples (against
//! ground truth), the relay counters, the mapping statistics, the
//! tunnel-write delay distributions and the resource ledger — everything the
//! paper's evaluation sections need.

use mop_simnet::{PoolStats, SimNetwork, SimTime, TimingWheel};
use mop_tun::{FlowSpec, ReaderSim, Workload};

use crate::arena::Parked;
use crate::config::MopEyeConfig;
use crate::conn::FlowId;
use crate::report::{Counter, Counters};
use crate::stages::{EgressStage, EngineShared, IngressStage, RelayStage, SinkStage};
use crate::tun_writer::TunWriter;

pub use crate::report::RunReport;

/// Internal events driving the engine loop, routed between stages. Each
/// names a connection by the [`FlowId`] of its record, interned when its
/// flow started.
///
/// Every variant is a handle: the wheel copies an event several times
/// between schedule and dispatch, so the payloads wait in arenas instead
/// (see the shape guard below).
#[derive(Debug)]
pub(crate) enum Event {
    /// The MainWorker processes one packet's raw bytes retrieved from the
    /// tunnel, written by the app of the named connection. (→ ingress
    /// parse, then relay)
    ///
    /// The bytes wait in a pooled buffer parked in the ingress stage, and
    /// the relay parses them in place with the zero-copy views.
    TunPacket(FlowId, Parked),
    /// The connection's external connect has completed (successfully or
    /// not). (→ relay)
    ExternalConnected(FlowId),
    /// Response data has become readable on the connection's external
    /// socket. (→ relay)
    SocketReadable(FlowId),
    /// The DNS response for the connection has arrived; relay it to the app.
    /// (→ relay)
    DnsResponse {
        /// The DNS connection.
        id: FlowId,
        /// The response packet to write to the tunnel, parked in
        /// [`crate::stages::EngineShared::parked`].
        packet: Parked,
    },
    /// A packet written to the tunnel (parked in
    /// [`crate::stages::EngineShared::parked`]) is delivered to the
    /// connection's app side. (→ ingress)
    DeliverToApp(FlowId, Parked),
    /// The connection's cancellable idle timer expired with no relay
    /// activity. (→ relay)
    IdleTimeout(FlowId),
    /// The connection's retransmission timer expired with data still in
    /// flight. (→ relay)
    RtoTimeout(FlowId),
}

// Shape guard: an event stays a few machine words.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

impl Event {
    /// The connection the event concerns.
    pub(crate) fn id(&self) -> FlowId {
        match *self {
            Event::TunPacket(id, _)
            | Event::ExternalConnected(id)
            | Event::SocketReadable(id)
            | Event::DnsResponse { id, .. }
            | Event::DeliverToApp(id, _)
            | Event::IdleTimeout(id)
            | Event::RtoTimeout(id) => id,
        }
    }

    /// Whether the event holds its connection's record while it is
    /// pending: every event but the timers, which live in the record's TCP
    /// side and are cancelled with it.
    pub(crate) fn holds(&self) -> bool {
        !matches!(self, Event::IdleTimeout(_) | Event::RtoTimeout(_))
    }
}

/// The MopEye relay engine: the event loop over the four pipeline stages.
pub struct MopEyeEngine {
    pub(crate) shared: EngineShared,
    pub(crate) ingress: IngressStage,
    pub(crate) relay: RelayStage,
    pub(crate) egress: EgressStage,
    pub(crate) sink: SinkStage,
    pub(crate) sched: TimingWheel<Event>,
    events_processed: u64,
}

impl MopEyeEngine {
    /// Creates an engine over `net` with the given configuration.
    pub fn new(config: MopEyeConfig, net: SimNetwork) -> Self {
        let ingress = IngressStage::new(ReaderSim::new(config.read_strategy));
        let relay = RelayStage::new(config.mapping, config.protect);
        let egress = EgressStage::new(TunWriter::new(config.write_scheme, config.enqueue_scheme));
        Self {
            shared: EngineShared::new(config, net),
            ingress,
            relay,
            egress,
            sink: SinkStage::new(),
            sched: TimingWheel::new(),
            events_processed: 0,
        }
    }

    /// Resets the engine for a new run over `net`, reusing every allocation:
    /// the connection table, stage tables, buffer pools, the event payload
    /// arenas and the timing wheel's slot slab all survive cleared
    /// rather than dropped (a stopped run's pending payloads with them), so
    /// a resident engine's steady state allocates nothing. A reset engine is
    /// observationally identical to `MopEyeEngine::new(config, net)` with
    /// the same config — the clock restarts at zero, RNG streams reseed from
    /// the config seed, every counter and identifier sequence rewinds, and
    /// the keying is `net`'s, whatever the previous network's was.
    pub fn reset(&mut self, net: SimNetwork) {
        self.shared.reset(net);
        self.ingress.reset();
        self.relay.reset();
        self.egress.reset();
        self.sink.reset();
        self.sched.reset();
        self.events_processed = 0;
    }

    /// The engine configuration.
    pub fn config(&self) -> &MopEyeConfig {
        &self.shared.config
    }

    /// How many payloads each arena holds for events still pending: tunnel
    /// packets and packets on their way to an app. Both zero once a run has
    /// completed; [`MopEyeEngine::reset`] empties them whatever the run
    /// did.
    pub fn parked_payloads(&self) -> [(&'static str, usize); 2] {
        [("tunnel packets", self.ingress.packets.len()), ("packets", self.shared.parked.len())]
    }

    /// Duplicate ACKs the simulated apps have sent since the engine was
    /// created or reset: one per segment an app received out of order or
    /// twice, i.e. the receive side's count of loss events. Zero on a
    /// network that cannot fault. (`RelayStats::retransmits` is the send
    /// side's; the allocation-budget test charges both.)
    pub fn app_dup_acks_sent(&self) -> u64 {
        self.shared.conns.dup_acks_sent()
    }

    /// Runs a set of workloads to completion and reports.
    pub fn run(&mut self, workloads: &[Workload]) -> RunReport {
        let mut flows = Vec::new();
        let mut wl_rng = self.shared.rng.fork("workloads");
        for workload in workloads {
            self.relay.packages.install(workload.uid, &workload.package);
            flows.extend(workload.generate(&mut wl_rng));
        }
        self.run_flows(flows)
    }

    /// Runs an explicit list of flows to completion and reports. The flows
    /// are opened in order of their start times (list order at equal
    /// times), each before any wheel event due at the same instant; wheel
    /// pops are nondecreasing in time with FIFO order at equal instants.
    /// Every start and every popped event is dispatched on its own and
    /// counts against the event budget. The report's flow outcomes are
    /// those of the connections this run interned, in intern order.
    pub fn run_flows(&mut self, mut flows: Vec<FlowSpec>) -> RunReport {
        for spec in &flows {
            self.relay.packages.install(spec.uid, &spec.package);
        }
        flows.sort_by_key(|spec| spec.at);
        self.ingress.bind_sources(&mut flows);
        let tuples = flows.iter().map(|spec| IngressStage::flow_of(&self.shared, spec)).collect();
        self.shared.conns.expect_starts(tuples);
        let handed = flows.len() as u64;
        // The flows still to start, the next one last: checking whether it
        // is due moves no spec, and opening it is a pop.
        flows.reverse();
        loop {
            let start = flows
                .last()
                .map(|spec| spec.at)
                .filter(|&at| self.sched.peek_time().map_or(true, |next| at <= next));
            let (at, event) = match start {
                Some(at) => (at, None),
                None => match self.sched.pop() {
                    Some((at, event)) => (at, Some(event)),
                    None => break,
                },
            };
            self.shared.advance_to(at);
            self.events_processed += 1;
            if self.events_processed > self.shared.config.max_events {
                break;
            }
            match event {
                Some(event) => self.route(at, event),
                // The opened record holds its first packet: it stays.
                None => {
                    let spec = flows.pop().expect("a due start");
                    let (shared, relay, sched) =
                        (&mut self.shared, &mut self.relay, &mut self.sched);
                    self.ingress.on_flow_start(shared, relay, sched, at, spec);
                }
            }
        }
        self.report(handed)
    }

    /// Routes one event to the stage that owns it, then lets the record it
    /// concerned leave if nothing can reach it any more. Cross-stage effects
    /// travel either as scheduler events or through the explicitly passed
    /// downstream stages.
    fn route(&mut self, now: SimTime, event: Event) {
        let Self { shared, ingress, relay, egress, sink, sched, .. } = self;
        let id = event.id();
        if event.holds() {
            shared.conns.unhold(id);
        }
        match event {
            Event::TunPacket(_, packet) => {
                ingress.process_tun(shared, relay, egress, sched, now, packet)
            }
            Event::ExternalConnected(_) => {
                relay.on_external_connected(shared, egress, sink, sched, now, id)
            }
            Event::SocketReadable(_) => relay.on_socket_readable(shared, egress, sched, now, id),
            Event::DnsResponse { packet, .. } => {
                let packet = shared.parked.take(packet);
                relay.on_dns_response(shared, egress, sink, sched, now, id, packet);
            }
            Event::DeliverToApp(_, packet) => {
                let packet = shared.parked.take(packet);
                ingress.on_deliver_to_app(shared, sched, now, id, packet);
            }
            Event::IdleTimeout(_) => relay.on_idle_timeout(shared, sched, now, id),
            Event::RtoTimeout(_) => relay.on_rto_timeout(shared, egress, sched, now, id),
        }
        self.settle(id);
    }

    /// Lets `id`'s record leave if nothing can reach it again (see
    /// [`crate::conn`]): no TCP side, no open socket, no pending event and
    /// no start still due on its tuple. Its network state, its
    /// socket entry and the wire tap's exchanges of its tuples go with it.
    fn settle(&mut self, id: FlowId) {
        let conns = &mut self.shared.conns;
        let sockets = &mut self.relay.sockets;
        if !conns.unreachable(id) || conns[id].socket.is_some_and(|s| sockets.is_open(s)) {
            return;
        }
        let conn = conns.remove(id);
        let net = &mut self.shared.net;
        if let Some(socket) = conn.socket {
            if let Some(wire) = sockets.flow(socket).filter(|&wire| wire != conn.flow) {
                net.forget_flow(wire);
            }
            sockets.release(socket);
        }
        net.forget_flow(conn.flow);
    }

    /// The run's report; `handed` flows were given to the run, and each
    /// counts as one scheduled event whether or not it started.
    fn report(&mut self, handed: u64) -> RunReport {
        let mut counters = Counters::default();
        counters[Counter::ConnTableScanElems] = self.relay.conn_table.scan_elems();
        counters[Counter::ConnsPeakRecords] = self.shared.conns.peak_records() as u64;
        counters[Counter::TupleProbes] = self.shared.conns.tuple_probes();
        counters[Counter::SocketsPeakHeld] = self.relay.sockets.peak_held() as u64;
        counters[Counter::TapPeakExchanges] = self.shared.net.tap().peak_exchanges() as u64;
        counters[Counter::TapScanElems] = self.shared.net.tap().scan_elems();
        counters[Counter::WheelPeakCells] = self.sched.peak_cells() as u64;
        counters[Counter::WheelReadyInserts] = self.sched.ready_inserts();
        counters[Counter::WheelReadyShiftElems] = self.sched.ready_shift_elems();
        RunReport {
            flows: self.shared.conns.take_outcomes(),
            samples: std::mem::take(&mut self.sink.samples),
            aggregates: std::mem::take(&mut self.sink.aggregates),
            windows: self.sink.windows.take(),
            relay: std::mem::take(&mut self.relay.stats),
            mapping: self.relay.mapper.stats(),
            tun: self.shared.tun,
            ledger: self.shared.ledger.clone(),
            buffer_pool: self.ingress.buffer_stats(),
            socket_read_pool: PoolStats::default(),
            finished_at: self.shared.now,
            events_processed: self.events_processed,
            events_scheduled: handed + self.sched.scheduled_total(),
            counters,
        }
    }
}
