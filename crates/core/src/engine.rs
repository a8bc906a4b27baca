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
//! The module itself is only the *loop*: pending work lives on the O(1)
//! [`TimingWheel`] as handle-sized events — a flow's spec, a tunnel slab
//! and a packet on its way to an app wait in their arenas, and the event
//! names them — and each popped event is routed to the pipeline stage that
//! owns it — [`IngressStage`] (TUN retrieval + parse + app endpoints),
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

use mop_simnet::{SimNetwork, SimTime, SlabId, TimingWheel};
use mop_tun::{FlowSpec, ReaderSim, Workload};

use crate::arena::{Arena, Parked};
use crate::config::MopEyeConfig;
use crate::conn::FlowId;
use crate::report::{Counter, Counters};
use crate::stages::{EgressStage, EngineShared, IngressStage, RelayStage, SinkStage};
use crate::tun_writer::TunWriter;

pub use crate::report::RunReport;

/// Internal events driving the engine loop, routed between stages. A
/// connection is named by the [`FlowId`] of its record, interned when its
/// `FlowStart` ran.
///
/// Every variant is a handle: the wheel copies an event several times
/// between schedule and dispatch, so the payloads wait in arenas instead
/// (see the shape guard below).
#[derive(Debug)]
pub(crate) enum Event {
    /// An app opens the flow whose spec is parked in the run's spec list.
    /// (→ ingress)
    FlowStart(Parked),
    /// The MainWorker processes a slab batch of raw packet bytes retrieved
    /// from the tunnel. (→ ingress parse, then relay)
    ///
    /// The slab lives in (and returns to) the ingress stage's batch pool;
    /// the relay parses each packet in place with the zero-copy views. The
    /// engine loop coalesces consecutive same-instant slabs into one burst
    /// before dispatching.
    ProcessTunBatch(SlabId),
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

/// The MopEye relay engine: the event loop over the four pipeline stages.
pub struct MopEyeEngine {
    pub(crate) shared: EngineShared,
    pub(crate) ingress: IngressStage,
    pub(crate) relay: RelayStage,
    pub(crate) egress: EgressStage,
    pub(crate) sink: SinkStage,
    pub(crate) sched: TimingWheel<Event>,
    /// The run's spec list: each pending `FlowStart`'s spec.
    specs: Arena<FlowSpec>,
    events_processed: u64,
}

impl MopEyeEngine {
    /// Creates an engine over `net` with the given configuration.
    pub fn new(config: MopEyeConfig, net: SimNetwork) -> Self {
        let ingress = IngressStage::new(ReaderSim::new(config.read_strategy), config.batch_size);
        let relay = RelayStage::new(config.mapping, config.protect);
        let egress = EgressStage::new(TunWriter::new(config.write_scheme, config.enqueue_scheme));
        Self {
            shared: EngineShared::new(config, net),
            ingress,
            relay,
            egress,
            sink: SinkStage::new(),
            sched: TimingWheel::new(),
            specs: Arena::default(),
            events_processed: 0,
        }
    }

    /// Resets the engine for a new run over `net`, reusing every allocation:
    /// the connection table, stage tables, buffer and slab pools, the event
    /// payload arenas and the timing wheel's slot slab all survive cleared
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
        self.specs.clear();
        self.events_processed = 0;
    }

    /// The engine configuration.
    pub fn config(&self) -> &MopEyeConfig {
        &self.shared.config
    }

    /// Access to the underlying network (e.g. to inspect the wire tap).
    pub fn network(&self) -> &SimNetwork {
        &self.shared.net
    }

    /// How many payloads each arena holds for events still pending: flow
    /// specs, tunnel slabs and packets on their way to an app. All zero
    /// once a run has completed; [`MopEyeEngine::reset`] empties them
    /// whatever the run did.
    pub fn parked_payloads(&self) -> [(&'static str, usize); 3] {
        [
            ("specs", self.specs.len()),
            ("slabs", self.ingress.batches.in_use()),
            ("packets", self.shared.parked.len()),
        ]
    }

    /// Duplicate ACKs the simulated apps have sent since the engine was
    /// created or reset: one per segment an app received out of order or
    /// twice, i.e. the receive side's count of loss events. Zero on a
    /// network that cannot fault. (`RelayStats::retransmits` is the send
    /// side's; the allocation-budget test charges both.)
    pub fn app_dup_acks_sent(&self) -> u64 {
        self.shared.conns.iter().map(|conn| u64::from(conn.app.dup_acks_sent())).sum()
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

    /// Runs an explicit list of flows to completion and reports.
    ///
    /// The loop drains the scheduler in timestamp-batched bursts: pops are
    /// nondecreasing in time with FIFO order at equal instants, so
    /// *consecutive* TUN slabs due at the same instant can be absorbed into
    /// one burst (up to `config.batch_size` packets) and handed to the
    /// ingress stage as one slab. Coalescing is restricted to equal timestamps
    /// because processing an event at `t1` may schedule new work strictly
    /// between `t1` and the next queued event — merging across distinct
    /// instants would reorder that work. At equal instants the merge is
    /// exactly order-preserving: anything the first slab's processing
    /// schedules for the same instant gets a later FIFO sequence number than
    /// the already-queued follower, so the follower would have popped first
    /// anyway.
    pub fn run_flows(&mut self, flows: Vec<FlowSpec>) -> RunReport {
        self.reserve_flows(flows.len());
        for spec in flows {
            self.relay.packages.install(spec.uid, &spec.package);
            let at = spec.at;
            self.sched.schedule(at, Event::FlowStart(self.specs.park(spec)));
        }
        let batch_cap = self.shared.config.batch_size.max(1);
        let mut stash: Option<(SimTime, Event)> = None;
        while let Some((at, event)) = stash.take().or_else(|| self.sched.pop()) {
            self.shared.clock.advance_to(at);
            let proceed = match event {
                Event::ProcessTunBatch(slab) => {
                    // Absorb consecutive same-instant slabs into this burst.
                    // Only same-instant followers may be popped at all:
                    // pulling a *later* event out here would jump it ahead of
                    // any earlier work the burst schedules while processing.
                    let batches = &mut self.ingress.batches;
                    while batches[slab].len() < batch_cap && self.sched.peek_time() == Some(at) {
                        match self.sched.pop() {
                            Some((_, Event::ProcessTunBatch(follower))) => {
                                batches.absorb(slab, follower);
                            }
                            // A same-instant non-batch event: it was queued
                            // before anything the burst can schedule at this
                            // instant, so running it right after the burst
                            // preserves FIFO order exactly.
                            Some(other) => {
                                stash = Some(other);
                                break;
                            }
                            None => break,
                        }
                    }
                    self.process_tun_batch(slab)
                }
                event => self.dispatch(at, event),
            };
            if !proceed {
                break;
            }
        }
        self.report()
    }

    /// Pre-sizes the connection table for `flows` more connections, so a
    /// fleet-scale run pays its table growth up front rather than on the
    /// packet path.
    pub fn reserve_flows(&mut self, flows: usize) {
        self.shared.conns.reserve(flows);
    }

    /// Counts and dispatches one event; false stops the run (event budget).
    fn dispatch(&mut self, at: SimTime, event: Event) -> bool {
        self.events_processed += 1;
        if self.events_processed > self.shared.config.max_events {
            return false;
        }
        self.route(at, event);
        true
    }

    /// Routes one event to the stage that owns it. Cross-stage effects
    /// travel either as scheduler events or through the explicitly passed
    /// downstream stages.
    fn route(&mut self, now: SimTime, event: Event) {
        let (shared, sched) = (&mut self.shared, &mut self.sched);
        match event {
            Event::FlowStart(spec) => {
                let spec = self.specs.take(spec);
                self.ingress.on_flow_start(shared, &mut self.relay, sched, now, spec)
            }
            Event::ProcessTunBatch(_) => {
                unreachable!("TUN batches are coalesced and dispatched by the run_flows loop")
            }
            Event::ExternalConnected(id) => self.relay.on_external_connected(
                shared,
                &mut self.egress,
                &mut self.sink,
                sched,
                now,
                id,
            ),
            Event::SocketReadable(id) => {
                self.relay.on_socket_readable(shared, &mut self.egress, sched, now, id)
            }
            Event::DnsResponse { id, packet } => {
                let packet = shared.parked.take(packet);
                self.relay.on_dns_response(
                    shared,
                    &mut self.egress,
                    &mut self.sink,
                    sched,
                    now,
                    id,
                    packet,
                )
            }
            Event::DeliverToApp(id, packet) => {
                let packet = shared.parked.take(packet);
                self.ingress.on_deliver_to_app(shared, &mut self.relay, sched, now, id, packet)
            }
            Event::IdleTimeout(id) => self.relay.on_idle_timeout(shared, sched, now, id),
            Event::RtoTimeout(id) => {
                self.relay.on_rto_timeout(shared, &mut self.egress, sched, now, id)
            }
        }
    }

    /// The ingress → relay handoff for one coalesced tunnel burst: budget
    /// the event count (each packet in the slab was one scheduled event),
    /// hand the slab to the ingress stage, and recycle it.
    /// Returns false when the event budget is exhausted.
    fn process_tun_batch(&mut self, slab: SlabId) -> bool {
        // Reproduce the item-wise budget semantics exactly: events count one
        // by one, and the event that crosses the budget is counted but not
        // processed.
        let packets = self.ingress.batches[slab].len() as u64;
        let remaining = self.shared.config.max_events.saturating_sub(self.events_processed);
        let over_budget = packets > remaining;
        let process = packets.min(remaining);
        self.events_processed += process + u64::from(over_budget);
        self.ingress.batches[slab].truncate(process as usize);
        self.ingress.process_tun(
            &mut self.shared,
            &mut self.relay,
            &mut self.egress,
            &mut self.sched,
            slab,
        );
        self.ingress.batches.put(slab);
        !over_budget
    }

    fn report(&mut self) -> RunReport {
        let mut counters = Counters::default();
        counters[Counter::ConnTableScanElems] = self.relay.conn_table.scan_elems();
        counters[Counter::SelectorScanElems] = self.relay.selector.scan_elems();
        counters[Counter::TapScanElems] = self.shared.net.tap().scan_elems();
        counters[Counter::WheelReadyInserts] = self.sched.ready_inserts();
        counters[Counter::WheelReadyShiftElems] = self.sched.ready_shift_elems();
        RunReport {
            flows: self.shared.conns.flow_outcomes(),
            samples: std::mem::take(&mut self.sink.samples),
            aggregates: std::mem::take(&mut self.sink.aggregates),
            windows: self.sink.windows.take(),
            relay: std::mem::take(&mut self.relay.stats),
            mapping: self.relay.mapper.stats(),
            tun: self.shared.tun.stats(),
            ledger: self.shared.ledger.clone(),
            buffer_pool: self.ingress.batches.stats(),
            socket_read_pool: self.relay.sockets.read_pool_stats(),
            finished_at: self.shared.clock.now(),
            events_processed: self.events_processed,
            events_scheduled: self.sched.scheduled_total(),
            counters,
        }
    }
}
