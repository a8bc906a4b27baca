//! The ingress stage: TUN retrieval and parse.
//!
//! This is the app-facing end of the pipeline. When a simulated app endpoint
//! or DNS client (held in its connection's record) writes a packet "into the
//! tunnel", the raw IP bytes are sealed into a pooled slab batch, the
//! `ReaderSim` models the TUN retrieval cost for the configured read
//! strategy, and the slab's id is scheduled as a `ProcessTunBatch` event (the
//! engine loop coalesces same-instant slabs into larger bursts), which comes
//! back here to be parsed and handed to the relay. Packets the egress stage
//! delivers back to the apps re-enter here too (`DeliverToApp`), where the
//! app endpoints consume them and emit their next requests.

use mop_packet::{Endpoint, FourTuple, Packet, PacketView};
use mop_simnet::{BatchPool, Component, SimDuration, SimTime, SlabId, TimingWheel};
use mop_tun::{AppEndpoint, DnsClient, FlowKind, FlowSpec, ReaderSim};
use mop_procnet::SocketStateCode;

use super::{EgressStage, EngineShared, RelayStage};
use crate::conn::{AppSide, FlowId};
use crate::engine::Event;

/// The TUN retrieval + parse stage. See the [module docs](self).
#[derive(Debug)]
pub struct IngressStage {
    /// The TUN read-strategy model (§3.1).
    pub(crate) reader: ReaderSim,
    /// The tunnel slab arena: the reader seals retrieved packets into a
    /// pooled slab, the slab stays here (its event carries only the id)
    /// while the relay parses it by reference, then the slab is recycled.
    pub(crate) batches: BatchPool,
    /// Sequential source-port pool (single-device flows only).
    pub(crate) next_app_port: u16,
    /// Sequential DNS transaction ids.
    pub(crate) next_dns_id: u16,
    /// Where an app endpoint emits its replies to a delivered packet;
    /// drained after every delivery, never dropped.
    app_out: Vec<Packet>,
}

impl IngressStage {
    /// Creates the stage around a configured reader, with slabs pre-sized
    /// for `batch_size`-packet bursts.
    pub fn new(reader: ReaderSim, batch_size: usize) -> Self {
        Self {
            reader,
            batches: BatchPool::for_packets(batch_size),
            next_app_port: 36_000,
            next_dns_id: 1,
            app_out: Vec::new(),
        }
    }

    /// Resets the stage to its just-constructed state, keeping the slab
    /// pool (slabs a stopped run left in flight return to it): the reader
    /// restarts its poll loop at time zero and the port/transaction-id
    /// counters rewind so a reused stage hands out the same identifiers a
    /// fresh one would.
    pub(crate) fn reset(&mut self) {
        self.reader.reset();
        self.batches.reset();
        self.next_app_port = 36_000;
        self.next_dns_id = 1;
    }

    /// The MainWorker drains one TUN slab: each packet is parsed zero-copy
    /// straight out of the slab bytes, resolved to its connection record
    /// (the one place a four-tuple is hashed), charged its parse cost
    /// (which, under the saturating model, amortises across the burst), and
    /// handed to the relay. Per-packet semantics — parse, RNG draws, relay
    /// decision — are those of a one-event-per-packet loop; only the
    /// dispatch granularity differs.
    pub(crate) fn process_tun(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        slab: SlabId,
    ) {
        let slab = &self.batches[slab];
        for i in 0..slab.len() {
            let due = slab.due(i);
            sh.clock.advance_to(due);
            match PacketView::parse(slab.packet(i)) {
                Ok(packet) => {
                    let id = packet.four_tuple().map(|flow| sh.conns.intern(flow));
                    let parse_cost = Self::parse_cost(sh, id);
                    let start = sh.worker_step(due, parse_cost);
                    relay.on_packet(sh, egress, sched, start, id, &packet);
                }
                Err(_) => relay.stats.parse_errors += 1,
            }
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_app_port;
        self.next_app_port =
            if self.next_app_port >= 64_000 { 36_000 } else { self.next_app_port + 1 };
        port
    }

    /// An app opens the flow described by `spec`: intern its four-tuple,
    /// create the endpoint (TCP) or DNS client, register the connection, and
    /// inject the opening packet into the tunnel. A repeated `FlowStart` on
    /// an interned tuple replaces the app side and restarts the outcome
    /// record; the connection's streams, lane and socket carry on.
    pub(crate) fn on_flow_start(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        spec: FlowSpec,
    ) {
        // Fleet scenarios pre-assign the source endpoint so the four-tuple is
        // a pure function of the spec; single-device flows draw from the
        // engine's sequential port pool.
        let src = match spec.src {
            Some(src) => src,
            None => Endpoint::v4(10, 0, 0, 2, self.alloc_port()),
        };
        match spec.kind {
            FlowKind::Tcp => {
                let flow = FourTuple::new(src, spec.dst);
                let mut app = Box::new(AppEndpoint::new(
                    spec.uid,
                    flow,
                    vec![0x47; spec.request_bytes.max(1)],
                    spec.close_after,
                ));
                let syn = app.syn_packet();
                let id = sh.conns.intern(flow);
                sh.conns[id].app = AppSide::Tcp(app);
                sh.conns[id].started(&spec, now);
                relay.conn_table.register(flow, true, spec.uid, SocketStateCode::SynSent);
                if let Some(domain) = &spec.domain {
                    relay.ip_to_domain.insert(spec.dst.addr, domain.clone());
                }
                self.inject_app_packet(sh, relay, sched, now, id, syn);
            }
            FlowKind::Dns => {
                let resolver = Endpoint::new(sh.net.dns_config().addr, 53);
                let flow = FourTuple::new(src, resolver);
                let id = self.next_dns_id;
                self.next_dns_id = self.next_dns_id.wrapping_add(1).max(1);
                let name = spec.domain.clone().unwrap_or_else(|| "unknown.example".to_string());
                let client = Box::new(DnsClient::new(spec.uid, src, resolver, id, &name));
                let query = client.query_packet();
                let id = sh.conns.intern(flow);
                sh.conns[id].app = AppSide::Dns(client);
                sh.conns[id].started(&spec, now);
                relay.conn_table.register(flow, false, spec.uid, SocketStateCode::Close);
                self.inject_app_packet(sh, relay, sched, now, id, query);
            }
        }
    }

    /// The app of connection `id` wrote a packet into the tunnel: the raw IP
    /// bytes are sealed into a pooled slab batch, the TunReader's retrieval
    /// is simulated and the slab is scheduled to the relay stage. This mirrors the real
    /// datapath — the TUN device hands MopEye bytes, not parsed structures —
    /// and the slab is recycled once the relay has processed it. Each write
    /// seals its own one-packet slab; the engine loop coalesces slabs that
    /// land on the same instant into larger bursts.
    pub(crate) fn inject_app_packet(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        sched: &mut TimingWheel<Event>,
        at: SimTime,
        id: FlowId,
        packet: Packet,
    ) {
        let slab = self.batches.get();
        let wire_len = self.batches[slab].push_with(|data| packet.encode_into(data));
        sh.tun.record_app_write(wire_len);
        let mut rng = sh.checkout_rng(id);
        let retrieval = self.reader.retrieve(at, &sh.cost, &mut rng);
        sh.ledger.charge(Component::TunReader, retrieval.polling_cpu + sh.cost.tun_read.sample(&mut rng));
        // TunReader puts the packet in the read queue and wakes the selector
        // so the relay's MainWorker notices it (§3.2).
        relay.selector.wakeup();
        let handoff = sh.cost.context_switch.sample(&mut rng);
        sh.checkin_rng(id, rng);
        let due = retrieval.retrieved_at + handoff;
        self.batches[slab].stamp_due(due);
        sched.schedule(due, Event::ProcessTunBatch(slab));
    }

    /// The per-packet header-parse cost the relay's MainWorker pays, drawn
    /// from the flow's stream (the parse itself happens zero-copy on the
    /// pooled bytes).
    pub(crate) fn parse_cost(sh: &mut EngineShared, id: Option<FlowId>) -> SimDuration {
        let mut rng = sh.checkout_rng_opt(id);
        let cost = SimDuration::from_micros(rng.int_inclusive(4, 25));
        sh.checkin_rng_opt(id, rng);
        cost
    }

    /// A packet written by the egress stage reaches the app side of
    /// connection `id`: DNS clients consume answers, app endpoints consume
    /// data and emit their next requests back into the tunnel.
    pub(crate) fn on_deliver_to_app(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        packet: Packet,
    ) {
        let mut responses = std::mem::take(&mut self.app_out);
        sh.conns[id].deliver_to_app(now, &packet, &mut responses);
        for (i, response) in responses.drain(..).enumerate() {
            // Consecutive packets from the app leave a few microseconds apart.
            let at = now + SimDuration::from_micros(20 * (i as u64 + 1));
            self.inject_app_packet(sh, relay, sched, at, id, response);
        }
        self.app_out = responses;
        // The delivered packet is dead: its payload buffer goes back to the
        // relay's free list.
        sh.segments.recycle(packet);
    }
}
