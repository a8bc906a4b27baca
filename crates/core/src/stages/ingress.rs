//! The ingress stage: TUN retrieval and parse.
//!
//! This is the app-facing end of the pipeline. When a simulated app endpoint
//! or DNS client (held in its connection's record) writes a packet "into the
//! tunnel", the raw IP bytes are encoded into a pooled buffer, the
//! `ReaderSim` models the TUN retrieval cost for the configured read
//! strategy, and the buffer is parked behind a `TunPacket` event — the
//! TunReader handing the MainWorker one packet through its read queue
//! (§3.1–3.2) — which comes back here to be parsed and handed to the
//! relay. Packets the egress stage delivers back to the apps re-enter here
//! too (`DeliverToApp`), where the app endpoints consume them and emit
//! their next requests.

use mop_packet::{Endpoint, FourTuple, Packet, PacketView};
use mop_procnet::SocketStateCode;
use mop_simnet::{BufferPool, Component, PoolStats, SimDuration, SimTime, TimingWheel};
use mop_tun::{AppEndpoint, DnsClient, FlowKind, FlowSpec, ReaderSim};

use super::{EgressStage, EngineShared, RelayStage};
use crate::arena::{Arena, Parked};
use crate::conn::{AppSide, FlowId};
use crate::engine::Event;

/// The tunnel-packet size class of a packet of `len` bytes, or of a buffer
/// of that capacity coming back: 0 for header-only packets, 1 for the
/// full-MTU buffers of packets that carry data.
fn size_class(len: usize) -> usize {
    usize::from(len > BufferPool::PACKET_CAPACITY)
}

/// The TUN retrieval + parse stage. See the [module docs](self).
#[derive(Debug)]
pub struct IngressStage {
    /// The TUN read-strategy model (§3.1).
    pub(crate) reader: ReaderSim,
    /// Free lists of tunnel packet buffers, one per size class (see
    /// `size_class`): each app write is encoded into a buffer of its
    /// length's class, and the buffer comes back once the relay has parsed
    /// it. Most writes are ACKs, SYNs, FINs and DNS queries that fit a
    /// header-only buffer; only a packet that carries a request takes a
    /// full-MTU one, so a pending packet costs about its own size and no
    /// buffer has to grow.
    buffers: [BufferPool; 2],
    /// Tunnel packets on their way to the MainWorker: a write's buffer
    /// waits here while its `TunPacket` event, which carries the handle
    /// and the writing connection's id, is on the wheel.
    pub(crate) packets: Arena<Vec<u8>>,
    /// Sequential source-port pool (single-device flows only).
    pub(crate) next_app_port: u16,
    /// Sequential DNS transaction ids.
    pub(crate) next_dns_id: u16,
    /// Where an app endpoint emits its replies to a delivered packet;
    /// drained after every delivery, never dropped.
    app_out: Vec<Packet>,
}

impl IngressStage {
    /// Creates the stage around a configured reader.
    pub(crate) fn new(reader: ReaderSim) -> Self {
        Self {
            reader,
            buffers: [BufferPool::for_packets(), BufferPool::for_data_packets()],
            packets: Arena::default(),
            next_app_port: 36_000,
            next_dns_id: 1,
            app_out: Vec::new(),
        }
    }

    /// Resets the stage to its just-constructed state, keeping the buffer
    /// pool (buffers a stopped run left parked return to it): the reader
    /// restarts its poll loop at time zero and the port/transaction-id
    /// counters rewind so a reused stage hands out the same identifiers a
    /// fresh one would.
    pub(crate) fn reset(&mut self) {
        self.reader.reset();
        for buf in self.packets.drain() {
            self.buffers[size_class(buf.capacity())].put(buf);
        }
        for pool in &mut self.buffers {
            pool.reset_stats();
        }
        self.next_app_port = 36_000;
        self.next_dns_id = 1;
    }

    /// The MainWorker processes one tunnel packet: it is parsed zero-copy
    /// straight out of its pooled buffer, resolved to its connection record
    /// (the one place a four-tuple is hashed), charged its parse cost and
    /// handed to the relay; then the buffer returns to the pool.
    pub(crate) fn process_tun(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        packet: Parked,
    ) {
        let buf = self.packets.take(packet);
        match PacketView::parse(&buf) {
            Ok(packet) => {
                let id = packet.four_tuple().map(|flow| sh.conns.intern(flow));
                let parse_cost = Self::parse_cost(sh, id);
                sh.ledger.charge(Component::MainWorker, parse_cost);
                relay.on_packet(sh, egress, sched, now, id, &packet);
            }
            Err(_) => relay.stats.parse_errors += 1,
        }
        self.buffers[size_class(buf.capacity())].put(buf);
    }

    /// Both size classes' counters, as one pool's.
    pub(crate) fn buffer_stats(&self) -> PoolStats {
        let mut stats = PoolStats::default();
        for pool in &self.buffers {
            stats.merge(&pool.stats());
        }
        stats
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_app_port;
        self.next_app_port =
            if self.next_app_port >= 64_000 { 36_000 } else { self.next_app_port + 1 };
        port
    }

    /// Binds each flow without a source to the next port of the engine's
    /// sequential pool (single-device flows; fleet scenarios pre-assign the
    /// source so the four-tuple is a pure function of the spec), in the
    /// order the flows will start: `flows` is sorted by start time. So
    /// every flow's four-tuple is known before the run starts.
    pub(crate) fn bind_sources(&mut self, flows: &mut [FlowSpec]) {
        for spec in flows.iter_mut().filter(|spec| spec.src.is_none()) {
            spec.src = Some(Endpoint::v4(10, 0, 0, 2, self.alloc_port()));
        }
    }

    /// The four-tuple a flow with a bound source opens: to its server for
    /// TCP, to the network's resolver for DNS.
    pub(crate) fn flow_of(sh: &EngineShared, spec: &FlowSpec) -> FourTuple {
        let src = spec.src.expect("every source is bound before the run");
        match spec.kind {
            FlowKind::Tcp => FourTuple::new(src, spec.dst),
            FlowKind::Dns => FourTuple::new(src, Endpoint::new(sh.net.dns_config().addr, 53)),
        }
    }

    /// An app opens the flow described by `spec`: intern its four-tuple,
    /// create the endpoint (TCP) or DNS client, register the connection, and
    /// inject the opening packet into the tunnel. A repeated start on an
    /// interned tuple replaces the app side and restarts the outcome
    /// record; the connection's streams, lane and socket carry on.
    pub(crate) fn on_flow_start(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        spec: FlowSpec,
    ) {
        let flow = Self::flow_of(sh, &spec);
        match spec.kind {
            FlowKind::Tcp => {
                let mut app = Box::new(AppEndpoint::new(
                    spec.uid,
                    flow,
                    spec.request_bytes.max(1),
                    spec.close_after,
                ));
                let syn = app.syn_packet();
                let id = sh.conns.start(flow);
                sh.conns[id].app = AppSide::Tcp(app);
                sh.conns[id].started(&spec, now);
                relay.conn_table.register(flow, true, spec.uid, SocketStateCode::SynSent);
                if let Some(domain) = &spec.domain {
                    relay.ip_to_domain.insert(spec.dst.addr, domain.clone());
                }
                self.inject_app_packet(sh, sched, now, id, syn);
            }
            FlowKind::Dns => {
                let id = self.next_dns_id;
                self.next_dns_id = self.next_dns_id.wrapping_add(1).max(1);
                let name = spec.domain.clone().unwrap_or_else(|| "unknown.example".to_string());
                let client = Box::new(DnsClient::new(spec.uid, flow.src, flow.dst, id, &name));
                let query = client.query_packet();
                let id = sh.conns.start(flow);
                sh.conns[id].app = AppSide::Dns(client);
                sh.conns[id].started(&spec, now);
                relay.conn_table.register(flow, false, spec.uid, SocketStateCode::Close);
                self.inject_app_packet(sh, sched, now, id, query);
            }
        }
    }

    /// The app of connection `id` wrote a packet into the tunnel: the raw IP
    /// bytes are encoded into a pooled buffer, the TunReader's retrieval is
    /// simulated and the buffer is scheduled to the relay stage. This
    /// mirrors the real datapath — the TUN device hands MopEye bytes, not
    /// parsed structures — and the buffer is recycled once the relay has
    /// processed it.
    pub(crate) fn inject_app_packet(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimingWheel<Event>,
        at: SimTime,
        id: FlowId,
        packet: Packet,
    ) {
        let mut buf = self.buffers[size_class(packet.wire_len())].get();
        packet.encode_into(&mut buf);
        sh.tun.record_app_write(buf.len());
        let mut rng = sh.checkout_rng(id);
        let retrieval = self.reader.retrieve(at, &sh.cost, &mut rng);
        sh.ledger.charge(
            Component::TunReader,
            retrieval.polling_cpu + sh.cost.tun_read.sample(&mut rng),
        );
        // TunReader puts the packet in the read queue and wakes the
        // MainWorker, a context switch away (§3.2).
        let handoff = sh.cost.context_switch.sample(&mut rng);
        sh.checkin_rng(id, rng);
        let due = retrieval.retrieved_at + handoff;
        sh.schedule(sched, due, Event::TunPacket(id, self.packets.park(buf)));
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
            self.inject_app_packet(sh, sched, at, id, response);
        }
        self.app_out = responses;
    }
}
