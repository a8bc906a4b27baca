//! The relay stage: TCP/UDP/DNS state-machine dispatch.
//!
//! This is the MainWorker's decision core (§2.3, §3.2–3.4 of the paper):
//! each parsed packet view drives the TCP state machine in its connection's
//! record or starts a DNS measurement, external connects run in (modelled)
//! blocking socket-connect threads that take the RTT timestamps, the lazy
//! mapper attributes flows to apps off the packet path, and DNS queries are
//! relayed and measured in temporary blocking threads. Outbound packets are
//! handed to the egress stage's TunWriter lanes; finished measurements are
//! folded into the sink.
//!
//! The stage also owns the per-connection *timers*: when the engine runs
//! with an idle timeout, every relayed segment re-arms a cancellable timer
//! on the scheduler (O(1) schedule + cancel on the timing wheel), and a
//! timer that actually fires reaps the silent connection.

use std::collections::HashMap;
use std::net::IpAddr;

use mop_packet::{
    DnsMessage, Endpoint, Packet, PacketBuilder, PacketView, SackBlocks, TransportView,
};
use mop_procnet::{
    CachedMapper, ConnectionTable, EagerMapper, LazyMapper, MappingStats, MappingStrategy,
    PackageManager, SocketStateCode,
};
use mop_simnet::{
    Component, MemoryComponent, NetKeying, SimDuration, SimTime, SocketMode, SocketSet,
    SocketState, TimerHandle, TimingWheel,
};
use mop_tcpstack::{
    dns_query, RecoveryState, RelayAction, SegmentVerdict, TcpState, TcpStateMachine,
};

use super::{EgressStage, EngineShared, SinkStage};
use crate::config::{ProtectMode, TimestampMode};
use crate::conn::FlowId;
use crate::engine::Event;
use crate::stats::{RelayStats, RttSample, SampleKind};

/// Salt for the throwaway streams that absorb variable-draw-count work
/// (packet-to-app mapping walks the whole connection table, whose size
/// depends on co-resident flows; those draws must not advance a flow's main
/// stream or the stream would become partition-dependent).
const MAPPING_KEY_SALT: u64 = 0x6d61_705f_6b65_7973; // "map_keys"

/// Where the initial sequence numbers towards the apps start.
const ISN_BASE: u32 = 0x1000;
/// How far apart consecutive clients' initial sequence numbers are.
const ISN_STEP: u32 = 0x01_0000;

/// The configured packet-to-app mapper.
pub(crate) enum Mapper {
    /// Parse `/proc/net` on every packet.
    Eager(EagerMapper),
    /// Parse on miss, serve repeats from a cache.
    Cached(CachedMapper),
    /// MopEye's choice: map once per connection, off the packet path.
    Lazy(LazyMapper),
}

impl std::fmt::Debug for Mapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mapper::Eager(_) => write!(f, "Mapper::Eager"),
            Mapper::Cached(_) => write!(f, "Mapper::Cached"),
            Mapper::Lazy(_) => write!(f, "Mapper::Lazy"),
        }
    }
}

impl Mapper {
    pub(crate) fn stats(&self) -> MappingStats {
        match self {
            Mapper::Eager(m) => m.stats().clone(),
            Mapper::Cached(m) => m.stats().clone(),
            Mapper::Lazy(m) => m.stats().clone(),
        }
    }
}

/// The TCP/UDP/DNS dispatch stage. See the [module docs](self).
#[derive(Debug)]
pub struct RelayStage {
    /// The initial sequence number the most recent client was created
    /// with; every creation (a zombie's included) bumps it.
    pub(crate) isn: u32,
    /// The shard's `/proc/net` view.
    pub(crate) conn_table: ConnectionTable,
    /// UID → package resolution.
    pub(crate) packages: PackageManager,
    /// The configured packet-to-app mapper.
    pub(crate) mapper: Mapper,
    /// External sockets (the regular-socket side of the splice).
    pub(crate) sockets: SocketSet,
    /// Relay counters.
    pub(crate) stats: RelayStats,
    /// Destination-address → domain hints (from specs and DNS answers).
    pub(crate) ip_to_domain: HashMap<IpAddr, String>,
    /// Where the state machines emit packets for the apps; drained into
    /// egress after every machine call, never dropped.
    packets: Vec<Packet>,
    /// Where the state machines emit their instructions for the relay;
    /// drained after every tunnel segment, never dropped.
    actions: Vec<RelayAction>,
}

impl RelayStage {
    /// Creates the stage for the given mapping strategy and protect mode.
    pub(crate) fn new(mapping: MappingStrategy, protect: ProtectMode) -> Self {
        let mut sockets = SocketSet::new();
        if protect == ProtectMode::DisallowedApplication {
            sockets.set_disallowed_application(true);
        }
        let mapper = match mapping {
            MappingStrategy::Eager => Mapper::Eager(EagerMapper::new()),
            MappingStrategy::Cached => Mapper::Cached(CachedMapper::new()),
            MappingStrategy::Lazy => Mapper::Lazy(LazyMapper::new()),
        };
        Self {
            isn: ISN_BASE,
            conn_table: ConnectionTable::new(),
            packages: PackageManager::new(),
            mapper,
            sockets,
            stats: RelayStats::default(),
            ip_to_domain: HashMap::new(),
            packets: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Resets the stage to its just-constructed state, keeping the table
    /// and pool allocations: the ISN counter rewinds, so a reused stage hands
    /// out the sequence numbers a fresh one would. The mapper is rebuilt
    /// fresh for the same strategy (mappers are a couple of empty tables);
    /// the socket set keeps its protect-mode configuration and pooled read
    /// buffers.
    pub(crate) fn reset(&mut self) {
        self.isn = ISN_BASE;
        self.conn_table.reset();
        self.packages.reset();
        self.mapper = match &self.mapper {
            Mapper::Eager(_) => Mapper::Eager(EagerMapper::new()),
            Mapper::Cached(_) => Mapper::Cached(CachedMapper::new()),
            Mapper::Lazy(_) => Mapper::Lazy(LazyMapper::new()),
        };
        self.sockets.reset();
        self.stats = RelayStats::default();
        self.ip_to_domain.clear();
    }

    /// The MainWorker's relay decision for a packet of connection `id`,
    /// working entirely on borrowed views: no payload is copied (the
    /// simulated socket channel only counts the bytes that cross to it) and
    /// the machine's outputs land in the stage's own two buffers.
    pub(crate) fn on_packet(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: Option<FlowId>,
        packet: &PacketView<'_>,
    ) {
        if matches!(packet.transport(), TransportView::Other(..)) {
            // A well-formed packet of an unsupported transport: forwarded
            // opaquely, nothing to measure and nothing to count as an error.
            return;
        }
        let Some(id) = id else {
            self.stats.parse_errors += 1;
            return;
        };
        match packet.transport() {
            TransportView::Tcp(segment) => {
                let tcp = match sh.conns[id].tcp_mut() {
                    Some(tcp) => tcp,
                    None => {
                        self.isn = self.isn.wrapping_add(ISN_STEP);
                        sh.conns.attach_tcp(id, self.isn)
                    }
                };
                let verdict = tcp.machine.on_segment_into(
                    segment.into(),
                    &mut self.packets,
                    &mut self.actions,
                );
                match verdict {
                    SegmentVerdict::Syn => self.stats.syns += 1,
                    SegmentVerdict::Data(len) => {
                        self.stats.data_segments_out += 1;
                        self.stats.bytes_out += len as u64;
                    }
                    SegmentVerdict::PureAckDiscarded => self.stats.pure_acks_discarded += 1,
                    SegmentVerdict::Fin => self.stats.fins += 1,
                    SegmentVerdict::Rst => self.stats.rsts += 1,
                    SegmentVerdict::Retransmission | SegmentVerdict::OutOfState => {}
                }
                // Discarded pure ACKs still drive loss recovery: the app's
                // cumulative ACK (and any SACK blocks) advance the sender
                // scoreboard and can trigger a fast retransmit. On networks
                // that cannot fault, no recovery state exists and this is a
                // single `None` check.
                if matches!(verdict, SegmentVerdict::PureAckDiscarded) {
                    self.on_recovery_ack(
                        sh,
                        egress,
                        sched,
                        now,
                        id,
                        segment.ack(),
                        segment.sack_blocks(),
                    );
                }
                self.flush_packets(sh, egress, sched, now, id);
                // Applying an action may drive the machine again (a relayed
                // write is ACKed through `packets`), so the action buffer is
                // held aside while it drains.
                let mut actions = std::mem::take(&mut self.actions);
                for action in actions.drain(..) {
                    self.apply_action(sh, egress, sched, now, id, action);
                }
                self.actions = actions;
                // A torn-down connection's tail (the app's final ACK after
                // RemoveClient already ran) lands on a freshly created
                // machine and is discarded; the machine is still in Listen
                // because only a SYN moves it off. Drop that zombie client
                // and the keyed state the tail packet recreated, so a fleet
                // run's memory tracks live connections. (Flow-keyed networks
                // only: the single-device engine keeps its historical
                // behaviour bit-for-bit.)
                if sh.net.keying() == NetKeying::FlowKeyed
                    && sh.conns[id].tcp().is_some_and(|t| t.machine.state() == TcpState::Listen)
                {
                    Self::drop_client(sh, sched, id);
                    sh.release_flow(id);
                }
                // Every relayed segment is activity: re-arm the connection's
                // cancellable idle timer (a no-op unless configured).
                Self::rearm_idle(sh, sched, now, id);
                Self::update_memory_ledger(sh);
            }
            TransportView::Udp(datagram) => {
                self.stats.udp_datagrams += 1;
                let query = dns_query(sh.conns[id].flow, datagram.payload());
                if let Some((dns_id, name)) = query {
                    self.stats.dns_queries += 1;
                    self.start_dns_measurement(sh, sched, now, id, dns_id, &name);
                }
            }
            TransportView::Other(..) => unreachable!("handled before the connection guard"),
        }
    }

    fn apply_action(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        action: RelayAction,
    ) {
        match action {
            RelayAction::ConnectExternal { dst } => self.start_connect(sh, sched, now, id, dst),
            RelayAction::RelayData { len } => self.relay_data(sh, egress, sched, now, id, len),
            RelayAction::HalfCloseExternal => self.half_close(sh, egress, sched, now, id),
            RelayAction::CloseExternal => self.close_external(sh, id),
            RelayAction::RemoveClient => self.remove_client(sh, sched, now, id),
        }
    }

    /// The socket-connect thread (§2.4): blocking connect with clean
    /// timestamps, then lazy mapping and the channel's selector-registration
    /// cost.
    fn start_connect(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        dst: Endpoint,
    ) {
        let flow = sh.conns[id].flow;
        let mut rng = sh.checkout_rng(id);
        let spawn = sh.cost.thread_spawn.sample(&mut rng);
        sh.ledger.charge(Component::ConnectThreads, spawn);
        let mut t = now + spawn;
        if sh.config.protect == ProtectMode::PerSocket {
            let protect = sh.cost.protect_call.sample(&mut rng);
            sh.ledger.charge(Component::ConnectThreads, protect);
            t += protect;
        }
        sh.checkin_rng(id, rng);
        // Flow-keyed runs bind the external socket to the app flow's source,
        // so the external four-tuple (which keys the network's per-flow RNG
        // stream and the wire tap) is a pure function of the flow rather
        // than of socket-creation order.
        let socket = match sh.net.keying() {
            NetKeying::Shared => self.sockets.create(SocketMode::Blocking),
            NetKeying::FlowKeyed => self.sockets.create_bound(SocketMode::Blocking, flow.src),
        };
        if sh.config.protect == ProtectMode::PerSocket {
            self.sockets.protect(socket);
        }
        // connect() is invoked now; the pre-connect timestamp (§4.1.1) is
        // this instant read off the configured clock.
        sh.conns.begin_connect(id, t);
        let outcome = self.sockets.connect(&mut sh.net, sh.conns.net_mut(id), socket, dst, t);
        sh.conns[id].socket = Some(socket);
        sh.schedule(sched, outcome.completed_at, Event::ExternalConnected(id));
    }

    /// The external connect for `id` completed (successfully or not): take
    /// the post-connect timestamp, map the flow to its app, record the RTT
    /// sample at the sink, and finish the app-side handshake.
    pub(crate) fn on_external_connected(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sink: &mut SinkStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        let flow = sh.conns[id].flow;
        let Some(socket) = sh.conns[id].socket else { return };
        let state = self.sockets.poll_connect(socket, now);
        let connect_started = sh.conns.end_connect(id);
        let pre = connect_started.map_or(now, |t| sh.timestamp(t));
        let mut rng = sh.checkout_rng(id);
        // Post-connect timestamp: exact in the blocking connect thread, or
        // delayed by the selector dispatch when taken from the event loop.
        let mut post = now;
        if sh.config.timestamp_mode == TimestampMode::SelectorNotification {
            post += sh.cost.sample_dispatch_delay(&mut rng);
        }
        let post = sh.timestamp(post);
        let outcome = self.sockets.connect_outcome(socket);
        match state {
            SocketState::Connected => {
                self.stats.connects_ok += 1;
                // The channel's selector registration is charged only after
                // the internal handshake work is done (§3.4). The cost is drawn
                // from the flow's stream before the mapper runs, because the
                // mapper's draw count depends on the co-resident connection
                // table and must not advance this stream.
                let register = sh.cost.selector_register.sample(&mut rng);
                sh.checkin_rng(id, rng);
                // Lazy mapping happens here, in the connect thread, after the
                // handshake with the server is complete (§3.3).
                let (uid, package) = self.map_flow(sh, id, now);
                // Only networks that can fault the data path get recovery
                // state; clean runs carry no sender scoreboard, draw no
                // randomness and arm no retransmission timers. The connect
                // duration on the exact clock seeds the RFC 6298 estimator.
                if sh.net.faults_possible() {
                    if let Some(tcp) = sh.conns[id].tcp_mut() {
                        let connect_ns = connect_started.map(|t| (now - t).as_nanos());
                        tcp.recovery = Some(RecoveryState::new(sh.config.congestion, connect_ns));
                    }
                }
                sh.ledger.charge(Component::ConnectThreads, register);
                self.sockets.set_mode(socket, SocketMode::NonBlocking);
                self.conn_table.set_state(flow, SocketStateCode::Established);
                // Record the per-app RTT sample.
                let tcpdump_ms = self
                    .sockets
                    .flow(socket)
                    .and_then(|f| sh.net.tap().handshake_rtt(f))
                    .map(|d| d.as_millis_f64());
                let sample = RttSample {
                    kind: SampleKind::Tcp,
                    flow,
                    uid,
                    package,
                    domain: self.domain_for(sh, flow.dst.addr),
                    measured_ms: (post - pre).as_millis_f64(),
                    true_ms: outcome.map(|o| o.true_rtt.as_millis_f64()).unwrap_or(0.0),
                    tcpdump_ms,
                    at: now,
                };
                sink.record_sample(sh, id, sample);
                // Complete the handshake with the app (§2.3).
                self.drive_machine(sh, egress, sched, now, id, |m, out| {
                    m.on_external_connected_into(out)
                });
            }
            SocketState::ConnectFailed { refused } => {
                sh.checkin_rng(id, rng);
                self.stats.connects_failed += 1;
                self.drive_machine(sh, egress, sched, now, id, |m, out| {
                    m.on_external_connect_failed_into(refused, out)
                });
                sh.conns[id].finished(now, false);
            }
            _ => sh.checkin_rng(id, rng),
        }
    }

    fn map_flow(
        &mut self,
        sh: &mut EngineShared,
        id: FlowId,
        now: SimTime,
    ) -> (Option<u32>, Option<String>) {
        let conn = &sh.conns[id];
        let flow = conn.flow;
        let registered_at = conn.meta.as_ref().map_or(now, |meta| meta.started_at);
        // The mapper's draw count scales with the connection table (a
        // `/proc/net` parse samples a cost per entry), and the table holds
        // whatever flows happen to be co-resident. Over a flow-keyed network
        // those draws come from a throwaway stream derived for this flow, so
        // they cannot perturb any flow's main stream; only the CPU ledger
        // sees the variance.
        let mut keyed_rng;
        let rng: &mut mop_simnet::SimRng = match sh.net.keying() {
            NetKeying::Shared => &mut sh.rng,
            NetKeying::FlowKeyed => {
                keyed_rng = mop_simnet::SimRng::seed_from_u64(
                    sh.config.seed ^ flow.canonical().stable_hash() ^ MAPPING_KEY_SALT,
                );
                &mut keyed_rng
            }
        };
        let outcome = match &mut self.mapper {
            Mapper::Eager(m) => m.map(&self.conn_table, &sh.cost, rng, flow),
            Mapper::Cached(m) => m.map(&self.conn_table, &sh.cost, rng, flow),
            Mapper::Lazy(m) => m.map(&self.conn_table, &sh.cost, rng, flow, registered_at, now),
        };
        let lookup_cost = outcome
            .uid
            .map(|_| SimDuration::from_millis_f64(sh.cost.package_lookup.sample_ms(rng)));
        let charge_to = match sh.config.mapping {
            MappingStrategy::Lazy => Component::ConnectThreads,
            _ => Component::MainWorker,
        };
        sh.ledger.charge(charge_to, outcome.cpu_cost);
        let package = outcome.uid.and_then(|uid| {
            sh.ledger.charge(charge_to, lookup_cost.unwrap_or(SimDuration::ZERO));
            self.packages.name_for_uid_cached(uid)
        });
        (outcome.uid, package)
    }

    fn relay_data(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        len: usize,
    ) {
        if sh.config.content_inspection {
            let mut rng = sh.checkout_rng(id);
            let inspect = sh.cost.sample_content_inspection(len, &mut rng);
            sh.checkin_rng(id, rng);
            sh.ledger.charge(Component::Inspection, inspect);
        }
        let Some(socket) = sh.conns[id].socket else { return };
        if !matches!(self.sockets.state(socket), SocketState::Connected | SocketState::HalfClosed) {
            return;
        }
        self.sockets.buffer_write(socket, len);
        self.sockets.flush_writes(&mut sh.net, sh.conns.net_mut(id), socket, now);
        // The socket write completes locally; acknowledge the app's data.
        self.drive_machine(sh, egress, sched, now, id, |m, out| {
            m.on_external_write_complete_into(out)
        });
        if let Some(ready_at) = self.sockets.next_read_ready_at(socket) {
            sh.schedule(sched, ready_at.max(now), Event::SocketReadable(id));
        }
    }

    /// Response data became readable on `id`'s external socket: take the
    /// count of bytes due, segment it towards the app by length, and keep
    /// the read loop scheduled.
    pub(crate) fn on_socket_readable(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        let Some(socket) = sh.conns[id].socket else { return };
        // A read is a byte count: the bytes are never materialised, and the
        // segments below carry their payload lengths.
        let total = self.sockets.take_readable(socket, now);
        if total > 0 {
            let mut rng = sh.checkout_rng(id);
            if sh.config.content_inspection {
                let inspect = sh.cost.sample_content_inspection(total, &mut rng);
                sh.ledger.charge(Component::Inspection, inspect);
            }
            let segment_cost = SimDuration::from_micros(rng.int_inclusive(10, 60));
            sh.checkin_rng(id, rng);
            // Segmenting server data back towards the app is MainWorker
            // work.
            sh.ledger.charge(Component::MainWorker, segment_cost);
            let mut arm_rto = None;
            if let Some(tcp) = sh.conns[id].tcp_mut() {
                tcp.machine.on_external_data_into(total, &mut self.packets);
                // On fault-capable networks, register every payload-bearing
                // segment with the sender scoreboard before it leaves: the
                // retransmission timer must cover data from the moment it is
                // handed to egress, not from when a loss is noticed.
                if let Some(recovery) = tcp.recovery.as_mut() {
                    for segment in self.packets.iter().filter_map(Packet::tcp) {
                        if segment.payload_len > 0 {
                            let len = usize::from(segment.payload_len);
                            recovery.on_data_sent(segment.seq, len, now.as_nanos());
                        }
                    }
                    if recovery.has_inflight() && tcp.timers.rto().is_none() {
                        arm_rto = Some(recovery.rto_ns());
                    }
                }
                self.stats.data_segments_in += self.packets.len() as u64;
                self.stats.bytes_in += total as u64;
                self.flush_packets(sh, egress, sched, now, id);
            }
            if let Some(rto_ns) = arm_rto {
                Self::arm_rto_at(sh, sched, id, now + SimDuration::from_nanos(rto_ns));
            }
        }
        if let Some(next) = self.sockets.next_read_ready_at(socket) {
            sh.schedule(sched, next, Event::SocketReadable(id));
        } else if sh.conns[id].half_close_pending {
            self.finish_half_close(sh, egress, sched, now, id);
        }
    }

    fn half_close(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        let Some(socket) = sh.conns[id].socket else { return };
        self.sockets.half_close(socket);
        if self.sockets.read_exhausted(socket) {
            self.finish_half_close(sh, egress, sched, now, id);
        } else {
            sh.conns[id].half_close_pending = true;
        }
    }

    /// The half-close write event: close the external connection and send a
    /// FIN to the app (§2.3, socket-write handling).
    fn finish_half_close(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        sh.conns[id].half_close_pending = false;
        self.close_socket(sh, id);
        self.drive_machine(sh, egress, sched, now, id, |m, out| {
            m.on_external_closed_into(false, out)
        });
    }

    /// Feeds a socket-side event to `id`'s state machine, if it still has
    /// one, and writes the packets it answers with to the tunnel.
    fn drive_machine(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        event: impl FnOnce(&mut TcpStateMachine, &mut Vec<Packet>),
    ) {
        let Some(tcp) = sh.conns[id].tcp_mut() else { return };
        event(&mut tcp.machine, &mut self.packets);
        self.flush_packets(sh, egress, sched, now, id);
    }

    /// Writes every packet a machine just emitted into the stage's buffer
    /// to the tunnel, leaving the buffer empty with its capacity intact.
    fn flush_packets(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        for pkt in self.packets.drain(..) {
            egress.write_to_tunnel(sh, sched, now, id, pkt);
        }
    }

    /// Closes `id`'s external socket, if it has one.
    fn close_socket(&mut self, sh: &EngineShared, id: FlowId) {
        if let Some(socket) = sh.conns[id].socket {
            self.sockets.close(socket);
        }
    }

    fn close_external(&mut self, sh: &EngineShared, id: FlowId) {
        self.close_socket(sh, id);
        self.conn_table.remove(sh.conns[id].flow);
    }

    fn remove_client(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        Self::drop_client(sh, sched, id);
        self.conn_table.remove(sh.conns[id].flow);
        sh.conns[id].finished(now, true);
        sh.release_flow(id);
        Self::update_memory_ledger(sh);
    }

    // ----- per-connection timers ------------------------------------------

    /// Re-arms `id`'s cancellable idle timer: O(1) cancel of the superseded
    /// timer plus O(1) schedule of the new deadline. A no-op unless the
    /// engine runs with an idle timeout.
    ///
    /// Only *live* connections carry a timer: a machine still in `Listen`
    /// (a zombie recreated by a torn-down connection's tail ACK) or in a
    /// terminal state is not mid-life relay work, so arming it would both
    /// waste a timer and risk a late fire flipping a completed flow's
    /// outcome.
    fn rearm_idle(sh: &mut EngineShared, sched: &mut TimingWheel<Event>, now: SimTime, id: FlowId) {
        let Some(timeout) = sh.config.idle_timeout else { return };
        let Some(tcp) = sh.conns[id].tcp_mut() else { return };
        let state = tcp.machine.state();
        if state == TcpState::Listen || state.is_terminal() {
            if let Some(token) = tcp.timers.disarm_idle() {
                sched.cancel(TimerHandle::from_token(token));
            }
            return;
        }
        let handle = sched.schedule(now + timeout, Event::IdleTimeout(id));
        if let Some(superseded) = tcp.timers.arm_idle(handle.token()) {
            sched.cancel(TimerHandle::from_token(superseded));
        }
    }

    /// Drops `id`'s TCP side, cancelling whichever of its timers are still
    /// armed so none can fire into the freed state.
    fn drop_client(sh: &mut EngineShared, sched: &mut TimingWheel<Event>, id: FlowId) {
        if let Some(tcp) = sh.conns.detach_tcp(id) {
            for token in [tcp.timers.idle(), tcp.timers.rto()].into_iter().flatten() {
                sched.cancel(TimerHandle::from_token(token));
            }
        }
    }

    /// A connection's idle timer fired: the app has relayed nothing for the
    /// configured timeout, so reap the connection — close the external
    /// socket, drop the client and its keyed state, and mark the flow
    /// failed.
    pub(crate) fn on_idle_timeout(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        let Some(tcp) = sh.conns[id].tcp_mut() else { return };
        // The firing timer is the armed one; a superseded timer was
        // cancelled at re-arm and never reaches here.
        tcp.timers.disarm_idle();
        // Reap only mid-life connections: a zombie in `Listen` or a machine
        // in a terminal state has nothing left to relay, and flipping its
        // flow's outcome would corrupt a completed flow.
        let state = tcp.machine.state();
        if state == TcpState::Listen || state.is_terminal() {
            return;
        }
        // The reaped connection may still carry an armed retransmission
        // timer; dropping the client cancels it.
        Self::drop_client(sh, sched, id);
        self.close_socket(sh, id);
        self.conn_table.remove(sh.conns[id].flow);
        sh.conns[id].finished(now, false);
        sh.release_flow(id);
        self.stats.idle_reaped += 1;
        Self::update_memory_ledger(sh);
    }

    // ----- loss recovery --------------------------------------------------

    /// (Re-)arms `id`'s retransmission timer at `at`, cancelling any
    /// superseded deadline (O(1) on the timing wheel).
    fn arm_rto_at(sh: &mut EngineShared, sched: &mut TimingWheel<Event>, id: FlowId, at: SimTime) {
        let Some(tcp) = sh.conns[id].tcp_mut() else { return };
        let handle = sched.schedule(at, Event::RtoTimeout(id));
        if let Some(superseded) = tcp.timers.arm_rto(handle.token()) {
            sched.cancel(TimerHandle::from_token(superseded));
        }
    }

    /// Feeds an app ACK (cumulative edge plus any SACK blocks) into `id`'s
    /// sender scoreboard, emitting fast retransmits and managing the RTO
    /// deadline per RFC 6298. On clean networks no recovery state exists and
    /// this is a single `None` check.
    #[allow(clippy::too_many_arguments)]
    fn on_recovery_ack(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        ack: u32,
        sack: Option<SackBlocks>,
    ) {
        let Some(tcp) = sh.conns[id].tcp_mut() else { return };
        let Some(recovery) = tcp.recovery.as_mut() else { return };
        let mut reaction = recovery.on_ack(ack, sack, now.as_nanos());
        let rto_ns = recovery.rto_ns();
        // Fast retransmits replay through the machine's immutable path — the
        // sequence space does not advance — paced by cwnd via each
        // retransmit's delay.
        let resend: Vec<(SimTime, Packet)> = reaction
            .retransmits
            .drain(..)
            .map(|r| {
                let at = now + SimDuration::from_nanos(r.delay_ns);
                (at, tcp.machine.retransmit_data(r.seq, r.len))
            })
            .collect();
        if reaction.all_acked {
            // Everything in flight is acknowledged: the RTO timer dies.
            if let Some(token) = tcp.timers.disarm_rto() {
                sched.cancel(TimerHandle::from_token(token));
            }
        } else if reaction.advanced || reaction.fast_retransmit {
            // New progress (or a retransmit) re-bases the deadline on the
            // current, sample-updated RTO.
            let handle =
                sched.schedule(now + SimDuration::from_nanos(rto_ns), Event::RtoTimeout(id));
            if let Some(superseded) = tcp.timers.arm_rto(handle.token()) {
                sched.cancel(TimerHandle::from_token(superseded));
            }
        }
        self.stats.retransmits += resend.len() as u64;
        self.stats.fast_retransmits += u64::from(reaction.fast_retransmit);
        self.stats.sacked_segments += u64::from(reaction.newly_sacked);
        for (at, pkt) in resend {
            egress.write_to_tunnel(sh, sched, at, id, pkt);
        }
    }

    /// `id`'s retransmission timer fired with data still in flight: back
    /// off the RTO (RFC 6298 §5.5), resend the earliest unacknowledged
    /// segment, and re-arm at the doubled deadline.
    pub(crate) fn on_rto_timeout(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
    ) {
        let Some(tcp) = sh.conns[id].tcp_mut() else { return };
        // The firing timer is the armed one; a superseded timer was
        // cancelled at re-arm and never reaches here.
        tcp.timers.disarm_rto();
        let Some(recovery) = tcp.recovery.as_mut() else { return };
        let Some(rt) = recovery.on_rto(now.as_nanos()) else {
            // Raced with the final ACK: nothing left in flight.
            return;
        };
        let rto_ns = recovery.rto_ns();
        let pkt = tcp.machine.retransmit_data(rt.seq, rt.len);
        let handle = sched.schedule(now + SimDuration::from_nanos(rto_ns), Event::RtoTimeout(id));
        if let Some(superseded) = tcp.timers.arm_rto(handle.token()) {
            sched.cancel(TimerHandle::from_token(superseded));
        }
        self.stats.rto_fires += 1;
        self.stats.retransmits += 1;
        egress.write_to_tunnel(sh, sched, now, id, pkt);
    }

    // ----- DNS ------------------------------------------------------------

    fn start_dns_measurement(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        dns_id: u16,
        name: &str,
    ) {
        let flow = sh.conns[id].flow;
        // The whole DNS processing runs in a temporary blocking-mode thread
        // (§2.4): socket set-up, then a blocking send/receive pair.
        let mut rng = sh.checkout_rng(id);
        let spawn = sh.cost.thread_spawn.sample(&mut rng);
        sh.checkin_rng(id, rng);
        sh.ledger.charge(Component::DnsThreads, spawn);
        let send_at = now + spawn;
        let outcome = sh.net.dns_lookup(sh.conns.net_mut(id), flow.src, name, send_at);
        sh.conns[id].dns_pending = Some((sh.timestamp(send_at), name.to_string()));
        for addr in &outcome.addrs {
            self.ip_to_domain.insert(IpAddr::V4(*addr), name.to_string());
        }
        let Some(response_at) = outcome.response_at else {
            // Query lost: the app sees a timeout; nothing is measured.
            sh.conns[id].finished(send_at, false);
            return;
        };
        // Build the response datagram the relay writes back to the app.
        let query = DnsMessage::query(dns_id, name);
        let response = if outcome.nxdomain {
            DnsMessage::nxdomain(&query)
        } else {
            DnsMessage::answer(&query, &outcome.addrs, 300)
        };
        let to_app = sh.parked.park(PacketBuilder::new(flow.dst, flow.src).dns(&response));
        sh.schedule(sched, response_at, Event::DnsResponse { id, packet: to_app });
    }

    /// The DNS response for `id` arrived: record the DNS RTT sample at the
    /// sink and relay the answer to the app.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_dns_response(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sink: &mut SinkStage,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        packet: Packet,
    ) {
        let Some((sent_ts, name)) = sh.conns[id].dns_pending.take() else { return };
        let flow = sh.conns[id].flow;
        let post = sh.timestamp(now);
        let uid = self.conn_table.uid_of(flow);
        let package = uid.and_then(|u| self.packages.name_for_uid_cached(u));
        let tcpdump_ms = sh.net.tap().dns_rtt(flow).map(|d| d.as_millis_f64());
        let sample = RttSample {
            kind: SampleKind::Dns,
            flow,
            uid,
            package,
            domain: Some(name),
            measured_ms: (post - sent_ts).as_millis_f64(),
            true_ms: tcpdump_ms.unwrap_or_else(|| (post - sent_ts).as_millis_f64()),
            tcpdump_ms,
            at: now,
        };
        sink.record_sample(sh, id, sample);
        // Forward the answer to the app.
        egress.write_to_tunnel(sh, sched, now, id, packet);
        // The DNS exchange is complete; its keyed state will not be used
        // again (the response delivery draws nothing).
        sh.release_flow(id);
    }

    // ----- misc -----------------------------------------------------------

    fn domain_for(&self, sh: &EngineShared, addr: IpAddr) -> Option<String> {
        if let Some(d) = self.ip_to_domain.get(&addr) {
            return Some(d.clone());
        }
        sh.net.server_for(addr).and_then(|s| s.domains.first().cloned())
    }

    fn update_memory_ledger(sh: &mut EngineShared) {
        // Each live client holds a 64 KiB read and a 64 KiB write buffer
        // (§3.4); the engine itself has a fixed footprint. Content inspection
        // keeps reassembled flow buffers that dwarf the relay's own state.
        let clients = sh.conns.live_clients();
        let base = 6 * 1024 * 1024;
        let buffers = clients * 2 * 65_535;
        sh.ledger.set_memory(MemoryComponent::Relay, base + buffers);
        if sh.config.content_inspection {
            sh.ledger
                .set_memory(MemoryComponent::Inspection, 120 * 1024 * 1024 + clients * 1024 * 1024);
        }
    }
}
