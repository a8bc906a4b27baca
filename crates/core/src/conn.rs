//! The per-connection record.
//!
//! MopEye keeps one client object per relayed connection — socket channel,
//! buffers, state machine and the two connect timestamps live together
//! (§2.3, §3.4). [`ConnTable`] is that object's home in the engine: a
//! four-tuple is interned **once**, at `FlowStart`, into a dense [`FlowId`],
//! and everything the stages know about the connection sits in one
//! slab-allocated [`Conn`] that events and cross-stage calls reach by index.
//!
//! Teardown first resets the *evictable* fields — the TCP side, the RNG
//! stream and the writer lane — so a torn-down record keeps no machine,
//! scoreboard or stream, and a stray late packet gets a fresh machine and
//! re-seeds from `(seed, four-tuple)` exactly as a fresh flow would.
//!
//! A record then leaves the table as soon as nothing can reach it again:
//! it has no TCP side and no open socket, no pending event names its
//! `FlowId` (the table counts them, see `ConnTable::hold`), and no
//! `FlowStart` still to run names its canonical tuple (counted from the
//! run's flow list, see `ConnTable::expect_starts`). Its [`FlowOutcome`]
//! moves to the run's outcome list at the record's intern position, its
//! index entry goes, and its slot and `FlowId` return to a free list for the
//! next intern. So the table is sized by the connections open at once, not
//! by every connection a run has seen. A `FlowId` is valid while its record
//! is held, and every pending event that names one holds it.
//!
//! While it is live, a record keeps little beyond what the connection
//! needs. Both app sides are boxed, so a record is a few hundred bytes
//! whatever its app is, and a TCP app endpoint that reaches Done or Failed
//! is swapped for a `FinishedApp`: the bytes it received, the duplicate ACKs
//! it sent and whether it failed — exactly what a later delivery to a
//! finished endpoint reads. Its request, packet builder and reassembly
//! buffer are freed with it.

use std::ops::{Index, IndexMut};

use mop_measure::NetKind;
use mop_packet::{FastMap, FourTuple, Packet, TcpFlags};
use mop_simnet::{SimRng, SimTime, SocketId};
use mop_tcpstack::{ConnTimers, RecoveryState, TcpStateMachine};
use mop_tun::{AppEndpoint, AppState, DnsClient, FlowSpec};

use crate::arena::{Arena, Parked};
use crate::stats::FlowOutcome;
use crate::tun_writer::WriterLane;

/// Dense index of one connection's [`Conn`] record in the [`ConnTable`].
/// Ids are reused once a record leaves; a pending event that names one
/// holds its record, so such an id never dangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowId(u32);

impl FlowId {
    fn cell(self) -> Parked {
        Parked(self.0)
    }
}

/// The simulated app end of a connection.
#[derive(Debug)]
pub(crate) enum AppSide {
    /// A packet arrived for a tuple no `FlowStart` announced.
    None,
    /// A live TCP app endpoint.
    Tcp(Box<AppEndpoint>),
    /// A TCP app endpoint that reached Done or Failed.
    Finished(FinishedApp),
    /// A DNS client.
    Dns(Box<DnsClient>),
}

impl AppSide {
    /// Duplicate ACKs the TCP app has sent (zero for DNS or no app).
    pub(crate) fn dup_acks_sent(&self) -> u32 {
        match self {
            Self::Tcp(app) => app.dup_acks_sent,
            Self::Finished(app) => app.dup_acks_sent,
            Self::None | Self::Dns(_) => 0,
        }
    }
}

/// What a finished TCP app endpoint still answers a delivery with: its
/// final byte count, and a clean close that an RST can still turn into a
/// failure. A finished endpoint sends nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FinishedApp {
    bytes_received: usize,
    dup_acks_sent: u32,
    failed: bool,
}

impl FinishedApp {
    /// The terminal marker of `app`, once it is done.
    fn of(app: &AppEndpoint) -> Self {
        debug_assert!(app.is_done());
        Self {
            bytes_received: app.bytes_received,
            dup_acks_sent: app.dup_acks_sent,
            failed: app.state() == AppState::Failed,
        }
    }

    /// A packet from the tunnel: an RST on the endpoint's flow (`flow`, app
    /// side first) fails it, anything else leaves it as it is.
    fn handle(&mut self, flow: FourTuple, packet: &Packet) {
        let Some(tcp) = packet.tcp() else { return };
        if packet.four_tuple() == Some(flow.reversed()) && tcp.flags.contains(TcpFlags::RST) {
            self.failed = true;
        }
    }
}

/// What a `FlowStart` records about its flow; becomes the [`FlowOutcome`].
#[derive(Debug)]
pub(crate) struct FlowMeta {
    package: String,
    /// When the app opened the flow — also its `/proc/net` registration
    /// time, which the lazy mapper reads.
    pub(crate) started_at: SimTime,
    finished_at: SimTime,
    bytes_received: usize,
    completed: bool,
    /// Network label carried by the flow spec (scenario-assigned); `None`
    /// falls back to the simulated access profile at measurement time.
    pub(crate) network: Option<NetKind>,
    /// ISP label carried by the flow spec.
    pub(crate) isp: Option<String>,
}

impl FlowMeta {
    /// The outcome of the flow on `flow` this record describes, under
    /// `package`.
    fn outcome(&self, flow: FourTuple, package: String) -> FlowOutcome {
        FlowOutcome {
            flow,
            package,
            started_at: self.started_at,
            finished_at: self.finished_at,
            bytes_received: self.bytes_received,
            completed: self.completed,
        }
    }
}

/// The TCP side of a connection: the user-space state machine terminating
/// the app's internal connection, plus what only a live machine needs.
#[derive(Debug)]
pub(crate) struct TcpSide {
    /// The state machine the relay drives.
    pub(crate) machine: TcpStateMachine,
    /// The armed idle and retransmission timers, as scheduler tokens.
    pub(crate) timers: ConnTimers,
    /// Loss-recovery state; `None` on networks where no data-path fault can
    /// fire, so clean runs carry no recovery bookkeeping at all.
    pub(crate) recovery: Option<RecoveryState>,
}

/// Everything the engine keeps for one connection.
#[derive(Debug)]
pub struct Conn {
    /// The app-side four-tuple (the table interns its canonical form).
    pub(crate) flow: FourTuple,
    /// The flow-keyed RNG stream; `None` until first drawn from and again
    /// after teardown (evictable).
    pub(crate) rng: Option<SimRng>,
    /// The flow-keyed TunWriter timing lane (evictable).
    pub(crate) lane: WriterLane,
    /// The simulated app endpoint or DNS client.
    pub(crate) app: AppSide,
    /// The TCP side, boxed so DNS and torn-down records stay small
    /// (evictable). Attached and dropped through the table, which keeps the
    /// live-client census.
    tcp: Option<Box<TcpSide>>,
    /// The external socket (the regular-socket side of the splice).
    pub(crate) socket: Option<SocketId>,
    /// When `connect()` was invoked, pending until the connect completes.
    /// Set and taken through the table, which keeps the connect-thread
    /// census.
    connect_pre_ts: Option<SimTime>,
    /// True while a half-close waits for the read side to drain.
    pub(crate) half_close_pending: bool,
    /// In-flight DNS measurement: send timestamp and queried name.
    pub(crate) dns_pending: Option<(SimTime, String)>,
    /// Outcome bookkeeping, present once a `FlowStart` announced the flow.
    pub(crate) meta: Option<FlowMeta>,
    /// Pending events that name this record. The timers are not counted:
    /// they live in the TCP side, which keeps the record on its own.
    holds: u32,
    /// The record's place in the run's outcome list: its intern position.
    order: u32,
}

impl Conn {
    /// The TCP side, while the connection has a live client.
    pub(crate) fn tcp(&self) -> Option<&TcpSide> {
        self.tcp.as_deref()
    }

    /// The TCP side, mutably.
    pub(crate) fn tcp_mut(&mut self) -> Option<&mut TcpSide> {
        self.tcp.as_deref_mut()
    }

    /// (Re)starts the outcome record for `spec`, opened at `now`.
    pub(crate) fn started(&mut self, spec: &FlowSpec, now: SimTime) {
        self.meta = Some(FlowMeta {
            package: spec.package.clone(),
            started_at: now,
            finished_at: now,
            bytes_received: 0,
            completed: false,
            network: spec.network,
            isp: spec.isp.clone(),
        });
    }

    /// Marks the flow finished (with the given completion verdict).
    pub(crate) fn finished(&mut self, now: SimTime, completed: bool) {
        if let Some(meta) = &mut self.meta {
            meta.finished_at = now;
            meta.completed = completed;
        }
    }

    /// Records delivered-to-app progress (bytes received so far, last
    /// delivery time, and whether the app finished cleanly).
    pub(crate) fn progressed(&mut self, now: SimTime, bytes_received: usize, done_cleanly: bool) {
        if let Some(meta) = &mut self.meta {
            meta.bytes_received = bytes_received;
            meta.finished_at = now;
            meta.completed |= done_cleanly;
        }
    }

    /// A packet from the tunnel reaches the app side at `now`: the app
    /// consumes it, appending its replies to `out`, and the outcome record
    /// follows. A TCP endpoint that this delivery finishes is swapped for
    /// its [`FinishedApp`].
    pub(crate) fn deliver_to_app(&mut self, now: SimTime, packet: &Packet, out: &mut Vec<Packet>) {
        match &mut self.app {
            AppSide::None => {}
            AppSide::Dns(client) => {
                if client.handle(packet) {
                    self.finished(now, true);
                }
            }
            AppSide::Tcp(app) => {
                app.handle_into(packet, out);
                let (bytes_received, done_cleanly) =
                    (app.bytes_received, app.state() == AppState::Done);
                // The marker answers against the record's tuple. A
                // `FlowStart` on the reverse of an interned tuple leaves that
                // tuple reversed, so such an endpoint is kept as it is.
                if app.is_done() && app.flow() == self.flow {
                    self.app = AppSide::Finished(FinishedApp::of(app));
                }
                // Only a clean close counts as completion; a reset app stays failed.
                self.progressed(now, bytes_received, done_cleanly);
            }
            AppSide::Finished(app) => {
                app.handle(self.flow, packet);
                let (bytes_received, done_cleanly) = (app.bytes_received, !app.failed);
                self.progressed(now, bytes_received, done_cleanly);
            }
        }
    }
}

// Shape guard: a record stays a few hundred bytes; the app sides are boxed.
const _: () = assert!(std::mem::size_of::<Conn>() <= 320);

/// The engine's connection table: the one four-tuple index plus the slab of
/// [`Conn`] records it points into. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ConnTable {
    /// Canonical four-tuple → record, so both directions share one record.
    ids: FastMap<FourTuple, FlowId>,
    /// The live records; a record that leaves frees its slot and id.
    conns: Arena<Conn>,
    /// Canonical four-tuples that more than one of the run's flows open,
    /// with how many of their `FlowStart`s are still to run: a record whose
    /// tuple is here stays.
    starts_due: FastMap<FourTuple, u32>,
    /// The run's outcome list: one place per interned record, in intern
    /// order, filled when the record leaves.
    outcomes: Vec<Option<FlowOutcome>>,
    /// Duplicate ACKs the apps of records that left had sent.
    left_dup_acks: u64,
    /// How many records hold a pre-connect timestamp: the live
    /// socket-connect threads (tunnel-write contention, §3.5.1).
    connecting: usize,
    /// How many records hold a TCP side: the live clients, each with its
    /// pair of 64 KiB relay buffers (§3.4).
    live_clients: usize,
}

impl ConnTable {
    /// The record id of `flow` (either direction), created on first sight
    /// with `flow` as its app-side tuple.
    pub(crate) fn intern(&mut self, flow: FourTuple) -> FlowId {
        *self.ids.entry(flow.canonical()).or_insert_with(|| {
            let order = u32::try_from(self.outcomes.len()).expect("fewer than 2^32 connections");
            self.outcomes.push(None);
            let cell = self.conns.park(Conn {
                flow,
                rng: None,
                lane: WriterLane::default(),
                app: AppSide::None,
                tcp: None,
                socket: None,
                connect_pre_ts: None,
                half_close_pending: false,
                dns_pending: None,
                meta: None,
                holds: 0,
                order,
            });
            FlowId(cell.0)
        })
    }

    /// Notes the `FlowStart`s a run will run, one four-tuple each, and
    /// makes room for their outcomes. Only tuples that more than one flow
    /// opens are counted: a tuple opened once has no record before its one
    /// `FlowStart` and none still due after it.
    pub(crate) fn expect_starts(&mut self, mut flows: Vec<FourTuple>) {
        self.outcomes.reserve(flows.len());
        flows.iter_mut().for_each(|flow| *flow = flow.canonical());
        flows.sort_unstable();
        let mut at = 0;
        while at < flows.len() {
            let run = flows[at..].iter().take_while(|&&flow| flow == flows[at]).count();
            if run > 1 {
                *self.starts_due.entry(flows[at]).or_default() += run as u32;
            }
            at += run;
        }
    }

    /// The record a `FlowStart` on `flow` opens: the start is no longer due,
    /// and the tuple is interned.
    pub(crate) fn start(&mut self, flow: FourTuple) -> FlowId {
        let key = flow.canonical();
        if let Some(due) = self.starts_due.get_mut(&key) {
            *due -= 1;
            if *due == 0 {
                self.starts_due.remove(&key);
            }
        }
        self.intern(flow)
    }

    /// Counts one more pending event that names `id`.
    pub(crate) fn hold(&mut self, id: FlowId) {
        self[id].holds += 1;
    }

    /// Counts one pending event that named `id` as dispatched.
    pub(crate) fn unhold(&mut self, id: FlowId) {
        self[id].holds -= 1;
    }

    /// Whether nothing the table knows of can reach `id` again: no TCP side
    /// (whose timers are the only events it does not count), no pending
    /// event and no `FlowStart` still to run on its tuple. The socket is
    /// the caller's to check.
    pub(crate) fn unreachable(&self, id: FlowId) -> bool {
        let conn = &self[id];
        conn.tcp.is_none()
            && conn.holds == 0
            && !self.starts_due.contains_key(&conn.flow.canonical())
    }

    /// Takes `id`'s record out of the table: its outcome moves to the run's
    /// outcome list, its index entry goes, and its slot and id are free for
    /// the next intern. Returns what is left of it.
    pub(crate) fn remove(&mut self, id: FlowId) -> Conn {
        let mut conn = self.conns.take(id.cell());
        debug_assert!(conn.tcp.is_none() && conn.connect_pre_ts.is_none() && conn.holds == 0);
        self.ids.remove(&conn.flow.canonical());
        self.left_dup_acks += u64::from(conn.app.dup_acks_sent());
        self.outcomes[conn.order as usize] = conn.meta.as_mut().map(|meta| {
            let package = std::mem::take(&mut meta.package);
            meta.outcome(conn.flow, package)
        });
        conn
    }

    /// Forgets every connection, keeping the allocations; ids restart at
    /// zero, so a reset engine hands out the ids a fresh one would.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.conns.clear();
        self.starts_due.clear();
        self.outcomes.clear();
        self.left_dup_acks = 0;
        self.connecting = 0;
        self.live_clients = 0;
    }

    /// The live records, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Conn> {
        self.conns.iter()
    }

    /// The most records the table held at once since it was created or
    /// cleared (its index held as many entries).
    pub(crate) fn peak_records(&self) -> usize {
        self.conns.cells()
    }

    /// Duplicate ACKs the apps of every record since the table was created
    /// or cleared have sent, live or gone.
    pub(crate) fn dup_acks_sent(&self) -> u64 {
        let live: u64 = self.iter().map(|conn| u64::from(conn.app.dup_acks_sent())).sum();
        self.left_dup_acks + live
    }

    /// Gives `id` a fresh TCP side: a machine in `Listen` that will use
    /// `isn` towards the app.
    pub(crate) fn attach_tcp(&mut self, id: FlowId, isn: u32) -> &mut TcpSide {
        let conn = self.conns.get_mut(id.cell());
        self.live_clients += usize::from(conn.tcp.is_none());
        conn.tcp.insert(Box::new(TcpSide {
            machine: TcpStateMachine::new(conn.flow, isn),
            timers: ConnTimers::new(),
            recovery: None,
        }))
    }

    /// Takes `id`'s TCP side out of its record (teardown).
    pub(crate) fn detach_tcp(&mut self, id: FlowId) -> Option<Box<TcpSide>> {
        let tcp = self[id].tcp.take();
        self.live_clients -= usize::from(tcp.is_some());
        tcp
    }

    /// How many connections have a live client.
    pub(crate) fn live_clients(&self) -> usize {
        self.live_clients
    }

    /// Stamps `id`'s pre-connect timestamp: its connect thread is now live.
    pub(crate) fn begin_connect(&mut self, id: FlowId, pre_ts: SimTime) {
        if self[id].connect_pre_ts.replace(pre_ts).is_none() {
            self.connecting += 1;
        }
    }

    /// Takes `id`'s pre-connect timestamp: its connect thread is done.
    pub(crate) fn end_connect(&mut self, id: FlowId) -> Option<SimTime> {
        let pre_ts = self[id].connect_pre_ts.take();
        self.connecting -= usize::from(pre_ts.is_some());
        pre_ts
    }

    /// Whether any socket-connect thread is live.
    pub(crate) fn connect_threads_active(&self) -> bool {
        self.connecting > 0
    }

    /// The run's outcome list (report time): every announced flow's outcome
    /// in intern order. The outcomes of records that left move out; a live
    /// record's is copied, and it keeps a place in the next list.
    pub(crate) fn take_outcomes(&mut self) -> Vec<FlowOutcome> {
        for conn in self.conns.iter() {
            if let Some(meta) = &conn.meta {
                let outcome = meta.outcome(conn.flow, meta.package.clone());
                self.outcomes[conn.order as usize] = Some(outcome);
            }
        }
        let mut outcomes = std::mem::take(&mut self.outcomes);
        outcomes.retain(Option::is_some);
        // Collected in place: an outcome is the size of its `Option`.
        let outcomes = outcomes.into_iter().map(|outcome| outcome.expect("kept")).collect();
        for conn in self.conns.iter_mut() {
            conn.order = self.outcomes.len() as u32;
            self.outcomes.push(None);
        }
        outcomes
    }
}

impl Index<FlowId> for ConnTable {
    type Output = Conn;

    fn index(&self, id: FlowId) -> &Conn {
        self.conns.get(id.cell())
    }
}

impl IndexMut<FlowId> for ConnTable {
    fn index_mut(&mut self, id: FlowId) -> &mut Conn {
        self.conns.get_mut(id.cell())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::{DnsMessage, Endpoint, PacketBuilder};
    use mop_tun::FlowKind;

    fn tuple(host: u8) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 1, 0, host, 40_000), Endpoint::v4(216, 58, 221, 132, 443))
    }

    #[test]
    fn intern_is_idempotent_in_both_directions_and_clear_rewinds_ids() {
        let mut table = ConnTable::default();
        let (a, b) = (table.intern(tuple(1)), table.intern(tuple(2)));
        assert_eq!((a, b), (FlowId(0), FlowId(1)));
        assert_eq!(table.intern(tuple(1)), a);
        assert_eq!(table.intern(tuple(1).reversed()), a, "both directions share a record");
        assert_eq!(table[a].flow, tuple(1), "the first-seen direction is the app side");
        assert_eq!(table.iter().count(), 2);

        table.begin_connect(a, SimTime::from_millis(1));
        table.begin_connect(a, SimTime::from_millis(2));
        assert!(table.connect_threads_active());
        assert_eq!(table.end_connect(a), Some(SimTime::from_millis(2)));
        assert_eq!(table.end_connect(a), None);
        assert!(!table.connect_threads_active(), "the census moves only on None<->Some");

        table.begin_connect(b, SimTime::ZERO);
        let capacity = table.ids.capacity();
        table.clear();
        assert_eq!(table.iter().count(), 0);
        assert!(!table.connect_threads_active());
        assert_eq!(table.ids.capacity(), capacity);
        // A reset table hands out the ids a fresh one would.
        assert_eq!(table.intern(tuple(2)), FlowId(0));
        assert_eq!(table.intern(tuple(1)), FlowId(1));
    }

    #[test]
    fn a_record_leaves_once_unreachable_and_its_id_is_reused() {
        let mut table = ConnTable::default();
        table.expect_starts([1, 2, 1].map(tuple).to_vec());
        let (a, b) = (table.start(tuple(1)), table.start(tuple(2)));
        table[a].started(&spec(tuple(1)), SimTime::ZERO);
        table[b].started(&spec(tuple(2)), SimTime::from_millis(1));
        table.hold(b);
        assert!(!table.unreachable(a), "a second FlowStart on its tuple is still due");
        assert!(!table.unreachable(b), "a pending event names it");
        table.unhold(b);
        assert!(table.unreachable(b));
        assert_eq!(table.remove(b).flow, tuple(2));
        assert_eq!(table.iter().count(), 1);
        // The freed id goes to the next tuple interned.
        let c = table.intern(tuple(3));
        assert_eq!(c, b);
        assert_eq!(table.start(tuple(1)), a, "co-addressed flows share one record");
        assert!(table.unreachable(a));
        table.remove(a);
        table.remove(c);
        assert_eq!((table.iter().count(), table.peak_records()), (0, 2));
        // Outcomes in intern order; the unannounced record has none.
        let outcomes = table.take_outcomes();
        let flows: Vec<FourTuple> = outcomes.iter().map(|outcome| outcome.flow).collect();
        assert_eq!(flows, [tuple(1), tuple(2)]);
        assert_eq!(outcomes[1].package, "com.app");
    }

    fn spec(flow: FourTuple) -> FlowSpec {
        FlowSpec {
            at: SimTime::ZERO,
            uid: 1,
            package: "com.app".into(),
            src: Some(flow.src),
            dst: flow.dst,
            domain: None,
            request_bytes: 1,
            close_after: usize::MAX,
            kind: FlowKind::Tcp,
            network: None,
            isp: None,
        }
    }

    /// What the outcome record says: (bytes received, finished at, completed).
    fn outcome(conn: &Conn) -> (usize, SimTime, bool) {
        let meta = conn.meta.as_ref().expect("announced");
        (meta.bytes_received, meta.finished_at, meta.completed)
    }

    /// Feeds `packets` to a record whose endpoint is swapped for a marker
    /// once done, and to a twin endpoint that is never swapped, updating a
    /// second record the way every delivery did before markers existed.
    /// Between deliveries the relay marks both flows unfinished, so each
    /// delivery's `completed` verdict shows. Returns the marker record.
    fn deliver_to_twins(packets: &[Packet]) -> Conn {
        let flow = tuple(1);
        let mut table = ConnTable::default();
        let (id, twin_id) = (table.intern(flow), table.intern(tuple(2)));
        let mut twin = AppEndpoint::new(1, flow, 1, usize::MAX);
        let app = AppEndpoint::new(1, flow, 1, usize::MAX);
        table[id].app = AppSide::Tcp(Box::new(app));
        table[id].started(&spec(flow), SimTime::ZERO);
        table[twin_id].started(&spec(flow), SimTime::ZERO);
        let (mut out, mut twin_out) = (Vec::new(), Vec::new());
        for (n, packet) in packets.iter().enumerate() {
            let now = SimTime::from_millis(n as u64 + 1);
            table[id].deliver_to_app(now, packet, &mut out);
            twin.handle_into(packet, &mut twin_out);
            table[twin_id].progressed(now, twin.bytes_received, twin.state() == AppState::Done);
            assert_eq!(out, twin_out, "delivery {n}: the same replies");
            assert_eq!(outcome(&table[id]), outcome(&table[twin_id]), "delivery {n}");
            assert_eq!(table[id].app.dup_acks_sent(), twin.dup_acks_sent, "delivery {n}");
            let swapped = matches!(table[id].app, AppSide::Finished(_));
            assert_eq!(swapped, twin.is_done(), "delivery {n}");
            for conn in [id, twin_id] {
                table[conn].finished(now, false);
            }
            out.clear();
            twin_out.clear();
        }
        table.conns.take(id.cell())
    }

    #[test]
    fn a_finished_endpoints_marker_answers_deliveries_like_the_endpoint() {
        let flow = tuple(1);
        let relay = PacketBuilder::new(flow.dst, flow.src);
        let foreign = PacketBuilder::new(Endpoint::v4(9, 9, 9, 9, 443), flow.src);
        let isn = 0x4000_0000 ^ u32::from(flow.src.port);
        let not_tcp = relay.dns(&DnsMessage::query(7, "example.com"));
        let plain_ack = relay.tcp_ack(111, isn + 2);
        let handshake = relay.tcp_syn_ack(100, isn);
        let data = relay.tcp_data(101, isn + 2, 10);

        // Done: a duplicate (one dup ACK), then the relay closes first.
        let done = deliver_to_twins(&[
            handshake.clone(),
            data.clone(),
            data.clone(),
            relay.tcp_fin(111, isn + 2),
            not_tcp.clone(),
            foreign.tcp_rst_ack(1, 1),
            plain_ack.clone(),
            data.clone(),
            relay.tcp_rst_ack(112, isn + 3),
            plain_ack.clone(),
        ]);
        let AppSide::Finished(marker) = done.app else { panic!("not swapped: {:?}", done.app) };
        assert_eq!(marker, FinishedApp { bytes_received: 10, dup_acks_sent: 1, failed: true });

        // Failed: an RST mid-stream, then late traffic.
        let failed = deliver_to_twins(&[
            handshake,
            data.clone(),
            relay.tcp_rst_ack(111, isn + 2),
            not_tcp,
            foreign.tcp_ack(1, 1),
            plain_ack,
            data,
        ]);
        let AppSide::Finished(marker) = failed.app else { panic!("not swapped: {:?}", failed.app) };
        assert_eq!(marker, FinishedApp { bytes_received: 10, dup_acks_sent: 0, failed: true });
    }

    #[test]
    fn an_endpoint_on_a_reversed_record_is_kept() {
        let flow = tuple(1);
        let mut table = ConnTable::default();
        let id = table.intern(flow.reversed());
        table[id].app = AppSide::Tcp(Box::new(AppEndpoint::new(1, flow, 0, 0)));
        let relay = PacketBuilder::new(flow.dst, flow.src);
        table[id].deliver_to_app(SimTime::ZERO, &relay.tcp_rst_ack(1, 1), &mut Vec::new());
        let AppSide::Tcp(app) = &table[id].app else { panic!("swapped: {:?}", table[id].app) };
        assert_eq!(app.state(), AppState::Failed);
    }
}
