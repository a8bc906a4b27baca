//! A `java.nio`-like socket and selector layer over the simulated network.
//!
//! MopEye relays app traffic over regular TCP sockets because raw sockets
//! need root (§2.3). It drives them through non-blocking `SocketChannel`s and
//! a `Selector`, except for `connect()` which it runs in blocking mode inside
//! a temporary thread to get clean RTT timestamps (§2.4). This module mirrors
//! that API surface: sockets with blocking/non-blocking modes, a readiness
//! selector with a `wakeup()` hook, and the `protect()` bookkeeping whose
//! cost §3.5.2 eliminates.

use std::collections::VecDeque;
use std::mem;

use mop_packet::{Endpoint, FourTuple};

use crate::network::{ConnectOutcome, SimNetwork};
use crate::pool::BufferPool;
use crate::time::SimTime;

/// Identifier of a socket within a [`SocketSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(u64);

impl SocketId {
    /// The identifier's numeric value (the `n` of its `sock#n` rendering).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SocketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sock#{}", self.0)
    }
}

/// Blocking behaviour of a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketMode {
    /// Calls logically block the owning (simulated) thread until complete.
    Blocking,
    /// Calls return immediately; completion is observed via the selector.
    NonBlocking,
}

/// Lifecycle state of a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketState {
    /// Created but not yet connected.
    Unconnected,
    /// A handshake is in flight; it completes at the embedded time.
    Connecting {
        /// When the SYN/ACK (or failure) arrives.
        ready_at: SimTime,
    },
    /// Connected and usable.
    Connected,
    /// The connect attempt failed.
    ConnectFailed {
        /// True if the peer refused (RST); false for a timeout.
        refused: bool,
    },
    /// We have sent our FIN (half-close); reads may still complete.
    HalfClosed,
    /// Fully closed.
    Closed,
}

#[derive(Debug)]
struct SocketEntry {
    mode: SocketMode,
    state: SocketState,
    local: Endpoint,
    remote: Option<Endpoint>,
    protected: bool,
    connect_outcome: Option<ConnectOutcome>,
    /// Response chunks scheduled to arrive: (arrival time, bytes).
    pending_reads: ReadRing,
    /// Bytes buffered for writing (the engine's socket write buffer).
    write_buffered: usize,
    bytes_read: usize,
    bytes_written: usize,
}

/// Response chunks scheduled to arrive on one socket: (arrival time, bytes).
type ReadRing = VecDeque<(SimTime, usize)>;

/// A set of simulated sockets sharing an ephemeral port space.
///
/// A socket's pending-read ring is the one per-socket buffer that grows with
/// the data it carries. Closing a socket (or resetting the set) hands its
/// ring, emptied but with its capacity, to a spare list that the next
/// created socket draws from, so the rings held are bounded by the sockets
/// open at once rather than by every socket a run ever created, and a warm
/// run allocates none.
#[derive(Debug, Default)]
pub struct SocketSet {
    /// Every socket created since the last reset, indexed by its id: ids are
    /// handed out densely from zero, so the id *is* the position.
    sockets: Vec<SocketEntry>,
    next_port: u16,
    /// True once `addDisallowedApplication()` has been applied, making
    /// per-socket `protect()` unnecessary (§3.5.2).
    vpn_disallowed_application: bool,
    /// Pool backing [`SocketSet::take_readable_pooled`], so socket reads hand
    /// out recycled buffers instead of allocating per read.
    read_pool: BufferPool,
    /// Empty pending-read rings of closed sockets, kept for their capacity.
    spare_reads: Vec<ReadRing>,
}

impl SocketSet {
    /// Creates an empty socket set.
    pub fn new() -> Self {
        Self {
            sockets: Vec::new(),
            next_port: 42000,
            vpn_disallowed_application: false,
            read_pool: BufferPool::new(64 * 1024),
            spare_reads: Vec::new(),
        }
    }

    /// Resets the set to its just-constructed state while keeping the big
    /// allocations: the socket table keeps its capacity, every socket's
    /// pending-read ring goes to the spare list, the read-buffer
    /// pool keeps its recycled buffers (its per-run counters restart, the
    /// resident-bytes gauge survives), and the id/port sequences restart
    /// (ids are table positions) so a reused set hands out exactly the ids a
    /// fresh one would. The
    /// `addDisallowedApplication` flag is configuration, not run state, and
    /// is kept.
    pub fn reset(&mut self) {
        for entry in self.sockets.drain(..) {
            Self::spare(&mut self.spare_reads, entry.pending_reads);
        }
        self.next_port = 42000;
        self.read_pool.reset_stats();
    }

    /// Marks the measuring app as excluded from the VPN
    /// (`addDisallowedApplication`), so individual sockets no longer need
    /// `protect()` calls.
    pub fn set_disallowed_application(&mut self, enabled: bool) {
        self.vpn_disallowed_application = enabled;
    }

    /// Returns true if the whole application bypasses the VPN.
    pub fn disallowed_application(&self) -> bool {
        self.vpn_disallowed_application
    }

    /// Creates a socket with the given mode, bound to a fresh local port.
    pub fn create(&mut self, mode: SocketMode) -> SocketId {
        let port = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(42000);
        self.create_bound(mode, Endpoint::v4(10, 0, 0, 2, port))
    }

    /// Creates a socket bound to a caller-chosen local endpoint.
    ///
    /// The flow-keyed fleet engine binds each external socket to its app
    /// flow's source endpoint, so the external connection's four-tuple is a
    /// pure function of the flow rather than of socket-creation order —
    /// one of the invariants behind shard-count-independent determinism.
    pub fn create_bound(&mut self, mode: SocketMode, local: Endpoint) -> SocketId {
        let id = self.sockets.len() as u64;
        self.sockets.push(SocketEntry {
            mode,
            state: SocketState::Unconnected,
            local,
            remote: None,
            protected: false,
            connect_outcome: None,
            pending_reads: self.spare_reads.pop().unwrap_or_default(),
            write_buffered: 0,
            bytes_read: 0,
            bytes_written: 0,
        });
        SocketId(id)
    }

    fn entry(&self, id: SocketId) -> &SocketEntry {
        self.sockets.get(id.0 as usize).expect("unknown socket id")
    }

    fn entry_mut(&mut self, id: SocketId) -> &mut SocketEntry {
        self.sockets.get_mut(id.0 as usize).expect("unknown socket id")
    }

    /// Returns the socket's mode.
    pub fn mode(&self, id: SocketId) -> SocketMode {
        self.entry(id).mode
    }

    /// Switches the socket's blocking mode (MopEye flips a socket to blocking
    /// for the `connect()` and back afterwards).
    pub fn set_mode(&mut self, id: SocketId, mode: SocketMode) {
        self.entry_mut(id).mode = mode;
    }

    /// Returns the socket's state.
    pub fn state(&self, id: SocketId) -> SocketState {
        self.entry(id).state
    }

    /// Returns the socket's local endpoint.
    pub fn local(&self, id: SocketId) -> Endpoint {
        self.entry(id).local
    }

    /// Returns the socket's remote endpoint if connected or connecting.
    pub fn remote(&self, id: SocketId) -> Option<Endpoint> {
        self.entry(id).remote
    }

    /// The connection four-tuple (local, remote), if a connect was issued.
    pub fn flow(&self, id: SocketId) -> Option<FourTuple> {
        let e = self.entry(id);
        Some(FourTuple::new(e.local, e.remote?))
    }

    /// Whether `protect()` has been called (or is unnecessary).
    pub fn is_protected(&self, id: SocketId) -> bool {
        self.vpn_disallowed_application || self.entry(id).protected
    }

    /// Marks the socket as protected from the VPN loop.
    pub fn protect(&mut self, id: SocketId) {
        self.entry_mut(id).protected = true;
    }

    /// Starts a TCP connect to `dst` with the SYN leaving at `at`.
    ///
    /// Returns the network outcome; the socket transitions to `Connecting`
    /// and matures at `outcome.completed_at` (observed via
    /// [`SocketSet::poll_connect`] or the selector).
    ///
    /// # Panics
    ///
    /// Panics if the socket is not in the `Unconnected` state.
    pub fn connect(
        &mut self,
        net: &mut SimNetwork,
        id: SocketId,
        dst: Endpoint,
        at: SimTime,
    ) -> ConnectOutcome {
        let local = self.entry(id).local;
        assert!(
            matches!(self.entry(id).state, SocketState::Unconnected),
            "connect on a socket that is not unconnected"
        );
        let outcome = net.connect(FourTuple::new(local, dst), at);
        let e = self.entry_mut(id);
        e.remote = Some(dst);
        e.connect_outcome = Some(outcome);
        e.state = SocketState::Connecting { ready_at: outcome.completed_at };
        outcome
    }

    /// Advances the socket state if its in-flight connect has completed by
    /// `now`. Returns the current state.
    pub fn poll_connect(&mut self, id: SocketId, now: SimTime) -> SocketState {
        let e = self.entry_mut(id);
        if let SocketState::Connecting { ready_at } = e.state {
            if now >= ready_at {
                let outcome = e.connect_outcome.expect("connecting socket has an outcome");
                e.state = if outcome.success {
                    SocketState::Connected
                } else {
                    SocketState::ConnectFailed { refused: outcome.refused }
                };
            }
        }
        e.state
    }

    /// The recorded connect outcome, if a connect was issued.
    pub fn connect_outcome(&self, id: SocketId) -> Option<ConnectOutcome> {
        self.entry(id).connect_outcome
    }

    /// Buffers `bytes` for writing (MopEye's socket write buffer, filled from
    /// tunnel data packets).
    pub fn buffer_write(&mut self, id: SocketId, bytes: usize) {
        self.entry_mut(id).write_buffered += bytes;
    }

    /// Bytes currently buffered for writing.
    pub fn write_buffered(&self, id: SocketId) -> usize {
        self.entry(id).write_buffered
    }

    /// Flushes the write buffer to the network at `at`, performing a
    /// request/response exchange with the destination. Response chunks are
    /// scheduled as pending reads. Returns the number of bytes flushed.
    ///
    /// # Panics
    ///
    /// Panics if the socket is not connected.
    pub fn flush_writes(&mut self, net: &mut SimNetwork, id: SocketId, at: SimTime) -> usize {
        let flow = self.flow(id).expect("flushing an unconnected socket");
        let e = self.entry_mut(id);
        assert!(
            matches!(e.state, SocketState::Connected | SocketState::HalfClosed),
            "flush on a socket that is not connected"
        );
        let bytes = e.write_buffered;
        if bytes == 0 {
            return 0;
        }
        e.write_buffered = 0;
        e.bytes_written += bytes;
        let exchange = net.request_response(flow, bytes, at);
        let e = self.entry_mut(id);
        for chunk in exchange.response_chunks {
            e.pending_reads.push_back(chunk);
        }
        bytes
    }

    /// Schedules raw inbound data on the socket (used by bulk/download flows
    /// that bypass `flush_writes`).
    pub fn schedule_read(&mut self, id: SocketId, at: SimTime, bytes: usize) {
        self.entry_mut(id).pending_reads.push_back((at, bytes));
    }

    /// Total bytes whose arrival time has passed and can be read at `now`.
    pub fn readable_bytes(&self, id: SocketId, now: SimTime) -> usize {
        self.entry(id).pending_reads.iter().filter(|(t, _)| *t <= now).map(|(_, b)| *b).sum()
    }

    /// Consumes all chunks readable at `now` and materialises their bytes
    /// into a pooled buffer (filled with the `0x5a` response filler the
    /// simulated servers send). Returns an empty buffer if nothing is
    /// readable. Hand the buffer back with [`SocketSet::recycle_buffer`] once
    /// the relay has segmented it — in steady state no allocation happens.
    pub fn take_readable_pooled(&mut self, id: SocketId, now: SimTime) -> Vec<u8> {
        let e = self.sockets.get_mut(id.0 as usize).expect("unknown socket id");
        let mut total = 0usize;
        while let Some((t, b)) = e.pending_reads.front().copied() {
            if t <= now {
                e.pending_reads.pop_front();
                e.bytes_read += b;
                total += b;
            } else {
                break;
            }
        }
        let mut buf = self.read_pool.get();
        buf.resize(total, 0x5a);
        buf
    }

    /// Returns a buffer obtained from [`SocketSet::take_readable_pooled`] to
    /// the read pool.
    pub fn recycle_buffer(&mut self, buf: Vec<u8>) {
        self.read_pool.put(buf);
    }

    /// Behaviour counters of the pooled read-buffer free list.
    pub fn read_pool_stats(&self) -> crate::pool::PoolStats {
        self.read_pool.stats()
    }

    /// The earliest time at which more data becomes readable, if any.
    pub fn next_read_ready_at(&self, id: SocketId) -> Option<SimTime> {
        self.entry(id).pending_reads.front().map(|(t, _)| *t)
    }

    /// True if all scheduled inbound data has been consumed.
    pub fn read_exhausted(&self, id: SocketId) -> bool {
        self.entry(id).pending_reads.is_empty()
    }

    /// Half-closes the socket (our FIN sent).
    pub fn half_close(&mut self, id: SocketId) {
        let e = self.entry_mut(id);
        if matches!(e.state, SocketState::Connected) {
            e.state = SocketState::HalfClosed;
        }
    }

    /// Fully closes the socket; its pending-read ring goes to the spare
    /// list.
    pub fn close(&mut self, id: SocketId) {
        let e = self.entry_mut(id);
        e.state = SocketState::Closed;
        e.write_buffered = 0;
        let ring = mem::take(&mut e.pending_reads);
        Self::spare(&mut self.spare_reads, ring);
    }

    /// Keeps `ring`, emptied, for the next socket, unless it never allocated.
    fn spare(spares: &mut Vec<ReadRing>, mut ring: ReadRing) {
        if ring.capacity() > 0 {
            ring.clear();
            spares.push(ring);
        }
    }

    /// Lifetime byte counters (read, written) for resource accounting.
    pub fn byte_counters(&self, id: SocketId) -> (usize, usize) {
        let e = self.entry(id);
        (e.bytes_read, e.bytes_written)
    }

    /// Number of sockets ever created.
    pub fn created_count(&self) -> u64 {
        self.sockets.len() as u64
    }

    /// Number of sockets not yet closed.
    pub fn open_count(&self) -> usize {
        self.sockets.iter().filter(|e| !matches!(e.state, SocketState::Closed)).count()
    }
}

/// A readiness event reported by the [`Selector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectorEvent {
    /// The socket the event is about.
    pub socket: SocketId,
    /// The readiness kind.
    pub kind: SelectorEventKind,
}

/// Kinds of selector readiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorEventKind {
    /// A non-blocking connect has completed (successfully or not).
    Connectable,
    /// Data is available to read.
    Readable,
}

/// A readiness selector over registered sockets, with a `wakeup()` hook used
/// by TunReader to break MainWorker out of `select()` when tunnel packets
/// arrive (§3.2).
///
/// The interest set is an insertion-ordered slot vector with a position
/// index (a vector indexed by the dense [`SocketId`]): `register` and
/// `deregister` are O(1), and `deregister` leaves a tombstone that
/// iteration skips, so `select` still visits live sockets in exact
/// registration order (re-registering after a deregister moves the socket
/// to the back, just as the plain-`Vec` implementation did). Slots
/// are compacted in order once tombstones outnumber live entries, keeping
/// iteration O(live). The earlier `Vec::contains`/`Vec::retain` form made
/// both calls O(live sockets) — O(n²) across a run, and the dominant
/// host-side cost at high concurrency (134M elements scanned in a 16k-flow
/// single-shard rush hour).
#[derive(Debug, Default)]
pub struct Selector {
    /// Insertion-ordered slots; `None` marks a deregistered (tombstoned)
    /// entry that iteration skips.
    registered: Vec<Option<SocketId>>,
    /// Each live socket's slot in `registered`, indexed by socket id
    /// (socket ids are dense table positions); `None` for a socket that is
    /// not registered.
    positions: Vec<Option<usize>>,
    /// How many sockets are registered.
    live: usize,
    tombstones: usize,
    wakeup_pending: bool,
    wakeup_count: u64,
    select_count: u64,
    /// Slots touched by `register`/`deregister` beyond the O(1) index
    /// probe — i.e. compaction traffic. A compaction runs once tombstones
    /// outnumber live slots, so it scans fewer than two slots per
    /// deregistration; the counter keeps the former O(n²) hot spot visibly
    /// fixed.
    scan_elems: u64,
}

impl Selector {
    /// Creates an empty selector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the selector to its just-constructed state, keeping the
    /// interest-set allocation (the resident engine's clear-don't-drop
    /// reuse path).
    pub fn reset(&mut self) {
        self.registered.clear();
        self.positions.clear();
        self.live = 0;
        self.tombstones = 0;
        self.wakeup_pending = false;
        self.wakeup_count = 0;
        self.select_count = 0;
        self.scan_elems = 0;
    }

    /// Interest-set slots compactions scanned since the selector was
    /// created or reset.
    pub fn scan_elems(&self) -> u64 {
        self.scan_elems
    }

    /// Registers a socket for readiness notification.
    pub fn register(&mut self, id: SocketId) {
        let index = id.0 as usize;
        if index >= self.positions.len() {
            self.positions.resize(index + 1, None);
        }
        if self.positions[index].is_none() {
            self.positions[index] = Some(self.registered.len());
            self.registered.push(Some(id));
            self.live += 1;
        }
    }

    /// Removes a socket from the interest set.
    pub fn deregister(&mut self, id: SocketId) {
        if let Some(pos) = self.positions.get_mut(id.0 as usize).and_then(Option::take) {
            self.registered[pos] = None;
            self.live -= 1;
            self.tombstones += 1;
            if self.tombstones > self.live {
                self.compact();
            }
        }
    }

    /// Drops tombstoned slots, preserving the relative order of live
    /// entries, and rebuilds the position index.
    fn compact(&mut self) {
        self.scan_elems += self.registered.len() as u64;
        self.registered.retain(Option::is_some);
        for (pos, slot) in self.registered.iter().enumerate() {
            let id = slot.expect("compaction keeps only live slots");
            self.positions[id.0 as usize] = Some(pos);
        }
        self.tombstones = 0;
    }

    /// Number of registered sockets.
    pub fn registered_count(&self) -> usize {
        self.live
    }

    /// Signals the selector to return immediately from the next `select`
    /// (the `Selector.wakeup()` call TunReader issues, §3.2).
    pub fn wakeup(&mut self) {
        self.wakeup_pending = true;
        self.wakeup_count += 1;
    }

    /// Returns and clears the pending-wakeup flag.
    pub fn take_wakeup(&mut self) -> bool {
        std::mem::take(&mut self.wakeup_pending)
    }

    /// Total wakeups issued (for overhead accounting).
    pub fn wakeup_count(&self) -> u64 {
        self.wakeup_count
    }

    /// Total select passes performed.
    pub fn select_count(&self) -> u64 {
        self.select_count
    }

    /// Collects readiness events for registered sockets as of `now`,
    /// advancing in-flight connects that have matured.
    pub fn select(&mut self, sockets: &mut SocketSet, now: SimTime) -> Vec<SelectorEvent> {
        self.select_count += 1;
        let mut events = Vec::new();
        for id in self.registered.iter().filter_map(|slot| *slot) {
            match sockets.state(id) {
                SocketState::Connecting { ready_at } if ready_at <= now => {
                    sockets.poll_connect(id, now);
                    events.push(SelectorEvent { socket: id, kind: SelectorEventKind::Connectable });
                }
                SocketState::Connected | SocketState::HalfClosed
                    if sockets.readable_bytes(id, now) > 0 =>
                {
                    events.push(SelectorEvent { socket: id, kind: SelectorEventKind::Readable });
                }
                _ => {}
            }
        }
        events
    }

    /// The earliest future time at which any registered socket will become
    /// ready, used by the event loop to schedule its next wake-up.
    pub fn next_ready_at(&self, sockets: &SocketSet, now: SimTime) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for id in self.registered.iter().filter_map(|slot| *slot) {
            if let SocketState::Connecting { ready_at } = sockets.state(id) {
                consider(ready_at);
            }
            if let Some(t) = sockets.next_read_ready_at(id) {
                consider(t);
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimNetwork;

    fn net() -> SimNetwork {
        SimNetwork::builder().seed(11).with_table2_destinations().build()
    }

    fn google() -> Endpoint {
        Endpoint::v4(216, 58, 221, 132, 443)
    }

    #[test]
    fn connect_then_poll_transitions_states() {
        let mut net = net();
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::Blocking);
        assert_eq!(set.state(id), SocketState::Unconnected);
        let outcome = set.connect(&mut net, id, google(), SimTime::from_millis(10));
        assert!(matches!(set.state(id), SocketState::Connecting { .. }));
        // Too early: still connecting.
        assert!(matches!(set.poll_connect(id, SimTime::from_millis(10)), SocketState::Connecting { .. }));
        assert_eq!(set.poll_connect(id, outcome.completed_at), SocketState::Connected);
        assert_eq!(set.remote(id), Some(google()));
        assert_eq!(set.connect_outcome(id).unwrap(), outcome);
        assert_eq!(set.created_count(), 1);
        assert_eq!(set.open_count(), 1);
    }

    #[test]
    fn write_flush_schedules_response_reads() {
        let mut net = net();
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::NonBlocking);
        let outcome = set.connect(&mut net, id, google(), SimTime::ZERO);
        set.poll_connect(id, outcome.completed_at);
        set.buffer_write(id, 400);
        assert_eq!(set.write_buffered(id), 400);
        let flushed = set.flush_writes(&mut net, id, outcome.completed_at);
        assert_eq!(flushed, 400);
        assert_eq!(set.write_buffered(id), 0);
        let ready_at = set.next_read_ready_at(id).unwrap();
        assert_eq!(set.readable_bytes(id, outcome.completed_at), 0);
        assert!(set.readable_bytes(id, ready_at) > 0);
        let data = set.take_readable_pooled(id, SimTime::from_secs(120));
        assert_eq!(data.len(), 32 * 1024);
        assert!(set.read_exhausted(id));
        assert_eq!(set.byte_counters(id), (32 * 1024, 400));
    }

    #[test]
    fn pooled_reads_reuse_buffers_and_count_bytes() {
        let mut net = net();
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::NonBlocking);
        let outcome = set.connect(&mut net, id, google(), SimTime::ZERO);
        set.poll_connect(id, outcome.completed_at);
        set.buffer_write(id, 400);
        set.flush_writes(&mut net, id, outcome.completed_at);
        let buf = set.take_readable_pooled(id, SimTime::from_secs(120));
        assert_eq!(buf.len(), 32 * 1024);
        assert!(buf.iter().all(|b| *b == 0x5a));
        assert!(set.read_exhausted(id));
        assert_eq!(set.byte_counters(id), (32 * 1024, 400));
        set.recycle_buffer(buf);
        // A second read round trips through the free list, not the allocator.
        set.schedule_read(id, SimTime::from_secs(121), 100);
        let buf = set.take_readable_pooled(id, SimTime::from_secs(121));
        assert_eq!(buf.len(), 100);
        set.recycle_buffer(buf);
        let stats = set.read_pool_stats();
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.recycled, 2);
        // An idle socket yields an empty pooled buffer.
        let empty = set.take_readable_pooled(id, SimTime::from_secs(122));
        assert!(empty.is_empty());
        set.recycle_buffer(empty);
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let mut net = net();
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::NonBlocking);
        let outcome = set.connect(&mut net, id, google(), SimTime::ZERO);
        set.poll_connect(id, outcome.completed_at);
        assert_eq!(set.flush_writes(&mut net, id, outcome.completed_at), 0);
    }

    #[test]
    fn protect_and_disallowed_application() {
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::NonBlocking);
        assert!(!set.is_protected(id));
        set.protect(id);
        assert!(set.is_protected(id));
        let other = set.create(SocketMode::NonBlocking);
        assert!(!set.is_protected(other));
        set.set_disallowed_application(true);
        assert!(set.is_protected(other));
        assert!(set.disallowed_application());
    }

    #[test]
    fn selector_reports_connectable_and_readable() {
        let mut net = net();
        let mut set = SocketSet::new();
        let mut sel = Selector::new();
        let id = set.create(SocketMode::NonBlocking);
        sel.register(id);
        sel.register(id); // Duplicate registration is idempotent.
        assert_eq!(sel.registered_count(), 1);
        let outcome = set.connect(&mut net, id, google(), SimTime::ZERO);
        assert!(sel.select(&mut set, SimTime::ZERO).is_empty());
        assert_eq!(sel.next_ready_at(&set, SimTime::ZERO), Some(outcome.completed_at));
        let events = sel.select(&mut set, outcome.completed_at);
        assert_eq!(events, vec![SelectorEvent { socket: id, kind: SelectorEventKind::Connectable }]);
        set.buffer_write(id, 100);
        set.flush_writes(&mut net, id, outcome.completed_at);
        let ready = set.next_read_ready_at(id).unwrap();
        let events = sel.select(&mut set, ready);
        assert_eq!(events, vec![SelectorEvent { socket: id, kind: SelectorEventKind::Readable }]);
        sel.deregister(id);
        assert!(sel.select(&mut set, ready).is_empty());
        assert!(sel.select_count() >= 4);
    }

    #[test]
    fn wakeup_flag_is_consumed_once() {
        let mut sel = Selector::new();
        assert!(!sel.take_wakeup());
        sel.wakeup();
        sel.wakeup();
        assert!(sel.take_wakeup());
        assert!(!sel.take_wakeup());
        assert_eq!(sel.wakeup_count(), 2);
    }

    #[test]
    fn mode_switching_and_close() {
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::NonBlocking);
        set.set_mode(id, SocketMode::Blocking);
        assert_eq!(set.mode(id), SocketMode::Blocking);
        set.schedule_read(id, SimTime::from_millis(5), 100);
        set.close(id);
        assert_eq!(set.state(id), SocketState::Closed);
        assert!(set.read_exhausted(id));
        assert_eq!(set.open_count(), 0);
    }

    #[test]
    fn a_closed_sockets_read_ring_serves_the_next_socket() {
        let mut set = SocketSet::new();
        let cycle = |set: &mut SocketSet| {
            let id = set.create(SocketMode::NonBlocking);
            for n in 0..20 {
                set.schedule_read(id, SimTime::from_millis(n), 100);
            }
            let capacity = set.entry(id).pending_reads.capacity();
            set.close(id);
            assert_eq!(set.entry(id).pending_reads.capacity(), 0, "a closed socket keeps no ring");
            capacity
        };
        let grown = cycle(&mut set);
        assert!(grown >= 20);
        assert_eq!(set.spare_reads.len(), 1);
        assert_eq!(set.spare_reads[0].capacity(), grown);

        // The second cycle draws the spare: its ring starts at the grown
        // capacity and never reallocates, so the cycle allocates nothing.
        let id = set.create(SocketMode::NonBlocking);
        assert!(set.spare_reads.is_empty());
        assert_eq!(set.entry(id).pending_reads.capacity(), grown);
        assert!(set.read_exhausted(id), "a recycled ring starts empty");
        set.close(id);
        assert_eq!(cycle(&mut set), grown);
        assert_eq!(set.spare_reads.len(), 1, "spares are bounded by sockets open at once");

        // A reset returns the rings of sockets still open; a ringless
        // socket adds no spare.
        let open = set.create(SocketMode::NonBlocking);
        set.create(SocketMode::NonBlocking);
        assert_eq!(set.entry(open).pending_reads.capacity(), grown);
        set.reset();
        assert_eq!(set.spare_reads.len(), 1);
        assert_eq!(set.spare_reads[0].capacity(), grown);
    }

    #[test]
    fn half_close_only_applies_to_connected_sockets() {
        let mut net = net();
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::NonBlocking);
        set.half_close(id);
        assert_eq!(set.state(id), SocketState::Unconnected);
        let outcome = set.connect(&mut net, id, google(), SimTime::ZERO);
        set.poll_connect(id, outcome.completed_at);
        set.half_close(id);
        assert_eq!(set.state(id), SocketState::HalfClosed);
    }

    #[test]
    fn failed_connect_reports_refused() {
        use crate::latency::LatencyModel;
        use crate::server::{ServerConfig, Service};
        let mut net = SimNetwork::builder()
            .seed(2)
            .server(ServerConfig::new(
                "closed",
                "10.8.8.8".parse().unwrap(),
                LatencyModel::constant(15.0),
                Service::Refuse,
            ))
            .build();
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::Blocking);
        let outcome = set.connect(&mut net, id, Endpoint::v4(10, 8, 8, 8, 80), SimTime::ZERO);
        assert!(!outcome.success);
        assert_eq!(
            set.poll_connect(id, outcome.completed_at),
            SocketState::ConnectFailed { refused: true }
        );
    }

    #[test]
    fn dense_socket_table_reset_matches_a_fresh_set() {
        let mut net = net();
        let mut reused = SocketSet::new();
        for _ in 0..5 {
            let id = reused.create(SocketMode::Blocking);
            reused.connect(&mut net, id, google(), SimTime::ZERO);
        }
        reused.create_bound(SocketMode::NonBlocking, Endpoint::v4(10, 9, 9, 9, 50_000));
        assert_eq!(reused.created_count(), 6);
        reused.reset();
        assert_eq!((reused.created_count(), reused.open_count()), (0, 0));

        // Ids are table positions: dense from zero, in creation order, and
        // after a reset exactly what a fresh set hands out — ports too.
        let mut fresh = SocketSet::new();
        for n in 0..4u64 {
            let (a, b) = (reused.create(SocketMode::Blocking), fresh.create(SocketMode::Blocking));
            assert_eq!((a, a.raw()), (b, n));
            assert_eq!(reused.local(a), fresh.local(b));
            assert_eq!(reused.state(a), SocketState::Unconnected);
        }
        let bound = Endpoint::v4(10, 1, 2, 3, 40_000);
        let a = reused.create_bound(SocketMode::NonBlocking, bound);
        let b = fresh.create_bound(SocketMode::NonBlocking, bound);
        assert_eq!((a, a.raw(), reused.local(a)), (b, 4, bound));
        assert_eq!(reused.created_count(), fresh.created_count());
        assert_eq!(reused.open_count(), fresh.open_count());
    }

    #[test]
    #[should_panic(expected = "unknown socket id")]
    fn dense_socket_table_rejects_an_unknown_id() {
        let mut set = SocketSet::new();
        set.create(SocketMode::Blocking);
        let stale = set.create(SocketMode::Blocking);
        set.reset();
        set.create(SocketMode::Blocking);
        // One socket exists again; the second id of the previous run does not.
        set.state(stale);
    }

    #[test]
    fn local_ports_are_unique() {
        let mut set = SocketSet::new();
        let a = set.create(SocketMode::Blocking);
        let b = set.create(SocketMode::Blocking);
        assert_ne!(set.local(a).port, set.local(b).port);
    }
}
