//! A `java.nio`-like socket layer over the simulated network.
//!
//! MopEye relays app traffic over regular TCP sockets because raw sockets
//! need root (§2.3). It drives them through non-blocking `SocketChannel`s and
//! a `Selector`, except for `connect()` which it runs in blocking mode inside
//! a temporary thread to get clean RTT timestamps (§2.4). This module mirrors
//! the sockets: blocking/non-blocking modes, connect outcomes, buffered
//! writes and timed reads, and the `protect()` bookkeeping whose cost §3.5.2
//! eliminates. Readiness needs no selector here: the engine's timing wheel
//! delivers each socket event at its virtual time.
//!
//! A socket holds no bytes. A write is a byte count added to the write
//! buffer, the response it provokes is a schedule of `(arrival time, bytes)`
//! chunks that the network appends straight to the socket's pending-read
//! ring when the write is flushed, and a read ([`SocketSet::take_readable`])
//! hands the relay the count of bytes due: the relay segments server data
//! by length (a TCP payload is its length, see `mop_packet::tcp`), so there
//! is no read buffer to fill, pool or copy.

use std::collections::VecDeque;
use std::mem;

use mop_packet::{Endpoint, FourTuple};

use crate::network::{ConnectOutcome, SimNetwork};
use crate::time::SimTime;

/// Identifier of a socket within a [`SocketSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(u64);

impl SocketId {
    /// The identifier's numeric value (the `n` of its `sock#n` rendering).
    #[cfg(test)]
    pub(crate) fn raw(self) -> u64 {
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
    /// Calls return immediately; completion is observed later, as an event.
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
/// run allocates none. A closed socket's entry stays readable until its
/// owner [releases](SocketSet::release) it; then its slot and id go to the
/// next socket created, so the table too is bounded by the sockets held at
/// once.
#[derive(Debug, Default)]
pub struct SocketSet {
    /// Every socket held, indexed by its id: ids are handed out densely
    /// from zero, so the id *is* the position.
    sockets: Vec<SocketEntry>,
    /// Released slots, reused last-released first.
    free: Vec<SocketId>,
    /// Sockets created since the last reset.
    created: u64,
    next_port: u16,
    /// True once `addDisallowedApplication()` has been applied, making
    /// per-socket `protect()` unnecessary (§3.5.2).
    vpn_disallowed_application: bool,
    /// Empty pending-read rings of closed sockets, kept for their capacity.
    spare_reads: Vec<ReadRing>,
}

impl SocketSet {
    /// Creates an empty socket set.
    pub fn new() -> Self {
        Self {
            sockets: Vec::new(),
            free: Vec::new(),
            created: 0,
            next_port: 42000,
            vpn_disallowed_application: false,
            spare_reads: Vec::new(),
        }
    }

    /// Resets the set to its just-constructed state while keeping the big
    /// allocations: the socket table keeps its capacity, every socket's
    /// pending-read ring goes to the spare list, and the id/port sequences
    /// restart (ids are table positions) so a reused set hands out exactly
    /// the ids a fresh one would. The
    /// `addDisallowedApplication` flag is configuration, not run state, and
    /// is kept.
    pub fn reset(&mut self) {
        for entry in self.sockets.drain(..) {
            Self::spare(&mut self.spare_reads, entry.pending_reads);
        }
        self.free.clear();
        self.created = 0;
        self.next_port = 42000;
    }

    /// Marks the measuring app as excluded from the VPN
    /// (`addDisallowedApplication`), so individual sockets no longer need
    /// `protect()` calls.
    pub fn set_disallowed_application(&mut self, enabled: bool) {
        self.vpn_disallowed_application = enabled;
    }

    /// Returns true if the whole application bypasses the VPN.
    #[cfg(test)]
    pub(crate) fn disallowed_application(&self) -> bool {
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
        let entry = SocketEntry {
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
        };
        self.created += 1;
        match self.free.pop() {
            Some(id) => {
                self.sockets[id.0 as usize] = entry;
                id
            }
            None => {
                self.sockets.push(entry);
                SocketId(self.sockets.len() as u64 - 1)
            }
        }
    }

    fn entry(&self, id: SocketId) -> &SocketEntry {
        self.sockets.get(id.0 as usize).expect("unknown socket id")
    }

    fn entry_mut(&mut self, id: SocketId) -> &mut SocketEntry {
        self.sockets.get_mut(id.0 as usize).expect("unknown socket id")
    }

    /// Returns the socket's mode.
    #[cfg(test)]
    pub(crate) fn mode(&self, id: SocketId) -> SocketMode {
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

    /// The connection four-tuple (local, remote), if a connect was issued.
    pub fn flow(&self, id: SocketId) -> Option<FourTuple> {
        let e = self.entry(id);
        Some(FourTuple::new(e.local, e.remote?))
    }

    /// Whether `protect()` has been called (or is unnecessary).
    #[cfg(test)]
    pub(crate) fn is_protected(&self, id: SocketId) -> bool {
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
    #[cfg(test)]
    pub(crate) fn write_buffered(&self, id: SocketId) -> usize {
        self.entry(id).write_buffered
    }

    /// Flushes the write buffer to the network at `at`, performing a
    /// request/response exchange with the destination. The network appends
    /// the response's chunks to the socket's pending reads directly. Returns
    /// the number of bytes flushed.
    ///
    /// # Panics
    ///
    /// Panics if the socket is not connected.
    pub fn flush_writes(&mut self, net: &mut SimNetwork, id: SocketId, at: SimTime) -> usize {
        let flow = self.flow(id).expect("flushing an unconnected socket");
        let e = self.sockets.get_mut(id.0 as usize).expect("unknown socket id");
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
        net.request_response(flow, bytes, at, &mut e.pending_reads);
        bytes
    }

    /// Schedules raw inbound data on the socket (used by bulk/download flows
    /// that bypass `flush_writes`).
    #[cfg(test)]
    pub(crate) fn schedule_read(&mut self, id: SocketId, at: SimTime, bytes: usize) {
        self.entry_mut(id).pending_reads.push_back((at, bytes));
    }

    /// Total bytes whose arrival time has passed and can be read at `now`.
    #[cfg(test)]
    pub(crate) fn readable_bytes(&self, id: SocketId, now: SimTime) -> usize {
        self.entry(id).pending_reads.iter().filter(|(t, _)| *t <= now).map(|(_, b)| *b).sum()
    }

    /// Consumes all chunks readable at `now` and returns how many bytes they
    /// hold (0 if nothing is readable). The bytes themselves are never
    /// materialised: the relay segments them by length.
    pub fn take_readable(&mut self, id: SocketId, now: SimTime) -> usize {
        let e = self.entry_mut(id);
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
        total
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

    /// Whether the socket may still carry traffic: it is neither closed nor
    /// failed to connect.
    pub fn is_open(&self, id: SocketId) -> bool {
        !matches!(self.entry(id).state, SocketState::Closed | SocketState::ConnectFailed { .. })
    }

    /// Frees a socket that is no longer open: its slot and id go to the
    /// next socket created, so nothing may name `id` afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the socket is still open.
    pub fn release(&mut self, id: SocketId) {
        assert!(!self.is_open(id), "{id} is released while open");
        let e = self.entry_mut(id);
        e.state = SocketState::Closed;
        let ring = mem::take(&mut e.pending_reads);
        Self::spare(&mut self.spare_reads, ring);
        self.free.push(id);
    }

    /// The most sockets the set held at once since it was created or reset.
    pub fn peak_held(&self) -> usize {
        self.sockets.len()
    }

    /// Keeps `ring`, emptied, for the next socket, unless it never allocated.
    fn spare(spares: &mut Vec<ReadRing>, mut ring: ReadRing) {
        if ring.capacity() > 0 {
            ring.clear();
            spares.push(ring);
        }
    }

    /// Lifetime byte counters (read, written) for resource accounting.
    #[cfg(test)]
    pub(crate) fn byte_counters(&self, id: SocketId) -> (usize, usize) {
        let e = self.entry(id);
        (e.bytes_read, e.bytes_written)
    }

    /// Number of sockets created since the set was created or reset.
    #[cfg(test)]
    pub(crate) fn created_count(&self) -> u64 {
        self.created
    }

    /// Number of sockets not yet closed.
    pub fn open_count(&self) -> usize {
        self.sockets.iter().filter(|e| !matches!(e.state, SocketState::Closed)).count()
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
        assert_eq!(set.entry(id).remote, Some(google()));
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
        assert_eq!(set.take_readable(id, SimTime::from_secs(120)), 32 * 1024);
        assert!(set.read_exhausted(id));
        assert_eq!(set.byte_counters(id), (32 * 1024, 400));
    }

    #[test]
    fn reads_count_the_bytes_due() {
        let mut net = net();
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::NonBlocking);
        let outcome = set.connect(&mut net, id, google(), SimTime::ZERO);
        set.poll_connect(id, outcome.completed_at);
        set.buffer_write(id, 400);
        set.flush_writes(&mut net, id, outcome.completed_at);
        // Only the chunks due by `now` are consumed.
        let first_due = set.next_read_ready_at(id).unwrap();
        let due_at_first = set.readable_bytes(id, first_due);
        assert!(due_at_first > 0);
        assert_eq!(set.take_readable(id, first_due), due_at_first);
        assert_eq!(set.take_readable(id, first_due), 0, "nothing more is due yet");
        assert_eq!(set.take_readable(id, SimTime::from_secs(120)), 32 * 1024 - due_at_first);
        assert!(set.read_exhausted(id));
        assert_eq!(set.byte_counters(id), (32 * 1024, 400));
        // Later chunks add up; an idle socket reads nothing.
        set.schedule_read(id, SimTime::from_secs(121), 100);
        set.schedule_read(id, SimTime::from_secs(121), 60);
        assert_eq!(set.take_readable(id, SimTime::from_secs(121)), 160);
        assert_eq!(set.take_readable(id, SimTime::from_secs(122)), 0);
        assert_eq!(set.byte_counters(id), (32 * 1024 + 160, 400));
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
    fn a_released_sockets_slot_and_id_serve_the_next_socket() {
        let mut set = SocketSet::new();
        let (a, b) = (set.create(SocketMode::Blocking), set.create(SocketMode::Blocking));
        assert!(set.is_open(a));
        set.close(a);
        assert!(!set.is_open(a));
        assert_eq!(set.state(a), SocketState::Closed, "a closed socket stays readable");
        set.release(a);
        let c = set.create_bound(SocketMode::NonBlocking, Endpoint::v4(10, 1, 0, 1, 40_000));
        assert_eq!(c, a, "the released id is reused");
        assert_eq!(set.state(c), SocketState::Unconnected);
        assert_eq!(set.mode(c), SocketMode::NonBlocking);
        assert_eq!((set.created_count(), set.open_count(), set.peak_held()), (3, 2, 2));
        assert!(set.is_open(b));
        set.reset();
        assert_eq!((set.created_count(), set.peak_held()), (0, 0));
        assert_eq!(set.create(SocketMode::Blocking), a, "a reset set starts from id 0");
    }

    #[test]
    #[should_panic(expected = "released while open")]
    fn an_open_socket_cannot_be_released() {
        let mut set = SocketSet::new();
        let id = set.create(SocketMode::Blocking);
        set.release(id);
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
                LatencyModel::Constant { ms: 15.0 },
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
            assert_eq!(reused.entry(a).local, fresh.entry(b).local);
            assert_eq!(reused.state(a), SocketState::Unconnected);
        }
        let bound = Endpoint::v4(10, 1, 2, 3, 40_000);
        let a = reused.create_bound(SocketMode::NonBlocking, bound);
        let b = fresh.create_bound(SocketMode::NonBlocking, bound);
        assert_eq!((a, a.raw(), reused.entry(a).local), (b, 4, bound));
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
        assert_ne!(set.entry(a).local.port, set.entry(b).local.port);
    }
}
