//! The kernel's view of live connections, as exposed through `/proc/net`.

use std::collections::hash_map::{Entry, HashMap};

use mop_packet::{Endpoint, FourTuple};

/// Which pseudo file a connection appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// `/proc/net/tcp`.
    Tcp,
    /// `/proc/net/tcp6`.
    Tcp6,
    /// `/proc/net/udp`.
    Udp,
    /// `/proc/net/udp6`.
    Udp6,
}

impl Protocol {
    /// Classifies a flow into the right pseudo file.
    pub fn for_flow(flow: &FourTuple, tcp: bool) -> Self {
        match (tcp, flow.src.is_ipv4()) {
            (true, true) => Protocol::Tcp,
            (true, false) => Protocol::Tcp6,
            (false, true) => Protocol::Udp,
            (false, false) => Protocol::Udp6,
        }
    }
}

/// Kernel socket states as encoded in the `st` column of `/proc/net/tcp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketStateCode {
    /// 01: ESTABLISHED.
    Established,
    /// 02: SYN_SENT.
    SynSent,
    /// 06: TIME_WAIT.
    TimeWait,
    /// 07: CLOSE.
    Close,
    /// 0A: LISTEN.
    Listen,
}

impl SocketStateCode {
    /// The two-digit hexadecimal code used in the pseudo file.
    pub(crate) fn code(self) -> &'static str {
        match self {
            SocketStateCode::Established => "01",
            SocketStateCode::SynSent => "02",
            SocketStateCode::TimeWait => "06",
            SocketStateCode::Close => "07",
            SocketStateCode::Listen => "0A",
        }
    }

    /// Parses a two-digit code, defaulting to `Close` for unknown codes.
    pub(crate) fn from_code(code: &str) -> Self {
        match code {
            "01" => SocketStateCode::Established,
            "02" => SocketStateCode::SynSent,
            "06" => SocketStateCode::TimeWait,
            "0A" => SocketStateCode::Listen,
            _ => SocketStateCode::Close,
        }
    }
}

/// One row of a `/proc/net/*` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionEntry {
    /// Which pseudo file the row lives in.
    pub protocol: Protocol,
    /// Local (app-side) endpoint.
    pub local: Endpoint,
    /// Remote endpoint.
    pub remote: Endpoint,
    /// Kernel socket state.
    pub state: SocketStateCode,
    /// UID of the app that owns the socket.
    pub uid: u32,
    /// Kernel inode of the socket (unique per socket).
    pub inode: u64,
}

/// One position in the table's insertion-ordered entry list.
#[derive(Debug)]
struct Slot {
    /// `None` marks a removed entry (a tombstone) that iteration skips.
    entry: Option<ConnectionEntry>,
    /// The next entry registered under the same four-tuple, if any.
    next_same_flow: Option<usize>,
}

/// The slots holding one four-tuple's live entries, oldest first.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: usize,
    tail: usize,
}

/// The live connection table, maintained by the simulated kernel as apps open
/// and close sockets.
///
/// Alongside the entry list (what `/proc/net` renders), the table maintains
/// an incremental `FourTuple → uid` index: every mutation updates the index
/// in O(1), so mapper lookups never rebuild anything. A generation counter
/// advances on every mutation that can change the flow → uid relation, which
/// lets snapshot holders (the lazy mapper) skip re-copying an index they
/// already have.
///
/// The entry list itself is an insertion-ordered slot vector with a per-flow
/// position index: `set_state` and
/// `remove` find their entries by hash probe, `remove` leaves tombstones that
/// iteration skips, and the slots are compacted in order once tombstones
/// outnumber live entries. Entries that share a four-tuple (a reused local
/// port) are chained in registration order, so `remove` still drops all of
/// them and `set_state` still touches the oldest.
#[derive(Debug, Default)]
pub struct ConnectionTable {
    slots: Vec<Slot>,
    /// Live entries only: each four-tuple's chain through `slots`.
    chains: HashMap<FourTuple, Chain>,
    tombstones: usize,
    next_inode: u64,
    /// Incrementally maintained flow → uid index (first registration wins,
    /// matching the entry-scan semantics of `uid_of`).
    uid_index: HashMap<FourTuple, u32>,
    generation: u64,
    /// Slots examined or moved by `set_state` / `remove` beyond the index
    /// probe: extra same-flow entries and compaction traffic.
    scan_elems: u64,
}

impl ConnectionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self { next_inode: 10_000, ..Self::default() }
    }

    /// Resets the table to its just-constructed state, keeping the entry and
    /// index allocations: inode numbering restarts so a reused table assigns
    /// the same inodes a fresh one would.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.chains.clear();
        self.tombstones = 0;
        self.next_inode = 10_000;
        self.uid_index.clear();
        self.generation = 0;
        self.scan_elems = 0;
    }

    /// Registers a connection owned by `uid`. Returns the assigned inode.
    pub fn register(
        &mut self,
        flow: FourTuple,
        tcp: bool,
        uid: u32,
        state: SocketStateCode,
    ) -> u64 {
        let inode = self.next_inode;
        self.next_inode += 1;
        let entry = ConnectionEntry {
            protocol: Protocol::for_flow(&flow, tcp),
            local: flow.src,
            remote: flow.dst,
            state,
            uid,
            inode,
        };
        self.slots.push(Slot { entry: Some(entry), next_same_flow: None });
        self.link(flow, self.slots.len() - 1);
        self.uid_index.entry(flow).or_insert(uid);
        self.generation += 1;
        inode
    }

    /// Appends the slot at `pos` to `flow`'s chain.
    fn link(&mut self, flow: FourTuple, pos: usize) {
        match self.chains.entry(flow) {
            Entry::Vacant(chain) => {
                chain.insert(Chain { head: pos, tail: pos });
            }
            Entry::Occupied(mut chain) => {
                let chain = chain.get_mut();
                self.slots[chain.tail].next_same_flow = Some(pos);
                chain.tail = pos;
            }
        }
    }

    /// Updates the state of the (oldest) connection matching `flow`.
    ///
    /// The uid index is untouched: a state change never alters ownership.
    pub fn set_state(&mut self, flow: FourTuple, state: SocketStateCode) -> bool {
        let Some(chain) = self.chains.get(&flow) else { return false };
        let entry = self.slots[chain.head].entry.as_mut().expect("chains hold live slots");
        entry.state = state;
        true
    }

    /// Removes every connection matching `flow`. Returns true if any was
    /// found.
    pub fn remove(&mut self, flow: FourTuple) -> bool {
        let Some(chain) = self.chains.remove(&flow) else { return false };
        let mut next = Some(chain.head);
        while let Some(pos) = next {
            self.slots[pos].entry = None;
            self.tombstones += 1;
            next = self.slots[pos].next_same_flow;
            self.scan_elems += u64::from(next.is_some());
        }
        self.uid_index.remove(&flow);
        self.generation += 1;
        if self.tombstones > self.len() {
            self.compact();
        }
        true
    }

    /// Drops tombstoned slots, preserving the order of live entries, and
    /// rebuilds the chains over the new positions.
    fn compact(&mut self) {
        self.scan_elems += self.slots.len() as u64;
        self.slots.retain(|slot| slot.entry.is_some());
        self.chains.clear();
        self.tombstones = 0;
        for pos in 0..self.slots.len() {
            self.slots[pos].next_same_flow = None;
            let entry = self.slots[pos].entry.as_ref().expect("compaction keeps only live slots");
            self.link(FourTuple::new(entry.local, entry.remote), pos);
        }
    }

    /// Looks up the UID owning `flow` — O(1) via the incremental index.
    pub fn uid_of(&self, flow: FourTuple) -> Option<u32> {
        self.uid_index.get(&flow).copied()
    }

    /// The incrementally maintained flow → uid index.
    ///
    /// This is what the packet-to-app mappers consult instead of re-rendering
    /// and re-parsing the `/proc/net` text on every lookup; the parse *cost*
    /// is still charged through the cost model, but the wall-clock work is
    /// amortised O(1).
    pub fn uid_index(&self) -> &HashMap<FourTuple, u32> {
        &self.uid_index
    }

    /// Generation counter: advances whenever the flow → uid relation mutates.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Slots examined or moved by `set_state` / `remove` beyond their O(1)
    /// index probes (see `tests/complexity_guard.rs`).
    pub fn scan_elems(&self) -> u64 {
        self.scan_elems
    }

    /// Looks up a UID by local port only — the fallback Android tools use
    /// when the local address is rewritten by the VPN.
    #[cfg(test)]
    pub(crate) fn uid_of_local_port(&self, port: u16) -> Option<u32> {
        self.entries().find(|e| e.local.port == port).map(|e| e.uid)
    }

    /// Entries belonging to one pseudo file.
    pub(crate) fn entries_for(&self, protocol: Protocol) -> Vec<&ConnectionEntry> {
        self.entries().filter(|e| e.protocol == protocol).collect()
    }

    /// All live entries, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &ConnectionEntry> {
        self.slots.iter().filter_map(|slot| slot.entry.as_ref())
    }

    /// Number of live entries (across all four files).
    pub fn len(&self) -> usize {
        self.slots.len() - self.tombstones
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns true if an IP address belongs to any registered local endpoint.
    #[cfg(test)]
    pub(crate) fn has_local_addr(&self, addr: std::net::IpAddr) -> bool {
        self.entries().any(|e| e.local.addr == addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(port: u16, uid: u32) -> (FourTuple, u32) {
        (FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(31, 13, 79, 251, 443)), uid)
    }

    #[test]
    fn register_lookup_remove_roundtrip() {
        let mut table = ConnectionTable::new();
        let (f1, uid1) = flow(40000, 10123);
        let (f2, uid2) = flow(40001, 10456);
        let inode1 = table.register(f1, true, uid1, SocketStateCode::SynSent);
        let inode2 = table.register(f2, true, uid2, SocketStateCode::Established);
        assert_ne!(inode1, inode2);
        assert_eq!(table.len(), 2);
        assert_eq!(table.uid_of(f1), Some(uid1));
        assert_eq!(table.uid_of_local_port(40001), Some(uid2));
        assert!(table.set_state(f1, SocketStateCode::Established));
        assert!(table.remove(f1));
        assert!(!table.remove(f1));
        assert_eq!(table.uid_of(f1), None);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn protocol_classification() {
        let v4 = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 1), Endpoint::v4(8, 8, 8, 8, 53));
        assert_eq!(Protocol::for_flow(&v4, true), Protocol::Tcp);
        assert_eq!(Protocol::for_flow(&v4, false), Protocol::Udp);
        let v6 = FourTuple::new(
            Endpoint::new("fe80::2".parse::<std::net::Ipv6Addr>().unwrap(), 1),
            Endpoint::new("2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap(), 53),
        );
        assert_eq!(Protocol::for_flow(&v6, true), Protocol::Tcp6);
        assert_eq!(Protocol::for_flow(&v6, false), Protocol::Udp6);
    }

    #[test]
    fn entries_for_filters_by_protocol() {
        let mut table = ConnectionTable::new();
        let (f1, uid1) = flow(40000, 1);
        table.register(f1, true, uid1, SocketStateCode::Established);
        let udp_flow =
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 5353), Endpoint::v4(8, 8, 8, 8, 53));
        table.register(udp_flow, false, 2, SocketStateCode::Close);
        assert_eq!(table.entries_for(Protocol::Tcp).len(), 1);
        assert_eq!(table.entries_for(Protocol::Udp).len(), 1);
        assert_eq!(table.entries_for(Protocol::Tcp6).len(), 0);
        assert!(table.has_local_addr("10.0.0.2".parse().unwrap()));
        assert!(!table.has_local_addr("10.0.0.99".parse().unwrap()));
    }

    #[test]
    fn state_codes_roundtrip() {
        for s in [
            SocketStateCode::Established,
            SocketStateCode::SynSent,
            SocketStateCode::TimeWait,
            SocketStateCode::Close,
            SocketStateCode::Listen,
        ] {
            assert_eq!(SocketStateCode::from_code(s.code()), s);
        }
        assert_eq!(SocketStateCode::from_code("FF"), SocketStateCode::Close);
    }

    #[test]
    fn entries_sharing_a_four_tuple_are_updated_oldest_first_and_removed_together() {
        let mut table = ConnectionTable::new();
        let (shared, _) = flow(40000, 0);
        let (other, _) = flow(40001, 0);
        table.register(shared, true, 1, SocketStateCode::SynSent);
        table.register(other, true, 2, SocketStateCode::SynSent);
        table.register(shared, false, 3, SocketStateCode::Close);
        assert_eq!(table.uid_of(shared), Some(1), "first registration wins");
        assert!(table.set_state(shared, SocketStateCode::Established));
        let states: Vec<_> = table.entries().map(|e| (e.uid, e.state)).collect();
        assert_eq!(
            states,
            [
                (1, SocketStateCode::Established),
                (2, SocketStateCode::SynSent),
                (3, SocketStateCode::Close)
            ]
        );
        assert!(table.remove(shared));
        assert_eq!(table.entries().map(|e| e.uid).collect::<Vec<_>>(), [2]);
        assert_eq!(table.uid_of(shared), None);
        assert!(!table.set_state(shared, SocketStateCode::Close));
    }

    #[test]
    fn churn_keeps_the_slot_vector_and_the_work_per_removal_bounded() {
        let mut table = ConnectionTable::new();
        let resident = 10u16;
        for port in 0..resident {
            let (f, uid) = flow(30_000 + port, 7);
            table.register(f, false, uid, SocketStateCode::Close);
        }
        let churned = 5_000u16;
        for port in 0..churned {
            let (f, uid) = flow(40_000 + port, 8);
            table.register(f, true, uid, SocketStateCode::SynSent);
            assert!(table.set_state(f, SocketStateCode::Established));
            assert!(table.remove(f));
            assert!(table.slots.len() <= 2 * table.len() + 1, "tombstones pile up");
        }
        assert_eq!(table.len(), usize::from(resident));
        assert_eq!(table.entries().count(), usize::from(resident));
        // Amortised: a compaction moves at most twice the tombstones it drops.
        assert!(table.scan_elems() <= 3 * u64::from(churned), "{}", table.scan_elems());
    }
}
