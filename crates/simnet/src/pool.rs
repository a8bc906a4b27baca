//! A free list of single-packet buffers for the packet datapath.
//!
//! The relay handles one buffer per tunnel packet: the TunReader fills it,
//! the MainWorker parses it (by reference, via the zero-copy views in
//! `mop_packet`), and then the buffer is dead. Allocating a fresh `Vec<u8>`
//! for every packet puts the allocator on the per-packet critical path;
//! [`BufferPool`] recycles buffers instead, so the steady-state relay loop
//! performs no allocations at all (enforced by the `zero_alloc` regression
//! tests in `mop_bench`). The engine's ingress keeps one pool per
//! tunnel-packet size class (header-only and full-MTU buffers). These are
//! the only byte buffers the datapath pools: tunnel packets are the one
//! place TCP payload exists as bytes. A socket read is a byte count and a
//! segment on its way to an app carries its payload length (see
//! `mop_packet::tcp`), so neither has a buffer to recycle.

/// Counters describing how a pool behaved over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created because the free list was empty.
    pub allocations: u64,
    /// Buffers handed out from the free list (no allocation).
    pub reuses: u64,
    /// Buffers returned to the free list.
    pub recycled: u64,
    /// Bytes of capacity currently resident in the free lists — a gauge, not
    /// a counter: it rises on `put` and falls on `get`, so a report shows
    /// how much memory the pool was holding when the run ended.
    pub resident_bytes: u64,
}

impl PoolStats {
    /// Adds another pool's counters into this one (cross-shard aggregation).
    /// The resident gauge sums too: the fleet total is the memory all shard
    /// pools were holding.
    pub fn merge(&mut self, other: &PoolStats) {
        self.allocations += other.allocations;
        self.reuses += other.reuses;
        self.recycled += other.recycled;
        self.resident_bytes += other.resident_bytes;
    }

    /// Fraction of `get` calls served without allocating.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.allocations + self.reuses;
        if total == 0 {
            return 0.0;
        }
        self.reuses as f64 / total as f64
    }
}

/// A free list of `Vec<u8>` buffers.
///
/// `get` pops a cleared buffer (or allocates one with the default capacity on
/// a cold start); `put` returns it. The free list is bounded so a burst of
/// in-flight packets cannot pin memory forever, and buffers that grew far
/// beyond the default capacity are quarantined in a small *jumbo* class
/// instead of circulating in the main list — a single oversized packet must
/// not permanently inflate every pooled buffer the datapath touches.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    jumbo: Vec<Vec<u8>>,
    default_capacity: usize,
    max_pooled: usize,
    max_jumbo: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// The capacity of a header-only tunnel packet's buffer. Most of what
    /// the apps write into the tunnel is control traffic, and 128 B holds
    /// every IPv4 or IPv6 ACK, SYN, FIN, SACK-ACK (the largest, IPv6 with
    /// four blocks, is 96 B) and DNS query they send.
    pub const PACKET_CAPACITY: usize = 128;

    /// The capacity of a data-carrying tunnel packet's buffer: a full-MTU
    /// packet with headroom.
    pub const DATA_PACKET_CAPACITY: usize = 2048;

    /// A recycled buffer whose capacity exceeds the default by this factor is
    /// routed to the capped jumbo class instead of the main free list.
    pub const JUMBO_FACTOR: usize = 4;

    /// How many jumbo buffers the pool keeps before dropping the excess.
    pub const MAX_JUMBO: usize = 32;

    /// Creates a pool handing out buffers with at least `default_capacity`.
    pub(crate) fn new(default_capacity: usize) -> Self {
        Self {
            free: Vec::new(),
            jumbo: Vec::new(),
            default_capacity,
            max_pooled: 1024,
            max_jumbo: Self::MAX_JUMBO,
            stats: PoolStats::default(),
        }
    }

    /// Creates a pool of [`BufferPool::PACKET_CAPACITY`] buffers, for
    /// tunnel packets that carry no data.
    pub fn for_packets() -> Self {
        Self::new(Self::PACKET_CAPACITY)
    }

    /// Creates a pool of [`BufferPool::DATA_PACKET_CAPACITY`] buffers, for
    /// tunnel packets that carry data.
    pub fn for_data_packets() -> Self {
        Self::new(Self::DATA_PACKET_CAPACITY)
    }

    /// Hands out an empty buffer, reusing a recycled one when possible.
    /// Regular buffers are preferred; the jumbo class is drawn down only
    /// when the main list is empty (a jumbo consumer gets extra headroom, a
    /// regular consumer just wastes a bit until the buffer retires).
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop().or_else(|| self.jumbo.pop()) {
            Some(buf) => {
                self.stats.reuses += 1;
                self.stats.resident_bytes -= buf.capacity() as u64;
                buf
            }
            None => {
                self.stats.allocations += 1;
                Vec::with_capacity(self.default_capacity)
            }
        }
    }

    /// Returns a buffer to the pool. The contents are cleared; the capacity
    /// is what makes recycling worthwhile. Oversized buffers go to the capped
    /// jumbo class; beyond either cap the buffer is simply dropped.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        let oversized = buf.capacity() > self.default_capacity.saturating_mul(Self::JUMBO_FACTOR);
        let list = if oversized { &mut self.jumbo } else { &mut self.free };
        let cap = if oversized { self.max_jumbo } else { self.max_pooled };
        if list.len() < cap {
            buf.clear();
            self.stats.recycled += 1;
            self.stats.resident_bytes += buf.capacity() as u64;
            list.push(buf);
        }
    }

    /// Number of buffers currently sitting in the free lists.
    #[cfg(test)]
    pub(crate) fn free_len(&self) -> usize {
        self.free.len() + self.jumbo.len()
    }

    /// Number of buffers currently sitting in the jumbo class.
    #[cfg(test)]
    pub(crate) fn jumbo_len(&self) -> usize {
        self.jumbo.len()
    }

    /// Behaviour counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Restarts the per-run counters (allocations, reuses, recycled) while
    /// keeping the resident-bytes *gauge*, which describes the free list the
    /// pool still holds. Called between a resident engine's runs so a warm
    /// run's report shows what *that run* did — in steady state,
    /// `allocations == 0` with `reuses > 0`.
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats { resident_bytes: self.stats.resident_bytes, ..Default::default() };
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::for_packets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_allocates_cold_and_reuses_warm() {
        let mut pool = BufferPool::new(64);
        let a = pool.get();
        assert_eq!(a.capacity(), 64);
        assert_eq!(pool.stats().allocations, 1);
        pool.put(a);
        assert_eq!(pool.free_len(), 1);
        assert_eq!(pool.stats().resident_bytes, 64);
        let b = pool.get();
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.stats().resident_bytes, 0);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), 64, "capacity survives recycling");
    }

    #[test]
    fn recycled_buffers_keep_grown_capacity() {
        let mut pool = BufferPool::new(16);
        let mut a = pool.get();
        a.extend_from_slice(&[0u8; 4000]);
        pool.put(a);
        let b = pool.get();
        assert!(b.capacity() >= 4000);
        assert!(b.is_empty());
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool = BufferPool::new(8);
        pool.max_pooled = 2;
        for _ in 0..5 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn oversized_buffers_go_to_the_capped_jumbo_class() {
        let mut pool = BufferPool::new(64);
        pool.max_jumbo = 2;
        for _ in 0..4 {
            let mut buf = Vec::new();
            buf.reserve_exact(64 * BufferPool::JUMBO_FACTOR + 1);
            pool.put(buf);
        }
        // The jumbo class absorbed two and dropped the rest; the main free
        // list never saw them.
        assert_eq!(pool.jumbo_len(), 2);
        assert_eq!(pool.free.len(), 0);
        let resident = pool.stats().resident_bytes;
        assert!(resident >= 2 * (64 * BufferPool::JUMBO_FACTOR as u64 + 1));
        // Jumbo buffers are still served once the main list runs dry.
        let b = pool.get();
        assert!(b.capacity() > 64 * BufferPool::JUMBO_FACTOR);
        assert_eq!(pool.stats().reuses, 1);
        assert!(pool.stats().resident_bytes < resident);
    }

    #[test]
    fn control_packets_fit_a_header_only_buffer() {
        use mop_packet::{DnsMessage, Endpoint, PacketBuilder, SackBlocks};
        let v6 = PacketBuilder::new(
            Endpoint::new("fe80::2".parse::<std::net::IpAddr>().unwrap(), 40000),
            Endpoint::new("2001:db8::1".parse::<std::net::IpAddr>().unwrap(), 443),
        );
        let blocks = SackBlocks::new(&[(10, 20), (30, 40), (50, 60), (70, 80)]);
        let query = DnsMessage::query(7, "scontent.xx.fbcdn.net");
        for packet in
            [v6.tcp_syn(1), v6.tcp_fin(1, 1), v6.tcp_sack_ack(1, 1, blocks), v6.dns(&query)]
        {
            let mut buf = BufferPool::for_packets().get();
            packet.encode_into(&mut buf);
            assert_eq!(buf.capacity(), BufferPool::PACKET_CAPACITY, "{} B grew it", buf.len());
        }
    }

    #[test]
    fn reuse_rate_reflects_steady_state() {
        let mut pool = BufferPool::for_packets();
        assert_eq!(pool.stats().reuse_rate(), 0.0);
        let buf = pool.get();
        pool.put(buf);
        for _ in 0..99 {
            let buf = pool.get();
            pool.put(buf);
        }
        assert!(pool.stats().reuse_rate() > 0.98);
        assert_eq!(pool.stats().allocations, 1);
        assert_eq!(pool.stats().recycled, 100);
    }

    #[test]
    fn pool_stats_merge_sums_everything() {
        let mut a = PoolStats { allocations: 1, reuses: 2, recycled: 3, resident_bytes: 10 };
        let b = PoolStats { allocations: 4, reuses: 5, recycled: 6, resident_bytes: 20 };
        a.merge(&b);
        assert_eq!(a, PoolStats { allocations: 5, reuses: 7, recycled: 9, resident_bytes: 30 });
    }
}
