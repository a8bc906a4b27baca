//! Buffer pools for the packet datapath: a free-list of single-packet
//! buffers and a slab-batch pool for the vectored datapath.
//!
//! The relay handles one buffer per tunnel packet: the TunReader fills it,
//! the MainWorker parses it (by reference, via the zero-copy views in
//! `mop_packet`), and then the buffer is dead. Allocating a fresh `Vec<u8>`
//! for every packet puts the allocator on the per-packet critical path;
//! [`BufferPool`] recycles buffers instead, so the steady-state relay loop
//! performs no allocations at all (enforced by the `zero_alloc` regression
//! tests in `mop_bench`).
//!
//! The batched engine loop works on [`SlabBatch`]es instead of loose
//! buffers: one contiguous byte slab carrying many packets, each described
//! by an inline [`PacketSlot`] (offset, length, due time). A batch is the
//! unit of work between pipeline stages — it amortises dispatch and cache
//! costs over a burst — and [`BatchPool`] recycles whole slabs the same way
//! [`BufferPool`] recycles buffers. The pool is also where a slab lives while
//! it is in flight: a scheduled batch carries only its [`SlabId`].

use crate::time::SimTime;

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
    /// A capacity that fits a full-MTU tunnel packet with headroom.
    pub const PACKET_CAPACITY: usize = 2048;

    /// A recycled buffer whose capacity exceeds the default by this factor is
    /// routed to the capped jumbo class instead of the main free list.
    pub const JUMBO_FACTOR: usize = 4;

    /// How many jumbo buffers the pool keeps before dropping the excess.
    pub const MAX_JUMBO: usize = 32;

    /// Creates a pool handing out buffers with at least `default_capacity`.
    pub fn new(default_capacity: usize) -> Self {
        Self {
            free: Vec::new(),
            jumbo: Vec::new(),
            default_capacity,
            max_pooled: 1024,
            max_jumbo: Self::MAX_JUMBO,
            stats: PoolStats::default(),
        }
    }

    /// Creates a pool sized for tunnel packets.
    pub fn for_packets() -> Self {
        Self::new(Self::PACKET_CAPACITY)
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
    pub fn free_len(&self) -> usize {
        self.free.len() + self.jumbo.len()
    }

    /// Number of buffers currently sitting in the jumbo class.
    pub fn jumbo_len(&self) -> usize {
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

/// One packet inside a [`SlabBatch`]: where its bytes live in the slab and
/// when the event loop owes it processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketSlot {
    /// Byte offset of the packet within the slab.
    pub offset: usize,
    /// Length of the packet in bytes.
    pub len: usize,
    /// Virtual time at which the packet is due at the MainWorker.
    pub due: SimTime,
}

/// A batch of packets in one contiguous byte slab, with inline per-packet
/// offsets, lengths and due times.
///
/// The batched datapath makes this the unit of work: ingress seals packets
/// into slabs, the engine loop coalesces same-timestamp slabs into bursts,
/// and the stages consume a whole slab per dispatch. Keeping the bytes
/// contiguous keeps a burst cache-resident; keeping the slot metadata inline
/// keeps iteration branch-free.
#[derive(Debug, Default)]
pub struct SlabBatch {
    data: Vec<u8>,
    slots: Vec<PacketSlot>,
}

impl SlabBatch {
    /// Creates an empty slab with room for `data_capacity` bytes and
    /// `slot_capacity` packets before reallocating.
    pub fn with_capacity(data_capacity: usize, slot_capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(data_capacity),
            slots: Vec::with_capacity(slot_capacity),
        }
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the batch carries no packets.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total packet bytes in the batch.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Appends one packet whose bytes are produced by `fill` (e.g. a wire
    /// encoder) appending to the slab, and returns the encoded length. The
    /// slot's due time starts at zero; stamp it with [`SlabBatch::stamp_due`]
    /// once the delivery time is known.
    pub fn push_with<F: FnOnce(&mut Vec<u8>)>(&mut self, fill: F) -> usize {
        let offset = self.data.len();
        fill(&mut self.data);
        let len = self.data.len() - offset;
        self.slots.push(PacketSlot { offset, len, due: SimTime::ZERO });
        len
    }

    /// Appends one packet by copying `bytes` into the slab.
    pub fn push_bytes(&mut self, bytes: &[u8], due: SimTime) {
        let offset = self.data.len();
        self.data.extend_from_slice(bytes);
        self.slots.push(PacketSlot { offset, len: bytes.len(), due });
    }

    /// Stamps the most recently pushed packet's due time.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty.
    pub fn stamp_due(&mut self, due: SimTime) {
        self.slots.last_mut().expect("stamp_due on an empty batch").due = due;
    }

    /// The bytes of packet `i`.
    pub fn packet(&self, i: usize) -> &[u8] {
        let slot = &self.slots[i];
        &self.data[slot.offset..slot.offset + slot.len]
    }

    /// The due time of packet `i`.
    pub fn due(&self, i: usize) -> SimTime {
        self.slots[i].due
    }

    /// Iterates the packets in batch order as `(due, bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &[u8])> {
        self.slots.iter().map(|s| (s.due, &self.data[s.offset..s.offset + s.len]))
    }

    /// Moves every packet of `other` to the end of this batch (rebasing the
    /// slot offsets), leaving `other` empty — the coalescing step that merges
    /// same-timestamp bursts into one slab.
    pub fn absorb(&mut self, other: &mut SlabBatch) {
        let base = self.data.len();
        self.data.extend_from_slice(&other.data);
        self.slots.extend(
            other.slots.iter().map(|s| PacketSlot { offset: base + s.offset, ..*s }),
        );
        other.clear();
    }

    /// Keeps only the first `n` packets (and their bytes, when `n` cuts at a
    /// packet boundary the byte tail is dropped too).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.slots.len() {
            return;
        }
        let data_end = self.slots.get(n).map_or(self.data.len(), |s| s.offset);
        self.slots.truncate(n);
        self.data.truncate(data_end);
    }

    /// Empties the batch, keeping the allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.slots.clear();
    }

    /// Bytes of memory the batch's allocations hold (data plus slot table).
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() + self.slots.capacity() * std::mem::size_of::<PacketSlot>()
    }
}

/// Names one slab of a [`BatchPool`]: what a scheduled tunnel batch carries
/// instead of the slab itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabId(u32);

/// The slab arena of the batched datapath: every slab lives here, named by
/// its [`SlabId`], from [`BatchPool::get`] until [`BatchPool::put`] returns
/// it to the free list (pre-sized for a burst). Bounded like [`BufferPool`]:
/// beyond the free-list cap, or for a slab that ballooned past
/// [`BatchPool::MAX_SLAB_BYTES`], `put` releases the slab's allocations
/// instead of keeping them, so one giant burst cannot pin memory for the
/// rest of the run; such an id is re-armed (and counted as an allocation)
/// when it is next handed out.
#[derive(Debug)]
pub struct BatchPool {
    /// Every slab, indexed by id; a free one is empty.
    slabs: Vec<SlabBatch>,
    /// Ids not checked out.
    free: Vec<SlabId>,
    /// How many free slabs still hold their allocations.
    pooled: usize,
    data_capacity: usize,
    slot_capacity: usize,
    max_pooled: usize,
    stats: PoolStats,
}

impl BatchPool {
    /// Slabs whose allocations exceed this are released on `put`.
    pub const MAX_SLAB_BYTES: usize = 256 * 1024;

    /// Creates a pool of slabs pre-sized for `data_capacity` bytes and
    /// `slot_capacity` packets.
    pub fn new(data_capacity: usize, slot_capacity: usize) -> Self {
        Self {
            slabs: Vec::new(),
            free: Vec::new(),
            pooled: 0,
            data_capacity,
            slot_capacity,
            max_pooled: 1024,
            stats: PoolStats::default(),
        }
    }

    /// A pool of slabs sized for `burst` full-MTU tunnel packets.
    pub fn for_packets(burst: usize) -> Self {
        Self::new(BufferPool::PACKET_CAPACITY, burst.max(1))
    }

    /// Checks out an empty slab, reusing a recycled one when possible.
    pub fn get(&mut self) -> SlabId {
        let fresh = || SlabBatch::with_capacity(self.data_capacity, self.slot_capacity);
        match self.free.pop() {
            Some(id) => {
                let slab = &mut self.slabs[id.0 as usize];
                match slab.capacity_bytes() {
                    0 => {
                        self.stats.allocations += 1;
                        *slab = fresh();
                    }
                    resident => {
                        self.pooled -= 1;
                        self.stats.reuses += 1;
                        self.stats.resident_bytes -= resident as u64;
                    }
                }
                id
            }
            None => {
                self.stats.allocations += 1;
                let id = SlabId(u32::try_from(self.slabs.len()).expect("fewer than 2^32 slabs"));
                self.slabs.push(fresh());
                id
            }
        }
    }

    /// Recycles slab `id` (cleared; allocations kept unless it outgrew
    /// [`BatchPool::MAX_SLAB_BYTES`] or the free list is full).
    pub fn put(&mut self, id: SlabId) {
        let slab = &mut self.slabs[id.0 as usize];
        let kept = slab.capacity_bytes();
        if self.pooled < self.max_pooled && kept > 0 && kept <= Self::MAX_SLAB_BYTES {
            slab.clear();
            self.pooled += 1;
            self.stats.recycled += 1;
            self.stats.resident_bytes += kept as u64;
        } else {
            *slab = SlabBatch::default();
        }
        self.free.push(id);
    }

    /// Moves every packet of slab `from` to the end of slab `into` (see
    /// [`SlabBatch::absorb`]) and recycles `from`.
    pub fn absorb(&mut self, into: SlabId, from: SlabId) {
        let mut follower = std::mem::take(&mut self.slabs[from.0 as usize]);
        self.slabs[into.0 as usize].absorb(&mut follower);
        self.slabs[from.0 as usize] = follower;
        self.put(from);
    }

    /// Number of free slabs that still hold their allocations.
    pub fn free_len(&self) -> usize {
        self.pooled
    }

    /// Number of slabs checked out and not yet put back.
    pub fn in_use(&self) -> usize {
        self.slabs.len() - self.free.len()
    }

    /// Behaviour counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Resets the pool between runs: every slab still checked out (a
    /// stopped run's pending batches, dropped with its scheduler) goes back
    /// to the free list as `put` would return it, and the per-run counters
    /// restart while the resident-bytes gauge keeps describing the pooled
    /// slabs (see [`BufferPool::reset_stats`]).
    pub fn reset(&mut self) {
        if self.in_use() > 0 {
            self.free.clear();
            self.pooled = 0;
            self.stats.resident_bytes = 0;
            for i in 0..self.slabs.len() {
                self.put(SlabId(i as u32));
            }
        }
        self.stats = PoolStats { resident_bytes: self.stats.resident_bytes, ..Default::default() };
    }
}

impl std::ops::Index<SlabId> for BatchPool {
    type Output = SlabBatch;

    fn index(&self, id: SlabId) -> &SlabBatch {
        &self.slabs[id.0 as usize]
    }
}

impl std::ops::IndexMut<SlabId> for BatchPool {
    fn index_mut(&mut self, id: SlabId) -> &mut SlabBatch {
        &mut self.slabs[id.0 as usize]
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
    fn slab_batch_records_offsets_lengths_and_due_times() {
        let mut slab = SlabBatch::with_capacity(64, 4);
        let len = slab.push_with(|data| data.extend_from_slice(b"alpha"));
        assert_eq!(len, 5);
        slab.stamp_due(SimTime::from_millis(3));
        slab.push_bytes(b"be", SimTime::from_millis(7));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.byte_len(), 7);
        assert_eq!(slab.packet(0), b"alpha");
        assert_eq!(slab.packet(1), b"be");
        assert_eq!(slab.due(0), SimTime::from_millis(3));
        let collected: Vec<(SimTime, Vec<u8>)> =
            slab.iter().map(|(t, b)| (t, b.to_vec())).collect();
        assert_eq!(collected[1], (SimTime::from_millis(7), b"be".to_vec()));
    }

    #[test]
    fn absorb_rebases_offsets_and_empties_the_follower() {
        let mut a = SlabBatch::default();
        a.push_bytes(b"one", SimTime::from_millis(1));
        let mut b = SlabBatch::default();
        b.push_bytes(b"two", SimTime::from_millis(1));
        b.push_bytes(b"three", SimTime::from_millis(1));
        a.absorb(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.len(), 3);
        assert_eq!(a.packet(1), b"two");
        assert_eq!(a.packet(2), b"three");
    }

    #[test]
    fn truncate_drops_tail_packets_and_bytes() {
        let mut slab = SlabBatch::default();
        slab.push_bytes(b"aa", SimTime::ZERO);
        slab.push_bytes(b"bbb", SimTime::ZERO);
        slab.push_bytes(b"c", SimTime::ZERO);
        slab.truncate(1);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.byte_len(), 2);
        assert_eq!(slab.packet(0), b"aa");
        slab.truncate(5); // No-op beyond the end.
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn batch_pool_recycles_slabs_and_tracks_residency() {
        let mut pool = BatchPool::for_packets(16);
        let slab = pool.get();
        assert_eq!(pool.stats().allocations, 1);
        assert_eq!(pool.in_use(), 1);
        pool[slab].push_bytes(&[0u8; 100], SimTime::ZERO);
        let cap = pool[slab].capacity_bytes() as u64;
        pool.put(slab);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.stats().resident_bytes, cap);
        let again = pool.get();
        assert_eq!(again, slab, "the recycled id is handed out again");
        assert!(pool[again].is_empty(), "recycled slabs come back cleared");
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(pool.stats().resident_bytes, 0);
        // Absorbing a follower recycles it; a reset returns the rest.
        let follower = pool.get();
        pool[follower].push_bytes(b"two", SimTime::ZERO);
        pool.absorb(again, follower);
        assert_eq!(pool[again].packet(0), b"two");
        assert_eq!(pool.in_use(), 1);
        pool.reset();
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.free_len(), 2);
        assert_eq!(pool.stats().resident_bytes, 2 * cap);
    }

    #[test]
    fn batch_pool_drops_ballooned_slabs() {
        let mut pool = BatchPool::new(64, 2);
        let slab = pool.get();
        pool[slab].push_bytes(&vec![0u8; BatchPool::MAX_SLAB_BYTES + 1], SimTime::ZERO);
        pool.put(slab);
        assert_eq!(pool.free_len(), 0, "oversized slab must not be pooled");
        assert_eq!(pool.stats().recycled, 0);
        assert_eq!(pool.stats().resident_bytes, 0);
        assert_eq!(pool[slab].capacity_bytes(), 0, "its allocations were released");
        // The id is reused, re-armed at the pool's size.
        assert_eq!(pool.get(), slab);
        assert_eq!(pool.stats().allocations, 2);
        assert!(pool[slab].capacity_bytes() > 0);
    }

    #[test]
    fn pool_stats_merge_sums_everything() {
        let mut a = PoolStats { allocations: 1, reuses: 2, recycled: 3, resident_bytes: 10 };
        let b = PoolStats { allocations: 4, reuses: 5, recycled: 6, resident_bytes: 20 };
        a.merge(&b);
        assert_eq!(a, PoolStats { allocations: 5, reuses: 7, recycled: 9, resident_bytes: 30 });
    }
}
