//! A free list of segment payload buffers.
//!
//! Every data segment the relay sends towards an app owns its payload as a
//! `Vec<u8>` (and, on fault-capable networks, the sender scoreboard keeps a
//! second copy until the segment is acknowledged). Both die a few events
//! later — delivered, dropped by a fault, or cumulatively ACKed — so instead
//! of returning to the allocator they return here, and the next segment
//! takes its buffer from here: a warm relay allocates per flow, not per
//! packet.
//!
//! The pool never trusts what a buffer holds: [`SegmentPool::filled`] clears
//! and fully overwrites before handing a buffer out, so a recycled buffer is
//! indistinguishable from a fresh `to_vec()`, across engine resets too.

use mop_packet::{Packet, Transport};

/// The free list. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SegmentPool {
    free: Vec<Vec<u8>>,
}

impl SegmentPool {
    /// How many buffers the free list keeps; a buffer returned beyond this is
    /// dropped. Sized so the list (≤ 256 MSS-sized buffers, ~370 KiB) does
    /// not move a fleet shard's resident set: it only has to bridge the gap
    /// between one socket read's segments leaving and the previous read's
    /// being delivered, not hold a whole window per flow.
    pub const MAX_POOLED: usize = 256;

    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer holding exactly `bytes`: a recycled one, cleared and
    /// overwritten, or a fresh one when the list is empty.
    pub fn filled(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Returns a dead buffer to the list, whatever it still holds. Buffers
    /// that never allocated (a control segment's empty payload) and buffers
    /// beyond [`SegmentPool::MAX_POOLED`] are dropped.
    pub fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.free.len() < Self::MAX_POOLED {
            self.free.push(buf);
        }
    }

    /// Returns a dead packet's TCP payload buffer to the list.
    pub fn recycle(&mut self, packet: Packet) {
        if let Transport::Tcp(segment) = packet.transport {
            self.put(segment.payload);
        }
    }

    /// How many buffers the list currently holds.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when the list holds no buffer.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::{Endpoint, PacketBuilder};

    #[test]
    fn a_dirty_recycled_buffer_comes_back_holding_exactly_the_new_bytes() {
        let mut pool = SegmentPool::new();
        pool.put(vec![0xee; 1_460]);
        let capacity_before = pool.free[0].capacity();
        let buf = pool.filled(&[1, 2, 3]);
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(buf.capacity(), capacity_before, "the allocation was reused");
        assert!(pool.is_empty());
    }

    #[test]
    fn the_list_is_capped_and_ignores_buffers_that_never_allocated() {
        let mut pool = SegmentPool::new();
        pool.put(Vec::new());
        assert!(pool.is_empty());
        for _ in 0..SegmentPool::MAX_POOLED + 10 {
            pool.put(vec![0; 8]);
        }
        assert_eq!(pool.len(), SegmentPool::MAX_POOLED);
    }

    #[test]
    fn recycle_takes_tcp_payloads_only() {
        let builder =
            PacketBuilder::new(Endpoint::v4(10, 0, 0, 2, 40_000), Endpoint::v4(8, 8, 8, 8, 53));
        let mut pool = SegmentPool::new();
        pool.recycle(builder.tcp_ack(1, 1));
        pool.recycle(builder.udp(vec![1; 32]));
        assert!(pool.is_empty());
        pool.recycle(builder.tcp_data(1, 1, vec![7; 100]));
        assert_eq!(pool.len(), 1);
    }
}
