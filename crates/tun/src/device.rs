//! The TUN device: two packet queues with timestamps.

use std::collections::VecDeque;

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};
use mop_packet::Packet;
use mop_simnet::SimTime;

/// Counters kept by the device, used for throughput and resource accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct TunStats {
    /// Packets written by apps (outbound, towards MopEye).
    pub packets_from_apps: u64,
    /// Bytes written by apps.
    pub bytes_from_apps: u64,
    /// Packets written by MopEye back to apps.
    pub packets_to_apps: u64,
    /// Bytes written by MopEye back to apps.
    pub bytes_to_apps: u64,
    /// Always zero: nothing increments it. The fleet's dispatcher sends each
    /// worker shard one job per run on a one-slot ring it has already
    /// emptied, so it never waits to send. The field stays because the
    /// benchmark reads it; it is excluded from equality and digests, which
    /// is why `PartialEq` is hand-written below.
    pub dispatch_stalls: u64,
}

impl PartialEq for TunStats {
    fn eq(&self, other: &Self) -> bool {
        // `dispatch_stalls` is deliberately excluded: it depends on host
        // thread scheduling, not on what the simulation computed.
        self.packets_from_apps == other.packets_from_apps
            && self.bytes_from_apps == other.bytes_from_apps
            && self.packets_to_apps == other.packets_to_apps
            && self.bytes_to_apps == other.bytes_to_apps
    }
}

impl Eq for TunStats {}

impl TunStats {
    /// Adds another device's counters into this one (cross-shard
    /// aggregation).
    pub fn merge(&mut self, other: &TunStats) {
        self.packets_from_apps += other.packets_from_apps;
        self.bytes_from_apps += other.bytes_from_apps;
        self.packets_to_apps += other.packets_to_apps;
        self.bytes_to_apps += other.bytes_to_apps;
        self.dispatch_stalls += other.dispatch_stalls;
    }
}

/// The checkpoint encoding: the four simulated counters. `dispatch_stalls`
/// is host backpressure, not state, and restarts from zero.
impl ToJson for TunStats {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("packets_from_apps", &self.packets_from_apps);
        out.field("bytes_from_apps", &self.bytes_from_apps);
        out.field("packets_to_apps", &self.packets_to_apps);
        out.field("bytes_to_apps", &self.bytes_to_apps);
        out.end_object();
    }
}

impl FromJson for TunStats {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "packets_from_apps" => packets_from_apps,
            "bytes_from_apps" => bytes_from_apps,
            "packets_to_apps" => packets_to_apps,
            "bytes_to_apps" => bytes_to_apps,
        });
        Ok(TunStats {
            packets_from_apps,
            bytes_from_apps,
            packets_to_apps,
            bytes_to_apps,
            dispatch_stalls: 0,
        })
    }
}

/// The simulated `/dev/tun` interface.
///
/// Apps enqueue raw IP packets on the *outbound* queue (they are leaving the
/// apps); MopEye's TunReader retrieves them from there. MopEye's TunWriter
/// enqueues packets on the *inbound* queue, which the apps consume.
///
/// Two usage modes exist: standalone consumers (tests, future multi-process
/// harnesses) drive the queues with [`TunDevice::app_write`] /
/// [`TunDevice::read_outbound`] / [`TunDevice::drain_inbound`], while the
/// relay engine's zero-copy datapath carries packet bytes through pooled
/// buffers itself and only records the counters here via
/// [`TunDevice::record_app_write`] / [`TunDevice::record_relay_write`].
#[derive(Debug, Default)]
pub struct TunDevice {
    outbound: VecDeque<(SimTime, Packet)>,
    inbound: VecDeque<(SimTime, Packet)>,
    stats: TunStats,
    /// Set when a dummy packet has been injected to release a blocked reader
    /// (§3.1's shutdown workaround).
    dummy_injected: bool,
}

impl TunDevice {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// An app writes `packet` into the tunnel at time `at`.
    pub fn app_write(&mut self, at: SimTime, packet: Packet) {
        self.record_app_write(packet.wire_len());
        self.outbound.push_back((at, packet));
    }

    /// MopEye writes `packet` towards the apps at time `at`.
    pub fn relay_write(&mut self, at: SimTime, packet: Packet) {
        self.record_relay_write(packet.wire_len());
        self.inbound.push_back((at, packet));
    }

    /// Records an app write of `wire_len` bytes without queueing the packet.
    ///
    /// The engine's zero-copy datapath serialises app packets into pooled
    /// buffers and hands those to the MainWorker directly, so the device only
    /// keeps the counters — queueing a second owned copy here would be a
    /// clone per packet for nothing.
    pub fn record_app_write(&mut self, wire_len: usize) {
        self.stats.packets_from_apps += 1;
        self.stats.bytes_from_apps += wire_len as u64;
    }

    /// Records a relay write of `wire_len` bytes without queueing the packet.
    pub fn record_relay_write(&mut self, wire_len: usize) {
        self.stats.packets_to_apps += 1;
        self.stats.bytes_to_apps += wire_len as u64;
    }

    /// Injects the dummy packet MopEye uses to release a blocked `read()`
    /// when shutting down (§3.1). It is marked so the relay can discard it.
    pub fn inject_dummy(&mut self, at: SimTime, packet: Packet) {
        self.dummy_injected = true;
        self.outbound.push_back((at, packet));
    }

    /// True if a dummy shutdown packet has been injected.
    pub fn dummy_injected(&self) -> bool {
        self.dummy_injected
    }

    /// The arrival time of the next app packet waiting to be retrieved.
    pub fn next_outbound_at(&self) -> Option<SimTime> {
        self.outbound.front().map(|(t, _)| *t)
    }

    /// Retrieves the next app packet if one arrived at or before `now`.
    pub fn read_outbound(&mut self, now: SimTime) -> Option<(SimTime, Packet)> {
        if self.outbound.front().map(|(t, _)| *t <= now).unwrap_or(false) {
            self.outbound.pop_front()
        } else {
            None
        }
    }

    /// Number of app packets currently queued.
    pub fn outbound_len(&self) -> usize {
        self.outbound.len()
    }

    /// Drains every packet MopEye has written for the apps up to `now`.
    /// The app-side of the simulation consumes these.
    pub fn drain_inbound(&mut self, now: SimTime) -> Vec<(SimTime, Packet)> {
        let mut out = Vec::new();
        while self.inbound.front().map(|(t, _)| *t <= now).unwrap_or(false) {
            out.push(self.inbound.pop_front().expect("checked front"));
        }
        out
    }

    /// Number of packets queued towards the apps.
    pub fn inbound_len(&self) -> usize {
        self.inbound.len()
    }

    /// Device counters.
    pub fn stats(&self) -> TunStats {
        self.stats
    }

    /// Resets the device to its just-constructed state, keeping the queue
    /// allocations — the clear-don't-drop reuse path of a resident engine.
    pub fn reset(&mut self) {
        self.outbound.clear();
        self.inbound.clear();
        self.stats = TunStats::default();
        self.dummy_injected = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::{Endpoint, PacketBuilder};

    fn pkt(seq: u32) -> Packet {
        PacketBuilder::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(8, 8, 8, 8, 443))
            .tcp_syn(seq)
    }

    #[test]
    fn app_writes_are_readable_in_fifo_order_after_arrival() {
        let mut tun = TunDevice::new();
        tun.app_write(SimTime::from_millis(10), pkt(1));
        tun.app_write(SimTime::from_millis(20), pkt(2));
        assert_eq!(tun.outbound_len(), 2);
        assert_eq!(tun.next_outbound_at(), Some(SimTime::from_millis(10)));
        // Nothing has arrived at t=5.
        assert!(tun.read_outbound(SimTime::from_millis(5)).is_none());
        let (t, p) = tun.read_outbound(SimTime::from_millis(15)).unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        assert_eq!(p.tcp().unwrap().seq, 1);
        // Second packet still not arrived at t=15.
        assert!(tun.read_outbound(SimTime::from_millis(15)).is_none());
        assert!(tun.read_outbound(SimTime::from_millis(25)).is_some());
        assert_eq!(tun.stats().packets_from_apps, 2);
        assert!(tun.stats().bytes_from_apps > 0);
    }

    #[test]
    fn relay_writes_are_drained_by_apps() {
        let mut tun = TunDevice::new();
        tun.relay_write(SimTime::from_millis(3), pkt(7));
        tun.relay_write(SimTime::from_millis(9), pkt(8));
        assert_eq!(tun.inbound_len(), 2);
        let drained = tun.drain_inbound(SimTime::from_millis(5));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.tcp().unwrap().seq, 7);
        assert_eq!(tun.inbound_len(), 1);
        assert_eq!(tun.drain_inbound(SimTime::from_millis(100)).len(), 1);
        assert_eq!(tun.stats().packets_to_apps, 2);
    }

    #[test]
    fn dummy_injection_is_flagged() {
        let mut tun = TunDevice::new();
        assert!(!tun.dummy_injected());
        tun.inject_dummy(SimTime::ZERO, pkt(0));
        assert!(tun.dummy_injected());
        assert_eq!(tun.outbound_len(), 1);
        // Dummy packets do not count as app traffic.
        assert_eq!(tun.stats().packets_from_apps, 0);
    }
}
