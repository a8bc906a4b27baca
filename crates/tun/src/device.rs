//! The TUN device's traffic counters.
//!
//! The relay engine carries tunnel packets itself (app writes towards the
//! MainWorker as pooled byte buffers, relay writes back to the apps as
//! parked packets), so all that is left of the device is what it counts:
//! packets and bytes in each direction, for throughput and resource
//! accounting.

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};

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
    /// Records an app writing a `wire_len`-byte packet into the tunnel.
    pub fn record_app_write(&mut self, wire_len: usize) {
        self.packets_from_apps += 1;
        self.bytes_from_apps += wire_len as u64;
    }

    /// Records MopEye writing a `wire_len`-byte packet back to the apps.
    pub fn record_relay_write(&mut self, wire_len: usize) {
        self.packets_to_apps += 1;
        self.bytes_to_apps += wire_len as u64;
    }

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
