//! The fleet digest as it was defined until samples and flow outcomes
//! folded as multisets: one byte-serial FNV-1a pass over the samples in
//! (time, flow, kind) order, the relay counters, the flows in four-tuple
//! order, the TUN counters, the finish time, the event count and the
//! sketch digests. The cross-version anchors were recorded under this
//! definition; it lives on as the in-test model that still reproduces them
//! from the same reports, which proves the reports themselves did not move
//! when the digest's definition did.

use mopeye::engine::{RunReport, SampleKind};

/// Byte-serial FNV-1a with the workspace's constants (those of
/// `mop_packet::StableHasher`), fed the way the old digest fed it: `u64`s
/// as little-endian bytes, `f64`s by bit pattern, strings length-prefixed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }
}

fn sample_kind_tag(kind: SampleKind) -> u8 {
    match kind {
        SampleKind::Tcp => 0,
        SampleKind::Dns => 1,
    }
}

/// The sequential digest of `report` (order-sensitive only among records
/// that tie on the sort keys, which a canonical report breaks by content).
pub fn sequential_digest(report: &RunReport) -> u64 {
    let mut fnv = Fnv::new();
    let mut order: Vec<usize> = (0..report.samples.len()).collect();
    order.sort_by(|&i, &j| {
        let a = &report.samples[i];
        let b = &report.samples[j];
        (a.at, a.flow, sample_kind_tag(a.kind)).cmp(&(b.at, b.flow, sample_kind_tag(b.kind)))
    });
    fnv.write_u64(order.len() as u64);
    for i in order {
        let s = &report.samples[i];
        fnv.write_u64(u64::from(sample_kind_tag(s.kind)));
        fnv.write_u64(s.flow.stable_hash());
        fnv.write_u64(u64::from(s.uid.unwrap_or(u32::MAX)));
        fnv.write_str(s.package.as_deref().unwrap_or(""));
        fnv.write_str(s.domain.as_deref().unwrap_or(""));
        fnv.write_f64(s.measured_ms);
        fnv.write_f64(s.true_ms);
        fnv.write_f64(s.tcpdump_ms.unwrap_or(f64::NEG_INFINITY));
        fnv.write_u64(s.at.as_nanos());
    }
    for c in [
        report.relay.syns,
        report.relay.connects_ok,
        report.relay.connects_failed,
        report.relay.data_segments_out,
        report.relay.data_segments_in,
        report.relay.pure_acks_discarded,
        report.relay.fins,
        report.relay.rsts,
        report.relay.udp_datagrams,
        report.relay.dns_queries,
        report.relay.bytes_out,
        report.relay.bytes_in,
        report.relay.parse_errors,
    ] {
        fnv.write_u64(c);
    }
    let mut flow_order: Vec<usize> = (0..report.flows.len()).collect();
    flow_order.sort_by(|&i, &j| report.flows[i].flow.cmp(&report.flows[j].flow));
    fnv.write_u64(flow_order.len() as u64);
    for i in flow_order {
        let f = &report.flows[i];
        fnv.write_u64(f.flow.stable_hash());
        fnv.write_str(&f.package);
        fnv.write_u64(f.started_at.as_nanos());
        fnv.write_u64(f.finished_at.as_nanos());
        fnv.write_u64(f.bytes_received as u64);
        fnv.write_u64(u64::from(f.completed));
    }
    for c in [
        report.tun.packets_from_apps,
        report.tun.bytes_from_apps,
        report.tun.packets_to_apps,
        report.tun.bytes_to_apps,
    ] {
        fnv.write_u64(c);
    }
    fnv.write_u64(report.finished_at.as_nanos());
    fnv.write_u64(report.events_processed);
    fnv.write_u64(report.aggregates.digest());
    if let Some(windows) = &report.windows {
        fnv.write_u64(windows.digest());
    }
    fnv.0
}
