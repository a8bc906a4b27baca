//! Packet parsing and construction for the MopEye reproduction.
//!
//! MopEye intercepts raw IP packets from a TUN interface, parses them to find
//! the transport endpoints, terminates TCP against a user-space state machine
//! and relays the payload over regular sockets. This crate provides the wire
//! formats that the whole pipeline operates on:
//!
//! * [`view`] — the parse path: zero-copy views ([`PacketView`] and its
//!   per-protocol views) that validate the tunnel bytes and borrow them,
//! * [`Ipv4Packet`] / [`Ipv6Packet`] — network-layer headers,
//! * [`TcpSegment`] — TCP header, options (MSS, window scale) and payload
//!   length (a TCP payload is its length; see [`tcp`]),
//! * [`UdpDatagram`] — UDP header and payload,
//! * [`Packet`] — a packet to be written to the tunnel, encoded in place by
//!   [`Packet::encode_into`],
//! * [`dns`] — just enough of the DNS wire format for query/response
//!   measurement,
//! * [`builder`] — convenience constructors for the packet sequences the
//!   simulated apps and the TCP state machine emit.
//!
//! Everything round-trips: a packet encoded with `encode_into` reads back
//! through the views with every field the relay reads intact, which is
//! enforced by property tests.
//!
//! # Examples
//!
//! Parse a packet an app wrote into the tunnel without copying its payload:
//!
//! ```
//! use mop_packet::{Endpoint, PacketBuilder, PacketView, TransportView};
//!
//! let app = PacketBuilder::new(
//!     Endpoint::v4(10, 0, 0, 2, 40_000),
//!     Endpoint::v4(216, 58, 221, 132, 443),
//! );
//! let bytes = app.tcp_syn(1000).to_bytes();
//! let view = PacketView::parse(&bytes).unwrap();
//! let flow = view.four_tuple().unwrap();
//! assert_eq!(flow.dst.port, 443);
//! assert!(matches!(view.transport(), TransportView::Tcp(_)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod checksum;
pub mod dns;
pub mod error;
pub mod hash;
pub mod ipv4;
pub mod ipv6;
pub mod packet;
pub mod tcp;
pub mod udp;
pub mod view;

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};

pub use builder::PacketBuilder;
pub use dns::{DnsFlags, DnsMessage, DnsQuestion, DnsRecord, DnsRecordData, DnsType};
pub use error::{PacketError, Result};
pub use hash::{FastHasher, FastMap, FastState, StableHasher, WordHasher};
pub use ipv4::Ipv4Packet;
pub use ipv6::Ipv6Packet;
pub use packet::{IpPacket, Packet, Transport};
pub use tcp::{OptBytes, PayloadLen, SackBlocks, TcpFlags, TcpOption, TcpSegment};
pub use udp::UdpDatagram;
pub use view::{
    IpView, Ipv4View, Ipv6View, PacketView, TcpOptionIter, TcpOptionRef, TcpSegmentView,
    TransportView, UdpView,
};

/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// A transport-layer endpoint: an IP address plus a port.
///
/// MopEye keys its TCP clients and its packet-to-app mapping on
/// (source endpoint, destination endpoint) pairs, so this type is used
/// pervasively across the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// The IP address of the endpoint.
    pub addr: std::net::IpAddr,
    /// The transport port of the endpoint.
    pub port: u16,
}

impl Endpoint {
    /// Creates a new endpoint from an address and a port.
    pub fn new(addr: impl Into<std::net::IpAddr>, port: u16) -> Self {
        Self { addr: addr.into(), port }
    }

    /// Creates an IPv4 endpoint from four octets and a port.
    pub fn v4(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        Self { addr: std::net::IpAddr::V4(std::net::Ipv4Addr::new(a, b, c, d)), port }
    }

    /// Returns true if the endpoint uses an IPv4 address.
    pub fn is_ipv4(&self) -> bool {
        self.addr.is_ipv4()
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// A connection four-tuple (source endpoint, destination endpoint).
///
/// This is the key MopEye uses both for splicing tunnel connections onto
/// socket connections and for looking up the owning app in `/proc/net`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FourTuple {
    /// The local (app-side) endpoint.
    pub src: Endpoint,
    /// The remote (server-side) endpoint.
    pub dst: Endpoint,
}

impl FourTuple {
    /// Creates a new four-tuple.
    pub fn new(src: Endpoint, dst: Endpoint) -> Self {
        Self { src, dst }
    }

    /// Returns the tuple with source and destination swapped.
    ///
    /// Useful for matching the return direction of a flow.
    pub fn reversed(&self) -> Self {
        Self { src: self.dst, dst: self.src }
    }

    /// The direction-normalised form of the tuple: the same value for a flow
    /// and its reverse, so both directions of a connection key the same
    /// per-connection state.
    ///
    /// ```
    /// use mop_packet::{Endpoint, FourTuple};
    /// let t = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000), Endpoint::v4(8, 8, 8, 8, 53));
    /// assert_eq!(t.canonical(), t.reversed().canonical());
    /// ```
    pub fn canonical(&self) -> Self {
        if (self.src, self.dst) <= (self.dst, self.src) {
            *self
        } else {
            self.reversed()
        }
    }

    /// A platform- and process-stable 64-bit hash of the tuple (FNV-1a over
    /// the address bytes and ports, finished with an avalanche mix so the
    /// low bits are usable as a modulo shard index).
    ///
    /// Unlike [`std::hash::Hash`] (whose `HashMap` hasher is seeded per
    /// process on some configurations), this value is reproducible across
    /// runs, machines and toolchains, which is what makes it usable as a
    /// *shard key*: a fleet engine hashes every connection four-tuple with
    /// `stable_hash() % shards` and the assignment never changes between
    /// runs.
    ///
    /// ```
    /// use mop_packet::{Endpoint, FourTuple};
    /// let t = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000), Endpoint::v4(8, 8, 8, 8, 53));
    /// assert_eq!(t.stable_hash(), t.stable_hash());
    /// assert_ne!(t.stable_hash(), t.reversed().stable_hash());
    /// ```
    pub fn stable_hash(&self) -> u64 {
        let mut hasher = StableHasher::new();
        for endpoint in [&self.src, &self.dst] {
            match endpoint.addr {
                std::net::IpAddr::V4(v4) => {
                    hasher.write_u8(4);
                    hasher.write_bytes(&v4.octets());
                }
                std::net::IpAddr::V6(v6) => {
                    hasher.write_u8(6);
                    hasher.write_bytes(&v6.octets());
                }
            }
            hasher.write_bytes(&endpoint.port.to_be_bytes());
        }
        hasher.finish_mixed()
    }
}

impl std::fmt::Display for FourTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// `{"addr": "10.0.0.2", "port": 443}` — the checkpoint encoding.
impl ToJson for Endpoint {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("addr", &self.addr);
        out.field("port", &self.port);
        out.end_object();
    }
}

impl FromJson for Endpoint {
    fn read_json(input: &mut JsonReader<'_>) -> std::result::Result<Self, ParseError> {
        mop_json::read_members!(input, { "addr" => addr, "port" => port });
        Ok(Endpoint { addr, port })
    }
}

/// `{"src": endpoint, "dst": endpoint}`.
impl ToJson for FourTuple {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("src", &self.src);
        out.field("dst", &self.dst);
        out.end_object();
    }
}

impl FromJson for FourTuple {
    fn read_json(input: &mut JsonReader<'_>) -> std::result::Result<Self, ParseError> {
        mop_json::read_members!(input, { "src" => src, "dst" => dst });
        Ok(FourTuple { src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn endpoint_display_and_helpers() {
        let e = Endpoint::v4(10, 0, 0, 2, 443);
        assert_eq!(e.to_string(), "10.0.0.2:443");
        assert!(e.is_ipv4());
        let e6 = Endpoint::new(std::net::Ipv6Addr::LOCALHOST, 53);
        assert!(!e6.is_ipv4());
    }

    #[test]
    fn four_tuple_reverse_roundtrip() {
        let t = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(8, 8, 8, 8, 53));
        assert_eq!(t.reversed().reversed(), t);
        assert_eq!(t.reversed().src.port, 53);
    }

    #[test]
    fn endpoint_from_ipaddr() {
        let e = Endpoint::new(Ipv4Addr::new(1, 2, 3, 4), 80);
        assert_eq!(e.port, 80);
        assert_eq!(e.to_string(), "1.2.3.4:80");
    }

    #[test]
    fn four_tuple_ordering_is_total() {
        let a = FourTuple::new(Endpoint::v4(1, 1, 1, 1, 1), Endpoint::v4(2, 2, 2, 2, 2));
        let b = FourTuple::new(Endpoint::v4(1, 1, 1, 1, 2), Endpoint::v4(2, 2, 2, 2, 2));
        assert!(a < b);
    }
}
