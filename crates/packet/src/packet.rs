//! A unified view of a packet captured from the TUN interface.
//!
//! The tunnel hands MopEye raw IP packets (§2.2); the first thing the engine
//! does is parse them into network + transport layers so that it can find the
//! four-tuple, classify the segment (SYN, data, pure ACK, FIN, RST, UDP) and
//! route it to the right TCP/UDP client.

use std::net::IpAddr;

use crate::ipv4::Ipv4Packet;
use crate::ipv6::Ipv6Packet;
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::{Endpoint, FourTuple};

/// The network layer of a captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpPacket {
    /// An IPv4 packet.
    V4(Ipv4Packet),
    /// An IPv6 packet.
    V6(Ipv6Packet),
}

impl IpPacket {
    /// Source IP address.
    pub(crate) fn src(&self) -> IpAddr {
        match self {
            IpPacket::V4(p) => IpAddr::V4(p.src),
            IpPacket::V6(p) => IpAddr::V6(p.src),
        }
    }

    /// Destination IP address.
    pub(crate) fn dst(&self) -> IpAddr {
        match self {
            IpPacket::V4(p) => IpAddr::V4(p.dst),
            IpPacket::V6(p) => IpAddr::V6(p.dst),
        }
    }

    /// Network header length in bytes.
    pub(crate) fn header_len(&self) -> usize {
        match self {
            IpPacket::V4(p) => p.header_len(),
            IpPacket::V6(_) => crate::ipv6::IPV6_HEADER_LEN,
        }
    }
}

/// The transport layer of a captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An unsupported transport, preserved raw so it can still be forwarded.
    Other(u8, Vec<u8>),
}

/// A fully parsed packet as read from the tunnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The network layer.
    pub ip: IpPacket,
    /// The transport layer.
    pub transport: Transport,
}

impl Packet {
    /// Builds a packet from a network header template and a transport layer.
    ///
    /// Construction is lazy: lengths and checksums are computed when the
    /// packet is serialised, so building a packet that is never written to
    /// the wire costs no encoding work and no checksum pass.
    pub(crate) fn from_parts(ip: IpPacket, transport: Transport) -> Self {
        Self { ip, transport }
    }

    /// The source endpoint (IP + transport port), if the transport has ports.
    pub(crate) fn src_endpoint(&self) -> Option<Endpoint> {
        let port = match &self.transport {
            Transport::Tcp(t) => t.src_port,
            Transport::Udp(u) => u.src_port,
            Transport::Other(..) => return None,
        };
        Some(Endpoint::new(self.ip.src(), port))
    }

    /// The destination endpoint (IP + transport port), if the transport has ports.
    pub(crate) fn dst_endpoint(&self) -> Option<Endpoint> {
        let port = match &self.transport {
            Transport::Tcp(t) => t.dst_port,
            Transport::Udp(u) => u.dst_port,
            Transport::Other(..) => return None,
        };
        Some(Endpoint::new(self.ip.dst(), port))
    }

    /// The connection four-tuple, if the transport has ports.
    pub fn four_tuple(&self) -> Option<FourTuple> {
        Some(FourTuple::new(self.src_endpoint()?, self.dst_endpoint()?))
    }

    /// Returns the TCP segment if this is a TCP packet.
    pub fn tcp(&self) -> Option<&TcpSegment> {
        match &self.transport {
            Transport::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the UDP datagram if this is a UDP packet.
    pub fn udp(&self) -> Option<&UdpDatagram> {
        match &self.transport {
            Transport::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// Serialises the full packet (IP header plus transport), recomputing
    /// checksums and length fields.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the full serialised packet to `out`.
    ///
    /// The network header and the transport layer are written directly into
    /// the output buffer — no intermediate payload vector, no packet clone —
    /// and both checksums are patched in place. With a warmed, reused buffer
    /// this is the allocation-free encode path of the relay datapath.
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (src, dst) = (self.ip.src(), self.ip.dst());
        let payload_len = self.transport_wire_len();
        match &self.ip {
            IpPacket::V4(p) => p.encode_header_into(out, payload_len),
            IpPacket::V6(p) => p.encode_header_into(out, payload_len),
        }
        match &self.transport {
            Transport::Tcp(t) => t.encode_with_checksum_into(src, dst, out),
            Transport::Udp(u) => u.encode_with_checksum_into(src, dst, out),
            Transport::Other(_, raw) => out.extend_from_slice(raw),
        }
    }

    /// Serialised length of the transport layer in bytes.
    pub(crate) fn transport_wire_len(&self) -> usize {
        match &self.transport {
            Transport::Tcp(t) => t.wire_len(),
            Transport::Udp(u) => u.len(),
            Transport::Other(_, raw) => raw.len(),
        }
    }

    /// Total serialised length in bytes, computed without serialising.
    #[inline]
    pub fn wire_len(&self) -> usize {
        self.ip.header_len() + self.transport_wire_len()
    }
}

// Shape guard: every packet parked on its way to an app, and every slot of a
// `Vec<Packet>`, pays this size. The network layer holds header fields only,
// and a TCP segment holds its payload's length, not its bytes (only a UDP
// datagram owns a payload buffer), so relaying or copying a segment copies
// no payload.
const _: () = assert!(std::mem::size_of::<Packet>() <= 112);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::tcp::TcpFlags;
    use crate::view::{PacketView, TransportView};
    use std::net::Ipv4Addr;

    fn builder() -> PacketBuilder {
        PacketBuilder::new(
            Endpoint::v4(10, 0, 0, 2, 40000),
            Endpoint::v4(216, 58, 221, 132, 443),
        )
    }

    #[test]
    fn tcp_packet_roundtrip_through_bytes() {
        let p = builder().tcp_syn(12345);
        let bytes = p.to_bytes();
        let parsed = PacketView::parse(&bytes).unwrap();
        assert_eq!(parsed.four_tuple(), p.four_tuple());
        let tcp = parsed.tcp().unwrap();
        assert_eq!((tcp.flags(), tcp.seq()), (TcpFlags::SYN, 12345));
    }

    #[test]
    fn udp_packet_roundtrip_through_bytes() {
        let p = builder().udp(b"hello".to_vec());
        let bytes = p.to_bytes();
        let parsed = PacketView::parse(&bytes).unwrap();
        let TransportView::Udp(udp) = parsed.transport() else { panic!("not UDP") };
        assert_eq!(udp.payload(), b"hello");
        assert_eq!(parsed.src_endpoint().unwrap().port, 40000);
    }

    #[test]
    fn unknown_transport_is_preserved() {
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            47, // GRE.
        );
        let p = Packet::from_parts(IpPacket::V4(ip), Transport::Other(47, vec![1, 2, 3, 4]));
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 24);
        let parsed = PacketView::parse(&bytes).unwrap();
        assert!(matches!(parsed.transport(), TransportView::Other(47, [1, 2, 3, 4])));
        assert!(parsed.four_tuple().is_none());
    }

    #[test]
    fn empty_buffer_is_rejected() {
        assert!(PacketView::parse(&[]).is_err());
        assert!(PacketView::parse(&[0x00]).is_err());
    }

    #[test]
    fn to_bytes_encodes_a_mutated_transport() {
        let mut p = builder().tcp_syn(1);
        if let Transport::Tcp(t) = &mut p.transport {
            t.flags |= TcpFlags::ACK;
            t.ack = 100;
        }
        let bytes = p.to_bytes();
        let tcp = *PacketView::parse(&bytes).unwrap().tcp().unwrap();
        assert_eq!((tcp.flags(), tcp.ack()), (TcpFlags::SYN | TcpFlags::ACK, 100));
    }

    #[test]
    fn wire_len_matches_serialisation() {
        let p = builder().tcp_data(10, 20, 100);
        assert_eq!(p.wire_len(), p.to_bytes().len());
        assert_eq!(p.wire_len(), 20 + 20 + 100);
    }
}
