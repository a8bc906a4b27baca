//! Convenience constructors for the packet sequences exchanged across the
//! tunnel.
//!
//! Both the simulated apps (which emit SYN / data / FIN sequences into the
//! TUN device) and MopEye's user-space TCP state machine (which emits
//! SYN-ACKs, ACKs and relayed data back to the apps) build packets with the
//! same handful of shapes. [`PacketBuilder`] captures a direction
//! (`src -> dst`) and stamps out those shapes.

use std::net::IpAddr;

use crate::ipv4::Ipv4Packet;
use crate::ipv6::Ipv6Packet;
use crate::packet::{IpPacket, Packet, Transport};
use crate::tcp::{
    PayloadLen, SackBlocks, TcpFlags, TcpOption, TcpSegment, MOPEYE_MSS, MOPEYE_RECEIVE_WINDOW,
};
use crate::udp::UdpDatagram;
use crate::{DnsMessage, Endpoint, IPPROTO_TCP, IPPROTO_UDP};

/// Builds packets flowing from `src` to `dst`.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src: Endpoint,
    dst: Endpoint,
    /// Receive window advertised in TCP segments.
    pub window: u16,
    /// MSS advertised in SYN / SYN-ACK segments.
    pub mss: u16,
}

impl PacketBuilder {
    /// Creates a builder for the `src -> dst` direction.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not the same IP version.
    pub fn new(src: Endpoint, dst: Endpoint) -> Self {
        assert_eq!(src.addr.is_ipv4(), dst.addr.is_ipv4(), "mixed address families");
        Self { src, dst, window: MOPEYE_RECEIVE_WINDOW, mss: MOPEYE_MSS }
    }

    fn wrap_ip(&self, protocol: u8) -> IpPacket {
        match (self.src.addr, self.dst.addr) {
            (IpAddr::V4(s), IpAddr::V4(d)) => IpPacket::V4(Ipv4Packet::new(s, d, protocol)),
            (IpAddr::V6(s), IpAddr::V6(d)) => IpPacket::V6(Ipv6Packet::new(s, d, protocol)),
            _ => unreachable!("constructor enforces matching families"),
        }
    }

    fn wrap_tcp(&self, segment: TcpSegment) -> Packet {
        let ip = self.wrap_ip(IPPROTO_TCP);
        Packet::from_parts(ip, Transport::Tcp(segment))
    }

    /// A SYN segment opening a connection with initial sequence number `seq`.
    ///
    /// Carries the MSS option so the peer learns our segment size, matching
    /// what both real apps and MopEye's state machine advertise.
    pub fn tcp_syn(&self, seq: u32) -> Packet {
        let mut seg = TcpSegment::new(self.src.port, self.dst.port, seq, 0, TcpFlags::SYN);
        seg.window = self.window;
        seg.options = [TcpOption::MaximumSegmentSize(self.mss)].into();
        self.wrap_tcp(seg)
    }

    /// A SYN/ACK answering a SYN whose sequence number was `peer_seq`.
    pub fn tcp_syn_ack(&self, seq: u32, peer_seq: u32) -> Packet {
        let mut seg = TcpSegment::new(
            self.src.port,
            self.dst.port,
            seq,
            peer_seq.wrapping_add(1),
            TcpFlags::SYN | TcpFlags::ACK,
        );
        seg.window = self.window;
        seg.options = [TcpOption::MaximumSegmentSize(self.mss)].into();
        self.wrap_tcp(seg)
    }

    /// A pure ACK segment.
    pub fn tcp_ack(&self, seq: u32, ack: u32) -> Packet {
        let mut seg = TcpSegment::new(self.src.port, self.dst.port, seq, ack, TcpFlags::ACK);
        seg.window = self.window;
        self.wrap_tcp(seg)
    }

    /// A duplicate ACK carrying SACK blocks: a pure ACK whose option list
    /// reports the received-but-not-contiguous ranges, the way a receiver
    /// answers a sequence hole (RFC 2018).
    pub fn tcp_sack_ack(&self, seq: u32, ack: u32, blocks: SackBlocks) -> Packet {
        let mut seg = TcpSegment::new(self.src.port, self.dst.port, seq, ack, TcpFlags::ACK);
        seg.window = self.window;
        if !blocks.is_empty() {
            seg.options = [TcpOption::Sack(blocks)].into();
        }
        self.wrap_tcp(seg)
    }

    /// A data segment (PSH|ACK) carrying `payload`: a byte count, or bytes
    /// read only for their length (a TCP payload is its length, see
    /// [`crate::tcp`]).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds 65,535 bytes, more than any IP packet
    /// can carry.
    pub fn tcp_data(&self, seq: u32, ack: u32, payload: impl PayloadLen) -> Packet {
        let mut seg =
            TcpSegment::new(self.src.port, self.dst.port, seq, ack, TcpFlags::ACK | TcpFlags::PSH);
        seg.window = self.window;
        seg.payload_len =
            u16::try_from(payload.payload_len()).expect("TCP payload exceeds 65,535 bytes");
        self.wrap_tcp(seg)
    }

    /// A FIN|ACK segment closing our direction of the connection.
    pub fn tcp_fin(&self, seq: u32, ack: u32) -> Packet {
        let mut seg =
            TcpSegment::new(self.src.port, self.dst.port, seq, ack, TcpFlags::FIN | TcpFlags::ACK);
        seg.window = self.window;
        self.wrap_tcp(seg)
    }

    /// An RST|ACK segment aborting the connection in response to `ack`.
    pub fn tcp_rst_ack(&self, seq: u32, ack: u32) -> Packet {
        let seg =
            TcpSegment::new(self.src.port, self.dst.port, seq, ack, TcpFlags::RST | TcpFlags::ACK);
        self.wrap_tcp(seg)
    }

    /// A UDP datagram carrying `payload`.
    pub fn udp(&self, payload: Vec<u8>) -> Packet {
        let ip = self.wrap_ip(IPPROTO_UDP);
        Packet::from_parts(
            ip,
            Transport::Udp(UdpDatagram::new(self.src.port, self.dst.port, payload)),
        )
    }

    /// A UDP datagram carrying a DNS message.
    pub fn dns(&self, message: &DnsMessage) -> Packet {
        self.udp(message.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> PacketBuilder {
        PacketBuilder::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443))
    }

    #[test]
    fn syn_carries_mss_option() {
        let p = builder().tcp_syn(1000);
        let tcp = p.tcp().unwrap();
        assert_eq!(tcp.flags, TcpFlags::SYN);
        assert_eq!(tcp.mss(), Some(MOPEYE_MSS));
        assert_eq!(tcp.window, MOPEYE_RECEIVE_WINDOW);
    }

    #[test]
    fn syn_ack_acknowledges_peer_isn_plus_one() {
        let server = Endpoint::v4(31, 13, 79, 251, 443);
        let p = PacketBuilder::new(server, Endpoint::v4(10, 0, 0, 2, 40000)).tcp_syn_ack(777, 1000);
        let tcp = p.tcp().unwrap();
        assert!(tcp.is_syn_ack());
        assert_eq!(tcp.ack, 1001);
        assert_eq!(tcp.src_port, 443);
        assert_eq!(tcp.dst_port, 40000);
    }

    #[test]
    fn data_and_fin_and_rst_shapes() {
        let b = builder();
        let d = b.tcp_data(5, 6, 3);
        assert_eq!(d.tcp().unwrap().payload_len, 3);
        assert_eq!(b.tcp_data(5, 6, vec![1, 2, 3]), d, "bytes count for their length");
        assert!(d.tcp().unwrap().flags.contains(TcpFlags::PSH));
        let f = b.tcp_fin(8, 9);
        assert!(f.tcp().unwrap().flags.contains(TcpFlags::FIN));
        let ra = b.tcp_rst_ack(10, 11);
        assert!(ra.tcp().unwrap().flags.contains(TcpFlags::RST | TcpFlags::ACK));
    }

    #[test]
    fn sack_ack_is_a_pure_ack_with_blocks() {
        let b = builder();
        let p = b.tcp_sack_ack(5, 1000, [(2460, 3920)].into());
        let tcp = p.tcp().unwrap();
        assert!(tcp.is_pure_ack());
        assert_eq!(tcp.sack_blocks(), Some([(2460, 3920)].into()));
        // No blocks degenerates to a plain ACK, byte for byte.
        let plain = b.tcp_sack_ack(5, 1000, SackBlocks::new(&[]));
        assert_eq!(plain.to_bytes(), b.tcp_ack(5, 1000).to_bytes());
    }

    #[test]
    fn dns_packet_carries_query() {
        let q = DnsMessage::query(42, "api.whatsapp.net");
        let b = PacketBuilder::new(Endpoint::v4(10, 0, 0, 2, 40123), Endpoint::v4(8, 8, 8, 8, 53));
        let p = b.dns(&q);
        let parsed = DnsMessage::parse(&p.udp().unwrap().payload).unwrap();
        assert_eq!(parsed.queried_name(), Some("api.whatsapp.net"));
        assert!(p.udp().unwrap().is_dns());
    }

    #[test]
    fn ipv6_builder_works() {
        let b = PacketBuilder::new(
            Endpoint::new("fe80::2".parse::<std::net::Ipv6Addr>().unwrap(), 40000),
            Endpoint::new("2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap(), 443),
        );
        let p = b.tcp_syn(1);
        let bytes = p.to_bytes();
        let reparsed = crate::view::PacketView::parse(&bytes).unwrap();
        assert_eq!(reparsed.tcp().unwrap().flags(), TcpFlags::SYN);
        assert!(!reparsed.src_endpoint().unwrap().is_ipv4());
    }

    #[test]
    #[should_panic(expected = "mixed address families")]
    fn mixed_families_panic() {
        PacketBuilder::new(
            Endpoint::v4(10, 0, 0, 2, 1),
            Endpoint::new("::1".parse::<std::net::Ipv6Addr>().unwrap(), 2),
        );
    }
}
