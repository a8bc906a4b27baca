//! IPv6 header parsing and serialisation.
//!
//! MopEye reads `/proc/net/tcp6` as well as `/proc/net/tcp`, and modern
//! handsets carry a growing share of IPv6 traffic, so the relay understands
//! both network layers. Extension headers are not interpreted: a packet whose
//! next-header is not TCP or UDP is still parsed and can be forwarded opaquely.

use std::net::Ipv6Addr;

/// Fixed IPv6 header length in bytes.
pub const IPV6_HEADER_LEN: usize = 40;

/// The fixed IPv6 header of a packet to build. Like
/// [`crate::ipv4::Ipv4Packet`], it carries no payload: the transport layer
/// beside it is encoded straight after the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Packet {
    /// Traffic class byte.
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Next header (transport protocol for packets without extension headers).
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
}

impl Ipv6Packet {
    /// Creates a packet with common defaults (hop limit 64, zero flow label).
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8) -> Self {
        Self { traffic_class: 0, flow_label: 0, next_header, hop_limit: 64, src, dst }
    }

    /// Appends the IPv6 fixed header to `out`, declaring a payload of
    /// `payload_len` bytes that the caller will write after it.
    ///
    /// # Panics
    ///
    /// Panics if `payload_len` exceeds 65,535 bytes (jumbograms are not
    /// supported) or the flow label exceeds 20 bits.
    pub(crate) fn encode_header_into(&self, out: &mut Vec<u8>, payload_len: usize) {
        assert!(payload_len <= usize::from(u16::MAX), "IPv6 payload too large");
        assert!(self.flow_label <= 0x000f_ffff, "flow label exceeds 20 bits");
        out.reserve(IPV6_HEADER_LEN + payload_len);
        out.push(0x60 | (self.traffic_class >> 4));
        out.push(((self.traffic_class & 0x0f) << 4) | ((self.flow_label >> 16) as u8));
        out.push((self.flow_label >> 8) as u8);
        out.push(self.flow_label as u8);
        out.extend_from_slice(&(payload_len as u16).to_be_bytes());
        out.push(self.next_header);
        out.push(self.hop_limit);
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PacketError;
    use crate::view::Ipv6View;
    use crate::IPPROTO_UDP;

    /// The transport bytes every test packet carries after its header.
    const PAYLOAD: [u8; 3] = [9, 8, 7];

    fn sample() -> Ipv6Packet {
        Ipv6Packet::new(
            "fe80::1".parse().unwrap(),
            "2001:4860:4860::8888".parse().unwrap(),
            IPPROTO_UDP,
        )
    }

    /// The packet on the wire: its header, then [`PAYLOAD`].
    fn wire(p: &Ipv6Packet) -> Vec<u8> {
        let mut out = Vec::new();
        p.encode_header_into(&mut out, PAYLOAD.len());
        out.extend_from_slice(&PAYLOAD);
        out
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let bytes = wire(&p);
        let v = Ipv6View::new(&bytes).unwrap();
        assert_eq!((v.src(), v.dst(), v.next_header()), (p.src, p.dst, p.next_header));
        assert_eq!(v.payload(), &PAYLOAD[..]);
    }

    #[test]
    fn roundtrip_with_traffic_class_and_flow_label() {
        let mut p = sample();
        p.traffic_class = 0xb8;
        p.flow_label = 0xabcde;
        let bytes = wire(&p);
        let word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        assert_eq!(word >> 28, 6);
        assert_eq!((word >> 20) & 0xff, 0xb8);
        assert_eq!(word & 0xf_ffff, 0xabcde);
        assert_eq!(Ipv6View::new(&bytes).unwrap().payload(), &PAYLOAD[..]);
    }

    #[test]
    fn short_buffer_is_rejected() {
        assert!(matches!(Ipv6View::new(&[0x60; 20]), Err(PacketError::Truncated { .. })));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = wire(&sample());
        bytes[0] = 0x45;
        assert!(matches!(Ipv6View::new(&bytes), Err(PacketError::BadVersion(4))));
    }

    #[test]
    fn payload_length_beyond_buffer_is_rejected() {
        let mut bytes = wire(&sample());
        bytes[4..6].copy_from_slice(&500u16.to_be_bytes());
        assert!(matches!(Ipv6View::new(&bytes), Err(PacketError::Truncated { .. })));
    }

    #[test]
    fn trailing_padding_is_ignored() {
        let p = sample();
        let mut bytes = wire(&p);
        bytes.extend_from_slice(&[0u8; 13]);
        assert_eq!(Ipv6View::new(&bytes).unwrap().payload(), &PAYLOAD[..]);
    }
}
