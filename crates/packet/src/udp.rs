//! UDP datagram parsing and serialisation.
//!
//! MopEye relays all UDP traffic but only *measures* DNS (§2.2); the datagram
//! layer here carries both.

use std::net::IpAddr;

use crate::checksum::{transport_checksum_v4, transport_checksum_v6};

/// UDP header length in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A parsed UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        Self { src_port, dst_port, payload }
    }

    /// Returns true if either port is the DNS port (53).
    #[cfg(test)]
    pub(crate) fn is_dns(&self) -> bool {
        self.src_port == 53 || self.dst_port == 53
    }

    /// Total datagram length (header plus payload).
    pub(crate) fn len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Appends the serialised datagram (zero checksum) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&(self.len() as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]); // Checksum placeholder.
        out.extend_from_slice(&self.payload);
    }

    /// Appends the serialised datagram to `out` and patches in the
    /// pseudo-header checksum.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are not the same IP version.
    pub fn encode_with_checksum_into(&self, src: IpAddr, dst: IpAddr, out: &mut Vec<u8>) {
        let start = out.len();
        self.encode_into(out);
        let checksum = match (src, dst) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                transport_checksum_v4(s, d, crate::IPPROTO_UDP, &out[start..])
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                transport_checksum_v6(s, d, crate::IPPROTO_UDP, &out[start..])
            }
            _ => panic!("mixed address families in UDP checksum"),
        };
        out[start + 6..start + 8].copy_from_slice(&checksum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::UdpView;
    use std::net::Ipv4Addr;

    fn wire(d: &UdpDatagram) -> Vec<u8> {
        let mut out = Vec::new();
        d.encode_into(&mut out);
        out
    }

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(40001, 53, vec![0xde, 0xad, 0xbe, 0xef]);
        let bytes = wire(&d);
        assert_eq!(bytes.len(), d.len());
        assert_eq!(d.len(), 12);
        let v = UdpView::new(&bytes).unwrap();
        assert_eq!((v.src_port(), v.dst_port()), (40001, 53));
        assert_eq!(v.payload(), &d.payload[..]);
        assert!(d.is_dns());
    }

    #[test]
    fn non_dns_ports() {
        let d = UdpDatagram::new(40001, 4500, vec![]);
        assert!(!d.is_dns());
        assert_eq!(d.len(), UDP_HEADER_LEN);
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let d = UdpDatagram::new(1, 2, vec![1, 2, 3]);
        let mut bytes = wire(&d);
        bytes.extend_from_slice(&[0xff; 4]);
        assert_eq!(UdpView::new(&bytes).unwrap().payload(), &[1, 2, 3]);
    }

    #[test]
    fn truncated_is_rejected() {
        assert!(UdpView::new(&[0; 4]).is_err());
        let d = UdpDatagram::new(1, 2, vec![1, 2, 3]);
        let mut bytes = wire(&d);
        bytes[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert!(UdpView::new(&bytes).is_err());
    }

    #[test]
    fn checksum_is_nonzero() {
        let d = UdpDatagram::new(40001, 53, vec![1, 2, 3]);
        let mut bytes = Vec::new();
        d.encode_with_checksum_into(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)),
            &mut bytes,
        );
        assert_ne!(&bytes[6..8], &[0, 0]);
    }
}
