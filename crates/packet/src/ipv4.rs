//! IPv4 header parsing and serialisation.

use std::net::Ipv4Addr;

use crate::checksum::ipv4_header_checksum;

/// Minimum IPv4 header length in bytes (no options).
pub const IPV4_MIN_HEADER_LEN: usize = 20;

/// The IPv4 header of a packet to build: its fields and options. The
/// transport layer is held beside it (`Packet::transport`) and encoded
/// straight after the header, so the network layer carries no payload of
/// its own.
///
/// Options are written verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Differentiated services / TOS byte.
    pub dscp_ecn: u8,
    /// Identification field used for fragmentation.
    pub identification: u16,
    /// Flags (3 bits) and fragment offset (13 bits) packed as on the wire.
    pub flags_fragment: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Raw IPv4 options (may be empty); length must be a multiple of 4.
    pub options: Vec<u8>,
}

impl Ipv4Packet {
    /// Creates a packet with common defaults (TTL 64, DF set, no options).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8) -> Self {
        Self {
            dscp_ecn: 0,
            identification: 0,
            flags_fragment: 0x4000, // Don't Fragment.
            ttl: 64,
            protocol,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Header length in bytes, including options.
    pub(crate) fn header_len(&self) -> usize {
        IPV4_MIN_HEADER_LEN + self.options.len()
    }

    /// Appends the IPv4 header (with checksum) to `out`, declaring a payload
    /// of `payload_len` bytes that the caller will write after it.
    ///
    /// This is the zero-copy building block: a composed packet writes the
    /// header first and serialises the transport layer straight after it in
    /// the same buffer, so no intermediate payload vector exists.
    ///
    /// # Panics
    ///
    /// Panics if the options length is not a multiple of four or the total
    /// length exceeds 65,535 bytes; both indicate construction bugs rather
    /// than recoverable runtime conditions.
    pub(crate) fn encode_header_into(&self, out: &mut Vec<u8>, payload_len: usize) {
        assert!(self.options.len() % 4 == 0, "IPv4 options must be 32-bit aligned");
        let ihl = self.header_len();
        let total_len = ihl + payload_len;
        assert!(total_len <= usize::from(u16::MAX), "IPv4 packet too large");
        out.reserve(total_len);
        let start = out.len();
        out.push(0x40 | ((ihl / 4) as u8));
        out.push(self.dscp_ecn);
        out.extend_from_slice(&(total_len as u16).to_be_bytes());
        out.extend_from_slice(&self.identification.to_be_bytes());
        out.extend_from_slice(&self.flags_fragment.to_be_bytes());
        out.push(self.ttl);
        out.push(self.protocol);
        out.extend_from_slice(&[0, 0]); // Checksum placeholder.
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&self.options);
        let checksum = ipv4_header_checksum(&out[start..start + ihl]);
        out[start + 10..start + 12].copy_from_slice(&checksum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PacketError;
    use crate::view::Ipv4View;
    use crate::IPPROTO_TCP;

    /// The transport bytes every test packet carries after its header.
    const PAYLOAD: [u8; 5] = [1, 2, 3, 4, 5];

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(216, 58, 221, 132), IPPROTO_TCP)
    }

    /// The packet on the wire: its header, then [`PAYLOAD`].
    fn wire(p: &Ipv4Packet) -> Vec<u8> {
        let mut out = Vec::new();
        p.encode_header_into(&mut out, PAYLOAD.len());
        out.extend_from_slice(&PAYLOAD);
        out
    }

    fn assert_reads_back(p: &Ipv4Packet, v: &Ipv4View<'_>) {
        assert_eq!((v.src(), v.dst(), v.protocol()), (p.src, p.dst, p.protocol));
        assert_eq!(v.payload(), &PAYLOAD[..]);
    }

    #[test]
    fn roundtrip_without_options() {
        let p = sample();
        let bytes = wire(&p);
        assert_eq!(bytes.len(), 25);
        assert_reads_back(&p, &Ipv4View::new(&bytes).unwrap());
    }

    #[test]
    fn roundtrip_with_options() {
        let mut p = sample();
        p.options = vec![0x01, 0x01, 0x01, 0x01]; // Four NOPs.
        assert_eq!(p.header_len(), 24);
        let bytes = wire(&p);
        assert_eq!(bytes[0] & 0x0f, 6, "IHL counts the options");
        assert_reads_back(&p, &Ipv4View::new(&bytes).unwrap());
    }

    #[test]
    fn trailing_padding_is_ignored() {
        let p = sample();
        let mut bytes = wire(&p);
        bytes.extend_from_slice(&[0xaa; 6]);
        assert_eq!(Ipv4View::new(&bytes).unwrap().payload(), &PAYLOAD[..]);
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut bytes = wire(&sample());
        bytes[10] ^= 0xff;
        assert!(matches!(
            Ipv4View::new(&bytes),
            Err(PacketError::BadChecksum { what: "IPv4 header", .. })
        ));
    }

    #[test]
    fn short_buffer_is_rejected() {
        assert!(matches!(
            Ipv4View::new(&[0x45; 10]),
            Err(PacketError::Truncated { what: "IPv4 header", .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = wire(&sample());
        bytes[0] = 0x65;
        assert!(matches!(Ipv4View::new(&bytes), Err(PacketError::BadVersion(6))));
    }

    #[test]
    fn bad_ihl_is_rejected() {
        let mut bytes = wire(&sample());
        bytes[0] = 0x44; // IHL of 16 bytes, below the minimum of 20.
        assert!(matches!(Ipv4View::new(&bytes), Err(PacketError::BadHeaderLength(16))));
    }

    #[test]
    fn total_length_larger_than_buffer_is_rejected() {
        let mut bytes = wire(&sample());
        bytes[2..4].copy_from_slice(&1000u16.to_be_bytes());
        // Fix up the checksum so the failure is attributed to the length.
        let ihl = 20;
        let cks = ipv4_header_checksum(&bytes[..ihl]);
        bytes[10..12].copy_from_slice(&cks.to_be_bytes());
        assert!(matches!(Ipv4View::new(&bytes), Err(PacketError::Truncated { .. })));
    }

    #[test]
    fn default_flags() {
        let p = sample();
        assert_eq!(p.flags_fragment, 0x4000, "Don't Fragment set, More Fragments clear");
        assert_eq!(p.ttl, 64);
    }
}
