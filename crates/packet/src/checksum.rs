//! Internet checksum (RFC 1071) helpers used by the IPv4, TCP and UDP codecs.

use std::net::{Ipv4Addr, Ipv6Addr};

/// Accumulates 16-bit one's-complement sums incrementally.
///
/// The TUN relay recomputes checksums for every packet it rewrites, so this is
/// kept allocation-free and branch-light.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a byte slice to the running sum.
    ///
    /// Odd-length slices are padded with a trailing zero byte, matching the
    /// RFC 1071 treatment of the final odd octet. Eight bytes are folded per
    /// iteration — this sits on the per-packet encode/verify path, so the
    /// inner loop matters.
    #[inline]
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut wide = data.chunks_exact(8);
        for c in &mut wide {
            self.sum += u32::from(u16::from_be_bytes([c[0], c[1]]))
                + u32::from(u16::from_be_bytes([c[2], c[3]]))
                + u32::from(u16::from_be_bytes([c[4], c[5]]))
                + u32::from(u16::from_be_bytes([c[6], c[7]]));
        }
        let mut chunks = wide.remainder().chunks_exact(2);
        for chunk in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Adds a single big-endian 16-bit word.
    #[inline]
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Adds a 32-bit value as two 16-bit words.
    #[inline]
    pub(crate) fn add_u32(&mut self, word: u32) {
        self.add_u16((word >> 16) as u16);
        self.add_u16((word & 0xffff) as u16);
    }

    /// Folds the accumulator and returns the one's-complement checksum.
    #[inline]
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Computes the IPv4 header checksum over `header` with the checksum field
/// (bytes 10..12) treated as zero.
#[inline]
pub(crate) fn ipv4_header_checksum(header: &[u8]) -> u16 {
    let mut c = Checksum::new();
    if header.len() >= 12 {
        // Two straight runs around the checksum field — no per-word branch.
        c.add_bytes(&header[..10]);
        c.add_bytes(&header[12..]);
    } else {
        // Degenerate short input (only reachable from tests): skip word 5.
        for (i, chunk) in header.chunks(2).enumerate() {
            if i != 5 {
                c.add_bytes(chunk);
            }
        }
    }
    c.finish()
}

/// Computes a TCP/UDP checksum with the IPv4 pseudo-header.
#[inline]
pub(crate) fn transport_checksum_v4(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &[u8],
) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u16(u16::from(protocol));
    c.add_u16(segment.len() as u16);
    c.add_bytes(segment);
    match c.finish() {
        // An all-zero UDP checksum means "no checksum"; RFC 768 maps it to 0xffff.
        0 => 0xffff,
        other => other,
    }
}

/// Computes a TCP/UDP checksum with the IPv6 pseudo-header.
#[inline]
pub(crate) fn transport_checksum_v6(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    protocol: u8,
    segment: &[u8],
) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u32(segment.len() as u32);
    c.add_u32(u32::from(protocol));
    c.add_bytes(segment);
    match c.finish() {
        0 => 0xffff,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Example from RFC 1071 §3: the header 45 00 00 73 00 00 40 00 40 11
    // b8 61 c0 a8 00 01 c0 a8 00 c7 checksums to 0xb861.
    #[test]
    fn rfc1071_reference_header() {
        let header: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(ipv4_header_checksum(&header), 0xb861);
    }

    #[test]
    fn verifying_a_correct_header_gives_zero_fold() {
        let mut header: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0xb8, 0x61, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        // Recomputing over a header whose checksum field already holds the
        // correct value (and is skipped) yields the same value back.
        assert_eq!(ipv4_header_checksum(&header), 0xb861);
        // Summing the full header including the checksum folds to zero.
        let mut c = Checksum::new();
        c.add_bytes(&header);
        assert_eq!(c.finish(), 0);
        header[11] = 0x62;
        let mut c = Checksum::new();
        c.add_bytes(&header);
        assert_ne!(c.finish(), 0);
    }

    #[test]
    fn odd_length_payload_is_padded() {
        let mut a = Checksum::new();
        a.add_bytes(&[0x01, 0x02, 0x03]);
        let mut b = Checksum::new();
        b.add_bytes(&[0x01, 0x02, 0x03, 0x00]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn udp_zero_checksum_is_mapped() {
        // Craft a segment whose sum folds to 0xffff so finish() returns 0
        // before mapping; the pseudo-header helper must return 0xffff.
        let src = Ipv4Addr::new(0, 0, 0, 0);
        let dst = Ipv4Addr::new(0, 0, 0, 0);
        // Any segment works for exercising the mapping branch indirectly; just
        // assert the function never returns zero.
        for len in 0..8 {
            let seg = vec![0u8; len];
            assert_ne!(transport_checksum_v4(src, dst, 17, &seg), 0);
        }
    }

    #[test]
    fn v6_checksum_differs_from_v4() {
        let seg = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let v4 =
            transport_checksum_v4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 6, &seg);
        let v6 = transport_checksum_v6(
            Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1),
            Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 2),
            6,
            &seg,
        );
        assert_ne!(v4, v6);
    }

    #[test]
    fn add_u32_equals_two_u16() {
        let mut a = Checksum::new();
        a.add_u32(0x1234_5678);
        let mut b = Checksum::new();
        b.add_u16(0x1234);
        b.add_u16(0x5678);
        assert_eq!(a.finish(), b.finish());
    }
}
