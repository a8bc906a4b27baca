//! Zero-copy packet views borrowing from the raw TUN buffer: the crate's
//! one parse path.
//!
//! The relay parses every packet an app writes into the tunnel. The
//! MainWorker only needs to *classify* the segment and borrow its payload
//! long enough to hand the bytes to the socket channel, so nothing here
//! copies: the `*View` types validate the input once, at construction, and
//! then borrow from the input slice. The owned types in [`crate::ipv4`] /
//! [`crate::tcp`] / [`crate::udp`] are for building packets and encoding
//! them (`encode_into`); they have no parser. Every accessor is
//! allocation-free, which is what makes the relay's steady-state loop
//! zero-alloc per packet (see the `zero_alloc` regression test in
//! `mop_bench`).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::checksum::ipv4_header_checksum;
use crate::error::{PacketError, Result};
use crate::ipv4::IPV4_MIN_HEADER_LEN;
use crate::ipv6::IPV6_HEADER_LEN;
use crate::tcp::{TcpFlags, TcpOption, TCP_MIN_HEADER_LEN};
use crate::udp::UDP_HEADER_LEN;
use crate::{Endpoint, FourTuple, IPPROTO_TCP, IPPROTO_UDP};

/// A borrowed, validated IPv4 packet.
///
/// Construction checks the version, the IHL, the total length and the header
/// checksum, so accessors cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    data: &'a [u8],
    header_len: usize,
    total_len: usize,
}

impl<'a> Ipv4View<'a> {
    /// Validates `data` as an IPv4 packet and borrows it.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self> {
        if data.len() < IPV4_MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "IPv4 header",
                needed: IPV4_MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(PacketError::BadVersion(version));
        }
        let header_len = usize::from(data[0] & 0x0f) * 4;
        if header_len < IPV4_MIN_HEADER_LEN || header_len > data.len() {
            return Err(PacketError::BadHeaderLength(header_len));
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < header_len || total_len > data.len() {
            return Err(PacketError::Truncated {
                what: "IPv4 total length",
                needed: total_len.max(header_len),
                available: data.len(),
            });
        }
        // A header whose stored checksum is correct folds to zero when summed
        // whole — one pass, no field skipping. The strict expected value is
        // only recomputed on the (cold) error path for the report.
        let mut c = crate::checksum::Checksum::new();
        c.add_bytes(&data[..header_len]);
        if c.finish() != 0 {
            let expected = ipv4_header_checksum(&data[..header_len]);
            let found = u16::from_be_bytes([data[10], data[11]]);
            return Err(PacketError::BadChecksum { what: "IPv4 header", found, expected });
        }
        Ok(Self { data, header_len, total_len })
    }

    /// Transport protocol number.
    pub fn protocol(&self) -> u8 {
        self.data[9]
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.data[12], self.data[13], self.data[14], self.data[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.data[16], self.data[17], self.data[18], self.data[19])
    }

    /// Transport payload (bounded by the total-length field).
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[self.header_len..self.total_len]
    }
}

/// A borrowed, validated IPv6 packet.
#[derive(Debug, Clone, Copy)]
pub struct Ipv6View<'a> {
    data: &'a [u8],
    payload_len: usize,
}

impl<'a> Ipv6View<'a> {
    /// Validates `data` as an IPv6 packet and borrows it.
    #[inline]
    pub(crate) fn new(data: &'a [u8]) -> Result<Self> {
        if data.len() < IPV6_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "IPv6 header",
                needed: IPV6_HEADER_LEN,
                available: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 6 {
            return Err(PacketError::BadVersion(version));
        }
        let payload_len = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if IPV6_HEADER_LEN + payload_len > data.len() {
            return Err(PacketError::Truncated {
                what: "IPv6 payload",
                needed: IPV6_HEADER_LEN + payload_len,
                available: data.len(),
            });
        }
        Ok(Self { data, payload_len })
    }

    /// Next header (transport protocol).
    pub(crate) fn next_header(&self) -> u8 {
        self.data[6]
    }

    /// Source address.
    pub(crate) fn src(&self) -> Ipv6Addr {
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&self.data[8..24]);
        Ipv6Addr::from(octets)
    }

    /// Destination address.
    pub(crate) fn dst(&self) -> Ipv6Addr {
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&self.data[24..40]);
        Ipv6Addr::from(octets)
    }

    /// Transport payload (bounded by the payload-length field).
    #[inline]
    pub(crate) fn payload(&self) -> &'a [u8] {
        &self.data[IPV6_HEADER_LEN..IPV6_HEADER_LEN + self.payload_len]
    }
}

/// A TCP option borrowed from the segment's option region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOptionRef<'a> {
    /// Maximum segment size (kind 2).
    MaximumSegmentSize(u16),
    /// Window scale shift count (kind 3).
    WindowScale(u8),
    /// Selective acknowledgement permitted (kind 4).
    SackPermitted,
    /// Selective acknowledgement blocks (kind 5). Decoded inline — the
    /// blocks are plain integers, so even the "borrowed" view owns them.
    Sack(crate::tcp::SackBlocks),
    /// Timestamps (kind 8): TSval and TSecr.
    Timestamps(u32, u32),
    /// No-operation padding (kind 1).
    Nop,
    /// Any other option as (kind, borrowed payload).
    Unknown(u8, &'a [u8]),
}

impl TcpOptionRef<'_> {
    /// Copies the borrowed option into an owned [`TcpOption`].
    #[inline]
    pub(crate) fn to_owned(self) -> TcpOption {
        match self {
            TcpOptionRef::MaximumSegmentSize(v) => TcpOption::MaximumSegmentSize(v),
            TcpOptionRef::WindowScale(v) => TcpOption::WindowScale(v),
            TcpOptionRef::SackPermitted => TcpOption::SackPermitted,
            TcpOptionRef::Sack(blocks) => TcpOption::Sack(blocks),
            TcpOptionRef::Timestamps(a, b) => TcpOption::Timestamps(a, b),
            TcpOptionRef::Nop => TcpOption::Nop,
            TcpOptionRef::Unknown(kind, data) => TcpOption::Unknown(kind, data.into()),
        }
    }
}

/// Iterator over the options of a [`TcpSegmentView`].
///
/// The option region is validated when the view is constructed, so iteration
/// is infallible and allocation-free.
#[derive(Debug, Clone)]
pub struct TcpOptionIter<'a> {
    rest: &'a [u8],
}

impl<'a> TcpOptionIter<'a> {
    /// Iterates over an already-validated option region (crate-internal:
    /// [`crate::tcp::TcpOptions`] reuses this decoder for its owned bytes).
    pub(crate) fn over(rest: &'a [u8]) -> Self {
        Self { rest }
    }
}

impl<'a> Iterator for TcpOptionIter<'a> {
    type Item = TcpOptionRef<'a>;

    fn next(&mut self) -> Option<TcpOptionRef<'a>> {
        let (&kind, rest) = self.rest.split_first()?;
        match kind {
            0 => {
                self.rest = &[];
                None
            }
            1 => {
                self.rest = rest;
                Some(TcpOptionRef::Nop)
            }
            _ => {
                // Lengths were validated up front by `TcpSegmentView::new`.
                let len = usize::from(self.rest[1]);
                let body = &self.rest[2..len];
                self.rest = &self.rest[len..];
                Some(match kind {
                    2 if body.len() == 2 => {
                        TcpOptionRef::MaximumSegmentSize(u16::from_be_bytes([body[0], body[1]]))
                    }
                    3 if body.len() == 1 => TcpOptionRef::WindowScale(body[0]),
                    4 if body.is_empty() => TcpOptionRef::SackPermitted,
                    5 if !body.is_empty() && body.len() % 8 == 0 && body.len() <= 32 => {
                        let mut blocks = [(0u32, 0u32); crate::tcp::SackBlocks::MAX];
                        for (i, pair) in body.chunks_exact(8).enumerate() {
                            blocks[i] = (
                                u32::from_be_bytes([pair[0], pair[1], pair[2], pair[3]]),
                                u32::from_be_bytes([pair[4], pair[5], pair[6], pair[7]]),
                            );
                        }
                        TcpOptionRef::Sack(crate::tcp::SackBlocks::new(&blocks[..body.len() / 8]))
                    }
                    8 if body.len() == 8 => TcpOptionRef::Timestamps(
                        u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                        u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                    ),
                    _ => TcpOptionRef::Unknown(kind, body),
                })
            }
        }
    }
}

/// A borrowed, validated TCP segment.
///
/// Construction checks the data offset and walks the full option list, so
/// every accessor (and option iteration) is infallible.
#[derive(Debug, Clone, Copy)]
pub struct TcpSegmentView<'a> {
    data: &'a [u8],
    header_len: usize,
}

impl<'a> TcpSegmentView<'a> {
    /// Validates `data` as a TCP segment and borrows it.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self> {
        if data.len() < TCP_MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "TCP header",
                needed: TCP_MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        let header_len = usize::from(data[12] >> 4) * 4;
        if header_len < TCP_MIN_HEADER_LEN || header_len > data.len() {
            return Err(PacketError::BadHeaderLength(header_len));
        }
        // Validate the option region once so iteration never has to.
        crate::tcp::validate_options(&data[TCP_MIN_HEADER_LEN..header_len])?;
        Ok(Self { data, header_len })
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.data[0], self.data[1]])
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.data[2], self.data[3]])
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        u32::from_be_bytes([self.data[4], self.data[5], self.data[6], self.data[7]])
    }

    /// Acknowledgement number.
    pub fn ack(&self) -> u32 {
        u32::from_be_bytes([self.data[8], self.data[9], self.data[10], self.data[11]])
    }

    /// Header flags.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags::from_bits(self.data[13] & 0x3f)
    }

    /// The raw (validated) option region, padding included.
    pub(crate) fn options_bytes(&self) -> &'a [u8] {
        &self.data[TCP_MIN_HEADER_LEN..self.header_len]
    }

    /// Iterates over the parsed options without allocating.
    pub fn options(&self) -> TcpOptionIter<'a> {
        TcpOptionIter { rest: self.options_bytes() }
    }

    /// Application payload.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[self.header_len..]
    }

    /// Returns the MSS option value if present.
    pub fn mss(&self) -> Option<u16> {
        self.options().find_map(|o| match o {
            TcpOptionRef::MaximumSegmentSize(v) => Some(v),
            _ => None,
        })
    }

    /// Returns the selective-acknowledgement blocks if a SACK option (kind 5)
    /// is present.
    pub fn sack_blocks(&self) -> Option<crate::tcp::SackBlocks> {
        self.options().find_map(|o| match o {
            TcpOptionRef::Sack(blocks) => Some(blocks),
            _ => None,
        })
    }
}

/// A borrowed, validated UDP datagram.
#[derive(Debug, Clone, Copy)]
pub struct UdpView<'a> {
    data: &'a [u8],
    length: usize,
}

impl<'a> UdpView<'a> {
    /// Validates `data` as a UDP datagram and borrows it.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self> {
        if data.len() < UDP_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "UDP header",
                needed: UDP_HEADER_LEN,
                available: data.len(),
            });
        }
        let length = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if length < UDP_HEADER_LEN || length > data.len() {
            return Err(PacketError::Truncated {
                what: "UDP length",
                needed: length.max(UDP_HEADER_LEN),
                available: data.len(),
            });
        }
        Ok(Self { data, length })
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.data[0], self.data[1]])
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.data[2], self.data[3]])
    }

    /// Application payload (bounded by the length field).
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[UDP_HEADER_LEN..self.length]
    }
}

/// The network layer of a borrowed packet.
#[derive(Debug, Clone, Copy)]
pub enum IpView<'a> {
    /// A borrowed IPv4 packet.
    V4(Ipv4View<'a>),
    /// A borrowed IPv6 packet.
    V6(Ipv6View<'a>),
}

impl<'a> IpView<'a> {
    /// Source IP address.
    pub(crate) fn src(&self) -> IpAddr {
        match self {
            IpView::V4(v) => IpAddr::V4(v.src()),
            IpView::V6(v) => IpAddr::V6(v.src()),
        }
    }

    /// Destination IP address.
    pub(crate) fn dst(&self) -> IpAddr {
        match self {
            IpView::V4(v) => IpAddr::V4(v.dst()),
            IpView::V6(v) => IpAddr::V6(v.dst()),
        }
    }

    /// Transport protocol number.
    pub(crate) fn protocol(&self) -> u8 {
        match self {
            IpView::V4(v) => v.protocol(),
            IpView::V6(v) => v.next_header(),
        }
    }

    /// Transport payload bytes.
    #[inline]
    pub(crate) fn payload(&self) -> &'a [u8] {
        match self {
            IpView::V4(v) => v.payload(),
            IpView::V6(v) => v.payload(),
        }
    }
}

/// The transport layer of a borrowed packet.
#[derive(Debug, Clone, Copy)]
pub enum TransportView<'a> {
    /// A borrowed TCP segment.
    Tcp(TcpSegmentView<'a>),
    /// A borrowed UDP datagram.
    Udp(UdpView<'a>),
    /// An unsupported transport, borrowed raw.
    Other(u8, &'a [u8]),
}

/// A fully validated, borrowed packet: what the relay's MainWorker parses
/// for every tunnel packet (a [`crate::Packet`] is what it builds).
#[derive(Debug, Clone, Copy)]
pub struct PacketView<'a> {
    ip: IpView<'a>,
    transport: TransportView<'a>,
}

impl<'a> PacketView<'a> {
    /// Parses a raw IP packet without copying.
    ///
    /// The IP version is sniffed from the first nibble, TCP/UDP transports
    /// are fully validated, unknown transports are kept raw.
    #[inline]
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let first = *data.first().ok_or(PacketError::Truncated {
            what: "IP packet",
            needed: 1,
            available: 0,
        })?;
        let ip = match first >> 4 {
            4 => IpView::V4(Ipv4View::new(data)?),
            6 => IpView::V6(Ipv6View::new(data)?),
            v => return Err(PacketError::BadVersion(v)),
        };
        let payload = ip.payload();
        let transport = match ip.protocol() {
            IPPROTO_TCP => TransportView::Tcp(TcpSegmentView::new(payload)?),
            IPPROTO_UDP => TransportView::Udp(UdpView::new(payload)?),
            other => TransportView::Other(other, payload),
        };
        Ok(Self { ip, transport })
    }

    /// The transport layer.
    pub fn transport(&self) -> &TransportView<'a> {
        &self.transport
    }

    /// Returns the TCP segment view if this is a TCP packet.
    pub fn tcp(&self) -> Option<&TcpSegmentView<'a>> {
        match &self.transport {
            TransportView::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// The source endpoint, if the transport has ports.
    #[inline]
    pub fn src_endpoint(&self) -> Option<Endpoint> {
        let port = match &self.transport {
            TransportView::Tcp(t) => t.src_port(),
            TransportView::Udp(u) => u.src_port(),
            TransportView::Other(..) => return None,
        };
        Some(Endpoint::new(self.ip.src(), port))
    }

    /// The destination endpoint, if the transport has ports.
    #[inline]
    pub fn dst_endpoint(&self) -> Option<Endpoint> {
        let port = match &self.transport {
            TransportView::Tcp(t) => t.dst_port(),
            TransportView::Udp(u) => u.dst_port(),
            TransportView::Other(..) => return None,
        };
        Some(Endpoint::new(self.ip.dst(), port))
    }

    /// The connection four-tuple, if the transport has ports.
    #[inline]
    pub fn four_tuple(&self) -> Option<FourTuple> {
        Some(FourTuple::new(self.src_endpoint()?, self.dst_endpoint()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ipv4::Ipv4Packet;
    use crate::packet::{IpPacket, Packet, Transport};
    use crate::tcp::TcpSegment;

    fn builder() -> PacketBuilder {
        PacketBuilder::new(
            Endpoint::v4(10, 0, 0, 2, 40000),
            Endpoint::v4(216, 58, 221, 132, 443),
        )
    }

    #[test]
    fn tcp_view_agrees_with_the_encoded_segment() {
        let packet = builder().tcp_syn(12345);
        let bytes = packet.to_bytes();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(view.four_tuple(), packet.four_tuple());
        let tv = view.tcp().unwrap();
        let to = packet.tcp().unwrap();
        assert_eq!((tv.seq(), tv.ack(), tv.flags()), (to.seq, to.ack, to.flags));
        assert_eq!(tv.mss(), to.mss());
        let options: crate::tcp::TcpOptions = tv.options().map(|o| o.to_owned()).collect();
        assert_eq!(options, to.options);
        assert_eq!(tv.payload().len(), usize::from(to.payload_len));
    }

    #[test]
    fn udp_view_borrows_payload() {
        let bytes = builder().udp(b"hello".to_vec()).to_bytes();
        let view = PacketView::parse(&bytes).unwrap();
        let TransportView::Udp(udp) = view.transport() else { panic!("not UDP") };
        assert_eq!(udp.payload(), b"hello");
        assert_eq!((udp.src_port(), udp.dst_port()), (40000, 443));
    }

    #[test]
    fn other_transport_is_borrowed_raw() {
        let ip = Ipv4Packet::new(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 1), 47);
        let bytes =
            Packet::from_parts(IpPacket::V4(ip), Transport::Other(47, vec![1, 2, 3, 4])).to_bytes();
        let view = PacketView::parse(&bytes).unwrap();
        assert!(matches!(view.transport(), TransportView::Other(47, raw) if *raw == [1, 2, 3, 4]));
        assert!(view.four_tuple().is_none());
    }

    #[test]
    fn view_rejects_what_owned_parse_rejects() {
        assert!(PacketView::parse(&[]).is_err());
        let mut bytes = builder().tcp_syn(1).to_bytes();
        bytes[10] ^= 0xff; // Corrupt the IPv4 header checksum.
        assert!(matches!(
            PacketView::parse(&bytes),
            Err(PacketError::BadChecksum { what: "IPv4 header", .. })
        ));
    }

    #[test]
    fn option_iterator_stops_at_end_of_list() {
        // Hand-build an options region: MSS, then EOL, then junk padding.
        let mut seg = TcpSegment::new(1, 2, 0, 0, TcpFlags::SYN);
        seg.options = [TcpOption::MaximumSegmentSize(1400)].into();
        let mut bytes = Vec::new();
        seg.encode_into(&mut bytes);
        let view = TcpSegmentView::new(&bytes).unwrap();
        let opts: Vec<_> = view.options().collect();
        assert_eq!(opts, vec![TcpOptionRef::MaximumSegmentSize(1400)]);
    }

    use std::net::Ipv4Addr;
}
