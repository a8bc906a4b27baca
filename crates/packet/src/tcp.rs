//! TCP segment parsing and serialisation, including the options MopEye
//! manipulates (MSS and window scale, §3.4 of the paper).
//!
//! # A payload is its length
//!
//! An owned [`TcpSegment`] carries its payload as a byte count, not as
//! bytes. Nothing downstream of the tunnel reads TCP payload content: the
//! relay counts bytes towards its socket, the app endpoints count bytes they
//! reassemble, and every per-byte cost is charged in virtual time by the
//! cost model. So a segment built from server data, kept on the sender
//! scoreboard or parked on its way to an app is header-sized, and copying it
//! copies no payload. The bytes exist only on the tunnel: encoding writes
//! [`TcpSegment::payload_len`] bytes of [`PAYLOAD_FILLER`] after the header,
//! so the tunnel carries full-size packets with valid checksums. Parsing
//! stays zero-copy over those bytes ([`crate::view::TcpSegmentView`]).
//! UDP keeps real bytes: DNS is the one protocol whose content is read.

use std::net::IpAddr;

use crate::checksum::{transport_checksum_v4, transport_checksum_v6};
use crate::error::{PacketError, Result};

/// Minimum TCP header length in bytes (no options).
pub const TCP_MIN_HEADER_LEN: usize = 20;

/// The MSS MopEye advertises on the internal (tunnel) connection so that apps
/// send 1500-byte IP packets (§3.4).
pub const MOPEYE_MSS: u16 = 1460;

/// The receive window MopEye advertises: the maximum unscaled value (§3.4).
pub const MOPEYE_RECEIVE_WINDOW: u16 = 65_535;

/// The byte an encoded TCP payload is made of: the simulated apps' request
/// filler (`'G'`), written for relayed server data too, since no reader of
/// the tunnel looks at TCP payload content.
pub const PAYLOAD_FILLER: u8 = 0x47;

/// Anything a TCP payload can be given as: a byte count, or bytes that are
/// read only for their length (see the [module docs](self)).
pub trait PayloadLen {
    /// The payload length in bytes.
    fn payload_len(&self) -> usize;
}

impl PayloadLen for usize {
    fn payload_len(&self) -> usize {
        *self
    }
}

impl PayloadLen for Vec<u8> {
    fn payload_len(&self) -> usize {
        self.len()
    }
}

impl<T: AsRef<[u8]> + ?Sized> PayloadLen for &T {
    fn payload_len(&self) -> usize {
        (*self).as_ref().len()
    }
}

/// TCP header flags, represented as a transparent bit set.
///
/// A hand-rolled flags type is used instead of the `bitflags` crate to keep
/// the dependency set to the pre-approved list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: sender has finished sending.
    pub const FIN: Self = Self(0x01);
    /// SYN: synchronise sequence numbers.
    pub const SYN: Self = Self(0x02);
    /// RST: reset the connection.
    pub const RST: Self = Self(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: Self = Self(0x08);
    /// ACK: the acknowledgement number is valid.
    pub const ACK: Self = Self(0x10);
    /// URG: the urgent pointer is valid.
    pub const URG: Self = Self(0x20);

    /// Returns the raw bits.
    pub(crate) const fn bits(self) -> u8 {
        self.0
    }

    /// Constructs a flag set from raw bits (unknown bits are kept).
    pub const fn from_bits(bits: u8) -> Self {
        Self(bits)
    }

    /// Returns true if `self` contains all flags in `other`.
    pub const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for TcpFlags {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        Self(self.0 & rhs.0)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        for (flag, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(flag) {
                parts.push(name);
            }
        }
        if parts.is_empty() {
            write!(f, "<none>")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// Inline storage for an unknown TCP option's body.
///
/// A TCP header holds at most 40 option bytes, so an unknown option's body
/// never exceeds 38 bytes. Storing it inline (SmallVec-style) keeps option
/// parsing free of per-option heap allocations — the `to_vec()` the old
/// `Unknown(u8, Vec<u8>)` representation paid on every exotic SYN.
#[derive(Clone, Copy)]
pub struct OptBytes {
    data: [u8; Self::MAX],
    len: u8,
}

impl OptBytes {
    /// Maximum bytes an unknown option body can occupy (40 minus kind+length).
    pub const MAX: usize = 38;

    /// Copies `bytes` into inline storage.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`OptBytes::MAX`] — impossible for data that
    /// came off the wire, and a construction bug otherwise.
    pub(crate) fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= Self::MAX, "TCP option body exceeds 38 bytes");
        let mut data = [0u8; Self::MAX];
        data[..bytes.len()].copy_from_slice(bytes);
        Self { data, len: bytes.len() as u8 }
    }

    /// The stored bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.data[..usize::from(self.len)]
    }

    /// Number of stored bytes.
    pub(crate) fn len(&self) -> usize {
        usize::from(self.len)
    }
}

impl std::ops::Deref for OptBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for OptBytes {
    fn from(bytes: &[u8]) -> Self {
        Self::new(bytes)
    }
}

impl From<Vec<u8>> for OptBytes {
    fn from(bytes: Vec<u8>) -> Self {
        Self::new(&bytes)
    }
}

impl<const N: usize> From<[u8; N]> for OptBytes {
    fn from(bytes: [u8; N]) -> Self {
        Self::new(&bytes)
    }
}

impl PartialEq for OptBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OptBytes {}

impl std::hash::Hash for OptBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for OptBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Inline storage for the `(left edge, right edge)` blocks of a selective
/// acknowledgement (kind 5) option.
///
/// RFC 2018 caps the option at four blocks (2 + 8·4 = 34 bytes, within the
/// 40-byte option budget), so the blocks always fit inline and
/// [`TcpOption`] stays `Copy` — the same SmallVec-style trade as
/// [`OptBytes`]. Each block is `[left, right)`: `left` is the first sequence
/// number of the sacked run and `right` the sequence number just past it.
#[derive(Clone, Copy)]
pub struct SackBlocks {
    blocks: [(u32, u32); Self::MAX],
    len: u8,
}

impl SackBlocks {
    /// Maximum blocks a SACK option can carry (RFC 2018).
    pub const MAX: usize = 4;

    /// Copies up to [`SackBlocks::MAX`] blocks into inline storage.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` exceeds [`SackBlocks::MAX`] — impossible for data
    /// that came off the wire, and a construction bug otherwise.
    pub fn new(blocks: &[(u32, u32)]) -> Self {
        assert!(blocks.len() <= Self::MAX, "SACK option exceeds 4 blocks");
        let mut data = [(0u32, 0u32); Self::MAX];
        data[..blocks.len()].copy_from_slice(blocks);
        Self { blocks: data, len: blocks.len() as u8 }
    }

    /// The stored blocks.
    pub fn as_slice(&self) -> &[(u32, u32)] {
        &self.blocks[..usize::from(self.len)]
    }

    /// Number of stored blocks.
    pub(crate) fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True if no blocks are stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for SackBlocks {
    type Target = [(u32, u32)];
    fn deref(&self) -> &[(u32, u32)] {
        self.as_slice()
    }
}

impl From<&[(u32, u32)]> for SackBlocks {
    fn from(blocks: &[(u32, u32)]) -> Self {
        Self::new(blocks)
    }
}

impl<const N: usize> From<[(u32, u32); N]> for SackBlocks {
    fn from(blocks: [(u32, u32); N]) -> Self {
        Self::new(&blocks)
    }
}

impl PartialEq for SackBlocks {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SackBlocks {}

impl std::hash::Hash for SackBlocks {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for SackBlocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// TCP options relevant to the relay. Unknown options are preserved raw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2).
    MaximumSegmentSize(u16),
    /// Window scale shift count (kind 3).
    WindowScale(u8),
    /// Selective acknowledgement permitted (kind 4).
    SackPermitted,
    /// Selective acknowledgement (kind 5): received-but-not-contiguous
    /// sequence ranges, newest first.
    Sack(SackBlocks),
    /// Timestamps (kind 8): TSval and TSecr.
    Timestamps(u32, u32),
    /// No-operation padding (kind 1).
    Nop,
    /// Any other option preserved as (kind, payload) with inline storage.
    Unknown(u8, OptBytes),
}

/// The option list of a segment, stored as canonical wire bytes inline.
///
/// A TCP header carries at most [`TcpOptions::MAX_BYTES`] option bytes, so
/// the whole list always fits in a 40-byte inline buffer: option parsing and
/// construction never touch the heap, and serialisation is a single memcpy.
/// Options decode on demand through `TcpOptions::iter`; every supported
/// option has exactly one wire encoding, so byte equality coincides with
/// option-list equality.
#[derive(Clone, Copy)]
pub struct TcpOptions {
    data: [u8; Self::MAX_BYTES],
    len: u8,
}

impl TcpOptions {
    /// The spec bound: a TCP header holds at most 40 option bytes.
    pub const MAX_BYTES: usize = 40;

    /// Creates an empty list.
    pub(crate) const fn new() -> Self {
        Self { data: [0; Self::MAX_BYTES], len: 0 }
    }

    /// Appends an option, storing its canonical wire encoding.
    ///
    /// # Panics
    ///
    /// Panics if the list would exceed the 40-byte spec bound.
    pub(crate) fn push(&mut self, opt: TcpOption) {
        let start = usize::from(self.len);
        let needed = opt.wire_len();
        assert!(start + needed <= Self::MAX_BYTES, "TCP options exceed 40 bytes");
        let out = &mut self.data[start..start + needed];
        match opt {
            TcpOption::Nop => out[0] = 1,
            TcpOption::MaximumSegmentSize(mss) => {
                out[0] = 2;
                out[1] = 4;
                out[2..4].copy_from_slice(&mss.to_be_bytes());
            }
            TcpOption::WindowScale(shift) => {
                out[0] = 3;
                out[1] = 3;
                out[2] = shift;
            }
            TcpOption::SackPermitted => {
                out[0] = 4;
                out[1] = 2;
            }
            TcpOption::Sack(blocks) => {
                out[0] = 5;
                out[1] = (2 + 8 * blocks.len()) as u8;
                for (i, (left, right)) in blocks.as_slice().iter().enumerate() {
                    out[2 + 8 * i..6 + 8 * i].copy_from_slice(&left.to_be_bytes());
                    out[6 + 8 * i..10 + 8 * i].copy_from_slice(&right.to_be_bytes());
                }
            }
            TcpOption::Timestamps(tsval, tsecr) => {
                out[0] = 8;
                out[1] = 10;
                out[2..6].copy_from_slice(&tsval.to_be_bytes());
                out[6..10].copy_from_slice(&tsecr.to_be_bytes());
            }
            TcpOption::Unknown(kind, body) => {
                out[0] = kind;
                out[1] = (body.len() + 2) as u8;
                out[2..].copy_from_slice(body.as_slice());
            }
        }
        self.len += needed as u8;
    }

    /// The canonical wire bytes of the list (no padding).
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.data[..usize::from(self.len)]
    }

    /// Serialised length of the list in bytes, before word padding.
    pub(crate) fn byte_len(&self) -> usize {
        usize::from(self.len)
    }

    /// Decodes the options in wire order.
    pub(crate) fn iter(&self) -> TcpOptionsIter<'_> {
        TcpOptionsIter { inner: crate::view::TcpOptionIter::over(self.as_bytes()) }
    }
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for TcpOptions {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for TcpOptions {}

impl std::hash::Hash for TcpOptions {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl std::fmt::Debug for TcpOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<TcpOption>> for TcpOptions {
    fn from(options: Vec<TcpOption>) -> Self {
        options.into_iter().collect()
    }
}

impl<const N: usize> From<[TcpOption; N]> for TcpOptions {
    fn from(options: [TcpOption; N]) -> Self {
        options.into_iter().collect()
    }
}

impl FromIterator<TcpOption> for TcpOptions {
    fn from_iter<I: IntoIterator<Item = TcpOption>>(iter: I) -> Self {
        let mut list = Self::new();
        for opt in iter {
            list.push(opt);
        }
        list
    }
}

impl<'a> IntoIterator for &'a TcpOptions {
    type Item = TcpOption;
    type IntoIter = TcpOptionsIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Decoding iterator over [`TcpOptions`]. Infallible: the bytes were
/// validated when the list was built. Delegates to the zero-copy
/// [`crate::view::TcpOptionIter`] so there is exactly one option-decode
/// table in the crate.
#[derive(Debug, Clone)]
pub struct TcpOptionsIter<'a> {
    inner: crate::view::TcpOptionIter<'a>,
}

impl Iterator for TcpOptionsIter<'_> {
    type Item = TcpOption;

    fn next(&mut self) -> Option<TcpOption> {
        self.inner.next().map(|o| o.to_owned())
    }
}

impl TcpOption {
    /// Serialised length of this option in bytes.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            TcpOption::MaximumSegmentSize(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Sack(blocks) => 2 + 8 * blocks.len(),
            TcpOption::Timestamps(_, _) => 10,
            TcpOption::Nop => 1,
            TcpOption::Unknown(_, data) => 2 + data.len(),
        }
    }
}

/// A parsed TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receive window (unscaled).
    pub window: u16,
    /// Urgent pointer (rarely used; preserved).
    pub urgent: u16,
    /// Parsed options in wire order (inline storage, no heap for ≤6 options).
    pub options: TcpOptions,
    /// Application payload length in bytes; encoding writes this many bytes
    /// of [`PAYLOAD_FILLER`] (see the [module docs](self)).
    pub payload_len: u16,
}

impl TcpSegment {
    /// Creates a segment with empty options and payload.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        Self {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: MOPEYE_RECEIVE_WINDOW,
            urgent: 0,
            options: TcpOptions::new(),
            payload_len: 0,
        }
    }

    /// Returns the MSS option value if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::MaximumSegmentSize(v) => Some(v),
            _ => None,
        })
    }

    /// Returns the selective-acknowledgement blocks if a SACK option (kind 5)
    /// is present.
    pub fn sack_blocks(&self) -> Option<SackBlocks> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Sack(blocks) => Some(blocks),
            _ => None,
        })
    }

    /// Returns true if this is a SYN/ACK.
    pub fn is_syn_ack(&self) -> bool {
        self.flags.contains(TcpFlags::SYN) && self.flags.contains(TcpFlags::ACK)
    }

    /// Returns true if this is a pure ACK: ACK set, no payload, no SYN/FIN/RST.
    ///
    /// MopEye discards pure ACKs from the tunnel because there is nothing to
    /// relay to the socket channel (§2.3).
    #[cfg(test)]
    pub(crate) fn is_pure_ack(&self) -> bool {
        self.flags.contains(TcpFlags::ACK)
            && self.payload_len == 0
            && (self.flags.bits() & (TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST).bits()) == 0
    }

    /// Header length in bytes including options and padding.
    pub(crate) fn header_len(&self) -> usize {
        TCP_MIN_HEADER_LEN + self.options.byte_len().div_ceil(4) * 4
    }

    /// Total serialised length in bytes (header, options, padding, payload).
    pub(crate) fn wire_len(&self) -> usize {
        self.header_len() + usize::from(self.payload_len)
    }

    /// Appends the serialised segment (zero checksum field) to `out`.
    ///
    /// The buffer is not cleared, so a caller composing an IP packet can
    /// write the network header first and the segment after it. The payload
    /// is [`TcpSegment::payload_len`] bytes of [`PAYLOAD_FILLER`]. With a
    /// warmed, reused buffer this performs no allocations.
    #[inline]
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let header_len = self.header_len();
        out.reserve(self.wire_len());
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(((header_len / 4) as u8) << 4);
        out.push(self.flags.bits() & 0x3f);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // Checksum placeholder.
        out.extend_from_slice(&self.urgent.to_be_bytes());
        out.extend_from_slice(self.options.as_bytes());
        while out.len() - start < header_len {
            out.push(0); // End-of-options padding.
        }
        out.resize(out.len() + usize::from(self.payload_len), PAYLOAD_FILLER);
    }

    /// Appends the serialised segment to `out` and patches in the transport
    /// checksum computed with the pseudo-header for `src`/`dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are not the same IP version.
    #[inline]
    pub(crate) fn encode_with_checksum_into(&self, src: IpAddr, dst: IpAddr, out: &mut Vec<u8>) {
        let start = out.len();
        self.encode_into(out);
        let checksum = match (src, dst) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                transport_checksum_v4(s, d, crate::IPPROTO_TCP, &out[start..])
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                transport_checksum_v6(s, d, crate::IPPROTO_TCP, &out[start..])
            }
            _ => panic!("mixed address families in TCP checksum"),
        };
        out[start + 16..start + 18].copy_from_slice(&checksum.to_be_bytes());
    }
}

/// Validates the option region of a [`crate::view::TcpSegmentView`]: every
/// option before an end-of-list marker must have a length that fits.
pub(crate) fn validate_options(region: &[u8]) -> Result<()> {
    let mut data = region;
    while let Some((&kind, rest)) = data.split_first() {
        match kind {
            0 => break, // End of option list.
            1 => data = rest,
            _ => {
                let (&len, _) = rest.split_first().ok_or(PacketError::Truncated {
                    what: "TCP option length",
                    needed: 2,
                    available: 1,
                })?;
                let len = usize::from(len);
                if len < 2 || len > data.len() {
                    return Err(PacketError::BadHeaderLength(len));
                }
                data = &data[len..];
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{TcpOptionRef, TcpSegmentView};
    use std::net::Ipv4Addr;

    fn syn() -> TcpSegment {
        let mut s = TcpSegment::new(40000, 443, 1000, 0, TcpFlags::SYN);
        s.options = vec![
            TcpOption::MaximumSegmentSize(MOPEYE_MSS),
            TcpOption::SackPermitted,
            TcpOption::Nop,
            TcpOption::WindowScale(7),
        ].into();
        s
    }

    fn wire(s: &TcpSegment) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode_into(&mut out);
        out
    }

    fn options_of(v: &TcpSegmentView<'_>) -> TcpOptions {
        v.options().map(|o| o.to_owned()).collect()
    }

    #[test]
    fn roundtrip_syn_with_options() {
        let s = syn();
        let bytes = wire(&s);
        let parsed = TcpSegmentView::new(&bytes).unwrap();
        assert_eq!(parsed.src_port(), 40000);
        assert_eq!(parsed.mss(), Some(1460));
        assert_eq!(parsed.flags(), TcpFlags::SYN);
        assert_eq!(options_of(&parsed), s.options);
        assert!(!s.is_syn_ack());
    }

    #[test]
    fn roundtrip_data_segment() {
        let mut s = TcpSegment::new(40000, 80, 5, 99, TcpFlags::ACK | TcpFlags::PSH);
        s.payload_len = 18;
        let bytes = wire(&s);
        let parsed = TcpSegmentView::new(&bytes).unwrap();
        assert_eq!(parsed.payload(), [PAYLOAD_FILLER; 18]);
        assert_eq!((parsed.seq(), parsed.ack()), (5, 99));
        assert!(!s.is_pure_ack());
    }

    #[test]
    fn a_length_n_segment_encodes_n_filler_bytes_with_the_byte_built_checksum() {
        use crate::checksum::{transport_checksum_v4, transport_checksum_v6};
        use std::net::Ipv6Addr;
        let v4 = (IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)), IpAddr::V4(Ipv4Addr::new(8, 8, 4, 4)));
        let v6 = (
            IpAddr::V6(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 2)),
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
        );
        let mut header_only = TcpSegment::new(443, 40000, 7, 9, TcpFlags::ACK | TcpFlags::PSH);
        header_only.options = [TcpOption::Timestamps(1, 2)].into();
        let header = wire(&header_only);
        for (src, dst) in [v4, v6] {
            for n in 0..=usize::from(MOPEYE_MSS) {
                let mut seg = header_only.clone();
                seg.payload_len = n as u16;
                let mut bytes = Vec::new();
                seg.encode_with_checksum_into(src, dst, &mut bytes);
                assert_eq!(bytes.len(), header.len() + n, "n = {n}");
                assert!(bytes[header.len()..].iter().all(|&b| b == 0x47), "n = {n}");
                // The reference: the same header, n real bytes, checksummed.
                let mut reference = header.clone();
                reference.extend(std::iter::repeat(0x47).take(n));
                let want = match (src, dst) {
                    (IpAddr::V4(s), IpAddr::V4(d)) => {
                        transport_checksum_v4(s, d, crate::IPPROTO_TCP, &reference)
                    }
                    (IpAddr::V6(s), IpAddr::V6(d)) => {
                        transport_checksum_v6(s, d, crate::IPPROTO_TCP, &reference)
                    }
                    _ => unreachable!(),
                };
                assert_eq!(bytes[16..18], want.to_be_bytes(), "n = {n}, {src}");
                reference[16..18].copy_from_slice(&want.to_be_bytes());
                assert_eq!(bytes, reference, "n = {n}, {src}");
            }
        }
    }

    #[test]
    fn pure_ack_detection() {
        let s = TcpSegment::new(1, 2, 10, 20, TcpFlags::ACK);
        assert!(s.is_pure_ack());
        let s = TcpSegment::new(1, 2, 10, 20, TcpFlags::ACK | TcpFlags::FIN);
        assert!(!s.is_pure_ack());
    }

    #[test]
    fn checksum_is_filled_in() {
        let s = syn();
        let mut bytes = Vec::new();
        s.encode_with_checksum_into(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            IpAddr::V4(Ipv4Addr::new(31, 13, 79, 251)),
            &mut bytes,
        );
        assert_ne!(&bytes[16..18], &[0, 0]);
        // Verifying: checksum over pseudo-header + segment must fold to zero.
        let mut c = crate::checksum::Checksum::new();
        c.add_bytes(&Ipv4Addr::new(10, 0, 0, 2).octets());
        c.add_bytes(&Ipv4Addr::new(31, 13, 79, 251).octets());
        c.add_u16(6);
        c.add_u16(bytes.len() as u16);
        c.add_bytes(&bytes);
        assert_eq!(c.finish(), 0);
    }

    #[test]
    fn truncated_and_bad_offset_are_rejected() {
        assert!(TcpSegmentView::new(&[0; 10]).is_err());
        let mut bytes = wire(&syn());
        bytes[12] = 0x30; // Data offset 12 bytes < 20.
        assert!(matches!(TcpSegmentView::new(&bytes), Err(PacketError::BadHeaderLength(12))));
    }

    #[test]
    fn unknown_options_are_preserved() {
        let mut s = TcpSegment::new(1, 2, 0, 0, TcpFlags::SYN);
        s.options = vec![
            TcpOption::Unknown(254, [1, 2, 3].into()),
            TcpOption::Nop,
            TcpOption::Nop,
            TcpOption::Nop,
        ].into();
        let bytes = wire(&s);
        let parsed = TcpSegmentView::new(&bytes).unwrap();
        assert_eq!(parsed.options().next(), Some(TcpOptionRef::Unknown(254, &[1, 2, 3])));
        assert_eq!(options_of(&parsed), s.options);
    }

    #[test]
    fn sack_option_roundtrips_and_is_accessible() {
        // A dup-ACK the way the app side emits it: pure ACK carrying the
        // received-but-not-contiguous ranges.
        let mut s = TcpSegment::new(40000, 443, 10, 5000, TcpFlags::ACK);
        let blocks = SackBlocks::from([(6460, 7920), (9380, 10840)]);
        s.options = vec![TcpOption::Nop, TcpOption::Nop, TcpOption::Sack(blocks)].into();
        let bytes = wire(&s);
        let parsed = TcpSegmentView::new(&bytes).unwrap();
        assert_eq!(parsed.sack_blocks(), Some(blocks));
        assert_eq!(options_of(&parsed), s.options);
        assert!(s.is_pure_ack(), "SACK blocks do not stop a segment being a pure ACK");
    }

    #[test]
    fn sack_option_wire_format_is_rfc_2018() {
        let mut opts = TcpOptions::new();
        opts.push(TcpOption::Sack([(1, 2)].into()));
        assert_eq!(opts.as_bytes(), &[5, 10, 0, 0, 0, 1, 0, 0, 0, 2]);
        // Four blocks is the cap and still fits the 40-byte budget.
        let full = TcpOption::Sack([(1, 2), (3, 4), (5, 6), (7, 8)].into());
        assert_eq!(full.wire_len(), 34);
        let mut opts = TcpOptions::new();
        opts.push(full);
        assert_eq!(opts.byte_len(), 34);
        assert_eq!(opts.iter().next(), Some(full));
    }

    #[test]
    #[should_panic(expected = "SACK option exceeds 4 blocks")]
    fn more_than_four_sack_blocks_is_a_construction_bug() {
        let _ = SackBlocks::new(&[(0, 1); 5]);
    }

    #[test]
    fn malformed_sack_bodies_fall_back_to_unknown() {
        // Kind 5 with a body that is not a positive multiple of 8 decodes as
        // Unknown (preserved raw), exactly like any other exotic option.
        let mut s = TcpSegment::new(1, 2, 0, 0, TcpFlags::ACK);
        s.options = vec![TcpOption::Unknown(5, [1, 2, 3].into()), TcpOption::Nop].into();
        let bytes = wire(&s);
        assert_eq!(&bytes[20..26], &[5, 5, 1, 2, 3, 1], "length 5: a 3-byte body");
        let parsed = TcpSegmentView::new(&bytes).unwrap();
        assert_eq!(parsed.options().next(), Some(TcpOptionRef::Unknown(5, &[1, 2, 3])));
        assert_eq!(parsed.sack_blocks(), None);
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "<none>");
    }

    #[test]
    fn header_len_is_padded_to_words() {
        let mut s = TcpSegment::new(1, 2, 0, 0, TcpFlags::SYN);
        s.options = vec![TcpOption::WindowScale(2)].into(); // Three bytes of options.
        assert_eq!(s.header_len(), 24);
        let bytes = wire(&s);
        assert_eq!(bytes.len(), 24);
        let parsed = TcpSegmentView::new(&bytes).unwrap();
        assert_eq!(parsed.options().collect::<Vec<_>>(), [TcpOptionRef::WindowScale(2)]);
    }
}
