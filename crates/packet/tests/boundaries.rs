//! Boundary tests for the packet codec round trips.
//!
//! What the relay encodes (`Packet::encode_into`) must read back through the
//! zero-copy views it parses with, field for field, at the edges the relay
//! actually hits: empty payloads, full-MSS payloads, odd-length checksum
//! inputs, and malformed or truncated option lists.

use std::net::{IpAddr, Ipv4Addr};

use mop_packet::checksum::Checksum;
use mop_packet::tcp::{MOPEYE_MSS, PAYLOAD_FILLER};
use mop_packet::{
    Endpoint, IpPacket, Ipv4Packet, Ipv4View, Packet, PacketBuilder, PacketError, PacketView,
    TcpFlags, TcpOption, TcpOptionRef, TcpSegment, TcpSegmentView, Transport, TransportView,
    UdpDatagram, UdpView,
};

fn builder() -> PacketBuilder {
    PacketBuilder::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443))
}

/// `packet` encoded into a reused buffer and by `to_bytes` must be the same
/// bytes, and the view parse of them must read back every field the relay
/// reads.
fn assert_round_trip(packet: &Packet) -> Vec<u8> {
    let mut bytes = Vec::new();
    packet.encode_into(&mut bytes);
    assert_eq!(bytes, packet.to_bytes(), "encode_into and to_bytes agree");
    assert_eq!(packet.wire_len(), bytes.len(), "wire_len is computed, must match");
    let view = PacketView::parse(&bytes).expect("view parse");
    assert_eq!(view.four_tuple(), packet.four_tuple());
    match (&packet.transport, view.transport()) {
        (Transport::Tcp(to), TransportView::Tcp(tv)) => {
            assert_eq!((to.seq, to.ack, to.flags), (tv.seq(), tv.ack(), tv.flags()));
            assert_eq!(usize::from(to.payload_len), tv.payload().len());
            assert!(tv.payload().iter().all(|&b| b == PAYLOAD_FILLER), "filler bytes");
            assert_eq!(to.mss(), tv.mss());
            assert_eq!(to.sack_blocks(), tv.sack_blocks());
        }
        (Transport::Udp(uo), TransportView::Udp(uv)) => assert_eq!(uo.payload, uv.payload()),
        (owned, view) => panic!("{owned:?} read back as {view:?}"),
    }
    bytes
}

/// A segment encoded alone, the way the relay writes one behind its header.
fn segment_bytes(seg: &TcpSegment) -> Vec<u8> {
    let bytes = Packet {
        ip: IpPacket::V4(Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            6,
        )),
        transport: Transport::Tcp(seg.clone()),
    }
    .to_bytes();
    bytes[20..].to_vec()
}

#[test]
fn zero_length_payload_round_trips_in_both_codecs() {
    for packet in [builder().tcp_ack(1, 1), builder().tcp_data(1, 1, 0), builder().udp(Vec::new())]
    {
        assert_round_trip(&packet);
    }
}

#[test]
fn maximum_mss_payload_round_trips_in_both_codecs() {
    let mss = usize::from(MOPEYE_MSS);
    let bytes = assert_round_trip(&builder().tcp_data(1001, 500, mss));
    let view = PacketView::parse(&bytes).unwrap();
    assert_eq!(view.tcp().unwrap().payload(), vec![PAYLOAD_FILLER; mss]);
    // One byte beyond the MSS still encodes/parses (the MSS is advisory).
    assert_round_trip(&builder().tcp_data(1001, 500, mss + 1));
}

#[test]
fn odd_length_payloads_checksum_identically_in_both_codecs() {
    // Odd-length segments exercise the RFC 1071 trailing-byte padding in the
    // checksum; the encoded checksum must verify for every parity.
    for len in [0usize, 1, 2, 3, 1399, 1400] {
        let bytes = assert_round_trip(&builder().tcp_data(7, 9, len));
        // Verify the transport checksum folds to zero over the pseudo-header.
        let view = Ipv4View::new(&bytes).unwrap();
        let mut c = Checksum::new();
        c.add_bytes(&view.src().octets());
        c.add_bytes(&view.dst().octets());
        c.add_u16(u16::from(view.protocol()));
        c.add_u16(view.payload().len() as u16);
        c.add_bytes(view.payload());
        assert_eq!(c.finish(), 0, "checksum must verify for payload len {len}");
    }
}

#[test]
fn segment_views_decode_every_option_shape() {
    let mut seg = TcpSegment::new(40000, 443, 1000, 0, TcpFlags::SYN);
    seg.options = vec![
        TcpOption::MaximumSegmentSize(MOPEYE_MSS),
        TcpOption::SackPermitted,
        TcpOption::Nop,
        TcpOption::WindowScale(7),
        TcpOption::Timestamps(123456, 654321),
        TcpOption::Unknown(254, [9, 8, 7].into()),
    ]
    .into();
    let bytes = segment_bytes(&seg);
    let view = TcpSegmentView::new(&bytes).unwrap();
    assert_eq!(
        view.options().collect::<Vec<_>>(),
        [
            TcpOptionRef::MaximumSegmentSize(MOPEYE_MSS),
            TcpOptionRef::SackPermitted,
            TcpOptionRef::Nop,
            TcpOptionRef::WindowScale(7),
            TcpOptionRef::Timestamps(123456, 654321),
            TcpOptionRef::Unknown(254, &[9, 8, 7]),
        ]
    );
    assert_eq!(view.mss(), Some(MOPEYE_MSS));
    assert_eq!((view.seq(), view.flags()), (1000, TcpFlags::SYN));
}

#[test]
fn malformed_option_lists_are_rejected_identically() {
    // A SYN whose option region claims a length that overruns the header.
    let mut seg = TcpSegment::new(1, 2, 0, 0, TcpFlags::SYN);
    seg.options = vec![TcpOption::MaximumSegmentSize(1460)].into();
    let mut bytes = segment_bytes(&seg);
    // data offset 24 → option region is bytes 20..24 = [2, 4, mss_hi, mss_lo].
    bytes[21] = 40; // Option length 40 > remaining region.
    let view = TcpSegmentView::new(&bytes);
    assert!(matches!(view, Err(PacketError::BadHeaderLength(40))), "{view:?}");

    // Option length below the minimum of two.
    bytes[21] = 1;
    assert!(matches!(TcpSegmentView::new(&bytes), Err(PacketError::BadHeaderLength(1))));

    // A kind byte with no length byte at the very end of the option region.
    bytes[20] = 1; // NOP
    bytes[21] = 1; // NOP
    bytes[22] = 1; // NOP
    bytes[23] = 253; // Kind with its length byte truncated by the header end.
    assert!(matches!(
        TcpSegmentView::new(&bytes),
        Err(PacketError::Truncated { what: "TCP option length", .. })
    ));

    // An end-of-options marker stops the parser without error.
    bytes[20] = 0;
    let view = TcpSegmentView::new(&bytes).unwrap();
    assert_eq!(view.options().count(), 0);
}

#[test]
fn truncated_transport_layers_are_rejected_identically() {
    // A valid IPv4 header whose payload is too short for a TCP header.
    let bytes = raw_ipv4(6, vec![0u8; 10]);
    assert!(matches!(
        PacketView::parse(&bytes),
        Err(PacketError::Truncated { what: "TCP header", .. })
    ));
    // Same for UDP.
    let bytes = raw_ipv4(17, vec![0u8; 4]);
    assert!(matches!(
        PacketView::parse(&bytes),
        Err(PacketError::Truncated { what: "UDP header", .. })
    ));
}

#[test]
fn udp_views_honour_the_length_field_boundary() {
    let datagram = UdpDatagram::new(40001, 53, vec![1, 2, 3]);
    let mut bytes = Vec::new();
    datagram.encode_with_checksum_into(
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
        IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)),
        &mut bytes,
    );
    bytes.extend_from_slice(&[0xff; 5]); // Trailing junk beyond the UDP length.
    let view = UdpView::new(&bytes).unwrap();
    assert_eq!(view.payload(), &datagram.payload[..]);
    // A length field larger than the buffer is rejected.
    bytes[4..6].copy_from_slice(&100u16.to_be_bytes());
    assert!(UdpView::new(&bytes).is_err());
}

#[test]
fn encode_into_composes_with_checksums_on_reused_buffers() {
    // The engine encodes every outbound packet into a pooled buffer; the
    // result must be identical to the one-shot to_bytes() output, for both
    // address families and for empty and full payloads.
    let v6 = PacketBuilder::new(
        Endpoint::new("fe80::2".parse::<std::net::Ipv6Addr>().unwrap(), 40000),
        Endpoint::new("2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap(), 443),
    );
    let mut out = Vec::new();
    for packet in [
        builder().tcp_syn(1),
        builder().tcp_data(1, 1, 1460),
        builder().udp(b"dns-ish".to_vec()),
        v6.tcp_syn(7),
        v6.tcp_data(8, 9, 333),
    ] {
        out.clear();
        packet.encode_into(&mut out);
        assert_eq!(out, packet.to_bytes());
        assert_eq!(out.len(), packet.wire_len());
        // The reused-buffer encoding reads back as the packet.
        assert_round_trip(&packet);
    }
}

#[test]
fn checksum_helpers_agree_between_slice_parities() {
    // add_bytes on an odd slice equals the even slice padded with zero — the
    // invariant the in-place encoders rely on when patching checksums.
    let mut odd = Checksum::new();
    odd.add_bytes(&[0xde, 0xad, 0xbe]);
    let mut even = Checksum::new();
    even.add_bytes(&[0xde, 0xad, 0xbe, 0x00]);
    assert_eq!(odd.finish(), even.finish());
}

#[test]
fn ipv4_view_and_owned_agree_including_options() {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(8, 8, 8, 8));
    let mut udp = Vec::new();
    UdpDatagram::new(1000, 53, vec![5; 7]).encode_with_checksum_into(
        IpAddr::V4(src),
        IpAddr::V4(dst),
        &mut udp,
    );
    let mut p = Ipv4Packet::new(src, dst, 17);
    p.options = vec![1, 1, 1, 1];
    let transport = Transport::Other(17, udp.clone());
    let bytes = Packet { ip: IpPacket::V4(p), transport }.to_bytes();
    assert_eq!(bytes[0], 0x46, "IHL of six words: the header carries its options");
    assert_eq!(&bytes[20..24], &[1, 1, 1, 1]);
    let view = Ipv4View::new(&bytes).unwrap();
    assert_eq!((view.src(), view.dst(), view.protocol()), (src, dst, 17));
    assert_eq!(view.payload(), &udp[..]);
}

/// An IPv4 packet around raw transport bytes that need not parse.
fn raw_ipv4(protocol: u8, raw: Vec<u8>) -> Vec<u8> {
    let ip = Ipv4Packet::new("10.0.0.2".parse().unwrap(), "10.0.0.1".parse().unwrap(), protocol);
    Packet { ip: IpPacket::V4(ip), transport: Transport::Other(protocol, raw) }.to_bytes()
}
