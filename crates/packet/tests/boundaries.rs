//! Boundary tests for the packet codec round trips.
//!
//! The zero-copy views must agree byte-for-byte with the owned types at the
//! edges the relay actually hits: empty payloads, full-MSS payloads,
//! odd-length checksum inputs, and malformed or truncated option lists.

use std::net::IpAddr;

use mop_packet::checksum::Checksum;
use mop_packet::tcp::MOPEYE_MSS;
use mop_packet::{
    Endpoint, Ipv4Packet, Ipv4View, Packet, PacketBuilder, PacketError, PacketView, TcpFlags,
    TcpOption, TcpSegment, TcpSegmentView, UdpDatagram, UdpView,
};

fn builder() -> PacketBuilder {
    PacketBuilder::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443))
}

/// Owned parse and view parse of the same bytes must agree on every field,
/// and both must re-encode to the identical byte string.
fn assert_codec_agreement(bytes: &[u8]) {
    let owned = Packet::parse(bytes).expect("owned parse");
    let view = PacketView::parse(bytes).expect("view parse");
    assert_eq!(owned.four_tuple(), view.four_tuple());
    assert_eq!(owned.src_endpoint(), view.src_endpoint());
    assert_eq!(owned.dst_endpoint(), view.dst_endpoint());
    let reowned = view.to_owned();
    assert_eq!(owned, reowned, "view.to_owned() must equal Packet::parse");
    assert_eq!(owned.to_bytes(), bytes, "owned re-encode must round trip");
    assert_eq!(reowned.to_bytes(), bytes, "view re-encode must round trip");
    assert_eq!(owned.wire_len(), bytes.len(), "wire_len is computed, must match");
    if let (Some(to), Some(tv)) = (owned.tcp(), view.tcp()) {
        assert_eq!(to.seq, tv.seq());
        assert_eq!(to.ack, tv.ack());
        assert_eq!(to.flags, tv.flags());
        assert_eq!(to.window, tv.window());
        assert_eq!(to.urgent, tv.urgent());
        assert_eq!(to.payload, tv.payload());
        assert_eq!(to.mss(), tv.mss());
        assert_eq!(to.window_scale(), tv.window_scale());
        assert_eq!(to.is_pure_ack(), tv.is_pure_ack());
        assert_eq!(to.sequence_len(), tv.sequence_len());
        assert_eq!(to.header_len(), tv.header_len());
    }
}

#[test]
fn zero_length_payload_round_trips_in_both_codecs() {
    for packet in [
        builder().tcp_ack(1, 1),
        builder().tcp_data(1, 1, Vec::new()),
        builder().udp(Vec::new()),
    ] {
        assert_codec_agreement(&packet.to_bytes());
    }
}

#[test]
fn maximum_mss_payload_round_trips_in_both_codecs() {
    let payload = vec![0xab; usize::from(MOPEYE_MSS)];
    let bytes = builder().tcp_data(1001, 500, payload.clone()).to_bytes();
    assert_codec_agreement(&bytes);
    let view = PacketView::parse(&bytes).unwrap();
    assert_eq!(view.tcp().unwrap().payload(), &payload[..]);
    // One byte beyond the MSS still encodes/parses (the MSS is advisory).
    let bytes = builder().tcp_data(1001, 500, vec![0xcd; usize::from(MOPEYE_MSS) + 1]).to_bytes();
    assert_codec_agreement(&bytes);
}

#[test]
fn odd_length_payloads_checksum_identically_in_both_codecs() {
    // Odd-length segments exercise the RFC 1071 trailing-byte padding in the
    // checksum; the encoded checksum must verify for every parity.
    for len in [0usize, 1, 2, 3, 1399, 1400] {
        let packet = builder().tcp_data(7, 9, vec![0x55; len]);
        let bytes = packet.to_bytes();
        assert_codec_agreement(&bytes);
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
fn segment_level_views_agree_with_owned_parse_on_option_shapes() {
    let mut seg = TcpSegment::new(40000, 443, 1000, 0, TcpFlags::SYN);
    seg.options = vec![
        TcpOption::MaximumSegmentSize(MOPEYE_MSS),
        TcpOption::SackPermitted,
        TcpOption::Nop,
        TcpOption::WindowScale(7),
        TcpOption::Timestamps(123456, 654321),
        TcpOption::Unknown(254, [9, 8, 7].into()),
    ].into();
    let bytes = seg.to_bytes();
    let owned = TcpSegment::parse(&bytes).unwrap();
    let view = TcpSegmentView::new(&bytes).unwrap();
    assert_eq!(view.to_owned(), owned);
    let from_view: Vec<TcpOption> = view.options().map(|o| o.to_owned()).collect();
    let from_owned: Vec<TcpOption> = owned.options.iter().collect();
    assert_eq!(from_view, from_owned);
    // And the re-encode round trips through encode_into on a reused buffer.
    let mut out = Vec::new();
    owned.encode_into(&mut out);
    assert_eq!(out, bytes);
}

#[test]
fn malformed_option_lists_are_rejected_identically() {
    // A SYN whose option region claims a length that overruns the header.
    let mut seg = TcpSegment::new(1, 2, 0, 0, TcpFlags::SYN);
    seg.options = vec![TcpOption::MaximumSegmentSize(1460)].into();
    let mut bytes = seg.to_bytes();
    // data offset 24 → option region is bytes 20..24 = [2, 4, mss_hi, mss_lo].
    bytes[21] = 40; // Option length 40 > remaining region.
    let owned = TcpSegment::parse(&bytes);
    let view = TcpSegmentView::new(&bytes);
    assert!(matches!(owned, Err(PacketError::BadHeaderLength(40))), "{owned:?}");
    assert!(matches!(view, Err(PacketError::BadHeaderLength(40))), "{view:?}");

    // Option length below the minimum of two.
    bytes[21] = 1;
    assert!(matches!(TcpSegment::parse(&bytes), Err(PacketError::BadHeaderLength(1))));
    assert!(matches!(TcpSegmentView::new(&bytes), Err(PacketError::BadHeaderLength(1))));

    // A kind byte with no length byte at the very end of the option region.
    bytes[20] = 1; // NOP
    bytes[21] = 1; // NOP
    bytes[22] = 1; // NOP
    bytes[23] = 253; // Kind with its length byte truncated by the header end.
    assert!(matches!(
        TcpSegment::parse(&bytes),
        Err(PacketError::Truncated { what: "TCP option length", .. })
    ));
    assert!(matches!(
        TcpSegmentView::new(&bytes),
        Err(PacketError::Truncated { what: "TCP option length", .. })
    ));

    // An end-of-options marker stops both parsers without error.
    bytes[20] = 0;
    let owned = TcpSegment::parse(&bytes).unwrap();
    let view = TcpSegmentView::new(&bytes).unwrap();
    assert!(owned.options.is_empty());
    assert_eq!(view.options().count(), 0);
}

#[test]
fn truncated_transport_layers_are_rejected_identically() {
    // A valid IPv4 header whose payload is too short for a TCP header.
    let ip = Ipv4Packet::new(
        "10.0.0.2".parse().unwrap(),
        "10.0.0.1".parse().unwrap(),
        6,
        vec![0u8; 10],
    );
    let bytes = ip.to_bytes();
    assert!(matches!(
        Packet::parse(&bytes),
        Err(PacketError::Truncated { what: "TCP header", .. })
    ));
    assert!(matches!(
        PacketView::parse(&bytes),
        Err(PacketError::Truncated { what: "TCP header", .. })
    ));
    // Same for UDP.
    let ip = Ipv4Packet::new(
        "10.0.0.2".parse().unwrap(),
        "10.0.0.1".parse().unwrap(),
        17,
        vec![0u8; 4],
    );
    let bytes = ip.to_bytes();
    assert!(matches!(
        Packet::parse(&bytes),
        Err(PacketError::Truncated { what: "UDP header", .. })
    ));
    assert!(matches!(
        PacketView::parse(&bytes),
        Err(PacketError::Truncated { what: "UDP header", .. })
    ));
}

#[test]
fn udp_views_honour_the_length_field_boundary() {
    let datagram = UdpDatagram::new(40001, 53, vec![1, 2, 3]);
    let mut bytes = datagram.to_bytes();
    bytes.extend_from_slice(&[0xff; 5]); // Trailing junk beyond the UDP length.
    let owned = UdpDatagram::parse(&bytes).unwrap();
    let view = UdpView::new(&bytes).unwrap();
    assert_eq!(owned.payload, view.payload());
    assert_eq!(view.to_owned(), owned);
    // A length field larger than the buffer is rejected by both.
    bytes[4..6].copy_from_slice(&100u16.to_be_bytes());
    assert!(UdpDatagram::parse(&bytes).is_err());
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
        builder().tcp_data(1, 1, vec![0x5a; 1460]),
        builder().udp(b"dns-ish".to_vec()),
        v6.tcp_syn(7),
        v6.tcp_data(8, 9, vec![1; 333]),
    ] {
        out.clear();
        packet.encode_into(&mut out);
        assert_eq!(out, packet.to_bytes());
        assert_eq!(out.len(), packet.wire_len());
        // Both encodings reparse to the same packet.
        assert_eq!(Packet::parse(&out).unwrap(), packet.clone());
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
    let mut udp = Vec::new();
    UdpDatagram::new(1000, 53, vec![5; 7]).encode_with_checksum_into(
        IpAddr::V4("10.0.0.2".parse().unwrap()),
        IpAddr::V4("8.8.8.8".parse().unwrap()),
        &mut udp,
    );
    let mut p = Ipv4Packet::new("10.0.0.2".parse().unwrap(), "8.8.8.8".parse().unwrap(), 17, udp);
    p.options = vec![1, 1, 1, 1];
    let bytes = p.to_bytes();
    let owned = Ipv4Packet::parse(&bytes).unwrap();
    let view = Ipv4View::new(&bytes).unwrap();
    assert_eq!(view.to_owned(), owned);
    assert_eq!(view.options(), &[1, 1, 1, 1]);
    assert_eq!(view.header_len(), 24);
}
