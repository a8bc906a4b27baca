//! Property-based tests for the packet codecs: every well-formed value must
//! survive the relay's round trip (encode with `encode_into`, parse with the
//! zero-copy views) with every field the relay reads intact, and parsers
//! must never panic on arbitrary bytes.

use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

use mop_packet::{
    DnsMessage, Endpoint, IpPacket, Ipv4Packet, Ipv4View, Ipv6Packet, Packet, PacketBuilder,
    PacketView, SackBlocks, TcpFlags, TcpOption, TcpOptionRef, TcpSegment, TcpSegmentView,
    Transport, TransportView, UdpDatagram, UdpView, IPPROTO_TCP, IPPROTO_UDP,
};

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    (0u8..=0x3f).prop_map(TcpFlags::from_bits)
}

/// `transport` behind an IPv4 header, encoded the way the relay writes it.
fn encode_v4(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, transport: Transport) -> Vec<u8> {
    let ip = IpPacket::V4(Ipv4Packet::new(src, dst, protocol));
    let mut bytes = Vec::new();
    Packet { ip, transport }.encode_into(&mut bytes);
    bytes
}

/// A segment behind a fixed IPv4 header, encoded the way the relay writes it.
fn encode_segment(seg: TcpSegment) -> Vec<u8> {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(8, 8, 8, 8));
    encode_v4(src, dst, IPPROTO_TCP, Transport::Tcp(seg))
}

/// The TCP layer of an encoded packet.
fn segment_view(bytes: &[u8]) -> TcpSegmentView<'_> {
    *PacketView::parse(bytes).unwrap().tcp().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ipv4_roundtrips(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        protocol in 0u8..=255,
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..1600),
    ) {
        let mut ip = Ipv4Packet::new(src, dst, protocol);
        ip.ttl = ttl;
        let mut bytes = Vec::new();
        Packet { ip: IpPacket::V4(ip), transport: Transport::Other(protocol, payload.clone()) }
            .encode_into(&mut bytes);
        let view = Ipv4View::new(&bytes).unwrap();
        prop_assert_eq!((view.src(), view.dst(), view.protocol()), (src, dst, protocol));
        prop_assert_eq!(view.payload(), &payload[..]);
    }

    #[test]
    fn ipv6_roundtrips(
        src in any::<[u8; 16]>(),
        dst in any::<[u8; 16]>(),
        flow_label in 0u32..=0x000f_ffff,
        payload in proptest::collection::vec(any::<u8>(), 0..1600),
    ) {
        let mut ip = Ipv6Packet::new(src.into(), dst.into(), IPPROTO_UDP);
        ip.flow_label = flow_label;
        let datagram = UdpDatagram::new(40000, 53, payload);
        let mut bytes = Vec::new();
        Packet { ip: IpPacket::V6(ip), transport: Transport::Udp(datagram.clone()) }
            .encode_into(&mut bytes);
        let view = PacketView::parse(&bytes).unwrap();
        let from = Endpoint::new(IpAddr::from(src), 40000);
        prop_assert_eq!(view.src_endpoint(), Some(from));
        prop_assert_eq!(view.dst_endpoint(), Some(Endpoint::new(IpAddr::from(dst), 53)));
        let TransportView::Udp(udp) = view.transport() else { panic!("not UDP") };
        prop_assert_eq!(udp.payload(), &datagram.payload[..]);
    }

    #[test]
    fn tcp_segments_roundtrip(
        src_port in 1u16..=65535,
        dst_port in 1u16..=65535,
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_flags(),
        window in any::<u16>(),
        mss in 536u16..=1460,
        payload in proptest::collection::vec(any::<u8>(), 0..1460),
    ) {
        let mut seg = TcpSegment::new(src_port, dst_port, seq, ack, flags);
        seg.window = window;
        seg.options = vec![TcpOption::MaximumSegmentSize(mss), TcpOption::SackPermitted].into();
        seg.payload = payload;
        let bytes = encode_segment(seg.clone());
        let view = segment_view(&bytes);
        prop_assert_eq!((view.seq(), view.ack(), view.flags()), (seq, ack, flags));
        prop_assert_eq!(view.mss(), Some(mss));
        prop_assert_eq!(
            view.options().collect::<Vec<_>>(),
            vec![TcpOptionRef::MaximumSegmentSize(mss), TcpOptionRef::SackPermitted]
        );
        prop_assert_eq!(view.payload(), &seg.payload[..]);
        let tuple = PacketView::parse(&bytes).unwrap().four_tuple().unwrap();
        prop_assert_eq!((tuple.src.port, tuple.dst.port), (src_port, dst_port));
    }

    /// SACK options round-trip through the encoder and the zero-copy view for
    /// every block count the option can carry (RFC 2018: 1–4).
    #[test]
    fn sack_options_roundtrip_at_every_block_count(
        src_port in 1u16..=65535,
        seq in any::<u32>(),
        ack in any::<u32>(),
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..5),
    ) {
        let blocks = SackBlocks::new(&edges);
        let mut seg = TcpSegment::new(src_port, 443, seq, ack, TcpFlags::ACK);
        seg.options = vec![TcpOption::Sack(blocks)].into();
        let bytes = encode_segment(seg);
        let view = segment_view(&bytes);
        prop_assert_eq!(view.sack_blocks(), Some(blocks));
        prop_assert_eq!(view.options().collect::<Vec<_>>(), vec![TcpOptionRef::Sack(blocks)]);
        prop_assert_eq!((view.seq(), view.ack()), (seq, ack));
    }

    /// SACK mixed with the other options the relay manipulates survives a
    /// round trip with ordering intact.
    #[test]
    fn sack_coexists_with_other_options(
        mss in 536u16..=1460,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..4),
    ) {
        let blocks = SackBlocks::new(&edges);
        let mut seg = TcpSegment::new(40000, 443, 7, 9, TcpFlags::ACK);
        seg.options = vec![
            TcpOption::MaximumSegmentSize(mss),
            TcpOption::Nop,
            TcpOption::Sack(blocks),
        ].into();
        let bytes = encode_segment(seg);
        let view = segment_view(&bytes);
        prop_assert_eq!(
            view.options().collect::<Vec<_>>(),
            vec![
                TcpOptionRef::MaximumSegmentSize(mss),
                TcpOptionRef::Nop,
                TcpOptionRef::Sack(blocks),
            ]
        );
        prop_assert_eq!(view.mss(), Some(mss));
        prop_assert_eq!(view.sack_blocks(), Some(blocks));
    }

    #[test]
    fn udp_datagrams_roundtrip(
        src_port in 1u16..=65535,
        dst_port in 1u16..=65535,
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let datagram = UdpDatagram::new(src_port, dst_port, payload);
        let (src, dst) = (IpAddr::from([10, 0, 0, 2]), IpAddr::from([8, 8, 8, 8]));
        let mut bytes = Vec::new();
        datagram.encode_with_checksum_into(src, dst, &mut bytes);
        let view = UdpView::new(&bytes).unwrap();
        prop_assert_eq!(view.payload(), &datagram.payload[..]);
        let whole = encode_v4(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            IPPROTO_UDP,
            Transport::Udp(datagram),
        );
        let tuple = PacketView::parse(&whole).unwrap().four_tuple().unwrap();
        prop_assert_eq!((tuple.src.port, tuple.dst.port), (src_port, dst_port));
    }

    #[test]
    fn dns_queries_roundtrip(
        id in any::<u16>(),
        labels in proptest::collection::vec("[a-z0-9]{1,12}", 1..5),
        addrs in proptest::collection::vec(arb_ipv4(), 0..4),
        ttl in 1u32..86_400,
    ) {
        let name = labels.join(".");
        let query = DnsMessage::query(id, &name);
        let parsed_query = DnsMessage::parse(&query.to_bytes()).unwrap();
        prop_assert_eq!(parsed_query.queried_name(), Some(name.as_str()));
        let answer = DnsMessage::answer(&query, &addrs, ttl);
        let parsed_answer = DnsMessage::parse(&answer.to_bytes()).unwrap();
        prop_assert_eq!(parsed_answer.a_records(), addrs);
        prop_assert!(parsed_answer.flags.response);
        prop_assert_eq!(parsed_answer.id, id);
    }

    #[test]
    fn full_packets_roundtrip_and_checksum_verifies(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        src_port in 1u16..=65535,
        dst_port in 1u16..=65535,
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let builder = PacketBuilder::new(Endpoint::new(src, src_port), Endpoint::new(dst, dst_port));
        let packet = builder.tcp_data(seq, 0, payload);
        let mut bytes = Vec::new();
        packet.encode_into(&mut bytes);
        prop_assert_eq!(bytes.len(), packet.wire_len());
        // The IPv4 checksum is valid (the view verifies it), the TCP
        // checksum over the pseudo-header folds to zero, and the packet reads
        // back as it was built.
        let parsed = PacketView::parse(&bytes).unwrap();
        let mut check = mop_packet::checksum::Checksum::new();
        check.add_bytes(&src.octets());
        check.add_bytes(&dst.octets());
        check.add_u16(u16::from(IPPROTO_TCP));
        check.add_u16((bytes.len() - 20) as u16);
        check.add_bytes(&bytes[20..]);
        prop_assert_eq!(check.finish(), 0);
        prop_assert_eq!(parsed.four_tuple(), packet.four_tuple());
        let (view, seg) = (parsed.tcp().unwrap(), packet.tcp().unwrap());
        prop_assert_eq!((view.seq(), view.flags()), (seg.seq, seg.flags));
        prop_assert_eq!(view.payload(), &seg.payload[..]);
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = PacketView::parse(&bytes);
        let _ = TcpSegmentView::new(&bytes);
        let _ = UdpView::new(&bytes);
        let _ = DnsMessage::parse(&bytes);
    }

    /// Well-formed segments read back through the view as the owned
    /// segment they were encoded from, at every payload size from empty to
    /// beyond the MSS.
    #[test]
    fn tcp_views_agree_with_owned_across_payload_sizes(
        seq in any::<u32>(),
        flags in arb_flags(),
        len in 0usize..=1461,
    ) {
        let mut seg = TcpSegment::new(40000, 443, seq, 0, flags);
        seg.payload = vec![0x5a; len];
        let bytes = encode_segment(seg.clone());
        let view = segment_view(&bytes);
        prop_assert_eq!((view.seq(), view.ack(), view.flags()), (seg.seq, seg.ack, seg.flags));
        prop_assert_eq!(view.payload().len(), len);
        prop_assert_eq!(view.payload(), &seg.payload[..]);
        prop_assert_eq!(view.mss(), seg.mss());
    }

    #[test]
    fn corrupting_one_header_byte_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        corrupt_index in 0usize..20,
        corrupt_value in any::<u8>(),
    ) {
        let builder = PacketBuilder::new(Endpoint::v4(10, 0, 0, 2, 1), Endpoint::v4(8, 8, 8, 8, 53));
        let mut bytes = builder.udp(payload).to_bytes();
        let idx = corrupt_index % bytes.len();
        bytes[idx] = corrupt_value;
        if let Ok(view) = PacketView::parse(&bytes) {
            if let TransportView::Udp(udp) = view.transport() {
                let _ = DnsMessage::parse(udp.payload());
            }
        }
    }
}
