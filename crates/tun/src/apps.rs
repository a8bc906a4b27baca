//! Client-side app endpoints.
//!
//! The relay can only be exercised end to end if something on the app side of
//! the tunnel behaves like a real TCP/DNS client: sends a SYN, completes the
//! handshake when the SYN/ACK comes back, sends its request, ACKs response
//! data and closes with FIN. [`AppEndpoint`] is that client. Its sending side
//! is deliberately simple — no retransmission timers, no congestion control —
//! because the tunnel between an app and MopEye is a loss-free in-memory
//! link, exactly the §3.4 assumption MopEye itself relies on. Its *receiving*
//! side, however, performs ordered reassembly: when the simulated access
//! network drops, reorders or duplicates relayed segments, the endpoint
//! buffers out-of-order data, answers holes with SACK-carrying duplicate
//! ACKs (RFC 2018) and holds a premature FIN until the stream is contiguous,
//! which is what drives the relay's fast-retransmit and RTO machinery. On an
//! in-order stream none of that triggers and the emitted packets are
//! byte-identical to the plain cumulative-ACK client.
//!
//! Replies are emitted sink-style ([`AppEndpoint::handle_into`] appends to a
//! vector the caller owns), so the endpoint itself allocates only per loss
//! event (an out-of-order segment's entry, which holds its length, not its
//! bytes; SACK ranges). TCP payloads are lengths on both sides of it (see
//! `mop_packet::tcp`): the request is a byte count that goes into the data
//! segment carrying it, and received data is counted, never read.

use std::collections::BTreeMap;

use mop_packet::{DnsMessage, Endpoint, FourTuple, Packet, PacketBuilder, SackBlocks, TcpFlags};

/// True iff `a` is strictly before `b` in TCP sequence space.
fn seq_before(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < 0x8000_0000
}

/// Lifecycle of an app-side TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// SYN sent, waiting for the SYN/ACK.
    SynSent,
    /// Handshake done; request in flight or response being received.
    Established,
    /// FIN sent, waiting for the relay's FIN/ACK of our close.
    Closing,
    /// Connection fully closed.
    Done,
    /// Connection was reset.
    Failed,
}

/// A simulated app's TCP connection through the tunnel.
#[derive(Debug)]
pub struct AppEndpoint {
    /// UID of the owning app (what `/proc/net` reports).
    pub uid: u32,
    flow: FourTuple,
    builder: PacketBuilder,
    state: AppState,
    seq: u32,
    ack: u32,
    /// The request's length in bytes, until the handshake completes and it
    /// goes into the data segment that carries it (0 afterwards).
    request_len: usize,
    request_sent: bool,
    /// Bytes of response received so far.
    pub bytes_received: usize,
    /// Close the connection after receiving at least this many bytes
    /// (0 = close as soon as any response data has arrived).
    close_after: usize,
    /// Timestamp bookkeeping for tests and workload statistics.
    pub syn_count: u32,
    /// Received-but-not-contiguous segments, keyed by sequence number,
    /// waiting for the hole below them to fill. Only their lengths are kept:
    /// ACKs, SACK blocks and `bytes_received` are all the endpoint derives
    /// from them, so the payload itself is never copied.
    ooo: BTreeMap<u32, u32>,
    /// A FIN that arrived ahead of a sequence hole; processed once the
    /// stream is contiguous up to it.
    pending_fin: Option<u32>,
    /// Duplicate ACKs sent in response to holes or duplicates — nonzero only
    /// when the network misbehaved.
    pub dup_acks_sent: u32,
}

impl AppEndpoint {
    /// Creates an endpoint for `flow`, owned by `uid`, that will send a
    /// request of `request_len` bytes once connected and close after
    /// `close_after` response bytes.
    pub fn new(uid: u32, flow: FourTuple, request_len: usize, close_after: usize) -> Self {
        Self {
            uid,
            flow,
            builder: PacketBuilder::new(flow.src, flow.dst),
            state: AppState::SynSent,
            seq: 0x4000_0000 ^ u32::from(flow.src.port),
            ack: 0,
            request_len,
            request_sent: false,
            bytes_received: 0,
            close_after,
            syn_count: 0,
            ooo: BTreeMap::new(),
            pending_fin: None,
            dup_acks_sent: 0,
        }
    }

    /// The contiguous ranges currently held in the out-of-order buffer.
    /// (Raw `u32` ordering is fine here: a connection's receive window never
    /// spans the sequence-space wrap in these workloads.)
    fn buffered_ranges(&self) -> Vec<(u32, u32)> {
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for (&seq, &len) in &self.ooo {
            let end = seq.wrapping_add(len);
            match ranges.last_mut() {
                Some((_, last_end)) if *last_end == seq => *last_end = end,
                _ => ranges.push((seq, end)),
            }
        }
        ranges
    }

    /// The SACK blocks for a duplicate ACK. Per RFC 2018 the block containing
    /// the segment that triggered the ACK comes first; the rest follow in
    /// ascending order, capped at the option's four-block limit.
    fn sack_blocks(&self, newest_seq: Option<u32>) -> SackBlocks {
        let mut ranges = self.buffered_ranges();
        if let Some(seq) = newest_seq {
            if let Some(pos) =
                ranges.iter().position(|&(s, e)| !seq_before(seq, s) && seq_before(seq, e))
            {
                ranges[..=pos].rotate_right(1);
            }
        }
        ranges.truncate(SackBlocks::MAX);
        SackBlocks::new(&ranges)
    }

    /// The connection four-tuple.
    pub fn flow(&self) -> FourTuple {
        self.flow
    }

    /// The current state.
    pub fn state(&self) -> AppState {
        self.state
    }

    /// True once the connection has finished (cleanly or not).
    pub fn is_done(&self) -> bool {
        matches!(self.state, AppState::Done | AppState::Failed)
    }

    /// The initial SYN packet. Also used for retransmissions.
    pub fn syn_packet(&mut self) -> Packet {
        self.syn_count += 1;
        self.builder.tcp_syn(self.seq)
    }

    /// Processes a packet arriving from the tunnel (sent by MopEye),
    /// appending the packets the app sends in response to `out` — a buffer
    /// the caller owns and drains, so a delivery allocates nothing for its
    /// replies (the engine's ingress stage keeps one for its whole life).
    pub fn handle_into(&mut self, packet: &Packet, out: &mut Vec<Packet>) {
        let Some(tcp) = packet.tcp() else { return };
        // Only handle packets for our connection (reverse direction).
        if packet.four_tuple() != Some(self.flow.reversed()) {
            return;
        }
        if tcp.flags.contains(TcpFlags::RST) {
            self.state = AppState::Failed;
            return;
        }
        match self.state {
            AppState::SynSent if tcp.is_syn_ack() => {
                self.seq = self.seq.wrapping_add(1);
                self.ack = tcp.seq.wrapping_add(1);
                self.state = AppState::Established;
                out.push(self.builder.tcp_ack(self.seq, self.ack));
                if self.request_len > 0 {
                    let len = std::mem::take(&mut self.request_len);
                    out.push(self.builder.tcp_data(self.seq, self.ack, len));
                    self.seq = self.seq.wrapping_add(len as u32);
                    self.request_sent = true;
                }
            }
            AppState::Established | AppState::Closing => {
                let mut advanced = false;
                let len = tcp.payload_len;
                if len > 0 {
                    if tcp.seq == self.ack {
                        // In-order: accept, then drain any buffered segments
                        // the arrival made contiguous.
                        self.bytes_received += usize::from(len);
                        self.ack = tcp.seq.wrapping_add(u32::from(len));
                        advanced = true;
                        while let Some(len) = self.ooo.remove(&self.ack) {
                            self.bytes_received += len as usize;
                            self.ack = self.ack.wrapping_add(len);
                        }
                    } else if seq_before(tcp.seq, self.ack) {
                        // A duplicate of data already reassembled: re-ACK so
                        // the sender's scoreboard advances, relay nothing.
                        self.dup_acks_sent += 1;
                        out.push(self.builder.tcp_ack(self.seq, self.ack));
                        return;
                    } else {
                        // A sequence hole: buffer the segment and answer
                        // with a SACK-carrying duplicate ACK.
                        self.ooo.entry(tcp.seq).or_insert(u32::from(len));
                        self.dup_acks_sent += 1;
                        let blocks = self.sack_blocks(Some(tcp.seq));
                        out.push(self.builder.tcp_sack_ack(self.seq, self.ack, blocks));
                        return;
                    }
                }
                if tcp.flags.contains(TcpFlags::FIN) {
                    self.pending_fin = Some(tcp.seq);
                }
                if let Some(fin_seq) = self.pending_fin {
                    if fin_seq == self.ack {
                        self.pending_fin = None;
                        self.ack = self.ack.wrapping_add(1);
                        if self.state == AppState::Established {
                            // Server closed first: ACK its FIN and send ours.
                            out.push(self.builder.tcp_ack(self.seq, self.ack));
                            out.push(self.builder.tcp_fin(self.seq, self.ack));
                            self.seq = self.seq.wrapping_add(1);
                            self.state = AppState::Done;
                            return;
                        }
                        // We are closing and this is the relay's FIN: final ACK.
                        out.push(self.builder.tcp_ack(self.seq, self.ack));
                        self.state = AppState::Done;
                        return;
                    }
                    if tcp.flags.contains(TcpFlags::FIN) {
                        // FIN beyond a hole: hold it and ask for the gap.
                        self.dup_acks_sent += 1;
                        let blocks = self.sack_blocks(None);
                        out.push(self.builder.tcp_sack_ack(self.seq, self.ack, blocks));
                        return;
                    }
                }
                if advanced {
                    out.push(self.builder.tcp_ack(self.seq, self.ack));
                }
                // Decide whether we are satisfied and can close.
                if self.state == AppState::Established
                    && self.request_sent
                    && self.bytes_received > 0
                    && self.bytes_received >= self.close_after
                {
                    out.push(self.builder.tcp_fin(self.seq, self.ack));
                    self.seq = self.seq.wrapping_add(1);
                    self.state = AppState::Closing;
                }
            }
            _ => {}
        }
    }
}

/// A simulated app's DNS query over UDP.
#[derive(Debug)]
pub struct DnsClient {
    /// UID of the owning app.
    pub uid: u32,
    flow: FourTuple,
    builder: PacketBuilder,
    query: DnsMessage,
    /// True once a response has been received.
    pub answered: bool,
    /// Addresses returned by the resolver.
    pub addresses: Vec<std::net::Ipv4Addr>,
}

impl DnsClient {
    /// Creates a DNS client that will query `name` from local endpoint `src`
    /// towards resolver `resolver`.
    pub fn new(uid: u32, src: Endpoint, resolver: Endpoint, id: u16, name: &str) -> Self {
        let flow = FourTuple::new(src, resolver);
        Self {
            uid,
            flow,
            builder: PacketBuilder::new(src, resolver),
            query: DnsMessage::query(id, name),
            answered: false,
            addresses: Vec::new(),
        }
    }

    /// The query packet to write into the tunnel.
    pub fn query_packet(&self) -> Packet {
        self.builder.dns(&self.query)
    }

    /// Processes a packet from the tunnel; returns true if it was our answer.
    pub fn handle(&mut self, packet: &Packet) -> bool {
        if packet.four_tuple() != Some(self.flow.reversed()) {
            return false;
        }
        let Some(udp) = packet.udp() else { return false };
        let Ok(msg) = DnsMessage::parse(&udp.payload) else { return false };
        if !msg.flags.response || msg.id != self.query.id {
            return false;
        }
        self.answered = true;
        self.addresses = msg.a_records();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;

    fn flow() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443))
    }

    /// The app's replies to one packet from the relay.
    fn handle(app: &mut AppEndpoint, packet: &Packet) -> Vec<Packet> {
        let mut out = Vec::new();
        app.handle_into(packet, &mut out);
        out
    }

    /// The relay side of the handshake, hand-rolled for the test.
    fn relay_builder() -> PacketBuilder {
        PacketBuilder::new(flow().dst, flow().src)
    }

    #[test]
    fn full_client_lifecycle_request_response_close() {
        let mut app = AppEndpoint::new(10100, flow(), 5, 1000);
        let syn = app.syn_packet();
        assert_eq!(syn.tcp().unwrap().flags, TcpFlags::SYN);
        assert_eq!(app.state(), AppState::SynSent);
        assert_eq!(app.syn_count, 1);

        // Relay answers with SYN/ACK.
        let syn_ack = relay_builder().tcp_syn_ack(7000, syn.tcp().unwrap().seq);
        let replies = handle(&mut app, &syn_ack);
        assert_eq!(app.state(), AppState::Established);
        assert_eq!(replies.len(), 2, "ACK plus request data");
        assert_eq!(replies[0].tcp().unwrap().flags, TcpFlags::ACK);
        assert_eq!(replies[0].tcp().unwrap().payload_len, 0);
        assert_eq!(replies[1].tcp().unwrap().payload_len, 5);

        // Relay forwards 1500 bytes of response data in two segments.
        let data1 = relay_builder().tcp_data(7001, replies[1].tcp().unwrap().seq + 5, 900);
        let out = handle(&mut app, &data1);
        assert_eq!(out.len(), 1); // Just an ACK; not enough data to close yet.
        let data2 = relay_builder().tcp_data(7901, 0, 600);
        let out = handle(&mut app, &data2);
        assert_eq!(app.bytes_received, 1500);
        // ACK plus FIN since close_after=1000 reached.
        assert_eq!(out.len(), 2);
        assert!(out[1].tcp().unwrap().flags.contains(TcpFlags::FIN));
        assert_eq!(app.state(), AppState::Closing);

        // Relay sends its own FIN; the app's final ACK finishes it.
        let fin = relay_builder().tcp_fin(8501, 0);
        let out = handle(&mut app, &fin);
        assert_eq!(out.len(), 1);
        assert!(app.is_done());
        assert_eq!(app.state(), AppState::Done);
    }

    #[test]
    fn the_request_is_sent_exactly_once_and_not_kept() {
        let mut app = AppEndpoint::new(1, flow(), 5, 10);
        let syn = app.syn_packet();
        let syn_ack = relay_builder().tcp_syn_ack(100, syn.tcp().unwrap().seq);
        let first = handle(&mut app, &syn_ack);
        assert_eq!(first[1].tcp().unwrap().payload_len, 5);
        assert_eq!(app.request_len, 0, "the request went into its segment");
        // A duplicated SYN/ACK reaches an established endpoint: no second copy.
        let second = handle(&mut app, &syn_ack);
        let carrying =
            |out: &[Packet]| out.iter().filter(|p| p.tcp().unwrap().payload_len > 0).count();
        assert_eq!((carrying(&first), carrying(&second)), (1, 0));
        assert_eq!(app.state(), AppState::Established);
        // The request still counts as sent, so a full response closes.
        let out = handle(&mut app, &relay_builder().tcp_data(101, 0, 10));
        assert_eq!(app.state(), AppState::Closing);
        assert!(out[1].tcp().unwrap().flags.contains(TcpFlags::FIN));
    }

    #[test]
    fn server_initiated_close_is_handled() {
        let mut app = AppEndpoint::new(1, flow(), 1, usize::MAX);
        let syn = app.syn_packet();
        handle(&mut app, &relay_builder().tcp_syn_ack(100, syn.tcp().unwrap().seq));
        // Some data, then the relay closes first (close_after is huge so the
        // app would not have closed on its own).
        handle(&mut app, &relay_builder().tcp_data(101, 0, 10));
        assert_eq!(app.state(), AppState::Established);
        let out = handle(&mut app, &relay_builder().tcp_fin(111, 0));
        assert_eq!(out.len(), 2); // ACK of FIN plus our FIN.
        assert!(out[1].tcp().unwrap().flags.contains(TcpFlags::FIN));
        assert!(app.is_done());
    }

    #[test]
    fn rst_fails_the_connection() {
        let mut app = AppEndpoint::new(1, flow(), 0, 0);
        let _syn = app.syn_packet();
        let out = handle(&mut app, &relay_builder().tcp_rst_ack(1, 1));
        assert!(out.is_empty());
        assert_eq!(app.state(), AppState::Failed);
        assert!(app.is_done());
    }

    #[test]
    fn packets_for_other_flows_are_ignored() {
        let mut app = AppEndpoint::new(1, flow(), 0, 0);
        let other =
            PacketBuilder::new(Endpoint::v4(9, 9, 9, 9, 443), Endpoint::v4(10, 0, 0, 2, 39999));
        assert!(handle(&mut app, &other.tcp_syn_ack(5, 5)).is_empty());
        assert_eq!(app.state(), AppState::SynSent);
    }

    #[test]
    fn empty_request_connects_without_sending_data() {
        let mut app = AppEndpoint::new(1, flow(), 0, 0);
        let syn = app.syn_packet();
        let replies = handle(&mut app, &relay_builder().tcp_syn_ack(50, syn.tcp().unwrap().seq));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].tcp().unwrap().flags, TcpFlags::ACK);
        assert_eq!(replies[0].tcp().unwrap().payload_len, 0);
        assert_eq!(app.state(), AppState::Established);
    }

    /// An established endpoint with the relay's stream starting at seq 101.
    fn established_app() -> AppEndpoint {
        let mut app = AppEndpoint::new(1, flow(), 1, usize::MAX);
        let syn = app.syn_packet();
        handle(&mut app, &relay_builder().tcp_syn_ack(100, syn.tcp().unwrap().seq));
        assert_eq!(app.state(), AppState::Established);
        app
    }

    #[test]
    fn out_of_order_segments_are_buffered_and_reassembled() {
        let mut app = established_app();
        // The second segment arrives first: hole at 101..111.
        let out = handle(&mut app, &relay_builder().tcp_data(111, 0, 10));
        assert_eq!(out.len(), 1);
        let dup = out[0].tcp().unwrap();
        assert_eq!(dup.ack, 101, "cumulative ACK does not move past the hole");
        assert_eq!(dup.sack_blocks().unwrap().as_slice(), &[(111, 121)]);
        assert_eq!(app.bytes_received, 0);
        assert_eq!(app.dup_acks_sent, 1);
        // The hole fills: one ACK covering both segments.
        let out = handle(&mut app, &relay_builder().tcp_data(101, 0, 10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tcp().unwrap().ack, 121);
        assert!(out[0].tcp().unwrap().sack_blocks().is_none());
        assert_eq!(app.bytes_received, 20);
    }

    #[test]
    fn duplicate_segments_are_re_acked_without_recounting() {
        let mut app = established_app();
        let seg = relay_builder().tcp_data(101, 0, 10);
        handle(&mut app, &seg);
        assert_eq!(app.bytes_received, 10);
        // The network duplicated the segment: re-ACK, count nothing twice.
        let out = handle(&mut app, &seg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tcp().unwrap().ack, 111);
        assert_eq!(app.bytes_received, 10);
        assert_eq!(app.dup_acks_sent, 1);
    }

    #[test]
    fn fin_beyond_a_hole_is_held_until_contiguous() {
        let mut app = established_app();
        handle(&mut app, &relay_builder().tcp_data(101, 0, 10));
        // The 111..121 segment is lost; the relay's FIN at 121 races ahead.
        let out = handle(&mut app, &relay_builder().tcp_fin(121, 0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tcp().unwrap().ack, 111, "FIN not acknowledged yet");
        assert_eq!(app.state(), AppState::Established);
        // Retransmission fills the hole: the held FIN is processed and the
        // app closes exactly as if the stream had arrived in order.
        let out = handle(&mut app, &relay_builder().tcp_data(111, 0, 10));
        assert_eq!(out.len(), 2, "ACK of FIN plus our FIN");
        assert_eq!(out[0].tcp().unwrap().ack, 122);
        assert!(out[1].tcp().unwrap().flags.contains(TcpFlags::FIN));
        assert_eq!(app.state(), AppState::Done);
        assert_eq!(app.bytes_received, 20);
    }

    #[test]
    fn sack_blocks_lead_with_the_newest_block() {
        let mut app = established_app();
        // Two separate holes; the newest arrival's block must come first
        // (RFC 2018), with the rest in ascending order.
        handle(&mut app, &relay_builder().tcp_data(111, 0, 10));
        let out = handle(&mut app, &relay_builder().tcp_data(131, 0, 10));
        assert_eq!(
            out[0].tcp().unwrap().sack_blocks().unwrap().as_slice(),
            &[(131, 141), (111, 121)]
        );
        // A third arrival joining the two runs collapses them into one block.
        let out = handle(&mut app, &relay_builder().tcp_data(121, 0, 10));
        assert_eq!(out[0].tcp().unwrap().sack_blocks().unwrap().as_slice(), &[(111, 141)]);
        assert_eq!(app.dup_acks_sent, 3);
    }

    /// A byte-keeping reference receiver: it keeps every received byte,
    /// keyed by its sequence number, reassembles the stream from them and
    /// predicts the endpoint's replies from the bytes it holds.
    struct ByteReference {
        app: PacketBuilder,
        seq: u32,
        ack: u32,
        held: BTreeMap<u32, u8>,
        stream: Vec<u8>,
        pending_fin: Option<u32>,
        dup_acks_sent: u32,
        done: bool,
    }

    impl ByteReference {
        fn new(app: &AppEndpoint) -> Self {
            let (seq, ack) = (app.seq, app.ack);
            let app = PacketBuilder::new(flow().src, flow().dst);
            Self {
                app,
                seq,
                ack,
                held: BTreeMap::new(),
                stream: Vec::new(),
                pending_fin: None,
                dup_acks_sent: 0,
                done: false,
            }
        }

        /// The runs of held bytes above the hole, the one holding `newest`
        /// first, at most four.
        fn sack_blocks(&self, newest: Option<u32>) -> SackBlocks {
            let mut runs: Vec<(u32, u32)> = Vec::new();
            for &seq in self.held.keys() {
                match runs.last_mut() {
                    Some((_, end)) if *end == seq => *end += 1,
                    _ => runs.push((seq, seq + 1)),
                }
            }
            if let Some(pos) = newest.and_then(|n| runs.iter().position(|&(s, e)| s <= n && n < e))
            {
                runs[..=pos].rotate_right(1);
            }
            runs.truncate(SackBlocks::MAX);
            SackBlocks::new(&runs)
        }

        fn deliver(&mut self, seq: u32, payload: &[u8], fin: bool) -> Vec<Packet> {
            if self.done {
                return Vec::new();
            }
            let mut advanced = false;
            if !payload.is_empty() {
                if seq_before(seq, self.ack) {
                    self.dup_acks_sent += 1;
                    return vec![self.app.tcp_ack(self.seq, self.ack)];
                }
                for (at, &byte) in (seq..).zip(payload) {
                    self.held.entry(at).or_insert(byte);
                }
                if seq != self.ack {
                    self.dup_acks_sent += 1;
                    return vec![self.app.tcp_sack_ack(
                        self.seq,
                        self.ack,
                        self.sack_blocks(Some(seq)),
                    )];
                }
                while let Some(byte) = self.held.remove(&self.ack) {
                    self.stream.push(byte);
                    self.ack += 1;
                }
                advanced = true;
            }
            if fin {
                self.pending_fin = Some(seq);
            }
            if self.pending_fin == Some(self.ack) {
                self.ack += 1;
                self.done = true;
                return vec![
                    self.app.tcp_ack(self.seq, self.ack),
                    self.app.tcp_fin(self.seq, self.ack),
                ];
            }
            if fin {
                self.dup_acks_sent += 1;
                return vec![self.app.tcp_sack_ack(self.seq, self.ack, self.sack_blocks(None))];
            }
            if advanced {
                vec![self.app.tcp_ack(self.seq, self.ack)]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn length_only_reassembly_matches_a_byte_keeping_reference() {
        const LENS: [u32; 12] = [1400, 1400, 700, 1400, 300, 1400, 1400, 90, 1400, 1400, 1400, 512];
        let mut segments = Vec::new();
        let mut seq = 101u32;
        for (i, &len) in LENS.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|b| (b as usize * 7 + i) as u8).collect();
            segments.push((seq, payload));
            seq += len;
        }
        let fin_seq = seq;
        let sent: Vec<u8> = segments.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        let (mut sack_acks, mut fins_beyond_a_hole) = (0, 0);
        for seed in 1..=64u64 {
            // A deterministic shuffle of every segment, about a third of them
            // twice, with the FIN dropped in at a random position.
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move |bound: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % bound as u64) as usize
            };
            let mut order: Vec<Option<usize>> = (0..segments.len()).map(Some).collect();
            order.extend((0..segments.len()).filter(|_| next(3) == 0).map(Some));
            for i in (1..order.len()).rev() {
                order.swap(i, next(i + 1));
            }
            order.insert(next(order.len() + 1), None);

            let mut app = established_app();
            let mut reference = ByteReference::new(&app);
            let relay = relay_builder();
            for delivery in order {
                let (packet, want) = match delivery {
                    Some(i) => {
                        let (seq, payload) = &segments[i];
                        (
                            relay.tcp_data(*seq, 0, payload.len()),
                            reference.deliver(*seq, payload, false),
                        )
                    }
                    None => {
                        fins_beyond_a_hole += usize::from(reference.ack != fin_seq);
                        (relay.tcp_fin(fin_seq, 0), reference.deliver(fin_seq, &[], true))
                    }
                };
                let got = handle(&mut app, &packet);
                sack_acks +=
                    got.iter().filter(|p| p.tcp().unwrap().sack_blocks().is_some()).count();
                assert_eq!(got, want, "seed {seed}: replies differ");
                assert_eq!(app.bytes_received, reference.stream.len(), "seed {seed}");
                assert_eq!(app.dup_acks_sent, reference.dup_acks_sent, "seed {seed}");
            }
            assert_eq!(app.state(), AppState::Done, "seed {seed}");
            assert!(app.ooo.is_empty() && reference.held.is_empty(), "seed {seed}");
            assert_eq!(reference.stream, sent, "seed {seed}: the stream reassembled");
        }
        assert!(
            sack_acks > 64 && fins_beyond_a_hole > 8,
            "{sack_acks} SACK-ACKs, {fins_beyond_a_hole} early FINs"
        );
    }

    #[test]
    fn dns_client_matches_only_its_transaction() {
        let resolver = Endpoint::v4(192, 168, 1, 1, 53);
        let src = Endpoint::v4(10, 0, 0, 2, 41000);
        let mut client = DnsClient::new(1, src, resolver, 0x42, "e3.whatsapp.net");
        let query_pkt = client.query_packet();
        assert_eq!(query_pkt.udp().unwrap().dst_port, 53);

        let reply_builder = PacketBuilder::new(resolver, src);
        // A response with the wrong id is ignored.
        let wrong = DnsMessage::answer(&DnsMessage::query(0x43, "e3.whatsapp.net"), &[], 60);
        assert!(!client.handle(&reply_builder.dns(&wrong)));
        assert!(!client.answered);
        // The right one completes it.
        let answer = DnsMessage::answer(
            &DnsMessage::query(0x42, "e3.whatsapp.net"),
            &["158.85.5.197".parse().unwrap()],
            60,
        );
        assert!(client.handle(&reply_builder.dns(&answer)));
        assert!(client.answered);
        assert_eq!(client.addresses.len(), 1);
    }
}
