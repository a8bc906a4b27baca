//! Property-based tests for the user-space TCP state machine: it must never
//! panic, never relay data it has not been given, and keep its sequence-space
//! accounting consistent no matter what segment sequence an app throws at it.

use proptest::prelude::*;

use mop_packet::{Endpoint, FourTuple, PacketBuilder, TcpFlags};
use mop_tcpstack::{RelayAction, TcpStateMachine};

fn flow() -> FourTuple {
    FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40_000), Endpoint::v4(31, 13, 79, 251, 443))
}

/// The kinds of app-side inputs a fuzzed connection can produce.
#[derive(Debug, Clone)]
enum AppInput {
    Syn,
    Data(Vec<u8>),
    PureAck,
    Fin,
    Rst,
    ExternalConnected,
    ExternalData(usize),
    ExternalWriteComplete,
    ExternalClosed(bool),
}

fn arb_input() -> impl Strategy<Value = AppInput> {
    prop_oneof![
        2 => Just(AppInput::Syn),
        4 => proptest::collection::vec(any::<u8>(), 1..600).prop_map(AppInput::Data),
        3 => Just(AppInput::PureAck),
        2 => Just(AppInput::Fin),
        1 => Just(AppInput::Rst),
        3 => Just(AppInput::ExternalConnected),
        3 => (1usize..5_000).prop_map(AppInput::ExternalData),
        2 => Just(AppInput::ExternalWriteComplete),
        1 => any::<bool>().prop_map(AppInput::ExternalClosed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn state_machine_never_panics_and_never_invents_data(
        inputs in proptest::collection::vec(arb_input(), 1..60),
    ) {
        let app = PacketBuilder::new(flow().src, flow().dst);
        let mut machine = TcpStateMachine::new(flow(), 7_000);
        let mut app_seq = 1_000u32;
        let mut bytes_given: u64 = 0;
        let mut bytes_relayed: u64 = 0;
        for input in inputs {
            match input {
                AppInput::Syn => {
                    let pkt = app.tcp_syn(app_seq);
                    let (_, actions, _) = machine.on_tunnel_segment(pkt.tcp().unwrap());
                    let relays_data =
                        actions.iter().any(|a| matches!(a, RelayAction::RelayData { .. }));
                    prop_assert!(!relays_data);
                }
                AppInput::Data(payload) => {
                    bytes_given += payload.len() as u64;
                    let pkt = app.tcp_data(app_seq.wrapping_add(1), 0, payload);
                    let (_, actions, _) = machine.on_tunnel_segment(pkt.tcp().unwrap());
                    for action in actions {
                        if let RelayAction::RelayData { len } = action {
                            bytes_relayed += len as u64;
                            app_seq = app_seq.wrapping_add(len as u32);
                        }
                    }
                }
                AppInput::PureAck => {
                    let pkt = app.tcp_ack(app_seq.wrapping_add(1), 0);
                    let (packets, actions, _) = machine.on_tunnel_segment(pkt.tcp().unwrap());
                    // A pure ACK is never answered with data.
                    prop_assert!(packets.iter().all(|p| p.tcp().unwrap().payload.is_empty()));
                    let relays_data =
                        actions.iter().any(|a| matches!(a, RelayAction::RelayData { .. }));
                    prop_assert!(!relays_data);
                }
                AppInput::Fin => {
                    let pkt = app.tcp_fin(app_seq.wrapping_add(1), 0);
                    let _ = machine.on_tunnel_segment(pkt.tcp().unwrap());
                }
                AppInput::Rst => {
                    let pkt = app.tcp_rst_ack(app_seq.wrapping_add(1), 0);
                    let (_, actions, _) = machine.on_tunnel_segment(pkt.tcp().unwrap());
                    if !actions.is_empty() {
                        prop_assert!(actions.contains(&RelayAction::CloseExternal));
                    }
                }
                AppInput::ExternalConnected => {
                    let packets = machine.on_external_connected();
                    // At most one SYN/ACK, and only as a response to a SYN.
                    prop_assert!(packets.len() <= 1);
                }
                AppInput::ExternalData(len) => {
                    let body = vec![0xaa; len];
                    let packets = machine.on_external_data(&body);
                    // Forwarded segments respect the 1460-byte MSS of §3.4.
                    prop_assert!(packets.iter().all(|p| p.tcp().unwrap().payload.len() <= 1460));
                    let forwarded: usize = packets.iter().map(|p| p.tcp().unwrap().payload.len()).sum();
                    prop_assert!(forwarded == 0 || forwarded == len);
                }
                AppInput::ExternalWriteComplete => {
                    let _ = machine.on_external_write_complete();
                }
                AppInput::ExternalClosed(reset) => {
                    machine.on_external_closed_into(reset, &mut Vec::new());
                }
            }
        }
        // The relay never invents app data out of thin air.
        prop_assert!(bytes_relayed <= bytes_given);
    }

    #[test]
    fn well_behaved_connection_always_completes(
        request in proptest::collection::vec(any::<u8>(), 1..800),
        response_len in 1usize..20_000,
        isn in any::<u32>(),
    ) {
        // The canonical lifecycle: SYN → external connect → ACK → data →
        // response → FIN → server close → last ACK. Whatever the sizes and
        // sequence numbers, the machine must end in a terminal state having
        // relayed everything exactly once.
        let app = PacketBuilder::new(flow().src, flow().dst);
        let mut machine = TcpStateMachine::new(flow(), 9_000);
        let syn = app.tcp_syn(isn);
        let (_, actions, _) = machine.on_tunnel_segment(syn.tcp().unwrap());
        prop_assert_eq!(actions.len(), 1);
        let syn_ack = machine.on_external_connected();
        prop_assert_eq!(syn_ack.len(), 1);
        let data = app.tcp_data(isn.wrapping_add(1), 0, request.clone());
        let (_, actions, _) = machine.on_tunnel_segment(data.tcp().unwrap());
        let relayed: usize = actions
            .iter()
            .map(|a| match a {
                RelayAction::RelayData { len } => *len,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(relayed, request.len());
        let response = vec![0x55; response_len];
        let packets = machine.on_external_data(&response);
        let forwarded: usize = packets.iter().map(|p| p.tcp().unwrap().payload.len()).sum();
        prop_assert_eq!(forwarded, response_len);
        // App closes; server side follows; app's final ACK ends it.
        let fin = app.tcp_fin(isn.wrapping_add(1).wrapping_add(request.len() as u32), 0);
        let (acks, actions, _) = machine.on_tunnel_segment(fin.tcp().unwrap());
        prop_assert_eq!(acks.len(), 1);
        prop_assert!(actions.contains(&RelayAction::HalfCloseExternal));
        let mut fins = Vec::new();
        machine.on_external_closed_into(false, &mut fins);
        prop_assert_eq!(fins.len(), 1);
        let last_seq = fins[0].tcp().unwrap().seq.wrapping_add(1);
        let last_ack = app.tcp_ack(0, last_seq);
        let (_, actions, _) = machine.on_tunnel_segment(last_ack.tcp().unwrap());
        prop_assert!(actions.contains(&RelayAction::RemoveClient));
        prop_assert!(machine.state().is_terminal());
    }

    #[test]
    fn forwarded_segments_have_contiguous_sequence_numbers(chunks in proptest::collection::vec(1usize..4_000, 1..12)) {
        let app = PacketBuilder::new(flow().src, flow().dst);
        let mut machine = TcpStateMachine::new(flow(), 100);
        machine.on_tunnel_segment(app.tcp_syn(1).tcp().unwrap());
        machine.on_external_connected();
        machine.on_tunnel_segment(app.tcp_ack(2, 101).tcp().unwrap());
        let mut expected_seq: Option<u32> = None;
        for chunk in chunks {
            for pkt in machine.on_external_data(&vec![1u8; chunk]) {
                let tcp = pkt.tcp().unwrap();
                if let Some(expected) = expected_seq {
                    prop_assert_eq!(tcp.seq, expected);
                }
                expected_seq = Some(tcp.seq.wrapping_add(tcp.payload.len() as u32));
                prop_assert!(tcp.flags.contains(TcpFlags::ACK));
            }
        }
    }
}

/// A model receiver for the recovery proptest: tracks the cumulative ACK
/// edge plus out-of-order segments, and reports up to four SACK ranges.
#[derive(Default)]
struct ModelReceiver {
    ack: u32,
    ooo: std::collections::BTreeMap<u32, usize>,
}

impl ModelReceiver {
    fn new(isn: u32) -> Self {
        Self { ack: isn, ooo: std::collections::BTreeMap::new() }
    }

    fn ingest(&mut self, seq: u32, len: usize) -> (u32, Option<mop_packet::SackBlocks>) {
        if seq == self.ack {
            self.ack = self.ack.wrapping_add(len as u32);
            while let Some(next_len) = self.ooo.remove(&self.ack) {
                self.ack = self.ack.wrapping_add(next_len as u32);
            }
        } else if seq.wrapping_sub(self.ack) < 0x8000_0000 {
            self.ooo.insert(seq, len);
        }
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for (&seq, &len) in &self.ooo {
            let end = seq.wrapping_add(len as u32);
            match ranges.last_mut() {
                Some(last) if last.1 == seq => last.1 = end,
                _ => ranges.push((seq, end)),
            }
        }
        ranges.truncate(4);
        let sack =
            if ranges.is_empty() { None } else { Some(mop_packet::SackBlocks::new(&ranges)) };
        (self.ack, sack)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Convergence: whatever finite drop / reorder / duplicate schedule the
    /// data path applies, the sender's recovery state must drain — every
    /// byte reaches the receiver and nothing stays in flight — via fast
    /// retransmit and RTO alone, for both congestion controllers.
    #[test]
    fn recovery_converges_under_random_drop_and_reorder(
        sizes in proptest::collection::vec(1usize..1_200, 1..12),
        // Per-delivery fates: 0 = deliver, 1 = drop, 2 = duplicate,
        // 3 = defer to the back of the queue (reordering). Once the
        // schedule is exhausted every delivery succeeds, so the network is
        // eventually fair and convergence is required, not hoped for.
        fates in proptest::collection::vec(0u8..4, 0..40),
        cubic in any::<bool>(),
    ) {
        use mop_tcpstack::{CongestionAlgo, RecoveryState};
        let algo = if cubic { CongestionAlgo::Cubic } else { CongestionAlgo::Reno };
        let mut recovery = RecoveryState::new(algo, Some(50_000_000));
        let mut receiver = ModelReceiver::new(5_000);
        let mut now: u64 = 0;
        let mut queue: std::collections::VecDeque<(u32, usize)> =
            std::collections::VecDeque::new();
        let mut seq = 5_000u32;
        let mut total = 0usize;
        for &len in &sizes {
            recovery.on_data_sent(seq, &vec![0u8; len], now);
            queue.push_back((seq, len));
            seq = seq.wrapping_add(len as u32);
            total += len;
        }
        let final_ack = seq;
        let mut fates = fates.into_iter();
        let mut steps = 0;
        while recovery.has_inflight() {
            steps += 1;
            prop_assert!(steps < 2_000, "recovery stuck: {total} bytes, {:?}", algo);
            now += 10_000_000;
            let Some((seg_seq, len)) = queue.pop_front() else {
                // Nothing left in the air but data still unacknowledged:
                // only the retransmission timer can make progress.
                let rt = recovery.on_rto(now);
                prop_assert!(rt.is_some(), "inflight but RTO found nothing to resend");
                let rt = rt.unwrap();
                queue.push_back((rt.seq, rt.payload.len()));
                continue;
            };
            match fates.next().unwrap_or(0) {
                1 => continue, // dropped on the floor
                2 => queue.push_back((seg_seq, len)), // duplicated: deliver now and later
                3 => {
                    // Deferred behind everything currently in the air.
                    queue.push_back((seg_seq, len));
                    continue;
                }
                _ => {}
            }
            let (ack, sack) = receiver.ingest(seg_seq, len);
            let reaction = recovery.on_ack(ack, sack, now);
            for rt in reaction.retransmits {
                queue.push_back((rt.seq, rt.payload.len()));
            }
        }
        prop_assert_eq!(receiver.ack, final_ack, "receiver missing bytes");
        prop_assert!(!recovery.has_inflight());
    }

    /// Recycled buffers are indistinguishable from fresh copies. Random
    /// reads of random bytes go through the pooled segmenter with a free
    /// list that starts out full of garbage; delivered packets and
    /// cumulatively ACKed scoreboard copies keep returning their buffers
    /// for later segments to overwrite. Every emitted payload must equal
    /// its input chunk, and a SACK-hole fast retransmit and an RTO
    /// retransmit — of a segment sent before all that reuse — must still
    /// be byte-identical to the original transmission.
    #[test]
    fn pooled_segments_match_their_input_and_retransmits_match_the_original(
        reads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..4_000), 2..7),
        dirt in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..3_000), 0..8),
        acked_share in 0usize..4,
    ) {
        use mop_tcpstack::{CongestionAlgo, RecoveryState, SegmentPool};
        let app = PacketBuilder::new(flow().src, flow().dst);
        let mut machine = TcpStateMachine::new(flow(), 9_000);
        machine.on_tunnel_segment(app.tcp_syn(1).tcp().unwrap());
        machine.on_external_connected();
        machine.on_tunnel_segment(app.tcp_ack(2, 9_001).tcp().unwrap());
        let mut recovery = RecoveryState::new(CongestionAlgo::Reno, Some(50_000_000));
        let mut pool = SegmentPool::new();
        for buf in dirt {
            pool.put(buf);
        }
        // (seq, end, wire bytes) of every original transmission.
        let mut sent: Vec<(u32, u32, Vec<u8>)> = Vec::new();
        let mut acked = 0usize;
        let mut out = Vec::new();
        let mut now = 0u64;
        for read in &reads {
            now += 1_000_000;
            machine.on_external_data_into(read, &mut pool, &mut out);
            let payloads: Vec<&[u8]> =
                out.iter().map(|p| p.tcp().unwrap().payload.as_slice()).collect();
            prop_assert!(payloads.iter().all(|p| !p.is_empty() && p.len() <= 1_460));
            prop_assert_eq!(&payloads.concat(), read, "payloads are the read, in order");
            for packet in out.drain(..) {
                let (seq, copy) = {
                    let segment = packet.tcp().unwrap();
                    (segment.seq, pool.filled(&segment.payload))
                };
                prop_assert_eq!(&copy, &packet.tcp().unwrap().payload);
                let end = seq.wrapping_add(copy.len() as u32);
                recovery.on_data_sent_owned(seq, copy, now);
                sent.push((seq, end, packet.to_bytes()));
                // Delivered: the payload buffer goes back for reuse.
                pool.recycle(packet);
            }
            // The app ACKs part of what is outstanding (never the last
            // segment), which returns those scoreboard copies to the pool
            // for the next read to scribble over.
            let upto = acked + (sent.len() - 1 - acked) * acked_share / 4;
            if upto > acked {
                let reaction = recovery.on_ack_recycling(sent[upto - 1].1, None, now, &mut pool);
                prop_assert!(reaction.advanced && reaction.retransmits.is_empty());
                acked = upto;
            }
        }
        prop_assert!(recovery.has_inflight());
        // Three duplicate ACKs SACKing everything above the first hole.
        let (hole_seq, hole_end, ref original) = sent[acked];
        let sack = (acked + 1 < sent.len())
            .then(|| mop_packet::SackBlocks::new(&[(hole_end, sent[sent.len() - 1].1)]));
        let mut resent = Vec::new();
        for _ in 0..3 {
            now += 1_000_000;
            resent.extend(recovery.on_ack_recycling(hole_seq, sack, now, &mut pool).retransmits);
        }
        prop_assert_eq!(resent.len(), 1, "one hole, one fast retransmit");
        let fast = resent.remove(0);
        prop_assert_eq!(fast.seq, hole_seq);
        prop_assert_eq!(&machine.retransmit_data(fast.seq, fast.payload).to_bytes(), original);
        // The timer path replays the same segment from the same scoreboard.
        let rto = recovery.on_rto(now + 2_000_000_000).expect("the hole is still in flight");
        prop_assert_eq!(rto.seq, hole_seq);
        prop_assert_eq!(&machine.retransmit_data(rto.seq, rto.payload).to_bytes(), original);
    }
}
