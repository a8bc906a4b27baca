//! The per-connection TCP state machine.
//!
//! One [`TcpStateMachine`] exists per internal connection. It consumes two
//! kinds of input:
//!
//! * tunnel segments arriving from the app ([`TcpStateMachine::on_segment_into`]),
//! * socket-side events arriving from the external connection
//!   (`on_external_*_into` methods).
//!
//! For each input it emits the packets that must be written back to the
//! tunnel (towards the app) and the [`RelayAction`]s the engine must apply to
//! the external socket. The processing rules follow §2.3 of the paper:
//! the SYN/ACK to the app is deferred until the external connect completes,
//! data from the app is buffered towards the socket, pure ACKs are discarded,
//! FIN triggers a half close, RST tears everything down. On the reverse path
//! data is forwarded to the app without waiting for ACKs and with the MSS and
//! window tuning of §3.4 (1460-byte segments, 64 KiB window, no congestion or
//! flow control inside the tunnel).
//!
//! # Who owns the outputs
//!
//! The `*_into` entry points are sink-style: they *append* to output vectors
//! the caller owns and never allocate one themselves. The engine's relay
//! stage keeps one packet vector and one action vector for its whole life,
//! drains them after every call (clear, don't drop), and so relays a packet
//! without touching the allocator; data segments take their payload buffers
//! from the caller's [`SegmentPool`]. The methods without the suffix
//! (`on_tunnel_segment`, `on_external_data`, …) are thin wrappers that run
//! the sink form into fresh vectors and return them — convenient for unit
//! tests and probes, not for a packet path.

use mop_packet::tcp::MOPEYE_MSS;
use mop_packet::{Endpoint, FourTuple, Packet, PacketBuilder, TcpFlags, TcpSegment, TcpSegmentView};

use crate::pool::SegmentPool;
use crate::state::TcpState;

/// A borrowed view of the tunnel-segment fields the relay decision needs.
///
/// Both the owned [`TcpSegment`] and the zero-copy [`TcpSegmentView`] convert
/// into this, so the state machine runs the exact same logic whether the
/// caller parsed a packet into owned structs or is borrowing straight from
/// the TUN buffer.
#[derive(Debug, Clone, Copy)]
pub struct SegmentRef<'a> {
    /// Sequence number.
    pub seq: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Application payload.
    pub payload: &'a [u8],
    /// MSS option value, if the segment carries one.
    pub mss: Option<u16>,
}

impl<'a> From<&'a TcpSegment> for SegmentRef<'a> {
    fn from(seg: &'a TcpSegment) -> Self {
        Self { seq: seg.seq, flags: seg.flags, payload: &seg.payload, mss: seg.mss() }
    }
}

impl<'a> From<&TcpSegmentView<'a>> for SegmentRef<'a> {
    fn from(seg: &TcpSegmentView<'a>) -> Self {
        Self { seq: seg.seq(), flags: seg.flags(), payload: seg.payload(), mss: seg.mss() }
    }
}

/// An instruction for the relay engine, produced while processing a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayAction {
    /// Open the external socket connection to the app's destination.
    ConnectExternal {
        /// The remote server endpoint.
        dst: Endpoint,
    },
    /// Append this many bytes to the external socket's write buffer and
    /// trigger a write event. (The simulated socket counts bytes; it never
    /// reads them, so the payload itself stays in the TUN buffer.)
    RelayData {
        /// Length of the application payload carried by the tunnel segment.
        len: usize,
    },
    /// Half-close the external connection (the app sent FIN).
    HalfCloseExternal,
    /// Close the external connection immediately (RST or final teardown).
    CloseExternal,
    /// The connection is finished; the client object can be removed from the
    /// cached client list.
    RemoveClient,
}

/// Classification of a processed tunnel segment, used for relay statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentVerdict {
    /// A connection-opening SYN.
    Syn,
    /// A data segment carrying this many payload bytes.
    Data(usize),
    /// A pure ACK, discarded without relaying (§2.3).
    PureAckDiscarded,
    /// A FIN starting a half close.
    Fin,
    /// An RST aborting the connection.
    Rst,
    /// A retransmission of data we have already seen.
    Retransmission,
    /// A segment that does not fit the current state (ignored).
    OutOfState,
}

/// The user-space TCP state machine for one internal connection.
#[derive(Debug)]
pub struct TcpStateMachine {
    flow: FourTuple,
    state: TcpState,
    /// Next sequence number expected from the app.
    peer_next: u32,
    /// Next sequence number we will use towards the app.
    our_next: u32,
    /// MSS advertised by the app in its SYN (informational).
    peer_mss: Option<u16>,
    /// MSS we use when segmenting server data towards the app.
    our_mss: u16,
    to_app: PacketBuilder,
}

/// Runs a sink-style emitter into a fresh vector (the owned-return wrappers).
fn collected(emit: impl FnOnce(&mut Vec<Packet>)) -> Vec<Packet> {
    let mut out = Vec::new();
    emit(&mut out);
    out
}

impl TcpStateMachine {
    /// Creates a machine for `flow` (oriented app → server) using `our_isn`
    /// as the initial sequence number towards the app.
    pub fn new(flow: FourTuple, our_isn: u32) -> Self {
        Self {
            flow,
            state: TcpState::Listen,
            peer_next: 0,
            our_next: our_isn,
            peer_mss: None,
            our_mss: MOPEYE_MSS,
            // Packets to the app travel server → app, i.e. the reverse flow.
            to_app: PacketBuilder::new(flow.dst, flow.src),
        }
    }

    /// The current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The MSS the app advertised, if any.
    #[cfg(test)]
    pub(crate) fn peer_mss(&self) -> Option<u16> {
        self.peer_mss
    }

    /// Processes a tunnel segment from the app, returning what it emits in
    /// fresh vectors (wrapper over [`TcpStateMachine::on_segment_into`]).
    pub fn on_tunnel_segment(
        &mut self,
        seg: &TcpSegment,
    ) -> (Vec<Packet>, Vec<RelayAction>, SegmentVerdict) {
        let (mut packets, mut actions) = (Vec::new(), Vec::new());
        let verdict = self.on_segment_into(seg.into(), &mut packets, &mut actions);
        (packets, actions, verdict)
    }

    /// Processes a tunnel segment from the app — given as a borrowed field
    /// view, so the relay's MainWorker can pass one straight off the TUN
    /// buffer — appending the packets for the app to `packets` and the
    /// instructions for the engine to `actions`.
    pub fn on_segment_into(
        &mut self,
        seg: SegmentRef<'_>,
        packets: &mut Vec<Packet>,
        actions: &mut Vec<RelayAction>,
    ) -> SegmentVerdict {
        if seg.flags.contains(TcpFlags::RST) {
            self.state = TcpState::Reset;
            actions.extend([RelayAction::CloseExternal, RelayAction::RemoveClient]);
            return SegmentVerdict::Rst;
        }
        if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
            return self.on_app_syn(seg, packets, actions);
        }
        if seg.flags.contains(TcpFlags::FIN) {
            return self.on_app_fin(seg, packets, actions);
        }
        if !seg.payload.is_empty() {
            return self.on_app_data(seg, packets, actions);
        }
        self.on_app_pure_ack(seg, actions)
    }

    fn on_app_syn(
        &mut self,
        seg: SegmentRef<'_>,
        packets: &mut Vec<Packet>,
        actions: &mut Vec<RelayAction>,
    ) -> SegmentVerdict {
        match self.state {
            TcpState::Listen => {
                self.peer_next = seg.seq.wrapping_add(1);
                self.peer_mss = seg.mss;
                self.state = TcpState::SynReceivedPendingExternal;
                actions.push(RelayAction::ConnectExternal { dst: self.flow.dst });
                SegmentVerdict::Syn
            }
            // A retransmitted SYN while the external connect is still pending:
            // keep waiting, nothing to send yet.
            TcpState::SynReceivedPendingExternal => SegmentVerdict::Retransmission,
            // A retransmitted SYN after we already answered: resend SYN/ACK.
            TcpState::SynAckSent => {
                packets.push(self.to_app.tcp_syn_ack(self.our_next.wrapping_sub(1), seg.seq));
                SegmentVerdict::Retransmission
            }
            _ => SegmentVerdict::OutOfState,
        }
    }

    fn on_app_data(
        &mut self,
        seg: SegmentRef<'_>,
        packets: &mut Vec<Packet>,
        actions: &mut Vec<RelayAction>,
    ) -> SegmentVerdict {
        // The app's ACK of our SYN/ACK may be piggy-backed on its first data
        // segment; promote to Established first.
        if self.state == TcpState::SynAckSent && seg.flags.contains(TcpFlags::ACK) {
            self.state = TcpState::Established;
        }
        if !self.state.accepts_app_data() {
            return SegmentVerdict::OutOfState;
        }
        if seg.seq != self.peer_next {
            // Already-seen data (or a gap we do not track): re-ACK what we
            // have so the app's stack stops retransmitting.
            packets.push(self.to_app.tcp_ack(self.our_next, self.peer_next));
            return SegmentVerdict::Retransmission;
        }
        let len = seg.payload.len();
        self.peer_next = self.peer_next.wrapping_add(len as u32);
        actions.push(RelayAction::RelayData { len });
        SegmentVerdict::Data(len)
    }

    fn on_app_pure_ack(
        &mut self,
        seg: SegmentRef<'_>,
        actions: &mut Vec<RelayAction>,
    ) -> SegmentVerdict {
        match self.state {
            // The handshake-completing ACK still carries no data to relay.
            TcpState::SynAckSent if seg.flags.contains(TcpFlags::ACK) => {
                self.state = TcpState::Established;
            }
            TcpState::LastAck if seg.flags.contains(TcpFlags::ACK) => {
                self.state = TcpState::Closed;
                actions.push(RelayAction::RemoveClient);
            }
            // Pure ACKs carry nothing worth relaying to the socket channel.
            _ => {}
        }
        SegmentVerdict::PureAckDiscarded
    }

    fn on_app_fin(
        &mut self,
        seg: SegmentRef<'_>,
        packets: &mut Vec<Packet>,
        actions: &mut Vec<RelayAction>,
    ) -> SegmentVerdict {
        match self.state {
            TcpState::Established | TcpState::SynAckSent => {
                // Any data on the FIN segment is still relayed.
                if !seg.payload.is_empty() && seg.seq == self.peer_next {
                    self.peer_next = self.peer_next.wrapping_add(seg.payload.len() as u32);
                    actions.push(RelayAction::RelayData { len: seg.payload.len() });
                }
                self.peer_next = self.peer_next.wrapping_add(1);
                self.state = TcpState::CloseWait;
                actions.push(RelayAction::HalfCloseExternal);
                packets.push(self.to_app.tcp_ack(self.our_next, self.peer_next));
                SegmentVerdict::Fin
            }
            TcpState::FinWait => {
                // Server already closed; this FIN completes the shutdown.
                self.peer_next = self.peer_next.wrapping_add(1);
                self.state = TcpState::TimeWait;
                packets.push(self.to_app.tcp_ack(self.our_next, self.peer_next));
                actions.extend([RelayAction::CloseExternal, RelayAction::RemoveClient]);
                SegmentVerdict::Fin
            }
            _ => SegmentVerdict::OutOfState,
        }
    }

    /// The external socket connection has been established: complete the
    /// handshake with the app by sending the SYN/ACK (§2.3).
    pub fn on_external_connected_into(&mut self, out: &mut Vec<Packet>) {
        if self.state != TcpState::SynReceivedPendingExternal {
            return;
        }
        out.push(self.to_app.tcp_syn_ack(self.our_next, self.peer_next.wrapping_sub(1)));
        self.our_next = self.our_next.wrapping_add(1);
        self.state = TcpState::SynAckSent;
    }

    /// [`TcpStateMachine::on_external_connected_into`] into a fresh vector.
    pub fn on_external_connected(&mut self) -> Vec<Packet> {
        collected(|out| self.on_external_connected_into(out))
    }

    /// The external connect failed: abort the app's connection attempt.
    ///
    /// A refused connection is surfaced as an RST; a timeout sends nothing
    /// (the app's own SYN retransmissions will eventually give up, as they
    /// would without a relay in the path).
    pub fn on_external_connect_failed_into(&mut self, refused: bool, out: &mut Vec<Packet>) {
        self.state = TcpState::Reset;
        if refused {
            out.push(self.to_app.tcp_rst_ack(self.our_next, self.peer_next));
        }
    }

    /// Data arrived from the external socket: forward it to the app in
    /// MSS-sized segments without waiting for ACKs (§3.4). Each segment's
    /// payload buffer is taken from `pool`, which gets it back when the
    /// segment dies (delivered, dropped by a fault).
    pub fn on_external_data_into(
        &mut self,
        bytes: &[u8],
        pool: &mut SegmentPool,
        out: &mut Vec<Packet>,
    ) {
        if !self.state.accepts_server_data() {
            return;
        }
        for chunk in bytes.chunks(usize::from(self.our_mss)) {
            out.push(self.to_app.tcp_data(self.our_next, self.peer_next, pool.filled(chunk)));
            self.our_next = self.our_next.wrapping_add(chunk.len() as u32);
        }
    }

    /// [`TcpStateMachine::on_external_data_into`] into a fresh vector, with
    /// freshly allocated payloads.
    pub fn on_external_data(&mut self, bytes: &[u8]) -> Vec<Packet> {
        let mut out = Vec::with_capacity(bytes.len().div_ceil(usize::from(self.our_mss)));
        self.on_external_data_into(bytes, &mut SegmentPool::new(), &mut out);
        out
    }

    /// Rebuilds a previously sent data segment for retransmission: same
    /// sequence number and payload, current ACK field. Used by the engine's
    /// loss-recovery path (fast retransmit / RTO); it does not advance
    /// `our_next` or the byte counters, since the bytes were already
    /// accounted for on first transmission.
    pub fn retransmit_data(&self, seq: u32, payload: Vec<u8>) -> Packet {
        self.to_app.tcp_data(seq, self.peer_next, payload)
    }

    /// The external socket finished writing relayed bytes: acknowledge the
    /// app's data (§2.3, socket write handling).
    pub fn on_external_write_complete_into(&mut self, out: &mut Vec<Packet>) {
        if self.state.is_handshaking() || self.state.is_terminal() {
            return;
        }
        out.push(self.to_app.tcp_ack(self.our_next, self.peer_next));
    }

    /// [`TcpStateMachine::on_external_write_complete_into`] into a fresh
    /// vector.
    pub fn on_external_write_complete(&mut self) -> Vec<Packet> {
        collected(|out| self.on_external_write_complete_into(out))
    }

    /// The external socket closed (or was reset): propagate to the app.
    pub fn on_external_closed_into(&mut self, reset: bool, out: &mut Vec<Packet>) {
        if self.state.is_terminal() {
            return;
        }
        if reset {
            self.state = TcpState::Reset;
            out.push(self.to_app.tcp_rst_ack(self.our_next, self.peer_next));
            return;
        }
        let after_fin = match self.state {
            TcpState::Established | TcpState::SynAckSent => TcpState::FinWait,
            TcpState::CloseWait => TcpState::LastAck,
            _ => return,
        };
        out.push(self.to_app.tcp_fin(self.our_next, self.peer_next));
        self.our_next = self.our_next.wrapping_add(1);
        self.state = after_fin;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;

    fn flow() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443))
    }

    fn app_builder() -> PacketBuilder {
        PacketBuilder::new(flow().src, flow().dst)
    }

    fn syn_segment(seq: u32) -> TcpSegment {
        app_builder().tcp_syn(seq).tcp().unwrap().clone()
    }

    /// Drives the machine through SYN → external connected → app ACK.
    fn establish(machine: &mut TcpStateMachine, isn: u32) {
        let (pkts, actions, verdict) = machine.on_tunnel_segment(&syn_segment(isn));
        assert!(pkts.is_empty(), "SYN/ACK must wait for the external connect");
        assert_eq!(actions, vec![RelayAction::ConnectExternal { dst: flow().dst }]);
        assert_eq!(verdict, SegmentVerdict::Syn);
        let syn_ack = machine.on_external_connected();
        assert_eq!(syn_ack.len(), 1);
        assert!(syn_ack[0].tcp().unwrap().is_syn_ack());
        assert_eq!(syn_ack[0].tcp().unwrap().ack, isn.wrapping_add(1));
        let ack = app_builder().tcp_ack(isn + 1, syn_ack[0].tcp().unwrap().seq + 1);
        let (pkts, actions, verdict) = machine.on_tunnel_segment(ack.tcp().unwrap());
        assert!(pkts.is_empty() && actions.is_empty());
        assert_eq!(verdict, SegmentVerdict::PureAckDiscarded);
        assert_eq!(machine.state(), TcpState::Established);
    }

    #[test]
    fn handshake_is_deferred_until_external_connect() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
    }

    #[test]
    fn retransmitted_syn_before_external_connect_is_quiet() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        m.on_tunnel_segment(&syn_segment(5));
        let (pkts, actions, verdict) = m.on_tunnel_segment(&syn_segment(5));
        assert!(pkts.is_empty() && actions.is_empty());
        assert_eq!(verdict, SegmentVerdict::Retransmission);
    }

    #[test]
    fn retransmitted_syn_after_synack_resends_synack() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        m.on_tunnel_segment(&syn_segment(5));
        m.on_external_connected();
        let (pkts, _, verdict) = m.on_tunnel_segment(&syn_segment(5));
        assert_eq!(verdict, SegmentVerdict::Retransmission);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].tcp().unwrap().is_syn_ack());
    }

    #[test]
    fn app_data_is_relayed_and_tracked() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        let data = app_builder().tcp_data(1001, 9001, b"GET / HTTP/1.1\r\n".to_vec());
        let (pkts, actions, verdict) = m.on_tunnel_segment(data.tcp().unwrap());
        assert!(pkts.is_empty(), "data is ACKed only after the socket write completes");
        assert_eq!(actions, vec![RelayAction::RelayData { len: 16 }]);
        assert_eq!(verdict, SegmentVerdict::Data(16));
        let acks = m.on_external_write_complete();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].tcp().unwrap().ack, 1001 + 16);
    }

    #[test]
    fn piggybacked_ack_with_data_establishes_and_relays() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        m.on_tunnel_segment(&syn_segment(1000));
        m.on_external_connected();
        // The app skips the bare ACK and sends data directly.
        let data = app_builder().tcp_data(1001, 9001, vec![1, 2, 3]);
        let (_, actions, verdict) = m.on_tunnel_segment(data.tcp().unwrap());
        assert_eq!(verdict, SegmentVerdict::Data(3));
        assert_eq!(actions.len(), 1);
        assert_eq!(m.state(), TcpState::Established);
    }

    #[test]
    fn retransmitted_data_is_reacked_not_relayed() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        let data = app_builder().tcp_data(1001, 9001, vec![7; 10]);
        m.on_tunnel_segment(data.tcp().unwrap());
        let (pkts, actions, verdict) = m.on_tunnel_segment(data.tcp().unwrap());
        assert_eq!(verdict, SegmentVerdict::Retransmission);
        assert!(actions.is_empty());
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].tcp().unwrap().ack, 1011);
    }

    #[test]
    fn server_data_is_segmented_at_mss_without_waiting_for_acks() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        let body = vec![0xab; 4000];
        let pkts = m.on_external_data(&body);
        assert_eq!(pkts.len(), 3); // 1460 + 1460 + 1080.
        assert_eq!(pkts[0].tcp().unwrap().payload.len(), 1460);
        assert_eq!(pkts[2].tcp().unwrap().payload.len(), 4000 - 2 * 1460);
        // Sequence numbers are contiguous.
        assert_eq!(pkts[1].tcp().unwrap().seq, pkts[0].tcp().unwrap().seq + 1460);
        // Receive window advertised to the app is the §3.4 maximum.
        assert_eq!(pkts[0].tcp().unwrap().window, 65_535);
    }

    #[test]
    fn app_fin_half_closes_and_server_close_finishes() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        let fin = app_builder().tcp_fin(1001, 9001);
        let (pkts, actions, verdict) = m.on_tunnel_segment(fin.tcp().unwrap());
        assert_eq!(verdict, SegmentVerdict::Fin);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].tcp().unwrap().ack, 1002);
        assert_eq!(actions, vec![RelayAction::HalfCloseExternal]);
        assert_eq!(m.state(), TcpState::CloseWait);
        // Server data can still flow to the app while half closed.
        assert_eq!(m.on_external_data(&[1, 2, 3]).len(), 1);
        // When the server side closes we FIN the app and wait for its ACK.
        let fins = collected(|out| m.on_external_closed_into(false, out));
        assert_eq!(fins.len(), 1);
        assert!(fins[0].tcp().unwrap().flags.contains(TcpFlags::FIN));
        assert_eq!(m.state(), TcpState::LastAck);
        let last_ack = app_builder().tcp_ack(1002, fins[0].tcp().unwrap().seq + 1);
        let (_, actions, _) = m.on_tunnel_segment(last_ack.tcp().unwrap());
        assert_eq!(actions, vec![RelayAction::RemoveClient]);
        assert_eq!(m.state(), TcpState::Closed);
        assert!(m.state().is_terminal());
    }

    #[test]
    fn server_initiated_close_then_app_fin() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        let fins = collected(|out| m.on_external_closed_into(false, out));
        assert_eq!(fins.len(), 1);
        assert_eq!(m.state(), TcpState::FinWait);
        // The app can still send data in FIN_WAIT (its direction is open).
        let data = app_builder().tcp_data(1001, 9002, vec![5; 4]);
        let (_, actions, verdict) = m.on_tunnel_segment(data.tcp().unwrap());
        assert_eq!(verdict, SegmentVerdict::Data(4));
        assert_eq!(actions.len(), 1);
        // Its FIN finishes the connection.
        let fin = app_builder().tcp_fin(1005, 9002);
        let (pkts, actions, _) = m.on_tunnel_segment(fin.tcp().unwrap());
        assert_eq!(pkts.len(), 1);
        assert!(actions.contains(&RelayAction::CloseExternal));
        assert!(actions.contains(&RelayAction::RemoveClient));
        assert_eq!(m.state(), TcpState::TimeWait);
    }

    #[test]
    fn app_rst_tears_down_immediately() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        let rst = app_builder().tcp_rst_ack(1001, 9001);
        let (pkts, actions, verdict) = m.on_tunnel_segment(rst.tcp().unwrap());
        assert!(pkts.is_empty());
        assert_eq!(verdict, SegmentVerdict::Rst);
        assert_eq!(actions, vec![RelayAction::CloseExternal, RelayAction::RemoveClient]);
        assert_eq!(m.state(), TcpState::Reset);
        // Nothing further is forwarded after a reset.
        assert!(m.on_external_data(&[1]).is_empty());
        assert!(collected(|out| m.on_external_closed_into(false, out)).is_empty());
    }

    #[test]
    fn external_reset_is_propagated_as_rst() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        let pkts = collected(|out| m.on_external_closed_into(true, out));
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].tcp().unwrap().flags.contains(TcpFlags::RST));
        assert_eq!(m.state(), TcpState::Reset);
    }

    #[test]
    fn refused_external_connect_resets_the_app() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        m.on_tunnel_segment(&syn_segment(1));
        let pkts = collected(|out| m.on_external_connect_failed_into(true, out));
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].tcp().unwrap().flags.contains(TcpFlags::RST));
        assert_eq!(m.state(), TcpState::Reset);
        let mut m2 = TcpStateMachine::new(flow(), 9000);
        m2.on_tunnel_segment(&syn_segment(1));
        assert!(collected(|out| m2.on_external_connect_failed_into(false, out)).is_empty());
    }

    #[test]
    fn out_of_state_segments_are_ignored() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        // Data before any SYN.
        let data = app_builder().tcp_data(50, 0, vec![1]);
        let (pkts, actions, verdict) = m.on_tunnel_segment(data.tcp().unwrap());
        assert!(pkts.is_empty() && actions.is_empty());
        assert_eq!(verdict, SegmentVerdict::OutOfState);
        // FIN before any SYN.
        let fin = app_builder().tcp_fin(50, 0);
        let (_, _, verdict) = m.on_tunnel_segment(fin.tcp().unwrap());
        assert_eq!(verdict, SegmentVerdict::OutOfState);
    }

    #[test]
    fn retransmit_data_replays_the_segment_without_advancing_state() {
        let mut m = TcpStateMachine::new(flow(), 9000);
        establish(&mut m, 1000);
        // Segment through a pool whose only buffer is longer than the
        // payload and full of other bytes, as a recycled one would be.
        let mut pool = SegmentPool::new();
        pool.put(vec![0xee; 1_460]);
        let mut originals = Vec::new();
        m.on_external_data_into(&[0x5a; 100], &mut pool, &mut originals);
        assert_eq!(originals[0].tcp().unwrap().payload, [0x5a; 100]);
        let next_before = m.our_next;
        let wire = originals[0].to_bytes();
        // The scoreboard's copy, then the original's buffer is recycled and
        // overwritten by the next segment before the retransmission.
        let orig_tcp = originals[0].tcp().unwrap();
        let (seq, copy) = (orig_tcp.seq, pool.filled(&orig_tcp.payload));
        pool.recycle(originals.remove(0));
        m.on_external_data_into(&[0x77; 300], &mut pool, &mut originals);
        assert_eq!(originals[0].tcp().unwrap().payload, [0x77; 300]);
        let next_before = next_before.wrapping_add(300);
        let replay = m.retransmit_data(seq, copy);
        assert_eq!(replay.to_bytes(), wire, "byte-identical resend");
        assert_eq!(m.our_next, next_before, "sequence space untouched");
    }

    #[test]
    fn peer_mss_is_recorded() {
        let mut m = TcpStateMachine::new(flow(), 1);
        m.on_tunnel_segment(&syn_segment(10));
        assert_eq!(m.peer_mss(), Some(1460));
        assert_eq!(m.flow, flow());
    }
}
