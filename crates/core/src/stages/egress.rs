//! The egress stage: TunWriter lanes carrying packets back to the apps.
//!
//! Every packet the relay sends towards an app passes through here: the
//! enqueue cost and the dedicated writer thread's timing are modelled
//! against a [`WriterLane`](crate::tun_writer::WriterLane) — the single
//! device-wide lane over a shared network, or the lane in the connection's
//! record over a flow-keyed one (so a flow's write timing depends only on
//! its own packet train, one of the invariants behind
//! shard-count-independent determinism). The packet itself is parked in
//! the engine's packet arena (`EngineShared::parked`) and a scheduled
//! `DeliverToApp` event carries its handle; the writer only ever sees its
//! wire length.

use mop_packet::Packet;
use mop_simnet::{FaultDecision, NetKeying, SimTime, TimingWheel};

use super::EngineShared;
use crate::conn::FlowId;
use crate::engine::Event;
use crate::tun_writer::TunWriter;

/// The TunWriter-lane stage. See the [module docs](self).
#[derive(Debug)]
pub struct EgressStage {
    /// The tunnel writer (schemes + delay statistics).
    pub(crate) writer: TunWriter,
}

impl EgressStage {
    /// Creates the stage around a configured writer.
    pub(crate) fn new(writer: TunWriter) -> Self {
        Self { writer }
    }

    /// Resets the stage to its just-constructed state for the same schemes.
    pub(crate) fn reset(&mut self) {
        self.writer.reset();
    }

    /// Writes a packet towards the app of connection `id` through the
    /// TunWriter and schedules its delivery. The packet is parked in
    /// [`EngineShared::parked`] until the delivery event dispatches; the
    /// device and the writer only see its wire length.
    ///
    /// Over a shared network every packet goes through the one
    /// writer-thread timing lane (queue serialisation couples flows, as on a
    /// real handset); live socket-connect threads add to the contending
    /// writer count (§3.5.1). Over a flow-keyed network each connection has
    /// its own lane and a fixed concurrent-writer count.
    pub(crate) fn write_to_tunnel(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimingWheel<Event>,
        now: SimTime,
        id: FlowId,
        packet: Packet,
    ) {
        let mut rng = sh.checkout_rng(id);
        let outcome = match sh.net.keying() {
            NetKeying::Shared => {
                let writers = 1 + usize::from(sh.conns.connect_threads_active());
                self.writer.submit(now, writers, &sh.cost, &mut rng, &mut sh.ledger)
            }
            NetKeying::FlowKeyed => {
                let lane = &mut sh.conns[id].lane;
                self.writer.submit_lane(lane, now, 2, &sh.cost, &mut rng, &mut sh.ledger)
            }
        };
        sh.checkin_rng(id, rng);
        sh.tun.record_relay_write(packet.wire_len());
        let mut deliver_at = outcome.written_at;
        // The data-path fault stage: only payload-bearing TCP segments are
        // eligible (control segments — SYN/ACK, pure ACKs, FINs, RSTs — are
        // never faulted, so handshakes and teardowns stay loss-free and RTT
        // samples stay comparable across loss rates). Each decision comes
        // from the flow's dedicated fault stream keyed by `(seed,
        // four-tuple)`, so any shard partition faults the same segments. The
        // writer already counted the write: a dropped segment consumed the
        // tunnel exactly like a delivered one.
        if packet.tcp().is_some_and(|t| t.payload_len > 0) && sh.net.faults_possible() {
            // The network keys its fault stream by the packet's own tuple.
            if let Some(wire_flow) = packet.four_tuple() {
                match sh.net.data_fault(wire_flow, deliver_at) {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => return,
                    FaultDecision::Duplicate => {
                        let copy = sh.parked.park(packet.clone());
                        sh.schedule(sched, deliver_at, Event::DeliverToApp(id, copy));
                    }
                    FaultDecision::Delay(extra) => deliver_at += extra,
                }
            }
        }
        let packet = sh.parked.park(packet);
        sh.schedule(sched, deliver_at, Event::DeliverToApp(id, packet));
    }
}

#[cfg(test)]
mod tests {
    use mop_packet::{Endpoint, FourTuple, Packet, PacketBuilder};
    use mop_simnet::{AccessProfile, SimNetwork, SimTime};

    use crate::config::MopEyeConfig;
    use crate::engine::{Event, MopEyeEngine};

    fn flow() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 1, 0, 1, 40_000), Endpoint::v4(216, 58, 221, 132, 443))
    }

    /// An engine whose network applies exactly one fate to every data
    /// segment: drops them all, or duplicates them all.
    fn engine(data_loss: f64, duplicate: f64) -> MopEyeEngine {
        let access = AccessProfile::lte().with_data_faults(data_loss, 0.0, duplicate);
        let net = SimNetwork::builder().seed(7).flow_keyed().access(access).build();
        MopEyeEngine::new(MopEyeConfig::mopeye(), net)
    }

    /// Writes one 1000-byte data segment towards the app and returns it.
    fn write_segment(engine: &mut MopEyeEngine) -> Packet {
        let id = engine.shared.conns.intern(flow());
        let packet = PacketBuilder::new(flow().dst, flow().src).tcp_data(1, 1, 1_000);
        let (shared, sched) = (&mut engine.shared, &mut engine.sched);
        engine.egress.write_to_tunnel(shared, sched, SimTime::from_millis(1), id, packet.clone());
        packet
    }

    fn deliveries(engine: &mut MopEyeEngine) -> Vec<Packet> {
        let mut delivered = Vec::new();
        while let Some((_, event)) = engine.sched.pop() {
            match event {
                Event::DeliverToApp(_, packet) => delivered.push(engine.shared.parked.take(packet)),
                other => panic!("unexpected {other:?}"),
            }
        }
        delivered
    }

    #[test]
    fn a_dropped_segment_is_never_delivered() {
        let mut engine = engine(1.0, 0.0);
        write_segment(&mut engine);
        assert!(deliveries(&mut engine).is_empty(), "the segment was dropped");
        assert_eq!(engine.shared.parked.len(), 0, "nothing stays parked for it");
        assert_eq!(engine.shared.tun.packets_to_apps, 1, "it still consumed the tunnel");
    }

    #[test]
    fn a_duplicated_segment_is_delivered_twice_in_two_buffers() {
        let mut engine = engine(0.0, 1.0);
        let sent = write_segment(&mut engine);
        assert_eq!(engine.shared.parked.len(), 2, "two packets parked, one per delivery");
        let delivered = deliveries(&mut engine);
        assert_eq!(delivered, [sent.clone(), sent], "both carry the 1000-byte payload");
        assert_eq!(delivered[0].tcp().expect("a data segment").payload_len, 1_000);
    }
}
