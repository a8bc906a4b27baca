//! The egress stage: TunWriter lanes carrying packets back to the apps.
//!
//! Every packet the relay sends towards an app passes through here: the
//! enqueue cost and the dedicated writer thread's timing are modelled
//! against a [`WriterLane`](crate::tun_writer::WriterLane) — the single
//! device-wide lane under the shared-device discipline, or the lane in the
//! connection's record under the flow-keyed discipline (so a flow's write
//! timing depends only on its own packet train, one of the invariants behind
//! shard-count-independent determinism). The packet itself travels as a scheduled `DeliverToApp`
//! event; the writer only ever sees its wire length.

use mop_packet::Packet;
use mop_simnet::{FaultDecision, SimTime, TimerScheduler};

use super::EngineShared;
use crate::config::EngineDiscipline;
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
    pub fn new(writer: TunWriter) -> Self {
        Self { writer }
    }

    /// Resets the stage to its just-constructed state for the same schemes.
    pub(crate) fn reset(&mut self) {
        self.writer.reset();
    }

    /// Writes a packet towards the app of connection `id` through the
    /// TunWriter and schedules its delivery. The one owned packet travels
    /// straight into the delivery event; the device and the writer only see
    /// its wire length.
    ///
    /// Under the shared-device discipline every packet goes through the one
    /// writer-thread timing lane (queue serialisation couples flows, as on a
    /// real handset); live socket-connect threads add to the contending
    /// writer count (§3.5.1). Under the flow-keyed discipline each
    /// connection has its own lane and a fixed concurrent-writer count.
    pub(crate) fn write_to_tunnel(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        id: FlowId,
        packet: Packet,
    ) {
        let mut rng = sh.checkout_rng(id);
        let outcome = match sh.config.discipline {
            EngineDiscipline::SharedDevice => {
                let writers = 1 + usize::from(sh.conns.connect_threads_active());
                self.writer.submit(now, writers, &sh.cost, &mut rng, &mut sh.ledger)
            }
            EngineDiscipline::FlowKeyed => {
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
        if packet.tcp().is_some_and(|t| !t.payload.is_empty()) && sh.net.faults_possible() {
            // The network keys its fault stream by the packet's own tuple.
            if let Some(wire_flow) = packet.four_tuple() {
                match sh.net.data_fault(wire_flow, deliver_at) {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => return,
                    FaultDecision::Duplicate => {
                        sched.schedule(deliver_at, Event::DeliverToApp(id, packet.clone()));
                    }
                    FaultDecision::Delay(extra) => deliver_at += extra,
                }
            }
        }
        sched.schedule(deliver_at, Event::DeliverToApp(id, packet));
    }
}
