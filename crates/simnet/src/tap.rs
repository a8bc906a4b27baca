//! A wire tap on the simulated access link.
//!
//! In the paper, tcpdump running with root privilege provides the reference
//! RTTs against which MopEye and MobiPerf are judged (Table 2). The tap plays
//! the same role here: it sees every transport event at the interface, below
//! any measuring application, so its SYN→SYN/ACK gaps are ground truth. It
//! keeps only what those RTT queries need, one handshake and one DNS
//! exchange per flow, so its memory grows with flows, not packets.

use std::collections::hash_map::Entry;

use mop_packet::{FastMap, FourTuple};

use crate::time::{SimDuration, SimTime};

/// Direction of a tapped packet relative to the handset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDirection {
    /// Leaving the handset towards the network.
    Outbound,
    /// Arriving at the handset from the network.
    Inbound,
}

/// The kind of transport event observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapKind {
    /// A TCP SYN.
    Syn,
    /// A TCP SYN/ACK.
    SynAck,
    /// A TCP data segment of the given payload length.
    Data(usize),
    /// A TCP FIN.
    Fin,
    /// A TCP RST.
    Rst,
    /// A DNS query.
    DnsQuery,
    /// A DNS response.
    DnsResponse,
}

/// The first request a flow put on the wire and the reply the reference
/// pairs with it — all that an RTT query needs to know about the flow.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    /// How many first requests the index noted before this one: orders
    /// the exchanges by first request.
    order: u64,
    /// Capture time of the flow's first request (SYN or DNS query).
    request_at: SimTime,
    /// Capture time of the first reply in capture order that is not
    /// earlier than `request_at`.
    reply_at: Option<SimTime>,
}

impl Exchange {
    fn rtt(&self) -> Option<SimDuration> {
        self.reply_at.map(|reply_at| reply_at - self.request_at)
    }

    /// Pairs a reply captured at `at` with the request unless an earlier
    /// capture already was, or it is timestamped before the request.
    fn offer_reply(&mut self, at: SimTime) {
        if self.reply_at.is_none() && at >= self.request_at {
            self.reply_at = Some(at);
        }
    }
}

/// Request/reply pairing for one packet family (handshakes or DNS), kept
/// current as packets are captured so a query is one hash probe.
#[derive(Debug, Default, Clone)]
struct ExchangeIndex {
    /// Each flow's exchange, until the flow is forgotten.
    exchanges: FastMap<FourTuple, Exchange>,
    /// First requests noted since the index was created or cleared.
    requests: u64,
    /// Replies captured before any request of their flow, in capture order.
    /// They only become candidates once the request's time is known, so
    /// they wait here; a capture of real exchanges never has any.
    early_replies: Vec<(FourTuple, SimTime)>,
}

impl ExchangeIndex {
    /// Notes a captured request. Only a flow's first request counts; a
    /// retransmission, or a reused four-tuple's later connection, changes
    /// nothing until the flow is forgotten. Returns the number of early
    /// replies examined.
    fn request(&mut self, flow: FourTuple, at: SimTime) -> u64 {
        let Entry::Vacant(slot) = self.exchanges.entry(flow) else { return 0 };
        let mut exchange = Exchange { order: self.requests, request_at: at, reply_at: None };
        self.requests += 1;
        let scanned = self.early_replies.len() as u64;
        self.early_replies.retain(|&(reply_flow, reply_at)| {
            if reply_flow == flow {
                exchange.offer_reply(reply_at);
            }
            reply_flow != flow
        });
        slot.insert(exchange);
        scanned
    }

    /// Notes a captured reply.
    fn reply(&mut self, flow: FourTuple, at: SimTime) {
        match self.exchanges.get_mut(&flow) {
            Some(exchange) => exchange.offer_reply(at),
            None => self.early_replies.push((flow, at)),
        }
    }

    fn rtt(&self, flow: FourTuple) -> Option<SimDuration> {
        self.exchanges.get(&flow)?.rtt()
    }

    /// Drops `flow`'s exchange and early replies. Returns the number of
    /// early replies examined.
    fn forget(&mut self, flow: FourTuple) -> u64 {
        self.exchanges.remove(&flow);
        let scanned = self.early_replies.len() as u64;
        if scanned > 0 {
            self.early_replies.retain(|&(reply_flow, _)| reply_flow != flow);
        }
        scanned
    }
}

/// The reference capture, indexed per flow.
///
/// No packet is kept: the handshake and DNS control packets are paired per
/// flow as they are recorded, so the RTT queries the relay issues on every
/// connect cost one hash probe, and the tap holds one exchange per flow
/// however many packets the flows relay. A flow's exchanges stay until it
/// is [forgotten](WireTap::forget), so a capture whose owner forgets the
/// flows it is done with holds the flows open at once.
#[derive(Debug, Default, Clone)]
pub struct WireTap {
    handshakes: ExchangeIndex,
    dns: ExchangeIndex,
    /// The most exchanges held at once.
    peak_exchanges: usize,
    /// Captured packets examined beyond the per-flow index probes. Zero for
    /// any capture whose replies follow their requests; the complexity
    /// guard watches it so a scanning query cannot come back unnoticed.
    scan_elems: u64,
    /// Every recorded event in capture order, kept in unit-test builds only
    /// so tests can check what crossed the wire.
    #[cfg(test)]
    pub(crate) capture: Vec<(SimTime, TapDirection, TapKind, FourTuple)>,
}

impl WireTap {
    /// Creates an empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event.
    pub fn record(&mut self, at: SimTime, direction: TapDirection, kind: TapKind, flow: FourTuple) {
        #[cfg(test)]
        self.capture.push((at, direction, kind, flow));
        match (kind, direction) {
            (TapKind::Syn, TapDirection::Outbound) => {
                self.scan_elems += self.handshakes.request(flow, at);
            }
            (TapKind::SynAck, TapDirection::Inbound) => self.handshakes.reply(flow, at),
            (TapKind::DnsQuery, _) => self.scan_elems += self.dns.request(flow, at),
            (TapKind::DnsResponse, _) => self.dns.reply(flow, at),
            _ => return,
        }
        let held = self.handshakes.exchanges.len() + self.dns.exchanges.len();
        self.peak_exchanges = self.peak_exchanges.max(held);
    }

    /// Forgets `flow`'s handshake and DNS exchanges: its owner is done
    /// asking about it. A later first request on the tuple starts a new
    /// exchange.
    pub fn forget(&mut self, flow: FourTuple) {
        self.scan_elems += self.handshakes.forget(flow) + self.dns.forget(flow);
    }

    /// Captured packets examined by queries and index upkeep beyond the
    /// O(1) per-flow probes (see `tests/complexity_guard.rs`).
    pub fn scan_elems(&self) -> u64 {
        self.scan_elems
    }

    /// The most handshake and DNS exchanges the tap held at once.
    pub fn peak_exchanges(&self) -> usize {
        self.peak_exchanges
    }

    /// The tcpdump-style RTT of `flow`: the gap between the first outbound
    /// SYN the four-tuple sent since it was last forgotten and the first
    /// inbound SYN/ACK, in capture order, that is not timestamped before it.
    pub fn handshake_rtt(&self, flow: FourTuple) -> Option<SimDuration> {
        self.handshakes.rtt(flow)
    }

    /// The tcpdump-style DNS RTT of `flow`: first query to the first
    /// response, in capture order, that is not timestamped before it.
    pub fn dns_rtt(&self, flow: FourTuple) -> Option<SimDuration> {
        self.dns.rtt(flow)
    }

    /// All handshake RTTs the tap holds, keyed by flow, in SYN order.
    pub fn all_handshake_rtts(&self) -> Vec<(FourTuple, SimDuration)> {
        let mut rtts: Vec<(u64, FourTuple, SimDuration)> = self
            .handshakes
            .exchanges
            .iter()
            .filter_map(|(&flow, exchange)| Some((exchange.order, flow, exchange.rtt()?)))
            .collect();
        rtts.sort_unstable_by_key(|&(order, ..)| order);
        rtts.into_iter().map(|(_, flow, rtt)| (flow, rtt)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;

    fn flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(216, 58, 221, 132, 443))
    }

    #[test]
    fn handshake_rtt_is_syn_to_synack_gap() {
        let mut tap = WireTap::new();
        let f = flow(40000);
        tap.record(SimTime::from_millis(100), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(104), TapDirection::Inbound, TapKind::SynAck, f);
        tap.record(SimTime::from_millis(105), TapDirection::Outbound, TapKind::Data(100), f);
        assert_eq!(tap.handshake_rtt(f).unwrap(), SimDuration::from_millis(4));
        assert_eq!(tap.capture.len(), 3);
    }

    #[test]
    fn missing_synack_yields_none() {
        let mut tap = WireTap::new();
        let f = flow(40001);
        tap.record(SimTime::from_millis(10), TapDirection::Outbound, TapKind::Syn, f);
        assert!(tap.handshake_rtt(f).is_none());
        assert!(tap.handshake_rtt(flow(5)).is_none());
    }

    #[test]
    fn dns_rtt_pairs_query_with_response() {
        let mut tap = WireTap::new();
        let f = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 41000), Endpoint::v4(192, 168, 1, 1, 53));
        tap.record(SimTime::from_millis(50), TapDirection::Outbound, TapKind::DnsQuery, f);
        tap.record(SimTime::from_millis(92), TapDirection::Inbound, TapKind::DnsResponse, f);
        assert_eq!(tap.dns_rtt(f).unwrap(), SimDuration::from_millis(42));
    }

    #[test]
    fn a_reused_four_tuple_reports_its_first_captures_handshake() {
        let mut tap = WireTap::new();
        let f = flow(40002);
        tap.record(SimTime::from_millis(10), TapDirection::Outbound, TapKind::Syn, f);
        // A retransmitted SYN does not restart the clock.
        tap.record(SimTime::from_millis(1_010), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(1_030), TapDirection::Inbound, TapKind::SynAck, f);
        tap.record(SimTime::from_millis(1_040), TapDirection::Inbound, TapKind::Fin, f);
        // The port's next connection is invisible to the reference.
        tap.record(SimTime::from_millis(5_000), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(5_004), TapDirection::Inbound, TapKind::SynAck, f);
        assert_eq!(tap.handshake_rtt(f).unwrap(), SimDuration::from_millis(1_020));
        assert_eq!(tap.scan_elems(), 0);
    }

    #[test]
    fn a_reply_captured_before_its_request_still_pairs_by_timestamp() {
        let mut tap = WireTap::new();
        let f = flow(40003);
        tap.record(SimTime::from_millis(20), TapDirection::Inbound, TapKind::SynAck, f);
        tap.record(SimTime::from_millis(30), TapDirection::Inbound, TapKind::SynAck, f);
        tap.record(SimTime::from_millis(25), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(26), TapDirection::Inbound, TapKind::SynAck, f);
        assert_eq!(tap.handshake_rtt(f).unwrap(), SimDuration::from_millis(5));
        // The two early replies were examined once, when the SYN arrived.
        assert_eq!(tap.scan_elems(), 2);
    }

    #[test]
    fn a_forgotten_flow_starts_a_new_exchange_and_the_peak_stays() {
        let mut tap = WireTap::new();
        let (f, g) = (flow(40004), flow(40005));
        for (at, flow) in [(10, f), (20, g)] {
            tap.record(SimTime::from_millis(at), TapDirection::Outbound, TapKind::Syn, flow);
            tap.record(SimTime::from_millis(at + 4), TapDirection::Inbound, TapKind::SynAck, flow);
        }
        assert_eq!(tap.peak_exchanges(), 2);
        tap.forget(f);
        assert_eq!(tap.handshake_rtt(f), None);
        assert_eq!(tap.all_handshake_rtts(), [(g, SimDuration::from_millis(4))]);
        // The tuple's next connection is the reference now.
        tap.record(SimTime::from_millis(50), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(57), TapDirection::Inbound, TapKind::SynAck, f);
        assert_eq!(tap.handshake_rtt(f).unwrap(), SimDuration::from_millis(7));
        let order: Vec<FourTuple> = tap.all_handshake_rtts().into_iter().map(|(f, _)| f).collect();
        assert_eq!(order, [g, f], "in SYN order");
        assert_eq!((tap.peak_exchanges(), tap.scan_elems()), (2, 0));
    }

    #[test]
    fn all_handshake_rtts_lists_each_flow_once() {
        let mut tap = WireTap::new();
        for (i, port) in [40000u16, 40001, 40002].iter().enumerate() {
            let f = flow(*port);
            let base = SimTime::from_millis(10 * i as u64);
            tap.record(base, TapDirection::Outbound, TapKind::Syn, f);
            tap.record(
                base + SimDuration::from_millis(5),
                TapDirection::Inbound,
                TapKind::SynAck,
                f,
            );
        }
        // A retransmitted SYN for the first flow must not duplicate it.
        tap.record(SimTime::from_millis(100), TapDirection::Outbound, TapKind::Syn, flow(40000));
        let rtts = tap.all_handshake_rtts();
        assert_eq!(rtts.len(), 3);
        assert!(rtts.iter().all(|(_, rtt)| *rtt == SimDuration::from_millis(5)));
    }
}
