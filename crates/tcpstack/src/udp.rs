//! UDP associations and DNS transaction tracking.
//!
//! MopEye relays all UDP traffic but currently measures only DNS (§2.2):
//! the RTT is the time between the `send()` of a query and the `receive()`
//! of its response, matched by DNS transaction id. [`dns_query`] is the
//! classification the relay needs on its packet path — "is this datagram a
//! DNS query, and for what name" — and [`UdpAssociation`] is the library
//! model of a whole UDP flow: the app-side tuple plus the external socket
//! handle and the outstanding DNS transactions.

use mop_packet::{DnsMessage, FourTuple};

/// Identifier of the external socket a flow relays into. This mirrors
/// `mop_simnet::SocketId` without introducing a dependency on the simulator,
/// so the stack stays usable against a real socket backend.
pub type ExternalSocketHandle = u64;

fn talks_to_dns_port(flow: FourTuple) -> bool {
    flow.dst.port == 53 || flow.src.port == 53
}

/// The DNS query an outgoing datagram of `flow` carries, if it is one: its
/// transaction id and the queried name.
pub fn dns_query(flow: FourTuple, payload: &[u8]) -> Option<(u16, String)> {
    if !talks_to_dns_port(flow) {
        return None;
    }
    let msg = DnsMessage::parse(payload).ok()?;
    if msg.flags.response {
        return None;
    }
    Some((msg.id, msg.queried_name().unwrap_or_default().to_string()))
}

/// An outstanding DNS query awaiting its response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsTransaction {
    /// DNS transaction id.
    pub id: u16,
    /// The queried domain name.
    pub name: String,
    /// Nanosecond timestamp when the query was sent on the external socket.
    pub sent_ns: u64,
}

/// One UDP flow relayed by MopEye.
#[derive(Debug)]
pub struct UdpAssociation {
    flow: FourTuple,
    external: Option<ExternalSocketHandle>,
    pending_dns: Vec<DnsTransaction>,
    /// Datagrams relayed outwards.
    pub datagrams_out: u64,
    /// Datagrams relayed inwards.
    pub datagrams_in: u64,
    /// Nanosecond timestamp of the most recent activity, for idle expiry.
    pub last_activity_ns: u64,
}

impl UdpAssociation {
    /// Creates an association for `flow`.
    pub fn new(flow: FourTuple) -> Self {
        Self {
            flow,
            external: None,
            pending_dns: Vec::new(),
            datagrams_out: 0,
            datagrams_in: 0,
            last_activity_ns: 0,
        }
    }

    /// The flow this association relays.
    pub fn flow(&self) -> FourTuple {
        self.flow
    }

    /// True if this flow talks to the DNS port.
    pub fn is_dns(&self) -> bool {
        talks_to_dns_port(self.flow)
    }

    /// Binds the external socket handle.
    pub fn attach_external(&mut self, handle: ExternalSocketHandle) {
        self.external = Some(handle);
    }

    /// The external socket handle, if attached.
    pub fn external(&self) -> Option<ExternalSocketHandle> {
        self.external
    }

    /// Records an outgoing datagram; if it parses as a DNS query, starts a
    /// transaction stamped with `sent_ns`.
    pub fn on_outgoing(&mut self, payload: &[u8], sent_ns: u64) -> Option<&DnsTransaction> {
        self.datagrams_out += 1;
        self.last_activity_ns = sent_ns;
        let (id, name) = dns_query(self.flow, payload)?;
        self.pending_dns.push(DnsTransaction { id, name, sent_ns });
        self.pending_dns.last()
    }

    /// Records an incoming datagram; if it parses as a DNS response matching
    /// a pending query, completes the transaction and returns it with the
    /// measured RTT in nanoseconds.
    pub fn on_incoming(&mut self, payload: &[u8], received_ns: u64) -> Option<(DnsTransaction, u64)> {
        self.datagrams_in += 1;
        self.last_activity_ns = received_ns;
        if !self.is_dns() {
            return None;
        }
        let msg = DnsMessage::parse(payload).ok()?;
        if !msg.flags.response {
            return None;
        }
        let idx = self.pending_dns.iter().position(|t| t.id == msg.id)?;
        let tx = self.pending_dns.remove(idx);
        let rtt = received_ns.saturating_sub(tx.sent_ns);
        Some((tx, rtt))
    }

    /// Number of queries still awaiting a response.
    pub fn pending_dns_count(&self) -> usize {
        self.pending_dns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;
    use std::net::Ipv4Addr;

    fn dns_flow() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, 41000), Endpoint::v4(192, 168, 1, 1, 53))
    }

    fn other_flow() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, 41001), Endpoint::v4(3, 3, 3, 3, 4500))
    }

    #[test]
    fn dns_query_response_measures_rtt() {
        let mut assoc = UdpAssociation::new(dns_flow());
        assert!(assoc.is_dns());
        let query = DnsMessage::query(0x77, "e3.whatsapp.net");
        let started = assoc.on_outgoing(&query.to_bytes(), 1_000_000).cloned();
        assert_eq!(started.as_ref().map(|t| t.name.as_str()), Some("e3.whatsapp.net"));
        assert_eq!(assoc.pending_dns_count(), 1);
        let answer = DnsMessage::answer(&query, &[Ipv4Addr::new(158, 85, 5, 197)], 300);
        let (tx, rtt) = assoc.on_incoming(&answer.to_bytes(), 43_000_000).unwrap();
        assert_eq!(tx.id, 0x77);
        assert_eq!(rtt, 42_000_000);
        assert_eq!(assoc.pending_dns_count(), 0);
        assert_eq!(assoc.datagrams_out, 1);
        assert_eq!(assoc.datagrams_in, 1);
    }

    #[test]
    fn mismatched_transaction_ids_do_not_complete() {
        let mut assoc = UdpAssociation::new(dns_flow());
        let query = DnsMessage::query(1, "a.example");
        assoc.on_outgoing(&query.to_bytes(), 0);
        let other = DnsMessage::query(2, "a.example");
        let answer = DnsMessage::answer(&other, &[], 60);
        assert!(assoc.on_incoming(&answer.to_bytes(), 10).is_none());
        assert_eq!(assoc.pending_dns_count(), 1);
    }

    #[test]
    fn non_dns_flows_are_relayed_but_not_measured() {
        let mut assoc = UdpAssociation::new(other_flow());
        assert!(!assoc.is_dns());
        assert!(assoc.on_outgoing(&[1, 2, 3], 5).is_none());
        assert!(assoc.on_incoming(&[4, 5, 6], 9).is_none());
        assert_eq!(assoc.datagrams_out, 1);
        assert_eq!(assoc.datagrams_in, 1);
        assert_eq!(assoc.last_activity_ns, 9);
        assoc.attach_external(3);
        assert_eq!(assoc.external(), Some(3));
        assert_eq!(assoc.flow(), other_flow());
    }

    #[test]
    fn garbage_payload_on_dns_port_is_ignored() {
        let mut assoc = UdpAssociation::new(dns_flow());
        assert!(assoc.on_outgoing(&[0xff; 3], 5).is_none());
        assert!(assoc.on_incoming(&[0xff; 3], 9).is_none());
        assert_eq!(assoc.pending_dns_count(), 0);
    }

    #[test]
    fn queries_are_not_treated_as_responses() {
        let mut assoc = UdpAssociation::new(dns_flow());
        let query = DnsMessage::query(9, "x.example");
        assoc.on_outgoing(&query.to_bytes(), 0);
        // Receiving a *query* (not a response) must not complete the pending
        // transaction.
        assert!(assoc.on_incoming(&query.to_bytes(), 10).is_none());
        assert_eq!(assoc.pending_dns_count(), 1);
    }
}
