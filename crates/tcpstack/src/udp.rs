//! DNS-query classification for the relay's UDP path.
//!
//! MopEye relays all UDP traffic but currently measures only DNS (§2.2):
//! the RTT is the time between the `send()` of a query and the `receive()`
//! of its response. [`dns_query`] is the classification the relay needs on
//! its packet path — "is this datagram a DNS query, and for what name". The
//! measurement itself (the pending query and its timestamp) lives in the
//! engine's per-connection record, `mopeye_core::conn::Conn::dns_pending`.

use mop_packet::{DnsMessage, FourTuple};

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

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;
    use std::net::Ipv4Addr;

    fn dns_flow() -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, 41000), Endpoint::v4(192, 168, 1, 1, 53))
    }

    #[test]
    fn a_query_yields_its_transaction_id_and_name() {
        let query = DnsMessage::query(0x77, "e3.whatsapp.net").to_bytes();
        assert_eq!(dns_query(dns_flow(), &query), Some((0x77, "e3.whatsapp.net".to_string())));
        // Either end on port 53 makes it DNS; neither does not.
        let reversed = FourTuple::new(dns_flow().dst, dns_flow().src);
        assert_eq!(dns_query(reversed, &query).map(|(id, _)| id), Some(0x77));
        let off_port = FourTuple::new(dns_flow().src, Endpoint::v4(3, 3, 3, 3, 4500));
        assert_eq!(dns_query(off_port, &query), None);
    }

    #[test]
    fn garbage_payload_on_dns_port_is_ignored() {
        assert_eq!(dns_query(dns_flow(), &[0xff; 3]), None);
        assert_eq!(dns_query(dns_flow(), &[]), None);
    }

    #[test]
    fn responses_are_not_treated_as_queries() {
        let query = DnsMessage::query(9, "x.example");
        let answer = DnsMessage::answer(&query, &[Ipv4Addr::new(158, 85, 5, 197)], 300);
        assert_eq!(dns_query(dns_flow(), &answer.to_bytes()), None);
        assert_eq!(dns_query(dns_flow(), &DnsMessage::nxdomain(&query).to_bytes()), None);
    }
}
