//! The simulated DNS resolver.
//!
//! DNS is the one UDP protocol MopEye measures (§2.4): the RTT is the gap
//! between the query leaving the handset and the response arriving. The
//! resolver here is the ISP's local resolver, so its latency comes from the
//! ISP / access-network profile rather than from the authoritative servers.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

use crate::latency::LatencyModel;
use crate::rng::SimRng;

/// Configuration of the ISP resolver the handset uses.
#[derive(Debug, Clone)]
pub struct DnsServerConfig {
    /// The resolver's own address (what the handset sends queries to).
    pub addr: IpAddr,
    /// RTT distribution from the handset to the resolver, including
    /// resolver processing. Taken from the access profile.
    pub latency: LatencyModel,
    /// Static records: domain (lower-case) to addresses.
    records: HashMap<String, Vec<Ipv4Addr>>,
    /// Probability that a query times out (no response).
    pub loss: f64,
}

/// The outcome of a simulated resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsAnswer {
    /// The name resolved to these addresses.
    Addresses(Vec<Ipv4Addr>),
    /// The resolver answered NXDOMAIN.
    NxDomain,
    /// The query or response was lost; the client sees a timeout.
    Timeout,
}

impl DnsServerConfig {
    /// Creates a resolver at the conventional gateway address with the given
    /// latency model.
    pub(crate) fn new(latency: LatencyModel) -> Self {
        Self {
            addr: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 1)),
            latency,
            records: HashMap::new(),
            loss: 0.0,
        }
    }

    /// Registers records for every domain of a server config.
    pub(crate) fn add_server(&mut self, server: &crate::server::ServerConfig) {
        let v4: Vec<Ipv4Addr> = server
            .addrs
            .iter()
            .filter_map(|a| match a {
                IpAddr::V4(v4) => Some(*v4),
                IpAddr::V6(_) => None,
            })
            .collect();
        for domain in &server.domains {
            self.records.insert(domain.clone(), v4.clone());
        }
    }

    /// Looks up `domain`, returning the answer and sampling whether the
    /// exchange is lost.
    pub(crate) fn resolve(&self, domain: &str, rng: &mut SimRng) -> DnsAnswer {
        if rng.chance(self.loss) {
            return DnsAnswer::Timeout;
        }
        match self.records.get(&domain.to_ascii_lowercase()) {
            Some(addrs) if !addrs.is_empty() => DnsAnswer::Addresses(addrs.clone()),
            _ => DnsAnswer::NxDomain,
        }
    }

    /// Samples the query/response round-trip latency in milliseconds.
    pub(crate) fn sample_rtt_ms(&self, rng: &mut SimRng) -> f64 {
        self.latency.sample_ms(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, Service};

    fn resolver() -> DnsServerConfig {
        let mut dns = DnsServerConfig::new(LatencyModel::Constant { ms: 42.0 });
        let facebook = ServerConfig::new(
            "Facebook",
            "31.13.79.251".parse().unwrap(),
            LatencyModel::Constant { ms: 40.0 },
            Service::web(),
        )
        .with_domain("graph.facebook.com");
        dns.add_server(&facebook);
        dns
    }

    #[test]
    fn resolves_known_names_case_insensitively() {
        let dns = resolver();
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(
            dns.resolve("GRAPH.FACEBOOK.COM", &mut rng),
            DnsAnswer::Addresses(vec![Ipv4Addr::new(31, 13, 79, 251)])
        );
        assert_eq!(dns.resolve("nope.example", &mut rng), DnsAnswer::NxDomain);
    }

    #[test]
    fn loss_produces_timeouts() {
        let mut dns = resolver();
        dns.loss = 1.0;
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(dns.resolve("graph.facebook.com", &mut rng), DnsAnswer::Timeout);
    }

    #[test]
    fn add_server_registers_all_domains() {
        let mut dns = DnsServerConfig::new(LatencyModel::Constant { ms: 10.0 });
        let server = ServerConfig::new(
            "Google",
            "216.58.221.132".parse().unwrap(),
            LatencyModel::Constant { ms: 4.0 },
            Service::web(),
        )
        .with_domain("www.google.com")
        .with_domain("youtube.com");
        dns.add_server(&server);
        let mut rng = SimRng::seed_from_u64(3);
        assert!(matches!(dns.resolve("youtube.com", &mut rng), DnsAnswer::Addresses(_)));
        assert!(matches!(dns.resolve("www.google.com", &mut rng), DnsAnswer::Addresses(_)));
    }

    #[test]
    fn latency_sampling_uses_model() {
        let dns = resolver();
        let mut rng = SimRng::seed_from_u64(9);
        assert_eq!(dns.sample_rtt_ms(&mut rng), 42.0);
    }
}
