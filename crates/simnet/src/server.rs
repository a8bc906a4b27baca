//! Simulated remote application servers.
//!
//! Each server models one destination the relay can connect to: it has one or
//! more IP addresses, the domains that resolve to it, a path RTT distribution
//! from the handset to it, and a simple service behaviour used when the
//! workload exchanges data.

use std::net::IpAddr;

use crate::latency::LatencyModel;

/// What a server does with application data once a connection is established.
#[derive(Debug, Clone, PartialEq)]
pub enum Service {
    /// Accepts connections and data but never responds (e.g. analytics sinks).
    Silent,
    /// Echoes every received byte back.
    Echo,
    /// Responds to each request with a fixed-size response after a
    /// server-side processing delay, like an HTTP front end.
    Request {
        /// Response body size in bytes.
        response_bytes: usize,
        /// Server processing time before the first response byte.
        processing: LatencyModel,
    },
    /// Streams an effectively unbounded body as fast as the path allows,
    /// like a video CDN or a speed-test sink.
    Bulk,
    /// Refuses connections with RST (closed port / blocked destination).
    Refuse,
    /// Accepts the SYN but never completes the handshake (drops it), causing
    /// a connect timeout.
    Blackhole,
}

impl Service {
    /// A typical web front end: ~32 KiB responses with a few ms server time.
    pub fn web() -> Self {
        Service::Request { response_bytes: 32 * 1024, processing: LatencyModel::uniform(1.0, 8.0) }
    }

    /// A typical API endpoint: small JSON responses, fast servers.
    pub fn api() -> Self {
        Service::Request { response_bytes: 2 * 1024, processing: LatencyModel::uniform(0.5, 4.0) }
    }
}

/// A remote server the simulated handset can reach.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// A human-readable name ("Google", "graph.facebook.com front end").
    pub name: String,
    /// Addresses this server answers on.
    pub addrs: Vec<IpAddr>,
    /// Domains that resolve to this server.
    pub domains: Vec<String>,
    /// Internet-path RTT from the handset's ISP edge to this server,
    /// excluding the access network (which the [`crate::profile::AccessProfile`] adds).
    pub path_rtt: LatencyModel,
    /// Service behaviour.
    pub service: Service,
}

impl ServerConfig {
    /// Creates a server with a single IPv4 address.
    pub fn new(name: &str, addr: IpAddr, path_rtt: LatencyModel, service: Service) -> Self {
        Self { name: name.to_string(), addrs: vec![addr], domains: Vec::new(), path_rtt, service }
    }

    /// Adds a domain that resolves to this server.
    pub fn with_domain(mut self, domain: &str) -> Self {
        self.domains.push(domain.to_ascii_lowercase());
        self
    }

    /// Returns true if this server answers on `addr`.
    pub(crate) fn has_addr(&self, addr: IpAddr) -> bool {
        self.addrs.contains(&addr)
    }

    /// The paper's Table 2 destinations, with their tcpdump-measured RTT
    /// scales: Google (~4–5 ms), Facebook (~37 ms) and Dropbox (~285–514 ms).
    pub(crate) fn table2_destinations() -> Vec<ServerConfig> {
        vec![
            ServerConfig::new(
                "Google",
                "216.58.221.132".parse().unwrap(),
                LatencyModel::lognormal_with(4.0, 0.15, 0.5),
                Service::web(),
            )
            .with_domain("www.google.com"),
            ServerConfig::new(
                "Facebook",
                "31.13.79.251".parse().unwrap(),
                LatencyModel::lognormal_with(36.0, 0.08, 1.0),
                Service::web(),
            )
            .with_domain("graph.facebook.com"),
            ServerConfig::new(
                "Dropbox",
                "108.160.166.126".parse().unwrap(),
                LatencyModel::lognormal_with(320.0, 0.3, 60.0),
                Service::web(),
            )
            .with_domain("www.dropbox.com"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn builder_accumulates_domains_and_addrs() {
        let s = ServerConfig::new(
            "WhatsApp",
            "158.85.5.197".parse().unwrap(),
            LatencyModel::lognormal_with(261.0, 0.45, 0.0),
            Service::api(),
        )
        .with_domain("e1.whatsapp.net")
        .with_domain("E2.WHATSAPP.NET");
        assert_eq!(s.domains, ["e1.whatsapp.net", "e2.whatsapp.net"]);
        assert!(s.has_addr("158.85.5.197".parse().unwrap()));
        assert!(!s.has_addr("1.2.3.4".parse().unwrap()));
    }

    #[test]
    fn table2_destinations_have_expected_scales() {
        let servers = ServerConfig::table2_destinations();
        assert_eq!(servers.len(), 3);
        let mut rng = SimRng::seed_from_u64(1);
        let rtt = |i: usize, rng: &mut SimRng| servers[i].path_rtt.sample_ms(rng);
        // Google well under Facebook, Facebook well under Dropbox.
        let (g, f, d) = (rtt(0, &mut rng), rtt(1, &mut rng), rtt(2, &mut rng));
        assert!(g < 10.0, "google rtt {g}");
        assert!((20.0..60.0).contains(&f), "facebook rtt {f}");
        assert!(d > 150.0, "dropbox rtt {d}");
    }

    #[test]
    fn web_and_api_services_have_processing_models() {
        for service in [Service::web(), Service::api()] {
            match service {
                Service::Request { response_bytes, processing } => {
                    assert!(response_bytes > 0);
                    assert!(processing.nominal_ms() > 0.0);
                }
                _ => panic!("expected request service"),
            }
        }
    }
}
