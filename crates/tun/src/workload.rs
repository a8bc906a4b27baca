//! Workload generators.
//!
//! These produce schedules of flows (TCP connections and DNS queries) shaped
//! like the traffic classes the paper's evaluation uses: web browsing for the
//! mapping experiment (§3.3), bulk transfer for the throughput experiment
//! (Table 3), video streaming for the resource experiment (Table 4), and a
//! messaging mix for general end-to-end runs.

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};
use mop_measure::NetKind;
use mop_packet::ipv4::IPV4_MIN_HEADER_LEN;
use mop_packet::tcp::TCP_MIN_HEADER_LEN;
use mop_packet::Endpoint;
use mop_simnet::{SimDuration, SimRng, SimTime};

/// Whether a flow is a TCP connection or a DNS query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// A TCP connection carrying a request/response exchange.
    Tcp,
    /// A UDP DNS query.
    Dns,
}

/// One flow an app will open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// When the app opens the flow (SYN or DNS query time).
    pub at: SimTime,
    /// UID of the owning app.
    pub uid: u32,
    /// Package name of the owning app.
    pub package: String,
    /// The app-side source endpoint, when pre-assigned.
    ///
    /// `None` lets the engine allocate a port from its sequential pool (the
    /// single-device behaviour). Fleet scenarios pre-assign a unique source
    /// per connection so the flow's four-tuple — and therefore its shard,
    /// its RNG streams and its whole timeline — is a pure function of the
    /// spec.
    pub src: Option<Endpoint>,
    /// Destination endpoint (server for TCP, resolver for DNS).
    pub dst: Endpoint,
    /// The domain being contacted (used for DNS and for per-domain analysis).
    pub domain: Option<String>,
    /// Request size in bytes for TCP flows.
    pub request_bytes: usize,
    /// Close after receiving this many response bytes (0 = first data).
    pub close_after: usize,
    /// TCP or DNS.
    pub kind: FlowKind,
    /// The access-network technology this flow's measurements should be
    /// labelled with in the aggregated crowd report.
    ///
    /// `None` lets the engine derive the label from the simulated network's
    /// access profile at measurement time. Scenario generators set it from
    /// their network profile so the label survives even when the report is
    /// produced far from the network description.
    pub network: Option<NetKind>,
    /// The operator / Wi-Fi network name this flow's measurements should be
    /// labelled with (the per-ISP analyses group by it). `None` leaves the
    /// label empty.
    pub isp: Option<String>,
}

impl FlowSpec {
    /// The largest `request_bytes` a TCP flow to `dst` can carry. An app
    /// sends its whole request as one option-free TCP segment, and one IP
    /// packet's 16-bit length field bounds it: the total length over IPv4
    /// (65,495 B of request), the payload length over IPv6 (65,515 B).
    fn max_request_bytes(dst: &Endpoint) -> usize {
        let ip_header = if dst.is_ipv4() { IPV4_MIN_HEADER_LEN } else { 0 };
        usize::from(u16::MAX) - ip_header - TCP_MIN_HEADER_LEN
    }

    /// The field that keeps the engine from running this spec, and why:
    /// a request too large for its one segment, or a source of another
    /// address family than the destination (a TCP flow without a source
    /// gets the engine's IPv4 one). Building the flow's first packet would
    /// panic on either.
    fn unrunnable(&self) -> Option<(&'static str, String)> {
        let src_is_ipv4 = match self.src {
            Some(src) => src.is_ipv4(),
            None if self.kind == FlowKind::Tcp => true,
            None => self.dst.is_ipv4(),
        };
        if src_is_ipv4 != self.dst.is_ipv4() {
            let src =
                self.src.map_or("the engine's IPv4 source".to_string(), |src| src.to_string());
            let why = format!("{src} and {} are of different address families", self.dst);
            return Some(("dst", why));
        }
        let max = Self::max_request_bytes(&self.dst);
        if self.kind == FlowKind::Tcp && self.request_bytes > max {
            let (request, dst) = (self.request_bytes, self.dst);
            let why =
                format!("{request} B exceeds the {max} B one request segment to {dst} carries");
            return Some(("request_bytes", why));
        }
        None
    }
}

/// `"Tcp"` / `"Dns"`.
impl ToJson for FlowKind {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.str(match self {
            FlowKind::Tcp => "Tcp",
            FlowKind::Dns => "Dns",
        });
    }
}

impl FromJson for FlowKind {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        match &*input.read_str()? {
            "Tcp" => Ok(FlowKind::Tcp),
            "Dns" => Ok(FlowKind::Dns),
            other => Err(input.error(format!("unknown flow kind {other:?}"))),
        }
    }
}

/// The checkpoint encoding of a pending flow: every field, the start time
/// as `at_ns`, absent labels and endpoints as `null`.
impl ToJson for FlowSpec {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("at_ns", &self.at.as_nanos());
        out.field("uid", &self.uid);
        out.field("package", &self.package);
        out.field("src", &self.src);
        out.field("dst", &self.dst);
        out.field("domain", &self.domain);
        out.field("request_bytes", &self.request_bytes);
        out.field("close_after", &self.close_after);
        out.field("kind", &self.kind);
        out.field("network", &self.network);
        out.field("isp", &self.isp);
        out.end_object();
    }
}

impl FromJson for FlowSpec {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "at_ns" => at_ns,
            "uid" => uid,
            "package" => package,
            "src" => src,
            "dst" => dst,
            "domain" => domain,
            "request_bytes" => request_bytes,
            "close_after" => close_after,
            "kind" => kind,
            "network" => network,
            "isp" => isp,
        });
        let spec = FlowSpec {
            at: SimTime::from_nanos(at_ns),
            uid,
            package,
            src,
            dst,
            domain,
            request_bytes,
            close_after,
            kind,
            network,
            isp,
        };
        match spec.unrunnable() {
            Some((field, why)) => Err(input.error(why).within(field)),
            None => Ok(spec),
        }
    }
}

/// The built-in workload shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Bursts of short connections to several domains, like loading pages in
    /// Chrome (the §3.3 scenario).
    WebBrowsing,
    /// Sparse small exchanges, like a chat app.
    Messaging,
    /// One long-lived bulk connection plus periodic keep-alives, like a video
    /// player (Table 4).
    VideoStreaming,
    /// Back-to-back large transfers, like a speed test (Table 3).
    BulkTransfer,
    /// A burst of DNS queries.
    DnsBurst,
}

/// A workload generator: a kind plus its parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    kind: WorkloadKind,
    /// UID of the app generating the traffic.
    pub uid: u32,
    /// Package name of the app generating the traffic.
    pub package: String,
    /// Destinations the workload spreads its connections over.
    pub destinations: Vec<(Endpoint, String)>,
    /// Total duration over which flows are scheduled.
    pub duration: SimDuration,
    /// Scale knob: pages for browsing, messages for messaging, queries for
    /// DNS bursts, transfers for bulk.
    pub intensity: u32,
}

impl Workload {
    /// Creates a workload of the given kind for one app.
    pub fn new(
        kind: WorkloadKind,
        uid: u32,
        package: &str,
        destinations: Vec<(Endpoint, String)>,
        duration: SimDuration,
        intensity: u32,
    ) -> Self {
        Self { kind, uid, package: package.to_string(), destinations, duration, intensity }
    }

    /// Generates the flow schedule.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no destinations.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<FlowSpec> {
        assert!(!self.destinations.is_empty(), "workload needs at least one destination");
        let mut flows = match self.kind {
            WorkloadKind::WebBrowsing => self.web_browsing(rng),
            WorkloadKind::Messaging => self.messaging(rng),
            WorkloadKind::VideoStreaming => self.video(rng),
            WorkloadKind::BulkTransfer => self.bulk(rng),
            WorkloadKind::DnsBurst => self.dns_burst(rng),
        };
        flows.sort_by_key(|f| f.at);
        flows
    }

    fn pick_dst(&self, rng: &mut SimRng) -> (Endpoint, String) {
        self.destinations[rng.int_inclusive(0, self.destinations.len() as u64 - 1) as usize].clone()
    }

    fn tcp_flow(
        &self,
        at: SimTime,
        dst: (Endpoint, String),
        request: usize,
        close_after: usize,
    ) -> FlowSpec {
        FlowSpec {
            at,
            uid: self.uid,
            package: self.package.clone(),
            src: None,
            dst: dst.0,
            domain: Some(dst.1),
            request_bytes: request,
            close_after,
            kind: FlowKind::Tcp,
            network: None,
            isp: None,
        }
    }

    fn web_browsing(&self, rng: &mut SimRng) -> Vec<FlowSpec> {
        // Each "page" opens a DNS query plus a burst of 6–14 connections
        // spread over a couple of seconds; pages are separated by think time.
        let mut flows = Vec::new();
        let pages = self.intensity.max(1);
        let mut cursor = SimTime::from_millis(rng.int_inclusive(50, 500));
        let page_gap = SimDuration::from_nanos(self.duration.as_nanos() / u64::from(pages).max(1));
        for _ in 0..pages {
            let (dst, domain) = self.pick_dst(rng);
            flows.push(FlowSpec {
                at: cursor,
                uid: self.uid,
                package: self.package.clone(),
                src: None,
                dst: Endpoint::v4(192, 168, 1, 1, 53),
                domain: Some(domain.clone()),
                request_bytes: 0,
                close_after: 0,
                kind: FlowKind::Dns,
                network: None,
                isp: None,
            });
            let connections = rng.int_inclusive(6, 14);
            for c in 0..connections {
                // Browsers open their per-page connections almost together,
                // which is what makes the lazy mapping of §3.3 effective.
                let offset = SimDuration::from_millis(20 + rng.int_inclusive(0, 60) + c * 5);
                let request = 200 + rng.int_inclusive(0, 1200) as usize;
                flows.push(self.tcp_flow(
                    cursor + offset,
                    (dst, domain.clone()),
                    request,
                    8 * 1024 + rng.int_inclusive(0, 40 * 1024) as usize,
                ));
            }
            cursor += page_gap.max(SimDuration::from_millis(500));
        }
        flows
    }

    fn messaging(&self, rng: &mut SimRng) -> Vec<FlowSpec> {
        let messages = self.intensity.max(1);
        let mut flows = Vec::new();
        for _ in 0..messages {
            let at = SimTime::from_nanos(rng.int_inclusive(0, self.duration.as_nanos().max(1)));
            let dst = self.pick_dst(rng);
            flows.push(self.tcp_flow(at, dst, 100 + rng.int_inclusive(0, 800) as usize, 256));
        }
        flows
    }

    fn video(&self, rng: &mut SimRng) -> Vec<FlowSpec> {
        // One initial manifest fetch plus a chunk request every few seconds.
        let mut flows = Vec::new();
        let dst = self.pick_dst(rng);
        flows.push(self.tcp_flow(SimTime::from_millis(100), dst.clone(), 500, 4 * 1024));
        let chunk_every = SimDuration::from_secs(6);
        let chunks = (self.duration.as_nanos() / chunk_every.as_nanos().max(1)).max(1);
        for i in 0..chunks {
            let at =
                SimTime::from_millis(500) + SimDuration::from_nanos(chunk_every.as_nanos() * i);
            flows.push(self.tcp_flow(at, dst.clone(), 400, 500 * 1024));
        }
        flows
    }

    fn bulk(&self, rng: &mut SimRng) -> Vec<FlowSpec> {
        let transfers = self.intensity.max(1);
        let mut flows = Vec::new();
        let gap = SimDuration::from_nanos(self.duration.as_nanos() / u64::from(transfers).max(1));
        for i in 0..transfers {
            let dst = self.pick_dst(rng);
            let at =
                SimTime::from_millis(10) + SimDuration::from_nanos(gap.as_nanos() * u64::from(i));
            flows.push(self.tcp_flow(at, dst, 300, 2 * 1024 * 1024));
        }
        flows
    }

    fn dns_burst(&self, rng: &mut SimRng) -> Vec<FlowSpec> {
        let queries = self.intensity.max(1);
        let mut flows = Vec::new();
        for _ in 0..queries {
            let at = SimTime::from_nanos(rng.int_inclusive(0, self.duration.as_nanos().max(1)));
            let (_, domain) = self.pick_dst(rng);
            flows.push(FlowSpec {
                at,
                uid: self.uid,
                package: self.package.clone(),
                src: None,
                dst: Endpoint::v4(192, 168, 1, 1, 53),
                domain: Some(domain),
                request_bytes: 0,
                close_after: 0,
                kind: FlowKind::Dns,
                network: None,
                isp: None,
            });
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn destinations() -> Vec<(Endpoint, String)> {
        vec![
            (Endpoint::v4(216, 58, 221, 132, 443), "www.google.com".into()),
            (Endpoint::v4(31, 13, 79, 251, 443), "graph.facebook.com".into()),
        ]
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(21)
    }

    #[test]
    fn web_browsing_mixes_dns_and_tcp_in_bursts() {
        let w = Workload::new(
            WorkloadKind::WebBrowsing,
            10100,
            "com.android.chrome",
            destinations(),
            SimDuration::from_secs(60),
            10,
        );
        let flows = w.generate(&mut rng());
        let dns = flows.iter().filter(|f| f.kind == FlowKind::Dns).count();
        let tcp = flows.iter().filter(|f| f.kind == FlowKind::Tcp).count();
        assert_eq!(dns, 10);
        assert!((60..=140).contains(&tcp), "tcp count {tcp}");
        // Sorted by time.
        assert!(flows.windows(2).all(|w| w[0].at <= w[1].at));
        // All flows carry the app identity.
        assert!(flows.iter().all(|f| f.uid == 10100 && f.package == "com.android.chrome"));
    }

    #[test]
    fn video_workload_is_one_destination_with_periodic_chunks() {
        let w = Workload::new(
            WorkloadKind::VideoStreaming,
            10200,
            "com.google.android.youtube",
            vec![destinations()[0].clone()],
            SimDuration::from_secs(120),
            1,
        );
        let flows = w.generate(&mut rng());
        assert!(flows.len() >= 20, "len {}", flows.len());
        assert!(flows.iter().all(|f| f.kind == FlowKind::Tcp));
        assert!(flows.iter().skip(1).all(|f| f.close_after == 500 * 1024));
    }

    #[test]
    fn bulk_workload_schedules_big_transfers() {
        let w = Workload::new(
            WorkloadKind::BulkTransfer,
            10300,
            "org.zwanoo.android.speedtest",
            destinations(),
            SimDuration::from_secs(30),
            4,
        );
        let flows = w.generate(&mut rng());
        assert_eq!(flows.len(), 4);
        assert!(flows.iter().all(|f| f.close_after == 2 * 1024 * 1024));
    }

    #[test]
    fn messaging_and_dns_burst_counts_match_intensity() {
        let m = Workload::new(
            WorkloadKind::Messaging,
            1,
            "com.whatsapp",
            destinations(),
            SimDuration::from_secs(300),
            25,
        );
        assert_eq!(m.generate(&mut rng()).len(), 25);
        let d = Workload::new(
            WorkloadKind::DnsBurst,
            1,
            "com.whatsapp",
            destinations(),
            SimDuration::from_secs(10),
            40,
        );
        let flows = d.generate(&mut rng());
        assert_eq!(flows.len(), 40);
        assert!(flows.iter().all(|f| f.kind == FlowKind::Dns && f.dst.port == 53));
    }

    #[test]
    #[should_panic(expected = "at least one destination")]
    fn empty_destinations_panic() {
        Workload::new(WorkloadKind::Messaging, 1, "x", Vec::new(), SimDuration::from_secs(1), 1)
            .generate(&mut rng());
    }

    /// Decodes `spec`'s own encoding.
    fn round_trip(spec: &FlowSpec) -> Result<FlowSpec, ParseError> {
        mop_json::decode(&mop_json::to_string(spec))
    }

    #[test]
    fn decoding_refuses_specs_the_engine_cannot_run() {
        let v4 = FlowSpec {
            at: SimTime::ZERO,
            uid: 10_001,
            package: "com.example".into(),
            src: Some(Endpoint::v4(10, 0, 0, 2, 40_000)),
            dst: Endpoint::v4(93, 184, 216, 34, 443),
            domain: None,
            request_bytes: 65_495,
            close_after: 0,
            kind: FlowKind::Tcp,
            network: None,
            isp: None,
        };
        assert_eq!(round_trip(&v4).unwrap(), v4);
        let error = round_trip(&FlowSpec { request_bytes: 65_496, ..v4.clone() }).unwrap_err();
        assert_eq!(error.path, "request_bytes", "{error}");
        assert!(error.message.contains("65496 B exceeds the 65495 B"), "{error}");

        let v6_dst = Endpoint::new(std::net::Ipv6Addr::LOCALHOST, 443);
        let v6 = FlowSpec {
            src: Some(Endpoint::new(std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 2), 40_000)),
            dst: v6_dst,
            request_bytes: 65_515,
            ..v4.clone()
        };
        assert_eq!(round_trip(&v6).unwrap(), v6);
        let error = round_trip(&FlowSpec { request_bytes: 65_516, ..v6.clone() }).unwrap_err();
        assert_eq!(error.path, "request_bytes", "{error}");

        // A source of the other family, given or the engine's own.
        for src in [v4.src, None] {
            let error = round_trip(&FlowSpec { src, request_bytes: 10, ..v6.clone() }).unwrap_err();
            assert_eq!(error.path, "dst", "{error}");
            assert!(error.message.contains("different address families"), "{error}");
        }
        let error = round_trip(&FlowSpec { src: v6.src, ..v4.clone() }).unwrap_err();
        assert_eq!(error.path, "dst", "{error}");

        // A DNS query sends no request segment.
        let dns = FlowSpec { kind: FlowKind::Dns, src: None, request_bytes: 1 << 20, ..v4 };
        assert_eq!(round_trip(&dns).unwrap(), dns);
    }
}
