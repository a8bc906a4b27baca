//! The measurement record type.

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};

/// Whether a measurement timed a TCP handshake or a DNS exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MeasurementKind {
    /// SYN ↔ SYN/ACK of an app's TCP connection.
    Tcp,
    /// DNS query ↔ response.
    Dns,
}

/// The access-network technology a measurement was taken on.
///
/// This mirrors `mop_simnet::NetworkType` but is defined independently so the
/// measurement schema has no dependency on the simulator (records could come
/// from a real deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetKind {
    /// 802.11 WiFi.
    Wifi,
    /// 4G LTE.
    Lte,
    /// 3G UMTS/HSPA.
    Umts3g,
    /// 2G GPRS/EDGE.
    Gprs2g,
}

impl NetKind {
    /// All variants in figure order.
    pub const ALL: [NetKind; 4] = [NetKind::Wifi, NetKind::Lte, NetKind::Umts3g, NetKind::Gprs2g];

    /// True for any cellular technology.
    pub fn is_cellular(self) -> bool {
        !matches!(self, NetKind::Wifi)
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            NetKind::Wifi => "WiFi",
            NetKind::Lte => "4G LTE",
            NetKind::Umts3g => "3G UMTS/HSPA(P)",
            NetKind::Gprs2g => "2G GPRS/EDGE",
        }
    }
}

/// The wire tag of each variant, as record, aggregate and checkpoint JSON
/// carry it.
const KIND_TAGS: [(MeasurementKind, &str); 2] =
    [(MeasurementKind::Tcp, "Tcp"), (MeasurementKind::Dns, "Dns")];

/// The wire tag of each variant.
const NET_TAGS: [(NetKind, &str); 4] = [
    (NetKind::Wifi, "Wifi"),
    (NetKind::Lte, "Lte"),
    (NetKind::Umts3g, "Umts3g"),
    (NetKind::Gprs2g, "Gprs2g"),
];

/// Reads a string and finds it in `tags`; an unknown tag is an error, never
/// a default — a checkpoint that restored it as anything would re-label
/// samples and resume to a wrong digest.
fn read_tag<T: Copy>(
    input: &mut JsonReader<'_>,
    tags: &[(T, &str)],
    what: &str,
) -> Result<T, ParseError> {
    let tag = input.read_str()?;
    match tags.iter().find(|(_, name)| *name == tag) {
        Some((value, _)) => Ok(*value),
        None => Err(input.error(format!("unknown {what} {tag:?}"))),
    }
}

fn tag_of<T: PartialEq>(tags: &[(T, &'static str)], value: &T) -> &'static str {
    tags.iter().find(|(v, _)| v == value).map(|(_, name)| *name).expect("every variant has a tag")
}

impl ToJson for MeasurementKind {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.str(tag_of(&KIND_TAGS, self));
    }
}

impl FromJson for MeasurementKind {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        read_tag(input, &KIND_TAGS, "measurement kind")
    }
}

impl ToJson for NetKind {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.str(tag_of(&NET_TAGS, self));
    }
}

impl FromJson for NetKind {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        read_tag(input, &NET_TAGS, "network kind")
    }
}

/// One RTT measurement and its context, the unit of the crowdsourced dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct RttRecord {
    /// Measurement kind (TCP or DNS).
    pub kind: MeasurementKind,
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Anonymous device identifier.
    pub device: u32,
    /// Package name of the app that generated the traffic (empty for DNS,
    /// which is system-wide, §2.2).
    pub app: String,
    /// Destination domain, when known.
    pub domain: String,
    /// Destination IP as text (empty if unknown).
    pub dst_ip: String,
    /// Destination port.
    pub dst_port: u16,
    /// Access-network type at measurement time.
    pub network: NetKind,
    /// Operator name (for cellular) or SSID-derived WiFi network name.
    pub isp: String,
    /// Country the device was in.
    pub country: String,
    /// Seconds since the start of the deployment.
    pub timestamp_s: u64,
}

impl RttRecord {
    /// Creates a TCP record with the required fields; optional context can be
    /// filled in afterwards.
    pub fn tcp(rtt_ms: f64, device: u32, app: &str, network: NetKind) -> Self {
        Self {
            kind: MeasurementKind::Tcp,
            rtt_ms,
            device,
            app: app.to_string(),
            domain: String::new(),
            dst_ip: String::new(),
            dst_port: 443,
            network,
            isp: String::new(),
            country: String::new(),
            timestamp_s: 0,
        }
    }

    /// Creates a DNS record.
    pub fn dns(rtt_ms: f64, device: u32, network: NetKind) -> Self {
        Self {
            kind: MeasurementKind::Dns,
            rtt_ms,
            device,
            app: String::new(),
            domain: String::new(),
            dst_ip: String::new(),
            dst_port: 53,
            network,
            isp: String::new(),
            country: String::new(),
            timestamp_s: 0,
        }
    }

    /// Sets the destination domain.
    pub fn with_domain(mut self, domain: &str) -> Self {
        self.domain = domain.to_ascii_lowercase();
        self
    }

    /// Sets the ISP name.
    pub fn with_isp(mut self, isp: &str) -> Self {
        self.isp = isp.to_string();
        self
    }

    /// Sets the country.
    pub fn with_country(mut self, country: &str) -> Self {
        self.country = country.to_string();
        self
    }

    /// Sets the destination IP and port.
    pub fn with_dst(mut self, ip: &str, port: u16) -> Self {
        self.dst_ip = ip.to_string();
        self.dst_port = port;
        self
    }

    /// Sets the timestamp (seconds since deployment start).
    pub fn with_timestamp(mut self, timestamp_s: u64) -> Self {
        self.timestamp_s = timestamp_s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fill_context() {
        let r = RttRecord::tcp(133.0, 42, "com.whatsapp", NetKind::Lte)
            .with_domain("E3.WhatsApp.NET")
            .with_isp("Jio 4G")
            .with_country("India")
            .with_dst("158.85.5.197", 443)
            .with_timestamp(86_400);
        assert_eq!(r.kind, MeasurementKind::Tcp);
        assert_eq!(r.domain, "e3.whatsapp.net");
        assert_eq!(r.isp, "Jio 4G");
        assert_eq!(r.timestamp_s, 86_400);
        assert_eq!(r.dst_port, 443);
    }

    #[test]
    fn dns_records_have_no_app() {
        let r = RttRecord::dns(42.0, 7, NetKind::Wifi);
        assert_eq!(r.kind, MeasurementKind::Dns);
        assert!(r.app.is_empty());
        assert_eq!(r.dst_port, 53);
    }

    #[test]
    fn net_kind_helpers() {
        assert!(NetKind::Lte.is_cellular());
        assert!(!NetKind::Wifi.is_cellular());
        assert_eq!(NetKind::Gprs2g.label(), "2G GPRS/EDGE");
        assert_eq!(NetKind::ALL.len(), 4);
    }
}
