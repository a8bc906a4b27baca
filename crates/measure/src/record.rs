//! The measurement record type.


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

impl MeasurementKind {
    pub(crate) fn as_json_str(self) -> &'static str {
        match self {
            MeasurementKind::Tcp => "Tcp",
            MeasurementKind::Dns => "Dns",
        }
    }

    pub(crate) fn from_json_str(s: &str) -> Option<Self> {
        match s {
            "Tcp" => Some(MeasurementKind::Tcp),
            "Dns" => Some(MeasurementKind::Dns),
            _ => None,
        }
    }
}

impl NetKind {
    /// All variants in figure order.
    pub const ALL: [NetKind; 4] = [NetKind::Wifi, NetKind::Lte, NetKind::Umts3g, NetKind::Gprs2g];

    /// True for any cellular technology.
    pub fn is_cellular(self) -> bool {
        !matches!(self, NetKind::Wifi)
    }

    /// The variant's wire tag: what record, aggregate and checkpoint JSON
    /// carry for it.
    pub fn as_json_str(self) -> &'static str {
        match self {
            NetKind::Wifi => "Wifi",
            NetKind::Lte => "Lte",
            NetKind::Umts3g => "Umts3g",
            NetKind::Gprs2g => "Gprs2g",
        }
    }

    /// The variant a wire tag names; `None` for an unknown tag.
    pub fn from_json_str(s: &str) -> Option<Self> {
        match s {
            "Wifi" => Some(NetKind::Wifi),
            "Lte" => Some(NetKind::Lte),
            "Umts3g" => Some(NetKind::Umts3g),
            "Gprs2g" => Some(NetKind::Gprs2g),
            _ => None,
        }
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

    /// Serialises the record to a single-line JSON object.
    pub fn to_json(&self) -> mop_json::Value {
        mop_json::json!({
            "kind": self.kind.as_json_str(),
            "rtt_ms": self.rtt_ms,
            "device": self.device,
            "app": &self.app,
            "domain": &self.domain,
            "dst_ip": &self.dst_ip,
            "dst_port": self.dst_port,
            "network": self.network.as_json_str(),
            "isp": &self.isp,
            "country": &self.country,
            "timestamp_s": self.timestamp_s,
        })
    }

    /// Parses a record from the object produced by [`RttRecord::to_json`].
    pub fn from_json(value: &mop_json::Value) -> Option<Self> {
        Some(Self {
            kind: MeasurementKind::from_json_str(value["kind"].as_str()?)?,
            rtt_ms: value["rtt_ms"].as_f64()?,
            device: u32::try_from(value["device"].as_u64()?).ok()?,
            app: value["app"].as_str()?.to_string(),
            domain: value["domain"].as_str()?.to_string(),
            dst_ip: value["dst_ip"].as_str()?.to_string(),
            dst_port: u16::try_from(value["dst_port"].as_u64()?).ok()?,
            network: NetKind::from_json_str(value["network"].as_str()?)?,
            isp: value["isp"].as_str()?.to_string(),
            country: value["country"].as_str()?.to_string(),
            timestamp_s: value["timestamp_s"].as_u64()?,
        })
    }

    /// The registrable parent domain ("e3.whatsapp.net" → "whatsapp.net"),
    /// used by the per-provider analyses.
    pub fn parent_domain(&self) -> &str {
        let parts: Vec<&str> = self.domain.rsplitn(3, '.').collect();
        if parts.len() >= 2 {
            // parts[0] is the TLD, parts[1] the registrable label; everything
            // up to the second dot from the right.
            let tail_len = parts[0].len() + parts[1].len() + 1;
            &self.domain[self.domain.len() - tail_len..]
        } else {
            &self.domain
        }
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
        assert_eq!(r.parent_domain(), "whatsapp.net");
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
    fn parent_domain_handles_short_names() {
        assert_eq!(RttRecord::tcp(1.0, 1, "a", NetKind::Wifi).with_domain("whatsapp.net").parent_domain(), "whatsapp.net");
        assert_eq!(RttRecord::tcp(1.0, 1, "a", NetKind::Wifi).with_domain("localhost").parent_domain(), "localhost");
        assert_eq!(
            RttRecord::tcp(1.0, 1, "a", NetKind::Wifi).with_domain("mme.whatsapp.net").parent_domain(),
            "whatsapp.net"
        );
        assert_eq!(
            RttRecord::tcp(1.0, 1, "a", NetKind::Wifi).with_domain("a.b.graph.facebook.com").parent_domain(),
            "facebook.com"
        );
    }

    #[test]
    fn net_kind_helpers() {
        assert!(NetKind::Lte.is_cellular());
        assert!(!NetKind::Wifi.is_cellular());
        assert_eq!(NetKind::Gprs2g.label(), "2G GPRS/EDGE");
        assert_eq!(NetKind::ALL.len(), 4);
    }

    #[test]
    fn json_roundtrip() {
        let r = RttRecord::tcp(61.0, 1, "com.facebook.katana", NetKind::Wifi).with_domain("graph.facebook.com");
        let json = mop_json::to_string(&r.to_json());
        let back = RttRecord::from_json(&mop_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(RttRecord::from_json(&mop_json::Value::Null).is_none());
        assert!(RttRecord::from_json(&mop_json::json!({"kind": "Tcp"})).is_none());
    }
}
