//! Access-network and ISP profiles.
//!
//! The crowdsourced analysis in §4.2 slices RTTs by network type (WiFi vs
//! cellular, and 2G/3G/4G within cellular) and by ISP. These profiles carry
//! the latency and bandwidth models for each slice, calibrated to the medians
//! the paper reports so that the regenerated figures have the same shape.

use crate::latency::LatencyModel;

/// The access-network technology a measurement was taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetworkType {
    /// 802.11 WiFi.
    Wifi,
    /// 4G LTE.
    Lte,
    /// 3G UMTS / HSPA(+).
    Umts3g,
    /// 2G GPRS / EDGE.
    Gprs2g,
}

impl NetworkType {
    /// All network types, in the order used by the figures.
    pub const ALL: [NetworkType; 4] =
        [NetworkType::Wifi, NetworkType::Lte, NetworkType::Umts3g, NetworkType::Gprs2g];

    /// Returns true for any cellular technology.
    pub fn is_cellular(self) -> bool {
        !matches!(self, NetworkType::Wifi)
    }

    /// A short label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            NetworkType::Wifi => "WiFi",
            NetworkType::Lte => "4G LTE",
            NetworkType::Umts3g => "3G UMTS/HSPA(P)",
            NetworkType::Gprs2g => "2G GPRS/EDGE",
        }
    }
}

impl std::fmt::Display for NetworkType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Latency and bandwidth characteristics of one access network.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessProfile {
    /// The technology this profile models.
    pub network_type: NetworkType,
    /// First-hop + core latency added to every path RTT (one way is half).
    pub access_rtt: LatencyModel,
    /// DNS RTT to the ISP's resolver.
    pub dns_rtt: LatencyModel,
    /// Downlink capacity in Mbit/s.
    pub downlink_mbps: f64,
    /// Uplink capacity in Mbit/s.
    pub uplink_mbps: f64,
    /// Packet-loss probability per packet on the access link.
    ///
    /// Applied to connection-establishment (SYN) exchanges, where it drives
    /// the exponential-backoff retry chain.
    pub loss: f64,
    /// Per-segment drop probability on the data path (server → app relay).
    ///
    /// Unlike [`loss`](Self::loss), which only gates connection
    /// establishment, this fires on established-flow data segments and is
    /// what exercises the relay's retransmission machinery.
    pub data_loss: f64,
    /// Probability that a data segment is delivered late enough to arrive
    /// after its successor — the reordering the SACK path recovers from.
    pub reorder: f64,
    /// Probability that a data segment is delivered twice.
    pub duplicate: f64,
}

impl AccessProfile {
    /// A WiFi profile calibrated to the paper's medians (app RTT 58 ms, DNS
    /// 33 ms) and the dedicated 25 Mbps test network used for Table 3.
    pub fn wifi() -> Self {
        Self {
            network_type: NetworkType::Wifi,
            access_rtt: LatencyModel::lognormal_with(2.5, 0.5, 0.8),
            dns_rtt: LatencyModel::lognormal_with(31.0, 0.55, 2.0),
            downlink_mbps: 25.0,
            uplink_mbps: 26.0,
            loss: 0.0005,
            data_loss: 0.0,
            reorder: 0.0,
            duplicate: 0.0,
        }
    }

    /// An LTE profile (app RTT median 76 ms, DNS 56 ms).
    pub fn lte() -> Self {
        Self {
            network_type: NetworkType::Lte,
            access_rtt: LatencyModel::lognormal_with(30.0, 0.5, 12.0),
            dns_rtt: LatencyModel::lognormal_with(44.0, 0.5, 12.0),
            downlink_mbps: 20.0,
            uplink_mbps: 10.0,
            loss: 0.001,
            data_loss: 0.0,
            reorder: 0.0,
            duplicate: 0.0,
        }
    }

    /// A 3G UMTS/HSPA profile (DNS median 105 ms).
    pub fn umts3g() -> Self {
        Self {
            network_type: NetworkType::Umts3g,
            access_rtt: LatencyModel::lognormal_with(75.0, 0.5, 25.0),
            dns_rtt: LatencyModel::lognormal_with(80.0, 0.5, 25.0),
            downlink_mbps: 4.0,
            uplink_mbps: 1.5,
            loss: 0.005,
            data_loss: 0.0,
            reorder: 0.0,
            duplicate: 0.0,
        }
    }

    /// A 2G GPRS/EDGE profile (DNS median 755 ms).
    pub fn gprs2g() -> Self {
        Self {
            network_type: NetworkType::Gprs2g,
            access_rtt: LatencyModel::lognormal_with(600.0, 0.45, 150.0),
            dns_rtt: LatencyModel::lognormal_with(605.0, 0.45, 150.0),
            downlink_mbps: 0.2,
            uplink_mbps: 0.1,
            loss: 0.02,
            data_loss: 0.0,
            reorder: 0.0,
            duplicate: 0.0,
        }
    }

    /// A degraded 3G profile: UMTS latencies with a longer tail, heavy loss
    /// and half the nominal bandwidth — the "lossy 3G" cell-edge network of
    /// the fleet scenario matrix.
    pub fn lossy_3g() -> Self {
        Self {
            network_type: NetworkType::Umts3g,
            access_rtt: LatencyModel::lognormal_with(95.0, 0.65, 25.0),
            dns_rtt: LatencyModel::lognormal_with(110.0, 0.65, 30.0),
            downlink_mbps: 2.0,
            uplink_mbps: 0.75,
            loss: 0.03,
            data_loss: 0.03,
            reorder: 0.01,
            duplicate: 0.002,
        }
    }

    /// The default profile for a given technology.
    pub fn for_type(network_type: NetworkType) -> Self {
        match network_type {
            NetworkType::Wifi => Self::wifi(),
            NetworkType::Lte => Self::lte(),
            NetworkType::Umts3g => Self::umts3g(),
            NetworkType::Gprs2g => Self::gprs2g(),
        }
    }

    /// Overrides the data-path fault rates — used by the loss-sweep bench
    /// and the CI loss matrix to dial specific rates onto a base profile.
    pub fn with_data_faults(mut self, data_loss: f64, reorder: f64, duplicate: f64) -> Self {
        self.data_loss = data_loss;
        self.reorder = reorder;
        self.duplicate = duplicate;
        self
    }

    /// True if any data-path fault knob is nonzero, i.e. a flow on this
    /// profile could ever see a dropped, reordered or duplicated segment.
    ///
    /// Engines consult this to leave the recovery machinery entirely unarmed
    /// on clean profiles, keeping zero-fault runs bit-identical to builds
    /// that predate fault injection.
    pub fn has_data_faults(&self) -> bool {
        self.data_loss > 0.0 || self.reorder > 0.0 || self.duplicate > 0.0
    }

    /// Transmission (serialisation) delay of `bytes` on the downlink.
    pub fn downlink_tx_delay_ms(&self, bytes: usize) -> f64 {
        tx_delay_ms(bytes, self.downlink_mbps)
    }

    /// Transmission (serialisation) delay of `bytes` on the uplink.
    pub fn uplink_tx_delay_ms(&self, bytes: usize) -> f64 {
        tx_delay_ms(bytes, self.uplink_mbps)
    }
}

fn tx_delay_ms(bytes: usize, mbps: f64) -> f64 {
    if mbps <= 0.0 {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / (mbps * 1_000.0)
}

/// A mobile ISP as seen in the dataset: a name, a country, an access profile
/// and a DNS latency model of its resolvers.
#[derive(Debug, Clone, PartialEq)]
pub struct IspProfile {
    /// Operator name as reported by the SIM (e.g. "Verizon").
    pub name: String,
    /// Country the operator serves.
    pub country: String,
    /// The dominant technology of this operator in the dataset.
    pub network_type: NetworkType,
    /// DNS RTT distribution of the operator's resolvers.
    pub dns_rtt: LatencyModel,
    /// Extra latency the operator's core network adds to every app path.
    pub core_extra_rtt: LatencyModel,
}

impl IspProfile {
    /// Creates an LTE ISP with a log-normal DNS latency of the given median.
    pub fn lte(name: &str, country: &str, dns_median_ms: f64) -> Self {
        Self {
            name: name.to_string(),
            country: country.to_string(),
            network_type: NetworkType::Lte,
            dns_rtt: LatencyModel::lognormal_with(dns_median_ms * 0.8, 0.5, dns_median_ms * 0.2),
            core_extra_rtt: LatencyModel::constant(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn network_type_labels_match_figures() {
        assert_eq!(NetworkType::Lte.label(), "4G LTE");
        assert_eq!(NetworkType::Gprs2g.to_string(), "2G GPRS/EDGE");
        assert!(NetworkType::Lte.is_cellular());
        assert!(!NetworkType::Wifi.is_cellular());
        assert_eq!(NetworkType::ALL.len(), 4);
    }

    #[test]
    fn profile_ordering_of_latencies_is_sane() {
        // WiFi < LTE < 3G < 2G in nominal DNS latency, as in Figure 10.
        let wifi = AccessProfile::wifi().dns_rtt.nominal_ms();
        let lte = AccessProfile::lte().dns_rtt.nominal_ms();
        let g3 = AccessProfile::umts3g().dns_rtt.nominal_ms();
        let g2 = AccessProfile::gprs2g().dns_rtt.nominal_ms();
        assert!(wifi < lte && lte < g3 && g3 < g2);
    }

    #[test]
    fn for_type_matches_named_constructors() {
        for t in NetworkType::ALL {
            assert_eq!(AccessProfile::for_type(t).network_type, t);
        }
    }

    #[test]
    fn tx_delay_scales_with_size_and_rate() {
        let wifi = AccessProfile::wifi();
        // 1460-byte segment at 25 Mbps is roughly 0.47 ms.
        let d = wifi.downlink_tx_delay_ms(1460);
        assert!((d - 0.4672).abs() < 0.01, "delay {d}");
        assert!(wifi.uplink_tx_delay_ms(1460) < AccessProfile::gprs2g().uplink_tx_delay_ms(1460));
        assert!(tx_delay_ms(100, 0.0).is_infinite());
    }

    #[test]
    fn only_lossy_3g_carries_data_faults_by_default() {
        for t in NetworkType::ALL {
            assert!(!AccessProfile::for_type(t).has_data_faults(), "{t} should be clean");
        }
        let lossy = AccessProfile::lossy_3g();
        assert!(lossy.has_data_faults());
        assert!(lossy.data_loss > 0.0 && lossy.reorder > 0.0 && lossy.duplicate > 0.0);
        let dialed = AccessProfile::wifi().with_data_faults(0.005, 0.0, 0.0);
        assert!(dialed.has_data_faults());
        assert_eq!(dialed.reorder, 0.0);
    }

    #[test]
    fn isp_builder_sets_fields() {
        let jio = IspProfile {
            core_extra_rtt: LatencyModel::lognormal_with(200.0, 0.4, 50.0),
            ..IspProfile::lte("Jio 4G", "India", 59.0)
        };
        assert_eq!(jio.country, "India");
        assert!(jio.core_extra_rtt.nominal_ms() > 200.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(jio.dns_rtt.sample_ms(&mut rng) > 0.0);
        let cricket = IspProfile {
            dns_rtt: LatencyModel::lognormal_with(40.0, 0.4, 43.0),
            ..IspProfile::lte("Cricket", "America", 93.0)
        };
        assert!(cricket.dns_rtt.nominal_ms() >= 43.0);
    }
}
