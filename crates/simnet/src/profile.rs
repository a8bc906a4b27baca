//! Access-network profiles.
//!
//! The crowdsourced analysis in §4.2 slices RTTs by network type (WiFi vs
//! cellular, and 2G/3G/4G within cellular) and by ISP. The profiles here
//! carry the latency, bandwidth and loss models of the access networks the
//! simulated handset runs on (WiFi, LTE and a lossy 3G); the per-ISP slices
//! of the crowd dataset are modelled by `mop_dataset`'s catalog.

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
}

impl NetworkType {
    /// All network types, in the order used by the figures.
    pub const ALL: [NetworkType; 3] = [NetworkType::Wifi, NetworkType::Lte, NetworkType::Umts3g];

    /// A short label matching the paper's figures.
    pub(crate) fn label(self) -> &'static str {
        match self {
            NetworkType::Wifi => "WiFi",
            NetworkType::Lte => "4G LTE",
            NetworkType::Umts3g => "3G UMTS/HSPA(P)",
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
    pub(crate) fn downlink_tx_delay_ms(&self, bytes: usize) -> f64 {
        tx_delay_ms(bytes, self.downlink_mbps)
    }

    /// Transmission (serialisation) delay of `bytes` on the uplink.
    pub(crate) fn uplink_tx_delay_ms(&self, bytes: usize) -> f64 {
        tx_delay_ms(bytes, self.uplink_mbps)
    }
}

fn tx_delay_ms(bytes: usize, mbps: f64) -> f64 {
    if mbps <= 0.0 {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / (mbps * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_type_labels_match_figures() {
        assert_eq!(NetworkType::Lte.label(), "4G LTE");
        assert_eq!(NetworkType::Umts3g.to_string(), "3G UMTS/HSPA(P)");
        assert_eq!(NetworkType::ALL.len(), 3);
    }

    #[test]
    fn profile_ordering_of_latencies_is_sane() {
        // WiFi < LTE < 3G in nominal DNS latency, as in Figure 10.
        let wifi = AccessProfile::wifi().dns_rtt.nominal_ms();
        let lte = AccessProfile::lte().dns_rtt.nominal_ms();
        let g3 = AccessProfile::lossy_3g().dns_rtt.nominal_ms();
        assert!(wifi < lte && lte < g3);
    }

    #[test]
    fn tx_delay_scales_with_size_and_rate() {
        let wifi = AccessProfile::wifi();
        // 1460-byte segment at 25 Mbps is roughly 0.47 ms.
        let d = wifi.downlink_tx_delay_ms(1460);
        assert!((d - 0.4672).abs() < 0.01, "delay {d}");
        assert!(wifi.uplink_tx_delay_ms(1460) < AccessProfile::lossy_3g().uplink_tx_delay_ms(1460));
        assert!(tx_delay_ms(100, 0.0).is_infinite());
    }

    #[test]
    fn only_lossy_3g_carries_data_faults_by_default() {
        for clean in [AccessProfile::wifi(), AccessProfile::lte()] {
            assert!(!clean.has_data_faults(), "{} should be clean", clean.network_type);
        }
        let lossy = AccessProfile::lossy_3g();
        assert!(lossy.has_data_faults());
        assert!(lossy.data_loss > 0.0 && lossy.reorder > 0.0 && lossy.duplicate > 0.0);
        let dialed = AccessProfile::wifi().with_data_faults(0.005, 0.0, 0.0);
        assert!(dialed.has_data_faults());
        assert_eq!(dialed.reorder, 0.0);
    }
}
