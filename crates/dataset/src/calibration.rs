//! Constants lifted from the paper's §4.2, used to calibrate the generator
//! and to check the regenerated statistics against the original.

/// Calibration targets from the MopEye deployment (16 May 2016 – 3 Jan 2017).
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Total RTT measurements in the dataset.
    pub total_measurements: u64,
    /// TCP (per-app) measurements.
    pub tcp_measurements: u64,
    /// DNS measurements.
    pub dns_measurements: u64,
    /// Devices that performed at least one measurement.
    pub devices: u32,
    /// Distinct apps measured.
    pub apps: u32,
    /// Distinct user countries.
    pub countries: u32,
    /// Median RTT over all per-app measurements, in ms (Figure 9a).
    pub median_app_rtt_ms: f64,
    /// Median per-app RTT on WiFi, in ms.
    pub median_app_rtt_wifi_ms: f64,
    /// Median per-app RTT on cellular (2G+3G+LTE), in ms.
    pub median_app_rtt_cellular_ms: f64,
    /// Median per-app RTT on LTE alone, in ms.
    pub median_app_rtt_lte_ms: f64,
    /// Median DNS RTT over all measurements, in ms (Figure 10a).
    pub median_dns_rtt_ms: f64,
    /// Median DNS RTT on WiFi, in ms.
    pub median_dns_rtt_wifi_ms: f64,
    /// Median DNS RTT on cellular, in ms.
    pub median_dns_rtt_cellular_ms: f64,
    /// Median DNS RTT on 4G, 3G and 2G, in ms (Figure 10b).
    pub median_dns_rtt_4g_ms: f64,
    /// Median DNS RTT on 3G.
    pub median_dns_rtt_3g_ms: f64,
    /// Median DNS RTT on 2G.
    pub median_dns_rtt_2g_ms: f64,
    /// Fraction of DNS measurements taken on 4G among cellular ones (§4.2.3).
    pub dns_4g_fraction: f64,
    /// Figure 6(a): users per measurement-count bucket
    /// (>10K, 5K–10K, 1K–5K, 100–1K).
    pub users_per_bucket: [u32; 4],
    /// Figure 6(b): apps per measurement-count bucket.
    pub apps_per_bucket: [u32; 4],
    /// Median RTT of the 331 SoftLayer-hosted whatsapp.net domains (Case 1).
    pub whatsapp_softlayer_median_ms: f64,
    /// Median RTT of the three CDN-hosted whatsapp.net domains.
    pub whatsapp_cdn_median_ms: f64,
    /// Jio's median per-app RTT (Case 2).
    pub jio_app_median_ms: f64,
    /// Jio's median DNS RTT.
    pub jio_dns_median_ms: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::paper()
    }
}

impl Calibration {
    /// The numbers reported in the paper.
    pub(crate) fn paper() -> Self {
        Self {
            total_measurements: 5_252_758,
            tcp_measurements: 3_576_931,
            dns_measurements: 1_675_827,
            devices: 2_351,
            apps: 6_266,
            countries: 114,
            median_app_rtt_ms: 65.0,
            median_app_rtt_wifi_ms: 58.0,
            median_app_rtt_cellular_ms: 84.0,
            median_app_rtt_lte_ms: 76.0,
            median_dns_rtt_ms: 42.0,
            median_dns_rtt_wifi_ms: 33.0,
            median_dns_rtt_cellular_ms: 61.0,
            median_dns_rtt_4g_ms: 56.0,
            median_dns_rtt_3g_ms: 105.0,
            median_dns_rtt_2g_ms: 755.0,
            dns_4g_fraction: 0.8,
            users_per_bucket: [104, 70, 288, 575],
            apps_per_bucket: [60, 58, 306, 1125],
            whatsapp_softlayer_median_ms: 261.0,
            whatsapp_cdn_median_ms: 80.0,
            jio_app_median_ms: 281.0,
            jio_dns_median_ms: 59.0,
        }
    }

    /// Fraction of measurements that are TCP (the rest are DNS).
    pub(crate) fn tcp_fraction(&self) -> f64 {
        self.tcp_measurements as f64 / self.total_measurements as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_self_consistent() {
        let c = Calibration::paper();
        assert_eq!(c.tcp_measurements + c.dns_measurements, c.total_measurements);
        assert!((c.tcp_fraction() - 0.681).abs() < 0.01);
        assert_eq!(c.users_per_bucket.iter().sum::<u32>(), 1_037);
        assert_eq!(c.apps_per_bucket.iter().sum::<u32>(), 1_549);
        // Network orderings the figures rely on.
        assert!(c.median_app_rtt_wifi_ms < c.median_app_rtt_lte_ms);
        assert!(c.median_app_rtt_lte_ms < c.median_app_rtt_cellular_ms);
        assert!(c.median_dns_rtt_4g_ms < c.median_dns_rtt_3g_ms);
        assert!(c.median_dns_rtt_3g_ms < c.median_dns_rtt_2g_ms);
        assert!(c.jio_app_median_ms > 4.0 * c.jio_dns_median_ms);
        assert_eq!(Calibration::default(), c);
    }
}
