//! The synthetic dataset generator.
//!
//! The generator builds a device population (countries, ISPs, network mixes,
//! activity levels) and then emits per-app TCP and DNS measurements whose
//! distributions are calibrated to the paper's reported statistics. The
//! `scale` knob shrinks the dataset uniformly (every device keeps its
//! relative activity) so tests and benches can run on a laptop; analyses
//! that use absolute count thresholds scale them by the same factor.

use mop_measure::{AggregateStore, MeasurementStore, NetKind, RttRecord};
use mop_simnet::SimRng;

use crate::calibration::Calibration;
use crate::catalog::Catalog;

/// Parameters of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Deterministic seed.
    pub seed: u64,
    /// Fraction of the full 5.25 M-measurement deployment to generate.
    pub scale: f64,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self { seed: 20160516, scale: 0.02 }
    }
}

impl DatasetSpec {
    /// Scales an absolute count threshold from the paper (e.g. "domains with
    /// 100+ measurements") to this dataset's size.
    pub fn scaled_threshold(&self, paper_threshold: u64) -> u64 {
        ((paper_threshold as f64 * self.scale).round() as u64).max(2)
    }
}

/// A device in the synthetic population.
#[derive(Debug, Clone)]
struct Device {
    id: u32,
    country: String,
    isp: String,
    isp_index: Option<usize>,
    wifi_fraction: f64,
    /// Distribution over cellular generations (LTE, 3G, 2G).
    cellular_mix: [f64; 3],
    measurements: u64,
    /// Latitude/longitude, jittered around the country centroid (Figure 8).
    lat_lon: (f64, f64),
}

/// The generated dataset plus everything needed to interpret it.
#[derive(Debug)]
pub struct SyntheticDataset {
    /// Generation parameters.
    pub spec: DatasetSpec,
    /// The measurement records.
    pub store: MeasurementStore,
    /// The streaming aggregation of the same records: per-(app, kind,
    /// network, ISP) sketches plus the device plane. The §4.2 analyses in
    /// `mop_analytics` compute from this, so their cost and memory are
    /// independent of the record count.
    pub aggregates: AggregateStore,
    /// The catalogue used.
    pub catalog: Catalog,
    /// The paper constants used for calibration.
    pub calibration: Calibration,
    /// Geographic measurement locations (Figure 8): one entry per device.
    pub locations: Vec<(f64, f64)>,
}

impl SyntheticDataset {
    /// Generates a dataset.
    pub fn generate(spec: DatasetSpec) -> Self {
        let catalog = Catalog::paper();
        let calibration = Calibration::paper();
        let mut rng = SimRng::seed_from_u64(spec.seed);
        let devices = build_devices(&catalog, &calibration, spec.scale, &mut rng);
        let locations = devices.iter().map(|d| d.lat_lon).collect();
        let mut store = MeasurementStore::new();
        for device in &devices {
            emit_device(device, &catalog, &calibration, &mut rng, &mut store);
        }
        // Fold the same records into the streaming aggregates (a deployment
        // sink would do this instead of retaining the records at all).
        let mut aggregates = AggregateStore::new();
        for record in store.records() {
            aggregates.observe(record);
        }
        Self { spec, store, aggregates, catalog, calibration, locations }
    }
}

fn build_devices(
    catalog: &Catalog,
    calibration: &Calibration,
    scale: f64,
    rng: &mut SimRng,
) -> Vec<Device> {
    let total_devices = calibration.devices;
    // Country assignment: the top-20 countries hold their Figure 7 user
    // counts; the remainder spread over a long tail of other countries.
    let top20_users: u32 = catalog.top20_users();
    let mut devices = Vec::with_capacity(total_devices as usize);
    for id in 0..total_devices {
        let (country, lat_lon) = pick_country(catalog, top20_users, total_devices, rng);
        let (isp, isp_index) = pick_isp(catalog, &country, rng);
        // Activity bucket, matching Figure 6(a): (>10K, 5–10K, 1–5K, 100–1K, <100).
        let bucket_weights = [
            f64::from(calibration.users_per_bucket[0]),
            f64::from(calibration.users_per_bucket[1]),
            f64::from(calibration.users_per_bucket[2]),
            f64::from(calibration.users_per_bucket[3]),
            f64::from(total_devices - calibration.users_per_bucket.iter().sum::<u32>()),
        ];
        let bucket = rng.weighted_index(&bucket_weights).unwrap_or(4);
        let full_count = match bucket {
            0 => rng.int_inclusive(10_001, 40_000),
            1 => rng.int_inclusive(5_001, 10_000),
            2 => rng.int_inclusive(1_001, 5_000),
            3 => rng.int_inclusive(100, 1_000),
            _ => rng.int_inclusive(1, 99),
        };
        let mut measurements = ((full_count as f64) * scale).round().max(1.0) as u64;
        // Table 6's measurement counts are wildly out of proportion to user
        // counts: 13 Singapore users contributed 34,609 DNS measurements.
        // Devices on the catalogued operators are boosted so that per-ISP
        // volumes keep the paper's ordering even at small scales.
        if let Some(idx) = isp_index {
            let isp_entry = &catalog.isps[idx];
            let users_in_country = catalog
                .countries
                .iter()
                .find(|c| c.name == isp_entry.country)
                .map(|c| f64::from(c.users))
                .unwrap_or(25.0);
            let boost = (isp_entry.weight / users_in_country / 150.0).clamp(1.0, 30.0);
            measurements = ((measurements as f64) * boost).round() as u64;
        }
        let lte_share = 0.82;
        devices.push(Device {
            id,
            country,
            isp,
            isp_index,
            wifi_fraction: rng.uniform(0.35, 0.85),
            cellular_mix: [lte_share, 0.13, 1.0 - lte_share - 0.13],
            measurements,
            lat_lon: (lat_lon.0 + rng.uniform(-4.0, 4.0), lat_lon.1 + rng.uniform(-6.0, 6.0)),
        });
    }
    devices
}

fn pick_country(
    catalog: &Catalog,
    top20_users: u32,
    total_devices: u32,
    rng: &mut SimRng,
) -> (String, (f64, f64)) {
    let long_tail_users = total_devices.saturating_sub(top20_users);
    let mut weights: Vec<f64> = catalog.countries.iter().map(|c| f64::from(c.users)).collect();
    weights.push(f64::from(long_tail_users));
    match rng.weighted_index(&weights) {
        Some(i) if i < catalog.countries.len() => {
            let c = &catalog.countries[i];
            (c.name.clone(), c.lat_lon)
        }
        _ => {
            // One of the 94 other countries.
            let n = rng.int_inclusive(1, 94);
            (format!("Country-{n:02}"), (rng.uniform(-40.0, 60.0), rng.uniform(-120.0, 150.0)))
        }
    }
}

fn pick_isp(catalog: &Catalog, country: &str, rng: &mut SimRng) -> (String, Option<usize>) {
    let candidates: Vec<(usize, f64)> = catalog
        .isps
        .iter()
        .enumerate()
        .filter(|(_, isp)| isp.country == country)
        .map(|(i, isp)| (i, isp.weight))
        .collect();
    if candidates.is_empty() || rng.chance(0.15) {
        return (format!("{country} Mobile"), None);
    }
    let weights: Vec<f64> = candidates.iter().map(|(_, w)| *w).collect();
    let pick = rng.weighted_index(&weights).unwrap_or(0);
    let (idx, _) = candidates[pick];
    (catalog.isps[idx].name.clone(), Some(idx))
}

fn emit_device(
    device: &Device,
    catalog: &Catalog,
    calibration: &Calibration,
    rng: &mut SimRng,
    store: &mut MeasurementStore,
) {
    let tcp_fraction = calibration.tcp_fraction();
    for _ in 0..device.measurements {
        let timestamp = rng.int_inclusive(0, 232 * 86_400);
        let network = sample_network(device, rng);
        if rng.chance(tcp_fraction) {
            store.push(tcp_record(device, catalog, network, timestamp, rng));
        } else {
            store.push(dns_record(device, catalog, network, timestamp, rng));
        }
    }
}

fn sample_network(device: &Device, rng: &mut SimRng) -> NetKind {
    if rng.chance(device.wifi_fraction) {
        return NetKind::Wifi;
    }
    match rng.weighted_index(&device.cellular_mix) {
        Some(1) => NetKind::Umts3g,
        Some(2) => NetKind::Gprs2g,
        _ => NetKind::Lte,
    }
}

fn network_multiplier(network: NetKind) -> f64 {
    match network {
        NetKind::Wifi => 0.85,
        NetKind::Lte => 1.05,
        NetKind::Umts3g => 2.3,
        NetKind::Gprs2g => 9.0,
    }
}

/// A deterministic pseudo-random median for a long-tail app, so that the same
/// app id always behaves the same way across devices.
fn long_tail_median(app_index: u64) -> f64 {
    let mut h = app_index.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    h ^= h >> 33;
    let unit = (h % 10_000) as f64 / 10_000.0;
    // Log-uniform between ~25 ms and ~400 ms, weighted towards the low end,
    // reproducing the ~10 % of apps above 200 ms in Figure 9(b).
    25.0 * (16.0f64).powf(unit.powf(1.7))
}

fn tcp_record(
    device: &Device,
    catalog: &Catalog,
    network: NetKind,
    timestamp: u64,
    rng: &mut SimRng,
) -> RttRecord {
    // 55 % of per-app traffic goes to the 16 representative apps.
    let (package, domain, base_median) = if rng.chance(0.55) {
        let weights: Vec<f64> = catalog.apps.iter().map(|a| a.weight).collect();
        let idx = rng.weighted_index(&weights).unwrap_or(0);
        let app = &catalog.apps[idx];
        if app.package == "com.whatsapp" {
            // Case 1: most whatsapp.net domains sit on SoftLayer and are slow;
            // the three CDN-hosted ones are fast.
            if rng.chance(0.55) {
                let i = rng.int_inclusive(0, catalog.whatsapp_softlayer_domains.len() as u64 - 1);
                (app.package.clone(), catalog.whatsapp_softlayer_domains[i as usize].clone(), 260.0)
            } else {
                let i = rng.int_inclusive(0, catalog.whatsapp_cdn_domains.len() as u64 - 1);
                (app.package.clone(), catalog.whatsapp_cdn_domains[i as usize].clone(), 70.0)
            }
        } else {
            (app.package.clone(), app.domain.clone(), app.median_rtt_ms)
        }
    } else {
        let app_index = rng.int_inclusive(1, u64::from(catalog.long_tail_apps));
        (
            format!("app.longtail.a{app_index:04}"),
            format!("api.longtail{app_index:04}.com"),
            long_tail_median(app_index),
        )
    };
    // Case 2: Jio's LTE core adds a large penalty to app traffic but not DNS.
    let isp_extra = match (network.is_cellular(), device.isp_index) {
        (true, Some(idx)) => catalog.isps[idx].core_extra_ms,
        _ => 0.0,
    };
    let median = base_median * network_multiplier(network) + isp_extra;
    let rtt = rng.lognormal_median(median, 0.55).max(2.0);
    let isp = record_isp(device, network);
    RttRecord::tcp(rtt, device.id, &package, network)
        .with_domain(&domain)
        .with_isp(&isp)
        .with_country(&device.country)
        .with_dst(&pseudo_ip(&domain), 443)
        .with_timestamp(timestamp)
}

fn dns_record(
    device: &Device,
    catalog: &Catalog,
    network: NetKind,
    timestamp: u64,
    rng: &mut SimRng,
) -> RttRecord {
    let rtt = match network {
        NetKind::Wifi => rng.lognormal_median(31.0, 0.55) + 2.0,
        NetKind::Umts3g => rng.lognormal_median(95.0, 0.5) + 10.0,
        NetKind::Gprs2g => rng.lognormal_median(700.0, 0.45) + 55.0,
        NetKind::Lte => match device.isp_index {
            Some(idx) => {
                let isp = &catalog.isps[idx];
                if rng.chance(isp.non_lte_fraction) {
                    // Devices of this operator still attaching over pre-4G
                    // radios (the Cricket / U.S. Cellular signature).
                    isp.dns_floor_ms + rng.lognormal_median(90.0, 0.5)
                } else if isp.dns_floor_ms < 5.0 && rng.chance(0.16) {
                    // Operators with a countrywide latest-generation LTE
                    // deployment (Singtel's Tri-band 4G+) serve a visible
                    // fraction of resolutions below 10 ms (Figure 11).
                    isp.dns_floor_ms + rng.uniform(1.0, 6.0)
                } else {
                    isp.dns_floor_ms
                        + rng.lognormal_median((isp.dns_median_ms - isp.dns_floor_ms).max(5.0), 0.5)
                }
            }
            None => rng.lognormal_median(52.0, 0.5) + 8.0,
        },
    };
    let isp = record_isp(device, network);
    RttRecord::dns(rtt.max(1.0), device.id, network)
        .with_isp(&isp)
        .with_country(&device.country)
        .with_dst("192.168.1.1", 53)
        .with_timestamp(timestamp)
}

fn record_isp(device: &Device, network: NetKind) -> String {
    if network.is_cellular() {
        device.isp.clone()
    } else {
        format!("WiFi-{}", device.country)
    }
}

fn pseudo_ip(domain: &str) -> String {
    let h: u32 = domain
        .bytes()
        .fold(0x811c_9dc5u32, |acc, b| (acc ^ u32::from(b)).wrapping_mul(0x0100_0193));
    format!("{}.{}.{}.{}", 20 + (h >> 24) % 200, (h >> 16) & 0xff, (h >> 8) & 0xff, h & 0xff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_measure::MeasurementKind;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetSpec { seed: 7, scale: 0.002 })
    }

    #[test]
    fn sizes_scale_with_the_spec() {
        let d = dataset();
        let expected = 5_252_758.0 * d.spec.scale;
        let actual = d.store.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.35,
            "expected ~{expected} records, got {actual}"
        );
        let tcp = d.store.rtts_where(|r| r.kind == MeasurementKind::Tcp).len() as f64;
        assert!((tcp / actual - 0.681).abs() < 0.05, "tcp fraction {}", tcp / actual);
        assert_eq!(d.locations.len(), 2_351);
    }

    #[test]
    fn network_type_medians_have_the_paper_ordering() {
        let d = dataset();
        let median = |net: NetKind, kind: MeasurementKind| {
            d.store.median_where(|r| r.network == net && r.kind == kind).unwrap_or(f64::NAN)
        };
        let wifi = median(NetKind::Wifi, MeasurementKind::Tcp);
        let lte = median(NetKind::Lte, MeasurementKind::Tcp);
        let g3 = median(NetKind::Umts3g, MeasurementKind::Tcp);
        assert!(wifi < lte && lte < g3, "wifi {wifi} lte {lte} 3g {g3}");
        let dns_wifi = median(NetKind::Wifi, MeasurementKind::Dns);
        let dns_lte = median(NetKind::Lte, MeasurementKind::Dns);
        let dns_3g = median(NetKind::Umts3g, MeasurementKind::Dns);
        let dns_2g = median(NetKind::Gprs2g, MeasurementKind::Dns);
        assert!(dns_wifi < dns_lte && dns_lte < dns_3g && dns_3g < dns_2g);
        // Overall app RTT median lands in the paper's 50–90 ms region.
        let overall = d.store.median_where(|r| r.kind == MeasurementKind::Tcp).unwrap();
        assert!((40.0..110.0).contains(&overall), "overall median {overall}");
        // DNS is clearly faster than app RTTs overall (§4.2.3).
        let dns_overall = d.store.median_where(|r| r.kind == MeasurementKind::Dns).unwrap();
        assert!(dns_overall < overall);
    }

    #[test]
    fn representative_apps_are_present_with_sane_medians() {
        let d = dataset();
        let youtube = d.store.median_where(|r| r.app == "com.google.android.youtube").unwrap();
        let whatsapp = d.store.median_where(|r| r.app == "com.whatsapp").unwrap();
        assert!(youtube < 80.0, "youtube median {youtube}");
        assert!(whatsapp > 90.0, "whatsapp median {whatsapp}");
        assert!(whatsapp > youtube * 2.0);
        // The long tail exists too.
        let apps = d.store.counts_per_app();
        assert!(apps.keys().any(|a| a.starts_with("app.longtail.")));
        assert!(apps.len() > 300, "distinct apps {}", apps.len());
    }

    #[test]
    fn whatsapp_softlayer_domains_are_much_slower_than_cdn_ones() {
        let d = SyntheticDataset::generate(DatasetSpec { seed: 3, scale: 0.004 });
        let softlayer = d
            .store
            .median_where(|r| {
                r.domain.ends_with("whatsapp.net")
                    && !r.domain.starts_with("mm")
                    && !r.domain.starts_with("pps")
            })
            .unwrap();
        let cdn = d
            .store
            .median_where(|r| {
                r.domain.starts_with("mme.")
                    || r.domain.starts_with("mmg.")
                    || r.domain.starts_with("pps.")
            })
            .unwrap();
        assert!(softlayer > 190.0, "softlayer median {softlayer}");
        assert!(cdn < 110.0, "cdn median {cdn}");
    }

    #[test]
    fn jio_penalises_apps_but_not_dns() {
        let d = SyntheticDataset::generate(DatasetSpec { seed: 11, scale: 0.004 });
        let jio_app =
            d.store.median_where(|r| r.isp == "Jio 4G" && r.kind == MeasurementKind::Tcp).unwrap();
        let jio_dns =
            d.store.median_where(|r| r.isp == "Jio 4G" && r.kind == MeasurementKind::Dns).unwrap();
        let verizon_app =
            d.store.median_where(|r| r.isp == "Verizon" && r.kind == MeasurementKind::Tcp).unwrap();
        assert!(jio_app > 180.0, "jio app median {jio_app}");
        assert!(jio_dns < 100.0, "jio dns median {jio_dns}");
        assert!(jio_app > verizon_app * 2.0, "jio {jio_app} vs verizon {verizon_app}");
    }

    #[test]
    fn country_distribution_follows_figure7() {
        let d = dataset();
        let by_country = d.store.devices_per_country();
        let usa = by_country.get("USA").copied().unwrap_or(0);
        let uk = by_country.get("UK").copied().unwrap_or(0);
        let india = by_country.get("India").copied().unwrap_or(0);
        assert!(usa > uk * 3, "usa {usa} uk {uk}");
        assert!(usa > india * 3, "usa {usa} india {india}");
        // Long-tail countries exist.
        assert!(by_country.keys().any(|c| c.starts_with("Country-")));
    }

    #[test]
    fn determinism_same_seed_same_dataset() {
        let a = SyntheticDataset::generate(DatasetSpec { seed: 5, scale: 0.001 });
        let b = SyntheticDataset::generate(DatasetSpec { seed: 5, scale: 0.001 });
        assert_eq!(a.store.len(), b.store.len());
        assert_eq!(a.store.records()[0], b.store.records()[0]);
        assert_eq!(a.store.records().last(), b.store.records().last());
        let c = SyntheticDataset::generate(DatasetSpec { seed: 6, scale: 0.001 });
        assert_ne!(a.store.records()[0], c.store.records()[0]);
    }

    #[test]
    fn scaled_threshold_helper() {
        let spec = DatasetSpec { scale: 0.02, ..DatasetSpec::default() };
        assert_eq!(spec.scaled_threshold(100), 2);
        assert_eq!(spec.scaled_threshold(1000), 20);
        assert_eq!(DatasetSpec { scale: 0.002, ..spec }.scaled_threshold(100), 2);
    }
}
