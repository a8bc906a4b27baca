//! Crowdsourced-dataset analyses: Figures 6–11, Tables 5–6 and the two case
//! studies of §4.2.
//!
//! Every computation here runs against the dataset's **streaming
//! aggregates** ([`mop_dataset::SyntheticDataset::aggregates`]): mergeable
//! per-(app, kind, network, ISP) RTT sketches plus a per-device activity
//! plane, folded in as records arrive. No analysis touches the raw record
//! vector, so the cost and memory of producing a full crowd report are
//! independent of the number of samples — the property that lets the fleet
//! `report` binary emit the same analyses from a 100k-connection run without
//! ever materialising the samples.
//!
//! Medians and CDF fractions therefore carry the sketch guarantee: within
//! [`RttSketch::RELATIVE_ERROR`] (1 %) of the exact vector-based statistic,
//! with counts, minima and maxima exact.

use std::collections::BTreeMap;

use mop_dataset::SyntheticDataset;
use mop_measure::{AggregateKey, AggregateStore, MeasurementKind, NetKind, RttSketch};

/// Figure 6: number of users / apps per measurement-contribution bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig6Contribution {
    /// Users in the (>10K, 5K–10K, 1K–5K, 100–1K) buckets, after rescaling
    /// the bucket edges by the dataset's scale factor.
    pub users_per_bucket: [u64; 4],
    /// Apps in the same buckets.
    pub apps_per_bucket: [u64; 4],
}

impl Fig6Contribution {
    /// Computes the contribution buckets from the aggregate counts.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let scale = dataset.spec.scale;
        let edges = [
            (10_000.0 * scale) as u64,
            (5_000.0 * scale) as u64,
            (1_000.0 * scale) as u64,
            (100.0 * scale).max(2.0) as u64,
        ];
        let bucket_of = |count: u64| -> Option<usize> {
            if count > edges[0] {
                Some(0)
            } else if count > edges[1] {
                Some(1)
            } else if count > edges[2] {
                Some(2)
            } else if count >= edges[3] {
                Some(3)
            } else {
                None
            }
        };
        let mut users = [0u64; 4];
        for count in dataset.aggregates.counts_per_device().values() {
            if let Some(b) = bucket_of(*count) {
                users[b] += 1;
            }
        }
        let mut apps = [0u64; 4];
        for count in dataset.aggregates.counts_per_app().values() {
            if let Some(b) = bucket_of(*count) {
                apps[b] += 1;
            }
        }
        Self { users_per_bucket: users, apps_per_bucket: apps }
    }
}

/// Figure 7: the top user countries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig7Countries {
    /// (country, device count), sorted descending, top 20.
    pub top: Vec<(String, u64)>,
}

impl Fig7Countries {
    /// Computes the top-20 countries by device count from the device plane.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let mut counts: Vec<(String, u64)> =
            dataset.aggregates.devices_per_country().into_iter().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts.truncate(20);
        Self { top: counts }
    }
}

/// Figure 8: measurement locations.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Locations {
    /// (latitude, longitude) of each device's measurements.
    pub points: Vec<(f64, f64)>,
}

impl Fig8Locations {
    /// Extracts the location scatter.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        Self { points: dataset.locations.clone() }
    }
}

/// Figure 9: per-app RTT distributions.
#[derive(Debug, Clone)]
pub struct Fig9AppRtt {
    /// Sketch of all raw app RTTs.
    pub all: RttSketch,
    /// Sketch of WiFi app RTTs.
    pub wifi: RttSketch,
    /// Sketch of cellular app RTTs.
    pub cellular: RttSketch,
    /// Sketch of LTE app RTTs.
    pub lte: RttSketch,
    /// Sketch of the per-app median RTTs of apps with enough measurements
    /// (Figure 9b; 424 apps with more than 1K measurements in the paper).
    pub per_app_medians: RttSketch,
    /// Number of apps included in `per_app_medians`.
    pub qualifying_apps: usize,
}

impl Fig9AppRtt {
    /// Computes the Figure 9 distributions from the aggregates.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let agg = &dataset.aggregates;
        let tcp = |pred: &dyn Fn(NetKind) -> bool| -> RttSketch {
            agg.sketch_where(|k| k.kind == MeasurementKind::Tcp && pred(k.network))
        };
        let threshold = dataset.spec.scaled_threshold(1_000);
        let per_app = agg.group_by(|k| k.app.clone(), |k| k.kind == MeasurementKind::Tcp);
        let medians: Vec<f64> = per_app
            .values()
            .filter(|sketch| sketch.count() >= threshold)
            .filter_map(RttSketch::median)
            .collect();
        Self {
            all: tcp(&|_| true),
            wifi: tcp(&|n| n == NetKind::Wifi),
            cellular: tcp(&NetKind::is_cellular),
            lte: tcp(&|n| n == NetKind::Lte),
            qualifying_apps: medians.len(),
            per_app_medians: medians.into_iter().collect(),
        }
    }
}

/// Table 5: the representative apps' measurement counts and median RTTs.
#[derive(Debug, Clone)]
pub struct Table5Apps {
    /// (category, package, measurement count, median RTT ms, paper median).
    pub rows: Vec<(String, String, u64, f64, f64)>,
}

impl Table5Apps {
    /// Computes the per-app statistics for the 16 representative apps.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let counts = dataset.aggregates.counts_per_app();
        let rows = dataset
            .catalog
            .apps
            .iter()
            .map(|app| {
                let count = counts.get(&app.package).copied().unwrap_or(0);
                let median =
                    dataset.aggregates.median_where(|k| k.app == app.package).unwrap_or(f64::NAN);
                (app.category.to_string(), app.package.clone(), count, median, app.median_rtt_ms)
            })
            .collect();
        Self { rows }
    }
}

/// Figure 10: DNS RTT distributions.
#[derive(Debug, Clone)]
pub struct Fig10Dns {
    /// Sketch of all DNS RTTs.
    pub all: RttSketch,
    /// Sketch of WiFi DNS RTTs.
    pub wifi: RttSketch,
    /// Sketch of cellular DNS RTTs.
    pub cellular: RttSketch,
    /// Sketch of 4G DNS RTTs.
    pub lte: RttSketch,
    /// Sketch of 3G DNS RTTs.
    pub umts3g: RttSketch,
    /// Sketch of 2G DNS RTTs.
    pub gprs2g: RttSketch,
}

impl Fig10Dns {
    /// Computes the Figure 10 distributions from the aggregates.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let dns = |pred: &dyn Fn(NetKind) -> bool| -> RttSketch {
            dataset.aggregates.sketch_where(|k| k.kind == MeasurementKind::Dns && pred(k.network))
        };
        Self {
            all: dns(&|_| true),
            wifi: dns(&|n| n == NetKind::Wifi),
            cellular: dns(&NetKind::is_cellular),
            lte: dns(&|n| n == NetKind::Lte),
            umts3g: dns(&|n| n == NetKind::Umts3g),
            gprs2g: dns(&|n| n == NetKind::Gprs2g),
        }
    }
}

/// Table 6: DNS performance of the major LTE operators.
#[derive(Debug, Clone)]
pub struct Table6IspDns {
    /// (ISP, country, DNS measurement count, median DNS RTT ms, paper median).
    pub rows: Vec<(String, String, u64, f64, f64)>,
}

impl Table6IspDns {
    /// Computes per-ISP DNS statistics for the Table 6 operators.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let rows = dataset
            .catalog
            .isps
            .iter()
            .map(|isp| {
                let sketch = dataset.aggregates.sketch_where(|k| {
                    k.kind == MeasurementKind::Dns && k.isp == isp.name && k.network.is_cellular()
                });
                let median = sketch.median().unwrap_or(f64::NAN);
                (isp.name.clone(), isp.country.clone(), sketch.count(), median, isp.dns_median_ms)
            })
            .collect();
        Self { rows }
    }
}

/// Figure 11: DNS CDFs of four selected LTE ISPs.
#[derive(Debug, Clone)]
pub struct Fig11IspDns {
    /// (ISP name, sketch of its LTE DNS RTTs).
    pub isps: Vec<(String, RttSketch)>,
}

impl Fig11IspDns {
    /// The four operators the paper plots.
    pub const SELECTED: [&'static str; 4] = ["Verizon", "Singtel", "Cricket", "U.S. Cellular"];

    /// Computes the per-ISP sketches.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let isps = Self::SELECTED
            .iter()
            .map(|name| {
                let sketch = dataset.aggregates.sketch_where(|k| {
                    k.kind == MeasurementKind::Dns && k.isp == *name && k.network == NetKind::Lte
                });
                (name.to_string(), sketch)
            })
            .collect();
        Self { isps }
    }
}

/// Case study 1: the whatsapp.net domains.
#[derive(Debug, Clone)]
pub struct CaseWhatsapp {
    /// Number of distinct whatsapp.net domains observed.
    pub domains_observed: usize,
    /// Median RTT over the SoftLayer-hosted domains, in ms.
    pub softlayer_median_ms: f64,
    /// Median RTT over the three CDN-hosted domains, in ms.
    pub cdn_median_ms: f64,
    /// Median RTT of all whatsapp.net traffic.
    pub overall_median_ms: f64,
    /// Per-network medians over the SoftLayer domains for the most-accessed
    /// networks, bucketed as in the paper: (<100 ms, 100–200, 200–300, >300).
    pub network_buckets: [usize; 4],
    /// Number of networks analysed.
    pub networks_analysed: usize,
}

fn is_whatsapp(domain: &str) -> bool {
    domain.ends_with("whatsapp.net")
}

fn is_whatsapp_cdn(domain: &str) -> bool {
    domain.starts_with("mme.") || domain.starts_with("mmg.") || domain.starts_with("pps.")
}

impl CaseWhatsapp {
    /// Runs the Case 1 analysis from the aggregates.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let agg = &dataset.aggregates;
        let domains = agg.distinct_domains(|k| is_whatsapp(&k.domain));
        let softlayer_median_ms = agg
            .median_where(|k| is_whatsapp(&k.domain) && !is_whatsapp_cdn(&k.domain))
            .unwrap_or(f64::NAN);
        let cdn_median_ms = agg
            .median_where(|k| is_whatsapp(&k.domain) && is_whatsapp_cdn(&k.domain))
            .unwrap_or(f64::NAN);
        let overall_median_ms = agg.median_where(|k| is_whatsapp(&k.domain)).unwrap_or(f64::NAN);
        // Per-network medians over the SoftLayer domains, for the networks
        // with the most whatsapp.net measurements.
        let threshold = dataset.spec.scaled_threshold(100);
        let by_network: BTreeMap<String, RttSketch> = agg
            .group_by(|k| k.isp.clone(), |k| is_whatsapp(&k.domain) && !is_whatsapp_cdn(&k.domain));
        let mut networks: Vec<(&String, &RttSketch)> =
            by_network.iter().filter(|(_, s)| s.count() >= threshold).collect();
        networks.sort_by_key(|(_, s)| std::cmp::Reverse(s.count()));
        networks.truncate(20);
        let mut buckets = [0usize; 4];
        for (_, sketch) in &networks {
            let median = sketch.median().unwrap_or(f64::NAN);
            let idx = if median < 100.0 {
                0
            } else if median < 200.0 {
                1
            } else if median < 300.0 {
                2
            } else {
                3
            };
            buckets[idx] += 1;
        }
        Self {
            domains_observed: domains.len(),
            softlayer_median_ms,
            cdn_median_ms,
            overall_median_ms,
            network_buckets: buckets,
            networks_analysed: networks.len(),
        }
    }
}

/// Case study 2: Jio, India's largest 4G ISP.
#[derive(Debug, Clone)]
pub struct CaseJio {
    /// Jio's median per-app RTT, in ms.
    pub app_median_ms: f64,
    /// Jio's median DNS RTT, in ms.
    pub dns_median_ms: f64,
    /// Number of Jio per-app measurements.
    pub app_measurements: u64,
    /// Domain medians on Jio, bucketed (<100, 100–200, 200–300, 300–400, >400 ms).
    pub domain_buckets: [usize; 5],
    /// Of the domains observed on both Jio and non-Jio LTE networks, how many
    /// are faster off Jio, and by how much on average (ms).
    pub domains_better_off_jio: usize,
    /// Domains compared across Jio and non-Jio LTE.
    pub domains_compared: usize,
    /// Mean advantage of non-Jio LTE for those domains, in ms.
    pub mean_advantage_ms: f64,
}

impl CaseJio {
    /// Runs the Case 2 analysis from the aggregates.
    pub fn compute(dataset: &SyntheticDataset) -> Self {
        let agg = &dataset.aggregates;
        let jio_apps = agg.sketch_where(|k| k.isp == "Jio 4G" && k.kind == MeasurementKind::Tcp);
        let app_median_ms = jio_apps.median().unwrap_or(f64::NAN);
        let dns_median_ms = agg
            .median_where(|k| k.isp == "Jio 4G" && k.kind == MeasurementKind::Dns)
            .unwrap_or(f64::NAN);
        let threshold = dataset.spec.scaled_threshold(100);
        let jio_domains: BTreeMap<String, RttSketch> = agg.group_by(
            |k| k.domain.clone(),
            |k| k.isp == "Jio 4G" && k.kind == MeasurementKind::Tcp && !k.domain.is_empty(),
        );
        let mut domain_buckets = [0usize; 5];
        for (_, sketch) in jio_domains.iter().filter(|(_, s)| s.count() >= threshold) {
            let m = sketch.median().unwrap_or(f64::NAN);
            let idx = if m < 100.0 {
                0
            } else if m < 200.0 {
                1
            } else if m < 300.0 {
                2
            } else if m < 400.0 {
                3
            } else {
                4
            };
            domain_buckets[idx] += 1;
        }
        // Compare with non-Jio LTE networks.
        let other_domains: BTreeMap<String, RttSketch> = agg.group_by(
            |k| k.domain.clone(),
            |k| {
                k.isp != "Jio 4G"
                    && k.network == NetKind::Lte
                    && k.kind == MeasurementKind::Tcp
                    && !k.domain.is_empty()
            },
        );
        let mut compared = 0usize;
        let mut better = 0usize;
        let mut advantage_sum = 0.0;
        for (domain, jio_sketch) in &jio_domains {
            if jio_sketch.count() < threshold {
                continue;
            }
            let Some(other_sketch) = other_domains.get(domain) else { continue };
            if other_sketch.count() < threshold {
                continue;
            }
            let jio_median = jio_sketch.median().unwrap_or(f64::NAN);
            let other_median = other_sketch.median().unwrap_or(f64::NAN);
            compared += 1;
            if other_median < jio_median {
                better += 1;
                advantage_sum += jio_median - other_median;
            }
        }
        Self {
            app_median_ms,
            dns_median_ms,
            app_measurements: jio_apps.count(),
            domain_buckets,
            domains_better_off_jio: better,
            domains_compared: compared,
            mean_advantage_ms: if better > 0 { advantage_sum / better as f64 } else { 0.0 },
        }
    }
}

/// The full §4.2 crowd report computed from any [`AggregateStore`] — the
/// entry point the fleet `report` binary uses on a live run's merged
/// aggregates (a [`SyntheticDataset`] is not required).
#[derive(Debug, Clone)]
pub struct CrowdSummary {
    /// Sketch of all TCP RTTs.
    pub tcp: RttSketch,
    /// Sketch of all DNS RTTs.
    pub dns: RttSketch,
    /// Per-network-kind TCP sketches, in [`NetKind::ALL`] order.
    pub tcp_by_network: Vec<(NetKind, RttSketch)>,
    /// Per-network-kind DNS sketches, in [`NetKind::ALL`] order.
    pub dns_by_network: Vec<(NetKind, RttSketch)>,
    /// Per-app TCP sketches (app, count, sketch), sorted by count descending.
    pub apps: Vec<(String, u64, RttSketch)>,
    /// Distinct devices observed.
    pub devices: usize,
}

impl CrowdSummary {
    /// Computes the summary from a store of aggregates.
    pub fn compute(aggregates: &AggregateStore) -> Self {
        let kind_sketch =
            |kind: MeasurementKind| aggregates.sketch_where(|k: &AggregateKey| k.kind == kind);
        let by_network = |kind: MeasurementKind| -> Vec<(NetKind, RttSketch)> {
            NetKind::ALL
                .iter()
                .map(|net| (*net, aggregates.sketch_where(|k| k.kind == kind && k.network == *net)))
                .collect()
        };
        let mut apps: Vec<(String, u64, RttSketch)> = aggregates
            .group_by(|k| k.app.clone(), |k| k.kind == MeasurementKind::Tcp && !k.app.is_empty())
            .into_iter()
            .map(|(app, sketch)| (app, sketch.count(), sketch))
            .collect();
        apps.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Self {
            tcp: kind_sketch(MeasurementKind::Tcp),
            dns: kind_sketch(MeasurementKind::Dns),
            tcp_by_network: by_network(MeasurementKind::Tcp),
            dns_by_network: by_network(MeasurementKind::Dns),
            apps,
            devices: aggregates.counts_per_device().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_dataset::DatasetSpec;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetSpec { seed: 99, scale: 0.004 })
    }

    #[test]
    fn fig6_buckets_have_the_paper_shape() {
        let d = dataset();
        let fig6 = Fig6Contribution::compute(&d);
        // The 100–1K bucket dominates among qualifying users, and the 1K–5K
        // bucket is larger than the two heaviest buckets (Figure 6a).
        assert!(fig6.users_per_bucket[3] > fig6.users_per_bucket[2]);
        assert!(fig6.users_per_bucket[2] > fig6.users_per_bucket[0]);
        assert!(fig6.users_per_bucket.iter().sum::<u64>() > 500);
        // Same shape for apps (Figure 6b).
        assert!(fig6.apps_per_bucket[3] > fig6.apps_per_bucket[0]);
        assert!(fig6.apps_per_bucket.iter().sum::<u64>() > 50);
    }

    #[test]
    fn fig7_usa_leads_and_fig8_has_points() {
        let d = dataset();
        let fig7 = Fig7Countries::compute(&d);
        assert_eq!(fig7.top[0].0, "USA");
        assert!(fig7.top.len() == 20);
        assert!(fig7.top[0].1 > fig7.top[1].1);
        let fig8 = Fig8Locations::compute(&d);
        assert_eq!(fig8.points.len(), 2_351);
        assert!(fig8
            .points
            .iter()
            .all(|(lat, lon)| (-90.0..=90.0).contains(lat) && (-180.0..=180.0).contains(lon)));
    }

    #[test]
    fn fig9_and_fig10_medians_follow_the_paper_ordering() {
        let d = dataset();
        let fig9 = Fig9AppRtt::compute(&d);
        let all = fig9.all.median().unwrap();
        let wifi = fig9.wifi.median().unwrap();
        let cellular = fig9.cellular.median().unwrap();
        let lte = fig9.lte.median().unwrap();
        assert!(wifi < all && all < cellular, "wifi {wifi} all {all} cellular {cellular}");
        assert!(lte < cellular);
        assert!((40.0..110.0).contains(&all), "overall median {all}");
        assert!(fig9.qualifying_apps > 20);
        // Figure 9(b): most qualifying apps are under 100 ms, a tail is slow.
        let under100 = fig9.per_app_medians.fraction_at_or_below(100.0);
        assert!(under100 > 0.55, "under100 {under100}");
        assert!(under100 < 0.99);
        let fig10 = Fig10Dns::compute(&d);
        let dns_wifi = fig10.wifi.median().unwrap();
        let dns_lte = fig10.lte.median().unwrap();
        let dns_3g = fig10.umts3g.median().unwrap();
        let dns_2g = fig10.gprs2g.median().unwrap();
        assert!(dns_wifi < dns_lte && dns_lte < dns_3g && dns_3g < dns_2g);
        assert!(fig10.all.median().unwrap() < fig9.all.median().unwrap());
    }

    #[test]
    fn sketch_based_figures_match_the_vector_based_store() {
        // The acceptance bar for the aggregate rebuild: every headline median
        // reproduced from sketches is within 1 % of the same median computed
        // from the raw record vectors.
        let d = dataset();
        let fig9 = Fig9AppRtt::compute(&d);
        let pairs = [
            (fig9.all.median().unwrap(), d.store.median_where(|r| r.kind == MeasurementKind::Tcp)),
            (
                fig9.wifi.median().unwrap(),
                d.store
                    .median_where(|r| r.kind == MeasurementKind::Tcp && r.network == NetKind::Wifi),
            ),
            (
                fig9.lte.median().unwrap(),
                d.store
                    .median_where(|r| r.kind == MeasurementKind::Tcp && r.network == NetKind::Lte),
            ),
        ];
        for (sketch_median, exact) in pairs {
            let exact = exact.unwrap();
            let err = (sketch_median - exact).abs() / exact;
            assert!(err <= 0.011, "sketch {sketch_median} vs exact {exact} (err {err})");
        }
        // Counts are exact, not approximate.
        assert_eq!(
            fig9.all.count() as usize,
            d.store.rtts_where(|r| r.kind == MeasurementKind::Tcp).len()
        );
    }

    #[test]
    fn table5_and_table6_track_their_paper_targets() {
        let d = dataset();
        let t5 = Table5Apps::compute(&d);
        assert_eq!(t5.rows.len(), 16);
        for (_, package, count, median, paper) in &t5.rows {
            assert!(*count > 0, "{package} should have measurements");
            assert!(median.is_finite());
            // Within a factor-of-two band of the paper's median (the target is
            // shape, not absolute equality).
            assert!(
                *median > paper * 0.45 && *median < paper * 2.6,
                "{package}: median {median} vs paper {paper}"
            );
        }
        let t6 = Table6IspDns::compute(&d);
        assert_eq!(t6.rows.len(), 15);
        let find = |name: &str| t6.rows.iter().find(|r| r.0 == name).unwrap().3;
        assert!(find("Singtel") < find("Verizon"));
        assert!(find("Cricket") > find("Verizon"));
        assert!(find("U.S. Cellular") > find("T-Mobile"));
    }

    #[test]
    fn fig11_singtel_fast_tail_and_cricket_floor() {
        let d = dataset();
        let fig11 = Fig11IspDns::compute(&d);
        let isp = |name: &str| &fig11.isps.iter().find(|(n, _)| n == name).unwrap().1;
        let singtel = isp("Singtel").fraction_at_or_below(10.0);
        let verizon = isp("Verizon").fraction_at_or_below(10.0);
        assert!(singtel > 0.05, "Singtel below-10ms fraction {singtel}");
        assert!(verizon < singtel, "Verizon {verizon} vs Singtel {singtel}");
        let cricket_min = isp("Cricket").min().unwrap();
        assert!(cricket_min > 35.0, "Cricket minimum {cricket_min}");
        assert!(isp("Singtel").min().unwrap() < 15.0);
        assert!(!fig11.isps.iter().any(|(n, _)| n == "Nonexistent"));
    }

    #[test]
    fn case_studies_reproduce_the_headline_findings() {
        let d = dataset();
        let whatsapp = CaseWhatsapp::compute(&d);
        assert!(whatsapp.domains_observed > 100, "domains {}", whatsapp.domains_observed);
        assert!(whatsapp.softlayer_median_ms > 180.0);
        assert!(whatsapp.cdn_median_ms < 120.0);
        assert!(whatsapp.softlayer_median_ms > whatsapp.cdn_median_ms * 2.0);
        assert!(whatsapp.networks_analysed > 5);
        // Most analysed networks see the SoftLayer domains above 200 ms.
        assert!(
            whatsapp.network_buckets[2] + whatsapp.network_buckets[3] > whatsapp.network_buckets[0]
        );

        let jio = CaseJio::compute(&d);
        assert!(jio.app_median_ms > 180.0, "jio app median {}", jio.app_median_ms);
        assert!(jio.dns_median_ms < 100.0, "jio dns median {}", jio.dns_median_ms);
        assert!(jio.app_median_ms > jio.dns_median_ms * 2.5);
        assert!(jio.app_measurements > 100);
        // Most Jio domains sit above 200 ms.
        let slow: usize = jio.domain_buckets[2..].iter().sum();
        assert!(slow > jio.domain_buckets[0], "buckets {:?}", jio.domain_buckets);
        // Nearly every domain observed on both sides is faster off Jio.
        assert!(jio.domains_compared > 3);
        assert!(jio.domains_better_off_jio * 10 >= jio.domains_compared * 8);
        assert!(jio.mean_advantage_ms > 80.0, "advantage {}", jio.mean_advantage_ms);
    }

    #[test]
    fn crowd_summary_computes_from_bare_aggregates() {
        let d = dataset();
        let summary = CrowdSummary::compute(&d.aggregates);
        assert_eq!(
            summary.tcp.count() as usize,
            d.store.rtts_where(|r| r.kind == MeasurementKind::Tcp).len()
        );
        assert_eq!(
            summary.dns.count() as usize,
            d.store.rtts_where(|r| r.kind == MeasurementKind::Dns).len()
        );
        assert_eq!(summary.devices, d.store.counts_per_device().len());
        assert!(summary.apps.len() > 300);
        // Apps are sorted by contribution.
        assert!(summary.apps.windows(2).all(|w| w[0].1 >= w[1].1));
        let by_net: u64 = summary.tcp_by_network.iter().map(|(_, s)| s.count()).sum();
        assert_eq!(by_net, summary.tcp.count());
    }
}
