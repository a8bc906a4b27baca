//! Catalogues of the apps, ISPs, countries and domains the analysis slices
//! the dataset by.

/// One well-known app, with its Table 5 statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct AppEntry {
    /// Package name.
    pub package: String,
    /// The paper's category label.
    pub category: &'static str,
    /// Share of TCP measurements attributed to this app (relative weight).
    pub weight: f64,
    /// Median RTT reported in Table 5, in ms.
    pub median_rtt_ms: f64,
    /// Primary server domain.
    pub domain: String,
}

/// One LTE operator, with its Table 6 statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct IspEntry {
    /// Operator name as in Table 6.
    pub name: String,
    /// Country.
    pub country: String,
    /// Relative share of cellular DNS measurements (from the `# RTT` column).
    pub weight: f64,
    /// Median DNS RTT reported in Table 6, in ms.
    pub dns_median_ms: f64,
    /// Extra latency the operator's core adds to app traffic (the Jio
    /// signature; zero for everyone else).
    pub core_extra_ms: f64,
    /// Fraction of this operator's devices still attaching over pre-4G
    /// radios (drives the Figure 11 mixtures for Cricket / U.S. Cellular).
    pub non_lte_fraction: f64,
    /// Minimum achievable DNS RTT (the ~43 ms floor of Cricket / U.S.
    /// Cellular vs the sub-10 ms Singtel can reach).
    pub dns_floor_ms: f64,
}

/// One country with its Figure 7 user count.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryEntry {
    /// Country name as in Figure 7.
    pub name: String,
    /// Number of MopEye users in that country.
    pub users: u32,
    /// Representative latitude/longitude for the Figure 8 scatter.
    pub lat_lon: (f64, f64),
}

/// The full catalogue.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The 16 representative apps of Table 5.
    pub apps: Vec<AppEntry>,
    /// The 15 LTE operators of Table 6.
    pub isps: Vec<IspEntry>,
    /// The top-20 countries of Figure 7.
    pub countries: Vec<CountryEntry>,
    /// The number of long-tail apps beyond the representative ones.
    pub long_tail_apps: u32,
    /// whatsapp.net domains hosted on SoftLayer (slow, Case 1).
    pub whatsapp_softlayer_domains: Vec<String>,
    /// whatsapp.net domains hosted on the Facebook CDN (fast, Case 1).
    pub whatsapp_cdn_domains: Vec<String>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::paper()
    }
}

impl Catalog {
    /// Builds the catalogue with the paper's numbers.
    pub(crate) fn paper() -> Self {
        let apps = vec![
            app("com.facebook.katana", "Social", 215_769.0, 61.0, "graph.facebook.com"),
            app("com.instagram.android", "Social", 38_640.0, 50.5, "i.instagram.com"),
            app("com.sina.weibo", "Social", 28_905.0, 43.0, "api.weibo.cn"),
            app("com.twitter.android", "Social", 11_407.0, 56.0, "api.twitter.com"),
            app("com.tencent.mm", "Social", 61_804.0, 36.0, "long.weixin.qq.com"),
            app("com.facebook.orca", "Communication", 42_408.0, 42.0, "edge-chat.facebook.com"),
            app("com.whatsapp", "Communication", 32_372.0, 133.0, "e1.whatsapp.net"),
            app(
                "com.skype.raider",
                "Communication",
                16_264.0,
                76.0,
                "client-s.gateway.messenger.live.com",
            ),
            app("com.android.vending", "Google", 100_115.0, 48.0, "play.googleapis.com"),
            app("com.google.android.gms", "Google", 60_805.0, 37.0, "www.googleapis.com"),
            app(
                "com.google.android.googlequicksearchbox",
                "Google",
                35_858.0,
                45.0,
                "www.google.com",
            ),
            app("com.google.android.apps.maps", "Google", 19_996.0, 38.0, "maps.googleapis.com"),
            app("com.google.android.youtube", "Video", 99_895.0, 32.0, "youtubei.googleapis.com"),
            app("com.netflix.mediaclient", "Video", 28_302.0, 33.0, "api-global.netflix.com"),
            app("com.amazon.mShop.android.shopping", "Shopping", 18_313.0, 59.0, "www.amazon.com"),
            app("com.ebay.mobile", "Shopping", 16_114.0, 70.0, "api.ebay.com"),
        ];
        let isps = vec![
            isp("Verizon", "USA", 80_227.0, 46.0, 0.0, 0.02, 12.0),
            isp("Jio 4G", "India", 52_397.0, 59.0, 215.0, 0.05, 20.0),
            isp("AT&T", "USA", 51_421.0, 53.0, 0.0, 0.05, 15.0),
            isp("Singtel", "Singapore", 34_609.0, 27.0, 0.0, 0.02, 4.0),
            isp("Boost Mobile", "USA", 21_854.0, 50.0, 0.0, 0.08, 15.0),
            isp("Sprint", "USA", 20_878.0, 51.0, 0.0, 0.08, 15.0),
            isp("3", "Hong Kong", 14_354.0, 53.0, 0.0, 0.05, 12.0),
            isp("MetroPCS", "USA", 13_282.0, 60.0, 0.0, 0.1, 18.0),
            isp("T-Mobile", "USA", 9_084.0, 45.0, 0.0, 0.05, 12.0),
            isp("CMHK", "Hong Kong", 5_820.0, 50.0, 0.0, 0.05, 12.0),
            isp("Celcom", "Malaysia", 4_120.0, 56.0, 0.0, 0.1, 15.0),
            isp("CSL", "Hong Kong", 3_099.0, 61.0, 0.0, 0.08, 15.0),
            isp("Cricket", "USA", 2_822.0, 93.0, 0.0, 0.64, 43.0),
            isp("Maxis", "Malaysia", 2_419.0, 40.0, 0.0, 0.08, 12.0),
            isp("U.S. Cellular", "USA", 1_988.0, 76.0, 0.0, 0.45, 43.0),
        ];
        let countries = vec![
            country("USA", 790, (39.8, -98.6)),
            country("UK", 116, (54.0, -2.0)),
            country("India", 70, (22.0, 79.0)),
            country("Italy", 68, (42.8, 12.8)),
            country("Malaysia", 43, (4.2, 102.0)),
            country("Brazil", 41, (-10.8, -52.9)),
            country("Indonesia", 37, (-2.5, 118.0)),
            country("Germany", 31, (51.1, 10.4)),
            country("Canada", 26, (56.1, -106.3)),
            country("Mexico", 25, (23.6, -102.6)),
            country("Philippines", 23, (12.9, 121.8)),
            country("Australia", 22, (-25.3, 133.8)),
            country("Hong Kong", 20, (22.3, 114.2)),
            country("France", 19, (46.6, 2.5)),
            country("Russia", 19, (61.5, 105.3)),
            country("Thailand", 18, (15.9, 100.9)),
            country("Greece", 16, (39.0, 22.0)),
            country("Spain", 13, (40.2, -3.7)),
            country("Poland", 13, (51.9, 19.1)),
            country("Singapore", 13, (1.35, 103.8)),
        ];
        // 334 whatsapp.net domains: 3 on the Facebook CDN, 331 on SoftLayer.
        let whatsapp_cdn_domains =
            vec!["mme.whatsapp.net".into(), "mmg.whatsapp.net".into(), "pps.whatsapp.net".into()];
        let whatsapp_softlayer_domains = (1..=331).map(|i| format!("e{i}.whatsapp.net")).collect();
        Self {
            apps,
            isps,
            countries,
            long_tail_apps: 6_250,
            whatsapp_softlayer_domains,
            whatsapp_cdn_domains,
        }
    }

    /// The total user count across the top-20 countries.
    pub(crate) fn top20_users(&self) -> u32 {
        self.countries.iter().map(|c| c.users).sum()
    }
}

fn app(package: &str, category: &'static str, weight: f64, median: f64, domain: &str) -> AppEntry {
    AppEntry {
        package: package.to_string(),
        category,
        weight,
        median_rtt_ms: median,
        domain: domain.to_string(),
    }
}

fn isp(
    name: &str,
    country: &str,
    weight: f64,
    dns_median_ms: f64,
    core_extra_ms: f64,
    non_lte_fraction: f64,
    dns_floor_ms: f64,
) -> IspEntry {
    IspEntry {
        name: name.to_string(),
        country: country.to_string(),
        weight,
        dns_median_ms,
        core_extra_ms,
        non_lte_fraction,
        dns_floor_ms,
    }
}

fn country(name: &str, users: u32, lat_lon: (f64, f64)) -> CountryEntry {
    CountryEntry { name: name.to_string(), users, lat_lon }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app<'a>(c: &'a Catalog, package: &str) -> Option<&'a AppEntry> {
        c.apps.iter().find(|a| a.package == package)
    }

    fn isp<'a>(c: &'a Catalog, name: &str) -> Option<&'a IspEntry> {
        c.isps.iter().find(|i| i.name == name)
    }

    #[test]
    fn catalogue_sizes_match_the_paper() {
        let c = Catalog::paper();
        assert_eq!(c.apps.len(), 16);
        assert_eq!(c.isps.len(), 15);
        assert_eq!(c.countries.len(), 20);
        let whatsapp = c.whatsapp_cdn_domains.len() + c.whatsapp_softlayer_domains.len();
        assert_eq!(whatsapp, 334);
        assert_eq!(c.whatsapp_cdn_domains.len(), 3);
        assert_eq!(c.top20_users(), 1_423);
    }

    #[test]
    fn representative_apps_have_table5_medians() {
        let c = Catalog::paper();
        assert_eq!(app(&c, "com.whatsapp").unwrap().median_rtt_ms, 133.0);
        assert_eq!(app(&c, "com.google.android.youtube").unwrap().median_rtt_ms, 32.0);
        assert_eq!(app(&c, "com.tencent.mm").unwrap().median_rtt_ms, 36.0);
        assert!(app(&c, "com.not.an.app").is_none());
        // Facebook is the most-measured app.
        let max = c.apps.iter().map(|a| a.weight).fold(0.0, f64::max);
        assert_eq!(app(&c, "com.facebook.katana").unwrap().weight, max);
    }

    #[test]
    fn isps_match_table6_shape() {
        let c = Catalog::paper();
        let singtel = isp(&c, "Singtel").unwrap();
        let cricket = isp(&c, "Cricket").unwrap();
        let jio = isp(&c, "Jio 4G").unwrap();
        assert!(singtel.dns_median_ms < cricket.dns_median_ms);
        assert!(singtel.dns_floor_ms < 10.0);
        assert!(cricket.dns_floor_ms >= 43.0);
        assert!(cricket.non_lte_fraction > 0.5);
        assert!(jio.core_extra_ms > 150.0);
        assert_eq!(jio.country, "India");
        let isps_in = |country: &str| c.isps.iter().filter(|i| i.country == country).count();
        assert_eq!(isps_in("USA"), 8);
        assert_eq!(isps_in("Hong Kong"), 3);
    }

    #[test]
    fn countries_are_ordered_by_users() {
        let c = Catalog::paper();
        assert_eq!(c.countries[0].name, "USA");
        assert_eq!(c.countries[0].users, 790);
        assert!(c.countries.windows(2).all(|w| w[0].users >= w[1].users));
    }
}
