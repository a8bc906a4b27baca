//! The measurement store: an in-memory collection of records with the
//! filtering and grouping operations the §4.2 analyses are built from.

use std::collections::BTreeMap;

use crate::record::{MeasurementKind, RttRecord};
use crate::stats::Cdf;

/// An in-memory collection of [`RttRecord`]s.
#[derive(Debug, Default, Clone)]
pub struct MeasurementStore {
    records: Vec<RttRecord>,
}

impl MeasurementStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one record.
    pub fn push(&mut self, record: RttRecord) {
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[RttRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// A filtered copy containing only records matching `predicate`.
    #[cfg(test)]
    pub(crate) fn filter(&self, predicate: impl Fn(&RttRecord) -> bool) -> MeasurementStore {
        MeasurementStore {
            records: self.records.iter().filter(|r| predicate(r)).cloned().collect(),
        }
    }

    /// RTT values (ms) of records matching `predicate`.
    pub fn rtts_where(&self, predicate: impl Fn(&RttRecord) -> bool) -> Vec<f64> {
        self.records.iter().filter(|r| predicate(r)).map(|r| r.rtt_ms).collect()
    }

    /// The median RTT of records matching `predicate`, if any match.
    pub fn median_where(&self, predicate: impl Fn(&RttRecord) -> bool) -> Option<f64> {
        let rtts = self.rtts_where(predicate);
        Cdf::from_values(&rtts).median()
    }

    /// Groups record RTTs by a key function; keys are returned sorted.
    #[cfg(test)]
    pub(crate) fn group_rtts_by<K: Ord + Clone>(
        &self,
        key: impl Fn(&RttRecord) -> K,
        predicate: impl Fn(&RttRecord) -> bool,
    ) -> BTreeMap<K, Vec<f64>> {
        let mut groups: BTreeMap<K, Vec<f64>> = BTreeMap::new();
        for r in self.records.iter().filter(|r| predicate(r)) {
            groups.entry(key(r)).or_default().push(r.rtt_ms);
        }
        groups
    }

    /// Measurement counts per app (TCP records only).
    pub fn counts_per_app(&self) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.kind == MeasurementKind::Tcp) {
            *counts.entry(r.app.clone()).or_default() += 1;
        }
        counts
    }

    /// Measurement counts per device (all records).
    pub fn counts_per_device(&self) -> BTreeMap<u32, u64> {
        let mut counts = BTreeMap::new();
        for r in &self.records {
            *counts.entry(r.device).or_default() += 1;
        }
        counts
    }

    /// Device counts per country.
    pub fn devices_per_country(&self) -> BTreeMap<String, u64> {
        let mut devices: BTreeMap<String, std::collections::BTreeSet<u32>> = BTreeMap::new();
        for r in &self.records {
            devices.entry(r.country.clone()).or_default().insert(r.device);
        }
        devices.into_iter().map(|(c, set)| (c, set.len() as u64)).collect()
    }

    /// Distinct values of a string field, sorted.
    #[cfg(test)]
    pub(crate) fn distinct(&self, field: impl Fn(&RttRecord) -> &str) -> Vec<String> {
        let mut set: Vec<String> =
            self.records.iter().map(|r| field(r).to_string()).filter(|s| !s.is_empty()).collect();
        set.sort();
        set.dedup();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NetKind;
    use crate::stats::Summary;

    fn store() -> MeasurementStore {
        let mut s = MeasurementStore::new();
        // Two devices, three apps, two countries, a mix of WiFi/LTE and DNS.
        for i in 0..50u32 {
            s.push(
                RttRecord::tcp(50.0 + f64::from(i), 1, "com.facebook.katana", NetKind::Wifi)
                    .with_domain("graph.facebook.com")
                    .with_isp("HomeWiFi")
                    .with_country("USA"),
            );
        }
        for i in 0..30u32 {
            s.push(
                RttRecord::tcp(250.0 + f64::from(i), 2, "com.whatsapp", NetKind::Lte)
                    .with_domain("e3.whatsapp.net")
                    .with_isp("Jio 4G")
                    .with_country("India"),
            );
        }
        for i in 0..20u32 {
            s.push(
                RttRecord::dns(40.0 + f64::from(i), 2, NetKind::Lte)
                    .with_isp("Jio 4G")
                    .with_country("India"),
            );
        }
        s
    }

    #[test]
    fn counts_and_kinds() {
        let s = store();
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        assert_eq!(s.filter(|r| r.kind == MeasurementKind::Tcp).len(), 80);
        assert_eq!(s.rtts_where(|r| r.kind == MeasurementKind::Dns).len(), 20);
    }

    #[test]
    fn medians_and_filters() {
        let s = store();
        let wifi_median = s.median_where(|r| r.network == NetKind::Wifi).unwrap();
        assert!((wifi_median - 74.5).abs() < 1.0);
        let whatsapp = s.filter(|r| r.app == "com.whatsapp");
        assert_eq!(whatsapp.len(), 30);
        assert!(whatsapp.median_where(|_| true).unwrap() > 200.0);
        assert!(s.median_where(|r| r.app == "com.nonexistent").is_none());
    }

    #[test]
    fn grouping_by_isp_and_app() {
        let s = store();
        let by_isp = s.group_rtts_by(|r| r.isp.clone(), |r| r.kind == MeasurementKind::Dns);
        assert_eq!(by_isp.len(), 1);
        assert_eq!(by_isp["Jio 4G"].len(), 20);
        let per_app = s.counts_per_app();
        assert_eq!(per_app["com.facebook.katana"], 50);
        assert_eq!(per_app["com.whatsapp"], 30);
        let per_device = s.counts_per_device();
        assert_eq!(per_device[&1], 50);
        assert_eq!(per_device[&2], 50);
        let by_country = s.devices_per_country();
        assert_eq!(by_country["USA"], 1);
        assert_eq!(by_country["India"], 1);
    }

    #[test]
    fn summaries_and_distinct() {
        let s = store();
        let by_app = s.group_rtts_by(|r| r.app.clone(), |r| r.kind == MeasurementKind::Tcp);
        assert_eq!(by_app.len(), 2);
        let median = |app: &str| Summary::of(&by_app[app]).unwrap().median;
        assert!(median("com.whatsapp") > median("com.facebook.katana"));
        assert_eq!(s.distinct(|r| &r.country), vec!["India", "USA"]);
        assert_eq!(s.distinct(|r| &r.isp).len(), 2);
    }

    #[test]
    fn cdf_where_reflects_filter() {
        let s = store();
        let lte = s.rtts_where(|r| r.network == NetKind::Lte && r.kind == MeasurementKind::Tcp);
        let cdf = Cdf::from_values(&lte);
        assert_eq!(cdf.len(), 30);
        assert_eq!(cdf.fraction_at_or_below(100.0), 0.0);
    }
}
