//! Streaming aggregation: per-(app, kind, network, ISP) RTT sketches.
//!
//! [`AggregateStore`] is the constant-memory counterpart of
//! [`crate::MeasurementStore`]: instead of retaining every
//! [`crate::RttRecord`], it folds each record into the [`crate::RttSketch`]
//! of its *cell* — the (measurement kind, network type, app, domain, ISP)
//! combination — as the record arrives at a measurement sink. Memory is
//! proportional to the number of distinct cells (apps × networks × ISPs),
//! not to the number of samples, and two stores built from any partition of
//! the same records merge to the bit-identical result in any order: both
//! properties the sharded fleet pipeline needs.
//!
//! A small second plane tracks per-device activity (measurement count and
//! country), which the contribution and geography analyses (Figures 6–7)
//! need and sketches cannot provide; it is proportional to the number of
//! devices.
//!
//! # Examples
//!
//! ```
//! use mop_measure::{AggregateStore, NetKind, RttRecord};
//!
//! let mut store = AggregateStore::new();
//! for i in 0..100u32 {
//!     store.observe(
//!         &RttRecord::tcp(40.0 + f64::from(i % 10), 1, "com.whatsapp", NetKind::Lte)
//!             .with_isp("Jio 4G"),
//!     );
//! }
//! let whatsapp = store.sketch_where(|key| key.app == "com.whatsapp");
//! assert_eq!(whatsapp.count(), 100);
//! assert!(whatsapp.median().unwrap() > 40.0);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};

use crate::record::{MeasurementKind, NetKind, RttRecord};
use crate::sketch::{DigestMemo, Fnv, MergeTable, RttSketch};

/// The identity of one aggregation cell: everything the §4.2 analyses group
/// records by, minus the per-sample fields (RTT, timestamp) and the
/// per-device fields tracked by the device plane.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AggregateKey {
    /// Measurement kind (TCP handshake or DNS exchange).
    pub kind: MeasurementKind,
    /// Access-network technology at measurement time.
    pub network: NetKind,
    /// Package name of the measured app (empty for DNS).
    pub app: String,
    /// Destination domain, when known.
    pub domain: String,
    /// Operator name (cellular) or Wi-Fi network label.
    pub isp: String,
}

impl AggregateKey {
    fn empty() -> Self {
        Self {
            kind: MeasurementKind::Tcp,
            network: NetKind::Wifi,
            app: String::new(),
            domain: String::new(),
            isp: String::new(),
        }
    }
}

/// Per-device activity: the device plane of an [`AggregateStore`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceActivity {
    /// Measurements contributed by the device (all kinds).
    pub count: u64,
    /// The device's country (first one observed; devices do not move between
    /// countries in the dataset model).
    pub country: String,
}

/// A keyed collection of [`RttSketch`] cells plus a per-device activity
/// plane. See the [module docs](self).
#[derive(Clone, Default)]
pub struct AggregateStore {
    pub(crate) cells: BTreeMap<AggregateKey, RttSketch>,
    pub(crate) devices: BTreeMap<u32, DeviceActivity>,
    /// Scratch key reused across observations so the steady-state fold does
    /// not allocate (the `String` fields keep their capacity).
    scratch: Option<AggregateKey>,
    /// [`AggregateStore::digest`], kept until the next `&mut` call.
    digest_memo: DigestMemo,
}

/// Equality compares the semantic content (cells and devices); the reusable
/// scratch key and the digest memo are working storage, not state.
impl PartialEq for AggregateStore {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells && self.devices == other.devices
    }
}

impl Eq for AggregateStore {}

impl fmt::Debug for AggregateStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AggregateStore")
            .field("cells", &self.cells)
            .field("devices", &self.devices)
            .field("scratch", &self.scratch)
            .finish()
    }
}

impl AggregateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into its cell and the device plane.
    pub fn observe(&mut self, record: &RttRecord) {
        self.observe_parts(
            record.kind,
            record.network,
            &record.app,
            &record.domain,
            &record.isp,
            record.device,
            &record.country,
            record.rtt_ms,
        );
    }

    /// Folds one measurement given as loose fields, avoiding the need to
    /// build an [`RttRecord`] (the relay sink uses this: its samples carry
    /// borrowed context). Allocates only when a new cell or device appears;
    /// re-observing an existing cell is allocation-free in steady state.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_parts(
        &mut self,
        kind: MeasurementKind,
        network: NetKind,
        app: &str,
        domain: &str,
        isp: &str,
        device: u32,
        country: &str,
        rtt_ms: f64,
    ) {
        self.digest_memo.clear();
        let mut key = self.scratch.take().unwrap_or_else(AggregateKey::empty);
        key.kind = kind;
        key.network = network;
        key.app.clear();
        key.app.push_str(app);
        key.domain.clear();
        key.domain.push_str(domain);
        key.isp.clear();
        key.isp.push_str(isp);
        if let Some(sketch) = self.cells.get_mut(&key) {
            sketch.observe(rtt_ms);
        } else {
            let mut sketch = RttSketch::new();
            sketch.observe(rtt_ms);
            self.cells.insert(key.clone(), sketch);
        }
        self.scratch = Some(key);
        let entry = self.devices.entry(device).or_default();
        entry.count += 1;
        if entry.country.is_empty() {
            entry.country.push_str(country);
        }
    }

    /// Absorbs another store: cell-wise and device-wise integral merges, so
    /// any merge order over any partition of the same records produces the
    /// bit-identical store. This is the cross-shard aggregation path of the
    /// fleet engine's measurement sink.
    pub fn merge_from(&mut self, other: &AggregateStore) {
        self.digest_memo.clear();
        for (key, sketch) in &other.cells {
            if let Some(cell) = self.cells.get_mut(key) {
                cell.merge_from(sketch);
            } else {
                self.cells.insert(key.clone(), sketch.clone());
            }
        }
        self.merge_devices_from(other);
    }

    /// Absorbs every store in `others`, in order: the store that
    /// [`AggregateStore::merge_from`] of each in turn gives, with each cell
    /// merged in one pass over all its parts instead of one merge per part.
    pub fn merge_from_all(&mut self, others: &[&AggregateStore]) {
        match others {
            [] => return,
            [other] => return self.merge_from(other),
            _ => self.digest_memo.clear(),
        }
        let mut parts: BTreeMap<&AggregateKey, Vec<&RttSketch>> = BTreeMap::new();
        for other in others {
            for (key, sketch) in &other.cells {
                parts.entry(key).or_default().push(sketch);
            }
        }
        let mut table = MergeTable::default();
        for (key, parts) in parts {
            match self.cells.get_mut(key) {
                Some(cell) => table.merge_into(cell, &parts),
                None => {
                    self.cells.insert(key.clone(), table.merged(&parts));
                }
            }
        }
        for other in others {
            self.merge_devices_from(other);
        }
    }

    /// The device half of [`AggregateStore::merge_from`].
    fn merge_devices_from(&mut self, other: &AggregateStore) {
        for (device, activity) in &other.devices {
            let entry = self.devices.entry(*device).or_default();
            entry.count += activity.count;
            if entry.country.is_empty() {
                entry.country.push_str(&activity.country);
            }
        }
    }

    /// Number of aggregation cells (not samples).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total samples folded in, across all cells.
    pub fn sample_count(&self) -> u64 {
        self.cells.values().map(RttSketch::count).sum()
    }

    /// Iterates over the cells in canonical (key) order.
    pub fn cells(&self) -> impl Iterator<Item = (&AggregateKey, &RttSketch)> {
        self.cells.iter()
    }

    /// The merged sketch of every cell matching `predicate` — the streaming
    /// counterpart of [`crate::MeasurementStore::rtts_where`].
    pub fn sketch_where(&self, predicate: impl Fn(&AggregateKey) -> bool) -> RttSketch {
        let parts: Vec<&RttSketch> =
            self.cells.iter().filter(|(key, _)| predicate(key)).map(|(_, sketch)| sketch).collect();
        MergeTable::default().merged(&parts)
    }

    /// The median RTT over the cells matching `predicate`, if any samples
    /// match — the streaming counterpart of
    /// [`crate::MeasurementStore::median_where`].
    pub fn median_where(&self, predicate: impl Fn(&AggregateKey) -> bool) -> Option<f64> {
        self.sketch_where(predicate).median()
    }

    /// Groups matching cells by a key function, merging each group into one
    /// sketch — the streaming counterpart of
    /// `MeasurementStore::group_rtts_by`. Group keys come back in
    /// sorted order.
    pub fn group_by<K: Ord>(
        &self,
        key: impl Fn(&AggregateKey) -> K,
        predicate: impl Fn(&AggregateKey) -> bool,
    ) -> BTreeMap<K, RttSketch> {
        let mut groups: BTreeMap<K, Vec<&RttSketch>> = BTreeMap::new();
        for (cell_key, sketch) in &self.cells {
            if predicate(cell_key) {
                groups.entry(key(cell_key)).or_default().push(sketch);
            }
        }
        let mut table = MergeTable::default();
        groups
            .into_iter()
            .map(|(group, parts)| {
                let mut merged = RttSketch::new();
                table.merge_into(&mut merged, &parts);
                (group, merged)
            })
            .collect()
    }

    /// Measurement counts per app (TCP cells only), matching
    /// [`crate::MeasurementStore::counts_per_app`].
    pub fn counts_per_app(&self) -> BTreeMap<String, u64> {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for (key, sketch) in &self.cells {
            if key.kind == MeasurementKind::Tcp {
                *counts.entry(key.app.clone()).or_default() += sketch.count();
            }
        }
        counts
    }

    /// Measurement counts per device (all kinds), matching
    /// [`crate::MeasurementStore::counts_per_device`].
    pub fn counts_per_device(&self) -> BTreeMap<u32, u64> {
        self.devices.iter().map(|(device, a)| (*device, a.count)).collect()
    }

    /// Device counts per country, matching
    /// [`crate::MeasurementStore::devices_per_country`].
    pub fn devices_per_country(&self) -> BTreeMap<String, u64> {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for activity in self.devices.values() {
            if !activity.country.is_empty() {
                *counts.entry(activity.country.clone()).or_default() += 1;
            }
        }
        counts
    }

    /// Distinct non-empty domains among cells matching `predicate`, sorted.
    pub fn distinct_domains(&self, predicate: impl Fn(&AggregateKey) -> bool) -> Vec<String> {
        let mut domains: Vec<String> = self
            .cells
            .keys()
            .filter(|key| !key.domain.is_empty() && predicate(key))
            .map(|key| key.domain.clone())
            .collect();
        domains.sort();
        domains.dedup();
        domains
    }

    /// A stable FNV-1a digest over the full canonical state (every cell key,
    /// every cell sketch, every device). Two stores are bit-identical iff
    /// their digests match, which makes cross-shard merge determinism a
    /// one-line assertion. Memoised until the store next changes, and each
    /// cell's sketch digest likewise, so re-digesting after a merge hashes
    /// only the cells it touched.
    pub fn digest(&self) -> u64 {
        self.digest_memo.get_or(|| {
            let mut h = Fnv::new();
            h.write_u64(self.cells.len() as u64);
            for (key, sketch) in &self.cells {
                h.write_u64(match key.kind {
                    MeasurementKind::Tcp => 0,
                    MeasurementKind::Dns => 1,
                });
                h.write_u64(key.network as u64);
                h.write_str(&key.app);
                h.write_str(&key.domain);
                h.write_str(&key.isp);
                h.write_u64(sketch.digest());
            }
            h.write_u64(self.devices.len() as u64);
            for (device, activity) in &self.devices {
                h.write_u64(u64::from(*device));
                h.write_u64(activity.count);
                h.write_str(&activity.country);
            }
            h.finish()
        })
    }
}

/// The full canonical state — cells in key order, then the device plane —
/// restored bit-identically by [`FromJson`]. Part of the fleet checkpoint
/// format.
impl ToJson for AggregateStore {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.key("cells");
        out.begin_array();
        for (key, sketch) in &self.cells {
            out.begin_object();
            out.field("kind", &key.kind);
            out.field("network", &key.network);
            out.field("app", &key.app);
            out.field("domain", &key.domain);
            out.field("isp", &key.isp);
            out.field("sketch", sketch);
            out.end_object();
        }
        out.end_array();
        out.key("devices");
        out.begin_array();
        for (device, activity) in &self.devices {
            out.begin_object();
            out.field("device", device);
            out.field("count", &activity.count);
            out.field("country", &activity.country);
            out.end_object();
        }
        out.end_array();
        out.end_object();
    }
}

impl FromJson for AggregateStore {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, { "cells" => cells: Cells, "devices" => devices: Devices });
        Ok(Self { cells: cells.0, devices: devices.0, ..Self::default() })
    }
}

/// The `cells` list, read straight into the map (a repeated key keeps the
/// later sketch).
struct Cells(BTreeMap<AggregateKey, RttSketch>);

impl FromJson for Cells {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        let mut cells = BTreeMap::new();
        let mut at = 0;
        input.read_array(|input| {
            let (key, sketch) = read_cell(input).map_err(|e| e.within_index(at))?;
            cells.insert(key, sketch);
            at += 1;
            Ok(())
        })?;
        Ok(Cells(cells))
    }
}

fn read_cell(input: &mut JsonReader<'_>) -> Result<(AggregateKey, RttSketch), ParseError> {
    mop_json::read_members!(input, {
        "kind" => kind,
        "network" => network,
        "app" => app,
        "domain" => domain,
        "isp" => isp,
        "sketch" => sketch,
    });
    Ok((AggregateKey { kind, network, app, domain, isp }, sketch))
}

/// The `devices` list, read straight into the map.
struct Devices(BTreeMap<u32, DeviceActivity>);

impl FromJson for Devices {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        let mut devices = BTreeMap::new();
        let mut at = 0;
        input.read_array(|input| {
            let (device, activity) = read_device(input).map_err(|e| e.within_index(at))?;
            devices.insert(device, activity);
            at += 1;
            Ok(())
        })?;
        Ok(Devices(devices))
    }
}

fn read_device(input: &mut JsonReader<'_>) -> Result<(u32, DeviceActivity), ParseError> {
    mop_json::read_members!(input, { "device" => device, "count" => count, "country" => country });
    Ok((device, DeviceActivity { count, country }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<RttRecord> {
        let mut out = Vec::new();
        for i in 0..60u32 {
            out.push(
                RttRecord::tcp(50.0 + f64::from(i % 20), 1, "com.facebook.katana", NetKind::Wifi)
                    .with_domain("graph.facebook.com")
                    .with_isp("HomeWiFi")
                    .with_country("USA"),
            );
            out.push(
                RttRecord::tcp(250.0 + f64::from(i % 10), 2, "com.whatsapp", NetKind::Lte)
                    .with_domain("e3.whatsapp.net")
                    .with_isp("Jio 4G")
                    .with_country("India"),
            );
            out.push(
                RttRecord::dns(40.0 + f64::from(i % 5), 2, NetKind::Lte)
                    .with_isp("Jio 4G")
                    .with_country("India"),
            );
        }
        out
    }

    #[test]
    fn observe_builds_cells_and_device_plane() {
        let mut store = AggregateStore::new();
        for r in records() {
            store.observe(&r);
        }
        assert_eq!(store.cell_count(), 3);
        assert_eq!(store.sample_count(), 180);
        let per_app = store.counts_per_app();
        assert_eq!(per_app["com.facebook.katana"], 60);
        assert_eq!(per_app["com.whatsapp"], 60);
        let per_device = store.counts_per_device();
        assert_eq!(per_device[&1], 60);
        assert_eq!(per_device[&2], 120);
        let by_country = store.devices_per_country();
        assert_eq!(by_country["USA"], 1);
        assert_eq!(by_country["India"], 1);
    }

    #[test]
    fn queries_match_their_vector_counterparts() {
        let mut store = AggregateStore::new();
        let records = records();
        for r in &records {
            store.observe(r);
        }
        // Median of the WiFi cell vs the exact nearest-rank vector median.
        let mut exact: Vec<f64> =
            records.iter().filter(|r| r.network == NetKind::Wifi).map(|r| r.rtt_ms).collect();
        exact.sort_by(f64::total_cmp);
        let exact_median = exact[(0.5 * (exact.len() - 1) as f64).round() as usize];
        let sketch_median = store.median_where(|k| k.network == NetKind::Wifi).unwrap();
        assert!((sketch_median - exact_median).abs() / exact_median <= 0.01);
        // Grouping by ISP over DNS cells.
        let by_isp = store.group_by(|k| k.isp.clone(), |k| k.kind == MeasurementKind::Dns);
        assert_eq!(by_isp.len(), 1);
        assert_eq!(by_isp["Jio 4G"].count(), 60);
        assert_eq!(store.distinct_domains(|_| true), vec!["e3.whatsapp.net", "graph.facebook.com"]);
        assert!(store.median_where(|k| k.app == "com.none").is_none());
    }

    #[test]
    fn a_one_sample_group_reads_its_sample_as_median_and_minimum() {
        let mut store = AggregateStore::new();
        store.observe(&RttRecord::tcp(50.0, 1, "com.app", NetKind::Wifi));
        let groups = store.group_by(|k| k.app.clone(), |_| true);
        for sketch in [&groups["com.app"], &store.sketch_where(|_| true)] {
            assert_eq!((sketch.median(), sketch.min()), (Some(50.0), Some(50.0)));
        }
    }

    #[test]
    fn merge_is_partition_invariant() {
        let records = records();
        let mut whole = AggregateStore::new();
        for r in &records {
            whole.observe(r);
        }
        let mut shards = vec![AggregateStore::new(), AggregateStore::new(), AggregateStore::new()];
        for (i, r) in records.iter().enumerate() {
            shards[i % 3].observe(r);
        }
        let mut forward = AggregateStore::new();
        for s in &shards {
            forward.merge_from(s);
        }
        let mut backward = AggregateStore::new();
        for s in shards.iter().rev() {
            backward.merge_from(s);
        }
        assert_eq!(forward.digest(), backward.digest());
        assert_eq!(forward.digest(), whole.digest());
        assert_eq!(forward.sample_count(), whole.sample_count());
    }

    #[test]
    fn empty_store_reports_nothing() {
        let store = AggregateStore::new();
        assert_eq!(store.cell_count(), 0);
        assert_eq!(store.sample_count(), 0);
        assert!(store.sketch_where(|_| true).is_empty());
        assert!(store.counts_per_app().is_empty());
        assert!(store.devices_per_country().is_empty());
    }
}
