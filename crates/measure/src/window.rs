//! Windowed time-series aggregation: ring-buffered per-epoch sketch stores.
//!
//! A longitudinal run spans a simulated day, not a two-second burst — the
//! questions change from "what is the median?" to "when did the median
//! move?". [`WindowedAggregateStore`] adds the time axis to
//! [`crate::AggregateStore`] without giving up any of its properties:
//!
//! * **Fixed epoch width.** Virtual time is cut into epochs of `width_ns`
//!   nanoseconds; each sample is stamped into the [`crate::AggregateStore`]
//!   of the epoch containing its timestamp.
//! * **Bounded memory.** Only the most recent `window` epochs are kept live
//!   in a ring buffer; epochs that fall off the back are folded into one
//!   `folded` tail store (the commutative sketch merge). Memory is
//!   O(window × cells), independent of run length.
//! * **Bit-identical under any merge order.** Which epochs are live is a
//!   pure function of the *global* maximum epoch, the fold into the tail is
//!   the commutative [`crate::AggregateStore::merge_from`], and every
//!   per-epoch store is itself merge-order invariant — so merging any
//!   partition of the same (timestamp, sample) multiset, in any order,
//!   produces the bit-identical windowed store. This is the property the
//!   sharded fleet sink and the checkpoint/restore path both pin.
//!
//! # Examples
//!
//! ```
//! use mop_measure::{MeasurementKind, NetKind, WindowedAggregateStore};
//!
//! // One-second epochs, four of them live at a time.
//! let mut w = WindowedAggregateStore::new(1_000_000_000, 4);
//! for i in 0..10u64 {
//!     w.observe_parts(
//!         i * 1_000_000_000, // one sample per epoch
//!         MeasurementKind::Tcp,
//!         NetKind::Wifi,
//!         "com.whatsapp",
//!         "",
//!         "HomeWiFi",
//!         7,
//!         "",
//!         40.0 + i as f64,
//!     );
//! }
//! assert_eq!(w.live_epochs(), vec![6, 7, 8, 9]); // epochs 0..=5 folded
//! assert_eq!(w.sample_count(), 10);              // nothing lost
//! ```

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};

use crate::aggregate::AggregateStore;
use crate::record::{MeasurementKind, NetKind};
use crate::sketch::Fnv;

/// A compact description of one live epoch: its index, sample and cell
/// counts, and the digest of its [`AggregateStore`]. Produced by
/// [`WindowedAggregateStore::epoch_summaries`] for streaming subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSummary {
    /// The epoch index (sample timestamp divided by the epoch width).
    pub epoch: u64,
    /// Samples stamped into the epoch so far.
    pub samples: u64,
    /// Aggregation cells the epoch's store holds.
    pub cells: usize,
    /// The epoch store's [`AggregateStore::digest`].
    pub digest: u64,
}

/// Ring-buffered per-epoch [`AggregateStore`]s with a merged tail. See the
/// [module docs](self) for the guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedAggregateStore {
    /// Epoch width in nanoseconds (≥ 1).
    width_ns: u64,
    /// Ring capacity: how many epochs stay live before folding (≥ 1).
    window: usize,
    /// Live epochs, slot `epoch % window`. A slot is `Some` only if a sample
    /// was stamped into that epoch while it was inside the window.
    pub(crate) ring: Vec<Option<(u64, AggregateStore)>>,
    /// Merge of every epoch that has fallen off the back of the ring, plus
    /// late samples older than the window.
    pub(crate) folded: AggregateStore,
    /// Highest epoch containing any observed sample (`None` while empty).
    pub(crate) max_epoch: Option<u64>,
}

impl WindowedAggregateStore {
    /// Creates an empty windowed store with the given epoch width
    /// (nanoseconds, clamped to ≥ 1) and live-window length (epochs,
    /// clamped to ≥ 1).
    pub fn new(width_ns: u64, window: usize) -> Self {
        let window = window.max(1);
        Self {
            width_ns: width_ns.max(1),
            window,
            ring: vec![None; window],
            folded: AggregateStore::new(),
            max_epoch: None,
        }
    }

    /// The epoch index containing a timestamp.
    pub(crate) fn epoch_of(&self, at_ns: u64) -> u64 {
        at_ns / self.width_ns
    }

    /// Epoch width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Live-window length in epochs.
    pub fn window_len(&self) -> usize {
        self.window
    }

    /// The lowest epoch still live given the current maximum; everything
    /// below it belongs to the folded tail.
    fn keep_from(&self) -> Option<u64> {
        self.max_epoch.map(|max| max.saturating_sub(self.window as u64 - 1))
    }

    /// Advances the window to cover `epoch`, folding live epochs that fall
    /// off the back into the tail. The fold is commutative, so eviction
    /// order does not matter.
    fn advance_to(&mut self, epoch: u64) {
        match self.max_epoch {
            None => self.max_epoch = Some(epoch),
            Some(max) if epoch > max => {
                let keep_from = epoch.saturating_sub(self.window as u64 - 1);
                let evicted: Vec<AggregateStore> = self
                    .ring
                    .iter_mut()
                    .filter(|slot| slot.as_ref().is_some_and(|(e, _)| *e < keep_from))
                    .filter_map(|slot| slot.take().map(|(_, store)| store))
                    .collect();
                self.folded.merge_from_all(&evicted.iter().collect::<Vec<_>>());
                self.max_epoch = Some(epoch);
            }
            _ => {}
        }
    }

    /// Stamps one measurement into the epoch containing `at_ns`. Samples
    /// older than the live window fold straight into the tail, so nothing is
    /// ever dropped. Field semantics match
    /// [`AggregateStore::observe_parts`].
    #[allow(clippy::too_many_arguments)]
    pub fn observe_parts(
        &mut self,
        at_ns: u64,
        kind: MeasurementKind,
        network: NetKind,
        app: &str,
        domain: &str,
        isp: &str,
        device: u32,
        country: &str,
        rtt_ms: f64,
    ) {
        let epoch = self.epoch_of(at_ns);
        self.advance_to(epoch);
        let keep_from = self.keep_from().unwrap_or(0);
        if epoch < keep_from {
            self.folded.observe_parts(kind, network, app, domain, isp, device, country, rtt_ms);
            return;
        }
        let slot = (epoch % self.window as u64) as usize;
        if let Some((e, store)) = &mut self.ring[slot] {
            debug_assert_eq!(*e, epoch, "ring slot must hold the in-window epoch");
            store.observe_parts(kind, network, app, domain, isp, device, country, rtt_ms);
        } else {
            let mut store = AggregateStore::new();
            store.observe_parts(kind, network, app, domain, isp, device, country, rtt_ms);
            self.ring[slot] = Some((epoch, store));
        }
    }

    /// Absorbs another windowed store built over the same epoch geometry.
    /// The result is the store that would have observed the union of both
    /// sample multisets directly — bit-identical whatever the merge order or
    /// partition, which is what makes the sharded sink and resumed runs
    /// digest-stable.
    ///
    /// # Panics
    ///
    /// If the two stores disagree on epoch width or window length.
    pub fn merge_from(&mut self, other: &WindowedAggregateStore) {
        assert_eq!(self.width_ns, other.width_ns, "epoch widths must match");
        assert_eq!(self.window, other.window, "window lengths must match");
        if let Some(other_max) = other.max_epoch {
            self.advance_to(other_max);
        }
        let mut tail = vec![&other.folded];
        let Some(keep_from) = self.keep_from() else {
            return self.folded.merge_from_all(&tail);
        };
        for slot in &other.ring {
            let Some((epoch, store)) = slot else { continue };
            if *epoch < keep_from {
                tail.push(store);
                continue;
            }
            let idx = (*epoch % self.window as u64) as usize;
            if let Some((e, mine)) = &mut self.ring[idx] {
                debug_assert_eq!(e, epoch, "ring slot must hold the in-window epoch");
                mine.merge_from(store);
            } else {
                self.ring[idx] = Some((*epoch, store.clone()));
            }
        }
        self.folded.merge_from_all(&tail);
    }

    /// Live epoch indices, ascending.
    pub fn live_epochs(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> =
            self.ring.iter().filter_map(|slot| slot.as_ref().map(|(e, _)| *e)).collect();
        epochs.sort_unstable();
        epochs
    }

    /// The live store for one epoch, if that epoch is inside the window and
    /// saw samples.
    pub fn epoch_store(&self, epoch: u64) -> Option<&AggregateStore> {
        let slot = (epoch % self.window as u64) as usize;
        match &self.ring[slot] {
            Some((e, store)) if *e == epoch => Some(store),
            _ => None,
        }
    }

    /// The folded tail: every sample whose epoch has left the live window.
    pub fn folded(&self) -> &AggregateStore {
        &self.folded
    }

    /// Total samples across the tail and every live epoch — nothing is ever
    /// dropped by eviction.
    pub fn sample_count(&self) -> u64 {
        self.folded.sample_count()
            + self
                .ring
                .iter()
                .filter_map(|slot| slot.as_ref().map(|(_, s)| s.sample_count()))
                .sum::<u64>()
    }

    /// Compact per-epoch summaries of every live epoch, ascending — the
    /// payload a streaming subscriber needs to track closing epochs without
    /// shipping the stores themselves. Each digest is the epoch store's own
    /// [`AggregateStore::digest`], so two subscribers comparing summaries
    /// compare the underlying sketches bit for bit.
    pub fn epoch_summaries(&self) -> Vec<EpochSummary> {
        self.live_epochs()
            .into_iter()
            .map(|epoch| {
                let store = self.epoch_store(epoch).expect("live epoch has a store");
                EpochSummary {
                    epoch,
                    samples: store.sample_count(),
                    cells: store.cell_count(),
                    digest: store.digest(),
                }
            })
            .collect()
    }

    /// Merge-on-read over everything: tail plus every live epoch, i.e. the
    /// plain [`AggregateStore`] a non-windowed sink would have produced.
    pub fn merged(&self) -> AggregateStore {
        let mut merged = self.folded.clone();
        let live: Vec<&AggregateStore> =
            self.live_epochs().into_iter().filter_map(|epoch| self.epoch_store(epoch)).collect();
        merged.merge_from_all(&live);
        merged
    }

    /// A stable FNV-1a digest over the canonical windowed state (geometry,
    /// maximum epoch, folded tail, every live epoch in ascending order).
    /// Two stores are bit-identical iff their digests match. The tail's and
    /// each epoch's [`AggregateStore::digest`] are memoised, so after a
    /// merge only the stores it touched are hashed again.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.width_ns);
        h.write_u64(self.window as u64);
        h.write_u64(self.max_epoch.map_or(u64::MAX, |e| e));
        h.write_u64(self.folded.digest());
        let epochs = self.live_epochs();
        h.write_u64(epochs.len() as u64);
        for epoch in epochs {
            h.write_u64(epoch);
            h.write_u64(self.epoch_store(epoch).map_or(0, AggregateStore::digest));
        }
        h.finish()
    }
}

/// The largest live window a decoded store may ask for. The ring is
/// allocated whole when a store is restored, so a checkpoint's `window` is
/// a memory request and has to have a ceiling.
const MAX_DECODED_WINDOW: usize = 1 << 16;

/// The full windowed state — geometry, maximum epoch, folded tail, live
/// epochs ascending — restored bit-identically by [`FromJson`]. Part of the
/// fleet checkpoint format.
impl ToJson for WindowedAggregateStore {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("width_ns", &self.width_ns);
        out.field("window", &self.window);
        out.field("max_epoch", &self.max_epoch);
        out.field("folded", &self.folded);
        out.key("epochs");
        out.begin_array();
        for epoch in self.live_epochs() {
            out.begin_object();
            out.field("epoch", &epoch);
            out.field("store", self.epoch_store(epoch).expect("live epoch has a store"));
            out.end_object();
        }
        out.end_array();
        out.end_object();
    }
}

impl FromJson for WindowedAggregateStore {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "width_ns" => width_ns,
            "window" => window: usize,
            "max_epoch" => max_epoch,
            "folded" => folded,
            "epochs" => epochs: Vec<LiveEpoch>,
        });
        if window > MAX_DECODED_WINDOW {
            return Err(input.error(format!(
                "window {window} is more than a store may hold ({MAX_DECODED_WINDOW})"
            )));
        }
        let mut store = Self::new(width_ns, window);
        store.max_epoch = max_epoch;
        store.folded = folded;
        for LiveEpoch(epoch, epoch_store) in epochs {
            let slot = (epoch % store.window as u64) as usize;
            store.ring[slot] = Some((epoch, epoch_store));
        }
        Ok(store)
    }
}

/// One entry of the `epochs` list: `{"epoch": e, "store": {...}}`.
struct LiveEpoch(u64, AggregateStore);

impl FromJson for LiveEpoch {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, { "epoch" => epoch, "store" => store });
        Ok(LiveEpoch(epoch, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(w: &mut WindowedAggregateStore, at_ns: u64, app: &str, rtt: f64) {
        w.observe_parts(
            at_ns,
            MeasurementKind::Tcp,
            NetKind::Wifi,
            app,
            "",
            "HomeWiFi",
            1,
            "",
            rtt,
        );
    }

    #[test]
    fn samples_land_in_their_epoch() {
        let mut w = WindowedAggregateStore::new(1_000, 8);
        stamp(&mut w, 0, "a", 10.0);
        stamp(&mut w, 999, "a", 11.0);
        stamp(&mut w, 1_000, "a", 12.0);
        assert_eq!(w.live_epochs(), vec![0, 1]);
        assert_eq!(w.epoch_store(0).unwrap().sample_count(), 2);
        assert_eq!(w.epoch_store(1).unwrap().sample_count(), 1);
        assert_eq!(w.sample_count(), 3);
    }

    #[test]
    fn eviction_folds_into_the_tail_without_losing_samples() {
        let mut w = WindowedAggregateStore::new(1_000, 3);
        for epoch in 0..10u64 {
            stamp(&mut w, epoch * 1_000, "a", 10.0 + epoch as f64);
        }
        assert_eq!(w.live_epochs(), vec![7, 8, 9]);
        assert_eq!(w.folded().sample_count(), 7);
        assert_eq!(w.sample_count(), 10);
        // The merged view equals a store that observed everything directly.
        let mut flat = AggregateStore::new();
        for epoch in 0..10u64 {
            flat.observe_parts(
                MeasurementKind::Tcp,
                NetKind::Wifi,
                "a",
                "",
                "HomeWiFi",
                1,
                "",
                10.0 + epoch as f64,
            );
        }
        assert_eq!(w.merged().digest(), flat.digest());
    }

    #[test]
    fn late_samples_older_than_the_window_fold_directly() {
        let mut w = WindowedAggregateStore::new(1_000, 2);
        stamp(&mut w, 9_000, "a", 10.0);
        stamp(&mut w, 0, "a", 99.0); // epoch 0, far behind the window
        assert_eq!(w.live_epochs(), vec![9]);
        assert_eq!(w.folded().sample_count(), 1);
        assert_eq!(w.sample_count(), 2);
    }

    #[test]
    fn merge_matches_direct_observation_and_any_order() {
        let samples: Vec<(u64, f64)> =
            (0..500u64).map(|i| ((i * 37) % 20 * 1_000, 10.0 + (i % 13) as f64)).collect();
        let mut whole = WindowedAggregateStore::new(1_000, 4);
        for (at, rtt) in &samples {
            stamp(&mut whole, *at, "a", *rtt);
        }
        let mut shards: Vec<WindowedAggregateStore> =
            (0..3).map(|_| WindowedAggregateStore::new(1_000, 4)).collect();
        for (i, (at, rtt)) in samples.iter().enumerate() {
            stamp(&mut shards[i % 3], *at, "a", *rtt);
        }
        let mut forward = WindowedAggregateStore::new(1_000, 4);
        for s in &shards {
            forward.merge_from(s);
        }
        let mut backward = WindowedAggregateStore::new(1_000, 4);
        for s in shards.iter().rev() {
            backward.merge_from(s);
        }
        assert_eq!(forward.digest(), backward.digest());
        assert_eq!(forward.digest(), whole.digest());
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let mut w = WindowedAggregateStore::new(500, 3);
        for i in 0..40u64 {
            stamp(&mut w, i * 333, "a", 5.0 + i as f64);
        }
        let text = mop_json::to_string(&w);
        let back: WindowedAggregateStore = mop_json::decode(&text).unwrap();
        assert_eq!(back, w);
        assert_eq!(back.digest(), w.digest());
    }

    #[test]
    fn epoch_summaries_mirror_the_live_ring() {
        let mut w = WindowedAggregateStore::new(1_000, 4);
        for epoch in 0..6u64 {
            for i in 0..=epoch {
                stamp(&mut w, epoch * 1_000 + i, "a", 10.0 + i as f64);
            }
        }
        let summaries = w.epoch_summaries();
        assert_eq!(summaries.iter().map(|s| s.epoch).collect::<Vec<_>>(), w.live_epochs());
        for s in &summaries {
            let store = w.epoch_store(s.epoch).unwrap();
            assert_eq!(s.samples, store.sample_count());
            assert_eq!(s.cells, store.cell_count());
            assert_eq!(s.digest, store.digest());
        }
        assert!(WindowedAggregateStore::new(1_000, 4).epoch_summaries().is_empty());
    }

    #[test]
    fn empty_store_reports_nothing() {
        let w = WindowedAggregateStore::new(1_000, 4);
        assert_eq!(w.max_epoch, None);
        assert_eq!(w.live_epochs(), Vec::<u64>::new());
        assert_eq!(w.sample_count(), 0);
        let back: WindowedAggregateStore = mop_json::decode(&mop_json::to_string(&w)).unwrap();
        assert_eq!(back.digest(), w.digest());
    }
}
