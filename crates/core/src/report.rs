//! What a run produced: the [`RunReport`] every engine (and every fleet
//! shard) emits when its event loop drains.
//!
//! The report is assembled by the engine from the four pipeline stages —
//! relay counters from the relay stage, TUN/pool counters from ingress,
//! samples and aggregates from the sink —
//! plus the shared substrate's ledger. The cross-shard merge operations
//! (`empty` / `absorb` / `absorb_canonical` / `canonicalise` /
//! `fleet_digest`) live in
//! [`crate::shard`] next to the fleet engine that uses them.

use mop_json::{FromJson, JsonReader, JsonWrite, ParseError, ToJson};
use mop_measure::{AggregateStore, WindowedAggregateStore};
use mop_procnet::MappingStats;
use mop_simnet::{CpuLedger, PoolStats, SimTime};
use mop_tun::TunStats;

use crate::stats::{FlowOutcome, RelayStats, RttSample, SampleKind};

/// Everything a run produced.
#[derive(Debug)]
pub struct RunReport {
    /// RTT samples (TCP and DNS) with ground truth.
    ///
    /// Empty when the engine ran with `retain_samples: false` — the
    /// streaming [`RunReport::aggregates`] then carry the run's measurement
    /// content in constant memory.
    pub samples: Vec<RttSample>,
    /// Streaming aggregation of every RTT sample: mergeable quantile
    /// sketches keyed by (kind, network, app, domain, ISP), folded in at the
    /// measurement sink as samples are produced. Merged cross-shard exactly
    /// like the sample vector, and bit-identical for any shard count over
    /// flow-keyed networks.
    pub aggregates: AggregateStore,
    /// Windowed per-epoch aggregation of the same samples, present only when
    /// the run set [`crate::config::MopEyeConfig::epoch_width`]. Merged
    /// cross-shard like [`RunReport::aggregates`] and folded into the fleet
    /// digest only when present.
    pub windows: Option<WindowedAggregateStore>,
    /// Relay counters.
    pub relay: RelayStats,
    /// Packet-to-app mapping statistics.
    pub mapping: MappingStats,
    /// TUN device counters.
    pub tun: TunStats,
    /// CPU / memory / battery ledger.
    pub ledger: CpuLedger,
    /// Behaviour of the tunnel-packet buffer pools, both size classes
    /// together (allocations vs reuses).
    pub buffer_pool: PoolStats,
    /// Always the default: a socket read is a byte count, so there is no
    /// read buffer to pool. The field stays because the benchmark reads it
    /// (it adds its allocations to [`RunReport::buffer_pool`]'s), as
    /// `TunStats::dispatch_stalls` does.
    pub socket_read_pool: PoolStats,
    /// Per-flow outcomes.
    pub flows: Vec<FlowOutcome>,
    /// Virtual time at which the run finished.
    pub finished_at: SimTime,
    /// Events processed.
    pub events_processed: u64,
    /// Events ever scheduled: one start per flow handed to the run, and
    /// every wheel event (pending + processed + cancelled); cancelled
    /// timers are scheduled but never processed.
    pub events_scheduled: u64,
    /// Host-side structure counters: the work the engine's data structures
    /// did beyond their O(1) probes, and the peaks of its per-connection
    /// tables. How a run was partitioned, not what it measured: excluded
    /// from the fleet digest and the checkpoint encoding, merged across
    /// shards by [`Counters::merge`].
    pub counters: Counters,
}

/// A structure counter the engine keeps in every build: elements a data
/// structure examined or moved beyond its O(1) index probe, or (a *gauge*)
/// the most entries a per-connection table held at once.
///
/// Variants are declared in name order, so index order *is* the order
/// [`Counters::iter`] reports in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Kernel-table slots examined or moved by state changes and removals.
    ConnTableScanElems,
    /// Gauge: connection records (and their index entries) held at once.
    ConnsPeakRecords,
    /// Four-tuple lookups in the connection table's maps: one per tunnel
    /// packet resolved to its record at ingress, plus a few per connection.
    /// Nothing past ingress looks a tuple up.
    TupleProbes,
    /// Gauge: socket entries held at once.
    SocketsPeakHeld,
    /// Gauge: wire-tap exchanges (handshakes and DNS) held at once.
    TapPeakExchanges,
    /// Wire-tap exchange entries examined by RTT queries.
    TapScanElems,
    /// Gauge: timing-wheel slab cells in use at once. A cancelled timer
    /// frees its cell at once, so this follows the events pending at once.
    WheelPeakCells,
    /// Schedules that landed in the timing wheel's sorted due buffer.
    WheelReadyInserts,
    /// Due-buffer elements those sorted inserts shifted.
    WheelReadyShiftElems,
}

impl Counter {
    /// Every counter, in name (= index) order.
    pub const ALL: [Counter; 9] = [
        Counter::ConnTableScanElems,
        Counter::ConnsPeakRecords,
        Counter::TupleProbes,
        Counter::SocketsPeakHeld,
        Counter::TapPeakExchanges,
        Counter::TapScanElems,
        Counter::WheelPeakCells,
        Counter::WheelReadyInserts,
        Counter::WheelReadyShiftElems,
    ];

    /// The counter's name, as `report --profile` and `server.profile` print it.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ConnTableScanElems => "conn_table.scan_elems",
            Counter::ConnsPeakRecords => "conns.peak_records",
            Counter::TupleProbes => "conns.tuple_probes",
            Counter::SocketsPeakHeld => "sockets.peak_held",
            Counter::TapPeakExchanges => "tap.peak_exchanges",
            Counter::TapScanElems => "tap.scan_elems",
            Counter::WheelPeakCells => "wheel.peak_cells",
            Counter::WheelReadyInserts => "wheel.ready_inserts",
            Counter::WheelReadyShiftElems => "wheel.ready_shift_elems",
        }
    }

    /// Whether the counter is a peak gauge: a high-water mark of one
    /// engine's table, which merges by maximum rather than by sum.
    pub(crate) fn is_gauge(self) -> bool {
        matches!(
            self,
            Counter::ConnsPeakRecords
                | Counter::SocketsPeakHeld
                | Counter::TapPeakExchanges
                | Counter::WheelPeakCells
        )
    }
}

/// One value per [`Counter`]; merges element-wise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters([u64; Counter::ALL.len()]);

impl Counters {
    /// Adds another report's counters to these; a gauge keeps the larger
    /// peak, so a merged report's gauge is the most any one engine held.
    pub fn merge(&mut self, other: &Counters) {
        for (counter, theirs) in other.iter() {
            let mine = &mut self[counter];
            *mine = if counter.is_gauge() { (*mine).max(theirs) } else { *mine + theirs };
        }
    }

    /// Every counter with its value, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().zip(self.0)
    }
}

impl std::ops::Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl std::ops::IndexMut<Counter> for Counters {
    fn index_mut(&mut self, counter: Counter) -> &mut u64 {
        &mut self.0[counter as usize]
    }
}

impl RunReport {
    /// TCP RTT samples only.
    pub fn tcp_samples(&self) -> Vec<&RttSample> {
        self.samples.iter().filter(|s| s.kind == SampleKind::Tcp).collect()
    }

    /// DNS RTT samples only.
    pub fn dns_samples(&self) -> Vec<&RttSample> {
        self.samples.iter().filter(|s| s.kind == SampleKind::Dns).collect()
    }

    /// Total response bytes delivered to apps divided by the busy interval,
    /// in Mbit/s — the downlink goodput seen through the relay.
    pub fn download_goodput_mbps(&self) -> Option<f64> {
        let total: usize = self.flows.iter().map(|f| f.bytes_received).sum();
        let start = self.flows.iter().map(|f| f.started_at).min()?;
        let end = self.flows.iter().map(|f| f.finished_at).max()?;
        let secs = (end - start).as_secs_f64();
        if secs <= 0.0 || total == 0 {
            return None;
        }
        Some(total as f64 * 8.0 / 1_000_000.0 / secs)
    }

    /// Mean absolute RTT error against the tcpdump reference, in ms.
    pub fn mean_tcp_error_ms(&self) -> Option<f64> {
        let errors: Vec<f64> = self.tcp_samples().iter().map(|s| s.error_ms()).collect();
        if errors.is_empty() {
            return None;
        }
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    }
}

/// The checkpoint encoding of a report: its semantic content — exactly the
/// fields [`RunReport::fleet_digest`] covers, plus the event counters. The
/// control plane streams step deltas in the same encoding, so a subscriber
/// folds them with [`RunReport::absorb`] exactly like a resumed fleet.
///
/// Partition-local resource accounting (ledger, pools, mapping, structure
/// counters) is not encoded and reads back as zeroed
/// defaults; it is excluded from the digest, which the round trip preserves
/// exactly.
impl ToJson for RunReport {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("samples", &self.samples);
        out.field("aggregates", &self.aggregates);
        out.field("windows", &self.windows);
        out.field("relay", &self.relay);
        out.field("tun", &self.tun);
        out.field("flows", &self.flows);
        out.field("finished_at_ns", &self.finished_at.as_nanos());
        out.field("events_processed", &self.events_processed);
        out.field("events_scheduled", &self.events_scheduled);
        out.end_object();
    }
}

impl FromJson for RunReport {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "samples" => samples,
            "aggregates" => aggregates,
            "windows" => windows,
            "relay" => relay,
            "tun" => tun,
            "flows" => flows,
            "finished_at_ns" => finished_at_ns,
            "events_processed" => events_processed,
            "events_scheduled" => events_scheduled,
        });
        let mut report = RunReport::empty();
        report.samples = samples;
        report.aggregates = aggregates;
        report.windows = windows;
        report.relay = relay;
        report.tun = tun;
        report.flows = flows;
        report.finished_at = SimTime::from_nanos(finished_at_ns);
        report.events_processed = events_processed;
        report.events_scheduled = events_scheduled;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_element_wise() {
        // Counts add up; gauges keep the larger peak.
        let mut a = Counters::default();
        let mut b = Counters::default();
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            a[counter] = i as u64;
            b[counter] = 10 * i as u64 + 1;
        }
        a.merge(&b);
        let merged: Vec<(&str, u64)> = a.iter().map(|(c, v)| (c.name(), v)).collect();
        assert_eq!(
            merged,
            [
                ("conn_table.scan_elems", 1),
                ("conns.peak_records", 11),
                ("conns.tuple_probes", 23),
                ("sockets.peak_held", 31),
                ("tap.peak_exchanges", 41),
                ("tap.scan_elems", 56),
                ("wheel.peak_cells", 61),
                ("wheel.ready_inserts", 78),
                ("wheel.ready_shift_elems", 89),
            ]
        );
        // Name order is index order.
        assert!(Counter::ALL.windows(2).all(|w| w[0].name() < w[1].name()));
    }
}
