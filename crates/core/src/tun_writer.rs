//! Writing packets back to the VPN tunnel (§3.5.1).
//!
//! Writing to the single tunnel descriptor is not always fast: the occasional
//! write takes several milliseconds, and with multiple threads writing to the
//! one tunnel the slow cases multiply (Table 1, directWrite column). MopEye
//! therefore routes every outgoing packet through a queue drained by a
//! dedicated TunWriter thread (queueWrite), so slow writes are absorbed off
//! the MainWorker's critical path. That in turn makes the *enqueue* operation
//! the cost that matters, and the traditional put (`oldPut`) pays a 1–5 ms
//! wait/notify wake-up whenever the consumer has parked on an empty queue.
//! The `newPut` sleep-counter algorithm keeps the consumer checking the queue
//! for a while before it parks, so the wake-up is almost never paid.

use mop_measure::Histogram;
use mop_simnet::{Component, CostModel, CpuLedger, SimDuration, SimRng, SimTime};

use crate::config::{EnqueueScheme, WriteScheme};

/// The number of empty checks the TunWriter performs before parking in
/// `wait()` under the `newPut` scheme (the paper's sleep-counter threshold).
const NEWPUT_PARK_THRESHOLD: u32 = 512;
/// How long one round of queue checking takes the TunWriter thread.
const CHECK_INTERVAL: SimDuration = SimDuration::from_micros(80);

/// The producer-visible outcome of submitting one packet for tunnel write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// How long the submitting thread was blocked (enqueue cost for the
    /// queued scheme, the full write cost for the direct scheme).
    pub producer_delay: SimDuration,
    /// When the packet was actually written to the tunnel (delivery to the
    /// app can start then).
    pub written_at: SimTime,
}

/// Delay histograms on Table 1's bins (0–1 / 1–2 / 2–5 / 5–10 / >10 ms):
/// constant-size however many packets were written.
#[derive(Debug, Clone)]
pub struct WriteDelayStats {
    /// Delays of the actual tunnel `write()` calls, in milliseconds.
    pub write: Histogram,
    /// Delays of the enqueue operations (empty for the direct scheme).
    pub enqueue: Histogram,
    /// How many times the consumer was parked in `wait()` when a packet was
    /// submitted (i.e. a wake-up was required).
    pub consumer_parked_hits: u64,
}

impl Default for WriteDelayStats {
    fn default() -> Self {
        Self {
            write: Histogram::table1_bins(),
            enqueue: Histogram::table1_bins(),
            consumer_parked_hits: 0,
        }
    }
}

impl WriteDelayStats {
    /// Zeroes the recorded delays.
    pub(crate) fn clear(&mut self) {
        self.write.counts.fill(0);
        self.enqueue.counts.fill(0);
        self.consumer_parked_hits = 0;
    }
}

/// The timing state of one tunnel-writer consumer: when its dedicated writer
/// thread frees up and when it will give up checking an empty queue and park
/// in `wait()`.
///
/// The single-device engine has exactly one of these (owned by the
/// [`TunWriter`]). The flow-keyed fleet engine keeps one *per connection*, so
/// a flow's writer timing depends only on that flow's own packet train — one
/// of the invariants behind shard-count-independent determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriterLane {
    /// When the dedicated writer thread becomes free (queued scheme).
    writer_busy_until: SimTime,
    /// When the writer thread last saw the queue become empty.
    queue_empty_since: SimTime,
    /// Time after which the consumer will have parked in `wait()` if no new
    /// packet arrives (depends on the enqueue scheme).
    consumer_parks_at: SimTime,
}

impl WriterLane {
    /// A fresh lane with an idle writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// The tunnel writer: either a pass-through (direct) or a queue plus a
/// dedicated writer thread (queued).
#[derive(Debug)]
pub struct TunWriter {
    scheme: WriteScheme,
    enqueue: EnqueueScheme,
    /// The single device-wide timing lane used by [`TunWriter::submit`].
    lane: WriterLane,
    stats: WriteDelayStats,
    packets_written: u64,
}

impl TunWriter {
    /// Creates a writer with the given schemes.
    pub fn new(scheme: WriteScheme, enqueue: EnqueueScheme) -> Self {
        Self {
            scheme,
            enqueue,
            lane: WriterLane::new(),
            stats: WriteDelayStats::default(),
            packets_written: 0,
        }
    }

    /// The write scheme in use.
    #[cfg(test)]
    pub(crate) fn scheme(&self) -> WriteScheme {
        self.scheme
    }

    /// Resets the writer to its just-constructed state for the same schemes.
    pub(crate) fn reset(&mut self) {
        self.lane = WriterLane::new();
        self.stats.clear();
        self.packets_written = 0;
    }

    /// Submits one packet for writing to the tunnel at time `now`, using the
    /// writer's own device-wide timing lane.
    ///
    /// `concurrent_writers` is how many threads currently want to write
    /// (MainWorker plus any socket-connect threads); it only matters for the
    /// direct scheme, where they contend for the tunnel.
    ///
    /// The packet itself never passes through here — the engine keeps the one
    /// owned copy and delivers it at `written_at`; this type models the
    /// *timing* of the path, so it needs no bytes at all.
    pub fn submit(
        &mut self,
        now: SimTime,
        concurrent_writers: usize,
        cost_model: &CostModel,
        rng: &mut SimRng,
        ledger: &mut CpuLedger,
    ) -> SubmitOutcome {
        let mut lane = self.lane;
        let outcome = self.submit_lane(&mut lane, now, concurrent_writers, cost_model, rng, ledger);
        self.lane = lane;
        outcome
    }

    /// Submits one packet against a caller-owned timing [`WriterLane`]
    /// (the flow-keyed engine passes each connection's own lane). Statistics
    /// still accumulate centrally on the writer.
    pub(crate) fn submit_lane(
        &mut self,
        lane: &mut WriterLane,
        now: SimTime,
        concurrent_writers: usize,
        cost_model: &CostModel,
        rng: &mut SimRng,
        ledger: &mut CpuLedger,
    ) -> SubmitOutcome {
        self.packets_written += 1;
        match self.scheme {
            WriteScheme::Direct => {
                let delay = cost_model.sample_tun_write(concurrent_writers.max(1), rng);
                self.stats.write.add(delay.as_millis_f64());
                ledger.charge(Component::MainWorker, delay);
                SubmitOutcome { producer_delay: delay, written_at: now + delay }
            }
            WriteScheme::Queue => {
                let enqueue_delay = self.enqueue_cost(lane, now, cost_model, rng);
                self.stats.enqueue.add(enqueue_delay.as_millis_f64());
                ledger.charge(Component::MainWorker, enqueue_delay);
                // The dedicated writer thread drains the queue; it is the only
                // thread writing, so contention is rare.
                let write_cost = cost_model.sample_tun_write(1, rng);
                self.stats.write.add(write_cost.as_millis_f64());
                ledger.charge(Component::TunWriter, write_cost);
                let start = (now + enqueue_delay).max(lane.writer_busy_until);
                let written_at = start + write_cost;
                lane.writer_busy_until = written_at;
                // After finishing this packet the queue is empty again; the
                // consumer starts its empty-check countdown.
                lane.queue_empty_since = written_at;
                lane.consumer_parks_at = match self.enqueue {
                    // Traditional put: the consumer calls `wait()` as soon as
                    // it finds the queue empty.
                    EnqueueScheme::OldPut => written_at,
                    // Sleep counter: the consumer performs NEWPUT_PARK_THRESHOLD
                    // rounds of checking before parking.
                    EnqueueScheme::NewPut => {
                        written_at + CHECK_INTERVAL.saturating_mul(u64::from(NEWPUT_PARK_THRESHOLD))
                    }
                };
                SubmitOutcome { producer_delay: enqueue_delay, written_at }
            }
        }
    }

    fn enqueue_cost(
        &mut self,
        lane: &WriterLane,
        now: SimTime,
        cost_model: &CostModel,
        rng: &mut SimRng,
    ) -> SimDuration {
        let consumer_parked = now >= lane.consumer_parks_at;
        if consumer_parked {
            self.stats.consumer_parked_hits += 1;
            // Waking a parked consumer goes through wait/notify; the producer
            // occasionally gets caught in the monitor handoff and pays a
            // millisecond-scale delay, otherwise just a slightly slower put.
            if rng.chance(0.12) {
                return SimDuration::from_millis_f64(cost_model.wait_notify.sample_ms(rng));
            }
            return cost_model.enqueue_fast.sample(rng)
                + SimDuration::from_micros(rng.int_inclusive(20, 120));
        }
        cost_model.enqueue_fast.sample(rng)
    }

    /// Delay statistics accumulated so far.
    pub fn stats(&self) -> &WriteDelayStats {
        &self.stats
    }

    /// Packets written so far.
    #[cfg(test)]
    pub(crate) fn packets_written(&self) -> u64 {
        self.packets_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_scheme(
        scheme: WriteScheme,
        enqueue: EnqueueScheme,
        gaps_ms: &[u64],
        writers: usize,
    ) -> (TunWriter, CpuLedger) {
        let cost = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(17);
        let mut ledger = CpuLedger::new();
        let mut writer = TunWriter::new(scheme, enqueue);
        let mut now = SimTime::from_millis(5);
        for (i, gap) in gaps_ms.iter().cycle().take(3000).enumerate() {
            let _ = i;
            let outcome = writer.submit(now, writers, &cost, &mut rng, &mut ledger);
            assert!(outcome.written_at >= now);
            now = now + SimDuration::from_millis(*gap) + SimDuration::from_micros(13);
        }
        (writer, ledger)
    }

    #[test]
    fn direct_writes_record_write_delays_only() {
        let (writer, ledger) = run_scheme(WriteScheme::Direct, EnqueueScheme::OldPut, &[1, 3], 1);
        assert_eq!(writer.stats().write.total(), 3000);
        assert_eq!(writer.stats().enqueue.total(), 0);
        assert!(ledger.busy_of(Component::MainWorker) > SimDuration::ZERO);
        assert_eq!(ledger.busy_of(Component::TunWriter), SimDuration::ZERO);
        assert_eq!(writer.packets_written(), 3000);
    }

    #[test]
    fn contended_direct_writes_have_more_large_delays_than_queued() {
        let (direct, _) = run_scheme(WriteScheme::Direct, EnqueueScheme::OldPut, &[0, 1, 2], 3);
        let (queued, _) = run_scheme(WriteScheme::Queue, EnqueueScheme::NewPut, &[0, 1, 2], 3);
        let direct_large = direct.stats().write.fraction_at_or_above(1.0);
        // For the queued scheme what blocks the producer is the enqueue.
        let queued_large = queued.stats().enqueue.fraction_at_or_above(1.0);
        assert!(
            direct_large > queued_large * 3.0,
            "direct {direct_large} vs queued {queued_large}"
        );
    }

    #[test]
    fn oldput_pays_wait_notify_much_more_often_than_newput() {
        // Packet gaps straddle the newPut park threshold (~5 ms of checking):
        // bursty sub-millisecond trains separated by longer idle gaps.
        let gaps = [0u64, 0, 0, 1, 0, 0, 12, 0, 1, 0, 0, 30];
        let (old, _) = run_scheme(WriteScheme::Queue, EnqueueScheme::OldPut, &gaps, 1);
        let (new, _) = run_scheme(WriteScheme::Queue, EnqueueScheme::NewPut, &gaps, 1);
        let old_large = old.stats().enqueue.fraction_at_or_above(1.0);
        let new_large = new.stats().enqueue.fraction_at_or_above(1.0);
        assert!(old_large > 0.01, "oldPut large fraction {old_large}");
        assert!(new_large < old_large / 5.0, "newPut {new_large} vs oldPut {old_large}");
        assert!(old.stats().consumer_parked_hits > new.stats().consumer_parked_hits * 2);
    }

    #[test]
    fn queued_writer_serialises_back_to_back_writes() {
        let cost = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(3);
        let mut ledger = CpuLedger::new();
        let mut writer = TunWriter::new(WriteScheme::Queue, EnqueueScheme::NewPut);
        let now = SimTime::from_millis(1);
        let first = writer.submit(now, 1, &cost, &mut rng, &mut ledger);
        let second = writer.submit(now, 1, &cost, &mut rng, &mut ledger);
        // The dedicated thread writes them one after the other.
        assert!(second.written_at > first.written_at);
        // But the producer is only blocked for the enqueue, not the writes.
        assert!(second.producer_delay < SimDuration::from_millis(1));
    }

    #[test]
    fn large_fraction_of_empty_is_zero() {
        let mut stats = WriteDelayStats::default();
        assert_eq!(stats.write.fraction_at_or_above(1.0), 0.0);
        stats.write.add_all(&[0.5, 0.2]);
        assert_eq!(stats.write.fraction_at_or_above(1.0), 0.0);
        stats.enqueue.add_all(&[2.0, 0.5]);
        assert_eq!(stats.enqueue.fraction_at_or_above(1.0), 0.5);
    }

    #[test]
    fn scheme_accessor() {
        let w = TunWriter::new(WriteScheme::Queue, EnqueueScheme::NewPut);
        assert_eq!(w.scheme(), WriteScheme::Queue);
    }
}
