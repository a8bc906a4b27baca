//! Cost models for the system calls and scheduler effects the paper's
//! optimisations target, plus resource-accounting ledgers.
//!
//! The performance engineering in §3 is entirely about where milliseconds
//! hide on an Android phone: tunnel writes that occasionally take tens of
//! milliseconds, `/proc/net` parses that usually take more than 5 ms,
//! wait/notify wake-ups that cost 1–5 ms, `protect()` calls that cost a few
//! milliseconds, and event-loop notification latency that pollutes
//! timestamps. Those costs are modelled here so the *algorithms* that avoid
//! them (lazy mapping, `queueWrite`/`newPut`, blocking connect threads,
//! `addDisallowedApplication`) can be evaluated quantitatively.
//!
//! The accounting side is [`CpuLedger`]: busy time per [`Component`] — the
//! row names of Table 4's CPU breakdown, `ConnectThreads`, `DnsThreads`,
//! `Inspection`, `MainWorker`, `TunReader`, `TunWriter` — and buffer memory
//! per [`MemoryComponent`] (`inspection`, `relay`). Both sets are closed, so
//! the ledger is two small arrays and a charge is one add: the relay charges
//! four to five times per packet, and a monitor's own accounting must be
//! cheap enough to leave running.

use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Calibrated costs of the host operations the relay performs.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost of one `read()` from the TUN fd when a packet is available.
    pub tun_read: LatencyModel,
    /// Base cost of one `write()` to the TUN fd, uncontended.
    pub tun_write_base: LatencyModel,
    /// Extra cost added to a tunnel write when more than one thread is
    /// writing to the single tunnel (thread competition, §3.5.1).
    pub tun_write_contended_extra: LatencyModel,
    /// Probability that an uncontended tunnel write hits a slow path (page
    /// faults, scheduler preemption) and pays the contended extra anyway.
    pub tun_write_slow_chance: f64,
    /// Cost of enqueueing a packet when the consumer is *not* parked in
    /// `wait()` (a plain queue push).
    pub enqueue_fast: LatencyModel,
    /// The wait/notify wake-up latency paid when the consumer is parked.
    pub wait_notify: LatencyModel,
    /// Cost of parsing `/proc/net/tcp6|tcp` per table entry.
    pub proc_parse_per_entry: LatencyModel,
    /// Fixed cost of opening and reading the proc files.
    pub proc_parse_base: LatencyModel,
    /// Cost of a `PackageManager` UID-to-name lookup (uncached).
    pub package_lookup: LatencyModel,
    /// Cost of `VpnService.protect(socket)` per call (§3.5.2).
    pub protect_call: LatencyModel,
    /// Cost of registering a channel with the selector (§3.4).
    pub selector_register: LatencyModel,
    /// Latency between an I/O event completing and a non-blocking selector
    /// loop actually observing it when other events are pending (§2.4, C2).
    pub selector_dispatch_delay: LatencyModel,
    /// Probability that the selector loop is busy with other events when a
    /// completion arrives (so the dispatch delay applies).
    pub selector_busy_chance: f64,
    /// Cost of spawning a temporary socket-connect thread.
    pub thread_spawn: LatencyModel,
    /// A context switch between engine threads.
    pub context_switch: LatencyModel,
    /// Granularity of the coarse (millisecond) clock used by naive
    /// measurement code; nanosecond timestamps have effectively zero error.
    pub coarse_clock_granularity: SimDuration,
    /// Per-packet CPU cost of deep content inspection (what Haystack pays and
    /// MopEye explicitly avoids, §5).
    pub content_inspection_per_kb: LatencyModel,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::android_phone()
    }
}

impl CostModel {
    /// Costs calibrated to the Nexus-class devices used in the paper's
    /// evaluation (Nexus 4 / Nexus 6, Android 5.x–6.x).
    pub fn android_phone() -> Self {
        Self {
            tun_read: LatencyModel::uniform(0.01, 0.05),
            tun_write_base: LatencyModel::lognormal_with(0.09, 0.45, 0.02),
            tun_write_contended_extra: LatencyModel::lognormal_with(2.2, 0.8, 0.4),
            tun_write_slow_chance: 0.004,
            enqueue_fast: LatencyModel::uniform(0.001, 0.004),
            wait_notify: LatencyModel::lognormal_with(1.8, 0.5, 0.3),
            proc_parse_per_entry: LatencyModel::uniform(0.02, 0.10),
            proc_parse_base: LatencyModel::lognormal_with(4.5, 0.8, 0.5),
            package_lookup: LatencyModel::lognormal_with(1.0, 0.5, 0.2),
            protect_call: LatencyModel::lognormal_with(1.4, 0.7, 0.2),
            selector_register: LatencyModel::lognormal_with(0.35, 1.0, 0.02),
            selector_dispatch_delay: LatencyModel::lognormal_with(2.4, 0.7, 0.3),
            selector_busy_chance: 0.65,
            thread_spawn: LatencyModel::lognormal_with(0.45, 0.4, 0.1),
            context_switch: LatencyModel::uniform(0.01, 0.06),
            coarse_clock_granularity: SimDuration::from_millis(1),
            content_inspection_per_kb: LatencyModel::uniform(0.6, 1.0),
        }
    }

    /// Samples the cost of a tunnel write given how many other threads are
    /// currently writing to the tunnel.
    pub fn sample_tun_write(&self, concurrent_writers: usize, rng: &mut SimRng) -> SimDuration {
        let mut ms = self.tun_write_base.sample_ms(rng);
        let contended = concurrent_writers > 1;
        if contended || rng.chance(self.tun_write_slow_chance) {
            ms += self.tun_write_contended_extra.sample_ms(rng);
            if contended && concurrent_writers > 2 {
                ms += self.tun_write_contended_extra.sample_ms(rng)
                    * (concurrent_writers as f64 - 2.0).min(3.0)
                    * 0.5;
            }
        }
        SimDuration::from_millis_f64(ms)
    }

    /// Samples the cost of one full `/proc/net/tcp6` + `/proc/net/tcp` parse
    /// with `entries` connections in the tables.
    pub fn sample_proc_parse(&self, entries: usize, rng: &mut SimRng) -> SimDuration {
        let per_entry: f64 = (0..entries).map(|_| self.proc_parse_per_entry.sample_ms(rng)).sum();
        SimDuration::from_millis_f64(self.proc_parse_base.sample_ms(rng) + per_entry)
    }

    /// Samples the event-notification delay a non-blocking selector adds to a
    /// completion timestamp (zero when the loop happens to be idle).
    pub fn sample_dispatch_delay(&self, rng: &mut SimRng) -> SimDuration {
        if rng.chance(self.selector_busy_chance) {
            SimDuration::from_millis_f64(self.selector_dispatch_delay.sample_ms(rng))
        } else {
            SimDuration::from_micros(rng.int_inclusive(20, 180))
        }
    }

    /// Rounds a timestamp down to the coarse clock granularity, modelling
    /// millisecond-level timestamp APIs.
    pub fn coarse_timestamp(&self, t: SimTime) -> SimTime {
        let g = self.coarse_clock_granularity.as_nanos().max(1);
        SimTime::from_nanos(t.as_nanos() / g * g)
    }

    /// Samples the CPU cost of inspecting `bytes` of relayed content.
    pub fn sample_content_inspection(&self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let kb = (bytes as f64 / 1024.0).max(0.05);
        SimDuration::from_millis_f64(self.content_inspection_per_kb.sample_ms(rng) * kb)
    }
}

/// A CPU component the relay charges busy time to: the thread (or thread
/// family) of the paper's Figure 4 that did the work. These are the rows
/// Table 4's CPU column sums over.
///
/// Variants are declared in name order; each indexes the ledger's busy
/// array (`component as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// The temporary blocking socket-connect threads (§2.4): thread spawn,
    /// `protect()`, lazy mapping, selector registration.
    ConnectThreads,
    /// The temporary blocking DNS threads (§2.4).
    DnsThreads,
    /// Deep content inspection — what Haystack pays and MopEye avoids (§5).
    Inspection,
    /// The MainWorker: parse, relay decision, segmenting, enqueueing.
    MainWorker,
    /// The TunReader thread: tunnel retrieval and polling (§3.1).
    TunReader,
    /// The dedicated TunWriter thread: tunnel writes (§3.5.1).
    TunWriter,
}

impl Component {
    /// Every component, in name (= index) order.
    pub const ALL: [Component; 6] = [
        Component::ConnectThreads,
        Component::DnsThreads,
        Component::Inspection,
        Component::MainWorker,
        Component::TunReader,
        Component::TunWriter,
    ];
}

/// A holder of buffer memory the ledger tracks; Table 4's memory column is
/// the peak of their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoryComponent {
    /// Content inspection's reassembled flow buffers.
    Inspection,
    /// The relay's fixed footprint plus each live client's 64 KiB read and
    /// write buffers (§3.4).
    Relay,
}

impl MemoryComponent {
    /// Every memory component, in name (= index) order.
    pub const ALL: [MemoryComponent; 2] = [MemoryComponent::Inspection, MemoryComponent::Relay];
}

/// Accumulates CPU busy time per [`Component`] and memory high-water marks
/// per [`MemoryComponent`], so Table 4 (CPU / battery / memory overhead) can
/// be regenerated.
///
/// The component sets are closed, so the ledger is two fixed arrays indexed
/// by the enums: a charge is one add, cheap enough to leave on the packet
/// path. A memory component counts in a merge once it has been set at all,
/// even with zero.
#[derive(Debug, Default, Clone)]
pub struct CpuLedger {
    busy: [SimDuration; Component::ALL.len()],
    memory_bytes: [usize; MemoryComponent::ALL.len()],
    /// Bit `c as usize` is set once `c`'s memory has been recorded.
    recorded: u8,
    memory_peak: usize,
}

impl CpuLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the ledger back to its just-constructed state — the resident
    /// engine's between-runs reset, so a warm run's report charges only what
    /// that run cost.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Charges `cost` of CPU time to `component`.
    #[inline]
    pub fn charge(&mut self, component: Component, cost: SimDuration) {
        self.busy[component as usize] += cost;
    }

    /// Records the current buffer memory attributed to `component`.
    #[inline]
    pub fn set_memory(&mut self, component: MemoryComponent, bytes: usize) {
        self.memory_bytes[component as usize] = bytes;
        self.recorded |= 1 << component as usize;
        self.raise_memory_peak();
    }

    /// Lifts the peak to the current total, if that is higher.
    fn raise_memory_peak(&mut self) {
        let total: usize = self.memory_bytes.iter().sum();
        self.memory_peak = self.memory_peak.max(total);
    }

    /// Total CPU busy time across all components.
    pub fn total_busy(&self) -> SimDuration {
        self.busy.iter().copied().sum()
    }

    /// CPU busy time of one component.
    pub fn busy_of(&self, component: Component) -> SimDuration {
        self.busy[component as usize]
    }

    /// CPU utilisation (0–100 %) over a wall-clock interval.
    pub fn cpu_percent(&self, wall: SimDuration) -> f64 {
        if wall == SimDuration::ZERO {
            return 0.0;
        }
        100.0 * self.total_busy().as_millis_f64() / wall.as_millis_f64()
    }

    /// Peak total buffer memory observed, in bytes.
    pub fn memory_peak_bytes(&self) -> usize {
        self.memory_peak
    }

    /// A simple battery model: percentage points consumed per hour of CPU
    /// busy time plus a radio tax per megabyte transferred.
    pub fn battery_percent(&self, wall: SimDuration, bytes_transferred: usize) -> f64 {
        // Busy CPU drains ~12 %/h on the modelled device; the radio drains
        // ~0.5 % per 100 MB on top of the baseline (which is excluded, like
        // the paper's per-app battery attribution).
        let cpu_hours = self.total_busy().as_secs_f64() / 3600.0;
        let _ = wall;
        let radio = bytes_transferred as f64 / (100.0 * 1024.0 * 1024.0) * 0.5;
        cpu_hours * 12.0 + radio
    }

    /// Merges another ledger into this one: busy times add, and the memory
    /// components `other` has recorded replace this ledger's readings.
    pub fn merge(&mut self, other: &CpuLedger) {
        for (mine, theirs) in self.busy.iter_mut().zip(other.busy) {
            *mine += theirs;
        }
        for c in MemoryComponent::ALL {
            if other.recorded & (1 << c as usize) != 0 {
                self.memory_bytes[c as usize] = other.memory_bytes[c as usize];
            }
        }
        self.recorded |= other.recorded;
        self.memory_peak = self.memory_peak.max(other.memory_peak);
        self.raise_memory_peak();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_tun_writes_are_mostly_sub_millisecond() {
        let model = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(1);
        let n = 3000;
        let slow = (0..n)
            .filter(|_| model.sample_tun_write(1, &mut rng) > SimDuration::from_millis(1))
            .count();
        let frac = slow as f64 / n as f64;
        assert!(frac < 0.03, "slow-write fraction {frac}");
    }

    #[test]
    fn contended_tun_writes_are_slower() {
        let model = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(2);
        let n = 2000;
        let avg = |writers: usize, rng: &mut SimRng| -> f64 {
            (0..n).map(|_| model.sample_tun_write(writers, rng).as_millis_f64()).sum::<f64>()
                / n as f64
        };
        let single = avg(1, &mut rng);
        let multi = avg(3, &mut rng);
        assert!(multi > single * 3.0, "single {single} multi {multi}");
    }

    #[test]
    fn proc_parse_matches_figure_5a_scale() {
        // Figure 5(a): with a busy connection table, over 75 % of parses take
        // more than 5 ms and over 10 % take more than 15 ms.
        let model = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(3);
        let n = 1000;
        let samples: Vec<f64> =
            (0..n).map(|_| model.sample_proc_parse(60, &mut rng).as_millis_f64()).collect();
        let over5 = samples.iter().filter(|s| **s > 5.0).count() as f64 / n as f64;
        let over15 = samples.iter().filter(|s| **s > 15.0).count() as f64 / n as f64;
        assert!(over5 > 0.7, "over5 {over5}");
        assert!(over15 > 0.05, "over15 {over15}");
        assert!(over15 < 0.5, "over15 {over15}");
    }

    #[test]
    fn dispatch_delay_is_millisecond_scale_when_busy() {
        let model = CostModel::android_phone();
        let mut rng = SimRng::seed_from_u64(4);
        let n = 2000;
        let mean_ms: f64 =
            (0..n).map(|_| model.sample_dispatch_delay(&mut rng).as_millis_f64()).sum::<f64>()
                / n as f64;
        assert!(mean_ms > 1.0, "mean dispatch delay {mean_ms}");
        assert!(mean_ms < 10.0, "mean dispatch delay {mean_ms}");
    }

    #[test]
    fn coarse_timestamp_truncates_to_millisecond() {
        let model = CostModel::android_phone();
        let t = SimTime::from_nanos(7_654_321);
        assert_eq!(model.coarse_timestamp(t).as_nanos(), 7_000_000);
    }

    #[test]
    fn ledger_accumulates_and_reports() {
        let mut ledger = CpuLedger::new();
        ledger.charge(Component::MainWorker, SimDuration::from_millis(30));
        ledger.charge(Component::TunReader, SimDuration::from_millis(10));
        ledger.charge(Component::MainWorker, SimDuration::from_millis(20));
        assert_eq!(ledger.busy_of(Component::MainWorker), SimDuration::from_millis(50));
        assert_eq!(ledger.busy_of(Component::TunWriter), SimDuration::ZERO);
        assert_eq!(ledger.total_busy(), SimDuration::from_millis(60));
        assert!((ledger.cpu_percent(SimDuration::from_secs(6)) - 1.0).abs() < 1e-9);
        assert_eq!(ledger.cpu_percent(SimDuration::ZERO), 0.0);
        assert_eq!(ledger.busy_of(Component::TunReader), SimDuration::from_millis(10));
    }

    #[test]
    fn a_zero_reading_still_replaces_in_a_merge_and_reset_forgets_it() {
        let mut ledger = CpuLedger::new();
        ledger.charge(Component::ConnectThreads, SimDuration::from_millis(3));
        ledger.set_memory(MemoryComponent::Relay, 0);
        let mut merged = CpuLedger::new();
        merged.set_memory(MemoryComponent::Relay, 10);
        merged.set_memory(MemoryComponent::Inspection, 5);
        merged.merge(&ledger);
        merged.set_memory(MemoryComponent::Inspection, 7);
        assert_eq!(merged.memory_peak_bytes(), 15, "10 + 5 was the peak; now 0 + 7");
        assert_eq!(merged.busy_of(Component::ConnectThreads), SimDuration::from_millis(3));
        ledger.reset();
        assert_eq!(ledger.total_busy(), SimDuration::ZERO);
        assert_eq!(ledger.memory_peak_bytes(), 0);
    }

    #[test]
    fn component_names_are_declared_in_name_order() {
        let names: Vec<String> = Component::ALL.iter().map(|c| format!("{c:?}")).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert!(Component::ALL.iter().enumerate().all(|(i, c)| *c as usize == i));
        let names: Vec<String> = MemoryComponent::ALL.iter().map(|c| format!("{c:?}")).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert!(MemoryComponent::ALL.iter().enumerate().all(|(i, c)| *c as usize == i));
    }

    #[test]
    fn memory_peak_tracks_total_across_components() {
        let mut ledger = CpuLedger::new();
        ledger.set_memory(MemoryComponent::Inspection, 6 * 1024 * 1024);
        ledger.set_memory(MemoryComponent::Relay, 6 * 1024 * 1024);
        assert_eq!(ledger.memory_peak_bytes(), 12 * 1024 * 1024);
        ledger.set_memory(MemoryComponent::Relay, 1024);
        assert_eq!(ledger.memory_peak_bytes(), 12 * 1024 * 1024);
    }

    #[test]
    fn battery_model_scales_with_cpu_and_bytes() {
        let mut light = CpuLedger::new();
        light.charge(Component::MainWorker, SimDuration::from_secs(60));
        let mut heavy = CpuLedger::new();
        heavy.charge(Component::MainWorker, SimDuration::from_secs(300));
        let wall = SimDuration::from_secs(3480);
        let b_light = light.battery_percent(wall, 500 * 1024 * 1024);
        let b_heavy = heavy.battery_percent(wall, 500 * 1024 * 1024);
        assert!(b_heavy > b_light);
        assert!(b_light > 0.0 && b_light < 5.0, "light battery {b_light}");
    }

    #[test]
    fn merge_combines_ledgers() {
        let mut a = CpuLedger::new();
        a.charge(Component::MainWorker, SimDuration::from_millis(5));
        a.set_memory(MemoryComponent::Inspection, 10);
        let mut b = CpuLedger::new();
        b.charge(Component::MainWorker, SimDuration::from_millis(7));
        b.charge(Component::TunWriter, SimDuration::from_millis(1));
        b.set_memory(MemoryComponent::Relay, 20);
        a.merge(&b);
        assert_eq!(a.busy_of(Component::MainWorker), SimDuration::from_millis(12));
        assert_eq!(a.busy_of(Component::TunWriter), SimDuration::from_millis(1));
        // `b` never recorded inspection memory, so `a`'s reading stands.
        assert_eq!(a.memory_peak_bytes(), 30);
    }
}
