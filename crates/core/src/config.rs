//! Engine configuration.
//!
//! Two kinds of knob live here. The design decisions the paper evaluates
//! (read strategy, write and enqueue schemes, mapping, protect mode,
//! timestamp placement, clock granularity, content inspection) let the
//! experiments compare MopEye's choices against ToyVpn, PrivacyGuard, Haystack
//! and MobiPerf. The modelling knobs (seed, idle timeout, congestion
//! control, epoch windows, event budget, sample retention) choose what a
//! run simulates and what it reports.
//!
//! Two things are deliberately *not* knobs. How per-flow state is keyed —
//! one shared device, or a fleet where every flow has its own streams — is
//! decided once, on the network builder
//! ([`mop_simnet::SimNetworkBuilder::flow_keyed`]), and the engine reads it
//! from the network it runs over ([`mop_simnet::SimNetwork::keying`]).
//! Flow-keyed runs expect [`mop_tun::ReadStrategy::Blocking`] reads and
//! pre-assigned [`mop_tun::FlowSpec::src`] endpoints; polling readers keep
//! cross-flow poll-loop state that would reintroduce partition-dependence.
//! The event loop always runs on the timing wheel.

use mop_procnet::MappingStrategy;
use mop_simnet::SimDuration;
use mop_tcpstack::CongestionAlgo;
use mop_tun::ReadStrategy;

/// How packets are written back to the VPN tunnel (§3.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteScheme {
    /// Writing is performed by whichever thread has a packet to send.
    Direct,
    /// Packets are queued and written by the dedicated TunWriter thread
    /// (MopEye's choice).
    Queue,
}

/// How packets are enqueued for the TunWriter (§3.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueScheme {
    /// Traditional put: the consumer parks in `wait()` whenever the queue is
    /// empty, so most puts pay a wait/notify wake-up.
    OldPut,
    /// MopEye's sleep-counter algorithm: the consumer keeps checking the
    /// queue for a while before parking, so puts almost never pay the
    /// wake-up.
    NewPut,
}

/// How sockets are excluded from the VPN to avoid a routing loop (§3.5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectMode {
    /// `VpnService.protect(socket)` on every socket (required before
    /// Android 5.0); costs up to several milliseconds per connection.
    PerSocket,
    /// `addDisallowedApplication()` once at start-up (Android 5.0+).
    DisallowedApplication,
}

/// Where the post-`connect()` timestamp is taken (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimestampMode {
    /// In the temporary blocking socket-connect thread, immediately after
    /// `connect()` returns (MopEye's choice).
    BlockingConnectThread,
    /// From the non-blocking selector notification, which adds the event
    /// dispatch delay when other socket events are pending.
    SelectorNotification,
}

/// Clock used for timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockGranularity {
    /// Nanosecond timestamps (`System.nanoTime()`), MopEye's choice.
    Nanosecond,
    /// Millisecond timestamps (`System.currentTimeMillis()`), one of the
    /// sources of MobiPerf's inaccuracy identified in §4.1.1.
    Millisecond,
}

/// The engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MopEyeConfig {
    /// Strategy for retrieving packets from the TUN device (§3.1).
    pub read_strategy: ReadStrategy,
    /// Scheme for writing packets back to the tunnel (§3.5.1).
    pub write_scheme: WriteScheme,
    /// Enqueue algorithm used with [`WriteScheme::Queue`] (§3.5.1).
    pub enqueue_scheme: EnqueueScheme,
    /// Packet-to-app mapping strategy (§3.3).
    pub mapping: MappingStrategy,
    /// Socket protection mode (§3.5.2).
    pub protect: ProtectMode,
    /// Where the post-connect timestamp is taken (§2.4).
    pub timestamp_mode: TimestampMode,
    /// Timestamp clock granularity.
    pub clock: ClockGranularity,
    /// Inspect relayed content (what Haystack does and MopEye deliberately
    /// does not, §5); charged as per-kilobyte CPU.
    pub content_inspection: bool,
    /// Random seed for the engine's own noise (thread scheduling, costs).
    pub seed: u64,
    /// Safety valve: a run aborts after this many events. Fleet scenarios
    /// with 100k+ connections need far more than the single-device default.
    pub max_events: u64,
    /// Whether the report retains the raw per-sample vector
    /// (`RunReport::samples`) alongside the streaming aggregates.
    ///
    /// `true` (the default) keeps the vector — the accuracy experiments and
    /// the fleet digest need every sample. `false` drops each sample after
    /// folding it into `RunReport::aggregates`, making a run's measurement
    /// memory O(apps × networks) instead of O(samples) — the mode the crowd
    /// `report` binary uses.
    pub retain_samples: bool,
    /// Tear down TCP connections that have relayed nothing for this long.
    ///
    /// `None` (the default) arms no timers and reproduces the historical
    /// engine bit for bit. `Some(d)` arms a cancellable idle timer per
    /// connection, re-armed on every relayed segment — the mass
    /// schedule/cancel churn the timing wheel absorbs at O(1), and the home
    /// future retransmission/keepalive timers will share.
    pub idle_timeout: Option<SimDuration>,
    /// Which congestion controller paces loss recovery on faulty networks
    /// (see [`mop_tcpstack::RecoveryState`]). Consulted only when the
    /// simulated network can inject data-path faults; on clean networks no
    /// recovery state exists at all, so the choice is free.
    pub congestion: CongestionAlgo,
    /// Width of one analytics epoch for the windowed time-series sink.
    ///
    /// `None` (the default) disables windowed aggregation entirely:
    /// `RunReport::windows` stays `None` and the fleet digest is bit-for-bit
    /// what it was before windows existed. `Some(w)` makes the measurement
    /// sink stamp every sample into the
    /// [`mop_measure::WindowedAggregateStore`] epoch containing its virtual
    /// timestamp (in addition to the flat aggregates), giving longitudinal
    /// runs their per-epoch time series.
    pub epoch_width: Option<SimDuration>,
    /// How many epochs stay live in the windowed sink's ring before folding
    /// into its tail (ignored while `epoch_width` is `None`). Memory is
    /// O(`epoch_window` × cells) whatever the run length.
    pub epoch_window: usize,
}

/// The default event-count safety valve (single-device scale).
pub const DEFAULT_MAX_EVENTS: u64 = 5_000_000;

/// The default number of live epochs in the windowed sink's ring (see
/// [`MopEyeConfig::epoch_window`]): enough to keep a full simulated day of
/// hour-scale epochs live for the epoch table.
pub const DEFAULT_EPOCH_WINDOW: usize = 32;

impl Default for MopEyeConfig {
    fn default() -> Self {
        Self::mopeye()
    }
}

impl MopEyeConfig {
    /// The configuration the released MopEye app uses: blocking tunnel reads,
    /// queued writes with `newPut`, lazy mapping, `addDisallowedApplication`,
    /// blocking connect-thread timestamps at nanosecond granularity, and no
    /// content inspection.
    pub fn mopeye() -> Self {
        Self {
            read_strategy: ReadStrategy::mopeye(),
            write_scheme: WriteScheme::Queue,
            enqueue_scheme: EnqueueScheme::NewPut,
            mapping: MappingStrategy::Lazy,
            protect: ProtectMode::DisallowedApplication,
            timestamp_mode: TimestampMode::BlockingConnectThread,
            clock: ClockGranularity::Nanosecond,
            content_inspection: false,
            seed: 0x4d6f_7045,
            max_events: DEFAULT_MAX_EVENTS,
            retain_samples: true,
            idle_timeout: None,
            congestion: CongestionAlgo::Reno,
            epoch_width: None,
            epoch_window: DEFAULT_EPOCH_WINDOW,
        }
    }

    /// A Haystack-like configuration: adaptive-sleep reads, direct writes,
    /// cache-based mapping, per-socket protect, and content inspection.
    pub fn haystack_like() -> Self {
        Self {
            read_strategy: ReadStrategy::haystack(),
            write_scheme: WriteScheme::Direct,
            enqueue_scheme: EnqueueScheme::OldPut,
            mapping: MappingStrategy::Cached,
            protect: ProtectMode::PerSocket,
            timestamp_mode: TimestampMode::SelectorNotification,
            clock: ClockGranularity::Millisecond,
            content_inspection: true,
            seed: 0x4861_7973,
            max_events: DEFAULT_MAX_EVENTS,
            retain_samples: true,
            idle_timeout: None,
            congestion: CongestionAlgo::Reno,
            epoch_width: None,
            epoch_window: DEFAULT_EPOCH_WINDOW,
        }
    }

    /// A naive first-implementation configuration: ToyVpn-style 100 ms sleep
    /// reads, direct writes, eager mapping, per-socket protect.
    pub fn naive() -> Self {
        Self {
            read_strategy: ReadStrategy::toyvpn(),
            write_scheme: WriteScheme::Direct,
            enqueue_scheme: EnqueueScheme::OldPut,
            mapping: MappingStrategy::Eager,
            protect: ProtectMode::PerSocket,
            timestamp_mode: TimestampMode::SelectorNotification,
            clock: ClockGranularity::Nanosecond,
            content_inspection: false,
            seed: 0x546f_7956,
            max_events: DEFAULT_MAX_EVENTS,
            retain_samples: true,
            idle_timeout: None,
            congestion: CongestionAlgo::Reno,
            epoch_width: None,
            epoch_window: DEFAULT_EPOCH_WINDOW,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the read strategy.
    pub fn with_read_strategy(mut self, strategy: ReadStrategy) -> Self {
        self.read_strategy = strategy;
        self
    }

    /// Sets the write and enqueue schemes.
    pub fn with_write(mut self, write: WriteScheme, enqueue: EnqueueScheme) -> Self {
        self.write_scheme = write;
        self.enqueue_scheme = enqueue;
        self
    }

    /// Sets the mapping strategy.
    pub fn with_mapping(mut self, mapping: MappingStrategy) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the timestamp mode.
    pub fn with_timestamp_mode(mut self, mode: TimestampMode) -> Self {
        self.timestamp_mode = mode;
        self
    }

    /// Sets the protect mode.
    pub fn with_protect(mut self, protect: ProtectMode) -> Self {
        self.protect = protect;
        self
    }

    /// Sets the event-count safety valve.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Sets whether the report retains the raw sample vector (see
    /// [`MopEyeConfig::retain_samples`]).
    pub fn with_retain_samples(mut self, retain: bool) -> Self {
        self.retain_samples = retain;
        self
    }

    /// Sets (or clears) the per-connection idle timeout (see
    /// [`MopEyeConfig::idle_timeout`]).
    pub fn with_idle_timeout(mut self, timeout: Option<SimDuration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the congestion controller used for loss recovery (see
    /// [`MopEyeConfig::congestion`]).
    pub fn with_congestion(mut self, congestion: CongestionAlgo) -> Self {
        self.congestion = congestion;
        self
    }

    /// Sets (or clears) the analytics epoch width (see
    /// [`MopEyeConfig::epoch_width`]).
    pub fn with_epoch_width(mut self, width: Option<SimDuration>) -> Self {
        self.epoch_width = width;
        self
    }

    /// Sets the windowed sink's live-epoch ring length (see
    /// [`MopEyeConfig::epoch_window`]). Clamped to at least 1.
    pub fn with_epoch_window(mut self, window: usize) -> Self {
        self.epoch_window = window.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_documented_ways() {
        let mop = MopEyeConfig::mopeye();
        let hay = MopEyeConfig::haystack_like();
        let naive = MopEyeConfig::naive();
        assert_eq!(mop.read_strategy, ReadStrategy::mopeye());
        assert_eq!(mop.write_scheme, WriteScheme::Queue);
        assert_eq!(mop.mapping, MappingStrategy::Lazy);
        assert!(!mop.content_inspection);
        assert_eq!(hay.mapping, MappingStrategy::Cached);
        assert!(hay.content_inspection);
        assert_eq!(hay.protect, ProtectMode::PerSocket);
        assert_eq!(naive.read_strategy, ReadStrategy::toyvpn());
        assert_eq!(naive.mapping, MappingStrategy::Eager);
        assert_eq!(MopEyeConfig::default(), mop);
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = MopEyeConfig::mopeye()
            .with_seed(99)
            .with_read_strategy(ReadStrategy::privacyguard())
            .with_write(WriteScheme::Direct, EnqueueScheme::OldPut)
            .with_mapping(MappingStrategy::Eager)
            .with_timestamp_mode(TimestampMode::SelectorNotification)
            .with_protect(ProtectMode::PerSocket);
        assert_eq!(c.seed, 99);
        assert_eq!(c.read_strategy, ReadStrategy::privacyguard());
        assert_eq!(c.write_scheme, WriteScheme::Direct);
        assert_eq!(c.enqueue_scheme, EnqueueScheme::OldPut);
        assert_eq!(c.mapping, MappingStrategy::Eager);
        assert_eq!(c.timestamp_mode, TimestampMode::SelectorNotification);
        assert_eq!(c.protect, ProtectMode::PerSocket);
    }
}
