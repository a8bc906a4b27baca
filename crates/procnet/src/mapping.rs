//! Packet-to-app mapping strategies.
//!
//! To attribute a connection to an app, the `/proc/net` tables must be parsed
//! — an operation that usually costs more than 5 ms and grows with the number
//! of live connections (Figure 5(a)). Three strategies are implemented:
//!
//! * [`EagerMapper`] — parse on every SYN, in the main packet-processing
//!   path. This is the straw-man whose overhead Figure 5(a) plots.
//! * [`CachedMapper`] — cache UID by remote endpoint, as Haystack does. Fast,
//!   but wrong whenever two apps talk to the same server endpoint (the
//!   Facebook-app vs Facebook-in-Chrome example of §3.3).
//! * [`LazyMapper`] — MopEye's mechanism (§3.3): the mapping is deferred off
//!   the critical path into the socket-connect thread, and when several
//!   connect threads need a mapping concurrently only one performs the parse
//!   while the others sleep (50 ms periods) and read its snapshot.
//!
//! All three charge the measured parse cost through the cost model (that is
//! what Figure 5 plots), but the lookups themselves run against the
//! incrementally maintained `FourTuple → uid` index on [`ConnectionTable`] —
//! amortised O(1) instead of re-rendering and re-parsing the four pseudo
//! files on every request. The text round trip itself stays covered by
//! [`crate::procfs`] and by the index-consistency test below.

use std::collections::HashMap;

use mop_packet::{Endpoint, FourTuple};
use mop_simnet::{CostModel, SimDuration, SimRng, SimTime};

use crate::table::ConnectionTable;

/// Which mapping strategy the engine is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingStrategy {
    /// Parse `/proc/net` on every SYN, synchronously.
    Eager,
    /// Cache by remote endpoint (Haystack-style).
    Cached,
    /// MopEye's lazy mapping (§3.3).
    Lazy,
}

/// The sleep period a waiting connect thread uses while another thread
/// performs the parse (§3.3).
pub const LAZY_WAIT_PERIOD: SimDuration = SimDuration::from_millis(50);

/// The result of one mapping request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingOutcome {
    /// The UID the strategy attributed the flow to, if any.
    pub uid: Option<u32>,
    /// CPU overhead this request added to its thread (what Figure 5 plots).
    pub cpu_cost: SimDuration,
    /// Wall-clock latency until the mapping was available (includes sleeps).
    pub latency: SimDuration,
    /// True if this request performed a full `/proc/net` parse.
    pub performed_parse: bool,
    /// True if this request waited for another thread's parse.
    pub waited: bool,
    /// True if the attribution matches the kernel's ground truth.
    pub correct: bool,
}

/// Aggregate statistics over many mapping requests.
#[derive(Debug, Default, Clone)]
pub struct MappingStats {
    /// Total requests served.
    pub requests: u64,
    /// Requests that performed a full parse.
    pub parses: u64,
    /// Requests that waited for another thread's parse.
    pub waits: u64,
    /// Requests served from a cache or snapshot without parsing or waiting.
    pub hits: u64,
    /// Requests whose attribution was wrong.
    pub mismapped: u64,
    /// CPU overhead samples, one per request (milliseconds).
    pub cpu_cost_ms: Vec<f64>,
}

impl MappingStats {
    /// Adds another run's counters and cost samples into this one
    /// (cross-shard aggregation).
    pub fn merge(&mut self, other: &MappingStats) {
        self.requests += other.requests;
        self.parses += other.parses;
        self.waits += other.waits;
        self.hits += other.hits;
        self.mismapped += other.mismapped;
        self.cpu_cost_ms.extend_from_slice(&other.cpu_cost_ms);
    }

    /// Records one outcome.
    pub(crate) fn record(&mut self, outcome: &MappingOutcome) {
        self.requests += 1;
        if outcome.performed_parse {
            self.parses += 1;
        } else if outcome.waited {
            self.waits += 1;
        } else {
            self.hits += 1;
        }
        if !outcome.correct {
            self.mismapped += 1;
        }
        self.cpu_cost_ms.push(outcome.cpu_cost.as_millis_f64());
    }

    /// Fraction of requests that avoided a parse (the paper's "mitigation
    /// rate"; 67.8 % in the web-browsing evaluation of §3.3).
    pub fn mitigation_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        1.0 - self.parses as f64 / self.requests as f64
    }

    /// Fraction of requests that were attributed to the wrong app.
    pub fn mismap_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.mismapped as f64 / self.requests as f64
    }
}

fn check_cost(rng: &mut SimRng) -> SimDuration {
    // A hash-map lookup plus a branch: single-digit microseconds.
    SimDuration::from_micros(rng.int_inclusive(2, 12))
}

/// Parse-on-every-SYN mapping.
#[derive(Debug, Default)]
pub struct EagerMapper {
    stats: MappingStats,
}

impl EagerMapper {
    /// Creates an eager mapper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `flow` by parsing the tables right now.
    pub fn map(
        &mut self,
        table: &ConnectionTable,
        cost_model: &CostModel,
        rng: &mut SimRng,
        flow: FourTuple,
    ) -> MappingOutcome {
        let cost = cost_model.sample_proc_parse(table.len(), rng);
        let uid = table.uid_of(flow);
        // An eager parse always observes the live table, so its attribution
        // is correct by construction; fidelity of the index against the
        // rendered `/proc/net` text is pinned by the round-trip consistency
        // test rather than re-derived on every request.
        let outcome = MappingOutcome {
            uid,
            cpu_cost: cost,
            latency: cost,
            performed_parse: true,
            waited: false,
            correct: true,
        };
        self.stats.record(&outcome);
        outcome
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MappingStats {
        &self.stats
    }
}

/// Remote-endpoint keyed cache mapping (Haystack-style).
#[derive(Debug, Default)]
pub struct CachedMapper {
    cache: HashMap<Endpoint, u32>,
    stats: MappingStats,
}

impl CachedMapper {
    /// Creates a cached mapper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `flow`, consulting the remote-endpoint cache first.
    pub fn map(
        &mut self,
        table: &ConnectionTable,
        cost_model: &CostModel,
        rng: &mut SimRng,
        flow: FourTuple,
    ) -> MappingOutcome {
        let truth = table.uid_of(flow);
        if let Some(&uid) = self.cache.get(&flow.dst) {
            let cost = check_cost(rng);
            let outcome = MappingOutcome {
                uid: Some(uid),
                cpu_cost: cost,
                latency: cost,
                performed_parse: false,
                waited: false,
                correct: Some(uid) == truth,
            };
            self.stats.record(&outcome);
            return outcome;
        }
        let cost = cost_model.sample_proc_parse(table.len(), rng);
        let uid = table.uid_index().get(&flow).copied();
        if let Some(uid) = uid {
            self.cache.insert(flow.dst, uid);
        }
        let outcome = MappingOutcome {
            uid,
            cpu_cost: cost,
            latency: cost,
            performed_parse: true,
            waited: false,
            correct: uid == truth,
        };
        self.stats.record(&outcome);
        outcome
    }

    /// Number of cached remote endpoints.
    #[cfg(test)]
    pub(crate) fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MappingStats {
        &self.stats
    }
}

/// MopEye's lazy mapping (§3.3).
///
/// Requests arrive from socket-connect threads *after* the external
/// connection has been established, so none of this work sits on the
/// handshake path. When several requests overlap in time, only the first
/// performs the parse; the others sleep in 50 ms periods and then read the
/// fresh snapshot, paying only a lookup's worth of CPU.
#[derive(Debug, Default)]
pub struct LazyMapper {
    snapshot: HashMap<FourTuple, u32>,
    snapshot_at: Option<SimTime>,
    /// Table generation the snapshot was taken at; lets a re-parse of an
    /// unchanged table skip re-copying the index.
    snapshot_generation: Option<u64>,
    parse_in_flight_until: Option<SimTime>,
    stats: MappingStats,
}

impl LazyMapper {
    /// Creates a lazy mapper with an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `flow` from a socket-connect thread.
    ///
    /// `registered_at` is when the connection appeared in the kernel table
    /// (its SYN time); `now` is the current virtual time in the connect
    /// thread, i.e. just after the external connection was established.
    pub fn map(
        &mut self,
        table: &ConnectionTable,
        cost_model: &CostModel,
        rng: &mut SimRng,
        flow: FourTuple,
        registered_at: SimTime,
        now: SimTime,
    ) -> MappingOutcome {
        let truth = table.uid_of(flow);
        // 1. A snapshot that is already available (its parse has finished)
        //    and was taken after this connection was registered contains it:
        //    answer from the snapshot.
        if let Some(at) = self.snapshot_at {
            if at >= registered_at && at <= now {
                if let Some(&uid) = self.snapshot.get(&flow) {
                    let cost = check_cost(rng);
                    let outcome = MappingOutcome {
                        uid: Some(uid),
                        cpu_cost: cost,
                        latency: cost,
                        performed_parse: false,
                        waited: false,
                        correct: Some(uid) == truth,
                    };
                    self.stats.record(&outcome);
                    return outcome;
                }
            }
        }
        // 2. Another connect thread is parsing: sleep in 50 ms periods until
        //    it finishes, then read its snapshot. The sleeps consume no CPU.
        if let Some(until) = self.parse_in_flight_until {
            if until > now {
                let wait = until - now;
                let periods = (wait.as_nanos() + LAZY_WAIT_PERIOD.as_nanos() - 1)
                    / LAZY_WAIT_PERIOD.as_nanos().max(1);
                let latency = LAZY_WAIT_PERIOD.saturating_mul(periods.max(1));
                let cost = check_cost(rng);
                // The parse that is in flight will observe the current table,
                // which includes this connection (it was registered at SYN
                // time, before the connect completed).
                let uid = table.uid_of(flow);
                let outcome = MappingOutcome {
                    uid,
                    cpu_cost: cost,
                    latency,
                    performed_parse: false,
                    waited: true,
                    correct: uid == truth,
                };
                self.stats.record(&outcome);
                return outcome;
            }
        }
        // 3. Nobody is parsing: this thread does the work and refreshes the
        //    shared snapshot. The simulated CPU cost is a full parse; the
        //    wall-clock work is a copy of the incremental index, skipped
        //    entirely when the table has not mutated since the last snapshot.
        let cost = cost_model.sample_proc_parse(table.len(), rng);
        self.parse_in_flight_until = Some(now + cost);
        if self.snapshot_generation != Some(table.generation()) {
            self.snapshot.clone_from(table.uid_index());
            self.snapshot_generation = Some(table.generation());
        }
        self.snapshot_at = Some(now + cost);
        let uid = self.snapshot.get(&flow).copied();
        let outcome = MappingOutcome {
            uid,
            cpu_cost: cost,
            latency: cost,
            performed_parse: true,
            waited: false,
            correct: uid == truth,
        };
        self.stats.record(&outcome);
        outcome
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MappingStats {
        &self.stats
    }

    /// When the current snapshot was taken, if one exists.
    #[cfg(test)]
    pub(crate) fn snapshot_age(&self, now: SimTime) -> Option<SimDuration> {
        self.snapshot_at.map(|at| now.duration_since(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::SocketStateCode;

    fn flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(31, 13, 79, 251, 443))
    }

    fn setup() -> (ConnectionTable, CostModel, SimRng) {
        let mut table = ConnectionTable::new();
        for i in 0..40u16 {
            table.register(
                flow(40000 + i),
                true,
                10_100 + u32::from(i % 7),
                SocketStateCode::SynSent,
            );
        }
        (table, CostModel::android_phone(), SimRng::seed_from_u64(5))
    }

    #[test]
    fn eager_mapper_is_correct_but_expensive() {
        let (table, cost, mut rng) = setup();
        let mut mapper = EagerMapper::new();
        let outcome = mapper.map(&table, &cost, &mut rng, flow(40003));
        assert!(outcome.correct);
        assert!(outcome.performed_parse);
        assert_eq!(outcome.uid, Some(10_103));
        assert!(outcome.cpu_cost > SimDuration::from_millis(1));
        assert_eq!(mapper.stats().requests, 1);
        assert_eq!(mapper.stats().mitigation_rate(), 0.0);
    }

    #[test]
    fn eager_mapper_misses_unknown_flows() {
        let (table, cost, mut rng) = setup();
        let mut mapper = EagerMapper::new();
        let unknown = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 1), Endpoint::v4(9, 9, 9, 9, 1));
        let outcome = mapper.map(&table, &cost, &mut rng, unknown);
        assert_eq!(outcome.uid, None);
        // None == None ground truth: not a mismap, just unknown.
        assert!(outcome.correct);
    }

    #[test]
    fn cached_mapper_hits_are_cheap_but_can_mismap() {
        let (mut table, cost, mut rng) = setup();
        let mut mapper = CachedMapper::new();
        // First request fills the cache for the Facebook endpoint from the
        // Facebook app (uid 10_100).
        let first = mapper.map(&table, &cost, &mut rng, flow(40000));
        assert!(first.performed_parse);
        assert!(first.correct);
        // Chrome (uid 20_000) now connects to the same remote endpoint.
        let chrome_flow = flow(41000);
        table.register(chrome_flow, true, 20_000, SocketStateCode::SynSent);
        let second = mapper.map(&table, &cost, &mut rng, chrome_flow);
        assert!(!second.performed_parse);
        assert!(second.cpu_cost < SimDuration::from_millis(1));
        // The cache attributes Chrome's traffic to the Facebook app.
        assert_eq!(second.uid, Some(10_100));
        assert!(!second.correct);
        assert!(mapper.stats().mismap_rate() > 0.0);
        assert_eq!(mapper.cache_len(), 1);
    }

    #[test]
    fn lazy_mapper_first_request_parses() {
        let (table, cost, mut rng) = setup();
        let mut mapper = LazyMapper::new();
        let t0 = SimTime::from_millis(100);
        let outcome =
            mapper.map(&table, &cost, &mut rng, flow(40001), SimTime::from_millis(50), t0);
        assert!(outcome.performed_parse);
        assert!(outcome.correct);
        assert!(outcome.cpu_cost > SimDuration::from_millis(1));
    }

    #[test]
    fn lazy_mapper_concurrent_requests_wait_instead_of_parsing() {
        let (table, cost, mut rng) = setup();
        let mut mapper = LazyMapper::new();
        let t0 = SimTime::from_millis(100);
        let first = mapper.map(&table, &cost, &mut rng, flow(40001), SimTime::from_millis(50), t0);
        assert!(first.performed_parse);
        // A second connect thread needs a mapping 1 ms later, while the first
        // parse is still in flight.
        let t1 = t0 + SimDuration::from_millis(1);
        let second = mapper.map(&table, &cost, &mut rng, flow(40002), SimTime::from_millis(51), t1);
        assert!(!second.performed_parse);
        assert!(second.waited);
        assert!(second.correct);
        // CPU overhead is negligible even though latency includes the sleep.
        assert!(second.cpu_cost < SimDuration::from_millis(1));
        assert!(second.latency >= LAZY_WAIT_PERIOD);
        assert_eq!(mapper.stats().parses, 1);
        assert_eq!(mapper.stats().waits, 1);
        assert!(mapper.stats().mitigation_rate() > 0.4);
    }

    #[test]
    fn lazy_mapper_snapshot_serves_later_requests_without_parsing() {
        let (table, cost, mut rng) = setup();
        let mut mapper = LazyMapper::new();
        let t0 = SimTime::from_millis(100);
        mapper.map(&table, &cost, &mut rng, flow(40001), SimTime::from_millis(50), t0);
        // Much later, a connection that was already registered before the
        // snapshot asks for its mapping: served from the snapshot.
        let t1 = SimTime::from_millis(400);
        let outcome =
            mapper.map(&table, &cost, &mut rng, flow(40010), SimTime::from_millis(60), t1);
        assert!(!outcome.performed_parse);
        assert!(!outcome.waited);
        assert!(outcome.correct);
        assert!(mapper.snapshot_age(t1).is_some());
    }

    #[test]
    fn lazy_mapper_new_connection_after_snapshot_triggers_fresh_parse() {
        let (mut table, cost, mut rng) = setup();
        let mut mapper = LazyMapper::new();
        let t0 = SimTime::from_millis(100);
        mapper.map(&table, &cost, &mut rng, flow(40001), SimTime::from_millis(50), t0);
        // A brand-new connection registered *after* the snapshot cannot be in
        // it, so once the in-flight parse has finished a new parse happens.
        let new_flow = flow(42000);
        table.register(new_flow, true, 30_000, SocketStateCode::SynSent);
        let t1 = SimTime::from_secs(2);
        let outcome = mapper.map(&table, &cost, &mut rng, new_flow, SimTime::from_secs(1), t1);
        assert!(outcome.performed_parse);
        assert_eq!(outcome.uid, Some(30_000));
        assert!(outcome.correct);
        assert_eq!(mapper.stats().parses, 2);
    }

    #[test]
    fn stats_mitigation_matches_paper_scenario_shape() {
        // Simulate a browsing burst: groups of connect threads arriving close
        // together. Within each burst only the first should parse.
        let (mut table, cost, mut rng) = setup();
        let mut mapper = LazyMapper::new();
        let mut port = 43_000u16;
        for burst in 0..40u64 {
            let burst_start = SimTime::from_millis(500 * burst);
            for i in 0..12u64 {
                let f = flow(port);
                port += 1;
                table.register(f, true, 10_100, SocketStateCode::SynSent);
                let registered = burst_start;
                let now = burst_start + SimDuration::from_millis(30 + i);
                mapper.map(&table, &cost, &mut rng, f, registered, now);
            }
        }
        let stats = mapper.stats();
        assert_eq!(stats.requests, 480);
        // The paper reports a 67.8 % mitigation rate for web browsing; the
        // synthetic burst pattern should land in the same region.
        assert!(stats.mitigation_rate() > 0.5, "mitigation {}", stats.mitigation_rate());
        assert!(stats.mismap_rate() == 0.0);
        assert_eq!(stats.cpu_cost_ms.len(), 480);
    }

    #[test]
    fn empty_stats_rates_are_zero() {
        let stats = MappingStats::default();
        assert_eq!(stats.mitigation_rate(), 0.0);
        assert_eq!(stats.mismap_rate(), 0.0);
    }

    /// The incremental index the mappers consult must stay byte-for-byte
    /// consistent with what a full render → parse round trip of the four
    /// `/proc/net` pseudo files would produce (the work the old eager path
    /// performed on every SYN).
    #[test]
    fn incremental_index_matches_full_proc_net_rebuild() {
        use crate::procfs::{parse_proc_net, render_proc_net};
        use crate::table::Protocol;

        fn full_rebuild(table: &ConnectionTable) -> HashMap<FourTuple, u32> {
            let mut map = HashMap::new();
            for protocol in [Protocol::Tcp6, Protocol::Tcp, Protocol::Udp, Protocol::Udp6] {
                let file = render_proc_net(table, protocol);
                for entry in parse_proc_net(&file) {
                    map.entry(FourTuple::new(entry.local, entry.remote)).or_insert(entry.uid);
                }
            }
            map
        }

        let (mut table, _, _) = setup();
        let gen_after_setup = table.generation();
        assert_eq!(*table.uid_index(), full_rebuild(&table));
        // Mutations keep the index in sync: removal, re-registration, UDP and
        // state changes (which must NOT bump the generation).
        assert!(table.remove(flow(40003)));
        table.register(flow(40003), true, 99_000, SocketStateCode::SynSent);
        let udp_flow =
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 5353), Endpoint::v4(8, 8, 8, 8, 53));
        table.register(udp_flow, false, 77_000, SocketStateCode::Close);
        assert_eq!(*table.uid_index(), full_rebuild(&table));
        assert!(table.generation() > gen_after_setup);
        let gen_before_state = table.generation();
        table.set_state(flow(40001), SocketStateCode::Established);
        assert_eq!(table.generation(), gen_before_state, "state changes keep ownership");
        assert_eq!(*table.uid_index(), full_rebuild(&table));
    }
}
