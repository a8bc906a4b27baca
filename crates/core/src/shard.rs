//! The sharded multi-worker relay engine.
//!
//! A single [`MopEyeEngine`] is one event loop — one core, no matter how fast
//! the per-packet code is. [`FleetEngine`] scales the relay out the way a
//! production deployment would: every connection four-tuple is hashed
//! ([`mop_packet::FourTuple::stable_hash`]) to one of N *shards*, and each
//! shard is a complete engine of its own — its own event loop, buffer pool,
//! TCP machine set, connection table and simulated network. Shard 0 runs on
//! the thread that called the fleet; shards 1..N each run on a worker
//! thread of their own.
//!
//! ```text
//!                      ┌────────────▶ shard 0 ───────────────┐
//!  TUN ingress ── hash ┼─ job ring ─▶ shard 1 ─ report ring ─┼─▶ merge
//!  (calling thread)    └─ job ring ─▶ shard N ─ report ring ─┘
//! ```
//!
//! A run splits its flows by shard into one exact-capacity vector per
//! shard. Each worker shard gets exactly one job per run — the network
//! builder and its flows — on a one-slot [`mop_simnet::spsc`] ring, and
//! returns exactly one report on another. A worker can run nothing before it
//! has all of its flows, so there is nothing to overlap by sending them in
//! pieces, and with one message each way per run neither ring can ever be
//! full: the dispatcher never waits to send. (`TunStats::dispatch_stalls`
//! and `RelayStats::sink_stalls` therefore stay zero.) The OS places the
//! worker threads.
//!
//! In steady state nothing on the path allocates per packet: the rings are
//! pre-allocated, each shard's packet loop runs on its own tunnel-packet
//! buffer pools (server data travels as byte counts), the state machines
//! and app endpoints emit into buffers their stage owns, and the CPU ledger
//! is a pair of fixed arrays. A warm shard allocates per flow and per loss
//! event; `crates/bench/tests/zero_alloc_engine.rs` holds an engine to that.
//!
//! # Determinism
//!
//! Every shard builds its network flow-keyed
//! ([`SimNetworkBuilder::flow_keyed`]), and an engine takes its keying from
//! the network it runs over: every flow's RNG streams, link reservations,
//! writer-queue lane and source endpoint are pure functions of
//! `(seed, four-tuple)`. A flow's timeline is therefore identical no matter
//! which shard executes it — so the *merged* report is identical for 1, 2
//! or 8 shards, bit for bit, which [`FleetReport::digest`] makes checkable
//! in one comparison.
//!
//! # Scaling
//!
//! Sharding scales host work, not the simulation. A MainWorker's
//! per-packet costs are charged to its shard's CPU ledger and never delay
//! the relay in virtual time, so the merged report — finish time included —
//! is the same at every shard count (see above). What N shards buy is wall
//! clock: N event loops on N threads, which the benchmark's
//! `core.shard_scaling_2v1` measures.
//!
//! # Residency
//!
//! The worker protocol lives in [`ResidentFleet`]: the threads of shards
//! 1..N are spawned **once**, park on their job rings between runs, and take
//! one job per run — each builds the run's flow-keyed network, resets the
//! shard's engine onto it in place ([`MopEyeEngine::reset`]: pools, rings,
//! wheel slabs and stage tables cleared, not dropped) and runs the flows, so
//! the steady state of a long-lived fleet spawns no threads and re-allocates
//! none of its machinery. Once the workers have their jobs,
//! [`ResidentFleet::run_next`] does the same for shard 0 on the calling
//! thread while the workers run theirs. A one-shard fleet is the same code
//! with no workers: it spawns no thread and a run pays no wake-up, which on
//! a small step costs more than the flows. [`FleetEngine::run`] is the
//! one-shot form: it builds a resident fleet, runs a single batch and tears
//! it down, so both paths share one dispatch/merge implementation and reuse
//! is observationally invisible by construction (checked bit-for-bit by
//! `tests/resident_reuse.rs`).

use std::cmp::Ordering;
use std::mem;
use std::net::IpAddr;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use mop_simnet::{spsc_channel, SimNetworkBuilder, SimTime, SpscReceiver, SpscSender};
use mop_tun::FlowSpec;
use mop_packet::{Endpoint, FourTuple, WordHasher};

use crate::config::MopEyeConfig;
use crate::engine::{MopEyeEngine, RunReport};
use crate::report::Counters;
use crate::stats::{FlowOutcome, RttSample, SampleKind};

/// Configuration of a [`FleetEngine`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards: shard 0 runs on the calling thread, each other one
    /// on a worker thread. Clamped to at least 1.
    pub shards: usize,
    /// The per-shard engine configuration. Each shard runs it over a
    /// flow-keyed copy of the fleet's network, which is what makes the
    /// sharded merge well-defined.
    pub engine: MopEyeConfig,
}

impl FleetConfig {
    /// A fleet of `shards` relay workers running the released MopEye
    /// configuration with a generous event budget.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            engine: MopEyeConfig::mopeye().with_max_events(u64::MAX),
        }
    }

    /// Sets the engine seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.engine = self.engine.with_seed(seed);
        self
    }

    /// Selects the congestion-control algorithm every shard's loss recovery
    /// runs (see [`MopEyeConfig::congestion`]). Only consulted on networks
    /// that inject data-path faults.
    pub fn with_congestion(mut self, congestion: mop_tcpstack::CongestionAlgo) -> Self {
        self.engine = self.engine.with_congestion(congestion);
        self
    }

    /// Enables windowed per-epoch aggregation on every shard sink (see
    /// [`MopEyeConfig::epoch_width`] and [`MopEyeConfig::epoch_window`]):
    /// samples are stamped into `width`-wide epochs, with `window` epochs
    /// live before folding into the tail. The merged report then carries
    /// `RunReport::windows` and the fleet digest folds it in.
    pub fn with_epochs(mut self, width: mop_simnet::SimDuration, window: usize) -> Self {
        self.engine = self.engine.with_epoch_width(Some(width)).with_epoch_window(window);
        self
    }
}

/// What one shard did during a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// Connections hashed to this shard.
    pub flows_assigned: usize,
    /// Events the shard's loop processed.
    pub events_processed: u64,
    /// Virtual time at which the shard drained its last event.
    pub finished_at: SimTime,
    /// RTT samples the shard produced.
    pub samples: usize,
    /// The shard engine's structure counters.
    pub counters: Counters,
}

/// The merged result of a fleet run plus the per-shard breakdown.
#[derive(Debug)]
pub struct FleetReport {
    /// Shard count the run used.
    pub shards: usize,
    /// The cross-shard merge: samples and flows in canonical order, counters
    /// summed, `finished_at` the maximum over shards. Over flow-keyed
    /// networks this is identical for every shard count.
    pub merged: RunReport,
    /// Per-shard outcomes, ordered by shard index.
    pub per_shard: Vec<ShardOutcome>,
}

impl FleetReport {
    /// A stable 64-bit digest of the merged report's semantic content
    /// ([`RunReport::fleet_digest`]: samples and flow outcomes as a
    /// multiset, relay and TUN counters, finish time, event count, sketch
    /// digests). Two runs are behaviourally identical iff their digests
    /// match — the one-line determinism check.
    pub fn digest(&self) -> u64 {
        self.merged.fleet_digest()
    }

    /// Aggregate relay goodput over the whole fleet: response bytes
    /// delivered to apps divided by the busy interval, in Mbit/s.
    pub fn relay_throughput_mbps(&self) -> Option<f64> {
        self.merged.download_goodput_mbps()
    }
}

/// The sharded multi-worker relay engine. See the [module docs](self).
#[derive(Debug)]
pub struct FleetEngine {
    config: FleetConfig,
    net_builder: SimNetworkBuilder,
}

impl FleetEngine {
    /// Creates a fleet over the network described by `net_builder` (each
    /// shard builds its own copy, switched to flow-keyed mode).
    pub fn new(mut config: FleetConfig, net_builder: SimNetworkBuilder) -> Self {
        config.shards = config.shards.max(1);
        Self { config, net_builder }
    }

    /// The fleet configuration.
    pub(crate) fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shard a flow spec is dispatched to: a stable hash of its
    /// four-tuple modulo the shard count.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no pre-assigned source endpoint — fleet flows
    /// must carry one (scenario generators do), because the four-tuple *is*
    /// the shard key.
    pub(crate) fn shard_of(spec: &FlowSpec, shards: usize) -> usize {
        let src = spec
            .src
            .expect("fleet flows must pre-assign FlowSpec::src (the four-tuple is the shard key)");
        (FourTuple::new(src, spec.dst).stable_hash() % shards.max(1) as u64) as usize
    }

    /// Runs `flows` across the shards to completion and merges the results.
    ///
    /// This is the **cold** path: it spawns a [`ResidentFleet`] for the one
    /// run and tears it down afterwards, paying thread spawns and engine
    /// construction every call. A caller stepping many batches should hold
    /// a resident fleet and call [`ResidentFleet::run_next`] instead — the
    /// result is bit-identical, only the wall clock differs.
    pub fn run(&self, flows: Vec<FlowSpec>) -> FleetReport {
        ResidentFleet::new(self.config.clone()).run_next(&self.net_builder, flows)
    }
}

/// Points a shard's engine at a flow-keyed build of `builder`: resets it in
/// place, or constructs it on the shard's first run. Every shard, the one on
/// the calling thread included, begins its runs here.
fn begin_run<'a>(
    engine: &'a mut Option<MopEyeEngine>,
    config: &MopEyeConfig,
    builder: SimNetworkBuilder,
) -> &'a mut MopEyeEngine {
    let net = builder.flow_keyed().build();
    match engine {
        Some(engine) => {
            engine.reset(net);
            engine
        }
        None => engine.insert(MopEyeEngine::new(config.clone(), net)),
    }
}

/// The resident shard worker: parks on its job ring between runs, runs each
/// job — one per run — on the engine it keeps (with every allocation inside
/// it) across runs, and exits when the ring closes.
fn spawn_worker(
    engine_config: MopEyeConfig,
    jobs: SpscReceiver<(SimNetworkBuilder, Vec<FlowSpec>)>,
    reports: SpscSender<RunReport>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut engine: Option<MopEyeEngine> = None;
        while let Some((builder, flows)) = jobs.recv() {
            let report = begin_run(&mut engine, &engine_config, builder).run_flows(flows);
            let _ = reports.send(report);
        }
    })
}

/// The dispatcher's end of one worker shard (shards 1..N): its two
/// one-slot rings and its thread.
struct Worker {
    jobs: SpscSender<(SimNetworkBuilder, Vec<FlowSpec>)>,
    reports: SpscReceiver<RunReport>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn(engine_config: MopEyeConfig) -> Self {
        // One job in and one report out per run, and `run_next` takes the
        // report before it sends the next job: one slot each is all it takes.
        let (job_tx, job_rx) = spsc_channel(1);
        let (report_tx, report_rx) = spsc_channel(1);
        Self {
            thread: Some(spawn_worker(engine_config, job_rx, report_tx)),
            jobs: job_tx,
            reports: report_rx,
        }
    }
}

/// A fleet whose shard workers outlive any single run. See the
/// [module docs](self) — `# Residency`.
///
/// Construction spawns the worker threads of shards 1..N (none for one
/// shard); [`ResidentFleet::run_next`] then feeds them successive flow
/// batches, runs shard 0 itself, and resets each shard's engine in place
/// per run. Dropping the fleet closes the job rings, which parks the
/// workers out of their loops and joins them.
pub struct ResidentFleet {
    config: FleetConfig,
    /// Shard 0's engine, driven on the thread that calls `run_next`;
    /// `None` until the first run.
    local: Option<MopEyeEngine>,
    /// Shards 1..N, in shard order.
    workers: Vec<Worker>,
    runs: u64,
}

impl std::fmt::Debug for ResidentFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentFleet")
            .field("shards", &self.config.shards)
            .field("threads_spawned", &self.threads_spawned())
            .field("runs", &self.runs)
            .finish_non_exhaustive()
    }
}

impl ResidentFleet {
    /// Spawns the workers of shards 1..N (once, for the fleet's whole
    /// lifetime) and leaves them parked on their job rings. Shard 0 needs
    /// no thread: it runs on whichever thread calls
    /// [`ResidentFleet::run_next`].
    pub fn new(mut config: FleetConfig) -> Self {
        config.shards = config.shards.max(1);
        let workers = (1..config.shards).map(|_| Worker::spawn(config.engine.clone())).collect();
        Self { config, local: None, workers, runs: 0 }
    }

    /// Worker threads ever spawned: one per shard but the first, so none
    /// for a one-shard fleet. Constant after construction;
    /// `tests/resident_reuse.rs` asserts it stays so across warm runs.
    pub fn threads_spawned(&self) -> u64 {
        self.workers.len() as u64
    }

    /// Completed [`ResidentFleet::run_next`] calls.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs one flow batch over the network `net_builder` describes and
    /// merges the shard results — bit-identical to
    /// `FleetEngine::new(config, net_builder).run(flows)`, but reusing the
    /// parked workers and every engine: no thread spawns, and the pools,
    /// rings, wheel slabs and stage tables inside each engine are cleared
    /// rather than dropped between runs.
    ///
    /// The workers get their flows first; shard 0's then run here, on the
    /// calling thread, while the workers run theirs. A panic in shard 0
    /// unwinds out of this call, as a worker's panic does; after a worker's
    /// panic, every later call panics with "hung up".
    pub fn run_next(&mut self, net_builder: &SimNetworkBuilder, flows: Vec<FlowSpec>) -> FleetReport {
        // A worker that died in an earlier run refuses every later run
        // before any job goes out: otherwise the live workers' reports pile
        // up unread until a job to one of them waits forever.
        if let Some(dead) = self.workers.iter().position(|worker| worker.thread.is_none()) {
            self.propagate_worker_death(dead);
        }
        let shards = self.config.shards;
        // The TUN ingress: hash each four-tuple once, count every shard's
        // connections, then move each flow into its shard's exact-capacity
        // vector.
        let assignment: Vec<usize> =
            flows.iter().map(|spec| FleetEngine::shard_of(spec, shards)).collect();
        let mut flows_assigned = vec![0usize; shards];
        for &shard in &assignment {
            flows_assigned[shard] += 1;
        }
        let mut split: Vec<Vec<FlowSpec>> =
            flows_assigned.iter().map(|&count| Vec::with_capacity(count)).collect();
        for (spec, shard) in flows.into_iter().zip(assignment) {
            split[shard].push(spec);
        }
        // One job per worker; shard 0's connections stay on this thread.
        let mut split = split.into_iter();
        let local_flows = split.next().expect("a fleet has at least one shard");
        for (worker, shard_flows) in split.enumerate() {
            if self.workers[worker].jobs.send((net_builder.clone(), shard_flows)).is_err() {
                self.propagate_worker_death(worker);
            }
        }

        let local = catch_unwind(AssertUnwindSafe(|| {
            begin_run(&mut self.local, &self.config.engine, net_builder.clone()).run_flows(local_flows)
        }));
        let local = match local {
            Ok(report) => report,
            Err(payload) => {
                // Leave the fleet usable: take the workers' reports off
                // their rings and rebuild shard 0's engine next run.
                self.local = None;
                for worker in &self.workers {
                    worker.reports.recv();
                }
                resume_unwind(payload)
            }
        };
        let mut shard_reports: Vec<RunReport> = Vec::with_capacity(shards);
        shard_reports.push(local);
        for worker in 0..self.workers.len() {
            match self.workers[worker].reports.recv() {
                Some(report) => shard_reports.push(report),
                None => self.propagate_worker_death(worker),
            }
        }
        self.runs += 1;

        // Even the first shard report is copied into an empty one, not
        // moved: with it moved, a batch caller's later reads of the merged
        // report (checkpoint encoding, report rendering) measured slower,
        // walking the sketch maps the shard grew one observation at a time
        // instead of a fresh copy.
        let mut merged = RunReport::empty();
        let mut per_shard = Vec::with_capacity(shards);
        for (shard, report) in shard_reports.into_iter().enumerate() {
            per_shard.push(ShardOutcome {
                shard,
                flows_assigned: flows_assigned[shard],
                events_processed: report.events_processed,
                finished_at: report.finished_at,
                samples: report.samples.len(),
                counters: report.counters,
            });
            merged.absorb(report);
        }
        merged.canonicalise();
        FleetReport { shards, merged, per_shard }
    }

    /// A closed ring means the worker exited early — join it so its panic
    /// (the only way out of the loop while senders are live) surfaces with
    /// its own message rather than a generic "hung up".
    fn propagate_worker_death(&mut self, worker: usize) -> ! {
        if let Some(thread) = self.workers[worker].thread.take() {
            if let Err(payload) = thread.join() {
                resume_unwind(payload);
            }
        }
        panic!("resident shard {} worker hung up", worker + 1);
    }
}

impl Drop for ResidentFleet {
    fn drop(&mut self) {
        // Dropping each worker but its thread handle closes its rings, and
        // the threads fall out of their loops; then join them.
        let threads: Vec<JoinHandle<()>> =
            self.workers.drain(..).filter_map(|worker| worker.thread).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl RunReport {
    /// An all-zero report, the identity element of [`RunReport::absorb`].
    pub fn empty() -> Self {
        Self {
            samples: Vec::new(),
            aggregates: Default::default(),
            windows: None,
            relay: Default::default(),
            mapping: Default::default(),
            tun: Default::default(),
            ledger: Default::default(),
            buffer_pool: Default::default(),
            socket_read_pool: Default::default(),
            flows: Vec::new(),
            finished_at: SimTime::ZERO,
            events_processed: 0,
            events_scheduled: 0,
            counters: Default::default(),
        }
    }

    /// Merges another (shard's) report into this one: samples and flows are
    /// concatenated, aggregate sketches merged cell-wise, counters summed,
    /// `finished_at` maximised. Call [`RunReport::canonicalise`] after the
    /// last merge.
    ///
    /// # Ordering contract
    ///
    /// Like `MeasurementStore::merge_from`, the sample and flow vectors are
    /// **appended** in merge order and only become canonical after
    /// [`RunReport::canonicalise`]. The aggregate sketches need no such
    /// step: their merge is integral and commutative, so they are already
    /// bit-identical for any merge order. When both reports are already
    /// canonical, [`RunReport::absorb_canonical`] gives the same result
    /// without the sort.
    pub fn absorb(&mut self, other: RunReport) {
        self.samples.extend(other.samples);
        self.aggregates.merge_from(&other.aggregates);
        match (&mut self.windows, other.windows) {
            (Some(mine), Some(theirs)) => mine.merge_from(&theirs),
            (mine @ None, Some(theirs)) => *mine = Some(theirs),
            _ => {}
        }
        self.relay.merge(&other.relay);
        self.mapping.merge(&other.mapping);
        self.tun.merge(&other.tun);
        self.ledger.merge(&other.ledger);
        self.buffer_pool.merge(&other.buffer_pool);
        self.flows.extend(other.flows);
        self.finished_at = self.finished_at.max(other.finished_at);
        self.events_processed += other.events_processed;
        self.events_scheduled += other.events_scheduled;
        self.counters.merge(&other.counters);
    }

    /// [`RunReport::absorb`] then [`RunReport::canonicalise`], element for
    /// element, for two reports that are both canonical already: `other`'s
    /// samples and flows are merged into this report's in place. Each
    /// insertion point is a binary search; every element after the first
    /// one moves once, into the vectors' own capacity. Ties keep this
    /// report's element first, as the stable sort does. What a long-lived
    /// owner calls per delta, so the cost follows the delta, not the
    /// history: O(moved + delta × log history) instead of a sort.
    pub fn absorb_canonical(&mut self, mut other: RunReport) {
        merge_sorted(&mut self.samples, mem::take(&mut other.samples), sample_order, sample_hole);
        merge_sorted(&mut self.flows, mem::take(&mut other.flows), flow_order, flow_hole);
        self.absorb(other);
    }

    /// Sorts samples and flow outcomes into their canonical order
    /// (samples by measurement time, flows by start time; then the
    /// four-tuple, then every other field the digest covers), so equal
    /// multisets produce equal reports regardless of how
    /// they were partitioned or in which order they were absorbed —
    /// outcomes of co-injected scenarios can share a four-tuple.
    pub fn canonicalise(&mut self) {
        self.samples.sort_by(sample_order);
        self.flows.sort_by(flow_order);
    }

    /// A stable digest over the report's semantic content: every RTT sample
    /// and every flow outcome (as a multiset, see [`OutcomeFold`]), the
    /// relay counters, the TUN counters, the finish time, the event count
    /// and the aggregate sketches. The order of `samples` and `flows` does
    /// not matter, so the digest is the same before and after
    /// [`RunReport::canonicalise`].
    ///
    /// Resource *accounting* (CPU ledger, pool statistics, mapping cost
    /// samples) is deliberately excluded: how much a
    /// shard's `/proc/net` parse cost or how many buffers a pool pre-grew
    /// depends on which flows were co-resident, which is partition-specific
    /// bookkeeping, not relay behaviour.
    pub fn fleet_digest(&self) -> u64 {
        self.fleet_digest_with(&OutcomeFold::of(self))
    }

    /// [`RunReport::fleet_digest`] with the sample and flow multisets
    /// already folded: `fold` must equal `OutcomeFold::of(self)`. An owner
    /// that keeps the fold as it absorbs digests in O(sketch cells) instead
    /// of O(every record).
    pub fn fleet_digest_with(&self, fold: &OutcomeFold) -> u64 {
        let mut h = WordHasher::new();
        h.write_u64(fold.samples);
        h.write_u64(fold.sample_sum);
        for c in [
            self.relay.syns,
            self.relay.connects_ok,
            self.relay.connects_failed,
            self.relay.data_segments_out,
            self.relay.data_segments_in,
            self.relay.pure_acks_discarded,
            self.relay.fins,
            self.relay.rsts,
            self.relay.udp_datagrams,
            self.relay.dns_queries,
            self.relay.bytes_out,
            self.relay.bytes_in,
            self.relay.parse_errors,
        ] {
            h.write_u64(c);
        }
        h.write_u64(fold.flows);
        h.write_u64(fold.flow_sum);
        for c in [
            self.tun.packets_from_apps,
            self.tun.bytes_from_apps,
            self.tun.packets_to_apps,
            self.tun.bytes_to_apps,
        ] {
            h.write_u64(c);
        }
        h.write_u64(self.finished_at.as_nanos());
        h.write_u64(self.events_processed);
        // The streaming aggregates are part of the run's semantic content:
        // their own digest is canonical (BTreeMap order, integral sketches),
        // so folding it in keeps the fleet digest shard-count-invariant.
        h.write_u64(self.aggregates.digest());
        // Windowed epoch aggregates join the digest only when the run
        // enabled them; the windowed merge is partition-invariant like the
        // flat one, so this stays shard-count-invariant too.
        if let Some(windows) = &self.windows {
            h.write_u64(windows.digest());
        }
        h.finish()
    }
}

/// The order-free part of [`RunReport::fleet_digest`]: each RTT sample and
/// each flow outcome is hashed on its own ([`WordHasher`]), and the hashes
/// are summed (wrapping) beside a count, per kind of record. Equal
/// multisets fold equal whatever their order or partition; a duplicated
/// record moves both the count and the sum. Folding a report that absorbed
/// another is [`OutcomeFold::absorb`] of the two folds, so an owner that
/// sees every [`RunReport::absorb`] keeps its report's fold in O(delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeFold {
    samples: u64,
    sample_sum: u64,
    flows: u64,
    flow_sum: u64,
}

impl OutcomeFold {
    /// Folds every sample and flow outcome of `report`.
    pub fn of(report: &RunReport) -> Self {
        let sample_sum = report.samples.iter().fold(0u64, |sum, s| sum.wrapping_add(sample_hash(s)));
        let flow_sum = report.flows.iter().fold(0u64, |sum, f| sum.wrapping_add(flow_hash(f)));
        Self {
            samples: report.samples.len() as u64,
            sample_sum,
            flows: report.flows.len() as u64,
            flow_sum,
        }
    }

    /// Adds another fold's records: afterwards `self` is the fold of the
    /// report that absorbed `other`'s report.
    pub fn absorb(&mut self, other: OutcomeFold) {
        self.samples = self.samples.wrapping_add(other.samples);
        self.sample_sum = self.sample_sum.wrapping_add(other.sample_sum);
        self.flows = self.flows.wrapping_add(other.flows);
        self.flow_sum = self.flow_sum.wrapping_add(other.flow_sum);
    }
}

/// One sample's hash: every field of it the digest covers.
fn sample_hash(s: &RttSample) -> u64 {
    let mut h = WordHasher::new();
    h.write_u64(u64::from(sample_kind_tag(s.kind)));
    write_tuple(&mut h, &s.flow);
    h.write_u64(u64::from(s.uid.unwrap_or(u32::MAX)));
    h.write_str(s.package.as_deref().unwrap_or(""));
    h.write_str(s.domain.as_deref().unwrap_or(""));
    h.write_f64(s.measured_ms);
    h.write_f64(s.true_ms);
    h.write_f64(s.tcpdump_ms.unwrap_or(f64::NEG_INFINITY));
    h.write_u64(s.at.as_nanos());
    h.finish()
}

/// One flow outcome's hash: every field of it the digest covers.
fn flow_hash(f: &FlowOutcome) -> u64 {
    let mut h = WordHasher::new();
    write_tuple(&mut h, &f.flow);
    h.write_str(&f.package);
    h.write_u64(f.started_at.as_nanos());
    h.write_u64(f.finished_at.as_nanos());
    h.write_u64(f.bytes_received as u64);
    h.write_u64(u64::from(f.completed));
    h.finish()
}

/// A four-tuple as digest words: per endpoint, one word with the address
/// family (bits 48..), the IPv4 address (bits 16..48) and the port, and an
/// IPv6 address as two more words.
fn write_tuple(h: &mut WordHasher, flow: &FourTuple) {
    for endpoint in [&flow.src, &flow.dst] {
        let port = u64::from(endpoint.port);
        match endpoint.addr {
            IpAddr::V4(v4) => h.write_u64(4 << 48 | u64::from(u32::from(v4)) << 16 | port),
            IpAddr::V6(v6) => {
                let bits = u128::from(v6);
                h.write_u64(6 << 48 | port);
                h.write_u64(bits as u64);
                h.write_u64((bits >> 64) as u64);
            }
        }
    }
}

/// Merges `delta` into `into`, both sorted by `order`, leaving `into` as a
/// stable sort of `into ++ delta` would. Works backwards from the end:
/// `into` grows by `delta.len()` placeholder slots (`hole`), then each
/// delta element, last first, finds by binary search the run of `into`
/// that sorts after it, and that run and the element move into the tail.
/// Every moved element moves once; no buffer the size of `into` is made.
fn merge_sorted<T>(
    into: &mut Vec<T>,
    mut delta: Vec<T>,
    order: fn(&T, &T) -> Ordering,
    hole: fn() -> T,
) {
    let sorted = |v: &[T]| v.windows(2).all(|w| order(&w[0], &w[1]) != Ordering::Greater);
    debug_assert!(sorted(into) && sorted(&delta), "absorb_canonical needs canonical reports");
    if into.is_empty() {
        *into = delta;
        return;
    }
    // `into[..unplaced]` has not moved yet, `into[unplaced..write]` are
    // placeholders, `into[write..]` is final.
    let mut unplaced = into.len();
    into.resize_with(unplaced + delta.len(), hole);
    let mut write = into.len();
    while let Some(next) = delta.pop() {
        let stays = into[..unplaced].partition_point(|c| order(c, &next) != Ordering::Greater);
        for from in (stays..unplaced).rev() {
            write -= 1;
            into.swap(from, write);
        }
        unplaced = stays;
        write -= 1;
        into[write] = next;
    }
}

/// A placeholder sample for [`merge_sorted`]: allocates nothing.
fn sample_hole() -> RttSample {
    let nowhere = Endpoint::v4(0, 0, 0, 0, 0);
    RttSample {
        kind: SampleKind::Tcp,
        flow: FourTuple::new(nowhere, nowhere),
        uid: None,
        package: None,
        domain: None,
        measured_ms: 0.0,
        true_ms: 0.0,
        tcpdump_ms: None,
        at: SimTime::ZERO,
    }
}

/// A placeholder flow outcome for [`merge_sorted`]: allocates nothing.
fn flow_hole() -> FlowOutcome {
    let nowhere = Endpoint::v4(0, 0, 0, 0, 0);
    FlowOutcome {
        flow: FourTuple::new(nowhere, nowhere),
        package: String::new(),
        started_at: SimTime::ZERO,
        finished_at: SimTime::ZERO,
        bytes_received: 0,
        completed: false,
    }
}

/// The canonical sample order: measurement time, flow and kind, then every
/// other field the digest covers (floats by `total_cmp`).
fn sample_order(a: &RttSample, b: &RttSample) -> Ordering {
    a.at.cmp(&b.at)
        .then_with(|| a.flow.cmp(&b.flow))
        .then_with(|| sample_kind_tag(a.kind).cmp(&sample_kind_tag(b.kind)))
        .then_with(|| a.uid.cmp(&b.uid))
        .then_with(|| a.package.cmp(&b.package))
        .then_with(|| a.domain.cmp(&b.domain))
        .then_with(|| a.measured_ms.total_cmp(&b.measured_ms))
        .then_with(|| a.true_ms.total_cmp(&b.true_ms))
        .then_with(|| match (a.tcpdump_ms, b.tcpdump_ms) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (x, y) => x.is_some().cmp(&y.is_some()),
        })
}

/// The canonical flow order: start time, then the four-tuple, then every
/// other field the digest covers. Start time first makes a stepped owner's
/// merge an append: every flow a step runs starts after the flows earlier
/// steps ran (up to the relay's connect latency), so
/// [`RunReport::absorb_canonical`]'s insertion points land at the end.
fn flow_order(a: &FlowOutcome, b: &FlowOutcome) -> Ordering {
    a.started_at
        .cmp(&b.started_at)
        .then_with(|| a.flow.cmp(&b.flow))
        .then_with(|| a.package.cmp(&b.package))
        .then_with(|| a.finished_at.cmp(&b.finished_at))
        .then_with(|| a.bytes_received.cmp(&b.bytes_received))
        .then_with(|| a.completed.cmp(&b.completed))
}

fn sample_kind_tag(kind: SampleKind) -> u8 {
    match kind {
        SampleKind::Tcp => 0,
        SampleKind::Dns => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_simnet::SimNetwork;
    use mop_tun::FlowKind;

    fn fleet_flows(n: usize) -> Vec<FlowSpec> {
        (0..n)
            .map(|i| {
                let user = i as u32;
                let src = Endpoint::v4(
                    10,
                    (user >> 16) as u8,
                    (user >> 8) as u8,
                    user as u8,
                    40_000 + (i % 1000) as u16,
                );
                FlowSpec {
                    at: SimTime::from_millis(5 + (i as u64 * 7) % 2000),
                    uid: 10_100 + (user % 7),
                    package: format!("com.fleet.app{}", user % 7),
                    src: Some(src),
                    dst: Endpoint::v4(216, 58, 221, 132, 443),
                    domain: Some("www.google.com".into()),
                    request_bytes: 300,
                    close_after: 4 * 1024,
                    kind: FlowKind::Tcp,
                    network: None,
                    isp: None,
                }
            })
            .collect()
    }

    fn builder() -> SimNetworkBuilder {
        SimNetwork::builder().seed(99).with_table2_destinations()
    }

    #[test]
    fn sharding_covers_all_shards_and_is_stable() {
        let flows = fleet_flows(256);
        let mut counts = [0usize; 8];
        for f in &flows {
            let s = FleetEngine::shard_of(f, 8);
            assert_eq!(s, FleetEngine::shard_of(f, 8), "assignment is stable");
            counts[s] += 1;
        }
        assert!(counts.iter().all(|c| *c > 8), "uneven sharding: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "pre-assign FlowSpec::src")]
    fn fleet_flows_without_src_panic() {
        let mut flow = fleet_flows(1).remove(0);
        flow.src = None;
        FleetEngine::shard_of(&flow, 4);
    }

    #[test]
    fn merged_report_is_identical_across_shard_counts() {
        let flows = fleet_flows(300);
        let mut digests = Vec::new();
        for shards in [1usize, 3, 8] {
            let fleet = FleetEngine::new(FleetConfig::new(shards), builder());
            let report = fleet.run(flows.clone());
            assert_eq!(report.per_shard.len(), shards);
            assert_eq!(report.merged.flows.len(), 300);
            assert_eq!(report.merged.relay.syns, 300);
            digests.push((report.digest(), report.merged.relay.clone(), report.merged.finished_at));
        }
        assert_eq!(digests[0], digests[1], "1 vs 3 shards");
        assert_eq!(digests[1], digests[2], "3 vs 8 shards");
    }

    /// An IPv4 source talking to an IPv6 destination: building its SYN
    /// panics ("mixed address families"). The one returned hashes to `shard`
    /// of `shards`.
    fn mixed_family_flow(template: &FlowSpec, shard: usize, shards: usize) -> FlowSpec {
        (0..64u16)
            .map(|port| FlowSpec {
                src: Some(Endpoint::v4(10, 9, 9, 9, 50_000 + port)),
                dst: Endpoint::new(std::net::Ipv6Addr::LOCALHOST, 443),
                domain: None,
                ..template.clone()
            })
            .find(|spec| FleetEngine::shard_of(spec, shards) == shard)
            .expect("some port lands on the shard")
    }

    /// Runs one fleet step that must panic, and returns its message.
    fn panic_message(fleet: &mut ResidentFleet, flows: Vec<FlowSpec>) -> String {
        let caught =
            catch_unwind(AssertUnwindSafe(|| fleet.run_next(&builder(), flows))).unwrap_err();
        let message = caught.downcast_ref::<String>().cloned();
        message.or_else(|| caught.downcast_ref::<&str>().map(|m| m.to_string())).unwrap_or_default()
    }

    #[test]
    fn a_panic_in_shard_0_unwinds_and_leaves_the_fleet_usable() {
        let good = fleet_flows(40);
        let reference = FleetEngine::new(FleetConfig::new(2), builder()).run(good.clone()).digest();

        let mut fleet = ResidentFleet::new(FleetConfig::new(2));
        // The failed run's worker shard runs other flows than the next run's.
        let mut flows = good[..10].to_vec();
        flows.push(mixed_family_flow(&good[0], 0, 2));
        let message = panic_message(&mut fleet, flows);
        assert!(message.contains("address families"), "{message:?}");
        // The worker's report of the failed run was taken off its ring, and
        // shard 0's engine is rebuilt: the next run is a clean one.
        assert_eq!(fleet.run_next(&builder(), good).digest(), reference);
        assert_eq!((fleet.runs(), fleet.threads_spawned()), (1, 1));
    }

    #[test]
    fn a_panic_in_a_worker_shard_surfaces_with_its_own_message() {
        let good = fleet_flows(40);
        // The dead worker is the last one, so with three shards a healthy
        // worker gets its job before the dead one is reached.
        for shards in [2usize, 3] {
            let mut fleet = ResidentFleet::new(FleetConfig::new(shards));
            let mut flows = good[..10].to_vec();
            flows.push(mixed_family_flow(&good[0], shards - 1, shards));
            let message = panic_message(&mut fleet, flows);
            assert!(message.contains("address families"), "{shards} shards: {message:?}");
            // The worker is gone: every later run refuses at once instead
            // of waiting on a ring.
            for _ in 0..4 {
                let message = panic_message(&mut fleet, good.clone());
                assert!(message.contains("hung up"), "{shards} shards: {message:?}");
            }
            assert_eq!(fleet.runs(), 0);
        }
    }

    #[test]
    fn different_seeds_produce_different_digests() {
        let flows = fleet_flows(60);
        let a = FleetEngine::new(FleetConfig::new(2).with_seed(1), builder()).run(flows.clone());
        let b = FleetEngine::new(FleetConfig::new(2).with_seed(2), builder()).run(flows);
        assert_ne!(a.digest(), b.digest());
    }
}
