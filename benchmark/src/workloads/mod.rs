//! The four workloads, shared by `mopbench` and `mopbench-trace`.
//!
//! | name          | what runs                                              |
//! |---------------|--------------------------------------------------------|
//! | `rush_hour`   | 500-user rush hour, warm `ResidentFleet` reps          |
//! | `bulk_lossy`  | 1 000 bulk downloads over lossy 3G → LTE, same shape   |
//! | `serve_steps` | one client stepping a `mop_server` over a Unix socket  |
//! | `day_ckpt`    | 300-user day: checkpoint at noon, save, load, resume   |
//!
//! Populations are sized so that one timed operation lasts about a tenth of
//! a second: short enough that some of every run's fall between the host's
//! contention bursts, and a run holds hundreds of them (README.md, "Noise").
//! `rush_hour` is the exception at 0.9 s a rep: 500 users is the smallest
//! population at which the superlinear connect paths are most of its cost.
//!
//! Each workload returns one [`Outcome`]: exact counts from a reference run
//! ([`Reference`]), the wall time of every timed unit ([`Unit`]), the timing
//! series behind the latency metrics ([`Samples`]) and the correctness
//! tally. The end-to-end metrics are derived from that in one place
//! ([`Outcome::end_to_end`]) so every workload reports every metric under
//! one definition.
//!
//! Only the program's outer surface is touched here — scenario generators,
//! fleet entry points, the checkpoint type, the server and its client, the
//! report renderers — so an internal refactor can break a layer *probe*
//! (those live in the traced binary) without breaking a headline number.

mod batch;
mod day;
mod serve;

use std::cell::OnceCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use mop_analytics::{diagnose_trends, render_epoch_table, TrendConfig};
use mop_bench::render_crowd_report;
use mop_dataset::{DiurnalScenario, NetProfile, Scenario, TrafficMix};
use mop_json::{json, Value};
use mop_simnet::{SimDuration, SimNetworkBuilder};
use mop_tun::FlowSpec;
use mopeye_core::{FleetCheckpoint, FleetConfig, FleetReport, ResidentFleet, RunReport};

use crate::catalog::{self, Clock, Measured};
use crate::host;
use crate::spans::{AllocSnapshot, Tracer};
use crate::stats::{self, Repeated, STEP_LADDER};

/// Every **timed** fleet runs one shard, so one thread is busy at a time:
/// the reference host's two vCPUs run two busy threads at anything between
/// 1.1 and 2 cores' worth of speed, minutes at a time (README.md, "Noise"),
/// and a two-shard rep measured that, not the program.
pub const SHARDS: usize = 1;

/// The shard count of the untimed cross-check every workload ends with: the
/// same flows on this many shards must land on the timed runs' digest (the
/// host guard refuses hosts with fewer cores).
pub const CHECK_SHARDS: usize = 2;

/// Epoch geometry of the served plane: 25 ms epochs make a drain of the
/// three injected scenarios ~160 steps.
const SERVE_EPOCH_MS: u64 = 25;
const EPOCH_WINDOW: usize = 32;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RushHour,
    BulkLossy,
    ServeSteps,
    DayCkpt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RushHour,
        Workload::BulkLossy,
        Workload::ServeSteps,
        Workload::DayCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RushHour => "rush_hour",
            Workload::BulkLossy => "bulk_lossy",
            Workload::ServeSteps => "serve_steps",
            Workload::DayCkpt => "day_ckpt",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Users at full size. `--smoke` runs a twentieth.
    fn full_users(self) -> usize {
        match self {
            Workload::RushHour => 500,
            Workload::BulkLossy => 1_000,
            Workload::ServeSteps => 200,
            Workload::DayCkpt => 300,
        }
    }

    /// Timed units every run completes however short `--seconds` is: three
    /// reps, or two rounds (~320 steps) of the served loop.
    fn min_units(self) -> usize {
        match self {
            Workload::ServeSteps => 2,
            _ => 3,
        }
    }
}

/// One invocation: which workload, from which seed, for how long.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// `--seed`. Scenario, fleet and plane seeds are all one value derived
    /// from it, [`Plan::input_seed`].
    pub seed: u64,
    /// Cache of [`Plan::input_seed`]; start it empty.
    pub input_seed: OnceCell<u64>,
    /// Timed units repeat until this much wall time has been measured (and
    /// the workload's minimum unit count is met).
    pub seconds: f64,
    /// A twentieth of the population, one unit, two inner repeats: the same
    /// code path in about a second, for the tests.
    pub smoke: bool,
    /// Scratch and output directory (socket, checkpoint files, documents).
    pub out_dir: PathBuf,
    /// When the process started; the first set-up counts from here.
    pub started: Instant,
}

/// How many candidate input seeds `--seed` expands into.
const CANDIDATES: u64 = 64;

/// The `index`-th candidate of `seed`'s family (splitmix64, so neighbouring
/// `--seed` values share no candidates).
fn candidate_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(CANDIDATES)
        .wrapping_add(index)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Plan {
    /// The seed every scenario, fleet and plane of this run is built from
    /// (exactly as `report --seed` would use it): the candidate of `--seed`'s
    /// family whose generated schedule is the family's most typical in size.
    ///
    /// A few hundred users make a schedule whose flow count moves by ±5 %
    /// and whose byte count by ±25 % from seed to seed (a handful of video
    /// and bulk users carry most bytes), and the engine's cost is quadratic
    /// in the population: taken raw, ten seeds spread `step_ms_p50` by 20 %
    /// on input size alone. So `--seed` names a family of [`CANDIDATES`]
    /// schedules, and the run uses the one closest to the family's median
    /// flow count and median byte count. Same `--seed`, same inputs; nothing
    /// is pinned, so a generator change moves the medians with it.
    pub fn input_seed(&self) -> u64 {
        *self.input_seed.get_or_init(|| {
            let candidates = if self.smoke { 4 } else { CANDIDATES };
            let sized: Vec<(u64, f64, f64)> = (0..candidates)
                .map(|index| {
                    let seed = candidate_seed(self.seed, index);
                    let flows: Vec<FlowSpec> = sources(self, seed, 1)
                        .iter()
                        .flat_map(Source::generate)
                        .collect();
                    let bytes: usize = flows.iter().map(|f| f.request_bytes + f.close_after).sum();
                    (seed, flows.len() as f64, bytes as f64)
                })
                .collect();
            let middle = |pick: fn(&(u64, f64, f64)) -> f64| {
                stats::median(&sized.iter().map(pick).collect::<Vec<_>>())
            };
            let (flows, bytes) = (middle(|c| c.1), middle(|c| c.2));
            let off =
                |c: &(u64, f64, f64)| (c.1 / flows - 1.0).abs().max((c.2 / bytes - 1.0).abs());
            sized
                .iter()
                .min_by(|a, b| off(a).total_cmp(&off(b)))
                .expect("a family has candidates")
                .0
        })
    }

    fn users(&self) -> usize {
        self.users_div(1)
    }

    fn users_div(&self, divisor: usize) -> usize {
        let full = self.workload.full_users();
        (if self.smoke { full / 20 } else { full } / divisor).max(1)
    }

    fn min_units(&self, tracer: &Tracer) -> usize {
        if tracer.tracing() {
            2 // One untraced and one traced unit.
        } else if self.smoke {
            1
        } else {
            self.workload.min_units()
        }
    }

    /// How many times the workload sets up; `setup_s` is the fastest of them.
    /// The first comes before the timed units, the others at even intervals
    /// among them ([`Plan::setup_due`]): the host stays slow for seconds at
    /// a time, and set-ups taken back to back all saw one such stretch.
    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            8
        }
    }

    /// The part of `--seconds` the timed units get. The traced pass stops at
    /// half: the scaling runs and the probe ladder that follow take the rest.
    fn budget_s(&self, tracer: &Tracer) -> f64 {
        if tracer.tracing() {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// True when the next of the run's `done` set-ups so far is due, the
    /// timed units having started at `timed_since`.
    fn setup_due(&self, done: usize, timed_since: Instant, tracer: &Tracer) -> bool {
        let due_at = self.budget_s(tracer) * done as f64 / self.setups() as f64;
        done < self.setups() && timed_since.elapsed().as_secs_f64() >= due_at
    }

    /// Inner repetitions of the millisecond-scale operations (serialise,
    /// parse, render, digest) inside one `day_ckpt` rep.
    fn repeats(&self) -> usize {
        if self.smoke {
            2
        } else {
            10
        }
    }

    fn scratch(&self, suffix: &str) -> PathBuf {
        self.out_dir.join(format!(
            "{}-{}.{suffix}",
            self.workload.name(),
            std::process::id()
        ))
    }

    /// True while more timed units should run.
    fn more_units(&self, done: usize, timed_since: Instant, tracer: &Tracer) -> bool {
        done < self.min_units(tracer)
            || (!self.smoke && timed_since.elapsed().as_secs_f64() < self.budget_s(tracer))
    }
}

/// What a workload's flows are generated from.
enum Source {
    Classic(Scenario),
    Day(DiurnalScenario),
}

impl Source {
    fn name(&self) -> String {
        match self {
            Source::Classic(scenario) => scenario.spec().name.clone(),
            Source::Day(day) => day.name().to_string(),
        }
    }

    fn generate(&self) -> Vec<FlowSpec> {
        match self {
            Source::Classic(scenario) => scenario.generate(),
            Source::Day(day) => day.generate(),
        }
    }

    fn network(&self) -> SimNetworkBuilder {
        match self {
            Source::Classic(scenario) => scenario.network(),
            Source::Day(day) => day.network(),
        }
    }
}

/// The scenarios the served plane injects, by their wire names.
const SERVE_KINDS: [&str; 3] = ["rush-hour", "flash-crowd", "degraded-commute"];

/// The workload's flow sources from `seed` at `1/divisor` of its population.
fn sources(plan: &Plan, seed: u64, divisor: usize) -> Vec<Source> {
    let users = plan.users_div(divisor);
    match plan.workload {
        Workload::RushHour => vec![Source::Classic(Scenario::rush_hour(users, seed))],
        Workload::BulkLossy => vec![Source::Classic(Scenario::single(
            TrafficMix::BulkDownload,
            NetProfile::DegradedCommute,
            users,
            SimDuration::from_secs(4),
            seed,
        ))],
        Workload::ServeSteps => vec![
            Source::Classic(Scenario::rush_hour(users, seed)),
            Source::Classic(Scenario::flash_crowd(users, seed)),
            Source::Classic(Scenario::degraded_commute(users, seed)),
        ],
        Workload::DayCkpt => vec![Source::Day(Scenario::diurnal(users, seed))],
    }
}

/// The fleet configuration the workload's runs use: lean mode (sketches, no
/// raw sample vector) everywhere, epoch windows where the workload is
/// longitudinal (the served plane and the day).
fn fleet_config(plan: &Plan, shards: usize) -> FleetConfig {
    let mut config = FleetConfig::new(shards).with_seed(plan.input_seed());
    config.engine = config.engine.with_retain_samples(false);
    match plan.workload {
        Workload::RushHour | Workload::BulkLossy => config,
        Workload::ServeSteps => {
            config.with_epochs(SimDuration::from_millis(SERVE_EPOCH_MS), EPOCH_WINDOW)
        }
        Workload::DayCkpt => config.with_epochs(DiurnalScenario::virtual_hour(), EPOCH_WINDOW),
    }
}

/// Exact, repeatable counts from one run of the workload's flows — the
/// denominators of every per-flow / per-packet / per-event figure and the
/// modelled (virtual-time) results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    pub flows: u64,
    pub flows_completed: u64,
    pub events: u64,
    pub pkts: u64,
    pub tun_bytes: u64,
    pub retransmits: u64,
    pub connects_failed: u64,
    pub virtual_finish_s: f64,
    pub relay_mbps: f64,
    /// Empty when the counts came from a merged report with no per-shard
    /// breakdown (the served plane's).
    pub per_shard_events: Vec<u64>,
    pub dispatch_stalls: u64,
    pub sink_stalls: u64,
    pub pool_allocs: u64,
}

impl Reference {
    /// Adds a merged report's counts.
    fn absorb_run(&mut self, run: &RunReport) {
        self.flows += run.flows.len() as u64;
        self.flows_completed += run.flows.iter().filter(|f| f.completed).count() as u64;
        self.events += run.events_processed;
        self.pkts += run.tun.packets_from_apps + run.tun.packets_to_apps;
        self.tun_bytes += run.tun.bytes_from_apps + run.tun.bytes_to_apps;
        self.retransmits += run.relay.retransmits;
        self.connects_failed += run.relay.connects_failed;
        self.virtual_finish_s = self
            .virtual_finish_s
            .max(run.finished_at.as_nanos() as f64 / 1e9);
        self.relay_mbps = run.download_goodput_mbps().unwrap_or(0.0);
        self.dispatch_stalls += run.tun.dispatch_stalls;
        self.sink_stalls += run.relay.sink_stalls;
        self.pool_allocs += run.buffer_pool.allocations + run.socket_read_pool.allocations;
    }

    /// Adds a fleet report's counts, including the per-shard event split.
    fn absorb_fleet(&mut self, report: &FleetReport) {
        self.absorb_run(&report.merged);
        self.per_shard_events
            .resize(report.per_shard.len().max(self.per_shard_events.len()), 0);
        for shard in &report.per_shard {
            self.per_shard_events[shard.shard] += shard.events_processed;
        }
    }

    /// Busiest shard's events over the mean; 1.0 is a perfect split.
    pub fn shard_imbalance(&self) -> Option<f64> {
        let max = *self.per_shard_events.iter().max()? as f64;
        let mean =
            self.per_shard_events.iter().sum::<u64>() as f64 / self.per_shard_events.len() as f64;
        (mean > 0.0).then(|| max / mean)
    }

    pub fn to_json(&self) -> Value {
        json!({
            "flows": self.flows,
            "flows_completed": self.flows_completed,
            "events": self.events,
            "pkts": self.pkts,
            "tun_bytes": self.tun_bytes,
            "retransmits": self.retransmits,
            "connects_failed": self.connects_failed,
            "virtual_finish_s": self.virtual_finish_s,
            "relay_mbps": self.relay_mbps,
            "per_shard_events": self.per_shard_events.clone(),
            "dispatch_stalls": self.dispatch_stalls,
            "sink_stalls": self.sink_stalls,
            "pool_allocs": self.pool_allocs,
        })
    }
}

/// One timed unit: a rep (batch, day) or a round (served).
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// The fleet-advancing wall time inside the unit: the `run_next` call,
    /// the round's summed `fleet.step` round trips, or capture + resume.
    pub wall_s: f64,
    /// Whether spans and allocation counts were being recorded.
    pub traced: bool,
    /// Process-wide allocator growth across the unit (zeros when untraced).
    pub alloc: AllocSnapshot,
}

/// The timing series behind the latency metrics, in the unit each is
/// reported in. The five end-to-end series are keyed by distinct operation
/// ([`Repeated`]): the batch and day workloads repeat one operation, the
/// served loop repeats a sequence of them once per round.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// One fleet advance as its caller waits for it.
    pub step_ms: Repeated,
    /// The cheapest "where are we" query the workload's surface offers.
    pub status_us: Repeated,
    pub save_ms: Repeated,
    pub load_ms: Repeated,
    pub report_ms: Repeated,
    // The parts of the three above, for the per-layer table.
    pub serialise_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub crowd_ms: Vec<f64>,
    pub trend_ms: Vec<f64>,
    /// `FleetReport::digest` / `ControlPlane::digest` on the finished state.
    pub digest_ms: Vec<f64>,
    pub ckpt_bytes: usize,
}

/// Correctness tally: every flow, rep, RPC and checkpoint round trip is one
/// attempted operation; every violated check is one failed operation.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Adds another tally's counts and violations.
    fn absorb(&mut self, mut other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.append(&mut other.violations);
    }

    /// Counts one attempted check and fails it unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }
}

/// A reported figure outside the catalogue's universal sets: the
/// workload-specific numbers the document and README carry.
#[derive(Debug, Clone)]
pub struct Extra {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    pub n: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Named digests, printed and compared exactly by `aa.sh`.
    pub digests: Vec<(&'static str, u64)>,
    /// Every set-up's wall time: the first from process start, the others
    /// (taken among the timed units) from their own beginning.
    pub setups_s: Vec<f64>,
    /// Fastest generation of the workload's flows over the set-ups.
    pub generate_s: f64,
    /// Fastest first run of the workload's flows on fresh engines.
    pub cold_run_s: f64,
    pub reference: Reference,
    pub units: Vec<Unit>,
    pub samples: Samples,
    pub extras: Vec<Extra>,
    pub params: Vec<(&'static str, Value)>,
    pub warnings: Vec<String>,
    /// The last checkpoint document written, kept only in the traced pass
    /// (the JSON probes replay it).
    pub ckpt_text: Option<String>,
}

impl Outcome {
    fn extra(
        &mut self,
        name: &'static str,
        unit: &'static str,
        clock: Clock,
        value: f64,
        n: usize,
    ) {
        self.extras.push(Extra {
            name,
            unit,
            clock,
            value,
            n,
        });
    }

    fn walls(&self, traced: bool) -> Vec<f64> {
        self.units
            .iter()
            .filter(|u| u.traced == traced)
            .map(|u| u.wall_s)
            .collect()
    }

    /// Wall of the fastest untraced unit — the denominator of the traced
    /// pass's per-event and per-packet costs.
    pub fn unit_wall_s(&self) -> f64 {
        stats::fastest(&self.walls(false))
    }

    /// Wall of the fastest traced unit; `NaN` outside the traced pass.
    pub fn traced_unit_wall_s(&self) -> f64 {
        stats::fastest(&self.walls(true))
    }

    /// `setup_s`: the fastest of the run's set-ups.
    pub fn setup_s(&self) -> f64 {
        stats::fastest(&self.setups_s)
    }

    /// Every end-to-end metric of the catalogue, in catalogue order: each
    /// from the fastest observation of every distinct operation, as the
    /// median (or supported tail) over those operations.
    pub fn end_to_end(&self) -> Vec<Measured> {
        let s = &self.samples;
        let steps = s.step_ms.fastest();
        // One pass over the workload's flows: every distinct step, once.
        let wall = steps.iter().sum::<f64>() / 1e3;
        let units = s.step_ms.observations();
        let tail_pct = stats::supported_percentile(steps.len(), &STEP_LADDER);
        let step_tail = stats::summarise(&steps, &STEP_LADDER).tail;
        let peak_rss_mb = host::vm_hwm_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
        let median = |series: &Repeated| {
            (
                stats::median(&series.fastest()),
                series.observations(),
                None,
            )
        };
        catalog::END_TO_END
            .iter()
            .map(|spec| {
                let (value, n, note) = match spec.name {
                    "setup_s" => (self.setup_s(), self.setups_s.len(), None),
                    "flows_per_s" => (self.reference.flows as f64 / wall, units, None),
                    "pkts_per_s" => (self.reference.pkts as f64 / wall, units, None),
                    "peak_rss_mb" => (peak_rss_mb, 1, None),
                    "step_ms_p50" => (stats::median(&steps), units, None),
                    "step_ms_tail" => (step_tail, units, Some(format!("p{tail_pct}"))),
                    "status_us_p50" => median(&s.status_us),
                    "ckpt_save_ms" => median(&s.save_ms),
                    "ckpt_load_ms" => median(&s.load_ms),
                    "report_ms" => median(&s.report_ms),
                    other => unreachable!("catalogue metric {other} has no definition"),
                };
                Measured {
                    spec,
                    value,
                    n,
                    note,
                }
            })
            .collect()
    }

    /// Warns (never gates) when the two halves of the run disagree on the
    /// fastest unit by more than the throughput bound: no unit of one half
    /// escaped the host's contention, so the run cannot resolve a regression.
    fn warn_on_spread(&mut self) {
        let walls = self.walls(false);
        let bound = catalog::end_to_end("flows_per_s").bound;
        if walls.len() < 4 {
            return;
        }
        let (early, late) = walls.split_at(walls.len() / 2);
        let (early, late) = (stats::fastest(early), stats::fastest(late));
        let apart = (early - late).abs() / early.min(late);
        if apart > bound {
            self.warnings.push(format!(
                "the fastest unit of the run's first half and of its second are {:.1} % apart \
                 ({} units), beyond the flows_per_s bound of {:.0} %",
                apart * 100.0,
                walls.len(),
                bound * 100.0
            ));
        }
    }
}

/// Runs `plan.workload` once.
pub fn run(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    std::fs::create_dir_all(&plan.out_dir).expect("create the benchmark output directory");
    let mut outcome = match plan.workload {
        Workload::RushHour | Workload::BulkLossy => batch::run(plan, tracer),
        Workload::ServeSteps => serve::run(plan, tracer),
        Workload::DayCkpt => day::run(plan, tracer),
    };
    outcome.params.push(("users", Value::from(plan.users())));
    outcome.params.push((
        "input_seed",
        Value::from(format!("{:016x}", plan.input_seed())),
    ));
    outcome.params.push(("shards", Value::from(SHARDS)));
    outcome
        .params
        .push(("check_shards", Value::from(CHECK_SHARDS)));
    outcome
        .params
        .push(("units", Value::from(outcome.units.len())));
    outcome
        .params
        .push(("inner_repeats", Value::from(plan.repeats())));
    outcome
        .params
        .push(("setups", Value::from(outcome.setups_s.len())));
    outcome.warn_on_spread();
    outcome
}

/// What one set-up measured of its own parts.
struct SetupCost {
    generate_s: f64,
    cold_run_s: f64,
}

/// Runs the workload's set-up once and returns its product: the run's first
/// is counted from process start, a later one from its own beginning (the
/// caller drops the previous product first, so the peak RSS is one
/// set-up's). `setup_s` is the fastest of them.
fn set_up<T>(
    plan: &Plan,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    build: &mut impl FnMut(&mut Tracer) -> (T, SetupCost),
) -> T {
    let first = outcome.setups_s.is_empty();
    let since = if first { plan.started } else { Instant::now() };
    let ((built, cost), _) = tracer.timed("bench.setup", &mut *build);
    outcome.setups_s.push(since.elapsed().as_secs_f64());
    if first {
        (outcome.generate_s, outcome.cold_run_s) = (cost.generate_s, cost.cold_run_s);
    } else {
        outcome.generate_s = outcome.generate_s.min(cost.generate_s);
        outcome.cold_run_s = outcome.cold_run_s.min(cost.cold_run_s);
    }
    built
}

/// Generates every source's flows, timing the generator.
fn generate(sources: &[Source], tracer: &mut Tracer) -> (Vec<Vec<FlowSpec>>, f64) {
    tracer.timed("dataset.generate", |_| {
        sources.iter().map(Source::generate).collect()
    })
}

/// Runs every source's flows once on `fleet`, returning the summed
/// `run_next` wall and the reports.
fn run_sources(
    fleet: &mut ResidentFleet,
    sources: &[Source],
    flows: &[Vec<FlowSpec>],
    tracer: &mut Tracer,
) -> (f64, Vec<FleetReport>) {
    let mut wall = 0.0;
    let mut reports = Vec::with_capacity(sources.len());
    for (source, flows) in sources.iter().zip(flows) {
        let (network, input) = (source.network(), flows.clone());
        let (report, secs) = tracer.timed("core.run_next", |_| fleet.run_next(&network, input));
        wall += secs;
        reports.push(report);
    }
    (wall, reports)
}

/// What the workload's flows cost as a plain batch at `1/divisor` of the
/// population on `shards` shards: one warm-up pass, then the fastest of
/// three timed passes. The traced binary's scaling ratios are built from
/// these.
pub struct BatchCost {
    pub wall_s: f64,
    pub reference: Reference,
}

pub fn batch_cost(plan: &Plan, divisor: usize, shards: usize, tracer: &mut Tracer) -> BatchCost {
    let sources = sources(plan, plan.input_seed(), divisor);
    let (flows, _) = generate(&sources, tracer);
    let mut fleet = ResidentFleet::new(fleet_config(plan, shards));
    let (mut wall_s, mut reports) = run_sources(&mut fleet, &sources, &flows, tracer);
    for _ in 0..3 {
        let (again_s, again) = run_sources(&mut fleet, &sources, &flows, tracer);
        if again_s < wall_s {
            (wall_s, reports) = (again_s, again);
        }
    }
    let mut reference = Reference::default();
    for report in &reports {
        reference.absorb_fleet(report);
    }
    BatchCost { wall_s, reference }
}

/// Times `FleetReport::digest`-style status queries: `repeats` calls of
/// `digest`, each one `status_us` sample. Returns the digest.
fn time_digest(
    repeats: usize,
    samples: &mut Samples,
    tracer: &mut Tracer,
    digest: impl Fn() -> u64,
) -> u64 {
    let mut value = 0;
    for _ in 0..repeats {
        let (d, secs) = tracer.timed("core.digest", |_| black_box(digest()));
        samples.status_us.push(0, secs * 1e6);
        samples.digest_ms.push(secs * 1e3);
        value = d;
    }
    value
}

/// Renders what the `report` binary prints after a run — the crowd report
/// and, for windowed runs, the epoch table and trend diagnosis — `repeats`
/// times, each one `report_ms` sample.
fn time_reports(run: &RunReport, repeats: usize, samples: &mut Samples, tracer: &mut Tracer) {
    for _ in 0..repeats {
        let (_, crowd) = tracer.timed("analytics.crowd_report", |_| {
            black_box(render_crowd_report(&run.aggregates));
        });
        let mut total = crowd;
        if let Some(windows) = &run.windows {
            let (_, table) = tracer.timed("analytics.render_epoch_table", |_| {
                black_box(render_epoch_table(
                    "Per-epoch TCP RTT (live window)",
                    windows,
                ));
            });
            let (_, trend) = tracer.timed("analytics.diagnose_trends", |_| {
                black_box(diagnose_trends(windows, TrendConfig::default()));
            });
            samples.trend_ms.push(trend * 1e3);
            total += table + trend;
        }
        samples.crowd_ms.push(crowd * 1e3);
        samples.report_ms.push(0, total * 1e3);
    }
}

/// Saves `checkpoint` to `path` and loads it back, `repeats` times: one
/// `save_ms` sample (serialise + write) and one `load_ms` sample (read +
/// parse) per repetition. JSON is written beside being read, so a
/// serialiser win that costs the parser shows. Returns the last loaded
/// checkpoint.
fn time_checkpoint_files(
    checkpoint: &FleetCheckpoint,
    path: &std::path::Path,
    repeats: usize,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> Option<FleetCheckpoint> {
    let mut loaded = None;
    for _ in 0..repeats {
        let (text, serialise) =
            tracer.timed("core.ckpt_to_json_string", |_| checkpoint.to_json_string());
        let (written, write) = tracer.timed("fs.write", |_| std::fs::write(path, &text));
        let (read_back, read) = tracer.timed("fs.read", |_| std::fs::read_to_string(path));
        let read_back = read_back.unwrap_or_default();
        let (parsed, parse) = tracer.timed("core.ckpt_from_json_str", |_| {
            FleetCheckpoint::from_json_str(&read_back)
        });
        let s = &mut outcome.samples;
        s.serialise_ms.push(serialise * 1e3);
        s.write_ms.push(write * 1e3);
        s.parse_ms.push(parse * 1e3);
        s.save_ms.push(0, (serialise + write) * 1e3);
        s.load_ms.push(0, (read + parse) * 1e3);
        s.ckpt_bytes = text.len();
        outcome.tally.check(
            written.is_ok() && read_back == text && parsed.is_some(),
            || {
                format!(
                    "checkpoint file round trip through {} failed",
                    path.display()
                )
            },
        );
        loaded = parsed;
        if tracer.tracing() {
            outcome.ckpt_text = Some(text);
        }
    }
    std::fs::remove_file(path).ok();
    loaded
}
