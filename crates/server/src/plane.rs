//! The control plane: a fleet engine driven incrementally through virtual
//! time, with scenarios injected and retired at runtime.
//!
//! # Why stepping preserves the batch digest
//!
//! The plane keeps a *cursor* in epoch units and, per
//! [`ControlPlane::step`], runs every not-yet-run flow scheduled before the
//! new cursor boundary (one run per scenario, each over its own network),
//! absorbing the merged result into one cumulative [`RunReport`]. Over the
//! fleet's flow-keyed networks every flow's behaviour is a pure function of
//! `(seed, four-tuple)`, so the absorb of any partition of a flow schedule
//! — by time, by scenario, or both — equals the report of the
//! unpartitioned batch run. This is the same invariance behind
//! [`FleetCheckpoint`]; the plane merely applies it once per step instead
//! of once per restart. `tests/server_oracle.rs` pins the equivalence
//! against batch runs across shard counts and random interleavings.
//!
//! The digest folds samples and flow outcomes as a multiset
//! ([`OutcomeFold`]), so it does not depend on the order outcomes that
//! share a four-tuple were absorbed in, and a one-step drain equals the
//! stepped cadence. A step costs what it ran, not what the plane has
//! absorbed: each scenario keeps its pending flows in start order, so the
//! due ones are a prefix taken without touching the rest; the plane keeps
//! the cumulative fold beside its report and adds the delta's; the
//! canonical delta merges into the canonical cumulative report
//! ([`RunReport::absorb_canonical`]) instead of a re-sort, and since the
//! canonical order leads with start time that merge is an append; and the
//! sketch digests are memoised inside `mop_measure`, so the digest hashes
//! only the cells and epochs the delta touched.
//!
//! # The resident fleet
//!
//! The plane holds one [`ResidentFleet`] for its whole life: the workers of
//! shards 1..N spawn when the plane is built and park on their job rings
//! between steps, shard 0 runs on the thread that steps the plane, and
//! every per-scenario run goes through [`ResidentFleet::run_next`], which
//! resets the shard engines in place instead of rebuilding them. Run
//! results are bit-identical to fresh
//! [`FleetEngine`](mopeye_core::FleetEngine) construction (one protocol —
//! see the fleet module's `# Residency` docs); only the steady-state step
//! cost changes, from thread spawns + engine construction per scenario per
//! step to a few ring messages (none on one shard).
//!
//! Retiring a scenario drops only its not-yet-run flows: contributions
//! already absorbed stay in the cumulative report, exactly like a crowd
//! device that stops reporting.

use std::collections::VecDeque;
use std::mem;

use mop_dataset::Scenario;
use mop_json::{FromJson, Hex, JsonReader, JsonWrite, ParseError, ToJson, Value};
use mop_measure::EpochSummary;
use mop_simnet::{SimDuration, SimNetworkBuilder};
use mop_tun::FlowSpec;
#[cfg(test)]
use mopeye_core::FleetEngine;
use mopeye_core::{
    epoch_boundary, CheckpointHeader, CheckpointRef, CongestionAlgo, Counters, FleetCheckpoint,
    FleetConfig, OutcomeFold, ResidentFleet, RunReport,
};

/// Version tag of the server checkpoint document (which embeds a
/// [`FleetCheckpoint`] plus the plane's scenario table and cursor).
pub const SERVER_CHECKPOINT_VERSION: u64 = 1;

/// The `"format"` tag of a server checkpoint document.
const SERVER_CHECKPOINT_FORMAT: &str = "mop-server-checkpoint";

/// The most users one `inject` may ask for — about eight times the
/// paper-scale 13 k-user sweep. A scenario's flow schedule is generated
/// whole at inject (several flows per user, a few hundred bytes each), so
/// the count is a memory request and has to have a ceiling. A resumed
/// checkpoint's scenario table is held to the same range (and to at least
/// one user: a scenario of none cannot be built).
pub const MAX_INJECT_USERS: usize = 100_000;

/// The highest value the cursor may reach: every protocol integer is an
/// `i64`, so this is the last epoch a reply can still print. [`ControlPlane::step`]
/// saturates here instead of overflowing; the dispatcher refuses a step
/// that would need to.
pub const MAX_CURSOR_EPOCH: u64 = i64::MAX as u64;

/// The run parameters a plane is built with. Every engine the plane spins
/// up uses these; a checkpoint can only be resumed on a plane with the
/// same seed, congestion algorithm and epoch geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneConfig {
    /// Shard count for every step's engine. The merged report is invariant
    /// to it, so a resumed plane may use a different value.
    pub shards: usize,
    /// Engine seed (flow-keyed streams derive from it).
    pub seed: u64,
    /// Congestion-control algorithm.
    pub congestion: CongestionAlgo,
    /// Epoch width of the windowed aggregates and of the step cursor.
    pub epoch_width: SimDuration,
    /// Live-epoch window length.
    pub epoch_window: usize,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        // A quarter-second epoch suits the burst scenarios (rush hour spans
        // ~2 virtual seconds → ~8 epochs), mirroring the report binary's
        // duration/8 rule for its default 2,000-user runs.
        Self {
            shards: 4,
            seed: 2017,
            congestion: CongestionAlgo::Reno,
            epoch_width: SimDuration::from_millis(250),
            epoch_window: 32,
        }
    }
}

/// One injected scenario: its generation parameters (enough to rebuild it
/// bit-identically after a resume) and its not-yet-run flows.
#[derive(Debug)]
struct ScenarioSlot {
    id: String,
    kind: String,
    users: usize,
    seed: u64,
    retired: bool,
    /// Not-yet-run flows in start order, so a step's due flows are a
    /// prefix: taking them costs the flows taken, not the ones left.
    pending: VecDeque<FlowSpec>,
    injected_flows: usize,
}

impl ScenarioSlot {
    fn network(&self) -> SimNetworkBuilder {
        build_scenario(&self.kind, self.users, self.seed)
            .expect("slot kind and users were validated at inject or resume")
            .network()
    }
}

/// A row of the checkpoint's scenario table: the generation parameters and
/// how many of the flat pending set's specs are this slot's.
impl ToJson for ScenarioSlot {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("id", &self.id);
        out.field("kind", &self.kind);
        out.field("users", &self.users);
        out.field("seed", &Hex(self.seed));
        out.field("retired", &self.retired);
        out.field("injected_flows", &self.injected_flows);
        out.field("pending", &self.pending.len());
        out.end_object();
    }
}

/// The fleet configuration every run of a plane uses, resident or not.
fn fleet_config(config: &PlaneConfig) -> FleetConfig {
    let mut fleet = FleetConfig::new(config.shards)
        .with_seed(config.seed)
        .with_congestion(config.congestion)
        .with_epochs(config.epoch_width, config.epoch_window);
    // Lean mode: the cumulative report carries sketches, not samples.
    fleet.engine = fleet.engine.with_retain_samples(false);
    fleet
}

/// Builds the named scenario, or `None` for an unknown kind. The kinds
/// mirror the `report` binary's `--scenario` values (minus the diurnal
/// day, which has its own generator type). Panics on zero `users`: callers
/// check the count first.
fn build_scenario(kind: &str, users: usize, seed: u64) -> Option<Scenario> {
    match kind {
        "rush-hour" => Some(Scenario::rush_hour(users, seed)),
        "flash-crowd" => Some(Scenario::flash_crowd(users, seed)),
        "degraded-commute" => Some(Scenario::degraded_commute(users, seed)),
        _ => None,
    }
}

/// What one [`ControlPlane::step`] produced, for the response and for
/// stream subscribers.
#[derive(Debug)]
pub struct StepOutcome {
    /// The cursor after the step, in epochs.
    pub cursor_epoch: u64,
    /// Flows that ran in this step (across all scenarios).
    pub ran: usize,
    /// Flows still pending after the step.
    pub pending: usize,
    /// The cumulative fleet digest after absorbing the step.
    pub digest: u64,
    /// The step's merged report delta, in the checkpoint JSON encoding —
    /// folding these with [`RunReport::absorb`] reproduces the cumulative
    /// report. `Null` unless a `full` subscriber asked for it
    /// ([`ControlPlane::step_with_delta`]) and the step ran flows: nobody
    /// else reads it, and it is the size of the step's whole report.
    pub delta: Value,
    /// Per-epoch summaries of the delta's live window, for `summary`
    /// subscribers (empty when the step ran no flows).
    pub epoch_summaries: Vec<EpochSummary>,
}

/// The long-lived control plane. See the [module docs](self).
#[derive(Debug)]
pub struct ControlPlane {
    config: PlaneConfig,
    cursor_epoch: u64,
    next_scenario: usize,
    scenarios: Vec<ScenarioSlot>,
    cumulative: RunReport,
    /// `OutcomeFold::of(&cumulative)`, kept up to date as each step's
    /// delta is absorbed (and recomputed once on resume), so digesting the
    /// cumulative report costs the delta, not every flow ever run.
    fold: OutcomeFold,
    /// `cumulative.fleet_digest()`, recomputed by [`Self::refresh_digest`]
    /// at the two places `cumulative` changes. Kept here and not inside
    /// [`RunReport`], whose fields are public: only an owner that sees
    /// every mutation can keep a memo (and the fold under it) honest.
    digest: u64,
    /// How often `refresh_digest` ran. Never in a digest or a checkpoint.
    digest_computes: u64,
    /// The long-lived worker fleet every step's runs go through; spawned
    /// once here and reset in place per run.
    resident: ResidentFleet,
}

impl ControlPlane {
    /// An idle plane at epoch zero with no scenarios. The resident shard
    /// workers spawn here and park until the first step.
    pub fn new(config: PlaneConfig) -> Self {
        Self {
            resident: ResidentFleet::new(fleet_config(&config)),
            config,
            cursor_epoch: 0,
            next_scenario: 1,
            scenarios: Vec::new(),
            fold: OutcomeFold::default(),
            digest: RunReport::empty().fleet_digest(),
            digest_computes: 0,
            cumulative: RunReport::empty(),
        }
    }

    /// Re-derives the memoised digest from the kept fold. Called exactly
    /// where `cumulative` mutates: a step that ran flows, and a successful
    /// resume.
    fn refresh_digest(&mut self) {
        debug_assert_eq!(self.fold, OutcomeFold::of(&self.cumulative), "the kept fold drifted");
        self.digest = self.cumulative.fleet_digest_with(&self.fold);
        self.digest_computes += 1;
    }

    /// The plane's run parameters.
    pub fn config(&self) -> &PlaneConfig {
        &self.config
    }

    /// The virtual-time cursor, in epochs.
    pub fn cursor_epoch(&self) -> u64 {
        self.cursor_epoch
    }

    /// Flows injected but not yet run, across all scenarios.
    pub fn pending_flows(&self) -> usize {
        self.scenarios.iter().map(|s| s.pending.len()).sum()
    }

    /// Scenarios injected and not retired.
    pub(crate) fn live_scenarios(&self) -> usize {
        self.scenarios.iter().filter(|s| !s.retired).count()
    }

    /// The cumulative fleet digest — bit-identical to the digest of the
    /// equivalent uninterrupted batch run once all pending flows have run.
    /// O(1): reads the value the last mutation of the report left behind
    /// (always equal to `self.report().fleet_digest()`).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// How many times the plane has computed [`RunReport::fleet_digest`]
    /// over its cumulative report since it was built (the constant digest
    /// of the empty report at construction is not counted): one per step
    /// that ran flows, one per successful resume, none for any query.
    /// `server.profile` surfaces it as `digest_computes`.
    pub fn digest_computes(&self) -> u64 {
        self.digest_computes
    }

    /// The cumulative merged report.
    pub fn report(&self) -> &RunReport {
        &self.cumulative
    }

    /// Injects a scenario: generates its flow schedule and parks it
    /// pending. Flows scheduled before the current cursor are *not* lost —
    /// they run in the next step, and their samples fold into the correct
    /// epochs (or the window tail) because the windowed merge keys on
    /// sample timestamps. Returns `(scenario_id, flows_injected)`.
    pub fn inject(
        &mut self,
        kind: &str,
        users: usize,
        seed: u64,
    ) -> Result<(String, usize), String> {
        if users == 0 {
            return Err("a scenario needs at least one user".into());
        }
        if users > MAX_INJECT_USERS {
            return Err(format!(
                "{users} users is more than one inject may ask for ({MAX_INJECT_USERS})"
            ));
        }
        let Some(scenario) = build_scenario(kind, users, seed) else {
            return Err(format!(
                "unknown scenario kind {kind:?}; expected rush-hour, flash-crowd or \
                 degraded-commute"
            ));
        };
        // Generated in (start, source) order: no sort needed.
        let pending = VecDeque::from(scenario.generate());
        let id = format!("s{}", self.next_scenario);
        self.next_scenario += 1;
        let flows = pending.len();
        self.scenarios.push(ScenarioSlot {
            id: id.clone(),
            kind: kind.to_string(),
            users,
            seed,
            retired: false,
            pending,
            injected_flows: flows,
        });
        Ok((id, flows))
    }

    /// Retires a scenario: drops its not-yet-run flows and stops it from
    /// participating in future steps. Contributions already absorbed stay.
    /// Returns the number of flows dropped.
    pub fn retire(&mut self, id: &str) -> Result<usize, String> {
        let Some(slot) = self.scenarios.iter_mut().find(|s| s.id == id) else {
            return Err(format!("unknown scenario {id:?}"));
        };
        if slot.retired {
            return Err(format!("scenario {id:?} is already retired"));
        }
        slot.retired = true;
        Ok(mem::take(&mut slot.pending).len())
    }

    /// The lowest step count that would drain every pending flow.
    pub fn epochs_to_drain(&self) -> u64 {
        let width = self.config.epoch_width.as_nanos();
        let Some(max_at) =
            self.scenarios.iter().filter_map(|s| s.pending.back()).map(|f| f.at.as_nanos()).max()
        else {
            return 0;
        };
        let target = max_at / width.max(1) + 1;
        target.saturating_sub(self.cursor_epoch)
    }

    /// Advances the cursor by `epochs` (saturating at [`MAX_CURSOR_EPOCH`])
    /// and runs every pending flow scheduled before the new boundary, one
    /// run of the resident fleet per scenario, absorbing the merged results
    /// into the cumulative report. [`StepOutcome::delta`] stays `Null`.
    pub fn step(&mut self, epochs: u64) -> StepOutcome {
        self.step_with_delta(epochs, false)
    }

    /// [`ControlPlane::step`], additionally encoding the step's report
    /// delta into [`StepOutcome::delta`] when `want_delta` is set — what a
    /// `full` subscriber streams.
    pub fn step_with_delta(&mut self, epochs: u64, want_delta: bool) -> StepOutcome {
        self.cursor_epoch = self.cursor_epoch.saturating_add(epochs).min(MAX_CURSOR_EPOCH);
        let cut = epoch_boundary(self.config.epoch_width.as_nanos(), self.cursor_epoch);
        // Each run's report is canonical, and so is the cumulative one: they
        // merge in order, and the first is moved in rather than copied.
        let mut delta: Option<RunReport> = None;
        let mut ran = 0usize;
        for slot in &mut self.scenarios {
            // Pending is in start order: the due flows are its prefix.
            let due_count = slot.pending.partition_point(|spec| spec.at < cut);
            if due_count == 0 {
                continue;
            }
            let due: Vec<FlowSpec> = slot.pending.drain(..due_count).collect();
            ran += due.len();
            let network = slot.network();
            let report = self.resident.run_next(&network, due).merged;
            match &mut delta {
                Some(delta) => delta.absorb_canonical(report),
                None => delta = Some(report),
            }
        }
        // A step with nothing due absorbed nothing: the report, and with it
        // the memoised digest, stand as they are.
        let mut delta_json = Value::Null;
        let mut epoch_summaries = Vec::new();
        if let Some(delta) = delta {
            if let Some(windows) = &delta.windows {
                epoch_summaries = windows.epoch_summaries();
            }
            if want_delta {
                delta_json = mop_json::to_value(&delta);
            }
            self.fold.absorb(OutcomeFold::of(&delta));
            self.cumulative.absorb_canonical(delta);
            self.refresh_digest();
        }
        StepOutcome {
            cursor_epoch: self.cursor_epoch,
            ran,
            pending: self.pending_flows(),
            digest: self.digest,
            delta: delta_json,
            epoch_summaries,
        }
    }

    /// The resident fleet's lifetime statistics: `(runs, threads_spawned)`.
    /// `threads_spawned` is `shards − 1` forever: shard 0 runs on the thread
    /// that steps the plane, and the other workers are spawned once — the
    /// whole point of residency. `server.profile` surfaces both.
    pub(crate) fn resident_stats(&self) -> (u64, u64) {
        (self.resident.runs(), self.resident.threads_spawned())
    }

    /// The structure counters accumulated by the resident fleet's runs
    /// since boot or the last resume. They live in the cumulative report
    /// like the other merged statistics, but are excluded from digests and
    /// checkpoints.
    pub(crate) fn counters(&self) -> &Counters {
        &self.cumulative.counters
    }

    /// A fresh one-shot fleet with this plane's run parameters — the cold
    /// path the resident fleet replaces; kept for oracle comparisons.
    #[cfg(test)]
    fn build_fleet(&self, network: SimNetworkBuilder) -> FleetEngine {
        FleetEngine::new(fleet_config(&self.config), network)
    }

    /// The plane's checkpoint document as a tree — what an inline
    /// `fleet.checkpoint` reply carries. The plane's [`ToJson`] impl is the
    /// document; `mop_json::to_string(&plane)` is the same document
    /// as the on-disk text, written without the tree.
    pub fn checkpoint(&self) -> Value {
        mop_json::to_value(self)
    }

    /// The embedded fleet checkpoint, encoded where its parts live: base =
    /// the cumulative report, pending = every not-yet-run flow in slot
    /// order, cut = the cursor boundary.
    fn fleet_checkpoint(&self) -> CheckpointRef<'_, impl Iterator<Item = &FlowSpec> + Clone> {
        let width_ns = self.config.epoch_width.as_nanos();
        CheckpointRef {
            header: CheckpointHeader {
                seed: self.config.seed,
                shards_at_save: self.config.shards,
                congestion: self.config.congestion,
                epoch_width_ns: Some(width_ns),
                epoch_window: self.config.epoch_window,
                cut: epoch_boundary(width_ns, self.cursor_epoch),
            },
            base: &self.cumulative,
            pending: self.scenarios.iter().flat_map(|s| &s.pending),
        }
    }

    /// Restores a plane from a checkpoint document held as a tree (an
    /// inline `fleet.resume`); [`ControlPlane::resume_text`] does the work
    /// on its compact rendering.
    pub fn resume(&mut self, doc: &Value) -> Result<(), String> {
        self.resume_text(&mop_json::to_string(doc))
    }

    /// Restores a plane from a checkpoint document's text, decoded straight
    /// into the plane's state. The receiving plane must be idle (no
    /// scenarios, cursor at zero) and configured with the saved seed,
    /// congestion algorithm and epoch geometry; shard count may differ
    /// freely. On success the plane continues bit-identically to the one
    /// that saved the document; on failure it is left as it was.
    pub fn resume_text(&mut self, text: &str) -> Result<(), String> {
        if self.cursor_epoch != 0 || !self.scenarios.is_empty() {
            return Err("resume requires an idle plane (no scenarios, cursor at 0)".into());
        }
        let saved: SavedPlane =
            mop_json::decode(text).map_err(|error| explain_rejection(text, &error))?;
        self.install(saved)
    }

    /// Checks a decoded document against this plane and installs it. The
    /// checks, their order and their messages are the format's: wrapper
    /// tag and version, the fleet document, the plane's run parameters,
    /// then the cursor and the scenario table.
    fn install(&mut self, saved: SavedPlane) -> Result<(), String> {
        let SavedPlane { members: doc, fleet } = saved;
        check_header(&doc)?;
        if fleet.seed != self.config.seed {
            return Err(format!(
                "checkpoint was saved under seed {:#018x}, plane runs {:#018x}",
                fleet.seed, self.config.seed
            ));
        }
        if fleet.congestion != self.config.congestion {
            return Err("checkpoint and plane disagree on the congestion algorithm".into());
        }
        if fleet.epoch_width_ns != Some(self.config.epoch_width.as_nanos())
            || fleet.epoch_window != self.config.epoch_window
        {
            return Err("checkpoint and plane disagree on the epoch geometry".into());
        }
        fleet.check_windows()?;
        let Some(cursor_epoch) = doc["cursor_epoch"].as_u64() else {
            return Err("server checkpoint has no \"cursor_epoch\"".into());
        };
        let Some(next_scenario) = doc["next_scenario"].as_u64() else {
            return Err("server checkpoint has no \"next_scenario\"".into());
        };
        let Some(entries) = doc["scenarios"].as_array() else {
            return Err("server checkpoint has no \"scenarios\" array".into());
        };
        // Re-slice the flat pending vector back into per-scenario slots:
        // the encoder wrote it in slot order.
        let mut slots = Vec::with_capacity(entries.len());
        let mut remaining = fleet.pending;
        for entry in entries {
            let (Some(id), Some(kind), Some(users), Some(seed), Some(retired), Some(count)) = (
                entry["id"].as_str(),
                entry["kind"].as_str(),
                entry["users"].as_u64(),
                entry["seed"].as_str().and_then(|s| u64::from_str_radix(s, 16).ok()),
                entry["retired"].as_bool(),
                entry["pending"].as_u64(),
            ) else {
                return Err("server checkpoint scenario entry is malformed".into());
            };
            let injected = entry["injected_flows"].as_u64().unwrap_or(0) as usize;
            let users = usize::try_from(users).unwrap_or(usize::MAX);
            if !(1..=MAX_INJECT_USERS).contains(&users) {
                return Err(format!(
                    "server checkpoint scenario {id:?} has {users} users; a scenario has 1 to \
                     {MAX_INJECT_USERS}"
                ));
            }
            if build_scenario(kind, users, seed).is_none() {
                return Err(format!("server checkpoint names unknown scenario kind {kind:?}"));
            }
            let count = count as usize;
            if count > remaining.len() {
                return Err("server checkpoint pending counts exceed the pending set".into());
            }
            let rest = remaining.split_off(count);
            let mut pending = mem::replace(&mut remaining, rest);
            // A step takes its due flows as a prefix, so the slot keeps them
            // in start order. The sort is stable: same-instant flows run in
            // the order the document lists them.
            pending.sort_by_key(|spec| spec.at);
            slots.push(ScenarioSlot {
                id: id.to_string(),
                kind: kind.to_string(),
                users,
                seed,
                retired,
                pending: pending.into(),
                injected_flows: injected,
            });
        }
        if !remaining.is_empty() {
            return Err("server checkpoint pending counts do not cover the pending set".into());
        }
        self.cursor_epoch = cursor_epoch;
        self.next_scenario = next_scenario as usize;
        self.scenarios = slots;
        self.cumulative = fleet.base;
        // Steps merge into the cumulative report assuming canonical order;
        // a document's arrays need not be in it.
        self.cumulative.canonicalise();
        self.fold = OutcomeFold::of(&self.cumulative);
        self.refresh_digest();
        Ok(())
    }
}

/// The plane's checkpoint document, `mop-server-checkpoint`: the wrapper's
/// tag, version, cursor and scenario table, and the embedded fleet
/// checkpoint under `"fleet"`, encoded from the plane's own state.
impl ToJson for ControlPlane {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.begin_object();
        out.field("format", SERVER_CHECKPOINT_FORMAT);
        out.field("version", &SERVER_CHECKPOINT_VERSION);
        out.field("cursor_epoch", &self.cursor_epoch);
        out.field("next_scenario", &self.next_scenario);
        out.key("scenarios");
        out.array(&self.scenarios);
        out.field("fleet", &self.fleet_checkpoint());
        out.end_object();
    }

    fn size_hint(&self) -> usize {
        self.fleet_checkpoint().size_hint() + 256 * (self.scenarios.len() + 1)
    }
}

/// A `mop-server-checkpoint` document as decoded: the embedded fleet
/// checkpoint straight into its struct, every other member (a few scalars
/// and the scenario table) as the small tree it is, for
/// [`ControlPlane::install`] to check in the format's order.
struct SavedPlane {
    /// The wrapper's members other than `"fleet"`, as an object.
    members: Value,
    fleet: FleetCheckpoint,
}

impl FromJson for SavedPlane {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        let mut members = Vec::new();
        let mut fleet = None;
        input.read_object(|input, key| {
            if key == "fleet" {
                input.member(key, &mut fleet)
            } else {
                // Kept in order, duplicates too: a lookup finds the first.
                members.push((key.to_string(), Value::read_json(input)?));
                Ok(())
            }
        })?;
        let fleet = input.take_member("fleet", fleet)?;
        Ok(SavedPlane { members: Value::Object(members), fleet })
    }
}

/// The wrapper's tag and version checks.
fn check_header(doc: &Value) -> Result<(), String> {
    let Some(format) = doc["format"].as_str() else {
        return Err("server checkpoint has no \"format\" string field".into());
    };
    if format != SERVER_CHECKPOINT_FORMAT {
        return Err(format!("not a server checkpoint: format tag {format:?}"));
    }
    let Some(version) = doc["version"].as_u64() else {
        return Err("server checkpoint has no \"version\" number field".into());
    };
    if version != SERVER_CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported server checkpoint version {version} \
             (this build reads version {SERVER_CHECKPOINT_VERSION})"
        ));
    }
    Ok(())
}

/// Why a document the decoder refused was refused, in the format's order:
/// syntax anywhere, the wrapper's tag and version, then the fleet document
/// — which is the only member the decoder reads as a struct, so any other
/// refusal is its. The message for the fleet document is the one
/// [`FleetCheckpoint::parse`] gives for that member alone. Off the fast
/// path: this re-reads the text as a tree.
fn explain_rejection(text: &str, error: &ParseError) -> String {
    let doc = match mop_json::from_str(text) {
        Ok(doc) => doc,
        Err(syntax) => return format!("checkpoint is not valid JSON: {syntax}"),
    };
    if let Err(message) = check_header(&doc) {
        return message;
    }
    match FleetCheckpoint::parse(&mop_json::to_string(&doc["fleet"])) {
        Err(message) => message,
        Ok(_) => format!("server checkpoint is malformed: {}", error.context()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_json::json;

    fn small_plane(shards: usize) -> ControlPlane {
        ControlPlane::new(PlaneConfig { shards, ..PlaneConfig::default() })
    }

    /// The uninterrupted reference: each scenario run whole on one fleet,
    /// everything absorbed into one report.
    fn oracle_digest(shards: usize, scenarios: &[(&str, usize, u64)]) -> u64 {
        let plane = small_plane(shards);
        let mut merged = RunReport::empty();
        for (kind, users, seed) in scenarios {
            let scenario = build_scenario(kind, *users, *seed).unwrap();
            let fleet = plane.build_fleet(scenario.network());
            let mut report = fleet.run(scenario.generate());
            merged.absorb(mem::replace(&mut report.merged, RunReport::empty()));
        }
        merged.canonicalise();
        merged.fleet_digest()
    }

    #[test]
    fn stepped_run_matches_the_batch_oracle() {
        let mut plane = small_plane(2);
        plane.inject("rush-hour", 60, 5).unwrap();
        let reference = oracle_digest(2, &[("rush-hour", 60, 5)]);
        let mut steps = 0;
        while plane.pending_flows() > 0 {
            plane.step(1);
            steps += 1;
            assert!(steps < 1_000, "drain must terminate");
        }
        assert!(steps > 1, "the schedule should span multiple epochs");
        assert_eq!(plane.digest(), reference);
    }

    #[test]
    fn retire_drops_only_future_flows() {
        let mut plane = small_plane(2);
        let (id, flows) = plane.inject("rush-hour", 40, 5).unwrap();
        plane.step(4);
        let ran_before = flows - plane.pending_flows();
        assert!(ran_before > 0, "some flows ran before the retire");
        let dropped = plane.retire(&id).unwrap();
        assert_eq!(dropped + ran_before, flows);
        assert_eq!(plane.pending_flows(), 0);
        assert!(plane.retire(&id).is_err(), "double retire is rejected");
        assert!(plane.retire("s99").is_err(), "unknown id is rejected");
    }

    #[test]
    fn the_cursor_saturates_and_inject_has_a_ceiling() {
        // Embedders call the plane without the dispatcher's range checks:
        // it must hold its own line.
        let mut plane = small_plane(1);
        plane.inject("rush-hour", 10, 5).unwrap();
        assert_eq!(plane.step(u64::MAX).cursor_epoch, MAX_CURSOR_EPOCH);
        assert_eq!(plane.pending_flows(), 0, "a saturated cursor is past every flow");
        assert_eq!(plane.step(u64::MAX).cursor_epoch, MAX_CURSOR_EPOCH);
        assert!(plane.checkpoint()["cursor_epoch"].as_u64().is_some());

        let err = plane.inject("rush-hour", MAX_INJECT_USERS + 1, 5).unwrap_err();
        assert!(err.contains("more than one inject may ask for"), "{err}");
        assert_eq!(plane.live_scenarios(), 1, "the refused inject left no slot");
    }

    #[test]
    fn checkpoint_resume_round_trips_across_shard_counts() {
        let mut plane = small_plane(2);
        plane.inject("rush-hour", 60, 5).unwrap();
        plane.inject("flash-crowd", 30, 9).unwrap();
        plane.step(3);
        let doc = plane.checkpoint();
        plane.step(plane.epochs_to_drain());
        let reference = plane.digest();

        for shards in [1, 4] {
            let mut resumed = small_plane(shards);
            resumed.resume(&doc).unwrap();
            assert_eq!(resumed.cursor_epoch(), 3);
            resumed.step(resumed.epochs_to_drain());
            assert_eq!(resumed.digest(), reference, "resume on {shards} shards");
        }
    }

    #[test]
    fn resume_rejects_incompatible_documents() {
        let mut plane = small_plane(2);
        plane.inject("rush-hour", 20, 5).unwrap();
        let doc = plane.checkpoint();

        let mut busy = small_plane(2);
        busy.inject("rush-hour", 20, 5).unwrap();
        assert!(busy.resume(&doc).unwrap_err().contains("idle plane"));

        let mut other_seed = ControlPlane::new(PlaneConfig { seed: 99, ..PlaneConfig::default() });
        assert!(other_seed.resume(&doc).unwrap_err().contains("seed"));

        let mut other_geometry =
            ControlPlane::new(PlaneConfig { epoch_window: 8, ..PlaneConfig::default() });
        assert!(other_geometry.resume(&doc).unwrap_err().contains("epoch geometry"));

        let mut fresh = small_plane(2);
        assert!(fresh.resume(&json!({"format": "other"})).unwrap_err().contains("format tag"));
        assert!(fresh
            .resume(&json!({"format": "mop-server-checkpoint", "version": 9}))
            .unwrap_err()
            .contains("version 9"));
    }

    /// `doc` with `field` of its first scenario row replaced by `value`.
    fn with_scenario_field(doc: &Value, field: &str, value: Value) -> Value {
        let Value::Object(mut members) = doc.clone() else { panic!("not an object") };
        for (key, member) in &mut members {
            if key == "scenarios" {
                let Value::Array(rows) = member else { panic!("no scenario table") };
                let Value::Object(row) = &mut rows[0] else { panic!("not a row") };
                row.iter_mut().find(|(k, _)| k == field).expect("row has the field").1 = value;
                return Value::Object(members);
            }
        }
        panic!("no scenario table")
    }

    /// The member `key` of a document object, for editing it in place.
    fn member_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Object(members) = value else { panic!("not an object") };
        &mut members.iter_mut().find(|(k, _)| k == key).expect("member present").1
    }

    /// The cumulative report's `samples` or `flows` array in a plane document.
    fn base_array<'a>(doc: &'a mut Value, name: &str) -> &'a mut Vec<Value> {
        let base = member_mut(member_mut(doc, "fleet"), "base");
        let Value::Array(items) = member_mut(base, name) else { panic!("not an array") };
        items
    }

    /// `doc` with the cumulative report's samples and flows out of order.
    fn shuffled(doc: &Value) -> Value {
        let mut doc = doc.clone();
        for name in ["samples", "flows"] {
            let items = base_array(&mut doc, name);
            let third = items.len() / 3;
            items.reverse();
            items.rotate_left(third);
        }
        doc
    }

    #[test]
    fn a_resumed_plane_is_canonical_before_its_first_step() {
        let mut plane = small_plane(2);
        // Co-injected scenarios share four-tuples.
        plane.inject("rush-hour", 60, 5).unwrap();
        plane.inject("flash-crowd", 30, 5).unwrap();
        plane.step(3);
        let doc = plane.checkpoint();
        let text = mop_json::to_string(&doc);
        plane.step(plane.epochs_to_drain());
        let drained = (plane.digest(), mop_json::to_string(&plane.checkpoint()));

        let mut resumed = small_plane(2);
        let out_of_order = shuffled(&doc);
        assert_ne!(mop_json::to_string(&out_of_order), text, "the shuffle moved nothing");
        resumed.resume(&out_of_order).unwrap();
        assert_eq!(mop_json::to_string(&resumed.checkpoint()), text);
        resumed.step(resumed.epochs_to_drain());
        assert_eq!((resumed.digest(), mop_json::to_string(&resumed.checkpoint())), drained);

        // A lean plane keeps no samples; a document may still carry some
        // (canonical here: a fleet run's merged report), and they must come
        // back in order too.
        let scenario = build_scenario("rush-hour", 10, 3).unwrap();
        let fleet = FleetEngine::new(FleetConfig::new(1), scenario.network());
        let run = fleet.run(scenario.generate());
        assert!(run.merged.samples.len() > 2);
        let mut with_samples = doc.clone();
        *base_array(&mut with_samples, "samples") =
            run.merged.samples.iter().map(mop_json::to_value).collect();
        let text = mop_json::to_string(&with_samples);
        let mut in_order = small_plane(2);
        in_order.resume(&with_samples).unwrap();
        let mut out_of_order = small_plane(2);
        out_of_order.resume(&shuffled(&with_samples)).unwrap();
        for plane in [&mut in_order, &mut out_of_order] {
            assert_eq!(mop_json::to_string(&plane.checkpoint()), text);
            plane.step(plane.epochs_to_drain());
        }
        assert_eq!(in_order.digest(), out_of_order.digest());
        assert_eq!(
            mop_json::to_string(&in_order.checkpoint()),
            mop_json::to_string(&out_of_order.checkpoint())
        );
    }

    #[test]
    fn an_out_of_order_pending_list_steps_as_the_sorted_one() {
        let mut plane = small_plane(2);
        plane.inject("rush-hour", 60, 5).unwrap();
        plane.inject("flash-crowd", 30, 9).unwrap();
        plane.step(2);
        let doc = plane.checkpoint();
        // Each scenario's share of the flat pending list, reversed.
        let counts: Vec<usize> = doc["scenarios"]
            .as_array()
            .unwrap()
            .iter()
            .map(|row| row["pending"].as_u64().unwrap() as usize)
            .collect();
        let mut reversed = doc.clone();
        let Value::Array(pending) = member_mut(member_mut(&mut reversed, "fleet"), "pending")
        else {
            panic!("not an array")
        };
        let mut start = 0;
        for count in counts {
            pending[start..start + count].reverse();
            start += count;
        }
        assert_ne!(mop_json::to_string(&reversed), mop_json::to_string(&doc));

        let mut sorted = small_plane(2);
        sorted.resume(&doc).unwrap();
        let mut out_of_order = small_plane(2);
        out_of_order.resume(&reversed).unwrap();
        assert_eq!(out_of_order.epochs_to_drain(), sorted.epochs_to_drain());
        while sorted.pending_flows() > 0 {
            let (a, b) = (sorted.step(1), out_of_order.step(1));
            assert_eq!((a.ran, a.pending, a.digest), (b.ran, b.pending, b.digest));
        }
        plane.step(plane.epochs_to_drain());
        assert_eq!(out_of_order.digest(), plane.digest());
    }

    #[test]
    fn zero_or_too_many_users_are_refused_at_inject_and_at_resume() {
        // A zero-user scenario cannot be built (its constructor asserts), so
        // neither an inject nor a checkpoint row may ask for one; and a row
        // is held to the inject ceiling.
        let mut plane = small_plane(1);
        let err = plane.inject("rush-hour", 0, 5).unwrap_err();
        assert!(err.contains("at least one user"), "{err}");
        assert_eq!(plane.live_scenarios(), 0, "the refused inject left no slot");

        let mut saver = small_plane(1);
        saver.inject("rush-hour", 10, 5).unwrap();
        saver.step(1);
        let good = saver.checkpoint();
        for users in [0, MAX_INJECT_USERS as i64 + 1, i64::MAX] {
            let doc = with_scenario_field(&good, "users", json!(users));
            let err = plane.resume(&doc).unwrap_err();
            assert!(err.contains(&format!("has {users} users")), "{err}");
            assert_eq!(plane.digest_computes(), 0, "a refused resume installs nothing");
            assert_eq!((plane.cursor_epoch(), plane.live_scenarios()), (0, 0));
        }
        plane.resume(&good).unwrap();
        assert_eq!(plane.digest(), saver.digest());
    }
}
