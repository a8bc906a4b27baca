//! Deterministic checkpoint/restore for longitudinal fleet runs.
//!
//! A longitudinal run (days of virtual time, millions of flows) should be
//! interruptible: save the fleet's state at an epoch boundary, stop the
//! process, and later resume on a machine with a *different* shard count —
//! and still produce the exact report the uninterrupted run would have.
//!
//! # The flow-schedule cut
//!
//! The fleet runs over [`mop_simnet::NetKeying::FlowKeyed`] networks: every
//! flow's RNG streams, link reservations, writer lane and source endpoint are
//! pure functions of `(seed, four-tuple)`, so the merged report of any
//! *partition* of a flow set equals the report of the unpartitioned set (this
//! is the same invariance that makes 1/2/8-shard digests identical, pinned by
//! `tests/fleet_determinism.rs`). A checkpoint exploits it by partitioning
//! the flow *schedule* at a cut time `T`:
//!
//! ```text
//!  flows with spec.at <  T   →  run now, fold into the checkpoint's base
//!  flows with spec.at >= T   →  carried verbatim as the pending set
//! ```
//!
//! [`FleetCheckpoint::capture`] runs the first part and serialises the merged
//! [`RunReport`] plus the pending flow specs; [`FleetCheckpoint::resume`]
//! runs the pending part on a fresh fleet (any shard count) and absorbs the
//! base back in. By partition invariance the resumed
//! [`FleetReport`] digest is bit-identical to the uninterrupted run's —
//! `tests/checkpoint_restore.rs` pins exactly that across shard counts
//! and lossy networks.
//!
//! Cutting at an *epoch boundary* (a multiple of
//! [`crate::config::MopEyeConfig::epoch_width`]) keeps the windowed epoch
//! sketches clean too: a flow started before the boundary may still produce
//! samples after it, and those fold into the correct epoch because the
//! windowed merge is keyed by sample timestamp, not by which phase ran the
//! flow.
//!
//! # What the format carries
//!
//! The JSON checkpoint (format version [`CHECKPOINT_FORMAT_VERSION`])
//! serialises the report's *semantic* content — samples, streaming and
//! windowed aggregates, relay/TUN counters, flow outcomes, finish time and
//! event counts — exactly the fields [`RunReport::fleet_digest`] covers,
//! plus the run parameters resume must reproduce (seed, congestion
//! algorithm, epoch geometry). Resource accounting (CPU ledger, pool and
//! mapping statistics) is partition-specific
//! bookkeeping, excluded from the digest, and deliberately **not**
//! checkpointed: those fields restore as zeroed defaults.
//!
//! # The codec
//!
//! Every type in the document — [`FleetCheckpoint`] itself, [`RunReport`],
//! its samples, outcomes and counters, the sketch stores, the flow specs
//! and their endpoints — implements `mop_json`'s [`ToJson`] / [`FromJson`]
//! pair, so a checkpoint goes between structs and bytes in one pass each
//! way, with no `Value` tree in between. Callers that want a tree (the
//! server's inline checkpoints, streamed report deltas) get it from the
//! same impls through `mop_json::to_value` / `from_value`.

use mop_json::{FromJson, Hex, JsonReader, JsonWrite, ParseError, ToJson};
use mop_simnet::SimTime;
use mop_tcpstack::CongestionAlgo;
use mop_tun::FlowSpec;

use crate::report::RunReport;
use crate::shard::{FleetEngine, FleetReport};

/// Version tag written into every checkpoint; [`FleetCheckpoint::parse`]
/// rejects anything else.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 1;

/// The `"format"` tag of a fleet checkpoint document.
const FORMAT_TAG: &str = "mopeye-fleet-checkpoint";

/// A saved fleet run: everything needed to resume at the cut and reproduce
/// the uninterrupted run's report bit for bit. See the [module docs](self).
#[derive(Debug)]
pub struct FleetCheckpoint {
    /// Engine seed the run used (flow-keyed streams derive from it; resume
    /// must run under the same seed).
    pub seed: u64,
    /// Shard count at save time. Informational only — resume may use any.
    pub shards_at_save: usize,
    /// Congestion-control algorithm of the run.
    pub congestion: CongestionAlgo,
    /// Epoch width of the windowed aggregates, if the run enabled them.
    pub epoch_width_ns: Option<u64>,
    /// Live-epoch window length of the windowed aggregates.
    pub epoch_window: usize,
    /// The cut time: flows scheduled strictly before it are folded into
    /// [`FleetCheckpoint::base`]; the rest are pending.
    pub cut: SimTime,
    /// The merged report of everything that ran before the cut.
    pub base: RunReport,
    /// Flow specs scheduled at or after the cut, still to run.
    pub pending: Vec<FlowSpec>,
}

impl FleetCheckpoint {
    /// Runs the pre-cut part of `flows` on `fleet` and captures a
    /// checkpoint at `cut`: flows with `spec.at < cut` run to completion and
    /// their merged report becomes the base; the rest are carried pending.
    ///
    /// For clean epoch windows, `cut` should be an epoch boundary (a
    /// multiple of the configured epoch width) — [`epoch_boundary`] helps.
    pub fn capture(fleet: &FleetEngine, flows: Vec<FlowSpec>, cut: SimTime) -> Self {
        let (ran, pending) = split_at(flows, cut);
        let report = fleet.run(ran);
        let engine = &fleet.config().engine;
        Self {
            seed: engine.seed,
            shards_at_save: fleet.config().shards,
            congestion: engine.congestion,
            epoch_width_ns: engine.epoch_width.map(|w| w.as_nanos()),
            epoch_window: engine.epoch_window,
            cut,
            base: report.merged,
            pending,
        }
    }

    /// Runs the pending flows on `fleet` (any shard count) and folds the
    /// base back in, producing the report the uninterrupted run would have.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is configured incompatibly with the saved run —
    /// different seed, congestion algorithm or epoch geometry. (The shard
    /// count may differ freely: the merged report is invariant to it.)
    /// `FleetCheckpoint::try_resume` is the non-panicking variant
    /// long-lived callers should prefer.
    pub fn resume(self, fleet: &FleetEngine) -> FleetReport {
        self.try_resume(fleet).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Like [`FleetCheckpoint::resume`], but reports an incompatible fleet
    /// configuration as a descriptive error instead of panicking — the
    /// entry point for servers that must survive a bad resume request.
    pub(crate) fn try_resume(self, fleet: &FleetEngine) -> Result<FleetReport, String> {
        let engine = &fleet.config().engine;
        if engine.seed != self.seed {
            return Err(format!(
                "resume requires the saved seed {:#018x}, fleet has {:#018x}",
                self.seed, engine.seed
            ));
        }
        if engine.congestion != self.congestion {
            return Err(format!(
                "resume requires the saved congestion algorithm {}, fleet has {}",
                congestion_str(self.congestion),
                congestion_str(engine.congestion)
            ));
        }
        if engine.epoch_width.map(|w| w.as_nanos()) != self.epoch_width_ns {
            return Err(format!(
                "resume requires the saved epoch width {:?} ns, fleet has {:?} ns",
                self.epoch_width_ns,
                engine.epoch_width.map(|w| w.as_nanos())
            ));
        }
        if self.epoch_width_ns.is_some() && engine.epoch_window != self.epoch_window {
            return Err(format!(
                "resume requires the saved epoch window {}, fleet has {}",
                self.epoch_window, engine.epoch_window
            ));
        }
        self.check_windows()?;
        let mut resumed = fleet.run(self.pending);
        let mut merged = self.base;
        merged.absorb(std::mem::replace(&mut resumed.merged, RunReport::empty()));
        merged.canonicalise();
        resumed.merged = merged;
        Ok(resumed)
    }

    /// Checks that the base report's windowed store has the geometry the
    /// header declares (clamped to at least 1, as the sink builds it). A
    /// store of another geometry cannot be merged with what the resumed run
    /// produces, so a document that disagrees with itself is refused here
    /// rather than failing the merge.
    pub fn check_windows(&self) -> Result<(), String> {
        let Some(windows) = &self.base.windows else { return Ok(()) };
        if Some(windows.width_ns()) != self.epoch_width_ns.map(|w| w.max(1))
            || windows.window_len() != self.epoch_window.max(1)
        {
            return Err(format!(
                "checkpoint's windowed aggregates ({} ns x {} epochs) disagree with its epoch \
                 geometry ({:?} ns x {} epochs)",
                windows.width_ns(),
                windows.window_len(),
                self.epoch_width_ns,
                self.epoch_window
            ));
        }
        Ok(())
    }

    /// The checkpoint as a compact JSON string (the on-disk format),
    /// written from its fields into a buffer sized up front. The readers
    /// take any JSON layout, so pretty documents written by older builds
    /// still load.
    pub fn to_json_string(&self) -> String {
        mop_json::to_string(self)
    }

    /// Parses a checkpoint from its on-disk JSON string. `None` on invalid
    /// JSON, a wrong format tag, an unknown version, or any structural
    /// mismatch; [`FleetCheckpoint::parse`] says which.
    pub fn from_json_str(text: &str) -> Option<Self> {
        mop_json::decode(text).ok()
    }

    /// Parses a checkpoint from its on-disk JSON string, describing *why* a
    /// rejected document was rejected — truncated JSON, a foreign format
    /// tag, an unknown version, or a structurally malformed body, with the
    /// member that failed. The server's `fleet.resume` surfaces these
    /// messages to clients verbatim.
    pub fn parse(text: &str) -> Result<Self, String> {
        mop_json::decode(text).map_err(|error| explain_rejection(text, &error))
    }
}

/// Why `text` was rejected, checked in the order a reader would: syntax
/// anywhere in the text, then the format tag, then the version, and only
/// then the body `error` the decoder stopped at. The decoder reads in
/// document order and stops at the first problem, so the first three are
/// re-checked here, off the fast path, on the parsed tree.
fn explain_rejection(text: &str, error: &ParseError) -> String {
    let value = match mop_json::from_str(text) {
        Ok(value) => value,
        Err(syntax) => return format!("checkpoint is not valid JSON: {syntax}"),
    };
    if let Err(message) = check_header(value["format"].as_str(), value["version"].as_u64()) {
        return message;
    }
    format!("checkpoint body is malformed (missing or mistyped field): {}", error.context())
}

/// The format tag and version checks every checkpoint reader applies first.
fn check_header(format: Option<&str>, version: Option<u64>) -> Result<(), String> {
    let Some(format) = format else {
        return Err("checkpoint has no \"format\" string field".into());
    };
    if format != FORMAT_TAG {
        return Err(format!("not a fleet checkpoint: format tag {format:?}"));
    }
    let Some(version) = version else {
        return Err("checkpoint has no \"version\" number field".into());
    };
    if version != CHECKPOINT_FORMAT_VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} \
             (this build reads version {CHECKPOINT_FORMAT_VERSION})"
        ));
    }
    Ok(())
}

/// The scalar part of a checkpoint document: the run parameters resume must
/// reproduce, and the cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointHeader {
    /// See [`FleetCheckpoint::seed`].
    pub seed: u64,
    /// See [`FleetCheckpoint::shards_at_save`].
    pub shards_at_save: usize,
    /// See [`FleetCheckpoint::congestion`].
    pub congestion: CongestionAlgo,
    /// See [`FleetCheckpoint::epoch_width_ns`].
    pub epoch_width_ns: Option<u64>,
    /// See [`FleetCheckpoint::epoch_window`].
    pub epoch_window: usize,
    /// See [`FleetCheckpoint::cut`].
    pub cut: SimTime,
}

/// A checkpoint document over borrowed parts: a header, the merged report
/// of everything that ran before the cut, and the flow specs still to run,
/// in order. [`FleetCheckpoint`] encodes through it, and so does a holder of
/// a report and pending specs that are not a `FleetCheckpoint` (the
/// server's control plane) — nothing is cloned on the way out, and both
/// write the same document.
#[derive(Debug, Clone)]
pub struct CheckpointRef<'a, P> {
    /// The run parameters and the cut.
    pub header: CheckpointHeader,
    /// The report of everything before the cut.
    pub base: &'a RunReport,
    /// The pending flow specs, in order; iterated once per encoding.
    pub pending: P,
}

impl<'a, P> ToJson for CheckpointRef<'a, P>
where
    P: Iterator<Item = &'a FlowSpec> + Clone,
{
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        let header = &self.header;
        out.begin_object();
        out.field("format", FORMAT_TAG);
        out.field("version", &CHECKPOINT_FORMAT_VERSION);
        out.field("seed", &Hex(header.seed));
        out.field("shards_at_save", &header.shards_at_save);
        out.field("congestion", congestion_str(header.congestion));
        out.field("epoch_width_ns", &header.epoch_width_ns);
        out.field("epoch_window", &header.epoch_window);
        out.field("cut_ns", &header.cut.as_nanos());
        out.field("base", self.base);
        out.key("pending");
        out.array(self.pending.clone());
        out.end_object();
    }

    /// Sized from the counts of what the document holds, so a
    /// multi-megabyte checkpoint is written into one allocation.
    fn size_hint(&self) -> usize {
        pretty_size_hint(self.base, self.pending.clone().count())
    }
}

impl ToJson for FleetCheckpoint {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        self.as_ref().write_json(out);
    }

    fn size_hint(&self) -> usize {
        self.as_ref().size_hint()
    }
}

impl FleetCheckpoint {
    /// The checkpoint as the borrowed document it encodes through.
    fn as_ref(&self) -> CheckpointRef<'_, std::slice::Iter<'_, FlowSpec>> {
        let header = CheckpointHeader {
            seed: self.seed,
            shards_at_save: self.shards_at_save,
            congestion: self.congestion,
            epoch_width_ns: self.epoch_width_ns,
            epoch_window: self.epoch_window,
            cut: self.cut,
        };
        CheckpointRef { header, base: &self.base, pending: self.pending.iter() }
    }
}

impl FromJson for FleetCheckpoint {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        mop_json::read_members!(input, {
            "format" => format: Option<String>,
            "version" => version: Option<u64>,
            "seed" => seed: Hex<u64>,
            "shards_at_save" => shards_at_save,
            "congestion" => congestion: String,
            "epoch_width_ns" => epoch_width_ns,
            "epoch_window" => epoch_window,
            "cut_ns" => cut_ns,
            "base" => base,
            "pending" => pending,
        });
        check_header(format.as_deref(), version).map_err(|message| input.error(message))?;
        let congestion = congestion_from_str(&congestion).ok_or_else(|| {
            input.error(format!("unknown congestion algorithm {congestion:?}")).within("congestion")
        })?;
        Ok(Self {
            seed: seed.0,
            shards_at_save,
            congestion,
            epoch_width_ns,
            epoch_window,
            cut: SimTime::from_nanos(cut_ns),
            base,
            pending,
        })
    }
}

/// Roughly what the pretty rendering of a checkpoint over `base` and
/// `pending` specs takes, from per-item sizes measured on rush-hour and
/// diurnal checkpoints (indentation included) — a slight overestimate, so
/// the buffer is allocated once and never re-grown. The compact on-disk
/// rendering takes about half of it; one hint serves both layouts.
fn pretty_size_hint(base: &RunReport, pending: usize) -> usize {
    const FIXED: usize = 4 << 10;
    const PER_SPEC: usize = 490;
    const PER_OUTCOME: usize = 470;
    const PER_SAMPLE: usize = 900;
    const PER_CELL: usize = 420;
    const PER_BUCKET: usize = 96;
    let cells = |store: &mop_measure::AggregateStore| {
        store
            .cells()
            .map(|(key, sketch)| {
                PER_CELL
                    + key.app.len()
                    + key.domain.len()
                    + key.isp.len()
                    + PER_BUCKET * sketch.occupied_buckets()
            })
            .sum::<usize>()
    };
    let windows = base.windows.as_ref().map_or(0, |w| {
        cells(w.folded())
            + w.live_epochs().into_iter().filter_map(|e| w.epoch_store(e)).map(cells).sum::<usize>()
    });
    FIXED
        + PER_SPEC * pending
        + PER_OUTCOME * base.flows.len()
        + PER_SAMPLE * base.samples.len()
        + cells(&base.aggregates)
        + windows
}

/// Splits a flow schedule at `cut`: `(ran, pending)` where `ran` holds every
/// spec with `at < cut` (order preserved) and `pending` the rest.
pub fn split_at(flows: Vec<FlowSpec>, cut: SimTime) -> (Vec<FlowSpec>, Vec<FlowSpec>) {
    let mut ran = Vec::new();
    let mut pending = Vec::new();
    for spec in flows {
        if spec.at < cut {
            ran.push(spec);
        } else {
            pending.push(spec);
        }
    }
    (ran, pending)
}

/// The start of epoch `epoch` under `width_ns`-wide epochs — the canonical
/// cut times for [`FleetCheckpoint::capture`].
pub fn epoch_boundary(width_ns: u64, epoch: u64) -> SimTime {
    SimTime::from_nanos(width_ns.max(1).saturating_mul(epoch))
}

/// The congestion algorithm's checkpoint tag.
fn congestion_str(congestion: CongestionAlgo) -> &'static str {
    match congestion {
        CongestionAlgo::Reno => "Reno",
        CongestionAlgo::Cubic => "Cubic",
    }
}

fn congestion_from_str(tag: &str) -> Option<CongestionAlgo> {
    match tag {
        "Reno" => Some(CongestionAlgo::Reno),
        "Cubic" => Some(CongestionAlgo::Cubic),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_measure::{NetKind, WindowedAggregateStore};
    use mop_packet::{Endpoint, FourTuple};
    use mop_simnet::SimDuration;
    use mop_tun::FlowKind;

    use crate::stats::{FlowOutcome, RttSample, SampleKind};

    fn sample() -> RttSample {
        RttSample {
            kind: SampleKind::Tcp,
            flow: FourTuple::new(
                Endpoint::v4(10, 0, 0, 2, 40_001),
                Endpoint::v4(216, 58, 221, 132, 443),
            ),
            uid: Some(10_100),
            package: Some("com.android.chrome".into()),
            domain: Some("www.google.com".into()),
            measured_ms: 37.125,
            true_ms: 36.0625,
            tcpdump_ms: Some(37.0),
            at: SimTime::from_millis(1234),
        }
    }

    fn spec() -> FlowSpec {
        FlowSpec {
            at: SimTime::from_millis(5),
            uid: 10_200,
            package: "com.google.android.youtube".into(),
            src: Some(Endpoint::v4(10, 0, 1, 7, 30_004)),
            dst: Endpoint::v4(31, 13, 95, 36, 443),
            domain: Some("video.example.com".into()),
            request_bytes: 400,
            close_after: 64 * 1024,
            kind: FlowKind::Tcp,
            network: Some(NetKind::Lte),
            isp: Some("CMHK".into()),
        }
    }

    /// Encodes and decodes through the compact text form.
    fn round_trip<T: ToJson + FromJson>(value: &T) -> T {
        mop_json::decode(&mop_json::to_string(value)).unwrap()
    }

    #[test]
    fn sample_round_trips_bit_identically() {
        let original = sample();
        assert_eq!(original, round_trip(&original));

        let mut sparse = original;
        sparse.uid = None;
        sparse.package = None;
        sparse.domain = None;
        sparse.tcpdump_ms = None;
        sparse.kind = SampleKind::Dns;
        assert_eq!(sparse, round_trip(&sparse));
    }

    #[test]
    fn flow_spec_round_trips() {
        let original = spec();
        assert_eq!(original, round_trip(&original));

        let mut sparse = original;
        sparse.src = None;
        sparse.domain = None;
        sparse.network = None;
        sparse.isp = None;
        sparse.kind = FlowKind::Dns;
        assert_eq!(sparse, round_trip(&sparse));

        let ipv6: std::net::IpAddr = "2001:db8::7".parse().unwrap();
        sparse.dst = Endpoint::new(ipv6, 53);
        assert_eq!(sparse, round_trip(&sparse));
    }

    #[test]
    fn mistyped_or_unknown_labels_are_rejected_not_restored_as_none() {
        // A label that silently restores as `None` re-labels the flow's
        // samples: the checkpoint would load, and resume to a wrong digest.
        let good = mop_json::to_string(&spec());
        assert!(mop_json::decode::<FlowSpec>(&good).is_ok());
        for (field, bad) in [
            ("\"network\":\"Lte\"", "\"network\":\"LTE\""),
            ("\"network\":\"Lte\"", "\"network\":3"),
            ("\"domain\":\"video.example.com\"", "\"domain\":7"),
            ("\"isp\":\"CMHK\"", "\"isp\":{\"name\":\"CMHK\"}"),
        ] {
            assert!(good.contains(field), "{good}");
            let doc = good.replace(field, bad);
            assert!(mop_json::decode::<FlowSpec>(&doc).is_err(), "flow spec accepted {bad}");
        }
        let good = mop_json::to_string(&sample());
        for field in ["\"package\":\"com.android.chrome\"", "\"domain\":\"www.google.com\""] {
            assert!(good.contains(field), "{good}");
            let key = field.split(':').next().unwrap();
            let doc = good.replace(field, &format!("{key}:1.5"));
            assert!(mop_json::decode::<RttSample>(&doc).is_err(), "sample accepted a bad {key}");
        }
    }

    #[test]
    fn report_round_trip_preserves_the_fleet_digest() {
        let mut report = RunReport::empty();
        report.samples.push(sample());
        report.aggregates.observe_parts(
            mop_measure::MeasurementKind::Tcp,
            NetKind::Lte,
            "com.android.chrome",
            "www.google.com",
            "CMHK",
            7,
            "",
            37.125,
        );
        let mut windows = WindowedAggregateStore::new(1_000_000_000, 4);
        windows.observe_parts(
            1_234_000_000,
            mop_measure::MeasurementKind::Tcp,
            NetKind::Lte,
            "com.android.chrome",
            "www.google.com",
            "CMHK",
            7,
            "",
            37.125,
        );
        report.windows = Some(windows);
        report.relay.syns = 3;
        report.relay.bytes_in = 98_304;
        report.relay.sink_stalls = 17; // wall-clock noise: not checkpointed
        report.tun.packets_from_apps = 11;
        report.flows.push(FlowOutcome {
            flow: sample().flow,
            package: "com.android.chrome".into(),
            started_at: SimTime::from_millis(5),
            finished_at: SimTime::from_millis(1300),
            bytes_received: 4096,
            completed: true,
        });
        report.finished_at = SimTime::from_millis(1300);
        report.events_processed = 42;
        report.events_scheduled = 50;

        let restored = round_trip(&report);
        assert_eq!(report.fleet_digest(), restored.fleet_digest());
        assert_eq!(report.samples, restored.samples);
        assert_eq!(report.relay, restored.relay); // sink_stalls excluded from eq
        assert_eq!(restored.relay.sink_stalls, 0);
        assert_eq!(report.windows, restored.windows);
        assert_eq!(report.events_scheduled, restored.events_scheduled);
        // The tree the same impls build is what the text reads back as.
        let tree = mop_json::to_value(&report);
        assert_eq!(mop_json::from_str(&mop_json::to_string(&report)).unwrap(), tree);
        let from_tree: RunReport = mop_json::from_value(&tree).unwrap();
        assert_eq!(from_tree.fleet_digest(), report.fleet_digest());
    }

    #[test]
    fn checkpoint_document_round_trips_through_text() {
        let checkpoint = FleetCheckpoint {
            seed: 0xdead_beef_cafe_f00d,
            shards_at_save: 4,
            congestion: CongestionAlgo::Cubic,
            epoch_width_ns: Some(60_000_000_000),
            epoch_window: 16,
            cut: SimTime::from_secs(120),
            base: RunReport::empty(),
            pending: vec![spec()],
        };
        let text = checkpoint.to_json_string();
        let restored = FleetCheckpoint::from_json_str(&text).unwrap();
        assert_eq!(restored.seed, checkpoint.seed);
        assert_eq!(restored.shards_at_save, 4);
        assert_eq!(restored.congestion, CongestionAlgo::Cubic);
        assert_eq!(restored.epoch_width_ns, Some(60_000_000_000));
        assert_eq!(restored.epoch_window, 16);
        assert_eq!(restored.cut, checkpoint.cut);
        assert_eq!(restored.pending, checkpoint.pending);
        assert_eq!(restored.base.fleet_digest(), checkpoint.base.fleet_digest());
        assert!(text.len() <= checkpoint.size_hint(), "the buffer is sized up front");

        assert!(FleetCheckpoint::from_json_str("{\"format\":\"other\"}").is_none());
    }

    #[test]
    fn parse_rejects_broken_documents_with_descriptive_errors() {
        let good = FleetCheckpoint {
            seed: 7,
            shards_at_save: 2,
            congestion: CongestionAlgo::Reno,
            epoch_width_ns: Some(1_000_000_000),
            epoch_window: 8,
            cut: SimTime::from_secs(4),
            base: RunReport::empty(),
            pending: vec![spec()],
        }
        .to_json_string();
        assert!(FleetCheckpoint::parse(&good).is_ok());

        // Truncated JSON: the parse error names the syntax failure.
        let truncated = &good[..good.len() / 2];
        let err = FleetCheckpoint::parse(truncated).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");

        // Foreign format tag.
        let err = FleetCheckpoint::parse("{\"format\": \"something-else\"}").unwrap_err();
        assert!(err.contains("format tag \"something-else\""), "{err}");

        // Missing format field entirely.
        let err = FleetCheckpoint::parse("{}").unwrap_err();
        assert!(err.contains("no \"format\""), "{err}");

        // Unknown version.
        let future = good.replace("\"version\":1", "\"version\":999");
        let err = FleetCheckpoint::parse(&future).unwrap_err();
        assert!(err.contains("version 999"), "{err}");

        // Mistyped body field (seed must be a hex string).
        let mistyped = good.replace("\"seed\":\"0000000000000007\"", "\"seed\":7");
        let err = FleetCheckpoint::parse(&mistyped).unwrap_err();
        assert!(err.contains("malformed") && err.contains("seed: expected a string"), "{err}");

        // An unknown network tag on a pending flow (a flipped byte): the
        // message names the member.
        assert!(good.contains("\"network\":\"Lte\""), "{good}");
        let relabelled = good.replace("\"network\":\"Lte\"", "\"network\":\"LTE\"");
        let err = FleetCheckpoint::parse(&relabelled).unwrap_err();
        assert!(err.contains("malformed") && err.contains("pending[0].network"), "{err}");

        // A syntax error late in the document outranks a body error early
        // in it, and a bad header outranks a bad body.
        let both = mistyped.replacen('}', "", 1);
        assert!(FleetCheckpoint::parse(&both).unwrap_err().contains("not valid JSON"));
        let both = mistyped.replace("\"version\":1", "\"version\":2");
        assert!(FleetCheckpoint::parse(&both).unwrap_err().contains("version 2"));
    }

    #[test]
    fn a_pending_request_too_large_for_one_segment_is_refused() {
        let good = FleetCheckpoint {
            seed: 7,
            shards_at_save: 2,
            congestion: CongestionAlgo::Reno,
            epoch_width_ns: None,
            epoch_window: 8,
            cut: SimTime::from_secs(4),
            base: RunReport::empty(),
            pending: vec![spec()],
        }
        .to_json_string();
        assert!(FleetCheckpoint::from_json_str(&good).is_some());
        assert!(good.contains("\"request_bytes\":400"), "{good}");
        let oversized = good.replace("\"request_bytes\":400", "\"request_bytes\":70000");
        assert!(FleetCheckpoint::from_json_str(&oversized).is_none());
        let err = FleetCheckpoint::parse(&oversized).unwrap_err();
        assert!(err.contains("malformed") && err.contains("pending[0].request_bytes"), "{err}");
    }

    #[test]
    fn try_resume_rejects_mismatched_fleets_without_panicking() {
        use crate::shard::{FleetConfig, FleetEngine};
        use mop_simnet::SimNetwork;

        let checkpoint = || FleetCheckpoint {
            seed: 7,
            shards_at_save: 2,
            congestion: CongestionAlgo::Reno,
            epoch_width_ns: Some(1_000_000_000),
            epoch_window: 8,
            cut: SimTime::from_secs(4),
            base: RunReport::empty(),
            pending: Vec::new(),
        };
        let fleet_with = |config: FleetConfig| {
            FleetEngine::new(config, SimNetwork::builder().seed(7).with_table2_destinations())
        };
        let epochs = |config: FleetConfig| config.with_epochs(SimDuration::from_secs(1), 8);

        // Wrong seed.
        let fleet = fleet_with(epochs(FleetConfig::new(1).with_seed(8)));
        let err = checkpoint().try_resume(&fleet).unwrap_err();
        assert!(err.contains("saved seed"), "{err}");

        // Wrong congestion algorithm.
        let fleet = fleet_with(epochs(
            FleetConfig::new(1).with_seed(7).with_congestion(CongestionAlgo::Cubic),
        ));
        let err = checkpoint().try_resume(&fleet).unwrap_err();
        assert!(err.contains("congestion"), "{err}");

        // Wrong epoch width (epoch-less fleet vs a windowed checkpoint).
        let fleet = fleet_with(FleetConfig::new(1).with_seed(7));
        let err = checkpoint().try_resume(&fleet).unwrap_err();
        assert!(err.contains("epoch width"), "{err}");

        // Wrong epoch window.
        let fleet =
            fleet_with(FleetConfig::new(1).with_seed(7).with_epochs(SimDuration::from_secs(1), 4));
        let err = checkpoint().try_resume(&fleet).unwrap_err();
        assert!(err.contains("epoch window"), "{err}");

        // A base whose windowed store disagrees with the header would fail
        // the merge: refused up front.
        let fleet = fleet_with(epochs(FleetConfig::new(1).with_seed(7)));
        let mut torn = checkpoint();
        torn.base.windows = Some(WindowedAggregateStore::new(1_000_000_000, 4));
        let err = torn.try_resume(&fleet).unwrap_err();
        assert!(err.contains("disagree with its epoch geometry"), "{err}");
        // ...while a zero-width header describes the 1 ns store the sink
        // clamps it to.
        let windows = Some(WindowedAggregateStore::new(0, 8));
        let zero_width = FleetCheckpoint {
            epoch_width_ns: Some(0),
            base: RunReport { windows, ..RunReport::empty() },
            ..checkpoint()
        };
        assert!(zero_width.check_windows().is_ok());

        // A matching fleet resumes cleanly (empty pending set: base only).
        assert!(checkpoint().try_resume(&fleet).is_ok());
    }

    #[test]
    fn split_at_partitions_by_start_time() {
        let mut flows = Vec::new();
        for ms in [0u64, 10, 99, 100, 101, 500] {
            let mut f = spec();
            f.at = SimTime::from_millis(ms);
            flows.push(f);
        }
        let (ran, pending) = split_at(flows, SimTime::from_millis(100));
        assert_eq!(ran.len(), 3);
        assert_eq!(pending.len(), 3);
        assert!(ran.iter().all(|f| f.at < SimTime::from_millis(100)));
        assert!(pending.iter().all(|f| f.at >= SimTime::from_millis(100)));
    }

    #[test]
    fn epoch_boundary_is_a_multiple_of_the_width() {
        let width = SimDuration::from_secs(60).as_nanos();
        assert_eq!(epoch_boundary(width, 0), SimTime::ZERO);
        assert_eq!(epoch_boundary(width, 3), SimTime::from_secs(180));
    }
}
