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
//! `tests/checkpoint_restore.rs` pins exactly that across shard counts,
//! batch sizes and lossy networks.
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
//! mapping statistics, write-delay histograms) is partition-specific
//! bookkeeping, excluded from the digest, and deliberately **not**
//! checkpointed: those fields restore as zeroed defaults.

use std::net::IpAddr;

use mop_json::{json, Value};
use mop_measure::{AggregateStore, NetKind, WindowedAggregateStore};
use mop_packet::{Endpoint, FourTuple};
use mop_simnet::SimTime;
use mop_tcpstack::CongestionAlgo;
use mop_tun::{FlowKind, FlowSpec, TunStats};

use crate::report::RunReport;
use crate::shard::{FleetEngine, FleetReport};
use crate::stats::{FlowOutcome, RelayStats, RttSample, SampleKind};

/// Version tag written into every checkpoint; [`FleetCheckpoint::from_json`]
/// rejects anything else.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 1;

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
    /// different seed, congestion algorithm or epoch geometry. (Shard count
    /// and batch size may differ freely: the merged report is invariant to
    /// both.) [`FleetCheckpoint::try_resume`] is the non-panicking variant
    /// long-lived callers should prefer.
    pub fn resume(self, fleet: &FleetEngine) -> FleetReport {
        self.try_resume(fleet).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Like [`FleetCheckpoint::resume`], but reports an incompatible fleet
    /// configuration as a descriptive error instead of panicking — the
    /// entry point for servers that must survive a bad resume request.
    pub fn try_resume(self, fleet: &FleetEngine) -> Result<FleetReport, String> {
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
        let mut resumed = fleet.run(self.pending);
        let mut merged = self.base;
        merged.absorb(std::mem::replace(&mut resumed.merged, RunReport::empty()));
        merged.canonicalise();
        resumed.merged = merged;
        Ok(resumed)
    }

    /// Serialises the checkpoint to its JSON document (through
    /// [`checkpoint_to_json`], the one encoder).
    pub fn to_json(&self) -> Value {
        let header = CheckpointHeader {
            seed: self.seed,
            shards_at_save: self.shards_at_save,
            congestion: self.congestion,
            epoch_width_ns: self.epoch_width_ns,
            epoch_window: self.epoch_window,
            cut: self.cut,
        };
        checkpoint_to_json(&header, &self.base, &self.pending)
    }

    /// Parses a checkpoint back from its JSON document. Returns `None` on a
    /// wrong format tag, unknown version, or any structural mismatch.
    pub fn from_json(value: &Value) -> Option<Self> {
        if value["format"].as_str()? != "mopeye-fleet-checkpoint" {
            return None;
        }
        if value["version"].as_u64()? != CHECKPOINT_FORMAT_VERSION {
            return None;
        }
        let pending = value["pending"]
            .as_array()?
            .iter()
            .map(flow_spec_from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            seed: u64::from_str_radix(value["seed"].as_str()?, 16).ok()?,
            shards_at_save: value["shards_at_save"].as_u64()? as usize,
            congestion: congestion_from_str(value["congestion"].as_str()?)?,
            epoch_width_ns: if value["epoch_width_ns"].is_null() {
                None
            } else {
                Some(value["epoch_width_ns"].as_u64()?)
            },
            epoch_window: value["epoch_window"].as_u64()? as usize,
            cut: SimTime::from_nanos(value["cut_ns"].as_u64()?),
            base: run_report_from_json(&value["base"])?,
            pending,
        })
    }

    /// The checkpoint as a pretty-printed JSON string (the on-disk format).
    pub fn to_json_string(&self) -> String {
        mop_json::to_string_pretty(&self.to_json())
    }

    /// Parses a checkpoint from its on-disk JSON string.
    pub fn from_json_str(text: &str) -> Option<Self> {
        Self::from_json(&mop_json::from_str(text).ok()?)
    }

    /// Parses a checkpoint from its on-disk JSON string, describing *why* a
    /// rejected document was rejected — truncated JSON, a foreign format
    /// tag, an unknown version, or a structurally malformed body. The
    /// server's `fleet.resume` surfaces these messages to clients verbatim.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = mop_json::from_str(text)
            .map_err(|e| format!("checkpoint is not valid JSON: {e}"))?;
        Self::parse_value(&value)
    }

    /// [`FleetCheckpoint::parse`] for a document that is already parsed:
    /// the same checks, the same messages, no text in between. A holder of
    /// an embedding document (the server checkpoint's `"fleet"` member)
    /// hands the member in directly instead of printing and re-reading it.
    pub fn parse_value(value: &Value) -> Result<Self, String> {
        let Some(format) = value["format"].as_str() else {
            return Err("checkpoint has no \"format\" string field".into());
        };
        if format != "mopeye-fleet-checkpoint" {
            return Err(format!("not a fleet checkpoint: format tag {format:?}"));
        }
        let Some(version) = value["version"].as_u64() else {
            return Err("checkpoint has no \"version\" number field".into());
        };
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} \
                 (this build reads version {CHECKPOINT_FORMAT_VERSION})"
            ));
        }
        Self::from_json(value)
            .ok_or_else(|| "checkpoint body is malformed (missing or mistyped field)".into())
    }
}

/// The scalar part of a checkpoint document: the run parameters resume must
/// reproduce, and the cut. [`checkpoint_to_json`] takes it beside a borrowed
/// report and borrowed flow specs, so a caller that already holds those (the
/// server's control plane) encodes them where they are.
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

/// The checkpoint encoder: `header`, the merged report of everything that
/// ran before the cut, and the flow specs still to run, in order. Nothing is
/// cloned on the way in; [`FleetCheckpoint::to_json`] is this function over
/// its own fields, so both produce the same document.
pub fn checkpoint_to_json<'a>(
    header: &CheckpointHeader,
    base: &RunReport,
    pending: impl IntoIterator<Item = &'a FlowSpec>,
) -> Value {
    let pending: Vec<Value> = pending.into_iter().map(flow_spec_to_json).collect();
    json!({
        "format": "mopeye-fleet-checkpoint",
        "version": CHECKPOINT_FORMAT_VERSION as i64,
        "seed": format!("{:016x}", header.seed),
        "shards_at_save": header.shards_at_save as i64,
        "congestion": congestion_str(header.congestion),
        "epoch_width_ns": match header.epoch_width_ns {
            Some(w) => Value::from(w as i64),
            None => Value::Null,
        },
        "epoch_window": header.epoch_window as i64,
        "cut_ns": header.cut.as_nanos() as i64,
        "base": run_report_to_json(base),
        "pending": pending,
    })
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

// ----- report serialisation ------------------------------------------------

/// Serialises a [`RunReport`]'s semantic content — the digest-covered fields
/// plus the event counters — to the checkpoint JSON encoding. The control
/// plane reuses this for streamed per-step report deltas, so a subscriber
/// can fold deltas with [`RunReport::absorb`] exactly like a resumed fleet.
pub fn run_report_to_json(report: &RunReport) -> Value {
    let samples: Vec<Value> = report.samples.iter().map(sample_to_json).collect();
    let flows: Vec<Value> = report.flows.iter().map(outcome_to_json).collect();
    json!({
        "samples": samples,
        "aggregates": report.aggregates.to_json(),
        "windows": match &report.windows {
            Some(windows) => windows.to_json(),
            None => Value::Null,
        },
        "relay": relay_to_json(&report.relay),
        "tun": tun_to_json(&report.tun),
        "flows": flows,
        "finished_at_ns": report.finished_at.as_nanos() as i64,
        "events_processed": report.events_processed as i64,
        "events_scheduled": report.events_scheduled as i64,
    })
}

/// Restores a report serialised by [`run_report_to_json`]. Partition-local
/// resource accounting (ledger, pools, mapping, write delays) is not part of
/// the encoding and restores as zeroed defaults; those fields are excluded
/// from [`RunReport::fleet_digest`], which the round trip preserves exactly.
pub fn run_report_from_json(value: &Value) -> Option<RunReport> {
    let samples =
        value["samples"].as_array()?.iter().map(sample_from_json).collect::<Option<Vec<_>>>()?;
    let flows =
        value["flows"].as_array()?.iter().map(outcome_from_json).collect::<Option<Vec<_>>>()?;
    let mut report = RunReport::empty();
    report.samples = samples;
    report.aggregates = AggregateStore::from_json(&value["aggregates"])?;
    report.windows = if value["windows"].is_null() {
        None
    } else {
        Some(WindowedAggregateStore::from_json(&value["windows"])?)
    };
    report.relay = relay_from_json(&value["relay"])?;
    report.tun = tun_from_json(&value["tun"])?;
    report.flows = flows;
    report.finished_at = SimTime::from_nanos(value["finished_at_ns"].as_u64()?);
    report.events_processed = value["events_processed"].as_u64()?;
    report.events_scheduled = value["events_scheduled"].as_u64()?;
    Some(report)
}

fn sample_to_json(sample: &RttSample) -> Value {
    json!({
        "kind": sample_kind_str(sample.kind),
        "flow": four_tuple_to_json(&sample.flow),
        "uid": match sample.uid {
            Some(uid) => Value::from(i64::from(uid)),
            None => Value::Null,
        },
        "package": opt_str(&sample.package),
        "domain": opt_str(&sample.domain),
        "measured_ms": sample.measured_ms,
        "true_ms": sample.true_ms,
        "tcpdump_ms": match sample.tcpdump_ms {
            Some(ms) => Value::from(ms),
            None => Value::Null,
        },
        "at_ns": sample.at.as_nanos() as i64,
    })
}

fn sample_from_json(value: &Value) -> Option<RttSample> {
    Some(RttSample {
        kind: sample_kind_from_str(value["kind"].as_str()?)?,
        flow: four_tuple_from_json(&value["flow"])?,
        uid: if value["uid"].is_null() {
            None
        } else {
            Some(u32::try_from(value["uid"].as_i64()?).ok()?)
        },
        package: opt_str_from(&value["package"])?,
        domain: opt_str_from(&value["domain"])?,
        measured_ms: value["measured_ms"].as_f64()?,
        true_ms: value["true_ms"].as_f64()?,
        tcpdump_ms: if value["tcpdump_ms"].is_null() {
            None
        } else {
            Some(value["tcpdump_ms"].as_f64()?)
        },
        at: SimTime::from_nanos(value["at_ns"].as_u64()?),
    })
}

fn outcome_to_json(outcome: &FlowOutcome) -> Value {
    json!({
        "flow": four_tuple_to_json(&outcome.flow),
        "package": outcome.package.clone(),
        "started_at_ns": outcome.started_at.as_nanos() as i64,
        "finished_at_ns": outcome.finished_at.as_nanos() as i64,
        "bytes_received": outcome.bytes_received as i64,
        "completed": outcome.completed,
    })
}

fn outcome_from_json(value: &Value) -> Option<FlowOutcome> {
    Some(FlowOutcome {
        flow: four_tuple_from_json(&value["flow"])?,
        package: value["package"].as_str()?.to_string(),
        started_at: SimTime::from_nanos(value["started_at_ns"].as_u64()?),
        finished_at: SimTime::from_nanos(value["finished_at_ns"].as_u64()?),
        bytes_received: value["bytes_received"].as_u64()? as usize,
        completed: value["completed"].as_bool()?,
    })
}

fn relay_to_json(relay: &RelayStats) -> Value {
    json!({
        "syns": relay.syns as i64,
        "connects_ok": relay.connects_ok as i64,
        "connects_failed": relay.connects_failed as i64,
        "data_segments_out": relay.data_segments_out as i64,
        "data_segments_in": relay.data_segments_in as i64,
        "pure_acks_discarded": relay.pure_acks_discarded as i64,
        "fins": relay.fins as i64,
        "rsts": relay.rsts as i64,
        "udp_datagrams": relay.udp_datagrams as i64,
        "dns_queries": relay.dns_queries as i64,
        "bytes_out": relay.bytes_out as i64,
        "bytes_in": relay.bytes_in as i64,
        "parse_errors": relay.parse_errors as i64,
        "idle_reaped": relay.idle_reaped as i64,
        "retransmits": relay.retransmits as i64,
        "fast_retransmits": relay.fast_retransmits as i64,
        "rto_fires": relay.rto_fires as i64,
        "sacked_segments": relay.sacked_segments as i64,
    })
}

fn relay_from_json(value: &Value) -> Option<RelayStats> {
    Some(RelayStats {
        syns: value["syns"].as_u64()?,
        connects_ok: value["connects_ok"].as_u64()?,
        connects_failed: value["connects_failed"].as_u64()?,
        data_segments_out: value["data_segments_out"].as_u64()?,
        data_segments_in: value["data_segments_in"].as_u64()?,
        pure_acks_discarded: value["pure_acks_discarded"].as_u64()?,
        fins: value["fins"].as_u64()?,
        rsts: value["rsts"].as_u64()?,
        udp_datagrams: value["udp_datagrams"].as_u64()?,
        dns_queries: value["dns_queries"].as_u64()?,
        bytes_out: value["bytes_out"].as_u64()?,
        bytes_in: value["bytes_in"].as_u64()?,
        parse_errors: value["parse_errors"].as_u64()?,
        idle_reaped: value["idle_reaped"].as_u64()?,
        retransmits: value["retransmits"].as_u64()?,
        fast_retransmits: value["fast_retransmits"].as_u64()?,
        rto_fires: value["rto_fires"].as_u64()?,
        sacked_segments: value["sacked_segments"].as_u64()?,
        // Wall-clock backpressure observability, not simulated behaviour
        // (excluded from equality and digests): restarts from zero.
        sink_stalls: 0,
    })
}

fn tun_to_json(tun: &TunStats) -> Value {
    json!({
        "packets_from_apps": tun.packets_from_apps as i64,
        "bytes_from_apps": tun.bytes_from_apps as i64,
        "packets_to_apps": tun.packets_to_apps as i64,
        "bytes_to_apps": tun.bytes_to_apps as i64,
    })
}

fn tun_from_json(value: &Value) -> Option<TunStats> {
    Some(TunStats {
        packets_from_apps: value["packets_from_apps"].as_u64()?,
        bytes_from_apps: value["bytes_from_apps"].as_u64()?,
        packets_to_apps: value["packets_to_apps"].as_u64()?,
        bytes_to_apps: value["bytes_to_apps"].as_u64()?,
        // Wall-clock dispatcher backpressure: restarts from zero.
        dispatch_stalls: 0,
    })
}

// ----- flow-spec serialisation ---------------------------------------------

fn flow_spec_to_json(spec: &FlowSpec) -> Value {
    json!({
        "at_ns": spec.at.as_nanos() as i64,
        "uid": i64::from(spec.uid),
        "package": spec.package.clone(),
        "src": match &spec.src {
            Some(src) => endpoint_to_json(src),
            None => Value::Null,
        },
        "dst": endpoint_to_json(&spec.dst),
        "domain": opt_str(&spec.domain),
        "request_bytes": spec.request_bytes as i64,
        "close_after": spec.close_after as i64,
        "kind": flow_kind_str(spec.kind),
        "network": match spec.network {
            Some(network) => Value::from(network.as_json_str()),
            None => Value::Null,
        },
        "isp": opt_str(&spec.isp),
    })
}

fn flow_spec_from_json(value: &Value) -> Option<FlowSpec> {
    Some(FlowSpec {
        at: SimTime::from_nanos(value["at_ns"].as_u64()?),
        uid: u32::try_from(value["uid"].as_i64()?).ok()?,
        package: value["package"].as_str()?.to_string(),
        src: if value["src"].is_null() { None } else { Some(endpoint_from_json(&value["src"])?) },
        dst: endpoint_from_json(&value["dst"])?,
        domain: opt_str_from(&value["domain"])?,
        request_bytes: value["request_bytes"].as_u64()? as usize,
        close_after: value["close_after"].as_u64()? as usize,
        kind: flow_kind_from_str(value["kind"].as_str()?)?,
        network: if value["network"].is_null() {
            None
        } else {
            Some(NetKind::from_json_str(value["network"].as_str()?)?)
        },
        isp: opt_str_from(&value["isp"])?,
    })
}

fn endpoint_to_json(endpoint: &Endpoint) -> Value {
    json!({ "addr": endpoint.addr.to_string(), "port": i64::from(endpoint.port) })
}

fn endpoint_from_json(value: &Value) -> Option<Endpoint> {
    let addr: IpAddr = value["addr"].as_str()?.parse().ok()?;
    Some(Endpoint::new(addr, u16::try_from(value["port"].as_i64()?).ok()?))
}

fn four_tuple_to_json(flow: &FourTuple) -> Value {
    json!({ "src": endpoint_to_json(&flow.src), "dst": endpoint_to_json(&flow.dst) })
}

fn four_tuple_from_json(value: &Value) -> Option<FourTuple> {
    Some(FourTuple::new(endpoint_from_json(&value["src"])?, endpoint_from_json(&value["dst"])?))
}

// ----- enum tags -----------------------------------------------------------
//
// Tag tables for the enums other crates own without a wire form; `NetKind`
// brings its own (`NetKind::as_json_str`).

fn sample_kind_str(kind: SampleKind) -> &'static str {
    match kind {
        SampleKind::Tcp => "Tcp",
        SampleKind::Dns => "Dns",
    }
}

fn sample_kind_from_str(tag: &str) -> Option<SampleKind> {
    match tag {
        "Tcp" => Some(SampleKind::Tcp),
        "Dns" => Some(SampleKind::Dns),
        _ => None,
    }
}

fn flow_kind_str(kind: FlowKind) -> &'static str {
    match kind {
        FlowKind::Tcp => "Tcp",
        FlowKind::Dns => "Dns",
    }
}

fn flow_kind_from_str(tag: &str) -> Option<FlowKind> {
    match tag {
        "Tcp" => Some(FlowKind::Tcp),
        "Dns" => Some(FlowKind::Dns),
        _ => None,
    }
}

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

fn opt_str(text: &Option<String>) -> Value {
    match text {
        Some(text) => Value::from(text.clone()),
        None => Value::Null,
    }
}

/// A nullable string field: `null` is `Some(None)`, a string `Some(Some(_))`,
/// anything else a malformed document.
fn opt_str_from(value: &Value) -> Option<Option<String>> {
    if value.is_null() {
        Some(None)
    } else {
        Some(Some(value.as_str()?.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_simnet::SimDuration;

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

    #[test]
    fn sample_round_trips_bit_identically() {
        let original = sample();
        let restored = sample_from_json(&sample_to_json(&original)).unwrap();
        assert_eq!(original, restored);

        let mut sparse = original;
        sparse.uid = None;
        sparse.package = None;
        sparse.domain = None;
        sparse.tcpdump_ms = None;
        sparse.kind = SampleKind::Dns;
        let restored = sample_from_json(&sample_to_json(&sparse)).unwrap();
        assert_eq!(sparse, restored);
    }

    #[test]
    fn flow_spec_round_trips() {
        let original = spec();
        let restored = flow_spec_from_json(&flow_spec_to_json(&original)).unwrap();
        assert_eq!(original.at, restored.at);
        assert_eq!(original.src, restored.src);
        assert_eq!(original.dst, restored.dst);
        assert_eq!(original.network, restored.network);
        assert_eq!(original.isp, restored.isp);
        assert_eq!(original.kind, restored.kind);

        let mut sparse = original;
        sparse.src = None;
        sparse.domain = None;
        sparse.network = None;
        sparse.isp = None;
        sparse.kind = FlowKind::Dns;
        let restored = flow_spec_from_json(&flow_spec_to_json(&sparse)).unwrap();
        assert_eq!(sparse.src, restored.src);
        assert_eq!(sparse.network, restored.network);
        assert_eq!(sparse.kind, restored.kind);
    }

    /// `doc` with member `field` replaced by `value`.
    fn with_field(doc: &Value, field: &str, value: Value) -> Value {
        let Value::Object(members) = doc else { panic!("not an object: {doc:?}") };
        let swap = |(k, v): &(String, Value)| {
            (k.clone(), if k == field { value.clone() } else { v.clone() })
        };
        Value::Object(members.iter().map(swap).collect())
    }

    #[test]
    fn mistyped_or_unknown_labels_are_rejected_not_restored_as_none() {
        // A label that silently restores as `None` re-labels the flow's
        // samples: the checkpoint would load, and resume to a wrong digest.
        let good = flow_spec_to_json(&spec());
        for (field, bad) in [
            ("network", json!("LTE")),
            ("network", json!(3)),
            ("domain", json!(7)),
            ("isp", json!({ "name": "CMHK" })),
        ] {
            let doc = with_field(&good, field, bad);
            assert!(flow_spec_from_json(&doc).is_none(), "flow spec accepted a bad {field}");
        }
        let good = sample_to_json(&sample());
        for field in ["package", "domain"] {
            let doc = with_field(&good, field, json!(1.5));
            assert!(sample_from_json(&doc).is_none(), "sample accepted a bad {field}");
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

        let restored = run_report_from_json(&run_report_to_json(&report)).unwrap();
        assert_eq!(report.fleet_digest(), restored.fleet_digest());
        assert_eq!(report.samples, restored.samples);
        assert_eq!(report.relay, restored.relay); // sink_stalls excluded from eq
        assert_eq!(report.windows, restored.windows);
        assert_eq!(report.events_scheduled, restored.events_scheduled);
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
        assert_eq!(restored.pending.len(), 1);
        assert_eq!(restored.base.fleet_digest(), checkpoint.base.fleet_digest());

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
        let future = good.replace("\"version\": 1", "\"version\": 999");
        let err = FleetCheckpoint::parse(&future).unwrap_err();
        assert!(err.contains("version 999"), "{err}");

        // Mistyped body field (seed must be a hex string).
        let mistyped = good.replace("\"seed\": \"0000000000000007\"", "\"seed\": 7");
        let err = FleetCheckpoint::parse(&mistyped).unwrap_err();
        assert!(err.contains("malformed"), "{err}");

        // An unknown network tag on a pending flow (a flipped byte).
        assert!(good.contains("\"network\": \"Lte\""), "{good}");
        let relabelled = good.replace("\"network\": \"Lte\"", "\"network\": \"LTE\"");
        let err = FleetCheckpoint::parse(&relabelled).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
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

        // A matching fleet resumes cleanly (empty pending set: base only).
        let fleet = fleet_with(epochs(FleetConfig::new(1).with_seed(7)));
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
