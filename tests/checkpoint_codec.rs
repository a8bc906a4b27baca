//! The checkpoint codec held to the one it replaced.
//!
//! Checkpoints used to go through a `mop_json::Value` tree both ways:
//! hand-written builders, the recursive renderer, the recursive-descent
//! parser and hand-written walkers. They now stream between structs and
//! bytes through `ToJson` / `FromJson`. The tree path is kept as the model —
//! the renderer and parser in `crates/json/tests/model`, the builders and
//! walkers in [`tree`] below (the sketch stores, whose old walkers need their
//! private fields, are held to theirs inside `mop_measure`) — and the new
//! codec is held to it two ways:
//!
//! * **differential encoding**: random reports and flow specs render byte
//!   for byte as the model renders them, compact and pretty;
//! * **a mutation matrix**: a captured fleet checkpoint and a server plane
//!   checkpoint, truncated at every structural boundary and every k-th byte,
//!   and with single bytes replaced, bit-flipped and deleted. Every mutant is
//!   either refused with a descriptive error or accepted — never a panic —
//!   and it is accepted exactly when the model accepts it, decoding to an
//!   equal struct with the same `fleet_digest`.

#[path = "../crates/json/tests/model/mod.rs"]
mod json_model;

use std::net::IpAddr;

use mop_json::{json, Value};
use proptest::prelude::*;

use mopeye::dataset::Scenario;
use mopeye::engine::{
    epoch_boundary, CongestionAlgo, FleetCheckpoint, FleetConfig, FleetEngine, FlowOutcome,
    RelayStats, RttSample, RunReport, SampleKind,
};
use mopeye::measure::{MeasurementKind, NetKind, WindowedAggregateStore};
use mopeye::packet::{Endpoint, FourTuple};
use mopeye::server::{ControlPlane, PlaneConfig, MAX_INJECT_USERS, SERVER_CHECKPOINT_VERSION};
use mopeye::simnet::{SimDuration, SimTime};
use mopeye::tun::{FlowKind, FlowSpec, TunStats};

/// The tree codec as `checkpoint.rs` had it: builders into a [`Value`],
/// walkers out of one. Sketch stores go through the codec under test here
/// (`mop_measure` holds them to their own old walkers).
mod tree {
    use super::*;

    pub fn checkpoint(c: &FleetCheckpoint) -> Value {
        let pending: Vec<Value> = c.pending.iter().map(spec).collect();
        json!({
            "format": "mopeye-fleet-checkpoint",
            "version": 1i64,
            "seed": format!("{:016x}", c.seed),
            "shards_at_save": c.shards_at_save as i64,
            "congestion": congestion_str(c.congestion),
            "epoch_width_ns": match c.epoch_width_ns {
                Some(w) => Value::from(w as i64),
                None => Value::Null,
            },
            "epoch_window": c.epoch_window as i64,
            "cut_ns": c.cut.as_nanos() as i64,
            "base": report(&c.base),
            "pending": pending,
        })
    }

    pub fn report(r: &RunReport) -> Value {
        let samples: Vec<Value> = r.samples.iter().map(sample).collect();
        let flows: Vec<Value> = r.flows.iter().map(outcome).collect();
        json!({
            "samples": samples,
            "aggregates": mop_json::to_value(&r.aggregates),
            "windows": r.windows.as_ref().map_or(Value::Null, mop_json::to_value),
            "relay": relay(&r.relay),
            "tun": tun(&r.tun),
            "flows": flows,
            "finished_at_ns": r.finished_at.as_nanos() as i64,
            "events_processed": r.events_processed as i64,
            "events_scheduled": r.events_scheduled as i64,
        })
    }

    fn sample(s: &RttSample) -> Value {
        json!({
            "kind": match s.kind { SampleKind::Tcp => "Tcp", SampleKind::Dns => "Dns" },
            "flow": four_tuple(&s.flow),
            "uid": match s.uid { Some(uid) => Value::from(i64::from(uid)), None => Value::Null },
            "package": opt_str(&s.package),
            "domain": opt_str(&s.domain),
            "measured_ms": s.measured_ms,
            "true_ms": s.true_ms,
            "tcpdump_ms": match s.tcpdump_ms { Some(ms) => Value::from(ms), None => Value::Null },
            "at_ns": s.at.as_nanos() as i64,
        })
    }

    fn outcome(o: &FlowOutcome) -> Value {
        json!({
            "flow": four_tuple(&o.flow),
            "package": o.package.clone(),
            "started_at_ns": o.started_at.as_nanos() as i64,
            "finished_at_ns": o.finished_at.as_nanos() as i64,
            "bytes_received": o.bytes_received as i64,
            "completed": o.completed,
        })
    }

    fn relay(r: &RelayStats) -> Value {
        let counters = relay_counters(r);
        Value::Object(
            counters.iter().map(|(k, v)| (k.to_string(), Value::from(*v as i64))).collect(),
        )
    }

    fn relay_counters(r: &RelayStats) -> [(&'static str, u64); 18] {
        [
            ("syns", r.syns),
            ("connects_ok", r.connects_ok),
            ("connects_failed", r.connects_failed),
            ("data_segments_out", r.data_segments_out),
            ("data_segments_in", r.data_segments_in),
            ("pure_acks_discarded", r.pure_acks_discarded),
            ("fins", r.fins),
            ("rsts", r.rsts),
            ("udp_datagrams", r.udp_datagrams),
            ("dns_queries", r.dns_queries),
            ("bytes_out", r.bytes_out),
            ("bytes_in", r.bytes_in),
            ("parse_errors", r.parse_errors),
            ("idle_reaped", r.idle_reaped),
            ("retransmits", r.retransmits),
            ("fast_retransmits", r.fast_retransmits),
            ("rto_fires", r.rto_fires),
            ("sacked_segments", r.sacked_segments),
        ]
    }

    fn tun(t: &TunStats) -> Value {
        json!({
            "packets_from_apps": t.packets_from_apps as i64,
            "bytes_from_apps": t.bytes_from_apps as i64,
            "packets_to_apps": t.packets_to_apps as i64,
            "bytes_to_apps": t.bytes_to_apps as i64,
        })
    }

    pub fn spec(s: &FlowSpec) -> Value {
        json!({
            "at_ns": s.at.as_nanos() as i64,
            "uid": i64::from(s.uid),
            "package": s.package.clone(),
            "src": s.src.as_ref().map_or(Value::Null, endpoint),
            "dst": endpoint(&s.dst),
            "domain": opt_str(&s.domain),
            "request_bytes": s.request_bytes as i64,
            "close_after": s.close_after as i64,
            "kind": match s.kind { FlowKind::Tcp => "Tcp", FlowKind::Dns => "Dns" },
            "network": s.network.map_or(Value::Null, |n| Value::from(net_str(n))),
            "isp": opt_str(&s.isp),
        })
    }

    fn endpoint(e: &Endpoint) -> Value {
        json!({ "addr": e.addr.to_string(), "port": i64::from(e.port) })
    }

    fn four_tuple(f: &FourTuple) -> Value {
        json!({ "src": endpoint(&f.src), "dst": endpoint(&f.dst) })
    }

    fn opt_str(text: &Option<String>) -> Value {
        text.as_ref().map_or(Value::Null, |t| Value::from(t.clone()))
    }

    const NETS: [(NetKind, &str); 4] = [
        (NetKind::Wifi, "Wifi"),
        (NetKind::Lte, "Lte"),
        (NetKind::Umts3g, "Umts3g"),
        (NetKind::Gprs2g, "Gprs2g"),
    ];

    fn net_str(n: NetKind) -> &'static str {
        NETS.iter().find(|(k, _)| *k == n).unwrap().1
    }

    fn congestion_str(c: CongestionAlgo) -> &'static str {
        match c {
            CongestionAlgo::Reno => "Reno",
            CongestionAlgo::Cubic => "Cubic",
        }
    }

    /// `FleetCheckpoint::parse` as it was: the old parser, then the walk.
    pub fn parse(text: &str) -> Result<FleetCheckpoint, String> {
        let value =
            json_model::parse(text).map_err(|e| format!("checkpoint is not valid JSON: {e}"))?;
        parse_value(&value)
    }

    pub fn parse_value(value: &Value) -> Result<FleetCheckpoint, String> {
        let Some(format) = value["format"].as_str() else {
            return Err("checkpoint has no \"format\" string field".into());
        };
        if format != "mopeye-fleet-checkpoint" {
            return Err(format!("not a fleet checkpoint: format tag {format:?}"));
        }
        let Some(version) = value["version"].as_u64() else {
            return Err("checkpoint has no \"version\" number field".into());
        };
        if version != 1 {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads version 1)"
            ));
        }
        from_json(value).ok_or_else(|| MALFORMED.into())
    }

    pub const MALFORMED: &str = "checkpoint body is malformed (missing or mistyped field)";

    fn from_json(value: &Value) -> Option<FleetCheckpoint> {
        let pending = value["pending"].as_array()?.iter().map(spec_from).collect::<Option<_>>()?;
        Some(FleetCheckpoint {
            seed: u64::from_str_radix(value["seed"].as_str()?, 16).ok()?,
            shards_at_save: value["shards_at_save"].as_u64()? as usize,
            congestion: match value["congestion"].as_str()? {
                "Reno" => CongestionAlgo::Reno,
                "Cubic" => CongestionAlgo::Cubic,
                _ => return None,
            },
            epoch_width_ns: nullable(&value["epoch_width_ns"], Value::as_u64)?,
            epoch_window: value["epoch_window"].as_u64()? as usize,
            cut: SimTime::from_nanos(value["cut_ns"].as_u64()?),
            base: report_from(&value["base"])?,
            pending,
        })
    }

    /// `null` (or absent) is `Some(None)`, a readable value `Some(Some(_))`,
    /// anything else `None`.
    fn nullable<'v, T>(
        value: &'v Value,
        read: impl Fn(&'v Value) -> Option<T>,
    ) -> Option<Option<T>> {
        if value.is_null() {
            Some(None)
        } else {
            read(value).map(Some)
        }
    }

    fn report_from(value: &Value) -> Option<RunReport> {
        let mut report = RunReport::empty();
        report.samples =
            value["samples"].as_array()?.iter().map(sample_from).collect::<Option<_>>()?;
        report.aggregates = mop_json::from_value(&value["aggregates"]).ok()?;
        report.windows = nullable(&value["windows"], |w| mop_json::from_value(w).ok())?;
        report.relay = relay_from(&value["relay"])?;
        let tun = &value["tun"];
        report.tun = TunStats {
            packets_from_apps: tun["packets_from_apps"].as_u64()?,
            bytes_from_apps: tun["bytes_from_apps"].as_u64()?,
            packets_to_apps: tun["packets_to_apps"].as_u64()?,
            bytes_to_apps: tun["bytes_to_apps"].as_u64()?,
            dispatch_stalls: 0,
        };
        report.flows =
            value["flows"].as_array()?.iter().map(outcome_from).collect::<Option<_>>()?;
        report.finished_at = SimTime::from_nanos(value["finished_at_ns"].as_u64()?);
        report.events_processed = value["events_processed"].as_u64()?;
        report.events_scheduled = value["events_scheduled"].as_u64()?;
        Some(report)
    }

    fn relay_from(value: &Value) -> Option<RelayStats> {
        let c = |key: &str| value[key].as_u64();
        Some(RelayStats {
            syns: c("syns")?,
            connects_ok: c("connects_ok")?,
            connects_failed: c("connects_failed")?,
            data_segments_out: c("data_segments_out")?,
            data_segments_in: c("data_segments_in")?,
            pure_acks_discarded: c("pure_acks_discarded")?,
            fins: c("fins")?,
            rsts: c("rsts")?,
            udp_datagrams: c("udp_datagrams")?,
            dns_queries: c("dns_queries")?,
            bytes_out: c("bytes_out")?,
            bytes_in: c("bytes_in")?,
            parse_errors: c("parse_errors")?,
            idle_reaped: c("idle_reaped")?,
            retransmits: c("retransmits")?,
            fast_retransmits: c("fast_retransmits")?,
            rto_fires: c("rto_fires")?,
            sacked_segments: c("sacked_segments")?,
            sink_stalls: 0,
        })
    }

    fn sample_from(value: &Value) -> Option<RttSample> {
        Some(RttSample {
            kind: match value["kind"].as_str()? {
                "Tcp" => SampleKind::Tcp,
                "Dns" => SampleKind::Dns,
                _ => return None,
            },
            flow: four_tuple_from(&value["flow"])?,
            uid: nullable(&value["uid"], |v| u32::try_from(v.as_i64()?).ok())?,
            package: nullable(&value["package"], |v| v.as_str().map(str::to_string))?,
            domain: nullable(&value["domain"], |v| v.as_str().map(str::to_string))?,
            measured_ms: value["measured_ms"].as_f64()?,
            true_ms: value["true_ms"].as_f64()?,
            tcpdump_ms: nullable(&value["tcpdump_ms"], Value::as_f64)?,
            at: SimTime::from_nanos(value["at_ns"].as_u64()?),
        })
    }

    fn outcome_from(value: &Value) -> Option<FlowOutcome> {
        Some(FlowOutcome {
            flow: four_tuple_from(&value["flow"])?,
            package: value["package"].as_str()?.to_string(),
            started_at: SimTime::from_nanos(value["started_at_ns"].as_u64()?),
            finished_at: SimTime::from_nanos(value["finished_at_ns"].as_u64()?),
            bytes_received: value["bytes_received"].as_u64()? as usize,
            completed: value["completed"].as_bool()?,
        })
    }

    fn spec_from(value: &Value) -> Option<FlowSpec> {
        Some(FlowSpec {
            at: SimTime::from_nanos(value["at_ns"].as_u64()?),
            uid: u32::try_from(value["uid"].as_i64()?).ok()?,
            package: value["package"].as_str()?.to_string(),
            src: nullable(&value["src"], endpoint_from)?,
            dst: endpoint_from(&value["dst"])?,
            domain: nullable(&value["domain"], |v| v.as_str().map(str::to_string))?,
            request_bytes: value["request_bytes"].as_u64()? as usize,
            close_after: value["close_after"].as_u64()? as usize,
            kind: match value["kind"].as_str()? {
                "Tcp" => FlowKind::Tcp,
                "Dns" => FlowKind::Dns,
                _ => return None,
            },
            network: nullable(&value["network"], |v| {
                let tag = v.as_str()?;
                NETS.iter().find(|(_, name)| *name == tag).map(|(kind, _)| *kind)
            })?,
            isp: nullable(&value["isp"], |v| v.as_str().map(str::to_string))?,
        })
    }

    fn endpoint_from(value: &Value) -> Option<Endpoint> {
        let addr: IpAddr = value["addr"].as_str()?.parse().ok()?;
        Some(Endpoint::new(addr, u16::try_from(value["port"].as_i64()?).ok()?))
    }

    fn four_tuple_from(value: &Value) -> Option<FourTuple> {
        Some(FourTuple::new(endpoint_from(&value["src"])?, endpoint_from(&value["dst"])?))
    }
}

/// `ControlPlane::resume_text` as the tree path had it, plus this codec's
/// two robustness rules (a scenario row's users held to
/// `1..=MAX_INJECT_USERS` — the tree path panicked building a zero-user
/// scenario — and a base whose windowed store disagrees with its header
/// refused). On success, the document the resumed plane re-encodes to.
fn plane_model(text: &str, config: &PlaneConfig) -> Result<Value, String> {
    let doc = json_model::parse(text).map_err(|e| format!("checkpoint is not valid JSON: {e}"))?;
    let Some(format) = doc["format"].as_str() else {
        return Err("server checkpoint has no \"format\" string field".into());
    };
    if format != "mop-server-checkpoint" {
        return Err(format!("not a server checkpoint: format tag {format:?}"));
    }
    let Some(version) = doc["version"].as_u64() else {
        return Err("server checkpoint has no \"version\" number field".into());
    };
    if version != SERVER_CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported server checkpoint version {version} (this build reads version 1)"
        ));
    }
    let fleet = tree::parse_value(&doc["fleet"])?;
    let width = config.epoch_width.as_nanos();
    if fleet.seed != config.seed {
        return Err(format!(
            "checkpoint was saved under seed {:#018x}, plane runs {:#018x}",
            fleet.seed, config.seed
        ));
    }
    if fleet.congestion != config.congestion {
        return Err("checkpoint and plane disagree on the congestion algorithm".into());
    }
    if fleet.epoch_width_ns != Some(width) || fleet.epoch_window != config.epoch_window {
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
    let mut rows = Vec::new();
    let mut remaining = fleet.pending.len();
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
        if !(1..=MAX_INJECT_USERS as u64).contains(&users) {
            return Err(format!(
                "server checkpoint scenario {id:?} has {users} users; a scenario has 1 to \
                 {MAX_INJECT_USERS}"
            ));
        }
        if !["rush-hour", "flash-crowd", "degraded-commute"].contains(&kind) {
            return Err(format!("server checkpoint names unknown scenario kind {kind:?}"));
        }
        if count as usize > remaining {
            return Err("server checkpoint pending counts exceed the pending set".into());
        }
        remaining -= count as usize;
        rows.push(json!({
            "id": id,
            "kind": kind,
            "users": users as i64,
            "seed": format!("{seed:016x}"),
            "retired": retired,
            "injected_flows": entry["injected_flows"].as_u64().unwrap_or(0) as i64,
            "pending": count as i64,
        }));
    }
    if remaining != 0 {
        return Err("server checkpoint pending counts do not cover the pending set".into());
    }
    // Re-encoded by the resumed plane: its own run parameters, the cut at
    // its cursor, the decoded report in canonical order, and the pending set
    // with each scenario's share sorted stably by start time.
    let mut pending = fleet.pending;
    let mut start = 0;
    for row in &rows {
        let end = start + row["pending"].as_u64().unwrap() as usize;
        pending[start..end].sort_by_key(|spec| spec.at);
        start = end;
    }
    let mut base = fleet.base;
    base.canonicalise();
    let resaved = FleetCheckpoint {
        seed: config.seed,
        shards_at_save: config.shards,
        congestion: config.congestion,
        epoch_width_ns: Some(width),
        epoch_window: config.epoch_window,
        cut: epoch_boundary(width, cursor_epoch),
        base,
        pending,
    };
    Ok(json!({
        "format": "mop-server-checkpoint",
        "version": SERVER_CHECKPOINT_VERSION as i64,
        "cursor_epoch": cursor_epoch as i64,
        "next_scenario": next_scenario as i64,
        "scenarios": rows,
        "fleet": tree::checkpoint(&resaved),
    }))
}

// ----- random documents ------------------------------------------------------

/// Strings the encoder must get exactly right: empty, plain, escaped,
/// control characters, non-ASCII, supplementary-plane.
fn string(rng: &mut TestRng) -> String {
    const PIECES: [&str; 9] =
        ["", "com.android.chrome", "a\"b\\c", "tab\there\nnl", "\u{1}\u{1f}", "é€", "😀", "/", " "];
    let pieces = rng.usize_range(0, 4);
    (0..pieces).map(|_| PIECES[rng.usize_range(0, PIECES.len())]).collect()
}

fn maybe<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.next_u64() % 3 != 0).then(|| value(rng))
}

/// Integers up to `i64::MAX`, the range a JSON integer here holds.
fn count(rng: &mut TestRng) -> u64 {
    match rng.next_u64() % 3 {
        0 => rng.next_u64() % 1000,
        1 => rng.next_u64() >> 1,
        _ => 0,
    }
}

fn float(rng: &mut TestRng) -> f64 {
    const SPECIAL: [f64; 7] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 2.0, 1e21];
    match rng.next_u64() % 4 {
        0 => SPECIAL[rng.usize_range(0, SPECIAL.len())],
        _ => rng.next_f64() * 10f64.powi(rng.usize_range(0, 12) as i32 - 4),
    }
}

fn endpoint(rng: &mut TestRng) -> Endpoint {
    let addr: IpAddr = if rng.next_u64() % 2 == 0 {
        let [a, b, c, d] = (rng.next_u64() as u32).to_be_bytes();
        IpAddr::from([a, b, c, d])
    } else {
        let mut segments = [0u16; 8];
        for segment in &mut segments {
            *segment = if rng.next_u64() % 3 == 0 { 0 } else { rng.next_u64() as u16 };
        }
        IpAddr::from(segments)
    };
    Endpoint::new(addr, rng.next_u64() as u16)
}

fn flow(rng: &mut TestRng) -> FourTuple {
    FourTuple::new(endpoint(rng), endpoint(rng))
}

const NETS: [NetKind; 4] = [NetKind::Wifi, NetKind::Lte, NetKind::Umts3g, NetKind::Gprs2g];

fn spec(rng: &mut TestRng) -> FlowSpec {
    FlowSpec {
        at: SimTime::from_nanos(count(rng)),
        uid: rng.next_u64() as u32,
        package: string(rng),
        src: maybe(rng, endpoint),
        dst: endpoint(rng),
        domain: maybe(rng, string),
        request_bytes: count(rng) as usize,
        close_after: count(rng) as usize,
        kind: if rng.next_u64() % 2 == 0 { FlowKind::Tcp } else { FlowKind::Dns },
        network: maybe(rng, |rng| NETS[rng.usize_range(0, NETS.len())]),
        isp: maybe(rng, string),
    }
}

fn report(rng: &mut TestRng) -> RunReport {
    let mut report = RunReport::empty();
    for _ in 0..rng.usize_range(0, 4) {
        report.samples.push(RttSample {
            kind: if rng.next_u64() % 2 == 0 { SampleKind::Tcp } else { SampleKind::Dns },
            flow: flow(rng),
            uid: maybe(rng, |rng| rng.next_u64() as u32),
            package: maybe(rng, string),
            domain: maybe(rng, string),
            measured_ms: float(rng),
            true_ms: float(rng),
            tcpdump_ms: maybe(rng, float),
            at: SimTime::from_nanos(count(rng)),
        });
    }
    let mut windows =
        WindowedAggregateStore::new(1 + rng.next_u64() % 1_000_000, rng.usize_range(1, 5));
    for _ in 0..rng.usize_range(0, 6) {
        let (app, domain, isp, country) = (string(rng), string(rng), string(rng), string(rng));
        let kind =
            if rng.next_u64() % 2 == 0 { MeasurementKind::Tcp } else { MeasurementKind::Dns };
        let network = NETS[rng.usize_range(0, NETS.len())];
        let device = rng.next_u64() as u32 % 8;
        let rtt = rng.next_f64() * 500.0;
        report.aggregates.observe_parts(kind, network, &app, &domain, &isp, device, &country, rtt);
        let at = rng.next_u64() % 8_000_000;
        windows.observe_parts(at, kind, network, &app, &domain, &isp, device, &country, rtt);
    }
    report.windows = maybe(rng, |_| windows);
    for counter in [
        &mut report.relay.syns,
        &mut report.relay.bytes_in,
        &mut report.relay.sacked_segments,
        &mut report.tun.bytes_to_apps,
        &mut report.events_processed,
    ] {
        *counter = count(rng);
    }
    for _ in 0..rng.usize_range(0, 4) {
        report.flows.push(FlowOutcome {
            flow: flow(rng),
            package: string(rng),
            started_at: SimTime::from_nanos(count(rng)),
            finished_at: SimTime::from_nanos(count(rng)),
            bytes_received: count(rng) as usize,
            completed: rng.next_u64() % 2 == 0,
        });
    }
    report.finished_at = SimTime::from_nanos(count(rng));
    report
}

fn checkpoint(rng: &mut TestRng) -> FleetCheckpoint {
    FleetCheckpoint {
        seed: rng.next_u64(),
        shards_at_save: count(rng) as usize,
        congestion: if rng.next_u64() % 2 == 0 {
            CongestionAlgo::Reno
        } else {
            CongestionAlgo::Cubic
        },
        epoch_width_ns: maybe(rng, count),
        epoch_window: count(rng) as usize,
        cut: SimTime::from_nanos(count(rng)),
        base: report(rng),
        pending: (0..rng.usize_range(0, 4)).map(|_| spec(rng)).collect(),
    }
}

/// Both encodings of one document: the streaming writer over the struct,
/// and the tree builder rendered by the old renderer.
fn assert_renders_like_the_tree(ours: impl mop_json::ToJson, tree: &Value) {
    assert_eq!(mop_json::to_string(&ours), json_model::render(tree));
    assert_eq!(mop_json::to_string_pretty(&ours), json_model::render_pretty(tree));
}

#[test]
fn the_writer_renders_checkpoints_as_the_tree_path_did() {
    let mut rng = TestRng::from_name("checkpoint_codec::writer");
    for _ in 0..300 {
        let checkpoint = checkpoint(&mut rng);
        assert_renders_like_the_tree(&checkpoint, &tree::checkpoint(&checkpoint));
        assert_renders_like_the_tree(&checkpoint.base, &tree::report(&checkpoint.base));
        for spec in &checkpoint.pending {
            assert_renders_like_the_tree(spec, &tree::spec(spec));
        }
        // The tree the same impls build is the tree path's tree (compared
        // rendered: a NaN sample makes the trees unequal to themselves).
        let built = json_model::render(&mop_json::to_value(&checkpoint));
        assert_eq!(built, json_model::render(&tree::checkpoint(&checkpoint)));
        // The on-disk text is the compact rendering.
        assert_eq!(checkpoint.to_json_string(), json_model::render(&tree::checkpoint(&checkpoint)));
    }
}

// ----- documents in the earlier layout -------------------------------------------

/// The canonical flow order before start time led it: the four-tuple, then
/// every other covered field.
fn four_tuple_first(a: &FlowOutcome, b: &FlowOutcome) -> std::cmp::Ordering {
    (a.flow, &a.package, a.started_at, a.finished_at, a.bytes_received, a.completed).cmp(&(
        b.flow,
        &b.package,
        b.started_at,
        b.finished_at,
        b.bytes_received,
        b.completed,
    ))
}

/// A fleet document as earlier builds wrote it: its flows in four-tuple
/// order, pretty-printed.
fn in_earlier_layout(document: &str) -> Value {
    let mut checkpoint = FleetCheckpoint::parse(document).unwrap();
    let ordered_by_start = checkpoint.base.flows.clone();
    checkpoint.base.flows.sort_by(four_tuple_first);
    assert_ne!(checkpoint.base.flows, ordered_by_start, "the two orders should differ");
    tree::checkpoint(&checkpoint)
}

#[test]
fn documents_in_the_earlier_layout_resume_and_checkpoint_back_compact() {
    // A fleet checkpoint.
    let scenario = Scenario::rush_hour(60, 5);
    let config = FleetConfig::new(2).with_seed(9).with_epochs(SimDuration::from_millis(250), 4);
    let fleet = FleetEngine::new(config, scenario.network());
    let uninterrupted = fleet.run(scenario.generate()).digest();
    let cut = epoch_boundary(250_000_000, 4);
    let current = FleetCheckpoint::capture(&fleet, scenario.generate(), cut).to_json_string();
    let earlier = json_model::render_pretty(&in_earlier_layout(&current));
    let mut resumed = FleetCheckpoint::parse(&earlier).unwrap();
    resumed.base.canonicalise();
    assert_eq!(resumed.to_json_string(), current);
    assert_eq!(resumed.resume(&fleet).digest(), uninterrupted);

    // A plane checkpoint: two scenarios, stepped part of the way.
    let config = PlaneConfig { shards: 2, ..PlaneConfig::default() };
    let mut plane = ControlPlane::new(config);
    plane.inject("rush-hour", 60, 5).unwrap();
    plane.inject("flash-crowd", 30, 9).unwrap();
    plane.step(3);
    let current = mop_json::to_string(&plane);
    let mut doc = json_model::parse(&current).unwrap();
    let Value::Object(members) = &mut doc else { panic!("not an object") };
    let fleet_member = &mut members.iter_mut().find(|(key, _)| key == "fleet").unwrap().1;
    *fleet_member = in_earlier_layout(&json_model::render(fleet_member));
    let earlier = json_model::render_pretty(&doc);
    plane.step(plane.epochs_to_drain());
    for shards in [2, 3] {
        let mut resumed = ControlPlane::new(PlaneConfig { shards, ..config });
        resumed.resume_text(&earlier).unwrap();
        if shards == config.shards {
            assert_eq!(mop_json::to_string(&resumed), current);
        }
        resumed.step(resumed.epochs_to_drain());
        assert_eq!(resumed.digest(), plane.digest(), "{shards} shards");
    }
}

// ----- the mutation matrix -----------------------------------------------------

/// A fleet checkpoint captured mid-run: samples kept, epoch windows on,
/// flows both behind and ahead of the cut.
fn captured_fleet_checkpoint() -> String {
    let scenario = Scenario::rush_hour(1, 5);
    let config = FleetConfig::new(1).with_seed(9).with_epochs(SimDuration::from_millis(250), 4);
    let fleet = FleetEngine::new(config, scenario.network());
    let checkpoint =
        FleetCheckpoint::capture(&fleet, scenario.generate(), epoch_boundary(250_000_000, 4));
    assert!(!checkpoint.base.samples.is_empty() && !checkpoint.base.flows.is_empty());
    assert!(!checkpoint.pending.is_empty() && checkpoint.base.windows.is_some());
    checkpoint.to_json_string()
}

/// A served plane's checkpoint: two scenarios, one retired, stepped part
/// of the way.
fn served_plane_checkpoint(config: PlaneConfig) -> String {
    let mut plane = ControlPlane::new(config);
    plane.inject("rush-hour", 1, 5).unwrap();
    plane.inject("flash-crowd", 1, 9).unwrap();
    plane.step(1);
    plane.retire("s2").unwrap();
    assert!(plane.pending_flows() > 0);
    mop_json::to_string_pretty(&plane)
}

/// The mutants of an ASCII document: truncated at every structural byte and
/// every 11th byte, and — at every 5th byte — that byte replaced from a
/// corpus of structural and value characters, one of its bits flipped, or
/// the byte deleted.
fn mutants(text: &str) -> Vec<String> {
    const CORPUS: &[u8] = b" \"-0159.:,{}[]aenx\\";
    assert!(text.is_ascii());
    let bytes = text.as_bytes();
    let mut out: Vec<String> = (0..bytes.len())
        .filter(|&i| b"{}[],:\"".contains(&bytes[i]) || i % 11 == 0)
        .map(|i| text[..i].to_string())
        .collect();
    for i in (0..bytes.len()).step_by(5) {
        let mut replaced = bytes.to_vec();
        replaced[i] = CORPUS[i / 5 % CORPUS.len()];
        let mut flipped = bytes.to_vec();
        flipped[i] ^= 1 << (i % 7);
        let mut deleted = bytes.to_vec();
        deleted.remove(i);
        out.extend(
            [replaced, flipped, deleted].into_iter().filter_map(|m| String::from_utf8(m).ok()),
        );
    }
    out
}

/// A refusal says what the tree path said — or, where that was the bare
/// "body is malformed", the same words followed by the member that failed.
fn assert_same_refusal(model: &str, ours: &str, mutant: &str) {
    if model == tree::MALFORMED {
        let detail = ours.strip_prefix(tree::MALFORMED).and_then(|rest| rest.strip_prefix(": "));
        assert!(detail.is_some_and(|d| !d.is_empty()), "{ours:?} on {mutant:?}");
    } else {
        assert_eq!(model, ours, "on {mutant:?}");
    }
}

fn assert_same_checkpoint(model: &FleetCheckpoint, ours: &FleetCheckpoint, mutant: &str) {
    let header = |c: &FleetCheckpoint| {
        (c.seed, c.shards_at_save, c.congestion, c.epoch_width_ns, c.epoch_window, c.cut)
    };
    assert_eq!(header(model), header(ours), "on {mutant:?}");
    assert_eq!(model.pending, ours.pending, "on {mutant:?}");
    let (m, o) = (&model.base, &ours.base);
    assert_eq!(m.samples, o.samples, "on {mutant:?}");
    assert!(m.aggregates == o.aggregates && m.windows == o.windows, "on {mutant:?}");
    assert!(m.relay == o.relay && m.tun == o.tun && m.flows == o.flows, "on {mutant:?}");
    assert_eq!(
        (m.finished_at, m.events_processed, m.events_scheduled),
        (o.finished_at, o.events_processed, o.events_scheduled),
        "on {mutant:?}"
    );
    assert_eq!(m.fleet_digest(), o.fleet_digest(), "on {mutant:?}");
}

#[test]
fn fleet_checkpoint_mutants_decode_exactly_when_the_tree_path_did() {
    let text = captured_fleet_checkpoint();
    let (mut accepted, mut refused) = (0, 0);
    for mutant in mutants(&text) {
        match (tree::parse(&mutant), FleetCheckpoint::parse(&mutant)) {
            (Ok(model), Ok(ours)) => {
                assert_same_checkpoint(&model, &ours, &mutant);
                accepted += 1;
            }
            (Err(model), Err(ours)) => {
                assert_same_refusal(&model, &ours, &mutant);
                refused += 1;
            }
            (model, ours) => panic!(
                "the tree path says {:?}, the decoder {:?}, on {mutant:?}",
                model.map(|_| "accepted"),
                ours.map(|_| "accepted")
            ),
        }
    }
    assert!(accepted > 100 && refused > 1000, "{accepted} accepted, {refused} refused");
}

#[test]
fn plane_checkpoint_mutants_resume_exactly_when_the_tree_path_did() {
    let config = PlaneConfig { shards: 1, ..PlaneConfig::default() };
    let text = served_plane_checkpoint(config);
    let (mut accepted, mut refused) = (0, 0);
    let mut plane = ControlPlane::new(config);
    for mutant in mutants(&text) {
        match (plane_model(&mutant, &config), plane.resume_text(&mutant)) {
            (Ok(expected), Ok(())) => {
                assert!(mop_json::to_value(&plane) == expected, "on {mutant:?}");
                assert_eq!(plane.digest(), plane.report().fleet_digest());
                plane = ControlPlane::new(config);
                accepted += 1;
            }
            (Err(model), Err(ours)) => {
                assert_same_refusal(&model, &ours, &mutant);
                assert_eq!(plane.digest_computes(), 0, "a refused resume installs nothing");
                refused += 1;
            }
            (model, ours) => {
                panic!("the tree path says {model:?}, the plane {ours:?}, on {mutant:?}")
            }
        }
    }
    assert!(accepted > 100 && refused > 1000, "{accepted} accepted, {refused} refused");
}
