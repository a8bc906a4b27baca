//! `serve_steps`: the operator's view of a long-lived `mop_server`.
//!
//! **Closed loop, one client.** A single connection sends each request only
//! after the previous response arrived, so a slower server receives less
//! load; there is no arrival schedule and no queue to grow. The server runs
//! on its own thread of this process behind a real Unix socket
//! (`serve_unix`), with one shard worker and 25 ms epochs: client, server
//! and worker hand one request around, so one thread is busy at a time.
//!
//! One round = a fresh `Server`: subscribe to `summary` events, inject
//! rush-hour + flash-crowd + degraded-commute, then `fleet.step {epochs: 1}`
//! until nothing is pending (~160 steps) with a `server.info` after every
//! step and `diagnose.query` + `fleet.checkpoint {path}` after every 20th,
//! then `server.shutdown` flushing a final checkpoint, which a standby
//! `Server` on one shard resumes in process.
//!
//! A round's requests are the same every round (same seed, same injections,
//! a deterministic simulation), so step *i* of every round is the same
//! operation: each latency series is keyed by its position in the round, the
//! fastest observation of each position is kept, and the reported median and
//! tail are taken over the positions.
//!
//! Checked every round: every RPC returns a `result`; `server.info` agrees
//! with the step it follows; the drained digest equals the oracle's; the
//! standby's resumed digest equals the drained one.
//!
//! The oracle is an in-process `ControlPlane` stepping the same injections
//! at the same cadence with no socket and no queries in between; after the
//! last round a second one on **two** shards, untimed, must drain to the
//! same digest. It does not drain in one step: co-injected scenarios share
//! four-tuples (`Scenario::user_addr` ignores which scenario a user belongs
//! to, so ~a third of the 4.9 k flows collide), `RunReport::canonicalise`
//! is a stable sort by four-tuple, and so the cumulative digest depends on
//! the order colliding outcomes were absorbed — a one-step drain and a
//! stepped run of the same flows disagree today. Flow, event and packet
//! counts are order-free and do come out equal.

use std::path::Path;
use std::time::{Duration, Instant};

use mop_json::{json, Value};
use mop_server::{connect_unix, serve_unix, ControlPlane, PlaneConfig, Server};
use mop_simnet::SimDuration;

use super::{
    set_up, time_reports, Outcome, Plan, Reference, SetupCost, Tally, Unit, CHECK_SHARDS,
    EPOCH_WINDOW, SERVE_EPOCH_MS, SERVE_KINDS, SHARDS,
};
use crate::catalog::Clock;
use crate::host;
use crate::spans::Tracer;
use crate::stats;

/// A round that has not drained after this many steps is broken.
const MAX_STEPS: usize = 10_000;
/// `diagnose.query` + `fleet.checkpoint` follow every this-many-th step.
const HEAVY_EVERY: usize = 20;

fn plane_config(plan: &Plan, shards: usize) -> PlaneConfig {
    PlaneConfig {
        shards,
        seed: plan.input_seed(),
        epoch_width: SimDuration::from_millis(SERVE_EPOCH_MS),
        epoch_window: EPOCH_WINDOW,
        ..PlaneConfig::default()
    }
}

/// Timing series one round adds beyond the shared [`super::Samples`].
#[derive(Default)]
struct ServeSeries {
    inject_ms: Vec<f64>,
    diagnose_ms: Vec<f64>,
    step_growth: Vec<f64>,
    rpc_growth: Vec<f64>,
    rss_kb_per_kflow: Vec<f64>,
    event_bytes_per_step: Vec<f64>,
    steps_per_round: Vec<f64>,
}

/// An in-process plane on `shards` shards that has injected the served
/// scenarios and stepped, one epoch at a time, until nothing is pending.
/// Injection generates the scenarios; the drain is the cold run.
fn drained_plane(plan: &Plan, shards: usize, tracer: &mut Tracer) -> (ControlPlane, SetupCost) {
    let mut plane = ControlPlane::new(plane_config(plan, shards));
    let (_, generate_s) = tracer.timed("server.plane_inject", |_| {
        for kind in SERVE_KINDS {
            plane
                .inject(kind, plan.users(), plan.input_seed())
                .expect("the served scenario kinds exist");
        }
    });
    let (_, cold_run_s) = tracer.timed("server.plane_steps", |_| {
        for _ in 0..MAX_STEPS {
            if plane.step(1).pending == 0 {
                break;
            }
        }
    });
    let cost = SetupCost {
        generate_s,
        cold_run_s,
    };
    (plane, cost)
}

pub(super) fn run(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();

    // ----- set-up: the in-process oracle ------------------------------------
    let mut build = |tracer: &mut Tracer| drained_plane(plan, SHARDS, tracer);
    let mut oracle = set_up(plan, &mut outcome, tracer, &mut build);
    outcome.tally.check(oracle.pending_flows() == 0, || {
        "the oracle plane never drained".into()
    });
    let mut reference = Reference::default();
    reference.absorb_run(oracle.report());
    let oracle_digest = oracle.digest();
    outcome.digests.push(("drained", oracle_digest));
    outcome
        .params
        .push(("scenarios", Value::from(SERVE_KINDS.to_vec())));
    outcome
        .params
        .push(("epoch_ms", Value::from(SERVE_EPOCH_MS)));
    outcome.params.push(("flows", Value::from(reference.flows)));

    // ----- timed rounds ----------------------------------------------------
    let mut series = ServeSeries::default();
    let timed_since = Instant::now();
    while plan.more_units(outcome.units.len(), timed_since, tracer) {
        if plan.setup_due(outcome.setups_s.len(), timed_since, tracer) {
            drop(oracle);
            oracle = set_up(plan, &mut outcome, tracer, &mut build);
            let got = oracle.digest();
            outcome.tally.check(got == oracle_digest, || {
                format!("a later oracle drained to {got:016x}, the first to {oracle_digest:016x}")
            });
        }
        let round = outcome.units.len();
        tracer.begin_unit(round);
        let before = tracer.alloc_snapshot();
        let done = tracer
            .timed("bench.round", |t| {
                serve_round(plan, "summary", &mut outcome, &mut series, t)
            })
            .0;
        let alloc = tracer.alloc_snapshot().since(before);
        let Some(done) = done else { break };
        outcome.units.push(Unit {
            wall_s: done.step_wall_s,
            traced: tracer.recording(),
            alloc,
        });
        outcome.tally.check(done.flows_run == reference.flows, || {
            format!(
                "round {round} ran {} flows, the oracle {}",
                done.flows_run, reference.flows
            )
        });
        outcome
            .tally
            .check(done.drained == Some(oracle_digest), || {
                format!(
                    "round {round} drained to {:016x?}, the oracle to {oracle_digest:016x}",
                    done.drained
                )
            });
        // The report an operator would render from the drained state (the
        // oracle holds the same state), sampled after every round; and what
        // every `server.info` pays server-side, digesting that state.
        time_reports(oracle.report(), 3, &mut outcome.samples, tracer);
        let (_, secs) = tracer.timed("core.digest", |_| std::hint::black_box(oracle.digest()));
        outcome.samples.digest_ms.push(secs * 1e3);
    }

    // Untimed: the same injections stepped on two shards drain to the same
    // digest.
    let sharded = drained_plane(plan, CHECK_SHARDS, tracer).0.digest();
    outcome.tally.check(sharded == oracle_digest, || {
        format!("{CHECK_SHARDS} shards drained to {sharded:016x}, {SHARDS} to {oracle_digest:016x}")
    });

    // The JSON-write-heavy use of the same layer: one round streaming full
    // report deltas. Traced pass only; its steps feed no headline metric.
    if tracer.tracing() {
        tracer.set_recording(true);
        let mut scratch = Outcome::default();
        let mut ignored = ServeSeries::default();
        serve_round(plan, "full", &mut scratch, &mut ignored, tracer);
        let full = stats::median(&scratch.samples.step_ms.fastest());
        outcome.extra(
            "server.step_full_ms_p50",
            "ms",
            Clock::Wall,
            full,
            scratch.samples.step_ms.observations(),
        );
        outcome.tally.absorb(scratch.tally);
    }

    // The per-layer split of the checkpoint path, in process on the oracle
    // plane (over the wire only the sum is visible).
    let path = plan.scratch("plane.ckpt");
    for _ in 0..plan.repeats() {
        let (text, serialise) = tracer.timed("server.checkpoint_doc", |_| {
            mop_json::to_string_pretty(&oracle.checkpoint())
        });
        let (written, write) = tracer.timed("fs.write", |_| std::fs::write(&path, &text));
        let (parsed, parse) = tracer.timed("json.from_str", |_| mop_json::from_str(&text).is_ok());
        outcome.tally.check(written.is_ok() && parsed, || {
            "plane checkpoint did not round-trip".into()
        });
        let s = &mut outcome.samples;
        s.serialise_ms.push(serialise * 1e3);
        s.write_ms.push(write * 1e3);
        s.parse_ms.push(parse * 1e3);
        s.ckpt_bytes = text.len();
        if tracer.tracing() {
            outcome.ckpt_text = Some(text);
        }
    }
    std::fs::remove_file(&path).ok();

    outcome.reference = reference;
    for (name, unit, values) in [
        ("server.inject_rpc_ms", "ms", &series.inject_ms),
        ("server.diagnose_rpc_ms_p50", "ms", &series.diagnose_ms),
        ("server.step_growth", "ratio", &series.step_growth),
        ("server.rpc_growth", "ratio", &series.rpc_growth),
        ("server.rss_kb_per_kflow", "kB", &series.rss_kb_per_kflow),
        (
            "server.event_bytes_per_step",
            "B",
            &series.event_bytes_per_step,
        ),
        ("server.steps_per_round", "count", &series.steps_per_round),
    ] {
        outcome.extra(name, unit, Clock::Wall, stats::median(values), values.len());
    }
    let rpc = stats::summarise(&outcome.samples.status_us.fastest(), &stats::RPC_LADDER);
    outcome.extra("server.rpc_us_tail", "us", Clock::Wall, rpc.tail, rpc.n);
    outcome.extra(
        "server.rpc_tail_percentile",
        "%",
        Clock::Wall,
        rpc.tail_pct,
        rpc.n,
    );
    outcome
}

struct RoundDone {
    step_wall_s: f64,
    flows_run: u64,
    drained: Option<u64>,
}

fn hex_digest(value: &Value) -> Option<u64> {
    u64::from_str_radix(value.as_str()?, 16).ok()
}

/// One RPC: counts it attempted, times the round trip, and fails it unless
/// the response carries a `result`. Returns `(result, events, seconds)`.
fn rpc<R: std::io::BufRead, W: std::io::Write>(
    client: &mut mop_server::Client<R, W>,
    span: &'static str,
    method: &str,
    params: Value,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Option<(Value, Vec<Value>, f64)> {
    let (reply, secs) = tracer.timed(span, |_| client.call(method, params));
    tally.attempt(1);
    match reply {
        Ok(reply) => match reply.result() {
            Some(result) => Some((result.clone(), reply.events, secs)),
            None => {
                tally.fail(format!(
                    "{method} returned {}",
                    mop_json::to_string(&reply.response)
                ));
                None
            }
        },
        Err(e) => {
            tally.fail(format!("{method} failed on the socket: {e}"));
            None
        }
    }
}

/// Blocks until the server thread has bound `socket` (or died).
fn wait_for_socket(socket: &Path, server: &std::thread::JoinHandle<std::io::Result<()>>) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !socket.exists() {
        if server.is_finished() || Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Runs one round against a fresh server. `None` when the round could not
/// complete (every cause is already in the tally).
fn serve_round(
    plan: &Plan,
    detail: &str,
    outcome: &mut Outcome,
    series: &mut ServeSeries,
    tracer: &mut Tracer,
) -> Option<RoundDone> {
    let socket = plan.scratch("sock");
    let mid_ckpt = plan.scratch("mid.ckpt");
    let final_ckpt = plan.scratch("final.ckpt");
    std::fs::remove_file(&socket).ok();
    let config = plane_config(plan, SHARDS);
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(&mut Server::new(config), &socket))
    };
    let round = (|| {
        if !wait_for_socket(&socket, &server) {
            outcome
                .tally
                .fail(format!("the server never bound {}", socket.display()));
            return None;
        }
        let mut client = match connect_unix(&socket) {
            Ok(client) => client,
            Err(e) => {
                outcome
                    .tally
                    .fail(format!("cannot connect to {}: {e}", socket.display()));
                return None;
            }
        };
        let tally = &mut outcome.tally;
        let rss_before = host::vm_rss_kb();
        rpc(
            &mut client,
            "server.subscribe",
            "report.subscribe",
            json!({ "detail": detail }),
            tally,
            tracer,
        )?;
        let mut injected = 0u64;
        for kind in SERVE_KINDS {
            let params = json!({ "scenario": kind, "users": plan.users() });
            let (result, _, secs) = rpc(
                &mut client,
                "server.inject",
                "scenario.inject",
                params,
                tally,
                tracer,
            )?;
            injected += result["flows"].as_u64().unwrap_or(0);
            series.inject_ms.push(secs * 1e3);
        }

        let (mut step_ms, mut info_us) = (Vec::new(), Vec::new());
        let mut flows_run = 0u64;
        let mut event_bytes = 0usize;
        let drained = loop {
            let (step, events, secs) = rpc(
                &mut client,
                "server.step",
                "fleet.step",
                json!({ "epochs": 1 }),
                tally,
                tracer,
            )?;
            step_ms.push(secs * 1e3);
            flows_run += step["ran"].as_u64().unwrap_or(0);
            event_bytes += events
                .iter()
                .map(|e| mop_json::to_string(e).len())
                .sum::<usize>();
            let (info, _, secs) = rpc(
                &mut client,
                "server.info",
                "server.info",
                Value::Null,
                tally,
                tracer,
            )?;
            info_us.push(secs * 1e6);
            tally.check(
                info["digest"] == step["digest"] && info["pending"] == step["pending"],
                || {
                    format!(
                        "server.info disagrees with the step before it at step {}",
                        step_ms.len()
                    )
                },
            );
            if step_ms.len() % HEAVY_EVERY == 0 {
                let (_, _, secs) = rpc(
                    &mut client,
                    "server.diagnose",
                    "diagnose.query",
                    Value::Null,
                    tally,
                    tracer,
                )?;
                series.diagnose_ms.push(secs * 1e3);
                let params = json!({ "path": mid_ckpt.to_string_lossy().into_owned() });
                let (_, _, secs) = rpc(
                    &mut client,
                    "server.checkpoint",
                    "fleet.checkpoint",
                    params,
                    tally,
                    tracer,
                )?;
                outcome
                    .samples
                    .save_ms
                    .push(step_ms.len() / HEAVY_EVERY - 1, secs * 1e3);
            }
            if step["pending"].as_u64() == Some(0) {
                break hex_digest(&step["digest"]);
            }
            if step_ms.len() >= MAX_STEPS {
                tally.fail(format!("round still pending after {MAX_STEPS} steps"));
                return None;
            }
        };
        tally.check(flows_run == injected, || {
            format!("injected {injected} flows, ran {flows_run}")
        });
        if let (Some(before), Some(after)) = (rss_before, host::vm_rss_kb()) {
            let grown = after.saturating_sub(before) as f64;
            series
                .rss_kb_per_kflow
                .push(grown / (flows_run.max(1) as f64 / 1e3));
        }
        series.step_growth.extend(stats::decile_growth(&step_ms));
        series.rpc_growth.extend(stats::decile_growth(&info_us));
        series
            .event_bytes_per_step
            .push(event_bytes as f64 / step_ms.len() as f64);
        series.steps_per_round.push(step_ms.len() as f64);

        let params = json!({ "checkpoint_path": final_ckpt.to_string_lossy().into_owned() });
        let (stopped, _, _) = rpc(
            &mut client,
            "server.shutdown",
            "server.shutdown",
            params,
            tally,
            tracer,
        )?;
        tally.check(hex_digest(&stopped["digest"]) == drained, || {
            "server.shutdown reported a different digest than the last step".into()
        });
        let done = RoundDone {
            step_wall_s: step_ms.iter().sum::<f64>() / 1e3,
            flows_run,
            drained,
        };
        for (step, (ms, us)) in step_ms.into_iter().zip(info_us).enumerate() {
            outcome.samples.step_ms.push(step, ms);
            outcome.samples.status_us.push(step, us);
        }
        Some(done)
    })();
    if round.is_none() {
        // Unblock a server still waiting in accept() or read(): a bare
        // connect-and-shutdown session ends its loop.
        if let Ok(mut client) = connect_unix(&socket) {
            client.call("server.shutdown", Value::Null).ok();
        }
    }
    let served = server.join();
    outcome.tally.check(matches!(served, Ok(Ok(()))), || {
        format!("the server thread ended with {served:?}")
    });

    // A standby restores the flushed checkpoint.
    if let Some(done) = &round {
        let request = mop_json::to_string(&json!({
            "id": 1,
            "method": "fleet.resume",
            "params": json!({ "path": final_ckpt.to_string_lossy().into_owned() }),
        }));
        let (turn, secs) = tracer.timed("server.resume_standby", |_| {
            Server::new(plane_config(plan, SHARDS)).handle_line(&request)
        });
        outcome.samples.load_ms.push(0, secs * 1e3);
        let resumed = turn
            .frames
            .last()
            .and_then(|frame| mop_json::from_str(frame).ok())
            .and_then(|frame| hex_digest(&frame["result"]["digest"]));
        outcome
            .tally
            .check(resumed.is_some() && resumed == done.drained, || {
                format!(
                    "standby resumed to {resumed:016x?}, the server drained to {:016x?}",
                    done.drained
                )
            });
    }
    for path in [&socket, &mid_ckpt, &final_ckpt] {
        std::fs::remove_file(path).ok();
    }
    round
}
