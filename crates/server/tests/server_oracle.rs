//! Oracle conformance: the stepped, interleaved, checkpointed control
//! plane must produce bit-identical reports to uninterrupted batch runs.
//!
//! The oracle for any session is simple: for every injected scenario,
//! take the flows that the session actually let run (all of them, or —
//! for a scenario retired at cursor `c` — those scheduled before the
//! epoch boundary of `c`), run each scenario whole on a single fresh
//! fleet, absorb everything into one report. Under the flow-keyed
//! discipline the plane's incremental absorb of the same flow set must
//! land on the same canonical report, whatever the step/retire/
//! checkpoint interleaving and whatever the shard counts involved.

use std::mem;

use mop_dataset::Scenario;
use mop_json::json;
use mop_server::{ControlPlane, PlaneConfig, Server, SERVER_CHECKPOINT_VERSION};
use mopeye_core::{
    epoch_boundary, split_at, Counter, FleetCheckpoint, FleetConfig, FleetEngine, RunReport,
};
use proptest::prelude::*;

const KINDS: [&str; 3] = ["rush-hour", "flash-crowd", "degraded-commute"];

fn config(shards: usize) -> PlaneConfig {
    PlaneConfig { shards, ..PlaneConfig::default() }
}

fn scenario(kind: &str, users: usize, seed: u64) -> Scenario {
    match kind {
        "rush-hour" => Scenario::rush_hour(users, seed),
        "flash-crowd" => Scenario::flash_crowd(users, seed),
        "degraded-commute" => Scenario::degraded_commute(users, seed),
        other => panic!("unknown kind {other}"),
    }
}

/// Mirrors `ControlPlane::build_fleet` for the reference runs.
fn batch_fleet(plane: &PlaneConfig, network: mop_simnet::SimNetworkBuilder) -> FleetEngine {
    let mut fleet = FleetConfig::new(plane.shards)
        .with_seed(plane.seed)
        .with_congestion(plane.congestion)
        .with_epochs(plane.epoch_width, plane.epoch_window);
    fleet.engine = fleet.engine.with_retain_samples(false);
    FleetEngine::new(fleet, network)
}

/// One scenario's session history, as the test driver saw it.
struct Mirror {
    kind: &'static str,
    users: usize,
    seed: u64,
    /// `Some(boundary)` when the scenario was retired: only flows
    /// scheduled before the boundary ever ran.
    ran_cut: Option<mop_simnet::SimTime>,
}

/// The uninterrupted batch reference for a session history.
fn oracle_digest(plane: &PlaneConfig, mirrors: &[Mirror]) -> u64 {
    let mut merged = RunReport::empty();
    for mirror in mirrors {
        let scenario = scenario(mirror.kind, mirror.users, mirror.seed);
        let mut flows = scenario.generate();
        if let Some(cut) = mirror.ran_cut {
            flows = split_at(flows, cut).0;
        }
        if flows.is_empty() {
            continue;
        }
        let fleet = batch_fleet(plane, scenario.network());
        let mut report = fleet.run(flows);
        merged.absorb(mem::replace(&mut report.merged, RunReport::empty()));
    }
    merged.canonicalise();
    merged.fleet_digest()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Inject {
        kind: usize,
        users: usize,
        seed: u64,
    },
    Retire {
        slot: usize,
    },
    Step {
        epochs: u64,
    },
    /// Checkpoint the plane and resume the document on a fresh plane with
    /// this shard count, continuing the session there.
    CheckpointResume {
        shards: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..KINDS.len(), 8usize..20, 1u64..40)
            .prop_map(|(kind, users, seed)| Op::Inject { kind, users, seed }),
        1 => (0usize..4).prop_map(|slot| Op::Retire { slot }),
        3 => (0u64..4).prop_map(|epochs| Op::Step { epochs }),
        1 => (1usize..5).prop_map(|shards| Op::CheckpointResume { shards }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn random_interleavings_match_the_batch_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..6),
    ) {
        let base = config(2);
        let width = base.epoch_width.as_nanos();
        let mut plane = ControlPlane::new(base);
        let mut mirrors: Vec<Mirror> = Vec::new();
        for op in &ops {
            match *op {
                Op::Inject { kind, users, seed } => {
                    let kind = KINDS[kind];
                    plane.inject(kind, users, seed).unwrap();
                    mirrors.push(Mirror { kind, users, seed, ran_cut: None });
                }
                Op::Retire { slot } => {
                    let live: Vec<usize> = mirrors
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.ran_cut.is_none())
                        .map(|(i, _)| i)
                        .collect();
                    if live.is_empty() {
                        continue;
                    }
                    let index = live[slot % live.len()];
                    // Scenario ids are handed out in inject order: s1, s2...
                    plane.retire(&format!("s{}", index + 1)).unwrap();
                    mirrors[index].ran_cut =
                        Some(epoch_boundary(width, plane.cursor_epoch()));
                }
                Op::Step { epochs } => {
                    plane.step(epochs);
                }
                Op::CheckpointResume { shards } => {
                    let doc = plane.checkpoint();
                    let mut fresh = ControlPlane::new(config(shards));
                    fresh.resume(&doc).unwrap();
                    plane = fresh;
                }
            }
        }
        plane.step(plane.epochs_to_drain());
        prop_assert_eq!(plane.digest(), oracle_digest(&base, &mirrors));
    }
}

/// Drives the protocol dispatcher (not the plane directly): a `full`
/// subscriber's streamed step deltas, folded back through the checkpoint
/// encoding, reproduce the server's cumulative fleet digest.
#[test]
fn streamed_deltas_fold_to_the_cumulative_digest() {
    let mut server = Server::new(config(2));
    let call = |server: &mut Server, line: &str| server.handle_line(line);
    call(
        &mut server,
        "{\"id\":1,\"method\":\"scenario.inject\",\
         \"params\":{\"scenario\":\"rush-hour\",\"users\":30,\"seed\":5}}",
    );
    call(
        &mut server,
        "{\"id\":2,\"method\":\"report.subscribe\",\"params\":{\"detail\":\"full\"}}",
    );

    let mut folded = RunReport::empty();
    let mut digest = String::new();
    let mut id = 3u64;
    loop {
        let turn = call(
            &mut server,
            &format!("{{\"id\":{id},\"method\":\"fleet.step\",\"params\":{{\"epochs\":1}}}}"),
        );
        id += 1;
        let mut pending = None;
        for frame in &turn.frames {
            let value = mop_json::from_str(frame).unwrap();
            if value["id"].is_null() {
                assert_eq!(value["stream"].as_str(), Some("delta"));
                let delta = mop_json::from_value::<RunReport>(&value["event"]["report"]).unwrap();
                folded.absorb(delta);
                folded.canonicalise();
            } else {
                pending = value["result"]["pending"].as_u64();
                digest = value["result"]["digest"].as_str().unwrap().to_string();
            }
        }
        if pending == Some(0) {
            break;
        }
        assert!(id < 1_000, "drain must terminate");
    }
    assert_eq!(format!("{:016x}", folded.fleet_digest()), digest);
    assert_eq!(
        folded.fleet_digest(),
        oracle_digest(
            &config(2),
            &[Mirror { kind: "rush-hour", users: 30, seed: 5, ran_cut: None }]
        ),
    );
}

/// The full protocol round trip the issue pins: inject, stream, checkpoint
/// mid-run, resume the document on FRESH servers at several shard counts,
/// and land on the batch reference digest every time.
#[test]
fn protocol_checkpoint_resume_matches_batch_across_shard_counts() {
    let reference = oracle_digest(
        &config(2),
        &[Mirror { kind: "rush-hour", users: 40, seed: 7, ran_cut: None }],
    );

    let mut saver = Server::new(config(2));
    saver.handle_line(
        "{\"id\":1,\"method\":\"scenario.inject\",\
         \"params\":{\"scenario\":\"rush-hour\",\"users\":40,\"seed\":7}}",
    );
    saver.handle_line("{\"id\":2,\"method\":\"fleet.step\",\"params\":{\"epochs\":3}}");
    let turn = saver.handle_line("{\"id\":3,\"method\":\"fleet.checkpoint\"}");
    let reply = mop_json::from_str(&turn.frames[0]).unwrap();
    let doc = reply["result"]["checkpoint"].clone();
    assert!(!doc.is_null());
    // The saving server drains to the reference digest on its own...
    let turn = saver.handle_line("{\"id\":4,\"method\":\"fleet.step\"}");
    let reply = mop_json::from_str(&turn.frames[0]).unwrap();
    assert_eq!(reply["result"]["digest"].as_str().unwrap(), format!("{reference:016x}"));

    // ...and so does every fresh server resumed from the mid-run document.
    for shards in [1, 4] {
        let mut resumed = Server::new(config(shards));
        let request = mop_json::to_string(&json!({
            "id": 1,
            "method": "fleet.resume",
            "params": json!({ "checkpoint": doc.clone() }),
        }));
        let turn = resumed.handle_line(&request);
        let reply = mop_json::from_str(&turn.frames[0]).unwrap();
        assert!(!reply["result"].is_null(), "resume on {shards} shards failed: {}", turn.frames[0]);
        let turn = resumed.handle_line("{\"id\":2,\"method\":\"fleet.step\"}");
        let reply = mop_json::from_str(&turn.frames[0]).unwrap();
        assert_eq!(
            reply["result"]["digest"].as_str().unwrap(),
            format!("{reference:016x}"),
            "resumed drain on {shards} shards"
        );
        assert_eq!(reply["result"]["pending"].as_u64(), Some(0));
    }
}

#[test]
fn server_profile_reports_resident_fleet_stats() {
    let mut server = Server::new(config(2));
    server.handle_line(
        "{\"id\":1,\"method\":\"scenario.inject\",\
         \"params\":{\"scenario\":\"rush-hour\",\"users\":40,\"seed\":7}}",
    );
    let turn = server.handle_line("{\"id\":2,\"method\":\"server.profile\"}");
    let reply = mop_json::from_str(&turn.frames[0]).unwrap();
    assert_eq!(reply["result"]["runs"].as_u64(), Some(0), "injecting runs nothing");
    // Shard 0 runs on the stepping thread: two shards, one worker.
    assert_eq!(reply["result"]["threads_spawned"].as_u64(), Some(1));
    assert_eq!(reply["result"]["shards"].as_u64(), Some(2));

    server.handle_line("{\"id\":3,\"method\":\"fleet.step\",\"params\":{\"epochs\":3}}");
    server.handle_line("{\"id\":4,\"method\":\"fleet.step\"}");
    let turn = server.handle_line("{\"id\":5,\"method\":\"server.profile\"}");
    let reply = mop_json::from_str(&turn.frames[0]).unwrap();
    // Both steps had due flows, so both ran on the resident fleet: runs
    // advanced while the worker threads stayed the ones spawned at start.
    assert!(reply["result"]["runs"].as_u64().unwrap() >= 2);
    assert_eq!(reply["result"]["threads_spawned"].as_u64(), Some(1));
    // The structure counters are live in every build: all five, in name
    // order, and the connect path did count work over the two steps.
    assert!(reply["result"]["profiling"].is_null() && reply["result"]["phases"].is_null());
    let counters = reply["result"]["counters"].as_array().unwrap();
    let names: Vec<&str> = counters.iter().map(|c| c["counter"].as_str().unwrap()).collect();
    assert_eq!(names, Counter::ALL.map(Counter::name));
    assert!(counters.iter().all(|c| c["value"].as_u64().is_some()));
    assert!(counters.iter().any(|c| c["value"].as_u64() > Some(0)));
}

// ----- the memoised digest and the borrowed checkpoint paths ----------------
//
// The plane serves its digest from a memo, encodes checkpoints from
// borrowed state and parses an embedded fleet document in place. The
// straightforward constructions those stand in for — recompute, deep-clone
// then encode, print then re-parse — are kept here as in-test models, and
// random sessions are held against them operation by operation.

/// What the test driver knows about one injected scenario — enough to
/// rebuild the slot's pending set and its checkpoint table row.
struct SlotModel {
    kind: &'static str,
    users: usize,
    seed: u64,
    retired: bool,
    injected_flows: usize,
    /// Flows scheduled at or after this are still pending (unless retired).
    pending_from: mop_simnet::SimTime,
}

impl SlotModel {
    fn pending(&self) -> Vec<mop_tun::FlowSpec> {
        if self.retired {
            return Vec::new();
        }
        split_at(scenario(self.kind, self.users, self.seed).generate(), self.pending_from).1
    }
}

/// `ControlPlane::checkpoint` as the parent commit built it: an owned
/// `FleetCheckpoint` whose base is the cumulative report deep-cloned
/// through its JSON encoding and whose pending set is cloned out of the
/// slots, encoded by its own `ToJson` impl.
fn checkpoint_model(plane: &ControlPlane, slots: &[SlotModel]) -> mop_json::Value {
    let config = plane.config();
    let fleet = FleetCheckpoint {
        seed: config.seed,
        shards_at_save: config.shards,
        congestion: config.congestion,
        epoch_width_ns: Some(config.epoch_width.as_nanos()),
        epoch_window: config.epoch_window,
        cut: epoch_boundary(config.epoch_width.as_nanos(), plane.cursor_epoch()),
        base: mop_json::from_value(&mop_json::to_value(plane.report())).unwrap(),
        pending: slots.iter().flat_map(SlotModel::pending).collect(),
    };
    let scenarios: Vec<mop_json::Value> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| {
            json!({
                "id": format!("s{}", i + 1),
                "kind": s.kind,
                "users": s.users as i64,
                "seed": format!("{:016x}", s.seed),
                "retired": s.retired,
                "injected_flows": s.injected_flows as i64,
                "pending": s.pending().len() as i64,
            })
        })
        .collect();
    json!({
        "format": "mop-server-checkpoint",
        "version": SERVER_CHECKPOINT_VERSION as i64,
        "cursor_epoch": plane.cursor_epoch() as i64,
        "next_scenario": (slots.len() + 1) as i64,
        "scenarios": scenarios,
        "fleet": mop_json::to_value(&fleet),
    })
}

/// The embedded-document check of `ControlPlane::resume` as the parent
/// commit made it: print the `"fleet"` member, parse the text.
fn fleet_parse_model(doc: &mop_json::Value) -> Result<(), String> {
    FleetCheckpoint::parse(&mop_json::to_string(&doc["fleet"])).map(|_| ())
}

/// `doc` with its member `field` replaced by `value`.
fn with_member(doc: &mop_json::Value, field: &str, value: mop_json::Value) -> mop_json::Value {
    let mop_json::Value::Object(members) = doc else { panic!("not an object") };
    mop_json::Value::Object(
        members
            .iter()
            .map(|(k, v)| (k.clone(), if k == field { value.clone() } else { v.clone() }))
            .collect(),
    )
}

/// `doc` without its member `field`.
fn without_member(doc: &mop_json::Value, field: &str) -> mop_json::Value {
    let mop_json::Value::Object(members) = doc else { panic!("not an object") };
    mop_json::Value::Object(members.iter().filter(|(k, _)| k != field).cloned().collect())
}

/// (a) the memo equals a fresh walk of the report; (b) the checkpoint
/// equals its model, as a value and as the bytes that reach the disk.
fn assert_tracks_models(plane: &ControlPlane, slots: &[SlotModel], after: &Op) {
    assert_eq!(plane.digest(), plane.report().fleet_digest(), "stale digest memo after {after:?}");
    let doc = plane.checkpoint();
    let model = checkpoint_model(plane, slots);
    assert!(doc == model, "checkpoint differs from its model after {after:?}");
    assert!(
        mop_json::to_string_pretty(&doc) == mop_json::to_string_pretty(&model),
        "checkpoint bytes differ from the model's after {after:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) the memo never goes stale, (b) the borrowed checkpoint encoder
    /// writes the parent's document — checked after EVERY operation of a
    /// random session, at one and at two shards.
    #[test]
    fn the_memo_and_the_borrowed_encoder_track_their_models(
        shards in 1usize..3,
        ops in proptest::collection::vec(op_strategy(), 1..7),
    ) {
        let mut plane = ControlPlane::new(config(shards));
        let width = plane.config().epoch_width.as_nanos();
        let mut slots: Vec<SlotModel> = Vec::new();
        for op in &ops {
            match *op {
                Op::Inject { kind, users, seed } => {
                    let kind = KINDS[kind];
                    let (_, injected_flows) = plane.inject(kind, users, seed).unwrap();
                    slots.push(SlotModel {
                        kind,
                        users,
                        seed,
                        retired: false,
                        injected_flows,
                        pending_from: mop_simnet::SimTime::ZERO,
                    });
                }
                Op::Retire { slot } => {
                    let live: Vec<usize> =
                        (0..slots.len()).filter(|&i| !slots[i].retired).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let index = live[slot % live.len()];
                    plane.retire(&format!("s{}", index + 1)).unwrap();
                    slots[index].retired = true;
                }
                Op::Step { epochs } => {
                    let before = plane.digest_computes();
                    let outcome = plane.step(epochs);
                    prop_assert_eq!(outcome.digest, plane.digest());
                    prop_assert_eq!(
                        plane.digest_computes() - before,
                        u64::from(outcome.ran > 0),
                        "one digest per step that ran flows, none otherwise"
                    );
                    let cut = epoch_boundary(width, plane.cursor_epoch());
                    for slot in slots.iter_mut().filter(|s| !s.retired) {
                        slot.pending_from = cut;
                    }
                }
                Op::CheckpointResume { shards } => {
                    let doc = plane.checkpoint();
                    let mut fresh = ControlPlane::new(config(shards.min(2)));
                    fresh.resume(&doc).unwrap();
                    prop_assert_eq!(fresh.digest_computes(), 1, "resume digests once");
                    prop_assert_eq!(fresh.digest(), plane.digest());
                    plane = fresh;
                }
            }
            assert_tracks_models(&plane, &slots, op);
        }
    }
}

/// (c) `resume` hands `&doc["fleet"]` to the parser where the parent
/// printed and re-parsed it: same verdict, same message, for a valid
/// document and for every way the embedded body can be wrong.
#[test]
fn resume_reports_a_bad_fleet_body_exactly_like_parsing_its_text() {
    let mut saver = ControlPlane::new(config(2));
    saver.inject("rush-hour", 20, 5).unwrap();
    saver.step(2);
    let good = saver.checkpoint();
    let fleet = &good["fleet"];

    let cases: Vec<(&str, mop_json::Value)> = vec![
        ("valid", good.clone()),
        ("null body", with_member(&good, "fleet", mop_json::Value::Null)),
        ("no body at all", without_member(&good, "fleet")),
        ("body is not an object", with_member(&good, "fleet", json!([1, 2]))),
        (
            "foreign format",
            with_member(&good, "fleet", with_member(fleet, "format", json!("something-else"))),
        ),
        ("no format", with_member(&good, "fleet", without_member(fleet, "format"))),
        ("version 9", with_member(&good, "fleet", with_member(fleet, "version", json!(9)))),
        (
            "mistyped version",
            with_member(&good, "fleet", with_member(fleet, "version", json!("1"))),
        ),
        ("missing field", with_member(&good, "fleet", without_member(fleet, "cut_ns"))),
        ("missing base", with_member(&good, "fleet", without_member(fleet, "base"))),
        ("mistyped seed", with_member(&good, "fleet", with_member(fleet, "seed", json!(7)))),
    ];
    let mut messages = std::collections::BTreeSet::new();
    for (what, doc) in &cases {
        let mut plane = ControlPlane::new(config(1));
        let got = plane.resume(doc);
        assert_eq!(got, fleet_parse_model(doc), "{what}");
        match got {
            Ok(()) => {
                assert_eq!(*what, "valid");
                assert_eq!(plane.digest(), saver.digest());
                assert_eq!(plane.pending_flows(), saver.pending_flows());
            }
            Err(message) => {
                // A rejected resume leaves the plane idle and undigested.
                assert_eq!(plane.digest_computes(), 0, "{what}");
                assert_eq!(plane.pending_flows(), 0, "{what}");
                messages.insert(message);
            }
        }
    }
    assert!(messages.len() >= 4, "the cases exercise distinct rejections: {messages:?}");
}

/// (d) the delta is built for a `full` subscriber only, and what it builds
/// still folds to the cumulative digest; a plane that never builds one
/// lands on the same digests step for step.
#[test]
fn deltas_are_built_on_request_and_still_fold_to_the_digest() {
    let mut quiet = ControlPlane::new(config(2));
    let mut full = ControlPlane::new(config(2));
    for plane in [&mut quiet, &mut full] {
        plane.inject("flash-crowd", 25, 3).unwrap();
    }
    let mut folded = RunReport::empty();
    let mut steps = 0;
    while full.pending_flows() > 0 {
        let silent = quiet.step(1);
        let streamed = full.step_with_delta(1, true);
        assert!(silent.delta.is_null(), "no subscriber asked, nothing is encoded");
        assert_eq!(streamed.delta.is_null(), streamed.ran == 0);
        if streamed.ran > 0 {
            folded.absorb(mop_json::from_value(&streamed.delta).unwrap());
            folded.canonicalise();
        }
        assert_eq!(silent.digest, streamed.digest);
        assert_eq!(silent.epoch_summaries, streamed.epoch_summaries);
        assert_eq!(folded.fleet_digest(), streamed.digest);
        steps += 1;
        assert!(steps < 1_000, "drain must terminate");
    }
}

/// The count guard (counts only, no clocks): `server.profile`'s
/// `digest_computes` moves by one per step that ran flows and per resume,
/// and by nothing for any query. On the parent commit `server.info`
/// recomputed the digest over every flow ever absorbed, per call.
#[test]
fn digest_is_computed_once_per_mutation_and_never_per_query() {
    fn result(server: &mut Server, line: &str) -> mop_json::Value {
        let turn = server.handle_line(line);
        let reply = mop_json::from_str(turn.frames.last().unwrap()).unwrap();
        assert!(!reply["result"].is_null(), "{line} failed: {}", turn.frames.last().unwrap());
        reply["result"].clone()
    }
    fn computes(server: &mut Server) -> u64 {
        result(server, "{\"id\":9,\"method\":\"server.profile\"}")["digest_computes"]
            .as_u64()
            .expect("server.profile carries digest_computes in every build")
    }

    let mut server = Server::new(config(2));
    assert_eq!(computes(&mut server), 0);
    result(
        &mut server,
        "{\"id\":1,\"method\":\"scenario.inject\",\
         \"params\":{\"scenario\":\"rush-hour\",\"users\":30,\"seed\":5}}",
    );
    result(
        &mut server,
        "{\"id\":2,\"method\":\"report.subscribe\",\"params\":{\"detail\":\"summary\"}}",
    );
    assert_eq!(computes(&mut server), 0, "inject and subscribe digest nothing");

    let mut stepped_with_flows = 0;
    let mut checkpoint = mop_json::Value::Null;
    for step in 0..6 {
        let before = computes(&mut server);
        let reply =
            result(&mut server, "{\"id\":3,\"method\":\"fleet.step\",\"params\":{\"epochs\":1}}");
        let ran = reply["ran"].as_u64().unwrap();
        stepped_with_flows += u64::from(ran > 0);
        assert_eq!(computes(&mut server) - before, u64::from(ran > 0), "step {step} ran {ran}");

        let before = computes(&mut server);
        for _ in 0..5 {
            let info = result(&mut server, "{\"id\":4,\"method\":\"server.info\"}");
            assert_eq!(info["digest"], reply["digest"], "info agrees with the step it follows");
        }
        result(&mut server, "{\"id\":5,\"method\":\"diagnose.query\"}");
        let saved = result(&mut server, "{\"id\":6,\"method\":\"fleet.checkpoint\"}");
        assert_eq!(saved["digest"], reply["digest"]);
        let idle =
            result(&mut server, "{\"id\":7,\"method\":\"fleet.step\",\"params\":{\"epochs\":0}}");
        assert_eq!(idle["ran"].as_u64(), Some(0));
        assert_eq!(idle["digest"], reply["digest"]);
        assert_eq!(computes(&mut server), before, "queries and a zero-flow step digest nothing");
        checkpoint = saved["checkpoint"].clone();
    }
    assert!(stepped_with_flows >= 2, "the session must exercise flow-running steps");
    assert_eq!(computes(&mut server), stepped_with_flows);

    let mut standby = Server::new(config(1));
    let resume = mop_json::to_string(&json!({
        "id": 1,
        "method": "fleet.resume",
        "params": json!({ "checkpoint": checkpoint }),
    }));
    let resumed = result(&mut standby, &resume);
    assert_eq!(computes(&mut standby), 1, "resume digests the restored report once");
    let info = result(&mut server, "{\"id\":8,\"method\":\"server.info\"}");
    assert_eq!(resumed["digest"], info["digest"]);
}

/// Co-injected scenarios share four-tuples, so outcomes with equal tuples
/// arrive in a different order when one step runs everything than when the
/// cadence runs it epoch by epoch. The digest folds a multiset and
/// `canonicalise` orders by every covered field, so both the digest and
/// the checkpoint bytes are the same either way, at any shard count.
#[test]
fn a_one_step_drain_equals_the_stepped_cadence_at_any_shard_count() {
    const SEED: u64 = 0x4866_8462_95f0_81c6;
    let injected = |shards: usize| {
        let mut plane = ControlPlane::new(PlaneConfig {
            shards,
            seed: SEED,
            epoch_width: mop_simnet::SimDuration::from_millis(25),
            epoch_window: 32,
            ..PlaneConfig::default()
        });
        for kind in KINDS {
            plane.inject(kind, 60, SEED).unwrap();
        }
        plane
    };
    let mut digests = Vec::new();
    for shards in [1usize, 2] {
        let mut stepped = injected(shards);
        let mut steps = 0;
        while stepped.pending_flows() > 0 {
            stepped.step(1);
            steps += 1;
        }
        let mut drained = injected(shards);
        let epochs = drained.epochs_to_drain();
        let outcome = drained.step(epochs);
        assert_eq!(outcome.pending, 0);
        assert!(steps > 10, "the cadence must take many steps, took {steps}");
        assert_eq!(drained.cursor_epoch(), stepped.cursor_epoch());
        assert_eq!(
            drained.digest(),
            stepped.digest(),
            "{shards} shards: one step {:016x}, {steps} steps {:016x}",
            drained.digest(),
            stepped.digest()
        );
        let text = mop_json::to_string(&drained.checkpoint());
        assert!(
            text == mop_json::to_string(&stepped.checkpoint()),
            "{shards} shards: the checkpoints differ"
        );
        digests.push(drained.digest());
    }
    assert_eq!(digests[0], digests[1], "1 vs 2 shards");
}

/// The plane's kept fold is what its digest is built from; in a release
/// build nothing else checks it. Fifty random turns of inject, step, retire
/// and checkpoint-resume (onto a fresh plane of another shard count), and
/// after every turn the memo equals a full digest of the report.
#[test]
fn the_kept_fold_matches_a_full_digest_after_every_turn() {
    let mut state = 0x5eed_u64;
    let mut draw = |bound: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };
    let mut plane = ControlPlane::new(config(2));
    let mut injected = 0usize;
    let mut turns = [0usize; 4];
    for turn in 0..50 {
        let kind = match draw(8) {
            0..=1 => {
                let kind = KINDS[draw(3) as usize];
                plane.inject(kind, 4 + draw(8) as usize, 1 + draw(50)).unwrap();
                injected += 1;
                0
            }
            2..=5 => {
                plane.step(draw(4));
                1
            }
            6 => {
                if injected > 0 {
                    // An already-retired id is refused and changes nothing.
                    let _ = plane.retire(&format!("s{}", 1 + draw(injected as u64)));
                }
                2
            }
            _ => {
                let doc = plane.checkpoint();
                let mut fresh = ControlPlane::new(config(1 + draw(3) as usize));
                fresh.resume(&doc).unwrap();
                assert_eq!(fresh.digest(), plane.digest(), "turn {turn}: resume");
                plane = fresh;
                3
            }
        };
        turns[kind] += 1;
        assert_eq!(
            plane.digest(),
            plane.report().fleet_digest(),
            "turn {turn}: the kept fold drifted from the report"
        );
    }
    assert!(plane.report().flows.len() > 50, "the session must run flows");
    assert!(turns.iter().all(|&n| n > 0), "every kind of turn ran: {turns:?}");
    plane.step(plane.epochs_to_drain());
    assert_eq!(plane.digest(), plane.report().fleet_digest(), "after the drain");
}
