//! `day_ckpt`: the longitudinal path.
//!
//! A 300-user simulated day (24 hourly epochs, windowed sketches). Set-up
//! (repeated at even intervals among the timed reps) generates the day and
//! runs it uninterrupted — the digest every resumed run must reproduce. Each timed rep then captures a checkpoint at hour 12,
//! serialises and writes it, reads and parses it back, resumes the
//! afternoon, and renders what the `report` binary prints for a day. Timed
//! fleets run one shard; after the last rep a morning captured on **two**
//! shards is resumed on one, untimed, and must reach the same digest. The millisecond-scale steps repeat inside the rep so
//! each reported figure is the fastest of hundreds of observations.

use std::time::Instant;

use mop_dataset::DiurnalScenario;
use mop_json::Value;
use mopeye_core::{epoch_boundary, FleetCheckpoint, FleetEngine};

use super::{
    fleet_config, generate, set_up, sources, time_checkpoint_files, time_digest, time_reports,
    Outcome, Plan, SetupCost, Unit, CHECK_SHARDS, SHARDS,
};
use crate::catalog::Clock;
use crate::spans::{AllocSnapshot, Tracer};
use crate::stats;

/// The checkpoint cut: noon.
const CUT_HOUR: u64 = 12;

pub(super) fn run(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let sources = sources(plan, plan.input_seed(), 1);
    let network = sources[0].network();
    let fleet = |shards: usize| FleetEngine::new(fleet_config(plan, shards), network.clone());

    // ----- set-up: generate the day, run it uninterrupted ------------------
    let mut build = |tracer: &mut Tracer| {
        let (mut flows, generate_s) = generate(&sources, tracer);
        let flows = flows.remove(0);
        let input = flows.clone();
        let (whole, cold_run_s) = tracer.timed("core.fleet_run", |_| fleet(SHARDS).run(input));
        let cost = SetupCost {
            generate_s,
            cold_run_s,
        };
        ((flows, whole), cost)
    };
    let (mut flows, whole) = set_up(plan, &mut outcome, tracer, &mut build);
    outcome.reference.absorb_fleet(&whole);
    let digest = whole.digest();
    outcome.digests.push(("uninterrupted", digest));
    outcome
        .params
        .push(("scenario", Value::from(sources[0].name())));
    outcome.params.push(("flows", Value::from(flows.len())));
    outcome.params.push(("cut_hour", Value::from(CUT_HOUR)));
    let cut = epoch_boundary(DiurnalScenario::virtual_hour().as_nanos(), CUT_HOUR);
    let repeats = plan.repeats();

    // ----- timed reps ------------------------------------------------------
    let (mut capture_s, mut resume_s) = (Vec::new(), Vec::new());
    let mut last_resumed = None;
    let timed_since = Instant::now();
    while plan.more_units(outcome.units.len(), timed_since, tracer) {
        if plan.setup_due(outcome.setups_s.len(), timed_since, tracer) {
            drop(flows);
            let whole;
            (flows, whole) = set_up(plan, &mut outcome, tracer, &mut build);
            let got = whole.digest();
            outcome.tally.check(got == digest, || {
                format!("a later set-up's day ran to {got:016x}, the first to {digest:016x}")
            });
        }
        let rep = outcome.units.len();
        tracer.begin_unit(rep);
        tracer.timed("bench.rep", |tracer| {
            let input = flows.clone();
            let (checkpoint, capture, capture_alloc) = tracer.measured("core.ckpt_capture", |_| {
                FleetCheckpoint::capture(&fleet(SHARDS), input, cut)
            });
            let path = plan.scratch("ckpt");
            let loaded = time_checkpoint_files(&checkpoint, &path, repeats, &mut outcome, tracer);
            let Some(loaded) = loaded else { return };
            let (resumed, resume, resume_alloc) =
                tracer.measured("core.ckpt_resume", |_| loaded.resume(&fleet(SHARDS)));
            capture_s.push(capture);
            resume_s.push(resume);
            // Two distinct fleet advances, each kept at its own fastest: a
            // quiet 0.1 s comes by more often than a quiet 0.25 s.
            outcome.samples.step_ms.push(0, capture * 1e3);
            outcome.samples.step_ms.push(1, resume * 1e3);
            outcome.units.push(Unit {
                wall_s: capture + resume,
                traced: tracer.recording(),
                alloc: AllocSnapshot {
                    allocs: capture_alloc.allocs + resume_alloc.allocs,
                    bytes: capture_alloc.bytes + resume_alloc.bytes,
                },
            });

            let resumed_digest =
                time_digest(repeats, &mut outcome.samples, tracer, || resumed.digest());
            last_resumed = Some(resumed_digest);
            outcome.tally.attempt(flows.len() as u64);
            outcome.tally.check(resumed_digest == digest, || {
                format!(
                    "rep {rep}: resumed digest {resumed_digest:016x} differs from the \
                     uninterrupted run's {digest:016x}"
                )
            });
            outcome
                .tally
                .check(resumed.merged.flows.len() == flows.len(), || {
                    format!(
                        "rep {rep}: {} flow outcomes for {} flows",
                        resumed.merged.flows.len(),
                        flows.len()
                    )
                });
            time_reports(&resumed.merged, repeats, &mut outcome.samples, tracer);
        });
        if outcome.units.len() == rep {
            // The rep died before its unit was recorded; its cause is in the tally.
            break;
        }
    }
    // Untimed: a morning captured on two shards and resumed on one lands on
    // the uninterrupted day's digest.
    let across = FleetCheckpoint::capture(&fleet(CHECK_SHARDS), flows, cut)
        .resume(&fleet(SHARDS))
        .digest();
    outcome.tally.check(across == digest, || {
        format!(
            "captured on {CHECK_SHARDS} shards and resumed on {SHARDS}: {across:016x}, \
             uninterrupted {digest:016x}"
        )
    });
    outcome.digests.push(("resumed", last_resumed.unwrap_or(0)));
    for (name, series) in [
        ("core.ckpt_capture_s", &capture_s),
        ("core.ckpt_resume_s", &resume_s),
    ] {
        outcome.extra(name, "s", Clock::Wall, stats::fastest(series), series.len());
    }
    outcome
}
