//! `rush_hour` and `bulk_lossy`: one scenario, one warm `ResidentFleet`,
//! repeated `run_next` reps in lean mode.
//!
//! Set-up (repeated at even intervals among the timed reps, each on a fresh
//! fleet) generates the scenario, captures a checkpoint halfway through its
//! duration (`rush_hour`: about half the flows have run, the rest are
//! pending; `bulk_lossy`: every download starts at 10 ms, so all have run),
//! spawns the fleet and runs the cold first rep (engines constructed, pools
//! grown). Timed reps then clone the flow schedule outside the timed region
//! and time `run_next` alone. After every rep the finished run is digested
//! (`status_us`) and rendered (`report_ms`), and the mid-run checkpoint is
//! saved and loaded (`ckpt_save_ms` / `ckpt_load_ms`).

use std::time::Instant;

use mop_json::Value;
use mopeye_core::{epoch_boundary, FleetCheckpoint, FleetEngine, FleetReport, ResidentFleet};

use super::{
    fleet_config, generate, run_sources, set_up, sources, time_checkpoint_files, time_digest,
    time_reports, Outcome, Plan, Reference, SetupCost, Source, Unit, CHECK_SHARDS, SHARDS,
};
use crate::spans::Tracer;

pub(super) fn run(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let config = fleet_config(plan, SHARDS);
    let sources = sources(plan, plan.input_seed(), 1);
    let Source::Classic(scenario) = &sources[0] else {
        unreachable!("the batch workloads run one classic scenario")
    };
    let network = scenario.network();
    // Flows arrive over the scenario's duration; cut halfway through it.
    let cut = epoch_boundary(scenario.spec().duration.as_nanos() / 2, 1);

    // ----- set-up: generate, mid-run checkpoint, spawn, cold rep -----------
    // The checkpoint comes first: its one-shot engines are gone before the
    // resident fleet grows, so `VmHWM` is the larger of the two, not the sum.
    let mut build = |tracer: &mut Tracer| {
        let (flows, generate_s) = generate(&sources, tracer);
        let input = flows[0].clone();
        let (checkpoint, _) = tracer.timed("core.ckpt_capture", |_| {
            FleetCheckpoint::capture(
                &FleetEngine::new(config.clone(), network.clone()),
                input,
                cut,
            )
        });
        let mut fleet = ResidentFleet::new(config.clone());
        let (cold_run_s, mut reports) = run_sources(&mut fleet, &sources, &flows, tracer);
        let flows = flows.into_iter().next().expect("one source, one schedule");
        let cost = SetupCost {
            generate_s,
            cold_run_s,
        };
        ((fleet, flows, reports.remove(0), checkpoint), cost)
    };
    let (mut fleet, mut flows, cold, mut checkpoint) =
        set_up(plan, &mut outcome, tracer, &mut build);
    let mut reference = Reference::default();
    reference.absorb_fleet(&cold);
    let digest = cold.digest();
    let ckpt_digest = checkpoint.base.fleet_digest();
    outcome.digests.push(("run", digest));
    outcome.digests.push(("checkpoint", ckpt_digest));
    outcome.tally.attempt(flows.len() as u64);
    check_flow_count(&cold, flows.len(), "cold rep", &mut outcome);
    let held = checkpoint.base.flows.len() + checkpoint.pending.len();
    outcome.tally.check(held == flows.len(), || {
        format!("the checkpoint holds {held} of {} flows", flows.len())
    });
    outcome
        .params
        .push(("scenario", Value::from(sources[0].name())));
    outcome.params.push(("flows", Value::from(flows.len())));
    outcome
        .params
        .push(("ckpt_flows_run", Value::from(checkpoint.base.flows.len())));

    // ----- timed reps ------------------------------------------------------
    let timed_since = Instant::now();
    while plan.more_units(outcome.units.len(), timed_since, tracer) {
        if plan.setup_due(outcome.setups_s.len(), timed_since, tracer) {
            drop((fleet, flows, checkpoint));
            let cold;
            (fleet, flows, cold, checkpoint) = set_up(plan, &mut outcome, tracer, &mut build);
            let got = cold.digest();
            outcome.tally.check(got == digest, || {
                format!("a later set-up's cold rep ran to {got:016x}, the first to {digest:016x}")
            });
        }
        let rep = outcome.units.len();
        tracer.begin_unit(rep);
        let input = flows.clone();
        let (report, wall_s, alloc) =
            tracer.measured("core.run_next", |_| fleet.run_next(&network, input));
        outcome.units.push(Unit {
            wall_s,
            traced: tracer.recording(),
            alloc,
        });
        outcome.samples.step_ms.push(0, wall_s * 1e3);
        // Pool allocations of a warm rep (the cold one grew the pools).
        reference.pool_allocs =
            report.merged.buffer_pool.allocations + report.merged.socket_read_pool.allocations;
        outcome.tally.attempt(flows.len() as u64);
        check_flow_count(&report, flows.len(), "rep", &mut outcome);

        // What an operator does with a finished run and a checkpoint, after
        // every rep — repeatedly, while that has cost under a tenth of the
        // rep — so the millisecond-scale figures are sampled across the
        // whole run rather than in one burst at its end.
        let path = plan.scratch("ckpt");
        let since = Instant::now();
        for _ in 0..plan.repeats() {
            let got = time_digest(1, &mut outcome.samples, tracer, || report.digest());
            outcome.tally.check(got == digest, || {
                format!("rep {rep} digest {got:016x} differs from rep 0's {digest:016x}")
            });
            time_reports(&report.merged, 1, &mut outcome.samples, tracer);
            let reloaded = time_checkpoint_files(&checkpoint, &path, 1, &mut outcome, tracer)
                .map(|loaded| loaded.base.fleet_digest());
            outcome.tally.check(reloaded == Some(ckpt_digest), || {
                format!(
                    "rep {rep}: reloaded checkpoint digest {reloaded:016x?} is not the saved one"
                )
            });
            if since.elapsed().as_secs_f64() > wall_s / 10.0 {
                break;
            }
        }
    }
    // Untimed: the same flows on two shards land on the same digest.
    let sharded = FleetEngine::new(fleet_config(plan, CHECK_SHARDS), network).run(flows);
    let got = sharded.digest();
    outcome.tally.check(got == digest, || {
        format!("{CHECK_SHARDS} shards ran to {got:016x}, {SHARDS} to {digest:016x}")
    });
    outcome.reference = reference;
    outcome
}

fn check_flow_count(report: &FleetReport, flows: usize, what: &str, outcome: &mut Outcome) {
    outcome.tally.check(report.merged.flows.len() == flows, || {
        format!(
            "{what}: {} flow outcomes for {flows} flows",
            report.merged.flows.len()
        )
    });
}
