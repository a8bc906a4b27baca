//! The traced pass: the same workloads under the benchmark's own span
//! recorder and a counting allocator, plus the layer probe ladder.
//!
//! One process yields both sides of the tracing-overhead comparison: the
//! tracer alternates untraced and traced units, so `trace.overhead_share`
//! is (fastest traced wall − fastest untraced wall) ÷ untraced, and the
//! per-event / per-packet costs are taken from the fastest untraced unit.
//! Like the end-to-end pass, every wall-clock figure here is the fastest
//! observation (`stats.rs` says why); allocation counts are medians.

mod alloc;
mod probes;

use std::collections::BTreeMap;
use std::time::Instant;

use mop_json::{json, Value};
use mopbench::catalog::{self, Clock, Measured};
use mopbench::cli;
use mopbench::report::{self, Pass};
use mopbench::spans::Tracer;
use mopbench::stats::{fastest, median};
use mopbench::workloads::{self, BatchCost, Extra, Outcome, Plan, Workload};

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (plan, host) = cli::plan_or_exit(&args, started);

    let mut tracer = Tracer::alternating(Some(alloc::hooks()));
    let outcome = workloads::run(&plan, &mut tracer);

    // Scaling: the workload's flows as a plain batch at a quarter of the
    // population on one shard and on two, and (where the timed units are
    // not themselves warm one-shard batches) at full size.
    tracer.set_recording(true);
    let quarter = workloads::batch_cost(&plan, 4, workloads::SHARDS, &mut tracer);
    let quarter_sharded = workloads::batch_cost(&plan, 4, workloads::CHECK_SHARDS, &mut tracer);
    let full = match plan.workload {
        Workload::RushHour | Workload::BulkLossy => BatchCost {
            wall_s: outcome.unit_wall_s(),
            reference: outcome.reference.clone(),
        },
        Workload::ServeSteps | Workload::DayCkpt => {
            workloads::batch_cost(&plan, 1, workloads::SHARDS, &mut tracer)
        }
    };
    tracer.set_recording(false);

    let mut probed = probes::run(&plan.out_dir, plan.smoke);
    if let Some(text) = &outcome.ckpt_text {
        probes::json_codec(text, &mut probed);
    }

    let values = layer_values(&outcome, &quarter, &quarter_sharded, &full, &probed);
    let metrics: Vec<Measured> = catalog::PER_LAYER
        .iter()
        .map(|spec| Measured {
            spec,
            value: values.get(spec.name).copied().unwrap_or(f64::NAN),
            n: outcome.units.len(),
            note: None,
        })
        .collect();
    let extras = layer_extras(&plan, &outcome, &full, &probed);

    report::print_table(Pass::PerLayer, &plan, &outcome, &metrics, &extras);
    print_span_totals(&tracer);
    let doc = report::document(
        Pass::PerLayer,
        &plan,
        &host,
        &outcome,
        &metrics,
        &extras,
        Some(span_totals_json(&tracer)),
    );
    let trace_path = plan
        .out_dir
        .join(format!("trace-{}.json", plan.workload.name()));
    let layers_path = plan.out_dir.join(Pass::PerLayer.file_name(plan.workload));
    for (path, doc) in [(&trace_path, &tracer.to_json()), (&layers_path, &doc)] {
        if let Err(e) = report::write_json(path, doc) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", report::result_line(&outcome, &metrics));
}

/// Every per-layer catalogue metric, by name.
fn layer_values(
    outcome: &Outcome,
    quarter: &BatchCost,
    quarter_sharded: &BatchCost,
    full: &BatchCost,
    probed: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let r = &outcome.reference;
    let s = &outcome.samples;
    let (flows, events, pkts) = (r.flows as f64, r.events as f64, r.pkts as f64);
    let untraced = outcome.unit_wall_s();
    let traced: Vec<_> = outcome.units.iter().filter(|u| u.traced).collect();
    let allocs: Vec<f64> = traced.iter().map(|u| u.alloc.allocs as f64).collect();
    let alloc_bytes: Vec<f64> = traced.iter().map(|u| u.alloc.bytes as f64).collect();
    let ns_per_event = |cost: &BatchCost| cost.wall_s * 1e9 / cost.reference.events as f64;

    let mut v = probed.clone();
    v.insert(
        "dataset.generate_ns_per_flow",
        outcome.generate_s * 1e9 / flows,
    );
    v.insert("core.cold_run_s", outcome.cold_run_s);
    v.insert("core.run_ns_per_event", untraced * 1e9 / events);
    v.insert("core.run_ns_per_pkt", untraced * 1e9 / pkts);
    v.insert("core.events_per_flow", events / flows);
    v.insert("core.pkts_per_flow", pkts / flows);
    v.insert("tun.bytes_per_pkt", r.tun_bytes as f64 / pkts);
    v.insert(
        "core.superlinearity_4x",
        ns_per_event(full) / ns_per_event(quarter),
    );
    v.insert(
        "core.shard_scaling_2v1",
        quarter.wall_s / quarter_sharded.wall_s,
    );
    v.insert(
        "core.shard_imbalance",
        quarter_sharded
            .reference
            .shard_imbalance()
            .unwrap_or(f64::NAN),
    );
    v.insert("core.allocs_per_pkt", median(&allocs) / pkts);
    v.insert("core.alloc_bytes_per_flow", median(&alloc_bytes) / flows);
    v.insert("core.digest_ms", fastest(&s.digest_ms));
    v.insert("core.ckpt_serialise_ms", fastest(&s.serialise_ms));
    v.insert("core.ckpt_write_ms", fastest(&s.write_ms));
    v.insert("core.ckpt_parse_ms", fastest(&s.parse_ms));
    v.insert("core.ckpt_bytes", s.ckpt_bytes as f64);
    v.insert("analytics.crowd_render_ms", fastest(&s.crowd_ms));
    v.insert("modelled.relay_mbps", r.relay_mbps);
    v.insert("modelled.virtual_finish_s", r.virtual_finish_s);
    v.insert(
        "modelled.flows_completed_share",
        r.flows_completed as f64 / flows,
    );
    v.insert(
        "trace.overhead_share",
        outcome.traced_unit_wall_s() / untraced - 1.0,
    );
    v
}

/// Figures outside the universal catalogue: this workload's own numbers
/// from the end-to-end pass, exact counts that are often zero, and the
/// layer metrics only some workloads can produce.
fn layer_extras(
    plan: &Plan,
    outcome: &Outcome,
    full: &BatchCost,
    probed: &BTreeMap<&'static str, f64>,
) -> Vec<Extra> {
    let r = &outcome.reference;
    let units = outcome.units.len();
    let mut extras = outcome.extras.clone();
    let mut push = |name, unit, clock, value: f64, n| {
        extras.push(Extra {
            name,
            unit,
            clock,
            value,
            n,
        })
    };
    push(
        "core.pool_allocs_per_run",
        "count",
        Clock::Wall,
        full.reference.pool_allocs as f64,
        1,
    );
    push(
        "core.dispatch_stalls",
        "count",
        Clock::Wall,
        full.reference.dispatch_stalls as f64,
        1,
    );
    push(
        "core.sink_stalls",
        "count",
        Clock::Wall,
        full.reference.sink_stalls as f64,
        1,
    );
    push(
        "modelled.retransmits",
        "count",
        Clock::Modelled,
        r.retransmits as f64,
        1,
    );
    push(
        "modelled.connects_failed",
        "count",
        Clock::Modelled,
        r.connects_failed as f64,
        1,
    );
    push(
        "analytics.trend_ms",
        "ms",
        Clock::Wall,
        fastest(&outcome.samples.trend_ms),
        outcome.samples.trend_ms.len(),
    );
    push(
        "trace.traced_unit_s",
        "s",
        Clock::Wall,
        outcome.traced_unit_wall_s(),
        units / 2,
    );
    push(
        "trace.untraced_unit_s",
        "s",
        Clock::Wall,
        outcome.unit_wall_s(),
        units - units / 2,
    );
    if plan.workload == Workload::ServeSteps {
        // The served query minus what the dispatcher alone costs in process
        // on the same kind of state: socket, framing and thread hand-off.
        let rpc = median(&outcome.samples.status_us.fastest());
        let handle = probed
            .get("server.handle_line_us")
            .copied()
            .unwrap_or(f64::NAN);
        push(
            "server.rpc_us_p50",
            "us",
            Clock::Wall,
            rpc,
            outcome.samples.status_us.observations(),
        );
        push(
            "server.ckpt_rpc_ms_p50",
            "ms",
            Clock::Wall,
            median(&outcome.samples.save_ms.fastest()),
            outcome.samples.save_ms.observations(),
        );
        push(
            "server.rpc_minus_handle_line_us",
            "us",
            Clock::Wall,
            rpc - handle,
            outcome.samples.status_us.observations(),
        );
    }
    extras
}

fn span_totals_json(tracer: &Tracer) -> Value {
    let entries: Vec<(String, Value)> = tracer
        .totals()
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                json!({
                    "calls": t.calls,
                    "total_ms": t.total_ns as f64 / 1e6,
                    "self_ms": t.self_ns as f64 / 1e6,
                    "allocs": t.allocs,
                    "alloc_bytes": t.alloc_bytes,
                }),
            )
        })
        .collect();
    Value::Object(entries)
}

fn print_span_totals(tracer: &Tracer) {
    println!(
        "{:<34} {:>8} {:>14} {:>14} {:>12}",
        "span", "calls", "total_ms", "self_ms", "allocs"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{name:<34} {:>8} {:>14.3} {:>14.3} {:>12}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.allocs
        );
    }
}
