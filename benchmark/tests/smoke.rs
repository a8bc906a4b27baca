//! The `--smoke` size end to end: a twentieth of every population through
//! the same code path as the full benchmark, so a broken workload fails
//! `cargo test --manifest-path benchmark/Cargo.toml` in seconds.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use mopbench::catalog::{END_TO_END, PER_LAYER};
use mopbench::spans::Tracer;
use mopbench::workloads::{self, Plan, Workload};

/// A scratch directory of this test's own: tests run as threads of one
/// process, and scratch file names only carry the workload and the pid.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke_plan(workload: Workload, test: &str) -> Plan {
    Plan {
        workload,
        seed: 11,
        input_seed: Default::default(),
        seconds: 1.0,
        smoke: true,
        out_dir: scratch(test),
        started: Instant::now(),
    }
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    for workload in Workload::ALL {
        let plan = smoke_plan(workload, &format!("untraced-{}", workload.name()));
        let outcome = workloads::run(&plan, &mut Tracer::off());
        assert_eq!(
            outcome.tally.failed, 0,
            "{workload:?}: {:?}",
            outcome.tally.violations
        );
        assert!(
            outcome.tally.attempted > outcome.reference.flows,
            "{workload:?} counts flows and checks"
        );
        assert!(!outcome.digests.is_empty());
        assert_eq!(outcome.units.len(), 1, "smoke runs one timed unit");
        let metrics = outcome.end_to_end();
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in &metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload:?} {} = {}",
                m.spec.name,
                m.value
            );
            assert!(m.n >= 1);
        }
        // Nothing is left behind in the scratch directory.
        let left: Vec<_> = std::fs::read_dir(&plan.out_dir).unwrap().collect();
        assert!(left.is_empty(), "{workload:?} left {left:?}");
    }
}

#[test]
fn the_traced_pass_alternates_units_and_records_layer_spans() {
    for workload in Workload::ALL {
        let plan = smoke_plan(workload, &format!("traced-{}", workload.name()));
        let mut tracer = Tracer::alternating(None);
        let outcome = workloads::run(&plan, &mut tracer);
        assert_eq!(
            outcome.tally.failed, 0,
            "{workload:?}: {:?}",
            outcome.tally.violations
        );
        let traced: Vec<bool> = outcome.units.iter().map(|u| u.traced).collect();
        assert_eq!(traced, [false, true], "{workload:?}");
        assert!(outcome.unit_wall_s() > 0.0 && outcome.traced_unit_wall_s() > 0.0);
        assert!(
            outcome.ckpt_text.is_some(),
            "the traced pass keeps a checkpoint for the JSON probes"
        );
        let totals = tracer.totals();
        assert!(totals.contains_key("dataset.generate") || workload == Workload::ServeSteps);
        assert!(
            totals.keys().any(|name| name.starts_with("core.")),
            "{totals:?}"
        );
        for t in totals.values() {
            assert!(t.self_ns <= t.total_ns);
        }
        // The same digests as the untraced run of the same seed.
        let untraced = workloads::run(&plan, &mut Tracer::off());
        assert_eq!(outcome.digests, untraced.digests, "{workload:?}");
    }
}

#[test]
fn batch_costs_scale_down_with_the_population() {
    let plan = smoke_plan(Workload::RushHour, "batch-cost");
    let mut tracer = Tracer::off();
    let full = workloads::batch_cost(&plan, 1, workloads::CHECK_SHARDS, &mut tracer);
    let quarter = workloads::batch_cost(&plan, 4, workloads::SHARDS, &mut tracer);
    assert!(quarter.reference.flows < full.reference.flows);
    assert_eq!(
        full.reference.per_shard_events.len(),
        workloads::CHECK_SHARDS
    );
    assert_eq!(quarter.reference.per_shard_events.len(), workloads::SHARDS);
    assert!(full.reference.shard_imbalance().unwrap() >= 1.0);
}

/// Runs one of the package's binaries and returns (exit ok, stdout).
fn run_binary(exe: &str, args: &[&str]) -> (bool, String) {
    let output = Command::new(exe).args(args).output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).unwrap(),
    )
}

fn assert_result_line(stdout: &str, names: Vec<&str>) {
    let line = stdout.lines().last().expect("a result line");
    let doc = mop_json::from_str(line).expect("the last stdout line is one JSON object");
    let mop_json::Value::Object(fields) = &doc else {
        panic!("not an object: {line}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc["correct"].as_bool(), Some(true), "{line}");
    assert!(doc["attempted"].as_u64().unwrap() >= 1);
    assert_eq!(doc["failed"].as_u64(), Some(0));
    let mop_json::Value::Object(metrics) = &doc["metrics"] else {
        panic!("metrics: {line}")
    };
    let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(reported, names);
    for (name, metric) in metrics {
        assert!(
            metric["value"].as_f64().is_some_and(f64::is_finite),
            "{name}: {line}"
        );
        assert!(metric["unit"].as_str().is_some());
    }
}

#[test]
fn the_binaries_print_the_drivers_result_line() {
    let out = scratch("binaries");
    let out_arg = out.to_str().unwrap();
    let args = [
        "--workload",
        "serve_steps",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--smoke",
        "--out",
        out_arg,
    ];
    let (ok, stdout) = run_binary(
        env!("CARGO_BIN_EXE_mopbench"),
        &[&args[..], &["--trace", "0"]].concat(),
    );
    assert!(ok, "{stdout}");
    assert_result_line(&stdout, END_TO_END.iter().map(|m| m.name).collect());
    let (ok, stdout) = run_binary(
        env!("CARGO_BIN_EXE_mopbench-trace"),
        &[&args[..], &["--trace", "1"]].concat(),
    );
    assert!(ok, "{stdout}");
    assert_result_line(&stdout, PER_LAYER.iter().map(|m| m.name).collect());
    assert!(out.join("trace-serve_steps.json").exists());

    let (ok, stdout) = run_binary(env!("CARGO_BIN_EXE_mopbench"), &["collect", out_arg]);
    assert!(ok, "{stdout}");
    let collected = out.join("mopbench.json");
    let doc = mop_json::from_str(&std::fs::read_to_string(&collected).unwrap()).unwrap();
    assert_eq!(doc["schema"].as_str(), Some("mopeye-bench/v11"));
    assert!(!doc["workloads"]["serve_steps"]["per_layer"]["span_totals"].is_null());
    let same = collected.to_str().unwrap();
    let (ok, stdout) = run_binary(env!("CARGO_BIN_EXE_mopbench"), &["diff", same, same]);
    assert!(ok, "a document agrees with itself: {stdout}");
}

#[test]
fn a_refused_run_prints_no_result() {
    let (ok, stdout) = run_binary(env!("CARGO_BIN_EXE_mopbench"), &["--workload", "nope"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}
