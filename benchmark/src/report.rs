//! What a run leaves behind: the printed `name unit value n` table, the
//! driver's result line, the per-workload JSON documents, the collected
//! `mopbench.json` (`schema: mopeye-bench/v11`) and the A/A comparison of
//! two such files.

use std::path::Path;

use mop_json::{json, Value};

use crate::catalog::{self, Clock, Measured};
use crate::host::Host;
use crate::stats;
use crate::workloads::{Extra, Outcome, Plan, Workload};

pub const SCHEMA: &str = "mopeye-bench/v11";

/// Which pass produced a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    EndToEnd,
    PerLayer,
}

impl Pass {
    pub fn label(self) -> &'static str {
        match self {
            Pass::EndToEnd => "end_to_end",
            Pass::PerLayer => "per_layer",
        }
    }

    /// The document's file name under the output directory.
    pub fn file_name(self, workload: Workload) -> String {
        match self {
            Pass::EndToEnd => format!("{}.json", workload.name()),
            Pass::PerLayer => format!("{}.layers.json", workload.name()),
        }
    }
}

fn number(value: f64) -> Value {
    // Counts print as integers; everything else keeps every digit.
    if value.fract() == 0.0 && value.abs() < 9e15 {
        Value::Int(value as i64)
    } else {
        Value::Float(value)
    }
}

fn metric_json(name: &str, unit: &str, clock: Clock, value: f64, n: usize) -> Vec<(String, Value)> {
    vec![
        ("name".to_string(), Value::from(name)),
        ("value".to_string(), number(value)),
        ("unit".to_string(), Value::from(unit)),
        ("clock".to_string(), Value::from(clock.label())),
        ("n".to_string(), Value::from(n)),
    ]
}

/// The per-workload document one pass writes.
pub fn document(
    pass: Pass,
    plan: &Plan,
    host: &Host,
    outcome: &Outcome,
    metrics: &[Measured],
    extras: &[Extra],
    span_totals: Option<Value>,
) -> Value {
    let metrics: Vec<Value> = metrics
        .iter()
        .map(|m| {
            let mut fields = metric_json(m.spec.name, m.spec.unit, m.spec.clock, m.value, m.n);
            fields.push(("better".to_string(), Value::from(m.spec.better.label())));
            if pass == Pass::EndToEnd {
                fields.push(("bound".to_string(), Value::from(m.spec.bound)));
            }
            if let Some(note) = &m.note {
                fields.push(("note".to_string(), Value::from(note.as_str())));
            }
            Value::Object(fields)
        })
        .collect();
    let extras: Vec<Value> = extras
        .iter()
        .filter(|e| e.value.is_finite())
        .map(|e| Value::Object(metric_json(e.name, e.unit, e.clock, e.value, e.n)))
        .collect();
    let digests: Vec<(String, Value)> = outcome
        .digests
        .iter()
        .map(|(name, digest)| (name.to_string(), Value::from(format!("{digest:016x}"))))
        .collect();
    let params: Vec<(String, Value)> = outcome
        .params
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let mut doc = vec![
        ("schema".to_string(), Value::from(SCHEMA)),
        ("pass".to_string(), Value::from(pass.label())),
        ("workload".to_string(), Value::from(plan.workload.name())),
        ("why".to_string(), Value::from(catalog::why(plan.workload))),
        ("host".to_string(), host.to_json()),
        ("seed".to_string(), Value::from(plan.seed)),
        ("seconds".to_string(), Value::from(plan.seconds)),
        ("smoke".to_string(), Value::from(plan.smoke)),
        ("params".to_string(), Value::Object(params)),
        (
            "correct".to_string(),
            Value::from(outcome.tally.failed == 0),
        ),
        (
            "attempted".to_string(),
            Value::from(outcome.tally.attempted),
        ),
        ("failed".to_string(), Value::from(outcome.tally.failed)),
        (
            "violations".to_string(),
            Value::from(outcome.tally.violations.clone()),
        ),
        (
            "warnings".to_string(),
            Value::from(outcome.warnings.clone()),
        ),
        ("digests".to_string(), Value::Object(digests)),
        ("reference".to_string(), outcome.reference.to_json()),
        // Every timed unit, in run order ("traced" units only in the traced pass).
        (
            "unit_walls_s".to_string(),
            Value::Array(
                outcome
                    .units
                    .iter()
                    .map(|u| json!({ "wall_s": u.wall_s, "traced": u.traced }))
                    .collect(),
            ),
        ),
        ("metrics".to_string(), Value::Array(metrics)),
        ("extras".to_string(), Value::Array(extras)),
    ];
    // What the latency metrics are taken over: the fastest observation of
    // every distinct operation, in operation order, and every set-up.
    let s = &outcome.samples;
    doc.push((
        "fastest".to_string(),
        json!({
            "setup_s": outcome.setups_s.clone(),
            "step_ms": s.step_ms.fastest(),
            "status_us": s.status_us.fastest(),
            "ckpt_save_ms": s.save_ms.fastest(),
            "ckpt_load_ms": s.load_ms.fastest(),
            "report_ms": s.report_ms.fastest(),
        }),
    ));
    if let Some(totals) = span_totals {
        doc.push(("span_totals".to_string(), totals));
    }
    Value::Object(doc)
}

/// Prints the human-readable table: one `name unit value n` row per metric,
/// then digests, warnings and violations.
pub fn print_table(
    pass: Pass,
    plan: &Plan,
    outcome: &Outcome,
    metrics: &[Measured],
    extras: &[Extra],
) {
    println!(
        "# {} {} seed={} seconds={}{}",
        plan.workload.name(),
        pass.label(),
        plan.seed,
        plan.seconds,
        if plan.smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<34} {:<8} {:>16} {:>7}  clock",
        "name", "unit", "value", "n"
    );
    let row = |name: &str, unit: &str, value: f64, n: usize, clock: Clock, note: &str| {
        println!(
            "{name:<34} {unit:<8} {value:>16.4} {n:>7}  {}{note}",
            clock.label()
        );
    };
    for m in metrics {
        let note = m
            .note
            .as_ref()
            .map(|n| format!("  ({n})"))
            .unwrap_or_default();
        row(m.spec.name, m.spec.unit, m.value, m.n, m.spec.clock, &note);
    }
    for e in extras.iter().filter(|e| e.value.is_finite()) {
        row(
            e.name,
            e.unit,
            e.value,
            e.n,
            e.clock,
            "  (this workload only)",
        );
    }
    for (name, digest) in &outcome.digests {
        println!("digest {name} {digest:016x}");
    }
    println!(
        "failed_share {} / {} = {}",
        outcome.tally.failed,
        outcome.tally.attempted,
        outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64
    );
    for warning in &outcome.warnings {
        println!("warning: {warning}");
    }
    for violation in &outcome.tally.violations {
        println!("VIOLATION: {violation}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. A metric that could not be measured makes the run incorrect.
pub fn result_line(outcome: &Outcome, metrics: &[Measured]) -> String {
    let unmeasured = metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
    let entries: Vec<(String, Value)> = metrics
        .iter()
        .map(|m| {
            (
                m.spec.name.to_string(),
                json!({ "value": Value::Float(m.value), "unit": m.spec.unit }),
            )
        })
        .collect();
    mop_json::to_string(&json!({
        "correct": outcome.tally.failed + unmeasured == 0,
        "attempted": outcome.tally.attempted.max(1),
        "failed": outcome.tally.failed + unmeasured,
        "metrics": Value::Object(entries),
    }))
}

pub fn write_json(path: &Path, doc: &Value) -> std::io::Result<()> {
    std::fs::write(path, mop_json::to_string_pretty(doc) + "\n")
}

/// Gathers the per-workload documents in `dir` into `dir/mopbench.json`.
/// `Err` when there are none or when any of them recorded a failed
/// operation (the document is written either way).
pub fn collect(dir: &Path) -> Result<Value, String> {
    let mut workloads = Vec::new();
    let mut incorrect = Vec::new();
    let mut host = Value::Null;
    let mut seed = Value::Null;
    for workload in Workload::ALL {
        let mut passes = Vec::new();
        for pass in [Pass::EndToEnd, Pass::PerLayer] {
            let path = dir.join(pass.file_name(workload));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let doc = mop_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if host.is_null() {
                host = doc["host"].clone();
                seed = doc["seed"].clone();
            }
            if doc["correct"].as_bool() != Some(true) {
                incorrect.push(format!("{} ({})", workload.name(), pass.label()));
            }
            passes.push((pass.label().to_string(), doc));
        }
        if !passes.is_empty() {
            workloads.push((workload.name().to_string(), Value::Object(passes)));
        }
    }
    if workloads.is_empty() {
        return Err(format!("no workload documents under {}", dir.display()));
    }
    let doc = json!({
        "schema": SCHEMA,
        "host": host,
        "seed": seed,
        "workloads": Value::Object(workloads),
    });
    write_json(&dir.join("mopbench.json"), &doc).map_err(|e| e.to_string())?;
    if !incorrect.is_empty() {
        return Err(format!("failed operations in: {}", incorrect.join(", ")));
    }
    Ok(doc)
}

fn metric_list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc[key].as_array().map_or(&[], Vec::as_slice)
}

/// The values of metric `name` in `list` of `pass` for `workload`, one per
/// document that has it.
fn values_of(docs: &[Value], workload: Workload, pass: Pass, list: &str, name: &Value) -> Vec<f64> {
    docs.iter()
        .filter_map(|doc| {
            metric_list(&doc["workloads"][workload.name()][pass.label()], list)
                .iter()
                .find(|m| &m["name"] == name)
                .and_then(|m| m["value"].as_f64())
        })
        .collect()
}

/// Compares two sets of collected documents of the **same commit and seed**
/// (one document per side is the plain two-set A/A check; several per side,
/// taken alternately, is the robust one): the medians of every end-to-end
/// metric within its own bound (either way — neither side is the baseline),
/// every `clock: modelled` figure and every digest exactly, in every
/// document. Prints one row per workload per metric; returns the
/// disagreements.
pub fn diff(a: &[Value], b: &[Value]) -> Vec<String> {
    let mut disagreements = Vec::new();
    println!(
        "{:<12} {:<34} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "delta", "bound"
    );
    let Some(first) = a.first() else {
        return vec!["no documents on side a".into()];
    };
    for workload in Workload::ALL {
        for pass in [Pass::EndToEnd, Pass::PerLayer] {
            let template = &first["workloads"][workload.name()][pass.label()];
            for list in ["metrics", "extras"] {
                for metric in metric_list(template, list) {
                    let name = metric["name"].as_str().unwrap_or("?");
                    let exact = metric["clock"].as_str() == Some(Clock::Modelled.label());
                    let bound = metric["bound"].as_f64();
                    if !exact && bound.is_none() {
                        continue; // A wall-clock layer figure: reported, never gated.
                    }
                    if name == "step_ms_tail" && metric["note"].as_str() == Some("p50") {
                        continue; // Too few steps for a tail: this is step_ms_p50 again.
                    }
                    let va = values_of(a, workload, pass, list, &metric["name"]);
                    let vb = values_of(b, workload, pass, list, &metric["name"]);
                    if va.is_empty() || vb.is_empty() {
                        disagreements
                            .push(format!("{} {name}: missing on one side", workload.name()));
                        continue;
                    }
                    let (ma, mb) = (stats::median(&va), stats::median(&vb));
                    let delta = (mb - ma).abs() / ma.abs().min(mb.abs()).max(f64::MIN_POSITIVE);
                    let allowed = if exact { 0.0 } else { bound.unwrap_or(0.0) };
                    let ok = if exact {
                        va.iter().chain(&vb).all(|v| *v == va[0])
                    } else {
                        delta <= allowed
                    };
                    println!(
                        "{:<12} {name:<34} {ma:>16.4} {mb:>16.4} {:>7.2}% {:>6.0}%  {}",
                        workload.name(),
                        delta * 100.0,
                        allowed * 100.0,
                        if ok { "agree" } else { "DISAGREE" }
                    );
                    if !ok {
                        disagreements.push(format!(
                            "{} {name}: {ma} vs {mb} ({:.2} % apart, allowed {:.0} %)",
                            workload.name(),
                            delta * 100.0,
                            allowed * 100.0
                        ));
                    }
                }
            }
            let digests: Vec<&Value> = a
                .iter()
                .chain(b)
                .map(|doc| &doc["workloads"][workload.name()][pass.label()]["digests"])
                .filter(|d| !d.is_null())
                .collect();
            let Some(expect) = digests.first() else {
                continue;
            };
            if digests.iter().all(|d| d == expect) {
                println!(
                    "{:<12} {:<34} {}  agree (exact, {} documents)",
                    workload.name(),
                    format!("digests ({})", pass.label()),
                    mop_json::to_string(expect),
                    digests.len()
                );
            } else {
                disagreements.push(format!(
                    "{} {} digests differ between documents",
                    workload.name(),
                    pass.label()
                ));
            }
        }
    }
    disagreements
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected(flows_per_s: f64, mbps: f64, digest: &str) -> Value {
        let metric = json!({
            "name": "flows_per_s", "value": flows_per_s, "unit": "flows/s",
            "clock": "wall", "n": 3, "better": "higher", "bound": 0.10
        });
        let layer = json!({
            "name": "core.run_ns_per_pkt", "value": flows_per_s * 7.0, "unit": "ns",
            "clock": "wall", "n": 3, "better": "lower"
        });
        let modelled = json!({
            "name": "modelled.relay_mbps", "value": mbps, "unit": "Mbps",
            "clock": "modelled", "n": 1, "better": "higher"
        });
        let e2e = json!({
            "metrics": Value::Array(vec![metric]),
            "extras": Value::Array(vec![]),
            "digests": json!({ "run": digest })
        });
        let layers = json!({
            "metrics": Value::Array(vec![layer, modelled]),
            "extras": Value::Array(vec![]),
            "digests": json!({ "run": digest })
        });
        json!({
            "schema": SCHEMA,
            "workloads": json!({ "rush_hour": json!({ "end_to_end": e2e, "per_layer": layers }) })
        })
    }

    #[test]
    fn diff_applies_bounds_to_wall_and_equality_to_modelled() {
        let doc = |flows_per_s| collected(flows_per_s, 1540.7, "8da573944fbb010f");
        let a = [doc(3000.0)];
        assert!(diff(&a, &a).is_empty());
        // 5 % apart on a 10 % bound agrees; the unbounded layer figure is ignored.
        assert!(diff(&a, &[doc(3150.0)]).is_empty());
        let slow = diff(&a, &[doc(3400.0)]);
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].contains("flows_per_s"));
        // Several documents a side: the medians are compared, so one noisy
        // set on each side does not decide the verdict.
        let noisy_a = [doc(3000.0), doc(2400.0), doc(3050.0)];
        let noisy_b = [doc(3400.0), doc(3100.0), doc(2950.0)];
        assert!(diff(&noisy_a, &noisy_b).is_empty());
        let drift = diff(&a, &[collected(3000.0, 1540.8, "8da573944fbb010f")]);
        assert!(
            drift.len() == 1 && drift[0].contains("modelled.relay_mbps"),
            "{drift:?}"
        );
        // A modelled figure must be equal in every document, not on median.
        let one_off = [
            doc(3000.0),
            collected(3000.0, 1540.8, "8da573944fbb010f"),
            doc(3000.0),
        ];
        assert_eq!(diff(&one_off, &noisy_b).len(), 1);
        let digest = diff(&a, &[collected(3000.0, 1540.7, "0000000000000000")]);
        assert_eq!(digest.len(), 2, "one per pass: {digest:?}");
    }

    #[test]
    fn counts_print_as_integers_and_times_keep_their_digits() {
        assert_eq!(mop_json::to_string(&number(23621.0)), "23621");
        assert_eq!(mop_json::to_string(&number(7.403251)), "7.403251");
    }
}
