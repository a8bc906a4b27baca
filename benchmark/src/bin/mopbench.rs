//! The end-to-end pass: system allocator, no spans.

use std::path::Path;
use std::time::Instant;

use mopbench::report::{self, Pass};
use mopbench::spans::Tracer;
use mopbench::{cli, workloads};

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("collect") if args.len() == 2 => collect(Path::new(&args[1])),
        Some("diff") if args.len() == 3 => diff(&args[1], &args[2]),
        Some("-h" | "--help") | None => println!("{}", cli::USAGE),
        _ => run(&args, started),
    }
}

fn run(args: &[String], started: Instant) {
    let (plan, host) = cli::plan_or_exit(args, started);
    let outcome = workloads::run(&plan, &mut Tracer::off());
    let metrics = outcome.end_to_end();
    report::print_table(Pass::EndToEnd, &plan, &outcome, &metrics, &outcome.extras);
    let doc = report::document(
        Pass::EndToEnd,
        &plan,
        &host,
        &outcome,
        &metrics,
        &outcome.extras,
        None,
    );
    let path = plan.out_dir.join(Pass::EndToEnd.file_name(plan.workload));
    if let Err(e) = report::write_json(&path, &doc) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("{}", report::result_line(&outcome, &metrics));
}

fn read_doc(path: &Path) -> mop_json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    mop_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("{} is not JSON: {e}", path.display());
        std::process::exit(2);
    })
}

fn collect(dir: &Path) {
    match report::collect(dir) {
        Ok(doc) => {
            let names: Vec<&str> = match &doc["workloads"] {
                mop_json::Value::Object(entries) => {
                    entries.iter().map(|(k, _)| k.as_str()).collect()
                }
                _ => Vec::new(),
            };
            println!(
                "wrote {}/mopbench.json ({})",
                dir.display(),
                names.join(", ")
            );
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}

/// `a` and `b` are comma-separated lists of collected documents.
fn diff(a: &str, b: &str) {
    let side = |list: &str| -> Vec<_> { list.split(',').map(|p| read_doc(Path::new(p))).collect() };
    let disagreements = report::diff(&side(a), &side(b));
    if disagreements.is_empty() {
        println!(
            "A/A: the two sets agree within every bound, exactly on modelled figures and digests"
        );
        return;
    }
    for line in &disagreements {
        println!("DISAGREE: {line}");
    }
    std::process::exit(1);
}
