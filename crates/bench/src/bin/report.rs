//! Streaming crowd-analytics report over a fleet scenario.
//!
//! Runs a fleet scenario on the sharded relay engine with raw-sample
//! retention **disabled** — every RTT measurement is folded into the shard
//! sinks' mergeable sketches as it is produced, and the crowd report
//! (per-network medians and CDFs, top apps, app-slow-vs-network-slow
//! diagnosis, ISP ranking) is rendered from the merged aggregates. The
//! record vector is never materialised, so analytics memory is
//! O(apps × networks) whatever the connection count.
//!
//! The `diurnal` scenario is the longitudinal mode: a simulated day whose
//! samples are additionally stamped into per-hour epoch windows, rendered
//! as a time series (`--epochs`) and diagnosed for mid-day ISP degradations
//! vs app regressions. Any epoch boundary is a checkpoint cut:
//! `--checkpoint` saves the run's state there, `--resume` completes it —
//! bit-identically to the uninterrupted run, at any shard count.
//!
//! Usage:
//!
//! ```text
//! report                        # 2,000-user rush hour on 4 shards
//! report --users 13000          # ~100k connections
//! report --shards 8 --seed 7    # shard count / seed
//! report --scenario degraded-commute --cc cubic
//! #                             # lossy 3G → LTE commute, CUBIC recovery
//! report --scenario diurnal --epochs
//! #                             # a simulated day with the per-hour table
//! report --scenario diurnal --checkpoint day.ckpt --cut-epoch 12
//! #                             # run hours 0-11, save the rest
//! report --scenario diurnal --resume day.ckpt --shards 8
//! #                             # finish the day on a different fleet
//! report --out target/report    # also write report.txt / report.json there
//! report --users 1000 --shards 1 --profile
//! #                             # plus the engines' structure counters
//! ```
//!
//! A malformed or out-of-range value (`--users 0`, `--shards x`,
//! `--cc cubc`) is an error, not a fallback to the default.

use std::fs;
use std::path::PathBuf;

use mop_analytics::render::{render_loss_recovery, LossRecoverySummary};
use mop_analytics::{diagnose_trends, render_epoch_table, render_table, TrendConfig};
use mop_bench::{render_crowd_report, run_scenario_lean};
use mop_dataset::{DiurnalScenario, Scenario};
use mop_simnet::{SimDuration, SimNetworkBuilder};
use mop_tun::FlowSpec;
use mopeye_core::{
    epoch_boundary, CongestionAlgo, FleetCheckpoint, FleetConfig, FleetEngine, FleetReport,
};

struct Options {
    users: usize,
    shards: usize,
    seed: u64,
    scenario: String,
    congestion: CongestionAlgo,
    out_dir: Option<PathBuf>,
    epochs: bool,
    profile: bool,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    cut_epoch: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        users: 2_000,
        shards: 4,
        seed: 2017,
        scenario: "rush-hour".into(),
        congestion: CongestionAlgo::Reno,
        out_dir: None,
        epochs: false,
        profile: false,
        checkpoint: None,
        resume: None,
        cut_epoch: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--users" => options.users = positive("--users", &value("--users")?)?,
            "--shards" => options.shards = positive("--shards", &value("--shards")?)?,
            "--seed" => {
                options.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--scenario" => options.scenario = value("--scenario")?,
            "--cc" => {
                options.congestion = match value("--cc")?.as_str() {
                    "reno" => CongestionAlgo::Reno,
                    "cubic" => CongestionAlgo::Cubic,
                    other => return Err(format!("--cc: unknown algorithm {other:?}")),
                }
            }
            "--out" => options.out_dir = Some(value("--out")?.into()),
            "--epochs" => options.epochs = true,
            "--profile" => options.profile = true,
            "--checkpoint" => options.checkpoint = Some(value("--checkpoint")?.into()),
            "--resume" => options.resume = Some(value("--resume")?.into()),
            "--cut-epoch" => {
                options.cut_epoch =
                    Some(value("--cut-epoch")?.parse().map_err(|e| format!("--cut-epoch: {e}"))?)
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: report [--users <n>] [--shards <n>] [--seed <n>] \
                     [--scenario rush-hour|flash-crowd|degraded-commute|diurnal] \
                     [--cc reno|cubic] [--epochs] [--profile] \
                     [--checkpoint <file> [--cut-epoch <n>]] \
                     [--resume <file>] [--out <dir>]\n\
                     --profile also prints the engines' structure counters: elements \
                     scanned or moved beyond O(1) probes, in total and per flow.\n\
                     resume must use the same --scenario/--users/--seed the checkpoint was \
                     saved with; --shards may differ freely."
                );
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    Ok(options)
}

/// Parses a count that must be at least one.
fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// The scenario being run: a classic burst scenario or the longitudinal day.
enum Plan {
    Classic(Scenario),
    Diurnal(DiurnalScenario),
}

impl Plan {
    fn name(&self) -> String {
        match self {
            Plan::Classic(scenario) => scenario.spec().name.clone(),
            Plan::Diurnal(day) => day.name().to_string(),
        }
    }

    fn network(&self) -> SimNetworkBuilder {
        match self {
            Plan::Classic(scenario) => scenario.network(),
            Plan::Diurnal(day) => day.network(),
        }
    }

    fn generate(&self) -> Vec<FlowSpec> {
        match self {
            Plan::Classic(scenario) => scenario.generate(),
            Plan::Diurnal(day) => day.generate(),
        }
    }

    /// The epoch width windowed runs use: one virtual hour for the day,
    /// an eighth of the arrival window for the burst scenarios.
    fn epoch_width(&self) -> SimDuration {
        match self {
            Plan::Classic(scenario) => {
                SimDuration::from_nanos((scenario.spec().duration.as_nanos() / 8).max(1))
            }
            Plan::Diurnal(_) => DiurnalScenario::virtual_hour(),
        }
    }

    /// The default checkpoint cut: mid-day for the diurnal scenario, half
    /// the eight window epochs otherwise.
    fn default_cut_epoch(&self) -> u64 {
        match self {
            Plan::Classic(_) => 4,
            Plan::Diurnal(_) => 12,
        }
    }
}

fn main() {
    let options = parse_args().unwrap_or_else(|message| {
        eprintln!("report: {message}");
        std::process::exit(2);
    });
    let plan = match options.scenario.as_str() {
        "rush-hour" => Plan::Classic(Scenario::rush_hour(options.users, options.seed)),
        "flash-crowd" => Plan::Classic(Scenario::flash_crowd(options.users, options.seed)),
        "degraded-commute" => {
            Plan::Classic(Scenario::degraded_commute(options.users, options.seed))
        }
        "diurnal" => Plan::Diurnal(Scenario::diurnal(options.users, options.seed)),
        other => {
            eprintln!(
                "unknown scenario {other:?}; expected rush-hour, flash-crowd, \
                 degraded-commute or diurnal"
            );
            std::process::exit(2);
        }
    };
    // Epoch windows are on for the longitudinal scenario and whenever the
    // epoch table or a checkpoint cut is requested.
    let windowed = options.epochs
        || options.checkpoint.is_some()
        || options.resume.is_some()
        || matches!(plan, Plan::Diurnal(_));
    let started = std::time::Instant::now();
    let report = run_plan(&plan, &options, windowed);
    let Some(report) = report else { return };
    let ran_in = started.elapsed().as_secs_f64();
    let output = render_crowd_report(&report.merged.aggregates);
    println!("{}", output.text);
    if let Some(windows) = &report.merged.windows {
        if options.epochs {
            println!("{}", render_epoch_table("Per-epoch TCP RTT (live window)", windows));
        }
        let trends = diagnose_trends(windows, TrendConfig::default());
        if !trends.is_empty() {
            let rows: Vec<Vec<String>> = trends
                .iter()
                .map(|t| {
                    vec![
                        t.subject.clone(),
                        t.samples.to_string(),
                        format!("{:.1}", t.early_median_ms),
                        format!("{:.1}", t.late_median_ms),
                        format!("{:.2}x", t.ratio()),
                        t.verdict.label().to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "Time-series diagnosis (early vs late epochs)",
                    &["subject", "samples", "early p50", "late p50", "ratio", "verdict"],
                    &rows,
                )
            );
        }
    }
    let relay = &report.merged.relay;
    let recovery = LossRecoverySummary {
        congestion: match options.congestion {
            CongestionAlgo::Reno => "reno",
            CongestionAlgo::Cubic => "cubic",
        },
        retransmits: relay.retransmits,
        fast_retransmits: relay.fast_retransmits,
        rto_fires: relay.rto_fires,
        sacked_segments: relay.sacked_segments,
    };
    if recovery.any_fired() {
        println!("{}", render_loss_recovery(&recovery));
    }
    println!(
        "run: {} ({} users, {} shards, seed {}): {} flows, {} samples into {} sketch cells \
         (raw vector: {} entries), digest {:016x}, {ran_in:.1}s wall",
        plan.name(),
        options.users,
        options.shards,
        options.seed,
        report.merged.flows.len(),
        report.merged.aggregates.sample_count(),
        report.merged.aggregates.cell_count(),
        report.merged.samples.len(),
        report.digest(),
    );
    if options.profile {
        let flows = report.merged.flows.len().max(1) as f64;
        let rows: Vec<Vec<String>> = report
            .merged
            .counters
            .iter()
            .map(|(counter, value)| {
                let per_flow = format!("{:.3}", value as f64 / flows);
                vec![counter.name().to_string(), value.to_string(), per_flow]
            })
            .collect();
        println!(
            "{}",
            render_table(
                "Structure counters (host work beyond O(1) probes)",
                &["counter", "value", "per flow"],
                &rows
            )
        );
    }
    if let Some(dir) = options.out_dir {
        fs::create_dir_all(&dir).expect("create output directory");
        fs::write(dir.join("report.txt"), &output.text).expect("write report.txt");
        fs::write(dir.join("report.json"), mop_json::to_string_pretty(&output.json))
            .expect("write report.json");
        eprintln!("wrote {}/report.txt and report.json", dir.display());
    }
}

/// Runs the plan: a plain run, a run-and-save (`--checkpoint`, returns
/// `None` — the report belongs to the resumed run), or a load-and-finish
/// (`--resume`).
fn run_plan(plan: &Plan, options: &Options, windowed: bool) -> Option<FleetReport> {
    let fleet = build_fleet(plan, options, windowed);
    if let Some(path) = &options.resume {
        let text = fs::read_to_string(path).expect("read checkpoint file");
        let checkpoint = FleetCheckpoint::from_json_str(&text).expect("parse checkpoint file");
        eprintln!(
            "resuming {} pending flows from {} (cut at {:?}, saved on {} shards)",
            checkpoint.pending.len(),
            path.display(),
            checkpoint.cut,
            checkpoint.shards_at_save,
        );
        return Some(checkpoint.resume(&fleet));
    }
    if let Some(path) = &options.checkpoint {
        let width = plan.epoch_width().as_nanos();
        let cut_epoch = options.cut_epoch.unwrap_or_else(|| plan.default_cut_epoch());
        let cut = epoch_boundary(width, cut_epoch);
        let checkpoint = FleetCheckpoint::capture(&fleet, plan.generate(), cut);
        let text = checkpoint.to_json_string();
        fs::write(path, &text).expect("write checkpoint file");
        eprintln!(
            "checkpointed {} at epoch {} ({:?}): {} flows ran, {} pending, {} bytes → {}",
            plan.name(),
            cut_epoch,
            cut,
            checkpoint.base.flows.len(),
            checkpoint.pending.len(),
            text.len(),
            path.display(),
        );
        return None;
    }
    if !windowed {
        // The classic lean path, untouched: epoch-less runs keep their
        // historical digests.
        if let Plan::Classic(scenario) = plan {
            return Some(run_scenario_lean(
                scenario,
                options.shards,
                options.seed,
                options.congestion,
            ));
        }
    }
    Some(fleet.run(plan.generate()))
}

fn build_fleet(plan: &Plan, options: &Options, windowed: bool) -> FleetEngine {
    let mut config = FleetConfig::new(options.shards)
        .with_seed(options.seed)
        .with_congestion(options.congestion);
    config.engine = config.engine.with_retain_samples(false);
    if windowed {
        config = config.with_epochs(plan.epoch_width(), 32);
    }
    FleetEngine::new(config, plan.network())
}
