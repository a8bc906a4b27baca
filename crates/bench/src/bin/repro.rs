//! Regenerates every table and figure of the MopEye evaluation.
//!
//! Usage:
//!
//! ```text
//! repro                     # run everything at the default scale
//! repro --experiment table2 # run a single experiment
//! repro --scale 0.01        # change the crowd-dataset scale
//! repro --out target/repro  # where to write text/JSON outputs
//! ```
//!
//! The defaults are [`ReproConfig::default`], whose outputs
//! `crates/bench/tests/golden/repro/` pins byte for byte. A malformed value
//! (`--scale abc`, `--video-minutes 0`) or an unknown experiment id is an
//! error with exit status 2, not a fallback to the default.

use std::fs;
use std::path::PathBuf;

use mop_bench::{run_experiments, ReproConfig, EXPERIMENTS};

struct Options {
    experiment: Option<String>,
    config: ReproConfig,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        experiment: None,
        config: ReproConfig::default(),
        out_dir: PathBuf::from("target/repro"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--experiment" => {
                let id = value("--experiment")?;
                if !EXPERIMENTS.contains(&id.as_str()) {
                    return Err(format!(
                        "--experiment: unknown id {id:?}; valid ids: {}",
                        EXPERIMENTS.join(", ")
                    ));
                }
                options.experiment = Some(id);
            }
            "--scale" => {
                let scale: f64 = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?;
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(format!("--scale must be a positive number, got {scale}"));
                }
                options.config.scale = scale;
            }
            "--out" => options.out_dir = value("--out")?.into(),
            "--video-minutes" => {
                options.config.video_minutes = match value("--video-minutes")?.parse() {
                    Ok(0) => return Err("--video-minutes must be at least 1".into()),
                    Ok(n) => n,
                    Err(e) => return Err(format!("--video-minutes: {e}")),
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--experiment <id>] [--scale <f>] [--out <dir>] \
                     [--video-minutes <n>]\nexperiment ids: {}",
                    EXPERIMENTS.join(", ")
                );
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    Ok(options)
}

fn main() {
    let options = parse_args().unwrap_or_else(|message| {
        eprintln!("repro: {message}");
        std::process::exit(2);
    });
    fs::create_dir_all(&options.out_dir).expect("create output directory");
    eprintln!("running (crowd-dataset scale {})...", options.config.scale);
    let outputs = run_experiments(&options.config, options.experiment.as_deref());
    for output in &outputs {
        println!("==================================================================");
        println!("{}", output.text);
        for (name, contents) in output.files() {
            fs::write(options.out_dir.join(name), contents).expect("write output");
        }
    }
    eprintln!("wrote {} experiments to {}", outputs.len(), options.out_dir.display());
}
