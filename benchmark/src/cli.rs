//! Argument handling shared by the two binaries.
//!
//! The driver invokes `<command> --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`; `run.sh` turns `--trace` into the choice of binary and
//! passes everything through.

use std::path::PathBuf;
use std::time::Instant;

use crate::host::Host;
use crate::workloads::{Plan, Workload};

/// The seed a run uses when none is given. `7` is the hold-out seed: keep
/// it out of development runs so later claims can be checked on it.
pub const DEFAULT_SEED: u64 = 2017;
pub const DEFAULT_SECONDS: f64 = 28.0;
pub const DEFAULT_OUT: &str = "benchmark/out";

pub const USAGE: &str =
    "usage: mopbench[-trace] --workload rush_hour|bulk_lossy|serve_steps|day_ckpt \
[--seed <n>] [--seconds <s>] [--trace 0|1] [--smoke] [--out <dir>]
       mopbench collect <dir>            gather <dir>/*.json into <dir>/mopbench.json
       mopbench diff <a.json[,a2.json…]> <b.json[,b2.json…]>
                                         A/A comparison of collected documents (medians per side)";

/// Parses the run arguments (everything after the program name).
pub fn parse(args: &[String], started: Instant) -> Result<Plan, String> {
    let mut workload = None;
    let mut plan = Plan {
        workload: Workload::RushHour,
        seed: DEFAULT_SEED,
        input_seed: Default::default(),
        seconds: DEFAULT_SECONDS,
        smoke: false,
        out_dir: PathBuf::from(DEFAULT_OUT),
        started,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                plan.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(plan.seconds > 0.0 && plan.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // Consumed by run.sh (it picks the binary); accepted here so the
            // driver's argument list can be passed through unchanged.
            "--trace" => {
                value()?;
            }
            "--smoke" => plan.smoke = true,
            "--out" => plan.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    plan.workload = workload.ok_or("--workload is required")?;
    Ok(plan)
}

/// Parses the arguments and applies the host guard; on any refusal prints
/// why and exits non-zero **without** a result line.
pub fn plan_or_exit(args: &[String], started: Instant) -> (Plan, Host) {
    let plan = parse(args, started).unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2);
    });
    let host = Host::fingerprint();
    if let Err(refusal) = host.guard() {
        eprintln!("{refusal}");
        std::process::exit(3);
    }
    (plan, host)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Plan, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args, Instant::now())
    }

    #[test]
    fn the_drivers_argument_list_parses() {
        let plan = parse_str("--workload day_ckpt --seed 7 --seconds 28 --trace 1").unwrap();
        assert_eq!(plan.workload, Workload::DayCkpt);
        assert_eq!((plan.seed, plan.seconds, plan.smoke), (7, 28.0, false));
        assert_eq!(plan.out_dir, PathBuf::from(DEFAULT_OUT));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_str("--seed 1")
            .unwrap_err()
            .contains("--workload is required"));
        assert!(parse_str("--workload nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse_str("--workload rush_hour --seconds 0").is_err());
        assert!(parse_str("--workload rush_hour --seconds 61").is_err());
        assert!(parse_str("--workload rush_hour --seed")
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_str("--workload rush_hour --frobnicate").is_err());
    }
}
