//! `mop-serve` — the long-lived crowd control plane as a process.
//!
//! Wraps [`mop_server`] behind the two real transports. A server speaks
//! the line-delimited JSON protocol documented in `docs/SERVER.md`:
//! operators inject scenarios, stream per-epoch deltas, query diagnoses
//! and checkpoint/resume the fleet without stopping it. The same binary
//! doubles as a scriptable client (`--connect`) and as the batch
//! reference (`--oracle`) the CI integration job compares digests
//! against.
//!
//! Usage:
//!
//! ```text
//! mop-serve --stdio                      # serve one session on stdin/stdout
//! mop-serve --socket /tmp/mop.sock      # serve sessions on a Unix socket
//! mop-serve --socket /tmp/mop.sock --resume day.ckpt
//! #                                      # boot from a server checkpoint
//! mop-serve --connect /tmp/mop.sock     # client: requests on stdin,
//! #                                      # replies (and events) on stdout
//! mop-serve --oracle rush-hour --users 40 --seed 7
//! #                                      # print the batch reference digest
//! mop-serve --shards 8 --seed 7 --cc cubic --epoch-width-ms 250 --window 32
//! ```
//!
//! The plane's digest is shard-invariant, so `--shards` only changes how
//! each step is parallelised — never a reply byte (except `server.info`,
//! which reports it).

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use mop_server::{serve_stdio, serve_unix, PlaneConfig, Server};
use mop_simnet::SimDuration;
use mopeye_core::CongestionAlgo;

enum Mode {
    Stdio,
    Socket(PathBuf),
    Connect(PathBuf),
    Oracle(String),
}

struct Options {
    mode: Mode,
    users: usize,
    resume: Option<PathBuf>,
    plane: PlaneConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut options =
        Options { mode: Mode::Stdio, users: 2_000, resume: None, plane: PlaneConfig::default() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--stdio" => options.mode = Mode::Stdio,
            "--socket" => options.mode = Mode::Socket(value("--socket")?.into()),
            "--connect" => options.mode = Mode::Connect(value("--connect")?.into()),
            "--oracle" => options.mode = Mode::Oracle(value("--oracle")?),
            "--resume" => options.resume = Some(value("--resume")?.into()),
            "--users" => {
                options.users = value("--users")?.parse().map_err(|e| format!("--users: {e}"))?
            }
            "--shards" => {
                options.plane.shards =
                    value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?
            }
            "--seed" => {
                options.plane.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--cc" => {
                options.plane.congestion = match value("--cc")?.as_str() {
                    "reno" => CongestionAlgo::Reno,
                    "cubic" => CongestionAlgo::Cubic,
                    other => return Err(format!("--cc: unknown algorithm {other:?}")),
                }
            }
            "--epoch-width-ms" => {
                let ms: u64 = value("--epoch-width-ms")?
                    .parse()
                    .map_err(|e| format!("--epoch-width-ms: {e}"))?;
                options.plane.epoch_width = SimDuration::from_millis(ms);
            }
            "--window" => {
                options.plane.epoch_window =
                    value("--window")?.parse().map_err(|e| format!("--window: {e}"))?
            }
            "--help" | "-h" => {
                println!("usage: mop-serve [--stdio | --socket PATH | --connect PATH | --oracle SCENARIO]");
                println!("                 [--resume CKPT] [--users N] [--shards N] [--seed N]");
                println!("                 [--cc reno|cubic] [--epoch-width-ms N] [--window N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

/// Boots a server, optionally resuming a checkpoint file before serving.
fn boot(options: &Options) -> Result<Server, String> {
    let mut server = Server::new(options.plane);
    if let Some(path) = &options.resume {
        let request = format!(
            "{{\"id\":0,\"method\":\"fleet.resume\",\"params\":{{\"path\":{}}}}}",
            mop_json::to_string(&mop_json::Value::from(path.to_string_lossy().as_ref()))
        );
        let turn = server.handle_line(&request);
        let reply = mop_json::from_str(&turn.frames[0]).map_err(|e| e.to_string())?;
        if let Some(message) = reply["error"]["message"].as_str() {
            return Err(format!("--resume {}: {message}", path.display()));
        }
        eprintln!(
            "resumed {} at epoch {} ({} pending flows)",
            path.display(),
            reply["result"]["cursor_epoch"].as_u64().unwrap_or(0),
            reply["result"]["pending"].as_u64().unwrap_or(0),
        );
    }
    Ok(server)
}

/// The uninterrupted batch reference: inject one scenario, drain it in a
/// single step, print the digest. The control-plane equivalence tests
/// (and the CI integration job) compare server digests against this.
fn oracle(options: &Options, kind: &str) -> Result<(), String> {
    let mut plane = mop_server::ControlPlane::new(options.plane);
    let (_, flows) = plane.inject(kind, options.users, options.plane.seed)?;
    let outcome = plane.step(plane.epochs_to_drain());
    println!("scenario: {kind}  users: {}  flows: {flows}", options.users);
    println!("fleet digest: {}", mop_server::digest_str(outcome.digest));
    Ok(())
}

/// A line-oriented client: forwards stdin lines as requests, prints every
/// frame the server sends back, stops after the reply to its last request.
fn connect(path: &std::path::Path) -> Result<(), String> {
    let mut client = mop_server::connect_unix(path)
        .map_err(|e| format!("cannot connect to {}: {e}", path.display()))?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let request = mop_json::from_str(&line).map_err(|e| format!("bad request: {e}"))?;
        let Some(method) = request["method"].as_str() else {
            return Err("request has no \"method\"".into());
        };
        let reply = client
            .call(method, request["params"].clone())
            .map_err(|e| format!("call failed: {e}"))?;
        for event in &reply.events {
            writeln!(out, "{}", mop_json::to_string(event)).map_err(|e| e.to_string())?;
        }
        writeln!(out, "{}", mop_json::to_string(&reply.response)).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let options = parse_args()?;
    match &options.mode {
        Mode::Oracle(kind) => oracle(&options, kind),
        Mode::Connect(path) => connect(path),
        Mode::Stdio => {
            let mut server = boot(&options)?;
            serve_stdio(&mut server).map_err(|e| e.to_string())?;
            Ok(())
        }
        Mode::Socket(path) => {
            let mut server = boot(&options)?;
            eprintln!("serving on {}", path.display());
            serve_unix(&mut server, path).map_err(|e| e.to_string())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mop-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
