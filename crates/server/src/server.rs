//! Request dispatch: one [`Server`] owns a [`ControlPlane`] and turns
//! request frames into response (and event) frames.
//!
//! The dispatcher is transport-agnostic and purely functional over frames:
//! [`Server::handle_line`] maps one input line to the ordered list of
//! output frames it produces. Transports (stdio, Unix socket — see
//! [`crate::transport`]) only move lines; conformance tests drive
//! `handle_line` directly with in-memory sessions and compare bytes.

use std::fs;
use std::io;

use mop_analytics::{diagnose_apps, diagnose_live, DiagnosisConfig, TrendConfig};
use mop_json::{json, Value};

use crate::plane::{ControlPlane, PlaneConfig, StepOutcome, MAX_CURSOR_EPOCH};
use crate::proto::{self, digest_str, error_frame, event_frame, result_frame, ErrorCode, Request};

/// What a subscriber receives per step. See `report.subscribe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detail {
    /// No stream events.
    Off,
    /// One `epochs` event per live epoch of the step delta: index, sample
    /// and cell counts, store digest. Compact — golden-transcript friendly.
    Summary,
    /// One `delta` event per step carrying the full merged report delta in
    /// the checkpoint encoding; folding deltas reproduces the fleet digest.
    Full,
}

/// What one handled frame produced.
#[derive(Debug)]
pub struct Turn {
    /// Output frames in emit order (events first, the response last).
    pub frames: Vec<String>,
    /// True after `server.shutdown`: the transport should stop serving.
    pub shutdown: bool,
}

/// The protocol server. See the [module docs](self).
#[derive(Debug)]
pub struct Server {
    plane: ControlPlane,
    detail: Detail,
    steps: u64,
}

impl Server {
    /// A server over an idle plane.
    pub fn new(config: PlaneConfig) -> Self {
        Self { plane: ControlPlane::new(config), detail: Detail::Off, steps: 0 }
    }

    /// Handles one request line, producing its output frames.
    pub fn handle_line(&mut self, line: &str) -> Turn {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            return Turn { frames: Vec::new(), shutdown: false };
        }
        let request = match proto::parse_request(line) {
            Ok(request) => request,
            Err(message) => {
                return Turn {
                    frames: vec![error_frame(0, ErrorCode::ParseError, &message)],
                    shutdown: false,
                }
            }
        };
        self.dispatch(request)
    }

    fn dispatch(&mut self, request: Request) -> Turn {
        let id = request.id;
        let params = &request.params;
        let mut shutdown = false;
        let outcome: Result<(Vec<String>, Value), (ErrorCode, String)> =
            match request.method.as_str() {
                "server.info" => self.info().map(|r| (Vec::new(), r)),
                "server.profile" => self.profile().map(|r| (Vec::new(), r)),
                "scenario.inject" => self.inject(params).map(|r| (Vec::new(), r)),
                "scenario.retire" => self.retire(params).map(|r| (Vec::new(), r)),
                "report.subscribe" => self.subscribe(params).map(|r| (Vec::new(), r)),
                "fleet.step" => self.step(params),
                "diagnose.query" => self.diagnose().map(|r| (Vec::new(), r)),
                "fleet.checkpoint" => self.checkpoint(params).map(|r| (Vec::new(), r)),
                "fleet.resume" => self.resume(params).map(|r| (Vec::new(), r)),
                "server.shutdown" => {
                    shutdown = true;
                    self.shutdown(params).map(|r| (Vec::new(), r))
                }
                other => Err((ErrorCode::UnknownMethod, format!("no such method {other:?}"))),
            };
        let mut frames;
        match outcome {
            Ok((events, result)) => {
                frames = events;
                frames.push(result_frame(id, result));
            }
            Err((code, message)) => {
                frames = vec![error_frame(id, code, &message)];
                shutdown = false;
            }
        }
        Turn { frames, shutdown }
    }

    fn info(&self) -> Result<Value, (ErrorCode, String)> {
        let config = self.plane.config();
        Ok(json!({
            "server": "mop-serve",
            "protocol": proto::PROTOCOL_VERSION as i64,
            "seed": format!("{:016x}", config.seed),
            "shards": config.shards as i64,
            "congestion": config.congestion.label(),
            "epoch_width_ns": config.epoch_width.as_nanos() as i64,
            "epoch_window": config.epoch_window as i64,
            "cursor_epoch": self.plane.cursor_epoch() as i64,
            "scenarios": self.plane.live_scenarios() as i64,
            "pending": self.plane.pending_flows() as i64,
            "digest": digest_str(self.plane.digest()),
        }))
    }

    /// `server.profile`: the resident fleet's lifetime statistics and the
    /// structure counters its runs accumulated. All plain counts, live in
    /// every build and never part of digests, transcripts or checkpoints:
    /// `digest_computes` is how often the plane walked its cumulative
    /// report for a digest, `counters` what the engines' data structures
    /// scanned beyond their O(1) probes.
    fn profile(&self) -> Result<Value, (ErrorCode, String)> {
        let (runs, threads_spawned) = self.plane.resident_stats();
        let counters: Vec<Value> = self
            .plane
            .counters()
            .iter()
            .map(|(counter, value)| json!({ "counter": counter.name(), "value": value as i64 }))
            .collect();
        Ok(json!({
            "runs": runs as i64,
            "threads_spawned": threads_spawned as i64,
            "digest_computes": self.plane.digest_computes() as i64,
            "shards": self.plane.config().shards as i64,
            "counters": counters,
        }))
    }

    fn inject(&mut self, params: &Value) -> Result<Value, (ErrorCode, String)> {
        let Some(kind) = params["scenario"].as_str() else {
            return Err((ErrorCode::BadParams, "inject needs a \"scenario\" kind".into()));
        };
        let Some(users) = params["users"].as_u64() else {
            return Err((ErrorCode::BadParams, "inject needs a \"users\" count".into()));
        };
        let seed = match &params["seed"] {
            Value::Null => self.plane.config().seed,
            v => v
                .as_u64()
                .ok_or((ErrorCode::BadParams, "\"seed\" must be a non-negative integer".into()))?,
        };
        // A count beyond `usize` is beyond the plane's ceiling as well.
        let users = usize::try_from(users).unwrap_or(usize::MAX);
        let (id, flows) =
            self.plane.inject(kind, users, seed).map_err(|m| (ErrorCode::BadParams, m))?;
        Ok(json!({ "scenario": id, "flows": flows as i64 }))
    }

    fn retire(&mut self, params: &Value) -> Result<Value, (ErrorCode, String)> {
        let Some(id) = params["scenario"].as_str() else {
            return Err((ErrorCode::BadParams, "retire needs a \"scenario\" id".into()));
        };
        let dropped = self.plane.retire(id).map_err(|m| (ErrorCode::UnknownScenario, m))?;
        Ok(json!({ "scenario": id, "dropped": dropped as i64 }))
    }

    fn subscribe(&mut self, params: &Value) -> Result<Value, (ErrorCode, String)> {
        let detail = match params["detail"].as_str() {
            Some("off") => Detail::Off,
            Some("summary") => Detail::Summary,
            Some("full") => Detail::Full,
            _ => {
                return Err((
                    ErrorCode::BadParams,
                    "subscribe needs \"detail\": \"off\", \"summary\" or \"full\"".into(),
                ))
            }
        };
        self.detail = detail;
        Ok(json!({ "detail": params["detail"].as_str().unwrap_or("off") }))
    }

    fn step(&mut self, params: &Value) -> Result<(Vec<String>, Value), (ErrorCode, String)> {
        let epochs = match &params["epochs"] {
            // No count: drain everything currently pending.
            Value::Null => self.plane.epochs_to_drain(),
            v => v.as_u64().ok_or((
                ErrorCode::BadParams,
                "\"epochs\" must be a non-negative integer".into(),
            ))?,
        };
        let room = MAX_CURSOR_EPOCH - self.plane.cursor_epoch();
        if epochs > room {
            return Err((
                ErrorCode::BadParams,
                format!("\"epochs\" {epochs} would move the cursor past {MAX_CURSOR_EPOCH}"),
            ));
        }
        let outcome = self.plane.step_with_delta(epochs, self.detail == Detail::Full);
        self.steps += 1;
        let result = json!({
            "cursor_epoch": outcome.cursor_epoch as i64,
            "ran": outcome.ran as i64,
            "pending": outcome.pending as i64,
            "digest": digest_str(outcome.digest),
        });
        Ok((self.stream_events(outcome), result))
    }

    fn stream_events(&self, outcome: StepOutcome) -> Vec<String> {
        match self.detail {
            Detail::Off => Vec::new(),
            Detail::Summary => outcome
                .epoch_summaries
                .iter()
                .map(|s| {
                    event_frame(
                        "epochs",
                        json!({
                            "epoch": s.epoch as i64,
                            "samples": s.samples as i64,
                            "cells": s.cells as i64,
                            "digest": digest_str(s.digest),
                        }),
                    )
                })
                .collect(),
            Detail::Full => {
                if outcome.delta.is_null() {
                    Vec::new()
                } else {
                    vec![event_frame(
                        "delta",
                        json!({ "step": self.steps as i64, "report": outcome.delta }),
                    )]
                }
            }
        }
    }

    fn diagnose(&self) -> Result<Value, (ErrorCode, String)> {
        let report = self.plane.report();
        let (apps, trends) = match &report.windows {
            Some(windows) => {
                let live =
                    diagnose_live(windows, DiagnosisConfig::default(), TrendConfig::default());
                (live.apps, live.trends)
            }
            None => (diagnose_apps(&report.aggregates, DiagnosisConfig::default()), Vec::new()),
        };
        let apps: Vec<Value> = apps
            .iter()
            .map(|d| {
                json!({
                    "app": d.app.clone(),
                    "verdict": d.verdict.label(),
                    "samples": d.samples as i64,
                    "app_median_ms": d.app_median_ms,
                    "baseline_median_ms": d.baseline_median_ms,
                })
            })
            .collect();
        let trends: Vec<Value> = trends
            .iter()
            .map(|t| {
                json!({
                    "subject": t.subject.clone(),
                    "verdict": t.verdict.label(),
                    "samples": t.samples as i64,
                    "early_median_ms": t.early_median_ms,
                    "late_median_ms": t.late_median_ms,
                })
            })
            .collect();
        Ok(json!({ "apps": apps, "trends": trends }))
    }

    /// `fleet.checkpoint`: to a file, written from the plane's state
    /// without a tree (`{path}`), or inline in the reply as a tree.
    fn checkpoint(&self, params: &Value) -> Result<Value, (ErrorCode, String)> {
        let mut result = vec![
            ("cursor_epoch".to_string(), Value::from(self.plane.cursor_epoch() as i64)),
            ("pending".to_string(), Value::from(self.plane.pending_flows() as i64)),
            ("digest".to_string(), Value::from(digest_str(self.plane.digest()))),
        ];
        if let Some(path) = params["path"].as_str() {
            write_replacing(path, || mop_json::to_string(&self.plane))
                .map_err(|e| (ErrorCode::Io, format!("cannot write {path:?}: {e}")))?;
            result.push(("path".to_string(), Value::from(path)));
        } else {
            result.push(("checkpoint".to_string(), self.plane.checkpoint()));
        }
        Ok(Value::Object(result))
    }

    /// `fleet.resume`: from a file, decoded from its text straight into the
    /// plane (`{path}`), or from the inline document.
    fn resume(&mut self, params: &Value) -> Result<Value, (ErrorCode, String)> {
        let resumed = if let Some(path) = params["path"].as_str() {
            let text = fs::read_to_string(path)
                .map_err(|e| (ErrorCode::Io, format!("cannot read {path:?}: {e}")))?;
            self.plane.resume_text(&text)
        } else if !params["checkpoint"].is_null() {
            self.plane.resume(&params["checkpoint"])
        } else {
            return Err((
                ErrorCode::BadParams,
                "resume needs a \"checkpoint\" document or a \"path\"".into(),
            ));
        };
        resumed.map_err(|m| {
            if m.contains("idle plane") {
                (ErrorCode::ResumeConflict, m)
            } else {
                (ErrorCode::BadCheckpoint, m)
            }
        })?;
        Ok(json!({
            "cursor_epoch": self.plane.cursor_epoch() as i64,
            "pending": self.plane.pending_flows() as i64,
            "digest": digest_str(self.plane.digest()),
        }))
    }

    fn shutdown(&mut self, params: &Value) -> Result<Value, (ErrorCode, String)> {
        // Graceful: drain every pending flow so nothing in-flight is lost,
        // then (optionally) flush a final checkpoint of the drained state.
        let outcome = self.plane.step(self.plane.epochs_to_drain());
        let mut result = vec![
            ("stopped".to_string(), Value::Bool(true)),
            ("ran".to_string(), Value::from(outcome.ran as i64)),
            ("digest".to_string(), Value::from(digest_str(outcome.digest))),
        ];
        if let Some(path) = params["checkpoint_path"].as_str() {
            write_replacing(path, || mop_json::to_string(&self.plane))
                .map_err(|e| (ErrorCode::Io, format!("cannot write {path:?}: {e}")))?;
            result.push(("checkpoint_path".to_string(), Value::from(path)));
        }
        Ok(Value::Object(result))
    }
}

/// Replaces the file at `path` with the text `render` produces, in one step:
/// the bytes go to a sibling temp file, which is then renamed over the
/// target, so a process killed mid-write leaves the previous file intact
/// instead of a torn one. A failed write or rename removes the temp file.
/// There is no fsync: this survives the process dying, not the machine
/// losing power.
///
/// The text is rendered after the temp name is built, so no allocation is
/// made while the multi-megabyte text is live; on the serving benchmark
/// one made there cost 4 MB of peak RSS.
fn write_replacing(path: &str, render: impl FnOnce() -> String) -> io::Result<()> {
    let tmp = format!("{path}.{}.tmp", std::process::id());
    let written = fs::write(&tmp, render()).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn server() -> Server {
        Server::new(PlaneConfig { shards: 2, ..PlaneConfig::default() })
    }

    fn call(server: &mut Server, line: &str) -> Turn {
        server.handle_line(line)
    }

    #[test]
    fn a_session_flows_through_inject_step_and_shutdown() {
        let mut server = server();
        let turn = call(&mut server, "{\"id\":1,\"method\":\"server.info\"}");
        assert_eq!(turn.frames.len(), 1);
        assert!(turn.frames[0].contains("\"protocol\":1"));
        assert!(!turn.shutdown);

        let turn = call(
            &mut server,
            "{\"id\":2,\"method\":\"scenario.inject\",\
             \"params\":{\"scenario\":\"rush-hour\",\"users\":40,\"seed\":5}}",
        );
        assert!(turn.frames[0].contains("\"scenario\":\"s1\""), "{}", turn.frames[0]);

        let turn = call(&mut server, "{\"id\":3,\"method\":\"fleet.step\",\"params\":{}}");
        assert!(turn.frames[0].contains("\"pending\":0"), "{}", turn.frames[0]);
        assert!(turn.frames[0].contains("\"digest\":\""));

        let turn = call(&mut server, "{\"id\":4,\"method\":\"server.shutdown\"}");
        assert!(turn.shutdown);
        assert!(turn.frames[0].contains("\"stopped\":true"));
    }

    #[test]
    fn errors_carry_stable_codes() {
        let mut server = server();
        let turn = call(&mut server, "not json");
        assert!(turn.frames[0].contains("\"code\":\"parse-error\""));
        let turn = call(&mut server, "{\"id\":1,\"method\":\"no.such\"}");
        assert!(turn.frames[0].contains("\"code\":\"unknown-method\""));
        let turn = call(&mut server, "{\"id\":2,\"method\":\"scenario.inject\",\"params\":{}}");
        assert!(turn.frames[0].contains("\"code\":\"bad-params\""));
        let turn = call(
            &mut server,
            "{\"id\":3,\"method\":\"scenario.retire\",\"params\":{\"scenario\":\"s9\"}}",
        );
        assert!(turn.frames[0].contains("\"code\":\"unknown-scenario\""));
        let turn = call(&mut server, "{\"id\":4,\"method\":\"fleet.resume\",\"params\":{}}");
        assert!(turn.frames[0].contains("\"code\":\"bad-params\""));
        // A failed shutdown does not stop the server.
        let turn = call(
            &mut server,
            "{\"id\":5,\"method\":\"server.shutdown\",\
             \"params\":{\"checkpoint_path\":\"/nonexistent-dir/x.ckpt\"}}",
        );
        assert!(turn.frames[0].contains("\"code\":\"io\""));
        assert!(!turn.shutdown);
    }

    #[test]
    fn out_of_range_counts_are_bad_params_not_overflow_or_allocation() {
        use crate::plane::MAX_INJECT_USERS;

        let mut server = server();
        // One request may not ask for more users than the ceiling — neither
        // just above it nor the 10^12 an unvalidated cast let through.
        for users in [MAX_INJECT_USERS as u64 + 1, 1_000_000_000_000] {
            let turn = call(
                &mut server,
                &format!(
                    "{{\"id\":1,\"method\":\"scenario.inject\",\
                     \"params\":{{\"scenario\":\"rush-hour\",\"users\":{users}}}}}"
                ),
            );
            assert!(turn.frames[0].contains("\"code\":\"bad-params\""), "{}", turn.frames[0]);
        }
        assert_eq!(server.plane.pending_flows(), 0, "a refused inject parks nothing");
        assert_eq!(server.plane.live_scenarios(), 0);

        // A step may not carry the cursor past the last epoch a reply can
        // print: an unchecked `cursor += epochs` panics here in a debug
        // build and wraps the cursor backwards in release.
        let step = |server: &mut Server, epochs: &str| {
            let line = format!(
                "{{\"id\":2,\"method\":\"fleet.step\",\"params\":{{\"epochs\":{epochs}}}}}"
            );
            call(server, &line).frames.pop().unwrap()
        };
        assert!(step(&mut server, "1").contains("\"cursor_epoch\":1"));
        for epochs in ["9223372036854775807", "18446744073709551615", "-1", "1.5"] {
            let frame = step(&mut server, epochs);
            assert!(frame.contains("\"code\":\"bad-params\""), "epochs {epochs}: {frame}");
            assert_eq!(server.plane.cursor_epoch(), 1, "a refused step moves nothing");
        }
        // Exactly up to the ceiling is fine, and then only `epochs: 0` is.
        let frame = step(&mut server, "9223372036854775806");
        assert!(frame.contains("\"cursor_epoch\":9223372036854775807"), "{frame}");
        assert!(step(&mut server, "1").contains("\"code\":\"bad-params\""));
        assert!(step(&mut server, "0").contains("\"cursor_epoch\":9223372036854775807"));
        assert_eq!(server.plane.cursor_epoch(), MAX_CURSOR_EPOCH);
    }

    #[test]
    fn zero_user_scenarios_are_refused_and_the_server_keeps_answering() {
        // Both used to reach a constructor that asserts `users > 0` and take
        // the process down.
        let info = |server: &mut Server| {
            let frame = call(server, "{\"id\":9,\"method\":\"server.info\"}").frames.remove(0);
            assert!(frame.contains("\"result\""), "{frame}");
        };
        let mut server = server();
        let turn = call(
            &mut server,
            "{\"id\":1,\"method\":\"scenario.inject\",\
             \"params\":{\"scenario\":\"rush-hour\",\"users\":0}}",
        );
        assert!(turn.frames[0].contains("\"code\":\"bad-params\""), "{}", turn.frames[0]);
        info(&mut server);

        let mut saver = Server::new(PlaneConfig { shards: 2, ..PlaneConfig::default() });
        call(
            &mut saver,
            "{\"id\":1,\"method\":\"scenario.inject\",\
             \"params\":{\"scenario\":\"rush-hour\",\"users\":10,\"seed\":5}}",
        );
        let reply = call(&mut saver, "{\"id\":2,\"method\":\"fleet.checkpoint\"}").frames.remove(0);
        let doc = mop_json::from_str(&reply).unwrap()["result"]["checkpoint"].clone();
        let doc = mop_json::to_string(&doc);
        assert!(doc.contains("\"users\":10"), "{doc}");
        let resume = |doc: &str| {
            format!("{{\"id\":3,\"method\":\"fleet.resume\",\"params\":{{\"checkpoint\":{doc}}}}}")
        };
        let turn = call(&mut server, &resume(&doc.replace("\"users\":10", "\"users\":0")));
        assert!(turn.frames[0].contains("\"code\":\"bad-checkpoint\""), "{}", turn.frames[0]);
        assert!(turn.frames[0].contains("has 0 users"), "{}", turn.frames[0]);
        info(&mut server);
        let turn = call(&mut server, &resume(&doc));
        assert!(turn.frames[0].contains("\"result\""), "{}", turn.frames[0]);
    }

    #[test]
    fn a_checkpoint_with_an_impossible_sketch_is_refused_and_the_server_keeps_answering() {
        let mut saver = server();
        call(
            &mut saver,
            "{\"id\":1,\"method\":\"scenario.inject\",\
             \"params\":{\"scenario\":\"rush-hour\",\"users\":20,\"seed\":5}}",
        );
        call(&mut saver, "{\"id\":2,\"method\":\"fleet.step\",\"params\":{}}");
        let reply = call(&mut saver, "{\"id\":3,\"method\":\"fleet.checkpoint\"}").frames.remove(0);
        let doc = mop_json::from_str(&reply).unwrap()["result"]["checkpoint"].clone();
        let doc = mop_json::to_string(&doc);
        // The first sketch's count and its first bucket's index and count.
        let buckets = doc.find("\"buckets\":[[").expect("a sketch with buckets") + 12;
        let count = doc[..buckets].rfind("\"count\":").expect("the sketch's count") + 8;
        let number_end = |at: usize| at + doc[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let index_end = number_end(buckets);
        let pair_count = index_end + 1;
        let with =
            |at: usize, end: usize, value: &str| format!("{}{value}{}", &doc[..at], &doc[end..]);
        let total: u64 = doc[count..number_end(count)].parse().unwrap();
        let cases = [
            (with(buckets, index_end, "65535"), "past the overflow bucket"),
            (with(pair_count, number_end(pair_count), "0"), "zero count"),
            (with(count, number_end(count), &(total + 1).to_string()), "buckets' total"),
        ];
        let resume = |doc: &str| {
            format!("{{\"id\":4,\"method\":\"fleet.resume\",\"params\":{{\"checkpoint\":{doc}}}}}")
        };
        let mut server = server();
        for (doc, why) in &cases {
            let frame = call(&mut server, &resume(doc)).frames.remove(0);
            assert!(frame.contains("\"code\":\"bad-checkpoint\""), "{why}: {frame}");
            assert!(frame.contains(why), "{frame}");
            let info = call(&mut server, "{\"id\":5,\"method\":\"server.info\"}").frames.remove(0);
            assert!(info.contains("\"result\""), "{info}");
        }
        let frame = call(&mut server, &resume(&doc)).frames.remove(0);
        assert!(frame.contains("\"result\""), "{frame}");
    }

    #[test]
    fn subscriptions_emit_events_before_the_step_response() {
        let mut server = server();
        call(
            &mut server,
            "{\"id\":1,\"method\":\"scenario.inject\",\
             \"params\":{\"scenario\":\"rush-hour\",\"users\":40,\"seed\":5}}",
        );
        call(
            &mut server,
            "{\"id\":2,\"method\":\"report.subscribe\",\"params\":{\"detail\":\"summary\"}}",
        );
        let turn = call(&mut server, "{\"id\":3,\"method\":\"fleet.step\",\"params\":{}}");
        assert!(turn.frames.len() > 1, "events precede the response");
        for event in &turn.frames[..turn.frames.len() - 1] {
            assert!(event.starts_with("{\"stream\":\"epochs\""), "{event}");
        }
        assert!(turn.frames.last().unwrap().starts_with("{\"id\":3"));
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mop-server-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The two requests that write a checkpoint file, with their path key.
    const CHECKPOINT_WRITERS: [(&str, &str); 2] =
        [("fleet.checkpoint", "path"), ("server.shutdown", "checkpoint_path")];

    fn request(method: &str, params: &str) -> String {
        format!("{{\"id\":7,\"method\":\"{method}\",\"params\":{params}}}")
    }

    #[test]
    fn checkpoints_replace_an_existing_file_whole() {
        let dir = scratch_dir("ckpt-replace");
        let target = dir.join("plane.ckpt");
        let path = mop_json::to_string(&Value::from(target.to_str().unwrap()));
        let mut server = server();
        call(
            &mut server,
            "{\"id\":1,\"method\":\"scenario.inject\",\
             \"params\":{\"scenario\":\"rush-hour\",\"users\":20,\"seed\":5}}",
        );
        call(&mut server, "{\"id\":2,\"method\":\"fleet.step\",\"params\":{\"epochs\":1}}");
        for (method, key) in CHECKPOINT_WRITERS {
            // A second name for the old file sees whether it was replaced
            // (the name moves to a new file) or rewritten in place.
            let _ = fs::remove_file(dir.join("previous"));
            fs::write(&target, "a torn, older checkpoint {").unwrap();
            fs::hard_link(&target, dir.join("previous")).unwrap();
            let turn = call(&mut server, &request(method, &format!("{{\"{key}\":{path}}}")));
            assert!(turn.frames[0].contains("\"result\""), "{method}: {}", turn.frames[0]);
            let saved = mop_json::from_str(&fs::read_to_string(&target).unwrap())
                .expect("the replaced file parses");
            assert_eq!(saved["format"].as_str(), Some("mop-server-checkpoint"), "{method}");
            let previous = fs::read_to_string(dir.join("previous")).unwrap();
            assert_eq!(previous, "a torn, older checkpoint {", "{method} wrote in place");
            assert_eq!(entries(&dir), ["plane.ckpt", "previous"], "{method} left a temp file");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_file_with_an_unrunnable_flow_is_refused_and_the_server_keeps_answering() {
        let dir = scratch_dir("ckpt-unrunnable");
        let target = dir.join("plane.ckpt");
        let path = mop_json::to_string(&Value::from(target.to_str().unwrap()));
        let mut saver = server();
        call(
            &mut saver,
            "{\"id\":1,\"method\":\"scenario.inject\",\
             \"params\":{\"scenario\":\"rush-hour\",\"users\":20,\"seed\":5}}",
        );
        let turn = call(&mut saver, &request("fleet.checkpoint", &format!("{{\"path\":{path}}}")));
        assert!(turn.frames[0].contains("\"result\""), "{}", turn.frames[0]);
        let text = fs::read_to_string(&target).unwrap();

        // One pending flow asks for a request no single segment carries.
        let at = text.find("\"request_bytes\":").expect("a pending TCP flow") + 16;
        let digits = text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        fs::write(&target, format!("{}70000{}", &text[..at], &text[at + digits..])).unwrap();
        let mut refused = server();
        let turn = call(&mut refused, &request("fleet.resume", &format!("{{\"path\":{path}}}")));
        assert!(turn.frames[0].contains("\"code\":\"bad-checkpoint\""), "{}", turn.frames[0]);
        assert!(turn.frames[0].contains("request_bytes"), "{}", turn.frames[0]);
        let turn = call(&mut refused, "{\"id\":8,\"method\":\"fleet.step\",\"params\":{}}");
        assert!(turn.frames[0].contains("\"pending\":0"), "{}", turn.frames[0]);

        // The file as saved resumes and steps.
        fs::write(&target, &text).unwrap();
        let mut resumed = server();
        let turn = call(&mut resumed, &request("fleet.resume", &format!("{{\"path\":{path}}}")));
        assert!(turn.frames[0].contains("\"result\""), "{}", turn.frames[0]);
        let turn = call(&mut resumed, "{\"id\":8,\"method\":\"fleet.step\",\"params\":{}}");
        assert!(turn.frames[0].contains("\"result\""), "{}", turn.frames[0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_target_is_an_io_error_that_touches_nothing() {
        let dir = scratch_dir("ckpt-dir");
        let target = dir.join("plane.ckpt");
        fs::create_dir(&target).unwrap();
        fs::write(target.join("kept"), "inside").unwrap();
        let path = mop_json::to_string(&Value::from(target.to_str().unwrap()));
        let mut server = server();
        for (method, key) in CHECKPOINT_WRITERS {
            let turn = call(&mut server, &request(method, &format!("{{\"{key}\":{path}}}")));
            assert!(turn.frames[0].contains("\"code\":\"io\""), "{method}: {}", turn.frames[0]);
            assert!(turn.frames[0].contains("cannot write"), "{method}: {}", turn.frames[0]);
            assert!(!turn.shutdown);
            assert!(target.is_dir(), "{method} replaced the directory");
            assert_eq!(entries(&target), ["kept"], "{method} touched the directory");
            assert_eq!(fs::read_to_string(target.join("kept")).unwrap(), "inside");
            assert_eq!(entries(&dir), ["plane.ckpt"], "{method} left a temp file behind");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
