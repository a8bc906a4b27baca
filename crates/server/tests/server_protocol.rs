//! Golden-transcript conformance suite.
//!
//! `tests/transcripts/*.txt` record whole protocol sessions: `> ` lines
//! are client requests, `< ` lines the exact frames the server must emit.
//! The suite replays them byte for byte through three paths — the
//! dispatcher directly, the generic stream transport, and a real Unix
//! socket served on a background thread — so every transport is certified
//! against the same recordings. `session.txt` is additionally replayed at
//! several shard counts: its replies carry fleet digests, and the
//! flow-keyed engine guarantees those are shard-invariant.
//!
//! To re-record after an intentional protocol change:
//! `MOP_REGEN_TRANSCRIPTS=1 cargo test -p mop_server --test server_protocol`

use std::fs;
use std::path::{Path, PathBuf};

use mop_server::{serve, PlaneConfig, Server};

/// One request and the frames it must produce.
struct Exchange {
    request: String,
    expected: Vec<String>,
}

fn transcript_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts").join(name)
}

fn parse_transcript(text: &str) -> Vec<Exchange> {
    let mut out: Vec<Exchange> = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(request) = line.strip_prefix("> ") {
            out.push(Exchange { request: request.to_string(), expected: Vec::new() });
        } else if let Some(frame) = line.strip_prefix("< ") {
            out.last_mut()
                .expect("a `< ` frame needs a preceding `> ` request")
                .expected
                .push(frame.to_string());
        } else {
            panic!("unrecognised transcript line: {line}");
        }
    }
    out
}

fn config(shards: usize) -> PlaneConfig {
    PlaneConfig { shards, ..PlaneConfig::default() }
}

/// Runs every request through a fresh dispatcher, returning the frames
/// per exchange.
fn live_frames(name: &str, shards: usize) -> (Vec<Exchange>, Vec<Vec<String>>) {
    let path = transcript_path(name);
    let exchanges = parse_transcript(&fs::read_to_string(&path).unwrap());
    let mut server = Server::new(config(shards));
    let frames: Vec<Vec<String>> =
        exchanges.iter().map(|e| server.handle_line(&e.request).frames).collect();
    (exchanges, frames)
}

/// Loads a transcript; under MOP_REGEN_TRANSCRIPTS=1 first re-records the
/// `< ` lines from a live session (preserving the comment header).
fn load(name: &str, shards: usize) -> Vec<Exchange> {
    let path = transcript_path(name);
    if std::env::var_os("MOP_REGEN_TRANSCRIPTS").is_some() {
        let original = fs::read_to_string(&path).unwrap();
        let (exchanges, frames) = live_frames(name, shards);
        let mut text = String::new();
        for line in original.lines() {
            if line.is_empty() || line.starts_with('#') {
                text.push_str(line);
                text.push('\n');
            } else {
                break;
            }
        }
        for (exchange, frames) in exchanges.iter().zip(&frames) {
            text.push_str("> ");
            text.push_str(&exchange.request);
            text.push('\n');
            for frame in frames {
                text.push_str("< ");
                text.push_str(frame);
                text.push('\n');
            }
        }
        fs::write(&path, text).unwrap();
    }
    let exchanges = parse_transcript(&fs::read_to_string(&path).unwrap());
    assert!(
        exchanges.iter().all(|e| !e.expected.is_empty()),
        "{name} has requests with no recorded reply — run with MOP_REGEN_TRANSCRIPTS=1"
    );
    exchanges
}

fn replay_in_memory(name: &str, record_shards: usize, replay_shards: usize) {
    let exchanges = load(name, record_shards);
    let mut server = Server::new(config(replay_shards));
    for (i, exchange) in exchanges.iter().enumerate() {
        let turn = server.handle_line(&exchange.request);
        assert_eq!(
            turn.frames, exchange.expected,
            "{name} exchange {i} ({}) diverged at {replay_shards} shards",
            exchange.request
        );
    }
}

#[test]
fn the_error_transcript_replays_byte_for_byte() {
    replay_in_memory("errors.txt", 2, 2);
}

#[test]
fn the_session_transcript_is_shard_invariant() {
    for shards in [1, 2, 4] {
        replay_in_memory("session.txt", 2, shards);
    }
}

#[test]
fn transcripts_replay_over_the_stream_transport() {
    for (name, shards) in [("errors.txt", 2), ("session.txt", 4)] {
        let exchanges = load(name, 2);
        let input: String = exchanges.iter().map(|e| format!("{}\n", e.request)).collect();
        let expected: String =
            exchanges.iter().flat_map(|e| e.expected.iter()).map(|f| format!("{f}\n")).collect();
        let mut server = Server::new(config(shards));
        let mut output = Vec::new();
        let stopped = serve(&mut server, input.as_bytes(), &mut output).unwrap();
        assert!(stopped, "both transcripts end in server.shutdown");
        assert_eq!(String::from_utf8(output).unwrap(), expected, "{name} over serve()");
    }
}

/// A frame nested past `mop_json::MAX_DEPTH` — here a megabyte of `[`, far
/// below `MAX_FRAME_BYTES` — is one `parse-error`, not a stack overflow
/// that kills the server: the next request on the session is served.
#[test]
fn a_deeply_nested_frame_is_one_parse_error_and_the_session_goes_on() {
    let input = format!("{}\n{}\n", "[".repeat(1_000_000), r#"{"id":7,"method":"server.info"}"#);
    let mut server = Server::new(config(1));
    let mut output = Vec::new();
    let stopped = serve(&mut server, input.as_bytes(), &mut output).unwrap();
    assert!(!stopped, "the session ends at end of input, not by shutdown");
    let output = String::from_utf8(output).unwrap();
    let frames: Vec<&str> = output.lines().collect();
    assert_eq!(frames.len(), 2, "{frames:?}");
    assert!(frames[0].starts_with(r#"{"id":0,"error":{"code":"parse-error""#), "{}", frames[0]);
    assert!(frames[0].contains("nested deeper than 128 levels"), "{}", frames[0]);
    assert!(frames[1].starts_with(r#"{"id":7,"result":{"#), "{}", frames[1]);
}

/// Serves `socket` on a background thread with a fresh `shards`-shard
/// plane; the handle yields what `serve_unix` returned.
#[cfg(unix)]
fn spawn_unix_server(socket: &Path, shards: usize) -> std::thread::JoinHandle<std::io::Result<()>> {
    let socket = socket.to_path_buf();
    std::thread::spawn(move || {
        let mut server = Server::new(config(shards));
        mop_server::serve_unix(&mut server, &socket)
    })
}

/// Connects to `socket`, waiting for a listener to be bound there.
#[cfg(unix)]
fn connect(socket: &Path) -> std::os::unix::net::UnixStream {
    for _ in 0..100 {
        match std::os::unix::net::UnixStream::connect(socket) {
            Ok(stream) => return stream,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    panic!("nothing is listening on {}", socket.display());
}

#[cfg(unix)]
#[test]
fn transcripts_replay_over_a_unix_socket() {
    use std::io::{BufRead, BufReader, Write};

    for (name, shards) in [("errors.txt", 2), ("session.txt", 1)] {
        let exchanges = load(name, 2);
        let socket =
            std::env::temp_dir().join(format!("mop-serve-test-{}-{name}.sock", std::process::id()));
        let handle = spawn_unix_server(&socket, shards);

        let stream = connect(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for (i, exchange) in exchanges.iter().enumerate() {
            writeln!(writer, "{}", exchange.request).unwrap();
            for expected in &exchange.expected {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line.trim_end(), expected, "{name} exchange {i} over the socket");
            }
        }
        handle.join().unwrap().unwrap();
        assert!(!socket.exists(), "serve_unix unlinks its socket on shutdown");
    }
}

/// One session's I/O error ends that session, not the server: the listener
/// survives a peer that sends bytes no line reader accepts, and still
/// shuts down cleanly when asked.
#[cfg(unix)]
#[test]
fn a_failed_session_leaves_the_unix_listener_serving() {
    use std::io::{BufRead, BufReader, Write};

    let socket = std::env::temp_dir()
        .join(format!("mop-serve-test-{}-bad-session.sock", std::process::id()));
    let handle = spawn_unix_server(&socket, 1);

    let mut garbled = connect(&socket);
    garbled.write_all(b"\xff\n").unwrap();
    drop(garbled);

    for (request, reply) in [
        (r#"{"id":1,"method":"server.info"}"#, r#"{"id":1,"result":{"#),
        (r#"{"id":2,"method":"server.shutdown"}"#, r#"{"id":2,"result":{"stopped":true"#),
    ] {
        let mut stream = connect(&socket);
        writeln!(stream, "{request}").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(line.starts_with(reply), "{request} answered {line:?}");
    }
    handle.join().unwrap().unwrap();
    assert!(!socket.exists(), "serve_unix unlinks its socket on shutdown");
}
