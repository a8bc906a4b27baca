//! The `mop-serve` binary on a Unix socket: a session that fails ends
//! alone, says why on stderr, and the next connection is served.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connects to the socket once the server has bound it.
fn connect(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return stream,
            Err(error) if Instant::now() > deadline => panic!("cannot connect: {error}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The server process, killed if the test ends before it exits.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_failed_session_is_reported_and_the_next_one_is_served() {
    let socket = std::env::temp_dir().join(format!("mop-serve-cli-{}.sock", std::process::id()));
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_mop-serve"))
            .args(["--shards", "1", "--socket"])
            .arg(&socket)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("start mop-serve"),
    );

    // A line that is not UTF-8 ends its session: the server hangs up.
    let mut broken = connect(&socket);
    broken.write_all(b"{\"id\":1,\"method\":\"server.info\"}\xff\xfe\n").unwrap();
    let mut rest = Vec::new();
    broken.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the failed session got a reply: {rest:?}");

    // The next session is served, and ends the server.
    let mut next = connect(&socket);
    next.write_all(b"{\"id\":2,\"method\":\"server.info\"}\n").unwrap();
    next.write_all(b"{\"id\":3,\"method\":\"server.shutdown\"}\n").unwrap();
    let mut replies = BufReader::new(next).lines();
    let info = mop_json::from_str(&replies.next().unwrap().unwrap()).unwrap();
    assert_eq!(info["id"].as_u64(), Some(2));
    assert!(info["error"].is_null(), "{info}");
    let stopped = mop_json::from_str(&replies.next().unwrap().unwrap()).unwrap();
    assert_eq!(stopped["result"]["stopped"].as_bool(), Some(true), "{stopped}");

    let status = server.0.wait().expect("mop-serve exits");
    let mut stderr = String::new();
    server.0.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(status.success(), "{status}: {stderr}");
    let failures: Vec<&str> = stderr.lines().filter(|line| line.contains("UTF-8")).collect();
    assert_eq!(failures.len(), 1, "one line names the failed session's error:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
