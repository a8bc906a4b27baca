//! Transports: moving protocol lines between a [`Server`] and a peer.
//!
//! A transport is nothing but a line loop — read one line, hand it to
//! [`Server::handle_line`], write the resulting frames, flush, repeat
//! until the peer hangs up or a handled frame requests shutdown. Keeping
//! the loop generic over `BufRead`/`Write` means the stdio transport, the
//! Unix-socket transport and the in-memory conformance tests all exercise
//! the *same* code path; the conformance transcripts therefore certify
//! every transport at once.

use std::io::{self, BufRead, BufReader, Write};

use crate::server::Server;

/// Serves one session over a pair of byte streams. Returns when the
/// reader reaches end-of-file or a request triggered shutdown; the value
/// says whether the stop was a shutdown request (`true`) or a hang-up
/// (`false`).
pub fn serve<R: BufRead, W: Write>(
    server: &mut Server,
    reader: R,
    mut writer: W,
) -> io::Result<bool> {
    let mut burst = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let turn = server.handle_line(&line);
        // One write and one flush per turn, not per frame: a subscriber
        // sees its events and the response as one burst (on a socket, one
        // `write` call however many frames the turn has), and the client
        // can block on the response line without deadlocking on buffered
        // events.
        burst.clear();
        for frame in &turn.frames {
            burst.extend_from_slice(frame.as_bytes());
            burst.push(b'\n');
        }
        writer.write_all(&burst)?;
        writer.flush()?;
        if turn.shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves one session over this process's stdin/stdout (the `--stdio`
/// mode of `mop-serve`).
pub fn serve_stdio(server: &mut Server) -> io::Result<bool> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve(server, stdin.lock(), stdout.lock())
}

/// Serves sessions over a Unix domain socket, accepting connections one
/// at a time so the plane never sees interleaved sessions. The listener
/// keeps accepting until a session ends with `server.shutdown`; a session
/// that fails — a line that is not UTF-8, a peer gone before its burst is
/// written — ends alone, and the next connection is served.
#[cfg(unix)]
pub fn serve_unix(server: &mut Server, socket_path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a killed server would make bind fail.
    if socket_path.exists() {
        std::fs::remove_file(socket_path)?;
    }
    let listener = UnixListener::bind(socket_path)?;
    loop {
        let (stream, _) = listener.accept()?;
        let reader = BufReader::new(stream.try_clone()?);
        if serve(server, reader, stream).unwrap_or(false) {
            break;
        }
    }
    std::fs::remove_file(socket_path).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::PlaneConfig;

    #[test]
    fn the_line_loop_frames_responses_and_stops_on_shutdown() {
        let mut server = Server::new(PlaneConfig { shards: 1, ..PlaneConfig::default() });
        let input = "{\"id\":1,\"method\":\"server.info\"}\n\
                     {\"id\":2,\"method\":\"server.shutdown\"}\n\
                     {\"id\":3,\"method\":\"server.info\"}\n";
        let mut output = Vec::new();
        let stopped = serve(&mut server, input.as_bytes(), &mut output).unwrap();
        assert!(stopped, "shutdown stops the loop");
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "the frame after shutdown is never served");
        assert!(lines[0].starts_with("{\"id\":1"));
        assert!(lines[1].starts_with("{\"id\":2"));
    }

    /// A sink that remembers each `write` call it received.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_turn_reaches_the_peer_as_one_write() {
        let mut server = Server::new(PlaneConfig { shards: 1, ..PlaneConfig::default() });
        let input = "{\"id\":1,\"method\":\"scenario.inject\",\
                     \"params\":{\"scenario\":\"rush-hour\",\"users\":20,\"seed\":5}}\n\
                     {\"id\":2,\"method\":\"report.subscribe\",\
                     \"params\":{\"detail\":\"summary\"}}\n\
                     {\"id\":3,\"method\":\"fleet.step\",\"params\":{\"epochs\":2}}\n";
        let mut sink = CountingSink::default();
        serve(&mut server, input.as_bytes(), &mut sink).unwrap();
        assert_eq!(sink.writes.len(), 3, "three turns, three writes");
        assert_eq!(sink.flushes, 3);
        // The step's burst: its epoch events, then the response, each
        // newline-terminated, nothing split off.
        let burst = std::str::from_utf8(&sink.writes[2]).unwrap();
        assert!(burst.ends_with('\n'));
        let frames: Vec<&str> = burst.lines().collect();
        assert!(frames.len() > 1, "the step streamed events: {burst}");
        let (response, events) = frames.split_last().unwrap();
        assert!(events.iter().all(|f| f.starts_with("{\"stream\":\"epochs\"")));
        assert!(response.starts_with("{\"id\":3"));
    }

    #[test]
    fn a_hangup_without_shutdown_reports_false() {
        let mut server = Server::new(PlaneConfig { shards: 1, ..PlaneConfig::default() });
        let mut output = Vec::new();
        let stopped =
            serve(&mut server, "{\"id\":1,\"method\":\"server.info\"}\n".as_bytes(), &mut output)
                .unwrap();
        assert!(!stopped);
    }
}
