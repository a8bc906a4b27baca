//! Transports: moving protocol lines between a [`Server`] and a peer.
//!
//! A transport is nothing but a line loop — read one line, hand it to
//! [`Server::handle_line`], write the resulting frames, flush, repeat
//! until the peer hangs up or a handled frame requests shutdown. Keeping
//! the loop generic over `BufRead`/`Write` means the stdio transport, the
//! Unix-socket transport and the in-memory conformance tests all exercise
//! the *same* code path; the conformance transcripts therefore certify
//! every transport at once.

use std::io::{self, BufRead, BufReader, Read, Write};

use crate::proto::{error_frame, ErrorCode};
use crate::server::{Server, Turn};

/// The longest request line (newline excluded) a transport will buffer:
/// generous enough for a whole fleet checkpoint inline in a `fleet.resume`,
/// small enough that one peer cannot make the server hold an arbitrarily
/// long line in memory. A longer line is discarded as it streams past and
/// answered with one `frame-too-large` error; the session carries on.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// What [`read_frame`] found on the stream.
enum Frame {
    /// A line within the ceiling is in the buffer (line terminator included,
    /// if the stream had one).
    Line,
    /// A line longer than the ceiling went past; nothing of it was kept.
    TooLarge,
    /// End of stream, nothing pending.
    Eof,
}

/// Reads the next line into `line`, never holding more than `ceiling` bytes
/// of it plus its terminator: a line that outgrows that is dropped, and the
/// rest of it consumed unbuffered up to its newline.
fn read_frame<R: BufRead>(reader: &mut R, line: &mut Vec<u8>, ceiling: usize) -> io::Result<Frame> {
    line.clear();
    // A line that fits is at most its text plus "\r\n".
    let keep = ceiling as u64 + 2;
    reader.by_ref().take(keep).read_until(b'\n', line)?;
    if line.len() as u64 == keep && !line.ends_with(b"\n") {
        line.clear();
        skip_past_newline(reader)?;
        return Ok(Frame::TooLarge);
    }
    let text = line.strip_suffix(b"\n").unwrap_or(line);
    let text = text.strip_suffix(b"\r").unwrap_or(text);
    Ok(if text.len() > ceiling {
        Frame::TooLarge
    } else if line.is_empty() {
        // Only end-of-stream leaves nothing: an empty line still has its "\n".
        Frame::Eof
    } else {
        Frame::Line
    })
}

/// Consumes the stream up to and including the next newline (or to its
/// end), buffering nothing.
fn skip_past_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let newline = available.iter().position(|byte| *byte == b'\n');
        let consumed = newline.map_or(available.len(), |at| at + 1);
        let done = newline.is_some() || available.is_empty();
        reader.consume(consumed);
        if done {
            return Ok(());
        }
    }
}

/// Serves one session over a pair of byte streams. Returns when the
/// reader reaches end-of-file or a request triggered shutdown; the value
/// says whether the stop was a shutdown request (`true`) or a hang-up
/// (`false`). Request lines are bounded by [`MAX_FRAME_BYTES`].
pub fn serve<R: BufRead, W: Write>(server: &mut Server, reader: R, writer: W) -> io::Result<bool> {
    serve_bounded(server, reader, writer, MAX_FRAME_BYTES)
}

/// [`serve`] with the frame ceiling as an argument, so the unit tests can
/// overrun it without a 64 MiB line.
fn serve_bounded<R: BufRead, W: Write>(
    server: &mut Server,
    mut reader: R,
    mut writer: W,
    ceiling: usize,
) -> io::Result<bool> {
    let mut line = Vec::new();
    let mut burst = Vec::new();
    loop {
        let turn = match read_frame(&mut reader, &mut line, ceiling)? {
            Frame::Eof => return Ok(false),
            Frame::Line => {
                let text = std::str::from_utf8(&line).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
                })?;
                server.handle_line(text)
            }
            Frame::TooLarge => {
                let message = format!("frame is longer than {ceiling} bytes");
                let frame = error_frame(0, ErrorCode::FrameTooLarge, &message);
                Turn { frames: vec![frame], shutdown: false }
            }
        };
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
/// written — ends alone with one line naming its error on stderr, and the
/// next connection is served.
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
        match serve(server, reader, stream) {
            Ok(true) => break,
            Ok(false) => {}
            Err(error) => eprintln!("session failed, serving the next one: {error}"),
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
    fn an_overlong_line_is_discarded_answered_once_and_the_session_continues() {
        let mut server = Server::new(PlaneConfig { shards: 1, ..PlaneConfig::default() });
        let info = "{\"id\":7,\"method\":\"server.info\"}";
        let ceiling = info.len();
        // A line one byte over the ceiling (CRLF-terminated, to show the
        // terminator is not what tips it), then one exactly at it.
        let input = format!("{}\r\n{info}\r\n", "x".repeat(ceiling + 1));
        // A 16-byte reader: the long line spans many refills, so discarding
        // it has to carry across them.
        let reader = BufReader::with_capacity(16, input.as_bytes());
        let mut output = Vec::new();
        let stopped = serve_bounded(&mut server, reader, &mut output, ceiling).unwrap();
        assert!(!stopped);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "one error frame, then the valid request's response");
        let expected =
            format!("{{\"id\":0,\"error\":{{\"code\":\"frame-too-large\",\"message\":\"frame is longer than {ceiling} bytes\"}}}}");
        assert_eq!(lines[0], expected);
        assert!(lines[1].starts_with("{\"id\":7,\"result\""), "{}", lines[1]);
    }

    #[test]
    fn read_frame_holds_no_more_than_the_ceiling() {
        let input = format!("{}\nok\n{}", "y".repeat(10_000), "z".repeat(10_000));
        let mut reader = BufReader::with_capacity(64, input.as_bytes());
        let mut line = Vec::new();
        assert!(matches!(read_frame(&mut reader, &mut line, 100).unwrap(), Frame::TooLarge));
        assert!(line.capacity() <= 256, "kept {} bytes of a discarded line", line.capacity());
        assert!(matches!(read_frame(&mut reader, &mut line, 100).unwrap(), Frame::Line));
        assert_eq!(line, b"ok\n");
        // An unterminated overlong tail is still one oversized frame.
        assert!(matches!(read_frame(&mut reader, &mut line, 100).unwrap(), Frame::TooLarge));
        assert!(matches!(read_frame(&mut reader, &mut line, 100).unwrap(), Frame::Eof));
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
