//! A minimal client harness: sends requests, collects stream events,
//! returns the response. Used by the conformance tests, the
//! `mop-serve --connect` mode and the CI integration script.

use std::io::{self, BufRead, Write};

use mop_json::Value;

/// What one request produced: the events that preceded the response (in
/// arrival order) and the response frame itself.
#[derive(Debug)]
pub struct Reply {
    /// `{"stream": ..., "event": ...}` frames, parsed.
    pub events: Vec<Value>,
    /// The `{"id": ..., "result"|"error": ...}` frame, parsed.
    pub response: Value,
}

impl Reply {
    /// The `result` object; `None` if the response was an error.
    pub fn result(&self) -> Option<&Value> {
        match &self.response["result"] {
            Value::Null => None,
            result => Some(result),
        }
    }
}

/// A client over any pair of byte streams (Unix socket, child-process
/// pipes, in-memory buffers).
#[derive(Debug)]
pub struct Client<R, W> {
    reader: R,
    writer: W,
    next_id: u64,
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// A client with its request-id counter at 1.
    pub(crate) fn new(reader: R, writer: W) -> Self {
        Self { reader, writer, next_id: 1 }
    }

    /// Sends one request and reads frames until the response arrives.
    /// Events received before the response are collected into the reply.
    pub fn call(&mut self, method: &str, params: Value) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let request = if params.is_null() {
            format!("{{\"id\":{id},\"method\":\"{method}\"}}")
        } else {
            format!(
                "{{\"id\":{id},\"method\":\"{method}\",\"params\":{}}}",
                mop_json::to_string(&params)
            )
        };
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;

        let mut events = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server hung up before responding",
                ));
            }
            let frame = mop_json::from_str(line.trim_end()).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))
            })?;
            if frame["id"].is_null() {
                events.push(frame);
            } else {
                return Ok(Reply { events, response: frame });
            }
        }
    }
}

/// Connects to a `mop-serve` Unix socket, retrying briefly so a client
/// started alongside the server does not race its bind.
#[cfg(unix)]
pub fn connect_unix(
    socket_path: &std::path::Path,
) -> io::Result<Client<io::BufReader<std::os::unix::net::UnixStream>, std::os::unix::net::UnixStream>>
{
    use std::os::unix::net::UnixStream;

    let mut last_err = None;
    for _ in 0..50 {
        match UnixStream::connect(socket_path) {
            Ok(stream) => {
                let reader = io::BufReader::new(stream.try_clone()?);
                return Ok(Client::new(reader, stream));
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no socket")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_json::json;

    #[test]
    fn call_collects_events_then_the_response() {
        // A canned server transcript: two events, then the response.
        let canned = "{\"stream\":\"epochs\",\"event\":{\"epoch\":0}}\n\
                      {\"stream\":\"epochs\",\"event\":{\"epoch\":1}}\n\
                      {\"id\":1,\"result\":{\"ok\":true}}\n";
        let mut sent = Vec::new();
        let mut client = Client::new(canned.as_bytes(), &mut sent);
        let reply = client.call("fleet.step", json!({ "epochs": 2 })).unwrap();
        assert_eq!(reply.events.len(), 2);
        assert_eq!(reply.response["result"]["ok"], Value::Bool(true));
        assert!(reply.result().is_some());
        assert_eq!(
            std::str::from_utf8(&sent).unwrap(),
            "{\"id\":1,\"method\":\"fleet.step\",\"params\":{\"epochs\":2}}\n"
        );
    }

    #[test]
    fn error_replies_expose_their_code() {
        let canned = "{\"id\":1,\"error\":{\"code\":\"bad-params\",\"message\":\"x\"}}\n";
        let mut client = Client::new(canned.as_bytes(), Vec::new());
        let reply = client.call("scenario.inject", Value::Null).unwrap();
        assert!(reply.result().is_none());
        assert_eq!(reply.response["error"]["code"], Value::from("bad-params"));
    }
}
