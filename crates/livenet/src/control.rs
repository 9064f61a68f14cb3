//! The line-based control protocol.
//!
//! Each node exposes a control TCP port next to its data port. A request is
//! one line of space-separated tokens; the response is one line of JSON
//! (rendered compactly — `simnet` JSON with newlines stripped would not be
//! one line, so responses are built with [`render_line`]).
//!
//! Requests:
//!
//! | request              | response fields                                  |
//! |----------------------|--------------------------------------------------|
//! | `status`             | `id`, `settled`, `token` (hex), `ticks`, `sent`, `recv`, `drops`, `decode_errors`, `submitted`, `completed_ok`, `completed_fail`, `timer_period` |
//! | `submit <key> <val>` | `accepted`                                       |
//! | `claim`              | `claimed`, `ok` (present when `claimed`) — see below |
//! | `timer <p>`          | `timer_period` — sets the period to `p` ticks    |
//! | `timer default`      | `timer_period` — restores the base period of 1   |
//! | `floor <p>`          | `timer_period` — raises the period to ≥ `p`      |
//! | `shutdown`           | `bye` — the node exits after replying            |
//!
//! Unknown or malformed requests get `{"error": "..."}`.
//!
//! **When a `claim` waits.** A `claim` that finds a completion answers at
//! once. One that finds none answers `{"claimed":false}` at once, unless
//! its connection has an accepted `submit` of its own that it has not
//! claimed yet. Then it waits in the node's event loop. The next
//! completion the node records answers it (waiting claims are answered
//! oldest first), and if none comes within one base tick (`tick_ms` of
//! wall time, whatever the `timer` period) it answers `{"claimed":false}`.
//! So a closed-loop client that submits and claims on one connection gets
//! its op back in one round trip, while one-shot connections
//! (`simctl drive`) and status pollers never wait.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use simnet::report::Json;

/// Renders a JSON value on a single line (the pretty renderer is
/// multi-line; the control protocol needs one line per response).
pub fn render_line(json: &Json) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut escaped = false;
    // The pretty renderer only emits structural newlines + indentation
    // outside of strings; string contents are JSON-escaped (no raw
    // newlines), so stripping whitespace runs outside strings is exact.
    for c in json.render().chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

/// A parsed control request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Report settlement, token and counters.
    Status,
    /// Submit one client operation.
    Submit {
        /// Workload key.
        key: u64,
        /// Workload value.
        value: u64,
    },
    /// Claim one completed client operation, if any.
    Claim,
    /// Override the timer period (`None` restores the base period).
    Timer(Option<u64>),
    /// Raise the timer period to at least this many ticks.
    Floor(u64),
    /// Exit the node process.
    Shutdown,
}

impl Request {
    /// Parses one request line. Errors are human-readable and become the
    /// `error` field of the response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut words = line.split_whitespace();
        let verb = words.next().ok_or("empty request")?;
        let request = match verb {
            "status" => Request::Status,
            "submit" => {
                let key = parse_u64(words.next(), "submit", "key")?;
                let value = parse_u64(words.next(), "submit", "value")?;
                Request::Submit { key, value }
            }
            "claim" => Request::Claim,
            "timer" => match words.next() {
                Some("default") => Request::Timer(None),
                other => Request::Timer(Some(parse_u64(other, "timer", "period")?)),
            },
            "floor" => Request::Floor(parse_u64(words.next(), "floor", "period")?),
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request `{other}`")),
        };
        match words.next() {
            Some(extra) => Err(format!("trailing token `{extra}` after `{verb}`")),
            None => Ok(request),
        }
    }
}

fn parse_u64(word: Option<&str>, verb: &str, what: &str) -> Result<u64, String> {
    let word = word.ok_or_else(|| format!("`{verb}` needs a {what}"))?;
    word.parse()
        .map_err(|_| format!("`{verb}` {what} `{word}` is not an unsigned integer"))
}

/// A persistent control connection to one node, used by `simctl drive`.
pub struct ControlClient {
    stream: BufReader<TcpStream>,
}

impl ControlClient {
    /// Connects to a node's control port.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<ControlClient> {
        let parsed = addr
            .parse()
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {err}")))?;
        let stream = TcpStream::connect_timeout(&parsed, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(ControlClient {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one request line, returns the parsed JSON response.
    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        // Line and newline in one write: on a `TCP_NODELAY` socket two
        // writes are two segments and two wake-ups of the node's reader.
        self.stream
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.stream.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "control connection closed",
            ));
        }
        Json::parse(reply.trim_end()).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))
    }
}

/// One-shot convenience: connect, send one request, disconnect.
pub fn control_request(addr: &str, line: &str, timeout: Duration) -> io::Result<Json> {
    ControlClient::connect(addr, timeout)?.request(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(Request::parse("status"), Ok(Request::Status));
        assert_eq!(
            Request::parse("submit 7 99"),
            Ok(Request::Submit { key: 7, value: 99 })
        );
        assert_eq!(Request::parse("claim"), Ok(Request::Claim));
        assert_eq!(Request::parse("timer 4"), Ok(Request::Timer(Some(4))));
        assert_eq!(Request::parse("timer default"), Ok(Request::Timer(None)));
        assert_eq!(Request::parse("floor 3"), Ok(Request::Floor(3)));
        assert_eq!(Request::parse("shutdown"), Ok(Request::Shutdown));
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(Request::parse("").unwrap_err().contains("empty"));
        assert!(Request::parse("submit 1").unwrap_err().contains("value"));
        assert!(Request::parse("submit x 2").unwrap_err().contains("`x`"));
        assert!(Request::parse("status extra")
            .unwrap_err()
            .contains("trailing"));
        assert!(Request::parse("frobnicate")
            .unwrap_err()
            .contains("unknown"));
    }

    #[test]
    fn render_line_is_single_line_and_parseable() {
        let json = Json::obj()
            .field("token", "61 62\\n")
            .field("nested", Json::obj().field("k", 3u64))
            .field("ok", true);
        let line = render_line(&json);
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(Json::parse(&line), Ok(json));
    }
}
