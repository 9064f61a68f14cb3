//! Live runtime: the second backend for the protocol stack.
//!
//! The simulator (`simnet`) executes a [`simnet::Process`] population inside
//! one address space with a virtual clock and modelled channels. This crate
//! executes the *same* process implementations as real OS processes that
//! exchange the *same* envelopes — encoded with the [`simnet::codec`] wire
//! codec — over real localhost (or LAN) TCP sockets, with a wall-clock timer
//! driving `on_timer` steps.
//!
//! The pieces:
//!
//! - [`frame`]: the versioned connection handshake and the length-prefixed
//!   data framing that carries encoded envelopes between peers.
//! - [`cluster`]: the cluster spec file — which node ids live at which
//!   host/port pairs — written by `simctl deploy` and read by every node
//!   and by `simctl drive`.
//! - [`runtime`]: the threaded node runtime — acceptor, per-peer reader and
//!   writer threads with reconnect/backoff, the real-clock timer driver, and
//!   the event loop that feeds decoded packets and timer ticks into the
//!   unchanged `Process::on_message`/`on_timer` path.
//! - [`control`]: the line-based TCP control protocol through which
//!   `simctl drive` submits client operations, polls settlement, retunes
//!   timers (the live `SetTimer` fault adapter), and shuts a node down.
//!
//! Fault injection maps onto the deployment instead of the model: `Crash`
//! becomes `kill -9` of a real pid, `Join`/`Rejoin` become freshly spawned
//! processes with fresh ids, and timer faults become control-plane timer
//! overrides. That mapping lives in `simctl`; this crate only provides the
//! mechanisms.

pub mod cluster;
pub mod control;
pub mod frame;
pub mod runtime;

pub use cluster::{ClusterSpec, NodeSpec};
pub use control::{control_request, ControlClient};
pub use frame::{FrameError, Hello, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use runtime::{run_node, NodeConfig, NodeStats};

/// Hex-encodes bytes (lowercase). Settle tokens may contain newlines, so
/// they cross the line-based control protocol hex-encoded.
pub fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes a lowercase/uppercase hex string produced by [`hex_encode`].
pub fn hex_decode(text: &str) -> Option<Vec<u8>> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    }
    let bytes = text.as_bytes();
    if bytes.len() % 2 != 0 {
        return None;
    }
    bytes
        .chunks(2)
        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{hex_decode, hex_encode};

    #[test]
    fn hex_roundtrips_arbitrary_bytes() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).as_deref(), Some(&data[..]));
        assert_eq!(hex_encode(b"config=\n1"), "636f6e6669673d0a31");
    }

    #[test]
    fn hex_decode_rejects_garbage() {
        assert_eq!(hex_decode("0"), None);
        assert_eq!(hex_decode("0g"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }
}
