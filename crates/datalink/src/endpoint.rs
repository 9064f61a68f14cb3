//! Composition of the link protocols into one per-peer endpoint.
//!
//! An [`Endpoint`] owns, for a single peer, a snap-stabilizing cleaner and a
//! reliable FIFO channel (which itself wraps the token carrier). Upper-layer
//! messages are only exchanged once the link has been cleaned, exactly as the
//! paper requires of newly established connections.

use crate::fifo::ReliableFifo;
use crate::snap::{SnapCleaner, SnapMsg};
use crate::token::TokenMsg;

/// The wire format of a composed link: either a cleaning packet or a
/// token/FIFO packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkMsg<M> {
    /// Snap-stabilizing cleaning traffic.
    Snap(SnapMsg),
    /// Token-exchange traffic (heartbeats and payload delivery).
    Token(TokenMsg<M>),
}

/// Events surfaced to the layer above the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent<M> {
    /// The link finished cleaning and is now usable.
    Cleaned,
    /// A payload message was delivered in FIFO order.
    Delivered(M),
}

/// One endpoint of a bidirectional, self-stabilizing link to a single peer.
///
/// Incoming packets are fed to [`Endpoint::handle`], which returns
/// upper-layer [`LinkEvent`]s; all outgoing traffic (periodic retransmissions
/// *and* replies such as acknowledgements) is obtained from
/// [`Endpoint::poll`], which the owner calls on every timer tick.
#[derive(Debug, Clone)]
pub struct Endpoint<M> {
    cleaner: SnapCleaner,
    fifo: ReliableFifo<M>,
    pending_replies: Vec<LinkMsg<M>>,
    was_clean: bool,
}

impl<M: Clone> Endpoint<M> {
    /// Creates an endpoint over a link of one-directional capacity `cap`.
    /// The link starts dirty and must complete cleaning before payload
    /// traffic flows.
    pub fn new(cap: usize) -> Self {
        Endpoint {
            cleaner: SnapCleaner::new(cap),
            fifo: ReliableFifo::new(cap, 2 * cap + 2),
            pending_replies: Vec::new(),
            was_clean: false,
        }
    }

    /// Queues a payload message for FIFO delivery to the peer. Returns
    /// `false` if the bounded send queue overflowed and dropped its oldest
    /// entry.
    pub fn queue_send(&mut self, msg: M) -> bool {
        self.fifo.queue_send(msg)
    }

    /// Returns `true` once the cleaning handshake has completed.
    pub fn is_clean(&self) -> bool {
        self.cleaner.is_clean()
    }

    /// Completed token round trips (heartbeat pulses) on this link.
    pub fn heartbeats(&self) -> u64 {
        self.fifo.heartbeats()
    }

    /// Number of messages waiting to be transmitted.
    pub fn backlog(&self) -> usize {
        self.fifo.backlog()
    }

    /// Restarts the cleaning handshake, e.g. upon a (re)connection signal.
    pub fn reconnect(&mut self) {
        self.cleaner.reconnect();
        self.was_clean = false;
    }

    /// Packets to transmit now: buffered replies, the cleaning probe while
    /// cleaning, and token traffic once the link is clean.
    pub fn poll(&mut self) -> Vec<LinkMsg<M>> {
        let mut packets: Vec<LinkMsg<M>> = std::mem::take(&mut self.pending_replies);
        packets.extend(self.cleaner.poll().into_iter().map(LinkMsg::Snap));
        if self.cleaner.is_clean() {
            packets.extend(self.fifo.poll().into_iter().map(LinkMsg::Token));
        }
        packets
    }

    /// Handles a packet from the peer, returning upper-layer events.
    /// Protocol replies (acknowledgements) are buffered and emitted by the
    /// next [`Endpoint::poll`].
    pub fn handle(&mut self, msg: LinkMsg<M>) -> Vec<LinkEvent<M>> {
        let mut events = Vec::new();
        match msg {
            LinkMsg::Snap(s) => {
                self.pending_replies
                    .extend(self.cleaner.handle(s).into_iter().map(LinkMsg::Snap));
            }
            LinkMsg::Token(t) => {
                // Packets of the upper layer are discarded while the link is
                // still being cleaned.
                if self.cleaner.may_deliver() {
                    let (delivered, replies) = self.fifo.handle(t);
                    events.extend(delivered.into_iter().map(LinkEvent::Delivered));
                    self.pending_replies
                        .extend(replies.into_iter().map(LinkMsg::Token));
                }
            }
        }
        if self.cleaner.is_clean() && !self.was_clean {
            self.was_clean = true;
            events.push(LinkEvent::Cleaned);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs both endpoints for `iters` ticks over perfect channels, returning
    /// the events observed at each side.
    fn run_pair(
        a: &mut Endpoint<u32>,
        b: &mut Endpoint<u32>,
        iters: usize,
    ) -> (Vec<LinkEvent<u32>>, Vec<LinkEvent<u32>>) {
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        for _ in 0..iters {
            for m in a.poll() {
                ev_b.extend(b.handle(m));
            }
            for m in b.poll() {
                ev_a.extend(a.handle(m));
            }
        }
        (ev_a, ev_b)
    }

    #[test]
    fn link_cleans_then_delivers() {
        let mut a: Endpoint<u32> = Endpoint::new(2);
        let mut b: Endpoint<u32> = Endpoint::new(2);
        a.queue_send(7);
        a.queue_send(8);
        let (ev_a, ev_b) = run_pair(&mut a, &mut b, 200);
        assert!(ev_a.contains(&LinkEvent::Cleaned));
        assert!(ev_b.contains(&LinkEvent::Cleaned));
        let delivered: Vec<u32> = ev_b
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Delivered(x) => Some(*x),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![7, 8]);
        assert!(a.is_clean() && b.is_clean());
        assert!(a.heartbeats() > 0);
    }

    #[test]
    fn payloads_are_not_delivered_before_cleaning() {
        let mut b: Endpoint<u32> = Endpoint::new(2);
        // A token data packet arriving on a dirty link must be discarded.
        let events = b.handle(LinkMsg::Token(TokenMsg::Data {
            label: 0,
            payload: Some(99),
        }));
        assert!(events.is_empty());
    }

    #[test]
    fn reconnect_suspends_payload_traffic_until_recleaned() {
        let mut a: Endpoint<u32> = Endpoint::new(1);
        let mut b: Endpoint<u32> = Endpoint::new(1);
        run_pair(&mut a, &mut b, 50);
        assert!(a.is_clean());
        a.reconnect();
        assert!(!a.is_clean());
        // After running again the link becomes clean and traffic resumes.
        a.queue_send(1);
        let (_, ev_b) = run_pair(&mut a, &mut b, 200);
        assert!(ev_b.contains(&LinkEvent::Delivered(1)));
    }

    #[test]
    fn backlog_tracks_queued_messages() {
        let mut a: Endpoint<u32> = Endpoint::new(1);
        assert_eq!(a.backlog(), 0);
        a.queue_send(1);
        a.queue_send(2);
        assert_eq!(a.backlog(), 2);
    }
}
