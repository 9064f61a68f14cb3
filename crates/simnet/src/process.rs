//! Processors and their interface to the simulated environment.
//!
//! The paper (Section 2) models processing entities as processors with
//! unique identifiers drawn from a totally ordered set `P`. A processor takes
//! *atomic steps*: local computation followed by a single communication
//! operation, triggered either by a periodic timer (whose rate is unknown —
//! the system is asynchronous) or by the arrival of a packet. This module
//! defines the [`Process`] trait realizing exactly those two entry points and
//! the [`Context`] handle a process uses to send packets.

use std::fmt;

use crate::payload::Payload;
use crate::stack::Outbox;
use crate::time::Round;

/// Unique identifier of a processor, drawn from the totally ordered set `P`.
///
/// Identifiers are never reused: a crashed processor never rejoins under the
/// same identifier (rejoins are modelled as transient faults, as in the
/// paper).
///
/// ```
/// use simnet::ProcessId;
/// let a = ProcessId::new(1);
/// let b = ProcessId::new(2);
/// assert!(a < b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates an identifier from its raw value.
    pub fn new(raw: u32) -> Self {
        ProcessId(raw)
    }

    /// Returns the raw value of the identifier.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(raw: u32) -> Self {
        ProcessId(raw)
    }
}

/// Lifecycle status of a processor inside a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessStatus {
    /// The processor is active: it takes timer steps and receives packets.
    Active,
    /// The processor has crashed. It takes no further steps and never
    /// rejoins (crash-stop).
    Crashed,
}

impl ProcessStatus {
    /// Returns `true` for [`ProcessStatus::Active`].
    pub fn is_active(self) -> bool {
        matches!(self, ProcessStatus::Active)
    }
}

/// The behaviour of a processor.
///
/// A process reacts to exactly two kinds of input events, mirroring the
/// paper's step model:
///
/// * [`Process::on_timer`] — the periodic timer firing, i.e. one iteration of
///   the algorithm's `do forever` loop;
/// * [`Process::on_delivery`] — the arrival of a packet from another
///   processor, lent in place by the link that carried it.
///
/// Both receive a [`Context`] through which the process can send packets and
/// observe its own identifier and the identifiers of the other processors.
/// The simulator delivers only through `on_delivery`, whose default clones
/// the message into the by-value [`Process::on_message`] (all a forwarding
/// wrapper implements); [`crate::impl_process_for_layer!`] lends it instead.
pub trait Process {
    /// The message (high-level packet payload) type exchanged by this
    /// protocol.
    type Msg: Clone;

    /// One iteration of the process's `do forever` loop.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Handles the arrival of `msg` sent by `from`, owned by the process.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Handles the arrival of `msg` sent by `from`, lent for the call.
    fn on_delivery(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        self.on_message(from, msg.clone(), ctx);
    }
}

/// Handle through which a process interacts with the simulated network
/// during one atomic step.
///
/// All sends performed through the context are buffered and handed to the
/// network when the step completes, preserving the atomic-step abstraction.
/// The context is a [`Sink`](crate::stack::Sink) of its wire `M`: a layer
/// pushes any of `M`'s lanes into it, and
/// [`push_to_all`](crate::stack::Sink::push_to_all) queues a broadcast as
/// `n` handles over one shared allocation instead of `n` deep clones.
pub struct Context<'a, M> {
    me: ProcessId,
    now: Round,
    peers: &'a [ProcessId],
    /// The step's sends; the context's `Sink` impl pushes into it.
    pub(crate) sends: Outbox<M>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context for one step of process `me` at round `now`.
    /// `peers` lists every processor the simulation knows about (including
    /// crashed ones and `me` itself).
    pub fn new(me: ProcessId, now: Round, peers: &'a [ProcessId]) -> Self {
        Context::with_outbox(me, now, peers, Vec::new())
    }

    /// Like [`Context::new`], reusing an empty send buffer: the scheduler
    /// recycles one across steps, recovering it through [`Context::into_outbox`].
    pub fn with_outbox(
        me: ProcessId,
        now: Round,
        peers: &'a [ProcessId],
        outbox: Vec<(ProcessId, Payload<M>)>,
    ) -> Self {
        debug_assert!(outbox.is_empty(), "recycled outbox must be drained");
        Context {
            me,
            now,
            peers,
            sends: Outbox { msgs: outbox },
        }
    }

    /// The identifier of the process taking this step.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The current simulation round (an accounting value; algorithms should
    /// not rely on it for correctness).
    pub fn now(&self) -> Round {
        self.now
    }

    /// All processor identifiers known to the simulation except the caller.
    ///
    /// This models the fully connected topology: a processor can address a
    /// packet to any other processor. It does *not* reveal which of them are
    /// alive — that is the failure detector's job.
    pub fn peers(&self) -> Vec<ProcessId> {
        self.peers
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect()
    }

    /// All processor identifiers known to the simulation, including the
    /// caller, as the borrowed slice (no copy; the lifetime is that of the
    /// simulation's identifier snapshot, not of this context).
    pub fn ids(&self) -> &'a [ProcessId] {
        self.peers
    }

    /// Queues a packet for `to`. Sending to oneself is permitted and is
    /// delivered through the network like any other packet.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push(to, msg);
    }

    /// Takes the packets queued so far out of the buffer, in send order,
    /// keeping its capacity: the scheduler flushes after the delivery batch
    /// and after the timer step of one visit, through one context.
    pub(crate) fn drain_sends(&mut self) -> std::vec::Drain<'_, (ProcessId, Payload<M>)> {
        self.sends.msgs.drain(..)
    }

    /// Consumes the context and returns the queued packets as payloads (what
    /// the scheduler's flush path feeds to [`crate::Network::send_payload`]).
    pub fn into_outbox(self) -> Vec<(ProcessId, Payload<M>)> {
        self.sends.msgs
    }
}

impl<M> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("me", &self.me)
            .field("now", &self.now)
            .field("pending_sends", &self.sends.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_ordering_follows_raw_value() {
        let ids: Vec<ProcessId> = (0..5).map(ProcessId::new).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(ProcessId::new(3).as_u32(), 3);
        assert_eq!(ProcessId::from(7u32), ProcessId::new(7));
    }

    #[test]
    fn context_peers_excludes_self() {
        let all: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
        let ctx: Context<'_, ()> = Context::new(ProcessId::new(2), Round::ZERO, &all);
        let peers = ctx.peers();
        assert_eq!(peers.len(), 3);
        assert!(!peers.contains(&ProcessId::new(2)));
        assert_eq!(ctx.ids().len(), 4);
    }

    #[test]
    fn context_collects_outbox_in_order() {
        let all: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let mut ctx: Context<'_, u32> = Context::new(ProcessId::new(0), Round::new(5), &all);
        ctx.send(ProcessId::new(1), 11);
        ctx.send(ProcessId::new(2), 22);
        assert_eq!(ctx.now(), Round::new(5));
        assert_eq!(ctx.me(), ProcessId::new(0));
        let out: Vec<(ProcessId, u32)> = ctx
            .into_outbox()
            .into_iter()
            .map(|(to, payload)| (to, *payload.get()))
            .collect();
        assert_eq!(out, vec![(ProcessId::new(1), 11), (ProcessId::new(2), 22)]);
    }

    #[test]
    fn status_is_active_helper() {
        assert!(ProcessStatus::Active.is_active());
        assert!(!ProcessStatus::Crashed.is_active());
    }

    #[test]
    fn process_id_display() {
        assert_eq!(format!("{}", ProcessId::new(4)), "p4");
        assert_eq!(format!("{:?}", ProcessId::new(4)), "p4");
    }
}
