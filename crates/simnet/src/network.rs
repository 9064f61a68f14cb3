//! The fully connected network: one bounded FIFO link per ordered pair of
//! processors, stored destination-major.
//!
//! Every link obeys the law [`crate::channel`] states through its
//! [`ChannelPolicy`] — loss, duplication, bounded capacity with oldest-first
//! eviction, random delay, FIFO or reordered delivery among ready packets.
//! No per-link value holds the packets: those in flight towards one
//! destination live in that destination's `Row`. The tests compare a row's
//! links with `reference::RefChannel`, the law written out for one link.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::channel::{ChannelPolicy, InFlight, SendOutcome};
use crate::metrics::Metrics;
use crate::payload::Payload;
use crate::peer_table::PeerTable;
use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::time::Round;

/// Lowers `earliest` to `ready_at` when that is sooner.
fn note_ready(earliest: &mut Option<Round>, ready_at: Round) {
    *earliest = Some(earliest.map_or(ready_at, |round| round.min(ready_at)));
}

/// One entry of a row's arrival log: a packet and the link it travels on.
#[derive(Debug, Clone)]
struct Logged<M> {
    from: ProcessId,
    packet: InFlight<M>,
}

/// The record of one link into a row. Its presence in [`Row::links`] is the
/// link's existence: it enters on first use and never leaves.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// Packets in flight on the link.
    len: u32,
    /// Capacity evictions not yet applied to the log: the link's `evicted`
    /// oldest log entries are no longer in flight.
    evicted: u32,
    /// Scratch of one delivery: the next free position of the link's bucket
    /// while the log is grouped by sender.
    cursor: u32,
}

/// Every packet in flight towards one destination, in arrival order.
///
/// A send appends to `log`; the FIFO of the link from `s` is *the log
/// filtered by sender `s`, minus the link's `evicted` oldest entries*. A
/// full link therefore evicts by counting: whoever next walks the log — a
/// delivery, [`Row::settle`] — discards that many of the link's oldest
/// entries, and every reader skips them. So an evicted payload is dropped at
/// the next log walk rather than at the evicting send; since payload sharing
/// is unobservable, no delivery, digest or report can tell.
///
/// Between calls every log entry is `Some`, `live` is the sum of the links'
/// `len`, and `log.len() - live` is the sum of their `evicted`. The entries are
/// `Option`s so that a delivery can take packets out in sender order and
/// close the holes once, at its end.
///
/// A row only grows: links never leave `links`, and `log` keeps its buffer,
/// so steady-state sends and deliveries touch the allocator exactly zero
/// times. A row that is never drained settles whenever evicted entries come
/// to outnumber live ones, which bounds its log by `2 × capacity` entries
/// per link.
///
/// `links` is sized by the largest dense identifier the row has seen, not by
/// how many senders it has, and a delivery walks all of it. Honest
/// identifiers are `0..n`, so that is the population; one packet from a
/// forged identifier just below the dense limit costs that destination
/// `DENSE_LIMIT × size_of::<Option<Link>>()` = 64 KB for good — pinned by
/// `forged_dense_sender_costs_at_most_the_dense_limit`.
#[derive(Debug, Clone)]
struct Row<M> {
    log: Vec<Option<Logged<M>>>,
    links: PeerTable<Link>,
    live: usize,
}

/// Why a log entry's link may be unwrapped.
const LINKED: &str = "a packet is logged on a link its row holds";

/// Why a log entry may be unwrapped: a delivery, which makes the only holes,
/// closes them before it returns.
const LOGGED: &str = "the log has no holes between calls";

impl<M> Row<M> {
    fn new() -> Self {
        Row {
            log: Vec::new(),
            links: PeerTable::new(),
            live: 0,
        }
    }

    /// Creates the link from `from` when it does not exist yet.
    fn open(&mut self, from: ProcessId) {
        self.links.get_or_insert_with(from, Link::default);
    }

    /// The senders with packets in flight into this row, ascending.
    fn busy_senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let busy = self.links.iter().filter(|(_, link)| link.len > 0);
        busy.map(|(from, _)| from)
    }

    /// The senders that have a link into this row, ascending.
    fn senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.links.iter().map(|(from, _)| from)
    }

    /// The packets in flight from `from`, oldest first.
    fn packets(&self, from: ProcessId) -> impl Iterator<Item = &InFlight<M>> + '_ {
        let evicted = self.links.get(from).map_or(0, |link| link.evicted);
        let sent = self.log.iter().flatten().filter(move |e| e.from == from);
        sent.skip(evicted as usize).map(|e| &e.packet)
    }

    /// [`Row::packets`] with the packets mutable.
    fn packets_mut(&mut self, from: ProcessId) -> impl Iterator<Item = &mut InFlight<M>> + '_ {
        self.settle();
        let sent = self
            .log
            .iter_mut()
            .flatten()
            .filter(move |e| e.from == from);
        sent.map(|e| &mut e.packet)
    }

    /// The earliest round at which a packet in flight in the row becomes
    /// deliverable: one pass over the log, whatever is pending.
    fn earliest_ready(&self) -> Option<Round> {
        let entries = self.log.iter().flatten();
        if self.log.len() == self.live {
            return entries.map(|e| e.packet.ready_at).min();
        }
        // How many of each link's oldest entries went by; they count as gone
        // until the link's pending evictions are covered.
        let mut skipped: PeerTable<u32> = PeerTable::new();
        let in_flight = entries.filter(|e| {
            let evicted = self.links.get(e.from).map_or(0, |link| link.evicted);
            if evicted == 0 {
                return true;
            }
            let skipped = skipped.get_or_insert_with(e.from, || 0);
            let gone = *skipped < evicted;
            *skipped += u32::from(gone);
            !gone
        });
        in_flight.map(|e| e.packet.ready_at).min()
    }

    /// Applies the pending evictions: discards each link's `evicted` oldest
    /// log entries.
    fn settle(&mut self) {
        if self.log.len() == self.live {
            return;
        }
        let links = &mut self.links;
        self.log.retain(|entry| {
            let from = entry.as_ref().expect(LOGGED).from;
            let link = links.get_mut(from).expect(LINKED);
            let evicted = link.evicted > 0;
            link.evicted -= u32::from(evicted);
            !evicted
        });
    }

    /// Discards every packet in flight in the row.
    fn clear_all(&mut self) {
        self.log.clear();
        self.live = 0;
        for (_, link) in self.links.iter_mut() {
            *link = Link::default();
        }
    }

    /// Discards every packet in flight from `from`.
    fn clear(&mut self, from: ProcessId) {
        self.settle();
        let Some(link) = self.links.get_mut(from).filter(|link| link.len > 0) else {
            return;
        };
        self.live -= link.len as usize;
        link.len = 0;
        self.log
            .retain(|entry| entry.as_ref().is_some_and(|e| e.from != from));
    }

    /// Enqueues a packet carrying `payload`, deliverable from `ready_at` on,
    /// on the link from `from` — which must exist — under the bounded
    /// `capacity`: a full link evicts its oldest packet first. Returns
    /// whether it did.
    fn enqueue(
        &mut self,
        from: ProcessId,
        payload: Payload<M>,
        ready_at: Round,
        capacity: usize,
    ) -> bool {
        let link = self.links.get_mut(from).expect(LINKED);
        let full = link.len as usize >= capacity;
        // A full link that holds nothing (capacity 0) has nothing to evict.
        let evicts = full && link.len > 0;
        if evicts {
            link.evicted += 1;
        } else {
            link.len += 1;
            self.live += 1;
        }
        // Counting the packet about to be logged, evicted entries would
        // outnumber live ones.
        if evicts && self.log.len() >= 2 * self.live {
            self.settle();
        }
        if self.log.len() == self.log.capacity() {
            // Half again, not `push`'s doubling: the log ends at a high-water
            // mark scheduling sets, and what it grows past that is never used.
            self.log.reserve_exact((self.log.len() / 2).max(4));
        }
        let packet = InFlight::new(payload, ready_at);
        self.log.push(Some(Logged { from, packet }));
        full
    }
}

impl<M: Clone> Row<M> {
    /// The one delivery loop: hands `sink` up to `limit` packets whose round
    /// has come, visiting the links with packets in flight in a random
    /// interleaving of senders (shuffled from ascending sender order) and
    /// each link oldest first — or, when `reorder` is set, in uniform draws
    /// among its ready packets. Returns the number of links visited and the
    /// earliest round at which a packet left behind becomes deliverable.
    fn deliver(
        &mut self,
        now: Round,
        limit: usize,
        reorder: bool,
        rng: &mut SimRng,
        scratch: &mut Scratch,
        mut sink: impl FnMut(ProcessId, M),
    ) -> (usize, Option<Round>) {
        let Scratch {
            visit,
            order,
            ready,
        } = scratch;
        visit.clear();
        visit.extend(self.busy_senders());
        rng.shuffle(visit);
        // Group the log by sender, in visit order: a counting sort of log
        // positions whose buckets are the links' `len`, so each bucket lists
        // its link's packets oldest first. The same pass applies the pending
        // evictions.
        let mut end = 0;
        for &from in visit.iter() {
            let link = self.links.get_mut(from).expect(LINKED);
            link.cursor = end;
            end += link.len;
        }
        order.clear();
        order.resize(self.live, 0);
        for (at, entry) in self.log.iter_mut().enumerate() {
            let from = entry.as_ref().expect(LOGGED).from;
            let link = self.links.get_mut(from).expect(LINKED);
            if link.evicted > 0 {
                link.evicted -= 1;
                *entry = None;
            } else {
                order[link.cursor as usize] = at as u32;
                link.cursor += 1;
            }
        }
        // The limit applies across links; links past it are still read for
        // the earliest next delivery, but not drained.
        let mut budget = limit;
        let mut next_ready = None;
        let mut begin = 0;
        for &from in visit.iter() {
            let link = self.links.get_mut(from).expect(LINKED);
            let bucket = &order[begin..link.cursor as usize];
            begin = link.cursor as usize;
            let before = budget;
            if reorder {
                // One `choose` per delivered packet among the positions of
                // the ready ones, as `RefChannel` draws: only how many there
                // are decides the draw.
                let log = &self.log;
                let due = |at: &usize| log[*at].as_ref().expect(LOGGED).packet.ready_at <= now;
                ready.clear();
                ready.extend(bucket.iter().map(|&at| at as usize).filter(due));
                while budget > 0 {
                    let Some(pick) = rng.index(ready.len()) else {
                        break;
                    };
                    budget -= 1;
                    let logged = self.log[ready.remove(pick)].take().expect(LOGGED);
                    sink(from, logged.packet.into_msg());
                }
            }
            for &at in bucket {
                let slot = &mut self.log[at as usize];
                // A hole is a packet the draws above delivered.
                let Some(ready_at) = slot.as_ref().map(|e| e.packet.ready_at) else {
                    continue;
                };
                if !reorder && budget > 0 && ready_at <= now {
                    budget -= 1;
                    sink(from, slot.take().expect(LOGGED).packet.into_msg());
                } else {
                    note_ready(&mut next_ready, ready_at);
                }
            }
            let delivered = before - budget;
            link.len -= delivered as u32;
            self.live -= delivered;
        }
        if self.live == 0 {
            self.log.clear();
        } else if self.log.len() > self.live {
            self.log.retain(Option::is_some);
        }
        (visit.len(), next_ready)
    }
}

/// Lists recycled across deliveries so steady-state delivery performs no
/// allocation.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The senders to visit.
    visit: Vec<ProcessId>,
    /// Log positions grouped by sender, in visit order.
    order: Vec<u32>,
    /// The log positions of one link's ready packets, under reordering.
    ready: Vec<usize>,
}

/// A read-only view of the link `from → to`: its packets in flight, oldest
/// first. Returned by [`Network::channel`].
#[derive(Debug)]
pub struct ChannelView<'a, M> {
    row: &'a Row<M>,
    from: ProcessId,
}

impl<'a, M> ChannelView<'a, M> {
    /// The packets in flight, oldest first.
    pub fn in_flight(&self) -> impl Iterator<Item = &'a InFlight<M>> + 'a {
        self.row.packets(self.from)
    }
}

/// The rest of a link's read surface, for comparing it with
/// `reference::RefChannel`; no production caller needs it.
#[cfg(test)]
impl<M> ChannelView<'_, M> {
    fn len(&self) -> usize {
        let link = self.row.links.get(self.from);
        link.map_or(0, |link| link.len as usize)
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn earliest_ready(&self) -> Option<Round> {
        self.in_flight().map(|packet| packet.ready_at).min()
    }
}

/// The collection of unidirectional links between every ordered pair of
/// processors. Links are created lazily when first used, so the network
/// grows as processors join.
///
/// Individual links can be *blocked* to model network partitions: packets
/// sent over a blocked link are silently dropped (and counted as lost) until
/// the link is unblocked. Packets already in flight when the link is blocked
/// stay in the link and are delivered once the partition heals, matching
/// the paper's model in which channels keep their (bounded) contents across
/// connectivity changes.
#[derive(Debug, Clone)]
pub struct Network<M> {
    /// The one policy every link of this network follows.
    policy: Arc<ChannelPolicy>,
    /// The packets in flight, destination-major: one [`Row`] per
    /// destination, indexed by the destination's identifier.
    rows: PeerTable<Row<M>>,
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Destinations whose incoming links were mutated outside the normal
    /// send path (injection, white-box packet access). The scheduler drains
    /// this to wake the affected processes.
    dirty: BTreeSet<ProcessId>,
    /// Recycled by [`Row::deliver`].
    scratch: Scratch,
}

impl<M: Clone> Network<M> {
    /// Creates an empty network whose links all follow `policy`.
    pub fn new(policy: ChannelPolicy) -> Self {
        Network {
            policy: Arc::new(policy),
            rows: PeerTable::new(),
            blocked: BTreeSet::new(),
            dirty: BTreeSet::new(),
            scratch: Scratch::default(),
        }
    }

    /// The shared channel policy.
    pub fn policy(&self) -> &ChannelPolicy {
        &self.policy
    }

    /// Replaces the policy of every link — existing and future. Packets
    /// already in flight keep their assigned delivery rounds. The scenario
    /// engine uses this to model message-drop/duplication/delay *spikes*
    /// (see [`crate::fault::SpikePlan`]); the change is applied at a round
    /// boundary.
    pub fn set_policy(&mut self, policy: ChannelPolicy) {
        self.policy = Arc::new(policy);
    }

    /// Blocks the unidirectional link `from → to`: subsequent sends over it
    /// are dropped until [`Network::unblock_link`] (or
    /// [`Network::heal_all_links`]) is called.
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.insert((from, to));
    }

    /// Unblocks the unidirectional link `from → to`.
    pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.remove(&(from, to));
    }

    /// Returns `true` while the link `from → to` is blocked.
    pub fn is_blocked(&self, from: ProcessId, to: ProcessId) -> bool {
        self.blocked.contains(&(from, to))
    }

    /// Blocks both directions between every pair of processors that belong to
    /// *different* groups, creating a network partition. Processors that
    /// appear in none of the groups keep full connectivity.
    pub fn split_into(&mut self, groups: &[Vec<ProcessId>]) {
        for (gi, ga) in groups.iter().enumerate() {
            for (gj, gb) in groups.iter().enumerate() {
                if gi == gj {
                    continue;
                }
                for a in ga {
                    for b in gb {
                        self.blocked.insert((*a, *b));
                    }
                }
            }
        }
    }

    /// Blocks only the links *from* members of `from` *to* members of `to`,
    /// creating an asymmetric (one-directional) cut: packets still flow in
    /// the reverse direction. The paper's fail-recovery link model allows a
    /// link to fail in one direction while its twin keeps working; this is
    /// the per-direction analogue of [`Network::split_into`].
    pub fn cut_oneway(&mut self, from: &[ProcessId], to: &[ProcessId]) {
        for a in from {
            for b in to {
                if a != b {
                    self.blocked.insert((*a, *b));
                }
            }
        }
    }

    /// Unblocks the links *from* members of `from` *to* members of `to`,
    /// lifting a one-directional cut. Links never blocked are unaffected.
    pub fn open_oneway(&mut self, from: &[ProcessId], to: &[ProcessId]) {
        for a in from {
            for b in to {
                self.blocked.remove(&(*a, *b));
            }
        }
    }

    /// Removes every blocked link, healing all partitions.
    pub fn heal_all_links(&mut self) {
        self.blocked.clear();
    }

    /// Number of currently blocked unidirectional links.
    pub fn blocked_link_count(&self) -> usize {
        self.blocked.len()
    }

    /// The row of `to` with the link `from → to` in it, both created when
    /// they do not exist yet.
    fn link_entry(&mut self, from: ProcessId, to: ProcessId) -> &mut Row<M> {
        let row = self.rows.get_or_insert_with(to, Row::new);
        row.open(from);
        row
    }

    /// Sends `msg` from `from` to `to` at round `now`, recording the outcome
    /// in `metrics`. Returns the earliest round at which the packet becomes
    /// deliverable, or `None` when it was dropped — the event-driven
    /// scheduler uses this to wake the destination at exactly that round.
    pub fn send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        now: Round,
        rng: &mut SimRng,
        metrics: &mut Metrics,
    ) -> Option<Round> {
        self.send_payload(from, to, Payload::owned(msg), now, rng, metrics)
    }

    /// The payload-level form of [`Network::send`]: the scheduler's flush
    /// path hands packets over as [`Payload`]s, so a broadcast fanned out
    /// through [`crate::stack::Outbox::push_to_all`] reaches its channels as
    /// refcount bumps rather than deep clones.
    pub fn send_payload(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        payload: Payload<M>,
        now: Round,
        rng: &mut SimRng,
        metrics: &mut Metrics,
    ) -> Option<Round> {
        if !self.blocked.is_empty() && self.blocked.contains(&(from, to)) {
            metrics.record_send(SendOutcome::Lost);
            return None;
        }
        let ChannelPolicy {
            capacity,
            loss_probability,
            duplication_probability,
            max_delay_rounds,
            ..
        } = *self.policy;
        let row = self.link_entry(from, to);
        // Outcomes and RNG draw order — loss, duplication, one delay per
        // enqueue — are the link law's, as `RefChannel::send` spells them.
        if rng.chance(loss_probability) {
            metrics.record_send(SendOutcome::Lost);
            return None;
        }
        let duplicated = rng.chance(duplication_probability);
        let mut enqueue = |payload: Payload<M>, ok: SendOutcome| {
            let delay = match max_delay_rounds {
                0 => 0,
                max => rng.range_inclusive(0, max),
            };
            let ready_at = now + delay;
            if row.enqueue(from, payload, ready_at, capacity) {
                (SendOutcome::EvictedOld, ready_at)
            } else {
                (ok, ready_at)
            }
        };
        let (outcome, ready) = if duplicated {
            let (first, dup) = payload.split();
            let (_, first_ready) = enqueue(first, SendOutcome::Enqueued);
            let (outcome, dup_ready) = enqueue(dup, SendOutcome::Duplicated);
            (outcome, first_ready.min(dup_ready))
        } else {
            enqueue(payload, SendOutcome::Enqueued)
        };
        metrics.record_send(outcome);
        Some(ready)
    }

    /// [`Row::deliver`] on the row of `to`, into `into`: returns the number
    /// of links visited and the earliest round at which `to` has another
    /// deliverable packet.
    fn deliver_row_into(
        &mut self,
        to: ProcessId,
        now: Round,
        limit: usize,
        rng: &mut SimRng,
        metrics: &mut Metrics,
        into: &mut Vec<(ProcessId, M)>,
    ) -> (usize, Option<Round>) {
        let Some(row) = self.rows.get_mut(to) else {
            return (0, None);
        };
        let start = into.len();
        let sink = |from, msg| {
            metrics.record_delivery();
            into.push((from, msg));
        };
        let reorder = self.policy.reorder;
        let outcome = row.deliver(now, limit, reorder, rng, &mut self.scratch, sink);
        metrics.record_delivery_batch(into.len() - start);
        outcome
    }

    /// Drains up to `limit` deliverable packets addressed to `to`, across all
    /// of its incoming channels, in a random interleaving of senders, and
    /// charges `metrics` for the channels it visits. Returns the `(from, msg)`
    /// pairs and the earliest round at which `to` has another deliverable
    /// packet (so the scheduler can re-wake it then).
    pub fn deliver_due(
        &mut self,
        to: ProcessId,
        now: Round,
        limit: usize,
        rng: &mut SimRng,
        metrics: &mut Metrics,
    ) -> (Vec<(ProcessId, M)>, Option<Round>) {
        let mut delivered = Vec::new();
        let next_ready = self.deliver_due_into(to, now, limit, rng, metrics, &mut delivered);
        (delivered, next_ready)
    }

    /// Allocation-free form of [`Network::deliver_due`]: `(from, msg)` pairs
    /// are appended to the caller's `into` buffer and the visit list is
    /// recycled inside the network, so a steady-state delivery touches no
    /// allocator. Returns the earliest round at which `to` has another
    /// deliverable packet.
    pub fn deliver_due_into(
        &mut self,
        to: ProcessId,
        now: Round,
        limit: usize,
        rng: &mut SimRng,
        metrics: &mut Metrics,
        into: &mut Vec<(ProcessId, M)>,
    ) -> Option<Round> {
        let (visited, next_ready) = self.deliver_row_into(to, now, limit, rng, metrics, into);
        metrics.record_channel_visits(visited);
        next_ready
    }

    /// Removes every packet-wake obligation recorded since the last call:
    /// destinations whose inbound links were touched through the white-box
    /// APIs ([`Network::inject`], [`Network::in_flight_mut`]). The scheduler
    /// wakes these processes on the next round so out-of-band packets are
    /// still delivered under event-driven scheduling.
    pub fn take_dirty(&mut self) -> BTreeSet<ProcessId> {
        std::mem::take(&mut self.dirty)
    }

    /// Places a packet directly into the link `from → to`, bypassing the
    /// loss/delay model (the bounded capacity is still enforced). Models
    /// stale channel contents after a transient fault.
    pub fn inject(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        let capacity = self.policy.capacity;
        self.link_entry(from, to)
            .enqueue(from, Payload::owned(msg), Round::ZERO, capacity);
        self.dirty.insert(to);
    }

    /// Discards every packet in flight on the link `from → to`.
    pub fn clear_channel(&mut self, from: ProcessId, to: ProcessId) {
        if let Some(row) = self.rows.get_mut(to) {
            row.clear(from);
        }
    }

    /// Discards every packet in flight anywhere in the network.
    pub fn clear_all(&mut self) {
        for (_, row) in self.rows.iter_mut() {
            row.clear_all();
        }
    }

    /// Total number of packets in flight across all links.
    pub fn in_flight_total(&self) -> usize {
        self.rows.iter().map(|(_, row)| row.live).sum()
    }

    /// A read-only view of the link `from → to`, if it exists.
    pub fn channel(&self, from: ProcessId, to: ProcessId) -> Option<ChannelView<'_, M>> {
        let row = self.rows.get(to)?;
        row.links.get(from)?;
        Some(ChannelView { row, from })
    }

    /// Mutable access to the packets in flight on the link `from → to`,
    /// oldest first, creating the link if necessary. Exposed so fault
    /// injectors and white-box tests can corrupt channel contents. Schedules
    /// a wake-up for `to`, whatever the caller goes on to do with the
    /// packets: the delivery path reads emptiness off the row itself, so a
    /// wake-up that finds nothing deliverable costs nothing.
    pub fn in_flight_mut(
        &mut self,
        from: ProcessId,
        to: ProcessId,
    ) -> impl Iterator<Item = &mut InFlight<M>> + '_ {
        self.dirty.insert(to);
        self.link_entry(from, to).packets_mut(from)
    }

    /// Iterates over all `(from, to)` pairs that currently have a link, in
    /// ascending `(from, to)` order.
    pub fn links(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        let mut links: Vec<(ProcessId, ProcessId)> = self
            .rows
            .iter()
            .flat_map(|(to, row)| row.senders().map(move |from| (from, to)))
            .collect();
        links.sort_unstable();
        links.into_iter()
    }

    /// The earliest round at which any packet in flight towards `to` becomes
    /// deliverable (the scheduler's due check).
    pub fn earliest_inbound_ready(&self, to: ProcessId) -> Option<Round> {
        self.rows.get(to)?.earliest_ready()
    }

    /// Applies `mutate` once to the payloads of every packet currently in
    /// flight towards `to`, across all of its inbound channels in ascending
    /// sender order. Returns the number of payloads exposed to `mutate`.
    ///
    /// This is the paper's in-flight packet corruption: the packets
    /// themselves (count and delivery rounds) are untouched — corruption
    /// never creates packets out of thin air — only their contents change.
    /// The affected destination is marked dirty so the event-driven
    /// scheduler re-examines it.
    ///
    /// Packets whose payload is shared (broadcast fan-out, duplication) are
    /// un-shared copy-on-write before `mutate` sees them, so corruption never
    /// aliases into other channels' packets.
    pub fn corrupt_inbound_payloads(
        &mut self,
        to: ProcessId,
        mutate: impl FnOnce(&mut [&mut M]),
    ) -> usize {
        let Some(row) = self.rows.get_mut(to) else {
            return 0;
        };
        row.settle();
        // Arrival order, stably sorted by sender: ascending sender, each
        // link oldest first.
        let mut logged: Vec<&mut Logged<M>> = row.log.iter_mut().flatten().collect();
        logged.sort_by_key(|entry| entry.from);
        let mut payloads: Vec<&mut M> = logged
            .into_iter()
            .map(|entry| entry.packet.msg_mut())
            .collect();
        let touched = payloads.len();
        if touched > 0 {
            mutate(&mut payloads);
            self.dirty.insert(to);
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefChannel;
    use super::*;

    fn ids(n: u32) -> Vec<ProcessId> {
        (0..n).map(ProcessId::new).collect()
    }

    fn reliable() -> ChannelPolicy {
        ChannelPolicy {
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        }
    }

    /// The packets in flight on the link `from → to`, oldest first, as
    /// `(message, ready round)` — the form `RefChannel::packets` lists.
    fn packets(net: &Network<u32>, from: ProcessId, to: ProcessId) -> Vec<(u32, Round)> {
        let view = net.channel(from, to).unwrap();
        view.in_flight().map(|x| (*x.msg(), x.ready_at)).collect()
    }

    #[test]
    fn point_to_point_delivery() {
        let p = ids(3);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(1);
        let mut metrics = Metrics::default();
        net.send(p[0], p[1], 10, Round::ZERO, &mut rng, &mut metrics);
        net.send(p[2], p[1], 20, Round::ZERO, &mut rng, &mut metrics);
        let mut got = net
            .deliver_due(p[1], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
            .0;
        got.sort();
        assert_eq!(got, vec![(p[0], 10), (p[2], 20)]);
        assert_eq!(metrics.messages_delivered(), 2);
        // Nothing was addressed to p0.
        assert!(net
            .deliver_due(p[0], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
            .0
            .is_empty());
    }

    #[test]
    fn channels_are_directional() {
        let p = ids(2);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(2);
        let mut metrics = Metrics::default();
        net.send(p[0], p[1], 5, Round::ZERO, &mut rng, &mut metrics);
        assert!(net
            .deliver_due(p[0], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
            .0
            .is_empty());
        assert_eq!(
            net.deliver_due(p[1], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
                .0,
            vec![(p[0], 5)]
        );
    }

    #[test]
    fn inject_and_clear() {
        let p = ids(2);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(3);
        let mut metrics = Metrics::default();
        net.inject(p[0], p[1], 77);
        assert_eq!(net.in_flight_total(), 1);
        net.clear_channel(p[0], p[1]);
        assert_eq!(net.in_flight_total(), 0);
        net.inject(p[0], p[1], 77);
        net.inject(p[1], p[0], 88);
        net.clear_all();
        assert_eq!(net.in_flight_total(), 0);
        assert!(net
            .deliver_due(p[1], Round::new(5), usize::MAX, &mut rng, &mut metrics)
            .0
            .is_empty());
    }

    #[test]
    fn delivery_limit_applies_across_senders() {
        let p = ids(4);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(4);
        let mut metrics = Metrics::default();
        for (i, src) in [p[0], p[1], p[2]].iter().enumerate() {
            net.send(*src, p[3], i as u32, Round::ZERO, &mut rng, &mut metrics);
        }
        let got = net
            .deliver_due(p[3], Round::ZERO, 2, &mut rng, &mut metrics)
            .0;
        assert_eq!(got.len(), 2);
        assert_eq!(net.in_flight_total(), 1);
    }

    #[test]
    fn blocked_link_drops_new_sends_but_keeps_in_flight() {
        let p = ids(2);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(6);
        let mut metrics = Metrics::default();
        // A packet already in flight before the partition survives it.
        net.send(p[0], p[1], 1, Round::ZERO, &mut rng, &mut metrics);
        net.block_link(p[0], p[1]);
        assert!(net.is_blocked(p[0], p[1]));
        net.send(p[0], p[1], 2, Round::ZERO, &mut rng, &mut metrics);
        assert_eq!(metrics.messages_lost(), 1);
        assert_eq!(net.in_flight_total(), 1);
        // The reverse direction is unaffected.
        net.send(p[1], p[0], 3, Round::ZERO, &mut rng, &mut metrics);
        assert_eq!(net.in_flight_total(), 2);
        net.unblock_link(p[0], p[1]);
        net.send(p[0], p[1], 4, Round::ZERO, &mut rng, &mut metrics);
        let mut got = net
            .deliver_due(p[1], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
            .0;
        got.sort();
        assert_eq!(got, vec![(p[0], 1), (p[0], 4)]);
    }

    #[test]
    fn split_into_blocks_cross_group_links_both_ways() {
        let p = ids(5);
        let mut net: Network<u32> = Network::new(reliable());
        net.split_into(&[vec![p[0], p[1]], vec![p[2], p[3]]]);
        // 2 × 2 pairs × both directions = 8 blocked links.
        assert_eq!(net.blocked_link_count(), 8);
        assert!(net.is_blocked(p[0], p[2]));
        assert!(net.is_blocked(p[2], p[0]));
        // Intra-group links stay open, and p4 (in no group) talks to everyone.
        assert!(!net.is_blocked(p[0], p[1]));
        assert!(!net.is_blocked(p[4], p[0]));
        assert!(!net.is_blocked(p[2], p[4]));
        net.heal_all_links();
        assert_eq!(net.blocked_link_count(), 0);
        assert!(!net.is_blocked(p[0], p[2]));
    }

    #[test]
    fn oneway_cut_blocks_one_direction_only() {
        let p = ids(4);
        let mut net: Network<u32> = Network::new(reliable());
        net.cut_oneway(&[p[0], p[1]], &[p[2], p[3]]);
        assert_eq!(net.blocked_link_count(), 4);
        assert!(net.is_blocked(p[0], p[2]));
        assert!(net.is_blocked(p[1], p[3]));
        // The reverse direction keeps working.
        assert!(!net.is_blocked(p[2], p[0]));
        assert!(!net.is_blocked(p[3], p[1]));
        net.open_oneway(&[p[0], p[1]], &[p[2], p[3]]);
        assert_eq!(net.blocked_link_count(), 0);
        // Self-links are never blocked even when a process is in both groups.
        net.cut_oneway(&[p[0]], &[p[0], p[1]]);
        assert!(!net.is_blocked(p[0], p[0]));
        assert!(net.is_blocked(p[0], p[1]));
    }

    #[test]
    fn inbound_ready_index_and_scan_agree() {
        let p = ids(3);
        let mut net: Network<u32> = Network::new(ChannelPolicy {
            max_delay_rounds: 3,
            ..ChannelPolicy::default()
        });
        let mut rng = SimRng::seed_from(9);
        let mut metrics = Metrics::default();
        // The earliest ready round towards `to`, found by scanning every link.
        let scan = |net: &Network<u32>, to: ProcessId| {
            net.links()
                .filter(|&(_, dst)| dst == to)
                .filter_map(|(from, dst)| net.channel(from, dst)?.earliest_ready())
                .min()
        };
        assert_eq!(net.earliest_inbound_ready(p[1]), None);
        assert_eq!(scan(&net, p[1]), None);
        net.send(p[0], p[1], 1, Round::ZERO, &mut rng, &mut metrics);
        net.send(p[2], p[1], 2, Round::ZERO, &mut rng, &mut metrics);
        let indexed = net.earliest_inbound_ready(p[1]);
        assert_eq!(indexed, scan(&net, p[1]));
        assert!(indexed.is_some());
        // Unrelated destination stays quiet.
        assert_eq!(net.earliest_inbound_ready(p[0]), None);
    }

    #[test]
    fn payload_corruption_mutates_without_creating_packets() {
        let p = ids(3);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(7);
        let mut metrics = Metrics::default();
        net.send(p[0], p[2], 10, Round::ZERO, &mut rng, &mut metrics);
        net.send(p[1], p[2], 20, Round::ZERO, &mut rng, &mut metrics);
        let before = net.in_flight_total();
        let touched = net.corrupt_inbound_payloads(p[2], |payloads| {
            for m in payloads {
                **m += 1;
            }
        });
        assert_eq!(touched, 2);
        assert_eq!(net.in_flight_total(), before);
        assert!(net.take_dirty().contains(&p[2]));
        let mut got = net
            .deliver_due(p[2], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
            .0;
        got.sort();
        assert_eq!(got, vec![(p[0], 11), (p[1], 21)]);
        // No packets towards p1: the mutation closure is never called.
        let untouched = net.corrupt_inbound_payloads(p[1], |_| panic!("no packets"));
        assert_eq!(untouched, 0);
    }

    #[test]
    fn links_lists_created_channels() {
        let p = ids(2);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(5);
        let mut metrics = Metrics::default();
        net.send(p[0], p[1], 1, Round::ZERO, &mut rng, &mut metrics);
        let links: Vec<_> = net.links().collect();
        assert_eq!(links, vec![(p[0], p[1])]);
        assert!(net.channel(p[0], p[1]).is_some());
        assert!(net.channel(p[1], p[0]).is_none());
    }

    /// A crashed destination's row takes evicting sends forever: its log must
    /// stay within `2 × capacity` entries per link and stop allocating once
    /// it got there.
    #[test]
    fn never_drained_row_is_bounded_by_capacity() {
        let p = ids(9);
        let mut net: Network<u32> = Network::new(ChannelPolicy::default());
        assert_eq!(net.policy().capacity, 16);
        let mut rng = SimRng::seed_from(11);
        let mut metrics = Metrics::default();
        let mut footprint = None;
        for nth in 0..200u32 {
            for from in &p[..8] {
                let evicted = metrics.messages_evicted();
                net.send(*from, p[8], nth, Round::ZERO, &mut rng, &mut metrics);
                assert_eq!(metrics.messages_evicted() - evicted, u64::from(nth >= 16));
                let log = &net.rows.get(p[8]).unwrap().log;
                assert!(
                    log.len() <= 2 * 16 * 8,
                    "{} entries at send {nth}",
                    log.len()
                );
            }
            // Two fills: the links are full, and as many evictions are pending.
            let capacity = net.rows.get(p[8]).unwrap().log.capacity();
            if nth >= 31 {
                assert_eq!(*footprint.get_or_insert(capacity), capacity, "send {nth}");
            }
        }
        assert_eq!(net.in_flight_total(), 8 * 16);
        // What is left is the newest 16 of each link, oldest first.
        let left: Vec<u32> = net
            .channel(p[3], p[8])
            .unwrap()
            .in_flight()
            .map(|x| *x.msg())
            .collect();
        assert_eq!(left, (184..200).collect::<Vec<_>>());
    }

    /// A row's link table is sized by the largest dense sender it has seen: a
    /// forged identifier just below the dense limit buys the limit's worth
    /// of link records, once, and one at the limit buys none. The log grows
    /// by packets, not by identifiers.
    #[test]
    fn forged_dense_sender_costs_at_most_the_dense_limit() {
        let limit = PeerTable::<()>::DENSE_LIMIT;
        let to = ProcessId::new(0);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(12);
        let mut metrics = Metrics::default();
        for raw in [limit, limit - 1, 1, limit - 1] {
            let from = ProcessId::new(raw);
            net.send(from, to, raw, Round::ZERO, &mut rng, &mut metrics);
        }
        let row = net.rows.get(to).unwrap();
        let per_link = std::mem::size_of::<Option<Link>>();
        assert_eq!(per_link, 16);
        assert!(row.links.dense_footprint() <= limit as usize * per_link);
        assert_eq!(row.log.len(), 4);
        let senders: Vec<u32> = row.busy_senders().map(ProcessId::as_u32).collect();
        assert_eq!(senders, vec![1, limit - 1, limit]);
    }

    /// An arrival-log entry is its message plus 16 B — the sender and the
    /// delivery round — for a message shaped like the wire values: 8-byte
    /// aligned, with spare bit patterns the payload and entry tags can use.
    /// Every simulated send writes one entry, so neither `Logged` nor
    /// `InFlight` may grow unnoticed.
    #[test]
    fn a_log_entry_is_its_message_plus_sixteen_bytes() {
        #[allow(dead_code)]
        struct Msg {
            words: [u64; 3],
            flag: bool,
        }
        let msg = std::mem::size_of::<Msg>();
        assert_eq!(msg, 32);
        assert_eq!(std::mem::size_of::<Option<Logged<Msg>>>(), msg + 16);
    }

    /// Sends and one-packet deliveries interleaved on one link that fills up
    /// and then evicts on every send: every delivery is what a `RefChannel`
    /// fed the same operations and random stream delivers.
    #[test]
    fn interleaved_sends_and_deliveries_follow_channel_order() {
        let p = ids(2);
        let policy = ChannelPolicy {
            max_delay_rounds: 2,
            capacity: 6,
            ..ChannelPolicy::default()
        };
        let mut net: Network<u32> = Network::new(policy.clone());
        let mut oracle: RefChannel<u32> = RefChannel::new(policy);
        let (mut rng, mut oracle_rng) = (SimRng::seed_from(12), SimRng::seed_from(12));
        let mut metrics = Metrics::default();
        let mut value = 0;
        for step in 0..50u64 {
            let now = Round::new(step);
            // Two sends per delivery until the link is full, then one.
            for _ in 0..if step < 12 { 2 } else { 1 } {
                value += 1;
                net.send(p[0], p[1], value, now, &mut rng, &mut metrics);
                oracle.send(value, now, &mut oracle_rng);
            }
            let mut got = Vec::new();
            net.deliver_due_into(p[1], now, 1, &mut rng, &mut metrics, &mut got);
            let got: Vec<u32> = got.into_iter().map(|(_, m)| m).collect();
            assert_eq!(
                got,
                oracle.drain_ready(now, 1, &mut oracle_rng),
                "step {step}"
            );
            assert_eq!(packets(&net, p[0], p[1]), oracle.packets(), "step {step}");
            // A delivery leaves the log holding exactly what is in flight.
            let view = net.channel(p[0], p[1]).unwrap();
            assert_eq!(net.rows.get(p[1]).unwrap().log.len(), view.len());
        }
        assert!(metrics.messages_evicted() > 0 && metrics.messages_delivered() > 40);
    }

    /// The read-only view lists a link's packets oldest first — here the 7
    /// left after a partial delivery and more sends.
    #[test]
    fn channel_view_lists_oldest_first_after_partial_delivery() {
        let p = ids(2);
        let mut net: Network<u32> = Network::new(reliable());
        let mut oracle: RefChannel<u32> = RefChannel::new(reliable());
        // A reliable policy draws nothing, so the streams need not be paired.
        let mut rng = SimRng::seed_from(13);
        let mut metrics = Metrics::default();
        // Packet `m` is sent at, and so ready from, round `m`.
        let send = |net: &mut Network<u32>, oracle: &mut RefChannel<u32>, values| {
            for m in values {
                let now = Round::new(u64::from(m));
                let quiet = &mut SimRng::seed_from(0);
                net.send(p[0], p[1], m, now, quiet, &mut Metrics::default());
                oracle.send(m, now, quiet);
            }
        };
        send(&mut net, &mut oracle, 1..=5);
        let delivered = net
            .deliver_due(p[1], Round::new(2), 2, &mut rng, &mut metrics)
            .0;
        assert_eq!(delivered, vec![(p[0], 1), (p[0], 2)]);
        assert_eq!(oracle.drain_ready(Round::new(2), 2, &mut rng), vec![1, 2]);
        send(&mut net, &mut oracle, 6..=9);
        let view = net.channel(p[0], p[1]).unwrap();
        assert_eq!(view.len(), 7);
        assert!(!view.is_empty());
        let listed: Vec<u32> = view.in_flight().map(|x| *x.msg()).collect();
        assert_eq!(listed, vec![3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(packets(&net, p[0], p[1]), oracle.packets());
        assert_eq!(view.earliest_ready(), Some(Round::new(3)));
        assert_eq!(view.earliest_ready(), oracle.earliest_ready());
    }

    /// Capacity evictions stay pending in the log until something walks it.
    /// After evicting sends and **before any delivery**, every reader and
    /// every white-box entry sees what `RefChannel`s fed the same sends hold.
    #[test]
    fn eviction_is_invisible_until_settled() {
        let p = ids(4);
        let to = p[3];
        let policy = ChannelPolicy {
            capacity: 3,
            max_delay_rounds: 3,
            ..ChannelPolicy::default()
        };
        let mut filled: Network<u32> = Network::new(policy.clone());
        let mut oracle: Vec<RefChannel<u32>> = vec![RefChannel::new(policy); 3];
        let (mut rng, mut oracle_rng) = (SimRng::seed_from(14), SimRng::seed_from(14));
        let mut metrics = Metrics::default();
        // Fill the links with 3, 2 and 3 packets, then evict 5 on the first
        // and 1 on the last.
        let senders = [0, 1, 2, 0, 1, 2, 0, 2, 0, 0, 0, 2, 0, 0];
        for (value, from) in senders.into_iter().enumerate() {
            // Ten rounds apart, so an older packet is ready sooner.
            let now = Round::new(value as u64 * 10);
            let value = value as u32;
            filled.send(p[from], to, value, now, &mut rng, &mut metrics);
            oracle[from].send(value, now, &mut oracle_rng);
        }
        assert_eq!(metrics.messages_evicted(), 6);
        let row = filled.rows.get(to).unwrap();
        assert_eq!((row.log.len(), row.live), (14, 8), "nothing settled yet");

        let in_flight: Vec<Vec<(u32, Round)>> = oracle.iter().map(RefChannel::packets).collect();
        let view = |net: &Network<u32>, from: usize| packets(net, p[from], to);
        for (from, want) in in_flight.iter().enumerate() {
            assert_eq!(&view(&filled, from), want, "link {from}");
        }
        let earliest = oracle.iter().filter_map(RefChannel::earliest_ready).min();
        assert_eq!(filled.earliest_inbound_ready(to), earliest);
        assert!(earliest >= Some(Round::new(10)), "packet 0 was evicted");
        assert_eq!(filled.in_flight_total(), 8);

        for (from, want) in in_flight.iter().enumerate() {
            let mut net = filled.clone();
            let got: Vec<(u32, Round)> = net
                .in_flight_mut(p[from], to)
                .map(|x| (*x.msg(), x.ready_at))
                .collect();
            assert_eq!(&got, want, "link {from}");
        }

        let mut net = filled.clone();
        let mut seen = Vec::new();
        let touched = net.corrupt_inbound_payloads(to, |payloads| {
            seen.extend(payloads.iter().map(|m| **m));
        });
        let ascending: Vec<u32> = in_flight.iter().flatten().map(|(m, _)| *m).collect();
        assert_eq!(touched, 8);
        assert_eq!(seen, ascending);

        for cleared in 0..3 {
            let mut net = filled.clone();
            net.clear_channel(p[cleared], to);
            assert_eq!(net.in_flight_total(), 8 - in_flight[cleared].len());
            for (from, kept) in in_flight.iter().enumerate() {
                let want: &[(u32, Round)] = if from == cleared { &[] } else { kept };
                assert_eq!(view(&net, from), want, "link {from}, {cleared} cleared");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The destination-major network is observationally identical to the
        /// ordered-map network it replaced: same deliveries, same `Metrics`,
        /// same next-ready rounds, same `links()` order, same in-flight
        /// totals, same dirty sets and the same final RNG state, across random
        /// policies and random interleavings of every mutating entry point.
        #[test]
        fn row_network_matches_ordered_map_reference(
            raw_policy in (1usize..13, 0.0f64..0.3, 0.0f64..0.3, 0u64..4, any::<bool>()),
            raw_ops in proptest::collection::vec((0u8..40, 0u8..8, 0u8..8, 0u32..1000), 0..160),
            seed in 0u64..u64::MAX,
        ) {
            let ops: Vec<reference::Op> = raw_ops.iter().map(reference::Op::decode).collect();
            reference::check_equivalence(reference::policy(raw_policy), &ops, seed);
        }
    }
}

/// The network as it was before the destination-major rows: one
/// [`RefChannel`] per link in a `BTreeMap` keyed by `(from, to)`, a separate
/// per-destination index of senders that had to agree with it, and a
/// whole-map scan behind `deliver_due`/`earliest_inbound_ready`. It exists
/// only as the oracle for `row_network_matches_ordered_map_reference`.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    /// One link under the law, kept the plain way: an owned queue of
    /// `(message, ready round)`, a clone per duplicate, and a scan of the
    /// queue per delivered packet. The oracle for a row's links, alone and
    /// inside [`RefNetwork`].
    #[derive(Clone)]
    pub struct RefChannel<M> {
        policy: ChannelPolicy,
        queue: VecDeque<(M, Round)>,
    }

    impl<M: Clone> RefChannel<M> {
        pub fn new(policy: ChannelPolicy) -> Self {
            RefChannel {
                policy,
                queue: VecDeque::new(),
            }
        }

        /// Packets already in flight keep their rounds.
        pub fn set_policy(&mut self, policy: ChannelPolicy) {
            self.policy = policy;
        }

        /// Returns the outcome and the earliest round at which what was
        /// enqueued becomes deliverable (`None` when the packet was lost).
        pub fn send(
            &mut self,
            msg: M,
            now: Round,
            rng: &mut SimRng,
        ) -> (SendOutcome, Option<Round>) {
            if rng.chance(self.policy.loss_probability) {
                return (SendOutcome::Lost, None);
            }
            let duplicated = rng.chance(self.policy.duplication_probability);
            let (outcome, first_ready) = self.enqueue(msg.clone(), now, rng, SendOutcome::Enqueued);
            if duplicated {
                let (dup_outcome, dup_ready) = self.enqueue(msg, now, rng, SendOutcome::Duplicated);
                return (dup_outcome, Some(first_ready.min(dup_ready)));
            }
            (outcome, Some(first_ready))
        }

        fn enqueue(
            &mut self,
            msg: M,
            now: Round,
            rng: &mut SimRng,
            ok: SendOutcome,
        ) -> (SendOutcome, Round) {
            let delay = if self.policy.max_delay_rounds == 0 {
                0
            } else {
                rng.range_inclusive(0, self.policy.max_delay_rounds)
            };
            let ready_at = now + delay;
            if self.queue.len() >= self.policy.capacity {
                self.queue.pop_front();
                self.queue.push_back((msg, ready_at));
                (SendOutcome::EvictedOld, ready_at)
            } else {
                self.queue.push_back((msg, ready_at));
                (ok, ready_at)
            }
        }

        /// A stale packet: no loss, no delay, the capacity still enforced.
        pub fn inject(&mut self, msg: M) {
            if self.queue.len() >= self.policy.capacity {
                self.queue.pop_front();
            }
            self.queue.push_back((msg, Round::ZERO));
        }

        /// Up to `limit` packets whose round has come: the oldest ready one
        /// each time, or a uniform draw among the ready ones under
        /// reordering.
        pub fn drain_ready(&mut self, now: Round, limit: usize, rng: &mut SimRng) -> Vec<M> {
            let mut delivered = Vec::new();
            let mut ready: Vec<usize> = Vec::new();
            while delivered.len() < limit {
                ready.clear();
                let due = self
                    .queue
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, r))| *r <= now);
                ready.extend(due.map(|(i, _)| i));
                let pick = match (self.policy.reorder, ready.first()) {
                    (_, None) => break,
                    (false, Some(oldest)) => *oldest,
                    (true, Some(_)) => *rng.choose(&ready).expect("ready is non-empty"),
                };
                delivered.push(self.queue.remove(pick).expect("index is valid").0);
            }
            delivered
        }

        pub fn clear(&mut self) {
            self.queue.clear();
        }

        pub fn len(&self) -> usize {
            self.queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.queue.is_empty()
        }

        pub fn earliest_ready(&self) -> Option<Round> {
            self.queue.iter().map(|(_, r)| *r).min()
        }

        /// The packets in flight, oldest first.
        pub fn packets(&self) -> Vec<(M, Round)> {
            self.queue.iter().cloned().collect()
        }

        pub fn in_flight_mut(&mut self) -> impl Iterator<Item = &mut M> {
            self.queue.iter_mut().map(|(m, _)| m)
        }
    }

    #[derive(Default)]
    struct SenderSet(Vec<ProcessId>);

    impl SenderSet {
        fn insert(&mut self, id: ProcessId) {
            if let Err(at) = self.0.binary_search(&id) {
                self.0.insert(at, id);
            }
        }

        fn remove(&mut self, id: ProcessId) {
            if let Ok(at) = self.0.binary_search(&id) {
                self.0.remove(at);
            }
        }

        fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
            self.0.iter().copied()
        }
    }

    pub struct RefNetwork<M> {
        policy: ChannelPolicy,
        channels: BTreeMap<(ProcessId, ProcessId), RefChannel<M>>,
        blocked: BTreeSet<(ProcessId, ProcessId)>,
        inbound: BTreeMap<ProcessId, SenderSet>,
        dirty: BTreeSet<ProcessId>,
    }

    impl<M: Clone> RefNetwork<M> {
        pub fn new(policy: ChannelPolicy) -> Self {
            RefNetwork {
                policy,
                channels: BTreeMap::new(),
                blocked: BTreeSet::new(),
                inbound: BTreeMap::new(),
                dirty: BTreeSet::new(),
            }
        }

        pub fn set_policy(&mut self, policy: ChannelPolicy) {
            for channel in self.channels.values_mut() {
                channel.set_policy(policy.clone());
            }
            self.policy = policy;
        }

        pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
            self.blocked.insert((from, to));
        }

        pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
            self.blocked.remove(&(from, to));
        }

        pub fn split_into(&mut self, groups: &[Vec<ProcessId>]) {
            for (gi, ga) in groups.iter().enumerate() {
                for (gj, gb) in groups.iter().enumerate() {
                    if gi == gj {
                        continue;
                    }
                    for a in ga {
                        for b in gb {
                            self.blocked.insert((*a, *b));
                        }
                    }
                }
            }
        }

        pub fn heal_all_links(&mut self) {
            self.blocked.clear();
        }

        fn channel_entry(&mut self, from: ProcessId, to: ProcessId) -> &mut RefChannel<M> {
            let policy = self.policy.clone();
            self.channels
                .entry((from, to))
                .or_insert_with(|| RefChannel::new(policy))
        }

        pub fn send_payload(
            &mut self,
            from: ProcessId,
            to: ProcessId,
            payload: Payload<M>,
            now: Round,
            rng: &mut SimRng,
            metrics: &mut Metrics,
        ) -> Option<Round> {
            if self.blocked.contains(&(from, to)) {
                metrics.record_send(SendOutcome::Lost);
                return None;
            }
            let (outcome, ready) = self
                .channel_entry(from, to)
                .send(payload.into_msg(), now, rng);
            metrics.record_send(outcome);
            if ready.is_some() {
                self.inbound.entry(to).or_default().insert(from);
            }
            ready
        }

        fn nonempty_senders(&self, to: ProcessId) -> Vec<ProcessId> {
            let Some(srcs) = self.inbound.get(&to) else {
                return Vec::new();
            };
            srcs.iter()
                .filter(|src| {
                    self.channels
                        .get(&(*src, to))
                        .map(|ch| !ch.is_empty())
                        .unwrap_or(false)
                })
                .collect()
        }

        /// One delivery visit over `senders`, the non-empty links into `to`
        /// in ascending order: shuffled, drained in that order up to `limit`
        /// packets, and the earliest round a packet left behind is ready.
        #[allow(clippy::too_many_arguments)]
        fn deliver_from_into(
            &mut self,
            to: ProcessId,
            mut senders: Vec<ProcessId>,
            now: Round,
            limit: usize,
            rng: &mut SimRng,
            metrics: &mut Metrics,
            into: &mut Vec<(ProcessId, M)>,
        ) -> Option<Round> {
            if senders.is_empty() {
                metrics.record_delivery_batch(0);
                return None;
            }
            metrics.record_channel_visits(senders.len());
            rng.shuffle(&mut senders);
            let start = into.len();
            for from in senders.iter().copied() {
                let delivered = into.len() - start;
                if delivered >= limit {
                    break;
                }
                let remaining = limit - delivered;
                if let Some(ch) = self.channels.get_mut(&(from, to)) {
                    for msg in ch.drain_ready(now, remaining, rng) {
                        metrics.record_delivery();
                        into.push((from, msg));
                    }
                }
            }
            metrics.record_delivery_batch(into.len() - start);
            senders
                .iter()
                .filter_map(|src| self.channels.get(&(*src, to)))
                .filter_map(RefChannel::earliest_ready)
                .min()
        }

        /// Finds the senders by a scan of the whole map.
        pub fn deliver_due(
            &mut self,
            to: ProcessId,
            now: Round,
            limit: usize,
            rng: &mut SimRng,
            metrics: &mut Metrics,
        ) -> (Vec<(ProcessId, M)>, Option<Round>) {
            let senders: Vec<ProcessId> = self
                .channels
                .iter()
                .filter(|((_, dst), ch)| *dst == to && !ch.is_empty())
                .map(|((src, _), _)| *src)
                .collect();
            let mut delivered = Vec::new();
            let next_ready =
                self.deliver_from_into(to, senders, now, limit, rng, metrics, &mut delivered);
            (delivered, next_ready)
        }

        /// Finds the senders through the inbound index.
        pub fn deliver_due_into(
            &mut self,
            to: ProcessId,
            now: Round,
            limit: usize,
            rng: &mut SimRng,
            metrics: &mut Metrics,
            into: &mut Vec<(ProcessId, M)>,
        ) -> Option<Round> {
            let senders = self.nonempty_senders(to);
            self.deliver_from_into(to, senders, now, limit, rng, metrics, into)
        }

        pub fn take_dirty(&mut self) -> BTreeSet<ProcessId> {
            std::mem::take(&mut self.dirty)
        }

        pub fn inject(&mut self, from: ProcessId, to: ProcessId, msg: M) {
            self.channel_entry(from, to).inject(msg);
            self.inbound.entry(to).or_default().insert(from);
            self.dirty.insert(to);
        }

        pub fn clear_channel(&mut self, from: ProcessId, to: ProcessId) {
            if let Some(ch) = self.channels.get_mut(&(from, to)) {
                ch.clear();
            }
            if let Some(srcs) = self.inbound.get_mut(&to) {
                srcs.remove(from);
            }
        }

        pub fn clear_all(&mut self) {
            for ch in self.channels.values_mut() {
                ch.clear();
            }
            self.inbound.clear();
        }

        pub fn in_flight_total(&self) -> usize {
            self.channels.values().map(RefChannel::len).sum()
        }

        pub fn channel(&self, from: ProcessId, to: ProcessId) -> Option<&RefChannel<M>> {
            self.channels.get(&(from, to))
        }

        pub fn channel_mut(&mut self, from: ProcessId, to: ProcessId) -> &mut RefChannel<M> {
            self.inbound.entry(to).or_default().insert(from);
            self.dirty.insert(to);
            self.channel_entry(from, to)
        }

        pub fn links(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
            self.channels.keys().copied()
        }

        pub fn earliest_inbound_ready(&self, to: ProcessId) -> Option<Round> {
            self.channels
                .iter()
                .filter(|((_, dst), _)| *dst == to)
                .filter_map(|(_, ch)| ch.earliest_ready())
                .min()
        }

        pub fn corrupt_inbound_payloads(
            &mut self,
            to: ProcessId,
            mutate: impl FnOnce(&mut [&mut M]),
        ) -> usize {
            let mut payloads: Vec<&mut M> = self
                .channels
                .iter_mut()
                .filter(|((_, dst), _)| *dst == to)
                .flat_map(|(_, ch)| ch.in_flight_mut())
                .collect();
            let touched = payloads.len();
            if touched > 0 {
                mutate(&mut payloads);
                self.dirty.insert(to);
            }
            touched
        }
    }

    /// Builds a policy from the raw tuple the property test draws.
    pub fn policy(
        (capacity, loss, dup, delay, reorder): (usize, f64, f64, u64, bool),
    ) -> ChannelPolicy {
        ChannelPolicy {
            capacity,
            loss_probability: loss,
            duplication_probability: dup,
            max_delay_rounds: delay,
            reorder,
        }
    }

    /// The identifiers the ops range over: few, so that ops collide on the
    /// same links, and two of them on either side of the dense limit — the
    /// largest inline sender and one far into the spill.
    fn id(raw: u8) -> ProcessId {
        match raw {
            6 => ProcessId::new(PeerTable::<()>::DENSE_LIMIT - 1),
            7 => ProcessId::new(u32::MAX - 3),
            raw => ProcessId::new(u32::from(raw)),
        }
    }

    /// The link a share of the sends, deliveries and white-box accesses is
    /// steered onto, so that it fills up and evicts between deliveries, and
    /// evictions are still pending when a white-box entry reads the link.
    const BUSY: (u8, u8) = (1, 2);

    /// One step of the random interleaving the equivalence property drives
    /// through both networks.
    #[derive(Debug, Clone)]
    pub enum Op {
        Send(ProcessId, ProcessId, u32),
        /// A send whose payload is shared with a live sibling handle (a
        /// broadcast), so delivery takes the clone path.
        SendShared(ProcessId, ProcessId, u32),
        Inject(ProcessId, ProcessId, u32),
        /// White-box channel access: creates the channel, marks `to` dirty,
        /// and corrupts whatever is in flight.
        ChannelMut(ProcessId, ProcessId, u32),
        Block(ProcessId, ProcessId),
        Unblock(ProcessId, ProcessId),
        /// Partition `{a}` from `{b, b+1}`.
        Split(ProcessId, ProcessId),
        Heal,
        ClearChannel(ProcessId, ProcessId),
        ClearAll,
        SetPolicy(ChannelPolicy),
        DeliverDue(ProcessId, usize),
        /// The allocating delivery, [`Network::deliver_due`].
        Deliver(ProcessId, usize),
        Corrupt(ProcessId, u32),
        TakeDirty,
        Advance(u64),
    }

    impl Op {
        /// Decodes one raw `(selector, a, b, value)` tuple.
        pub fn decode(&(sel, a, b, value): &(u8, u8, u8, u32)) -> Op {
            let (from, to) = (id(a), id(b));
            let due_limit = (value % 5) as usize * (value % 3) as usize;
            match sel {
                0..=2 => Op::Send(id(BUSY.0), id(BUSY.1), value),
                3..=7 => Op::Send(from, to, value),
                8..=11 => Op::SendShared(from, to, value),
                12 => Op::DeliverDue(id(BUSY.1), due_limit),
                13..=15 => Op::DeliverDue(to, due_limit),
                16..=18 => Op::Deliver(to, (value % 7) as usize),
                19 => Op::Inject(from, to, value),
                20 => Op::ChannelMut(from, to, value % 49 + 1),
                21 => Op::Block(from, to),
                22 => Op::Unblock(from, to),
                23 => Op::Split(from, to),
                24 => Op::Heal,
                25 => Op::ClearChannel(from, to),
                26 => Op::ClearAll,
                27 => Op::SetPolicy(policy((
                    (value % 12) as usize + 1,
                    f64::from(a) / 24.0,
                    f64::from(b) / 24.0,
                    u64::from(value % 4),
                    value % 2 == 0,
                ))),
                28 => Op::Corrupt(to, value % 49 + 1),
                29 => Op::TakeDirty,
                30..=31 => Op::Advance(u64::from(value % 3)),
                32..=35 => Op::Send(id(BUSY.0), id(BUSY.1), value),
                36 => Op::ChannelMut(id(BUSY.0), id(BUSY.1), value % 49 + 1),
                37 => Op::Corrupt(id(BUSY.1), value % 49 + 1),
                38 => Op::ClearChannel(id(BUSY.0), id(BUSY.1)),
                _ => Op::Inject(id(BUSY.0), id(BUSY.1), value),
            }
        }
    }

    pub fn check_equivalence(policy: ChannelPolicy, ops: &[Op], seed: u64) {
        let mut rows: Network<u32> = Network::new(policy.clone());
        let mut oracle: RefNetwork<u32> = RefNetwork::new(policy);
        let (mut rows_rng, mut oracle_rng) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        let (mut rows_metrics, mut oracle_metrics) = (Metrics::new(), Metrics::new());
        // Live sibling handles of `SendShared` payloads, with the value each
        // was created with: they must never observe corruption.
        let mut siblings: Vec<(u32, Payload<u32>)> = Vec::new();
        let mut now = Round::ZERO;
        for op in ops {
            match op {
                Op::Send(from, to, m) => {
                    let got = rows.send_payload(
                        *from,
                        *to,
                        Payload::owned(*m),
                        now,
                        &mut rows_rng,
                        &mut rows_metrics,
                    );
                    let want = oracle.send_payload(
                        *from,
                        *to,
                        Payload::owned(*m),
                        now,
                        &mut oracle_rng,
                        &mut oracle_metrics,
                    );
                    prop_assert_eq!(got, want);
                }
                Op::SendShared(from, to, m) => {
                    let mut fan = Payload::fan_out(*m, 3);
                    siblings.push((*m, fan.next()));
                    let got = rows.send_payload(
                        *from,
                        *to,
                        fan.next(),
                        now,
                        &mut rows_rng,
                        &mut rows_metrics,
                    );
                    let want = oracle.send_payload(
                        *from,
                        *to,
                        fan.next(),
                        now,
                        &mut oracle_rng,
                        &mut oracle_metrics,
                    );
                    prop_assert_eq!(got, want);
                }
                Op::Inject(from, to, m) => {
                    rows.inject(*from, *to, *m);
                    oracle.inject(*from, *to, *m);
                }
                Op::ChannelMut(from, to, delta) => {
                    for packet in rows.in_flight_mut(*from, *to) {
                        *packet.msg_mut() += delta;
                    }
                    for m in oracle.channel_mut(*from, *to).in_flight_mut() {
                        *m += delta;
                    }
                }
                Op::Block(from, to) => {
                    rows.block_link(*from, *to);
                    oracle.block_link(*from, *to);
                }
                Op::Unblock(from, to) => {
                    rows.unblock_link(*from, *to);
                    oracle.unblock_link(*from, *to);
                }
                Op::Split(a, b) => {
                    let groups = [
                        vec![*a],
                        vec![*b, ProcessId::new(b.as_u32().wrapping_add(1))],
                    ];
                    rows.split_into(&groups);
                    oracle.split_into(&groups);
                }
                Op::Heal => {
                    rows.heal_all_links();
                    oracle.heal_all_links();
                }
                Op::ClearChannel(from, to) => {
                    rows.clear_channel(*from, *to);
                    oracle.clear_channel(*from, *to);
                }
                Op::ClearAll => {
                    rows.clear_all();
                    oracle.clear_all();
                }
                Op::SetPolicy(policy) => {
                    rows.set_policy(policy.clone());
                    oracle.set_policy(policy.clone());
                }
                Op::DeliverDue(to, limit) => {
                    let (mut got, mut want) = (vec![(*to, 0)], vec![(*to, 0)]);
                    let got_next = rows.deliver_due_into(
                        *to,
                        now,
                        *limit,
                        &mut rows_rng,
                        &mut rows_metrics,
                        &mut got,
                    );
                    let want_next = oracle.deliver_due_into(
                        *to,
                        now,
                        *limit,
                        &mut oracle_rng,
                        &mut oracle_metrics,
                        &mut want,
                    );
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(got_next, want_next);
                }
                Op::Deliver(to, limit) => {
                    let got = rows.deliver_due(*to, now, *limit, &mut rows_rng, &mut rows_metrics);
                    let want =
                        oracle.deliver_due(*to, now, *limit, &mut oracle_rng, &mut oracle_metrics);
                    prop_assert_eq!(got, want);
                }
                Op::Corrupt(to, delta) => {
                    // Position-dependent, so a different payload order shows.
                    let mutate = |payloads: &mut [&mut u32]| {
                        for (i, m) in payloads.iter_mut().enumerate() {
                            **m = m.wrapping_mul(i as u32 + 2).wrapping_add(*delta);
                        }
                    };
                    let got = rows.corrupt_inbound_payloads(*to, mutate);
                    let want = oracle.corrupt_inbound_payloads(*to, mutate);
                    prop_assert_eq!(got, want);
                }
                Op::TakeDirty => prop_assert_eq!(rows.take_dirty(), oracle.take_dirty()),
                Op::Advance(by) => now += *by,
            }
            prop_assert_eq!(&rows_metrics, &oracle_metrics);
            prop_assert_eq!(rows.in_flight_total(), oracle.in_flight_total());
            prop_assert!(rows.links().eq(oracle.links()));
            for (from, to) in oracle.links() {
                let got: Vec<(u32, Round)> = rows
                    .channel(from, to)
                    .into_iter()
                    .flat_map(|ch| ch.in_flight().map(|p| (*p.msg(), p.ready_at)))
                    .collect();
                let want: Vec<(u32, Round)> = oracle
                    .channel(from, to)
                    .map_or_else(Vec::new, RefChannel::packets);
                prop_assert_eq!(got, want);
            }
            for to in (0..8).map(id) {
                prop_assert_eq!(
                    rows.earliest_inbound_ready(to),
                    oracle.earliest_inbound_ready(to)
                );
            }
            // Copy-on-write: corruption never leaks into broadcast siblings.
            prop_assert!(siblings.iter().all(|(v, p)| p.get() == v));
        }
        prop_assert_eq!(rows.take_dirty(), oracle.take_dirty());
        prop_assert_eq!(rows_rng.next_u64(), oracle_rng.next_u64());
    }
}
