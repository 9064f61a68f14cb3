//! The fully connected network: one [`Channel`] per ordered pair of
//! processors.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::channel::{Channel, ChannelPolicy, SendOutcome};
use crate::metrics::Metrics;
use crate::payload::Payload;
use crate::peer_table::PeerTable;
use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::time::Round;

/// Every channel towards one destination: the senders in ascending order
/// and, parallel to them, their channels.
///
/// This is the unit the delivery path works on — a delivery iterates its
/// destination's row directly, a send binary-searches one row — so neither
/// walks a network-wide ordered map. A row only grows: a sender enters it
/// when its channel is created and never leaves (clearing a channel empties
/// it, nothing more), so whether a sender has packets in flight is read off
/// the channel itself, never off row membership, and steady-state sends and
/// deliveries touch the allocator exactly zero times.
#[derive(Debug, Clone)]
struct Row<M> {
    senders: Vec<ProcessId>,
    channels: Vec<Channel<M>>,
}

impl<M> Row<M> {
    fn new() -> Self {
        Row {
            senders: Vec::new(),
            channels: Vec::new(),
        }
    }

    fn channel(&self, from: ProcessId) -> Option<&Channel<M>> {
        let at = self.senders.binary_search(&from).ok()?;
        Some(&self.channels[at])
    }

    fn channel_mut(&mut self, from: ProcessId) -> Option<&mut Channel<M>> {
        let at = self.senders.binary_search(&from).ok()?;
        Some(&mut self.channels[at])
    }
}

/// The collection of unidirectional channels between every ordered pair of
/// processors. Channels are created lazily when first used, so the network
/// grows as processors join.
///
/// Individual links can be *blocked* to model network partitions: packets
/// sent over a blocked link are silently dropped (and counted as lost) until
/// the link is unblocked. Packets already in flight when the link is blocked
/// stay in the channel and are delivered once the partition heals, matching
/// the paper's model in which channels keep their (bounded) contents across
/// connectivity changes.
#[derive(Debug, Clone)]
pub struct Network<M> {
    /// The one policy every channel of this network points at.
    policy: Arc<ChannelPolicy>,
    /// The channels, destination-major: one [`Row`] per destination, indexed
    /// by the destination's identifier.
    rows: PeerTable<Row<M>>,
    /// Number of channels across all rows.
    link_count: usize,
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Destinations whose incoming channels were mutated outside the normal
    /// send path (injection, white-box channel access). The scheduler drains
    /// this to wake the affected processes.
    dirty: BTreeSet<ProcessId>,
    /// Scratch list of row positions recycled across deliveries so
    /// steady-state delivery performs no allocation.
    scratch_visit: Vec<usize>,
}

impl<M: Clone> Network<M> {
    /// Creates an empty network whose channels all follow `policy`.
    pub fn new(policy: ChannelPolicy) -> Self {
        Network {
            policy: Arc::new(policy),
            rows: PeerTable::new(),
            link_count: 0,
            blocked: BTreeSet::new(),
            dirty: BTreeSet::new(),
            scratch_visit: Vec::new(),
        }
    }

    /// The shared channel policy.
    pub fn policy(&self) -> &ChannelPolicy {
        &self.policy
    }

    fn channels_mut(&mut self) -> impl Iterator<Item = &mut Channel<M>> + '_ {
        self.rows
            .iter_mut()
            .flat_map(|(_, row)| row.channels.iter_mut())
    }

    /// Replaces the policy of every channel — existing and future. Packets
    /// already in flight keep their assigned delivery rounds. The scenario
    /// engine uses this to model message-drop/duplication/delay *spikes*
    /// (see [`crate::fault::SpikePlan`]); the change is applied at a round
    /// boundary, so executions stay byte-identical across scheduler modes.
    pub fn set_policy(&mut self, policy: ChannelPolicy) {
        let policy = Arc::new(policy);
        for channel in self.channels_mut() {
            channel.set_shared_policy(Arc::clone(&policy));
        }
        self.policy = policy;
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

    /// The channel `from → to`, created (with the current policy) when it
    /// does not exist yet.
    fn channel_entry(&mut self, from: ProcessId, to: ProcessId) -> &mut Channel<M> {
        let row = self.rows.get_or_insert_with(to, Row::new);
        let at = match row.senders.binary_search(&from) {
            Ok(at) => at,
            Err(at) => {
                row.senders.insert(at, from);
                row.channels
                    .insert(at, Channel::with_shared_policy(Arc::clone(&self.policy)));
                self.link_count += 1;
                at
            }
        };
        &mut row.channels[at]
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
        let (outcome, ready) = self
            .channel_entry(from, to)
            .send_payload_timed(payload, now, rng);
        metrics.record_send(outcome);
        ready
    }

    /// The one delivery loop: drains up to `limit` deliverable packets
    /// addressed to `to` into `into`, visiting the non-empty channels of its
    /// row in a random interleaving of senders (shuffled from ascending
    /// sender order). Returns the number of channels visited and the earliest
    /// round at which `to` has another deliverable packet.
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
        let visit = &mut self.scratch_visit;
        visit.clear();
        visit.extend(
            row.channels
                .iter()
                .enumerate()
                .filter(|(_, ch)| !ch.is_empty())
                .map(|(at, _)| at),
        );
        rng.shuffle(visit);
        let start = into.len();
        for &at in visit.iter() {
            let delivered = into.len() - start;
            if delivered >= limit {
                break;
            }
            let from = row.senders[at];
            row.channels[at].drain_ready_with(now, limit - delivered, rng, |msg| {
                metrics.record_delivery();
                into.push((from, msg));
            });
        }
        metrics.record_delivery_batch(into.len() - start);
        // Earliest next delivery among the packets still in flight to `to`.
        let next_ready = visit
            .iter()
            .filter_map(|&at| row.channels[at].earliest_ready())
            .min();
        (visit.len(), next_ready)
    }

    /// Drains up to `limit` deliverable packets addressed to `to`, across all
    /// of its incoming channels, in a random interleaving of senders.
    ///
    /// Returns `(from, msg)` pairs.
    ///
    /// This is the round-scan baseline's entry point. It delivers exactly
    /// what [`Network::deliver_due`] delivers; what it keeps of the
    /// historical whole-network scan is the cost accounting — every call is
    /// charged one pass over all channels in `metrics`.
    pub fn deliver_to(
        &mut self,
        to: ProcessId,
        now: Round,
        limit: usize,
        rng: &mut SimRng,
        metrics: &mut Metrics,
    ) -> Vec<(ProcessId, M)> {
        metrics.record_channel_scan(self.link_count);
        let mut delivered = Vec::new();
        self.deliver_row_into(to, now, limit, rng, metrics, &mut delivered);
        delivered
    }

    /// Event-driven variant of [`Network::deliver_to`]: charged only for the
    /// channels it visits, and additionally returns the earliest round at
    /// which `to` has another deliverable packet (so the scheduler can
    /// re-wake it then).
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
    /// destinations whose inbound channels were touched through the white-box
    /// APIs ([`Network::inject`], [`Network::channel_mut`]). The scheduler
    /// wakes these processes on the next round so out-of-band packets are
    /// still delivered under event-driven scheduling.
    pub fn take_dirty(&mut self) -> BTreeSet<ProcessId> {
        std::mem::take(&mut self.dirty)
    }

    /// Places a packet directly into the channel `from → to`, bypassing the
    /// loss/delay model. Models stale channel contents after a transient
    /// fault.
    pub fn inject(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.channel_entry(from, to).inject(msg);
        self.dirty.insert(to);
    }

    /// Discards every packet in flight on the channel `from → to`.
    pub fn clear_channel(&mut self, from: ProcessId, to: ProcessId) {
        if let Some(ch) = self.rows.get_mut(to).and_then(|row| row.channel_mut(from)) {
            ch.clear();
        }
    }

    /// Discards every packet in flight anywhere in the network.
    pub fn clear_all(&mut self) {
        for ch in self.channels_mut() {
            ch.clear();
        }
    }

    /// Total number of packets in flight across all channels.
    pub fn in_flight_total(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|(_, row)| row.channels.iter())
            .map(Channel::len)
            .sum()
    }

    /// Immutable access to the channel `from → to`, if it exists.
    pub fn channel(&self, from: ProcessId, to: ProcessId) -> Option<&Channel<M>> {
        self.rows.get(to)?.channel(from)
    }

    /// Mutable access to the channel `from → to`, creating it if necessary.
    /// Exposed so fault injectors and white-box tests can corrupt channel
    /// contents. Schedules a wake-up for `to`, whatever the caller goes on to
    /// do with the channel: the delivery path reads emptiness off the channel
    /// itself, so a wake-up that finds nothing deliverable costs nothing.
    pub fn channel_mut(&mut self, from: ProcessId, to: ProcessId) -> &mut Channel<M> {
        self.dirty.insert(to);
        self.channel_entry(from, to)
    }

    /// Iterates over all `(from, to)` pairs that currently have a channel, in
    /// ascending `(from, to)` order.
    pub fn links(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        let mut links: Vec<(ProcessId, ProcessId)> = self
            .rows
            .iter()
            .flat_map(|(to, row)| row.senders.iter().map(move |from| (*from, to)))
            .collect();
        links.sort_unstable();
        links.into_iter()
    }

    /// Number of channels that currently exist.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// The earliest round at which any packet in flight towards `to` becomes
    /// deliverable (the schedulers' due check).
    pub fn earliest_inbound_ready(&self, to: ProcessId) -> Option<Round> {
        self.rows
            .get(to)?
            .channels
            .iter()
            .filter_map(Channel::earliest_ready)
            .min()
    }

    /// [`Network::earliest_inbound_ready`] under the name the round-scan
    /// scheduler calls it by. The whole-network scan it used to perform
    /// survives as cost accounting only: the scheduler charges
    /// [`Network::link_count`] channels to `Metrics::record_channel_scan`
    /// for every call.
    pub fn earliest_inbound_ready_scan(&self, to: ProcessId) -> Option<Round> {
        self.earliest_inbound_ready(to)
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
        let mut payloads: Vec<&mut M> = row
            .channels
            .iter_mut()
            .flat_map(|ch| ch.in_flight_mut())
            .map(|packet| packet.msg_mut())
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

    #[test]
    fn point_to_point_delivery() {
        let p = ids(3);
        let mut net: Network<u32> = Network::new(reliable());
        let mut rng = SimRng::seed_from(1);
        let mut metrics = Metrics::default();
        net.send(p[0], p[1], 10, Round::ZERO, &mut rng, &mut metrics);
        net.send(p[2], p[1], 20, Round::ZERO, &mut rng, &mut metrics);
        let mut got = net.deliver_to(p[1], Round::ZERO, usize::MAX, &mut rng, &mut metrics);
        got.sort();
        assert_eq!(got, vec![(p[0], 10), (p[2], 20)]);
        assert_eq!(metrics.messages_delivered(), 2);
        // Nothing was addressed to p0.
        assert!(net
            .deliver_to(p[0], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
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
            .deliver_to(p[0], Round::ZERO, usize::MAX, &mut rng, &mut metrics)
            .is_empty());
        assert_eq!(
            net.deliver_to(p[1], Round::ZERO, usize::MAX, &mut rng, &mut metrics),
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
            .deliver_to(p[1], Round::new(5), usize::MAX, &mut rng, &mut metrics)
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
        let got = net.deliver_to(p[3], Round::ZERO, 2, &mut rng, &mut metrics);
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
        let mut got = net.deliver_to(p[1], Round::ZERO, usize::MAX, &mut rng, &mut metrics);
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
        assert_eq!(net.earliest_inbound_ready(p[1]), None);
        assert_eq!(net.earliest_inbound_ready_scan(p[1]), None);
        net.send(p[0], p[1], 1, Round::ZERO, &mut rng, &mut metrics);
        net.send(p[2], p[1], 2, Round::ZERO, &mut rng, &mut metrics);
        let indexed = net.earliest_inbound_ready(p[1]);
        assert_eq!(indexed, net.earliest_inbound_ready_scan(p[1]));
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
        let mut got = net.deliver_to(p[2], Round::ZERO, usize::MAX, &mut rng, &mut metrics);
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
            raw_policy in (1usize..6, 0.0f64..0.3, 0.0f64..0.3, 0u64..4, any::<bool>()),
            raw_ops in proptest::collection::vec((0u8..32, 0u8..8, 0u8..8, 0u32..1000), 0..160),
            seed in 0u64..u64::MAX,
        ) {
            let ops: Vec<reference::Op> = raw_ops.iter().map(reference::Op::decode).collect();
            reference::check_equivalence(reference::policy(raw_policy), &ops, seed);
        }
    }
}

/// The network as it was before the destination-major rows, transcribed
/// verbatim: channels in one `BTreeMap` keyed by `(from, to)`, a separate
/// per-destination index of senders that had to agree with it, and a
/// whole-map scan behind `deliver_to`/`earliest_inbound_ready_scan`. It
/// exists only as the oracle for `row_network_matches_ordered_map_reference`.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

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
        channels: BTreeMap<(ProcessId, ProcessId), Channel<M>>,
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

        fn channel_entry(&mut self, from: ProcessId, to: ProcessId) -> &mut Channel<M> {
            let policy = self.policy.clone();
            self.channels
                .entry((from, to))
                .or_insert_with(|| Channel::new(policy))
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
                .send_payload_timed(payload, now, rng);
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

        #[allow(clippy::too_many_arguments)]
        fn drain_senders_into(
            &mut self,
            to: ProcessId,
            senders: &[ProcessId],
            now: Round,
            limit: usize,
            rng: &mut SimRng,
            metrics: &mut Metrics,
            into: &mut Vec<(ProcessId, M)>,
        ) {
            let start = into.len();
            for from in senders.iter().copied() {
                let delivered = into.len() - start;
                if delivered >= limit {
                    break;
                }
                let remaining = limit - delivered;
                if let Some(ch) = self.channels.get_mut(&(from, to)) {
                    ch.drain_ready_with(now, remaining, rng, |msg| {
                        metrics.record_delivery();
                        into.push((from, msg));
                    });
                }
            }
            metrics.record_delivery_batch(into.len() - start);
        }

        pub fn deliver_to(
            &mut self,
            to: ProcessId,
            now: Round,
            limit: usize,
            rng: &mut SimRng,
            metrics: &mut Metrics,
        ) -> Vec<(ProcessId, M)> {
            metrics.record_channel_scan(self.channels.len());
            let mut senders: Vec<ProcessId> = self
                .channels
                .iter()
                .filter(|((_, dst), ch)| *dst == to && !ch.is_empty())
                .map(|((src, _), _)| *src)
                .collect();
            rng.shuffle(&mut senders);
            let mut delivered = Vec::new();
            self.drain_senders_into(to, &senders, now, limit, rng, metrics, &mut delivered);
            delivered
        }

        pub fn deliver_due_into(
            &mut self,
            to: ProcessId,
            now: Round,
            limit: usize,
            rng: &mut SimRng,
            metrics: &mut Metrics,
            into: &mut Vec<(ProcessId, M)>,
        ) -> Option<Round> {
            let mut senders = self.nonempty_senders(to);
            if senders.is_empty() {
                metrics.record_delivery_batch(0);
                return None;
            }
            metrics.record_channel_visits(senders.len());
            rng.shuffle(&mut senders);
            self.drain_senders_into(to, &senders, now, limit, rng, metrics, into);
            let mut next_ready: Option<Round> = None;
            for src in senders.iter().copied() {
                if let Some(ch) = self.channels.get(&(src, to)) {
                    if let Some(r) = ch.earliest_ready() {
                        next_ready = Some(next_ready.map_or(r, |cur: Round| cur.min(r)));
                    }
                }
            }
            next_ready
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
            self.channels.values().map(Channel::len).sum()
        }

        pub fn channel(&self, from: ProcessId, to: ProcessId) -> Option<&Channel<M>> {
            self.channels.get(&(from, to))
        }

        pub fn channel_mut(&mut self, from: ProcessId, to: ProcessId) -> &mut Channel<M> {
            self.inbound.entry(to).or_default().insert(from);
            self.dirty.insert(to);
            self.channel_entry(from, to)
        }

        pub fn links(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
            self.channels.keys().copied()
        }

        pub fn link_count(&self) -> usize {
            self.channels.len()
        }

        pub fn earliest_inbound_ready(&self, to: ProcessId) -> Option<Round> {
            let srcs = self.inbound.get(&to)?;
            srcs.iter()
                .filter_map(|src| self.channels.get(&(src, to)))
                .filter_map(Channel::earliest_ready)
                .min()
        }

        pub fn earliest_inbound_ready_scan(&self, to: ProcessId) -> Option<Round> {
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
                .map(|packet| packet.msg_mut())
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
    /// same channels, and one of them far above the dense limit, so that the
    /// spill path is exercised.
    fn id(raw: u8) -> ProcessId {
        match raw {
            7 => ProcessId::new(u32::MAX - 3),
            raw => ProcessId::new(u32::from(raw)),
        }
    }

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
        DeliverTo(ProcessId, usize),
        Corrupt(ProcessId, u32),
        TakeDirty,
        Advance(u64),
    }

    impl Op {
        /// Decodes one raw `(selector, a, b, value)` tuple.
        pub fn decode(&(sel, a, b, value): &(u8, u8, u8, u32)) -> Op {
            let (from, to) = (id(a), id(b));
            match sel {
                0..=7 => Op::Send(from, to, value),
                8..=11 => Op::SendShared(from, to, value),
                12..=15 => Op::DeliverDue(to, (value % 5) as usize * (value % 3) as usize),
                16..=18 => Op::DeliverTo(to, (value % 7) as usize),
                19 => Op::Inject(from, to, value),
                20 => Op::ChannelMut(from, to, value % 49 + 1),
                21 => Op::Block(from, to),
                22 => Op::Unblock(from, to),
                23 => Op::Split(from, to),
                24 => Op::Heal,
                25 => Op::ClearChannel(from, to),
                26 => Op::ClearAll,
                27 => Op::SetPolicy(policy((
                    (value % 5) as usize + 1,
                    f64::from(a) / 24.0,
                    f64::from(b) / 24.0,
                    u64::from(value % 4),
                    value % 2 == 0,
                ))),
                28 => Op::Corrupt(to, value % 49 + 1),
                29 => Op::TakeDirty,
                _ => Op::Advance(u64::from(value % 3)),
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
                    for packet in rows.channel_mut(*from, *to).in_flight_mut() {
                        *packet.msg_mut() += delta;
                    }
                    for packet in oracle.channel_mut(*from, *to).in_flight_mut() {
                        *packet.msg_mut() += delta;
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
                Op::DeliverTo(to, limit) => {
                    let got = rows.deliver_to(*to, now, *limit, &mut rows_rng, &mut rows_metrics);
                    let want =
                        oracle.deliver_to(*to, now, *limit, &mut oracle_rng, &mut oracle_metrics);
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
            prop_assert_eq!(rows.link_count(), oracle.link_count());
            prop_assert!(rows.links().eq(oracle.links()));
            for (from, to) in oracle.links() {
                let got: Vec<(u32, Round)> = rows
                    .channel(from, to)
                    .into_iter()
                    .flat_map(|ch| ch.in_flight().map(|p| (*p.msg(), p.ready_at)))
                    .collect();
                let want: Vec<(u32, Round)> = oracle
                    .channel(from, to)
                    .into_iter()
                    .flat_map(|ch| ch.in_flight().map(|p| (*p.msg(), p.ready_at)))
                    .collect();
                prop_assert_eq!(got, want);
            }
            for to in (0..8).map(id) {
                let want = oracle.earliest_inbound_ready(to);
                prop_assert_eq!(want, oracle.earliest_inbound_ready_scan(to));
                prop_assert_eq!(rows.earliest_inbound_ready(to), want);
                prop_assert_eq!(rows.earliest_inbound_ready_scan(to), want);
            }
            // Copy-on-write: corruption never leaks into broadcast siblings.
            prop_assert!(siblings.iter().all(|(v, p)| p.get() == v));
        }
        prop_assert_eq!(rows.take_dirty(), oracle.take_dirty());
        prop_assert_eq!(rows_rng.next_u64(), oracle_rng.next_u64());
    }
}
