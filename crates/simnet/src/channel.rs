//! Bounded-capacity, unreliable communication channels.
//!
//! Section 2 of the paper: links have a bounded capacity `cap`; packets may
//! be lost, reordered or duplicated, but never created out of thin air
//! (except that after a transient fault a channel may hold stale packets —
//! modelled here through [`Channel::inject`]). Fair communication holds: a
//! packet sent infinitely often is received infinitely often, which the
//! probabilistic loss model guarantees with probability one for any loss
//! probability below one.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::payload::Payload;
use crate::rng::SimRng;
use crate::time::Round;

/// Behavioural parameters of a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPolicy {
    /// Maximum number of packets the channel can hold (`cap` in the paper).
    pub capacity: usize,
    /// Probability that a packet is dropped on send.
    pub loss_probability: f64,
    /// Probability that a packet is duplicated on send.
    pub duplication_probability: f64,
    /// Maximum extra delivery delay, in rounds, added uniformly at random.
    pub max_delay_rounds: u64,
    /// Whether ready packets may be delivered out of order.
    pub reorder: bool,
}

impl Default for ChannelPolicy {
    fn default() -> Self {
        ChannelPolicy {
            capacity: 16,
            loss_probability: 0.0,
            duplication_probability: 0.0,
            max_delay_rounds: 1,
            reorder: false,
        }
    }
}

/// A packet travelling through a channel together with its earliest delivery
/// round.
///
/// The payload may be shared with other packets (broadcast fan-out, channel
/// duplication); read it through [`InFlight::msg`] and mutate it through the
/// copy-on-write [`InFlight::msg_mut`]. The slot itself lives in the
/// channel's `VecDeque` ring buffer, which doubles as the free-list: once the
/// ring has reached its high-water mark, enqueue/evict/deliver reuse slots
/// without touching the allocator (only [`Channel::clear`] releases the
/// ring).
#[derive(Debug, Clone, PartialEq)]
pub struct InFlight<M> {
    /// The payload — owned, or one handle to an allocation shared with other
    /// packets.
    payload: Payload<M>,
    /// The first round at which the packet may be delivered.
    pub ready_at: Round,
}

impl<M> InFlight<M> {
    /// A packet deliverable from `ready_at` on (for [`crate::Network`]'s
    /// rows, which hold their packets themselves).
    pub(crate) fn new(payload: Payload<M>, ready_at: Round) -> Self {
        InFlight { payload, ready_at }
    }

    /// A shared view of the payload.
    pub fn msg(&self) -> &M {
        self.payload.get()
    }
}

impl<M: Clone> InFlight<M> {
    /// Mutable access to the payload, copy-on-write: corrupting a packet
    /// whose payload is shared un-shares it first, so the mutation never
    /// aliases into other packets.
    pub fn msg_mut(&mut self) -> &mut M {
        self.payload.make_mut()
    }

    /// Delivery: the message by value, as [`Payload::into_msg`] yields it.
    pub(crate) fn into_msg(self) -> M {
        self.payload.into_msg()
    }
}

/// What happened to a packet handed to [`Channel::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The packet was placed in the channel.
    Enqueued,
    /// The packet was dropped by the lossy link.
    Lost,
    /// The packet was enqueued and a duplicate was enqueued as well.
    Duplicated,
    /// The channel was full; an old packet was evicted to make room
    /// (the paper allows either the new or an old packet to be lost when the
    /// capacity is exceeded).
    EvictedOld,
}

/// A unidirectional channel between an ordered pair of processors.
///
/// ```
/// use simnet::{Channel, ChannelPolicy, SimRng, Round};
/// let mut ch: Channel<&'static str> = Channel::new(ChannelPolicy::default());
/// let mut rng = SimRng::seed_from(1);
/// ch.send("hello", Round::ZERO, &mut rng);
/// let delivered = ch.drain_ready(Round::new(10), usize::MAX, &mut rng);
/// assert_eq!(delivered, vec!["hello"]);
/// ```
#[derive(Debug, Clone)]
pub struct Channel<M> {
    /// Shared, never mutated in place: a [`crate::Network`] hands all of its
    /// channels the one policy it holds, so the lines every send and
    /// delivery touches carry a pointer instead of a copy per channel.
    policy: Arc<ChannelPolicy>,
    queue: VecDeque<InFlight<M>>,
}

impl<M: Clone> Channel<M> {
    /// Creates an empty channel with the given policy.
    pub fn new(policy: ChannelPolicy) -> Self {
        Channel::with_shared_policy(Arc::new(policy))
    }

    /// Creates an empty channel following a policy held elsewhere.
    pub(crate) fn with_shared_policy(policy: Arc<ChannelPolicy>) -> Self {
        Channel {
            policy,
            queue: VecDeque::new(),
        }
    }

    /// Number of packets currently in flight.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when no packet is in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The channel policy.
    pub fn policy(&self) -> &ChannelPolicy {
        &self.policy
    }

    /// Replaces the channel policy. Packets already in flight keep the
    /// delivery rounds they were assigned on send; only subsequent sends
    /// (and reordering decisions) follow the new policy. Scenario-driven
    /// loss/delay spikes use this through [`crate::Network::set_policy`].
    pub fn set_policy(&mut self, policy: ChannelPolicy) {
        self.set_shared_policy(Arc::new(policy));
    }

    /// [`Channel::set_policy`] with a policy held elsewhere.
    pub(crate) fn set_shared_policy(&mut self, policy: Arc<ChannelPolicy>) {
        self.policy = policy;
    }

    /// Sends a packet at round `now`, applying loss, duplication, bounded
    /// capacity and random delay according to the policy.
    pub fn send(&mut self, msg: M, now: Round, rng: &mut SimRng) -> SendOutcome {
        self.send_timed(msg, now, rng).0
    }

    /// Like [`Channel::send`], additionally reporting the earliest delivery
    /// round of the packet(s) just enqueued (`None` when the packet was
    /// lost). The event-driven scheduler uses this to wake the destination
    /// exactly when the packet becomes deliverable.
    pub fn send_timed(
        &mut self,
        msg: M,
        now: Round,
        rng: &mut SimRng,
    ) -> (SendOutcome, Option<Round>) {
        self.send_payload_timed(Payload::owned(msg), now, rng)
    }

    /// The payload-level form of [`Channel::send_timed`]: broadcasts hand
    /// every destination one handle to a shared payload instead of a deep
    /// clone. Loss drops the payload without ever copying it; duplication
    /// promotes it to shared and enqueues a second handle. RNG draw order is
    /// loss → duplication → per-enqueue delay, identical for owned and
    /// shared payloads.
    pub fn send_payload_timed(
        &mut self,
        payload: Payload<M>,
        now: Round,
        rng: &mut SimRng,
    ) -> (SendOutcome, Option<Round>) {
        if rng.chance(self.policy.loss_probability) {
            return (SendOutcome::Lost, None);
        }
        let duplicated = rng.chance(self.policy.duplication_probability);
        if duplicated {
            let (first, dup) = payload.split();
            let (_, first_ready) = self.enqueue(first, now, rng, SendOutcome::Enqueued);
            let (dup_outcome, dup_ready) = self.enqueue(dup, now, rng, SendOutcome::Duplicated);
            return (dup_outcome, Some(first_ready.min(dup_ready)));
        }
        let (outcome, ready) = self.enqueue(payload, now, rng, SendOutcome::Enqueued);
        (outcome, Some(ready))
    }

    fn enqueue(
        &mut self,
        payload: Payload<M>,
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
        let packet = InFlight { payload, ready_at };
        if self.queue.len() >= self.policy.capacity {
            // Bounded capacity: evict the oldest in-flight packet.
            self.queue.pop_front();
            self.queue.push_back(packet);
            (SendOutcome::EvictedOld, ready_at)
        } else {
            self.queue.push_back(packet);
            (ok, ready_at)
        }
    }

    /// The earliest round at which any in-flight packet becomes deliverable.
    pub fn earliest_ready(&self) -> Option<Round> {
        self.queue.iter().map(|p| p.ready_at).min()
    }

    /// Places a packet directly into the channel, bypassing loss and delay.
    ///
    /// This models the *stale packets* a channel may contain after a
    /// transient fault. The bounded capacity is still enforced.
    pub fn inject(&mut self, msg: M) {
        if self.queue.len() >= self.policy.capacity {
            self.queue.pop_front();
        }
        self.queue.push_back(InFlight {
            payload: Payload::owned(msg),
            ready_at: Round::ZERO,
        });
    }

    /// Removes and returns up to `limit` packets whose delivery round has
    /// been reached. When the policy enables reordering, ready packets are
    /// drawn in random order; otherwise FIFO order among ready packets is
    /// preserved.
    pub fn drain_ready(&mut self, now: Round, limit: usize, rng: &mut SimRng) -> Vec<M> {
        let mut delivered = Vec::new();
        self.drain_ready_with(now, limit, rng, |msg| delivered.push(msg));
        delivered
    }

    /// Allocation-free form of [`Channel::drain_ready`]: each delivered
    /// payload is handed to `sink` instead of collected into a fresh vector.
    /// Returns the number of packets delivered. Draws from the RNG exactly
    /// as [`Channel::drain_ready`] does (one pick per packet, only under
    /// reordering), so executions are unchanged.
    pub fn drain_ready_with(
        &mut self,
        now: Round,
        limit: usize,
        rng: &mut SimRng,
        mut sink: impl FnMut(M),
    ) -> usize {
        let mut delivered = 0usize;
        if !self.policy.reorder {
            // FIFO among ready packets: repeatedly remove the frontmost
            // ready one. No index list, no RNG draw.
            while delivered < limit {
                let Some(pick) = self.queue.iter().position(|p| p.ready_at <= now) else {
                    break;
                };
                let packet = self.queue.remove(pick).expect("index is valid");
                sink(packet.payload.into_msg());
                delivered += 1;
            }
        } else {
            let mut ready: Vec<usize> = Vec::new();
            while delivered < limit {
                ready.clear();
                ready.extend(
                    self.queue
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.ready_at <= now)
                        .map(|(i, _)| i),
                );
                if ready.is_empty() {
                    break;
                }
                let pick = *rng.choose(&ready).expect("ready is non-empty");
                let packet = self.queue.remove(pick).expect("index is valid");
                sink(packet.payload.into_msg());
                delivered += 1;
            }
        }
        delivered
    }

    /// Discards every packet in flight (used by the snap-stabilizing data
    /// link's cleaning phase and by fault injection helpers).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Immutable view of the in-flight packets (used by tests and by the
    /// white-box stale-information checks of the benchmark harness).
    pub fn in_flight(&self) -> impl Iterator<Item = &InFlight<M>> {
        self.queue.iter()
    }

    /// Mutable access to in-flight packets, allowing fault injectors to
    /// corrupt channel contents in place.
    pub fn in_flight_mut(&mut self) -> impl Iterator<Item = &mut InFlight<M>> {
        self.queue.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    #[test]
    fn fifo_delivery_without_reordering() {
        let mut ch = Channel::new(ChannelPolicy {
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        for i in 0..5u32 {
            ch.send(i, Round::ZERO, &mut r);
        }
        let out = ch.drain_ready(Round::ZERO, usize::MAX, &mut r);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(ch.is_empty());
    }

    #[test]
    fn delay_withholds_delivery_until_ready() {
        let mut ch = Channel::new(ChannelPolicy {
            max_delay_rounds: 5,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        ch.send(7u32, Round::ZERO, &mut r);
        // Not necessarily ready at round 0, but must be ready by round 5.
        let early = ch.drain_ready(Round::ZERO, usize::MAX, &mut r).len();
        let late = ch.drain_ready(Round::new(5), usize::MAX, &mut r).len();
        assert_eq!(early + late, 1);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut ch = Channel::new(ChannelPolicy {
            capacity: 3,
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        for i in 0..10u32 {
            ch.send(i, Round::ZERO, &mut r);
        }
        assert_eq!(ch.len(), 3);
        let out = ch.drain_ready(Round::ZERO, usize::MAX, &mut r);
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut ch = Channel::new(ChannelPolicy {
            loss_probability: 1.0,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        for i in 0..10u32 {
            assert_eq!(ch.send(i, Round::ZERO, &mut r), SendOutcome::Lost);
        }
        assert!(ch.is_empty());
    }

    #[test]
    fn duplication_creates_two_copies() {
        let mut ch = Channel::new(ChannelPolicy {
            duplication_probability: 1.0,
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        ch.send(1u32, Round::ZERO, &mut r);
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn inject_bypasses_loss_and_delay() {
        let mut ch = Channel::new(ChannelPolicy {
            loss_probability: 1.0,
            max_delay_rounds: 10,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        ch.inject(99u32);
        let out = ch.drain_ready(Round::ZERO, usize::MAX, &mut r);
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn reordering_still_delivers_every_packet() {
        let mut ch = Channel::new(ChannelPolicy {
            reorder: true,
            max_delay_rounds: 0,
            capacity: 64,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        for i in 0..20u32 {
            ch.send(i, Round::ZERO, &mut r);
        }
        let mut out = ch.drain_ready(Round::ZERO, usize::MAX, &mut r);
        out.sort_unstable();
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn drain_limit_is_respected() {
        let mut ch = Channel::new(ChannelPolicy {
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        for i in 0..6u32 {
            ch.send(i, Round::ZERO, &mut r);
        }
        let first = ch.drain_ready(Round::ZERO, 2, &mut r);
        assert_eq!(first, vec![0, 1]);
        assert_eq!(ch.len(), 4);
    }

    #[test]
    fn clear_discards_in_flight() {
        let mut ch = Channel::new(ChannelPolicy::default());
        let mut r = rng();
        ch.send(1u32, Round::ZERO, &mut r);
        ch.clear();
        assert!(ch.is_empty());
    }

    #[test]
    fn fair_communication_under_heavy_loss() {
        // A packet retransmitted repeatedly over a very lossy link is
        // eventually delivered: the probabilistic analogue of the paper's
        // fair communication assumption.
        let mut ch = Channel::new(ChannelPolicy {
            loss_probability: 0.9,
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        let mut r = rng();
        let mut delivered = false;
        for attempt in 0..1000u64 {
            ch.send(1u32, Round::new(attempt), &mut r);
            if !ch
                .drain_ready(Round::new(attempt), usize::MAX, &mut r)
                .is_empty()
            {
                delivered = true;
                break;
            }
        }
        assert!(delivered);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The channel never exceeds its capacity and never invents packets.
        #[test]
        fn capacity_is_never_exceeded(
            cap in 1usize..16,
            sends in proptest::collection::vec(0u32..1000, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let mut ch = Channel::new(ChannelPolicy {
                capacity: cap,
                loss_probability: 0.1,
                duplication_probability: 0.1,
                max_delay_rounds: 2,
                reorder: true,
            });
            let mut rng = SimRng::seed_from(seed);
            let mut sent = std::collections::HashSet::new();
            for (i, m) in sends.iter().enumerate() {
                sent.insert(*m);
                ch.send(*m, Round::new(i as u64), &mut rng);
                prop_assert!(ch.len() <= cap);
            }
            let delivered = ch.drain_ready(Round::new(10_000), usize::MAX, &mut rng);
            for m in delivered {
                prop_assert!(sent.contains(&m), "channel created packet {m}");
            }
        }

        /// The shared-payload channel is observationally identical to the
        /// pre-arena owned reference implementation: same `SendOutcome`s,
        /// same delivered sequences, same in-flight contents, across random
        /// policies (loss/duplication/delay/reorder/capacity eviction) and
        /// random interleavings of sends, shared-payload sends, drains,
        /// injections, corruption and clears.
        #[test]
        fn arena_channel_matches_owned_reference(
            raw_policy in (1usize..12, 0.0f64..0.4, 0.0f64..0.4, 0u64..4, any::<bool>()),
            raw_ops in proptest::collection::vec((0u8..16, 0u32..1000, 0u64..8), 0..120),
            seed in 0u64..u64::MAX,
        ) {
            let (capacity, loss, dup, delay, reorder) = raw_policy;
            let policy = ChannelPolicy {
                capacity,
                loss_probability: loss,
                duplication_probability: dup,
                max_delay_rounds: delay,
                reorder,
            };
            let ops: Vec<reference::Op> = raw_ops.iter().map(reference::Op::decode).collect();
            reference::check_equivalence(policy, &ops, seed);
        }

        /// Without loss, duplication or eviction pressure every packet sent is
        /// eventually delivered exactly once.
        #[test]
        fn reliable_channel_delivers_exactly_once(
            sends in proptest::collection::vec(0u32..1000, 0..64),
            seed in 0u64..u64::MAX,
        ) {
            let mut ch = Channel::new(ChannelPolicy {
                capacity: 1024,
                loss_probability: 0.0,
                duplication_probability: 0.0,
                max_delay_rounds: 3,
                reorder: false,
            });
            let mut rng = SimRng::seed_from(seed);
            for m in &sends {
                ch.send(*m, Round::ZERO, &mut rng);
            }
            let delivered = ch.drain_ready(Round::new(100), usize::MAX, &mut rng);
            prop_assert_eq!(delivered, sends);
        }
    }
}

/// The pre-arena channel, transcribed verbatim: an owned `VecDeque<(M, Round)>`
/// with the historical clone-per-send path. It exists only as the oracle for
/// the `arena_channel_matches_owned_reference` property above.
#[cfg(test)]
mod reference {
    use super::*;
    use proptest::prelude::*;

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

        pub fn send_timed(
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

        pub fn inject(&mut self, msg: M) {
            if self.queue.len() >= self.policy.capacity {
                self.queue.pop_front();
            }
            self.queue.push_back((msg, Round::ZERO));
        }

        pub fn drain_ready(&mut self, now: Round, limit: usize, rng: &mut SimRng) -> Vec<M> {
            let mut delivered = Vec::new();
            if !self.policy.reorder {
                while delivered.len() < limit {
                    let Some(pick) = self.queue.iter().position(|(_, r)| *r <= now) else {
                        break;
                    };
                    delivered.push(self.queue.remove(pick).expect("index is valid").0);
                }
            } else {
                let mut ready: Vec<usize> = Vec::new();
                while delivered.len() < limit {
                    ready.clear();
                    ready.extend(
                        self.queue
                            .iter()
                            .enumerate()
                            .filter(|(_, (_, r))| *r <= now)
                            .map(|(i, _)| i),
                    );
                    if ready.is_empty() {
                        break;
                    }
                    let pick = *rng.choose(&ready).expect("ready is non-empty");
                    delivered.push(self.queue.remove(pick).expect("index is valid").0);
                }
            }
            delivered
        }

        pub fn clear(&mut self) {
            self.queue.clear();
        }

        pub fn msgs(&self) -> Vec<M> {
            self.queue.iter().map(|(m, _)| m.clone()).collect()
        }

        pub fn corrupt(&mut self, mut mutate: impl FnMut(&mut M)) {
            for (m, _) in self.queue.iter_mut() {
                mutate(m);
            }
        }
    }

    /// One step of the random interleaving the equivalence property drives
    /// through both channels.
    #[derive(Debug, Clone)]
    pub enum Op {
        /// A plain owned send.
        Send(u32),
        /// A send whose payload is already shared with a live outside handle
        /// (a broadcast sibling), exercising the shared enqueue and the
        /// clone-on-delivery path.
        SendShared(u32),
        /// Drain up to `limit` ready packets.
        Drain { limit: usize },
        /// Out-of-band injection (stale packet after a transient fault).
        Inject(u32),
        /// In-place payload corruption of everything in flight.
        Corrupt(u32),
        /// Discard everything in flight.
        Clear,
        /// Let simulated time pass.
        Advance(u64),
    }

    impl Op {
        /// Decodes one raw `(selector, value, aux)` triple drawn by the
        /// property test into an op, weighting sends most heavily.
        pub fn decode(&(sel, value, aux): &(u8, u32, u64)) -> Op {
            match sel {
                0..=4 => Op::Send(value),
                5..=8 => Op::SendShared(value),
                9..=11 => Op::Drain {
                    limit: aux as usize,
                },
                12 => Op::Inject(value),
                13 => Op::Corrupt(value % 49 + 1),
                14 => Op::Clear,
                _ => Op::Advance(aux % 4),
            }
        }
    }

    pub fn check_equivalence(policy: ChannelPolicy, ops: &[Op], seed: u64) {
        let mut arena: Channel<u32> = Channel::new(policy.clone());
        let mut oracle: RefChannel<u32> = RefChannel::new(policy);
        let mut arena_rng = SimRng::seed_from(seed);
        let mut oracle_rng = SimRng::seed_from(seed);
        // Live sibling handles of `SendShared` payloads (with the value each
        // was created with): they keep the refcount above one so delivery has
        // to take the clone path, and they must never observe corruption.
        let mut siblings: Vec<(u32, Payload<u32>)> = Vec::new();
        let mut now = Round::ZERO;
        for op in ops {
            match op {
                Op::Send(m) => {
                    let got = arena.send_timed(*m, now, &mut arena_rng);
                    let want = oracle.send_timed(*m, now, &mut oracle_rng);
                    prop_assert_eq!(got, want);
                }
                Op::SendShared(m) => {
                    let mut fan = Payload::fan_out(*m, 2);
                    siblings.push((*m, fan.next()));
                    let got = arena.send_payload_timed(fan.next(), now, &mut arena_rng);
                    let want = oracle.send_timed(*m, now, &mut oracle_rng);
                    prop_assert_eq!(got, want);
                }
                Op::Drain { limit } => {
                    let got = arena.drain_ready(now, *limit, &mut arena_rng);
                    let want = oracle.drain_ready(now, *limit, &mut oracle_rng);
                    prop_assert_eq!(got, want);
                }
                Op::Inject(m) => {
                    arena.inject(*m);
                    oracle.inject(*m);
                }
                Op::Corrupt(delta) => {
                    for packet in arena.in_flight_mut() {
                        *packet.msg_mut() += delta;
                    }
                    oracle.corrupt(|m| *m += delta);
                    // Copy-on-write: corruption never leaks into the live
                    // broadcast siblings.
                    prop_assert!(siblings.iter().all(|(v, p)| p.get() == v));
                }
                Op::Clear => {
                    arena.clear();
                    oracle.clear();
                }
                Op::Advance(by) => now += *by,
            }
            let in_flight: Vec<u32> = arena.in_flight().map(|p| *p.msg()).collect();
            prop_assert_eq!(in_flight, oracle.msgs());
        }
    }
}
