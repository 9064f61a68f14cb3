//! The link law: what a bounded, unreliable link may do to a packet.
//!
//! Section 2 of the paper: links have a bounded capacity `cap`; packets may
//! be lost, reordered or duplicated, but never created out of thin air
//! (except that after a transient fault a link may hold stale packets —
//! modelled through [`crate::Network::inject`]). Fair communication holds: a
//! packet sent infinitely often is received infinitely often, which the
//! probabilistic loss model guarantees with probability one for any loss
//! probability below one.
//!
//! [`ChannelPolicy`] holds the law's parameters, and every link of a
//! [`crate::Network`] follows it; the packets themselves live in the
//! network's rows. The tests below state the law on one such link.

use crate::payload::Payload;
use crate::time::Round;

/// Behavioural parameters of a link.
///
/// ```
/// use simnet::{ChannelPolicy, Metrics, Network, ProcessId, Round, SimRng};
/// let (from, to) = (ProcessId::new(0), ProcessId::new(1));
/// let mut net: Network<&'static str> = Network::new(ChannelPolicy::default());
/// let (mut rng, mut metrics) = (SimRng::seed_from(1), Metrics::default());
/// net.send(from, to, "hello", Round::ZERO, &mut rng, &mut metrics);
/// let (delivered, next_ready) =
///     net.deliver_due(to, Round::new(10), usize::MAX, &mut rng, &mut metrics);
/// assert_eq!(delivered, vec![(from, "hello")]);
/// assert_eq!(next_ready, None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPolicy {
    /// Maximum number of packets a link can hold (`cap` in the paper).
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

/// A packet in flight on a link, together with its earliest delivery round.
///
/// The payload may be shared with other packets (broadcast fan-out,
/// duplication); read it through [`InFlight::msg`] and mutate it through the
/// copy-on-write [`InFlight::msg_mut`]. Packets live in their destination's
/// row of a [`crate::Network`], which hands them out through
/// [`crate::Network::channel`] and [`crate::Network::in_flight_mut`].
#[derive(Debug, Clone, PartialEq)]
pub struct InFlight<M> {
    /// The payload — owned, or one handle to an allocation shared with other
    /// packets.
    payload: Payload<M>,
    /// The first round at which the packet may be delivered.
    pub ready_at: Round,
}

impl<M> InFlight<M> {
    /// A packet deliverable from `ready_at` on.
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

/// What happened to a packet handed to [`crate::Network::send`], as
/// [`crate::Metrics`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The packet was placed on the link.
    Enqueued,
    /// The packet was dropped by the lossy link.
    Lost,
    /// The packet was enqueued and a duplicate was enqueued as well.
    Duplicated,
    /// The link was full; an old packet was evicted to make room
    /// (the paper allows either the new or an old packet to be lost when the
    /// capacity is exceeded).
    EvictedOld,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metrics, Network, ProcessId, SimRng};

    /// One link, `0 → 1`, of a fresh network: what the tests state the law on.
    pub(super) struct Link {
        net: Network<u32>,
        rng: SimRng,
        metrics: Metrics,
    }

    impl Link {
        fn new(policy: ChannelPolicy) -> Self {
            Link::seeded(policy, 42)
        }

        pub(super) fn seeded(policy: ChannelPolicy, seed: u64) -> Self {
            Link {
                net: Network::new(policy),
                rng: SimRng::seed_from(seed),
                metrics: Metrics::default(),
            }
        }

        fn ends() -> (ProcessId, ProcessId) {
            (ProcessId::new(0), ProcessId::new(1))
        }

        /// Sends `msg` at `now`; `None` when the link lost it.
        pub(super) fn send(&mut self, msg: u32, now: Round) -> Option<Round> {
            let (from, to) = Link::ends();
            let (rng, metrics) = (&mut self.rng, &mut self.metrics);
            self.net.send(from, to, msg, now, rng, metrics)
        }

        fn inject(&mut self, msg: u32) {
            let (from, to) = Link::ends();
            self.net.inject(from, to, msg);
        }

        /// Delivers up to `limit` packets whose round has come by `now`.
        pub(super) fn drain(&mut self, now: Round, limit: usize) -> Vec<u32> {
            let (_, to) = Link::ends();
            let (rng, metrics) = (&mut self.rng, &mut self.metrics);
            let (delivered, _) = self.net.deliver_due(to, now, limit, rng, metrics);
            delivered.into_iter().map(|(_, msg)| msg).collect()
        }

        pub(super) fn len(&self) -> usize {
            self.net.in_flight_total()
        }
    }

    #[test]
    fn fifo_delivery_without_reordering() {
        let mut link = Link::new(ChannelPolicy {
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        for i in 0..5u32 {
            link.send(i, Round::ZERO);
        }
        assert_eq!(link.drain(Round::ZERO, usize::MAX), vec![0, 1, 2, 3, 4]);
        assert_eq!(link.len(), 0);
    }

    #[test]
    fn delay_withholds_delivery_until_ready() {
        let mut link = Link::new(ChannelPolicy {
            max_delay_rounds: 5,
            ..ChannelPolicy::default()
        });
        let ready = link.send(7, Round::ZERO).unwrap();
        assert!(ready <= Round::new(5));
        // Nothing before its round, and by then it is there.
        let early = link.drain(Round::ZERO, usize::MAX).len();
        assert_eq!(early, usize::from(ready == Round::ZERO));
        let late = link.drain(Round::new(5), usize::MAX).len();
        assert_eq!(early + late, 1);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut link = Link::new(ChannelPolicy {
            capacity: 3,
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        for i in 0..10u32 {
            link.send(i, Round::ZERO);
        }
        assert_eq!(link.len(), 3);
        assert_eq!(link.metrics.messages_evicted(), 7);
        assert_eq!(link.drain(Round::ZERO, usize::MAX), vec![7, 8, 9]);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut link = Link::new(ChannelPolicy {
            loss_probability: 1.0,
            ..ChannelPolicy::default()
        });
        for i in 0..10u32 {
            assert_eq!(link.send(i, Round::ZERO), None);
        }
        assert_eq!(link.metrics.messages_lost(), 10);
        assert_eq!(link.len(), 0);
    }

    #[test]
    fn duplication_creates_two_copies() {
        let mut link = Link::new(ChannelPolicy {
            duplication_probability: 1.0,
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        link.send(1, Round::ZERO);
        assert_eq!(link.len(), 2);
        assert_eq!(link.drain(Round::ZERO, usize::MAX), vec![1, 1]);
    }

    #[test]
    fn inject_bypasses_loss_and_delay() {
        let mut link = Link::new(ChannelPolicy {
            loss_probability: 1.0,
            max_delay_rounds: 10,
            ..ChannelPolicy::default()
        });
        link.inject(99);
        assert_eq!(link.drain(Round::ZERO, usize::MAX), vec![99]);
    }

    #[test]
    fn reordering_still_delivers_every_packet() {
        let mut link = Link::new(ChannelPolicy {
            reorder: true,
            max_delay_rounds: 0,
            capacity: 64,
            ..ChannelPolicy::default()
        });
        for i in 0..20u32 {
            link.send(i, Round::ZERO);
        }
        let mut out = link.drain(Round::ZERO, usize::MAX);
        assert_ne!(out, (0..20).collect::<Vec<_>>(), "nothing was reordered");
        out.sort_unstable();
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn drain_limit_is_respected() {
        let mut link = Link::new(ChannelPolicy {
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        for i in 0..6u32 {
            link.send(i, Round::ZERO);
        }
        assert_eq!(link.drain(Round::ZERO, 2), vec![0, 1]);
        assert_eq!(link.len(), 4);
    }

    #[test]
    fn clear_discards_in_flight() {
        let mut link = Link::new(ChannelPolicy::default());
        link.send(1, Round::ZERO);
        let (from, to) = Link::ends();
        link.net.clear_channel(from, to);
        assert_eq!(link.len(), 0);
        assert!(link.drain(Round::new(5), usize::MAX).is_empty());
    }

    #[test]
    fn fair_communication_under_heavy_loss() {
        // A packet retransmitted repeatedly over a very lossy link is
        // eventually delivered: the probabilistic analogue of the paper's
        // fair communication assumption.
        let mut link = Link::new(ChannelPolicy {
            loss_probability: 0.9,
            max_delay_rounds: 0,
            ..ChannelPolicy::default()
        });
        let delivered = (0..1000u64).any(|attempt| {
            link.send(1, Round::new(attempt));
            !link.drain(Round::new(attempt), usize::MAX).is_empty()
        });
        assert!(delivered);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::Link;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A link never exceeds its capacity and never invents packets.
        #[test]
        fn capacity_is_never_exceeded(
            cap in 1usize..16,
            sends in proptest::collection::vec(0u32..1000, 0..200),
            seed in 0u64..u64::MAX,
        ) {
            let mut link = Link::seeded(ChannelPolicy {
                capacity: cap,
                loss_probability: 0.1,
                duplication_probability: 0.1,
                max_delay_rounds: 2,
                reorder: true,
            }, seed);
            for (i, m) in sends.iter().enumerate() {
                link.send(*m, Round::new(i as u64));
                prop_assert!(link.len() <= cap);
            }
            for m in link.drain(Round::new(10_000), usize::MAX) {
                prop_assert!(sends.contains(&m), "the link created packet {m}");
            }
        }

        /// Without loss, duplication or eviction pressure every packet sent is
        /// eventually delivered exactly once.
        #[test]
        fn reliable_channel_delivers_exactly_once(
            sends in proptest::collection::vec(0u32..1000, 0..64),
            seed in 0u64..u64::MAX,
        ) {
            let mut link = Link::seeded(ChannelPolicy {
                capacity: 1024,
                loss_probability: 0.0,
                duplication_probability: 0.0,
                max_delay_rounds: 3,
                reorder: false,
            }, seed);
            for m in &sends {
                link.send(*m, Round::ZERO);
            }
            prop_assert_eq!(link.drain(Round::new(100), usize::MAX), sends);
        }
    }
}
