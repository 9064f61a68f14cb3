//! Shared in-flight payloads.
//!
//! Every packet travelling through a [`crate::Network`] link carries a
//! [`Payload`]: either a plain owned message or a handle into a shared
//! allocation (`Arc`). The two-variant shape is deliberate — most traffic is
//! point-to-point (heartbeats, per-peer echoes) and must stay allocation-free,
//! so owning the message inline is the default and sharing is opt-in at the
//! places that genuinely fan one value out to many packets:
//!
//! * a broadcast pushed through [`crate::stack::Outbox::push_to_all`] wraps
//!   the message once and enqueues one handle per destination;
//! * link duplication ([`crate::Network::send_payload`]) promotes the packet
//!   to shared and enqueues a second handle instead of a deep clone.
//!
//! Ownership rules on the delivery path:
//!
//! * the link owns the payload while the packet is in flight, and until
//!   its delivery returns;
//! * delivery ([`crate::Network::deliver`]) lends the message: the receiver
//!   reads it in place, through [`Payload::get`], and the payload is dropped
//!   after the call. A receiver copies only what it keeps, so a broadcast to
//!   `n` peers costs one allocation and no delivery clone. Only a process
//!   that implements [`crate::Process::on_message`] alone — a wrapper that
//!   forwards the message by value, a runtime that decoded it from a frame —
//!   gets a copy, through [`crate::Process::on_delivery`]'s default;
//! * adversarial mutation goes through [`Payload::make_mut`], which is
//!   copy-on-write: corrupting one handle of a shared payload un-shares it
//!   first, so corruption never aliases into other channels' packets.
//!
//! Sharing is invisible to observers: equality, hashing and `Debug` all look
//! through the handle at the message value, and the simulation's RNG is never
//! consulted, so executions are byte-identical whether or not any payload is
//! shared.

use std::fmt;
use std::sync::Arc;

/// A message in flight: owned, or one handle to a shared allocation.
pub enum Payload<M> {
    /// The packet owns its message (the point-to-point default).
    Owned(M),
    /// One handle to a message shared with other packets.
    Shared(Arc<M>),
}

impl<M> Payload<M> {
    /// Wraps an owned message.
    pub fn owned(msg: M) -> Self {
        Payload::Owned(msg)
    }

    /// Wraps one message for `n` packets: returns a factory that hands out
    /// `n` payloads of the same value, sharing a single allocation when
    /// `n > 1` and owning the message inline when `n == 1`.
    pub fn fan_out(msg: M, n: usize) -> FanOut<M> {
        FanOut {
            inner: if n > 1 {
                FanOutRepr::Shared(Arc::new(msg))
            } else {
                FanOutRepr::Once(Some(msg))
            },
        }
    }

    /// A shared view of the message.
    pub fn get(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(a) => a,
        }
    }

    /// Returns `true` when this payload shares its allocation with at least
    /// one other live handle.
    pub fn is_shared(&self) -> bool {
        match self {
            Payload::Owned(_) => false,
            Payload::Shared(a) => Arc::strong_count(a) > 1,
        }
    }

    /// Splits into two handles over one shared allocation. An owned payload
    /// is promoted to shared first — this is the only point at which sharing
    /// allocates, and the channel duplication path is its only hot caller.
    pub fn split(self) -> (Self, Self) {
        let arc = match self {
            Payload::Owned(m) => Arc::new(m),
            Payload::Shared(a) => a,
        };
        (Payload::Shared(Arc::clone(&arc)), Payload::Shared(arc))
    }
}

impl<M: Clone> Payload<M> {
    /// Mutable access with copy-on-write: mutating a shared payload first
    /// un-shares it (cloning the message into a private allocation), so the
    /// mutation is invisible to every other handle.
    pub fn make_mut(&mut self) -> &mut M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(a) => Arc::make_mut(a),
        }
    }
}

impl<M: Clone> Clone for Payload<M> {
    fn clone(&self) -> Self {
        match self {
            // An owned payload clones deeply: `clone` is for duplicating
            // whole channels/networks (campaign forks), not for fanning a
            // message out — that is `split`/`fan_out`, which bump refcounts.
            Payload::Owned(m) => Payload::Owned(m.clone()),
            Payload::Shared(a) => Payload::Shared(Arc::clone(a)),
        }
    }
}

/// Payloads compare (and hash, and print) by message value: sharing is a
/// storage optimisation, never an observable property.
impl<M: PartialEq> PartialEq for Payload<M> {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl<M: Eq> Eq for Payload<M> {}

impl<M: fmt::Debug> fmt::Debug for Payload<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// Hands out `n` payloads of one message, allocating at most once.
/// Created by [`Payload::fan_out`].
pub struct FanOut<M> {
    inner: FanOutRepr<M>,
}

enum FanOutRepr<M> {
    Once(Option<M>),
    Shared(Arc<M>),
}

impl<M> FanOut<M> {
    /// The next handle. Panics if called more often than the `n` the fan-out
    /// was created for (only possible for `n == 1`, where there is nothing
    /// left to hand out).
    // Not an `Iterator`: the sequence never ends and `next` cannot return
    // `None`, so the trait's contract would be a lie.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Payload<M> {
        match &mut self.inner {
            FanOutRepr::Once(slot) => {
                Payload::Owned(slot.take().expect("fan_out(_, 1) yields one payload"))
            }
            FanOutRepr::Shared(a) => Payload::Shared(Arc::clone(a)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_payload_is_read_in_place() {
        let p = Payload::owned(vec![1u8, 2, 3]);
        assert!(!p.is_shared());
        assert_eq!(p.get(), &vec![1, 2, 3]);
    }

    #[test]
    fn split_shares_one_allocation() {
        let (a, b) = Payload::owned(String::from("x")).split();
        assert!(a.is_shared());
        assert!(b.is_shared());
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.get(), b.get()));
        // Dropping one handle un-shares the other.
        drop(a);
        assert!(!b.is_shared());
        assert_eq!(b.get(), "x");
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let (mut a, b) = Payload::owned(10u32).split();
        *a.make_mut() += 1;
        assert_eq!(*a.get(), 11);
        assert_eq!(*b.get(), 10, "mutation must not alias into other handles");
        // After the write the handle is private.
        assert!(!a.is_shared());
    }

    #[test]
    fn equality_looks_through_sharing() {
        let owned = Payload::owned(7u32);
        let (shared, _keep) = Payload::owned(7u32).split();
        assert_eq!(owned, shared);
        assert_eq!(format!("{owned:?}"), format!("{shared:?}"));
    }

    #[test]
    fn fan_out_allocates_only_when_fanning() {
        let mut one = Payload::fan_out(5u32, 1);
        assert!(!one.next().is_shared());

        let mut many = Payload::fan_out(5u32, 3);
        let first = many.next();
        let _second = many.next();
        let _third = many.next();
        assert!(first.is_shared());
    }
}
