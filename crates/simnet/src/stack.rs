//! Protocol-stack composition: one shared mechanism for multiplexing the
//! message traffic of layered protocols over a single wire format.
//!
//! The paper's middleware is explicitly a *stack* (Figure 1): data link →
//! `(N,Θ)`-failure detector → recSA/recMA/joining → labels → counters →
//! virtually synchronous SMR / shared memory. A composite node that runs
//! several of those layers on one processor has to (a) wrap every sub-layer's
//! outgoing messages into one tagged wire enum and (b) demultiplex incoming
//! wire messages back to the right sub-layer. Before this module existed,
//! each composite node hand-rolled that plumbing; now it is expressed once,
//! here, and every node in the workspace composes the same way:
//!
//! * a composite declares its wire format with [`wire_enum!`](crate::wire_enum), which derives
//!   a [`Lane`] (injection/projection pair) per tagged variant;
//! * outgoing traffic of any sub-layer is pushed into a [`Sink`] of the
//!   layer's wire — in the end always the node's one [`Outbox`], which wraps
//!   native messages into the wire format on the way in;
//! * a layer embedded in another (the reconfiguration stack inside the SMR
//!   node, say) pushes into its embedder's sink seen through the embedder's
//!   lane, [`Sink::nest`]: its messages are wrapped twice and land in the
//!   same outbox, broadcasts still shared, with no intermediate collection;
//! * incoming wire messages are dispatched with a [`Router`], which peels the
//!   lanes off one by one and hands each sub-layer its native message type;
//! * the composite implements [`Layer`], and [`impl_process_for_layer!`](crate::impl_process_for_layer)
//!   turns any `Layer` into a [`crate::Process`] that can run in a
//!   [`crate::Simulation`].
//!
//! ```
//! use simnet::stack::{Layer, Outbox, Router, Sink};
//! use simnet::{wire_enum, ProcessId};
//!
//! // Two toy sub-layer protocols with distinct message types. Payload types
//! // implement `simnet::codec::WireCodec` (here via `wire_newtype_codec!`)
//! // so the wire enum's derived codec can carry them on real sockets.
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! pub struct Ping(pub u64);
//! # simnet::wire_newtype_codec!(Ping(u64));
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! pub struct Gossip(pub String);
//! # simnet::wire_newtype_codec!(Gossip(String));
//!
//! wire_enum! {
//!     /// The composite wire format.
//!     #[derive(Debug, Clone, PartialEq, Eq)]
//!     pub enum WireMsg {
//!         /// Liveness probes.
//!         Ping(Ping),
//!         /// Rumour spreading.
//!         Gossip(Gossip),
//!     }
//! }
//!
//! #[derive(Default)]
//! struct Node { pings: u64, rumours: Vec<String> }
//!
//! impl Layer for Node {
//!     type Wire = WireMsg;
//!     fn poll<O: Sink<WireMsg>>(&mut self, peers: &[ProcessId], out: &mut O) {
//!         for p in peers {
//!             out.push(*p, Ping(self.pings)); // wrapped into WireMsg::Ping
//!         }
//!     }
//!     fn handle<O: Sink<WireMsg>>(&mut self, from: ProcessId, wire: WireMsg, out: &mut O) {
//!         Router::new(from, wire)
//!             .lane(out, |_from, Ping(n), _out| self.pings = self.pings.max(n))
//!             .lane(out, |_from, Gossip(r), _out| self.rumours.push(r))
//!             .finish();
//!     }
//! }
//!
//! let mut node = Node::default();
//! let mut out = Outbox::new();
//! node.handle(ProcessId::new(1), WireMsg::Gossip(Gossip("hi".into())), &mut out);
//! assert_eq!(node.rumours, vec!["hi".to_string()]);
//! assert!(out.is_empty());
//! ```

use std::marker::PhantomData;

use crate::payload::Payload;
use crate::process::{Context, ProcessId};

/// Injection/projection between a sub-layer's native message type and a
/// composite wire format `W`.
///
/// Implementations are normally derived by [`wire_enum!`](crate::wire_enum); one lane per
/// tagged variant of the wire enum.
pub trait Lane<W>: Sized {
    /// Wraps a native message into the wire format.
    fn wrap(self) -> W;
    /// Projects a wire message back to this lane, or returns it unchanged
    /// when it belongs to another lane.
    fn try_unwrap(wire: W) -> Result<Self, W>;
}

/// Every wire format is a lane of itself, so a layer can push a message of
/// its own wire — `ReconfigMsg::Heartbeat`, say — and an outbox of that
/// wire takes it unchanged.
impl<W> Lane<W> for W {
    fn wrap(self) -> W {
        self
    }
    fn try_unwrap(wire: W) -> Result<Self, W> {
        Ok(wire)
    }
}

/// Collects `(destination, wire message)` pairs during one atomic step,
/// wrapping every sub-layer's native messages on the way in.
///
/// Internally messages are stored as [`Payload`]s: point-to-point pushes own
/// their message inline (allocation-free), while [`Outbox::push_to_all`]
/// queues one shared allocation per *broadcast* rather than one deep clone
/// per *destination* — the sharing survives all the way through the network
/// into the channels.
#[derive(Debug)]
pub struct Outbox<W> {
    msgs: Vec<(ProcessId, Payload<W>)>,
}

impl<W> Default for Outbox<W> {
    fn default() -> Self {
        Outbox { msgs: Vec::new() }
    }
}

impl<W> Outbox<W> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an outbox on top of an existing buffer, so a per-step outbox
    /// can reuse a recycled allocation (see `impl_process_for_layer!`, which
    /// borrows the simulation's per-step send buffer instead of allocating).
    /// Messages already in the buffer are kept.
    pub fn from_buffer(msgs: Vec<(ProcessId, Payload<W>)>) -> Self {
        Outbox { msgs }
    }

    /// Queues one native message of lane `M` for `to` (a wire message
    /// itself is the identity lane).
    pub fn push<M: Lane<W>>(&mut self, to: ProcessId, msg: M) {
        self.msgs.push((to, Payload::owned(msg.wrap())));
    }

    /// Queues one native message for *every* destination in `peers`, sharing
    /// a single payload allocation across all of them: the broadcast travels
    /// through the network as refcount bumps, and only deliveries that
    /// overlap other live handles pay a clone. Use this where the same value
    /// genuinely fans out (state snapshots, gossip); per-peer messages keep
    /// going through [`Outbox::push`].
    pub fn push_to_all<M: Lane<W>>(&mut self, peers: &[ProcessId], msg: M) {
        if peers.is_empty() {
            return;
        }
        let mut fan = Payload::fan_out(msg.wrap(), peers.len());
        for to in peers {
            self.msgs.push((*to, fan.next()));
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Consumes the outbox, returning the queued payloads in send order (the
    /// allocation-free hand-back used by `impl_process_for_layer!`).
    pub fn into_payloads(self) -> Vec<(ProcessId, Payload<W>)> {
        self.msgs
    }

    /// Hands every queued message to a simulation [`Context`].
    pub fn send_via(self, ctx: &mut Context<'_, W>) {
        for (to, payload) in self.msgs {
            ctx.send_payload(to, payload);
        }
    }
}

impl<W: Clone> Outbox<W> {
    /// Consumes the outbox, returning the queued wire messages in send order.
    /// Owned messages move; shared broadcast payloads clone per destination
    /// (this is the test-facade path — the simulation hot path hands the
    /// payloads through [`Outbox::into_payloads`] unchanged).
    pub fn into_messages(self) -> Vec<(ProcessId, W)> {
        self.msgs
            .into_iter()
            .map(|(to, payload)| (to, payload.into_msg()))
            .collect()
    }
}

/// Where a layer with wire `M` sends: anything that takes `M`'s lanes.
///
/// A node has one [`Outbox`], of its top-level wire `W`; it is a sink for
/// every `M` that is a lane of `W`, itself included. A layer embedded under
/// the lane `M` of its embedder's wire sends into the embedder's sink seen
/// through that lane ([`Sink::nest`]), so every message of a stack goes into
/// the same outbox once, wrapped lane by lane on the way in.
///
/// `Outbox<W>` with `M: Lane<W>` is the sink a top-level layer sees;
/// [`Nested`] is what makes the relation transitive, which [`Lane`] alone is
/// not (`RecSaMsg` is a lane of `ReconfigMsg`, which is a lane of `SmrMsg`).
pub trait Sink<M> {
    /// Queues one message of a lane of `M` for `to`.
    fn push<L: Lane<M>>(&mut self, to: ProcessId, msg: L);

    /// Queues one message of a lane of `M` for every destination in `peers`,
    /// sharing one payload across them (see [`Outbox::push_to_all`]).
    fn push_to_all<L: Lane<M>>(&mut self, peers: &[ProcessId], msg: L);

    /// This sink as seen by a layer embedded under one of `M`'s lanes.
    fn nest(&mut self) -> Nested<'_, Self, M>
    where
        Self: Sized,
    {
        Nested {
            out: self,
            _lane: PhantomData,
        }
    }
}

impl<W, M: Lane<W>> Sink<M> for Outbox<W> {
    fn push<L: Lane<M>>(&mut self, to: ProcessId, msg: L) {
        Outbox::push(self, to, <L as Lane<M>>::wrap(msg));
    }

    fn push_to_all<L: Lane<M>>(&mut self, peers: &[ProcessId], msg: L) {
        Outbox::push_to_all(self, peers, <L as Lane<M>>::wrap(msg));
    }
}

/// An embedder's sink `O` of wire `M`, seen by a layer whose wire is one of
/// `M`'s lanes: a message is wrapped into that lane, then into `M`, and goes
/// on into `O`. Created by [`Sink::nest`].
#[derive(Debug)]
pub struct Nested<'a, O, M> {
    out: &'a mut O,
    _lane: PhantomData<fn(M)>,
}

impl<O: Sink<M>, M, E: Lane<M>> Sink<E> for Nested<'_, O, M> {
    fn push<L: Lane<E>>(&mut self, to: ProcessId, msg: L) {
        self.out.push(to, <L as Lane<E>>::wrap(msg));
    }

    fn push_to_all<L: Lane<E>>(&mut self, peers: &[ProcessId], msg: L) {
        self.out.push_to_all(peers, <L as Lane<E>>::wrap(msg));
    }
}

/// Dispatches one incoming wire message through the lanes of a stack.
///
/// Lanes are tried in the order they are chained; the first lane whose
/// payload type matches consumes the message. [`Router::finish`] returns any
/// message no lane claimed (e.g. a unit variant of the wire enum), which the
/// caller pattern-matches directly.
#[must_use = "call .finish() to observe messages no lane claimed"]
#[derive(Debug)]
pub struct Router<W> {
    from: ProcessId,
    wire: Option<W>,
}

impl<W> Router<W> {
    /// Starts routing `wire`, received from `from`.
    pub fn new(from: ProcessId, wire: W) -> Self {
        Router {
            from,
            wire: Some(wire),
        }
    }

    /// Offers the message to lane `M`: if it belongs there, `handler` runs
    /// with the native message and the shared outbox (whatever sink the
    /// layer was handed); otherwise the message stays available for the
    /// next lane.
    pub fn lane<M: Lane<W>, O>(
        mut self,
        out: &mut O,
        handler: impl FnOnce(ProcessId, M, &mut O),
    ) -> Self {
        if let Some(wire) = self.wire.take() {
            match M::try_unwrap(wire) {
                Ok(msg) => handler(self.from, msg, out),
                Err(wire) => self.wire = Some(wire),
            }
        }
        self
    }

    /// Ends the dispatch, returning the message if no lane claimed it.
    pub fn finish(self) -> Option<W> {
        self.wire
    }
}

/// A protocol layer (or a whole stack of them) in poll/handle form: the
/// context-free shape every composite node in this workspace exposes, so
/// higher layers can embed it and have it send straight into their own
/// outbox.
///
/// Both methods are generic over the sink: the node's own [`Outbox`] when
/// the layer runs on top (`impl_process_for_layer!`), its embedder's sink
/// through [`Sink::nest`] when it is embedded.
pub trait Layer {
    /// The wire format this layer speaks.
    type Wire: Clone;

    /// One timer step (`do forever` iteration) of the layer. `peers` lists
    /// every processor the node may address.
    fn poll<O: Sink<Self::Wire>>(&mut self, peers: &[ProcessId], out: &mut O);

    /// Handles one received wire message, pushing any replies into `out`.
    fn handle<O: Sink<Self::Wire>>(&mut self, from: ProcessId, wire: Self::Wire, out: &mut O);
}

/// Defines a composite wire enum and derives a [`Lane`] implementation per
/// payload-carrying variant. Unit variants are allowed and stay lane-less
/// (send them as wire values through the identity lane, observe them via
/// [`Router::finish`]).
///
/// Also derives [`crate::codec::WireCodec`]: the wire encoding is one byte of
/// lane tag — the variant's declaration index — followed by the payload's
/// encoding (nothing for unit variants). Every payload type must therefore
/// implement `WireCodec`; an undeclared tag byte decodes to
/// [`crate::codec::DecodeError::UnknownLane`]. Because tags are declaration
/// indices, appending variants is wire-compatible but reordering or removing
/// them is a breaking protocol change (see `docs/LIVE.md`).
///
/// See the [module documentation](self) for a full example.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $( ( $payload:ty ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ( $payload ) )?,
            )*
        }

        $(
            $crate::__wire_enum_lane! { $name, $variant $( ( $payload ) )? }
        )*

        impl $crate::codec::WireCodec for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::__wire_enum_encode_step! {
                    self, out, $name, 0u8;
                    $( $variant $( ( $payload ) )? ),*
                }
            }

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                let tag = r.u8()?;
                $crate::__wire_enum_decode_step! {
                    tag, r, $name, 0u8;
                    $( $variant $( ( $payload ) )? ),*
                }
            }
        }
    };
}

/// Implementation detail of [`wire_enum!`](crate::wire_enum): emits the
/// encode body as a chain of `if let` arms, threading the variant's
/// declaration index through as a constant-folded unary sum (macro_rules has
/// no `${index()}` on this toolchain).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_enum_encode_step {
    ($self:expr, $out:ident, $name:ident, $idx:expr ; ) => {
        // Every variant was peeled off in an earlier arm; nothing reaches
        // here, but the chain needs a tail expression.
        {}
    };
    ($self:expr, $out:ident, $name:ident, $idx:expr ; $variant:ident ( $payload:ty ) $(, $($rest:tt)*)?) => {
        if let $name::$variant(payload) = $self {
            $out.push($idx);
            $crate::codec::WireCodec::encode(payload, $out);
        } else {
            $crate::__wire_enum_encode_step! {
                $self, $out, $name, $idx + 1u8; $($($rest)*)?
            }
        }
    };
    ($self:expr, $out:ident, $name:ident, $idx:expr ; $variant:ident $(, $($rest:tt)*)?) => {
        if let $name::$variant = $self {
            $out.push($idx);
        } else {
            $crate::__wire_enum_encode_step! {
                $self, $out, $name, $idx + 1u8; $($($rest)*)?
            }
        }
    };
}

/// Implementation detail of [`wire_enum!`](crate::wire_enum): emits the
/// decode body as a chain of tag comparisons mirroring
/// [`__wire_enum_encode_step!`](crate::__wire_enum_encode_step).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_enum_decode_step {
    ($tag:ident, $r:ident, $name:ident, $idx:expr ; ) => {
        ::std::result::Result::Err($crate::codec::DecodeError::UnknownLane {
            ty: ::std::stringify!($name),
            tag: $tag,
        })
    };
    ($tag:ident, $r:ident, $name:ident, $idx:expr ; $variant:ident ( $payload:ty ) $(, $($rest:tt)*)?) => {
        if $tag == ($idx) {
            ::std::result::Result::Ok($name::$variant(
                <$payload as $crate::codec::WireCodec>::decode($r)?,
            ))
        } else {
            $crate::__wire_enum_decode_step! {
                $tag, $r, $name, $idx + 1u8; $($($rest)*)?
            }
        }
    };
    ($tag:ident, $r:ident, $name:ident, $idx:expr ; $variant:ident $(, $($rest:tt)*)?) => {
        if $tag == ($idx) {
            ::std::result::Result::Ok($name::$variant)
        } else {
            $crate::__wire_enum_decode_step! {
                $tag, $r, $name, $idx + 1u8; $($($rest)*)?
            }
        }
    };
}

/// Implementation detail of [`wire_enum!`](crate::wire_enum).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_enum_lane {
    ($name:ident, $variant:ident) => {};
    ($name:ident, $variant:ident ( $payload:ty )) => {
        impl $crate::stack::Lane<$name> for $payload {
            fn wrap(self) -> $name {
                $name::$variant(self)
            }
            fn try_unwrap(wire: $name) -> ::std::result::Result<Self, $name> {
                match wire {
                    $name::$variant(msg) => Ok(msg),
                    other => ::std::result::Result::Err(other),
                }
            }
        }
    };
}

/// Implements [`crate::Process`] for a type that implements [`Layer`],
/// delegating the two step entry points through an [`Outbox`]. Keeps the
/// `Process` impl of every composite node a two-line facade.
#[macro_export]
macro_rules! impl_process_for_layer {
    ($ty:ty) => {
        impl $crate::Process for $ty {
            type Msg = <$ty as $crate::stack::Layer>::Wire;

            fn on_timer(&mut self, ctx: &mut $crate::Context<'_, Self::Msg>) {
                // The outbox borrows the context's (recycled) send buffer —
                // a steady-state poll wraps and queues every message without
                // allocating a second collection.
                let mut out = $crate::stack::Outbox::from_buffer(ctx.take_sends());
                $crate::stack::Layer::poll(self, ctx.ids(), &mut out);
                ctx.restore_sends(out.into_payloads());
            }

            fn on_message(
                &mut self,
                from: $crate::ProcessId,
                msg: Self::Msg,
                ctx: &mut $crate::Context<'_, Self::Msg>,
            ) {
                let mut out = $crate::stack::Outbox::from_buffer(ctx.take_sends());
                $crate::stack::Layer::handle(self, from, msg, &mut out);
                ctx.restore_sends(out.into_payloads());
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Lower(u32);
    crate::wire_newtype_codec!(Lower(u32));
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Upper(String);
    crate::wire_newtype_codec!(Upper(String));

    wire_enum! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        enum Wire {
            Beat,
            Lower(Lower),
            Upper(Upper),
        }
    }

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn outbox_wraps_native_messages_per_lane() {
        let mut out: Outbox<Wire> = Outbox::new();
        assert!(out.is_empty());
        out.push(pid(1), Lower(7));
        out.push(pid(2), Upper("x".into()));
        out.push(pid(3), Wire::Beat);
        out.push(pid(4), Lower(8));
        assert_eq!(out.len(), 4);
        let msgs = out.into_messages();
        assert_eq!(
            msgs,
            vec![
                (pid(1), Wire::Lower(Lower(7))),
                (pid(2), Wire::Upper(Upper("x".into()))),
                (pid(3), Wire::Beat),
                (pid(4), Wire::Lower(Lower(8))),
            ]
        );
    }

    #[test]
    fn push_to_all_shares_one_payload_across_destinations() {
        let mut out: Outbox<Wire> = Outbox::new();
        out.push_to_all(&[pid(1), pid(2), pid(3)], Lower(9));
        assert_eq!(out.len(), 3);
        let payloads = out.into_payloads();
        assert!(payloads.iter().all(|(_, p)| p.is_shared()));
        assert!(payloads
            .iter()
            .all(|(_, p)| *p.get() == Wire::Lower(Lower(9))));

        // A single destination stays owned (no allocation), an empty peer
        // list queues nothing.
        let mut out: Outbox<Wire> = Outbox::new();
        out.push_to_all(&[pid(7)], Lower(1));
        out.push_to_all(&[], Lower(2));
        let payloads = out.into_payloads();
        assert_eq!(payloads.len(), 1);
        assert!(!payloads[0].1.is_shared());
    }

    wire_enum! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        enum Outer {
            Tick,
            Inner(Wire),
        }
    }

    /// What a layer speaking `Wire` sends in one step, into whatever sink it
    /// is handed.
    fn inner_step<O: Sink<Wire>>(out: &mut O) {
        out.push(pid(1), Lower(1));
        out.push(pid(2), Wire::Beat);
        out.push_to_all(&[pid(3), pid(4)], Upper("x".into()));
    }

    #[test]
    fn an_embedded_layer_sends_straight_into_the_embedders_outbox() {
        // An embedder generic over its own sink nests it for the inner layer.
        fn outer_step<O: Sink<Outer>>(out: &mut O) {
            out.push(pid(0), Outer::Tick);
            inner_step(&mut out.nest());
        }
        let mut out: Outbox<Outer> = Outbox::new();
        outer_step(&mut out);
        let payloads = out.into_payloads();
        // The broadcast stays one shared payload all the way out.
        assert!(payloads[3].1.is_shared() && payloads[4].1.is_shared());
        let msgs: Vec<_> = payloads
            .into_iter()
            .map(|(to, p)| (to, p.into_msg()))
            .collect();
        let upper = Outer::Inner(Wire::Upper(Upper("x".into())));
        assert_eq!(
            msgs,
            vec![
                (pid(0), Outer::Tick),
                (pid(1), Outer::Inner(Wire::Lower(Lower(1)))),
                (pid(2), Outer::Inner(Wire::Beat)),
                (pid(3), upper.clone()),
                (pid(4), upper),
            ]
        );
        // An outbox of the outer wire is also a sink of the inner one
        // directly, and of its own wire through the identity lane.
        let mut direct: Outbox<Outer> = Outbox::new();
        direct.push(pid(0), Outer::Tick);
        inner_step(&mut direct);
        let mut nested: Outbox<Outer> = Outbox::new();
        outer_step(&mut nested);
        assert_eq!(direct.into_messages(), nested.into_messages());
    }

    #[test]
    fn router_dispatches_to_the_matching_lane_only() {
        let mut out: Outbox<Wire> = Outbox::new();
        let mut lower_seen = None;
        let mut upper_seen = None;
        let rest = Router::new(pid(9), Wire::Lower(Lower(5)))
            .lane(&mut out, |from, m: Lower, _| lower_seen = Some((from, m)))
            .lane(&mut out, |from, m: Upper, _| upper_seen = Some((from, m)))
            .finish();
        assert_eq!(lower_seen, Some((pid(9), Lower(5))));
        assert_eq!(upper_seen, None);
        assert_eq!(rest, None);
    }

    #[test]
    fn router_hands_back_unit_variants() {
        let mut out: Outbox<Wire> = Outbox::new();
        let rest = Router::new(pid(1), Wire::Beat)
            .lane(&mut out, |_, _m: Lower, _| panic!("wrong lane"))
            .lane(&mut out, |_, _m: Upper, _| panic!("wrong lane"))
            .finish();
        assert_eq!(rest, Some(Wire::Beat));
    }

    #[test]
    fn lanes_can_reply_through_the_shared_outbox() {
        let mut out: Outbox<Wire> = Outbox::new();
        Router::new(pid(2), Wire::Lower(Lower(1)))
            .lane(&mut out, |from, Lower(n), out: &mut Outbox<Wire>| {
                out.push(from, Lower(n + 1));
                out.push(from, Upper("ack".into()));
            })
            .finish();
        assert_eq!(
            out.into_messages(),
            vec![
                (pid(2), Wire::Lower(Lower(2))),
                (pid(2), Wire::Upper(Upper("ack".into()))),
            ]
        );
    }

    #[test]
    fn derived_codec_tags_follow_declaration_order() {
        use crate::codec::{DecodeError, WireCodec};
        // Unit variant: tag only.
        assert_eq!(Wire::Beat.to_bytes(), vec![0]);
        // Payload variants: tag byte, then the payload encoding.
        assert_eq!(Wire::Lower(Lower(7)).to_bytes(), vec![1, 7, 0, 0, 0]);
        let upper = Wire::Upper(Upper("hi".into())).to_bytes();
        assert_eq!(upper[0], 2);
        for wire in [
            Wire::Beat,
            Wire::Lower(Lower(u32::MAX)),
            Wire::Upper(Upper("é".into())),
        ] {
            assert_eq!(Wire::from_bytes(&wire.to_bytes()), Ok(wire));
        }
        // A tag past the last declared variant is a typed error, not a panic.
        assert_eq!(
            Wire::from_bytes(&[3]),
            Err(DecodeError::UnknownLane { ty: "Wire", tag: 3 })
        );
        // Empty input is truncated, not a panic.
        assert!(matches!(
            Wire::from_bytes(&[]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn roundtrip_wrap_unwrap() {
        let wrapped: Wire = Lower(3).wrap();
        assert_eq!(wrapped, Wire::Lower(Lower(3)));
        assert_eq!(Lower::try_unwrap(wrapped), Ok(Lower(3)));
        assert_eq!(
            Lower::try_unwrap(Wire::Upper(Upper("y".into()))),
            Err(Wire::Upper(Upper("y".into())))
        );
        // The identity lane: every wire value is its own lane.
        assert_eq!(<Wire as Lane<Wire>>::wrap(Wire::Beat), Wire::Beat);
        assert_eq!(<Wire as Lane<Wire>>::try_unwrap(Wire::Beat), Ok(Wire::Beat));
    }
}
