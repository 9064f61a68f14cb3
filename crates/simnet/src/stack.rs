//! Protocol-stack composition: one shared mechanism for multiplexing the
//! message traffic of layered protocols over a single wire format.
//!
//! The paper's middleware is explicitly a *stack* (Figure 1): data link →
//! `(N,Θ)`-failure detector → recSA/recMA/joining → labels → counters →
//! virtually synchronous SMR / shared memory. A composite node that runs
//! several of those layers on one processor has to (a) wrap every sub-layer's
//! outgoing messages into one tagged wire enum and (b) demultiplex incoming
//! wire messages back to the right sub-layer. Both are expressed once, here,
//! and every node in the workspace composes the same way:
//!
//! * a composite declares its wire format with [`wire_enum!`](crate::wire_enum),
//!   which derives `From<Payload>` for the wire enum per tagged variant (a
//!   *lane*);
//! * outgoing traffic of any sub-layer is pushed into a [`Sink`] of the
//!   layer's wire, which wraps native messages into the wire format on the
//!   way in — in the end always the step's one send buffer: the
//!   [`Context`] of the step when the node runs as a [`crate::Process`], an
//!   [`Outbox`] when a test or harness steps a layer by hand and reads back
//!   what it sent ([`Outbox::into_messages`]). `Sink` is the only way any
//!   layer sends: composites, the sub-layers (recSA, recMA, joining, the
//!   labeler) and single operations (a counter increment) alike;
//! * a layer embedded in another (the reconfiguration stack inside the SMR
//!   node, say) pushes into its embedder's sink seen through the embedder's
//!   lane, [`Sink::nest`]: its messages are wrapped twice and land in the
//!   same buffer, broadcasts still shared, with no intermediate collection;
//! * an incoming wire message is dispatched by one exhaustive `match` on the
//!   wire enum, each arm handing its payload to the sub-layer that owns it —
//!   the compiler checks that every variant has its arm;
//! * the composite implements [`Layer`], and [`impl_process_for_layer!`](crate::impl_process_for_layer)
//!   turns any `Layer` into a [`crate::Process`] that can run in a
//!   [`crate::Simulation`].
//!
//! ```
//! use simnet::stack::{Layer, Outbox, Sink};
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
//!         match wire {
//!             WireMsg::Ping(Ping(n)) => self.pings = self.pings.max(n),
//!             WireMsg::Gossip(Gossip(r)) => {
//!                 out.push(from, Ping(self.pings)); // an acknowledgement
//!                 self.rumours.push(r);
//!             }
//!         }
//!     }
//! }
//!
//! let mut node = Node::default();
//! let mut out = Outbox::new();
//! node.handle(ProcessId::new(1), WireMsg::Gossip(Gossip("hi".into())), &mut out);
//! assert_eq!(node.rumours, vec!["hi".to_string()]);
//! assert_eq!(out.into_messages(), vec![(ProcessId::new(1), WireMsg::Ping(Ping(0)))]);
//! ```

use std::marker::PhantomData;

use crate::payload::Payload;
use crate::process::{Context, ProcessId};

/// Collects `(destination, wire message)` pairs, wrapping every sub-layer's
/// native messages on the way in: the send buffer a step's [`Context`]
/// keeps, and on its own the sink a test or harness hands a layer to read
/// back what one step sent ([`Outbox::into_messages`]).
///
/// Internally messages are stored as [`Payload`]s: point-to-point pushes own
/// their message inline (allocation-free), while [`Outbox::push_to_all`]
/// queues one shared allocation per *broadcast* rather than one deep clone
/// per *destination* — the sharing survives all the way through the network
/// into the channels.
#[derive(Debug)]
pub struct Outbox<W> {
    pub(crate) msgs: Vec<(ProcessId, Payload<W>)>,
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

    /// Queues one native message of a lane of `W` for `to` (a wire message
    /// itself converts to itself).
    pub fn push<M: Into<W>>(&mut self, to: ProcessId, msg: M) {
        self.msgs.push((to, Payload::owned(msg.into())));
    }

    /// Queues one native message for *every* destination in `peers`, sharing
    /// a single payload allocation across all of them: the broadcast travels
    /// through the network as refcount bumps, and only deliveries that
    /// overlap other live handles pay a clone. Use this where the same value
    /// genuinely fans out (state snapshots, gossip); per-peer messages keep
    /// going through [`Outbox::push`].
    pub fn push_to_all<M: Into<W>>(&mut self, peers: &[ProcessId], msg: M) {
        if peers.is_empty() {
            return;
        }
        let mut fan = Payload::fan_out(msg.into(), peers.len());
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
}

impl<W: Clone> Outbox<W> {
    /// Consumes the outbox, returning the queued wire messages in send order.
    /// Owned messages move; shared broadcast payloads clone per destination.
    pub fn into_messages(self) -> Vec<(ProcessId, W)> {
        self.msgs
            .into_iter()
            .map(|(to, payload)| (to, payload.into_msg()))
            .collect()
    }
}

/// Where a layer with wire `M` sends: anything that takes `M`'s lanes.
///
/// A step has one send buffer, of the node's top-level wire `W`: the step's
/// [`Context`], or an [`Outbox`]. Either is a sink for every `M` that
/// converts into `W` — `W` itself and each of its lanes. A layer embedded
/// under the lane `M` of its embedder's wire sends into the embedder's sink
/// seen through that lane ([`Sink::nest`]), so every message of a stack goes
/// into the same buffer once, wrapped lane by lane on the way in.
///
/// [`Nested`] is what makes the relation transitive, which `From` alone is
/// not (`RecSaMsg` converts into `ReconfigMsg`, which converts into
/// `SmrMsg`).
pub trait Sink<M> {
    /// Queues one message of a lane of `M` for `to`.
    fn push<L: Into<M>>(&mut self, to: ProcessId, msg: L);

    /// Queues one message of a lane of `M` for every destination in `peers`,
    /// sharing one payload across them (see [`Outbox::push_to_all`]).
    fn push_to_all<L: Into<M>>(&mut self, peers: &[ProcessId], msg: L);

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

impl<W, M: Into<W>> Sink<M> for Outbox<W> {
    fn push<L: Into<M>>(&mut self, to: ProcessId, msg: L) {
        Outbox::push(self, to, Into::<M>::into(msg));
    }

    fn push_to_all<L: Into<M>>(&mut self, peers: &[ProcessId], msg: L) {
        Outbox::push_to_all(self, peers, Into::<M>::into(msg));
    }
}

/// A step's sends go straight into its context's buffer, which the
/// scheduler hands to the network after the step.
impl<W, M: Into<W>> Sink<M> for Context<'_, W> {
    fn push<L: Into<M>>(&mut self, to: ProcessId, msg: L) {
        Sink::<M>::push(&mut self.sends, to, msg);
    }

    fn push_to_all<L: Into<M>>(&mut self, peers: &[ProcessId], msg: L) {
        Sink::<M>::push_to_all(&mut self.sends, peers, msg);
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

impl<O: Sink<M>, M, E: Into<M>> Sink<E> for Nested<'_, O, M> {
    fn push<L: Into<E>>(&mut self, to: ProcessId, msg: L) {
        self.out.push(to, Into::<E>::into(msg));
    }

    fn push_to_all<L: Into<E>>(&mut self, peers: &[ProcessId], msg: L) {
        self.out.push_to_all(peers, Into::<E>::into(msg));
    }
}

/// A protocol layer (or a whole stack of them) in poll/handle form: the
/// context-free shape every composite node in this workspace exposes, so
/// higher layers can embed it and have it send straight into their own
/// send buffer.
///
/// Both methods are generic over the sink: the step's [`Context`] when the
/// layer runs on top (`impl_process_for_layer!`), its embedder's sink
/// through [`Sink::nest`] when it is embedded, an [`Outbox`] when a test
/// steps it by hand.
pub trait Layer {
    /// The wire format this layer speaks.
    type Wire: Clone;

    /// One timer step (`do forever` iteration) of the layer. `peers` lists
    /// every processor the node may address.
    fn poll<O: Sink<Self::Wire>>(&mut self, peers: &[ProcessId], out: &mut O);

    /// Handles one received wire message, pushing any replies into `out`.
    fn handle<O: Sink<Self::Wire>>(&mut self, from: ProcessId, wire: Self::Wire, out: &mut O);
}

/// Defines a composite wire enum and derives `From<Payload>` for it per
/// payload-carrying variant (a *lane*), so a [`Sink`] of the wire takes the
/// payload type directly. Unit variants are allowed and stay lane-less (send
/// them as wire values; every type converts into itself).
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
        impl ::std::convert::From<$payload> for $name {
            fn from(msg: $payload) -> Self {
                $name::$variant(msg)
            }
        }
    };
}

/// Implements [`crate::Process`] for a type that implements [`Layer`]: both
/// step entry points hand the step's [`Context`] itself to the layer as its
/// sink, so every message goes straight into the step's send buffer. Keeps
/// the `Process` impl of every composite node a one-line facade.
#[macro_export]
macro_rules! impl_process_for_layer {
    ($ty:ty) => {
        impl $crate::Process for $ty {
            type Msg = <$ty as $crate::stack::Layer>::Wire;

            fn on_timer(&mut self, ctx: &mut $crate::Context<'_, Self::Msg>) {
                $crate::stack::Layer::poll(self, ctx.ids(), ctx);
            }

            fn on_message(
                &mut self,
                from: $crate::ProcessId,
                msg: Self::Msg,
                ctx: &mut $crate::Context<'_, Self::Msg>,
            ) {
                $crate::stack::Layer::handle(self, from, msg, ctx);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Round;

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

    /// The two send buffers a layer is handed, read back in send order.
    trait Drained<W>: Sink<W> {
        fn drained(self) -> Vec<(ProcessId, Payload<W>)>;
    }

    impl<W> Drained<W> for Outbox<W> {
        fn drained(self) -> Vec<(ProcessId, Payload<W>)> {
            self.msgs
        }
    }

    impl<W> Drained<W> for Context<'_, W> {
        fn drained(self) -> Vec<(ProcessId, Payload<W>)> {
            self.into_outbox()
        }
    }

    const IDS: [ProcessId; 0] = [];

    /// A step's context, as the scheduler builds it.
    fn ctx<W>() -> Context<'static, W> {
        Context::new(pid(0), Round::ZERO, &IDS)
    }

    fn messages<W: Clone>(sends: Vec<(ProcessId, Payload<W>)>) -> Vec<(ProcessId, W)> {
        sends
            .into_iter()
            .map(|(to, p)| (to, p.into_msg()))
            .collect()
    }

    fn wraps_native_messages_per_lane(mut out: impl Drained<Wire>) {
        out.push(pid(1), Lower(7));
        out.push(pid(2), Upper("x".into()));
        out.push(pid(3), Wire::Beat);
        out.push(pid(4), Lower(8));
        assert_eq!(
            messages(out.drained()),
            vec![
                (pid(1), Wire::Lower(Lower(7))),
                (pid(2), Wire::Upper(Upper("x".into()))),
                (pid(3), Wire::Beat),
                (pid(4), Wire::Lower(Lower(8))),
            ]
        );
    }

    #[test]
    fn outbox_wraps_native_messages_per_lane() {
        let out: Outbox<Wire> = Outbox::new();
        assert!(out.is_empty());
        wraps_native_messages_per_lane(out);
        wraps_native_messages_per_lane(ctx());
    }

    fn shares_one_payload_across_destinations<O: Drained<Wire>>(new: impl Fn() -> O) {
        let mut out = new();
        out.push_to_all(&[pid(1), pid(2), pid(3)], Lower(9));
        let payloads = out.drained();
        assert_eq!(payloads.len(), 3);
        assert!(payloads.iter().all(|(_, p)| p.is_shared()));
        assert!(payloads
            .iter()
            .all(|(_, p)| *p.get() == Wire::Lower(Lower(9))));

        // A single destination stays owned (no allocation), an empty peer
        // list queues nothing.
        let mut out = new();
        out.push_to_all(&[pid(7)], Lower(1));
        out.push_to_all(&[], Lower(2));
        let payloads = out.drained();
        assert_eq!(payloads.len(), 1);
        assert!(!payloads[0].1.is_shared());
    }

    #[test]
    fn push_to_all_shares_one_payload_across_destinations() {
        shares_one_payload_across_destinations(Outbox::<Wire>::new);
        shares_one_payload_across_destinations(ctx::<Wire>);
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

    /// An embedder generic over its own sink nests it for the inner layer.
    fn outer_step<O: Sink<Outer>>(out: &mut O) {
        out.push(pid(0), Outer::Tick);
        inner_step(&mut out.nest());
    }

    fn embedded_layer_sends_straight_into(mut out: impl Drained<Outer>) {
        outer_step(&mut out);
        let payloads = out.drained();
        // The broadcast stays one shared payload all the way out.
        assert!(payloads[3].1.is_shared() && payloads[4].1.is_shared());
        let upper = Outer::Inner(Wire::Upper(Upper("x".into())));
        assert_eq!(
            messages(payloads),
            vec![
                (pid(0), Outer::Tick),
                (pid(1), Outer::Inner(Wire::Lower(Lower(1)))),
                (pid(2), Outer::Inner(Wire::Beat)),
                (pid(3), upper.clone()),
                (pid(4), upper),
            ]
        );
    }

    #[test]
    fn an_embedded_layer_sends_straight_into_the_embedders_outbox() {
        embedded_layer_sends_straight_into(Outbox::new());
        // The step's context takes the same path: `ctx.nest()`.
        embedded_layer_sends_straight_into(ctx());
        // A buffer of the outer wire is also a sink of the inner one
        // directly, and of its own wire.
        let mut direct: Outbox<Outer> = Outbox::new();
        direct.push(pid(0), Outer::Tick);
        inner_step(&mut direct);
        let mut nested: Outbox<Outer> = Outbox::new();
        outer_step(&mut nested);
        assert_eq!(direct.into_messages(), nested.into_messages());
    }

    /// A two-lane layer dispatching by `match`, replying on its lower lane.
    #[derive(Default)]
    struct Echo {
        beats: u32,
        upper: Vec<String>,
    }

    impl Layer for Echo {
        type Wire = Wire;
        fn poll<O: Sink<Wire>>(&mut self, peers: &[ProcessId], out: &mut O) {
            out.push_to_all(peers, Wire::Beat);
        }
        fn handle<O: Sink<Wire>>(&mut self, from: ProcessId, wire: Wire, out: &mut O) {
            match wire {
                Wire::Beat => self.beats += 1,
                Wire::Lower(Lower(n)) => {
                    out.push(from, Lower(n + 1));
                    out.push(from, Upper("ack".into()));
                }
                Wire::Upper(Upper(s)) => self.upper.push(s),
            }
        }
    }

    crate::impl_process_for_layer!(Echo);

    #[test]
    fn lanes_can_reply_through_the_shared_outbox() {
        use crate::Process;
        let ids = [pid(0), pid(2)];
        let mut echo = Echo::default();
        let mut ctx = Context::new(pid(0), Round::ZERO, &ids);
        // Sends already in the buffer stay in front of the step's own.
        ctx.send(pid(2), Wire::Beat);
        echo.on_message(pid(2), Wire::Lower(Lower(1)), &mut ctx);
        echo.on_message(pid(2), Wire::Upper(Upper("u".into())), &mut ctx);
        echo.on_timer(&mut ctx);
        assert_eq!(echo.upper, vec!["u".to_string()]);
        let sends = ctx.into_outbox();
        assert!(sends[3].1.is_shared(), "the poll's broadcast is shared");
        assert_eq!(
            messages(sends),
            vec![
                (pid(2), Wire::Beat),
                (pid(2), Wire::Lower(Lower(2))),
                (pid(2), Wire::Upper(Upper("ack".into()))),
                (pid(0), Wire::Beat),
                (pid(2), Wire::Beat),
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
        let wrapped: Wire = Lower(3).into();
        assert_eq!(wrapped, Wire::Lower(Lower(3)));
        assert!(matches!(wrapped, Wire::Lower(Lower(3))));
        assert_eq!(
            Wire::from(Upper("y".into())),
            Wire::Upper(Upper("y".into()))
        );
        // Nested lanes wrap one level per conversion.
        let outer: Outer = Wire::from(Lower(4)).into();
        assert_eq!(outer, Outer::Inner(Wire::Lower(Lower(4))));
    }
}
