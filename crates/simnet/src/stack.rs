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
//!   borrowed wire enum, each arm lending its payload to the sub-layer that
//!   owns it — the compiler checks that every variant has its arm;
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
//!     fn handle<O: Sink<WireMsg>>(&mut self, from: ProcessId, wire: &WireMsg, out: &mut O) {
//!         match wire {
//!             WireMsg::Ping(Ping(n)) => self.pings = self.pings.max(*n),
//!             WireMsg::Gossip(Gossip(r)) => {
//!                 out.push(from, Ping(self.pings)); // an acknowledgement
//!                 self.rumours.push(r.clone()); // what it keeps
//!             }
//!         }
//!     }
//! }
//!
//! let mut node = Node::default();
//! let mut out = Outbox::new();
//! node.handle(ProcessId::new(1), &WireMsg::Gossip(Gossip("hi".into())), &mut out);
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
    /// through the network as refcount bumps. Use this where the same value
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
    /// Consumes the outbox, returning a copy of each queued wire message in
    /// send order.
    pub fn into_messages(self) -> Vec<(ProcessId, W)> {
        let copy = |(to, payload): (ProcessId, Payload<W>)| (to, payload.get().clone());
        self.msgs.into_iter().map(copy).collect()
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

    /// Handles one received wire message, lent in place by the link that
    /// carried it (clone only what the layer keeps), replying into `out`.
    fn handle<O: Sink<Self::Wire>>(&mut self, from: ProcessId, wire: &Self::Wire, out: &mut O);
}

/// Defines a wire enum and derives its [`crate::codec::WireCodec`], the one
/// enum encoding of the workspace: one tag byte, the variant's declaration
/// index, then the variant's fields in declaration order. A variant is
///
/// * a unit variant, `Ping`: the tag alone;
/// * a *lane*, `Seq(u64)`: a single-payload tuple variant, for which
///   `From<Payload>` is derived too, so a [`Sink`] of the wire takes the
///   payload directly (the other forms are sent as wire values);
/// * a struct-like variant, `Ack { op: u64, ok: bool }`, whose fields may
///   carry doc comments.
///
/// Every payload and field type must implement `WireCodec`; an undeclared
/// tag decodes to [`crate::codec::DecodeError::UnknownLane`] naming the enum.
/// Appending variants is wire-compatible; reordering or removing variants or
/// fields is a breaking protocol change (see `docs/LIVE.md`).
///
/// ```
/// use simnet::codec::WireCodec;
///
/// simnet::wire_enum! {
///     #[derive(Debug, Clone, PartialEq, Eq)]
///     pub enum ProbeMsg {
///         Ping,
///         Seq(u64),
///         Ack {
///             /// The acknowledged sequence number.
///             op: u64,
///             ok: bool,
///         },
///     }
/// }
///
/// let ack = ProbeMsg::Ack { op: 7, ok: true };
/// assert_eq!(ack.to_bytes(), [2, 7, 0, 0, 0, 0, 0, 0, 0, 1]);
/// assert_eq!(ProbeMsg::from_bytes(&ack.to_bytes()), Ok(ack));
/// assert_eq!(ProbeMsg::from(9u64), ProbeMsg::Seq(9));
/// ```
///
/// See the [module documentation](self) for a composite wire of lanes.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $( ( $payload:ty ) )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $( ( $payload ) )?
                $( { $( $(#[$fmeta])* $field : $fty ),* } )?,
            )*
        }

        $( $crate::__wire_enum_variant! { @lane $name $variant $( ( $payload ) )? } )*

        const _: () = {
            // The compiler numbers a field-less enum's variants by
            // declaration index: the tag of each variant of the wire enum.
            enum __WireEnumTag { $( $variant, )* }

            impl $crate::codec::WireCodec for $name {
                fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                    match self {
                        $(
                            $crate::__wire_enum_variant! {
                                @pat $name $variant payload
                                $( ( $payload ) )?
                                $( { $( $field )* } )?
                            } => {
                                out.push(__WireEnumTag::$variant as u8);
                                $crate::__wire_enum_variant! {
                                    @enc out payload
                                    $( ( $payload ) )?
                                    $( { $( $field )* } )?
                                }
                            }
                        )*
                    }
                }

                fn decode(
                    r: &mut $crate::codec::Reader<'_>,
                ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                    let tag = r.u8()?;
                    $(
                        if tag == __WireEnumTag::$variant as u8 {
                            return ::std::result::Result::Ok($crate::__wire_enum_variant! {
                                @dec $name $variant r
                                $( ( $payload ) )?
                                $( { $( $field )* } )?
                            });
                        }
                    )*
                    ::std::result::Result::Err($crate::codec::DecodeError::UnknownLane {
                        ty: ::std::stringify!($name),
                        tag,
                    })
                }
            }
        };
    };
}

/// Implementation detail of [`wire_enum!`](crate::wire_enum): a variant's
/// `From` lane, match pattern, field encoding and decoding constructor, per
/// form. The caller passes the tuple form's binding (macro hygiene).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_enum_variant {
    (@lane $name:ident $variant:ident ( $payload:ty )) => {
        impl ::std::convert::From<$payload> for $name {
            fn from(msg: $payload) -> Self {
                $name::$variant(msg)
            }
        }
    };
    (@lane $name:ident $variant:ident) => {};

    (@pat $name:ident $variant:ident $bind:ident) => { $name::$variant };
    (@pat $name:ident $variant:ident $bind:ident ( $payload:ty )) => { $name::$variant($bind) };
    (@pat $name:ident $variant:ident $bind:ident { $( $field:ident )* }) => {
        $name::$variant { $( $field ),* }
    };

    (@enc $out:ident $bind:ident) => {};
    (@enc $out:ident $bind:ident ( $payload:ty )) => {
        $crate::codec::WireCodec::encode($bind, $out);
    };
    (@enc $out:ident $bind:ident { $( $field:ident )* }) => {
        $( $crate::codec::WireCodec::encode($field, $out); )*
    };

    (@dec $name:ident $variant:ident $r:ident) => { $name::$variant };
    (@dec $name:ident $variant:ident $r:ident ( $payload:ty )) => {
        $name::$variant(<$payload as $crate::codec::WireCodec>::decode($r)?)
    };
    (@dec $name:ident $variant:ident $r:ident { $( $field:ident )* }) => {
        $name::$variant { $( $field: $crate::codec::WireCodec::decode($r)?, )* }
    };
}

/// Implements [`crate::Process`] for a type that implements [`Layer`]: every
/// entry point hands the step's [`Context`] itself to the layer as its sink,
/// and both receive methods lend the message to [`Layer::handle`]. Keeps
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
                $crate::stack::Layer::handle(self, from, &msg, ctx);
            }

            fn on_delivery(
                &mut self,
                from: $crate::ProcessId,
                msg: &Self::Msg,
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
            .map(|(to, p)| (to, p.get().clone()))
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
        fn handle<O: Sink<Wire>>(&mut self, from: ProcessId, wire: &Wire, out: &mut O) {
            match wire {
                Wire::Beat => self.beats += 1,
                Wire::Lower(Lower(n)) => {
                    out.push(from, Lower(n + 1));
                    out.push(from, Upper("ack".into()));
                }
                Wire::Upper(Upper(s)) => self.upper.push(s.clone()),
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
        echo.on_delivery(pid(2), &Wire::Upper(Upper("u".into())), &mut ctx);
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
