//! # counters — practically-unbounded self-stabilizing counters
//!
//! Implementation of Section 4.2 of *Self-Stabilizing Reconfiguration*
//! (Algorithms 4.3–4.5): a counter `⟨label, seqn, wid⟩` whose sequence number
//! lives inside a bounded epoch label of the [`labels`] crate. Configuration
//! members maintain the globally maximal counter; increments are two-phase
//! majority operations (read the maximum from a majority, write the
//! incremented value back to a majority), so completed increments are
//! totally ordered and monotone (Theorem 4.6) even across label rollovers
//! caused by exhaustion or transient faults.
//!
//! Every step sends into a [`simnet::stack::Sink`]; an
//! [`Outbox`](simnet::stack::Outbox) collects what a step sent.
//!
//! ```
//! use counters::{CounterNode, IncrementOutcome};
//! use reconfig::config_set;
//! use simnet::stack::{Layer, Outbox};
//! use simnet::ProcessId;
//!
//! // A single-member configuration makes the quorum trivial.
//! let me = ProcessId::new(0);
//! let mut node = CounterNode::new(me, config_set([0]));
//! let mut out = Outbox::new();
//! node.poll(&[me], &mut out);
//! node.request_increment(&mut out);
//! // Loop every message back to ourselves (we are the only member).
//! let mut queue = out.into_messages();
//! while let Some((to, msg)) = queue.pop() {
//!     assert_eq!(to, me);
//!     let mut replies = Outbox::new();
//!     node.handle(me, msg, &mut replies);
//!     queue.extend(replies.into_messages());
//! }
//! assert!(matches!(node.take_completed().pop(), Some(IncrementOutcome::Committed(_))));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod service;

pub use counter::{Counter, DEFAULT_EXHAUSTION_BOUND};
pub use service::{CounterMsg, CounterNode, IncrementOutcome, QuorumMsg, DEFAULT_OP_TIMEOUT};
