//! # labels — bounded self-stabilizing epoch labels for reconfigurable membership
//!
//! Implementation of the labeling scheme of Section 4.1 of *Self-Stabilizing
//! Reconfiguration* (Algorithms 4.1/4.2, adapted from the fixed-membership
//! scheme of Dolev et al., SSS 2015). Many distributed services need an
//! "unbounded" counter (ballots, tags, view identifiers); a transient fault
//! can exhaust any integer counter instantly, so the counter is attached to a
//! bounded **epoch label**, and a new maximal label is created whenever the
//! current one is exhausted or found to be stale.
//!
//! The configuration members (as provided by the `reconfig` crate) run the
//! label exchange; on every reconfiguration the label structures are rebuilt
//! for the new member set and labels of non-members are voided.
//!
//! A [`Labeler`] sends into a [`simnet::stack::Sink`]; an
//! [`Outbox`](simnet::stack::Outbox) collects what a step sent.
//!
//! ```
//! use labels::{Label, Labeler};
//! use reconfig::config_set;
//! use simnet::stack::Outbox;
//! use simnet::ProcessId;
//!
//! let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
//! let cfg = config_set([0, 1]);
//! let mut a = Labeler::new(p0, cfg.clone());
//! let mut b = Labeler::new(p1, cfg);
//! for _ in 0..10 {
//!     let mut out = Outbox::new();
//!     a.step(&mut out);
//!     for (to, m) in out.into_messages() { assert_eq!(to, p1); b.on_message(p0, &m); }
//!     let mut out = Outbox::new();
//!     b.step(&mut out);
//!     for (to, m) in out.into_messages() { assert_eq!(to, p0); a.on_message(p1, &m); }
//! }
//! let max: Label = a.local_max().unwrap();
//! assert_eq!(b.local_max(), Some(max));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod label;
pub mod scheme;

pub use label::{Label, LabelPair, LabelQueue, ANTISTINGS, STING_DOMAIN};
pub use scheme::{Labeler, LabelerMsg};
