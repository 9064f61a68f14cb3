//! # reconfig — the self-stabilizing reconfiguration scheme
//!
//! This crate is the primary contribution of *Self-Stabilizing
//! Reconfiguration* (Dolev, Georgiou, Marcoullis, Schiller; MIDDLEWARE 2016):
//! a reconfiguration service for asynchronous, dynamic message-passing
//! systems that recovers from **transient faults** — an arbitrary starting
//! state, including corrupted configurations, notifications and channel
//! contents — using only bounded local storage and bounded messages.
//!
//! The scheme consists of three cooperating layers, each with its own module:
//!
//! | Layer | Module | Paper |
//! |---|---|---|
//! | Reconfiguration Stability Assurance | [`recsa`] | Algorithm 3.1 |
//! | Reconfiguration Management | [`recma`] | Algorithm 3.2 |
//! | Joining mechanism | [`join`] | Algorithm 3.3 |
//!
//! [`node::ReconfigNode`] composes the three with the `(N,Θ)`-failure
//! detector into a single processor that can run inside a
//! [`simnet::Simulation`] or be embedded by the application crates
//! (`labels`, `counters`, `vssmr`).
//!
//! ## Quickstart
//!
//! ```
//! use reconfig::{NodeConfig, ReconfigNode};
//! use simnet::{ProcessId, SimConfig, Simulation};
//!
//! // Five processors boot with no agreed configuration (arbitrary state).
//! let mut sim = Simulation::new(SimConfig::default().with_seed(1));
//! for i in 0..5u32 {
//!     let id = ProcessId::new(i);
//!     sim.add_process_with_id(id, ReconfigNode::new_participant(id, NodeConfig::for_n(8)));
//! }
//! // The brute-force technique converges them onto a single configuration.
//! sim.run_rounds(100);
//! let cfg = sim.process(ProcessId::new(0)).unwrap().installed_config().unwrap();
//! for id in sim.active_ids() {
//!     assert_eq!(sim.process(id).unwrap().installed_config(), Some(cfg.clone()));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod join;
pub mod node;
pub mod policy;
pub mod quorum;
pub mod recma;
pub mod recsa;
pub mod types;

pub use join::{JoinMsg, Joining};
pub use node::{converged_config, corrupt_to_heartbeat, NodeConfig, ReconfigMsg, ReconfigNode};
pub use policy::{AdmissionPolicy, EvalPolicy};
pub use quorum::QuorumSystem;
pub use recma::{RecMa, RecMaMsg};
pub use recsa::{RecSa, RecSaMsg, RecSaOwn};
pub use types::{
    config_set, same_config, same_ntf, same_set, shared_config, shared_ntf, shared_set, ConfigSet,
    ConfigValue, EchoTriple, Notification, Phase, SharedConfig, SharedNtf, SharedSet,
};
