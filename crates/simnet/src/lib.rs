//! # simnet — deterministic simulation of the paper's system model
//!
//! This crate implements the execution environment assumed by
//! *Self-Stabilizing Reconfiguration* (Dolev, Georgiou, Marcoullis, Schiller;
//! MIDDLEWARE 2016, technical report arXiv:1606.00195): an asynchronous,
//! fully connected message-passing system of processors with
//!
//! * bounded-capacity communication channels that may **lose, duplicate and
//!   reorder** packets (but never create them), satisfying *fair
//!   communication* — a packet that is sent infinitely often is received
//!   infinitely often;
//! * **crash-stop** failures, **joins** of new processors, and — because the
//!   algorithms are self-stabilizing — **transient faults** that corrupt the
//!   local state of processors and the content of channels arbitrarily;
//! * the **interleaving model**: at most one atomic step executes at a time,
//!   each step being a local computation followed by a single send or
//!   receive.
//!
//! The simulator is deterministic given a seed, which makes every experiment
//! in the benchmark harness reproducible.
//!
//! Scheduling is **event-driven**: a run queue wakes a process only when its
//! timer is due or a packet addressed to it has become deliverable, and
//! delivery reads a per-destination channel index instead of scanning the
//! whole network (see [`scheduler`]). Debug builds check every round that
//! the run queue visits exactly the processes a scan over all of them finds
//! due.
//!
//! The [`stack`] module provides the protocol-stack composition layer
//! ([`stack::Layer`], [`stack::Sink`], [`stack::Outbox`], [`wire_enum!`])
//! that every composite node in the workspace uses to multiplex its
//! sub-layer traffic over one wire format; a step's [`Context`] is the sink
//! its layers send into.
//!
//! The fault layer is driven by the **chaos-campaign engine**: a declarative
//! [`scenario::Scenario`] holds one fault schedule, a list of
//! [`plan::Fault`] values — crash, churn, partition (symmetric *and*
//! one-directional), message-spike, state-corruption, payload-corruption,
//! gray-failure, clock-skew, crash-recovery and Byzantine injection, one per
//! `--plan` token ([`plan`], with window composition in [`fault`] and joiner
//! confinement in [`partition`]) — each contributing typed
//! [`plan::FaultAction`]s the runner applies, counts and checks. The
//! [`campaign`] driver sweeps scenarios × seeds, and
//! [`report`] renders deterministic JSON reports. Protocol crates plug in
//! through [`scenario::ScenarioTarget`]; the `simctl` binary runs the named
//! scenarios of [`scenario::catalog`] from the command line and diffs two
//! reports for PR-to-PR comparison. The complete fault vocabulary, with its
//! mapping to the paper's model and the invariants each class is checked
//! against, is catalogued in `docs/FAULTS.md` at the workspace root.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Simulation, SimConfig, Process, Context, ProcessId};
//!
//! /// A process that floods a counter value and adopts the maximum it hears.
//! #[derive(Debug, Default)]
//! struct MaxFlood { value: u64 }
//!
//! impl Process for MaxFlood {
//!     type Msg = u64;
//!     fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
//!         for peer in ctx.peers() {
//!             ctx.send(peer, self.value);
//!         }
//!     }
//!     fn on_message(&mut self, _from: ProcessId, msg: u64, _ctx: &mut Context<'_, u64>) {
//!         self.value = self.value.max(msg);
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default().with_seed(7));
//! for v in [3u64, 9, 1, 4] {
//!     sim.add_process(MaxFlood { value: v });
//! }
//! sim.run_rounds(20);
//! assert!(sim.processes().all(|(_, p)| p.value == 9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascending;
pub mod campaign;
pub mod channel;
pub mod codec;
pub mod config;
pub mod exec;
pub mod fault;
pub mod histogram;
pub mod history;
pub mod linearize;
pub mod load;
pub mod metrics;
pub mod network;
pub mod partition;
pub mod payload;
pub mod peer_table;
pub mod plan;
pub mod process;
pub mod report;
pub mod rng;
pub mod scenario;
pub mod scheduler;
pub mod stack;
#[cfg(test)]
pub(crate) mod testutil;
pub mod time;

pub use ascending::Ascending;
pub use campaign::{Campaign, CampaignReport, RunRecord};
pub use channel::{ChannelPolicy, InFlight};
pub use codec::{DecodeError, Reader, WireCodec};
pub use config::{SchedulerMode, SimConfig};
pub use fault::SpikeSpec;
pub use histogram::Histogram;
pub use history::{History, HistoryCfg, HistoryRecorder, Observed, OpKind, OpResponse};
pub use linearize::{Spec, Verdict};
pub use load::{Arrival, LoadProfile};
pub use metrics::Metrics;
pub use network::{ChannelView, Network};
pub use payload::Payload;
pub use peer_table::PeerTable;
pub use plan::{Fault, FaultAction, ForgeKind};
pub use process::{Context, Process, ProcessId, ProcessStatus};
pub use report::Json;
pub use rng::SimRng;
pub use scenario::{Agreement, LinkProfile, Scenario, ScenarioRun, ScenarioRunner, ScenarioTarget};
pub use scheduler::Simulation;
pub use stack::{Layer, Outbox, Sink};
pub use time::Round;
