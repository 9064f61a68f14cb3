//! # selfstab-reconfig — façade crate
//!
//! One-stop re-export of the workspace implementing *Self-Stabilizing
//! Reconfiguration* (Dolev, Georgiou, Marcoullis, Schiller; MIDDLEWARE 2016):
//!
//! * [`sim`] — the deterministic simulation of the paper's system model;
//! * [`fd`] — the `(N,Θ)`-failure detector;
//! * [`reconfiguration`] — the core contribution: recSA, recMA and the
//!   joining mechanism;
//! * [`labeling`] — the bounded epoch-label scheme;
//! * [`counting`] — the practically-unbounded counter service;
//! * [`replication`] — virtually synchronous SMR and the MWMR register
//!   emulation.
//!
//! See `README.md` for a guided tour and `examples/` for runnable scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The simulation substrate (re-export of the `simnet` crate).
pub use simnet as sim;

/// The `(N,Θ)`-failure detector (re-export of the `failure-detector` crate).
pub use failure_detector as fd;

/// The self-stabilizing reconfiguration scheme (re-export of the `reconfig`
/// crate).
pub use reconfig as reconfiguration;

/// The bounded labeling scheme (re-export of the `labels` crate).
pub use labels as labeling;

/// The counter increment service (re-export of the `counters` crate).
pub use counters as counting;

/// Virtual synchrony, SMR and shared memory (re-export of the `vssmr` crate).
pub use vssmr as replication;

/// The quorum-based MWMR shared-memory emulation (re-export of the
/// `sharedmem` crate).
pub use sharedmem as shared_memory;

/// Compiles and runs the Rust examples of `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let id = crate::sim::ProcessId::new(1);
        assert_eq!(id.as_u32(), 1);
        let cfg = crate::reconfiguration::config_set([0, 1, 2]);
        assert_eq!(cfg.len(), 3);
    }
}
