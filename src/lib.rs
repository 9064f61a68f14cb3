//! # selfstab-reconfig — the workspace root
//!
//! The workspace implements *Self-Stabilizing Reconfiguration* (Dolev,
//! Georgiou, Marcoullis, Schiller; MIDDLEWARE 2016) as one crate per layer:
//! `simnet`, `failure-detector`, `reconfig`, `labels`, `counters`, `vssmr`
//! and `sharedmem`. Use those crates directly. This package re-exports
//! nothing: it hosts the cross-crate tests under `tests/` and runs the Rust
//! examples of `README.md` as doctests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Compiles and runs the Rust examples of `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
