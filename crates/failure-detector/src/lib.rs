//! # failure-detector — the (N,Θ)-failure detector
//!
//! Section 2 of *Self-Stabilizing Reconfiguration* describes an extension of
//! the Θ-failure detector: every processor `pᵢ` keeps an ordered heartbeat
//! count vector `nonCrashed` with one entry per processor it exchanges the
//! token with. When `pᵢ` receives the token from `pⱼ` it sets `pⱼ`'s count to
//! zero and increments every other count by one. Processors are thereby
//! ranked by how recently they communicated; a crashed processor's count
//! grows without bound and an ever-expanding *gap* separates it from the
//! counts of live processors. The gap also yields an estimate `nᵢ ≤ N` of the
//! number of processors that are currently active.
//!
//! The detector is *unreliable*: its output may be arbitrarily wrong during
//! unstable periods. The reconfiguration scheme only requires its reliability
//! temporarily — to regain safety after transient faults — and conditions
//! liveness on its (unreliable) signals afterwards.
//!
//! ```
//! use failure_detector::ThetaFailureDetector;
//! use simnet::ProcessId;
//!
//! let me = ProcessId::new(0);
//! let peer = ProcessId::new(1);
//! let dead = ProcessId::new(2);
//! let mut fd = ThetaFailureDetector::new(me, 8, 16);
//! for _ in 0..40 {
//!     fd.heartbeat(peer);
//! }
//! // `peer` keeps renewing its heartbeat while `dead` (which we heard from
//! // once, long ago) falls behind and is eventually suspected.
//! fd.heartbeat(dead);
//! for _ in 0..40 {
//!     fd.heartbeat(peer);
//! }
//! assert!(fd.trusts(peer));
//! assert!(!fd.trusts(dead));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod theta;

pub use estimate::gap_estimate;
pub use theta::ThetaFailureDetector;
