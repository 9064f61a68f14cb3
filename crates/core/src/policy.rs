//! Application-facing policy hooks.
//!
//! The paper deliberately leaves two decisions to the application:
//!
//! * **when to reconfigure** — the prediction function `evalConf()` consulted
//!   by the Reconfiguration Management layer (Section 3.2 suggests, e.g.,
//!   "reconfigure once 1/4 of the members appear to have failed", or any
//!   application-specific criterion);
//! * **whom to admit** — the `passQuery()` interface consulted by
//!   configuration members before granting a joining processor a pass
//!   (Section 3.3).
//!
//! [`EvalPolicy`] and [`AdmissionPolicy`] are concrete, serialization-free
//! realizations of those hooks, sufficient for the experiments of the paper;
//! richer applications can still drive reconfiguration directly through
//! [`crate::node::ReconfigNode::request_reconfiguration`] (that is exactly
//! what the coordinator-led reconfiguration of Algorithm 4.6 does).

use std::collections::BTreeSet;

use simnet::ProcessId;

use crate::types::ConfigSet;

/// The prediction function `evalConf()` used by recMA.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum EvalPolicy {
    /// Never request a reconfiguration (the default; recMA still reacts to
    /// majority loss through its `noMaj` path).
    #[default]
    Never,
    /// Always request a reconfiguration (useful in tests and benchmarks).
    Always,
    /// Request a reconfiguration once the fraction of configuration members
    /// that are *not* trusted reaches `fraction` (e.g. `0.25` reproduces the
    /// paper's "1/4 of the members appear to have failed" example).
    MissingFraction {
        /// Fraction of untrusted members, in `[0, 1]`, that triggers the
        /// request.
        fraction: f64,
    },
}

impl EvalPolicy {
    /// Evaluates the policy for the current configuration and trusted set.
    pub fn requires_reconfiguration(
        &self,
        config: &ConfigSet,
        trusted: &BTreeSet<ProcessId>,
    ) -> bool {
        match self {
            EvalPolicy::Never => false,
            EvalPolicy::Always => true,
            EvalPolicy::MissingFraction { fraction } => {
                if config.is_empty() {
                    return false;
                }
                let missing = config.difference(trusted).count();
                (missing as f64) >= fraction * (config.len() as f64) && missing > 0
            }
        }
    }
}

/// The admission interface `passQuery()` used by configuration members when a
/// processor asks to join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Grant a pass to every joiner (the default).
    #[default]
    AdmitAll,
    /// Deny every joiner (the application has closed participation).
    DenyAll,
}

impl AdmissionPolicy {
    /// Answers a join request from `joiner`.
    pub fn admit(&self, _joiner: ProcessId) -> bool {
        matches!(self, AdmissionPolicy::AdmitAll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::config_set;

    #[test]
    fn never_and_always() {
        let cfg = config_set([1, 2, 3, 4]);
        let trusted: BTreeSet<ProcessId> = config_set([1, 2]);
        assert!(!EvalPolicy::Never.requires_reconfiguration(&cfg, &trusted));
        assert!(EvalPolicy::Always.requires_reconfiguration(&cfg, &trusted));
        assert_eq!(EvalPolicy::default(), EvalPolicy::Never);
    }

    #[test]
    fn missing_fraction_threshold() {
        let cfg = config_set([1, 2, 3, 4]);
        let policy = EvalPolicy::MissingFraction { fraction: 0.25 };
        // All members trusted: no reconfiguration.
        assert!(!policy.requires_reconfiguration(&cfg, &config_set([1, 2, 3, 4])));
        // One of four missing (exactly 25%): triggers.
        assert!(policy.requires_reconfiguration(&cfg, &config_set([1, 2, 3])));
        // Empty configuration never triggers the prediction function.
        assert!(!policy.requires_reconfiguration(&ConfigSet::new(), &config_set([1])));
    }

    #[test]
    fn admission_policies() {
        assert!(AdmissionPolicy::AdmitAll.admit(ProcessId::new(9)));
        assert!(!AdmissionPolicy::DenyAll.admit(ProcessId::new(9)));
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::AdmitAll);
    }
}
