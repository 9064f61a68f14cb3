//! Core data types of the reconfiguration scheme.
//!
//! The values below correspond one-to-one to the fields of Algorithm 3.1
//! (recSA): the per-processor `config[]` entries, the replacement
//! notifications `prp[] = ⟨phase, set⟩`, and the `echo[]` triples used by the
//! unison-style phase coordination.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use simnet::ProcessId;

/// A quorum configuration: a non-empty set of processors. Majorities of this
/// set are the quorums used by the applications (Section 2 notes any quorum
/// system generated from the set could be used instead).
pub type ConfigSet = BTreeSet<ProcessId>;

/// A reference-counted processor set, the unit recSA puts on the wire.
///
/// recSA's line-29 broadcast sends the sender's failure-detector reading,
/// participant set and configuration to **every** trusted processor, and its
/// predicates (`noReco()`, `fdViewsAgree`, the unison echoes) compare those
/// sets across **every** peer each round. With plain owned sets both are
/// `O(n)` per peer — `O(n³)` system-wide per round, which is what capped
/// simulations at a few hundred processors. Shared sets make the per-peer
/// cost `O(1)`: construction via [`shared_set`] *interns* the value, so equal
/// sets are represented by the same allocation and equality short-circuits on
/// pointer identity (see [`same_set`]). The sender's sets travel inside one
/// shared [`RecSaOwn`](crate::RecSaOwn) per broadcast, and a receiver keeps
/// the handle it already holds when it is sent the same allocation again, so
/// a converged system neither copies nor re-stores a set per message.
pub type SharedSet = Arc<BTreeSet<ProcessId>>;

/// A reference-counted [`ConfigValue`] (interned via [`shared_config`]).
pub type SharedConfig = Arc<ConfigValue>;

/// A reference-counted [`Notification`] (interned via [`shared_ntf`]).
pub type SharedNtf = Arc<Notification>;

thread_local! {
    static SET_INTERN: RefCell<Intern<BTreeSet<ProcessId>>> = RefCell::new(Intern::new());
    static CONFIG_INTERN: RefCell<Intern<ConfigValue>> = RefCell::new(Intern::new());
    static NTF_INTERN: RefCell<Intern<Notification>> = RefCell::new(Intern::new());
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    // DefaultHasher::new() is keyed deterministically, so intern-table
    // behaviour (and with it simulation traces) is reproducible.
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// How many interned entries a table may hold before a full sweep drops the
/// values nobody outside the table references any more. Bounds table memory
/// by the number of *live* distinct values (plus the sweep slack), not by the
/// number of distinct values ever seen.
const INTERN_SWEEP_THRESHOLD: usize = 4096;

struct Intern<T> {
    buckets: HashMap<u64, Vec<Arc<T>>>,
    len: usize,
}

impl<T> Intern<T> {
    fn new() -> Self {
        Intern {
            buckets: HashMap::new(),
            len: 0,
        }
    }
}

fn intern<T: Eq + Hash>(table: &RefCell<Intern<T>>, value: T) -> Arc<T> {
    let mut table = table.borrow_mut();
    let hash = hash_of(&value);
    if let Some(canonical) = table
        .buckets
        .get(&hash)
        .and_then(|bucket| bucket.iter().find(|c| ***c == value))
    {
        return canonical.clone();
    }
    if table.len >= INTERN_SWEEP_THRESHOLD {
        table.buckets.retain(|_, bucket| {
            bucket.retain(|c| Arc::strong_count(c) > 1);
            !bucket.is_empty()
        });
        table.len = table.buckets.values().map(Vec::len).sum();
    }
    let arc = Arc::new(value);
    table.buckets.entry(hash).or_default().push(arc.clone());
    table.len += 1;
    arc
}

/// Interns `set`: equal sets constructed on the same thread return the same
/// allocation, making [`same_set`] an `O(1)` pointer comparison in the common
/// (converged) case.
pub fn shared_set(set: BTreeSet<ProcessId>) -> SharedSet {
    SET_INTERN.with(|t| intern(t, set))
}

/// Interns a [`ConfigValue`] (see [`shared_set`]).
pub fn shared_config(value: ConfigValue) -> SharedConfig {
    CONFIG_INTERN.with(|t| intern(t, value))
}

/// Interns a [`Notification`] (see [`shared_set`]).
pub fn shared_ntf(ntf: Notification) -> SharedNtf {
    NTF_INTERN.with(|t| intern(t, ntf))
}

/// Set equality with the interning fast path: pointer identity decides for
/// values produced by [`shared_set`]; a value comparison backs up arbitrary
/// `Arc`s (e.g. test-constructed ones).
pub fn same_set(a: &SharedSet, b: &SharedSet) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// [`ConfigValue`] equality with the interning fast path (see [`same_set`]).
pub fn same_config(a: &SharedConfig, b: &SharedConfig) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// [`Notification`] equality with the interning fast path (see [`same_set`]).
pub fn same_ntf(a: &SharedNtf, b: &SharedNtf) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

simnet::wire_enum! {
    /// The value of a `config[]` entry.
    ///
    /// * [`ConfigValue::NonParticipant`] is the paper's `]` marker: the processor
    ///   has not (yet) joined the participant set.
    /// * [`ConfigValue::Bottom`] is `⊥`: the processor detected stale information
    ///   and takes part in a brute-force configuration reset.
    /// * [`ConfigValue::Set`] is an actual configuration.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub enum ConfigValue {
        /// `]` — the processor is not a participant.
        #[default]
        NonParticipant,
        /// `⊥` — a configuration reset is in progress.
        Bottom,
        /// A concrete quorum configuration.
        Set(ConfigSet),
    }
}

impl ConfigValue {
    /// Returns the configuration set if this value holds one.
    pub fn as_set(&self) -> Option<&ConfigSet> {
        match self {
            ConfigValue::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the configuration set if this value holds a non-empty one.
    #[inline]
    pub fn non_empty_set(&self) -> Option<&ConfigSet> {
        self.as_set().filter(|set| !set.is_empty())
    }

    /// Returns `true` for [`ConfigValue::NonParticipant`] (`]`).
    pub fn is_non_participant(&self) -> bool {
        matches!(self, ConfigValue::NonParticipant)
    }

    /// Returns `true` for [`ConfigValue::Bottom`] (`⊥`).
    pub fn is_bottom(&self) -> bool {
        matches!(self, ConfigValue::Bottom)
    }

    /// Returns `true` when this value holds an empty set — which is never a
    /// legal configuration and counts as stale information (type-2).
    pub fn is_empty_set(&self) -> bool {
        matches!(self, ConfigValue::Set(s) if s.is_empty())
    }

    /// Returns `true` when this value denotes that the holder participates in
    /// the protocol (anything other than `]`).
    pub fn marks_participant(&self) -> bool {
        !self.is_non_participant()
    }
}

impl fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigValue::NonParticipant => write!(f, "]"),
            ConfigValue::Bottom => write!(f, "⊥"),
            ConfigValue::Set(s) => {
                write!(f, "{{")?;
                for (i, p) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

simnet::wire_enum! {
    /// The phase of the delicate-replacement automaton (Figure 2 of the paper).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub enum Phase {
        /// Phase 0: no replacement in progress; the algorithm only monitors for
        /// stale information.
        #[default]
        Zero,
        /// Phase 1: converge to a single (lexicographically maximal) proposal.
        One,
        /// Phase 2: replace the configuration with the selected proposal.
        Two,
    }
}

impl Phase {
    /// The numeric value used by the paper's `degree` macro.
    pub fn as_u8(self) -> u8 {
        match self {
            Phase::Zero => 0,
            Phase::One => 1,
            Phase::Two => 2,
        }
    }

    /// The phase transition of the paper's `increment(phs)` macro:
    /// `1 → 2 → 0` (and `0 → 0`).
    pub fn increment(self) -> Phase {
        match self {
            Phase::Zero => Phase::Zero,
            Phase::One => Phase::Two,
            Phase::Two => Phase::Zero,
        }
    }

    /// The phase that cyclically follows this one (`x + 1 mod 3`), used by
    /// the type-3 stale-information test.
    pub fn successor(self) -> Phase {
        match self {
            Phase::Zero => Phase::One,
            Phase::One => Phase::Two,
            Phase::Two => Phase::Zero,
        }
    }
}

/// A configuration-replacement notification `prp = ⟨phase, set⟩`.
///
/// The default notification `⟨0, ⊥⟩` (`Notification::default()`) encodes "no
/// proposal". Notifications are ordered lexicographically — first by phase,
/// then by the proposed set — which is how the protocol deterministically
/// selects a single proposal among concurrent ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Notification {
    /// The replacement phase.
    pub phase: Phase,
    /// The proposed configuration set, or `None` (`⊥`) for no proposal.
    pub set: Option<ConfigSet>,
}

impl Notification {
    /// The default notification `⟨0, ⊥⟩` (the paper's `dfltNtf`).
    pub fn dflt() -> Self {
        Notification::default()
    }

    /// Creates a notification in the given phase for the given set.
    pub fn new(phase: Phase, set: ConfigSet) -> Self {
        Notification {
            phase,
            set: Some(set),
        }
    }

    /// A fresh phase-1 proposal for `set` (what `estab(set)` creates).
    pub fn proposal(set: ConfigSet) -> Self {
        Notification::new(Phase::One, set)
    }

    /// Returns `true` for the default ("no proposal") notification.
    pub fn is_default(&self) -> bool {
        self.phase == Phase::Zero && self.set.is_none()
    }

    /// The paper's `degree` value: `2·phase + (1 if all else 0)`.
    pub fn degree(&self, all: bool) -> u8 {
        2 * self.phase.as_u8() + u8::from(all)
    }

    /// Type-1 stale information: a phase-0 notification carrying a set.
    pub fn is_type1_stale(&self) -> bool {
        self.phase == Phase::Zero && self.set.is_some()
    }
}

impl fmt::Display for Notification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.set {
            None => write!(f, "⟨{}, ⊥⟩", self.phase.as_u8()),
            Some(s) => write!(f, "⟨{}, {} procs⟩", self.phase.as_u8(), s.len()),
        }
    }
}

/// The triple a processor echoes back to a peer: the peer's participant set,
/// notification and `all` flag as most recently received (the paper's
/// `echo[]` entries). The set and notification are shared (see [`SharedSet`])
/// because an echo rides on every broadcast message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EchoTriple {
    /// The echoed participant set (`FD[·].part`).
    pub part: SharedSet,
    /// The echoed notification.
    pub prp: SharedNtf,
    /// The echoed `all` flag.
    pub all: bool,
}

/// Builds a configuration set from raw identifiers (test/bench convenience).
pub fn config_set(ids: impl IntoIterator<Item = u32>) -> ConfigSet {
    ids.into_iter().map(ProcessId::new).collect()
}

// --- wire codec ---------------------------------------------------------
//
// The enums above derive theirs in `wire_enum!`. The shared `Arc` wrappers
// encode as their contents; decoding does not re-intern, which is safe
// because `same_set`/`same_config`/`same_ntf` fall back to value equality.

simnet::wire_struct_codec!(Notification { phase, set });
simnet::wire_struct_codec!(EchoTriple { part, prp, all });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_value_classification() {
        assert!(ConfigValue::NonParticipant.is_non_participant());
        assert!(!ConfigValue::NonParticipant.marks_participant());
        assert!(ConfigValue::Bottom.is_bottom());
        assert!(ConfigValue::Bottom.marks_participant());
        let empty = ConfigValue::Set(ConfigSet::new());
        assert!(empty.is_empty_set());
        let set = ConfigValue::Set(config_set([1, 2, 3]));
        assert!(!set.is_empty_set());
        assert_eq!(set.as_set().unwrap().len(), 3);
        assert!(ConfigValue::Bottom.as_set().is_none());
    }

    #[test]
    fn config_value_display() {
        assert_eq!(format!("{}", ConfigValue::NonParticipant), "]");
        assert_eq!(format!("{}", ConfigValue::Bottom), "⊥");
        assert_eq!(
            format!("{}", ConfigValue::Set(config_set([1, 2]))),
            "{p1,p2}"
        );
    }

    #[test]
    fn phase_increment_follows_the_automaton() {
        assert_eq!(Phase::Zero.increment(), Phase::Zero);
        assert_eq!(Phase::One.increment(), Phase::Two);
        assert_eq!(Phase::Two.increment(), Phase::Zero);
        assert_eq!(Phase::Zero.successor(), Phase::One);
        assert_eq!(Phase::Two.successor(), Phase::Zero);
    }

    #[test]
    fn default_notification_is_no_proposal() {
        let d = Notification::dflt();
        assert!(d.is_default());
        assert_eq!(d.phase, Phase::Zero);
        assert!(d.set.is_none());
        assert!(!d.is_type1_stale());
    }

    #[test]
    fn phase_zero_with_set_is_type1_stale() {
        let stale = Notification {
            phase: Phase::Zero,
            set: Some(config_set([1])),
        };
        assert!(stale.is_type1_stale());
        assert!(!Notification::proposal(config_set([1])).is_type1_stale());
    }

    #[test]
    fn notification_ordering_is_lexical_phase_then_set() {
        let a = Notification::new(Phase::One, config_set([1, 2]));
        let b = Notification::new(Phase::One, config_set([1, 3]));
        let c = Notification::new(Phase::Two, config_set([1, 2]));
        let d = Notification::dflt();
        assert!(d < a);
        assert!(a < b);
        assert!(b < c, "higher phase dominates set order");
        let max = [a.clone(), b.clone(), c.clone(), d]
            .into_iter()
            .max()
            .unwrap();
        assert_eq!(max, c);
    }

    #[test]
    fn degree_combines_phase_and_all_flag() {
        let n1 = Notification::proposal(config_set([1]));
        assert_eq!(n1.degree(false), 2);
        assert_eq!(n1.degree(true), 3);
        let n2 = Notification::new(Phase::Two, config_set([1]));
        assert_eq!(n2.degree(true), 5);
        assert_eq!(Notification::dflt().degree(false), 0);
    }

    #[test]
    fn echo_triple_default_is_empty() {
        let e = EchoTriple::default();
        assert!(e.part.is_empty());
        assert!(e.prp.is_default());
        assert!(!e.all);
    }

    #[test]
    fn interning_canonicalizes_equal_values() {
        let a = shared_set(config_set([1, 2, 3]));
        let b = shared_set(config_set([1, 2, 3]));
        assert!(Arc::ptr_eq(&a, &b), "equal sets must share one allocation");
        assert!(same_set(&a, &b));
        assert!(!same_set(&a, &shared_set(config_set([4]))));

        // A hand-rolled Arc (never interned) still compares by value.
        let outsider = Arc::new(config_set([1, 2, 3]));
        assert!(same_set(&a, &outsider));

        let c1 = shared_config(ConfigValue::Set(config_set([1, 2])));
        let c2 = shared_config(ConfigValue::Set(config_set([1, 2])));
        assert!(Arc::ptr_eq(&c1, &c2));
        assert!(same_config(&c1, &c2));
        assert!(!same_config(&c1, &shared_config(ConfigValue::Bottom)));

        let n1 = shared_ntf(Notification::proposal(config_set([9])));
        let n2 = shared_ntf(Notification::proposal(config_set([9])));
        assert!(Arc::ptr_eq(&n1, &n2));
        assert!(same_ntf(&n1, &n2));
    }
}
