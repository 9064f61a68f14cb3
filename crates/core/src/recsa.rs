//! Reconfiguration Stability Assurance (recSA) — Algorithm 3.1.
//!
//! recSA guarantees that
//!
//! 1. all active processors eventually hold identical copies of a single
//!    configuration,
//! 2. when participants ask to replace the configuration (via
//!    [`RecSa::estab`]) a single proposal is selected and installed, and
//! 3. joining processors can eventually become participants (via
//!    [`RecSa::participate`]).
//!
//! It combines two techniques:
//!
//! * **brute-force stabilization** — on detecting stale information
//!   (Definition 3.1, types 1–4) a processor writes `⊥` into every `config[]`
//!   entry; the `⊥` propagates, and once the failure-detector readings of all
//!   trusted processors agree, everybody adopts its trusted set as the new
//!   configuration;
//! * **delicate replacement** — a three-phase, unison-coordinated automaton
//!   (Figure 2) that picks the lexicographically maximal proposal (phase 1),
//!   installs it (phase 2) and returns to monitoring (phase 0). Phase
//!   transitions require every participant to have *echoed* the same
//!   participant set, notification and `all` flag, and to have been observed
//!   (`allSeen`) completing the phase.
//!
//! The implementation follows the pseudocode of Algorithm 3.1; where the
//! technical report's notation is ambiguous we follow Definition 3.1 and the
//! correctness argument (Claims 3.9–3.13), and note the choice in comments.
//! recSA runs directly on `simnet`'s links, which lose, duplicate and reorder
//! packets within their bounded capacity: no reliable FIFO layer sits
//! underneath. Convergence under such links is checked by
//! `pairwise_distinct_configurations_converge_under_lossy_links`
//! (`tests/stale_information.rs`).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;

use simnet::stack::Sink;
use simnet::{Ascending, PeerTable, ProcessId};

use crate::types::{
    same_config, same_ntf, same_set, shared_config, shared_ntf, shared_set, ConfigSet, ConfigValue,
    EchoTriple, Notification, Phase, SharedConfig, SharedNtf, SharedSet,
};

/// The sender's half of a [`RecSaMsg`]: the values line 29 sends to every
/// trusted processor alike. The set-valued fields are shared (see
/// [`SharedSet`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecSaOwn {
    /// The sender's failure-detector reading (`FD[i]`).
    pub fd: SharedSet,
    /// The sender's participant set (`FD[i].part`).
    pub part: SharedSet,
    /// The sender's configuration value (`config[i]`).
    pub config: SharedConfig,
    /// The sender's replacement notification (`prp[i]`).
    pub prp: SharedNtf,
    /// The sender's `all[i]` flag.
    pub all: bool,
}

simnet::wire_struct_codec!(RecSaOwn {
    fd,
    part,
    config,
    prp,
    all
});

/// The protocol message broadcast by every participant at the end of each
/// `do forever` iteration (line 29 of Algorithm 3.1): the sender's own
/// values, the same for every receiver, plus a per-receiver echo.
///
/// The own half is one shared allocation. A broadcast builds it at most
/// once, and not at all while the sender's values are the ones its previous
/// broadcast carried, so a copy for one peer is three reference-count bumps
/// (`own` and the echo's two handles) and a 1,024-process broadcast copies
/// no set. On the wire an `Arc<T>` encodes as `T`: a frame is `fd`, `part`,
/// `config`, `prp`, `all` and then the echo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecSaMsg {
    /// The sender's own values, shared by every copy of one broadcast.
    pub own: Arc<RecSaOwn>,
    /// The per-receiver echo: the sender's most recent record of the
    /// *receiver's* participant set, notification and `all` flag.
    pub echo: EchoTriple,
}

simnet::wire_struct_codec!(RecSaMsg { own, echo });

/// Index `k` of the paper's per-processor arrays: what this processor holds
/// about `pₖ` (its own entry included). One record per peer, so handling a
/// message touches one table slot instead of six.
///
/// A `None` field is an array entry that was never written. It reads as the
/// line-31 default, but it is not the same thing as a stored default:
/// `configSet()` overwrites the entries that exist, not the ones that don't.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Peer {
    /// `config[k]` — own entry or most recently received value.
    config: Option<SharedConfig>,
    /// `FD[k]` — own detector reading or the value received from `pₖ`.
    fd: Option<SharedSet>,
    /// `FD[k].part` as received from `pₖ` (never set for the own entry; see
    /// [`RecSa::my_part_shared`]).
    part_rx: Option<SharedSet>,
    /// `prp[k]` — replacement notification.
    prp: Option<SharedNtf>,
    /// `all[k]` flag.
    all: bool,
    /// `echo[k]` — what `pₖ` last echoed back of our own values.
    echo: Option<EchoTriple>,
}

/// Stores `new` in `slot` unless `slot` already holds that allocation.
fn store<T>(slot: &mut Option<Arc<T>>, new: &Arc<T>) {
    if !slot.as_ref().is_some_and(|old| Arc::ptr_eq(old, new)) {
        *slot = Some(new.clone());
    }
}

/// The line-31 defaults, interned once per processor so that reading an
/// unwritten array entry hands out a reference instead of a table lookup.
#[derive(Debug, Clone)]
struct Defaults {
    config: SharedConfig,
    ntf: SharedNtf,
    set: SharedSet,
    echo: EchoTriple,
}

impl Defaults {
    fn new() -> Self {
        let ntf = shared_ntf(Notification::dflt());
        let set = shared_set(BTreeSet::new());
        Defaults {
            config: shared_config(ConfigValue::default()),
            echo: EchoTriple {
                part: set.clone(),
                prp: ntf.clone(),
                all: false,
            },
            ntf,
            set,
        }
    }
}

/// The state and behaviour of one processor's recSA layer.
///
/// Received values are stored as the shared allocations they arrived in, so
/// the cross-peer comparisons of `noReco()` and the unison machinery resolve
/// by pointer identity once the system has converged.
#[derive(Debug, Clone)]
pub struct RecSa {
    me: ProcessId,
    /// The `config[]`, `FD[]`, `prp[]`, `all[]` and `echo[]` arrays, one
    /// [`Peer`] record per index. Read and written per message and per peer
    /// per step, hence index-addressed; identifiers only a forged packet or a
    /// transient fault can produce spill (see [`PeerTable`]).
    peers: PeerTable<Peer>,
    dflt: Defaults,
    /// `allSeen` — peers observed to have completed the current phase.
    all_seen: BTreeSet<ProcessId>,
    /// Count of brute-force resets started locally (observability only).
    resets_started: u64,
    /// Count of configurations installed by delicate replacement
    /// (observability only).
    delicate_installs: u64,
    /// Memoized `FD[i].part`: the participant set is consulted many times
    /// per `do forever` iteration (recSA's own predicates, recMA's `core()`,
    /// the broadcast) but only changes when `FD[i]` or a `config[]` entry
    /// does, so it is recomputed lazily and dropped by every such mutation.
    part_cache: RefCell<Option<SharedSet>>,
    /// Bumped by every mutation of protocol state; keys `no_reco_cache`.
    state_version: u64,
    /// Memoized `noReco()` verdict at `state_version`. The predicate scans
    /// every peer's received values, and the composite node consults it
    /// several times per step (`getConfig()`, recMA's gate, the joining
    /// mechanism), so one evaluation per mutation batch suffices.
    no_reco_cache: RefCell<Option<(u64, bool)>>,
    /// The own half of the last broadcast, reused by the next one while it
    /// still holds the current values (see [`RecSa::own_to_send`]).
    sent_own: Option<Arc<RecSaOwn>>,
}

impl RecSa {
    /// Creates the recSA layer of a processor that considers itself a
    /// participant but knows no configuration yet (`config[i] = ⊥`). The
    /// brute-force technique will install its stabilized failure-detector
    /// reading as the first configuration — this is how a fresh deployment
    /// bootstraps, and equally how the protocol recovers from an arbitrary
    /// state.
    pub fn new_participant(me: ProcessId) -> Self {
        let mut s = Self::new_joiner(me);
        s.peer_mut(me).config = Some(shared_config(ConfigValue::Bottom));
        s
    }

    /// Creates the recSA layer of a participant that already knows the
    /// current configuration (e.g. when restarting a steady-state scenario).
    pub fn new_with_config(me: ProcessId, cfg: ConfigSet) -> Self {
        let mut s = Self::new_joiner(me);
        s.peer_mut(me).config = Some(shared_config(ConfigValue::Set(cfg)));
        s
    }

    /// Creates the recSA layer of a joining processor (`config[i] = ]`): it
    /// receives protocol messages but does not broadcast until it becomes a
    /// participant through the joining mechanism (line 31's boot interrupt).
    pub fn new_joiner(me: ProcessId) -> Self {
        RecSa {
            me,
            peers: PeerTable::new(),
            dflt: Defaults::new(),
            all_seen: BTreeSet::new(),
            resets_started: 0,
            delicate_installs: 0,
            part_cache: RefCell::new(None),
            state_version: 0,
            no_reco_cache: RefCell::new(None),
            sent_own: None,
        }
    }

    /// Drops the memoized participant set. Must be called after every
    /// mutation of `FD[i]` or any `config[]` entry (the two inputs of
    /// [`RecSa::my_part`]); [`RecSa::my_part_shared`] re-verifies coherence
    /// under `debug_assertions`.
    fn invalidate_part(&mut self) {
        *self.part_cache.get_mut() = None;
    }

    /// Records a mutation of protocol state, dropping the `noReco()`
    /// memoization. Every `&mut self` path that can change a `noReco()`
    /// input (any of the `FD[]`/`config[]`/`prp[]`/`echo[]`/`part_rx`
    /// tables) must pass through here; [`RecSa::no_reco`] re-verifies
    /// coherence under `debug_assertions`.
    fn touch(&mut self) {
        self.state_version = self.state_version.wrapping_add(1);
    }

    /// The identifier of this processor.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    // ----- accessors with the defaults prescribed by line 31 ---------------
    //
    // Each accessor borrows the stored shared allocation — one indexed
    // lookup, no refcount traffic — falling back to the canonical default for
    // entries never written.

    /// The record of `pₖ`, created empty when this is the first write to it.
    fn peer_mut(&mut self, k: ProcessId) -> &mut Peer {
        self.peers.get_or_insert_with(k, Peer::default)
    }

    fn config_of(&self, k: ProcessId) -> &SharedConfig {
        let stored = self.peers.get(k).and_then(|p| p.config.as_ref());
        stored.unwrap_or(&self.dflt.config)
    }

    fn prp_of(&self, k: ProcessId) -> &SharedNtf {
        let stored = self.peers.get(k).and_then(|p| p.prp.as_ref());
        stored.unwrap_or(&self.dflt.ntf)
    }

    fn all_of(&self, k: ProcessId) -> bool {
        self.peers.get(k).is_some_and(|p| p.all)
    }

    fn echo_of(&self, k: ProcessId) -> &EchoTriple {
        let stored = self.peers.get(k).and_then(|p| p.echo.as_ref());
        stored.unwrap_or(&self.dflt.echo)
    }

    fn fd_of(&self, k: ProcessId) -> &SharedSet {
        let stored = self.peers.get(k).and_then(|p| p.fd.as_ref());
        stored.unwrap_or(&self.dflt.set)
    }

    /// `FD[k].part` as last received from a peer `pₖ` (`k ≠ i`); recMA's
    /// `core()` reads it too.
    pub(crate) fn part_rx_of(&self, k: ProcessId) -> &SharedSet {
        debug_assert_ne!(k, self.me, "own participant set is computed, not received");
        let stored = self.peers.get(k).and_then(|p| p.part_rx.as_ref());
        stored.unwrap_or(&self.dflt.set)
    }

    /// The trusted set currently installed as `FD[i]` (set by the latest
    /// [`RecSa::step`]), as the shared allocation.
    pub fn my_trusted_shared(&self) -> SharedSet {
        self.fd_of(self.me).clone()
    }

    /// The participant set `FD[i].part = {pⱼ ∈ FD[i] : config[j] ≠ ]}`.
    pub fn my_part(&self) -> BTreeSet<ProcessId> {
        (*self.my_part_shared()).clone()
    }

    /// [`RecSa::my_part`] as the shared allocation recSA puts on the wire,
    /// memoized until the next `FD[i]`/`config[]` mutation.
    pub fn my_part_shared(&self) -> SharedSet {
        if let Some(cached) = self.part_cache.borrow().as_ref() {
            debug_assert_eq!(
                **cached,
                self.compute_my_part(),
                "stale participant-set cache: a mutation path missed invalidate_part()"
            );
            return cached.clone();
        }
        let part = shared_set(self.compute_my_part());
        *self.part_cache.borrow_mut() = Some(part.clone());
        part
    }

    fn compute_my_part(&self) -> BTreeSet<ProcessId> {
        self.fd_of(self.me)
            .iter()
            .copied()
            .filter(|p| self.config_of(*p).marks_participant())
            .collect()
    }

    /// Returns `true` when this processor is a participant
    /// (`config[i] ≠ ]`).
    pub fn is_participant(&self) -> bool {
        self.config_of(self.me).marks_participant()
    }

    /// Own `config[i]` value, behind the shared handle it is stored in: read
    /// it in place, or clone the handle to keep reading across a step.
    pub fn own_config_shared(&self) -> &SharedConfig {
        self.config_of(self.me)
    }

    /// Own notification `prp[i]`.
    pub fn own_notification(&self) -> Notification {
        (**self.own_notification_shared()).clone()
    }

    /// [`RecSa::own_notification`] behind the shared handle it is stored in.
    pub fn own_notification_shared(&self) -> &SharedNtf {
        self.prp_of(self.me)
    }

    /// The configuration this processor has installed, if it currently holds
    /// a concrete one.
    pub fn installed_config(&self) -> Option<ConfigSet> {
        self.own_config_shared().as_set().cloned()
    }

    /// Turns this processor into a brute-force resetter (`config[·] ← ⊥`).
    ///
    /// The composite node uses this to bootstrap a system in which no
    /// participant and no configuration can be observed at all (complete
    /// collapse, cf. the discussion of `chsConfig()` returning `⊥` in
    /// Section 3.1).
    pub fn force_reset(&mut self) {
        self.config_set_all(ConfigValue::Bottom);
    }

    /// Number of brute-force resets this processor has started.
    pub fn resets_started(&self) -> u64 {
        self.resets_started
    }

    /// Number of configurations installed via delicate replacement.
    pub fn delicate_installs(&self) -> u64 {
        self.delicate_installs
    }

    // ----- interface functions (lines 10–14) --------------------------------

    /// `chsConfig()`: the unique configuration known to the trusted
    /// processors, chosen deterministically (most frequent value, ties broken
    /// by value order); `⊥` when none is known.
    pub fn chs_config(&self) -> ConfigValue {
        (*self.chs_config_shared()).clone()
    }

    /// [`RecSa::chs_config`] returning the canonical shared allocation.
    pub fn chs_config_shared(&self) -> SharedConfig {
        // Distinct values are few in practice; a linear scan with the
        // pointer-equality fast path beats an ordered map keyed by whole
        // configurations. The scan buffer is a thread-local scratch (like
        // the intern tables in `types`): `chsConfig()` runs on every
        // processor's every step, and a fresh `Vec` here was the last
        // steady-state allocation on the simulator's hot path.
        thread_local! {
            static COUNTS: RefCell<Vec<(SharedConfig, usize)>> =
                const { RefCell::new(Vec::new()) };
        }
        COUNTS.with(|cell| {
            let mut counts = cell.borrow_mut();
            debug_assert!(counts.is_empty(), "chs_config_shared is not re-entrant");
            let scope = self.fd_of(self.me);
            let me_extra = (!scope.contains(&self.me)).then_some(self.me);
            for k in scope.iter().copied().chain(me_extra) {
                let v = self.config_of(k);
                if v.marks_participant() {
                    match counts.iter_mut().find(|(c, _)| same_config(c, v)) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((v.clone(), 1)),
                    }
                }
            }
            // Prefer concrete sets over ⊥; among sets pick the most frequent,
            // ties broken by value order (smaller set wins). The comparator
            // works on borrowed values — no clone per comparison.
            let best_set = counts
                .iter()
                .filter(|(v, _)| v.as_set().is_some())
                .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| (**vb).cmp(&**va)))
                .map(|(v, _)| v.clone());
            // Drop the borrowed handles but keep the capacity for the next call.
            counts.clear();
            match best_set {
                Some(v) => v,
                None => shared_config(ConfigValue::Bottom),
            }
        })
    }

    /// `getConfig()`: the current quorum configuration as seen by this
    /// processor (line 11).
    pub fn get_config(&self) -> ConfigValue {
        (*self.get_config_shared()).clone()
    }

    /// [`RecSa::get_config`] returning the canonical shared allocation.
    pub fn get_config_shared(&self) -> SharedConfig {
        if self.no_reco() {
            self.chs_config_shared()
        } else {
            self.config_of(self.me).clone()
        }
    }

    /// `noReco()`: `true` when **no** reconfiguration activity is apparent —
    /// the conditions under which `estab()` and `participate()` are enabled
    /// (line 12; the conjunction of the invariant tests).
    ///
    /// The verdict is memoized per `RecSa::touch` generation: the composite
    /// node evaluates the predicate several times between mutations.
    pub fn no_reco(&self) -> bool {
        if let Some((v, verdict)) = *self.no_reco_cache.borrow() {
            if v == self.state_version {
                debug_assert_eq!(
                    verdict,
                    self.compute_no_reco(),
                    "stale noReco() cache: a mutation path missed touch()"
                );
                return verdict;
            }
        }
        let verdict = self.compute_no_reco();
        *self.no_reco_cache.borrow_mut() = Some((self.state_version, verdict));
        verdict
    }

    fn compute_no_reco(&self) -> bool {
        let trusted = self.fd_of(self.me);
        let part = self.my_part_shared();

        // (1) Every trusted participant recognises this processor.
        for k in part.iter().filter(|k| **k != self.me) {
            if !self.fd_of(*k).contains(&self.me) {
                return false;
            }
        }

        // (2) Exactly one configuration exists among the trusted processors,
        //     and it is a concrete, non-empty set (no reset in progress).
        let me_extra = (!trusted.contains(&self.me)).then_some(self.me);
        let mut unique: Option<&SharedConfig> = None;
        for k in trusted.iter().copied().chain(me_extra) {
            let v = self.config_of(k);
            if v.marks_participant() {
                if v.is_bottom() || v.is_empty_set() {
                    return false;
                }
                match unique {
                    None => unique = Some(v),
                    Some(u) => {
                        if !same_config(u, v) {
                            return false;
                        }
                    }
                }
            }
        }
        if unique.is_none() {
            return false;
        }

        // (3) Participant sets agree (and, for participants, have been echoed
        //     back).
        let am_participant = self.is_participant();
        for k in part.iter().filter(|k| **k != self.me) {
            if !same_set(self.part_rx_of(*k), &part) {
                return false;
            }
            if am_participant && !same_set(&self.echo_of(*k).part, &part) {
                return false;
            }
        }

        // (4) No delicate replacement in progress.
        for k in trusted.iter().copied().chain(me_extra) {
            if !self.prp_of(k).is_default() {
                return false;
            }
        }
        true
    }

    /// `estab(set)`: request the replacement of the current configuration by
    /// `set` (line 13). Returns `true` when the request was accepted, i.e.
    /// no reconfiguration is taking place and `set` is non-empty and differs
    /// from the current configuration.
    pub fn estab(&mut self, set: ConfigSet) -> bool {
        if set.is_empty() || self.config_of(self.me).as_set() == Some(&set) {
            return false;
        }
        if !self.no_reco() {
            return false;
        }
        self.peer_mut(self.me).prp = Some(shared_ntf(Notification::proposal(set)));
        self.touch();
        true
    }

    /// `participate()`: turn this joining processor into a participant by
    /// adopting the agreed configuration (line 14). Returns `true` when the
    /// call had effect.
    pub fn participate(&mut self) -> bool {
        if !self.no_reco() {
            return false;
        }
        let chosen = self.chs_config_shared();
        self.peer_mut(self.me).config = Some(chosen);
        self.invalidate_part();
        self.touch();
        true
    }

    // ----- the do-forever loop (lines 24–29) ---------------------------------

    /// Executes one iteration of the `do forever` loop with the given fresh
    /// failure-detector reading, sending the broadcast into `out` (an
    /// embedder passes its own sink through [`Sink::nest`]).
    pub fn step(&mut self, trusted_now: &BTreeSet<ProcessId>, out: &mut impl Sink<RecSaMsg>) {
        // One generation per iteration covers every mutation the loop body
        // performs; `no_reco()` is never consulted mid-step.
        self.touch();
        // Steady-state fast path: when the reading (plus ourselves) equals
        // the installed set, keep its allocation (and the participant-set
        // cache keyed on it) without even building the union.
        let me = self.me;
        let extra = usize::from(!trusted_now.contains(&me));
        let installed = self.peers.get(me).and_then(|p| p.fd.as_ref());
        let unchanged = installed.is_some_and(|old| {
            old.len() == trusted_now.len() + extra
                && old.contains(&me)
                && trusted_now.is_subset(old)
        });
        if !unchanged {
            let mut trusted = trusted_now.clone();
            trusted.insert(me);
            self.peer_mut(me).fd = Some(shared_set(trusted));
            self.invalidate_part();
        }
        let trusted = self.fd_of(me).clone();

        // Clean after crashes (line 25a): entries of processors outside the
        // participant view are reset to (], dfltNtf). An entry is dirty only
        // when it still marks a participant or carries a notification —
        // i.e. differs observably from the (], dfltNtf) it would be reset
        // to — so the quiescent case is a read-only sweep.
        let part = self.my_part_shared();
        // Peers and participants both ascend: one walk of each.
        let mut participants = Ascending::new(part.iter().copied());
        let needs_clean = self.peers.iter().any(|(k, p)| {
            let marks_participant = p.config.as_ref().is_some_and(|v| v.marks_participant());
            let notifies = p.prp.as_ref().is_some_and(|n| !n.is_default());
            (marks_participant || notifies) && !participants.contains(&k)
        });
        if needs_clean {
            let non_part = shared_config(ConfigValue::NonParticipant);
            let dflt = shared_ntf(Notification::dflt());
            for (k, p) in self.peers.iter_mut() {
                if (p.config.is_some() || p.prp.is_some()) && !part.contains(&k) {
                    p.config = Some(non_part.clone());
                    p.prp = Some(dflt.clone());
                }
            }
            self.invalidate_part();
        }
        let part = self.my_part_shared();

        // Stale-information tests, Definition 3.1 types 1–4 (line 25b).
        if self.has_stale_information(&part) {
            self.config_set_all(ConfigValue::Bottom);
        }
        let part = self.my_part_shared();

        match self.max_ntf(&part) {
            None => self.brute_force_branch(&trusted),
            Some(max) => self.delicate_branch(&part, max),
        }

        self.broadcast(&trusted, out);
    }

    /// Handles a protocol message from `from` (line 30), read in place: the
    /// received shared values are stored as-is, keeping the sender's
    /// allocations canonical across the whole system. A slot that already
    /// holds the allocation it is sent is left alone, so a receipt that
    /// repeats the stored values — every receipt of a converged system —
    /// writes no handle and clones nothing.
    pub fn on_message(&mut self, from: ProcessId, msg: &RecSaMsg) {
        if from == self.me {
            return;
        }
        self.touch();
        let RecSaMsg { own, echo } = msg;
        let peer = self.peer_mut(from);
        store(&mut peer.fd, &own.fd);
        store(&mut peer.part_rx, &own.part);
        // The sender's configuration entry feeds `FD[i].part`.
        let stale = !peer
            .config
            .as_ref()
            .is_some_and(|old| same_config(old, &own.config));
        store(&mut peer.config, &own.config);
        store(&mut peer.prp, &own.prp);
        peer.all = own.all;
        let echo_stored = peer.echo.as_ref().is_some_and(|old| {
            Arc::ptr_eq(&old.part, &echo.part)
                && Arc::ptr_eq(&old.prp, &echo.prp)
                && old.all == echo.all
        });
        if !echo_stored {
            peer.echo = Some(echo.clone());
        }
        if stale {
            self.invalidate_part();
        }
    }

    // ----- internal helpers ---------------------------------------------------

    /// `configSet(val)` (line 21): overwrite every `config[]` entry with
    /// `val` and clear all notifications.
    fn config_set_all(&mut self, val: ConfigValue) {
        if val.is_bottom() {
            self.resets_started += 1;
        }
        let val = shared_config(val);
        let dflt = shared_ntf(Notification::dflt());
        // Every entry that exists, plus those of the trusted processors and
        // our own, whether they exist or not.
        for (_, p) in self.peers.iter_mut() {
            if p.config.is_some() || p.prp.is_some() {
                p.config = Some(val.clone());
                p.prp = Some(dflt.clone());
            }
        }
        let trusted = self.fd_of(self.me).clone();
        for k in trusted.iter().copied().chain([self.me]) {
            let p = self.peer_mut(k);
            p.config = Some(val.clone());
            p.prp = Some(dflt.clone());
        }
        self.peer_mut(self.me).all = false;
        self.all_seen.clear();
        self.invalidate_part();
        self.touch();
    }

    /// `maxNtf()` (line 20): the lexicographically maximal non-default
    /// notification among the participants, or `None` when none exists.
    fn max_ntf(&self, part: &SharedSet) -> Option<SharedNtf> {
        let me_extra = (!part.contains(&self.me)).then_some(self.me);
        part.iter()
            .copied()
            .chain(me_extra)
            .map(|k| self.prp_of(k))
            .filter(|n| !n.is_default())
            .max()
            .cloned()
    }

    /// Stale-information detection (Definition 3.1).
    fn has_stale_information(&self, part: &SharedSet) -> bool {
        let me = self.me;
        let scope = self.fd_of(me);
        let scope_extra = (!scope.contains(&me)).then_some(me);
        let prp_extra = (!part.contains(&me)).then_some(me);

        // Type 1: a phase-0 notification that carries a proposal set.
        if part
            .iter()
            .copied()
            .chain(prp_extra)
            .any(|k| self.prp_of(k).is_type1_stale())
        {
            return true;
        }

        // Type 2 (local part): a `⊥` or empty configuration anywhere in view
        // restarts/continues the reset.
        if scope.iter().copied().chain(scope_extra).any(|k| {
            let v = self.config_of(k);
            v.is_bottom() || v.is_empty_set()
        }) {
            return true;
        }

        // Type 3a: while any participant is in phase 2, all active
        // notifications must propose the same set.
        let phase2_exists = part.iter().copied().chain(prp_extra).any(|k| {
            let n = self.prp_of(k);
            n.phase == Phase::Two && n.set.is_some()
        });
        if phase2_exists {
            let mut first: Option<&ConfigSet> = None;
            for k in part.iter().copied().chain(prp_extra) {
                if let Some(s) = &self.prp_of(k).set {
                    match first {
                        None => first = Some(s),
                        Some(f) => {
                            if f != s {
                                return true;
                            }
                        }
                    }
                }
            }
        }

        // Type 3b: a participant is one phase ahead of us without having been
        // recorded in `allSeen`.
        let my_phase = self.prp_of(me).phase;
        if matches!(my_phase, Phase::One | Phase::Two) {
            for k in part.iter().filter(|k| **k != me) {
                let n = self.prp_of(*k);
                if !n.is_default() && n.phase == my_phase.successor() && !self.all_seen.contains(k)
                {
                    return true;
                }
            }
        }

        // Type 4: the failure-detector views are stable and the current
        // configuration contains no active participant.
        let own = self.config_of(me);
        let chs;
        let current: Option<&ConfigSet> = match &**own {
            ConfigValue::Set(s) => Some(s),
            ConfigValue::Bottom => None,
            ConfigValue::NonParticipant => {
                chs = self.chs_config_shared();
                chs.as_set()
            }
        };
        if let Some(cfg) = current {
            let my_fd = self.fd_of(me);
            let views_stable = part
                .iter()
                .filter(|k| **k != me)
                .all(|k| same_set(self.fd_of(*k), my_fd) && same_set(self.part_rx_of(*k), part));
            if views_stable && cfg.iter().all(|m| !part.contains(m)) {
                return true;
            }
        }
        false
    }

    /// The branch taken when no replacement notification exists
    /// (lines 26–27): conflict detection and brute-force reset completion.
    fn brute_force_branch(&mut self, trusted: &SharedSet) {
        // Conflict: more than one concrete configuration in view.
        let me_extra = (!trusted.contains(&self.me)).then_some(self.me);
        let mut unique: Option<&SharedConfig> = None;
        let mut conflict = false;
        for k in trusted.iter().copied().chain(me_extra) {
            let v = self.config_of(k);
            if v.as_set().is_none() {
                continue;
            }
            match unique {
                None => unique = Some(v),
                Some(u) => {
                    if !same_config(u, v) {
                        conflict = true;
                        break;
                    }
                }
            }
        }
        if conflict {
            self.config_set_all(ConfigValue::Bottom);
        }

        // Reset completion: when the trusted processors all report the same
        // failure-detector reading, adopt it as the configuration.
        if self.config_of(self.me).is_bottom() && self.fd_views_agree(trusted) {
            self.config_set_all(ConfigValue::Set((**self.fd_of(self.me)).clone()));
        }
    }

    /// `|{FD[j] : pⱼ ∈ FD[i]}| = 1`: every trusted processor's last reported
    /// trusted set equals our own reading.
    fn fd_views_agree(&self, trusted: &SharedSet) -> bool {
        let mine = self.fd_of(self.me);
        trusted
            .iter()
            .filter(|k| **k != self.me)
            .all(|k| same_set(self.fd_of(*k), mine))
    }

    /// The delicate-replacement branch (line 28).
    fn delicate_branch(&mut self, part: &SharedSet, max: SharedNtf) {
        let me = self.me;

        // Completion short-circuit: when the maximal notification is in phase
        // 2 and every participant (including ourselves) is observed to have
        // installed the proposed configuration, the replacement is over —
        // return to the monitoring state. This realizes the 2 → 0 edge of the
        // automaton without requiring a second unison round, which keeps the
        // exit live even when participants cross the phase-2 gate at
        // different steps (the gate that matters for agreement — selecting a
        // single proposal before any installation — is still unison-based).
        if max.phase == Phase::Two {
            if let Some(set) = &max.set {
                let installed = shared_config(ConfigValue::Set(set.clone()));
                if !part.is_empty()
                    && part
                        .iter()
                        .all(|k| same_config(self.config_of(*k), &installed))
                {
                    let own = self.peer_mut(me);
                    own.prp = Some(shared_ntf(Notification::dflt()));
                    own.all = false;
                    self.all_seen.clear();
                    return;
                }
            }
        }

        // Converge to the lexicographically maximal notification (phase-1
        // selection; also how phase-0 processors adopt an ongoing
        // replacement — cf. Claim 3.12 part (1)).
        if *self.prp_of(me) < max {
            let own = self.peer_mut(me);
            own.prp = Some(max);
            own.all = false;
            self.all_seen.clear();
        }

        // Phase-2 action: install the selected proposal (idempotent).
        let my_prp = self.prp_of(me).clone();
        if my_prp.phase == Phase::Two {
            self.install(&my_prp);
        }

        // Unison bookkeeping: `all[i]` and `allSeen`.
        let others: Vec<ProcessId> = part.iter().copied().filter(|k| *k != me).collect();
        let all_i = others
            .iter()
            .all(|k| self.echo_no_all(*k, part, &my_prp) && self.same(*k, part, &my_prp));
        self.peer_mut(me).all = all_i;
        for k in &others {
            if self.same(*k, part, &my_prp) && self.all_of(*k) {
                self.all_seen.insert(*k);
            }
        }

        // Phase transition (the `if echo() ∧ allSeen()` of line 28).
        if self.echo_all(&others, part, &my_prp, all_i) && self.all_seen_complete(part, all_i) {
            let new_phase = my_prp.phase.increment();
            self.all_seen.clear();
            self.peer_mut(me).all = false;
            match new_phase {
                Phase::Zero => {
                    self.peer_mut(me).prp = Some(shared_ntf(Notification::dflt()));
                }
                Phase::Two => {
                    let promoted = Notification {
                        phase: Phase::Two,
                        set: my_prp.set.clone(),
                    };
                    self.install(&promoted);
                    self.peer_mut(me).prp = Some(shared_ntf(promoted));
                }
                Phase::One => {}
            }
        }
    }

    /// The phase-2 action: adopt the set `ntf` proposes as `config[i]`
    /// (idempotent; a notification without a set installs nothing).
    fn install(&mut self, ntf: &Notification) {
        let Some(set) = &ntf.set else {
            return;
        };
        if self.config_of(self.me).as_set() != Some(set) {
            self.peer_mut(self.me).config = Some(shared_config(ConfigValue::Set(set.clone())));
            self.delicate_installs += 1;
            self.invalidate_part();
        }
    }

    fn same(&self, k: ProcessId, part: &SharedSet, my_prp: &SharedNtf) -> bool {
        same_set(self.part_rx_of(k), part) && same_ntf(self.prp_of(k), my_prp)
    }

    fn echo_no_all(&self, k: ProcessId, part: &SharedSet, my_prp: &SharedNtf) -> bool {
        let e = self.echo_of(k);
        same_set(&e.part, part) && same_ntf(&e.prp, my_prp)
    }

    fn echo_all(
        &self,
        others: &[ProcessId],
        part: &SharedSet,
        my_prp: &SharedNtf,
        all_i: bool,
    ) -> bool {
        others.iter().all(|k| {
            let e = self.echo_of(*k);
            same_set(&e.part, part) && same_ntf(&e.prp, my_prp) && e.all == all_i
        })
    }

    fn all_seen_complete(&self, part: &SharedSet, all_i: bool) -> bool {
        part.iter().all(|k| {
            if *k == self.me {
                all_i
            } else {
                self.all_seen.contains(k)
            }
        })
    }

    /// Line 29: participants broadcast their state to every trusted
    /// processor; non-participants stay silent.
    fn broadcast(&mut self, trusted: &SharedSet, out: &mut impl Sink<RecSaMsg>) {
        if !self.is_participant() {
            return;
        }
        // Own values are shared by every copy; only the per-receiver echo
        // differs (and consists of shared values itself).
        let own = self.own_to_send();
        for pj in trusted.iter().copied().filter(|p| *p != self.me) {
            out.push(
                pj,
                RecSaMsg {
                    own: own.clone(),
                    echo: EchoTriple {
                        part: self.part_rx_of(pj).clone(),
                        prp: self.prp_of(pj).clone(),
                        all: self.all_of(pj),
                    },
                },
            );
        }
    }

    /// The own half of this broadcast: the previous broadcast's allocation
    /// when it holds exactly the current values — the same four allocations
    /// and the same `all` flag — and a new one otherwise.
    ///
    /// The kept allocation is soft state checked at every use, so no
    /// mutation path has to drop it, and whatever a transient fault leaves
    /// in it is replaced by the first broadcast after the fault.
    fn own_to_send(&mut self) -> Arc<RecSaOwn> {
        let me = self.me;
        let part = self.my_part_shared();
        let fd = self.fd_of(me);
        let config = self.config_of(me);
        let prp = self.prp_of(me);
        let all = self.all_of(me);
        if let Some(sent) = &self.sent_own {
            if Arc::ptr_eq(&sent.fd, fd)
                && Arc::ptr_eq(&sent.part, &part)
                && Arc::ptr_eq(&sent.config, config)
                && Arc::ptr_eq(&sent.prp, prp)
                && sent.all == all
            {
                return sent.clone();
            }
        }
        let own = Arc::new(RecSaOwn {
            fd: fd.clone(),
            part,
            config: config.clone(),
            prp: prp.clone(),
            all,
        });
        self.sent_own = Some(own.clone());
        own
    }

    // ----- fault injection (white-box helpers for tests and benchmarks) -----

    /// Overwrites a `config[]` entry, modelling a transient fault.
    pub fn corrupt_config(&mut self, k: ProcessId, val: ConfigValue) {
        self.peer_mut(k).config = Some(shared_config(val));
        self.invalidate_part();
        self.touch();
    }

    /// Overwrites a `prp[]` entry, modelling a transient fault.
    pub fn corrupt_notification(&mut self, k: ProcessId, n: Notification) {
        self.peer_mut(k).prp = Some(shared_ntf(n));
        self.touch();
    }

    /// Overwrites the `allSeen` set, modelling a transient fault.
    pub fn corrupt_all_seen(&mut self, seen: BTreeSet<ProcessId>) {
        self.all_seen = seen;
        self.touch();
    }

    /// Overwrites an `echo[]` entry, modelling a transient fault.
    pub fn corrupt_echo(&mut self, k: ProcessId, e: EchoTriple) {
        self.peer_mut(k).echo = Some(e);
        self.touch();
    }

    /// Puts an arbitrary own half in the broadcast cache, modelling a
    /// transient fault in the soft state.
    #[cfg(test)]
    fn corrupt_sent_own(&mut self, own: RecSaOwn) {
        self.sent_own = Some(Arc::new(own));
    }

    /// The own half built from the current values, without the cache.
    #[cfg(test)]
    fn fresh_own(&self) -> RecSaOwn {
        RecSaOwn {
            fd: self.fd_of(self.me).clone(),
            part: self.my_part_shared(),
            config: self.config_of(self.me).clone(),
            prp: self.prp_of(self.me).clone(),
            all: self.all_of(self.me),
        }
    }

    /// [`RecSa::on_message`] storing every handle it is sent, whether or not
    /// the slot already holds it: the reference its compare-before-store is
    /// checked against.
    #[cfg(test)]
    fn on_message_storing_all(&mut self, from: ProcessId, msg: &RecSaMsg) {
        if from == self.me {
            return;
        }
        self.touch();
        let RecSaMsg { own, echo } = msg;
        let peer = self.peer_mut(from);
        let stale = !peer
            .config
            .as_ref()
            .is_some_and(|old| same_config(old, &own.config));
        peer.fd = Some(own.fd.clone());
        peer.part_rx = Some(own.part.clone());
        peer.config = Some(own.config.clone());
        peer.prp = Some(own.prp.clone());
        peer.all = own.all;
        peer.echo = Some(echo.clone());
        if stale {
            self.invalidate_part();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::types::config_set;
    use simnet::stack::Outbox;

    /// A tiny synchronous harness: every node takes a step with a perfect
    /// failure detector (everyone alive trusts everyone alive), and messages
    /// are delivered immediately in FIFO order. This isolates the recSA
    /// logic from the failure detector and the network; the composite node
    /// and the integration tests exercise the full stack.
    struct Harness {
        nodes: BTreeMap<ProcessId, RecSa>,
        alive: BTreeSet<ProcessId>,
    }

    impl Harness {
        fn participants(n: u32) -> Self {
            let nodes: BTreeMap<ProcessId, RecSa> = (0..n)
                .map(|i| (ProcessId::new(i), RecSa::new_participant(ProcessId::new(i))))
                .collect();
            let alive = nodes.keys().copied().collect();
            Harness { nodes, alive }
        }

        fn with_config(n: u32, cfg: &ConfigSet) -> Self {
            let nodes: BTreeMap<ProcessId, RecSa> = (0..n)
                .map(|i| {
                    (
                        ProcessId::new(i),
                        RecSa::new_with_config(ProcessId::new(i), cfg.clone()),
                    )
                })
                .collect();
            let alive = nodes.keys().copied().collect();
            Harness { nodes, alive }
        }

        fn crash(&mut self, id: ProcessId) {
            self.alive.remove(&id);
        }

        fn add_joiner(&mut self, id: ProcessId) {
            self.nodes.insert(id, RecSa::new_joiner(id));
            self.alive.insert(id);
        }

        fn node(&self, id: u32) -> &RecSa {
            &self.nodes[&ProcessId::new(id)]
        }

        fn node_mut(&mut self, id: u32) -> &mut RecSa {
            self.nodes.get_mut(&ProcessId::new(id)).unwrap()
        }

        /// One synchronous round: every alive node steps, then all messages
        /// are delivered (to alive receivers only).
        fn round(&mut self) {
            let alive = self.alive.clone();
            let mut outbox: Vec<(ProcessId, ProcessId, RecSaMsg)> = Vec::new();
            for (id, node) in self.nodes.iter_mut() {
                if !alive.contains(id) {
                    continue;
                }
                let mut out = Outbox::new();
                node.step(&alive, &mut out);
                for (to, msg) in out.into_messages() {
                    outbox.push((*id, to, msg));
                }
            }
            for (from, to, msg) in outbox {
                if alive.contains(&to) {
                    if let Some(node) = self.nodes.get_mut(&to) {
                        node.on_message(from, &msg);
                    }
                }
            }
        }

        fn rounds(&mut self, n: usize) {
            for _ in 0..n {
                self.round();
            }
        }

        /// The concrete configuration all alive nodes hold, if they agree.
        fn agreed_config(&self) -> Option<ConfigSet> {
            let configs: Option<BTreeSet<ConfigSet>> = self
                .alive
                .iter()
                .map(|id| self.nodes[id].installed_config())
                .collect();
            let mut configs = configs?;
            (configs.len() == 1).then(|| configs.pop_first()).flatten()
        }

        fn rounds_until_converged(&mut self, max: usize) -> Option<usize> {
            for r in 0..max {
                if self.agreed_config().is_some() {
                    return Some(r);
                }
                self.round();
            }
            if self.agreed_config().is_some() {
                Some(max)
            } else {
                None
            }
        }
    }

    #[test]
    fn bootstrap_from_bottom_installs_fd_set() {
        let mut h = Harness::participants(4);
        let rounds = h.rounds_until_converged(50).expect("must converge");
        let cfg = h.agreed_config().unwrap();
        assert_eq!(cfg, config_set([0, 1, 2, 3]));
        assert!(rounds <= 50);
    }

    #[test]
    fn conflicting_configurations_are_resolved_by_brute_force() {
        let mut h = Harness::participants(4);
        h.rounds(20);
        assert!(h.agreed_config().is_some());
        // Transient fault: two different configurations appear.
        h.node_mut(0)
            .corrupt_config(ProcessId::new(0), ConfigValue::Set(config_set([0, 1])));
        h.node_mut(2)
            .corrupt_config(ProcessId::new(2), ConfigValue::Set(config_set([2, 3])));
        h.rounds(60);
        let cfg = h.agreed_config().expect("must re-converge");
        assert_eq!(cfg, config_set([0, 1, 2, 3]));
        assert!(h.node(0).resets_started() > 0 || h.node(2).resets_started() > 0);
    }

    #[test]
    fn no_reco_holds_in_steady_state() {
        let mut h = Harness::participants(3);
        h.rounds(30);
        for id in 0..3 {
            assert!(h.node(id).no_reco(), "p{id} still sees reconfiguration");
            assert!(h.node(id).is_participant());
            assert_eq!(
                h.node(id).get_config(),
                ConfigValue::Set(config_set([0, 1, 2]))
            );
        }
    }

    #[test]
    fn estab_performs_delicate_replacement() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::with_config(4, &cfg);
        h.rounds(20);
        assert!(h.agreed_config().is_some());
        let new_cfg = config_set([0, 1, 2]);
        assert!(h.node_mut(0).estab(new_cfg.clone()));
        h.rounds(60);
        assert_eq!(h.agreed_config(), Some(new_cfg));
        // The replacement was delicate: nobody had to brute-force reset.
        for id in 0..4 {
            assert_eq!(h.node(id).resets_started(), 0, "p{id} reset");
            assert!(h.node(id).delicate_installs() > 0, "p{id} never installed");
            assert!(h.node(id).own_notification().is_default());
        }
    }

    #[test]
    fn concurrent_estab_selects_a_single_proposal() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::with_config(5, &cfg);
        h.rounds(20);
        let a = config_set([0, 1, 2]);
        let b = config_set([2, 3, 4]);
        assert!(h.node_mut(0).estab(a.clone()));
        assert!(h.node_mut(4).estab(b.clone()));
        h.rounds(80);
        let result = h.agreed_config().expect("converged after concurrent estab");
        assert!(result == a || result == b, "unexpected config {result:?}");
        for id in 0..5 {
            assert_eq!(h.node(id).resets_started(), 0);
        }
    }

    #[test]
    fn estab_is_rejected_during_reconfiguration() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(10);
        assert!(h.node_mut(0).estab(config_set([0, 1])));
        // Give the notification one round to spread, then try another estab.
        h.rounds(2);
        assert!(!h.node_mut(1).estab(config_set([1, 2])));
    }

    #[test]
    fn estab_rejects_empty_and_identical_sets() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(10);
        assert!(!h.node_mut(0).estab(ConfigSet::new()));
        assert!(!h.node_mut(0).estab(cfg.clone()));
    }

    #[test]
    fn joiner_becomes_participant_via_participate() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(20);
        h.add_joiner(ProcessId::new(3));
        h.rounds(10);
        let joiner = h.node_mut(3);
        assert!(!joiner.is_participant());
        assert!(joiner.no_reco(), "joiner should observe a calm system");
        assert!(joiner.participate());
        assert!(h.node(3).is_participant());
        assert_eq!(h.node(3).installed_config(), Some(cfg.clone()));
        h.rounds(10);
        // The configuration itself is unchanged by the join.
        assert_eq!(h.agreed_config(), Some(cfg));
    }

    #[test]
    fn joiner_does_not_broadcast_before_participating() {
        let cfg = config_set([0, 1]);
        let mut h = Harness::with_config(2, &cfg);
        h.rounds(10);
        h.add_joiner(ProcessId::new(2));
        let mut out = Outbox::<RecSaMsg>::new();
        h.node_mut(2)
            .step(&config_set([0, 1, 2]).into_iter().collect(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn type1_stale_notification_is_cleaned() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(10);
        // Phase-0 notification with a set: type-1 stale information.
        h.node_mut(1).corrupt_notification(
            ProcessId::new(1),
            Notification {
                phase: Phase::Zero,
                set: Some(config_set([7, 8])),
            },
        );
        h.rounds(40);
        assert!(
            h.agreed_config().is_some(),
            "must re-converge after type-1 fault"
        );
        for id in 0..3 {
            assert!(h.node(id).own_notification().is_default());
        }
    }

    #[test]
    fn phase2_disagreement_triggers_reset() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(10);
        // Two different phase-2 notifications: type-3 stale information.
        h.node_mut(0).corrupt_notification(
            ProcessId::new(0),
            Notification::new(Phase::Two, config_set([0, 1])),
        );
        h.node_mut(1).corrupt_notification(
            ProcessId::new(1),
            Notification::new(Phase::Two, config_set([1, 2])),
        );
        h.rounds(60);
        let cfg = h.agreed_config().expect("recovers from type-3");
        assert_eq!(cfg, config_set([0, 1, 2]), "brute force adopts the FD set");
    }

    #[test]
    fn dead_configuration_triggers_reset_and_recovery() {
        // The installed configuration consists entirely of processors that
        // are no longer around (type-4): the survivors must form a new one.
        let dead_cfg = config_set([10, 11, 12]);
        let mut h = Harness::with_config(3, &dead_cfg);
        h.rounds(40);
        assert_eq!(h.agreed_config(), Some(config_set([0, 1, 2])));
    }

    #[test]
    fn majority_crash_leaves_remaining_nodes_with_old_config_until_estab() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::with_config(5, &cfg);
        h.rounds(10);
        h.crash(ProcessId::new(3));
        h.crash(ProcessId::new(4));
        h.rounds(20);
        // Some configuration members survive, so no type-4 reset occurs; the
        // old configuration is still in place (recMA is responsible for
        // requesting the replacement).
        assert_eq!(h.agreed_config(), Some(cfg));
        // A delicate replacement can then shrink the configuration.
        assert!(h.node_mut(0).estab(config_set([0, 1, 2])));
        h.rounds(60);
        assert_eq!(h.agreed_config(), Some(config_set([0, 1, 2])));
    }

    #[test]
    fn corrupted_all_seen_and_echo_recover() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::with_config(4, &cfg);
        h.rounds(10);
        h.node_mut(0)
            .corrupt_all_seen(config_set([9, 17]).into_iter().collect());
        h.node_mut(1).corrupt_echo(
            ProcessId::new(2),
            EchoTriple {
                part: shared_set(config_set([1])),
                prp: shared_ntf(Notification::proposal(config_set([5]))),
                all: true,
            },
        );
        // The corruption is flushed by ordinary message exchange; a
        // subsequent delicate replacement still works.
        h.rounds(10);
        assert!(h.node_mut(2).estab(config_set([0, 1, 2])));
        h.rounds(60);
        assert_eq!(h.agreed_config(), Some(config_set([0, 1, 2])));
    }

    /// A steady four-processor system, returned as processor 0's layer and
    /// the failure-detector reading it steps with.
    fn steady_node() -> (RecSa, BTreeSet<ProcessId>) {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::with_config(4, &cfg);
        h.rounds(10);
        assert!(h.node(0).no_reco());
        (h.node(0).clone(), h.alive.clone())
    }

    /// Everything of `node`'s state a peer could observe, plus the entries
    /// held about `ghost`.
    fn observable(
        node: &mut RecSa,
        trusted: &BTreeSet<ProcessId>,
        ghost: ProcessId,
    ) -> impl std::fmt::Debug {
        let mut out = Outbox::<RecSaMsg>::new();
        node.step(trusted, &mut out);
        (
            out.into_messages(),
            (**node.own_config_shared()).clone(),
            node.own_notification(),
            node.resets_started(),
            node.no_reco(),
            (**node.config_of(ghost)).clone(),
            (**node.prp_of(ghost)).clone(),
            node.echo_of(ghost).clone(),
        )
    }

    /// Identifiers above the per-peer table's dense limit (which only a
    /// transient fault or a forged packet can produce) take the spill path.
    /// It must be the same array: a corrupted spilled entry goes through
    /// `step` exactly as a corrupted array-indexed one does — cleaned by
    /// line 25a when the identifier is not trusted, counted as a participant
    /// whose notification is adopted when it is.
    #[test]
    fn corruption_above_the_dense_limit_steps_like_corruption_below_it() {
        let dense = ProcessId::new(77);
        for spilled in [PeerTable::<()>::DENSE_LIMIT, u32::MAX].map(ProcessId::new) {
            for ghost_is_trusted in [false, true] {
                let observe = |ghost: ProcessId| {
                    let (mut node, mut trusted) = steady_node();
                    node.corrupt_config(ghost, ConfigValue::Set(config_set([5, 6])));
                    node.corrupt_notification(ghost, Notification::proposal(config_set([9])));
                    node.corrupt_echo(
                        ghost,
                        EchoTriple {
                            part: shared_set(config_set([1])),
                            prp: shared_ntf(Notification::proposal(config_set([5]))),
                            all: true,
                        },
                    );
                    if ghost_is_trusted {
                        trusted.insert(ghost);
                    }
                    let first = observable(&mut node, &trusted, ghost);
                    let second = observable(&mut node, &trusted, ghost);
                    (first, second)
                };
                // Compared as text, with the ghost's name masked: the two runs
                // differ in nothing but which identifier the ghost carries.
                let masked = |ghost: ProcessId| {
                    format!("{:?}", observe(ghost)).replace(&format!("{ghost:?}"), "ghost")
                };
                assert_eq!(
                    masked(spilled),
                    masked(dense),
                    "spilled {spilled:?} diverged from dense {dense:?} (trusted: {ghost_is_trusted})"
                );
            }
        }
    }

    /// An untrusted corrupted entry is reset to `(], dfltNtf)` by line 25a
    /// whichever side of the dense limit its identifier falls on, and the
    /// processor's own state is untouched.
    #[test]
    fn untrusted_spilled_entries_are_cleaned_without_a_reset() {
        let ghost = ProcessId::new(u32::MAX);
        let (mut node, trusted) = steady_node();
        node.corrupt_config(ghost, ConfigValue::Set(config_set([5, 6])));
        node.corrupt_notification(ghost, Notification::proposal(config_set([9])));
        let mut out = Outbox::<RecSaMsg>::new();
        node.step(&trusted, &mut out);
        assert_eq!(out.len(), 3, "ghost entry must not attract broadcasts");
        assert!(node.config_of(ghost).is_non_participant());
        assert!(node.prp_of(ghost).is_default());
        assert_eq!(node.resets_started(), 0);
        assert_eq!(node.installed_config(), Some(config_set([0, 1, 2, 3])));
        assert!(node.no_reco());
    }

    /// In a converged cluster a broadcast shares one own half across all its
    /// copies, the next step's broadcast reuses it, and an `estab` (a new
    /// `prp[i]`) makes the next broadcast build another.
    #[test]
    fn converged_cluster_reuses_one_own_allocation() {
        let (mut node, trusted) = steady_node();
        let mut out = Outbox::<RecSaMsg>::new();
        node.step(&trusted, &mut out);
        let first = out.into_messages();
        let mut out = Outbox::new();
        node.step(&trusted, &mut out);
        let second = out.into_messages();
        assert_eq!(first.len(), 3);
        let own = &first[0].1.own;
        for (_, msg) in first.iter().chain(&second) {
            assert!(Arc::ptr_eq(&msg.own, own), "a copy built its own half");
        }
        assert!(node.estab(config_set([0, 1, 2])));
        let mut out = Outbox::<RecSaMsg>::new();
        node.step(&trusted, &mut out);
        let third = out.into_messages();
        let rebuilt = &third[0].1.own;
        assert!(
            !Arc::ptr_eq(rebuilt, own),
            "the proposal reused a stale half"
        );
        assert_eq!(**rebuilt, node.fresh_own());
        assert!(third.iter().all(|(_, m)| Arc::ptr_eq(&m.own, rebuilt)));
    }

    /// Whatever a fault leaves in the broadcast cache — the current values
    /// with any one of them changed — the next broadcast carries the true
    /// values.
    #[test]
    fn a_planted_own_is_replaced_by_the_true_values() {
        let other = config_set([7]);
        for field in ["fd", "part", "config", "prp", "all"] {
            let (mut node, trusted) = steady_node();
            node.step(&trusted, &mut Outbox::<RecSaMsg>::new());
            let mut own = node.fresh_own();
            match field {
                "fd" => own.fd = shared_set(other.clone()),
                "part" => own.part = shared_set(other.clone()),
                "config" => own.config = shared_config(ConfigValue::Set(other.clone())),
                "prp" => own.prp = shared_ntf(Notification::proposal(other.clone())),
                _ => own.all = !own.all,
            }
            node.corrupt_sent_own(own);
            let mut out = Outbox::<RecSaMsg>::new();
            node.step(&trusted, &mut out);
            for (_, msg) in out.into_messages() {
                assert_eq!(*msg.own, node.fresh_own(), "a planted {field} was sent");
            }
        }
    }

    #[test]
    fn get_config_reports_bottom_during_reset() {
        let mut h = Harness::participants(2);
        // Before convergence the nodes are resetting; getConfig() must not
        // fabricate a configuration.
        let v = h.node(0).get_config();
        assert!(v.is_bottom() || v.is_non_participant());
        h.rounds(20);
        assert!(h.node(0).get_config().as_set().is_some());
    }

    #[test]
    fn single_participant_system_converges_and_reconfigures() {
        let mut h = Harness::participants(1);
        h.rounds(5);
        assert_eq!(h.agreed_config(), Some(config_set([0])));
        // With itself as the only participant, an estab for a different set
        // that includes an unknown processor is still installed (the new
        // member will have to join and catch up).
        assert!(h.node_mut(0).estab(config_set([0, 1])));
        h.rounds(10);
        assert_eq!(h.node(0).installed_config(), Some(config_set([0, 1])));
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::types::config_set;
    use proptest::prelude::*;
    use simnet::stack::Outbox;

    /// Synchronous harness (duplicated minimally from the unit tests to keep
    /// the property tests self-contained).
    fn run_to_convergence(
        mut nodes: BTreeMap<ProcessId, RecSa>,
        max_rounds: usize,
    ) -> Option<ConfigSet> {
        let alive: BTreeSet<ProcessId> = nodes.keys().copied().collect();
        for _ in 0..max_rounds {
            let mut outbox = Vec::new();
            for (id, node) in nodes.iter_mut() {
                let mut out = Outbox::new();
                node.step(&alive, &mut out);
                for (to, msg) in out.into_messages() {
                    outbox.push((*id, to, msg));
                }
            }
            for (from, to, msg) in outbox {
                if let Some(n) = nodes.get_mut(&to) {
                    n.on_message(from, &msg);
                }
            }
            let configs: BTreeSet<Option<ConfigSet>> =
                nodes.values().map(|n| n.installed_config()).collect();
            if configs.len() == 1 {
                if let Some(Some(c)) = configs.into_iter().next() {
                    return Some(c);
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Convergence (Theorem 3.15): from arbitrary combinations of corrupt
        /// `config[]` values the system reaches a single configuration, which
        /// is the set of live processors.
        #[test]
        fn converges_from_arbitrary_config_corruption(
            n in 2u32..7,
            corruption in proptest::collection::vec((0u32..7, 0u8..4, proptest::collection::btree_set(0u32..7, 0..4)), 0..8),
        ) {
            let mut nodes: BTreeMap<ProcessId, RecSa> = (0..n)
                .map(|i| (ProcessId::new(i), RecSa::new_participant(ProcessId::new(i))))
                .collect();
            // Corruption keeps every processor a participant (`⊥` or an
            // arbitrary set); a processor corrupted all the way to `]` is a
            // joiner, whose recovery goes through the joining mechanism and
            // the node-level bootstrap rather than bare recSA.
            for (victim, kind, set) in corruption {
                let victim = ProcessId::new(victim % n);
                let value = match kind % 2 {
                    0 => ConfigValue::Bottom,
                    _ => ConfigValue::Set(set.into_iter().map(ProcessId::new).collect()),
                };
                if let Some(node) = nodes.get_mut(&victim) {
                    node.corrupt_config(victim, value);
                }
            }
            let result = run_to_convergence(nodes, 120);
            prop_assert_eq!(result, Some(config_set(0..n)));
        }

        /// Closure + delicate replacement (Theorem 3.16): starting from a
        /// conflict-free state, any accepted `estab(set)` proposal is
        /// eventually installed uniformly, without brute-force resets.
        #[test]
        fn estab_installs_exactly_one_proposal(
            n in 2u32..6,
            proposer in 0u32..6,
            keep in proptest::collection::btree_set(0u32..6, 1..6),
        ) {
            let n = n.max(2);
            let cfg = config_set(0..n);
            let mut nodes: BTreeMap<ProcessId, RecSa> = (0..n)
                .map(|i| (ProcessId::new(i), RecSa::new_with_config(ProcessId::new(i), cfg.clone())))
                .collect();
            // Let the steady state settle.
            let alive: BTreeSet<ProcessId> = nodes.keys().copied().collect();
            for _ in 0..10 {
                let mut outbox = Vec::new();
                for (id, node) in nodes.iter_mut() {
                    let mut out = Outbox::new();
                    node.step(&alive, &mut out);
                    for (to, msg) in out.into_messages() {
                        outbox.push((*id, to, msg));
                    }
                }
                for (from, to, msg) in outbox {
                    if let Some(node) = nodes.get_mut(&to) {
                        node.on_message(from, &msg);
                    }
                }
            }
            let proposer = ProcessId::new(proposer % n);
            let proposal: ConfigSet = keep.into_iter().map(|i| ProcessId::new(i % n)).collect();
            let accepted = nodes.get_mut(&proposer).unwrap().estab(proposal.clone());
            let expected = if accepted { proposal } else { cfg };
            // Run a fixed number of rounds (no early exit: the nodes briefly
            // still agree on the *old* configuration while the replacement is
            // in flight) and check the final outcome.
            for _ in 0..120 {
                let mut outbox = Vec::new();
                for (id, node) in nodes.iter_mut() {
                    let mut out = Outbox::new();
                    node.step(&alive, &mut out);
                    for (to, msg) in out.into_messages() {
                        outbox.push((*id, to, msg));
                    }
                }
                for (from, to, msg) in outbox {
                    if let Some(node) = nodes.get_mut(&to) {
                        node.on_message(from, &msg);
                    }
                }
            }
            for (id, node) in &nodes {
                prop_assert_eq!(
                    node.installed_config(),
                    Some(expected.clone()),
                    "node {:?} did not install the expected configuration",
                    id
                );
                prop_assert!(node.own_notification().is_default());
                prop_assert_eq!(node.resets_started(), 0);
            }
        }
    }
}

/// The two caches of the message path against what they stand for: the
/// sender's reused own half against the values it would build afresh, and
/// the receiver's compare-before-store against storing every handle.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::types::config_set;
    use proptest::prelude::*;
    use simnet::stack::Outbox;
    use simnet::SimRng;

    /// Processors `0..4` run; `4` is a ghost only a fault or an injected
    /// packet names.
    const IDS: u64 = 5;

    fn pid(rng: &mut SimRng) -> ProcessId {
        ProcessId::new(rng.range_inclusive(0, IDS - 1) as u32)
    }

    /// A set over a universe small enough that interning often hands back
    /// an allocation some slot already holds.
    fn set(rng: &mut SimRng) -> BTreeSet<ProcessId> {
        (0..IDS as u32)
            .filter(|_| rng.chance(0.6))
            .map(ProcessId::new)
            .collect()
    }

    fn config(rng: &mut SimRng) -> ConfigValue {
        match rng.range_inclusive(0, 3) {
            0 => ConfigValue::NonParticipant,
            1 => ConfigValue::Bottom,
            _ => ConfigValue::Set(set(rng)),
        }
    }

    fn ntf(rng: &mut SimRng) -> Notification {
        let phase = [Phase::Zero, Phase::One, Phase::Two][rng.range_inclusive(0, 2) as usize];
        Notification {
            phase,
            set: rng.chance(0.5).then(|| set(rng)),
        }
    }

    fn echo(rng: &mut SimRng) -> EchoTriple {
        EchoTriple {
            part: shared_set(set(rng)),
            prp: shared_ntf(ntf(rng)),
            all: rng.chance(0.5),
        }
    }

    fn own(rng: &mut SimRng) -> RecSaOwn {
        RecSaOwn {
            fd: shared_set(set(rng)),
            part: shared_set(set(rng)),
            config: shared_config(config(rng)),
            prp: shared_ntf(ntf(rng)),
            all: rng.chance(0.5),
        }
    }

    /// Changes one of the eight values of a message, or none.
    fn vary(own: &mut RecSaOwn, echo: &mut EchoTriple, rng: &mut SimRng) {
        match rng.range_inclusive(0, 8) {
            0 => own.fd = shared_set(set(rng)),
            1 => own.part = shared_set(set(rng)),
            2 => own.config = shared_config(config(rng)),
            3 => own.prp = shared_ntf(ntf(rng)),
            4 => own.all = !own.all,
            5 => echo.part = shared_set(set(rng)),
            6 => echo.prp = shared_ntf(ntf(rng)),
            7 => echo.all = !echo.all,
            _ => {}
        }
    }

    /// A message from `from` that repeats what `node` stores about `from`
    /// with at most one value changed — the near-repeats that decide
    /// whether a slot is rewritten — or (one time in four) an arbitrary one.
    fn received(node: &RecSa, from: ProcessId, rng: &mut SimRng) -> RecSaMsg {
        if rng.chance(0.25) {
            return RecSaMsg {
                own: Arc::new(own(rng)),
                echo: echo(rng),
            };
        }
        let mut own = RecSaOwn {
            fd: node.fd_of(from).clone(),
            part: node.part_rx_of(from).clone(),
            config: node.config_of(from).clone(),
            prp: node.prp_of(from).clone(),
            all: node.all_of(from),
        };
        let mut echo = node.echo_of(from).clone();
        vary(&mut own, &mut echo, rng);
        RecSaMsg {
            own: Arc::new(own),
            echo,
        }
    }

    /// `node`'s current own half with at most one value changed, or (one
    /// time in four) an arbitrary one.
    fn planted(node: &RecSa, rng: &mut SimRng) -> RecSaOwn {
        if rng.chance(0.25) {
            return own(rng);
        }
        let mut own = node.fresh_own();
        vary(&mut own, &mut EchoTriple::default(), rng);
        own
    }

    /// Four processors — converged or starting from `⊥` — and a copy of
    /// processor 0 that receives through the store-everything reference.
    /// Every operation goes to processor 0 and its reference alike.
    struct Cluster {
        nodes: Vec<RecSa>,
        reference: RecSa,
        /// Recently delivered messages to processor 0, for replays.
        delivered: Vec<(ProcessId, RecSaMsg)>,
    }

    impl Cluster {
        fn new(converged: bool) -> Self {
            let nodes: Vec<RecSa> = (0..4)
                .map(ProcessId::new)
                .map(|id| match converged {
                    true => RecSa::new_with_config(id, config_set(0..4)),
                    false => RecSa::new_participant(id),
                })
                .collect();
            let reference = nodes[0].clone();
            Cluster {
                nodes,
                reference,
                delivered: Vec::new(),
            }
        }

        fn deliver(&mut self, from: ProcessId, to: ProcessId, msg: RecSaMsg) {
            match to.as_u32() {
                0 => {
                    self.reference.on_message_storing_all(from, &msg);
                    self.nodes[0].on_message(from, &msg);
                    self.delivered.push((from, msg));
                }
                k if (k as usize) < self.nodes.len() => {
                    self.nodes[k as usize].on_message(from, &msg)
                }
                _ => {}
            }
        }

        /// Applies one random operation. Returns the broadcast it made, if
        /// any, with the own half its sender would build afresh afterwards.
        fn apply(
            &mut self,
            kind: u8,
            k: usize,
            rng: &mut SimRng,
        ) -> Option<(RecSaOwn, Vec<RecSaMsg>)> {
            let me = ProcessId::new(0);
            match kind {
                // Steps, the usual operation: mostly with everybody
                // trusted, sometimes a subset or the ghost too, and each
                // message lost one time in eight.
                0..=6 => {
                    let trusted: BTreeSet<ProcessId> = match rng.chance(0.7) {
                        true => (0..4).map(ProcessId::new).collect(),
                        false => set(rng),
                    };
                    let from = ProcessId::new(k as u32);
                    let mut out = Outbox::new();
                    self.nodes[k].step(&trusted, &mut out);
                    let sent = out.into_messages();
                    if k == 0 {
                        let mut reference = Outbox::new();
                        self.reference.step(&trusted, &mut reference);
                        assert_eq!(
                            sent,
                            reference.into_messages(),
                            "the reference broadcast differently"
                        );
                    }
                    let own = self.nodes[k].fresh_own();
                    for (to, msg) in sent.clone() {
                        if !rng.chance(0.125) {
                            self.deliver(from, to, msg);
                        }
                    }
                    return Some((own, sent.into_iter().map(|(_, m)| m).collect()));
                }
                7 => {
                    let from = ProcessId::new(rng.range_inclusive(1, IDS - 1) as u32);
                    let msg = received(&self.nodes[0], from, rng);
                    self.deliver(from, me, msg);
                }
                8 => {
                    let back = rng.range_inclusive(0, 3) as usize;
                    if let Some((from, msg)) = self.delivered.iter().rev().nth(back).cloned() {
                        self.deliver(from, me, msg);
                    }
                }
                9 => {
                    let (at, v) = (pid(rng), config(rng));
                    self.nodes[0].corrupt_config(at, v.clone());
                    self.reference.corrupt_config(at, v);
                }
                10 => {
                    let (at, n) = (pid(rng), ntf(rng));
                    self.nodes[0].corrupt_notification(at, n.clone());
                    self.reference.corrupt_notification(at, n);
                }
                11 => {
                    let (at, e) = (pid(rng), echo(rng));
                    self.nodes[0].corrupt_echo(at, e.clone());
                    self.reference.corrupt_echo(at, e);
                }
                12 => {
                    let seen = set(rng);
                    self.nodes[0].corrupt_all_seen(seen.clone());
                    self.reference.corrupt_all_seen(seen);
                }
                13 => {
                    let proposal = set(rng);
                    let accepted = self.nodes[k].estab(proposal.clone());
                    if k == 0 {
                        assert_eq!(accepted, self.reference.estab(proposal));
                    }
                }
                _ => {
                    let own = planted(&self.nodes[0], rng);
                    self.nodes[0].corrupt_sent_own(own.clone());
                    self.reference.corrupt_sent_own(own);
                }
            }
            None
        }
    }

    fn peers(node: &RecSa) -> Vec<(ProcessId, &Peer)> {
        node.peers.iter().collect()
    }

    proptest! {
        /// Every broadcast of every processor, through random steps,
        /// receipts, replays, faults of every `corrupt_*` kind, proposals and
        /// planted cache contents, carries one own half that equals the
        /// values its sender would build afresh.
        #[test]
        fn every_broadcast_carries_the_current_own_values(
            converged in any::<bool>(),
            raw_ops in proptest::collection::vec((0u8..15, 0u8..4, 0u64..u64::MAX), 0..160),
        ) {
            let mut cluster = Cluster::new(converged);
            for (kind, k, word) in raw_ops {
                let mut rng = SimRng::seed_from(word);
                if let Some((fresh, sent)) = cluster.apply(kind, usize::from(k), &mut rng) {
                    for msg in &sent {
                        prop_assert_eq!(&*msg.own, &fresh);
                        prop_assert!(Arc::ptr_eq(&msg.own, &sent[0].own));
                    }
                }
            }
        }

        /// Processor 0 and a copy that stores every handle it receives go
        /// through the same history and hold value-equal peer records, the
        /// same `allSeen` and the same `noReco()` verdict after every
        /// operation; their broadcasts are compared inside `apply`.
        #[test]
        fn compare_before_store_matches_storing_every_handle(
            converged in any::<bool>(),
            raw_ops in proptest::collection::vec((0u8..15, 0u8..4, 0u64..u64::MAX), 0..160),
        ) {
            let mut cluster = Cluster::new(converged);
            for (kind, k, word) in raw_ops {
                let mut rng = SimRng::seed_from(word);
                cluster.apply(kind, usize::from(k), &mut rng);
                let (node, reference) = (&cluster.nodes[0], &cluster.reference);
                prop_assert_eq!(peers(node), peers(reference));
                prop_assert_eq!(&node.all_seen, &reference.all_seen);
                prop_assert_eq!(node.no_reco(), reference.no_reco());
                prop_assert_eq!(node.my_part_shared(), reference.my_part_shared());
            }
        }
    }
}
