//! The heartbeat-count vector detector.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use simnet::{Ascending, ProcessId};

use crate::estimate::gap_estimate;

/// Identifiers below this bound live in the dense baseline vector; larger
/// ones (which only transient faults or forged packets can produce) spill
/// into an ordered map. Covers the largest populations the campaign tiers
/// run (n = 1024 → `n_bound` = 2048) plus the ghost-identifier ranges the
/// fault plans forge.
const DENSE_LIMIT: u32 = 4096;

/// Absent-entry sentinel for the dense baseline vector. No legal baseline
/// reaches it: baselines are `total − count` with `total ≥ 0` bounded by the
/// number of heartbeats processed and `count ≤ u64::MAX`.
const ABSENT: i128 = i128::MIN;

/// The `(N,Θ)`-failure detector of one processor.
///
/// * `N` bounds the number of processors that can be active at any time; any
///   entry ranked below the `N`-th is ignored.
/// * `Θ` (the *suspicion threshold*) bounds how stale a processor's heartbeat
///   count may become, relative to the freshest counts, before it is
///   suspected.
///
/// The structure is bounded: it retains at most `2·N` entries (the `N` best
/// ranked plus room for newcomers before the next prune).
///
/// Internally the count vector is stored in difference form: a logical clock
/// `total` counts every heartbeat processed, and per peer only the clock
/// value of its latest heartbeat is kept, so that
/// `count(p) = total − base[p]`. This makes [`ThetaFailureDetector::heartbeat`]
/// — which runs for **every** received packet — `O(log N)` instead of the
/// naive `O(N)` sweep incrementing every other entry, while producing
/// exactly the same counts.
#[derive(Debug, Clone)]
pub struct ThetaFailureDetector {
    me: ProcessId,
    n_bound: usize,
    theta: u64,
    /// Logical clock: total heartbeats processed.
    total: i128,
    /// Per-peer baseline for identifiers below [`DENSE_LIMIT`], indexed by
    /// the raw identifier; `count(p) = total − dense[p]`, [`ABSENT`] marks an
    /// untracked slot. Signed because transient-fault injection may set
    /// counts above the clock. The dense layout makes the per-packet
    /// [`ThetaFailureDetector::heartbeat`] a plain array write instead of an
    /// ordered-map insertion.
    dense: Vec<i128>,
    /// Baselines of identifiers at or above [`DENSE_LIMIT`].
    spill: BTreeMap<ProcessId, i128>,
    /// Number of tracked entries across `dense` and `spill`.
    tracked: usize,
    /// Bumped on every mutation; keys `trusted_cache`.
    version: u64,
    /// The trusted set computed at `version`, reused until the next
    /// mutation so the several trust queries a composite node issues per
    /// step rank the vector once. Shared (`Arc`) so callers on the hot path
    /// can hold the set without cloning it, and so a stale version stamp
    /// whose *membership* did not change (the steady-state norm — heartbeats
    /// move counts every round, membership almost never) revalidates the
    /// existing allocation instead of rebuilding the set.
    trusted_cache: RefCell<Option<(u64, Arc<BTreeSet<ProcessId>>)>>,
}

/// A raw count from the difference representation, saturated into `u64`
/// exactly like the former explicit vector (which used `saturating_add`).
fn saturate(diff: i128) -> u64 {
    diff.clamp(0, u64::MAX as i128) as u64
}

impl ThetaFailureDetector {
    /// Creates a detector for processor `me` with participation bound
    /// `n_bound` (the paper's `N`) and suspicion threshold `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n_bound == 0` or `theta == 0`.
    pub fn new(me: ProcessId, n_bound: usize, theta: u64) -> Self {
        assert!(n_bound > 0, "participation bound N must be positive");
        assert!(theta > 0, "suspicion threshold theta must be positive");
        ThetaFailureDetector {
            me,
            n_bound,
            theta,
            total: 0,
            dense: Vec::new(),
            spill: BTreeMap::new(),
            tracked: 0,
            version: 0,
            trusted_cache: RefCell::new(None),
        }
    }

    // ----- baseline storage ------------------------------------------------

    /// Stores `baseline` for `peer`, routing small identifiers to the dense
    /// vector.
    fn set_base(&mut self, peer: ProcessId, baseline: i128) {
        self.version += 1;
        let raw = peer.as_u32();
        if raw < DENSE_LIMIT {
            let idx = raw as usize;
            if idx >= self.dense.len() {
                self.dense.resize(idx + 1, ABSENT);
            }
            if self.dense[idx] == ABSENT {
                self.tracked += 1;
            }
            self.dense[idx] = baseline;
        } else if self.spill.insert(peer, baseline).is_none() {
            self.tracked += 1;
        }
    }

    fn get_base(&self, peer: ProcessId) -> Option<i128> {
        let raw = peer.as_u32();
        if raw < DENSE_LIMIT {
            match self.dense.get(raw as usize) {
                Some(&b) if b != ABSENT => Some(b),
                _ => None,
            }
        } else {
            self.spill.get(&peer).copied()
        }
    }

    fn remove_base(&mut self, peer: ProcessId) {
        self.version += 1;
        let raw = peer.as_u32();
        if raw < DENSE_LIMIT {
            if let Some(slot) = self.dense.get_mut(raw as usize) {
                if *slot != ABSENT {
                    *slot = ABSENT;
                    self.tracked -= 1;
                }
            }
        } else if self.spill.remove(&peer).is_some() {
            self.tracked -= 1;
        }
    }

    /// All tracked `(peer, baseline)` entries in ascending identifier order
    /// (dense identifiers are all smaller than spilled ones).
    fn entries(&self) -> impl Iterator<Item = (ProcessId, i128)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != ABSENT)
            .map(|(i, &b)| (ProcessId::new(i as u32), b))
            .chain(self.spill.iter().map(|(p, &b)| (*p, b)))
    }

    /// The owner of this detector.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The participation bound `N`.
    pub fn n_bound(&self) -> usize {
        self.n_bound
    }

    /// The suspicion threshold `Θ`.
    pub fn theta(&self) -> u64 {
        self.theta
    }

    /// Records a heartbeat (token receipt) from `peer`: `peer`'s count is
    /// reset to zero and every other tracked count is incremented by one.
    /// Heartbeats from `me` itself are ignored — a processor always trusts
    /// itself.
    pub fn heartbeat(&mut self, peer: ProcessId) {
        if peer == self.me {
            return;
        }
        // Difference form of "reset `peer` to 0, increment every other
        // tracked count": advance the clock, re-baseline `peer`.
        self.total += 1;
        self.set_base(peer, self.total);
        self.prune();
    }

    /// Keeps the vector bounded: only the `2·N` best-ranked entries are
    /// retained (the paper ignores everything ranked below the `N`-th; we
    /// keep a little slack so newcomers are not evicted prematurely).
    fn prune(&mut self) {
        let limit = 2 * self.n_bound;
        if self.tracked <= limit {
            return;
        }
        let mut ranked = self.ranked();
        ranked.truncate(limit);
        let keep: BTreeSet<ProcessId> = ranked.into_iter().map(|(p, _)| p).collect();
        let evict: Vec<ProcessId> = self
            .entries()
            .map(|(p, _)| p)
            .filter(|p| !keep.contains(p))
            .collect();
        for p in evict {
            self.remove_base(p);
        }
    }

    /// The heartbeat count currently recorded for `peer` (`None` if `peer`
    /// was never heard from or has been pruned).
    pub fn count(&self, peer: ProcessId) -> Option<u64> {
        self.get_base(peer).map(|b| saturate(self.total - b))
    }

    /// All tracked processors ranked from most to least recently heard
    /// (ties broken by identifier).
    pub fn ranked(&self) -> Vec<(ProcessId, u64)> {
        let mut ranked: Vec<(ProcessId, u64)> = self
            .entries()
            .map(|(p, b)| (p, saturate(self.total - b)))
            .collect();
        ranked.sort_by_key(|(p, c)| (*c, *p));
        ranked
    }

    /// Runs `f` on the current trusted set, computing it only when a
    /// mutation happened since the last query.
    fn with_trusted<R>(&self, f: impl FnOnce(&BTreeSet<ProcessId>) -> R) -> R {
        f(&self.trusted_shared())
    }

    /// The trusted set behind a shared handle — the zero-clone face of
    /// [`ThetaFailureDetector::trusted`] for the per-step hot path. The
    /// cached allocation is reused as long as the *membership* is unchanged,
    /// even across heartbeats (which bump the version every round but only
    /// move counts): a cheap subset-plus-cardinality sweep revalidates the
    /// stale stamp before falling back to a full recompute.
    pub fn trusted_shared(&self) -> Arc<BTreeSet<ProcessId>> {
        let mut cache = self.trusted_cache.borrow_mut();
        if let Some((version, set)) = cache.as_ref() {
            if *version == self.version {
                return set.clone();
            }
            if self.cached_still_trusted(set) {
                debug_assert_eq!(
                    **set,
                    self.compute_trusted(),
                    "trusted-set revalidation accepted a stale membership"
                );
                let set = set.clone();
                *cache = Some((self.version, set.clone()));
                return set;
            }
        }
        let set = Arc::new(self.compute_trusted());
        *cache = Some((self.version, set.clone()));
        set
    }

    /// Whether `cached` is still exactly the trusted set, checked without
    /// allocating: every in-window entry must be in `cached` and account —
    /// together with `me` — for its whole cardinality (a subset of equal
    /// size is equal). Only valid for the unranked fast path; more than `N`
    /// window members forces the ranked recompute.
    fn cached_still_trusted(&self, cached: &BTreeSet<ProcessId>) -> bool {
        debug_assert!(cached.contains(&self.me), "trusted sets always hold me");
        if self.tracked == 0 {
            return cached.len() == 1;
        }
        let freshest = self
            .entries()
            .map(|(_, b)| saturate(self.total - b))
            .min()
            .expect("tracked > 0");
        let in_window = |b: i128| saturate(self.total - b).saturating_sub(freshest) <= self.theta;
        let mut window = 0usize;
        let mut me_in_window = false;
        // Entries and the cached set both ascend: one walk of each.
        let mut cached_ids = Ascending::new(cached.iter().copied());
        for (p, b) in self.entries() {
            if in_window(b) {
                window += 1;
                me_in_window |= p == self.me;
                if window > self.n_bound || !cached_ids.contains(&p) {
                    return false;
                }
            }
        }
        cached.len() == window + usize::from(!me_in_window)
    }

    /// Computes the trusted set: the first `N` ranked entries whose count
    /// lags the freshest count by at most `Θ`, plus `me`.
    ///
    /// In the common case — no more than `N` processors inside the `Θ`
    /// window — no ranking is needed at all: everyone inside the window
    /// outranks everyone outside it (ranking is by count), so the window
    /// members *are* the first entries and a single unsorted sweep suffices.
    fn compute_trusted(&self) -> BTreeSet<ProcessId> {
        let mut trusted = BTreeSet::new();
        trusted.insert(self.me);
        if self.tracked == 0 {
            return trusted;
        }
        let freshest = self
            .entries()
            .map(|(_, b)| saturate(self.total - b))
            .min()
            .expect("tracked > 0");
        let in_window = |b: i128| saturate(self.total - b).saturating_sub(freshest) <= self.theta;
        let window = self.entries().filter(|(_, b)| in_window(*b)).count();
        if window <= self.n_bound {
            trusted.extend(
                self.entries()
                    .filter(|(_, b)| in_window(*b))
                    .map(|(p, _)| p),
            );
        } else {
            let mut ranked: Vec<(u64, ProcessId)> = self
                .entries()
                .filter(|(_, b)| in_window(*b))
                .map(|(p, b)| (saturate(self.total - b), p))
                .collect();
            ranked.sort_unstable();
            ranked.truncate(self.n_bound);
            trusted.extend(ranked.into_iter().map(|(_, p)| p));
        }
        trusted
    }

    /// Returns `true` when `peer` is currently trusted.
    ///
    /// A processor always trusts itself. Another processor is trusted when
    /// its heartbeat count does not lag the freshest count by more than `Θ`
    /// and it is ranked among the first `N` entries.
    pub fn trusts(&self, peer: ProcessId) -> bool {
        self.with_trusted(|t| t.contains(&peer))
    }

    /// The set of trusted processors (always contains `me`).
    pub fn trusted(&self) -> BTreeSet<ProcessId> {
        self.with_trusted(|t| t.clone())
    }

    /// The set of tracked-but-suspected processors.
    pub fn suspected(&self) -> BTreeSet<ProcessId> {
        self.with_trusted(|trusted| {
            self.entries()
                .map(|(p, _)| p)
                .filter(|p| !trusted.contains(p))
                .collect()
        })
    }

    /// The gap-based estimate of the number of currently active processors
    /// (`nᵢ ≤ N`), counting `me` itself.
    pub fn estimate_active(&self) -> usize {
        let counts: Vec<u64> = self.ranked().into_iter().map(|(_, c)| c).collect();
        let estimate = gap_estimate(&counts, self.theta);
        (estimate + 1).min(self.n_bound) // +1 accounts for `me`
    }

    /// Discards all knowledge about `peer`.
    pub fn forget(&mut self, peer: ProcessId) {
        self.remove_base(peer);
    }

    /// Overwrites the count of `peer` (transient-fault injection helper).
    pub fn corrupt_count(&mut self, peer: ProcessId, count: u64) {
        if peer != self.me {
            self.set_base(peer, self.total - count as i128);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn trusts_itself_even_with_no_heartbeats() {
        let fd = ThetaFailureDetector::new(pid(0), 4, 8);
        assert!(fd.trusts(pid(0)));
        assert_eq!(fd.trusted().len(), 1);
        assert_eq!(fd.estimate_active(), 1);
    }

    #[test]
    fn frequent_heartbeats_keep_a_peer_trusted() {
        let mut fd = ThetaFailureDetector::new(pid(0), 4, 8);
        for _ in 0..100 {
            fd.heartbeat(pid(1));
            fd.heartbeat(pid(2));
        }
        assert!(fd.trusts(pid(1)));
        assert!(fd.trusts(pid(2)));
        assert!(fd.count(pid(1)).unwrap() <= 1);
    }

    #[test]
    fn silent_peer_becomes_suspected() {
        let mut fd = ThetaFailureDetector::new(pid(0), 4, 8);
        fd.heartbeat(pid(9)); // heard once, then silence
        for _ in 0..50 {
            fd.heartbeat(pid(1));
            fd.heartbeat(pid(2));
        }
        assert!(!fd.trusts(pid(9)));
        assert!(fd.suspected().contains(&pid(9)));
        assert!(fd.trusts(pid(1)));
    }

    #[test]
    fn crashed_processor_is_ranked_last() {
        let mut fd = ThetaFailureDetector::new(pid(0), 8, 8);
        for peer in [1, 2, 3] {
            fd.heartbeat(pid(peer));
        }
        // Processor 3 stops; 1 and 2 keep going.
        for _ in 0..30 {
            fd.heartbeat(pid(1));
            fd.heartbeat(pid(2));
        }
        let ranked = fd.ranked();
        assert_eq!(ranked.last().unwrap().0, pid(3));
    }

    #[test]
    fn estimate_tracks_number_of_active_processors() {
        let mut fd = ThetaFailureDetector::new(pid(0), 16, 4);
        // Four live peers heartbeat in round-robin; one early peer crashes.
        fd.heartbeat(pid(9));
        for _ in 0..50 {
            for peer in [1, 2, 3, 4] {
                fd.heartbeat(pid(peer));
            }
        }
        // me + 4 live peers
        assert_eq!(fd.estimate_active(), 5);
    }

    #[test]
    fn heartbeat_from_self_is_ignored() {
        let mut fd = ThetaFailureDetector::new(pid(0), 4, 4);
        fd.heartbeat(pid(0));
        assert_eq!(fd.count(pid(0)), None);
        assert_eq!(fd.ranked().len(), 0);
    }

    #[test]
    fn vector_stays_bounded() {
        let mut fd = ThetaFailureDetector::new(pid(0), 4, 4);
        for i in 1..100 {
            fd.heartbeat(pid(i));
        }
        assert!(fd.ranked().len() <= 8, "len = {}", fd.ranked().len());
    }

    #[test]
    fn forget_removes_peer() {
        let mut fd = ThetaFailureDetector::new(pid(0), 4, 4);
        fd.heartbeat(pid(1));
        fd.forget(pid(1));
        assert_eq!(fd.count(pid(1)), None);
    }

    #[test]
    fn recovers_from_corrupted_counts() {
        let mut fd = ThetaFailureDetector::new(pid(0), 4, 8);
        for _ in 0..10 {
            fd.heartbeat(pid(1));
            fd.heartbeat(pid(2));
        }
        // Transient fault: a live peer's count is corrupted sky-high, so it
        // lags far behind the other live peer and is suspected.
        fd.corrupt_count(pid(1), 1_000_000);
        assert!(!fd.trusts(pid(1)));
        // Continued heartbeats re-establish trust: self-stabilization of the
        // detector output.
        for _ in 0..5 {
            fd.heartbeat(pid(1));
            fd.heartbeat(pid(2));
        }
        assert!(fd.trusts(pid(1)));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zero_theta_rejected() {
        let _ = ThetaFailureDetector::new(pid(0), 4, 0);
    }

    #[test]
    #[should_panic(expected = "N must be positive")]
    fn zero_n_rejected() {
        let _ = ThetaFailureDetector::new(pid(0), 0, 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    proptest! {
        /// Processors that heartbeat regularly in the recent past are always
        /// trusted, regardless of the interleaving of older heartbeats.
        #[test]
        fn recently_active_peers_are_trusted(
            old_beats in proptest::collection::vec(1u32..20, 0..100),
            live in proptest::collection::btree_set(1u32..6, 1..5),
        ) {
            let mut fd = ThetaFailureDetector::new(pid(0), 8, 4 * 6);
            for b in old_beats {
                fd.heartbeat(pid(b));
            }
            // A burst of fresh rounds from the live set.
            for _ in 0..10 {
                for p in &live {
                    fd.heartbeat(pid(*p));
                }
            }
            for p in &live {
                prop_assert!(fd.trusts(pid(*p)), "live peer {p} not trusted");
            }
        }

        /// The active estimate never exceeds the participation bound.
        #[test]
        fn estimate_is_bounded_by_n(
            beats in proptest::collection::vec(1u32..50, 0..300),
            n in 1usize..10,
        ) {
            let mut fd = ThetaFailureDetector::new(pid(0), n, 8);
            for b in beats {
                fd.heartbeat(pid(b));
            }
            prop_assert!(fd.estimate_active() <= n);
            prop_assert!(fd.estimate_active() >= 1);
        }
    }
}
