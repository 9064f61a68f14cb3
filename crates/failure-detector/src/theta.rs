//! The heartbeat-count vector detector.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;

use simnet::{PeerTable, ProcessId};

use crate::estimate::gap_estimate;

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
/// — which runs for **every** received packet — one table write instead of
/// the naive `O(N)` sweep incrementing every other entry, while producing
/// exactly the same counts.
#[derive(Debug, Clone)]
pub struct ThetaFailureDetector {
    me: ProcessId,
    n_bound: usize,
    theta: u64,
    /// Logical clock: total heartbeats processed.
    total: i128,
    /// Per-peer baseline: `count(p) = total − bases[p]`. Signed because
    /// transient-fault injection may set counts above the clock.
    bases: PeerTable<i128>,
    /// Number of entries in `bases`.
    tracked: usize,
    /// Bumped on every mutation; keys `trusted_cache`.
    version: u64,
    /// The trusted set as of `version`, so the several trust queries a
    /// composite node issues per step rank the vector once.
    trusted_cache: RefCell<TrustedCache>,
}

/// The trusted set behind a shared handle, and the scratch it is recomputed
/// into. Shared (`Arc`) so callers on the hot path can hold the set without
/// cloning it; kept across a recompute whose *membership* did not change
/// (the steady-state norm — heartbeats move counts every round, membership
/// almost never), so the steady state allocates nothing.
#[derive(Debug, Clone)]
struct TrustedCache {
    version: u64,
    set: Arc<BTreeSet<ProcessId>>,
    scratch: Vec<ProcessId>,
}

/// A raw count from the difference representation, saturated into `u64`
/// exactly like the explicit vector (which uses `saturating_add`).
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
            bases: PeerTable::new(),
            tracked: 0,
            version: 0,
            trusted_cache: RefCell::new(TrustedCache {
                version: 0,
                set: Arc::new(BTreeSet::from([me])),
                scratch: Vec::new(),
            }),
        }
    }

    /// Stores `baseline` for `peer`.
    fn set_base(&mut self, peer: ProcessId, baseline: i128) {
        self.version += 1;
        if self.bases.insert(peer, baseline).is_none() {
            self.tracked += 1;
        }
    }

    /// The count a baseline stands for.
    fn count_of(&self, baseline: i128) -> u64 {
        saturate(self.total - baseline)
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
        let (last_id, last_count) = self.ranked()[limit - 1];
        let total = self.total;
        self.bases
            .retain(|p, b| (saturate(total - *b), p) <= (last_count, last_id));
        self.tracked = limit;
        self.version += 1;
    }

    /// The heartbeat count currently recorded for `peer` (`None` if `peer`
    /// was never heard from or has been pruned).
    pub fn count(&self, peer: ProcessId) -> Option<u64> {
        self.bases.get(peer).map(|b| self.count_of(*b))
    }

    /// All tracked processors ranked from most to least recently heard
    /// (ties broken by identifier).
    pub fn ranked(&self) -> Vec<(ProcessId, u64)> {
        let mut ranked: Vec<(ProcessId, u64)> = self
            .bases
            .iter()
            .map(|(p, b)| (p, self.count_of(*b)))
            .collect();
        ranked.sort_by_key(|(p, c)| (*c, *p));
        ranked
    }

    /// Writes the trusted set into `out` in ascending order: the first `N`
    /// ranked entries whose count lags the freshest count by at most `Θ`,
    /// plus `me`.
    ///
    /// Everyone inside the `Θ` window outranks everyone outside it (ranking
    /// is by count), so unless more than `N` entries are in the window they
    /// all are the first ones and no ranking is needed.
    fn fill_trusted(&self, out: &mut Vec<ProcessId>) {
        out.clear();
        if let Some(freshest) = self.bases.iter().map(|(_, b)| self.count_of(*b)).min() {
            out.extend(
                self.bases
                    .iter()
                    .filter(|(_, b)| self.count_of(**b) - freshest <= self.theta)
                    .map(|(p, _)| p),
            );
            if out.len() > self.n_bound {
                out.sort_unstable_by_key(|p| (self.count(*p), *p));
                out.truncate(self.n_bound);
                out.sort_unstable();
            }
        }
        if let Err(at) = out.binary_search(&self.me) {
            out.insert(at, self.me);
        }
    }

    /// The trusted set behind a shared handle — the zero-clone face of
    /// [`ThetaFailureDetector::trusted`] for the per-step hot path. After a
    /// mutation the set is recomputed into a scratch vector, and the cached
    /// allocation is kept when the membership is unchanged.
    pub fn trusted_shared(&self) -> Arc<BTreeSet<ProcessId>> {
        let mut cache = self.trusted_cache.borrow_mut();
        let cache = &mut *cache;
        if cache.version != self.version {
            cache.version = self.version;
            self.fill_trusted(&mut cache.scratch);
            if !cache.set.iter().eq(cache.scratch.iter()) {
                cache.set = Arc::new(cache.scratch.iter().copied().collect());
            }
        }
        cache.set.clone()
    }

    /// Returns `true` when `peer` is currently trusted.
    ///
    /// A processor always trusts itself. Another processor is trusted when
    /// its heartbeat count does not lag the freshest count by more than `Θ`
    /// and it is ranked among the first `N` entries.
    pub fn trusts(&self, peer: ProcessId) -> bool {
        self.trusted_shared().contains(&peer)
    }

    /// The set of trusted processors (always contains `me`).
    pub fn trusted(&self) -> BTreeSet<ProcessId> {
        (*self.trusted_shared()).clone()
    }

    /// The set of tracked-but-suspected processors.
    pub fn suspected(&self) -> BTreeSet<ProcessId> {
        let trusted = self.trusted_shared();
        self.bases
            .iter()
            .map(|(p, _)| p)
            .filter(|p| !trusted.contains(p))
            .collect()
    }

    /// The gap-based estimate of the number of currently active processors
    /// (`nᵢ ≤ N`), counting `me` itself.
    pub fn estimate_active(&self) -> usize {
        let counts: Vec<u64> = self.ranked().into_iter().map(|(_, c)| c).collect();
        let estimate = gap_estimate(&counts, self.theta);
        (estimate + 1).min(self.n_bound) // +1 accounts for `me`
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
    use simnet::PeerTable;

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

    /// Identifiers at and above `PeerTable::DENSE_LIMIT` live outside the
    /// table's dense vector; the detector must not be able to tell.
    #[test]
    fn a_spilled_peer_is_tracked_like_a_dense_one() {
        let run = |last: u32| {
            let as_3 = |p: ProcessId| if p == pid(last) { pid(3) } else { p };
            let observe = |fd: &ThetaFailureDetector| {
                let ranked: Vec<_> = fd.ranked().into_iter().map(|(p, c)| (as_3(p), c)).collect();
                let suspected: BTreeSet<_> = fd.suspected().into_iter().map(as_3).collect();
                (fd.trusts(pid(last)), fd.count(pid(last)), ranked, suspected)
            };
            let mut fd = ThetaFailureDetector::new(pid(0), 2, 4);
            for _ in 0..3 {
                for p in [1, last, 2] {
                    fd.heartbeat(pid(p));
                }
            }
            let mut seen = vec![observe(&fd)];
            // `last` falls silent and is suspected...
            for _ in 0..4 {
                fd.heartbeat(pid(1));
                fd.heartbeat(pid(2));
                seen.push(observe(&fd));
            }
            // ...then newcomers push the vector past 2·N and it is pruned.
            for p in [5, 6] {
                fd.heartbeat(pid(p));
                seen.push(observe(&fd));
            }
            seen
        };
        let dense = run(3);
        assert!(dense[0].0, "trusted while heard from");
        assert!(
            !dense[4].0 && dense[4].3.contains(&pid(3)),
            "suspected after silence"
        );
        assert_eq!(dense.last().unwrap().1, None, "pruned");
        for spilled in [PeerTable::<()>::DENSE_LIMIT, u32::MAX] {
            assert_eq!(run(spilled), dense, "spilled p{spilled}");
        }
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

/// The paper's detector as written: an explicit count vector, no baselines
/// and no cache. The refinement proptest holds the detector to it.
#[cfg(test)]
mod model {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;
    use simnet::{PeerTable, ProcessId};

    use super::ThetaFailureDetector;
    use crate::estimate::gap_estimate;

    struct Model {
        me: ProcessId,
        n_bound: usize,
        theta: u64,
        counts: BTreeMap<ProcessId, u64>,
    }

    impl Model {
        /// Token from `peer`: its count drops to zero, every other count
        /// grows by one; then only the `2·N` best-ranked entries stay.
        fn heartbeat(&mut self, peer: ProcessId) {
            if peer == self.me {
                return;
            }
            for count in self.counts.values_mut() {
                *count = count.saturating_add(1);
            }
            self.counts.insert(peer, 0);
            let keep: BTreeSet<ProcessId> = self
                .ranked()
                .into_iter()
                .take(2 * self.n_bound)
                .map(|(p, _)| p)
                .collect();
            self.counts.retain(|p, _| keep.contains(p));
        }

        fn corrupt_count(&mut self, peer: ProcessId, count: u64) {
            if peer != self.me {
                self.counts.insert(peer, count);
            }
        }

        fn ranked(&self) -> Vec<(ProcessId, u64)> {
            let mut ranked: Vec<(ProcessId, u64)> =
                self.counts.iter().map(|(p, c)| (*p, *c)).collect();
            ranked.sort_by_key(|(p, c)| (*c, *p));
            ranked
        }

        /// The first `N` ranked entries within `Θ` of the freshest, plus `me`.
        fn trusted(&self) -> BTreeSet<ProcessId> {
            let ranked = self.ranked();
            let freshest = ranked.first().map_or(0, |(_, c)| *c);
            let mut trusted: BTreeSet<ProcessId> = ranked
                .into_iter()
                .filter(|(_, c)| c - freshest <= self.theta)
                .take(self.n_bound)
                .map(|(p, _)| p)
                .collect();
            trusted.insert(self.me);
            trusted
        }

        fn suspected(&self) -> BTreeSet<ProcessId> {
            let trusted = self.trusted();
            self.counts
                .keys()
                .filter(|p| !trusted.contains(p))
                .copied()
                .collect()
        }

        fn estimate_active(&self) -> usize {
            let counts: Vec<u64> = self.ranked().into_iter().map(|(_, c)| c).collect();
            (gap_estimate(&counts, self.theta) + 1).min(self.n_bound)
        }
    }

    const LIMIT: u32 = PeerTable::<()>::DENSE_LIMIT;

    /// Small identifiers (the owner is `0`), ones on both sides of the
    /// dense limit, and the largest.
    fn id((region, offset): (u8, u32)) -> ProcessId {
        ProcessId::new(match region {
            0 => offset,
            1 => LIMIT - 2 + offset,
            _ => u32::MAX - offset,
        })
    }

    /// Corrupted counts: small ones, ones near the saturation point, and
    /// the saturation point itself.
    fn corrupted(raw: u64) -> u64 {
        match raw % 4 {
            0 => raw / 4 % 16,
            1 => u64::MAX - raw / 4 % 4,
            2 => u64::MAX,
            _ => raw,
        }
    }

    proptest! {
        /// Under heartbeats and corrupted counts from any identifier, the
        /// detector answers every query exactly like the count vector.
        #[test]
        fn detector_matches_the_count_vector(
            n_bound in 1usize..4,
            theta in 1u64..6,
            ops in proptest::collection::vec((0u8..4, (0u8..3, 0u32..4), any::<u64>()), 0..120),
        ) {
            let me = ProcessId::new(0);
            let mut fd = ThetaFailureDetector::new(me, n_bound, theta);
            let mut model = Model { me, n_bound, theta, counts: BTreeMap::new() };
            for (op, raw, value) in ops {
                let peer = id(raw);
                if op == 0 {
                    fd.corrupt_count(peer, corrupted(value));
                    model.corrupt_count(peer, corrupted(value));
                } else {
                    fd.heartbeat(peer);
                    model.heartbeat(peer);
                }
                prop_assert_eq!(fd.ranked(), model.ranked());
                prop_assert_eq!(fd.trusted(), model.trusted());
                prop_assert_eq!(fd.suspected(), model.suspected());
                prop_assert_eq!(fd.count(peer), model.counts.get(&peer).copied());
                prop_assert_eq!(fd.estimate_active(), model.estimate_active());
            }
        }
    }
}
