//! A per-peer table: a map keyed by [`ProcessId`] with `O(1)` access for
//! ordinary identifiers.
//!
//! The protocol layers keep one record per peer (`config[]`, `FD[]`, …) and
//! the network keeps one row of channels per destination; both are read or
//! written once or several times **per message**, which is the wrong place
//! for an ordered-map walk. Identifiers handed out by a simulation are small
//! and contiguous, so the table indexes a vector by the raw identifier.
//!
//! Identifiers are also attacker-controlled: a transient fault or a forged
//! packet can name `ProcessId(u32::MAX)`, and a vector indexed by it would
//! allocate by *identifier*, not by population. Identifiers at or above
//! [`PeerTable::DENSE_LIMIT`] therefore spill into an ordered map, which
//! bounds the vector at `DENSE_LIMIT` slots whatever arrives. The Θ failure
//! detector keeps its per-peer heartbeat baselines in one.
//!
//! Iteration is in ascending identifier order — every dense identifier is
//! smaller than every spilled one — so a `PeerTable` can replace a
//! `BTreeMap<ProcessId, V>` wherever iteration order is observable.

use std::collections::BTreeMap;
use std::fmt;

use crate::process::ProcessId;

/// A map from [`ProcessId`] to `V` with array access below
/// [`PeerTable::DENSE_LIMIT`] and an ordered spill above it.
///
/// ```
/// use simnet::{PeerTable, ProcessId};
/// let mut seen: PeerTable<u64> = PeerTable::new();
/// seen.insert(ProcessId::new(3), 30);
/// seen.insert(ProcessId::new(u32::MAX), 99); // forged: spills, allocates O(1)
/// *seen.get_or_insert_with(ProcessId::new(1), || 0) += 10;
/// let ascending: Vec<(ProcessId, u64)> = seen.iter().map(|(k, v)| (k, *v)).collect();
/// assert_eq!(
///     ascending,
///     vec![
///         (ProcessId::new(1), 10),
///         (ProcessId::new(3), 30),
///         (ProcessId::new(u32::MAX), 99),
///     ]
/// );
/// ```
#[derive(Clone)]
pub struct PeerTable<V> {
    /// Slot `i` holds the entry of `ProcessId(i)`; grown on demand, never
    /// beyond [`PeerTable::DENSE_LIMIT`] slots.
    dense: Vec<Option<V>>,
    /// Entries of identifiers at or above [`PeerTable::DENSE_LIMIT`].
    spill: BTreeMap<ProcessId, V>,
}

impl<V> Default for PeerTable<V> {
    fn default() -> Self {
        PeerTable::new()
    }
}

/// Tables are equal when they hold the same entries: a slot that was
/// cleared, or never reached, is no entry.
impl<V: PartialEq> PartialEq for PeerTable<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Formats as the `BTreeMap` the table stands in for.
impl<V: fmt::Debug> fmt::Debug for PeerTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> PeerTable<V> {
    /// Identifiers below this bound are array-indexed; larger ones (which
    /// only transient faults or forged packets produce) live in the ordered
    /// spill. Covers the largest populations the campaign tiers run
    /// (n = 1024) plus the ghost-identifier ranges the Byzantine faults forge.
    pub const DENSE_LIMIT: u32 = 4096;

    /// An empty table. Allocates nothing.
    pub fn new() -> Self {
        PeerTable {
            dense: Vec::new(),
            spill: BTreeMap::new(),
        }
    }

    /// The dense slot index of `id`, or `None` when it spills.
    fn dense_index(id: ProcessId) -> Option<usize> {
        (id.as_u32() < Self::DENSE_LIMIT).then_some(id.as_u32() as usize)
    }

    /// Dense slot `i`, growing the vector to reach it.
    fn dense_slot(&mut self, i: usize) -> &mut Option<V> {
        if i >= self.dense.len() {
            self.dense.resize_with(i + 1, || None);
        }
        &mut self.dense[i]
    }

    /// The entry of `id`, if any.
    pub fn get(&self, id: ProcessId) -> Option<&V> {
        match Self::dense_index(id) {
            Some(i) => self.dense.get(i)?.as_ref(),
            None => self.spill.get(&id),
        }
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: ProcessId) -> bool {
        self.get(id).is_some()
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.spill.is_empty() && self.dense.iter().all(Option::is_none)
    }

    /// Removes every entry. The dense vector keeps its allocation, so
    /// refilling the same identifiers allocates nothing.
    pub fn clear(&mut self) {
        self.dense.clear();
        self.spill.clear();
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in ascending identifier order.
    pub fn retain(&mut self, mut keep: impl FnMut(ProcessId, &mut V) -> bool) {
        for (i, slot) in self.dense.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(ProcessId::new(i as u32), v) {
                    *slot = None;
                }
            }
        }
        self.spill.retain(|id, v| keep(*id, v));
    }

    /// Mutable access to the entry of `id`, if any.
    pub fn get_mut(&mut self, id: ProcessId) -> Option<&mut V> {
        match Self::dense_index(id) {
            Some(i) => self.dense.get_mut(i)?.as_mut(),
            None => self.spill.get_mut(&id),
        }
    }

    /// Stores `value` under `id`, returning the entry it replaces.
    pub fn insert(&mut self, id: ProcessId, value: V) -> Option<V> {
        match Self::dense_index(id) {
            Some(i) => self.dense_slot(i).replace(value),
            None => self.spill.insert(id, value),
        }
    }

    /// The entry of `id`, created from `make` when absent.
    pub fn get_or_insert_with(&mut self, id: ProcessId, make: impl FnOnce() -> V) -> &mut V {
        match Self::dense_index(id) {
            Some(i) => self.dense_slot(i).get_or_insert_with(make),
            None => self.spill.entry(id).or_insert_with(make),
        }
    }

    /// All `(id, entry)` pairs in ascending identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &V)> + '_ {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((ProcessId::new(i as u32), slot.as_ref()?)));
        dense.chain(self.spill.iter().map(|(id, v)| (*id, v)))
    }

    /// Bytes the dense vector holds, used or not: what a forged identifier
    /// below the limit can make a table cost.
    #[cfg(test)]
    pub(crate) fn dense_footprint(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<Option<V>>()
    }

    /// All `(id, entry)` pairs in ascending identifier order, entries mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ProcessId, &mut V)> + '_ {
        let dense = self
            .dense
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| Some((ProcessId::new(i as u32), slot.as_mut()?)));
        dense.chain(self.spill.iter_mut().map(|(id, v)| (*id, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: u32 = PeerTable::<()>::DENSE_LIMIT;

    #[test]
    fn insert_get_and_replace() {
        let mut t: PeerTable<&str> = PeerTable::new();
        assert_eq!(t.insert(ProcessId::new(2), "a"), None);
        assert_eq!(t.insert(ProcessId::new(2), "b"), Some("a"));
        assert_eq!(t.iter().count(), 1);
        assert_eq!(t.get(ProcessId::new(2)), Some(&"b"));
        assert_eq!(t.get(ProcessId::new(1)), None);
        assert_eq!(t.get(ProcessId::new(7)), None);
        *t.get_mut(ProcessId::new(2)).unwrap() = "c";
        assert_eq!(t.get(ProcessId::new(2)), Some(&"c"));
        assert_eq!(t.get_mut(ProcessId::new(3)), None);
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let mut t: PeerTable<u32> = PeerTable::new();
        for id in [5, LIMIT + 5] {
            let id = ProcessId::new(id);
            *t.get_or_insert_with(id, || 1) += 1;
            *t.get_or_insert_with(id, || panic!("entry exists")) += 1;
            assert_eq!(t.get(id), Some(&3));
        }
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn iteration_ascends_across_the_dense_spill_boundary() {
        let mut t: PeerTable<u32> = PeerTable::new();
        let raws = [u32::MAX, LIMIT, 0, LIMIT - 1, LIMIT + 1, 17];
        for raw in raws {
            t.insert(ProcessId::new(raw), raw);
        }
        let mut sorted = raws;
        sorted.sort_unstable();
        let keys: Vec<u32> = t.iter().map(|(k, _)| k.as_u32()).collect();
        assert_eq!(keys, sorted);
        for (k, v) in t.iter_mut() {
            assert_eq!(k.as_u32(), *v);
            *v = v.wrapping_add(1);
        }
        assert_eq!(t.get(ProcessId::new(u32::MAX)), Some(&0));
        assert_eq!(t.get(ProcessId::new(LIMIT - 1)), Some(&LIMIT));
    }

    /// `clear` empties the table but keeps the dense allocation, and a
    /// cleared table equals a fresh one although their vectors differ.
    #[test]
    fn clear_keeps_the_allocation_and_equality_ignores_it() {
        let mut t: PeerTable<u8> = PeerTable::new();
        for raw in [0, 9, LIMIT + 2] {
            t.insert(ProcessId::new(raw), 1);
        }
        let footprint = t.dense_footprint();
        t.clear();
        assert!(t.is_empty() && !t.contains(ProcessId::new(9)));
        assert_eq!(t.dense_footprint(), footprint);
        assert_eq!(t, PeerTable::new());
        t.insert(ProcessId::new(3), 7);
        let mut fresh = PeerTable::new();
        fresh.insert(ProcessId::new(3), 7);
        assert_eq!(t, fresh);
        assert_eq!(t.dense_footprint(), footprint, "refilling allocated");
        t.retain(|_, _| false);
        assert!(t.is_empty());
        assert_eq!(format!("{t:?}"), "{}");
    }

    /// A forged maximal identifier must cost one spill node, not a
    /// 4-billion-slot vector.
    #[test]
    fn forged_identifier_allocates_by_population_not_by_id() {
        let mut t: PeerTable<u8> = PeerTable::new();
        t.insert(ProcessId::new(u32::MAX), 1);
        t.get_or_insert_with(ProcessId::new(u32::MAX - 1), || 2);
        assert_eq!(t.dense.capacity(), 0, "a spilled id grew the dense vector");
        assert_eq!(t.spill.len(), 2);
        // The dense vector itself is bounded by the limit whatever arrives.
        t.insert(ProcessId::new(LIMIT - 1), 3);
        assert_eq!(t.dense.len(), LIMIT as usize);
        t.insert(ProcessId::new(LIMIT), 4);
        assert_eq!(t.dense.len(), LIMIT as usize);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const LIMIT: u32 = PeerTable::<()>::DENSE_LIMIT;

    /// Maps a drawn `(region, offset)` pair to an identifier: small ones,
    /// ones straddling the dense limit, spilled ones and the extremes.
    fn id((region, offset): (u8, u32)) -> ProcessId {
        ProcessId::new(match region {
            0 => offset,
            1 => LIMIT - 12 + offset,
            2 => LIMIT + 1000 + offset,
            _ => u32::MAX - offset,
        })
    }

    /// A fresh table holding exactly `model`'s entries: its dense vector
    /// is no longer than they need, unlike one that grew and was cleared.
    fn rebuilt(model: &BTreeMap<ProcessId, u32>) -> PeerTable<u32> {
        let mut t = PeerTable::new();
        for (k, v) in model.iter().rev() {
            t.insert(*k, *v);
        }
        t
    }

    proptest! {
        /// The table is observationally a `BTreeMap<ProcessId, V>`: same
        /// return values, same lookups and membership, same ascending
        /// iteration, under random inserts, upserts, in-place updates,
        /// `retain` and `clear`; and two tables are equal exactly when
        /// their entries are, whatever their dense vectors' lengths.
        #[test]
        fn peer_table_matches_btreemap_model(
            ops in proptest::collection::vec((0u8..8, (0u8..4, 0u32..24), 0u32..1000), 0..200),
        ) {
            let mut table: PeerTable<u32> = PeerTable::new();
            let mut model: BTreeMap<ProcessId, u32> = BTreeMap::new();
            for (op, raw, value) in ops {
                let id = id(raw);
                match op {
                    0 => prop_assert_eq!(table.insert(id, value), model.insert(id, value)),
                    1 => {
                        let got = table.get_or_insert_with(id, || value);
                        let want = model.entry(id).or_insert(value);
                        prop_assert_eq!(&*got, &*want);
                        *got += 1;
                        *want += 1;
                    }
                    2 => {
                        if let Some(v) = table.get_mut(id) {
                            *v = value;
                        }
                        if let Some(v) = model.get_mut(&id) {
                            *v = value;
                        }
                    }
                    3 => {
                        for (k, v) in table.iter_mut() {
                            *v ^= value ^ k.as_u32();
                        }
                        for (k, v) in model.iter_mut() {
                            *v ^= value ^ k.as_u32();
                        }
                    }
                    4 => prop_assert_eq!(table.contains(id), model.contains_key(&id)),
                    5 => {
                        let mut seen = Vec::new();
                        table.retain(|k, v| {
                            seen.push(k);
                            *v += 1;
                            (*v ^ value) % 3 != 0
                        });
                        prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "retain visits ascending");
                        model.retain(|_, v| {
                            *v += 1;
                            (*v ^ value) % 3 != 0
                        });
                    }
                    6 => {
                        // Rare, so most histories build up a populated table.
                        if value < 50 {
                            table.clear();
                            model.clear();
                        }
                    }
                    _ => {
                        let same = rebuilt(&model);
                        prop_assert!(table == same);
                        let mut other = model.clone();
                        *other.entry(id).or_insert(value) ^= 1;
                        prop_assert!(table != rebuilt(&other));
                    }
                }
                prop_assert_eq!(table.get(id), model.get(&id));
                prop_assert_eq!(table.contains(id), model.contains_key(&id));
                prop_assert_eq!(table.is_empty(), model.is_empty());
                prop_assert_eq!(table == PeerTable::new(), model.is_empty());
            }
            let got: Vec<(ProcessId, u32)> = table.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(ProcessId, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
            prop_assert!(table == rebuilt(&model));
            prop_assert_eq!(format!("{table:?}"), format!("{model:?}"));
            prop_assert!(table.dense.len() <= LIMIT as usize);
        }
    }
}
