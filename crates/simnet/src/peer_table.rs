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
//! [`PeerTable::DENSE_LIMIT`] therefore spill into an ordered map (the
//! pattern the Θ failure detector's baseline vector established), which
//! bounds the vector at `DENSE_LIMIT` slots whatever arrives.
//!
//! Iteration is in ascending identifier order — every dense identifier is
//! smaller than every spilled one — so a `PeerTable` can replace a
//! `BTreeMap<ProcessId, V>` wherever iteration order is observable.

use std::collections::BTreeMap;

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
#[derive(Debug, Clone)]
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

    proptest! {
        /// The table is observationally a `BTreeMap<ProcessId, V>`: same
        /// return values, same lookups, same ascending iteration, under
        /// random inserts, upserts and in-place updates.
        #[test]
        fn peer_table_matches_btreemap_model(
            ops in proptest::collection::vec((0u8..4, (0u8..4, 0u32..24), 0u32..1000), 0..200),
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
                    _ => {
                        for (k, v) in table.iter_mut() {
                            *v ^= value ^ k.as_u32();
                        }
                        for (k, v) in model.iter_mut() {
                            *v ^= value ^ k.as_u32();
                        }
                    }
                }
                prop_assert_eq!(table.get(id), model.get(&id));
            }
            let got: Vec<(ProcessId, u32)> = table.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(ProcessId, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
            prop_assert!(table.dense.len() <= LIMIT as usize);
        }
    }
}
