//! The per-member register store.
//!
//! Every configuration member keeps the latest tagged value it has seen for
//! every register. Adoption is monotone in the tag order, so the store is a
//! join-semilattice: merging the stores of any set of members (in any order,
//! any number of times) yields the per-register maximum — the property the
//! quorum read/write protocol and the post-reconfiguration state transfer
//! rely on.

use std::collections::BTreeMap;

use crate::types::{RegisterId, TaggedValue};

/// The latest tagged value per register, as kept by one configuration member.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegisterStore {
    entries: BTreeMap<RegisterId, TaggedValue>,
}

impl RegisterStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registers with a stored value.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no register has been written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The latest tagged value of `key`, if any.
    pub fn get(&self, key: RegisterId) -> Option<&TaggedValue> {
        self.entries.get(&key)
    }

    /// The latest plain value of `key`, if any.
    pub fn value(&self, key: RegisterId) -> Option<u64> {
        self.entries.get(&key).map(|tv| tv.value)
    }

    /// Adopts `candidate` for `key` if it is newer than the stored value (or
    /// the register is new). Returns `true` when the store changed.
    pub fn adopt(&mut self, key: RegisterId, candidate: TaggedValue) -> bool {
        match self.entries.get(&key) {
            Some(current) if !candidate.newer_than(current) => false,
            _ => {
                self.entries.insert(key, candidate);
                true
            }
        }
    }

    /// Merges every entry of `other` into this store (per-register maximum).
    /// Returns the number of registers that changed.
    pub fn merge(&mut self, other: &RegisterStore) -> usize {
        let mut changed = 0;
        for (key, value) in &other.entries {
            if self.adopt(*key, value.clone()) {
                changed += 1;
            }
        }
        changed
    }

    /// Iterates over `(register, tagged value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RegisterId, &TaggedValue)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// A snapshot of every entry, for state-transfer messages.
    pub fn snapshot(&self) -> Vec<(RegisterId, TaggedValue)> {
        self.entries.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Discards every entry. Used when a brute-force reset tells a member
    /// that its state may be arbitrary (the paper accepts state loss in that
    /// case).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counters::Counter;
    use labels::Label;
    use simnet::ProcessId;

    fn tag(seqn: u64, wid: u32) -> Counter {
        Counter {
            label: Label::genesis(ProcessId::new(0)),
            seqn,
            wid: ProcessId::new(wid),
        }
    }

    fn tv(seqn: u64, wid: u32, value: u64) -> TaggedValue {
        TaggedValue::new(tag(seqn, wid), value)
    }

    #[test]
    fn empty_store_has_no_values() {
        let store = RegisterStore::new();
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert_eq!(store.get(RegisterId::new(1)), None);
        assert_eq!(store.value(RegisterId::new(1)), None);
    }

    #[test]
    fn adopt_keeps_only_the_newest_tag() {
        let mut store = RegisterStore::new();
        let key = RegisterId::new(1);
        assert!(store.adopt(key, tv(1, 0, 10)));
        assert!(store.adopt(key, tv(3, 0, 30)));
        // Older and equal tags are rejected.
        assert!(!store.adopt(key, tv(2, 0, 20)));
        assert!(!store.adopt(key, tv(3, 0, 99)));
        assert_eq!(store.value(key), Some(30));
    }

    #[test]
    fn registers_are_independent() {
        let mut store = RegisterStore::new();
        store.adopt(RegisterId::new(1), tv(5, 0, 50));
        store.adopt(RegisterId::new(2), tv(1, 0, 11));
        assert_eq!(store.len(), 2);
        assert_eq!(store.value(RegisterId::new(1)), Some(50));
        assert_eq!(store.value(RegisterId::new(2)), Some(11));
    }

    #[test]
    fn merge_takes_per_register_maximum() {
        let mut a = RegisterStore::new();
        a.adopt(RegisterId::new(1), tv(5, 0, 50));
        a.adopt(RegisterId::new(2), tv(1, 0, 11));
        let mut b = RegisterStore::new();
        b.adopt(RegisterId::new(1), tv(3, 0, 30));
        b.adopt(RegisterId::new(3), tv(7, 0, 70));
        let changed = a.merge(&b);
        assert_eq!(changed, 1, "only the new register changes");
        assert_eq!(a.value(RegisterId::new(1)), Some(50));
        assert_eq!(a.value(RegisterId::new(3)), Some(70));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut store = RegisterStore::new();
        store.adopt(RegisterId::new(1), tv(5, 0, 50));
        store.adopt(RegisterId::new(9), tv(2, 1, 22));
        let mut rebuilt = RegisterStore::new();
        for (key, value) in store.snapshot() {
            assert!(rebuilt.adopt(key, value));
        }
        assert_eq!(rebuilt.value(RegisterId::new(1)), Some(50));
        assert_eq!(rebuilt.value(RegisterId::new(9)), Some(22));
        assert_eq!(rebuilt.len(), store.len());
    }

    #[test]
    fn clear_discards_everything() {
        let mut store = RegisterStore::new();
        store.adopt(RegisterId::new(1), tv(5, 0, 50));
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.iter().count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use counters::Counter;
    use labels::Label;
    use proptest::prelude::*;
    use simnet::ProcessId;

    fn tv(seqn: u64, wid: u32, value: u64) -> TaggedValue {
        TaggedValue::new(
            Counter {
                label: Label::genesis(ProcessId::new(0)),
                seqn,
                wid: ProcessId::new(wid),
            },
            value,
        )
    }

    proptest! {
        /// Merging is idempotent and order-insensitive (join-semilattice):
        /// whichever way the same set of writes reaches a store, the result
        /// is the per-register maximum.
        #[test]
        fn merge_is_order_insensitive(
            writes in proptest::collection::vec((0u64..4, 0u64..50, 0u32..5, 0u64..1000), 0..40),
            split in 0usize..40,
        ) {
            let writes: Vec<(RegisterId, TaggedValue)> = writes
                .into_iter()
                .map(|(key, seqn, wid, value)| (RegisterId::new(key), tv(seqn, wid, value)))
                .collect();
            let split = split.min(writes.len());

            // Path 1: everything into one store, in order.
            let mut direct = RegisterStore::new();
            for (key, value) in &writes {
                direct.adopt(*key, value.clone());
            }

            // Path 2: two stores fed disjoint halves, then merged (twice —
            // idempotence).
            let mut left = RegisterStore::new();
            let mut right = RegisterStore::new();
            for (key, value) in &writes[..split] {
                left.adopt(*key, value.clone());
            }
            for (key, value) in &writes[split..] {
                right.adopt(*key, value.clone());
            }
            left.merge(&right);
            left.merge(&right);

            for (key, expected) in direct.iter() {
                prop_assert_eq!(left.get(key).map(|v| &v.tag), Some(&expected.tag));
            }
            prop_assert_eq!(left.len(), direct.len());
        }

        /// Stored tags never move backwards.
        #[test]
        fn adoption_is_monotone(
            writes in proptest::collection::vec((0u64..60, 0u32..5, 0u64..1000), 1..60),
        ) {
            let key = RegisterId::new(0);
            let mut store = RegisterStore::new();
            let mut last_tag: Option<Counter> = None;
            for (seqn, wid, value) in writes {
                store.adopt(key, tv(seqn, wid, value));
                let current = store.get(key).unwrap().tag.clone();
                if let Some(prev) = &last_tag {
                    prop_assert!(!current.ct_less(prev), "stored tag regressed");
                }
                last_tag = Some(current);
            }
        }
    }
}
