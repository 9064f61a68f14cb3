//! Membership tests that walk instead of search.
//!
//! The protocol layers hold their per-peer state and their sets in ascending
//! identifier order, and several per-step checks ask, for every element of
//! one such sequence, whether another contains it. Asked through
//! `BTreeSet::contains` that is one ordered-set search per element; asked in
//! ascending order it is one walk of both, in lockstep.

use std::iter::Peekable;

/// A cursor over an ascending sequence that answers membership queries
/// which are themselves asked in ascending order.
///
/// ```
/// use simnet::Ascending;
/// let have = [2, 3, 5, 8];
/// let mut cursor = Ascending::new(have);
/// let asked: Vec<bool> = [1, 2, 4, 5, 5, 9].iter().map(|x| cursor.contains(x)).collect();
/// assert_eq!(asked, [false, true, false, true, true, false]);
/// ```
pub struct Ascending<I: Iterator> {
    rest: Peekable<I>,
}

impl<I: Iterator> Ascending<I>
where
    I::Item: Ord,
{
    /// A cursor at the start of `ascending`, which must yield its items in
    /// ascending order.
    pub fn new(ascending: impl IntoIterator<IntoIter = I>) -> Self {
        Ascending {
            rest: ascending.into_iter().peekable(),
        }
    }

    /// Whether the sequence contains `item`. Every call must ask for an item
    /// no smaller than the call before; the answers are then those of a set
    /// holding the sequence, for the price of walking it once over all calls.
    pub fn contains(&mut self, item: &I::Item) -> bool {
        while self.rest.next_if(|have| have < item).is_some() {}
        self.rest.peek() == Some(item)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use proptest::prelude::*;

    /// The cursor's answers over ascending queries are `BTreeSet::contains`'s.
    fn agrees(have: &BTreeSet<u8>, asked: &BTreeSet<u8>) {
        let mut cursor = Ascending::new(have.iter().copied());
        for x in asked {
            assert_eq!(cursor.contains(x), have.contains(x), "{x} in {have:?}");
            // Asking again for the same item is still ascending.
            assert_eq!(cursor.contains(x), have.contains(x), "{x} again");
        }
    }

    #[test]
    fn empty_disjoint_and_strict_superset_queries() {
        let set = |xs: &[u8]| xs.iter().copied().collect::<BTreeSet<u8>>();
        agrees(&set(&[]), &set(&[]));
        agrees(&set(&[]), &set(&[1, 2]));
        agrees(&set(&[1, 2]), &set(&[]));
        agrees(&set(&[1, 3, 5]), &set(&[0, 2, 4, 6])); // disjoint, interleaved
        agrees(&set(&[7, 8]), &set(&[1, 2])); // disjoint, all below
        agrees(&set(&[1, 2]), &set(&[7, 8])); // disjoint, all above
        agrees(&set(&[2, 4]), &set(&[1, 2, 3, 4, 5])); // asked ⊋ have
        agrees(&set(&[1, 2, 3, 4, 5]), &set(&[2, 4])); // asked ⊊ have
    }

    proptest! {
        #[test]
        fn cursor_matches_contains(
            have in proptest::collection::btree_set(0u8..40, 0..30),
            asked in proptest::collection::btree_set(0u8..40, 0..30),
        ) {
            agrees(&have, &asked);
        }
    }
}
