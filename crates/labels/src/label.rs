//! Bounded epoch labels and their partial order.
//!
//! The labeling scheme (adapted from Dolev, Georgiou, Marcoullis, Schiller,
//! *Self-stabilizing virtual synchrony*, SSS 2015 — reference \[11\] of the
//! paper) provides **bounded-size** epoch labels with three properties:
//!
//! 1. labels are marked by their creator's identifier and compared first by
//!    creator, then by an Israeli–Li style sting/antistings relation (`≺lb`);
//! 2. two labels of the *same* creator may be incomparable (which is how
//!    stale labels manufactured by a transient fault are detected and
//!    cancelled);
//! 3. a creator that knows any bounded set of labels can always create a
//!    label greater than all of them ([`Label::next_label`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use simnet::ProcessId;

/// The size of the sting domain. It must exceed the maximum number of labels
/// that can simultaneously exist in the system times the antisting-set size;
/// the default is generous for the system sizes the experiments use while
/// remaining a bounded constant.
pub const STING_DOMAIN: u32 = 4096;

/// The number of antistings each label carries.
pub const ANTISTINGS: usize = 64;

/// A bounded epoch label.
///
/// The antisting set is built once, by [`Label::next_label`], and shared by
/// every copy of the label: a clone — into a queue, a counter, a message — is
/// a refcount bump, and the label stays 16 bytes wherever it travels.
/// Equality, order, hashing, `Debug` and the wire encoding all look through
/// the `Arc` at the set, so sharing is never observable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label {
    /// The identifier of the processor that created the label.
    pub creator: ProcessId,
    /// The label's sting.
    pub sting: u32,
    /// The label's antistings (bounded set).
    pub antistings: Arc<BTreeSet<u32>>,
}

simnet::wire_struct_codec!(Label {
    creator,
    sting,
    antistings
});

impl Label {
    /// Creates the canonical first label of a creator.
    pub fn genesis(creator: ProcessId) -> Self {
        Label {
            creator,
            sting: 0,
            antistings: Arc::default(),
        }
    }

    /// Returns `true` when `self ≺lb other` for labels of the same creator:
    /// `self`'s sting is dominated by `other`'s antistings while the converse
    /// does not hold. Labels of different creators are ordered by creator
    /// identifier (the paper compares creator first).
    pub fn lb_less(&self, other: &Label) -> bool {
        if self.creator != other.creator {
            return self.creator < other.creator;
        }
        other.antistings.contains(&self.sting) && !self.antistings.contains(&other.sting)
    }

    /// Returns `true` when the two labels are incomparable under `≺lb`
    /// (possible only for the same creator; the symptom of a stale label).
    pub fn incomparable(&self, other: &Label) -> bool {
        self != other && !self.lb_less(other) && !other.lb_less(self)
    }

    /// Creates a label by `creator` that is greater (under `≺lb`) than every
    /// label in `known`.
    ///
    /// The new label's antistings contain the stings of all known labels, and
    /// its sting is chosen outside every known label's antistings — hence no
    /// known label can dominate it while it dominates them all.
    pub fn next_label(creator: ProcessId, known: &[&Label]) -> Label {
        let mut antistings: BTreeSet<u32> = known.iter().map(|l| l.sting).collect();
        // Keep the antisting set bounded.
        while antistings.len() > ANTISTINGS {
            let last = *antistings.iter().next_back().expect("non-empty");
            antistings.remove(&last);
        }
        let forbidden: BTreeSet<u32> = known
            .iter()
            .flat_map(|l| l.antistings.iter().copied())
            .chain(antistings.iter().copied())
            .collect();
        let sting = (0..STING_DOMAIN)
            .find(|s| !forbidden.contains(s))
            .unwrap_or(0);
        Label {
            creator,
            sting,
            antistings: Arc::new(antistings),
        }
    }
}

/// A label pair `⟨ml, cl⟩`: the main label and, when not `None`, a canceling
/// label proving that `ml` is not (or no longer) maximal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelPair {
    /// The main label.
    pub ml: Label,
    /// The canceling label, `None` while the pair is *legit*.
    pub cl: Option<Label>,
}

simnet::wire_struct_codec!(LabelPair { ml, cl });

impl LabelPair {
    /// A fresh, legit (non-cancelled) pair.
    pub fn legit(ml: Label) -> Self {
        LabelPair { ml, cl: None }
    }

    /// Returns `true` while the pair has not been cancelled.
    pub fn is_legit(&self) -> bool {
        self.cl.is_none()
    }

    /// Cancels the pair with the given witness label.
    pub fn cancel(&mut self, witness: Label) {
        self.cl = Some(witness);
    }
}

/// A bounded queue of label pairs for one creator (the paper's
/// `storedLabels[j]` queues). The most recently used entry sits at the front;
/// exceeding the bound drops the oldest entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelQueue {
    entries: Vec<LabelPair>,
    bound: usize,
}

impl LabelQueue {
    /// Creates an empty queue bounded to `bound` entries.
    pub fn new(bound: usize) -> Self {
        LabelQueue {
            entries: Vec::new(),
            bound: bound.max(1),
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the stored pairs, most recently used first.
    pub fn iter(&self) -> impl Iterator<Item = &LabelPair> {
        self.entries.iter()
    }

    /// Adds (or refreshes) a pair at the front of the queue. If a pair with
    /// the same main label exists, the cancelled version wins and duplicates
    /// are removed. Returns `true` when the queue changed, order included.
    pub fn add(&mut self, pair: LabelPair) -> bool {
        if let Some(pos) = self.entries.iter().position(|p| p.ml == pair.ml) {
            let cancels = self.entries[pos].is_legit() && !pair.is_legit();
            if cancels {
                self.entries[pos] = pair;
            }
            self.entries[..=pos].rotate_right(1);
            cancels || pos != 0
        } else {
            self.entries.insert(0, pair);
            if self.entries.len() > self.bound {
                self.entries.pop();
            }
            true
        }
    }

    /// Predicts [`LabelQueue::add`] returning `false` for `pair`: the front
    /// entry carries the same main label and `pair` brings no cancellation
    /// it lacks.
    pub(crate) fn holds_in_front(&self, pair: &LabelPair) -> bool {
        self.entries
            .first()
            .is_some_and(|front| front.ml == pair.ml && (!front.is_legit() || pair.is_legit()))
    }

    /// The receipt action's bookkeeping for one creator's queue: cancels
    /// every legit pair whose main label another stored label dominates
    /// and — with `cancel_twins`, for a remote creator — every legit pair
    /// that is incomparable with another stored label, so that the creator
    /// (or the global maximum of another creator) takes over. Returns
    /// `true` when a pair was cancelled.
    pub(crate) fn cancel_superseded(&mut self, cancel_twins: bool) -> bool {
        let mut cancelled = false;
        for i in 0..self.entries.len() {
            let ml = &self.entries[i].ml;
            if !self.entries[i].is_legit() {
                continue;
            }
            let mut others = self.entries.iter().map(|p| &p.ml);
            let witness = match others.clone().find(|l| ml.lb_less(l)) {
                None if cancel_twins => {
                    others.find(|l| ml.incomparable(l) && ml.creator == l.creator)
                }
                found => found,
            };
            if let Some(witness) = witness.cloned() {
                self.entries[i].cancel(witness);
                cancelled = true;
            }
        }
        cancelled
    }

    /// The most recent legit pair, if any.
    pub fn newest_legit(&self) -> Option<&LabelPair> {
        self.entries.iter().find(|p| p.is_legit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn next_label_dominates_all_known() {
        let a = Label::genesis(pid(1));
        let b = Label::next_label(pid(1), &[&a]);
        assert!(a.lb_less(&b));
        assert!(!b.lb_less(&a));
        let c = Label::next_label(pid(1), &[&a, &b]);
        assert!(a.lb_less(&c) && b.lb_less(&c));
    }

    #[test]
    fn labels_of_different_creators_order_by_creator() {
        let a = Label::genesis(pid(1));
        let b = Label::genesis(pid(2));
        assert!(a.lb_less(&b));
        assert!(!b.lb_less(&a));
    }

    #[test]
    fn stale_labels_can_be_incomparable() {
        // Two labels that do not reference each other's stings are
        // incomparable — exactly the situation after a transient fault
        // fabricates an unknown label.
        let l1 = Label {
            creator: pid(3),
            sting: 5,
            antistings: Arc::new([10, 11].into()),
        };
        let l2 = Label {
            creator: pid(3),
            sting: 20,
            antistings: Arc::new([30, 31].into()),
        };
        assert!(l1.incomparable(&l2));
        // next_label over both dominates both.
        let next = Label::next_label(pid(3), &[&l1, &l2]);
        assert!(l1.lb_less(&next) && l2.lb_less(&next));
    }

    #[test]
    fn label_pair_cancellation() {
        let ml = Label::genesis(pid(1));
        let mut pair = LabelPair::legit(ml.clone());
        assert!(pair.is_legit());
        let witness = Label::next_label(pid(1), &[&ml]);
        pair.cancel(witness);
        assert!(!pair.is_legit());
    }

    /// Sharing the antisting set is a storage detail: a label whose set is
    /// shared and one rebuilt from the same stings are the same label to
    /// every observer — equality, order, hash, `Debug` — and on the wire.
    #[test]
    fn shared_antistings_are_invisible() {
        use std::cmp::Ordering;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        use simnet::codec::WireCodec;

        let original = Label {
            creator: pid(2),
            sting: 7,
            antistings: Arc::new([3, 5].into()),
        };
        let shared = original.clone();
        assert!(Arc::ptr_eq(&original.antistings, &shared.antistings));
        let rebuilt = Label {
            creator: pid(2),
            sting: 7,
            antistings: Arc::new([5, 3].into_iter().collect()),
        };
        assert!(!Arc::ptr_eq(&shared.antistings, &rebuilt.antistings));

        let hash = |l: &Label| {
            let mut h = DefaultHasher::new();
            l.hash(&mut h);
            h.finish()
        };
        assert_eq!(shared, rebuilt);
        assert_eq!(shared.cmp(&rebuilt), Ordering::Equal);
        assert_eq!(hash(&shared), hash(&rebuilt));
        assert_eq!(format!("{shared:?}"), format!("{rebuilt:?}"));
        assert!(format!("{shared:?}").contains("antistings: {3, 5}"));

        // Creator, sting, then the set: its length and its elements.
        #[rustfmt::skip]
        let pinned = [
            2, 0, 0, 0, 7, 0, 0, 0,
            2, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0,
        ];
        assert_eq!(shared.to_bytes(), pinned);
        assert_eq!(rebuilt.to_bytes(), pinned);
        assert_eq!(Label::from_bytes(&pinned), Ok(original));
    }

    #[test]
    fn queue_is_bounded_and_deduplicates() {
        let mut q = LabelQueue::new(3);
        for i in 0..5u32 {
            let l = Label {
                creator: pid(1),
                sting: i,
                antistings: Arc::default(),
            };
            q.add(LabelPair::legit(l));
        }
        assert_eq!(q.len(), 3);
        // Re-adding an existing main label does not grow the queue, and a
        // cancelled copy replaces the legit one.
        let newest = q.iter().next().unwrap().ml.clone();
        let mut cancelled = LabelPair::legit(newest.clone());
        cancelled.cancel(Label::genesis(pid(1)));
        q.add(cancelled);
        assert_eq!(q.len(), 3);
        assert!(!q.iter().find(|p| p.ml == newest).unwrap().is_legit());
        assert!(q.newest_legit().is_some());
    }
}
