//! Gap-based estimation of the number of active processors.
//!
//! The paper (Section 2): the heartbeat counts of live processors stay close
//! to each other, while a crashed processor's count keeps growing, so a
//! *significant, ever-expanding gap* appears between the live prefix of the
//! ranked vector and the crashed suffix. The last processor before the gap is
//! the `nᵢ`-th one, yielding the estimate `nᵢ` of the number of active
//! processors.

/// Estimates how many of the ranked processors are active, given their
/// heartbeat counts sorted ascending (freshest first) and the suspicion
/// threshold `theta`.
///
/// The estimate is the length of the prefix that precedes the first gap
/// larger than `theta`; if no such gap exists every ranked processor is
/// considered active.
///
/// ```
/// use failure_detector::gap_estimate;
/// assert_eq!(gap_estimate(&[0, 1, 2, 200, 220], 10), 3);
/// assert_eq!(gap_estimate(&[0, 1, 2], 10), 3);
/// assert_eq!(gap_estimate(&[], 10), 0);
/// ```
pub fn gap_estimate(sorted_counts: &[u64], theta: u64) -> usize {
    for i in 0..sorted_counts.len().saturating_sub(1) {
        let gap = sorted_counts[i + 1].saturating_sub(sorted_counts[i]);
        if gap > theta {
            return i + 1;
        }
    }
    sorted_counts.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_estimate_without_crashes_counts_everyone() {
        assert_eq!(gap_estimate(&[0, 1, 2, 3], 5), 4);
    }

    #[test]
    fn gap_estimate_cuts_at_first_large_gap() {
        assert_eq!(gap_estimate(&[0, 1, 50, 51, 200], 10), 2);
    }

    #[test]
    fn gap_estimate_single_entry() {
        assert_eq!(gap_estimate(&[7], 3), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The estimate is always between 0 and the number of entries, and a
        /// prefix of `k` tight counts followed by a huge jump is estimated as
        /// exactly `k`.
        #[test]
        fn estimate_respects_bounds(counts in proptest::collection::vec(0u64..1000, 0..50), theta in 1u64..100) {
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            let est = gap_estimate(&sorted, theta);
            prop_assert!(est <= sorted.len());
        }

        #[test]
        fn synthetic_crash_boundary_is_found(k in 1usize..10, tail in 1usize..10, theta in 5u64..50) {
            // k live processors with counts 0..k, then `tail` crashed ones far away.
            let mut counts: Vec<u64> = (0..k as u64).collect();
            let far = k as u64 + theta * 10;
            counts.extend((0..tail as u64).map(|i| far + i));
            prop_assert_eq!(gap_estimate(&counts, theta), k);
        }
    }
}
