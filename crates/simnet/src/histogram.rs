//! A sample set for latency percentiles.
//!
//! The load engine ([`crate::load`]) folds every completed operation's
//! latency into a [`Histogram`] and reports nearest-rank percentiles of it
//! without external dependencies.
//!
//! ```
//! use simnet::Histogram;
//! let mut h = Histogram::new();
//! for v in [5u64, 1, 9, 7, 3] {
//!     h.record(v);
//! }
//! assert_eq!(h.percentile(0.0), Some(1));
//! assert_eq!(h.percentile(50.0), Some(5));
//! assert_eq!(h.percentile(100.0), Some(9));
//! ```

/// An accumulating sample set with nearest-rank percentiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// The `p`-th percentile (nearest-rank method), `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a finite value in `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        assert!(
            p.is_finite() && (0.0..=100.0).contains(&p),
            "percentile must be in [0, 100]"
        );
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let n = self.samples.len();
        // Nearest-rank with an exact path for tenth-of-a-percent
        // percentiles: `0.999 * 1000` lands a hair above `999.0` in f64,
        // which would push p99.9's rank to 1,000 at exactly 1,000 samples.
        // When `p` is (within epsilon of) a whole number of tenths, compute
        // `ceil(tenths·n / 1000)` in integer arithmetic instead.
        let tenths = p * 10.0;
        let rank = if (tenths - tenths.round()).abs() < 1e-9 {
            let tenths = tenths.round() as u64;
            ((tenths * n as u64).div_ceil(1000)) as usize
        } else {
            ((p / 100.0) * n as f64).ceil() as usize
        };
        let idx = rank.saturating_sub(1).min(n - 1);
        Some(self.samples[idx])
    }
}

/// A histogram holding `samples`, for the tests.
#[cfg(test)]
fn of(samples: impl IntoIterator<Item = u64>) -> Histogram {
    let mut h = Histogram::new();
    for sample in samples {
        h.record(sample);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_nothing() {
        let mut h = Histogram::new();
        assert_eq!(h, Histogram::default());
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn statistics_match_hand_computed_values() {
        let mut h = of([10u64, 20, 30, 40]);
        assert_eq!(h.percentile(25.0), Some(10));
        assert_eq!(h.percentile(50.0), Some(20));
        assert_eq!(h.percentile(75.0), Some(30));
        assert_eq!(h.percentile(100.0), Some(40));
        assert_eq!(h.percentile(0.0), Some(10));
    }

    /// A `record` after a query clears the sorted flag, so the next query
    /// sorts the new sample in.
    #[test]
    fn recording_after_a_percentile_query_stays_correct() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.percentile(50.0), Some(5));
        h.record(1);
        h.record(9);
        assert_eq!(h.percentile(50.0), Some(5));
        assert_eq!(h.percentile(100.0), Some(9));
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        let _ = of([1u64]).percentile(150.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = of([42u64]);
        assert_eq!(h.percentile(1.0), Some(42));
        assert_eq!(h.percentile(50.0), Some(42));
        assert_eq!(h.percentile(99.0), Some(42));
    }

    // The load engine's p99.9 column leans on the tail behaviour below.

    #[test]
    fn empty_histogram_has_no_tail_percentile() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(99.9), None);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn single_sample_tail_percentiles() {
        let mut h = of([7u64]);
        assert_eq!(h.percentile(99.9), Some(7));
        assert_eq!(h.percentile(100.0), Some(7));
        assert_eq!(h.percentile(0.0), Some(7));
    }

    #[test]
    fn duplicate_heavy_tail_reports_the_outlier_only_past_its_rank() {
        // 999 fast ops and one slow outlier. At exactly 1,000 samples the
        // p99.9 rank is ceil(999 · 1000 / 1000) = 999 — computed in integer
        // arithmetic, so the f64 artifact that used to push the rank to
        // 1,000 (surfacing the outlier one rank early) no longer applies.
        let mut h = of(std::iter::repeat_n(2u64, 999).chain(std::iter::once(500)));
        assert_eq!(h.percentile(99.0), Some(2));
        assert_eq!(h.percentile(99.9), Some(2));
        assert_eq!(h.percentile(100.0), Some(500));
        // With 2,000 samples the outlier sits at rank 2,000 while p99.9's
        // rank is 1,999 — the duplicate mass hides a 1-in-2000 outlier.
        for _ in 0..1000 {
            h.record(2);
        }
        assert_eq!(h.percentile(99.9), Some(2));
        assert_eq!(h.percentile(100.0), Some(500));
    }

    #[test]
    fn tail_uses_nearest_rank_not_interpolation() {
        // Distinct values 1..=2000: nearest-rank p99.9 is the 1,998th order
        // statistic exactly — ceil(0.999 · 2000) = 1998, never a value
        // interpolated between samples and never rank 1,999 (the f64
        // artifact `0.999 * 2000 = 1998.0000000000002` used to produce).
        let mut h = of(1u64..=2000);
        assert_eq!(h.percentile(99.9), Some(1998));
        assert_eq!(h.percentile(100.0), Some(2000));
        // The rank is computed on the sample count, not the value range:
        // with 10 distinct values p99.9 is simply the maximum.
        assert_eq!(of(1u64..=10).percentile(99.9), Some(10));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Percentiles are monotone in `p` and bounded by the samples' own
        /// min and max.
        #[test]
        fn percentiles_are_monotone(
            samples in proptest::collection::vec(0u64..10_000, 1..200),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let mut h = of(samples.iter().copied());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = h.percentile(lo).unwrap();
            let b = h.percentile(hi).unwrap();
            prop_assert!(a <= b);
            prop_assert!(*samples.iter().min().unwrap() <= a);
            prop_assert!(b <= *samples.iter().max().unwrap());
        }
    }
}
