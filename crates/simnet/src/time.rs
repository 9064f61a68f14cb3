//! Logical time for the simulation.
//!
//! The paper's model is fully asynchronous — there is no bound on relative
//! processing or transmission speed — so the only notion of time the
//! simulator needs is an ordinal one: the *round* counter used by the
//! scheduler to interleave steps and to express message delays.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A logical round of the simulation.
///
/// One round corresponds to every active processor executing one iteration of
/// its `do forever` loop and the scheduler delivering the messages whose
/// delay has expired. Rounds are only an accounting device of the simulator;
/// the algorithms themselves never observe them.
///
/// ```
/// use simnet::Round;
/// let r = Round::ZERO + 3;
/// assert_eq!(r.as_u64(), 3);
/// assert!(r > Round::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(u64);

impl Round {
    /// The first round of an execution.
    pub const ZERO: Round = Round(0);

    /// Creates a round from a raw counter value.
    pub fn new(value: u64) -> Self {
        Round(value)
    }

    /// Returns the raw counter value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the round that immediately follows this one.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Saturating difference between two rounds.
    pub fn saturating_since(self, earlier: Round) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Round({})", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Saturating: a round past the end of time is `Round(u64::MAX)`, which
/// no execution reaches, so a window or period that overflows reads as
/// "never".
impl Add<u64> for Round {
    type Output = Round;
    fn add(self, rhs: u64) -> Round {
        Round(self.0.saturating_add(rhs))
    }
}

impl AddAssign<u64> for Round {
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Sub<Round> for Round {
    type Output = u64;
    fn sub(self, rhs: Round) -> u64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ordering_and_arithmetic() {
        let a = Round::new(5);
        let b = a + 2;
        assert_eq!(b.as_u64(), 7);
        assert!(b > a);
        assert_eq!(b - a, 2);
        assert_eq!(a.next().as_u64(), 6);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = Round::new(3);
        let late = Round::new(10);
        assert_eq!(late.saturating_since(early), 7);
        assert_eq!(early.saturating_since(late), 0);
    }

    #[test]
    fn adding_past_the_end_of_time_saturates() {
        let last = Round::new(u64::MAX);
        assert_eq!(Round::new(30) + u64::MAX, last);
        assert_eq!(last + 1, last);
        let mut r = Round::new(5);
        r += u64::MAX;
        assert_eq!(r, last);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Round::default(), Round::ZERO);
    }

    #[test]
    fn add_assign_advances() {
        let mut r = Round::ZERO;
        r += 4;
        assert_eq!(r, Round::new(4));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Round::new(9)), "9");
        assert_eq!(format!("{:?}", Round::new(9)), "Round(9)");
    }
}
