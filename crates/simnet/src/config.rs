//! Simulation configuration.

use crate::channel::ChannelPolicy;

/// Kept only because `benchmark/` names it; ROADMAP item 15(f) removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// The event-driven run queue, the simulator's only scheduler.
    #[default]
    EventDriven,
}

/// Configuration of a [`crate::Simulation`].
///
/// The defaults model a well-behaved but asynchronous network: bounded
/// channel capacity, small random delivery delay, no loss, no duplication.
/// Benchmarks and tests tighten or loosen the parameters to explore the
/// regimes the paper discusses (lossy links, high churn, transient faults).
///
/// `SimConfig` is a non-consuming builder:
///
/// ```
/// use simnet::SimConfig;
/// let cfg = SimConfig::default()
///     .with_seed(17)
///     .with_loss_probability(0.05)
///     .with_channel_capacity(8);
/// assert_eq!(cfg.channel_policy().capacity, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    seed: u64,
    channel_policy: ChannelPolicy,
    /// Upper bound on the number of messages delivered to one process in one
    /// round. Bounding this models asynchrony (a process may lag behind its
    /// incoming traffic); `usize::MAX` effectively removes the bound.
    max_deliveries_per_round: usize,
    /// Rounds between two timer steps of the same process. The paper's
    /// asynchronous timers have an unknown rate; `1` (the default) fires the
    /// `do forever` loop every round, larger values model slow processes and
    /// let the event-driven scheduler skip idle ones entirely.
    timer_period: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            channel_policy: ChannelPolicy::default(),
            max_deliveries_per_round: usize::MAX,
            timer_period: 1,
        }
    }
}

impl SimConfig {
    /// Creates the default configuration (equivalent to [`Default::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the seed of the deterministic random number generator.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-packet loss probability of every channel.
    pub fn with_loss_probability(mut self, p: f64) -> Self {
        self.channel_policy.loss_probability = p;
        self
    }

    /// Sets the per-packet duplication probability of every channel.
    pub fn with_duplication_probability(mut self, p: f64) -> Self {
        self.channel_policy.duplication_probability = p;
        self
    }

    /// Sets the bounded capacity `cap` of every channel (in packets).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`; the paper's channels always hold at least one
    /// packet.
    pub fn with_channel_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "channel capacity must be at least 1");
        self.channel_policy.capacity = cap;
        self
    }

    /// Sets the maximum random delivery delay, in rounds, of every packet.
    pub fn with_max_delay(mut self, rounds: u64) -> Self {
        self.channel_policy.max_delay_rounds = rounds;
        self
    }

    /// Enables or disables packet reordering inside channels.
    pub fn with_reordering(mut self, reorder: bool) -> Self {
        self.channel_policy.reorder = reorder;
        self
    }

    /// Bounds how many packets one process may receive per round.
    pub fn with_max_deliveries_per_round(mut self, n: usize) -> Self {
        self.max_deliveries_per_round = n;
        self
    }

    /// Sets the number of rounds between two timer steps of one process.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn with_timer_period(mut self, rounds: u64) -> Self {
        assert!(rounds > 0, "timer period must be at least 1 round");
        self.timer_period = rounds;
        self
    }

    /// The random seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The channel behaviour shared by all links.
    pub fn channel_policy(&self) -> &ChannelPolicy {
        &self.channel_policy
    }

    /// Maximum number of deliveries per process per round.
    pub fn max_deliveries_per_round(&self) -> usize {
        self.max_deliveries_per_round
    }

    /// Rounds between two timer steps of one process.
    pub fn timer_period(&self) -> u64 {
        self.timer_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_field() {
        let cfg = SimConfig::new()
            .with_seed(9)
            .with_loss_probability(0.2)
            .with_duplication_probability(0.1)
            .with_channel_capacity(4)
            .with_max_delay(3)
            .with_reordering(true)
            .with_max_deliveries_per_round(2);
        assert_eq!(cfg.seed(), 9);
        assert_eq!(cfg.channel_policy().loss_probability, 0.2);
        assert_eq!(cfg.channel_policy().duplication_probability, 0.1);
        assert_eq!(cfg.channel_policy().capacity, 4);
        assert_eq!(cfg.channel_policy().max_delay_rounds, 3);
        assert!(cfg.channel_policy().reorder);
        assert_eq!(cfg.max_deliveries_per_round(), 2);
    }

    #[test]
    fn default_is_reliable_and_unbounded_delivery() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.channel_policy().loss_probability, 0.0);
        assert_eq!(cfg.channel_policy().duplication_probability, 0.0);
        assert_eq!(cfg.max_deliveries_per_round(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = SimConfig::default().with_channel_capacity(0);
    }
}
