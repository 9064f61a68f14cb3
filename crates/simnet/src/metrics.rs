//! Execution metrics collected by the simulator.

use crate::channel::SendOutcome;
use crate::histogram::Histogram;

/// Counters describing one simulation execution.
///
/// The benchmark harness reads these to report convergence cost (rounds,
/// messages) for every experiment the benches run. The scheduler-cost
/// counters (`wakeups`, `channel_visits`, the delivery batch histogram)
/// hook the delivery path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    rounds: u64,
    timer_steps: u64,
    messages_sent: u64,
    messages_delivered: u64,
    messages_lost: u64,
    messages_duplicated: u64,
    messages_evicted: u64,
    wakeups: u64,
    delivery_batches: u64,
    channel_visits: u64,
    batch_sizes: Histogram,
}

impl Metrics {
    /// Creates a zeroed metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the completion of one scheduler round.
    pub fn record_round(&mut self) {
        self.rounds += 1;
    }

    /// Records one timer step taken by a process.
    pub fn record_timer_step(&mut self) {
        self.timer_steps += 1;
    }

    /// Records the outcome of one send operation.
    pub fn record_send(&mut self, outcome: SendOutcome) {
        self.messages_sent += 1;
        match outcome {
            SendOutcome::Enqueued => {}
            SendOutcome::Lost => self.messages_lost += 1,
            SendOutcome::Duplicated => self.messages_duplicated += 1,
            SendOutcome::EvictedOld => self.messages_evicted += 1,
        }
    }

    /// Records the delivery of one packet.
    pub fn record_delivery(&mut self) {
        self.messages_delivered += 1;
    }

    /// Records one process wake-up of the scheduler.
    pub fn record_wakeup(&mut self) {
        self.wakeups += 1;
    }

    /// Records the size of one per-destination delivery batch. Empty batches
    /// are not counted.
    pub fn record_delivery_batch(&mut self, size: usize) {
        if size > 0 {
            self.delivery_batches += 1;
            self.batch_sizes.record(size as u64);
        }
    }

    /// Records `channels` channel visits in a destination's row.
    pub fn record_channel_visits(&mut self, channels: usize) {
        self.channel_visits += channels as u64;
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of timer steps taken by all processes.
    pub fn timer_steps(&self) -> u64 {
        self.timer_steps
    }

    /// Number of send operations attempted.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Number of packets delivered to a process.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Number of packets dropped by lossy links.
    pub fn messages_lost(&self) -> u64 {
        self.messages_lost
    }

    /// Number of packets duplicated by links.
    pub fn messages_duplicated(&self) -> u64 {
        self.messages_duplicated
    }

    /// Number of packets evicted because a channel was full.
    pub fn messages_evicted(&self) -> u64 {
        self.messages_evicted
    }

    /// Number of process wake-ups performed by the scheduler.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Number of non-empty per-destination delivery batches.
    pub fn delivery_batches(&self) -> u64 {
        self.delivery_batches
    }

    /// Total non-empty channels visited in the destinations' rows.
    pub fn channel_visits(&self) -> u64 {
        self.channel_visits
    }

    /// Distribution of per-destination delivery batch sizes.
    pub fn delivery_batch_sizes(&self) -> &Histogram {
        &self.batch_sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.record_round();
        m.record_round();
        m.record_timer_step();
        m.record_send(SendOutcome::Enqueued);
        m.record_send(SendOutcome::Lost);
        m.record_send(SendOutcome::Duplicated);
        m.record_send(SendOutcome::EvictedOld);
        m.record_delivery();
        assert_eq!(m.rounds(), 2);
        assert_eq!(m.timer_steps(), 1);
        assert_eq!(m.messages_sent(), 4);
        assert_eq!(m.messages_lost(), 1);
        assert_eq!(m.messages_duplicated(), 1);
        assert_eq!(m.messages_evicted(), 1);
        assert_eq!(m.messages_delivered(), 1);
    }

    #[test]
    fn default_is_zeroed() {
        let m = Metrics::default();
        assert_eq!(m.rounds(), 0);
        assert_eq!(m.messages_sent(), 0);
        assert_eq!(m.messages_delivered(), 0);
    }
}
