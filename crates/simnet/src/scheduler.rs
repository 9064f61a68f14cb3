//! The simulation scheduler.
//!
//! The scheduler realizes the paper's interleaving model at the granularity
//! of *rounds*: in each round the due processors first receive the packets
//! whose (random, bounded) delay has expired and then execute one iteration
//! of their `do forever` loop. The per-round visiting order is random,
//! packets experience random delays, loss, duplication and reordering, and
//! the number of deliveries per round can be bounded — so an execution
//! prefix of any asynchronous interleaving can be produced by a suitable
//! seed and configuration.
//!
//! A process is *due* in a round when it is active and its timer is due
//! ([`SimConfig::timer_period`], or a per-process override from
//! [`Simulation::set_timer_period_override`] — the gray-failure/clock-skew
//! model) or a packet addressed to it has become deliverable. The scheduler
//! finds the due set through a run queue of wake-ups rather than by
//! examining every process, and packet delivery reads the destination's own
//! row of channels, so a quiescent system does no delivery work at all and
//! large, sparse simulations cost only what their active processes do.
//!
//! The wake-ups are a conservative hint; the due set is the definition.
//! Debug builds check, every round, that the run queue visits exactly the
//! processes a scan over all of them finds due, so every debug-built test
//! of every stack runs under that oracle. Release builds do no extra work.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::network::Network;
use crate::payload::Payload;
use crate::peer_table::PeerTable;
use crate::process::{Context, Process, ProcessId, ProcessStatus};
use crate::report;
use crate::rng::SimRng;
use crate::time::Round;
use crate::trace::{Trace, TraceEvent};

#[derive(Clone)]
struct Slot<P> {
    process: P,
    status: ProcessStatus,
    /// The round this process's timer fires next.
    next_timer: Round,
    /// Per-process timer period, when it deviates from
    /// [`SimConfig::timer_period`]. Gray failures and clock skew are
    /// modelled by slowing a single process's timer relative to its peers
    /// (see [`crate::fault::GrayFailurePlan`] and [`crate::fault::SkewPlan`]).
    timer_period_override: Option<u64>,
    /// Timer steps this process has taken (for per-process liveness checks).
    timer_steps: u64,
    /// Monotone counter bumped whenever the process state may have changed:
    /// a timer step, a delivery, or a white-box mutation through
    /// [`Simulation::process_mut`]. The incremental digest cache
    /// ([`Simulation::state_digest_with`]) re-formats a process's state line
    /// only when this counter moved since the last digest.
    activity: u64,
}

/// The wake-ups of the event-driven scheduler: which processes to examine
/// at which round boundary. One type serves the timer wakes and the packet
/// wakes.
///
/// A wake is keyed by `(process, round)`, not by what caused it, and the set
/// stores each key once: in a steady round — zero-delay links, period-1
/// timers — every packet and every timer step asks for a wake at the next
/// round boundary, and all a request after the first costs is one read of
/// the process's stamp in `last`. Such a round leaves at most one entry per
/// process in `soon` (a plain vector, handed over wholesale at the
/// boundary), however many packets were sent; nothing is ordered and nothing
/// is allocated. Only wakes for rounds beyond the next boundary (delayed
/// packets, slowed timers) go through the ordered `later` heap, one entry
/// per request that differs from the process's previous one.
///
/// The stamp is exact for a run of requests naming the same round and lets
/// a duplicate through when requests for different rounds alternate; the
/// scheduler deduplicates the merged wake set anyway, so that costs a vector
/// slot, never a step.
#[derive(Debug, Clone, Default)]
struct WakeSet {
    /// The earliest round the next [`WakeSet::pop_due`] can be for: one past
    /// the round popped last. A wake for this round or an earlier one is due
    /// at that pop whatever round it names.
    horizon: Round,
    /// Processes with a wake due at the next pop.
    soon: Vec<ProcessId>,
    /// Wakes for rounds after `horizon`, earliest first.
    later: BinaryHeap<Reverse<(Round, ProcessId)>>,
    /// Per process, the round (raised to `horizon`) of the wake requested
    /// for it last. That wake is still pending exactly when the round is not
    /// before `horizon`. Identifiers are attacker-controlled — a process may
    /// send to a forged `ProcessId(u32::MAX)` — hence a [`PeerTable`], which
    /// spills instead of allocating by identifier.
    last: PeerTable<Round>,
}

impl WakeSet {
    fn schedule(&mut self, round: Round, id: ProcessId) {
        let due = round.max(self.horizon);
        if self.last.get(id) == Some(&due) {
            return;
        }
        self.last.insert(id, due);
        if due == self.horizon {
            self.soon.push(id);
        } else {
            self.later.push(Reverse((due, id)));
        }
    }

    /// Removes every wake-up scheduled at or before `now`, appending the
    /// process identifiers (possibly with duplicates) to `into`. `now` must
    /// be later than every round popped before — the scheduler pops each
    /// round boundary once, in order.
    fn pop_due(&mut self, now: Round, into: &mut Vec<ProcessId>) {
        debug_assert!(now >= self.horizon, "wake set popped out of order");
        into.append(&mut self.soon);
        while let Some(&Reverse((round, id))) = self.later.peek() {
            if round > now {
                break;
            }
            self.later.pop();
            into.push(id);
        }
        self.horizon = now.next();
    }

    /// Number of wakes held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.soon.len() + self.later.len()
    }
}

/// Hands the sends queued in `ctx` so far to the network, draining its
/// buffer in place so the same context (and its capacity) serves the rest
/// of the visit. Every enqueued packet also wakes its destination at the
/// round it becomes deliverable.
///
/// A free function over the simulation's send-side fields rather than a
/// method: the round loop calls it while holding the stepping process's slot.
fn flush_sends<M: Clone>(
    network: &mut Network<M>,
    rng: &mut SimRng,
    metrics: &mut Metrics,
    packet_wakes: &mut WakeSet,
    ctx: &mut Context<'_, M>,
) {
    let (from, now) = (ctx.me(), ctx.now());
    for (to, payload) in ctx.drain_sends() {
        if let Some(ready) = network.send_payload(from, to, payload, now, rng, metrics) {
            packet_wakes.schedule(ready.max(now), to);
        }
    }
}

/// A deterministic simulation of a set of processors exchanging messages.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Simulation<P: Process> {
    config: SimConfig,
    rng: SimRng,
    now: Round,
    next_id: u32,
    slots: BTreeMap<ProcessId, Slot<P>>,
    network: Network<P::Msg>,
    metrics: Metrics,
    trace: Trace,
    /// Wake-ups due to timers.
    timer_wakes: WakeSet,
    /// Wake-ups due to deliverable packets.
    packet_wakes: WakeSet,
    /// Per-round scratch buffers, recycled so a steady-state round performs
    /// no allocation: the merged wake set, the shuffled visiting order, the
    /// delivery batch, and the outbox handed to [`Context`].
    scratch_woken: Vec<ProcessId>,
    scratch_order: Vec<ProcessId>,
    scratch_deliveries: Vec<(ProcessId, P::Msg)>,
    scratch_outbox: Vec<(ProcessId, Payload<P::Msg>)>,
    /// Cached membership snapshot handed to visited processes, rebuilt only
    /// when a processor joins (`ids_dirty`).
    ids_snapshot: Vec<ProcessId>,
    ids_dirty: bool,
    /// Per-process digest-line cache for [`Simulation::state_digest_with`]:
    /// the activity stamp the line was formatted at, and the line itself.
    digest_cache: RefCell<BTreeMap<ProcessId, (u64, String)>>,
}

impl<P: Process> Simulation<P> {
    /// Creates an empty simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        let rng = SimRng::seed_from(config.seed());
        let network = Network::new(config.channel_policy().clone());
        Simulation {
            config,
            rng,
            now: Round::ZERO,
            next_id: 0,
            slots: BTreeMap::new(),
            network,
            metrics: Metrics::new(),
            trace: Trace::new(),
            timer_wakes: WakeSet::default(),
            packet_wakes: WakeSet::default(),
            scratch_woken: Vec::new(),
            scratch_order: Vec::new(),
            scratch_deliveries: Vec::new(),
            scratch_outbox: Vec::new(),
            ids_snapshot: Vec::new(),
            ids_dirty: true,
            digest_cache: RefCell::new(BTreeMap::new()),
        }
    }

    /// Adds an active processor with the next free identifier and returns
    /// that identifier.
    pub fn add_process(&mut self, process: P) -> ProcessId {
        let id = ProcessId::new(self.next_id);
        self.next_id += 1;
        self.insert(id, process);
        id
    }

    /// Adds an active processor under a caller-chosen identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is already in use (identifiers are unique
    /// forever; see the paper's system settings).
    pub fn add_process_with_id(&mut self, id: ProcessId, process: P) {
        assert!(
            !self.slots.contains_key(&id),
            "process identifier {id} already in use"
        );
        self.next_id = self.next_id.max(id.as_u32() + 1);
        self.insert(id, process);
    }

    fn insert(&mut self, id: ProcessId, process: P) {
        self.trace.record(TraceEvent::Joined(id));
        self.slots.insert(
            id,
            Slot {
                process,
                status: ProcessStatus::Active,
                next_timer: self.now,
                timer_period_override: None,
                timer_steps: 0,
                activity: 0,
            },
        );
        self.ids_dirty = true;
        self.timer_wakes.schedule(self.now, id);
    }

    /// The next never-used identifier: what [`Simulation::add_process`]
    /// would assign. Identifiers are unique forever (processors never
    /// rejoin under an old one), so fault plans spawning joiners or
    /// crash-recovered processors draw from here.
    pub fn fresh_id(&self) -> ProcessId {
        ProcessId::new(self.next_id)
    }

    /// Crashes a processor: it takes no further steps and never rejoins.
    /// Packets already in flight to or from it remain in the channels, as in
    /// the paper's model. Crashing an unknown or already crashed processor
    /// is a no-op.
    pub fn crash(&mut self, id: ProcessId) {
        if let Some(slot) = self.slots.get_mut(&id) {
            if slot.status.is_active() {
                slot.status = ProcessStatus::Crashed;
                self.trace.record(TraceEvent::Crashed(id));
            }
        }
    }

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u64) {
        for _ in 0..n {
            self.step_round();
        }
    }

    /// Runs up to `max_rounds` rounds, stopping early as soon as `done`
    /// returns `true` (checked after every round). Returns the number of
    /// rounds executed.
    pub fn run_until(&mut self, max_rounds: u64, mut done: impl FnMut(&Self) -> bool) -> u64 {
        for i in 0..max_rounds {
            self.step_round();
            if done(self) {
                return i + 1;
            }
        }
        max_rounds
    }

    /// Runs `n` rounds, invoking `hook` with the simulation before each
    /// round. Fault plans use the hook to crash processors or inject
    /// corruption at scheduled rounds.
    pub fn run_rounds_with(&mut self, n: u64, mut hook: impl FnMut(&mut Self)) {
        for _ in 0..n {
            hook(self);
            self.step_round();
        }
    }

    /// Whether `id`'s timer is due this round.
    fn timer_due(&self, id: ProcessId) -> bool {
        self.slots
            .get(&id)
            .map(|s| s.next_timer <= self.now)
            .unwrap_or(false)
    }

    /// Executes one scheduler round: only processes with a due timer, a
    /// deliverable packet or a white-box network mutation are woken, and
    /// their packet delivery reads the destination's channel row.
    ///
    /// Wake-ups are a conservative hint, not the source of truth: a woken
    /// process is visited only when it is actually *due* (timer due, or a
    /// deliverable packet waiting). Spurious wake-ups — a stale timer wake
    /// after a [`Simulation::set_timer_period_override`] restore, a packet
    /// wake whose packet was evicted — are discarded without consuming any
    /// randomness. Debug builds check, before the shuffle, that the visited
    /// set is exactly the due set a scan over every process finds.
    pub fn step_round(&mut self) {
        self.trace.record(TraceEvent::RoundStarted(self.now));
        let mut woken = std::mem::take(&mut self.scratch_woken);
        let mut order = std::mem::take(&mut self.scratch_order);
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        woken.clear();
        order.clear();
        self.timer_wakes.pop_due(self.now, &mut woken);
        self.packet_wakes.pop_due(self.now, &mut woken);
        woken.extend(self.network.take_dirty());
        // Ascending and deduplicated: the iteration order of the sorted set
        // this buffer replaces, so the pre-shuffle order — and therefore the
        // execution — is byte-identical to the historical behaviour.
        woken.sort_unstable();
        woken.dedup();
        for &id in &woken {
            let active = self
                .slots
                .get(&id)
                .map(|s| s.status.is_active())
                .unwrap_or(false);
            if !active {
                continue;
            }
            if self.timer_due(id) {
                order.push(id);
                continue;
            }
            // No due timer: the wake is justified only by a deliverable
            // packet. Packets that are in flight but not yet ready re-arm
            // the wake at their delivery round instead.
            match self.network.earliest_inbound_ready(id) {
                Some(ready) if ready <= self.now => order.push(id),
                Some(ready) => self.packet_wakes.schedule(ready, id),
                None => {}
            }
        }
        debug_assert!(
            self.visits_exactly_the_due_set(&order),
            "round {}: the run queue visits {order:?}, not the due set",
            self.now
        );
        self.rng.shuffle(&mut order);
        // The membership snapshot is only read by visited processes; a
        // quiescent round must not pay O(processes) to build it, and it is
        // rebuilt only when a processor has joined since the last round that
        // used it.
        if !order.is_empty() && self.ids_dirty {
            self.ids_snapshot.clear();
            self.ids_snapshot.extend(self.slots.keys().copied());
            self.ids_dirty = false;
        }
        let all_ids = std::mem::take(&mut self.ids_snapshot);

        for &id in &order {
            self.metrics.record_wakeup();
            // Deliver the due packets first (receive steps)...
            deliveries.clear();
            let next_ready = self.network.deliver_due_into(
                id,
                self.now,
                self.config.max_deliveries_per_round(),
                &mut self.rng,
                &mut self.metrics,
                &mut deliveries,
            );
            if let Some(ready) = next_ready {
                // Packets remain (delayed or over the per-round delivery
                // bound): re-wake the destination when they become due.
                self.packet_wakes.schedule(ready.max(self.now), id);
            }
            // One slot lookup per visit, not per message: nothing a process
            // does in a step can crash it or remove it (only the harness can,
            // between steps), so the slot resolved here stays valid for
            // every delivery and the timer step below. A destination that
            // crashed earlier in this round drops its batch undelivered.
            let Some(slot) = self.slots.get_mut(&id) else {
                continue;
            };
            if !slot.status.is_active() {
                continue;
            }
            // One context per visit: each delivery and the timer step push
            // into it, and its buffer is flushed after each of them.
            let mut ctx = Context::with_outbox(id, self.now, &all_ids, outbox);
            for (from, msg) in deliveries.drain(..) {
                self.trace.record(TraceEvent::Delivered { from, to: id });
                slot.process.on_message(from, msg, &mut ctx);
                slot.activity += 1;
                flush_sends(
                    &mut self.network,
                    &mut self.rng,
                    &mut self.metrics,
                    &mut self.packet_wakes,
                    &mut ctx,
                );
            }
            // ...then take the timer step if it is due.
            if slot.next_timer <= self.now {
                self.trace.record(TraceEvent::TimerStep(id));
                self.metrics.record_timer_step();
                slot.process.on_timer(&mut ctx);
                slot.activity += 1;
                let period = slot
                    .timer_period_override
                    .unwrap_or(self.config.timer_period());
                let next = self.now + period;
                slot.next_timer = next;
                slot.timer_steps += 1;
                self.timer_wakes.schedule(next, id);
                flush_sends(
                    &mut self.network,
                    &mut self.rng,
                    &mut self.metrics,
                    &mut self.packet_wakes,
                    &mut ctx,
                );
            }
            outbox = ctx.into_outbox();
        }

        self.ids_snapshot = all_ids;
        self.scratch_woken = woken;
        self.scratch_order = order;
        self.scratch_deliveries = deliveries;
        self.scratch_outbox = outbox;
        self.metrics.record_round();
        self.now = self.now.next();
    }

    /// The oracle of the run queue: whether `order`, ascending, is exactly
    /// the set of processes a scan over all of them finds due this round —
    /// active, and with a due timer or a deliverable packet. One merge over
    /// the slots, which are ascending too; it allocates nothing and draws no
    /// randomness, so checking it leaves the execution untouched.
    fn visits_exactly_the_due_set(&self, order: &[ProcessId]) -> bool {
        let now = self.now;
        let mut visits = order.iter().peekable();
        for (&id, slot) in &self.slots {
            let due = slot.status.is_active()
                && (slot.next_timer <= now
                    || self
                        .network
                        .earliest_inbound_ready(id)
                        .is_some_and(|ready| ready <= now));
            if due != (visits.peek() == Some(&&id)) {
                return false;
            }
            if due {
                visits.next();
            }
        }
        visits.next().is_none()
    }

    /// The current round.
    pub fn now(&self) -> Round {
        self.now
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Execution metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The execution trace (disabled by default; see [`Simulation::trace_mut`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace, e.g. to enable recording.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// All known processor identifiers (active and crashed), in ascending
    /// order.
    pub fn ids(&self) -> Vec<ProcessId> {
        self.slots.keys().copied().collect()
    }

    /// Identifiers of the processors that are still active.
    pub fn active_ids(&self) -> Vec<ProcessId> {
        self.slots
            .iter()
            .filter(|(_, s)| s.status.is_active())
            .map(|(id, _)| *id)
            .collect()
    }

    /// Returns `true` when `id` exists and has not crashed.
    pub fn is_active(&self, id: ProcessId) -> bool {
        self.slots
            .get(&id)
            .map(|s| s.status.is_active())
            .unwrap_or(false)
    }

    /// Immutable access to the process behind `id`.
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.slots.get(&id).map(|s| &s.process)
    }

    /// Mutable access to the process behind `id` (used by transient-fault
    /// injection, which may corrupt local state arbitrarily).
    pub fn process_mut(&mut self, id: ProcessId) -> Option<&mut P> {
        self.slots.get_mut(&id).map(|s| {
            // Conservatively assume the caller mutates: invalidate the
            // cached digest line.
            s.activity += 1;
            &mut s.process
        })
    }

    /// Digests one canonical line per known processor — in ascending
    /// identifier order, crashed processors included — exactly like feeding
    /// `line(id, process)` for every processor to
    /// [`crate::report::digest_lines`]. Unlike the full recompute, only the
    /// lines of processors that *stepped* since the previous call (timer
    /// step, delivery, or white-box mutation through
    /// [`Simulation::process_mut`]) are re-formatted; all others reuse their
    /// cached line. The cache skips formatting, never hashing, so the digest
    /// value is bit-identical to the full recompute.
    pub fn state_digest_with(&self, mut line: impl FnMut(ProcessId, &P) -> String) -> u64 {
        use std::collections::btree_map::Entry;
        let mut cache = self.digest_cache.borrow_mut();
        let mut hash = report::FNV_OFFSET_BASIS;
        for (&id, slot) in &self.slots {
            let text: &str = match cache.entry(id) {
                Entry::Vacant(v) => &v.insert((slot.activity, line(id, &slot.process))).1,
                Entry::Occupied(e) => {
                    let cached = e.into_mut();
                    if cached.0 != slot.activity {
                        cached.0 = slot.activity;
                        cached.1 = line(id, &slot.process);
                    }
                    &cached.1
                }
            };
            report::fold_digest_line(&mut hash, text);
        }
        hash
    }

    /// Overrides (or, with `None`, restores) the timer period of a single
    /// process, modelling *gray failures* and *clock skew*: the process is
    /// slow relative to its peers, not dead. Unknown identifiers are
    /// ignored.
    ///
    /// The override takes effect when the process's current timer fires; a
    /// restore pulls the next timer forward to the current round so the
    /// recovered process resumes at full rate immediately.
    ///
    /// # Panics
    ///
    /// Panics if `period == Some(0)`.
    pub fn set_timer_period_override(&mut self, id: ProcessId, period: Option<u64>) {
        if let Some(p) = period {
            assert!(p > 0, "timer period override must be at least 1 round");
        }
        let now = self.now;
        let Some(slot) = self.slots.get_mut(&id) else {
            return;
        };
        match period {
            Some(p) => slot.timer_period_override = Some(p),
            None => {
                if slot.timer_period_override.take().is_some() && slot.next_timer > now {
                    slot.next_timer = now;
                    self.timer_wakes.schedule(now, id);
                }
            }
        }
    }

    /// The timer-period override currently in force for `id`, if any.
    pub fn timer_period_override(&self, id: ProcessId) -> Option<u64> {
        self.slots.get(&id).and_then(|s| s.timer_period_override)
    }

    /// Number of timer steps `id` has taken so far (`None` for unknown
    /// identifiers). Used by the scenario runner's gray-failure and skew
    /// invariants: a slowed process must take fewer steps than its peers but
    /// must still take some.
    pub fn timer_steps_of(&self, id: ProcessId) -> Option<u64> {
        self.slots.get(&id).map(|s| s.timer_steps)
    }

    /// Iterates over `(id, process)` pairs for every known processor.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.slots.iter().map(|(id, s)| (*id, &s.process))
    }

    /// Iterates over `(id, process)` pairs for the active processors only.
    pub fn active_processes(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.slots
            .iter()
            .filter(|(_, s)| s.status.is_active())
            .map(|(id, s)| (*id, &s.process))
    }

    /// The network connecting the processors.
    pub fn network(&self) -> &Network<P::Msg> {
        &self.network
    }

    /// Mutable access to the network (used to inject or corrupt packets when
    /// modelling transient faults).
    pub fn network_mut(&mut self) -> &mut Network<P::Msg> {
        &mut self.network
    }

    /// A split-off random number generator for harness-level randomness that
    /// must not perturb the scheduler's stream.
    pub fn fork_rng(&mut self) -> SimRng {
        self.rng.split()
    }
}

impl<P: Process + Clone> Simulation<P> {
    /// An independent copy of this execution at the current round boundary:
    /// the processes, the channel rows (arrival logs and link records), both
    /// wake sets, the scheduler's random stream, the metrics, the trace, the
    /// membership snapshot and the digest cache. Stepping the fork and the
    /// original the same way yields byte-identical executions; mutating one
    /// never shows in the other (shared in-flight payloads are
    /// copy-on-write). The per-round scratch buffers start empty. A
    /// campaign forks one bootstrapped prefix into every cell that shares
    /// it ([`crate::Campaign::cell_jobs`]).
    pub fn fork(&self) -> Self {
        Simulation {
            config: self.config.clone(),
            rng: self.rng.clone(),
            now: self.now,
            next_id: self.next_id,
            slots: self.slots.clone(),
            network: self.network.clone(),
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            timer_wakes: self.timer_wakes.clone(),
            packet_wakes: self.packet_wakes.clone(),
            scratch_woken: Vec::new(),
            scratch_order: Vec::new(),
            scratch_deliveries: Vec::new(),
            scratch_outbox: Vec::new(),
            ids_snapshot: self.ids_snapshot.clone(),
            ids_dirty: self.ids_dirty,
            digest_cache: self.digest_cache.clone(),
        }
    }
}

impl<P: Process> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("processes", &self.slots.len())
            .field("active", &self.active_ids().len())
            .field("in_flight", &self.network.in_flight_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test process: floods its value, adopts the maximum received, counts
    /// timer ticks and received messages.
    #[derive(Debug)]
    struct Gossip {
        value: u64,
        ticks: u64,
        received: u64,
    }

    impl Gossip {
        fn new(value: u64) -> Self {
            Gossip {
                value,
                ticks: 0,
                received: 0,
            }
        }
    }

    impl Process for Gossip {
        type Msg = u64;
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
            self.ticks += 1;
            for peer in ctx.peers() {
                ctx.send(peer, self.value);
            }
        }
        fn on_message(&mut self, _from: ProcessId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.received += 1;
            self.value = self.value.max(msg);
        }
    }

    fn sim_with(n: u64, cfg: SimConfig) -> Simulation<Gossip> {
        let mut sim = Simulation::new(cfg);
        for i in 0..n {
            sim.add_process(Gossip::new(i));
        }
        sim
    }

    #[test]
    fn gossip_converges_to_max() {
        let mut sim = sim_with(6, SimConfig::default().with_seed(1));
        sim.run_rounds(10);
        for (_, p) in sim.processes() {
            assert_eq!(p.value, 5);
        }
    }

    #[test]
    fn gossip_converges_despite_loss_and_reordering() {
        let cfg = SimConfig::default()
            .with_seed(2)
            .with_loss_probability(0.3)
            .with_duplication_probability(0.1)
            .with_reordering(true)
            .with_max_delay(3)
            .with_channel_capacity(4);
        let mut sim = sim_with(5, cfg);
        let rounds = sim.run_until(500, |s| s.processes().all(|(_, p)| p.value == 4));
        assert!(rounds < 500, "did not converge under lossy links");
    }

    #[test]
    fn crashed_process_takes_no_steps() {
        let mut sim = sim_with(3, SimConfig::default().with_seed(3));
        let victim = ProcessId::new(0);
        sim.run_rounds(2);
        let ticks_before = sim.process(victim).unwrap().ticks;
        sim.crash(victim);
        sim.run_rounds(5);
        assert_eq!(sim.process(victim).unwrap().ticks, ticks_before);
        assert!(!sim.is_active(victim));
        assert_eq!(sim.active_ids().len(), 2);
    }

    #[test]
    fn run_until_stops_early() {
        let mut sim = sim_with(4, SimConfig::default().with_seed(4));
        let rounds = sim.run_until(100, |s| s.processes().all(|(_, p)| p.value == 3));
        assert!(rounds < 100);
        assert!(sim.now().as_u64() >= rounds);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = sim_with(
                5,
                SimConfig::default()
                    .with_seed(seed)
                    .with_loss_probability(0.2),
            );
            sim.run_rounds(20);
            let received: Vec<u64> = sim.processes().map(|(_, p)| p.received).collect();
            (received, sim.metrics().clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1.messages_delivered(), 0);
    }

    #[test]
    fn add_process_with_id_rejects_duplicates() {
        let mut sim: Simulation<Gossip> = Simulation::new(SimConfig::default());
        sim.add_process_with_id(ProcessId::new(5), Gossip::new(0));
        let next = sim.add_process(Gossip::new(1));
        assert_eq!(next, ProcessId::new(6));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_process_with_id(ProcessId::new(5), Gossip::new(2));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn joining_mid_execution_participates() {
        let mut sim = sim_with(3, SimConfig::default().with_seed(5));
        sim.run_rounds(3);
        let late = sim.add_process(Gossip::new(100));
        sim.run_rounds(10);
        // The newcomer's larger value spreads to everyone.
        for (_, p) in sim.processes() {
            assert_eq!(p.value, 100);
        }
        assert!(sim.is_active(late));
    }

    #[test]
    fn metrics_and_trace_record_activity() {
        let mut sim = sim_with(3, SimConfig::default().with_seed(6));
        sim.trace_mut().set_enabled(true);
        sim.run_rounds(4);
        assert_eq!(sim.metrics().rounds(), 4);
        assert!(sim.metrics().messages_sent() > 0);
        assert!(sim.metrics().messages_delivered() > 0);
        assert!(!sim.trace().is_empty());
    }

    #[test]
    fn run_rounds_with_hook_runs_before_each_round() {
        let mut sim = sim_with(2, SimConfig::default().with_seed(8));
        let mut crashed = false;
        sim.run_rounds_with(3, |s| {
            if s.now() == Round::new(1) && !crashed {
                s.crash(ProcessId::new(1));
                crashed = true;
            }
        });
        assert!(crashed);
        assert!(!sim.is_active(ProcessId::new(1)));
    }

    #[test]
    fn max_deliveries_per_round_limits_receive_rate() {
        let cfg = SimConfig::default()
            .with_seed(9)
            .with_max_deliveries_per_round(1)
            .with_max_delay(0);
        let mut sim = sim_with(4, cfg);
        sim.run_rounds(1);
        // After one round each process has sent 3 packets but nobody has
        // received more than one yet in the following round.
        sim.run_rounds(1);
        for (_, p) in sim.processes() {
            assert!(p.received <= 2, "received {} > 2", p.received);
        }
    }

    /// Renders a run's trace into one comparable byte string.
    fn trace_bytes(sim: &Simulation<Gossip>) -> String {
        sim.trace()
            .iter()
            .map(|e| format!("{e:?}\n"))
            .collect::<String>()
    }

    fn traced_run(cfg: SimConfig, rounds: u64) -> (String, Vec<u64>, u64) {
        let mut sim = sim_with(5, cfg);
        sim.trace_mut().set_enabled(true);
        sim.run_rounds(rounds);
        let values = sim.processes().map(|(_, p)| p.value).collect();
        (
            trace_bytes(&sim),
            values,
            sim.metrics().messages_delivered(),
        )
    }

    /// Same seed ⇒ byte-identical trace.
    #[test]
    fn same_seed_gives_byte_identical_traces() {
        let cfg = SimConfig::default()
            .with_seed(11)
            .with_loss_probability(0.3)
            .with_max_delay(2);
        let a = traced_run(cfg.clone(), 30);
        let b = traced_run(cfg, 30);
        assert_eq!(a, b, "non-deterministic execution");
    }

    /// A process that gossips a fixed number of times and then goes quiet.
    #[derive(Debug)]
    struct Burst {
        sends_left: u64,
        received: u64,
    }

    impl Process for Burst {
        type Msg = u64;
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
            if self.sends_left > 0 {
                self.sends_left -= 1;
                for peer in ctx.peers() {
                    ctx.send(peer, self.sends_left);
                }
            }
        }
        fn on_message(&mut self, _from: ProcessId, _msg: u64, _ctx: &mut Context<'_, u64>) {
            self.received += 1;
        }
    }

    /// Regression for the event-driven rewrite: once the network is
    /// quiescent (all channels drained, nobody sending), rounds perform zero
    /// deliveries and zero channel inspections — the delivery path is not
    /// even consulted.
    #[test]
    fn quiescent_network_performs_zero_delivery_work_per_round() {
        let mut sim: Simulation<Burst> =
            Simulation::new(SimConfig::default().with_seed(3).with_max_delay(1));
        for _ in 0..6 {
            sim.add_process(Burst {
                sends_left: 3,
                received: 0,
            });
        }
        // Drain the burst: 3 send rounds plus the maximum delay.
        sim.run_rounds(10);
        assert_eq!(sim.network().in_flight_total(), 0);
        let delivered = sim.metrics().messages_delivered();
        let visits = sim.metrics().channel_visits();
        assert!(delivered > 0);

        sim.run_rounds(100);
        assert_eq!(
            sim.metrics().messages_delivered(),
            delivered,
            "quiescent rounds delivered packets"
        );
        assert_eq!(
            sim.metrics().channel_visits(),
            visits,
            "quiescent rounds inspected channels"
        );
    }

    /// With a slow timer, idle processes are not woken at all: wake-ups scale
    /// with the due work, not with the number of processes.
    #[test]
    fn slow_timers_wake_only_due_processes() {
        let period = 8u64;
        let mut sim: Simulation<Burst> = Simulation::new(
            SimConfig::default()
                .with_seed(4)
                .with_timer_period(period)
                .with_max_delay(0),
        );
        for _ in 0..10 {
            sim.add_process(Burst {
                sends_left: 0,
                received: 0,
            });
        }
        let rounds = 64u64;
        sim.run_rounds(rounds);
        // Each idle process is woken only when its timer fires.
        let expected = 10 * (rounds / period);
        assert_eq!(sim.metrics().wakeups(), expected);
        assert_eq!(sim.metrics().timer_steps(), expected);
    }

    /// A delayed packet wakes its destination exactly when it becomes
    /// deliverable, even when every timer is far in the future.
    #[test]
    fn due_packets_wake_sleeping_destinations() {
        let mut sim: Simulation<Burst> = Simulation::new(
            SimConfig::default()
                .with_seed(5)
                .with_timer_period(1000)
                .with_max_delay(0),
        );
        let a = sim.add_process(Burst {
            sends_left: 1,
            received: 0,
        });
        let b = sim.add_process(Burst {
            sends_left: 0,
            received: 0,
        });
        // Round 0: a's (only) timer fires and sends to b; b is woken for the
        // delivery although its next timer is ~1000 rounds away.
        sim.run_rounds(3);
        assert_eq!(sim.process(b).unwrap().received, 1);
        assert_eq!(sim.process(a).unwrap().received, 0);
    }

    /// A gray-failed (slowed) process takes proportionally fewer timer
    /// steps during the override window and resumes at full rate — on the
    /// very round of the restore — afterwards.
    #[test]
    fn timer_period_override_slows_and_restore_resumes_immediately() {
        let mut sim = sim_with(3, SimConfig::default().with_seed(12).with_max_delay(0));
        let victim = ProcessId::new(1);
        sim.run_rounds(4);
        assert_eq!(sim.timer_steps_of(victim), Some(4));
        assert_eq!(sim.timer_period_override(victim), None);
        sim.set_timer_period_override(victim, Some(5));
        sim.run_rounds(20);
        // One step at the old schedule (round 4), then every 5th round
        // (rounds 9, 14, 19) before the 20-round window closes.
        let slowed = sim.timer_steps_of(victim).unwrap();
        assert_eq!(slowed, 4 + 4);
        assert_eq!(sim.timer_period_override(victim), Some(5));
        sim.set_timer_period_override(victim, None);
        sim.run_rounds(10);
        // Full rate again, starting with the restore round itself.
        assert_eq!(sim.timer_steps_of(victim), Some(slowed + 10));
        // The peers were never slowed.
        assert_eq!(sim.timer_steps_of(ProcessId::new(0)), Some(34));
        // Unknown ids are ignored / absent.
        sim.set_timer_period_override(ProcessId::new(99), Some(2));
        assert_eq!(sim.timer_steps_of(ProcessId::new(99)), None);
    }

    /// The gray-failure tent-pole at the scheduler level: per-process timer
    /// overrides applied and restored mid-run replay byte for byte from the
    /// same seed — same trace, same states, same step counts, same
    /// deliveries — even over lossy, delaying links.
    #[test]
    fn timer_period_overrides_are_reproducible() {
        let run = || {
            let cfg = SimConfig::default()
                .with_seed(21)
                .with_loss_probability(0.15)
                .with_duplication_probability(0.05)
                .with_max_delay(2);
            let mut sim = sim_with(6, cfg);
            sim.trace_mut().set_enabled(true);
            for round in 0..60u64 {
                match round {
                    5 => {
                        sim.set_timer_period_override(ProcessId::new(1), Some(7));
                        sim.set_timer_period_override(ProcessId::new(4), Some(3));
                    }
                    30 => sim.set_timer_period_override(ProcessId::new(1), None),
                    45 => sim.set_timer_period_override(ProcessId::new(4), None),
                    _ => {}
                }
                sim.step_round();
            }
            let steps: Vec<u64> = sim
                .ids()
                .iter()
                .map(|id| sim.timer_steps_of(*id).unwrap())
                .collect();
            let values: Vec<u64> = sim.processes().map(|(_, p)| p.value).collect();
            (
                trace_bytes(&sim),
                values,
                steps,
                sim.metrics().messages_delivered(),
            )
        };
        let first = run();
        assert_eq!(first, run(), "timer overrides made the execution diverge");
        // The overrides actually bit: the slowed processes lag their peers.
        assert!(first.2[1] < first.2[0]);
        assert!(first.2[4] < first.2[0]);
    }

    /// However many packets a round sends to a destination, the boundary
    /// finds one wake for it — and one for its timer.
    #[test]
    fn many_packets_to_one_destination_leave_one_wake() {
        let n = 6;
        let mut sim = sim_with(n, SimConfig::default().with_seed(13).with_max_delay(0));
        sim.run_rounds(3);
        assert_eq!(sim.metrics().messages_sent(), 3 * n * (n - 1));
        assert_eq!(sim.packet_wakes.len() as u64, n);
        assert_eq!(sim.timer_wakes.len() as u64, n);

        let mut wakes = WakeSet::default();
        for _ in 0..1000 {
            wakes.schedule(Round::ZERO, ProcessId::new(7));
        }
        assert_eq!(wakes.len(), 1);
    }

    /// A wake a million rounds out and a wake for a forged maximal
    /// identifier each cost one entry: nothing is sized by the distance to
    /// the wake or by the identifier.
    #[test]
    fn distant_wakes_and_forged_identifiers_allocate_by_population() {
        let slow = ProcessId::new(3);
        let forged = ProcessId::new(u32::MAX);
        let mut wakes = WakeSet::default();
        wakes.schedule(Round::new(1_000_000), slow);
        wakes.schedule(Round::ZERO, forged);
        wakes.schedule(Round::new(1_000_000), forged);
        assert_eq!(wakes.len(), 3);
        assert!(wakes.soon.capacity() + wakes.later.capacity() <= 16);
        assert_eq!(wakes.last.iter().count(), 2);

        let mut popped = Vec::new();
        wakes.pop_due(Round::ZERO, &mut popped);
        assert_eq!(popped, vec![forged]);
        wakes.pop_due(Round::new(999_999), &mut popped);
        assert_eq!(popped, vec![forged]);
        wakes.pop_due(Round::new(1_000_000), &mut popped);
        popped.sort_unstable();
        assert_eq!(popped, vec![slow, forged, forged]);
        assert_eq!(wakes.len(), 0);

        // The same through a simulation: a period-10⁶ timer and sends to a
        // forged identifier run in bounded space.
        #[derive(Debug)]
        struct SendsToGhost;
        impl Process for SendsToGhost {
            type Msg = u64;
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.send(ProcessId::new(u32::MAX), 1);
            }
            fn on_message(&mut self, _from: ProcessId, _msg: u64, _ctx: &mut Context<'_, u64>) {}
        }
        let mut sim: Simulation<SendsToGhost> =
            Simulation::new(SimConfig::default().with_seed(14).with_max_delay(0));
        let a = sim.add_process(SendsToGhost);
        sim.set_timer_period_override(a, Some(1_000_000));
        sim.add_process(SendsToGhost);
        sim.run_rounds(50);
        assert_eq!(sim.timer_steps_of(a), Some(1));
        assert!(sim.timer_wakes.len() <= 2);
        assert!(sim.packet_wakes.len() <= 1);
    }

    /// A send that duplicates into a one-packet link wakes the destination
    /// for the earlier of the two copies, which the later one may evict. A
    /// wake that finds only a packet still in flight re-arms for that
    /// packet's round, so the survivor is delivered although the
    /// destination's timer is ~1000 rounds away.
    #[test]
    fn a_wake_for_an_evicted_copy_rearms_for_the_survivor() {
        for seed in 0..16 {
            let mut sim: Simulation<Burst> = Simulation::new(
                SimConfig::default()
                    .with_seed(seed)
                    .with_timer_period(1000)
                    .with_duplication_probability(1.0)
                    .with_channel_capacity(1)
                    .with_max_delay(8),
            );
            sim.add_process(Burst {
                sends_left: 1,
                received: 0,
            });
            let b = sim.add_process(Burst {
                sends_left: 0,
                received: 0,
            });
            sim.run_rounds(12);
            assert_eq!(sim.process(b).unwrap().received, 1, "seed {seed}");
        }
    }

    /// White-box packet injection still reaches the destination under
    /// event-driven scheduling (the dirty-set wake-up path).
    #[test]
    fn injected_packets_wake_the_destination() {
        let mut sim: Simulation<Burst> = Simulation::new(
            SimConfig::default()
                .with_seed(6)
                .with_timer_period(1000)
                .with_max_delay(0),
        );
        let a = sim.add_process(Burst {
            sends_left: 0,
            received: 0,
        });
        let b = sim.add_process(Burst {
            sends_left: 0,
            received: 0,
        });
        sim.run_rounds(2);
        sim.network_mut().inject(a, b, 99);
        sim.run_rounds(2);
        assert_eq!(sim.process(b).unwrap().received, 1);
    }
}

/// The run queue the wake set replaced, transcribed verbatim: a min-heap of
/// `(round, id)` pairs taking one push per request. It exists only as the
/// oracle for `wake_set_matches_heap_reference`.
#[cfg(test)]
mod reference {
    use super::*;
    use proptest::prelude::*;

    #[derive(Default)]
    struct WakeQueue {
        due: BinaryHeap<Reverse<(Round, ProcessId)>>,
    }

    impl WakeQueue {
        fn schedule(&mut self, round: Round, id: ProcessId) {
            self.due.push(Reverse((round, id)));
        }

        fn pop_due(&mut self, now: Round, into: &mut Vec<ProcessId>) {
            while let Some(&Reverse((round, id))) = self.due.peek() {
                if round > now {
                    break;
                }
                self.due.pop();
                into.push(id);
            }
        }
    }

    const LIMIT: u32 = PeerTable::<()>::DENSE_LIMIT;

    /// Identifiers that collide often: a few small ones, a few on either
    /// side of the dense limit, spilled ones, and the maximal ones.
    fn id((region, offset): (u8, u32)) -> ProcessId {
        ProcessId::new(match region {
            0 => offset,
            1 => LIMIT - 3 + offset,
            2 => LIMIT + 1000 + offset,
            _ => u32::MAX - offset,
        })
    }

    /// Pops both queues at `now` and compares what the scheduler reads of
    /// the result: the sorted, deduplicated identifiers.
    fn pop_both(set: &mut WakeSet, oracle: &mut WakeQueue, now: Round) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        set.pop_due(now, &mut got);
        oracle.pop_due(now, &mut want);
        for popped in [&mut got, &mut want] {
            popped.sort_unstable();
            popped.dedup();
        }
        prop_assert_eq!(got, want, "popped sets differ at {}", now);
    }

    proptest! {
        /// Under random interleavings of requests (for rounds long past,
        /// just past, at the next boundary, one past it, a few rounds out
        /// and a million rounds out) and pops (the clock advancing by one
        /// or jumping), the wake set wakes exactly the processes the heap
        /// wakes at every boundary, and both drain to empty.
        #[test]
        fn wake_set_matches_heap_reference(
            raw_ops in proptest::collection::vec((0u8..8, (0u8..4, 0u32..6), 0u8..6, 0u64..5), 0..240),
        ) {
            let mut set = WakeSet::default();
            let mut oracle = WakeQueue::default();
            // The round the next pop is for.
            let mut now = Round::new(2);
            for (sel, raw_id, when, by) in raw_ops {
                if sel < 6 {
                    let round = match when {
                        0 => Round::ZERO,
                        1 => Round::new(now.as_u64() - 1),
                        2 => now,
                        3 => now + 1,
                        4 => now + 2 + by,
                        _ => now + 1_000_000,
                    };
                    set.schedule(round, id(raw_id));
                    oracle.schedule(round, id(raw_id));
                } else {
                    pop_both(&mut set, &mut oracle, now);
                    now += if sel == 6 { 1 } else { 1 + by };
                }
            }
            pop_both(&mut set, &mut oracle, now);
            pop_both(&mut set, &mut oracle, now + 3_000_000);
            prop_assert_eq!(set.len(), 0);
            prop_assert!(oracle.due.is_empty());
        }
    }
}
