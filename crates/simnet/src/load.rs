//! Open-loop client-population workloads with per-operation latency.
//!
//! A [`LoadProfile`] attaches a population of logical clients to a
//! [`crate::Scenario`]: every round inside the scenario's workload window the
//! engine draws an arrival count from a deterministic [`Arrival`] process,
//! maps each arriving client onto one of the currently active processors,
//! and submits a keyed operation to that processor through
//! [`crate::ScenarioTarget::submit_local`]. Completions are claimed back
//! through [`crate::ScenarioTarget::claim_local`] after every round, and the
//! invoke→response distance **in rounds** is folded into a [`Histogram`] —
//! latency measured in rounds is byte-deterministic and diffable across
//! machines, unlike wall-clock.
//!
//! The engine's random stream is derived from the simulation seed but
//! independent of both the scheduler's and the fault adversary's draws, so
//! attaching a load neither perturbs delivery randomness nor fault
//! schedules. All floating-point arithmetic in the Poisson sampler sticks to
//! IEEE-exact operations (`+`, `*`, `/`, `floor`, `min`) plus literal
//! constants — no `libm` calls whose last-bit behaviour varies across
//! platforms — so arrival streams are byte-identical everywhere.
//!
//! Results surface as ten opt-in counters in [`crate::ScenarioRun::counters`]
//! (see [`COUNTER_KEYS`]), flowing through campaign reports and
//! `simctl diff` without any schema change. Scenarios without a load profile
//! carry none of the keys, so existing reports are unchanged byte-for-byte.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use rand::RngCore;

use crate::histogram::Histogram;
use crate::history::HistoryRecorder;
use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::scenario::ScenarioTarget;
use crate::scheduler::Simulation;

/// Salt folded into the simulation seed for the engine's private stream.
const LOAD_SEED_SALT: u64 = 0x10ad_c11e_0a75_10ad;

/// Largest accepted Poisson rate (arrivals per round). The sampler's cost is
/// linear in the rate, so an unbounded rate would turn one round into an
/// unbounded loop.
const MAX_POISSON_RATE: f64 = 1_000_000.0;

/// Chunk size for Poisson additivity: a draw at rate λ is the sum of
/// independent draws at rates summing to λ, which keeps the Knuth
/// product-of-uniforms below f64 underflow.
const POISSON_CHUNK: f64 = 16.0;

/// `e^-1` to the nearest f64 — the only transcendental constant the portable
/// exponential needs.
const EXP_NEG_1: f64 = 0.367_879_441_171_442_33;

/// The report counters a load-carrying run always publishes (zero included),
/// in key order. `op_latency_*` percentiles are nearest-rank over completed
/// ops, in rounds; `op_goodput_per_kround` is completed ops per 1,000 rounds
/// executed; `ops_inflight` counts ops still pending (and not timed out)
/// when the run ended.
pub const COUNTER_KEYS: [&str; 10] = [
    "op_goodput_per_kround",
    "op_latency_p50_rounds",
    "op_latency_p99_rounds",
    "op_latency_p999_rounds",
    "op_timeouts",
    "ops_completed",
    "ops_failed",
    "ops_inflight",
    "ops_rejected",
    "ops_submitted",
];

/// A deterministic arrival process: how many client operations arrive in
/// each round of the workload window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Poisson arrivals at `rate` ops per round (the open-loop classic).
    Poisson {
        /// Mean arrivals per round, in `(0, 1e6]`.
        rate: f64,
    },
    /// `size` ops arrive together every `period` rounds, none in between.
    Burst {
        /// Ops per burst.
        size: u64,
        /// Rounds between bursts (≥ 1); bursts fire when `round % period == 0`.
        period: u64,
    },
}

impl Arrival {
    /// Parses a command-line arrival spec: `poisson:RATE` or
    /// `burst:SIZE:PERIOD`.
    pub fn parse(spec: &str) -> Result<Arrival, String> {
        let (kind, rest) = spec.split_once(':').ok_or_else(|| {
            format!("arrival spec `{spec}`: expected poisson:RATE or burst:SIZE:PERIOD")
        })?;
        match kind {
            "poisson" => {
                let rate: f64 = rest
                    .parse()
                    .map_err(|_| format!("arrival spec `{spec}`: RATE must be a number"))?;
                if !rate.is_finite() || rate <= 0.0 || rate > MAX_POISSON_RATE {
                    return Err(format!(
                        "arrival spec `{spec}`: RATE must be in (0, {MAX_POISSON_RATE}]"
                    ));
                }
                Ok(Arrival::Poisson { rate })
            }
            "burst" => {
                let (size, period) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("arrival spec `{spec}`: expected burst:SIZE:PERIOD"))?;
                let size: u64 = size
                    .parse()
                    .map_err(|_| format!("arrival spec `{spec}`: SIZE must be an integer"))?;
                let period: u64 = period
                    .parse()
                    .map_err(|_| format!("arrival spec `{spec}`: PERIOD must be an integer"))?;
                if size == 0 || period == 0 {
                    return Err(format!(
                        "arrival spec `{spec}`: SIZE and PERIOD must be ≥ 1"
                    ));
                }
                Ok(Arrival::Burst { size, period })
            }
            other => Err(format!(
                "arrival spec `{spec}`: unknown process `{other}` (expected poisson or burst)"
            )),
        }
    }
}

impl Arrival {
    /// Draws this round's arrival count. Deterministic in (`rng` state,
    /// `round`); shared by the simulator's load engine and the live
    /// driver (`simctl drive`), so both submit identical open-loop
    /// streams for a given seed.
    pub fn draw(&self, rng: &mut SimRng, round: u64) -> u64 {
        match *self {
            Arrival::Poisson { rate } => poisson(rng, rate),
            Arrival::Burst { size, period } => {
                if round % period == 0 {
                    size
                } else {
                    0
                }
            }
        }
    }
}

impl fmt::Display for Arrival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arrival::Poisson { rate } => write!(f, "poisson:{rate}"),
            Arrival::Burst { size, period } => write!(f, "burst:{size}:{period}"),
        }
    }
}

/// An open-loop client population attached to a scenario: `clients` logical
/// clients multiplexed over the active processors, submitting keyed
/// operations under an [`Arrival`] process.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Number of logical clients; each arrival is drawn uniformly from this
    /// population and its client index is the operation key.
    pub clients: u64,
    /// The arrival process driving submissions.
    pub arrival: Arrival,
    /// Rounds after which a pending op counts as timed out (0 = never). A
    /// timed-out op that later completes is not double-counted.
    pub op_timeout: u64,
}

impl LoadProfile {
    /// A profile with `clients` clients under `arrival` and no op timeout.
    pub fn new(clients: u64, arrival: Arrival) -> Self {
        LoadProfile {
            clients: clients.max(1),
            arrival,
            op_timeout: 0,
        }
    }

    /// Sets the op timeout in rounds (builder style; 0 disables).
    pub fn with_op_timeout(mut self, rounds: u64) -> Self {
        self.op_timeout = rounds;
        self
    }
}

/// One submitted-but-unclaimed operation.
#[derive(Debug, Clone)]
struct PendingOp {
    invoked: u64,
    timed_out: bool,
    /// Index of this op in the armed run's history recorder; `None` on
    /// unarmed runs or when the target declares no op spec.
    op: Option<usize>,
}

/// The per-run engine: draws arrivals, routes submissions, claims
/// completions FIFO per processor, and folds latencies into counters.
#[derive(Debug, Clone)]
pub(crate) struct LoadEngine {
    profile: LoadProfile,
    rng: SimRng,
    /// Monotone op sequence — doubles as the submitted value, so every op's
    /// payload is globally unique within a run.
    next_value: u64,
    pending: BTreeMap<ProcessId, VecDeque<PendingOp>>,
    latencies: Histogram,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    timeouts: u64,
}

impl LoadEngine {
    pub(crate) fn new(profile: LoadProfile, sim_seed: u64) -> Self {
        LoadEngine {
            profile,
            rng: SimRng::seed_from(sim_seed ^ LOAD_SEED_SALT),
            next_value: 0,
            pending: BTreeMap::new(),
            latencies: Histogram::new(),
            submitted: 0,
            rejected: 0,
            completed: 0,
            failed: 0,
            timeouts: 0,
        }
    }

    /// Draws this round's arrivals and submits them, called once per round
    /// inside the workload window, before the round steps. On armed runs
    /// (`history` is `Some`) every accepted submission the target declares
    /// an op spec for is recorded as an invocation.
    pub(crate) fn drive<T: ScenarioTarget>(
        &mut self,
        sim: &mut Simulation<T>,
        mut history: Option<&mut HistoryRecorder>,
    ) {
        let now = sim.now().as_u64();
        let arrivals = self.profile.arrival.draw(&mut self.rng, now);
        if arrivals == 0 {
            return;
        }
        let actives = sim.active_ids();
        for _ in 0..arrivals {
            let client = self.rng.next_u64() % self.profile.clients.max(1);
            if actives.is_empty() {
                self.rejected += 1;
                continue;
            }
            let via = actives[(client % actives.len() as u64) as usize];
            let value = self.next_value;
            self.next_value += 1;
            let accepted = sim
                .process_mut(via)
                .is_some_and(|node| node.submit_local(client, value));
            if accepted {
                self.submitted += 1;
                let op = history.as_deref_mut().and_then(|rec| {
                    T::op_spec(client, value)
                        .map(|(object, kind)| rec.invoke(client, object, kind, now))
                });
                self.pending.entry(via).or_default().push_back(PendingOp {
                    invoked: now,
                    timed_out: false,
                    op,
                });
            } else {
                self.rejected += 1;
            }
        }
    }

    /// Claims completed ops FIFO per processor and sweeps timeouts, called
    /// once per round after the round steps. The claim loop is bounded by
    /// the number of ops this engine has outstanding at each processor, so
    /// targets whose `claim_local` reports a standing condition (e.g. the
    /// reconfiguration probe) cannot over-complete.
    pub(crate) fn poll<T: ScenarioTarget>(
        &mut self,
        sim: &mut Simulation<T>,
        mut history: Option<&mut HistoryRecorder>,
    ) {
        let now = sim.now().as_u64();
        let vias: Vec<ProcessId> = self.pending.keys().copied().collect();
        for via in vias {
            loop {
                let outstanding = self.pending.get(&via).map_or(0, VecDeque::len);
                if outstanding == 0 {
                    break;
                }
                let Some(response) = sim.process_mut(via).and_then(T::claim_local) else {
                    break;
                };
                let ok = response.ok;
                let op = self
                    .pending
                    .get_mut(&via)
                    .and_then(VecDeque::pop_front)
                    .expect("claim loop checked outstanding > 0");
                // The history records the real (possibly late) response
                // round even for ops the latency accounting already wrote
                // off as timeouts — real time is what the checker needs.
                if let (Some(rec), Some(idx)) = (history.as_deref_mut(), op.op) {
                    rec.resolve(idx, now, response);
                }
                if op.timed_out {
                    // Already accounted as a timeout; the late response is
                    // dropped on the floor like a real client would.
                    continue;
                }
                let latency = now.saturating_sub(op.invoked).max(1);
                if ok {
                    self.completed += 1;
                    self.latencies.record(latency);
                } else {
                    self.failed += 1;
                }
            }
            if self.profile.op_timeout > 0 {
                if let Some(queue) = self.pending.get_mut(&via) {
                    for op in queue.iter_mut() {
                        if !op.timed_out
                            && now.saturating_sub(op.invoked) >= self.profile.op_timeout
                        {
                            op.timed_out = true;
                            self.timeouts += 1;
                        }
                    }
                }
            }
        }
        self.pending.retain(|_, queue| !queue.is_empty());
    }

    /// Folds the engine's results into a run's counter map.
    pub(crate) fn finish(mut self, rounds_run: u64, counters: &mut BTreeMap<String, u64>) {
        let inflight = self
            .pending
            .values()
            .flatten()
            .filter(|op| !op.timed_out)
            .count() as u64;
        let goodput = (self.completed * 1000).checked_div(rounds_run).unwrap_or(0);
        // Percentiles report 0 when nothing completed — unambiguous, since
        // a real completion is never faster than 1 round.
        let entries = [
            ("op_goodput_per_kround", goodput),
            (
                "op_latency_p50_rounds",
                self.latencies.percentile(50.0).unwrap_or(0),
            ),
            (
                "op_latency_p99_rounds",
                self.latencies.percentile(99.0).unwrap_or(0),
            ),
            (
                "op_latency_p999_rounds",
                self.latencies.percentile(99.9).unwrap_or(0),
            ),
            ("op_timeouts", self.timeouts),
            ("ops_completed", self.completed),
            ("ops_failed", self.failed),
            ("ops_inflight", inflight),
            ("ops_rejected", self.rejected),
            ("ops_submitted", self.submitted),
        ];
        for (key, value) in entries {
            counters.insert(key.to_string(), value);
        }
    }
}

/// Uniform draw in `[0, 1)` with 53 random bits — the standard exact
/// bits-to-double construction.
fn uniform(rng: &mut SimRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// `e^-x` for `x ∈ [0, 16]`, computed from IEEE-exact arithmetic only:
/// `e^-x = (e^-1)^⌊x⌋ · Σ (-f)^k / k!` with an 18-term Maclaurin tail for
/// the fractional part. Accurate to well under 1e-12 relative error on the
/// domain, and — unlike `f64::exp` — bit-identical on every platform.
fn exp_neg(x: f64) -> f64 {
    debug_assert!((0.0..=POISSON_CHUNK).contains(&x));
    let whole = x.floor();
    let frac = x - whole;
    let mut result = 1.0;
    let mut i = 0.0;
    while i < whole {
        result *= EXP_NEG_1;
        i += 1.0;
    }
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..=18 {
        term *= -frac / k as f64;
        sum += term;
    }
    result * sum
}

/// A Poisson draw at `rate` via Knuth's product-of-uniforms, chunked through
/// Poisson additivity so the product never underflows: a draw at rate λ is
/// the sum of independent draws at chunk rates ≤ 16 summing to λ.
fn poisson(rng: &mut SimRng, rate: f64) -> u64 {
    if rate <= 0.0 {
        return 0;
    }
    let mut remaining = rate.min(MAX_POISSON_RATE);
    let mut total = 0u64;
    while remaining > 0.0 {
        let chunk = remaining.min(POISSON_CHUNK);
        remaining -= chunk;
        let threshold = exp_neg(chunk);
        let mut product = 1.0;
        loop {
            product *= uniform(rng);
            if product <= threshold {
                break;
            }
            total += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerMode;
    use crate::scenario::{run_scenario, Scenario};
    use crate::testutil::MaxNode;

    #[test]
    fn parse_accepts_both_processes() {
        assert_eq!(
            Arrival::parse("poisson:4.5"),
            Ok(Arrival::Poisson { rate: 4.5 })
        );
        assert_eq!(
            Arrival::parse("burst:100:8"),
            Ok(Arrival::Burst {
                size: 100,
                period: 8
            })
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "poisson",
            "poisson:0",
            "poisson:-3",
            "poisson:inf",
            "poisson:nan",
            "poisson:1e9",
            "burst:100",
            "burst:0:5",
            "burst:5:0",
            "burst:a:b",
            "uniform:3",
            "",
        ] {
            assert!(Arrival::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn arrival_display_round_trips() {
        for spec in ["poisson:2.5", "burst:1000:4"] {
            let parsed = Arrival::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
            assert_eq!(Arrival::parse(&parsed.to_string()), Ok(parsed));
        }
    }

    #[test]
    fn exp_neg_matches_known_values() {
        assert_eq!(exp_neg(0.0), 1.0);
        assert!((exp_neg(1.0) - EXP_NEG_1).abs() < 1e-14);
        // e^-0.5 and e^-10 against externally computed references.
        assert!((exp_neg(0.5) - 0.606_530_659_712_633_4).abs() < 1e-12);
        assert!((exp_neg(10.0) - 4.539_992_976_248_485e-5).abs() < 1e-16);
    }

    #[test]
    fn poisson_mean_is_roughly_the_rate() {
        let mut rng = SimRng::seed_from(11);
        for rate in [0.5, 4.0, 40.0] {
            let draws = 20_000;
            let total: u64 = (0..draws).map(|_| poisson(&mut rng, rate)).sum();
            let mean = total as f64 / draws as f64;
            assert!(
                (mean - rate).abs() < rate * 0.05 + 0.05,
                "rate {rate}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_stream_is_seed_deterministic() {
        let mut a = SimRng::seed_from(77);
        let mut b = SimRng::seed_from(77);
        for _ in 0..256 {
            assert_eq!(poisson(&mut a, 7.3), poisson(&mut b, 7.3));
        }
    }

    fn loaded_scenario(arrival: Arrival) -> Scenario {
        Scenario::new("loaded", 4)
            .with_rounds(80)
            .with_workload_until(40)
            .with_load(LoadProfile::new(1_000, arrival).with_op_timeout(20))
    }

    #[test]
    fn engine_counters_are_reproducible() {
        let scenario = loaded_scenario(Arrival::Poisson { rate: 3.0 });
        let run = || {
            let mut sim = scenario.build_sim::<MaxNode>(9, SchedulerMode::EventDriven);
            run_scenario(&scenario, &mut sim)
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.counter("ops_submitted") > 0);
        assert_eq!(
            a.counter("ops_submitted"),
            a.counter("ops_completed") + a.counter("ops_inflight")
        );
        // MaxNode completes every accepted op on the next poll.
        assert_eq!(a.counter("op_latency_p50_rounds"), 1);
        assert_eq!(a.counter("op_latency_p999_rounds"), 1);
    }

    #[test]
    fn burst_arrivals_submit_on_the_period() {
        let scenario = loaded_scenario(Arrival::Burst {
            size: 10,
            period: 8,
        });
        let mut sim = scenario.build_sim::<MaxNode>(3, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        // Bursts fire at rounds 0, 8, 16, 24, 32 within the 40-round window.
        assert_eq!(run.counter("ops_submitted"), 50);
        assert_eq!(run.counter("ops_rejected"), 0);
    }

    #[test]
    fn loaded_run_publishes_every_counter_key() {
        let scenario = loaded_scenario(Arrival::Poisson { rate: 1.0 });
        let mut sim = scenario.build_sim::<MaxNode>(5, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        for key in COUNTER_KEYS {
            assert!(run.counters.contains_key(key), "missing {key}");
        }
    }

    #[test]
    fn unloaded_run_publishes_no_load_keys() {
        let scenario = Scenario::new("bare", 3).with_rounds(40);
        let mut sim = scenario.build_sim::<MaxNode>(5, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        for key in COUNTER_KEYS {
            assert!(!run.counters.contains_key(key), "unexpected {key}");
        }
    }
}
