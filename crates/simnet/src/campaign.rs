//! The chaos-campaign driver: scenarios × seeds.
//!
//! A [`Campaign`] sweeps a list of [`Scenario`]s over a list of seeds, runs
//! every cell once, and records one [`RunRecord`] per (scenario, seed) cell
//! into a [`CampaignReport`].
//!
//! The report renders to deterministic JSON ([`CampaignReport::to_json`]):
//! by design it contains **no wall-clock fields**, so the same campaign +
//! seeds produce byte-identical reports across repeated runs. Wall-clock
//! timings are available as an explicitly non-deterministic opt-in
//! ([`Campaign::with_timings`]), for benchmarking use only.
//!
//! # Shared prefixes
//!
//! Every random draw inside a cell derives from its own (scenario, seed)
//! pair, and the faults of a scenario hit a *running* system: until its
//! [`Scenario::fork_round`] — its first fault, capped below the end of its
//! workload window — a cell executes exactly the fault-free run that every
//! scenario with the same population, links, load and history
//! configuration executes under that seed
//! ([`Scenario::shares_prefix_with`]). So [`Campaign::cell_jobs`] groups the
//! cells by that key and seed. The first cell of a group to run
//! bootstraps the prefix once, from ⊥, and snapshots it at every distinct
//! fork round of the group in ascending order; every cell then forks the
//! snapshot at its own fork round ([`crate::ScenarioRunner`] is `Clone`) and
//! runs only its own faults and recovery. A snapshot is dropped when the
//! last cell that forks from it has done so.
//!
//! # Parallel execution
//!
//! The cells run on the [`crate::exec`] work-stealing pool
//! ([`Campaign::with_jobs`]; the default is the machine's available
//! parallelism, and one worker runs the cells in order on the calling
//! thread). A group's snapshots sit behind a mutex and are only cloned, so
//! a cell may fork on another worker than the one that ran its prefix.
//! Results are reassembled in enumeration order (scenario-major,
//! seed-minor), so the report is **byte-identical at any jobs count** and
//! to a cold run of every cell from ⊥; CI and the property tests assert
//! exactly that.
//!
//! # Wall-time semantics under parallelism
//!
//! [`RunRecord::wall_ms`] is strictly *per-cell*: it is measured inside the
//! worker that ran the cell, around that cell's run only. With
//! `jobs > 1` cells overlap, so campaign-level wall time is **not** the sum
//! of the cells' `wall_ms`; the driver measures its own elapsed time into
//! the opt-in [`CampaignReport::wall_ms_total`] instead. Speedup of the
//! parallel driver is `Σ wall_ms / wall_ms_total`-shaped, never a
//! comparison of `wall_ms` fields across jobs counts. A group's shared
//! prefix counts towards the cell that ran it.
//!
//! ```
//! # use simnet::scenario::ScenarioTarget;
//! # use simnet::{Context, Process, ProcessId, SimRng, Simulation};
//! # #[derive(Debug, Clone)]
//! # struct Flood { value: u64 }
//! # impl Process for Flood {
//! #     type Msg = u64;
//! #     fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
//! #         for p in ctx.peers() { ctx.send(p, self.value); }
//! #     }
//! #     fn on_message(&mut self, _f: ProcessId, m: u64, _c: &mut Context<'_, u64>) {
//! #         self.value = self.value.max(m);
//! #     }
//! # }
//! # impl ScenarioTarget for Flood {
//! #     const NAME: &'static str = "flood";
//! #     fn spawn_initial(id: ProcessId, _n: usize) -> Self {
//! #         Flood { value: id.as_u32() as u64 }
//! #     }
//! #     fn spawn_joiner(_id: ProcessId, _n: usize) -> Self { Flood { value: 0 } }
//! #     fn corrupt(&mut self, rng: &mut SimRng) { self.value = rng.range_inclusive(50, 99); }
//! #     fn converged(sim: &Simulation<Self>) -> bool {
//! #         let mut v = sim.active_processes().map(|(_, p)| p.value);
//! #         let first = v.next();
//! #         v.all(|x| Some(x) == first)
//! #     }
//! #     fn invariant_violations(_sim: &Simulation<Self>) -> Vec<String> { Vec::new() }
//! #     fn state_line(i: ProcessId, p: &Self) -> String { format!("{i} {}", p.value) }
//! # }
//! use simnet::scenario::catalog;
//! use simnet::Campaign;
//!
//! // Sweep the whole catalog over two seeds.
//! let report = Campaign::new("docs")
//!     .with_seeds([1, 2])
//!     .run::<Flood>(&catalog(4));
//! assert!(report.passed());
//! assert_eq!(report.runs.len(), catalog(4).len() * 2);
//! // Rendering is byte-deterministic — diff-friendly across PRs.
//! assert_eq!(report.render(), report.render());
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::config::SchedulerMode;
use crate::exec::Job;
use crate::report::{obj_from_map, Json};
use crate::scenario::{Scenario, ScenarioRunner, ScenarioTarget};
use crate::time::Round;

/// Sweep configuration: which seeds every scenario runs under.
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    seeds: Vec<u64>,
    timings: bool,
    jobs: Option<usize>,
    cell_budget_ms: Option<f64>,
}

impl Campaign {
    /// Creates a campaign named `name` with seed 1 and the default worker
    /// count ([`crate::exec::available_jobs`]).
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            seeds: vec![1],
            timings: false,
            jobs: None,
            cell_budget_ms: None,
        }
    }

    /// Sets the seeds to sweep (builder style).
    pub fn with_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Ignores its argument; kept only because `benchmark/` names it, and ROADMAP item 15(f) removes it.
    pub fn with_modes(self, _modes: impl IntoIterator<Item = SchedulerMode>) -> Self {
        self
    }

    /// Enables wall-clock timings in the report (builder style). Timed
    /// reports are **not** byte-deterministic; CI's determinism checks run
    /// without timings. Timings also switch on the driver-measured
    /// [`CampaignReport::wall_ms_total`].
    pub fn with_timings(mut self, timings: bool) -> Self {
        self.timings = timings;
        self
    }

    /// Sets the worker-thread budget for the cell matrix (builder style).
    /// `1` runs the cells in order on the calling thread; `0` restores the
    /// default (the machine's available parallelism). Any jobs count
    /// produces a byte-identical report — cells are reassembled in
    /// enumeration order and every cell derives its randomness from its own
    /// seed.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = (jobs > 0).then_some(jobs);
        self
    }

    /// Arms a per-cell wall budget in milliseconds (builder style; `0.0`
    /// disarms). A cell whose wall time exceeds the budget is
    /// reported as a distinct outcome — [`RunRecord::budget_overrun`] —
    /// and fails [`RunRecord::passed`], so a campaign tier can gate on
    /// "every cell converged *within its time box*" without turning a
    /// hang into a CI timeout with no report. The verdict compares wall
    /// clock against the budget, so (unlike everything else in an untimed
    /// report) it is machine-dependent; pick budgets with generous
    /// headroom and treat an overrun as a perf regression signal, not a
    /// protocol bug.
    pub fn with_cell_budget_ms(mut self, budget_ms: f64) -> Self {
        self.cell_budget_ms = (budget_ms > 0.0).then_some(budget_ms);
        self
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The armed per-cell wall budget, if any.
    pub fn cell_budget_ms(&self) -> Option<f64> {
        self.cell_budget_ms
    }

    /// The seeds swept.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The effective worker-thread count this campaign will use.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(crate::exec::available_jobs)
    }

    /// Whether wall-clock timings were requested.
    pub fn timings(&self) -> bool {
        self.timings
    }

    /// The campaign's cells over `scenarios` as enumerated jobs —
    /// scenario-major, seed-minor — that share their fault-free prefixes:
    /// the cells of one seed whose scenarios [share a
    /// prefix](Scenario::shares_prefix_with) fork it from one bootstrap run
    /// by whichever of them runs first (see the
    /// module documentation). This is the unit [`Campaign::run_into`] feeds
    /// to [`crate::exec::run_ordered`]; callers that interleave several
    /// target types into one pool dispatch (`simctl run --node all`)
    /// concatenate the per-type job lists and run them in one call, which
    /// parallelizes across the node axis too.
    pub fn cell_jobs<T: ScenarioTarget>(
        &self,
        scenarios: &[Scenario],
    ) -> Vec<Job<'static, RunRecord>> {
        let me = Arc::new(self.clone());
        // Per seed and prefix class, one shared prefix.
        let mut groups: Vec<(u64, &Scenario, Arc<Prefix<T>>)> = Vec::new();
        let mut cells = Vec::new();
        for scenario in scenarios {
            let fork_round = scenario.fork_round();
            for &seed in &self.seeds {
                let found = groups
                    .iter()
                    .position(|(s, first, _)| *s == seed && first.shares_prefix_with(scenario));
                let index = found.unwrap_or_else(|| {
                    let prefix = Arc::new(Prefix::new(scenario.prefix(), seed));
                    groups.push((seed, scenario, prefix));
                    groups.len() - 1
                });
                let prefix = Arc::clone(&groups[index].2);
                prefix.expect_fork(fork_round);
                let me = Arc::clone(&me);
                let scenario = scenario.clone();
                cells.push(
                    Box::new(move || me.run_cell(&scenario, seed, fork_round, &prefix))
                        as Job<'static, RunRecord>,
                );
            }
        }
        cells
    }

    /// Runs every scenario × seed cell against target `T` and appends the
    /// records to `report`, in deterministic enumeration order
    /// (scenario-major, seed-minor) regardless of the jobs count.
    pub fn run_into<T: ScenarioTarget>(&self, scenarios: &[Scenario], report: &mut CampaignReport) {
        let started = Instant::now();
        // `run_ordered` reassembles the records in enumeration order —
        // shard partitioning and completion order never leak into
        // `report.runs`.
        let cells = self.cell_jobs::<T>(scenarios);
        report
            .runs
            .extend(crate::exec::run_ordered(cells, self.jobs()));
        if self.timings {
            *report.wall_ms_total.get_or_insert(0.0) += started.elapsed().as_secs_f64() * 1e3;
        }
    }

    /// Runs every scenario × seed cell against target `T`, returning a
    /// fresh report.
    pub fn run<T: ScenarioTarget>(&self, scenarios: &[Scenario]) -> CampaignReport {
        let mut report = CampaignReport::new(&self.name, self.seeds.clone());
        self.run_into::<T>(scenarios, &mut report);
        report
    }

    /// One (scenario, seed) cell, forked from its group's shared prefix at
    /// `fork_round`.
    fn run_cell<T: ScenarioTarget>(
        &self,
        scenario: &Scenario,
        seed: u64,
        fork_round: Round,
        prefix: &Prefix<T>,
    ) -> RunRecord {
        let started = Instant::now();
        let mut runner = prefix.fork(fork_round).rebind(scenario.clone());
        let run = runner.finish();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let metrics = runner.sim().metrics();
        RunRecord {
            node: T::NAME.to_string(),
            scenario: scenario.name().to_string(),
            seed,
            n: scenario.initial_size(),
            rounds_run: run.rounds_run,
            converged: run.converged,
            rounds_to_convergence: run.rounds_to_convergence,
            counters: run.counters,
            messages_sent: metrics.messages_sent(),
            messages_delivered: metrics.messages_delivered(),
            messages_lost: metrics.messages_lost(),
            messages_duplicated: metrics.messages_duplicated(),
            timer_steps: metrics.timer_steps(),
            state_digest: run.state_digest,
            invariant_violations: run.invariant_violations,
            wall_ms: self.timings.then_some(wall_ms),
            budget_overrun: self.cell_budget_ms.map(|budget| wall_ms > budget),
        }
    }
}

/// The fault-free prefix that one group of cells shares under one seed, run
/// once and snapshotted at every fork round the group
/// needs. Behind a mutex: nodes hold `RefCell` caches, so a snapshot is not
/// `Sync`, and a cell on any worker may be the one to fork it.
struct Prefix<T: ScenarioTarget> {
    state: Mutex<PrefixState<T>>,
}

struct PrefixState<T: ScenarioTarget> {
    /// The prefix to bootstrap — its scenario ([`Scenario::prefix`]) and
    /// seed — until the first fork has run it.
    pending: Option<(Scenario, u64)>,
    /// Per fork round: the snapshot there, once bootstrapped, and the number
    /// of cells still to fork from it.
    forks: BTreeMap<Round, (Option<ScenarioRunner<T>>, usize)>,
}

impl<T: ScenarioTarget> Prefix<T> {
    fn new(scenario: Scenario, seed: u64) -> Self {
        Prefix {
            state: Mutex::new(PrefixState {
                pending: Some((scenario, seed)),
                forks: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PrefixState<T>> {
        // A panic inside the bootstrap leaves `pending` in place, so the
        // next cell re-runs it and reports the same panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers one more cell that will fork at `round`.
    fn expect_fork(&self, round: Round) {
        self.lock().forks.entry(round).or_insert((None, 0)).1 += 1;
    }

    /// A runner standing at `round`, forked from the shared snapshot. The
    /// first call bootstraps the prefix and snapshots it at every registered
    /// fork round, in ascending order; the last cell to fork at a round
    /// takes that snapshot instead of copying it, which frees it.
    fn fork(&self, round: Round) -> ScenarioRunner<T> {
        let mut guard = self.lock();
        let state = &mut *guard;
        if let Some((scenario, seed)) = &state.pending {
            let sim = scenario.build_sim(*seed, SchedulerMode::EventDriven);
            let mut runner = ScenarioRunner::new(scenario, sim);
            let mut forks = state.forks.iter_mut().peekable();
            while let Some((&at, (snapshot, _))) = forks.next() {
                runner.advance_to(at);
                if forks.peek().is_none() {
                    *snapshot = Some(runner);
                    break;
                }
                *snapshot = Some(runner.clone());
            }
            state.pending = None;
        }
        let (snapshot, waiting) = state.forks.get_mut(&round).expect("fork round registered");
        *waiting -= 1;
        if *waiting > 0 {
            return snapshot.clone().expect("prefix bootstrapped");
        }
        let (snapshot, _) = state.forks.remove(&round).expect("fork round registered");
        snapshot.expect("prefix bootstrapped")
    }
}

/// The outcome of one (scenario, seed) cell. Every field is deterministic
/// given the scenario and seed, except `wall_ms` (present only when
/// timings were requested).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The node type swept (`ScenarioTarget::NAME`).
    pub node: String,
    /// The scenario name.
    pub scenario: String,
    /// The seed.
    pub seed: u64,
    /// Initial population size.
    pub n: usize,
    /// Rounds executed.
    pub rounds_run: u64,
    /// Whether the convergence predicate held at the end.
    pub converged: bool,
    /// First post-fault round at which the target reported convergence.
    pub rounds_to_convergence: Option<u64>,
    /// Fault counters keyed by the plans' registered counter keys (see
    /// [`crate::plan::FaultPlan::counter_keys`]): `crashes`, `joins`,
    /// `corruptions`, `injections`, … — extensible per fault class instead
    /// of fixed fields.
    pub counters: BTreeMap<String, u64>,
    /// Send operations attempted.
    pub messages_sent: u64,
    /// Packets delivered.
    pub messages_delivered: u64,
    /// Packets dropped by lossy links (or blocked by partitions).
    pub messages_lost: u64,
    /// Packets duplicated by links.
    pub messages_duplicated: u64,
    /// Timer steps taken by all processes.
    pub timer_steps: u64,
    /// Canonical digest of the final protocol state.
    pub state_digest: u64,
    /// Safety-invariant violations.
    pub invariant_violations: Vec<String>,
    /// Wall-clock time of the cell's run, measured **inside the
    /// worker that ran this cell** — strictly per-cell. Under a parallel
    /// driver cells overlap, so campaign wall time is *not* the sum of
    /// these; see [`CampaignReport::wall_ms_total`]. Non-deterministic;
    /// `None` unless timings were requested. The first cell of a prefix
    /// group to run also pays for bootstrapping the group's shared prefix
    /// (see the module documentation); every other cell pays only for its
    /// fork and what follows it.
    pub wall_ms: Option<f64>,
    /// Whether the cell blew its wall budget ([`Campaign::with_cell_budget_ms`]):
    /// `None` when no budget was armed, otherwise the verdict. Wall-clock
    /// dependent, hence machine-dependent — `simctl diff` ignores it like
    /// `wall_ms`.
    pub budget_overrun: Option<bool>,
}

impl RunRecord {
    /// Whether this run passed: converged, no violations, and — when a wall
    /// budget was armed — within budget.
    pub fn passed(&self) -> bool {
        self.converged && self.invariant_violations.is_empty() && self.budget_overrun != Some(true)
    }

    /// The value of one fault counter (0 when the key is absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .field("node", self.node.as_str())
            .field("scenario", self.scenario.as_str())
            .field("seed", self.seed)
            .field("n", self.n)
            .field("rounds_run", self.rounds_run)
            .field("converged", self.converged)
            .field(
                "rounds_to_convergence",
                match self.rounds_to_convergence {
                    Some(r) => Json::UInt(r),
                    None => Json::Null,
                },
            )
            .field("counters", obj_from_map(&self.counters))
            .field("messages_sent", self.messages_sent)
            .field("messages_delivered", self.messages_delivered)
            .field("messages_lost", self.messages_lost)
            .field("messages_duplicated", self.messages_duplicated)
            .field("timer_steps", self.timer_steps)
            .field("state_digest", format!("{:016x}", self.state_digest))
            // The key outlived the second scheduler it compared against: it
            // stays, always `true`, so golden digests and cross-PR report
            // diffs hold. Dropping it needs a deliberate re-pin.
            .field("modes_agree", true)
            .field(
                "invariant_violations",
                Json::Arr(
                    self.invariant_violations
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            );
        if let Some(wall) = self.wall_ms {
            obj = obj.field("wall_ms", wall);
        }
        if let Some(overrun) = self.budget_overrun {
            obj = obj.field("budget_overrun", overrun);
        }
        obj
    }
}

/// A machine-readable summary of a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The campaign name.
    pub name: String,
    /// The seeds swept.
    pub seeds: Vec<u64>,
    /// One record per (node, scenario, seed) cell, in deterministic
    /// enumeration order — never completion order, at any jobs count.
    pub runs: Vec<RunRecord>,
    /// Driver-measured wall time of the whole campaign in milliseconds,
    /// accumulated over every [`Campaign::run_into`] that fed this report.
    /// This is the only meaningful campaign-level wall figure under a
    /// parallel driver (per-cell [`RunRecord::wall_ms`] overlaps).
    /// Non-deterministic; `None` unless timings were requested.
    pub wall_ms_total: Option<f64>,
}

impl CampaignReport {
    /// Creates an empty report.
    pub fn new(name: impl Into<String>, seeds: Vec<u64>) -> Self {
        CampaignReport {
            name: name.into(),
            seeds,
            runs: Vec::new(),
            wall_ms_total: None,
        }
    }

    /// Whether every run passed.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(RunRecord::passed)
    }

    /// The report as a JSON document. Deterministic: no timestamps, no
    /// machine-dependent fields (unless timings were requested).
    pub fn to_json(&self) -> Json {
        let converged = self.runs.iter().filter(|r| r.converged).count();
        let violations: usize = self.runs.iter().map(|r| r.invariant_violations.len()).sum();
        let mut doc = Json::obj()
            .field("campaign", self.name.as_str())
            .field("engine", "simnet-chaos/1")
            .field(
                "seeds",
                Json::Arr(self.seeds.iter().map(|s| Json::UInt(*s)).collect()),
            );
        if let Some(wall) = self.wall_ms_total {
            doc = doc.field("wall_ms_total", wall);
        }
        doc.field(
            "runs",
            Json::Arr(self.runs.iter().map(RunRecord::to_json).collect()),
        )
        .field(
            "summary",
            Json::obj()
                .field("runs", self.runs.len())
                .field("converged", converged)
                .field("modes_agree", self.runs.len())
                .field("invariant_violations", violations)
                .field("passed", self.passed()),
        )
    }

    /// The rendered JSON report.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::catalog;
    use crate::testutil::MaxNode;

    #[test]
    fn cell_budget_marks_overruns_as_distinct_outcomes() {
        let scenarios = vec![catalog(4).into_iter().next().unwrap()];
        // A generous budget passes and reports the verdict.
        let ok = Campaign::new("budget")
            .with_seeds([1])
            .with_cell_budget_ms(1e12)
            .run::<MaxNode>(&scenarios);
        assert!(ok.passed());
        assert_eq!(ok.runs[0].budget_overrun, Some(false));
        assert!(ok.render().contains("budget_overrun"));
        // An impossible budget fails the cell — but as a *distinct*
        // outcome: the protocol run itself is untouched and convergent.
        let over = Campaign::new("budget")
            .with_seeds([1])
            .with_cell_budget_ms(f64::MIN_POSITIVE)
            .run::<MaxNode>(&scenarios);
        assert!(!over.passed());
        let run = &over.runs[0];
        assert!(run.converged && run.invariant_violations.is_empty());
        assert_eq!(run.budget_overrun, Some(true));
        // No budget armed: the field stays out of the report entirely, so
        // untimed reports remain byte-deterministic.
        let plain = Campaign::new("budget")
            .with_seeds([1])
            .run::<MaxNode>(&scenarios);
        assert_eq!(plain.runs[0].budget_overrun, None);
        assert!(!plain.render().contains("budget_overrun"));
        // `0.0` disarms (the CLI's "flag absent" spelling).
        let disarmed = Campaign::new("budget")
            .with_seeds([1])
            .with_cell_budget_ms(0.0)
            .run::<MaxNode>(&scenarios);
        assert_eq!(disarmed.runs[0].budget_overrun, None);
    }

    #[test]
    fn campaign_report_is_byte_identical_across_runs() {
        let scenarios = catalog(5);
        let run = || {
            Campaign::new("determinism")
                .with_seeds([1, 2])
                .run::<MaxNode>(&scenarios)
                .render()
        };
        assert_eq!(run(), run(), "repeated campaign runs diverged");
    }

    #[test]
    fn campaign_runs_every_cell_and_passes() {
        let scenarios = catalog(4);
        let report = Campaign::new("smoke")
            .with_seeds([7])
            .run::<MaxNode>(&scenarios);
        assert_eq!(report.runs.len(), scenarios.len());
        assert!(report.passed(), "{}", report.render());
        for run in &report.runs {
            assert_eq!(run.node, "max");
            assert!(run.messages_sent > 0);
        }
    }

    #[test]
    fn report_json_shape_is_stable() {
        let report = Campaign::new("shape")
            .with_seeds([3])
            .run::<MaxNode>(&catalog(3)[..1]);
        let doc = report.to_json();
        assert_eq!(doc.get("campaign").and_then(Json::as_str), Some("shape"));
        assert_eq!(
            doc.get("engine").and_then(Json::as_str),
            Some("simnet-chaos/1")
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        for key in [
            "node",
            "scenario",
            "seed",
            "n",
            "rounds_run",
            "converged",
            "rounds_to_convergence",
            "counters",
            "messages_sent",
            "messages_delivered",
            "messages_lost",
            "messages_duplicated",
            "timer_steps",
            "state_digest",
            "modes_agree",
            "invariant_violations",
        ] {
            assert!(run.get(key).is_some(), "missing field {key}");
        }
        assert!(run.get("wall_ms").is_none(), "untimed report has wall_ms");
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("passed").and_then(Json::as_bool), Some(true));
        // The parsed report round-trips.
        let parsed = Json::parse(&report.render()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn timings_are_opt_in_and_non_default() {
        let report = Campaign::new("timed")
            .with_seeds([1])
            .with_timings(true)
            .run::<MaxNode>(&catalog(3)[..1]);
        assert!(report.runs[0].wall_ms.is_some());
        let doc = report.to_json();
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        assert!(run.get("wall_ms").is_some());
    }

    /// The tentpole acceptance property at the toy-target scale: any jobs
    /// count produces the byte-identical report, and the runs arrive in
    /// enumeration order (scenario-major, seed-minor) — shard partitioning
    /// never leaks into `CampaignReport::runs`.
    #[test]
    fn parallel_reports_are_byte_identical_to_serial_at_any_jobs_count() {
        let scenarios = catalog(5);
        let seeds = [1u64, 2, 3];
        let serial = Campaign::new("jobs")
            .with_seeds(seeds)
            .with_jobs(1)
            .run::<MaxNode>(&scenarios);
        let serial_rendered = serial.render();
        let expected_order: Vec<(String, u64)> = scenarios
            .iter()
            .flat_map(|s| seeds.iter().map(|&seed| (s.name().to_string(), seed)))
            .collect();
        let actual_order: Vec<(String, u64)> = serial
            .runs
            .iter()
            .map(|r| (r.scenario.clone(), r.seed))
            .collect();
        assert_eq!(actual_order, expected_order, "serial enumeration order");
        for jobs in [2usize, 4, 8] {
            let parallel = Campaign::new("jobs")
                .with_seeds(seeds)
                .with_jobs(jobs)
                .run::<MaxNode>(&scenarios);
            assert_eq!(
                parallel.render(),
                serial_rendered,
                "report diverged at jobs={jobs}"
            );
        }
    }

    /// The cold per-cell loop the shared prefixes replaced, kept as their
    /// oracle: every cell built from ⊥ and run start to finish.
    fn cold_cell(scenario: &Scenario, seed: u64) -> RunRecord {
        let mut sim = scenario.build_sim::<MaxNode>(seed, SchedulerMode::EventDriven);
        let run = crate::scenario::run_scenario(scenario, &mut sim);
        let metrics = sim.metrics();
        RunRecord {
            node: MaxNode::NAME.to_string(),
            scenario: scenario.name().to_string(),
            seed,
            n: scenario.initial_size(),
            rounds_run: run.rounds_run,
            converged: run.converged,
            rounds_to_convergence: run.rounds_to_convergence,
            counters: run.counters,
            messages_sent: metrics.messages_sent(),
            messages_delivered: metrics.messages_delivered(),
            messages_lost: metrics.messages_lost(),
            messages_duplicated: metrics.messages_duplicated(),
            timer_steps: metrics.timer_steps(),
            state_digest: run.state_digest,
            invariant_violations: run.invariant_violations,
            wall_ms: None,
            budget_overrun: None,
        }
    }

    /// Cells forked from their group's shared prefix — every catalog fork
    /// round and a second prefix class (a loaded variant of each scenario)
    /// — record exactly what the cold loop records.
    #[test]
    fn forked_cells_match_cold_cells() {
        let load = crate::load::LoadProfile::new(4, crate::load::Arrival::Poisson { rate: 0.5 });
        let mut scenarios = catalog(5);
        scenarios.extend(catalog(5).into_iter().map(|s| s.with_load(load.clone())));
        let seeds = [1u64, 2];
        let cold: Vec<RunRecord> = scenarios
            .iter()
            .flat_map(|s| seeds.iter().map(move |&seed| cold_cell(s, seed)))
            .collect();
        for jobs in [1, 2] {
            let forked = Campaign::new("fork")
                .with_seeds(seeds)
                .with_jobs(jobs)
                .run::<MaxNode>(&scenarios);
            assert_eq!(forked.runs, cold, "at jobs={jobs}");
        }
    }

    #[test]
    fn with_jobs_zero_restores_the_default_and_jobs_is_at_least_one() {
        let auto = Campaign::new("auto");
        assert!(auto.jobs() >= 1);
        assert_eq!(Campaign::new("one").with_jobs(1).jobs(), 1);
        assert_eq!(Campaign::new("four").with_jobs(4).jobs(), 4);
        assert_eq!(
            Campaign::new("reset").with_jobs(4).with_jobs(0).jobs(),
            auto.jobs()
        );
    }

    /// `wall_ms_total` is driver-measured, opt-in, and accumulates across
    /// `run_into` calls; untimed reports must not carry it (determinism).
    #[test]
    fn wall_ms_total_is_driver_measured_and_opt_in() {
        let scenarios = catalog(3);
        let untimed = Campaign::new("untimed")
            .with_jobs(2)
            .run::<MaxNode>(&scenarios[..2]);
        assert!(untimed.wall_ms_total.is_none());
        assert!(untimed.to_json().get("wall_ms_total").is_none());

        let campaign = Campaign::new("timed").with_timings(true).with_jobs(2);
        let mut report = CampaignReport::new("timed", campaign.seeds().to_vec());
        campaign.run_into::<MaxNode>(&scenarios[..1], &mut report);
        let first = report.wall_ms_total.expect("timed driver total");
        campaign.run_into::<MaxNode>(&scenarios[1..2], &mut report);
        let second = report.wall_ms_total.expect("timed driver total");
        assert!(second >= first, "wall_ms_total must accumulate");
        assert!(report.to_json().get("wall_ms_total").is_some());
        // Per-cell wall_ms stays present and per-cell under parallelism.
        assert!(report.runs.iter().all(|r| r.wall_ms.is_some()));
    }
}
