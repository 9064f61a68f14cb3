//! `ops-n24`: the application's view. The three op-serving stacks in turn
//! (`counter`, `sharedmem`, `smr`) at n = 24 under an open-loop client
//! population, with a minority running at 6× the timer period for 40 rounds
//! inside the load window (catalog `gray-lag`) and operation histories
//! checked for linearizability. The layers *above* recSA — labels, counters,
//! vssmr, sharedmem — the load engine and the checker do most of the work.
//! `sharedmem` mixes reads (every third op) with writes; `counter` is
//! write-only, so a gain for one use that costs the other shows.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use counters::CounterNode;
use rand::RngCore;
use sharedmem::SharedMemNode;
use simnet::scenario::{find, run_scenario, ScenarioRun, ScenarioTarget};
use simnet::{
    Arrival, FaultAction, LoadProfile, ProcessId, Scenario, SchedulerMode, SimRng, Simulation,
};
use vssmr::SmrNode;

use crate::harness::{tokens_agree, Outcome, RunArgs, SetupClock};
use crate::layers::{finish_trace, layer_metrics, ReconfigProgress, SimCounts};
use crate::stats::{percentile, sorted, tail_percentile};
use crate::timed::{build_timed, Timed, TracedStack, Tracer};
use crate::{machine, spec};

const N: usize = 24;
/// Set-ups per run, and so repetitions of every cell: the cells are timed
/// whole, so only repetition can step around a slow spell of the host.
const SETUPS: usize = 8;
/// Load-window rounds per second of `--seconds`: 270 rounds of 4 ops take
/// about 0.6 s per stack on the sizing box, and every stack runs once per
/// set-up.
const WINDOW_ROUNDS_PER_SECOND: u64 = 27;
const CLIENTS: u64 = 1_000;
/// Open loop on a fixed schedule: four ops arrive every round, whatever the
/// system is doing. That is a rate the three stacks serve without a growing
/// backlog (p50 of 3 to 4 rounds on each of 40 seeds tried). At the issue's
/// Poisson 8 per round the three sharedmem registers run near saturation:
/// the median moves between 7 and 10 rounds with the seed, and on a quarter
/// of the seeds the linearizability checker exhausts its search budget on
/// the twenty-odd overlapping ops per register, which is no check at all.
/// A fixed schedule instead of Poisson draws keeps the op count the same on
/// every seed, so ops per second and messages per op compare across seeds.
const ARRIVAL: Arrival = Arrival::Burst { size: 4, period: 1 };
const OP_TIMEOUT: u64 = 300;
const ROUND_BUDGET: u64 = 6_000;
/// The gray window of catalog `gray-lag` opens at round 30; bootstrap has
/// to be over by then for the window to fall inside the load.
const BOOT_CAP: u64 = 30;
/// `simnet::load`'s private seed salt: the traced pass draws the same
/// arrival stream as the runner's engine, so its op counts can be checked
/// against the runner's.
const LOAD_SEED_SALT: u64 = 0x10ad_c11e_0a75_10ad;

fn scenario(load_until: u64, history: bool) -> Scenario {
    let scenario = find("gray-lag", N)
        .expect("the catalog has `gray-lag`")
        .with_rounds(ROUND_BUDGET)
        .with_workload_until(load_until)
        .with_load(LoadProfile::new(CLIENTS, ARRIVAL).with_op_timeout(OP_TIMEOUT));
    if history {
        scenario.with_history()
    } else {
        scenario
    }
}

/// One stack, bootstrapped and ready to serve.
struct Booted<T: ScenarioTarget> {
    sim: Simulation<T>,
    rounds: u64,
    msgs: u64,
}

/// Set-up of one stack: build it and run it from scratch until it has
/// converged, so that clients arrive at a system that can serve them (an
/// SMR replica without a view rejects submissions).
fn boot<T: ScenarioTarget>(seed: u64) -> Result<Booted<T>, String> {
    let mut sim = scenario(0, false).build_sim::<T>(seed, SchedulerMode::EventDriven);
    let rounds = sim.run_until(BOOT_CAP, T::converged);
    if !T::converged(&sim) {
        return Err(format!(
            "{} did not bootstrap within {BOOT_CAP} rounds",
            T::NAME
        ));
    }
    let msgs = sim.metrics().messages_sent();
    Ok(Booted { sim, rounds, msgs })
}

/// One measured cell.
struct Cell<T: ScenarioTarget> {
    wall_ns: f64,
    run: ScenarioRun,
    msgs: u64,
    boot_rounds: u64,
    /// The system after the run, for its progress counters; only the first
    /// repetition keeps it (the others would only hold memory).
    sim: Option<Simulation<T>>,
}

fn measure<T: ScenarioTarget>(
    booted: Booted<T>,
    window: u64,
    history: bool,
    keep_sim: bool,
) -> Result<Cell<T>, String> {
    let Booted {
        mut sim,
        rounds,
        msgs,
    } = booted;
    let scenario = scenario(rounds + window, history);
    let started = Instant::now();
    let run = run_scenario(&scenario, &mut sim);
    let wall_ns = started.elapsed().as_nanos() as f64;
    if !run.converged || !run.invariant_violations.is_empty() {
        return Err(format!(
            "{} cell failed: converged={} violations={:?}",
            T::NAME,
            run.converged,
            run.invariant_violations
        ));
    }
    if history && (run.counter("lin_result") != 0 || run.counter("stability_violations") != 0) {
        return Err(format!(
            "{} cell: lin_result={} stability_violations={}",
            T::NAME,
            run.counter("lin_result"),
            run.counter("stability_violations")
        ));
    }
    Ok(Cell {
        wall_ns,
        msgs: sim.metrics().messages_sent() - msgs,
        run,
        boot_rounds: rounds,
        sim: keep_sim.then_some(sim),
    })
}

/// The same cell measured once per set-up: identical work, so the runs must
/// agree and the fastest wall is the cell's wall.
struct Repeated<T: ScenarioTarget> {
    best_ns: f64,
    cell: Cell<T>,
}

fn fold<T: ScenarioTarget>(cells: Vec<Cell<T>>) -> Result<Repeated<T>, String> {
    let best_ns = cells
        .iter()
        .map(|c| c.wall_ns)
        .fold(f64::INFINITY, f64::min);
    let mut cells = cells.into_iter();
    let cell = cells.next().expect("SETUPS > 0");
    if cells.any(|other| other.run != cell.run || other.msgs != cell.msgs) {
        return Err(format!("{}: the same seed gave two executions", T::NAME));
    }
    Ok(Repeated { best_ns, cell })
}

impl<T: ScenarioTarget> Repeated<T> {
    fn ops(&self, key: &str) -> u64 {
        self.cell.run.counter(key)
    }
    /// Ops that did not complete successfully in time: failed, timed out,
    /// rejected at submission, or never claimed.
    fn failed_ops(&self) -> u64 {
        self.ops("ops_failed")
            + self.ops("op_timeouts")
            + self.ops("ops_rejected")
            + self.ops("ops_inflight")
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let window = WINDOW_ROUNDS_PER_SECOND * args.seconds;
    let mut out = Outcome::default();
    out.note(format!(
        "counter, sharedmem, smr at n={N}; catalog `gray-lag`; open loop, {CLIENTS} clients, {ARRIVAL}, \
         op timeout {OP_TIMEOUT} rounds, load window {window} rounds after bootstrap; histories checked"
    ));
    out.note(format!(
        "latency counts from the round an op was due, so generator lateness is 0 by construction; \
         injected link behaviour: {:?}",
        scenario(0, false).link()
    ));

    // Set up, measure, and again: every repetition boots its own three
    // systems, and the set-ups sample the whole run.
    let mut setups = SetupClock::default();
    let (mut counter, mut sharedmem, mut smr) = (Vec::new(), Vec::new(), Vec::new());
    // In the traced run the same cells also run without histories, to price
    // the checker (booted outside the timed set-up).
    let (mut bare_counter, mut bare_sharedmem) = (Vec::new(), Vec::new());
    for repeat in 0..SETUPS {
        let (c, s, m) = setups.time(|| {
            Ok((
                boot::<CounterNode>(args.seed)?,
                boot::<SharedMemNode>(args.seed)?,
                boot::<SmrNode>(args.seed)?,
            ))
        })?;
        counter.push(measure(c, window, true, repeat == 0)?);
        sharedmem.push(measure(s, window, true, repeat == 0)?);
        smr.push(measure(m, window, true, repeat == 0)?);
        if args.trace {
            bare_counter.push(measure(
                boot::<CounterNode>(args.seed)?,
                window,
                false,
                false,
            )?);
            bare_sharedmem.push(measure(
                boot::<SharedMemNode>(args.seed)?,
                window,
                false,
                false,
            )?);
        }
    }
    let (counter, sharedmem, smr) = (fold(counter)?, fold(sharedmem)?, fold(smr)?);

    let completed =
        counter.ops("ops_completed") + sharedmem.ops("ops_completed") + smr.ops("ops_completed");
    let attempted = [&counter.cell.run, &sharedmem.cell.run, &smr.cell.run]
        .iter()
        .map(|r| r.counter("ops_submitted") + r.counter("ops_rejected"))
        .sum::<u64>();
    let failed = counter.failed_ops() + sharedmem.failed_ops() + smr.failed_ops();
    let msgs = counter.cell.msgs + sharedmem.cell.msgs + smr.cell.msgs;
    let best_ns = counter.best_ns + sharedmem.best_ns + smr.best_ns;
    if completed == 0 {
        return Err("no operation completed".into());
    }
    out.attempted = attempted;
    out.failed = failed;
    let p50 = |r: &ScenarioRun| r.counter("op_latency_p50_rounds");
    let p99 = |r: &ScenarioRun| r.counter("op_latency_p99_rounds");
    // The runner exposes each cell's percentiles, not its histogram, so the
    // three cells cannot be pooled from outside; the slowest stack is the
    // one an application would notice.
    let worst_p50 = p50(&counter.cell.run)
        .max(p50(&sharedmem.cell.run))
        .max(p50(&smr.cell.run));

    setups.report(&mut out)?;
    out.set(spec::NS_PER_MSG, best_ns / msgs as f64, SETUPS as u64);
    out.set(
        spec::WORK_PER_S,
        completed as f64 / (best_ns / 1e9),
        SETUPS as u64,
    );
    out.set(spec::RESPONSE_TICKS_P50, worst_p50 as f64, completed);
    out.set(
        spec::MSGS_PER_WORK,
        msgs as f64 / completed as f64,
        completed,
    );
    out.set(
        spec::PEAK_RSS_MB,
        machine::own_peak_rss_mb().ok_or("cannot read VmHWM")?,
        1,
    );
    if !args.trace {
        return Ok(out);
    }

    for (layer, run, best_ns) in [
        ("counters", &counter.cell.run, counter.best_ns),
        ("sharedmem", &sharedmem.cell.run, sharedmem.best_ns),
        ("vssmr", &smr.cell.run, smr.best_ns),
    ] {
        let n = run.counter("ops_completed");
        out.set(&format!("{layer}.op_p50_rounds"), p50(run) as f64, n);
        out.set(&format!("{layer}.op_p99_rounds"), p99(run) as f64, n);
        out.set(
            &format!("{layer}.cell_wall_s"),
            best_ns / 1e9,
            SETUPS as u64,
        );
    }

    // The checker's price: the same cell with histories minus without.
    let (bare_counter, bare_sharedmem) = (fold(bare_counter)?, fold(bare_sharedmem)?);
    out.set(
        "simnet.linearize.check_s.counter",
        (counter.best_ns - bare_counter.best_ns) / 1e9,
        SETUPS as u64,
    );
    out.set(
        "simnet.linearize.check_s.sharedmem",
        (sharedmem.best_ns - bare_sharedmem.best_ns) / 1e9,
        SETUPS as u64,
    );
    out.set(
        "simnet.linearize.ops_checked",
        (counter.ops("lin_ops_checked")
            + sharedmem.ops("lin_ops_checked")
            + smr.ops("lin_ops_checked")) as f64,
        1,
    );

    // Protocol progress, from the public accessors of the measured systems.
    let mut progress = ReconfigProgress::default();
    let (mut views, mut applied) = (0, 0);
    for (_, node) in smr.cell.sim.as_ref().expect("first repetition").processes() {
        progress.add(node.reconfig());
        views += node.views_installed();
        applied += node.commands_applied();
    }
    let (mut reads, mut writes, mut aborted, mut syncs) = (0, 0, 0, 0);
    for (_, node) in sharedmem
        .cell
        .sim
        .as_ref()
        .expect("first repetition")
        .processes()
    {
        progress.add(node.reconfig());
        reads += node.reads_committed();
        writes += node.writes_committed();
        aborted += node.ops_aborted();
        syncs += node.syncs_sent();
    }
    for (name, value) in [
        ("vssmr.views_installed", views),
        ("vssmr.commands_applied", applied),
        ("sharedmem.reads_committed", reads),
        ("sharedmem.writes_committed", writes),
        ("sharedmem.ops_aborted", aborted),
        ("sharedmem.syncs_sent", syncs),
    ] {
        out.set(name, value as f64, 1);
    }

    // The traced pass: the benchmark's own round loop over wrapped systems,
    // driving the same arrival stream through the per-process hooks. It is
    // an approximation of the runner (no histories, no probe window), so its
    // own figures are printed beside the runner's rather than in their
    // place; submitted-op counts must match the runner's exactly.
    let mut tracer = Tracer::default();
    let pass = tracer.open(0, format!("{}.traced_pass", spec::OPS));
    let mut counts = SimCounts::default();
    let traced = [
        traced_cell::<CounterNode>(
            args.seed,
            counter.cell.boot_rounds,
            window,
            &mut tracer,
            pass,
            &mut counts,
        )?,
        traced_cell::<SharedMemNode>(
            args.seed,
            sharedmem.cell.boot_rounds,
            window,
            &mut tracer,
            pass,
            &mut counts,
        )?,
        traced_cell::<SmrNode>(
            args.seed,
            smr.cell.boot_rounds,
            window,
            &mut tracer,
            pass,
            &mut counts,
        )?,
    ];
    tracer.close(pass);
    let runner = [&counter.cell.run, &sharedmem.cell.run, &smr.cell.run];
    for (t, r) in traced.iter().zip(runner) {
        if t.submitted != r.counter("ops_submitted") || t.rejected != r.counter("ops_rejected") {
            return Err(format!(
                "{}: traced pass submitted {}+{} ops, the runner {}+{}",
                t.stack,
                t.submitted,
                t.rejected,
                r.counter("ops_submitted"),
                r.counter("ops_rejected")
            ));
        }
        let lat = sorted(t.latencies.clone());
        out.note(format!(
            "traced pass (approximation of the runner) {:<9}: {} ops ok, p50 {} rounds, p99 {} rounds, {:.1} ns/msg over {} rounds (runner: p50 {}, p99 {})",
            t.stack,
            lat.len(),
            percentile(&lat, 50.0).unwrap_or(0.0),
            tail_percentile(&lat, 99.0).unwrap_or(0.0),
            t.wall_ns / t.msgs.max(1) as f64,
            t.rounds,
            p50(r),
            p99(r),
        ));
    }
    layer_metrics(&mut out, &tracer, &counts, &progress);
    let traced_wall: f64 = traced.iter().map(|t| t.wall_ns).sum();
    let traced_msgs: u64 = traced.iter().map(|t| t.msgs).sum();
    let bare_ns = bare_counter.best_ns + bare_sharedmem.best_ns;
    let bare_msgs = bare_counter.cell.msgs + bare_sharedmem.cell.msgs;
    // Overhead against the runner's cells without histories (smr's cell has
    // no checker to remove: its spec is not armed), per message because the
    // runner's cells run a probe window the traced loop does not.
    let untraced_per_msg = (bare_ns + smr.best_ns) / (bare_msgs + smr.cell.msgs) as f64;
    out.set(
        "trace.overhead_pct",
        (traced_wall / traced_msgs as f64 / untraced_per_msg - 1.0) * 100.0,
        traced_msgs,
    );
    finish_trace(&mut out, &tracer, pass, args)?;
    Ok(out)
}

struct TracedCell {
    stack: &'static str,
    submitted: u64,
    rejected: u64,
    latencies: Vec<f64>,
    wall_ns: f64,
    msgs: u64,
    rounds: u64,
}

/// The runner's loop, reduced to what the load needs, over a wrapped system:
/// apply the scenario's timer faults, draw arrivals, submit through the
/// per-process hook, step a traced round, claim completions; stop once the
/// window is over, every op is claimed and the system has settled.
fn traced_cell<T: TracedStack>(
    seed: u64,
    boot_rounds: u64,
    window: u64,
    tracer: &mut Tracer,
    pass: u64,
    counts: &mut SimCounts,
) -> Result<TracedCell, String> {
    let load_until = boot_rounds + window;
    let scenario = scenario(load_until, false);
    let quiet_after = scenario.last_fault_round().as_u64();
    let mut sim: Simulation<Timed<T>> = build_timed::<T>(&scenario, seed);
    for _ in 0..boot_rounds {
        Tracer::untraced_round(&mut sim);
    }
    let boot_msgs = sim.metrics().messages_sent();
    let cell = tracer.open(pass, format!("cell {}", T::NAME));
    let mut rng = SimRng::seed_from(seed ^ LOAD_SEED_SALT);
    let mut next_value = 0u64;
    let mut pending: BTreeMap<ProcessId, VecDeque<u64>> = BTreeMap::new();
    let mut result = TracedCell {
        stack: T::NAME,
        submitted: 0,
        rejected: 0,
        latencies: Vec::new(),
        wall_ns: 0.0,
        msgs: 0,
        rounds: 0,
    };
    let first_round = tracer.round_wall_ns.len();
    loop {
        let now = sim.now();
        for action in scenario.actions_at(now) {
            match action {
                FaultAction::SetTimer { victim, period } => {
                    sim.set_timer_period_override(victim, period)
                }
                other => return Err(format!("gray-lag scheduled an unexpected {other:?}")),
            }
        }
        if now.as_u64() < load_until {
            let actives = sim.active_ids();
            for _ in 0..ARRIVAL.draw(&mut rng, now.as_u64()) {
                let client = rng.next_u64() % CLIENTS;
                let via = actives[(client % actives.len() as u64) as usize];
                let value = next_value;
                next_value += 1;
                let node = sim.process_mut(via).expect("active ids name processes");
                if node.0.submit_local(client, value) {
                    result.submitted += 1;
                    pending.entry(via).or_default().push_back(now.as_u64());
                } else {
                    result.rejected += 1;
                }
            }
        }
        tracer.round(cell, &mut sim);
        result.rounds += 1;
        let now = sim.now().as_u64();
        for (via, queue) in pending.iter_mut() {
            while let Some(invoked) = queue.front().copied() {
                let node = sim.process_mut(*via).expect("pending ops sit at processes");
                let Some(ok) = node.0.complete_local() else {
                    break;
                };
                queue.pop_front();
                if !ok {
                    return Err(format!("{}: an op failed in the traced pass", T::NAME));
                }
                result
                    .latencies
                    .push(now.saturating_sub(invoked).max(1) as f64);
            }
        }
        pending.retain(|_, queue| !queue.is_empty());
        let settled = || {
            sim.active_processes().all(|(_, p)| p.0.settled())
                && tokens_agree(sim.active_processes().map(|(_, p)| p.0.settle_token()))
        };
        if now >= load_until && now > quiet_after && pending.is_empty() && settled() {
            break;
        }
        if result.rounds > ROUND_BUDGET {
            return Err(format!("{}: traced pass did not settle", T::NAME));
        }
    }
    tracer.close(cell);
    result.wall_ns = tracer.round_wall_ns[first_round..].iter().sum::<u64>() as f64;
    result.msgs = sim.metrics().messages_sent() - boot_msgs;
    counts.add(sim.metrics());
    Ok(result)
}
