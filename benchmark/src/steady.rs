//! `steady-n256`: closure at scale. 256 `ReconfigNode`s bootstrap from
//! `config = ⊥` (that is the set-up), then run steady rounds in which every
//! processor broadcasts pointer-equal sets to every other one: ~196 k cheap
//! messages per round, so the protocol handlers do little and `simnet`'s
//! scheduler, network, channels and payload arena do most of the work.

use std::time::Instant;

use reconfig::ReconfigNode;
use simnet::scenario::{find, ScenarioTarget};
use simnet::{Scenario, SchedulerMode, Simulation};

use crate::harness::{Outcome, RunArgs, SetupClock};
use crate::layers::{finish_trace, layer_metrics, ReconfigProgress, SimCounts};
use crate::stats::{fast_high, fast_low};
use crate::timed::{self, Tracer};
use crate::{machine, spec};

const N: usize = 256;
/// Measured rounds per second of `--seconds`: a round takes about a quarter
/// of a second on the sizing box.
const ROUNDS_PER_SECOND: u64 = 4;
/// Bootstrap must finish well inside this many rounds (it takes four).
const BOOTSTRAP_CAP: u64 = 64;
/// Set-ups per run (a bootstrap takes most of a second).
const SETUPS: usize = 3;

fn scenario() -> Scenario {
    find("quiescent", N).expect("the catalog has `quiescent`")
}

struct Ready {
    sim: Simulation<ReconfigNode>,
    bootstrap_rounds: u64,
}

/// Set-up: build the population and run it from `config = ⊥` until the
/// global convergence predicate holds. The first rounds also allocate every
/// channel and grow the payload arena, so none of that lands in the
/// measurement.
fn bootstrap(seed: u64) -> Result<Ready, String> {
    let mut sim = scenario().build_sim::<ReconfigNode>(seed, SchedulerMode::EventDriven);
    let bootstrap_rounds = sim.run_until(BOOTSTRAP_CAP, ReconfigNode::converged);
    if !ReconfigNode::converged(&sim) {
        return Err(format!(
            "n={N} did not converge from ⊥ in {BOOTSTRAP_CAP} rounds"
        ));
    }
    Ok(Ready {
        sim,
        bootstrap_rounds,
    })
}

/// Per-round wall and message count of the measured rounds.
struct Rounds {
    wall_ns: Vec<f64>,
    msgs: Vec<f64>,
}

impl Rounds {
    fn ns_per_msg(&self) -> Vec<f64> {
        self.wall_ns
            .iter()
            .zip(&self.msgs)
            .map(|(w, m)| w / m.max(1.0))
            .collect()
    }
}

fn check_closure(sim: &Simulation<ReconfigNode>) -> Result<(), String> {
    if !ReconfigNode::converged(sim) {
        return Err("closure violated: the system left the converged state".into());
    }
    let violations = ReconfigNode::invariant_violations(sim);
    if !violations.is_empty() {
        return Err(format!("invariant violations: {violations:?}"));
    }
    Ok(())
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let rounds = ROUNDS_PER_SECOND * args.seconds;
    let mut out = Outcome::default();
    out.note(format!(
        "{N} x ReconfigNode, catalog `quiescent`, event scheduler, bootstrap then {rounds} measured rounds"
    ));
    out.note(format!("injected link behaviour: {:?}", scenario().link()));

    // Keep one prepared system; an n = 256 system is ~70 MB and three alive
    // at once would triple the peak the memory metric reports.
    let mut setups = SetupClock::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        ready = Some(setups.time(|| bootstrap(args.seed))?);
    }
    let Ready {
        mut sim,
        bootstrap_rounds,
    } = ready.expect("SETUPS > 0");

    let mut measured = Rounds {
        wall_ns: Vec::new(),
        msgs: Vec::new(),
    };
    for _ in 0..rounds {
        let before = sim.metrics().messages_sent();
        let started = Instant::now();
        sim.step_round();
        measured.wall_ns.push(started.elapsed().as_nanos() as f64);
        measured
            .msgs
            .push((sim.metrics().messages_sent() - before) as f64);
    }
    check_closure(&sim)?;
    out.attempted = rounds;

    let ns_per_msg = measured.ns_per_msg();
    let total_msgs: f64 = measured.msgs.iter().sum();
    let per_s: Vec<f64> = measured.wall_ns.iter().map(|w| 1e9 / w).collect();
    setups.report(&mut out)?;
    out.set(
        spec::NS_PER_MSG,
        fast_low(&ns_per_msg).expect("rounds > 0"),
        rounds,
    );
    out.set(
        spec::WORK_PER_S,
        fast_high(&per_s).expect("rounds > 0"),
        rounds,
    );
    out.set(spec::RESPONSE_TICKS_P50, bootstrap_rounds as f64, 1);
    out.set(spec::MSGS_PER_WORK, total_msgs / rounds as f64, rounds);
    out.set(
        spec::PEAK_RSS_MB,
        machine::own_peak_rss_mb().ok_or("cannot read VmHWM")?,
        1,
    );
    if !args.trace {
        return Ok(out);
    }

    // The traced pass is the same execution again, through the wrapper.
    let untraced_msgs = sim.metrics().messages_sent();
    let untraced_digest = ReconfigNode::state_digest(&sim);
    drop(sim);
    let mut traced = timed::build_timed::<ReconfigNode>(&scenario(), args.seed);
    for _ in 0..bootstrap_rounds {
        Tracer::untraced_round(&mut traced);
    }
    let mut tracer = Tracer::default();
    let pass = tracer.open(0, format!("{}.traced_pass", spec::STEADY));
    let mut traced_msgs = Vec::new();
    for _ in 0..rounds {
        let before = traced.metrics().messages_sent();
        tracer.round(pass, &mut traced);
        traced_msgs.push((traced.metrics().messages_sent() - before) as f64);
    }
    tracer.close(pass);
    if traced.metrics().messages_sent() != untraced_msgs
        || timed::digest(&traced) != untraced_digest
    {
        return Err("the traced pass diverged from the untraced execution".into());
    }
    let mut counts = SimCounts::default();
    counts.add(traced.metrics());
    let mut progress = ReconfigProgress::default();
    for (_, node) in traced.processes() {
        progress.add(&node.0);
    }
    layer_metrics(&mut out, &tracer, &counts, &progress);
    let traced_rounds = Rounds {
        wall_ns: tracer.round_wall_ns.iter().map(|w| *w as f64).collect(),
        msgs: traced_msgs,
    };
    let traced_fast = fast_low(&traced_rounds.ns_per_msg()).expect("rounds > 0");
    let untraced_fast = fast_low(&ns_per_msg).expect("rounds > 0");
    out.set(
        "trace.overhead_pct",
        (traced_fast / untraced_fast - 1.0) * 100.0,
        rounds,
    );
    out.note(format!(
        "traced pass reproduced the untraced execution: {untraced_msgs} messages, digest {untraced_digest:016x}"
    ));
    finish_trace(&mut out, &tracer, pass, args)?;
    Ok(out)
}
