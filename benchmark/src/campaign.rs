//! `campaign-n8`: the chaos matrix. The full 14-scenario catalog × all four
//! stacks × n = 4..8 through the real `Campaign` → `run_scenario` →
//! `CampaignReport::render` path at `jobs = 1`. Hundreds of tiny systems
//! instead of one big one — the inverse of `steady-n256` — so what a cell
//! costs is the scenario runner's whole path (fault plans, load, probing,
//! digests), not the network. It is the only workload that injects every
//! fault class.

use std::time::Instant;

use counters::CounterNode;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::exec::{available_jobs, run_ordered, Job};
use simnet::scenario::{catalog, run_scenario, ScenarioTarget};
use simnet::{Campaign, CampaignReport, RunRecord, Scenario, SchedulerMode};
use vssmr::SmrNode;

use crate::harness::{Outcome, RunArgs, SetupClock};
use crate::stats::{percentile, sorted, tail_percentile};
use crate::timed::{now_ns, Tracer};
use crate::{machine, spec, write_trace};

/// Population sizes of the matrix (never cut: shrinking n changes which
/// layer dominates; a shorter run cuts repetitions instead).
const NS: [usize; 5] = [4, 5, 6, 7, 8];

/// How often the matrix is set up and run: one pass over its 280 cells
/// takes about 1.6 s on the sizing box.
fn repeats(seconds: u64) -> usize {
    (seconds as usize * 3 / 5).max(2)
}

/// The matrix for one seed: every catalog scenario at every n.
struct Matrix {
    scenarios: Vec<Vec<Scenario>>,
    seed: u64,
}

impl Matrix {
    fn campaign(&self, jobs: usize) -> Campaign {
        Campaign::new("catalog-matrix")
            .with_seeds([self.seed])
            .with_modes([SchedulerMode::EventDriven])
            .with_jobs(jobs)
            .with_timings(true)
    }

    /// Every cell as a job, all four stacks interleaved into one list — the
    /// shape `simctl run all --node all` dispatches.
    fn cells(&self, scenarios: &[Vec<Scenario>], jobs: usize) -> Vec<Job<'static, RunRecord>> {
        let campaign = self.campaign(jobs);
        let mut cells = Vec::new();
        for per_n in scenarios {
            cells.extend(campaign.cell_jobs::<ReconfigNode>(per_n));
            cells.extend(campaign.cell_jobs::<CounterNode>(per_n));
            cells.extend(campaign.cell_jobs::<SmrNode>(per_n));
            cells.extend(campaign.cell_jobs::<SharedMemNode>(per_n));
        }
        cells
    }

    /// One pass over the matrix: the report, and the wall of the whole pass
    /// including rendering it.
    fn pass(&self, jobs: usize) -> Pass {
        let started = Instant::now();
        let mut report = CampaignReport::new("catalog-matrix", vec![self.seed]);
        report.runs = run_ordered(self.cells(&self.scenarios, jobs), jobs);
        let render_started = Instant::now();
        std::hint::black_box(report.render());
        Pass {
            render_ns: render_started.elapsed().as_nanos() as f64,
            wall_ns: started.elapsed().as_nanos() as f64,
            report,
        }
    }
}

struct Pass {
    report: CampaignReport,
    wall_ns: f64,
    render_ns: f64,
}

impl Pass {
    fn cell_ns(&self) -> Vec<f64> {
        self.report
            .runs
            .iter()
            .map(|r| r.wall_ms.expect("timings are on") * 1e6)
            .collect()
    }

    /// The report as the byte-identity contract sees it: without the
    /// machine-dependent timing fields.
    fn deterministic_render(&self) -> String {
        let mut report = self.report.clone();
        report.wall_ms_total = None;
        for run in &mut report.runs {
            run.wall_ms = None;
        }
        report.render()
    }
}

/// Set-up: generate the scenario matrix and run its fault-free row once
/// (`quiescent` on every stack at every n), which warms the allocator and
/// the per-thread intern tables the cells share.
fn prepare(seed: u64) -> Result<Matrix, String> {
    let matrix = Matrix {
        scenarios: NS.iter().map(|&n| catalog(n)).collect(),
        seed,
    };
    let fault_free: Vec<Vec<Scenario>> = matrix
        .scenarios
        .iter()
        .map(|per_n| {
            per_n
                .iter()
                .filter(|s| s.plans().is_empty())
                .cloned()
                .collect()
        })
        .collect();
    let warm = run_ordered(matrix.cells(&fault_free, 1), 1);
    if warm.is_empty() || !warm.iter().all(RunRecord::passed) {
        return Err("the fault-free warm-up row failed".into());
    }
    Ok(matrix)
}

fn check_passed(report: &CampaignReport) -> Result<(), String> {
    match report.runs.iter().find(|r| !r.passed()) {
        None => Ok(()),
        Some(bad) => Err(format!(
            "cell {}/{}/n={}/seed={} failed: converged={} violations={:?}",
            bad.node, bad.scenario, bad.n, bad.seed, bad.converged, bad.invariant_violations
        )),
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let repeats = repeats(args.seconds);
    let jobs = available_jobs();
    let mut out = Outcome::default();

    // One set-up per pass, so the set-ups sample the whole run.
    let mut setups = SetupClock::default();
    let mut passes = Vec::new();
    let mut matrix = setups.time(|| prepare(args.seed))?;
    for repeat in 0..repeats {
        if repeat > 0 {
            matrix = setups.time(|| prepare(args.seed))?;
        }
        passes.push(matrix.pass(1));
    }
    let first = &passes[0];
    let cells = first.report.runs.len();
    out.note(format!(
        "{} scenarios x 4 stacks x n={NS:?} x seed {} = {cells} cells, repeated {repeats}x at jobs=1, once at jobs={jobs}",
        matrix.scenarios[0].len(),
        args.seed
    ));
    let link = matrix.scenarios[0][0].link();
    out.note(format!(
        "injected link behaviour outside fault windows: {link:?}"
    ));
    check_passed(&first.report)?;
    let reference = first.deterministic_render();
    if passes.iter().any(|p| p.deterministic_render() != reference) {
        return Err("the same matrix rendered differently on a repeated pass".into());
    }
    // The byte-identity contract of the parallel driver, checked on every
    // run. With one core there is no second worker to disagree with.
    let parallel: Vec<Pass> = if jobs > 1 {
        (0..if args.trace { 2 } else { 1 })
            .map(|_| matrix.pass(jobs))
            .collect()
    } else {
        Vec::new()
    };
    if parallel
        .iter()
        .any(|p| p.deterministic_render() != reference)
    {
        return Err(format!(
            "the report at jobs={jobs} is not byte-identical to jobs=1"
        ));
    }

    // Identical work repeated: take each cell at its fastest repetition, and
    // the fastest of what surrounds the cells (job set-up, dispatch, render).
    let per_pass: Vec<Vec<f64>> = passes.iter().map(Pass::cell_ns).collect();
    let best_cell: Vec<f64> = (0..cells)
        .map(|i| per_pass.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let best_around = passes
        .iter()
        .zip(&per_pass)
        .map(|(p, cells)| p.wall_ns - cells.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    let best_ns = best_cell.iter().sum::<f64>() + best_around;
    let runs = &first.report.runs;
    let msgs: u64 = runs.iter().map(|r| r.messages_sent).sum();
    let faulted: Vec<f64> = runs
        .iter()
        .filter(|r| r.scenario != "quiescent")
        .filter_map(|r| r.rounds_to_convergence)
        .map(|r| r as f64)
        .collect();
    let faulted = sorted(faulted);
    out.attempted = (cells * (repeats + parallel.len())) as u64;

    setups.report(&mut out)?;
    out.set(spec::NS_PER_MSG, best_ns / msgs as f64, repeats as u64);
    out.set(
        spec::WORK_PER_S,
        cells as f64 / (best_ns / 1e9),
        repeats as u64,
    );
    out.set(
        spec::RESPONSE_TICKS_P50,
        percentile(&faulted, 50.0).ok_or("no faulted cell converged")?,
        faulted.len() as u64,
    );
    out.set(
        spec::MSGS_PER_WORK,
        msgs as f64 / cells as f64,
        cells as u64,
    );
    out.set(
        spec::PEAK_RSS_MB,
        machine::own_peak_rss_mb().ok_or("cannot read VmHWM")?,
        1,
    );
    if !args.trace {
        return Ok(out);
    }

    // Traced pass: the benchmark's own loop over the same cells, one span
    // per public phase of a cell.
    let mut tracer = Tracer::default();
    let pass = tracer.open(0, format!("{}.traced_pass", spec::CAMPAIGN));
    let mut phases = Phases::default();
    for per_n in &matrix.scenarios {
        trace_cells::<ReconfigNode>(per_n, args.seed, &mut tracer, pass, &mut phases)?;
        trace_cells::<CounterNode>(per_n, args.seed, &mut tracer, pass, &mut phases)?;
        trace_cells::<SmrNode>(per_n, args.seed, &mut tracer, pass, &mut phases)?;
        trace_cells::<SharedMemNode>(per_n, args.seed, &mut tracer, pass, &mut phases)?;
    }
    let render_start = now_ns();
    std::hint::black_box(first.report.render());
    let render_end = now_ns();
    tracer.span(
        pass,
        "simnet.report.render",
        render_start,
        render_end,
        render_end - render_start,
        1,
    );
    tracer.close(pass);
    if phases.digests != runs.iter().map(|r| r.state_digest).collect::<Vec<_>>() {
        return Err("the traced cells ended in different states than the campaign's".into());
    }

    let traced_cells = phases.build_ns.len() as f64;
    let build: f64 = phases.build_ns.iter().sum();
    let run: f64 = phases.run_ns.iter().sum();
    out.set(
        "simnet.scenario.build_ms_per_cell",
        build / traced_cells / 1e6,
        cells as u64,
    );
    out.set(
        "simnet.scenario.run_ms_per_cell",
        run / traced_cells / 1e6,
        cells as u64,
    );
    let best_render = passes
        .iter()
        .map(|p| p.render_ns)
        .fold(f64::INFINITY, f64::min);
    out.set("simnet.report.render_ms", best_render / 1e6, repeats as u64);
    let cell_ms = sorted(best_cell.iter().map(|ns| ns / 1e6).collect());
    out.set(
        "simnet.campaign.cell_wall_ms_p50",
        percentile(&cell_ms, 50.0).expect("cells > 0"),
        cells as u64,
    );
    // 280 cells carry a p95 (14 samples beyond it), not a p99.
    out.set(
        "simnet.campaign.cell_wall_ms_p95",
        tail_percentile(&cell_ms, 95.0).unwrap_or(0.0),
        cells as u64,
    );
    let total_cell: f64 = best_cell.iter().sum();
    for (metric, node) in [
        ("simnet.campaign.wall_share.reconfig", ReconfigNode::NAME),
        ("simnet.campaign.wall_share.counter", CounterNode::NAME),
        ("simnet.campaign.wall_share.smr", SmrNode::NAME),
        ("simnet.campaign.wall_share.sharedmem", SharedMemNode::NAME),
    ] {
        let wall: f64 = runs
            .iter()
            .zip(&best_cell)
            .filter(|(r, _)| r.node == node)
            .map(|(_, ns)| ns)
            .sum();
        out.set(metric, wall / total_cell * 100.0, cells as u64);
    }
    out.set(
        "simnet.campaign.converge_rounds_p50",
        percentile(&faulted, 50.0).expect("checked above"),
        faulted.len() as u64,
    );
    out.set(
        "simnet.campaign.converge_rounds_max",
        *faulted.last().expect("checked above"),
        faulted.len() as u64,
    );
    let best_serial = passes
        .iter()
        .map(|p| p.wall_ns)
        .fold(f64::INFINITY, f64::min);
    let best_parallel = parallel
        .iter()
        .map(|p| p.wall_ns)
        .fold(f64::INFINITY, f64::min);
    // With one core the parallel driver is the serial one: speed-up 1, and
    // `simnet.exec.jobs` says why.
    let speedup = if parallel.is_empty() {
        1.0
    } else {
        best_serial / best_parallel
    };
    out.set(
        "simnet.exec.parallel_speedup",
        speedup,
        parallel.len() as u64,
    );
    out.set("simnet.exec.jobs", jobs as f64, 1);
    out.set("simnet.messages_sent", msgs as f64, 1);
    for (name, total) in [
        (
            "simnet.messages_delivered",
            runs.iter().map(|r| r.messages_delivered).sum::<u64>(),
        ),
        (
            "simnet.messages_lost",
            runs.iter().map(|r| r.messages_lost).sum(),
        ),
        (
            "simnet.timer_steps",
            runs.iter().map(|r| r.timer_steps).sum(),
        ),
    ] {
        out.set(name, total as f64, 1);
    }
    out.set(
        "trace.overhead_pct",
        ((build + run) / total_cell - 1.0) * 100.0,
        cells as u64,
    );
    let pass_span = &tracer.spans[pass as usize - 1];
    let pass_wall = (pass_span.end_ns - pass_span.start_ns) as f64;
    let attributed = build + run + (render_end - render_start) as f64;
    out.set(
        "trace.unattributed_pct",
        (1.0 - attributed / pass_wall) * 100.0,
        cells as u64,
    );
    out.set("trace.spans", tracer.spans.len() as f64, 1);
    for (name, ns) in [
        ("simnet.scenario.build", build),
        ("simnet.scenario.run", run),
        ("simnet.report.render", (render_end - render_start) as f64),
    ] {
        out.note(format!(
            "share of traced time: {name:<28} {:6.2} %",
            ns / pass_wall * 100.0
        ));
    }
    out.note(format!("report: {} bytes rendered", reference.len()));
    let path = write_trace(args, &tracer.render())?;
    out.note(format!("spans written to {}", path.display()));
    Ok(out)
}

/// Per-cell phase times of the traced pass, in cell order.
#[derive(Default)]
struct Phases {
    build_ns: Vec<f64>,
    run_ns: Vec<f64>,
    digests: Vec<u64>,
}

/// What `Campaign::run_cell` does for one stack's scenarios, with a span
/// around each public call.
fn trace_cells<T: ScenarioTarget>(
    scenarios: &[Scenario],
    seed: u64,
    tracer: &mut Tracer,
    pass: u64,
    phases: &mut Phases,
) -> Result<(), String> {
    for scenario in scenarios {
        let cell = tracer.open(
            pass,
            format!(
                "cell {}/{}/n={}",
                T::NAME,
                scenario.name(),
                scenario.initial_size()
            ),
        );
        let start = now_ns();
        let mut sim = scenario.build_sim::<T>(seed, SchedulerMode::EventDriven);
        let built = now_ns();
        let run = run_scenario(scenario, &mut sim);
        let end = now_ns();
        tracer.span(
            cell,
            "simnet.scenario.build",
            start,
            built,
            built - start,
            1,
        );
        tracer.span(cell, "simnet.scenario.run", built, end, end - built, 1);
        tracer.close(cell);
        if !run.converged || !run.invariant_violations.is_empty() {
            return Err(format!(
                "traced cell {}/{} failed",
                T::NAME,
                scenario.name()
            ));
        }
        phases.build_ns.push((built - start) as f64);
        phases.run_ns.push((end - built) as f64);
        phases.digests.push(run.state_digest);
    }
    Ok(())
}
