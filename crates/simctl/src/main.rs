//! `simctl` — the chaos-campaign command line.
//!
//! Runs named fault scenarios (see `simnet::scenario::catalog`) against the
//! four composite nodes of the workspace and writes deterministic JSON
//! reports; the CI `chaos` matrix is a thin wrapper around `simctl run`.
//!
//! ```text
//! simctl list [--n N] [--json]             # the scenario catalog
//! simctl run <scenario|all|NAME> --node <reconfig|counter|smr|sharedmem|all>
//!            [--n N] [--seeds 1,2] [--jobs N]
//!            [--sample-scenarios K] [--cell-budget-ms MS]
//!            [--plan kind=spec]... [--rounds R] [--workload W]
//!            [--clients N --arrival poisson:RATE|burst:SIZE:PERIOD [--op-timeout R]]
//!            [--out FILE] [--timings] [--name NAME]
//! simctl smoke [--n N] [--jobs N] [--out FILE]  # the CI preset (3 scenarios × 4 nodes)
//! simctl diff <baseline.json> <current.json>   # PR-to-PR report comparison
//! simctl deploy --node KIND [--n N] [--tick-ms MS] [--cluster F]  # boot a live cluster
//! simctl drive <scenario> [--cluster F] [--clients N --arrival SPEC]
//!            [--seed S] [--timeout-secs T] [--out FILE]  # live faults + convergence
//! simctl kill <id> [--cluster F]               # kill -9 one live node
//! simctl down [--cluster F]                    # tear the live cluster down
//! simctl slo --slo p99=ROUNDS[,p50=R,p999=R] --scenario A,B,C --node NODE
//!            --clients N --arrival SPEC [--op-timeout R] [--n N] [--seeds 1,2]
//!            [--jobs N] [--cell-budget-ms MS] [--out F]
//! ```
//!
//! `--jobs N` sets the parallel campaign driver's worker-thread budget
//! (default: the machine's available parallelism; `--jobs 1` forces the
//! serial loop). Reports are **byte-identical at any jobs count** — cells
//! derive their randomness from their own seeds and are reassembled in
//! enumeration order — so `--jobs` trades wall time only, never output.
//! `simctl diff` accepts the flag too (matrix scripts pass one flag set to
//! every subcommand) but ignores it: diffing compares reports, it never
//! runs cells.
//!
//! `--sample-scenarios K` keeps a deterministic K-subset of the requested
//! scenario list: indices are drawn by a Fisher–Yates shuffle seeded from
//! the campaign's **first seed** and then restored to catalog order, so a
//! sampled report is a strict subsequence of the full matrix — two sampled
//! runs of the same (K, seed) diff clean, and each sampled cell is
//! byte-identical to its cell in an unsampled report. `--cell-budget-ms MS`
//! arms a per-cell wall budget: a cell whose wall time exceeds the budget
//! fails with its own `BUDGET-OVERRUN` outcome (distinct from a protocol
//! failure — the run itself still converged), letting large-`n` CI tiers
//! fail fast on a performance cliff instead of timing out the whole job.
//! Both wall-clock fields (`wall_ms`, `budget_overrun`) are excluded from
//! `simctl diff`, keeping the determinism contract machine-independent.
//!
//! `--clients N` attaches an open-loop client population (`simnet::load`,
//! see `docs/WORKLOADS.md`) to every requested scenario: N logical clients
//! multiplexed over the active processors, submitting keyed operations
//! under the `--arrival` process (default `poisson:4` ops/round) inside the
//! scenario's workload window (`--workload` widens it). The run's report
//! gains the op-latency/goodput counter columns (p50/p99/p99.9 in rounds —
//! byte-deterministic and diffable, unlike wall-clock); `--op-timeout R`
//! additionally counts ops unanswered for R rounds as timeouts.
//! `simctl slo --slo p99=R` runs the same loaded matrix, prints a
//! per-cell markdown latency table on stdout (ready for CI step
//! summaries), and fails when any cell's latency percentile exceeds its
//! SLO bound in rounds. Round counts are deterministic, so the gate needs
//! no baseline.
//!
//! `--plan` composes ad-hoc fault plans onto the named scenario (or onto a
//! fresh, empty scenario when the name is not in the catalog) without
//! recompiling the catalog — the CLI face of the open `FaultPlan` API. The
//! grammar is `simnet::plan::PLAN_KINDS`; one value may hold a whole
//! schedule separated by whitespace, and repeated flags compose.
//! `simctl list` prints every catalog scenario's schedule in that grammar.
//!
//! `simctl diff` compares two campaign reports cell by cell — cells are
//! keyed by (node, scenario, seed, n) — and prints every divergence, most
//! prominently rounds-to-convergence and message-cost regressions. It exits
//! 0 only when the reports are equivalent (campaign names and opt-in wall
//! times are ignored), so CI can assert both directions: identical inputs
//! diff clean, genuinely different executions do not.
//!
//! Determinism contract: without `--timings`, `simctl run <scenario> --seeds S`
//! produces byte-identical reports across repeated runs and at any
//! `--jobs` count. Debug builds additionally check, every round of every
//! cell, that the scheduler's run queue visits exactly the processes a scan
//! over all of them finds due. Exit status is 0 only when every run
//! converged and no safety invariant was violated.

use std::process::ExitCode;

mod live;

use counters::CounterNode;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::plan::{apply_spec, PLAN_KINDS};
use simnet::scenario::{catalog, ScenarioTarget};
use simnet::{Campaign, CampaignReport, Json, Scenario};
use vssmr::SmrNode;

/// All node types `simctl --node` accepts.
const NODES: [&str; 4] = ["reconfig", "counter", "smr", "sharedmem"];

/// The CI smoke preset: scenarios every node type must survive on every PR.
const SMOKE_SCENARIOS: [&str; 3] = ["crash-minority", "partition-heal", "state-blast"];

/// Default population for CLI runs; small enough for CI, large enough for
/// real quorums, partitions with two non-trivial sides, and a minority worth
/// crashing.
const DEFAULT_N: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(passed) => {
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("simctl: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    let grammars: Vec<&str> = PLAN_KINDS.iter().map(|row| row.grammar).collect();
    "usage:\n  \
     simctl list [--n N] [--json]\n  \
     simctl run <scenario|all|NAME> --node <reconfig|counter|smr|sharedmem|all> \
     [--n N] [--seeds 1,2] [--jobs N] \
     [--sample-scenarios K] [--cell-budget-ms MS] \
     [--plan kind=spec]... [--rounds R] [--workload W] \
     [--clients N --arrival SPEC [--op-timeout R]] [--check-histories] \
     [--out FILE] [--timings] [--name NAME]\n  \
     simctl smoke [--n N] [--jobs N] [--sample-scenarios K] [--cell-budget-ms MS] [--out FILE]\n  \
     simctl diff <baseline.json> <current.json> [--jobs N]\n  \
     simctl slo --slo p99=ROUNDS[,p50=R,p999=R] --scenario A,B,C --node NODE \
     --clients N --arrival SPEC [--op-timeout R] [--n N] [--seeds 1,2] \
     [--jobs N] [--cell-budget-ms MS] [--out FILE]\n  \
     simctl deploy --node <reconfig|counter|smr|sharedmem> [--n N] [--tick-ms MS] \
     [--cluster FILE]\n  \
     simctl drive <scenario> [--cluster FILE] [--clients N --arrival SPEC] [--seed S] \
     [--timeout-secs T] [--name NAME] [--out FILE]\n  \
     simctl kill <id> [--cluster FILE]\n  \
     simctl down [--cluster FILE]\n\n\
     deploy boots an N-process localhost cluster of real OS processes (one per \
     protocol process) and writes the cluster file; drive replays a live-capable \
     catalog scenario against it — kill -9 for crashes, fresh-id spawns for joins, \
     control-plane timer retuning — and renders a live RunRecord report \
     (see `simctl list --json` → live_capable, and docs/LIVE.md)\n\n\
     --clients N: attach an open-loop population of N logical clients\n\
     --arrival poisson:RATE | burst:SIZE:PERIOD: arrivals per round (default poisson:4)\n\
     --op-timeout R: count ops unanswered for R rounds as timeouts (0 disarms)\n\
     --check-histories: record op histories, check linearizability against the \
     node's sequential spec, and enforce stays-converged (attaches a default \
     200-client poisson:1 population when --clients is absent)\n\
     --slo p50|p99|p999=ROUNDS,...: per-percentile op-latency bounds, in rounds\n\n\
     --jobs N: worker threads for the cell matrix (default: available \
     parallelism; 1 = serial; reports are byte-identical at any N)\n\
     --sample-scenarios K: run a deterministic K-subset of the scenario list \
     (Fisher-Yates seeded by the first campaign seed, catalog order kept)\n\
     --cell-budget-ms MS: per-cell wall budget; an overrun is its own failed \
     outcome (BUDGET-OVERRUN), 0 disarms\n\n\
     --plan specs (ids joined with '+', tokens separated by whitespace):\n    "
        .to_string()
        + &grammars.join("\n    ")
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("slo") => cmd_slo(&args[1..]),
        Some("deploy") => live::cmd_deploy(&args[1..]),
        Some("drive") => live::cmd_drive(&args[1..]),
        Some("kill") => live::cmd_kill(&args[1..]),
        Some("down") => live::cmd_down(&args[1..]),
        // The hidden per-process entry point `simctl deploy` re-enters the
        // binary through.
        Some("node") => live::cmd_node(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".to_string()),
    }
}

/// A tiny flag parser: positional arguments plus `--flag value` /
/// `--switch` pairs.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                if switches.contains(&name) {
                    pairs.push((name.to_string(), None));
                } else if value_flags.contains(&name) {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), Some(value.clone())));
                    i += 1;
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                positional.push(arg.clone());
            }
            i += 1;
        }
        Ok(Flags { positional, pairs })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Every value given for a repeatable flag, in order.
    fn values(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn switch(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == name)
    }
}

fn parse_n(flags: &Flags) -> Result<usize, String> {
    match flags.value("n") {
        None => Ok(DEFAULT_N),
        Some(v) => {
            let n: usize = v.parse().map_err(|_| format!("bad --n value `{v}`"))?;
            if n < 2 {
                return Err("--n must be at least 2".to_string());
            }
            Ok(n)
        }
    }
}

/// Parses `--jobs`: `None` means "use the default" (available parallelism),
/// and an explicit `0` spells the same default.
fn parse_jobs(flags: &Flags) -> Result<Option<usize>, String> {
    match flags.value("jobs") {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(|jobs| (jobs > 0).then_some(jobs))
            .map_err(|_| format!("bad --jobs value `{v}`")),
    }
}

/// Applies a parsed `--jobs` value to a campaign.
fn with_jobs(campaign: Campaign, jobs: Option<usize>) -> Campaign {
    match jobs {
        Some(jobs) => campaign.with_jobs(jobs),
        None => campaign,
    }
}

/// Parses `--cell-budget-ms`. Absence (or an explicit `0`) leaves budgets
/// disarmed, matching `Campaign::with_cell_budget_ms`.
fn parse_cell_budget(flags: &Flags) -> Result<f64, String> {
    match flags.value("cell-budget-ms") {
        None => Ok(0.0),
        Some(v) => {
            let ms: f64 = v
                .parse()
                .map_err(|_| format!("bad --cell-budget-ms value `{v}`"))?;
            if !ms.is_finite() || ms < 0.0 {
                return Err("--cell-budget-ms must be a non-negative number".to_string());
            }
            Ok(ms)
        }
    }
}

/// Applies `--sample-scenarios K`: keeps a deterministic K-subset of the
/// scenario list, drawn by a Fisher–Yates shuffle seeded from the campaign's
/// first seed and restored to catalog order — so a sampled report is a
/// strict subsequence of the full matrix and `simctl diff` can compare two
/// sampled reports of the same (K, seed) cell for cell.
fn apply_sampling(
    flags: &Flags,
    scenarios: Vec<Scenario>,
    seed: u64,
) -> Result<Vec<Scenario>, String> {
    match flags.value("sample-scenarios") {
        None => Ok(scenarios),
        Some(v) => {
            let k: usize = v
                .parse()
                .map_err(|_| format!("bad --sample-scenarios value `{v}`"))?;
            if k == 0 {
                return Err("--sample-scenarios must be at least 1".to_string());
            }
            Ok(simnet::scenario::sample_scenarios(scenarios, k, seed))
        }
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample (`p` in 0..=100).
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

fn parse_seeds(flags: &Flags) -> Result<Vec<u64>, String> {
    let raw = flags.value("seeds").or(flags.value("seed")).unwrap_or("1");
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad seed `{s}`"))
        })
        .collect()
}

/// The open-loop client population requested on the command line, if any:
/// `--clients N` arms it, `--arrival` picks the process (default
/// `poisson:4` ops/round) and `--op-timeout` the timeout in rounds.
fn parse_load(flags: &Flags) -> Result<Option<simnet::LoadProfile>, String> {
    let Some(clients) = flags.value("clients") else {
        if flags.value("arrival").is_some() || flags.value("op-timeout").is_some() {
            return Err("--arrival/--op-timeout require --clients".to_string());
        }
        return Ok(None);
    };
    let clients: u64 = clients
        .parse()
        .map_err(|_| "bad --clients value".to_string())?;
    if clients == 0 {
        return Err("--clients must be at least 1".to_string());
    }
    let arrival = simnet::Arrival::parse(flags.value("arrival").unwrap_or("poisson:4"))?;
    let op_timeout: u64 = flags
        .value("op-timeout")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --op-timeout value".to_string())?;
    Ok(Some(
        simnet::LoadProfile::new(clients, arrival).with_op_timeout(op_timeout),
    ))
}

/// Parses `--slo p50|p99|p999=ROUNDS[,...]` into (counter key, bound) pairs.
fn parse_slo(spec: &str) -> Result<Vec<(&'static str, u64)>, String> {
    spec.split(',')
        .map(|part| {
            let (pct, bound) = part.split_once('=').ok_or_else(|| {
                format!("bad --slo entry `{part}` (expected p50|p99|p999=ROUNDS)")
            })?;
            let key = match pct.trim() {
                "p50" => "op_latency_p50_rounds",
                "p99" => "op_latency_p99_rounds",
                "p999" | "p99.9" => "op_latency_p999_rounds",
                other => {
                    return Err(format!("bad --slo percentile `{other}` (p50|p99|p999)"));
                }
            };
            let bound: u64 = bound
                .trim()
                .parse()
                .map_err(|_| format!("bad --slo bound in `{part}`"))?;
            Ok((key, bound))
        })
        .collect()
}

/// The machine-readable catalog document (`simctl list --json`). Each
/// scenario carries its registered counter keys (the sorted union of its
/// plans' `FaultPlan::counter_keys()`) — exactly the `counters` object keys
/// a campaign report of that scenario will contain, so the cross-PR
/// `chaos-diff` job can detect counter-schema drift from the catalog alone,
/// without running a campaign.
fn catalog_json(n: usize) -> Json {
    Json::obj().field("n", n).field(
        "scenarios",
        Json::Arr(
            catalog(n)
                .iter()
                .map(|s| {
                    let mut counter_keys: Vec<&str> =
                        s.plans().iter().flat_map(|p| p.counter_keys()).collect();
                    counter_keys.sort_unstable();
                    counter_keys.dedup();
                    Json::obj()
                        .field("name", s.name())
                        .field("description", s.description())
                        .field("rounds", s.rounds())
                        .field("workload_rounds", s.workload_rounds())
                        .field("live_capable", s.live_capable())
                        .field(
                            "counters",
                            Json::Arr(
                                counter_keys
                                    .into_iter()
                                    .map(|k| Json::Str(k.to_string()))
                                    .collect(),
                            ),
                        )
                        .field(
                            "plans",
                            Json::Arr(
                                s.plans()
                                    .iter()
                                    .map(|p| {
                                        Json::obj()
                                            .field("kind", p.kind())
                                            .field("events", p.events())
                                    })
                                    .collect(),
                            ),
                        )
                })
                .collect(),
        ),
    )
}

fn cmd_list(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["n"], &["json"])?;
    let n = parse_n(&flags)?;
    if flags.switch("json") {
        print!("{}", catalog_json(n).render());
        return Ok(true);
    }
    println!("scenario catalog (n = {n}):");
    for s in catalog(n) {
        let plans = match s.render_schedule() {
            schedule if schedule.is_empty() => "none".to_string(),
            schedule => schedule,
        };
        println!(
            "  {:<16} rounds≤{:<5} workload<{:<4} faults: {plans} — {}",
            s.name(),
            s.rounds(),
            s.workload_rounds(),
            s.description(),
        );
    }
    Ok(true)
}

fn resolve_scenarios(names: &[String], n: usize) -> Result<Vec<Scenario>, String> {
    if names.is_empty() {
        return Err("missing scenario name (or `all`)".to_string());
    }
    if names.len() == 1 && names[0] == "all" {
        return Ok(catalog(n));
    }
    names
        .iter()
        .map(|name| {
            simnet::scenario::find(name, n)
                .ok_or_else(|| format!("unknown scenario `{name}` (try `simctl list`)"))
        })
        .collect()
}

fn resolve_nodes(flag: Option<&str>) -> Result<Vec<&'static str>, String> {
    match flag {
        None => Err("missing --node (reconfig|counter|smr|sharedmem|all)".to_string()),
        Some("all") => Ok(NODES.to_vec()),
        Some(name) => NODES
            .iter()
            .find(|n| **n == name)
            .map(|n| vec![*n])
            .ok_or_else(|| format!("unknown node type `{name}`")),
    }
}

/// Runs the node × scenario × seed matrix. The *whole* matrix — node axis
/// included — is dispatched to one `simnet::exec` pool in node-major
/// enumeration order, so even a one-seed `--node all` tier (four cells)
/// parallelizes; reassembly keeps the record order identical to a per-node
/// loop, hence byte-identical reports at any jobs count.
fn run_matrix(
    campaign: &Campaign,
    nodes: &[&str],
    scenarios: &[Scenario],
) -> Result<CampaignReport, String> {
    let mut report = CampaignReport::new(campaign.name(), campaign.seeds().to_vec());
    let started = std::time::Instant::now();
    let mut cells = Vec::new();
    for node in nodes {
        cells.extend(match *node {
            "reconfig" => campaign.cell_jobs::<ReconfigNode>(scenarios),
            "counter" => campaign.cell_jobs::<CounterNode>(scenarios),
            "smr" => campaign.cell_jobs::<SmrNode>(scenarios),
            "sharedmem" => campaign.cell_jobs::<SharedMemNode>(scenarios),
            other => return Err(format!("unknown node type `{other}`")),
        });
    }
    report.runs = simnet::exec::run_ordered(cells, campaign.jobs());
    if campaign.timings() {
        report.wall_ms_total = Some(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(report)
}

fn emit(report: &CampaignReport, out: Option<&str>) -> Result<(), String> {
    let rendered = report.render();
    match out {
        None => print!("{rendered}"),
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    for run in &report.runs {
        let status = if run.passed() {
            "ok"
        } else if !run.converged {
            "NO-CONVERGENCE"
        } else if run.budget_overrun == Some(true) {
            "BUDGET-OVERRUN"
        } else {
            "INVARIANT-VIOLATION"
        };
        // Armed history runs carry a linearizability verdict column.
        let lin = match run.counters.get("lin_result") {
            None => "",
            Some(0) => " lin=ok",
            Some(2) => " lin=budget",
            Some(_) => " lin=VIOLATION",
        };
        eprintln!(
            "  [{status}] {}/{} seed={} rounds={} msgs={}{lin}",
            run.node, run.scenario, run.seed, run.rounds_run, run.messages_sent
        );
    }
    // With `--timings` armed, summarize the per-cell wall-time distribution
    // — the numbers a `--cell-budget-ms` value should be sized against.
    let mut walls: Vec<f64> = report.runs.iter().filter_map(|r| r.wall_ms).collect();
    if !walls.is_empty() {
        walls.sort_by(f64::total_cmp);
        eprintln!(
            "  wall_ms per cell: p50={:.1} p99={:.1} max={:.1} ({} cells)",
            percentile(&walls, 50.0).unwrap(),
            percentile(&walls, 99.0).unwrap(),
            walls.last().unwrap(),
            walls.len(),
        );
    }
    eprintln!(
        "{}: {}/{} runs passed",
        report.name,
        report.runs.iter().filter(|r| r.passed()).count(),
        report.runs.len()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &[
            "node",
            "n",
            "seed",
            "seeds",
            "jobs",
            "out",
            "name",
            "plan",
            "rounds",
            "workload",
            "clients",
            "arrival",
            "op-timeout",
            "sample-scenarios",
            "cell-budget-ms",
        ],
        &["timings", "check-histories"],
    )?;
    let n = parse_n(&flags)?;
    let plan_specs = flags.values("plan");
    let mut scenarios = if !plan_specs.is_empty() && flags.positional.len() == 1 {
        // Ad-hoc mode: compose plans onto the named catalog scenario, or
        // onto a fresh empty scenario when the name is not in the catalog.
        let name = &flags.positional[0];
        if name == "all" {
            return Err(
                "--plan composes onto a single scenario; name one (catalog or fresh), not `all`"
                    .to_string(),
            );
        }
        let base =
            simnet::scenario::find(name, n).unwrap_or_else(|| Scenario::new(name.clone(), n));
        vec![base]
    } else if !plan_specs.is_empty() {
        return Err("--plan takes exactly one scenario name (catalog or fresh)".to_string());
    } else {
        resolve_scenarios(&flags.positional, n)?
    };
    for spec in plan_specs {
        let scenario = scenarios.pop().expect("ad-hoc mode has one scenario");
        scenarios.push(apply_spec(scenario, spec)?);
    }
    if let Some(rounds) = flags.value("rounds") {
        let rounds: u64 = rounds
            .parse()
            .map_err(|_| "bad --rounds value".to_string())?;
        scenarios = scenarios
            .into_iter()
            .map(|s| s.with_rounds(rounds))
            .collect();
    }
    if let Some(workload) = flags.value("workload") {
        let workload: u64 = workload
            .parse()
            .map_err(|_| "bad --workload value".to_string())?;
        scenarios = scenarios
            .into_iter()
            .map(|s| s.with_workload_until(workload))
            .collect();
    }
    let check_histories = flags.switch("check-histories");
    let load = match parse_load(&flags)? {
        Some(load) => Some(load),
        // `--check-histories` needs client ops to record; without an
        // explicit population it attaches a default one. The default rate
        // is modest on purpose: open-loop queueing at high rates makes
        // register histories so concurrent that the bounded search returns
        // `lin=budget` (inconclusive) instead of a verdict.
        None if check_histories => Some(
            simnet::LoadProfile::new(200, simnet::Arrival::Poisson { rate: 1.0 })
                .with_op_timeout(300),
        ),
        None => None,
    };
    if let Some(load) = load {
        scenarios = scenarios
            .into_iter()
            .map(|s| s.with_load(load.clone()))
            .collect();
    }
    if check_histories {
        scenarios = scenarios.into_iter().map(Scenario::with_history).collect();
    }
    let seeds = parse_seeds(&flags)?;
    scenarios = apply_sampling(&flags, scenarios, seeds[0])?;
    let nodes = resolve_nodes(flags.value("node"))?;
    let name = flags.value("name").unwrap_or("chaos").to_string();
    let campaign = with_jobs(
        Campaign::new(name)
            .with_seeds(seeds)
            .with_timings(flags.switch("timings"))
            .with_cell_budget_ms(parse_cell_budget(&flags)?),
        parse_jobs(&flags)?,
    );
    let report = run_matrix(&campaign, &nodes, &scenarios)?;
    emit(&report, flags.value("out"))?;
    Ok(report.passed())
}

fn cmd_smoke(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["n", "jobs", "out", "sample-scenarios", "cell-budget-ms"],
        &[],
    )?;
    let n = parse_n(&flags)?;
    let scenarios: Vec<Scenario> = SMOKE_SCENARIOS
        .iter()
        .map(|name| simnet::scenario::find(name, n).expect("smoke scenario exists"))
        .collect();
    // The smoke campaign's first seed is 1; sampling keys off it so a
    // sampled smoke tier is reproducible without extra flags.
    let scenarios = apply_sampling(&flags, scenarios, 1)?;
    let campaign = with_jobs(
        Campaign::new("smoke")
            .with_seeds([1, 2])
            .with_cell_budget_ms(parse_cell_budget(&flags)?),
        parse_jobs(&flags)?,
    );
    let report = run_matrix(&campaign, &NODES, &scenarios)?;
    emit(&report, flags.value("out"))?;
    Ok(report.passed())
}

/// Compares two campaign reports cell by cell. Cells are keyed by
/// (node, scenario, seed, n); the campaign name and the wall-clock-derived
/// fields (`wall_ms` and `budget_overrun`, which depend on the machine, not
/// the execution) are ignored, every other field difference is reported. Headline
/// metrics — rounds-to-convergence and message cost — are rendered with
/// deltas for PR-to-PR comparison.
fn diff_reports(baseline: &Json, current: &Json) -> Result<Vec<String>, String> {
    fn cells(doc: &Json) -> Result<Vec<(String, &Json)>, String> {
        doc.get("runs")
            .and_then(Json::as_arr)
            .ok_or("report has no runs array")?
            .iter()
            .map(|run| {
                let field = |name: &str| {
                    run.get(name)
                        .map(render_value)
                        .ok_or_else(|| format!("run missing {name}"))
                };
                Ok((
                    format!(
                        "{}/{} seed={} n={}",
                        field("node")?.trim_matches('"'),
                        field("scenario")?.trim_matches('"'),
                        field("seed")?,
                        field("n")?
                    ),
                    run,
                ))
            })
            .collect()
    }

    fn render_value(v: &Json) -> String {
        v.render().trim_end().to_string()
    }

    /// Fields rendered with an explicit numeric delta, in report order.
    const HEADLINE: [&str; 2] = ["rounds_to_convergence", "messages_sent"];

    let base_cells = cells(baseline)?;
    let cur_cells = cells(current)?;
    let mut findings = Vec::new();

    for (key, base_run) in &base_cells {
        let Some((_, cur_run)) = cur_cells.iter().find(|(k, _)| k == key) else {
            findings.push(format!("{key}: cell missing from current report"));
            continue;
        };
        let Json::Obj(base_fields) = base_run else {
            return Err("run is not an object".to_string());
        };
        let Json::Obj(cur_fields) = cur_run else {
            return Err("run is not an object".to_string());
        };
        let names: Vec<&str> = base_fields
            .iter()
            .map(|(k, _)| k.as_str())
            .chain(cur_fields.iter().map(|(k, _)| k.as_str()))
            .filter(|k| *k != "wall_ms" && *k != "budget_overrun")
            .collect();
        let mut seen = Vec::new();
        for name in names {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            let base_value = base_run.get(name);
            let cur_value = cur_run.get(name);
            if base_value == cur_value {
                continue;
            }
            let rendered = |v: Option<&Json>| match v {
                None => "<absent>".to_string(),
                Some(v) => render_value(v),
            };
            let delta = match (
                base_value.and_then(Json::as_u64),
                cur_value.and_then(Json::as_u64),
                HEADLINE.contains(&name),
            ) {
                (Some(b), Some(c), true) => {
                    format!(" ({}{})", if c >= b { "+" } else { "-" }, c.abs_diff(b))
                }
                _ => String::new(),
            };
            findings.push(format!(
                "{key}: {name} {} -> {}{delta}",
                rendered(base_value),
                rendered(cur_value)
            ));
        }
    }
    for (key, _) in &cur_cells {
        if !base_cells.iter().any(|(k, _)| k == key) {
            findings.push(format!("{key}: cell missing from baseline report"));
        }
    }
    Ok(findings)
}

fn cmd_diff(args: &[String]) -> Result<bool, String> {
    // `--jobs` is accepted so matrix scripts can pass one flag set to every
    // subcommand, but diffing compares reports — it never runs cells, so
    // there is nothing to parallelize. Parse it anyway to reject garbage.
    let flags = Flags::parse(args, &["jobs"], &[])?;
    parse_jobs(&flags)?;
    let [baseline_path, current_path] = flags.positional.as_slice() else {
        return Err("diff takes exactly two report paths".to_string());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let findings = diff_reports(&read(baseline_path)?, &read(current_path)?)?;
    if findings.is_empty() {
        eprintln!("diff: reports are equivalent ({baseline_path} vs {current_path})");
        Ok(true)
    } else {
        for finding in &findings {
            println!("{finding}");
        }
        eprintln!(
            "diff: {} divergence(s) between {baseline_path} and {current_path}",
            findings.len()
        );
        Ok(false)
    }
}

/// The latency-SLO gate: runs the named catalog scenarios with the
/// requested client population attached, prints one
/// markdown latency table on stdout (piped into `$GITHUB_STEP_SUMMARY` by
/// the CI `slo-guard` job), and fails when any cell breaches an `--slo`
/// bound, fails its campaign run, or completes no operation at all (an SLO
/// trivially "met" by serving nothing is a finding, not a pass).
///
/// Latency is measured in rounds, so the verdict is byte-deterministic:
/// the same scenarios + seeds breach or meet the SLO identically on every
/// machine and at any `--jobs` count.
fn cmd_slo(args: &[String]) -> Result<bool, String> {
    let flags = &Flags::parse(
        args,
        &[
            "slo",
            "scenario",
            "node",
            "clients",
            "arrival",
            "op-timeout",
            "n",
            "seed",
            "seeds",
            "jobs",
            "cell-budget-ms",
            "out",
        ],
        &[],
    )?;
    let slos = parse_slo(flags.value("slo").ok_or("missing --slo")?)?;
    let load = parse_load(flags)?
        .ok_or("--slo gates op latency; attach a population with --clients/--arrival")?;
    let n = parse_n(flags)?;
    let names = flags
        .value("scenario")
        .ok_or("missing --scenario (comma-separated catalog names)")?;
    let mut scenarios = Vec::new();
    for name in names.split(',') {
        let scenario = simnet::scenario::find(name.trim(), n)
            .ok_or_else(|| format!("unknown scenario `{name}` (try `simctl list`)"))?;
        scenarios.push(scenario.with_load(load.clone()));
    }
    let nodes = resolve_nodes(flags.value("node"))?;
    let campaign = with_jobs(
        Campaign::new("slo-guard")
            .with_seeds(parse_seeds(flags)?)
            .with_cell_budget_ms(parse_cell_budget(flags)?),
        parse_jobs(flags)?,
    );
    let report = run_matrix(&campaign, &nodes, &scenarios)?;
    if let Some(path) = flags.value("out") {
        std::fs::write(path, report.render()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    println!(
        "| scenario | node | seed | p50 (rounds) | p99 | p99.9 | goodput/kround | timeouts | submitted |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut findings = Vec::new();
    for run in &report.runs {
        let counter = |key: &str| run.counters.get(key).copied().unwrap_or(0);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            run.scenario,
            run.node,
            run.seed,
            counter("op_latency_p50_rounds"),
            counter("op_latency_p99_rounds"),
            counter("op_latency_p999_rounds"),
            counter("op_goodput_per_kround"),
            counter("op_timeouts"),
            counter("ops_submitted"),
        );
        let cell = format!("{}/{} seed={}", run.node, run.scenario, run.seed);
        if !run.passed() {
            findings.push(format!("{cell} failed its campaign run"));
        }
        if counter("ops_completed") == 0 {
            findings.push(format!("{cell} completed no operation"));
        }
        for (key, bound) in &slos {
            let got = counter(key);
            if got > *bound {
                findings.push(format!(
                    "{cell}: {key} = {got} rounds exceeds the SLO of {bound}"
                ));
            }
        }
    }
    if findings.is_empty() {
        eprintln!("slo: every cell within its latency SLO");
        Ok(true)
    } else {
        for f in &findings {
            eprintln!("slo: {f}");
        }
        Ok(false)
    }
}

/// Compile-time wiring check: the four node adapters expose the names the
/// CLI dispatches on.
const _: () = {
    assert!(!ReconfigNode::NAME.is_empty());
    assert!(!CounterNode::NAME.is_empty());
    assert!(!SmrNode::NAME.is_empty());
    assert!(!SharedMemNode::NAME.is_empty());
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_names_match_the_adapters() {
        assert_eq!(ReconfigNode::NAME, "reconfig");
        assert_eq!(CounterNode::NAME, "counter");
        assert_eq!(SmrNode::NAME, "smr");
        assert_eq!(SharedMemNode::NAME, "sharedmem");
        for smoke in SMOKE_SCENARIOS {
            assert!(
                simnet::scenario::find(smoke, DEFAULT_N).is_some(),
                "smoke scenario {smoke} missing from the catalog"
            );
        }
    }

    #[test]
    fn flags_parse_values_switches_and_positionals() {
        let args: Vec<String> = ["partition-heal", "--node", "smr", "--timings", "--n", "6"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args, &["node", "n"], &["timings"]).unwrap();
        assert_eq!(flags.positional, vec!["partition-heal"]);
        assert_eq!(flags.value("node"), Some("smr"));
        assert!(flags.switch("timings"));
        assert_eq!(parse_n(&flags).unwrap(), 6);
        assert!(
            Flags::parse(&args, &["node"], &[]).is_err(),
            "unknown flag accepted"
        );
    }

    #[test]
    fn seeds_parse() {
        let args: Vec<String> = ["--seeds", "3,5"].iter().map(|s| s.to_string()).collect();
        let flags = Flags::parse(&args, &["seeds"], &[]).unwrap();
        assert_eq!(parse_seeds(&flags).unwrap(), vec![3, 5]);
    }

    /// Builds a minimal report with one run cell.
    fn report_with(seed: u64, rounds: u64, msgs: u64, converged: bool) -> Json {
        Json::obj().field("campaign", "x").field(
            "runs",
            Json::Arr(vec![Json::obj()
                .field("node", "reconfig")
                .field("scenario", "one-way-cut")
                .field("seed", seed)
                .field("n", 5u64)
                .field("converged", converged)
                .field("rounds_to_convergence", rounds)
                .field("messages_sent", msgs)]),
        )
    }

    #[test]
    fn diff_reports_is_clean_on_identity_and_ignores_wall_ms() {
        let a = report_with(1, 70, 5_000, true);
        assert!(diff_reports(&a, &a).unwrap().is_empty());
        // Campaign name and wall_ms are not part of the comparison.
        let mut b = report_with(1, 70, 5_000, true).field("campaign", "y");
        if let Json::Obj(fields) = &mut b {
            if let Some((_, Json::Arr(runs))) = fields.iter_mut().find(|(k, _)| k == "runs") {
                runs[0] = runs[0]
                    .clone()
                    .field("wall_ms", 12.5)
                    .field("budget_overrun", true);
            }
        }
        assert!(diff_reports(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn budget_and_sampling_flags_parse_and_validate() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            Flags::parse(&args, &["cell-budget-ms", "sample-scenarios"], &[]).unwrap()
        };
        assert_eq!(parse_cell_budget(&parse(&[])).unwrap(), 0.0);
        assert_eq!(
            parse_cell_budget(&parse(&["--cell-budget-ms", "250.5"])).unwrap(),
            250.5
        );
        assert!(parse_cell_budget(&parse(&["--cell-budget-ms", "-1"])).is_err());
        assert!(parse_cell_budget(&parse(&["--cell-budget-ms", "inf"])).is_err());
        assert!(parse_cell_budget(&parse(&["--cell-budget-ms", "soon"])).is_err());

        let scenarios = catalog(4);
        let full = scenarios.len();
        assert_eq!(
            apply_sampling(&parse(&[]), catalog(4), 1).unwrap().len(),
            full
        );
        let sampled = apply_sampling(&parse(&["--sample-scenarios", "3"]), catalog(4), 1).unwrap();
        assert_eq!(sampled.len(), 3);
        // Same (K, seed) picks the same subset; catalog order is preserved,
        // so the sampled names appear in the full catalog's order.
        let again = apply_sampling(&parse(&["--sample-scenarios", "3"]), catalog(4), 1).unwrap();
        let names = |v: &[Scenario]| v.iter().map(|s| s.name().to_string()).collect::<Vec<_>>();
        assert_eq!(names(&sampled), names(&again));
        let positions: Vec<usize> = sampled
            .iter()
            .map(|s| scenarios.iter().position(|f| f.name() == s.name()).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");
        assert!(apply_sampling(&parse(&["--sample-scenarios", "0"]), catalog(4), 1).is_err());
        assert!(apply_sampling(&parse(&["--sample-scenarios", "x"]), catalog(4), 1).is_err());
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), None);
        let one = [42.0];
        assert_eq!(percentile(&one, 50.0), Some(42.0));
        assert_eq!(percentile(&one, 99.0), Some(42.0));
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&four, 50.0), Some(2.0));
        assert_eq!(percentile(&four, 99.0), Some(4.0));
        assert_eq!(percentile(&four, 100.0), Some(4.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
    }

    #[test]
    fn diff_reports_flags_metric_divergence_with_deltas() {
        let base = report_with(1, 70, 5_000, true);
        let slower = report_with(1, 85, 5_600, true);
        let findings = diff_reports(&base, &slower).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].contains("rounds_to_convergence 70 -> 85 (+15)"));
        assert!(findings[1].contains("messages_sent 5000 -> 5600 (+600)"));
        // A flipped convergence bit is a divergence too.
        let broken = report_with(1, 70, 5_000, false);
        let findings = diff_reports(&base, &broken).unwrap();
        assert!(findings.iter().any(|f| f.contains("converged")));
    }

    #[test]
    fn diff_reports_flags_missing_cells_in_both_directions() {
        let a = report_with(1, 70, 5_000, true);
        let b = report_with(2, 70, 5_000, true);
        let findings = diff_reports(&a, &b).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].contains("seed=1") && findings[0].contains("current"));
        assert!(findings[1].contains("seed=2") && findings[1].contains("baseline"));
        // Malformed documents are errors, not empty diffs.
        assert!(diff_reports(&Json::obj(), &a).is_err());
    }

    #[test]
    fn run_rejects_plan_composition_onto_all() {
        let args: Vec<String> = ["all", "--node", "reconfig", "--plan", "crash=1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = cmd_run(&args).unwrap_err();
        assert!(err.contains("not `all`"), "{err}");
    }

    #[test]
    fn list_json_carries_every_catalog_scenario_and_plan_kind() {
        let doc = catalog_json(5);
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(5));
        let scenarios = doc.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(scenarios.len(), catalog(5).len());
        let byz = scenarios
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("byzantine-storm"))
            .expect("byzantine-storm listed");
        let plans = byz.get("plans").and_then(Json::as_arr).unwrap();
        assert!(plans
            .iter()
            .any(|p| p.get("kind").and_then(Json::as_str) == Some("byzantine")));
        // The rendered document parses back: a stable machine interface.
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
    }

    /// The counter-schema contract of `simctl list --json`: every scenario
    /// carries the sorted union of its plans' registered counter keys —
    /// exactly the keys a campaign report of that scenario contains — so
    /// cross-PR schema drift is detectable without running a campaign.
    #[test]
    fn list_json_carries_registered_counter_keys() {
        let doc = catalog_json(5);
        let scenarios = doc.get("scenarios").and_then(Json::as_arr).unwrap();
        for (scenario, listed) in catalog(5).iter().zip(scenarios) {
            let mut expected: Vec<&str> = scenario
                .plans()
                .iter()
                .flat_map(|p| p.counter_keys())
                .collect();
            expected.sort_unstable();
            expected.dedup();
            let got: Vec<&str> = listed
                .get("counters")
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{} has no counters array", scenario.name()))
                .iter()
                .filter_map(Json::as_str)
                .collect();
            assert_eq!(got, expected, "counter keys for {}", scenario.name());
        }
        // Spot checks: the quiescent scenario registers nothing, the
        // Byzantine storm registers `injections`.
        let by_name = |name: &str| {
            scenarios
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|s| s.get("counters"))
                .and_then(Json::as_arr)
                .unwrap()
                .to_vec()
        };
        assert!(by_name("quiescent").is_empty());
        assert!(by_name("byzantine-storm")
            .iter()
            .any(|k| k.as_str() == Some("injections")));
    }

    #[test]
    fn jobs_flag_parses_and_zero_means_default() {
        let parse = |v: &str| {
            let args = vec!["--jobs".to_string(), v.to_string()];
            parse_jobs(&Flags::parse(&args, &["jobs"], &[]).unwrap())
        };
        assert_eq!(parse("4").unwrap(), Some(4));
        assert_eq!(parse("1").unwrap(), Some(1));
        assert_eq!(parse("0").unwrap(), None);
        assert!(parse("many").is_err());
        let empty = Flags::parse(&[], &["jobs"], &[]).unwrap();
        assert_eq!(parse_jobs(&empty).unwrap(), None);
    }

    /// The cross-node pool dispatch of `run_matrix` must be observably
    /// identical to the serial per-node loop: same records, same node-major
    /// order, byte-identical rendering.
    #[test]
    fn run_matrix_parallel_is_byte_identical_to_serial_across_nodes() {
        let scenarios = vec![simnet::scenario::find("partition-heal", 4).unwrap()];
        let nodes = ["reconfig", "sharedmem"];
        let render = |jobs: usize| {
            let campaign = Campaign::new("matrix").with_seeds([1, 2]).with_jobs(jobs);
            run_matrix(&campaign, &nodes, &scenarios).unwrap().render()
        };
        let serial = render(1);
        assert_eq!(render(4), serial);
        // Node-major order: reconfig's cells precede sharedmem's.
        let report = Json::parse(&serial).unwrap();
        let order: Vec<String> = report
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.get("node").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(order, ["reconfig", "reconfig", "sharedmem", "sharedmem"]);
    }
}
