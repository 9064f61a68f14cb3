//! The live-cluster subcommands: `deploy`, `drive`, `kill`, `down` and the
//! hidden `node` entry point.
//!
//! `simctl deploy` boots an N-process localhost cluster — every node is a
//! child running `simctl node`, i.e. the same binary re-entered — and
//! writes a [`ClusterSpec`] file naming each node's host, data port,
//! control port and OS pid (hosts are explicit so a hand-written spec can
//! target multiple machines later). `simctl drive` replays a catalog
//! scenario's fault schedule against the running cluster in wall time:
//! `Crash` becomes `kill -9`, `Join`/`Rejoin` become fresh-id process
//! spawns, `SetTimer` becomes control-plane timer retuning. Its client load
//! is the simulator's own [`LoadEngine`], driven through the control plane
//! ([`LoadPort`]), and it renders a live, `RunRecord`-shaped JSON report
//! with the simulator's counter keys: the scenario's fault keys and the
//! load's [`simnet::load::COUNTER_KEYS`], latencies in rounds (ticks). Only
//! [`simnet::Scenario::live_capable`] scenarios are accepted; the rest are
//! refused up front.
//!
//! Liveness of the drive itself is bounded: the fault schedule runs for a
//! fixed number of wall ticks, and convergence polling is capped by
//! `--timeout-secs`. Teardown is `simctl down` (graceful `shutdown` per
//! node with a `kill -9` fallback), which CI runs from an exit trap.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use livenet::control::control_request;
use livenet::{hex_decode, ClusterSpec, NodeSpec};
use simnet::load::{LoadEngine, LoadPort};
use simnet::report::Json;
use simnet::{OpResponse, ProcessId, Round};

use crate::{parse_load, Flags, NODES};

/// Default cluster file, shared by every live subcommand.
const DEFAULT_CLUSTER_FILE: &str = "live-cluster.json";

/// Default wall milliseconds per protocol round in live runs.
const DEFAULT_TICK_MS: u64 = 20;

/// Timeout for a single control request.
const CONTROL_TIMEOUT: Duration = Duration::from_millis(2000);

/// How long deploy waits for a freshly spawned node to answer `status`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

fn parse_flag<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.value(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{name} value `{v}`")),
    }
}

/// The hidden per-process entry point: `simctl node --kind K --id I --n N
/// --tick-ms MS --cluster FILE [--joiner]` runs one live protocol process
/// until its control plane says `shutdown`.
pub fn cmd_node(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["kind", "id", "n", "tick-ms", "cluster"],
        &["joiner"],
    )?;
    let kind = flags
        .value("kind")
        .ok_or("node: missing --kind")?
        .to_string();
    let id: u32 = parse_flag(&flags, "id", u32::MAX)?;
    if id == u32::MAX {
        return Err("node: missing --id".to_string());
    }
    let cfg = livenet::NodeConfig {
        me: ProcessId::new(id),
        n: parse_flag(&flags, "n", 4usize)?,
        joiner: flags.switch("joiner"),
        tick_ms: parse_flag(&flags, "tick-ms", DEFAULT_TICK_MS)?,
        cluster_path: PathBuf::from(flags.value("cluster").unwrap_or(DEFAULT_CLUSTER_FILE)),
    };
    let result = match kind.as_str() {
        "reconfig" => livenet::run_node::<reconfig::ReconfigNode>(cfg),
        "counter" => livenet::run_node::<counters::CounterNode>(cfg),
        "smr" => livenet::run_node::<vssmr::SmrNode>(cfg),
        "sharedmem" => livenet::run_node::<sharedmem::SharedMemNode>(cfg),
        other => return Err(format!("node: unknown --kind `{other}`")),
    };
    result.map_err(|err| format!("live node p{id} failed: {err}"))?;
    Ok(true)
}

/// Spawns one `simctl node` child and reads its `READY` announcement.
fn spawn_node(
    kind: &str,
    id: ProcessId,
    n: usize,
    tick_ms: u64,
    cluster: &Path,
    joiner: bool,
) -> Result<NodeSpec, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("node")
        .args(["--kind", kind])
        .args(["--id", &id.as_u32().to_string()])
        .args(["--n", &n.to_string()])
        .args(["--tick-ms", &tick_ms.to_string()])
        .arg("--cluster")
        .arg(cluster)
        .stdout(std::process::Stdio::piped())
        .stdin(std::process::Stdio::null());
    // Nodes must NOT inherit our stderr: a parent capturing `simctl
    // deploy`'s output through a pipe would otherwise never see EOF while
    // the cluster lives. Each node logs to a file next to the cluster spec.
    let log_path = cluster.with_extension(format!("p{}.log", id.as_u32()));
    cmd.stderr(match std::fs::File::create(&log_path) {
        Ok(file) => std::process::Stdio::from(file),
        Err(_) => std::process::Stdio::null(),
    });
    if joiner {
        cmd.arg("--joiner");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawning node {id}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("reading READY from node {id}: {e}"))?;
    // `READY id=<id> data=<port> control=<port> pid=<pid>`
    let mut fields = BTreeMap::new();
    for word in line.split_whitespace().skip(1) {
        if let Some((k, v)) = word.split_once('=') {
            fields.insert(k.to_string(), v.to_string());
        }
    }
    let field = |key: &str| -> Result<u64, String> {
        fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("node {id} announced `{}` (no `{key}`)", line.trim()))
    };
    if field("id")? != u64::from(id.as_u32()) {
        return Err(format!(
            "node announced id {} (expected {id})",
            field("id")?
        ));
    }
    Ok(NodeSpec {
        id,
        host: "127.0.0.1".to_string(),
        data_port: field("data")? as u16,
        control_port: field("control")? as u16,
        pid: Some(field("pid")? as u32),
        joiner,
    })
}

/// `simctl deploy --node KIND [--n N] [--tick-ms MS] [--cluster FILE]`
pub fn cmd_deploy(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["node", "n", "tick-ms", "cluster"], &[])?;
    let kind = flags
        .value("node")
        .ok_or("deploy: missing --node (reconfig|counter|smr|sharedmem)")?;
    if !NODES.contains(&kind) {
        return Err(format!("deploy: unknown node type `{kind}`"));
    }
    let n: usize = parse_flag(&flags, "n", 4usize)?;
    if n < 2 {
        return Err("deploy: --n must be at least 2".to_string());
    }
    let tick_ms: u64 = parse_flag(&flags, "tick-ms", DEFAULT_TICK_MS)?;
    let cluster = PathBuf::from(flags.value("cluster").unwrap_or(DEFAULT_CLUSTER_FILE));
    // Nodes wait for the cluster file to list them — a stale file from a
    // previous deployment would hand them dead ports.
    let _ = std::fs::remove_file(&cluster);

    let mut spec = ClusterSpec {
        node_kind: kind.to_string(),
        tick_ms,
        initial_n: n,
        nodes: Vec::new(),
    };
    for i in 0..n {
        let node = spawn_node(kind, ProcessId::new(i as u32), n, tick_ms, &cluster, false)?;
        spec.nodes.push(node);
    }
    spec.save(&cluster)
        .map_err(|e| format!("writing {}: {e}", cluster.display()))?;

    // Wait until every node answers on its control port.
    let deadline = Instant::now() + BOOT_TIMEOUT;
    for node in &spec.nodes {
        loop {
            if control_request(&node.control_addr(), "status", CONTROL_TIMEOUT).is_ok() {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "node {} never answered on control port {}",
                    node.id, node.control_port
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    eprintln!(
        "deployed {kind} cluster: n={n} tick_ms={tick_ms} cluster={}",
        cluster.display()
    );
    for node in &spec.nodes {
        eprintln!(
            "  {}  data={}  control={}  pid={}",
            node.id,
            node.data_addr(),
            node.control_addr(),
            node.pid.map_or("?".to_string(), |p| p.to_string())
        );
    }
    Ok(true)
}

fn kill_dash_nine(pid: u32) -> Result<(), String> {
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .map_err(|e| format!("kill -9 {pid}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("kill -9 {pid} exited with {status}"))
    }
}

/// `simctl kill <id> [--cluster FILE]` — the manual face of the live
/// crash adapter: `kill -9` one node by protocol id.
pub fn cmd_kill(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["cluster"], &[])?;
    let [id] = flags.positional.as_slice() else {
        return Err("kill: expected exactly one node id".to_string());
    };
    let id: u32 = id
        .parse()
        .map_err(|_| format!("kill: bad node id `{id}`"))?;
    let cluster = PathBuf::from(flags.value("cluster").unwrap_or(DEFAULT_CLUSTER_FILE));
    let mut spec = ClusterSpec::load(&cluster)?;
    let node = spec
        .node(ProcessId::new(id))
        .ok_or_else(|| format!("kill: node p{id} not in {}", cluster.display()))?;
    let pid = node
        .pid
        .ok_or_else(|| format!("kill: node p{id} has no recorded pid"))?;
    kill_dash_nine(pid)?;
    // Drop the dead node from the file so a later `drive` doesn't wait on it.
    spec.nodes.retain(|n| n.id.as_u32() != id);
    spec.save(&cluster)
        .map_err(|e| format!("rewriting {}: {e}", cluster.display()))?;
    eprintln!("killed p{id} (pid {pid})");
    Ok(true)
}

/// `simctl down [--cluster FILE]` — graceful shutdown of every node, with
/// a `kill -9` fallback for nodes whose control plane is unresponsive.
pub fn cmd_down(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["cluster"], &[])?;
    let cluster = PathBuf::from(flags.value("cluster").unwrap_or(DEFAULT_CLUSTER_FILE));
    let spec = ClusterSpec::load(&cluster)?;
    for node in &spec.nodes {
        let graceful = control_request(&node.control_addr(), "shutdown", CONTROL_TIMEOUT).is_ok();
        if graceful {
            eprintln!("  {} shut down", node.id);
        } else if let Some(pid) = node.pid {
            let _ = kill_dash_nine(pid);
            eprintln!("  {} killed (pid {pid})", node.id);
        } else {
            eprintln!("  {} unreachable and pid unknown", node.id);
        }
    }
    Ok(true)
}

/// One node's parsed `status` response.
struct NodeStatus {
    settled: bool,
    token: String,
    ticks: u64,
    sent: u64,
    recv: u64,
    drops: u64,
    decode_errors: u64,
}

fn poll_status(node: &NodeSpec) -> Option<NodeStatus> {
    let json = control_request(&node.control_addr(), "status", CONTROL_TIMEOUT).ok()?;
    let get = |key: &str| json.get(key).and_then(Json::as_u64).unwrap_or(0);
    let token_hex = json.get("token").and_then(Json::as_str).unwrap_or("");
    let token = hex_decode(token_hex)
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .unwrap_or_default();
    Some(NodeStatus {
        settled: json.get("settled").and_then(Json::as_bool).unwrap_or(false),
        token,
        ticks: get("ticks"),
        sent: get("sent"),
        recv: get("recv"),
        drops: get("drops"),
        decode_errors: get("decode_errors"),
    })
}

/// A running victim of a live timer override.
struct Slowed {
    /// Its timer steps when it was slowed.
    ticks: u64,
    /// When it was slowed.
    at: Instant,
    /// The period in force, in ticks.
    period: u64,
}

/// Live drive state: which ids are up, which were killed, which ids were
/// ever used (fresh-id allocation + the no-resurrection invariant).
struct Driver {
    spec: ClusterSpec,
    cluster: PathBuf,
    alive: BTreeMap<ProcessId, NodeSpec>,
    /// Killed nodes keep their spec so the no-resurrection probe knows
    /// where a zombie would answer; they are dropped from the cluster
    /// *file* so later drives don't wait on the dead.
    killed: BTreeMap<ProcessId, NodeSpec>,
    used_ids: BTreeSet<ProcessId>,
    /// Victims of a live timer override that are still running — the
    /// slow-not-dead invariant checks their timer progress since.
    slowed: BTreeMap<ProcessId, Slowed>,
    /// The run's counters, counted by the scenario runner's rules.
    counters: BTreeMap<String, u64>,
    violations: Vec<String>,
}

impl Driver {
    fn bump(&mut self, key: &str) {
        *self.counters.entry(key.to_string()).or_insert(0) += 1;
    }

    fn save_spec(&self) -> Result<(), String> {
        self.spec
            .save(&self.cluster)
            .map_err(|e| format!("rewriting {}: {e}", self.cluster.display()))
    }

    /// Spawns `count` joiners under fresh ids, counting each under `key`.
    fn spawn_fresh(&mut self, count: u32, key: &str) -> Result<(), String> {
        for _ in 0..count {
            let id = ProcessId::new(
                self.used_ids
                    .iter()
                    .next_back()
                    .map_or(0, |p| p.as_u32() + 1),
            );
            // Fresh-id discipline is by construction; a collision would be
            // a driver bug and poison the no-resurrection invariant.
            assert!(!self.used_ids.contains(&id), "fresh id {id} reused");
            let node = spawn_node(
                &self.spec.node_kind.clone(),
                id,
                self.spec.initial_n,
                self.spec.tick_ms,
                &self.cluster,
                true,
            )?;
            self.used_ids.insert(id);
            self.spec.nodes.push(node.clone());
            self.save_spec()?;
            self.alive.insert(id, node);
            self.bump(key);
        }
        Ok(())
    }

    /// Applies one fault action, counting it as the scenario runner does:
    /// every crash, every spawned joiner or recovery, and each none → slow
    /// transition of a running victim.
    fn apply_action(&mut self, action: &simnet::FaultAction) -> Result<(), String> {
        use simnet::FaultAction;
        match action {
            FaultAction::Crash(victim) => {
                self.bump("crashes");
                let Some(node) = self.alive.remove(victim) else {
                    return Ok(());
                };
                match node.pid {
                    Some(pid) => kill_dash_nine(pid)?,
                    // A hand-written spec without pids: fall back to a
                    // graceful shutdown (weaker than SIGKILL, still a stop).
                    None => {
                        let _ = control_request(&node.control_addr(), "shutdown", CONTROL_TIMEOUT);
                    }
                }
                self.killed.insert(*victim, node);
                self.slowed.remove(victim);
                self.spec.nodes.retain(|n| n.id != *victim);
                self.save_spec()?;
            }
            FaultAction::Join { count } => self.spawn_fresh(*count, "joins")?,
            FaultAction::Rejoin { count } => self.spawn_fresh(*count, "recoveries")?,
            FaultAction::SetTimer { victim, period } => {
                let Some(node) = self.alive.get(victim) else {
                    return Ok(());
                };
                let line = match period {
                    Some(p) => format!("timer {p}"),
                    None => "timer default".to_string(),
                };
                let _ = control_request(&node.control_addr(), &line, CONTROL_TIMEOUT);
                match (*period, self.slowed.get_mut(victim)) {
                    (Some(period), Some(slowed)) => slowed.period = period,
                    (Some(period), None) => {
                        let ticks = poll_status(node).map_or(0, |status| status.ticks);
                        let at = Instant::now();
                        self.slowed.insert(*victim, Slowed { ticks, at, period });
                        self.bump("slowdowns");
                    }
                    (None, _) => {
                        self.slowed.remove(victim);
                    }
                }
            }
            other => {
                return Err(format!(
                    "fault action {other:?} has no live adapter (drive refuses such \
                     scenarios up front; this is a bug)"
                ));
            }
        }
        Ok(())
    }
}

/// The live cluster as the load engine's port: ops go to running nodes
/// through their control plane, one connection per request. A `claim`
/// reply carries only `ok`, so claimed ops observe nothing.
impl LoadPort for Driver {
    fn active_ids(&self) -> Vec<ProcessId> {
        self.alive.keys().copied().collect()
    }

    fn submit(&mut self, via: ProcessId, key: u64, value: u64) -> bool {
        let Some(node) = self.alive.get(&via) else {
            return false;
        };
        control_request(
            &node.control_addr(),
            &format!("submit {key} {value}"),
            CONTROL_TIMEOUT,
        )
        .ok()
        .and_then(|j| j.get("accepted").and_then(Json::as_bool))
        .unwrap_or(false)
    }

    fn claim(&mut self, via: ProcessId) -> Option<OpResponse> {
        let node = self.alive.get(&via)?;
        let reply = control_request(&node.control_addr(), "claim", CONTROL_TIMEOUT).ok()?;
        (reply.get("claimed").and_then(Json::as_bool) == Some(true)).then(|| OpResponse {
            ok: reply.get("ok").and_then(Json::as_bool).unwrap_or(false),
            observed: None,
            indeterminate: false,
        })
    }
}

/// `simctl drive <scenario> [--cluster FILE] [--clients N --arrival SPEC]
/// [--seed S] [--timeout-secs T] [--name NAME] [--out FILE]`
pub fn cmd_drive(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &[
            "cluster",
            "clients",
            "arrival",
            "seed",
            "timeout-secs",
            "name",
            "out",
        ],
        &[],
    )?;
    let [scenario_name] = flags.positional.as_slice() else {
        return Err("drive: expected exactly one scenario name".to_string());
    };
    let cluster = PathBuf::from(flags.value("cluster").unwrap_or(DEFAULT_CLUSTER_FILE));
    let spec = ClusterSpec::load(&cluster)?;
    let n = spec.initial_n;
    let scenario = simnet::scenario::find(scenario_name, n)
        .ok_or_else(|| format!("unknown scenario `{scenario_name}` (try `simctl list`)"))?;
    if !scenario.live_capable() {
        let live = simnet::scenario::catalog(n)
            .iter()
            .filter(|s| s.live_capable())
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ");
        return Err(format!(
            "scenario `{scenario_name}` schedules simulator-only fault actions \
             (partitions, channel policies, corruption or injection); live-capable \
             scenarios: {live}"
        ));
    }
    let load = parse_load(&flags)?;
    let seed: u64 = parse_flag(&flags, "seed", 1u64)?;
    let timeout = Duration::from_secs(parse_flag(&flags, "timeout-secs", 90u64)?);
    let name = flags.value("name").unwrap_or("live").to_string();

    let started = Instant::now();
    let mut driver = Driver {
        alive: spec
            .nodes
            .iter()
            .map(|node| (node.id, node.clone()))
            .collect(),
        used_ids: spec.nodes.iter().map(|node| node.id).collect(),
        killed: BTreeMap::new(),
        slowed: BTreeMap::new(),
        counters: scenario.zeroed_counters(),
        violations: Vec::new(),
        spec,
        cluster,
    };
    let mut engine = load.map(|profile| LoadEngine::new(profile, seed));
    let loaded = engine.is_some();
    let tick_ms = driver.spec.tick_ms.max(1);
    let tick = Duration::from_millis(tick_ms);
    // The live clock in rounds: wall time over the tick, as `rounds_run`
    // and `rounds_to_convergence` count it.
    let rounds_at = |at: Duration| (at.as_millis() as u64) / tick_ms;

    // Phase 1: replay the fault schedule (and the workload window) in wall
    // time, one scenario round per tick. The engine draws this round's
    // arrivals at the loop round and claims at the round's end, as the
    // simulator polls after stepping it.
    let workload_until = if loaded {
        scenario.workload_rounds()
    } else {
        0
    };
    let horizon = scenario.last_fault_round().as_u64().max(workload_until);
    for round in 0..=horizon {
        std::thread::sleep(tick);
        for action in scenario.actions_at(Round::new(round)) {
            driver.apply_action(&action)?;
        }
        if let Some(engine) = engine.as_mut() {
            if round < workload_until {
                engine.drive(&mut driver, round, None);
            }
            engine.poll(&mut driver, round + 1, None);
        }
    }

    // Phase 2: poll for convergence — every live node settled, and their
    // settle tokens agree per key. Meanwhile keep claiming op completions
    // (at the wall clock's round) and watching the per-class runner
    // invariants.
    let poll = tick.max(Duration::from_millis(50));
    let deadline = Instant::now() + timeout;
    let (converged_at, final_stats) = loop {
        std::thread::sleep(poll);
        if let Some(engine) = engine.as_mut() {
            engine.poll(&mut driver, rounds_at(started.elapsed()), None);
        }

        // No-resurrection: a killed id must never answer again. (Fresh
        // incarnations take fresh ids by construction.)
        let mut zombie = Vec::new();
        for (id, node) in &driver.killed {
            if control_request(&node.control_addr(), "status", CONTROL_TIMEOUT).is_ok() {
                zombie.push(format!(
                    "killed {id} answered a status probe (id resurrection)"
                ));
            }
        }
        for msg in zombie {
            if !driver.violations.contains(&msg) {
                driver.violations.push(msg);
            }
        }

        let mut all_settled = !driver.alive.is_empty();
        let mut tokens = Vec::new();
        let mut statuses = BTreeMap::new();
        for (id, node) in &driver.alive {
            match poll_status(node) {
                Some(status) => {
                    all_settled &= status.settled;
                    tokens.push(status.token.clone());
                    statuses.insert(*id, status);
                }
                None => all_settled = false,
            }
        }
        if all_settled && simnet::scenario::tokens_agree(&tokens) {
            break (Some(started.elapsed()), statuses);
        }
        if Instant::now() >= deadline {
            break (None, statuses);
        }
    };
    // Slow-not-dead, the simulator's skew rule: a node still slowed must
    // have taken a timer step since it was slowed, once two of its periods
    // have passed.
    for (id, slowed) in &driver.slowed {
        let Some(status) = final_stats.get(id) else {
            continue;
        };
        let due = slowed.at.elapsed().as_millis()
            >= u128::from(slowed.period.saturating_mul(2 * tick_ms));
        if due && status.ticks <= slowed.ticks {
            driver.violations.push(format!(
                "slowed {id} made no timer progress ({} → {})",
                slowed.ticks, status.ticks
            ));
        }
    }

    // Fold the live run into a RunRecord-shaped report.
    let rounds_run = rounds_at(started.elapsed());
    if let Some(engine) = engine {
        engine.finish(rounds_run, &mut driver.counters);
    }
    let converged = converged_at.is_some();
    if let Some(at) = converged_at {
        driver
            .counters
            .insert("live_converged_ms".to_string(), at.as_millis() as u64);
    }
    let sum = |f: fn(&NodeStatus) -> u64| final_stats.values().map(f).sum::<u64>();
    let record = Json::obj()
        .field("node", driver.spec.node_kind.as_str())
        .field("scenario", scenario.name())
        .field("seed", seed)
        .field("n", n)
        .field("rounds_run", rounds_run)
        .field("converged", converged)
        .field(
            "rounds_to_convergence",
            converged_at.map_or(Json::Null, |at| Json::UInt(rounds_at(at))),
        )
        .field("counters", simnet::report::obj_from_map(&driver.counters))
        .field("messages_sent", sum(|s| s.sent))
        .field("messages_delivered", sum(|s| s.recv))
        .field("messages_lost", sum(|s| s.drops))
        .field("decode_errors", sum(|s| s.decode_errors))
        .field("timer_steps", sum(|s| s.ticks))
        .field(
            "invariant_violations",
            Json::Arr(
                driver
                    .violations
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect(),
            ),
        );
    let report = Json::obj()
        .field("campaign", name.as_str())
        .field("live", true)
        .field("tick_ms", driver.spec.tick_ms)
        .field("runs", Json::Arr(vec![record]));
    let rendered = report.render();
    match flags.value("out") {
        None => print!("{rendered}"),
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }

    let completed = driver.counters.get("ops_completed").copied().unwrap_or(0);
    let passed = converged && driver.violations.is_empty() && (!loaded || completed > 0);
    let status = if !converged {
        "NO-CONVERGENCE"
    } else if !driver.violations.is_empty() {
        "INVARIANT-VIOLATION"
    } else if !passed {
        "NO-OPS-COMPLETED"
    } else {
        "ok"
    };
    eprintln!(
        "  [{status}] live {}/{} seed={seed} rounds={rounds_run} msgs={} ops_completed={completed}",
        driver.spec.node_kind,
        scenario.name(),
        sum(|s| s.sent),
    );
    for violation in &driver.violations {
        eprintln!("  violation: {violation}");
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scenario with a simulator-only fault action is refused before any
    /// node is contacted, and the refusal names every live-capable one.
    #[test]
    fn drive_refuses_a_simulator_only_scenario_and_lists_the_live_ones() {
        let cluster = std::env::temp_dir().join(format!("drive-refusal-{}", std::process::id()));
        let no_nodes = r#"{"node_kind": "sharedmem", "tick_ms": 10, "initial_n": 4, "nodes": []}"#;
        std::fs::write(&cluster, no_nodes).expect("the cluster file is written");
        let args = ["partition-heal", "--cluster", cluster.to_str().unwrap()].map(String::from);
        let refusal = cmd_drive(&args).expect_err("partition-heal has no live adapter");
        let _ = std::fs::remove_file(&cluster);
        let live = "quiescent, crash-minority, churn, gray-lag, clock-skew, crash-recovery";
        assert!(
            refusal.ends_with(&format!("live-capable scenarios: {live}")),
            "{refusal}"
        );
    }
}
