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
//! spawns, `SetTimer`/`SetTimerFloor` become control-plane timer retuning
//! — and renders a live, `RunRecord`-shaped JSON report with the familiar
//! counter and latency columns. Only [`simnet::Scenario::live_capable`]
//! scenarios are accepted; the rest are refused up front.
//!
//! Liveness of the drive itself is bounded: the fault schedule runs for a
//! fixed number of wall ticks, and convergence polling is capped by
//! `--timeout-secs`. Teardown is `simctl down` (graceful `shutdown` per
//! node with a `kill -9` fallback), which CI runs from an exit trap.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use livenet::control::control_request;
use livenet::{hex_decode, ClusterSpec, NodeSpec};
use simnet::report::Json;
use simnet::{Histogram, ProcessId, Round, SimRng};

use crate::{Flags, NODES};

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
/// CrashPlan adapter: `kill -9` one node by protocol id.
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
    /// slow-not-dead invariant tracks their timer progress.
    slowed: BTreeSet<ProcessId>,
    counters: BTreeMap<String, u64>,
    violations: Vec<String>,
}

impl Driver {
    fn bump(&mut self, key: &str, by: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += by;
    }

    fn spawn_fresh(&mut self, count: u32, rejoin: bool) -> Result<(), String> {
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
            self.spec
                .save(&self.cluster)
                .map_err(|e| format!("rewriting {}: {e}", self.cluster.display()))?;
            self.alive.insert(id, node);
            self.bump(if rejoin { "live_rejoins" } else { "live_joins" }, 1);
        }
        Ok(())
    }

    fn apply_action(&mut self, action: &simnet::FaultAction) -> Result<(), String> {
        use simnet::FaultAction;
        match action {
            FaultAction::Crash(victim) => {
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
                self.spec
                    .save(&self.cluster)
                    .map_err(|e| format!("rewriting {}: {e}", self.cluster.display()))?;
                self.bump("live_crashes", 1);
            }
            FaultAction::Join { count } => self.spawn_fresh(*count, false)?,
            FaultAction::Rejoin { count } => self.spawn_fresh(*count, true)?,
            FaultAction::SetTimer { victim, period } => {
                if let Some(node) = self.alive.get(victim) {
                    let line = match period {
                        Some(p) => format!("timer {p}"),
                        None => "timer default".to_string(),
                    };
                    let _ = control_request(&node.control_addr(), &line, CONTROL_TIMEOUT);
                    match period {
                        Some(_) => {
                            self.slowed.insert(*victim);
                        }
                        None => {
                            self.slowed.remove(victim);
                        }
                    }
                    self.bump("live_timer_overrides", 1);
                }
            }
            FaultAction::SetTimerFloor { victim, period } => {
                if let Some(node) = self.alive.get(victim) {
                    let line = format!("floor {period}");
                    let _ = control_request(&node.control_addr(), &line, CONTROL_TIMEOUT);
                    self.slowed.insert(*victim);
                    self.bump("live_timer_overrides", 1);
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
        let live: Vec<&str> = simnet::scenario::catalog(n)
            .iter()
            .filter(|s| s.live_capable())
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .into_iter()
            .map(|s| Box::leak(s.to_string().into_boxed_str()) as &str)
            .collect();
        return Err(format!(
            "scenario `{scenario_name}` schedules simulator-only fault actions \
             (partitions, channel policies, corruption or injection); live-capable \
             scenarios: {}",
            live.join(", ")
        ));
    }
    let clients: u64 = parse_flag(&flags, "clients", 0u64)?;
    let arrival = simnet::Arrival::parse(flags.value("arrival").unwrap_or("poisson:2"))?;
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
        slowed: BTreeSet::new(),
        counters: BTreeMap::new(),
        violations: Vec::new(),
        spec,
        cluster,
    };
    let mut rng = SimRng::seed_from(seed);
    let mut pending: BTreeMap<ProcessId, VecDeque<Instant>> = BTreeMap::new();
    let mut latencies = Histogram::new();
    let tick = Duration::from_millis(driver.spec.tick_ms.max(1));

    // Phase 1: replay the fault schedule (and the workload window) in wall
    // time, one scenario round per tick.
    let workload_until = if clients > 0 {
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
        if round < workload_until {
            let live_ids: Vec<ProcessId> = driver.alive.keys().copied().collect();
            for _ in 0..arrival.draw(&mut rng, round) {
                let client = rng.range_inclusive(0, clients.max(1) - 1);
                if live_ids.is_empty() {
                    driver.bump("ops_rejected", 1);
                    continue;
                }
                let via = live_ids[(client % live_ids.len() as u64) as usize];
                let value = driver.counters.get("ops_submitted").copied().unwrap_or(0);
                let line = format!("submit {client} {value}");
                let Some(node) = driver.alive.get(&via) else {
                    continue;
                };
                let accepted = control_request(&node.control_addr(), &line, CONTROL_TIMEOUT)
                    .ok()
                    .and_then(|j| j.get("accepted").and_then(Json::as_bool))
                    .unwrap_or(false);
                if accepted {
                    driver.bump("ops_submitted", 1);
                    pending.entry(via).or_default().push_back(Instant::now());
                } else {
                    driver.bump("ops_rejected", 1);
                }
            }
        }
        claim_completions(&mut driver, &mut pending, &mut latencies);
    }

    // Phase 2: poll for convergence — every live node settled, and their
    // settle tokens agree per key. Meanwhile keep claiming op completions
    // and watching the per-class runner invariants.
    let poll = tick.max(Duration::from_millis(50));
    let deadline = Instant::now() + timeout;
    let mut slow_progress: BTreeMap<ProcessId, (u64, u64)> = BTreeMap::new();
    let (converged_at, final_stats) = loop {
        std::thread::sleep(poll);
        claim_completions(&mut driver, &mut pending, &mut latencies);

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
                    // Slow-not-dead: a timer-degraded node must keep taking
                    // timer steps.
                    if driver.slowed.contains(id) {
                        let entry = slow_progress
                            .entry(*id)
                            .or_insert((status.ticks, status.ticks));
                        entry.1 = status.ticks;
                    }
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
    for (id, (first, last)) in &slow_progress {
        if last <= first {
            driver.violations.push(format!(
                "slowed {id} made no timer progress ({first} → {last})"
            ));
        }
    }
    let unclaimed: u64 = pending.values().map(|q| q.len() as u64).sum();
    if unclaimed > 0 {
        driver.bump("ops_unclaimed", unclaimed);
    }

    // Fold the live run into a RunRecord-shaped report.
    let elapsed = started.elapsed();
    let rounds_run = (elapsed.as_millis() as u64) / driver.spec.tick_ms.max(1);
    let converged = converged_at.is_some();
    if let Some(at) = converged_at {
        driver
            .counters
            .insert("live_converged_ms".to_string(), at.as_millis() as u64);
    }
    if latencies.count() > 0 {
        for (key, p) in [
            ("op_latency_p50_ms", 50.0),
            ("op_latency_p99_ms", 99.0),
            ("op_latency_p999_ms", 99.9),
        ] {
            if let Some(v) = latencies.percentile(p) {
                driver.counters.insert(key.to_string(), v);
            }
        }
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
            match converged_at {
                Some(at) => Json::UInt((at.as_millis() as u64) / driver.spec.tick_ms.max(1)),
                None => Json::Null,
            },
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

    let ops_ok = driver
        .counters
        .get("ops_completed_ok")
        .copied()
        .unwrap_or(0);
    let passed = converged && driver.violations.is_empty() && (clients == 0 || ops_ok > 0);
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
        "  [{status}] live {}/{} seed={seed} rounds={rounds_run} msgs={} ops_ok={ops_ok}",
        driver.spec.node_kind,
        scenario.name(),
        sum(|s| s.sent),
    );
    for violation in &driver.violations {
        eprintln!("  violation: {violation}");
    }
    Ok(passed)
}

/// Claims every available op completion FIFO per node, folding latencies.
fn claim_completions(
    driver: &mut Driver,
    pending: &mut BTreeMap<ProcessId, VecDeque<Instant>>,
    latencies: &mut Histogram,
) {
    let mut done: Vec<(ProcessId, bool)> = Vec::new();
    for (id, queue) in pending.iter() {
        if queue.is_empty() {
            continue;
        }
        let Some(node) = driver.alive.get(id) else {
            continue;
        };
        for _ in 0..queue.len() {
            let claimed = control_request(&node.control_addr(), "claim", CONTROL_TIMEOUT)
                .ok()
                .filter(|j| j.get("claimed").and_then(Json::as_bool) == Some(true))
                .map(|j| j.get("ok").and_then(Json::as_bool).unwrap_or(false));
            match claimed {
                Some(ok) => done.push((*id, ok)),
                None => break,
            }
        }
    }
    for (id, ok) in done {
        if let Some(invoked) = pending.get_mut(&id).and_then(VecDeque::pop_front) {
            latencies.record(invoked.elapsed().as_millis() as u64);
        }
        driver.bump(if ok { "ops_completed_ok" } else { "ops_failed" }, 1);
    }
}
