//! `live-n4`: the second backend. Four real `simctl node --kind sharedmem`
//! processes over loopback TCP at a 2 ms tick, driven closed-loop over
//! `livenet::ControlClient`. The only workload that exercises
//! `simnet::codec`, `livenet::frame`, sockets, threads and the control
//! plane; the simulator workloads bypass all of it.
//!
//! No delay is injected: loopback latency is the tick period plus processor
//! time.
//!
//! The nodes are this process's own children (spawned the way
//! `simctl deploy` spawns them: bind, announce `READY`, wait for the cluster
//! file), so every one of them can be stopped *and waited for* — on
//! success, on a failed check and on a panic ([`Cluster`]'s `Drop`).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use livenet::{hex_decode, ClusterSpec, ControlClient, NodeSpec};
use rand::RngCore;
use simnet::report::Json;
use simnet::{ProcessId, SimRng};

use crate::harness::{tokens_agree, Outcome, RunArgs, SetupClock};
use crate::stats::{fast_high, fast_low, percentile, sorted, tail_percentile};
use crate::timed::{now_ns, Tracer};
use crate::{machine, spec, wire, write_trace};

const KIND: &str = "sharedmem";
const N: usize = 4;
pub const TICK_MS: u64 = 2;
/// Logical clients the keys are drawn from (folded onto the registers).
const KEYSPACE: u64 = 1_000;
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);
const CONTROL_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a node may take to exit after `shutdown` before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(2);
const CLAIM_POLL: Duration = Duration::from_micros(500);
/// An op unclaimed for this long has failed.
const OP_DEADLINE: Duration = Duration::from_secs(5);
const WARM_UP: Duration = Duration::from_secs(1);
const BLOCK: Duration = Duration::from_secs(1);
/// After the kill, the loop keeps running this long.
const KILL_PHASE: Duration = Duration::from_secs(2);
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Clusters booted per run; the last one is measured.
const SETUPS: usize = 3;

/// Builds `simctl` with the root workspace's own release profile. Cargo is
/// the judge of freshness: the benchmark never starts a `simctl` that cargo
/// has not just built or vouched for, so it cannot measure a stale binary.
/// (Comparing file times on top of that refused good binaries wherever a
/// checkout's file times and the build's do not share a clock.)
pub fn ensure_simctl() -> Result<PathBuf, String> {
    let root = machine::repo_root();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "simctl"])
        .current_dir(&root)
        .stdin(Stdio::null())
        // Cargo's progress belongs on stderr; stdout carries the result line.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building simctl failed: {status}"));
    }
    let simctl = machine::root_target_dir().join("release/simctl");
    if !simctl.is_file() {
        return Err(format!("cargo built no {}", simctl.display()));
    }
    Ok(simctl)
}

/// One node's parsed `status` reply.
#[derive(Clone, Debug, Default)]
struct Status {
    settled: bool,
    token: String,
    ticks: u64,
    sent: u64,
    drops: u64,
    decode_errors: u64,
}

fn parse_status(json: &Json) -> Status {
    let get = |key: &str| json.get(key).and_then(Json::as_u64).unwrap_or(0);
    Status {
        settled: json.get("settled").and_then(Json::as_bool).unwrap_or(false),
        token: json
            .get("token")
            .and_then(Json::as_str)
            .and_then(hex_decode)
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .unwrap_or_default(),
        ticks: get("ticks"),
        sent: get("sent"),
        drops: get("drops"),
        decode_errors: get("decode_errors"),
    }
}

struct Node {
    spec: NodeSpec,
    child: Child,
    /// The benchmark's own control connection (status sampling).
    control: Option<ControlClient>,
}

/// A booted cluster. Dropping it stops every node and waits for it.
struct Cluster {
    nodes: Vec<Node>,
    dir: PathBuf,
    forced_kills: u64,
    boot_ms: f64,
}

/// Spawns one node and reads its `READY` line, with a deadline: a node that
/// never announces is killed, not waited on forever.
fn spawn_node(simctl: &Path, dir: &Path, id: u32) -> Result<Node, String> {
    let cluster_file = dir.join("cluster.json");
    let log = std::fs::File::create(dir.join(format!("p{id}.log")))
        .map_err(|e| format!("creating node log: {e}"))?;
    let mut child = Command::new(simctl)
        .arg("node")
        .args(["--kind", KIND])
        .args(["--id", &id.to_string()])
        .args(["--n", &N.to_string()])
        .args(["--tick-ms", &TICK_MS.to_string()])
        .arg("--cluster")
        .arg(&cluster_file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log))
        .spawn()
        .map_err(|e| format!("spawning node p{id}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    // The reader ends with the line, or with the pipe when the child dies.
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(BOOT_TIMEOUT).unwrap_or_default();
    let parsed = parse_ready(&line, id);
    if parsed.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    // Killing the child closed the pipe, so the reader has finished.
    let _ = reader.join();
    let (data_port, control_port) = parsed?;
    Ok(Node {
        spec: NodeSpec {
            id: ProcessId::new(id),
            host: "127.0.0.1".to_string(),
            data_port,
            control_port,
            pid: Some(child.id()),
            joiner: false,
        },
        child,
        control: None,
    })
}

/// `READY id=<id> data=<port> control=<port> pid=<pid>`
fn parse_ready(line: &str, id: u32) -> Result<(u16, u16), String> {
    let field = |key: &str| {
        line.split_whitespace()
            .filter_map(|word| word.split_once('='))
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .ok_or_else(|| format!("node p{id} announced `{}` (no `{key}`)", line.trim()))
    };
    if !line.starts_with("READY") || field("id")? != u64::from(id) {
        return Err(format!("node p{id} announced `{}`", line.trim()));
    }
    Ok((field("data")? as u16, field("control")? as u16))
}

impl Cluster {
    /// Boots N nodes into a fresh directory and waits until every one is
    /// settled and all agree — the live counterpart of bootstrapping from
    /// `config = ⊥`.
    fn boot(simctl: &Path, dir: PathBuf) -> Result<Cluster, String> {
        let started = Instant::now();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut cluster = Cluster {
            nodes: Vec::new(),
            dir,
            forced_kills: 0,
            boot_ms: 0.0,
        };
        for id in 0..N as u32 {
            let node = spawn_node(simctl, &cluster.dir, id)?;
            cluster.nodes.push(node);
        }
        let spec = ClusterSpec {
            node_kind: KIND.to_string(),
            tick_ms: TICK_MS,
            initial_n: N,
            nodes: cluster.nodes.iter().map(|n| n.spec.clone()).collect(),
        };
        let file = cluster.dir.join("cluster.json");
        spec.save(&file)
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        let deadline = started + BOOT_TIMEOUT;
        for node in &mut cluster.nodes {
            node.control = Some(loop {
                match ControlClient::connect(&node.spec.control_addr(), CONTROL_TIMEOUT) {
                    Ok(client) => break client,
                    Err(e) if Instant::now() >= deadline => {
                        return Err(format!("node {} never answered: {e}", node.spec.id))
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            });
        }
        cluster.wait_settled(deadline.saturating_duration_since(Instant::now()))?;
        cluster.boot_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(cluster)
    }

    /// `status` of every node still running, with the round trip of each
    /// request in microseconds.
    fn statuses(&mut self) -> Result<Vec<(Status, f64)>, String> {
        let mut out = Vec::new();
        for node in &mut self.nodes {
            let control = node.control.as_mut().expect("boot connected every node");
            let started = Instant::now();
            let json = control
                .request("status")
                .map_err(|e| format!("status of {}: {e}", node.spec.id))?;
            out.push((parse_status(&json), started.elapsed().as_secs_f64() * 1e6));
        }
        Ok(out)
    }

    /// Polls until every running node is settled and all tokens agree;
    /// returns how long that took.
    fn wait_settled(&mut self, timeout: Duration) -> Result<Duration, String> {
        let started = Instant::now();
        loop {
            let statuses = self.statuses()?;
            if statuses.iter().all(|(s, _)| s.settled)
                && tokens_agree(statuses.iter().map(|(s, _)| s.token.clone()))
            {
                return Ok(started.elapsed());
            }
            if started.elapsed() >= timeout {
                return Err(format!(
                    "cluster did not settle within {timeout:?}: {:?}",
                    statuses
                        .iter()
                        .map(|(s, _)| (s.settled, &s.token))
                        .collect::<Vec<_>>()
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// CPU nanoseconds consumed so far by all running nodes together.
    fn cpu_ns(&self) -> Result<u64, String> {
        self.nodes
            .iter()
            .map(|n| {
                machine::cpu_ns(n.child.id())
                    .ok_or_else(|| format!("no CPU time for {}", n.spec.id))
            })
            .sum()
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        self.nodes
            .iter()
            .map(|n| {
                machine::peak_rss_mb(n.child.id())
                    .ok_or_else(|| format!("no VmHWM for {}", n.spec.id))
            })
            .sum()
    }

    /// `kill -9` of one node (the crash fault), waited for.
    fn kill(&mut self, id: ProcessId) -> Result<(), String> {
        let at = self
            .nodes
            .iter()
            .position(|n| n.spec.id == id)
            .ok_or_else(|| format!("no node {id}"))?;
        let mut node = self.nodes.remove(at);
        node.child
            .kill()
            .map_err(|e| format!("kill -9 {id}: {e}"))?;
        node.child
            .wait()
            .map_err(|e| format!("waiting for {id}: {e}"))?;
        Ok(())
    }

    /// Asks every node to shut down, waits for each to exit, and kills the
    /// ones that do not within the grace period. Idempotent.
    fn shutdown(&mut self) {
        for node in &mut self.nodes {
            if let Some(control) = node.control.as_mut() {
                let _ = control.request("shutdown");
            }
            node.control = None;
        }
        let deadline = Instant::now() + EXIT_GRACE;
        for mut node in self.nodes.drain(..) {
            loop {
                match node.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        self.forced_kills += 1;
                        let _ = node.child.kill();
                        let _ = node.child.wait();
                        break;
                    }
                }
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One completed client operation, on the [`now_ns`] clock.
#[derive(Clone, Copy)]
struct Op {
    start_ns: u64,
    submitted_ns: u64,
    done_ns: u64,
    claim_polls: u64,
}

/// One closed-loop client: submit, poll `claim` until the op completes, only
/// then the next op. Runs until `stop`; an op that is refused, fails or is
/// never claimed ends the client with an error.
fn client(
    addr: String,
    index: u64,
    clients: u64,
    seed: u64,
    stop: &AtomicBool,
) -> Result<Vec<Op>, String> {
    let mut control = ControlClient::connect(&addr, CONTROL_TIMEOUT)
        .map_err(|e| format!("client {index}: connecting {addr}: {e}"))?;
    let mut rng = SimRng::seed_from(seed ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut ops = Vec::new();
    let mut sequence = index;
    while !stop.load(Ordering::Relaxed) {
        let key = rng.next_u64() % KEYSPACE;
        // Values are unique across clients; every third is a read.
        let value = sequence;
        sequence += clients;
        let start_ns = now_ns();
        let reply = control
            .request(&format!("submit {key} {value}"))
            .map_err(|e| format!("client {index}: submit: {e}"))?;
        if reply.get("accepted").and_then(Json::as_bool) != Some(true) {
            return Err(format!("client {index}: op {value} was refused"));
        }
        let submitted_ns = now_ns();
        let give_up = Instant::now() + OP_DEADLINE;
        let mut claim_polls = 0;
        loop {
            let reply = control
                .request("claim")
                .map_err(|e| format!("client {index}: claim: {e}"))?;
            claim_polls += 1;
            if reply.get("claimed").and_then(Json::as_bool) == Some(true) {
                if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!(
                        "client {index}: op {value} was not acknowledged ok"
                    ));
                }
                break;
            }
            if Instant::now() >= give_up {
                return Err(format!("client {index}: op {value} was never claimed"));
            }
            std::thread::sleep(CLAIM_POLL);
        }
        ops.push(Op {
            start_ns,
            submitted_ns,
            done_ns: now_ns(),
            claim_polls,
        });
    }
    Ok(ops)
}

/// What the benchmark sampled at one block boundary.
struct Sample {
    at_ns: u64,
    cpu_ns: u64,
    statuses: Vec<Status>,
}

fn sample(cluster: &mut Cluster, rtts_us: &mut Vec<f64>) -> Result<Sample, String> {
    let statuses = cluster.statuses()?;
    rtts_us.extend(statuses.iter().map(|(_, rtt)| rtt));
    Ok(Sample {
        at_ns: now_ns(),
        cpu_ns: cluster.cpu_ns()?,
        statuses: statuses.into_iter().map(|(s, _)| s).collect(),
    })
}

fn sum(sample: &Sample, field: impl Fn(&Status) -> u64) -> u64 {
    sample.statuses.iter().map(field).sum()
}

fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

pub fn run(args: &RunArgs, simctl: &Path) -> Result<Outcome, String> {
    let clients = simnet::exec::available_jobs().clamp(1, N - 1) as u64;
    let victim = ProcessId::new(N as u32 - 1);
    let mut out = Outcome::default();
    out.note(format!(
        "{N} x `simctl node --kind {KIND}` on loopback, tick {TICK_MS} ms; closed loop, {clients} clients \
         (one connection each to p0..p{}), claim poll {CLAIM_POLL:?}; warm-up {WARM_UP:?}, window {} s",
        clients - 1,
        args.seconds
    ));
    out.note("no delay or loss is injected: latency is the tick period plus processor time");

    // Set-up: boot a cluster to its settled state, SETUPS times; the last
    // one is measured, the others are torn down again (outside the timing).
    let base = machine::out_dir().join(format!("live-{}-seed{}", std::process::id(), args.seed));
    let mut setups = SetupClock::default();
    let mut cluster = None;
    for boot in 0..SETUPS {
        // Tearing the previous cluster down comes first and is not timed:
        // `boot_ms` starts inside `Cluster::boot`.
        drop(cluster.take());
        let booted = Cluster::boot(simctl, base.join(format!("boot{boot}")))?;
        setups.record(booted.boot_ms / 1e3);
        cluster = Some(booted);
    }
    let mut cluster = cluster.expect("SETUPS > 0");

    let stop = AtomicBool::new(false);
    let mut rtts_us = Vec::new();
    let half = args.trace.then_some(args.seconds.div_ceil(2));
    let (window, ops) = std::thread::scope(|scope| -> Result<(Window, Vec<Op>), String> {
        let workers: Vec<_> = (0..clients)
            .map(|i| {
                let addr = cluster.nodes[i as usize].spec.control_addr();
                let stop = &stop;
                scope.spawn(move || client(addr, i, clients, args.seed, stop))
            })
            .collect();
        // Whatever happens below, the clients must be told to stop, or the
        // scope never ends.
        let result = drive(&mut cluster, args, half, victim, &mut rtts_us);
        stop.store(true, Ordering::Relaxed);
        let mut ops = Vec::new();
        for worker in workers {
            ops.extend(
                worker
                    .join()
                    .map_err(|_| "a client thread panicked".to_string())??,
            );
        }
        ops.sort_by_key(|op| op.done_ns);
        Ok((result?, ops))
    })?;

    // Every op was acknowledged ok (a client errors out otherwise); now the
    // survivors must come to rest in agreement, with clean wire counters.
    let resettle = cluster.wait_settled(SETTLE_TIMEOUT)?;
    let last = sample(&mut cluster, &mut rtts_us)?;
    if sum(&last, |s| s.decode_errors) != 0 {
        return Err(format!(
            "nodes saw {} undecodable frames",
            sum(&last, |s| s.decode_errors)
        ));
    }
    let peak_rss_mb = cluster.peak_rss_mb()?;
    cluster.shutdown();
    let forced_kills = cluster.forced_kills;
    drop(cluster);
    // Every cluster removed its own directory; the parent is now empty.
    let _ = std::fs::remove_dir(&base);

    let Window {
        samples,
        kill_at_ns,
    } = window;
    let window = (
        samples.first().expect("window sampled").at_ns,
        samples.last().expect("window sampled").at_ns,
    );
    let in_window: Vec<&Op> = ops
        .iter()
        .filter(|op| op.done_ns > window.0 && op.done_ns <= window.1)
        .collect();
    if in_window.len() < 100 {
        return Err(format!(
            "only {} ops completed in the window",
            in_window.len()
        ));
    }
    let latency_ms = sorted(
        in_window
            .iter()
            .map(|op| (op.done_ns - op.start_ns) as f64 / 1e6)
            .collect(),
    );
    // Block-wise: wall per frame sent and ops per second, the fast decile of
    // each. (CPU per frame is a per-layer metric: in this sandbox a node's
    // CPU time per frame drifts between 14 and 27 µs over minutes with the
    // host's load, while everything measured against the wall clock holds
    // to a percent.)
    let mut ns_per_frame = Vec::new();
    let mut ops_per_s = Vec::new();
    for pair in samples.windows(2) {
        let frames = sum(&pair[1], |s| s.sent) - sum(&pair[0], |s| s.sent);
        let done = ops
            .iter()
            .filter(|op| op.done_ns > pair[0].at_ns && op.done_ns <= pair[1].at_ns)
            .count();
        let block_ns = (pair[1].at_ns - pair[0].at_ns) as f64;
        ns_per_frame.push(block_ns / frames.max(1) as f64);
        ops_per_s.push(done as f64 / (block_ns / 1e9));
    }
    let (first, end) = (&samples[0], &samples[samples.len() - 1]);
    let frames = sum(end, |s| s.sent) - sum(first, |s| s.sent);
    let blocks = ns_per_frame.len() as u64;
    out.attempted = ops.len() as u64;
    setups.report(&mut out)?;
    out.set(
        spec::NS_PER_MSG,
        fast_low(&ns_per_frame).expect("blocks > 0"),
        blocks,
    );
    out.set(
        spec::WORK_PER_S,
        fast_high(&ops_per_s).expect("blocks > 0"),
        blocks,
    );
    out.set(
        spec::RESPONSE_TICKS_P50,
        percentile(&latency_ms, 50.0).expect("ops > 0") / TICK_MS as f64,
        latency_ms.len() as u64,
    );
    out.set(
        spec::MSGS_PER_WORK,
        frames as f64 / in_window.len() as f64,
        in_window.len() as u64,
    );
    out.set(spec::PEAK_RSS_MB, peak_rss_mb, N as u64);
    if !args.trace {
        return Ok(out);
    }

    let window_s = (window.1 - window.0) as f64 / 1e9;
    let ticks =
        (sum(end, |s| s.ticks) - sum(first, |s| s.ticks)) as f64 / end.statuses.len() as f64;
    out.set(
        "livenet.runtime.boot_ms",
        setups.median()? * 1e3,
        SETUPS as u64,
    );
    out.set(
        "livenet.control.rtt_us_p50",
        crate::stats::median(&rtts_us).expect("sampled"),
        rtts_us.len() as u64,
    );
    out.set(
        "livenet.runtime.frames_per_op",
        frames as f64 / in_window.len() as f64,
        in_window.len() as u64,
    );
    out.set(
        "livenet.runtime.cpu_us_per_frame",
        (end.cpu_ns - first.cpu_ns) as f64 / frames.max(1) as f64 / 1e3,
        frames,
    );
    out.set(
        "livenet.runtime.tick_rate_ratio",
        ticks / (window_s * 1e3 / TICK_MS as f64),
        N as u64,
    );
    out.set("livenet.runtime.drops", sum(&last, |s| s.drops) as f64, 1);
    out.set(
        "livenet.runtime.decode_errors",
        sum(&last, |s| s.decode_errors) as f64,
        1,
    );
    out.set(
        "livenet.runtime.op_p50_ms",
        percentile(&latency_ms, 50.0).expect("ops > 0"),
        latency_ms.len() as u64,
    );
    out.set(
        "livenet.runtime.op_p99_ms",
        tail_percentile(&latency_ms, 99.0).unwrap_or(0.0),
        latency_ms.len() as u64,
    );
    let kill_at_ns = kill_at_ns.expect("the traced run kills a node");
    let after_kill: Vec<u64> = std::iter::once(kill_at_ns)
        .chain(
            ops.iter()
                .map(|op| op.done_ns)
                .filter(|done| *done > kill_at_ns),
        )
        .collect();
    let max_gap = after_kill
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(0);
    out.set(
        "livenet.runtime.kill_max_gap_ms",
        max_gap as f64 / 1e6,
        after_kill.len() as u64 - 1,
    );
    out.set(
        "livenet.runtime.resettle_ms",
        resettle.as_secs_f64() * 1e3,
        1,
    );
    out.set("livenet.runtime.forced_kills", forced_kills as f64, 1);
    wire::measure(&mut out, args.seed)?;

    // The traced half of the window: one span per op with its control-plane
    // children, against the untraced half before it.
    let split = samples[half.expect("traced") as usize].at_ns;
    let rate = |from: u64, to: u64| {
        ops.iter()
            .filter(|op| op.done_ns > from && op.done_ns <= to)
            .count() as f64
            / ((to - from) as f64 / 1e9)
    };
    out.set(
        "trace.overhead_pct",
        (rate(window.0, split) / rate(split, window.1) - 1.0) * 100.0,
        in_window.len() as u64,
    );
    let mut tracer = Tracer::default();
    let pass = tracer.span(
        0,
        format!("{}.traced_pass", spec::LIVE),
        split,
        window.1,
        0,
        1,
    );
    for op in ops
        .iter()
        .filter(|op| op.start_ns >= split && op.done_ns <= window.1)
    {
        let span = tracer.span(pass, "livenet.op", op.start_ns, op.done_ns, 0, 1);
        tracer.span(
            span,
            "livenet.control.submit",
            op.start_ns,
            op.submitted_ns,
            op.submitted_ns - op.start_ns,
            1,
        );
        tracer.span(
            span,
            "livenet.control.claim_wait",
            op.submitted_ns,
            op.done_ns,
            op.done_ns - op.submitted_ns,
            op.claim_polls,
        );
    }
    out.set("trace.spans", tracer.spans.len() as f64, 1);
    let path = write_trace(args, &tracer.render())?;
    out.note(format!("spans written to {}", path.display()));
    Ok(out)
}

/// What [`drive`] saw: one sample per block boundary of the window, first
/// to last, and when it crashed a node (traced run only).
struct Window {
    samples: Vec<Sample>,
    kill_at_ns: Option<u64>,
}

/// The benchmark's side of the window while the clients run: warm up, then
/// sample the nodes at every block boundary; in the traced run, sample four
/// times as often in the second half, then crash a node no client is
/// attached to and keep the loop running.
fn drive(
    cluster: &mut Cluster,
    args: &RunArgs,
    traced_from_block: Option<u64>,
    victim: ProcessId,
    rtts_us: &mut Vec<f64>,
) -> Result<Window, String> {
    let start = Instant::now() + WARM_UP;
    sleep_until(start);
    let mut samples = vec![sample(cluster, rtts_us)?];
    for block in 1..=args.seconds {
        let traced = traced_from_block.is_some_and(|from| block > from);
        let steps = if traced { 4 } else { 1 };
        for step in 1..=steps {
            sleep_until(start + BLOCK * (block as u32 - 1) + BLOCK * step / steps);
            let s = sample(cluster, rtts_us)?;
            // Only block boundaries delimit blocks; the denser samples feed
            // the control-plane round-trip figure.
            if step == steps {
                samples.push(s);
            }
        }
    }
    let mut kill_at_ns = None;
    if args.trace {
        cluster.kill(victim)?;
        kill_at_ns = Some(now_ns());
        std::thread::sleep(KILL_PHASE);
    }
    Ok(Window {
        samples,
        kill_at_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn ready_lines_parse_and_strangers_are_refused() {
        assert_eq!(
            parse_ready("READY id=2 data=40123 control=40124 pid=77\n", 2),
            Ok((40123, 40124))
        );
        // Another node's announcement, a truncated one, and a dead child's
        // empty line are all refused.
        assert!(parse_ready("READY id=3 data=1 control=2 pid=7", 2).is_err());
        assert!(parse_ready("READY id=2 data=40123", 2).is_err());
        assert!(parse_ready("", 2).is_err());
    }

    #[test]
    fn tokens_decode_from_status_replies() {
        let reply = Json::parse(
            "{\"id\":1,\"settled\":true,\"token\":\"636f6e6669673d7b307d\",\"ticks\":9,\"sent\":27,\"drops\":0,\"decode_errors\":0}",
        )
        .unwrap();
        let status = parse_status(&reply);
        assert!(status.settled);
        assert_eq!(status.token, "config={0}");
        assert_eq!((status.ticks, status.sent), (9, 27));
    }

    /// The hygiene the live harness promises: a cluster boots into a fresh
    /// directory, and when the code holding it panics, every node it spawned
    /// is gone by the time the panic has unwound.
    #[test]
    fn a_panic_leaves_no_node_behind() {
        let simctl = ensure_simctl().expect("simctl builds");
        let dir = machine::out_dir().join(format!("test-guard-{}", std::process::id()));
        let pids = Mutex::new(Vec::new());
        let unwound = std::panic::catch_unwind(|| {
            let mut cluster = Cluster::boot(&simctl, dir.clone()).expect("the cluster boots");
            assert!(dir.join("cluster.json").is_file());
            assert_eq!(cluster.statuses().expect("nodes answer").len(), N);
            *pids.lock().unwrap() = cluster.nodes.iter().map(|n| n.child.id()).collect();
            panic!("a correctness check failed");
        });
        assert!(unwound.is_err());
        let pids = pids.into_inner().unwrap();
        assert_eq!(pids.len(), N);
        for pid in pids {
            assert!(
                !Path::new(&format!("/proc/{pid}")).exists(),
                "node pid {pid} outlived the cluster guard"
            );
        }
        assert!(!dir.exists(), "the cluster directory was left behind");
    }
}
