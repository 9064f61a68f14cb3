//! The threaded node runtime: one OS process per protocol process.
//!
//! Thread layout per node:
//!
//! ```text
//!            ┌ acceptor ─ per-inbound-connection reader threads ┐
//!            ├ timer (wall clock, tick_ms per tick)             ├─ mpsc ─▶ event loop
//!            └ control acceptor ─ per-connection line handlers  ┘           (owns the
//!   per-peer writer threads (reconnect + backoff) ◀─ bounded queues ──────   process)
//! ```
//!
//! The event loop is the only thread touching the protocol state. It turns
//! every timer tick into a [`Process::on_timer`] step and every decoded
//! frame into [`Process::on_message`], building the same [`Context`] the
//! simulator's scheduler builds (all known ids, current timer round). A
//! client operation does not wait for a tick: an accepted `submit` and
//! every delivery are followed by [`ScenarioTarget::start_local`], which
//! starts the next queued operation when its slot is free and does nothing
//! else (it is not a loop iteration — see the hook's contract). A `claim`
//! that finds no completion waits in the loop, up to one base tick, when
//! its connection has an accepted `submit` it has not claimed yet (see
//! [`crate::control`]): the next completion the node records answers it.
//! After each event the loop routes the drained outbox: self-sends loop
//! straight back onto the event queue, peer sends are encoded once and
//! handed to that peer's writer thread. Writer queues are bounded and
//! lossy — a slow or dead peer costs dropped frames, never a stalled event
//! loop — matching the simulator's fair-lossy channel model.
//!
//! Peers are discovered from the cluster file and from inbound [`Hello`]s
//! (which carry the dialer's data port), so a rejoiner with a fresh id that
//! was never in the file becomes routable on first contact.
//!
//! [`Process::on_timer`]: simnet::Process::on_timer
//! [`Process::on_message`]: simnet::Process::on_message

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use simnet::codec::WireCodec;
use simnet::report::Json;
use simnet::scenario::ScenarioTarget;
use simnet::{Context, Payload, ProcessId, Round};

use crate::cluster::ClusterSpec;
use crate::control::{render_line, Request};
use crate::frame::{read_frame, write_frame, Hello};
use crate::hex_encode;

/// Per-peer writer queue depth. Frames beyond this are dropped (and
/// counted), like the simulator's bounded fair-lossy channels.
const WRITER_QUEUE: usize = 1024;

/// Reconnect backoff bounds for writer threads.
const BACKOFF_MIN: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// How long a freshly started node waits for the cluster file to list it.
const CLUSTER_FILE_WAIT: Duration = Duration::from_secs(30);

/// How often a waiting node looks for the cluster file. The nodes of a
/// fresh cluster start serving when each one next looks, so this bounds
/// their start skew, and the skew must stay well below a tick: a pair that
/// starts a dozen ticks early trusts only itself, and recMA's majority
/// collapse then reconfigures the cluster just after boot (docs/LIVE.md,
/// "Start skew").
const CLUSTER_FILE_POLL: Duration = Duration::from_millis(1);

/// Configuration for one live node process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's protocol process id.
    pub me: ProcessId,
    /// Initial population size (the `n` passed to `spawn_initial`).
    pub n: usize,
    /// Spawn as joiner (fresh id arriving into a running system)?
    pub joiner: bool,
    /// Wall milliseconds per timer tick.
    pub tick_ms: u64,
    /// Cluster file to learn peer addresses from. The node binds its own
    /// ports first, announces them on stdout, then waits for this file to
    /// list its id (deploy writes it after collecting every announcement).
    pub cluster_path: PathBuf,
}

/// Counters the event loop maintains and `status` reports.
#[derive(Debug, Default, Clone)]
pub struct NodeStats {
    /// Timer steps executed.
    pub ticks: u64,
    /// Frames handed to writer threads.
    pub sent: u64,
    /// Frames decoded and delivered to `on_message`.
    pub recv: u64,
    /// Frames dropped: full writer queue, no known address for the peer, a
    /// peer whose writer failed its last connect attempt, or frames a writer
    /// discarded because they were queued before its connect failed.
    pub drops: u64,
    /// Inbound frames that failed to decode.
    pub decode_errors: u64,
    /// Client operations accepted via `submit`.
    pub submitted: u64,
    /// Client operations claimed as committed / as failed.
    pub completed_ok: u64,
    /// See [`NodeStats::completed_ok`].
    pub completed_fail: u64,
}

enum Event<M> {
    Tick,
    Packet {
        from: ProcessId,
        msg: M,
    },
    Peer {
        id: ProcessId,
        addr: String,
    },
    DecodeError,
    Control {
        request: Request,
        /// A `claim` from a connection with an accepted `submit` it has not
        /// claimed: it waits up to a base tick for a completion.
        waits: bool,
        reply: Sender<Json>,
    },
}

/// A `claim` waiting for a completion, answered `claimed: false` at
/// `deadline` if none comes.
struct WaitingClaim {
    reply: Sender<Json>,
    deadline: Instant,
}

struct PeerLink {
    queue: SyncSender<Vec<u8>>,
    /// Cleared by the writer when a connect attempt fails and set when one
    /// succeeds; set at spawn, so frames queue while the first attempt is
    /// under way.
    up: Arc<AtomicBool>,
}

/// Runs one live node until it is told to `shutdown` (or its event sources
/// all die). Binds its data and control listeners on `127.0.0.1:0`, prints
/// a `READY id=<id> data=<port> control=<port> pid=<pid>` line on stdout,
/// waits for the cluster file to list its id, then serves.
pub fn run_node<T>(cfg: NodeConfig) -> io::Result<()>
where
    T: ScenarioTarget + 'static,
    T::Msg: WireCodec + Send + 'static,
{
    let data_listener = TcpListener::bind("127.0.0.1:0")?;
    let control_listener = TcpListener::bind("127.0.0.1:0")?;
    let data_port = data_listener.local_addr()?.port();
    let control_port = control_listener.local_addr()?.port();
    {
        let mut out = io::stdout().lock();
        writeln!(
            out,
            "READY id={} data={data_port} control={control_port} pid={}",
            cfg.me.as_u32(),
            std::process::id()
        )?;
        out.flush()?;
    }

    let spec = wait_for_cluster_file(&cfg)?;
    let mut book: BTreeMap<ProcessId, String> = spec
        .nodes
        .iter()
        .filter(|n| n.id != cfg.me)
        .map(|n| (n.id, n.data_addr()))
        .collect();

    let (event_tx, event_rx) = mpsc::channel::<Event<T::Msg>>();
    let timer_period = Arc::new(AtomicU64::new(1));

    spawn_acceptor::<T>(data_listener, event_tx.clone());
    spawn_control_acceptor::<T>(control_listener, event_tx.clone());
    spawn_timer(
        event_tx.clone(),
        Duration::from_millis(cfg.tick_ms.max(1)),
        Arc::clone(&timer_period),
    );

    let node = if cfg.joiner {
        T::spawn_joiner(cfg.me, cfg.n)
    } else {
        T::spawn_initial(cfg.me, cfg.n)
    };
    event_loop::<T>(
        cfg,
        data_port,
        node,
        &mut book,
        event_rx,
        &event_tx,
        &timer_period,
    )
}

fn wait_for_cluster_file(cfg: &NodeConfig) -> io::Result<ClusterSpec> {
    let deadline = Instant::now() + CLUSTER_FILE_WAIT;
    loop {
        if let Ok(spec) = ClusterSpec::load(&cfg.cluster_path) {
            if spec.node(cfg.me).is_some() {
                return Ok(spec);
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "cluster file {} never listed node {}",
                    cfg.cluster_path.display(),
                    cfg.me
                ),
            ));
        }
        thread::sleep(CLUSTER_FILE_POLL);
    }
}

fn spawn_acceptor<T>(listener: TcpListener, events: Sender<Event<T::Msg>>)
where
    T: ScenarioTarget + 'static,
    T::Msg: WireCodec + Send + 'static,
{
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let events = events.clone();
            thread::spawn(move || {
                let _ = serve_inbound::<T>(stream, &events);
            });
        }
    });
}

fn serve_inbound<T>(stream: TcpStream, events: &Sender<Event<T::Msg>>) -> io::Result<()>
where
    T: ScenarioTarget,
    T::Msg: WireCodec + Send + 'static,
{
    stream.set_nodelay(true)?;
    let peer_ip = stream.peer_addr()?.ip();
    let mut reader = BufReader::new(stream);
    let Ok(hello) = Hello::read_from(&mut reader) else {
        return Ok(()); // wrong magic/version: refuse silently
    };
    let _ = events.send(Event::Peer {
        id: hello.sender,
        addr: format!("{peer_ip}:{}", hello.data_port),
    });
    loop {
        match read_frame::<T::Msg>(&mut reader) {
            Ok((from, msg)) => {
                if events.send(Event::Packet { from, msg }).is_err() {
                    return Ok(());
                }
            }
            Err(crate::frame::FrameError::Decode(_)) => {
                // A malformed envelope poisons the stream framing too —
                // count it and drop the connection; the peer reconnects.
                let _ = events.send(Event::DecodeError);
                return Ok(());
            }
            Err(_) => return Ok(()),
        }
    }
}

fn spawn_control_acceptor<T>(listener: TcpListener, events: Sender<Event<T::Msg>>)
where
    T: ScenarioTarget + 'static,
    T::Msg: WireCodec + Send + 'static,
{
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let events = events.clone();
            thread::spawn(move || {
                let _ = serve_control::<T>(stream, &events);
            });
        }
    });
}

fn serve_control<T>(stream: TcpStream, events: &Sender<Event<T::Msg>>) -> io::Result<()>
where
    T: ScenarioTarget,
    T::Msg: WireCodec + Send + 'static,
{
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    let (reply_tx, reply_rx) = mpsc::channel();
    // Accepted `submit`s of this connection that it has not claimed yet.
    let mut unclaimed = 0u64;
    for line in reader.lines() {
        let line = line?;
        let reply = match Request::parse(&line) {
            Ok(request) => {
                let waits = request == Request::Claim && unclaimed > 0;
                if events
                    .send(Event::Control {
                        request,
                        waits,
                        reply: reply_tx.clone(),
                    })
                    .is_err()
                {
                    return Ok(()); // event loop gone: node is shutting down
                }
                let Ok(reply) = reply_rx.recv() else {
                    return Ok(());
                };
                let says = |field| reply.get(field).and_then(Json::as_bool) == Some(true);
                if says("accepted") {
                    unclaimed += 1;
                }
                if says("claimed") {
                    unclaimed = unclaimed.saturating_sub(1);
                }
                reply
            }
            Err(err) => Json::obj().field("error", err.as_str()),
        };
        // Line and newline in one write: on a `TCP_NODELAY` socket two
        // writes are two segments, and the first wakes a reader that finds
        // no newline yet.
        let mut reply_line = render_line(&reply);
        reply_line.push('\n');
        writer.write_all(reply_line.as_bytes())?;
    }
    Ok(())
}

fn spawn_timer<M: Send + 'static>(
    events: Sender<Event<M>>,
    tick: Duration,
    period: Arc<AtomicU64>,
) {
    thread::spawn(move || {
        let mut since_fire = 0u64;
        loop {
            thread::sleep(tick);
            since_fire += 1;
            if since_fire >= period.load(Ordering::Relaxed).max(1) {
                since_fire = 0;
                if events.send(Event::Tick).is_err() {
                    return;
                }
            }
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn event_loop<T>(
    cfg: NodeConfig,
    my_data_port: u16,
    mut node: T,
    book: &mut BTreeMap<ProcessId, String>,
    events: Receiver<Event<T::Msg>>,
    loopback: &Sender<Event<T::Msg>>,
    timer_period: &AtomicU64,
) -> io::Result<()>
where
    T: ScenarioTarget,
    T::Msg: WireCodec + Send + 'static,
{
    let me = cfg.me;
    let mut links: BTreeMap<ProcessId, PeerLink> = BTreeMap::new();
    // Frames the writers discarded, not yet folded into `stats.drops`.
    let discarded = Arc::new(AtomicU64::new(0));
    let mut ids: Vec<ProcessId> = book.keys().copied().chain([me]).collect();
    ids.sort_unstable();
    let mut stats = NodeStats::default();
    let mut round = 0u64;
    let mut outbox: VecDeque<(ProcessId, Payload<T::Msg>)> = VecDeque::new();
    let tick = Duration::from_millis(cfg.tick_ms.max(1));
    let mut waiting: VecDeque<WaitingClaim> = VecDeque::new();

    loop {
        // A waiting claim bounds the wait for the next event by its deadline.
        let next = match waiting.front() {
            Some(claim) => {
                events.recv_timeout(claim.deadline.saturating_duration_since(Instant::now()))
            }
            None => events.recv().map_err(RecvTimeoutError::from),
        };
        let event = match next {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => {
                answer_waiting(&mut waiting, &mut node, &mut stats);
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match event {
            Event::Tick => {
                round += 1;
                stats.ticks += 1;
                step(&mut node, me, round, &ids, &mut outbox, |node, ctx| {
                    node.on_timer(ctx);
                });
            }
            Event::Packet { from, msg } => {
                stats.recv += 1;
                step(&mut node, me, round, &ids, &mut outbox, |node, ctx| {
                    node.on_message(from, msg, ctx);
                    // A completion frees the op slot: the next queued op
                    // starts now, not at the next tick.
                    node.start_local(ctx);
                });
            }
            Event::Peer { id, addr } => {
                if id != me && !book.contains_key(&id) {
                    book.insert(id, addr);
                    if let Err(pos) = ids.binary_search(&id) {
                        ids.insert(pos, id);
                    }
                }
            }
            Event::DecodeError => stats.decode_errors += 1,
            Event::Control {
                request: Request::Claim,
                waits: true,
                reply,
            } => waiting.push_back(WaitingClaim {
                reply,
                deadline: Instant::now() + tick,
            }),
            Event::Control { request, reply, .. } => {
                stats.drops += discarded.swap(0, Ordering::Relaxed);
                let (json, shutdown) =
                    step(&mut node, me, round, &ids, &mut outbox, |node, ctx| {
                        handle_control(&request, node, ctx, &mut stats, timer_period)
                    });
                let _ = reply.send(json);
                if shutdown {
                    return Ok(());
                }
            }
        }
        answer_waiting(&mut waiting, &mut node, &mut stats);
        for (dest, msg) in outbox.drain(..) {
            if dest == me {
                // Self-sends loop back through the queue like the
                // simulator's self-channel (delivered, not synchronous).
                let msg = msg.get().clone();
                let _ = loopback.send(Event::Packet { from: me, msg });
                stats.sent += 1;
                continue;
            }
            let Some(addr) = book.get(&dest) else {
                stats.drops += 1;
                continue;
            };
            let link = links
                .entry(dest)
                .or_insert_with(|| spawn_writer(me, my_data_port, addr.clone(), &discarded));
            if !link.up.load(Ordering::Relaxed) {
                // The writer would discard the frame before its next
                // connect attempt: count the drop and skip the encoding.
                stats.drops += 1;
                continue;
            }
            match link.queue.try_send(msg.get().to_bytes()) {
                Ok(()) => stats.sent += 1,
                Err(TrySendError::Full(_)) => stats.drops += 1,
                Err(TrySendError::Disconnected(_)) => {
                    // Writer thread died (it never exits on socket errors,
                    // only on queue disconnect, so this is unreachable in
                    // practice); respawn it.
                    links.insert(
                        dest,
                        spawn_writer(me, my_data_port, addr.clone(), &discarded),
                    );
                    stats.drops += 1;
                }
            }
        }
    }
    Ok(())
}

/// Runs one atomic step of `node` — a timer step, a delivery, a control
/// request — under a [`Context`] at the current timer round (which only a
/// tick advances), and moves what it sent onto the event loop's outbox.
fn step<T, R>(
    node: &mut T,
    me: ProcessId,
    round: u64,
    ids: &[ProcessId],
    outbox: &mut VecDeque<(ProcessId, Payload<T::Msg>)>,
    act: impl FnOnce(&mut T, &mut Context<'_, T::Msg>) -> R,
) -> R
where
    T: ScenarioTarget,
{
    let mut ctx = Context::new(me, Round::new(round), ids);
    let result = act(node, &mut ctx);
    outbox.extend(ctx.into_outbox());
    result
}

/// Claims the node's oldest completion and counts it; `None` when nothing
/// has completed. Every `claim` answer with a completion comes from here.
fn claim<T: ScenarioTarget>(node: &mut T, stats: &mut NodeStats) -> Option<Json> {
    let ok = node.complete_local()?;
    if ok {
        stats.completed_ok += 1;
    } else {
        stats.completed_fail += 1;
    }
    Some(Json::obj().field("claimed", true).field("ok", ok))
}

fn unclaimed() -> Json {
    Json::obj().field("claimed", false)
}

/// Answers waiting claims, oldest first: each with the next completion the
/// node has recorded, or with `claimed: false` once its deadline has
/// passed. Runs after every event, so a steady stream of frames cannot
/// hold a claim past its tick.
fn answer_waiting<T: ScenarioTarget>(
    waiting: &mut VecDeque<WaitingClaim>,
    node: &mut T,
    stats: &mut NodeStats,
) {
    while let Some(oldest) = waiting.front() {
        let answer = match claim(node, stats) {
            Some(answer) => answer,
            None if oldest.deadline <= Instant::now() => unclaimed(),
            None => return,
        };
        let _ = oldest.reply.send(answer);
        waiting.pop_front();
    }
}

fn handle_control<T>(
    request: &Request,
    node: &mut T,
    ctx: &mut Context<'_, T::Msg>,
    stats: &mut NodeStats,
    timer_period: &AtomicU64,
) -> (Json, bool)
where
    T: ScenarioTarget,
{
    let json = match request {
        Request::Status => Json::obj()
            .field("id", u64::from(ctx.me().as_u32()))
            .field("settled", node.settled())
            .field("token", hex_encode(node.settle_token().as_bytes()))
            .field("ticks", stats.ticks)
            .field("sent", stats.sent)
            .field("recv", stats.recv)
            .field("drops", stats.drops)
            .field("decode_errors", stats.decode_errors)
            .field("submitted", stats.submitted)
            .field("completed_ok", stats.completed_ok)
            .field("completed_fail", stats.completed_fail)
            .field("timer_period", timer_period.load(Ordering::Relaxed)),
        Request::Submit { key, value } => {
            let accepted = node.submit_local(*key, *value);
            if accepted {
                stats.submitted += 1;
                // The op starts on submission; the timer only retransmits.
                node.start_local(ctx);
            }
            Json::obj().field("accepted", accepted)
        }
        Request::Claim => claim(node, stats).unwrap_or_else(unclaimed),
        Request::Timer(period) => {
            timer_period.store(period.unwrap_or(1).max(1), Ordering::Relaxed);
            Json::obj().field("timer_period", timer_period.load(Ordering::Relaxed))
        }
        Request::Shutdown => return (Json::obj().field("bye", true), true),
    };
    (json, false)
}

fn spawn_writer(
    me: ProcessId,
    my_data_port: u16,
    addr: String,
    discarded: &Arc<AtomicU64>,
) -> PeerLink {
    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(WRITER_QUEUE);
    let up = Arc::new(AtomicBool::new(true));
    let writer_up = Arc::clone(&up);
    let discarded = Arc::clone(discarded);
    thread::spawn(move || run_writer(me, my_data_port, &addr, &rx, &writer_up, &discarded));
    PeerLink { queue: tx, up }
}

/// Writer thread body: connect with capped exponential backoff, send the
/// hello, then drain the queue into frames. On any socket error, drop the
/// connection and reconnect; frames arriving while disconnected pile into
/// the bounded queue (overflow is dropped at the sender). `up` tells the
/// sender whether the last connect attempt succeeded: while it failed, the
/// sender drops frames instead of queueing them. Frames queued before a
/// connect failed are discarded and added to `discarded`.
fn run_writer(
    me: ProcessId,
    my_data_port: u16,
    addr: &str,
    rx: &Receiver<Vec<u8>>,
    up: &AtomicBool,
    discarded: &AtomicU64,
) {
    let mut backoff = BACKOFF_MIN;
    loop {
        let connected = TcpStream::connect(addr);
        up.store(connected.is_ok(), Ordering::Relaxed);
        let Ok(stream) = connected else {
            thread::sleep(backoff);
            backoff = (backoff * 2).min(BACKOFF_MAX);
            // Keep the queue from filling with stale frames while the
            // peer is down: discard whatever accumulated, and count it.
            while rx.try_recv().is_ok() {
                discarded.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        };
        backoff = BACKOFF_MIN;
        let _ = stream.set_nodelay(true);
        let mut writer = BufWriter::new(stream);
        // The hello carries our real accept port: a peer that has never
        // seen us in a cluster file (we are a rejoiner with a fresh id)
        // learns the dial-back address from this.
        let hello = Hello {
            sender: me,
            data_port: my_data_port,
        };
        if hello.write_to(writer.get_mut()).is_err() {
            continue;
        }
        'connected: loop {
            let Ok(frame) = rx.recv() else { return };
            if write_frame(&mut writer, me, &frame).is_err() {
                break 'connected;
            }
            // Flush after draining whatever is immediately available so
            // bursts share one syscall.
            let mut burst = 0;
            while let Ok(next) = rx.try_recv() {
                if write_frame(&mut writer, me, &next).is_err() {
                    break 'connected;
                }
                burst += 1;
                if burst >= WRITER_QUEUE {
                    break;
                }
            }
            if writer.flush().is_err() {
                break 'connected;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Agreement, Process, SimRng, Simulation};

    /// A target that accepts every op and completes none, and sends every
    /// peer a frame each tick.
    #[derive(Clone)]
    struct NeverCompletes;

    impl Process for NeverCompletes {
        type Msg = u64;
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
            for peer in ctx.peers() {
                ctx.send(peer, 0);
            }
        }
        fn on_message(&mut self, _from: ProcessId, _msg: u64, _ctx: &mut Context<'_, u64>) {}
    }

    impl ScenarioTarget for NeverCompletes {
        const NAME: &'static str = "never-completes";
        fn spawn_initial(_id: ProcessId, _n: usize) -> Self {
            NeverCompletes
        }
        fn spawn_joiner(_id: ProcessId, _n: usize) -> Self {
            NeverCompletes
        }
        fn corrupt(&mut self, _rng: &mut SimRng) -> Vec<(u64, u64)> {
            Vec::new()
        }
        fn submit_local(&mut self, _key: u64, _value: u64) -> bool {
            true
        }
        fn settled(&self) -> bool {
            true
        }
        type State<'a> = ();
        fn agreement(&self) -> Agreement<'_, ()> {
            Agreement::default()
        }
        fn invariant_violations(_sim: &Simulation<Self>) -> Vec<String> {
            Vec::new()
        }
        fn state_line(id: ProcessId, _process: &Self) -> String {
            id.to_string()
        }
    }

    /// Runs `NeverCompletes` as node 0 of two in an event loop on its own
    /// thread, with `book` as its address book: the event queue and the
    /// loop's thread.
    fn spawn_loop(
        tick: Duration,
        mut book: BTreeMap<ProcessId, String>,
    ) -> (Sender<Event<u64>>, thread::JoinHandle<io::Result<()>>) {
        let (events, queue) = mpsc::channel();
        let loopback = events.clone();
        let cfg = NodeConfig {
            me: ProcessId::new(0),
            n: 2,
            joiner: false,
            tick_ms: tick.as_millis() as u64,
            cluster_path: PathBuf::new(),
        };
        let node = thread::spawn(move || {
            let timer_period = AtomicU64::new(1);
            event_loop(
                cfg,
                0,
                NeverCompletes,
                &mut book,
                queue,
                &loopback,
                &timer_period,
            )
        });
        (events, node)
    }

    /// Sends a control request; the receiver gets its reply.
    fn ask(events: &Sender<Event<u64>>, request: Request, waits: bool) -> Receiver<Json> {
        let (reply, answer) = mpsc::channel();
        events
            .send(Event::Control {
                request,
                waits,
                reply,
            })
            .expect("the event loop runs");
        answer
    }

    fn shut_down(events: &Sender<Event<u64>>, node: thread::JoinHandle<io::Result<()>>) {
        let bye = ask(events, Request::Shutdown, false).recv();
        assert_eq!(bye, Ok(Json::obj().field("bye", true)));
        node.join()
            .expect("the event loop does not panic")
            .expect("the event loop exits cleanly");
    }

    /// A claim that waits for an op that never completes is answered
    /// `claimed: false` about one tick later, although frames arrive every
    /// 100 µs and the event queue is never idle; a claim that does not
    /// wait is answered at once.
    #[test]
    fn a_waiting_claim_is_answered_after_one_tick_while_frames_keep_arriving() {
        const TICK: Duration = Duration::from_millis(100);
        let (events, node) = spawn_loop(TICK, BTreeMap::new());
        let submitted = ask(&events, Request::Submit { key: 1, value: 1 }, false).recv();
        assert_eq!(submitted, Ok(Json::obj().field("accepted", true)));

        let asked = Instant::now();
        let answer = ask(&events, Request::Claim, true);
        let reply = loop {
            events
                .send(Event::Packet {
                    from: ProcessId::new(1),
                    msg: 0,
                })
                .expect("the event loop runs");
            if let Ok(reply) = answer.try_recv() {
                break reply;
            }
            assert!(asked.elapsed() < 10 * TICK, "the claim was never answered");
            thread::sleep(Duration::from_micros(100));
        };
        let waited = asked.elapsed();
        assert_eq!(reply, unclaimed());
        assert!(
            waited >= TICK && waited < 2 * TICK,
            "answered after {waited:?}"
        );

        let asked = Instant::now();
        assert_eq!(ask(&events, Request::Claim, false).recv(), Ok(unclaimed()));
        assert!(asked.elapsed() < TICK / 2, "{:?}", asked.elapsed());
        shut_down(&events, node);
    }

    /// Once the writer's connect to a peer has been refused, every frame
    /// for that peer is counted as a drop, and none is handed to the
    /// writer only to be discarded there. The frames handed to it before
    /// the refusal are discarded by the writer and counted too: after K
    /// ticks, `drops` reaches K.
    #[test]
    fn frames_for_a_peer_that_refuses_connections_are_counted_as_drops() {
        // A port nothing listens on: bound, then released.
        let refused = TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .expect("a free port");
        let book = BTreeMap::from([(ProcessId::new(1), refused.to_string())]);
        let (events, node) = spawn_loop(Duration::from_millis(100), book);
        let tick = || events.send(Event::Tick).expect("the event loop runs");
        let sent_and_drops = || {
            let status = ask(&events, Request::Status, false).recv().expect("status");
            let count = |field| status.get(field).and_then(Json::as_u64).expect(field);
            (count("sent"), count("drops"))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut ticks = 0;
        while sent_and_drops().1 == 0 {
            assert!(Instant::now() < deadline, "no frame was ever dropped");
            tick();
            ticks += 1;
            thread::sleep(Duration::from_millis(5));
        }
        let (sent, _) = sent_and_drops();
        for _ in 0..10 {
            tick();
        }
        ticks += 10;
        // One frame per tick, none handed to the writer after the refusal,
        // and every one of them dropped in the end.
        while sent_and_drops() != (sent, ticks) {
            let now = sent_and_drops();
            assert!(Instant::now() < deadline, "{ticks} frames: {now:?}");
            thread::sleep(Duration::from_millis(5));
        }
        shut_down(&events, node);
    }
}
