//! Tracing from outside the program: a [`Process`] wrapper that times every
//! call into a protocol stack and attributes it to a layer.
//!
//! The layer map is the stacks' own public wire format: an incoming message
//! is classified by the lane of its wire enum ([`WireLane`]), nested lanes
//! recursing, so `SmrMsg::Reconfig(ReconfigMsg::RecSa(_))` is `reconfig.recsa`
//! work wherever it is handled. `on_timer` is the composite `poll` of the
//! stack, sub-layers included. Whatever a round spends outside those calls is
//! `simnet` self time: scheduler, network, channels, payload arena.
//!
//! Spans follow the choosing-metrics guide: kept in memory ([`Tracer`]),
//! written out when the benchmark ends, one parent span per simulated round
//! and beneath it one *aggregated* child per layer that did work in that
//! round (calls, busy time, first start, last end) — a span per message
//! would be ~200 k spans per n = 256 round.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use counters::{CounterMsg, CounterNode};
use reconfig::{ReconfigMsg, ReconfigNode};
use sharedmem::{SharedMemMsg, SharedMemNode};
use simnet::codec::WireCodec;
use simnet::scenario::ScenarioTarget;
use simnet::{Context, Process, ProcessId, Simulation};
use vssmr::{SmrMsg, SmrNode};

/// Nanoseconds since the first call in this process: one clock for every
/// span, so spans of different passes line up in the written trace.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layer an incoming message is handled by.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lane {
    FailureDetector,
    RecSa,
    RecMa,
    Join,
    Labels,
    Counters,
    Vssmr,
    SharedMem,
}

impl Lane {
    pub const ALL: [Lane; 8] = [
        Lane::FailureDetector,
        Lane::RecSa,
        Lane::RecMa,
        Lane::Join,
        Lane::Labels,
        Lane::Counters,
        Lane::Vssmr,
        Lane::SharedMem,
    ];

    /// The layer's name: the module that owns the lane.
    pub fn layer(self) -> &'static str {
        match self {
            Lane::FailureDetector => "failure-detector",
            Lane::RecSa => "reconfig.recsa",
            Lane::RecMa => "reconfig.recma",
            Lane::Join => "reconfig.join",
            Lane::Labels => "labels",
            Lane::Counters => "counters",
            Lane::Vssmr => "vssmr",
            Lane::SharedMem => "sharedmem",
        }
    }
}

/// The composite stack whose `on_timer` a poll belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stack {
    Reconfig,
    Counters,
    Vssmr,
    SharedMem,
}

impl Stack {
    pub const ALL: [Stack; 4] = [
        Stack::Reconfig,
        Stack::Counters,
        Stack::Vssmr,
        Stack::SharedMem,
    ];

    pub fn layer(self) -> &'static str {
        match self {
            Stack::Reconfig => "reconfig",
            Stack::Counters => "counters",
            Stack::Vssmr => "vssmr",
            Stack::SharedMem => "sharedmem",
        }
    }
}

/// Classification of a wire message by lane. The matches have no wildcard
/// arm: a new variant in any of the four wire enums stops this file from
/// compiling until it is mapped to a layer.
pub trait WireLane {
    fn lane(&self) -> Lane;
}

impl WireLane for ReconfigMsg {
    fn lane(&self) -> Lane {
        match self {
            ReconfigMsg::Heartbeat => Lane::FailureDetector,
            ReconfigMsg::RecSa(_) => Lane::RecSa,
            ReconfigMsg::RecMa(_) => Lane::RecMa,
            ReconfigMsg::Join(_) => Lane::Join,
        }
    }
}

impl WireLane for CounterMsg {
    fn lane(&self) -> Lane {
        match self {
            CounterMsg::Label(_) => Lane::Labels,
            CounterMsg::Sync(_) | CounterMsg::Quorum(_) => Lane::Counters,
        }
    }
}

impl WireLane for SmrMsg {
    fn lane(&self) -> Lane {
        match self {
            SmrMsg::Reconfig(m) => m.lane(),
            SmrMsg::Counter(m) => m.lane(),
            SmrMsg::State(_) => Lane::Vssmr,
        }
    }
}

impl WireLane for SharedMemMsg {
    fn lane(&self) -> Lane {
        match self {
            SharedMemMsg::Reconfig(m) => m.lane(),
            SharedMemMsg::Register(_) => Lane::SharedMem,
        }
    }
}

/// A stack the benchmark can trace: a campaign target whose wire format has
/// a layer map and a codec.
pub trait TracedStack: ScenarioTarget {
    const STACK: Stack;
    fn lane(msg: &Self::Msg) -> Lane;
    fn encode(msg: &Self::Msg, out: &mut Vec<u8>);
}

macro_rules! traced_stack {
    ($node:ty, $stack:expr) => {
        impl TracedStack for $node {
            const STACK: Stack = $stack;
            fn lane(msg: &Self::Msg) -> Lane {
                WireLane::lane(msg)
            }
            fn encode(msg: &Self::Msg, out: &mut Vec<u8>) {
                WireCodec::encode(msg, out)
            }
        }
    };
}

traced_stack!(ReconfigNode, Stack::Reconfig);
traced_stack!(CounterNode, Stack::Counters);
traced_stack!(SmrNode, Stack::Vssmr);
traced_stack!(SharedMemNode, Stack::SharedMem);

/// One message in this many is encoded to measure its wire size. Encoding
/// every message of an n = 256 round (a kilobyte each) would double the
/// round's wall; the sampled mean is exact to well under a percent at the
/// counts involved. The encoding happens outside the timed section.
const BYTES_SAMPLE_EVERY: u64 = 64;

/// What one layer did over some interval.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Acc {
    pub calls: u64,
    pub busy_ns: u64,
    /// Start of the first call and end of the last, on the [`now_ns`] clock.
    pub first_ns: u64,
    pub last_ns: u64,
    pub sampled_msgs: u64,
    pub sampled_bytes: u64,
}

impl Acc {
    fn record(&mut self, start: u64, end: u64) {
        if self.calls == 0 {
            self.first_ns = start;
        }
        self.calls += 1;
        self.busy_ns += end - start;
        self.last_ns = end;
    }

    fn merge(&mut self, other: &Acc) {
        if other.calls == 0 {
            return;
        }
        if self.calls == 0 {
            self.first_ns = other.first_ns;
        }
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.last_ns = other.last_ns;
        self.sampled_msgs += other.sampled_msgs;
        self.sampled_bytes += other.sampled_bytes;
    }

    /// Mean busy nanoseconds per call (0 when idle).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }

    /// Mean encoded size over the sampled messages (0 when none).
    pub fn bytes_per_msg(&self) -> f64 {
        if self.sampled_msgs == 0 {
            0.0
        } else {
            self.sampled_bytes as f64 / self.sampled_msgs as f64
        }
    }
}

/// Per-layer accumulators: the poll of each stack and each lane's handling.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct LayerAccs {
    pub poll: [Acc; 4],
    pub handle: [Acc; 8],
}

impl LayerAccs {
    /// Total time inside node calls.
    pub fn node_ns(&self) -> u64 {
        self.poll
            .iter()
            .chain(self.handle.iter())
            .map(|a| a.busy_ns)
            .sum()
    }

    fn merge(&mut self, other: &LayerAccs) {
        for (mine, theirs) in self.poll.iter_mut().zip(&other.poll) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.handle.iter_mut().zip(&other.handle) {
            mine.merge(theirs);
        }
    }
}

thread_local! {
    /// What the wrapped processes of this thread did since the last
    /// [`take_round`]; a simulation steps on one thread.
    static ROUND: RefCell<LayerAccs> = RefCell::new(LayerAccs::default());
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn take_round() -> LayerAccs {
    ROUND.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// A protocol process with every call into it timed and attributed.
/// Delegation only: the wrapped process sees exactly the calls, arguments
/// and context it would see unwrapped, so the execution is unchanged.
pub struct Timed<P>(pub P);

impl<P: TracedStack> Process for Timed<P> {
    type Msg = P::Msg;

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let start = now_ns();
        self.0.on_timer(ctx);
        let end = now_ns();
        ROUND.with(|r| r.borrow_mut().poll[P::STACK as usize].record(start, end));
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let lane = P::lane(&msg) as usize;
        let sample = ROUND.with(|r| r.borrow().handle[lane].calls % BYTES_SAMPLE_EVERY == 0);
        let bytes = sample.then(|| {
            SCRATCH.with(|s| {
                let mut buf = s.borrow_mut();
                buf.clear();
                P::encode(&msg, &mut buf);
                buf.len() as u64
            })
        });
        let start = now_ns();
        self.0.on_message(from, msg, ctx);
        let end = now_ns();
        ROUND.with(|r| {
            let acc = &mut r.borrow_mut().handle[lane];
            acc.record(start, end);
            if let Some(bytes) = bytes {
                acc.sampled_msgs += 1;
                acc.sampled_bytes += bytes;
            }
        });
    }
}

/// A simulation of `scenario`'s initial population with every process
/// wrapped — what `Scenario::build_sim` builds, plus the wrapper.
pub fn build_timed<P: TracedStack>(scenario: &simnet::Scenario, seed: u64) -> Simulation<Timed<P>> {
    let n = scenario.initial_size();
    let mut sim = Simulation::new(scenario.sim_config(seed, simnet::SchedulerMode::EventDriven));
    for i in 0..n as u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, Timed(P::spawn_initial(id, n)));
    }
    sim
}

/// The state digest of a wrapped simulation, as the unwrapped one computes
/// it.
pub fn digest<P: TracedStack>(sim: &Simulation<Timed<P>>) -> u64 {
    sim.state_digest_with(|id, timed| P::state_line(id, &timed.0))
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the span's own work: for an aggregated layer span the sum
    /// of its calls, for a round its self time (wall minus children).
    pub busy_ns: u64,
    pub calls: u64,
}

/// The in-memory span store of one traced pass, plus the running totals the
/// per-layer metrics are computed from.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    pub totals: LayerAccs,
    /// Wall of every traced round, and the `simnet` self time inside them.
    pub round_wall_ns: Vec<u64>,
    pub simnet_self_ns: u64,
}

impl Tracer {
    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        parent: u64,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            busy_ns,
            calls,
        });
        id
    }

    /// Reserves a span whose end is not known yet (a pass, a cell); close it
    /// with [`Tracer::close`].
    pub fn open(&mut self, parent: u64, name: impl Into<String>) -> u64 {
        let now = now_ns();
        self.span(parent, name, now, now, 0, 1)
    }

    pub fn close(&mut self, id: u64) {
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now_ns();
    }

    /// Steps one round of a wrapped simulation under a round span with one
    /// aggregated child span per layer that worked in it.
    pub fn round<P: TracedStack>(&mut self, parent: u64, sim: &mut Simulation<Timed<P>>) {
        take_round();
        let start = now_ns();
        sim.step_round();
        let end = now_ns();
        let accs = take_round();
        let wall = end - start;
        let self_ns = wall.saturating_sub(accs.node_ns());
        let round = self.span(parent, "simnet.step_round", start, end, self_ns, 1);
        for stack in Stack::ALL {
            let acc = &accs.poll[stack as usize];
            if acc.calls > 0 {
                let name = format!("{}.poll", stack.layer());
                self.span(
                    round,
                    name,
                    acc.first_ns,
                    acc.last_ns,
                    acc.busy_ns,
                    acc.calls,
                );
            }
        }
        for lane in Lane::ALL {
            let acc = &accs.handle[lane as usize];
            if acc.calls > 0 {
                let name = format!("{}.handle", lane.layer());
                self.span(
                    round,
                    name,
                    acc.first_ns,
                    acc.last_ns,
                    acc.busy_ns,
                    acc.calls,
                );
            }
        }
        self.totals.merge(&accs);
        self.round_wall_ns.push(wall);
        self.simnet_self_ns += self_ns;
    }

    /// Steps a round without recording it (warm-up through the wrapper).
    pub fn untraced_round<P: TracedStack>(sim: &mut Simulation<Timed<P>>) {
        sim.step_round();
        take_round();
    }

    /// The spans as JSON lines, one object per span.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::scenario::find;
    use simnet::SchedulerMode;
    use std::collections::BTreeSet;

    /// 60 rounds of an n = 8 system, unwrapped and wrapped: same messages,
    /// same digest.
    fn wrapper_is_invisible<P: TracedStack>() -> LayerAccs {
        let scenario = find("quiescent", 8).expect("catalog has quiescent");
        let mut plain = scenario.build_sim::<P>(7, SchedulerMode::EventDriven);
        let mut timed = build_timed::<P>(&scenario, 7);
        let mut tracer = Tracer::default();
        for round in 0..60u64 {
            // A little client work so the upper layers' lanes carry traffic.
            if round >= 30 && round % 3 == 0 {
                let via = ProcessId::new((round % 8) as u32);
                let a = plain.process_mut(via).unwrap().submit_local(round, round);
                let b = timed.process_mut(via).unwrap().0.submit_local(round, round);
                assert_eq!(a, b);
            }
            plain.step_round();
            tracer.round(0, &mut timed);
        }
        assert_eq!(
            plain.metrics().messages_sent(),
            timed.metrics().messages_sent()
        );
        assert_eq!(plain.metrics(), timed.metrics());
        assert_eq!(P::state_digest(&plain), digest(&timed));
        // Every round span's children fit inside it.
        for span in tracer.spans.iter().filter(|s| s.parent != 0) {
            let parent = &tracer.spans[span.parent as usize - 1];
            assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
        }
        assert_eq!(tracer.round_wall_ns.len(), 60);
        tracer.totals
    }

    fn lanes_seen(accs: &LayerAccs) -> BTreeSet<Lane> {
        Lane::ALL
            .into_iter()
            .filter(|l| accs.handle[*l as usize].calls > 0)
            .collect()
    }

    #[test]
    fn timed_leaves_the_execution_unchanged_on_all_four_stacks() {
        let reconfig = wrapper_is_invisible::<ReconfigNode>();
        let counter = wrapper_is_invisible::<CounterNode>();
        let smr = wrapper_is_invisible::<SmrNode>();
        let sharedmem = wrapper_is_invisible::<SharedMemNode>();
        // The lane map is total by construction (no wildcard arms); this
        // checks it is also *right*: each stack's traffic lands on the
        // layers that stack is made of, and only there.
        use Lane::*;
        let reconfig_lanes = BTreeSet::from([FailureDetector, RecSa]);
        assert!(lanes_seen(&reconfig).is_superset(&reconfig_lanes));
        assert!(lanes_seen(&reconfig).is_subset(&BTreeSet::from([
            FailureDetector,
            RecSa,
            RecMa,
            Join
        ])));
        assert_eq!(lanes_seen(&counter), BTreeSet::from([Labels, Counters]));
        assert!(lanes_seen(&smr).is_superset(&BTreeSet::from([RecSa, Labels, Counters, Vssmr])));
        assert!(!lanes_seen(&smr).contains(&SharedMem));
        assert!(lanes_seen(&sharedmem).is_superset(&BTreeSet::from([RecSa, SharedMem])));
        assert!(lanes_seen(&sharedmem).is_disjoint(&BTreeSet::from([Labels, Counters, Vssmr])));
        // Polls are attributed to the composite that owns the timer.
        assert!(reconfig.poll[Stack::Reconfig as usize].calls > 0);
        assert!(smr.poll[Stack::Vssmr as usize].calls > 0);
        assert_eq!(smr.poll[Stack::Reconfig as usize].calls, 0);
        // Sampled wire sizes are real encodings.
        assert!(sharedmem.handle[SharedMem as usize].bytes_per_msg() > 1.0);
    }

    #[test]
    fn every_lane_and_stack_has_its_declared_metrics() {
        let declared: BTreeSet<&str> = crate::spec::PER_LAYER.iter().map(|m| m.name).collect();
        for lane in Lane::ALL {
            for suffix in ["handle_ns_per_msg", "handle_msgs", "bytes_per_msg"] {
                let name = format!("{}.{suffix}", lane.layer());
                assert!(declared.contains(name.as_str()), "{name} undeclared");
            }
        }
        for stack in Stack::ALL {
            for suffix in ["poll_ns_per_call", "poll_calls"] {
                let name = format!("{}.{suffix}", stack.layer());
                assert!(declared.contains(name.as_str()), "{name} undeclared");
            }
        }
    }
}
