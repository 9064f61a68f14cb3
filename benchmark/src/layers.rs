//! Turning a traced simulator pass into per-layer metrics: shared by the
//! workloads that step wrapped simulations (`steady-n256`, `ops-n24`).

use reconfig::ReconfigNode;

use crate::harness::{Outcome, RunArgs};
use crate::stats::{percentile, sorted};
use crate::timed::{Lane, Stack, Tracer};
use crate::write_trace;

/// The exact work counts of `simnet::Metrics`, summed over the simulations
/// of a pass.
#[derive(Default)]
pub struct SimCounts {
    sent: u64,
    delivered: u64,
    lost: u64,
    timer_steps: u64,
    wakeups: u64,
    delivery_batches: u64,
    channel_visits: u64,
}

impl SimCounts {
    pub fn add(&mut self, m: &simnet::Metrics) {
        self.sent += m.messages_sent();
        self.delivered += m.messages_delivered();
        self.lost += m.messages_lost();
        self.timer_steps += m.timer_steps();
        self.wakeups += m.wakeups();
        self.delivery_batches += m.delivery_batches();
        self.channel_visits += m.channel_visits();
    }
}

/// The reconfiguration layer's progress counters, summed over processors.
#[derive(Default)]
pub struct ReconfigProgress {
    triggerings: u64,
    resets: u64,
    installs: u64,
}

impl ReconfigProgress {
    pub fn add(&mut self, node: &ReconfigNode) {
        self.triggerings += node.recma_triggerings();
        self.resets += node.resets_started();
        self.installs += node.recsa().delicate_installs();
    }
}

/// `simnet` self time and exact counts, per-stack polls, per-lane handling,
/// reconfiguration progress.
pub fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    counts: &SimCounts,
    progress: &ReconfigProgress,
) {
    let rounds = tracer.round_wall_ns.len() as u64;
    let handled: u64 = tracer.totals.handle.iter().map(|a| a.calls).sum();
    out.set(
        "simnet.self_ns_per_msg",
        tracer.simnet_self_ns as f64 / handled.max(1) as f64,
        handled,
    );
    let walls_ms = sorted(
        tracer
            .round_wall_ns
            .iter()
            .map(|w| *w as f64 / 1e6)
            .collect(),
    );
    out.set(
        "simnet.round_wall_ms_p50",
        percentile(&walls_ms, 50.0).unwrap_or(0.0),
        rounds,
    );
    out.set(
        "simnet.round_wall_ms_max",
        walls_ms.last().copied().unwrap_or(0.0),
        rounds,
    );
    for (name, value) in [
        ("simnet.messages_sent", counts.sent),
        ("simnet.messages_delivered", counts.delivered),
        ("simnet.messages_lost", counts.lost),
        ("simnet.timer_steps", counts.timer_steps),
        ("simnet.wakeups", counts.wakeups),
        ("simnet.delivery_batches", counts.delivery_batches),
        ("simnet.channel_visits", counts.channel_visits),
        ("reconfig.recma_triggerings", progress.triggerings),
        ("reconfig.resets_started", progress.resets),
        ("reconfig.delicate_installs", progress.installs),
    ] {
        out.set(name, value as f64, 1);
    }
    for stack in Stack::ALL {
        let acc = &tracer.totals.poll[stack as usize];
        let layer = stack.layer();
        out.set(
            &format!("{layer}.poll_ns_per_call"),
            acc.ns_per_call(),
            acc.calls,
        );
        out.set(&format!("{layer}.poll_calls"), acc.calls as f64, 1);
    }
    for lane in Lane::ALL {
        let acc = &tracer.totals.handle[lane as usize];
        let layer = lane.layer();
        out.set(
            &format!("{layer}.handle_ns_per_msg"),
            acc.ns_per_call(),
            acc.calls,
        );
        out.set(&format!("{layer}.handle_msgs"), acc.calls as f64, 1);
        out.set(
            &format!("{layer}.bytes_per_msg"),
            acc.bytes_per_msg(),
            acc.sampled_msgs,
        );
    }
}

/// Closes a traced pass: how much of its wall no round span accounts for,
/// how many spans there are, each layer's share, and the trace file.
pub fn finish_trace(
    out: &mut Outcome,
    tracer: &Tracer,
    pass: u64,
    args: &RunArgs,
) -> Result<(), String> {
    let pass_span = &tracer.spans[pass as usize - 1];
    let pass_wall = (pass_span.end_ns - pass_span.start_ns).max(1) as f64;
    // Layer busy times plus simnet self time are, by construction, the sum
    // of the round walls; what is left of the pass is the benchmark's own
    // loop around the rounds.
    let in_rounds: u64 = tracer.round_wall_ns.iter().sum();
    out.set(
        "trace.unattributed_pct",
        (1.0 - in_rounds as f64 / pass_wall) * 100.0,
        tracer.round_wall_ns.len() as u64,
    );
    out.set("trace.spans", tracer.spans.len() as f64, 1);
    let mut shares: Vec<(String, u64)> = vec![("simnet (self)".into(), tracer.simnet_self_ns)];
    for stack in Stack::ALL {
        let busy = tracer.totals.poll[stack as usize].busy_ns;
        shares.push((format!("{}.poll", stack.layer()), busy));
    }
    for lane in Lane::ALL {
        let busy = tracer.totals.handle[lane as usize].busy_ns;
        shares.push((format!("{}.handle", lane.layer()), busy));
    }
    for (name, busy) in shares.iter().filter(|(_, busy)| *busy > 0) {
        out.note(format!(
            "share of traced time: {name:<28} {:6.2} %",
            *busy as f64 / pass_wall * 100.0
        ));
    }
    let path = write_trace(args, &tracer.render())?;
    out.note(format!("spans written to {}", path.display()));
    Ok(())
}
