//! Test-only support: a toy [`ScenarioTarget`] shared by the scenario and
//! campaign test modules.

use crate::history::OpResponse;
use crate::process::{Context, Process, ProcessId};
use crate::rng::SimRng;
use crate::scenario::ScenarioTarget;
use crate::scheduler::Simulation;
use crate::time::Round;

/// A self-stabilizing toy target: every process floods its value and adopts
/// the maximum; "converged" means everyone agrees; corruption randomizes the
/// value; the workload trickles fresh values in through process 0. Recovery
/// is guaranteed because the maximum always wins.
#[derive(Debug, Clone)]
pub(crate) struct MaxNode {
    pub(crate) id: ProcessId,
    pub(crate) value: u64,
    /// Accepted-but-unclaimed load ops (see [`ScenarioTarget::claim_local`]);
    /// deliberately absent from `state_line` so attaching a load never
    /// changes the digest semantics under test.
    pub(crate) unclaimed_ops: u64,
}

impl Process for MaxNode {
    type Msg = u64;
    fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
        for peer in ctx.peers() {
            ctx.send(peer, self.value);
        }
    }
    fn on_message(&mut self, _from: ProcessId, msg: u64, _ctx: &mut Context<'_, u64>) {
        self.value = self.value.max(msg);
    }
}

impl ScenarioTarget for MaxNode {
    const NAME: &'static str = "max";

    fn spawn_initial(id: ProcessId, _n: usize) -> Self {
        MaxNode {
            id,
            value: id.as_u32() as u64,
            unclaimed_ops: 0,
        }
    }

    fn spawn_joiner(id: ProcessId, _n: usize) -> Self {
        MaxNode {
            id,
            value: 0,
            unclaimed_ops: 0,
        }
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.value = rng.range_inclusive(100, 200);
    }

    /// In-flight corruption scrambles the gossiped value (bounded, so the
    /// max-flood still converges on whatever the largest surviving value is).
    fn corrupt_payload(msg: &mut u64, rng: &mut SimRng) -> bool {
        if rng.chance(0.5) {
            *msg = rng.range_inclusive(300, 400);
            true
        } else {
            false
        }
    }

    /// Byzantine forging for the toy target: a forged-sender packet is a
    /// bounded bogus value (it floods and wins like any maximum); stale
    /// state echoes the target's own current value back at it.
    fn forge_payload(
        forge: crate::plan::ForgeKind,
        _claimed_sender: ProcessId,
        target: ProcessId,
        sim: &Simulation<Self>,
        rng: &mut SimRng,
    ) -> Option<u64> {
        match forge {
            crate::plan::ForgeKind::ForgedSender => Some(rng.range_inclusive(500, 600)),
            crate::plan::ForgeKind::StaleState => sim.process(target).map(|p| p.value),
            crate::plan::ForgeKind::Replay => None,
        }
    }

    /// A deterministic trickle of new values through process 0.
    fn drive_workload(sim: &mut Simulation<Self>, round: Round, _rng: &mut SimRng) {
        if round.as_u64() % 4 == 0 {
            if let Some(p) = sim.process_mut(ProcessId::new(0)) {
                p.value = p.value.max(round.as_u64());
            }
        }
    }

    /// Open-loop load hooks for the toy target: an accepted op folds a
    /// bounded value into the max-flood and completes on the next poll.
    fn submit_local(&mut self, _key: u64, value: u64) -> bool {
        self.value = self.value.max(value % 50);
        self.unclaimed_ops += 1;
        true
    }

    fn claim_local(&mut self) -> Option<OpResponse> {
        if self.unclaimed_ops == 0 {
            return None;
        }
        self.unclaimed_ops -= 1;
        Some(OpResponse {
            ok: true,
            observed: None,
            indeterminate: false,
        })
    }

    fn converged(sim: &Simulation<Self>) -> bool {
        let mut values = sim.active_processes().map(|(_, p)| p.value);
        match values.next() {
            None => true,
            Some(first) => values.all(|v| v == first),
        }
    }

    fn invariant_violations(sim: &Simulation<Self>) -> Vec<String> {
        sim.active_processes()
            .filter(|(id, p)| p.id != *id)
            .map(|(id, p)| format!("{id} claims to be {}", p.id))
            .collect()
    }

    fn state_line(id: ProcessId, p: &Self) -> String {
        format!("{id} value={}", p.value)
    }
}
