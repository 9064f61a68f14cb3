//! Pins the steady-state allocation budget of a quiescent campaign round.
//!
//! The shared-payload arena's contract is that a converged, fault-free round
//! allocates ~nothing: scratch buffers are recycled, broadcast payloads are
//! shared, digest lines are cached. Wall-clock benches cannot see a
//! reintroduced per-round `clone()` on a fast machine — an allocation
//! counter can, deterministically. This test installs a counting
//! `#[global_allocator]`, settles a 64-process cluster into steady state,
//! then measures allocations across 32 further rounds and asserts the
//! per-round average stays under a pinned budget. Four clusters are pinned:
//! the reconfiguration stack alone, the counter service (whose gossip is the
//! densest broadcast in the repo), the shared-memory registers, and the
//! VS-SMR stack that embeds both of the first two.
//!
//! The counter is process-global, so this lives in its own integration-test
//! binary and the budget is armed only around the measured window — setup,
//! assertions and test-harness bookkeeping are excluded. A mutex serializes
//! the tests: an armed window must not observe another test's setup.
//!
//! The pin is only asserted in release builds: debug builds run recSA's
//! `debug_assert_eq!` cache-coherence checks, which recompute (and
//! therefore allocate) the very sets the caches exist to avoid. Run
//! `cargo test -p bench --test alloc_budget --release` to enforce the
//! budgets; a debug run still prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use bench::{smr_cluster, steady_counter_sim, steady_reconfig_sim, steady_sharedmem_sim};
use reconfig::QuorumSystem;
use simnet::{Process, Simulation};

/// Counts allocation *events* (alloc/realloc/alloc_zeroed) while armed.
/// Frees are not counted: the budget is about churn the round generates,
/// and every counted allocation that is later freed was still a malloc.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measured windows: the counter is process-global, so one
/// test's armed window must not see another test's setup allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the serialization lock, ignoring poisoning (a failed budget assert
/// in another test must not cascade into spurious lock panics here).
fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const N: u32 = 64;
const MEASURED_ROUNDS: u64 = 32;

/// Settles `sim` (excluded warm-up: bootstrap traffic, cache warm-up,
/// scratch-buffer growth), then measures the mean allocations per round over
/// [`MEASURED_ROUNDS`] further rounds.
fn settle_and_measure<P: Process>(sim: &mut Simulation<P>) -> u64 {
    sim.run_rounds(20);
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    sim.run_rounds(MEASURED_ROUNDS);
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed) / MEASURED_ROUNDS
}

fn assert_budget(name: &str, per_round: u64, budget: u64) {
    println!("quiescent {name} n={N}: {per_round} allocations/round (budget {budget})");
    if cfg!(debug_assertions) {
        // Debug builds recompute cached sets inside debug_assert_eq! checks;
        // the pins only hold for the real (release) hot path.
        return;
    }
    assert!(
        per_round <= budget,
        "quiescent {name} round allocated {per_round}/round (budget {budget}); \
         a hot-path allocation crept back in"
    );
}

/// The pinned budget: mean allocations per quiescent round at n = 64 for the
/// reconfiguration stack.
///
/// The protocol is never silent — every participant keeps gossiping its
/// recSA state on its timer — but with shared broadcast payloads, recycled
/// scratch buffers, and the thread-local `chsConfig()` scan buffer the
/// steady state measures **0/round** (one residual allocation across the
/// whole window, from a scratch buffer reaching its high-water mark). The
/// budget of 8 tolerates allocator noise; raising it is a hot-path
/// regression, and before the arena this figure was ~429/round. Measure
/// before editing: run with `--release -- --nocapture`.
const MAX_RECONFIG_ALLOCS_PER_ROUND: u64 = 8;

#[test]
fn quiescent_reconfig_allocations_stay_pinned() {
    let _guard = serial_guard();
    let mut sim = steady_reconfig_sim(N, N, 42);
    let per_round = settle_and_measure(&mut sim);
    assert_budget("reconfig", per_round, MAX_RECONFIG_ALLOCS_PER_ROUND);
}

/// The pinned budget for the counter service at n = 64.
///
/// Counter gossip is the densest broadcast in the repo: every member sends
/// its maximal counter and a labeling-exchange message to every other
/// member, every round. Neither costs an allocation per message: the
/// counter broadcast is one shared payload per sender, and a `LabelerMsg`
/// is two label pairs whose antisting sets are shared handles. (The
/// 56 640/round this pin once recorded were the labeler's receipt action
/// collecting every stored label into fresh `Vec`s for each of the 64 × 63
/// messages; a labeler at rest now answers a repeated message with
/// comparisons. The next 320 were the `Vec` that `Labeler::step` once
/// returned, grown to 63 messages per step; it now sends into the outbox.)
/// What is left is the gossip payload's `Arc`, one per process step.
/// Measured steady state: 64/round; the pin leaves ~12% headroom.
const MAX_COUNTER_ALLOCS_PER_ROUND: u64 = 72;

#[test]
fn quiescent_counter_allocations_stay_pinned() {
    let _guard = serial_guard();
    let mut sim = steady_counter_sim(N, 42);
    let per_round = settle_and_measure(&mut sim);
    assert_budget("counter", per_round, MAX_COUNTER_ALLOCS_PER_ROUND);
}

/// The pinned budget for the shared-memory registers at n = 64.
///
/// With no client operations in flight the register layer is quiet; the
/// steady state is the underlying reconfiguration stack's gossip, which the
/// embedded `ReconfigNode` sends straight into the node's outbox. (Through
/// the old `Vec`-returning `ReconfigNode::poll` facade it cost 448/round, one
/// collected `Vec` per node per round grown as it filled.) The installed
/// configuration is read through recSA's shared handle, not cloned.
/// Measured steady state: **0/round**, like the reconfiguration stack alone;
/// the budget of 8 tolerates allocator noise.
const MAX_SHAREDMEM_ALLOCS_PER_ROUND: u64 = 8;

#[test]
fn quiescent_sharedmem_allocations_stay_pinned() {
    let _guard = serial_guard();
    let mut sim = steady_sharedmem_sim(N, QuorumSystem::Majority, 42);
    let per_round = settle_and_measure(&mut sim);
    assert_budget("sharedmem", per_round, MAX_SHAREDMEM_ALLOCS_PER_ROUND);
}

/// The pinned budget for the VS-SMR stack at n = 64: the reconfiguration
/// stack, the counter service and the replication layer in one node.
///
/// Both embedded layers send straight into the node's outbox, and the
/// snapshot goes to each trusted peer as a handle, walked off Θ's trusted
/// set with no audience list. What is left per process step is the snapshot's
/// `Arc` and the counter gossip's. Measured steady state: 128/round (2 per
/// process step; 1,600 before the facades went, 25 per step: the collected
/// `Vec`s of the reconfiguration, counter and labeler facades, the audience
/// `Vec` and the broadcast); the pin leaves ~12% headroom.
const MAX_SMR_ALLOCS_PER_ROUND: u64 = 144;

#[test]
fn quiescent_smr_allocations_stay_pinned() {
    let _guard = serial_guard();
    let mut sim = smr_cluster(N, 42);
    let per_round = settle_and_measure(&mut sim);
    assert_budget("smr", per_round, MAX_SMR_ALLOCS_PER_ROUND);
}
