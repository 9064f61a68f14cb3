//! Golden digests of the rendered catalog campaign matrix.
//!
//! The byte-identity contract says a storage or scheduling change may alter
//! no report byte. This file pins that contract in source: an FNV-1a digest
//! of the rendered report, a few lines instead of the 9.6 MB of committed
//! report copies (`.baselines/`) it replaces.
//!
//! * [`matrix_slice_digest_is_pinned`] — every catalog scenario × all four
//!   composite nodes at n = 4 and n = 6, seed 1 (112 cells): small enough for a debug
//!   `cargo test -q`, so tier-1 runs it on every change.
//! * [`full_matrix_digest_is_pinned`] — the full 1,400-cell serial matrix
//!   (n = 4..8 × seeds 1..5), `#[ignore]`d because it wants a release build:
//!   `cargo test --release -p bench --test golden_matrix -- --ignored`.
//!
//! A digest mismatch means some cell's execution or rendering changed. Find
//! the cell with `simctl run … --out a.json` on both commits and
//! `simctl diff a.json b.json`; re-pin only when the change is an intended
//! protocol or report-format change, and say so in `CHANGES.md`.

use bench::catalog_matrix_report;
use simnet::report::fnv1a;

fn matrix_digest(ns: &[usize], seeds: &[u64]) -> u64 {
    fnv1a(catalog_matrix_report(ns, seeds, 1).render().as_bytes())
}

/// Re-pinned when the SMR coordinator stopped re-applying a follower's
/// input from a snapshot of an earlier multicast round: only `smr/*` cells
/// moved, every `reconfig`, `counter` and `sharedmem` cell kept its bytes.
const SLICE_DIGEST: u64 = 16_379_963_866_106_254_502;

/// FNV-1a of the full serial matrix (`0x255ed3251a945e66`), re-pinned with
/// [`SLICE_DIGEST`]; before the SMR fix it was `0x388cf37d276fb805`, the
/// bytes `.baselines/matrix-serial.json` held when it was deleted.
const FULL_DIGEST: u64 = 2_692_821_783_527_317_094;

#[test]
fn matrix_slice_digest_is_pinned() {
    assert_eq!(
        matrix_digest(&[4, 6], &[1]),
        SLICE_DIGEST,
        "the n=4,6/seed-1 catalog matrix no longer renders the pinned bytes"
    );
}

#[test]
#[ignore = "1,400 cells: run with --release -- --ignored"]
fn full_matrix_digest_is_pinned() {
    assert_eq!(
        matrix_digest(&[4, 5, 6, 7, 8], &[1, 2, 3, 4, 5]),
        FULL_DIGEST,
        "the 1,400-cell catalog matrix no longer renders the pinned bytes"
    );
}
