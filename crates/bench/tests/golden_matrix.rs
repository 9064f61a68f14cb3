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

/// Pinned at the parent of the index-addressed hot-path change (PR 12), on
/// the commit whose full matrix was verified byte-identical to the last
/// `.baselines/matrix-serial.json`.
const SLICE_DIGEST: u64 = 11_958_297_651_034_560_050;

/// FNV-1a of the full serial matrix — the bytes `.baselines/matrix-serial.json`
/// held when it was deleted.
const FULL_DIGEST: u64 = 4_074_899_481_721_550_853;

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
