#!/usr/bin/env bash
# The benchmark gate, spelled once: what CI's `benchmark-smoke` job runs and
# what to run locally before declaring a PR done.
#
#   scripts/bench-preflight.sh [--sim-only]
#
# 1. `cargo test` on the standalone `benchmark/` package (the root workspace
#    never compiles it, so a product API change that breaks it shows here);
# 2. the exact BENCHMARK.json command with `--seed 1 --seconds 2 --trace 0`
#    for every workload, and `--trace 1` for steady-n256 and ops-n24 (the
#    traced pass is a second code path through the harness; ops-n24's is a
#    round loop of its own whose submitted-op counts must equal the
#    runner's, and it is where the layers above recMA are attributed).
#
# Not a measurement — two seconds on a shared box say nothing about speed.
# The gate is the benchmark's own correctness checks: the last line of each
# run's stdout must report `"correct": true` with `"failed": 0`.
#
# `--sim-only` skips live-n4: CI's `live-smoke` job runs the same command
# for live-n4 itself, on seeds 1-5. Result lines are kept in
# benchmark-<workload>[-traced].txt.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(steady-n256 campaign-n8 ops-n24 live-n4)
case "${1:-}" in
  --sim-only) workloads=(steady-n256 campaign-n8 ops-n24) ;;
  "") ;;
  *) echo "usage: $0 [--sim-only]" >&2; exit 2 ;;
esac

# BENCHMARK.json's `command`.
benchmark=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

cargo test --offline --manifest-path benchmark/Cargo.toml

run() { # run <workload> <trace> <output file>
  "${benchmark[@]}" --workload "$1" --seed 1 --seconds 2 --trace "$2" | tee "$3"
  local result
  result=$(tail -n 1 "$3")
  if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0[,}]' <<<"$result"; then
    echo "bench-preflight: $1 (--trace $2) did not report a correct, failure-free run" >&2
    exit 1
  fi
}

for workload in "${workloads[@]}"; do
  run "$workload" 0 "benchmark-$workload.txt"
done
run steady-n256 1 benchmark-steady-n256-traced.txt
run ops-n24 1 benchmark-ops-n24-traced.txt
echo "bench-preflight: ok (${workloads[*]}, steady-n256 and ops-n24 traced)"
