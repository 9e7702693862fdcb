#!/usr/bin/env bash
# Tier-1 verification: build, run the whole test suite, then measure the
# MIEC and local-search scale points and gate them against the committed
# perf records (BENCH_miec.json and BENCH_localsearch.json). The fresh
# records go to target/, so the tree stays clean; copy one
# over its committed record to move a baseline. The bench functions
# assert optimised-vs-reference equivalence as they run, so a perf
# regression or a scoring divergence fails this script, not just slows
# it down.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace

cargo bench -p esvm-bench --bench allocators -- miec_2000vms_500servers
cargo bench -p esvm-bench --bench local_search -- local_search_500vms_100servers

echo "tier1: OK"
