#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bench/run.sh [--seed N] [--seconds S] [--out FILE]
#       the full ledger: every workload, end-to-end and per-layer metrics,
#       correctness checks, results file under bench/target/ledger/
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, one JSON object on the last line (BENCHMARK.json's command)
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
exec "${CARGO_TARGET_DIR:-bench/target}/release/srb-ledger" "$@"
