#!/usr/bin/env bash
# Run every workload once and print its summary and metrics.
# Usage: bash perfbench/run_all.sh [seed] [seconds] [trace]   (from the repository root)
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
trace="${3:-0}"
for workload in serve-open pixels paper-grid; do
    echo "== $workload"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
