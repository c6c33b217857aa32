#!/usr/bin/env bash
# The benchmark's self-check, as one script (the hook CI can call):
#   (a) BENCHMARK.json and the binary agree on every workload and metric name,
#       unit, direction and bound;
#   (b) two interleaved sets of runs of the same binary agree within the
#       benchmark's own bounds on every end-to-end metric × workload, and
#       neither set's middle half spreads wider than the bound;
#   (c) two traced runs of one seed report identical exact counts.
# (b) and (c) are `fcbench --aa`; extra arguments go to it, e.g.
#   benchmark/check.sh --runs 10 --seconds 24
# Takes about (2 × runs × 4 × (seconds + 6) + 8 × 20) seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/fcbench"

"$bin" --check-manifest BENCHMARK.json
"$bin" --aa --out benchmark/out "$@"
