#!/usr/bin/env bash
# Builds the benchmark package and runs it from the repository root.
#
#   benchmark/run.sh [--seed N]            every workload, every metric, all checks
#   benchmark/run.sh --sets 2              two sets of one build must agree
#   benchmark/run.sh --smoke               1/50 of the horizon, all checks
#   benchmark/run.sh --only <name>         one workload
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#                                          one run; last line of output is its JSON result
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The driver names the build directory; on its own the package builds into
# benchmark/target. Either way the program is built from source, offline.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

exec "$target/release/lottery-benchmark" "$@"
