#!/usr/bin/env bash
# Re-runs one bench and checks it against its committed summary.
#
#   scripts/bench.sh <name> [tolerance_pct=25]
#
# Runs `cargo bench -p lottery-bench --bench <name>` (which rewrites
# BENCH_<name>.json at the workspace root), then compares each id's median
# with the BENCH_<name>.json of HEAD: prints old, new and new/old per id and
# exits 1 if any id moved by more than the tolerance in either direction or
# is present on one side only — a committed summary the code no longer
# reproduces is stale either way. Then it runs tests/bench_schema.rs on the
# fresh summary and exits 1 if that fails: each summary's test asserts the
# sentence of DESIGN.md or EXPERIMENTS.md that quotes it as a same-run
# ratio, which a re-run can break inside the tolerance. The fresh summary
# is left in the working tree: commit it to refresh,
# `git checkout BENCH_<name>.json` to discard.
# Host-speed dependent (the sandbox drifts ~2x between phases), so this is
# not part of verify.sh; a failure on a quiet host is the signal.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 1 ]; then
  sed -n '2,18p' "$0" >&2
  exit 2
fi
name=$1 tolerance=${2:-25}
file="BENCH_$name.json"

# "<id> <median_ns>" per result line of a summary on stdin.
medians() {
  grep -o '"id": "[^"]*", "median_ns": [-0-9.e+]*' \
    | sed -e 's/"id": "\([^"]*\)", "median_ns": /\1 /'
}

old=$(git show "HEAD:$file" | medians) \
  || { echo "bench: no committed $file" >&2; exit 2; }
cargo bench -q -p lottery-bench --bench "$name" >&2
new=$(medians <"$file")

status=0
awk -v tolerance="$tolerance" '
  NR == FNR { old[$1] = $2; order[++n] = $1; next }
  { new[$1] = $2; if (!($1 in old)) order[++n] = $1 }
  END {
    bad = 0
    for (i = 1; i <= n; i++) {
      id = order[i]
      if (!(id in new) || !(id in old)) {
        printf "%-44s %s\n", id, (id in old) ? "MISSING from this run" : "MISSING from the committed summary"
        bad = 1
        continue
      }
      ratio = new[id] / old[id]
      past = ratio > 1 + tolerance / 100 || 1 / ratio > 1 + tolerance / 100
      printf "%-44s old %12.3f  new %12.3f  ratio %.3f%s\n", id, old[id], new[id], ratio, past ? "  PAST TOLERANCE" : ""
      bad = bad || past
    }
    exit bad
  }
' <(echo "$old") <(echo "$new") \
  && echo "bench: $file reproduced within ${tolerance}%" \
  || { echo "bench: $file is stale beyond ${tolerance}% (or ids differ)" >&2; status=1; }
cargo test -q --test bench_schema >&2 \
  || { echo "bench: $file no longer backs the sentence its bench_schema test names" >&2; status=1; }
exit "$status"
