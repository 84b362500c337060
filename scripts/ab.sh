#!/usr/bin/env bash
# A/B of two already-built lottery-benchmark binaries in alternating pairs.
#
#   scripts/ab.sh <parent-binary> <change-binary> <workload|all> [pairs=10] [seconds] [seed=1994] [trace=0]
#
# "all" runs every workload of BENCHMARK.json in file order, one block each.
# seconds defaults to BENCHMARK.json's run_seconds, the run length the
# benchmark pipeline uses: peak_rss_mb grows with the rounds a run
# completes, so a shorter A/B misstates it. Each pair runs both binaries
# once with --trace <trace> (odd pairs parent first, even pairs change
# first): 0 reports the end-to-end metrics, 1 the per-layer ones,
# sim.checksum among them. Reads only the last line each run prints — its
# JSON result — and prints, per end-to-end metric, median [q1 q3] for each
# side, the ratio change/parent of the medians, and "change wins k/n" (ties
# count for neither; "better" is each metric's own direction in
# BENCHMARK.json). Under each end-to-end metric of BENCHMARK.json, the
# verdict of the choosing-metrics rule: "RESOLVED better" ("worse") when the
# change wins (loses) at least nine tenths of all pairs run and the medians
# differ by more than the parent's own quartile distance, otherwise
# "unresolved". In place of the sim.checksum row, whether every run of both
# sides made the same decisions. Exits 1 if any run of any workload
# reports "correct": false or failed > 0. Build the binaries first, e.g.
#   CARGO_TARGET_DIR=/tmp/a cargo build --release --offline --manifest-path benchmark/Cargo.toml
set -euo pipefail

if [ "$#" -lt 3 ]; then
  sed -n '2,23p' "$0" >&2
  exit 2
fi
bench="$(dirname "$0")/../BENCHMARK.json"
parent=$1 change=$2 workload=$3
run_seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$bench")
pairs=${4:-10} seconds=${5:-$run_seconds} seed=${6:-1994} trace=${7:-0}
if [ "$workload" = all ]; then
  # The names between "workloads" and "end_to_end", one key per line.
  workloads=$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && match($0, /"name": "[^"]*"/) { print substr($0, RSTART + 9, RLENGTH - 10) }' "$bench")
else
  workloads=$workload
fi

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
bad=0

# One run: appends "<side> <metric> <value>" rows, flags an incorrect run.
run() {
  local side=$1 bin=$2 line
  line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
  if ! grep -q '"correct": true' <<<"$line" || ! grep -q '"failed": 0[,}]' <<<"$line"; then
    echo "ab: $side run incorrect or with failed operations: ${line:0:120}" >&2
    bad=1
  fi
  grep -o '"[a-z_0-9.]*": {"value": [-0-9.e+]*' <<<"$line" \
    | sed -e 's/"\([^"]*\)": {"value": /\1 /' -e "s/^/$side /" >>"$rows"
}

# One workload's block, from the rows its pairs appended.
summarize() {
awk '
  # BENCHMARK.json first: which metrics are end-to-end, which are better
  # higher (one key per line, as the file is laid out).
  FNR == NR {
    if ($0 ~ /"end_to_end"/) listed = 1
    if ($0 ~ /"per_layer"/) listed = 0
    if (match($0, /"name": "[^"]*"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
    if ($0 ~ /"better": "higher"/) higher[name] = 1
    if ($0 ~ /"better"/ && listed) e2e[name] = 1
    next
  }
  { n[$1, $2]++; v[$1, $2, n[$1, $2]] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++metrics] = $2 } }
  # The distinct values one side reported for m, in the order first seen.
  function distinct(side, m,    i, out, had) {
    out = ""
    for (i = 1; i <= n[side, m]; i++)
      if (!((side, m, v[side, m, i]) in had)) { had[side, m, v[side, m, i]] = 1; out = out (out == "" ? "" : " ") v[side, m, i] }
    return out
  }
  function quart(side, m, q,    c, i, j, t, a, pos, lo) {
    c = n[side, m]
    for (i = 1; i <= c; i++) a[i] = v[side, m, i]
    for (i = 2; i <= c; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    pos = 1 + (c - 1) * q; lo = int(pos)
    return lo >= c ? a[c] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
  }
  END {
    for (k = 1; k <= metrics; k++) {
      m = order[k]; wins = 0; decided = 0; ran = n["parent", m]
      if (m == "sim.checksum") {
        pv = distinct("parent", m); cv = distinct("change", m)
        if (pv == cv && index(pv, " ") == 0)
          printf "same decisions: yes (%s, all %d runs)\n", pv, ran + n["change", m]
        else
          printf "same decisions: NO — parent {%s} change {%s}\n", pv, cv
        continue
      }
      for (i = 1; i <= ran; i++) {
        p = v["parent", m, i]; c = v["change", m, i]
        if (p != c) { decided++; if ((m in higher) ? c > p : c < p) wins++ }
      }
      pm = quart("parent", m, 0.5); cm = quart("change", m, 0.5)
      iqr = quart("parent", m, 0.75) - quart("parent", m, 0.25)
      gap = (m in higher) ? cm - pm : pm - cm
      verdict = "unresolved"
      if (10 * wins >= 9 * ran && gap > iqr) verdict = "RESOLVED better"
      if (10 * (decided - wins) >= 9 * ran && -gap > iqr) verdict = "RESOLVED worse"
      printf "%-18s parent %.6g [%.6g %.6g]  change %.6g [%.6g %.6g]  ratio %s  change wins %d/%d\n", \
        m, pm, quart("parent", m, 0.25), quart("parent", m, 0.75), \
        cm, quart("change", m, 0.25), quart("change", m, 0.75), \
        pm != 0 ? sprintf("%.4f", cm / pm) : "n/a", wins, decided
      if (m in e2e)
        printf "%-18s %s (won %d, lost %d of %d pairs; medians apart %.6g, parent q3-q1 %.6g)\n", \
          "", verdict, wins, decided - wins, ran, gap < 0 ? -gap : gap, iqr
    }
  }
' "$bench" "$rows"
}

for workload in $workloads; do
  : >"$rows"
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
      run parent "$parent"; run change "$change"
    else
      run change "$change"; run parent "$parent"
    fi
    echo "ab: $workload pair $i/$pairs done" >&2
  done
  echo "workload $workload, seed $seed, $seconds s, trace $trace, $pairs alternating pairs"
  summarize
done

exit "$bad"
