#!/usr/bin/env bash
# A/B of two already-built lottery-benchmark binaries in alternating pairs.
#
#   scripts/ab.sh <parent-binary> <change-binary> <workload> [pairs=10] [seconds=8] [seed=1994]
#
# Each pair runs both binaries once with --trace 0 (odd pairs parent first,
# even pairs change first). Reads only the last line each run prints — its
# JSON result — and prints, per end-to-end metric, median [q1 q3] for each
# side, the ratio change/parent of the medians, and "change wins k/n" (ties
# count for neither); under each row, the verdict of the choosing-metrics
# rule: "RESOLVED better" ("worse") when the change wins (loses) at least
# nine tenths of all pairs run and the medians differ by more than the
# parent's own quartile distance, otherwise "unresolved". Exits 1 if any run
# reports "correct": false or failed > 0. Build the binaries first, e.g.
#   CARGO_TARGET_DIR=/tmp/a cargo build --release --offline --manifest-path benchmark/Cargo.toml
set -euo pipefail

if [ "$#" -lt 3 ]; then
  sed -n '2,16p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3
pairs=${4:-10} seconds=${5:-8} seed=${6:-1994}

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
bad=0

# One run: appends "<side> <metric> <value>" rows, flags an incorrect run.
run() {
  local side=$1 bin=$2 line
  line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
  if ! grep -q '"correct": true' <<<"$line" || ! grep -q '"failed": 0[,}]' <<<"$line"; then
    echo "ab: $side run incorrect or with failed operations: ${line:0:120}" >&2
    bad=1
  fi
  grep -o '"[a-z_0-9.]*": {"value": [-0-9.e+]*' <<<"$line" \
    | sed -e 's/"\([^"]*\)": {"value": /\1 /' -e "s/^/$side /" >>"$rows"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run parent "$parent"; run change "$change"
  else
    run change "$change"; run parent "$parent"
  fi
  echo "ab: pair $i/$pairs done" >&2
done

echo "workload $workload, seed $seed, $seconds s, $pairs alternating pairs"
awk '
  # Higher is better for these; every other metric is lower-is-better.
  BEGIN { higher["decisions_per_s"] = 1; higher["sim_util_pct"] = 1 }
  { n[$1, $2]++; v[$1, $2, n[$1, $2]] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++metrics] = $2 } }
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
      printf "%-18s %s (won %d, lost %d of %d pairs; medians apart %.6g, parent q3-q1 %.6g)\n", \
        "", verdict, wins, decided - wins, ran, gap < 0 ? -gap : gap, iqr
    }
  }
' "$rows"

exit "$bad"
