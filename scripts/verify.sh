#!/usr/bin/env bash
# Tier-1 verification: build, test (lottery-par ten times over), compile
# benches, lint, format, the uncalled-public-surface ceiling, the
# experiment-transcript golden gate and its no-verdicts gate, end-to-end
# smokes, and the reference benchmark's build and self-checks.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
# lottery-par is the one crate whose tests run real interleavings: ten
# more passes of its suite (well under a second each) so a flaky test
# shows up here, not in someone else's PR.
for pass in 1 2 3 4 5 6 7 8 9 10; do
  cargo test -q --release -p lottery-par > /dev/null 2>&1 \
    || { echo "verify: lottery-par tests failed on pass $pass of 10" >&2; exit 1; }
done
cargo bench --no-run --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check

# One Figure-1 walk: every resource's lottery draws through
# `lottery::walk` (or `lottery::draw`), so a running-sum comparison may
# only appear in the core lottery module.
if grep -rn 'winning < sum\|winner < sum' crates src | grep -v '^crates/core/src/lottery/'; then
  echo "verify: a hand-rolled lottery walk outside crates/core/src/lottery/" >&2; exit 1
fi

# One f64 valuation walk: the ledger's cache and every `Valuator` price a
# ticket through the same function, so Section 4.4's share rule is
# written exactly once in f64.
walks=$(grep -rn 'amount / active as f64' crates src | wc -l)
if [ "$walks" -ne 1 ]; then
  grep -rn 'amount / active as f64' crates src >&2 || true
  echo "verify: expected one f64 valuation walk, found $walks" >&2; exit 1
fi

# One metric table: every aggregator metric is a row of `metrics!` in
# crates/obs/src/aggregate.rs, and the exposition header is written in one
# place, so a hand-written metric family beside the table fails verify.
helps=$(grep -rn '# HELP {' crates src | wc -l)
if [ "$helps" -ne 1 ]; then
  grep -rn '# HELP {' crates src >&2 || true
  echo "verify: expected one Prometheus HELP writer, found $helps" >&2; exit 1
fi

# Single-writer counters: a bump on the bus's counter block is a relaxed
# load and store, so the counter tier holds no atomic read-modify-write.
rmws=$(grep -c 'fetch_add\|fetch_sub' crates/obs/src/bus.rs || true)
if [ "$rmws" -ne 0 ]; then
  grep -n 'fetch_add\|fetch_sub' crates/obs/src/bus.rs >&2 || true
  echo "verify: the counter tier must be single-writer, found $rmws read-modify-writes in crates/obs/src/bus.rs" >&2; exit 1
fi

# The public surface is what the system uses: scripts/surface.sh lists the
# `pub fn`s whose name no other source file mentions (integration tests
# do not count as callers), and their count may not rise above the
# ceiling. Lower the ceiling when a change lowers the count.
surface_ceiling=33
surface=$(scripts/surface.sh -q)
if [ "$surface" -gt "$surface_ceiling" ]; then
  scripts/surface.sh >&2
  echo "verify: $surface uncalled public functions, above the ceiling of $surface_ceiling" >&2; exit 1
fi

# The docs name what exists: every backticked snake_case or CamelCase
# identifier in DESIGN.md, EXPERIMENTS.md and README.md must appear as a
# word in some .rs file, so a renamed or deleted item cannot live on in
# prose. The allow-list holds the names that are real but no word of ours:
# a std type and a test file's stem.
doc_names_allowed='RandomState event_props'
rs_words=$(find . -name '*.rs' -not -path '*/target/*' -print0 \
  | xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
stale_names=$(grep -ohE '`[^`]+`' DESIGN.md EXPERIMENTS.md README.md | tr -d '`' \
  | grep -E '^([a-z][a-z0-9]*(_[a-z0-9]+)+|[A-Z][a-z0-9]+([A-Z][a-z0-9]*)+)$' | sort -u \
  | comm -23 - <(echo "$rs_words") | grep -vxF -e "${doc_names_allowed// /$'\n'}" || true)
if [ -n "$stale_names" ]; then
  echo "$stale_names" >&2
  echo "verify: DESIGN.md, EXPERIMENTS.md or README.md names an identifier no .rs file has" >&2; exit 1
fi

# The docs name crates that exist: every backticked `lottery-*` in the
# three docs is the package name of a manifest, and every `crates/<x>`
# they mention is a directory, so a folded or renamed crate cannot live on
# in prose. The allow-list holds a retired probe event's wire tag that the
# history quotes.
crate_names_allowed='lottery-draw'
crate_names=$(sed -n 's/^name = "\(lottery-.*\)"$/\1/p' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml)
stale_crates=$({
  grep -ohE '`[^`]+`' DESIGN.md EXPERIMENTS.md README.md | grep -oE 'lottery-[a-z0-9-]*[a-z0-9]' \
    | grep -vxF -e "$crate_names" -e "$crate_names_allowed" || true
  grep -ohE 'crates/[A-Za-z0-9_-]+' DESIGN.md EXPERIMENTS.md README.md | sort -u \
    | while read -r d; do test -d "$d" || echo "$d"; done
} | sort -u)
if [ -n "$stale_crates" ]; then
  echo "$stale_crates" >&2
  echo "verify: DESIGN.md, EXPERIMENTS.md or README.md names a crate that does not exist" >&2; exit 1
fi

# scripts/loc.sh lists a directory's files as it counts the crates: the
# tree total of one crate's listing is that crate's row.
loc_listing=$(scripts/loc.sh HEAD crates/core | awk '$1 == "total" { print $3 }')
loc_row=$(scripts/loc.sh | awk '$1 == "crates/core" { print $2 }')
test "$loc_listing" = "$loc_row" \
  || { echo "verify: scripts/loc.sh HEAD crates/core totals $loc_listing, its crates/core row reads $loc_row" >&2; exit 1; }

# One bench, one summary, one claim: the `[[bench]]` targets of
# crates/bench, the BENCH_*.json files at the root and the summaries
# tests/bench_schema.rs opens are one set, so a bench whose summary backs
# no sentence, or a summary no bench rewrites, fails verify.
benches=$(sed -n '/^\[\[bench\]\]/{n;s/^name = "\(.*\)"$/\1/p;}' crates/bench/Cargo.toml | sort)
summaries=$(ls BENCH_*.json | sed 's/^BENCH_\(.*\)\.json$/\1/' | sort)
asserted=$(grep -o 'summary("[a-z_]*")' tests/bench_schema.rs | sed 's/^summary("\(.*\)")$/\1/' | sort -u)
if [ "$benches" != "$summaries" ] || [ "$benches" != "$asserted" ]; then
  printf 'benches:   %s\nsummaries: %s\nasserted:  %s\n' \
    "$(echo $benches)" "$(echo $summaries)" "$(echo $asserted)" >&2
  echo "verify: bench targets, BENCH_*.json files and bench_schema.rs summaries differ" >&2; exit 1
fi

# Golden gate: the transcript of the paper's figures and tables,
# reproduced (`experiments all`), must match the committed one byte for
# byte. It prints results, not verdicts: every check of a claim is a test
# that `cargo test` runs above, and the second gate keeps it that way — a
# verdict line in the transcript would be a check that no test asserts.
cargo run -q --release -p lottery-experiments --bin experiments -- all \
  | diff - experiments_all.txt > /dev/null \
  || { echo "verify: experiments all diverged from experiments_all.txt" >&2; exit 1; }
verdicts=$(grep -cE '(^OK |: (OK|CONFIRMED|FAILED|NOT OBSERVED)$)' experiments_all.txt || true)
test "$verdicts" -eq 0 \
  || { echo "verify: experiments_all.txt carries $verdicts verdict lines; assert them in tests" >&2; exit 1; }

# The flight recorder's JSONL and Chrome-trace exports are checked by
# tests/observability.rs::flight_exports_are_well_formed (every JSONL line
# parses with `kind` and `t_us`; the trace parses and holds a complete
# slice), which `cargo test` runs above.

# ctl structure smoke: the structure verb must switch the winner-search
# structure and report rebuild stats machine-readably under --json.
ctl_structure_out=$(printf '%s\n' \
  "fundx 300 base a" \
  "fundx 100 base b" \
  "structure alias --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_structure_out" | grep -q '"structure":"alias"' \
  || { echo "verify: ctl structure --json lacks the structure name" >&2; exit 1; }
echo "$ctl_structure_out" | grep -q '"rebuild_ns":' \
  || { echo "verify: ctl structure --json lacks rebuild_ns" >&2; exit 1; }

# ctl replay smoke: the replay verb must re-run a committed golden capture
# and report bit-exactness machine-readably under --json.
ctl_replay_out=$(printf '%s\n' "replay crates/sim/tests/data/capture_list_0.jsonl --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_replay_out" | grep -q '"bit_exact":true' \
  || { echo "verify: ctl replay --json did not confirm bit-exactness" >&2; exit 1; }
echo "$ctl_replay_out" | grep -q '"divergence":null' \
  || { echo "verify: ctl replay --json reported a divergence" >&2; exit 1; }
# A capture of the retired format (version 1: an event per ledger
# operation, dispatch and draw) is refused by name, without a crash.
sed 's/^{"replay":2,/{"replay":1,/' crates/sim/tests/data/capture_list_0.jsonl \
  > target/ctl_replay_v1.jsonl
ctl_v1_status=0
printf '%s\n' "replay target/ctl_replay_v1.jsonl" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl \
    > /dev/null 2> target/ctl_replay_v1.err || ctl_v1_status=$?
test "$ctl_v1_status" -lt 128 \
  || { echo "verify: lotteryctl died on a version-1 capture (status $ctl_v1_status)" >&2; exit 1; }
grep -q 'unsupported replay log version 1' target/ctl_replay_v1.err \
  || { echo "verify: ctl replay did not refuse the version-1 capture" >&2; exit 1; }
# A list capture rewritten to two shards is refused by the one-shard rule
# (a list shard keeps no weights to balance by), without a crash.
sed '1s/"shards":0,/"shards":2,/' crates/sim/tests/data/capture_list_0.jsonl \
  > target/ctl_replay_list2.jsonl
ctl_list2_status=0
printf '%s\n' "replay target/ctl_replay_list2.jsonl" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl \
    > /dev/null 2> target/ctl_replay_list2.err || ctl_list2_status=$?
test "$ctl_list2_status" -lt 128 \
  || { echo "verify: lotteryctl died on a two-shard list capture (status $ctl_list2_status)" >&2; exit 1; }
grep -q 'the list structure needs exactly one shard' target/ctl_replay_list2.err \
  || { echo "verify: ctl replay did not refuse a two-shard list capture" >&2; exit 1; }

# ctl broker smoke: per-tenant funding and observed shares, with the
# dominant share machine-readable under --json.
ctl_broker_out=$(printf '%s\n' \
  "broker tenant gold 2000" \
  "broker tenant silver 1000" \
  "broker use gold disk 800" \
  "broker use silver disk 400" \
  "broker --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_broker_out" | grep -q '"dominant_share":' \
  || { echo "verify: ctl broker --json lacks dominant_share" >&2; exit 1; }

# ctl smoke: the shards report must expose per-shard compensation share,
# machine-readably under --json.
ctl_out=$(printf '%s\n' \
  "fundx 300 base io" \
  "fundx 300 base hog" \
  "shards 2" \
  "compensate io 5000 20000" \
  "shards --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_out" | grep -q '"compensation_share":' \
  || { echo "verify: ctl shards --json lacks compensation_share" >&2; exit 1; }
echo "$ctl_out" | grep -q "compensated 4.00x" \
  || { echo "verify: ctl compensate did not grant the 4x factor" >&2; exit 1; }

# ctl garbage smoke: no input reaches a panic or an abort. Every line is
# rejected with an error — including `replay` of a file of a million '[',
# which once overflowed the JSON reader's stack (exit 134); the non-UTF-8
# line ends the session with exit 1.
head -c 1000000 /dev/zero | tr '\0' '[' > target/ctl_deep.json
ctl_garbage_status=0
printf 'shards 4000000000\nfrobnicate now\nfundx 0 base a\nreplay target/ctl_deep.json\nreplay target/ctl_deep.json --json\n\377\376 not utf-8\n' \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl \
    > /dev/null 2> target/ctl_garbage.err || ctl_garbage_status=$?
test "$ctl_garbage_status" -lt 128 \
  || { echo "verify: lotteryctl died on garbage input (status $ctl_garbage_status)" >&2; exit 1; }
if grep -qi 'panicked\|overflowed\|backtrace' target/ctl_garbage.err; then
  echo "verify: lotteryctl panicked on garbage input" >&2; exit 1
fi
grep -q 'at most 1024' target/ctl_garbage.err \
  || { echo "verify: lotteryctl did not reject the oversized shard count" >&2; exit 1; }
test "$(grep -c '^error: .*nesting deeper than' target/ctl_garbage.err)" -eq 2 \
  || { echo "verify: lotteryctl did not reject the deeply nested replay file twice" >&2; exit 1; }

# The A/B verdict's RSS floor: scripts/ab.sh on two stub binaries that
# print one fixed result line each. Their quartile distance is zero, so
# only the floor (2 % of the parent's median) keeps a 0.7 % RSS shift
# unresolved, and a 10 % shift must still resolve.
ab_stub() {
  printf '#!/usr/bin/env bash\necho %s\n' \
    "'{\"correct\": true, \"failed\": 0, \"peak_rss_mb\": {\"value\": $2}}'" > "target/ab_$1.sh"
  chmod +x "target/ab_$1.sh"
}
ab_stub parent 70.0; ab_stub shifted 70.49; ab_stub shrunk 63.0
scripts/ab.sh target/ab_parent.sh target/ab_shifted.sh stub 10 1 2> /dev/null \
  | grep -A1 '^peak_rss_mb' | grep -q ' unresolved ' \
  || { echo "verify: ab.sh resolves a 0.7 % peak_rss_mb shift" >&2; exit 1; }
scripts/ab.sh target/ab_parent.sh target/ab_shrunk.sh stub 10 1 2> /dev/null \
  | grep -A1 '^peak_rss_mb' | grep -q ' RESOLVED better ' \
  || { echo "verify: ab.sh does not resolve a 10 % peak_rss_mb shift" >&2; exit 1; }

# The reference benchmark is a package of its own, outside the workspace:
# build it, run its own tests (the only code that builds a `WorkerReport`
# literally and reads `ThreadMetrics` the way the harness does) and its
# self-checks, so a change that breaks any of them cannot pass here.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
  --target-dir target/benchmark
cargo test -q --offline --manifest-path benchmark/Cargo.toml \
  --target-dir target/benchmark \
  || { echo "verify: the benchmark package's tests failed" >&2; exit 1; }
CARGO_TARGET_DIR=target/benchmark benchmark/run.sh --smoke > /dev/null \
  || { echo "verify: benchmark/run.sh --smoke failed" >&2; exit 1; }

echo "verify: OK"
