#!/usr/bin/env bash
# Tier-1 verification: build, test, compile benches, lint, format,
# the experiment-transcript golden gate, and end-to-end smokes.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo bench --no-run --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check

# Golden gate: the whole experiment transcript must reproduce the
# committed one byte for byte.
cargo run -q --release -p lottery-experiments --bin experiments -- all \
  | diff - experiments_all.txt > /dev/null \
  || { echo "verify: experiments all diverged from experiments_all.txt" >&2; exit 1; }

# Observability smoke: the obs experiment must emit parseable JSONL
# flight records and a Chrome trace (consumed here and by tests/).
cargo run -q --release -p lottery-experiments --bin experiments -- obs > /dev/null
test -s target/obs/flight.jsonl || { echo "verify: flight.jsonl missing or empty" >&2; exit 1; }
head -1 target/obs/flight.jsonl | grep -q '"kind"' \
  || { echo "verify: flight.jsonl lacks structured events" >&2; exit 1; }
test -s target/obs/trace.json || { echo "verify: trace.json missing or empty" >&2; exit 1; }

# Distributed-lottery smoke: per-CPU shards on a 4-CPU machine must hold
# a Figure 2 style 2:1 ticket ratio machine-wide (within 5%), and the
# I/O-heavy variant must hold it under compensated rebalancing while the
# raw-weight ablation demonstrably drifts.
smp_dist_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- smp-dist)
echo "$smp_dist_out" | grep -q "within 5%: OK" \
  || { echo "verify: distributed lottery missed the 2:1 machine-wide ratio" >&2; exit 1; }
echo "$smp_dist_out" | grep -q "io-heavy 2:1 held within 5% under compensated rebalancing: OK" \
  || { echo "verify: compensated rebalancing missed the io-heavy 2:1 ratio" >&2; exit 1; }
echo "$smp_dist_out" | grep -q "raw-weight rebalancing drifts without compensated totals: CONFIRMED" \
  || { echo "verify: raw-weight rebalancing failed to show the drift" >&2; exit 1; }

# Broker smoke: one grant per tenant funding cpu/disk/mem/net currencies
# must hold the 2:1 tenant ratio on every resource at once, and the raw
# face-amount ablation must show intra-tenant inflation leaking out.
broker_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- broker)
echo "$broker_out" | grep -q "broker 2:1 isolation held within 5% on cpu, disk, mem, net: OK" \
  || { echo "verify: broker missed the 2:1 ratio on some resource" >&2; exit 1; }
echo "$broker_out" | grep -q "raw funding drifts under intra-tenant inflation: CONFIRMED" \
  || { echo "verify: raw funding ablation failed to show the leak" >&2; exit 1; }

# Cluster smoke: one cluster-level grant per tenant must hold 2:1 within
# 5% across 4 nodes after a demand skew, a killed node's grants must be
# reclaimed via inverse lotteries within the recovery bound, and the
# frozen-reconciliation ablation must demonstrably drift. The ctl verb
# must report the canned market machine-readably.
cluster_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- cluster)
echo "$cluster_out" | grep -q "cluster 2:1 isolation held within 5% across 4 nodes: OK" \
  || { echo "verify: cluster market missed the 2:1 cluster-wide ratio" >&2; exit 1; }
echo "$cluster_out" | grep -qE "node-loss recovery within [0-9]+ rounds \(bound [0-9]+\): CONFIRMED" \
  || { echo "verify: node-loss recovery was not confirmed within the bound" >&2; exit 1; }
echo "$cluster_out" | grep -q "static-split ablation drifts without reconciliation: CONFIRMED" \
  || { echo "verify: static-split ablation failed to show the drift" >&2; exit 1; }
ctl_cluster_out=$(printf '%s\n' "cluster --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_cluster_out" | grep -q '"conserved":true' \
  || { echo "verify: ctl cluster --json did not report grant conservation" >&2; exit 1; }
echo "$ctl_cluster_out" | grep -q '"policy":"demand-following"' \
  || { echo "verify: ctl cluster --json lacks the budget policy" >&2; exit 1; }

# Alias-sampler smoke: winner streams must stay bit-identical across
# list/tree/alias under compensation churn, and the alias policy must
# hold a 2:1 ticket ratio; the scale bench itself is compiled by the
# `cargo bench --no-run --workspace` above (alias_scale target).
alias_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- alias)
echo "$alias_out" | grep -q "winner streams bit-identical across list/tree/alias (400 draws, compensation churn): OK" \
  || { echo "verify: alias sampler diverged from the list/tree winner stream" >&2; exit 1; }
echo "$alias_out" | grep -q "alias 2:1 isolation held within 5%: OK" \
  || { echo "verify: alias policy missed the 2:1 ratio" >&2; exit 1; }

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

# Event-driven core smoke: an all-sleeping kernel must cross its idle
# window decision-free, repeat seeded runs must produce bit-identical
# probe streams, and the shared loop must interleave the kernel, disk,
# switch, and cluster-market event sources on one clock.
events_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- events)
echo "$events_out" | grep -q "OK 400 ms idle gap crossed decision-free" \
  || { echo "verify: idle gap cost scheduling decisions" >&2; exit 1; }
echo "$events_out" | grep -q "OK event-driven stream reproducible bit-for-bit" \
  || { echo "verify: repeat event-driven runs diverged" >&2; exit 1; }
echo "$events_out" | grep -q "OK four event sources interleaved on one clock" \
  || { echo "verify: shared event loop failed to compose the sources" >&2; exit 1; }

# Real-thread backend smoke: four OS worker threads must replay the
# simulator bit-for-bit at one worker, hold a 3:1 funding ratio
# machine-wide at four, and conserve ledger value under work stealing.
par_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- par)
echo "$par_out" | grep -q "OK 1-worker winner stream bit-identical to the simulated SmpKernel tree" \
  || { echo "verify: 1-worker ParKernel diverged from the simulator" >&2; exit 1; }
echo "$par_out" | grep -q "OK 4 real workers hold the 3:1 funding ratio machine-wide" \
  || { echo "verify: real-thread workers missed the 3:1 ratio" >&2; exit 1; }
echo "$par_out" | grep -q "OK work stealing conserved currency value" \
  || { echo "verify: work stealing leaked or destroyed ledger value" >&2; exit 1; }

# ctl par smoke: the par verb must run the canned real-thread scenario
# and report per-worker stats machine-readably under --json.
ctl_par_out=$(printf '%s\n' "par 4 --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_par_out" | grep -q '"workers":4' \
  || { echo "verify: ctl par --json lacks the worker count" >&2; exit 1; }
echo "$ctl_par_out" | grep -q '"ratio":' \
  || { echo "verify: ctl par --json lacks the dispatch ratio" >&2; exit 1; }

# ctl events smoke: the events verb must report the pending-event queue
# machine-readably under --json.
ctl_events_out=$(printf '%s\n' "events --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_events_out" | grep -q '"depth":' \
  || { echo "verify: ctl events --json lacks the queue depth" >&2; exit 1; }
echo "$ctl_events_out" | grep -q '"horizon_us":' \
  || { echo "verify: ctl events --json lacks the next-event horizon" >&2; exit 1; }

# Record/replay smoke: every capture configuration must replay
# bit-identically, the JSONL round-trip must stay exact, and a tampered
# event must be flagged with its index. The experiment leaves a capture
# at target/replay/capture.jsonl for the ctl smoke below.
replay_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- replay)
echo "$replay_out" | grep -q "OK bit-exact: structure=alias shards=4" \
  || { echo "verify: distributed alias capture failed to replay bit-exactly" >&2; exit 1; }
echo "$replay_out" | grep -q "OK bit-exact: capture.jsonl round-trip" \
  || { echo "verify: JSONL round-trip broke replay equality" >&2; exit 1; }
echo "$replay_out" | grep -q "OK divergence detected at index" \
  || { echo "verify: tampered capture was not flagged as divergent" >&2; exit 1; }

# ctl replay smoke: the replay verb must re-run the capture written
# above and report bit-exactness machine-readably under --json.
ctl_replay_out=$(printf '%s\n' "replay target/replay/capture.jsonl --json" \
  | cargo run -q --release -p lottery-ctl --bin lotteryctl)
echo "$ctl_replay_out" | grep -q '"bit_exact":true' \
  || { echo "verify: ctl replay --json did not confirm bit-exactness" >&2; exit 1; }
echo "$ctl_replay_out" | grep -q '"divergence":null' \
  || { echo "verify: ctl replay --json reported a divergence" >&2; exit 1; }

# Workload-trace smoke: lottery admission must order tenants by funding
# on the heavy-tailed trace while the FCFS baseline stays tenant-blind.
traces_out=$(cargo run -q --release -p lottery-experiments --bin experiments -- traces)
echo "$traces_out" | grep -q "OK lottery orders tenants by funding on the heavy-tailed trace" \
  || { echo "verify: lottery admission failed to order tenants by funding" >&2; exit 1; }

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

echo "verify: OK"
