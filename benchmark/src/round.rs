//! One round: set up a workload, warm it up, run its fixed simulated
//! horizon in timed slices, and check what came out.
//!
//! The work of a round is fixed by the workload and the seed, never by wall
//! time, so the simulator workloads make the same decisions in every round
//! and their checksums must agree.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lottery_core::ledger::{Ledger, Valuator};
use lottery_par::{ParReport, WorkerReport};
use lottery_sim::prelude::{SimDuration, SimTime, ThreadId};

use crate::engine::{self, Engine, Tracing, Workload};
use crate::gen::{Kind, Spec};
use crate::trace::{self, Totals};

/// A z-score beyond this fails the share check. A correct scheduler
/// exceeds it about once in a million buckets; at 4 it would fail one
/// benchmark run in a few hundred, and no operation may fail.
pub const SHARE_Z_LIMIT: f64 = 5.0;
/// A bucket is judged only when it and its complement each expect this
/// many quanta: below that the binomial's skew outweighs the limit.
const SHARE_MIN_EXPECTED: f64 = 100.0;

/// Facts read off a finished round, in simulated units or plain counts.
/// Identical in every round of a simulator workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    pub checksum: u64,
    pub decisions: u64,
    pub share_err_pct: f64,
    pub share_z_max: f64,
    pub wake_wait_ms: f64,
    pub util_pct: f64,
    pub events_per_decision: f64,
    pub pending_events_max: u64,
    pub rpc_response_ms: f64,
    pub lock_wait_ms: f64,
    pub context_switch_pct: f64,
    pub grants_per_decision: f64,
    pub steals: u64,
    pub migrations: u64,
    pub rebalances: u64,
    pub cpu_imbalance_pct: f64,
    pub flight_dropped: u64,
    pub bus_events_per_decision: f64,
}

/// What the traced boundaries saw during the timed slices.
#[derive(Debug, Clone)]
pub struct Traced {
    pub totals: Totals,
    pub slice_ns: u64,
    /// `(index, start, end, decisions)` of every slice, on the span clock.
    pub slices: Vec<(u32, u64, u64, u64)>,
    pub spans: Vec<trace::Span>,
}

#[derive(Debug, Clone)]
pub struct Round {
    pub setup_s: f64,
    /// Host ns and decisions of each slice, in order.
    pub slices: Vec<(u64, u64)>,
    /// Decisions made inside the timed slices.
    pub decisions: u64,
    /// Slices plus output checks.
    pub attempted: u64,
    pub failed: u64,
    /// Share of the timed period this thread spent runnable but not running.
    pub runq_wait_pct: f64,
    pub facts: Facts,
    pub traced: Option<Traced>,
    pub failures: Vec<String>,
}

impl Round {
    /// Host time inside the timed slices.
    fn timed_ns(&self) -> u64 {
        self.slices.iter().map(|&(ns, _)| ns).sum()
    }

    /// Host ns per decision, slice by slice.
    pub fn ns_per_decision(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|&(ns, decisions)| ns as f64 / decisions.max(1) as f64)
            .collect()
    }

    fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// Nanoseconds this thread has waited on a host run queue, from
/// `/proc/thread-self/schedstat`; `None` off Linux.
fn runq_wait_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

/// FNV-1a over the final per-thread CPU times, in thread order.
fn checksum(cpu_us: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in cpu_us {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    // 48 bits survive a trip through a JSON number exactly.
    h & 0xFFFF_FFFF_FFFF
}

/// Funded value of every client against the base currency's active amount:
/// base-currency conservation.
fn conservation_error(ledger: &Ledger) -> f64 {
    let mut v = Valuator::new(ledger);
    let total: f64 = ledger
        .clients()
        .map(|(id, _)| v.client_funded_value(id).unwrap_or(f64::NAN))
        .sum();
    let base = ledger
        .currency(ledger.base())
        .map_or(f64::NAN, |c| c.active_amount() as f64);
    (total - base).abs() / base.max(1.0)
}

/// One pooled bucket of compared threads, summed over the runs it was
/// judged in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bucket {
    won: f64,
    expected: f64,
    variance: f64,
    /// Quanta expected to go to the rest of the bucket's group.
    complement: f64,
}

/// Compares the CPU share of the always-runnable compute threads with
/// their ticket share.
///
/// Two compute threads can be compared exactly when the ratio of their
/// values never moves: conditional on one of them winning a lottery, each
/// wins it with its share of their joint weight, whoever else is in the
/// pool. Inside one currency that is always so (the ratio is that of the
/// face amounts). Across currencies it is so when no member of either
/// currency ever blocks, and then the weight is the thread's base value.
/// Threads are therefore grouped by shard and, where a currency has
/// blocking members, by currency; within a group of more than 64 the
/// threads are pooled by face amount so that every bucket expects enough
/// quanta for a normal approximation.
///
/// Independent runs of one spec (`par_contend` makes forty to a round) are
/// pooled bucket by bucket: each run adds what the bucket won, what it
/// expected of that run's group total and the binomial variance of that,
/// so a run in which a thread changed shards simply leaves it out.
#[derive(Debug, Clone, Default)]
pub struct ShareTally {
    /// `(shard, domain, pooled by face amount, face amount or thread)`.
    buckets: BTreeMap<(u32, u32, bool, u64), Bucket>,
}

impl ShareTally {
    /// Adds one run. `quanta[i]` is the number of quanta thread `i`
    /// received; `shard_of(i)` the shard it spent the whole run on, `None`
    /// if it moved.
    pub fn add(&mut self, spec: &Spec, quanta: &[f64], shard_of: impl Fn(usize) -> Option<u32>) {
        let tenants = spec.currencies.len();
        let mut blocking = vec![false; tenants];
        let mut issued = vec![0u64; tenants];
        for t in &spec.threads {
            issued[t.currency as usize] += t.tickets;
            if !matches!(t.kind, Kind::Compute | Kind::Yield { .. }) {
                blocking[t.currency as usize] = true;
            }
        }
        let mut groups: BTreeMap<(u32, u32), Vec<(usize, f64)>> = BTreeMap::new();
        for (i, t) in spec.compute_threads() {
            let Some(shard) = shard_of(i) else { continue };
            let c = t.currency as usize;
            let (domain, weight) = if blocking[c] {
                (t.currency + 1, t.tickets as f64)
            } else {
                (
                    0,
                    spec.currencies[c] as f64 * t.tickets as f64 / issued[c] as f64,
                )
            };
            groups.entry((shard, domain)).or_default().push((i, weight));
        }
        for (&(shard, domain), members) in &groups {
            let pooled = members.len() > 64;
            let mut run: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
            for &(i, weight) in members {
                let key = if pooled {
                    spec.threads[i].tickets
                } else {
                    i as u64
                };
                let b = run.entry(key).or_default();
                b.0 += weight;
                b.1 += quanta[i];
            }
            let weight: f64 = run.values().map(|b| b.0).sum();
            let total: f64 = run.values().map(|b| b.1).sum();
            for (&key, &(w, n)) in &run {
                let p = w / weight;
                let b = self
                    .buckets
                    .entry((shard, domain, pooled, key))
                    .or_default();
                b.won += n;
                b.expected += total * p;
                b.variance += total * p * (1.0 - p);
                b.complement += total * (1.0 - p);
            }
        }
    }

    /// The largest relative share error in percent and the largest |z|,
    /// over the buckets that expect enough quanta to be judged.
    pub fn verdict(&self) -> (f64, f64) {
        let (mut err_max, mut z_max) = (0.0f64, 0.0f64);
        for b in self.buckets.values() {
            if b.expected < SHARE_MIN_EXPECTED || b.complement < SHARE_MIN_EXPECTED {
                continue;
            }
            let off = (b.won - b.expected).abs();
            err_max = err_max.max(100.0 * off / b.expected);
            z_max = z_max.max(off / b.variance.sqrt());
        }
        (err_max, z_max)
    }
}

/// [`ShareTally`] over a single run in which no thread moved.
pub fn share_check(spec: &Spec, quanta: &[f64], shard_of: impl Fn(usize) -> u32) -> (f64, f64) {
    let mut tally = ShareTally::default();
    tally.add(spec, quanta, |i| Some(shard_of(i)));
    tally.verdict()
}

fn mean_ms(sum_us: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_us / count as f64 / 1e3
    }
}

fn imbalance_pct(per_cpu: &[u64]) -> f64 {
    let max = per_cpu.iter().copied().max().unwrap_or(0) as f64;
    let min = per_cpu.iter().copied().min().unwrap_or(0) as f64;
    let mean = per_cpu.iter().sum::<u64>() as f64 / per_cpu.len().max(1) as f64;
    if mean == 0.0 {
        0.0
    } else {
        100.0 * (max - min) / mean
    }
}

fn sim_facts(workload: Workload, spec: &Spec, engine: &dyn Engine, pending_max: u64) -> Facts {
    let metrics = engine.metrics();
    let smp = workload.cpus() > 1;
    let quantum_us = workload.quantum().as_us() as f64;
    let cpu_us: Vec<u64> = (0..spec.threads.len())
        .map(|i| metrics.cpu_us(ThreadId::from_index(i as u32)))
        .collect();
    let quanta: Vec<f64> = cpu_us.iter().map(|&c| c as f64 / quantum_us).collect();
    let view = engine.view();
    let (share_err_pct, share_z_max) = share_check(spec, &quanta, |i| {
        view.shard_of(ThreadId::from_index(i as u32))
    });

    let (mut wake_sum, mut wake_n) = (0.0, 0u64);
    let (mut rpc_sum, mut rpc_n) = (0.0, 0u64);
    let (mut lock_sum, mut lock_n) = (0.0, 0u64);
    let mut blocks = 0u64;
    for (i, t) in spec.threads.iter().enumerate() {
        let Some(m) = metrics.thread(ThreadId::from_index(i as u32)) else {
            continue;
        };
        blocks += m.blocks;
        rpc_sum += m.response_us.sum();
        rpc_n += m.response_us.count();
        lock_sum += m.lock_wait_us.sum();
        lock_n += m.lock_wait_us.count();
        // Threads whose every ready-queue wait follows a wake: sleepers,
        // RPC parties, lock waiters. The uniprocessor kernel files those
        // waits under `wait_us`, the SMP kernel under `wake_wait_us`.
        if !matches!(t.kind, Kind::Compute | Kind::Yield { .. }) {
            let waits = if smp { &m.wake_wait_us } else { &m.wait_us };
            wake_sum += waits.sum();
            wake_n += waits.count();
        }
    }
    let decisions = metrics.decisions.max(1) as f64;
    let busy = engine.busy_us();
    let capacity = engine.now().as_us() as f64 * busy.len() as f64;
    let [steals, migrations, rebalances] = view.smp_counters();
    Facts {
        checksum: checksum(&cpu_us),
        decisions: metrics.decisions,
        share_err_pct,
        share_z_max,
        wake_wait_ms: mean_ms(wake_sum, wake_n),
        util_pct: 100.0 * busy.iter().sum::<u64>() as f64 / capacity.max(1.0),
        events_per_decision: blocks as f64 / decisions,
        pending_events_max: pending_max,
        rpc_response_ms: mean_ms(rpc_sum, rpc_n),
        lock_wait_ms: mean_ms(lock_sum, lock_n),
        context_switch_pct: 100.0 * metrics.context_switches as f64 / decisions,
        grants_per_decision: view.ledger().compensations_granted() as f64 / decisions,
        steals,
        migrations,
        rebalances,
        cpu_imbalance_pct: if smp { imbalance_pct(&busy) } else { 0.0 },
        flight_dropped: 0,
        bus_events_per_decision: 0.0,
    }
}

fn empty_round(setup_s: f64) -> Round {
    Round {
        setup_s,
        slices: Vec::new(),
        decisions: 0,
        attempted: 0,
        failed: 0,
        runq_wait_pct: 0.0,
        facts: Facts::default(),
        traced: None,
        failures: Vec::new(),
    }
}

/// A panic inside the measured code is one failed operation, not the end
/// of the benchmark.
fn guarded(run: impl FnOnce() -> Round) -> Round {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        let mut round = empty_round(0.0);
        round.attempted = 1;
        round.failed = 1;
        round.failures.push("panic in the measured code".into());
        round
    })
}

/// How far a round runs: `warm_up` untimed slices (runs, on the real-thread
/// backend), charged to set-up, then `slices` timed ones. The warm-up is
/// that of the full horizon however many slices follow it, so that slice
/// `i` starts at the same simulated instant, and is the same work, in a
/// shortened round as in a full one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub warm_up: u32,
    pub slices: u32,
}

/// One round of a simulator workload.
pub fn sim_round(workload: Workload, spec: &Spec, extent: Extent, tracing: Tracing) -> Round {
    guarded(|| sim_round_inner(workload, spec, extent, tracing))
}

fn sim_round_inner(workload: Workload, spec: &Spec, extent: Extent, tracing: Tracing) -> Round {
    let started = Instant::now();
    let built = engine::build_sim(workload, spec, tracing);
    let mut engine = built.engine;
    let slice = workload.slice();
    let Extent { warm_up, slices } = extent;
    let mut deadline = SimTime::ZERO + slice * u64::from(warm_up);
    let warm = engine.advance(deadline);
    engine.view_mut().settle();
    let mut round = empty_round(started.elapsed().as_secs_f64());
    round.check("warm-up", warm.is_ok(), || format!("{warm:?}"));

    let traced = tracing == Tracing::On;
    if traced {
        trace::reset();
    }
    let mut slice_spans = Vec::new();
    let mut pending_max = 0u64;
    let warm_decisions = engine.metrics().decisions;
    let wait_before = runq_wait_ns();
    for i in 0..slices {
        deadline += slice;
        let before = engine.metrics().decisions;
        let span_start = if traced { trace::begin_slice(i) } else { 0 };
        let timer = Instant::now();
        let result = engine.advance(deadline);
        let ns = timer.elapsed().as_nanos() as u64;
        let made = engine.metrics().decisions - before;
        if traced {
            slice_spans.push((i, span_start, trace::now_ns(), made));
        }
        round.slices.push((ns, made));
        pending_max = pending_max.max(engine.pending_events() as u64);
        let ok = result.is_ok() && engine.now() == deadline && made > 0;
        round.check("slice", ok, || {
            format!(
                "slice {i}: {result:?}, clock {}, {made} decisions",
                engine.now()
            )
        });
    }
    if let (Some(a), Some(b)) = (wait_before, runq_wait_ns()) {
        round.runq_wait_pct = 100.0 * (b - a) as f64 / round.timed_ns().max(1) as f64;
    }
    round.decisions = engine.metrics().decisions - warm_decisions;
    if traced {
        round.traced = Some(Traced {
            totals: trace::totals(),
            slice_ns: round.timed_ns(),
            slices: slice_spans,
            spans: trace::take_spans(),
        });
    }

    round.facts = sim_facts(workload, spec, engine.as_ref(), pending_max);
    if let Some(flight) = &built.flight {
        round.facts.flight_dropped = flight.with(|f| f.dropped());
        if let Some(t) = &round.traced {
            round.facts.bus_events_per_decision =
                t.totals.count_of(trace::Op::Record) as f64 / round.decisions.max(1) as f64;
        }
    }
    let error = conservation_error(engine.view().ledger());
    round.check("conservation", error <= 1e-6, || {
        format!("client values differ from the active base amount by {error:e} relative")
    });
    let z = round.facts.share_z_max;
    round.check("share", z <= SHARE_Z_LIMIT, || {
        format!("compute-thread share is {z:.2} standard deviations off its tickets")
    });
    round
}

/// Quanta won by each thread, and the worker it spent the run on: `None`
/// for a thread that won a quantum on another worker than it ended on.
fn par_wins(workers: &[WorkerReport], threads: usize) -> (Vec<f64>, Vec<Option<u32>>) {
    let mut wins = vec![0.0; threads];
    let mut home = vec![None; threads];
    for w in workers {
        for tid in w.resident.iter().chain(&w.exited) {
            home[tid.index() as usize] = Some(w.id);
        }
    }
    for w in workers {
        for &(_, tid) in &w.winners {
            wins[tid as usize] += 1.0;
            if home[tid as usize] != Some(w.id) {
                home[tid as usize] = None;
            }
        }
    }
    (wins, home)
}

/// What every `ParKernel::run` must leave behind, whatever the interleaving:
/// no value created or lost, every thread on exactly one worker, every
/// donated thread accepted once. `Err` says which of them did not hold.
fn par_invariants(report: &ParReport, spawned: &[ThreadId]) -> Result<(), String> {
    let error = conservation_error(&report.ledger);
    let total = report.client_value_total();
    let partition = catch_unwind(AssertUnwindSafe(|| report.assert_partition(spawned)));
    let steals_in: u64 = report.workers.iter().map(|w| w.steals_in).sum();
    let steals_out: u64 = report.workers.iter().map(|w| w.steals_out).sum();
    if error <= 1e-6 && total.is_finite() && partition.is_ok() && steals_in == steals_out {
        return Ok(());
    }
    Err(format!(
        "conservation error {error:e}, value {total}, partition {}, steals {steals_in} in / \
         {steals_out} out",
        if partition.is_ok() {
            "holds"
        } else {
            "violated"
        }
    ))
}

/// What a round of `par_contend` adds to [`Facts`].
#[derive(Debug, Clone, Default)]
pub struct ParFacts {
    pub steals: u64,
    pub worker_imbalance_pct: f64,
}

/// Runs `extent.warm_up` untimed and `extent.slices` timed `ParKernel::run`s
/// of `spec` to `horizon`, each on a scheduler seed of its own, and hands
/// every timed report to `each`, whose `Err` fails the run.
///
/// Set-up is building the kernel plus the untimed runs: they start the OS
/// threads so that the allocator, the page cache and the host scheduler
/// are warm.
fn par_runs(
    spec: &Spec,
    workers: usize,
    extent: Extent,
    horizon: SimTime,
    mut each: impl FnMut(&ParReport) -> Result<(), String>,
) -> Round {
    let started = Instant::now();
    let mut warm = true;
    for i in 0..extent.warm_up {
        let (kernel, _) = engine::build_par(spec, workers, i);
        warm &= catch_unwind(AssertUnwindSafe(|| kernel.run(horizon))).is_ok();
    }
    let mut round = empty_round(started.elapsed().as_secs_f64());
    round.check("warm-up", warm, || "panic in ParKernel::run".into());

    let wait_before = runq_wait_ns();
    for i in 0..extent.slices {
        let (kernel, spawned) = engine::build_par(spec, workers, i);
        let timer = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| kernel.run(horizon)));
        let ns = timer.elapsed().as_nanos() as u64;
        let Ok(report) = outcome else {
            round.slices.push((ns, 0));
            round.check("run", false, || format!("run {i} panicked"));
            continue;
        };
        let decisions = report.decisions();
        round.decisions += decisions;
        round.slices.push((ns, decisions));
        let held = if decisions == 0 {
            Err("no decisions".into())
        } else {
            par_invariants(&report, &spawned).and_then(|()| each(&report))
        };
        round.check("run", held.is_ok(), || {
            format!("run {i}: {}", held.as_ref().unwrap_err())
        });
    }
    if let (Some(a), Some(b)) = (wait_before, runq_wait_ns()) {
        round.runq_wait_pct = 100.0 * (b - a) as f64 / round.timed_ns().max(1) as f64;
    }
    round
}

/// One round of `par_contend`: independent `ParKernel::run`s of the same
/// generated threads, each timed from launch to quiesce.
pub fn par_round(spec: &Spec, workers: usize, extent: Extent) -> (Round, ParFacts) {
    let horizon = SimTime::ZERO + Workload::ParContend.slice();
    let mut par = ParFacts::default();
    let mut per_worker = vec![0u64; workers];
    let mut shares = ShareTally::default();
    let (mut busy_us, mut clock_us) = (0u64, 0u64);
    let mut round = par_runs(spec, workers, extent, horizon, |report| {
        par.steals += report.steals();
        busy_us += report.busy().as_us();
        for w in &report.workers {
            per_worker[w.id as usize] += w.decisions;
            clock_us += w.clock.as_us();
        }
        // Spawn placement is deterministic, so a thread starts every run on
        // the same worker; a run in which it was stolen leaves it out.
        let (wins, home) = par_wins(&report.workers, spec.threads.len());
        shares.add(spec, &wins, |i| home[i]);
        Ok(())
    });
    par.worker_imbalance_pct = imbalance_pct(&per_worker);
    let (share_err_pct, share_z_max) = shares.verdict();
    round.facts = Facts {
        decisions: round.decisions,
        share_err_pct,
        share_z_max,
        util_pct: 100.0 * busy_us as f64 / clock_us.max(1) as f64,
        ..Facts::default()
    };
    round.check("share", share_z_max <= SHARE_Z_LIMIT, || {
        format!("compute-thread share is {share_z_max:.2} standard deviations off its tickets")
    });
    (round, par)
}

/// One round of the steal probe: `spec`'s finite jobs run to completion.
/// A worker whose jobs have all exited is dry and asks its peers for one
/// of theirs, so this is where steal requests, migrations and the channels
/// they travel on are exercised; `par_contend`'s threads never exit and its
/// workers never ask. Returns the round and the jobs stolen in it.
pub fn drain_round(spec: &Spec, workers: usize, extent: Extent) -> (Round, u64) {
    let budget_us: u64 = spec
        .threads
        .iter()
        .map(|t| match t.kind {
            Kind::Finite { run_us } => run_us,
            other => unreachable!("the steal probe runs no {other:?} threads"),
        })
        .sum();
    // Long enough for one worker to run every job.
    let horizon = SimTime::ZERO + SimDuration::from_us(budget_us);
    let mut steals = 0;
    let round = par_runs(spec, workers, extent, horizon, |report| {
        steals += report.steals();
        let exited: usize = report.workers.iter().map(|w| w.exited.len()).sum();
        let busy_us = report.busy().as_us();
        // A job whose migration reached a thief that had already given up
        // stays on it unrun, by the backend's design; every other job got
        // exactly its budget.
        let stranded = spec.threads.len() - exited;
        if busy_us == budget_us || (stranded > 0 && busy_us < budget_us) {
            Ok(())
        } else {
            Err(format!(
                "{stranded} jobs left after {busy_us} of {budget_us} µs of work"
            ))
        }
    });
    (round, steals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, ThreadSpec};

    #[test]
    fn checksum_depends_on_order_and_fits_48_bits() {
        let a = checksum(&[1, 2, 3]);
        assert_ne!(a, checksum(&[3, 2, 1]));
        assert_eq!(a, checksum(&[1, 2, 3]));
        assert!(a < 1 << 48);
    }

    fn two_compute(tickets: [u64; 2]) -> Spec {
        Spec {
            sched_seed: 1,
            currencies: vec![100],
            threads: tickets
                .iter()
                .map(|&tickets| ThreadSpec {
                    kind: Kind::Compute,
                    currency: 0,
                    tickets,
                })
                .collect(),
        }
    }

    #[test]
    fn share_check_passes_an_exact_split_and_flags_a_skewed_one() {
        let spec = two_compute([300, 100]);
        let (err, z) = share_check(&spec, &[750.0, 250.0], |_| 0);
        assert!(err < 1e-9 && z < 1e-9, "{err} {z}");
        // 3:1 tickets served 1:1 is far outside any binomial bound.
        let (err, z) = share_check(&spec, &[500.0, 500.0], |_| 0);
        assert!((err - 100.0).abs() < 1e-9, "{err}");
        assert!(z > SHARE_Z_LIMIT, "{z}");
    }

    #[test]
    fn share_check_compares_only_within_a_shard() {
        let spec = two_compute([300, 100]);
        // Alone on their shards, each thread's share of it is 1 whatever it got.
        let (err, z) = share_check(&spec, &[10.0, 900.0], |i| i as u32);
        assert_eq!((err, z), (0.0, 0.0));
    }

    #[test]
    fn share_check_skips_buckets_too_small_to_judge() {
        let spec = two_compute([1000, 10]);
        // The small holder expects under 100 quanta: not judged, and neither
        // is its complement.
        let (err, z) = share_check(&spec, &[3000.0, 0.0], |_| 0);
        assert_eq!((err, z), (0.0, 0.0));
    }

    #[test]
    fn runs_are_pooled_and_a_thread_that_moved_is_left_out() {
        let spec = two_compute([300, 100]);
        let mut tally = ShareTally::default();
        // Each run alone is 1.5 % off; together they are exact.
        tally.add(&spec, &[760.0, 240.0], |_| Some(0));
        tally.add(&spec, &[740.0, 260.0], |_| Some(0));
        let (err, z) = tally.verdict();
        assert!(err < 1e-9 && z < 1e-9, "{err} {z}");
        // A run in which the small holder was stolen compares nothing: the
        // other is alone in its group and its share of it is 1.
        tally.add(&spec, &[5000.0, 1.0], |i| (i == 0).then_some(0));
        assert_eq!(tally.verdict(), (err, z));
    }

    fn worker(id: u32, winners: &[u32], resident: &[u32]) -> WorkerReport {
        WorkerReport {
            id,
            clock: SimTime::ZERO,
            busy: SimDuration::ZERO,
            decisions: winners.len() as u64,
            steals_in: 0,
            steals_out: 0,
            winners: winners.iter().map(|&tid| (0, tid)).collect(),
            resident: resident.iter().map(|&t| ThreadId::from_index(t)).collect(),
            exited: Vec::new(),
            ready: Vec::new(),
            ready_total: 0.0,
        }
    }

    #[test]
    fn a_thread_that_won_on_two_workers_has_no_home() {
        // Thread 1 won twice on worker 0, was stolen and won once on worker 1;
        // thread 2 never won at all.
        let workers = [
            worker(0, &[0, 1, 1, 0], &[0]),
            worker(1, &[1, 3], &[1, 2, 3]),
        ];
        let (wins, home) = par_wins(&workers, 4);
        assert_eq!(wins, [2.0, 3.0, 0.0, 1.0]);
        assert_eq!(home, [Some(0), None, Some(1), Some(1)]);
    }

    const SHORT: Extent = Extent {
        warm_up: 3,
        slices: 20,
    };

    #[test]
    fn a_short_desktop_round_passes_its_own_checks_and_repeats() {
        let spec = gen::desktop(11);
        let a = sim_round(Workload::DesktopMix, &spec, SHORT, Tracing::Off);
        let b = sim_round(Workload::DesktopObserved, &spec, SHORT, Tracing::On);
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(b.failed, 0, "{:?}", b.failures);
        assert_eq!(a.attempted, 20 + 3);
        assert_eq!(a.ns_per_decision().len(), 20);
        // The probe bus and the timing wrappers change no decision.
        assert_eq!(a.facts.checksum, b.facts.checksum);
        assert_eq!(a.facts.decisions, b.facts.decisions);
        let t = b.traced.expect("traced round keeps its totals");
        assert!(t.totals.count_of(trace::Op::Pick) >= b.decisions);
        assert!(t.totals.top_level_ns() <= t.slice_ns);
        assert!(b.facts.bus_events_per_decision > 1.0);
    }

    #[test]
    fn a_shortened_traced_round_makes_the_full_rounds_first_slices() {
        let decisions = |r: &Round| r.slices.iter().map(|s| s.1).collect::<Vec<_>>();
        for (workload, spec) in [
            (Workload::DesktopMix, gen::desktop(5)),
            (Workload::ScaleSteady, gen::scale_steady(5)),
        ] {
            let quarter = Extent {
                slices: SHORT.slices / 4,
                ..SHORT
            };
            let full = sim_round(workload, &spec, SHORT, Tracing::Off);
            let traced = sim_round(workload, &spec, quarter, Tracing::On);
            assert_eq!(full.failed + traced.failed, 0);
            assert_eq!(decisions(&traced), decisions(&full)[..5]);
        }
    }

    #[test]
    fn the_steal_probe_runs_every_job_to_its_end() {
        let spec = gen::par_drain(4);
        let extent = Extent {
            warm_up: 1,
            slices: 3,
        };
        let (round, _steals) = drain_round(&spec, 2, extent);
        assert_eq!(round.failed, 0, "{:?}", round.failures);
        assert_eq!(round.attempted, 1 + 3);
        let quanta: u64 = spec
            .threads
            .iter()
            .map(|t| match t.kind {
                Kind::Finite { run_us } => run_us.div_ceil(10_000),
                _ => unreachable!(),
            })
            .sum();
        assert_eq!(round.decisions, 3 * quanta);
    }
}
