//! The distributed lottery policy (Section 4.2's closing remark).
//!
//! The paper notes the partial-sum tree "can also be used as the basis of
//! a distributed lottery scheduler". This module builds that scheduler:
//! one partial-sum tree per CPU *shard*, each client assigned a home
//! shard, and every dispatch decision a purely local lottery over the
//! picking CPU's own tree. Global proportional share is preserved because
//! a client's tickets are worth the same base units wherever they live:
//! each CPU holds lotteries at the same rate, and a client holding value
//! `v` on a shard of total `S` wins `v/S` of that shard's dispatches —
//! so keeping per-shard totals balanced keeps machine-wide service
//! proportional to `v/T`.
//!
//! Three mechanisms keep the shards honest:
//!
//! * **sharded dirty notifications** — the ledger's valuation
//!   invalidations are partitioned by home shard
//!   ([`Ledger::drain_dirty_shard_into`]), so a pick settles only its own
//!   shard's stale weights instead of contending on one global queue;
//! * **work stealing** — a CPU whose shard has no ready thread draws from
//!   the heaviest foreign shard, keeping CPUs busy without
//!   re-centralizing the common case;
//! * **ticket-weight rebalancing** — every `rebalance_interval` picks the
//!   policy compares per-shard totals and, past a configurable imbalance
//!   bound, migrates ready threads from the heaviest shard to the
//!   lightest until the bound holds again. By default the comparison uses
//!   *effective* (compensated) totals: each shard's ready tree total plus
//!   the ledger's resting compensated weight — the `factor × funded`
//!   value its blocked, compensated threads bring back when they wake.
//!   Raw tree totals mistake a shard full of sleeping I/O-bound threads
//!   for an idle one ([`DistributedLottery::set_comp_aware_rebalance`]
//!   exposes that ablation).
//!
//! Each per-CPU shard is the same [`Shard`] each `lottery-par` worker
//! holds one of, and the ledger, the funding book, the RPC transfer book,
//! the mutex table and the sequence around every draw are the same
//! [`LotteryCore`] — all written once, and so is a CPU's pick on a shard
//! ([`LotteryCore::pick_from`]: the draw, staged with its shard and steal
//! for the kernel's decision probe). What this policy adds around them: a
//! home shard per thread (which is also the ledger dirty queue its
//! invalidations go to), the choice of victim to steal from, and
//! rebalancing. Over one shard there is nothing to home, steal or
//! rebalance, and none of the three does any work: that case is
//! [`super::lottery::LotteryPolicy`], the uniprocessor policy, which adds
//! only the list walk as its default structure.
//!
//! A list shard stores no weights — it values the queue through the ledger
//! at draw time — so its total is only what its last draw summed, too
//! stale to home, steal or rebalance by. [`SelectStructure::List`]
//! therefore means exactly one shard.

use std::ops::{Deref, DerefMut};

use lottery_core::ledger::Ledger;
use lottery_obs::{EventKind, ProbeBus};

use super::core::LotteryCore;
use super::lottery::{FundingSpec, SelectStructure};
use super::shard::Shard;
use super::{EndReason, LockId, Policy};
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Why [`SelectStructure::List`] runs on exactly one shard.
pub const LIST_ONE_SHARD: &str =
    "a list shard keeps no weights to home, steal or rebalance by: the list structure needs exactly one shard";

/// Per-shard statistics, as reported by [`DistributedLottery::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Threads homed on this shard (ready or not).
    pub threads: u32,
    /// Ready-queue depth.
    pub queue_depth: u32,
    /// Total ticket value of the shard's ready threads, in base units.
    pub ticket_total: f64,
    /// Compensated weight homed here: the base-unit worth of the implicit
    /// compensation tickets this shard's threads hold.
    pub comp_weight: f64,
    /// Resting compensated weight: `factor × funded` of this shard's
    /// blocked compensated threads — invisible to `ticket_total`, but the
    /// value the tree regains when they wake.
    pub resting_weight: f64,
    /// Lotteries resolved from this shard's tree.
    pub picks: u64,
    /// Pending dirty-client notifications owned by this shard.
    pub dirty_depth: u32,
}

/// A lottery policy with one partial-sum tree per CPU.
///
/// Currencies, funding, the ledger and the compensation switch are the
/// [`LotteryCore`]'s, reached through `Deref`.
pub struct DistributedLottery {
    core: LotteryCore,
    /// Per-CPU shards; a thread's lotteries happen on its home shard.
    shards: Vec<Shard>,
    /// Lotteries resolved from each shard.
    shard_picks: Vec<u64>,
    /// Home shard per thread, indexed by thread id; empty over one shard,
    /// where every thread lives on shard 0.
    home: Vec<u32>,
    /// Whether homing, stealing, and rebalancing compare *effective*
    /// (compensated) shard totals; `false` is the raw-weight ablation.
    comp_aware: bool,
    /// Picks since the last rebalance check.
    picks_since_check: u32,
    /// How many picks between rebalance checks.
    rebalance_interval: u32,
    /// A shard is "heavy" when its total exceeds `bound × mean`.
    imbalance_bound: f64,
    /// Work-stealing picks (local tree was empty).
    steals: u64,
    /// Threads re-homed by rebalancing or explicit migration.
    migrations: u64,
    /// Rebalance rounds that found the bound violated.
    rebalances: u64,
}

impl Deref for DistributedLottery {
    type Target = LotteryCore;

    fn deref(&self) -> &LotteryCore {
        &self.core
    }
}

impl DerefMut for DistributedLottery {
    fn deref_mut(&mut self) -> &mut LotteryCore {
        &mut self.core
    }
}

impl DistributedLottery {
    /// Creates a distributed lottery over `shards` per-CPU trees with the
    /// paper's 100 ms quantum.
    ///
    /// # Panics
    ///
    /// Panics on zero shards.
    pub fn new(seed: u32, shards: usize) -> Self {
        Self::with_quantum(seed, shards, SimDuration::from_ms(100))
    }

    /// Creates a distributed lottery with an explicit quantum.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or a zero quantum.
    pub fn with_quantum(seed: u32, shards: usize, quantum: SimDuration) -> Self {
        assert!(shards > 0, "a distributed lottery needs at least one shard");
        let mut core = LotteryCore::new(seed, quantum);
        core.ledger.set_dirty_shards(shards);
        Self {
            core,
            shards: (0..shards)
                .map(|_| Shard::new(SelectStructure::Tree))
                .collect(),
            shard_picks: vec![0; shards],
            home: Vec::new(),
            comp_aware: true,
            picks_since_check: 0,
            rebalance_interval: 32,
            imbalance_bound: 1.5,
            steals: 0,
            migrations: 0,
            rebalances: 0,
        }
    }

    /// Tunes the rebalancer: check every `interval` picks, and call a
    /// shard heavy when its total exceeds `bound × mean`.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or a bound below 1.
    pub fn set_rebalance(&mut self, interval: u32, bound: f64) {
        assert!(interval > 0, "rebalance interval must be positive");
        assert!(bound >= 1.0, "imbalance bound must be at least 1");
        self.rebalance_interval = interval;
        self.imbalance_bound = bound;
    }

    /// Chooses whether homing, stealing, and rebalancing compare
    /// effective (compensated) shard totals — ready tree value plus the
    /// resting compensated weight of blocked threads — or raw ready tree
    /// totals only. Raw totals are the ablation: a shard whose I/O-bound
    /// threads are asleep looks empty and attracts load it cannot carry.
    pub fn set_comp_aware_rebalance(&mut self, enabled: bool) {
        self.comp_aware = enabled;
    }

    /// Selects the per-shard winner-search structure, rebuilding every
    /// shard in queue order with exact values from the valuation cache.
    /// May be called at any point, even mid-run with threads queued. Emits
    /// one [`EventKind::StructureRebuild`] per shard.
    ///
    /// # Panics
    ///
    /// Panics on [`SelectStructure::List`] over more than one shard: a list
    /// shard's total is only what its last draw summed ([`LIST_ONE_SHARD`]).
    pub fn set_structure(&mut self, structure: SelectStructure) {
        assert!(
            structure != SelectStructure::List || self.shards.len() == 1,
            "{LIST_ONE_SHARD}"
        );
        for (s, shard) in self.shards.iter_mut().enumerate() {
            self.core.rebuild(s as u32, shard, structure);
        }
    }

    /// The active per-shard winner-search structure.
    pub fn structure(&self) -> SelectStructure {
        self.shards[0].structure()
    }

    /// A shard's weight as the load balancer sees it: the ready shard
    /// total, plus (in compensated mode) the `factor × funded` weight of
    /// its resting compensated threads.
    fn effective_total(&self, shard: u32) -> f64 {
        let ready = self.shards[shard as usize].total();
        if self.comp_aware {
            ready + self.core.ledger.compensation_resting_weight(shard)
        } else {
            ready
        }
    }

    /// A thread's home shard.
    pub fn home_of(&self, tid: ThreadId) -> u32 {
        self.home.get(tid.index() as usize).copied().unwrap_or(0)
    }

    /// Read access to the underlying ledger (as [`LotteryCore::ledger`];
    /// inherent so `DistributedLottery::ledger` names it).
    pub fn ledger(&self) -> &Ledger {
        self.core.ledger()
    }

    /// Work-stealing picks so far.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Threads re-homed so far (rebalancing plus explicit migration).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Rebalance rounds that found the imbalance bound violated.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Per-shard statistics. Settles the shard's pending invalidations
    /// first so the reported totals are exact.
    pub fn shard_stats(&mut self, shard: u32) -> ShardStats {
        self.refresh_shard(shard);
        let threads = self
            .core
            .registered()
            .filter(|&tid| self.home_of(tid) == shard)
            .count() as u32;
        let sh = &self.shards[shard as usize];
        ShardStats {
            threads,
            queue_depth: sh.len() as u32,
            ticket_total: sh.total(),
            comp_weight: self.core.ledger.compensation_shard_weight(shard),
            resting_weight: self.core.ledger.compensation_resting_weight(shard),
            picks: self.shard_picks[shard as usize],
            dirty_depth: self.core.ledger.dirty_shard_depth(shard) as u32,
        }
    }

    /// Sum of every shard's ready total, in base units — the
    /// machine-wide ready ticket value the conservation proptests check.
    pub fn ready_ticket_total(&mut self) -> f64 {
        for s in 0..self.shards.len() as u32 {
            self.refresh_shard(s);
        }
        self.shards.iter().map(Shard::total).sum()
    }

    /// Re-homes a thread to `shard`, moving its ready entry, tree leaf,
    /// and dirty-notification ownership.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard or an unregistered thread.
    pub fn migrate(&mut self, tid: ThreadId, shard: u32) {
        assert!((shard as usize) < self.shards.len(), "no such shard");
        let client = self.core.client_of(tid);
        let from = self.home_of(tid);
        if from == shard {
            return;
        }
        let was_ready = self.shards[from as usize].remove(tid);
        self.home[tid.index() as usize] = shard;
        self.core.home(client, shard);
        if was_ready {
            let value = self.core.value_of(tid);
            self.shards[shard as usize].insert(tid, value);
        }
        self.migrations += 1;
        let thread = tid.index();
        self.core.bus.emit(|| EventKind::ShardMigrate {
            thread,
            from_shard: from,
            to_shard: shard,
        });
    }

    /// The shard a fresh thread should call home: the one with the least
    /// effective ticket value, ties to the lowest index.
    fn least_loaded_shard(&self) -> u32 {
        let mut best = 0u32;
        let mut best_total = f64::INFINITY;
        for i in 0..self.shards.len() as u32 {
            let total = self.effective_total(i);
            if total < best_total {
                best_total = total;
                best = i;
            }
        }
        best
    }

    /// Settles the invalidations pending on a shard's own dirty queue.
    fn refresh_shard(&mut self, shard: u32) {
        self.core.refresh(shard, &mut self.shards[shard as usize]);
    }

    /// The heaviest foreign shard with ready work, for a CPU whose own
    /// shard is empty. The thief's dirty queue is settled first (its
    /// notifications are for threads that are not ready, so this only
    /// empties it). One shard has no victim and settles nothing.
    fn steal_victim(&mut self, thief: u32) -> Option<u32> {
        if self.shards.len() == 1 {
            return None;
        }
        self.refresh_shard(thief);
        let mut best: Option<(u32, f64)> = None;
        for s in 0..self.shards.len() as u32 {
            if s == thief || self.shards[s as usize].is_empty() {
                continue;
            }
            self.refresh_shard(s);
            let total = self.effective_total(s);
            if best.is_none_or(|(_, t)| total > t) {
                best = Some((s, total));
            }
        }
        best.map(|(s, _)| s)
    }

    /// Checks per-shard effective totals and migrates ready threads from
    /// the heaviest shard to the lightest until the bound holds again.
    fn maybe_rebalance(&mut self) {
        for s in 0..self.shards.len() as u32 {
            self.refresh_shard(s);
        }
        // Sample the per-shard compensation share while the totals are
        // fresh; the aggregator's `lottery_compensation_weight{shard=…}`
        // gauges are fed from exactly these events.
        if self.core.bus.is_enabled() {
            for s in 0..self.shards.len() as u32 {
                let weight = self.core.ledger.compensation_shard_weight(s);
                let total = self.effective_total(s);
                self.core.bus.emit(|| EventKind::ShardCompensation {
                    shard: s,
                    weight,
                    total,
                });
            }
        }
        let mut round = 0u64;
        // Each migration strictly shrinks the heaviest shard, so the
        // total ready count bounds the rounds.
        let max_rounds = self.ready_len() as u64;
        loop {
            // One pass over the shards: the sum in shard order, the last
            // heaviest shard and the first lightest, by `total_cmp`.
            let first = self.effective_total(0);
            let (mut sum, mut heavy, mut max_total, mut light, mut min_total) =
                (first, 0, first, 0, first);
            for s in 1..self.shards.len() {
                let total = self.effective_total(s as u32);
                sum += total;
                if total.total_cmp(&max_total).is_ge() {
                    (heavy, max_total) = (s, total);
                }
                if total.total_cmp(&min_total).is_lt() {
                    (light, min_total) = (s, total);
                }
            }
            let mean = sum / self.shards.len() as f64;
            if mean <= 0.0 || max_total <= self.imbalance_bound * mean {
                break;
            }
            if round == 0 {
                self.rebalances += 1;
                self.core.bus.emit(|| EventKind::ShardImbalance {
                    max_total,
                    mean_total: mean,
                });
            }
            round += 1;
            if round > max_rounds || self.shards[heavy].len() <= 1 {
                break;
            }
            // Move the ready thread that brings the heavy/light pair
            // closest to their midpoint. Only strict improvements
            // (`0 < v < max - min`) are eligible: anything else would
            // swap the imbalance and oscillate.
            let midpoint = (max_total - min_total) / 2.0;
            let mut choice: Option<(ThreadId, f64)> = None;
            for tid in self.shards[heavy].iter() {
                let v = self.value_of(tid);
                if v <= 0.0 || v >= max_total - min_total {
                    continue;
                }
                let distance = (v - midpoint).abs();
                if choice.is_none_or(|(_, best)| distance < (best - midpoint).abs()) {
                    choice = Some((tid, v));
                }
            }
            let Some((tid, _)) = choice else {
                // No single migration can help at this ticket
                // granularity; the bound stays violated until values
                // shift.
                break;
            };
            self.migrate(tid, light as u32);
        }
    }
}

impl Policy for DistributedLottery {
    type Spec = FundingSpec;

    /// Registers a thread, homing it on the least-loaded shard (over one
    /// shard, on shard 0 without looking).
    ///
    /// # Panics
    ///
    /// Panics when the spec names a stale currency or a zero amount —
    /// both are harness configuration bugs.
    fn on_spawn(&mut self, tid: ThreadId, spec: FundingSpec) {
        let client = self.core.spawn(tid, spec);
        if self.shards.len() == 1 {
            return;
        }
        let home = self.least_loaded_shard();
        let idx = tid.index() as usize;
        if self.home.len() <= idx {
            self.home.resize(idx + 1, 0);
        }
        self.home[idx] = home;
        self.core.home(client, home);
    }

    fn on_exit(&mut self, tid: ThreadId) {
        let home = self.home_of(tid);
        self.core.exit(tid, &mut self.shards[home as usize]);
    }

    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        let home = self.home_of(tid);
        self.core.activate(tid, &mut self.shards[home as usize]);
    }

    /// A shard-0 lottery — the uniprocessor entry point.
    fn pick(&mut self, now: SimTime) -> Option<ThreadId> {
        self.pick_on(0, now)
    }

    /// A local lottery on the CPU's own shard; steals from the heaviest
    /// foreign shard when the local queue is empty.
    fn pick_on(&mut self, cpu: u32, _now: SimTime) -> Option<ThreadId> {
        let local = cpu % self.shards.len() as u32;
        let (shard, stolen) = if self.shards[local as usize].is_empty() {
            (self.steal_victim(local)?, true)
        } else {
            self.refresh_shard(local);
            (local, false)
        };
        self.shard_picks[shard as usize] += 1;
        self.steals += u64::from(stolen);
        let tid = self
            .core
            .pick_from(shard, &mut self.shards[shard as usize], stolen);
        if self.shards.len() > 1 {
            self.picks_since_check += 1;
            if self.picks_since_check >= self.rebalance_interval {
                self.picks_since_check = 0;
                self.maybe_rebalance();
            }
        }
        Some(tid)
    }

    fn ready_len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    // The rest is the core's, whichever shards the threads are homed on
    // (see `LotteryCore::transfer` for an RPC across shards).
    delegate! { core =>
        fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason);
        fn quantum(&self) -> SimDuration;
        fn set_probe_bus(&mut self, bus: ProbeBus);
        fn transfer(&mut self, from: ThreadId, to: ThreadId);
        fn untransfer(&mut self, from: ThreadId, to: ThreadId);
        fn create_lock(&mut self) -> LockId;
        fn lock(&mut self, tid: ThreadId, lock: LockId) -> bool;
        fn unlock(&mut self, tid: ThreadId, lock: LockId) -> Option<ThreadId>;
        fn cancel_lock_waits(&mut self, tid: ThreadId);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId::from_index(0);
    const T1: ThreadId = ThreadId::from_index(1);
    const T2: ThreadId = ThreadId::from_index(2);
    const T3: ThreadId = ThreadId::from_index(3);

    fn base_spec(p: &DistributedLottery, amount: u64) -> FundingSpec {
        FundingSpec::new(p.base_currency(), amount)
    }

    #[test]
    fn spawns_spread_across_shards() {
        let mut p = DistributedLottery::new(1, 2);
        let spec = base_spec(&p, 100);
        for i in 0..4 {
            let tid = ThreadId::from_index(i);
            p.on_spawn(tid, spec);
            p.enqueue(tid, SimTime::ZERO);
        }
        let homes: Vec<u32> = (0..4).map(|i| p.home_of(ThreadId::from_index(i))).collect();
        assert_eq!(homes.iter().filter(|&&h| h == 0).count(), 2);
        assert_eq!(homes.iter().filter(|&&h| h == 1).count(), 2);
        // Dirty ownership follows the home assignment.
        for i in 0..4 {
            let tid = ThreadId::from_index(i);
            assert_eq!(p.ledger().dirty_shard_of(p.client_of(tid)), p.home_of(tid));
        }
    }

    #[test]
    fn local_picks_stay_on_the_cpu_shard() {
        let mut p = DistributedLottery::new(7, 2);
        let spec = base_spec(&p, 100);
        for i in 0..4 {
            let tid = ThreadId::from_index(i);
            p.on_spawn(tid, spec);
            p.enqueue(tid, SimTime::ZERO);
        }
        let w0 = p.pick_on(0, SimTime::ZERO).unwrap();
        let w1 = p.pick_on(1, SimTime::ZERO).unwrap();
        assert_eq!(p.home_of(w0), 0);
        assert_eq!(p.home_of(w1), 1);
        assert_eq!(p.steals(), 0);
    }

    #[test]
    fn empty_shard_steals_from_the_heaviest() {
        let mut p = DistributedLottery::new(7, 2);
        let spec = base_spec(&p, 100);
        p.on_spawn(T0, spec);
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.home_of(T0), 0);
        // CPU 1's shard is empty: it must steal T0 from shard 0.
        assert_eq!(p.pick_on(1, SimTime::ZERO), Some(T0));
        assert_eq!(p.steals(), 1);
        assert_eq!(p.pick_on(1, SimTime::ZERO), None);
    }

    #[test]
    fn proportional_shares_hold_per_shard() {
        let mut p = DistributedLottery::new(42, 1);
        let s0 = base_spec(&p, 300);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        let mut wins = [0u32; 2];
        let n = 20_000;
        for _ in 0..n {
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let w = p.pick(SimTime::ZERO).unwrap();
            wins[w.index() as usize] += 1;
            let other = p.pick(SimTime::ZERO).unwrap();
            assert_ne!(w, other);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
    }

    #[test]
    fn migration_moves_ready_entry_and_dirty_ownership() {
        let mut p = DistributedLottery::new(3, 2);
        let spec = base_spec(&p, 100);
        p.on_spawn(T0, spec);
        p.enqueue(T0, SimTime::ZERO);
        let from = p.home_of(T0);
        let to = 1 - from;
        p.migrate(T0, to);
        assert_eq!(p.home_of(T0), to);
        assert_eq!(p.migrations(), 1);
        assert_eq!(p.ledger().dirty_shard_of(p.client_of(T0)), to);
        let stats = p.shard_stats(to);
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.ticket_total, 100.0);
        assert_eq!(p.shard_stats(from).queue_depth, 0);
        // The migrated thread is still drawable from its new home.
        assert_eq!(p.pick_on(to, SimTime::ZERO), Some(T0));
    }

    #[test]
    fn rebalancer_restores_the_imbalance_bound() {
        let mut p = DistributedLottery::new(9, 2);
        p.set_rebalance(1, 1.5);
        let spec = base_spec(&p, 100);
        // Spawn interleaved so both shards start with four threads each...
        for i in 0..8 {
            let tid = ThreadId::from_index(i);
            p.on_spawn(tid, spec);
            p.enqueue(tid, SimTime::ZERO);
        }
        // ...then inflate all of shard 0's threads 10x, violating the
        // bound (4000 vs 400).
        for i in 0..8 {
            let tid = ThreadId::from_index(i);
            if p.home_of(tid) == 0 {
                p.set_funding(tid, 1000).unwrap();
            }
        }
        // The next pick triggers a rebalance check.
        let w = p.pick_on(0, SimTime::ZERO).unwrap();
        assert!(p.rebalances() >= 1, "imbalance went unnoticed");
        assert!(p.migrations() >= 1, "no thread migrated");
        p.enqueue(w, SimTime::ZERO);
        let t0 = p.shard_stats(0).ticket_total;
        let t1 = p.shard_stats(1).ticket_total;
        let mean = (t0 + t1) / 2.0;
        assert!(
            t0.max(t1) <= 1.5 * mean + 1e-9,
            "still imbalanced: {t0} vs {t1}"
        );
    }

    #[test]
    fn ready_ticket_total_conserves_ledger_value() {
        let mut p = DistributedLottery::new(5, 4);
        let shared = p.create_currency("shared", 1000).unwrap();
        p.on_spawn(T0, FundingSpec::new(shared, 100));
        p.on_spawn(T1, FundingSpec::new(shared, 300));
        let base = base_spec(&p, 600);
        p.on_spawn(T2, base);
        p.on_spawn(T3, base_spec(&p, 400));
        for tid in [T0, T1, T2, T3] {
            p.enqueue(tid, SimTime::ZERO);
        }
        // shared is worth 1000 split 1:3, plus 600 + 400 base.
        assert_eq!(p.ready_ticket_total(), 2000.0);
        p.set_funding(T2, 100).unwrap();
        assert_eq!(p.ready_ticket_total(), 1500.0);
    }

    #[test]
    fn exit_cleans_up_shard_state() {
        let mut p = DistributedLottery::new(5, 2);
        let spec = base_spec(&p, 100);
        p.on_spawn(T0, spec);
        p.enqueue(T0, SimTime::ZERO);
        p.on_exit(T0);
        assert_eq!(p.ready_len(), 0);
        assert_eq!(p.ledger().clients().count(), 0);
        assert_eq!(p.ledger().tickets().count(), 0);
        assert_eq!(p.pick_on(0, SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = DistributedLottery::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "exactly one shard")]
    fn multi_shard_list_rejected() {
        DistributedLottery::new(1, 2).set_structure(SelectStructure::List);
    }

    #[test]
    fn one_shard_homes_steals_and_rebalances_nothing() {
        let mut p = DistributedLottery::new(5, 1);
        p.set_structure(SelectStructure::List);
        p.set_rebalance(1, 1.0);
        let spec = base_spec(&p, 100);
        p.on_spawn(T0, spec);
        p.on_spawn(T1, base_spec(&p, 300));
        assert!(p.home.is_empty(), "one shard keeps no home table");
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        for _ in 0..8 {
            let w = p.pick_on(3, SimTime::ZERO).unwrap();
            p.enqueue(w, SimTime::ZERO);
        }
        assert_eq!((p.steals(), p.migrations(), p.rebalances()), (0, 0, 0));
        assert_eq!(p.picks_since_check, 0);
        assert_eq!(p.shard_stats(0).threads, 2);
    }

    /// Per-shard alias tables must reproduce the per-shard trees' winner
    /// sequence draw for draw: same ledger operations, same slot order,
    /// same RNG discipline — just an O(1) search instead of a descent.
    #[test]
    fn alias_shards_match_tree_shards_exactly() {
        let run = |structure: SelectStructure| -> Vec<ThreadId> {
            let mut p = DistributedLottery::new(20_260_807, 4);
            let shared = p.create_currency("shared", 252_000).unwrap();
            let amounts = [100u64, 200, 300, 400, 500, 600, 700, 800];
            for (i, &amount) in amounts.iter().enumerate() {
                let tid = ThreadId::from_index(i as u32);
                p.on_spawn(tid, FundingSpec::new(shared, amount));
                p.enqueue(tid, SimTime::ZERO);
            }
            p.set_structure(structure);
            let mut winners = Vec::new();
            let mut blocked: Option<ThreadId> = None;
            for step in 0..400u32 {
                let cpu = step % 4;
                let Some(w) = p.pick_on(cpu, SimTime::ZERO) else {
                    continue;
                };
                winners.push(w);
                if step % 2 == 0 {
                    p.charge(
                        w,
                        SimDuration::from_ms(100),
                        SimDuration::from_ms(100),
                        EndReason::QuantumExpired,
                    );
                    p.enqueue(w, SimTime::ZERO);
                } else {
                    p.charge(
                        w,
                        SimDuration::from_ms(50),
                        SimDuration::from_ms(100),
                        EndReason::Blocked,
                    );
                    if let Some(b) = blocked.replace(w) {
                        p.enqueue(b, SimTime::ZERO);
                    }
                }
            }
            winners
        };
        let tree = run(SelectStructure::Tree);
        let alias = run(SelectStructure::Alias);
        assert_eq!(tree, alias);
        assert!(tree.iter().any(|&t| t != tree[0]));
    }

    #[test]
    fn alias_shards_pick_proportionally() {
        let mut p = DistributedLottery::new(42, 1);
        p.set_structure(SelectStructure::Alias);
        assert_eq!(p.structure(), SelectStructure::Alias);
        let s0 = base_spec(&p, 300);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        let mut wins = [0u32; 2];
        let n = 20_000;
        for _ in 0..n {
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let w = p.pick(SimTime::ZERO).unwrap();
            wins[w.index() as usize] += 1;
            let other = p.pick(SimTime::ZERO).unwrap();
            assert_ne!(w, other);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
    }

    #[test]
    fn alias_shards_survive_migration_and_exit() {
        let mut p = DistributedLottery::new(3, 2);
        p.set_structure(SelectStructure::Alias);
        let spec = base_spec(&p, 100);
        for i in 0..4 {
            let tid = ThreadId::from_index(i);
            p.on_spawn(tid, spec);
            p.enqueue(tid, SimTime::ZERO);
        }
        let from = p.home_of(T0);
        let to = 1 - from;
        p.migrate(T0, to);
        assert_eq!(p.home_of(T0), to);
        // The migrated thread is drawable from its new home's alias table.
        let mut seen = false;
        for _ in 0..16 {
            if let Some(w) = p.pick_on(to, SimTime::ZERO) {
                seen |= w == T0;
                p.enqueue(w, SimTime::ZERO);
            }
        }
        assert!(seen, "migrated thread never won on its new shard");
        p.on_exit(T1);
        assert_eq!(p.ready_len(), 3);
    }
}
