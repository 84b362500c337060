//! The lottery scheduling policy (Sections 2–4 of the paper).
//!
//! Each thread is a [`lottery_core`] client funded by one ticket
//! denominated in a configurable currency. Every dispatch decision holds a
//! lottery: a winning value is drawn between zero and the total base-unit
//! value of the ready threads, and the run queue is walked accumulating
//! each thread's value until the winner is found — exactly the prototype's
//! procedure (Section 4.4).
//!
//! [`LotteryPolicy`] is the [`DistributedLottery`] over one shard, whose
//! default structure is that list walk: one ready queue, nothing to home,
//! steal or rebalance. It holds nothing of its own. The ledger, the
//! funding book, the RPC transfer book, the mutex table and the sequence
//! around every draw are the [`LotteryCore`]'s, so every lottery policy
//! has the full mechanism set:
//!
//! * **currencies** — spawn threads into any currency of an arbitrary
//!   acyclic funding graph (Figure 3);
//! * **compensation tickets** — a thread that blocked or yielded with
//!   quantum remaining competes with its value inflated by `q/used` until
//!   its next dispatch (Section 4.5);
//! * **ticket transfers** — RPC clients fund the server thread for the
//!   duration of the call (Section 4.6);
//! * **lottery-scheduled mutexes** — waiters fund the holder through the
//!   mutex currency, and a release holds a handoff lottery (Section 6.1);
//! * **dynamic inflation** — [`LotteryCore::set_funding`] adjusts a
//!   thread's ticket in place (Section 5.2's Monte-Carlo control).
//!
//! It runs on one CPU or on several sharing its one queue.

use std::ops::{Deref, DerefMut};

use lottery_core::currency::CurrencyId;
use lottery_core::ledger::Ledger;
use lottery_obs::ProbeBus;

use super::core::LotteryCore;
use super::distributed::DistributedLottery;
use super::{EndReason, LockId, Policy};
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Ticket funding for a spawned thread.
#[derive(Debug, Clone, Copy)]
pub struct FundingSpec {
    /// The currency the thread's funding ticket is denominated in.
    pub currency: CurrencyId,
    /// The ticket amount.
    pub amount: u64,
}

impl FundingSpec {
    /// A funding of `amount` tickets in `currency`.
    pub fn new(currency: CurrencyId, amount: u64) -> Self {
        Self { currency, amount }
    }
}

/// Which winner-search structure the policy uses (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectStructure {
    /// The prototype's list walk: every pick values the whole run queue
    /// through the currency graph — always exact.
    #[default]
    List,
    /// A partial-sum tree over client values: `O(log n)` picks, "suitable
    /// as the basis of a distributed lottery scheduler".
    ///
    /// Exact: leaf weights are fed by the ledger's incremental valuation
    /// cache, and every ledger mutation queues invalidated clients on a
    /// dirty list the policy drains before each draw — so even
    /// shared-currency siblings (whose values shift when a co-holder
    /// blocks or is granted compensation) are revalued before they can
    /// influence a lottery. For a fixed seed, tree picks reproduce the
    /// list walk's winner sequence whenever client values are exactly
    /// representable.
    Tree,
    /// An order-preserving alias-cell table: O(1) expected picks while
    /// every weight holds its snapshot value, patched incrementally from
    /// the same dirty-client queue the tree drains.
    ///
    /// Exact on the same terms as the tree: the table snapshots the ready
    /// queue's prefix sums (at the switch, and at a pick once as many
    /// partial-sum picks as queued threads have paid for it) and falls
    /// back to partial sums while any slot's compensated value differs
    /// from the snapshot, comparing exactly the running sums the list walk
    /// compares — so for a fixed seed, alias picks reproduce the list
    /// walk's winner sequence whenever client values are exactly
    /// representable. No mutation re-snapshots; once more than
    /// `max(64, 8√n)` slots have churned the table is dropped and the
    /// shard draws as a tree until its population moves by a quarter.
    Alias,
}

/// The lottery scheduling policy: a one-shard [`DistributedLottery`]
/// searched by the list walk until [`set_structure`](Self::set_structure)
/// says otherwise.
///
/// Currencies, funding, the ledger, the compensation switch, transfers and
/// locks are the [`LotteryCore`]'s, reached through `Deref`.
pub struct LotteryPolicy(DistributedLottery);

impl Deref for LotteryPolicy {
    type Target = LotteryCore;

    fn deref(&self) -> &LotteryCore {
        &self.0
    }
}

impl DerefMut for LotteryPolicy {
    fn deref_mut(&mut self) -> &mut LotteryCore {
        &mut self.0
    }
}

impl LotteryPolicy {
    /// Creates a lottery policy with the paper's 100 ms Mach quantum.
    pub fn new(seed: u32) -> Self {
        Self::with_quantum(seed, SimDuration::from_ms(100))
    }

    /// Creates a lottery policy with an explicit quantum.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum.
    pub fn with_quantum(seed: u32, quantum: SimDuration) -> Self {
        let mut one = DistributedLottery::with_quantum(seed, 1, quantum);
        one.set_structure(SelectStructure::List);
        Self(one)
    }

    /// Selects the winner-search structure (Section 4.2).
    ///
    /// May be called at any point, even mid-run with threads queued: the
    /// shard is rebuilt in queue order with exact values from the ledger's
    /// valuation cache.
    /// Emits a [`lottery_obs::EventKind::StructureRebuild`] describing the
    /// rebuild.
    pub fn set_structure(&mut self, structure: SelectStructure) {
        self.0.set_structure(structure);
    }

    /// The active winner-search structure.
    pub fn structure(&self) -> SelectStructure {
        self.0.structure()
    }

    /// Read access to the underlying ledger (as [`LotteryCore::ledger`];
    /// inherent so `LotteryPolicy::ledger` names it).
    pub fn ledger(&self) -> &Ledger {
        self.0.ledger()
    }
}

/// Every call goes to the one-shard policy inside.
///
/// # Panics
///
/// `on_spawn` panics when the spec names a stale currency or a zero
/// amount — both are harness configuration bugs.
impl Policy for LotteryPolicy {
    type Spec = FundingSpec;

    delegate! { 0 =>
        fn on_spawn(&mut self, tid: ThreadId, spec: FundingSpec);
        fn on_exit(&mut self, tid: ThreadId);
        fn enqueue(&mut self, tid: ThreadId, now: SimTime);
        fn pick(&mut self, now: SimTime) -> Option<ThreadId>;
        fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason);
        fn quantum(&self) -> SimDuration;
        fn transfer(&mut self, from: ThreadId, to: ThreadId);
        fn untransfer(&mut self, from: ThreadId, to: ThreadId);
        fn ready_len(&self) -> usize;
        fn set_probe_bus(&mut self, bus: ProbeBus);
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

    fn base_spec(policy: &LotteryPolicy, amount: u64) -> FundingSpec {
        FundingSpec::new(policy.base_currency(), amount)
    }

    #[test]
    fn picks_proportionally() {
        let mut p = LotteryPolicy::new(42);
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
            // Reset the queue for the next independent lottery.
            let other = p.pick(SimTime::ZERO).unwrap();
            assert_ne!(w, other);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
        assert_eq!(p.lotteries_held(), 2 * n as u64);
    }

    #[test]
    fn currencies_isolate_value() {
        // Figure 3's flavor: two currencies funded 1:1 from base, with a
        // different number of tickets issued inside each.
        let mut p = LotteryPolicy::new(7);
        let a = p.create_currency("A", 1000).unwrap();
        let b = p.create_currency("B", 1000).unwrap();
        p.on_spawn(T0, FundingSpec::new(a, 100));
        p.on_spawn(T1, FundingSpec::new(b, 100));
        p.on_spawn(T2, FundingSpec::new(b, 100));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.enqueue(T2, SimTime::ZERO);
        // A's single thread owns all of A: worth 1000. B's two threads
        // split B: 500 each.
        assert_eq!(p.value_of(T0), 1000.0);
        assert_eq!(p.value_of(T1), 500.0);
        assert_eq!(p.value_of(T2), 500.0);
    }

    #[test]
    fn compensation_inflates_until_next_pick() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 400);
        p.on_spawn(T0, s0);
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        // Used 20 ms of the 100 ms quantum, then blocked.
        p.charge(
            T0,
            SimDuration::from_ms(20),
            SimDuration::from_ms(100),
            EndReason::Blocked,
        );
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 2000.0, "Section 4.5's 5x example");
        // Winning the next lottery revokes the compensation ticket.
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 400.0);
    }

    #[test]
    fn compensation_can_be_disabled() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 400);
        p.on_spawn(T0, s0);
        p.set_compensation_enabled(false);
        p.enqueue(T0, SimTime::ZERO);
        let _ = p.pick(SimTime::ZERO);
        p.charge(
            T0,
            SimDuration::from_ms(20),
            SimDuration::from_ms(100),
            EndReason::Blocked,
        );
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 400.0);
    }

    #[test]
    fn transfer_funds_server_and_repays() {
        let mut p = LotteryPolicy::new(5);
        let s_client = base_spec(&p, 300);
        let s_server = base_spec(&p, 100);
        p.on_spawn(T0, s_client);
        p.on_spawn(T1, s_server);
        p.enqueue(T1, SimTime::ZERO);
        // Client (blocked, inactive) transfers to the server.
        p.transfer(T0, T1);
        assert_eq!(p.value_of(T1), 400.0);
        p.untransfer(T0, T1);
        assert_eq!(p.value_of(T1), 100.0);
        // Untransfer without a matching transfer is a no-op.
        p.untransfer(T0, T1);
        assert_eq!(p.value_of(T1), 100.0);
    }

    #[test]
    fn set_funding_takes_effect_immediately() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.funding(T0), 100);
        p.set_funding(T0, 900).unwrap();
        assert_eq!(p.funding(T0), 900);
        assert_eq!(p.value_of(T0), 900.0);
    }

    #[test]
    fn zero_value_pool_degenerates_to_fifo() {
        let mut p = LotteryPolicy::new(5);
        // A currency with no backing: its tickets are worth nothing.
        let empty = p.ledger_mut().create_currency("empty").unwrap();
        p.on_spawn(T0, FundingSpec::new(empty, 10));
        p.on_spawn(T1, FundingSpec::new(empty, 10));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }

    #[test]
    fn exit_cleans_up_ledger() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.enqueue(T0, SimTime::ZERO);
        let clients_before = p.ledger().clients().count();
        assert_eq!(clients_before, 1);
        p.on_exit(T0);
        assert_eq!(p.ledger().clients().count(), 0);
        assert_eq!(p.ledger().tickets().count(), 0);
        assert_eq!(p.ready_len(), 0);
    }

    #[test]
    fn tree_structure_picks_proportionally() {
        let mut p = LotteryPolicy::new(42);
        p.set_structure(SelectStructure::Tree);
        assert_eq!(p.structure(), SelectStructure::Tree);
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
    fn tree_structure_tracks_dynamic_funding() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Tree);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.set_funding(T0, 900).unwrap();
        let mut wins0 = 0u32;
        let n = 10_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            let other = p.pick(SimTime::ZERO).unwrap();
            if w == T0 {
                wins0 += 1;
            }
            p.enqueue(w, SimTime::ZERO);
            p.enqueue(other, SimTime::ZERO);
        }
        let share = f64::from(wins0) / f64::from(n);
        assert!((share - 0.9).abs() < 0.02, "share {share}");
    }

    #[test]
    fn tree_structure_exit_cleans_mirror() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Tree);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.on_exit(T0);
        assert_eq!(p.ready_len(), 1);
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }

    #[test]
    fn structure_switch_mid_run_rebuilds_tree() {
        let mut p = LotteryPolicy::new(1);
        let s0 = base_spec(&p, 300);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        // A few list-mode lotteries first, then switch with threads queued.
        for _ in 0..10 {
            let w = p.pick(SimTime::ZERO).unwrap();
            p.enqueue(w, SimTime::ZERO);
        }
        p.set_structure(SelectStructure::Tree);
        let mut wins = [0u32; 2];
        let n = 20_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            wins[w.index() as usize] += 1;
            p.enqueue(w, SimTime::ZERO);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
        // And back: the list walk picks up where the tree left off.
        p.set_structure(SelectStructure::List);
        assert!(p.pick(SimTime::ZERO).is_some());
    }

    /// With every client value exactly representable, tree mode must
    /// reproduce the list walk's winner sequence draw for draw — the
    /// partial-sum descent is just a faster search over the same
    /// intervals, fed by the same valuation cache.
    ///
    /// The workload shares one currency among all threads and mixes full
    /// quanta with blocking (deactivation + compensation), so sibling
    /// values shift constantly — exactly the case where the tree's cached
    /// weights used to go stale.
    #[test]
    fn tree_matches_list_winner_sequence_exactly() {
        // Backing 252000 = lcm(1000, 900, 800, 700, 600): every reachable
        // active amount divides it, keeping all client values integral.
        let run = |structure: SelectStructure| -> Vec<ThreadId> {
            let mut p = LotteryPolicy::new(20_260_806);
            p.set_structure(structure);
            let shared = p.create_currency("shared", 252_000).unwrap();
            let amounts = [100u64, 200, 300, 400];
            for (i, &amount) in amounts.iter().enumerate() {
                let tid = ThreadId::from_index(i as u32);
                p.on_spawn(tid, FundingSpec::new(shared, amount));
                p.enqueue(tid, SimTime::ZERO);
            }
            let mut winners = Vec::new();
            let mut blocked: Option<ThreadId> = None;
            for step in 0..400 {
                let w = p.pick(SimTime::ZERO).unwrap();
                winners.push(w);
                if step % 2 == 0 {
                    // Full quantum: back on the queue immediately.
                    p.charge(
                        w,
                        SimDuration::from_ms(100),
                        SimDuration::from_ms(100),
                        EndReason::QuantumExpired,
                    );
                    p.enqueue(w, SimTime::ZERO);
                } else {
                    // Block halfway: deactivates the winner's tickets
                    // (shifting every sibling's share) and grants a 2x
                    // compensation factor for its return.
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
        let list = run(SelectStructure::List);
        let tree = run(SelectStructure::Tree);
        let alias = run(SelectStructure::Alias);
        assert_eq!(list, tree);
        assert_eq!(list, alias);
        // Sanity: the workload actually rotates winners.
        assert!(list.iter().any(|&t| t != list[0]));
    }

    #[test]
    fn alias_structure_picks_proportionally() {
        let mut p = LotteryPolicy::new(42);
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
    fn alias_structure_tracks_dynamic_funding() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Alias);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.set_funding(T0, 900).unwrap();
        let mut wins0 = 0u32;
        let n = 10_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            let other = p.pick(SimTime::ZERO).unwrap();
            if w == T0 {
                wins0 += 1;
            }
            p.enqueue(w, SimTime::ZERO);
            p.enqueue(other, SimTime::ZERO);
        }
        let share = f64::from(wins0) / f64::from(n);
        assert!((share - 0.9).abs() < 0.02, "share {share}");
    }

    #[test]
    fn alias_zero_value_degenerates_to_fifo() {
        let mut p = LotteryPolicy::new(5);
        p.set_structure(SelectStructure::Alias);
        let empty = p.ledger_mut().create_currency("empty").unwrap();
        p.on_spawn(T0, FundingSpec::new(empty, 10));
        p.on_spawn(T1, FundingSpec::new(empty, 10));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
    }

    #[test]
    fn alias_structure_exit_cleans_mirror() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Alias);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.on_exit(T0);
        assert_eq!(p.ready_len(), 1);
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }

    #[test]
    fn tree_mode_is_exact_for_shared_currencies() {
        // Two threads share a currency; a third holds base tickets. When
        // the shared pair's sibling blocks, the survivor's value doubles
        // — the tree must see that before the next draw, or the base
        // thread would be over-selected.
        let mut p = LotteryPolicy::new(3);
        p.set_structure(SelectStructure::Tree);
        let shared = p.create_currency("shared", 1000).unwrap();
        p.on_spawn(T0, FundingSpec::new(shared, 100));
        p.on_spawn(T1, FundingSpec::new(shared, 100));
        let base = base_spec(&p, 1000);
        p.on_spawn(T2, base);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.enqueue(T2, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 500.0);
        // T1 wins nothing for a while: block it indefinitely.
        let mut removed = false;
        let mut wins = [0u32; 3];
        let n = 30_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            if w == T1 && !removed {
                removed = true;
                p.charge(
                    T1,
                    SimDuration::from_ms(100),
                    SimDuration::from_ms(100),
                    EndReason::Blocked,
                );
                continue;
            }
            wins[w.index() as usize] += 1;
            p.charge(
                w,
                SimDuration::from_ms(100),
                SimDuration::from_ms(100),
                EndReason::QuantumExpired,
            );
            p.enqueue(w, SimTime::ZERO);
        }
        // After T1 blocks, T0 owns all of `shared`: 1000 vs 1000 base.
        let share = f64::from(wins[0]) / f64::from(wins[0] + wins[2]);
        assert!((share - 0.5).abs() < 0.01, "share {share}");
    }

    #[test]
    fn tree_zero_value_degenerates_to_fifo() {
        let mut p = LotteryPolicy::new(5);
        p.set_structure(SelectStructure::Tree);
        let empty = p.ledger_mut().create_currency("empty").unwrap();
        p.on_spawn(T0, FundingSpec::new(empty, 10));
        p.on_spawn(T1, FundingSpec::new(empty, 10));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
    }

    #[test]
    fn starvation_free_small_share() {
        // A 1-of-101 client must still win within a few hundred draws
        // (geometric distribution, E = 101).
        let mut p = LotteryPolicy::new(99);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 1);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        let mut first_win = None;
        for i in 0..2000 {
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let w = p.pick(SimTime::ZERO).unwrap();
            let _ = p.pick(SimTime::ZERO).unwrap();
            if w == T1 {
                first_win = Some(i);
                break;
            }
        }
        assert!(first_win.is_some(), "tiny share starved for 2000 draws");
    }
}
