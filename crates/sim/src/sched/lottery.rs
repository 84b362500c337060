//! The lottery scheduling policy (Sections 2–4 of the paper).
//!
//! Each thread is a [`lottery_core`] client funded by one ticket
//! denominated in a configurable currency. Every dispatch decision holds a
//! lottery: a winning value is drawn between zero and the total base-unit
//! value of the ready threads, and the run queue is walked accumulating
//! each thread's value until the winner is found — exactly the prototype's
//! procedure (Section 4.4).
//!
//! The ready queue, the winner structure, and the draw itself are one
//! [`Shard`], shared with the distributed policy and the real-thread
//! workers. This policy adds the funding book, the unsharded dirty queue
//! it drains before a tree or alias draw, the `"list"`/`"tree"`/`"alias"`
//! probe tags, RPC ticket transfers, and lottery-scheduled kernel mutexes.
//!
//! The policy implements the full mechanism set:
//!
//! * **currencies** — spawn threads into any currency of an arbitrary
//!   acyclic funding graph (Figure 3);
//! * **compensation tickets** — a thread that blocked or yielded with
//!   quantum remaining competes with its value inflated by `q/used` until
//!   its next dispatch (Section 4.5);
//! * **ticket transfers** — RPC clients fund the server thread for the
//!   duration of the call (Section 4.6);
//! * **dynamic inflation** — [`LotteryPolicy::set_funding`] adjusts a
//!   thread's ticket in place (Section 5.2's Monte-Carlo control).

use std::collections::HashMap;

use lottery_core::client::ClientId;
use lottery_core::currency::CurrencyId;
use lottery_core::errors::Result;
use lottery_core::ledger::Ledger;
use lottery_core::mutex::{TicketMutex, WaiterFunding};
use lottery_core::rng::ParkMiller;
use lottery_core::ticket::TicketId;
use lottery_core::transfer::{lend, Transfer, TransferTarget};
use lottery_obs::{EventKind, ProbeBus};

use super::comp::CompensationHook;
use super::shard::Shard;
use super::{EndReason, LockId, Policy};
use crate::replay::structure_name;
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
    /// An order-preserving alias-cell table: O(1) expected picks at any
    /// population, patched incrementally from the same dirty-client queue
    /// the tree drains.
    ///
    /// Exact on the same terms as the tree: the table snapshots the ready
    /// queue's prefix sums and falls back to partial sums while any
    /// slot's compensated value differs from the snapshot, comparing
    /// exactly the running sums the list walk compares — so for a fixed seed, alias picks reproduce
    /// the list walk's winner sequence whenever client values are exactly
    /// representable. A slot re-bucketed past a power-of-two weight
    /// boundary counts toward a stale fraction that triggers a full
    /// (amortized O(1)) rebuild.
    Alias,
}

#[derive(Debug, Clone, Copy)]
struct ThreadFunding {
    client: ClientId,
    ticket: TicketId,
    currency: CurrencyId,
}

/// The lottery scheduling policy.
pub struct LotteryPolicy {
    ledger: Ledger,
    rng: ParkMiller,
    quantum: SimDuration,
    /// Per-thread funding, indexed by thread id.
    threads: Vec<Option<ThreadFunding>>,
    /// The ready queue and its winner structure.
    shard: Shard,
    /// Reverse map from ledger clients to threads (flat, indexed by the
    /// client's arena slot), for routing the ledger's dirty-client
    /// notifications back to structure slots without hashing.
    client_threads: Vec<Option<ThreadId>>,
    /// Reusable drain buffer: no allocation per pick.
    dirty_buf: Vec<ClientId>,
    /// Outstanding RPC transfers, keyed by (client, server).
    transfers: HashMap<(ThreadId, ThreadId), Transfer>,
    /// Shared compensation grant/revoke policy (Section 4.5).
    comp: CompensationHook,
    /// Lotteries held (for overhead accounting).
    lotteries: u64,
    structure: SelectStructure,
    /// Kernel mutexes (Section 6.1), scheduled by handoff lotteries.
    locks: Vec<TicketMutex>,
    /// Probe bus for per-draw observability (disabled by default).
    bus: ProbeBus,
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
        assert!(!quantum.is_zero(), "quantum must be positive");
        Self {
            ledger: Ledger::new(),
            rng: ParkMiller::new(seed),
            quantum,
            threads: Vec::new(),
            shard: Shard::new(SelectStructure::List),
            client_threads: Vec::new(),
            dirty_buf: Vec::new(),
            transfers: HashMap::new(),
            comp: CompensationHook::new(),
            lotteries: 0,
            structure: SelectStructure::List,
            locks: Vec::new(),
            bus: ProbeBus::disabled(),
        }
    }

    /// Selects the winner-search structure (Section 4.2).
    ///
    /// May be called at any point, even mid-run with threads queued: the
    /// shard is rebuilt in queue order with exact values from the ledger's
    /// valuation cache.
    /// Emits a [`EventKind::StructureRebuild`] describing the rebuild.
    pub fn set_structure(&mut self, structure: SelectStructure) {
        self.structure = structure;
        if structure != SelectStructure::List {
            // Every ready weight is computed fresh below; notifications
            // accumulated while the list ignored them are obsolete.
            self.ledger.drain_dirty_clients_into(&mut self.dirty_buf);
        }
        let value_of = |tid| value_in(&self.threads, &self.ledger, tid);
        self.shard.rebuild(structure, value_of, &self.bus);
    }

    /// The active winner-search structure.
    pub fn structure(&self) -> SelectStructure {
        self.structure
    }

    /// Disables compensation tickets — the Section 4.5 ablation, which
    /// reproduces the anomaly where an interactive thread receives far
    /// less than its entitled share.
    pub fn set_compensation_enabled(&mut self, enabled: bool) {
        self.comp.set_enabled(enabled);
    }

    /// The base currency of this policy's ledger.
    pub fn base_currency(&self) -> CurrencyId {
        self.ledger.base()
    }

    /// Creates a currency backed by `amount` base-currency tickets.
    pub fn create_currency(&mut self, name: &str, amount: u64) -> Result<CurrencyId> {
        let cur = self.ledger.create_currency(name)?;
        let backing = self.ledger.issue_root(self.ledger.base(), amount)?;
        self.ledger.fund_currency(backing, cur)?;
        Ok(cur)
    }

    /// Creates a currency backed by `amount` tickets of `parent` —
    /// building deeper Figure 3 style graphs.
    pub fn create_subcurrency(
        &mut self,
        name: &str,
        parent: CurrencyId,
        amount: u64,
    ) -> Result<CurrencyId> {
        let cur = self.ledger.create_currency(name)?;
        let backing = self.ledger.issue_root(parent, amount)?;
        self.ledger.fund_currency(backing, cur)?;
        Ok(cur)
    }

    /// Changes the face amount of a thread's funding ticket — dynamic
    /// ticket inflation/deflation (Section 3.2).
    ///
    /// Takes effect at the very next lottery.
    pub fn set_funding(&mut self, tid: ThreadId, amount: u64) -> Result<()> {
        let funding = self.funding_info(tid);
        // Affected tree weights are refreshed lazily, from the ledger's
        // dirty-client queue, at the next pick.
        self.ledger.set_amount(funding.ticket, amount)?;
        self.bus.emit(|| EventKind::WeightChange {
            client: funding.client.index(),
            tickets: amount,
            origin: "set-funding",
        });
        Ok(())
    }

    /// The face amount of a thread's funding ticket.
    pub fn funding(&self, tid: ThreadId) -> u64 {
        self.ledger
            .ticket(self.funding_info(tid).ticket)
            .map(|t| t.amount())
            .unwrap_or(0)
    }

    /// The ledger client backing a thread.
    pub fn client_of(&self, tid: ThreadId) -> ClientId {
        self.funding_info(tid).client
    }

    /// A thread's current value in base units (including compensation).
    pub fn value_of(&self, tid: ThreadId) -> f64 {
        value_in(&self.threads, &self.ledger, tid)
    }

    /// Read access to the underlying ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Write access to the underlying ledger, for experiments that
    /// manipulate the currency graph directly.
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Number of lotteries held so far.
    pub fn lotteries_held(&self) -> u64 {
        self.lotteries
    }

    /// The Park–Miller state the next draw will consume — the replay
    /// checkpoint. Passing this value as the seed of a fresh policy
    /// reproduces the remaining draw stream exactly (seeds in
    /// `[1, 2^31 - 2]` are taken verbatim).
    pub fn rng_state(&self) -> u32 {
        self.rng.state()
    }

    /// Whether compensation tickets are enabled (replay stamps capture
    /// this switch).
    pub fn compensation_enabled(&self) -> bool {
        self.comp.enabled()
    }

    fn funding_info(&self, tid: ThreadId) -> ThreadFunding {
        self.threads
            .get(tid.index() as usize)
            .copied()
            .flatten()
            .expect("thread not registered with the lottery policy")
    }
}

/// A thread's current base-unit value through the valuation cache — free
/// of `self` so a draw can price threads while the shard is borrowed.
fn value_in(threads: &[Option<ThreadFunding>], ledger: &Ledger, tid: ThreadId) -> f64 {
    let funding = threads[tid.index() as usize].expect("thread is registered");
    ledger.cached_client_value(funding.client).unwrap_or(0.0)
}

impl Policy for LotteryPolicy {
    type Spec = FundingSpec;

    /// Registers a thread.
    ///
    /// # Panics
    ///
    /// Panics when the spec names a stale currency or a zero amount —
    /// both are harness configuration bugs.
    fn on_spawn(&mut self, tid: ThreadId, spec: FundingSpec) {
        let client = self.ledger.create_client(format!("{tid}"));
        let ticket = self
            .ledger
            .issue_root(spec.currency, spec.amount)
            .expect("invalid funding spec");
        self.ledger
            .fund_client(ticket, client)
            .expect("fresh client and ticket");
        let idx = tid.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize(idx + 1, None);
        }
        self.threads[idx] = Some(ThreadFunding {
            client,
            ticket,
            currency: spec.currency,
        });
        let slot = client.index() as usize;
        if self.client_threads.len() <= slot {
            self.client_threads.resize(slot + 1, None);
        }
        self.client_threads[slot] = Some(tid);
        self.bus.emit(|| EventKind::WeightChange {
            client: client.index(),
            tickets: spec.amount,
            origin: "spawn",
        });
    }

    fn on_exit(&mut self, tid: ThreadId) {
        let funding = self.funding_info(tid);
        self.shard.remove(tid);
        self.client_threads[funding.client.index() as usize] = None;
        self.ledger
            .deactivate_client(funding.client)
            .expect("client liveness");
        self.ledger
            .destroy_client_and_funding(funding.client)
            .expect("client liveness");
        self.threads[tid.index() as usize] = None;
    }

    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        let funding = self.funding_info(tid);
        self.ledger
            .activate_client(funding.client)
            .expect("client liveness");
        // Exact: activation just invalidated the client (and any
        // shared-currency siblings, refreshed at the next pick), so this
        // read revalues precisely the changed subgraph. The list stores
        // no weights and is not valued here.
        let value = match self.structure {
            SelectStructure::List => 0.0,
            _ => self.value_of(tid),
        };
        self.shard.insert(tid, value);
    }

    fn pick(&mut self, _now: SimTime) -> Option<ThreadId> {
        if self.shard.is_empty() {
            return None;
        }
        self.lotteries += 1;
        if self.structure != SelectStructure::List {
            // One batch per dispatch decision: the ledger's whole dirty
            // queue (ascending client-id order) settles in a single pass.
            self.ledger.drain_dirty_clients_into(&mut self.dirty_buf);
            if !self.dirty_buf.is_empty() {
                let depth = self.dirty_buf.len() as u32;
                self.bus.emit(|| EventKind::DirtyBatch { shard: 0, depth });
            }
            self.shard
                .settle(&self.dirty_buf, &self.client_threads, &self.ledger);
        }
        // A list values every ready client via the incremental cache: a
        // warm read per client, plus revalidation of whatever the ledger
        // invalidated since the last pick.
        let value_of = |tid| value_in(&self.threads, &self.ledger, tid);
        let draw = self
            .shard
            .draw(&mut self.rng, value_of)
            .expect("the shard is not empty");
        self.bus.emit(|| draw.event(structure_name(self.structure)));
        self.shard.emit_rebuilds(&self.bus);
        let tid = draw.winner;
        let funding = self.funding_info(tid);
        // The winner starts its quantum: revoke any compensation ticket
        // through the shared hook (which emits the revocation event).
        self.comp
            .on_dispatch(&mut self.ledger, &self.bus, tid, funding.client);
        Some(tid)
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason) {
        // The shared hook grants a partial-quantum compensation factor and
        // deactivates a blocked client's tickets so shared-currency values
        // redistribute (Section 4.4).
        let client = self.funding_info(tid).client;
        self.comp
            .on_charge(&mut self.ledger, &self.bus, tid, client, used, quantum, why);
    }

    fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Lends the blocked client's ticket value to the server thread
    /// (Section 4.6: "creating a new ticket denominated in the client's
    /// currency" to fund the server).
    fn transfer(&mut self, from: ThreadId, to: ThreadId) {
        let from_funding = self.funding_info(from);
        let to_funding = self.funding_info(to);
        let amount = self
            .ledger
            .ticket(from_funding.ticket)
            .map(|t| t.amount())
            .unwrap_or(0);
        if amount == 0 {
            return;
        }
        let transfer = lend(
            &mut self.ledger,
            from_funding.currency,
            amount,
            TransferTarget::Client(to_funding.client),
        )
        .expect("transfer endpoints are live");
        if let Some(stale) = self.transfers.insert((from, to), transfer) {
            // A client cannot have two outstanding calls to one server,
            // but unwind defensively rather than leak funding.
            let _ = stale.repay(&mut self.ledger);
        }
        // The server's gained funding reaches its tree leaf through the
        // ledger's dirty-client queue at the next pick.
    }

    /// Destroys the transfer ticket on reply.
    fn untransfer(&mut self, from: ThreadId, to: ThreadId) {
        if let Some(transfer) = self.transfers.remove(&(from, to)) {
            transfer
                .repay(&mut self.ledger)
                .expect("transfer ticket is live");
        }
    }

    fn ready_len(&self) -> usize {
        self.shard.len()
    }

    /// Stores the bus and forwards a clone to the ledger, so draw events
    /// and cache/mutation events share one pipeline.
    fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.ledger.set_probe_bus(bus.clone());
        self.bus = bus;
    }

    /// Creates a lottery-scheduled kernel mutex: a mutex currency plus an
    /// inheritance ticket (Section 6.1, Figure 10).
    fn create_lock(&mut self) -> LockId {
        let id = LockId::from_index(self.locks.len() as u32);
        let mutex = TicketMutex::new(&mut self.ledger, &format!("kernel-lock{}", id.index()))
            .expect("fresh mutex currency");
        self.locks.push(mutex);
        id
    }

    /// Acquires, or parks the thread as a waiter funding the mutex
    /// currency with a transfer denominated in its own funding currency.
    fn lock(&mut self, tid: ThreadId, lock: LockId) -> bool {
        let funding = self.funding_info(tid);
        let amount = self
            .ledger
            .ticket(funding.ticket)
            .map(|t| t.amount())
            .unwrap_or(1)
            .max(1);
        let waiter = WaiterFunding {
            currency: funding.currency,
            amount,
        };
        self.locks[lock.index() as usize]
            .acquire(&mut self.ledger, funding.client, waiter)
            .expect("lock endpoints are live")
    }

    /// Cancels the killed thread's lock waits, repaying its transfers.
    fn cancel_lock_waits(&mut self, tid: ThreadId) {
        let client = self.funding_info(tid).client;
        for lock in &mut self.locks {
            let _ = lock.cancel(&mut self.ledger, client);
        }
    }

    /// Releases and holds the handoff lottery among the waiters, weighted
    /// by their transferred funding; the winner's transfer is repaid and
    /// it inherits the mutex's inheritance ticket.
    fn unlock(&mut self, tid: ThreadId, lock: LockId) -> Option<ThreadId> {
        let client = self.funding_info(tid).client;
        let winner = self.locks[lock.index() as usize]
            .release(&mut self.ledger, client, &mut self.rng)
            .expect("release by the holder");
        winner.map(|w| {
            self.client_threads[w.index() as usize].expect("winner is a registered thread")
        })
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
