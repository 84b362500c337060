//! The lottery core: the one funding book and decision path under every
//! lottery policy.
//!
//! A lottery scheduler is a ticket [`Ledger`], a random stream, a table
//! saying which ledger client backs which thread, and a fixed sequence
//! around every draw: settle the weights the ledger invalidated, hold the
//! lottery, revoke the winner's compensation ticket, and at quantum end
//! grant the next one (Sections 4.2–4.5). The ledger's two other users,
//! RPC ticket transfers (Section 4.6) and lottery-scheduled kernel
//! mutexes (Section 6.1), are the core's too: the transfer book and the
//! mutex table live here, so every policy over the core has them.
//! [`LotteryCore`] owns exactly that, once.
//! [`super::distributed::DistributedLottery`] is the core over one shard
//! per CPU plus homing, stealing and rebalancing;
//! [`super::lottery::LotteryPolicy`] is that policy over one shard; each
//! real-thread worker of `lottery-par` is the core over one shard of a
//! ledger it shares. The simulated policies `Deref` to it, so the
//! currency and funding calls below are their public API too.
//!
//! Where the ledger lives is the core's one parameter, [`LedgerAccess`]:
//! a simulated policy owns its [`Ledger`], a worker reaches a shared one
//! through a lock. Every ledger touch of the sequence is one
//! [`LedgerAccess::lock`], so on a shared ledger each is one critical
//! section — and on an owned one a plain reborrow. The steps a worker's
//! policy takes (`spawn`, `activate`, `refresh`, `pick_from`, `charge`,
//! `exit`, and `adopt`/`release`/`home` for a thread that changes books)
//! are public because that policy lives in another crate; they are a
//! policy's building blocks, called by its `Policy` methods, not by a
//! user of the policy.
//!
//! The two `&mut Ledger` functions at the top fund a currency and a
//! thread; `lottery-par` funds its currencies with the first under its
//! lock.

use std::collections::HashMap;
use std::ops::DerefMut;

use lottery_core::client::ClientId;
use lottery_core::currency::CurrencyId;
use lottery_core::errors::{LotteryError, ObjectKind, Result};
use lottery_core::ledger::Ledger;
use lottery_core::mutex::{TicketMutex, WaiterFunding};
use lottery_core::rng::ParkMiller;
use lottery_core::ticket::TicketId;
use lottery_core::transfer::{lend, Transfer, TransferTarget};
use lottery_obs::{EventKind, ProbeBus};

use super::comp::CompensationHook;
use super::lottery::{FundingSpec, SelectStructure};
use super::shard::Shard;
use super::{EndReason, LockId};
use crate::thread::ThreadId;
use crate::time::SimDuration;

/// Creates a currency named `name` backed by `amount` tickets of `parent`.
///
/// # Errors
///
/// Propagates ledger errors (stale parent, zero amount); the currency
/// then exists but has no backing.
pub fn fund_currency(
    ledger: &mut Ledger,
    name: &str,
    parent: CurrencyId,
    amount: u64,
) -> Result<CurrencyId> {
    let cur = ledger.create_currency(name)?;
    let backing = ledger.issue_root(parent, amount)?;
    ledger.fund_currency(backing, cur)?;
    Ok(cur)
}

/// Creates the ledger client behind a thread, funded by one fresh ticket
/// of `spec`. That ticket stays the first of the client's funding for the
/// client's whole life — RPC transfers and mutex inheritance only add
/// tickets after it and take away their own — so the client alone is what
/// a thread's books keep and what a migrating thread carries. The client
/// is unnamed: the thread holds the name.
///
/// # Panics
///
/// Panics when the spec names a stale currency or a zero amount — both
/// are harness configuration bugs.
pub fn fund_thread(ledger: &mut Ledger, spec: FundingSpec) -> ClientId {
    let client = ledger.create_client(String::new());
    let ticket = ledger
        .issue_root(spec.currency, spec.amount)
        .expect("invalid funding spec");
    ledger
        .fund_client(ticket, client)
        .expect("fresh client and ticket");
    client
}

/// Where a [`LotteryCore`] keeps its ticket ledger.
pub trait LedgerAccess {
    /// The ledger, for one bounded section of the decision sequence.
    fn lock(&mut self) -> impl DerefMut<Target = Ledger> + '_;

    /// Hands the policy's probe bus on to the ledger, if the ledger is
    /// the policy's alone.
    fn attach_bus(&mut self, bus: ProbeBus);
}

/// A simulated policy's own ledger: a lock is a reborrow, and ledger
/// events share the policy's bus.
impl LedgerAccess for Ledger {
    fn lock(&mut self) -> impl DerefMut<Target = Ledger> + '_ {
        self
    }

    fn attach_bus(&mut self, bus: ProbeBus) {
        self.set_probe_bus(bus);
    }
}

/// What every lottery policy keeps and does, whatever its shards and
/// wherever its ledger.
pub struct LotteryCore<L = Ledger> {
    pub(super) ledger: L,
    pub(super) rng: ParkMiller,
    quantum: SimDuration,
    /// The client behind each thread, indexed by thread id; the thread's
    /// own ticket is the first of the client's funding (see
    /// [`fund_thread`]).
    threads: Vec<Option<ClientId>>,
    /// Reverse map from ledger clients to threads (flat, indexed by the
    /// client's arena slot), for routing the ledger's dirty-client
    /// notifications back to structure slots without hashing.
    client_threads: Vec<Option<ThreadId>>,
    /// Reusable drain buffer: no allocation per pick.
    dirty_buf: Vec<ClientId>,
    /// Compensation grant/revoke policy (Section 4.5).
    comp: CompensationHook,
    /// Lotteries held (for overhead accounting).
    lotteries: u64,
    /// Probe bus for per-draw observability (disabled by default).
    pub(super) bus: ProbeBus,
    /// Outstanding RPC transfers, keyed by (client, server).
    transfers: HashMap<(ThreadId, ThreadId), Transfer>,
    /// Kernel mutexes (Section 6.1), scheduled by handoff lotteries.
    locks: Vec<TicketMutex>,
}

impl LotteryCore {
    /// # Panics
    ///
    /// Panics on a zero quantum.
    pub(super) fn new(seed: u32, quantum: SimDuration) -> Self {
        Self::with_ledger(Ledger::new(), seed, quantum)
    }

    /// The base currency of this policy's ledger.
    pub fn base_currency(&self) -> CurrencyId {
        self.ledger.base()
    }

    /// Creates a currency backed by `amount` base-currency tickets.
    pub fn create_currency(&mut self, name: &str, amount: u64) -> Result<CurrencyId> {
        let base = self.ledger.base();
        fund_currency(&mut self.ledger, name, base, amount)
    }

    /// Creates a currency backed by `amount` tickets of `parent` —
    /// building deeper Figure 3 style graphs.
    pub fn create_subcurrency(
        &mut self,
        name: &str,
        parent: CurrencyId,
        amount: u64,
    ) -> Result<CurrencyId> {
        fund_currency(&mut self.ledger, name, parent, amount)
    }

    /// Changes the face amount of a thread's funding ticket — dynamic
    /// ticket inflation/deflation (Section 3.2).
    ///
    /// Takes effect at the very next lottery: affected weights are
    /// refreshed from the ledger's dirty-client queue before the draw.
    ///
    /// # Errors
    ///
    /// Propagates ledger errors (zero amount); a stale-client error when
    /// the thread's own ticket was destroyed behind the policy's back.
    pub fn set_funding(&mut self, tid: ThreadId, amount: u64) -> Result<()> {
        let client = self.client_of(tid);
        let (ticket, ..) = own_ticket(&self.ledger, client).ok_or(LotteryError::StaleHandle {
            kind: ObjectKind::Client,
            handle: client.raw(),
        })?;
        self.ledger.set_amount(ticket, amount)?;
        self.bus.emit(|| EventKind::WeightChange {
            client: client.index(),
            tickets: amount,
            origin: "set-funding",
        });
        Ok(())
    }

    /// The face amount of a thread's funding ticket.
    pub fn funding(&self, tid: ThreadId) -> u64 {
        own_ticket(&self.ledger, self.client_of(tid)).map_or(0, |(.., amount)| amount)
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
}

impl<L: LedgerAccess> LotteryCore<L> {
    /// A core over `ledger`, drawing from a Park–Miller stream seeded
    /// with `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum.
    pub fn with_ledger(ledger: L, seed: u32, quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        Self {
            ledger,
            rng: ParkMiller::new(seed),
            quantum,
            threads: Vec::new(),
            client_threads: Vec::new(),
            dirty_buf: Vec::new(),
            comp: CompensationHook::new(),
            lotteries: 0,
            bus: ProbeBus::disabled(),
            transfers: HashMap::new(),
            locks: Vec::new(),
        }
    }

    /// Stores the bus and offers a clone to the ledger, so draw events
    /// and cache/mutation events share one pipeline.
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.ledger.attach_bus(bus.clone());
        self.bus = bus;
    }

    /// Where the ledger lives, for what the access itself keeps — a shared
    /// ledger's lock counts.
    pub fn access(&self) -> &L {
        &self.ledger
    }

    /// The ledger client backing a thread.
    ///
    /// # Panics
    ///
    /// Panics when `tid` is not on these books.
    pub fn client_of(&self, tid: ThreadId) -> ClientId {
        self.threads
            .get(tid.index() as usize)
            .copied()
            .flatten()
            .expect("thread not registered with the lottery policy")
    }

    /// Number of lotteries held so far.
    pub fn lotteries_held(&self) -> u64 {
        self.lotteries
    }

    /// Disables compensation tickets — the Section 4.5 ablation, which
    /// reproduces the anomaly where an interactive thread receives far
    /// less than its entitled share.
    pub fn set_compensation_enabled(&mut self, enabled: bool) {
        self.comp.set_enabled(enabled);
    }

    /// The quantum every dispatch is granted.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// The threads on these books, in id order.
    pub(super) fn registered(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u32)
            .map(ThreadId::from_index)
            .filter(|tid| self.threads[tid.index() as usize].is_some())
    }

    /// The thread a ledger client backs.
    pub(super) fn thread_of(&self, client: ClientId) -> Option<ThreadId> {
        self.client_threads
            .get(client.index() as usize)
            .copied()
            .flatten()
    }

    /// Puts an already funded thread on these books: a fresh spawn, or a
    /// thread [`release`](Self::release)d by another core.
    pub fn adopt(&mut self, tid: ThreadId, client: ClientId) {
        let idx = tid.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize(idx + 1, None);
        }
        self.threads[idx] = Some(client);
        let slot = client.index() as usize;
        if self.client_threads.len() <= slot {
            self.client_threads.resize(slot + 1, None);
        }
        self.client_threads[slot] = Some(tid);
    }

    /// Takes `tid` off these books, its client and funding untouched: an
    /// exit's first step, or a thread leaving for another core's books,
    /// where [`adopt`](Self::adopt) takes the returned client. The caller
    /// already took it off its shard.
    pub fn release(&mut self, tid: ThreadId) -> ClientId {
        let client = self.threads[tid.index() as usize]
            .take()
            .expect("thread not registered with the lottery policy");
        self.client_threads[client.index() as usize] = None;
        client
    }

    /// Registers a thread and funds its client.
    pub fn spawn(&mut self, tid: ThreadId, spec: FundingSpec) -> ClientId {
        let client = fund_thread(&mut self.ledger.lock(), spec);
        self.adopt(tid, client);
        self.bus.emit(|| EventKind::WeightChange {
            client: client.index(),
            tickets: spec.amount,
            origin: "spawn",
        });
        client
    }

    /// Sends `client`'s valuation invalidations to ledger dirty queue
    /// `shard` from now on: the queue of the shard it is homed on.
    pub fn home(&mut self, client: ClientId, shard: u32) {
        self.ledger.lock().assign_dirty_shard(client, shard);
    }

    /// Unregisters an exiting thread, takes it off `shard`, and destroys
    /// its client and funding.
    pub fn exit(&mut self, tid: ThreadId, shard: &mut Shard) {
        shard.remove(tid);
        let client = self.release(tid);
        let mut ledger = self.ledger.lock();
        ledger.deactivate_client(client).expect("client liveness");
        ledger
            .destroy_client_and_funding(client)
            .expect("client liveness");
    }

    /// Activates a thread's tickets and appends it to `shard`.
    ///
    /// The stored weight is exact: activation just invalidated the client,
    /// so the read revalues precisely the changed subgraph, and any
    /// shared-currency siblings refresh at their own shard's next pick. A
    /// list stores no weights and is not valued here.
    pub fn activate(&mut self, tid: ThreadId, shard: &mut Shard) {
        let client = self.client_of(tid);
        let value = {
            let mut ledger = self.ledger.lock();
            ledger.activate_client(client).expect("client liveness");
            if shard.stores_weights() {
                ledger.cached_client_value(client).unwrap_or(0.0)
            } else {
                0.0
            }
        };
        shard.insert(tid, value);
    }

    /// Settles the invalidations pending on ledger dirty queue `shard_id`
    /// into `shard`'s weights, one batch per dispatch decision (ascending
    /// client-id order). Invalidations homed on other queues wait for
    /// their own shard's next pick. A list is valued at draw time and
    /// leaves the queue alone.
    pub fn refresh(&mut self, shard_id: u32, shard: &mut Shard) {
        if !shard.stores_weights() {
            return;
        }
        let mut ledger = self.ledger.lock();
        ledger.drain_dirty_shard_into(shard_id, &mut self.dirty_buf);
        shard.settle(&self.dirty_buf, &self.client_threads, &ledger);
    }

    /// Rebuilds `shard` under `structure` in queue order with exact values
    /// from the valuation cache. Every stored weight is computed fresh, so
    /// the notifications pending on dirty queue `shard_id` are obsolete.
    pub(super) fn rebuild(&mut self, shard_id: u32, shard: &mut Shard, structure: SelectStructure) {
        let mut ledger = self.ledger.lock();
        if structure != SelectStructure::List {
            ledger.drain_dirty_shard_into(shard_id, &mut self.dirty_buf);
        }
        let threads = &self.threads;
        shard.rebuild(structure, |tid| value_in(threads, &ledger, tid), &self.bus);
    }

    /// A CPU's lottery on shard `shard_id` (which the caller settled and
    /// found non-empty; `stolen` when it is not the CPU's own): the draw,
    /// staged for the kernel's decision probe, and the winner's dispatch —
    /// the hook revokes the winner's compensation ticket, if it holds one.
    pub fn pick_from(&mut self, shard_id: u32, shard: &mut Shard, stolen: bool) -> ThreadId {
        self.lotteries += 1;
        // A list values every ready client via the incremental cache: a
        // warm read per client, plus revalidation of whatever the ledger
        // invalidated since the last pick. A tree or alias table asks for
        // no value, so a shared ledger is not locked here.
        let (threads, ledger) = (&self.threads, &mut self.ledger);
        let draw = shard
            .draw(&mut self.rng, |tid| value_in(threads, &ledger.lock(), tid))
            .expect("the shard is not empty");
        self.bus.stage_draw(draw.record(shard_id, stolen));
        let client = self.client_of(draw.winner);
        self.comp.on_dispatch(&mut self.ledger.lock(), client);
        draw.winner
    }

    /// Quantum end: the hook grants a partial-quantum compensation factor
    /// (staged for the kernel's quantum-end probe) and deactivates a
    /// blocked client's tickets so shared-currency values redistribute
    /// (Section 4.4).
    pub fn charge(
        &mut self,
        tid: ThreadId,
        used: SimDuration,
        quantum: SimDuration,
        why: EndReason,
    ) {
        let client = self.client_of(tid);
        self.comp.on_charge(
            &mut self.ledger.lock(),
            &self.bus,
            client,
            used,
            quantum,
            why,
        );
    }
}

impl<L: LedgerAccess> LotteryCore<L> {
    /// Lends the blocked client's ticket value to the server thread
    /// (Section 4.6: "creating a new ticket denominated in the client's
    /// currency" to fund the server).
    ///
    /// The two threads may be homed on different shards. The lent ticket
    /// funds the server's client, so the server's new weight reaches the
    /// server's home shard through that shard's dirty queue at its next
    /// pick. The calling client is blocked and sits on no shard: nothing
    /// of it has to move.
    pub fn transfer(&mut self, from: ThreadId, to: ThreadId) {
        let (client, server) = (self.client_of(from), self.client_of(to));
        let mut ledger = self.ledger.lock();
        let Some((_, currency, amount)) = own_ticket(&ledger, client) else {
            return;
        };
        let target = TransferTarget::Client(server);
        let transfer =
            lend(&mut ledger, currency, amount, target).expect("transfer endpoints are live");
        if let Some(stale) = self.transfers.insert((from, to), transfer) {
            // A client cannot have two outstanding calls to one server,
            // but unwind defensively rather than leak funding.
            let _ = stale.repay(&mut ledger);
        }
    }

    /// Destroys the transfer ticket on reply; a no-op without a matching
    /// [`transfer`](Self::transfer).
    pub fn untransfer(&mut self, from: ThreadId, to: ThreadId) {
        if let Some(transfer) = self.transfers.remove(&(from, to)) {
            transfer
                .repay(&mut self.ledger.lock())
                .expect("transfer ticket is live");
        }
    }

    /// The RPC transfers outstanding, as `(client, server)` pairs.
    pub fn transfers(&self) -> impl Iterator<Item = (ThreadId, ThreadId)> + '_ {
        self.transfers.keys().copied()
    }

    /// Creates a lottery-scheduled kernel mutex: a mutex currency plus an
    /// inheritance ticket (Section 6.1, Figure 10).
    pub fn create_lock(&mut self) -> LockId {
        let id = LockId::from_index(self.locks.len() as u32);
        let name = format!("kernel-lock{}", id.index());
        let mutex = TicketMutex::new(&mut self.ledger.lock(), &name).expect("fresh mutex currency");
        self.locks.push(mutex);
        id
    }

    /// Acquires `lock` for `tid`, or parks it as a waiter funding the
    /// mutex currency with a transfer denominated in its own funding
    /// currency. The holder's gained weight reaches its home shard through
    /// that shard's dirty queue, as a transfer's does.
    pub fn lock(&mut self, tid: ThreadId, lock: LockId) -> bool {
        let client = self.client_of(tid);
        let mut ledger = self.ledger.lock();
        let (currency, amount) =
            own_ticket(&ledger, client).map_or((ledger.base(), 1), |(_, c, a)| (c, a));
        let waiter = WaiterFunding { currency, amount };
        self.locks[lock.index() as usize]
            .acquire(&mut ledger, client, waiter)
            .expect("lock endpoints are live")
    }

    /// Releases `lock`, held by `tid`, and holds the handoff lottery among
    /// the waiters, weighted by their transferred funding; the winner's
    /// transfer is repaid and it inherits the mutex's inheritance ticket.
    pub fn unlock(&mut self, tid: ThreadId, lock: LockId) -> Option<ThreadId> {
        let client = self.client_of(tid);
        let winner = self.locks[lock.index() as usize]
            .release(&mut self.ledger.lock(), client, &mut self.rng)
            .expect("release by the holder");
        winner.map(|w| self.thread_of(w).expect("winner is a registered thread"))
    }

    /// Cancels a killed thread's lock waits, repaying its transfers.
    pub fn cancel_lock_waits(&mut self, tid: ThreadId) {
        let client = self.client_of(tid);
        let mut ledger = self.ledger.lock();
        for lock in &mut self.locks {
            let _ = lock.cancel(&mut ledger, client);
        }
    }

    /// The thread holding `lock`, if any.
    pub fn lock_holder(&self, lock: LockId) -> Option<ThreadId> {
        self.thread_of(self.locks[lock.index() as usize].holder()?)
    }
}

/// The ticket a thread's `client` was funded with at spawn — the first of
/// its funding (see [`fund_thread`]) — with its currency and face amount;
/// `None` once it is destroyed.
fn own_ticket(ledger: &Ledger, client: ClientId) -> Option<(TicketId, CurrencyId, u64)> {
    let first = *ledger.client(client).ok()?.funding().first()?;
    let ticket = ledger.ticket(first).ok()?;
    Some((first, ticket.currency(), ticket.amount()))
}

/// A thread's current base-unit value through the valuation cache — free
/// of `self` so a draw can price threads while the RNG is borrowed.
fn value_in(threads: &[Option<ClientId>], ledger: &Ledger, tid: ThreadId) -> f64 {
    let client = threads[tid.index() as usize].expect("thread is registered");
    ledger.cached_client_value(client).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_then_exit_leaves_the_books_as_found() {
        let mut core = LotteryCore::new(7, SimDuration::from_ms(100));
        let tenant = core.create_currency("tenant", 500).unwrap();
        let resident = ThreadId::from_index(0);
        core.spawn(resident, FundingSpec::new(tenant, 100));
        let mut shard = Shard::new(SelectStructure::Tree);
        core.activate(resident, &mut shard);
        core.refresh(0, &mut shard);
        assert_eq!(core.ledger.dirty_shard_depth(0), 0);
        let clients = core.ledger.clients().count();
        let tickets = core.ledger.tickets().count();
        let client_threads = core.client_threads.clone();

        let visitor = ThreadId::from_index(1);
        let client = core.spawn(visitor, FundingSpec::new(tenant, 300));
        assert_eq!(core.thread_of(client), Some(visitor));
        core.activate(visitor, &mut shard);
        core.refresh(0, &mut shard);
        assert_eq!(shard.total(), 500.0);
        assert_eq!(core.value_of(resident), 125.0);
        core.exit(visitor, &mut shard);
        assert!(!shard.contains(visitor));

        assert!(!core.registered().any(|t| t == visitor));
        assert_eq!(core.thread_of(client), None);
        assert_eq!(core.ledger.clients().count(), clients);
        assert_eq!(core.ledger.tickets().count(), tickets);
        // The visitor's slot stays allocated but empty; nothing else moved.
        assert_eq!(core.client_threads[..client_threads.len()], client_threads);
        assert!(core.client_threads[client_threads.len()..]
            .iter()
            .all(Option::is_none));
        // Its coming and going dirtied its sibling, and only it: one
        // settle later the queue is empty and the resident owns the tenant.
        core.refresh(0, &mut shard);
        assert_eq!(core.ledger.dirty_shard_depth(0), 0);
        assert_eq!(shard.total(), 500.0);
        assert_eq!(core.value_of(resident), 500.0);
    }
}
