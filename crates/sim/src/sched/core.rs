//! The lottery core: the one funding book and decision path under every
//! lottery policy.
//!
//! A lottery scheduler is a ticket [`Ledger`], a random stream, a table
//! saying which ledger client backs which thread, and a fixed sequence
//! around every draw: settle the weights the ledger invalidated, hold the
//! lottery, revoke the winner's compensation ticket, and at quantum end
//! grant the next one (Sections 4.2–4.5). [`LotteryCore`] owns exactly
//! that, once. [`super::lottery::LotteryPolicy`] is the core over one
//! [`Shard`] plus RPC transfers and kernel mutexes;
//! [`super::distributed::DistributedLottery`] is the core over one shard
//! per CPU plus homing, stealing and rebalancing; each real-thread worker
//! of `lottery-par` is the core over one shard of a ledger it shares. The
//! two simulated policies `Deref` to it, so the currency and funding calls
//! below are their public API too, and a single shard is the same code as
//! the uniprocessor policy rather than a copy kept in step by hand.
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

use std::ops::DerefMut;

use lottery_core::client::ClientId;
use lottery_core::currency::CurrencyId;
use lottery_core::errors::Result;
use lottery_core::ledger::Ledger;
use lottery_core::rng::ParkMiller;
use lottery_core::ticket::TicketId;
use lottery_obs::{EventKind, ProbeBus};

use super::comp::CompensationHook;
use super::lottery::{FundingSpec, SelectStructure};
use super::shard::{Draw, Shard};
use super::EndReason;
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
/// of `spec`. The client is unnamed: the thread holds the name.
///
/// # Panics
///
/// Panics when the spec names a stale currency or a zero amount — both
/// are harness configuration bugs.
pub fn fund_thread(ledger: &mut Ledger, spec: FundingSpec) -> ThreadFunding {
    let client = ledger.create_client(String::new());
    let ticket = ledger
        .issue_root(spec.currency, spec.amount)
        .expect("invalid funding spec");
    ledger
        .fund_client(ticket, client)
        .expect("fresh client and ticket");
    ThreadFunding {
        client,
        ticket,
        currency: spec.currency,
    }
}

/// What backs one thread in the ledger: its client and the one ticket
/// that funds it. A thread that moves between real-thread workers carries
/// this record with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadFunding {
    /// The ledger client the thread's lotteries value.
    pub client: ClientId,
    /// The funding ticket.
    pub ticket: TicketId,
    /// The currency the funding ticket is denominated in.
    pub currency: CurrencyId,
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
    /// Per-thread funding, indexed by thread id.
    threads: Vec<Option<ThreadFunding>>,
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
    pub fn set_funding(&mut self, tid: ThreadId, amount: u64) -> Result<()> {
        let funding = self.funding_info(tid);
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
        }
    }

    /// Stores the bus and offers a clone to the ledger, so draw events
    /// and cache/mutation events share one pipeline.
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.ledger.attach_bus(bus.clone());
        self.bus = bus;
    }

    /// The ledger client backing a thread.
    pub fn client_of(&self, tid: ThreadId) -> ClientId {
        self.funding_info(tid).client
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

    /// Disables compensation tickets — the Section 4.5 ablation, which
    /// reproduces the anomaly where an interactive thread receives far
    /// less than its entitled share.
    pub fn set_compensation_enabled(&mut self, enabled: bool) {
        self.comp.set_enabled(enabled);
    }

    /// Whether compensation tickets are enabled (replay stamps capture
    /// this switch).
    pub fn compensation_enabled(&self) -> bool {
        self.comp.enabled()
    }

    /// The quantum every dispatch is granted.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Whether `tid` is on these books.
    pub(super) fn is_registered(&self, tid: ThreadId) -> bool {
        matches!(self.threads.get(tid.index() as usize), Some(Some(_)))
    }

    /// The thread a ledger client backs.
    pub(super) fn thread_of(&self, client: ClientId) -> Option<ThreadId> {
        self.client_threads
            .get(client.index() as usize)
            .copied()
            .flatten()
    }

    /// What funds `tid`.
    ///
    /// # Panics
    ///
    /// Panics when `tid` is not on these books.
    pub(super) fn funding_info(&self, tid: ThreadId) -> ThreadFunding {
        self.threads
            .get(tid.index() as usize)
            .copied()
            .flatten()
            .expect("thread not registered with the lottery policy")
    }

    /// Puts an already funded thread on these books: a fresh spawn, or a
    /// thread [`release`](Self::release)d by another core.
    pub fn adopt(&mut self, tid: ThreadId, funding: ThreadFunding) {
        let idx = tid.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize(idx + 1, None);
        }
        self.threads[idx] = Some(funding);
        let slot = funding.client.index() as usize;
        if self.client_threads.len() <= slot {
            self.client_threads.resize(slot + 1, None);
        }
        self.client_threads[slot] = Some(tid);
    }

    /// Takes `tid` off these books, its funding untouched: an exit's
    /// first step, or a thread leaving for another core's books, where
    /// [`adopt`](Self::adopt) takes the returned record. The caller
    /// already took it off its shard.
    pub fn release(&mut self, tid: ThreadId) -> ThreadFunding {
        let funding = self.threads[tid.index() as usize]
            .take()
            .expect("thread not registered with the lottery policy");
        self.client_threads[funding.client.index() as usize] = None;
        funding
    }

    /// Registers a thread and funds its client.
    pub fn spawn(&mut self, tid: ThreadId, spec: FundingSpec) -> ClientId {
        let funding = fund_thread(&mut self.ledger.lock(), spec);
        self.adopt(tid, funding);
        self.bus.emit(|| EventKind::WeightChange {
            client: funding.client.index(),
            tickets: spec.amount,
            origin: "spawn",
        });
        funding.client
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
        let client = self.release(tid).client;
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
        let client = self.funding_info(tid).client;
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

    /// Holds one lottery over `shard` (which the caller found non-empty),
    /// removes the winner, and reports the draw under `tag`.
    pub(super) fn draw(&mut self, shard: &mut Shard, tag: &'static str) -> Draw {
        self.lotteries += 1;
        // A list values every ready client via the incremental cache: a
        // warm read per client, plus revalidation of whatever the ledger
        // invalidated since the last pick. A tree or alias table asks for
        // no value, so a shared ledger is not locked here.
        let (threads, ledger) = (&self.threads, &mut self.ledger);
        let draw = shard
            .draw(&mut self.rng, |tid| value_in(threads, &ledger.lock(), tid))
            .expect("the shard is not empty");
        self.bus.emit(|| draw.event(tag));
        draw
    }

    /// CPU `cpu`'s lottery on shard `shard_id` (which the caller settled
    /// and found non-empty): the draw, its `ShardPick` — and `ShardSteal`
    /// when the shard is `stolen` from — and the winner's dispatch.
    pub fn pick_from(
        &mut self,
        cpu: u32,
        shard_id: u32,
        shard: &mut Shard,
        stolen: bool,
    ) -> ThreadId {
        let tag = if shard.structure() == SelectStructure::Alias {
            "shard-alias"
        } else {
            "shard"
        };
        let tid = self.draw(shard, tag).winner;
        self.bus.emit(|| EventKind::ShardPick {
            cpu,
            shard: shard_id,
            stolen,
        });
        if stolen {
            self.bus.emit(|| EventKind::ShardSteal {
                cpu,
                victim: shard_id,
                thread: tid.index(),
            });
        }
        self.dispatched(tid, shard);
        tid
    }

    /// The winner of a draw on `shard` starts its quantum: forwards the
    /// shard's rebuild reports, then revokes any compensation ticket
    /// through the hook (which emits the revocation event).
    pub(super) fn dispatched(&mut self, tid: ThreadId, shard: &mut Shard) {
        shard.emit_rebuilds(&self.bus);
        let client = self.funding_info(tid).client;
        self.comp
            .on_dispatch(&mut self.ledger.lock(), &self.bus, tid, client);
    }

    /// Quantum end: the hook grants a partial-quantum compensation factor
    /// and deactivates a blocked client's tickets so shared-currency
    /// values redistribute (Section 4.4).
    pub fn charge(
        &mut self,
        tid: ThreadId,
        used: SimDuration,
        quantum: SimDuration,
        why: EndReason,
    ) {
        let client = self.funding_info(tid).client;
        self.comp.on_charge(
            &mut self.ledger.lock(),
            &self.bus,
            tid,
            client,
            used,
            quantum,
            why,
        );
    }
}

/// A thread's current base-unit value through the valuation cache — free
/// of `self` so a draw can price threads while the RNG is borrowed.
fn value_in(threads: &[Option<ThreadFunding>], ledger: &Ledger, tid: ThreadId) -> f64 {
    let funding = threads[tid.index() as usize].expect("thread is registered");
    ledger.cached_client_value(funding.client).unwrap_or(0.0)
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

        assert!(!core.is_registered(visitor));
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
