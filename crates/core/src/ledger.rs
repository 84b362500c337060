//! The ledger: the kernel object graph of tickets, currencies, and clients.
//!
//! This module implements the interface of Section 4.3 — operations to
//! create and destroy tickets and currencies, to fund and unfund a currency
//! (by adding or removing a ticket from its list of backing tickets), and to
//! compute the current value of tickets and currencies in base units — plus
//! the activation propagation of Section 4.4.
//!
//! # Structure
//!
//! All objects live in generational [`crate::arena::Arena`]s and reference
//! each other by copyable handles, so the arbitrary acyclic currency graph
//! of Figure 3 needs no shared-ownership gymnastics. A distinguished,
//! conserved **base** currency roots the graph; a ticket denominated in base
//! is worth exactly its face amount.
//!
//! # Example
//!
//! Reconstructing Figure 3's currency graph:
//!
//! ```
//! use lottery_core::ledger::Ledger;
//!
//! let mut ledger = Ledger::new();
//! let base = ledger.base();
//! let alice = ledger.create_currency("alice").unwrap();
//! let t = ledger.issue_root(base, 1000).unwrap();
//! ledger.fund_currency(t, alice).unwrap();
//! ```

use std::cell::RefCell;
use std::collections::HashMap;

use lottery_obs::{Counter, EventKind, ProbeBus};

use crate::arena::{Arena, SideTable};
use crate::client::{Client, ClientId};
use crate::currency::{Currency, CurrencyId, IssuePolicy, Principal};
use crate::errors::{LotteryError, ObjectKind, Result};
use crate::ticket::{FundingTarget, Ticket, TicketId};

/// The ledger of all tickets, currencies, and clients.
#[derive(Debug)]
pub struct Ledger {
    tickets: Arena<Ticket>,
    currencies: Arena<Currency>,
    clients: Arena<Client>,
    base: CurrencyId,
    /// Incremental valuation cache (interior mutability so reads through
    /// `&Ledger` can memoize). See [`Ledger::cached_client_value`].
    cache: RefCell<ValuationCache>,
    /// Work stack of the activation walk, kept between walks so a
    /// block/wake pair allocates nothing.
    activation_work: Vec<TicketId>,
    /// Probe bus for cache/mutation observability (disabled by default:
    /// emitting through a disabled bus is a single branch).
    bus: ProbeBus,
}

/// Incrementally maintained currency/client values in base units.
///
/// An entry's *presence* is its validity: mutators remove the entries whose
/// values they may have changed — found by following each touched
/// currency's live list, which `Ledger::propagate_activation` maintains
/// (see [`mark_currency`]) — and reads recompute absent entries on demand.
/// The `dirty` queue accumulates clients whose cached value was
/// invalidated, as a change notification queue for schedulers that mirror
/// client values into an external structure (a partial-sum tree); it is
/// drained by [`Ledger::drain_dirty_clients`] and is independent of
/// recomputation.
///
/// The books a decision *writes* — the dirty queue and the compensation
/// book — are tables indexed by client slot, and the invalidation walk
/// keeps its work stack here between calls, so the per-decision write
/// path neither hashes nor allocates. On the read side, currency values
/// sit in a [`SideTable`] by currency slot; client values are still a
/// hash map.
#[derive(Debug, Default)]
struct ValuationCache {
    currencies: SideTable<Currency, f64>,
    // Not a `SideTable` until the harness stops growing per round (ROADMAP 2(i)).
    clients: HashMap<ClientId, f64>,
    dirty: ShardedDirtyQueue,
    comp: CompensationLedger,
    /// Work stack of [`mark_currency`], kept between invalidations.
    mark_work: Vec<CurrencyId>,
    /// Scratch memo of the walks that read nothing from the cache
    /// ([`Valuator`]): `(walk, value)` per currency slot, valid only for
    /// the walk that wrote it.
    scratch: Vec<(u64, f64)>,
    /// Scratch walks started so far: the newest walk's tag.
    scratch_walks: u64,
}

/// First-class compensation accounting (Sections 3.4 / 4.5), folded into
/// the valuation cache so compensated weight is tracked *per shard* and
/// travels with a client across shard reassignment.
///
/// Each compensated client (factor > 1) has an entry recording the factor
/// and a snapshot of its *funded* value (excluding compensation) in base
/// units, taken when the factor was granted and refreshed whenever the
/// client is revalued while active. From those the ledger maintains two
/// per-shard sums:
///
/// * **extra** — `(factor − 1) × funded` per client: the base-unit worth of
///   the implicit compensation ticket each shard is carrying. This is the
///   compensation weight surfaced to gauges and the `shards` verb.
/// * **resting** — `factor × funded` summed over compensated clients that
///   are currently *inactive* (blocked). Their cached value is zero, so
///   they are invisible to a shard's partial-sum tree — but this is exactly
///   the weight the tree regains when they wake. Rebalancers add it to raw
///   tree totals to compare *effective* shard weights.
///
/// A client granted compensation while inactive snapshots a funded value of
/// zero; the snapshot is corrected on its next valuation after activation.
///
/// Entries live in a [`SideTable`] indexed by client slot — the several
/// touches a decision makes (grant, rest, wake, refresh, clear) hash
/// nothing — and are changed in place; whatever sums over them — the
/// global weight, the per-shard rebuild on a shard-count change — does so
/// in ascending slot order, so the `f64` results are the same on every run.
#[derive(Debug)]
pub struct CompensationLedger {
    entries: SideTable<Client, CompEntry>,
    /// Per-shard sum of `extra` over every compensated client homed there.
    extra: Vec<f64>,
    /// Per-shard sum of `funded + extra` over *inactive* compensated
    /// clients homed there.
    resting: Vec<f64>,
    granted: u64,
    revoked: u64,
}

#[derive(Debug, Clone, Copy)]
struct CompEntry {
    factor: f64,
    /// Funded value (no compensation) in base units at the last refresh.
    funded: f64,
    shard: u32,
    resting: bool,
}

impl CompEntry {
    /// The implicit compensation ticket's worth: `(factor − 1) × funded`.
    fn extra(&self) -> f64 {
        self.funded * (self.factor - 1.0)
    }
}

impl Default for CompensationLedger {
    fn default() -> Self {
        Self::new(1)
    }
}

impl CompensationLedger {
    fn new(shards: usize) -> Self {
        Self {
            entries: SideTable::default(),
            extra: vec![0.0; shards.max(1)],
            resting: vec![0.0; shards.max(1)],
            granted: 0,
            revoked: 0,
        }
    }

    fn clamp(&self, shard: u32) -> usize {
        (shard as usize).min(self.extra.len() - 1)
    }

    fn add_entry(&mut self, e: &CompEntry) {
        let s = self.clamp(e.shard);
        self.extra[s] += e.extra();
        if e.resting {
            self.resting[s] += e.funded + e.extra();
        }
    }

    fn remove_entry(&mut self, e: &CompEntry) {
        let s = self.clamp(e.shard);
        self.extra[s] -= e.extra();
        if e.resting {
            self.resting[s] -= e.funded + e.extra();
        }
    }

    /// Changes an existing entry in place, taking its old weight out of
    /// the per-shard sums and putting the new weight in.
    fn update(&mut self, client: ClientId, change: impl FnOnce(&mut CompEntry)) {
        let Some(e) = self.entries.get_mut(client) else {
            return;
        };
        let old = *e;
        change(e);
        let new = *e;
        self.remove_entry(&old);
        self.add_entry(&new);
    }

    /// Records a grant (or factor update), preserving the resting state of
    /// an existing entry.
    fn record(&mut self, client: ClientId, factor: f64, funded: f64, shard: u32, resting: bool) {
        if self.entries.get(client).is_some() {
            self.update(client, |e| {
                (e.factor, e.funded, e.shard) = (factor, funded, shard);
            });
        } else {
            let e = CompEntry {
                factor,
                funded,
                shard,
                resting,
            };
            self.add_entry(&e);
            self.entries.insert(client, e);
        }
        self.granted += 1;
    }

    /// Updates the funded-value snapshot of an existing entry.
    fn refresh_funded(&mut self, client: ClientId, funded: f64) {
        self.update(client, |e| e.funded = funded);
    }

    /// Clears a client's compensation (factor back to 1); counts a
    /// revocation when an entry actually existed.
    fn clear(&mut self, client: ClientId) {
        if let Some(e) = self.entries.remove(client) {
            self.remove_entry(&e);
            self.revoked += 1;
        }
    }

    /// Drops a destroyed client without counting a revocation.
    fn forget(&mut self, client: ClientId) {
        if let Some(e) = self.entries.remove(client) {
            self.remove_entry(&e);
        }
    }

    /// Flips a client between active and resting, moving its return
    /// weight in or out of the shard's resting sum.
    fn set_resting(&mut self, client: ClientId, resting: bool) {
        self.update(client, |e| e.resting = resting);
    }

    /// Moves a client's compensated weight to another shard (migration and
    /// steal re-homing) so nothing is lost or double-counted.
    fn rehome(&mut self, client: ClientId, shard: u32) {
        self.update(client, |e| e.shard = shard);
    }

    /// Changes the shard count and rebuilds the per-shard sums in
    /// ascending slot order, clamping out-of-range homes into the new
    /// range.
    fn set_shards(&mut self, shards: usize) {
        self.extra = vec![0.0; shards.max(1)];
        self.resting = vec![0.0; shards.max(1)];
        let entries = std::mem::take(&mut self.entries);
        for e in entries.iter() {
            self.add_entry(e);
        }
        self.entries = entries;
    }

    fn shard_extra(&self, shard: u32) -> f64 {
        // Clamp tiny negative residue from repeated float +=/−=.
        self.extra
            .get(shard as usize)
            .copied()
            .unwrap_or(0.0)
            .max(0.0)
    }

    fn shard_resting(&self, shard: u32) -> f64 {
        self.resting
            .get(shard as usize)
            .copied()
            .unwrap_or(0.0)
            .max(0.0)
    }

    /// Global compensated weight, recomputed exactly from the entries in
    /// ascending slot order (so two identical runs agree to the last bit).
    fn total_extra(&self) -> f64 {
        self.entries.iter().map(CompEntry::extra).sum()
    }

    fn factor_of(&self, client: ClientId) -> f64 {
        self.entries.get(client).map_or(1.0, |e| e.factor)
    }
}

/// Dirty-client notifications partitioned by home shard.
///
/// A distributed scheduler assigns each client a *home shard* (one per
/// CPU); invalidations then land only in the owning shard's queue, so a
/// CPU refreshing its own partial-sum tree drains only the notifications
/// it can act on instead of contending on one global set. With a single
/// shard (the default) this degenerates to exactly the old global queue.
///
/// Storage is dense: client ids are arena indices, so home assignment
/// and pending-membership live in flat vectors indexed by slot — no
/// hashing on the per-decision invalidation path. Each shard's queue is
/// an insertion-ordered `Vec`; a `forget` or re-home leaves a tombstone
/// behind that the next drain skips (membership is authoritative in the
/// per-slot `pending` word, never in the queue vector).
///
/// The queue is plain owned data — `Send`, like the [`Ledger`] holding
/// it — so a real-thread scheduler (`lottery-par`) can move the ledger
/// into a mutex shared by its workers. Per-shard drains keep their point
/// there: each worker takes the lock briefly and drains *only its own
/// shard's* queue, so one worker's invalidation burst never forces
/// another to walk notifications it cannot act on.
#[derive(Debug)]
pub struct ShardedDirtyQueue {
    /// Home shard per client slot; [`NO_SHARD`] routes to shard 0.
    owner: Vec<u32>,
    /// The shard whose queue holds the client's pending notification, or
    /// [`NO_SHARD`] when none is pending. Authoritative for membership.
    pending: Vec<u32>,
    /// Pending notifications per shard, insertion-ordered, possibly with
    /// tombstones (entries whose `pending` word no longer matches).
    queues: Vec<Vec<ClientId>>,
    /// Live (non-tombstoned) notification count per shard.
    live: Vec<usize>,
    /// Times an already-assigned client moved to a different shard.
    reassignments: u64,
}

/// Sentinel for "no shard" in the dense owner / pending vectors.
const NO_SHARD: u32 = u32::MAX;

impl Default for ShardedDirtyQueue {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ShardedDirtyQueue {
    /// Creates a queue with `shards` partitions (at least one).
    pub fn new(shards: usize) -> Self {
        Self {
            owner: Vec::new(),
            pending: Vec::new(),
            queues: vec![Vec::new(); shards.max(1)],
            live: vec![0; shards.max(1)],
            reassignments: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Grows the dense tables to cover `client`'s slot.
    fn ensure_slot(&mut self, client: ClientId) -> usize {
        let slot = client.index() as usize;
        if slot >= self.owner.len() {
            self.owner.resize(slot + 1, NO_SHARD);
            self.pending.resize(slot + 1, NO_SHARD);
        }
        slot
    }

    /// The shard a client's notifications route to. Unassigned or
    /// out-of-range owners clamp into the valid shard range.
    pub fn shard_of(&self, client: ClientId) -> u32 {
        let raw = self
            .owner
            .get(client.index() as usize)
            .copied()
            .unwrap_or(NO_SHARD);
        let shard = if raw == NO_SHARD { 0 } else { raw };
        shard.min(self.queues.len() as u32 - 1)
    }

    /// Pending notifications in one shard (0 for out-of-range shards).
    pub fn depth(&self, shard: u32) -> usize {
        self.live.get(shard as usize).copied().unwrap_or(0)
    }

    /// Total pending notifications across all shards.
    pub fn len(&self) -> usize {
        self.live.iter().sum()
    }

    /// Whether no notifications are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.live.iter().all(|&n| n == 0)
    }

    /// Times an already-assigned client changed shards.
    pub fn reassignments(&self) -> u64 {
        self.reassignments
    }

    /// Enqueues a notification on the client's home shard (idempotent).
    pub fn insert(&mut self, client: ClientId) {
        let shard = self.shard_of(client);
        let slot = self.ensure_slot(client);
        if self.pending[slot] == NO_SHARD {
            self.pending[slot] = shard;
            self.queues[shard as usize].push(client);
            self.live[shard as usize] += 1;
        }
    }

    /// Re-homes a client, migrating any pending notification with it so
    /// the new owner still hears about the earlier invalidation.
    pub fn assign(&mut self, client: ClientId, shard: u32) {
        let shard = shard.min(self.queues.len() as u32 - 1);
        let old = self.shard_of(client);
        let slot = self.ensure_slot(client);
        if self.owner[slot] != NO_SHARD && old != shard {
            self.reassignments += 1;
        }
        self.owner[slot] = shard;
        if old != shard && self.pending[slot] == old {
            // The old queue keeps a tombstone; the pending word moves.
            self.live[old as usize] -= 1;
            self.pending[slot] = shard;
            self.queues[shard as usize].push(client);
            self.live[shard as usize] += 1;
        }
    }

    /// Drops a client entirely: its pending notification and its home
    /// assignment (on destruction — it must never surface from a drain).
    pub fn forget(&mut self, client: ClientId) {
        let slot = self.ensure_slot(client);
        let pending = self.pending[slot];
        if pending != NO_SHARD {
            self.live[pending as usize] -= 1;
            self.pending[slot] = NO_SHARD;
        }
        self.owner[slot] = NO_SHARD;
    }

    /// Changes the shard count, re-routing pending notifications through
    /// the (clamped) owner map.
    pub fn set_shards(&mut self, shards: usize) {
        let mut pending = Vec::new();
        self.drain_all_into(&mut pending);
        self.queues = vec![Vec::new(); shards.max(1)];
        self.live = vec![0; shards.max(1)];
        for client in pending {
            self.insert(client);
        }
    }

    /// Drains one shard into a caller-owned buffer (cleared first), so
    /// per-draw refresh paths reuse storage instead of allocating.
    ///
    /// Drain order is ascending client id, never hash or insertion
    /// order: downstream structures patch weights (and decide when to
    /// rebuild) in this order, and record/replay requires it to be
    /// identical across runs.
    pub fn drain_shard_into(&mut self, shard: u32, out: &mut Vec<ClientId>) {
        out.clear();
        self.drain_shard_append(shard, out);
        out.sort_unstable();
    }

    /// Drains one shard's live entries (skipping tombstones) onto the end
    /// of `out`, unsorted.
    fn drain_shard_append(&mut self, shard: u32, out: &mut Vec<ClientId>) {
        let Some(q) = self.queues.get_mut(shard as usize) else {
            return;
        };
        for client in q.drain(..) {
            let slot = client.index() as usize;
            if self.pending[slot] == shard {
                self.pending[slot] = NO_SHARD;
                out.push(client);
            }
        }
        self.live[shard as usize] = 0;
    }

    /// Drains every shard into a caller-owned buffer (cleared first).
    ///
    /// Within each shard the order is ascending client id (see
    /// [`ShardedDirtyQueue::drain_shard_into`]); shards drain in index
    /// order. Deterministic order is a replay invariant.
    pub fn drain_all_into(&mut self, out: &mut Vec<ClientId>) {
        out.clear();
        out.reserve(self.len());
        for shard in 0..self.queues.len() as u32 {
            let start = out.len();
            self.drain_shard_append(shard, out);
            out[start..].sort_unstable();
        }
    }
}

/// Invalidates `start` and every cached entry downstream of it, returning
/// `(currency_entries_removed, client_entries_removed)` for the probe bus.
///
/// Downstream edges run from a currency through its *live* tickets
/// ([`Currency::live`]) to the currencies or clients they fund — the reverse
/// of the valuation dependency direction, restricted to the edges value
/// actually flows along. A block or wake therefore visits the awake tickets
/// of the currencies whose active amount changed, never a sleeper's.
///
/// Two arguments make the walk sound.
///
/// *It may stop at a currency with no cached entry.* Computation preserves
/// the invariant *"a cached entry implies every currency whose value it read
/// is also cached"*: computing a value memoizes its full upstream closure,
/// and this walk removes the full cached downstream closure. An uncached
/// currency therefore has no cached dependents left to invalidate.
///
/// *It may skip inactive tickets.* Valuation reads a ticket's denomination
/// only when the ticket is active (`Ledger::ticket_value_in` returns 0 for an
/// inactive one before it looks at the currency), and every flip of a
/// ticket's activity marks that ticket's own target
/// (`Ledger::mark_ticket_change`). So an entry cached while the ticket was
/// active does not survive the ticket's deactivation, and one cached since
/// never read `C` through it: every cached reader of a currency `C` is
/// reachable from `C.live()`.
fn mark_currency(
    tickets: &Arena<Ticket>,
    currencies: &Arena<Currency>,
    cache: &mut ValuationCache,
    start: CurrencyId,
) -> (u32, u32) {
    let (mut removed_currencies, mut removed_clients) = (0, 0);
    debug_assert!(cache.mark_work.is_empty());
    cache.mark_work.push(start);
    while let Some(cur) = cache.mark_work.pop() {
        if cache.currencies.remove(cur).is_none() {
            continue;
        }
        removed_currencies += 1;
        let Some(currency) = currencies.get(cur) else {
            continue;
        };
        for &t in currency.live() {
            match tickets.get(t).map(Ticket::target) {
                Some(FundingTarget::Currency(next)) => cache.mark_work.push(next),
                Some(FundingTarget::Client(client)) => {
                    removed_clients += u32::from(mark_client(cache, client));
                }
                _ => {}
            }
        }
    }
    (removed_currencies, removed_clients)
}

/// Invalidates a client's cached value, queueing a dirty notification;
/// returns whether a cached entry was actually removed.
///
/// A client that was never cached has no dependents to notify: only
/// schedulers that read a value (and thereby cached it) need to hear that
/// it changed.
fn mark_client(cache: &mut ValuationCache, client: ClientId) -> bool {
    if cache.clients.remove(&client).is_some() {
        cache.dirty.insert(client);
        true
    } else {
        false
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// Creates a ledger containing only the base currency.
    pub fn new() -> Self {
        Self::with_client_capacity(0)
    }

    /// Creates a ledger pre-sized for `clients` clients (and one funding
    /// ticket each), so bulk population at scale never reallocates the
    /// object arenas mid-build.
    pub fn with_client_capacity(clients: usize) -> Self {
        let mut currencies = Arena::new();
        let base = currencies.insert(Currency::new("base", IssuePolicy::Restricted(Vec::new())));
        Self {
            tickets: Arena::with_capacity(clients),
            currencies,
            clients: Arena::with_capacity(clients),
            base,
            cache: RefCell::new(ValuationCache::default()),
            activation_work: Vec::new(),
            bus: ProbeBus::disabled(),
        }
    }

    /// Attaches a probe bus; subsequent mutations emit structured events
    /// through it and valuation-cache lookups bump its counters. The
    /// default bus is disabled and costs one branch per probe site.
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.bus = bus;
    }

    /// The ledger's current probe bus (cheap to clone; clones share state).
    pub fn probe_bus(&self) -> &ProbeBus {
        &self.bus
    }

    /// The conserved base currency.
    pub fn base(&self) -> CurrencyId {
        self.base
    }

    // ------------------------------------------------------------------
    // Object accessors.
    // ------------------------------------------------------------------

    /// Shared access to a ticket.
    pub fn ticket(&self, id: TicketId) -> Result<&Ticket> {
        self.tickets.get(id).ok_or(LotteryError::StaleHandle {
            kind: ObjectKind::Ticket,
            handle: id.raw(),
        })
    }

    /// Shared access to a currency.
    pub fn currency(&self, id: CurrencyId) -> Result<&Currency> {
        self.currencies.get(id).ok_or(LotteryError::StaleHandle {
            kind: ObjectKind::Currency,
            handle: id.raw(),
        })
    }

    /// Shared access to a client.
    pub fn client(&self, id: ClientId) -> Result<&Client> {
        self.clients.get(id).ok_or(LotteryError::StaleHandle {
            kind: ObjectKind::Client,
            handle: id.raw(),
        })
    }

    /// Iterates over all live currencies.
    pub fn currencies(&self) -> impl Iterator<Item = (CurrencyId, &Currency)> {
        self.currencies.iter()
    }

    /// Iterates over all live clients.
    pub fn clients(&self) -> impl Iterator<Item = (ClientId, &Client)> {
        self.clients.iter()
    }

    /// Iterates over all live tickets.
    pub fn tickets(&self) -> impl Iterator<Item = (TicketId, &Ticket)> {
        self.tickets.iter()
    }

    // ------------------------------------------------------------------
    // Currency lifecycle.
    // ------------------------------------------------------------------

    /// Creates a currency whose tickets anyone may issue.
    pub fn create_currency(&mut self, name: impl Into<String>) -> Result<CurrencyId> {
        self.create_currency_with_policy(name, IssuePolicy::Anyone)
    }

    /// Creates a currency with an explicit issue policy.
    pub fn create_currency_with_policy(
        &mut self,
        name: impl Into<String>,
        policy: IssuePolicy,
    ) -> Result<CurrencyId> {
        self.bus.emit(|| EventKind::LedgerOp {
            op: "create-currency",
        });
        Ok(self.currencies.insert(Currency::new(name, policy)))
    }

    /// Replaces a currency's issue policy.
    pub fn set_policy(&mut self, id: CurrencyId, policy: IssuePolicy) -> Result<()> {
        if id == self.base {
            return Err(LotteryError::BaseCurrencyImmutable);
        }
        let cur = self
            .currencies
            .get_mut(id)
            .ok_or(LotteryError::StaleHandle {
                kind: ObjectKind::Currency,
                handle: id.raw(),
            })?;
        cur.set_policy(policy);
        Ok(())
    }

    /// Destroys an empty currency.
    ///
    /// Fails with [`LotteryError::CurrencyInUse`] if any tickets are still
    /// issued in or backing the currency, and with
    /// [`LotteryError::BaseCurrencyImmutable`] for the base currency.
    pub fn destroy_currency(&mut self, id: CurrencyId) -> Result<()> {
        if id == self.base {
            return Err(LotteryError::BaseCurrencyImmutable);
        }
        let cur = self.currency(id)?;
        if !cur.issued().is_empty() || !cur.backing().is_empty() {
            return Err(LotteryError::CurrencyInUse);
        }
        self.currencies.remove(id);
        // An empty currency backs nothing, so removing its (necessarily
        // zero) cached value cannot strand dependents.
        self.cache.get_mut().currencies.remove(id);
        self.bus.emit(|| EventKind::LedgerOp {
            op: "destroy-currency",
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Client lifecycle.
    // ------------------------------------------------------------------

    /// Creates an inactive client with no funding.
    pub fn create_client(&mut self, name: impl Into<String>) -> ClientId {
        self.bus.emit(|| EventKind::LedgerOp {
            op: "create-client",
        });
        self.clients.insert(Client::new(name))
    }

    /// Destroys a client with no funding.
    pub fn destroy_client(&mut self, id: ClientId) -> Result<()> {
        let client = self.client(id)?;
        if !client.funding().is_empty() {
            return Err(LotteryError::ClientInUse);
        }
        self.clients.remove(id);
        // Purge the cached value, any pending dirty notification, and the
        // shard assignment: a destroyed client must never surface from the
        // drain hooks.
        let cache = self.cache.get_mut();
        cache.clients.remove(&id);
        cache.dirty.forget(id);
        cache.comp.forget(id);
        self.bus.emit(|| EventKind::LedgerOp {
            op: "destroy-client",
        });
        Ok(())
    }

    /// Destroys a client after destroying every ticket that funds it.
    pub fn destroy_client_and_funding(&mut self, id: ClientId) -> Result<()> {
        let funding: Vec<TicketId> = self.client(id)?.funding().to_vec();
        for t in funding {
            self.destroy_ticket(t)?;
        }
        self.destroy_client(id)
    }

    // ------------------------------------------------------------------
    // Ticket lifecycle.
    // ------------------------------------------------------------------

    /// Issues an unfunded ticket of `amount` units in `currency` on behalf
    /// of `principal`.
    ///
    /// Fails with [`LotteryError::PermissionDenied`] when the currency's
    /// issue policy rejects the principal — the mechanism that disallows
    /// unsanctioned ticket inflation across trust boundaries (Section 3.2).
    pub fn issue(
        &mut self,
        currency: CurrencyId,
        amount: u64,
        principal: Principal,
    ) -> Result<TicketId> {
        if amount == 0 {
            return Err(LotteryError::ZeroAmount);
        }
        let cur = self.currency(currency)?;
        if !cur.policy().permits(principal) {
            return Err(LotteryError::PermissionDenied);
        }
        cur.total_amount()
            .checked_add(amount)
            .ok_or(LotteryError::AmountOverflow)?;
        let id = self.tickets.insert(Ticket::new(amount, currency));
        self.currencies
            .get_mut(currency)
            .expect("checked above")
            .add_issued(id, amount);
        self.bus.emit(|| EventKind::LedgerOp { op: "issue" });
        Ok(id)
    }

    /// Issues a ticket as the root principal (always permitted).
    pub fn issue_root(&mut self, currency: CurrencyId, amount: u64) -> Result<TicketId> {
        self.issue(currency, amount, Principal::ROOT)
    }

    /// Destroys a ticket, unfunding it first if necessary.
    pub fn destroy_ticket(&mut self, id: TicketId) -> Result<()> {
        self.unfund(id)?;
        let ticket = self.tickets.remove(id).expect("unfund verified liveness");
        debug_assert!(!ticket.is_active());
        if let Some(cur) = self.currencies.get_mut(ticket.currency()) {
            cur.remove_issued(id, ticket.amount());
        }
        self.bus.emit(|| EventKind::LedgerOp {
            op: "destroy-ticket",
        });
        Ok(())
    }

    /// Changes a ticket's face amount in place.
    ///
    /// This implements dynamic ticket inflation/deflation for an already
    /// funded ticket (Section 5.2's Monte-Carlo experiment adjusts ticket
    /// values this way). Activation state is preserved; currency sums are
    /// adjusted.
    pub fn set_amount(&mut self, id: TicketId, amount: u64) -> Result<()> {
        if amount == 0 {
            return Err(LotteryError::ZeroAmount);
        }
        let (old, currency, active, target) = {
            let t = self.ticket(id)?;
            (t.amount(), t.currency(), t.is_active(), t.target())
        };
        if old == amount {
            return Ok(());
        }
        let cur = self.currency(currency)?;
        cur.total_amount()
            .checked_sub(old)
            .and_then(|v| v.checked_add(amount))
            .ok_or(LotteryError::AmountOverflow)?;
        self.currencies
            .get_mut(currency)
            .expect("checked above")
            .adjust_amount(old, amount, active);
        self.tickets
            .get_mut(id)
            .expect("checked above")
            .set_amount(amount);
        if active {
            // The denomination's active amount shifted (diluting every
            // sibling's share) and the ticket's own face value changed.
            self.mark_ticket_change(currency, target);
        }
        self.bus.emit(|| EventKind::LedgerOp { op: "set-amount" });
        Ok(())
    }

    /// Splits a ticket into several of the same denomination and funding
    /// target.
    ///
    /// Like breaking a monetary note (Section 3.1 likens tickets to notes
    /// "issued in different denominations"): `parts` must be positive and
    /// sum to the ticket's amount. The original ticket keeps the first
    /// part; the returned tickets carry the rest, each funding the same
    /// target with the same activation state. The total value anyone
    /// derives from the currency is unchanged.
    pub fn split_ticket(&mut self, id: TicketId, parts: &[u64]) -> Result<Vec<TicketId>> {
        let (amount, currency, target) = {
            let t = self.ticket(id)?;
            (t.amount(), t.currency(), t.target())
        };
        if parts.is_empty() || parts.contains(&0) {
            return Err(LotteryError::ZeroAmount);
        }
        let sum = parts
            .iter()
            .try_fold(0u64, |acc, &p| acc.checked_add(p))
            .ok_or(LotteryError::AmountOverflow)?;
        if sum != amount {
            return Err(LotteryError::ZeroAmount);
        }
        self.set_amount(id, parts[0])?;
        let mut rest = Vec::with_capacity(parts.len() - 1);
        for &part in &parts[1..] {
            let piece = self.issue_root(currency, part)?;
            match target {
                FundingTarget::Client(c) => self.fund_client(piece, c)?,
                FundingTarget::Currency(c) => self.fund_currency(piece, c)?,
                FundingTarget::Unfunded => {}
            }
            rest.push(piece);
        }
        Ok(rest)
    }

    /// Merges `other` into `ticket`: both must share a denomination and a
    /// funding target; `other` is destroyed and its amount added.
    pub fn merge_tickets(&mut self, ticket: TicketId, other: TicketId) -> Result<()> {
        if ticket == other {
            return Err(LotteryError::ZeroAmount);
        }
        let (a_amt, a_cur, a_target) = {
            let t = self.ticket(ticket)?;
            (t.amount(), t.currency(), t.target())
        };
        let (b_amt, b_cur, b_target) = {
            let t = self.ticket(other)?;
            (t.amount(), t.currency(), t.target())
        };
        if a_cur != b_cur || a_target != b_target {
            return Err(LotteryError::NotTransferred);
        }
        let total = a_amt
            .checked_add(b_amt)
            .ok_or(LotteryError::AmountOverflow)?;
        self.destroy_ticket(other)?;
        self.set_amount(ticket, total)
    }

    // ------------------------------------------------------------------
    // Funding.
    // ------------------------------------------------------------------

    /// Uses `ticket` to fund `client`.
    ///
    /// If the client is active, the ticket is activated and the activation
    /// propagates through the currency graph.
    pub fn fund_client(&mut self, ticket: TicketId, client: ClientId) -> Result<()> {
        self.ticket(ticket)?;
        self.client(client)?;
        self.unfund(ticket)?;
        self.tickets
            .get_mut(ticket)
            .expect("checked above")
            .set_target(FundingTarget::Client(client));
        self.clients
            .get_mut(client)
            .expect("checked above")
            .add_funding(ticket);
        if self.client(client)?.is_active() {
            self.activate_ticket(ticket);
        }
        self.bus.emit(|| EventKind::LedgerOp { op: "fund-client" });
        Ok(())
    }

    /// Uses `ticket` to back (fund) `currency`.
    ///
    /// Fails with [`LotteryError::CurrencyCycle`] if the funding edge would
    /// make the ticket's denomination depend on `currency` — currency
    /// relationships must form an acyclic graph (Section 3.3). The base
    /// currency cannot be funded: it is conserved by definition.
    pub fn fund_currency(&mut self, ticket: TicketId, currency: CurrencyId) -> Result<()> {
        let denom = self.ticket(ticket)?.currency();
        self.currency(currency)?;
        if currency == self.base {
            return Err(LotteryError::BaseCurrencyImmutable);
        }
        // `currency`'s value will depend on `denom`; reject if `denom`
        // already depends on `currency` (including `denom == currency`).
        if self.depends_on(denom, currency)? {
            return Err(LotteryError::CurrencyCycle);
        }
        self.unfund(ticket)?;
        self.tickets
            .get_mut(ticket)
            .expect("checked above")
            .set_target(FundingTarget::Currency(currency));
        self.currencies
            .get_mut(currency)
            .expect("checked above")
            .add_backing(ticket);
        if self.currency(currency)?.is_active() {
            self.activate_ticket(ticket);
        }
        self.bus.emit(|| EventKind::LedgerOp {
            op: "fund-currency",
        });
        Ok(())
    }

    /// Removes `ticket` from whatever it funds, deactivating it.
    pub fn unfund(&mut self, ticket: TicketId) -> Result<()> {
        let target = self.ticket(ticket)?.target();
        match target {
            FundingTarget::Unfunded => return Ok(()),
            FundingTarget::Client(c) => {
                self.deactivate_ticket(ticket);
                if let Some(client) = self.clients.get_mut(c) {
                    client.remove_funding(ticket);
                }
            }
            FundingTarget::Currency(c) => {
                self.deactivate_ticket(ticket);
                if let Some(cur) = self.currencies.get_mut(c) {
                    cur.remove_backing(ticket);
                }
            }
        }
        self.tickets
            .get_mut(ticket)
            .expect("checked above")
            .set_target(FundingTarget::Unfunded);
        self.bus.emit(|| EventKind::LedgerOp { op: "unfund" });
        Ok(())
    }

    /// Whether currency `a`'s value (transitively) depends on currency `b`.
    ///
    /// Dependency edges run from a currency to the denominations of its
    /// backing tickets.
    pub fn depends_on(&self, a: CurrencyId, b: CurrencyId) -> Result<bool> {
        if a == b {
            return Ok(true);
        }
        let mut stack = vec![a];
        let mut seen = vec![a];
        while let Some(cur) = stack.pop() {
            for &t in self.currency(cur)?.backing() {
                let denom = self.ticket(t)?.currency();
                if denom == b {
                    return Ok(true);
                }
                if !seen.contains(&denom) {
                    seen.push(denom);
                    stack.push(denom);
                }
            }
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Activation (Section 4.4).
    // ------------------------------------------------------------------

    /// Marks a client active (e.g. it joined the run queue) and activates
    /// its funding tickets.
    pub fn activate_client(&mut self, id: ClientId) -> Result<()> {
        let client = self.clients.get_mut(id).ok_or(LotteryError::StaleHandle {
            kind: ObjectKind::Client,
            handle: id.raw(),
        })?;
        if client.is_active() {
            return Ok(());
        }
        client.set_active(true);
        self.activation_work
            .extend(client.funding().iter().rev().copied());
        self.propagate_activation(true);
        self.cache.get_mut().comp.set_resting(id, false);
        self.bus.emit(|| EventKind::LedgerOp {
            op: "activate-client",
        });
        Ok(())
    }

    /// Marks a client inactive (e.g. it blocked) and deactivates its
    /// funding tickets.
    pub fn deactivate_client(&mut self, id: ClientId) -> Result<()> {
        let client = self.clients.get_mut(id).ok_or(LotteryError::StaleHandle {
            kind: ObjectKind::Client,
            handle: id.raw(),
        })?;
        if !client.is_active() {
            return Ok(());
        }
        client.set_active(false);
        self.activation_work
            .extend(client.funding().iter().rev().copied());
        self.propagate_activation(false);
        self.cache.get_mut().comp.set_resting(id, true);
        self.bus.emit(|| EventKind::LedgerOp {
            op: "deactivate-client",
        });
        Ok(())
    }

    /// Activates one ticket, propagating toward the base currency.
    fn activate_ticket(&mut self, id: TicketId) {
        self.activation_work.push(id);
        self.propagate_activation(true);
    }

    /// Deactivates one ticket, propagating toward the base currency.
    fn deactivate_ticket(&mut self, id: TicketId) {
        self.activation_work.push(id);
        self.propagate_activation(false);
    }

    /// Sets the activation of every ticket on the work stack, last pushed
    /// first. When a denomination's active amount crosses zero, the change
    /// propagates to the denomination's backing tickets, and so on toward
    /// the base currency, before the next stacked ticket is looked at.
    ///
    /// This is the one place a ticket's activity is written, and therefore
    /// the one place that keeps each currency's live list
    /// ([`Currency::live`]): an activated ticket is pushed onto its
    /// denomination's list and stores the slot it got; a deactivated one is
    /// `swap_remove`d by its stored slot, and the ticket that moved into the
    /// hole has its slot rewritten.
    fn propagate_activation(&mut self, active: bool) {
        let mut work = std::mem::take(&mut self.activation_work);
        while let Some(tid) = work.pop() {
            let t = self
                .tickets
                .get_mut(tid)
                .expect("ticket liveness invariant");
            if t.is_active() == active {
                continue;
            }
            let (amount, denom, target) = (t.amount(), t.currency(), t.target());
            let currency = self
                .currencies
                .get_mut(denom)
                .expect("denomination liveness invariant");
            let crossed = if active {
                t.set_live_slot(currency.push_live(tid));
                currency.activate_amount(amount)
            } else {
                let slot = t.clear_live_slot();
                if let Some(moved) = currency.swap_remove_live(slot, tid) {
                    self.tickets
                        .get_mut(moved)
                        .expect("ticket liveness invariant")
                        .set_live_slot(slot);
                }
                currency.deactivate_amount(amount)
            };
            if crossed {
                work.extend_from_slice(currency.backing());
            }
            self.mark_ticket_change(denom, target);
        }
        self.activation_work = work;
    }

    // ------------------------------------------------------------------
    // Compensation (Sections 3.4 / 4.5).
    // ------------------------------------------------------------------

    /// Sets a client's compensation factor directly.
    ///
    /// Prefer [`crate::compensation::grant`] and
    /// [`crate::compensation::clear`], which derive the factor from quantum
    /// usage.
    pub fn set_compensation(&mut self, id: ClientId, factor: f64) -> Result<()> {
        // NaN fails the finiteness check; negatives and sub-unity factors
        // fail the comparison.
        if factor < 1.0 || !factor.is_finite() {
            // A factor below one would *penalize* the client; the mechanism
            // only ever inflates (Section 3.4).
            return Err(LotteryError::ZeroAmount);
        }
        let client = self.clients.get_mut(id).ok_or(LotteryError::StaleHandle {
            kind: ObjectKind::Client,
            handle: id.raw(),
        })?;
        if client.compensation() == factor {
            // No value changed; skip the cache invalidation
            // (the dispatcher clears compensation on every pick, which is
            // almost always already 1.0).
            return Ok(());
        }
        client.set_compensation(factor);
        let active = client.is_active();
        if factor > 1.0 {
            // Snapshot the implicit compensation ticket's base-unit worth
            // against the client's home shard, by a walk that leaves the
            // incremental cache (and its probe traffic) untouched; an
            // inactive client snapshots zero and is corrected on its next
            // valuation after activation.
            let funded = if active {
                Valuator::new(self).client_funded_value(id)?
            } else {
                0.0
            };
            let cache = self.cache.get_mut();
            let shard = cache.dirty.shard_of(id);
            cache.comp.record(id, factor, funded, shard, !active);
        } else {
            self.cache.get_mut().comp.clear(id);
        }
        let removed = mark_client(self.cache.get_mut(), id);
        if removed {
            let dirty_depth = self.cache.get_mut().dirty.len() as u32;
            self.bus.emit(|| EventKind::CacheInvalidate {
                currencies: 0,
                clients: 1,
                dirty_depth,
            });
        }
        self.bus.emit(|| EventKind::LedgerOp {
            op: "set-compensation",
        });
        Ok(())
    }

    /// The compensation factor currently recorded for `client` (1.0 when
    /// uncompensated or unknown).
    pub fn compensation_factor(&self, client: ClientId) -> f64 {
        self.cache.borrow().comp.factor_of(client)
    }

    /// Compensated weight homed on one shard: the summed base-unit worth
    /// of the implicit compensation tickets its clients hold.
    pub fn compensation_shard_weight(&self, shard: u32) -> f64 {
        self.cache.borrow().comp.shard_extra(shard)
    }

    /// Resting compensated weight homed on one shard: `factor × funded`
    /// summed over compensated clients that are currently inactive. This
    /// is the weight the shard's partial-sum tree regains when they wake,
    /// and what a rebalancer must add to raw tree totals to compare
    /// *effective* shard weights.
    pub fn compensation_resting_weight(&self, shard: u32) -> f64 {
        self.cache.borrow().comp.shard_resting(shard)
    }

    /// Global compensated weight across all shards, recomputed exactly
    /// from the per-client entries (the conservation invariant: per-shard
    /// weights must sum to this).
    pub fn compensation_total_weight(&self) -> f64 {
        self.cache.borrow().comp.total_extra()
    }

    /// Number of clients currently holding a compensation factor > 1,
    /// counted over the book's slots (for tests and instrumentation).
    pub fn compensated_clients(&self) -> usize {
        self.cache.borrow().comp.entries.len()
    }

    /// Compensation grants recorded since the ledger was created.
    pub fn compensations_granted(&self) -> u64 {
        self.cache.borrow().comp.granted
    }

    /// Compensation revocations (factor cleared back to 1) recorded since
    /// the ledger was created.
    pub fn compensations_revoked(&self) -> u64 {
        self.cache.borrow().comp.revoked
    }

    // ------------------------------------------------------------------
    // Incremental valuation (cache-backed).
    // ------------------------------------------------------------------

    /// Invalidates everything a ticket's value change can reach: the
    /// denomination's downstream subgraph (its active amount shifted) and
    /// the ticket's own funding target.
    ///
    /// The target must be marked explicitly — not only via the
    /// denomination — because the early-stopping invariant of
    /// [`mark_currency`] only covers dependents that *read* the
    /// denomination's value. A target valued while this ticket was
    /// inactive (or a client funded by a base-denominated ticket) never
    /// read it, yet its value changes with the ticket's.
    fn mark_ticket_change(&mut self, denom: CurrencyId, target: FundingTarget) {
        let cache = self.cache.get_mut();
        let (mut currencies, mut clients) =
            mark_currency(&self.tickets, &self.currencies, cache, denom);
        match target {
            FundingTarget::Currency(c) => {
                let (more_cur, more_cli) = mark_currency(&self.tickets, &self.currencies, cache, c);
                currencies += more_cur;
                clients += more_cli;
            }
            FundingTarget::Client(c) => clients += u32::from(mark_client(cache, c)),
            FundingTarget::Unfunded => {}
        }
        if currencies > 0 || clients > 0 {
            let dirty_depth = cache.dirty.len() as u32;
            self.bus.emit(|| EventKind::CacheInvalidate {
                currencies,
                clients,
                dirty_depth,
            });
        }
    }

    /// The value of `client` in base units (including compensation),
    /// revalidating only cache entries invalidated since the last read.
    ///
    /// Semantically identical to a fresh [`Valuator::client_value`], but
    /// amortized: a warm read is a hash lookup, and after a mutation only
    /// the invalidated subgraph is walked again — so per-read cost is
    /// independent of the currency graph's depth once warm.
    pub fn cached_client_value(&self, client: ClientId) -> Result<f64> {
        let mut cache = self.cache.borrow_mut();
        self.compute_client_value(&mut cache, client)
    }

    /// The value of `currency` in base units, served from the incremental
    /// cache (see [`Ledger::cached_client_value`]).
    pub fn cached_currency_value(&self, currency: CurrencyId) -> Result<f64> {
        let mut cache = self.cache.borrow_mut();
        self.currency_value_in(&mut *cache, currency)
    }

    /// Drains the queue of clients whose cached value was invalidated
    /// since the previous drain.
    ///
    /// Schedulers that mirror client values into an external structure
    /// (e.g. a partial-sum tree) call this before each draw and refresh
    /// exactly the returned clients. Order is unspecified; destroyed
    /// clients never appear.
    pub fn drain_dirty_clients(&mut self) -> Vec<ClientId> {
        let mut drained = Vec::new();
        self.drain_dirty_clients_into(&mut drained);
        drained
    }

    /// [`Ledger::drain_dirty_clients`] into a caller-owned buffer
    /// (cleared first) — the draw-path variant: a scheduler holding its
    /// scratch `Vec` pays no allocation per dispatch.
    pub fn drain_dirty_clients_into(&mut self, out: &mut Vec<ClientId>) {
        self.cache.get_mut().dirty.drain_all_into(out);
        if !out.is_empty() {
            let count = out.len() as u32;
            self.bus.emit(|| EventKind::DirtyDrain { drained: count });
        }
    }

    // ------------------------------------------------------------------
    // Sharded dirty notifications (distributed schedulers).
    // ------------------------------------------------------------------

    /// Partitions future dirty-client notifications across `shards`
    /// queues (clamped to at least one). Pending notifications are
    /// re-routed through the current home assignments, so nothing is
    /// lost by resizing mid-run. One shard — the default — behaves
    /// exactly like the unsharded queue.
    pub fn set_dirty_shards(&mut self, shards: usize) {
        let cache = self.cache.get_mut();
        cache.dirty.set_shards(shards);
        cache.comp.set_shards(cache.dirty.shards());
    }

    /// Number of dirty-notification shards.
    pub fn dirty_shards(&self) -> usize {
        self.cache.borrow().dirty.shards()
    }

    /// Assigns a client's home shard; any pending notification migrates
    /// with it. Out-of-range shards clamp to the last shard.
    pub fn assign_dirty_shard(&mut self, client: ClientId, shard: u32) {
        let cache = self.cache.get_mut();
        cache.dirty.assign(client, shard);
        // Compensated weight travels with the client's home: re-home its
        // entry to the (clamped) shard the dirty queue settled on.
        let clamped = cache.dirty.shard_of(client);
        cache.comp.rehome(client, clamped);
    }

    /// The shard a client's notifications currently route to.
    pub fn dirty_shard_of(&self, client: ClientId) -> u32 {
        self.cache.borrow().dirty.shard_of(client)
    }

    /// Pending notifications on one shard.
    pub fn dirty_shard_depth(&self, shard: u32) -> usize {
        self.cache.borrow().dirty.depth(shard)
    }

    /// Times an already-assigned client was moved to a different shard
    /// (the migration count a rebalancer accumulates).
    pub fn dirty_shard_reassignments(&self) -> u64 {
        self.cache.borrow().dirty.reassignments()
    }

    /// Drains the invalidation notifications owned by one shard into a
    /// caller-owned buffer (cleared first), leaving every other shard's
    /// queue untouched; allocation-free on the per-CPU draw path.
    pub fn drain_dirty_shard_into(&mut self, shard: u32, out: &mut Vec<ClientId>) {
        self.cache.get_mut().dirty.drain_shard_into(shard, out);
        if !out.is_empty() {
            let count = out.len() as u32;
            self.bus.emit(|| EventKind::DirtyDrain { drained: count });
        }
    }

    /// Number of currently valid cached currency entries, counted over the
    /// table's slots (for tests and instrumentation).
    pub fn cached_currency_entries(&self) -> usize {
        self.cache.borrow().currencies.len()
    }

    /// Number of currently valid cached client entries (for tests and
    /// instrumentation).
    pub fn cached_client_entries(&self) -> usize {
        self.cache.borrow().clients.len()
    }

    /// The valuation walk of Section 4.4, for a currency: the base
    /// currency is worth its active amount, any other currency the sum of
    /// its active backing tickets' values. Every value it computes goes
    /// into `memo`, so a diamond graph is walked once.
    fn currency_value_in(&self, memo: &mut impl Memo, currency: CurrencyId) -> Result<f64> {
        if let Some(v) = memo.get(currency, &self.bus) {
            return Ok(v);
        }
        let v = if currency == self.base {
            self.currency(currency)?.active_amount() as f64
        } else {
            let mut sum = 0.0;
            for &t in self.currency(currency)?.backing() {
                sum += self.ticket_value_in(memo, t)?;
            }
            sum
        };
        memo.insert(currency, v);
        Ok(v)
    }

    /// The walk, for a ticket: its denomination's value times its share of
    /// the denomination's active amount; a base ticket is worth its face
    /// amount, an inactive one nothing.
    fn ticket_value_in(&self, memo: &mut impl Memo, ticket: TicketId) -> Result<f64> {
        let t = self.ticket(ticket)?;
        if !t.is_active() {
            return Ok(0.0);
        }
        let denom = t.currency();
        let amount = t.amount() as f64;
        if denom == self.base {
            return Ok(amount);
        }
        let active = self.currency(denom)?.active_amount();
        if active == 0 {
            return Ok(0.0);
        }
        let cv = self.currency_value_in(memo, denom)?;
        Ok(cv * amount / active as f64)
    }

    /// The walk, for a client: the sum of its funding tickets' values,
    /// compensation excluded.
    fn funded_value_in(&self, memo: &mut impl Memo, client: &Client) -> Result<f64> {
        let mut sum = 0.0;
        for &t in client.funding() {
            sum += self.ticket_value_in(memo, t)?;
        }
        Ok(sum)
    }

    fn compute_client_value(&self, cache: &mut ValuationCache, client: ClientId) -> Result<f64> {
        if let Some(&v) = cache.clients.get(&client) {
            self.bus.count(Counter::ClientHit);
            return Ok(v);
        }
        self.bus.count(Counter::ClientMiss);
        let c = self.client(client)?;
        let comp = c.compensation();
        let sum = self.funded_value_in(cache, c)?;
        if comp > 1.0 && c.is_active() {
            // Keep the compensation ledger's funded-value snapshot in step
            // with the freshest valuation (corrects grants that happened
            // while the client was inactive and funded nothing).
            cache.comp.refresh_funded(client, sum);
        }
        let v = sum * comp;
        cache.clients.insert(client, v);
        Ok(v)
    }
}

/// Where the valuation walk keeps the currency values it computes.
///
/// The ledger has one walk and two memos for it. The incremental cache
/// ([`ValuationCache`]) counts every lookup on the probe bus and keeps what
/// it computes until a mutation invalidates it. A [`ScratchWalk`] reads
/// nothing from the cache, counts nothing, and trusts only the entries its
/// own walk wrote.
trait Memo {
    fn get(&mut self, currency: CurrencyId, bus: &ProbeBus) -> Option<f64>;
    fn insert(&mut self, currency: CurrencyId, value: f64);
}

impl Memo for ValuationCache {
    fn get(&mut self, currency: CurrencyId, bus: &ProbeBus) -> Option<f64> {
        let hit = self.currencies.get(currency).copied();
        bus.count(match hit {
            Some(_) => Counter::CurrencyHit,
            None => Counter::CurrencyMiss,
        });
        hit
    }

    fn insert(&mut self, currency: CurrencyId, value: f64) {
        self.currencies.insert(currency, value);
    }
}

/// One walk's view of the scratch memo: an entry another walk wrote reads
/// as absent.
struct ScratchWalk<'s> {
    memo: &'s mut Vec<(u64, f64)>,
    walk: u64,
}

impl Memo for ScratchWalk<'_> {
    fn get(&mut self, currency: CurrencyId, _: &ProbeBus) -> Option<f64> {
        match self.memo.get(currency.index() as usize) {
            Some(&(walk, v)) if walk == self.walk => Some(v),
            _ => None,
        }
    }

    fn insert(&mut self, currency: CurrencyId, value: f64) {
        self.memo[currency.index() as usize] = (self.walk, value);
    }
}

/// Values currencies, tickets and clients in base units from the ledger as
/// it stands, without reading or filling the incremental cache.
///
/// A valuator runs the ledger's own walk (Section 4.4):
///
/// * a currency's value is the sum of its *active* backing tickets' values;
/// * a ticket's value is its denomination's value times the ticket's share
///   of the denomination's active amount;
/// * a ticket denominated in the base currency is worth its face amount;
/// * a client's value is the sum of its active funding tickets' values,
///   times its compensation factor.
///
/// Its memo is the ledger's scratch memo under a walk tag of its own, so
/// valuing every runnable client costs one graph walk, and nothing is
/// allocated unless the ledger gained currency slots since the memo was
/// last sized. The borrow of the
/// ledger keeps it from being mutated while the valuator lives, so the
/// values never go stale; a newer valuator over the same ledger takes the
/// memo over, and an older one then recomputes what it asks for.
pub struct Valuator<'a> {
    ledger: &'a Ledger,
    walk: u64,
}

impl<'a> Valuator<'a> {
    /// Creates a valuator over the ledger's current state.
    pub fn new(ledger: &'a Ledger) -> Self {
        let mut cache = ledger.cache.borrow_mut();
        // One slot per currency slot, sized once: the ledger cannot gain a
        // currency while the valuator borrows it.
        let slots = ledger.currencies.slots();
        if cache.scratch.len() < slots {
            cache.scratch.resize(slots, (0, 0.0));
        }
        cache.scratch_walks += 1;
        Self {
            ledger,
            walk: cache.scratch_walks,
        }
    }

    /// Runs `walk` against this valuator's view of the scratch memo.
    fn with_memo<T>(&self, f: impl FnOnce(&Ledger, &mut ScratchWalk<'_>) -> T) -> T {
        let mut cache = self.ledger.cache.borrow_mut();
        let mut memo = ScratchWalk {
            memo: &mut cache.scratch,
            walk: self.walk,
        };
        f(self.ledger, &mut memo)
    }

    /// The value of `currency` in base units.
    pub fn currency_value(&mut self, currency: CurrencyId) -> Result<f64> {
        self.with_memo(|ledger, memo| ledger.currency_value_in(memo, currency))
    }

    /// The value of `ticket` in base units.
    ///
    /// An inactive ticket (or one denominated in a currency with zero
    /// active amount) is worth zero.
    pub fn ticket_value(&mut self, ticket: TicketId) -> Result<f64> {
        self.with_memo(|ledger, memo| ledger.ticket_value_in(memo, ticket))
    }

    /// The value of `client` in base units, including compensation.
    pub fn client_value(&mut self, client: ClientId) -> Result<f64> {
        self.with_memo(|ledger, memo| {
            let c = ledger.client(client)?;
            Ok(ledger.funded_value_in(memo, c)? * c.compensation())
        })
    }

    /// The value of `client` in base units, excluding compensation.
    pub fn client_funded_value(&mut self, client: ClientId) -> Result<f64> {
        self.with_memo(|ledger, memo| ledger.funded_value_in(memo, ledger.client(client)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real-thread backend moves a ledger into a mutex shared across
    /// OS workers; that requires `Send` (the valuation cache's `RefCell`
    /// keeps it `!Sync`, which the mutex provides). A regression here is
    /// a compile error, not a runtime failure.
    #[test]
    fn ledger_and_dirty_queue_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Ledger>();
        assert_send::<ShardedDirtyQueue>();
    }

    /// Builds the Figure 3 currency graph and checks the published values:
    /// thread2 = 400, thread3 = 600, thread4 = 2000 base units.
    #[test]
    fn figure3_currency_graph() {
        let mut l = Ledger::new();
        let base = l.base();

        let alice = l.create_currency("alice").unwrap();
        let bob = l.create_currency("bob").unwrap();
        let t_alice = l.issue_root(base, 1000).unwrap();
        let t_bob = l.issue_root(base, 2000).unwrap();
        l.fund_currency(t_alice, alice).unwrap();
        l.fund_currency(t_bob, bob).unwrap();

        let task1 = l.create_currency("task1").unwrap();
        let task2 = l.create_currency("task2").unwrap();
        let task3 = l.create_currency("task3").unwrap();
        let t_task1 = l.issue_root(alice, 100).unwrap();
        let t_task2 = l.issue_root(alice, 200).unwrap();
        let t_task3 = l.issue_root(bob, 100).unwrap();
        l.fund_currency(t_task1, task1).unwrap();
        l.fund_currency(t_task2, task2).unwrap();
        l.fund_currency(t_task3, task3).unwrap();

        let thread1 = l.create_client("thread1");
        let thread2 = l.create_client("thread2");
        let thread3 = l.create_client("thread3");
        let thread4 = l.create_client("thread4");
        let f1 = l.issue_root(task1, 100).unwrap();
        let f2 = l.issue_root(task2, 200).unwrap();
        let f3 = l.issue_root(task2, 300).unwrap();
        let f4 = l.issue_root(task3, 100).unwrap();
        l.fund_client(f1, thread1).unwrap();
        l.fund_client(f2, thread2).unwrap();
        l.fund_client(f3, thread3).unwrap();
        l.fund_client(f4, thread4).unwrap();

        // task1 is inactive: thread1 never becomes runnable.
        l.activate_client(thread2).unwrap();
        l.activate_client(thread3).unwrap();
        l.activate_client(thread4).unwrap();

        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(thread1).unwrap(), 0.0);
        assert_eq!(v.client_value(thread2).unwrap(), 400.0);
        assert_eq!(v.client_value(thread3).unwrap(), 600.0);
        assert_eq!(v.client_value(thread4).unwrap(), 2000.0);

        // Figure 3's annotations: alice's active amount is 200 (task1's
        // 100 inactive), task2's is 500, and the runnable total is 3000.
        assert_eq!(l.currency(alice).unwrap().active_amount(), 200);
        assert_eq!(l.currency(task2).unwrap().active_amount(), 500);
        assert_eq!(v.currency_value(alice).unwrap(), 1000.0);
        assert_eq!(v.currency_value(bob).unwrap(), 2000.0);
        let total: f64 = [thread2, thread3, thread4]
            .iter()
            .map(|&c| v.client_value(c).unwrap())
            .sum();
        assert_eq!(total, 3000.0);
    }

    #[test]
    fn base_ticket_value_is_face_amount() {
        let mut l = Ledger::new();
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 123).unwrap();
        l.fund_client(t, c).unwrap();
        l.activate_client(c).unwrap();
        let mut v = Valuator::new(&l);
        assert_eq!(v.ticket_value(t).unwrap(), 123.0);
        assert_eq!(v.client_value(c).unwrap(), 123.0);
    }

    #[test]
    fn inactive_client_is_worth_zero() {
        let mut l = Ledger::new();
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 50).unwrap();
        l.fund_client(t, c).unwrap();
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(c).unwrap(), 0.0);
    }

    #[test]
    fn deactivation_redistributes_value() {
        // Two clients in one currency: deactivating one doubles the other's
        // share of the currency's value (relative tickets, Section 2.1).
        let mut l = Ledger::new();
        let cur = l.create_currency("shared").unwrap();
        let back = l.issue_root(l.base(), 1000).unwrap();
        l.fund_currency(back, cur).unwrap();
        let a = l.create_client("a");
        let b = l.create_client("b");
        let ta = l.issue_root(cur, 100).unwrap();
        let tb = l.issue_root(cur, 100).unwrap();
        l.fund_client(ta, a).unwrap();
        l.fund_client(tb, b).unwrap();
        l.activate_client(a).unwrap();
        l.activate_client(b).unwrap();
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(a).unwrap(), 500.0);

        l.deactivate_client(b).unwrap();
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(a).unwrap(), 1000.0);
        assert_eq!(v.client_value(b).unwrap(), 0.0);
    }

    #[test]
    fn zero_crossing_propagates_to_base() {
        let mut l = Ledger::new();
        let cur = l.create_currency("c").unwrap();
        let back = l.issue_root(l.base(), 10).unwrap();
        l.fund_currency(back, cur).unwrap();
        let a = l.create_client("a");
        let ta = l.issue_root(cur, 1).unwrap();
        l.fund_client(ta, a).unwrap();

        assert!(!l.ticket(back).unwrap().is_active());
        l.activate_client(a).unwrap();
        assert!(l.ticket(back).unwrap().is_active());
        assert_eq!(l.currency(l.base()).unwrap().active_amount(), 10);

        l.deactivate_client(a).unwrap();
        assert!(!l.ticket(back).unwrap().is_active());
        assert_eq!(l.currency(l.base()).unwrap().active_amount(), 0);
    }

    #[test]
    fn cycle_rejected() {
        let mut l = Ledger::new();
        let a = l.create_currency("a").unwrap();
        let b = l.create_currency("b").unwrap();
        // a backed by ticket in b.
        let t1 = l.issue_root(b, 10).unwrap();
        l.fund_currency(t1, a).unwrap();
        // b backed by ticket in a: cycle.
        let t2 = l.issue_root(a, 10).unwrap();
        assert_eq!(l.fund_currency(t2, b), Err(LotteryError::CurrencyCycle));
    }

    #[test]
    fn self_cycle_rejected() {
        let mut l = Ledger::new();
        let a = l.create_currency("a").unwrap();
        let t = l.issue_root(a, 10).unwrap();
        assert_eq!(l.fund_currency(t, a), Err(LotteryError::CurrencyCycle));
    }

    #[test]
    fn diamond_graph_is_legal() {
        // Acyclic but not a tree: d backed by tickets in b and c, both
        // backed by base. The paper allows arbitrary acyclic graphs.
        let mut l = Ledger::new();
        let b = l.create_currency("b").unwrap();
        let c = l.create_currency("c").unwrap();
        let d = l.create_currency("d").unwrap();
        let tb = l.issue_root(l.base(), 100).unwrap();
        let tc = l.issue_root(l.base(), 300).unwrap();
        l.fund_currency(tb, b).unwrap();
        l.fund_currency(tc, c).unwrap();
        let db = l.issue_root(b, 1).unwrap();
        let dc = l.issue_root(c, 1).unwrap();
        l.fund_currency(db, d).unwrap();
        l.fund_currency(dc, d).unwrap();
        let cl = l.create_client("cl");
        let t = l.issue_root(d, 7).unwrap();
        l.fund_client(t, cl).unwrap();
        l.activate_client(cl).unwrap();
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(cl).unwrap(), 400.0);
    }

    #[test]
    fn base_cannot_be_funded_or_destroyed() {
        let mut l = Ledger::new();
        let c = l.create_currency("c").unwrap();
        let t = l.issue_root(c, 5).unwrap();
        assert_eq!(
            l.fund_currency(t, l.base()),
            Err(LotteryError::BaseCurrencyImmutable)
        );
        assert_eq!(
            l.destroy_currency(l.base()),
            Err(LotteryError::BaseCurrencyImmutable)
        );
    }

    #[test]
    fn permissions_enforced() {
        let mut l = Ledger::new();
        let c = l
            .create_currency_with_policy("locked", IssuePolicy::Restricted(vec![Principal(3)]))
            .unwrap();
        assert_eq!(
            l.issue(c, 5, Principal(4)),
            Err(LotteryError::PermissionDenied)
        );
        assert!(l.issue(c, 5, Principal(3)).is_ok());
        assert!(l.issue(c, 5, Principal::ROOT).is_ok());
    }

    #[test]
    fn zero_amount_rejected() {
        let mut l = Ledger::new();
        assert_eq!(l.issue_root(l.base(), 0), Err(LotteryError::ZeroAmount));
    }

    #[test]
    fn destroy_in_use_rejected() {
        let mut l = Ledger::new();
        let c = l.create_currency("c").unwrap();
        let t = l.issue_root(c, 5).unwrap();
        assert_eq!(l.destroy_currency(c), Err(LotteryError::CurrencyInUse));
        l.destroy_ticket(t).unwrap();
        assert!(l.destroy_currency(c).is_ok());
    }

    #[test]
    fn destroy_client_with_funding_rejected_then_allowed() {
        let mut l = Ledger::new();
        let cl = l.create_client("cl");
        let t = l.issue_root(l.base(), 5).unwrap();
        l.fund_client(t, cl).unwrap();
        assert_eq!(l.destroy_client(cl), Err(LotteryError::ClientInUse));
        l.destroy_client_and_funding(cl).unwrap();
        assert!(l.client(cl).is_err());
        assert!(l.ticket(t).is_err());
    }

    #[test]
    fn destroy_active_ticket_maintains_sums() {
        let mut l = Ledger::new();
        let cl = l.create_client("cl");
        let t = l.issue_root(l.base(), 5).unwrap();
        l.fund_client(t, cl).unwrap();
        l.activate_client(cl).unwrap();
        assert_eq!(l.currency(l.base()).unwrap().active_amount(), 5);
        l.destroy_ticket(t).unwrap();
        assert_eq!(l.currency(l.base()).unwrap().active_amount(), 0);
        assert_eq!(l.currency(l.base()).unwrap().total_amount(), 0);
        assert!(l.client(cl).unwrap().funding().is_empty());
    }

    #[test]
    fn set_amount_adjusts_currency_sums() {
        let mut l = Ledger::new();
        let cl = l.create_client("cl");
        let t = l.issue_root(l.base(), 100).unwrap();
        l.fund_client(t, cl).unwrap();
        l.activate_client(cl).unwrap();
        l.set_amount(t, 400).unwrap();
        assert_eq!(l.currency(l.base()).unwrap().active_amount(), 400);
        assert_eq!(l.currency(l.base()).unwrap().total_amount(), 400);
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(cl).unwrap(), 400.0);
    }

    #[test]
    fn refund_moves_ticket_between_clients() {
        let mut l = Ledger::new();
        let a = l.create_client("a");
        let b = l.create_client("b");
        let t = l.issue_root(l.base(), 10).unwrap();
        l.fund_client(t, a).unwrap();
        l.activate_client(a).unwrap();
        l.activate_client(b).unwrap();
        l.fund_client(t, b).unwrap();
        assert!(l.client(a).unwrap().funding().is_empty());
        assert_eq!(l.client(b).unwrap().funding(), &[t]);
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(a).unwrap(), 0.0);
        assert_eq!(v.client_value(b).unwrap(), 10.0);
    }

    #[test]
    fn compensation_scales_client_value() {
        let mut l = Ledger::new();
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 400).unwrap();
        l.fund_client(t, c).unwrap();
        l.activate_client(c).unwrap();
        l.set_compensation(c, 5.0).unwrap();
        let mut v = Valuator::new(&l);
        // Section 4.5's example: a 400-unit thread using 1/5 of its quantum
        // competes as if holding 2000 base units.
        assert_eq!(v.client_value(c).unwrap(), 2000.0);
        assert_eq!(v.client_funded_value(c).unwrap(), 400.0);
    }

    #[test]
    fn compensation_below_one_rejected() {
        let mut l = Ledger::new();
        let c = l.create_client("c");
        assert!(l.set_compensation(c, 0.5).is_err());
        assert!(l.set_compensation(c, f64::NAN).is_err());
        assert!(l.set_compensation(c, f64::INFINITY).is_err());
    }

    #[test]
    fn stale_handles_reported() {
        let mut l = Ledger::new();
        let c = l.create_currency("c").unwrap();
        l.destroy_currency(c).unwrap();
        assert!(matches!(
            l.currency(c),
            Err(LotteryError::StaleHandle { .. })
        ));
    }

    #[test]
    fn issue_overflow_rejected() {
        let mut l = Ledger::new();
        let c = l.create_currency("c").unwrap();
        let _ = l.issue_root(c, u64::MAX).unwrap();
        assert_eq!(l.issue_root(c, 1), Err(LotteryError::AmountOverflow));
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    /// Builds Figure 3's graph (as in `figure3_currency_graph`) and returns
    /// (ledger, alice, task2, thread2, thread3, thread4, t_alice).
    fn figure3() -> (
        Ledger,
        CurrencyId,
        CurrencyId,
        ClientId,
        ClientId,
        ClientId,
        TicketId,
    ) {
        let mut l = Ledger::new();
        let base = l.base();
        let alice = l.create_currency("alice").unwrap();
        let bob = l.create_currency("bob").unwrap();
        let t_alice = l.issue_root(base, 1000).unwrap();
        let t_bob = l.issue_root(base, 2000).unwrap();
        l.fund_currency(t_alice, alice).unwrap();
        l.fund_currency(t_bob, bob).unwrap();
        let task2 = l.create_currency("task2").unwrap();
        let task3 = l.create_currency("task3").unwrap();
        let t_task2 = l.issue_root(alice, 200).unwrap();
        let t_task3 = l.issue_root(bob, 100).unwrap();
        l.fund_currency(t_task2, task2).unwrap();
        l.fund_currency(t_task3, task3).unwrap();
        let thread2 = l.create_client("thread2");
        let thread3 = l.create_client("thread3");
        let thread4 = l.create_client("thread4");
        let f2 = l.issue_root(task2, 200).unwrap();
        let f3 = l.issue_root(task2, 300).unwrap();
        let f4 = l.issue_root(task3, 100).unwrap();
        l.fund_client(f2, thread2).unwrap();
        l.fund_client(f3, thread3).unwrap();
        l.fund_client(f4, thread4).unwrap();
        l.activate_client(thread2).unwrap();
        l.activate_client(thread3).unwrap();
        l.activate_client(thread4).unwrap();
        (l, alice, task2, thread2, thread3, thread4, t_alice)
    }

    /// Fresh-Valuator oracle for a client's value.
    fn oracle(l: &Ledger, c: ClientId) -> f64 {
        let mut v = Valuator::new(l);
        v.client_value(c).unwrap()
    }

    #[test]
    fn cached_values_match_valuator() {
        let (l, alice, _, t2, t3, t4, _) = figure3();
        assert_eq!(l.cached_client_value(t2).unwrap(), 400.0);
        assert_eq!(l.cached_client_value(t3).unwrap(), 600.0);
        assert_eq!(l.cached_client_value(t4).unwrap(), 2000.0);
        assert_eq!(l.cached_currency_value(alice).unwrap(), 1000.0);
        // Warm re-reads agree bitwise with a fresh walk.
        for c in [t2, t3, t4] {
            assert_eq!(l.cached_client_value(c).unwrap(), oracle(&l, c));
        }
    }

    #[test]
    fn inflation_invalidates_only_affected_subgraph() {
        let (mut l, _, _, t2, t3, t4, t_alice) = figure3();
        for c in [t2, t3, t4] {
            let _ = l.cached_client_value(c).unwrap();
        }
        let _ = l.drain_dirty_clients();
        // Inflate the backing of alice: thread2/thread3 change; thread4
        // (under bob) must not be disturbed.
        l.set_amount(t_alice, 2000).unwrap();
        let mut dirty = l.drain_dirty_clients();
        dirty.sort();
        let mut expected = vec![t2, t3];
        expected.sort();
        assert_eq!(dirty, expected);
        assert_eq!(l.cached_client_value(t2).unwrap(), 800.0);
        assert_eq!(l.cached_client_value(t3).unwrap(), 1200.0);
        assert_eq!(l.cached_client_value(t4).unwrap(), 2000.0);
    }

    #[test]
    fn activation_cascade_invalidates_shared_siblings() {
        let (mut l, _, _, t2, t3, t4, _) = figure3();
        for c in [t2, t3, t4] {
            let _ = l.cached_client_value(c).unwrap();
        }
        let _ = l.drain_dirty_clients();
        // Blocking thread2 frees its 200-ticket share of task2 for
        // thread3; bob's side is untouched.
        l.deactivate_client(t2).unwrap();
        let dirty = l.drain_dirty_clients();
        assert!(dirty.contains(&t2));
        assert!(dirty.contains(&t3));
        assert!(!dirty.contains(&t4));
        assert_eq!(l.cached_client_value(t2).unwrap(), 0.0);
        assert_eq!(l.cached_client_value(t3).unwrap(), 1000.0);
        assert_eq!(l.cached_client_value(t3).unwrap(), oracle(&l, t3));
    }

    #[test]
    fn compensation_invalidates_client_only() {
        let (mut l, _, _, t2, t3, _, _) = figure3();
        let _ = l.cached_client_value(t2).unwrap();
        let _ = l.cached_client_value(t3).unwrap();
        let _ = l.drain_dirty_clients();
        l.set_compensation(t2, 5.0).unwrap();
        assert_eq!(l.drain_dirty_clients(), vec![t2]);
        assert_eq!(l.cached_client_value(t2).unwrap(), 2000.0);
        // Clearing an already-clear factor is invisible to the cache.
        l.set_compensation(t3, 1.0).unwrap();
        assert!(l.drain_dirty_clients().is_empty());
    }

    #[test]
    fn base_funded_client_sees_amount_changes() {
        // A base-denominated funding ticket never reads the base
        // currency's cached value, so the target itself must be marked.
        let mut l = Ledger::new();
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 100).unwrap();
        l.fund_client(t, c).unwrap();
        l.activate_client(c).unwrap();
        assert_eq!(l.cached_client_value(c).unwrap(), 100.0);
        l.set_amount(t, 250).unwrap();
        assert_eq!(l.cached_client_value(c).unwrap(), 250.0);
    }

    #[test]
    fn activation_reaches_target_valued_while_ticket_was_inactive() {
        // Value a currency while its backing ticket is inactive, then
        // activate: the cached value must be invalidated even though the
        // (uncached) denomination short-circuits the walk.
        let mut l = Ledger::new();
        let cur = l.create_currency("cur").unwrap();
        let back = l.issue_root(l.base(), 500).unwrap();
        l.fund_currency(back, cur).unwrap();
        let c = l.create_client("c");
        let t = l.issue_root(cur, 10).unwrap();
        l.fund_client(t, c).unwrap();
        assert_eq!(l.cached_client_value(c).unwrap(), 0.0);
        assert_eq!(l.cached_currency_value(cur).unwrap(), 0.0);
        l.activate_client(c).unwrap();
        assert_eq!(l.cached_client_value(c).unwrap(), 500.0);
        assert_eq!(l.cached_currency_value(cur).unwrap(), 500.0);
    }

    #[test]
    fn destroyed_client_never_surfaces_dirty() {
        let mut l = Ledger::new();
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 10).unwrap();
        l.fund_client(t, c).unwrap();
        l.activate_client(c).unwrap();
        let _ = l.cached_client_value(c).unwrap();
        let _ = l.drain_dirty_clients();
        l.destroy_client_and_funding(c).unwrap();
        assert!(!l.drain_dirty_clients().contains(&c));
    }

    #[test]
    fn funding_moves_invalidate_both_clients() {
        let mut l = Ledger::new();
        let a = l.create_client("a");
        let b = l.create_client("b");
        let t = l.issue_root(l.base(), 10).unwrap();
        l.fund_client(t, a).unwrap();
        l.activate_client(a).unwrap();
        l.activate_client(b).unwrap();
        assert_eq!(l.cached_client_value(a).unwrap(), 10.0);
        assert_eq!(l.cached_client_value(b).unwrap(), 0.0);
        l.fund_client(t, b).unwrap();
        assert_eq!(l.cached_client_value(a).unwrap(), 0.0);
        assert_eq!(l.cached_client_value(b).unwrap(), 10.0);
    }

    #[test]
    fn sharded_dirty_routes_to_home_shard() {
        let (mut l, _, _, t2, t3, t4, t_alice) = figure3();
        l.set_dirty_shards(2);
        l.assign_dirty_shard(t2, 0);
        l.assign_dirty_shard(t3, 0);
        l.assign_dirty_shard(t4, 1);
        for c in [t2, t3, t4] {
            let _ = l.cached_client_value(c).unwrap();
        }
        let _ = l.drain_dirty_clients();
        // Inflating alice's backing dirties thread2/thread3 only; both
        // live on shard 0, so shard 1 stays quiet.
        l.set_amount(t_alice, 2000).unwrap();
        assert_eq!(l.dirty_shard_depth(0), 2);
        assert_eq!(l.dirty_shard_depth(1), 0);
        let mut drained = Vec::new();
        l.drain_dirty_shard_into(0, &mut drained);
        let mut expected = vec![t2, t3];
        expected.sort();
        assert_eq!(drained, expected);
        l.drain_dirty_shard_into(1, &mut drained);
        assert!(drained.is_empty());
    }

    #[test]
    fn shard_assignment_migrates_pending_notification() {
        let mut l = Ledger::new();
        l.set_dirty_shards(4);
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 10).unwrap();
        l.fund_client(t, c).unwrap();
        l.assign_dirty_shard(c, 1);
        l.activate_client(c).unwrap();
        let _ = l.cached_client_value(c).unwrap();
        l.set_amount(t, 20).unwrap();
        assert_eq!(l.dirty_shard_depth(1), 1);
        // Migration carries the pending notification to the new owner.
        l.assign_dirty_shard(c, 3);
        assert_eq!(l.dirty_shard_of(c), 3);
        assert_eq!(l.dirty_shard_depth(1), 0);
        let mut drained = Vec::new();
        l.drain_dirty_shard_into(3, &mut drained);
        assert_eq!(drained, [c]);
        assert_eq!(l.dirty_shard_reassignments(), 1);
        // Re-assigning to the same shard is not a reassignment.
        l.assign_dirty_shard(c, 3);
        assert_eq!(l.dirty_shard_reassignments(), 1);
    }

    #[test]
    fn destroyed_client_purged_from_shards() {
        let mut l = Ledger::new();
        l.set_dirty_shards(2);
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 10).unwrap();
        l.fund_client(t, c).unwrap();
        l.assign_dirty_shard(c, 1);
        l.activate_client(c).unwrap();
        let _ = l.cached_client_value(c).unwrap();
        l.set_amount(t, 30).unwrap();
        assert_eq!(l.dirty_shard_depth(1), 1);
        l.destroy_client_and_funding(c).unwrap();
        assert_eq!(l.dirty_shard_depth(1), 0);
        let mut drained = vec![c];
        l.drain_dirty_shard_into(1, &mut drained);
        assert!(drained.is_empty());
    }

    #[test]
    fn resizing_shards_preserves_pending() {
        let mut l = Ledger::new();
        l.set_dirty_shards(4);
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), 10).unwrap();
        l.fund_client(t, c).unwrap();
        l.assign_dirty_shard(c, 3);
        l.activate_client(c).unwrap();
        let _ = l.cached_client_value(c).unwrap();
        l.set_amount(t, 40).unwrap();
        // Shrinking clamps the owner into range without losing the
        // notification; the unsharded drain still sees everything.
        l.set_dirty_shards(2);
        assert_eq!(l.dirty_shard_of(c), 1);
        assert_eq!(l.drain_dirty_clients(), vec![c]);
    }

    #[test]
    fn warm_reads_do_not_rewalk_the_graph() {
        let (l, _, _, t2, _, _, _) = figure3();
        let _ = l.cached_client_value(t2).unwrap();
        let entries = l.cached_currency_entries();
        assert!(entries >= 2, "alice and task2 memoized");
        let _ = l.cached_client_value(t2).unwrap();
        assert_eq!(l.cached_currency_entries(), entries);
    }
}

#[cfg(test)]
mod live_list_tests {
    use super::*;
    use crate::transfer::{self, TransferTarget};

    /// Every currency's live list is its active issued tickets, each once,
    /// and every listed ticket stores the slot it is listed at.
    fn assert_live_lists(l: &Ledger) {
        for (id, cur) in l.currencies() {
            for (slot, &t) in cur.live().iter().enumerate() {
                assert_eq!(l.ticket(t).unwrap().live_slot(), slot, "{id:?}");
            }
            let mut live = cur.live().to_vec();
            let mut active: Vec<TicketId> = cur.issued().to_vec();
            active.retain(|&t| l.ticket(t).unwrap().is_active());
            live.sort();
            active.sort();
            assert_eq!(live, active, "live list of {id:?}");
        }
    }

    /// A tenant currency backed by 1000 base with `n` funded, inactive
    /// clients holding `10 + i` tickets each.
    fn tenant(l: &mut Ledger, n: u64) -> (CurrencyId, TicketId, Vec<ClientId>) {
        let cur = l.create_currency("tenant").unwrap();
        let backing = l.issue_root(l.base(), 1000).unwrap();
        l.fund_currency(backing, cur).unwrap();
        let clients = (0..n)
            .map(|i| {
                let c = l.create_client(format!("c{i}"));
                let t = l.issue_root(cur, 10 + i).unwrap();
                l.fund_client(t, c).unwrap();
                c
            })
            .collect();
        (cur, backing, clients)
    }

    #[test]
    fn sleepers_are_not_visited() {
        let mut l = Ledger::new();
        let (_, _, clients) = tenant(&mut l, 10);
        let awake = clients[0];
        l.activate_client(awake).unwrap();
        // A scheduler values everything once, the nine sleepers at 0.0.
        let check_values = |l: &Ledger| {
            let mut fresh = Valuator::new(l);
            for &c in &clients {
                let cached = l.cached_client_value(c).unwrap();
                assert_eq!(cached, fresh.client_value(c).unwrap());
                assert_eq!(cached > 0.0, l.client(c).unwrap().is_active());
            }
        };
        check_values(&l);
        l.drain_dirty_clients();
        assert_eq!(l.cached_client_entries(), 10);

        l.deactivate_client(awake).unwrap();
        assert_eq!(l.cached_client_entries(), 9, "the sleepers' entries stay");
        assert_eq!(l.drain_dirty_clients(), vec![awake]);
        check_values(&l);

        l.activate_client(awake).unwrap();
        assert_eq!(l.cached_client_entries(), 9, "the sleepers' entries stay");
        assert_eq!(l.drain_dirty_clients(), vec![awake]);
        check_values(&l);
        assert_live_lists(&l);
    }

    #[test]
    fn swap_remove_rewrites_the_moved_slot() {
        let mut l = Ledger::new();
        let base = l.base();
        let funded: Vec<(ClientId, TicketId)> = (0..3)
            .map(|i| {
                let c = l.create_client(format!("c{i}"));
                let t = l.issue_root(base, 10 + i).unwrap();
                l.fund_client(t, c).unwrap();
                l.activate_client(c).unwrap();
                (c, t)
            })
            .collect();
        let [(ca, a), (_, b), (cc, c)] = funded[..] else {
            unreachable!()
        };
        assert_eq!(l.currency(base).unwrap().live(), &[a, b, c]);
        // The first goes; the last moves into its slot.
        l.deactivate_client(ca).unwrap();
        assert_eq!(l.currency(base).unwrap().live(), &[c, b]);
        assert_live_lists(&l);
        // The one that moved goes: its rewritten slot must find it.
        l.deactivate_client(cc).unwrap();
        assert_eq!(l.currency(base).unwrap().live(), &[b]);
        assert!(!l.ticket(a).unwrap().is_active() && !l.ticket(c).unwrap().is_active());
        assert!(l.ticket(b).unwrap().is_active());
        assert_live_lists(&l);
        l.activate_client(ca).unwrap();
        l.activate_client(cc).unwrap();
        assert_eq!(l.currency(base).unwrap().live(), &[b, a, c]);
        assert_live_lists(&l);
        assert_eq!(l.currency(base).unwrap().active_amount(), 33);
    }

    #[test]
    fn a_tenant_fully_asleep_leaves_its_own_list_and_bases() {
        let mut l = Ledger::new();
        let base = l.base();
        let (cur, backing, clients) = tenant(&mut l, 3);
        assert!(l.currency(cur).unwrap().live().is_empty());
        assert!(l.currency(base).unwrap().live().is_empty());
        for &c in &clients {
            l.activate_client(c).unwrap();
        }
        assert_eq!(l.currency(cur).unwrap().live().len(), 3);
        assert_eq!(l.currency(base).unwrap().live(), &[backing]);
        for &c in &clients[..2] {
            l.deactivate_client(c).unwrap();
        }
        assert_eq!(l.currency(cur).unwrap().live().len(), 1);
        assert_eq!(l.currency(base).unwrap().live(), &[backing]);
        l.deactivate_client(clients[2]).unwrap();
        assert!(l.currency(cur).unwrap().live().is_empty());
        assert!(l.currency(base).unwrap().live().is_empty());
        assert!(!l.ticket(backing).unwrap().is_active());
        assert_live_lists(&l);
        // `issued()` is the full list it always was, in issue order.
        assert_eq!(l.currency(cur).unwrap().issued().len(), 3);
        assert_eq!(l.currency(base).unwrap().issued(), &[backing]);
    }

    #[test]
    fn every_ticket_operation_keeps_the_live_lists() {
        let mut l = Ledger::new();
        let (cur, _, clients) = tenant(&mut l, 4);
        for &c in &clients[..3] {
            l.activate_client(c).unwrap();
        }
        assert_live_lists(&l);
        let funding = |l: &Ledger, c: ClientId| l.client(c).unwrap().funding()[0];

        // Split an active ticket and an inactive one; merge them back.
        for c in [clients[0], clients[3]] {
            let t = funding(&l, c);
            let amount = l.ticket(t).unwrap().amount();
            let pieces = l.split_ticket(t, &[amount - 5, 3, 2]).unwrap();
            assert_live_lists(&l);
            for piece in pieces {
                l.merge_tickets(t, piece).unwrap();
                assert_live_lists(&l);
            }
        }
        assert_eq!(l.currency(cur).unwrap().live().len(), 3);

        // An RPC: the blocked caller lends its worth to a server thread,
        // then to the server's currency; the reply destroys the loan.
        let (caller, server) = (clients[0], clients[1]);
        l.deactivate_client(caller).unwrap();
        let loan = transfer::lend(&mut l, cur, 10, TransferTarget::Client(server)).unwrap();
        assert!(l.ticket(loan.ticket()).unwrap().is_active());
        assert_live_lists(&l);
        loan.repay(&mut l).unwrap();
        assert_live_lists(&l);
        let service = l.create_currency("service").unwrap();
        let worker = l.create_client("worker");
        let pay = l.issue_root(service, 1).unwrap();
        l.fund_client(pay, worker).unwrap();
        l.activate_client(worker).unwrap();
        let loan = transfer::lend(&mut l, cur, 10, TransferTarget::Currency(service)).unwrap();
        assert_eq!(l.currency(cur).unwrap().live().len(), 3);
        assert_live_lists(&l);
        loan.repay(&mut l).unwrap();
        l.activate_client(caller).unwrap();
        assert_live_lists(&l);

        // Unfund and destroy, of an active ticket that is not the last.
        l.unfund(funding(&l, clients[0])).unwrap();
        assert_eq!(l.currency(cur).unwrap().live().len(), 2);
        assert_live_lists(&l);
        l.destroy_ticket(funding(&l, clients[1])).unwrap();
        assert_eq!(l.currency(cur).unwrap().live().len(), 1);
        assert_live_lists(&l);
        l.destroy_client_and_funding(clients[2]).unwrap();
        assert!(l.currency(cur).unwrap().live().is_empty());
        assert!(l.currency(l.base()).unwrap().live().is_empty());
        assert_live_lists(&l);
    }
}

#[cfg(test)]
mod split_merge_tests {
    use super::*;

    fn funded_client(l: &mut Ledger, amount: u64) -> (ClientId, TicketId) {
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), amount).unwrap();
        l.fund_client(t, c).unwrap();
        l.activate_client(c).unwrap();
        (c, t)
    }

    #[test]
    fn split_preserves_value_and_activation() {
        let mut l = Ledger::new();
        let (c, t) = funded_client(&mut l, 100);
        let rest = l.split_ticket(t, &[60, 30, 10]).unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(l.ticket(t).unwrap().amount(), 60);
        assert_eq!(l.client(c).unwrap().funding().len(), 3);
        for &piece in &rest {
            assert!(l.ticket(piece).unwrap().is_active());
        }
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(c).unwrap(), 100.0);
        assert_eq!(l.currency(l.base()).unwrap().active_amount(), 100);
    }

    #[test]
    fn split_rejects_bad_parts() {
        let mut l = Ledger::new();
        let (_, t) = funded_client(&mut l, 100);
        assert_eq!(l.split_ticket(t, &[]), Err(LotteryError::ZeroAmount));
        assert_eq!(
            l.split_ticket(t, &[50, 0, 50]),
            Err(LotteryError::ZeroAmount)
        );
        assert_eq!(l.split_ticket(t, &[50, 40]), Err(LotteryError::ZeroAmount));
        // Untouched on failure.
        assert_eq!(l.ticket(t).unwrap().amount(), 100);
    }

    #[test]
    fn split_unfunded_ticket_yields_unfunded_pieces() {
        let mut l = Ledger::new();
        let t = l.issue_root(l.base(), 10).unwrap();
        let rest = l.split_ticket(t, &[4, 6]).unwrap();
        assert_eq!(l.ticket(rest[0]).unwrap().target(), FundingTarget::Unfunded);
        assert_eq!(l.currency(l.base()).unwrap().total_amount(), 10);
    }

    #[test]
    fn merge_recombines() {
        let mut l = Ledger::new();
        let (c, t) = funded_client(&mut l, 100);
        let rest = l.split_ticket(t, &[70, 30]).unwrap();
        l.merge_tickets(t, rest[0]).unwrap();
        assert_eq!(l.ticket(t).unwrap().amount(), 100);
        assert!(l.ticket(rest[0]).is_err(), "merged ticket destroyed");
        assert_eq!(l.client(c).unwrap().funding().len(), 1);
        let mut v = Valuator::new(&l);
        assert_eq!(v.client_value(c).unwrap(), 100.0);
    }

    #[test]
    fn merge_rejects_mismatches() {
        let mut l = Ledger::new();
        let (_, t1) = funded_client(&mut l, 10);
        let other_cur = l.create_currency("other").unwrap();
        let t2 = l.issue_root(other_cur, 10).unwrap();
        assert_eq!(l.merge_tickets(t1, t2), Err(LotteryError::NotTransferred));
        assert_eq!(l.merge_tickets(t1, t1), Err(LotteryError::ZeroAmount));
        // Same denomination, different targets.
        let c2 = l.create_client("c2");
        let t3 = l.issue_root(l.base(), 5).unwrap();
        l.fund_client(t3, c2).unwrap();
        assert_eq!(l.merge_tickets(t1, t3), Err(LotteryError::NotTransferred));
    }
}

#[cfg(test)]
mod comp_ledger_tests {
    use super::*;

    /// A client funded by `amount` base units, activated.
    fn active_client(l: &mut Ledger, amount: u64) -> ClientId {
        let c = l.create_client("c");
        let t = l.issue_root(l.base(), amount).unwrap();
        l.fund_client(t, c).unwrap();
        l.activate_client(c).unwrap();
        c
    }

    #[test]
    fn grant_records_extra_on_home_shard() {
        let mut l = Ledger::new();
        let c = active_client(&mut l, 400);
        l.set_compensation(c, 2.5).unwrap();
        // Implicit compensation ticket worth (2.5 - 1) * 400 = 600.
        assert_eq!(l.compensation_factor(c), 2.5);
        assert_eq!(l.compensation_shard_weight(0), 600.0);
        assert_eq!(l.compensation_total_weight(), 600.0);
        assert_eq!(l.compensation_resting_weight(0), 0.0, "client is active");
        assert_eq!(l.compensated_clients(), 1);
        assert_eq!(l.compensations_granted(), 1);
    }

    #[test]
    fn clear_revokes_and_empties() {
        let mut l = Ledger::new();
        let c = active_client(&mut l, 400);
        l.set_compensation(c, 2.0).unwrap();
        l.set_compensation(c, 1.0).unwrap();
        assert_eq!(l.compensation_factor(c), 1.0);
        assert_eq!(l.compensation_shard_weight(0), 0.0);
        assert_eq!(l.compensated_clients(), 0);
        assert_eq!(l.compensations_revoked(), 1);
        // Clearing an already-clear client is a no-op, not a revocation.
        l.set_compensation(c, 1.0).unwrap();
        assert_eq!(l.compensations_revoked(), 1);
    }

    #[test]
    fn deactivation_moves_weight_to_resting() {
        let mut l = Ledger::new();
        let c = active_client(&mut l, 100);
        l.set_compensation(c, 4.0).unwrap();
        assert_eq!(l.compensation_resting_weight(0), 0.0);
        l.deactivate_client(c).unwrap();
        // Blocked: the tree sees 0, but factor * funded = 400 returns on
        // wake; extra (300) still counts toward the shard's comp weight.
        assert_eq!(l.compensation_shard_weight(0), 300.0);
        assert_eq!(l.compensation_resting_weight(0), 400.0);
        l.activate_client(c).unwrap();
        assert_eq!(l.compensation_resting_weight(0), 0.0);
        assert_eq!(l.compensation_shard_weight(0), 300.0);
    }

    #[test]
    fn migration_rehomes_compensated_weight() {
        let mut l = Ledger::new();
        l.set_dirty_shards(4);
        let c = active_client(&mut l, 200);
        l.set_compensation(c, 3.0).unwrap();
        assert_eq!(l.compensation_shard_weight(0), 400.0);
        l.assign_dirty_shard(c, 2);
        assert_eq!(l.compensation_shard_weight(0), 0.0);
        assert_eq!(l.compensation_shard_weight(2), 400.0);
        assert_eq!(l.compensation_total_weight(), 400.0, "nothing lost");
        // Resizing the shard space preserves the total (out-of-range homes
        // clamp into the new range).
        l.set_dirty_shards(2);
        let per_shard: f64 = (0..2).map(|s| l.compensation_shard_weight(s)).sum();
        assert_eq!(per_shard, l.compensation_total_weight());
    }

    #[test]
    fn inactive_grant_snapshots_on_next_valuation() {
        let mut l = Ledger::new();
        let c = l.create_client("io");
        let t = l.issue_root(l.base(), 100).unwrap();
        l.fund_client(t, c).unwrap();
        // Granted while inactive: funded value unknown (0) until revalued.
        l.set_compensation(c, 4.0).unwrap();
        assert_eq!(l.compensation_shard_weight(0), 0.0);
        l.activate_client(c).unwrap();
        assert_eq!(l.cached_client_value(c).unwrap(), 400.0);
        assert_eq!(l.compensation_shard_weight(0), 300.0);
        assert_eq!(l.compensation_resting_weight(0), 0.0);
    }

    #[test]
    fn destroy_forgets_without_revocation() {
        let mut l = Ledger::new();
        let c = active_client(&mut l, 50);
        l.set_compensation(c, 2.0).unwrap();
        l.deactivate_client(c).unwrap();
        l.destroy_client_and_funding(c).unwrap();
        assert_eq!(l.compensation_shard_weight(0), 0.0);
        assert_eq!(l.compensation_resting_weight(0), 0.0);
        assert_eq!(l.compensated_clients(), 0);
        assert_eq!(l.compensations_revoked(), 0);
    }

    #[test]
    fn recycled_slot_starts_uncompensated() {
        let mut l = Ledger::new();
        l.set_dirty_shards(2);
        let old = active_client(&mut l, 50);
        l.assign_dirty_shard(old, 1);
        l.set_compensation(old, 2.0).unwrap();
        l.deactivate_client(old).unwrap();
        assert_eq!(l.compensation_resting_weight(1), 100.0);
        l.destroy_client_and_funding(old).unwrap();

        let new = l.create_client("successor");
        assert_eq!(new.index(), old.index(), "the arena recycles the slot");
        assert_ne!(new, old);
        assert_eq!(l.compensation_factor(new), 1.0);
        assert_eq!(l.compensation_factor(old), 1.0);
        assert_eq!(l.compensated_clients(), 0);
        for shard in 0..2 {
            assert_eq!(l.compensation_shard_weight(shard), 0.0);
            assert_eq!(l.compensation_resting_weight(shard), 0.0);
        }
        assert!(matches!(
            l.set_compensation(old, 2.0),
            Err(LotteryError::StaleHandle {
                kind: ObjectKind::Client,
                ..
            })
        ));
        // A grant to the successor is not readable through the old handle.
        l.set_compensation(new, 3.0).unwrap();
        assert_eq!(l.compensation_factor(new), 3.0);
        assert_eq!(l.compensation_factor(old), 1.0);
    }

    /// A grant made while the cache is cold values the client by the
    /// read-only walk: same value as the reference, nothing cached, no
    /// lookup probe, and nothing remembered from one grant to the next.
    #[test]
    fn cold_grant_snapshots_without_touching_the_cache() {
        use lottery_obs::{Aggregator, Shared};
        let mut l = Ledger::new();
        let top = l.create_currency("top").unwrap();
        let back = l.issue_root(l.base(), 1000).unwrap();
        l.fund_currency(back, top).unwrap();
        // A diamond: `join` is backed through both `left` and `right`.
        let (left, right, join) = (
            l.create_currency("left").unwrap(),
            l.create_currency("right").unwrap(),
            l.create_currency("join").unwrap(),
        );
        for (from, to, amount) in [
            (top, left, 1),
            (top, right, 2),
            (left, join, 3),
            (right, join, 4),
        ] {
            let t = l.issue_root(from, amount).unwrap();
            l.fund_currency(t, to).unwrap();
        }
        let c = l.create_client("c");
        let other = l.create_client("other");
        let t = l.issue_root(join, 3).unwrap();
        let t_other = l.issue_root(join, 4).unwrap();
        l.fund_client(t, c).unwrap();
        l.fund_client(t_other, other).unwrap();
        l.activate_client(c).unwrap();
        l.activate_client(other).unwrap();
        assert_eq!(l.cached_currency_entries(), 0, "nothing valued yet");

        let probes = Shared::new(Aggregator::new());
        l.set_probe_bus(ProbeBus::with_recorder(probes.clone()));
        for (factor, amount) in [(10.0 / 3.0, 1000), (7.0 / 3.0, 700), (2.5, 1100)] {
            // Reprice every currency between grants: a memo kept from one
            // walk to the next would show.
            l.set_amount(back, amount).unwrap();
            let funded = Valuator::new(&l).client_funded_value(c).unwrap();
            l.set_compensation(c, factor).unwrap();
            assert_eq!(
                l.compensation_total_weight().to_bits(),
                (funded * (factor - 1.0)).to_bits()
            );
        }
        assert_eq!(l.cached_currency_entries(), 0, "the walk filled the cache");
        assert_eq!(
            probes.with(|a| a.cache_hits + a.cache_misses),
            0,
            "the walk counted lookups"
        );
        // With part of the graph cached the walk still reads none of it,
        // and comes to the same value.
        l.cached_currency_value(left).unwrap();
        l.set_compensation(c, 1.0).unwrap();
        let funded = Valuator::new(&l).client_funded_value(c).unwrap();
        l.set_compensation(c, 3.0).unwrap();
        assert_eq!(
            l.compensation_total_weight().to_bits(),
            (funded * 2.0).to_bits()
        );
    }

    /// Six compensated clients whose `extra`s (thirds of sevenths of base
    /// units) do not add exactly, so the order of summation shows in the
    /// last bits; returns the ledger, the clients in slot order, and the
    /// `(funded, extra)` the reference valuator gives each, in that order.
    fn inexact_compensation_book() -> (Ledger, Vec<ClientId>, Vec<(f64, f64)>) {
        let mut l = Ledger::new();
        let pool = l.create_currency("pool").unwrap();
        let back = l.issue_root(l.base(), 100).unwrap();
        l.fund_currency(back, pool).unwrap();
        // Three issuers share the pool 1:2:4 — values in sevenths.
        let shares = [1u64, 2, 4, 1, 2, 4];
        let factors = [
            10.0 / 3.0,
            8.0 / 3.0,
            7.0 / 3.0,
            4.0 / 3.0,
            17.0 / 3.0,
            5.0 / 3.0,
        ];
        let mut clients = Vec::new();
        for (i, &share) in shares.iter().enumerate() {
            let c = l.create_client(format!("c{i}"));
            let t = l.issue_root(pool, share).unwrap();
            l.fund_client(t, c).unwrap();
            l.activate_client(c).unwrap();
            clients.push(c);
        }
        // Grant in an order that is not slot order.
        for &i in &[3usize, 0, 5, 1, 4, 2] {
            l.set_compensation(clients[i], factors[i]).unwrap();
        }
        let mut v = Valuator::new(&l);
        let book = clients
            .iter()
            .zip(factors)
            .map(|(&c, f)| {
                let funded = v.client_funded_value(c).unwrap();
                (funded, funded * (f - 1.0))
            })
            .collect();
        (l, clients, book)
    }

    #[test]
    fn total_weight_sums_in_slot_order_bit_for_bit() {
        let (mut l, clients, book) = inexact_compensation_book();
        let slot_order: f64 = book.iter().map(|&(_, extra)| extra).sum();
        let reversed: f64 = book.iter().rev().map(|&(_, extra)| extra).sum();
        assert_ne!(
            slot_order.to_bits(),
            reversed.to_bits(),
            "the book must be order-sensitive for this test to mean anything"
        );
        assert_eq!(
            l.compensation_total_weight().to_bits(),
            slot_order.to_bits()
        );

        // An independently built ledger agrees to the last bit.
        let (twin, _, _) = inexact_compensation_book();
        assert_eq!(
            twin.compensation_total_weight().to_bits(),
            l.compensation_total_weight().to_bits()
        );

        // Resharding rebuilds the per-shard sums in slot order too.
        l.set_dirty_shards(4);
        for (i, &c) in clients.iter().enumerate() {
            l.assign_dirty_shard(c, i as u32 % 4);
        }
        l.deactivate_client(clients[1]).unwrap();
        l.deactivate_client(clients[4]).unwrap();
        assert_eq!(
            l.compensation_total_weight().to_bits(),
            slot_order.to_bits()
        );
        l.set_dirty_shards(1);
        assert_eq!(
            l.compensation_shard_weight(0).to_bits(),
            slot_order.to_bits()
        );
        // Resting weight is `funded + extra` of the snapshots, slot order.
        let resting = (book[1].0 + book[1].1) + (book[4].0 + book[4].1);
        assert_eq!(
            l.compensation_resting_weight(0).to_bits(),
            resting.to_bits()
        );
    }
}
