//! One lottery shard: a CPU's ready set and its winner structure as one
//! object (Sections 4.2 and 4.4).
//!
//! The paper's mechanism is one walk over one run queue, and its
//! partial-sum tree "can also be used as the basis of a distributed
//! lottery scheduler" — one local mechanism, replicated per CPU. [`Shard`]
//! is that mechanism, written once: [`super::lottery::LotteryPolicy`]
//! holds one, [`super::distributed::DistributedLottery`] one per CPU, and
//! each real-thread worker of `lottery-par` one. Callers keep what is
//! theirs: which ledger dirty queue to drain before [`Shard::settle`],
//! the probe tags around a draw, the ledger lock, the compensation hook.
//!
//! The winner structure *is* the ready queue: the partial-sum tree and
//! the alias table keep their entries in slot order — inserts append,
//! removals swap-remove — so there is no separate queue to mirror. Only
//! the list walk, which values the queue through the ledger at draw time
//! and so stores no weights, keeps a plain ordered set, with the same
//! motion. Slot order is therefore the same function of the insert/remove
//! history under every structure, which is what makes winner streams
//! bit-identical across them.

use std::time::Instant;

use lottery_core::client::ClientId;
use lottery_core::ledger::Ledger;
use lottery_core::lottery::alias::AliasLottery;
use lottery_core::lottery::index::{DenseIndex, SlotIndex};
use lottery_core::lottery::tree::TreeLottery;
use lottery_core::lottery::{walk, TicketPool};
use lottery_core::rng::SchedRng;
use lottery_obs::{EventKind, ProbeBus};

use super::lottery::SelectStructure;
use crate::replay::structure_name;
use crate::thread::ThreadId;

/// What one [`Shard::draw`] decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draw {
    /// The winning thread, already removed from the shard.
    pub winner: ThreadId,
    /// Ready threads that competed.
    pub entries: u32,
    /// Search effort: entries scanned (list), tree depth (tree), or
    /// guide-cell steps / descent depth (alias).
    pub levels: u32,
    /// Total base-unit value of the competitors.
    pub total: f64,
    /// The winning value in `[0, total)`, or `-1.0` when the pool was
    /// worthless and the draw degenerated to FIFO.
    pub winning: f64,
}

impl Draw {
    /// The draw as a probe event, under the caller's structure tag.
    pub fn event(self, structure: &'static str) -> EventKind {
        EventKind::LotteryDraw {
            structure,
            entries: self.entries,
            levels: self.levels,
            total: self.total,
            winning: self.winning,
            winner: self.winner.index(),
        }
    }
}

#[derive(Debug)]
enum Pool {
    /// The prototype's run queue: no stored weights, valued at draw time.
    List {
        ready: Vec<ThreadId>,
        /// Thread id -> position in `ready`.
        pos: DenseIndex,
        /// Reusable valuation buffer: no allocation per draw.
        values: Vec<f64>,
    },
    Tree(TreeLottery<ThreadId, f64, DenseIndex>),
    Alias(AliasLottery<ThreadId, DenseIndex>),
}

/// A ready set that can hold a lottery over itself.
#[derive(Debug)]
pub struct Shard(Pool);

impl Shard {
    /// An empty shard searching winners with `structure`.
    pub fn new(structure: SelectStructure) -> Self {
        Self(match structure {
            SelectStructure::List => Pool::List {
                ready: Vec::new(),
                pos: DenseIndex::default(),
                values: Vec::new(),
            },
            SelectStructure::Tree => Pool::Tree(TreeLottery::with_index(0)),
            SelectStructure::Alias => Pool::Alias(AliasLottery::with_index(0)),
        })
    }

    /// Number of ready threads.
    pub fn len(&self) -> usize {
        match &self.0 {
            Pool::List { ready, .. } => ready.len(),
            Pool::Tree(tree) => tree.len(),
            Pool::Alias(alias) => alias.len(),
        }
    }

    /// Whether no thread is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the shard keeps a weight per ready thread (tree, alias). A
    /// list keeps none: it is valued through the ledger at draw time.
    pub fn stores_weights(&self) -> bool {
        !matches!(self.0, Pool::List { .. })
    }

    /// The winner structure the shard searches with.
    pub fn structure(&self) -> SelectStructure {
        match self.0 {
            Pool::List { .. } => SelectStructure::List,
            Pool::Tree(_) => SelectStructure::Tree,
            Pool::Alias(_) => SelectStructure::Alias,
        }
    }

    /// Whether `tid` is ready here (`O(1)`).
    pub fn contains(&self, tid: ThreadId) -> bool {
        match &self.0 {
            Pool::List { pos, .. } => pos.get(&tid).is_some(),
            Pool::Tree(tree) => tree.contains(&tid),
            Pool::Alias(alias) => alias.contains(&tid),
        }
    }

    /// The thread in `slot` of the scan order.
    fn slot(&self, slot: usize) -> Option<ThreadId> {
        match &self.0 {
            Pool::List { ready, .. } => ready.get(slot),
            Pool::Tree(tree) => tree.at(slot),
            Pool::Alias(alias) => alias.at(slot),
        }
        .copied()
    }

    /// Ready threads in slot order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = ThreadId> + '_ {
        (0..self.len()).filter_map(|slot| self.slot(slot))
    }

    /// Total base-unit value of the stored weights. A list stores none —
    /// it is valued at draw time — so this is the sum its last draw
    /// walked.
    pub fn total(&self) -> f64 {
        match &self.0 {
            Pool::List { values, .. } => values.iter().sum(),
            Pool::Tree(tree) => tree.total(),
            Pool::Alias(alias) => alias.total(),
        }
    }

    /// Appends a newly ready thread worth `value` (ignored by a list).
    pub fn insert(&mut self, tid: ThreadId, value: f64) {
        debug_assert!(!self.contains(tid), "double enqueue of {tid}");
        match &mut self.0 {
            Pool::List { ready, pos, .. } => {
                pos.set(&tid, ready.len());
                ready.push(tid);
            }
            Pool::Tree(tree) => tree.insert(tid, value),
            Pool::Alias(alias) => alias.insert(tid, value),
        }
    }

    /// Removes `tid` in `O(1)`, moving the last slot into its place — the
    /// one motion every structure shares. Returns whether it was ready.
    pub fn remove(&mut self, tid: ThreadId) -> bool {
        match &mut self.0 {
            Pool::List { ready, pos, .. } => {
                let Some(slot) = pos.remove(&tid) else {
                    return false;
                };
                ready.swap_remove(slot);
                if let Some(moved) = ready.get(slot) {
                    pos.set(moved, slot);
                }
                true
            }
            Pool::Tree(tree) => tree.remove(&tid).is_some(),
            Pool::Alias(alias) => alias.remove(&tid).is_some(),
        }
    }

    /// Revalues the ready threads behind `dirty` — the clients a ledger
    /// dirty queue reported as invalidated — through the valuation cache.
    /// This is what makes tree and alias draws *exact*: a sibling
    /// blocking, a compensation grant, or an RPC transfer anywhere in the
    /// currency graph queues precisely the affected clients. Clients not
    /// ready here are skipped unvalued; a list has nothing to refresh.
    pub fn settle(
        &mut self,
        dirty: &[ClientId],
        client_threads: &[Option<ThreadId>],
        ledger: &Ledger,
    ) {
        if !self.stores_weights() {
            return;
        }
        for &client in dirty {
            let owner = client_threads.get(client.index() as usize);
            let Some(tid) = owner.copied().flatten().filter(|&t| self.contains(t)) else {
                continue;
            };
            let value = ledger.cached_client_value(client).unwrap_or(0.0);
            match &mut self.0 {
                Pool::Tree(tree) => tree.set_weight(&tid, value),
                Pool::Alias(alias) => alias.set_weight(&tid, value),
                Pool::List { .. } => unreachable!("returned above"),
            };
        }
    }

    /// Rebuilds the shard under `structure`, keeping the slot order and
    /// taking fresh weights from `value_of` (not consulted for a list),
    /// and reports it on `bus` as one `StructureRebuild`. An alias table
    /// is snapshotted once at the end, so bulk-load churn collapses into
    /// one definitive table and reports nothing of its own.
    pub fn rebuild(
        &mut self,
        structure: SelectStructure,
        mut value_of: impl FnMut(ThreadId) -> f64,
        bus: &ProbeBus,
    ) {
        let start = Instant::now();
        let order: Vec<ThreadId> = self.iter().collect();
        *self = Self::new(structure);
        for tid in order {
            let value = match structure {
                SelectStructure::List => 0.0,
                _ => value_of(tid),
            };
            self.insert(tid, value);
        }
        if let Pool::Alias(alias) = &mut self.0 {
            alias.rebuild();
            alias.take_rebuild_events();
        }
        bus.emit(|| EventKind::StructureRebuild {
            structure: structure_name(structure),
            clients: self.len() as u32,
            stale: 0,
            rebuild_ns: start.elapsed().as_nanos() as u64,
        });
    }

    /// Forwards the rebuild reports an alias table accumulated since the
    /// last call to `bus` (nothing, allocation free, when none are
    /// pending or under the other structures).
    pub fn emit_rebuilds(&mut self, bus: &ProbeBus) {
        if let Pool::Alias(alias) = &mut self.0 {
            for ev in alias.take_rebuild_events() {
                bus.emit(|| EventKind::StructureRebuild {
                    structure: "alias",
                    clients: ev.clients,
                    stale: ev.stale,
                    rebuild_ns: ev.rebuild_ns,
                });
            }
        }
    }

    /// Holds one lottery and removes the winner; `None` when nothing is
    /// ready. `value_of` prices a thread in base units and is consulted
    /// only by a list, which values the whole queue on every draw.
    ///
    /// The RNG discipline every backend shares: exactly one `next_f64` is
    /// consumed iff the pool has positive total value; a worthless pool
    /// (e.g. an unfunded currency) degenerates to FIFO so the machine
    /// still makes progress.
    pub fn draw<R: SchedRng + ?Sized>(
        &mut self,
        rng: &mut R,
        value_of: impl FnMut(ThreadId) -> f64,
    ) -> Option<Draw> {
        let first = self.slot(0)?;
        let entries = self.len() as u32;
        if let Pool::List { ready, values, .. } = &mut self.0 {
            values.clear();
            values.extend(ready.iter().copied().map(value_of));
        }
        let total = self.total();
        let (winner, winning) = if total <= 0.0 {
            (first, -1.0)
        } else {
            let winning = rng.next_f64() * total;
            let found = match &mut self.0 {
                // Figure 1: walk the run queue summing client values until
                // the sum exceeds the winning value.
                Pool::List { ready, values, .. } => {
                    let hit = walk(values.iter().copied(), winning);
                    ready.get(hit.unwrap_or(ready.len() - 1)).copied()
                }
                Pool::Tree(tree) => tree.select(winning).copied(),
                Pool::Alias(alias) => alias.select(winning).copied(),
            };
            (found.unwrap_or(first), winning)
        };
        let levels = match &self.0 {
            Pool::List { pos, .. } => pos.get(&winner).map_or(0, |slot| slot as u32 + 1),
            Pool::Tree(tree) => tree.depth(),
            Pool::Alias(alias) => alias.last_probes(),
        };
        self.remove(winner);
        Some(Draw {
            winner,
            entries,
            levels,
            total,
            winning,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_core::rng::ParkMiller;
    use lottery_obs::{FlightRecorder, Shared};

    const ALL: [SelectStructure; 3] = [
        SelectStructure::List,
        SelectStructure::Tree,
        SelectStructure::Alias,
    ];

    fn tid(i: u32) -> ThreadId {
        ThreadId::from_index(i)
    }

    /// Threads 0..n worth 100, 200, ... queued in id order.
    fn filled(structure: SelectStructure, n: u32) -> Shard {
        let mut shard = Shard::new(structure);
        for i in 0..n {
            shard.insert(tid(i), weight(tid(i)));
        }
        shard
    }

    fn weight(t: ThreadId) -> f64 {
        100.0 * f64::from(t.index() + 1)
    }

    #[test]
    fn slot_order_is_the_same_swap_remove_motion_everywhere() {
        for structure in ALL {
            let mut shard = filled(structure, 5);
            assert!(shard.remove(tid(1)), "{structure:?}");
            assert!(!shard.remove(tid(1)), "{structure:?}: already gone");
            shard.insert(tid(7), 50.0);
            assert!(shard.remove(tid(0)));
            let order: Vec<u32> = shard.iter().map(ThreadId::index).collect();
            assert_eq!(order, [7, 4, 2, 3], "{structure:?}");
            assert_eq!(shard.len(), 4);
            assert!(shard.contains(tid(7)) && !shard.contains(tid(0)));
        }
    }

    #[test]
    fn draws_agree_and_remove_the_winner() {
        let draws = ALL.map(|structure| {
            let mut shard = filled(structure, 6);
            let mut rng = ParkMiller::new(1994);
            let mut seen = Vec::new();
            while let Some(draw) = shard.draw(&mut rng, weight) {
                assert!(!shard.contains(draw.winner));
                assert_eq!(draw.entries as usize, shard.len() + 1);
                assert!((0.0..draw.total).contains(&draw.winning));
                seen.push((draw.winner, draw.total, draw.winning));
            }
            assert_eq!(seen.len(), 6);
            (seen, rng.state())
        });
        assert_eq!(draws[0], draws[1]);
        assert_eq!(draws[0], draws[2]);
    }

    #[test]
    fn list_levels_count_the_entries_scanned() {
        let mut shard = filled(SelectStructure::List, 4);
        let draw = shard.draw(&mut ParkMiller::new(3), weight).unwrap();
        let walked: f64 = (0..=draw.winner.index()).map(|i| weight(tid(i))).sum();
        assert_eq!(draw.levels, draw.winner.index() + 1);
        assert!(draw.winning < walked && draw.winning >= walked - weight(draw.winner));
    }

    #[test]
    fn worthless_pool_is_fifo_and_consumes_no_variate() {
        for structure in ALL {
            let mut shard = Shard::new(structure);
            for i in [3, 1, 2] {
                shard.insert(tid(i), 0.0);
            }
            let mut rng = ParkMiller::new(9);
            let before = rng.state();
            let draw = shard.draw(&mut rng, |_| 0.0).unwrap();
            assert_eq!((draw.winner, draw.winning), (tid(3), -1.0), "{structure:?}");
            assert_eq!(rng.state(), before, "{structure:?}");
        }
        assert!(Shard::new(SelectStructure::Tree)
            .draw(&mut ParkMiller::new(9), |_| 0.0)
            .is_none());
    }

    #[test]
    fn settle_revalues_only_ready_clients() {
        let mut ledger = Ledger::new();
        let mut clients = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..3 {
            let client = ledger.create_client(format!("t{i}"));
            let ticket = ledger.issue_root(ledger.base(), 100).unwrap();
            ledger.fund_client(ticket, client).unwrap();
            ledger.activate_client(client).unwrap();
            clients.push(client);
            tickets.push(ticket);
        }
        let mut owners = vec![None; 3];
        for (i, client) in clients.iter().enumerate() {
            owners[client.index() as usize] = Some(tid(i as u32));
        }
        for structure in [SelectStructure::Tree, SelectStructure::Alias] {
            let mut shard = Shard::new(structure);
            // Reading a value is what arms its invalidation notice.
            for (i, &client) in clients.iter().enumerate().take(2) {
                shard.insert(tid(i as u32), ledger.cached_client_value(client).unwrap());
            }
            ledger.cached_client_value(clients[2]).unwrap();
            ledger.set_amount(tickets[1], 700).unwrap();
            ledger.set_amount(tickets[2], 900).unwrap();
            let dirty = ledger.drain_dirty_clients();
            assert!(dirty.contains(&clients[2]));
            shard.settle(&dirty, &owners, &ledger);
            assert_eq!(shard.total(), 800.0, "{structure:?}: thread 2 is not ready");
            ledger.set_amount(tickets[1], 100).unwrap();
            ledger.set_amount(tickets[2], 100).unwrap();
        }
    }

    #[test]
    fn rebuild_keeps_order_takes_fresh_weights_and_reports_once() {
        for (from, to) in [(0, 1), (1, 2), (2, 0), (0, 2)] {
            let flight = Shared::new(FlightRecorder::new(16));
            let bus = ProbeBus::with_recorder(flight.clone());
            let mut shard = filled(ALL[from], 5);
            shard.remove(tid(0));
            let order: Vec<ThreadId> = shard.iter().collect();
            shard.rebuild(ALL[to], |t| 2.0 * weight(t), &bus);
            assert_eq!(shard.iter().collect::<Vec<_>>(), order);
            if ALL[to] != SelectStructure::List {
                assert_eq!(shard.total(), 2.0 * (200.0 + 300.0 + 400.0 + 500.0));
            }
            shard.emit_rebuilds(&bus);
            let events: Vec<_> = flight.with(|f| f.events().cloned().collect());
            assert_eq!(events.len(), 1, "{:?} -> {:?}", ALL[from], ALL[to]);
            assert!(matches!(
                events[0].kind,
                EventKind::StructureRebuild { clients: 4, stale: 0, structure, .. }
                    if structure == structure_name(ALL[to])
            ));
        }
    }
}
