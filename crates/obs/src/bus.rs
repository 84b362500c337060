//! The probe bus: one pipeline, two tiers, for every layer.
//!
//! A [`ProbeBus`] is cloned into each instrumented layer (ledger, policy,
//! kernel); clones share the recorder list, the counter block and the
//! event clock. The disabled bus — the default — is `None` inside: a probe
//! through it is one branch, and because [`ProbeBus::emit`] takes a
//! *closure*, the event payload is never even constructed. That is the
//! "zero overhead when disabled" contract the dispatch benchmarks verify.
//!
//! The two tiers, and the rule that separates them: a probe whose payload
//! is only a tag its consumer counts, or a number it only sums, is a
//! **counter** — a bump on the bus's [`Counters`] block, a relaxed load
//! and store, no event, no lock, no recorder call; anything a replay or a
//! timeline needs is an **event** — [`ProbeBus::emit`], delivered
//! synchronously to every recorder. Counts are per bus; the one layer that
//! counts (the ledger) takes the block once from [`ProbeBus::counters`], a
//! recorder is handed it at [`ProbeBus::attach`] and reads it at scrape.
//!
//! One decision is one event. The policy that held the lottery does not
//! emit it: it stages its [`DrawRecord`] on the bus
//! ([`ProbeBus::stage_draw`]), and the kernel folds it into the
//! `Decision` it emits at dispatch; a compensation grant reaches the
//! kernel's `QuantumEnd` the same way ([`ProbeBus::stage_grant`]). Policy
//! and kernel run on one thread and share the bus, so the slot needs no
//! lock, and a disabled bus stages nothing.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

/// The counter-tier probes: valuation-cache lookups, ledger mutations,
/// cache invalidations and compensation revocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// A client value served from the cache.
    ClientHit,
    /// A client value recomputed.
    ClientMiss,
    /// A currency value served from the cache.
    CurrencyHit,
    /// A currency value recomputed.
    CurrencyMiss,
    /// `Ledger::activate_client`.
    ActivateClient,
    /// `Ledger::create_client`.
    CreateClient,
    /// `Ledger::create_currency`.
    CreateCurrency,
    /// `Ledger::deactivate_client`.
    DeactivateClient,
    /// `Ledger::destroy_client`.
    DestroyClient,
    /// `Ledger::destroy_currency`.
    DestroyCurrency,
    /// `Ledger::destroy_ticket`.
    DestroyTicket,
    /// `Ledger::fund_client`.
    FundClient,
    /// `Ledger::fund_currency`.
    FundCurrency,
    /// `Ledger::issue`.
    Issue,
    /// `Ledger::set_amount`.
    SetAmount,
    /// `Ledger::set_compensation`.
    SetCompensation,
    /// `Ledger::unfund`.
    Unfund,
    /// Mutations that invalidated part of the valuation cache.
    Invalidations,
    /// Cached currency entries those mutations removed (a sum).
    InvalidatedCurrencies,
    /// Cached client entries those mutations removed (a sum).
    InvalidatedClients,
    /// The dirty-queue depth after each invalidation (a sum; divided by
    /// [`Counter::Invalidations`] it is the mean depth).
    DirtyDepth,
    /// A compensation ticket revoked (its factor cleared back to one, as
    /// when its holder is dispatched).
    CompensationRevoked,
}

impl Counter {
    /// How many counters there are: the length of a [`Counters`] block.
    pub const COUNT: usize = Counter::CompensationRevoked as usize + 1;

    /// The ledger-mutation counters and the operation each counts (the
    /// audit log of Section 4.3), by operation name.
    pub const LEDGER_OPS: [(Counter, &'static str); 13] = [
        (Counter::ActivateClient, "activate-client"),
        (Counter::CreateClient, "create-client"),
        (Counter::CreateCurrency, "create-currency"),
        (Counter::DeactivateClient, "deactivate-client"),
        (Counter::DestroyClient, "destroy-client"),
        (Counter::DestroyCurrency, "destroy-currency"),
        (Counter::DestroyTicket, "destroy-ticket"),
        (Counter::FundClient, "fund-client"),
        (Counter::FundCurrency, "fund-currency"),
        (Counter::Issue, "issue"),
        (Counter::SetAmount, "set-amount"),
        (Counter::SetCompensation, "set-compensation"),
        (Counter::Unfund, "unfund"),
    ];
}

/// The counter block of one enabled bus: totals since the bus was built.
///
/// **Single writer.** A bump is a relaxed load and store, not a
/// read-modify-write, so the counts are exact only when the writes to one
/// block are ordered: all from one thread, or all under one lock, as for a
/// ledger behind a mutex (the way `lottery-par` shares one). The ledger is
/// the block's one writer and bumps it under `&mut self` or its cache
/// borrow, so that holds by construction. A reader on another thread sees
/// a stale but untorn total.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; Counter::COUNT]);

impl Counters {
    /// Adds `n` to one counter: a relaxed load and store.
    #[inline]
    pub fn bump(&self, counter: Counter, n: u64) {
        let total = &self.0[counter as usize];
        total.store(total.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// The current totals, indexed by `Counter as usize`.
    pub fn snapshot(&self) -> [u64; Counter::COUNT] {
        // Relaxed: statistics that publish no other data.
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// How a lottery chose the thread a CPU runs next: what the policy that
/// held the draw stages for the kernel's `Decision` event.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DrawRecord {
    /// Search effort: entries scanned (list), tree depth (tree), or
    /// 1 + guide-cell steps or descent depth (alias).
    pub levels: u32,
    /// Total base-unit value of the competitors.
    pub total: f64,
    /// The winning value in `[0, total)`; `-1` when the pool was worthless
    /// and the pick degenerated to FIFO (no number drawn).
    pub winning: f64,
    /// The shard the winner was drawn from (0 for a shared queue).
    pub shard: u32,
    /// Whether that shard was a foreign one, the CPU's own being empty.
    pub stolen: bool,
}

/// The hand-over slots of one bus: the draw behind the next dispatch and
/// the grant behind the next quantum end.
#[derive(Debug, Default)]
struct Staged {
    /// Bit 0: a draw is staged; bit 1: it was stolen.
    flags: AtomicU8,
    /// `levels` in the high half, `shard` in the low.
    levels_shard: AtomicU64,
    total: AtomicU64,
    winning: AtomicU64,
    /// The bits of the staged compensation factor; 0 when none is.
    grant: AtomicU64,
}

struct BusInner {
    /// The emitting kernel's clock, in microseconds; stamped onto every
    /// event so probes in clockless layers (the ledger) get coherent
    /// timestamps.
    clock_us: AtomicU64,
    counters: Arc<Counters>,
    staged: Staged,
    recorders: Mutex<Vec<Box<dyn Recorder + Send>>>,
}

/// A cloneable handle to a shared probe pipeline.
#[derive(Clone)]
pub struct ProbeBus {
    inner: Option<Arc<BusInner>>,
}

impl Default for ProbeBus {
    fn default() -> Self {
        Self::disabled()
    }
}

impl fmt::Debug for ProbeBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeBus")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl ProbeBus {
    /// A disabled bus: emits are a single branch, nothing is recorded.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled bus with no recorders yet (attach some with
    /// [`ProbeBus::attach`]).
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(BusInner {
                clock_us: AtomicU64::new(0),
                counters: Arc::default(),
                staged: Staged::default(),
                recorders: Mutex::new(Vec::new()),
            })),
        }
    }

    /// An enabled bus with one recorder attached.
    pub fn with_recorder(recorder: impl Recorder + Send + 'static) -> Self {
        let bus = Self::enabled();
        bus.attach(recorder);
        bus
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a recorder; every subsequent emit fans out to it too, and
    /// it is handed the bus's counter block ([`Recorder::attached`]).
    ///
    /// Returns `false` (and drops the recorder) on a disabled bus — a
    /// disabled bus is permanently inert; build an enabled one instead.
    pub fn attach(&self, mut recorder: impl Recorder + Send + 'static) -> bool {
        match &self.inner {
            Some(inner) => {
                recorder.attached(&inner.counters);
                inner
                    .recorders
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Box::new(recorder));
                true
            }
            None => false,
        }
    }

    /// Advances the bus clock (called by the kernel as simulated time
    /// moves; cheap enough to call per event).
    pub fn set_time_us(&self, time_us: u64) {
        if let Some(inner) = &self.inner {
            inner.clock_us.store(time_us, Ordering::Relaxed);
        }
    }

    /// The current bus clock.
    pub fn time_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.clock_us.load(Ordering::Relaxed))
    }

    /// The counter block of an enabled bus, for the layer that bumps it
    /// ([`Counters::bump`]); `None` on a disabled bus.
    pub fn counters(&self) -> Option<Arc<Counters>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.counters))
    }

    /// Leaves the draw that chose the next thread for the kernel's
    /// `Decision` probe, replacing any draw not taken. Nothing on a
    /// disabled bus.
    #[inline]
    pub fn stage_draw(&self, draw: DrawRecord) {
        if let Some(inner) = &self.inner {
            // Relaxed: the policy stages and the kernel takes on one thread.
            let s = &inner.staged;
            let levels_shard = u64::from(draw.levels) << 32 | u64::from(draw.shard);
            s.levels_shard.store(levels_shard, Ordering::Relaxed);
            s.total.store(draw.total.to_bits(), Ordering::Relaxed);
            s.winning.store(draw.winning.to_bits(), Ordering::Relaxed);
            s.flags
                .store(1 | u8::from(draw.stolen) << 1, Ordering::Relaxed);
        }
    }

    /// Takes the staged draw, if a policy left one since the last take.
    pub fn take_draw(&self) -> Option<DrawRecord> {
        let s = &self.inner.as_ref()?.staged;
        // A load and a store, not a swap: the stager is this thread.
        let flags = s.flags.load(Ordering::Relaxed);
        if flags & 1 == 0 {
            return None;
        }
        s.flags.store(0, Ordering::Relaxed);
        let levels_shard = s.levels_shard.load(Ordering::Relaxed);
        Some(DrawRecord {
            levels: (levels_shard >> 32) as u32,
            total: f64::from_bits(s.total.load(Ordering::Relaxed)),
            winning: f64::from_bits(s.winning.load(Ordering::Relaxed)),
            shard: levels_shard as u32,
            stolen: flags & 2 != 0,
        })
    }

    /// Leaves a compensation grant's factor (above one) for the kernel's
    /// `QuantumEnd` probe. Nothing on a disabled bus.
    #[inline]
    pub fn stage_grant(&self, factor: f64) {
        if let Some(inner) = &self.inner {
            inner
                .staged
                .grant
                .store(factor.to_bits(), Ordering::Relaxed);
        }
    }

    /// Takes the staged grant's factor; 1 when no grant was staged.
    pub fn take_grant(&self) -> f64 {
        let Some(inner) = &self.inner else {
            return 1.0;
        };
        let grant = &inner.staged.grant;
        match grant.load(Ordering::Relaxed) {
            0 => 1.0,
            bits => {
                grant.store(0, Ordering::Relaxed);
                f64::from_bits(bits)
            }
        }
    }

    /// Emits an event to every recorder.
    ///
    /// The closure is only invoked when the bus is enabled, so disabled
    /// emission costs one branch and no payload construction.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> EventKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        let event = Event {
            time_us: inner.clock_us.load(Ordering::Relaxed),
            kind: build(),
        };
        let mut recorders = inner.recorders.lock().unwrap_or_else(|e| e.into_inner());
        for r in recorders.iter_mut() {
            r.record(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;
    use crate::recorder::Shared;

    #[test]
    fn disabled_bus_never_builds_payloads() {
        let bus = ProbeBus::disabled();
        let mut built = false;
        bus.emit(|| {
            built = true;
            EventKind::Wake { thread: 0 }
        });
        assert!(!built);
        assert!(!bus.is_enabled());
        assert!(!bus.attach(FlightRecorder::new(4)));
    }

    #[test]
    fn clones_share_recorders_and_clock() {
        let flight = Shared::new(FlightRecorder::new(16));
        let bus = ProbeBus::with_recorder(flight.clone());
        let clone = bus.clone();
        clone.set_time_us(42);
        bus.emit(|| EventKind::Wake { thread: 7 });
        assert_eq!(bus.time_us(), 42);
        flight.with(|f| {
            assert_eq!(f.len(), 1);
            let e = f.events().next().unwrap();
            assert_eq!(e.time_us, 42);
            assert_eq!(e.kind, EventKind::Wake { thread: 7 });
        });
    }

    #[test]
    fn fan_out_reaches_every_recorder() {
        let a = Shared::new(FlightRecorder::new(8));
        let b = Shared::new(FlightRecorder::new(8));
        let bus = ProbeBus::with_recorder(a.clone());
        bus.attach(b.clone());
        bus.emit(|| EventKind::Wake { thread: 1 });
        assert_eq!(a.with(|f| f.len()), 1);
        assert_eq!(b.with(|f| f.len()), 1);
    }

    #[test]
    fn disabled_bus_ignores_counts() {
        use crate::Aggregator;

        let bus = ProbeBus::disabled();
        let stats = Shared::new(Aggregator::new());
        assert!(!bus.attach(stats.clone()));
        assert!(bus.counters().is_none());
        bus.stage_draw(DrawRecord::default());
        bus.stage_grant(2.0);
        assert_eq!(bus.take_draw(), None);
        assert_eq!(bus.take_grant(), 1.0);
    }

    /// A staged draw and grant come back bit for bit, once each.
    #[test]
    fn staged_draw_and_grant_are_taken_once() {
        let bus = ProbeBus::enabled();
        assert_eq!(bus.take_draw(), None);
        let draw = DrawRecord {
            levels: 7,
            total: 700.25,
            winning: -1.0,
            shard: u32::MAX,
            stolen: true,
        };
        bus.stage_draw(DrawRecord::default());
        bus.stage_draw(draw);
        assert_eq!(bus.clone().take_draw(), Some(draw));
        assert_eq!(bus.take_draw(), None);
        bus.stage_grant(1.0 / 0.3);
        assert_eq!(bus.take_grant(), 1.0 / 0.3);
        assert_eq!(bus.take_grant(), 1.0);
    }
}
