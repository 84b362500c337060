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
//! is only a tag its consumer counts is a **counter** —
//! [`ProbeBus::count`], one relaxed `fetch_add` on the bus's [`Counters`]
//! block, no event, no lock, no recorder call; anything a replay or a
//! timeline needs is an **event** — [`ProbeBus::emit`], delivered
//! synchronously to every recorder. Counts are per bus; a recorder is
//! handed the block at [`ProbeBus::attach`] and reads it at scrape.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

/// The counter-tier probes: one valuation-cache lookup each.
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
}

impl Counter {
    /// How many counters there are: the length of a [`Counters`] block.
    pub const COUNT: usize = 4;
}

/// The counter block of one enabled bus: totals since the bus was built.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; Counter::COUNT]);

impl Counters {
    /// The current totals, indexed by `Counter as usize`.
    pub fn snapshot(&self) -> [u64; Counter::COUNT] {
        // Relaxed: statistics that publish no other data.
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

struct BusInner {
    /// The emitting kernel's clock, in microseconds; stamped onto every
    /// event so probes in clockless layers (the ledger) get coherent
    /// timestamps.
    clock_us: AtomicU64,
    counters: Arc<Counters>,
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

    /// Bumps a counter-tier probe: one branch on a disabled bus, one
    /// relaxed `fetch_add` on an enabled one.
    #[inline]
    pub fn count(&self, counter: Counter) {
        if let Some(inner) = &self.inner {
            inner.counters.0[counter as usize].fetch_add(1, Ordering::Relaxed);
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
        bus.emit(|| EventKind::LedgerOp { op: "issue" });
        assert_eq!(a.with(|f| f.len()), 1);
        assert_eq!(b.with(|f| f.len()), 1);
    }

    #[test]
    fn disabled_bus_ignores_counts() {
        use crate::Aggregator;

        let bus = ProbeBus::disabled();
        let stats = Shared::new(Aggregator::new());
        assert!(!bus.attach(stats.clone()));
        bus.count(Counter::ClientHit);
        assert_eq!(stats.with(|a| a.cache_hits + a.cache_misses), 0);
    }
}
