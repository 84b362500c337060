//! Sinks for the probe bus: events are pushed, counters are scraped.
//!
//! [`Recorder::record`] is the only method a sink must implement. A sink
//! that also reports the bus's counter tier keeps the block
//! [`Recorder::attached`] hands it and folds it into its own state in
//! [`Recorder::refresh`], which [`Shared::with`] calls on behalf of every
//! reader — so the counted probes cost the emitter one `fetch_add` and the
//! reader four loads.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::bus::Counters;
use crate::event::Event;

/// A probe-event sink.
///
/// Recorders are driven synchronously from the emitting thread; they must
/// be cheap and must never call back into the instrumented layers.
pub trait Recorder {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Called by [`crate::ProbeBus::attach`] with the bus's counter block.
    /// A recorder keeps the block, never the bus (which owns the recorder).
    fn attached(&mut self, _counters: &Arc<Counters>) {}

    /// Brings counter-derived state up to date before a reader looks.
    fn refresh(&mut self) {}
}

/// A recorder that discards everything.
///
/// Attaching it keeps the bus *enabled* — every probe point still builds
/// its payload — which is exactly what the overhead benchmarks need to
/// price the bus machinery separately from any real sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopRecorder;

impl Recorder for NopRecorder {
    fn record(&mut self, _event: &Event) {}
}

/// A shared, cloneable handle around a recorder.
///
/// The bus owns its recorders as boxed trait objects; wrapping a recorder
/// in `Shared` lets the caller keep a handle for reading results back out
/// after (or during) a run while a clone lives on the bus.
#[derive(Debug, Default)]
pub struct Shared<R>(Arc<Mutex<R>>);

impl<R> Clone for Shared<R> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<R> Shared<R> {
    /// Wraps a recorder for shared access.
    pub fn new(recorder: R) -> Self {
        Self(Arc::new(Mutex::new(recorder)))
    }

    fn lock(&self) -> MutexGuard<'_, R> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<R: Recorder> Shared<R> {
    /// Runs `f` with exclusive access to the recorder, refreshed first so
    /// the reader sees the counter tier as of this call.
    pub fn with<T>(&self, f: impl FnOnce(&mut R) -> T) -> T {
        let mut guard = self.lock();
        guard.refresh();
        f(&mut guard)
    }
}

impl<R: Recorder> Recorder for Shared<R> {
    fn record(&mut self, event: &Event) {
        self.lock().record(event);
    }

    fn attached(&mut self, counters: &Arc<Counters>) {
        self.lock().attached(counters);
    }

    fn refresh(&mut self) {
        self.lock().refresh();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::{FlightRecorder, ProbeBus};

    #[test]
    fn shared_handle_sees_recorded_events() {
        struct Count(u64);
        impl Recorder for Count {
            fn record(&mut self, _: &Event) {
                self.0 += 1;
            }
        }
        let shared = Shared::new(Count(0));
        let mut on_bus = shared.clone();
        on_bus.record(&Event {
            time_us: 0,
            kind: EventKind::Wake { thread: 1 },
        });
        assert_eq!(shared.with(|c| c.0), 1);
    }

    #[test]
    fn shared_forwards_the_counter_hooks() {
        #[derive(Default)]
        struct Hooks {
            attached: u32,
            refreshed: u32,
        }
        impl Recorder for Hooks {
            fn record(&mut self, _: &Event) {}
            fn attached(&mut self, _: &Arc<Counters>) {
                self.attached += 1;
            }
            fn refresh(&mut self) {
                self.refreshed += 1;
            }
        }
        let shared = Shared::new(Hooks::default());
        let bus = ProbeBus::with_recorder(shared.clone());
        bus.emit(|| EventKind::Wake { thread: 1 });
        // One attach, no refresh per event; each read refreshes first.
        assert_eq!(shared.with(|h| (h.attached, h.refreshed)), (1, 1));
        // The forwarded call is one more, and this read another.
        shared.clone().refresh();
        assert_eq!(shared.with(|h| h.refreshed), 3);
    }

    /// The shape of the benchmark's `Timed<R>`: a wrapper from outside the
    /// crate that implements `record` and nothing else.
    #[test]
    fn a_wrapper_implementing_only_record_receives_every_event() {
        struct Wrapper<R>(R);
        impl<R: Recorder> Recorder for Wrapper<R> {
            fn record(&mut self, event: &Event) {
                self.0.record(event);
            }
        }
        let flight = Shared::new(FlightRecorder::new(8));
        let bus = ProbeBus::with_recorder(Wrapper(flight.clone()));
        for thread in 0..3 {
            bus.emit(|| EventKind::Wake { thread });
        }
        assert_eq!(flight.with(|f| f.len()), 3);
    }
}
