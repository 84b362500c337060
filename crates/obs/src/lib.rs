//! Observability substrate for the lottery-scheduling stack.
//!
//! The paper's entire evaluation (Figures 4–9, Section 5.6) is built on
//! *observing* the scheduler: per-window shares, observed-vs-entitled
//! error, response-time distributions, and overhead. This crate provides
//! the measurement plumbing as a reusable layer below the ledger and the
//! simulator:
//!
//! * [`ProbeBus`] — a structured probe bus that is **zero-overhead when
//!   disabled**: a disabled bus is a single `Option` check, and event
//!   payloads are built lazily (via closure) only on an enabled bus. It
//!   has two tiers: events ([`ProbeBus::emit`]) go to every recorder
//!   synchronously; probes that are only ever counted (a [`Counter`])
//!   are bumped on the bus's [`Counters`] block, which recorders scrape
//!   when read. The block has one writer (the ledger), so a bump is a
//!   relaxed load and store, not a locked read-modify-write.
//! * [`Recorder`] — the sink trait. [`NopRecorder`] discards everything
//!   (for measuring bus overhead), [`FlightRecorder`] keeps a bounded ring
//!   of recent events, [`Aggregator`] folds events into counters and
//!   histograms, and [`FairnessMonitor`] derives per-client
//!   observed-vs-entitled share drift with a binomial z-score alarm
//!   (Figure 4's error statistics, continuously). [`DominantShareMonitor`]
//!   extends the same idea across resources: it folds disk/net completion
//!   and broker funding events into per-tenant dominant-share drift.
//! * [`PerThreadFlight`] — per-worker flight lanes for the real-thread
//!   backend, merged deterministically by `(time_us, lane, arrival)` at
//!   quiesce so multi-threaded captures stay reproducible.
//! * Exporters — JSONL flight records ([`FlightRecorder::to_jsonl`]),
//!   Chrome `trace_event` timeline JSON ([`FlightRecorder::to_chrome_trace`]),
//!   and a Prometheus-style text snapshot ([`Aggregator::prometheus_text`]).
//! * [`replay`] — deterministic record/replay logs: [`ReplayHeader`]
//!   stamps a capture with the RNG state, structure, shard count, and
//!   ledger snapshot; [`ReplayLog`] round-trips header + events through
//!   JSONL; [`first_divergence`] diffs a regenerated stream against the
//!   recording event by event. The re-execution lives in the simulator;
//!   this crate owns the artifact.
//! * [`json`] — the dependency-free JSON writer/parser backing every
//!   exporter (and `lotteryctl --json`).
//!
//! Events carry raw integer ids (thread/client indexes) and static string
//! tags, so this crate sits below `lottery-core` with no type
//! dependencies on the layers it observes.

pub mod aggregate;
pub mod bus;
pub mod dominant;
pub mod event;
pub mod fairness;
pub mod flight;
pub mod json;
pub mod perthread;
pub mod recorder;
pub mod replay;

pub use aggregate::Aggregator;
pub use bus::{Counter, Counters, DrawRecord, ProbeBus};
pub use dominant::{DominantShareMonitor, DominantShareReport, ResourceShareRow, TenantShareRow};
pub use event::{Event, EventKind};
pub use fairness::{DriftRow, FairnessMonitor, FairnessReport};
pub use flight::FlightRecorder;
pub use perthread::PerThreadFlight;
pub use recorder::{NopRecorder, Recorder, Shared};
pub use replay::{
    first_divergence, CurrencySnapshot, Divergence, ReplayHeader, ReplayLog, TraceJob, TraceSpec,
};
