//! Deterministic record/replay of simulated scheduling windows.
//!
//! A capture is a [`ReplayLog`]: a [`ReplayHeader`] stamping everything the
//! scheduler's behaviour depends on — the Park–Miller state the first draw
//! will consume, the draw counter, the [`SelectStructure`], the shard count,
//! the compensation switch, the quantum — plus the [`TraceSpec`] workload and
//! the probe-bus event stream the run emitted. Because every source of
//! nondeterminism is either stamped in the header or absent from the
//! simulator, re-running the same driver procedure from the header
//! ([`drive`]) must reproduce the recorded stream bit for bit; any
//! difference is a real behavioural change, surfaced by
//! [`first_divergence`] as the first index where the streams disagree.
//!
//! One exemption covers host-side cost telemetry that is not scheduling
//! behaviour: [`lottery_obs::EventKind::StructureRebuild`]'s `rebuild_ns`
//! field measures host wall-clock time, so divergence comparison
//! canonicalises it to zero (see [`lottery_obs::replay::canonical`]).
//!
//! [`record`] captures a fresh window; [`Replayer`] re-executes one and
//! diffs. [`job_outcomes`] reads per-job response time and stretch back
//! out of a capture.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use lottery_core::errors::LotteryError;
use lottery_core::rng::ParkMiller;
use lottery_obs::{
    first_divergence, Divergence, Event, EventKind, FlightRecorder, ProbeBus, ReplayHeader,
    ReplayLog, Shared, TraceJob, TraceSpec,
};

use crate::sched::distributed::{DistributedLottery, LIST_ONE_SHARD};
use crate::sched::lottery::{FundingSpec, SelectStructure};
use crate::smp::{SmpError, SmpKernel};
use crate::time::{SimDuration, SimTime};
use crate::workload::{Burst, Scripted};

/// Ring capacity used for captures and replays alike.
///
/// Both sides must use the same capacity: the ring drops oldest events on
/// overflow, so differing capacities would diff different windows.
pub const RING_CAPACITY: usize = 1 << 20;

/// The scheduler configuration a capture stamps into its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Park–Miller seed (normalised to the generator's state range).
    pub seed: u32,
    /// Lottery selection structure.
    pub structure: SelectStructure,
    /// `n >= 1` runs `n` CPUs under a [`DistributedLottery`] with `n`
    /// shards; `0`, the uniprocessor stamp, runs one shard on one CPU, as
    /// `1` does. A list runs on one shard only ([`DriveError::ListShards`]).
    pub shards: u32,
    /// Whether compensation tickets are granted (Section 3.4).
    pub compensation: bool,
    /// Scheduling quantum in microseconds; `0` keeps the policy default.
    pub quantum_us: u64,
    /// Simulated time the capture window ends at.
    pub until_us: u64,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            structure: SelectStructure::List,
            shards: 0,
            compensation: true,
            quantum_us: 0,
            until_us: SimTime::from_secs(1).as_us(),
        }
    }
}

/// Wire name of a [`SelectStructure`], as stored in replay headers.
pub fn structure_name(structure: SelectStructure) -> &'static str {
    match structure {
        SelectStructure::List => "list",
        SelectStructure::Tree => "tree",
        SelectStructure::Alias => "alias",
    }
}

/// Parses a replay-header structure name back to a [`SelectStructure`].
fn parse_structure(name: &str) -> Option<SelectStructure> {
    match name {
        "list" => Some(SelectStructure::List),
        "tree" => Some(SelectStructure::Tree),
        "alias" => Some(SelectStructure::Alias),
        _ => None,
    }
}

/// The burst script a [`TraceJob`] runs: its service demand, split around
/// one sleep when the job models an I/O phase. [`Scripted::once`] exits the
/// thread when the script is exhausted.
fn job_script(job: &TraceJob) -> Vec<Burst> {
    if job.service_us == 0 {
        return Vec::new();
    }
    if job.sleep_us == 0 {
        return vec![Burst::Run(SimDuration::from_us(job.service_us))];
    }
    let first = job.service_us / 2;
    let rest = job.service_us - first;
    let mut script = Vec::new();
    if first > 0 {
        script.push(Burst::Run(SimDuration::from_us(first)));
    }
    script.push(Burst::Sleep(SimDuration::from_us(job.sleep_us)));
    if rest > 0 {
        script.push(Burst::Run(SimDuration::from_us(rest)));
    }
    script
}

/// Jobs in deterministic spawn order: by arrival time, ties by spec index.
fn spawn_order(spec: &TraceSpec) -> Vec<(usize, &TraceJob)> {
    let mut jobs: Vec<(usize, &TraceJob)> = spec.jobs.iter().enumerate().collect();
    jobs.sort_by_key(|&(i, job)| (job.arrival_us, i));
    jobs
}

/// Why a capture could not be driven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveError {
    /// The header names no select structure this build knows.
    UnknownStructure(String),
    /// A `"list"` header with more than one shard ([`LIST_ONE_SHARD`]).
    ListShards(u32),
    /// The ledger refused to create the named currency of the workload.
    Currency(String, LotteryError),
    /// The kernel refused a burst of the workload.
    Kernel(SmpError),
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::UnknownStructure(name) => write!(f, "unknown select structure {name:?}"),
            DriveError::ListShards(shards) => write!(f, "{shards} shards: {LIST_ONE_SHARD}"),
            DriveError::Currency(name, e) => write!(f, "currency {name:?}: {e}"),
            DriveError::Kernel(e) => e.fmt(f),
        }
    }
}

impl Error for DriveError {}

/// Re-executes the driver procedure a header describes and returns the
/// probe-bus event stream it emits.
///
/// This is the single definition of "what a capture did": [`record`] calls
/// it to produce the recorded stream and [`Replayer::run`] calls it again
/// to produce the replayed one, so the two can only differ if the
/// scheduler itself behaved differently.
///
/// # Errors
///
/// Returns a [`DriveError`] when the header names an unknown structure or
/// a list over more than one shard, or a currency cannot be created (e.g.
/// duplicate names).
pub fn drive(header: &ReplayHeader) -> Result<Vec<Event>, DriveError> {
    let structure = parse_structure(&header.structure)
        .ok_or_else(|| DriveError::UnknownStructure(header.structure.clone()))?;
    let cpus = header.shards.max(1) as usize;
    if structure == SelectStructure::List && cpus > 1 {
        return Err(DriveError::ListShards(header.shards));
    }
    let mut policy = match header.quantum_us {
        0 => DistributedLottery::new(header.seed, cpus),
        q => DistributedLottery::with_quantum(header.seed, cpus, SimDuration::from_us(q)),
    };
    policy.set_structure(structure);
    policy.set_compensation_enabled(header.compensation);
    let base = policy.base_currency();
    let mut currencies = HashMap::new();
    for cur in &header.spec.currencies {
        let id = policy
            .create_currency(&cur.name, cur.amount)
            .map_err(|e| DriveError::Currency(cur.name.clone(), e))?;
        currencies.insert(cur.name.clone(), id);
    }

    let flight = Shared::new(FlightRecorder::new(RING_CAPACITY));
    let bus = ProbeBus::enabled();
    bus.attach(flight.clone());
    let mut kernel = SmpKernel::new(policy, cpus);
    kernel.set_probe_bus(bus);
    // Jobs spawn as they arrive, at their arrival time exactly.
    for &(i, job) in &spawn_order(&header.spec) {
        let arrival = SimTime::from_us(job.arrival_us);
        kernel.run_until(arrival).map_err(DriveError::Kernel)?;
        let cur = currencies.get(job.tenant.as_str()).copied().unwrap_or(base);
        let funding = FundingSpec::new(cur, job.tickets.max(1));
        let script = Box::new(Scripted::once(job_script(job)));
        kernel.spawn(format!("job{i}"), script, funding);
    }
    kernel
        .run_until(SimTime::from_us(header.until_us))
        .map_err(DriveError::Kernel)?;
    Ok(flight.with(|f| f.events().cloned().collect()))
}

/// Captures a fresh window: runs `spec` under `config` and returns the
/// header-stamped log.
///
/// # Errors
///
/// Propagates [`drive`] failures.
pub fn record(spec: TraceSpec, config: &CaptureConfig) -> Result<ReplayLog, DriveError> {
    let header = ReplayHeader {
        // `ParkMiller::new` normalises fixed-point seeds; stamping the
        // normalised state means replay re-seeds with the exact value the
        // first draw consumed.
        seed: ParkMiller::new(config.seed).state(),
        draws: 0,
        structure: structure_name(config.structure).to_string(),
        shards: config.shards,
        compensation: config.compensation,
        quantum_us: config.quantum_us,
        until_us: config.until_us,
        spec,
    };
    let events = drive(&header)?;
    Ok(ReplayLog { header, events })
}

/// The result of replaying a recorded window.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The event stream the replay produced.
    pub replayed: Vec<Event>,
    /// The first point where replay disagreed with the recording, if any.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Whether the replay reproduced the recording bit for bit (modulo
    /// the wall-clock `rebuild_ns` exemption).
    pub fn bit_exact(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Re-runs a recorded window from its header and diffs the streams.
#[derive(Debug, Clone)]
pub struct Replayer {
    log: ReplayLog,
}

impl Replayer {
    /// A replayer for `log`.
    pub fn new(log: ReplayLog) -> Self {
        Self { log }
    }

    /// The recording being replayed.
    pub fn log(&self) -> &ReplayLog {
        &self.log
    }

    /// Re-executes the capture and reports the first divergence, if any.
    ///
    /// # Errors
    ///
    /// Propagates [`drive`] failures (corrupt or hand-edited headers).
    pub fn run(&self) -> Result<ReplayReport, DriveError> {
        let replayed = drive(&self.log.header)?;
        let divergence = first_divergence(&self.log.events, &replayed);
        Ok(ReplayReport {
            replayed,
            divergence,
        })
    }
}

/// Per-job timing derived from a run's event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Index of the job in its [`TraceSpec`].
    pub job: usize,
    /// Thread id the job ran as.
    pub thread: u32,
    /// The job's spec arrival time, when it is spawned.
    pub arrival_us: u64,
    /// Simulated time the job exited.
    pub exit_us: u64,
    /// Response time: exit minus arrival.
    pub response_us: u64,
    /// Stretch: response time over service demand.
    pub stretch: f64,
}

/// Derives completed-job response times and stretches from an event
/// stream.
///
/// Jobs are matched to threads positionally: [`drive`] spawns jobs in
/// [`spawn_order`], so the `k`-th
/// [`EventKind::ThreadSpawn`] in the stream is the `k`-th job in that
/// order. Jobs still running when the stream ends are omitted.
pub fn job_outcomes(spec: &TraceSpec, events: &[Event]) -> Vec<JobOutcome> {
    let order = spawn_order(spec);
    let mut by_thread: HashMap<u32, usize> = HashMap::new();
    let mut spawned = 0usize;
    let mut out = Vec::new();
    for event in events {
        match event.kind {
            EventKind::ThreadSpawn { thread } => {
                if let Some(&(job, _)) = order.get(spawned) {
                    by_thread.insert(thread, job);
                }
                spawned += 1;
            }
            EventKind::ThreadExit { thread } => {
                if let Some(job) = by_thread.remove(&thread) {
                    let arrival_us = spec.jobs[job].arrival_us;
                    let response_us = event.time_us.saturating_sub(arrival_us);
                    let service = spec.jobs[job].service_us.max(1);
                    out.push(JobOutcome {
                        job,
                        thread,
                        arrival_us,
                        exit_us: event.time_us,
                        response_us,
                        stretch: response_us as f64 / service as f64,
                    });
                }
            }
            _ => {}
        }
    }
    out.sort_by_key(|o| o.job);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_obs::CurrencySnapshot;

    fn demo_spec() -> TraceSpec {
        TraceSpec {
            currencies: vec![
                CurrencySnapshot {
                    name: "alice".into(),
                    amount: 200,
                },
                CurrencySnapshot {
                    name: "bob".into(),
                    amount: 100,
                },
            ],
            jobs: vec![
                TraceJob {
                    arrival_us: 0,
                    service_us: 30_000,
                    sleep_us: 0,
                    tenant: "alice".into(),
                    tickets: 100,
                },
                TraceJob {
                    arrival_us: 5_000,
                    service_us: 20_000,
                    sleep_us: 4_000,
                    tenant: "bob".into(),
                    tickets: 100,
                },
                TraceJob {
                    arrival_us: 1_000,
                    service_us: 10_000,
                    sleep_us: 0,
                    tenant: "alice".into(),
                    tickets: 50,
                },
            ],
        }
    }

    fn demo_config(structure: SelectStructure, shards: u32) -> CaptureConfig {
        CaptureConfig {
            seed: 42,
            structure,
            shards,
            compensation: true,
            quantum_us: 0,
            until_us: 200_000,
        }
    }

    #[test]
    fn record_then_replay_is_bit_exact_uniprocessor() {
        for structure in [
            SelectStructure::List,
            SelectStructure::Tree,
            SelectStructure::Alias,
        ] {
            let log = record(demo_spec(), &demo_config(structure, 0)).unwrap();
            assert!(!log.events.is_empty());
            let report = Replayer::new(log).run().unwrap();
            assert!(
                report.bit_exact(),
                "{structure:?} diverged: {:?}",
                report.divergence
            );
        }
    }

    #[test]
    fn record_then_replay_is_bit_exact_distributed() {
        let log = record(demo_spec(), &demo_config(SelectStructure::Tree, 2)).unwrap();
        assert!(!log.events.is_empty());
        let report = Replayer::new(log).run().unwrap();
        assert!(report.bit_exact(), "diverged: {:?}", report.divergence);
    }

    #[test]
    fn list_over_shards_is_refused_by_name() {
        let err = record(demo_spec(), &demo_config(SelectStructure::List, 2)).unwrap_err();
        assert_eq!(err, DriveError::ListShards(2));
        // A hand-edited header is refused on replay the same way.
        let mut log = record(demo_spec(), &demo_config(SelectStructure::List, 1)).unwrap();
        log.header.shards = 4;
        let err = Replayer::new(log).run().unwrap_err();
        assert_eq!(err.to_string(), format!("4 shards: {LIST_ONE_SHARD}"));
    }

    #[test]
    fn replay_round_trips_through_jsonl() {
        let log = record(demo_spec(), &demo_config(SelectStructure::List, 0)).unwrap();
        let parsed = ReplayLog::from_jsonl(&log.to_jsonl()).unwrap();
        let report = Replayer::new(parsed).run().unwrap();
        assert!(report.bit_exact());
    }

    #[test]
    fn mutated_recording_reports_first_divergence() {
        let mut log = record(demo_spec(), &demo_config(SelectStructure::List, 0)).unwrap();
        let target = log.events.len() / 2;
        log.events[target].time_us += 1;
        let report = Replayer::new(log).run().unwrap();
        let div = report.divergence.expect("mutation must surface");
        assert_eq!(div.index, target);
        assert!(div.recorded.is_some() && div.replayed.is_some());
    }

    #[test]
    fn different_seed_diverges() {
        let log = record(demo_spec(), &demo_config(SelectStructure::List, 0)).unwrap();
        let mut other = log.clone();
        other.header.seed = ParkMiller::new(log.header.seed + 1).state();
        let report = Replayer::new(other).run().unwrap();
        assert!(report.divergence.is_some());
    }

    #[test]
    fn outcomes_cover_all_finished_jobs() {
        let spec = demo_spec();
        let log = record(spec.clone(), &demo_config(SelectStructure::List, 0)).unwrap();
        let outcomes = job_outcomes(&spec, &log.events);
        assert_eq!(outcomes.len(), spec.jobs.len());
        for o in &outcomes {
            assert_eq!(o.arrival_us, spec.jobs[o.job].arrival_us);
            assert!(o.exit_us >= o.arrival_us + spec.jobs[o.job].service_us);
            assert!(o.stretch >= 1.0);
        }
    }

    #[test]
    fn structure_names_round_trip() {
        for s in [
            SelectStructure::List,
            SelectStructure::Tree,
            SelectStructure::Alias,
        ] {
            assert_eq!(parse_structure(structure_name(s)), Some(s));
        }
        assert_eq!(parse_structure("mtf"), None);
    }
}
