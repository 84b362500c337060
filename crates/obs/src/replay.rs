//! Deterministic record/replay logs.
//!
//! A lottery draw is a pure function of the Park–Miller stream and the
//! ticket ledger, so a scheduling window is *replayable*: stamp the
//! audit log with everything the draw depends on, re-run, and the two
//! event streams must match bit for bit. This module owns the artifact:
//!
//! * [`ReplayHeader`] — the stamp: RNG state and draw counter at capture
//!   start, the winner-search structure, the shard count, the
//!   compensation switch, the quantum, and a ledger snapshot (currencies
//!   plus per-job tickets) together with the workload trace
//!   ([`TraceSpec`]) that drove the window.
//! * [`ReplayLog`] — header plus the captured event stream, serialized
//!   as JSONL: the header on line one, one event per following line
//!   (the [`crate::event::Event::to_json`] record format).
//! * [`first_divergence`] — the event-by-event diff. Two streams are
//!   compared under [`canonical`], which zeroes the one wall-clock
//!   measurement field in the schema (`StructureRebuild::rebuild_ns`);
//!   everything else — times, winners, draw values, compensation
//!   factors — must be identical, and the first mismatch is reported
//!   with both sides' context.
//!
//! Both file formats here — the replay log and the standalone trace
//! corpus — are written and read through the field codec of
//! [`crate::event`] (`Put`/`Get`): a currency and a job each have one
//! wire form, stated once in `wire_record!`, and the codec's limits
//! (integers below 2^53, `json::MAX_DEPTH`) apply to headers as they do
//! to events.
//!
//! The re-execution itself lives upstream (in the simulator, which owns
//! kernels and policies); this module stays plain data so `lottery-obs`
//! keeps its position at the bottom of the crate graph.

// Loads captures from outside the program: a malformed one is an error,
// never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::event::{member, put_member, Event, EventKind, Get, Put};
use crate::json::{self, Value};

/// Replay log format version, written as the header's `replay` field.
pub const REPLAY_VERSION: u64 = 1;

/// Standalone trace corpus format version, written as the trace header's
/// `trace` field.
pub const TRACE_VERSION: u64 = 1;

/// One currency in the captured ledger: a subcurrency of the base,
/// backed by `amount` base tickets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurrencySnapshot {
    /// Currency name (unique within the capture).
    pub name: String,
    /// Base tickets backing the currency.
    pub amount: u64,
}

/// One job of the workload trace: when it arrives, what it demands, and
/// who pays for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceJob {
    /// Arrival time, in microseconds of simulated time.
    pub arrival_us: u64,
    /// Total CPU demand, in microseconds.
    pub service_us: u64,
    /// I/O mix: a sleep of this length splits the service demand in two
    /// (zero for a pure compute job).
    pub sleep_us: u64,
    /// Funding currency name (`"base"` or a [`CurrencySnapshot`] name).
    pub tenant: String,
    /// Tickets funding the job, denominated in the tenant currency.
    pub tickets: u64,
}

/// Gives a plain struct its wire form — an object of its fields, in the
/// order listed — as the one writer and one reader both file formats use.
macro_rules! wire_record {
    ($record:ident { $($field:ident),* }) => {
        impl Put for $record {
            fn put(&self, out: &mut String) {
                out.push('{');
                $(put_member(out, stringify!($field), &self.$field);)*
                out.push('}');
            }
        }

        impl Get for $record {
            fn get(v: &Value) -> Result<Self, String> {
                Ok($record {
                    $($field: member(v, stringify!($field))?,)*
                })
            }
        }
    };
}

wire_record!(CurrencySnapshot { name, amount });
wire_record!(TraceJob {
    arrival_us,
    service_us,
    sleep_us,
    tenant,
    tickets
});

/// A workload trace: the currencies to create and the jobs to run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSpec {
    /// Subcurrencies of the base, created before any job arrives.
    pub currencies: Vec<CurrencySnapshot>,
    /// Jobs, spawned in `arrival_us` order (ties in listed order).
    pub jobs: Vec<TraceJob>,
}

impl TraceSpec {
    /// Serializes the trace as a standalone JSONL corpus file: a
    /// `{"trace":1,"currencies":[...]}` header line, then one job object
    /// per line. Unlike a [`ReplayLog`], a trace file carries no RNG
    /// state or scheduler configuration — it is a portable workload
    /// description that external tools can generate and captures can be
    /// driven from.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.jobs.len() * 96);
        out.push('{');
        put_member(&mut out, "trace", &TRACE_VERSION);
        put_member(&mut out, "currencies", &self.currencies);
        out.push_str("}\n");
        for job in &self.jobs {
            job.put(&mut out);
            out.push('\n');
        }
        out
    }

    /// Loads a trace from its JSONL corpus serialization (the inverse of
    /// [`TraceSpec::to_jsonl`]).
    ///
    /// # Errors
    ///
    /// The first non-empty line must be a version-1 trace header and
    /// every following non-empty line a job object; anything else is
    /// reported with its line number.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines
            .by_ref()
            .find(|(_, l)| !l.trim().is_empty())
            .ok_or("empty trace file")?;
        let hv = json::parse(first).map_err(|e| format!("line 1: {e}"))?;
        let version: u64 = member(&hv, "trace").map_err(|e| format!("line 1: {e}"))?;
        if version != TRACE_VERSION {
            return Err(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            ));
        }
        let currencies = member(&hv, "currencies").map_err(|e| format!("line 1: {e}"))?;
        let mut jobs = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let job = json::parse(line)
                .and_then(|v| TraceJob::get(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            jobs.push(job);
        }
        Ok(TraceSpec { currencies, jobs })
    }

    /// Whether a serialized document looks like a standalone trace corpus
    /// (as opposed to a [`ReplayLog`], whose header carries `replay`):
    /// cheap format sniffing for tools that accept either.
    pub fn sniff(text: &str) -> bool {
        let Some(first) = text.lines().find(|l| !l.trim().is_empty()) else {
            return false;
        };
        match json::parse(first) {
            Ok(v) => v.get("trace").is_some(),
            Err(_) => false,
        }
    }
}

/// The replay stamp: scheduler configuration, RNG state, and the ledger
/// snapshot a re-execution starts from.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayHeader {
    /// Park–Miller state at capture start. Re-seeding with this value
    /// restores the draw stream exactly.
    pub seed: u32,
    /// Lotteries already held at capture start (audit context: position
    /// of the capture within the scheduler's lifetime).
    pub draws: u64,
    /// Winner-search structure: `"list"`, `"tree"`, or `"alias"`.
    pub structure: String,
    /// Distributed shard count; `0` selects the uniprocessor kernel,
    /// `n > 0` an n-CPU machine with per-CPU shard trees.
    pub shards: u32,
    /// Whether compensation tickets (Section 4.5) were enabled.
    pub compensation: bool,
    /// Scheduler quantum, in microseconds.
    pub quantum_us: u64,
    /// Simulated end of the captured window, in microseconds.
    pub until_us: u64,
    /// The workload trace and ledger snapshot that produced the window.
    pub spec: TraceSpec,
}

impl ReplayHeader {
    /// Serializes the header as the one-line JSON object heading a
    /// replay log.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.spec.jobs.len() * 96);
        s.push('{');
        put_member(&mut s, "replay", &REPLAY_VERSION);
        put_member(&mut s, "seed", &self.seed);
        put_member(&mut s, "draws", &self.draws);
        put_member(&mut s, "structure", &self.structure);
        put_member(&mut s, "shards", &self.shards);
        put_member(&mut s, "compensation", &self.compensation);
        put_member(&mut s, "quantum_us", &self.quantum_us);
        put_member(&mut s, "until_us", &self.until_us);
        put_member(&mut s, "currencies", &self.spec.currencies);
        put_member(&mut s, "jobs", &self.spec.jobs);
        s.push('}');
        s
    }

    /// Parses a header object (the inverse of [`ReplayHeader::to_json`]).
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let version: u64 = member(v, "replay")?;
        if version != REPLAY_VERSION {
            return Err(format!(
                "unsupported replay log version {version} (expected {REPLAY_VERSION})"
            ));
        }
        Ok(ReplayHeader {
            seed: member(v, "seed")?,
            draws: member(v, "draws")?,
            structure: member(v, "structure")?,
            shards: member(v, "shards")?,
            compensation: member(v, "compensation")?,
            quantum_us: member(v, "quantum_us")?,
            until_us: member(v, "until_us")?,
            spec: TraceSpec {
                currencies: member(v, "currencies")?,
                jobs: member(v, "jobs")?,
            },
        })
    }
}

/// A captured window: the replay stamp plus the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayLog {
    /// The replay stamp.
    pub header: ReplayHeader,
    /// The captured events, oldest first.
    pub events: Vec<Event>,
}

impl ReplayLog {
    /// Serializes the log as JSONL: the header line, then one event per
    /// line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str(&self.header.to_json());
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Loads a log from its JSONL serialization.
    ///
    /// # Errors
    ///
    /// The first line must be a version-1 replay header and every
    /// following non-empty line a parseable event record; anything else
    /// is reported with its line number.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines
            .by_ref()
            .find(|(_, l)| !l.trim().is_empty())
            .ok_or("empty replay log")?;
        let hv = json::parse(first).map_err(|e| format!("line 1: {e}"))?;
        let header = ReplayHeader::from_json(&hv).map_err(|e| format!("line 1: {e}"))?;
        let mut events = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            events.push(Event::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(ReplayLog { header, events })
    }
}

/// The first point where a recorded and a regenerated stream disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the first divergent event (0-based position in the
    /// stream).
    pub index: usize,
    /// The recorded side at that index (`None`: the recording ended
    /// early).
    pub recorded: Option<Event>,
    /// The replayed side at that index (`None`: the replay ended early).
    pub replayed: Option<Event>,
}

/// Canonicalizes an event for divergence comparison: the one wall-clock
/// measurement field in the schema (`StructureRebuild::rebuild_ns`) is
/// zeroed, because a rebuild's duration is a property of the recording
/// machine, not of the schedule being audited. Every simulated-time and
/// decision field is kept verbatim.
pub fn canonical(mut e: Event) -> Event {
    if let EventKind::StructureRebuild { rebuild_ns, .. } = &mut e.kind {
        *rebuild_ns = 0;
    }
    e
}

/// Compares two event streams event by event (under [`canonical`]) and
/// returns the first divergence, or `None` when they are bit-identical.
///
/// A stream ending early diverges at its end: the missing side is
/// reported as `None`.
pub fn first_divergence(recorded: &[Event], replayed: &[Event]) -> Option<Divergence> {
    let n = recorded.len().max(replayed.len());
    for i in 0..n {
        let a = recorded.get(i).copied();
        let b = replayed.get(i).copied();
        if a.map(canonical) != b.map(canonical) {
            return Some(Divergence {
                index: i,
                recorded: a,
                replayed: b,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ReplayHeader {
        ReplayHeader {
            seed: 12345,
            draws: 7,
            structure: "tree".into(),
            shards: 2,
            compensation: true,
            quantum_us: 100_000,
            until_us: 30_000_000,
            spec: TraceSpec {
                currencies: vec![
                    CurrencySnapshot {
                        name: "gold".into(),
                        amount: 200,
                    },
                    CurrencySnapshot {
                        name: "silver".into(),
                        amount: 100,
                    },
                ],
                jobs: vec![
                    TraceJob {
                        arrival_us: 0,
                        service_us: 5_000_000,
                        sleep_us: 0,
                        tenant: "gold".into(),
                        tickets: 100,
                    },
                    TraceJob {
                        arrival_us: 250_000,
                        service_us: 1_000_000,
                        sleep_us: 40_000,
                        tenant: "base".into(),
                        tickets: 300,
                    },
                ],
            },
        }
    }

    fn events() -> Vec<Event> {
        vec![
            Event {
                time_us: 0,
                kind: EventKind::ThreadSpawn { thread: 0 },
            },
            Event {
                time_us: 100_000,
                kind: EventKind::LotteryDraw {
                    structure: "tree",
                    entries: 2,
                    levels: 1,
                    total: 400.0,
                    winning: 123.456,
                    winner: 0,
                },
            },
            Event {
                time_us: 200_000,
                kind: EventKind::ThreadExit { thread: 0 },
            },
        ]
    }

    #[test]
    fn trace_round_trips_through_jsonl() {
        let spec = header().spec;
        let text = spec.to_jsonl();
        let back = TraceSpec::from_jsonl(&text).expect("trace parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn trace_rejects_wrong_version() {
        let text = header()
            .spec
            .to_jsonl()
            .replace("\"trace\":1", "\"trace\":9");
        assert!(TraceSpec::from_jsonl(&text)
            .unwrap_err()
            .contains("version 9"));
    }

    #[test]
    fn trace_reports_bad_job_line_number() {
        let mut text = header().spec.to_jsonl();
        text.push_str("{\"arrival_us\":1}\n");
        let err = TraceSpec::from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
    }

    #[test]
    fn sniff_tells_traces_from_replay_logs() {
        assert!(TraceSpec::sniff(&header().spec.to_jsonl()));
        assert!(!TraceSpec::sniff(&header().to_json()));
        assert!(!TraceSpec::sniff(""));
        assert!(!TraceSpec::sniff("not json"));
    }

    #[test]
    fn log_round_trips_through_jsonl() {
        let log = ReplayLog {
            header: header(),
            events: events(),
        };
        let text = log.to_jsonl();
        let back = ReplayLog::from_jsonl(&text).expect("log parses");
        assert_eq!(back, log);
    }

    /// The header carries every job on one line, so the reader must be
    /// linear in the line: 32 000 jobs (2.3 MB) took the quadratic string
    /// reader a minute and a half.
    #[test]
    fn large_header_parses_and_round_trips() {
        let mut h = header();
        h.spec.jobs = (0..32_000u64)
            .map(|i| TraceJob {
                arrival_us: i * 1_000,
                service_us: 5_000_000 + i,
                sleep_us: i % 7 * 10_000,
                tenant: if i % 3 == 0 { "gold" } else { "silver — ½" }.into(),
                tickets: 100 + i % 50,
            })
            .collect();
        let text = h.to_json();
        assert!(text.len() > 2_000_000);
        let back = ReplayHeader::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json(), text);
    }

    /// 2^53 + 1 would come back as 2^53 through the parser's `f64`; both
    /// file formats refuse it, naming the field.
    #[test]
    fn amounts_and_tickets_past_exact_range_are_rejected() {
        let header_text = header()
            .to_json()
            .replace("\"amount\":200", "\"amount\":9007199254740993");
        let err = ReplayHeader::from_json(&json::parse(&header_text).unwrap()).unwrap_err();
        assert!(err.contains("\"amount\"") && err.contains("2^53"), "{err}");

        let trace_text = header()
            .spec
            .to_jsonl()
            .replace("\"tickets\":300", "\"tickets\":9007199254740993");
        let err = TraceSpec::from_jsonl(&trace_text).unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("\"tickets\""),
            "{err}"
        );

        let wide = header()
            .to_json()
            .replace("\"shards\":2", "\"shards\":4294967296");
        let err = ReplayHeader::from_json(&json::parse(&wide).unwrap()).unwrap_err();
        assert!(err.contains("\"shards\" overflows u32"), "{err}");
    }

    #[test]
    fn header_rejects_wrong_version() {
        let mut text = header().to_json();
        text = text.replace("\"replay\":1", "\"replay\":99");
        let v = json::parse(&text).unwrap();
        assert!(ReplayHeader::from_json(&v)
            .unwrap_err()
            .contains("version 99"));
    }

    #[test]
    fn from_jsonl_reports_bad_event_line_number() {
        let mut text = header().to_json();
        text.push('\n');
        text.push_str("{\"t_us\":1,\"kind\":\"no-such-event\"}\n");
        let err = ReplayLog::from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        assert_eq!(first_divergence(&events(), &events()), None);
    }

    #[test]
    fn mutated_event_is_reported_at_its_index() {
        let recorded = events();
        let mut replayed = events();
        if let EventKind::LotteryDraw { winner, .. } = &mut replayed[1].kind {
            *winner = 1;
        }
        let d = first_divergence(&recorded, &replayed).expect("divergence found");
        assert_eq!(d.index, 1);
        assert_eq!(d.recorded, Some(recorded[1]));
        assert_eq!(d.replayed, Some(replayed[1]));
    }

    #[test]
    fn short_stream_diverges_at_its_end() {
        let recorded = events();
        let replayed = &recorded[..2];
        let d = first_divergence(&recorded, replayed).expect("divergence found");
        assert_eq!(d.index, 2);
        assert_eq!(d.recorded, Some(recorded[2]));
        assert_eq!(d.replayed, None);
    }

    #[test]
    fn rebuild_wall_clock_cost_is_not_a_divergence() {
        let a = vec![Event {
            time_us: 5,
            kind: EventKind::StructureRebuild {
                structure: "alias",
                clients: 10,
                stale: 2,
                rebuild_ns: 1234,
            },
        }];
        let mut b = a.clone();
        if let EventKind::StructureRebuild { rebuild_ns, .. } = &mut b[0].kind {
            *rebuild_ns = 99_999;
        }
        assert_eq!(first_divergence(&a, &b), None);
    }
}
