//! The flight recorder: a bounded ring of recent events plus exporters.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;
use crate::replay::{ReplayHeader, ReplayLog};

/// Chrome-trace process id carrying instant events (wakes, draws, RPC
/// endpoints). Instants get their own track: putting them on `pid: 0`
/// would merge them onto CPU 0's slice track in Perfetto and misread as
/// CPU-0 activity on any multiprocessor capture.
pub const INSTANT_TRACK: u32 = 1_000_000;

/// Events per block of a [`FlightRecorder`]'s ring (56 KiB).
const BLOCK: usize = 1024;

/// A bounded ring buffer of probe events.
///
/// Keeps the most recent `capacity` events, counting evictions, and
/// replays its contents as JSONL records or a Chrome `trace_event`
/// timeline.
///
/// The ring is a list of fixed-size blocks, allocated as events arrive.
/// A recorder that sees few events holds little memory, and a large one
/// is never one allocation the size of its whole window: a 3.5 MiB ring
/// made and dropped over and over (one per simulation run) left a hole in
/// the allocator's heap that any other allocation could split, so the next
/// ring landed on fresh pages and the process's peak resident set stepped
/// up by a whole ring at a point that depended on the caller's other
/// allocations.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Slot `i` of the ring is `blocks[i / BLOCK][i % BLOCK]`; every block
    /// but the last holds `BLOCK` events.
    blocks: Vec<Vec<Event>>,
    /// The slot of the oldest event once the ring is full, else 0.
    head: usize,
    len: usize,
    capacity: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        Self {
            blocks: Vec::new(),
            head: 0,
            len: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        let slots = || self.blocks.iter().flatten();
        slots().skip(self.head).chain(slots().take(self.head))
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards every retained event and the blocks that held them (the
    /// eviction counter survives).
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Serializes the retained events as JSONL: one JSON object per line,
    /// oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len * 96);
        for event in self.events() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Packages the retained events (oldest first) with a replay stamp
    /// into a [`ReplayLog`], ready for [`ReplayLog::to_jsonl`].
    ///
    /// The header is the scheduler's business — RNG state, structure,
    /// ledger snapshot — so the caller supplies it; the recorder
    /// contributes the captured window.
    pub fn to_replay_log(&self, header: ReplayHeader) -> ReplayLog {
        ReplayLog {
            header,
            events: self.events().copied().collect(),
        }
    }

    /// Serializes the retained events as a Chrome `trace_event` document
    /// (load it at `chrome://tracing` or in Perfetto).
    ///
    /// Dispatch→quantum-end pairs become complete (`"X"`) slices on a
    /// per-CPU track; wakes, draws, and RPC endpoints become instants on
    /// the dedicated [`INSTANT_TRACK`]; dispatches still in flight when
    /// the ring is dumped become open (`"B"`) slices so the tail of a
    /// capture stays visible.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        // In-flight dispatches: thread -> (start time, cpu, queue depth).
        let mut running: HashMap<u32, (u64, u32, u32)> = HashMap::new();
        for event in self.events() {
            let t = event.time_us;
            match event.kind {
                EventKind::Dispatch {
                    thread,
                    cpu,
                    queue_depth,
                    ..
                } => {
                    running.insert(thread, (t, cpu, queue_depth));
                }
                EventKind::QuantumEnd {
                    thread,
                    cpu,
                    reason,
                    ..
                } => {
                    let (start, start_cpu, depth) = running.remove(&thread).unwrap_or((t, cpu, 0));
                    let mut s = String::with_capacity(128);
                    let _ = write!(
                        s,
                        "{{\"name\":\"thread {thread}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{},\"pid\":{start_cpu},\"tid\":{thread},\"args\":{{\"reason\":\"{reason}\",\"queue_depth\":{depth}}}}}",
                        t.saturating_sub(start)
                    );
                    push(s, &mut first);
                }
                EventKind::Wake { thread } => {
                    push(
                        format!(
                            "{{\"name\":\"wake\",\"ph\":\"i\",\"ts\":{t},\"pid\":{INSTANT_TRACK},\"tid\":{thread},\"s\":\"t\"}}"
                        ),
                        &mut first,
                    );
                }
                EventKind::LotteryDraw {
                    structure, winner, ..
                } => {
                    push(
                        format!(
                            "{{\"name\":\"draw:{structure}\",\"ph\":\"i\",\"ts\":{t},\"pid\":{INSTANT_TRACK},\"tid\":{winner},\"s\":\"t\"}}"
                        ),
                        &mut first,
                    );
                }
                EventKind::RpcDeliver { client, server } => {
                    push(
                        format!(
                            "{{\"name\":\"rpc-deliver:{client}\",\"ph\":\"i\",\"ts\":{t},\"pid\":{INSTANT_TRACK},\"tid\":{server},\"s\":\"t\"}}"
                        ),
                        &mut first,
                    );
                }
                EventKind::RpcReply { client, server } => {
                    push(
                        format!(
                            "{{\"name\":\"rpc-reply:{client}\",\"ph\":\"i\",\"ts\":{t},\"pid\":{INSTANT_TRACK},\"tid\":{server},\"s\":\"t\"}}"
                        ),
                        &mut first,
                    );
                }
                _ => {}
            }
        }
        // Dispatches with no quantum-end in the ring are still on-CPU at
        // dump time. Emit them as open ("B") slices at their start so
        // the capture's tail is visible instead of silently dropped;
        // sort for a deterministic document.
        let mut open: Vec<(u32, (u64, u32, u32))> = running.into_iter().collect();
        open.sort_unstable();
        for (thread, (start, cpu, depth)) in open {
            push(
                format!(
                    "{{\"name\":\"thread {thread}\",\"ph\":\"B\",\"ts\":{start},\"pid\":{cpu},\"tid\":{thread},\"args\":{{\"queue_depth\":{depth}}}}}"
                ),
                &mut first,
            );
        }
        out.push_str("]}");
        out
    }
}

impl Recorder for FlightRecorder {
    fn record(&mut self, event: &Event) {
        if self.len == self.capacity {
            // Full: the newest event takes the oldest one's slot.
            self.blocks[self.head / BLOCK][self.head % BLOCK] = *event;
            self.head = if self.head + 1 == self.capacity {
                0
            } else {
                self.head + 1
            };
            self.dropped += 1;
            return;
        }
        match self.blocks.last_mut() {
            Some(block) if block.len() < BLOCK => block.push(*event),
            _ => {
                let mut block = Vec::with_capacity(BLOCK.min(self.capacity - self.len));
                block.push(*event);
                self.blocks.push(block);
            }
        }
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(time_us: u64, kind: EventKind) -> Event {
        Event { time_us, kind }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut f = FlightRecorder::new(2);
        f.record(&ev(1, EventKind::Wake { thread: 0 }));
        f.record(&ev(2, EventKind::Wake { thread: 1 }));
        f.record(&ev(3, EventKind::Wake { thread: 2 }));
        assert_eq!(f.len(), 2);
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.events().next().unwrap().time_us, 2);
    }

    #[test]
    fn ring_across_blocks_matches_a_deque() {
        let total = 4 * BLOCK as u64 + 3;
        // Below, at and past one block, and not a multiple of one.
        for capacity in [1, 7, BLOCK, BLOCK + 1, 3 * BLOCK - 5] {
            let mut f = FlightRecorder::new(capacity);
            let mut model = std::collections::VecDeque::new();
            for t in 0..total {
                f.record(&ev(t, EventKind::Wake { thread: 0 }));
                if model.len() == capacity {
                    model.pop_front();
                }
                model.push_back(t);
                if t % 97 == 0 || t + 1 == total {
                    let times: Vec<u64> = f.events().map(|e| e.time_us).collect();
                    assert_eq!(
                        times,
                        Vec::from(model.clone()),
                        "capacity {capacity}, t {t}"
                    );
                }
            }
            assert_eq!(f.len(), capacity);
            assert_eq!(f.dropped(), total - capacity as u64);
            assert_eq!(f.blocks.len(), capacity.div_ceil(BLOCK));
            f.clear();
            assert!(f.is_empty() && f.blocks.is_empty());
            f.record(&ev(total, EventKind::Wake { thread: 0 }));
            let times: Vec<u64> = f.events().map(|e| e.time_us).collect();
            assert_eq!(times, [total]);
            assert_eq!(f.dropped(), total - capacity as u64);
        }
    }

    #[test]
    fn blocks_are_allocated_as_events_arrive() {
        let mut f = FlightRecorder::new(1 << 16);
        assert!(f.blocks.is_empty());
        for t in 0..=BLOCK as u64 {
            f.record(&ev(t, EventKind::Wake { thread: 0 }));
        }
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.dropped(), 0);
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let mut f = FlightRecorder::new(8);
        f.record(&ev(
            10,
            EventKind::Dispatch {
                thread: 0,
                cpu: 0,
                wait_us: 5,
                queue_depth: 1,
            },
        ));
        f.record(&ev(20, EventKind::LedgerOp { op: "issue" }));
        let jsonl = f.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            json::parse(line).expect("line parses");
        }
    }

    #[test]
    fn chrome_trace_pairs_dispatch_with_quantum_end() {
        let mut f = FlightRecorder::new(8);
        f.record(&ev(
            100,
            EventKind::Dispatch {
                thread: 3,
                cpu: 1,
                wait_us: 0,
                queue_depth: 2,
            },
        ));
        f.record(&ev(
            400,
            EventKind::QuantumEnd {
                thread: 3,
                cpu: 1,
                reason: "quantum-expired",
                used_us: 300,
            },
        ));
        f.record(&ev(450, EventKind::Wake { thread: 5 }));
        let doc = f.to_chrome_trace();
        let v = json::parse(&doc).expect("chrome trace parses");
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 2);
        let slice = &events[0];
        assert_eq!(slice.get("ph").and_then(json::Value::as_str), Some("X"));
        assert_eq!(slice.get("ts").and_then(json::Value::as_f64), Some(100.0));
        assert_eq!(slice.get("dur").and_then(json::Value::as_f64), Some(300.0));
        assert_eq!(slice.get("pid").and_then(json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn instants_live_on_their_own_track() {
        let mut f = FlightRecorder::new(8);
        f.record(&ev(10, EventKind::Wake { thread: 5 }));
        f.record(&ev(
            20,
            EventKind::LotteryDraw {
                structure: "tree",
                entries: 2,
                levels: 1,
                total: 300.0,
                winning: 10.0,
                winner: 1,
            },
        ));
        f.record(&ev(
            30,
            EventKind::RpcDeliver {
                client: 1,
                server: 2,
            },
        ));
        f.record(&ev(
            40,
            EventKind::RpcReply {
                client: 1,
                server: 2,
            },
        ));
        let v = json::parse(&f.to_chrome_trace()).unwrap();
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 4);
        for e in events {
            assert_eq!(e.get("ph").and_then(json::Value::as_str), Some("i"));
            assert_eq!(
                e.get("pid").and_then(json::Value::as_f64),
                Some(f64::from(INSTANT_TRACK)),
                "instants must not share a pid with CPU slice tracks"
            );
        }
    }

    #[test]
    fn in_flight_dispatches_become_open_slices() {
        let mut f = FlightRecorder::new(8);
        f.record(&ev(
            100,
            EventKind::Dispatch {
                thread: 3,
                cpu: 1,
                wait_us: 0,
                queue_depth: 2,
            },
        ));
        f.record(&ev(
            150,
            EventKind::Dispatch {
                thread: 4,
                cpu: 0,
                wait_us: 0,
                queue_depth: 1,
            },
        ));
        f.record(&ev(
            400,
            EventKind::QuantumEnd {
                thread: 3,
                cpu: 1,
                reason: "quantum-expired",
                used_us: 300,
            },
        ));
        // Thread 4 never ends its quantum inside the window.
        let v = json::parse(&f.to_chrome_trace()).unwrap();
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 2);
        let open = events
            .iter()
            .find(|e| e.get("ph").and_then(json::Value::as_str) == Some("B"))
            .expect("open slice for the in-flight dispatch");
        assert_eq!(open.get("ts").and_then(json::Value::as_f64), Some(150.0));
        assert_eq!(open.get("tid").and_then(json::Value::as_f64), Some(4.0));
        assert_eq!(open.get("pid").and_then(json::Value::as_f64), Some(0.0));
    }

    #[test]
    fn to_replay_log_carries_ring_and_header() {
        use crate::replay::{ReplayHeader, TraceSpec};
        let mut f = FlightRecorder::new(4);
        f.record(&ev(1, EventKind::ThreadSpawn { thread: 0 }));
        f.record(&ev(2, EventKind::ThreadExit { thread: 0 }));
        let header = ReplayHeader {
            seed: 42,
            draws: 0,
            structure: "list".into(),
            shards: 0,
            compensation: true,
            quantum_us: 100_000,
            until_us: 1_000_000,
            spec: TraceSpec::default(),
        };
        let log = f.to_replay_log(header.clone());
        assert_eq!(log.header, header);
        assert_eq!(log.events.len(), 2);
        let back = crate::replay::ReplayLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(back, log);
    }
}
