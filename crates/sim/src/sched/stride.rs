//! Stride scheduling: the deterministic counterpart to lottery scheduling.
//!
//! Stride scheduling is the authors' follow-up to the lottery work
//! (Waldspurger & Weihl, *Stride Scheduling: Deterministic
//! Proportional-Share Resource Management*, MIT/LCS/TM-528, 1995). Each
//! client has a *stride* inversely proportional to its tickets and a *pass*
//! value; the client with the minimum pass runs next, advancing its pass by
//! its stride scaled by the fraction of the quantum actually used.
//!
//! It allocates the same long-run proportions as the lottery with far lower
//! short-term variance, which is exactly what the de-randomization ablation
//! (the workspace's `tests/ablations.rs`) measures.

use std::collections::BinaryHeap;

use super::{EndReason, Policy};
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// The stride constant: `stride = STRIDE1 / tickets`.
pub const STRIDE1: u64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct StrideState {
    tickets: u64,
    stride: u64,
    pass: u64,
    queued: bool,
}

/// Min-pass entry for the ready heap (reversed for `BinaryHeap`).
#[derive(Debug, PartialEq, Eq)]
struct Entry {
    pass: u64,
    seq: u64,
    tid: ThreadId,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: smallest pass first; ties broken by arrival order.
        other
            .pass
            .cmp(&self.pass)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic proportional-share policy.
#[derive(Debug)]
pub struct StridePolicy {
    heap: BinaryHeap<Entry>,
    state: Vec<StrideState>,
    quantum: SimDuration,
    seq: u64,
    /// Pass of the most recently picked client: rejoining threads start
    /// here rather than at a stale (unfairly small) pass.
    global_pass: u64,
    ready: usize,
}

impl StridePolicy {
    /// Creates a stride policy with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        Self {
            heap: BinaryHeap::new(),
            state: Vec::new(),
            quantum,
            seq: 0,
            global_pass: 0,
            ready: 0,
        }
    }

    /// Changes a thread's ticket allocation, recomputing its stride.
    ///
    /// Takes effect at the thread's next enqueue (pass values already in
    /// the heap are not rewritten, matching the lottery policy where ticket
    /// changes apply at the next draw).
    pub fn set_tickets(&mut self, tid: ThreadId, tickets: u64) {
        let s = &mut self.state[tid.index() as usize];
        s.tickets = tickets.max(1);
        s.stride = STRIDE1 / s.tickets;
    }

    /// A thread's current tickets.
    pub fn tickets(&self, tid: ThreadId) -> u64 {
        self.state[tid.index() as usize].tickets
    }
}

impl Policy for StridePolicy {
    /// The thread's ticket count (minimum 1).
    type Spec = u64;

    fn on_spawn(&mut self, tid: ThreadId, tickets: u64) {
        let idx = tid.index() as usize;
        if self.state.len() <= idx {
            self.state.resize(
                idx + 1,
                StrideState {
                    tickets: 1,
                    stride: STRIDE1,
                    pass: 0,
                    queued: false,
                },
            );
        }
        let tickets = tickets.max(1);
        self.state[idx] = StrideState {
            tickets,
            stride: STRIDE1 / tickets,
            pass: self.global_pass,
            queued: false,
        };
    }

    fn on_exit(&mut self, tid: ThreadId) {
        // Lazy removal: mark dequeued; stale heap entries are skipped.
        let s = &mut self.state[tid.index() as usize];
        if s.queued {
            s.queued = false;
            self.ready -= 1;
        }
    }

    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        let global = self.global_pass;
        let s = &mut self.state[tid.index() as usize];
        debug_assert!(!s.queued, "double enqueue of {tid}");
        s.queued = true;
        // A thread rejoining after a block must not carry an ancient pass,
        // or it would monopolize the CPU to "catch up".
        s.pass = s.pass.max(global);
        self.seq += 1;
        self.heap.push(Entry {
            pass: s.pass,
            seq: self.seq,
            tid,
        });
        self.ready += 1;
    }

    fn pick(&mut self, _now: SimTime) -> Option<ThreadId> {
        while let Some(entry) = self.heap.pop() {
            let s = &mut self.state[entry.tid.index() as usize];
            // Skip entries that no longer reflect the thread's state
            // (dequeued by exit, or superseded by a newer enqueue).
            if !s.queued || s.pass != entry.pass {
                continue;
            }
            s.queued = false;
            self.ready -= 1;
            self.global_pass = s.pass;
            return Some(entry.tid);
        }
        None
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, _why: EndReason) {
        let s = &mut self.state[tid.index() as usize];
        // Advance pass by the stride scaled to actual usage, so a thread
        // that used half its quantum pays half a stride (the stride
        // paper's fractional-quantum extension).
        let scaled = (s.stride as f64 * used.fraction_of(quantum)).round() as u64;
        s.pass += scaled.max(1);
    }

    fn quantum(&self) -> SimDuration {
        self.quantum
    }

    fn ready_len(&self) -> usize {
        self.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId::from_index(0);
    const T1: ThreadId = ThreadId::from_index(1);

    fn full_charge(p: &mut StridePolicy, tid: ThreadId) {
        p.charge(
            tid,
            SimDuration::from_ms(100),
            SimDuration::from_ms(100),
            EndReason::QuantumExpired,
        );
    }

    #[test]
    fn three_to_one_pattern() {
        // Tickets 3:1 — in any window of 4 picks, T0 gets 3.
        let mut p = StridePolicy::new(SimDuration::from_ms(100));
        p.on_spawn(T0, 3);
        p.on_spawn(T1, 1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        let mut wins = [0u32; 2];
        for _ in 0..400 {
            let t = p.pick(SimTime::ZERO).unwrap();
            full_charge(&mut p, t);
            p.enqueue(t, SimTime::ZERO);
            wins[t.index() as usize] += 1;
        }
        assert_eq!(wins[0], 300);
        assert_eq!(wins[1], 100);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut p = StridePolicy::new(SimDuration::from_ms(100));
            p.on_spawn(T0, 2);
            p.on_spawn(T1, 5);
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let mut order = Vec::new();
            for _ in 0..50 {
                let t = p.pick(SimTime::ZERO).unwrap();
                full_charge(&mut p, t);
                p.enqueue(t, SimTime::ZERO);
                order.push(t);
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejoining_thread_does_not_monopolize() {
        let mut p = StridePolicy::new(SimDuration::from_ms(100));
        p.on_spawn(T0, 1);
        p.on_spawn(T1, 1);
        p.enqueue(T0, SimTime::ZERO);
        // T0 runs alone for a long time (T1 "blocked").
        for _ in 0..100 {
            let t = p.pick(SimTime::ZERO).unwrap();
            assert_eq!(t, T0);
            full_charge(&mut p, t);
            p.enqueue(t, SimTime::ZERO);
        }
        // T1 wakes: its pass snaps to the global pass, so the next 10
        // picks split roughly evenly instead of T1 taking all of them.
        p.enqueue(T1, SimTime::ZERO);
        let mut t1_wins = 0;
        for _ in 0..10 {
            let t = p.pick(SimTime::ZERO).unwrap();
            full_charge(&mut p, t);
            p.enqueue(t, SimTime::ZERO);
            if t == T1 {
                t1_wins += 1;
            }
        }
        assert!(t1_wins <= 6, "t1 won {t1_wins}/10 after rejoin");
    }

    #[test]
    fn partial_quantum_advances_pass_partially() {
        let mut p = StridePolicy::new(SimDuration::from_ms(100));
        p.on_spawn(T0, 1);
        p.charge(
            T0,
            SimDuration::from_ms(50),
            SimDuration::from_ms(100),
            EndReason::Yielded,
        );
        assert_eq!(p.state[0].pass, STRIDE1 / 2);
    }

    #[test]
    fn set_tickets_changes_stride() {
        let mut p = StridePolicy::new(SimDuration::from_ms(100));
        p.on_spawn(T0, 1);
        p.set_tickets(T0, 4);
        assert_eq!(p.tickets(T0), 4);
        assert_eq!(p.state[0].stride, STRIDE1 / 4);
        // Zero tickets clamp to one.
        p.set_tickets(T0, 0);
        assert_eq!(p.tickets(T0), 1);
    }

    #[test]
    fn exited_thread_never_picked() {
        let mut p = StridePolicy::new(SimDuration::from_ms(100));
        p.on_spawn(T0, 1);
        p.on_spawn(T1, 1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.on_exit(T0);
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }
}
