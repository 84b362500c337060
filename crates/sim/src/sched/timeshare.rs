//! Decay-usage timesharing — the stand-in for the stock Mach policy.
//!
//! The paper's overhead and fairness comparisons run against the standard
//! Mach timesharing policy, a *decay-usage* scheduler of the family
//! analysed by Hellerstein \[Hel93\]: each thread's priority is depressed in
//! proportion to its recent CPU usage, and usage decays geometrically so
//! old consumption is gradually forgiven. Such schedulers give interactive
//! threads good response times but offer no proportional-share control —
//! which is precisely the gap lottery scheduling fills.
//!
//! Concretely, this implementation mirrors the classic 4.3BSD/Mach scheme:
//!
//! * effective priority = `base + usage / USAGE_SHIFT`, clamped to 31;
//! * `usage` grows by the CPU consumed each quantum;
//! * once per simulated second, `usage *= 5/8` (Mach's decay factor).

use std::collections::VecDeque;

use super::{EndReason, Policy};
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Number of priority levels (0 most urgent).
pub const LEVELS: usize = 32;

/// Microseconds of aged usage per priority-level penalty.
const USAGE_SHIFT: u64 = 50_000;

/// Decay numerator/denominator applied each second: `usage *= 5/8`.
const DECAY_NUM: u64 = 5;
const DECAY_DEN: u64 = 8;

#[derive(Debug, Clone, Copy, Default)]
struct Ts {
    base: u8,
    usage_us: u64,
}

/// Decay-usage timesharing policy.
#[derive(Debug)]
pub struct TimesharePolicy {
    queues: Vec<VecDeque<ThreadId>>,
    state: Vec<Ts>,
    quantum: SimDuration,
    ready: usize,
    last_decay: SimTime,
}

impl TimesharePolicy {
    /// Creates a timesharing policy with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        Self {
            queues: (0..LEVELS).map(|_| VecDeque::new()).collect(),
            state: Vec::new(),
            quantum,
            ready: 0,
            last_decay: SimTime::ZERO,
        }
    }

    /// The effective priority level a thread would queue at.
    fn effective_priority(&self, tid: ThreadId) -> usize {
        let ts = self.state[tid.index() as usize];
        (usize::from(ts.base) + (ts.usage_us / USAGE_SHIFT) as usize).min(LEVELS - 1)
    }

    /// A thread's aged usage, for tests and diagnostics.
    pub fn usage_us(&self, tid: ThreadId) -> u64 {
        self.state[tid.index() as usize].usage_us
    }

    /// Applies the per-second geometric decay for every elapsed second.
    fn decay(&mut self, now: SimTime) {
        let mut elapsed = now.saturating_since(self.last_decay);
        while elapsed >= SimDuration::from_secs(1) {
            for ts in &mut self.state {
                ts.usage_us = ts.usage_us * DECAY_NUM / DECAY_DEN;
            }
            self.last_decay += SimDuration::from_secs(1);
            elapsed -= SimDuration::from_secs(1);
        }
    }
}

impl Policy for TimesharePolicy {
    /// The thread's base priority (0 = most urgent user level).
    type Spec = u8;

    fn on_spawn(&mut self, tid: ThreadId, base: u8) {
        let idx = tid.index() as usize;
        if self.state.len() <= idx {
            self.state.resize(idx + 1, Ts::default());
        }
        self.state[idx] = Ts {
            base: base.min(LEVELS as u8 - 1),
            usage_us: 0,
        };
    }

    fn on_exit(&mut self, tid: ThreadId) {
        for q in &mut self.queues {
            let before = q.len();
            q.retain(|&t| t != tid);
            self.ready -= before - q.len();
        }
    }

    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        let level = self.effective_priority(tid);
        self.queues[level].push_back(tid);
        self.ready += 1;
    }

    fn pick(&mut self, now: SimTime) -> Option<ThreadId> {
        self.decay(now);
        for q in &mut self.queues {
            if let Some(tid) = q.pop_front() {
                self.ready -= 1;
                return Some(tid);
            }
        }
        None
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, _q: SimDuration, _why: EndReason) {
        self.state[tid.index() as usize].usage_us += used.as_us();
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

    fn policy() -> TimesharePolicy {
        let mut p = TimesharePolicy::new(SimDuration::from_ms(100));
        p.on_spawn(T0, 12);
        p.on_spawn(T1, 12);
        p
    }

    #[test]
    fn usage_depresses_priority() {
        let mut p = policy();
        assert_eq!(p.effective_priority(T0), 12);
        p.charge(
            T0,
            SimDuration::from_ms(100),
            SimDuration::from_ms(100),
            EndReason::QuantumExpired,
        );
        assert_eq!(p.effective_priority(T0), 14, "100 ms usage = 2 levels");
        assert_eq!(p.effective_priority(T1), 12);
    }

    #[test]
    fn hog_loses_to_light_user() {
        let mut p = policy();
        p.charge(
            T0,
            SimDuration::from_ms(300),
            SimDuration::from_ms(100),
            EndReason::QuantumExpired,
        );
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
    }

    #[test]
    fn decay_forgives_history() {
        let mut p = policy();
        p.charge(
            T0,
            SimDuration::from_secs(1),
            SimDuration::from_ms(100),
            EndReason::QuantumExpired,
        );
        let before = p.usage_us(T0);
        // Ten simulated seconds of decay: usage * (5/8)^10 ≈ 0.9% of it.
        let _ = p.pick(SimTime::from_secs(10));
        let after = p.usage_us(T0);
        assert!(after < before / 100, "{after} vs {before}");
    }

    #[test]
    fn priority_clamps_at_bottom() {
        let mut p = policy();
        p.charge(
            T0,
            SimDuration::from_secs(10),
            SimDuration::from_ms(100),
            EndReason::QuantumExpired,
        );
        assert_eq!(p.effective_priority(T0), LEVELS - 1);
    }

    #[test]
    fn no_proportional_control() {
        // Two equal-base compute-bound threads end up alternating: the one
        // that just ran always has the worse priority. There is no knob for
        // a 2:1 split — the motivating deficiency for lottery scheduling.
        let mut p = policy();
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        let first = p.pick(SimTime::ZERO).unwrap();
        p.charge(
            first,
            SimDuration::from_ms(100),
            SimDuration::from_ms(100),
            EndReason::QuantumExpired,
        );
        p.enqueue(first, SimTime::ZERO);
        let second = p.pick(SimTime::ZERO).unwrap();
        assert_ne!(first, second);
    }
}
