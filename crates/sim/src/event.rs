//! The discrete-event queue at the heart of the simulation core.
//!
//! Every piece of *future* work — timer wakes, trace arrivals, quantum
//! expiries, disk completions, net forwards, cluster reconciliation
//! rounds — lives in one [`EventQueue`]: a min-heap of
//! `(SimTime, seq, E)` entries. The kernel's run loop pops the earliest
//! entry and *jumps* the clock to it, so simulated time between events
//! costs nothing: a million sleeping tenants are a million pending
//! entries, not a million per-quantum no-op decisions.
//!
//! Determinism: the queue is totally ordered by `(when, seq)`, where
//! `seq` is a monotonically increasing push counter. Two events due at
//! the same instant therefore pop in exactly the order they were
//! scheduled, independent of the payload type and of heap internals —
//! the property every winner-stream and replay guarantee rests on. No
//! `Ord` bound is needed on the payload: `seq` is unique, so the
//! `(when, seq)` key alone is already a total order.
//!
//! [`EventSource`] is the adapter shape for pull-driven device models
//! (the disk arm, the cell switch, the cluster's reconciliation clock):
//! a source exposes *when* its next unit of work is due and the shared
//! loop jumps there, exactly the `next_tick()` discipline of
//! discrete-event co-simulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// One scheduled entry: the payload plus its position in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event is due.
    pub at: SimTime,
    /// Scheduling sequence number — the tiebreak for equal times.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Max-heap adapter: reverses the `(at, seq)` order so the earliest
/// entry surfaces first. The payload never participates in ordering.
#[derive(Debug, Clone)]
struct Entry<E>(Scheduled<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A keyed min-heap of future work, ordered by `(when, seq)`.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// An empty queue with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at `at`; returns the sequence number assigned.
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry(Scheduled { at, seq, event }));
        seq
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| e.0)
    }

    /// When the earliest entry is due, without removing it.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.at)
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no work is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending entry (the push counter keeps advancing, so
    /// later pushes still order after earlier ones).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// How far ahead of `now` the next entry is; zero when one is
    /// already due or none is pending.
    pub fn horizon(&self, now: SimTime) -> SimDuration {
        self.peek_at()
            .map_or(SimDuration::ZERO, |at| at.saturating_since(now))
    }
}

/// A pull-driven component that knows when its next unit of work is due.
///
/// Device models (the disk scheduler, the cell switch) and periodic
/// controllers (cluster reconciliation) implement this so a shared
/// event loop can jump the clock straight to the earliest pending
/// tick across every component instead of polling each one.
pub trait EventSource {
    /// When this source next has work, or `None` when idle.
    fn next_due(&self) -> Option<SimTime>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(30), "c");
        q.push(SimTime::from_us(10), "a");
        q.push(SimTime::from_us(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_keep_seq_tiebreak() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        q.push(t, "first");
        q.push(SimTime::from_us(1), "early");
        q.push(t, "second");
        assert_eq!(q.pop().unwrap().event, "early");
        assert_eq!(q.pop().unwrap().event, "first");
        assert_eq!(q.pop().unwrap().event, "second");
    }

    #[test]
    fn horizon_measures_gap_to_next() {
        let mut q = EventQueue::new();
        assert_eq!(q.horizon(SimTime::ZERO), SimDuration::ZERO);
        q.push(SimTime::from_ms(5), ());
        assert_eq!(q.horizon(SimTime::from_ms(2)), SimDuration::from_ms(3));
        assert_eq!(q.horizon(SimTime::from_ms(9)), SimDuration::ZERO);
    }

    #[test]
    fn clear_keeps_counter_monotone() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::ZERO, ());
        q.clear();
        assert!(q.is_empty());
        let b = q.push(SimTime::ZERO, ());
        assert!(b > a, "{b} must order after {a}");
    }
}
