//! Spans at the two layer boundaries the benchmark can see from outside:
//! `Kernel` → `Policy` and `ProbeBus` → `Recorder`.
//!
//! [`Timed`] wraps a policy or a recorder and times every call into it.
//! Counts and nanosecond totals are accumulated for every call; the full
//! spans (name, start, end, parent) are kept for every
//! [`KEEP_EVERY`]th slice only, and written out when the run ends. A
//! recorder call made while a policy call is open is that call's child, so
//! the policy's self time excludes it; kernel self time is the slice minus
//! its top-level spans.
//!
//! The simulator runs on one thread, so the open-span state is a
//! thread-local rather than a field shared between the two wrappers.

use std::cell::RefCell;
use std::time::Instant;

use lottery_obs::{Event, ProbeBus, Recorder};
use lottery_sim::prelude::{EndReason, Policy, SimDuration, SimTime, ThreadId};
use lottery_sim::sched::LockId;

/// Full spans are kept for slices whose index is a multiple of this.
pub const KEEP_EVERY: u32 = 128;
/// Spans kept per slice before the rest of that slice is only counted.
const KEEP_SPANS_PER_SLICE: usize = 4096;

/// A timed entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Pick,
    Enqueue,
    Charge,
    Transfer,
    Lock,
    Record,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Pick,
        Op::Enqueue,
        Op::Charge,
        Op::Transfer,
        Op::Lock,
        Op::Record,
    ];

    /// The span name: the layer's module path and the call.
    pub fn name(self) -> &'static str {
        match self {
            Op::Pick => "sim.sched.pick",
            Op::Enqueue => "sim.sched.enqueue",
            Op::Charge => "sim.sched.charge",
            Op::Transfer => "sim.sched.transfer",
            Op::Lock => "sim.sched.lock",
            Op::Record => "obs.flight.record",
        }
    }
}

/// One kept span. `parent` is the index of the enclosing kept span in the
/// same slice, or `None` for a child of the slice itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub op: Op,
    pub slice: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Totals since the last [`reset`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls per [`Op`], in [`Op::ALL`] order.
    pub count: [u64; 6],
    /// Nanoseconds per [`Op`], children included.
    pub ns: [u64; 6],
    /// Recorder nanoseconds spent inside an open call of each policy
    /// [`Op`]: that call's child spans.
    pub nested_ns: [u64; 6],
}

impl Totals {
    pub fn count_of(&self, op: Op) -> u64 {
        self.count[op as usize]
    }

    pub fn ns_of(&self, op: Op) -> u64 {
        self.ns[op as usize]
    }

    /// Mean nanoseconds per call of `op`, its child spans excluded.
    pub fn self_ns_per_call(&self, op: Op) -> f64 {
        let calls = self.count_of(op);
        if calls == 0 {
            return 0.0;
        }
        (self.ns_of(op) - self.nested_ns[op as usize]) as f64 / calls as f64
    }

    fn nested_record_ns(&self) -> u64 {
        self.nested_ns.iter().sum()
    }

    /// Calls into the policy.
    pub fn policy_calls(&self) -> u64 {
        self.count.iter().sum::<u64>() - self.count_of(Op::Record)
    }

    /// Time inside the policy itself, recorder calls made from it excluded.
    pub fn policy_self_ns(&self) -> u64 {
        self.ns.iter().sum::<u64>() - self.ns_of(Op::Record) - self.nested_record_ns()
    }

    /// Time covered by top-level spans: what is left of a slice is the
    /// kernel's own.
    pub fn top_level_ns(&self) -> u64 {
        self.ns.iter().sum::<u64>() - self.nested_record_ns()
    }
}

struct State {
    epoch: Instant,
    totals: Totals,
    slice: u32,
    keep: bool,
    /// The open policy call, and its index in `spans` when it is kept.
    open_policy: Option<(Op, Option<u32>)>,
    kept_in_slice: usize,
    spans: Vec<Span>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        epoch: Instant::now(),
        totals: Totals::default(),
        slice: 0,
        keep: false,
        open_policy: None,
        kept_in_slice: 0,
        spans: Vec::new(),
    });
}

/// Clears totals and kept spans; time zero of the spans is now.
pub fn reset() {
    STATE.with_borrow_mut(|s| {
        s.epoch = Instant::now();
        s.totals = Totals::default();
        s.spans.clear();
        s.slice = 0;
        s.keep = false;
        s.open_policy = None;
    });
}

/// Marks the start of slice `index`; returns its start on the span clock.
pub fn begin_slice(index: u32) -> u64 {
    STATE.with_borrow_mut(|s| {
        s.slice = index;
        s.keep = index.is_multiple_of(KEEP_EVERY);
        s.kept_in_slice = 0;
        s.epoch.elapsed().as_nanos() as u64
    })
}

pub fn now_ns() -> u64 {
    STATE.with_borrow(|s| s.epoch.elapsed().as_nanos() as u64)
}

pub fn totals() -> Totals {
    STATE.with_borrow(|s| s.totals.clone())
}

pub fn take_spans() -> Vec<Span> {
    STATE.with_borrow_mut(|s| std::mem::take(&mut s.spans))
}

fn span<T>(op: Op, call: impl FnOnce() -> T) -> T {
    let policy_op = op != Op::Record;
    let (start, slot) = STATE.with_borrow_mut(|s| {
        let start = s.epoch.elapsed().as_nanos() as u64;
        let slot = if s.keep && s.kept_in_slice < KEEP_SPANS_PER_SLICE {
            s.kept_in_slice += 1;
            s.spans.push(Span {
                op,
                slice: s.slice,
                start_ns: start,
                end_ns: start,
                parent: s.open_policy.and_then(|(_, kept)| kept),
            });
            Some(s.spans.len() as u32 - 1)
        } else {
            None
        };
        if policy_op {
            s.open_policy = Some((op, slot));
        }
        (start, slot)
    });
    let out = call();
    STATE.with_borrow_mut(|s| {
        let end = s.epoch.elapsed().as_nanos() as u64;
        let ns = end - start;
        s.totals.count[op as usize] += 1;
        s.totals.ns[op as usize] += ns;
        if policy_op {
            s.open_policy = None;
        } else if let Some((parent, _)) = s.open_policy {
            s.totals.nested_ns[parent as usize] += ns;
        }
        if let Some(slot) = slot {
            s.spans[slot as usize].end_ns = end;
        }
    });
    out
}

/// Times every call into the wrapped policy or recorder.
pub struct Timed<T>(pub T);

impl<P: Policy> Policy for Timed<P> {
    type Spec = P::Spec;

    fn on_spawn(&mut self, tid: ThreadId, spec: Self::Spec) {
        self.0.on_spawn(tid, spec);
    }

    fn on_exit(&mut self, tid: ThreadId) {
        self.0.on_exit(tid);
    }

    fn enqueue(&mut self, tid: ThreadId, now: SimTime) {
        span(Op::Enqueue, || self.0.enqueue(tid, now));
    }

    fn pick(&mut self, now: SimTime) -> Option<ThreadId> {
        span(Op::Pick, || self.0.pick(now))
    }

    fn pick_on(&mut self, cpu: u32, now: SimTime) -> Option<ThreadId> {
        span(Op::Pick, || self.0.pick_on(cpu, now))
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason) {
        span(Op::Charge, || self.0.charge(tid, used, quantum, why));
    }

    fn quantum(&self) -> SimDuration {
        self.0.quantum()
    }

    fn transfer(&mut self, from: ThreadId, to: ThreadId) {
        span(Op::Transfer, || self.0.transfer(from, to));
    }

    fn untransfer(&mut self, from: ThreadId, to: ThreadId) {
        span(Op::Transfer, || self.0.untransfer(from, to));
    }

    fn ready_len(&self) -> usize {
        self.0.ready_len()
    }

    fn create_lock(&mut self) -> LockId {
        self.0.create_lock()
    }

    fn lock(&mut self, tid: ThreadId, lock: LockId) -> bool {
        span(Op::Lock, || self.0.lock(tid, lock))
    }

    fn unlock(&mut self, tid: ThreadId, lock: LockId) -> Option<ThreadId> {
        span(Op::Lock, || self.0.unlock(tid, lock))
    }

    fn cancel_lock_waits(&mut self, tid: ThreadId) {
        self.0.cancel_lock_waits(tid);
    }

    fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.0.set_probe_bus(bus);
    }
}

impl<R: Recorder> Recorder for Timed<R> {
    fn record(&mut self, event: &Event) {
        span(Op::Record, || self.0.record(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_obs::{EventKind, NopRecorder};

    /// A policy whose `pick` emits one event, like the lottery's draw probe.
    struct Emits(ProbeBus);

    impl Policy for Emits {
        type Spec = ();
        fn on_spawn(&mut self, _: ThreadId, _: ()) {}
        fn on_exit(&mut self, _: ThreadId) {}
        fn enqueue(&mut self, _: ThreadId, _: SimTime) {}
        fn pick(&mut self, _: SimTime) -> Option<ThreadId> {
            self.0.emit(|| EventKind::Wake { thread: 0 });
            None
        }
        fn charge(&mut self, _: ThreadId, _: SimDuration, _: SimDuration, _: EndReason) {}
        fn quantum(&self) -> SimDuration {
            SimDuration::from_ms(1)
        }
        fn ready_len(&self) -> usize {
            0
        }
    }

    #[test]
    fn nested_recorder_time_is_the_policys_child_not_its_own() {
        reset();
        let bus = ProbeBus::with_recorder(Timed(NopRecorder));
        let mut policy = Timed(Emits(bus.clone()));
        begin_slice(0);
        policy.pick(SimTime::ZERO);
        // From the kernel, outside any policy call: a top-level span.
        bus.emit(|| EventKind::Wake { thread: 1 });
        begin_slice(1);
        policy.pick(SimTime::ZERO);

        let t = totals();
        assert_eq!(t.count_of(Op::Pick), 2);
        assert_eq!(t.count_of(Op::Record), 3);
        assert_eq!(t.policy_calls(), 2);
        assert!(t.nested_ns[Op::Pick as usize] <= t.ns_of(Op::Record));
        assert!(t.nested_ns[Op::Pick as usize] <= t.ns_of(Op::Pick));
        assert_eq!(t.nested_record_ns(), t.nested_ns[Op::Pick as usize]);
        assert_eq!(
            t.policy_self_ns() + t.ns_of(Op::Record),
            t.top_level_ns(),
            "policy self + recorder = everything that is not the kernel's"
        );

        // Only slice 0 keeps spans: pick, its nested record, the bare record.
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].op, spans[0].parent), (Op::Pick, None));
        assert_eq!((spans[1].op, spans[1].parent), (Op::Record, Some(0)));
        assert_eq!((spans[2].op, spans[2].parent), (Op::Record, None));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.slice == 0));
    }
}
