//! Kernel and per-thread measurements.
//!
//! The paper's evaluation reports iteration counts over time windows
//! (Figure 5), cumulative progress (Figures 6, 8, 9), query throughput and
//! response times (Figure 7), and scheduling overhead (Section 5.6). The
//! kernel feeds every dispatch into [`Metrics`]; the experiment harness
//! reads these out.
//!
//! Per-thread accounting is a table indexed by [`ThreadId::index`]: a
//! dispatch records against the running thread two or three times, and
//! thread ids are dense, so each record is an index, not a hash lookup.
//! A thread's record holds only what something reads and nothing another
//! field determines: the dispatch count is the wait count, a preemption's
//! wait is the total less the wakes', and the RPC log's length is the
//! completion count. A wait is a count and an exact integer sum of
//! microseconds, since its readers ask for nothing else. The response-time
//! record (summary and log) and the lock-wait summary, which only RPC
//! clients and mutex waiters fill, are a pointer until their first sample.
//! The record is constant-space, 72 bytes, so memory does not grow with
//! the decisions a run makes; only the RPC log grows, one entry per
//! completed RPC. The table holds the records themselves, 72 bytes a slot,
//! not an `Option` of them: a slot that nothing touched yet holds nothing,
//! and every touch leaves a field non-zero, so an empty record is the
//! "never accounted" of [`Metrics::thread`]. The CPU total is kept here
//! and nowhere else. Per-window
//! CPU (Figure 5) is measured where the windows fall, by [`run_windows`],
//! rather than recorded on every run segment.

use core::ops::Deref;

use lottery_stats::{LazySummary, Summary};

use crate::kernel::Kernel;
use crate::sched::Policy;
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Ready-queue waits: how many, and their exact sum in microseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Waits {
    count: u64,
    sum_us: u64,
}

impl Waits {
    fn record(&mut self, waited: SimDuration) {
        self.count += 1;
        self.sum_us += waited.as_us();
    }

    /// Waits recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Their total in microseconds, exact below 2⁵³ µs (285 years).
    pub fn sum(&self) -> f64 {
        self.sum_us as f64
    }

    /// The mean wait in microseconds; zero when none was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }
}

/// What every [`Responses`] reads as until its first completion.
static NO_RESPONSES: Summary = Summary::new();

/// A client's completed RPCs: the response-time summary, in microseconds,
/// and the log of every completion. Boxed on the first completion, since
/// only RPC clients complete any; reads as the summary.
#[derive(Debug, Default)]
pub struct Responses(Option<Box<ResponseLog>>);

#[derive(Debug, Default)]
struct ResponseLog {
    summary: Summary,
    /// `(completion time_us, response time_us)` per completed RPC.
    log: Vec<(u64, f64)>,
}

impl Responses {
    fn record(&mut self, at: SimTime, response: SimDuration) {
        let record = self.0.get_or_insert_default();
        let us = response.as_us() as f64;
        record.summary.record(us);
        record.log.push((at.as_us(), us));
    }
}

impl Deref for Responses {
    type Target = Summary;

    fn deref(&self) -> &Summary {
        self.0
            .as_deref()
            .map_or(&NO_RESPONSES, |record| &record.summary)
    }
}

/// Per-thread accounting.
#[derive(Debug, Default)]
pub struct ThreadMetrics {
    /// Cumulative CPU time, as of the last run segment.
    cpu: SimDuration,
    /// Ready-queue wait before each dispatch.
    pub wait_us: Waits,
    /// Ready-queue wait for dispatches that followed a true wake (spawn
    /// or sleep end). The rest of `wait_us` followed a preemption
    /// (quantum expiry or yield): a preempted thread was never asleep, so
    /// that part is pure scheduling latency.
    pub wake_wait_us: Waits,
    /// RPC response times, in microseconds (request sent to reply
    /// received), and the log of every completed RPC.
    pub response_us: Responses,
    /// Kernel-mutex waiting times, in microseconds (block to handoff).
    pub lock_wait_us: LazySummary,
    /// Times the thread blocked.
    pub blocks: u64,
    /// Times the thread yielded with quantum remaining.
    pub yields: u64,
}

impl ThreadMetrics {
    /// Times this thread was dispatched.
    pub fn dispatches(&self) -> u64 {
        self.wait_us.count()
    }

    /// Completed RPC count.
    pub fn rpcs_completed(&self) -> u64 {
        self.response_us.count()
    }

    /// Every completed RPC: `(completion time_us, response time_us)`.
    pub fn responses(&self) -> &[(u64, f64)] {
        self.response_us
            .0
            .as_deref()
            .map_or(&[], |record| &record.log)
    }

    /// Cumulative CPU time in microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.cpu.as_us()
    }

    /// Whether nothing was recorded here: every record leaves a count, a
    /// CPU time or a box behind.
    fn is_empty(&self) -> bool {
        self.cpu.is_zero()
            && self.wait_us.count == 0
            && self.response_us.0.is_none()
            && self.lock_wait_us.count() == 0
            && self.blocks == 0
            && self.yields == 0
    }
}

/// Whole-kernel accounting.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Indexed by `ThreadId::index()` — thread ids are dense, and the
    /// kernels touch the running thread's slot several times per dispatch.
    /// Empty until the thread is first accounted for.
    threads: Vec<ThreadMetrics>,
    /// Scheduling decisions made (one per dispatch).
    pub decisions: u64,
    /// Dispatches that switched to a different thread than last time.
    pub context_switches: u64,
    /// Total time the CPUs sat idle, summed over CPUs.
    pub idle: SimDuration,
    /// Total time spent on dispatch and context-switch overhead, summed
    /// over CPUs.
    pub switch_overhead: SimDuration,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounting for one thread (creating it on first touch).
    pub(crate) fn thread_mut(&mut self, tid: ThreadId) -> &mut ThreadMetrics {
        let slot = tid.index() as usize;
        if slot >= self.threads.len() {
            self.threads.resize_with(slot + 1, ThreadMetrics::default);
        }
        &mut self.threads[slot]
    }

    /// Read-only per-thread metrics; `None` if nothing was ever recorded
    /// for the thread.
    pub fn thread(&self, tid: ThreadId) -> Option<&ThreadMetrics> {
        let t = self.threads.get(tid.index() as usize)?;
        (!t.is_empty()).then_some(t)
    }

    /// Records a run segment: `tid` ran for `ran`.
    pub(crate) fn record_run(&mut self, tid: ThreadId, ran: SimDuration) {
        self.thread_mut(tid).cpu += ran;
    }

    /// Records a dispatch and its ready-queue wait, which followed a
    /// preemption (quantum expiry or yield) when `preempted` and a true
    /// wake (spawn or sleep end) otherwise.
    pub fn record_dispatch(
        &mut self,
        tid: ThreadId,
        waited: SimDuration,
        switched: bool,
        preempted: bool,
    ) {
        self.decisions += 1;
        if switched {
            self.context_switches += 1;
        }
        let t = self.thread_mut(tid);
        t.wait_us.record(waited);
        if !preempted {
            t.wake_wait_us.record(waited);
        }
    }

    /// Records a completed RPC for the client.
    pub(crate) fn record_rpc(&mut self, client: ThreadId, now: SimTime, response: SimDuration) {
        self.thread_mut(client).response_us.record(now, response);
    }

    /// CPU time consumed by `tid` in microseconds (zero if unknown).
    pub fn cpu_us(&self, tid: ThreadId) -> u64 {
        self.thread(tid).map_or(0, ThreadMetrics::cpu_us)
    }

    /// The ratio of two threads' CPU consumption (`a / b`).
    ///
    /// Returns `None` when `b` has consumed nothing.
    pub fn cpu_ratio(&self, a: ThreadId, b: ThreadId) -> Option<f64> {
        let b_us = self.cpu_us(b);
        (b_us > 0).then(|| self.cpu_us(a) as f64 / b_us as f64)
    }
}

/// Runs `kernel` to `end` and returns the CPU time each of `threads`
/// consumed in each whole window `[k·w, (k+1)·w)` on the way, as Figure 5
/// plots: `cpu[i][k]` for `threads[i]`, the windows being the multiples of
/// `window` from time zero that lie within `[kernel.now(), end]`.
///
/// The kernel stops exactly at each window boundary ([`Kernel::run_until`]
/// splits a quantum straddling it) and the thread's cumulative CPU is read
/// there, so sampling costs nothing per run segment. A window's CPU is the
/// checked difference of its two boundary samples, so a sample that went
/// backwards would panic. A partial window at either end is not reported,
/// though the kernel still runs to `end`.
pub fn run_windows<P: Policy>(
    kernel: &mut Kernel<P>,
    threads: &[ThreadId],
    window: SimDuration,
    end: SimTime,
) -> Vec<Vec<SimDuration>> {
    assert!(!window.is_zero(), "window must be positive");
    let w = window.as_us();
    let mut samples = vec![Vec::new(); threads.len()];
    let mut at = SimTime::from_us(kernel.now().as_us().div_ceil(w) * w);
    while at <= end {
        kernel.run_until(at);
        for (thread, series) in threads.iter().zip(&mut samples) {
            series.push(SimDuration::from_us(kernel.metrics().cpu_us(*thread)));
        }
        at += window;
    }
    kernel.run_until(end);
    let per_window = |s: Vec<SimDuration>| s.windows(2).map(|b| b[1] - b[0]).collect();
    samples.into_iter().map(per_window).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId::from_index(0);
    const T1: ThreadId = ThreadId::from_index(1);

    #[test]
    fn run_segments_accumulate() {
        let mut m = Metrics::new();
        m.record_run(T0, SimDuration::from_ms(100));
        m.record_run(T0, SimDuration::from_ms(200));
        assert_eq!(m.cpu_us(T0), 300_000);
        assert_eq!(m.cpu_us(T1), 0);
    }

    #[test]
    fn cpu_ratio() {
        let mut m = Metrics::new();
        m.record_run(T0, SimDuration::from_ms(10));
        m.record_run(T1, SimDuration::from_ms(5));
        assert_eq!(m.cpu_ratio(T0, T1), Some(2.0));
        let empty = Metrics::new();
        assert_eq!(empty.cpu_ratio(T0, T1), None);
    }

    #[test]
    fn dispatch_accounting() {
        let mut m = Metrics::new();
        m.record_dispatch(T0, SimDuration::from_ms(3), true, false);
        m.record_dispatch(T0, SimDuration::ZERO, false, true);
        assert_eq!(m.decisions, 2);
        assert_eq!(m.context_switches, 1);
        let t = m.thread(T0).unwrap();
        assert_eq!(t.dispatches(), 2);
        assert_eq!(t.wait_us.mean(), 1_500.0);
        assert_eq!(t.wake_wait_us.count(), 1);
        assert_eq!(t.wake_wait_us.mean(), 3_000.0);
    }

    #[test]
    fn wait_sums_are_exact_integer_microsecond_sums() {
        let mut m = Metrics::new();
        // 2⁵³ + 1 µs is not an `f64`, and a running mean of these waits
        // would round at every step; the sum and count are exact.
        let waits = [1u64 << 53, 1, 7, 3, 5];
        for (i, &us) in waits.iter().enumerate() {
            m.record_dispatch(T0, SimDuration::from_us(us), true, i % 2 == 1);
        }
        let t = m.thread(T0).unwrap();
        assert_eq!(t.wait_us.count(), 5);
        assert_eq!(t.wait_us.sum_us, (1 << 53) + 16);
        assert_eq!(t.wake_wait_us.count(), 3);
        assert_eq!(t.wake_wait_us.sum_us, (1 << 53) + 12);
        let mut exact = Metrics::new();
        for us in [3, 4, 4] {
            exact.record_dispatch(T1, SimDuration::from_us(us), true, false);
        }
        let t = exact.thread(T1).unwrap();
        assert_eq!((t.wait_us.sum(), t.wait_us.mean()), (11.0, 11.0 / 3.0));
        assert_eq!(Waits::default().mean(), 0.0);
    }

    #[test]
    fn response_and_lock_summaries_stay_empty_until_used() {
        let mut m = Metrics::new();
        m.record_dispatch(T0, SimDuration::from_ms(1), true, false);
        let t = m.thread(T0).unwrap();
        assert_eq!((t.response_us.count(), t.response_us.sum()), (0, 0.0));
        assert_eq!((t.lock_wait_us.count(), t.lock_wait_us.sum()), (0, 0.0));
        assert_eq!(t.response_us.min(), f64::INFINITY);
        assert!(t.responses().is_empty());
    }

    #[test]
    fn rpc_accounting() {
        let mut m = Metrics::new();
        m.record_rpc(T0, SimTime::from_secs(1), SimDuration::from_ms(250));
        m.record_rpc(T0, SimTime::from_secs(2), SimDuration::from_ms(750));
        let t = m.thread(T0).unwrap();
        assert_eq!(t.rpcs_completed(), 2);
        assert_eq!(t.response_us.mean(), 500_000.0);
        assert_eq!(
            t.responses(),
            [(1_000_000, 250_000.0), (2_000_000, 750_000.0)]
        );
    }

    #[test]
    fn window_shares() {
        use crate::sched::rr::RoundRobinPolicy;
        use crate::workload::IoBound;

        // 50% duty cycle: 50 ms CPU per 100 ms window.
        let ms = SimDuration::from_ms;
        let mut k = Kernel::new(RoundRobinPolicy::new(ms(100)));
        let t = k.spawn("io", Box::new(IoBound::new(ms(50), ms(50))), ());
        assert_eq!(t, T0);
        // T1 never exists: it uses nothing in any window.
        let cpu = run_windows(&mut k, &[T0, T1], ms(100), SimTime::from_ms(1_050));
        // The partial tail is not reported, but the kernel runs through it.
        assert_eq!(k.now(), SimTime::from_ms(1_050));
        let shares: Vec<f64> = cpu[0].iter().map(|c| c.fraction_of(ms(100))).collect();
        assert_eq!(shares, [0.5; 10]);
        assert_eq!(cpu[1], [SimDuration::ZERO; 10]);
    }
}
