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
//! field determines: the dispatch count is the wait summary's count, a
//! preemption's wait is the total less the wakes', and the RPC log's length
//! is the completion count. The response-time and lock-wait summaries,
//! which only RPC clients and mutex waiters record, are a pointer until
//! their first sample. The record is constant-space, so memory does not
//! grow with the decisions a run makes; only the RPC log grows, one entry
//! per completed RPC. Per-window CPU (Figure 5) is measured where the
//! windows fall, by [`run_windows`], rather than recorded on every run
//! segment.

use lottery_stats::{LazySummary, Summary};

use crate::kernel::Kernel;
use crate::sched::Policy;
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Per-thread accounting.
#[derive(Debug, Default)]
pub struct ThreadMetrics {
    /// Cumulative CPU time, as of the last run segment.
    cpu: SimDuration,
    /// Ready-queue wait before each dispatch, in microseconds.
    pub wait_us: Summary,
    /// Ready-queue wait for dispatches that followed a true wake (spawn
    /// or sleep end), in microseconds. The rest of `wait_us` followed a
    /// preemption (quantum expiry or yield): a preempted thread was never
    /// asleep, so that part is pure scheduling latency.
    pub wake_wait_us: Summary,
    /// RPC response times, in microseconds (request sent to reply
    /// received).
    pub response_us: LazySummary,
    /// Every completed RPC: `(completion time_us, response time_us)`.
    pub responses: Vec<(u64, f64)>,
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
        self.responses.len() as u64
    }

    /// Cumulative CPU time in microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.cpu.as_us()
    }
}

/// Whole-kernel accounting.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Indexed by `ThreadId::index()` — thread ids are dense, and the
    /// kernels touch the running thread's slot several times per dispatch.
    /// `None` until the thread is first accounted for.
    threads: Vec<Option<ThreadMetrics>>,
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
            self.threads.resize_with(slot + 1, || None);
        }
        self.threads[slot].get_or_insert_with(ThreadMetrics::default)
    }

    /// Read-only per-thread metrics; `None` if the thread never ran.
    pub fn thread(&self, tid: ThreadId) -> Option<&ThreadMetrics> {
        self.threads.get(tid.index() as usize)?.as_ref()
    }

    /// Records a run segment's end: `cpu_total` is `tid`'s lifetime CPU
    /// after it.
    pub fn record_run(&mut self, tid: ThreadId, cpu_total: SimDuration) {
        self.thread_mut(tid).cpu = cpu_total;
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
        let waited = waited.as_us() as f64;
        t.wait_us.record(waited);
        if !preempted {
            t.wake_wait_us.record(waited);
        }
    }

    /// Records a completed RPC for the client.
    pub(crate) fn record_rpc(&mut self, client: ThreadId, now: SimTime, response: SimDuration) {
        let t = self.thread_mut(client);
        t.response_us.record(response.as_us() as f64);
        t.responses.push((now.as_us(), response.as_us() as f64));
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
        assert_eq!(m.cpu_us(T0), 200_000);
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
    fn wait_extrema_are_the_recorded_waits() {
        let mut m = Metrics::new();
        for ms in [7, 3, 5] {
            m.record_dispatch(T0, SimDuration::from_ms(ms), false, false);
        }
        let t = m.thread(T0).unwrap();
        assert_eq!(t.wait_us.min(), 3_000.0);
        assert_eq!(t.wait_us.max(), 7_000.0);
    }

    #[test]
    fn response_and_lock_summaries_stay_empty_until_used() {
        let mut m = Metrics::new();
        m.record_dispatch(T0, SimDuration::from_ms(1), true, false);
        let t = m.thread(T0).unwrap();
        assert_eq!((t.response_us.count(), t.response_us.sum()), (0, 0.0));
        assert_eq!((t.lock_wait_us.count(), t.lock_wait_us.sum()), (0, 0.0));
        assert_eq!(t.response_us.min(), f64::INFINITY);
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
            t.responses,
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
