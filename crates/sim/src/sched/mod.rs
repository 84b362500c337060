//! Scheduling policies.
//!
//! The kernel is policy-agnostic: it owns threads, time, and IPC, and asks
//! a [`Policy`] which ready thread to dispatch next. The lottery scheduler
//! and every baseline the paper compares against implement this trait:
//!
//! * [`lottery::LotteryPolicy`] — the paper's mechanism, with currencies,
//!   compensation tickets, and RPC ticket transfers.
//! * [`timeshare::TimesharePolicy`] — a decay-usage timesharing scheduler
//!   standing in for the stock Mach policy.
//! * [`fairshare::FairSharePolicy`] — a classical two-level fair-share
//!   scheduler (Section 7's [Hen84, Kay88] comparison point).
//! * [`fixed::FixedPriorityPolicy`] — absolute priorities.
//! * [`rr::RoundRobinPolicy`] — plain FIFO round-robin.
//! * [`stride::StridePolicy`] — deterministic stride scheduling (the
//!   authors' follow-up work), used as the de-randomization ablation.
//!
//! Both lottery policies keep their ready set and winner structure as one
//! [`shard::Shard`], and the two are one [`core::LotteryCore`] — ledger,
//! funding book, and the sequence around every draw — over one shard or
//! one per CPU. The real-thread workers of `lottery-par` run the same
//! core over a locked shared ledger (`LotteryCore<SharedLedger>` through
//! [`core::LedgerAccess`]), so all three make one decision sequence.
//!
//! Every policy runs under the one dispatch engine,
//! [`crate::smp::SmpKernel`] (of which [`crate::kernel::Kernel`] is the
//! one-CPU case), on any CPU count and with every burst: the RPC transfer
//! hooks and the mutex calls below are reached on a multiprocessor too.

pub mod comp;
pub mod core;
pub mod distributed;
pub mod fairshare;
pub mod fixed;
pub mod lottery;
pub mod rr;
pub mod shard;
pub mod stride;
pub mod timeshare;

use lottery_obs::ProbeBus;

use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Identifies a kernel mutex within a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(u32);

impl LockId {
    /// Builds a lock id from a raw index.
    pub const fn from_index(index: u32) -> Self {
        Self(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

/// Why a thread's run on the CPU ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The quantum was fully consumed; the kernel re-enqueues the thread.
    QuantumExpired,
    /// The thread yielded voluntarily with quantum left; the kernel
    /// re-enqueues it. Lottery scheduling grants a compensation ticket.
    Yielded,
    /// The thread blocked (sleep, RPC, receive) with quantum left.
    Blocked,
    /// The thread exited.
    Exited,
}

impl EndReason {
    /// Stable wire name, used by trace exporters and `lotteryctl`.
    pub fn as_str(self) -> &'static str {
        match self {
            EndReason::QuantumExpired => "quantum-expired",
            EndReason::Yielded => "yielded",
            EndReason::Blocked => "blocked",
            EndReason::Exited => "exited",
        }
    }

    /// Parses a wire name produced by [`EndReason::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quantum-expired" => Some(EndReason::QuantumExpired),
            "yielded" => Some(EndReason::Yielded),
            "blocked" => Some(EndReason::Blocked),
            "exited" => Some(EndReason::Exited),
            _ => None,
        }
    }
}

/// A scheduling policy.
///
/// The kernel guarantees the calling discipline: `on_spawn` precedes any
/// other call for a thread; `enqueue` is called exactly once per
/// ready-transition; `pick` removes the returned thread from the ready set;
/// `charge` follows every run with the consumed CPU time, at the instant
/// the run ends.
pub trait Policy {
    /// Per-thread configuration supplied at spawn (ticket funding,
    /// priority, ...).
    type Spec;

    /// Registers a new thread.
    fn on_spawn(&mut self, tid: ThreadId, spec: Self::Spec);

    /// Unregisters an exited thread (after its final `charge`).
    fn on_exit(&mut self, tid: ThreadId);

    /// Adds a thread to the ready set. `now` is when it became ready.
    fn enqueue(&mut self, tid: ThreadId, now: SimTime);

    /// Chooses and removes the next thread to run, or `None` when idle.
    fn pick(&mut self, now: SimTime) -> Option<ThreadId>;

    /// Chooses the next thread for a specific CPU.
    ///
    /// Policies with per-CPU run queues (the distributed lottery) override
    /// this to hold a local lottery on the CPU's own shard; the default
    /// ignores the CPU and delegates to the shared [`Policy::pick`].
    fn pick_on(&mut self, cpu: u32, now: SimTime) -> Option<ThreadId> {
        let _ = cpu;
        self.pick(now)
    }

    /// Accounts a completed run of `used` CPU time out of `quantum`.
    ///
    /// Called once per dispatch, before any re-`enqueue`.
    fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason);

    /// The scheduling quantum.
    fn quantum(&self) -> SimDuration;

    /// Ticket transfer on RPC delivery: `from` (blocked client) lends its
    /// rights to `to` (server thread). Default: conventional schedulers
    /// have no transfer mechanism, so this is a no-op.
    fn transfer(&mut self, from: ThreadId, to: ThreadId) {
        let _ = (from, to);
    }

    /// Ends the transfer `from` → `to` on reply. Default no-op.
    fn untransfer(&mut self, from: ThreadId, to: ThreadId) {
        let _ = (from, to);
    }

    /// Number of threads currently in the ready set.
    fn ready_len(&self) -> usize;

    /// Creates a kernel mutex scheduled by this policy.
    ///
    /// The lottery policy hands out lottery-scheduled mutexes (Section
    /// 6.1); round-robin provides FIFO mutexes as a baseline.
    ///
    /// # Panics
    ///
    /// The default implementation panics: most baseline policies do not
    /// define a lock-scheduling discipline.
    fn create_lock(&mut self) -> LockId {
        unimplemented!("this policy does not support kernel mutexes")
    }

    /// Attempts to acquire `lock` for the running thread `tid`.
    ///
    /// Returns `true` on acquisition; `false` parks the thread as a
    /// waiter (the kernel blocks it until [`Policy::unlock`] names it).
    ///
    /// # Panics
    ///
    /// The default implementation panics (no lock support).
    fn lock(&mut self, tid: ThreadId, lock: LockId) -> bool {
        let _ = (tid, lock);
        unimplemented!("this policy does not support kernel mutexes")
    }

    /// Releases `lock`, held by `tid`; returns the next owner to wake, if
    /// any waiter was parked.
    ///
    /// # Panics
    ///
    /// The default implementation panics (no lock support); every policy
    /// implementing [`Policy::lock`] must implement this consistently.
    fn unlock(&mut self, tid: ThreadId, lock: LockId) -> Option<ThreadId> {
        let _ = (tid, lock);
        unimplemented!("this policy does not support kernel mutexes")
    }

    /// Removes `tid` from every lock's waiter list (its thread was
    /// killed). Default no-op for policies without lock support.
    fn cancel_lock_waits(&mut self, tid: ThreadId) {
        let _ = tid;
    }

    /// Attaches a probe bus for draw/compensation observability.
    ///
    /// Default no-op: baseline policies have nothing to report. The
    /// lottery policy forwards the bus to its ledger too.
    fn set_probe_bus(&mut self, bus: ProbeBus) {
        let _ = bus;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Policy for Nop {
        type Spec = ();
        fn on_spawn(&mut self, _: ThreadId, _: ()) {}
        fn on_exit(&mut self, _: ThreadId) {}
        fn enqueue(&mut self, _: ThreadId, _: SimTime) {}
        fn pick(&mut self, _: SimTime) -> Option<ThreadId> {
            None
        }
        fn charge(&mut self, _: ThreadId, _: SimDuration, _: SimDuration, _: EndReason) {}
        fn quantum(&self) -> SimDuration {
            SimDuration::from_ms(100)
        }
        fn ready_len(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_transfer_hooks_are_noops() {
        let mut p = Nop;
        p.transfer(ThreadId::from_index(0), ThreadId::from_index(1));
        p.untransfer(ThreadId::from_index(0), ThreadId::from_index(1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }
}
