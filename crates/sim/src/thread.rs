//! Thread control blocks.
//!
//! A simulated thread owns a [`crate::workload::Workload`], a scheduling
//! state, and what the kernel carries between its dispatches. Scheduling
//! *policy* state (tickets, priorities, strides) lives in the policy, keyed
//! by [`ThreadId`]; its accounting lives in [`crate::metrics::Metrics`].

use std::borrow::Cow;
use std::fmt;

use crate::ipc::PortId;
use crate::time::{SimDuration, SimTime};
use crate::workload::Workload;

/// Identifies a thread within a kernel.
///
/// Thread ids are small indices, so kernels and policies use them to index
/// side tables. [`crate::smp::SmpKernel::spawn`] issues them densely and an
/// exited thread stays in the table, merely marked; the kernel can also
/// hold a thread under an id its caller chose and give a ready thread up
/// again, so its table may have gaps and an id names one thread across
/// every kernel of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Builds a thread id from a raw index.
    pub const fn from_index(index: u32) -> Self {
        Self(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Whether `name` is exactly `tid`'s display: `t` and the index in
/// decimal, no sign and no leading zero — a string of the display's length
/// that parses to the index is that string.
fn is_display_of(name: &str, tid: ThreadId) -> bool {
    let digits = tid.0.checked_ilog10().unwrap_or(0) as usize + 1;
    name.strip_prefix('t')
        .is_some_and(|n| n.len() == digits && n.parse() == Ok(tid.0))
}

/// Thread ids are dense arena indices, so lottery pools can mirror them
/// with a dense slot table instead of a hash map.
impl lottery_core::lottery::index::SlotKey for ThreadId {
    fn slot_key(&self) -> usize {
        self.0 as usize
    }
}

/// Why a thread is off the run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Sleeping until a timer fires (I/O completion and the like).
    Timer,
    /// Waiting for the reply to a synchronous RPC.
    AwaitingReply {
        /// The port the request was sent to.
        port: PortId,
    },
    /// A server thread waiting for a request.
    Receiving {
        /// The port being received on.
        port: PortId,
    },
    /// Blocked by an external synchronization object (e.g. a lottery
    /// mutex built on top of the simulator).
    External,
}

/// A thread's scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// On the run queue, eligible for dispatch.
    Ready,
    /// Currently executing.
    Running,
    /// Off the run queue.
    Blocked(BlockReason),
    /// Terminated; never scheduled again.
    Exited,
}

/// A thread control block: what the dispatch engine needs of a thread
/// between its dispatches, 72 bytes. Its CPU total is accounted in
/// [`crate::metrics::ThreadMetrics`], a server's request in service in
/// the kernel's table of requests, its tickets in the policy.
///
/// A name that is the thread's own id ([`ThreadId`]'s display, as the
/// harnesses name their threads) is not stored: [`Thread::name`] gives it
/// back from the id, which sits in what would be padding.
pub struct Thread {
    /// The name as given, unless it is `id`'s display.
    name: Option<Box<str>>,
    /// The id the thread was last filed under (meaningless while `name`
    /// holds the name, before the first filing).
    id: ThreadId,
    state: ThreadState,
    workload: Box<dyn Workload>,
    /// CPU time left in the burst the workload last issued.
    pub(crate) burst_remaining: SimDuration,
    /// When the thread last became ready (for wait-time accounting) or
    /// blocked (for lock-wait accounting): it is never both at once.
    pub(crate) since: SimTime,
    /// CPU consumed in the current quantum, for compensation accounting.
    pub(crate) quantum_used: SimDuration,
    /// Whether the thread is ready after a preemption (quantum expiry or
    /// yield) rather than a spawn or a wake, for wait-time accounting.
    pub(crate) requeued: bool,
}

impl Thread {
    /// Creates a ready thread running `workload`.
    pub fn new(name: impl Into<String>, workload: Box<dyn Workload>) -> Self {
        Self {
            name: Some(name.into().into_boxed_str()),
            id: ThreadId(0),
            state: ThreadState::Ready,
            workload,
            burst_remaining: SimDuration::ZERO,
            since: SimTime::ZERO,
            quantum_used: SimDuration::ZERO,
            requeued: false,
        }
    }

    /// The thread's name.
    pub fn name(&self) -> Cow<'_, str> {
        match &self.name {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(self.id.to_string()),
        }
    }

    /// Files the thread under `tid` in a kernel's table, dropping a name
    /// that `tid`'s display gives back — and restoring one that an earlier
    /// id gave back, should the thread come back under another.
    pub(crate) fn file_under(&mut self, tid: ThreadId) {
        if self.name.is_none() && self.id != tid {
            self.name = Some(self.id.to_string().into_boxed_str());
        }
        self.id = tid;
        if self.name.as_deref().is_some_and(|n| is_display_of(n, tid)) {
            self.name = None;
        }
    }

    /// The thread's current scheduling state.
    pub fn state(&self) -> ThreadState {
        self.state
    }

    /// Whether the thread has exited.
    pub fn is_exited(&self) -> bool {
        self.state == ThreadState::Exited
    }

    pub(crate) fn set_state(&mut self, state: ThreadState) {
        debug_assert!(
            self.state != ThreadState::Exited || state == ThreadState::Exited,
            "exited threads stay exited"
        );
        self.state = state;
    }

    pub(crate) fn workload_mut(&mut self) -> &mut dyn Workload {
        self.workload.as_mut()
    }
}

impl fmt::Debug for Thread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Thread")
            .field("name", &self.name())
            .field("state", &self.state)
            .field("burst_remaining", &self.burst_remaining)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ComputeBound;

    #[test]
    fn new_thread_is_ready() {
        let t = Thread::new("worker", Box::new(ComputeBound));
        assert_eq!(t.state(), ThreadState::Ready);
        assert_eq!(t.burst_remaining, SimDuration::ZERO);
        assert!(!t.is_exited());
        assert_eq!(t.name(), "worker");
    }

    #[test]
    fn state_transitions() {
        let mut t = Thread::new("w", Box::new(ComputeBound));
        t.set_state(ThreadState::Running);
        assert_eq!(t.state(), ThreadState::Running);
        t.set_state(ThreadState::Blocked(BlockReason::Timer));
        assert!(matches!(
            t.state(),
            ThreadState::Blocked(BlockReason::Timer)
        ));
        t.set_state(ThreadState::Exited);
        assert!(t.is_exited());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exited threads stay exited")]
    fn exited_is_terminal() {
        let mut t = Thread::new("w", Box::new(ComputeBound));
        t.set_state(ThreadState::Exited);
        t.set_state(ThreadState::Ready);
    }

    #[test]
    fn debug_impl_shows_name() {
        let t = Thread::new("dbg", Box::new(ComputeBound));
        assert!(format!("{t:?}").contains("dbg"));
    }

    #[test]
    fn a_name_that_is_the_id_reads_back_from_the_id() {
        for (index, name) in [(0, "t0"), (7, "t7"), (40, "t40"), (u32::MAX, "t4294967295")] {
            let mut t = Thread::new(name, Box::new(ComputeBound));
            t.file_under(ThreadId(index));
            assert!(t.name.is_none(), "{name} is stored");
            assert_eq!(t.name(), name);
        }
    }

    #[test]
    fn any_other_name_is_kept_as_given() {
        // Another id's display, near misses of this one's, and names that
        // are no id at all.
        let tid = ThreadId(7);
        for name in [
            "t8", "t07", "t+7", "t7 ", "T7", "7", "t", "", "job7", "dhry7",
        ] {
            let mut t = Thread::new(name, Box::new(ComputeBound));
            t.file_under(tid);
            assert_eq!(t.name.as_deref(), Some(name));
            assert_eq!(t.name(), name);
        }
        assert!(!is_display_of("t", ThreadId(0)));
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId::from_index(4).to_string(), "t4");
        assert_eq!(ThreadId::from_index(4).index(), 4);
    }
}
