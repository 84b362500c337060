//! Thread control blocks.
//!
//! A simulated thread owns a [`crate::workload::Workload`], a scheduling
//! state, and accounting fields. Scheduling *policy* state (tickets,
//! priorities, strides) lives in the policy, keyed by [`ThreadId`].

use core::fmt;

use crate::ipc::{Message, PortId};
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

/// A thread control block.
pub struct Thread {
    name: Box<str>,
    state: ThreadState,
    workload: Box<dyn Workload>,
    /// CPU time left in the burst the workload last issued.
    pub(crate) burst_remaining: SimDuration,
    /// The request currently being served (server threads).
    pub(crate) current_request: Option<Message>,
    /// Total CPU time consumed.
    pub(crate) cpu_time: SimDuration,
    /// When the thread last became ready (for wait-time accounting).
    pub(crate) ready_since: Option<SimTime>,
    /// When the thread last blocked (for lock-wait accounting).
    pub(crate) blocked_since: Option<SimTime>,
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
            name: name.into().into_boxed_str(),
            state: ThreadState::Ready,
            workload,
            burst_remaining: SimDuration::ZERO,
            current_request: None,
            cpu_time: SimDuration::ZERO,
            ready_since: None,
            blocked_since: None,
            quantum_used: SimDuration::ZERO,
            requeued: false,
        }
    }

    /// The thread's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The thread's current scheduling state.
    pub fn state(&self) -> ThreadState {
        self.state
    }

    /// Total CPU time consumed so far.
    pub fn cpu_time(&self) -> SimDuration {
        self.cpu_time
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
            .field("name", &self.name)
            .field("state", &self.state)
            .field("cpu_time", &self.cpu_time)
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
        assert_eq!(t.cpu_time(), SimDuration::ZERO);
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
    fn thread_id_display() {
        assert_eq!(ThreadId::from_index(4).to_string(), "t4");
        assert_eq!(ThreadId::from_index(4).index(), 4);
    }
}
