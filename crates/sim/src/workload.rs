//! Workload models: what simulated threads do with the CPU.
//!
//! A [`Workload`] is a small state machine the kernel consults whenever a
//! thread needs its next action. Returning [`Burst::Run`] consumes CPU
//! (possibly across several quanta), [`Burst::Sleep`] models I/O or timer
//! waits, [`Burst::Request`]/[`Burst::Receive`]/[`Burst::Reply`] drive the
//! synchronous RPC machinery of Section 4.6, and [`Burst::Yield`] gives up
//! the processor while remaining runnable.

use crate::ipc::PortId;
use crate::sched::LockId;
use crate::time::{SimDuration, SimTime};

/// The next action a thread takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Burst {
    /// Execute on the CPU for the given duration.
    Run(SimDuration),
    /// Block (off the run queue) for the given duration, then wake.
    Sleep(SimDuration),
    /// Give up the remainder of the quantum but stay runnable.
    Yield,
    /// Issue a synchronous RPC: enqueue a request needing `service` CPU
    /// time on `port` and block until the reply.
    Request {
        /// The server port.
        port: PortId,
        /// CPU time the server must spend on this request.
        service: SimDuration,
    },
    /// Block until a request arrives on `port` (server side).
    Receive {
        /// The port to receive on.
        port: PortId,
    },
    /// Complete the current request: send the reply and wake the client.
    ///
    /// Must follow a [`Burst::Receive`] (and typically a [`Burst::Run`] for
    /// the service time); the kernel panics otherwise, as that is a
    /// workload authoring bug.
    Reply,
    /// Acquire a kernel mutex, blocking until it is granted.
    Lock {
        /// The mutex to acquire.
        lock: LockId,
    },
    /// Release a kernel mutex held by this thread.
    Unlock {
        /// The mutex to release.
        lock: LockId,
    },
    /// Terminate the thread.
    Exit,
}

/// Read-only context handed to a workload when it must choose its next
/// action.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadCtx {
    /// The current simulated time.
    pub now: SimTime,
    /// Service time of the request the thread just received, when the
    /// previous burst was a [`Burst::Receive`] that completed.
    pub current_request_service: Option<SimDuration>,
}

/// A thread's behaviour, consulted by the kernel between bursts.
///
/// [`Send`], so a [`crate::thread::Thread`] can move between kernels that
/// run on different OS threads (`lottery-par` migrates them by message).
pub trait Workload: Send {
    /// Chooses the thread's next action.
    fn next(&mut self, ctx: &WorkloadCtx) -> Burst;
}

impl<F: FnMut(&WorkloadCtx) -> Burst + Send> Workload for F {
    fn next(&mut self, ctx: &WorkloadCtx) -> Burst {
        self(ctx)
    }
}

/// Runs forever, never yielding: the paper's Dhrystone tasks.
///
/// Emits maximal-length run bursts; the kernel slices them into quanta.
#[derive(Debug, Clone, Default)]
pub struct ComputeBound;

impl Workload for ComputeBound {
    fn next(&mut self, _ctx: &WorkloadCtx) -> Burst {
        // One simulated hour per burst: effectively unbounded, re-issued
        // when consumed.
        Burst::Run(SimDuration::from_secs(3600))
    }
}

/// Runs for a fixed total CPU budget, then exits.
#[derive(Debug, Clone)]
pub struct FiniteJob {
    remaining: SimDuration,
}

impl FiniteJob {
    /// A job needing `total` CPU time.
    pub fn new(total: SimDuration) -> Self {
        Self { remaining: total }
    }
}

impl Workload for FiniteJob {
    fn next(&mut self, _ctx: &WorkloadCtx) -> Burst {
        if self.remaining.is_zero() {
            return Burst::Exit;
        }
        let chunk = self.remaining;
        self.remaining = SimDuration::ZERO;
        Burst::Run(chunk)
    }
}

/// Uses a fixed fraction of each quantum, then yields: Section 4.5's
/// interactive thread that consumes `1/k` of its quantum.
#[derive(Debug, Clone)]
pub struct FractionalQuantum {
    run: SimDuration,
    ran: bool,
}

impl FractionalQuantum {
    /// A thread that runs `run` CPU time per dispatch, then yields.
    pub fn new(run: SimDuration) -> Self {
        Self { run, ran: false }
    }
}

impl Workload for FractionalQuantum {
    fn next(&mut self, _ctx: &WorkloadCtx) -> Burst {
        self.ran = !self.ran;
        if self.ran {
            Burst::Run(self.run)
        } else {
            Burst::Yield
        }
    }
}

/// Alternates short CPU bursts with sleeps: an I/O-bound thread.
#[derive(Debug, Clone)]
pub struct IoBound {
    run: SimDuration,
    sleep: SimDuration,
    running: bool,
}

impl IoBound {
    /// A thread that computes for `run`, then waits `sleep` for I/O,
    /// forever.
    pub fn new(run: SimDuration, sleep: SimDuration) -> Self {
        Self {
            run,
            sleep,
            running: false,
        }
    }
}

impl Workload for IoBound {
    fn next(&mut self, _ctx: &WorkloadCtx) -> Burst {
        self.running = !self.running;
        if self.running {
            Burst::Run(self.run)
        } else {
            Burst::Sleep(self.sleep)
        }
    }
}

/// Issues closed-loop RPCs: think for a while, then call a server and wait.
#[derive(Debug, Clone)]
pub struct RpcClient {
    port: PortId,
    think: SimDuration,
    service: SimDuration,
    requests: Option<u64>,
    thinking: bool,
}

impl RpcClient {
    /// A client of `port` that alternates `think` CPU time with requests
    /// costing `service` at the server, issuing `requests` calls in total
    /// (`None` for unbounded).
    pub fn new(
        port: PortId,
        think: SimDuration,
        service: SimDuration,
        requests: Option<u64>,
    ) -> Self {
        Self {
            port,
            think,
            service,
            requests,
            thinking: true,
        }
    }
}

impl Workload for RpcClient {
    fn next(&mut self, _ctx: &WorkloadCtx) -> Burst {
        if self.requests == Some(0) {
            return Burst::Exit;
        }
        if self.thinking {
            self.thinking = false;
            if self.think.is_zero() {
                // Fall through to issuing the request immediately.
            } else {
                return Burst::Run(self.think);
            }
        }
        self.thinking = true;
        match &mut self.requests {
            Some(0) => Burst::Exit,
            Some(n) => {
                *n -= 1;
                Burst::Request {
                    port: self.port,
                    service: self.service,
                }
            }
            None => Burst::Request {
                port: self.port,
                service: self.service,
            },
        }
    }
}

/// Serves a port forever: receive, run the request's service time, reply.
#[derive(Debug, Clone)]
pub struct RpcServer {
    port: PortId,
    state: ServerState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    Receiving,
    Serving,
    Replying,
}

impl RpcServer {
    /// A worker thread serving `port`.
    pub fn new(port: PortId) -> Self {
        Self {
            port,
            state: ServerState::Receiving,
        }
    }
}

impl Workload for RpcServer {
    fn next(&mut self, ctx: &WorkloadCtx) -> Burst {
        match self.state {
            ServerState::Receiving => {
                self.state = ServerState::Serving;
                Burst::Receive { port: self.port }
            }
            ServerState::Serving => {
                self.state = ServerState::Replying;
                let service = ctx
                    .current_request_service
                    .expect("server scheduled without a delivered request");
                if service.is_zero() {
                    // Zero-cost request: reply immediately.
                    self.state = ServerState::Receiving;
                    return Burst::Reply;
                }
                Burst::Run(service)
            }
            ServerState::Replying => {
                self.state = ServerState::Receiving;
                Burst::Reply
            }
        }
    }
}

/// The Section 6.1 lock workload: repeatedly acquire a mutex, hold it
/// for `hold` CPU time, release it, and compute for `compute`.
#[derive(Debug, Clone)]
pub struct MutexWorker {
    lock: LockId,
    hold: SimDuration,
    compute: SimDuration,
    phase: u8,
}

impl MutexWorker {
    /// A worker on `lock` with the given hold and compute times (the
    /// paper uses 50 ms each).
    pub fn new(lock: LockId, hold: SimDuration, compute: SimDuration) -> Self {
        Self {
            lock,
            hold,
            compute,
            phase: 0,
        }
    }
}

impl Workload for MutexWorker {
    fn next(&mut self, _ctx: &WorkloadCtx) -> Burst {
        let burst = match self.phase {
            0 => Burst::Lock { lock: self.lock },
            1 => Burst::Run(self.hold),
            2 => Burst::Unlock { lock: self.lock },
            _ => Burst::Run(self.compute),
        };
        self.phase = (self.phase + 1) % 4;
        burst
    }
}

/// Repeats a fixed script of bursts, then exits (or loops).
///
/// Useful for tests that need precisely shaped behaviour.
#[derive(Debug, Clone)]
pub struct Scripted {
    script: Vec<Burst>,
    next: usize,
    looping: bool,
}

impl Scripted {
    /// Plays `script` once, then exits.
    pub fn once(script: Vec<Burst>) -> Self {
        Self {
            script,
            next: 0,
            looping: false,
        }
    }

    /// Plays `script` forever.
    pub fn repeat(script: Vec<Burst>) -> Self {
        Self {
            script,
            next: 0,
            looping: true,
        }
    }
}

impl Workload for Scripted {
    fn next(&mut self, _ctx: &WorkloadCtx) -> Burst {
        if self.next >= self.script.len() {
            if self.looping && !self.script.is_empty() {
                self.next = 0;
            } else {
                return Burst::Exit;
            }
        }
        let burst = self.script[self.next];
        self.next += 1;
        burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> WorkloadCtx {
        WorkloadCtx {
            now: SimTime::ZERO,
            current_request_service: None,
        }
    }

    #[test]
    fn compute_bound_never_stops() {
        let mut w = ComputeBound;
        for _ in 0..3 {
            assert!(matches!(w.next(&ctx()), Burst::Run(_)));
        }
    }

    #[test]
    fn finite_job_exits_after_budget() {
        let mut w = FiniteJob::new(SimDuration::from_ms(50));
        assert_eq!(w.next(&ctx()), Burst::Run(SimDuration::from_ms(50)));
        assert_eq!(w.next(&ctx()), Burst::Exit);
    }

    #[test]
    fn io_bound_alternates() {
        let mut w = IoBound::new(SimDuration::from_ms(1), SimDuration::from_ms(9));
        assert_eq!(w.next(&ctx()), Burst::Run(SimDuration::from_ms(1)));
        assert_eq!(w.next(&ctx()), Burst::Sleep(SimDuration::from_ms(9)));
        assert_eq!(w.next(&ctx()), Burst::Run(SimDuration::from_ms(1)));
    }

    #[test]
    fn rpc_client_counts_requests() {
        let port = PortId::new(0);
        let mut w = RpcClient::new(
            port,
            SimDuration::from_ms(1),
            SimDuration::from_ms(2),
            Some(2),
        );
        assert!(matches!(w.next(&ctx()), Burst::Run(_)));
        assert!(matches!(w.next(&ctx()), Burst::Request { .. }));
        assert!(matches!(w.next(&ctx()), Burst::Run(_)));
        assert!(matches!(w.next(&ctx()), Burst::Request { .. }));
        // No trailing think: the client exits as soon as its last reply
        // arrives, like the paper's 20-query clients.
        assert_eq!(w.next(&ctx()), Burst::Exit);
    }

    #[test]
    fn rpc_client_zero_think_requests_immediately() {
        let port = PortId::new(0);
        let mut w = RpcClient::new(port, SimDuration::ZERO, SimDuration::from_ms(2), Some(1));
        assert!(matches!(w.next(&ctx()), Burst::Request { .. }));
        assert_eq!(w.next(&ctx()), Burst::Exit);
    }

    #[test]
    fn rpc_server_cycle() {
        let port = PortId::new(3);
        let mut w = RpcServer::new(port);
        assert_eq!(w.next(&ctx()), Burst::Receive { port });
        let served = WorkloadCtx {
            current_request_service: Some(SimDuration::from_ms(7)),
            ..ctx()
        };
        assert_eq!(w.next(&served), Burst::Run(SimDuration::from_ms(7)));
        assert_eq!(w.next(&ctx()), Burst::Reply);
        assert_eq!(w.next(&ctx()), Burst::Receive { port });
    }

    #[test]
    fn rpc_server_zero_service_replies_immediately() {
        let port = PortId::new(3);
        let mut w = RpcServer::new(port);
        let _ = w.next(&ctx());
        let served = WorkloadCtx {
            current_request_service: Some(SimDuration::ZERO),
            ..ctx()
        };
        assert_eq!(w.next(&served), Burst::Reply);
        assert_eq!(w.next(&ctx()), Burst::Receive { port });
    }

    #[test]
    fn scripted_once_and_repeat() {
        let script = vec![Burst::Yield, Burst::Run(SimDuration::from_ms(1))];
        let mut once = Scripted::once(script.clone());
        assert_eq!(once.next(&ctx()), Burst::Yield);
        assert!(matches!(once.next(&ctx()), Burst::Run(_)));
        assert_eq!(once.next(&ctx()), Burst::Exit);

        let mut rep = Scripted::repeat(script);
        for _ in 0..3 {
            assert_eq!(rep.next(&ctx()), Burst::Yield);
            assert!(matches!(rep.next(&ctx()), Burst::Run(_)));
        }
    }

    #[test]
    fn closures_are_workloads() {
        let mut calls = 0;
        {
            let mut w = |_: &WorkloadCtx| {
                calls += 1;
                Burst::Exit
            };
            let _ = Workload::next(&mut w, &ctx());
        }
        assert_eq!(calls, 1);
    }
}
