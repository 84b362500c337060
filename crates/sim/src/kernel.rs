//! The uniprocessor kernel: the one-CPU case of the dispatch engine.
//!
//! [`Kernel`] is [`SmpKernel`] with one CPU and nothing else — every
//! dispatch, burst, timer, port and probe is the engine's (see
//! [`crate::smp`] for the dispatch model and its ordering rules). The
//! wrapper exists for its signatures: [`Kernel::run_until`] is infallible,
//! panicking with [`crate::smp::SmpError`]'s message on a workload
//! mistake, which the many one-CPU harnesses rely on, while the engine
//! returns the error; and the `benchmark/` package implements its engine
//! trait for both types and calls `Kernel::now`, `Kernel::metrics` and
//! `Kernel::pending_events` by path, so those stay inherent here.
//! Everything else — `EventSource` included — reaches the engine through
//! `Deref`.

use std::ops::{Deref, DerefMut};

use crate::metrics::Metrics;
use crate::sched::Policy;
use crate::smp::{SmpError, SmpKernel};
use crate::time::SimTime;

/// A discrete-event uniprocessor kernel parameterized by its scheduling
/// policy: the engine and nothing else.
pub struct Kernel<P: Policy>(SmpKernel<P>);

impl<P: Policy> Kernel<P> {
    /// Creates a one-CPU kernel with the given policy and no dispatch or
    /// context-switch cost.
    pub fn new(policy: P) -> Self {
        Self(SmpKernel::new(policy, 1))
    }

    /// Runs the simulation until the clock reaches `deadline`, exactly (see
    /// [`SmpKernel::run_until`]).
    ///
    /// # Panics
    ///
    /// Panics on a workload mistake ([`SmpError`]).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.0.run_until(deadline).unwrap_or_else(fail);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.0.now()
    }

    /// Accumulated measurements.
    pub fn metrics(&self) -> &Metrics {
        self.0.metrics()
    }

    /// Pending future events.
    pub fn pending_events(&self) -> usize {
        self.0.pending_events()
    }
}

fn fail(error: SmpError) {
    panic!("{error}")
}

impl<P: Policy> Deref for Kernel<P> {
    type Target = SmpKernel<P>;

    fn deref(&self) -> &SmpKernel<P> {
        &self.0
    }
}

impl<P: Policy> DerefMut for Kernel<P> {
    fn deref_mut(&mut self) -> &mut SmpKernel<P> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::rr::RoundRobinPolicy;
    use crate::thread::ThreadState;
    use crate::time::SimDuration;
    use crate::workload::{
        Burst, ComputeBound, FiniteJob, IoBound, RpcClient, RpcServer, Scripted,
    };

    fn rr_kernel(quantum_ms: u64) -> Kernel<RoundRobinPolicy> {
        Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(quantum_ms)))
    }

    #[test]
    fn single_compute_thread_uses_all_cpu() {
        let mut k = rr_kernel(100);
        let t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(1));
        assert_eq!(k.metrics().cpu_us(t), 1_000_000);
        assert_eq!(k.now(), SimTime::from_secs(1));
    }

    #[test]
    fn round_robin_splits_cpu_evenly() {
        let mut k = rr_kernel(100);
        let a = k.spawn("a", Box::new(ComputeBound), ());
        let b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(10));
        let ra = k.metrics().cpu_us(a) as f64;
        let rb = k.metrics().cpu_us(b) as f64;
        assert!((ra / rb - 1.0).abs() < 0.02, "{ra} vs {rb}");
    }

    #[test]
    fn finite_job_exits() {
        let mut k = rr_kernel(100);
        let t = k.spawn(
            "job",
            Box::new(FiniteJob::new(SimDuration::from_ms(250))),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        assert!(k.thread(t).is_exited());
        assert_eq!(k.metrics().cpu_us(t), 250_000);
        assert_eq!(k.live_threads(), 0);
        // Idle time passes after the last exit: the clock still reaches
        // the deadline (matching the SMP kernel), with the remainder
        // accounted as idle.
        assert_eq!(k.now(), SimTime::from_secs(1));
        assert_eq!(k.metrics().idle, SimDuration::from_ms(750));
    }

    #[test]
    fn sleeping_thread_wakes_and_idle_time_counted() {
        let mut k = rr_kernel(100);
        let t = k.spawn(
            "io",
            Box::new(IoBound::new(
                SimDuration::from_ms(10),
                SimDuration::from_ms(90),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        // 10 ms CPU per 100 ms period.
        let cpu = k.metrics().cpu_us(t);
        assert_eq!(cpu, 100_000, "10% duty cycle over 1s");
        assert_eq!(k.metrics().idle, SimDuration::from_ms(900));
    }

    #[test]
    fn run_until_is_resumable() {
        let mut k = rr_kernel(100);
        let t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(300));
        let early = k.metrics().cpu_us(t);
        k.run_until(SimTime::from_ms(600));
        assert_eq!(k.metrics().cpu_us(t) - early, 300_000);
    }

    #[test]
    fn rpc_round_trip() {
        let mut k = rr_kernel(100);
        let port = k.create_port("db");
        let server = k.spawn("server", Box::new(RpcServer::new(port)), ());
        let client = k.spawn(
            "client",
            Box::new(RpcClient::new(
                port,
                SimDuration::from_ms(10),
                SimDuration::from_ms(30),
                Some(5),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(5));
        let m = k.metrics().thread(client).unwrap();
        assert_eq!(m.rpcs_completed(), 5);
        // Client thinks 10 ms per request; server burns 30 ms per request.
        assert_eq!(k.metrics().cpu_us(client), 5 * 10_000);
        assert_eq!(k.metrics().cpu_us(server), 5 * 30_000);
        assert!(k.thread(client).is_exited());
        // The server ends up parked in receive.
        assert_eq!(k.port(port).idle_receivers(), 1);
        assert_eq!(k.port(port).backlog(), 0);
        // Response time ≈ service time (no contention).
        assert!(m.response_us.mean() >= 30_000.0);
    }

    #[test]
    fn rpc_queues_when_server_busy() {
        let mut k = rr_kernel(100);
        let port = k.create_port("db");
        let _server = k.spawn("server", Box::new(RpcServer::new(port)), ());
        let c1 = k.spawn(
            "c1",
            Box::new(RpcClient::new(
                port,
                SimDuration::ZERO,
                SimDuration::from_ms(40),
                Some(3),
            )),
            (),
        );
        let c2 = k.spawn(
            "c2",
            Box::new(RpcClient::new(
                port,
                SimDuration::ZERO,
                SimDuration::from_ms(40),
                Some(3),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(5));
        assert_eq!(k.metrics().thread(c1).unwrap().rpcs_completed(), 3);
        assert_eq!(k.metrics().thread(c2).unwrap().rpcs_completed(), 3);
    }

    #[test]
    fn context_switch_cost_accumulates() {
        let mut k = rr_kernel(100);
        k.set_context_switch_cost(SimDuration::from_us(100));
        let _a = k.spawn("a", Box::new(ComputeBound), ());
        let _b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(1));
        assert!(k.metrics().switch_overhead > SimDuration::ZERO);
        assert!(k.metrics().context_switches > 5);
    }

    #[test]
    fn yield_keeps_thread_runnable() {
        let mut k = rr_kernel(100);
        let t = k.spawn(
            "yielder",
            Box::new(Scripted::repeat(vec![
                Burst::Run(SimDuration::from_ms(10)),
                Burst::Yield,
            ])),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        let m = k.metrics().thread(t).unwrap();
        assert!(m.yields > 50, "yields: {}", m.yields);
        assert_eq!(k.metrics().cpu_us(t), 1_000_000);
    }

    #[test]
    fn zero_length_run_does_not_hang() {
        let mut k = rr_kernel(100);
        let _t = k.spawn(
            "degenerate",
            Box::new(Scripted::repeat(vec![Burst::Run(SimDuration::ZERO)])),
            (),
        );
        k.run_until(SimTime::from_ms(100));
        // Termination is the assertion: zero-length bursts become yields.
    }

    #[test]
    fn idle_kernel_passes_time() {
        let mut k = rr_kernel(100);
        k.run_until(SimTime::from_secs(5));
        // An empty machine idles to the deadline so later spawns enter at
        // the time the caller asked for, not at zero.
        assert_eq!(k.now(), SimTime::from_secs(5));
        assert_eq!(k.metrics().idle, SimDuration::from_secs(5));
    }

    #[test]
    fn run_until_splits_quantum_at_deadline() {
        let mut k = rr_kernel(100);
        let t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(150));
        // The second quantum straddles 150 ms: the clock and the cpu
        // charge stop exactly at the boundary, with the thread still
        // running its split quantum.
        assert_eq!(k.now(), SimTime::from_ms(150));
        assert_eq!(k.metrics().cpu_us(t), 150_000);
        assert_eq!(k.thread(t).state(), ThreadState::Running);
        k.run_until(SimTime::from_ms(400));
        assert_eq!(k.now(), SimTime::from_ms(400));
        assert_eq!(k.metrics().cpu_us(t), 400_000);
    }

    #[test]
    fn split_quantum_is_one_decision() {
        let mut k = rr_kernel(100);
        let _t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(150));
        let mid = k.metrics().decisions;
        k.run_until(SimTime::from_ms(200));
        // Resuming the split does not re-dispatch: quanta 0-100 and
        // 100-200 are exactly two decisions however the window is cut.
        assert_eq!(k.metrics().decisions, mid);
        assert_eq!(k.metrics().decisions, 2);
    }

    #[test]
    fn idle_is_exact_at_deadline() {
        let mut k = rr_kernel(100);
        let _t = k.spawn(
            "sleeper",
            Box::new(Scripted::once(vec![Burst::Sleep(SimDuration::from_secs(
                10,
            ))])),
            (),
        );
        k.run_until(SimTime::from_ms(4_500));
        assert_eq!(k.now(), SimTime::from_ms(4_500));
        assert_eq!(k.metrics().idle, SimDuration::from_ms(4_500));
    }

    #[test]
    fn spawn_sleeping_costs_nothing_until_wake() {
        let mut k = rr_kernel(100);
        let t = k.spawn_sleeping(
            "late",
            Box::new(FiniteJob::new(SimDuration::from_ms(50))),
            (),
            SimTime::from_secs(1),
        );
        assert_eq!(k.pending_events(), 1);
        k.run_until(SimTime::from_ms(500));
        assert_eq!(k.metrics().cpu_us(t), 0);
        assert_eq!(k.metrics().decisions, 0);
        assert_eq!(k.next_event_at(), Some(SimTime::from_secs(1)));
        k.run_until(SimTime::from_secs(2));
        assert_eq!(k.metrics().cpu_us(t), 50_000);
        assert!(k.thread(t).is_exited());
    }

    #[test]
    fn scheduled_spawn_arrives_on_time() {
        let mut k = rr_kernel(100);
        k.schedule_spawn_at(
            SimTime::from_ms(250),
            "arrival",
            Box::new(FiniteJob::new(SimDuration::from_ms(100))),
            (),
        );
        assert_eq!(k.pending_events(), 1);
        k.run_until(SimTime::from_secs(1));
        assert_eq!(k.live_threads(), 0);
        assert_eq!(k.metrics().idle, SimDuration::from_ms(900));
    }

    #[test]
    fn kill_cancels_split_quantum() {
        let mut k = rr_kernel(100);
        let a = k.spawn("a", Box::new(ComputeBound), ());
        let b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(150));
        // One of the two is mid-quantum at the split; killing it must
        // cancel the in-flight remainder and leave the survivor whole.
        let (victim, survivor) = if k.thread(a).state() == ThreadState::Running {
            (a, b)
        } else {
            (b, a)
        };
        k.kill(victim);
        let before = k.metrics().cpu_us(survivor);
        k.run_until(SimTime::from_ms(1_150));
        assert_eq!(k.metrics().cpu_us(survivor) - before, 1_000_000);
        assert!(k.thread(victim).is_exited());
    }

    #[test]
    fn next_due_agrees_with_a_scan_of_the_thread_table() {
        use crate::event::EventSource;
        // The reference: due now iff any thread is ready or running.
        fn check(k: &Kernel<RoundRobinPolicy>, what: &str) -> Option<SimTime> {
            let runnable = k
                .threads()
                .any(|(_, t)| matches!(t.state(), ThreadState::Ready | ThreadState::Running));
            let scan = if runnable {
                Some(k.now())
            } else {
                k.next_event_at()
            };
            assert_eq!(k.next_due(), scan, "{what} at {:?}", k.now());
            scan
        }
        let ms = SimDuration::from_ms;
        let mut k = rr_kernel(100);
        assert_eq!(check(&k, "empty"), None);
        let io = k.spawn("io", Box::new(IoBound::new(ms(10), ms(90))), ());
        assert_eq!(check(&k, "spawned"), Some(SimTime::ZERO));
        k.run_until(SimTime::from_ms(50));
        assert_eq!(check(&k, "blocked"), Some(SimTime::from_ms(100)));
        k.run_until(SimTime::from_ms(105));
        assert_eq!(k.thread(io).state(), ThreadState::Running);
        assert_eq!(check(&k, "woken, split"), Some(SimTime::from_ms(105)));
        // A hog and a short job beside the sleeper, walked in steps no
        // quantum divides, so every kind of boundary is visited.
        let hog = k.spawn("hog", Box::new(ComputeBound), ());
        k.spawn("job", Box::new(FiniteJob::new(ms(130))), ());
        for step in 1..=80 {
            k.run_until(SimTime::from_ms(105 + 7 * step));
            check(&k, "mixed");
        }
        k.kill(hog);
        check(&k, "hog killed");
        k.run_until(SimTime::from_ms(900));
        check(&k, "job done");
        k.kill(io);
        assert_eq!(k.live_threads(), 0);
        // The dead sleeper's timer is still pending; past it, nothing is.
        assert_eq!(check(&k, "all dead"), k.next_event_at());
        k.run_until(SimTime::from_secs(2));
        assert_eq!(check(&k, "drained"), None);
    }

    #[test]
    fn wake_past_deadline_stops_at_deadline() {
        let mut k = rr_kernel(100);
        let _t = k.spawn(
            "sleeper",
            Box::new(Scripted::once(vec![Burst::Sleep(SimDuration::from_secs(
                10,
            ))])),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        assert_eq!(k.now(), SimTime::from_secs(1));
        k.run_until(SimTime::from_secs(20));
        assert!(k.now() >= SimTime::from_secs(10));
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use crate::sched::rr::RoundRobinPolicy;
    use crate::sched::EndReason;
    use crate::time::SimDuration;
    use crate::workload::{Burst, ComputeBound, RpcClient, RpcServer, Scripted};
    use lottery_obs::{EventKind, ProbeBus};
    use lottery_obs::{FlightRecorder, Shared};

    fn recorded_kernel() -> (Kernel<RoundRobinPolicy>, Shared<FlightRecorder>) {
        let mut k = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
        let flight = Shared::new(FlightRecorder::new(64));
        k.set_probe_bus(ProbeBus::with_recorder(flight.clone()));
        (k, flight)
    }

    fn kinds(flight: &Shared<FlightRecorder>) -> Vec<EventKind> {
        flight.with(|f| f.events().map(|e| e.kind).collect())
    }

    #[test]
    fn bus_carries_rpc_sequence() {
        let (mut k, flight) = recorded_kernel();
        let port = k.create_port("svc");
        let server = k.spawn("server", Box::new(RpcServer::new(port)), ());
        let client = k.spawn(
            "client",
            Box::new(RpcClient::new(
                port,
                SimDuration::from_ms(5),
                SimDuration::from_ms(10),
                Some(1),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        let kinds = kinds(&flight);
        let (client, server) = (client.index(), server.index());
        assert!(kinds.contains(&EventKind::ThreadSpawn { thread: server }));
        assert!(kinds.contains(&EventKind::ThreadSpawn { thread: client }));
        // The delivery precedes the reply.
        let deliver = kinds
            .iter()
            .position(|e| *e == EventKind::RpcDeliver { client, server })
            .expect("request delivered");
        let reply = kinds
            .iter()
            .position(|e| *e == EventKind::RpcReply { client, server })
            .expect("reply sent");
        assert!(deliver < reply);
        let dispatches = |thread| {
            kinds
                .iter()
                .filter(|e| matches!(e, EventKind::Decision { thread: t, .. } if *t == thread))
                .count()
        };
        assert!(dispatches(client) >= 2, "once to call, once to resume");
        assert!(dispatches(server) >= 1);
    }

    #[test]
    fn bus_carries_yields_and_wakes() {
        let (mut k, flight) = recorded_kernel();
        let t = k.spawn(
            "sleeper",
            Box::new(Scripted::once(vec![
                Burst::Run(SimDuration::from_ms(10)),
                Burst::Sleep(SimDuration::from_ms(20)),
                Burst::Run(SimDuration::from_ms(10)),
            ])),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        let thread = t.index();
        let sequence: Vec<&str> = kinds(&flight)
            .iter()
            .filter_map(|e| match e {
                EventKind::QuantumEnd {
                    thread: t, reason, ..
                } if *t == thread => Some(*reason),
                EventKind::Wake { thread: t } if *t == thread => Some("wake"),
                _ => None,
            })
            .collect();
        assert_eq!(
            sequence,
            [
                EndReason::Blocked.as_str(),
                "wake",
                EndReason::Exited.as_str()
            ]
        );
    }

    #[test]
    fn no_bus_no_events() {
        let mut k = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
        let flight = Shared::new(FlightRecorder::new(16));
        // The default bus is disabled and permanently inert.
        assert!(!k.probe_bus().attach(flight.clone()));
        k.spawn("a", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(1));
        assert!(flight.with(|f| f.is_empty()));
    }
}
