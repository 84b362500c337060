//! A classical fair-share scheduler (Kay & Lauder style).
//!
//! Section 7 contrasts lottery scheduling with "fair share schedulers
//! \[that\] allocate resources so that users get fair machine shares over
//! long periods of time" [Hen84, Kay88]: they monitor CPU usage and
//! "dynamically adjust conventional priorities to push actual usage closer
//! to entitled shares", with the complexity, periodic usage updates, and
//! slow (minutes-scale) convergence the paper criticizes.
//!
//! This implementation follows the classic two-level scheme: every thread
//! belongs to a *user* holding a share allocation; a thread's effective
//! priority is depressed by both its own decayed usage and its user's
//! decayed usage normalized by the user's shares. The decay runs on a
//! periodic tick. Comparing it against the lottery policy (the workspace's
//! `tests/ablations.rs`) reproduces the paper's argument: similar steady-state
//! shares, far slower response to change.

use super::{EndReason, Policy};
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Identifies a user (share group) within the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(u32);

impl UserId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
struct User {
    shares: u64,
    usage_us: f64,
}

#[derive(Debug, Clone, Copy)]
struct Ts {
    user: usize,
    usage_us: f64,
    queued: bool,
    arrival: u64,
}

/// The fair-share policy.
#[derive(Debug)]
pub struct FairSharePolicy {
    users: Vec<User>,
    threads: Vec<Option<Ts>>,
    ready: Vec<ThreadId>,
    quantum: SimDuration,
    /// Decay applied every tick: `usage *= decay`.
    decay: f64,
    tick: SimDuration,
    last_decay: SimTime,
    arrivals: u64,
}

impl FairSharePolicy {
    /// Creates a fair-share policy with the given quantum, the classic
    /// 4-second usage tick, and a 0.9 decay factor.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum.
    pub fn new(quantum: SimDuration) -> Self {
        Self::with_decay(quantum, SimDuration::from_secs(4), 0.9)
    }

    /// Creates a policy with explicit decay parameters.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum or tick, or a decay outside `(0, 1]`.
    pub fn with_decay(quantum: SimDuration, tick: SimDuration, decay: f64) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        assert!(!tick.is_zero(), "tick must be positive");
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        Self {
            users: Vec::new(),
            threads: Vec::new(),
            ready: Vec::new(),
            quantum,
            decay,
            tick,
            last_decay: SimTime::ZERO,
            arrivals: 0,
        }
    }

    /// Registers a user holding `shares` machine shares.
    pub fn create_user(&mut self, shares: u64) -> UserId {
        let id = UserId(self.users.len() as u32);
        self.users.push(User {
            shares: shares.max(1),
            usage_us: 0.0,
        });
        id
    }

    /// Changes a user's share allocation.
    pub fn set_shares(&mut self, user: UserId, shares: u64) {
        self.users[user.0 as usize].shares = shares.max(1);
    }

    /// A user's decayed usage, for tests and diagnostics.
    pub fn user_usage(&self, user: UserId) -> f64 {
        self.users[user.0 as usize].usage_us
    }

    /// The scheduling penalty: the user's decayed usage normalized by its
    /// shares. Threads of the same user are ordered by their own usage
    /// (see [`FairSharePolicy::pick`]), so the user-level share governs
    /// inter-user allocation and thread usage only divides a user's slice.
    fn penalty(&self, ts: &Ts) -> f64 {
        let user = self.users[ts.user];
        user.usage_us / user.shares as f64
    }

    fn maybe_decay(&mut self, now: SimTime) {
        while now.saturating_since(self.last_decay) >= self.tick {
            for u in &mut self.users {
                u.usage_us *= self.decay;
            }
            for t in self.threads.iter_mut().flatten() {
                t.usage_us *= self.decay;
            }
            self.last_decay += self.tick;
        }
    }
}

impl Policy for FairSharePolicy {
    /// The user the thread belongs to.
    type Spec = UserId;

    fn on_spawn(&mut self, tid: ThreadId, user: UserId) {
        let idx = tid.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize(idx + 1, None);
        }
        assert!(
            (user.0 as usize) < self.users.len(),
            "unknown user {user:?}"
        );
        self.threads[idx] = Some(Ts {
            user: user.0 as usize,
            usage_us: 0.0,
            queued: false,
            arrival: 0,
        });
    }

    fn on_exit(&mut self, tid: ThreadId) {
        self.ready.retain(|&t| t != tid);
        self.threads[tid.index() as usize] = None;
    }

    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        let arrivals = {
            self.arrivals += 1;
            self.arrivals
        };
        let ts = self.threads[tid.index() as usize]
            .as_mut()
            .expect("enqueue of unregistered thread");
        debug_assert!(!ts.queued, "double enqueue of {tid}");
        ts.queued = true;
        ts.arrival = arrivals;
        self.ready.push(tid);
    }

    fn pick(&mut self, now: SimTime) -> Option<ThreadId> {
        self.maybe_decay(now);
        // Pick the minimum-penalty thread; ties break by arrival order.
        let (pos, _) = self.ready.iter().enumerate().min_by(|(_, &a), (_, &b)| {
            let ta = self.threads[a.index() as usize].expect("queued thread");
            let tb = self.threads[b.index() as usize].expect("queued thread");
            self.penalty(&ta)
                .partial_cmp(&self.penalty(&tb))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    ta.usage_us
                        .partial_cmp(&tb.usage_us)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(ta.arrival.cmp(&tb.arrival))
        })?;
        let tid = self.ready.swap_remove(pos);
        self.threads[tid.index() as usize]
            .as_mut()
            .expect("queued thread")
            .queued = false;
        Some(tid)
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, _q: SimDuration, _why: EndReason) {
        let ts = self.threads[tid.index() as usize]
            .as_mut()
            .expect("charged thread is registered");
        ts.usage_us += used.as_us() as f64;
        self.users[ts.user].usage_us += used.as_us() as f64;
    }

    fn quantum(&self) -> SimDuration {
        self.quantum
    }

    fn ready_len(&self) -> usize {
        self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId::from_index(0);
    const T1: ThreadId = ThreadId::from_index(1);

    fn full(p: &mut FairSharePolicy, tid: ThreadId) {
        p.charge(
            tid,
            SimDuration::from_ms(100),
            SimDuration::from_ms(100),
            EndReason::QuantumExpired,
        );
    }

    #[test]
    fn equal_shares_alternate() {
        let mut p = FairSharePolicy::new(SimDuration::from_ms(100));
        let u0 = p.create_user(100);
        let u1 = p.create_user(100);
        p.on_spawn(T0, u0);
        p.on_spawn(T1, u1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        let mut counts = [0u32; 2];
        for _ in 0..100 {
            let t = p.pick(SimTime::ZERO).unwrap();
            full(&mut p, t);
            p.enqueue(t, SimTime::ZERO);
            counts[t.index() as usize] += 1;
        }
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
    }

    #[test]
    fn shares_weight_long_run_usage() {
        // 2:1 shares over many quanta -> roughly 2:1 picks.
        let mut p = FairSharePolicy::new(SimDuration::from_ms(100));
        let u0 = p.create_user(200);
        let u1 = p.create_user(100);
        p.on_spawn(T0, u0);
        p.on_spawn(T1, u1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        let mut counts = [0u32; 2];
        let mut now = SimTime::ZERO;
        for _ in 0..600 {
            let t = p.pick(now).unwrap();
            full(&mut p, t);
            now += SimDuration::from_ms(100);
            p.enqueue(t, now);
            counts[t.index() as usize] += 1;
        }
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn user_usage_is_pooled_across_threads() {
        // One user with two threads vs one user with one thread, equal
        // shares: the single thread gets ~half the machine, not a third.
        let mut p = FairSharePolicy::new(SimDuration::from_ms(100));
        let many = p.create_user(100);
        let solo = p.create_user(100);
        let t2 = ThreadId::from_index(2);
        p.on_spawn(T0, many);
        p.on_spawn(T1, many);
        p.on_spawn(t2, solo);
        for t in [T0, T1, t2] {
            p.enqueue(t, SimTime::ZERO);
        }
        let mut solo_picks = 0u32;
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            let t = p.pick(now).unwrap();
            full(&mut p, t);
            now += SimDuration::from_ms(100);
            p.enqueue(t, now);
            if t == t2 {
                solo_picks += 1;
            }
        }
        let share = f64::from(solo_picks) / 300.0;
        assert!((share - 0.5).abs() < 0.08, "solo share {share}");
    }

    #[test]
    fn decay_forgives_history() {
        let mut p =
            FairSharePolicy::with_decay(SimDuration::from_ms(100), SimDuration::from_secs(1), 0.5);
        let u = p.create_user(100);
        p.on_spawn(T0, u);
        full(&mut p, T0);
        let before = p.user_usage(u);
        p.enqueue(T0, SimTime::ZERO);
        let _ = p.pick(SimTime::from_secs(10));
        assert!(p.user_usage(u) < before / 100.0);
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn unknown_user_rejected() {
        let mut p = FairSharePolicy::new(SimDuration::from_ms(100));
        p.on_spawn(T0, UserId(7));
    }
}
