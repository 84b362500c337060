//! The Section 6.1 mutex experiment (Figures 10 and 11).
//!
//! "We have experimented with our mutex implementation using a synthetic
//! multithreaded application in which threads compete for the same mutex.
//! Each thread repeatedly acquires the mutex, holds it for *h*
//! milliseconds, releases the mutex, and computes for another *c*
//! milliseconds." The eight threads are split into two groups with a 2 : 1
//! ticket allocation; the paper reports a 1.80 : 1 acquisition ratio and a
//! 1 : 2.11 mean waiting-time ratio.
//!
//! This driver reproduces the experiment as a small discrete-event
//! simulation over [`lottery_core::mutex::TicketMutex`]. CPU contention is
//! not modelled: with eight threads parked on one lock the behaviour under
//! study is lock scheduling, and the waiting-time statistics are produced
//! by the handoff lotteries alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lottery_core::client::ClientId;
use lottery_core::ledger::Ledger;
use lottery_core::mutex::{TicketMutex, WaiterFunding};
use lottery_core::rng::ParkMiller;
use lottery_stats::{Histogram, Summary};

/// Configuration for the mutex fairness experiment.
#[derive(Debug, Clone)]
pub struct MutexExperiment {
    /// Threads per group.
    pub threads_per_group: usize,
    /// Base funding of each group's currency; the paper uses 2 : 1.
    pub group_funding: Vec<u64>,
    /// Mutex hold time in milliseconds (the paper's `h` = 50).
    pub hold_ms: u64,
    /// Compute time between acquisitions in milliseconds (`c` = 50).
    pub compute_ms: u64,
    /// Experiment length in milliseconds (the paper runs two minutes).
    pub duration_ms: u64,
    /// RNG seed.
    pub seed: u32,
}

impl Default for MutexExperiment {
    fn default() -> Self {
        Self {
            threads_per_group: 4,
            group_funding: vec![2000, 1000],
            hold_ms: 50,
            compute_ms: 50,
            duration_ms: 120_000,
            seed: 1,
        }
    }
}

/// Per-group results.
#[derive(Debug)]
pub struct GroupReport {
    /// Mutex acquisitions by the group's threads.
    pub acquisitions: u64,
    /// Waiting times in milliseconds.
    pub waiting_ms: Summary,
    /// Waiting-time histogram (Figure 11's panels), 0–4 s in 125 ms
    /// buckets.
    pub histogram: Histogram,
}

/// Results of one experiment run.
#[derive(Debug)]
pub struct MutexReport {
    /// One report per group, in `group_funding` order.
    pub groups: Vec<GroupReport>,
}

impl MutexReport {
    /// Acquisition ratio of group `a` to group `b`.
    pub fn acquisition_ratio(&self, a: usize, b: usize) -> f64 {
        self.groups[a].acquisitions as f64 / self.groups[b].acquisitions as f64
    }

    /// Mean-waiting-time ratio of group `a` to group `b`.
    pub fn waiting_ratio(&self, a: usize, b: usize) -> f64 {
        self.groups[a].waiting_ms.mean() / self.groups[b].waiting_ms.mean()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The thread finishes computing and tries to acquire.
    Acquire,
    /// The thread finishes its hold time and releases.
    Release,
}

/// Runs the experiment.
pub fn run(config: &MutexExperiment) -> MutexReport {
    let mut ledger = Ledger::new();
    let mut rng = ParkMiller::new(config.seed);

    // Build the group currencies and their threads.
    let mut clients: Vec<ClientId> = Vec::new();
    let mut group_of: Vec<usize> = Vec::new();
    let mut fundings: Vec<WaiterFunding> = Vec::new();
    for (g, &funding) in config.group_funding.iter().enumerate() {
        let currency = ledger.create_currency(format!("group{g}")).unwrap();
        let backing = ledger.issue_root(ledger.base(), funding).unwrap();
        ledger.fund_currency(backing, currency).unwrap();
        for i in 0..config.threads_per_group {
            let c = ledger.create_client(format!("g{g}t{i}"));
            let t = ledger.issue_root(currency, 100).unwrap();
            ledger.fund_client(t, c).unwrap();
            ledger.activate_client(c).unwrap();
            clients.push(c);
            group_of.push(g);
            fundings.push(WaiterFunding {
                currency,
                amount: 100,
            });
        }
    }

    let mut mutex = TicketMutex::new(&mut ledger, "contended").unwrap();
    let mut groups: Vec<GroupReport> = config
        .group_funding
        .iter()
        .map(|_| GroupReport {
            acquisitions: 0,
            waiting_ms: Summary::new(),
            histogram: Histogram::new(0.0, 4000.0, 32),
        })
        .collect();

    // Event queue: (time_ms, sequence, thread index, event).
    let mut events: BinaryHeap<Reverse<(u64, u64, usize, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut waiting_since: Vec<Option<u64>> = vec![None; clients.len()];
    for i in 0..clients.len() {
        // Stagger initial attempts by a millisecond to avoid a thundering
        // herd at t = 0 with deterministic tie-breaks.
        events.push(Reverse((i as u64, i as u64, i, Event::Acquire)));
        seq += 1;
    }

    let record = |groups: &mut Vec<GroupReport>, thread: usize, waited_ms: u64| {
        let g = group_of[thread];
        groups[g].acquisitions += 1;
        groups[g].waiting_ms.record(waited_ms as f64);
        groups[g].histogram.record(waited_ms as f64);
    };

    while let Some(Reverse((now, _, thread, event))) = events.pop() {
        if now >= config.duration_ms {
            break;
        }
        match event {
            Event::Acquire => {
                let client = clients[thread];
                if mutex
                    .acquire(&mut ledger, client, fundings[thread])
                    .unwrap()
                {
                    record(&mut groups, thread, 0);
                    seq += 1;
                    events.push(Reverse((now + config.hold_ms, seq, thread, Event::Release)));
                } else {
                    // Blocked: deactivate while waiting, as the kernel
                    // would when taking the thread off the run queue.
                    ledger.deactivate_client(client).unwrap();
                    waiting_since[thread] = Some(now);
                }
            }
            Event::Release => {
                let client = clients[thread];
                let next = mutex.release(&mut ledger, client, &mut rng).unwrap();
                // The releasing thread computes, then tries again.
                seq += 1;
                events.push(Reverse((
                    now + config.compute_ms,
                    seq,
                    thread,
                    Event::Acquire,
                )));
                if let Some(winner) = next {
                    let w = clients.iter().position(|&c| c == winner).unwrap();
                    ledger.activate_client(winner).unwrap();
                    let waited = now - waiting_since[w].take().expect("winner was waiting");
                    record(&mut groups, w, waited);
                    seq += 1;
                    events.push(Reverse((now + config.hold_ms, seq, w, Event::Release)));
                }
            }
        }
    }

    MutexReport { groups }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_shape() {
        // The paper's run: 8 threads, groups 2:1, h = c = 50 ms, 2 min.
        // Reported: acquisitions 763 : 423 (1.80 : 1), mean waits
        // 450 ms : 948 ms (1 : 2.11). Assert the shape, not the decimals.
        let report = run(&MutexExperiment::default());
        let acq = report.acquisition_ratio(0, 1);
        assert!(
            (1.4..=2.4).contains(&acq),
            "acquisition ratio {acq} out of range"
        );
        let wait = report.waiting_ratio(1, 0);
        assert!(
            (1.4..=3.2).contains(&wait),
            "waiting ratio {wait} out of range"
        );
        // Total acquisitions bounded by lock capacity: one 50 ms hold at a
        // time for 120 s is at most 2400.
        let total: u64 = report.groups.iter().map(|g| g.acquisitions).sum();
        assert!(total <= 2400, "total {total}");
        assert!(total >= 2000, "lock should be saturated, got {total}");
    }

    #[test]
    fn equal_funding_is_fair() {
        let report = run(&MutexExperiment {
            group_funding: vec![1000, 1000],
            seed: 9,
            ..MutexExperiment::default()
        });
        let acq = report.acquisition_ratio(0, 1);
        assert!((0.85..=1.15).contains(&acq), "ratio {acq}");
    }

    #[test]
    fn uncontended_single_thread_never_waits() {
        let report = run(&MutexExperiment {
            threads_per_group: 1,
            group_funding: vec![1000],
            duration_ms: 10_000,
            ..MutexExperiment::default()
        });
        assert_eq!(report.groups[0].waiting_ms.max(), 0.0);
        // One acquire per 100 ms.
        assert!((95..=101).contains(&report.groups[0].acquisitions));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(&MutexExperiment::default());
        let b = run(&MutexExperiment::default());
        assert_eq!(a.groups[0].acquisitions, b.groups[0].acquisitions);
        assert_eq!(a.groups[1].acquisitions, b.groups[1].acquisitions);
    }
}
