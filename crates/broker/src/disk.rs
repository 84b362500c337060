//! The lottery-scheduled disk queue.
//!
//! The paper's abstract lists I/O bandwidth among the diverse resources
//! lotteries can manage, and Section 5.3's footnote sketches the concrete
//! case: "A disk-based database could use lotteries to schedule disk
//! bandwidth." [`DiskScheduler`] implements that — a single-spindle disk
//! whose next request is the [`ResourceQueue`] lottery's among the
//! ticketed clients with pending work — alongside FCFS and
//! shortest-seek-first baselines that expose the isolation/throughput
//! trade-off.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use lottery_core::errors::{LotteryError, Result};
use lottery_core::rng::SchedRng;

use crate::queue::{QueueClientId, ResourceQueue};

/// One disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// First sector addressed.
    pub sector: u64,
    /// Number of sectors transferred.
    pub length: u64,
    /// Submission time, in microseconds of disk time.
    pub submitted_us: u64,
}

/// How the next request is chosen when the disk becomes free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskPolicy {
    /// A lottery over clients with pending requests, weighted by tickets:
    /// bandwidth divides proportionally (the paper's generalization).
    #[default]
    Lottery,
    /// First-come first-served across all clients (no isolation: one
    /// flooding client starves the rest).
    Fcfs,
    /// Shortest seek first (throughput-optimal, fairness-free baseline).
    ShortestSeek,
}

/// Seek cost, in hundredths of a microsecond per sector of head travel
/// (0.01 µs: a fast modern disk's magnitude).
const SEEK_PER_SECTOR: u64 = 1;
/// Transfer cost, in hundredths of a microsecond per sector (1 µs).
const TRANSFER_PER_SECTOR: u64 = 100;

/// A single-spindle disk scheduler with a linear seek-time model: a
/// [`ResourceQueue`] of [`Request`]s tagged `"disk"` (it derefs to the
/// queue for clients, tickets and accounting; served units are sectors
/// and waits are response times in microseconds) plus the head, the disk
/// clock and the policy.
///
/// Service time of a request, in hundredths of a microsecond, is
/// `SEEK_PER_SECTOR * |head - sector| + TRANSFER_PER_SECTOR * length`.
/// Time is tracked internally in microseconds of simulated disk time.
///
/// # Examples
///
/// ```
/// use lottery_broker::disk::{DiskPolicy, DiskScheduler};
/// use lottery_core::rng::ParkMiller;
///
/// let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
/// let a = disk.register("db", 300);
/// let b = disk.register("backup", 100);
/// let mut rng = ParkMiller::new(1);
/// for i in 0..100 {
///     disk.submit(a, i * 8, 8);
///     disk.submit(b, i * 8, 8);
/// }
/// while disk.service_next(&mut rng).is_ok() {}
/// assert_eq!(disk.served(a) + disk.served(b), 1600);
/// ```
#[derive(Debug)]
pub struct DiskScheduler {
    queue: ResourceQueue<Request>,
    policy: DiskPolicy,
    head: u64,
    clock_us: u64,
    /// Arrival order for FCFS: each client's queue is served from its
    /// head, so a global FIFO of client ids suffices. Kept only under
    /// FCFS, the one policy that reads it.
    arrivals: VecDeque<QueueClientId>,
    seek_distance: u64,
}

impl Deref for DiskScheduler {
    type Target = ResourceQueue<Request>;

    fn deref(&self) -> &Self::Target {
        &self.queue
    }
}

impl DerefMut for DiskScheduler {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.queue
    }
}

impl DiskScheduler {
    /// Creates an idle scheduler with its head at sector 0.
    pub fn new(policy: DiskPolicy) -> Self {
        Self {
            queue: ResourceQueue::new("disk"),
            policy,
            head: 0,
            clock_us: 0,
            arrivals: VecDeque::new(),
            seek_distance: 0,
        }
    }

    /// Submits a request.
    pub fn submit(&mut self, client: QueueClientId, sector: u64, length: u64) {
        let submitted_us = self.clock_us;
        self.queue.submit(
            client,
            Request {
                sector,
                length,
                submitted_us,
            },
        );
        if self.policy == DiskPolicy::Fcfs {
            self.arrivals.push_back(client);
        }
    }

    /// Total simulated disk time elapsed, in microseconds.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Total head travel, in sectors (a throughput/fairness trade-off
    /// indicator: SSTF minimizes it, lotteries pay some of it back for
    /// isolation).
    pub fn seek_distance(&self) -> u64 {
        self.seek_distance
    }

    /// Picks the next request per the policy, services it, and advances
    /// the disk clock.
    ///
    /// # Errors
    ///
    /// [`LotteryError::EmptyLottery`] when no requests are pending, and
    /// [`LotteryError::AmountOverflow`] when the lottery's ticket total is
    /// past the draw's range.
    pub fn service_next<R: SchedRng + ?Sized>(&mut self, rng: &mut R) -> Result<QueueClientId> {
        let (client, request) = match self.policy {
            DiskPolicy::Lottery => self.queue.draw(rng)?,
            // Every FCFS submission queued one arrival, so the oldest
            // arrival's client holds the oldest request.
            DiskPolicy::Fcfs => {
                let front = self
                    .arrivals
                    .pop_front()
                    .ok_or(LotteryError::EmptyLottery)?;
                (front, self.queue.pop(front)?)
            }
            DiskPolicy::ShortestSeek => {
                let head = self.head;
                let (nearest, _) = self
                    .queue
                    .heads()
                    .min_by_key(|(_, r)| r.sector.abs_diff(head))
                    .ok_or(LotteryError::EmptyLottery)?;
                (nearest, self.queue.pop(nearest)?)
            }
        };

        let seek = self.head.abs_diff(request.sector);
        let service = (seek * SEEK_PER_SECTOR + request.length * TRANSFER_PER_SECTOR) / 100;
        self.clock_us += service.max(1);
        self.seek_distance += seek;
        self.head = request.sector + request.length;
        let response = self.clock_us - request.submitted_us;
        self.queue.complete(client, request.length, response);
        Ok(client)
    }
}

/// The disk is work-conserving: while any request is pending, its next
/// completion can start at the current disk clock; an idle disk has no
/// future work of its own. A shared event loop therefore jumps straight
/// past idle disk time instead of polling.
impl lottery_sim::event::EventSource for DiskScheduler {
    fn next_due(&self) -> Option<lottery_sim::time::SimTime> {
        (self.pending() > 0).then(|| lottery_sim::time::SimTime::from_us(self.clock_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_core::rng::ParkMiller;

    fn keep_fed(disk: &mut DiskScheduler, clients: &[QueueClientId], i: u64) {
        for (k, &c) in clients.iter().enumerate() {
            if disk.backlog(c) < 4 {
                // Interleaved extents so seeks are non-trivial.
                disk.submit(c, (i * 64 + k as u64 * 1000) % 100_000, 8);
            }
        }
    }

    #[test]
    fn empty_disk_reports() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let mut rng = ParkMiller::new(1);
        assert_eq!(disk.service_next(&mut rng), Err(LotteryError::EmptyLottery));
    }

    #[test]
    fn lottery_divides_bandwidth_proportionally() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let a = disk.register("a", 300);
        let b = disk.register("b", 100);
        let mut rng = ParkMiller::new(7);
        for i in 0..40_000u64 {
            keep_fed(&mut disk, &[a, b], i);
            disk.service_next(&mut rng).unwrap();
        }
        let ratio = disk.served(a) as f64 / disk.served(b) as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn fcfs_lets_a_flood_starve_others() {
        let mut disk = DiskScheduler::new(DiskPolicy::Fcfs);
        let flood = disk.register("flood", 100);
        let meek = disk.register("meek", 100);
        // The flooder submits 1000 requests first; the meek client's one
        // request then waits behind all of them.
        for i in 0..1000u64 {
            disk.submit(flood, i * 8, 8);
        }
        disk.submit(meek, 0, 8);
        let mut rng = ParkMiller::new(3);
        for _ in 0..1000 {
            let who = disk.service_next(&mut rng).unwrap();
            assert_eq!(who, flood);
        }
        assert_eq!(disk.service_next(&mut rng).unwrap(), meek);
    }

    #[test]
    fn lottery_isolates_against_floods() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let flood = disk.register("flood", 100);
        let meek = disk.register("meek", 100);
        for i in 0..1000u64 {
            disk.submit(flood, i * 8, 8);
        }
        disk.submit(meek, 0, 8);
        let mut rng = ParkMiller::new(3);
        // With equal tickets the meek request is served within a few
        // draws, not after 1000.
        let mut served_after = 0;
        loop {
            let who = disk.service_next(&mut rng).unwrap();
            served_after += 1;
            if who == meek {
                break;
            }
        }
        assert!(served_after < 20, "meek waited {served_after} services");
    }

    #[test]
    fn sstf_minimizes_seeks() {
        let run = |policy: DiskPolicy| -> u64 {
            let mut disk = DiskScheduler::new(policy);
            let a = disk.register("a", 100);
            let b = disk.register("b", 100);
            // a's extents at low sectors, b's at high: SSTF batches them.
            for i in 0..200u64 {
                disk.submit(a, i * 8, 8);
                disk.submit(b, 1_000_000 + i * 8, 8);
            }
            let mut rng = ParkMiller::new(5);
            while disk.service_next(&mut rng).is_ok() {}
            disk.seek_distance()
        };
        let sstf = run(DiskPolicy::ShortestSeek);
        let lottery = run(DiskPolicy::Lottery);
        assert!(
            sstf * 10 < lottery,
            "SSTF should seek far less: {sstf} vs {lottery}"
        );
    }

    #[test]
    fn response_times_follow_tickets() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let fast = disk.register("fast", 900);
        let slow = disk.register("slow", 100);
        let mut rng = ParkMiller::new(11);
        for i in 0..20_000u64 {
            keep_fed(&mut disk, &[fast, slow], i);
            disk.service_next(&mut rng).unwrap();
        }
        assert!(
            disk.waits(slow).mean() > disk.waits(fast).mean() * 2.0,
            "slow {} vs fast {}",
            disk.waits(slow).mean(),
            disk.waits(fast).mean()
        );
    }

    #[test]
    fn set_tickets_rebalances() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let a = disk.register("a", 100);
        let b = disk.register("b", 100);
        disk.set_tickets(a, 400);
        let mut rng = ParkMiller::new(13);
        for i in 0..20_000u64 {
            keep_fed(&mut disk, &[a, b], i);
            disk.service_next(&mut rng).unwrap();
        }
        let ratio = disk.served(a) as f64 / disk.served(b) as f64;
        assert!((ratio - 4.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn probe_bus_sees_grants_draws_and_completions() {
        use lottery_obs::{Aggregator, ProbeBus, Shared};

        let bus = ProbeBus::enabled();
        let stats = Shared::new(Aggregator::new());
        bus.attach(stats.clone());
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        disk.set_probe_bus(bus);
        let a = disk.register("a", 300);
        let b = disk.register("b", 100);
        disk.set_tickets(b, 150);
        let mut rng = ParkMiller::new(17);
        for i in 0..32u64 {
            keep_fed(&mut disk, &[a, b], i);
            disk.service_next(&mut rng).unwrap();
        }
        stats.with(|s| {
            assert_eq!(s.resource_draws.get("disk"), Some(&32));
            let units = s.resource_units.get("disk").copied().unwrap_or(0);
            assert_eq!(units, disk.served(a) + disk.served(b));
            assert!(s.resource_wait.contains_key("disk"));
        });
    }

    /// A ticket total that overflows `u64` is an error, not a panic in
    /// the sum or an empty lottery with requests pending.
    #[test]
    fn overflowing_ticket_total_is_an_error() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let a = disk.register("a", u64::MAX);
        let b = disk.register("b", 1);
        disk.submit(a, 0, 8);
        disk.submit(b, 64, 8);
        let mut rng = ParkMiller::new(1);
        assert_eq!(
            disk.service_next(&mut rng),
            Err(LotteryError::AmountOverflow)
        );
        assert_eq!(disk.pending(), 2);
    }

    #[test]
    fn clock_and_accounting_advance() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let a = disk.register("a", 1);
        disk.submit(a, 100, 16);
        let mut rng = ParkMiller::new(1);
        disk.service_next(&mut rng).unwrap();
        assert!(disk.clock_us() > 0);
        assert_eq!(disk.served(a), 16);
        assert_eq!(disk.backlog(a), 0);
        assert_eq!(disk.name(a), "a");
        assert_eq!(a.index(), 0);
    }
}
