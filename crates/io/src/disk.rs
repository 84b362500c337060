//! The lottery-scheduled disk queue.

use std::collections::VecDeque;

use lottery_core::errors::{LotteryError, Result};
use lottery_core::lottery;
use lottery_core::rng::SchedRng;
use lottery_obs::{EventKind, ProbeBus};
use lottery_stats::Summary;

/// Identifies a disk client within a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiskClientId(u32);

impl DiskClientId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

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

#[derive(Debug)]
struct DiskClient {
    name: String,
    tickets: u64,
    queue: VecDeque<Request>,
    sectors_served: u64,
    response_us: Summary,
}

/// A single-spindle disk scheduler with a linear seek-time model.
///
/// Service time of a request =
/// `seek_us_per_sector * |head - sector| + transfer_us_per_sector * length`.
/// Time is tracked internally in microseconds of simulated disk time.
///
/// # Examples
///
/// ```
/// use lottery_core::rng::ParkMiller;
/// use lottery_io::disk::{DiskPolicy, DiskScheduler};
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
/// assert_eq!(disk.sectors_served(a) + disk.sectors_served(b), 1600);
/// ```
#[derive(Debug)]
pub struct DiskScheduler {
    policy: DiskPolicy,
    clients: Vec<DiskClient>,
    head: u64,
    clock_us: u64,
    seek_us_per_sector: u64,
    transfer_us_per_sector: u64,
    /// Arrival order for FCFS: (client, position in that client's queue
    /// is always the head, so a global FIFO of client ids suffices). Kept
    /// only under FCFS, the one policy that reads it.
    arrivals: VecDeque<DiskClientId>,
    seek_distance: u64,
    bus: ProbeBus,
}

impl DiskScheduler {
    /// Creates a scheduler with default timing (0.01 µs/sector seek,
    /// 1 µs/sector transfer — a fast modern disk's magnitudes).
    pub fn new(policy: DiskPolicy) -> Self {
        Self::with_timing(policy, 1, 100)
    }

    /// Creates a scheduler with explicit `seek` and `transfer` costs in
    /// hundredths of a microsecond per sector.
    fn with_timing(policy: DiskPolicy, seek: u64, transfer: u64) -> Self {
        Self {
            policy,
            clients: Vec::new(),
            head: 0,
            clock_us: 0,
            seek_us_per_sector: seek,
            transfer_us_per_sector: transfer,
            arrivals: VecDeque::new(),
            seek_distance: 0,
            bus: ProbeBus::disabled(),
        }
    }

    /// Attaches the probe bus. Grant, draw, and completion events carry
    /// the `"disk"` resource tag; the bus clock stays owned by whoever
    /// drives the simulation (this scheduler never calls `set_time_us`).
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.bus = bus;
    }

    /// Registers a client holding `tickets` bandwidth tickets.
    pub fn register(&mut self, name: impl Into<String>, tickets: u64) -> DiskClientId {
        let id = DiskClientId(self.clients.len() as u32);
        self.clients.push(DiskClient {
            name: name.into(),
            tickets,
            queue: VecDeque::new(),
            sectors_served: 0,
            response_us: Summary::new(),
        });
        self.bus.emit(|| EventKind::ResourceGrant {
            resource: "disk",
            client: id.0,
            tickets,
        });
        id
    }

    /// Submits a request.
    pub fn submit(&mut self, client: DiskClientId, sector: u64, length: u64) {
        let submitted_us = self.clock_us;
        self.clients[client.0 as usize].queue.push_back(Request {
            sector,
            length,
            submitted_us,
        });
        if self.policy == DiskPolicy::Fcfs {
            self.arrivals.push_back(client);
        }
    }

    /// Pending requests for `client`.
    pub fn backlog(&self, client: DiskClientId) -> usize {
        self.clients[client.0 as usize].queue.len()
    }

    /// Sectors served for `client`.
    pub fn sectors_served(&self, client: DiskClientId) -> u64 {
        self.clients[client.0 as usize].sectors_served
    }

    /// Response-time statistics for `client`, in microseconds.
    pub fn response_us(&self, client: DiskClientId) -> &Summary {
        &self.clients[client.0 as usize].response_us
    }

    /// The client's name.
    pub fn name(&self, client: DiskClientId) -> &str {
        &self.clients[client.0 as usize].name
    }

    /// Adjusts a client's tickets.
    pub fn set_tickets(&mut self, client: DiskClientId, tickets: u64) {
        self.clients[client.0 as usize].tickets = tickets;
        self.bus.emit(|| EventKind::ResourceGrant {
            resource: "disk",
            client: client.0,
            tickets,
        });
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

    /// Pending requests across every client.
    pub fn pending_requests(&self) -> usize {
        self.clients.iter().map(|c| c.queue.len()).sum()
    }

    /// Picks the next request per the policy, services it, and advances
    /// the disk clock.
    ///
    /// # Errors
    ///
    /// [`LotteryError::EmptyLottery`] when no requests are pending, and
    /// [`LotteryError::AmountOverflow`] when the lottery's ticket total is
    /// past the draw's range.
    pub fn service_next<R: SchedRng + ?Sized>(&mut self, rng: &mut R) -> Result<DiskClientId> {
        let chosen = match self.policy {
            DiskPolicy::Lottery => {
                // A client without pending requests holds no interval.
                let backlogged =
                    self.clients
                        .iter()
                        .map(|c| if c.queue.is_empty() { 0 } else { c.tickets });
                let (winner, entries, total) = lottery::draw(backlogged, rng)?;
                self.bus.emit(|| EventKind::ResourceDraw {
                    resource: "disk",
                    client: winner as u32,
                    entries: entries as u32,
                    total,
                });
                winner
            }
            DiskPolicy::Fcfs => loop {
                let Some(front) = self.arrivals.pop_front() else {
                    return Err(LotteryError::EmptyLottery);
                };
                // Arrivals may reference requests a different policy run
                // already consumed; skip empties defensively.
                if !self.clients[front.0 as usize].queue.is_empty() {
                    break front.0 as usize;
                }
            },
            DiskPolicy::ShortestSeek => {
                let head = self.head;
                self.clients
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.queue.is_empty())
                    .min_by_key(|(_, c)| {
                        c.queue
                            .front()
                            .map_or(u64::MAX, |r| r.sector.abs_diff(head))
                    })
                    .map(|(i, _)| i)
                    .ok_or(LotteryError::EmptyLottery)?
            }
        };

        let request = self.clients[chosen]
            .queue
            .pop_front()
            .expect("chosen client has a request");
        let seek = self.head.abs_diff(request.sector);
        // Timing constants are in hundredths of a microsecond.
        let service =
            (seek * self.seek_us_per_sector + request.length * self.transfer_us_per_sector) / 100;
        self.clock_us += service.max(1);
        self.seek_distance += seek;
        self.head = request.sector + request.length;
        let c = &mut self.clients[chosen];
        c.sectors_served += request.length;
        let response = self.clock_us - request.submitted_us;
        c.response_us.record(response as f64);
        self.bus.emit(|| EventKind::ResourceComplete {
            resource: "disk",
            client: chosen as u32,
            units: request.length,
            wait: response,
        });
        Ok(DiskClientId(chosen as u32))
    }
}

/// The disk is work-conserving: while any request is pending, its next
/// completion can start at the current disk clock; an idle disk has no
/// future work of its own. A shared event loop therefore jumps straight
/// past idle disk time instead of polling.
impl lottery_sim::event::EventSource for DiskScheduler {
    fn next_due(&self) -> Option<lottery_sim::time::SimTime> {
        (self.pending_requests() > 0).then(|| lottery_sim::time::SimTime::from_us(self.clock_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_core::rng::ParkMiller;

    fn keep_fed(disk: &mut DiskScheduler, clients: &[DiskClientId], i: u64) {
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
        let ratio = disk.sectors_served(a) as f64 / disk.sectors_served(b) as f64;
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
            disk.response_us(slow).mean() > disk.response_us(fast).mean() * 2.0,
            "slow {} vs fast {}",
            disk.response_us(slow).mean(),
            disk.response_us(fast).mean()
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
        let ratio = disk.sectors_served(a) as f64 / disk.sectors_served(b) as f64;
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
            assert_eq!(units, disk.sectors_served(a) + disk.sectors_served(b));
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
        assert_eq!(disk.pending_requests(), 2);
    }

    #[test]
    fn clock_and_accounting_advance() {
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let a = disk.register("a", 1);
        disk.submit(a, 100, 16);
        let mut rng = ParkMiller::new(1);
        disk.service_next(&mut rng).unwrap();
        assert!(disk.clock_us() > 0);
        assert_eq!(disk.sectors_served(a), 16);
        assert_eq!(disk.backlog(a), 0);
        assert_eq!(disk.name(a), "a");
        assert_eq!(a.index(), 0);
    }
}
