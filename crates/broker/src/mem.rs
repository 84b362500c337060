//! The inverse-lottery page-frame manager — Section 6.2's proposal.
//!
//! Time-shared resources pick a lottery *winner*; finely divisible
//! space-shared resources like memory instead pick a *loser* that must
//! relinquish a unit it holds. When a page fault finds no free frame, the
//! manager chooses a victim client "with probability proportional to both
//! `[1/(n-1)](1 - t/T)` and the fraction of physical memory in use by that
//! client", then reclaims one of the victim's frames.

use lottery_core::errors::{LotteryError, Result};
use lottery_core::inverse;
use lottery_core::rng::SchedRng;

/// Identifies a memory client within a [`MemoryManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemClientId(u32);

impl MemClientId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// What a fault did to satisfy the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimOutcome {
    /// A free frame was available; nothing was evicted.
    FreeFrame,
    /// One frame was revoked from the given victim by inverse lottery.
    Evicted {
        /// The client that lost a frame.
        victim: MemClientId,
    },
}

#[derive(Debug, Clone)]
struct MemClient {
    name: String,
    tickets: u64,
    resident: u64,
    evictions: u64,
    faults: u64,
}

/// A fixed pool of physical frames shared by ticketed clients.
///
/// # Examples
///
/// ```
/// use lottery_core::rng::ParkMiller;
/// use lottery_broker::mem::MemoryManager;
///
/// let mut mm = MemoryManager::new(64);
/// let big = mm.register("big", 300);
/// let small = mm.register("small", 100);
/// let mut rng = ParkMiller::new(1);
/// for _ in 0..1000 {
///     mm.fault(big, &mut rng).unwrap();
///     mm.fault(small, &mut rng).unwrap();
/// }
/// // The better-funded client retains more resident pages.
/// assert!(mm.resident(big) > mm.resident(small));
/// ```
#[derive(Debug)]
pub struct MemoryManager {
    frames: u64,
    free: u64,
    clients: Vec<MemClient>,
}

impl MemoryManager {
    /// Creates a manager over `frames` physical frames.
    ///
    /// # Panics
    ///
    /// Panics on a zero-frame pool; a machine needs memory.
    pub fn new(frames: u64) -> Self {
        assert!(frames > 0, "frame pool must be non-empty");
        Self {
            frames,
            free: frames,
            clients: Vec::new(),
        }
    }

    /// Registers a client holding `tickets` memory tickets.
    pub fn register(&mut self, name: impl Into<String>, tickets: u64) -> MemClientId {
        let id = MemClientId(self.clients.len() as u32);
        self.clients.push(MemClient {
            name: name.into(),
            tickets,
            resident: 0,
            evictions: 0,
            faults: 0,
        });
        id
    }

    /// Total frames in the pool.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Currently unallocated frames.
    pub fn free_frames(&self) -> u64 {
        self.free
    }

    /// Frames resident for `client`.
    pub fn resident(&self, client: MemClientId) -> u64 {
        self.clients[client.0 as usize].resident
    }

    /// Frames revoked from `client` so far.
    pub fn evictions(&self, client: MemClientId) -> u64 {
        self.clients[client.0 as usize].evictions
    }

    /// Faults taken by `client` so far.
    pub fn faults(&self, client: MemClientId) -> u64 {
        self.clients[client.0 as usize].faults
    }

    /// The client's name.
    pub fn name(&self, client: MemClientId) -> &str {
        &self.clients[client.0 as usize].name
    }

    /// Adjusts a client's memory tickets (inflation/deflation).
    pub fn set_tickets(&mut self, client: MemClientId, tickets: u64) {
        self.clients[client.0 as usize].tickets = tickets;
    }

    /// Releases one of `client`'s frames back to the pool voluntarily.
    pub fn release(&mut self, client: MemClientId) -> Result<()> {
        let c = &mut self.clients[client.0 as usize];
        if c.resident == 0 {
            return Err(LotteryError::EmptyLottery);
        }
        c.resident -= 1;
        self.free += 1;
        Ok(())
    }

    /// Services a page fault for `client`: allocates a free frame, or runs
    /// an inverse lottery to revoke one.
    ///
    /// The victim distribution follows Section 6.2: client `i` loses with
    /// probability proportional to `(1 - t_i/T)` *and* to its share of
    /// memory in use ([`inverse::draw_victim`]). Clients holding no frames
    /// cannot lose (there is nothing to revoke). With a single occupant the
    /// faulting client self-evicts — the degenerate case of a full machine.
    ///
    /// # Errors
    ///
    /// [`LotteryError::AmountOverflow`] when the ticket total or the
    /// composite loss total is past the draw's range.
    pub fn fault<R: SchedRng + ?Sized>(
        &mut self,
        client: MemClientId,
        rng: &mut R,
    ) -> Result<ReclaimOutcome> {
        self.clients[client.0 as usize].faults += 1;
        if self.free > 0 {
            self.free -= 1;
            self.clients[client.0 as usize].resident += 1;
            return Ok(ReclaimOutcome::FreeFrame);
        }

        let holdings = self.clients.iter().map(|c| (c.tickets, c.resident));
        let victim = inverse::draw_victim(holdings, rng)?;
        Ok(self.evict(victim, client))
    }

    fn evict(&mut self, victim: usize, faulter: MemClientId) -> ReclaimOutcome {
        debug_assert!(self.clients[victim].resident > 0);
        self.clients[victim].resident -= 1;
        self.clients[victim].evictions += 1;
        self.clients[faulter.0 as usize].resident += 1;
        ReclaimOutcome::Evicted {
            victim: MemClientId(victim as u32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_core::rng::ParkMiller;

    #[test]
    fn free_frames_first() {
        let mut mm = MemoryManager::new(4);
        let a = mm.register("a", 100);
        let mut rng = ParkMiller::new(1);
        for _ in 0..4 {
            assert_eq!(mm.fault(a, &mut rng).unwrap(), ReclaimOutcome::FreeFrame);
        }
        assert_eq!(mm.free_frames(), 0);
        assert_eq!(mm.resident(a), 4);
        assert_eq!(mm.faults(a), 4);
    }

    #[test]
    fn lone_occupant_self_evicts() {
        let mut mm = MemoryManager::new(2);
        let a = mm.register("a", 100);
        let _b = mm.register("b", 100);
        let mut rng = ParkMiller::new(1);
        mm.fault(a, &mut rng).unwrap();
        mm.fault(a, &mut rng).unwrap();
        let out = mm.fault(a, &mut rng).unwrap();
        assert_eq!(out, ReclaimOutcome::Evicted { victim: a });
        assert_eq!(mm.resident(a), 2);
        assert_eq!(mm.evictions(a), 1);
    }

    #[test]
    fn empty_handed_clients_never_victimized() {
        let mut mm = MemoryManager::new(2);
        let a = mm.register("a", 1);
        let b = mm.register("b", 1_000_000);
        let mut rng = ParkMiller::new(3);
        mm.fault(a, &mut rng).unwrap();
        mm.fault(a, &mut rng).unwrap();
        // b holds nothing: every eviction must hit a, despite b's terrible
        // ticket position.
        for _ in 0..50 {
            let out = mm.fault(a, &mut rng).unwrap();
            assert_eq!(out, ReclaimOutcome::Evicted { victim: a });
        }
        assert_eq!(mm.evictions(b), 0);
        let _ = b;
    }

    #[test]
    fn ticket_rich_client_keeps_more_memory() {
        // Equal fault pressure, 3:1 tickets: steady state should favor the
        // rich client's resident set.
        let mut mm = MemoryManager::new(100);
        let rich = mm.register("rich", 300);
        let poor = mm.register("poor", 100);
        let mut rng = ParkMiller::new(11);
        for _ in 0..20_000 {
            mm.fault(rich, &mut rng).unwrap();
            mm.fault(poor, &mut rng).unwrap();
        }
        let r = mm.resident(rich) as f64;
        let p = mm.resident(poor) as f64;
        assert_eq!(mm.resident(rich) + mm.resident(poor), 100);
        assert!(r / p > 1.5, "rich should hold well over half: {r} vs {p}");
        // And the poor client pays more evictions.
        assert!(mm.evictions(poor) > mm.evictions(rich));
    }

    #[test]
    fn zero_ticket_population_degenerates_to_usage_weighting() {
        let mut mm = MemoryManager::new(10);
        let a = mm.register("a", 0);
        let b = mm.register("b", 0);
        let mut rng = ParkMiller::new(5);
        for _ in 0..10 {
            mm.fault(a, &mut rng).unwrap();
        }
        // a holds everything; b faults must evict from a.
        let out = mm.fault(b, &mut rng).unwrap();
        assert_eq!(out, ReclaimOutcome::Evicted { victim: a });
    }

    /// A ticket total that overflows `u64` is an error, not a panic in the
    /// sum.
    #[test]
    fn overflowing_ticket_total_is_an_error() {
        let mut mm = MemoryManager::new(2);
        let a = mm.register("a", u64::MAX);
        let b = mm.register("b", 1);
        let mut rng = ParkMiller::new(1);
        assert_eq!(mm.fault(a, &mut rng), Ok(ReclaimOutcome::FreeFrame));
        assert_eq!(mm.fault(b, &mut rng), Ok(ReclaimOutcome::FreeFrame));
        assert_eq!(mm.fault(a, &mut rng), Err(LotteryError::AmountOverflow));
        assert_eq!((mm.resident(a), mm.resident(b)), (1, 1));
    }

    #[test]
    fn release_returns_frames() {
        let mut mm = MemoryManager::new(2);
        let a = mm.register("a", 1);
        let mut rng = ParkMiller::new(5);
        mm.fault(a, &mut rng).unwrap();
        assert_eq!(mm.free_frames(), 1);
        mm.release(a).unwrap();
        assert_eq!(mm.free_frames(), 2);
        assert_eq!(mm.resident(a), 0);
        assert!(mm.release(a).is_err());
    }

    #[test]
    fn set_tickets_shifts_steady_state() {
        let mut mm = MemoryManager::new(60);
        let a = mm.register("a", 100);
        let b = mm.register("b", 100);
        let mut rng = ParkMiller::new(21);
        for _ in 0..5_000 {
            mm.fault(a, &mut rng).unwrap();
            mm.fault(b, &mut rng).unwrap();
        }
        let before = mm.resident(a);
        // Inflate a's memory rights and keep faulting.
        mm.set_tickets(a, 900);
        for _ in 0..5_000 {
            mm.fault(a, &mut rng).unwrap();
            mm.fault(b, &mut rng).unwrap();
        }
        let after = mm.resident(a);
        assert!(after > before, "{after} <= {before}");
    }

    #[test]
    #[should_panic(expected = "frame pool must be non-empty")]
    fn zero_frames_rejected() {
        let _ = MemoryManager::new(0);
    }

    #[test]
    fn names_round_trip() {
        let mut mm = MemoryManager::new(1);
        let a = mm.register("alpha", 1);
        assert_eq!(mm.name(a), "alpha");
        assert_eq!(a.index(), 0);
    }
}
