//! A page-level paging simulator over the inverse-lottery manager.
//!
//! [`crate::manager::MemoryManager`] decides *which client* loses a frame;
//! this module adds the page level: clients reference virtual pages, a
//! reference to a non-resident page faults, and the victim client evicts
//! its oldest resident page (FIFO within the client — the global
//! proportional-share decision is the inverse lottery, per Section 6.2;
//! the local replacement order is deliberately simple).

use std::collections::{HashSet, VecDeque};

use lottery_core::errors::Result;
use lottery_core::inverse;
use lottery_core::rng::SchedRng;

/// Identifies a paging client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PagingClientId(u32);

impl PagingClientId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug)]
struct PagingClient {
    name: String,
    tickets: u64,
    /// Resident virtual page numbers.
    resident: HashSet<u64>,
    /// Residency order, oldest first (FIFO replacement within a client).
    order: VecDeque<u64>,
    references: u64,
    faults: u64,
    evictions: u64,
}

/// A fixed pool of frames shared by page-referencing clients.
///
/// # Examples
///
/// ```
/// use lottery_core::rng::ParkMiller;
/// use lottery_mem::paging::PagingSim;
///
/// let mut sim = PagingSim::new(8);
/// let c = sim.register("proc", 100);
/// let mut rng = ParkMiller::new(1);
/// assert!(!sim.reference(c, 0, &mut rng).unwrap(), "first touch faults");
/// assert!(sim.reference(c, 0, &mut rng).unwrap(), "now resident");
/// ```
#[derive(Debug)]
pub struct PagingSim {
    frames: u64,
    clients: Vec<PagingClient>,
}

impl PagingSim {
    /// Creates a simulator over `frames` physical frames.
    ///
    /// # Panics
    ///
    /// Panics on a zero-frame pool.
    pub fn new(frames: u64) -> Self {
        assert!(frames > 0, "frame pool must be non-empty");
        Self {
            frames,
            clients: Vec::new(),
        }
    }

    /// Registers a client holding `tickets` memory tickets.
    pub fn register(&mut self, name: impl Into<String>, tickets: u64) -> PagingClientId {
        let id = PagingClientId(self.clients.len() as u32);
        self.clients.push(PagingClient {
            name: name.into(),
            tickets,
            resident: HashSet::new(),
            order: VecDeque::new(),
            references: 0,
            faults: 0,
            evictions: 0,
        });
        id
    }

    /// Adjusts a client's memory tickets.
    pub fn set_tickets(&mut self, client: PagingClientId, tickets: u64) {
        self.clients[client.0 as usize].tickets = tickets;
    }

    /// Frames resident for `client`.
    pub fn resident(&self, client: PagingClientId) -> u64 {
        self.clients[client.0 as usize].resident.len() as u64
    }

    /// References issued by `client`.
    pub fn references(&self, client: PagingClientId) -> u64 {
        self.clients[client.0 as usize].references
    }

    /// Faults taken by `client`.
    pub fn faults(&self, client: PagingClientId) -> u64 {
        self.clients[client.0 as usize].faults
    }

    /// Frames revoked from `client`.
    pub fn evictions(&self, client: PagingClientId) -> u64 {
        self.clients[client.0 as usize].evictions
    }

    /// The client's fault rate so far (faults per reference).
    pub fn fault_rate(&self, client: PagingClientId) -> f64 {
        let c = &self.clients[client.0 as usize];
        if c.references == 0 {
            0.0
        } else {
            c.faults as f64 / c.references as f64
        }
    }

    /// The client's name.
    pub fn name(&self, client: PagingClientId) -> &str {
        &self.clients[client.0 as usize].name
    }

    fn total_resident(&self) -> u64 {
        self.clients.iter().map(|c| c.resident.len() as u64).sum()
    }

    /// References virtual `page` for `client`. Returns `true` on a hit;
    /// on a miss the page is faulted in, revoking a frame by inverse
    /// lottery when the pool is full (Section 6.2's composite weighting).
    ///
    /// # Errors
    ///
    /// [`lottery_core::errors::LotteryError::AmountOverflow`] when a
    /// revocation's ticket total or composite loss total is past the
    /// draw's range.
    pub fn reference<R: SchedRng + ?Sized>(
        &mut self,
        client: PagingClientId,
        page: u64,
        rng: &mut R,
    ) -> Result<bool> {
        let idx = client.0 as usize;
        self.clients[idx].references += 1;
        if self.clients[idx].resident.contains(&page) {
            return Ok(true);
        }
        self.clients[idx].faults += 1;

        if self.total_resident() >= self.frames {
            // Section 6.2's composite inverse lottery, exactly as in
            // [`crate::manager::MemoryManager`].
            let holdings = self
                .clients
                .iter()
                .map(|c| (c.tickets, c.resident.len() as u64));
            let victim = inverse::draw_victim(holdings, rng)?;
            let v = &mut self.clients[victim];
            let evicted = v.order.pop_front().expect("victim holds a page");
            v.resident.remove(&evicted);
            v.evictions += 1;
        }

        let c = &mut self.clients[idx];
        c.resident.insert(page);
        c.order.push_back(page);
        Ok(false)
    }
}

/// A hot/cold page-reference generator: with probability
/// `hot_prob`, reference a page from the first `hot` pages; otherwise from
/// the remaining `total - hot` cold pages.
pub fn hot_cold_reference<R: SchedRng + ?Sized>(
    rng: &mut R,
    total_pages: u64,
    hot_pages: u64,
    hot_prob: f64,
) -> u64 {
    debug_assert!(hot_pages <= total_pages && hot_pages > 0);
    if rng.next_f64() < hot_prob {
        rng.below(hot_pages)
    } else if total_pages > hot_pages {
        hot_pages + rng.below(total_pages - hot_pages)
    } else {
        rng.below(total_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_core::rng::ParkMiller;

    #[test]
    fn hits_after_first_touch() {
        let mut sim = PagingSim::new(4);
        let c = sim.register("c", 10);
        let mut rng = ParkMiller::new(1);
        assert!(!sim.reference(c, 7, &mut rng).unwrap());
        assert!(sim.reference(c, 7, &mut rng).unwrap());
        assert_eq!(sim.faults(c), 1);
        assert_eq!(sim.references(c), 2);
        assert_eq!(sim.resident(c), 1);
    }

    #[test]
    fn full_pool_evicts_fifo_within_victim() {
        let mut sim = PagingSim::new(2);
        let c = sim.register("c", 10);
        let mut rng = ParkMiller::new(1);
        sim.reference(c, 0, &mut rng).unwrap();
        sim.reference(c, 1, &mut rng).unwrap();
        // Third page evicts page 0 (the oldest).
        sim.reference(c, 2, &mut rng).unwrap();
        assert_eq!(sim.resident(c), 2);
        assert!(
            !sim.reference(c, 0, &mut rng).unwrap(),
            "page 0 was evicted"
        );
        assert_eq!(sim.evictions(c), 2);
    }

    #[test]
    fn ticket_rich_client_faults_less() {
        // Both clients cycle working sets larger than half the pool;
        // the 3:1 ticket holder should keep more resident and fault less.
        let frames = 64;
        let mut sim = PagingSim::new(frames);
        let rich = sim.register("rich", 300);
        let poor = sim.register("poor", 100);
        let mut rng = ParkMiller::new(11);
        for _ in 0..60_000 {
            let p_rich = hot_cold_reference(&mut rng, 60, 20, 0.8);
            sim.reference(rich, p_rich, &mut rng).unwrap();
            let p_poor = hot_cold_reference(&mut rng, 60, 20, 0.8);
            sim.reference(poor, p_poor, &mut rng).unwrap();
        }
        assert!(
            sim.fault_rate(rich) < sim.fault_rate(poor),
            "rich {} vs poor {}",
            sim.fault_rate(rich),
            sim.fault_rate(poor)
        );
        assert!(sim.resident(rich) > sim.resident(poor));
        assert_eq!(sim.resident(rich) + sim.resident(poor), frames);
    }

    #[test]
    fn inflation_shifts_fault_rates() {
        let mut sim = PagingSim::new(32);
        let a = sim.register("a", 100);
        let b = sim.register("b", 100);
        let mut rng = ParkMiller::new(5);
        let run = |sim: &mut PagingSim, rng: &mut ParkMiller| {
            for _ in 0..20_000 {
                let pa = hot_cold_reference(rng, 40, 10, 0.7);
                sim.reference(a, pa, rng).unwrap();
                let pb = hot_cold_reference(rng, 40, 10, 0.7);
                sim.reference(b, pb, rng).unwrap();
            }
        };
        run(&mut sim, &mut rng);
        let resident_before = sim.resident(a);
        sim.set_tickets(a, 900);
        run(&mut sim, &mut rng);
        assert!(
            sim.resident(a) > resident_before,
            "{} vs {resident_before}",
            sim.resident(a)
        );
    }

    #[test]
    fn hot_cold_generator_shape() {
        let mut rng = ParkMiller::new(9);
        let mut hot_refs = 0u32;
        let n = 50_000;
        for _ in 0..n {
            if hot_cold_reference(&mut rng, 100, 10, 0.9) < 10 {
                hot_refs += 1;
            }
        }
        let share = f64::from(hot_refs) / f64::from(n);
        assert!((share - 0.9).abs() < 0.01, "hot share {share}");
    }

    /// A composite loss total past `2^62` is an error: it once made the
    /// bounded draw spin forever (release) or overflow a product (debug).
    #[test]
    fn composite_total_past_the_draw_range_is_an_error() {
        use lottery_core::errors::LotteryError;

        let mut sim = PagingSim::new(2);
        let a = sim.register("a", u64::MAX / 2);
        let b = sim.register("b", 1);
        let mut rng = ParkMiller::new(1);
        assert_eq!(sim.reference(a, 0, &mut rng), Ok(false));
        assert_eq!(sim.reference(b, 0, &mut rng), Ok(false));
        assert_eq!(
            sim.reference(a, 1, &mut rng),
            Err(LotteryError::AmountOverflow)
        );
    }

    #[test]
    fn frames_conserved() {
        let mut sim = PagingSim::new(16);
        let a = sim.register("a", 10);
        let b = sim.register("b", 20);
        let mut rng = ParkMiller::new(3);
        for i in 0..5_000u64 {
            sim.reference(a, i % 37, &mut rng).unwrap();
            sim.reference(b, i % 53, &mut rng).unwrap();
            assert!(sim.resident(a) + sim.resident(b) <= 16);
        }
        assert_eq!(sim.resident(a) + sim.resident(b), 16);
    }
}
