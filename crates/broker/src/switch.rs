//! The lottery-scheduled cell switch.
//!
//! Section 6 of the paper observes that "a lottery can be used to allocate
//! resources wherever queueing is necessary for resource access" and
//! proposes scheduling virtual circuits at ATM switches so congested
//! channels divide bandwidth by ticket allocation. [`Switch`] implements
//! that: an output port whose every forwarding slot is the
//! [`ResourceQueue`] lottery's among backlogged circuits.

use std::ops::{Deref, DerefMut};

use lottery_core::errors::Result;
use lottery_core::rng::SchedRng;

use crate::queue::{QueueClientId, ResourceQueue};

/// A cell queued on a circuit. The payload is opaque to the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Caller-assigned identifier (sequence number, flow tag, ...).
    pub id: u64,
    /// Slot index at which the cell was enqueued, for delay accounting.
    pub enqueued_at: u64,
}

/// An output-port scheduler that picks the next cell to forward by
/// lottery among backlogged circuits: a [`ResourceQueue`] of [`Cell`]s
/// tagged `"net"` (it derefs to the queue, whose clients are the virtual
/// circuits; served units are cells and waits are queueing delays in
/// slots) plus the slot counter.
///
/// Each forwarding slot is one lottery: a circuit holding `t` of the `T`
/// tickets on backlogged circuits forwards with probability `t/T`, so
/// congested-channel bandwidth divides proportionally — the paper's
/// proposal for providing "different levels of service to virtual circuits
/// competing for congested channels" (Section 6.3's communication
/// discussion).
#[derive(Debug)]
pub struct Switch {
    queue: ResourceQueue<Cell>,
    slot: u64,
}

impl Default for Switch {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Switch {
    type Target = ResourceQueue<Cell>;

    fn deref(&self) -> &Self::Target {
        &self.queue
    }
}

impl DerefMut for Switch {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.queue
    }
}

impl Switch {
    /// Creates a switch with no circuits.
    pub fn new() -> Self {
        Self {
            queue: ResourceQueue::new("net"),
            slot: 0,
        }
    }

    /// Queues a cell on a circuit.
    pub fn enqueue(&mut self, vc: QueueClientId, id: u64) {
        let enqueued_at = self.slot;
        self.queue.submit(vc, Cell { id, enqueued_at });
    }

    /// Slots elapsed (forwarding attempts, successful or idle).
    pub fn slots(&self) -> u64 {
        self.slot
    }

    /// Runs one forwarding slot: picks a backlogged circuit by lottery and
    /// dequeues its head cell. Circuit counts are small (a switch port
    /// serves tens of VCs), so Figure 1's linear walk over the whole
    /// circuit table is the right tool, as in the paper's prototype.
    ///
    /// # Errors
    ///
    /// [`lottery_core::errors::LotteryError::EmptyLottery`] when no circuit has traffic (the
    /// output port idles; the slot still elapses), and
    /// [`lottery_core::errors::LotteryError::AmountOverflow`] when the
    /// lottery's ticket total is past the draw's range.
    pub fn forward<R: SchedRng + ?Sized>(&mut self, rng: &mut R) -> Result<(QueueClientId, Cell)> {
        self.slot += 1;
        let (vc, cell) = self.queue.draw(rng)?;
        self.queue.complete(vc, 1, self.slot - 1 - cell.enqueued_at);
        Ok((vc, cell))
    }
}

/// The switch forwards one cell per slot; with cells queued, its next
/// forwarding opportunity is the upcoming slot boundary (slot `n` maps to
/// simulated microsecond `n` — the driver owns the slot-time scale). An
/// empty switch schedules nothing, so a shared event loop skips it.
impl lottery_sim::event::EventSource for Switch {
    fn next_due(&self) -> Option<lottery_sim::time::SimTime> {
        (self.pending() > 0).then(|| lottery_sim::time::SimTime::from_us(self.slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_core::errors::LotteryError;
    use lottery_core::rng::ParkMiller;

    #[test]
    fn empty_switch_idles() {
        let mut sw = Switch::new();
        let mut rng = ParkMiller::new(1);
        assert_eq!(sw.forward(&mut rng), Err(LotteryError::EmptyLottery));
        assert_eq!(sw.slots(), 1, "the slot elapses even when idle");
    }

    #[test]
    fn single_circuit_fifo() {
        let mut sw = Switch::new();
        let vc = sw.register("only", 10);
        sw.enqueue(vc, 1);
        sw.enqueue(vc, 2);
        let mut rng = ParkMiller::new(1);
        assert_eq!(sw.forward(&mut rng).unwrap().1.id, 1);
        assert_eq!(sw.forward(&mut rng).unwrap().1.id, 2);
        assert_eq!(sw.backlog(vc), 0);
        assert_eq!(sw.served(vc), 2);
    }

    #[test]
    fn saturated_circuits_share_proportionally() {
        // 3:2:1 tickets, always backlogged: forwarded cells converge to
        // 3:2:1 of the slots.
        let mut sw = Switch::new();
        let a = sw.register("a", 300);
        let b = sw.register("b", 200);
        let c = sw.register("c", 100);
        let mut rng = ParkMiller::new(9);
        let slots = 30_000;
        for i in 0..slots {
            // Keep every queue non-empty.
            for vc in [a, b, c] {
                if sw.backlog(vc) == 0 {
                    sw.enqueue(vc, i);
                }
            }
            sw.forward(&mut rng).unwrap();
        }
        let fa = sw.served(a) as f64 / slots as f64;
        let fb = sw.served(b) as f64 / slots as f64;
        let fc = sw.served(c) as f64 / slots as f64;
        assert!((fa - 0.5).abs() < 0.02, "a share {fa}");
        assert!((fb - 1.0 / 3.0).abs() < 0.02, "b share {fb}");
        assert!((fc - 1.0 / 6.0).abs() < 0.02, "c share {fc}");
    }

    #[test]
    fn idle_circuits_do_not_consume_bandwidth() {
        // Work conservation: a backlogged low-ticket circuit gets the full
        // port when the heavy circuit is idle.
        let mut sw = Switch::new();
        let _heavy = sw.register("heavy", 1_000_000);
        let light = sw.register("light", 1);
        for i in 0..100 {
            sw.enqueue(light, i);
        }
        let mut rng = ParkMiller::new(2);
        for _ in 0..100 {
            let (vc, _) = sw.forward(&mut rng).unwrap();
            assert_eq!(vc, light);
        }
    }

    #[test]
    fn zero_ticket_circuit_starves_under_contention() {
        let mut sw = Switch::new();
        let a = sw.register("funded", 10);
        let z = sw.register("zero", 0);
        sw.enqueue(z, 1);
        let mut rng = ParkMiller::new(2);
        for i in 0..50 {
            sw.enqueue(a, i);
            let (vc, _) = sw.forward(&mut rng).unwrap();
            assert_eq!(vc, a);
        }
        assert_eq!(sw.backlog(z), 1);
    }

    #[test]
    fn delay_tracks_ticket_share() {
        // Lower-share circuits see longer queueing delays.
        let mut sw = Switch::new();
        let fast = sw.register("fast", 900);
        let slow = sw.register("slow", 100);
        let mut rng = ParkMiller::new(33);
        for i in 0..20_000u64 {
            if sw.backlog(fast) < 4 {
                sw.enqueue(fast, i);
            }
            if sw.backlog(slow) < 4 {
                sw.enqueue(slow, i);
            }
            sw.forward(&mut rng).unwrap();
        }
        assert!(
            sw.waits(slow).mean() > sw.waits(fast).mean() * 2.0,
            "slow {} vs fast {}",
            sw.waits(slow).mean(),
            sw.waits(fast).mean()
        );
    }

    #[test]
    fn probe_bus_sees_grants_draws_and_completions() {
        use lottery_obs::{Aggregator, ProbeBus, Shared};

        let bus = ProbeBus::enabled();
        let stats = Shared::new(Aggregator::new());
        bus.attach(stats.clone());
        let mut sw = Switch::new();
        sw.set_probe_bus(bus);
        let a = sw.register("a", 200);
        let b = sw.register("b", 100);
        sw.set_tickets(b, 150);
        let mut rng = ParkMiller::new(21);
        for i in 0..40u64 {
            for vc in [a, b] {
                if sw.backlog(vc) == 0 {
                    sw.enqueue(vc, i);
                }
            }
            sw.forward(&mut rng).unwrap();
        }
        stats.with(|s| {
            assert_eq!(s.resource_draws.get("net"), Some(&40));
            assert_eq!(s.resource_units.get("net"), Some(&40));
            assert!(s.resource_wait.contains_key("net"));
        });
    }

    #[test]
    fn set_tickets_reapportions() {
        let mut sw = Switch::new();
        let a = sw.register("a", 100);
        let b = sw.register("b", 100);
        sw.set_tickets(a, 300);
        let mut rng = ParkMiller::new(4);
        let slots = 20_000;
        for i in 0..slots {
            for vc in [a, b] {
                if sw.backlog(vc) == 0 {
                    sw.enqueue(vc, i);
                }
            }
            sw.forward(&mut rng).unwrap();
        }
        let ratio = sw.served(a) as f64 / sw.served(b) as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }
}
