//! The lottery-scheduled cell switch.

use std::collections::VecDeque;

use lottery_core::errors::Result;
use lottery_core::lottery;
use lottery_core::rng::SchedRng;
use lottery_obs::{EventKind, ProbeBus};
use lottery_stats::Summary;

/// Identifies a virtual circuit within a [`Switch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitId(u32);

impl CircuitId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A cell queued on a circuit. The payload is opaque to the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Caller-assigned identifier (sequence number, flow tag, ...).
    pub id: u64,
    /// Slot index at which the cell was enqueued, for delay accounting.
    pub enqueued_at: u64,
}

#[derive(Debug)]
struct Circuit {
    name: String,
    tickets: u64,
    queue: VecDeque<Cell>,
    forwarded: u64,
    delay_slots: Summary,
}

/// An output-port scheduler that picks the next cell to forward by
/// lottery among backlogged circuits.
///
/// Each forwarding slot is one lottery: a circuit holding `t` of the `T`
/// tickets on backlogged circuits forwards with probability `t/T`, so
/// congested-channel bandwidth divides proportionally — the paper's
/// proposal for providing "different levels of service to virtual circuits
/// competing for congested channels" (Section 6.3's communication
/// discussion).
#[derive(Debug)]
pub struct Switch {
    circuits: Vec<Circuit>,
    slot: u64,
    bus: ProbeBus,
}

impl Default for Switch {
    fn default() -> Self {
        Self::new()
    }
}

impl Switch {
    /// Creates a switch with no circuits.
    pub fn new() -> Self {
        Self {
            circuits: Vec::new(),
            slot: 0,
            bus: ProbeBus::disabled(),
        }
    }

    /// Attaches the probe bus. Grant, draw, and completion events carry
    /// the `"net"` resource tag; the bus clock stays owned by whoever
    /// drives the simulation (this switch never calls `set_time_us`).
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.bus = bus;
    }

    /// Opens a circuit holding `tickets` bandwidth tickets.
    pub fn open_circuit(&mut self, name: impl Into<String>, tickets: u64) -> CircuitId {
        let id = CircuitId(self.circuits.len() as u32);
        self.circuits.push(Circuit {
            name: name.into(),
            tickets,
            queue: VecDeque::new(),
            forwarded: 0,
            delay_slots: Summary::new(),
        });
        self.bus.emit(|| EventKind::ResourceGrant {
            resource: "net",
            client: id.0,
            tickets,
        });
        id
    }

    /// Adjusts a circuit's ticket allocation.
    pub fn set_tickets(&mut self, vc: CircuitId, tickets: u64) {
        self.circuits[vc.0 as usize].tickets = tickets;
        self.bus.emit(|| EventKind::ResourceGrant {
            resource: "net",
            client: vc.0,
            tickets,
        });
    }

    /// Queues a cell on a circuit.
    pub fn enqueue(&mut self, vc: CircuitId, id: u64) {
        let slot = self.slot;
        self.circuits[vc.0 as usize].queue.push_back(Cell {
            id,
            enqueued_at: slot,
        });
    }

    /// Number of cells waiting on `vc`.
    pub fn backlog(&self, vc: CircuitId) -> usize {
        self.circuits[vc.0 as usize].queue.len()
    }

    /// Cells forwarded from `vc` so far.
    pub fn forwarded(&self, vc: CircuitId) -> u64 {
        self.circuits[vc.0 as usize].forwarded
    }

    /// Queueing delay (in slots) statistics for `vc`.
    pub fn delay_slots(&self, vc: CircuitId) -> &Summary {
        &self.circuits[vc.0 as usize].delay_slots
    }

    /// The circuit's name.
    pub fn name(&self, vc: CircuitId) -> &str {
        &self.circuits[vc.0 as usize].name
    }

    /// Slots elapsed (forwarding attempts, successful or idle).
    pub fn slots(&self) -> u64 {
        self.slot
    }

    /// Runs one forwarding slot: picks a backlogged circuit by lottery and
    /// dequeues its head cell.
    ///
    /// # Errors
    ///
    /// [`lottery_core::errors::LotteryError::EmptyLottery`] when no circuit has traffic (the
    /// output port idles; the slot still elapses), and
    /// [`lottery_core::errors::LotteryError::AmountOverflow`] when the
    /// lottery's ticket total is past the draw's range.
    pub fn forward<R: SchedRng + ?Sized>(&mut self, rng: &mut R) -> Result<(CircuitId, Cell)> {
        self.slot += 1;
        // Draw straight over the circuit table: circuit counts are small
        // (a switch port serves tens of VCs), so Figure 1's linear walk is
        // the right tool, as in the paper's prototype. An idle circuit
        // holds no interval.
        let backlogged = self
            .circuits
            .iter()
            .map(|c| if c.queue.is_empty() { 0 } else { c.tickets });
        let (index, entries, total) = lottery::draw(backlogged, rng)?;
        self.bus.emit(|| EventKind::ResourceDraw {
            resource: "net",
            client: index as u32,
            entries: entries as u32,
            total,
        });
        let circuit = &mut self.circuits[index];
        let cell = circuit
            .queue
            .pop_front()
            .expect("backlogged circuit has a cell");
        circuit.forwarded += 1;
        let delay = self.slot - 1 - cell.enqueued_at;
        circuit.delay_slots.record(delay as f64);
        self.bus.emit(|| EventKind::ResourceComplete {
            resource: "net",
            client: index as u32,
            units: 1,
            wait: delay,
        });
        Ok((CircuitId(index as u32), cell))
    }

    /// Cells waiting across every circuit.
    pub fn pending_cells(&self) -> usize {
        self.circuits.iter().map(|c| c.queue.len()).sum()
    }
}

/// The switch forwards one cell per slot; with cells queued, its next
/// forwarding opportunity is the upcoming slot boundary (slot `n` maps to
/// simulated microsecond `n` — the driver owns the slot-time scale). An
/// empty switch schedules nothing, so a shared event loop skips it.
impl lottery_sim::event::EventSource for Switch {
    fn next_due(&self) -> Option<lottery_sim::time::SimTime> {
        (self.pending_cells() > 0).then(|| lottery_sim::time::SimTime::from_us(self.slot))
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
        let vc = sw.open_circuit("only", 10);
        sw.enqueue(vc, 1);
        sw.enqueue(vc, 2);
        let mut rng = ParkMiller::new(1);
        assert_eq!(sw.forward(&mut rng).unwrap().1.id, 1);
        assert_eq!(sw.forward(&mut rng).unwrap().1.id, 2);
        assert_eq!(sw.backlog(vc), 0);
        assert_eq!(sw.forwarded(vc), 2);
    }

    #[test]
    fn saturated_circuits_share_proportionally() {
        // 3:2:1 tickets, always backlogged: forwarded cells converge to
        // 3:2:1 of the slots.
        let mut sw = Switch::new();
        let a = sw.open_circuit("a", 300);
        let b = sw.open_circuit("b", 200);
        let c = sw.open_circuit("c", 100);
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
        let fa = sw.forwarded(a) as f64 / slots as f64;
        let fb = sw.forwarded(b) as f64 / slots as f64;
        let fc = sw.forwarded(c) as f64 / slots as f64;
        assert!((fa - 0.5).abs() < 0.02, "a share {fa}");
        assert!((fb - 1.0 / 3.0).abs() < 0.02, "b share {fb}");
        assert!((fc - 1.0 / 6.0).abs() < 0.02, "c share {fc}");
    }

    #[test]
    fn idle_circuits_do_not_consume_bandwidth() {
        // Work conservation: a backlogged low-ticket circuit gets the full
        // port when the heavy circuit is idle.
        let mut sw = Switch::new();
        let _heavy = sw.open_circuit("heavy", 1_000_000);
        let light = sw.open_circuit("light", 1);
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
        let a = sw.open_circuit("funded", 10);
        let z = sw.open_circuit("zero", 0);
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
        let fast = sw.open_circuit("fast", 900);
        let slow = sw.open_circuit("slow", 100);
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
            sw.delay_slots(slow).mean() > sw.delay_slots(fast).mean() * 2.0,
            "slow {} vs fast {}",
            sw.delay_slots(slow).mean(),
            sw.delay_slots(fast).mean()
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
        let a = sw.open_circuit("a", 200);
        let b = sw.open_circuit("b", 100);
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
        let a = sw.open_circuit("a", 100);
        let b = sw.open_circuit("b", 100);
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
        let ratio = sw.forwarded(a) as f64 / sw.forwarded(b) as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }
}
