//! The lottery-scheduled mutex object, against a ledger (Section 6.1).
//!
//! A lottery-scheduled mutex has an associated *mutex currency* and an
//! *inheritance ticket* issued in that currency:
//!
//! * every thread blocked on the mutex funds the mutex currency with a
//!   ticket transfer denominated in its own currency;
//! * the mutex transfers its inheritance ticket to the current holder, so
//!   the holder executes with its own funding **plus** the funding of all
//!   waiters — solving priority inversion exactly as priority inheritance
//!   does;
//! * on release, the mutex holds a lottery among the waiting threads,
//!   weighted by their transferred funding, to pick the next owner.
//!
//! [`TicketMutex`] implements this object against a
//! [`crate::ledger::Ledger`]. The `lottery-sync` crate drives the Figure
//! 10/11 scenarios with it (standalone), and
//! `lottery-sim`'s lottery policy exposes it as an in-kernel mutex so lock
//! scheduling and CPU scheduling interact as they did in the paper's
//! CThreads prototype.

use crate::client::ClientId;
use crate::currency::CurrencyId;
use crate::errors::{LotteryError, Result};
use crate::ledger::{Ledger, Valuator};
use crate::lottery::walk;
use crate::rng::SchedRng;
use crate::ticket::TicketId;
use crate::transfer::{lend, Transfer, TransferTarget};

/// The funding a waiter transfers while blocked.
#[derive(Debug, Clone, Copy)]
pub struct WaiterFunding {
    /// The currency the waiter's transfer is denominated in (its own task
    /// or group currency).
    pub currency: CurrencyId,
    /// The transfer amount in that currency.
    pub amount: u64,
}

struct Waiter {
    client: ClientId,
    transfer: Transfer,
}

/// A lottery-scheduled mutex bound to a ledger.
pub struct TicketMutex {
    currency: CurrencyId,
    inheritance: TicketId,
    holder: Option<ClientId>,
    waiters: Vec<Waiter>,
}

impl TicketMutex {
    /// Creates an unheld mutex, allocating its currency and inheritance
    /// ticket in `ledger`.
    pub fn new(ledger: &mut Ledger, name: &str) -> Result<Self> {
        let currency = ledger.create_currency(format!("mutex:{name}"))?;
        let inheritance = ledger.issue_root(currency, 1)?;
        Ok(Self {
            currency,
            inheritance,
            holder: None,
            waiters: Vec::new(),
        })
    }

    /// The mutex currency.
    pub fn currency(&self) -> CurrencyId {
        self.currency
    }

    /// The inheritance ticket.
    pub fn inheritance(&self) -> TicketId {
        self.inheritance
    }

    /// The current owner.
    pub fn holder(&self) -> Option<ClientId> {
        self.holder
    }

    /// Number of blocked waiters.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// Whether `client` is among the blocked waiters.
    fn is_waiting(&self, client: ClientId) -> bool {
        self.waiters.iter().any(|w| w.client == client)
    }

    /// Attempts to acquire for `client`.
    ///
    /// Returns `true` when the mutex was free — the client now holds it and
    /// receives the inheritance ticket. Otherwise the client joins the
    /// waiter list, transferring `funding` to the mutex currency, and the
    /// caller must treat it as blocked until [`TicketMutex::release`]
    /// hands it the mutex.
    pub fn acquire(
        &mut self,
        ledger: &mut Ledger,
        client: ClientId,
        funding: WaiterFunding,
    ) -> Result<bool> {
        if self.holder.is_none() {
            debug_assert!(self.waiters.is_empty());
            self.holder = Some(client);
            ledger.fund_client(self.inheritance, client)?;
            return Ok(true);
        }
        if self.holder == Some(client) || self.is_waiting(client) {
            // Re-acquisition is a protocol error in this non-recursive
            // mutex; surface it rather than deadlock silently.
            return Err(LotteryError::ClientInUse);
        }
        let transfer = lend(
            ledger,
            funding.currency,
            funding.amount,
            TransferTarget::Currency(self.currency),
        )?;
        self.waiters.push(Waiter { client, transfer });
        Ok(false)
    }

    /// Removes `client` from the waiter list (e.g. its thread was killed),
    /// repaying its transfer.
    ///
    /// Returns `true` when the client was waiting. The holder cannot be
    /// cancelled — release it instead.
    pub fn cancel(&mut self, ledger: &mut Ledger, client: ClientId) -> Result<bool> {
        let Some(pos) = self.waiters.iter().position(|w| w.client == client) else {
            return Ok(false);
        };
        let waiter = self.waiters.remove(pos);
        waiter.transfer.repay(ledger)?;
        Ok(true)
    }

    /// Releases the mutex held by `client` and, when threads are waiting,
    /// holds a lottery to pick the next owner.
    ///
    /// Returns the new owner (its transfer is repaid and the inheritance
    /// ticket moves to it), or `None` when no one was waiting.
    ///
    /// # Errors
    ///
    /// [`LotteryError::NotTransferred`] when `client` is not the holder.
    pub fn release<R: SchedRng + ?Sized>(
        &mut self,
        ledger: &mut Ledger,
        client: ClientId,
        rng: &mut R,
    ) -> Result<Option<ClientId>> {
        if self.holder != Some(client) {
            return Err(LotteryError::NotTransferred);
        }
        if self.waiters.is_empty() {
            ledger.unfund(self.inheritance)?;
            self.holder = None;
            return Ok(None);
        }

        // Weigh each waiter by the base-unit value of its transferred
        // funding *before* unfunding the inheritance ticket — pulling the
        // inheritance deactivates the mutex currency and would zero every
        // transfer's value. The transfers fund the mutex currency, so they
        // are active as long as the currency is; value them directly.
        let mut valuator = Valuator::new(ledger);
        let weights: Vec<f64> = self
            .waiters
            .iter()
            .map(|w| valuator.ticket_value(w.transfer.ticket()).unwrap_or(0.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let index = if total <= 0.0 {
            // All transfers currently value to zero (e.g. the waiters'
            // group currencies are inactive): fall back to FIFO.
            0
        } else {
            let winning = rng.next_f64() * total;
            walk(weights.iter().copied(), winning).unwrap_or(self.waiters.len() - 1)
        };

        let winner = self.waiters.remove(index);
        ledger.unfund(self.inheritance)?;
        winner.transfer.repay(ledger)?;
        self.holder = Some(winner.client);
        ledger.fund_client(self.inheritance, winner.client)?;
        Ok(Some(winner.client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ParkMiller;

    struct Fixture {
        ledger: Ledger,
        mutex: TicketMutex,
        clients: Vec<ClientId>,
        group: CurrencyId,
    }

    /// Builds `n` active clients funded 100 each from a group currency
    /// worth 1000 base.
    fn fixture(n: usize) -> Fixture {
        let mut ledger = Ledger::new();
        let group = ledger.create_currency("group").unwrap();
        let backing = ledger.issue_root(ledger.base(), 1000).unwrap();
        ledger.fund_currency(backing, group).unwrap();
        let mut clients = Vec::new();
        for i in 0..n {
            let c = ledger.create_client(format!("t{i}"));
            let t = ledger.issue_root(group, 100).unwrap();
            ledger.fund_client(t, c).unwrap();
            ledger.activate_client(c).unwrap();
            clients.push(c);
        }
        let mutex = TicketMutex::new(&mut ledger, "m").unwrap();
        Fixture {
            ledger,
            mutex,
            clients,
            group,
        }
    }

    fn funding(f: &Fixture) -> WaiterFunding {
        WaiterFunding {
            currency: f.group,
            amount: 100,
        }
    }

    #[test]
    fn uncontended_acquire_release() {
        let mut f = fixture(1);
        let c = f.clients[0];
        let wf = funding(&f);
        assert!(f.mutex.acquire(&mut f.ledger, c, wf).unwrap());
        assert_eq!(f.mutex.holder(), Some(c));
        let mut rng = ParkMiller::new(1);
        assert_eq!(f.mutex.release(&mut f.ledger, c, &mut rng).unwrap(), None);
        assert_eq!(f.mutex.holder(), None);
    }

    /// Figure 10's funding structure: the holder is funded by the
    /// inheritance ticket, which is backed by every waiter's transfer.
    #[test]
    fn figure10_funding() {
        let mut f = fixture(3);
        let (a, b, c) = (f.clients[0], f.clients[1], f.clients[2]);
        let wf = funding(&f);
        assert!(f.mutex.acquire(&mut f.ledger, a, wf).unwrap());
        assert!(!f.mutex.acquire(&mut f.ledger, b, wf).unwrap());
        assert!(!f.mutex.acquire(&mut f.ledger, c, wf).unwrap());
        // Waiters are blocked: their own funding is inactive.
        f.ledger.deactivate_client(b).unwrap();
        f.ledger.deactivate_client(c).unwrap();

        // Group currency is worth 1000 base, with active claims from a
        // (100) and the two transfers (100 each): a's own share is 1000/3,
        // and the lock currency holds the waiters' 2000/3.
        let mut v = Valuator::new(&f.ledger);
        let lock_value = v.currency_value(f.mutex.currency()).unwrap();
        assert!((lock_value - 2000.0 / 3.0).abs() < 1e-9, "{lock_value}");
        // The holder's total: own ticket + inheritance = 1000/3 + 2000/3.
        let holder_value = v.client_value(a).unwrap();
        assert!((holder_value - 1000.0).abs() < 1e-9, "{holder_value}");
        assert_eq!(f.mutex.waiting(), 2);
    }

    #[test]
    fn release_hands_off_to_a_waiter() {
        let mut f = fixture(2);
        let (a, b) = (f.clients[0], f.clients[1]);
        let wf = funding(&f);
        assert!(f.mutex.acquire(&mut f.ledger, a, wf).unwrap());
        assert!(!f.mutex.acquire(&mut f.ledger, b, wf).unwrap());
        let mut rng = ParkMiller::new(3);
        let next = f.mutex.release(&mut f.ledger, a, &mut rng).unwrap();
        assert_eq!(next, Some(b));
        assert_eq!(f.mutex.holder(), Some(b));
        assert_eq!(f.mutex.waiting(), 0);
        // The transfer was repaid: only the inheritance ticket remains
        // issued in the lock currency.
        assert!(f
            .ledger
            .currency(f.mutex.currency())
            .unwrap()
            .backing()
            .is_empty());
    }

    #[test]
    fn double_acquire_rejected() {
        let mut f = fixture(2);
        let a = f.clients[0];
        let wf = funding(&f);
        assert!(f.mutex.acquire(&mut f.ledger, a, wf).unwrap());
        assert!(f.mutex.acquire(&mut f.ledger, a, wf).is_err());
        let b = f.clients[1];
        assert!(!f.mutex.acquire(&mut f.ledger, b, wf).unwrap());
        assert!(f.mutex.acquire(&mut f.ledger, b, wf).is_err());
    }

    #[test]
    fn release_by_non_holder_rejected() {
        let mut f = fixture(2);
        let (a, b) = (f.clients[0], f.clients[1]);
        let wf = funding(&f);
        assert!(f.mutex.acquire(&mut f.ledger, a, wf).unwrap());
        let mut rng = ParkMiller::new(3);
        assert_eq!(
            f.mutex.release(&mut f.ledger, b, &mut rng),
            Err(LotteryError::NotTransferred)
        );
    }

    #[test]
    fn handoff_is_weighted_by_funding() {
        // One waiter with 3x the transfer funding should win the handoff
        // lottery about 75% of the time.
        let mut wins_heavy = 0u32;
        let trials = 4000;
        let mut rng = ParkMiller::new(77);
        for _ in 0..trials {
            let mut ledger = Ledger::new();
            let heavy = ledger.create_client("heavy");
            let light = ledger.create_client("light");
            let holder = ledger.create_client("holder");
            for (c, amt) in [(heavy, 300u64), (light, 100), (holder, 100)] {
                let t = ledger.issue_root(ledger.base(), amt).unwrap();
                ledger.fund_client(t, c).unwrap();
                ledger.activate_client(c).unwrap();
            }
            let mut mutex = TicketMutex::new(&mut ledger, "m").unwrap();
            let base = ledger.base();
            assert!(mutex
                .acquire(
                    &mut ledger,
                    holder,
                    WaiterFunding {
                        currency: base,
                        amount: 100
                    }
                )
                .unwrap());
            mutex
                .acquire(
                    &mut ledger,
                    heavy,
                    WaiterFunding {
                        currency: base,
                        amount: 300,
                    },
                )
                .unwrap();
            mutex
                .acquire(
                    &mut ledger,
                    light,
                    WaiterFunding {
                        currency: base,
                        amount: 100,
                    },
                )
                .unwrap();
            let next = mutex.release(&mut ledger, holder, &mut rng).unwrap();
            if next == Some(heavy) {
                wins_heavy += 1;
            }
        }
        let share = f64::from(wins_heavy) / f64::from(trials);
        assert!((share - 0.75).abs() < 0.03, "heavy won {share}");
    }
}
