//! Property-based tests of the ledger's core invariants.
//!
//! Random operation sequences over random currency graphs must preserve:
//!
//! 1. **Sum consistency** — each currency's `active_amount` /
//!    `total_amount` equal the sums over its issued tickets.
//! 2. **Value conservation** — the total funded value of active clients
//!    equals the base currency's active amount (tickets only ever
//!    *redistribute* base units, never create them). It is checked in
//!    exact rationals, bit for bit, by invariant 4.
//! 3. **Activation consistency** — a ticket is active iff its funding
//!    target is active.
//! 4. **Exact valuation** — [`ExactValuator`]'s rationals conserve base
//!    units exactly, and the ledger's `f64` walk agrees with them.

use lottery_core::exact::{ExactValuator, Ratio};
use lottery_core::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    CreateCurrency,
    CreateClient,
    /// Issue a ticket in currency `c % |currencies|`, amount 1..=500,
    /// funding client `cl % |clients|`.
    FundClient {
        c: usize,
        amount: u64,
        cl: usize,
    },
    /// Issue a ticket in currency `c` funding currency `d` (cycle
    /// attempts are expected to fail cleanly).
    FundCurrency {
        c: usize,
        d: usize,
        amount: u64,
    },
    Activate {
        cl: usize,
    },
    Deactivate {
        cl: usize,
    },
    DestroyTicket {
        t: usize,
    },
    SetAmount {
        t: usize,
        amount: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::CreateCurrency),
        Just(Op::CreateClient),
        (0..8usize, 1..500u64, 0..8usize).prop_map(|(c, amount, cl)| Op::FundClient {
            c,
            amount,
            cl
        }),
        (0..8usize, 0..8usize, 1..500u64).prop_map(|(c, d, amount)| Op::FundCurrency {
            c,
            d,
            amount
        }),
        (0..8usize).prop_map(|cl| Op::Activate { cl }),
        (0..8usize).prop_map(|cl| Op::Deactivate { cl }),
        (0..32usize).prop_map(|t| Op::DestroyTicket { t }),
        (0..32usize, 1..500u64).prop_map(|(t, amount)| Op::SetAmount { t, amount }),
    ]
}

struct World {
    ledger: Ledger,
    currencies: Vec<CurrencyId>,
    clients: Vec<ClientId>,
    tickets: Vec<TicketId>,
}

impl World {
    fn new() -> Self {
        let ledger = Ledger::new();
        let base = ledger.base();
        Self {
            ledger,
            currencies: vec![base],
            clients: Vec::new(),
            tickets: Vec::new(),
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::CreateCurrency => {
                let id = self
                    .ledger
                    .create_currency(format!("c{}", self.currencies.len()))
                    .unwrap();
                self.currencies.push(id);
            }
            Op::CreateClient => {
                let id = self
                    .ledger
                    .create_client(format!("cl{}", self.clients.len()));
                self.clients.push(id);
            }
            Op::FundClient { c, amount, cl } => {
                if self.clients.is_empty() {
                    return;
                }
                let c = self.currencies[c % self.currencies.len()];
                let cl = self.clients[cl % self.clients.len()];
                let t = self.ledger.issue_root(c, amount).unwrap();
                self.ledger.fund_client(t, cl).unwrap();
                self.tickets.push(t);
            }
            Op::FundCurrency { c, d, amount } => {
                let c = self.currencies[c % self.currencies.len()];
                let d = self.currencies[d % self.currencies.len()];
                let t = self.ledger.issue_root(c, amount).unwrap();
                // Funding the base or creating a cycle must fail cleanly;
                // destroy the orphan ticket either way it goes.
                match self.ledger.fund_currency(t, d) {
                    Ok(()) => self.tickets.push(t),
                    Err(LotteryError::CurrencyCycle | LotteryError::BaseCurrencyImmutable) => {
                        self.ledger.destroy_ticket(t).unwrap();
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            Op::Activate { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.activate_client(cl).unwrap();
                }
            }
            Op::Deactivate { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.deactivate_client(cl).unwrap();
                }
            }
            Op::DestroyTicket { t } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets.swap_remove(t % self.tickets.len());
                self.ledger.destroy_ticket(t).unwrap();
            }
            Op::SetAmount { t, amount } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets[t % self.tickets.len()];
                self.ledger.set_amount(t, amount).unwrap();
            }
        }
    }

    /// Invariant 1: currency sums match their issued tickets.
    fn check_sums(&self) {
        for (cid, cur) in self.ledger.currencies() {
            let mut active = 0u64;
            let mut total = 0u64;
            for (tid, t) in self.ledger.tickets() {
                if t.currency() == cid {
                    total += t.amount();
                    if t.is_active() {
                        active += t.amount();
                    }
                    let _ = tid;
                }
            }
            assert_eq!(cur.active_amount(), active, "{} active", cur.name());
            assert_eq!(cur.total_amount(), total, "{} total", cur.name());
        }
    }

    /// Invariants 2 and 4: the exact (rational) valuator conserves base
    /// units bit-for-bit, and the float valuator agrees with it.
    fn check_exact(&self) {
        let mut exact = ExactValuator::new(&self.ledger);
        let mut float = Valuator::new(&self.ledger);
        let mut total = Ratio::ZERO;
        for (cl, _) in self.ledger.clients() {
            let e = exact.client_value(cl).unwrap();
            let f = float.client_funded_value(cl).unwrap();
            assert!(
                (e.to_f64() - f).abs() <= 1e-9 * f.abs().max(1.0),
                "exact {e:?} vs float {f}"
            );
            total = total.checked_add(e).unwrap();
        }
        let base_active = self
            .ledger
            .currency(self.ledger.base())
            .unwrap()
            .active_amount();
        assert_eq!(
            total,
            Ratio::from_int(base_active),
            "exact conservation failed"
        );
    }

    /// Invariant 3: ticket activity mirrors funder activity.
    fn check_activation(&self) {
        for (_, t) in self.ledger.tickets() {
            let expected = match t.target() {
                FundingTarget::Unfunded => false,
                FundingTarget::Client(cl) => self.ledger.client(cl).unwrap().is_active(),
                FundingTarget::Currency(c) => self.ledger.currency(c).unwrap().is_active(),
            };
            assert_eq!(t.is_active(), expected, "ticket {t:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_op_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
        }
        world.check_sums();
        world.check_activation();
        world.check_exact();
    }

    #[test]
    fn invariants_hold_at_every_step(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
            world.check_sums();
            world.check_activation();
            world.check_exact();
        }
    }
}
