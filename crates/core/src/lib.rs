//! # lottery-core
//!
//! A from-scratch Rust implementation of the mechanisms in Waldspurger &
//! Weihl, *Lottery Scheduling: Flexible Proportional-Share Resource
//! Management* (OSDI '94).
//!
//! Resource rights are represented by **lottery tickets** denominated in
//! **currencies** that form an acyclic funding graph rooted at a conserved
//! base currency. Each allocation decision is a **lottery**: a uniformly
//! random winning value selects a client with probability proportional to
//! the base-unit value of the tickets funding it.
//!
//! ## Layout
//!
//! * [`ledger`] — the kernel object graph: create/destroy tickets and
//!   currencies, fund/unfund, activation propagation, valuation.
//! * [`exact`] — the same valuation in reduced `u128` rationals, for
//!   bit-for-bit conservation checks.
//! * [`lottery`] — list-based (with move-to-front) and tree-based
//!   (partial-sum, `O(log n)`) winner selection.
//! * [`rng`] — the paper's Park–Miller generator, bit-exact.
//! * [`compensation`] — compensation tickets for partially used quanta.
//! * [`transfer`] — ticket transfers for RPC-style dependencies.
//! * [`inverse`] — inverse lotteries for revoking space-shared resources.
//!
//! ## Quick start
//!
//! ```
//! use lottery_core::prelude::*;
//!
//! let mut ledger = Ledger::new();
//! let base = ledger.base();
//!
//! // Two clients with a 3 : 1 ticket allocation.
//! let a = ledger.create_client("a");
//! let b = ledger.create_client("b");
//! let ta = ledger.issue_root(base, 300).unwrap();
//! let tb = ledger.issue_root(base, 100).unwrap();
//! ledger.fund_client(ta, a).unwrap();
//! ledger.fund_client(tb, b).unwrap();
//! ledger.activate_client(a).unwrap();
//! ledger.activate_client(b).unwrap();
//!
//! // Hold lotteries; a wins about three times as often as b.
//! let mut valuator = Valuator::new(&ledger);
//! let mut pool: ListLottery<&str, f64> = ListLottery::new();
//! pool.insert("a", valuator.client_value(a).unwrap());
//! pool.insert("b", valuator.client_value(b).unwrap());
//! let mut rng = ParkMiller::new(42);
//! let mut wins = 0;
//! for _ in 0..10_000 {
//!     if *pool.draw(&mut rng).unwrap() == "a" {
//!         wins += 1;
//!     }
//! }
//! assert!((wins as f64 / 10_000.0 - 0.75).abs() < 0.02);
//! ```

pub mod arena;
pub mod client;
pub mod compensation;
pub mod currency;
pub mod errors;
pub mod exact;
pub mod inverse;
pub mod ledger;
pub mod lottery;
pub mod mutex;
pub mod rng;
pub mod ticket;
pub mod transfer;
pub mod viz;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::client::ClientId;
    pub use crate::currency::{CurrencyId, IssuePolicy, Principal};
    pub use crate::errors::{LotteryError, Result};
    pub use crate::ledger::{Ledger, Valuator};
    pub use crate::lottery::alias::AliasLottery;
    pub use crate::lottery::index::{DenseIndex, SlotIndex, SlotKey};
    pub use crate::lottery::list::ListLottery;
    pub use crate::lottery::tree::TreeLottery;
    pub use crate::lottery::{TicketPool, Weight};
    pub use crate::rng::{ParkMiller, SchedRng, SplitMix64};
    pub use crate::ticket::{FundingTarget, TicketId};
    pub use crate::transfer::{lend, split, Transfer, TransferTarget};
}
