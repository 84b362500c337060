//! The resources beyond the CPU, and the broker that funds them all from
//! one grant.
//!
//! Section 6 allocates by lottery "wherever queueing is necessary for
//! resource access". [`queue::ResourceQueue`] is that queue lottery —
//! ticketed clients, FIFO backlogs, Figure 1's draw among the backlogged —
//! and two resources are built on it: the disk ([`disk::DiskScheduler`],
//! with FCFS and shortest-seek baselines; the abstract's I/O bandwidth)
//! and the virtual-circuit cell switch ([`switch::Switch`]). Memory is
//! space-shared, so it revokes by inverse lottery instead (Section 6.2):
//! [`mem::MemoryManager`] reclaims frames and [`paging::PagingSim`] adds
//! the page level.
//!
//! The paper's pitch for currencies (Sections 3.2 and 6) is that tickets
//! are a *uniform* abstraction across diverse resources: CPU quanta, disk
//! requests, memory frames, and network link slots can all be priced in
//! tickets backed by one base grant. This crate supplies the layer that
//! makes the pitch concrete: a [`ResourceBroker`] registers each tenant
//! with a single base-currency grant, mints per-resource sub-currencies
//! (`cpu`, `disk`, `mem`, `net`) funded from that grant, and prices each
//! resource scheduler's tickets off the *ledger valuation* of those
//! sub-currencies.
//!
//! Two properties fall out of routing everything through one
//! [`lottery_core::ledger::Ledger`]:
//!
//! * **Inflation containment** — tickets issued inside one tenant's disk
//!   currency dilute only that currency; its base-unit value (what the
//!   broker exports to the disk scheduler) is pinned by the backing
//!   ticket, so a tenant printing disk tickets cannot grow its disk share
//!   or leak into anyone's CPU share. The [`ResourceBroker::set_raw_funding`]
//!   ablation bypasses valuation and exports face amounts instead,
//!   reproducing exactly that leak.
//! * **Demand-driven refunds** — under [`SplitPolicy::DemandRefund`], a
//!   rebalance unfunds the backing ticket of any resource with no
//!   recorded demand. The tenant currency's active amount shrinks, so the
//!   grant automatically re-prices the tenant's *active* resources upward
//!   (inverse currency dilution): idle entitlements flow back to the
//!   grant instead of evaporating.

// `lotteryctl`'s broker verbs bring user input here: a failure is an
// error, never an `unwrap`, `expect` or `panic!`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod broker;
pub mod demand;
pub mod disk;
pub mod mem;
pub mod paging;
pub mod queue;
pub mod switch;

pub use broker::{
    BrokerReport, BrokerResourceRow, BrokerTenantRow, Resource, ResourceBroker, SplitPolicy,
    TenantId,
};
pub use demand::DemandTap;
