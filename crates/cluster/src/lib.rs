//! Cluster market: multi-node brokered lotteries with asynchronous
//! reconciliation and partition recovery.
//!
//! This crate scales the single-node funding graph (base → tenant
//! currency → per-resource sub-currencies, `lottery-broker`) out to a
//! cluster. Each [`Node`] owns a complete broker stack — its own ledger,
//! its own lottery disk scheduler and switch, its own probe-bus demand
//! tap — and the only coupling between nodes is the [`ClusterMarket`]
//! coordinator talking to them over a simulated, lossy, latency-bearing
//! network ([`SimNet`]). A tenant holds one cluster-level grant; a
//! [`BudgetPolicy`] decides how that grant is split into per-node grants,
//! and an asynchronous reconciliation loop keeps the split chasing the
//! tenant's actual per-node demand while conserving total grant value —
//! no tickets are minted or leaked by rebalancing, node loss, or
//! partition healing.
//!
//! The interesting failure modes are first-class: kill a node and the
//! coordinator notices only through missed reports, then reclaims the
//! dead node's funding with the paper's inverse lotteries; cut a link and
//! the isolated node keeps scheduling on stale grants until the heal,
//! when a full-state resync repairs it.

// Callers drive the market with their own tenants, grants and faults: a
// failure is an error, never an `unwrap`, `expect` or `panic!`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod market;
pub mod net;
pub mod node;

pub use market::{
    BudgetPolicy, ClusterAllocRow, ClusterMarket, ClusterReport, ClusterTenantRow,
    LOSS_TIMEOUT_ROUNDS,
};
pub use net::{Message, SimNet, TenantReport};
pub use node::{Node, DISK_REQUEST_SECTORS};
