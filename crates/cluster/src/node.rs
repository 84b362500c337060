//! One cluster node: a ledger, a broker, and schedulers of its own.
//!
//! A [`Node`] is the standalone multi-resource broker stack shrunk to a
//! unit the market can replicate: its own [`ResourceBroker`] (and thus
//! its own [`lottery_core::ledger::Ledger`]), a lottery
//! [`DiskScheduler`], and a lottery [`Switch`], wired together by a
//! node-local probe bus with a [`DemandTap`] deriving broker demand from
//! the schedulers' own draw/completion events. Nothing inside a node
//! knows the cluster exists — funding arrives only through
//! [`Node::set_grant`], and state leaves only through
//! [`Node::report_rows`] — which is what makes a 1-node cluster
//! behaviourally identical to the standalone broker.

use lottery_broker::disk::{DiskPolicy, DiskScheduler};
use lottery_broker::queue::QueueClientId;
use lottery_broker::switch::Switch;
use lottery_broker::{DemandTap, Resource, ResourceBroker, SplitPolicy, TenantId};
use lottery_core::arena::RawHandle;
use lottery_core::errors::{LotteryError, ObjectKind, Result};
use lottery_core::rng::ParkMiller;
use lottery_obs::{ProbeBus, Shared};

use crate::net::TenantReport;

/// Disk request length every offered request uses, in sectors.
pub const DISK_REQUEST_SECTORS: u64 = 8;

/// One node of the cluster market.
#[derive(Debug)]
pub struct Node {
    id: u32,
    broker: ResourceBroker,
    disk: DiskScheduler,
    switch: Switch,
    tap: Shared<DemandTap>,
    tenants: Vec<TenantId>,
    /// Each tenant's client of the disk and of the switch: both queues
    /// register the tenants in one order, so the two ids are one.
    clients: Vec<QueueClientId>,
    rng: ParkMiller,
    alive: bool,
    /// Monotone cell id feeding the switch (also the deterministic disk
    /// sector cursor).
    work_seq: u64,
}

impl Node {
    /// Builds a node with one broker tenant per `(name, grant)` pair.
    ///
    /// A zero initial grant registers the tenant with a placeholder grant
    /// and immediately unfunds it, so later [`Node::set_grant`] calls can
    /// bring the tenant up without re-registering.
    pub fn new(id: u32, seed: u32, tenants: &[(String, u64)]) -> Result<Node> {
        let bus = ProbeBus::enabled();
        let tap = Shared::new(DemandTap::new());
        bus.attach(tap.clone());
        let mut broker = ResourceBroker::new();
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let mut switch = Switch::new();
        disk.set_probe_bus(bus.clone());
        switch.set_probe_bus(bus.clone());
        let mut ids = Vec::with_capacity(tenants.len());
        let mut clients = Vec::with_capacity(tenants.len());
        for (name, grant) in tenants {
            let tenant =
                broker.register_tenant(name.clone(), (*grant).max(1), SplitPolicy::even())?;
            if *grant == 0 {
                broker.set_grant(tenant, 0)?;
            }
            let client = disk.register(name.clone(), 1);
            switch.register(name.clone(), 1);
            tap.with(|t| {
                t.bind(Resource::Disk, client.index(), tenant);
                t.bind(Resource::Net, client.index(), tenant);
            });
            ids.push(tenant);
            clients.push(client);
        }
        let mut node = Node {
            id,
            broker,
            disk,
            switch,
            tap,
            tenants: ids,
            clients,
            rng: ParkMiller::new(seed),
            alive: true,
            work_seq: 0,
        };
        node.apply_weights();
        Ok(node)
    }

    /// The node's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Whether the node is still running.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Kills the node: it stops servicing, reporting, and applying grant
    /// updates. Its ledger state is frozen as-is.
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// The node-local broker (read-only view for reports and tests).
    pub fn broker(&self) -> &ResourceBroker {
        &self.broker
    }

    /// Number of tenants registered on the node.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// A tenant's node-local base-currency grant.
    pub fn grant(&self, tenant: usize) -> u64 {
        self.broker.grant(self.tenants[tenant])
    }

    /// Applies a coordinator grant update. Dead nodes ignore it.
    pub fn set_grant(&mut self, tenant: usize, grant: u64) -> Result<()> {
        if !self.alive {
            return Ok(());
        }
        if self.broker.grant(self.tenants[tenant]) != grant {
            self.broker.set_grant(self.tenants[tenant], grant)?;
        }
        Ok(())
    }

    /// Queues work for a tenant: `disk_requests` random-ish 8-sector
    /// reads and `cells` switch cells. Deterministic for a given call
    /// sequence.
    pub fn offer(&mut self, tenant: usize, disk_requests: u64, cells: u64) {
        if !self.alive {
            return;
        }
        for _ in 0..disk_requests {
            let sector = (self.work_seq * 64) % 1_000_000;
            self.disk
                .submit(self.clients[tenant], sector, DISK_REQUEST_SECTORS);
            self.work_seq += 1;
        }
        for _ in 0..cells {
            self.switch.enqueue(self.clients[tenant], self.work_seq);
            self.work_seq += 1;
        }
    }

    /// A tenant's queued work: pending disk requests plus queued cells.
    pub fn backlog(&self, tenant: usize) -> u64 {
        self.disk.backlog(self.clients[tenant]) as u64
            + self.switch.backlog(self.clients[tenant]) as u64
    }

    /// Cumulative serviced units per resource, canonical order.
    pub fn usage(&self, tenant: usize) -> [u64; 4] {
        [
            0,
            self.disk.served(self.clients[tenant]),
            0,
            self.switch.served(self.clients[tenant]),
        ]
    }

    /// One node step: fold derived demand into the broker, top up with
    /// the backlog override, rebalance, re-price the schedulers, then run
    /// up to `services` disk slots and `services` switch slots.
    pub fn step(&mut self, services: u64) -> Result<()> {
        if !self.alive {
            return Ok(());
        }
        self.broker.absorb_demand(&self.tap);
        for (i, &tenant) in self.tenants.iter().enumerate() {
            let disk_backlog = self.disk.backlog(self.clients[i]) as u64;
            if disk_backlog > 0 {
                self.broker
                    .record_demand(tenant, Resource::Disk, disk_backlog);
            }
            let net_backlog = self.switch.backlog(self.clients[i]) as u64;
            if net_backlog > 0 {
                self.broker
                    .record_demand(tenant, Resource::Net, net_backlog);
            }
        }
        self.broker.rebalance()?;
        self.apply_weights();
        for _ in 0..services {
            if self.disk.pending() == 0 {
                break;
            }
            // A backlogged tenant whose funding all moved to other nodes
            // holds zero tickets; the slot idles rather than erroring.
            match self.disk.service_next(&mut self.rng) {
                Ok(served) => {
                    let Some(tenant) = self.clients.iter().position(|&c| c == served) else {
                        return Err(unregistered(served.index()));
                    };
                    self.broker.record_usage(
                        self.tenants[tenant],
                        Resource::Disk,
                        DISK_REQUEST_SECTORS,
                    );
                }
                Err(LotteryError::EmptyLottery) => break,
                Err(e) => return Err(e),
            }
        }
        for _ in 0..services {
            if self.switch.pending() == 0 {
                break;
            }
            match self.switch.forward(&mut self.rng) {
                Ok((vc, _cell)) => {
                    let Some(tenant) = self.clients.iter().position(|&c| c == vc) else {
                        return Err(unregistered(vc.index()));
                    };
                    self.broker
                        .record_usage(self.tenants[tenant], Resource::Net, 1);
                }
                Err(LotteryError::EmptyLottery) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Snapshots the per-tenant report rows the node sends upstream.
    pub fn report_rows(&self) -> Vec<TenantReport> {
        (0..self.tenants.len())
            .map(|i| TenantReport {
                tenant: i as u32,
                backlog: self.backlog(i),
                usage: self.usage(i),
            })
            .collect()
    }

    fn apply_weights(&mut self) {
        let bind: Vec<(TenantId, QueueClientId)> = self
            .tenants
            .iter()
            .copied()
            .zip(self.clients.iter().copied())
            .collect();
        self.broker
            .apply_queue(Resource::Disk, &mut self.disk, &bind);
        self.broker
            .apply_queue(Resource::Net, &mut self.switch, &bind);
    }
}

/// The error for a disk client or circuit that served work but belongs to
/// no tenant of this node: usage it cannot charge is a broken invariant,
/// not a request to drop.
fn unregistered(index: u32) -> LotteryError {
    LotteryError::StaleHandle {
        kind: ObjectKind::Client,
        handle: RawHandle::new(index, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants() -> Vec<(String, u64)> {
        vec![("gold".into(), 2000), ("silver".into(), 1000)]
    }

    #[test]
    fn node_serves_proportionally_to_grants() {
        let mut node = Node::new(0, 11, &tenants()).unwrap();
        for _ in 0..400 {
            node.offer(0, 4, 4);
            node.offer(1, 4, 4);
            node.step(4).unwrap();
        }
        let gold = node.usage(0);
        let silver = node.usage(1);
        let disk_ratio = gold[1] as f64 / silver[1] as f64;
        let net_ratio = gold[3] as f64 / silver[3] as f64;
        assert!((disk_ratio - 2.0).abs() < 0.3, "disk {disk_ratio}");
        assert!((net_ratio - 2.0).abs() < 0.3, "net {net_ratio}");
    }

    #[test]
    fn grant_updates_reprice_service() {
        let mut node = Node::new(0, 5, &tenants()).unwrap();
        // Flip the grants: silver now holds 2x gold.
        node.set_grant(0, 1000).unwrap();
        node.set_grant(1, 2000).unwrap();
        for _ in 0..400 {
            node.offer(0, 4, 0);
            node.offer(1, 4, 0);
            node.step(4).unwrap();
        }
        let ratio = node.usage(1)[1] as f64 / node.usage(0)[1] as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn dead_node_freezes() {
        let mut node = Node::new(0, 5, &tenants()).unwrap();
        node.offer(0, 4, 4);
        node.step(2).unwrap();
        let before = node.usage(0);
        node.kill();
        node.offer(0, 4, 4);
        node.step(8).unwrap();
        node.set_grant(0, 9999).unwrap();
        assert_eq!(node.usage(0), before);
        assert_eq!(node.grant(0), 2000);
    }

    #[test]
    fn zero_grant_registration_starts_unfunded() {
        let mut node = Node::new(0, 5, &[("idle".into(), 0), ("busy".into(), 300)]).unwrap();
        assert_eq!(node.grant(0), 0);
        assert_eq!(node.grant(1), 300);
        node.set_grant(0, 600).unwrap();
        assert_eq!(node.grant(0), 600);
    }

    #[test]
    fn report_rows_carry_backlog_and_usage() {
        let mut node = Node::new(0, 5, &tenants()).unwrap();
        node.offer(0, 3, 2);
        let rows = node.report_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].backlog, 5);
        assert_eq!(rows[1].backlog, 0);
        node.step(1).unwrap();
        let rows = node.report_rows();
        assert_eq!(rows[0].usage[1], DISK_REQUEST_SECTORS);
        assert_eq!(rows[0].usage[3], 1);
        assert_eq!(rows[0].backlog, 3);
    }
}
