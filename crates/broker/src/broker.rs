//! The resource broker and its funding graph.
//!
//! Funding graph per tenant (all edges are ledger tickets):
//!
//! ```text
//! base ──grant──▶ tenant:<name> ──w_cpu──▶ <name>:cpu ──▶ sink client
//!                               ──w_disk─▶ <name>:disk ─▶ sink client
//!                               ──w_mem──▶ <name>:mem ──▶ sink client
//!                               ──w_net──▶ <name>:net ──▶ sink client
//! ```
//!
//! Each resource currency's *base-unit valuation* — `grant · w_r / Σ
//! active w` — is the weight the broker exports to that resource's
//! scheduler. The sink client keeps the activation chain live (a currency
//! with no active issued tickets is worthless) and doubles as the
//! scheduler-facing face amount in the raw ablation. Extra "worker"
//! tickets issued inside a resource currency ([`ResourceBroker::issue_worker`])
//! dilute the sink but never change the currency's valuation, which is
//! the whole point: intra-tenant inflation is contained by construction.

use lottery_core::currency::CurrencyId;
use lottery_core::errors::{LotteryError, Result};
use lottery_core::ledger::Ledger;
use lottery_core::ticket::TicketId;
use lottery_obs::{EventKind, ProbeBus};
use lottery_sim::prelude::{DistributedLottery, ThreadId};

use crate::mem::{MemClientId, MemoryManager};
use crate::queue::{QueueClientId, ResourceQueue};

/// The four brokered resource classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// CPU quanta (driven through [`DistributedLottery`]).
    Cpu,
    /// Disk bandwidth (driven through [`crate::disk::DiskScheduler`]).
    Disk,
    /// Memory frames (driven through [`MemoryManager`]'s inverse lottery).
    Mem,
    /// Network link slots (driven through [`crate::switch::Switch`]).
    Net,
}

impl Resource {
    /// All resources, in canonical order.
    pub const ALL: [Resource; 4] = [Resource::Cpu, Resource::Disk, Resource::Mem, Resource::Net];

    /// The resource's wire tag (matches probe-event `resource` fields).
    pub fn name(self) -> &'static str {
        match self {
            Resource::Cpu => "cpu",
            Resource::Disk => "disk",
            Resource::Mem => "mem",
            Resource::Net => "net",
        }
    }

    /// Parses a wire tag back into a resource.
    pub fn parse(s: &str) -> Option<Resource> {
        Resource::ALL.into_iter().find(|r| r.name() == s)
    }

    /// The resource's slot in `[u64; 4]` weight arrays.
    pub fn index(self) -> usize {
        match self {
            Resource::Cpu => 0,
            Resource::Disk => 1,
            Resource::Mem => 2,
            Resource::Net => 3,
        }
    }
}

/// How a tenant's grant divides across its four resource currencies.
///
/// Weights are relative (`[1, 1, 1, 1]` and `[5, 5, 5, 5]` are the same
/// split); a zero weight leaves the resource permanently unfunded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Fixed backing: idle resources keep their share of the grant.
    Static([u64; 4]),
    /// Same weights, but each [`ResourceBroker::rebalance`] unfunds
    /// resources with no demand recorded since the previous rebalance,
    /// refunding their backing to the grant — the remaining active
    /// resources appreciate proportionally — and re-funds them the moment
    /// demand returns.
    DemandRefund([u64; 4]),
}

impl SplitPolicy {
    /// An even demand-refunding split — the common default.
    pub fn even() -> Self {
        SplitPolicy::DemandRefund([1; 4])
    }

    fn weights(self) -> [u64; 4] {
        match self {
            SplitPolicy::Static(w) | SplitPolicy::DemandRefund(w) => w,
        }
    }

    fn refunding(self) -> bool {
        matches!(self, SplitPolicy::DemandRefund(_))
    }
}

/// Identifies a tenant within a [`ResourceBroker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u32);

impl TenantId {
    /// The raw index (the `tenant` field of broker probe events).
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug)]
struct ResourceSlot {
    /// The per-resource sub-currency (`<tenant>:<resource>`).
    currency: CurrencyId,
    /// The ticket in the tenant currency backing this sub-currency.
    backing: TicketId,
    /// Whether `backing` currently funds the currency (false after a
    /// demand refund).
    funded: bool,
    /// Relative split weight from the tenant's policy.
    weight: u64,
    /// Demand units recorded since the last rebalance.
    demand: u64,
    /// Cumulative usage units recorded via [`ResourceBroker::record_usage`].
    usage: u64,
    /// Worker clients issued inside the sub-currency (the sink is index 0).
    workers: u32,
}

#[derive(Debug)]
struct Tenant {
    name: String,
    grant: u64,
    /// The tenant currency the grant funds.
    currency: CurrencyId,
    /// The base-currency ticket carrying the grant.
    grant_ticket: TicketId,
    /// Whether the grant ticket currently funds the tenant currency
    /// (false after [`ResourceBroker::set_grant`] to zero).
    grant_funded: bool,
    policy: SplitPolicy,
    slots: [ResourceSlot; 4],
}

/// One (tenant, resource) row of a [`BrokerReport`].
#[derive(Debug, Clone)]
pub struct BrokerResourceRow {
    /// Tenant index.
    pub tenant: u32,
    /// Resource tag.
    pub resource: &'static str,
    /// Whether the backing ticket currently funds the sub-currency.
    pub funded: bool,
    /// The exported weight (valuation, or face amount in raw mode).
    pub weight: f64,
    /// This tenant's fraction of the resource's total exported weight.
    pub weight_share: f64,
    /// Cumulative usage units recorded for the tenant on the resource.
    pub usage: u64,
    /// This tenant's fraction of the resource's total recorded usage.
    pub observed_share: f64,
}

/// Per-tenant summary of a [`BrokerReport`].
#[derive(Debug, Clone)]
pub struct BrokerTenantRow {
    /// Tenant index.
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// Base-currency grant.
    pub grant: u64,
    /// Grant-proportional entitled share.
    pub entitled_share: f64,
    /// Max observed usage share across resources with recorded usage.
    pub dominant_share: f64,
    /// The resource realizing the dominant share (`"-"` when no usage).
    pub dominant_resource: &'static str,
}

/// Funding and observed-share snapshot over every tenant.
#[derive(Debug, Clone, Default)]
pub struct BrokerReport {
    /// Whether the broker was exporting raw face amounts.
    pub raw: bool,
    /// Per-(tenant, resource) rows, tenant-major in canonical order.
    pub rows: Vec<BrokerResourceRow>,
    /// Per-tenant summaries.
    pub tenants: Vec<BrokerTenantRow>,
}

/// Funds CPU, disk, memory, and network schedulers from per-tenant grants
/// held in one ledger. See the crate docs for the funding graph.
#[derive(Debug)]
pub struct ResourceBroker {
    ledger: Ledger,
    tenants: Vec<Tenant>,
    bus: ProbeBus,
    raw: bool,
    refunds: u64,
}

impl Default for ResourceBroker {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceBroker {
    /// Creates a broker with an empty ledger.
    pub fn new() -> Self {
        Self {
            ledger: Ledger::new(),
            tenants: Vec::new(),
            bus: ProbeBus::disabled(),
            raw: false,
            refunds: 0,
        }
    }

    /// Attaches the probe bus to the broker and its ledger. Funding
    /// changes emit [`EventKind::BrokerFunding`].
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.ledger.set_probe_bus(bus.clone());
        self.bus = bus;
    }

    /// Switches weight export to raw face amounts (`active_amount` of
    /// each sub-currency) instead of ledger valuations, and disables
    /// demand refunds — the non-brokered ablation. Under raw funding,
    /// worker tickets issued inside a sub-currency *do* grow the exported
    /// weight: inflation leaks across tenants.
    pub fn set_raw_funding(&mut self, raw: bool) {
        self.raw = raw;
    }

    /// The backing ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The backing ledger, mutably (escape hatch for experiments that
    /// manipulate the funding graph directly).
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Registers a tenant: issues `grant` base tickets into a fresh
    /// tenant currency and splits it across the four resource
    /// sub-currencies per `policy`.
    ///
    /// # Errors
    ///
    /// [`LotteryError::ZeroAmount`] when `grant` is zero or every policy
    /// weight is zero; ledger errors on duplicate tenant names.
    pub fn register_tenant(
        &mut self,
        name: impl Into<String>,
        grant: u64,
        policy: SplitPolicy,
    ) -> Result<TenantId> {
        let name = name.into();
        let weights = policy.weights();
        let weight_sum: u64 = weights.iter().sum();
        if grant == 0 || weight_sum == 0 {
            return Err(LotteryError::ZeroAmount);
        }
        let tenant_currency = self.ledger.create_currency(name.clone())?;
        let grant_ticket = self.ledger.issue_root(self.ledger.base(), grant)?;
        self.ledger.fund_currency(grant_ticket, tenant_currency)?;
        let id = TenantId(self.tenants.len() as u32);
        let [cpu, disk, mem, net] = Resource::ALL;
        let slots = [
            self.open_slot(&name, tenant_currency, cpu, grant, &weights)?,
            self.open_slot(&name, tenant_currency, disk, grant, &weights)?,
            self.open_slot(&name, tenant_currency, mem, grant, &weights)?,
            self.open_slot(&name, tenant_currency, net, grant, &weights)?,
        ];
        self.tenants.push(Tenant {
            name,
            grant,
            currency: tenant_currency,
            grant_ticket,
            grant_funded: true,
            policy,
            slots,
        });
        for resource in Resource::ALL {
            self.emit_funding(id, resource, false);
        }
        Ok(id)
    }

    /// Mints one resource sub-currency of tenant `name`, backed by its
    /// policy weight in `tenant_currency`, with the sink client that keeps
    /// it active.
    fn open_slot(
        &mut self,
        name: &str,
        tenant_currency: CurrencyId,
        resource: Resource,
        grant: u64,
        weights: &[u64; 4],
    ) -> Result<ResourceSlot> {
        let weight = weights[resource.index()];
        let weight_sum: u64 = weights.iter().sum();
        let currency = self
            .ledger
            .create_currency(format!("{name}:{}", resource.name()))?;
        // A zero split weight cannot back a ticket; keep the currency
        // permanently unfunded with a placeholder backing in the
        // *base* currency that never funds anything.
        let (backing, funded) = if weight > 0 {
            let t = self.ledger.issue_root(tenant_currency, weight)?;
            self.ledger.fund_currency(t, currency)?;
            (t, true)
        } else {
            (self.ledger.issue_root(self.ledger.base(), 1)?, false)
        };
        // The sink client keeps the currency active and carries its
        // grant-proportional face amount, so raw-mode faces start at
        // the same split the valuation gives.
        if weight > 0 {
            let face = (grant * weight / weight_sum).max(1);
            let sink = self
                .ledger
                .create_client(format!("{name}:{}:sink", resource.name()));
            let sink_ticket = self.ledger.issue_root(currency, face)?;
            self.ledger.fund_client(sink_ticket, sink)?;
            self.ledger.activate_client(sink)?;
        }
        Ok(ResourceSlot {
            currency,
            backing,
            funded,
            weight,
            demand: 0,
            usage: 0,
            workers: 1,
        })
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// A tenant's name.
    pub fn name(&self, tenant: TenantId) -> &str {
        &self.tenants[tenant.0 as usize].name
    }

    /// Looks a tenant up by name.
    pub fn find_tenant(&self, name: &str) -> Option<TenantId> {
        self.tenants
            .iter()
            .position(|t| t.name == name)
            .map(|i| TenantId(i as u32))
    }

    /// A tenant's base-currency grant.
    pub fn grant(&self, tenant: TenantId) -> u64 {
        self.tenants[tenant.0 as usize].grant
    }

    /// Re-prices a tenant's base-currency grant in place — the lever a
    /// cluster coordinator pulls when reconciliation moves funding
    /// between nodes. A zero grant unfunds the grant ticket entirely
    /// (the tenant's resource weights all collapse to zero but the
    /// funding graph stays intact); a later non-zero grant re-funds it.
    pub fn set_grant(&mut self, tenant: TenantId, grant: u64) -> Result<()> {
        let (ticket, currency, funded) = {
            let t = &self.tenants[tenant.0 as usize];
            (t.grant_ticket, t.currency, t.grant_funded)
        };
        if grant == 0 {
            if funded {
                self.ledger.unfund(ticket)?;
                self.tenants[tenant.0 as usize].grant_funded = false;
            }
        } else {
            self.ledger.set_amount(ticket, grant)?;
            if !funded {
                self.ledger.fund_currency(ticket, currency)?;
                self.tenants[tenant.0 as usize].grant_funded = true;
            }
        }
        self.tenants[tenant.0 as usize].grant = grant;
        for resource in Resource::ALL {
            self.emit_funding(tenant, resource, false);
        }
        Ok(())
    }

    /// A tenant's grant-proportional entitled share of every resource.
    pub fn entitled_share(&self, tenant: TenantId) -> f64 {
        let total: u64 = self.tenants.iter().map(|t| t.grant).sum();
        if total == 0 {
            0.0
        } else {
            self.tenants[tenant.0 as usize].grant as f64 / total as f64
        }
    }

    /// Records demand (pending work) for a tenant on a resource since the
    /// last rebalance. Any non-zero demand keeps the resource funded
    /// under [`SplitPolicy::DemandRefund`].
    pub fn record_demand(&mut self, tenant: TenantId, resource: Resource, units: u64) {
        self.tenants[tenant.0 as usize].slots[resource.index()].demand += units;
    }

    /// Folds demand derived by a [`crate::demand::DemandTap`] on the probe
    /// bus into the normal demand accounting, then clears the tap — the
    /// unattended alternative to calling [`ResourceBroker::record_demand`]
    /// by hand each step. Returns the total units absorbed.
    pub fn absorb_demand(&mut self, tap: &lottery_obs::Shared<crate::demand::DemandTap>) -> u64 {
        let rows = tap.with(|t| t.drain());
        let mut total = 0;
        for (tenant, resource, units) in rows {
            self.record_demand(tenant, resource, units);
            total += units;
        }
        total
    }

    /// The demand units accumulated for a tenant since the last
    /// rebalance, per resource in canonical order — the per-node demand
    /// export cluster reconciliation reports upstream.
    #[cfg(test)]
    fn pending_demand(&self, tenant: TenantId) -> [u64; 4] {
        let slots = &self.tenants[tenant.0 as usize].slots;
        [
            slots[0].demand,
            slots[1].demand,
            slots[2].demand,
            slots[3].demand,
        ]
    }

    /// Records completed usage units for a tenant on a resource (feeds
    /// the observed shares of [`ResourceBroker::report`]).
    pub fn record_usage(&mut self, tenant: TenantId, resource: Resource, units: u64) {
        self.tenants[tenant.0 as usize].slots[resource.index()].usage += units;
    }

    /// Cumulative usage units recorded for a tenant on a resource.
    pub fn usage(&self, tenant: TenantId, resource: Resource) -> u64 {
        self.tenants[tenant.0 as usize].slots[resource.index()].usage
    }

    /// Rebalances demand-refunding tenants: unfunds backings of resources
    /// with zero recorded demand (refunding them to the grant), re-funds
    /// resources whose demand returned, emits a funding event per
    /// (tenant, resource), and clears the demand accumulators.
    ///
    /// Refunds are suspended in raw mode — the ablation exports static
    /// faces precisely so drift is attributable to missing valuation.
    pub fn rebalance(&mut self) -> Result<()> {
        for index in 0..self.tenants.len() {
            let id = TenantId(index as u32);
            let refunding = self.tenants[index].policy.refunding() && !self.raw;
            for resource in Resource::ALL {
                let slot = &self.tenants[index].slots[resource.index()];
                let (backing, currency, funded, weight, demand) = (
                    slot.backing,
                    slot.currency,
                    slot.funded,
                    slot.weight,
                    slot.demand,
                );
                let mut refunded = false;
                if refunding && weight > 0 {
                    if demand == 0 && funded {
                        self.ledger.unfund(backing)?;
                        self.tenants[index].slots[resource.index()].funded = false;
                        self.refunds += 1;
                        refunded = true;
                    } else if demand > 0 && !funded {
                        self.ledger.fund_currency(backing, currency)?;
                        self.tenants[index].slots[resource.index()].funded = true;
                    }
                }
                self.tenants[index].slots[resource.index()].demand = 0;
                self.emit_funding(id, resource, refunded);
            }
        }
        Ok(())
    }

    /// Total demand refunds performed so far.
    pub fn refunds(&self) -> u64 {
        self.refunds
    }

    /// The weight the broker exports for a tenant's resource, in base
    /// units: the sub-currency's ledger valuation, or its active face
    /// amount under raw funding. Zero when the resource is refunded.
    pub fn weight(&self, tenant: TenantId, resource: Resource) -> f64 {
        let slot = &self.tenants[tenant.0 as usize].slots[resource.index()];
        if self.raw {
            self.ledger
                .currency(slot.currency)
                .map(|c| c.active_amount() as f64)
                .unwrap_or(0.0)
        } else {
            self.ledger
                .cached_currency_value(slot.currency)
                .unwrap_or(0.0)
        }
    }

    /// Issues an active worker client funded by `amount` fresh tickets
    /// inside a tenant's resource sub-currency — intra-tenant inflation.
    /// Under valuation export this dilutes the tenant's own workers and
    /// nothing else; under raw export it grows the exported weight.
    ///
    /// Returns the worker's funding ticket so callers can re-price it
    /// later with [`ResourceBroker::set_worker_amount`].
    pub fn issue_worker(
        &mut self,
        tenant: TenantId,
        resource: Resource,
        amount: u64,
    ) -> Result<TicketId> {
        let slot = &self.tenants[tenant.0 as usize].slots[resource.index()];
        let currency = slot.currency;
        let worker_index = slot.workers;
        let name = format!(
            "{}:{}:{}",
            self.tenants[tenant.0 as usize].name,
            resource.name(),
            worker_index
        );
        let client = self.ledger.create_client(name);
        let ticket = self.ledger.issue_root(currency, amount)?;
        self.ledger.fund_client(ticket, client)?;
        self.ledger.activate_client(client)?;
        self.tenants[tenant.0 as usize].slots[resource.index()].workers += 1;
        Ok(ticket)
    }

    /// Re-prices a worker's funding ticket in place (dynamic inflation,
    /// e.g. error-driven Monte-Carlo funding).
    pub fn set_worker_amount(&mut self, ticket: TicketId, amount: u64) -> Result<()> {
        self.ledger.set_amount(ticket, amount)
    }

    /// Pushes per-tenant CPU weights into a [`DistributedLottery`].
    /// `bind` maps tenants to their threads; a tenant's weight divides
    /// evenly across its threads (clamped to ≥ 1 — the scheduler rejects
    /// zero-ticket funding, and a refunded tenant should idle, not
    /// panic).
    pub fn apply_cpu(
        &self,
        policy: &mut DistributedLottery,
        bind: &[(TenantId, ThreadId)],
    ) -> Result<()> {
        let mut thread_counts = vec![0u64; self.tenants.len()];
        for (tenant, _) in bind {
            thread_counts[tenant.0 as usize] += 1;
        }
        for &(tenant, thread) in bind {
            let threads = thread_counts[tenant.0 as usize].max(1);
            let amount = (self.weight(tenant, Resource::Cpu) / threads as f64).round() as u64;
            policy.set_funding(thread, amount.max(1))?;
        }
        Ok(())
    }

    /// Pushes per-tenant `resource` weights into the queue lottery that
    /// serves it: the disk or the switch, both [`ResourceQueue`]s.
    pub fn apply_queue<T>(
        &self,
        resource: Resource,
        queue: &mut ResourceQueue<T>,
        bind: &[(TenantId, QueueClientId)],
    ) {
        for &(tenant, client) in bind {
            queue.set_tickets(client, self.weight(tenant, resource).round() as u64);
        }
    }

    /// Pushes per-tenant memory weights into a [`MemoryManager`].
    pub fn apply_mem(&self, mem: &mut MemoryManager, bind: &[(TenantId, MemClientId)]) {
        for &(tenant, client) in bind {
            mem.set_tickets(client, self.weight(tenant, Resource::Mem).round() as u64);
        }
    }

    /// Snapshots funding and observed shares across every tenant.
    pub fn report(&self) -> BrokerReport {
        let mut resource_weight = [0.0f64; 4];
        let mut resource_usage = [0u64; 4];
        for (index, tenant) in self.tenants.iter().enumerate() {
            let id = TenantId(index as u32);
            for resource in Resource::ALL {
                resource_weight[resource.index()] += self.weight(id, resource);
                resource_usage[resource.index()] += tenant.slots[resource.index()].usage;
            }
        }
        let mut rows = Vec::new();
        let mut tenants = Vec::new();
        for (index, tenant) in self.tenants.iter().enumerate() {
            let id = TenantId(index as u32);
            let mut dominant_share = 0.0;
            let mut dominant_resource = "-";
            for resource in Resource::ALL {
                let slot = &tenant.slots[resource.index()];
                let weight = self.weight(id, resource);
                let weight_total = resource_weight[resource.index()];
                let usage_total = resource_usage[resource.index()];
                let observed_share = if usage_total > 0 {
                    slot.usage as f64 / usage_total as f64
                } else {
                    0.0
                };
                if usage_total > 0 && observed_share > dominant_share {
                    dominant_share = observed_share;
                    dominant_resource = resource.name();
                }
                rows.push(BrokerResourceRow {
                    tenant: id.0,
                    resource: resource.name(),
                    funded: slot.funded,
                    weight,
                    weight_share: if weight_total > 0.0 {
                        weight / weight_total
                    } else {
                        0.0
                    },
                    usage: slot.usage,
                    observed_share,
                });
            }
            tenants.push(BrokerTenantRow {
                tenant: id.0,
                name: tenant.name.clone(),
                grant: tenant.grant,
                entitled_share: self.entitled_share(id),
                dominant_share,
                dominant_resource,
            });
        }
        BrokerReport {
            raw: self.raw,
            rows,
            tenants,
        }
    }

    fn emit_funding(&self, tenant: TenantId, resource: Resource, refunded: bool) {
        let weight = self.weight(tenant, resource);
        self.bus.emit(|| EventKind::BrokerFunding {
            tenant: tenant.0,
            resource: resource.name(),
            weight,
            refunded,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskPolicy, DiskScheduler};
    use lottery_core::rng::ParkMiller;

    fn two_tenants(broker: &mut ResourceBroker) -> (TenantId, TenantId) {
        let gold = broker
            .register_tenant("gold", 2000, SplitPolicy::even())
            .unwrap();
        let silver = broker
            .register_tenant("silver", 1000, SplitPolicy::even())
            .unwrap();
        (gold, silver)
    }

    #[test]
    fn grants_split_evenly_across_resources() {
        let mut broker = ResourceBroker::new();
        let (gold, silver) = two_tenants(&mut broker);
        for r in Resource::ALL {
            assert!((broker.weight(gold, r) - 500.0).abs() < 1e-9, "{r:?}");
            assert!((broker.weight(silver, r) - 250.0).abs() < 1e-9, "{r:?}");
        }
        assert!((broker.entitled_share(gold) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn static_weights_respect_the_split() {
        let mut broker = ResourceBroker::new();
        let t = broker
            .register_tenant("db", 1000, SplitPolicy::Static([1, 5, 2, 2]))
            .unwrap();
        assert!((broker.weight(t, Resource::Cpu) - 100.0).abs() < 1e-9);
        assert!((broker.weight(t, Resource::Disk) - 500.0).abs() < 1e-9);
        assert!((broker.weight(t, Resource::Mem) - 200.0).abs() < 1e-9);
        assert!((broker.weight(t, Resource::Net) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn zero_split_weight_stays_unfunded() {
        let mut broker = ResourceBroker::new();
        let t = broker
            .register_tenant("cpu-only", 600, SplitPolicy::Static([1, 1, 1, 0]))
            .unwrap();
        assert_eq!(broker.weight(t, Resource::Net), 0.0);
        assert!((broker.weight(t, Resource::Cpu) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn disk_inflation_cannot_leak_across_tenants() {
        let mut broker = ResourceBroker::new();
        let (gold, silver) = two_tenants(&mut broker);
        // Gold prints 10k disk tickets for a new worker — 20x its sink.
        broker.issue_worker(gold, Resource::Disk, 10_000).unwrap();
        // Valued weights are pinned by the backing tickets: nothing moved,
        // on disk or anywhere else.
        for r in Resource::ALL {
            assert!((broker.weight(gold, r) - 500.0).abs() < 1e-9, "{r:?}");
            assert!((broker.weight(silver, r) - 250.0).abs() < 1e-9, "{r:?}");
        }
        // The raw ablation sees the printed face value directly.
        broker.set_raw_funding(true);
        assert!((broker.weight(gold, Resource::Disk) - 10_500.0).abs() < 1e-9);
        assert!((broker.weight(silver, Resource::Disk) - 250.0).abs() < 1e-9);
        assert!((broker.weight(gold, Resource::Cpu) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn demand_refund_reprices_active_resources() {
        let mut broker = ResourceBroker::new();
        let (gold, silver) = two_tenants(&mut broker);
        // Silver goes net-idle; everything else stays busy.
        for t in [gold, silver] {
            for r in Resource::ALL {
                if !(t == silver && r == Resource::Net) {
                    broker.record_demand(t, r, 1);
                }
            }
        }
        broker.rebalance().unwrap();
        assert_eq!(broker.weight(silver, Resource::Net), 0.0);
        // Silver's grant now backs three active resources: 1000/3 each.
        assert!((broker.weight(silver, Resource::Cpu) - 1000.0 / 3.0).abs() < 1e-9);
        // Gold is untouched.
        assert!((broker.weight(gold, Resource::Net) - 500.0).abs() < 1e-9);
        assert_eq!(broker.refunds(), 1);
        // Demand returns: the next rebalance restores the even split.
        for t in [gold, silver] {
            for r in Resource::ALL {
                broker.record_demand(t, r, 1);
            }
        }
        broker.rebalance().unwrap();
        assert!((broker.weight(silver, Resource::Net) - 250.0).abs() < 1e-9);
        assert!((broker.weight(silver, Resource::Cpu) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn static_split_never_refunds() {
        let mut broker = ResourceBroker::new();
        let t = broker
            .register_tenant("fixed", 800, SplitPolicy::Static([1, 1, 1, 1]))
            .unwrap();
        // No demand recorded at all; a static tenant keeps its backing.
        broker.rebalance().unwrap();
        assert!((broker.weight(t, Resource::Net) - 200.0).abs() < 1e-9);
        assert_eq!(broker.refunds(), 0);
    }

    #[test]
    fn raw_mode_suspends_refunds() {
        let mut broker = ResourceBroker::new();
        let (_, silver) = two_tenants(&mut broker);
        broker.set_raw_funding(true);
        broker.rebalance().unwrap();
        assert_eq!(broker.refunds(), 0);
        assert!((broker.weight(silver, Resource::Net) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn applied_disk_weights_hold_two_to_one() {
        let mut broker = ResourceBroker::new();
        let (gold, silver) = two_tenants(&mut broker);
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let dg = disk.register("gold", 1);
        let ds = disk.register("silver", 1);
        broker.apply_queue(Resource::Disk, &mut disk, &[(gold, dg), (silver, ds)]);
        let mut rng = ParkMiller::new(41);
        for i in 0..30_000u64 {
            for (k, &c) in [dg, ds].iter().enumerate() {
                if disk.backlog(c) < 4 {
                    disk.submit(c, (i * 64 + k as u64 * 1000) % 100_000, 8);
                }
            }
            disk.service_next(&mut rng).unwrap();
        }
        let ratio = disk.served(dg) as f64 / disk.served(ds) as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn worker_repricing_moves_raw_but_not_valued_weight() {
        let mut broker = ResourceBroker::new();
        let (gold, _) = two_tenants(&mut broker);
        let w = broker.issue_worker(gold, Resource::Cpu, 100).unwrap();
        broker.set_worker_amount(w, 4_000).unwrap();
        assert!((broker.weight(gold, Resource::Cpu) - 500.0).abs() < 1e-9);
        broker.set_raw_funding(true);
        assert!((broker.weight(gold, Resource::Cpu) - 4_500.0).abs() < 1e-9);
    }

    #[test]
    fn report_shapes_and_dominant_usage() {
        let mut broker = ResourceBroker::new();
        let (gold, silver) = two_tenants(&mut broker);
        broker.record_usage(gold, Resource::Disk, 800);
        broker.record_usage(silver, Resource::Disk, 200);
        broker.record_usage(gold, Resource::Cpu, 600);
        broker.record_usage(silver, Resource::Cpu, 400);
        let report = broker.report();
        assert_eq!(report.rows.len(), 8);
        assert_eq!(report.tenants.len(), 2);
        let g = &report.tenants[0];
        assert_eq!(g.dominant_resource, "disk");
        assert!((g.dominant_share - 0.8).abs() < 1e-12);
        let disk_row = report
            .rows
            .iter()
            .find(|r| r.tenant == 0 && r.resource == "disk")
            .unwrap();
        assert!((disk_row.weight_share - 2.0 / 3.0).abs() < 1e-9);
        assert!((disk_row.observed_share - 0.8).abs() < 1e-12);
    }

    #[test]
    fn find_tenant_and_metadata() {
        let mut broker = ResourceBroker::new();
        let (gold, _) = two_tenants(&mut broker);
        assert_eq!(broker.find_tenant("gold"), Some(gold));
        assert_eq!(broker.find_tenant("nobody"), None);
        assert_eq!(broker.name(gold), "gold");
        assert_eq!(broker.grant(gold), 2000);
        assert_eq!(broker.tenant_count(), 2);
        assert_eq!(gold.index(), 0);
    }

    #[test]
    fn set_grant_reprices_and_survives_zero() {
        let mut broker = ResourceBroker::new();
        let (gold, silver) = two_tenants(&mut broker);
        broker.set_grant(gold, 4000).unwrap();
        for r in Resource::ALL {
            assert!((broker.weight(gold, r) - 1000.0).abs() < 1e-9, "{r:?}");
            assert!((broker.weight(silver, r) - 250.0).abs() < 1e-9, "{r:?}");
        }
        assert_eq!(broker.grant(gold), 4000);
        // Zero drains the tenant's weights without touching silver.
        broker.set_grant(gold, 0).unwrap();
        for r in Resource::ALL {
            assert_eq!(broker.weight(gold, r), 0.0, "{r:?}");
            assert!((broker.weight(silver, r) - 250.0).abs() < 1e-9, "{r:?}");
        }
        assert!((broker.entitled_share(silver) - 1.0).abs() < 1e-12);
        // And funding comes back whole.
        broker.set_grant(gold, 2000).unwrap();
        for r in Resource::ALL {
            assert!((broker.weight(gold, r) - 500.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn absorbed_tap_demand_keeps_resources_funded() {
        use lottery_obs::Shared;
        let mut broker = ResourceBroker::new();
        let (gold, silver) = two_tenants(&mut broker);
        let tap = Shared::new(crate::DemandTap::new());
        tap.with(|t| {
            t.bind(Resource::Disk, 0, gold);
            t.bind(Resource::Net, 1, silver);
        });
        let mut on_bus = tap.clone();
        use lottery_obs::Recorder as _;
        on_bus.record(&lottery_obs::Event {
            time_us: 0,
            kind: EventKind::ResourceDraw {
                resource: "disk",
                client: 0,
                entries: 2,
                total: 750,
            },
        });
        let absorbed = broker.absorb_demand(&tap);
        assert_eq!(absorbed, 1);
        assert_eq!(broker.pending_demand(gold), [0, 1, 0, 0]);
        broker.rebalance().unwrap();
        // Disk stayed funded off derived demand; everything idle refunded.
        assert!(broker.weight(gold, Resource::Disk) > 0.0);
        assert_eq!(broker.weight(gold, Resource::Cpu), 0.0);
        assert_eq!(broker.weight(silver, Resource::Net), 0.0);
    }

    #[test]
    fn zero_grant_rejected() {
        let mut broker = ResourceBroker::new();
        assert_eq!(
            broker.register_tenant("none", 0, SplitPolicy::even()),
            Err(LotteryError::ZeroAmount)
        );
        assert_eq!(
            broker.register_tenant("none", 10, SplitPolicy::Static([0; 4])),
            Err(LotteryError::ZeroAmount)
        );
    }

    #[test]
    fn resource_tags_round_trip() {
        for r in Resource::ALL {
            assert_eq!(Resource::parse(r.name()), Some(r));
        }
        assert_eq!(Resource::parse("gpu"), None);
    }
}
