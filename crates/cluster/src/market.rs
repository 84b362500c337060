//! The cluster market coordinator: budget policies, async
//! reconciliation, and partition/node-loss recovery.
//!
//! A [`ClusterMarket`] owns N [`Node`]s and the [`SimNet`] joining them.
//! Each tenant holds ONE cluster-level grant; the coordinator's
//! [`BudgetPolicy`] splits it into per-node base-currency grants, and the
//! only thing keeping those splits honest is the reconciliation loop:
//! nodes periodically send [`Message::Report`]s (backlog + cumulative
//! usage per tenant) over the simulated network, the coordinator
//! re-targets allocations toward the nodes where each tenant's demand
//! actually is, and pushes [`Message::Grant`] updates back down. Nothing
//! is shared — a grant update takes a link latency to land, a partition
//! silently eats traffic in both directions, and a node that stops
//! reporting is indistinguishable from a dead one, which is exactly how
//! the coordinator treats it.
//!
//! **Recovery.** When a node misses [`LOSS_TIMEOUT_ROUNDS`] consecutive
//! reconciliation rounds the coordinator declares it lost and reclaims
//! its allocations. Redistribution runs through the paper's inverse
//! lottery ([`lottery_core::inverse::draw_loser`]): each reclaimed
//! quantum goes to the survivor the inverse lottery picks — the fewer
//! tickets a node already holds of that tenant's grant, the more likely
//! it is to receive the next quantum, so recovery fills the poorest nodes
//! first with randomized tie-breaking instead of deterministically
//! dog-piling one survivor. If the node later reports again (a partition,
//! not a death), the coordinator emits [`EventKind::PartitionHeal`] and
//! the normal demand-following loop pulls funding back.
//!
//! **Conservation.** The coordinator's allocation matrix is the
//! authoritative ledger of the cluster grant: every rebalance and every
//! reclaim moves value between columns of a row, never creating or
//! destroying it, so each tenant's row always sums to its cluster grant
//! — the invariant the cluster proptests pin down. (Node-local views can
//! lag while updates are in flight or a partition holds stale grants —
//! split-brain over-subscription is real and intentional — but the
//! coordinator re-syncs every reachable node every round, so the
//! node-side total reconverges within a link latency of quiescence.)

use lottery_core::errors::Result;
use lottery_core::inverse::{draw_loser, draw_loser_uniform};
use lottery_core::rng::ParkMiller;
use lottery_obs::{DominantShareMonitor, DominantShareReport, EventKind, ProbeBus};

use crate::net::{Message, SimNet, TenantReport};
use crate::node::Node;

/// Reconciliation rounds a node may miss before the coordinator declares
/// it lost and reclaims its allocations.
pub const LOSS_TIMEOUT_ROUNDS: u32 = 3;

/// Quanta a reclaimed allocation is redistributed in (each quantum is
/// assigned by its own inverse lottery).
const RECLAIM_QUANTA: u64 = 4;

/// How the coordinator splits each tenant's cluster grant across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Split once at launch (evenly), then never move funding again — the
    /// ablation. Demand moves, allocations don't, and dead nodes keep
    /// their grants forever.
    StaticSplit,
    /// Re-target each tenant's allocation every round, proportional to
    /// the per-node demand signal (reported backlog + work completed
    /// since the last report), and reclaim lost nodes' allocations.
    DemandFollowing,
}

impl BudgetPolicy {
    /// The policy's wire/report tag.
    pub fn name(self) -> &'static str {
        match self {
            BudgetPolicy::StaticSplit => "static",
            BudgetPolicy::DemandFollowing => "demand-following",
        }
    }
}

#[derive(Debug)]
struct ClusterTenant {
    name: String,
    grant: u64,
}

#[derive(Debug, Clone, Copy)]
struct NodeView {
    /// Round of the last report delivered from the node (0 = never).
    last_heard: u32,
    /// Round the coordinator declared the node unreachable, if it has.
    unreachable_since: Option<u32>,
    /// Link drop count when the node was declared unreachable.
    dropped_at_mark: u64,
}

/// One `(tenant, node)` allocation row of a [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct ClusterAllocRow {
    /// Cluster tenant index.
    pub tenant: u32,
    /// Node index.
    pub node: u32,
    /// The coordinator's intended allocation.
    pub alloc: u64,
    /// The grant the node actually holds (lags by link latency; stale
    /// under partition).
    pub node_grant: u64,
    /// The node's last reported backlog for the tenant.
    pub backlog: u64,
}

/// Per-tenant cluster-wide summary of a [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct ClusterTenantRow {
    /// Cluster tenant index.
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// The cluster-level grant.
    pub grant: u64,
    /// Grant-proportional entitled share.
    pub entitled_share: f64,
    /// Cumulative serviced units per resource, summed over nodes.
    pub usage: [u64; 4],
}

/// A coordinator-eye snapshot of the whole market.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Reconciliation rounds run.
    pub round: u32,
    /// The budget policy's tag.
    pub policy: &'static str,
    /// Nodes in the market.
    pub nodes: u32,
    /// Nodes the coordinator currently believes reachable.
    pub reachable: u32,
    /// Whether every tenant's allocation row sums to its cluster grant.
    pub conserved: bool,
    /// Grant moves performed (rebalances + reclaims).
    pub moves: u64,
    /// Partition heals observed.
    pub heals: u64,
    /// Messages the network dropped or discarded.
    pub dropped: u64,
    /// Per-tenant summaries.
    pub tenants: Vec<ClusterTenantRow>,
    /// Per-(tenant, node) allocation rows, tenant-major.
    pub allocs: Vec<ClusterAllocRow>,
    /// The cluster-wide dominant-share report.
    pub shares: DominantShareReport,
}

/// N brokered nodes, one coordinator, and a lossy network in between.
#[derive(Debug)]
pub struct ClusterMarket {
    nodes: Vec<Node>,
    net: SimNet,
    policy: BudgetPolicy,
    tenants: Vec<ClusterTenant>,
    /// `alloc[tenant][node]`: the coordinator's authoritative split.
    alloc: Vec<Vec<u64>>,
    /// `demand[tenant][node]`: last demand signal per node.
    demand: Vec<Vec<u64>>,
    /// `seen_usage[tenant][node]`: cumulative usage last reported, for
    /// delta-feeding the monitor (cumulative reports make lost messages
    /// harmless).
    seen_usage: Vec<Vec<[u64; 4]>>,
    views: Vec<NodeView>,
    monitor: DominantShareMonitor,
    round: u32,
    /// Simulated microseconds between reconciliation rounds, for event-
    /// driven composition (see the `EventSource` impl).
    round_period_us: u64,
    rng: ParkMiller,
    bus: ProbeBus,
    moves: u64,
    heals: u64,
}

impl ClusterMarket {
    /// Builds a market of `node_count` nodes and the given tenants, each
    /// `(name, cluster_grant)` split evenly across nodes to start.
    pub fn new(
        node_count: u32,
        seed: u32,
        policy: BudgetPolicy,
        tenants: &[(&str, u64)],
    ) -> Result<ClusterMarket> {
        assert!(node_count > 0, "a market needs at least one node");
        let n = node_count as usize;
        let mut alloc = Vec::with_capacity(tenants.len());
        for (_, grant) in tenants {
            let base = grant / n as u64;
            let mut row = vec![base; n];
            let mut rest = grant - base * n as u64;
            for slot in row.iter_mut() {
                if rest == 0 {
                    break;
                }
                *slot += 1;
                rest -= 1;
            }
            alloc.push(row);
        }
        let mut nodes = Vec::with_capacity(n);
        // `alloc` is tenant-major, so iterating node ids and indexing
        // `alloc[t][id]` is the natural shape here.
        #[allow(clippy::needless_range_loop)]
        for id in 0..n {
            let spec: Vec<(String, u64)> = tenants
                .iter()
                .enumerate()
                .map(|(t, (name, _))| (name.to_string(), alloc[t][id]))
                .collect();
            nodes.push(Node::new(
                id as u32,
                seed.wrapping_add(id as u32 * 7919),
                &spec,
            )?);
        }
        let mut monitor = DominantShareMonitor::new();
        for (t, (_, grant)) in tenants.iter().enumerate() {
            monitor.set_entitlement(t as u32, *grant as f64);
        }
        Ok(ClusterMarket {
            nodes,
            net: SimNet::new(n, seed ^ 0x5ca1ab1e),
            policy,
            tenants: tenants
                .iter()
                .map(|(name, grant)| ClusterTenant {
                    name: name.to_string(),
                    grant: *grant,
                })
                .collect(),
            alloc,
            demand: vec![vec![0; n]; tenants.len()],
            seen_usage: vec![vec![[0; 4]; n]; tenants.len()],
            views: vec![
                NodeView {
                    last_heard: 0,
                    unreachable_since: None,
                    dropped_at_mark: 0,
                };
                n
            ],
            monitor,
            round: 0,
            round_period_us: 10_000,
            rng: ParkMiller::new(seed ^ 0x0ddba11),
            bus: ProbeBus::disabled(),
            moves: 0,
            heals: 0,
        })
    }

    /// Attaches a probe bus; reconciliation emits
    /// [`EventKind::NodeReport`], [`EventKind::GrantMove`], and
    /// [`EventKind::PartitionHeal`] through it.
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.bus = bus;
    }

    /// The simulated network (latency/drop/partition knobs).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// Switches the budget policy mid-run. Dropping to
    /// [`BudgetPolicy::StaticSplit`] freezes every allocation wherever
    /// the last rebalance left it — a reconciliation outage, and the
    /// drift ablation of `tests/drills.rs`.
    pub fn set_policy(&mut self, policy: BudgetPolicy) {
        self.policy = policy;
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// A tenant's cluster-level grant.
    pub fn cluster_grant(&self, tenant: usize) -> u64 {
        self.tenants[tenant].grant
    }

    /// Looks a tenant up by name.
    pub fn find_tenant(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    /// The coordinator's intended allocation for a tenant on a node.
    pub fn alloc(&self, tenant: usize, node: u32) -> u64 {
        self.alloc[tenant][node as usize]
    }

    /// Read access to a node (tests and reports; the protocol itself
    /// only talks to nodes through the network).
    pub fn node(&self, node: u32) -> &Node {
        &self.nodes[node as usize]
    }

    /// Reconciliation rounds run.
    pub fn round_count(&self) -> u32 {
        self.round
    }

    /// Sets the reconciliation cadence: simulated microseconds between
    /// rounds (used by the `EventSource` impl; the default is 10 ms).
    ///
    /// # Panics
    ///
    /// Panics on a zero period — a zero cadence would pin an event loop.
    pub fn set_round_period_us(&mut self, period_us: u64) {
        assert!(period_us > 0, "round period must be positive");
        self.round_period_us = period_us;
    }

    /// The reconciliation cadence, in simulated microseconds per round.
    pub fn round_period_us(&self) -> u64 {
        self.round_period_us
    }

    /// Grant moves performed so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Cumulative serviced units for a tenant, summed across nodes
    /// (direct measurement for experiments; the monitor's view is
    /// report-fed and lags by a link latency).
    pub fn usage(&self, tenant: usize) -> [u64; 4] {
        let mut total = [0u64; 4];
        for node in &self.nodes {
            let u = node.usage(tenant);
            for (acc, v) in total.iter_mut().zip(u) {
                *acc += v;
            }
        }
        total
    }

    /// Queues work for a tenant on one node (no-op on dead nodes).
    pub fn offer(&mut self, node: u32, tenant: usize, disk_requests: u64, cells: u64) {
        self.nodes[node as usize].offer(tenant, disk_requests, cells);
    }

    /// Kills a node outright: it stops servicing and reporting. The
    /// coordinator finds out the only way it can — missed reports.
    pub fn kill(&mut self, node: u32) {
        self.nodes[node as usize].kill();
    }

    /// Cuts a node's network link (the node keeps running, isolated).
    pub fn partition(&mut self, node: u32) {
        self.net.set_partitioned(node, true);
    }

    /// Restores a node's network link.
    pub fn heal(&mut self, node: u32) {
        self.net.set_partitioned(node, false);
    }

    /// Whether the coordinator currently counts the node reachable.
    pub fn is_reachable(&self, node: u32) -> bool {
        self.views[node as usize].unreachable_since.is_none()
    }

    /// The cluster-wide dominant-share monitor (report-fed).
    pub fn monitor(&self) -> &DominantShareMonitor {
        &self.monitor
    }

    /// Runs one reconciliation round: nodes step their schedulers for
    /// `services` slots and report; the coordinator folds delivered
    /// reports, detects losses, re-targets allocations, and pushes grant
    /// updates; nodes apply whatever updates arrive.
    pub fn round(&mut self, services: u64) -> Result<()> {
        self.round += 1;
        let round = self.round;
        self.bus.set_time_us(round as u64 * 1_000);

        // 1. Nodes run and report. A dead node does neither; a
        //    partitioned node's report dies on the link.
        for id in 0..self.nodes.len() {
            self.nodes[id].step(services)?;
            if self.nodes[id].is_alive() {
                let rows = self.nodes[id].report_rows();
                self.net.send_up(
                    round,
                    id as u32,
                    Message::Report {
                        node: id as u32,
                        sent_round: round,
                        rows,
                    },
                );
            }
        }

        // 2. Fold whatever reports arrived.
        for (node, msg) in self.net.deliver_up(round) {
            let Message::Report { rows, .. } = msg else {
                continue;
            };
            self.fold_report(node, round, &rows);
        }

        // 3. Declare nodes that went quiet lost and (under
        //    demand-following) reclaim their allocations.
        self.detect_losses(round);

        // 4. Re-target allocations toward demand.
        if self.policy == BudgetPolicy::DemandFollowing {
            self.rebalance_allocations();
        }

        // 5. Push the full allocation down to every node the coordinator
        //    believes reachable. Idempotent full-sync: a dropped update
        //    is repaired next round, a healed node re-converges without
        //    a special path.
        for node in 0..self.nodes.len() as u32 {
            if self.views[node as usize].unreachable_since.is_some() {
                continue;
            }
            for tenant in 0..self.tenants.len() {
                self.net.send_down(
                    round,
                    node,
                    Message::Grant {
                        tenant: tenant as u32,
                        grant: self.alloc[tenant][node as usize],
                    },
                );
            }
        }

        // 6. Nodes apply whatever grant updates arrived.
        for (node, msg) in self.net.deliver_down(round) {
            let Message::Grant { tenant, grant } = msg else {
                continue;
            };
            self.nodes[node as usize].set_grant(tenant as usize, grant)?;
        }
        Ok(())
    }

    fn fold_report(&mut self, node: u32, round: u32, rows: &[TenantReport]) {
        let view = &mut self.views[node as usize];
        let was_unreachable = view.unreachable_since;
        view.last_heard = round;
        if let Some(since) = was_unreachable {
            let dropped = self.net.dropped(node) - view.dropped_at_mark;
            view.unreachable_since = None;
            self.heals += 1;
            self.bus.emit(|| EventKind::PartitionHeal {
                node,
                rounds: round - since,
                dropped,
            });
        }
        for row in rows {
            let t = row.tenant as usize;
            if t >= self.tenants.len() {
                continue;
            }
            // Demand signal: queued work plus work completed since the
            // last delivered report (cumulative-minus-seen, so drops
            // never lose usage).
            let seen = &mut self.seen_usage[t][node as usize];
            let mut delta_total = 0u64;
            for (r, (&now, last)) in row.usage.iter().zip(seen.iter_mut()).enumerate() {
                let delta = now.saturating_sub(*last);
                if delta > 0 {
                    static RESOURCES: [&str; 4] = ["cpu", "disk", "mem", "net"];
                    self.monitor
                        .record_units(row.tenant, RESOURCES[r], delta as f64);
                }
                delta_total += delta;
                *last = now;
            }
            self.demand[t][node as usize] = row.backlog + delta_total;
            self.bus.emit(|| EventKind::NodeReport {
                node,
                tenant: row.tenant,
                backlog: row.backlog,
                round,
            });
        }
    }

    fn detect_losses(&mut self, round: u32) {
        for node in 0..self.nodes.len() as u32 {
            let view = self.views[node as usize];
            if view.unreachable_since.is_some() {
                continue;
            }
            let silent_for = round.saturating_sub(view.last_heard);
            if silent_for <= LOSS_TIMEOUT_ROUNDS {
                continue;
            }
            self.views[node as usize].unreachable_since = Some(round);
            self.views[node as usize].dropped_at_mark = self.net.dropped(node);
            // A lost node's demand cannot be trusted any more.
            for t in 0..self.tenants.len() {
                self.demand[t][node as usize] = 0;
            }
            if self.policy == BudgetPolicy::DemandFollowing {
                self.reclaim(node);
            }
        }
    }

    /// Reclaims a lost node's allocations, redistributing each tenant's
    /// stake to the survivors by inverse lottery — quantum by quantum,
    /// poorest-favored (Section 6.2's loser-picking, here picking who
    /// *receives*: the fewer tickets a survivor holds, the more likely it
    /// draws the next quantum).
    fn reclaim(&mut self, lost: u32) {
        let survivors: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&n| n != lost && self.views[n as usize].unreachable_since.is_none())
            .collect();
        if survivors.is_empty() {
            return;
        }
        for tenant in 0..self.tenants.len() {
            let mut remaining = self.alloc[tenant][lost as usize];
            if remaining == 0 {
                continue;
            }
            self.alloc[tenant][lost as usize] = 0;
            let quantum = (remaining / RECLAIM_QUANTA).max(1);
            while remaining > 0 {
                let take = quantum.min(remaining);
                let to = if survivors.len() == 1 {
                    survivors[0]
                } else {
                    let entries: Vec<(u32, u64)> = survivors
                        .iter()
                        .map(|&n| (n, self.alloc[tenant][n as usize]))
                        .collect();
                    let i = draw_loser(&entries, &mut self.rng)
                        .or_else(|_| draw_loser_uniform(&entries, &mut self.rng))
                        .expect("two or more survivors");
                    survivors[i]
                };
                self.alloc[tenant][to as usize] += take;
                remaining -= take;
                self.moves += 1;
                self.bus.emit(|| EventKind::GrantMove {
                    tenant: tenant as u32,
                    from_node: lost,
                    to_node: to,
                    amount: take,
                });
            }
        }
    }

    /// Re-targets each tenant's allocation proportional to its demand
    /// signal over reachable nodes, then emits one [`EventKind::GrantMove`]
    /// per (source, sink) pair actually moved. Conservation is by
    /// construction: targets are an exact partition of the grant.
    fn rebalance_allocations(&mut self) {
        let reachable: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| self.views[n].unreachable_since.is_none())
            .collect();
        if reachable.is_empty() {
            return;
        }
        for tenant in 0..self.tenants.len() {
            let grant = self.tenants[tenant].grant;
            let stranded: u64 = (0..self.nodes.len())
                .filter(|n| !reachable.contains(n))
                .map(|n| self.alloc[tenant][n])
                .sum();
            // Only the reachable portion is re-targetable (static never
            // gets here; under demand-following stranded value is zero
            // except in the all-partitioned edge).
            let movable = grant - stranded;
            let signal: Vec<u64> = reachable.iter().map(|&n| self.demand[tenant][n]).collect();
            let total_signal: u64 = signal.iter().sum();
            if total_signal == 0 {
                continue;
            }
            // Integer-exact proportional targets; remainder to the
            // highest-signal node (first on tie).
            let mut targets: Vec<u64> = signal
                .iter()
                .map(|&s| ((movable as u128 * s as u128) / total_signal as u128) as u64)
                .collect();
            let assigned: u64 = targets.iter().sum();
            if let Some(max_at) =
                (0..signal.len()).max_by_key(|&i| (signal[i], std::cmp::Reverse(i)))
            {
                targets[max_at] += movable - assigned;
            }
            // Translate current → target into explicit moves.
            let mut sources: Vec<(usize, u64)> = Vec::new();
            let mut sinks: Vec<(usize, u64)> = Vec::new();
            for (i, &n) in reachable.iter().enumerate() {
                let current = self.alloc[tenant][n];
                match current.cmp(&targets[i]) {
                    std::cmp::Ordering::Greater => sources.push((n, current - targets[i])),
                    std::cmp::Ordering::Less => sinks.push((n, targets[i] - current)),
                    std::cmp::Ordering::Equal => {}
                }
            }
            let mut si = 0;
            for (from, mut surplus) in sources {
                while surplus > 0 && si < sinks.len() {
                    let (to, need) = &mut sinks[si];
                    let take = surplus.min(*need);
                    self.alloc[tenant][from] -= take;
                    self.alloc[tenant][*to] += take;
                    surplus -= take;
                    *need -= take;
                    self.moves += 1;
                    let (tenant_u, from_u, to_u) = (tenant as u32, from as u32, *to as u32);
                    self.bus.emit(|| EventKind::GrantMove {
                        tenant: tenant_u,
                        from_node: from_u,
                        to_node: to_u,
                        amount: take,
                    });
                    if *need == 0 {
                        si += 1;
                    }
                }
            }
        }
    }

    /// Whether every tenant's allocation row sums to its cluster grant.
    pub fn conserved(&self) -> bool {
        self.tenants
            .iter()
            .enumerate()
            .all(|(t, tenant)| self.alloc[t].iter().sum::<u64>() == tenant.grant)
    }

    /// Snapshots the coordinator's view of the whole market.
    pub fn report(&self) -> ClusterReport {
        let total_grant: u64 = self.tenants.iter().map(|t| t.grant).sum();
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, tenant)| ClusterTenantRow {
                tenant: t as u32,
                name: tenant.name.clone(),
                grant: tenant.grant,
                entitled_share: if total_grant > 0 {
                    tenant.grant as f64 / total_grant as f64
                } else {
                    0.0
                },
                usage: self.usage(t),
            })
            .collect();
        let mut allocs = Vec::new();
        for t in 0..self.tenants.len() {
            for n in 0..self.nodes.len() {
                allocs.push(ClusterAllocRow {
                    tenant: t as u32,
                    node: n as u32,
                    alloc: self.alloc[t][n],
                    node_grant: self.nodes[n].grant(t),
                    backlog: self.demand[t][n],
                });
            }
        }
        ClusterReport {
            round: self.round,
            policy: self.policy.name(),
            nodes: self.nodes.len() as u32,
            reachable: (0..self.nodes.len())
                .filter(|&n| self.views[n].unreachable_since.is_none())
                .count() as u32,
            conserved: self.conserved(),
            moves: self.moves,
            heals: self.heals,
            dropped: self.net.dropped_total(),
            tenants,
            allocs,
            shares: self.monitor.report(),
        }
    }
}

/// Reconciliation is a periodic controller: round `r+1` is due one
/// cadence after round `r`'s nominal instant, unconditionally — the
/// coordinator re-syncs even an idle cluster (that is what detects
/// partitions and node loss). A shared event loop jumps straight to it.
impl lottery_sim::event::EventSource for ClusterMarket {
    fn next_due(&self) -> Option<lottery_sim::time::SimTime> {
        Some(lottery_sim::time::SimTime::from_us(
            (u64::from(self.round) + 1) * self.round_period_us,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market(policy: BudgetPolicy) -> ClusterMarket {
        ClusterMarket::new(4, 42, policy, &[("gold", 2000), ("silver", 1000)]).unwrap()
    }

    fn saturate(m: &mut ClusterMarket) {
        for node in 0..4 {
            m.offer(node, 0, 6, 6);
            m.offer(node, 1, 3, 3);
        }
    }

    #[test]
    fn initial_split_is_even_and_conserved() {
        let m = market(BudgetPolicy::DemandFollowing);
        for n in 0..4 {
            assert_eq!(m.alloc(0, n), 500);
            assert_eq!(m.alloc(1, n), 250);
            assert_eq!(m.node(n).grant(0), 500);
            assert_eq!(m.node(n).grant(1), 250);
        }
        assert!(m.conserved());
    }

    #[test]
    fn uneven_grant_remainder_stays_conserved() {
        let m = ClusterMarket::new(3, 1, BudgetPolicy::DemandFollowing, &[("t", 1000)]).unwrap();
        assert_eq!(m.alloc(0, 0) + m.alloc(0, 1) + m.alloc(0, 2), 1000);
        assert!(m.conserved());
    }

    #[test]
    fn demand_following_moves_funding_to_the_backlog() {
        let mut m = market(BudgetPolicy::DemandFollowing);
        // Gold's work all lands on node 0; silver's on node 3.
        for _ in 0..8 {
            m.offer(0, 0, 8, 8);
            m.offer(3, 1, 8, 8);
            m.round(4).unwrap();
        }
        assert!(m.conserved());
        assert!(
            m.alloc(0, 0) > 1500,
            "gold concentrated on node 0: {:?}",
            (0..4).map(|n| m.alloc(0, n)).collect::<Vec<_>>()
        );
        assert!(m.alloc(1, 3) > 750, "silver concentrated on node 3");
        // And the node-side grants follow within link latency.
        assert!(m.node(0).grant(0) > 1500);
    }

    #[test]
    fn static_split_never_moves() {
        let mut m = market(BudgetPolicy::StaticSplit);
        for _ in 0..8 {
            m.offer(0, 0, 8, 8);
            m.offer(3, 1, 8, 8);
            m.round(4).unwrap();
        }
        for n in 0..4 {
            assert_eq!(m.alloc(0, n), 500);
            assert_eq!(m.alloc(1, n), 250);
        }
        assert_eq!(m.moves(), 0);
    }

    #[test]
    fn policy_switch_freezes_allocations_where_they_are() {
        let mut m = market(BudgetPolicy::DemandFollowing);
        for _ in 0..8 {
            m.offer(0, 0, 8, 8);
            m.offer(3, 1, 8, 8);
            m.round(4).unwrap();
        }
        let concentrated: Vec<u64> = (0..4).map(|n| m.alloc(0, n)).collect();
        assert!(concentrated[0] > 1500);
        m.set_policy(BudgetPolicy::StaticSplit);
        for _ in 0..6 {
            saturate(&mut m);
            m.round(4).unwrap();
        }
        let frozen: Vec<u64> = (0..4).map(|n| m.alloc(0, n)).collect();
        assert_eq!(concentrated, frozen);
        assert!(m.conserved());
    }

    #[test]
    fn node_loss_reclaims_within_timeout_and_conserves() {
        let mut m = market(BudgetPolicy::DemandFollowing);
        for _ in 0..4 {
            saturate(&mut m);
            m.round(4).unwrap();
        }
        m.kill(2);
        for _ in 0..(LOSS_TIMEOUT_ROUNDS + 2) {
            saturate(&mut m);
            m.round(4).unwrap();
        }
        assert!(!m.is_reachable(2));
        assert_eq!(m.alloc(0, 2), 0);
        assert_eq!(m.alloc(1, 2), 0);
        assert!(m.conserved());
        assert!(m.moves() > 0);
    }

    #[test]
    fn partition_heals_and_emits() {
        use lottery_obs::{Aggregator, Shared};
        let mut m = market(BudgetPolicy::DemandFollowing);
        let agg = Shared::new(Aggregator::new());
        let bus = ProbeBus::enabled();
        bus.attach(agg.clone());
        m.set_probe_bus(bus);
        for _ in 0..3 {
            saturate(&mut m);
            m.round(4).unwrap();
        }
        m.partition(1);
        for _ in 0..(LOSS_TIMEOUT_ROUNDS + 2) {
            saturate(&mut m);
            m.round(4).unwrap();
        }
        assert!(!m.is_reachable(1));
        m.heal(1);
        for _ in 0..3 {
            saturate(&mut m);
            m.round(4).unwrap();
        }
        assert!(m.is_reachable(1));
        assert!(m.conserved());
        assert_eq!(agg.with(|a| a.partition_heals), 1);
        assert!(agg.with(|a| a.node_reports) > 0);
        assert!(agg.with(|a| a.grant_moves) > 0);
        let report = m.report();
        assert_eq!(report.heals, 1);
        assert!(report.conserved);
    }

    #[test]
    fn report_shapes() {
        let mut m = market(BudgetPolicy::DemandFollowing);
        saturate(&mut m);
        m.round(4).unwrap();
        let r = m.report();
        assert_eq!(r.nodes, 4);
        assert_eq!(r.reachable, 4);
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.allocs.len(), 8);
        assert!(r.conserved);
        assert!((r.tenants[0].entitled_share - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.policy, "demand-following");
    }
}
