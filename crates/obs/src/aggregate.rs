//! Counter/histogram aggregation and the Prometheus-style snapshot.
//!
//! Events are folded as they arrive; the bus's counter tier (the
//! valuation-cache lookups) is scraped from the bus's [`Counters`] block
//! whenever a reader looks through [`crate::Shared::with`], and reads as
//! "since this aggregator was attached".

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use lottery_stats::{Histogram, Summary};

use crate::bus::{Counter, Counters};
use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

/// Folds the event stream into counters and distributions.
///
/// Where the [`crate::FlightRecorder`] answers "what just happened", the
/// aggregator answers "how much, how often, how long" over a whole run —
/// the numbers a `stat` verb or a scrape endpoint reports.
#[derive(Debug)]
pub struct Aggregator {
    /// Lotteries held.
    pub draws: u64,
    /// Ready entries per draw.
    pub draw_entries: Summary,
    /// Search effort per draw (entries scanned / tree levels).
    pub draw_levels: Summary,
    /// Total pool value per draw, in base units.
    pub draw_total: Summary,
    /// Dispatches observed.
    pub dispatches: u64,
    /// Ready-queue wait before dispatch, in microseconds.
    pub dispatch_wait_us: Summary,
    /// Ready-queue wait distribution (0–1 s, 50 buckets).
    pub dispatch_wait_hist: Histogram,
    /// Ready-queue depth after each pick.
    pub queue_depth: Summary,
    /// Per-CPU maximum observed queue depth.
    pub cpu_queue_depth_max: BTreeMap<u32, u32>,
    /// Valuation-cache hits (client and currency lookups together).
    pub cache_hits: u64,
    /// Valuation-cache misses.
    pub cache_misses: u64,
    /// The same lookups split four ways, indexed by `Counter as usize`.
    pub cache_lookups: [u64; Counter::COUNT],
    /// The counter block of the bus attached to last, and what to take off
    /// its totals so counts start at attach and survive a re-attach.
    counters: Option<(Arc<Counters>, [u64; Counter::COUNT])>,
    /// Cached currency entries removed by invalidations.
    pub invalidated_currencies: u64,
    /// Cached client entries removed by invalidations.
    pub invalidated_clients: u64,
    /// Dirty-queue depth after each invalidation.
    pub dirty_depth: Summary,
    /// Clients drained per dirty-queue drain.
    pub dirty_drained: Summary,
    /// Winner-search structure rebuilds observed.
    pub structure_rebuilds: u64,
    /// Wall-clock cost per structure rebuild, in nanoseconds.
    pub structure_rebuild_ns: Summary,
    /// Compensation tickets granted.
    pub compensations: u64,
    /// Compensation tickets revoked (cleared at the next dispatch).
    pub compensation_revocations: u64,
    /// Last observed compensated weight per shard, in base units.
    pub shard_comp_weight: BTreeMap<u32, f64>,
    /// Distributed-lottery picks resolved to a shard.
    pub shard_picks: u64,
    /// Picks that stole from a foreign shard (local tree empty).
    pub shard_steals: u64,
    /// Clients re-homed to another shard.
    pub shard_migrations: u64,
    /// Imbalance-bound violations observed by the rebalancer.
    pub shard_imbalances: u64,
    /// Ledger mutations by operation tag.
    pub ledger_ops: BTreeMap<&'static str, u64>,
    /// Resource-level lottery draws by resource tag.
    pub resource_draws: BTreeMap<&'static str, u64>,
    /// Work units completed by resource tag (sectors, cells).
    pub resource_units: BTreeMap<&'static str, u64>,
    /// Queueing delay per completed resource request, by resource tag, in
    /// the resource's native unit (us for disk, slots for net).
    pub resource_wait: BTreeMap<&'static str, Summary>,
    /// Broker funding updates observed.
    pub broker_fundings: u64,
    /// Broker rebalances that refunded an idle backing to the grant.
    pub broker_refunds: u64,
    /// Last broker-pushed weight per (tenant, resource), in base units.
    pub broker_weight: BTreeMap<(u32, &'static str), f64>,
    /// Cluster node reports delivered to the coordinator.
    pub node_reports: u64,
    /// Cluster grant moves (reconciliation + recovery).
    pub grant_moves: u64,
    /// Base-currency tickets moved between nodes, cumulative.
    pub grant_moved_amount: u64,
    /// Partition/node-loss heals observed.
    pub partition_heals: u64,
    /// Last reported aggregate backlog per (node, tenant).
    pub node_backlog: BTreeMap<(u32, u32), u64>,
}

impl Default for Aggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self {
            draws: 0,
            draw_entries: Summary::new(),
            draw_levels: Summary::new(),
            draw_total: Summary::new(),
            dispatches: 0,
            dispatch_wait_us: Summary::new(),
            dispatch_wait_hist: Histogram::new(0.0, 1_000_000.0, 50),
            queue_depth: Summary::new(),
            cpu_queue_depth_max: BTreeMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_lookups: [0; Counter::COUNT],
            counters: None,
            invalidated_currencies: 0,
            invalidated_clients: 0,
            dirty_depth: Summary::new(),
            dirty_drained: Summary::new(),
            structure_rebuilds: 0,
            structure_rebuild_ns: Summary::new(),
            compensations: 0,
            compensation_revocations: 0,
            shard_comp_weight: BTreeMap::new(),
            shard_picks: 0,
            shard_steals: 0,
            shard_migrations: 0,
            shard_imbalances: 0,
            ledger_ops: BTreeMap::new(),
            resource_draws: BTreeMap::new(),
            resource_units: BTreeMap::new(),
            resource_wait: BTreeMap::new(),
            broker_fundings: 0,
            broker_refunds: 0,
            broker_weight: BTreeMap::new(),
            node_reports: 0,
            grant_moves: 0,
            grant_moved_amount: 0,
            partition_heals: 0,
            node_backlog: BTreeMap::new(),
        }
    }

    /// Cache hit rate in `[0, 1]`, or `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Renders the counters in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut counter = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter("lottery_draws_total", "Lotteries held.", self.draws as f64);
        counter(
            "lottery_dispatches_total",
            "Threads dispatched.",
            self.dispatches as f64,
        );
        counter(
            "lottery_cache_hits_total",
            "Valuation-cache hits.",
            self.cache_hits as f64,
        );
        counter(
            "lottery_cache_misses_total",
            "Valuation-cache misses.",
            self.cache_misses as f64,
        );
        counter(
            "lottery_cache_invalidated_currencies_total",
            "Cached currency values invalidated.",
            self.invalidated_currencies as f64,
        );
        counter(
            "lottery_cache_invalidated_clients_total",
            "Cached client values invalidated.",
            self.invalidated_clients as f64,
        );
        counter(
            "lottery_structure_rebuilds_total",
            "Winner-search structure rebuilds.",
            self.structure_rebuilds as f64,
        );
        counter(
            "lottery_compensations_total",
            "Compensation tickets granted.",
            self.compensations as f64,
        );
        counter(
            "lottery_compensation_revocations_total",
            "Compensation tickets revoked at dispatch.",
            self.compensation_revocations as f64,
        );
        counter(
            "lottery_shard_picks_total",
            "Distributed-lottery picks resolved to a shard.",
            self.shard_picks as f64,
        );
        counter(
            "lottery_shard_steals_total",
            "Picks that stole from a foreign shard.",
            self.shard_steals as f64,
        );
        counter(
            "lottery_shard_migrations_total",
            "Clients re-homed to another shard.",
            self.shard_migrations as f64,
        );
        counter(
            "lottery_shard_imbalances_total",
            "Imbalance-bound violations observed.",
            self.shard_imbalances as f64,
        );
        counter(
            "lottery_broker_fundings_total",
            "Broker funding updates observed.",
            self.broker_fundings as f64,
        );
        counter(
            "lottery_broker_refunds_total",
            "Broker rebalances that refunded an idle backing.",
            self.broker_refunds as f64,
        );
        counter(
            "lottery_cluster_node_reports_total",
            "Cluster node reports delivered to the coordinator.",
            self.node_reports as f64,
        );
        counter(
            "lottery_cluster_grant_moves_total",
            "Cluster grant moves between nodes.",
            self.grant_moves as f64,
        );
        counter(
            "lottery_cluster_grant_moved_tickets_total",
            "Base-currency tickets moved between nodes.",
            self.grant_moved_amount as f64,
        );
        counter(
            "lottery_cluster_partition_heals_total",
            "Partition/node-loss heals observed.",
            self.partition_heals as f64,
        );
        let _ = writeln!(
            out,
            "# HELP lottery_cache_lookups_total Valuation-cache lookups by kind and result."
        );
        let _ = writeln!(out, "# TYPE lottery_cache_lookups_total counter");
        for (counter, kind, result) in [
            (Counter::ClientHit, "client", "hit"),
            (Counter::ClientMiss, "client", "miss"),
            (Counter::CurrencyHit, "currency", "hit"),
            (Counter::CurrencyMiss, "currency", "miss"),
        ] {
            let _ = writeln!(
                out,
                "lottery_cache_lookups_total{{kind=\"{kind}\",result=\"{result}\"}} {}",
                self.cache_lookups[counter as usize]
            );
        }
        let _ = writeln!(
            out,
            "# HELP lottery_ledger_ops_total Ledger mutations by operation."
        );
        let _ = writeln!(out, "# TYPE lottery_ledger_ops_total counter");
        for (op, count) in &self.ledger_ops {
            let _ = writeln!(out, "lottery_ledger_ops_total{{op=\"{op}\"}} {count}");
        }
        let _ = writeln!(
            out,
            "# HELP lottery_resource_draws_total Resource-level lottery draws by resource."
        );
        let _ = writeln!(out, "# TYPE lottery_resource_draws_total counter");
        for (resource, count) in &self.resource_draws {
            let _ = writeln!(
                out,
                "lottery_resource_draws_total{{resource=\"{resource}\"}} {count}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP lottery_resource_units_total Work units completed by resource."
        );
        let _ = writeln!(out, "# TYPE lottery_resource_units_total counter");
        for (resource, count) in &self.resource_units {
            let _ = writeln!(
                out,
                "lottery_resource_units_total{{resource=\"{resource}\"}} {count}"
            );
        }
        let mut gauge = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "lottery_draw_entries_mean",
            "Mean ready entries per draw.",
            self.draw_entries.mean(),
        );
        gauge(
            "lottery_draw_levels_mean",
            "Mean search effort per draw (entries scanned or tree levels).",
            self.draw_levels.mean(),
        );
        gauge(
            "lottery_dispatch_wait_us_mean",
            "Mean ready-queue wait before dispatch (us).",
            self.dispatch_wait_us.mean(),
        );
        gauge(
            "lottery_dispatch_wait_us_p99",
            "p99 ready-queue wait before dispatch (us).",
            self.dispatch_wait_hist.percentile(0.99).unwrap_or(0.0),
        );
        gauge(
            "lottery_queue_depth_mean",
            "Mean ready-queue depth after pick.",
            self.queue_depth.mean(),
        );
        gauge(
            "lottery_dirty_depth_mean",
            "Mean dirty-queue depth after invalidation.",
            self.dirty_depth.mean(),
        );
        gauge(
            "lottery_structure_rebuild_ns_mean",
            "Mean wall-clock cost per structure rebuild (ns).",
            self.structure_rebuild_ns.mean(),
        );
        gauge(
            "lottery_cache_hit_rate",
            "Valuation-cache hit rate.",
            self.cache_hit_rate().unwrap_or(0.0),
        );
        let _ = writeln!(
            out,
            "# HELP lottery_cpu_queue_depth_max Max observed per-CPU queue depth."
        );
        let _ = writeln!(out, "# TYPE lottery_cpu_queue_depth_max gauge");
        for (cpu, depth) in &self.cpu_queue_depth_max {
            let _ = writeln!(out, "lottery_cpu_queue_depth_max{{cpu=\"{cpu}\"}} {depth}");
        }
        let _ = writeln!(
            out,
            "# HELP lottery_compensation_weight Compensated weight homed per shard (base units)."
        );
        let _ = writeln!(out, "# TYPE lottery_compensation_weight gauge");
        for (shard, weight) in &self.shard_comp_weight {
            let _ = writeln!(
                out,
                "lottery_compensation_weight{{shard=\"{shard}\"}} {weight}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP lottery_resource_wait_mean Mean queueing delay per resource (native unit)."
        );
        let _ = writeln!(out, "# TYPE lottery_resource_wait_mean gauge");
        for (resource, wait) in &self.resource_wait {
            let _ = writeln!(
                out,
                "lottery_resource_wait_mean{{resource=\"{resource}\"}} {}",
                wait.mean()
            );
        }
        let _ = writeln!(
            out,
            "# HELP lottery_broker_weight Last broker-pushed weight per tenant and resource."
        );
        let _ = writeln!(out, "# TYPE lottery_broker_weight gauge");
        for ((tenant, resource), weight) in &self.broker_weight {
            let _ = writeln!(
                out,
                "lottery_broker_weight{{tenant=\"{tenant}\",resource=\"{resource}\"}} {weight}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP lottery_cluster_node_backlog Last reported aggregate backlog per node and tenant."
        );
        let _ = writeln!(out, "# TYPE lottery_cluster_node_backlog gauge");
        for ((node, tenant), backlog) in &self.node_backlog {
            let _ = writeln!(
                out,
                "lottery_cluster_node_backlog{{node=\"{node}\",tenant=\"{tenant}\"}} {backlog}"
            );
        }
        out
    }
}

impl Recorder for Aggregator {
    fn record(&mut self, event: &Event) {
        match event.kind {
            EventKind::Dispatch {
                wait_us,
                queue_depth,
                cpu,
                ..
            } => {
                self.dispatches += 1;
                self.dispatch_wait_us.record(wait_us as f64);
                self.dispatch_wait_hist.record(wait_us as f64);
                self.queue_depth.record(queue_depth as f64);
                let max = self.cpu_queue_depth_max.entry(cpu).or_insert(0);
                *max = (*max).max(queue_depth);
            }
            EventKind::LotteryDraw {
                entries,
                levels,
                total,
                ..
            } => {
                self.draws += 1;
                self.draw_entries.record(entries as f64);
                self.draw_levels.record(levels as f64);
                self.draw_total.record(total);
            }
            EventKind::Compensation { .. } => self.compensations += 1,
            EventKind::CompensationRevoked { .. } => self.compensation_revocations += 1,
            EventKind::ShardCompensation { shard, weight, .. } => {
                self.shard_comp_weight.insert(shard, weight);
            }
            EventKind::LedgerOp { op } => *self.ledger_ops.entry(op).or_insert(0) += 1,
            EventKind::CacheInvalidate {
                currencies,
                clients,
                dirty_depth,
            } => {
                self.invalidated_currencies += currencies as u64;
                self.invalidated_clients += clients as u64;
                self.dirty_depth.record(dirty_depth as f64);
            }
            EventKind::DirtyDrain { drained } => self.dirty_drained.record(drained as f64),
            // Batched drains feed the same depth statistic: one batch of
            // `depth` clients is the same revaluation work as `depth`
            // notifications drained singly.
            EventKind::DirtyBatch { depth, .. } => self.dirty_drained.record(depth as f64),
            EventKind::StructureRebuild { rebuild_ns, .. } => {
                self.structure_rebuilds += 1;
                self.structure_rebuild_ns.record(rebuild_ns as f64);
            }
            EventKind::ShardPick { stolen, .. } => {
                self.shard_picks += 1;
                self.shard_steals += u64::from(stolen);
            }
            EventKind::ShardSteal { .. } => {}
            EventKind::ShardMigrate { .. } => self.shard_migrations += 1,
            EventKind::ShardImbalance { .. } => self.shard_imbalances += 1,
            EventKind::ResourceGrant { .. } => {}
            EventKind::ResourceDraw { resource, .. } => {
                *self.resource_draws.entry(resource).or_insert(0) += 1;
            }
            EventKind::ResourceComplete {
                resource,
                units,
                wait,
                ..
            } => {
                *self.resource_units.entry(resource).or_insert(0) += units;
                self.resource_wait
                    .entry(resource)
                    .or_default()
                    .record(wait as f64);
            }
            EventKind::BrokerFunding {
                tenant,
                resource,
                weight,
                refunded,
            } => {
                self.broker_fundings += 1;
                self.broker_refunds += u64::from(refunded);
                self.broker_weight.insert((tenant, resource), weight);
            }
            EventKind::NodeReport {
                node,
                tenant,
                backlog,
                ..
            } => {
                self.node_reports += 1;
                self.node_backlog.insert((node, tenant), backlog);
            }
            EventKind::GrantMove { amount, .. } => {
                self.grant_moves += 1;
                self.grant_moved_amount += amount;
            }
            EventKind::PartitionHeal { .. } => self.partition_heals += 1,
            EventKind::ThreadSpawn { .. }
            | EventKind::ThreadExit { .. }
            | EventKind::WeightChange { .. }
            | EventKind::QuantumEnd { .. }
            | EventKind::Wake { .. }
            | EventKind::RpcDeliver { .. }
            | EventKind::RpcReply { .. } => {}
        }
    }

    fn attached(&mut self, counters: &Arc<Counters>) {
        // Fold the previous bus's last counts in, then start the new block
        // from them: `now - base` continues where the old bus stopped.
        self.refresh();
        let base = counters.snapshot();
        let base = std::array::from_fn(|i| base[i].wrapping_sub(self.cache_lookups[i]));
        self.counters = Some((Arc::clone(counters), base));
    }

    fn refresh(&mut self) {
        if let Some((counters, base)) = &self.counters {
            let now = counters.snapshot();
            self.cache_lookups = std::array::from_fn(|i| now[i].wrapping_sub(base[i]));
            let of = |c: Counter| self.cache_lookups[c as usize];
            self.cache_hits = of(Counter::ClientHit) + of(Counter::CurrencyHit);
            self.cache_misses = of(Counter::ClientMiss) + of(Counter::CurrencyMiss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_counters_and_snapshot_renders() {
        let mut a = Aggregator::new();
        let feed = [
            EventKind::Dispatch {
                thread: 0,
                cpu: 0,
                wait_us: 100,
                queue_depth: 3,
            },
            EventKind::LotteryDraw {
                structure: "list",
                entries: 4,
                levels: 2,
                total: 1000.0,
                winning: 1.0,
                winner: 0,
            },
            EventKind::CacheInvalidate {
                currencies: 2,
                clients: 1,
                dirty_depth: 1,
            },
            EventKind::LedgerOp { op: "fund-client" },
            EventKind::LedgerOp { op: "fund-client" },
            EventKind::Compensation {
                thread: 0,
                factor: 2.0,
                shard: 1,
            },
            EventKind::CompensationRevoked {
                thread: 0,
                shard: 1,
            },
            EventKind::ShardCompensation {
                shard: 1,
                weight: 250.0,
                total: 1250.0,
            },
            EventKind::ResourceDraw {
                resource: "disk",
                client: 0,
                entries: 2,
                total: 750,
            },
            EventKind::ResourceComplete {
                resource: "disk",
                client: 0,
                units: 16,
                wait: 900,
            },
            EventKind::BrokerFunding {
                tenant: 0,
                resource: "disk",
                weight: 500.0,
                refunded: false,
            },
            EventKind::BrokerFunding {
                tenant: 1,
                resource: "net",
                weight: 0.0,
                refunded: true,
            },
            EventKind::StructureRebuild {
                structure: "alias",
                clients: 1000,
                stale: 130,
                rebuild_ns: 5000,
            },
            EventKind::NodeReport {
                node: 2,
                tenant: 0,
                backlog: 40,
                round: 3,
            },
            EventKind::GrantMove {
                tenant: 0,
                from_node: 1,
                to_node: 2,
                amount: 250,
            },
            EventKind::PartitionHeal {
                node: 1,
                rounds: 4,
                dropped: 7,
            },
        ];
        for kind in feed {
            a.record(&Event { time_us: 0, kind });
        }
        assert_eq!(a.dispatches, 1);
        assert_eq!(a.draws, 1);
        assert_eq!(a.cache_hit_rate(), None);
        assert_eq!(a.invalidated_currencies, 2);
        assert_eq!(a.ledger_ops.get("fund-client"), Some(&2));
        let text = a.prometheus_text();
        assert!(text.contains("lottery_draws_total 1"));
        assert!(text.contains("lottery_ledger_ops_total{op=\"fund-client\"} 2"));
        assert_eq!(a.compensations, 1);
        assert_eq!(a.compensation_revocations, 1);
        assert!(text.contains("lottery_compensation_revocations_total 1"));
        assert!(text.contains("lottery_compensation_weight{shard=\"1\"} 250"));
        assert_eq!(a.resource_draws.get("disk"), Some(&1));
        assert_eq!(a.resource_units.get("disk"), Some(&16));
        assert_eq!(a.broker_fundings, 2);
        assert_eq!(a.broker_refunds, 1);
        assert!(text.contains("lottery_resource_draws_total{resource=\"disk\"} 1"));
        assert!(text.contains("lottery_resource_units_total{resource=\"disk\"} 16"));
        assert!(text.contains("lottery_resource_wait_mean{resource=\"disk\"} 900"));
        assert!(text.contains("lottery_broker_weight{tenant=\"0\",resource=\"disk\"} 500"));
        assert!(text.contains("lottery_broker_refunds_total 1"));
        assert_eq!(a.structure_rebuilds, 1);
        assert!(text.contains("lottery_structure_rebuilds_total 1"));
        assert!(text.contains("lottery_structure_rebuild_ns_mean 5000"));
        assert_eq!(a.node_reports, 1);
        assert_eq!(a.grant_moves, 1);
        assert_eq!(a.grant_moved_amount, 250);
        assert_eq!(a.partition_heals, 1);
        assert!(text.contains("lottery_cluster_grant_moves_total 1"));
        assert!(text.contains("lottery_cluster_node_backlog{node=\"2\",tenant=\"0\"} 40"));
    }

    #[test]
    fn cache_counters_read_since_attach_and_survive_a_reattach() {
        use crate::{ProbeBus, Shared};

        let bus = ProbeBus::enabled();
        for _ in 0..10 {
            bus.count(Counter::ClientMiss);
        }
        let a = Shared::new(Aggregator::new());
        let b = Shared::new(Aggregator::new());
        bus.attach(a.clone());
        bus.attach(b.clone());
        assert_eq!(a.with(|a| (a.cache_hits, a.cache_misses)), (0, 0));
        let counts = [
            (Counter::ClientHit, 3),
            (Counter::ClientMiss, 1),
            (Counter::CurrencyHit, 2),
            (Counter::CurrencyMiss, 4),
        ];
        for (counter, n) in counts {
            for _ in 0..n {
                bus.count(counter);
            }
        }
        let read =
            |s: &Shared<Aggregator>| s.with(|a| (a.cache_hits, a.cache_misses, a.cache_lookups));
        assert_eq!(read(&a), (5, 5, [3, 1, 2, 4]));
        assert_eq!(read(&a), read(&b));
        let text = a.with(|a| a.prometheus_text());
        assert!(text.contains("lottery_cache_hits_total 5\n"));
        assert!(text.contains("lottery_cache_hit_rate 0.5\n"));
        assert!(text.contains("lottery_cache_lookups_total{kind=\"client\",result=\"hit\"} 3\n"));
        assert!(text.contains("lottery_cache_lookups_total{kind=\"currency\",result=\"miss\"} 4\n"));

        // lotteryctl swaps its bus to toggle tracing: counts carry over,
        // and the old bus no longer feeds the aggregator.
        let next = ProbeBus::enabled();
        next.count(Counter::CurrencyHit);
        next.attach(a.clone());
        next.count(Counter::CurrencyMiss);
        bus.count(Counter::ClientHit);
        assert_eq!(read(&a), (5, 6, [3, 1, 2, 5]));
        assert_eq!(read(&b), (6, 5, [4, 1, 2, 4]));
    }
}
