//! Counter/histogram aggregation and the Prometheus-style snapshot.
//!
//! Events are folded as they arrive; the bus's counter tier (the
//! valuation-cache lookups) is scraped from the bus's [`Counters`] block
//! whenever a reader looks through [`crate::Shared::with`], and reads as
//! "since this aggregator was attached".
//!
//! Each metric is one row of the `metrics!` table: its Prometheus kind,
//! name, labels and help text, and the field that holds it (the help text
//! is also the field's doc). [`Aggregator`], its constructor and all of
//! [`Aggregator::prometheus_text`] are generated from the table, so the
//! fold in [`Recorder::record`] is the only other place a metric is named,
//! and nothing is folded that the exposition does not show.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::Arc;

use lottery_stats::{Histogram, Summary};

use crate::bus::{Counter, Counters};
use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

/// Generates [`Aggregator`] and its text exposition from the metric table.
///
/// A row is `kind name {labels} "help"`, then the field that holds the
/// metric (`, field: Type = initial`), then optionally `=> |a| samples`:
/// an expression over the aggregator printed in place of the field, for a
/// derived value or a field that is not itself a [`Samples`]. A row
/// without a field must have the expression. Doc comments on the field
/// extend its doc. Rows print in table order.
macro_rules! metrics {
    ($(
        $kind:ident $name:ident $({ $($label:ident),* })? $help:literal
        $(, $(#[$doc:meta])* $field:ident: $ty:ty = $init:expr)?
        $(=> |$a:ident| $samples:expr)?;
    )*) => {
        /// Folds the event stream into counters and distributions.
        ///
        /// Where the [`crate::FlightRecorder`] answers "what just happened", the
        /// aggregator answers "how much, how often, how long" over a whole run —
        /// the numbers a `stat` verb or a scrape endpoint reports.
        #[derive(Debug)]
        pub struct Aggregator {
            $($(
                #[doc = $help]
                $(#[$doc])*
                pub $field: $ty,
            )?)*
            /// The counter block of the bus attached to last, and what to take off
            /// its totals so counts start at attach and survive a re-attach.
            counters: Option<(Arc<Counters>, [u64; Counter::COUNT])>,
        }

        impl Aggregator {
            /// Creates an empty aggregator.
            pub fn new() -> Self {
                Self {
                    $($($field: $init,)?)*
                    counters: None,
                }
            }

            /// Renders the metrics in the Prometheus text exposition format.
            pub fn prometheus_text(&self) -> String {
                let mut out = String::with_capacity(1024);
                $(write_family(
                    &mut out,
                    stringify!($name),
                    $help,
                    stringify!($kind),
                    &[$($(stringify!($label)),*)?],
                    metrics!(@samples self, [$($field)?] [$($a $samples)?]),
                );)*
                out
            }
        }
    };
    (@samples $agg:ident, [$field:ident] []) => {
        &$agg.$field
    };
    (@samples $agg:ident, [$($field:ident)?] [$a:ident $samples:expr]) => {
        &{
            let $a: &Aggregator = $agg;
            $samples
        }
    };
}

metrics! {
    counter lottery_draws_total "Lotteries held.", draws: u64 = 0;
    counter lottery_dispatches_total "Threads dispatched.", dispatches: u64 = 0;
    counter lottery_cache_hits_total "Valuation-cache hits.", cache_hits: u64 = 0;
    counter lottery_cache_misses_total "Valuation-cache misses.", cache_misses: u64 = 0;
    counter lottery_cache_invalidated_currencies_total "Cached currency values invalidated.",
        invalidated_currencies: u64 = 0;
    counter lottery_cache_invalidated_clients_total "Cached client values invalidated.",
        invalidated_clients: u64 = 0;
    counter lottery_structure_rebuilds_total "Winner-search structure rebuilds.",
        structure_rebuilds: u64 = 0;
    counter lottery_compensations_total "Compensation tickets granted.", compensations: u64 = 0;
    counter lottery_compensation_revocations_total "Compensation tickets revoked at dispatch.",
        compensation_revocations: u64 = 0;
    counter lottery_shard_picks_total "Distributed-lottery picks resolved to a shard.",
        shard_picks: u64 = 0;
    counter lottery_shard_steals_total "Picks that stole from a foreign shard.",
        shard_steals: u64 = 0;
    counter lottery_shard_migrations_total "Clients re-homed to another shard.",
        shard_migrations: u64 = 0;
    counter lottery_shard_imbalances_total "Imbalance-bound violations observed.",
        shard_imbalances: u64 = 0;
    counter lottery_broker_fundings_total "Broker funding updates observed.",
        broker_fundings: u64 = 0;
    counter lottery_broker_refunds_total "Broker rebalances that refunded an idle backing.",
        broker_refunds: u64 = 0;
    counter lottery_cluster_node_reports_total "Cluster node reports delivered to the coordinator.",
        node_reports: u64 = 0;
    counter lottery_cluster_grant_moves_total "Cluster grant moves between nodes.",
        grant_moves: u64 = 0;
    counter lottery_cluster_grant_moved_tickets_total "Base-currency tickets moved between nodes.",
        grant_moved_amount: u64 = 0;
    counter lottery_cluster_partition_heals_total "Partition/node-loss heals observed.",
        partition_heals: u64 = 0;
    counter lottery_cache_lookups_total {kind, result} "Valuation-cache lookups by kind and result.",
        /// Indexed by `Counter as usize`.
        cache_lookups: [u64; Counter::COUNT] = [0; Counter::COUNT]
        => |a| BTreeMap::from([
            (("client", "hit"), a.cache_lookups[Counter::ClientHit as usize]),
            (("client", "miss"), a.cache_lookups[Counter::ClientMiss as usize]),
            (("currency", "hit"), a.cache_lookups[Counter::CurrencyHit as usize]),
            (("currency", "miss"), a.cache_lookups[Counter::CurrencyMiss as usize]),
        ]);
    counter lottery_ledger_ops_total {op} "Ledger mutations by operation.",
        ledger_ops: BTreeMap<&'static str, u64> = BTreeMap::new();
    counter lottery_resource_draws_total {resource} "Resource-level lottery draws by resource.",
        resource_draws: BTreeMap<&'static str, u64> = BTreeMap::new();
    counter lottery_resource_units_total {resource} "Work units completed by resource.",
        resource_units: BTreeMap<&'static str, u64> = BTreeMap::new();
    gauge lottery_draw_entries_mean "Mean ready entries per draw.",
        draw_entries: Summary = Summary::new();
    gauge lottery_draw_levels_mean "Mean search effort per draw (entries scanned or tree levels).",
        draw_levels: Summary = Summary::new();
    gauge lottery_dispatch_wait_us_mean "Mean ready-queue wait before dispatch (us).",
        dispatch_wait_us: Summary = Summary::new();
    gauge lottery_dispatch_wait_us_p99 "p99 ready-queue wait before dispatch (us).",
        /// The distribution is kept over 0–1 s in 50 buckets.
        dispatch_wait_hist: Histogram = Histogram::new(0.0, 1_000_000.0, 50)
        => |a| a.dispatch_wait_hist.percentile(0.99).unwrap_or(0.0);
    gauge lottery_queue_depth_mean "Mean ready-queue depth after pick.",
        queue_depth: Summary = Summary::new();
    gauge lottery_dirty_depth_mean "Mean dirty-queue depth after invalidation.",
        dirty_depth: Summary = Summary::new();
    gauge lottery_structure_rebuild_ns_mean "Mean wall-clock cost per structure rebuild (ns).",
        structure_rebuild_ns: Summary = Summary::new();
    gauge lottery_cache_hit_rate "Valuation-cache hit rate."
        => |a| a.cache_hit_rate().unwrap_or(0.0);
    gauge lottery_cpu_queue_depth_max {cpu} "Max observed per-CPU queue depth.",
        cpu_queue_depth_max: BTreeMap<u32, u32> = BTreeMap::new();
    gauge lottery_compensation_weight {shard} "Compensated weight homed per shard (base units).",
        shard_comp_weight: BTreeMap<u32, f64> = BTreeMap::new();
    gauge lottery_resource_wait_mean {resource} "Mean queueing delay per resource (native unit).",
        /// The unit is the resource's own: us for disk, slots for net.
        resource_wait: BTreeMap<&'static str, Summary> = BTreeMap::new();
    gauge lottery_broker_weight {tenant, resource} "Last broker-pushed weight per tenant and resource.",
        broker_weight: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
    gauge lottery_cluster_node_backlog {node, tenant} "Last reported aggregate backlog per node and tenant.",
        node_backlog: BTreeMap<(u32, u32), u64> = BTreeMap::new();
}

impl Default for Aggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl Aggregator {
    /// Cache hit rate in `[0, 1]`, or `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// Writes one metric family: its `# HELP` and `# TYPE` lines, then a line
/// per sample, its label values paired with `labels` in order.
fn write_family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    labels: &[&str],
    samples: &dyn Samples,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    samples.each(&mut |values, value| {
        out.push_str(name);
        for (i, (label, v)) in labels.iter().zip(values).enumerate() {
            let _ = write!(out, "{}{label}=\"{v}\"", if i == 0 { '{' } else { ',' });
        }
        if !values.is_empty() {
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    });
}

/// Takes one sample: its label values and its value.
type Sink<'s> = &'s mut dyn FnMut(&[&dyn Display], &dyn Display);

/// What a row prints: a count or a level as one unlabelled sample, a
/// distribution as its mean, a map as one sample per entry labelled by its
/// key.
trait Samples {
    fn each(&self, sink: Sink);
}

/// A map key as the label values of its sample.
trait Labels {
    fn with(&self, f: &mut dyn FnMut(&[&dyn Display]));
}

/// Types that print as they are, as a value or as a label.
macro_rules! plain {
    ($($t:ty),*) => {$(
        impl Samples for $t {
            fn each(&self, sink: Sink) {
                sink(&[], self)
            }
        }
        impl Labels for $t {
            fn with(&self, f: &mut dyn FnMut(&[&dyn Display])) {
                f(&[self])
            }
        }
    )*};
}

plain!(u64, u32, f64, &str);

impl Samples for Summary {
    fn each(&self, sink: Sink) {
        sink(&[], &self.mean())
    }
}

impl<A: Display, B: Display> Labels for (A, B) {
    fn with(&self, f: &mut dyn FnMut(&[&dyn Display])) {
        f(&[&self.0, &self.1])
    }
}

impl<K: Labels, V: Samples> Samples for BTreeMap<K, V> {
    fn each(&self, sink: Sink) {
        for (key, value) in self {
            key.with(&mut |labels| value.each(&mut |_, v| sink(labels, v)));
        }
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
                entries, levels, ..
            } => {
                self.draws += 1;
                self.draw_entries.record(entries as f64);
                self.draw_levels.record(levels as f64);
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
            | EventKind::DirtyDrain { .. }
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

    /// An aggregator fed a fixed stream that gives every metric family at
    /// least one non-zero sample, cache counters included.
    fn reaching_every_row() -> String {
        use crate::{ProbeBus, Shared};

        let bus = ProbeBus::enabled();
        let a = Shared::new(Aggregator::new());
        bus.attach(a.clone());
        let feed = [
            EventKind::Dispatch {
                thread: 0,
                cpu: 0,
                wait_us: 100,
                queue_depth: 3,
            },
            EventKind::Dispatch {
                thread: 1,
                cpu: 2,
                wait_us: 250,
                queue_depth: 6,
            },
            EventKind::LotteryDraw {
                structure: "tree",
                entries: 7,
                levels: 3,
                total: 1000.0,
                winning: 1.0,
                winner: 0,
            },
            EventKind::CacheInvalidate {
                currencies: 2,
                clients: 1,
                dirty_depth: 5,
            },
            EventKind::DirtyDrain { drained: 5 },
            EventKind::StructureRebuild {
                structure: "alias",
                clients: 1000,
                stale: 130,
                rebuild_ns: 4500,
            },
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
                weight: 250.5,
                total: 1250.0,
            },
            EventKind::ShardPick {
                cpu: 0,
                shard: 1,
                stolen: false,
            },
            EventKind::ShardPick {
                cpu: 1,
                shard: 0,
                stolen: true,
            },
            EventKind::ShardMigrate {
                thread: 1,
                from_shard: 0,
                to_shard: 1,
            },
            EventKind::ShardImbalance {
                max_total: 900.0,
                mean_total: 600.0,
            },
            EventKind::LedgerOp { op: "fund-client" },
            EventKind::LedgerOp { op: "fund-client" },
            EventKind::LedgerOp { op: "move-ticket" },
            EventKind::ResourceDraw {
                resource: "disk",
                client: 0,
                entries: 2,
                total: 750,
            },
            EventKind::ResourceDraw {
                resource: "net",
                client: 1,
                entries: 2,
                total: 750,
            },
            EventKind::ResourceComplete {
                resource: "disk",
                client: 0,
                units: 16,
                wait: 900,
            },
            EventKind::ResourceComplete {
                resource: "disk",
                client: 1,
                units: 8,
                wait: 300,
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
            bus.emit(|| kind);
        }
        let counts = [
            (Counter::ClientHit, 4),
            (Counter::ClientMiss, 1),
            (Counter::CurrencyHit, 2),
            (Counter::CurrencyMiss, 3),
        ];
        for (counter, n) in counts {
            for _ in 0..n {
                bus.count(counter);
            }
        }
        a.with(|a| a.prometheus_text())
    }

    /// Every family is a `# HELP` line, its `# TYPE` line, then samples of
    /// that family only; no family appears twice.
    fn assert_well_formed(text: &str) {
        let mut families = std::collections::BTreeSet::new();
        let mut lines = text.lines().peekable();
        while let Some(help) = lines.next() {
            let name = help
                .strip_prefix("# HELP ")
                .and_then(|rest| rest.split(' ').next())
                .unwrap_or_else(|| panic!("expected a HELP line, got {help:?}"));
            let kind = lines.next().and_then(|l| l.strip_prefix("# TYPE "));
            let kind = kind.and_then(|k| k.strip_prefix(name)).unwrap_or_default();
            assert!(
                kind == " counter" || kind == " gauge",
                "{name}: its TYPE line must follow HELP"
            );
            assert!(families.insert(name), "{name} is declared twice");
            while let Some(sample) = lines.next_if(|l| !l.starts_with('#')) {
                let rest = sample.strip_prefix(name).unwrap_or_default();
                assert!(
                    rest.starts_with(' ') || rest.starts_with('{'),
                    "{sample:?} is not a sample of {name}"
                );
            }
        }
    }

    /// The exposition of a stream reaching every row: well formed, and
    /// byte-for-byte the text the hand-written exposition printed before
    /// the metric table generated it.
    #[test]
    fn exposition_is_well_formed_and_pinned() {
        let text = reaching_every_row();
        assert_well_formed(&text);
        assert_eq!(text, include_str!("../tests/data/prometheus_every_row.txt"));
    }
}
