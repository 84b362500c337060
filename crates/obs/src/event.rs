//! The structured event schema shared by every probe point.
//!
//! Events reference threads and clients by raw index (the schedulers'
//! `ThreadId::index()` / arena slots) and describe enums with `'static`
//! string tags, keeping this crate free of upward type dependencies. The
//! JSONL wire format is one object per event:
//!
//! ```json
//! {"t_us":100000,"kind":"dispatch","thread":2,"cpu":0,"wait_us":300000,"queue_depth":3}
//! ```

use std::fmt::Write as _;

use crate::json;

/// A timestamped probe event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time of the event, in microseconds.
    pub time_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Every probe point in the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A thread was registered with the kernel.
    ThreadSpawn {
        /// Thread index.
        thread: u32,
    },
    /// A thread left the system for good: its workload issued an exit
    /// burst, or it was killed from outside. Together with
    /// [`EventKind::ThreadSpawn`] this brackets a thread's lifetime, so a
    /// captured window carries enough to recompute per-job response
    /// times (and to replay the window without consulting the kernel).
    ThreadExit {
        /// Thread index.
        thread: u32,
    },
    /// A thread was dispatched onto a CPU.
    Dispatch {
        /// Thread index.
        thread: u32,
        /// CPU index (0 on the uniprocessor kernel).
        cpu: u32,
        /// Ready-queue wait before this dispatch, in microseconds.
        wait_us: u64,
        /// Ready-queue depth immediately after the pick.
        queue_depth: u32,
    },
    /// A dispatch ended.
    QuantumEnd {
        /// Thread index.
        thread: u32,
        /// CPU index.
        cpu: u32,
        /// `"quantum-expired"`, `"yielded"`, `"blocked"`, or `"exited"`.
        reason: &'static str,
        /// CPU time consumed during the dispatch, in microseconds.
        used_us: u64,
    },
    /// A blocked thread became ready.
    Wake {
        /// Thread index.
        thread: u32,
    },
    /// A synchronous request was delivered to a server thread.
    RpcDeliver {
        /// The blocked client thread.
        client: u32,
        /// The server thread now working on its behalf.
        server: u32,
    },
    /// A reply completed an RPC.
    RpcReply {
        /// The client thread being woken.
        client: u32,
        /// The server thread that served it.
        server: u32,
    },
    /// One lottery was held (Figure 1 / Section 4.2).
    LotteryDraw {
        /// `"list"` or `"tree"`.
        structure: &'static str,
        /// Ready entries participating.
        entries: u32,
        /// Search effort: entries scanned (list) or tree depth (tree).
        levels: u32,
        /// Total base-unit value in the pool.
        total: f64,
        /// The winning value drawn in `[0, total)`; `-1` when the pool was
        /// worthless and the pick degenerated to FIFO (no number drawn).
        winning: f64,
        /// The winning thread index.
        winner: u32,
    },
    /// A compensation ticket was granted (Section 4.5).
    Compensation {
        /// Thread index.
        thread: u32,
        /// The multiplicative factor `q/used` now inflating the client.
        factor: f64,
        /// The shard (CPU) the grant is attributed to — the client's home
        /// shard at grant time, so traces can localize compensation churn.
        shard: u32,
    },
    /// A compensation ticket was revoked (the client won its next lottery
    /// and used a full quantum's worth of attention).
    CompensationRevoked {
        /// Thread index.
        thread: u32,
        /// The shard (CPU) that was carrying the compensated weight.
        shard: u32,
    },
    /// A per-shard compensation-weight sample (emitted when the
    /// distributed rebalancer compares effective shard totals).
    ShardCompensation {
        /// Shard index.
        shard: u32,
        /// Compensated weight homed on the shard, in base units.
        weight: f64,
        /// The shard's effective total (ready tree + resting compensated
        /// weight), in base units.
        total: f64,
    },
    /// A ledger mutation (the audit log of Section 4.3 operations).
    LedgerOp {
        /// Operation tag, e.g. `"fund-client"`.
        op: &'static str,
    },
    /// A scheduler client's direct funding changed, with the mutation's
    /// origin. [`EventKind::LedgerOp`] records *that* the ledger moved;
    /// this records *who asked*, which is what an audit needs when a
    /// tenant disputes their share — and what a replay needs to tell
    /// scripted inflation apart from spawn-time funding.
    WeightChange {
        /// Client index (the scheduler's arena slot).
        client: u32,
        /// The new direct funding amount, in tickets of the funding
        /// currency.
        tickets: u64,
        /// Mutation origin: `"spawn"` (initial funding) or
        /// `"set-funding"` (a runtime inflation/deflation request).
        origin: &'static str,
    },
    /// A mutation invalidated part of the valuation cache.
    CacheInvalidate {
        /// Cached currency entries removed.
        currencies: u32,
        /// Cached client entries removed.
        clients: u32,
        /// Dirty-queue depth after the invalidation.
        dirty_depth: u32,
    },
    /// The scheduler drained the dirty-client queue before a draw.
    DirtyDrain {
        /// Clients drained.
        drained: u32,
    },
    /// A scheduler drained one shard's dirty queue in a single batch at a
    /// dispatch point (the event-driven core's once-per-dispatch drain,
    /// rather than a per-client walk).
    DirtyBatch {
        /// The dirty-queue shard drained.
        shard: u32,
        /// Clients revalued by the batch.
        depth: u32,
    },
    /// A winner-search structure was (re)built wholesale — the alias
    /// table snapshotting its prefix sums, or a tree/list repopulated by
    /// a runtime structure switch.
    StructureRebuild {
        /// `"list"`, `"tree"`, or `"alias"`.
        structure: &'static str,
        /// Entries captured by the rebuild.
        clients: u32,
        /// Stale slots folded in (0 for list/tree).
        stale: u32,
        /// Wall-clock rebuild cost in nanoseconds.
        rebuild_ns: u64,
    },
    /// A distributed lottery resolved a CPU's pick to a shard.
    ShardPick {
        /// CPU index that held the lottery.
        cpu: u32,
        /// Shard whose tree the winner was drawn from.
        shard: u32,
        /// Whether the pick stole from a foreign shard (local was empty).
        stolen: bool,
    },
    /// A CPU with an empty local tree stole work from another shard.
    ShardSteal {
        /// The stealing CPU.
        cpu: u32,
        /// The shard stolen from (the heaviest at the time).
        victim: u32,
        /// The thread taken.
        thread: u32,
    },
    /// A client was re-homed to another shard (rebalancing or explicit).
    ShardMigrate {
        /// The migrated thread.
        thread: u32,
        /// Previous home shard.
        from_shard: u32,
        /// New home shard.
        to_shard: u32,
    },
    /// Per-shard ticket weight drifted past the imbalance bound.
    ShardImbalance {
        /// Heaviest shard's total ticket value, in base units.
        max_total: f64,
        /// Mean per-shard total ticket value, in base units.
        mean_total: f64,
    },
    /// A non-CPU resource scheduler granted (or re-priced) a client's
    /// ticket allocation — disk clients, switch circuits, memory clients,
    /// or broker-pushed weights.
    ResourceGrant {
        /// `"cpu"`, `"disk"`, `"mem"`, or `"net"`.
        resource: &'static str,
        /// Scheduler-local client index (disk client, circuit, frame
        /// client — each resource numbers its own clients from zero).
        client: u32,
        /// The granted ticket count.
        tickets: u64,
    },
    /// A resource-level lottery picked a client for one service slot.
    ResourceDraw {
        /// `"disk"` or `"net"` (CPU draws keep [`EventKind::LotteryDraw`]).
        resource: &'static str,
        /// The winning scheduler-local client index.
        client: u32,
        /// Contending entries in this draw's pool.
        entries: u32,
        /// Total tickets in the pool.
        total: u64,
    },
    /// A resource request finished service.
    ResourceComplete {
        /// `"disk"` or `"net"`.
        resource: &'static str,
        /// The served scheduler-local client index.
        client: u32,
        /// Work completed, in the resource's unit (sectors, cells).
        units: u64,
        /// Queueing delay in the resource's native unit: microseconds for
        /// disk requests, slots for switch cells.
        wait: u64,
    },
    /// The broker (re)priced one tenant's backing for one resource.
    BrokerFunding {
        /// Broker tenant index.
        tenant: u32,
        /// `"cpu"`, `"disk"`, `"mem"`, or `"net"`.
        resource: &'static str,
        /// The effective weight now funding the resource, in base units.
        weight: f64,
        /// Whether this rebalance refunded the (idle) backing to the grant.
        refunded: bool,
    },
    /// A cluster node's periodic report reached the market coordinator
    /// over the simulated network: one tenant's aggregate demand on one
    /// node, as the reconciliation loop saw it.
    NodeReport {
        /// Reporting node index.
        node: u32,
        /// Cluster tenant index.
        tenant: u32,
        /// Aggregate backlog (demand units summed over resources) the
        /// node reported for the tenant.
        backlog: u64,
        /// The network round (coordinator reconciliation tick) the report
        /// was delivered in — late reports carry the round they land in,
        /// not the round they were sent.
        round: u32,
    },
    /// Cluster reconciliation moved part of a tenant's grant between
    /// nodes (demand-following rebalance or node-loss recovery).
    GrantMove {
        /// Cluster tenant index.
        tenant: u32,
        /// Node the funding left.
        from_node: u32,
        /// Node the funding arrived at.
        to_node: u32,
        /// Base-currency tickets moved.
        amount: u64,
    },
    /// A partitioned (or lost-and-replaced) node was reabsorbed into the
    /// market and the coordinator's funding view reconverged.
    PartitionHeal {
        /// The healed node index.
        node: u32,
        /// Reconciliation rounds the node spent unreachable.
        rounds: u32,
        /// Reports dropped by the network while it was unreachable.
        dropped: u64,
    },
}

impl EventKind {
    /// The event's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ThreadSpawn { .. } => "spawn",
            EventKind::ThreadExit { .. } => "thread-exit",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::QuantumEnd { .. } => "quantum-end",
            EventKind::Wake { .. } => "wake",
            EventKind::RpcDeliver { .. } => "rpc-deliver",
            EventKind::RpcReply { .. } => "rpc-reply",
            EventKind::LotteryDraw { .. } => "lottery-draw",
            EventKind::Compensation { .. } => "compensation",
            EventKind::CompensationRevoked { .. } => "compensation-revoked",
            EventKind::ShardCompensation { .. } => "shard-compensation",
            EventKind::LedgerOp { .. } => "ledger-op",
            EventKind::WeightChange { .. } => "weight-change",
            EventKind::CacheInvalidate { .. } => "cache-invalidate",
            EventKind::DirtyDrain { .. } => "dirty-drain",
            EventKind::DirtyBatch { .. } => "dirty-batch",
            EventKind::StructureRebuild { .. } => "structure-rebuild",
            EventKind::ShardPick { .. } => "shard-pick",
            EventKind::ShardSteal { .. } => "shard-steal",
            EventKind::ShardMigrate { .. } => "shard-migrate",
            EventKind::ShardImbalance { .. } => "shard-imbalance",
            EventKind::ResourceGrant { .. } => "resource-grant",
            EventKind::ResourceDraw { .. } => "resource-draw",
            EventKind::ResourceComplete { .. } => "resource-complete",
            EventKind::BrokerFunding { .. } => "broker-funding",
            EventKind::NodeReport { .. } => "node-report",
            EventKind::GrantMove { .. } => "grant-move",
            EventKind::PartitionHeal { .. } => "partition-heal",
        }
    }
}

impl Event {
    /// Serializes the event as one JSON object (the JSONL record format).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t_us\":{},\"kind\":\"{}\"",
            self.time_us,
            self.kind.name()
        );
        match self.kind {
            EventKind::ThreadSpawn { thread }
            | EventKind::ThreadExit { thread }
            | EventKind::Wake { thread } => {
                let _ = write!(s, ",\"thread\":{thread}");
            }
            EventKind::Dispatch {
                thread,
                cpu,
                wait_us,
                queue_depth,
            } => {
                let _ = write!(
                    s,
                    ",\"thread\":{thread},\"cpu\":{cpu},\"wait_us\":{wait_us},\"queue_depth\":{queue_depth}"
                );
            }
            EventKind::QuantumEnd {
                thread,
                cpu,
                reason,
                used_us,
            } => {
                let _ = write!(
                    s,
                    ",\"thread\":{thread},\"cpu\":{cpu},\"reason\":\"{reason}\",\"used_us\":{used_us}"
                );
            }
            EventKind::RpcDeliver { client, server } | EventKind::RpcReply { client, server } => {
                let _ = write!(s, ",\"client\":{client},\"server\":{server}");
            }
            EventKind::LotteryDraw {
                structure,
                entries,
                levels,
                total,
                winning,
                winner,
            } => {
                let _ = write!(
                    s,
                    ",\"structure\":\"{structure}\",\"entries\":{entries},\"levels\":{levels},\"total\":{},\"winning\":{},\"winner\":{winner}",
                    json::number(total),
                    json::number(winning)
                );
            }
            EventKind::Compensation {
                thread,
                factor,
                shard,
            } => {
                let _ = write!(
                    s,
                    ",\"thread\":{thread},\"factor\":{},\"shard\":{shard}",
                    json::number(factor)
                );
            }
            EventKind::CompensationRevoked { thread, shard } => {
                let _ = write!(s, ",\"thread\":{thread},\"shard\":{shard}");
            }
            EventKind::ShardCompensation {
                shard,
                weight,
                total,
            } => {
                let _ = write!(
                    s,
                    ",\"shard\":{shard},\"weight\":{},\"total\":{}",
                    json::number(weight),
                    json::number(total)
                );
            }
            EventKind::LedgerOp { op } => {
                let _ = write!(s, ",\"op\":\"{op}\"");
            }
            EventKind::WeightChange {
                client,
                tickets,
                origin,
            } => {
                let _ = write!(
                    s,
                    ",\"client\":{client},\"tickets\":{tickets},\"origin\":\"{origin}\""
                );
            }
            EventKind::CacheInvalidate {
                currencies,
                clients,
                dirty_depth,
            } => {
                let _ = write!(
                    s,
                    ",\"currencies\":{currencies},\"clients\":{clients},\"dirty_depth\":{dirty_depth}"
                );
            }
            EventKind::DirtyDrain { drained } => {
                let _ = write!(s, ",\"drained\":{drained}");
            }
            EventKind::DirtyBatch { shard, depth } => {
                let _ = write!(s, ",\"shard\":{shard},\"depth\":{depth}");
            }
            EventKind::StructureRebuild {
                structure,
                clients,
                stale,
                rebuild_ns,
            } => {
                let _ = write!(
                    s,
                    ",\"structure\":\"{structure}\",\"clients\":{clients},\"stale\":{stale},\"rebuild_ns\":{rebuild_ns}"
                );
            }
            EventKind::ShardPick { cpu, shard, stolen } => {
                let _ = write!(s, ",\"cpu\":{cpu},\"shard\":{shard},\"stolen\":{stolen}");
            }
            EventKind::ShardSteal {
                cpu,
                victim,
                thread,
            } => {
                let _ = write!(s, ",\"cpu\":{cpu},\"victim\":{victim},\"thread\":{thread}");
            }
            EventKind::ShardMigrate {
                thread,
                from_shard,
                to_shard,
            } => {
                let _ = write!(
                    s,
                    ",\"thread\":{thread},\"from_shard\":{from_shard},\"to_shard\":{to_shard}"
                );
            }
            EventKind::ShardImbalance {
                max_total,
                mean_total,
            } => {
                let _ = write!(
                    s,
                    ",\"max_total\":{},\"mean_total\":{}",
                    json::number(max_total),
                    json::number(mean_total)
                );
            }
            EventKind::ResourceGrant {
                resource,
                client,
                tickets,
            } => {
                let _ = write!(
                    s,
                    ",\"resource\":\"{resource}\",\"client\":{client},\"tickets\":{tickets}"
                );
            }
            EventKind::ResourceDraw {
                resource,
                client,
                entries,
                total,
            } => {
                let _ = write!(
                    s,
                    ",\"resource\":\"{resource}\",\"client\":{client},\"entries\":{entries},\"total\":{total}"
                );
            }
            EventKind::ResourceComplete {
                resource,
                client,
                units,
                wait,
            } => {
                let _ = write!(
                    s,
                    ",\"resource\":\"{resource}\",\"client\":{client},\"units\":{units},\"wait\":{wait}"
                );
            }
            EventKind::BrokerFunding {
                tenant,
                resource,
                weight,
                refunded,
            } => {
                let _ = write!(
                    s,
                    ",\"tenant\":{tenant},\"resource\":\"{resource}\",\"weight\":{},\"refunded\":{refunded}",
                    json::number(weight)
                );
            }
            EventKind::NodeReport {
                node,
                tenant,
                backlog,
                round,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"tenant\":{tenant},\"backlog\":{backlog},\"round\":{round}"
                );
            }
            EventKind::GrantMove {
                tenant,
                from_node,
                to_node,
                amount,
            } => {
                let _ = write!(
                    s,
                    ",\"tenant\":{tenant},\"from_node\":{from_node},\"to_node\":{to_node},\"amount\":{amount}"
                );
            }
            EventKind::PartitionHeal {
                node,
                rounds,
                dropped,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"rounds\":{rounds},\"dropped\":{dropped}"
                );
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL record back into a typed event — the inverse of
    /// [`Event::to_json`], used to load replay logs.
    ///
    /// String tags are interned against the known wire vocabulary so the
    /// parsed event carries the same `&'static str` values the emitters
    /// use and compares equal to the original. An unknown kind, an
    /// unknown tag, or a missing field is an error: the replay log is an
    /// audit artifact, and a record we cannot faithfully reconstruct
    /// must not silently round-trip.
    pub fn from_json(v: &json::Value) -> Result<Event, String> {
        let time_us = u64_field(v, "t_us")?;
        let kind_name = str_field(v, "kind")?;
        let kind = match kind_name {
            "spawn" => EventKind::ThreadSpawn {
                thread: u32_field(v, "thread")?,
            },
            "thread-exit" => EventKind::ThreadExit {
                thread: u32_field(v, "thread")?,
            },
            "dispatch" => EventKind::Dispatch {
                thread: u32_field(v, "thread")?,
                cpu: u32_field(v, "cpu")?,
                wait_us: u64_field(v, "wait_us")?,
                queue_depth: u32_field(v, "queue_depth")?,
            },
            "quantum-end" => EventKind::QuantumEnd {
                thread: u32_field(v, "thread")?,
                cpu: u32_field(v, "cpu")?,
                reason: intern(v, "reason", END_REASONS)?,
                used_us: u64_field(v, "used_us")?,
            },
            "wake" => EventKind::Wake {
                thread: u32_field(v, "thread")?,
            },
            "rpc-deliver" => EventKind::RpcDeliver {
                client: u32_field(v, "client")?,
                server: u32_field(v, "server")?,
            },
            "rpc-reply" => EventKind::RpcReply {
                client: u32_field(v, "client")?,
                server: u32_field(v, "server")?,
            },
            "lottery-draw" => EventKind::LotteryDraw {
                structure: intern(v, "structure", STRUCTURES)?,
                entries: u32_field(v, "entries")?,
                levels: u32_field(v, "levels")?,
                total: f64_field(v, "total")?,
                winning: f64_field(v, "winning")?,
                winner: u32_field(v, "winner")?,
            },
            "compensation" => EventKind::Compensation {
                thread: u32_field(v, "thread")?,
                factor: f64_field(v, "factor")?,
                shard: u32_field(v, "shard")?,
            },
            "compensation-revoked" => EventKind::CompensationRevoked {
                thread: u32_field(v, "thread")?,
                shard: u32_field(v, "shard")?,
            },
            "shard-compensation" => EventKind::ShardCompensation {
                shard: u32_field(v, "shard")?,
                weight: f64_field(v, "weight")?,
                total: f64_field(v, "total")?,
            },
            "ledger-op" => EventKind::LedgerOp {
                op: intern(v, "op", LEDGER_OPS)?,
            },
            "weight-change" => EventKind::WeightChange {
                client: u32_field(v, "client")?,
                tickets: u64_field(v, "tickets")?,
                origin: intern(v, "origin", WEIGHT_ORIGINS)?,
            },
            "cache-invalidate" => EventKind::CacheInvalidate {
                currencies: u32_field(v, "currencies")?,
                clients: u32_field(v, "clients")?,
                dirty_depth: u32_field(v, "dirty_depth")?,
            },
            "dirty-drain" => EventKind::DirtyDrain {
                drained: u32_field(v, "drained")?,
            },
            "dirty-batch" => EventKind::DirtyBatch {
                shard: u32_field(v, "shard")?,
                depth: u32_field(v, "depth")?,
            },
            "structure-rebuild" => EventKind::StructureRebuild {
                structure: intern(v, "structure", STRUCTURES)?,
                clients: u32_field(v, "clients")?,
                stale: u32_field(v, "stale")?,
                rebuild_ns: u64_field(v, "rebuild_ns")?,
            },
            "shard-pick" => EventKind::ShardPick {
                cpu: u32_field(v, "cpu")?,
                shard: u32_field(v, "shard")?,
                stolen: bool_field(v, "stolen")?,
            },
            "shard-steal" => EventKind::ShardSteal {
                cpu: u32_field(v, "cpu")?,
                victim: u32_field(v, "victim")?,
                thread: u32_field(v, "thread")?,
            },
            "shard-migrate" => EventKind::ShardMigrate {
                thread: u32_field(v, "thread")?,
                from_shard: u32_field(v, "from_shard")?,
                to_shard: u32_field(v, "to_shard")?,
            },
            "shard-imbalance" => EventKind::ShardImbalance {
                max_total: f64_field(v, "max_total")?,
                mean_total: f64_field(v, "mean_total")?,
            },
            "resource-grant" => EventKind::ResourceGrant {
                resource: intern(v, "resource", RESOURCES)?,
                client: u32_field(v, "client")?,
                tickets: u64_field(v, "tickets")?,
            },
            "resource-draw" => EventKind::ResourceDraw {
                resource: intern(v, "resource", RESOURCES)?,
                client: u32_field(v, "client")?,
                entries: u32_field(v, "entries")?,
                total: u64_field(v, "total")?,
            },
            "resource-complete" => EventKind::ResourceComplete {
                resource: intern(v, "resource", RESOURCES)?,
                client: u32_field(v, "client")?,
                units: u64_field(v, "units")?,
                wait: u64_field(v, "wait")?,
            },
            "broker-funding" => EventKind::BrokerFunding {
                tenant: u32_field(v, "tenant")?,
                resource: intern(v, "resource", RESOURCES)?,
                weight: f64_field(v, "weight")?,
                refunded: bool_field(v, "refunded")?,
            },
            "node-report" => EventKind::NodeReport {
                node: u32_field(v, "node")?,
                tenant: u32_field(v, "tenant")?,
                backlog: u64_field(v, "backlog")?,
                round: u32_field(v, "round")?,
            },
            "grant-move" => EventKind::GrantMove {
                tenant: u32_field(v, "tenant")?,
                from_node: u32_field(v, "from_node")?,
                to_node: u32_field(v, "to_node")?,
                amount: u64_field(v, "amount")?,
            },
            "partition-heal" => EventKind::PartitionHeal {
                node: u32_field(v, "node")?,
                rounds: u32_field(v, "rounds")?,
                dropped: u64_field(v, "dropped")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(Event { time_us, kind })
    }
}

/// Winner-search structure tags: the uniprocessor structures plus the
/// distributed lottery's per-shard rebuild tags.
const STRUCTURES: &[&str] = &["list", "tree", "alias", "shard", "shard-alias"];
/// Quantum-end reasons (`EndReason::as_str` values).
const END_REASONS: &[&str] = &["quantum-expired", "yielded", "blocked", "exited"];
/// Ledger audit-log operation tags.
const LEDGER_OPS: &[&str] = &[
    "activate-client",
    "create-client",
    "create-currency",
    "deactivate-client",
    "destroy-client",
    "destroy-currency",
    "destroy-ticket",
    "fund-client",
    "fund-currency",
    "issue",
    "set-amount",
    "set-compensation",
    "unfund",
];
/// Resource tags shared by grants, draws, completions, and the broker.
const RESOURCES: &[&str] = &["cpu", "disk", "mem", "net"];
/// Weight-mutation origins.
const WEIGHT_ORIGINS: &[&str] = &["spawn", "set-funding"];

fn field<'v>(v: &'v json::Value, name: &str) -> Result<&'v json::Value, String> {
    v.get(name).ok_or_else(|| format!("missing field {name:?}"))
}

fn str_field<'v>(v: &'v json::Value, name: &str) -> Result<&'v str, String> {
    field(v, name)?
        .as_str()
        .ok_or_else(|| format!("field {name:?} is not a string"))
}

fn f64_field(v: &json::Value, name: &str) -> Result<f64, String> {
    field(v, name)?
        .as_f64()
        .ok_or_else(|| format!("field {name:?} is not a number"))
}

fn u64_field(v: &json::Value, name: &str) -> Result<u64, String> {
    let n = f64_field(v, name)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("field {name:?} is not a non-negative integer"));
    }
    Ok(n as u64)
}

fn u32_field(v: &json::Value, name: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, name)?).map_err(|_| format!("field {name:?} overflows u32"))
}

fn bool_field(v: &json::Value, name: &str) -> Result<bool, String> {
    field(v, name)?
        .as_bool()
        .ok_or_else(|| format!("field {name:?} is not a boolean"))
}

fn intern(v: &json::Value, name: &str, known: &[&'static str]) -> Result<&'static str, String> {
    let s = str_field(v, name)?;
    known
        .iter()
        .copied()
        .find(|k| *k == s)
        .ok_or_else(|| format!("unknown {name} tag {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_records_parse_back() {
        let events = [
            Event {
                time_us: 100,
                kind: EventKind::Dispatch {
                    thread: 2,
                    cpu: 0,
                    wait_us: 300,
                    queue_depth: 3,
                },
            },
            Event {
                time_us: 200,
                kind: EventKind::LotteryDraw {
                    structure: "tree",
                    entries: 4,
                    levels: 2,
                    total: 1000.0,
                    winning: 431.25,
                    winner: 1,
                },
            },
            Event {
                time_us: 300,
                kind: EventKind::CacheInvalidate {
                    currencies: 1,
                    clients: 2,
                    dirty_depth: 2,
                },
            },
            Event {
                time_us: 400,
                kind: EventKind::Compensation {
                    thread: 3,
                    factor: 4.0,
                    shard: 1,
                },
            },
            Event {
                time_us: 500,
                kind: EventKind::CompensationRevoked {
                    thread: 3,
                    shard: 1,
                },
            },
            Event {
                time_us: 600,
                kind: EventKind::ShardCompensation {
                    shard: 2,
                    weight: 300.0,
                    total: 1100.0,
                },
            },
            Event {
                time_us: 700,
                kind: EventKind::ResourceGrant {
                    resource: "disk",
                    client: 1,
                    tickets: 500,
                },
            },
            Event {
                time_us: 800,
                kind: EventKind::ResourceDraw {
                    resource: "net",
                    client: 0,
                    entries: 3,
                    total: 750,
                },
            },
            Event {
                time_us: 900,
                kind: EventKind::ResourceComplete {
                    resource: "disk",
                    client: 1,
                    units: 16,
                    wait: 4200,
                },
            },
            Event {
                time_us: 1000,
                kind: EventKind::BrokerFunding {
                    tenant: 0,
                    resource: "mem",
                    weight: 333.25,
                    refunded: false,
                },
            },
            Event {
                time_us: 1100,
                kind: EventKind::StructureRebuild {
                    structure: "alias",
                    clients: 1_000_000,
                    stale: 125_000,
                    rebuild_ns: 4_200_000,
                },
            },
        ];
        for e in events {
            let v = json::parse(&e.to_json()).expect("event JSON parses");
            assert_eq!(
                v.get("t_us").and_then(json::Value::as_f64),
                Some(e.time_us as f64)
            );
            assert_eq!(
                v.get("kind").and_then(json::Value::as_str),
                Some(e.kind.name())
            );
        }
    }

    /// One exemplar per `EventKind` variant, with awkward field values
    /// (non-integral floats, zero, large counters) so serialization slip
    /// in any replay-critical field fails loudly.
    fn one_of_each() -> Vec<Event> {
        let kinds = vec![
            EventKind::ThreadSpawn { thread: 7 },
            EventKind::ThreadExit { thread: 7 },
            EventKind::Dispatch {
                thread: 2,
                cpu: 1,
                wait_us: 300,
                queue_depth: 3,
            },
            EventKind::QuantumEnd {
                thread: 2,
                cpu: 1,
                reason: "blocked",
                used_us: 25_000,
            },
            EventKind::Wake { thread: 4 },
            EventKind::RpcDeliver {
                client: 1,
                server: 2,
            },
            EventKind::RpcReply {
                client: 1,
                server: 2,
            },
            EventKind::LotteryDraw {
                structure: "alias",
                entries: 5,
                levels: 3,
                total: 700.0,
                winning: 431.2578125,
                winner: 4,
            },
            EventKind::Compensation {
                thread: 3,
                factor: 4.0,
                shard: 1,
            },
            EventKind::CompensationRevoked {
                thread: 3,
                shard: 1,
            },
            EventKind::ShardCompensation {
                shard: 2,
                weight: 300.5,
                total: 1100.25,
            },
            EventKind::LedgerOp { op: "fund-client" },
            EventKind::WeightChange {
                client: 9,
                tickets: 400,
                origin: "set-funding",
            },
            EventKind::CacheInvalidate {
                currencies: 2,
                clients: 5,
                dirty_depth: 7,
            },
            EventKind::DirtyDrain { drained: 12 },
            EventKind::DirtyBatch { shard: 1, depth: 6 },
            EventKind::StructureRebuild {
                structure: "alias",
                clients: 1_000_000,
                stale: 125_000,
                rebuild_ns: 4_200_000,
            },
            EventKind::ShardPick {
                cpu: 0,
                shard: 2,
                stolen: true,
            },
            EventKind::ShardSteal {
                cpu: 0,
                victim: 2,
                thread: 11,
            },
            EventKind::ShardMigrate {
                thread: 11,
                from_shard: 2,
                to_shard: 0,
            },
            EventKind::ShardImbalance {
                max_total: 900.125,
                mean_total: 600.0,
            },
            EventKind::ResourceGrant {
                resource: "disk",
                client: 1,
                tickets: 500,
            },
            EventKind::ResourceDraw {
                resource: "net",
                client: 0,
                entries: 3,
                total: 750,
            },
            EventKind::ResourceComplete {
                resource: "disk",
                client: 1,
                units: 16,
                wait: 4200,
            },
            EventKind::BrokerFunding {
                tenant: 0,
                resource: "mem",
                weight: 333.25,
                refunded: false,
            },
            EventKind::NodeReport {
                node: 3,
                tenant: 1,
                backlog: 1_000_000,
                round: 42,
            },
            EventKind::GrantMove {
                tenant: 1,
                from_node: 3,
                to_node: 0,
                amount: 750,
            },
            EventKind::PartitionHeal {
                node: 3,
                rounds: 6,
                dropped: 18,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                time_us: 100 * (i as u64 + 1),
                kind,
            })
            .collect()
    }

    /// Every variant survives serialize → `json::parse` → `from_json`
    /// with every field bit-exact — the contract replay loading rests on.
    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let events = one_of_each();
        // A compile-time nudge: adding a variant must extend `one_of_each`.
        // (match is exhaustive over EventKind, so a new variant fails here)
        for e in &events {
            match e.kind {
                EventKind::ThreadSpawn { .. }
                | EventKind::ThreadExit { .. }
                | EventKind::Dispatch { .. }
                | EventKind::QuantumEnd { .. }
                | EventKind::Wake { .. }
                | EventKind::RpcDeliver { .. }
                | EventKind::RpcReply { .. }
                | EventKind::LotteryDraw { .. }
                | EventKind::Compensation { .. }
                | EventKind::CompensationRevoked { .. }
                | EventKind::ShardCompensation { .. }
                | EventKind::LedgerOp { .. }
                | EventKind::WeightChange { .. }
                | EventKind::CacheInvalidate { .. }
                | EventKind::DirtyDrain { .. }
                | EventKind::DirtyBatch { .. }
                | EventKind::StructureRebuild { .. }
                | EventKind::ShardPick { .. }
                | EventKind::ShardSteal { .. }
                | EventKind::ShardMigrate { .. }
                | EventKind::ShardImbalance { .. }
                | EventKind::ResourceGrant { .. }
                | EventKind::ResourceDraw { .. }
                | EventKind::ResourceComplete { .. }
                | EventKind::BrokerFunding { .. }
                | EventKind::NodeReport { .. }
                | EventKind::GrantMove { .. }
                | EventKind::PartitionHeal { .. } => {}
            }
        }
        for e in events {
            let line = e.to_json();
            let v = json::parse(&line).expect("event JSON parses");
            let back = Event::from_json(&v)
                .unwrap_or_else(|err| panic!("{} does not parse back: {err}", e.kind.name()));
            assert_eq!(back, e, "round-trip of {} altered a field", e.kind.name());
        }
    }

    #[test]
    fn from_json_rejects_unknown_kind_and_tags() {
        let bad_kind = json::parse(r#"{"t_us":1,"kind":"no-such-event"}"#).unwrap();
        assert!(Event::from_json(&bad_kind).is_err());
        let bad_tag = json::parse(
            r#"{"t_us":1,"kind":"quantum-end","thread":0,"cpu":0,"reason":"meteor","used_us":1}"#,
        )
        .unwrap();
        assert!(Event::from_json(&bad_tag).is_err());
        let missing = json::parse(r#"{"t_us":1,"kind":"dispatch","thread":0,"cpu":0}"#).unwrap();
        assert!(Event::from_json(&missing).is_err());
    }

    #[test]
    fn degenerate_draw_marks_winning_negative() {
        let e = Event {
            time_us: 0,
            kind: EventKind::LotteryDraw {
                structure: "list",
                entries: 2,
                levels: 1,
                total: 0.0,
                winning: -1.0,
                winner: 0,
            },
        };
        let v = json::parse(&e.to_json()).unwrap();
        assert_eq!(v.get("winning").and_then(json::Value::as_f64), Some(-1.0));
    }
}
