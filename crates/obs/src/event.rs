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
//!
//! **The table below is the schema.** Each kind is stated once in the
//! `event_schema!` invocation — variant, wire name, fields in wire order
//! with their types — and [`EventKind`], [`EventKind::name`],
//! [`EventKind::NAMES`], [`Event::to_json`] and [`Event::from_json`] are
//! all expanded from it. Adding a probe is one table entry plus its emit
//! site (and a sample in the test module's `one_of_each`, which the
//! coverage test demands); a new `&'static str` tag field names the
//! vocabulary its values are interned against (`= RESOURCES`, …), and a
//! new tag value joins that vocabulary.
//!
//! Fields are written and read by the small codec at the bottom of the
//! file (`Put` / `Get`), which `replay.rs` uses for its headers too.
//! Integers travel through [`json::Value`]'s `f64`, so the codec refuses
//! one it cannot read back exactly (2^53 and above) rather than round it.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// A timestamped probe event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time of the event, in microseconds.
    pub time_us: u64,
    /// What happened.
    pub kind: EventKind,
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

/// Reads one table field: a plain field through [`Get`], a tag field
/// (`= VOCABULARY` in the table) by interning against that vocabulary.
macro_rules! read_field {
    ($obj:ident, $name:expr) => {
        member($obj, $name)?
    };
    ($obj:ident, $name:expr, $vocab:ident) => {
        tag($obj, $name, $vocab)?
    };
}

/// Expands the schema table into [`EventKind`] and everything that must
/// agree with it. An entry is the variant's rustdoc, then
/// `Variant = "wire-name" { field: type, … }` with each field's rustdoc
/// above it and the fields in wire order; a `&'static str` field adds
/// `= VOCABULARY`.
macro_rules! event_schema {
    ($(
        $(#[$variant_doc:meta])*
        $variant:ident = $wire:literal {$(
            $(#[$field_doc:meta])*
            $field:ident: $ty:ty $(= $vocab:ident)?,
        )*}
    )*) => {
        /// Every probe point in the stack.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum EventKind {$(
            $(#[$variant_doc])*
            $variant {$(
                $(#[$field_doc])*
                $field: $ty,
            )*},
        )*}

        impl EventKind {
            /// The wire name of every kind, in schema order.
            pub const NAMES: &'static [&'static str] = &[$($wire),*];

            /// The event's wire name.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $wire,)*
                }
            }

            /// Appends the kind's fields as `,"field":value` members.
            fn put_fields(&self, out: &mut String) {
                match self {
                    $(EventKind::$variant { $($field),* } => {
                        $(put_member(out, stringify!($field), $field);)*
                    })*
                }
            }

            /// Reads the fields of the kind called `name` from `obj`.
            fn get_fields(name: &str, obj: &Value) -> Result<EventKind, String> {
                match name {
                    $($wire => Ok(EventKind::$variant {
                        $($field: read_field!(obj, stringify!($field) $(, $vocab)?),)*
                    }),)*
                    other => Err(format!("unknown event kind {other:?}")),
                }
            }
        }
    };
}

event_schema! {
    /// A thread was registered with the kernel.
    ThreadSpawn = "spawn" {
        /// Thread index.
        thread: u32,
    }
    /// A thread left the system for good: its workload issued an exit
    /// burst, or it was killed from outside. Together with
    /// [`EventKind::ThreadSpawn`] this brackets a thread's lifetime, so a
    /// captured window carries enough to recompute per-job response
    /// times (and to replay the window without consulting the kernel).
    ThreadExit = "thread-exit" {
        /// Thread index.
        thread: u32,
    }
    /// A thread was dispatched onto a CPU.
    Dispatch = "dispatch" {
        /// Thread index.
        thread: u32,
        /// CPU index (0 on the uniprocessor kernel).
        cpu: u32,
        /// Ready-queue wait before this dispatch, in microseconds.
        wait_us: u64,
        /// Ready-queue depth immediately after the pick.
        queue_depth: u32,
    }
    /// A dispatch ended.
    QuantumEnd = "quantum-end" {
        /// Thread index.
        thread: u32,
        /// CPU index.
        cpu: u32,
        /// `"quantum-expired"`, `"yielded"`, `"blocked"`, or `"exited"`.
        reason: &'static str = END_REASONS,
        /// CPU time consumed during the dispatch, in microseconds.
        used_us: u64,
    }
    /// A blocked thread became ready.
    Wake = "wake" {
        /// Thread index.
        thread: u32,
    }
    /// A synchronous request was delivered to a server thread.
    RpcDeliver = "rpc-deliver" {
        /// The blocked client thread.
        client: u32,
        /// The server thread now working on its behalf.
        server: u32,
    }
    /// A reply completed an RPC.
    RpcReply = "rpc-reply" {
        /// The client thread being woken.
        client: u32,
        /// The server thread that served it.
        server: u32,
    }
    /// One lottery was held (Figure 1 / Section 4.2).
    LotteryDraw = "lottery-draw" {
        /// `"list"` or `"tree"`.
        structure: &'static str = STRUCTURES,
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
    }
    /// A compensation ticket was granted (Section 4.5).
    Compensation = "compensation" {
        /// Thread index.
        thread: u32,
        /// The multiplicative factor `q/used` now inflating the client.
        factor: f64,
        /// The shard (CPU) the grant is attributed to — the client's home
        /// shard at grant time, so traces can localize compensation churn.
        shard: u32,
    }
    /// A compensation ticket was revoked (the client won its next lottery
    /// and used a full quantum's worth of attention).
    CompensationRevoked = "compensation-revoked" {
        /// Thread index.
        thread: u32,
        /// The shard (CPU) that was carrying the compensated weight.
        shard: u32,
    }
    /// A per-shard compensation-weight sample (emitted when the
    /// distributed rebalancer compares effective shard totals).
    ShardCompensation = "shard-compensation" {
        /// Shard index.
        shard: u32,
        /// Compensated weight homed on the shard, in base units.
        weight: f64,
        /// The shard's effective total (ready tree + resting compensated
        /// weight), in base units.
        total: f64,
    }
    /// A ledger mutation (the audit log of Section 4.3 operations).
    LedgerOp = "ledger-op" {
        /// Operation tag, e.g. `"fund-client"`.
        op: &'static str = LEDGER_OPS,
    }
    /// A scheduler client's direct funding changed, with the mutation's
    /// origin. [`EventKind::LedgerOp`] records *that* the ledger moved;
    /// this records *who asked*, which is what an audit needs when a
    /// tenant disputes their share — and what a replay needs to tell
    /// scripted inflation apart from spawn-time funding.
    WeightChange = "weight-change" {
        /// Client index (the scheduler's arena slot).
        client: u32,
        /// The new direct funding amount, in tickets of the funding
        /// currency.
        tickets: u64,
        /// Mutation origin: `"spawn"` (initial funding) or
        /// `"set-funding"` (a runtime inflation/deflation request).
        origin: &'static str = WEIGHT_ORIGINS,
    }
    /// A mutation invalidated part of the valuation cache.
    CacheInvalidate = "cache-invalidate" {
        /// Cached currency entries removed.
        currencies: u32,
        /// Cached client entries removed.
        clients: u32,
        /// Dirty-queue depth after the invalidation.
        dirty_depth: u32,
    }
    /// The scheduler drained the dirty-client queue before a draw.
    DirtyDrain = "dirty-drain" {
        /// Clients drained.
        drained: u32,
    }
    /// A winner-search structure was (re)built wholesale — the alias
    /// table snapshotting its prefix sums, or a tree/list repopulated by
    /// a runtime structure switch.
    StructureRebuild = "structure-rebuild" {
        /// `"list"`, `"tree"`, or `"alias"`.
        structure: &'static str = STRUCTURES,
        /// Entries captured by the rebuild.
        clients: u32,
        /// Stale slots folded in (0 for list/tree).
        stale: u32,
        /// Wall-clock rebuild cost in nanoseconds.
        rebuild_ns: u64,
    }
    /// A distributed lottery resolved a CPU's pick to a shard.
    ShardPick = "shard-pick" {
        /// CPU index that held the lottery.
        cpu: u32,
        /// Shard whose tree the winner was drawn from.
        shard: u32,
        /// Whether the pick stole from a foreign shard (local was empty).
        stolen: bool,
    }
    /// A CPU with an empty local tree stole work from another shard.
    ShardSteal = "shard-steal" {
        /// The stealing CPU.
        cpu: u32,
        /// The shard stolen from (the heaviest at the time).
        victim: u32,
        /// The thread taken.
        thread: u32,
    }
    /// A client was re-homed to another shard (rebalancing or explicit).
    ShardMigrate = "shard-migrate" {
        /// The migrated thread.
        thread: u32,
        /// Previous home shard.
        from_shard: u32,
        /// New home shard.
        to_shard: u32,
    }
    /// Per-shard ticket weight drifted past the imbalance bound.
    ShardImbalance = "shard-imbalance" {
        /// Heaviest shard's total ticket value, in base units.
        max_total: f64,
        /// Mean per-shard total ticket value, in base units.
        mean_total: f64,
    }
    /// A non-CPU resource scheduler granted (or re-priced) a client's
    /// ticket allocation — disk clients, switch circuits, memory clients,
    /// or broker-pushed weights.
    ResourceGrant = "resource-grant" {
        /// `"cpu"`, `"disk"`, `"mem"`, or `"net"`.
        resource: &'static str = RESOURCES,
        /// Scheduler-local client index (disk client, circuit, frame
        /// client — each resource numbers its own clients from zero).
        client: u32,
        /// The granted ticket count.
        tickets: u64,
    }
    /// A resource-level lottery picked a client for one service slot.
    ResourceDraw = "resource-draw" {
        /// `"disk"` or `"net"` (CPU draws keep [`EventKind::LotteryDraw`]).
        resource: &'static str = RESOURCES,
        /// The winning scheduler-local client index.
        client: u32,
        /// Contending entries in this draw's pool.
        entries: u32,
        /// Total tickets in the pool.
        total: u64,
    }
    /// A resource request finished service.
    ResourceComplete = "resource-complete" {
        /// `"disk"` or `"net"`.
        resource: &'static str = RESOURCES,
        /// The served scheduler-local client index.
        client: u32,
        /// Work completed, in the resource's unit (sectors, cells).
        units: u64,
        /// Queueing delay in the resource's native unit: microseconds for
        /// disk requests, slots for switch cells.
        wait: u64,
    }
    /// The broker (re)priced one tenant's backing for one resource.
    BrokerFunding = "broker-funding" {
        /// Broker tenant index.
        tenant: u32,
        /// `"cpu"`, `"disk"`, `"mem"`, or `"net"`.
        resource: &'static str = RESOURCES,
        /// The effective weight now funding the resource, in base units.
        weight: f64,
        /// Whether this rebalance refunded the (idle) backing to the grant.
        refunded: bool,
    }
    /// A cluster node's periodic report reached the market coordinator
    /// over the simulated network: one tenant's aggregate demand on one
    /// node, as the reconciliation loop saw it.
    NodeReport = "node-report" {
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
    }
    /// Cluster reconciliation moved part of a tenant's grant between
    /// nodes (demand-following rebalance or node-loss recovery).
    GrantMove = "grant-move" {
        /// Cluster tenant index.
        tenant: u32,
        /// Node the funding left.
        from_node: u32,
        /// Node the funding arrived at.
        to_node: u32,
        /// Base-currency tickets moved.
        amount: u64,
    }
    /// A partitioned (or lost-and-replaced) node was reabsorbed into the
    /// market and the coordinator's funding view reconverged.
    PartitionHeal = "partition-heal" {
        /// The healed node index.
        node: u32,
        /// Reconciliation rounds the node spent unreachable.
        rounds: u32,
        /// Reports dropped by the network while it was unreachable.
        dropped: u64,
    }
}

/// Every record opens with its timestamp …
const TIME: &str = "t_us";
/// … and its kind's wire name; the kind's own fields follow.
const KIND: &str = "kind";

impl Event {
    /// Serializes the event as one JSON object (the JSONL record format).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        put_member(&mut s, TIME, &self.time_us);
        put_member(&mut s, KIND, &self.kind.name());
        self.kind.put_fields(&mut s);
        s.push('}');
        s
    }

    /// Parses one JSONL record back into a typed event — the inverse of
    /// [`Event::to_json`], used to load replay logs.
    ///
    /// String tags are interned against the known wire vocabulary so the
    /// parsed event carries the same `&'static str` values the emitters
    /// use and compares equal to the original. An unknown kind, an
    /// unknown tag, a missing field, or a number the field's type cannot
    /// hold exactly is an error: the replay log is an audit artifact,
    /// and a record we cannot faithfully reconstruct must not silently
    /// round-trip.
    pub fn from_json(v: &Value) -> Result<Event, String> {
        let time_us = member(v, TIME)?;
        let kind: String = member(v, KIND)?;
        Ok(Event {
            time_us,
            kind: EventKind::get_fields(&kind, v)?,
        })
    }
}

/// Writes a value in its wire form.
pub(crate) trait Put {
    /// Appends the value's JSON to `out`.
    fn put(&self, out: &mut String);
}

/// Reads a value back from its wire form.
pub(crate) trait Get: Sized {
    /// Converts a parsed JSON value; the error completes the sentence
    /// "field … " (`"is not a boolean"`).
    fn get(v: &Value) -> Result<Self, String>;
}

/// Appends `"name":value` to the object being written, after a comma
/// unless it is the object's first member.
pub(crate) fn put_member<T: Put>(out: &mut String, name: &str, value: &T) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    value.put(out);
}

/// Reads member `name` of the object `obj`.
pub(crate) fn member<T: Get>(obj: &Value, name: &str) -> Result<T, String> {
    let v = obj
        .get(name)
        .ok_or_else(|| format!("missing field {name:?}"))?;
    T::get(v).map_err(|why| format!("field {name:?} {why}"))
}

/// Reads member `name` as a tag, returning the `known` vocabulary's own
/// `&'static str` for it.
fn tag(obj: &Value, name: &str, known: &[&'static str]) -> Result<&'static str, String> {
    let s: String = member(obj, name)?;
    known
        .iter()
        .copied()
        .find(|k| *k == s)
        .ok_or_else(|| format!("unknown {name} tag {s:?}"))
}

/// 2^53. A [`Value`] holds every number as an `f64`, which stops telling
/// neighbouring integers apart here: 2^53 + 1 parses to 2^53.
const EXACT_INTEGERS_END: f64 = 9_007_199_254_740_992.0;

/// Integers and booleans are written as `Display` prints them.
macro_rules! put_as_displayed {
    ($($ty:ty),*) => {$(
        impl Put for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

put_as_displayed!(u64, u32, bool);

impl Get for u64 {
    fn get(v: &Value) -> Result<u64, String> {
        let n = v.as_f64().ok_or("is not a number")?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err("is not a non-negative integer".to_string());
        }
        if n >= EXACT_INTEGERS_END {
            return Err("is 2^53 or more and cannot be read exactly".to_string());
        }
        Ok(n as u64)
    }
}

impl Get for u32 {
    fn get(v: &Value) -> Result<u32, String> {
        u32::try_from(u64::get(v)?).map_err(|_| "overflows u32".to_string())
    }
}

impl Put for f64 {
    fn put(&self, out: &mut String) {
        out.push_str(&json::number(*self));
    }
}

impl Get for f64 {
    fn get(v: &Value) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| "is not a number".to_string())
    }
}

impl Get for bool {
    fn get(v: &Value) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| "is not a boolean".to_string())
    }
}

/// A tag or wire name: vocabulary the program itself defines, plain
/// ASCII, written as it is. Read back with [`tag`].
impl Put for &'static str {
    fn put(&self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }
}

/// Free text (a currency or tenant name), escaped.
impl Put for String {
    fn put(&self, out: &mut String) {
        out.push('"');
        out.push_str(&json::escape(self));
        out.push('"');
    }
}

impl Get for String {
    fn get(v: &Value) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "is not a string".to_string())
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.put(out);
        }
        out.push(']');
    }
}

impl<T: Get> Get for Vec<T> {
    fn get(v: &Value) -> Result<Vec<T>, String> {
        v.as_array()
            .ok_or("is not an array")?
            .iter()
            .enumerate()
            .map(|(i, item)| T::get(item).map_err(|why| format!("element {i}: {why}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_records_parse_back() {
        for e in one_of_each() {
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

    /// What `to_json` printed for each `one_of_each` sample before the
    /// schema table existed (PR 17's hand-written serializer): the bytes
    /// on the wire are pinned, kind by kind.
    const WIRE_LINES: &[&str] = &[
        r#"{"t_us":100,"kind":"spawn","thread":7}"#,
        r#"{"t_us":200,"kind":"thread-exit","thread":7}"#,
        r#"{"t_us":300,"kind":"dispatch","thread":2,"cpu":1,"wait_us":300,"queue_depth":3}"#,
        r#"{"t_us":400,"kind":"quantum-end","thread":2,"cpu":1,"reason":"blocked","used_us":25000}"#,
        r#"{"t_us":500,"kind":"wake","thread":4}"#,
        r#"{"t_us":600,"kind":"rpc-deliver","client":1,"server":2}"#,
        r#"{"t_us":700,"kind":"rpc-reply","client":1,"server":2}"#,
        r#"{"t_us":800,"kind":"lottery-draw","structure":"alias","entries":5,"levels":3,"total":700,"winning":431.2578125,"winner":4}"#,
        r#"{"t_us":900,"kind":"compensation","thread":3,"factor":4,"shard":1}"#,
        r#"{"t_us":1000,"kind":"compensation-revoked","thread":3,"shard":1}"#,
        r#"{"t_us":1100,"kind":"shard-compensation","shard":2,"weight":300.5,"total":1100.25}"#,
        r#"{"t_us":1200,"kind":"ledger-op","op":"fund-client"}"#,
        r#"{"t_us":1300,"kind":"weight-change","client":9,"tickets":400,"origin":"set-funding"}"#,
        r#"{"t_us":1400,"kind":"cache-invalidate","currencies":2,"clients":5,"dirty_depth":7}"#,
        r#"{"t_us":1500,"kind":"dirty-drain","drained":12}"#,
        r#"{"t_us":1600,"kind":"structure-rebuild","structure":"alias","clients":1000000,"stale":125000,"rebuild_ns":4200000}"#,
        r#"{"t_us":1700,"kind":"shard-pick","cpu":0,"shard":2,"stolen":true}"#,
        r#"{"t_us":1800,"kind":"shard-steal","cpu":0,"victim":2,"thread":11}"#,
        r#"{"t_us":1900,"kind":"shard-migrate","thread":11,"from_shard":2,"to_shard":0}"#,
        r#"{"t_us":2000,"kind":"shard-imbalance","max_total":900.125,"mean_total":600}"#,
        r#"{"t_us":2100,"kind":"resource-grant","resource":"disk","client":1,"tickets":500}"#,
        r#"{"t_us":2200,"kind":"resource-draw","resource":"net","client":0,"entries":3,"total":750}"#,
        r#"{"t_us":2300,"kind":"resource-complete","resource":"disk","client":1,"units":16,"wait":4200}"#,
        r#"{"t_us":2400,"kind":"broker-funding","tenant":0,"resource":"mem","weight":333.25,"refunded":false}"#,
        r#"{"t_us":2500,"kind":"node-report","node":3,"tenant":1,"backlog":1000000,"round":42}"#,
        r#"{"t_us":2600,"kind":"grant-move","tenant":1,"from_node":3,"to_node":0,"amount":750}"#,
        r#"{"t_us":2700,"kind":"partition-heal","node":3,"rounds":6,"dropped":18}"#,
    ];

    /// Every kind in the schema table has a sample, every sample prints
    /// its pinned line, and the line survives `json::parse` →
    /// `from_json` with every field bit-exact — the contract replay
    /// loading rests on. A kind added to the table without a sample (and
    /// its line) fails here.
    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let events = one_of_each();
        let sampled: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(sampled, EventKind::NAMES, "one sample per kind, in order");
        assert_eq!(events.len(), WIRE_LINES.len());
        for (e, pinned) in events.into_iter().zip(WIRE_LINES) {
            let line = e.to_json();
            assert_eq!(line, *pinned, "wire form of {} changed", e.kind.name());
            let v = json::parse(&line).expect("event JSON parses");
            let back = Event::from_json(&v)
                .unwrap_or_else(|err| panic!("{} does not parse back: {err}", e.kind.name()));
            assert_eq!(back, e, "round-trip of {} altered a field", e.kind.name());
        }
    }

    /// DESIGN §5: the flight ring stores events by value, 56 bytes each.
    #[test]
    fn event_stays_copy_and_56_bytes() {
        fn copy<T: Copy>() {}
        copy::<Event>();
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }

    /// An integer the `f64` in between cannot hold exactly is refused,
    /// not rounded: 2^53 + 1 would otherwise load as 2^53.
    #[test]
    fn from_json_rejects_integers_it_cannot_read_exactly() {
        let grant = |tickets: &str| {
            let line = format!(
                r#"{{"t_us":1,"kind":"resource-grant","resource":"disk","client":1,"tickets":{tickets}}}"#
            );
            Event::from_json(&json::parse(&line).unwrap())
        };
        let err = grant("9007199254740993").unwrap_err();
        assert!(err.contains("\"tickets\"") && err.contains("2^53"), "{err}");
        assert!(grant("9007199254740992").is_err());
        assert!(grant("1e300").is_err());
        assert!(grant("-1").is_err() && grant("1.5").is_err());
        let exact = grant("9007199254740991").unwrap();
        assert_eq!(
            exact.kind,
            EventKind::ResourceGrant {
                resource: "disk",
                client: 1,
                tickets: (1 << 53) - 1,
            }
        );
        assert_eq!(
            Event::from_json(&json::parse(&exact.to_json()).unwrap()),
            Ok(exact)
        );

        let wide = json::parse(r#"{"t_us":1,"kind":"wake","thread":4294967296}"#).unwrap();
        let err = Event::from_json(&wide).unwrap_err();
        assert!(err.contains("\"thread\" overflows u32"), "{err}");
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
