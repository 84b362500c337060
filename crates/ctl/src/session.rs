//! The command session: a named-object environment over a ledger.
//!
//! The paper's prototype exposes currencies and tickets to users through
//! setuid command-line tools (`mktkt`, `rmtkt`, `mkcur`, `rmcur`, `fund`,
//! `unfund`, `lstkt`, `lscur`, `fundx`). [`Session`] provides the same
//! verbs over an in-process [`Ledger`], addressing objects by user-chosen
//! names, with the permission checks the paper prescribes (a non-root
//! principal may only issue tickets in currencies whose policy admits it).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use lottery_broker::{Resource, ResourceBroker, SplitPolicy, TenantId};
use lottery_core::client::ClientId;
use lottery_core::currency::{CurrencyId, IssuePolicy, Principal};
use lottery_core::ledger::{Ledger, Valuator};
use lottery_core::lottery::alias::AliasLottery;
use lottery_core::lottery::tree::TreeLottery;
use lottery_core::lottery::TicketPool;
use lottery_core::ticket::{FundingTarget, TicketId};
use lottery_obs::{json, Aggregator, EventKind, FlightRecorder, ProbeBus, Shared};

use crate::command::{BrokerAction, Command, ParseError, StructureKind};

/// Events the session flight recorder retains (`trace on` … `dump`).
const FLIGHT_CAPACITY: usize = 4096;

/// Most partitions `shards <n>` accepts: the ledger allocates a queue per
/// shard up front, so an unchecked count is an unchecked allocation.
pub const MAX_SHARDS: usize = 1024;

/// What a user-visible name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectRef {
    /// A ticket.
    Ticket(TicketId),
    /// A currency.
    Currency(CurrencyId),
    /// A schedulable process (ledger client).
    Proc(ClientId),
}

/// Errors surfaced to the command user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlError {
    /// The command line did not parse.
    Parse(ParseError),
    /// A name was not bound to any object.
    UnknownName(String),
    /// A name was bound to the wrong kind of object.
    WrongKind {
        /// The offending name.
        name: String,
        /// What the command needed.
        expected: &'static str,
    },
    /// The name is already taken.
    NameTaken(String),
    /// `shards <n>` asked for more than [`MAX_SHARDS`] partitions.
    TooManyShards(usize),
    /// The underlying ledger rejected the operation.
    Ledger(lottery_core::errors::LotteryError),
    /// A replay capture could not be read, parsed, or re-executed.
    Replay(String),
}

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "parse error: {e}"),
            Self::UnknownName(n) => write!(f, "unknown name: {n}"),
            Self::WrongKind { name, expected } => {
                write!(f, "{name} is not a {expected}")
            }
            Self::NameTaken(n) => write!(f, "name already in use: {n}"),
            Self::TooManyShards(n) => {
                write!(
                    f,
                    "{n} shards requested; at most {MAX_SHARDS} are supported"
                )
            }
            Self::Ledger(e) => write!(f, "{e}"),
            Self::Replay(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for CtlError {}

impl From<lottery_core::errors::LotteryError> for CtlError {
    fn from(e: lottery_core::errors::LotteryError) -> Self {
        Self::Ledger(e)
    }
}

impl From<ParseError> for CtlError {
    fn from(e: ParseError) -> Self {
        Self::Parse(e)
    }
}

/// A command session bound to a principal.
pub struct Session {
    ledger: Ledger,
    names: BTreeMap<String, ObjectRef>,
    principal: Principal,
    /// Always-on counter aggregation backing the `stat` verb.
    stats: Shared<Aggregator>,
    /// Bounded event ring backing `dump`; only fed while tracing.
    flight: Shared<FlightRecorder>,
    tracing: bool,
    /// Multi-resource broker, created on the first `broker` verb. It owns
    /// its own ledger: tenant grants live in the broker's funding graph,
    /// not the session's object environment.
    broker: Option<ResourceBroker>,
    /// The winner-search structure last selected with the `structure`
    /// verb (Section 4.2); a scheduler embedding this session would draw
    /// from the corresponding pool.
    structure: StructureKind,
    /// Statistics from the most recent `structure <kind>` rebuild.
    last_rebuild: Option<RebuildReport>,
}

/// What the last `structure` switch cost.
struct RebuildReport {
    clients: u32,
    stale: u32,
    rebuild_ns: u64,
    tickets: f64,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Creates a root session with an empty environment; the base currency
    /// is pre-bound as `base`.
    pub fn new() -> Self {
        Self::with_principal(Principal::ROOT)
    }

    /// Creates a session acting as `principal`.
    pub fn with_principal(principal: Principal) -> Self {
        let ledger = Ledger::new();
        let mut names = BTreeMap::new();
        names.insert("base".to_string(), ObjectRef::Currency(ledger.base()));
        let mut session = Self {
            ledger,
            names,
            principal,
            stats: Shared::new(Aggregator::new()),
            flight: Shared::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            tracing: false,
            broker: None,
            structure: StructureKind::List,
            last_rebuild: None,
        };
        session.rewire_bus();
        session
    }

    /// Installs a probe bus on the ledger matching the current recorder
    /// set. The bus has no detach, so toggling tracing swaps the whole
    /// bus; the shared recorder handles (and their contents) survive.
    fn rewire_bus(&mut self) {
        let bus = ProbeBus::enabled();
        bus.attach(self.stats.clone());
        if self.tracing {
            bus.attach(self.flight.clone());
        }
        self.ledger.set_probe_bus(bus);
    }

    /// The underlying ledger (for embedding in a scheduler).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Resolves a name.
    pub fn lookup(&self, name: &str) -> Option<ObjectRef> {
        self.names.get(name).copied()
    }

    fn currency(&self, name: &str) -> Result<CurrencyId, CtlError> {
        match self.names.get(name) {
            Some(ObjectRef::Currency(c)) => Ok(*c),
            Some(_) => Err(CtlError::WrongKind {
                name: name.to_string(),
                expected: "currency",
            }),
            None => Err(CtlError::UnknownName(name.to_string())),
        }
    }

    fn ticket(&self, name: &str) -> Result<TicketId, CtlError> {
        match self.names.get(name) {
            Some(ObjectRef::Ticket(t)) => Ok(*t),
            Some(_) => Err(CtlError::WrongKind {
                name: name.to_string(),
                expected: "ticket",
            }),
            None => Err(CtlError::UnknownName(name.to_string())),
        }
    }

    fn proc(&self, name: &str) -> Result<ClientId, CtlError> {
        match self.names.get(name) {
            Some(ObjectRef::Proc(c)) => Ok(*c),
            Some(_) => Err(CtlError::WrongKind {
                name: name.to_string(),
                expected: "process",
            }),
            None => Err(CtlError::UnknownName(name.to_string())),
        }
    }

    fn bind(&mut self, name: &str, obj: ObjectRef) -> Result<(), CtlError> {
        if self.names.contains_key(name) {
            return Err(CtlError::NameTaken(name.to_string()));
        }
        self.names.insert(name.to_string(), obj);
        Ok(())
    }

    /// Parses and executes one command line, returning its output text.
    pub fn eval(&mut self, line: &str) -> Result<String, CtlError> {
        let cmd = Command::parse(line)?;
        self.execute(cmd)
    }

    /// Executes a parsed command.
    pub fn execute(&mut self, cmd: Command) -> Result<String, CtlError> {
        match cmd {
            Command::Nop => Ok(String::new()),
            Command::Help => Ok(Command::HELP.to_string()),
            Command::MkCur { name, restricted } => {
                let policy = if restricted {
                    IssuePolicy::Restricted(vec![self.principal])
                } else {
                    IssuePolicy::Anyone
                };
                let id = self
                    .ledger
                    .create_currency_with_policy(name.clone(), policy)?;
                self.bind(&name, ObjectRef::Currency(id))?;
                Ok(format!("created currency {name}"))
            }
            Command::RmCur { name } => {
                let id = self.currency(&name)?;
                self.ledger.destroy_currency(id)?;
                self.names.remove(&name);
                Ok(format!("destroyed currency {name}"))
            }
            Command::MkTkt {
                name,
                amount,
                currency,
            } => {
                let cur = self.currency(&currency)?;
                let id = self.ledger.issue(cur, amount, self.principal)?;
                self.bind(&name, ObjectRef::Ticket(id))?;
                Ok(format!("issued ticket {name} = {amount}.{currency}"))
            }
            Command::RmTkt { name } => {
                let id = self.ticket(&name)?;
                self.ledger.destroy_ticket(id)?;
                self.names.remove(&name);
                Ok(format!("destroyed ticket {name}"))
            }
            Command::Fund { ticket, target } => {
                let t = self.ticket(&ticket)?;
                match self.names.get(&target) {
                    Some(ObjectRef::Currency(c)) => {
                        self.ledger.fund_currency(t, *c)?;
                        Ok(format!("ticket {ticket} now funds currency {target}"))
                    }
                    Some(ObjectRef::Proc(c)) => {
                        self.ledger.fund_client(t, *c)?;
                        Ok(format!("ticket {ticket} now funds process {target}"))
                    }
                    Some(ObjectRef::Ticket(_)) => Err(CtlError::WrongKind {
                        name: target,
                        expected: "currency or process",
                    }),
                    None => Err(CtlError::UnknownName(target)),
                }
            }
            Command::Unfund { ticket } => {
                let t = self.ticket(&ticket)?;
                self.ledger.unfund(t)?;
                Ok(format!("ticket {ticket} unfunded"))
            }
            Command::MkProc { name } => {
                let id = self.ledger.create_client(name.clone());
                self.bind(&name, ObjectRef::Proc(id))?;
                Ok(format!("created process {name}"))
            }
            Command::RmProc { name } => {
                let id = self.proc(&name)?;
                self.ledger.destroy_client_and_funding(id)?;
                self.names.remove(&name);
                Ok(format!("destroyed process {name}"))
            }
            Command::Activate { name } => {
                let id = self.proc(&name)?;
                self.ledger.activate_client(id)?;
                Ok(format!("process {name} active"))
            }
            Command::Deactivate { name } => {
                let id = self.proc(&name)?;
                self.ledger.deactivate_client(id)?;
                Ok(format!("process {name} inactive"))
            }
            Command::FundX {
                name,
                amount,
                currency,
            } => {
                // The paper's `fundx`: run a command with specified
                // funding — create the process, issue the ticket, fund it,
                // and set it runnable, in one step.
                let cur = self.currency(&currency)?;
                let client = self.ledger.create_client(name.clone());
                let ticket = match self.ledger.issue(cur, amount, self.principal) {
                    Ok(t) => t,
                    Err(e) => {
                        self.ledger.destroy_client(client)?;
                        return Err(e.into());
                    }
                };
                self.ledger.fund_client(ticket, client)?;
                self.ledger.activate_client(client)?;
                self.bind(&name, ObjectRef::Proc(client))?;
                Ok(format!("launched {name} with {amount}.{currency}"))
            }
            Command::LsCur { json } => {
                let mut v = Valuator::new(&self.ledger);
                let rows: Vec<(String, CurrencyId)> = self
                    .names
                    .iter()
                    .filter_map(|(n, o)| match o {
                        ObjectRef::Currency(c) => Some((n.clone(), *c)),
                        _ => None,
                    })
                    .collect();
                if json {
                    let mut items = Vec::with_capacity(rows.len());
                    for (name, id) in rows {
                        let cur = self.ledger.currency(id)?;
                        items.push(format!(
                            "{{\"currency\":\"{}\",\"active\":{},\"issued\":{},\"value\":{}}}",
                            json::escape(&name),
                            cur.active_amount(),
                            cur.total_amount(),
                            json::number(v.currency_value(id)?),
                        ));
                    }
                    return Ok(format!("[{}]", items.join(",")));
                }
                let mut out = format!(
                    "{:<12} {:>8} {:>8} {:>12}\n",
                    "currency", "active", "issued", "value (base)"
                );
                for (name, id) in rows {
                    let cur = self.ledger.currency(id)?;
                    let _ = writeln!(
                        out,
                        "{:<12} {:>8} {:>8} {:>12.1}",
                        name,
                        cur.active_amount(),
                        cur.total_amount(),
                        v.currency_value(id)?,
                    );
                }
                Ok(out)
            }
            Command::LsTkt { currency, json } => {
                let filter = match &currency {
                    Some(c) => Some(self.currency(c)?),
                    None => None,
                };
                let mut v = Valuator::new(&self.ledger);
                let rows: Vec<(String, TicketId)> = self
                    .names
                    .iter()
                    .filter_map(|(n, o)| match o {
                        ObjectRef::Ticket(t) => Some((n.clone(), *t)),
                        _ => None,
                    })
                    .collect();
                let mut out = if json {
                    String::new()
                } else {
                    format!(
                        "{:<12} {:>8} {:<12} {:>8} {:>12}\n",
                        "ticket", "amount", "funds", "active", "value (base)"
                    )
                };
                let mut items = Vec::new();
                for (name, id) in rows {
                    let t = self.ledger.ticket(id)?;
                    if let Some(f) = filter {
                        if t.currency() != f {
                            continue;
                        }
                    }
                    let target = match t.target() {
                        FundingTarget::Unfunded => "-".to_string(),
                        FundingTarget::Currency(c) => self.name_of(ObjectRef::Currency(c)),
                        FundingTarget::Client(c) => self.name_of(ObjectRef::Proc(c)),
                    };
                    let (amount, active) = (t.amount(), t.is_active());
                    if json {
                        items.push(format!(
                            "{{\"ticket\":\"{}\",\"amount\":{},\"funds\":\"{}\",\"active\":{},\"value\":{}}}",
                            json::escape(&name),
                            amount,
                            json::escape(&target),
                            active,
                            json::number(v.ticket_value(id)?),
                        ));
                    } else {
                        let _ = writeln!(
                            out,
                            "{:<12} {:>8} {:<12} {:>8} {:>12.1}",
                            name,
                            amount,
                            target,
                            active,
                            v.ticket_value(id)?,
                        );
                    }
                }
                if json {
                    return Ok(format!("[{}]", items.join(",")));
                }
                Ok(out)
            }
            Command::LsProc => {
                let mut v = Valuator::new(&self.ledger);
                let mut out = format!("{:<12} {:>8} {:>14}\n", "process", "active", "value (base)");
                let rows: Vec<(String, ClientId)> = self
                    .names
                    .iter()
                    .filter_map(|(n, o)| match o {
                        ObjectRef::Proc(c) => Some((n.clone(), *c)),
                        _ => None,
                    })
                    .collect();
                for (name, id) in rows {
                    let active = self.ledger.client(id)?.is_active();
                    out.push_str(&format!(
                        "{:<12} {:>8} {:>14.1}\n",
                        name,
                        active,
                        v.client_value(id)?,
                    ));
                }
                Ok(out)
            }
            Command::Dot => Ok(lottery_core::viz::to_dot(&self.ledger)),
            Command::Stat => Ok(self.stats.with(|a| a.prometheus_text())),
            Command::Trace { on } => {
                self.tracing = on;
                self.rewire_bus();
                if on {
                    Ok(format!(
                        "tracing on (flight recorder keeps the last {FLIGHT_CAPACITY} events)"
                    ))
                } else {
                    Ok("tracing off".to_string())
                }
            }
            Command::Dump => Ok(self.flight.with(|f| f.to_jsonl())),
            Command::Replay { path, json } => Self::exec_replay(&path, json),
            Command::Shards { count, json } => {
                if let Some(n) = count {
                    return self.partition_shards(n);
                }
                self.report_shards(json)
            }
            Command::Broker { action } => self.exec_broker(action),
            Command::Structure { kind, json } => {
                if let Some(k) = kind {
                    self.switch_structure(k)?;
                }
                Ok(self.report_structure(json))
            }
            Command::Compensate {
                name,
                used,
                quantum,
            } => {
                let id = self.proc(&name)?;
                lottery_core::compensation::grant(&mut self.ledger, id, used, quantum)?;
                let factor = self.ledger.compensation_factor(id);
                if factor > 1.0 {
                    Ok(format!("process {name} compensated {factor:.2}x"))
                } else {
                    Ok(format!("process {name} compensation cleared"))
                }
            }
            Command::Value { name } => {
                let mut v = Valuator::new(&self.ledger);
                let value = match self.names.get(&name) {
                    Some(ObjectRef::Ticket(t)) => v.ticket_value(*t)?,
                    Some(ObjectRef::Currency(c)) => v.currency_value(*c)?,
                    Some(ObjectRef::Proc(c)) => v.client_value(*c)?,
                    None => return Err(CtlError::UnknownName(name)),
                };
                Ok(format!("{value:.1}"))
            }
        }
    }

    /// Every named process, sorted by name (the `names` map order).
    fn procs(&self) -> Vec<(String, ClientId)> {
        self.names
            .iter()
            .filter_map(|(n, o)| match o {
                ObjectRef::Proc(c) => Some((n.clone(), *c)),
                _ => None,
            })
            .collect()
    }

    /// `shards <n>`: re-partition processes across `n` dirty-notification
    /// shards, balancing ticket weight greedily (heaviest process first
    /// onto the lightest shard — the same discipline the distributed
    /// scheduler uses to home threads).
    fn partition_shards(&mut self, n: usize) -> Result<String, CtlError> {
        if n > MAX_SHARDS {
            return Err(CtlError::TooManyShards(n));
        }
        self.ledger.set_dirty_shards(n);
        // The ledger keeps at least one shard, so `totals` is never empty.
        let n = self.ledger.dirty_shards();
        let mut weighted: Vec<(String, ClientId, f64)> = {
            let mut v = Valuator::new(&self.ledger);
            self.procs()
                .into_iter()
                .map(|(name, id)| v.client_value(id).map(|value| (name, id, value)))
                .collect::<Result<_, _>>()?
        };
        weighted.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let mut totals = vec![0.0f64; n];
        let count = weighted.len();
        for (_, id, value) in weighted {
            let lightest = (0..n)
                .min_by(|&a, &b| totals[a].total_cmp(&totals[b]))
                .unwrap_or(0);
            self.ledger.assign_dirty_shard(id, lightest as u32);
            totals[lightest] += value;
        }
        Ok(format!("partitioned {count} processes across {n} shards"))
    }

    /// `shards [--json]`: per-shard process counts, ticket totals,
    /// compensation weight and share, and dirty-queue depths, plus the
    /// cumulative migration count. The compensation share is the shard's
    /// extra Section 4.5 weight over its total (compensated) client value —
    /// the fraction of the shard's pull on the lottery that is compensatory
    /// rather than funded.
    fn report_shards(&mut self, json: bool) -> Result<String, CtlError> {
        let n = self.ledger.dirty_shards();
        let procs = self.procs();
        let mut counts = vec![0u32; n];
        let mut totals = vec![0.0f64; n];
        {
            let mut v = Valuator::new(&self.ledger);
            for (_, id) in &procs {
                let value = v.client_value(*id)?;
                let shard = self.ledger.dirty_shard_of(*id) as usize;
                counts[shard] += 1;
                totals[shard] += value;
            }
        }
        let comp: Vec<f64> = (0..n)
            .map(|s| self.ledger.compensation_shard_weight(s as u32))
            .collect();
        let share = |s: usize| {
            if totals[s] > 0.0 {
                comp[s] / totals[s]
            } else {
                0.0
            }
        };
        let migrations = self.ledger.dirty_shard_reassignments();
        if json {
            let rows: Vec<String> = (0..n)
                .map(|s| {
                    format!(
                        "{{\"shard\":{s},\"procs\":{},\"tickets\":{},\"comp_weight\":{},\"compensation_share\":{},\"depth\":{}}}",
                        counts[s],
                        json::number(totals[s]),
                        json::number(comp[s]),
                        json::number(share(s)),
                        self.ledger.dirty_shard_depth(s as u32),
                    )
                })
                .collect();
            return Ok(format!(
                "{{\"shards\":[{}],\"migrations\":{migrations}}}",
                rows.join(",")
            ));
        }
        let mut out = format!(
            "{:<6} {:>6} {:>14} {:>12} {:>11} {:>12}\n",
            "shard", "procs", "tickets (base)", "comp weight", "comp share", "dirty depth"
        );
        for s in 0..n {
            let _ = writeln!(
                out,
                "{:<6} {:>6} {:>14.1} {:>12.1} {:>11.3} {:>12}",
                s,
                counts[s],
                totals[s],
                comp[s],
                share(s),
                self.ledger.dirty_shard_depth(s as u32),
            );
        }
        let _ = writeln!(out, "migrations: {migrations}");
        Ok(out)
    }

    /// `structure <kind>`: rebuild the chosen Section 4.2 winner-search
    /// structure over the session's active processes, draining the
    /// ledger's dirty queue (those clients are the stale set a scheduler
    /// would have to patch) and emitting a `StructureRebuild` probe event
    /// so the `stat` aggregator tracks rebuild counts and costs.
    fn switch_structure(&mut self, kind: StructureKind) -> Result<(), CtlError> {
        let start = Instant::now();
        let stale = self.ledger.drain_dirty_clients().len() as u32;
        // Read through the ledger's incremental cache (not a one-shot
        // `Valuator`): that is the scheduler read path, and warming the
        // cache is what arms dirty notifications for the next switch.
        let weighted: Vec<(ClientId, f64)> = {
            let mut rows = Vec::new();
            for (_, id) in self.procs() {
                if self.ledger.client(id)?.is_active() {
                    rows.push((id, self.ledger.cached_client_value(id)?));
                }
            }
            rows
        };
        let clients = weighted.len() as u32;
        let tickets = match kind {
            // A list is its rows; its total is their running sum.
            StructureKind::List => weighted.iter().fold(0.0, |sum, &(_, w)| sum + w),
            StructureKind::Tree => {
                let mut pool: TreeLottery<ClientId, f64> =
                    TreeLottery::with_capacity(weighted.len());
                for &(id, w) in &weighted {
                    pool.insert(id, w);
                }
                pool.total()
            }
            StructureKind::Alias => {
                let mut pool: AliasLottery<ClientId> = AliasLottery::with_capacity(weighted.len());
                for &(id, w) in &weighted {
                    pool.insert(id, w);
                }
                pool.rebuild();
                let _ = pool.take_rebuild_events();
                pool.total()
            }
        };
        let rebuild_ns = start.elapsed().as_nanos() as u64;
        self.structure = kind;
        self.last_rebuild = Some(RebuildReport {
            clients,
            stale,
            rebuild_ns,
            tickets,
        });
        self.ledger
            .probe_bus()
            .emit(|| EventKind::StructureRebuild {
                structure: kind.name(),
                clients,
                stale,
                rebuild_ns,
            });
        Ok(())
    }

    /// `structure [--json]`: the active structure and what the last
    /// switch cost.
    fn report_structure(&self, json: bool) -> String {
        let name = self.structure.name();
        match &self.last_rebuild {
            Some(r) => {
                if json {
                    format!(
                        "{{\"structure\":\"{name}\",\"clients\":{},\"stale\":{},\
                         \"rebuild_ns\":{},\"tickets\":{}}}",
                        r.clients,
                        r.stale,
                        r.rebuild_ns,
                        json::number(r.tickets),
                    )
                } else {
                    format!(
                        "structure {name}: rebuilt over {} processes \
                         ({} stale drained, {:.1} base tickets) in {} ns",
                        r.clients, r.stale, r.tickets, r.rebuild_ns
                    )
                }
            }
            None => {
                if json {
                    format!("{{\"structure\":\"{name}\"}}")
                } else {
                    format!("structure {name}: no rebuild yet")
                }
            }
        }
    }

    /// `replay <file>`: load a recorded capture, re-execute it from its
    /// header, and diff the replayed stream against the recording.
    fn exec_replay(path: &str, json_out: bool) -> Result<String, CtlError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| CtlError::Replay(format!("{path}: {e}")))?;
        if lottery_obs::TraceSpec::sniff(&text) {
            return Self::exec_replay_trace(path, &text, json_out);
        }
        let log = lottery_obs::ReplayLog::from_jsonl(&text).map_err(CtlError::Replay)?;
        let header = log.header.clone();
        let recorded = log.events.len();
        let report = lottery_sim::replay::Replayer::new(log)
            .run()
            .map_err(CtlError::Replay)?;
        if json_out {
            let divergence = match &report.divergence {
                None => "null".to_string(),
                Some(d) => {
                    let side = |e: &Option<lottery_obs::Event>| {
                        e.as_ref().map_or("null".to_string(), |e| e.to_json())
                    };
                    format!(
                        "{{\"index\":{},\"recorded\":{},\"replayed\":{}}}",
                        d.index,
                        side(&d.recorded),
                        side(&d.replayed),
                    )
                }
            };
            return Ok(format!(
                "{{\"file\":\"{}\",\"seed\":{},\"structure\":\"{}\",\"shards\":{},\
                 \"recorded\":{},\"replayed\":{},\"bit_exact\":{},\"divergence\":{}}}",
                json::escape(path),
                header.seed,
                json::escape(&header.structure),
                header.shards,
                recorded,
                report.replayed.len(),
                report.bit_exact(),
                divergence,
            ));
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "capture {path}: seed={} structure={} shards={} compensation={} \
             quantum_us={} until_us={} events={recorded}",
            header.seed,
            header.structure,
            header.shards,
            header.compensation,
            header.quantum_us,
            header.until_us,
        );
        match &report.divergence {
            None => {
                let _ = write!(out, "replay: bit-exact ({} events)", report.replayed.len());
            }
            Some(d) => {
                let side = |e: &Option<lottery_obs::Event>| {
                    e.as_ref()
                        .map_or("<stream ended>".to_string(), |e| e.to_json())
                };
                let _ = writeln!(out, "replay: DIVERGED at event {}", d.index);
                let _ = writeln!(out, "  recorded: {}", side(&d.recorded));
                let _ = write!(out, "  replayed: {}", side(&d.replayed));
            }
        }
        Ok(out)
    }

    /// `replay <trace-file>`: the file is an external workload trace
    /// (`TraceSpec` JSONL), not a capture — record it under the default
    /// configuration, self-replay, and diff, so external corpora become
    /// replayable captures in one step.
    fn exec_replay_trace(path: &str, text: &str, json_out: bool) -> Result<String, CtlError> {
        let spec = lottery_obs::TraceSpec::from_jsonl(text)
            .map_err(|e| CtlError::Replay(format!("{path}: {e}")))?;
        let (currencies, jobs) = (spec.currencies.len(), spec.jobs.len());
        let config = lottery_sim::replay::CaptureConfig::default();
        let log = lottery_sim::replay::record(spec, &config).map_err(CtlError::Replay)?;
        let header = log.header.clone();
        let captured = log.events.len();
        let report = lottery_sim::replay::Replayer::new(log)
            .run()
            .map_err(CtlError::Replay)?;
        if json_out {
            return Ok(format!(
                "{{\"file\":\"{}\",\"trace\":true,\"currencies\":{},\"jobs\":{},\
                 \"seed\":{},\"structure\":\"{}\",\"shards\":{},\"captured\":{},\
                 \"bit_exact\":{}}}",
                json::escape(path),
                currencies,
                jobs,
                header.seed,
                json::escape(&header.structure),
                header.shards,
                captured,
                report.bit_exact(),
            ));
        }
        Ok(format!(
            "trace {path}: {currencies} currencies, {jobs} jobs\n\
             captured {captured} events (seed={} structure={} shards={} until_us={})\n\
             self-replay: {}",
            header.seed,
            header.structure,
            header.shards,
            header.until_us,
            if report.bit_exact() {
                "bit-exact".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ))
    }

    /// Resolves a tenant name against the session broker.
    fn broker_tenant(broker: &ResourceBroker, name: &str) -> Result<TenantId, CtlError> {
        broker
            .find_tenant(name)
            .ok_or_else(|| CtlError::UnknownName(name.to_string()))
    }

    /// Parses a resource tag, surfacing bad tags as unknown names.
    fn broker_resource(tag: &str) -> Result<Resource, CtlError> {
        Resource::parse(tag).ok_or_else(|| CtlError::UnknownName(tag.to_string()))
    }

    /// `broker …`: register tenants, record demand/usage, rebalance, and
    /// report per-tenant per-resource funding and observed shares.
    fn exec_broker(&mut self, action: BrokerAction) -> Result<String, CtlError> {
        match action {
            BrokerAction::Tenant {
                name,
                grant,
                refund,
            } => {
                let broker = self.broker.get_or_insert_with(ResourceBroker::new);
                if broker.find_tenant(&name).is_some() {
                    return Err(CtlError::NameTaken(name));
                }
                let policy = if refund {
                    SplitPolicy::even()
                } else {
                    SplitPolicy::Static([1; 4])
                };
                broker.register_tenant(name.clone(), grant, policy)?;
                Ok(format!(
                    "registered tenant {name}: {grant} base tickets split over \
                     cpu/disk/mem/net ({} split)",
                    if refund { "demand-refund" } else { "static" }
                ))
            }
            BrokerAction::Demand {
                tenant,
                resource,
                units,
            } => {
                let resource = Self::broker_resource(&resource)?;
                let broker = self.broker.get_or_insert_with(ResourceBroker::new);
                let id = Self::broker_tenant(broker, &tenant)?;
                broker.record_demand(id, resource, units);
                Ok(format!(
                    "recorded {units} demand for {tenant} on {}",
                    resource.name()
                ))
            }
            BrokerAction::Use {
                tenant,
                resource,
                units,
            } => {
                let resource = Self::broker_resource(&resource)?;
                let broker = self.broker.get_or_insert_with(ResourceBroker::new);
                let id = Self::broker_tenant(broker, &tenant)?;
                broker.record_usage(id, resource, units);
                Ok(format!(
                    "recorded {units} usage for {tenant} on {}",
                    resource.name()
                ))
            }
            BrokerAction::Rebalance => {
                let broker = self.broker.get_or_insert_with(ResourceBroker::new);
                broker.rebalance()?;
                Ok(format!("rebalanced ({} refunds so far)", broker.refunds()))
            }
            BrokerAction::Report { json } => self.report_broker(json),
        }
    }

    /// `broker [--json]`: per-tenant per-resource funding weights and
    /// observed usage shares, with each tenant's dominant share.
    fn report_broker(&mut self, json: bool) -> Result<String, CtlError> {
        let broker = self.broker.get_or_insert_with(ResourceBroker::new);
        let report = broker.report();
        if json {
            let tenants: Vec<String> = report
                .tenants
                .iter()
                .map(|t| {
                    format!(
                        "{{\"tenant\":{},\"name\":\"{}\",\"grant\":{},\"entitled_share\":{},\
                         \"dominant_share\":{},\"dominant_resource\":\"{}\"}}",
                        t.tenant,
                        json::escape(&t.name),
                        t.grant,
                        json::number(t.entitled_share),
                        json::number(t.dominant_share),
                        json::escape(t.dominant_resource),
                    )
                })
                .collect();
            let rows: Vec<String> = report
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "{{\"tenant\":{},\"resource\":\"{}\",\"funded\":{},\"weight\":{},\
                         \"weight_share\":{},\"usage\":{},\"observed_share\":{}}}",
                        r.tenant,
                        json::escape(r.resource),
                        r.funded,
                        json::number(r.weight),
                        json::number(r.weight_share),
                        r.usage,
                        json::number(r.observed_share),
                    )
                })
                .collect();
            return Ok(format!(
                "{{\"raw\":{},\"tenants\":[{}],\"resources\":[{}]}}",
                report.raw,
                tenants.join(","),
                rows.join(",")
            ));
        }
        let mut out = format!(
            "{:<12} {:<8} {:>6} {:>10} {:>8} {:>10} {:>9}\n",
            "tenant", "resource", "funded", "weight", "share", "usage", "observed"
        );
        for r in &report.rows {
            let name = report
                .tenants
                .iter()
                .find(|t| t.tenant == r.tenant)
                .map(|t| t.name.as_str())
                .unwrap_or("?");
            let _ = writeln!(
                out,
                "{:<12} {:<8} {:>6} {:>10.1} {:>8.3} {:>10} {:>9.3}",
                name,
                r.resource,
                if r.funded { "yes" } else { "no" },
                r.weight,
                r.weight_share,
                r.usage,
                r.observed_share,
            );
        }
        for t in &report.tenants {
            let _ = writeln!(
                out,
                "tenant {} grant={} entitled={:.3} dominant={:.3} ({})",
                t.name, t.grant, t.entitled_share, t.dominant_share, t.dominant_resource
            );
        }
        Ok(out)
    }

    fn name_of(&self, obj: ObjectRef) -> String {
        self.names
            .iter()
            .find(|(_, &o)| o == obj)
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| "?".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(s: &mut Session, line: &str) -> String {
        s.eval(line).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    #[test]
    fn figure3_via_commands() {
        let mut s = Session::new();
        for line in [
            "mkcur alice",
            "mkcur bob",
            "mktkt a_back 1000 base",
            "mktkt b_back 2000 base",
            "fund a_back alice",
            "fund b_back bob",
            "mkcur task2",
            "mktkt t2_back 200 alice",
            "fund t2_back task2",
            "fundx 200 task2 thread2",
            "fundx 300 task2 thread3",
            "fundx 100 bob thread4",
        ] {
            eval(&mut s, line);
        }
        assert_eq!(eval(&mut s, "value thread2"), "400.0");
        assert_eq!(eval(&mut s, "value thread3"), "600.0");
        assert_eq!(eval(&mut s, "value thread4"), "2000.0");
        let ls = eval(&mut s, "lscur");
        assert!(ls.contains("alice"), "{ls}");
        let lp = eval(&mut s, "lsproc");
        assert!(lp.contains("thread2"), "{lp}");
    }

    #[test]
    fn lstkt_filters_by_currency() {
        let mut s = Session::new();
        eval(&mut s, "mkcur work");
        eval(&mut s, "mktkt wb 10 base");
        eval(&mut s, "fund wb work");
        eval(&mut s, "mktkt t1 5 work");
        eval(&mut s, "mktkt t2 7 base");
        let all = eval(&mut s, "lstkt");
        assert!(all.contains("t1") && all.contains("t2"));
        let filtered = eval(&mut s, "lstkt work");
        assert!(
            filtered.contains("t1") && !filtered.contains("t2"),
            "{filtered}"
        );
    }

    #[test]
    fn unfund_and_rmtkt() {
        let mut s = Session::new();
        eval(&mut s, "mkproc p");
        eval(&mut s, "mktkt t 50 base");
        eval(&mut s, "fund t p");
        eval(&mut s, "activate p");
        assert_eq!(eval(&mut s, "value p"), "50.0");
        eval(&mut s, "unfund t");
        assert_eq!(eval(&mut s, "value p"), "0.0");
        eval(&mut s, "rmtkt t");
        assert!(matches!(s.eval("value t"), Err(CtlError::UnknownName(_))));
    }

    #[test]
    fn restricted_currency_blocks_other_principals() {
        let mut root = Session::new();
        root.eval("mkcur -r locked").unwrap();
        // Root can always issue.
        assert!(root.eval("mktkt t 5 locked").is_ok());

        let mut user = Session::with_principal(Principal(7));
        user.eval("mkcur -r mine").unwrap();
        // The creator principal may issue in its own restricted currency.
        assert!(user.eval("mktkt t 5 mine").is_ok());
        // But not in a currency restricted to someone else.
        let mut other = Session::with_principal(Principal(9));
        other.eval("mkcur open").unwrap();
        // Simulate: rebuild the scenario in one session by checking the
        // ledger error path through a restricted currency created by a
        // different principal.
        let mut s = Session::with_principal(Principal(9));
        s.eval("mkcur -r notmine").unwrap();
        // Switch principal mid-session is not a feature; assert at the
        // ledger level instead.
        let cur = match s.lookup("notmine") {
            Some(ObjectRef::Currency(c)) => c,
            _ => unreachable!(),
        };
        assert!(s
            .ledger()
            .currency(cur)
            .unwrap()
            .policy()
            .permits(Principal(9)));
        assert!(!s
            .ledger()
            .currency(cur)
            .unwrap()
            .policy()
            .permits(Principal(8)));
    }

    #[test]
    fn name_collisions_rejected() {
        let mut s = Session::new();
        eval(&mut s, "mkcur x");
        assert!(matches!(s.eval("mkproc x"), Err(CtlError::NameTaken(_))));
    }

    #[test]
    fn wrong_kind_reported() {
        let mut s = Session::new();
        eval(&mut s, "mkproc p");
        assert!(matches!(s.eval("rmcur p"), Err(CtlError::WrongKind { .. })));
        assert!(matches!(
            s.eval("fund p base"),
            Err(CtlError::WrongKind { .. })
        ));
    }

    #[test]
    fn rmcur_in_use_is_ledger_error() {
        let mut s = Session::new();
        eval(&mut s, "mkcur c");
        eval(&mut s, "mktkt t 5 c");
        assert!(matches!(s.eval("rmcur c"), Err(CtlError::Ledger(_))));
        eval(&mut s, "rmtkt t");
        eval(&mut s, "rmcur c");
    }

    #[test]
    fn rmproc_destroys_funding() {
        let mut s = Session::new();
        eval(&mut s, "fundx 100 base worker");
        let before = s.ledger().tickets().count();
        assert_eq!(before, 1);
        eval(&mut s, "rmproc worker");
        assert_eq!(s.ledger().tickets().count(), 0);
    }

    #[test]
    fn help_and_blank_lines() {
        let mut s = Session::new();
        assert!(eval(&mut s, "help").contains("mktkt"));
        assert_eq!(eval(&mut s, ""), "");
        assert_eq!(eval(&mut s, "  # a comment"), "");
    }

    #[test]
    fn errors_display() {
        let e = CtlError::UnknownName("x".into());
        assert!(e.to_string().contains("x"));
        let e = CtlError::Ledger(lottery_core::errors::LotteryError::CurrencyCycle);
        assert!(e.to_string().contains("cycle"));
    }

    #[test]
    fn stat_splits_cache_lookups_and_keeps_them_across_a_trace_toggle() {
        let mut s = Session::new();
        eval(&mut s, "mkcur alice");
        eval(&mut s, "mktkt a 100 base");
        eval(&mut s, "fund a alice");
        eval(&mut s, "fundx 50 alice c");
        eval(&mut s, "fundx 50 alice d");
        // Each switch values both processes through the ledger's cache.
        eval(&mut s, "structure tree");
        eval(&mut s, "structure alias");
        // `trace on` swaps the ledger's bus; the counts so far carry over.
        eval(&mut s, "trace on");
        eval(&mut s, "structure list");
        let stat = eval(&mut s, "stat");
        for line in [
            "lottery_cache_lookups_total{kind=\"client\",result=\"hit\"} 4",
            "lottery_cache_lookups_total{kind=\"client\",result=\"miss\"} 2",
            "lottery_cache_lookups_total{kind=\"currency\",result=\"hit\"} 1",
            "lottery_cache_lookups_total{kind=\"currency\",result=\"miss\"} 1",
            "lottery_cache_hits_total 5",
            "lottery_cache_misses_total 3",
        ] {
            assert!(stat.contains(line), "missing {line:?} in {stat}");
        }
    }

    #[test]
    fn stat_counts_ledger_ops() {
        let mut s = Session::new();
        eval(&mut s, "mkcur alice");
        eval(&mut s, "mktkt a 100 base");
        eval(&mut s, "fund a alice");
        let stat = eval(&mut s, "stat");
        assert!(
            stat.contains("lottery_ledger_ops_total{op=\"create-currency\"} 1"),
            "{stat}"
        );
        assert!(
            stat.contains("lottery_ledger_ops_total{op=\"issue\"} 1"),
            "{stat}"
        );
        assert!(
            stat.contains("lottery_ledger_ops_total{op=\"fund-currency\"} 1"),
            "{stat}"
        );
    }

    #[test]
    fn trace_dump_round_trips_jsonl() {
        let mut s = Session::new();
        eval(&mut s, "mkcur alice");
        // Nothing is retained before tracing is enabled.
        assert_eq!(eval(&mut s, "dump"), "");
        assert!(eval(&mut s, "trace on").contains("tracing on"));
        eval(&mut s, "mktkt a 100 base");
        eval(&mut s, "fund a alice");
        let dump = eval(&mut s, "dump");
        assert!(!dump.is_empty());
        for line in dump.lines() {
            let v = lottery_obs::json::parse(line).expect("dump line parses");
            assert!(v.get("kind").is_some(), "{line}");
        }
        assert!(dump.contains("\"issue\""), "{dump}");
        // `trace off` stops feeding the ring; the retained events remain.
        assert_eq!(eval(&mut s, "trace off"), "tracing off");
        let before = eval(&mut s, "dump");
        eval(&mut s, "mkcur bob");
        assert_eq!(eval(&mut s, "dump"), before);
    }

    #[test]
    fn lscur_json_parses_and_matches_values() {
        let mut s = Session::new();
        eval(&mut s, "mkcur alice");
        eval(&mut s, "mktkt a 1000 base");
        eval(&mut s, "fund a alice");
        eval(&mut s, "fundx 200 alice worker");
        let out = eval(&mut s, "lscur --json");
        let v = lottery_obs::json::parse(&out).expect("lscur --json parses");
        let rows = v.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let alice = rows
            .iter()
            .find(|r| r.get("currency").and_then(|c| c.as_str()) == Some("alice"))
            .unwrap();
        // The JSON path reports the same valuation the `value` verb does.
        let expected: f64 = eval(&mut s, "value alice").parse().unwrap();
        assert_eq!(alice.get("value").and_then(|x| x.as_f64()), Some(expected));
        assert_eq!(alice.get("active").and_then(|x| x.as_f64()), Some(200.0));
    }

    #[test]
    fn shards_partitions_by_ticket_weight() {
        let mut s = Session::new();
        eval(&mut s, "fundx 400 base heavy");
        eval(&mut s, "fundx 200 base mid");
        eval(&mut s, "fundx 100 base light1");
        eval(&mut s, "fundx 100 base light2");
        assert_eq!(
            eval(&mut s, "shards 2"),
            "partitioned 4 processes across 2 shards"
        );
        // Greedy balance: 400 alone, 200+100+100 together.
        let report = eval(&mut s, "shards");
        assert!(report.contains("400.0"), "{report}");
        assert!(report.contains("migrations: 0"), "{report}");
        let out = eval(&mut s, "shards --json");
        let v = lottery_obs::json::parse(&out).expect("shards --json parses");
        let rows = v.get("shards").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let totals: Vec<f64> = rows
            .iter()
            .map(|r| r.get("tickets").and_then(|t| t.as_f64()).unwrap())
            .collect();
        let mut sorted = totals.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![400.0, 400.0]);
        for r in rows {
            assert_eq!(r.get("comp_weight").and_then(|x| x.as_f64()), Some(0.0));
            assert_eq!(
                r.get("compensation_share").and_then(|x| x.as_f64()),
                Some(0.0)
            );
        }
        // Re-partitioning moves already-assigned processes: the ledger
        // counts those as migrations.
        eval(&mut s, "shards 4");
        let report = eval(&mut s, "shards");
        assert!(!report.contains("migrations: 0"), "{report}");
    }

    #[test]
    fn shards_rejects_counts_past_the_cap() {
        let mut s = Session::new();
        eval(&mut s, "fundx 100 base p");
        eval(&mut s, &format!("shards {MAX_SHARDS}"));
        assert_eq!(
            s.eval("shards 4000000000"),
            Err(CtlError::TooManyShards(4_000_000_000))
        );
        // The rejected request left the partition as it was.
        let out = eval(&mut s, "shards --json");
        let v = lottery_obs::json::parse(&out).unwrap();
        assert_eq!(
            v.get("shards").unwrap().as_array().unwrap().len(),
            MAX_SHARDS
        );
    }

    #[test]
    fn compensate_reports_shard_share() {
        let mut s = Session::new();
        eval(&mut s, "fundx 300 base io");
        eval(&mut s, "fundx 300 base hog");
        eval(&mut s, "shards 2");
        // A 20ms quantum used for 5ms: factor 4, extra weight 3x the
        // process's 300-base value on whichever shard homes it, so that
        // shard's compensated total is 1200 and 900/1200 of its lottery
        // pull is compensatory.
        assert_eq!(
            eval(&mut s, "compensate io 5000 20000"),
            "process io compensated 4.00x"
        );
        let out = eval(&mut s, "shards --json");
        let v = lottery_obs::json::parse(&out).expect("shards --json parses");
        let rows = v.get("shards").unwrap().as_array().unwrap();
        let weights: Vec<f64> = rows
            .iter()
            .map(|r| r.get("comp_weight").and_then(|x| x.as_f64()).unwrap())
            .collect();
        let shares: Vec<f64> = rows
            .iter()
            .map(|r| {
                r.get("compensation_share")
                    .and_then(|x| x.as_f64())
                    .unwrap()
            })
            .collect();
        let mut w = weights.clone();
        w.sort_by(f64::total_cmp);
        assert_eq!(w, vec![0.0, 900.0], "{out}");
        // Extra 900 over the shard's compensated total 1200: share 0.75.
        assert!(shares.iter().any(|&x| (x - 0.75).abs() < 1e-9), "{out}");
        let table = eval(&mut s, "shards");
        assert!(table.contains("comp share"), "{table}");
        assert!(table.contains("900.0"), "{table}");
        // Equal used/quantum clears the factor and the shard weight.
        assert_eq!(
            eval(&mut s, "compensate io 20000 20000"),
            "process io compensation cleared"
        );
        let out = eval(&mut s, "shards --json");
        assert!(!out.contains("900"), "{out}");
    }

    #[test]
    fn broker_verbs_report_funding_and_dominant_share() {
        let mut s = Session::new();
        eval(&mut s, "broker tenant gold 2000");
        eval(&mut s, "broker tenant silver 1000");
        eval(&mut s, "broker use gold disk 800");
        eval(&mut s, "broker use silver disk 400");
        eval(&mut s, "broker use gold cpu 100");
        let text = eval(&mut s, "broker");
        assert!(text.contains("gold"), "{text}");
        assert!(text.contains("dominant"), "{text}");

        let out = eval(&mut s, "broker --json");
        assert!(out.contains("\"dominant_share\":"), "{out}");
        let v = lottery_obs::json::parse(&out).expect("broker --json parses");
        let tenants = v.get("tenants").and_then(|t| t.as_array()).unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            tenants[0].get("name").and_then(|n| n.as_str()),
            Some("gold")
        );
        // Gold's dominant share: 800 of 1200 disk units and 100 of 100
        // cpu units -> cpu at 1.0 dominates.
        assert_eq!(
            tenants[0].get("dominant_resource").and_then(|r| r.as_str()),
            Some("cpu")
        );
        let rows = v.get("resources").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 8);
        let gold_disk = rows
            .iter()
            .find(|r| {
                r.get("resource").and_then(|x| x.as_str()) == Some("disk")
                    && r.get("tenant").and_then(|t| t.as_f64()) == Some(0.0)
            })
            .unwrap();
        let share = gold_disk
            .get("observed_share")
            .and_then(|x| x.as_f64())
            .unwrap();
        assert!((share - 800.0 / 1200.0).abs() < 1e-9, "{share}");
    }

    #[test]
    fn broker_rebalance_refunds_idle_resources() {
        let mut s = Session::new();
        eval(&mut s, "broker tenant gold 2000");
        eval(&mut s, "broker tenant silver 1000");
        // Silver demands everything but net; rebalance refunds its net
        // share back to the grant, re-pricing the active resources.
        for r in ["cpu", "disk", "mem"] {
            eval(&mut s, &format!("broker demand silver {r} 1"));
        }
        for r in ["cpu", "disk", "mem", "net"] {
            eval(&mut s, &format!("broker demand gold {r} 1"));
        }
        let out = eval(&mut s, "broker rebalance");
        assert!(out.contains("1 refunds"), "{out}");
        let v = lottery_obs::json::parse(&eval(&mut s, "broker --json")).unwrap();
        let rows = v.get("resources").and_then(|r| r.as_array()).unwrap();
        let silver_net = rows
            .iter()
            .find(|r| {
                r.get("resource").and_then(|x| x.as_str()) == Some("net")
                    && r.get("tenant").and_then(|t| t.as_f64()) == Some(1.0)
            })
            .unwrap();
        assert_eq!(
            silver_net.get("funded"),
            Some(&lottery_obs::json::Value::Bool(false))
        );
        let silver_cpu = rows
            .iter()
            .find(|r| {
                r.get("resource").and_then(|x| x.as_str()) == Some("cpu")
                    && r.get("tenant").and_then(|t| t.as_f64()) == Some(1.0)
            })
            .unwrap();
        let w = silver_cpu.get("weight").and_then(|x| x.as_f64()).unwrap();
        assert!((w - 1000.0 / 3.0).abs() < 1e-6, "{w}");
    }

    #[test]
    fn broker_rejects_bad_names() {
        let mut s = Session::new();
        eval(&mut s, "broker tenant gold 2000");
        assert!(matches!(
            s.eval("broker tenant gold 500"),
            Err(CtlError::NameTaken(_))
        ));
        assert!(matches!(
            s.eval("broker use nobody cpu 1"),
            Err(CtlError::UnknownName(_))
        ));
        assert!(matches!(
            s.eval("broker use gold tape 1"),
            Err(CtlError::UnknownName(_))
        ));
    }

    #[test]
    fn structure_verb_switches_and_reports() {
        let mut s = Session::new();
        assert_eq!(eval(&mut s, "structure"), "structure list: no rebuild yet");
        eval(&mut s, "fundx 300 base a");
        eval(&mut s, "fundx 100 base b");
        let out = eval(&mut s, "structure alias");
        assert!(out.contains("structure alias"), "{out}");
        assert!(out.contains("2 processes"), "{out}");
        assert!(out.contains("400.0 base tickets"), "{out}");
        // Funding churn between switches lands in the dirty queue; the
        // next rebuild drains it as the stale set.
        eval(&mut s, "mktkt extra 100 base");
        eval(&mut s, "fund extra a");
        let out = eval(&mut s, "structure tree --json");
        let v = lottery_obs::json::parse(&out).expect("structure --json parses");
        assert_eq!(
            v.get("structure").and_then(|x| x.as_str()),
            Some("tree"),
            "{out}"
        );
        assert_eq!(v.get("clients").and_then(|x| x.as_f64()), Some(2.0));
        assert!(
            v.get("stale").and_then(|x| x.as_f64()).unwrap() >= 1.0,
            "{out}"
        );
        assert!(
            v.get("rebuild_ns").and_then(|x| x.as_f64()).unwrap() > 0.0,
            "{out}"
        );
        // A bare report repeats the last rebuild without redoing it.
        assert_eq!(eval(&mut s, "structure --json"), out);
        // Both switches were counted by the session aggregator.
        let stat = eval(&mut s, "stat");
        assert!(
            stat.contains("lottery_structure_rebuilds_total 2"),
            "{stat}"
        );
        assert!(stat.contains("lottery_structure_rebuild_ns_mean"), "{stat}");
    }

    #[test]
    fn lstkt_json_respects_filter() {
        let mut s = Session::new();
        eval(&mut s, "mkcur work");
        eval(&mut s, "mktkt wb 10 base");
        eval(&mut s, "fund wb work");
        eval(&mut s, "mktkt t1 5 work");
        let out = eval(&mut s, "lstkt work --json");
        let v = lottery_obs::json::parse(&out).expect("lstkt --json parses");
        let rows = v.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("ticket").and_then(|t| t.as_str()), Some("t1"));
        assert_eq!(rows[0].get("funds").and_then(|f| f.as_str()), Some("-"));
    }

    /// Records a tiny two-tenant capture and writes it next to `target/`.
    fn capture_file(name: &str, tamper: bool) -> std::path::PathBuf {
        use lottery_obs::{CurrencySnapshot, TraceJob, TraceSpec};
        use lottery_sim::replay::{record, CaptureConfig};
        let spec = TraceSpec {
            currencies: vec![CurrencySnapshot {
                name: "web".to_string(),
                amount: 300,
            }],
            jobs: vec![
                TraceJob {
                    arrival_us: 0,
                    service_us: 4_000,
                    sleep_us: 0,
                    tenant: "web".to_string(),
                    tickets: 200,
                },
                TraceJob {
                    arrival_us: 1_500,
                    service_us: 3_000,
                    sleep_us: 1_000,
                    tenant: "base".to_string(),
                    tickets: 100,
                },
            ],
        };
        let config = CaptureConfig {
            quantum_us: 1_000,
            until_us: 50_000,
            ..CaptureConfig::default()
        };
        let mut log = record(spec, &config).expect("capture records");
        if tamper {
            let at = log.events.len() / 2;
            log.events[at].time_us += 3;
        }
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, log.to_jsonl()).expect("capture writes");
        path
    }

    #[test]
    fn replay_verb_confirms_bit_exact_capture() {
        let path = capture_file("lotteryctl-replay-exact.jsonl", false);
        let mut s = Session::new();
        let out = eval(&mut s, &format!("replay {}", path.display()));
        assert!(out.contains("replay: bit-exact"), "{out}");
        assert!(out.contains("structure=list shards=0"), "{out}");
        let out = eval(&mut s, &format!("replay {} --json", path.display()));
        let v = lottery_obs::json::parse(&out).expect("replay --json parses");
        assert_eq!(v.get("bit_exact").and_then(|b| b.as_bool()), Some(true));
        assert!(
            matches!(v.get("divergence"), Some(json::Value::Null)),
            "{out}"
        );
        assert_eq!(
            v.get("recorded").and_then(|n| n.as_f64()),
            v.get("replayed").and_then(|n| n.as_f64()),
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replay_verb_reports_divergence_with_both_sides() {
        let path = capture_file("lotteryctl-replay-diverged.jsonl", true);
        let mut s = Session::new();
        let out = eval(&mut s, &format!("replay {}", path.display()));
        assert!(out.contains("replay: DIVERGED at event"), "{out}");
        assert!(out.contains("recorded:"), "{out}");
        assert!(out.contains("replayed:"), "{out}");
        let out = eval(&mut s, &format!("replay {} --json", path.display()));
        let v = lottery_obs::json::parse(&out).expect("replay --json parses");
        assert_eq!(v.get("bit_exact").and_then(|b| b.as_bool()), Some(false));
        let d = v.get("divergence").expect("divergence present");
        assert!(d.get("index").and_then(|i| i.as_f64()).is_some(), "{out}");
        assert!(d.get("recorded").unwrap().get("kind").is_some(), "{out}");
        assert!(d.get("replayed").unwrap().get("kind").is_some(), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replay_verb_accepts_external_trace_files() {
        use lottery_obs::{CurrencySnapshot, TraceJob, TraceSpec};
        let spec = TraceSpec {
            currencies: vec![CurrencySnapshot {
                name: "web".to_string(),
                amount: 300,
            }],
            jobs: vec![
                TraceJob {
                    arrival_us: 0,
                    service_us: 4_000,
                    sleep_us: 0,
                    tenant: "web".to_string(),
                    tickets: 200,
                },
                TraceJob {
                    arrival_us: 1_500,
                    service_us: 3_000,
                    sleep_us: 1_000,
                    tenant: "base".to_string(),
                    tickets: 100,
                },
            ],
        };
        let path = std::env::temp_dir().join("lotteryctl-trace-corpus.jsonl");
        std::fs::write(&path, spec.to_jsonl()).unwrap();
        let mut s = Session::new();
        let out = eval(&mut s, &format!("replay {}", path.display()));
        assert!(out.contains("trace"), "{out}");
        assert!(out.contains("1 currencies, 2 jobs"), "{out}");
        assert!(out.contains("self-replay: bit-exact"), "{out}");
        let out = eval(&mut s, &format!("replay {} --json", path.display()));
        let v = lottery_obs::json::parse(&out).expect("trace replay --json parses");
        assert_eq!(v.get("trace").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(v.get("jobs").and_then(|n| n.as_f64()), Some(2.0));
        assert_eq!(v.get("bit_exact").and_then(|b| b.as_bool()), Some(true));
        assert!(v.get("captured").and_then(|n| n.as_f64()).unwrap() > 0.0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replay_verb_surfaces_read_and_parse_errors() {
        let mut s = Session::new();
        assert!(matches!(
            s.eval("replay /nonexistent/capture.jsonl"),
            Err(CtlError::Replay(_))
        ));
        let path = std::env::temp_dir().join("lotteryctl-replay-garbage.jsonl");
        std::fs::write(&path, "not a capture\n").unwrap();
        assert!(matches!(
            s.eval(&format!("replay {}", path.display())),
            Err(CtlError::Replay(_))
        ));
        let _ = std::fs::remove_file(path);
    }
}
