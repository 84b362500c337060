//! Command-line grammar for the Section 4.7 interface.

use core::fmt;

/// A parsed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Blank line or comment.
    Nop,
    /// Print the command reference.
    Help,
    /// `mkcur [-r] <name>` — create a currency (`-r`: only this principal
    /// may issue tickets in it).
    MkCur {
        /// Currency name.
        name: String,
        /// Restrict issuing to the session principal.
        restricted: bool,
    },
    /// `rmcur <name>` — destroy an empty currency.
    RmCur {
        /// Currency name.
        name: String,
    },
    /// `mktkt <name> <amount> <currency>` — issue a ticket.
    MkTkt {
        /// Ticket name.
        name: String,
        /// Face amount.
        amount: u64,
        /// Denomination currency name.
        currency: String,
    },
    /// `rmtkt <name>` — destroy a ticket.
    RmTkt {
        /// Ticket name.
        name: String,
    },
    /// `fund <ticket> <currency|process>` — use a ticket to fund a target.
    Fund {
        /// Ticket name.
        ticket: String,
        /// Target name.
        target: String,
    },
    /// `unfund <ticket>` — remove a ticket from whatever it funds.
    Unfund {
        /// Ticket name.
        ticket: String,
    },
    /// `mkproc <name>` — create an (inactive) process.
    MkProc {
        /// Process name.
        name: String,
    },
    /// `rmproc <name>` — destroy a process and its funding.
    RmProc {
        /// Process name.
        name: String,
    },
    /// `activate <process>` / `deactivate <process>`.
    Activate {
        /// Process name.
        name: String,
    },
    /// See [`Command::Activate`].
    Deactivate {
        /// Process name.
        name: String,
    },
    /// `fundx <amount> <currency> <name>` — launch a process with the
    /// given funding (the paper's `fundx` shell wrapper).
    FundX {
        /// Process name.
        name: String,
        /// Ticket amount.
        amount: u64,
        /// Denomination currency name.
        currency: String,
    },
    /// `lscur [--json]` — list currencies.
    LsCur {
        /// Emit machine-readable JSON instead of a table.
        json: bool,
    },
    /// `lstkt [currency] [--json]` — list tickets, optionally filtered.
    LsTkt {
        /// Optional denomination filter.
        currency: Option<String>,
        /// Emit machine-readable JSON instead of a table.
        json: bool,
    },
    /// `lsproc` — list processes.
    LsProc,
    /// `value <name>` — base-unit value of any object.
    Value {
        /// Object name.
        name: String,
    },
    /// `dot` — render the whole ledger as Graphviz.
    Dot,
    /// `stat` — Prometheus-style snapshot of the session's probe
    /// aggregator (ledger-op counters, cache hit rates).
    Stat,
    /// `trace on|off` — toggle the session flight recorder.
    Trace {
        /// `true` for `trace on`.
        on: bool,
    },
    /// `dump` — replay the flight recorder as JSONL, one event per line.
    Dump,
    /// `compensate <process> <used> <quantum>` — grant a Section 4.5
    /// compensation factor of `quantum / used` (microseconds); equal
    /// values clear it.
    Compensate {
        /// Process name.
        name: String,
        /// Microseconds of the quantum actually used.
        used: u64,
        /// The full quantum in microseconds.
        quantum: u64,
    },
    /// `shards <n>` — partition processes across `n` dirty-notification
    /// shards; `shards [--json]` — per-shard process counts, ticket and
    /// compensation totals, queue depths, and the migration count.
    Shards {
        /// Re-partition across this many shards (`None`: just report).
        count: Option<usize>,
        /// Emit machine-readable JSON instead of a table.
        json: bool,
    },
    /// `broker …` — drive the session's multi-resource broker.
    Broker {
        /// The broker sub-verb.
        action: BrokerAction,
    },
    /// `replay <file> [--json]` — re-execute a recorded capture
    /// (`ReplayLog` JSONL, as written by `ReplayLog::to_jsonl` — the
    /// replay goldens under `crates/sim/tests/data/` are such files — or by
    /// `FlightRecorder::to_replay_log`) and report the first divergence,
    /// if any. The file may instead be an external workload trace
    /// (`TraceSpec` JSONL, header `{"trace":1,...}`): the trace is
    /// captured under the default configuration, self-replayed, and
    /// diffed the same way.
    Replay {
        /// Path to the capture or trace file.
        path: String,
        /// Emit machine-readable JSON instead of text.
        json: bool,
    },
    /// `structure [list|tree|alias] [--json]` — switch the winner-search
    /// structure the session rebuilds over its active processes (Section
    /// 4.2: list scan, partial-sum tree, or the O(1) alias sampler) and
    /// report the rebuild statistics; with no kind, just report.
    Structure {
        /// Switch to this structure (`None`: just report).
        kind: Option<StructureKind>,
        /// Emit machine-readable JSON instead of a table.
        json: bool,
    },
}

/// A Section 4.2 winner-search structure, as named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// O(n) list scan.
    List,
    /// O(log n) partial-sum tree.
    Tree,
    /// O(1) alias sampler.
    Alias,
}

impl StructureKind {
    /// The command-line (and probe-event) tag.
    pub fn name(self) -> &'static str {
        match self {
            Self::List => "list",
            Self::Tree => "tree",
            Self::Alias => "alias",
        }
    }

    fn parse(tag: &str) -> Option<Self> {
        match tag {
            "list" => Some(Self::List),
            "tree" => Some(Self::Tree),
            "alias" => Some(Self::Alias),
            _ => None,
        }
    }
}

/// Sub-verbs of [`Command::Broker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerAction {
    /// `broker tenant <name> <grant> [static]` — register a tenant with a
    /// base-currency grant split across cpu/disk/mem/net (demand-refund
    /// split unless `static`).
    Tenant {
        /// Tenant name.
        name: String,
        /// Base-currency grant.
        grant: u64,
        /// Refund idle resources back to the grant on `rebalance`.
        refund: bool,
    },
    /// `broker demand <tenant> <resource> <units>` — record demand ahead
    /// of the next rebalance.
    Demand {
        /// Tenant name.
        tenant: String,
        /// Resource tag (`cpu`, `disk`, `mem`, `net`).
        resource: String,
        /// Demand units.
        units: u64,
    },
    /// `broker use <tenant> <resource> <units>` — record observed usage.
    Use {
        /// Tenant name.
        tenant: String,
        /// Resource tag (`cpu`, `disk`, `mem`, `net`).
        resource: String,
        /// Usage units.
        units: u64,
    },
    /// `broker rebalance` — refund idle resources, restore demanded ones.
    Rebalance,
    /// `broker [--json]` — per-tenant per-resource funding and
    /// observed-share report.
    Report {
        /// Emit machine-readable JSON instead of a table.
        json: bool,
    },
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The verb is not recognized.
    UnknownVerb(String),
    /// Wrong number or shape of arguments.
    Usage(&'static str),
    /// An amount did not parse as a positive integer.
    BadAmount(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownVerb(v) => write!(f, "unknown command {v:?} (try `help`)"),
            Self::Usage(u) => write!(f, "usage: {u}"),
            Self::BadAmount(a) => write!(f, "bad amount {a:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl Command {
    /// The `help` text.
    pub const HELP: &'static str = "\
commands (Section 4.7 of the paper):
  mkcur [-r] <name>                create a currency (-r: restricted issue)
  rmcur <name>                     destroy an empty currency
  mktkt <name> <amount> <currency> issue a ticket
  rmtkt <name>                     destroy a ticket
  fund <ticket> <target>           fund a currency or process
  unfund <ticket>                  withdraw a ticket
  mkproc <name>                    create an inactive process
  rmproc <name>                    destroy a process and its tickets
  activate <process>               mark a process runnable
  deactivate <process>             mark a process blocked
  compensate <proc> <used> <quantum>  grant a q/used compensation factor (us)
  fundx <amount> <currency> <name> launch a process with funding
  lscur [--json] | lstkt [currency] [--json] | lsproc  inspect objects
  value <name>                     base-unit value of any object
  dot                              render the ledger as Graphviz
  stat                             probe-counter snapshot (Prometheus text)
  trace on|off                     toggle the session flight recorder
  dump                             flight-recorder events as JSONL
  replay <file> [--json]           re-run a capture (or capture a trace file), diff the streams
  shards [<n>|--json]              partition processes across n dirty shards / report
  structure [list|tree|alias] [--json]  switch the winner-search structure / report rebuild stats
  broker tenant <name> <grant> [static]  register a tenant grant split over cpu/disk/mem/net
  broker demand <tenant> <resource> <units>  record demand before a rebalance
  broker use <tenant> <resource> <units>     record observed usage
  broker rebalance                 refund idle resources, restore demanded ones
  broker [--json]                  per-tenant funding and observed-share report
  help                             this text";

    /// Parses one line. Blank lines and `#` comments are [`Command::Nop`].
    pub fn parse(line: &str) -> Result<Command, ParseError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(Command::Nop);
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let amount = |s: &str| -> Result<u64, ParseError> {
            s.parse::<u64>()
                .ok()
                .filter(|&a| a > 0)
                .ok_or_else(|| ParseError::BadAmount(s.to_string()))
        };
        match tokens.as_slice() {
            ["help"] => Ok(Command::Help),
            ["mkcur", "-r", name] => Ok(Command::MkCur {
                name: name.to_string(),
                restricted: true,
            }),
            ["mkcur", name] => Ok(Command::MkCur {
                name: name.to_string(),
                restricted: false,
            }),
            ["mkcur", ..] => Err(ParseError::Usage("mkcur [-r] <name>")),
            ["rmcur", name] => Ok(Command::RmCur {
                name: name.to_string(),
            }),
            ["rmcur", ..] => Err(ParseError::Usage("rmcur <name>")),
            ["mktkt", name, amt, currency] => Ok(Command::MkTkt {
                name: name.to_string(),
                amount: amount(amt)?,
                currency: currency.to_string(),
            }),
            ["mktkt", ..] => Err(ParseError::Usage("mktkt <name> <amount> <currency>")),
            ["rmtkt", name] => Ok(Command::RmTkt {
                name: name.to_string(),
            }),
            ["rmtkt", ..] => Err(ParseError::Usage("rmtkt <name>")),
            ["fund", ticket, target] => Ok(Command::Fund {
                ticket: ticket.to_string(),
                target: target.to_string(),
            }),
            ["fund", ..] => Err(ParseError::Usage("fund <ticket> <target>")),
            ["unfund", ticket] => Ok(Command::Unfund {
                ticket: ticket.to_string(),
            }),
            ["unfund", ..] => Err(ParseError::Usage("unfund <ticket>")),
            ["mkproc", name] => Ok(Command::MkProc {
                name: name.to_string(),
            }),
            ["mkproc", ..] => Err(ParseError::Usage("mkproc <name>")),
            ["rmproc", name] => Ok(Command::RmProc {
                name: name.to_string(),
            }),
            ["rmproc", ..] => Err(ParseError::Usage("rmproc <name>")),
            ["activate", name] => Ok(Command::Activate {
                name: name.to_string(),
            }),
            ["deactivate", name] => Ok(Command::Deactivate {
                name: name.to_string(),
            }),
            ["fundx", amt, currency, name] => Ok(Command::FundX {
                name: name.to_string(),
                amount: amount(amt)?,
                currency: currency.to_string(),
            }),
            ["fundx", ..] => Err(ParseError::Usage("fundx <amount> <currency> <name>")),
            ["lscur"] => Ok(Command::LsCur { json: false }),
            ["lscur", "--json"] => Ok(Command::LsCur { json: true }),
            ["lscur", ..] => Err(ParseError::Usage("lscur [--json]")),
            ["lstkt"] => Ok(Command::LsTkt {
                currency: None,
                json: false,
            }),
            ["lstkt", "--json"] => Ok(Command::LsTkt {
                currency: None,
                json: true,
            }),
            ["lstkt", currency, "--json"] | ["lstkt", "--json", currency] => Ok(Command::LsTkt {
                currency: Some(currency.to_string()),
                json: true,
            }),
            ["lstkt", currency] => Ok(Command::LsTkt {
                currency: Some(currency.to_string()),
                json: false,
            }),
            ["lstkt", ..] => Err(ParseError::Usage("lstkt [currency] [--json]")),
            ["lsproc"] => Ok(Command::LsProc),
            ["dot"] => Ok(Command::Dot),
            ["stat"] => Ok(Command::Stat),
            ["trace", "on"] => Ok(Command::Trace { on: true }),
            ["trace", "off"] => Ok(Command::Trace { on: false }),
            ["trace", ..] => Err(ParseError::Usage("trace on|off")),
            ["dump"] => Ok(Command::Dump),
            ["replay", path] => Ok(Command::Replay {
                path: path.to_string(),
                json: false,
            }),
            ["replay", path, "--json"] | ["replay", "--json", path] => Ok(Command::Replay {
                path: path.to_string(),
                json: true,
            }),
            ["replay", ..] => Err(ParseError::Usage("replay <file> [--json]")),
            ["compensate", name, used, quantum] => Ok(Command::Compensate {
                name: name.to_string(),
                used: amount(used)?,
                quantum: amount(quantum)?,
            }),
            ["compensate", ..] => Err(ParseError::Usage("compensate <process> <used> <quantum>")),
            ["shards"] => Ok(Command::Shards {
                count: None,
                json: false,
            }),
            ["shards", "--json"] => Ok(Command::Shards {
                count: None,
                json: true,
            }),
            ["shards", n] => Ok(Command::Shards {
                count: Some(amount(n)? as usize),
                json: false,
            }),
            ["shards", ..] => Err(ParseError::Usage("shards [<n>|--json]")),
            ["structure"] => Ok(Command::Structure {
                kind: None,
                json: false,
            }),
            ["structure", "--json"] => Ok(Command::Structure {
                kind: None,
                json: true,
            }),
            ["structure", k] if StructureKind::parse(k).is_some() => Ok(Command::Structure {
                kind: StructureKind::parse(k),
                json: false,
            }),
            ["structure", k, "--json"] if StructureKind::parse(k).is_some() => {
                Ok(Command::Structure {
                    kind: StructureKind::parse(k),
                    json: true,
                })
            }
            ["structure", ..] => Err(ParseError::Usage("structure [list|tree|alias] [--json]")),
            ["broker"] => Ok(Command::Broker {
                action: BrokerAction::Report { json: false },
            }),
            ["broker", "--json"] => Ok(Command::Broker {
                action: BrokerAction::Report { json: true },
            }),
            ["broker", "tenant", name, grant] => Ok(Command::Broker {
                action: BrokerAction::Tenant {
                    name: name.to_string(),
                    grant: amount(grant)?,
                    refund: true,
                },
            }),
            ["broker", "tenant", name, grant, "static"] => Ok(Command::Broker {
                action: BrokerAction::Tenant {
                    name: name.to_string(),
                    grant: amount(grant)?,
                    refund: false,
                },
            }),
            ["broker", "demand", tenant, resource, units] => Ok(Command::Broker {
                action: BrokerAction::Demand {
                    tenant: tenant.to_string(),
                    resource: resource.to_string(),
                    units: amount(units)?,
                },
            }),
            ["broker", "use", tenant, resource, units] => Ok(Command::Broker {
                action: BrokerAction::Use {
                    tenant: tenant.to_string(),
                    resource: resource.to_string(),
                    units: amount(units)?,
                },
            }),
            ["broker", "rebalance"] => Ok(Command::Broker {
                action: BrokerAction::Rebalance,
            }),
            ["broker", ..] => Err(ParseError::Usage(
                "broker [--json] | broker tenant <name> <grant> [static] | \
                 broker demand|use <tenant> <resource> <units> | broker rebalance",
            )),
            ["value", name] => Ok(Command::Value {
                name: name.to_string(),
            }),
            ["value", ..] => Err(ParseError::Usage("value <name>")),
            [verb, ..] => Err(ParseError::UnknownVerb(verb.to_string())),
            [] => Ok(Command::Nop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(Command::parse("help"), Ok(Command::Help));
        assert_eq!(
            Command::parse("mkcur alice"),
            Ok(Command::MkCur {
                name: "alice".into(),
                restricted: false
            })
        );
        assert_eq!(
            Command::parse("mkcur -r alice"),
            Ok(Command::MkCur {
                name: "alice".into(),
                restricted: true
            })
        );
        assert_eq!(
            Command::parse("mktkt t 100 alice"),
            Ok(Command::MkTkt {
                name: "t".into(),
                amount: 100,
                currency: "alice".into()
            })
        );
        assert_eq!(
            Command::parse("fundx 300 bob job"),
            Ok(Command::FundX {
                name: "job".into(),
                amount: 300,
                currency: "bob".into()
            })
        );
        assert_eq!(
            Command::parse("lstkt bob"),
            Ok(Command::LsTkt {
                currency: Some("bob".into()),
                json: false
            })
        );
    }

    #[test]
    fn parses_observability_verbs() {
        assert_eq!(Command::parse("stat"), Ok(Command::Stat));
        assert_eq!(Command::parse("trace on"), Ok(Command::Trace { on: true }));
        assert_eq!(
            Command::parse("trace off"),
            Ok(Command::Trace { on: false })
        );
        assert!(matches!(
            Command::parse("trace maybe"),
            Err(ParseError::Usage(_))
        ));
        assert_eq!(Command::parse("dump"), Ok(Command::Dump));
    }

    #[test]
    fn parses_replay() {
        assert_eq!(
            Command::parse("replay capture.jsonl"),
            Ok(Command::Replay {
                path: "capture.jsonl".into(),
                json: false
            })
        );
        assert_eq!(
            Command::parse("replay capture.jsonl --json"),
            Ok(Command::Replay {
                path: "capture.jsonl".into(),
                json: true
            })
        );
        assert_eq!(
            Command::parse("replay --json capture.jsonl"),
            Ok(Command::Replay {
                path: "capture.jsonl".into(),
                json: true
            })
        );
        assert!(matches!(
            Command::parse("replay"),
            Err(ParseError::Usage(_))
        ));
        assert!(matches!(
            Command::parse("replay a b"),
            Err(ParseError::UnknownVerb(_)) | Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn parses_broker() {
        assert_eq!(
            Command::parse("broker"),
            Ok(Command::Broker {
                action: BrokerAction::Report { json: false }
            })
        );
        assert_eq!(
            Command::parse("broker --json"),
            Ok(Command::Broker {
                action: BrokerAction::Report { json: true }
            })
        );
        assert_eq!(
            Command::parse("broker tenant gold 2000"),
            Ok(Command::Broker {
                action: BrokerAction::Tenant {
                    name: "gold".into(),
                    grant: 2000,
                    refund: true
                }
            })
        );
        assert_eq!(
            Command::parse("broker tenant gold 2000 static"),
            Ok(Command::Broker {
                action: BrokerAction::Tenant {
                    name: "gold".into(),
                    grant: 2000,
                    refund: false
                }
            })
        );
        assert_eq!(
            Command::parse("broker use gold disk 800"),
            Ok(Command::Broker {
                action: BrokerAction::Use {
                    tenant: "gold".into(),
                    resource: "disk".into(),
                    units: 800
                }
            })
        );
        assert_eq!(
            Command::parse("broker demand gold cpu 1"),
            Ok(Command::Broker {
                action: BrokerAction::Demand {
                    tenant: "gold".into(),
                    resource: "cpu".into(),
                    units: 1
                }
            })
        );
        assert_eq!(
            Command::parse("broker rebalance"),
            Ok(Command::Broker {
                action: BrokerAction::Rebalance
            })
        );
        assert!(matches!(
            Command::parse("broker tenant gold"),
            Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn parses_shards() {
        assert_eq!(
            Command::parse("shards"),
            Ok(Command::Shards {
                count: None,
                json: false
            })
        );
        assert_eq!(
            Command::parse("shards --json"),
            Ok(Command::Shards {
                count: None,
                json: true
            })
        );
        assert_eq!(
            Command::parse("shards 4"),
            Ok(Command::Shards {
                count: Some(4),
                json: false
            })
        );
        assert!(matches!(
            Command::parse("shards 0"),
            Err(ParseError::BadAmount(_))
        ));
        assert!(matches!(
            Command::parse("shards 2 --json"),
            Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn parses_structure() {
        assert_eq!(
            Command::parse("structure"),
            Ok(Command::Structure {
                kind: None,
                json: false
            })
        );
        assert_eq!(
            Command::parse("structure --json"),
            Ok(Command::Structure {
                kind: None,
                json: true
            })
        );
        assert_eq!(
            Command::parse("structure alias"),
            Ok(Command::Structure {
                kind: Some(StructureKind::Alias),
                json: false
            })
        );
        assert_eq!(
            Command::parse("structure tree --json"),
            Ok(Command::Structure {
                kind: Some(StructureKind::Tree),
                json: true
            })
        );
        assert!(matches!(
            Command::parse("structure heap"),
            Err(ParseError::Usage(_))
        ));
        assert!(matches!(
            Command::parse("structure list tree"),
            Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn parses_compensate() {
        assert_eq!(
            Command::parse("compensate io 5000 20000"),
            Ok(Command::Compensate {
                name: "io".into(),
                used: 5000,
                quantum: 20000
            })
        );
        assert!(matches!(
            Command::parse("compensate io"),
            Err(ParseError::Usage(_))
        ));
        assert!(matches!(
            Command::parse("compensate io x 20000"),
            Err(ParseError::BadAmount(_))
        ));
    }

    #[test]
    fn parses_json_flags() {
        assert_eq!(
            Command::parse("lscur --json"),
            Ok(Command::LsCur { json: true })
        );
        assert_eq!(
            Command::parse("lstkt --json"),
            Ok(Command::LsTkt {
                currency: None,
                json: true
            })
        );
        assert_eq!(
            Command::parse("lstkt bob --json"),
            Ok(Command::LsTkt {
                currency: Some("bob".into()),
                json: true
            })
        );
        assert_eq!(
            Command::parse("lstkt --json bob"),
            Ok(Command::LsTkt {
                currency: Some("bob".into()),
                json: true
            })
        );
        assert!(matches!(
            Command::parse("lscur bob"),
            Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn comments_and_blanks_are_nops() {
        assert_eq!(Command::parse(""), Ok(Command::Nop));
        assert_eq!(Command::parse("   "), Ok(Command::Nop));
        assert_eq!(Command::parse("# hello"), Ok(Command::Nop));
    }

    #[test]
    fn bad_amounts_rejected() {
        assert!(matches!(
            Command::parse("mktkt t zero base"),
            Err(ParseError::BadAmount(_))
        ));
        assert!(matches!(
            Command::parse("mktkt t 0 base"),
            Err(ParseError::BadAmount(_))
        ));
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(
            Command::parse("mktkt t"),
            Err(ParseError::Usage(_))
        ));
        assert!(matches!(
            Command::parse("bogus x"),
            Err(ParseError::UnknownVerb(_))
        ));
    }

    #[test]
    fn errors_display() {
        assert!(ParseError::UnknownVerb("x".into())
            .to_string()
            .contains("x"));
        assert!(ParseError::Usage("u").to_string().contains("u"));
        assert!(ParseError::BadAmount("y".into()).to_string().contains("y"));
    }
}
