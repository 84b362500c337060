//! Graphviz export of the currency graph.
//!
//! Figures 2 and 3 of the paper are drawings of the ticket/currency
//! object graph; [`to_dot`] renders any ledger in the same shape for
//! `dot -Tsvg`. Currencies are boxes (with active/total amounts and their
//! base value), clients are ellipses (with their value), and each ticket
//! is an edge from its denomination currency to its funding target,
//! labelled with its amount; inactive tickets are dashed.

use crate::ledger::{Ledger, Valuator};
use crate::ticket::FundingTarget;

/// Renders the ledger as a Graphviz `digraph`.
pub fn to_dot(ledger: &Ledger) -> String {
    let mut v = Valuator::new(ledger);
    let mut out = String::from("digraph currencies {\n  rankdir=TB;\n");

    for (id, cur) in ledger.currencies() {
        let value = v.currency_value(id).unwrap_or(0.0);
        out.push_str(&format!(
            "  cur{} [shape=box, label=\"{}\\n{} active / {} issued\\nvalue {:.0}\"];\n",
            id.index(),
            escape(cur.name()),
            cur.active_amount(),
            cur.total_amount(),
            value,
        ));
    }
    for (id, client) in ledger.clients() {
        let value = v.client_value(id).unwrap_or(0.0);
        let style = if client.is_active() {
            "solid"
        } else {
            "dashed"
        };
        out.push_str(&format!(
            "  cli{} [shape=ellipse, style={}, label=\"{}\\nvalue {:.0}\"];\n",
            id.index(),
            style,
            escape(ledger.client_name(id)),
            value,
        ));
    }
    for (id, ticket) in ledger.tickets() {
        let style = if ticket.is_active() {
            "solid"
        } else {
            "dashed"
        };
        let target = match ticket.target() {
            FundingTarget::Currency(c) => format!("cur{}", c.index()),
            FundingTarget::Client(c) => format!("cli{}", c.index()),
            FundingTarget::Unfunded => {
                // Represent unfunded tickets as floating points.
                out.push_str(&format!("  tkt{} [shape=point, label=\"\"];\n", id.index()));
                format!("tkt{}", id.index())
            }
        };
        out.push_str(&format!(
            "  cur{} -> {} [style={}, label=\"{}\"];\n",
            ticket.currency().index(),
            target,
            style,
            ticket.amount(),
        ));
    }
    out.push_str("}\n");
    out
}

/// Escapes a name for a double-quoted dot label.
fn escape(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_figure3_shape() {
        let mut l = Ledger::new();
        let alice = l.create_currency("alice").unwrap();
        let t = l.issue_root(l.base(), 1000).unwrap();
        l.fund_currency(t, alice).unwrap();
        let cl = l.create_client("thread1");
        let ft = l.issue_root(alice, 100).unwrap();
        l.fund_client(ft, cl).unwrap();
        l.activate_client(cl).unwrap();

        let dot = to_dot(&l);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("alice"), "{dot}");
        assert!(dot.contains("thread1"), "{dot}");
        assert!(dot.contains("label=\"1000\""), "backing edge: {dot}");
        assert!(dot.contains("label=\"100\""), "funding edge: {dot}");
        assert!(dot.contains("value 1000"), "{dot}");
        assert!(dot.ends_with("}\n"));
        // Balanced braces for valid dot syntax.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn inactive_objects_are_dashed() {
        let mut l = Ledger::new();
        let cl = l.create_client("sleeper");
        let t = l.issue_root(l.base(), 5).unwrap();
        l.fund_client(t, cl).unwrap();
        let dot = to_dot(&l);
        assert!(dot.contains("style=dashed"), "{dot}");
    }

    #[test]
    fn unfunded_tickets_render_as_points() {
        let mut l = Ledger::new();
        let _ = l.issue_root(l.base(), 5).unwrap();
        let dot = to_dot(&l);
        assert!(dot.contains("shape=point"), "{dot}");
    }

    #[test]
    fn names_are_escaped() {
        let mut l = Ledger::new();
        let _ = l.create_currency("evil\"name").unwrap();
        let dot = to_dot(&l);
        assert!(dot.contains("evil\\\"name"), "{dot}");
    }
}
