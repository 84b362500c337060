//! Clients: the schedulable entities that hold tickets and compete in
//! lotteries.
//!
//! In the paper's Mach prototype a client is a kernel thread; in this
//! library a client is anything that competes for a resource — a simulated
//! thread ([`lottery-sim`]), a waiter on a lottery mutex, or a virtual
//! circuit. A client's resource rights are the tickets funding it, valued in
//! base units through the currency graph, times any compensation factor
//! (Section 4.5).
//!
//! [`lottery-sim`]: https://docs.rs/lottery-sim

use crate::arena::Handle;
use crate::ticket::TicketId;

/// Handle naming a [`Client`] in a ledger.
pub type ClientId = Handle<Client>;

/// A schedulable client, 40 bytes. Its name, if it has one, is kept by
/// the ledger ([`crate::ledger::Ledger::client_name`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Client {
    funding: Funding,
    active: bool,
    compensation: f64,
}

/// A client's funding tickets, in the order they were added.
///
/// Nearly every client holds one ticket for its whole life, so up to one
/// is kept inline and creating a client costs no heap block for it. A
/// second ticket (an RPC server funded by its client's transfer) moves the
/// list to the heap, where it stays: later transfers reuse the block, so a
/// steady stream of RPCs allocates nothing.
#[derive(Debug, Clone, PartialEq)]
enum Funding {
    Inline(Option<TicketId>),
    Spilled(Vec<TicketId>),
}

impl Client {
    /// Creates an inactive client with no funding.
    pub(crate) fn new() -> Self {
        Self {
            funding: Funding::Inline(None),
            active: false,
            compensation: 1.0,
        }
    }

    /// Tickets currently funding this client.
    pub fn funding(&self) -> &[TicketId] {
        match &self.funding {
            Funding::Inline(one) => one.as_slice(),
            Funding::Spilled(many) => many,
        }
    }

    /// Whether the client is actively competing (e.g. on the run queue).
    ///
    /// Activity drives ticket activation: a blocked client's tickets are
    /// deactivated and reactivated when it rejoins the run queue
    /// (Section 4.4).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The client's compensation factor (≥ 1).
    ///
    /// A client that consumed only fraction `f` of its last quantum holds a
    /// compensation ticket inflating its value by `1/f` until it starts its
    /// next quantum (Sections 3.4 and 4.5). A factor of exactly `1.0` means
    /// no compensation is in effect.
    pub fn compensation(&self) -> f64 {
        self.compensation
    }

    pub(crate) fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    pub(crate) fn set_compensation(&mut self, factor: f64) {
        debug_assert!(factor >= 1.0 && factor.is_finite());
        self.compensation = factor;
    }

    pub(crate) fn add_funding(&mut self, ticket: TicketId) {
        match &mut self.funding {
            Funding::Inline(slot @ None) => *slot = Some(ticket),
            Funding::Inline(Some(first)) => self.funding = Funding::Spilled(vec![*first, ticket]),
            Funding::Spilled(many) => many.push(ticket),
        }
    }

    pub(crate) fn remove_funding(&mut self, ticket: TicketId) {
        match &mut self.funding {
            Funding::Inline(one) => {
                one.take_if(|t| *t == ticket);
            }
            Funding::Spilled(many) => {
                if let Some(pos) = many.iter().position(|&t| t == ticket) {
                    many.remove(pos);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_client_defaults() {
        let c = Client::new();
        assert!(c.funding().is_empty());
        assert!(!c.is_active());
        assert_eq!(c.compensation(), 1.0);
    }

    #[test]
    fn funding_keeps_order_inline_and_spilled() {
        use crate::ledger::Ledger;

        let mut ledger = Ledger::new();
        let mut ticket = || ledger.issue_root(ledger.base(), 1).unwrap();
        let (a, b, c) = (ticket(), ticket(), ticket());
        let mut client = Client::new();
        client.add_funding(a);
        assert_eq!(client.funding(), &[a]);
        assert!(matches!(client.funding, Funding::Inline(_)));
        client.add_funding(b);
        client.add_funding(c);
        client.remove_funding(b);
        assert_eq!(client.funding(), &[a, c]);
        client.remove_funding(a);
        client.remove_funding(c);
        assert!(client.funding().is_empty());
        client.remove_funding(c);
        let mut one = Client::new();
        one.add_funding(a);
        one.remove_funding(b);
        one.remove_funding(a);
        assert!(one.funding().is_empty());
    }

    #[test]
    fn a_client_is_at_most_40_bytes() {
        let size = std::mem::size_of::<Client>();
        assert!(size <= 40, "Client is {size} bytes");
    }

    #[test]
    fn names_live_in_the_ledger_and_die_with_the_client() {
        use crate::ledger::Ledger;

        let mut ledger = Ledger::new();
        let named = ledger.create_client("db:cpu:sink");
        let nameless = ledger.create_client(String::new());
        assert_eq!(ledger.client_name(named), "db:cpu:sink");
        assert_eq!(ledger.client_name(nameless), "");
        let ticket = ledger.issue_root(ledger.base(), 10).unwrap();
        ledger.fund_client(ticket, named).unwrap();
        ledger.destroy_client_and_funding(named).unwrap();
        assert_eq!(ledger.client_name(named), "");
        let successor = ledger.create_client("next");
        assert_eq!(ledger.client_name(successor), "next");
        assert_eq!(ledger.client_name(named), "");
    }

    #[test]
    fn compensation_round_trip() {
        let mut c = Client::new();
        c.set_compensation(5.0);
        assert_eq!(c.compensation(), 5.0);
        c.set_compensation(1.0);
        assert_eq!(c.compensation(), 1.0);
    }
}
