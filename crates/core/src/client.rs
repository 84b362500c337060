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

/// A schedulable client.
#[derive(Debug, Clone, PartialEq)]
pub struct Client {
    name: Box<str>,
    funding: Vec<TicketId>,
    active: bool,
    compensation: f64,
}

impl Client {
    /// Creates an inactive client with no funding.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into().into_boxed_str(),
            funding: Vec::new(),
            active: false,
            compensation: 1.0,
        }
    }

    /// The client's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tickets currently funding this client.
    pub fn funding(&self) -> &[TicketId] {
        &self.funding
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
        self.funding.push(ticket);
    }

    pub(crate) fn remove_funding(&mut self, ticket: TicketId) {
        if let Some(pos) = self.funding.iter().position(|&t| t == ticket) {
            self.funding.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_client_defaults() {
        let c = Client::new("worker");
        assert_eq!(c.name(), "worker");
        assert!(c.funding().is_empty());
        assert!(!c.is_active());
        assert_eq!(c.compensation(), 1.0);
    }

    #[test]
    fn compensation_round_trip() {
        let mut c = Client::new("io-bound");
        c.set_compensation(5.0);
        assert_eq!(c.compensation(), 5.0);
        c.set_compensation(1.0);
        assert_eq!(c.compensation(), 1.0);
    }
}
