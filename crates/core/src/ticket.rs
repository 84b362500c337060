//! Lottery tickets: the representation of resource rights (Section 3.1).
//!
//! Tickets are *abstract* (they quantify rights independently of machine
//! details), *relative* (the fraction of the resource they represent varies
//! with contention), and *uniform* (rights for heterogeneous resources are
//! homogeneously represented). A single [`Ticket`] object may represent any
//! number of logical tickets via its `amount`, like a monetary note's
//! denomination.

use crate::arena::Handle;
use crate::client::ClientId;
use crate::currency::CurrencyId;

/// Handle naming a [`Ticket`] in a ledger.
pub type TicketId = Handle<Ticket>;

/// What a ticket's value flows into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FundingTarget {
    /// The ticket backs a currency (it appears on that currency's backing
    /// list and contributes to its value).
    Currency(CurrencyId),
    /// The ticket funds a schedulable client, giving it resource rights.
    Client(ClientId),
    /// The ticket has been issued but not yet used to fund anything.
    Unfunded,
}

impl FundingTarget {
    /// Returns the funded currency, if any.
    pub fn as_currency(self) -> Option<CurrencyId> {
        match self {
            Self::Currency(c) => Some(c),
            _ => None,
        }
    }

    /// Returns the funded client, if any.
    pub fn as_client(self) -> Option<ClientId> {
        match self {
            Self::Client(c) => Some(c),
            _ => None,
        }
    }
}

/// A lottery ticket: `amount` units denominated in `currency`, funding
/// `target`.
///
/// Activity implements the paper's activation rule (Section 4.4): a ticket
/// is active while it is being used by a runnable client to compete in
/// lotteries, and activation propagates through the currency graph at
/// zero-crossings of each currency's active amount.
///
/// A ticket is active exactly while it is on its denomination's live list
/// ([`crate::currency::Currency::live`]), and what it stores is its index
/// there — so unlisting it is a `swap_remove`, not a search — with
/// `u32::MAX` standing for "inactive". The ledger's activation walk is the
/// only writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ticket {
    amount: u64,
    currency: CurrencyId,
    target: FundingTarget,
    live_slot: u32,
}

/// The `live_slot` of an inactive ticket.
const NOT_LIVE: u32 = u32::MAX;

impl Ticket {
    /// Creates an inactive, unfunded ticket of `amount` units in `currency`.
    pub(crate) fn new(amount: u64, currency: CurrencyId) -> Self {
        Self {
            amount,
            currency,
            target: FundingTarget::Unfunded,
            live_slot: NOT_LIVE,
        }
    }

    /// The face amount, in units of the denomination currency.
    pub fn amount(&self) -> u64 {
        self.amount
    }

    /// The currency this ticket is denominated in.
    pub fn currency(&self) -> CurrencyId {
        self.currency
    }

    /// What this ticket currently funds.
    pub fn target(&self) -> FundingTarget {
        self.target
    }

    /// Whether the ticket is active (competing in lotteries).
    pub fn is_active(&self) -> bool {
        self.live_slot != NOT_LIVE
    }

    pub(crate) fn set_target(&mut self, target: FundingTarget) {
        self.target = target;
    }

    /// Records that the denomination's live list holds the ticket at `slot`,
    /// which makes it active.
    pub(crate) fn set_live_slot(&mut self, slot: usize) {
        self.live_slot = u32::try_from(slot).expect("a live list is no longer than the arena");
        assert!(self.is_active(), "slot u32::MAX means inactive");
    }

    /// The ticket's index in its denomination's live list.
    #[cfg(test)]
    pub(crate) fn live_slot(&self) -> usize {
        assert!(self.is_active());
        self.live_slot as usize
    }

    /// Makes the ticket inactive, returning the slot it was listed at.
    pub(crate) fn clear_live_slot(&mut self) -> usize {
        debug_assert!(self.is_active());
        std::mem::replace(&mut self.live_slot, NOT_LIVE) as usize
    }

    pub(crate) fn set_amount(&mut self, amount: u64) {
        self.amount = amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::currency::Currency;

    fn dummy_currency() -> CurrencyId {
        let mut arena: Arena<Currency> = Arena::new();
        arena.insert(Currency::new("c", Default::default()))
    }

    #[test]
    fn new_ticket_is_inactive_and_unfunded() {
        let c = dummy_currency();
        let t = Ticket::new(5, c);
        assert_eq!(t.amount(), 5);
        assert_eq!(t.currency(), c);
        assert_eq!(t.target(), FundingTarget::Unfunded);
        assert!(!t.is_active());
    }

    #[test]
    fn the_live_slot_is_the_activity_flag() {
        let mut t = Ticket::new(5, dummy_currency());
        t.set_live_slot(0);
        assert!(t.is_active(), "slot 0 is a slot, not a false");
        t.set_live_slot(7);
        assert_eq!(t.live_slot(), 7);
        assert_eq!(t.clear_live_slot(), 7);
        assert!(!t.is_active());
    }

    #[test]
    #[should_panic(expected = "means inactive")]
    fn the_sentinel_is_not_a_slot() {
        Ticket::new(5, dummy_currency()).set_live_slot(u32::MAX as usize);
    }

    #[test]
    fn a_ticket_stays_within_half_a_cache_line() {
        assert!(
            std::mem::size_of::<Ticket>() <= 32,
            "the live slot replaced the `active` flag in its padding: 10^5 \
             tickets are walked per scale set-up and two fit a cache line, \
             and a 40-byte ticket measured -4 % on scale_steady/par_contend"
        );
    }

    #[test]
    fn funding_target_accessors() {
        let c = dummy_currency();
        assert_eq!(FundingTarget::Currency(c).as_currency(), Some(c));
        assert_eq!(FundingTarget::Currency(c).as_client(), None);
        assert_eq!(FundingTarget::Unfunded.as_currency(), None);
        assert_eq!(FundingTarget::Unfunded.as_client(), None);
    }
}
