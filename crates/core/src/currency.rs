//! Ticket currencies: local units of resource rights (Section 3.3).
//!
//! A currency names resource rights within a trust boundary. It is *backed*
//! (funded) by tickets denominated in more primitive currencies, and it
//! *issues* tickets denominated in itself. Inflation inside a currency is
//! locally contained: minting more tickets in currency `c` dilutes only
//! tickets denominated in `c`, never the backing currencies.

use crate::arena::Handle;
use crate::ticket::TicketId;

/// Handle naming a [`Currency`] in a ledger.
pub type CurrencyId = Handle<Currency>;

/// A principal identity used for currency issue permissions.
///
/// The paper proposes access control lists on currencies so that only
/// designated principals may inflate them (Section 3.3). Principals here are
/// opaque integers assigned by the embedding system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Principal(pub u32);

impl Principal {
    /// The distinguished root principal, permitted everywhere.
    pub const ROOT: Principal = Principal(0);
}

/// Who may issue (mint) tickets denominated in a currency.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum IssuePolicy {
    /// Any principal may issue tickets: the currency's holders mutually
    /// trust each other (ticket inflation per Section 3.2).
    #[default]
    Anyone,
    /// Only the listed principals (plus [`Principal::ROOT`]) may issue.
    Restricted(Vec<Principal>),
}

impl IssuePolicy {
    /// Whether `principal` may issue tickets under this policy.
    pub fn permits(&self, principal: Principal) -> bool {
        match self {
            Self::Anyone => true,
            Self::Restricted(list) => principal == Principal::ROOT || list.contains(&principal),
        }
    }
}

/// A ticket currency.
///
/// Mirrors the kernel object of Figure 2: a name, a list of backing tickets,
/// a list of issued tickets, and an *active amount* — the sum of the amounts
/// of issued tickets that are currently active. Those active tickets are
/// also kept as a list of their own, the *live list*: value leaves a
/// currency only along them, so they are the only edges a cache
/// invalidation has to follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Currency {
    name: String,
    issued: Vec<TicketId>,
    live: Vec<TicketId>,
    backing: Vec<TicketId>,
    active_amount: u64,
    total_amount: u64,
    policy: IssuePolicy,
}

impl Currency {
    /// Creates an empty currency named `name` with issue policy `policy`.
    pub(crate) fn new(name: impl Into<String>, policy: IssuePolicy) -> Self {
        Self {
            name: name.into(),
            issued: Vec::new(),
            live: Vec::new(),
            backing: Vec::new(),
            active_amount: 0,
            total_amount: 0,
            policy,
        }
    }

    /// The currency's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tickets denominated in this currency.
    pub fn issued(&self) -> &[TicketId] {
        &self.issued
    }

    /// The issued tickets that are active right now, in no particular
    /// order: `{t ∈ issued() : t.is_active()}`, whose amounts sum to
    /// [`Currency::active_amount`]. Each listed ticket stores its index here
    /// (see [`crate::ticket::Ticket`]); the ledger's activation walk keeps
    /// both sides.
    pub fn live(&self) -> &[TicketId] {
        &self.live
    }

    /// Tickets that fund (back) this currency.
    pub fn backing(&self) -> &[TicketId] {
        &self.backing
    }

    /// Sum of the amounts of *active* issued tickets.
    ///
    /// This is the divisor in ticket valuation: a ticket of amount `a` is
    /// worth `a / active_amount` of the currency's value (Section 4.4).
    pub fn active_amount(&self) -> u64 {
        self.active_amount
    }

    /// Sum of the amounts of all issued tickets, active or not.
    pub fn total_amount(&self) -> u64 {
        self.total_amount
    }

    /// Whether any issued ticket is active.
    pub fn is_active(&self) -> bool {
        self.active_amount > 0
    }

    /// The currency's issue policy.
    pub fn policy(&self) -> &IssuePolicy {
        &self.policy
    }

    pub(crate) fn set_policy(&mut self, policy: IssuePolicy) {
        self.policy = policy;
    }

    pub(crate) fn add_issued(&mut self, ticket: TicketId, amount: u64) {
        self.issued.push(ticket);
        self.total_amount += amount;
    }

    pub(crate) fn remove_issued(&mut self, ticket: TicketId, amount: u64) {
        retain_one(&mut self.issued, ticket);
        self.total_amount -= amount;
    }

    pub(crate) fn add_backing(&mut self, ticket: TicketId) {
        self.backing.push(ticket);
    }

    pub(crate) fn remove_backing(&mut self, ticket: TicketId) {
        retain_one(&mut self.backing, ticket);
    }

    /// Appends a newly active issued ticket to the live list, returning the
    /// slot it now occupies.
    pub(crate) fn push_live(&mut self, ticket: TicketId) -> usize {
        if self.live.capacity() == 0 {
            self.live.reserve_exact(LIVE_FIRST_CAPACITY);
        }
        self.live.push(ticket);
        self.live.len() - 1
    }

    /// Unlists the ticket at `slot` by moving the last live ticket into its
    /// place; returns the ticket that moved (the caller rewrites its stored
    /// slot), or `None` when `ticket` was itself the last.
    pub(crate) fn swap_remove_live(&mut self, slot: usize, ticket: TicketId) -> Option<TicketId> {
        let removed = self.live.swap_remove(slot);
        debug_assert_eq!(removed, ticket, "a live ticket's slot indexes itself");
        self.live.get(slot).copied()
    }

    /// Adds `amount` to the active amount, reporting a zero-crossing.
    ///
    /// Returns `true` when the currency transitioned inactive → active, in
    /// which case the caller must activate the backing tickets (Section 4.4).
    pub(crate) fn activate_amount(&mut self, amount: u64) -> bool {
        let was_zero = self.active_amount == 0;
        self.active_amount += amount;
        was_zero && amount > 0
    }

    /// Subtracts `amount` from the active amount, reporting a zero-crossing.
    ///
    /// Returns `true` when the currency transitioned active → inactive.
    pub(crate) fn deactivate_amount(&mut self, amount: u64) -> bool {
        debug_assert!(self.active_amount >= amount);
        self.active_amount -= amount;
        amount > 0 && self.active_amount == 0
    }

    pub(crate) fn adjust_amount(&mut self, old: u64, new: u64, active: bool) {
        self.total_amount = self.total_amount - old + new;
        if active {
            self.active_amount = self.active_amount - old + new;
        }
    }
}

/// What a live list allocates the first time it is pushed to: two cache
/// lines of ids. Left to `Vec`'s own first steps (4, 8, 16), building a
/// ledger of 10⁴ ten-client tenants reallocated every tenant's list three
/// times, interleaved with everything else set-up allocates, and the stubs
/// it freed scattered what was allocated after them: +40 % on the build
/// (48 → 68 ms for 10⁵ clients), +13…25 % on `scale_steady`'s `setup_s`.
/// With one allocation per list the same build takes what it took without
/// the lists (48 ms) and `setup_s` reads +4…7 %.
const LIVE_FIRST_CAPACITY: usize = 16;

/// Removes the first occurrence of `id` from `list`, preserving order.
fn retain_one(list: &mut Vec<TicketId>, id: TicketId) {
    if let Some(pos) = list.iter().position(|&t| t == id) {
        list.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::ticket::Ticket;

    fn tid(n: usize) -> TicketId {
        let mut arena: Arena<Ticket> = Arena::new();
        let mut last = None;
        for _ in 0..=n {
            let c: Arena<Currency> = Arena::new();
            let _ = c;
            // Insert placeholder tickets to obtain distinct handles.
            let mut ca: Arena<Currency> = Arena::new();
            let cur = ca.insert(Currency::new("x", IssuePolicy::Anyone));
            last = Some(arena.insert(Ticket::new(1, cur)));
        }
        last.unwrap()
    }

    #[test]
    fn issue_policy_anyone_permits_all() {
        let p = IssuePolicy::Anyone;
        assert!(p.permits(Principal(42)));
        assert!(p.permits(Principal::ROOT));
    }

    #[test]
    fn issue_policy_restricted() {
        let p = IssuePolicy::Restricted(vec![Principal(7)]);
        assert!(p.permits(Principal(7)));
        assert!(p.permits(Principal::ROOT));
        assert!(!p.permits(Principal(8)));
    }

    #[test]
    fn active_amount_zero_crossings() {
        let mut c = Currency::new("test", IssuePolicy::Anyone);
        assert!(c.activate_amount(10), "0 -> 10 crosses zero");
        assert!(!c.activate_amount(5), "10 -> 15 does not");
        assert!(!c.deactivate_amount(5), "15 -> 10 does not");
        assert!(c.deactivate_amount(10), "10 -> 0 crosses zero");
        assert!(!c.is_active());
    }

    #[test]
    fn activate_zero_amount_is_not_a_crossing() {
        let mut c = Currency::new("test", IssuePolicy::Anyone);
        assert!(!c.activate_amount(0));
        assert!(!c.deactivate_amount(0));
    }

    #[test]
    fn issued_bookkeeping() {
        let mut c = Currency::new("test", IssuePolicy::Anyone);
        let t = tid(0);
        c.add_issued(t, 100);
        assert_eq!(c.total_amount(), 100);
        assert_eq!(c.issued(), &[t]);
        c.remove_issued(t, 100);
        assert_eq!(c.total_amount(), 0);
        assert!(c.issued().is_empty());
    }

    #[test]
    fn live_list_swap_remove_reports_the_ticket_that_moved() {
        let mut c = Currency::new("test", IssuePolicy::Anyone);
        let (a, b, d) = (tid(0), tid(1), tid(2));
        assert_eq!(
            [c.push_live(a), c.push_live(b), c.push_live(d)],
            [0, 1, 2],
            "push reports the slot"
        );
        assert_eq!(c.swap_remove_live(0, a), Some(d), "the last fills the hole");
        assert_eq!(c.live(), &[d, b]);
        assert_eq!(c.swap_remove_live(1, b), None, "the last leaves no hole");
        assert_eq!(c.swap_remove_live(0, d), None);
        assert!(c.live().is_empty());
    }

    #[test]
    fn a_live_list_is_allocated_once_for_its_first_sixteen() {
        let mut c = Currency::new("test", IssuePolicy::Anyone);
        assert_eq!(c.live.capacity(), 0, "an idle currency owns no list");
        for n in 0..LIVE_FIRST_CAPACITY {
            c.push_live(tid(n));
            assert_eq!(c.live.capacity(), LIVE_FIRST_CAPACITY);
        }
    }

    #[test]
    fn adjust_amount_updates_totals() {
        let mut c = Currency::new("test", IssuePolicy::Anyone);
        let t = tid(1);
        c.add_issued(t, 100);
        c.activate_amount(100);
        c.adjust_amount(100, 250, true);
        assert_eq!(c.total_amount(), 250);
        assert_eq!(c.active_amount(), 250);
        c.adjust_amount(250, 50, false);
        assert_eq!(c.total_amount(), 50);
        assert_eq!(c.active_amount(), 250, "inactive adjust leaves active sum");
    }
}
