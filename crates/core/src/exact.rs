//! Exact rational valuation of the currency graph.
//!
//! Ticket values are ratios by construction — a ticket is worth its
//! denomination's value times `amount / active_amount` (Section 4.4) — so
//! every value in the graph is a rational number of base units. The
//! default [`crate::ledger::Valuator`] computes in `f64`, which is what
//! the paper's prototype effectively does and is exact for graphs like
//! Figure 3; [`ExactValuator`] computes in reduced `u128` fractions
//! instead, with checked arithmetic, so conservation properties hold
//! *bit-for-bit* and deep graphs cannot accumulate rounding.
//!
//! It shares no code with the ledger's walk, which makes it the tests'
//! independent reference: its values, walked by the paper's running-sum
//! lottery, must name the winner of every draw a shard makes
//! (`crates/sim/tests/structure_props.rs`), and they must conserve base
//! units exactly where the `f64` walk only agrees to rounding
//! (`tests/ledger_properties.rs`).
//!
//! Compensation factors are quantum ratios and stay outside this module:
//! the exact valuator prices *funded* value (tickets through currencies),
//! which is the quantity conservation laws speak about.

use std::collections::HashMap;

use crate::currency::CurrencyId;
use crate::errors::{LotteryError, Result};
use crate::ledger::Ledger;
use crate::ticket::TicketId;

/// A non-negative rational number with reduced `u128` terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    num: u128,
    den: u128,
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };

    /// Builds `num / den`, reduced.
    ///
    /// # Panics
    ///
    /// Panics on a zero denominator — callers divide by *active amounts*
    /// they have already checked to be positive.
    pub fn new(num: u128, den: u128) -> Ratio {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Builds a whole number.
    pub fn from_int(value: u64) -> Ratio {
        Ratio {
            num: u128::from(value),
            den: 1,
        }
    }

    /// The numerator of the reduced form.
    pub fn numerator(self) -> u128 {
        self.num
    }

    /// The denominator of the reduced form.
    pub fn denominator(self) -> u128 {
        self.den
    }

    /// Checked addition.
    pub fn checked_add(self, other: Ratio) -> Result<Ratio> {
        // a/b + c/d = (a d + c b) / (b d), reduced lazily via new().
        let g = gcd(self.den, other.den);
        let lcm_rhs = other.den / g;
        let den = self
            .den
            .checked_mul(lcm_rhs)
            .ok_or(LotteryError::AmountOverflow)?;
        let left = self
            .num
            .checked_mul(lcm_rhs)
            .ok_or(LotteryError::AmountOverflow)?;
        let right = other
            .num
            .checked_mul(self.den / g)
            .ok_or(LotteryError::AmountOverflow)?;
        let num = left
            .checked_add(right)
            .ok_or(LotteryError::AmountOverflow)?;
        Ok(Ratio::new(num, den))
    }

    /// Checked multiplication by `amount / divisor`.
    pub fn checked_mul_frac(self, amount: u64, divisor: u64) -> Result<Ratio> {
        assert!(divisor != 0, "zero divisor");
        // Cross-reduce before multiplying to keep terms small.
        let a = Ratio::new(u128::from(amount), u128::from(divisor));
        let g1 = gcd(self.num, a.den);
        let g2 = gcd(a.num, self.den);
        let num = (self.num / g1)
            .checked_mul(a.num / g2)
            .ok_or(LotteryError::AmountOverflow)?;
        let den = (self.den / g2)
            .checked_mul(a.den / g1)
            .ok_or(LotteryError::AmountOverflow)?;
        Ok(Ratio::new(num, den))
    }

    /// Whether this is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether the ratio is a whole number.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Lossy conversion for display and comparison with the float path.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b.max(1);
    }
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Memoizing exact valuator over a ledger snapshot.
///
/// The API mirrors [`crate::ledger::Valuator`], producing [`Ratio`]s.
pub struct ExactValuator<'a> {
    ledger: &'a Ledger,
    memo: HashMap<CurrencyId, Ratio>,
}

impl<'a> ExactValuator<'a> {
    /// Creates an exact valuator over the ledger's current state.
    pub fn new(ledger: &'a Ledger) -> Self {
        Self {
            ledger,
            memo: HashMap::new(),
        }
    }

    /// The currency's value in base units, exactly.
    pub fn currency_value(&mut self, currency: CurrencyId) -> Result<Ratio> {
        if let Some(&v) = self.memo.get(&currency) {
            return Ok(v);
        }
        let v = if currency == self.ledger.base() {
            Ratio::from_int(self.ledger.currency(currency)?.active_amount())
        } else {
            let backing = self.ledger.currency(currency)?.backing().to_vec();
            let mut sum = Ratio::ZERO;
            for t in backing {
                if self.ledger.ticket(t)?.is_active() {
                    sum = sum.checked_add(self.ticket_value(t)?)?;
                }
            }
            sum
        };
        self.memo.insert(currency, v);
        Ok(v)
    }

    /// The ticket's value in base units, exactly (zero when inactive).
    pub fn ticket_value(&mut self, ticket: TicketId) -> Result<Ratio> {
        let t = self.ledger.ticket(ticket)?;
        if !t.is_active() {
            return Ok(Ratio::ZERO);
        }
        let denom = t.currency();
        if denom == self.ledger.base() {
            return Ok(Ratio::from_int(t.amount()));
        }
        let active = self.ledger.currency(denom)?.active_amount();
        if active == 0 {
            return Ok(Ratio::ZERO);
        }
        let amount = t.amount();
        let cv = self.currency_value(denom)?;
        cv.checked_mul_frac(amount, active)
    }

    /// The client's *funded* value in base units, exactly (compensation
    /// excluded — see the module docs).
    pub fn client_value(&mut self, client: crate::client::ClientId) -> Result<Ratio> {
        let funding = self.ledger.client(client)?.funding().to_vec();
        let mut sum = Ratio::ZERO;
        for t in funding {
            sum = sum.checked_add(self.ticket_value(t)?)?;
        }
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Valuator;

    #[test]
    fn ratio_arithmetic() {
        let half = Ratio::new(1, 2);
        let third = Ratio::new(2, 6);
        assert_eq!(third, Ratio::new(1, 3));
        let sum = half.checked_add(third).unwrap();
        assert_eq!(sum, Ratio::new(5, 6));
        assert_eq!(sum.numerator(), 5);
        assert_eq!(sum.denominator(), 6);
        let scaled = sum.checked_mul_frac(3, 5).unwrap();
        assert_eq!(scaled, Ratio::new(1, 2));
        assert!(!scaled.is_zero());
        assert!(Ratio::ZERO.is_zero());
        assert!(Ratio::from_int(7).is_integer());
        assert_eq!(Ratio::new(3, 4).to_f64(), 0.75);
    }

    #[test]
    fn ratio_overflow_is_an_error() {
        let huge = Ratio::new(u128::MAX - 1, 1);
        assert_eq!(huge.checked_add(huge), Err(LotteryError::AmountOverflow));
        assert_eq!(
            huge.checked_mul_frac(u64::MAX, 1),
            Err(LotteryError::AmountOverflow)
        );
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    /// Figure 3, exactly: thread2 = 400, thread3 = 600, thread4 = 2000,
    /// all integers.
    #[test]
    fn figure3_is_exact() {
        let mut l = Ledger::new();
        let base = l.base();
        let alice = l.create_currency("alice").unwrap();
        let bob = l.create_currency("bob").unwrap();
        let ta = l.issue_root(base, 1000).unwrap();
        let tb = l.issue_root(base, 2000).unwrap();
        l.fund_currency(ta, alice).unwrap();
        l.fund_currency(tb, bob).unwrap();
        let task2 = l.create_currency("task2").unwrap();
        let task3 = l.create_currency("task3").unwrap();
        let f2 = l.issue_root(alice, 200).unwrap();
        let f3 = l.issue_root(bob, 100).unwrap();
        l.fund_currency(f2, task2).unwrap();
        l.fund_currency(f3, task3).unwrap();
        let t2 = l.create_client("thread2");
        let t3 = l.create_client("thread3");
        let t4 = l.create_client("thread4");
        for (cl, cur, amt) in [(t2, task2, 200u64), (t3, task2, 300), (t4, task3, 100)] {
            let t = l.issue_root(cur, amt).unwrap();
            l.fund_client(t, cl).unwrap();
            l.activate_client(cl).unwrap();
        }
        let mut v = ExactValuator::new(&l);
        assert_eq!(v.client_value(t2).unwrap(), Ratio::from_int(400));
        assert_eq!(v.client_value(t3).unwrap(), Ratio::from_int(600));
        assert_eq!(v.client_value(t4).unwrap(), Ratio::from_int(2000));
    }

    /// A graph whose shares are non-terminating in binary (thirds):
    /// exact conservation holds bit-for-bit where floats only get close.
    #[test]
    fn thirds_conserve_exactly() {
        let mut l = Ledger::new();
        let cur = l.create_currency("thirds").unwrap();
        let back = l.issue_root(l.base(), 1000).unwrap();
        l.fund_currency(back, cur).unwrap();
        let clients: Vec<_> = (0..3)
            .map(|i| {
                let c = l.create_client(format!("c{i}"));
                let t = l.issue_root(cur, 1).unwrap();
                l.fund_client(t, c).unwrap();
                l.activate_client(c).unwrap();
                c
            })
            .collect();
        let mut v = ExactValuator::new(&l);
        let mut total = Ratio::ZERO;
        for &c in &clients {
            let value = v.client_value(c).unwrap();
            assert_eq!(value, Ratio::new(1000, 3));
            total = total.checked_add(value).unwrap();
        }
        assert_eq!(total, Ratio::from_int(1000), "exact conservation");
    }

    #[test]
    fn agrees_with_float_valuator() {
        // A three-level graph with awkward divisors.
        let mut l = Ledger::new();
        let a = l.create_currency("a").unwrap();
        let b = l.create_currency("b").unwrap();
        let back = l.issue_root(l.base(), 9973).unwrap();
        l.fund_currency(back, a).unwrap();
        let ab = l.issue_root(a, 7).unwrap();
        l.fund_currency(ab, b).unwrap();
        let other = l.create_client("other");
        let to = l.issue_root(a, 13).unwrap();
        l.fund_client(to, other).unwrap();
        l.activate_client(other).unwrap();
        let cl = l.create_client("cl");
        let t = l.issue_root(b, 17).unwrap();
        l.fund_client(t, cl).unwrap();
        l.activate_client(cl).unwrap();

        let mut exact = ExactValuator::new(&l);
        let mut float = Valuator::new(&l);
        let e = exact.client_value(cl).unwrap().to_f64();
        let f = float.client_funded_value(cl).unwrap();
        assert!((e - f).abs() < 1e-9 * e.max(1.0), "{e} vs {f}");
    }
}
