//! Pseudo-random number generation for lottery draws.
//!
//! The paper's prototype uses the Park–Miller "minimal standard" generator
//! \[Par88\] implemented in ten MIPS instructions via D. Carta's high/low
//! decomposition \[Car90\] (Appendix A of the paper). [`ParkMiller`] reproduces
//! that generator bit-for-bit: the recurrence is
//!
//! ```text
//! S' = (16807 * S) mod (2^31 - 1)
//! ```
//!
//! computed without a division, exactly as the appendix's assembly does.
//!
//! A lottery scheduler does not need cryptographic randomness — it needs a
//! fast generator whose draws are uniform enough that ticket shares converge
//! (Section 2). All simulation entry points take explicit seeds so every
//! experiment in this repository is reproducible.

/// Modulus of the minimal standard generator: the Mersenne prime `2^31 - 1`.
pub const PM_MODULUS: u32 = 0x7FFF_FFFF;

/// Multiplier of the minimal standard generator.
pub const PM_MULTIPLIER: u32 = 16807;

/// Source of uniform random numbers for lottery draws.
///
/// Implementors provide a raw 31-bit draw; the provided methods build
/// unbiased bounded draws and unit-interval floats on top of it.
pub trait SchedRng {
    /// Returns the next raw draw in `[0, 2^31 - 2]`.
    fn next_u31(&mut self) -> u32;

    /// Returns a uniformly distributed `u64` in `[0, bound)`.
    ///
    /// Uses rejection sampling over two raw draws so the result is unbiased
    /// for any `bound` up to `2^62`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero or above `2^62`, where no rejection zone
    /// exists and the loop would never return. Lotteries never get here
    /// with such a total: they hold draws only over non-empty pools
    /// ([`crate::errors::LotteryError::EmptyLottery`]) and range-check the
    /// total first ([`crate::lottery::Weight::draw_below`]).
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Combine two 31-bit draws into one 62-bit draw.
        let range: u64 = 1 << 62;
        assert!(bound <= range, "below() bound {bound} exceeds 2^62");
        let zone = range - (range % bound);
        loop {
            let hi = u64::from(self.next_u31());
            let lo = u64::from(self.next_u31());
            let v = (hi << 31) | lo;
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // The raw draw lies in [0, PM_MODULUS - 1]; dividing by the modulus
        // therefore yields a value strictly below 1.
        f64::from(self.next_u31()) / f64::from(PM_MODULUS)
    }

    /// Returns a winning ticket value for a lottery with `total` tickets.
    ///
    /// Equivalent to `below(total)` but named for call-site clarity.
    fn winning_ticket(&mut self, total: u64) -> u64 {
        self.below(total)
    }
}

/// The Park–Miller minimal standard generator, as in Appendix A.
///
/// State is a value in `[1, 2^31 - 2]`; zero and the modulus are fixed
/// points and are remapped at construction.
///
/// # Examples
///
/// ```
/// use lottery_core::rng::{ParkMiller, SchedRng};
///
/// let mut rng = ParkMiller::new(1);
/// // The first recurrence step from seed 1 yields 16807; draws are
/// // shifted down by one to include zero.
/// assert_eq!(rng.next_u31(), 16806);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParkMiller {
    state: u32,
}

impl ParkMiller {
    /// Creates a generator from `seed`.
    ///
    /// Seeds of `0` and `2^31 - 1` (fixed points of the recurrence) are
    /// remapped to `1` so every seed yields a usable stream.
    pub fn new(seed: u32) -> Self {
        let mut state = seed % PM_MODULUS;
        if state == 0 {
            state = 1;
        }
        Self { state }
    }

    /// Returns the current internal state.
    ///
    /// Together with [`ParkMiller::from_state`] this makes the generator
    /// checkpointable: record/replay stamps audit logs with the state at
    /// capture start and restores the exact draw stream from it.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Restores a generator from a previously observed [`ParkMiller::state`].
    ///
    /// Unlike [`ParkMiller::new`], which treats its argument as an
    /// arbitrary seed (remapping the recurrence's fixed points), this is
    /// an exact checkpoint restore: the next draw continues the original
    /// stream bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `state` is outside `[1, 2^31 - 2]` — such a value was
    /// never produced by a live generator, so the checkpoint is corrupt.
    pub fn from_state(state: u32) -> Self {
        assert!(
            (1..PM_MODULUS).contains(&state),
            "invalid Park-Miller checkpoint state {state}"
        );
        Self { state }
    }

    /// Advances the recurrence once, using Carta's decomposition.
    ///
    /// This mirrors the paper's `fastrand` assembly: the 46-bit product
    /// `A * S` is split at bit 31 into `P` (low) and `Q` (high), and
    /// `P + Q` is congruent to the product modulo `2^31 - 1`. A single
    /// conditional fold handles the rare overflow into bit 31.
    #[inline]
    fn step(&mut self) -> u32 {
        let product = u64::from(self.state) * u64::from(PM_MULTIPLIER);
        let p = (product & u64::from(PM_MODULUS)) as u32; // bits 0..31 of A*S
        let q = (product >> 31) as u32; // bits 31..46 of A*S
        let mut s = p + q;
        if s >= PM_MODULUS {
            // The assembly zeroes bit 31 and increments; identical to
            // subtracting the modulus because s < 2 * PM_MODULUS here.
            s -= PM_MODULUS;
        }
        self.state = s;
        s
    }
}

impl SchedRng for ParkMiller {
    fn next_u31(&mut self) -> u32 {
        // The state never reaches the modulus, so draws lie in
        // [1, 2^31 - 2]; subtract one to include zero in the range.
        self.step() - 1
    }
}

/// SplitMix64: an auxiliary generator used to scatter seeds.
///
/// Experiment drivers that need many independent [`ParkMiller`] streams
/// derive their seeds from one `SplitMix64`, which has a full 2^64 period
/// and excellent equidistribution for this purpose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a seed-scattering generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives a fresh Park–Miller stream.
    pub fn park_miller(&mut self) -> ParkMiller {
        ParkMiller::new((self.next_u64() % u64::from(PM_MODULUS - 1)) as u32 + 1)
    }
}

impl SchedRng for SplitMix64 {
    fn next_u31(&mut self) -> u32 {
        // Take the high bits (best mixed) and reduce into [0, 2^31 - 2].
        ((self.next_u64() >> 33) % u64::from(PM_MODULUS)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Park and Miller's published correctness check: starting from seed 1,
    /// the 10,000th generated value must be 1043618065.
    #[test]
    fn park_miller_ten_thousandth_value() {
        let mut rng = ParkMiller::new(1);
        let mut last = 0;
        for _ in 0..10_000 {
            last = rng.step();
        }
        assert_eq!(last, 1_043_618_065);
    }

    #[test]
    fn park_miller_first_values_from_seed_one() {
        // 16807, 16807^2 mod (2^31-1) = 282475249, then 1622650073.
        let mut rng = ParkMiller::new(1);
        assert_eq!(rng.step(), 16_807);
        assert_eq!(rng.step(), 282_475_249);
        assert_eq!(rng.step(), 1_622_650_073);
    }

    #[test]
    fn carta_matches_direct_modular_arithmetic() {
        // The Carta fold must agree with the straightforward 64-bit mod for
        // a long stretch of states, including ones that trigger overflow.
        let mut rng = ParkMiller::new(12_345);
        let mut direct = 12_345u64;
        for _ in 0..100_000 {
            direct = direct * u64::from(PM_MULTIPLIER) % u64::from(PM_MODULUS);
            assert_eq!(u64::from(rng.step()), direct);
        }
    }

    #[test]
    fn from_state_resumes_the_stream_exactly() {
        let mut live = ParkMiller::new(777);
        for _ in 0..1000 {
            live.next_u31();
        }
        let checkpoint = live.state();
        let mut restored = ParkMiller::from_state(checkpoint);
        for _ in 0..1000 {
            assert_eq!(restored.next_u31(), live.next_u31());
        }
    }

    #[test]
    #[should_panic(expected = "invalid Park-Miller checkpoint")]
    fn from_state_rejects_fixed_points() {
        let _ = ParkMiller::from_state(0);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut a = ParkMiller::new(0);
        let mut b = ParkMiller::new(1);
        assert_eq!(a.next_u31(), b.next_u31());
    }

    #[test]
    fn modulus_seed_is_remapped() {
        let mut a = ParkMiller::new(PM_MODULUS);
        let mut b = ParkMiller::new(1);
        assert_eq!(a.next_u31(), b.next_u31());
    }

    #[test]
    fn state_never_leaves_range() {
        let mut rng = ParkMiller::new(987_654_321);
        for _ in 0..50_000 {
            let s = rng.step();
            assert!((1..PM_MODULUS).contains(&s));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = ParkMiller::new(42);
        for bound in [1u64, 2, 3, 7, 20, 1000, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_one_is_always_zero() {
        let mut rng = ParkMiller::new(42);
        for _ in 0..32 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        // Chi-square style sanity check on 10 buckets.
        let mut rng = ParkMiller::new(7);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(10) as usize] += 1;
        }
        let expected = n as f64 / 10.0;
        for &c in &counts {
            let rel = (f64::from(c) - expected).abs() / expected;
            assert!(rel < 0.05, "bucket deviates by {rel}: {counts:?}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = ParkMiller::new(99);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn splitmix_streams_differ() {
        let mut sm = SplitMix64::new(1);
        let mut a = sm.park_miller();
        let mut b = sm.park_miller();
        let sa: Vec<u32> = (0..8).map(|_| a.next_u31()).collect();
        let sb: Vec<u32> = (0..8).map(|_| b.next_u31()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn splitmix_known_first_output() {
        // Reference value from the canonical SplitMix64 description.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn winning_ticket_matches_below() {
        let mut a = ParkMiller::new(5);
        let mut b = ParkMiller::new(5);
        for total in [5u64, 100, 20] {
            assert_eq!(a.winning_ticket(total), b.below(total));
        }
    }
}
