//! Seeded input generator.
//!
//! Every input of every workload comes from this module's own SplitMix64
//! stream over `--seed`; none of the crates' generators is used, so a change
//! to them cannot shift the inputs. The schedulers receive only the
//! generated [`Spec`] and the Park–Miller seed derived into it.

/// Default `--seed` of `benchmark/run.sh`.
pub const DEFAULT_SEED: u64 = 1994;

/// Face amounts a thread's funding ticket is drawn from.
const TICKET_AMOUNTS: [u64; 7] = [10, 20, 50, 100, 200, 500, 1000];
/// Draw weights of [`TICKET_AMOUNTS`]: many small holders, few large ones.
const TICKET_SKEW: [u64; 7] = [28, 24, 18, 13, 9, 5, 3];
/// Base-currency funding a tenant currency is drawn from.
const TENANT_FUNDING: [u64; 4] = [100, 200, 300, 400];

/// SplitMix64 (Steele, Lea & Flood): the benchmark's only input generator.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]` (the modulo bias is below 2⁻⁴⁰ for the small
    /// ranges drawn here).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }

    /// `n` ticket amounts, skewed towards the small denominations, in
    /// random order.
    ///
    /// The histogram is filled by quota (largest remainder) and only the
    /// order is drawn. Thirty-four independent draws from a distribution
    /// this skewed would give one seed a desktop whose interactive threads
    /// hold most of the tickets and the next seed the opposite, and the two
    /// would differ by a factor of two in cost per decision: a different
    /// workload, not a different sample of one.
    fn ticket_deck(&mut self, n: usize) -> Vec<u64> {
        self.deck(&TICKET_AMOUNTS, &TICKET_SKEW, n)
    }

    /// `n` tenant fundings, each level equally often, in random order.
    fn funding_deck(&mut self, n: usize) -> Vec<u64> {
        self.deck(&TENANT_FUNDING, &[1; 4], n)
    }

    fn deck(&mut self, values: &[u64], weights: &[u64], n: usize) -> Vec<u64> {
        let total: u64 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| (n as u64 * w / total) as usize)
            .collect();
        // Largest remainders first; ties go to the smaller value.
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(n as u64 * weights[i] % total));
        let short = n - counts.iter().sum::<usize>();
        for &i in order.iter().take(short) {
            counts[i] += 1;
        }
        let mut deck: Vec<u64> = values
            .iter()
            .zip(counts)
            .flat_map(|(&v, count)| std::iter::repeat_n(v, count))
            .collect();
        self.shuffle(&mut deck);
        deck
    }

    /// A Park–Miller seed in `[1, 2³¹ − 2]`, taken verbatim by the crates.
    fn park_miller_seed(&mut self) -> u32 {
        (self.next_u64() % 0x7FFF_FFFE) as u32 + 1
    }
}

/// What one generated thread does with the CPU (times in simulated µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Always runnable, full quanta.
    Compute,
    /// Runs `run_us`, then yields the rest of its quantum.
    Yield { run_us: u64 },
    /// Sleeps `phase_us` once, then alternates `run_us` with `sleep_us`.
    Io {
        run_us: u64,
        sleep_us: u64,
        phase_us: u64,
    },
    /// Thinks, then calls the one RPC port and waits for the reply.
    RpcClient { think_us: u64, service_us: u64 },
    /// Serves the one RPC port.
    RpcServer,
    /// Holds the one lottery mutex for `hold_us`, computes `compute_us`.
    Mutex { hold_us: u64, compute_us: u64 },
    /// Computes for `run_us` in all, then exits.
    Finite { run_us: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSpec {
    pub kind: Kind,
    /// Index into [`Spec::currencies`].
    pub currency: u32,
    /// Face amount of the funding ticket, in that currency.
    pub tickets: u64,
}

/// The generated inputs of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Seed handed to the scheduler's Park–Miller generator.
    pub sched_seed: u32,
    /// Base-currency funding of each tenant currency.
    pub currencies: Vec<u64>,
    pub threads: Vec<ThreadSpec>,
}

impl Spec {
    /// The scheduler seed of the `run`th independent run of this spec.
    /// `par_contend` repeats one spec many times; with one seed its workers
    /// would replay nearly the same lotteries each time, and the pooled
    /// share check would count one sample many times over.
    pub fn run_seed(&self, run: u32) -> u32 {
        if run == 0 {
            return self.sched_seed;
        }
        SplitMix64::new(u64::from(self.sched_seed) << 32 | u64::from(run)).park_miller_seed()
    }

    /// Threads whose CPU share is checked against their tickets.
    pub fn compute_threads(&self) -> impl Iterator<Item = (usize, &ThreadSpec)> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == Kind::Compute)
    }
}

/// One stream per workload family, so `desktop_mix` and `desktop_observed`
/// (one family) get identical inputs from one `--seed`.
fn stream(seed: u64, family: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ family.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    mix.next_u64();
    mix
}

/// Adds `per_tenant` threads of one kind to every tenant. Each tenant gets
/// the same ticket amounts (one deck each, so only their order differs) and
/// therefore every kind the same share of every tenant, whatever the seed:
/// with a few dozen threads, a draw that made one tenant's sleepers rich
/// and another's poor would change the share of decisions that block, and
/// with it the cost of a decision by a fifth.
fn deal(
    g: &mut SplitMix64,
    threads: &mut Vec<ThreadSpec>,
    tenants: usize,
    per_tenant: usize,
    kind: &dyn Fn(&mut SplitMix64) -> Kind,
) {
    for currency in 0..tenants as u32 {
        for tickets in g.ticket_deck(per_tenant) {
            threads.push(ThreadSpec {
                kind: kind(g),
                currency,
                tickets,
            });
        }
    }
}

/// The paper's evaluation mix: 34 threads in 2 user currencies.
pub fn desktop(seed: u64) -> Spec {
    let mut g = stream(seed, 1);
    let sched_seed = g.park_miller_seed();
    let currencies = g.funding_deck(2);
    let mut threads = Vec::with_capacity(34);
    deal(&mut g, &mut threads, 2, 6, &|_| Kind::Compute);
    deal(&mut g, &mut threads, 2, 4, &|_| Kind::Yield {
        run_us: 2_000,
    });
    deal(&mut g, &mut threads, 2, 2, &|g| {
        let sleep_us = g.range(20_000, 40_000);
        Kind::Io {
            run_us: 1_000,
            sleep_us,
            phase_us: g.range(0, sleep_us),
        }
    });
    deal(&mut g, &mut threads, 2, 2, &|g| Kind::RpcClient {
        think_us: g.range(1_000, 3_000),
        service_us: g.range(2_000, 6_000),
    });
    deal(&mut g, &mut threads, 2, 1, &|_| Kind::RpcServer);
    deal(&mut g, &mut threads, 2, 2, &|g| Kind::Mutex {
        hold_us: g.range(1_000, 3_000),
        compute_us: g.range(2_000, 6_000),
    });
    Spec {
        sched_seed,
        currencies,
        threads,
    }
}

const SCALE_THREADS: usize = 100_000;
const SCALE_TENANTS: usize = 10_000;

/// 10⁵ always-runnable threads, ten to a tenant currency.
pub fn scale_steady(seed: u64) -> Spec {
    let mut g = stream(seed, 2);
    let sched_seed = g.park_miller_seed();
    let currencies = g.funding_deck(SCALE_TENANTS);
    let threads = g
        .ticket_deck(SCALE_THREADS)
        .into_iter()
        .enumerate()
        .map(|(i, tickets)| ThreadSpec {
            kind: Kind::Compute,
            currency: (i % SCALE_TENANTS) as u32,
            tickets,
        })
        .collect();
    Spec {
        sched_seed,
        currencies,
        threads,
    }
}

/// Compute soakers of `scale_churn`; they fill the first ten tenants so
/// that no blocking sibling ever revalues them.
const CHURN_SOAKERS: usize = 100;

/// 10⁵ threads, all but 100 asleep at any instant.
pub fn scale_churn(seed: u64) -> Spec {
    let mut g = stream(seed, 3);
    let sched_seed = g.park_miller_seed();
    let currencies = g.funding_deck(SCALE_TENANTS);
    let soak_tenants = CHURN_SOAKERS / 10;
    let mut tickets = g.ticket_deck(CHURN_SOAKERS);
    tickets.extend(g.ticket_deck(SCALE_THREADS - CHURN_SOAKERS));
    let threads = (0..SCALE_THREADS)
        .map(|i| {
            let (kind, currency) = if i < CHURN_SOAKERS {
                (Kind::Compute, i % soak_tenants)
            } else {
                let sleep_us = g.range(4_000_000, 8_000_000);
                let kind = Kind::Io {
                    run_us: g.range(100, 300),
                    sleep_us,
                    phase_us: g.range(0, sleep_us),
                };
                let io_tenants = SCALE_TENANTS - soak_tenants;
                (kind, soak_tenants + (i - CHURN_SOAKERS) % io_tenants)
            };
            ThreadSpec {
                kind,
                currency: currency as u32,
                tickets: tickets[i],
            }
        })
        .collect();
    Spec {
        sched_seed,
        currencies,
        threads,
    }
}

/// 64 threads in 4 currencies for the real-thread backend. None of them
/// ever exits, so every worker always has a pending event and none ever
/// asks a peer for work: what the workers contend for is the ledger's lock.
pub fn par_contend(seed: u64) -> Spec {
    let mut g = stream(seed, 4);
    let sched_seed = g.park_miller_seed();
    let currencies = g.funding_deck(4);
    // Half compute, the rest split between yielders and sleepers.
    let mut threads = Vec::with_capacity(64);
    deal(&mut g, &mut threads, 4, 8, &|_| Kind::Compute);
    deal(&mut g, &mut threads, 4, 4, &|_| Kind::Yield {
        run_us: 3_000,
    });
    deal(&mut g, &mut threads, 4, 4, &|g| Kind::Io {
        run_us: 2_000,
        sleep_us: g.range(25_000, 35_000),
        phase_us: 0,
    });
    Spec {
        sched_seed,
        currencies,
        threads,
    }
}

/// The steal probe of `par_contend`'s traced run: 64 finite jobs in the
/// same 4 currencies. Workers are loaded evenly by ticket value, not by
/// work, so some finish early, run dry and steal.
pub fn par_drain(seed: u64) -> Spec {
    let mut g = stream(seed, 5);
    let sched_seed = g.park_miller_seed();
    let currencies = g.funding_deck(4);
    let mut threads = Vec::with_capacity(64);
    deal(&mut g, &mut threads, 4, 16, &|g| Kind::Finite {
        run_us: g.range(100_000, 2_000_000),
    });
    Spec {
        sched_seed,
        currencies,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(desktop(7), desktop(7));
        assert_ne!(desktop(7), desktop(8));
        assert_eq!(par_contend(7), par_contend(7));
        assert_ne!(par_contend(7).threads, par_contend(8).threads);
    }

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // First outputs for seed 1234567 from the reference implementation.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
    }

    #[test]
    fn desktop_has_the_papers_mix() {
        let spec = desktop(1);
        assert_eq!(spec.threads.len(), 34);
        assert_eq!(spec.currencies.len(), 2);
        assert_eq!(spec.compute_threads().count(), 12);
        assert!((1..=0x7FFF_FFFE).contains(&spec.sched_seed));
    }

    #[test]
    fn churn_soakers_never_share_a_currency_with_sleepers() {
        let spec = scale_churn(3);
        assert_eq!(spec.threads.len(), SCALE_THREADS);
        let soak: Vec<u32> = spec.compute_threads().map(|(_, t)| t.currency).collect();
        assert_eq!(soak.len(), CHURN_SOAKERS);
        for t in spec.threads.iter().filter(|t| t.kind != Kind::Compute) {
            assert!(!soak.contains(&t.currency));
        }
    }

    #[test]
    fn ticket_decks_are_skewed_and_the_same_multiset_for_every_seed() {
        let sorted = |seed: u64, n: usize| {
            let mut deck = SplitMix64::new(seed).ticket_deck(n);
            deck.sort_unstable();
            deck
        };
        assert_eq!(
            sorted(5, 12),
            [10, 10, 10, 20, 20, 20, 50, 50, 100, 100, 200, 500]
        );
        assert_eq!(sorted(5, 2), [10, 20]);
        assert_eq!(sorted(5, 1000), sorted(6, 1000));
        assert_ne!(
            SplitMix64::new(5).ticket_deck(1000),
            SplitMix64::new(6).ticket_deck(1000),
            "the order is what the seed draws"
        );
        let big = sorted(5, 100_000);
        assert_eq!(big.iter().filter(|&&t| t == 10).count(), 28_000);
        assert_eq!(big.iter().filter(|&&t| t == 1000).count(), 3_000);
    }

    #[test]
    fn every_kind_holds_the_same_tickets_in_total_whatever_the_seed() {
        let by_kind = |spec: &Spec| {
            let mut totals = [0u64; 7];
            for t in &spec.threads {
                let k = match t.kind {
                    Kind::Compute => 0,
                    Kind::Yield { .. } => 1,
                    Kind::Io { .. } => 2,
                    Kind::RpcClient { .. } => 3,
                    Kind::RpcServer => 4,
                    Kind::Mutex { .. } => 5,
                    Kind::Finite { .. } => 6,
                };
                totals[k] += t.tickets;
            }
            totals
        };
        assert_eq!(by_kind(&desktop(1)), by_kind(&desktop(2)));
        assert_eq!(by_kind(&par_contend(1)), by_kind(&par_contend(2)));
        assert_eq!(by_kind(&scale_churn(1)), by_kind(&scale_churn(2)));
        assert_eq!(by_kind(&par_drain(1)), by_kind(&par_drain(2)));
    }
}
