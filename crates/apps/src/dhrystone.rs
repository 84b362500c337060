//! The Dhrystone workload (Sections 5.1, 5.5, 5.6).
//!
//! The paper uses the Dhrystone benchmark purely as a CPU-time odometer:
//! two compute-bound tasks run for a fixed wall-clock interval and their
//! iteration counts measure the processor share each received. Here a
//! Dhrystone task is a [`lottery_sim::workload::ComputeBound`] thread, and
//! iterations are derived from consumed CPU time at the calibrated rate of
//! the paper's DECStation 5000/125 (Figure 5's 2:1 run totals ≈ 38,000
//! iterations/sec across both tasks).

use lottery_sim::prelude::*;

/// Dhrystone iterations per second of CPU on the reference machine.
///
/// Calibrated so absolute numbers are of the paper's magnitude: the 2:1
/// experiment of Figure 5 sums to ≈ 38,000 iterations/sec.
pub const ITERATIONS_PER_CPU_SEC: f64 = 38_000.0;

/// Converts consumed CPU time to Dhrystone iterations.
pub fn iterations(cpu: SimDuration) -> f64 {
    cpu.as_secs_f64() * ITERATIONS_PER_CPU_SEC
}

/// Configuration for the relative-rate experiments (Figures 4 and 5).
#[derive(Debug, Clone)]
pub struct FairnessRun {
    /// Ticket allocation of task 1 relative to task 2 (task 2 holds
    /// [`FairnessRun::base_tickets`]).
    pub ratio: f64,
    /// Tickets held by the second task.
    pub base_tickets: u64,
    /// Wall-clock duration of the run.
    pub duration: SimTime,
    /// Scheduling quantum (the paper's platform used 100 ms).
    pub quantum: SimDuration,
    /// RNG seed.
    pub seed: u32,
}

impl Default for FairnessRun {
    fn default() -> Self {
        Self {
            ratio: 2.0,
            base_tickets: 100,
            duration: SimTime::from_secs(60),
            quantum: SimDuration::from_ms(100),
            seed: 1,
        }
    }
}

/// Results of one two-task run.
#[derive(Debug)]
pub struct FairnessReport {
    /// The allocated ticket ratio.
    pub allocated: f64,
    /// The observed iteration (CPU) ratio over the whole run.
    pub observed: f64,
    /// Iterations per second for each task in consecutive windows.
    pub windows: Vec<(f64, f64)>,
    /// Total iterations per task.
    pub totals: (f64, f64),
}

/// Runs two Dhrystone tasks under lottery scheduling with the given ticket
/// ratio, reporting observed rates (Figure 4's procedure; with
/// `window` sampling it also yields Figure 5's series).
pub fn run_fairness(config: &FairnessRun, window: SimDuration) -> FairnessReport {
    let policy = LotteryPolicy::with_quantum(config.seed, config.quantum);
    let base = policy.base_currency();
    let t1_tickets = (config.ratio * config.base_tickets as f64).round() as u64;
    let mut kernel = Kernel::new(policy);
    let t1 = kernel.spawn(
        "dhry1",
        Box::new(ComputeBound),
        FundingSpec::new(base, t1_tickets.max(1)),
    );
    let t2 = kernel.spawn(
        "dhry2",
        Box::new(ComputeBound),
        FundingSpec::new(base, config.base_tickets),
    );
    let per_window = run_windows(&mut kernel, &[t1, t2], window, config.duration);

    let cpu1 = SimDuration::from_us(kernel.metrics().cpu_us(t1));
    let cpu2 = SimDuration::from_us(kernel.metrics().cpu_us(t2));
    // Each window's CPU fraction, scaled to iterations/sec.
    let rate = |cpu: &SimDuration| cpu.fraction_of(window) * ITERATIONS_PER_CPU_SEC;
    let windows = (per_window[0].iter().zip(&per_window[1]))
        .map(|(a, b)| (rate(a), rate(b)))
        .collect();
    FairnessReport {
        allocated: config.ratio,
        observed: cpu1.as_us() as f64 / cpu2.as_us().max(1) as f64,
        windows,
        totals: (iterations(cpu1), iterations(cpu2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_scale_linearly() {
        assert_eq!(iterations(SimDuration::from_secs(1)), 38_000.0);
        assert_eq!(iterations(SimDuration::from_ms(500)), 19_000.0);
        assert_eq!(iterations(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn two_to_one_converges() {
        let report = run_fairness(&FairnessRun::default(), SimDuration::from_secs(8));
        assert!(
            (report.observed - 2.0).abs() < 0.25,
            "observed {}",
            report.observed
        );
        // Figure 5's scale: both tasks together consume the whole CPU.
        let total_rate = report.totals.0 + report.totals.1;
        assert!((total_rate - 60.0 * ITERATIONS_PER_CPU_SEC).abs() < 1.0);
        assert_eq!(report.windows.len(), 7, "60 s / 8 s windows");
    }

    #[test]
    fn ten_to_one_is_noisier_but_tracks() {
        let report = run_fairness(
            &FairnessRun {
                ratio: 10.0,
                ..FairnessRun::default()
            },
            SimDuration::from_secs(8),
        );
        // Figure 4's worst case for 10:1 was 13.42:1 over 60 s.
        assert!(
            (6.0..=15.0).contains(&report.observed),
            "observed {}",
            report.observed
        );
    }

    #[test]
    fn windows_sum_to_full_cpu() {
        let report = run_fairness(&FairnessRun::default(), SimDuration::from_secs(8));
        // Two compute-bound tasks fill every quantum-aligned window.
        for &(a, b) in &report.windows {
            assert_eq!(a + b, ITERATIONS_PER_CPU_SEC, "window sum");
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = run_fairness(&FairnessRun::default(), SimDuration::from_secs(8));
        let b = run_fairness(&FairnessRun::default(), SimDuration::from_secs(8));
        assert_eq!(a.observed, b.observed);
    }
}
