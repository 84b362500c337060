//! The fairness-drift monitor: continuous Figure-4 error statistics.
//!
//! The paper quantifies fairness as observed-vs-entitled iteration ratios
//! over fixed windows (Figure 4) and notes that lottery wins are binomially
//! distributed: over `n` lotteries a client holding share `p` wins `np`
//! times with standard deviation `sqrt(np(1-p))` (Section 3). The monitor
//! applies both continuously: it consumes decision and quantum-end events,
//! compares each registered client's observed win and CPU shares against
//! its entitled share, and raises an alarm when the win count's binomial
//! z-score leaves the expected band — a statistically calibrated "this
//! scheduler is drifting" signal rather than an arbitrary threshold.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

#[derive(Debug, Clone, Copy)]
struct ClientObs {
    entitlement: f64,
    wins: u64,
    cpu_us: u64,
    /// Most recently granted compensation factor (Section 4.5). Sticky
    /// across revocations: a compensated client holds its factor only
    /// between waking and its next win, so the *recurring* grant — not the
    /// instantaneous state — is what predicts its steady-state win rate.
    comp_factor: f64,
}

impl Default for ClientObs {
    fn default() -> Self {
        Self {
            entitlement: 0.0,
            wins: 0,
            cpu_us: 0,
            comp_factor: 1.0,
        }
    }
}

/// Per-client drift against entitlement.
#[derive(Debug, Clone, Copy)]
pub struct DriftRow {
    /// Thread index.
    pub thread: u32,
    /// Entitled share of the machine in `[0, 1]`: *compensated* weight
    /// (tickets × last granted compensation factor) over the total
    /// compensated weight of the registered set. Win frequency — not CPU
    /// share — is what compensation inflates, so the binomial test must
    /// compare against the compensated share.
    pub entitled: f64,
    /// The compensation factor folded into `entitled` (1 when never
    /// compensated).
    pub comp_factor: f64,
    /// Observed share of lottery wins.
    pub win_share: f64,
    /// Observed share of CPU time.
    pub cpu_share: f64,
    /// `cpu_share - entitled` (Figure 4's error, signed).
    pub error: f64,
    /// Binomial z-score of the win count: `(w - np) / sqrt(np(1-p))`.
    pub z: f64,
    /// Whether `|z|` exceeded the alarm threshold.
    pub alarm: bool,
}

/// A fairness report over every registered client.
#[derive(Debug, Clone, Default)]
pub struct FairnessReport {
    /// Per-client rows, by thread index.
    pub rows: Vec<DriftRow>,
    /// Total dispatches observed across registered clients.
    pub total_wins: u64,
    /// Total CPU microseconds observed across registered clients.
    pub total_cpu_us: u64,
    /// Mean of `|error|` across clients.
    pub mean_abs_error: f64,
    /// Max of `|error|` across clients.
    pub max_abs_error: f64,
}

impl FairnessReport {
    /// Whether any client's z-score tripped the alarm.
    pub fn any_alarm(&self) -> bool {
        self.rows.iter().any(|r| r.alarm)
    }

    /// Renders the report as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>10} {:>9} {:>7}  alarm",
            "thread", "entitled", "win-share", "cpu-share", "error", "z"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>+9.4} {:>+7.2}  {}",
                r.thread,
                r.entitled,
                r.win_share,
                r.cpu_share,
                r.error,
                r.z,
                if r.alarm { "YES" } else { "-" }
            );
        }
        let _ = writeln!(
            out,
            "wins={} cpu_us={} mean|err|={:.4} max|err|={:.4}",
            self.total_wins, self.total_cpu_us, self.mean_abs_error, self.max_abs_error
        );
        out
    }
}

/// Derives observed-vs-entitled share drift from the event stream.
///
/// Register each client of interest with [`FairnessMonitor::set_entitlement`]
/// (in ticket units; shares are normalized over the registered set), attach
/// the monitor to a [`crate::ProbeBus`], run, then read
/// [`FairnessMonitor::report`]. Unregistered threads are ignored.
#[derive(Debug)]
pub struct FairnessMonitor {
    clients: BTreeMap<u32, ClientObs>,
    alarm_z: f64,
}

impl Default for FairnessMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl FairnessMonitor {
    /// Creates a monitor with the conventional 3-sigma alarm threshold.
    pub fn new() -> Self {
        Self::with_alarm_z(3.0)
    }

    /// Creates a monitor alarming when `|z| > alarm_z`.
    pub fn with_alarm_z(alarm_z: f64) -> Self {
        Self {
            clients: BTreeMap::new(),
            alarm_z,
        }
    }

    /// Registers (or updates) a client's entitlement in ticket units.
    ///
    /// Pass the client's base-unit funding; shares are normalized over all
    /// registered clients at report time, so any consistent unit works.
    pub fn set_entitlement(&mut self, thread: u32, tickets: f64) {
        self.clients.entry(thread).or_default().entitlement = tickets;
    }

    /// Removes a client from the registered set.
    pub fn remove(&mut self, thread: u32) {
        self.clients.remove(&thread);
    }

    /// Computes the drift report over everything observed so far.
    pub fn report(&self) -> FairnessReport {
        // Entitlement is computed from *compensated* weight: a client's
        // registered tickets times its recurring compensation factor.
        let total_tickets: f64 = self
            .clients
            .values()
            .map(|c| c.entitlement * c.comp_factor)
            .sum();
        let total_wins: u64 = self.clients.values().map(|c| c.wins).sum();
        let total_cpu: u64 = self.clients.values().map(|c| c.cpu_us).sum();
        let mut rows = Vec::with_capacity(self.clients.len());
        for (&thread, obs) in &self.clients {
            let entitled = if total_tickets > 0.0 {
                obs.entitlement * obs.comp_factor / total_tickets
            } else {
                0.0
            };
            let win_share = if total_wins > 0 {
                obs.wins as f64 / total_wins as f64
            } else {
                0.0
            };
            let cpu_share = if total_cpu > 0 {
                obs.cpu_us as f64 / total_cpu as f64
            } else {
                0.0
            };
            let n = total_wins as f64;
            let variance = n * entitled * (1.0 - entitled);
            let z = if variance > 0.0 {
                (obs.wins as f64 - n * entitled) / variance.sqrt()
            } else {
                0.0
            };
            rows.push(DriftRow {
                thread,
                entitled,
                comp_factor: obs.comp_factor,
                win_share,
                cpu_share,
                error: cpu_share - entitled,
                z,
                alarm: z.abs() > self.alarm_z,
            });
        }
        let abs_errors: Vec<f64> = rows.iter().map(|r| r.error.abs()).collect();
        let mean_abs_error = if abs_errors.is_empty() {
            0.0
        } else {
            abs_errors.iter().sum::<f64>() / abs_errors.len() as f64
        };
        let max_abs_error = abs_errors.iter().cloned().fold(0.0, f64::max);
        FairnessReport {
            rows,
            total_wins,
            total_cpu_us: total_cpu,
            mean_abs_error,
            max_abs_error,
        }
    }
}

impl Recorder for FairnessMonitor {
    fn record(&mut self, event: &Event) {
        match event.kind {
            EventKind::Decision { thread, .. } => {
                if let Some(obs) = self.clients.get_mut(&thread) {
                    obs.wins += 1;
                }
            }
            EventKind::QuantumEnd {
                thread,
                used_us,
                factor,
                ..
            } => {
                if let Some(obs) = self.clients.get_mut(&thread) {
                    obs.cpu_us += used_us;
                    if factor > 1.0 {
                        obs.comp_factor = factor;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut FairnessMonitor, thread: u32, wins: u64, us_per_win: u64) {
        for _ in 0..wins {
            m.record(&Event {
                time_us: 0,
                kind: EventKind::Decision {
                    thread,
                    cpu: 0,
                    wait_us: 0,
                    queue_depth: 0,
                    drawn: true,
                    levels: 1,
                    total: 1.0,
                    winning: 0.5,
                    shard: 0,
                    stolen: false,
                },
            });
            m.record(&Event {
                time_us: 0,
                kind: EventKind::QuantumEnd {
                    thread,
                    cpu: 0,
                    reason: "quantum-expired",
                    used_us: us_per_win,
                    factor: 1.0,
                },
            });
        }
    }

    #[test]
    fn proportional_feed_stays_quiet() {
        let mut m = FairnessMonitor::new();
        m.set_entitlement(0, 300.0);
        m.set_entitlement(1, 100.0);
        feed(&mut m, 0, 7_500, 100);
        feed(&mut m, 1, 2_500, 100);
        let report = m.report();
        assert!(!report.any_alarm(), "{}", report.to_text());
        assert!((report.rows[0].entitled - 0.75).abs() < 1e-12);
        assert!((report.rows[0].win_share - 0.75).abs() < 1e-12);
        assert!(report.mean_abs_error < 1e-9);
    }

    #[test]
    fn starved_client_trips_binomial_alarm() {
        let mut m = FairnessMonitor::new();
        m.set_entitlement(0, 100.0);
        m.set_entitlement(1, 100.0);
        // Entitled to half; observed 10% — far outside 3 sigma at n=1000.
        feed(&mut m, 0, 900, 100);
        feed(&mut m, 1, 100, 100);
        let report = m.report();
        assert!(report.any_alarm());
        let starved = report.rows.iter().find(|r| r.thread == 1).unwrap();
        assert!(starved.z < -3.0, "z = {}", starved.z);
        assert!(starved.error < -0.3);
    }

    #[test]
    fn compensated_client_entitlement_tracks_compensated_weight() {
        let mut m = FairnessMonitor::new();
        m.set_entitlement(0, 100.0);
        m.set_entitlement(1, 100.0);
        // Thread 1 is I/O-bound and recurrently granted a 4x compensation
        // factor: its win share legitimately runs at 4x its ticket share.
        m.record(&Event {
            time_us: 0,
            kind: EventKind::QuantumEnd {
                thread: 1,
                cpu: 0,
                reason: "blocked",
                used_us: 0,
                factor: 4.0,
            },
        });
        // The ungranted quantum ends that follow (and the revocation at
        // each dispatch) must not reset the recurring factor.
        feed(&mut m, 0, 2_000, 100);
        feed(&mut m, 1, 8_000, 25);
        let report = m.report();
        let io = report.rows.iter().find(|r| r.thread == 1).unwrap();
        assert!((io.entitled - 0.8).abs() < 1e-12, "{}", report.to_text());
        assert_eq!(io.comp_factor, 4.0);
        assert!(!report.any_alarm(), "{}", report.to_text());
    }

    #[test]
    fn ignores_unregistered_threads() {
        let mut m = FairnessMonitor::new();
        m.set_entitlement(0, 100.0);
        feed(&mut m, 9, 50, 100);
        let report = m.report();
        assert_eq!(report.total_wins, 0);
    }
}
