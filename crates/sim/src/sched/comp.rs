//! The shared compensation policy hook (Section 4.5).
//!
//! This hook is the single owner of the compensation decision around
//! [`lottery_core::compensation`]: the [`super::core::LotteryCore`] under
//! every lottery policy (and each `lottery-par` worker) delegates both the
//! quantum-end charge side and the dispatch-time revoke side to it, so
//! the Section 4.5 ablation drives every policy through one switch and
//! every policy reports grants and revocations the same way.
//!
//! Ordering matters on the charge side: the grant happens *before* a
//! blocked client is deactivated, so the ledger's [`CompensationLedger`]
//! snapshots the implicit ticket's base-unit worth while the funding is
//! still active (a deactivated client funds nothing and would snapshot
//! zero).
//!
//! [`CompensationLedger`]: lottery_core::ledger::CompensationLedger

use lottery_core::client::ClientId;
use lottery_core::compensation;
use lottery_core::ledger::Ledger;
use lottery_obs::ProbeBus;

use super::EndReason;
use crate::time::SimDuration;

/// Grant/revoke policy for compensation tickets, shared by all schedulers.
#[derive(Debug, Clone, Copy)]
pub struct CompensationHook {
    enabled: bool,
}

impl Default for CompensationHook {
    fn default() -> Self {
        Self::new()
    }
}

impl CompensationHook {
    /// Creates the hook with compensation enabled (the paper's default).
    pub fn new() -> Self {
        Self { enabled: true }
    }

    /// Enables or disables compensation grants (the Section 4.5 ablation
    /// switch). Already-granted factors still clear at the next dispatch.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Dispatch side: the winner starts its quantum, so any compensation
    /// ticket it held is revoked. The ledger counts the revocation
    /// ([`lottery_obs::Counter::CompensationRevoked`]) where it clears
    /// the entry, on the counter block it alone writes, so the hook
    /// touches no bus.
    ///
    /// The client's tickets stay *active* while it runs — it is using
    /// them — which keeps mutex-handoff valuations live; they deactivate
    /// only when the thread blocks (Section 4.4).
    ///
    /// An uncompensated winner costs one lookup in the ledger's dense
    /// compensation book, which holds an entry exactly when the factor is
    /// above one; the client's own record is not touched.
    pub fn on_dispatch(&self, ledger: &mut Ledger, client: ClientId) {
        if ledger.compensation_factor(client) > 1.0 {
            compensation::clear(ledger, client).expect("client liveness");
        }
    }

    /// Charge side: a thread that yielded or blocked with quantum
    /// remaining is granted a `q/used` compensation factor (while its
    /// funding is still active, so the compensated weight is captured),
    /// staged for the kernel's quantum-end probe; then a blocked client's
    /// tickets are deactivated so shared-currency values redistribute
    /// (Section 4.4).
    pub fn on_charge(
        &self,
        ledger: &mut Ledger,
        bus: &ProbeBus,
        client: ClientId,
        used: SimDuration,
        quantum: SimDuration,
        why: EndReason,
    ) {
        let grants = self.enabled
            && matches!(why, EndReason::Yielded | EndReason::Blocked)
            && used < quantum;
        if grants {
            compensation::grant(ledger, client, used.as_us().max(1), quantum.as_us())
                .expect("client liveness");
            bus.stage_grant(quantum.as_us() as f64 / used.as_us().max(1) as f64);
        }
        if why == EndReason::Blocked {
            ledger.deactivate_client(client).expect("client liveness");
        }
    }
}
