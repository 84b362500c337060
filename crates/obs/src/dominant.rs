//! The dominant-share monitor: multi-resource fairness from one stream.
//!
//! When tenants contend on *different* resources, per-resource share
//! checks alone are misleading: a tenant can trail its entitlement on a
//! resource it barely uses while dominating the one it actually needs.
//! Following the dominant-resource view (and Dolev et al.'s "no justified
//! complaints" criterion), this monitor folds
//! [`EventKind::ResourceComplete`] and [`EventKind::BrokerFunding`] events
//! into per-tenant, per-resource observed shares, defines each tenant's
//! **dominant share** as its maximum observed share across resources, and
//! alarms when that dominant share drifts from the tenant's entitled
//! (grant-proportional) share. It also flags the *justified complaint*
//! case: a tenant below entitlement on every resource it touches.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

#[derive(Debug, Clone, Default)]
struct TenantObs {
    entitlement: f64,
    /// Cumulative completed work units, by resource tag.
    units: BTreeMap<&'static str, f64>,
    /// Last broker-pushed funded weight, by resource tag.
    funded: BTreeMap<&'static str, f64>,
}

/// One (tenant, resource) observed-vs-entitled row.
#[derive(Debug, Clone, Copy)]
pub struct ResourceShareRow {
    /// Broker tenant index.
    pub tenant: u32,
    /// Resource tag (`"cpu"`, `"disk"`, `"mem"`, `"net"`).
    pub resource: &'static str,
    /// Cumulative work units observed for the tenant on this resource.
    pub units: f64,
    /// Observed share of the resource among registered tenants.
    pub observed: f64,
    /// Grant-proportional entitled share.
    pub entitled: f64,
    /// `observed - entitled`, signed.
    pub error: f64,
    /// Last broker-pushed funded weight (0 when never observed).
    pub funded_weight: f64,
}

/// Per-tenant dominant-share summary.
#[derive(Debug, Clone, Copy)]
pub struct TenantShareRow {
    /// Broker tenant index.
    pub tenant: u32,
    /// Grant-proportional entitled share.
    pub entitled: f64,
    /// Max observed share across resources with any activity.
    pub dominant_share: f64,
    /// The resource realizing the dominant share (`"-"` when idle).
    pub dominant_resource: &'static str,
    /// `dominant_share - entitled`, signed.
    pub drift: f64,
    /// Whether `|drift|` exceeded the tolerance.
    pub alarm: bool,
    /// Whether the tenant sits below entitlement (beyond tolerance) on
    /// *every* active resource — a justified complaint.
    pub complaint: bool,
}

/// A dominant-share report over every registered tenant.
#[derive(Debug, Clone, Default)]
pub struct DominantShareReport {
    /// Per-(tenant, resource) rows, tenant-major.
    pub rows: Vec<ResourceShareRow>,
    /// Per-tenant dominant-share summaries.
    pub tenants: Vec<TenantShareRow>,
    /// Max `|error|` across all rows.
    pub max_abs_error: f64,
}

impl DominantShareReport {
    /// Whether any tenant's dominant share drifted past tolerance.
    pub fn any_alarm(&self) -> bool {
        self.tenants.iter().any(|t| t.alarm)
    }

    /// Whether any tenant has a justified complaint.
    pub fn any_complaint(&self) -> bool {
        self.tenants.iter().any(|t| t.complaint)
    }

    /// Renders the report as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>12} {:>10} {:>10} {:>9} {:>10}",
            "tenant", "resource", "units", "observed", "entitled", "error", "funded"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>12.0} {:>10.4} {:>10.4} {:>+9.4} {:>10.1}",
                r.tenant, r.resource, r.units, r.observed, r.entitled, r.error, r.funded_weight
            );
        }
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "tenant {} dominant={:.4} ({}) entitled={:.4} drift={:+.4}{}{}",
                t.tenant,
                t.dominant_share,
                t.dominant_resource,
                t.entitled,
                t.drift,
                if t.alarm { " ALARM" } else { "" },
                if t.complaint { " COMPLAINT" } else { "" }
            );
        }
        out
    }
}

/// Derives per-tenant, per-resource share drift from the event stream.
///
/// Register tenants with [`DominantShareMonitor::set_entitlement`] (grant
/// units; entitled shares normalize over the registered set), bind each
/// resource scheduler's local client index to its tenant with
/// [`DominantShareMonitor::bind_client`], attach to a [`crate::ProbeBus`],
/// and read [`DominantShareMonitor::report`]. Resources without probe
/// coverage (CPU time, resident frames) can be fed directly through
/// [`DominantShareMonitor::record_units`].
#[derive(Debug)]
pub struct DominantShareMonitor {
    tenants: BTreeMap<u32, TenantObs>,
    /// (resource tag, scheduler-local client index) -> tenant index.
    bind: BTreeMap<(&'static str, u32), u32>,
    tolerance: f64,
}

impl Default for DominantShareMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl DominantShareMonitor {
    /// Creates a monitor with the 5% drift tolerance the broker's
    /// isolation tests assert.
    pub fn new() -> Self {
        Self::with_tolerance(0.05)
    }

    /// Creates a monitor alarming when `|dominant - entitled| > tolerance`.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tenants: BTreeMap::new(),
            bind: BTreeMap::new(),
            tolerance,
        }
    }

    /// Registers (or updates) a tenant's entitlement in grant units.
    pub fn set_entitlement(&mut self, tenant: u32, grant: f64) {
        self.tenants.entry(tenant).or_default().entitlement = grant;
    }

    /// Maps a resource scheduler's local client index onto a tenant, so
    /// `ResourceComplete` events attribute work to the right grant.
    pub fn bind_client(&mut self, resource: &'static str, client: u32, tenant: u32) {
        self.bind.insert((resource, client), tenant);
    }

    /// Adds observed work units for a tenant on a resource directly (for
    /// resources measured out-of-band, e.g. CPU microseconds or resident
    /// frame-steps).
    pub fn record_units(&mut self, tenant: u32, resource: &'static str, units: f64) {
        if let Some(obs) = self.tenants.get_mut(&tenant) {
            *obs.units.entry(resource).or_insert(0.0) += units;
        }
    }

    /// Computes the dominant-share report over everything observed so far.
    pub fn report(&self) -> DominantShareReport {
        let total_grant: f64 = self.tenants.values().map(|t| t.entitlement).sum();
        let resources: BTreeSet<&'static str> = self
            .tenants
            .values()
            .flat_map(|t| t.units.keys().chain(t.funded.keys()).copied())
            .collect();
        let mut resource_totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for obs in self.tenants.values() {
            for (&r, &u) in &obs.units {
                *resource_totals.entry(r).or_insert(0.0) += u;
            }
        }
        let mut rows = Vec::new();
        let mut tenants = Vec::new();
        let mut max_abs_error: f64 = 0.0;
        for (&tenant, obs) in &self.tenants {
            let entitled = if total_grant > 0.0 {
                obs.entitlement / total_grant
            } else {
                0.0
            };
            let mut dominant_share = 0.0;
            let mut dominant_resource = "-";
            let mut active = 0u32;
            let mut below_everywhere = true;
            for &r in &resources {
                let units = obs.units.get(r).copied().unwrap_or(0.0);
                let total = resource_totals.get(r).copied().unwrap_or(0.0);
                let observed = if total > 0.0 { units / total } else { 0.0 };
                let error = observed - entitled;
                if total > 0.0 {
                    active += 1;
                    if observed > dominant_share {
                        dominant_share = observed;
                        dominant_resource = r;
                    }
                    if error >= -self.tolerance {
                        below_everywhere = false;
                    }
                    max_abs_error = max_abs_error.max(error.abs());
                }
                rows.push(ResourceShareRow {
                    tenant,
                    resource: r,
                    units,
                    observed,
                    entitled,
                    error,
                    funded_weight: obs.funded.get(r).copied().unwrap_or(0.0),
                });
            }
            let drift = dominant_share - entitled;
            tenants.push(TenantShareRow {
                tenant,
                entitled,
                dominant_share,
                dominant_resource,
                drift,
                alarm: active > 0 && drift.abs() > self.tolerance,
                complaint: active > 0 && below_everywhere,
            });
        }
        DominantShareReport {
            rows,
            tenants,
            max_abs_error,
        }
    }
}

impl Recorder for DominantShareMonitor {
    fn record(&mut self, event: &Event) {
        match event.kind {
            EventKind::ResourceComplete {
                resource,
                client,
                units,
                ..
            } => {
                if let Some(&tenant) = self.bind.get(&(resource, client)) {
                    self.record_units(tenant, resource, units as f64);
                }
            }
            EventKind::BrokerFunding {
                tenant,
                resource,
                weight,
                ..
            } => {
                if let Some(obs) = self.tenants.get_mut(&tenant) {
                    obs.funded.insert(resource, weight);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(m: &mut DominantShareMonitor, resource: &'static str, client: u32, units: u64) {
        m.record(&Event {
            time_us: 0,
            kind: EventKind::ResourceComplete {
                resource,
                client,
                units,
                wait: 0,
            },
        });
    }

    fn two_tenant_monitor() -> DominantShareMonitor {
        let mut m = DominantShareMonitor::new();
        m.set_entitlement(0, 2000.0);
        m.set_entitlement(1, 1000.0);
        m.bind_client("disk", 0, 0);
        m.bind_client("disk", 1, 1);
        m.bind_client("net", 0, 0);
        m.bind_client("net", 1, 1);
        m
    }

    #[test]
    fn proportional_feed_stays_quiet() {
        let mut m = two_tenant_monitor();
        complete(&mut m, "disk", 0, 660);
        complete(&mut m, "disk", 1, 340);
        complete(&mut m, "net", 0, 670);
        complete(&mut m, "net", 1, 330);
        m.record_units(0, "cpu", 6_600.0);
        m.record_units(1, "cpu", 3_400.0);
        let report = m.report();
        assert!(!report.any_alarm(), "{}", report.to_text());
        assert!(!report.any_complaint());
        let gold = &report.tenants[0];
        assert!((gold.entitled - 2.0 / 3.0).abs() < 1e-12);
        assert!(gold.dominant_share > 0.6 && gold.dominant_share < 0.7);
    }

    #[test]
    fn dominant_drift_trips_alarm() {
        let mut m = two_tenant_monitor();
        // Tenant 1 (entitled to 1/3) dominates disk outright.
        complete(&mut m, "disk", 0, 200);
        complete(&mut m, "disk", 1, 800);
        let report = m.report();
        let silver = report.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert!(silver.alarm, "{}", report.to_text());
        assert_eq!(silver.dominant_resource, "disk");
        assert!(silver.drift > 0.4);
    }

    #[test]
    fn starved_on_every_resource_is_a_justified_complaint() {
        let mut m = two_tenant_monitor();
        // Tenant 1 entitled to 1/3 but observed ~10% on both resources.
        complete(&mut m, "disk", 0, 900);
        complete(&mut m, "disk", 1, 100);
        complete(&mut m, "net", 0, 890);
        complete(&mut m, "net", 1, 110);
        let report = m.report();
        let silver = report.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert!(silver.complaint, "{}", report.to_text());
        let gold = report.tenants.iter().find(|t| t.tenant == 0).unwrap();
        assert!(!gold.complaint);
    }

    #[test]
    fn dominating_one_resource_is_not_a_complaint() {
        let mut m = two_tenant_monitor();
        // Tenant 1 trails on disk but dominates net: no justified
        // complaint (it gets its share where it wants it), though the
        // dominant-share drift alarm fires.
        complete(&mut m, "disk", 0, 950);
        complete(&mut m, "disk", 1, 50);
        complete(&mut m, "net", 0, 100);
        complete(&mut m, "net", 1, 900);
        let report = m.report();
        let silver = report.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert!(!silver.complaint, "{}", report.to_text());
        assert!(silver.alarm);
        assert_eq!(silver.dominant_resource, "net");
    }

    #[test]
    fn funding_events_land_in_rows() {
        let mut m = two_tenant_monitor();
        m.record(&Event {
            time_us: 0,
            kind: EventKind::BrokerFunding {
                tenant: 0,
                resource: "disk",
                weight: 500.0,
                refunded: false,
            },
        });
        complete(&mut m, "disk", 0, 10);
        let report = m.report();
        let row = report
            .rows
            .iter()
            .find(|r| r.tenant == 0 && r.resource == "disk")
            .unwrap();
        assert_eq!(row.funded_weight, 500.0);
    }

    #[test]
    fn ignores_unbound_clients_and_unregistered_tenants() {
        let mut m = two_tenant_monitor();
        complete(&mut m, "disk", 9, 100);
        m.record_units(7, "cpu", 100.0);
        let report = m.report();
        assert!(report.rows.iter().all(|r| r.units == 0.0));
    }
}
