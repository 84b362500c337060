//! Probe-derived demand: closing the `record_demand` loop.
//!
//! The broker's demand-refund split originally relied on callers
//! reporting demand by hand each step. The probe bus already carries the
//! signal: disk and net schedulers emit [`EventKind::ResourceDraw`] for
//! every contested service slot and [`EventKind::ResourceComplete`] for
//! every finished request, both tagged with the scheduler-local client
//! index. A [`DemandTap`] sits on the bus, maps those client indexes back
//! to broker tenants, and accumulates demand units that
//! [`crate::ResourceBroker::absorb_demand`] folds into the normal demand
//! accounting before a rebalance — so `rebalance` runs unattended for
//! resources whose schedulers are probed. `record_demand` remains as the
//! manual override (and as the only source for resources, like the CPU
//! and memory schedulers, that do not emit per-client draw events).

use std::collections::BTreeMap;

use lottery_obs::{Event, EventKind, Recorder};

use crate::broker::{Resource, TenantId};

/// A bus recorder that turns resource draw/completion events into broker
/// demand, using a caller-maintained `(resource, client) → tenant` bind
/// map (the same shape the `apply_*` bind slices use).
#[derive(Debug, Default)]
pub struct DemandTap {
    bind: BTreeMap<(&'static str, u32), TenantId>,
    pending: BTreeMap<(TenantId, &'static str), u64>,
}

impl DemandTap {
    /// Creates an empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a scheduler-local client index on a resource to a tenant.
    /// Unbound clients (foreign clients on a shared bus) contribute no
    /// demand.
    pub fn bind(&mut self, resource: Resource, client: u32, tenant: TenantId) {
        self.bind.insert((resource.name(), client), tenant);
    }

    /// Pending derived demand for one tenant and resource.
    pub fn pending(&self, tenant: TenantId, resource: Resource) -> u64 {
        self.pending
            .get(&(tenant, resource.name()))
            .copied()
            .unwrap_or(0)
    }

    /// Drains the accumulated demand as `(tenant, resource, units)` rows.
    pub fn drain(&mut self) -> Vec<(TenantId, Resource, u64)> {
        let drained = std::mem::take(&mut self.pending);
        drained
            .into_iter()
            .filter_map(|((tenant, tag), units)| {
                Resource::parse(tag).map(|resource| (tenant, resource, units))
            })
            .collect()
    }

    fn accumulate(&mut self, resource: &'static str, client: u32, units: u64) {
        if let Some(&tenant) = self.bind.get(&(resource, client)) {
            *self.pending.entry((tenant, resource)).or_insert(0) += units;
        }
    }
}

impl Recorder for DemandTap {
    fn record(&mut self, event: &Event) {
        match event.kind {
            // A draw means the client contended for (and won) a slot:
            // there was pending work. One unit per draw keeps the funded
            // bit alive without scaling demand by service size.
            EventKind::ResourceDraw {
                resource, client, ..
            } => self.accumulate(resource, client, 1),
            // Completions carry the serviced units — the demand actually
            // realized, which is what backlog-following budget policies
            // want to weigh.
            EventKind::ResourceComplete {
                resource,
                client,
                units,
                ..
            } => self.accumulate(resource, client, units),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> Event {
        Event { time_us: 0, kind }
    }

    #[test]
    fn draws_and_completions_accumulate_per_tenant() {
        let mut broker = crate::ResourceBroker::new();
        let gold = broker
            .register_tenant("gold", 2000, crate::SplitPolicy::even())
            .unwrap();
        let silver = broker
            .register_tenant("silver", 1000, crate::SplitPolicy::even())
            .unwrap();
        let mut tap = DemandTap::new();
        tap.bind(Resource::Disk, 0, gold);
        tap.bind(Resource::Disk, 1, silver);
        tap.bind(Resource::Net, 0, gold);
        tap.record(&ev(EventKind::ResourceDraw {
            resource: "disk",
            client: 0,
            entries: 2,
            total: 750,
        }));
        tap.record(&ev(EventKind::ResourceComplete {
            resource: "disk",
            client: 0,
            units: 16,
            wait: 100,
        }));
        tap.record(&ev(EventKind::ResourceDraw {
            resource: "disk",
            client: 1,
            entries: 2,
            total: 750,
        }));
        // Client 2 is nobody's: counted, not credited.
        tap.record(&ev(EventKind::ResourceComplete {
            resource: "net",
            client: 2,
            units: 4,
            wait: 1,
        }));
        assert_eq!(tap.pending(gold, Resource::Disk), 17);
        assert_eq!(tap.pending(silver, Resource::Disk), 1);
        assert_eq!(tap.pending(gold, Resource::Net), 0);
        let rows = tap.drain();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&(gold, Resource::Disk, 17)));
        assert_eq!(tap.pending(gold, Resource::Disk), 0);
    }

    #[test]
    fn non_resource_events_are_ignored() {
        let mut tap = DemandTap::new();
        tap.record(&ev(EventKind::Wake { thread: 3 }));
        tap.record(&ev(EventKind::WeightChange {
            client: 1,
            tickets: 100,
            origin: "spawn",
        }));
        assert!(tap.drain().is_empty());
    }
}
