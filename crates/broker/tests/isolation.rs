//! One grant per tenant, four resources, 2:1 everywhere (DESIGN.md §7).
//!
//! Tenants `db-gold` (2000) and `mc-silver` (1000) split their grants
//! evenly over cpu/disk/mem/net, and the broker prices the distributed CPU
//! lottery, the disk lottery, the inverse-lottery memory manager and the
//! cell switch at once. Mid-run both tenants inflate their own currencies.
//! Valued funding keeps every resource at 2:1 and the dominant-share
//! monitor quiet; the raw face-amount ablation lets the same inflation
//! leak across tenants and the monitor alarms. Seed 1 throughout.

use lottery_apps::montecarlo::relative_error;
use lottery_broker::disk::{DiskPolicy, DiskScheduler};
use lottery_broker::mem::MemoryManager;
use lottery_broker::queue::QueueClientId;
use lottery_broker::switch::Switch;
use lottery_broker::{DemandTap, Resource, ResourceBroker, SplitPolicy, TenantId};
use lottery_core::rng::ParkMiller;
use lottery_sim::prelude::*;

const SEED: u32 = 1;

fn two_tenants(broker: &mut ResourceBroker) -> (TenantId, TenantId) {
    let gold = broker.register_tenant("db-gold", 2000, SplitPolicy::even());
    let silver = broker.register_tenant("mc-silver", 1000, SplitPolicy::even());
    (gold.unwrap(), silver.unwrap())
}

/// Keeps both disk clients backlogged through step `step` and serves `n`
/// requests.
fn serve_disk(
    disk: &mut DiskScheduler,
    bind: &[(TenantId, QueueClientId); 2],
    step: u64,
    n: u64,
    rng: &mut ParkMiller,
) {
    for i in 0..n {
        for (k, &(_, c)) in bind.iter().enumerate() {
            if disk.backlog(c) < 4 {
                let sector = ((step * n + i) * 64 + k as u64 * 500_000) % 1_000_000;
                disk.submit(c, sector, 8);
            }
        }
        disk.service_next(rng).unwrap();
    }
}

/// Keeps both circuits backlogged through step `step` and forwards `n`
/// cells.
fn serve_net(
    switch: &mut Switch,
    bind: &[(TenantId, QueueClientId); 2],
    step: u64,
    n: u64,
    rng: &mut ParkMiller,
) {
    for i in 0..n {
        for &(_, vc) in bind {
            if switch.backlog(vc) == 0 {
                switch.enqueue(vc, step * n + i);
            }
        }
        switch.forward(rng).unwrap();
    }
}

/// 600 steps of 25 ms with both tenants busy on every resource. At step
/// 100 gold prints 1500 disk tickets for a scanner and silver starts
/// error-driving a cpu worker's funding up to 16×, Figure 6 style.
/// Returns the gold:silver cpu/disk/mem/net ratios after a 100-step
/// warm-up and whether the dominant-share monitor alarmed.
fn mixed_run(raw: bool) -> ([f64; 4], bool) {
    let mut broker = ResourceBroker::new();
    broker.set_raw_funding(raw);
    let bus = ProbeBus::enabled();
    let monitor = Shared::new(DominantShareMonitor::new());
    bus.attach(monitor.clone());
    broker.set_probe_bus(bus.clone());
    let (gold, silver) = two_tenants(&mut broker);
    monitor.with(|m| {
        m.set_entitlement(gold.index(), 2000.0);
        m.set_entitlement(silver.index(), 1000.0);
    });

    let policy = DistributedLottery::with_quantum(SEED, 2, SimDuration::from_ms(1));
    let mut kernel = SmpKernel::new(policy, 2);
    kernel.set_probe_bus(bus.clone());
    let base = kernel.policy().base_currency();
    let mut cpu_bind = Vec::new();
    for (tenant, tag) in [(gold, "db"), (silver, "mc")] {
        for i in 0..2 {
            let funding = FundingSpec::new(base, 1);
            let tid = kernel.spawn(format!("{tag}{i}"), Box::new(ComputeBound), funding);
            cpu_bind.push((tenant, tid));
        }
    }
    let tenants = [(gold, "db-gold"), (silver, "mc-silver")];
    let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
    disk.set_probe_bus(bus.clone());
    let disk_bind = tenants.map(|(t, n)| (t, disk.register(n, 1)));
    let mut switch = Switch::new();
    switch.set_probe_bus(bus);
    let net_bind = tenants.map(|(t, n)| (t, switch.register(n, 1)));
    let mut mem = MemoryManager::new(240);
    let mem_bind = tenants.map(|(t, n)| (t, mem.register(n, 1)));
    monitor.with(|m| {
        for (t, c) in disk_bind {
            m.bind_client("disk", c.index(), t.index());
        }
        for (t, vc) in net_bind {
            m.bind_client("net", vc.index(), t.index());
        }
    });
    let cpu_us = |kernel: &SmpKernel<DistributedLottery>, tenant: TenantId| -> u64 {
        cpu_bind
            .iter()
            .filter(|(t, _)| *t == tenant)
            .map(|&(_, tid)| kernel.metrics().cpu_us(tid))
            .sum()
    };

    let mut rng = ParkMiller::new(SEED + 97);
    let mut silver_worker = None;
    let (mut cpu_base, mut disk_base, mut net_base) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    let mut mem_integral = [0f64; 2];
    for step in 0..600u32 {
        for t in [gold, silver] {
            for r in Resource::ALL {
                broker.record_demand(t, r, 1);
            }
        }
        if step % 10 == 0 {
            broker.rebalance().unwrap();
        }
        broker.apply_cpu(kernel.policy_mut(), &cpu_bind).unwrap();
        broker.apply_queue(Resource::Disk, &mut disk, &disk_bind);
        broker.apply_queue(Resource::Net, &mut switch, &net_bind);
        broker.apply_mem(&mut mem, &mem_bind);
        if step == 100 {
            broker.issue_worker(gold, Resource::Disk, 1_500).unwrap();
            silver_worker = Some(broker.issue_worker(silver, Resource::Cpu, 125).unwrap());
        }
        if let (Some(worker), 0) = (silver_worker, step % 10) {
            let trials = cpu_us(&kernel, silver) / 1_000;
            let scale = (1.0 / relative_error(trials.max(1) as f64)).min(16.0);
            let amount = (125.0 * scale).round().max(125.0) as u64;
            broker.set_worker_amount(worker, amount).unwrap();
        }
        serve_disk(&mut disk, &disk_bind, u64::from(step), 40, &mut rng);
        serve_net(&mut switch, &net_bind, u64::from(step), 40, &mut rng);
        for _ in 0..20 {
            for &(_, c) in &mem_bind {
                mem.fault(c, &mut rng).unwrap();
            }
        }
        let deadline = SimTime::from_ms(u64::from(step + 1) * 25);
        kernel.run_until(deadline).unwrap();

        if step == 100 {
            for slot in 0..2 {
                cpu_base[slot] = cpu_us(&kernel, disk_bind[slot].0);
                disk_base[slot] = disk.served(disk_bind[slot].1);
                net_base[slot] = switch.served(net_bind[slot].1);
            }
        }
        if step >= 100 {
            for (slot, &(tenant, c)) in mem_bind.iter().enumerate() {
                let resident = mem.resident(c) as f64;
                mem_integral[slot] += resident;
                monitor.with(|m| m.record_units(tenant.index(), "mem", resident));
            }
        }
    }

    let cpu = [0, 1].map(|slot| {
        let tenant = disk_bind[slot].0;
        let used = (cpu_us(&kernel, tenant) - cpu_base[slot]) as f64;
        monitor.with(|m| m.record_units(tenant.index(), "cpu", used));
        used
    });
    let disk_used = [0, 1].map(|s| (disk.served(disk_bind[s].1) - disk_base[s]) as f64);
    let net_used = [0, 1].map(|s| (switch.served(net_bind[s].1) - net_base[s]) as f64);
    let ratios = [
        cpu[0] / cpu[1],
        disk_used[0] / disk_used[1],
        mem_integral[0] / mem_integral[1],
        net_used[0] / net_used[1],
    ];
    (ratios, monitor.with(|m| m.report().any_alarm()))
}

fn printed(ratios: [f64; 4]) -> String {
    ratios.map(|r| format!("{r:.3}")).join(" ")
}

/// Brokered (ledger-valued) funding holds 1.990/1.959/1.991/2.002:1 on
/// cpu/disk/mem/net — all four within 5% of 2:1 at once — with the
/// dominant-share monitor quiet.
#[test]
fn brokered_funding_holds_two_to_one_on_every_resource() {
    let (ratios, alarm) = mixed_run(false);
    assert!(ratios.iter().all(|r| (r / 2.0 - 1.0).abs() <= 0.05) && !alarm);
    assert_eq!(printed(ratios), "1.990 1.959 1.991 2.002");
}

/// Raw face-amount funding under the same inflation collapses cpu to
/// 0.220:1 and blows disk to 7.801:1, and the monitor alarms.
#[test]
fn raw_funding_leaks_intra_tenant_inflation() {
    let (ratios, alarm) = mixed_run(true);
    assert!(ratios.iter().any(|r| (r / 2.0 - 1.0).abs() > 0.05) && alarm);
    assert_eq!(printed(ratios), "0.220 7.801 1.991 2.002");
}

/// 300 steps with disk and net busy and cpu and mem idle, demand once
/// reported by the callers and once absorbed from a probe-bus
/// [`DemandTap`] watching the schedulers' own draws and completions. The
/// two runs serve the same 31648:16352 sectors and 3986:2014 cells, end
/// at the same weights and count the same 4 refunds: `rebalance` keys on
/// demand presence, not magnitude, so it runs unattended.
#[test]
fn tapped_demand_reproduces_caller_reported_rebalancing() {
    let run = |derived: bool| {
        let mut broker = ResourceBroker::new();
        let bus = ProbeBus::enabled();
        let tap = Shared::new(DemandTap::new());
        bus.attach(tap.clone());
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        let mut switch = Switch::new();
        disk.set_probe_bus(bus.clone());
        switch.set_probe_bus(bus);
        let (gold, silver) = two_tenants(&mut broker);
        let tenants = [(gold, "db-gold"), (silver, "mc-silver")];
        let disk_bind = tenants.map(|(t, n)| (t, disk.register(n, 1)));
        let net_bind = tenants.map(|(t, n)| (t, switch.register(n, 1)));
        tap.with(|t| {
            for (tenant, c) in disk_bind {
                t.bind(Resource::Disk, c.index(), tenant);
            }
            for (tenant, vc) in net_bind {
                t.bind(Resource::Net, vc.index(), tenant);
            }
        });
        let mut rng = ParkMiller::new(SEED + 31);
        for step in 0..300 {
            serve_disk(&mut disk, &disk_bind, step, 20, &mut rng);
            serve_net(&mut switch, &net_bind, step, 20, &mut rng);
            if derived {
                broker.absorb_demand(&tap);
            } else {
                tap.with(|t| t.drain());
                for resource in [Resource::Disk, Resource::Net] {
                    for t in [gold, silver] {
                        broker.record_demand(t, resource, 1);
                    }
                }
            }
            broker.rebalance().unwrap();
            broker.apply_queue(Resource::Disk, &mut disk, &disk_bind);
            broker.apply_queue(Resource::Net, &mut switch, &net_bind);
        }
        let sectors = disk_bind.map(|(_, c)| disk.served(c));
        let cells = net_bind.map(|(_, vc)| switch.served(vc));
        let weight = |t| {
            (
                broker.weight(t, Resource::Disk),
                broker.weight(t, Resource::Net),
            )
        };
        (sectors, cells, [gold, silver].map(weight), broker.refunds())
    };
    let reported = run(false);
    assert_eq!(run(true), reported);
    let (sectors, cells, _, refunds) = reported;
    assert_eq!((sectors, cells, refunds), ([31648, 16352], [3986, 2014], 4));
}
