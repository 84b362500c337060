//! Figures 10 and 11: the lottery-scheduled mutex.

use lottery_core::mutex::{TicketMutex, WaiterFunding};
use lottery_core::prelude::*;
use lottery_stats::table::Table;
use lottery_sync::experiment::{self, MutexExperiment};

/// Figure 10: the funding structure while t2 holds the lock and t3, t7,
/// t8 wait on it.
pub fn fig10(_seed: u32) {
    let mut ledger = Ledger::new();
    let group = ledger.create_currency("app").unwrap();
    let backing = ledger.issue_root(ledger.base(), 4000).unwrap();
    ledger.fund_currency(backing, group).unwrap();

    let names = ["t2", "t3", "t7", "t8"];
    let clients: Vec<ClientId> = names
        .iter()
        .map(|n| {
            let c = ledger.create_client(*n);
            let t = ledger.issue_root(group, 1).unwrap();
            ledger.fund_client(t, c).unwrap();
            ledger.activate_client(c).unwrap();
            c
        })
        .collect();

    let mut mutex = TicketMutex::new(&mut ledger, "lock").unwrap();
    let funding = WaiterFunding {
        currency: group,
        amount: 1,
    };
    assert!(mutex.acquire(&mut ledger, clients[0], funding).unwrap());
    for &waiter in &clients[1..] {
        assert!(!mutex.acquire(&mut ledger, waiter, funding).unwrap());
        ledger.deactivate_client(waiter).unwrap();
    }

    let mut v = Valuator::new(&ledger);
    let mut table = Table::new(&["object", "state", "value (base units)"]);
    table.row(&[
        "lock currency".into(),
        format!(
            "{} backing transfers",
            ledger.currency(mutex.currency()).unwrap().backing().len()
        ),
        format!("{:.0}", v.currency_value(mutex.currency()).unwrap()),
    ]);
    for (i, name) in names.iter().enumerate() {
        let state = if mutex.holder() == Some(clients[i]) {
            "lock owner (holds inheritance ticket)"
        } else {
            "blocked, funding the lock"
        };
        table.row(&[
            name.to_string(),
            state.to_string(),
            format!("{:.0}", v.client_value(clients[i]).unwrap()),
        ]);
    }
    print!("{}", table.render());
    println!("\nthe owner executes with its own funding plus all waiter funding (priority-inversion-free)");
}

/// Figure 11: eight threads in two groups with a 2:1 allocation compete
/// for one mutex (h = c = 50 ms, two minutes).
pub fn fig11(seed: u32) {
    let config = MutexExperiment {
        seed,
        ..MutexExperiment::default()
    };
    let report = experiment::run(&config);

    let mut table = Table::new(&[
        "group",
        "funding",
        "acquisitions",
        "mean wait (ms)",
        "stddev (ms)",
    ]);
    for (i, g) in report.groups.iter().enumerate() {
        table.row(&[
            ["A", "B"][i].to_string(),
            config.group_funding[i].to_string(),
            g.acquisitions.to_string(),
            format!("{:.0}", g.waiting_ms.mean()),
            format!("{:.0}", g.waiting_ms.stddev()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nacquisition ratio A:B = {:.2}:1 (paper: 1.80:1, from 763:423)",
        report.acquisition_ratio(0, 1)
    );
    println!(
        "waiting time ratio A:B = 1:{:.2} (paper: 1:2.11, from 450 ms : 948 ms)",
        report.waiting_ratio(1, 0)
    );
    for (i, g) in report.groups.iter().enumerate() {
        println!("\ngroup {} waiting-time histogram:", ["A", "B"][i]);
        print!("{}", g.histogram.render(40));
    }
}

/// Figure 11 on the full kernel: the same two-group mutex workload with
/// CPU contention in play (lock scheduling and processor scheduling
/// interacting, as in the paper's CThreads prototype).
pub fn fig11_kernel(seed: u32) {
    use lottery_sim::prelude::*;

    // A 30 ms quantum guarantees the 50 ms hold spans preemptions, so the
    // lock is contended exactly as on real hardware.
    let mut policy = LotteryPolicy::with_quantum(seed, SimDuration::from_ms(30));
    let group_a = policy.create_currency("A", 2000).unwrap();
    let group_b = policy.create_currency("B", 1000).unwrap();
    let lock = policy.create_lock();
    let mut kernel = Kernel::new(policy);
    let worker = |lock| MutexWorker::new(lock, SimDuration::from_ms(50), SimDuration::from_ms(50));
    let spawn_group = |kernel: &mut Kernel<LotteryPolicy>, cur, tag: &str| -> Vec<ThreadId> {
        (0..4)
            .map(|i| {
                kernel.spawn(
                    format!("{tag}{i}"),
                    Box::new(worker(lock)),
                    FundingSpec::new(cur, 100),
                )
            })
            .collect()
    };
    let a = spawn_group(&mut kernel, group_a, "a");
    let b = spawn_group(&mut kernel, group_b, "b");
    kernel.run_until(SimTime::from_secs(120));

    let mut table = Table::new(&[
        "group",
        "funding",
        "lock cycles (CPU s / 0.1 s)",
        "mean lock wait (ms)",
        "mean waits recorded",
    ]);
    for (name, tids, funding) in [("A", &a, 2000u64), ("B", &b, 1000)] {
        let cpu: u64 = tids.iter().map(|&t| kernel.metrics().cpu_us(t)).sum();
        let mut waits = lottery_stats::Summary::new();
        for &t in tids {
            if let Some(m) = kernel.metrics().thread(t) {
                waits.merge(&m.lock_wait_us);
            }
        }
        table.row(&[
            name.to_string(),
            funding.to_string(),
            format!("{:.0}", cpu as f64 / 1e5),
            format!("{:.0}", waits.mean() / 1e3),
            waits.count().to_string(),
        ]);
    }
    print!("{}", table.render());
    let cpu = |tids: &Vec<ThreadId>| -> f64 {
        tids.iter()
            .map(|&t| kernel.metrics().cpu_us(t))
            .sum::<u64>() as f64
    };
    let wait_mean = |tids: &Vec<ThreadId>| -> f64 {
        let mut s = lottery_stats::Summary::new();
        for &t in tids {
            if let Some(m) = kernel.metrics().thread(t) {
                s.merge(&m.lock_wait_us);
            }
        }
        s.mean()
    };
    println!(
        "\ncycle ratio A:B = {:.2}:1 (paper's acquisitions: 1.80:1); wait ratio A:B = 1:{:.2} (paper: 1:2.11)",
        cpu(&a) / cpu(&b),
        wait_mean(&b) / wait_mean(&a)
    );
    println!(
        "with CPU contention modelled, absolute waits rise toward the paper's 450/948 ms scale"
    );
}
