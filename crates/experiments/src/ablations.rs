//! Ablations of the paper's design choices (DESIGN.md §4).

use lottery_apps::dhrystone::{self, FairnessRun};
use lottery_core::prelude::*;
use lottery_sim::prelude::*;
use lottery_stats::summary::Summary;
use lottery_stats::table::Table;

/// Section 4.2: list vs move-to-front list vs partial-sum tree. Reports
/// the mean number of entries examined per draw under a skewed ticket
/// distribution, and checks the structures agree on shares.
pub fn selection(seed: u32) {
    let sizes = [8usize, 64, 512];
    let mut table = Table::new(&[
        "clients",
        "list scan (mean)",
        "list+MTF scan (mean)",
        "tree comparisons (lg n)",
    ]);
    for &n in &sizes {
        // Skewed 80/20-style distribution: a few heavy clients dominate,
        // as in real mixes — the regime MTF exploits.
        let mut plain: ListLottery<usize, u64> = ListLottery::without_move_to_front();
        let mut mtf: ListLottery<usize, u64> = ListLottery::new();
        let mut tree: TreeLottery<usize, u64> = TreeLottery::new();
        for i in 0..n {
            let tickets = if i >= n - n / 8 { 1000 } else { 10 };
            plain.insert(i, tickets);
            mtf.insert(i, tickets);
            tree.insert(i, tickets);
        }
        let mut rng1 = ParkMiller::new(seed);
        let mut rng2 = ParkMiller::new(seed);
        let mut rng3 = ParkMiller::new(seed);
        for _ in 0..20_000 {
            plain.draw(&mut rng1).unwrap();
            mtf.draw(&mut rng2).unwrap();
            tree.draw(&mut rng3).unwrap();
        }
        table.row(&[
            n.to_string(),
            format!("{:.1}", plain.mean_scan_length().unwrap()),
            format!("{:.1}", mtf.mean_scan_length().unwrap()),
            format!("{}", tree.depth()),
        ]);
    }
    print!("{}", table.render());
    println!("\nthe paper's prototype uses the MTF list; trees win for large n (lg n comparisons)");
}

/// Section 2: "shorter time quanta can be used to further improve
/// accuracy" — fairness error of a 2:1 split over 60 s as the quantum
/// shrinks.
pub fn quantum_sweep(seed: u32) {
    let runs = 20u32;
    let mut table = Table::new(&[
        "quantum (ms)",
        "lotteries/sec",
        "mean |error| vs 2:1",
        "worst ratio",
    ]);
    for &q_ms in &[400u64, 200, 100, 50, 20, 10] {
        let mut errors = Vec::new();
        let mut worst = 2.0f64;
        for run in 0..runs {
            let report = dhrystone::run_fairness(
                &FairnessRun {
                    ratio: 2.0,
                    quantum: SimDuration::from_ms(q_ms),
                    seed: seed.wrapping_mul(31).wrapping_add(run * 7 + q_ms as u32),
                    ..FairnessRun::default()
                },
                SimDuration::from_secs(8),
            );
            errors.push((report.observed / 2.0 - 1.0).abs());
            if (report.observed - 2.0).abs() > (worst - 2.0).abs() {
                worst = report.observed;
            }
        }
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        table.row(&[
            q_ms.to_string(),
            (1000 / q_ms).to_string(),
            format!("{:.2}%", mean_err * 100.0),
            format!("{worst:.3}:1"),
        ]);
    }
    print!("{}", table.render());
    println!("\n({runs} seeded 60 s runs per quantum; binomial cv shrinks as 1/sqrt(lotteries))");
}

/// Section 4.5: compensation tickets on vs off for an interactive thread
/// using 20% of each quantum against a compute-bound peer with equal
/// funding. With compensation the CPU ratio is 1:1; without, the
/// interactive thread gets only ~1/5 of its entitlement.
///
/// Both the uniprocessor lottery and the distributed (per-CPU tree)
/// lottery are ablated here, through the one `set_compensation_enabled`
/// switch each policy delegates to the shared compensation hook.
pub fn compensation(seed: u32) {
    let mut table = Table::new(&[
        "policy",
        "compensation",
        "compute-bound CPU (s)",
        "interactive CPU (s)",
        "ratio",
    ]);
    let interactive_workload = || FractionalQuantum::new(SimDuration::from_ms(20));
    for &enabled in &[true, false] {
        let mut policy = LotteryPolicy::new(seed);
        policy.set_compensation_enabled(enabled);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let cpu_bound = kernel.spawn(
            "compute",
            Box::new(ComputeBound),
            FundingSpec::new(base, 400),
        );
        let interactive = kernel.spawn(
            "interactive",
            Box::new(interactive_workload()),
            FundingSpec::new(base, 400),
        );
        kernel.run_until(SimTime::from_secs(120));
        let a = kernel.metrics().cpu_us(cpu_bound) as f64 / 1e6;
        let b = kernel.metrics().cpu_us(interactive) as f64 / 1e6;
        table.row(&[
            "lottery".to_string(),
            if enabled { "on" } else { "off" }.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.2}:1", a / b),
        ]);
    }
    for &enabled in &[true, false] {
        let mut policy = DistributedLottery::new(seed, 1);
        policy.set_compensation_enabled(enabled);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let cpu_bound = kernel.spawn(
            "compute",
            Box::new(ComputeBound),
            FundingSpec::new(base, 400),
        );
        let interactive = kernel.spawn(
            "interactive",
            Box::new(interactive_workload()),
            FundingSpec::new(base, 400),
        );
        kernel.run_until(SimTime::from_secs(120));
        let a = kernel.metrics().cpu_us(cpu_bound) as f64 / 1e6;
        let b = kernel.metrics().cpu_us(interactive) as f64 / 1e6;
        table.row(&[
            "distributed".to_string(),
            if enabled { "on" } else { "off" }.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.2}:1", a / b),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper: without compensation the 1:1 allocation degrades toward 5:1 (Section 4.5);");
    println!("one shared hook switch ablates every policy the same way");
}

/// The fraction of each window a thread spent on CPU, from the per-window
/// CPU [`run_windows`] measured.
fn window_shares(cpu: &[SimDuration], window: SimDuration) -> Vec<f64> {
    cpu.iter().map(|c| c.fraction_of(window)).collect()
}

/// Lottery vs stride scheduling: identical long-run shares, but the
/// deterministic stride scheduler has far lower short-window variance.
pub fn stride(seed: u32) {
    let duration = SimTime::from_secs(60);
    let window = SimDuration::from_secs(1);

    // Lottery run.
    let policy = LotteryPolicy::new(seed);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let la = kernel.spawn("a", Box::new(ComputeBound), FundingSpec::new(base, 300));
    let lb = kernel.spawn("b", Box::new(ComputeBound), FundingSpec::new(base, 100));
    let cpu = run_windows(&mut kernel, &[la], window, duration);
    let lottery_ratio = kernel.metrics().cpu_ratio(la, lb).unwrap();
    let mut lottery_windows = Summary::new();
    for w in window_shares(&cpu[0], window) {
        lottery_windows.record(w);
    }

    // Stride run.
    let mut kernel = Kernel::new(StridePolicy::new(SimDuration::from_ms(100)));
    let sa = kernel.spawn("a", Box::new(ComputeBound), 300u64);
    let sb = kernel.spawn("b", Box::new(ComputeBound), 100u64);
    let cpu = run_windows(&mut kernel, &[sa], window, duration);
    let stride_ratio = kernel.metrics().cpu_ratio(sa, sb).unwrap();
    let mut stride_windows = Summary::new();
    for w in window_shares(&cpu[0], window) {
        stride_windows.record(w);
    }

    let mut table = Table::new(&[
        "policy",
        "observed 3:1 ratio",
        "1 s window share mean",
        "window stddev",
    ]);
    table.row(&[
        "lottery".into(),
        format!("{lottery_ratio:.2}:1"),
        format!("{:.3}", lottery_windows.mean()),
        format!("{:.4}", lottery_windows.stddev()),
    ]);
    table.row(&[
        "stride".into(),
        format!("{stride_ratio:.2}:1"),
        format!("{:.3}", stride_windows.mean()),
        format!("{:.4}", stride_windows.stddev()),
    ]);
    print!("{}", table.render());
    println!("\nstride (the authors' follow-up) trades randomness for determinism: same shares, lower variance");
}

/// Interactive responsiveness: dispatch latency of an I/O-bound thread
/// competing with compute-bound hogs, per policy.
///
/// The paper's introduction motivates lottery scheduling with interactive
/// systems that need "rapid, dynamic control over scheduling at a time
/// scale of milliseconds to seconds"; compensation tickets are what let an
/// interactive thread that uses a sliver of each quantum win dispatches
/// promptly (Section 4.5).
pub fn latency(seed: u32) {
    let duration = SimTime::from_secs(120);
    let hogs = 5usize;
    let interactive_workload = || IoBound::new(SimDuration::from_ms(5), SimDuration::from_ms(45));

    let mut table = Table::new(&[
        "policy",
        "mean dispatch wait (ms)",
        "max wait (ms)",
        "interactive CPU share",
    ]);

    // Lottery: interactive thread funded equally with each hog.
    {
        let policy = LotteryPolicy::new(seed);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let interactive = kernel.spawn(
            "interactive",
            Box::new(interactive_workload()),
            FundingSpec::new(base, 100),
        );
        for i in 0..hogs {
            kernel.spawn(
                format!("hog{i}"),
                Box::new(ComputeBound),
                FundingSpec::new(base, 100),
            );
        }
        kernel.run_until(duration);
        let m = kernel.metrics().thread(interactive).unwrap();
        table.row(&[
            "lottery".into(),
            format!("{:.1}", m.wait_us.mean() / 1e3),
            format!("{:.0}", m.wait_us.max() / 1e3),
            format!(
                "{:.3}",
                kernel.metrics().cpu_us(interactive) as f64 / duration.as_us() as f64
            ),
        ]);
    }

    // Lottery without compensation: the ablation.
    {
        let mut policy = LotteryPolicy::new(seed);
        policy.set_compensation_enabled(false);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let interactive = kernel.spawn(
            "interactive",
            Box::new(interactive_workload()),
            FundingSpec::new(base, 100),
        );
        for i in 0..hogs {
            kernel.spawn(
                format!("hog{i}"),
                Box::new(ComputeBound),
                FundingSpec::new(base, 100),
            );
        }
        kernel.run_until(duration);
        let m = kernel.metrics().thread(interactive).unwrap();
        table.row(&[
            "lottery (no comp.)".into(),
            format!("{:.1}", m.wait_us.mean() / 1e3),
            format!("{:.0}", m.wait_us.max() / 1e3),
            format!(
                "{:.3}",
                kernel.metrics().cpu_us(interactive) as f64 / duration.as_us() as f64
            ),
        ]);
    }

    // Decay-usage timesharing.
    {
        let mut kernel = Kernel::new(TimesharePolicy::new(SimDuration::from_ms(100)));
        let interactive = kernel.spawn("interactive", Box::new(interactive_workload()), 12u8);
        for i in 0..hogs {
            kernel.spawn(format!("hog{i}"), Box::new(ComputeBound), 12u8);
        }
        kernel.run_until(duration);
        let m = kernel.metrics().thread(interactive).unwrap();
        table.row(&[
            "timeshare".into(),
            format!("{:.1}", m.wait_us.mean() / 1e3),
            format!("{:.0}", m.wait_us.max() / 1e3),
            format!(
                "{:.3}",
                kernel.metrics().cpu_us(interactive) as f64 / duration.as_us() as f64
            ),
        ]);
    }

    // Round-robin.
    {
        let mut kernel = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
        let interactive = kernel.spawn("interactive", Box::new(interactive_workload()), ());
        for i in 0..hogs {
            kernel.spawn(format!("hog{i}"), Box::new(ComputeBound), ());
        }
        kernel.run_until(duration);
        let m = kernel.metrics().thread(interactive).unwrap();
        table.row(&[
            "round-robin".into(),
            format!("{:.1}", m.wait_us.mean() / 1e3),
            format!("{:.0}", m.wait_us.max() / 1e3),
            format!(
                "{:.3}",
                kernel.metrics().cpu_us(interactive) as f64 / duration.as_us() as f64
            ),
        ]);
    }

    print!("{}", table.render());
    println!("\ncompensation tickets give the interactive thread prompt dispatch without any");
    println!("priority tuning; disabling them (or using plain RR) makes it wait behind the hogs");
}

/// Section 7: lottery vs a classical fair-share scheduler.
///
/// Both produce the right *steady-state* shares; the difference the paper
/// stresses is responsiveness — "interactive systems require rapid,
/// dynamic control over scheduling at a time scale of milliseconds to
/// seconds", while fair-share schedulers converge over the decay
/// time scale of their usage accounting. Here two users run 2:1, the
/// allocation is flipped to 1:2 at t = 60 s, and the table reports how
/// long each scheduler takes to deliver the new ratio in 2-second windows.
pub fn fairshare(seed: u32) {
    let duration = SimTime::from_secs(120);
    let flip_at = SimTime::from_secs(60);
    let window = SimDuration::from_secs(2);
    // A window counts as converged when user A's share is within 20% of
    // the post-flip target (1/3).
    let converged = |share: f64| (share - 1.0 / 3.0).abs() < 1.0 / 3.0 * 0.2;

    let report = |label: &str, shares_a: Vec<f64>| {
        let start_idx = (flip_at.as_us() / window.as_us()) as usize;
        let settle = shares_a[start_idx..]
            .iter()
            .position(|&s| converged(s))
            .map(|w| w as u64 * window.as_us() / 1_000_000);
        let pre: f64 = shares_a[..start_idx].iter().sum::<f64>() / start_idx as f64;
        let post_tail: f64 = shares_a[shares_a.len() - 10..].iter().sum::<f64>() / 10.0;
        (
            label.to_string(),
            format!("{pre:.2}"),
            format!("{post_tail:.2}"),
            settle.map_or("never".to_string(), |s| format!("{s} s")),
        )
    };

    // Lottery: funding flip via ticket inflation.
    let lottery_shares = {
        let policy = LotteryPolicy::new(seed);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let a = kernel.spawn("a", Box::new(ComputeBound), FundingSpec::new(base, 200));
        let _b = kernel.spawn("b", Box::new(ComputeBound), FundingSpec::new(base, 100));
        let mut shares = window_shares(&run_windows(&mut kernel, &[a], window, flip_at)[0], window);
        kernel.policy_mut().set_funding(a, 50).unwrap();
        let after = run_windows(&mut kernel, &[a], window, duration);
        shares.extend(window_shares(&after[0], window));
        shares
    };

    // Fair share: share flip via set_shares.
    let fss_shares = {
        let mut policy = FairSharePolicy::new(SimDuration::from_ms(100));
        let ua = policy.create_user(200);
        let ub = policy.create_user(100);
        let mut kernel = Kernel::new(policy);
        let a = kernel.spawn("a", Box::new(ComputeBound), ua);
        let _b = kernel.spawn("b", Box::new(ComputeBound), ub);
        let mut shares = window_shares(&run_windows(&mut kernel, &[a], window, flip_at)[0], window);
        kernel.policy_mut().set_shares(ua, 50);
        kernel.policy_mut().set_shares(ub, 100);
        let after = run_windows(&mut kernel, &[a], window, duration);
        shares.extend(window_shares(&after[0], window));
        shares
    };

    let mut table = Table::new(&[
        "policy",
        "A share before flip",
        "A share at end",
        "time to settle after flip",
    ]);
    let (l, a1, a2, a3) = {
        let r = report("lottery", lottery_shares);
        (r.0, r.1, r.2, r.3)
    };
    table.row(&[l, a1, a2, a3]);
    let (l, a1, a2, a3) = {
        let r = report("fair share (4 s tick, 0.9 decay)", fss_shares);
        (r.0, r.1, r.2, r.3)
    };
    table.row(&[l, a1, a2, a3]);
    print!("{}", table.render());
    println!("\nthe lottery reflects the new allocation at the very next draws; the fair-share");
    println!("scheduler must first decay away the usage history its priorities encode");
}

/// Section 4.2 at scale: the alias sampler answers draws in O(1)
/// expected probes while the partial-sum tree pays lg n comparisons —
/// and both remain *exact*: the same RNG stream yields bit-identical
/// winner sequences across list, tree, and alias, through compensation
/// churn and mid-run structure switches.
pub fn alias_sampler(seed: u32) {
    // Part 1: exactness. Drive the same scripted workload — alternating
    // full quanta and half-quantum blocks (which grant and later revoke
    // compensation tickets) — through all three structures and compare
    // winner streams.
    let draws = 400usize;
    let run = |structure: SelectStructure| -> Vec<ThreadId> {
        let mut p = LotteryPolicy::new(seed.wrapping_add(7));
        p.set_structure(structure);
        let shared = p.create_currency("shared", 252_000).unwrap();
        for (i, &amount) in [100u64, 200, 300, 400].iter().enumerate() {
            let tid = ThreadId::from_index(i as u32);
            p.on_spawn(tid, FundingSpec::new(shared, amount));
            p.enqueue(tid, SimTime::ZERO);
        }
        let quantum = SimDuration::from_ms(100);
        let mut winners = Vec::with_capacity(draws);
        let mut blocked: Option<ThreadId> = None;
        for step in 0..draws {
            let Some(w) = p.pick(SimTime::ZERO) else {
                break;
            };
            winners.push(w);
            if step % 2 == 0 {
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            } else {
                p.charge(w, quantum / 2, quantum, EndReason::Blocked);
                if let Some(b) = blocked.replace(w) {
                    p.enqueue(b, SimTime::ZERO);
                }
            }
        }
        winners
    };
    let list = run(SelectStructure::List);
    let tree = run(SelectStructure::Tree);
    let alias = run(SelectStructure::Alias);
    let identical = list == tree && list == alias;
    println!(
        "winner streams bit-identical across list/tree/alias ({draws} draws, \
         compensation churn): {}",
        if identical { "OK" } else { "FAILED" }
    );

    // Part 2: probe cost. Uniform-ticket populations under dispatch
    // churn (remove the winner, requeue it at the same weight): the
    // alias stale count self-cleans, so its probe count stays flat while
    // the tree's depth grows with lg n.
    let mut table = Table::new(&[
        "clients",
        "alias probes (mean)",
        "tree depth (lg n)",
        "alias rebuilds",
    ]);
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut alias: AliasLottery<usize> = AliasLottery::with_capacity(n);
        let mut tree: TreeLottery<usize, f64> = TreeLottery::with_capacity(n);
        for i in 0..n {
            alias.insert(i, 10.0);
            tree.insert(i, 10.0);
        }
        alias.rebuild();
        let _ = alias.take_rebuild_events();
        let built = alias.rebuilds();
        let mut rng = ParkMiller::new(seed);
        let rounds = 20_000usize;
        let mut probes = 0u64;
        for _ in 0..rounds {
            let w = *alias.draw(&mut rng).unwrap();
            probes += u64::from(alias.last_probes());
            alias.remove(&w);
            alias.insert(w, 10.0);
        }
        table.row(&[
            n.to_string(),
            format!("{:.2}", probes as f64 / rounds as f64),
            tree.depth().to_string(),
            (alias.rebuilds() - built).to_string(),
        ]);
    }
    print!("{}", table.render());

    // Part 3: proportional-share isolation with the alias structure
    // driving dispatch.
    let mut p = LotteryPolicy::new(seed);
    p.set_structure(SelectStructure::Alias);
    let base = p.base_currency();
    let quantum = SimDuration::from_ms(100);
    let a = ThreadId::from_index(0);
    let b = ThreadId::from_index(1);
    p.on_spawn(a, FundingSpec::new(base, 2000));
    p.on_spawn(b, FundingSpec::new(base, 1000));
    p.enqueue(a, SimTime::ZERO);
    p.enqueue(b, SimTime::ZERO);
    let mut wins = [0u64; 2];
    for _ in 0..30_000 {
        let w = p.pick(SimTime::ZERO).unwrap();
        wins[w.index() as usize] += 1;
        p.charge(w, quantum, quantum, EndReason::QuantumExpired);
        p.enqueue(w, SimTime::ZERO);
    }
    let ratio = wins[0] as f64 / wins[1] as f64;
    println!("\nalias dispatch ratio (2000-ticket : 1000-ticket) = {ratio:.3}:1 over 30000 draws");
    let ok = (ratio - 2.0).abs() <= 0.1;
    println!(
        "alias 2:1 isolation held within 5%: {}",
        if ok { "OK" } else { "FAILED" }
    );
}
