//! End-to-end ticket-transfer behaviour through the kernel's RPC path,
//! on one CPU and — wherever the assertion does not depend on the CPU
//! count — on two and four.

use lottery_sim::prelude::*;

/// The CPU counts a count-independent assertion is checked on.
const CPUS: [usize; 3] = [1, 2, 4];

/// A server thread with negligible funding of its own serves one client
/// while a compute-bound hog competes. With ticket transfers the client's
/// funding rides along, so the server makes progress proportional to the
/// *client's* tickets — the priority-inversion cure of Section 4.6.
#[test]
fn transfers_cure_priority_inversion() {
    for cpus in CPUS {
        transfers_cure_priority_inversion_on(cpus);
    }
}

fn transfers_cure_priority_inversion_on(cpus: usize) {
    let policy = LotteryPolicy::new(9);
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, cpus);
    let port = kernel.create_port("svc");
    let server = kernel.spawn(
        "server",
        Box::new(RpcServer::new(port)),
        FundingSpec::new(base, 1),
    );
    let _hog = kernel.spawn("hog", Box::new(ComputeBound), FundingSpec::new(base, 400));
    let client = kernel.spawn(
        "client",
        Box::new(RpcClient::new(
            port,
            SimDuration::from_ms(10),
            SimDuration::from_ms(500),
            None,
        )),
        FundingSpec::new(base, 400),
    );
    kernel.run_until(SimTime::from_secs(120)).unwrap();

    // The server executes with the client's 400 tickets against the hog's
    // 400: roughly half of one CPU, i.e. ~60 s of service (more with more
    // CPUs). Without transfers it would be 1/801 ≈ 0.15 s.
    let server_cpu = kernel.metrics().cpu_us(server) as f64 / 1e6;
    assert!(
        server_cpu > 40.0,
        "{cpus} cpus: server starved despite client transfers: {server_cpu}s"
    );
    let m = kernel.metrics().thread(client).unwrap();
    let completed = m.rpcs_completed();
    assert!(completed > 40, "{cpus} cpus: completed {completed}");
}

/// The same setup with transfers effectively disabled (client holds almost
/// nothing): the server starves, demonstrating what the mechanism buys.
#[test]
fn unfunded_rpc_starves_against_a_hog() {
    let policy = LotteryPolicy::new(9);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let port = kernel.create_port("svc");
    let server = kernel.spawn(
        "server",
        Box::new(RpcServer::new(port)),
        FundingSpec::new(base, 1),
    );
    let _hog = kernel.spawn("hog", Box::new(ComputeBound), FundingSpec::new(base, 400));
    let _client = kernel.spawn(
        "client",
        Box::new(RpcClient::new(
            port,
            SimDuration::from_ms(10),
            SimDuration::from_ms(500),
            None,
        )),
        FundingSpec::new(base, 1),
    );
    kernel.run_until(SimTime::from_secs(120));
    let server_cpu = kernel.metrics().cpu_us(server) as f64 / 1e6;
    assert!(
        server_cpu < 5.0,
        "a 1-ticket client should buy almost no service, got {server_cpu}s"
    );
}

/// Transfer bookkeeping must fully unwind: after the run, the policy's
/// ledger holds exactly the per-thread funding tickets (no leaked
/// transfer tickets).
#[test]
fn transfers_leave_no_residue() {
    for cpus in CPUS {
        transfers_leave_no_residue_on(cpus);
    }
}

fn transfers_leave_no_residue_on(cpus: usize) {
    let policy = LotteryPolicy::new(4);
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, cpus);
    let port = kernel.create_port("svc");
    let _server = kernel.spawn(
        "server",
        Box::new(RpcServer::new(port)),
        FundingSpec::new(base, 1),
    );
    let client = kernel.spawn(
        "client",
        Box::new(RpcClient::new(
            port,
            SimDuration::from_ms(5),
            SimDuration::from_ms(50),
            Some(25),
        )),
        FundingSpec::new(base, 100),
    );
    kernel.run_until(SimTime::from_secs(60)).unwrap();
    assert!(kernel.thread(client).is_exited());
    // Live tickets: the server's funding ticket and the base backing of
    // nothing else — the exited client's ticket was destroyed with it.
    let tickets: Vec<_> = kernel.policy().ledger().tickets().collect();
    assert_eq!(tickets.len(), 1, "{cpus} cpus: leaked tickets: {tickets:?}");
    let m = kernel.metrics().thread(client).unwrap();
    assert_eq!(m.rpcs_completed(), 25);
}

/// Multiple waiting workers: requests from distinct clients are served
/// concurrently, each worker funded by its own client.
#[test]
fn concurrent_clients_fund_separate_workers() {
    let policy = LotteryPolicy::new(8);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let port = kernel.create_port("svc");
    for i in 0..2 {
        kernel.spawn(
            format!("worker{i}"),
            Box::new(RpcServer::new(port)),
            FundingSpec::new(base, 1),
        );
    }
    let fast = kernel.spawn(
        "fast-client",
        Box::new(RpcClient::new(
            port,
            SimDuration::ZERO,
            SimDuration::from_ms(300),
            None,
        )),
        FundingSpec::new(base, 300),
    );
    let slow = kernel.spawn(
        "slow-client",
        Box::new(RpcClient::new(
            port,
            SimDuration::ZERO,
            SimDuration::from_ms(300),
            None,
        )),
        FundingSpec::new(base, 100),
    );
    kernel.run_until(SimTime::from_secs(120));
    let f = kernel.metrics().thread(fast).unwrap().rpcs_completed();
    let s = kernel.metrics().thread(slow).unwrap().rpcs_completed();
    assert!(s > 0, "slow client starved");
    let ratio = f as f64 / s as f64;
    assert!((2.0..=4.5).contains(&ratio), "throughput ratio {ratio}");
}
