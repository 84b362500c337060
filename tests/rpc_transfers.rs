//! End-to-end ticket-transfer behaviour through the kernel's RPC path,
//! on one CPU and — wherever the assertion does not depend on the CPU
//! count — on two and four, under both lottery policies: the
//! uniprocessor policy with its one queue shared by every CPU, and the
//! distributed lottery with one shard per CPU (so a one-CPU scenario runs
//! it on one shard).

use std::any::type_name;
use std::ops::Deref;

use lottery_sim::prelude::*;
use lottery_sim::sched::core::LotteryCore;

/// The CPU counts a count-independent assertion is checked on.
const CPUS: [usize; 3] = [1, 2, 4];

/// A lottery policy the scenarios run under.
trait Lottery: Policy<Spec = FundingSpec> + Deref<Target = LotteryCore> {}

impl<P: Policy<Spec = FundingSpec> + Deref<Target = LotteryCore>> Lottery for P {}

/// A server thread with negligible funding of its own serves one client
/// while a compute-bound hog competes. With ticket transfers the client's
/// funding rides along, so the server makes progress proportional to the
/// *client's* tickets — the priority-inversion cure of Section 4.6.
#[test]
fn transfers_cure_priority_inversion() {
    for cpus in CPUS {
        transfers_cure_priority_inversion_on(LotteryPolicy::new(9), cpus);
        transfers_cure_priority_inversion_on(DistributedLottery::new(9, cpus), cpus);
    }
}

fn transfers_cure_priority_inversion_on(policy: impl Lottery, cpus: usize) {
    let name = type_name_of(&policy);
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
        "{name} on {cpus} cpus: server starved despite client transfers: {server_cpu}s"
    );
    let m = kernel.metrics().thread(client).unwrap();
    let completed = m.rpcs_completed();
    assert!(
        completed > 40,
        "{name} on {cpus} cpus: completed {completed}"
    );
}

/// The same setup with transfers effectively disabled (client holds almost
/// nothing): the server starves, demonstrating what the mechanism buys.
#[test]
fn unfunded_rpc_starves_against_a_hog() {
    unfunded_rpc_starves_against_a_hog_under(LotteryPolicy::new(9));
    unfunded_rpc_starves_against_a_hog_under(DistributedLottery::new(9, 1));
}

fn unfunded_rpc_starves_against_a_hog_under(policy: impl Lottery) {
    let name = type_name_of(&policy);
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
        "{name}: a 1-ticket client should buy almost no service, got {server_cpu}s"
    );
}

/// Transfer bookkeeping must fully unwind: after the run, the policy's
/// ledger holds exactly the per-thread funding tickets (no leaked
/// transfer tickets).
#[test]
fn transfers_leave_no_residue() {
    for cpus in CPUS {
        transfers_leave_no_residue_on(LotteryPolicy::new(4), cpus);
        transfers_leave_no_residue_on(DistributedLottery::new(4, cpus), cpus);
    }
}

fn transfers_leave_no_residue_on(policy: impl Lottery, cpus: usize) {
    let name = type_name_of(&policy);
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
    assert_eq!(
        tickets.len(),
        1,
        "{name} on {cpus} cpus: leaked: {tickets:?}"
    );
    let m = kernel.metrics().thread(client).unwrap();
    assert_eq!(m.rpcs_completed(), 25);
}

/// Multiple waiting workers: requests from distinct clients are served
/// concurrently, each worker funded by its own client.
#[test]
fn concurrent_clients_fund_separate_workers() {
    concurrent_clients_fund_separate_workers_under(LotteryPolicy::new(8));
    concurrent_clients_fund_separate_workers_under(DistributedLottery::new(8, 1));
}

fn concurrent_clients_fund_separate_workers_under(policy: impl Lottery) {
    let name = type_name_of(&policy);
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
    assert!(s > 0, "{name}: slow client starved");
    let ratio = f as f64 / s as f64;
    assert!(
        (2.0..=4.5).contains(&ratio),
        "{name}: throughput ratio {ratio}"
    );
}

/// The policy's type name, for failure messages.
fn type_name_of<P>(_: &P) -> &'static str {
    type_name::<P>()
}
