//! The multithreaded client-server experiment (Section 5.3, Figure 7).
//!
//! The paper's server loads the complete text of Shakespeare's plays
//! (4.6 MB) and serves case-insensitive substring searches; three clients
//! with an 8 : 3 : 1 ticket allocation issue queries in a closed loop. The
//! server *has no tickets of its own* — it relies entirely on the tickets
//! transferred by blocked clients through `mach_msg`, so both throughput
//! and response times track the allocation.
//!
//! Here each query is a fixed CPU cost at the server (scanning a fixed
//! corpus costs the same every time), which is all the ratios depend on.
//! The paper's observed response times (17.19 s, 43.19 s, 132.20 s) imply
//! roughly 11–12 CPU seconds per search on the DECStation; the default
//! [`DbExperiment::service`] reflects that.

use lottery_sim::prelude::*;
use lottery_stats::ProgressSeries;

/// Configuration for the client-server experiment.
#[derive(Debug, Clone)]
pub struct DbExperiment {
    /// Ticket allocation per client (the paper uses 8 : 3 : 1 × 100).
    pub client_tickets: Vec<u64>,
    /// Queries issued by each client (`None` = unbounded). The paper's
    /// high-priority client stops after 20.
    pub client_queries: Vec<Option<u64>>,
    /// Server worker threads.
    pub workers: usize,
    /// CPU cost of one query at the server.
    pub service: SimDuration,
    /// Client think time between queries.
    pub think: SimDuration,
    /// Experiment length.
    pub duration: SimTime,
    /// Scheduling quantum.
    pub quantum: SimDuration,
    /// RNG seed.
    pub seed: u32,
}

impl Default for DbExperiment {
    fn default() -> Self {
        Self {
            client_tickets: vec![800, 300, 100],
            client_queries: vec![Some(20), None, None],
            workers: 3,
            service: SimDuration::from_ms(11_500),
            think: SimDuration::from_ms(50),
            duration: SimTime::from_secs(800),
            quantum: SimDuration::from_ms(100),
            seed: 1,
        }
    }
}

/// Per-client results.
#[derive(Debug)]
pub struct DbClientReport {
    /// Cumulative completed queries: `(time_us, count)`.
    pub completed: ProgressSeries,
    /// Mean response time in seconds.
    pub mean_response_secs: f64,
    /// Response-time standard deviation in seconds.
    pub stddev_response_secs: f64,
    /// Total queries completed.
    pub queries: u64,
    /// Every completed query: `(completion time_us, response time_us)`.
    pub responses: Vec<(u64, f64)>,
}

/// Results of the experiment.
#[derive(Debug)]
pub struct DbReport {
    /// One report per client, in `client_tickets` order.
    pub clients: Vec<DbClientReport>,
    /// Total CPU consumed by the server's worker threads, in seconds.
    pub server_cpu_secs: f64,
}

/// Runs the client-server experiment under lottery scheduling with RPC
/// ticket transfers.
pub fn run(config: &DbExperiment) -> DbReport {
    assert_eq!(
        config.client_tickets.len(),
        config.client_queries.len(),
        "one query budget per client"
    );
    let policy = LotteryPolicy::with_quantum(config.seed, config.quantum);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let port = kernel.create_port("db");

    // Server workers: one nominal ticket each — effectively unfunded, as
    // in the paper ("The server has no tickets of its own, and relies
    // completely upon the tickets transferred by clients").
    let mut workers = Vec::new();
    for i in 0..config.workers {
        workers.push(kernel.spawn(
            format!("worker{i}"),
            Box::new(RpcServer::new(port)),
            FundingSpec::new(base, 1),
        ));
    }

    let mut clients = Vec::new();
    for (i, (&tickets, &queries)) in config
        .client_tickets
        .iter()
        .zip(&config.client_queries)
        .enumerate()
    {
        clients.push(kernel.spawn(
            format!("client{i}"),
            Box::new(RpcClient::new(port, config.think, config.service, queries)),
            FundingSpec::new(base, tickets),
        ));
    }

    kernel.run_until(config.duration);

    let reports = clients
        .iter()
        .map(|&tid| {
            let m = kernel.metrics().thread(tid);
            match m {
                Some(m) => DbClientReport {
                    completed: completions(&m.responses),
                    mean_response_secs: m.response_us.mean() / 1e6,
                    stddev_response_secs: m.response_us.stddev() / 1e6,
                    queries: m.rpcs_completed(),
                    responses: m.responses.clone(),
                },
                None => DbClientReport {
                    completed: ProgressSeries::new(),
                    mean_response_secs: 0.0,
                    stddev_response_secs: 0.0,
                    queries: 0,
                    responses: Vec::new(),
                },
            }
        })
        .collect();
    let server_cpu: u64 = workers.iter().map(|&w| kernel.metrics().cpu_us(w)).sum();
    DbReport {
        clients: reports,
        server_cpu_secs: server_cpu as f64 / 1e6,
    }
}

/// Figure 7's cumulative completions, one step per completed query.
fn completions(responses: &[(u64, f64)]) -> ProgressSeries {
    let mut completed = ProgressSeries::new();
    for (done, &(at, _)) in responses.iter().enumerate() {
        completed.record(at, (done + 1) as f64);
    }
    completed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> DbExperiment {
        DbExperiment {
            client_tickets: vec![800, 300, 100],
            client_queries: vec![Some(5), None, None],
            service: SimDuration::from_ms(2_000),
            duration: SimTime::from_secs(200),
            ..DbExperiment::default()
        }
    }

    #[test]
    fn throughput_tracks_allocation() {
        let report = run(&quick_config());
        let q1 = report.clients[1].queries as f64;
        let q2 = report.clients[2].queries as f64;
        assert!(q2 > 0.0, "the 1-share client must not starve");
        let ratio = q1 / q2;
        assert!(
            (1.8..=4.5).contains(&ratio),
            "3:1 clients should see roughly 3:1 throughput, got {ratio}"
        );
    }

    #[test]
    fn response_time_inversely_tracks_allocation() {
        // All clients unbounded so the contention level is stationary:
        // with every worker busy, response ≈ service / share, so the
        // 8 : 3 : 1 allocation yields roughly 1 : 2.7 : 8 response times.
        let report = run(&DbExperiment {
            client_queries: vec![None, None, None],
            service: SimDuration::from_ms(2_000),
            duration: SimTime::from_secs(400),
            ..DbExperiment::default()
        });
        let r0 = report.clients[0].mean_response_secs;
        let r1 = report.clients[1].mean_response_secs;
        let r2 = report.clients[2].mean_response_secs;
        assert!(r0 > 0.0 && r1 > 0.0 && r2 > 0.0);
        assert!(
            r2 / r0 > 4.0,
            "1-share client should wait much longer: {r0} vs {r2}"
        );
        assert!(r1 > r0 && r2 > r1, "ordering: {r0} {r1} {r2}");
    }

    #[test]
    fn high_priority_client_finishes_its_20_queries() {
        let report = run(&DbExperiment {
            service: SimDuration::from_ms(2_000),
            duration: SimTime::from_secs(400),
            ..DbExperiment::default()
        });
        assert_eq!(report.clients[0].queries, 20);
    }

    #[test]
    fn server_cpu_equals_completed_work() {
        let report = run(&quick_config());
        let total_queries: u64 = report.clients.iter().map(|c| c.queries).sum();
        // Each completed query cost exactly `service` CPU at the server;
        // in-flight queries at cutoff may add up to `workers` more.
        let expected = total_queries as f64 * 2.0;
        assert!(
            report.server_cpu_secs >= expected,
            "{} < {expected}",
            report.server_cpu_secs
        );
        assert!(report.server_cpu_secs <= expected + 3.0 * 2.0 + 1.0);
    }

    #[test]
    #[should_panic(expected = "one query budget per client")]
    fn mismatched_config_rejected() {
        let _ = run(&DbExperiment {
            client_queries: vec![None],
            ..DbExperiment::default()
        });
    }
}
