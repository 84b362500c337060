//! The simulated cluster network: typed messages, per-link latency,
//! drops, and partitions.
//!
//! The market's reconciliation loop is *asynchronous by construction*:
//! nodes and the coordinator exchange [`Message`]s through this network
//! and nothing else — no shared ledger, no shared memory. Every link is a
//! star spoke (node ⇄ coordinator) with an integer latency measured in
//! reconciliation rounds, a deterministic drop lottery, and a partition
//! switch that silently discards traffic in both directions. Determinism
//! matters here the same way it does in the schedulers: a Park–Miller
//! stream decides drops, and delivery order is fixed by (due round,
//! send sequence), so a cluster run replays bit-for-bit from its seed.

use std::collections::VecDeque;

use lottery_core::rng::{ParkMiller, SchedRng};

/// One tenant's slice of a node report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Cluster-wide tenant index.
    pub tenant: u32,
    /// Queued work on the node (disk requests + switch cells + pending
    /// broker demand), the signal demand-following budgets chase.
    pub backlog: u64,
    /// Cumulative serviced units per resource in canonical order. Sent
    /// cumulative rather than as deltas so reports lost to drops or
    /// partitions never lose usage: the coordinator differences against
    /// the last value it saw.
    pub usage: [u64; 4],
}

/// Everything that flows over the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Node → coordinator: periodic state report.
    Report {
        /// Reporting node.
        node: u32,
        /// The round the node sent it (delivery may be later).
        sent_round: u32,
        /// Per-tenant backlog and usage.
        rows: Vec<TenantReport>,
    },
    /// Coordinator → node: set one tenant's node-local grant.
    Grant {
        /// Cluster-wide tenant index.
        tenant: u32,
        /// The node's new base-currency grant for the tenant.
        grant: u64,
    },
}

#[derive(Debug)]
struct InFlight {
    due: u32,
    seq: u64,
    node: u32,
    msg: Message,
}

#[derive(Debug, Clone)]
struct Link {
    latency: u32,
    partitioned: bool,
    /// Messages discarded on this link (drops + partition discards).
    dropped: u64,
}

/// The star network joining every node to the market coordinator.
#[derive(Debug)]
pub struct SimNet {
    links: Vec<Link>,
    up: VecDeque<InFlight>,
    down: VecDeque<InFlight>,
    rng: ParkMiller,
    /// Random per-message drop probability in permille (0 = lossless).
    drop_per_mille: u32,
    seq: u64,
}

impl SimNet {
    /// A lossless network with one-round latency on every link.
    pub fn new(nodes: usize, seed: u32) -> Self {
        Self {
            links: vec![
                Link {
                    latency: 1,
                    partitioned: false,
                    dropped: 0,
                };
                nodes
            ],
            up: VecDeque::new(),
            down: VecDeque::new(),
            rng: ParkMiller::new(seed),
            drop_per_mille: 0,
            seq: 0,
        }
    }

    /// Sets one link's latency, in reconciliation rounds.
    #[cfg(test)]
    fn set_latency(&mut self, node: u32, rounds: u32) {
        self.links[node as usize].latency = rounds;
    }

    /// Sets the random drop probability for every link, in permille.
    pub fn set_drop_per_mille(&mut self, per_mille: u32) {
        self.drop_per_mille = per_mille.min(1000);
    }

    /// Cuts (or restores) one node's link in both directions.
    pub fn set_partitioned(&mut self, node: u32, partitioned: bool) {
        self.links[node as usize].partitioned = partitioned;
    }

    /// Messages discarded on a node's link so far.
    pub fn dropped(&self, node: u32) -> u64 {
        self.links[node as usize].dropped
    }

    /// Total messages discarded across every link.
    pub fn dropped_total(&self) -> u64 {
        self.links.iter().map(|l| l.dropped).sum()
    }

    fn admit(&mut self, node: u32) -> bool {
        let link = &mut self.links[node as usize];
        if link.partitioned {
            link.dropped += 1;
            return false;
        }
        // Consume one draw per candidate message even at 0% so turning
        // loss on or off never shifts the rest of the random stream.
        let roll = self.rng.below(1000);
        if self.drop_per_mille > 0 && roll < self.drop_per_mille as u64 {
            self.links[node as usize].dropped += 1;
            return false;
        }
        true
    }

    fn enqueue(queue: &mut VecDeque<InFlight>, flight: InFlight) {
        // Keep (due, seq) order so delivery is deterministic regardless of
        // per-link latency spread.
        let at = queue
            .iter()
            .position(|m| (m.due, m.seq) > (flight.due, flight.seq))
            .unwrap_or(queue.len());
        queue.insert(at, flight);
    }

    /// Sends a node's message toward the coordinator at `round`.
    pub fn send_up(&mut self, round: u32, node: u32, msg: Message) {
        if !self.admit(node) {
            return;
        }
        let due = round + self.links[node as usize].latency;
        let seq = self.seq;
        self.seq += 1;
        Self::enqueue(
            &mut self.up,
            InFlight {
                due,
                seq,
                node,
                msg,
            },
        );
    }

    /// Sends a coordinator message toward a node at `round`.
    pub fn send_down(&mut self, round: u32, node: u32, msg: Message) {
        if !self.admit(node) {
            return;
        }
        let due = round + self.links[node as usize].latency;
        let seq = self.seq;
        self.seq += 1;
        Self::enqueue(
            &mut self.down,
            InFlight {
                due,
                seq,
                node,
                msg,
            },
        );
    }

    fn deliver(
        queue: &mut VecDeque<InFlight>,
        links: &mut [Link],
        round: u32,
    ) -> Vec<(u32, Message)> {
        let mut out = Vec::new();
        while let Some(flight) = queue.pop_front_if(|head| head.due <= round) {
            // A partition that falls while a message is in flight eats it.
            if links[flight.node as usize].partitioned {
                links[flight.node as usize].dropped += 1;
                continue;
            }
            out.push((flight.node, flight.msg));
        }
        out
    }

    /// Delivers every coordinator-bound message due by `round`.
    pub fn deliver_up(&mut self, round: u32) -> Vec<(u32, Message)> {
        Self::deliver(&mut self.up, &mut self.links, round)
    }

    /// Delivers every node-bound message due by `round`.
    pub fn deliver_down(&mut self, round: u32) -> Vec<(u32, Message)> {
        Self::deliver(&mut self.down, &mut self.links, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(node: u32, round: u32) -> Message {
        Message::Report {
            node,
            sent_round: round,
            rows: Vec::new(),
        }
    }

    #[test]
    fn latency_delays_delivery() {
        let mut net = SimNet::new(2, 1);
        net.set_latency(1, 3);
        net.send_up(10, 0, report(0, 10));
        net.send_up(10, 1, report(1, 10));
        let at_11 = net.deliver_up(11);
        assert_eq!(at_11.len(), 1);
        assert_eq!(at_11[0].0, 0);
        assert!(net.deliver_up(12).is_empty());
        let at_13 = net.deliver_up(13);
        assert_eq!(at_13.len(), 1);
        assert_eq!(at_13[0].0, 1);
    }

    #[test]
    fn partition_discards_both_directions_and_counts() {
        let mut net = SimNet::new(2, 1);
        net.set_partitioned(1, true);
        net.send_up(0, 1, report(1, 0));
        net.send_down(
            0,
            1,
            Message::Grant {
                tenant: 0,
                grant: 5,
            },
        );
        net.send_up(0, 0, report(0, 0));
        assert_eq!(net.deliver_up(1).len(), 1);
        assert!(net.deliver_down(1).is_empty());
        assert_eq!(net.dropped(1), 2);
        assert_eq!(net.dropped(0), 0);
        // In-flight traffic is eaten if the partition falls before due.
        net.set_partitioned(1, false);
        net.send_up(1, 1, report(1, 1));
        net.set_partitioned(1, true);
        assert!(net.deliver_up(2).is_empty());
        assert_eq!(net.dropped(1), 3);
    }

    #[test]
    fn drop_lottery_is_deterministic() {
        let run = |seed| {
            let mut net = SimNet::new(1, seed);
            net.set_drop_per_mille(500);
            let mut delivered = 0;
            for round in 0..200 {
                net.send_up(round, 0, report(0, round));
                delivered += net.deliver_up(round + 1).len();
            }
            delivered
        };
        assert_eq!(run(7), run(7));
        // Half loss, statistically.
        let d = run(7);
        assert!((60..140).contains(&d), "delivered {d}");
    }

    #[test]
    fn delivery_order_is_send_order_at_equal_due() {
        let mut net = SimNet::new(3, 1);
        for node in [2u32, 0, 1] {
            net.send_up(0, node, report(node, 0));
        }
        let order: Vec<u32> = net.deliver_up(1).into_iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }
}
