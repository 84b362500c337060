//! The queue lottery the disk and the switch share.
//!
//! Section 6 allocates by lottery "wherever queueing is necessary for
//! resource access": every client holds tickets and a FIFO backlog, and
//! each service is Figure 1's draw among the clients with a backlog.
//! [`ResourceQueue`] is that shape, written once: the client table, the
//! draw and the per-client accounting, with every grant, draw and
//! completion event carrying the queue's resource tag. What a unit of
//! service costs — disk time with a seek, one switch slot — is its
//! owner's business ([`crate::disk::DiskScheduler`], [`crate::switch::Switch`]).

use std::collections::VecDeque;

use lottery_core::errors::{LotteryError, Result};
use lottery_core::lottery;
use lottery_core::rng::SchedRng;
use lottery_obs::{EventKind, ProbeBus};
use lottery_stats::Summary;

/// Identifies a client of a [`ResourceQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueClientId(u32);

impl QueueClientId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug)]
struct QueueClient<T> {
    name: String,
    tickets: u64,
    backlog: VecDeque<T>,
    served: u64,
    waits: Summary,
}

/// Ticketed clients with FIFO backlogs of `T`, served by lottery.
#[derive(Debug)]
pub struct ResourceQueue<T> {
    resource: &'static str,
    clients: Vec<QueueClient<T>>,
    bus: ProbeBus,
}

impl<T> ResourceQueue<T> {
    /// An empty queue whose events carry the `resource` tag.
    pub(crate) fn new(resource: &'static str) -> Self {
        Self {
            resource,
            clients: Vec::new(),
            bus: ProbeBus::disabled(),
        }
    }

    /// Attaches the probe bus. The bus clock stays owned by whoever drives
    /// the simulation (a queue never calls `set_time_us`).
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.bus = bus;
    }

    /// Registers a client holding `tickets` tickets.
    pub fn register(&mut self, name: impl Into<String>, tickets: u64) -> QueueClientId {
        let id = QueueClientId(self.clients.len() as u32);
        self.clients.push(QueueClient {
            name: name.into(),
            tickets,
            backlog: VecDeque::new(),
            served: 0,
            waits: Summary::new(),
        });
        self.bus.emit(|| EventKind::ResourceGrant {
            resource: self.resource,
            client: id.0,
            tickets,
        });
        id
    }

    /// Adjusts a client's tickets.
    pub fn set_tickets(&mut self, client: QueueClientId, tickets: u64) {
        self.clients[client.0 as usize].tickets = tickets;
        self.bus.emit(|| EventKind::ResourceGrant {
            resource: self.resource,
            client: client.0,
            tickets,
        });
    }

    /// Appends `item` to `client`'s backlog.
    pub(crate) fn submit(&mut self, client: QueueClientId, item: T) {
        self.clients[client.0 as usize].backlog.push_back(item);
    }

    /// Items waiting for `client`.
    pub fn backlog(&self, client: QueueClientId) -> usize {
        self.clients[client.0 as usize].backlog.len()
    }

    /// Items waiting across every client.
    pub fn pending(&self) -> usize {
        self.clients.iter().map(|c| c.backlog.len()).sum()
    }

    /// The client's name.
    pub fn name(&self, client: QueueClientId) -> &str {
        &self.clients[client.0 as usize].name
    }

    /// Units served for `client`: sectors on the disk, cells on the switch.
    pub fn served(&self, client: QueueClientId) -> u64 {
        self.clients[client.0 as usize].served
    }

    /// `client`'s waits from submission to completion: microseconds of
    /// disk time on the disk, slots on the switch.
    pub fn waits(&self, client: QueueClientId) -> &Summary {
        &self.clients[client.0 as usize].waits
    }

    /// The oldest item of every client with a backlog, in registration
    /// order.
    pub(crate) fn heads(&self) -> impl Iterator<Item = (QueueClientId, &T)> {
        self.clients
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((QueueClientId(i as u32), c.backlog.front()?)))
    }

    /// Removes `client`'s oldest item.
    ///
    /// # Errors
    ///
    /// [`LotteryError::EmptyLottery`] when `client` has no backlog.
    pub(crate) fn pop(&mut self, client: QueueClientId) -> Result<T> {
        self.clients[client.0 as usize]
            .backlog
            .pop_front()
            .ok_or(LotteryError::EmptyLottery)
    }

    /// Figure 1's draw over the whole client table in registration order,
    /// a client without a backlog weighing 0, then removes the winner's
    /// oldest item.
    ///
    /// # Errors
    ///
    /// [`LotteryError::EmptyLottery`] when no client with tickets has a
    /// backlog, and [`LotteryError::AmountOverflow`] when the ticket total
    /// is past the draw's range.
    pub(crate) fn draw<R: SchedRng + ?Sized>(&mut self, rng: &mut R) -> Result<(QueueClientId, T)> {
        let weights = self
            .clients
            .iter()
            .map(|c| if c.backlog.is_empty() { 0 } else { c.tickets });
        let (winner, entries, total) = lottery::draw(weights, rng)?;
        let client = QueueClientId(winner as u32);
        let item = self.pop(client)?;
        self.bus.emit(|| EventKind::ResourceDraw {
            resource: self.resource,
            client: client.0,
            entries: entries as u32,
            total,
        });
        Ok((client, item))
    }

    /// Accounts one finished service of `units` for `client`, after a wait
    /// of `wait` since its submission.
    pub(crate) fn complete(&mut self, client: QueueClientId, units: u64, wait: u64) {
        let c = &mut self.clients[client.0 as usize];
        c.served += units;
        c.waits.record(wait as f64);
        self.bus.emit(|| EventKind::ResourceComplete {
            resource: self.resource,
            client: client.0,
            units,
            wait,
        });
    }
}
