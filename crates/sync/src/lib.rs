//! # lottery-sync
//!
//! Lottery-scheduled synchronization resources (Section 6.1 of the paper).
//!
//! * [`experiment`] — the discrete-event driver reproducing Figure 11's
//!   acquisition counts and waiting-time histograms over
//!   [`lottery_core::mutex::TicketMutex`], the mutex-currency /
//!   inheritance-ticket object (Figure 10).
//! * [`os_mutex`] — a lottery-handoff mutex for real OS threads, showing
//!   the mechanism outside the simulator.
//! * [`primitives`] — the workspace's OS-backed [`Mutex`] and
//!   [`Condvar`] (panic-free guard API), the substrate for the
//!   real-thread scheduler backend in `lottery-par`.
//! * [`channel`] — std's bounded MPSC channel under the names the
//!   workers use; carries steal/migrate messages between shard workers.

pub mod channel;
pub mod experiment;
pub mod os_mutex;
pub mod primitives;

pub use channel::{bounded, Receiver, Sender};
pub use experiment::{run as run_mutex_experiment, MutexExperiment, MutexReport};
pub use os_mutex::{LotteryMutex, LotteryMutexGuard};
pub use primitives::{Condvar, Mutex, MutexGuard};
