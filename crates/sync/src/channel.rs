//! The bounded multi-producer single-consumer channel `lottery-par`'s
//! workers post steal and migrate messages over: std's `sync_channel`.
//! `send` blocks while the buffer is full — a worker that falls behind
//! slows its producers instead of growing an unbounded queue.

pub use std::sync::mpsc::{
    Receiver, RecvError, RecvTimeoutError, SendError, SyncSender as Sender, TryRecvError,
    TrySendError,
};

/// A channel buffering up to `capacity` messages, clamped to at least one:
/// zero is not a rendezvous channel here.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    std::sync::mpsc::sync_channel(capacity.max(1))
}
