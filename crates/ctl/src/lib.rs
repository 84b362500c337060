//! # lottery-ctl
//!
//! The paper's user-level command interface to currencies and tickets
//! (Section 4.7): `mkcur`, `rmcur`, `mktkt`, `rmtkt`, `fund`, `unfund`,
//! `lscur`, `lstkt`, and `fundx` (launch a process with specified
//! funding), plus process management verbs the in-process setting needs.
//!
//! The paper shipped these as setuid binaries against the Mach kernel
//! interface; here [`session::Session`] interprets the same verbs against
//! a [`lottery_core::ledger::Ledger`], and the `lotteryctl` binary wraps
//! it in a REPL:
//!
//! ```console
//! $ cargo run -p lottery-ctl --bin lotteryctl
//! > mkcur alice
//! > mktkt a 1000 base
//! > fund a alice
//! > fundx 200 alice worker
//! > value worker
//! 1000.0
//! ```

// Every input here comes from outside the program: a bad line is an
// error, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod command;
pub mod session;

pub use command::{BrokerAction, Command, ParseError};
pub use session::{CtlError, ObjectRef, Session};
