//! Interactive REPL over [`lottery_ctl::Session`].
//!
//! Reads commands from stdin (one per line; `#` comments allowed), so it
//! works both interactively and with piped scripts; it prompts only when
//! stdin is a terminal.

// Every input here comes from outside the program: a bad line is an
// error, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::io::{self, BufRead, IsTerminal, Write};

use lottery_ctl::Session;

fn main() -> io::Result<()> {
    let mut session = Session::new();
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    let interactive = stdin.is_terminal();
    if interactive {
        println!("lotteryctl — Section 4.7 command interface (try `help`, ^D to exit)");
    }
    loop {
        if interactive {
            print!("> ");
            stdout.flush()?;
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            return Ok(());
        }
        match session.eval(&line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
