//! Hostile input to the four readers a file from outside the program
//! reaches: `json::parse`, `Event::from_json`, `ReplayLog::from_jsonl`
//! and `TraceSpec::from_jsonl` (`lotteryctl replay <file>` feeds all of
//! them).
//!
//! Two sources of input: arbitrary byte strings (decoded lossily, and a
//! second alphabet weighted towards JSON punctuation so the generator
//! gets past the first byte), and valid documents — a golden capture and
//! its trace — with one byte overwritten or the tail cut off. The law is
//! the same for every reader: it returns, `Ok` or `Err`, without a
//! panic; and whatever it accepts re-serialises to text it reads back to
//! the same value, so nothing is half-understood.

use std::fs;
use std::path::PathBuf;

use lottery_obs::json::{self, Value};
use lottery_obs::{Event, ReplayLog, TraceSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A real capture: header line plus a few hundred events of every kind
/// the two-shard tree lottery emits.
fn capture_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/capture_tree_2.jsonl");
    fs::read_to_string(path).expect("golden capture is readable")
}

/// Writes a parsed value back out with the crate's own `escape` and
/// `number` — the writer half `json::parse` must stay the inverse of.
fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(&json::number(*n)),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&json::escape(s));
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json::escape(key));
                out.push_str("\":");
                render(value, out);
            }
            out.push('}');
        }
    }
}

/// The law, applied to one input by all four readers.
fn readers_hold_the_law(text: &str) -> Result<(), TestCaseError> {
    if let Ok(v) = json::parse(text) {
        let mut again = String::new();
        render(&v, &mut again);
        prop_assert_eq!(json::parse(&again), Ok(v.clone()), "json: {}", again);
        if let Ok(e) = Event::from_json(&v) {
            let line = e.to_json();
            let back = json::parse(&line).and_then(|v| Event::from_json(&v));
            prop_assert_eq!(back, Ok(e), "event: {}", line);
        }
    }
    if let Ok(log) = ReplayLog::from_jsonl(text) {
        prop_assert_eq!(ReplayLog::from_jsonl(&log.to_jsonl()), Ok(log));
    }
    if let Ok(spec) = TraceSpec::from_jsonl(text) {
        prop_assert_eq!(TraceSpec::from_jsonl(&spec.to_jsonl()), Ok(spec));
    }
    Ok(())
}

/// Bytes a JSON document is mostly made of, plus a multi-byte scalar's
/// pieces and a raw control byte.
const JSON_BYTES: &[u8] = b"{}[]\",:\\ \n0123456789-+.eEtrufalsn\xc3\xa9\x01";

fn json_flavoured() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (0..JSON_BYTES.len()).prop_map(|i| JSON_BYTES[i]),
        0..120usize,
    )
}

/// What to do to a valid document.
#[derive(Debug, Clone)]
enum Damage {
    /// Overwrite the byte at this (wrapped) offset.
    Overwrite(usize, u8),
    /// Keep only this (wrapped) many bytes.
    Truncate(usize),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        3 => (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Damage::Overwrite(at, b)),
        1 => any::<usize>().prop_map(Damage::Truncate),
    ]
}

fn damaged(text: &str, how: &Damage) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match *how {
        Damage::Overwrite(at, b) => {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        Damage::Truncate(keep) => bytes.truncate(keep % bytes.len()),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_reader(
        raw in prop::collection::vec(any::<u8>(), 0..200usize),
        flavoured in json_flavoured(),
    ) {
        readers_hold_the_law(&String::from_utf8_lossy(&raw))?;
        readers_hold_the_law(&String::from_utf8_lossy(&flavoured))?;
    }

    /// One damaged event line, read on its own and as line 2 of a log.
    #[test]
    fn damaged_event_lines_are_refused_or_understood(
        line in any::<usize>(),
        how in damage(),
    ) {
        let text = capture_text();
        let lines: Vec<&str> = text.lines().collect();
        let broken = damaged(lines[1 + line % (lines.len() - 1)], &how);
        readers_hold_the_law(&broken)?;
        readers_hold_the_law(&format!("{}\n{broken}\n", lines[0]))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Damage anywhere in a whole capture file and in its trace corpus
    /// (most hits land in the header line, which carries every job).
    #[test]
    fn damaged_files_are_refused_or_understood(how in damage(), in_header in any::<bool>()) {
        let capture = capture_text();
        let log = ReplayLog::from_jsonl(&capture).expect("golden capture loads");
        let header = capture.lines().next().expect("capture has a header");
        let short = format!("{header}\n{}\n", log.events[0].to_json());
        readers_hold_the_law(&damaged(if in_header { &short } else { &capture }, &how))?;
        readers_hold_the_law(&damaged(&log.header.spec.to_jsonl(), &how))?;
    }
}
