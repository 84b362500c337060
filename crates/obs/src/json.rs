//! A dependency-free JSON writer/parser.
//!
//! The build environment is offline (no serde), so the exporters and the
//! `BENCH_*.json` schema checks hand-roll the little JSON they need:
//! [`escape`] and [`number`] for writing, and [`parse`] — a small
//! recursive-descent parser producing a [`Value`] tree — for reading.
//!
//! The reader is fed files from outside the program (`lotteryctl replay
//! <file>`), so it is linear in the input, refuses documents nested
//! deeper than [`MAX_DEPTH`] instead of recursing, and never panics.
//! Numbers are `f64`: integers are exact only below 2^53, which the
//! event and header field codec (`event::Get`) enforces when it reads
//! one.

// Parses text from outside the program: malformed input is an error,
// never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; [`parse`] yields finite ones only).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (keys sorted).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a valid JSON number.
///
/// JSON has no NaN/Infinity; both map to `null`-safe `0`, and integral
/// values print without a fraction.
pub fn number(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// workspace writes (replay headers, events, benchmark reports) nest a
/// handful of levels; the bound keeps hostile input off the call stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// `depth` counts the arrays and objects enclosing this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // `1e999` parses to infinity, which JSON cannot say and `number`
    // cannot write back: a `Value::Num` is always finite.
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Value::Num(n)),
        Ok(_) => Err(format!("number {text:?} is out of range")),
        Err(e) => Err(format!("bad number {text:?}: {e}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash. Both
                // are ASCII, so the run ends on a character boundary and is
                // validated once: the string costs time linear in its length.
                let run = bytes[*pos..]
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&bytes[*pos..run]).map_err(|e| e.to_string())?);
                *pos = run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = r#"{"name":"dispatch","unit":"ns","results":[{"id":"a/1","median_ns":217.25,"samples":11},{"id":"b","ok":true,"extra":null}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("dispatch"));
        let results = v.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("median_ns").and_then(Value::as_f64),
            Some(217.25)
        );
        assert_eq!(results[1].get("extra"), Some(&Value::Null));
    }

    #[test]
    fn escapes_and_unescapes() {
        let original = "he said \"hi\"\nthen\tleft\\";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(original));
    }

    /// Multi-byte scalars next to an escape, next to the closing quote,
    /// and on their own: each run between escapes is copied whole.
    #[test]
    fn strings_keep_multibyte_scalars_beside_escapes_and_quotes() {
        for (doc, want) in [
            (r#""é""#, "é"),
            (r#""é\n€""#, "é\n€"),
            (r#""\t𝄞\\""#, "\t𝄞\\"),
            (r#""a\u00e9€\"𝄞""#, "aé€\"𝄞"),
            (r#""""#, ""),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        assert!(parse("\"é").is_err());
        assert!(parse("\"é\\").is_err());
    }

    /// A document nested past [`MAX_DEPTH`] is an error, not a stack
    /// overflow; one nested exactly that deep still parses.
    #[test]
    fn nesting_is_bounded() {
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let too_deep = format!("[{deepest}]");
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("").is_err());
        assert!(parse("1e999").unwrap_err().contains("out of range"));
        assert!(parse("[-1e999]").is_err());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(parse(&number(1234.0625)).unwrap().as_f64(), Some(1234.0625));
    }
}
