//! Vendored minimal serde_json shim.
//!
//! Renders the in-repo [`serde::Value`] tree to JSON text and parses JSON
//! text back. The output format matches the real serde_json closely enough
//! that the repository's committed `results/*.json` artefacts are
//! byte-stable: 2-space pretty printing, floats always carry a fractional
//! part (`1.0`, not `1`), and non-finite floats render as `null`.

// Library code reports failure as a value and writes no output; a
// deliberate exception is a reasoned `#[expect]` (DESIGN.md §6b).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON serialization/deserialization error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serializes `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Streams `value`'s compact JSON rendering into `sink` without building
/// the intermediate text buffer. The byte stream delivered to the sink is
/// exactly the [`to_string`] / [`to_vec`] output — hashing sinks therefore
/// see the same bytes a buffered caller would hash, keeping content hashes
/// stable across the two paths.
pub fn to_sink<T: Serialize + ?Sized, S: JsonSink + ?Sized>(
    value: &T,
    sink: &mut S,
) -> Result<(), Error> {
    write_value(sink, &value.to_value(), None, 0);
    Ok(())
}

/// Byte-stream receiver for the JSON writer: the renderer pushes UTF-8
/// fragments in output order, so a sink can hash or count bytes without a
/// backing buffer. `String` is the canonical buffering sink.
pub trait JsonSink {
    /// Receives the next UTF-8 fragment of the rendering.
    fn write_str(&mut self, s: &str);

    /// Receives a single character (default: via a stack-encoded fragment).
    fn write_char(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.write_str(c.encode_utf8(&mut buf));
    }
}

impl JsonSink for String {
    fn write_str(&mut self, s: &str) {
        self.push_str(s);
    }

    fn write_char(&mut self, c: char) {
        self.push(c);
    }
}

/// `fmt::Write` adapter so `Display` values (ints, floats) render straight
/// into a sink without a temporary `String`.
struct FmtSink<'a, S: JsonSink + ?Sized>(&'a mut S);

impl<S: JsonSink + ?Sized> std::fmt::Write for FmtSink<'_, S> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write_str(s);
        Ok(())
    }
}

/// Parses a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value<S: JsonSink + ?Sized>(out: &mut S, v: &Value, indent: Option<usize>, depth: usize) {
    use std::fmt::Write as _;
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(FmtSink(out), "{n}");
        }
        Value::Int(n) => {
            let _ = write!(FmtSink(out), "{n}");
        }
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.write_str("[]");
                return;
            }
            out.write_char('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.write_char(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.write_str("{}");
                return;
            }
            out.write_char('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.write_char(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.write_char(':');
                if indent.is_some() {
                    out.write_char(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.write_char('}');
        }
    }
}

fn newline_indent<S: JsonSink + ?Sized>(out: &mut S, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.write_char('\n');
        for _ in 0..width * depth {
            out.write_char(' ');
        }
    }
}

/// Formats a float the way serde_json does: non-finite values become `null`,
/// integral values keep a `.0` suffix, everything else uses Rust's shortest
/// round-trip representation.
fn write_float<S: JsonSink + ?Sized>(out: &mut S, f: f64) {
    use std::fmt::Write as _;
    if !f.is_finite() {
        out.write_str("null");
    } else if f == f.trunc() && f.abs() < 1e16 {
        let _ = write!(FmtSink(out), "{f:.1}");
    } else {
        let _ = write!(FmtSink(out), "{f}");
    }
}

fn write_string<S: JsonSink + ?Sized>(out: &mut S, s: &str) {
    use std::fmt::Write as _;
    out.write_char('"');
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\r' => out.write_str("\\r"),
            '\t' => out.write_str("\\t"),
            '\u{08}' => out.write_str("\\b"),
            '\u{0c}' => out.write_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(FmtSink(out), "\\u{:04x}", c as u32);
            }
            c => out.write_char(c),
        }
    }
    out.write_char('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn parse(s: &str) -> Result<Value, Error> {
    parse_with(s, parse_string)
}

/// Reads one JSON string starting at its opening quote.
type StringParser = fn(&[u8], &mut usize) -> Result<String, Error>;

/// Parses a whole document, reading every string and key with `string`.
fn parse_with(s: &str, string: StringParser) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, string)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, string: StringParser) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(bytes, pos, string)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let val = parse_value(bytes, pos, string)?;
                entries.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, kw: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected `\"` at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run of plain characters up to the next `"` or `\` as one
        // slice. Both are ASCII, so on the bytes of a `&str` the run ends on
        // a character boundary and the UTF-8 check cannot fail.
        let rest = &bytes[*pos..];
        let run = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        out.push_str(
            std::str::from_utf8(&rest[..run]).map_err(|_| Error::new("invalid UTF-8 in string"))?,
        );
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // The run stopped at a backslash.
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("bad \\u escape"))?;
                        // Surrogate pairs are not needed by this repo's data.
                        out.push(char::from_u32(code).ok_or_else(|| Error::new("bad \\u escape"))?);
                        *pos += 4;
                    }
                    _ => return Err(Error::new(format!("bad escape at byte {pos}"))),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::new("bad number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::new(format!("expected a number at byte {start}")));
    }
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    } else if let Some(stripped) = text.strip_prefix('-') {
        stripped
            .parse::<u64>()
            .map_err(|_| Error::new(format!("bad number `{text}`")))
            .and_then(|n| {
                i64::try_from(n)
                    .map(|n| Value::Int(-n))
                    .map_err(|_| Error::new(format!("number `{text}` out of range")))
            })
    } else {
        text.parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_formatting() {
        let v = Value::Map(vec![
            ("a".into(), Value::Float(1.0)),
            ("b".into(), Value::Seq(vec![Value::UInt(1), Value::UInt(2)])),
            ("c".into(), Value::Null),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1.0,"b":[1,2],"c":null}"#);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": 1.0,\n  \"b\": [\n    1,\n    2\n  ],\n  \"c\": null\n}"
        );
    }

    #[test]
    fn to_sink_streams_the_exact_to_string_bytes() {
        // A sink that records fragment boundaries as well as content, so
        // the test proves both byte identity and that streaming actually
        // happened in pieces (no single buffered push).
        struct Frags(Vec<String>);
        impl JsonSink for Frags {
            fn write_str(&mut self, s: &str) {
                self.0.push(s.to_string());
            }
        }
        let v = Value::Map(vec![
            ("a".into(), Value::Float(1.0)),
            ("esc\n".into(), Value::Str("q\"uote\\".into())),
            ("big".into(), Value::UInt(u64::MAX)),
            ("neg".into(), Value::Int(-7)),
            (
                "seq".into(),
                Value::Seq(vec![Value::Bool(true), Value::Null, Value::Float(0.125)]),
            ),
            ("empty".into(), Value::Seq(vec![])),
            ("emptym".into(), Value::Map(vec![])),
        ]);
        let mut frags = Frags(Vec::new());
        to_sink(&v, &mut frags).unwrap();
        assert_eq!(frags.0.concat(), to_string(&v).unwrap());
        assert!(frags.0.len() > 1, "rendering should stream in fragments");
    }

    #[test]
    fn float_rules_match_serde_json() {
        let mut s = String::new();
        write_float(&mut s, 1.0);
        assert_eq!(s, "1.0");
        s.clear();
        write_float(&mut s, 0.125);
        assert_eq!(s, "0.125");
        s.clear();
        write_float(&mut s, f64::NAN);
        assert_eq!(s, "null");
        s.clear();
        write_float(&mut s, -3.0);
        assert_eq!(s, "-3.0");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "tests the HashMap Serialize impl itself"
    )]
    fn hashmap_json_key_order_is_byte_stable() {
        // The HashMap Serialize impl sorts keys, so the rendered JSON must
        // be byte-identical regardless of insertion order (and of the
        // process's hash seed). Guards the determinism contract the run
        // cache and checked-in results/ artifacts rely on.
        let keys = ["delta", "alpha", "echo", "charlie", "bravo"];
        let mut forward = std::collections::HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            forward.insert(k.to_string(), i as u64);
        }
        let mut reverse = std::collections::HashMap::new();
        for (i, k) in keys.iter().enumerate().rev() {
            reverse.insert(k.to_string(), i as u64);
        }
        let a = to_string(&forward).unwrap();
        let b = to_string(&reverse).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, r#"{"alpha":1,"bravo":4,"charlie":3,"delta":0,"echo":2}"#);
        assert_eq!(
            to_string_pretty(&forward).unwrap(),
            to_string_pretty(&reverse).unwrap()
        );
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"x": [1, -2, 3.5, "hi\n", true, null], "y": {}}"#;
        let v = parse(text).unwrap();
        let back = parse(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
        let nums: Vec<i32> = from_str("[1,2,3]").unwrap();
        assert_eq!(nums, vec![1, 2, 3]);
    }

    /// The character-at-a-time `parse_string` the run-copying one replaced,
    /// kept verbatim as the oracle of
    /// `parse_matches_the_char_at_a_time_reference`.
    fn parse_string_by_char(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(Error::new(format!("expected `\"` at byte {pos}")));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this repo's data.
                            out.push(
                                char::from_u32(code).ok_or_else(|| Error::new("bad \\u escape"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(Error::new(format!("bad escape at byte {pos}"))),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| Error::new("truncated string"))?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// SplitMix64. The crate has no dependencies, so its property test
    /// carries its own seeded generator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A char drawn uniformly from the code points in `range`.
        fn char_in(&mut self, range: std::ops::Range<u32>) -> Option<char> {
            char::from_u32(range.start + self.below((range.end - range.start) as usize) as u32)
        }
    }

    /// Marks, in a generated string, where the rendered document gets a raw
    /// escape from [`RAW_ESCAPES`] spliced in: the writer never emits `\/`
    /// or an invalid escape.
    const SPLICE: char = '\u{e000}';

    /// Every short escape, valid `\u` escapes, then invalid ones: lone
    /// surrogates, non-hex digits, escapes cut short by the closing quote,
    /// and unknown escape letters. `\u+041` is accepted by both parsers
    /// (`from_str_radix` takes a sign).
    const RAW_ESCAPES: [&str; 22] = [
        "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\u20AC",
        "\\uffff", "\\u+041", "\\uD83D", "\\udfff", "\\u12G4", "\\u00é", "\\u0é", "\\u00", "\\u",
        "\\x", "\\'",
    ];

    /// Entries of [`RAW_ESCAPES`] that both parsers accept.
    const VALID_ESCAPES: usize = 13;

    /// A string mixing ASCII (quotes, backslashes and control characters
    /// included), 2-, 3- and 4-byte UTF-8, and splice marks.
    fn random_string(rng: &mut SplitMix) -> String {
        (0..rng.below(9))
            .map(|_| {
                let c = match rng.below(10) {
                    0 => Some(SPLICE),
                    1 => Some(if rng.below(2) == 0 { '"' } else { '\\' }),
                    2 => rng.char_in(0..0x20),
                    3 | 4 => rng.char_in(0x20..0x7f),
                    5 | 6 => rng.char_in(0x80..0x800),
                    7 | 8 => rng.char_in(0x800..0x1_0000).filter(|&c| c != SPLICE),
                    _ => rng.char_in(0x1_0000..0x11_0000),
                };
                // Surrogate code points are not chars.
                c.unwrap_or('€')
            })
            .collect()
    }

    fn random_value(rng: &mut SplitMix, depth: usize) -> Value {
        let width = |rng: &mut SplitMix| 0..rng.below(4);
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::UInt(rng.next() >> rng.below(64)),
            3 => Value::Int(-((rng.next() >> (1 + rng.below(63))) as i64)),
            4 => Value::Float(
                (rng.next() as f64 / u64::MAX as f64 - 0.5) * 10f64.powi(rng.below(41) as i32 - 20),
            ),
            5 => Value::Str(random_string(rng)),
            6 => Value::Seq(width(rng).map(|_| random_value(rng, depth - 1)).collect()),
            _ => Value::Map(
                width(rng)
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn parse_matches_the_char_at_a_time_reference() {
        let mut rng = SplitMix(0x5eed);
        let mut spliced = [0usize; RAW_ESCAPES.len()];
        let (mut ok, mut err) = (0, 0);
        for _ in 0..300 {
            let value = Value::Seq((0..3).map(|_| random_value(&mut rng, 3)).collect());
            let text = if rng.below(2) == 0 {
                to_string(&value)
            } else {
                to_string_pretty(&value)
            };
            let mut doc = String::new();
            for c in text.unwrap().chars() {
                if c != SPLICE {
                    doc.push(c);
                    continue;
                }
                // Mostly valid escapes, so that most documents parse.
                let i = if rng.below(5) == 0 {
                    VALID_ESCAPES + rng.below(RAW_ESCAPES.len() - VALID_ESCAPES)
                } else {
                    rng.below(VALID_ESCAPES)
                };
                spliced[i] += 1;
                doc.push_str(RAW_ESCAPES[i]);
            }
            for end in (0..=doc.len()).filter(|&end| doc.is_char_boundary(end)) {
                let prefix = &doc[..end];
                let got = parse(prefix).map_err(|e| e.to_string());
                let want = parse_with(prefix, parse_string_by_char).map_err(|e| e.to_string());
                assert_eq!(got, want, "on {prefix:?}");
                if end == doc.len() {
                    if got.is_ok() {
                        ok += 1;
                    } else {
                        err += 1;
                    }
                }
            }
        }
        assert!(
            ok >= 100 && err >= 30,
            "{ok} whole documents parsed, {err} failed"
        );
        assert!(spliced.iter().all(|&n| n > 0), "{spliced:?}");
    }
}
