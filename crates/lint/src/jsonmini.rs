//! A minimal, total JSON reader for the lint's own input, the
//! `lint-baseline.json` pin file.
//!
//! Hand-rolled for the same reason as the lexer and parser: the lint must
//! never depend on the workspace's vendored serde shims — the code it
//! checks — nor on any external crate. The reader is tolerant (returns
//! `None` rather than panicking on malformed input), preserves object key
//! order, and parses numbers as `f64` (baseline fields are all the lint
//! actually consumes).

/// A parsed JSON value. Object keys keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Visits this value and every descendant, pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Value)) {
        visit(self);
        match self {
            Value::Arr(items) => {
                for item in items {
                    item.walk(visit);
                }
            }
            Value::Obj(pairs) => {
                for (_, v) in pairs {
                    v.walk(visit);
                }
            }
            _ => {}
        }
    }
}

/// Nesting cap: the baseline is shallow; anything deeper is malformed input
/// and parses to `None` instead of risking stack exhaustion.
const MAX_DEPTH: u32 = 64;

/// Parses a JSON document. `None` on any syntax error or trailing garbage.
pub fn parse(src: &str) -> Option<Value> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: u32) -> Option<Value> {
    if depth >= MAX_DEPTH {
        return None;
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Value::Obj(pairs));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Value::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b't' => keyword(bytes, pos, "true", Value::Bool(true)),
        b'f' => keyword(bytes, pos, "false", Value::Bool(false)),
        b'n' => keyword(bytes, pos, "null", Value::Null),
        _ => parse_number(bytes, pos),
    }
}

fn keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Option<Value> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Some(value)
    } else {
        None
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (multi-byte sequences included).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Value::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_golden_shapes() {
        let doc = parse(
            "{\"figure\":\"fig13\",\"rows\":[{\"ml_norm\":0.97,\"ok\":true,\"note\":null}],\
             \"count\":2}",
        )
        .expect("valid");
        assert_eq!(doc.get("figure").and_then(Value::as_str), Some("fig13"));
        let rows = doc.get("rows").and_then(Value::as_arr).expect("array");
        assert_eq!(rows[0].get("ml_norm"), Some(&Value::Num(0.97)));
        assert_eq!(rows[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(rows[0].get("note"), Some(&Value::Null));
    }

    #[test]
    fn escapes_and_unicode() {
        let doc = parse("{\"a\\n\\\"b\":\"caf\\u00e9 → ok\"}").expect("valid");
        assert_eq!(doc.get("a\n\"b").and_then(Value::as_str), Some("café → ok"));
    }

    #[test]
    fn rejects_malformed_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "truish",
            "1.2.3x",
            "\"open",
            "[}",
            "{\"a\":1} trailing",
        ] {
            assert!(parse(bad).is_none(), "{bad:?} should not parse");
        }
        // Depth bomb parses to None, not a stack overflow.
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_none());
    }

    #[test]
    fn walk_visits_every_node() {
        let doc = parse("{\"a\":[1,{\"b\":2}],\"c\":3}").expect("valid");
        let mut keys = Vec::new();
        doc.walk(&mut |v| {
            if let Value::Obj(pairs) = v {
                keys.extend(pairs.iter().map(|(k, _)| k.clone()));
            }
        });
        assert_eq!(keys, vec!["a", "c", "b"]);
    }
}
