//! A minimal JSON value, writer, and parser.
//!
//! The workspace deliberately carries no third-party dependencies, so the
//! `BENCH_*.json` trajectory files are produced (and re-validated) by this
//! hand-rolled module instead of serde. It supports exactly what the bench
//! schema needs: objects with ordered keys, arrays, finite numbers, strings,
//! booleans, and null. Numbers are emitted with enough precision to
//! round-trip the measurements; non-finite floats are rejected at write time
//! so a broken run can never produce a file that parses as valid JSON.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so emitted files diff
/// cleanly across revisions.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has one number type; we store f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as an ordered key/value list.
    Obj(Vec<(String, JsonValue)>),
}

/// Builds a [`JsonValue::Obj`] from `"key": value` pairs, in order; each value
/// converts through [`From`] (numbers, booleans, strings, arrays, `Option`s —
/// `None` is `null` — and whatever else implements it).
#[macro_export]
macro_rules! json_obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::JsonValue::Obj(vec![
            $(($key.to_string(), $crate::json::JsonValue::from($value))),*
        ])
    };
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> Self {
        JsonValue::Arr(items)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

impl JsonValue {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Self {
        JsonValue::Num(n.into())
    }

    /// Looks up a key in an object (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a `/`-separated path: each part is an object key, or an index
    /// where the value reached so far is an array (`replicas/0/lag_ms/p50`).
    pub fn at(&self, path: &str) -> Option<&JsonValue> {
        path.split('/').try_fold(self, |node, part| match node {
            JsonValue::Arr(items) => items.get(part.parse::<usize>().ok()?),
            _ => node.get(part),
        })
    }

    /// Appends `other`'s entries to this object's (a no-op unless both are
    /// objects).
    pub fn merge(&mut self, other: JsonValue) {
        if let (JsonValue::Obj(fields), JsonValue::Obj(more)) = (self, other) {
            fields.extend(more);
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as pretty-printed JSON with a trailing newline
    /// (the format the `BENCH_*.json` files use).
    ///
    /// # Panics
    ///
    /// Panics if any number in the tree is non-finite — a NaN lag percentile
    /// is a bug in the measurement, not something to serialize.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    assert!(n.is_finite(), "refusing to serialize non-finite number {n}");
    if n == n.trunc() && n.abs() < 1e15 {
        write!(out, "{}", n as i64).unwrap();
    } else {
        write!(out, "{n}").unwrap();
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document. Returns an error message with a byte offset on
/// malformed input. Accepts exactly the subset [`JsonValue::pretty`] emits
/// plus arbitrary whitespace, escape sequences, and scientific notation, so
/// it can re-read emitted documents and validate CI smoke output.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs never appear in bench output;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = JsonValue::Obj(vec![
            ("name".into(), JsonValue::str("pipeline")),
            ("count".into(), JsonValue::num(42u32)),
            ("ratio".into(), JsonValue::Num(0.125)),
            ("ok".into(), JsonValue::Bool(true)),
            ("missing".into(), JsonValue::Null),
            (
                "items".into(),
                JsonValue::Arr(vec![JsonValue::num(1u32), JsonValue::num(2u32)]),
            ),
            ("empty_obj".into(), JsonValue::Obj(vec![])),
            ("empty_arr".into(), JsonValue::Arr(vec![])),
        ]);
        let text = doc.pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn escapes_and_reparses_awkward_strings() {
        let doc = JsonValue::str("a\"b\\c\nd\te\u{1}f");
        let back = parse(&doc.pretty()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_scientific_notation_and_negatives() {
        let v = parse("[-1.5e3, 2E-2, -7]").unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(-1500.0));
        assert_eq!(arr[1].as_num(), Some(0.02));
        assert_eq!(arr[2].as_num(), Some(-7.0));
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(JsonValue::num(1500u32).pretty(), "1500\n");
        assert_eq!(JsonValue::Num(1.25).pretty(), "1.25\n");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn refuses_nan() {
        JsonValue::Num(f64::NAN).pretty();
    }

    #[test]
    fn get_walks_objects() {
        let v = parse("{\"a\": {\"b\": 3}}").unwrap();
        assert_eq!(
            v.get("a")
                .and_then(|a| a.get("b"))
                .and_then(JsonValue::as_num),
            Some(3.0)
        );
        assert!(v.get("nope").is_none());
    }
}
