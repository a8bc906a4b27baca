//! Self-contained JSON support for the MopEye reproduction.
//!
//! The workspace runs in offline build environments, so instead of serde_json
//! it uses this small first-party crate for the two places JSON actually
//! crosses a boundary:
//!
//! * the measurement store's JSON-lines persistence
//!   (`mop_measure::MeasurementStore::{to,from}_json_lines`), and
//! * the machine-readable experiment outputs written by the `repro` binary
//!   and the bench baseline files.
//!
//! [`Value`] keeps object keys in insertion order so rendered experiment
//! files diff cleanly between runs.

#![forbid(unsafe_code)]

use std::fmt;

/// A JSON document: null, boolean, number, string, array or object.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialised without a decimal point).
    Int(i64),
    /// A floating-point number. Non-finite values serialise as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as a u64, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an i64, when it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an f64, for any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// `value["key"]`, yielding `Null` for misses like serde_json.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Int(v as i64)
            }
        }
    )*};
}
from_int!(i8, i16, i32, i64, u8, u16, u32, isize);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        i64::try_from(v).map(Value::Int).unwrap_or(Value::Float(v as f64))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Float(f64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::Str(v.clone())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(v: [T; N]) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

macro_rules! from_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Into<Value>),+> From<($($name,)+)> for Value {
            fn from(v: ($($name,)+)) -> Value {
                Value::Array(vec![$(v.$idx.into()),+])
            }
        }
    )*};
}
from_tuple! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Builds a [`Value`] from object/array literals and expressions.
///
/// Unlike serde_json's macro, nested object literals must themselves be
/// wrapped in `json!(..)` — values are plain Rust expressions converted via
/// `Into<Value>`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object(Vec::new()) };
    ({ $($key:literal : $value:expr),+ $(,)? }) => {
        $crate::Value::Object(vec![
            $(($key.to_string(), $crate::Value::from($value))),+
        ])
    };
    ([]) => { $crate::Value::Array(Vec::new()) };
    ([ $($element:expr),+ $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::Value::from($element)),+])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

/// True for the bytes `escape_into` cannot pass through verbatim. Every
/// such byte is ASCII, so scanning bytes (not chars) is enough: multi-byte
/// UTF-8 sequences never contain them and copy through untouched.
#[inline]
fn needs_escape(byte: u8) -> bool {
    byte < 0x20 || byte == b'"' || byte == b'\\'
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    // The common case — no escapes at all (every report key and most
    // values) — is one bulk copy. Otherwise copy unescaped runs between
    // escapes in bulk, mirroring the parser's run-consuming scan.
    let bytes = s.as_bytes();
    let mut run_start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if needs_escape(bytes[i]) {
            out.push_str(&s[run_start..i]);
            match bytes[i] {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                c => {
                    use fmt::Write as _;
                    write!(out, "\\u{:04x}", c).expect("writing to a String cannot fail");
                }
            }
            run_start = i + 1;
        }
        i += 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

fn write_number(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else {
        use fmt::Write as _;
        let start = out.len();
        write!(out, "{f}").expect("writing to a String cannot fail");
        // Keep Float-ness through a round trip: whole values need a decimal
        // point or they reparse as Int.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_compact(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            use fmt::Write as _;
            write!(out, "{i}").expect("writing to a String cannot fail");
        }
        Value::Float(f) => write_number(out, *f),
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, key);
                out.push(':');
                write_compact(out, item);
            }
            out.push('}');
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(out, indent + 1);
                write_pretty(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in members.iter().enumerate() {
                push_indent(out, indent + 1);
                escape_into(out, key);
                out.push_str(": ");
                write_pretty(out, item, indent + 1);
                if i + 1 < members.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(out, indent);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// A lower bound on `value`'s compact rendering length, from one cheap
/// pass over the tree — numbers count their minimum width and strings
/// their unescaped length, so the real rendering is rarely much longer.
/// Pre-sizing with this keeps a large document (a 650 KB checkpoint, say)
/// from re-growing its output buffer a copy at a time.
fn estimate_compact(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 4,
        Value::Int(_) => 4,
        Value::Float(_) => 8,
        Value::Str(s) => s.len() + 2,
        Value::Array(items) => {
            2 + items.len() + items.iter().map(estimate_compact).sum::<usize>()
        }
        Value::Object(members) => {
            2 + members.len()
                + members.iter().map(|(key, item)| key.len() + 3 + estimate_compact(item)).sum::<usize>()
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::with_capacity(estimate_compact(self));
        write_compact(&mut out, self);
        f.write_str(&out)
    }
}

/// Compact one-line rendering (JSON-lines friendly).
pub fn to_string(value: &Value) -> String {
    let mut out = String::with_capacity(estimate_compact(value));
    write_compact(&mut out, value);
    out
}

/// Human-readable two-space-indented rendering.
pub fn to_string_pretty(value: &Value) -> String {
    // Pretty output carries indentation on top of the compact estimate;
    // the compact bound still absorbs most of the growth doubling.
    let mut out = String::with_capacity(estimate_compact(value));
    write_pretty(&mut out, value, 0);
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parse failure: message plus byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { message: message.into(), offset: self.pos })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected {:?}", byte as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => self.error("expected a JSON value"),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.error(format!("expected {word}"))
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError { message: "invalid utf-8 in number".into(), offset: start })?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Value::Float(f)),
            Err(_) => self.error(format!("bad number {text:?}")),
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.error("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let read_hex = |bytes: &[u8], at: usize| {
                                bytes
                                    .get(at..at + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                            };
                            let Some(unit) = read_hex(self.bytes, self.pos + 1) else {
                                return self.error("bad \\u escape");
                            };
                            let scalar = if (0xD800..=0xDBFF).contains(&unit) {
                                // High surrogate: a low surrogate escape must
                                // follow immediately (standard JSON encoding
                                // of characters outside the BMP).
                                let follows_escape = self.bytes.get(self.pos + 5) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 6) == Some(&b'u');
                                let low = if follows_escape {
                                    read_hex(self.bytes, self.pos + 7)
                                        .filter(|lo| (0xDC00..=0xDFFF).contains(lo))
                                } else {
                                    None
                                };
                                match low {
                                    Some(lo) => {
                                        self.pos += 6;
                                        0x10000 + ((unit - 0xD800) << 10) + (lo - 0xDC00)
                                    }
                                    None => return self.error("unpaired surrogate in \\u escape"),
                                }
                            } else {
                                unit
                            };
                            match char::from_u32(scalar) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.error("bad \\u escape"),
                            }
                        }
                        _ => return self.error("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole unescaped run in one pass. A
                    // multi-byte scalar cannot straddle the end of the run:
                    // its continuation bytes are >= 0x80, so the scan only
                    // stops at '"', '\\' or EOF on a scalar boundary.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                        ParseError { message: "invalid utf-8 in string".into(), offset: start }
                    })?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.error("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return self.error("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a JSON document.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.error("trailing characters after document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_through_text() {
        let doc = json!({
            "name": "mopeye",
            "count": 42u32,
            "rtt": 76.5,
            "nothing": Option::<f64>::None,
            "flags": [true, false],
            "series": vec![(1.0f64, 0.5f64), (2.0, 1.0)],
        });
        let text = to_string(&doc);
        let back = from_str(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back["count"].as_u64(), Some(42));
        assert_eq!(back["rtt"].as_f64(), Some(76.5));
        assert!(back["nothing"].is_null());
        assert_eq!(back["flags"].as_array().unwrap().len(), 2);
        assert_eq!(back["series"][0][1].as_f64(), Some(0.5));
        assert_eq!(back["missing"], Value::Null);
    }

    #[test]
    fn pretty_rendering_parses_back() {
        let doc = json!({ "a": json!({ "b": [1, 2, 3] }), "c": "x\"y\\z\nw" });
        let pretty = to_string_pretty(&doc);
        assert!(pretty.contains("\n"));
        assert_eq!(from_str(&pretty).unwrap(), doc);
    }

    #[test]
    fn escapes_and_unicode_survive() {
        let doc = Value::Str("tab\t nl\n quote\" back\\ unicode é €".to_string());
        assert_eq!(from_str(&to_string(&doc)).unwrap(), doc);
        assert_eq!(from_str(r#""Aé""#).unwrap(), Value::Str("Aé".into()));
        // Surrogate-pair escapes, as emitted by ASCII-escaping JSON writers
        // (e.g. Python's json.dumps default): 😀 is U+1F600.
        assert_eq!(from_str("\"\\ud83d\\ude00\"").unwrap(), Value::Str("\u{1F600}".into()));
        assert_eq!(from_str("\"x\\ud83d\\ude00y\"").unwrap(), Value::Str("x\u{1F600}y".into()));
        // BMP escapes still work, and mixed raw UTF-8 survives alongside.
        assert_eq!(from_str("\"\\u00e9 é\"").unwrap(), Value::Str("é é".into()));
        // Lone or malformed surrogates are rejected, not mangled.
        assert!(from_str(r#""\ud83d""#).is_err());
        assert!(from_str(r#""\ud83dA""#).is_err());
        assert!(from_str(r#""\ud83dx""#).is_err());
    }

    #[test]
    fn numbers_keep_integerness() {
        assert_eq!(from_str("42").unwrap(), Value::Int(42));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(from_str("1e3").unwrap(), Value::Float(1000.0));
        // Whole floats keep a decimal point so they parse back as floats,
        // including values at and beyond 1e15.
        assert_eq!(to_string(&Value::Float(2.0)), "2.0");
        assert_eq!(from_str(&to_string(&Value::Float(1e15))).unwrap(), Value::Float(1e15));
        assert_eq!(from_str(&to_string(&Value::Float(-3e18))).unwrap(), Value::Float(-3e18));
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(from_str("").is_err());
        assert!(from_str("{\"a\": }").is_err());
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("true false").is_err());
        let err = from_str("nul").unwrap_err();
        assert!(err.to_string().contains("null"));
    }
}
