//! The codec `mop_json` had before its streaming writer and pull reader:
//! a recursive renderer over [`Value`] trees and a recursive-descent parser
//! building them, kept verbatim as the model the new codec is held to —
//! `to_string` / `to_string_pretty` must write what [`render`] /
//! [`render_pretty`] write, and `from_str` must accept, build and reject
//! exactly what [`parse`] does, error messages and byte offsets included.

#![allow(dead_code)]

use std::fmt;

use mop_json::{ParseError, Value};

/// The old `to_string`.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    write_compact(&mut out, value);
    out
}

/// The old `to_string_pretty`.
pub fn render_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    out
}

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

// ----- the old parser -------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { message: message.into(), offset: self.pos, path: String::new() })
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| ParseError {
            message: "invalid utf-8 in number".into(),
            offset: start,
            path: String::new(),
        })?;
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
                        ParseError {
                            message: "invalid utf-8 in string".into(),
                            offset: start,
                            path: String::new(),
                        }
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

/// The old `from_str`.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.error("trailing characters after document");
    }
    Ok(value)
}
