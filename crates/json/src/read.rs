//! Reading: the pull [`JsonReader`] every [`FromJson`] impl reads from.

use std::borrow::Cow;

use crate::{FromJson, ParseError, Value, MAX_DEPTH};

/// A number as the grammar classifies it: no `.`, `e`, `E`, `+` or inner
/// `-` and within `i64` is an integer, anything else a float.
enum Number {
    Int(i64),
    Float(f64),
}

/// A pull reader over one JSON text: decoders ask for the value they
/// expect next (an object member by member, an array element by element, a
/// string, a number) and nothing is built that they do not keep. Keys and
/// escape-free strings are borrowed from the text.
///
/// The syntax it accepts, and the message and byte offset of every syntax
/// error, are those of [`crate::from_str`], which runs on it. A decoder that
/// finds the wrong kind of value reports it as a [`ParseError`] too, with the
/// member path it was decoding ([`ParseError::path`]).
///
/// Arrays and objects nest at most [`MAX_DEPTH`] deep, whoever reads them
/// ([`Value`], a typed decoder or [`JsonReader::skip_value`]): the count is
/// kept here, in [`JsonReader::read_array`] and [`JsonReader::read_object`].
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// How many arrays and objects enclose the next value.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Self { text, pos: 0, depth: 0 }
    }

    /// The byte offset of the next unread byte.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// A decoding error at the current offset.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), offset: self.pos, path: String::new() }
    }

    fn syntax<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(self.error(message))
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and reports what starts the next value, so a
    /// decoder can branch on it.
    fn next_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.syntax(format!("expected {:?}", byte as char))
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), ParseError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.syntax(format!("expected {word}"))
        }
    }

    /// A number starting at the current offset (a `-` or a digit).
    fn number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Accumulate plain digits on the way; anything else falls back to
        // the standard library's parsers over the scanned text.
        let digits_start = self.pos;
        let mut magnitude = Some(0u64);
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(c - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !is_float && self.pos > digits_start {
            match (negative, magnitude) {
                (false, Some(m)) if m <= i64::MAX as u64 => return Ok(Number::Int(m as i64)),
                (true, Some(m)) if m <= 1 << 63 => {
                    return Ok(Number::Int((m as i64).wrapping_neg()))
                }
                _ => {}
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Number::Float(f)),
            Err(_) => self.syntax(format!("bad number {text:?}")),
        }
    }

    /// A string starting at the current offset (a `"`).
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_run();
        match self.peek() {
            Some(b'"') => {
                let run = &self.text[start..self.pos];
                self.pos += 1;
                return Ok(Cow::Borrowed(run));
            }
            None => return self.syntax("unterminated string"),
            _ => {}
        }
        // An escape: decode into an owned string from here on.
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return self.syntax("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    self.skip_run();
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Consumes an unescaped run. It stops only at `"`, `\` or the end of
    /// the text — ASCII bytes, so always on a character boundary.
    fn skip_run(&mut self) {
        let bytes = self.bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'"' || b == b'\\' {
                break;
            }
            self.pos += 1;
        }
    }

    /// Decodes the escape after a backslash; the offset is left on its last
    /// byte.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
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
                let bytes = self.bytes();
                let read_hex = |at: usize| {
                    bytes
                        .get(at..at + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                };
                let Some(unit) = read_hex(self.pos + 1) else {
                    return self.syntax("bad \\u escape");
                };
                let scalar = if (0xD800..=0xDBFF).contains(&unit) {
                    // High surrogate: a low surrogate escape must follow
                    // immediately (standard JSON encoding of characters
                    // outside the BMP).
                    let follows_escape = bytes.get(self.pos + 5) == Some(&b'\\')
                        && bytes.get(self.pos + 6) == Some(&b'u');
                    let low = if follows_escape {
                        read_hex(self.pos + 7).filter(|lo| (0xDC00..=0xDFFF).contains(lo))
                    } else {
                        None
                    };
                    match low {
                        Some(lo) => {
                            self.pos += 6;
                            0x10000 + ((unit - 0xD800) << 10) + (lo - 0xDC00)
                        }
                        None => return self.syntax("unpaired surrogate in \\u escape"),
                    }
                } else {
                    unit
                };
                match char::from_u32(scalar) {
                    Some(c) => {
                        out.push(c);
                        self.pos += 4;
                    }
                    None => return self.syntax("bad \\u escape"),
                }
            }
            _ => return self.syntax("bad escape"),
        }
        Ok(())
    }

    /// Steps into the array or object whose opening byte is next, or
    /// refuses it if that would nest deeper than [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return self
                .syntax(format!("arrays and objects nested deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Reads an object member by member: `member` gets each key and must
    /// consume exactly that member's value. Members come in document order,
    /// duplicates included.
    pub fn read_object(
        &mut self,
        member: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.next_byte() != Some(b'{') {
            return Err(self.error("expected an object"));
        }
        self.enter()?;
        let read = self.members(member);
        self.depth -= 1;
        read
    }

    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.syntax("expected ',' or '}'"),
            }
        }
    }

    /// Reads an array element by element: `element` must consume exactly
    /// one value per call.
    pub fn read_array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.next_byte() != Some(b'[') {
            return Err(self.error("expected an array"));
        }
        self.enter()?;
        let read = self.elements(element);
        self.depth -= 1;
        read
    }

    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.syntax("expected ',' or ']'"),
            }
        }
    }

    /// Reads the value of object member `key` into `slot` — unless an
    /// earlier member of the same object already filled it, in which case
    /// the value is only checked for syntax: the first occurrence of a key
    /// wins, as in a [`Value`] lookup. Errors carry `key` in their path.
    pub fn member<T: FromJson>(
        &mut self,
        key: &str,
        slot: &mut Option<T>,
    ) -> Result<(), ParseError> {
        if slot.is_some() {
            return self.skip_value();
        }
        match T::read_json(self) {
            Ok(value) => {
                *slot = Some(value);
                Ok(())
            }
            Err(e) => Err(e.within(key)),
        }
    }

    /// What a [`JsonReader::member`] slot decoded to once its object is
    /// read: the value, [`FromJson::missing`] for a member the object did
    /// not have, or an error naming it.
    pub fn take_member<T: FromJson>(&self, key: &str, slot: Option<T>) -> Result<T, ParseError> {
        slot.or_else(T::missing).ok_or_else(|| self.error(format!("missing {key:?}")))
    }

    /// Consumes `null` if it is next; `false` (consuming nothing) if
    /// another value is.
    pub(crate) fn read_null(&mut self) -> Result<bool, ParseError> {
        if self.next_byte() == Some(b'n') {
            self.keyword("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads a boolean.
    pub(crate) fn read_bool(&mut self) -> Result<bool, ParseError> {
        match self.next_byte() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.error("expected a boolean")),
        }
    }

    /// Reads a string; borrowed from the text unless it had escapes.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if self.next_byte() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        self.string()
    }

    /// A number, or `expected` (at the value's start) if the next value is
    /// not one or `wanted` rejects it.
    fn read_number<T>(
        &mut self,
        expected: &str,
        wanted: impl FnOnce(Number) -> Option<T>,
    ) -> Result<T, ParseError> {
        let start = match self.next_byte() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.pos,
            _ => return Err(self.error(expected)),
        };
        let number = self.number()?;
        wanted(number).ok_or_else(|| ParseError::at(start, expected))
    }

    /// Reads an integer (a number with no fraction or exponent, within
    /// `i64`).
    pub(crate) fn read_i64(&mut self) -> Result<i64, ParseError> {
        self.read_number("expected an integer", |n| match n {
            Number::Int(i) => Some(i),
            Number::Float(_) => None,
        })
    }

    /// Reads a non-negative integer.
    pub(crate) fn read_u64(&mut self) -> Result<u64, ParseError> {
        self.read_number("expected a non-negative integer", |n| match n {
            Number::Int(i) => u64::try_from(i).ok(),
            Number::Float(_) => None,
        })
    }

    /// Reads any number as an `f64`.
    pub(crate) fn read_f64(&mut self) -> Result<f64, ParseError> {
        self.read_number("expected a number", |n| match n {
            Number::Int(i) => Some(i as f64),
            Number::Float(f) => Some(f),
        })
    }

    /// Consumes the next value whatever it is, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.next_byte() {
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.read_array(|r| r.skip_value()),
            Some(b'{') => self.read_object(|r, _| r.skip_value()),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(drop),
            _ => self.syntax("expected a JSON value"),
        }
    }

    /// Checks that nothing but whitespace follows the document.
    pub(crate) fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.syntax("trailing characters after document");
        }
        Ok(())
    }
}

impl FromJson for Value {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        match input.next_byte() {
            Some(b'n') => input.keyword("null").map(|()| Value::Null),
            Some(b't') => input.keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => input.keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(input.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                input.read_array(|r| {
                    items.push(Value::read_json(r)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                input.read_object(|r, key| {
                    members.push((key.to_string(), Value::read_json(r)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(match input.number()? {
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            }),
            _ => input.syntax("expected a JSON value"),
        }
    }
}
