//! Writing: the [`JsonWrite`] sink every [`ToJson`] impl writes into, the
//! text writer [`JsonWriter`], and the tree builder behind
//! [`crate::to_value`].

use std::fmt::Write as _;

use crate::{ToJson, Value};

/// A sink for one JSON document, fed token by token. [`ToJson`] impls are
/// written against this trait once and run over both implementors: the text
/// writer [`JsonWriter`] (files, frames) and the tree builder behind
/// [`crate::to_value`] (callers that need a [`Value`]).
///
/// Calls must form one well-nested document: every `begin_*` has its
/// `end_*`, and inside an object every value is preceded by one
/// [`JsonWrite::key`].
pub trait JsonWrite {
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, value: bool);
    /// An integer, written without a decimal point.
    fn int(&mut self, value: i64);
    /// A float. Non-finite values write `null`; whole values keep a `.0`
    /// so they read back as floats.
    fn float(&mut self, value: f64);
    /// A string.
    fn str(&mut self, value: &str);
    /// Opens an array; its elements follow.
    fn begin_array(&mut self);
    /// Closes the innermost open array.
    fn end_array(&mut self);
    /// Opens an object; its members follow, each a key then a value.
    fn begin_object(&mut self);
    /// The key of the next member of the innermost open object.
    fn key(&mut self, key: &str);
    /// Closes the innermost open object.
    fn end_object(&mut self);

    /// One object member: `key`, then `value`.
    fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T)
    where
        Self: Sized,
    {
        self.key(key);
        value.write_json(self);
    }

    /// An array of `items`, in iteration order.
    fn array<'a, T: ToJson + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>)
    where
        Self: Sized,
    {
        self.begin_array();
        for item in items {
            item.write_json(self);
        }
        self.end_array();
    }
}

// ----- text ----------------------------------------------------------------

/// Eight levels of two-space indentation, sliced per newline.
const INDENT: &str = "                ";

/// The text writer: renders a document straight into a `String`, compact
/// (one line, no spaces — the frame and JSON-lines format) or pretty
/// (two-space indented — the on-disk format). Both modes are byte-for-byte
/// the renderings [`crate::to_string`] and [`crate::to_string_pretty`]
/// produce, which run on this writer.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
    /// A key was just written: the next value is its member's value.
    after_key: bool,
}

impl JsonWriter {
    fn new(pretty: bool, capacity: usize) -> Self {
        Self {
            out: String::with_capacity(capacity),
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// A compact writer whose buffer starts with room for `capacity` bytes.
    pub(crate) fn compact(capacity: usize) -> Self {
        Self::new(false, capacity)
    }

    /// A pretty writer whose buffer starts with room for `capacity` bytes.
    pub(crate) fn pretty(capacity: usize) -> Self {
        Self::new(true, capacity)
    }

    /// The text written so far.
    pub(crate) fn finish(self) -> String {
        self.out
    }

    #[inline]
    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        let mut width = depth * 2;
        while width > 0 {
            let run = width.min(INDENT.len());
            self.out.push_str(&INDENT[..run]);
            width -= run;
        }
    }

    /// Separates an array element or object member from the one before.
    #[inline]
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        if self.pretty {
            self.newline(self.depth);
        }
    }

    #[inline]
    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.separate();
        }
    }

    #[inline]
    fn open(&mut self, bracket: char) {
        self.before_value();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    #[inline]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline(self.depth);
        }
        self.out.push(bracket);
        self.first = false;
    }
}

impl JsonWrite for JsonWriter {
    #[inline]
    fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    #[inline]
    fn bool(&mut self, value: bool) {
        self.before_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    #[inline]
    fn int(&mut self, value: i64) {
        self.before_value();
        push_int(&mut self.out, value);
    }

    #[inline]
    fn float(&mut self, value: f64) {
        self.before_value();
        push_float(&mut self.out, value);
    }

    #[inline]
    fn str(&mut self, value: &str) {
        self.before_value();
        push_escaped(&mut self.out, value);
    }

    #[inline]
    fn begin_array(&mut self) {
        self.open('[');
    }

    #[inline]
    fn end_array(&mut self) {
        self.close(']');
    }

    #[inline]
    fn begin_object(&mut self) {
        self.open('{');
    }

    #[inline]
    fn key(&mut self, key: &str) {
        self.separate();
        push_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    #[inline]
    fn end_object(&mut self) {
        self.close('}');
    }
}

/// Decimal digits of `value`, without going through `fmt`.
#[inline]
fn push_int(out: &mut String, value: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = value.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if value < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

#[inline]
fn push_float(out: &mut String, value: f64) {
    if !value.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{value}").expect("writing to a String cannot fail");
    // Keep Float-ness through a round trip: whole values need a decimal
    // point or they read back as integers.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// True for the bytes a string cannot carry verbatim. Every such byte is
/// ASCII, so scanning bytes (not chars) is enough: multi-byte UTF-8
/// sequences never contain them and copy through untouched.
#[inline]
fn needs_escape(byte: u8) -> bool {
    byte < 0x20 || byte == b'"' || byte == b'\\'
}

#[inline]
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    // The common case — no escapes at all (every report key and most
    // values) — is one bulk copy. Otherwise copy unescaped runs between
    // escapes in bulk, mirroring the reader's run-consuming scan.
    let bytes = s.as_bytes();
    let mut run_start = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        if !needs_escape(byte) {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => write!(out, "\\u{c:04x}").expect("writing to a String cannot fail"),
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

// ----- tree ----------------------------------------------------------------

/// An open container of the tree being built.
#[derive(Debug)]
enum Open {
    Array(Vec<Value>),
    /// Members so far, and the key of the member whose value comes next.
    Object(Vec<(String, Value)>, Option<String>),
}

/// The tree builder: a [`JsonWrite`] whose document is a [`Value`].
#[derive(Debug, Default)]
pub(crate) struct ValueWriter {
    open: Vec<Open>,
    done: Option<Value>,
}

impl ValueWriter {
    pub(crate) fn finish(self) -> Value {
        self.done.unwrap_or(Value::Null)
    }

    fn push(&mut self, value: Value) {
        match self.open.last_mut() {
            None => self.done = Some(value),
            Some(Open::Array(items)) => items.push(value),
            Some(Open::Object(members, key)) => {
                members.push((key.take().expect("every member value follows its key"), value))
            }
        }
    }
}

impl JsonWrite for ValueWriter {
    fn null(&mut self) {
        self.push(Value::Null);
    }

    fn bool(&mut self, value: bool) {
        self.push(Value::Bool(value));
    }

    fn int(&mut self, value: i64) {
        self.push(Value::Int(value));
    }

    fn float(&mut self, value: f64) {
        self.push(Value::Float(value));
    }

    fn str(&mut self, value: &str) {
        self.push(Value::Str(value.to_string()));
    }

    fn begin_array(&mut self) {
        self.open.push(Open::Array(Vec::new()));
    }

    fn end_array(&mut self) {
        let Some(Open::Array(items)) = self.open.pop() else {
            panic!("end_array without an open array")
        };
        self.push(Value::Array(items));
    }

    fn begin_object(&mut self) {
        self.open.push(Open::Object(Vec::new(), None));
    }

    fn key(&mut self, key: &str) {
        let Some(Open::Object(_, pending)) = self.open.last_mut() else {
            panic!("key outside an open object")
        };
        *pending = Some(key.to_string());
    }

    fn end_object(&mut self) {
        let Some(Open::Object(members, _)) = self.open.pop() else {
            panic!("end_object without an open object")
        };
        self.push(Value::Object(members));
    }
}
