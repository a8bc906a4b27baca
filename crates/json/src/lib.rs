//! Self-contained JSON support for the MopEye reproduction.
//!
//! The workspace runs in offline build environments, so instead of serde_json
//! it uses this small first-party crate everywhere JSON crosses a boundary:
//!
//! * fleet and server checkpoints (`mopeye_core::FleetCheckpoint`, the
//!   `mop_server` plane's `mop-server-checkpoint` document), on disk and
//!   inline in protocol frames,
//! * the `mop_server` wire protocol, one compact document per line, and
//! * the machine-readable outputs of the `repro` binary and the benchmark.
//!
//! Two ways to hold a document:
//!
//! * [`Value`], a tree with insertion-ordered object keys, for documents
//!   whose shape is decided at runtime (protocol frames, experiment
//!   outputs). Rendered files diff cleanly between runs.
//! * [`ToJson`] / [`FromJson`], for types with a fixed encoding: a type
//!   writes itself token by token into a [`JsonWrite`] sink and reads itself
//!   back from a pull [`JsonReader`], so a multi-megabyte checkpoint goes
//!   between bytes and structs without a tree in between.
//!
//! There is one codec: [`Value`] is itself a [`ToJson`] / [`FromJson`]
//! implementor, so [`to_string`], [`to_string_pretty`] and [`from_str`] are
//! the text writer and the reader applied to a tree, and [`to_value`] /
//! [`from_value`] carry any implementor to and from one.

#![forbid(unsafe_code)]

mod read;
mod write;

use std::fmt;
use std::net::IpAddr;

pub use read::JsonReader;
pub use write::{JsonWrite, JsonWriter};

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
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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
// The codec traits
// ---------------------------------------------------------------------------

/// A type with a JSON encoding it writes itself, token by token, into any
/// [`JsonWrite`] sink — the text writer for files and frames, a tree builder
/// for [`to_value`].
pub trait ToJson {
    /// Writes `self` as exactly one JSON value.
    fn write_json<W: JsonWrite>(&self, out: &mut W);

    /// A cheap estimate of the rendering's length in bytes, used to size the
    /// output buffer up front so a large document is not re-grown a copy at
    /// a time. Zero (the default) means "no idea".
    fn size_hint(&self) -> usize {
        0
    }
}

/// A type that reads itself back from a [`JsonReader`].
pub trait FromJson: Sized {
    /// Reads exactly one JSON value.
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError>;

    /// What an object member of this type decodes to when the object does
    /// not have it at all: `None` — the member is required — except for
    /// `Option`, where an absent member reads like `null`.
    fn missing() -> Option<Self> {
        None
    }
}

/// Decodes one JSON object into local variables, one per listed key, inside
/// a function returning `Result<_, ParseError>`. Members come in any order;
/// the first occurrence of a key wins; unlisted keys are skipped (their
/// syntax still checked); a listed key the object lacks is an error unless
/// its type is an `Option`. A variable's type is inferred from its use or
/// given after a colon.
///
/// ```
/// use mop_json::{FromJson, JsonReader, ParseError};
///
/// struct Port {
///     number: u16,
///     label: Option<String>,
/// }
///
/// impl FromJson for Port {
///     fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
///         mop_json::read_members!(input, { "number" => number, "label" => label });
///         Ok(Port { number, label })
///     }
/// }
///
/// let port: Port = mop_json::decode(r#"{"extra": [1], "number": 443}"#).unwrap();
/// assert_eq!((port.number, port.label), (443, None));
/// let err = mop_json::decode::<Port>(r#"{"number": "443"}"#).err().unwrap();
/// assert_eq!(err.path, "number");
/// assert_eq!(err.message, "expected a non-negative integer");
/// ```
#[macro_export]
macro_rules! read_members {
    ($input:expr, { $($key:literal => $var:ident $(: $ty:ty)?),+ $(,)? }) => {
        $(let mut $var $(: ::core::option::Option<$ty>)? = ::core::option::Option::None;)+
        $input.read_object(|input, key| match key {
            $($key => input.member($key, &mut $var),)+
            _ => input.skip_value(),
        })?;
        $(let $var $(: $ty)? = $input.take_member($key, $var)?;)+
    };
}

// ---------------------------------------------------------------------------
// Text in, text out
// ---------------------------------------------------------------------------

/// Compact one-line rendering (JSON-lines and protocol-frame friendly).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = JsonWriter::compact(value.size_hint());
    value.write_json(&mut out);
    out.finish()
}

/// Human-readable two-space-indented rendering.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = JsonWriter::pretty(value.size_hint());
    value.write_json(&mut out);
    out.finish()
}

/// The tree of `value`'s encoding — what [`from_str`] would read back from
/// its rendering, built without the text.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    let mut out = write::ValueWriter::default();
    value.write_json(&mut out);
    out.finish()
}

/// How deeply arrays and objects may nest in a document [`JsonReader`]
/// reads (a top-level `[]` is depth 1). A deeper document is refused with a
/// [`ParseError`] instead of recursing until the stack overflows; the
/// workspace's own documents stay far below it (checkpoints nest fewer than
/// 16 levels).
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    decode(input)
}

/// Decodes one `T` from a whole JSON text: the value must be all there is,
/// give or take whitespace.
pub fn decode<T: FromJson>(input: &str) -> Result<T, ParseError> {
    let mut reader = JsonReader::new(input);
    let value = T::read_json(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Decodes one `T` from a tree, by reading its compact rendering: error
/// offsets count bytes of that rendering.
pub fn from_value<T: FromJson>(value: &Value) -> Result<T, ParseError> {
    decode(&to_string(value))
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A parse or decode failure: message, byte offset, and — for a typed
/// decoder — the member path it was reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
    /// The member a typed decoder failed in, outermost first
    /// (`base.flows[3].package`); empty when the failure is outside any
    /// member, and always for [`from_str`].
    pub path: String,
}

impl ParseError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        Self { message: message.into(), offset, path: String::new() }
    }

    /// The same error, one object member further out.
    pub fn within(mut self, key: &str) -> Self {
        self.path = match self.path.as_bytes().first() {
            None => key.to_string(),
            Some(b'[') => format!("{key}{}", self.path),
            Some(_) => format!("{key}.{}", self.path),
        };
        self
    }

    /// The same error, one array element further out.
    pub fn within_index(mut self, index: usize) -> Self {
        self.path = match self.path.as_bytes().first() {
            None => format!("[{index}]"),
            Some(b'[') => format!("[{index}]{}", self.path),
            Some(_) => format!("[{index}].{}", self.path),
        };
        self
    }

    /// `path: message`, or the bare message outside any member — where in
    /// the document's structure the failure is, independent of layout.
    pub fn context(&self) -> String {
        if self.path.is_empty() {
            self.message.clone()
        } else {
            format!("{}: {}", self.path, self.message)
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.context())
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------------
// Implementors: the tree and the primitives
// ---------------------------------------------------------------------------

impl ToJson for Value {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.int(*i),
            Value::Float(f) => out.float(*f),
            Value::Str(s) => out.str(s),
            Value::Array(items) => out.array(items),
            Value::Object(members) => {
                out.begin_object();
                for (key, item) in members {
                    out.field(key, item);
                }
                out.end_object();
            }
        }
    }

    /// A lower bound on the compact rendering's length — numbers count
    /// their minimum width and strings their unescaped length, so the real
    /// rendering is rarely much longer.
    fn size_hint(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) | Value::Int(_) => 4,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() + 2,
            Value::Array(items) => {
                2 + items.len() + items.iter().map(Value::size_hint).sum::<usize>()
            }
            Value::Object(members) => {
                let member = |(key, item): &(String, Value)| key.len() + 3 + item.size_hint();
                2 + members.len() + members.iter().map(member).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        (**self).write_json(out);
    }

    fn size_hint(&self) -> usize {
        (**self).size_hint()
    }
}

impl ToJson for str {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.str(self);
    }
}

impl ToJson for String {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.str(self);
    }
}

impl FromJson for String {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        Ok(input.read_str()?.into_owned())
    }
}

impl ToJson for bool {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.bool(*self);
    }
}

impl FromJson for bool {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        input.read_bool()
    }
}

impl ToJson for f64 {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.float(*self);
    }
}

/// Any number, like [`Value::as_f64`].
impl FromJson for f64 {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        input.read_f64()
    }
}

impl ToJson for i64 {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.int(*self);
    }
}

/// An integer, like [`Value::as_i64`].
impl FromJson for i64 {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        input.read_i64()
    }
}

/// An integer up to `i64::MAX`, a float beyond — the [`Value::from`]
/// convention (JSON integers here are `i64`).
impl ToJson for u64 {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        match i64::try_from(*self) {
            Ok(i) => out.int(i),
            Err(_) => out.float(*self as f64),
        }
    }
}

/// A non-negative integer, like [`Value::as_u64`].
impl FromJson for u64 {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        input.read_u64()
    }
}

macro_rules! narrow_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json<W: JsonWrite>(&self, out: &mut W) {
                (*self as u64).write_json(out);
            }
        }

        /// A non-negative integer that fits the type.
        impl FromJson for $t {
            fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
                let start = input.offset();
                let value = input.read_u64()?;
                <$t>::try_from(value).map_err(|_| {
                    ParseError::at(start, format!("{value} is out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
narrow_unsigned!(u16, u32, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        match self {
            Some(value) => value.write_json(out),
            None => out.null(),
        }
    }
}

/// `null` reads as `None`, anything else as a `T`; an absent object member
/// reads as `None` too.
impl<T: FromJson> FromJson for Option<T> {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        if input.read_null()? {
            Ok(None)
        } else {
            T::read_json(input).map(Some)
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.array(self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        out.array(self);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        let mut items = Vec::new();
        input.read_array(|input| {
            let item = T::read_json(input).map_err(|e| e.within_index(items.len()))?;
            items.push(item);
            Ok(())
        })?;
        Ok(items)
    }
}

/// An address as its text form (`10.0.0.2`, `2001:db8::1`).
impl ToJson for IpAddr {
    fn write_json<W: JsonWrite>(&self, out: &mut W) {
        // The longest form, an IPv4-mapped IPv6 address, is 45 bytes.
        let mut text = [0u8; 64];
        let len = match self {
            // Dotted quads, the common case, without going through `fmt`.
            IpAddr::V4(v4) => {
                let mut len = 0;
                for (i, octet) in v4.octets().into_iter().enumerate() {
                    if i > 0 {
                        text[len] = b'.';
                        len += 1;
                    }
                    for (place, min) in [(100, 100), (10, 10), (1, 0)] {
                        if octet >= min {
                            text[len] = b'0' + octet / place % 10;
                            len += 1;
                        }
                    }
                }
                len
            }
            IpAddr::V6(v6) => {
                use std::io::Write as _;
                let mut cursor = std::io::Cursor::new(&mut text[..]);
                write!(cursor, "{v6}").expect("an address prints in 64 bytes");
                cursor.position() as usize
            }
        };
        out.str(std::str::from_utf8(&text[..len]).expect("addresses print as ASCII"));
    }
}

impl FromJson for IpAddr {
    fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
        let start = input.offset();
        let text = input.read_str()?;
        text.parse().map_err(|_| ParseError::at(start, format!("{text:?} is not an IP address")))
    }
}

/// An unsigned integer carried as a fixed-width lower-case hex string — for
/// values a JSON integer (`i64`) cannot hold exactly: seeds, 128-bit sums,
/// `f64` bit patterns. Reads back any hex spelling `from_str_radix` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex<T>(pub T);

macro_rules! hex {
    ($($t:ty),*) => {$(
        impl ToJson for Hex<$t> {
            fn write_json<W: JsonWrite>(&self, out: &mut W) {
                const DIGITS: &[u8; 16] = b"0123456789abcdef";
                let mut text = [0u8; 2 * std::mem::size_of::<$t>()];
                let mut rest = self.0;
                for digit in text.iter_mut().rev() {
                    *digit = DIGITS[(rest & 0xf) as usize];
                    rest >>= 4;
                }
                out.str(std::str::from_utf8(&text).expect("hex digits are ASCII"));
            }
        }

        impl FromJson for Hex<$t> {
            fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
                let start = input.offset();
                let text = input.read_str()?;
                <$t>::from_str_radix(&text, 16).map(Hex).map_err(|_| {
                    ParseError::at(start, format!("{text:?} is not a hex {}", stringify!($t)))
                })
            }
        }
    )*};
}
hex!(u64, u128);

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
        // The integer fast path ends exactly at the i64 range.
        assert_eq!(from_str("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(from_str("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(from_str("9223372036854775808").unwrap(), Value::Float(9.223372036854776e18));
        assert_eq!(from_str("-0").unwrap(), Value::Int(0));
        assert_eq!(to_string(&Value::Int(i64::MIN)), "-9223372036854775808");
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

    #[test]
    fn nesting_past_max_depth_is_refused_not_overflowed() {
        // A megabyte of `[` used to recurse until the stack overflowed.
        let err = from_str(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nested deeper than 128"), "{err}");
        // Exactly MAX_DEPTH levels still parse, objects and arrays alike.
        let deepest = format!("{}{}", "[{\"a\":".repeat(MAX_DEPTH / 2), "}]".repeat(MAX_DEPTH / 2));
        let deepest = deepest.replacen("{\"a\":}", "{\"a\":null}", 1);
        assert!(from_str(&deepest).is_ok(), "{:?}", from_str(&deepest));
        let deeper = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str(&deeper).is_err());
        // Typed decoders and `skip_value` share the limit, and a typed
        // refusal names the member it happened in.
        #[derive(Debug)]
        struct Wrapper;
        impl FromJson for Wrapper {
            fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
                read_members!(input, { "inner" => inner });
                let _: Value = inner;
                Ok(Wrapper)
            }
        }
        let nested = format!("{{\"inner\":{}}}", "[".repeat(MAX_DEPTH));
        let err = decode::<Wrapper>(&nested).unwrap_err();
        assert_eq!(err.path, "inner");
        assert!(err.message.contains("nested deeper"), "{err}");
        let skipped = format!("{{\"other\":{}}}", "[".repeat(MAX_DEPTH));
        assert!(decode::<Wrapper>(&skipped).unwrap_err().message.contains("nested deeper"));
    }

    #[test]
    fn typed_decoding_matches_tree_lookups() {
        // First occurrence wins, unknown members are skipped, an absent
        // `Option` member is `None` — what `value["key"]` lookups give.
        #[derive(Debug, PartialEq)]
        struct Pair {
            a: u64,
            b: Option<String>,
        }
        impl FromJson for Pair {
            fn read_json(input: &mut JsonReader<'_>) -> Result<Self, ParseError> {
                read_members!(input, { "a" => a, "b" => b });
                Ok(Pair { a, b })
            }
        }
        let pair: Pair = decode(r#"{"a": 1, "x": {"y": [null]}, "a": "second"}"#).unwrap();
        assert_eq!(pair, Pair { a: 1, b: None });
        // ...but a duplicate must still be valid JSON.
        assert!(decode::<Pair>(r#"{"a": 1, "a": [}"#).is_err());

        let err = decode::<Vec<Pair>>(r#"[{"a": 1}, {"a": 2, "b": 3}]"#).unwrap_err();
        assert_eq!(err.context(), "[1].b: expected a string");
        let err = decode::<Vec<Pair>>(r#"[{"b": null}]"#).unwrap_err();
        assert_eq!(err.context(), "[0]: missing \"a\"");
        assert_eq!(decode::<u16>("70000").unwrap_err().message, "70000 is out of range for u16");
        assert!(decode::<u64>("1.0").is_err() && decode::<u64>("-1").is_err());
        assert_eq!(decode::<f64>("3").unwrap(), 3.0);
    }

    #[test]
    fn hex_and_addresses_round_trip() {
        assert_eq!(to_string(&Hex(0x7e1u64)), "\"00000000000007e1\"");
        assert_eq!(to_string(&Hex(u128::MAX)), format!("\"{}\"", "f".repeat(32)));
        assert_eq!(decode::<Hex<u64>>("\"7E1\"").unwrap(), Hex(0x7e1));
        assert!(decode::<Hex<u64>>("\"0x7e1\"").is_err());
        for addr in ["10.0.0.2", "2001:db8::1", "::ffff:255.255.255.255"] {
            let ip: IpAddr = addr.parse().unwrap();
            assert_eq!(to_string(&ip), format!("\"{addr}\""));
            assert_eq!(decode::<IpAddr>(&to_string(&ip)).unwrap(), ip);
        }
    }

    #[test]
    fn the_tree_builder_and_the_text_writer_agree() {
        let doc = json!({
            "a": json!([1, json!({}), json!([]), "x"]),
            "b": json!({ "c": Option::<u8>::None, "d": -2.5 }),
        });
        assert_eq!(to_value(&doc), doc);
        assert_eq!(to_string(&to_value(&doc)), to_string(&doc));
        assert_eq!(from_value::<Value>(&doc).unwrap(), doc);
    }
}
