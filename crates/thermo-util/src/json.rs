//! Minimal JSON: a value model, writer, parser, and [`ToJson`]/[`FromJson`]
//! conversion traits with `impl` macros — the serde/serde_json replacement
//! for configs, traces and experiment reports.
//!
//! Design constraints, in order: deterministic output (object keys keep
//! declaration order, so equal data ⇒ byte-identical text), lossless
//! round-trips for the workspace's types (`u64`/`i64` carried exactly,
//! `f64` via Rust's shortest-round-trip formatting), and zero
//! dependencies. Struct/enum support is explicit rather than derived:
//!
//! ```
//! use thermo_util::json::{FromJson, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Knobs { period_ns: u64, fraction: f64 }
//! thermo_util::json_struct!(Knobs { period_ns, fraction });
//!
//! let k = Knobs { period_ns: 30_000, fraction: 0.05 };
//! let text = thermo_util::json::to_string(&k.to_json());
//! let back = Knobs::from_json(&thermo_util::json::parse(&text).unwrap()).unwrap();
//! assert_eq!(k, back);
//! ```

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits in `i64` (negative literals parse here).
    I64(i64),
    /// A non-negative integer (the common case for the repo's counters).
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved (deterministic output).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` on other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `u64` when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(u) => Some(u),
            Value::I64(i) if i >= 0 => Some(i as u64),
            Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// Numeric value as `i64` when losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(i) => Some(i),
            Value::U64(u) if u <= i64::MAX as u64 => Some(u as i64),
            Value::F64(f)
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// Numeric value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(f) => Some(f),
            Value::U64(u) => Some(u as f64),
            Value::I64(i) => Some(i as f64),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Builds an object from the entries of an *ordered* map iteration
    /// (`BTreeMap::iter`, pre-sorted pairs).
    ///
    /// Output order is insertion order, so a map-derived object is
    /// deterministic exactly when its entries arrive sorted. This
    /// constructor debug-asserts strictly ascending keys, so an accidental
    /// `HashMap` (random per-process iteration order) fails loudly at the
    /// construction site in every debug/test build instead of flaking a
    /// golden check later.
    pub fn from_map_entries<K, I>(entries: I) -> Value
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, Value)>,
    {
        let fields: Vec<(String, Value)> =
            entries.into_iter().map(|(k, v)| (k.into(), v)).collect();
        debug_assert!(
            fields.windows(2).all(|w| w[0].0 < w[1].0),
            "Value::from_map_entries: keys must be strictly ascending — \
             iterate a BTreeMap (or sort first), not a HashMap"
        );
        Value::Obj(fields)
    }
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Conversion into a [`Value`] (the serialization half).
pub trait ToJson {
    /// Builds the JSON value for `self`.
    fn to_json(&self) -> Value;
}

/// Conversion from a [`Value`] (the deserialization half).
pub trait FromJson: Sized {
    /// Reconstructs `Self`, failing on shape or range mismatches.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let u = v.as_u64().ok_or_else(|| JsonError::new(format!(
                    "expected unsigned integer, got {v:?}"
                )))?;
                <$t>::try_from(u).map_err(|_| JsonError::new(format!(
                    "{u} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let i = v.as_i64().ok_or_else(|| JsonError::new(format!(
                    "expected integer, got {v:?}"
                )))?;
                <$t>::try_from(i).map_err(|_| JsonError::new(format!(
                    "{i} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, got {v:?}")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, got {v:?}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new(format!("expected string, got {v:?}")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new(format!(
                "expected 2-element array, got {v:?}"
            ))),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields.
///
/// Field types are inferred, so the macro only needs the names:
/// `json_struct!(TlbGeometry { entries, ways });`
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $($field: $crate::json::FromJson::from_json(v.get(stringify!($field)).ok_or_else(
                        || $crate::json::JsonError::new(format!(
                            "{}: missing field `{}`", stringify!($ty), stringify!($field)
                        ))
                    )?)?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a single-field tuple struct,
/// serialized transparently as the inner value:
/// `json_newtype!(Vpn);`
#[macro_export]
macro_rules! json_newtype {
    ($ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                Ok($ty($crate::json::FromJson::from_json(v)?))
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum of unit variants,
/// serialized as the variant name string:
/// `json_enum!(PagingMode { Native, Nested });`
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                match self {
                    $($ty::$variant => $crate::json::Value::Str(stringify!($variant).to_string()),)+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err($crate::json::JsonError::new(format!(
                        "{}: unknown variant {v:?}", stringify!($ty)
                    ))),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // Rust's shortest round-trip formatting; integral floats keep a
        // trailing ".0" so they re-parse as F64 and compare equal.
        let s = format!("{f}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/inf; mirror serde_json's lossy `null`.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Obj(fields) => {
            // Duplicate keys serialize to legal-looking JSON that parsers
            // disagree on (first wins vs last wins) — always a construction
            // bug here, so catch it at the emit site in debug/test builds.
            debug_assert!(
                fields
                    .iter()
                    .enumerate()
                    .all(|(i, (k, _))| !fields[..i].iter().any(|(p, _)| p == k)),
                "emitting JSON object with duplicate keys"
            );
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * level));
    }
}

/// Compact serialization.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Human-readable serialization (2-space indent, serde_json-style).
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self, depth: u32) -> Result<Value, JsonError> {
        if depth > 128 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // piece. Both are ASCII, so the run ends on a character
                    // boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected).
pub fn parse(s: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Serializes any [`ToJson`] type compactly.
pub fn encode<T: ToJson + ?Sized>(value: &T) -> String {
    to_string(&value.to_json())
}

/// Serializes any [`ToJson`] type with indentation.
pub fn encode_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    to_string_pretty(&value.to_json())
}

/// Parses text and converts it into `T`.
pub fn decode<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse(s)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in [
            "null", "true", "false", "0", "42", "-7", "3.25", "1e3", "\"hi\"",
        ] {
            let v = parse(text).unwrap();
            let back = parse(&to_string(&v)).unwrap();
            assert_eq!(v, back, "roundtrip of {text}");
        }
    }

    #[test]
    fn number_variants() {
        assert_eq!(parse("42").unwrap(), Value::U64(42));
        assert_eq!(parse("-42").unwrap(), Value::I64(-42));
        assert_eq!(parse("42.5").unwrap(), Value::F64(42.5));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(parse("1e3").unwrap(), Value::F64(1000.0));
    }

    #[test]
    fn u64_precision_is_exact() {
        let v = Value::U64(u64::MAX);
        assert_eq!(parse(&to_string(&v)).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn float_shortest_roundtrip() {
        for f in [0.1, 1.0 / 3.0, 123456.789, f64::MIN_POSITIVE, 1e300, -0.0] {
            let text = to_string(&Value::F64(f));
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "float {f} via {text}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = to_string(&Value::F64(3.0));
        assert_eq!(text, "3.0");
        assert_eq!(parse(&text).unwrap(), Value::F64(3.0));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&Value::F64(f64::NAN)), "null");
        assert_eq!(to_string(&Value::F64(f64::INFINITY)), "null");
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\r\u{1}é☃";
        let text = to_string(&Value::Str(s.to_string()));
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn multibyte_runs_next_to_escapes_and_quotes_roundtrip() {
        // Multi-byte characters (2, 3 and 4 bytes) directly before and
        // after each escape, at both ends of the string, and in keys.
        let key = "é\\\"ключ\"☃";
        let val = "\"😀\\n\né\t日本\u{1}ü\"";
        let v = Value::Obj(vec![
            (key.to_string(), Value::Str(val.to_string())),
            ("ascii".into(), Value::Str("plain".into())),
        ]);
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(to_string(&parse(&text).unwrap()), text);
        let hand = r#"{"é\\\"ключ\"☃":"\"😀\\n\né\t日本\u0001ü\""}"#;
        let parsed = parse(hand).unwrap();
        assert_eq!(parsed.get(key).and_then(Value::as_str), Some(val));
        let err = parse("\"日本").unwrap_err().to_string();
        assert!(err.contains("unterminated string"), "{err}");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::Obj(vec![
            ("zebra".into(), Value::U64(1)),
            ("apple".into(), Value::U64(2)),
        ]);
        assert_eq!(to_string(&v), r#"{"zebra":1,"apple":2}"#);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn pretty_output_shape() {
        let v = Value::Obj(vec![(
            "a".into(),
            Value::Arr(vec![Value::U64(1), Value::U64(2)]),
        )]);
        let pretty = to_string_pretty(&v);
        assert_eq!(pretty, "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn from_map_entries_accepts_ordered_iteration() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("zebra".to_string(), Value::U64(1));
        m.insert("apple".to_string(), Value::U64(2));
        let v = Value::from_map_entries(m);
        assert_eq!(to_string(&v), r#"{"apple":2,"zebra":1}"#);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert only")]
    fn from_map_entries_rejects_unsorted_keys() {
        let _ = Value::from_map_entries([("b", Value::Null), ("a", Value::Null)]);
    }

    #[test]
    #[should_panic(expected = "duplicate keys")]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert only")]
    fn emitting_duplicate_keys_panics() {
        let v = Value::Obj(vec![
            ("a".into(), Value::U64(1)),
            ("a".into(), Value::U64(2)),
        ]);
        let _ = to_string(&v);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn option_vec_tuple_impls() {
        let x: Option<u64> = None;
        assert_eq!(x.to_json(), Value::Null);
        let y: Option<u64> = Some(5);
        assert_eq!(Option::<u64>::from_json(&y.to_json()).unwrap(), Some(5));
        let v = vec![(String::from("a"), vec![1.5f64, 2.5])];
        let enc = encode(&v);
        let back: Vec<(String, Vec<f64>)> = decode(&enc).unwrap();
        assert_eq!(v, back);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Inner(u16);
    json_newtype!(Inner);

    #[derive(Debug, Clone, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }
    json_enum!(Mode { Fast, Slow });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        id: Inner,
        mode: Mode,
        name: String,
        weights: Vec<f64>,
        limit: Option<u64>,
    }
    json_struct!(Outer {
        id,
        mode,
        name,
        weights,
        limit
    });

    #[test]
    fn macro_struct_roundtrip() {
        let o = Outer {
            id: Inner(7),
            mode: Mode::Slow,
            name: "x\"y".to_string(),
            weights: vec![0.5, 2.0],
            limit: None,
        };
        let text = encode_pretty(&o);
        assert_eq!(decode::<Outer>(&text).unwrap(), o);
        // Missing field errors mention the field.
        let err = decode::<Outer>(r#"{"id":7}"#).unwrap_err();
        assert!(err.to_string().contains("mode"), "{err}");
        // Unknown enum variant errors.
        assert!(decode::<Mode>("\"Warp\"").is_err());
    }

    #[test]
    fn deterministic_encoding() {
        let o = Outer {
            id: Inner(1),
            mode: Mode::Fast,
            name: "n".into(),
            weights: vec![1.0],
            limit: Some(3),
        };
        assert_eq!(encode(&o), encode(&o.clone()));
    }
}
