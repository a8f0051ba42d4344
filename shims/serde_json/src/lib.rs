//! Offline stand-in for `serde_json`.
//!
//! A self-contained JSON document model covering what the workspace
//! uses: [`Value`], [`Map`], the [`json!`] macro, [`to_string`] /
//! [`to_string_pretty`] and [`from_str`]. Objects are backed by a
//! `BTreeMap`, so key order is sorted and output is deterministic
//! (matching upstream serde_json without its `preserve_order` feature).

use std::collections::BTreeMap;
use std::fmt;

/// JSON object representation (sorted keys, like upstream's default).
pub type Map<K = String, V = Value> = BTreeMap<K, V>;

/// A JSON number: integer representations are kept exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A finite float.
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::PosInt(u) => write!(f, "{u}"),
            Number::NegInt(i) => write!(f, "{i}"),
            // Keep a decimal point on integral floats (serde_json style),
            // so the integer/float distinction survives a round trip.
            Number::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

impl Number {
    /// The number as f64.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(u) => u as f64,
            Number::NegInt(i) => i as f64,
            Number::Float(x) => x,
        }
    }
}

/// A JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Numeric value as f64, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Integer value, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::PosInt(u)) => i64::try_from(*u).ok(),
            Value::Number(Number::NegInt(i)) => Some(*i),
            _ => None,
        }
    }

    /// Unsigned value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::PosInt(u)) => Some(*u),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object contents, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup that returns `Null` for misses (like indexing).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
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

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::PosInt(v as u64)) }
        }
    )*};
}
macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                if v >= 0 {
                    Value::Number(Number::PosInt(v as u64))
                } else {
                    Value::Number(Number::NegInt(v as i64))
                }
            }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);
from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Number(Number::Float(v))
        } else {
            Value::Null // upstream json! maps non-finite floats to null
        }
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
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

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Value {
        Value::Object(m)
    }
}

macro_rules! eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
eq_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// Reference-friendly conversion used by the [`json!`] fallback arm, so
/// `json!({"xs": config.xs})` borrows instead of moving (matching
/// upstream, which serializes `&$value`).
pub trait ToJson {
    /// Convert a borrowed value into a [`Value`].
    fn to_json(&self) -> Value;
}

macro_rules! to_json_via_from {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value { Value::from(*self) }
        }
    )*};
}
to_json_via_from!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for Map<String, Value> {
    fn to_json(&self) -> Value {
        Value::Object(self.clone())
    }
}

/// Build a [`Value`] from JSON-looking syntax: object/array literals
/// nest, keys are string literals, and other values are arbitrary
/// expressions converted by reference through [`ToJson`].
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

/// The `json!` token muncher. An implementation detail; use [`json!`].
///
/// Standard serde_json-style design: `@array` accumulates element
/// values, `@object` accumulates a key then dispatches on the value's
/// leading token so nested `{...}`/`[...]` literals recurse instead of
/// being parsed as Rust block expressions.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    //////////// array elements ////////////
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Null] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    //////////// object entries ////////////
    // Done munching.
    (@object $map:ident () () ()) => {};
    // Insert entry (trailing comma present).
    (@object $map:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $map.insert(($($key)+).to_string(), $value);
        $crate::json_internal!(@object $map () ($($rest)*) ($($rest)*));
    };
    // Insert the final entry (no trailing comma).
    (@object $map:ident [$($key:tt)+] ($value:expr)) => {
        $map.insert(($($key)+).to_string(), $value);
    };
    // Value is `null`.
    (@object $map:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $map [$($key)+] ($crate::Value::Null) $($rest)*);
    };
    // Value is an array literal.
    (@object $map:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $map [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    // Value is an object literal.
    (@object $map:ident ($($key:tt)+) (: {$($inner:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $map [$($key)+] ($crate::json_internal!({$($inner)*})) $($rest)*);
    };
    // Value is an expression followed by more entries.
    (@object $map:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $map [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    // Value is the last expression.
    (@object $map:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $map [$($key)+] ($crate::json_internal!($value)));
    };
    // Accumulate the (string-literal) key.
    (@object $map:ident () (($key:tt) : $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $map ($key) (: $($rest)*) (: $($rest)*));
    };
    (@object $map:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $map ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    //////////// entry points ////////////
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut map = $crate::Map::new();
        $crate::json_internal!(@object map () ($($tt)+) ($($tt)+));
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::ToJson::to_json(&$other) };
}

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (level + 1)));
                }
                write_value(out, item, indent, level + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (level + 1)));
                }
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
            out.push('}');
        }
    }
}

/// Compact serialization.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    Ok(out)
}

/// Two-space-indented serialization (upstream's pretty style).
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    Ok(out)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Error> {
        Err(Error {
            msg: format!("{} at byte {}", msg.into(), self.pos),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos -= usize::from(self.pos > 0);
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return self.err("truncated \\u escape");
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| Error {
                                msg: "bad \\u escape".into(),
                            })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| Error {
                            msg: "bad \\u escape".into(),
                        })?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return self.err("bad escape"),
                },
                Some(b) => {
                    // Re-assemble UTF-8 from raw bytes.
                    let start = self.pos - 1;
                    let width = match b {
                        b if b < 0x80 => 1,
                        b if b >> 5 == 0b110 => 2,
                        b if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    self.pos = start + width;
                    if self.pos > self.bytes.len() {
                        return self.err("truncated UTF-8");
                    }
                    let s =
                        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| Error {
                            msg: "invalid UTF-8".into(),
                        })?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Value::Number(Number::Float(x))),
            Err(_) => self.err(format!("bad number '{text}'")),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a JSON document.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let v = json!({
            "name": "astra",
            "n": 202,
            "ratio": 0.5,
            "neg": -3,
            "ok": true,
            "none": null,
            "xs": [1, 2, 3],
            "nested": json!({"a": "b\nc"}),
        });
        for rendered in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&rendered).unwrap(), v);
        }
    }

    #[test]
    fn indexing_and_comparisons() {
        let v = json!({"answer": 42, "name": "x"});
        assert_eq!(v["answer"], 42);
        assert_eq!(v["name"], "x");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn vectors_convert() {
        let rows = vec![json!(1), json!(2)];
        let v = json!(rows);
        assert_eq!(v, json!([1, 2]));
        let sizes: Vec<usize> = vec![4, 5];
        assert_eq!(json!(sizes), json!([4, 5]));
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = json!({"a": [1]});
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1\n  ]\n}"
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err());
    }
}
