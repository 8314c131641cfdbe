//! Vendored minimal serde shim.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors the tiny subset of serde it actually uses: a
//! [`Serialize`]/[`Deserialize`] trait pair over an in-memory JSON-like
//! [`Value`] tree, plus derive macros (re-exported from `serde_derive`) for
//! named-field structs, newtype structs, and unit/newtype enums.
//!
//! `serde_json` (also vendored) renders [`Value`] to JSON text compatible
//! with the real `serde_json` output format (2-space pretty printing,
//! `null` for non-finite floats, externally tagged enums), so existing
//! `results/*.json` artefacts remain byte-stable.

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

pub use serde_derive::{Deserialize, Serialize};

/// An in-memory JSON-like value tree.
///
/// Maps preserve insertion order (struct declaration order) so that
/// serialized output is deterministic and matches the real serde_json's
/// struct field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer (used for negative values).
    Int(i64),
    /// Floating-point number (always rendered with a fractional part).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object with ordered keys.
    Map(Vec<(String, Value)>),
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// A type that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Builds `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Derive-macro helper: looks up a struct field in a [`Value::Map`].
pub fn __field<T: Deserialize>(v: &Value, ty: &str, name: &str) -> Result<T, Error> {
    match v {
        Value::Map(entries) => match entries.iter().find(|(k, _)| k == name) {
            Some((_, val)) => T::from_value(val),
            None => Err(Error::custom(format!("missing field `{name}` in {ty}"))),
        },
        _ => Err(Error::custom(format!("expected a map for {ty}"))),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    _ => return Err(Error::custom("expected an unsigned integer")),
                };
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::UInt(n as u64)
                } else {
                    Value::Int(n)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => {
                        i64::try_from(*n).map_err(|_| Error::custom("integer out of range"))?
                    }
                    Value::Float(f) if f.fract() == 0.0 => *f as i64,
                    _ => return Err(Error::custom("expected an integer")),
                };
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            _ => Err(Error::custom("expected a number")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected a boolean")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected a string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected an array")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("expected an array of length {N}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            _ => Err(Error::custom("expected a 2-element array")),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            _ => Err(Error::custom("expected a 3-element array")),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
                .collect(),
            _ => Err(Error::custom("expected a map")),
        }
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "generic shim API; to_value sorts keys, so output is order-stable"
)]
impl<V, S> Serialize for std::collections::HashMap<String, V, S>
where
    V: Serialize,
    S: std::hash::BuildHasher,
{
    fn to_value(&self) -> Value {
        // Sort keys for deterministic output (the real serde_json preserves
        // hash order; determinism matters more here).
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "generic shim API; deserialization never iterates the map"
)]
impl<V, S> Deserialize for std::collections::HashMap<String, V, S>
where
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
                .collect(),
            _ => Err(Error::custom("expected a map")),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_value()).unwrap(),
            "hi".to_string()
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1usize, 2.0f64), (3, 4.0)];
        let back: Vec<(usize, f64)> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
        let opt: Option<f64> = None;
        assert_eq!(opt.to_value(), Value::Null);
        let arr = [1u64, 2, 3, 4];
        let back: [u64; 4] = Deserialize::from_value(&arr.to_value()).unwrap();
        assert_eq!(back, arr);
    }

    #[test]
    fn missing_field_reports_name() {
        let v = Value::Map(vec![]);
        let err = __field::<f64>(&v, "Demo", "x").unwrap_err();
        assert!(err.to_string().contains("`x`"));
    }
}
