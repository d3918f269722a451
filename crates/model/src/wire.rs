//! The declarative wire table's machinery: one [`Field`] trait and the
//! two macros that turn a field list into a codec.
//!
//! Every wire object of the query API — each [`crate::Query`] variant
//! and each flat report struct — declares its fields exactly once, in
//! wire order, with their types and any defaults. [`wire_struct!`]
//! expands a struct declaration into the struct plus a flattened
//! [`Field`] impl; [`query_table!`] expands the variant table into the
//! `Query` enum, `Query::from_json`, `Query::to_json` and the planner's
//! bit-exact `Query::dedup_key`. Per-type behaviour (number checks,
//! integer ranges, strings, flattening) lives in the [`Field`] impls
//! below, written once per type instead of once per variant.

use crate::error::Error;
use crate::json::Json;

/// The pairs of a JSON object under construction.
pub(crate) type Pairs = Vec<(String, Json)>;

/// Largest integer a `u64` field accepts: 2⁵³. Up to there an `f64`
/// JSON number holds every integer exactly, so an accepted value always
/// serializes back to the same bytes.
const MAX_EXACT_INTEGER: u64 = 1 << 53;

/// One typed member of a wire object.
pub(crate) trait Field: Sized {
    /// Object pairs this value writes: one for a scalar, one per field
    /// for a flattened struct. Pre-sizes every generated object.
    const WIDTH: usize = 1;

    /// Reads the member `name` of the object `obj`: `None` when absent.
    /// A flattened struct reads its own fields from `obj` instead.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidField`] when the member has the wrong type or
    /// range, [`Error::MissingField`] when a flattened struct lacks a
    /// required field.
    fn read(obj: &Json, name: &'static str) -> Result<Option<Self>, Error>;

    /// Appends this value's pairs, named `name` for a scalar.
    fn write(&self, name: &'static str, pairs: &mut Pairs);

    /// Appends this value's exact identity to a dedup key.
    fn key(&self, key: &mut Key);
}

/// A bit-exact query identity: the variant's wire tag, every string
/// field (length-prefixed in `bits`) and every numeric field as raw
/// bits. Strictly finer than (or equal to) wire-format identity — two
/// queries sharing a key serialize to the same bytes — but building it
/// costs integer moves instead of float formatting, which matters
/// because every batch pays for it whether or not anything fuses.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    tag: &'static str,
    text: String,
    bits: Vec<u64>,
}

impl Key {
    /// An empty key for the variant tagged `tag`, sized for `width`
    /// members.
    pub(crate) fn new(tag: &'static str, width: usize) -> Self {
        Self {
            tag,
            text: String::new(),
            bits: Vec::with_capacity(width),
        }
    }

    /// This key extended by `value`'s identity.
    pub(crate) fn with<T: Field>(mut self, value: &T) -> Self {
        value.key(&mut self);
        self
    }
}

fn invalid(field: &'static str, message: impl Into<String>) -> Error {
    Error::InvalidField {
        field,
        message: message.into(),
    }
}

fn number(v: &Json, field: &'static str) -> Result<f64, Error> {
    v.as_f64()
        .ok_or_else(|| invalid(field, "expected a number"))
}

/// The one integer check every integer field shares: a whole,
/// non-negative number no larger than `max`.
fn integer(v: &Json, field: &'static str, max: u64) -> Result<u64, Error> {
    let raw = number(v, field)?;
    if raw.fract() != 0.0 || raw < 0.0 {
        return Err(invalid(
            field,
            format!("expected a non-negative integer, got {raw}"),
        ));
    }
    if raw > max as f64 {
        return Err(invalid(
            field,
            format!("expected an integer in 0..={max}, got {raw}"),
        ));
    }
    Ok(raw as u64)
}

impl Field for f64 {
    fn read(obj: &Json, name: &'static str) -> Result<Option<Self>, Error> {
        obj.get(name).map(|v| number(v, name)).transpose()
    }

    fn write(&self, name: &'static str, pairs: &mut Pairs) {
        pairs.push((name.to_string(), Json::Num(*self)));
    }

    fn key(&self, key: &mut Key) {
        key.bits.push(self.to_bits());
    }
}

impl Field for String {
    fn read(obj: &Json, name: &'static str) -> Result<Option<Self>, Error> {
        obj.get(name)
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| invalid(name, "expected a string"))
            })
            .transpose()
    }

    fn write(&self, name: &'static str, pairs: &mut Pairs) {
        pairs.push((name.to_string(), Json::Str(self.clone())));
    }

    fn key(&self, key: &mut Key) {
        key.bits.push(self.len() as u64);
        key.text.push_str(self);
    }
}

/// Integer fields, each with the largest value its wire form accepts.
/// `usize` counts stop at `u32::MAX` so every platform accepts the same
/// requests; `u64` fields stop at [`MAX_EXACT_INTEGER`].
macro_rules! integer_fields {
    ($($ty:ty => $max:expr),* $(,)?) => {$(
        impl Field for $ty {
            fn read(obj: &Json, name: &'static str) -> Result<Option<Self>, Error> {
                obj.get(name)
                    .map(|v| integer(v, name, $max).map(|n| n as $ty))
                    .transpose()
            }

            fn write(&self, name: &'static str, pairs: &mut Pairs) {
                pairs.push((name.to_string(), Json::Num(*self as f64)));
            }

            fn key(&self, key: &mut Key) {
                key.bits.push(*self as u64);
            }
        }
    )*};
}

integer_fields! {
    u8 => u64::from(u8::MAX),
    u32 => u64::from(u32::MAX),
    usize => u64::from(u32::MAX),
    u64 => MAX_EXACT_INTEGER,
}

/// The `type` tag of a query object.
pub(crate) fn type_tag(v: &Json) -> Result<&str, Error> {
    v.get("type")
        .ok_or(Error::MissingField { field: "type" })?
        .as_str()
        .ok_or_else(|| invalid("type", "expected a string"))
}

/// Builds a response object: the `kind` tag, then a flattened value's
/// pairs.
pub(crate) fn tagged<T: Field>(kind: &'static str, value: &T) -> Json {
    let mut pairs = Vec::with_capacity(1 + T::WIDTH);
    pairs.push(("kind".to_string(), Json::Str(kind.to_string())));
    value.write("", &mut pairs);
    Json::Obj(pairs)
}

/// Builds a JSON object from a flattened value's pairs alone.
pub(crate) fn flat<T: Field>(value: &T) -> Json {
    let mut pairs = Vec::with_capacity(T::WIDTH);
    value.write("", &mut pairs);
    Json::Obj(pairs)
}

/// Reads one declared field: `name: Type` is required, `name: Type =
/// default` falls back to `default` (evaluated only when absent).
macro_rules! read {
    ($obj:ident, $name:ident : $ty:ty) => {
        <$ty as $crate::wire::Field>::read($obj, stringify!($name))?.ok_or(
            $crate::error::Error::MissingField {
                field: stringify!($name),
            },
        )?
    };
    ($obj:ident, $name:ident : $ty:ty = $default:expr) => {
        <$ty as $crate::wire::Field>::read($obj, stringify!($name))?.unwrap_or_else(|| $default)
    };
}
pub(crate) use read;

/// Declares flat wire structs: the struct (every field `pub`, with its
/// docs) plus a [`Field`] impl that flattens the fields into the
/// enclosing object in declaration order.
macro_rules! wire_struct {
    ($(
        $(#[$attr:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                pub $field:ident : $ty:ty $(= $default:expr)?
            ),* $(,)?
        }
    )*) => {$(
        $(#[$attr])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$field_attr])* pub $field: $ty,)*
        }

        impl $crate::wire::Field for $name {
            const WIDTH: usize = 0 $(+ <$ty as $crate::wire::Field>::WIDTH)*;

            fn read(
                obj: &$crate::json::Json,
                _name: &'static str,
            ) -> Result<Option<Self>, $crate::error::Error> {
                Ok(Some(Self {
                    $($field: $crate::wire::read!(obj, $field: $ty $(= $default)?),)*
                }))
            }

            fn write(&self, _name: &'static str, pairs: &mut $crate::wire::Pairs) {
                $($crate::wire::Field::write(&self.$field, stringify!($field), pairs);)*
            }

            fn key(&self, key: &mut $crate::wire::Key) {
                $($crate::wire::Field::key(&self.$field, key);)*
            }
        }
    )*};
}
pub(crate) use wire_struct;

/// Declares the query enum from its variant table. Each entry is
/// `"tag" => Variant` followed by nothing (no fields), one flattened
/// tuple field `(name: Type)`, or a field list `{ name: Type [=
/// default], … }` in wire order. Generates the enum plus its
/// `from_json`, `to_json` and `dedup_key`.
macro_rules! query_table {
    (
        $(#[$enum_attr:meta])*
        pub enum $query:ident {
            $(
                $(#[$attr:meta])*
                $tag:literal => $variant:ident
                $(($tuple_field:ident : $tuple_ty:ty))?
                $({
                    $(
                        $(#[$field_attr:meta])*
                        $field:ident : $ty:ty $(= $default:expr)?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$enum_attr])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $query {
            $(
                $(#[$attr])*
                $variant $(($tuple_ty))? $({ $($(#[$field_attr])* $field: $ty,)* })?,
            )*
        }

        impl $query {
            /// Parses a query from its JSON object form (the wire
            /// format's `query` field).
            ///
            /// # Errors
            ///
            /// Returns [`Error::UnsupportedQuery`], [`Error::MissingField`]
            /// or [`Error::InvalidField`] describing the first problem
            /// found, checking fields in wire order.
            pub fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::error::Error> {
                match $crate::wire::type_tag(v)? {
                    $($tag => Ok($query::$variant
                        $(($crate::wire::read!(v, $tuple_field: $tuple_ty)))?
                        $({ $($field: $crate::wire::read!(v, $field: $ty $(= $default)?),)* })?
                    ),)*
                    other => Err($crate::error::Error::UnsupportedQuery {
                        found: other.to_string(),
                    }),
                }
            }

            /// The JSON object form of this query (inverse of
            /// [`Query::from_json`]).
            #[must_use]
            pub fn to_json(&self) -> $crate::json::Json {
                use $crate::wire::Field;
                match self {
                    $($query::$variant $(($tuple_field))? $({ $($field),* })? => {
                        let mut pairs = Vec::with_capacity(
                            1 $(+ <$tuple_ty as Field>::WIDTH)? $($(+ <$ty as Field>::WIDTH)*)?,
                        );
                        pairs.push((
                            "type".to_string(),
                            $crate::json::Json::Str($tag.to_string()),
                        ));
                        $(Field::write($tuple_field, stringify!($tuple_field), &mut pairs);)?
                        $($(Field::write($field, stringify!($field), &mut pairs);)*)?
                        $crate::json::Json::Obj(pairs)
                    })*
                }
            }

            /// The planner's bit-exact identity of this query (see
            /// [`crate::wire::Key`]).
            pub(crate) fn dedup_key(&self) -> $crate::wire::Key {
                use $crate::wire::{Field, Key};
                match self {
                    $($query::$variant $(($tuple_field))? $({ $($field),* })? => Key::new(
                        $tag,
                        0 $(+ <$tuple_ty as Field>::WIDTH)? $($(+ <$ty as Field>::WIDTH)*)?,
                    )
                    $(.with($tuple_field))?
                    $($(.with($field))*)?,)*
                }
            }
        }
    };
}
pub(crate) use query_table;
