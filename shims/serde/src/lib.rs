//! Offline stand-in for `serde`.
//!
//! The build environment for this repository has no network access and
//! no crates.io mirror, so the real `serde` cannot be fetched. This shim
//! provides the subset the workspace uses — `Serialize`, `Deserialize`,
//! `de::DeserializeOwned`, and the two derive macros — with JSON as the
//! one data format, so there is no `Serializer`/`Visitor` indirection:
//! both traits **stream**. [`Serialize::serialize`] appends the value's
//! JSON text to a `String`; [`Deserialize::deserialize`] pulls the value
//! out of a [`json::Reader`], a tokenizer over the input `&str`. Nothing
//! sits between a struct and its bytes, so a 60 MB trace file is written
//! and read in memory proportional to the *trace*, not to a document
//! tree of it. The companion `serde_json` shim builds its
//! `to_string`/`from_str`/`json!` API on top.
//!
//! [`json::Value`] is still here, as one more implementor of the two
//! traits: it is what `json!` builds and what untyped callers (result
//! files, pretty-printing) read into. `to_value(x)` is
//! `parse(&to_string(x))`; there is no second, tree-shaped path through
//! every type.
//!
//! The wire format follows serde_json's conventions so existing
//! fixtures and round-trip tests keep their meaning:
//!
//! * structs serialize as objects, newtype structs as their inner value,
//!   tuple structs as arrays;
//! * unit enum variants serialize as `"Variant"`, data variants as
//!   `{"Variant": payload}`;
//! * map keys serialize through their JSON form (quoted when needed);
//!   `HashMap`/`HashSet` sort their rendered entries, so output does not
//!   depend on hash order;
//! * integers keep full `u128`/`i128` precision (memo digests are
//!   `u128` and must round-trip exactly); non-finite floats write as
//!   `null`.
//!
//! Reading is as lenient as it has always been: object keys may come in
//! any order, unknown keys are skipped (but validated), the first of a
//! duplicated key wins, every field must be present (`Option` fields
//! too), integers accept a whole float (`3.0`), floats read `null` as
//! NaN, `()` and unit structs accept any value. See [`json`] for the
//! token-level rules and the nesting limit.

pub mod json;

pub use json::{Error, Value};

use std::{rc::Rc, sync::Arc};

use json::{Kind, Num, Reader};

/// Serialization as JSON text.
pub trait Serialize {
    /// Appends `self`'s JSON form to `out`.
    fn serialize(&self, out: &mut String);
}

/// Deserialization from JSON text.
pub trait Deserialize: Sized {
    /// Reads one `Self` from `r`, consuming exactly one JSON value.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// The `serde::de` namespace: owned deserialization.
pub mod de {
    /// Marker for types deserializable without borrowing from the input.
    /// In this shim every [`crate::Deserialize`] qualifies.
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

pub use serde_derive::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Primitive impls.
// ---------------------------------------------------------------------

/// Reads a number for integer or float type `what`.
#[inline]
fn number(r: &mut Reader<'_>, what: &str) -> Result<Num, Error> {
    match r.kind()? {
        Kind::Number => r.number_here(),
        other => Err(Error::expected(what, other)),
    }
}

macro_rules! impl_unsigned {
    ($push:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                json::$push(out, *self as $wide);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                match number(r, stringify!($t))? {
                    Num::Pos(p) => <$t>::try_from(p)
                        .map_err(|_| Error::msg(concat!("integer out of range for ", stringify!($t)))),
                    Num::Neg(_) => Err(Error::msg(concat!("negative value for ", stringify!($t)))),
                    Num::Float(f) if f.fract() == 0.0 && f >= 0.0 => Ok(f as $t),
                    Num::Float(_) => Err(Error::expected(stringify!($t), Kind::Number)),
                }
            }
        }
    )*};
}
impl_unsigned!(push_u64 as u64: u8, u16, u32, u64, usize);
impl_unsigned!(push_u128 as u128: u128);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                json::push_i128(out, *self as i128);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let out_of_range =
                    || Error::msg(concat!("integer out of range for ", stringify!($t)));
                match number(r, stringify!($t))? {
                    Num::Pos(p) => <$t>::try_from(p).map_err(|_| out_of_range()),
                    Num::Neg(n) => <$t>::try_from(n).map_err(|_| out_of_range()),
                    Num::Float(f) if f.fract() == 0.0 => Ok(f as $t),
                    Num::Float(_) => Err(Error::expected(stringify!($t), Kind::Number)),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                json::push_f64(out, *self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                // Non-finite floats are written as null.
                if r.kind()? == Kind::Null {
                    r.null()?;
                    return Ok(<$t>::NAN);
                }
                Ok(match number(r, stringify!($t))? {
                    Num::Float(f) => f as $t,
                    Num::Pos(p) => p as $t,
                    Num::Neg(n) => n as $t,
                })
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}
impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        json::push_string(out, self);
    }
}
impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(r.string()?.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        json::push_string(out, self);
    }
}
// `&'static str` struct fields: deserialization must allocate for the
// full program lifetime; acceptable for this shim's test-only use.
impl Deserialize for &'static str {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(Box::leak(r.string()?.into_owned().into_boxed_str()))
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut String) {
        json::push_string(out, self.encode_utf8(&mut [0; 4]));
    }
}
impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::expected("char", Kind::String)),
        }
    }
}

impl Serialize for () {
    fn serialize(&self, out: &mut String) {
        out.push_str("null");
    }
}
impl Deserialize for () {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.skip_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

macro_rules! impl_pointer {
    ($($ptr:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn serialize(&self, out: &mut String) {
                (**self).serialize(out);
            }
        }
        impl<T: Deserialize> Deserialize for $ptr<T> {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                T::deserialize(r).map($ptr::new)
            }
        }
    )*};
}
impl_pointer!(Box, Arc, Rc);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            Some(t) => t.serialize(out),
            None => out.push_str("null"),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.kind()? == Kind::Null {
            r.null()?;
            return Ok(None);
        }
        T::deserialize(r).map(Some)
    }
}

// ---------------------------------------------------------------------
// Sequences.
// ---------------------------------------------------------------------

fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize(out);
    }
    out.push(']');
}

fn read_seq<T: Deserialize, C: Default + Extend<T>>(r: &mut Reader<'_>) -> Result<C, Error> {
    let mut items = C::default();
    let mut more = r.begin_array()?;
    while more {
        items.extend(Some(T::deserialize(r)?));
        more = r.next_element()?;
    }
    Ok(items)
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}
impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_seq(r)
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}
impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_seq(r)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_seq(r)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let items: Vec<T> = read_seq(r)?;
        items
            .try_into()
            .map_err(|_| Error::msg("array length mismatch"))
    }
}

impl<T: Serialize, S> Serialize for std::collections::HashSet<T, S> {
    fn serialize(&self, out: &mut String) {
        // Deterministic output regardless of hash order.
        let mut items: Vec<String> = self.iter().map(json::to_string).collect();
        items.sort();
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(item);
        }
        out.push(']');
    }
}
impl<T, S> Deserialize for std::collections::HashSet<T, S>
where
    T: Deserialize + std::hash::Hash + Eq,
    S: std::hash::BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_seq(r)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.serialize(out);
                )+
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let kind = r.kind()?;
                let wrong = || Error::expected("tuple array", kind);
                if kind != Kind::Array {
                    return Err(wrong());
                }
                let mut more = r.begin_array()?;
                let tuple = ($(
                    {
                        if !more {
                            return Err(wrong());
                        }
                        let item = $name::deserialize(r)?;
                        more = r.next_element()?;
                        item
                    },
                )+);
                if more {
                    return Err(wrong());
                }
                Ok(tuple)
            }
        }
    )*};
}
impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

// ---------------------------------------------------------------------
// Maps: keys go through their JSON form (quoted when not a string).
// ---------------------------------------------------------------------

/// The object key for `key`: its contents if it serializes as a string,
/// its JSON text (`7`, `[1,2]`, `{"V":3}`) otherwise.
fn key_to_string<K: Serialize>(key: &K) -> String {
    let text = json::to_string(key);
    if text.starts_with('"') {
        json::from_str(&text).expect("a string this writer just produced")
    } else {
        text
    }
}

fn key_from_string<K: Deserialize>(key: &str) -> Result<K, Error> {
    let mut quoted = String::with_capacity(key.len() + 2);
    json::push_string(&mut quoted, key);
    json::from_str(&quoted).or_else(|_| json::from_str(key))
}

pub(crate) fn write_map<'a, K: AsRef<str>, V: Serialize + 'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (K, &'a V)>,
) {
    out.push('{');
    for (i, (key, value)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(out, key.as_ref());
        out.push(':');
        value.serialize(out);
    }
    out.push('}');
}

fn read_map<K: Deserialize, V: Deserialize, C: Default + Extend<(K, V)>>(
    r: &mut Reader<'_>,
) -> Result<C, Error> {
    let mut entries = C::default();
    let mut more = r.begin_object()?;
    while more {
        let key = key_from_string(&r.key()?)?;
        entries.extend(Some((key, V::deserialize(r)?)));
        more = r.next_entry()?;
    }
    Ok(entries)
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize(&self, out: &mut String) {
        write_map(out, self.iter().map(|(k, v)| (key_to_string(k), v)));
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_map(r)
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn serialize(&self, out: &mut String) {
        let mut entries: Vec<(String, &V)> =
            self.iter().map(|(k, v)| (key_to_string(k), v)).collect();
        // Deterministic output regardless of hash order.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        write_map(out, entries);
    }
}
impl<K, V, S> Deserialize for std::collections::HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_map(r)
    }
}
