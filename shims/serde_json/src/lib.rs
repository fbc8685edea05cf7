//! Offline stand-in for `serde_json` over the `serde` shim's streaming
//! traits. Provides the subset this workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`to_value`], [`Value`],
//! [`Error`], and the [`json!`] macro.
//!
//! `to_string` and `from_str` go straight between `T` and text; only
//! `to_value`, `json!` and `to_string_pretty` build a [`Value`] tree (by
//! parsing the text `to_string` wrote), so they are for small documents.

pub use serde::json::{Error, Num, Value};

/// Serializes a value to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::json::to_string(value))
}

/// Serializes a value to a pretty-printed JSON string (two-space
/// indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(pretty(&to_value(value)?, 0))
}

fn pretty(v: &Value, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            let inner: Vec<String> = items
                .iter()
                .map(|i| format!("{pad_in}{}", pretty(i, indent + 1)))
                .collect();
            format!("[\n{}\n{pad}]", inner.join(",\n"))
        }
        Value::Object(entries) if !entries.is_empty() => {
            let inner: Vec<String> = entries
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad_in}{}: {}",
                        Value::Str(k.clone()),
                        pretty(v, indent + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{pad}}}", inner.join(",\n"))
        }
        other => other.to_string(),
    }
}

/// Parses a JSON string into a value of type `T`.
pub fn from_str<T: serde::de::DeserializeOwned>(s: &str) -> Result<T, Error> {
    serde::json::from_str(s)
}

/// Converts any serializable value into a [`Value`].
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    serde::json::parse(&serde::json::to_string(value))
}

/// Builds a [`Value`] from JSON-like syntax, serde_json style.
///
/// Values are arbitrary serializable expressions; nest `json!` calls
/// explicitly for inner objects/arrays.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val).expect("json! value")) ),*
        ])
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![
            $( $crate::to_value(&$item).expect("json! value") ),*
        ])
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value")
    };
}
