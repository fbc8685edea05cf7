//! The harness behind `scalecheck-cli`: the command table and its
//! argument parser ([`cli`]), one module per command ([`commands`]), the
//! parallel sweep they share ([`sweep`]), and the helpers below.
//!
//! Every `fig*` / `tbl_*` / `ext_*` command regenerates one artifact of
//! the paper's evaluation (see DESIGN.md's experiment index) as an
//! aligned text table on stdout.

#![forbid(unsafe_code)]

pub mod cli;
pub mod commands;
pub mod sweep;

use serde_json::Value;

pub use sweep::{jobs, run_sweep, run_triples, triple_cells, Cell};

/// The JSON type a required BENCH-document field must hold.
#[derive(Clone, Copy, Debug)]
pub enum Field {
    /// A non-negative integer.
    U64,
    /// A finite number `>= 0`.
    F64,
    /// A string.
    Str,
    /// A boolean.
    Bool,
}

/// Checks that `value` holds every `(name, type)` of `fields`; `what`
/// names the value in the error.
pub fn validate_fields(what: &str, value: &Value, fields: &[(&str, Field)]) -> Result<(), String> {
    for &(name, ty) in fields {
        let v = value.get(name);
        let ok = match ty {
            Field::U64 => v.and_then(Value::as_u64).is_some(),
            Field::F64 => v
                .and_then(Value::as_f64)
                .is_some_and(|x| x.is_finite() && x >= 0.0),
            Field::Str => v.and_then(Value::as_str).is_some(),
            Field::Bool => v.and_then(Value::as_bool).is_some(),
        };
        if !ok {
            return Err(format!("{what}: field '{name}' must be {ty:?}, got {v:?}"));
        }
    }
    Ok(())
}

/// The walk every committed `BENCH_*.json` validator starts with: the
/// `schema` tag, the document's own required fields, a non-empty array
/// under `rows_key`, and every row's required fields. Returns the rows
/// for the caller's schema-specific checks.
pub fn validate_doc<'a>(
    doc: &'a Value,
    schema: &str,
    doc_fields: &[(&str, Field)],
    rows_key: &str,
    row_fields: &[(&str, Field)],
) -> Result<&'a [Value], String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some(tag) if tag == schema => {}
        other => return Err(format!("schema tag must be '{schema}', got {other:?}")),
    }
    validate_fields("document", doc, doc_fields)?;
    let rows = doc
        .get(rows_key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("document missing '{rows_key}' array"))?;
    if rows.is_empty() {
        return Err(format!("document has zero {rows_key}"));
    }
    for (i, row) in rows.iter().enumerate() {
        validate_fields(&format!("{rows_key}[{i}]"), row, row_fields)?;
    }
    Ok(rows)
}

/// One table row: `cells` right-aligned to `width`, `gap` between them.
pub fn fmt_row<S: AsRef<str>>(cells: &[S], width: usize, gap: &str) -> String {
    let pad = |c: &S| format!("{:>width$}", c.as_ref());
    cells.iter().map(pad).collect::<Vec<_>>().join(gap)
}

/// Prints a row of right-aligned cells under a fixed width.
pub fn print_row<S: AsRef<str>>(cells: &[S], width: usize) {
    println!("{}", fmt_row(cells, width, "  "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn doc_validator_names_the_first_violation() {
        let fields = [("n", Field::U64), ("ok", Field::Bool)];
        let row = json!({"n": 3, "ok": true});
        let doc = json!({"schema": "t/v1", "seed": 1, "rows": [row]});
        let rows = validate_doc(&doc, "t/v1", &[("seed", Field::U64)], "rows", &fields);
        assert_eq!(rows.map(<[Value]>::len), Ok(1));
        let wrong = |doc: Value, needle: &str| {
            let err = validate_doc(&doc, "t/v1", &[("seed", Field::U64)], "rows", &fields);
            assert!(err.clone().unwrap_err().contains(needle), "{err:?}");
        };
        wrong(json!({"schema": "t/v0"}), "schema tag");
        let none: Vec<Value> = Vec::new();
        wrong(json!({"schema": "t/v1", "rows": none.clone()}), "'seed'");
        wrong(
            json!({"schema": "t/v1", "seed": 1, "rows": none}),
            "zero rows",
        );
        let row = json!({"n": 3, "ok": 1});
        wrong(
            json!({"schema": "t/v1", "seed": 1, "rows": [row]}),
            "rows[0]: field 'ok' must be Bool",
        );
        let nan = json!({"x": f64::NAN, "s": "a"});
        assert!(validate_fields("v", &nan, &[("s", Field::Str)]).is_ok());
        assert!(validate_fields("v", &nan, &[("x", Field::F64)]).is_err());
    }
}
