//! Shared harness utilities for the figure/table binaries.
//!
//! Every binary in this crate regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's experiment index) and prints an aligned
//! text table plus, optionally, machine-readable JSON.

#![forbid(unsafe_code)]

pub mod sweep;

use scalecheck::{ExecMode, COLO_CORES};
use scalecheck_cluster::RunReport;
use serde_json::{json, Value};

pub use sweep::{cell, jobs_from_args, run_sweep, Cell};

/// Prints an error plus usage to stderr and exits with status 2 — the
/// bad-CLI-arguments path for every binary in this crate.
pub fn exit_usage(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Parses `--key value` into a `T`, distinguishing "absent" (`Ok(None)`)
/// from "present but malformed" (`Err`).
pub fn parse_flag<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    match flag_value(args, key)? {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("{key} got invalid value '{raw}'")),
    }
}

/// Parses a comma-separated `--key a,b,c` list, `Ok(None)` if absent.
pub fn parse_list_flag<T: std::str::FromStr>(
    args: &[String],
    key: &str,
) -> Result<Option<Vec<T>>, String> {
    match flag_value(args, key)? {
        None => Ok(None),
        Some(raw) => raw
            .split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .map_err(|_| format!("{key} got invalid element '{}'", x.trim()))
            })
            .collect::<Result<Vec<T>, String>>()
            .map(Some),
    }
}

/// Parses a `--modes` selector: a comma-separated subset of `allowed`
/// (drawn from `real` / `colo` / `scpil`), swept in the order given.
pub fn parse_modes(spec: &str, allowed: &[&str]) -> Result<Vec<ExecMode>, String> {
    spec.split(',')
        .map(|m| {
            let lower = m.trim().to_ascii_lowercase();
            let name = if lower == "sc+pil" { "scpil" } else { &lower };
            let unknown = || {
                format!(
                    "unknown mode '{name}' (expected one of {})",
                    allowed.join(", ")
                )
            };
            let mode = match name {
                "real" => ExecMode::Real,
                "colo" => ExecMode::Colo { cores: COLO_CORES },
                "scpil" => ExecMode::ScPil {
                    cores: COLO_CORES,
                    ordered: false,
                },
                _ => return Err(unknown()),
            };
            allowed.contains(&name).then_some(mode).ok_or_else(unknown)
        })
        .collect()
}

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

/// The scales the paper evaluates (Figure 3 x-axis).
pub const PAPER_SCALES: [usize; 4] = [32, 64, 128, 256];

/// Prints a row of right-aligned cells under a fixed width.
pub fn print_row(cells: &[String], width: usize) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", row.join("  "));
}

/// Renders a run report as a compact JSON value for machine-readable
/// output.
pub fn report_json(label: &str, n: usize, r: &RunReport) -> serde_json::Value {
    json!({
        "series": label,
        "nodes": n,
        "flaps": r.total_flaps,
        "duration_s": r.duration.as_secs_f64(),
        "quiesced": r.quiesced,
        "cpu_utilization": r.cpu_utilization,
        "p99_lateness_ms": r.p99_stage_lateness.as_millis_f64(),
        "memo_hit_rate": r.memo.replay_hit_rate(),
    })
}

/// Parses `--key value` style flags from an argument list.
///
/// `Ok(None)` when the flag is absent; `Err` when the flag is present
/// but trailing with no value to consume.
pub fn flag_value(args: &[String], key: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{key} expects a value")),
        },
    }
}

/// Whether a bare flag is present.
pub fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flag_distinguishes_absent_from_malformed() {
        let args: Vec<String> = ["--nodes", "abc"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_flag::<u64>(&args, "--seed"), Ok(None));
        assert!(parse_flag::<u64>(&args, "--nodes").is_err());
        let ok: Vec<String> = ["--nodes", "64"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_flag::<u64>(&ok, "--nodes"), Ok(Some(64)));
        let list: Vec<String> = ["--scales", "32, 64,128"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_list_flag::<usize>(&list, "--scales"),
            Ok(Some(vec![32, 64, 128]))
        );
    }

    #[test]
    fn modes_parse_in_order_within_the_allowed_set() {
        let scpil = ExecMode::ScPil {
            cores: COLO_CORES,
            ordered: false,
        };
        assert_eq!(
            parse_modes("SC+PIL, real", &["real", "colo", "scpil"]),
            Ok(vec![scpil, ExecMode::Real])
        );
        let err = parse_modes("colo,real", &["colo", "scpil"]).unwrap_err();
        assert!(err.contains("unknown mode 'real'") && err.contains("colo, scpil"));
    }

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

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--bug", "c3831", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            flag_value(&args, "--bug").unwrap().as_deref(),
            Some("c3831")
        );
        assert_eq!(flag_value(&args, "--nodes"), Ok(None));
        assert!(has_flag(&args, "--json"));
        assert!(!has_flag(&args, "--quiet"));
        // A trailing flag with no value is an error, not a silent default.
        let trailing: Vec<String> = ["--bug"].iter().map(|s| s.to_string()).collect();
        assert!(flag_value(&trailing, "--bug").is_err());
    }
}
