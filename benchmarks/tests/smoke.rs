//! `--smoke`: the four workloads scaled down, end to end through the real
//! binary, checked against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, Output};

use scalecheck_benchmarks::child::out_dir;
use scalecheck_benchmarks::metrics::{END_TO_END, PER_LAYER};
use scalecheck_benchmarks::workloads::WorkloadId;
use serde_json::Value;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scalecheck-benchmarks"))
        .args(args)
        .output()
        .expect("benchmark binary starts")
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry lacks '{key}': {entry}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_repeats_the_tables_in_the_code() {
    let doc = manifest();
    let declared: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let coded: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, coded);

    let e2e = entries(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, (def, bound)) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better);
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(*bound));
    }
    let layers = entries(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, def) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better, "{}", def.name);
    }
    assert_eq!(
        doc.get("paths")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(1)
    );
}

/// Every `<workload> <metric> = <value> <unit>` line of a suite run.
fn metric_lines(stdout: &str) -> BTreeMap<(String, String), Vec<String>> {
    let mut seen: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, "=", _value, unit, ..] = words[..] {
            seen.entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(unit.to_string());
        }
    }
    seen
}

#[test]
fn smoke_suite_emits_every_declared_metric_once_and_fails_nothing() {
    let started = std::time::Instant::now();
    std::fs::create_dir_all(out_dir()).expect("out dir");
    let out_path = out_dir().join("smoke_suite_test.json");
    let out = bench(&[
        "--smoke",
        "--traced",
        "--seed",
        "5",
        "--out",
        out_path.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "suite failed:\n{stdout}");
    assert!(
        started.elapsed().as_secs() < 20,
        "smoke suite took {:?}",
        started.elapsed()
    );

    let doc = manifest();
    let seen = metric_lines(&stdout);
    for workload in entries(&doc, "workloads") {
        let w = text(workload, "name");
        assert!(well_formed(w), "workload name {w}");
        assert!(text(workload, "why").len() <= 200);
        for key in ["end_to_end", "per_layer"] {
            for metric in entries(&doc, key) {
                let (m, unit) = (text(metric, "name"), text(metric, "unit"));
                assert!(well_formed(m), "metric name {m}");
                let units = seen
                    .get(&(w.to_string(), m.to_string()))
                    .unwrap_or_else(|| panic!("{w} {m} was not printed"));
                assert_eq!(
                    units,
                    &[unit.to_string()],
                    "{w} {m} printed once, in {unit}"
                );
            }
        }
    }

    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(&out_path).expect("--out written"))
            .expect("result document parses");
    for id in WorkloadId::ALL {
        let w = results
            .get("workloads")
            .and_then(|ws| ws.get(id.name()))
            .unwrap_or_else(|| panic!("{} missing from the result document", id.name()));
        assert_eq!(w.get("ops_failed").and_then(Value::as_u64), Some(0));
        // One untraced repetition and the traced one.
        assert_eq!(
            w.get("ops_attempted").and_then(Value::as_u64),
            Some(2 * id.cells())
        );
        assert!(out_dir().join(format!("trace_{}.json", id.name())).exists());
    }
    std::fs::remove_file(out_path).expect("remove result document");
}

#[test]
fn driver_contract_last_line_is_one_result_object() {
    for (trace, wanted) in [("0", END_TO_END.len()), ("1", PER_LAYER.len())] {
        let out = bench(&[
            "--workload",
            "traffic_real_64",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last: Value =
            serde_json::from_str(stdout.lines().last().expect("output")).expect("JSON last line");
        let keys: Vec<&str> = last
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
        assert!(last.get("attempted").and_then(Value::as_u64) >= Some(1));
        let metrics = last
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), wanted, "--trace {trace}");
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
        }
    }
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2", "--workload", "traffic_real_64"],
        &["--seed"],
        &["--compare", "only_one.json"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
