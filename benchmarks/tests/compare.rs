//! `--compare A.json B.json` against hand-built result documents.

use std::process::Command;

use scalecheck_benchmarks::child::out_dir;
use scalecheck_benchmarks::metrics::END_TO_END;
use scalecheck_benchmarks::workloads::WorkloadId;
use serde_json::{json, Value};

/// A result document in which every workload has the given `wall_s`
/// median and one count.
fn document(wall_s: f64, events: u64) -> Value {
    document_with_setup(wall_s, 100.0, events)
}

fn document_with_setup(wall_s: f64, setup_s: f64, events: u64) -> Value {
    let workloads = WorkloadId::ALL
        .iter()
        .map(|id| {
            let e2e = END_TO_END
                .iter()
                .map(|(def, _)| {
                    let median = match def.name {
                        "wall_s" => wall_s,
                        "setup_s" => setup_s,
                        _ => 100.0,
                    };
                    (def.name.to_string(), json!({"median": median}))
                })
                .collect();
            let w = json!({
                "ops_attempted": 3,
                "ops_failed": 0,
                "sim_digest": "abc",
                "end_to_end": Value::Object(e2e),
                "counts": json!({"sim.events_fired": events}),
            });
            (id.name().to_string(), w)
        })
        .collect();
    json!({"schema": "scalecheck_benchmark/v1", "workloads": Value::Object(workloads)})
}

fn compare(tag: &str, a: &Value, b: &Value) -> (Option<i32>, String) {
    std::fs::create_dir_all(out_dir()).expect("out dir");
    let paths = [("a", a), ("b", b)].map(|(side, doc)| {
        let path = out_dir().join(format!("compare_test_{tag}_{side}.json"));
        std::fs::write(&path, doc.to_string()).expect("write document");
        path
    });
    let out = Command::new(env!("CARGO_BIN_EXE_scalecheck-benchmarks"))
        .arg("--compare")
        .args(&paths)
        .output()
        .expect("binary starts");
    for path in paths {
        std::fs::remove_file(path).expect("remove document");
    }
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn equal_documents_agree() {
    let (code, text) = compare("same", &document(5.0, 1000), &document(5.0, 1000));
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("AGREE") && !text.contains("BREACH"));
}

#[test]
fn a_slowdown_inside_the_bound_passes_and_one_beyond_it_is_flagged() {
    let bound = END_TO_END[0].1;
    let (code, text) = compare(
        "near",
        &document(5.0, 1000),
        &document(5.0 * (1.0 + 0.8 * bound), 1000),
    );
    assert_eq!(code, Some(0), "inside the bound:\n{text}");
    let (code, text) = compare(
        "far",
        &document(5.0, 1000),
        &document(5.0 * (1.0 + 1.2 * bound), 1000),
    );
    assert_eq!(code, Some(1), "{text}");
    assert_eq!(text.matches("BREACH").count(), WorkloadId::ALL.len());
    // A speed-up is never a breach.
    let (code, _) = compare("fast", &document(6.0, 1000), &document(5.0, 1000));
    assert_eq!(code, Some(0));
}

#[test]
fn set_up_in_milliseconds_may_grow_by_the_absolute_floor_only() {
    let doc = |setup_s| document_with_setup(5.0, setup_s, 1000);
    let (code, text) = compare("floor_in", &doc(0.002), &doc(0.050));
    assert_eq!(code, Some(0), "+48 ms is inside the 50 ms floor:\n{text}");
    let (code, text) = compare("floor_out", &doc(0.002), &doc(0.060));
    assert_eq!(code, Some(1), "{text}");
    assert_eq!(text.matches("BREACH").count(), WorkloadId::ALL.len());
    let (code, text) = compare("zero", &doc(0.0), &doc(0.001));
    assert_eq!(code, Some(0), "a zero median divides nothing:\n{text}");
}

#[test]
fn any_change_of_a_count_is_listed() {
    let (code, text) = compare("count", &document(5.0, 1000), &document(5.0, 1001));
    assert_eq!(code, Some(1));
    assert!(text.contains("simulated behaviour changed: sim.events_fired A = 1000, B = 1001"));
}

#[test]
fn unreadable_input_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_scalecheck-benchmarks"))
        .args(["--compare", "/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .expect("binary starts");
    assert_eq!(out.status.code(), Some(2));
}
