//! The harness itself (stub fabric, scratch paths, iteration order, the
//! child protocol) must add no nondeterminism: the same seed gives the
//! same simulated results in-process and across fresh processes.

use std::process::Command;
use std::time::Duration;

use scalecheck_benchmarks::child::run_rep;
use scalecheck_benchmarks::workloads::{Size, WorkloadId};
use serde_json::Value;

const SEED: u64 = 11;

fn in_process(seed: u64) -> Value {
    run_rep(
        WorkloadId::Verdict,
        seed,
        Size::Smoke,
        false,
        Duration::ZERO,
    )
}

fn through_a_child() -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_scalecheck-benchmarks"))
        .args([
            "--child",
            WorkloadId::Verdict.name(),
            "--seed",
            &SEED.to_string(),
        ])
        .args(["--smoke", "--mode", "plain"])
        .output()
        .expect("child starts");
    assert!(out.status.success(), "child failed: {:?}", out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON result")
}

/// Everything simulated: the digest, the exact counts, the cell verdicts.
fn simulated(rep: &Value) -> (Value, Value, Value) {
    let field = |k: &str| {
        rep.get(k)
            .unwrap_or_else(|| panic!("result lacks {k}"))
            .clone()
    };
    (field("sim_digest"), field("counts"), field("cells"))
}

#[test]
fn verdict_smoke_repeats_exactly_in_process_and_across_children() {
    let reference = simulated(&in_process(SEED));
    assert_eq!(
        simulated(&in_process(SEED)),
        reference,
        "second in-process run"
    );
    assert_eq!(simulated(&through_a_child()), reference, "first child");
    assert_eq!(simulated(&through_a_child()), reference, "second child");

    let counts = reference.1.as_object().expect("counts object");
    assert!(counts.len() > 15, "counts were reported");
    assert_ne!(
        simulated(&in_process(SEED + 1)).0,
        reference.0,
        "the digest must depend on the seed"
    );
}
