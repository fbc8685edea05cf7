//! End-to-end checks of the parallel sweep harness through a real
//! bench binary: parallel output must be byte-identical to serial, and
//! bad flags end in usage.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const FIG3: &str = env!("CARGO_BIN_EXE_fig3_flaps");

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scalecheck-sweep-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn run_fig3(dir: &PathBuf, extra: &[&str]) -> Output {
    let mut args = vec!["--bug", "c3831", "--scales", "8,12"];
    args.extend_from_slice(extra);
    Command::new(FIG3)
        .args(&args)
        .current_dir(dir)
        .output()
        .expect("spawn fig3_flaps")
}

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    let dir = fresh_dir("par");
    let serial = run_fig3(&dir, &["--jobs", "1"]);
    assert!(serial.status.success(), "serial run failed");
    let parallel = run_fig3(&dir, &["--jobs", "4"]);
    assert!(parallel.status.success(), "parallel run failed");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "--jobs 4 stdout must be byte-identical to --jobs 1"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn run_tbl_slo(dir: &PathBuf, extra: &[&str]) -> Output {
    let mut args = vec![
        "--bugs",
        "c3831",
        "--scales",
        "8",
        "--modes",
        "colo",
        "--no-write",
    ];
    args.extend_from_slice(extra);
    Command::new(env!("CARGO_BIN_EXE_tbl_slo"))
        .args(&args)
        .current_dir(dir)
        .output()
        .expect("spawn tbl_slo")
}

#[test]
fn slo_sweep_is_byte_identical_across_jobs() {
    let dir = fresh_dir("slo-jobs");
    let serial = run_tbl_slo(&dir, &["--scales", "8,12", "--jobs", "1"]);
    assert!(serial.status.success(), "serial tbl_slo run failed");
    let parallel = run_tbl_slo(&dir, &["--scales", "8,12", "--jobs", "4"]);
    assert!(parallel.status.success(), "parallel tbl_slo run failed");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "request logs and histograms must not depend on --jobs"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_flag_exits_with_usage_not_panic() {
    let dir = fresh_dir("usage");
    let out = run_fig3(&dir, &["--jobs", "banana"]);
    assert_eq!(out.status.code(), Some(2), "bad --jobs must exit(2)");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "usage text expected, got: {err}");
    assert!(
        !err.contains("panicked"),
        "bad CLI args must not panic: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
