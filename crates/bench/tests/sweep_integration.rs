//! End-to-end checks of the parallel sweep harness through a real
//! bench binary: parallel output must be byte-identical to serial, and
//! a warm cache must execute zero cells.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const FIG3: &str = env!("CARGO_BIN_EXE_fig3_flaps");
const TBL_FAULTS: &str = env!("CARGO_BIN_EXE_tbl_faults");

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
    let serial = run_fig3(&dir, &["--jobs", "1", "--no-cache"]);
    assert!(serial.status.success(), "serial run failed");
    let parallel = run_fig3(&dir, &["--jobs", "4", "--no-cache"]);
    assert!(parallel.status.success(), "parallel run failed");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "--jobs 4 stdout must be byte-identical to --jobs 1"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_executes_zero_cells() {
    let dir = fresh_dir("warm");
    let cold = run_fig3(&dir, &["--jobs", "2"]);
    assert!(cold.status.success(), "cold run failed");
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_err.contains("6 executed, 0 cached"),
        "cold run should execute all 6 cells, got: {cold_err}"
    );

    let warm = run_fig3(&dir, &["--jobs", "2"]);
    assert!(warm.status.success(), "warm run failed");
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("0 executed, 6 cached"),
        "warm run should execute zero cells, got: {warm_err}"
    );
    assert_eq!(
        cold.stdout, warm.stdout,
        "cached results must reproduce the cold-run output exactly"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn run_tbl_faults(dir: &PathBuf, extra: &[&str]) -> Output {
    let mut args = vec!["--bug", "c3831", "--scales", "8"];
    args.extend_from_slice(extra);
    Command::new(TBL_FAULTS)
        .args(&args)
        .current_dir(dir)
        .output()
        .expect("spawn tbl_faults")
}

#[test]
fn fault_plans_change_the_cell_digest() {
    use scalecheck::{content_digest as key, CellSpec, ExecMode};
    use scalecheck_cluster::{FaultPlan, ScenarioConfig};

    let cfg = ScenarioConfig::c3831(8, 1);

    let plain = CellSpec::new(cfg.clone(), ExecMode::Real);
    let stormy = CellSpec::new(
        cfg.clone().with_faults(FaultPlan::storm(1, 8, 0.5)),
        ExecMode::Real,
    );
    assert_ne!(
        key(&plain),
        key(&stormy),
        "cells differing only in FaultPlan must digest differently"
    );
    // The same plan re-built from the same triple digests identically
    // (warm-cache hit for identical faulty cells).
    let stormy_again = CellSpec::new(cfg.with_faults(FaultPlan::storm(1, 8, 0.5)), ExecMode::Real);
    assert_eq!(key(&stormy), key(&stormy_again));
}

#[test]
fn stale_or_truncated_cache_entries_are_misses() {
    use scalecheck::{content_digest, CellSpec, ExecMode};
    use scalecheck_bench::{run_sweep, spec_cell, SweepOptions};
    use scalecheck_cluster::ScenarioConfig;

    let spec = CellSpec::new(ScenarioConfig::baseline(8, 1), ExecMode::Real);
    let opts = SweepOptions {
        jobs: 1,
        use_cache: true,
        cache_dir: fresh_dir("stale"),
    };
    let sweep = || run_sweep(vec![spec_cell("stale", spec.clone())], &opts);
    assert_eq!(sweep().executed, 1);
    let path = opts
        .cache_dir
        .join(format!("{}.json", content_digest(&spec)));
    let good = fs::read_to_string(&path).expect("cold run stored its result");

    // A report shaped like an older build's (it carried a second trace
    // log beside `obs`) under the current key, and a write cut short.
    let older_build = format!(
        r#"{{"trace":{{"enabled":false,"events":[]}},{}"#,
        &good[1..]
    );
    for bad in [older_build.as_str(), &good[..good.len() / 2]] {
        fs::write(&path, bad).expect("plant bad entry");
        let out = sweep();
        assert_eq!((out.executed, out.cached), (1, 0), "bad entry must miss");
        assert_eq!(serde_json::to_string(&out.results[0]).unwrap(), good);
        assert_eq!(fs::read_to_string(&path).unwrap(), good, "entry healed");
    }
    assert_eq!(sweep().cached, 1, "the healed entry hits");
    let _ = fs::remove_dir_all(&opts.cache_dir);
}

#[test]
fn fault_plans_key_the_sweep_cache_end_to_end() {
    let dir = fresh_dir("faults");
    let cold = run_tbl_faults(&dir, &["--intensities", "0.4"]);
    assert!(cold.status.success(), "cold tbl_faults run failed");
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_err.contains("3 executed, 0 cached"),
        "cold faulty sweep should execute all 3 cells, got: {cold_err}"
    );

    // Identical (scenario, plan, seed): everything served warm and the
    // table reproduced byte for byte.
    let warm = run_tbl_faults(&dir, &["--intensities", "0.4"]);
    assert!(warm.status.success(), "warm tbl_faults run failed");
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("0 executed, 3 cached"),
        "identical fault plan should hit the cache, got: {warm_err}"
    );
    assert_eq!(cold.stdout, warm.stdout);

    // Same scenario and seed, different fault intensity: the plan is
    // the only difference, and every cell must miss.
    let other = run_tbl_faults(&dir, &["--intensities", "0.7"]);
    assert!(other.status.success(), "second-intensity run failed");
    let other_err = String::from_utf8_lossy(&other.stderr);
    assert!(
        other_err.contains("3 executed, 0 cached"),
        "a different fault plan must not reuse cached results, got: {other_err}"
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
fn arrival_configs_change_the_cell_digest() {
    use scalecheck::{content_digest as key, CellSpec, ExecMode};
    use scalecheck_cluster::{ScenarioConfig, TrafficConfig};

    let cfg = ScenarioConfig::c3831(8, 1);

    let quiet = CellSpec::new(
        cfg.clone().with_traffic(TrafficConfig::open_loop(1_000)),
        ExecMode::Real,
    );
    let mut loud_traffic = TrafficConfig::open_loop(1_000);
    loud_traffic.arrival.millirate_per_user *= 10;
    let loud = CellSpec::new(cfg.clone().with_traffic(loud_traffic), ExecMode::Real);
    assert_ne!(
        key(&quiet),
        key(&loud),
        "cells differing only in arrival rate must digest differently"
    );
    let quiet_again = CellSpec::new(
        cfg.with_traffic(TrafficConfig::open_loop(1_000)),
        ExecMode::Real,
    );
    assert_eq!(key(&quiet), key(&quiet_again));
}

#[test]
fn arrival_configs_key_the_sweep_cache_end_to_end() {
    let dir = fresh_dir("slo");
    let cold = run_tbl_slo(&dir, &["--users", "10000"]);
    assert!(cold.status.success(), "cold tbl_slo run failed");
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_err.contains("1 executed, 0 cached"),
        "cold slo sweep should execute its cell, got: {cold_err}"
    );

    // Identical traffic shape: served warm, byte-identical output
    // (including the request-log digest embedded in the table).
    let warm = run_tbl_slo(&dir, &["--users", "10000"]);
    assert!(warm.status.success(), "warm tbl_slo run failed");
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("0 executed, 1 cached"),
        "identical arrival config should hit the cache, got: {warm_err}"
    );
    assert_eq!(cold.stdout, warm.stdout);

    // Same scenario, seed and mode, different offered load: the
    // arrival config is the only difference, and the cell must miss.
    let other = run_tbl_slo(&dir, &["--users", "20000"]);
    assert!(other.status.success(), "changed-rate run failed");
    let other_err = String::from_utf8_lossy(&other.stderr);
    assert!(
        other_err.contains("1 executed, 0 cached"),
        "a different arrival config must not reuse cached results, got: {other_err}"
    );
    assert_ne!(
        cold.stdout, other.stdout,
        "10x the offered load must change the measured table"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn slo_sweep_is_byte_identical_across_jobs() {
    let dir = fresh_dir("slo-jobs");
    let serial = run_tbl_slo(&dir, &["--scales", "8,12", "--no-cache", "--jobs", "1"]);
    assert!(serial.status.success(), "serial tbl_slo run failed");
    let parallel = run_tbl_slo(&dir, &["--scales", "8,12", "--no-cache", "--jobs", "4"]);
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
