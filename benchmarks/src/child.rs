//! What one fresh child process does: a single repetition of a workload,
//! or its layer replay. Each returns the JSON object the child prints.
//!
//! A repetition is one process because peak RSS is per process: three
//! in-process repeats of the 512-node cell grew 1.28 → 1.78 → 1.97 GiB.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use scalecheck::{run_colo, run_real, COLO_CORES};
use scalecheck_obs::TraceConfig;
use serde_json::{json, Value};

use crate::spans::Spans;
use crate::workloads::{check, execute, prepare, scenario, Checked, Size, WorkloadId};
use crate::{alloc, host, replay};

/// Where the benchmark writes: `benchmarks/out/`, inside the checkout
/// this package was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A scratch directory unique to this call (repetitions may run in
/// parallel test threads of one process).
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!("scratch-{}-{k}", std::process::id()))
}

fn cells_json(checked: &Checked) -> Value {
    Value::Array(
        checked
            .cells
            .iter()
            .map(|c| json!({"label": c.label, "failures": c.failures}))
            .collect(),
    )
}

fn pairs_json(pairs: &[(&'static str, f64)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|(name, v)| (name.to_string(), json!(*v)))
            .collect(),
    )
}

/// One repetition: set-up, the timed section, the checks. With `traced`
/// the allocation counters are armed around the timed section and the
/// workload's comparison cells run afterwards.
///
/// Set-up is everything from the child's start to the timed section:
/// `startup` (what the process spent before this call — exec, loading,
/// argument parsing; zero when called in-process), then input
/// generation, validation and — on the verdict workload — the
/// memoization run.
pub fn run_rep(id: WorkloadId, seed: u64, size: Size, traced: bool, startup: Duration) -> Value {
    let mut spans = Spans::new();
    let scratch = scratch_dir();

    let prepared = spans.scope("setup", |s| prepare(id, seed, size, s));

    alloc::arm(traced);
    let executed = spans.scope("timed", |s| execute(id, &prepared, &scratch, s));
    alloc::arm(false);
    let peak_rss_mib = host::peak_rss_mib();
    let (alloc_count, alloc_bytes) = alloc::counted();

    let checked = check(id, size, prepared, executed);
    // The directory exists only if the trace workload wrote into it;
    // `check` already removed the files.
    let _ = std::fs::remove_dir(&scratch);

    let mut timings = vec![
        ("core.real_s", spans.total_within("core.run_real", "timed")),
        ("core.colo_s", spans.total_within("core.run_colo", "timed")),
        (
            "core.memoize_s",
            spans.total_within("core.memoize", "setup"),
        ),
        ("core.replay_s", spans.total_within("core.replay", "timed")),
        (
            "obs.export_s",
            spans.total_within("obs.to_chrome_json", "timed"),
        ),
        (
            "obs.parse_s",
            spans.total_within("obs.from_chrome_json", "timed"),
        ),
        ("obs.diverge_s", spans.total_within("obs.diverge", "timed")),
    ];
    if traced {
        let cfg = scenario(id, seed, size);
        match id {
            WorkloadId::GossipScale => {
                // The same cell at half the nodes: the ratio of the two
                // host costs per event is the growth ROADMAP item 2 wants
                // flat.
                let mut half = cfg;
                half.n_nodes /= 2;
                let report = spans.scope("extra.half_n", |_| run_colo(&half, COLO_CORES));
                let us = spans.total_s("extra.half_n") * 1e6;
                timings.push((
                    "extra.half_us_per_event",
                    us / report.engine.fired.max(1) as f64,
                ));
            }
            WorkloadId::TraceDiverge => {
                // The same two cells with `trace` off.
                let mut quiet = cfg;
                quiet.trace = TraceConfig::default();
                spans.scope("extra.trace_off", |_| {
                    run_real(&quiet);
                    run_colo(&quiet, COLO_CORES);
                });
                timings.push(("extra.trace_off_s", spans.total_s("extra.trace_off")));
            }
            WorkloadId::Verdict | WorkloadId::TrafficReal => {}
        }
    }

    let in_process_setup_s = spans.start_s("timed").expect("timed span recorded");
    json!({
        "workload": id.name(),
        "seed": seed,
        "size": size.name(),
        "traced": traced,
        "startup_s": startup.as_secs_f64(),
        "setup_s": startup.as_secs_f64() + in_process_setup_s,
        "wall_s": spans.total_s("timed"),
        "peak_rss_mib": peak_rss_mib,
        "cells": cells_json(&checked),
        "sim_digest": checked.sim_digest,
        "virtual_s": checked.virtual_s,
        "counts": pairs_json(&checked.counts),
        "timings": pairs_json(&timings),
        "alloc": json!({"count": alloc_count, "bytes": alloc_bytes}),
        "spans": spans.to_json(),
    })
}

/// The layer replay for `id` (see [`crate::replay`]).
pub fn run_replay(id: WorkloadId, seed: u64, size: Size) -> Value {
    let mut spans = Spans::new();
    let measured = spans.scope("replay", |s| replay::run(id, seed, size, s));
    json!({
        "workload": id.name(),
        "seed": seed,
        "size": size.name(),
        "replay": pairs_json(&measured),
        "spans": spans.to_json(),
    })
}
