//! The parent process: spawns one fresh child per repetition, checks
//! that repetitions agree, and reduces them to the reported metrics.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde_json::{json, Value};

use crate::child::out_dir;
use crate::host::{median, prefault};
use crate::metrics::{per_layer, MetricDef, END_TO_END};
use crate::workloads::{Size, WorkloadId};

/// Fewest repetitions a reported median may rest on.
pub const MIN_REPS: usize = 3;
/// Repetitions per workload of the full suite.
pub const SUITE_REPS: usize = 5;

/// What a child is asked to do.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ChildMode {
    /// One untraced repetition.
    Plain,
    /// One repetition with spans kept and allocations counted.
    Traced,
    /// The layer replay.
    Replay,
}

impl ChildMode {
    /// The word passed after `--mode`.
    pub fn name(self) -> &'static str {
        match self {
            ChildMode::Plain => "plain",
            ChildMode::Traced => "traced",
            ChildMode::Replay => "replay",
        }
    }

    /// Parses [`ChildMode::name`].
    pub fn from_name(name: &str) -> Option<ChildMode> {
        [ChildMode::Plain, ChildMode::Traced, ChildMode::Replay]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Nanoseconds since the Unix epoch, the clock a parent and its child
/// share.
fn epoch_ns() -> u64 {
    let since = SystemTime::now().duration_since(UNIX_EPOCH);
    since.expect("clock is past 1970").as_nanos() as u64
}

/// What a child has spent since its parent took `spawned_at_ns` just
/// before starting it: exec, loading and argument parsing. It opens the
/// child's `setup_s`.
pub fn since_spawn(spawned_at_ns: u64) -> Duration {
    Duration::from_nanos(epoch_ns().saturating_sub(spawned_at_ns))
}

/// Re-executes this binary as `--child` and parses the JSON object it
/// prints last. The child has ended when this returns. First touches
/// `prefault_mib` MiB here, in the parent ([`crate::host::prefault`]),
/// so that nothing but the workload sets the child's `VmHWM`.
///
/// # Errors
///
/// Returns a description if the child cannot be started, exits non-zero
/// (a panicked cell), or prints no parsable result.
pub fn spawn_child(
    id: WorkloadId,
    seed: u64,
    size: Size,
    mode: ChildMode,
    prefault_mib: usize,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    prefault(prefault_mib);
    let output = Command::new(exe)
        .args(["--child", id.name(), "--seed", &seed.to_string()])
        .args(["--mode", mode.name()])
        .args(["--spawned-at-ns", &epoch_ns().to_string()])
        .args((size == Size::Smoke).then_some("--smoke"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} child ended with {}", id.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("{} child printed no result: {e}", id.name()))
}

/// Median, min and max of one metric over a workload's repetitions.
struct Summary {
    median: f64,
    min: f64,
    max: f64,
}

fn summarize(values: &[f64]) -> Option<Summary> {
    (!values.is_empty()).then(|| Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("child result lacks numeric '{key}'"))
}

/// The repetitions of one workload and what went wrong in them.
pub struct WorkloadRuns {
    /// The workload.
    pub id: WorkloadId,
    /// Results of the untraced repetitions whose child ended normally.
    pub reps: Vec<Value>,
    /// The traced repetition, once [`traced_run`] has made one. It is
    /// checked like the others (tracing must not change what is
    /// simulated) but contributes no end-to-end value.
    pub traced: Option<Value>,
    /// Children that crashed or printed nothing, in words.
    pub crashes: Vec<String>,
}

impl WorkloadRuns {
    /// No repetitions yet.
    pub fn new(id: WorkloadId) -> Self {
        WorkloadRuns {
            id,
            reps: Vec::new(),
            traced: None,
            crashes: Vec::new(),
        }
    }

    /// Books one child's outcome.
    pub fn add(&mut self, outcome: Result<Value, String>) {
        match outcome {
            Ok(rep) => self.reps.push(rep),
            Err(why) => self.crashes.push(why),
        }
    }

    /// Every repetition whose cells were checked: untraced, then traced.
    fn checked(&self) -> impl Iterator<Item = &Value> {
        self.reps.iter().chain(&self.traced)
    }

    /// Cells attempted over all repetitions.
    pub fn ops_attempted(&self) -> u64 {
        self.checked().count() as u64 * self.id.cells()
            + self.crashes.len() as u64 * self.id.cells()
    }

    /// Every failure, in words. A crashed child fails all its cells; a
    /// repetition whose simulated results differ from the first one's
    /// fails (at least) one.
    pub fn failures(&self) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = self
            .crashes
            .iter()
            .map(|why| (self.id.cells(), why.clone()))
            .collect();
        let first_digest = self.checked().next().map(|r| r.get("sim_digest").cloned());
        for (i, rep) in self.checked().enumerate() {
            let mut failed_cells = 0;
            for cell in rep.get("cells").and_then(Value::as_array).unwrap_or(&[]) {
                let failures = cell
                    .get("failures")
                    .and_then(Value::as_array)
                    .unwrap_or(&[]);
                if !failures.is_empty() {
                    failed_cells += 1;
                    let label = cell.get("label").and_then(Value::as_str).unwrap_or("?");
                    let why: Vec<&str> = failures.iter().filter_map(Value::as_str).collect();
                    out.push((1, format!("rep {i} cell {label}: {}", why.join("; "))));
                }
            }
            if Some(rep.get("sim_digest").cloned()) != first_digest && failed_cells == 0 {
                out.push((1, format!("rep {i}: sim_digest differs from rep 0")));
            }
        }
        out
    }

    /// Cells failed over all repetitions.
    pub fn ops_failed(&self) -> u64 {
        self.failures().iter().map(|(cells, _)| cells).sum()
    }

    /// How much to prefault before a further child of this workload:
    /// what the last repetition peaked at. Nothing before the first
    /// repetition, which therefore may run cold.
    fn prefault_mib(&self) -> usize {
        self.reps
            .last()
            .map_or(0, |rep| number(rep, "peak_rss_mib").ceil() as usize)
    }

    /// Median `wall_s` of the untraced repetitions that ran warm: all
    /// but the first, unless it is the only one.
    fn warm_wall_s(&self) -> f64 {
        let walls = self.values("wall_s");
        median(&walls[usize::from(walls.len() > 1)..])
    }

    /// One end-to-end metric's value in every repetition.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.reps.iter().map(|r| number(r, metric)).collect()
    }

    /// The suite's record of this workload: failure share, digest,
    /// end-to-end medians with min, max and n, and the exact counts.
    pub fn to_json(&self) -> Value {
        let end_to_end = Value::Object(
            END_TO_END
                .iter()
                .map(|(def, bound)| {
                    let values = self.values(def.name);
                    let summary = summarize(&values);
                    let entry = json!({
                        "unit": def.unit,
                        "better": def.better,
                        "bound": *bound,
                        "median": summary.as_ref().map(|s| s.median),
                        "min": summary.as_ref().map(|s| s.min),
                        "max": summary.as_ref().map(|s| s.max),
                        "n": values.len(),
                        "values": values,
                    });
                    (def.name.to_string(), entry)
                })
                .collect(),
        );
        let first = self.reps.first();
        json!({
            "ops_attempted": self.ops_attempted(),
            "ops_failed": self.ops_failed(),
            "failures": self.failures().into_iter().map(|(_, why)| why).collect::<Vec<_>>(),
            "sim_digest": first.and_then(|r| r.get("sim_digest").cloned()),
            "end_to_end": end_to_end,
            "counts": first.and_then(|r| r.get("counts").cloned()),
        })
    }
}

/// The traced run of a workload whose untraced repetitions are in
/// `runs`: a traced repetition and the layer replay, each in its own
/// child. Writes `out/trace_<workload>.json`, books the traced
/// repetition in `runs`, and returns every per-layer metric.
///
/// # Errors
///
/// Propagates a failed child.
pub fn traced_run(
    runs: &mut WorkloadRuns,
    seed: u64,
    size: Size,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    let id = runs.id;
    let traced = spawn_child(id, seed, size, ChildMode::Traced, runs.prefault_mib())?;
    let replay = spawn_child(id, seed, size, ChildMode::Replay, 0)?;
    let metrics = per_layer(&traced, &replay, runs.warm_wall_s(), id.nodes(size));
    let trace = json!({
        "workload": id.name(),
        "seed": seed,
        "size": size.name(),
        "processes": json!([
            json!({
                "process": "traced",
                "startup_s": traced.get("startup_s").cloned(),
                "spans": traced.get("spans").cloned(),
            }),
            json!({"process": "replay", "spans": replay.get("spans").cloned()}),
        ]),
    });
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", id.name()));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&trace).expect("trace serializes"),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    runs.traced = Some(traced);
    Ok(metrics)
}

/// `{name: {value, unit}}`, the shape of the driver's `metrics` object.
fn metrics_json(metrics: impl IntoIterator<Item = (&'static MetricDef, f64)>) -> Value {
    Value::Object(
        metrics
            .into_iter()
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    json!({"value": value, "unit": def.unit}),
                )
            })
            .collect(),
    )
}

/// Runs untraced repetitions of one workload back to back, each in a
/// fresh child: at least `min_reps`, and more until `seconds` have
/// passed.
///
/// Back to back, not interleaved with other workloads, and before each
/// child after the first the parent prefaults what the one before it
/// peaked at: on the sandbox this was sized on, memory nobody has touched
/// for a few seconds is reclaimed from the guest, and the 1.1 GiB cell
/// then takes 9–13 s instead of 5.5 s (README, *Oddities*). Only the
/// first repetition may run cold, and the median drops it.
fn measure(id: WorkloadId, seed: u64, size: Size, min_reps: usize, seconds: u64) -> WorkloadRuns {
    let started = Instant::now();
    let mut runs = WorkloadRuns::new(id);
    while runs.reps.len() + runs.crashes.len() < min_reps || started.elapsed().as_secs() < seconds {
        runs.add(spawn_child(
            id,
            seed,
            size,
            ChildMode::Plain,
            runs.prefault_mib(),
        ));
    }
    for (def, _) in &END_TO_END {
        eprintln!(
            "{} {} per repetition: {:?}",
            id.name(),
            def.name,
            runs.values(def.name)
        );
    }
    runs
}

/// The driver's contract: one workload, measured for about `seconds`,
/// one JSON object as the last line of standard output. Returns the
/// process exit code.
///
/// With `trace` off it runs repetitions until `seconds` have passed
/// (never fewer than [`MIN_REPS`]) and reports each end-to-end metric's
/// median. With `trace` on it runs two untraced repetitions (the second,
/// warm one is the base of `trace.overhead_ratio`) and the traced run,
/// and reports every per-layer metric. The code is 1 when a cell failed.
pub fn drive(id: WorkloadId, seed: u64, size: Size, seconds: u64, trace: bool) -> i32 {
    let mut runs = if trace {
        measure(id, seed, size, 2, 0)
    } else {
        measure(id, seed, size, MIN_REPS, seconds)
    };
    if runs.reps.is_empty() {
        eprintln!(
            "no repetition of {} finished: {:?}",
            id.name(),
            runs.crashes
        );
        return 1;
    }
    let metrics = if trace {
        match traced_run(&mut runs, seed, size) {
            Ok(metrics) => metrics_json(metrics),
            Err(why) => {
                eprintln!("traced run failed: {why}");
                return 1;
            }
        }
    } else {
        metrics_json(
            END_TO_END
                .iter()
                .map(|(def, _)| (def, median(&runs.values(def.name)))),
        )
    };
    for (_, why) in runs.failures() {
        eprintln!("FAILED {}: {why}", id.name());
    }
    let failed = runs.ops_failed();
    let line = json!({
        "correct": failed == 0,
        "attempted": runs.ops_attempted(),
        "failed": failed,
        "metrics": metrics,
    });
    println!("{line}");
    i32::from(failed > 0)
}

/// The whole suite: every workload in turn, [`SUITE_REPS`] repetitions
/// each (one at smoke size, which only proves that everything runs), then
/// — with `traced` — its traced run. Prints every metric by name
/// and unit, writes the result document to `out_path` if given, and
/// returns the exit code: non-zero when any cell failed.
pub fn suite(seed: u64, size: Size, traced: bool, out_path: Option<&str>) -> i32 {
    let reps = match size {
        Size::Full => SUITE_REPS,
        Size::Smoke => 1,
    };
    let mut ok = true;
    let mut workloads = Vec::new();
    println!(
        "# seed {seed}, size {}, {reps} fresh-process repetitions per workload; with n = {reps} \
         no percentile beyond the median is supported, so median, min and max are shown",
        size.name()
    );
    for id in WorkloadId::ALL {
        let name = id.name();
        let mut runs = measure(id, seed, size, reps, 0);
        let traced_metrics = (traced && !runs.reps.is_empty()).then(|| {
            eprintln!("traced run {name}");
            traced_run(&mut runs, seed, size)
        });
        let mut doc = runs.to_json();
        println!(
            "{name}: ops_attempted {} ops_failed {} sim_digest {}",
            runs.ops_attempted(),
            runs.ops_failed(),
            doc.get("sim_digest").and_then(Value::as_str).unwrap_or("-"),
        );
        for (_, why) in runs.failures() {
            println!("{name}: FAILED {why}");
        }
        ok &= runs.ops_failed() == 0 && !runs.reps.is_empty();
        for (def, bound) in &END_TO_END {
            let values = runs.values(def.name);
            let Some(summary) = summarize(&values) else {
                continue;
            };
            println!(
                "{name} {} = {:.4} {} (min {:.4}, max {:.4}, n {}; {} is better, bound +{:.0} %)",
                def.name,
                summary.median,
                def.unit,
                summary.min,
                summary.max,
                values.len(),
                def.better,
                bound * 100.0,
            );
        }
        if let Some(counts) = doc.get("counts").and_then(Value::as_object) {
            for (metric, value) in counts {
                let unit = crate::metrics::PER_LAYER
                    .iter()
                    .find(|d| d.name == metric)
                    .map_or("", |d| d.unit);
                println!("{name} {metric} = {value} {unit}");
            }
        }
        match traced_metrics {
            Some(Ok(metrics)) => {
                // The exact ones were printed with the counts above.
                for (def, value) in metrics.iter().filter(|(def, _)| !def.exact) {
                    println!("{name} {} = {value:.4} {}", def.name, def.unit);
                }
                if let Value::Object(entries) = &mut doc {
                    entries.push(("per_layer".to_string(), metrics_json(metrics)));
                }
            }
            Some(Err(why)) => {
                println!("{name}: FAILED traced run: {why}");
                ok = false;
            }
            None => {}
        }
        workloads.push((name.to_string(), doc));
    }

    if let Some(path) = out_path {
        let doc = json!({
            "schema": "scalecheck_benchmark/v1",
            "seed": seed,
            "size": size.name(),
            "reps": reps,
            "host_cpus": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "workloads": Value::Object(workloads),
        });
        let text = serde_json::to_string_pretty(&doc).expect("results serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("write {path}: {e}");
            return 1;
        }
    }
    i32::from(!ok)
}
