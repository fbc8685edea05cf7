//! The four scale-check workloads: how each builds its inputs from the
//! seed, what it runs, and how its simulated results are checked.
//!
//! Every workload is a fixed amount of virtual work executed on one
//! thread through the `scalecheck` facade — never through
//! `bench::sweep`, whose `results/cache` would turn a timing into a file
//! read. Why each exists, and which layer dominates it, is in the README
//! and in `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use scalecheck::{memoize, replay, run_colo, run_real, MemoArtifacts, COLO_CORES};
use scalecheck_cluster::{RunReport, ScenarioConfig, Workload};
use scalecheck_explore::{digest_report, FlapTriple};
use scalecheck_memo::digest_bytes;
use scalecheck_obs::{diverge, from_chrome_json, to_chrome_json, Trace, TraceConfig};
use scalecheck_sim::SimDuration;
use scalecheck_traffic::TrafficConfig;

use crate::spans::Spans;

/// Flap tolerance of the paper-shape verdict (the repo's regression
/// tests use the same value).
const FLAP_TOLERANCE: u64 = 3;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadId {
    /// Steady-state control plane at scale (one Colo cell).
    GossipScale,
    /// One scale-check verdict: memoize, then Real + Colo + SC+PIL.
    Verdict,
    /// Open-loop data plane at real scale (one Real cell).
    TrafficReal,
    /// Traced Real + Colo, Chrome-JSON export, parse, and `diverge`.
    TraceDiverge,
}

/// Full size (what `BENCHMARK.json` measures) or the scaled-down shape
/// used by `--smoke` and the tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The measured size.
    Full,
    /// N = 32/24/16/16 with the sample cap cut; well under a second.
    Smoke,
}

impl Size {
    /// The word used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

impl WorkloadId {
    /// Every workload, in report order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::GossipScale,
        WorkloadId::Verdict,
        WorkloadId::TrafficReal,
        WorkloadId::TraceDiverge,
    ];

    /// The name `BENCHMARK.json` lists. The number is the full-size N.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::GossipScale => "gossip_scale_512",
            WorkloadId::Verdict => "verdict_c3831_160",
            WorkloadId::TrafficReal => "traffic_real_64",
            WorkloadId::TraceDiverge => "trace_diverge_128",
        }
    }

    /// Looks a workload up by its [`WorkloadId::name`].
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cells (simulation runs) one repetition executes — the operations
    /// counted as attempted/failed.
    pub fn cells(self) -> u64 {
        match self {
            WorkloadId::GossipScale | WorkloadId::TrafficReal => 1,
            WorkloadId::Verdict => 4,
            WorkloadId::TraceDiverge => 2,
        }
    }

    /// Cluster size.
    pub fn nodes(self, size: Size) -> usize {
        match (self, size) {
            (WorkloadId::GossipScale, Size::Full) => 512,
            (WorkloadId::Verdict, Size::Full) => 160,
            (WorkloadId::TrafficReal, Size::Full) => 64,
            (WorkloadId::TraceDiverge, Size::Full) => 128,
            (WorkloadId::GossipScale, Size::Smoke) => 32,
            (WorkloadId::Verdict, Size::Smoke) => 24,
            (WorkloadId::TrafficReal | WorkloadId::TraceDiverge, Size::Smoke) => 16,
        }
    }
}

/// The C3831 scenario with one decommission instead of three: the same
/// flap storm, calc digesting and memo traffic per virtual second, at a
/// third of the host time, so that three repetitions fit in a run.
fn c3831_one_decommission(n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::c3831(n, seed);
    let gap = SimDuration::from_secs(140);
    cfg.workload = Workload::Decommission { count: 1, gap };
    cfg.workload_end = scalecheck_cluster::config::RESCALE_FIRST_ACTION + gap;
    cfg
}

/// The scenario a workload runs, generated from the seed.
pub fn scenario(id: WorkloadId, seed: u64, size: Size) -> ScenarioConfig {
    let n = id.nodes(size);
    match id {
        WorkloadId::GossipScale => {
            // The `tbl_scale` cell (§6 single-process memory layout)
            // with the virtual horizon cut from 150 s to 40 s: per-event
            // host cost and peak RSS are those of the full cell, the
            // event count a quarter of it.
            let mut cfg = ScenarioConfig::baseline(n, seed);
            cfg.memory.single_process = true;
            cfg.max_duration = SimDuration::from_secs(40);
            cfg
        }
        WorkloadId::Verdict => c3831_one_decommission(n, seed),
        WorkloadId::TrafficReal => {
            // At the default 64 samples/tick the datapath costs no host
            // time; the raised cap makes it >85 % of the cell.
            let mut traffic = TrafficConfig::open_loop(1_000_000);
            traffic.sample_cap_per_tick = match size {
                Size::Full => 12_288,
                Size::Smoke => 256,
            };
            ScenarioConfig::c3831(n, seed).with_traffic(traffic)
        }
        WorkloadId::TraceDiverge => {
            let mut cfg = c3831_one_decommission(n, seed);
            cfg.trace = TraceConfig::enabled();
            cfg
        }
    }
}

/// A workload's generated inputs plus whatever its set-up produced.
pub struct Prepared {
    /// The validated scenario.
    pub cfg: ScenarioConfig,
    /// `verdict_c3831_160` only: the one-time PIL database fill (paper
    /// Fig. 2 step d).
    pub memo: Option<MemoArtifacts>,
}

/// Generates and validates the inputs; on the verdict workload also runs
/// the memoization cell, which is set-up, not timed work.
pub fn prepare(id: WorkloadId, seed: u64, size: Size, spans: &mut Spans) -> Prepared {
    let cfg = scenario(id, seed, size);
    spans.scope("cluster.validate", |_| {
        cfg.validate().expect("generated scenario is valid")
    });
    let memo = (id == WorkloadId::Verdict)
        .then(|| spans.scope("core.memoize", |_| memoize(&cfg, COLO_CORES)));
    Prepared { cfg, memo }
}

/// One finished cell.
pub struct Cell {
    /// `memoize`, `real`, `colo` or `replay`.
    pub label: &'static str,
    /// The cell's report.
    pub report: RunReport,
    /// Whether the cell ran inside the timed section (the memoize cell
    /// does not); only timed cells feed the per-layer counts.
    pub timed: bool,
}

/// What `trace_diverge_128` produced beside its two cells.
pub struct TraceFlow {
    /// The two exported Chrome-JSON files (Real, Colo).
    pub files: [PathBuf; 2],
    /// The traces parsed back from those files.
    pub parsed: [Trace; 2],
    /// Category `diverge` ranked first, if any cleared tolerance.
    pub top: Option<String>,
}

/// The outputs of one timed section.
pub struct Executed {
    /// The timed cells, in execution order.
    pub cells: Vec<Cell>,
    /// Present on `trace_diverge_128`.
    pub trace: Option<TraceFlow>,
}

fn timed_cell(label: &'static str, report: RunReport) -> Cell {
    Cell {
        label,
        report,
        timed: true,
    }
}

/// Runs the workload's timed section. `scratch` is a directory this call
/// may create files in (only `trace_diverge_128` does).
pub fn execute(id: WorkloadId, p: &Prepared, scratch: &Path, spans: &mut Spans) -> Executed {
    let cfg = &p.cfg;
    match id {
        WorkloadId::GossipScale => Executed {
            cells: vec![timed_cell(
                "colo",
                spans.scope("core.run_colo", |_| run_colo(cfg, COLO_CORES)),
            )],
            trace: None,
        },
        WorkloadId::TrafficReal => Executed {
            cells: vec![timed_cell(
                "real",
                spans.scope("core.run_real", |_| run_real(cfg)),
            )],
            trace: None,
        },
        WorkloadId::Verdict => {
            let memo = p.memo.as_ref().expect("prepare() memoized");
            let real = spans.scope("core.run_real", |_| run_real(cfg));
            let colo = spans.scope("core.run_colo", |_| run_colo(cfg, COLO_CORES));
            let pil = spans.scope("core.replay", |_| replay(cfg, COLO_CORES, memo));
            Executed {
                cells: vec![
                    timed_cell("real", real),
                    timed_cell("colo", colo),
                    timed_cell("replay", pil),
                ],
                trace: None,
            }
        }
        WorkloadId::TraceDiverge => {
            // The `diag_run --trace-out` ×2, `diag_run --diverge A B`
            // flow in one process.
            let mut real = spans.scope("core.run_real", |_| run_real(cfg));
            let mut colo = spans.scope("core.run_colo", |_| run_colo(cfg, COLO_CORES));
            real.obs.meta.label = format!("c3831@{} real", cfg.n_nodes);
            colo.obs.meta.label = format!("c3831@{} colo", cfg.n_nodes);
            std::fs::create_dir_all(scratch).expect("create scratch dir");
            let files = [scratch.join("real.json"), scratch.join("colo.json")];
            for (report, path) in [&real, &colo].into_iter().zip(&files) {
                let json = spans.scope("obs.to_chrome_json", |_| to_chrome_json(&report.obs));
                std::fs::write(path, json.as_bytes()).expect("write trace file");
            }
            let parsed = files.each_ref().map(|path| {
                let text = std::fs::read_to_string(path).expect("read trace file back");
                spans.scope("obs.from_chrome_json", |_| {
                    from_chrome_json(&text).expect("exported trace parses")
                })
            });
            let top = spans.scope("obs.diverge", |_| {
                diverge(&parsed[0], &parsed[1])
                    .top()
                    .map(|row| row.category.clone())
            });
            Executed {
                cells: vec![timed_cell("real", real), timed_cell("colo", colo)],
                trace: Some(TraceFlow { files, parsed, top }),
            }
        }
    }
}

/// One cell's verdict.
pub struct CellVerdict {
    /// The cell's label.
    pub label: &'static str,
    /// Every failed check, in words; empty means the cell passed.
    pub failures: Vec<String>,
}

/// A checked repetition: per-cell verdicts, the exact counts the
/// per-layer metrics are built from, and the digest of everything
/// simulated.
pub struct Checked {
    /// One verdict per cell ([`WorkloadId::cells`] of them).
    pub cells: Vec<CellVerdict>,
    /// Exact per-layer metrics, `(name, value)`, read from the timed
    /// cells' reports. They repeat bit-for-bit for a given seed.
    pub counts: Vec<(&'static str, f64)>,
    /// Virtual seconds simulated by the timed cells, summed.
    pub virtual_s: f64,
    /// FNV-1a-128 over every cell's report (and the exported trace
    /// files), hex.
    pub sim_digest: String,
}

/// Checks every cell's shape. These hold for any correct simulation of
/// the scenario, at any size.
fn engine_and_network_checks(r: &RunReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    require(
        r.engine.fired <= r.engine.scheduled,
        format!(
            "fired {} > scheduled {}",
            r.engine.fired, r.engine.scheduled
        ),
    );
    require(
        r.messages_delivered + r.messages_dropped <= r.messages_sent,
        format!(
            "delivered {} + dropped {} > sent {}",
            r.messages_delivered, r.messages_dropped, r.messages_sent
        ),
    );
    require(
        r.stale_timer_fires == 0,
        format!("{} stale timer fires", r.stale_timer_fires),
    );
    failures
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks the outputs, derives the exact counts, and digests the
/// simulated results. Deletes the trace files it digested.
///
/// The scale-dependent checks (Colo manufactures flaps, `diverge` blames
/// `calc`) apply at full size only: below the bug's onset scale they are
/// false by design — which is the paper's point.
pub fn check(id: WorkloadId, size: Size, prepared: Prepared, executed: Executed) -> Checked {
    let Executed { mut cells, trace } = executed;
    if let Some(memo) = prepared.memo {
        cells.insert(
            0,
            Cell {
                label: "memoize",
                report: memo.report,
                timed: false,
            },
        );
    }
    let mut verdicts: Vec<CellVerdict> = cells
        .iter()
        .map(|c| CellVerdict {
            label: c.label,
            failures: engine_and_network_checks(&c.report),
        })
        .collect();
    let idx = |label: &str| {
        cells
            .iter()
            .position(|c| c.label == label)
            .unwrap_or_else(|| panic!("{} has no {label} cell", id.name()))
    };
    let flaps = |label: &str| {
        cells
            .iter()
            .find(|c| c.label == label)
            .map(|c| c.report.total_flaps)
    };
    let triple = FlapTriple {
        real: flaps("real").unwrap_or(0),
        colo: flaps("colo").unwrap_or(0),
        pil: flaps("replay").unwrap_or(0),
    };

    match id {
        WorkloadId::GossipScale => {}
        WorkloadId::Verdict => {
            let shape = triple.shape(FLAP_TOLERANCE);
            if size == Size::Full && !shape.colo_diverges {
                verdicts[idx("colo")].failures.push(format!(
                    "paper shape: colo flaps {} not above real {} + {FLAP_TOLERANCE}",
                    triple.colo, triple.real
                ));
            }
            let replay_cell = idx("replay");
            if !shape.pil_tracks {
                verdicts[replay_cell].failures.push(format!(
                    "paper shape: SC+PIL flaps {} not within {FLAP_TOLERANCE} of real {}",
                    triple.pil, triple.real
                ));
            }
            let hit = cells[replay_cell].report.memo.replay_hit_rate();
            if hit <= 0.8 {
                verdicts[replay_cell]
                    .failures
                    .push(format!("replay hit ratio {hit:.3} <= 0.8"));
            }
        }
        WorkloadId::TrafficReal => {
            let t = &cells[0].report.traffic;
            if t.failed + t.degraded > t.attempted {
                verdicts[0].failures.push(format!(
                    "failed {} + degraded {} > attempted {}",
                    t.failed, t.degraded, t.attempted
                ));
            }
            let availability = t.slo_summary().availability_permille;
            if t.attempted == 0 || availability < 999 {
                verdicts[0].failures.push(format!(
                    "availability {availability} permille of {} attempted < 999",
                    t.attempted
                ));
            }
        }
        WorkloadId::TraceDiverge => {
            let flow = trace.as_ref().expect("execute() exported traces");
            for (i, cell) in cells.iter().enumerate() {
                if flow.parsed[i] != cell.report.obs {
                    verdicts[i]
                        .failures
                        .push("parsed trace differs from the emitted one".to_string());
                }
            }
            if size == Size::Full && flow.top.as_deref() != Some("calc") {
                verdicts[idx("colo")]
                    .failures
                    .push(format!("diverge top is {:?}, not calc", flow.top));
            }
        }
    }

    // Exact counts, summed over the timed cells.
    let timed: Vec<&RunReport> = cells
        .iter()
        .filter(|c| c.timed)
        .map(|c| &c.report)
        .collect();
    let sum = |f: &dyn Fn(&RunReport) -> u64| timed.iter().map(|r| f(r)).sum::<u64>();
    let memo_fill = cells
        .iter()
        .find(|c| c.label == "memoize")
        .map(|c| &c.report);
    let replayed = cells
        .iter()
        .find(|c| c.label == "replay")
        .map(|c| &c.report);
    let lookups = replayed.map_or(0, |r| r.memo.hits + r.memo.index_fallbacks + r.memo.misses);
    let export_bytes: u64 = trace.as_ref().map_or(0, |flow| {
        flow.files
            .iter()
            .map(|f| std::fs::metadata(f).expect("trace file exists").len())
            .sum()
    });
    let counts = vec![
        ("sim.events_fired", sum(&|r| r.engine.fired) as f64),
        (
            "sim.timer_pool_miss_ratio",
            ratio(sum(&|r| r.engine.pool_misses), sum(&|r| r.engine.scheduled)),
        ),
        ("net.msgs_offered", sum(&|r| r.messages_sent) as f64),
        (
            "net.drop_ratio",
            ratio(sum(&|r| r.messages_dropped), sum(&|r| r.messages_sent)),
        ),
        ("net.data_offered", sum(&|r| r.traffic.data_sent) as f64),
        (
            "gossip.msgs_delivered",
            sum(&|r| r.messages_delivered) as f64,
        ),
        ("gossip.flaps", sum(&|r| r.total_flaps) as f64),
        ("ring.calc_executed", sum(&|r| r.calc.executed) as f64),
        (
            "cluster.calc_invocations",
            sum(&|r| r.calc.invocations) as f64,
        ),
        (
            "cluster.calc_cache_hit_ratio",
            ratio(
                sum(&|r| r.calc.exec_cache_hits),
                sum(&|r| r.calc.invocations),
            ),
        ),
        (
            "memo.records",
            memo_fill.map_or(0, |r| r.memo.recorded) as f64,
        ),
        ("memo.lookups", lookups as f64),
        (
            "memo.hit_ratio",
            replayed.map_or(0.0, |r| r.memo.replay_hit_rate()),
        ),
        ("core.pil_flap_error", {
            if replayed.is_some() {
                triple.pil.abs_diff(triple.real) as f64
            } else {
                0.0
            }
        }),
        (
            "core.colo_flap_inflation",
            triple.colo.saturating_sub(triple.real) as f64,
        ),
        ("traffic.samples", sum(&|r| r.traffic.samples) as f64),
        ("traffic.retried", sum(&|r| r.traffic.retried) as f64),
        (
            "traffic.failed_ratio",
            ratio(sum(&|r| r.traffic.failed), sum(&|r| r.traffic.attempted)),
        ),
        (
            "traffic.state_peak_bytes",
            timed
                .iter()
                .map(|r| r.traffic.state_peak_bytes)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("obs.spans", sum(&|r| r.obs.spans.len() as u64) as f64),
        ("obs.export_bytes", export_bytes as f64),
    ];
    let virtual_s = timed.iter().map(|r| r.duration.as_secs_f64()).sum();

    // The digest covers every cell's whole report; the (large) obs
    // trace is covered through the exported files instead, which the
    // parsed == emitted check above ties back to the report.
    let mut parts = String::new();
    for cell in &mut cells {
        let obs = std::mem::take(&mut cell.report.obs);
        parts.push_str(cell.label);
        parts.push_str(&digest_report(&cell.report));
        cell.report.obs = obs;
    }
    if let Some(flow) = &trace {
        for file in &flow.files {
            let bytes = std::fs::read(file).expect("trace file exists");
            parts.push_str(&format!("{:032x}", digest_bytes(&bytes).0));
            std::fs::remove_file(file).expect("remove trace file");
        }
    }

    Checked {
        cells: verdicts,
        counts,
        virtual_s,
        sim_digest: format!("{:032x}", digest_bytes(parts.as_bytes()).0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_cell_counts_add_up() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_name(id.name()), Some(id));
            assert!(id.nodes(Size::Smoke) < id.nodes(Size::Full));
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
        assert_eq!(WorkloadId::ALL.iter().map(|w| w.cells()).sum::<u64>(), 8);
    }

    #[test]
    fn scenarios_follow_the_seed_and_validate() {
        for id in WorkloadId::ALL {
            for size in [Size::Full, Size::Smoke] {
                let a = scenario(id, 7, size);
                assert_eq!(a.seed, 7);
                assert_eq!(a.n_nodes, id.nodes(size));
                a.validate().expect("valid");
            }
        }
        assert!(
            scenario(WorkloadId::TraceDiverge, 1, Size::Full)
                .trace
                .enabled
        );
        assert!(!scenario(WorkloadId::Verdict, 1, Size::Full).trace.enabled);
    }
}
