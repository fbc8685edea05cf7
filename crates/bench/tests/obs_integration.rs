//! Observability end-to-end: trace determinism across `--jobs` levels,
//! Chrome-export well-formedness on a real run, and the §6 divergence
//! narrative (Colo's calc inflation, SC+PIL's non-inflation).

use proptest::prelude::*;
use scalecheck::COLO_CORES;
use scalecheck_bench::{run_sweep, run_triples, Cell};
use scalecheck_cluster::{run_scenario, RunMode, RunReport, ScenarioConfig};
use scalecheck_memo::Pil;

fn traced(bug: &str, n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::bug(bug, n, seed).expect("known bug id");
    cfg.trace = scalecheck_obs::TraceConfig::enabled();
    cfg
}

/// Runs `cfg` once under each mode, as sweep cells, and returns the
/// reports in order.
fn sweep(cfg: &ScenarioConfig, modes: &[RunMode], jobs: usize) -> Vec<RunReport> {
    let cells = modes
        .iter()
        .map(|&mode| {
            let cfg = cfg.clone();
            Cell::new(format!("obs-it {mode:?}"), move || {
                run_scenario(&cfg, mode, Pil::Execute)
            })
        })
        .collect();
    run_sweep(cells, jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The trace determinism contract: a `(config, seed)` pair yields a
    /// byte-identical serialized trace whether the sweep ran serially
    /// or on a worker pool — the tracer is thread-local, so workers
    /// cannot bleed events into each other's traces.
    #[test]
    fn traces_are_byte_identical_across_jobs(seed in 0u64..1_000, jobs in 2usize..5) {
        let cfg = traced("c3831", 16, seed);
        let modes = [RunMode::Real, RunMode::Colo { cores: COLO_CORES }];
        let serial = sweep(&cfg, &modes, 1);
        let parallel = sweep(&cfg, &modes, jobs);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            prop_assert!(!a.obs.is_empty(), "traced run must record events");
            prop_assert_eq!(
                serde_json::to_string(&a.obs).unwrap(),
                serde_json::to_string(&b.obs).unwrap()
            );
            prop_assert_eq!(
                scalecheck_obs::to_chrome_json(&a.obs),
                scalecheck_obs::to_chrome_json(&b.obs)
            );
        }
    }
}

/// A real run's Chrome export is well-formed (balanced B/E pairs per
/// track) and round-trips through the embedded native trace.
#[test]
fn chrome_export_of_a_real_run_is_well_formed() {
    let cfg = traced("c3831", 12, 1);
    let reports = sweep(&cfg, &[RunMode::Colo { cores: COLO_CORES }], 1);
    let trace = &reports[0].obs;
    let json = scalecheck_obs::to_chrome_json(trace);
    let events = scalecheck_obs::chrome::validate_chrome(&json).expect("well-formed trace");
    assert!(events > 0, "trace must contain events");
    let back = scalecheck_obs::from_chrome_json(&json).expect("round-trip parse");
    assert_eq!(&back, trace, "embedded native trace round-trips");
}

/// Dev-profile smoke of the §6 calc-attribution claim: Colo's calc
/// inflation is a saturation cliff — per-core load must exceed what
/// the machine model absorbs, which at `COLO_CORES` needs 128 nodes
/// (too heavy for the dev profile). Crossing the same cliff with a
/// single-core Colo at N=48 keeps the mechanism (decommission
/// recalculation saturating colocated cores) while staying cheap
/// enough for plain `cargo test`. The analyzer must put calc on top,
/// flagged, with gossip/net/lock below it.
#[test]
fn divergence_smoke_attributes_single_core_colo_to_calc() {
    let cfg = traced("c3831", 48, 1);
    let modes = [RunMode::Real, RunMode::Colo { cores: 1 }];
    let reports = sweep(&cfg, &modes, 1);
    let report = scalecheck_obs::diverge(&reports[0].obs, &reports[1].obs);
    let top = report.top().expect("single-core Colo must diverge");
    assert_eq!(
        top.category,
        "calc",
        "top-ranked category must be calc:\n{}",
        report.render()
    );
}

/// The §6 narrative, mechanically: at C3831/N=128 the divergence
/// analyzer must attribute Colo-vs-Real to the calc stage (not gossip
/// or net), and must rank nothing above tolerance for SC+PIL-vs-Real.
///
/// Three 128-node traced runs — heavy under the dev profile, so it is
/// ignored by default and `scripts/ci.sh` runs it with `--release`.
#[test]
#[ignore = "heavy: three 128-node traced runs; ci.sh runs this in release"]
fn divergence_attributes_c3831_colo_to_calc_and_clears_scpil() {
    let point = ("obs-it".to_string(), traced("c3831", 128, 1));
    let triple = run_triples(vec![point], 1).pop().expect("one point");
    let (real, colo, scpil) = (&triple.real.obs, &triple.colo.obs, &triple.pil.obs);

    let colo_report = scalecheck_obs::diverge(real, colo);
    let top = colo_report.top().expect("Colo-vs-Real must diverge");
    assert_eq!(
        top.category,
        "calc",
        "top-ranked category must be calc, got {:?}:\n{}",
        top.category,
        colo_report.render()
    );

    let pil_report = scalecheck_obs::diverge(real, scpil);
    assert!(
        !pil_report.diverged(),
        "SC+PIL-vs-Real must stay within tolerance:\n{}",
        pil_report.render()
    );
}
