//! Schedule-probe and tie-order threading tests: recording a run
//! yields real tie batches whose events name their kind, perturbations stay
//! deterministic, and identity specs leave the run byte-identical.

use scalecheck_cluster::{run_scenario, RunMode, ScenarioConfig};
use scalecheck_sim::tie::tag;
use scalecheck_sim::{TieOrderSpec, TieSwap};

fn probe_cfg(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(8, seed);
    cfg.record_schedule = true;
    cfg
}

#[test]
fn recorded_probe_has_tie_batches_and_kinds() {
    let report = run_scenario(&probe_cfg(1), RunMode::Real);
    let probe = report.schedule_probe.expect("probe recorded");
    assert!(!probe.fires.is_empty(), "fires recorded");
    let groups = probe.tie_groups();
    assert!(
        !groups.is_empty(),
        "a gossiping cluster must produce same-timestamp ties"
    );
    // Every fired event names a registered handler; those of a kind the
    // explorer reorders name a node in range.
    let kinds: Vec<(u64, u32)> = probe
        .fires
        .iter()
        .filter_map(|f| probe.kind_of(f))
        .collect();
    assert!(!kinds.is_empty(), "the explorer can name events");
    for f in &probe.fires {
        assert!(
            (f.handler as usize) < probe.kinds.len(),
            "unregistered handler"
        );
        assert!(f.seq > 0);
    }
    for &(kind, node) in &kinds {
        assert!(
            matches!(
                kind,
                tag::DELIVER | tag::GOSSIP_TIMER | tag::FD_TIMER | tag::RECV_DONE | tag::SEND_DONE
            ),
            "unknown kind {kind}"
        );
        assert!(node < 8, "node id in range");
    }
    // Every kind fires, stage completions included: they emit messages
    // (drawing from the shared engine RNG), which is what makes their
    // tie order explorable.
    for kind in [
        tag::DELIVER,
        tag::GOSSIP_TIMER,
        tag::FD_TIMER,
        tag::RECV_DONE,
        tag::SEND_DONE,
    ] {
        assert!(
            kinds.iter().any(|&(k, _)| k == kind),
            "kind {kind} never fired"
        );
    }
}

#[test]
fn probe_absent_unless_requested() {
    let report = run_scenario(&ScenarioConfig::baseline(8, 1), RunMode::Real);
    assert!(report.schedule_probe.is_none());
}

#[test]
fn identity_tie_order_is_byte_identical_to_stock() {
    let stock = run_scenario(&probe_cfg(1), RunMode::Real);
    let mut cfg = probe_cfg(1);
    cfg.tie_order = TieOrderSpec::identity();
    let ident = run_scenario(&cfg, RunMode::Real);
    assert_eq!(
        stock.schedule_probe, ident.schedule_probe,
        "identity spec must not move a single event"
    );
    assert_eq!(stock.total_flaps, ident.total_flaps);
    assert_eq!(stock.messages_delivered, ident.messages_delivered);

    // A zero-shift swap *installs* the policy (the perturbed code
    // path) but still encodes the identity permutation: the whole
    // scenario must come out byte-identical, flaps included.
    let mut cfg = probe_cfg(1);
    cfg.tie_order = TieOrderSpec::with_swaps(vec![TieSwap { seq: 1, shift: 0 }]);
    assert!(!cfg.tie_order.is_identity());
    let zero = run_scenario(&cfg, RunMode::Real);
    assert_eq!(
        stock.schedule_probe, zero.schedule_probe,
        "zero-shift policy path must not move a single event"
    );
    assert_eq!(stock.total_flaps, zero.total_flaps);
    assert_eq!(stock.messages_delivered, zero.messages_delivered);
}

#[test]
fn perturbed_runs_are_deterministic_per_spec() {
    let mut cfg = probe_cfg(3);
    cfg.tie_order = TieOrderSpec::shuffled(17);
    let a = run_scenario(&cfg, RunMode::Real);
    let b = run_scenario(&cfg, RunMode::Real);
    assert_eq!(a.schedule_probe, b.schedule_probe);
    assert_eq!(a.total_flaps, b.total_flaps);
    assert_eq!(a.duration, b.duration);
}

#[test]
fn a_targeted_swap_reorders_a_real_tie_batch() {
    // Find a tie batch in the stock schedule, swap its first two
    // members, and check the perturbed schedule fires them reversed.
    let stock = run_scenario(&probe_cfg(1), RunMode::Real);
    let stock_probe = stock.schedule_probe.expect("probe");
    let groups = stock_probe.tie_groups();
    let g = groups.first().expect("at least one tie batch");
    let (a, b) = (g[0].seq, g[1].seq);

    let mut cfg = probe_cfg(1);
    cfg.tie_order = TieOrderSpec::with_swaps(vec![TieSwap {
        seq: a.min(b),
        shift: 1,
    }]);
    let swapped = run_scenario(&cfg, RunMode::Real);
    let probe = swapped.schedule_probe.expect("probe");
    let at = g[0].at;
    let batch: Vec<u64> = probe
        .fires
        .iter()
        .filter(|f| f.at == at)
        .map(|f| f.seq)
        .collect();
    let ia = batch.iter().position(|&s| s == a);
    let ib = batch.iter().position(|&s| s == b);
    match (ia, ib) {
        (Some(ia), Some(ib)) => assert!(
            ib < ia,
            "swap target must fire after its successor: batch {batch:?}"
        ),
        // Perturbation changed downstream scheduling enough that one of
        // the seqs moved or vanished — legal, but the smoke scenario
        // should not do this for the very first tie batch.
        _ => panic!("swapped events left the batch at {at}: {batch:?}"),
    }
}
