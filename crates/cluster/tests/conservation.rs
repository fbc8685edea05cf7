//! Message conservation: every message the network accepts — a
//! duplicate from a fault window included — is delivered, discarded at
//! a node that is not up, or still in flight when the run ends. The
//! runner asserts the full identity when it assembles a report; these
//! cells reach each way a message can go, and a quiesced run has
//! nothing in flight, so its report shows the discards exactly.

use scalecheck_cluster::{run_scenario, RunMode, ScenarioConfig};
use scalecheck_sim::{FaultPlan, SimTime};

/// Runs `cfg` at real scale and returns the messages the network
/// accepted that were not delivered (the discards, once quiesced).
fn undelivered(name: &str, cfg: &ScenarioConfig) -> (u64, scalecheck_cluster::RunReport) {
    let r = run_scenario(cfg, RunMode::Real);
    assert!(
        r.quiesced,
        "{name}: must quiesce, leaving nothing in flight"
    );
    let accepted = r.messages_sent + r.faults.fault_duplicated - r.messages_dropped;
    (accepted - r.messages_delivered, r)
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the runner checks the identity with a debug assertion"
)]
fn every_accepted_message_is_delivered_discarded_or_in_flight() {
    let (gap, _) = undelivered("baseline(16)", &ScenarioConfig::baseline(16, 1));
    assert_eq!(gap, 0, "baseline: every node stays up");

    let storm = ScenarioConfig::c3831(48, 1).with_faults(FaultPlan::storm(1, 48, 0.6));
    let (gap, r) = undelivered("c3831(48) storm", &storm);
    assert!(r.messages_dropped > 0 && r.faults.crashes > 0 && gap > 0);

    // No storm opens a duplication window: p = 1 duplicates every
    // message sent inside this one.
    let mut dup = ScenarioConfig::baseline(12, 1);
    let (from, until) = (SimTime::from_secs(50), SimTime::from_secs(60));
    dup.faults = FaultPlan::new().duplicate_window(from, until, None, None, 1.0);
    let (gap, r) = undelivered("baseline(12) duplicates", &dup);
    assert!(r.faults.fault_duplicated > 0 && gap == 0);

    let mut crash = ScenarioConfig::baseline(12, 6);
    crash.faults = FaultPlan::new()
        .crash(SimTime::from_secs(50), 3)
        .restart(SimTime::from_secs(80), 3);
    let (gap, _) = undelivered("baseline(12) crash/restart", &crash);
    assert!(gap > 0, "messages reach node 3 while it is down");

    // The leaver is announced `Left` ten seconds before it departs, and
    // at this size nothing is still addressed to it by then.
    let (gap, _) = undelivered("c3831(24)", &ScenarioConfig::c3831(24, 1));
    assert_eq!(gap, 0, "c3831(24): the decommissioned node departs quietly");
}
