//! The §4 state-of-the-art baselines, implemented for comparison.
//!
//! The paper surveys four families of prior approaches and argues each
//! falls short for scalability bugs:
//!
//! * **Testing on mini clusters** — that is simply [`crate::run_real`]
//!   at small N: the symptom has not surfaced yet.
//! * **Extrapolation** (Vrisha-style): learn behaviour at small scales
//!   and extrapolate; "bug symptoms might not appear in the small
//!   training scale, hence the behaviors are hard to extrapolate
//!   accurately". [`extrapolate_power_law`] implements the standard
//!   log-log least-squares fit — trained on healthy small scales it
//!   predicts a healthy large scale and misses the onset entirely.
//! * **Emulation with time dilation** (DieCast): colocate everything
//!   but stretch the system's perception of time by a factor TDF so
//!   contention no longer distorts behaviour. [`time_dilated`] builds
//!   the dilated scenario; it is *accurate* but each debugging
//!   iteration costs TDF × t (Figure 1b's N×t problem).
//! * **Simulation** — verifying a model rather than the implementation
//!   is outside this crate's scope by definition (the whole point is to
//!   run the real code).

use scalecheck_cluster::{ScenarioConfig, Workload};

/// Least-squares power-law fit `flaps ≈ a · N^b` in log space over
/// `(scale, flaps)` training points, evaluated at `target`.
///
/// Zero counts are shifted by +1 (the standard log-transform guard), so
/// an all-healthy training set predicts ≈ 0 at any scale — which is
/// exactly how extrapolation misses scalability bugs.
pub fn extrapolate_power_law(train: &[(usize, u64)], target: usize) -> f64 {
    if train.is_empty() {
        return 0.0;
    }
    let pts: Vec<(f64, f64)> = train
        .iter()
        .map(|&(n, f)| ((n as f64).ln(), ((f + 1) as f64).ln()))
        .collect();
    let k = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = k * sxx - sx * sx;
    let (a_ln, b) = if denom.abs() < 1e-12 {
        (sy / k, 0.0)
    } else {
        let b = (k * sxy - sx * sy) / denom;
        ((sy - b * sx) / k, b)
    };
    (a_ln + b * (target as f64).ln()).exp() - 1.0
}

/// Builds the DieCast-style time-dilated variant of a scenario.
///
/// DieCast colocates N VMs with a time-dilation factor TDF: the VMM
/// stretches each guest's perception of time by TDF and gives each VM a
/// proportional 1/TDF CPU slice, so perceived compute time matches the
/// real deployment. We model the proportional-share scheduler as a
/// dedicated 1/TDF-rate core per node — the returned scenario, with all
/// compute demands and protocol timescales multiplied by TDF, is run
/// with [`crate::run_real`]: the guest-visible dynamics are identical
/// to real-scale testing, and the test duration multiplies by TDF —
/// Figure 1b's cost.
pub fn time_dilated(cfg: &ScenarioConfig, tdf: u64) -> ScenarioConfig {
    let mut out = cfg.clone();
    out.ns_per_op = out.ns_per_op.saturating_mul(tdf);
    out.msg_base_cost = out.msg_base_cost.saturating_mul(tdf);
    out.per_endpoint_cost = out.per_endpoint_cost.saturating_mul(tdf);
    out.gossip_interval = out.gossip_interval.saturating_mul(tdf);
    out.fd_interval = out.fd_interval.saturating_mul(tdf);
    out.rescale_window = out.rescale_window.saturating_mul(tdf);
    out.workload_end = out.workload_end.saturating_mul(tdf);
    out.max_duration = out.max_duration.saturating_mul(tdf);
    out.order_hold_timeout = out.order_hold_timeout.saturating_mul(tdf);
    out.workload = dilate_workload(out.workload, tdf);
    out
}

/// Stretches a workload's timescales by `tdf`, preserving its kind —
/// the dilation [`time_dilated`] applies to the workload component.
pub fn dilate_workload(w: Workload, tdf: u64) -> Workload {
    match w {
        Workload::Decommission { count, gap } => Workload::Decommission {
            count,
            gap: gap.saturating_mul(tdf),
        },
        Workload::ScaleOut { count, gap } => Workload::ScaleOut {
            count,
            gap: gap.saturating_mul(tdf),
        },
        Workload::BootstrapFromScratch => Workload::BootstrapFromScratch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_sim::SimDuration;

    #[test]
    fn healthy_training_extrapolates_to_healthy() {
        // The §4 failure mode: no symptom below 128 -> prediction at 256
        // stays ~0 while reality is tens of thousands.
        let train = [(8usize, 0u64), (16, 0), (32, 0), (64, 0)];
        let predicted = extrapolate_power_law(&train, 256);
        assert!(predicted.abs() < 1.0, "predicted {predicted}");
    }

    #[test]
    fn power_law_recovers_a_true_power_law() {
        // flaps = 2 * N^2.
        let train: Vec<(usize, u64)> = [8usize, 16, 32, 64]
            .iter()
            .map(|&n| (n, 2 * (n as u64) * (n as u64)))
            .collect();
        let predicted = extrapolate_power_law(&train, 128);
        let truth = 2.0 * 128.0 * 128.0;
        assert!(
            (predicted - truth).abs() / truth < 0.1,
            "predicted {predicted} vs {truth}"
        );
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(extrapolate_power_law(&[], 256), 0.0);
        let one = extrapolate_power_law(&[(32, 100)], 256);
        assert!(one.is_finite());
    }

    #[test]
    fn dilation_scales_every_timescale() {
        let cfg = ScenarioConfig::c3831(64, 1);
        let d = time_dilated(&cfg, 10);
        assert_eq!(
            d.gossip_interval,
            SimDuration::from_secs(10),
            "1s interval -> 10s"
        );
        assert_eq!(d.rescale_window, cfg.rescale_window.saturating_mul(10));
        assert_eq!(d.max_duration, cfg.max_duration.saturating_mul(10));
        // Exhaustive over every workload kind: the dilated workload is
        // exactly the original with its gap stretched by the TDF.
        assert_eq!(
            d.workload,
            dilate_workload(cfg.workload, 10),
            "workload kind preserved, gap dilated"
        );
        let Workload::Decommission { gap, .. } = d.workload else {
            unreachable!("c3831 is a decommission workload");
        };
        assert_eq!(
            gap,
            SimDuration::from_secs(1400),
            "c3831's 140s decommission gap -> 1400s under TDF 10"
        );
        assert_eq!(
            d.ns_per_op,
            cfg.ns_per_op * 10,
            "perceived compute is dilated with the clock"
        );
    }
}
