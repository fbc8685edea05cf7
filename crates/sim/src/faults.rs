//! Deterministic fault injection: plans, events, and reports.
//!
//! The paper's scalability bugs only surface under stress — flapping,
//! crashes, gossip storms — so the reproduction needs a first-class way
//! to schedule that stress. A [`FaultPlan`] is a list of
//! [`FaultEvent`]s pinned to virtual times; the cluster runner drives
//! them off the engine's clock and the seeded RNG, so the same
//! `(scenario, plan, seed)` triple always produces a byte-identical
//! [`FaultReport`]. Plans are plain data carried by the scenario
//! configuration.
//!
//! Node identity is the raw `u32` index shared by the ring / gossip /
//! network id spaces of the upper layers; this crate stays agnostic of
//! their newtypes.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Cut connectivity between every node in `a` and every node in `b`
    /// (both directions) at `at`.
    Partition {
        /// When the partition starts.
        at: SimTime,
        /// One side of the cut.
        a: Vec<u32>,
        /// The other side.
        b: Vec<u32>,
    },
    /// Restore connectivity between `a` and `b` at `at`.
    Heal {
        /// When the partition heals.
        at: SimTime,
        /// One side of the former cut.
        a: Vec<u32>,
        /// The other side.
        b: Vec<u32>,
    },
    /// During `[from, until)`, drop matching messages with the given
    /// probability. `None` endpoints match every node.
    DropWindow {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Source filter (`None` = any sender).
        src: Option<u32>,
        /// Destination filter (`None` = any receiver).
        dst: Option<u32>,
        /// Per-message drop probability.
        probability: f64,
    },
    /// During `[from, until)`, delay matching messages by `extra` on top
    /// of the sampled link latency.
    DelayWindow {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Source filter (`None` = any sender).
        src: Option<u32>,
        /// Destination filter (`None` = any receiver).
        dst: Option<u32>,
        /// Additional one-way delay.
        extra: SimDuration,
    },
    /// During `[from, until)`, duplicate matching messages with the
    /// given probability (the copy takes an independent latency sample).
    DuplicateWindow {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Source filter (`None` = any sender).
        src: Option<u32>,
        /// Destination filter (`None` = any receiver).
        dst: Option<u32>,
        /// Per-message duplication probability.
        probability: f64,
    },
    /// Crash `node` at `at`: it stops processing and sending until (and
    /// unless) a matching [`FaultEvent::Restart`] fires.
    Crash {
        /// When the process dies.
        at: SimTime,
        /// The crashing node.
        node: u32,
    },
    /// Restart `node` at `at` with a fresh gossip generation, as a
    /// restarted Cassandra process would.
    Restart {
        /// When the process comes back.
        at: SimTime,
        /// The restarting node.
        node: u32,
    },
    /// Jump `node`'s local clock forward by `skew` at `at`. Failure
    /// detection on the skewed node reads the shifted clock, so its
    /// inter-arrival history sees one huge gap — the classic
    /// NTP-step-induced flap storm.
    ClockSkew {
        /// When the clock steps.
        at: SimTime,
        /// The skewed node.
        node: u32,
        /// How far the clock jumps forward.
        skew: SimDuration,
    },
}

impl FaultEvent {
    /// When the fault fires (windows: when they open).
    pub fn at(&self) -> SimTime {
        match self {
            FaultEvent::Partition { at, .. }
            | FaultEvent::Heal { at, .. }
            | FaultEvent::Crash { at, .. }
            | FaultEvent::Restart { at, .. }
            | FaultEvent::ClockSkew { at, .. } => *at,
            FaultEvent::DropWindow { from, .. }
            | FaultEvent::DelayWindow { from, .. }
            | FaultEvent::DuplicateWindow { from, .. } => *from,
        }
    }

    /// Every node id the fault names: both sides of a partition or heal,
    /// a window's `src`/`dst` filters, or the one affected node.
    pub fn nodes(&self) -> Vec<u32> {
        match self {
            FaultEvent::Partition { a, b, .. } | FaultEvent::Heal { a, b, .. } => {
                a.iter().chain(b).copied().collect()
            }
            FaultEvent::DropWindow { src, dst, .. }
            | FaultEvent::DelayWindow { src, dst, .. }
            | FaultEvent::DuplicateWindow { src, dst, .. } => {
                src.iter().chain(dst).copied().collect()
            }
            FaultEvent::Crash { node, .. }
            | FaultEvent::Restart { node, .. }
            | FaultEvent::ClockSkew { node, .. } => vec![*node],
        }
    }

    /// A short human label for the fired-fault log.
    pub fn label(&self) -> String {
        match self {
            FaultEvent::Partition { a, b, .. } => {
                format!("partition {}|{}", side_label(a), side_label(b))
            }
            FaultEvent::Heal { a, b, .. } => format!("heal {}|{}", side_label(a), side_label(b)),
            FaultEvent::DropWindow {
                until, probability, ..
            } => format!("drop p={probability} until {until}"),
            FaultEvent::DelayWindow { until, extra, .. } => {
                format!("delay +{extra} until {until}")
            }
            FaultEvent::DuplicateWindow {
                until, probability, ..
            } => format!("duplicate p={probability} until {until}"),
            FaultEvent::Crash { node, .. } => format!("crash n{node}"),
            FaultEvent::Restart { node, .. } => format!("restart n{node}"),
            FaultEvent::ClockSkew { node, skew, .. } => format!("skew n{node} +{skew}"),
        }
    }
}

fn side_label(side: &[u32]) -> String {
    let ids: Vec<String> = side.iter().map(|n| n.to_string()).collect();
    ids.join(",")
}

/// A schedule of faults for one run. Plain data; the default plan is
/// empty (no faults).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, in any order; the runner sorts by time via
    /// its event queue.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The latest *start* time of any scheduled fault (`ZERO` when
    /// empty). Runs must not quiesce before every fault has fired, so
    /// the runner extends its workload horizon to at least this.
    pub fn end_time(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.at())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Adds a partition between node sets `a` and `b` at `at`.
    pub fn partition(mut self, at: SimTime, a: Vec<u32>, b: Vec<u32>) -> Self {
        self.events.push(FaultEvent::Partition { at, a, b });
        self
    }

    /// Heals a partition between `a` and `b` at `at`.
    pub fn heal(mut self, at: SimTime, a: Vec<u32>, b: Vec<u32>) -> Self {
        self.events.push(FaultEvent::Heal { at, a, b });
        self
    }

    /// Adds a probabilistic drop window on the matching links.
    pub fn drop_window(
        mut self,
        from: SimTime,
        until: SimTime,
        src: Option<u32>,
        dst: Option<u32>,
        probability: f64,
    ) -> Self {
        self.events.push(FaultEvent::DropWindow {
            from,
            until,
            src,
            dst,
            probability,
        });
        self
    }

    /// Adds an added-latency window on the matching links.
    pub fn delay_window(
        mut self,
        from: SimTime,
        until: SimTime,
        src: Option<u32>,
        dst: Option<u32>,
        extra: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent::DelayWindow {
            from,
            until,
            src,
            dst,
            extra,
        });
        self
    }

    /// Adds a duplication window on the matching links.
    pub fn duplicate_window(
        mut self,
        from: SimTime,
        until: SimTime,
        src: Option<u32>,
        dst: Option<u32>,
        probability: f64,
    ) -> Self {
        self.events.push(FaultEvent::DuplicateWindow {
            from,
            until,
            src,
            dst,
            probability,
        });
        self
    }

    /// Crashes `node` at `at`.
    pub fn crash(mut self, at: SimTime, node: u32) -> Self {
        self.events.push(FaultEvent::Crash { at, node });
        self
    }

    /// Restarts `node` at `at`.
    pub fn restart(mut self, at: SimTime, node: u32) -> Self {
        self.events.push(FaultEvent::Restart { at, node });
        self
    }

    /// Steps `node`'s clock forward by `skew` at `at`.
    pub fn clock_skew(mut self, at: SimTime, node: u32, skew: SimDuration) -> Self {
        self.events.push(FaultEvent::ClockSkew { at, node, skew });
        self
    }

    /// Generates a deterministic "fault storm" for an `n_nodes` cluster.
    ///
    /// `intensity` in `[0, 1]` scales how much goes wrong: 0 yields an
    /// empty plan; higher values add message loss, a transient partition
    /// of a minority group, crash/restart cycles, and a clock step. The
    /// same `(seed, n_nodes, intensity)` always yields the same plan —
    /// MET-style seeded exploration of fault schedules.
    pub fn storm(seed: u64, n_nodes: u32, intensity: f64) -> Self {
        let mut plan = FaultPlan::new();
        if intensity <= 0.0 || n_nodes < 2 {
            return plan;
        }
        let intensity = intensity.min(1.0);
        let mut rng = DetRng::new(seed ^ 0x00fa_0175_707f).fork(n_nodes as u64);
        let t0 = SimTime::from_secs(60 + rng.gen_range(30));

        // Background loss across the whole fabric.
        plan = plan.drop_window(
            t0,
            t0 + SimDuration::from_secs(90),
            None,
            None,
            0.05 + 0.25 * intensity,
        );

        // A transient partition isolating a minority group.
        let cut = ((n_nodes as f64 * 0.25 * intensity).ceil() as u32).clamp(1, n_nodes / 2);
        let mut ids: Vec<u32> = (0..n_nodes).collect();
        rng.shuffle(&mut ids);
        let (minority, majority) = ids.split_at(cut as usize);
        let part_at = t0 + SimDuration::from_secs(20 + rng.gen_range(20));
        let heal_at = part_at + SimDuration::from_secs(30 + (60.0 * intensity) as u64);
        plan = plan
            .partition(part_at, minority.to_vec(), majority.to_vec())
            .heal(heal_at, minority.to_vec(), majority.to_vec());

        // Crash/restart cycles proportional to intensity.
        let crashes = ((n_nodes as f64 * intensity / 8.0).ceil() as usize).clamp(1, 4);
        for k in 0..crashes {
            let victim = majority[rng.gen_index(majority.len())];
            let down_at = t0 + SimDuration::from_secs(40 + 25 * k as u64);
            let up_at = down_at + SimDuration::from_secs(35 + (40.0 * intensity) as u64);
            plan = plan.crash(down_at, victim).restart(up_at, victim);
        }

        // Heavy storms also step one node's clock.
        if intensity >= 0.5 {
            let victim = minority[rng.gen_index(minority.len())];
            plan = plan.clock_skew(
                heal_at + SimDuration::from_secs(30),
                victim,
                SimDuration::from_secs(20 + (20.0 * intensity) as u64),
            );
        }
        plan
    }
}

/// One fault that actually fired during a run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct FiredFault {
    /// Virtual time the fault took effect.
    pub at: SimTime,
    /// Human-readable description (see [`FaultEvent::label`]).
    pub label: String,
}

/// What the fault layer did to one run. All-integer fields: two runs of
/// the same `(scenario, plan, seed)` serialize to byte-identical JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultReport {
    /// Every fault that fired, in firing order.
    pub fired: Vec<FiredFault>,
    /// Fault-injected process crashes.
    pub crashes: u64,
    /// Fault-injected process restarts.
    pub restarts: u64,
    /// Messages dropped by fault windows or injected partitions.
    pub fault_dropped: u64,
    /// Messages delayed by delay windows.
    pub fault_delayed: u64,
    /// Messages duplicated by duplication windows.
    pub fault_duplicated: u64,
    /// Per-node downtime from crash faults (crash → restart, or crash →
    /// end of run), keyed by node index.
    pub downtime: BTreeMap<u32, SimDuration>,
    /// Flaps whose convicted peer was under an active fault (crashed,
    /// partitioned, or clock-stepped) at conviction time.
    pub attributed_flaps: u64,
}

impl FaultReport {
    /// Total downtime across all nodes.
    pub fn total_downtime(&self) -> SimDuration {
        self.downtime
            .values()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events_in_order() {
        let plan = FaultPlan::new()
            .partition(SimTime::from_secs(10), vec![0], vec![1, 2])
            .heal(SimTime::from_secs(40), vec![0], vec![1, 2])
            .crash(SimTime::from_secs(20), 3)
            .restart(SimTime::from_secs(50), 3);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.end_time(), SimTime::from_secs(50));
    }

    #[test]
    fn empty_plan_defaults() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.end_time(), SimTime::ZERO);
    }

    #[test]
    fn end_time_uses_window_start_not_end() {
        // A long-running window must not stall quiescence past its
        // opening: everything has *fired* once the window opens.
        let plan = FaultPlan::new().drop_window(
            SimTime::from_secs(30),
            SimTime::from_secs(100_000),
            None,
            None,
            0.5,
        );
        assert_eq!(plan.end_time(), SimTime::from_secs(30));
    }

    #[test]
    fn storm_is_deterministic_and_scales_with_intensity() {
        let a = FaultPlan::storm(42, 32, 0.5);
        let b = FaultPlan::storm(42, 32, 0.5);
        assert_eq!(a, b);
        assert!(FaultPlan::storm(42, 32, 0.0).is_empty());
        let light = FaultPlan::storm(42, 32, 0.2);
        let heavy = FaultPlan::storm(42, 32, 1.0);
        assert!(heavy.len() >= light.len(), "heavier storms do no less");
        // Different seeds explore different schedules.
        assert_ne!(FaultPlan::storm(1, 32, 0.5), FaultPlan::storm(2, 32, 0.5));
    }

    #[test]
    fn labels_name_the_fault() {
        let ev = FaultEvent::Crash {
            at: SimTime::from_secs(9),
            node: 4,
        };
        assert_eq!(ev.label(), "crash n4");
        assert_eq!(ev.at(), SimTime::from_secs(9));
        let win = FaultEvent::DropWindow {
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
            src: None,
            dst: Some(3),
            probability: 0.25,
        };
        assert!(win.label().contains("drop p=0.25"));
        assert_eq!(win.at(), SimTime::from_secs(1));
    }

    #[test]
    fn report_totals() {
        let mut r = FaultReport::default();
        r.downtime.insert(0, SimDuration::from_secs(10));
        r.downtime.insert(5, SimDuration::from_secs(5));
        assert_eq!(r.total_downtime(), SimDuration::from_secs(15));
    }
}
