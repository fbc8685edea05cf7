//! Scenario configuration: which bug, at which scale.
//!
//! A [`ScenarioConfig`] fixes the system and its workload: cluster size
//! and vnode count, the pending-range calculator version (the bug), how
//! the calculation is threaded/locked (C5456), the rescale workload, and
//! the calibration constants that map counted operations to virtual
//! compute time. How it is deployed — where its nodes compute
//! ([`RunMode`]) and what its PIL-replaced function does (the run's
//! `scalecheck_memo::Pil` handle) — are arguments of the run, not part
//! of the scenario: the paper's comparison varies only those.

use scalecheck_net::NetworkConfig;
use scalecheck_sim::{CtxSwitchModel, FaultPlan, RunMode, SimDuration, TieOrderSpec};
use scalecheck_traffic::{Consistency, TrafficConfig};

/// When the first rescale action (decommission or join) fires, for
/// workloads that rescale an already-running cluster. Bootstrap runs
/// start rescaling at t=0. Shared by the workload scheduler and the
/// traffic engine's phase windows.
pub const RESCALE_FIRST_ACTION: SimDuration = SimDuration::from_secs(40);

/// Which historical pending-range calculator the cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CalcVersion {
    /// Pre-C3831 cubic implementation.
    V1Cubic,
    /// C3831 fix (quadratic); inadequate under vnodes (C3881).
    V2Quadratic,
    /// C3881 redesign (vnode-aware, near-linear).
    V3VnodeAware,
    /// C6127's fresh-ring path (quadratic when bootstrapping from
    /// scratch, v3 otherwise).
    FreshRing,
}

/// How the calculation interacts with the gossip stage (the C5456 axis).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockingMode {
    /// The calculation runs inline on the gossip stage, blocking it for
    /// the whole compute (the C3831/C3881 architecture).
    InlineOnGossipStage,
    /// The calculation runs on its own stage but holds a coarse ring
    /// lock; gossip processing blocks on the same lock (C5456 bug).
    CoarseLockThread,
    /// The calculation clones the ring under the lock and releases it
    /// before computing (C5456 fix).
    SnapshotThread,
}

/// The rescale workload driving the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `count` nodes decommission sequentially, `gap` apart (C3831).
    Decommission {
        /// How many nodes leave.
        count: usize,
        /// Time between successive decommissions.
        gap: SimDuration,
    },
    /// `count` new nodes join sequentially, `gap` apart (C3881, C5456).
    ScaleOut {
        /// How many nodes join.
        count: usize,
        /// Time between successive joins.
        gap: SimDuration,
    },
    /// The whole cluster boots simultaneously from scratch (C6127).
    BootstrapFromScratch,
}

/// What a context switch costs on the machines (§6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContextSwitch {
    /// Commodity machines; colocated, every node brings its own daemon
    /// threads, so the shared machine's switch cost grows with the
    /// multiprogramming level.
    PerNodeThreads,
    /// §6's scale-checkable redesign: the colocated cluster runs as one
    /// global event queue with one multithreaded handler (SEDA-like), so
    /// the shared machine pays only a fixed dispatch cost per switch.
    /// Dedicated machines stay commodity.
    GlobalEventQueue,
    /// Ideal machine model: zero context-switch overhead on every
    /// machine. The commodity overhead normally offsets each task
    /// completion by a few microseconds, which *separates* causally
    /// chained events onto distinct nanoseconds; the ideal model keeps
    /// them on the timestamps the protocol math produces, making
    /// exact-time collisions (and thus schedule races) far denser —
    /// the explorer's race-prone presets rely on this.
    Free,
}

impl ContextSwitch {
    /// The switch cost of `mode`'s machines.
    pub(crate) fn model(self, mode: RunMode) -> CtxSwitchModel {
        match (self, mode) {
            (ContextSwitch::Free, _) => CtxSwitchModel::FREE,
            (ContextSwitch::GlobalEventQueue, RunMode::Colo { .. }) => CtxSwitchModel {
                per_excess_load: SimDuration::ZERO,
                ..CtxSwitchModel::commodity()
            },
            _ => CtxSwitchModel::commodity(),
        }
    }
}

/// Rebalance allocation strategy (§6's space-oblivious code).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocStrategy {
    /// Over-allocates `(N-1) · P · 1.3 MB` partition services per node.
    Naive,
    /// Allocates only the needed `P · 1.3 MB`.
    Frugal,
}

/// Fixed runtime overhead per node process (managed-runtime cost; ~70 MB
/// for a JVM). In single-process mode ([`MemoryConfig::single_process`])
/// it is paid once per machine.
pub const PER_PROCESS_OVERHEAD: u64 = 70 << 20;

/// Bytes per ring-table entry per node.
pub const BYTES_PER_RING_ENTRY: u64 = 64;

/// Memory-model parameters (§6, §8 colocation bottlenecks).
#[derive(Clone, Copy, Debug)]
pub struct MemoryConfig {
    /// Whether all nodes share one process (§6's scale-checkable
    /// redesign) or run one process each.
    pub single_process: bool,
    /// Rebalance allocation strategy, if the experiment models it.
    pub rebalance_alloc: Option<AllocStrategy>,
    /// Capacity of each machine (the Nome boxes have 32 GB).
    pub machine_capacity: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            single_process: false,
            rebalance_alloc: None,
            machine_capacity: 32 << 30,
        }
    }
}

/// Full configuration of one cluster run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Initial cluster size (nodes in Normal status at t=0; scale-out
    /// nodes come on top).
    pub n_nodes: usize,
    /// Virtual nodes (tokens) per physical node.
    pub vnodes: usize,
    /// Replication factor.
    pub rf: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Gossip round interval (Cassandra: 1 s).
    pub gossip_interval: SimDuration,
    /// Failure-detector evaluation interval.
    pub fd_interval: SimDuration,
    /// φ conviction threshold (Cassandra: 8).
    pub phi_threshold: f64,
    /// Calculator version under test.
    pub calculator: CalcVersion,
    /// Threading/locking architecture.
    pub locking: LockingMode,
    /// Rescale workload.
    pub workload: Workload,
    /// How long one rescale operation stays in its transitional status
    /// (Leaving before Left, Joining before Normal). Real decommissions
    /// and bootstraps stream data for minutes; this is the pending
    /// window during which every applied gossip re-triggers the
    /// calculation.
    pub rescale_window: SimDuration,
    /// When the workload's last action fires.
    pub workload_end: SimDuration,
    /// Hard cap on run duration (quiescence is detected earlier).
    pub max_duration: SimDuration,
    /// How long an out-of-order message may be held for its recorded
    /// turn before being released anyway (bounds divergence damage).
    pub order_hold_timeout: SimDuration,
    /// Virtual nanoseconds per counted calculator operation
    /// (calibration; see [`crate::calibrate`]).
    pub ns_per_op: u64,
    /// Base cost of processing one gossip message.
    pub msg_base_cost: SimDuration,
    /// Additional cost per endpoint entry in a processed message.
    pub per_endpoint_cost: SimDuration,
    /// Memory model.
    pub memory: MemoryConfig,
    /// Network fabric parameters (latency distribution, loss).
    pub network: NetworkConfig,
    /// Scheduled fault injections (empty plan = no faults).
    pub faults: FaultPlan,
    /// The client-request datapath ([`scalecheck_traffic`]): the paper's
    /// user-visible impact, "making some data not reachable by the
    /// users". Presets carry the light observer probe
    /// ([`TrafficConfig::probe`]); [`TrafficConfig::OFF`] means off.
    pub traffic: TrafficConfig,
    /// Full observability tracing (spans, metrics, utilization
    /// timelines) on virtual time; see [`scalecheck_obs`].
    pub trace: scalecheck_obs::TraceConfig,
    /// What a context switch costs: per-node threads, §6's global event
    /// queue, or free.
    pub context_switch: ContextSwitch,
    /// Tie-order perturbation applied to the engine (identity = stock
    /// scheduling order). A schedule witness stores the spec itself and
    /// sets it here on replay.
    pub tie_order: TieOrderSpec,
    /// Record the engine fire log and the kind of each runner handler
    /// into the report's [`scalecheck_sim::ScheduleProbe`] (explorer
    /// input).
    pub record_schedule: bool,
}

impl ScenarioConfig {
    /// A small healthy baseline scenario (fixed calculator, no churn
    /// stress): useful as a starting point for tests.
    pub fn baseline(n_nodes: usize, seed: u64) -> Self {
        ScenarioConfig {
            n_nodes,
            vnodes: 1,
            rf: 3,
            seed,
            gossip_interval: SimDuration::from_secs(1),
            fd_interval: SimDuration::from_secs(1),
            phi_threshold: 8.0,
            calculator: CalcVersion::V3VnodeAware,
            locking: LockingMode::InlineOnGossipStage,
            workload: Workload::Decommission {
                count: 1,
                gap: SimDuration::from_secs(30),
            },
            rescale_window: SimDuration::from_secs(25),
            workload_end: SimDuration::from_secs(100),
            max_duration: SimDuration::from_secs(900),
            order_hold_timeout: SimDuration::from_secs(2),
            ns_per_op: crate::calibrate::NS_PER_OP_V1,
            msg_base_cost: SimDuration::from_micros(50),
            per_endpoint_cost: SimDuration::from_micros(2),
            memory: MemoryConfig::default(),
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            traffic: TrafficConfig::probe(50, Consistency::Quorum),
            trace: scalecheck_obs::TraceConfig::default(),
            context_switch: ContextSwitch::PerNodeThreads,
            tie_order: TieOrderSpec::identity(),
            record_schedule: false,
        }
    }

    /// The C3831 scenario: decommissions under the cubic calculator,
    /// physical tokens only.
    pub fn c3831(n_nodes: usize, seed: u64) -> Self {
        let mut cfg = Self::baseline(n_nodes, seed);
        cfg.calculator = CalcVersion::V1Cubic;
        cfg.vnodes = 1;
        cfg.workload = Workload::Decommission {
            count: 3,
            gap: SimDuration::from_secs(140),
        };
        cfg.rescale_window = SimDuration::from_secs(110);
        cfg.workload_end = SimDuration::from_secs(460);
        cfg.max_duration = SimDuration::from_secs(3600);
        cfg.ns_per_op = crate::calibrate::NS_PER_OP_V1;
        cfg
    }

    /// The C3881 scenario: scale-out with vnodes under the v2 (fixed for
    /// C3831, inadequate for vnodes) calculator.
    ///
    /// The paper's Cassandra uses P=256 vnodes; we use P=32 with a
    /// recalibrated per-op cost so a genuine execution stays affordable
    /// on the host while virtual durations land in the same envelope
    /// (documented in DESIGN.md).
    pub fn c3881(n_nodes: usize, seed: u64) -> Self {
        let mut cfg = Self::baseline(n_nodes, seed);
        cfg.calculator = CalcVersion::V2Quadratic;
        cfg.vnodes = 32;
        cfg.workload = Workload::ScaleOut {
            count: 2,
            gap: SimDuration::from_secs(140),
        };
        cfg.rescale_window = SimDuration::from_secs(110);
        cfg.workload_end = SimDuration::from_secs(330);
        cfg.max_duration = SimDuration::from_secs(3600);
        cfg.ns_per_op = crate::calibrate::NS_PER_OP_V2_VNODES;
        cfg
    }

    /// The C5456 scenario: scale-out with the calculation on its own
    /// thread but holding the coarse ring lock.
    pub fn c5456(n_nodes: usize, seed: u64) -> Self {
        let mut cfg = Self::c3881(n_nodes, seed);
        cfg.locking = LockingMode::CoarseLockThread;
        cfg.workload = Workload::ScaleOut {
            count: 2,
            gap: SimDuration::from_secs(150),
        };
        cfg.rescale_window = SimDuration::from_secs(60);
        cfg.workload_end = SimDuration::from_secs(380);
        cfg
    }

    /// The C6127 scenario: the whole cluster bootstraps from scratch,
    /// exercising the fresh-ring quadratic path.
    pub fn c6127(n_nodes: usize, seed: u64) -> Self {
        let mut cfg = Self::baseline(n_nodes, seed);
        cfg.calculator = CalcVersion::FreshRing;
        cfg.vnodes = 1;
        cfg.workload = Workload::BootstrapFromScratch;
        cfg.rescale_window = SimDuration::from_secs(120);
        cfg.workload_end = SimDuration::from_secs(180);
        cfg.max_duration = SimDuration::from_secs(3600);
        cfg.ns_per_op = crate::calibrate::NS_PER_OP_FRESH;
        cfg
    }

    /// The named bug's preset at a scale, or why the id is unknown: the
    /// one bug-name → preset table every command line shares.
    pub fn bug(bug: &str, n_nodes: usize, seed: u64) -> Result<Self, String> {
        match bug {
            "c3831" => Ok(Self::c3831(n_nodes, seed)),
            "c3881" => Ok(Self::c3881(n_nodes, seed)),
            "c5456" => Ok(Self::c5456(n_nodes, seed)),
            "c6127" => Ok(Self::c6127(n_nodes, seed)),
            other => Err(format!(
                "unknown bug id '{other}' (use c3831|c3881|c5456|c6127)"
            )),
        }
    }

    /// Attaches a fault plan, leaving everything else untouched.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a traffic datapath, leaving everything else untouched.
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        self.traffic = traffic;
        self
    }

    /// Total nodes including any scale-out joiners.
    pub fn total_nodes(&self) -> usize {
        match self.workload {
            Workload::ScaleOut { count, .. } => self.n_nodes + count,
            _ => self.n_nodes,
        }
    }

    /// The traffic shape this run drives: `self.traffic`. The benchmark
    /// package (`benchmarks/`) reads it through this accessor.
    pub fn effective_traffic(&self) -> TrafficConfig {
        self.traffic
    }

    /// The `[start, end]` window (offsets from t=0) during which the
    /// cluster is rescaling: traffic applies its phase ramp inside it
    /// and splits latency histograms around it.
    pub fn rescale_phase_span(&self) -> (SimDuration, SimDuration) {
        match self.workload {
            Workload::BootstrapFromScratch => (SimDuration::ZERO, self.workload_end),
            Workload::Decommission { .. } | Workload::ScaleOut { .. } => {
                (RESCALE_FIRST_ACTION, self.workload_end)
            }
        }
    }

    /// Rejects configurations that would silently lie or never finish: an
    /// empty cluster "quiesces" with zero flaps, a zero timer or
    /// utilization-sampler interval re-arms at one instant forever, a NaN
    /// φ never convicts, a fault on a node the cluster lacks fires and
    /// does nothing, and request semantics need replicas. Called by the
    /// runner before any state is built; the runner indexes fault-plan
    /// node ids unchecked.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes == 0 {
            return Err("n_nodes must be at least 1".into());
        }
        if self.vnodes == 0 {
            return Err("vnodes must be at least 1".into());
        }
        if self.rf == 0 {
            return Err("rf must be at least 1".into());
        }
        if self.gossip_interval == SimDuration::ZERO {
            return Err("gossip_interval must be positive".into());
        }
        // Gossip clocks are u32 and must stay at or below
        // `scalecheck_gossip::CLOCK_MAX` (2^31 - 1). A node's version
        // clock ticks once per gossip round (at most one per interval,
        // plus the first) and once per announce of its own state (at
        // most four between restarts: activation or re-announce, Normal,
        // Leaving, Left); a restart resets it. The generation ticks once
        // per restart event, and no plan holds 2^31 of them.
        let rounds = self.max_duration.as_nanos() / self.gossip_interval.as_nanos() + 1;
        let limit = u64::from(scalecheck_gossip::CLOCK_MAX);
        if rounds.saturating_add(4) > limit {
            return Err(format!(
                "max_duration / gossip_interval ({} / {}) could tick a gossip version \
                 clock past {limit}",
                self.max_duration, self.gossip_interval
            ));
        }
        if self.fd_interval == SimDuration::ZERO {
            return Err("fd_interval must be positive".into());
        }
        if !(self.phi_threshold.is_finite() && self.phi_threshold > 0.0) {
            return Err(format!(
                "phi_threshold ({}) must be finite and positive",
                self.phi_threshold
            ));
        }
        if self.trace.enabled && self.trace.sample_every_ns == 0 {
            return Err("trace.sample_every_ns must be positive when tracing".into());
        }
        let total = self.total_nodes();
        for ev in &self.faults.events {
            if let Some(node) = ev.nodes().into_iter().find(|&n| n as usize >= total) {
                return Err(format!(
                    "fault '{}' names node {node}, but the cluster has {total} nodes",
                    ev.label()
                ));
            }
        }
        if self.traffic.enabled() {
            if self.traffic.read_permille > 1000 {
                return Err(format!(
                    "traffic.read_permille ({}) exceeds 1000",
                    self.traffic.read_permille
                ));
            }
            if self.traffic.arrival.tick == SimDuration::ZERO {
                return Err("traffic.arrival.tick must be positive".into());
            }
            if self.traffic.sample_cap_per_tick == 0 {
                return Err("traffic.sample_cap_per_tick must be positive".into());
            }
            if let scalecheck_traffic::KeySkew::Zipfian {
                theta_permille,
                keyspace,
            } = self.traffic.key_skew
            {
                if keyspace < 2 {
                    return Err(format!(
                        "traffic.key_skew keyspace ({keyspace}) must be at least 2"
                    ));
                }
                if theta_permille > 4000 {
                    return Err(format!(
                        "traffic.key_skew theta_permille ({theta_permille}) exceeds 4000: \
                         the inverse-CDF approximation is untrustworthy that far out"
                    ));
                }
            }
            if self.traffic.client_retries > 0 && self.traffic.retry_backoff == SimDuration::ZERO {
                return Err(
                    "traffic.retry_backoff must be positive when client_retries > 0: \
                     a zero backoff reissues at the timeout instant and double-counts \
                     the tick"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_sim::SimTime;

    #[test]
    fn presets_pick_the_right_bug_axes() {
        let a = ScenarioConfig::c3831(64, 1);
        assert_eq!(a.calculator, CalcVersion::V1Cubic);
        assert!(matches!(a.workload, Workload::Decommission { .. }));
        assert_eq!(a.vnodes, 1);

        let b = ScenarioConfig::c3881(64, 1);
        assert_eq!(b.calculator, CalcVersion::V2Quadratic);
        assert!(matches!(b.workload, Workload::ScaleOut { .. }));
        assert!(b.vnodes > 1);

        let c = ScenarioConfig::c5456(64, 1);
        assert_eq!(c.locking, LockingMode::CoarseLockThread);

        let d = ScenarioConfig::c6127(64, 1);
        assert_eq!(d.calculator, CalcVersion::FreshRing);
        assert!(matches!(d.workload, Workload::BootstrapFromScratch));
    }

    #[test]
    fn bug_ids_resolve_and_unknown_ones_list_the_valid_ids() {
        for bug in ["c3831", "c3881", "c5456", "c6127"] {
            assert_eq!(ScenarioConfig::bug(bug, 32, 1).map(|c| c.n_nodes), Ok(32));
        }
        let err = ScenarioConfig::bug("c9999", 32, 1).unwrap_err();
        assert!(err.contains("unknown bug id 'c9999'") && err.contains("c3831"));
    }

    #[test]
    fn empty_clusters_and_tokenless_nodes_are_rejected() {
        assert_eq!(ScenarioConfig::baseline(1, 1).validate(), Ok(()));
        let err = ScenarioConfig::baseline(0, 1).validate().unwrap_err();
        assert!(err.contains("n_nodes"), "{err}");
        let mut cfg = ScenarioConfig::c3881(8, 1);
        cfg.vnodes = 0;
        assert!(cfg.validate().unwrap_err().contains("vnodes"));

        // Unchecked, these run a 4-node baseline into an OOM, a hang, no
        // conviction ever, or a crash that fires but crashes nothing.
        let rejected = |edit: &dyn Fn(&mut ScenarioConfig), want: &str| {
            let mut cfg = ScenarioConfig::baseline(4, 1);
            edit(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(want), "{err}");
        };
        rejected(&|c| c.gossip_interval = SimDuration::ZERO, "gossip");
        rejected(&|c| c.fd_interval = SimDuration::ZERO, "fd_interval");
        for phi in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            rejected(&|c| c.phi_threshold = phi, "phi_threshold");
        }
        let zero_sampler = scalecheck_obs::TraceConfig {
            sample_every_ns: 0,
            ..scalecheck_obs::TraceConfig::enabled()
        };
        rejected(&|c| c.trace = zero_sampler, "sample_every_ns");
        let at = SimTime::from_secs(50);
        let plans = [
            FaultPlan::new().crash(at, 99),
            FaultPlan::new().restart(at, 4),
            FaultPlan::new().clock_skew(at, 4, SimDuration::from_secs(1)),
            FaultPlan::new().partition(at, vec![0], vec![1, 4]),
            FaultPlan::new().heal(at, vec![4], vec![0]),
            FaultPlan::new().drop_window(at, at, Some(4), None, 0.5),
            FaultPlan::new().delay_window(at, at, None, Some(4), SimDuration::ZERO),
        ];
        for plan in plans {
            rejected(&|c| c.faults = plan.clone(), "but the cluster has 4 nodes");
        }
        // A scale-out joiner is a node the plan may name.
        let joiner = ScenarioConfig::c3881(8, 1).with_faults(FaultPlan::new().crash(at, 9));
        assert_eq!(joiner.validate(), Ok(()));
    }

    /// The gossip clocks' width bound is an error, at the boundary: a
    /// 1 ns round on the c3831 horizon is rejected, as is the first
    /// horizon that could tick a version clock past `CLOCK_MAX`, and
    /// every committed scenario builder is accepted.
    #[test]
    fn scenarios_that_could_overflow_a_gossip_clock_are_rejected() {
        let max = u64::from(scalecheck_gossip::CLOCK_MAX);
        let with = |interval_ns: u64, horizon_ns: u64| {
            let mut cfg = ScenarioConfig::c3831(4, 1);
            cfg.gossip_interval = SimDuration::from_nanos(interval_ns);
            cfg.max_duration = SimDuration::from_nanos(horizon_ns);
            cfg.validate()
        };
        let err = with(1, ScenarioConfig::c3831(4, 1).max_duration.as_nanos()).unwrap_err();
        assert!(err.contains("gossip version clock"), "{err}");
        // Ticks are horizon / interval + 1 rounds plus four announces,
        // so with a 1 ns interval a horizon of max - 5 ns is the last
        // that fits.
        assert_eq!(with(1, max - 5), Ok(()));
        assert!(with(1, max - 4).is_err());
        assert_eq!(with(2, 2 * (max - 5) + 1), Ok(()));
        assert!(with(2, 2 * (max - 4)).is_err());
        for n in [1, 4, 256, 4096] {
            for seed in [1, 5] {
                let builders = [
                    ScenarioConfig::baseline(n, seed),
                    ScenarioConfig::c3831(n, seed),
                    ScenarioConfig::c3881(n, seed),
                    ScenarioConfig::c5456(n, seed),
                    ScenarioConfig::c6127(n, seed),
                ];
                for cfg in builders {
                    assert_eq!(cfg.validate(), Ok(()), "{n} nodes, seed {seed}");
                }
            }
        }
    }

    /// Every independently settable scenario field, once: one traffic
    /// shape, one trace switch, and no run mode (an argument of the run,
    /// not part of the scenario). The pattern names all 25 fields with no
    /// `..`, so adding a field fails to compile here.
    #[test]
    fn a_scenario_is_exactly_these_25_fields() {
        let ScenarioConfig {
            n_nodes: _,
            vnodes: _,
            rf: _,
            seed: _,
            gossip_interval: _,
            fd_interval: _,
            phi_threshold: _,
            calculator: _,
            locking: _,
            workload: _,
            rescale_window: _,
            workload_end: _,
            max_duration: _,
            order_hold_timeout: _,
            ns_per_op: _,
            msg_base_cost: _,
            per_endpoint_cost: _,
            memory: _,
            network: _,
            faults: _,
            traffic: _,
            trace: _,
            context_switch: _,
            tie_order: _,
            record_schedule: _,
        } = ScenarioConfig::baseline(10, 7);
    }

    #[test]
    fn total_nodes_counts_joiners() {
        let cfg = ScenarioConfig::c3881(64, 1);
        assert_eq!(cfg.total_nodes(), 66);
        let cfg = ScenarioConfig::c3831(64, 1);
        assert_eq!(cfg.total_nodes(), 64);
    }

    #[test]
    fn fault_plans_ride_in_the_config() {
        let base = ScenarioConfig::baseline(8, 1);
        assert!(base.faults.is_empty(), "baseline injects nothing");
        let plan = FaultPlan::new().crash(SimTime::from_secs(50), 3);
        let cfg = ScenarioConfig::baseline(8, 1).with_faults(plan.clone());
        assert_eq!(cfg.faults, plan);
        assert_eq!(cfg.n_nodes, base.n_nodes);
    }

    #[test]
    fn with_helpers_only_touch_their_field() {
        let open = TrafficConfig::open_loop(1_000);
        let cfg = ScenarioConfig::c3831(32, 1).with_traffic(open);
        assert_eq!(cfg.traffic, open);
        assert_eq!(cfg.calculator, CalcVersion::V1Cubic);
    }

    #[test]
    fn baseline_traffic_is_the_light_quorum_probe() {
        use scalecheck_traffic::{
            ArrivalConfig, ArrivalProcess, CostModel, Degradation, KeySkew, SloTarget,
        };
        let cfg = ScenarioConfig::baseline(8, 1);
        assert_eq!(cfg.effective_traffic(), cfg.traffic);
        assert_eq!(cfg.traffic, TrafficConfig::probe(50, Consistency::Quorum));
        // Pinned field for field: every committed artifact was produced
        // under this probe.
        assert_eq!(
            cfg.traffic,
            TrafficConfig {
                arrival: ArrivalConfig {
                    users: 50,
                    millirate_per_user: 1000,
                    process: ArrivalProcess::Constant,
                    rescale_ramp_permille: 1000,
                    tick: SimDuration::from_secs(1),
                },
                read_cl: Consistency::Quorum,
                write_cl: Consistency::Quorum,
                read_permille: 0,
                cost: CostModel {
                    read_service: SimDuration::from_micros(350),
                    write_service: SimDuration::from_micros(150),
                    coord_service: SimDuration::from_micros(50),
                    timeout: SimDuration::from_secs(2),
                },
                degradation: Degradation::FailFast,
                slo: SloTarget {
                    latency_target: SimDuration::from_millis(100),
                    availability_floor_permille: 999,
                },
                sample_cap_per_tick: 64,
                log_sample_cap: 32,
                coupled: false,
                client_retries: 0,
                retry_backoff: SimDuration::from_millis(100),
                key_skew: KeySkew::Uniform,
            }
        );
    }
}
