//! Event orchestration: builds the cluster, drives it to quiescence,
//! and reports.
//!
//! A run takes two independent arguments, as the paper's Figures 1–2
//! do. Its [`RunMode`] says where compute runs:
//!
//! * **Real**: every node owns a dedicated machine — compute never
//!   contends across nodes (Figure 1a).
//! * **Colo**: every node's compute is submitted to one shared machine —
//!   queueing and context switching delay everything (Figure 1b).
//!
//! Its [`Pil`] handle says what the pending-range calculation (the
//! PIL-replaced function) does: execute; execute and record every
//! calculation and the per-node message order (the memoization run,
//! Figure 2 step d; nothing the simulation reads depends on it); or
//! replay, *sleeping* the recorded duration instead of occupying a core
//! (Figure 1c).
//!
//! The bug mechanism is modelled faithfully to Cassandra's architecture:
//! in [`LockingMode::InlineOnGossipStage`], applying a gossip message
//! that touches a pending endpoint runs the calculation synchronously on
//! the gossip stage, so a multi-second calculation starves heartbeat
//! processing and the node's own gossip rounds; in the thread modes the
//! calculation runs on its own stage but couples through the ring lock
//! (C5456) unless it snapshots (the fix).
//!
//! Everything a node keeps per stage — its queue, the task parked for
//! the ring lock, its obs track, its CPU-accounting slot — is indexed by
//! [`StageKind`]; the node's one ring lock names its holder by stage,
//! and whether a node takes part at all, or when it crashed, is its one
//! [`Lifecycle`]. A node leaves `Up` one way, [`stop_node`], whatever
//! the cause (a fault crash, death of OOM, a decommissioned node's
//! departure): its timers are cancelled and its queued and parked work
//! dropped, so a periodic timer only ever fires for an `Up` node.
//!
//! Nodes whose ring views agree share one table: a node writes its view
//! copy-on-write, and each apply or announce that changed a view hands
//! it to the run's [`ViewStore`], which swaps in the table already
//! holding those contents.

use std::sync::Arc;

use scalecheck_gossip::{AckSpace, ApplyOutcome, Liveness};
use scalecheck_memo::{OrderDecision, Pil};
use scalecheck_net::{Addr, Network};
use scalecheck_obs::{Metric, SpanName, ENGINE_PID, TID_GOSSIP, TID_REQUEST};
use scalecheck_ring::{spread_tokens, NodeId, NodeStatus, RingTable, Token, ViewStore};
use scalecheck_sim::tie::tag;
use scalecheck_sim::{
    Ctx, Engine, EngineCounters, FaultEvent, FaultReport, FiredFault, HandlerId, MachinePark,
    MemoryModel, RunMode, ScheduleProbe, SchedulerKind, SimDuration, SimTime, TimeSeries, TimerId,
};

use crate::calc::{CalcEngine, PendingWire};
use crate::config::{
    AllocStrategy, LockingMode, ScenarioConfig, Workload, BYTES_PER_RING_ENTRY,
    PER_PROCESS_OVERHEAD,
};
use crate::node::{Envelope, GossipMessage, Lifecycle, Node, StageKind, Task};
use crate::report::RunReport;
use crate::ringinfo::{addr_of, peer_of, RingInfo};

/// The complete world state the engine drives.
struct ClusterState<'a> {
    /// Scenario configuration.
    cfg: ScenarioConfig,
    /// Where the nodes compute.
    mode: RunMode,
    /// All nodes (initial members first, then scale-out joiners).
    nodes: Vec<Node>,
    /// The one table per distinct ring state the nodes' views hold.
    views: ViewStore,
    /// Where every node gathers the ACK it answers a SYN with and the
    /// ACK2 it answers an ACK with.
    ack_space: AckSpace<RingInfo>,
    /// Where every node's apply of an ACK or ACK2 body reports the peers
    /// that advanced.
    outcome: ApplyOutcome,
    /// The simulated network.
    net: Network,
    /// The mode's machines ([`RunMode::park`]).
    park: MachinePark,
    /// A replay only: the *emulated* real-scale park (`RunMode::Real`'s)
    /// that coupled request service bills instead of `park`. The
    /// processing illusion promises real-scale timing, and for the
    /// datapath that means real-scale *queueing* — per-node service
    /// contention included — not an uncontended sleep. Empty in every
    /// other run.
    pil_request_park: MachinePark,
    /// Memory budget per machine.
    machine_mem: Vec<MemoryModel>,
    /// The calculation engine.
    calc: CalcEngine,
    /// The run's PIL side: execute, record (calculations and message
    /// order), or replay (enforcing the recorded order when handed it).
    pil: Pil<'a, PendingWire>,
    seeds: Vec<NodeId>,
    /// The registered handler of each [`Ev`], by discriminant.
    handlers: [HandlerId; Ev::ALL.len()],
    /// The client-request datapath (open-loop arrivals, consistency
    /// levels, SLO accounting). In coupled mode it is a tenant of the
    /// simulation — request service bills node CPUs and replica round
    /// trips ride the data plane; the uncoupled probe only reads
    /// coordinator state. Either way it owns its private RNG fork.
    traffic: scalecheck_traffic::TrafficState,
    /// Cumulative per-node `[gossip, calc, request]` CPU demand
    /// submitted, in virtual ns, indexed by obs track id (`StageKind`,
    /// then `TID_REQUEST`) and billed by *work kind* (C3831 runs calc
    /// work on the gossip stage; attribution needs the kind, not the
    /// host stage). PIL-replaced calc sleeps bill nothing — they do
    /// not occupy a core. Request service bills in every run; in a
    /// replay it lands on the emulated real-scale park
    /// (`pil_request_park`), so the slot reads as the real-scale
    /// prediction rather than colocated contention.
    work_busy: Vec<[u64; 3]>,
    /// Last sampled `work_busy` readings (the utilization sampler
    /// differences successive readings).
    busy_sampled: Vec<[u64; 3]>,
    /// Messages the network accepted that have not arrived yet.
    in_flight: InFlight,
    deliveries: u64,
    /// Messages that arrived at a node that was not `Up`.
    discarded: u64,
    forced_releases: u64,
    flap_series: TimeSeries,
    crashed: u64,
    workload_end_at: SimTime,
    stopped_quiescent: bool,
    /// Fault bookkeeping kept as the run goes (fired, crashes, restarts,
    /// downtime of completed outages); the network's counters and the
    /// outages still open join it at report time.
    faults: FaultReport,
}

/// What an engine event does. Each kind is one handler registered in
/// [`build`] (in [`Ev::ALL`] order, so a handler's registration index is
/// its kind's position), and every event's payload names the node it
/// belongs to in its low word and carries the kind's argument, if any,
/// in its high word ([`payload`]; a task completion's is a [`task_arg`]).
#[derive(Clone, Copy)]
#[repr(u32)]
enum Ev {
    /// A message arrives; argument: its [`InFlight`] slot.
    Deliver,
    /// A periodic gossip round.
    GossipTimer,
    /// A periodic failure-detector check.
    FdTimer,
    /// A received message is processed (stage).
    RecvDone,
    /// A send round's compute is done (stage).
    SendDone,
    /// The ring lock passes to a waiting stage (stage).
    LockGranted,
    /// A snapshot-mode ring clone is done (stage).
    SnapshotTaken,
    /// A calculation is done (stage, has_pending).
    CalcDone,
    /// A held message's hold deadline passes.
    HoldExpired,
    /// A node starts: an initial member (`Joining` when bootstrapping
    /// from scratch, else `Normal`) or a scale-out node (`Joining`).
    Activate,
    /// A joining node announces itself `Normal` (if still up).
    Normal,
    /// A decommissioned node announces `Leaving`.
    Leaving,
    /// A decommissioned node announces `Left`.
    Left,
    /// A decommissioned node departs for good.
    Depart,
    /// A fault-plan event fires; argument: its plan index.
    Fault,
    /// The flap-series sampler.
    SampleFlaps,
    /// The per-node utilization sampler (traced runs).
    SampleUtilization,
    /// A client-traffic tick.
    TrafficTick,
    /// The quiescence check.
    QuiesceCheck,
}

impl Ev {
    const ALL: [Ev; 19] = [
        Ev::Deliver,
        Ev::GossipTimer,
        Ev::FdTimer,
        Ev::RecvDone,
        Ev::SendDone,
        Ev::LockGranted,
        Ev::SnapshotTaken,
        Ev::CalcDone,
        Ev::HoldExpired,
        Ev::Activate,
        Ev::Normal,
        Ev::Leaving,
        Ev::Left,
        Ev::Depart,
        Ev::Fault,
        Ev::SampleFlaps,
        Ev::SampleUtilization,
        Ev::TrafficTick,
        Ev::QuiesceCheck,
    ];

    /// The kind the schedule explorer reorders this event as: the
    /// probe's kind table. Everything else is an internal continuation.
    fn tie_kind(self) -> u64 {
        match self {
            Ev::Deliver => tag::DELIVER,
            Ev::GossipTimer => tag::GOSSIP_TIMER,
            Ev::FdTimer => tag::FD_TIMER,
            Ev::RecvDone => tag::RECV_DONE,
            Ev::SendDone => tag::SEND_DONE,
            _ => tag::INTERNAL,
        }
    }
}

/// Packs an event payload: node index in the low word, the kind's
/// argument in the high word.
fn payload(i: usize, arg: u32) -> u64 {
    debug_assert!(i < u32::MAX as usize);
    (i as u64) | (arg as u64) << 32
}

/// A task completion's argument: its stage and, for a calculation,
/// whether it found pending ranges.
fn task_arg(stage: StageKind, has_pending: bool) -> u32 {
    u32::from(stage == StageKind::Calc) | u32::from(has_pending) << 1
}

/// Unpacks [`task_arg`].
fn task_bits(arg: u32) -> (StageKind, bool) {
    let stage = [StageKind::Gossip, StageKind::Calc][(arg & 1) as usize];
    (stage, arg & 2 != 0)
}

/// The slot store of messages in flight: a `Deliver` event's argument
/// names its envelope's slot. Its occupancy is the number of messages
/// the network accepted that have not arrived.
#[derive(Default)]
struct InFlight {
    slots: Vec<Option<Envelope>>,
    free: Vec<u32>,
}

impl InFlight {
    fn insert(&mut self, env: Envelope) -> u32 {
        let k = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("in-flight slot fits the payload")
        });
        self.slots[k as usize] = Some(env);
        k
    }

    fn take(&mut self, k: u32) -> Envelope {
        self.free.push(k);
        self.slots[k as usize]
            .take()
            .expect("a delivery's envelope is in flight")
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl ClusterState<'_> {
    fn total_flaps(&self) -> u64 {
        self.nodes.iter().map(|n| n.fd.flaps()).sum()
    }

    /// Schedules event `ev` for node `i` with argument `arg` at `at`.
    fn schedule(&self, ctx: &mut Ctx<'_>, at: SimTime, ev: Ev, i: usize, arg: u32) -> TimerId {
        ctx.schedule_handler_at(at, self.handlers[ev as usize], payload(i, arg))
    }

    /// Updates node `i`'s own ring state ([`Node::announce`]) and shares
    /// its view if that changed it.
    fn announce(&mut self, i: usize, info: RingInfo) {
        if self.nodes[i].announce(info) {
            self.views.share(&mut self.nodes[i].ring);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.in_flight.len() == 0
            && self.nodes.iter().all(|n| {
                n.lifecycle != Lifecycle::Up
                    || (n.stages.iter().all(|s| s.depth() == 0 && !s.is_busy())
                        && n.parked.iter().all(Option::is_none)
                        && !n.calc_dirty
                        && !n.calc_queued
                        && n.held.is_empty())
            })
    }
}

/// Runs one event: the one place an [`Ev`] meets the code it stands for.
fn dispatch(st: &mut ClusterState, ctx: &mut Ctx<'_>, ev: Ev, payload: u64) {
    let (i, arg) = (payload as u32 as usize, (payload >> 32) as u32);
    let (stage, has_pending) = task_bits(arg);
    match ev {
        Ev::Deliver => deliver(st, ctx, arg),
        Ev::GossipTimer => gossip_round(st, ctx, i),
        Ev::FdTimer => fd_check(st, ctx, i),
        Ev::RecvDone => finish_receive(st, ctx, i, stage),
        Ev::SendDone => finish_send_round(st, ctx, i, stage),
        Ev::LockGranted => lock_granted(st, ctx, i, stage),
        Ev::SnapshotTaken => begin_calc_compute(st, ctx, i, stage),
        Ev::CalcDone => finish_calc(st, ctx, i, stage, has_pending),
        Ev::HoldExpired => flush_expired_held(st, ctx, i),
        Ev::Activate => {
            let tokens = spread_tokens(NodeId(i as u32), st.cfg.vnodes);
            let bootstrap = matches!(st.cfg.workload, Workload::BootstrapFromScratch);
            let info = if bootstrap || i >= st.cfg.n_nodes {
                RingInfo::joining(tokens)
            } else {
                RingInfo::normal(tokens)
            };
            activate(st, ctx, i, info);
            if bootstrap {
                let normal_at = ctx.now() + st.cfg.rescale_window;
                st.schedule(ctx, normal_at, Ev::Normal, i, 0);
            }
        }
        Ev::Normal => {
            if st.nodes[i].lifecycle == Lifecycle::Up {
                let tokens = spread_tokens(NodeId(i as u32), st.cfg.vnodes);
                st.announce(i, RingInfo::normal(tokens));
            }
        }
        Ev::Leaving => {
            let tokens = st.nodes[i]
                .ring
                .node(NodeId(i as u32))
                .map(|s| s.tokens.to_vec())
                .unwrap_or_default();
            st.announce(
                i,
                RingInfo {
                    status: NodeStatus::Leaving,
                    tokens,
                },
            );
        }
        Ev::Left => st.announce(
            i,
            RingInfo {
                status: NodeStatus::Left,
                tokens: vec![],
            },
        ),
        Ev::Depart => stop_node(st, ctx, i, StopCause::Decommission),
        Ev::Fault => {
            let fault = st.cfg.faults.events[arg as usize].clone();
            fire_fault(st, ctx, &fault, arg as usize);
        }
        Ev::SampleFlaps => sample_flaps(st, ctx),
        Ev::SampleUtilization => sample_utilization(st, ctx),
        Ev::TrafficTick => traffic_tick(st, ctx),
        Ev::QuiesceCheck => quiesce_check(st, ctx),
    }
}

// ---------------------------------------------------------------------
// Setup.
// ---------------------------------------------------------------------

/// Registers one handler per [`Ev`] on `engine` (a fresh one: the probe
/// reads a handler's kind off its registration index) and builds the
/// cluster.
fn build<'a>(
    cfg: &ScenarioConfig,
    mode: RunMode,
    pil: Pil<'a, PendingWire>,
    engine: &mut Engine<ClusterState<'a>>,
) -> ClusterState<'a> {
    let handlers = Ev::ALL.map(|ev| {
        engine.register_handler(move |st: &mut ClusterState, ctx, p| dispatch(st, ctx, ev, p))
    });

    let total = cfg.total_nodes();
    let park_of = |mode: RunMode| mode.park(total, cfg.context_switch.model(mode));
    let park = park_of(mode);
    let machine_mem = vec![MemoryModel::new(cfg.memory.machine_capacity); park.len()];
    let pil_request_park = if pil.sleeps() {
        park_of(RunMode::Real)
    } else {
        MachinePark::default()
    };

    let bootstrap = matches!(cfg.workload, Workload::BootstrapFromScratch);
    let initial_status = if bootstrap {
        NodeStatus::Joining
    } else {
        NodeStatus::Normal
    };

    let root_rng = scalecheck_sim::DetRng::new(cfg.seed);
    let mut nodes = Vec::with_capacity(total);
    for i in 0..total {
        let id = NodeId(i as u32);
        let tokens = spread_tokens(id, cfg.vnodes);
        let info = RingInfo {
            status: if i < cfg.n_nodes {
                initial_status
            } else {
                NodeStatus::Joining
            },
            tokens,
        };
        nodes.push(Node::new(
            id,
            root_rng.fork(1000 + i as u64),
            info,
            cfg.rf,
            cfg.phi_threshold,
            cfg.gossip_interval,
        ));
    }

    let mut views = ViewStore::new();
    // Established members know each other; everyone knows the seeds.
    let seeds: Vec<NodeId> = (0..cfg.n_nodes.min(3)).map(|i| NodeId(i as u32)).collect();
    if !bootstrap {
        let member_states: Vec<(scalecheck_gossip::Peer, _)> = (0..cfg.n_nodes)
            .map(|j| {
                let id = NodeId(j as u32);
                (
                    peer_of(id),
                    scalecheck_gossip::EndpointState::new(
                        scalecheck_gossip::HeartbeatState {
                            generation: 1,
                            version: 0,
                        },
                        0,
                        RingInfo::normal(spread_tokens(id, cfg.vnodes)),
                    ),
                )
            })
            .collect();
        // Every member's ring view is this one table of all members, the
        // member itself included: its activation announces the status the
        // table already holds, which changes nothing, and no view is read
        // before its node is up. Building one table keeps the build
        // quadratic (`add_node` checks every token against every node
        // already in the table, so filling each view pair by pair is
        // cubic in N), and sharing it keeps the members' views at one
        // table until one of them changes. The table has a slot for all
        // `total` ids, so no copy of it grows; each node's per-peer tables
        // are sized once before its gossip view is seeded, here and for
        // the joiners below, so none of them doubles.
        let mut members = RingTable::new(cfg.rf);
        members.reserve_slots(total);
        for j in 0..cfg.n_nodes {
            let id = NodeId(j as u32);
            members
                .add_node(id, NodeStatus::Normal, spread_tokens(id, cfg.vnodes))
                .expect("distinct tokens");
        }
        let mut members = Arc::new(members);
        views.share(&mut members);
        #[allow(clippy::needless_range_loop)]
        for i in 0..cfg.n_nodes {
            nodes[i].ring = Arc::clone(&members);
            nodes[i].reserve_slots(total);
            for (peer, st) in &member_states {
                if peer.0 != i as u32 {
                    nodes[i].seed_peer(*peer, st.clone());
                }
            }
        }
    }
    // Joiners (and everyone at fresh bootstrap) know the seed addresses
    // only: a zeroed endpoint state that any real gossip supersedes. They
    // share one empty view until each announces itself.
    let joiner_range = if bootstrap {
        0..total
    } else {
        cfg.n_nodes..total
    };
    let mut empty = RingTable::new(cfg.rf);
    empty.reserve_slots(total);
    let mut empty = Arc::new(empty);
    views.share(&mut empty);
    for i in joiner_range {
        nodes[i].ring = Arc::clone(&empty);
        nodes[i].reserve_slots(total);
        for &s in &seeds {
            if s != NodeId(i as u32) {
                nodes[i].seed_peer(
                    peer_of(s),
                    scalecheck_gossip::EndpointState::new(
                        scalecheck_gossip::HeartbeatState {
                            generation: 0,
                            version: 0,
                        },
                        0,
                        RingInfo::normal(vec![]),
                    ),
                );
            }
        }
    }

    // Per-link fault windows are pure network state: install them up
    // front; the time bounds make them self-activating.
    let mut net = Network::new(cfg.network);
    for ev in &cfg.faults.events {
        match *ev {
            FaultEvent::DropWindow {
                from,
                until,
                src,
                dst,
                probability,
            } => net.add_drop_window(from, until, src.map(Addr), dst.map(Addr), probability),
            FaultEvent::DelayWindow {
                from,
                until,
                src,
                dst,
                extra,
            } => net.add_delay_window(from, until, src.map(Addr), dst.map(Addr), extra),
            FaultEvent::DuplicateWindow {
                from,
                until,
                src,
                dst,
                probability,
            } => net.add_duplicate_window(from, until, src.map(Addr), dst.map(Addr), probability),
            _ => {}
        }
    }

    // The run must not quiesce before every scheduled fault has fired
    // (and its convictions had time to land).
    let fault_horizon = if cfg.faults.is_empty() {
        SimTime::ZERO
    } else {
        cfg.faults.end_time() + FAULT_SETTLE
    };

    let traffic =
        scalecheck_traffic::TrafficState::new(cfg.traffic, &root_rng, cfg.network.latency);
    ClusterState {
        workload_end_at: (SimTime::ZERO + cfg.workload_end).max(fault_horizon),
        traffic,
        work_busy: vec![[0, 0, 0]; total],
        busy_sampled: vec![[0, 0, 0]; total],
        cfg: cfg.clone(),
        mode,
        nodes,
        views,
        ack_space: AckSpace::default(),
        outcome: ApplyOutcome::default(),
        net,
        park,
        pil_request_park,
        machine_mem,
        calc: CalcEngine::new(cfg.calculator, cfg.ns_per_op),
        pil,
        seeds,
        handlers,
        in_flight: InFlight::default(),
        deliveries: 0,
        discarded: 0,
        forced_releases: 0,
        flap_series: TimeSeries::new(),
        crashed: 0,
        stopped_quiescent: false,
        faults: FaultReport::default(),
    }
}

/// How long after the last fault fires the run keeps going before
/// quiescence may stop it: φ conviction of a silent peer takes ~18 s at
/// threshold 8, plus gossip rounds to recover after heals.
const FAULT_SETTLE: SimDuration = SimDuration::from_secs(45);

// ---------------------------------------------------------------------
// Node activation and per-node timers.
// ---------------------------------------------------------------------

fn activate(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, info: RingInfo) {
    // Memory admission: runtime overhead plus the node's ring table.
    let mem = &mut st.machine_mem[st.mode.machine_of(i).0];
    // Runtime and ring bytes are never freed and a failed allocation
    // records nothing, so a machine holding no bytes has not paid the
    // runtime yet.
    let first_on_machine = mem.in_use() == 0;
    let overhead = if st.cfg.memory.single_process && !first_on_machine {
        0
    } else {
        PER_PROCESS_OVERHEAD
    };
    let ring_bytes = (st.cfg.total_nodes() * st.cfg.vnodes) as u64 * BYTES_PER_RING_ENTRY;
    if mem.alloc(overhead).is_err() || mem.alloc(ring_bytes).is_err() {
        // The §8 symptom: "nodes receive out-of-memory exceptions and
        // crash".
        stop_node(st, ctx, i, StopCause::OutOfMemory);
        return;
    }

    st.nodes[i].lifecycle = Lifecycle::Up;
    st.announce(i, info);
    let interval = st.cfg.gossip_interval;
    let stagger = SimDuration::from_nanos(
        interval.as_nanos() * (i as u64 % st.cfg.total_nodes() as u64)
            / st.cfg.total_nodes().max(1) as u64,
    );
    arm_node_timers(st, ctx, i, stagger);
}

/// Arms node `i`'s periodic timers: the first gossip round `after` from
/// now, the first failure-detector check one `fd_interval` later. Every
/// [`stop_node`] cancels them, so they only ever fire for an `Up` node.
fn arm_node_timers(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, after: SimDuration) {
    let gossip_at = ctx.now() + after;
    st.nodes[i].gossip_timer = Some(st.schedule(ctx, gossip_at, Ev::GossipTimer, i, 0));
    let fd_at = gossip_at + st.cfg.fd_interval;
    st.nodes[i].fd_timer = Some(st.schedule(ctx, fd_at, Ev::FdTimer, i, 0));
}

fn gossip_round(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize) {
    let node = &mut st.nodes[i];
    debug_assert_eq!(node.lifecycle, Lifecycle::Up, "timer of a stopped node");
    node.gossip_timer = None;
    node.stages[StageKind::Gossip as usize].push(ctx.now(), Task::SendRound);
    pump(st, ctx, i, StageKind::Gossip);
    let next = ctx.now() + st.cfg.gossip_interval;
    st.nodes[i].gossip_timer = Some(st.schedule(ctx, next, Ev::GossipTimer, i, 0));
}

fn fd_check(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize) {
    let node = &mut st.nodes[i];
    debug_assert_eq!(node.lifecycle, Lifecycle::Up, "timer of a stopped node");
    node.fd_timer = None;
    // Failure detection runs on the node's local clock, which may be
    // fault-skewed ahead of virtual time.
    let newly_dead = node.fd.interpret_all(ctx.now() + node.clock_skew);
    let observer = node.id;
    for peer in newly_dead {
        scalecheck_obs::instant(
            SpanName::FdConvicted,
            observer.0,
            TID_GOSSIP,
            ctx.now().as_nanos(),
            crate::ringinfo::node_of(peer).0 as u64,
        );
    }
    let next = ctx.now() + st.cfg.fd_interval;
    st.nodes[i].fd_timer = Some(st.schedule(ctx, next, Ev::FdTimer, i, 0));
}

// ---------------------------------------------------------------------
// Stage pump and task lifecycle.
// ---------------------------------------------------------------------

fn pump(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind) {
    let now = ctx.now();
    let node = &mut st.nodes[i];
    if node.lifecycle != Lifecycle::Up {
        return;
    }
    let Some(task) = node.stages[stage as usize].try_begin(now) else {
        return;
    };
    start_task(st, ctx, i, stage, task);
}

/// Whether this task must hold the ring lock in the current mode.
fn needs_lock(cfg: &ScenarioConfig, stage: StageKind, task: &Task) -> bool {
    match cfg.locking {
        LockingMode::InlineOnGossipStage => false,
        LockingMode::CoarseLockThread | LockingMode::SnapshotThread => match task {
            Task::Receive(_) => stage == StageKind::Gossip,
            Task::Recalculate => stage == StageKind::Calc,
            Task::SendRound => false,
        },
    }
}

fn start_task(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind, task: Task) {
    let task = if needs_lock(&st.cfg, stage, &task) {
        // `None`: parked until the other stage hands the lock over.
        st.nodes[i].lock_ring(stage, task, ctx.now())
    } else {
        Some(task)
    };
    if let Some(task) = task {
        run_task(st, ctx, i, stage, task);
    }
}

/// Releases node `i`'s ring lock held by `stage`. The only possible
/// waiter is the node's other stage (a stage stays busy from taking the
/// lock until after releasing it, so it never waits for itself), which
/// gets it next.
fn release_ring_lock(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind) {
    let now = ctx.now();
    if let Some(next) = st.nodes[i].unlock_ring(stage, now) {
        st.schedule(ctx, now, Ev::LockGranted, i, task_arg(next, false));
    }
}

fn lock_granted(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind) {
    match st.nodes[i].parked[stage as usize].take() {
        Some((task, since)) => {
            scalecheck_obs::span(
                SpanName::LockWait,
                i as u32,
                stage as u32,
                since.as_nanos(),
                ctx.now().since(since).as_nanos(),
                0,
            );
            run_task(st, ctx, i, stage, task)
        }
        None => {
            // The waiter vanished (node crashed/departed): release so the
            // lock does not leak.
            release_ring_lock(st, ctx, i, stage);
        }
    }
}

/// Submits compute of `demand` for node `i`, returning its completion
/// time. In a replay, PIL-replaced work (`pil_replaced = true`) sleeps
/// instead of occupying a core.
///
/// `work` is the *kind* of work, not the stage hosting it: C3831 runs
/// the recalculation inline on the gossip stage, and the utilization
/// timeline must still bill that demand to calc for the divergence
/// analyzer's wait attribution to point at the right culprit.
fn compute(
    st: &mut ClusterState,
    now: SimTime,
    i: usize,
    demand: SimDuration,
    work: StageKind,
    pil_replaced: bool,
) -> SimTime {
    if pil_replaced && st.pil.sleeps() {
        now + demand
    } else {
        st.work_busy[i][work as usize] += demand.as_nanos();
        let machine = st.mode.machine_of(i);
        st.park.get_mut(machine).submit(now, demand).finish
    }
}

fn run_task(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind, task: Task) {
    let now = ctx.now();
    match task {
        Task::SendRound => {
            let endpoints = st.nodes[i].gossiper.endpoints().len() as u64;
            let demand = st.cfg.msg_base_cost + st.cfg.per_endpoint_cost.saturating_mul(endpoints);
            let done_at = compute(st, now, i, demand, StageKind::Gossip, false);
            scalecheck_obs::span(
                SpanName::GossipSendRound,
                i as u32,
                TID_GOSSIP,
                now.as_nanos(),
                done_at.since(now).as_nanos(),
                endpoints,
            );
            st.schedule(ctx, done_at, Ev::SendDone, i, task_arg(stage, false));
        }
        Task::Receive(env) => {
            let entries = env.msg.entries() as u64;
            let demand = st.cfg.msg_base_cost + st.cfg.per_endpoint_cost.saturating_mul(entries);
            let done_at = compute(st, now, i, demand, StageKind::Gossip, false);
            scalecheck_obs::span(
                SpanName::GossipReceive,
                i as u32,
                TID_GOSSIP,
                now.as_nanos(),
                done_at.since(now).as_nanos(),
                entries,
            );
            debug_assert!(st.nodes[i].receiving.is_none(), "one receive at a time");
            st.nodes[i].receiving = Some(env);
            st.schedule(ctx, done_at, Ev::RecvDone, i, task_arg(stage, false));
        }
        Task::Recalculate => match st.cfg.locking {
            LockingMode::SnapshotThread => {
                // Clone the ring under the lock (cheap), release early,
                // compute off-lock from the snapshot — the C5456 fix.
                let clone_cost =
                    SimDuration::from_nanos(100 * (st.cfg.total_nodes() * st.cfg.vnodes) as u64);
                let done_at = compute(st, now, i, clone_cost, StageKind::Calc, false);
                st.schedule(ctx, done_at, Ev::SnapshotTaken, i, task_arg(stage, false));
            }
            // Coarse mode: compute while holding the lock.
            _ => begin_calc_compute(st, ctx, i, stage),
        },
    }
}

/// Runs the pending-range calculation on node `i`'s ring view as it
/// stands, bills its compute and schedules its application. In
/// [`LockingMode::SnapshotThread`] the calculation stage holds the ring
/// lock here and releases it as soon as the calculation has read the
/// ring (the simulated snapshot is taken at this instant); in
/// [`LockingMode::CoarseLockThread`] it holds it until the compute is
/// done ([`finish_calc`]).
fn begin_calc_compute(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind) {
    let now = ctx.now();
    let node = &mut st.nodes[i];
    let changes = changes_of(&node.ring);
    let idx = node.calc_invocations;
    node.calc_invocations += 1;
    let (pending, duration) = st
        .calc
        .calculate(&mut st.pil, node.id.0, idx, &node.ring, &changes);
    if st.cfg.locking == LockingMode::SnapshotThread {
        release_ring_lock(st, ctx, i, StageKind::Calc);
    }
    let done_at = compute(st, now, i, duration, StageKind::Calc, true);
    if scalecheck_obs::enabled() {
        let name = if st.pil.sleeps() {
            SpanName::CalcPilSleep
        } else {
            SpanName::CalcRecalculate
        };
        // `duration = ops * ns_per_op` by construction, so the op count
        // round-trips exactly through the span's integer argument.
        let ops = duration.as_nanos() / st.cfg.ns_per_op.max(1);
        scalecheck_obs::span(
            name,
            i as u32,
            stage as u32,
            now.as_nanos(),
            done_at.since(now).as_nanos(),
            ops,
        );
        scalecheck_obs::metric(Metric::CalcDuration, done_at.since(now).as_nanos());
    }
    let arg = task_arg(stage, !pending.0.is_empty());
    st.schedule(ctx, done_at, Ev::CalcDone, i, arg);
}

fn changes_of(ring: &RingTable) -> Vec<scalecheck_ring::TopologyChange> {
    let mut out = Vec::new();
    for (id, ns) in ring.iter() {
        match ns.status {
            NodeStatus::Joining => out.push(scalecheck_ring::TopologyChange::Join {
                node: id,
                tokens: ns.tokens.to_vec(),
            }),
            NodeStatus::Leaving => out.push(scalecheck_ring::TopologyChange::Leave { node: id }),
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------
// Task completions.
// ---------------------------------------------------------------------

fn finish_send_round(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind) {
    let node = &mut st.nodes[i];
    if node.lifecycle == Lifecycle::Up {
        node.gossiper.beat();
        // Count-then-index target selection: same candidate order and
        // the same single RNG draw as collecting the list, without the
        // per-round O(N) scratch Vec.
        let me = node.id;
        let n_cand = node.gossip_candidate_count();
        let target = if n_cand > 0 {
            let k = node.rng.gen_index(n_cand);
            node.nth_gossip_candidate(k)
        } else {
            let n_seeds = st.seeds.iter().filter(|&&s| s != me).count();
            if n_seeds > 0 {
                let k = node.rng.gen_index(n_seeds);
                st.seeds.iter().copied().filter(|&s| s != me).nth(k)
            } else {
                None
            }
        };
        if let Some(target) = target {
            let syn = node.gossiper.make_syn();
            send_msg(st, ctx, i, target, GossipMessage::Syn(syn));
        }
    }
    end_task(st, ctx, i, stage);
}

fn finish_receive(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind) {
    let now = ctx.now();
    let env = st.nodes[i]
        .receiving
        .take()
        .expect("a receive is in progress");
    // Order bookkeeping at processing time.
    st.pil.processed(st.nodes[i].id.0, env.key);

    let mut trigger = false;
    if st.nodes[i].lifecycle == Lifecycle::Up {
        let src = env.src;
        let applied = match env.msg {
            GossipMessage::Syn(ref syn) => {
                let ack = st.nodes[i].gossiper.handle_syn_in(syn, &mut st.ack_space);
                send_msg(st, ctx, i, src, GossipMessage::Ack(ack));
                false
            }
            GossipMessage::Ack(ref ack) => {
                let ack2 =
                    st.nodes[i]
                        .gossiper
                        .handle_ack_in(ack, &mut st.ack_space, &mut st.outcome);
                if !ack2.is_empty() {
                    send_msg(st, ctx, i, src, GossipMessage::Ack2(ack2));
                }
                true
            }
            GossipMessage::Ack2(ref ack2) => {
                st.nodes[i].gossiper.handle_ack2_in(ack2, &mut st.outcome);
                true
            }
        };
        if applied {
            let node = &mut st.nodes[i];
            let outcome = &mut st.outcome;
            let local_now = now + node.clock_skew;
            let topology_changed = node.apply_outcome(outcome, local_now);
            if topology_changed {
                st.views.share(&mut node.ring);
            }
            // While a join/leave is pending, any applied gossip that
            // touches a Joining/Leaving peer recalculates. Pure, so it
            // hides behind the (almost always false) window check.
            // (`apply_outcome` dropped only peers that have `Left`,
            // which are in no transition.)
            let touched_pending = || {
                outcome
                    .heartbeat_advanced
                    .iter()
                    .chain(outcome.app_advanced.iter())
                    .any(|p| {
                        node.gossiper
                            .endpoint(*p)
                            .is_some_and(|s| s.app.status.in_transition())
                    })
            };
            trigger = topology_changed || (node.pending_window_open() && touched_pending());
        }
    }

    if trigger {
        match st.cfg.locking {
            LockingMode::InlineOnGossipStage => {
                // Cassandra's architecture: the calculation runs
                // synchronously inside gossip application — the stage
                // stays busy for the whole compute.
                begin_calc_compute(st, ctx, i, stage);
                release_held(st, ctx, i);
                return;
            }
            _ => {
                let node = &mut st.nodes[i];
                if node.calc_queued {
                    node.calc_dirty = true;
                } else {
                    node.calc_queued = true;
                    node.stages[StageKind::Calc as usize].push(now, Task::Recalculate);
                    // Pump after finishing this task (below).
                }
            }
        }
    }
    if st.nodes[i].holds_ring_lock(stage) {
        release_ring_lock(st, ctx, i, stage);
    }
    end_task(st, ctx, i, stage);
    release_held(st, ctx, i);
    pump(st, ctx, i, StageKind::Calc);
}

fn finish_calc(
    st: &mut ClusterState,
    ctx: &mut Ctx<'_>,
    i: usize,
    stage: StageKind,
    has_pending: bool,
) {
    apply_pending(st, ctx, i, has_pending);
    // Only a coarse-lock calculation still holds the lock here.
    if st.nodes[i].holds_ring_lock(stage) {
        release_ring_lock(st, ctx, i, stage);
    }
    // Thread modes: honour the dirty flag.
    if stage == StageKind::Calc {
        let now = ctx.now();
        let node = &mut st.nodes[i];
        if node.calc_dirty {
            node.calc_dirty = false;
            node.stages[StageKind::Calc as usize].push(now, Task::Recalculate);
        } else {
            node.calc_queued = false;
        }
    }
    end_task(st, ctx, i, stage);
}

/// Applies a computed pending-range set — whether it is non-empty is all
/// that matters — by modelling the §6 rebalance allocation if configured.
fn apply_pending(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, has_pending: bool) {
    let Some(strategy) = st.cfg.memory.rebalance_alloc else {
        return;
    };
    let machine = st.mode.machine_of(i).0;
    let per_service = (13 << 20) / 10; // 1.3 MB
    let n = st.cfg.total_nodes() as u64;
    let p = st.cfg.vnodes as u64;
    let want = if has_pending {
        match strategy {
            AllocStrategy::Naive => (n - 1) * p * per_service,
            AllocStrategy::Frugal => p * per_service,
        }
    } else {
        0
    };
    let have = st.nodes[i].rebalance_bytes;
    if want > have {
        if st.machine_mem[machine].alloc(want - have).is_err() {
            // OOM: the node crashes (§8).
            stop_node(st, ctx, i, StopCause::OutOfMemory);
            return;
        }
        st.nodes[i].rebalance_bytes = want;
    } else if want < have {
        st.machine_mem[machine].free(have - want);
        st.nodes[i].rebalance_bytes = want;
    }
}

/// Finishes the current stage task and pulls the next one.
fn end_task(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, stage: StageKind) {
    st.nodes[i].stages[stage as usize].finish();
    pump(st, ctx, i, stage);
}

// ---------------------------------------------------------------------
// Messaging.
// ---------------------------------------------------------------------

fn send_msg(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, dst: NodeId, msg: GossipMessage) {
    // Only the order log and an order-enforcing replay read the key.
    let key = if st.pil.orders_messages() {
        st.nodes[i].next_key(dst, msg.kind())
    } else {
        0
    };
    let src = st.nodes[i].id;
    let now = ctx.now();
    if let Ok(d) = st.net.offer(now, ctx.rng(), addr_of(src), addr_of(dst)) {
        scalecheck_obs::metric(Metric::NetDelay, d.deliver_at.since(now).as_nanos());
        let env = Envelope { src, dst, key, msg };
        let to = dst.0 as usize;
        if let Some(dup_at) = d.duplicate_at {
            // A duplication window fired: the same envelope arrives
            // twice (gossip application is idempotent on stale state).
            let slot = st.in_flight.insert(env.clone());
            st.schedule(ctx, dup_at, Ev::Deliver, to, slot);
        }
        let slot = st.in_flight.insert(env);
        st.schedule(ctx, d.deliver_at, Ev::Deliver, to, slot);
    }
}

fn deliver(st: &mut ClusterState, ctx: &mut Ctx<'_>, slot: u32) {
    let env = st.in_flight.take(slot);
    let i = env.dst.0 as usize;
    if i >= st.nodes.len() || st.nodes[i].lifecycle != Lifecycle::Up {
        st.discarded += 1;
        return;
    }
    st.deliveries += 1;
    let now = ctx.now();
    let gossip = &mut st.nodes[i].stages[StageKind::Gossip as usize];
    if let Some(enf) = st.pil.enforcer() {
        match enf.classify(env.dst.0, env.key) {
            OrderDecision::ProcessNow | OrderDecision::NotInLog => {
                gossip.push(now, Task::Receive(env));
            }
            OrderDecision::HoldForLater => {
                let deadline = now + st.cfg.order_hold_timeout;
                st.nodes[i].held.push((deadline, env));
                st.schedule(ctx, deadline, Ev::HoldExpired, i, 0);
                return;
            }
        }
    } else {
        gossip.push(now, Task::Receive(env));
    }
    pump(st, ctx, i, StageKind::Gossip);
}

/// Moves the next expected held message (if any) onto the stage.
fn release_held(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize) {
    let Some(enf) = st.pil.enforcer() else {
        return;
    };
    let node_id = st.nodes[i].id.0;
    let Some(expected) = enf.expected(node_id) else {
        // Log exhausted: flush everything held.
        let now = ctx.now();
        let node = &mut st.nodes[i];
        for (_, env) in node.held.drain(..) {
            node.stages[StageKind::Gossip as usize].push(now, Task::Receive(env));
        }
        pump(st, ctx, i, StageKind::Gossip);
        return;
    };
    let node = &mut st.nodes[i];
    if let Some(pos) = node.held.iter().position(|(_, e)| e.key == expected) {
        let (_, env) = node.held.remove(pos);
        node.stages[StageKind::Gossip as usize].push(ctx.now(), Task::Receive(env));
        pump(st, ctx, i, StageKind::Gossip);
    }
}

/// Releases held messages whose hold deadline has passed: replay
/// divergence must delay, not deadlock. Forced releases are counted.
fn flush_expired_held(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize) {
    let now = ctx.now();
    let mut released = false;
    let mut held = std::mem::take(&mut st.nodes[i].held);
    held.retain(|(deadline, env)| {
        if *deadline <= now {
            st.forced_releases += 1;
            st.nodes[i].stages[StageKind::Gossip as usize].push(now, Task::Receive(env.clone()));
            released = true;
            false
        } else {
            true
        }
    });
    st.nodes[i].held = held;
    if released {
        pump(st, ctx, i, StageKind::Gossip);
    }
}

// ---------------------------------------------------------------------
// Client traffic (the user-visible datapath).
// ---------------------------------------------------------------------

/// The coordinator's-eye fabric the traffic engine runs against each
/// tick. Requests resolve replicas against each coordinator's *own*
/// ring view and its failure detector's verdicts — the paper's
/// mechanism for turning flap storms into "data not reachable by the
/// users" — while coupled request service bills the shared machine
/// park and replica round trips ride the real network (per-link FIFO
/// clocks, partitions, fault windows).
struct LiveFabric<'a> {
    nodes: &'a [Node],
    net: &'a mut Network,
    park: &'a mut MachinePark,
    work_busy: &'a mut [[u64; 3]],
    /// The deployment whose machines `park` holds: the run's own, or in
    /// a replay `RunMode::Real` (the emulated real-scale request park).
    /// The processing illusion promises real-scale timing on colocated
    /// hardware — including real-scale per-node service queueing —
    /// without charging the emulated cluster's load to cores it is
    /// pretending to have more of.
    mode: RunMode,
    scratch: Vec<NodeId>,
}

impl scalecheck_traffic::ClusterFabric for LiveFabric<'_> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn is_live_coordinator(&self, i: usize) -> bool {
        self.nodes[i].lifecycle == Lifecycle::Up
    }

    fn rf(&self) -> usize {
        self.nodes.first().map_or(0, |n| n.ring.rf())
    }

    fn replicas_of(&mut self, coordinator: usize, key: u64, out: &mut Vec<u32>) {
        self.nodes[coordinator]
            .ring
            .replicas_of(Token(key), &mut self.scratch);
        out.extend(self.scratch.iter().map(|n| n.0));
    }

    fn replica_alive(&self, coordinator: usize, replica: u32) -> bool {
        let coord = &self.nodes[coordinator];
        if NodeId(replica) == coord.id {
            return true;
        }
        // Unknown peers count as alive (no conviction yet).
        coord.fd.liveness(peer_of(NodeId(replica))) != Some(Liveness::Dead)
    }

    fn bill_service(&mut self, node: u32, at: SimTime, demand: SimDuration) -> SimTime {
        // Request service is real work in every run; in a replay it
        // bills the emulated real-scale park (`self.park` and
        // `self.mode` are already swapped). The machine's core
        // allocator is monotone in submission order, so billing at a
        // future `at` (mid-request-lifecycle) is well-defined.
        let i = node as usize;
        self.work_busy[i][TID_REQUEST as usize] += demand.as_nanos();
        let machine = self.mode.machine_of(i);
        self.park.get_mut(machine).submit(at, demand).finish
    }

    fn send_data(
        &mut self,
        at: SimTime,
        src: u32,
        dst: u32,
        rng: &mut scalecheck_sim::DetRng,
    ) -> Option<SimTime> {
        self.net
            .offer_data(at, rng, addr_of(NodeId(src)), addr_of(NodeId(dst)))
    }
}

/// One traffic tick: classify the phase, lend the traffic engine the
/// live fabric, and rearm the timer. Exactly one engine schedule per
/// tick (first fire at 700 ms, then every arrival tick): committed
/// schedule witnesses depend on this sequence numbering.
fn traffic_tick(st: &mut ClusterState, ctx: &mut Ctx<'_>) {
    let now = ctx.now();
    let (start, end) = st.cfg.rescale_phase_span();
    let phase = if now < SimTime::ZERO + start {
        scalecheck_traffic::Phase::Pre
    } else if now <= SimTime::ZERO + end {
        scalecheck_traffic::Phase::Rescale
    } else {
        scalecheck_traffic::Phase::Post
    };
    {
        let ClusterState {
            nodes,
            net,
            mode,
            park,
            pil_request_park,
            work_busy,
            traffic,
            pil,
            ..
        } = st;
        let (park, mode) = if pil.sleeps() {
            (pil_request_park, RunMode::Real)
        } else {
            (park, *mode)
        };
        let mut fabric = LiveFabric {
            nodes,
            net,
            park,
            work_busy,
            mode,
            scratch: Vec::new(),
        };
        traffic.tick(now, phase, &mut fabric);
    }
    let next = now + st.traffic.config().arrival.tick;
    st.schedule(ctx, next, Ev::TrafficTick, 0, 0);
}

// ---------------------------------------------------------------------
// Workload scheduling.
// ---------------------------------------------------------------------

/// Schedules, through `at(time, kind, node, argument)`, the workload's
/// membership changes.
fn schedule_workload(at: &mut impl FnMut(SimTime, Ev, usize, u32), cfg: &ScenarioConfig) {
    match cfg.workload {
        Workload::Decommission { count, gap } => {
            let first = SimTime::from_secs(40);
            let window = cfg.rescale_window;
            for k in 0..count.min(cfg.n_nodes.saturating_sub(1)) {
                let i = cfg.n_nodes - 1 - k;
                let t = first + gap.saturating_mul(k as u64);
                at(t, Ev::Leaving, i, 0);
                at(t + window, Ev::Left, i, 0);
                at(t + window + SimDuration::from_secs(10), Ev::Depart, i, 0);
            }
        }
        Workload::ScaleOut { count, gap } => {
            let first = SimTime::from_secs(40);
            let window = cfg.rescale_window;
            for k in 0..count {
                let i = cfg.n_nodes + k;
                let t = first + gap.saturating_mul(k as u64);
                at(t, Ev::Activate, i, 0);
                at(t + window, Ev::Normal, i, 0);
            }
        }
        Workload::BootstrapFromScratch => {
            // Activation is handled in run(); the Normal flip happens
            // per-node 45 s after its activation.
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// Schedules every event of the scenario's fault plan on the engine's
/// virtual clock. Same-time events fire in plan order (the engine
/// breaks time ties by schedule sequence), so the fired-fault log is
/// deterministic.
fn schedule_faults(at: &mut impl FnMut(SimTime, Ev, usize, u32), cfg: &ScenarioConfig) {
    for (idx, ev) in cfg.faults.events.iter().enumerate() {
        let idx = u32::try_from(idx).expect("fault index fits the payload");
        at(ev.at(), Ev::Fault, 0, idx);
    }
}

fn fire_fault(st: &mut ClusterState, ctx: &mut Ctx<'_>, ev: &FaultEvent, idx: usize) {
    let now = ctx.now();
    let label = ev.label();
    // The instant's argument is the fault's plan index into
    // `cfg.faults.events`.
    scalecheck_obs::instant(
        SpanName::FaultInjected,
        ENGINE_PID,
        0,
        now.as_nanos(),
        idx as u64,
    );
    st.faults.fired.push(FiredFault { at: now, label });
    match ev {
        FaultEvent::Partition { a, b, .. } => set_partition(st, a, b, true),
        FaultEvent::Heal { a, b, .. } => set_partition(st, a, b, false),
        FaultEvent::Crash { node, .. } => {
            let i = *node as usize;
            if st.nodes[i].lifecycle == Lifecycle::Up {
                stop_node(st, ctx, i, StopCause::Crash);
            }
        }
        FaultEvent::Restart { node, .. } => restart_node(st, ctx, *node as usize),
        FaultEvent::ClockSkew { node, skew, .. } => {
            let i = *node as usize;
            if st.nodes[i].lifecycle == Lifecycle::Up {
                st.nodes[i].clock_skew = *skew;
                // Every conviction the skewed node issues from here on
                // is the fault's doing.
                st.nodes[i].fd.mark_all_fault_suspects();
            }
        }
        // Drop/delay/duplicate windows were installed into the network
        // at build time; firing them only logs the window opening.
        FaultEvent::DropWindow { .. }
        | FaultEvent::DelayWindow { .. }
        | FaultEvent::DuplicateWindow { .. } => {}
    }
}

/// Installs or removes a partition between node sets `a` and `b`, and
/// marks (or clears) cross-cut flap attribution on both sides.
fn set_partition(st: &mut ClusterState, a: &[u32], b: &[u32], up: bool) {
    for &x in a {
        for &y in b {
            if up {
                st.net.partition(Addr(x), Addr(y));
            } else {
                st.net.heal(Addr(x), Addr(y));
            }
            let (xi, yi) = (x as usize, y as usize);
            st.nodes[xi].fd.set_fault_suspect(peer_of(NodeId(y)), up);
            st.nodes[yi].fd.set_fault_suspect(peer_of(NodeId(x)), up);
        }
    }
}

/// Why a node stops.
#[derive(Clone, Copy)]
enum StopCause {
    /// A fault-plan crash of an `Up` node: it keeps its gossip identity
    /// for a later restart and stays in the ring.
    Crash,
    /// The node ran out of memory, starting or rebalancing (§8), and is
    /// gone for good.
    OutOfMemory,
    /// The decommissioned node departs for good.
    Decommission,
}

/// Stops node `i`'s process: the one way a node leaves `Up`. Every cause
/// cancels its periodic timers and drops its queued and parked work
/// ([`Node::stop`]); a task already running still completes, on a node
/// that no longer processes, sends or times. A crash also drops the
/// messages held for their recorded turn and tells every peer that the
/// convictions of this node are the fault's doing; a departure closes an
/// outage the node was in.
fn stop_node(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize, cause: StopCause) {
    let now = ctx.now();
    let node = &mut st.nodes[i];
    let timers = [node.gossip_timer.take(), node.fd_timer.take()];
    for t in timers.into_iter().flatten() {
        ctx.cancel(t);
    }
    let was = node.lifecycle;
    node.stop(match cause {
        StopCause::Crash => Lifecycle::Crashed { since: now },
        StopCause::OutOfMemory | StopCause::Decommission => Lifecycle::Departed,
    });
    if let Lifecycle::Crashed { since } = was {
        *st.faults.downtime.entry(i as u32).or_default() += now.since(since);
    }
    let id = node.id;
    match cause {
        StopCause::Crash => {
            debug_assert_eq!(was, Lifecycle::Up, "only an up node crashes");
            node.held.clear();
            st.faults.crashes += 1;
            for k in 0..st.nodes.len() {
                if k != i {
                    st.nodes[k].fd.set_fault_suspect(peer_of(id), true);
                }
            }
        }
        StopCause::OutOfMemory => {
            let machine = st.mode.machine_of(i).0;
            st.machine_mem[machine].free(std::mem::take(&mut node.rebalance_bytes));
            st.crashed += 1;
            // A node that dies of OOM as it starts never ran: its track
            // shows no crash.
            if was == Lifecycle::Down {
                return;
            }
        }
        StopCause::Decommission => return,
    }
    scalecheck_obs::instant(SpanName::NodeCrashed, id.0, TID_GOSSIP, now.as_nanos(), 0);
}

/// Brings a fault-crashed node back: fresh gossip generation, empty
/// failure-detection history, restarted timers. No-op unless the node
/// is currently down from a [`FaultEvent::Crash`].
fn restart_node(st: &mut ClusterState, ctx: &mut Ctx<'_>, i: usize) {
    let Lifecycle::Crashed { since: down_at } = st.nodes[i].lifecycle else {
        return;
    };
    let now = ctx.now();
    *st.faults.downtime.entry(i as u32).or_default() += now.since(down_at);
    st.faults.restarts += 1;

    let vnodes = st.cfg.vnodes;
    let node = &mut st.nodes[i];
    node.lifecycle = Lifecycle::Up;
    node.clock_skew = SimDuration::ZERO;
    node.gossiper.restart();
    node.fd.reset_monitoring();
    // Re-announce with the status the node's own ring view still holds;
    // the bumped generation makes peers take the fresh state.
    let status = node
        .ring
        .node(node.id)
        .map(|s| s.status)
        .unwrap_or(NodeStatus::Normal);
    let tokens = spread_tokens(node.id, vnodes);
    let id = node.id;
    st.announce(i, RingInfo { status, tokens });
    let peer = peer_of(id);
    for k in 0..st.nodes.len() {
        if k != i {
            st.nodes[k].fd.set_fault_suspect(peer, false);
        }
    }
    arm_node_timers(st, ctx, i, SimDuration::ZERO);
}

// ---------------------------------------------------------------------
// The run loop.
// ---------------------------------------------------------------------

/// Runs a scenario with its nodes computing as `mode` says and its
/// PIL-replaced function doing as `pil` says, to quiescence (or the hard
/// cap), and reports. `Pil::Execute` is Real or basic colocation,
/// `Pil::Record` the memoization run, `Pil::Replay` the PIL replay; any
/// pair is a run.
pub fn run_scenario(cfg: &ScenarioConfig, mode: RunMode, pil: Pil<'_, PendingWire>) -> RunReport {
    let (mut engine, state) = simulate(cfg, mode, pil);
    let ended = engine.now();
    let tracer = scalecheck_obs::take();
    let probe = cfg.record_schedule.then(|| ScheduleProbe {
        fires: engine.take_fire_log(),
        kinds: Ev::ALL.map(Ev::tie_kind).to_vec(),
    });
    let mut report = assemble_report(&state, ended, engine.counters(), tracer);
    report.schedule_probe = probe;
    report
}

/// Builds the cluster, schedules its workload and faults, and runs it to
/// quiescence or the hard cap. The run's trace, if it is traced, is left
/// installed for the caller to take.
fn simulate<'a>(
    cfg: &ScenarioConfig,
    mode: RunMode,
    pil: Pil<'a, PendingWire>,
) -> (Engine<ClusterState<'a>>, ClusterState<'a>) {
    if let Err(msg) = cfg.validate() {
        panic!("invalid ScenarioConfig: {msg}");
    }
    let mut engine: Engine<ClusterState> =
        Engine::with_tie_order(cfg.seed, SchedulerKind::Wheel, &cfg.tie_order);
    if cfg.record_schedule {
        engine.record_fires(true);
    }
    let mut state = build(cfg, mode, pil, &mut engine);

    let handlers = state.handlers;
    let mut at = |t: SimTime, ev: Ev, i: usize, arg: u32| {
        engine.schedule_handler_at(t, handlers[ev as usize], payload(i, arg));
    };
    // Activate the initial population.
    let bootstrap = matches!(cfg.workload, Workload::BootstrapFromScratch);
    for i in 0..cfg.n_nodes {
        let stagger = if bootstrap {
            SimDuration::from_millis((i as u64 * 5000) / cfg.n_nodes.max(1) as u64)
        } else {
            SimDuration::ZERO
        };
        at(SimTime::ZERO + stagger, Ev::Activate, i, 0);
    }
    schedule_workload(&mut at, cfg);
    schedule_faults(&mut at, cfg);
    at(SimTime::ZERO, Ev::SampleFlaps, 0, 0);
    if cfg.trace.enabled {
        let first = SimTime::ZERO + SimDuration::from_nanos(cfg.trace.sample_every_ns);
        at(first, Ev::SampleUtilization, 0, 0);
    }
    // Client traffic (the user-visible impact of flapping).
    if state.traffic.config().enabled() {
        at(SimTime::from_millis(700), Ev::TrafficTick, 0, 0);
    }
    at(SimTime::from_millis(300), Ev::QuiesceCheck, 0, 0);

    // The thread-local tracer collects spans for this run only; per-thread
    // isolation keeps traces byte-identical at any sweep parallelism.
    if cfg.trace.enabled {
        scalecheck_obs::install(scalecheck_obs::Tracer::new());
    } else {
        scalecheck_obs::clear();
    }

    let deadline = SimTime::ZERO + cfg.max_duration;
    engine.run_until(&mut state, deadline);
    (engine, state)
}

/// Flap-series sampling.
fn sample_flaps(st: &mut ClusterState, ctx: &mut Ctx<'_>) {
    let flaps = st.total_flaps();
    st.flap_series.push(ctx.now(), flaps as f64);
    let next = ctx.now() + SimDuration::from_secs(5);
    st.schedule(ctx, next, Ev::SampleFlaps, 0, 0);
}

/// Per-node per-work-kind utilization timelines (virtual-time sampled):
/// each tick differences the cumulative CPU demand billed by `compute`
/// and emits permille-of-interval counters. Demand is credited at
/// submission, so a window in which a long recalculation starts can read
/// above 1000‰. Pure observation — no RNG draws, no state the simulation
/// reads — so enabling it cannot perturb a run.
fn sample_utilization(st: &mut ClusterState, ctx: &mut Ctx<'_>) {
    let ts = ctx.now().as_nanos();
    let interval = st.cfg.trace.sample_every_ns;
    for i in 0..st.nodes.len() {
        let busy = st.work_busy[i];
        let prev = std::mem::replace(&mut st.busy_sampled[i], busy);
        // The slot is the track id: gossip, calc, request.
        for (tid, (busy, prev)) in busy.into_iter().zip(prev).enumerate() {
            let permille = busy.saturating_sub(prev) * 1000 / interval;
            scalecheck_obs::counter(
                SpanName::StageUtilization,
                i as u32,
                tid as u32,
                ts,
                permille,
            );
        }
    }
    let next = ctx.now() + SimDuration::from_nanos(interval);
    st.schedule(ctx, next, Ev::SampleUtilization, 0, 0);
}

/// Quiescence detection after the workload completes.
fn quiesce_check(st: &mut ClusterState, ctx: &mut Ctx<'_>) {
    if ctx.now() >= st.workload_end_at && st.is_quiescent() {
        st.stopped_quiescent = true;
        ctx.stop();
    } else {
        let next = ctx.now() + SimDuration::from_millis(2300);
        st.schedule(ctx, next, Ev::QuiesceCheck, 0, 0);
    }
}

fn assemble_report(
    st: &ClusterState,
    ended: SimTime,
    engine: EngineCounters,
    tracer: Option<scalecheck_obs::Tracer>,
) -> RunReport {
    let mut lateness = scalecheck_obs::LogHistogram::new();
    for stage in st.nodes.iter().flat_map(|n| &n.stages) {
        lateness.merge(stage.lateness());
    }
    let cpu_utilization = st
        .park
        .iter()
        .map(|(_, m)| m.utilization(ended))
        .fold(0.0f64, f64::max);
    let peak_runnable = st
        .park
        .iter()
        .map(|(_, m)| m.peak_runnable())
        .max()
        .unwrap_or(0);
    // Every message the network accepted, duplicates included, arrived
    // (delivered or discarded at a node that was not up) or is still in
    // flight.
    debug_assert_eq!(
        st.net.sent() + st.net.fault_duplicated(),
        st.deliveries + st.net.dropped() + st.discarded + st.in_flight.len() as u64,
        "message conservation"
    );
    let mem_peak_bytes = st.machine_mem.iter().map(|m| m.peak()).max().unwrap_or(0);
    let oom_events = st.machine_mem.iter().map(|m| m.oom_events()).sum();

    let mut obs = tracer.map(|t| t.finish()).unwrap_or_default();
    obs.meta = scalecheck_obs::TraceMeta {
        label: format!("n{}_seed{}", st.cfg.total_nodes(), st.cfg.seed),
        seed: st.cfg.seed,
        n_nodes: st.cfg.total_nodes() as u32,
        end_ns: ended.as_nanos(),
        engine_scheduled: engine.scheduled,
        engine_fired: engine.fired,
        engine_cancelled: engine.cancelled,
        engine_pool_hits: engine.pool_hits,
        engine_pool_misses: engine.pool_misses,
    };

    RunReport {
        total_flaps: st.total_flaps(),
        per_node_flaps: st.nodes.iter().map(|n| n.fd.flaps()).collect(),
        recoveries: st.nodes.iter().map(|n| n.fd.recoveries()).sum(),
        flap_series: st.flap_series.clone(),
        duration: ended.since(SimTime::ZERO),
        quiesced: st.stopped_quiescent,
        calc: st.calc.stats(st.pil.stats()),
        memo: st.pil.stats(),
        messages_sent: st.net.sent(),
        messages_dropped: st.net.dropped(),
        messages_delivered: st.deliveries,
        max_stage_lateness: SimDuration::from_nanos(lateness.max),
        p99_stage_lateness: SimDuration::from_nanos(lateness.quantile_permille(990)),
        cpu_utilization,
        peak_runnable,
        mem_peak_bytes,
        oom_events,
        crashed_nodes: st.crashed,
        order_out_of_log: st.pil.out_of_log(),
        order_forced_releases: st.forced_releases,
        traffic: st.traffic.report(),
        engine,
        // Every stop cancels the node's timers: none fires stale.
        stale_timer_fires: 0,
        faults: assemble_fault_report(st, ended),
        obs,
        schedule_probe: None,
    }
}

fn assemble_fault_report(st: &ClusterState, ended: SimTime) -> FaultReport {
    let mut faults = FaultReport {
        fault_dropped: st.net.dropped_by_fault() + st.net.dropped_by_partition(),
        fault_delayed: st.net.fault_delayed(),
        fault_duplicated: st.net.fault_duplicated(),
        attributed_flaps: st.nodes.iter().map(|n| n.fd.fault_attributed_flaps()).sum(),
        ..st.faults.clone()
    };
    // Nodes still crashed at run end accrue downtime through `ended`.
    for (i, node) in st.nodes.iter().enumerate() {
        if let Lifecycle::Crashed { since } = node.lifecycle {
            *faults.downtime.entry(i as u32).or_default() += ended.since(since);
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The construction `build` replaced, kept as the reference: an empty
    /// view per node, then one checked `add_node` per established member.
    /// Joiners and bootstrapping nodes start with an empty view.
    ///
    /// Member `i` is in its own view: the view is read only once the
    /// node is `Up`, and from its activation on (which announces `i` as
    /// `Normal`) the view holds `i` whether the build put it there or
    /// the announcement did.
    fn per_pair_view(cfg: &ScenarioConfig, i: usize) -> RingTable {
        let mut view = RingTable::new(cfg.rf);
        if matches!(cfg.workload, Workload::BootstrapFromScratch) || i >= cfg.n_nodes {
            return view;
        }
        for j in 0..cfg.n_nodes {
            let jid = NodeId(j as u32);
            view.add_node(jid, NodeStatus::Normal, spread_tokens(jid, cfg.vnodes))
                .expect("distinct tokens");
        }
        view
    }

    type ViewContents = (Vec<(NodeId, NodeStatus, Vec<Token>)>, Vec<u8>, bool);

    /// Everything a view shows: its entries, the canonical bytes memo
    /// digests hash, and whether a change is pending.
    fn contents(ring: &RingTable) -> ViewContents {
        let entries = ring
            .iter()
            .map(|(id, st)| (id, st.status, st.tokens.to_vec()))
            .collect();
        let mut bytes = Vec::new();
        ring.write_canonical(&mut bytes);
        (entries, bytes, ring.has_pending_change())
    }

    /// Differential: every node's pre-filled view is the per-pair one —
    /// on a 1-vnode baseline, on c3881 (32 vnodes, plus two joiners whose
    /// views are not pre-filled) and on c6127 (bootstrap: none is). And
    /// the views are two tables, not one per node: every established
    /// member holds the one members table, every joiner the one empty
    /// table.
    #[test]
    fn every_view_equals_the_per_pair_construction() {
        let cells = [
            ("baseline(64)", ScenarioConfig::baseline(64, 1), 64),
            ("c3881(48)", ScenarioConfig::c3881(48, 1), 48),
            ("c6127(24)", ScenarioConfig::c6127(24, 1), 0),
        ];
        for (name, cfg, prefilled) in cells {
            let state = build(
                &cfg,
                RunMode::Real,
                Pil::Execute,
                &mut Engine::new(cfg.seed),
            );
            assert_eq!(state.nodes.len(), cfg.total_nodes(), "{name}");
            let mut filled = 0;
            for (i, node) in state.nodes.iter().enumerate() {
                let want = per_pair_view(&cfg, i);
                assert!(
                    contents(&node.ring) == contents(&want),
                    "{name}: node {i}'s view differs from the per-pair one \
                     ({} vs {} entries)",
                    node.ring.iter().count(),
                    want.iter().count()
                );
                filled += usize::from(want.iter().next().is_some());
            }
            assert_eq!(filled, prefilled, "{name}: pre-filled views");
            let (members, joiners) = state.nodes.split_at(prefilled);
            for group in [members, joiners] {
                assert!(
                    group.iter().all(|n| Arc::ptr_eq(&n.ring, &group[0].ring)),
                    "{name}: a group's views are not one table"
                );
            }
            let groups = usize::from(!members.is_empty()) + usize::from(!joiners.is_empty());
            assert_eq!(state.views.live_tables(), groups, "{name}: live tables");
        }
    }

    /// Views that diverge while a change spreads merge again once it has
    /// spread: after a `baseline(64)` run has decommissioned its node and
    /// quiesced, every `Up` node's view is one table. So is the departed
    /// node's: its last write took itself out of its view.
    #[test]
    fn views_merge_again_after_a_decommission() {
        let cfg = ScenarioConfig::baseline(64, 1);
        let (_, state) = simulate(&cfg, RunMode::Real, Pil::Execute);
        assert!(state.stopped_quiescent, "the run quiesced");
        let (up, gone): (Vec<&Node>, Vec<&Node>) = state
            .nodes
            .iter()
            .partition(|n| n.lifecycle == Lifecycle::Up);
        assert_eq!((up.len(), gone.len()), (63, 1));
        assert!(
            up.iter().all(|n| Arc::ptr_eq(&n.ring, &up[0].ring)),
            "the up nodes' views are {} tables",
            state.views.live_tables() - 1
        );
        assert_eq!(up[0].ring.iter().count(), 63);
        assert!(!up[0].ring.has_pending_change());
        assert!(Arc::ptr_eq(&gone[0].ring, &up[0].ring));
        assert_eq!(state.views.live_tables(), 1);
    }
}
