//! Layer replay: each layer's public functions driven directly, on
//! inputs of the workload's shape, timed from outside.
//!
//! The crates carry no host-clock instrumentation yet, so the traced run
//! cannot see inside a cell. What it can do is call the functions a cell
//! spends its time in — with the cell's N, calculator, traffic shape and
//! state sizes — and multiply the measured cost per call by the count the
//! cell's own `RunReport` gives. [`crate::metrics`] turns that into the
//! per-layer share of a run's wall time; what it cannot explain is
//! `cluster.residual_share`.
//!
//! Each function runs in batches until it has made [`Bench::max_calls`]
//! calls or used [`Bench::budget`] (at least three batches), and reports
//! the median batch cost per call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scalecheck_cluster::{CalcEngine, CalcVersion, PendingWire, RingInfo, ScenarioConfig};
use scalecheck_gossip::{FailureDetector, Gossiper, Peer};
use scalecheck_memo::{Digest128, MemoDb};
use scalecheck_net::{Addr, LatencyModel, Network};
use scalecheck_obs::{LogHistogram, SpanName, Tracer, TID_GOSSIP};
use scalecheck_ring::{
    spread_tokens, FreshRingQuadratic, NodeId, NodeStatus, OpCounter, PendingRangeCalculator,
    RingTable, Token, TopologyChange, V1Cubic, V2Quadratic, V3VnodeAware,
};
use scalecheck_sim::{
    CtxSwitchModel, DetRng, Engine, HandlerId, Machine, SchedulerKind, SimDuration, SimTime,
};
use scalecheck_traffic::{ClusterFabric, Phase, TrafficState};

use crate::host::{median, rss_mib};
use crate::spans::Spans;
use crate::workloads::{scenario, Size, WorkloadId};

/// The stopwatch every replayed function runs under.
struct Bench<'a> {
    spans: &'a mut Spans,
    /// Calls after which a function stops being measured.
    max_calls: u64,
    /// Host time after which a function stops being measured.
    budget: Duration,
}

impl Bench<'_> {
    /// 100k calls or half a second per function at full size — half the
    /// second the issue sized, so that a traced run fits the driver's
    /// per-run time cap beside the workload itself. Smoke only proves
    /// that every function runs.
    fn new(spans: &mut Spans, size: Size) -> Bench<'_> {
        let (max_calls, budget_ms) = match size {
            Size::Full => (100_000, 500),
            Size::Smoke => (2_000, 20),
        };
        Bench {
            spans,
            max_calls,
            budget: Duration::from_millis(budget_ms),
        }
    }

    /// Times `batch` repeatedly (it returns how many calls it made) and
    /// returns the median ns per call over the batches.
    fn run(&mut self, name: &'static str, mut batch: impl FnMut() -> u64) -> f64 {
        let (max_calls, budget) = (self.max_calls, self.budget);
        self.spans.scope_calls(name, |_| {
            let started = Instant::now();
            let mut ns_per_call = Vec::new();
            let mut calls = 0;
            while ns_per_call.len() < 3 || (calls < max_calls && started.elapsed() < budget) {
                let t = Instant::now();
                let made = batch();
                ns_per_call.push(t.elapsed().as_nanos() as f64 / made.max(1) as f64);
                calls += made;
            }
            (median(&ns_per_call), calls)
        })
    }
}

/// Calls per batch for sub-microsecond functions.
const SMALL_BATCH: u64 = 5_000;

/// The `k`-th (src, dst) pair of a schedule that visits every ordered
/// pair of `n` distinct endpoints before repeating one.
fn pair(k: u64, n: u64) -> (u32, u32) {
    let src = k % n;
    let hop = 1 + (k / n) % (n - 1);
    (src as u32, ((src + hop) % n) as u32)
}

struct Lanes {
    handler: Option<HandlerId>,
    fired: u64,
}

/// `sim.engine_ns_per_event`: N periodic handler timers (one per node,
/// 1 s apart, phases spread) on the wheel scheduler — schedule + fire.
fn engine(b: &mut Bench<'_>, n: u64, seed: u64) -> f64 {
    let mut engine: Engine<Lanes> = Engine::with_scheduler(seed, SchedulerKind::Wheel);
    let period = SimDuration::from_secs(1);
    let handler = engine.register_handler(move |st: &mut Lanes, ctx, lane| {
        st.fired += 1;
        ctx.schedule_handler_after(period, st.handler.expect("set before run"), lane);
    });
    let mut st = Lanes {
        handler: Some(handler),
        fired: 0,
    };
    for lane in 0..n {
        let phase = SimDuration::from_nanos(1 + lane * 1_000_000_000 / n);
        engine.schedule_handler_after(phase, handler, lane);
    }
    let step = SimDuration::from_nanos(SMALL_BATCH * 1_000_000_000 / n);
    let mut deadline = SimTime::ZERO;
    b.run("sim.engine", || {
        let before = st.fired;
        deadline += step;
        engine.run_until(&mut st, deadline);
        st.fired - before
    })
}

/// `sim.cpu_submit_ns`: a 16-core machine taking a burst of N gossip-
/// sized tasks every virtual second, so up to N are runnable at once.
fn cpu_submit(b: &mut Bench<'_>, n: u64) -> f64 {
    let mut machine = Machine::new(scalecheck::COLO_CORES, CtxSwitchModel::commodity());
    let demand = SimDuration::from_micros(60);
    let mut k = 0u64;
    b.run("sim.cpu_submit", || {
        for _ in 0..SMALL_BATCH {
            let now = SimTime::from_secs(1 + k / n);
            black_box(machine.submit(now, demand));
            k += 1;
        }
        SMALL_BATCH
    })
}

/// `net.offer_ns` / `net.offer_data_ns` over N addresses, every link
/// visited in turn (the per-link FIFO clock tiles are all touched).
fn network(b: &mut Bench<'_>, cfg: &ScenarioConfig, n: u64, seed: u64) -> (f64, f64) {
    let mut rng = DetRng::new(seed);
    let mut net = Network::new(cfg.network);
    let mut k = 0u64;
    let offer = b.run("net.offer", || {
        for _ in 0..SMALL_BATCH {
            let (src, dst) = pair(k, n);
            let now = SimTime::from_nanos(k * 1_000);
            let _ = black_box(net.offer(now, &mut rng, Addr(src), Addr(dst)));
            k += 1;
        }
        SMALL_BATCH
    });
    let mut net = Network::new(cfg.network);
    let mut k = 0u64;
    let offer_data = b.run("net.offer_data", || {
        for _ in 0..SMALL_BATCH {
            let (src, dst) = pair(k, n);
            let now = SimTime::from_nanos(k * 1_000);
            black_box(net.offer_data(now, &mut rng, Addr(src), Addr(dst)));
            k += 1;
        }
        SMALL_BATCH
    });
    (offer, offer_data)
}

/// N fully meshed gossipers and failure detectors, built the way
/// `cluster::runner` seeds an established cluster.
struct Mesh {
    gossipers: Vec<Gossiper<RingInfo>>,
    detectors: Vec<FailureDetector>,
    /// Virtual time of the last heartbeat every detector saw.
    last_beat: SimTime,
}

fn build_mesh(cfg: &ScenarioConfig, fd_samples: u64) -> Mesh {
    let n = cfg.n_nodes as u32;
    let mut gossipers: Vec<Gossiper<RingInfo>> = (0..n)
        .map(|i| {
            let info = RingInfo::normal(spread_tokens(NodeId(i), cfg.vnodes));
            Gossiper::new(Peer(i), 1, info)
        })
        .collect();
    let members: Vec<_> = gossipers
        .iter()
        .map(|g| (g.me(), g.endpoint(g.me()).expect("own state").clone()))
        .collect();
    for g in &mut gossipers {
        for (peer, state) in &members {
            g.seed_peer(*peer, state.clone());
        }
    }
    let mut detectors: Vec<FailureDetector> = (0..n)
        .map(|_| FailureDetector::new(cfg.phi_threshold, cfg.gossip_interval))
        .collect();
    for (i, fd) in detectors.iter_mut().enumerate() {
        for s in 0..=fd_samples {
            for j in (0..n).filter(|&j| j as usize != i) {
                fd.report(Peer(j), SimTime::from_secs(s));
            }
        }
    }
    Mesh {
        gossipers,
        detectors,
        last_beat: SimTime::from_secs(fd_samples),
    }
}

/// Two distinct gossipers out of the mesh, mutably.
fn two<T>(xs: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = xs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// `gossip.exchange_ns` (heartbeat-only) or `gossip.exchange_churn_ns`
/// (the initiator's app state changed, so full states travel): node
/// `k mod N` beats and runs one syn → ack → ack2 round with a random
/// peer, as a gossip round does.
fn exchange(b: &mut Bench<'_>, mesh: &mut Mesh, rng: &mut DetRng, churn: bool) -> f64 {
    let n = mesh.gossipers.len();
    let batch = (n as u64).min(256);
    let mut k = 0usize;
    let name = if churn {
        "gossip.exchange_churn"
    } else {
        "gossip.exchange"
    };
    b.run(name, || {
        for _ in 0..batch {
            let a = k % n;
            let b = (a + 1 + rng.gen_index(n - 1)) % n;
            let (ga, gb) = two(&mut mesh.gossipers, a, b);
            if churn {
                let info = ga.my_app().clone();
                ga.update_app(info);
            }
            ga.beat();
            let syn = ga.make_syn();
            let ack = gb.handle_syn(&syn);
            let (_, ack2) = ga.handle_ack(&ack);
            black_box(gb.handle_ack2(&ack2));
            k += 1;
        }
        batch
    })
}

/// `gossip.fd_sweep_ns`: each node's once-per-interval φ sweep over its
/// N−1 peers, node after node (so each sweep walks cold state, as in a
/// cell). Half an interval after the last beat nobody is convicted.
fn fd_sweep(b: &mut Bench<'_>, mesh: &mut Mesh) -> f64 {
    let n = mesh.detectors.len();
    let at = mesh.last_beat + SimDuration::from_millis(500);
    let mut k = 0usize;
    b.run("gossip.fd_sweep", || {
        let batch = n.min(64);
        for _ in 0..batch {
            black_box(mesh.detectors[k % n].interpret_all(at));
            k += 1;
        }
        batch as u64
    })
}

/// `gossip.fd_report_ns`: one heartbeat arrival, a different
/// (observer, peer) monitor each call.
fn fd_report(b: &mut Bench<'_>, mesh: &mut Mesh) -> f64 {
    let n = mesh.detectors.len() as u64;
    let base = mesh.last_beat;
    let mut k = 0u64;
    b.run("gossip.fd_report", || {
        for _ in 0..SMALL_BATCH {
            let (observer, peer) = pair(k, n);
            let now = base + SimDuration::from_secs(1 + k / (n * (n - 1)));
            mesh.detectors[observer as usize].report(Peer(peer), now);
            k += 1;
        }
        SMALL_BATCH
    })
}

fn calculator(version: CalcVersion) -> Box<dyn PendingRangeCalculator> {
    match version {
        CalcVersion::V1Cubic => Box::new(V1Cubic),
        CalcVersion::V2Quadratic => Box::new(V2Quadratic),
        CalcVersion::V3VnodeAware => Box::new(V3VnodeAware),
        CalcVersion::FreshRing => Box::new(FreshRingQuadratic),
    }
}

/// Constant-time stand-in for the live cluster, so that
/// `TrafficState::tick` is timed without the network, ring and CPU
/// models it calls through the fabric (those have their own rows).
struct StubFabric {
    n: usize,
    rf: usize,
}

impl ClusterFabric for StubFabric {
    fn node_count(&self) -> usize {
        self.n
    }
    fn is_live_coordinator(&self, _i: usize) -> bool {
        true
    }
    fn rf(&self) -> usize {
        self.rf
    }
    fn replicas_of(&mut self, _coordinator: usize, key: u64, out: &mut Vec<u32>) {
        let first = key % self.n as u64;
        out.extend((0..self.rf.min(self.n) as u64).map(|r| ((first + r) % self.n as u64) as u32));
    }
    fn replica_alive(&self, _coordinator: usize, _replica: u32) -> bool {
        true
    }
    fn bill_service(&mut self, _node: u32, at: SimTime, demand: SimDuration) -> SimTime {
        at + demand
    }
    fn send_data(
        &mut self,
        at: SimTime,
        _src: u32,
        _dst: u32,
        _rng: &mut DetRng,
    ) -> Option<SimTime> {
        Some(at + SimDuration::from_micros(500))
    }
}

/// `traffic.tick_ns_per_sample`: the workload's own traffic shape (the
/// legacy light probe where the workload configures none) on the stub
/// fabric, one tick per batch.
fn traffic_tick(b: &mut Bench<'_>, cfg: &ScenarioConfig, seed: u64) -> f64 {
    let shape = cfg.effective_traffic();
    if !shape.enabled() {
        return 0.0;
    }
    let mut fabric = StubFabric {
        n: cfg.n_nodes,
        rf: cfg.rf,
    };
    let mut state = TrafficState::new(shape, &DetRng::new(seed), LatencyModel::lan());
    let mut ticks = 0u64;
    // A healthy stub never times a request out, so every tick simulates
    // the same number of samples; `report()` is too heavy to call per
    // batch, so the per-tick count is read once at the end.
    let ns_per_tick = b.run("traffic.tick", || {
        ticks += 1;
        let now = SimTime::ZERO + shape.arrival.tick.saturating_mul(ticks);
        state.tick(now, Phase::Pre, &mut fabric);
        1
    });
    let samples_per_tick = state.report().samples as f64 / ticks as f64;
    if samples_per_tick > 0.0 {
        ns_per_tick / samples_per_tick
    } else {
        0.0
    }
}

/// Runs every layer's replay on inputs of `id`'s shape. Returns
/// `(metric name, value)` for each replay-sourced per-layer metric.
pub fn run(id: WorkloadId, seed: u64, size: Size, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let cfg = scenario(id, seed, size);
    let n = cfg.n_nodes as u64;
    let mut rng = DetRng::new(seed);
    let mut out = Vec::new();
    let b = &mut Bench::new(spans, size);

    out.push(("sim.engine_ns_per_event", engine(b, n, seed)));
    out.push(("sim.cpu_submit_ns", cpu_submit(b, n)));
    let (offer, offer_data) = network(b, &cfg, n, seed);
    out.push(("net.offer_ns", offer));
    out.push(("net.offer_data_ns", offer_data));

    // One heartbeat sample per virtual second of the cell, capped at the
    // 150 the issue sized (the φ window holds 1000).
    let fd_samples = cfg.max_duration.as_nanos().div_ceil(1_000_000_000).min(150);
    let rss_before = rss_mib();
    let mut mesh = b
        .spans
        .scope("gossip.build_mesh", |_| build_mesh(&cfg, fd_samples));
    let state_bytes = (rss_mib() - rss_before).max(0.0) * 1024.0 * 1024.0;
    out.push(("gossip.state_bytes_per_peer", state_bytes / (n * n) as f64));
    out.push((
        "gossip.exchange_ns",
        exchange(b, &mut mesh, &mut rng, false),
    ));
    out.push((
        "gossip.exchange_churn_ns",
        exchange(b, &mut mesh, &mut rng, true),
    ));
    out.push(("gossip.fd_sweep_ns", fd_sweep(b, &mut mesh)));
    out.push(("gossip.fd_report_ns", fd_report(b, &mut mesh)));
    drop(mesh);

    // The ring every node holds, with the workload's pending change: the
    // last node is leaving.
    let mut ring = RingTable::new(cfg.rf);
    for i in 0..n as u32 {
        ring.add_node(
            NodeId(i),
            NodeStatus::Normal,
            spread_tokens(NodeId(i), cfg.vnodes),
        )
        .expect("distinct tokens");
    }
    let leaving = NodeId(n as u32 - 1);
    ring.set_status(leaving, NodeStatus::Leaving)
        .expect("node exists");
    let changes = vec![TopologyChange::Leave { node: leaving }];
    let calc = calculator(cfg.calculator);
    let mut pending = Default::default();
    out.push((
        "ring.calc_exec_ns",
        b.run("ring.pending_calculate", || {
            pending = calc.calculate(black_box(&ring), &changes, &mut OpCounter::new());
            1
        }),
    ));
    let mut bytes = Vec::with_capacity(1024);
    out.push((
        "ring.write_canonical_ns",
        b.run("ring.write_canonical", || {
            for _ in 0..100 {
                bytes.clear();
                ring.write_canonical(&mut bytes);
                black_box(&bytes);
            }
            100
        }),
    ));
    let mut replicas = Vec::new();
    out.push((
        "ring.replicas_of_ns",
        b.run("ring.replicas_of", || {
            for _ in 0..SMALL_BATCH {
                replicas.clear();
                ring.replicas_of(Token(rng.next_u64()), &mut replicas);
                black_box(&replicas);
            }
            SMALL_BATCH
        }),
    ));
    out.push((
        "cluster.calc_digest_ns",
        b.run("cluster.calc_digest", || {
            for _ in 0..100 {
                black_box(CalcEngine::digest(black_box(&ring), &changes));
            }
            100
        }),
    ));

    // A memo database shaped like a memoization run's: a handful of
    // distinct inputs, each carrying a real pending-range output,
    // recorded ~16 times per node.
    let wire = PendingWire::from(&pending);
    let fid = CalcEngine::fn_id(cfg.calculator);
    let distinct = 8u128;
    let compute = SimDuration::from_millis(40);
    let mut db: MemoDb<PendingWire> = MemoDb::new();
    let mut k = 0u64;
    out.push((
        "memo.record_ns",
        b.run("memo.record", || {
            let batch = n * 16 / 20 + 1;
            for _ in 0..batch {
                let input = Digest128(k as u128 % distinct);
                db.record((k % n) as u32, fid, input, wire.clone(), compute);
                k += 1;
            }
            batch
        }),
    ));
    out.push((
        "memo.lookup_ns",
        b.run("memo.lookup", || {
            for _ in 0..SMALL_BATCH {
                black_box(db.lookup(fid, Digest128(k as u128 % distinct)));
                k += 1;
            }
            SMALL_BATCH
        }),
    ));

    out.push(("traffic.tick_ns_per_sample", traffic_tick(b, &cfg, seed)));

    let mut hist = LogHistogram::new();
    let mut k = 0u64;
    out.push((
        "obs.hist_record_ns",
        b.run("obs.hist_record_n", || {
            for _ in 0..SMALL_BATCH {
                hist.record_n(black_box(k.wrapping_mul(977)), 43);
                k += 1;
            }
            SMALL_BATCH
        }),
    ));
    black_box(&hist);
    let mut k = 0u64;
    out.push((
        "obs.emit_ns_per_span",
        b.run("obs.span_start_end", || {
            // A fresh tracer per batch bounds its memory.
            let mut tracer = Tracer::new();
            for _ in 0..SMALL_BATCH {
                let pid = (k % n) as u32;
                let id = tracer.span_start(SpanName::GossipReceive, pid, TID_GOSSIP, k * 1_000);
                tracer.span_end(id, k * 1_000 + 400, k);
                k += 1;
            }
            black_box(tracer.finish().spans.len());
            SMALL_BATCH
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_schedule_never_pairs_a_node_with_itself_and_covers_all_links() {
        let n = 5;
        let seen: std::collections::BTreeSet<_> = (0..n * (n - 1)).map(|k| pair(k, n)).collect();
        assert_eq!(seen.len() as u64, n * (n - 1));
        assert!(seen.iter().all(|&(a, b)| a != b && (b as u64) < n));
    }

    #[test]
    fn two_returns_the_requested_elements_in_order() {
        let mut xs = [10, 20, 30];
        assert_eq!(two(&mut xs, 2, 0), (&mut 30, &mut 10));
        assert_eq!(two(&mut xs, 0, 1), (&mut 10, &mut 20));
    }
}
