//! The request engine: ticks batches of virtual-user requests through
//! coordinator routing, consistency levels, and the SLO accountant.
//!
//! In **coupled** mode (the default for the open-loop datapath) the
//! engine is a *tenant* of the simulation, not a passenger: coordinator
//! and replica service are billed on the per-node simulated CPUs
//! through [`ClusterFabric::bill_service`], and replica round trips are
//! real data-plane messages through [`ClusterFabric::send_data`] —
//! per-link FIFO clocks, partitions, and fault windows included. A
//! starved calc stage or a jammed link inflates user-visible p99.9 the
//! same way it inflates the control plane, which is the whole point:
//! the SLO layer must see the paper's CPU-starvation bugs, not a
//! standalone latency model.
//!
//! The light observer probe ([`TrafficConfig::probe`]) stays
//! **uncoupled** (`coupled = false`): it samples the latency model
//! read-only so probe scenarios keep their control-plane dynamics
//! bit-identical.
//!
//! All engine randomness comes from one private [`DetRng`] fork, so
//! two runs of the same (config, plan, seed) produce the same request
//! log digest byte for byte — and a coupled datapath offered zero load
//! never touches the fabric at all, leaving the run bit-identical to
//! traffic-off.

use std::collections::VecDeque;

use scalecheck_net::LatencyModel;
use scalecheck_obs::{metric, LogHistogram, Metric};
use scalecheck_sim::{DetRng, SimDuration, SimTime, TimeSeries};

use crate::arrival::{ArrivalConfig, ArrivalGen, ArrivalProcess};
use crate::consistency::{Consistency, CostModel, Degradation, OpKind};
use crate::report::{LogDigest, Outcome, PhaseHist, RequestRecord, TrafficReport};
use crate::slo::{ErrorBudget, SloTarget};

/// RNG stream id for the traffic fork.
pub const TRAFFIC_RNG_STREAM: u64 = 999_983;

/// Where the run is relative to its rescale window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Before any topology change begins.
    Pre,
    /// Inside the bootstrap/decommission window (phase ramp applies).
    Rescale,
    /// After the last rescale action has fired.
    Post,
}

impl Phase {
    /// All phases, histogram-index order.
    pub const ALL: [Phase; 3] = [Phase::Pre, Phase::Rescale, Phase::Post];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pre => "pre",
            Phase::Rescale => "rescale",
            Phase::Post => "post",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Pre => 0,
            Phase::Rescale => 1,
            Phase::Post => 2,
        }
    }
}

/// What the traffic engine needs from the cluster each tick. The first
/// five methods are read-only topology/liveness lookups; the last two
/// are the coupling points where request work lands on the shared
/// simulated resources. The cluster runner implements this over its
/// live node table, machine park, and network; tests implement it over
/// toy fixtures.
pub trait ClusterFabric {
    /// Total machines (live or not) that could coordinate requests.
    fn node_count(&self) -> usize;
    /// Whether node `i` is up and can act as a coordinator.
    fn is_live_coordinator(&self, i: usize) -> bool;
    /// Replication factor requests are written at.
    fn rf(&self) -> usize;
    /// Resolves `key`'s replica set *as `coordinator` sees the ring*,
    /// appending up to `rf` distinct node ids into `out`.
    fn replicas_of(&mut self, coordinator: usize, key: u64, out: &mut Vec<u32>);
    /// Whether `coordinator`'s failure detector considers `replica`
    /// alive. The coordinator's *view* — not ground truth — is what
    /// turns flap storms into user-visible damage.
    fn replica_alive(&self, coordinator: usize, replica: u32) -> bool;
    /// Bills `demand` of request service on `node`'s simulated CPU
    /// starting no earlier than `at`, returning the completion time.
    /// Queue delay behind control-plane work (gossip pumps, ring
    /// recalculation) is how CPU starvation reaches request tails.
    fn bill_service(&mut self, node: u32, at: SimTime, demand: SimDuration) -> SimTime;
    /// Offers one data-plane message on the real fabric at `at`:
    /// `Some(deliver_at)` on acceptance (FIFO behind everything already
    /// queued on the link), `None` when a partition or fault window
    /// drops it.
    fn send_data(&mut self, at: SimTime, src: u32, dst: u32, rng: &mut DetRng) -> Option<SimTime>;
}

/// Per-key popularity distribution of the offered load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeySkew {
    /// Every key equally likely (the old behavior).
    Uniform,
    /// Zipf-distributed ranks over a bounded keyspace, hashed onto the
    /// token ring — hot ranks own *fixed* token ranges, so a rebalance
    /// window that moves a hot range hits a disproportionate share of
    /// the offered load.
    Zipfian {
        /// Zipf exponent in permille (990 ≈ the YCSB default 0.99).
        theta_permille: u32,
        /// Number of distinct keys ranks are drawn over.
        keyspace: u64,
    },
}

/// Full shape of one cell's offered load and objectives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficConfig {
    /// Arrival process (users, rates, ramp, tick).
    pub arrival: ArrivalConfig,
    /// Consistency level for reads.
    pub read_cl: Consistency,
    /// Consistency level for writes.
    pub write_cl: Consistency,
    /// Fraction of requests that are reads, in permille.
    pub read_permille: u32,
    /// Replica service times and the client timeout.
    pub cost: CostModel,
    /// What a coordinator does when the quorum is short.
    pub degradation: Degradation,
    /// The SLO the run is held to.
    pub slo: SloTarget,
    /// Max representative requests simulated per tick; offered load
    /// beyond it rides along as integer weights. This is the
    /// O(requests)-not-O(users) knob.
    pub sample_cap_per_tick: u32,
    /// Max request records kept verbatim in the report.
    pub log_sample_cap: u32,
    /// Couple requests to the real simulation (CPU billing + data-plane
    /// messages) instead of sampling the standalone latency model.
    pub coupled: bool,
    /// Client-side retries after a timeout: the request re-arrives (at
    /// `retry_backoff` after the timeout fires) and is re-executed
    /// against the then-current cluster, feeding timed-out work back
    /// into offered load. 0 disables the feedback loop.
    pub client_retries: u32,
    /// Client-side delay between observing a timeout and reissuing.
    pub retry_backoff: SimDuration,
    /// Per-key popularity of the offered load.
    pub key_skew: KeySkew,
}

impl TrafficConfig {
    /// No traffic at all.
    pub const OFF: TrafficConfig = TrafficConfig {
        arrival: ArrivalConfig::OFF,
        read_cl: Consistency::Quorum,
        write_cl: Consistency::Quorum,
        read_permille: 500,
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
    };

    /// Whether any load will be offered.
    pub fn enabled(&self) -> bool {
        !self.arrival.is_off()
    }

    /// The light observer probe every preset scenario carries:
    /// `ops_per_sec` constant-rate writes at consistency level `cl`,
    /// failing fast — *uncoupled*, so it reads coordinator views
    /// without perturbing control-plane dynamics.
    pub fn probe(ops_per_sec: u64, cl: Consistency) -> TrafficConfig {
        TrafficConfig {
            arrival: ArrivalConfig {
                users: ops_per_sec,
                millirate_per_user: 1000,
                process: ArrivalProcess::Constant,
                rescale_ramp_permille: 1000,
                tick: SimDuration::from_secs(1),
            },
            read_cl: cl,
            write_cl: cl,
            read_permille: 0,
            ..TrafficConfig::OFF
        }
    }

    /// A production-shaped open loop: `users` virtual users at one
    /// op/s each, Poisson batches, a 1.5x reconnect stampede during the
    /// rescale window, quorum reads+writes with YCSB-style Zipfian key
    /// popularity, hinted-handoff degradation, and capped client
    /// retries — all *coupled* to the real simulation. The config
    /// `tbl_slo` sweeps.
    pub fn open_loop(users: u64) -> TrafficConfig {
        TrafficConfig {
            arrival: ArrivalConfig {
                users,
                millirate_per_user: 1000,
                process: ArrivalProcess::Poisson,
                rescale_ramp_permille: 1500,
                tick: SimDuration::from_secs(1),
            },
            read_permille: 500,
            degradation: Degradation::HintedRetry {
                max_retries: 3,
                backoff: SimDuration::from_millis(50),
            },
            coupled: true,
            client_retries: 2,
            key_skew: KeySkew::Zipfian {
                theta_permille: 990,
                keyspace: 1 << 16,
            },
            ..TrafficConfig::OFF
        }
    }
}

/// A timed-out request waiting to re-arrive (client retry feedback).
#[derive(Clone, Copy, Debug)]
struct RetryEntry {
    /// Virtual time the client reissues, in ns.
    due_ns: u64,
    key: u64,
    kind: OpKind,
    weight: u64,
    /// Attempt number of the reissue (first retry = 1).
    attempt: u32,
    /// Client-visible time already burned on earlier attempts, in ns.
    elapsed_ns: u64,
    /// Phase of the *original* arrival — the outcome is booked there.
    phase: Phase,
}

/// How one routed attempt ended.
enum Routed {
    /// Completed (ok, degraded, or fail-fast) after this much latency.
    Done(Outcome, SimDuration),
    /// The k-th acknowledgement never reached the coordinator within
    /// the client timeout: eligible for a client retry.
    TimedOut,
}

/// Live per-run traffic state: O(1) in the user population.
#[derive(Clone, Debug)]
pub struct TrafficState {
    cfg: TrafficConfig,
    latency: LatencyModel,
    rng: DetRng,
    arrivals: ArrivalGen,
    /// Phase-major (phase × kind) latency histograms.
    hists: Vec<LogHistogram>,
    budget: ErrorBudget,
    failure_series: TimeSeries,
    attempted: u64,
    failed: u64,
    degraded: u64,
    samples: u64,
    /// Weighted requests reissued after a timeout.
    retried: u64,
    /// Weighted retries dropped because the retry queue was full (a
    /// retry storm saturating the client pool) — booked failed.
    retry_shed: u64,
    /// Data-plane messages offered / dropped by the fabric.
    data_sent: u64,
    data_dropped: u64,
    retry_queue: VecDeque<RetryEntry>,
    digest: LogDigest,
    log_sample: Vec<RequestRecord>,
    scratch_replicas: Vec<u32>,
    scratch_rtts: Vec<u64>,
    scratch_live: Vec<u32>,
    peak_bytes: u64,
}

/// SplitMix64: hashes a Zipf rank onto the token ring so each rank
/// owns a fixed pseudorandom token (and therefore a fixed replica set).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`KeySkew`] with its per-draw constants worked out: a tick makes
/// one and draws its whole batch from it. It lives on the stack, not in
/// [`TrafficState`], whose size is part of `tracked_bytes`.
#[derive(Clone, Copy)]
enum KeyDraw {
    Uniform,
    /// Inverse-CDF draw from the continuous Zipf(θ) approximation over
    /// ranks `1..=n`, with `θ = 1`: rank `n^u`.
    ZipfOne {
        n: u64,
    },
    /// As `ZipfOne`, with `θ ≠ 1` and `a = 1 − θ`: rank
    /// `((n^a − 1)·u + 1)^(1/a)`, carrying `n^a − 1` and `1/a`.
    Zipf {
        n: u64,
        span: f64,
        inv_a: f64,
    },
}

impl KeyDraw {
    fn new(skew: KeySkew) -> KeyDraw {
        match skew {
            KeySkew::Uniform => KeyDraw::Uniform,
            KeySkew::Zipfian {
                theta_permille,
                keyspace,
            } => {
                let n = keyspace.max(2);
                let theta = (theta_permille as f64 / 1000.0).clamp(0.0, 4.0);
                if (theta - 1.0).abs() < 1e-6 {
                    KeyDraw::ZipfOne { n }
                } else {
                    let a = 1.0 - theta;
                    KeyDraw::Zipf {
                        n,
                        span: (n as f64).powf(a) - 1.0,
                        inv_a: 1.0 / a,
                    }
                }
            }
        }
    }

    /// Draws the next request key: a Zipf rank is hashed to its fixed
    /// token.
    fn sample(self, rng: &mut DetRng) -> u64 {
        let (n, rank) = match self {
            KeyDraw::Uniform => return rng.next_u64(),
            KeyDraw::ZipfOne { n } => (n, (n as f64).powf(rng.gen_f64())),
            KeyDraw::Zipf { n, span, inv_a } => (n, (span * rng.gen_f64() + 1.0).powf(inv_a)),
        };
        splitmix64((rank.floor() as u64).clamp(1, n))
    }
}

impl TrafficState {
    /// Builds traffic state from the run's root RNG (forks the
    /// dedicated stream) and the scenario's link latency model (used
    /// only by uncoupled probes).
    pub fn new(cfg: TrafficConfig, root_rng: &DetRng, latency: LatencyModel) -> TrafficState {
        let mut st = TrafficState {
            cfg,
            latency,
            rng: root_rng.fork(TRAFFIC_RNG_STREAM),
            arrivals: ArrivalGen::default(),
            hists: vec![LogHistogram::new(); Phase::ALL.len() * 2],
            budget: ErrorBudget::default(),
            failure_series: TimeSeries::new(),
            attempted: 0,
            failed: 0,
            degraded: 0,
            samples: 0,
            retried: 0,
            retry_shed: 0,
            data_sent: 0,
            data_dropped: 0,
            retry_queue: VecDeque::new(),
            digest: LogDigest::default(),
            log_sample: Vec::new(),
            scratch_replicas: Vec::new(),
            scratch_rtts: Vec::new(),
            scratch_live: Vec::new(),
            peak_bytes: 0,
        };
        st.peak_bytes = st.tracked_bytes();
        st
    }

    /// The configuration this state runs under.
    pub fn config(&self) -> &TrafficConfig {
        &self.cfg
    }

    /// Max pending retries tracked before further timeouts are shed
    /// (booked failed immediately). Proportional to the sample cap so
    /// memory stays O(requests), never O(users).
    fn retry_cap(&self) -> usize {
        self.cfg.sample_cap_per_tick.max(1) as usize * 8
    }

    /// Current tracked footprint in bytes: struct plus every owned
    /// buffer's *capacity*. Tests pin this against the user count to
    /// enforce the O(requests) memory contract.
    pub fn tracked_bytes(&self) -> u64 {
        let hists: usize = self
            .hists
            .iter()
            .map(|h| h.buckets.capacity() * size_of::<u64>())
            .sum();
        (size_of::<Self>()
            + hists
            + self.log_sample.capacity() * size_of::<RequestRecord>()
            + self.retry_queue.capacity() * size_of::<RetryEntry>()
            + self.failure_series.len() * size_of::<(SimTime, f64)>()
            + (self.scratch_replicas.capacity() + self.scratch_live.capacity()) * size_of::<u32>()
            + self.scratch_rtts.capacity() * size_of::<u64>()) as u64
    }

    /// Runs one arrival tick at virtual time `now`: reissues due client
    /// retries, draws the offered batch, simulates up to
    /// `sample_cap_per_tick` representative requests against the
    /// cluster, and books the rest as weights. In coupled mode every
    /// simulated request bills real CPU and link time; with zero
    /// offered load and no pending retries the fabric is never touched.
    pub fn tick<F: ClusterFabric>(&mut self, now: SimTime, phase: Phase, fabric: &mut F) {
        // Timed-out requests whose backoff has expired re-enter the
        // offered load and run against the *current* cluster state.
        while let Some(front) = self.retry_queue.front().copied() {
            if front.due_ns > now.as_nanos() {
                break;
            }
            self.retry_queue.pop_front();
            self.refresh_live(fabric);
            self.dispatch(
                now,
                front.phase,
                fabric,
                front.key,
                front.kind,
                front.weight,
                front.attempt,
                front.elapsed_ns,
            );
        }
        let ramp = if phase == Phase::Rescale {
            self.cfg.arrival.rescale_ramp_permille
        } else {
            1000
        };
        let offered = self
            .arrivals
            .offered(&self.cfg.arrival, ramp, &mut self.rng);
        if offered > 0 {
            self.refresh_live(fabric);
            let n_samples = offered.min(self.cfg.sample_cap_per_tick.max(1) as u64);
            let base = offered / n_samples;
            let extra = offered % n_samples;
            let draw = KeyDraw::new(self.cfg.key_skew);
            for s in 0..n_samples {
                let weight = base + u64::from(s < extra);
                self.attempted = self.attempted.saturating_add(weight);
                let key = draw.sample(&mut self.rng);
                let kind = if self.rng.gen_range(1000) < self.cfg.read_permille as u64 {
                    OpKind::Read
                } else {
                    OpKind::Write
                };
                self.dispatch(now, phase, fabric, key, kind, weight, 0, 0);
            }
        }
        self.failure_series.push(now, self.failed as f64);
        self.peak_bytes = self.peak_bytes.max(self.tracked_bytes());
    }

    /// Rebuilds the live-coordinator scratch list.
    fn refresh_live<F: ClusterFabric>(&mut self, fabric: &mut F) {
        self.scratch_live.clear();
        for i in 0..fabric.node_count() {
            if fabric.is_live_coordinator(i) {
                self.scratch_live.push(i as u32);
            }
        }
    }

    /// Executes one (possibly retried) request and settles it: books a
    /// completed outcome, or parks a timeout on the retry queue.
    #[allow(clippy::too_many_arguments)]
    fn dispatch<F: ClusterFabric>(
        &mut self,
        now: SimTime,
        phase: Phase,
        fabric: &mut F,
        key: u64,
        kind: OpKind,
        weight: u64,
        attempt: u32,
        elapsed_ns: u64,
    ) {
        let prior = SimDuration::from_nanos(elapsed_ns);
        if self.scratch_live.is_empty() {
            // Nobody can even coordinate: the connection times out.
            self.book(
                now,
                phase,
                u32::MAX,
                key,
                kind,
                Outcome::Failed,
                prior + self.cfg.cost.timeout,
                weight,
            );
            return;
        }
        let coord = self.scratch_live[self.rng.gen_index(self.scratch_live.len())];
        let routed = if self.cfg.coupled {
            self.route_coupled(fabric, now, coord, key, kind)
        } else {
            self.route_sampled(fabric, coord, key, kind)
        };
        match routed {
            Routed::Done(outcome, latency) => {
                self.book(
                    now,
                    phase,
                    coord,
                    key,
                    kind,
                    outcome,
                    prior + latency,
                    weight,
                );
            }
            Routed::TimedOut => {
                let spent = self.cfg.cost.timeout + self.cfg.retry_backoff;
                if attempt < self.cfg.client_retries && self.retry_queue.len() < self.retry_cap() {
                    self.retried = self.retried.saturating_add(weight);
                    self.retry_queue.push_back(RetryEntry {
                        due_ns: (now + spent).as_nanos(),
                        key,
                        kind,
                        weight,
                        attempt: attempt + 1,
                        elapsed_ns: elapsed_ns + spent.as_nanos(),
                        phase,
                    });
                } else {
                    if attempt < self.cfg.client_retries {
                        self.retry_shed = self.retry_shed.saturating_add(weight);
                    }
                    self.book(
                        now,
                        phase,
                        coord,
                        key,
                        kind,
                        Outcome::Failed,
                        prior + self.cfg.cost.timeout,
                        weight,
                    );
                }
            }
        }
    }

    /// Routes one request through the *real* simulation: coordinator
    /// service on its (possibly starved) CPU, a data-plane message per
    /// live replica, replica service on the replica's CPU, and the
    /// response message back — completion is the k-th fastest
    /// acknowledgement actually received.
    fn route_coupled<F: ClusterFabric>(
        &mut self,
        fabric: &mut F,
        now: SimTime,
        coord: u32,
        key: u64,
        kind: OpKind,
    ) -> Routed {
        let cl = match kind {
            OpKind::Read => self.cfg.read_cl,
            OpKind::Write => self.cfg.write_cl,
        };
        self.scratch_replicas.clear();
        fabric.replicas_of(coord as usize, key, &mut self.scratch_replicas);
        let required = cl.required(self.scratch_replicas.len());
        if required == 0 {
            return Routed::Done(Outcome::Failed, self.cfg.cost.timeout);
        }
        // Parse/route work on the coordinator happens before anything
        // hits the wire; a starved coordinator delays every replica.
        let issue_at = fabric.bill_service(coord, now, self.cfg.cost.coord_service);
        let service = self.cfg.cost.service(kind);
        self.scratch_rtts.clear();
        let mut live = 0usize;
        for i in 0..self.scratch_replicas.len() {
            let replica = self.scratch_replicas[i];
            // The coordinator only contacts replicas its own failure
            // detector considers alive; convicted replicas get hints,
            // not RPCs.
            if !fabric.replica_alive(coord as usize, replica) {
                continue;
            }
            live += 1;
            let ack_at = if replica == coord {
                // Local replica: service on the same CPU, no network.
                Some(fabric.bill_service(coord, issue_at, service))
            } else {
                self.data_sent += 1;
                match fabric.send_data(issue_at, coord, replica, &mut self.rng) {
                    None => {
                        self.data_dropped += 1;
                        None
                    }
                    Some(arrived) => {
                        let served = fabric.bill_service(replica, arrived, service);
                        self.data_sent += 1;
                        match fabric.send_data(served, replica, coord, &mut self.rng) {
                            None => {
                                self.data_dropped += 1;
                                None
                            }
                            Some(back) => Some(back),
                        }
                    }
                }
            };
            if let Some(at) = ack_at {
                let rtt = at.since(now).as_nanos();
                metric(Metric::ReplicaRtt, rtt);
                self.scratch_rtts.push(rtt);
            }
        }
        if live >= required {
            if self.scratch_rtts.len() >= required {
                self.scratch_rtts.sort_unstable();
                let kth = self.scratch_rtts[required - 1];
                if SimDuration::from_nanos(kth) <= self.cfg.cost.timeout {
                    return Routed::Done(Outcome::Ok, SimDuration::from_nanos(kth));
                }
            }
            // Enough live replicas, but the k-th acknowledgement was
            // dropped or came back past the deadline: client timeout.
            return Routed::TimedOut;
        }
        // Quorum short in this coordinator's view: degrade or fail.
        let deficit = (required.saturating_sub(live)).min(u32::MAX as usize) as u32;
        let backoff = self.cfg.degradation.backoff_total(deficit);
        match self.cfg.degradation {
            Degradation::FailFast => Routed::Done(Outcome::Failed, self.cfg.cost.timeout),
            Degradation::HintedRetry { .. } => {
                if kind == OpKind::Write && !self.scratch_rtts.is_empty() {
                    // The write lands on the replicas that acked and
                    // the rest ride hints; the client sees the slowest
                    // ack plus the backoff ladder.
                    let worst = *self.scratch_rtts.iter().max().expect("non-empty");
                    Routed::Done(Outcome::Degraded, SimDuration::from_nanos(worst) + backoff)
                } else if kind == OpKind::Write && live > 0 {
                    // Live replicas existed but every RPC was dropped.
                    Routed::TimedOut
                } else {
                    // Reads cannot be hinted: burn the ladder and fail.
                    Routed::Done(Outcome::Failed, self.cfg.cost.timeout + backoff)
                }
            }
        }
    }

    /// The uncoupled probe ([`TrafficConfig::probe`]): replica RTTs
    /// sampled from the standalone latency model, read-only against
    /// the cluster, so probe scenarios leave control-plane dynamics
    /// bit-identical — the differential tests' reference path.
    fn route_sampled<F: ClusterFabric>(
        &mut self,
        fabric: &mut F,
        coord: u32,
        key: u64,
        kind: OpKind,
    ) -> Routed {
        let cl = match kind {
            OpKind::Read => self.cfg.read_cl,
            OpKind::Write => self.cfg.write_cl,
        };
        self.scratch_replicas.clear();
        fabric.replicas_of(coord as usize, key, &mut self.scratch_replicas);
        // A ring smaller than RF yields fewer replicas; the level can
        // only require what exists.
        let required = cl.required(self.scratch_replicas.len());
        self.scratch_rtts.clear();
        let mut live = 0usize;
        let mut worst_live = 0u64;
        for i in 0..self.scratch_replicas.len() {
            let replica = self.scratch_replicas[i];
            // Round trip: two one-way latency draws. The coordinator
            // replying to itself skips the network.
            let rtt = if replica == coord {
                0
            } else {
                (self.latency.sample(&mut self.rng) + self.latency.sample(&mut self.rng)).as_nanos()
            };
            metric(Metric::ReplicaRtt, rtt);
            if fabric.replica_alive(coord as usize, replica) {
                self.scratch_rtts.push(rtt);
                live += 1;
                worst_live = worst_live.max(rtt);
            }
        }
        let service = self.cfg.cost.service(kind);
        if live >= required && required > 0 {
            // Wait for the k-th fastest live acknowledgement.
            self.scratch_rtts.sort_unstable();
            let kth = self.scratch_rtts[required - 1];
            return Routed::Done(Outcome::Ok, service + SimDuration::from_nanos(kth));
        }
        // Quorum short in this coordinator's view: degrade or fail.
        let deficit = (required.saturating_sub(live)).min(u32::MAX as usize) as u32;
        let backoff = self.cfg.degradation.backoff_total(deficit);
        match self.cfg.degradation {
            Degradation::FailFast => Routed::Done(Outcome::Failed, self.cfg.cost.timeout),
            Degradation::HintedRetry { .. } => {
                if kind == OpKind::Write && live > 0 {
                    // The write lands on the live replicas and the rest
                    // ride hints; the client sees the backoff ladder.
                    Routed::Done(
                        Outcome::Degraded,
                        service + SimDuration::from_nanos(worst_live) + backoff,
                    )
                } else {
                    // Reads cannot be hinted: burn the ladder and fail.
                    Routed::Done(Outcome::Failed, self.cfg.cost.timeout + backoff)
                }
            }
        }
    }

    /// Books one settled request into histograms, budget, digest, and
    /// the sampled log.
    #[allow(clippy::too_many_arguments)]
    fn book(
        &mut self,
        now: SimTime,
        phase: Phase,
        coordinator: u32,
        key: u64,
        kind: OpKind,
        outcome: Outcome,
        latency: SimDuration,
        weight: u64,
    ) {
        let latency_ns = latency.as_nanos();
        self.hists[phase.index() * 2 + (kind == OpKind::Write) as usize]
            .record_n(latency_ns, weight);
        self.budget
            .account(&self.cfg.slo, outcome != Outcome::Failed, latency, weight);
        match outcome {
            Outcome::Failed => self.failed = self.failed.saturating_add(weight),
            Outcome::Degraded => self.degraded = self.degraded.saturating_add(weight),
            Outcome::Ok => {}
        }
        self.samples += 1;
        metric(Metric::RequestLatency, latency_ns);
        let record = RequestRecord {
            at_ns: now.as_nanos(),
            coordinator,
            key,
            kind,
            outcome,
            latency_ns,
            weight,
        };
        self.digest.push(&record);
        if self.log_sample.len() < self.cfg.log_sample_cap as usize {
            self.log_sample.push(record);
        }
    }

    /// Freezes the run's traffic into its serialized report.
    pub fn report(&self) -> TrafficReport {
        let mut hists = Vec::with_capacity(self.hists.len());
        for (pi, phase) in Phase::ALL.iter().enumerate() {
            for (ki, kind) in [OpKind::Read, OpKind::Write].iter().enumerate() {
                hists.push(PhaseHist {
                    label: format!("{}/{}", phase.name(), kind.name()),
                    hist: self.hists[pi * 2 + ki].clone(),
                });
            }
        }
        TrafficReport {
            enabled: self.cfg.enabled(),
            coupled: self.cfg.coupled,
            attempted: self.attempted,
            failed: self.failed,
            degraded: self.degraded,
            samples: self.samples,
            retried: self.retried,
            retry_shed: self.retry_shed,
            retry_in_flight: self.retry_queue.iter().map(|r| r.weight).sum(),
            data_sent: self.data_sent,
            data_dropped: self.data_dropped,
            hists,
            failure_series: self.failure_series.clone(),
            budget: self.budget.clone(),
            target: self.cfg.slo,
            log_digest: self.digest.hex(),
            log_sample: self.log_sample.clone(),
            state_peak_bytes: self.peak_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy cluster: `n` nodes on a mod ring at RF 3, each with a
    /// single-core in-order CPU and constant-latency links. Tracks
    /// every nanosecond billed so tests can assert the engine touched
    /// (or did not touch) the fabric.
    struct ToyFabric {
        n: usize,
        down: Vec<u32>,
        /// Next free time of each node's single core.
        cpu_free: Vec<SimTime>,
        /// Per-node service-time multiplier (a starved CPU ≫ 1).
        cpu_slow: Vec<u32>,
        latency: SimDuration,
        /// When true every remote data message is dropped.
        drop_all: bool,
        /// Total CPU ns billed across all nodes.
        billed: u64,
        /// Data messages offered.
        offered_msgs: u64,
    }

    impl ToyFabric {
        fn healthy(n: usize) -> ToyFabric {
            ToyFabric {
                n,
                down: Vec::new(),
                cpu_free: vec![SimTime::ZERO; n],
                cpu_slow: vec![1; n],
                latency: SimDuration::from_micros(500),
                drop_all: false,
                billed: 0,
                offered_msgs: 0,
            }
        }
    }

    impl ClusterFabric for ToyFabric {
        fn node_count(&self) -> usize {
            self.n
        }
        fn is_live_coordinator(&self, i: usize) -> bool {
            !self.down.contains(&(i as u32))
        }
        fn rf(&self) -> usize {
            3
        }
        fn replicas_of(&mut self, _coordinator: usize, key: u64, out: &mut Vec<u32>) {
            let first = (key % self.n as u64) as usize;
            for k in 0..3.min(self.n) {
                out.push(((first + k) % self.n) as u32);
            }
        }
        fn replica_alive(&self, _coordinator: usize, replica: u32) -> bool {
            !self.down.contains(&replica)
        }
        fn bill_service(&mut self, node: u32, at: SimTime, demand: SimDuration) -> SimTime {
            let demand = demand.saturating_mul(self.cpu_slow[node as usize] as u64);
            let start = self.cpu_free[node as usize].max(at);
            let finish = start + demand;
            self.cpu_free[node as usize] = finish;
            self.billed += demand.as_nanos();
            finish
        }
        fn send_data(
            &mut self,
            at: SimTime,
            _src: u32,
            _dst: u32,
            _rng: &mut DetRng,
        ) -> Option<SimTime> {
            self.offered_msgs += 1;
            if self.drop_all {
                None
            } else {
                Some(at + self.latency)
            }
        }
    }

    fn run_on(cfg: TrafficConfig, fabric: &mut ToyFabric, ticks: u64) -> TrafficReport {
        let root = DetRng::new(42);
        let mut st = TrafficState::new(cfg, &root, LatencyModel::lan());
        for t in 0..ticks {
            st.tick(SimTime::from_secs(t + 1), Phase::Pre, fabric);
        }
        st.report()
    }

    fn run(cfg: TrafficConfig, mut fabric: ToyFabric, ticks: u64) -> TrafficReport {
        run_on(cfg, &mut fabric, ticks)
    }

    #[test]
    fn healthy_cluster_serves_everything() {
        let r = run(TrafficConfig::open_loop(1000), ToyFabric::healthy(8), 20);
        assert!(r.enabled);
        assert!(r.coupled);
        assert_eq!(r.failed, 0);
        assert_eq!(r.degraded, 0);
        assert!(r.attempted > 15_000, "attempted {}", r.attempted);
        assert!(r.samples <= 20 * 64);
        assert!(r.data_sent > 0, "remote replicas need real messages");
        assert_eq!(r.data_dropped, 0);
        let s = r.slo_summary();
        assert_eq!(s.availability_permille, 1000);
        assert!(!s.budget_breached);
        // Quorum read = coord+replica service + ~2nd-fastest RTT, plus
        // intra-tick queueing (a tick's whole batch is dispatched at
        // the same instant): tens of ms, far below the 100 ms target.
        assert!(s.p99_ns < 80_000_000, "p99 {}", s.p99_ns);
    }

    #[test]
    fn dead_quorum_burns_budget_and_inflates_the_tail() {
        // 2 of 3 replicas of every key down: quorum unreachable.
        let mut fabric = ToyFabric::healthy(3);
        fabric.down = vec![1, 2];
        let r = run(TrafficConfig::open_loop(1000), fabric, 20);
        assert!(r.failed + r.degraded > 0);
        let s = r.slo_summary();
        assert!(s.budget_breached, "burn {}", s.budget_burned_permille);
        // The tail hits the timeout/backoff cliff.
        assert!(s.p999_ns >= 50_000_000, "p999 {}", s.p999_ns);
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let a = run(TrafficConfig::open_loop(50_000), ToyFabric::healthy(16), 30);
        let b = run(TrafficConfig::open_loop(50_000), ToyFabric::healthy(16), 30);
        assert_eq!(a.log_digest, b.log_digest);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn state_is_o1_in_the_user_population() {
        let root = DetRng::new(7);
        let mut fab_small = ToyFabric::healthy(8);
        let mut fab_huge = ToyFabric::healthy(8);
        let mut small =
            TrafficState::new(TrafficConfig::open_loop(1_000), &root, LatencyModel::lan());
        let mut huge = TrafficState::new(
            TrafficConfig::open_loop(1_000_000),
            &root,
            LatencyModel::lan(),
        );
        for t in 0..50 {
            small.tick(SimTime::from_secs(t + 1), Phase::Rescale, &mut fab_small);
            huge.tick(SimTime::from_secs(t + 1), Phase::Rescale, &mut fab_huge);
        }
        assert!(huge.attempted > 900 * small.attempted);
        assert_eq!(
            small.tracked_bytes(),
            huge.tracked_bytes(),
            "a 1000x user population must not change the tracked footprint"
        );
    }

    #[test]
    fn starved_cpus_inflate_request_latency() {
        // The same cluster, but every CPU serves 200x slower — the
        // coupled engine must see the starvation in its tails, exactly
        // what the old standalone latency model was blind to.
        let calm = run(TrafficConfig::open_loop(1000), ToyFabric::healthy(8), 10);
        let mut starved_fab = ToyFabric::healthy(8);
        starved_fab.cpu_slow = vec![200; 8];
        let starved = run(TrafficConfig::open_loop(1000), starved_fab, 10);
        let (a, b) = (calm.slo_summary(), starved.slo_summary());
        assert!(
            b.p50_ns > a.p50_ns + 10_000_000,
            "starved p50 {} vs calm p50 {}",
            b.p50_ns,
            a.p50_ns
        );
    }

    #[test]
    fn dropped_links_time_out_and_retries_feed_back() {
        // Every remote message dropped: only requests whose coordinator
        // happens to be a replica can self-ack, and ONE still needs
        // nothing more — use quorum so every remote quorum times out.
        let mut fabric = ToyFabric::healthy(8);
        fabric.drop_all = true;
        let mut cfg = TrafficConfig::open_loop(100);
        cfg.client_retries = 2;
        let r = run_on(cfg, &mut fabric, 40);
        assert!(r.failed > 0, "quorums cannot complete");
        assert!(r.retried > 0, "timeouts must re-arrive as retries");
        assert!(r.data_dropped > 0);
        // A request that burns all its retries carries the elapsed time
        // of every attempt: ≥ 2 × (timeout + backoff) + timeout.
        let s = r.slo_summary();
        assert!(
            s.p999_ns >= 2 * 2_100_000_000 + 2_000_000_000,
            "p999 {} must include retry round trips",
            s.p999_ns
        );
        assert!(s.tail_saturated, "tail is timeout-limited");
    }

    #[test]
    fn zero_offered_load_never_touches_the_fabric() {
        let mut cfg = TrafficConfig::open_loop(1000);
        cfg.arrival.millirate_per_user = 0;
        assert!(cfg.enabled(), "armed but silent");
        let mut fabric = ToyFabric::healthy(8);
        let r = run_on(cfg, &mut fabric, 50);
        assert_eq!(r.attempted, 0);
        assert_eq!(fabric.billed, 0, "no CPU billed");
        assert_eq!(fabric.offered_msgs, 0, "no messages offered");
    }

    #[test]
    fn zipfian_skew_concentrates_traffic_on_hot_keys() {
        let root = DetRng::new(5);
        let mut zipf = TrafficState::new(
            TrafficConfig {
                key_skew: KeySkew::Zipfian {
                    theta_permille: 990,
                    keyspace: 1024,
                },
                ..TrafficConfig::open_loop(1000)
            },
            &root,
            LatencyModel::lan(),
        );
        let mut uniform =
            TrafficState::new(TrafficConfig::open_loop(1000), &root, LatencyModel::lan());
        uniform.cfg.key_skew = KeySkew::Uniform;
        let top_share = |st: &mut TrafficState| -> usize {
            let draw = KeyDraw::new(st.cfg.key_skew);
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..10_000 {
                *counts.entry(draw.sample(&mut st.rng)).or_insert(0usize) += 1;
            }
            counts.values().copied().max().unwrap()
        };
        let hot = top_share(&mut zipf);
        let flat = top_share(&mut uniform);
        // Zipf θ≈0.99 over 1024 keys puts ~10% of draws on rank 1; a
        // uniform u64 draw collides essentially never.
        assert!(hot > 500, "hot key saw {hot} of 10k draws");
        assert!(flat < 10, "uniform keys must not concentrate: {flat}");
        // The hot rank maps to one fixed key (stable replica set).
        let k1 = splitmix64(1);
        assert_eq!(splitmix64(1), k1);
    }

    #[test]
    fn probe_shape_maps_level_and_rate() {
        let t = TrafficConfig::probe(50, Consistency::Quorum);
        assert!(t.enabled());
        assert!(!t.coupled, "the probe must stay an observer");
        assert_eq!(
            (t.read_cl, t.write_cl),
            (Consistency::Quorum, Consistency::Quorum)
        );
        assert_eq!(t.read_permille, 0, "the probe is write-only");
        assert_eq!(t.arrival.milliops_per_sec(), 50_000);
        assert!(!TrafficConfig::probe(0, Consistency::Quorum).enabled());
        assert!(TrafficConfig::open_loop(10).coupled);
    }

    #[test]
    fn uncoupled_probe_reads_but_never_writes_the_fabric() {
        let mut fabric = ToyFabric::healthy(8);
        let r = run_on(
            TrafficConfig::probe(50, Consistency::Quorum),
            &mut fabric,
            20,
        );
        assert!(r.attempted > 0);
        assert!(!r.coupled);
        assert_eq!(fabric.billed, 0, "observer must not bill CPU");
        assert_eq!(fabric.offered_msgs, 0, "observer must not send");
        assert_eq!(r.data_sent, 0);
    }

    #[test]
    fn no_live_coordinator_fails_the_whole_batch() {
        let mut fabric = ToyFabric::healthy(4);
        fabric.down = vec![0, 1, 2, 3];
        let r = run(TrafficConfig::open_loop(100), fabric, 5);
        assert!(r.attempted > 0);
        assert_eq!(r.failed, r.attempted);
        assert_eq!(r.slo_summary().availability_permille, 0);
    }
}
