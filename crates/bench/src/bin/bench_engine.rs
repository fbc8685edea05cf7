//! Event-engine microbenchmarks: the perf trajectory for the simulator
//! core.
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin bench_engine -- --out BENCH_engine.json
//! ```
//!
//! Each scenario runs twice:
//!
//! * **baseline** — the pre-overhaul engine shape: `BinaryHeap`
//!   scheduler, one boxed closure per scheduled event, and (for the
//!   gossip scenarios) the legacy full-state wire format that
//!   deep-clones an `EndpointState` per delta;
//! * **wheel** — the timer-wheel scheduler with slab storage and
//!   payload-carrying handler events, and heartbeat-only gossip deltas.
//!
//! Both halves drive identical virtual workloads: the run is correct
//! only if they fire the same number of events and fold the same
//! checksum (times, targets, and RNG draws all included), which the
//! binary asserts and records as `deterministic_match`.
//!
//! The `tracer_overhead` scenario bends that frame: both sides are the
//! wheel engine driving the 64-node gossip workload, with observability
//! tracing **disabled** (`baseline`) vs **enabled** (`wheel`). The
//! determinism check then proves tracing does not perturb the
//! simulation, and the report adds the disabled-path budget: ns and
//! allocations per emission call (measured through an opaque function
//! pointer so the check cannot be optimized away) scaled by the
//! emissions/event observed in the enabled trace. The repo gate is
//! `disabled_overhead_pct < 2` and `disabled_allocs_per_emission == 0`.
//!
//! Options:
//! * `--smoke` — small iteration counts (CI smoke stage);
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_engine.json`);
//! * `--verify PATH` — validate an existing report instead of running:
//!   well-formed JSON, ≥ 5 scenarios, nonzero throughput, determinism,
//!   and the tracer-overhead budget;
//! * `--json` — echo the report to stdout as well.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use scalecheck_bench::{exit_usage, flag_value, has_flag, print_row, validate_doc, Field};
use scalecheck_gossip::{Delta, EndpointState, Gossiper, HeartbeatState, Peer};
use scalecheck_sim::{
    Ctx, DetRng, Engine, EngineCounters, HandlerId, SchedulerKind, SimDuration, SimTime,
};
use serde_json::json;

const USAGE: &str = "usage: bench_engine [--smoke] [--out PATH] [--verify PATH] [--json]";

// ---------------------------------------------------------------------
// Allocation counting.
// ---------------------------------------------------------------------

/// Counts heap allocations so the report can state allocations/event.
/// Lives here (not in `scalecheck-sim`, which forbids unsafe code) and
/// only counts — layout and placement are `System`'s.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Shared measurement plumbing.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Measured {
    events: u64,
    wall_s: f64,
    allocs: u64,
    acc: u64,
    counters: EngineCounters,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            f64::INFINITY
        }
    }

    fn allocs_per_event(&self) -> f64 {
        if self.events > 0 {
            self.allocs as f64 / self.events as f64
        } else {
            0.0
        }
    }
}

fn measure<S>(engine: &mut Engine<S>, state: &mut S, acc_of: impl Fn(&S) -> u64) -> Measured {
    let alloc0 = allocations();
    let t0 = Instant::now();
    let stats = engine.run_to_completion(state);
    let wall_s = t0.elapsed().as_secs_f64();
    Measured {
        events: stats.executed,
        wall_s,
        allocs: allocations() - alloc0,
        acc: acc_of(state),
        counters: engine.counters(),
    }
}

fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
}

// ---------------------------------------------------------------------
// Scenario 1: pure periodic timers.
// ---------------------------------------------------------------------

const TIMER_LANES: usize = 64;

struct Timers {
    rounds_left: u64,
    acc: u64,
    self_handler: Option<HandlerId>,
}

/// One periodic-timer fire. Returns whether the lane should reschedule.
fn timer_fire(w: &mut Timers, ctx: &mut Ctx<'_, Timers>, lane: u64) -> bool {
    if w.rounds_left == 0 {
        return false;
    }
    w.rounds_left -= 1;
    w.acc = mix(w.acc, ctx.now().as_nanos() ^ lane);
    w.rounds_left > 0
}

fn lane_interval(lane: u64) -> SimDuration {
    SimDuration::from_micros(500 + 37 * lane)
}

fn timer_closure_fire(w: &mut Timers, ctx: &mut Ctx<'_, Timers>, lane: u64) {
    if timer_fire(w, ctx, lane) {
        ctx.schedule_after(lane_interval(lane), move |w, ctx| {
            timer_closure_fire(w, ctx, lane)
        });
    }
}

fn run_pure_timers(kind: SchedulerKind, handlers: bool, rounds: u64) -> Measured {
    let mut engine: Engine<Timers> = Engine::with_scheduler(1, kind);
    let mut w = Timers {
        rounds_left: rounds,
        acc: 0,
        self_handler: None,
    };
    if handlers {
        let h = engine.register_handler(|w: &mut Timers, ctx, lane| {
            if timer_fire(w, ctx, lane) {
                let h = w.self_handler.expect("set before run");
                ctx.schedule_handler_after(lane_interval(lane), h, lane);
            }
        });
        w.self_handler = Some(h);
        for lane in 0..TIMER_LANES as u64 {
            engine.schedule_handler_after(lane_interval(lane), h, lane);
        }
    } else {
        for lane in 0..TIMER_LANES as u64 {
            engine.schedule_after(lane_interval(lane), move |w, ctx| {
                timer_closure_fire(w, ctx, lane)
            });
        }
    }
    measure(&mut engine, &mut w, |w| w.acc)
}

// ---------------------------------------------------------------------
// Scenarios 2 & 3: gossip clusters (64 and 256 nodes).
// ---------------------------------------------------------------------

struct GossipWorld {
    nodes: Vec<Gossiper<Vec<u64>>>,
    rounds_left: u64,
    acc: u64,
    interval: SimDuration,
    /// Replay the pre-overhaul wire format: every delta ships a full
    /// endpoint state with a deep-cloned payload.
    legacy_wire: bool,
    self_handler: Option<HandlerId>,
}

impl GossipWorld {
    fn new(n: usize, rounds: u64, legacy_wire: bool) -> Self {
        let tokens_of = |i: usize| -> Vec<u64> { (0..32).map(|t| (i as u64) << 32 | t).collect() };
        let nodes: Vec<Gossiper<Vec<u64>>> = (0..n)
            .map(|i| Gossiper::new(Peer(i as u32), 1, tokens_of(i)))
            .collect();
        let mut world = GossipWorld {
            nodes,
            rounds_left: rounds,
            acc: 0,
            interval: SimDuration::from_secs(1),
            legacy_wire,
            self_handler: None,
        };
        // Fully meshed bootstrap, as the cluster runner seeds members.
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let st = EndpointState::new(
                        HeartbeatState {
                            generation: 1,
                            version: 0,
                        },
                        0,
                        tokens_of(j),
                    );
                    world.nodes[i].seed_peer(Peer(j as u32), st);
                }
            }
        }
        world
    }
}

/// Rewrites heartbeat-only deltas back into the legacy full-state wire
/// format, paying the deep clone the old code paid per delta.
fn inflate(g: &Gossiper<Vec<u64>>, deltas: &mut [(Peer, Delta<Vec<u64>>)]) {
    for (peer, d) in deltas.iter_mut() {
        if matches!(d, Delta::Heartbeat(_)) {
            let st = g.endpoint(*peer).expect("delta source knows the peer");
            *d = Delta::Full(EndpointState::new(
                st.heartbeat,
                st.app_version,
                st.app.as_ref().clone(),
            ));
        }
    }
}

/// One synchronous gossip round (SYN/ACK/ACK2) from node `i` to a
/// random live peer. Returns whether node `i` should reschedule.
fn gossip_fire(w: &mut GossipWorld, ctx: &mut Ctx<'_, GossipWorld>, i: usize) -> bool {
    if w.rounds_left == 0 {
        return false;
    }
    w.rounds_left -= 1;
    let n = w.nodes.len();
    let mut t = ctx.rng().gen_index(n - 1);
    if t >= i {
        t += 1;
    }
    w.nodes[i].beat();
    let syn = w.nodes[i].make_syn();
    let mut ack = w.nodes[t].handle_syn(&syn);
    if w.legacy_wire {
        inflate(&w.nodes[t], &mut ack.deltas);
    }
    let (_, mut ack2) = w.nodes[i].handle_ack(&ack);
    if w.legacy_wire {
        inflate(&w.nodes[i], &mut ack2.deltas);
    }
    let _ = w.nodes[t].handle_ack2(&ack2);
    w.acc = mix(w.acc, ctx.now().as_nanos() ^ ((i as u64) << 32) ^ t as u64);
    w.rounds_left > 0
}

fn gossip_closure_fire(w: &mut GossipWorld, ctx: &mut Ctx<'_, GossipWorld>, i: usize) {
    if gossip_fire(w, ctx, i) {
        let interval = w.interval;
        ctx.schedule_after(interval, move |w, ctx| gossip_closure_fire(w, ctx, i));
    }
}

fn run_gossip(kind: SchedulerKind, handlers: bool, n: usize, rounds: u64) -> Measured {
    let mut engine: Engine<GossipWorld> = Engine::with_scheduler(2, kind);
    // Baseline keeps the legacy full-state wire; wheel uses deltas.
    let mut w = GossipWorld::new(n, rounds, !handlers);
    let stagger = |i: usize| SimDuration::from_nanos((i as u64) * 1_000_000_000 / n.max(1) as u64);
    if handlers {
        let h = engine.register_handler(|w: &mut GossipWorld, ctx, payload| {
            let i = payload as usize;
            if gossip_fire(w, ctx, i) {
                let h = w.self_handler.expect("set before run");
                ctx.schedule_handler_after(w.interval, h, payload);
            }
        });
        w.self_handler = Some(h);
        for i in 0..n {
            engine.schedule_handler_after(stagger(i), h, i as u64);
        }
    } else {
        for i in 0..n {
            engine.schedule_after(stagger(i), move |w, ctx| gossip_closure_fire(w, ctx, i));
        }
    }
    measure(&mut engine, &mut w, |w| w.acc)
}

// ---------------------------------------------------------------------
// Scenario 4: fault storm (one-shots, cancellations, restart chains).
// ---------------------------------------------------------------------

/// Follow-up events carry this bit so they do not re-spawn.
const FOLLOW_UP: u64 = 1 << 40;

struct Storm {
    acc: u64,
    self_handler: Option<HandlerId>,
}

fn storm_fire(w: &mut Storm, ctx: &mut Ctx<'_, Storm>, k: u64) -> bool {
    let draw = ctx.rng().next_u64();
    w.acc = mix(w.acc, ctx.now().as_nanos() ^ k ^ (draw & 0xffff));
    // A quarter of primary fires spawns a restart-style follow-up.
    k & FOLLOW_UP == 0 && draw % 4 == 0
}

fn storm_closure_fire(w: &mut Storm, ctx: &mut Ctx<'_, Storm>, k: u64) {
    if storm_fire(w, ctx, k) {
        let k2 = k | FOLLOW_UP;
        ctx.schedule_after(SimDuration::from_millis(1), move |w, ctx| {
            storm_closure_fire(w, ctx, k2)
        });
    }
}

fn run_storm(kind: SchedulerKind, handlers: bool, events: u64) -> Measured {
    let mut engine: Engine<Storm> = Engine::with_scheduler(3, kind);
    let mut w = Storm {
        acc: 0,
        self_handler: None,
    };
    let h = if handlers {
        let h = engine.register_handler(|w: &mut Storm, ctx, k| {
            if storm_fire(w, ctx, k) {
                let h = w.self_handler.expect("set before run");
                ctx.schedule_handler_after(SimDuration::from_millis(1), h, k | FOLLOW_UP);
            }
        });
        w.self_handler = Some(h);
        Some(h)
    } else {
        None
    };
    // Deterministic plan: one-shots at random times over a 10 s horizon,
    // scheduled out of time order, with every third cancelled — the
    // crash/restart churn pattern.
    let mut plan = DetRng::new(42);
    let mut ids = Vec::with_capacity(events as usize);
    for k in 0..events {
        let at = SimTime::from_nanos(plan.next_u64() % 10_000_000_000);
        let id = match h {
            Some(h) => engine.schedule_handler_at(at, h, k),
            None => engine.schedule_at(at, move |w: &mut Storm, ctx| storm_closure_fire(w, ctx, k)),
        };
        ids.push(id);
    }
    for (j, id) in ids.into_iter().enumerate() {
        if j % 3 == 0 {
            engine.cancel(id);
        }
    }
    measure(&mut engine, &mut w, |w| w.acc)
}

// ---------------------------------------------------------------------
// Scenario 5: tracer overhead (disabled vs enabled observability).
// ---------------------------------------------------------------------

/// Gossip workload with tracing disabled vs enabled, plus a direct
/// measurement of the disabled emission path. Returns the scenario and
/// its extra report fields.
fn run_tracer_overhead(rounds: u64, calls: u64) -> ScenarioResult {
    // Disabled side: no tracer installed, every emission is one
    // thread-local flag check.
    scalecheck_obs::clear();
    let disabled = run_gossip(SchedulerKind::Wheel, true, 64, rounds);

    // Enabled side: same workload recording into a tracer; count what
    // it emitted so the disabled cost can be scaled per event.
    scalecheck_obs::install(scalecheck_obs::Tracer::new());
    let enabled = run_gossip(SchedulerKind::Wheel, true, 64, rounds);
    let trace = scalecheck_obs::take().expect("tracer installed").finish();
    let emissions = trace.spans.len() as u64
        + trace.instants.len() as u64
        + trace.counters.len() as u64
        + trace.metrics.iter().map(|h| h.count).sum::<u64>();
    let emissions_per_event = if enabled.events > 0 {
        emissions as f64 / enabled.events as f64
    } else {
        0.0
    };

    // Disabled emission cost, through an opaque function pointer so the
    // flag check cannot be hoisted or deleted.
    let f: fn(scalecheck_obs::Metric, u64) = scalecheck_obs::metric;
    let f = std::hint::black_box(f);
    let alloc0 = allocations();
    let t0 = Instant::now();
    for i in 0..calls {
        f(scalecheck_obs::Metric::NetDelay, i);
    }
    let per_call_ns = t0.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64;
    let emission_allocs = allocations() - alloc0;

    let disabled_event_ns = disabled.wall_s * 1e9 / disabled.events.max(1) as f64;
    let overhead_pct = if disabled_event_ns > 0.0 {
        100.0 * per_call_ns * emissions_per_event / disabled_event_ns
    } else {
        0.0
    };

    ScenarioResult {
        name: "tracer_overhead",
        baseline: disabled,
        wheel: enabled,
        extra: vec![
            ("emissions_per_event", emissions_per_event),
            ("disabled_ns_per_emission", per_call_ns),
            ("disabled_overhead_pct", overhead_pct),
            (
                "disabled_allocs_per_emission",
                emission_allocs as f64 / calls.max(1) as f64,
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

struct ScenarioResult {
    name: &'static str,
    baseline: Measured,
    wheel: Measured,
    /// Scenario-specific report fields (tracer overhead budget).
    extra: Vec<(&'static str, f64)>,
}

impl ScenarioResult {
    fn speedup(&self) -> f64 {
        self.wheel.events_per_sec() / self.baseline.events_per_sec()
    }

    fn matches(&self) -> bool {
        self.baseline.acc == self.wheel.acc && self.baseline.events == self.wheel.events
    }
}

fn run_all(smoke: bool) -> Vec<ScenarioResult> {
    // (full, smoke) iteration counts.
    let size = |full: u64, small: u64| if smoke { small } else { full };
    let mut out = Vec::new();

    let rounds = size(1_000_000, 20_000);
    out.push(ScenarioResult {
        name: "pure_timers",
        baseline: run_pure_timers(SchedulerKind::Heap, false, rounds),
        wheel: run_pure_timers(SchedulerKind::Wheel, true, rounds),
        extra: Vec::new(),
    });

    let rounds = size(100_000, 4_000);
    out.push(ScenarioResult {
        name: "gossip_64",
        baseline: run_gossip(SchedulerKind::Heap, false, 64, rounds),
        wheel: run_gossip(SchedulerKind::Wheel, true, 64, rounds),
        extra: Vec::new(),
    });

    let rounds = size(25_000, 1_200);
    out.push(ScenarioResult {
        name: "gossip_256",
        baseline: run_gossip(SchedulerKind::Heap, false, 256, rounds),
        wheel: run_gossip(SchedulerKind::Wheel, true, 256, rounds),
        extra: Vec::new(),
    });

    let events = size(300_000, 10_000);
    out.push(ScenarioResult {
        name: "fault_storm",
        baseline: run_storm(SchedulerKind::Heap, false, events),
        wheel: run_storm(SchedulerKind::Wheel, true, events),
        extra: Vec::new(),
    });

    out.push(run_tracer_overhead(
        size(100_000, 4_000),
        size(10_000_000, 1_000_000),
    ));

    out
}

fn side_json(m: &Measured) -> serde_json::Value {
    json!({
        "events": m.events,
        "wall_s": m.wall_s,
        "events_per_sec": m.events_per_sec(),
        "allocs_per_event": m.allocs_per_event(),
        "scheduled": m.counters.scheduled,
        "fired": m.counters.fired,
        "cancelled": m.counters.cancelled,
        "pool_hits": m.counters.pool_hits,
        "pool_misses": m.counters.pool_misses,
    })
}

fn report_value(results: &[ScenarioResult], smoke: bool) -> serde_json::Value {
    let scenarios: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            let mut v = json!({
                "name": r.name,
                "baseline": side_json(&r.baseline),
                "wheel": side_json(&r.wheel),
                "speedup": r.speedup(),
                "deterministic_match": r.matches(),
            });
            if let serde_json::Value::Object(entries) = &mut v {
                for (k, val) in &r.extra {
                    entries.push(((*k).to_string(), json!(*val)));
                }
            }
            v
        })
        .collect();
    json!({
        "schema": "bench_engine/v2",
        "smoke": smoke,
        "scenarios": scenarios,
    })
}

fn verify(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("parse: {e:?}"))?;
    let scenarios = validate_doc(
        &v,
        "bench_engine/v2",
        &[("smoke", Field::Bool)],
        "scenarios",
        &[("name", Field::Str), ("deterministic_match", Field::Bool)],
    )?;
    if scenarios.len() < 5 {
        return Err(format!("expected >= 5 scenarios, got {}", scenarios.len()));
    }
    let mut saw_tracer = false;
    for s in scenarios {
        let name = s.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        for side in ["baseline", "wheel"] {
            let eps = s
                .get(side)
                .and_then(|b| b.get("events_per_sec"))
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("{name}: missing {side}.events_per_sec"))?;
            if eps.is_nan() || eps <= 0.0 {
                return Err(format!("{name}: {side} throughput is not positive"));
            }
        }
        if s.get("deterministic_match").and_then(|m| m.as_bool()) != Some(true) {
            return Err(format!("{name}: baseline and wheel runs diverged"));
        }
        if name == "tracer_overhead" {
            saw_tracer = true;
            let field = |k: &str| {
                s.get(k)
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| format!("{name}: missing {k}"))
            };
            let pct = field("disabled_overhead_pct")?;
            if pct.is_nan() || pct >= 2.0 {
                return Err(format!("{name}: disabled overhead {pct:.3}% >= 2%"));
            }
            let allocs = field("disabled_allocs_per_emission")?;
            if allocs != 0.0 {
                return Err(format!(
                    "{name}: disabled path allocates ({allocs}/emission)"
                ));
            }
        }
    }
    if !saw_tracer {
        return Err("missing tracer_overhead scenario".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--verify").unwrap_or_else(|e| exit_usage(USAGE, &e)) {
        match verify(&path) {
            Ok(()) => {
                println!("{path}: ok");
                return;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let smoke = has_flag(&args, "--smoke");
    let out_path = flag_value(&args, "--out")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let echo = has_flag(&args, "--json");

    let results = run_all(smoke);

    println!(
        "Engine microbenchmarks ({})",
        if smoke { "smoke" } else { "full" }
    );
    println!("baseline = heap scheduler + boxed closures (+ legacy gossip wire)\n");
    print_row(
        &[
            "scenario".into(),
            "base ev/s".into(),
            "wheel ev/s".into(),
            "speedup".into(),
            "allocs/ev".into(),
            "match".into(),
        ],
        11,
    );
    for r in &results {
        print_row(
            &[
                r.name.into(),
                format!("{:.0}", r.baseline.events_per_sec()),
                format!("{:.0}", r.wheel.events_per_sec()),
                format!("{:.2}x", r.speedup()),
                format!("{:.3}", r.wheel.allocs_per_event()),
                if r.matches() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ],
            11,
        );
    }

    if let Some(r) = results.iter().find(|r| r.name == "tracer_overhead") {
        let get = |k: &str| {
            r.extra
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        println!(
            "\ntracer_overhead: baseline = tracing disabled, wheel = enabled; \
             {:.2} emissions/event x {:.2} ns disabled check = {:.4}% of event cost \
             (< 2% required), {} allocs/emission",
            get("emissions_per_event"),
            get("disabled_ns_per_emission"),
            get("disabled_overhead_pct"),
            get("disabled_allocs_per_emission"),
        );
    }

    let report = report_value(&results, smoke);
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, text.as_bytes())
        .unwrap_or_else(|e| exit_usage(USAGE, &format!("write {out_path}: {e}")));
    println!("\nwrote {out_path}");
    if echo {
        println!("{text}");
    }

    if results.iter().any(|r| !r.matches()) {
        eprintln!("error: baseline and wheel runs diverged");
        std::process::exit(1);
    }
}
