//! The discrete-event engine.
//!
//! [`Engine`] owns a scheduler of timestamped events; the simulated
//! world state `S` lives outside the engine so event handlers can
//! mutate it freely while scheduling follow-up events through [`Ctx`].
//!
//! Events live in one slab with a free list; two interchangeable
//! schedulers order references to them behind the same API
//! ([`SchedulerKind`]):
//!
//! * **Wheel** (the default): a hierarchical timer wheel
//!   ([`crate::wheel`]) with pooled tie-batch `Vec`s. Steady-state
//!   periodic timers recycle storage, so scheduling and firing stay
//!   allocation-free per event.
//! * **Heap**: a `BinaryHeap` of the same references, kept as the
//!   differential ordering reference (an `O(log n)` sift per event).
//!
//! Events have one shape: a handler registered once
//! ([`Engine::register_handler`]) and a `u64` payload
//! ([`Engine::schedule_handler_at`]), stored inline in the slab, so
//! scheduling never boxes anything. Handler ids number registrations
//! from 0, and the fire log ([`Engine::record_fires`]) reports each fired
//! event's handler index and payload: a system that registers one
//! handler per event kind lets the tie probe name every event it fires.
//!
//! Every schedule returns a [`TimerId`]; [`Engine::cancel`] removes the
//! event before it fires (generation-checked, so stale ids are inert).
//!
//! Determinism: events at equal timestamps fire in scheduling order
//! (a monotone sequence number breaks ties), and all randomness flows
//! through the engine's seeded [`DetRng`]. Both schedulers produce
//! identical firing orders and identical RNG draw sequences — guarded
//! by the differential suite in `tests/proptests.rs`.
//!
//! Tie order is a *policy*: every schedule call is assigned a tie-break
//! key (see [`crate::tie`]), and same-timestamp events fire in ascending
//! `(key, seq)` order. The default is the stock key (monotone in `seq`,
//! i.e. scheduling order); [`Engine::with_tie_order`] installs a
//! perturbing policy for schedule exploration. An engine without a
//! policy never calls one — the identity path is branch-only.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::metrics::EngineCounters;
use crate::rng::DetRng;
use crate::tie::{identity_key, FireRec, TieOrder, TieOrderSpec};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{EventRef, Slab, Wheel};

/// Handle to a pending event; pass to [`Engine::cancel`] /
/// [`Ctx::cancel`] to remove it before it fires. Ids are generation-
/// checked: once the event fires or is cancelled, the id goes inert.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId {
    idx: u32,
    gen: u32,
}

/// Handle to a handler registered with [`Engine::register_handler`]:
/// the registration's index, counting from 0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HandlerId(u32);

/// Which scheduler backs an [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Hierarchical timer wheel (the default).
    #[default]
    Wheel,
    /// The reference: a `BinaryHeap` over the same slab.
    Heap,
}

/// A stored event: the handler it dispatches to and its payload.
type Event = (HandlerId, u64);

/// A registered handler, run with each of its events' payloads.
type HandlerFn<S> = Box<dyn FnMut(&mut S, &mut Ctx<'_>, u64) + Send>;

/// A heap entry: `(at, key, seq)`, then the event's slab address.
type HeapRef = Reverse<(SimTime, u64, u64, u32, u32)>;

enum Sched {
    Wheel {
        wheel: Wheel,
        /// Current tick's batch, sorted by `(at, seq)`; survives across
        /// `run_until` calls when a deadline lands mid-granule.
        batch: Vec<EventRef>,
        batch_pos: usize,
        batch_tick: u64,
        batch_live: bool,
    },
    /// Earliest `(at, key, seq)` on top.
    Heap(BinaryHeap<HeapRef>),
}

/// Everything event handlers may touch besides the RNG and stop flag.
struct Core {
    now: SimTime,
    seq: u64,
    /// Pending (uncancelled, unfired) events.
    live: usize,
    counters: EngineCounters,
    /// Tie-order policy; `None` is the stock (scheduling-order) path.
    tie: Option<Box<dyn TieOrder>>,
    /// Every pending event; a fired or cancelled event's slot is freed,
    /// so the schedulers' references to it go stale.
    slab: Slab<Event>,
    sched: Sched,
}

enum Pop {
    Fired(SimTime, u64, Event),
    Deadline,
    Drained,
}

impl Core {
    fn schedule(&mut self, at: SimTime, ev: Event) -> TimerId {
        let at = at.max(self.now);
        self.seq += 1;
        let seq = self.seq;
        let key = match self.tie.as_mut() {
            None => identity_key(seq),
            Some(p) => p.tie_key(at, seq),
        };
        self.counters.scheduled += 1;
        self.live += 1;
        let (idx, gen, reused) = self.slab.insert(ev);
        if reused {
            self.counters.pool_hits += 1;
        } else {
            self.counters.pool_misses += 1;
        }
        match &mut self.sched {
            Sched::Heap(queue) => queue.push(Reverse((at, key, seq, idx, gen))),
            Sched::Wheel {
                wheel,
                batch,
                batch_pos,
                batch_tick,
                batch_live,
            } => {
                let r = EventRef {
                    at,
                    key,
                    seq,
                    idx,
                    gen,
                };
                if *batch_live && Wheel::tick_of(at) == *batch_tick {
                    // The event lands in the granule currently firing:
                    // splice it into the sorted batch so tie order holds.
                    let tail = &batch[*batch_pos..];
                    let ins = tail.partition_point(|e| (e.at, e.key, e.seq) < (at, key, seq));
                    batch.insert(*batch_pos + ins, r);
                } else {
                    wheel.insert(r);
                }
            }
        }
        TimerId { idx, gen }
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        let hit = self.slab.take(id.idx, id.gen).is_some();
        if hit {
            self.counters.cancelled += 1;
            self.live -= 1;
        }
        hit
    }

    fn pop_next(&mut self, deadline: SimTime) -> Pop {
        if self.live == 0 {
            return Pop::Drained;
        }
        match &mut self.sched {
            // live > 0 (checked above), so a live reference remains.
            Sched::Heap(queue) => loop {
                let Reverse((at, _, seq, idx, gen)) = *queue.peek().expect("a live event");
                if at > deadline {
                    return Pop::Deadline;
                }
                queue.pop();
                if let Some(ev) = self.slab.take(idx, gen) {
                    return Pop::Fired(at, seq, ev);
                }
                // Stale ref (cancelled event): skip.
            },
            Sched::Wheel {
                wheel,
                batch,
                batch_pos,
                batch_tick,
                batch_live,
            } => loop {
                while *batch_pos < batch.len() {
                    let r = batch[*batch_pos];
                    if r.at > deadline {
                        return Pop::Deadline;
                    }
                    *batch_pos += 1;
                    if let Some(ev) = self.slab.take(r.idx, r.gen) {
                        return Pop::Fired(r.at, r.seq, ev);
                    }
                    // Stale ref (cancelled event): skip.
                }
                match wheel.poll(Wheel::tick_of(deadline)) {
                    Some((tick, mut vec)) => {
                        vec.sort_unstable_by_key(|e| (e.at, e.key, e.seq));
                        let old = std::mem::replace(batch, vec);
                        wheel.recycle(old);
                        *batch_pos = 0;
                        *batch_tick = tick;
                        *batch_live = true;
                    }
                    // live > 0 (checked above), so events remain past the
                    // deadline.
                    None => return Pop::Deadline,
                }
            },
        }
    }
}

/// Why [`Engine::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The deadline was reached (events may remain beyond it).
    DeadlineReached,
    /// The queue drained before the deadline.
    QueueDrained,
    /// An event called [`Ctx::stop`].
    Stopped,
}

/// Summary of one `run_until` call.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Number of events executed.
    pub executed: u64,
    /// Virtual time when the run ended.
    pub ended_at: SimTime,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Engine-lifetime scheduling counters as of run end.
    pub counters: EngineCounters,
}

/// Handle given to event handlers for scheduling and randomness.
pub struct Ctx<'a> {
    core: &'a mut Core,
    rng: &'a mut DetRng,
    stop: &'a mut bool,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Schedules a handler event at absolute time `at` (clamped to now);
    /// the registered handler runs with `payload`. No allocation when
    /// the slab recycles a slot (the steady state).
    pub fn schedule_handler_at(&mut self, at: SimTime, h: HandlerId, payload: u64) -> TimerId {
        self.core.schedule(at, (h, payload))
    }

    /// Schedules a handler event after `delay`.
    pub fn schedule_handler_after(
        &mut self,
        delay: SimDuration,
        h: HandlerId,
        payload: u64,
    ) -> TimerId {
        self.schedule_handler_at(self.core.now + delay, h, payload)
    }

    /// Cancels a pending event. Returns whether it was removed (false
    /// if it already fired or was already cancelled).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.core.cancel(id)
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Requests that the run loop stop after this event returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// A deterministic discrete-event engine over world state `S`.
pub struct Engine<S> {
    core: Core,
    rng: DetRng,
    stop: bool,
    handlers: Vec<Option<HandlerFn<S>>>,
    fire_log: Option<Vec<FireRec>>,
}

impl<S> Engine<S> {
    /// Creates a wheel-backed engine with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_scheduler(seed, SchedulerKind::Wheel)
    }

    /// Creates an engine whose same-timestamp tie order is governed by
    /// `spec` instead of pure scheduling order. An identity spec keeps
    /// the stock fast path (no policy object installed).
    pub fn with_tie_order(seed: u64, kind: SchedulerKind, spec: &TieOrderSpec) -> Self {
        let mut eng = Self::with_scheduler(seed, kind);
        if !spec.is_identity() {
            eng.core.tie = Some(Box::new(spec.policy()));
        }
        eng
    }

    /// Installs an arbitrary tie-order policy (testing hook).
    pub fn set_tie_policy(&mut self, policy: Box<dyn TieOrder>) {
        self.core.tie = Some(policy);
    }

    /// Creates an engine backed by the chosen scheduler.
    pub fn with_scheduler(seed: u64, kind: SchedulerKind) -> Self {
        let sched = match kind {
            SchedulerKind::Wheel => Sched::Wheel {
                wheel: Wheel::new(),
                batch: Vec::new(),
                batch_pos: 0,
                batch_tick: 0,
                batch_live: false,
            },
            SchedulerKind::Heap => Sched::Heap(BinaryHeap::new()),
        };
        Engine {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                live: 0,
                counters: EngineCounters::default(),
                tie: None,
                slab: Slab::new(),
                sched,
            },
            rng: DetRng::new(seed),
            stop: false,
            handlers: Vec::new(),
            fire_log: None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.core.live
    }

    /// Engine-lifetime scheduling counters.
    pub fn counters(&self) -> EngineCounters {
        self.core.counters
    }

    /// Enables (or disables) recording of each fired event's time,
    /// sequence, handler and payload. The log is a
    /// [`crate::tie::ScheduleProbe`]'s `fires`.
    pub fn record_fires(&mut self, on: bool) {
        self.fire_log = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the accumulated fire log, leaving recording enabled.
    pub fn take_fire_log(&mut self) -> Vec<FireRec> {
        match self.fire_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The engine's deterministic RNG (e.g. for setup-time draws).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Registers a reusable handler; events scheduled against the
    /// returned id dispatch to it with their payload.
    pub fn register_handler<F>(&mut self, f: F) -> HandlerId
    where
        F: FnMut(&mut S, &mut Ctx<'_>, u64) + Send + 'static,
    {
        let id = u32::try_from(self.handlers.len()).expect("handler capacity");
        self.handlers.push(Some(Box::new(f)));
        HandlerId(id)
    }

    /// Schedules a handler event at absolute time `at` from outside an
    /// event handler.
    pub fn schedule_handler_at(&mut self, at: SimTime, h: HandlerId, payload: u64) -> TimerId {
        self.core.schedule(at, (h, payload))
    }

    /// Schedules a handler event after `delay`.
    pub fn schedule_handler_after(
        &mut self,
        delay: SimDuration,
        h: HandlerId,
        payload: u64,
    ) -> TimerId {
        self.schedule_handler_at(self.core.now + delay, h, payload)
    }

    /// Cancels a pending event. Returns whether it was removed (false
    /// if it already fired or was already cancelled).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.core.cancel(id)
    }

    /// Runs events until `deadline` (inclusive), the queue drains, or an
    /// event calls [`Ctx::stop`].
    pub fn run_until(&mut self, state: &mut S, deadline: SimTime) -> RunStats {
        let mut executed = 0u64;
        self.stop = false;
        // Tracing state is resolved once per run: the disabled path
        // costs one branch on a local bool per event, no allocation.
        let tracing = scalecheck_obs::enabled();
        let run_span = if tracing {
            scalecheck_obs::with(|t| {
                t.span_start(
                    scalecheck_obs::SpanName::EngineRun,
                    scalecheck_obs::ENGINE_PID,
                    0,
                    self.core.now.as_nanos(),
                )
            })
        } else {
            None
        };
        // Event-rate counter: one sample per virtual second with fires.
        let mut rate_sec = self.core.now.as_nanos() / 1_000_000_000;
        let mut rate_count = 0u64;
        let outcome = loop {
            let (at, seq, (h, payload)) = match self.core.pop_next(deadline) {
                Pop::Drained => break RunOutcome::QueueDrained,
                Pop::Deadline => break RunOutcome::DeadlineReached,
                Pop::Fired(at, seq, ev) => (at, seq, ev),
            };
            debug_assert!(at >= self.core.now, "event queue went backwards");
            if let Some(log) = self.fire_log.as_mut() {
                log.push(FireRec {
                    at: at.as_nanos(),
                    seq,
                    handler: h.0,
                    payload,
                });
            }
            if tracing {
                let sec = at.as_nanos() / 1_000_000_000;
                if sec != rate_sec {
                    if rate_count > 0 {
                        scalecheck_obs::counter(
                            scalecheck_obs::SpanName::EngineEvents,
                            scalecheck_obs::ENGINE_PID,
                            0,
                            rate_sec * 1_000_000_000,
                            rate_count,
                        );
                    }
                    rate_sec = sec;
                    rate_count = 0;
                }
                rate_count += 1;
            }
            self.core.now = at;
            self.core.live -= 1;
            self.core.counters.fired += 1;
            // Take the handler out for the call so it cannot alias the
            // engine borrow, then put it back.
            let mut f = self.handlers[h.0 as usize]
                .take()
                .expect("handler re-entered its own dispatch");
            let mut ctx = Ctx {
                core: &mut self.core,
                rng: &mut self.rng,
                stop: &mut self.stop,
            };
            f(state, &mut ctx, payload);
            self.handlers[h.0 as usize] = Some(f);
            executed += 1;
            if self.stop {
                break RunOutcome::Stopped;
            }
        };
        if outcome == RunOutcome::DeadlineReached {
            self.core.now = deadline;
        }
        if tracing {
            if rate_count > 0 {
                scalecheck_obs::counter(
                    scalecheck_obs::SpanName::EngineEvents,
                    scalecheck_obs::ENGINE_PID,
                    0,
                    rate_sec * 1_000_000_000,
                    rate_count,
                );
            }
            if let Some(id) = run_span {
                let end = self.core.now.as_nanos();
                scalecheck_obs::with(|t| t.span_end(id, end, executed));
            }
        }
        RunStats {
            executed,
            ended_at: self.core.now,
            outcome,
            counters: self.core.counters,
        }
    }

    /// Runs until the queue drains or an event stops the engine.
    pub fn run_to_completion(&mut self, state: &mut S) -> RunStats {
        self.run_until(state, SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registers the handler that pushes its payload onto the log.
    fn pusher<T: From<u32> + Send + 'static>(eng: &mut Engine<Vec<T>>) -> HandlerId {
        eng.register_handler(|s: &mut Vec<T>, _, p| s.push(T::from(p as u32)))
    }

    /// Wheel and heap engines, each with its pusher.
    fn both() -> [(Engine<Vec<u32>>, HandlerId); 2] {
        [SchedulerKind::Wheel, SchedulerKind::Heap].map(|kind| {
            let mut eng = Engine::with_scheduler(1, kind);
            let push = pusher(&mut eng);
            (eng, push)
        })
    }

    #[test]
    fn events_fire_in_time_order() {
        for (mut eng, push) in both() {
            eng.schedule_handler_at(SimTime::from_secs(3), push, 3);
            eng.schedule_handler_at(SimTime::from_secs(1), push, 1);
            eng.schedule_handler_at(SimTime::from_secs(2), push, 2);
            let mut out = Vec::new();
            let stats = eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1, 2, 3]);
            assert_eq!(stats.executed, 3);
            assert_eq!(stats.outcome, RunOutcome::QueueDrained);
        }
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        for (mut eng, push) in both() {
            let t = SimTime::from_secs(1);
            for i in 0..10 {
                eng.schedule_handler_at(t, push, i);
            }
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, (0..10).collect::<Vec<_>>());
        }
    }

    /// Runs `ties` same-time pushes of 0.. (plus one untied 99 when
    /// `marker`) under `spec`.
    fn tie_run(kind: SchedulerKind, spec: &TieOrderSpec, ties: u64, marker: bool) -> Vec<u32> {
        let mut eng: Engine<Vec<u32>> = Engine::with_tie_order(1, kind, spec);
        let push = pusher(&mut eng);
        for i in 0..ties {
            eng.schedule_handler_at(SimTime::from_secs(1), push, i);
        }
        if marker {
            eng.schedule_handler_at(SimTime::from_secs(2), push, 99);
        }
        let mut out = Vec::new();
        eng.run_to_completion(&mut out);
        out
    }

    #[test]
    fn tie_swap_reorders_one_adjacent_pair_only() {
        use crate::tie::TieSwap;
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            // Stock tie order for seqs 1..=4 is [0, 1, 2, 3]; swapping at
            // seq 2 exchanges the events scheduled 2nd and 3rd.
            let spec = TieOrderSpec::with_swaps(vec![TieSwap { seq: 2, shift: 1 }]);
            assert_eq!(tie_run(kind, &spec, 4, false), vec![0, 2, 1, 3]);
        }
    }

    #[test]
    fn zero_shift_swap_is_identity_through_the_policy_path() {
        use crate::tie::TieSwap;
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            // shift == 0 keys the event between its own stock key and the
            // next one: the permutation is identity, but the policy object
            // is installed (the spec is not structurally identity).
            let spec = TieOrderSpec::with_swaps(vec![TieSwap { seq: 3, shift: 0 }]);
            assert!(!spec.is_identity());
            assert_eq!(tie_run(kind, &spec, 6, false), (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shuffled_ties_permute_deterministically_and_only_within_ties() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            // A later, untied event must stay after every tie.
            let run = |spec: &TieOrderSpec| tie_run(kind, spec, 8, true);
            let a = run(&TieOrderSpec::shuffled(7));
            let b = run(&TieOrderSpec::shuffled(7));
            let c = run(&TieOrderSpec::shuffled(8));
            assert_eq!(a, b, "same shuffle seed, same order");
            assert_ne!(a, c, "different shuffle seed, different order");
            assert_eq!(a[8], 99, "shuffle never crosses timestamps");
            let mut ties: Vec<u32> = a[..8].to_vec();
            ties.sort_unstable();
            assert_eq!(
                ties,
                (0..8).collect::<Vec<_>>(),
                "a permutation of the ties"
            );
        }
    }

    #[test]
    fn fire_log_records_each_fired_event_in_fired_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new(1);
        let other = eng.register_handler(|_, _, _| {});
        let push = pusher(&mut eng);
        eng.record_fires(true);
        let t = SimTime::from_secs(1);
        eng.schedule_handler_at(t, push, 7);
        eng.schedule_handler_at(t, other, 1 << 40);
        eng.schedule_handler_at(SimTime::from_secs(2), push, 8);
        let mut out = Vec::new();
        eng.run_to_completion(&mut out);
        let fire = |at: u64, seq, handler, payload| FireRec {
            at: at * 1_000_000_000,
            seq,
            handler,
            payload,
        };
        assert_eq!(
            eng.take_fire_log(),
            vec![fire(1, 1, 1, 7), fire(1, 2, 0, 1 << 40), fire(2, 3, 1, 8)]
        );
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new(1);
        let stamp = eng.register_handler(|s: &mut Vec<u64>, ctx, _| s.push(ctx.now().as_nanos()));
        let first = eng.register_handler(move |s: &mut Vec<u64>, ctx, _| {
            s.push(ctx.now().as_nanos());
            ctx.schedule_handler_after(SimDuration::from_secs(2), stamp, 0);
        });
        eng.schedule_handler_at(SimTime::from_secs(1), first, 0);
        let mut out = Vec::new();
        eng.run_to_completion(&mut out);
        assert_eq!(out, vec![1_000_000_000, 3_000_000_000]);
    }

    #[test]
    fn same_granule_scheduling_keeps_tie_order() {
        // An event scheduling a same-time follow-up must see it fire
        // within the same wheel granule, after already-queued ties.
        for (mut eng, push) in both() {
            let t = SimTime::from_secs(1);
            let first = eng.register_handler(move |s: &mut Vec<u32>, ctx, _| {
                s.push(0);
                ctx.schedule_handler_at(ctx.now(), push, 9);
            });
            eng.schedule_handler_at(t, first, 0);
            eng.schedule_handler_at(t, push, 1);
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![0, 1, 9]);
        }
    }

    #[test]
    fn deadline_stops_and_clamps_clock() {
        for (mut eng, push) in both() {
            eng.schedule_handler_at(SimTime::from_secs(1), push, 1);
            eng.schedule_handler_at(SimTime::from_secs(10), push, 10);
            let mut out = Vec::new();
            let stats = eng.run_until(&mut out, SimTime::from_secs(5));
            assert_eq!(out, vec![1]);
            assert_eq!(stats.outcome, RunOutcome::DeadlineReached);
            assert_eq!(eng.now(), SimTime::from_secs(5));
            assert_eq!(eng.pending(), 1);
            // Resuming picks up the rest.
            let stats = eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1, 10]);
            assert_eq!(stats.outcome, RunOutcome::QueueDrained);
        }
    }

    #[test]
    fn mid_granule_deadline_preserves_remaining_ties() {
        // Two events in the same ~1 ms granule with a deadline between
        // them: the second must survive the deadline and fire on resume.
        for (mut eng, push) in both() {
            eng.schedule_handler_at(SimTime::from_nanos(100), push, 1);
            eng.schedule_handler_at(SimTime::from_nanos(300), push, 2);
            let mut out = Vec::new();
            let stats = eng.run_until(&mut out, SimTime::from_nanos(200));
            assert_eq!(out, vec![1]);
            assert_eq!(stats.outcome, RunOutcome::DeadlineReached);
            assert_eq!(eng.pending(), 1);
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1, 2]);
        }
    }

    #[test]
    fn stop_halts_immediately() {
        for (mut eng, push) in both() {
            let stop = eng.register_handler(|s: &mut Vec<u32>, ctx, _| {
                s.push(1);
                ctx.stop();
            });
            eng.schedule_handler_at(SimTime::from_secs(1), stop, 0);
            eng.schedule_handler_at(SimTime::from_secs(2), push, 2);
            let mut out = Vec::new();
            let stats = eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1]);
            assert_eq!(stats.outcome, RunOutcome::Stopped);
            assert_eq!(eng.pending(), 1);
        }
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut eng: Engine<Vec<u64>> = Engine::new(1);
        let stamp = eng.register_handler(|s: &mut Vec<u64>, ctx, _| s.push(ctx.now().as_nanos()));
        let first = eng.register_handler(move |s: &mut Vec<u64>, ctx, _| {
            // Attempt to schedule in the past; must fire at `now`.
            ctx.schedule_handler_at(SimTime::from_secs(1), stamp, 0);
            s.push(ctx.now().as_nanos());
        });
        eng.schedule_handler_at(SimTime::from_secs(5), first, 0);
        let mut out = Vec::new();
        eng.run_to_completion(&mut out);
        assert_eq!(out, vec![5_000_000_000, 5_000_000_000]);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> Vec<u64> {
            let mut eng: Engine<Vec<u64>> = Engine::new(seed);
            let stamp =
                eng.register_handler(|s: &mut Vec<u64>, ctx, _| s.push(ctx.now().as_nanos()));
            let draw = eng.register_handler(move |s: &mut Vec<u64>, ctx, _| {
                let d = SimDuration::from_nanos(ctx.rng().gen_range(1000));
                ctx.schedule_handler_after(d, stamp, 0);
                s.push(d.as_nanos());
            });
            for _ in 0..5 {
                eng.schedule_handler_at(SimTime::ZERO, draw, 0);
            }
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            out
        }
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn cancel_removes_pending_events() {
        for (mut eng, push) in both() {
            let keep = eng.schedule_handler_at(SimTime::from_secs(1), push, 1);
            let kill = eng.schedule_handler_at(SimTime::from_secs(2), push, 2);
            assert_eq!(eng.pending(), 2);
            assert!(eng.cancel(kill));
            assert!(!eng.cancel(kill), "double cancel is a no-op");
            assert_eq!(eng.pending(), 1);
            let mut out = Vec::new();
            let stats = eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1]);
            assert_eq!(stats.outcome, RunOutcome::QueueDrained);
            assert!(!eng.cancel(keep), "fired events cannot be cancelled");
            let c = eng.counters();
            assert_eq!((c.scheduled, c.fired, c.cancelled), (2, 1, 1));
            assert_eq!(c.pending(), 0);
        }
    }

    /// The victim is the event scheduled `victim_at`; the killer fires
    /// at 100 ns and cancels it by the id its payload packs.
    fn cancel_from_a_handler(victim_at: SimTime) {
        for (mut eng, push) in both() {
            let victim = eng.schedule_handler_at(victim_at, push, 99);
            let killer = eng.register_handler(|s: &mut Vec<u32>, ctx, p| {
                let id = TimerId {
                    idx: p as u32,
                    gen: (p >> 32) as u32,
                };
                assert!(ctx.cancel(id));
                s.push(1);
            });
            let packed = (victim.gen as u64) << 32 | victim.idx as u64;
            eng.schedule_handler_at(SimTime::from_nanos(100), killer, packed);
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1]);
            assert_eq!(eng.pending(), 0);
        }
    }

    #[test]
    fn cancel_from_within_an_event_callback() {
        cancel_from_a_handler(SimTime::from_secs(5));
    }

    #[test]
    fn cancelling_a_same_tick_event_skips_it() {
        // Cancel an event already pulled into the wheel's firing batch.
        cancel_from_a_handler(SimTime::from_nanos(150));
    }

    #[test]
    fn handler_events_dispatch_with_payload() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut eng: Engine<Vec<u64>> = Engine::with_scheduler(1, kind);
            let h = eng.register_handler(|s: &mut Vec<u64>, ctx, payload| {
                s.push(payload);
                if payload < 3 {
                    let h_next = HandlerId(0);
                    ctx.schedule_handler_after(SimDuration::from_secs(1), h_next, payload + 1);
                }
            });
            eng.schedule_handler_at(SimTime::from_secs(1), h, 0);
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn steady_state_handler_timers_hit_the_pool() {
        // A periodic handler timer: after the first slab growth, every
        // schedule recycles the freed slot — zero allocations per event.
        let mut eng: Engine<u64> = Engine::new(1);
        let h = eng.register_handler(|count: &mut u64, ctx, i| {
            *count += 1;
            if i > 0 {
                ctx.schedule_handler_after(SimDuration::from_millis(10), HandlerId(0), i - 1);
            }
        });
        let rounds = 10_000u64;
        eng.schedule_handler_at(SimTime::ZERO, h, rounds - 1);
        let mut count = 0u64;
        eng.run_to_completion(&mut count);
        assert_eq!(count, rounds);
        let c = eng.counters();
        assert_eq!(c.scheduled, rounds);
        assert_eq!(
            c.pool_misses, 1,
            "only the very first schedule grows the slab"
        );
        assert_eq!(
            c.pool_hits,
            rounds - 1,
            "every steady-state schedule reuses it"
        );
    }

    /// An engine that counts into a `u64`, with its counting handler.
    fn counter() -> (Engine<u64>, HandlerId) {
        let mut eng: Engine<u64> = Engine::new(1);
        let count = eng.register_handler(|c: &mut u64, _, _| *c += 1);
        (eng, count)
    }

    #[test]
    fn run_until_emits_an_engine_span_when_traced() {
        scalecheck_obs::install(scalecheck_obs::Tracer::new());
        let (mut eng, h) = counter();
        for i in 0..5u64 {
            eng.schedule_handler_at(SimTime::from_secs(i), h, 0);
        }
        let mut count = 0u64;
        eng.run_to_completion(&mut count);
        let trace = scalecheck_obs::take().expect("tracer installed").finish();
        assert_eq!(count, 5);
        let span = trace
            .spans
            .iter()
            .find(|s| s.name == scalecheck_obs::SpanName::EngineRun as u16)
            .expect("engine.run span");
        assert_eq!(span.arg, 5, "span arg carries the executed count");
        assert_eq!(span.dur, 4_000_000_000);
        // Event-rate counter sampled per virtual second with fires.
        assert!(!trace.counters.is_empty());
        let fired: u64 = trace.counters.iter().map(|c| c.value).sum();
        assert_eq!(fired, 5);
    }

    #[test]
    fn untraced_runs_emit_nothing() {
        scalecheck_obs::clear();
        let (mut eng, h) = counter();
        eng.schedule_handler_at(SimTime::from_secs(1), h, 0);
        let mut count = 0u64;
        eng.run_to_completion(&mut count);
        assert!(scalecheck_obs::take().is_none());
    }

    #[test]
    fn wheel_and_heap_agree_on_a_mixed_workload() {
        fn run(kind: SchedulerKind) -> (Vec<(u64, u64)>, EngineCounters) {
            let mut eng: Engine<Vec<(u64, u64)>> = Engine::with_scheduler(7, kind);
            let stamp = eng.register_handler(|s: &mut Vec<(u64, u64)>, ctx, i| {
                s.push((ctx.now().as_nanos(), i));
            });
            let root = eng.register_handler(move |s: &mut Vec<(u64, u64)>, ctx, i| {
                s.push((ctx.now().as_nanos(), i));
                if i % 3 == 0 {
                    let d = SimDuration::from_nanos(ctx.rng().gen_range(5_000_000));
                    ctx.schedule_handler_after(d, stamp, 1000 + i);
                }
            });
            for i in 0..200u64 {
                let t = SimTime::from_nanos((i * 7_919_993) % 50_000_000);
                eng.schedule_handler_at(t, root, i);
            }
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            (out, eng.counters())
        }
        let (wheel, cw) = run(SchedulerKind::Wheel);
        let (heap, ch) = run(SchedulerKind::Heap);
        assert_eq!(wheel, heap);
        assert_eq!(cw.fired, ch.fired);
    }
}
