//! The discrete-event engine.
//!
//! [`Engine`] owns a scheduler of timestamped events; the simulated
//! world state `S` lives outside the engine so event callbacks can
//! mutate it freely while scheduling follow-up events through [`Ctx`].
//!
//! Two interchangeable schedulers exist behind the same API
//! ([`SchedulerKind`]):
//!
//! * **Wheel** (the default): a hierarchical timer wheel
//!   ([`crate::wheel`]) with slab/free-list event storage and pooled
//!   tie-batch `Vec`s. Steady-state periodic timers recycle storage, so
//!   scheduling and firing stay allocation-free per event.
//! * **Heap**: the original `BinaryHeap` scheduler, kept as the
//!   differential reference (one boxed closure and an `O(log n)` sift
//!   per event).
//!
//! Events come in two shapes: one-shot boxed closures
//! ([`Engine::schedule_at`]) and *handler events*
//! ([`Engine::register_handler`] + [`Engine::schedule_handler_at`]) — a
//! pre-registered `FnMut` dispatched with a `u64` payload, stored inline
//! in the slab so periodic timers never box anything.
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

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::metrics::EngineCounters;
use crate::rng::DetRng;
use crate::tie::{identity_key, FireRec, TieOrder, TieOrderSpec};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{EventRef, Slab, Wheel};

/// A one-shot event callback: mutates the world and may schedule more
/// events.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Ctx<'_, S>) + Send>;

/// A registered handler: dispatched for every handler event scheduled
/// against its [`HandlerId`], with the event's `u64` payload.
pub type HandlerFn<S> = Box<dyn FnMut(&mut S, &mut Ctx<'_, S>, u64) + Send>;

/// Handle to a pending event; pass to [`Engine::cancel`] /
/// [`Ctx::cancel`] to remove it before it fires. Ids are generation-
/// checked: once the event fires or is cancelled, the id goes inert.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId {
    idx: u32,
    gen: u32,
}

/// Handle to a handler registered with [`Engine::register_handler`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HandlerId(u32);

/// Which scheduler backs an [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Hierarchical timer wheel with slab storage (the default).
    #[default]
    Wheel,
    /// The reference `BinaryHeap` scheduler.
    Heap,
}

/// What a stored event does when it fires.
enum Payload<S> {
    Once(EventFn<S>),
    Handler(HandlerId, u64),
}

struct HeapEv<S> {
    at: SimTime,
    key: u64,
    seq: u64,
    id: u64,
    ev: Payload<S>,
}

impl<S> PartialEq for HeapEv<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}
impl<S> Eq for HeapEv<S> {}
impl<S> PartialOrd for HeapEv<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for HeapEv<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, key, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

enum Sched<S> {
    Wheel {
        wheel: Wheel,
        slab: Slab<Payload<S>>,
        /// Current tick's batch, sorted by `(at, seq)`; survives across
        /// `run_until` calls when a deadline lands mid-granule.
        batch: Vec<EventRef>,
        batch_pos: usize,
        batch_tick: u64,
        batch_live: bool,
    },
    Heap {
        queue: BinaryHeap<HeapEv<S>>,
        /// Ids of pending (schedulable) events.
        live_ids: HashSet<u64>,
        /// Ids cancelled but not yet lazily popped. Only membership is
        /// ever queried, so hash iteration order cannot leak into runs.
        cancelled: HashSet<u64>,
        next_id: u64,
    },
}

/// Everything event callbacks may touch besides the RNG and stop flag.
struct Core<S> {
    now: SimTime,
    seq: u64,
    /// Pending (uncancelled, unfired) events.
    live: usize,
    counters: EngineCounters,
    /// Tie-order policy; `None` is the stock (scheduling-order) path.
    tie: Option<Box<dyn TieOrder>>,
    sched: Sched<S>,
}

enum Pop<S> {
    Fired(SimTime, u64, Payload<S>),
    Deadline,
    Drained,
}

impl<S> Core<S> {
    fn schedule(&mut self, at: SimTime, payload: Payload<S>) -> TimerId {
        let at = at.max(self.now);
        self.seq += 1;
        let seq = self.seq;
        let key = match self.tie.as_mut() {
            None => identity_key(seq),
            Some(p) => p.tie_key(at, seq),
        };
        self.counters.scheduled += 1;
        self.live += 1;
        match &mut self.sched {
            Sched::Heap {
                queue,
                live_ids,
                next_id,
                ..
            } => {
                let id = *next_id;
                *next_id += 1;
                self.counters.pool_misses += 1;
                live_ids.insert(id);
                queue.push(HeapEv {
                    at,
                    key,
                    seq,
                    id,
                    ev: payload,
                });
                TimerId {
                    idx: id as u32,
                    gen: (id >> 32) as u32,
                }
            }
            Sched::Wheel {
                wheel,
                slab,
                batch,
                batch_pos,
                batch_tick,
                batch_live,
            } => {
                let (idx, gen, reused) = slab.insert(payload);
                if reused {
                    self.counters.pool_hits += 1;
                } else {
                    self.counters.pool_misses += 1;
                }
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
                TimerId { idx, gen }
            }
        }
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        let hit = match &mut self.sched {
            Sched::Heap {
                live_ids,
                cancelled,
                ..
            } => {
                let raw = ((id.gen as u64) << 32) | id.idx as u64;
                live_ids.remove(&raw) && cancelled.insert(raw)
            }
            Sched::Wheel { slab, .. } => slab.take(id.idx, id.gen).is_some(),
        };
        if hit {
            self.counters.cancelled += 1;
            self.live -= 1;
        }
        hit
    }

    fn pop_next(&mut self, deadline: SimTime) -> Pop<S> {
        if self.live == 0 {
            return Pop::Drained;
        }
        match &mut self.sched {
            Sched::Heap {
                queue,
                live_ids,
                cancelled,
                ..
            } => loop {
                match queue.peek() {
                    None => return Pop::Drained,
                    Some(ev) if cancelled.contains(&ev.id) => {
                        let ev = queue.pop().expect("peeked event present");
                        cancelled.remove(&ev.id);
                    }
                    Some(ev) if ev.at > deadline => return Pop::Deadline,
                    Some(_) => {
                        let ev = queue.pop().expect("peeked event present");
                        live_ids.remove(&ev.id);
                        return Pop::Fired(ev.at, ev.seq, ev.ev);
                    }
                }
            },
            Sched::Wheel {
                wheel,
                slab,
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
                    if let Some(p) = slab.take(r.idx, r.gen) {
                        return Pop::Fired(r.at, r.seq, p);
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

/// Handle given to event callbacks for scheduling and randomness.
pub struct Ctx<'a, S> {
    core: &'a mut Core<S>,
    rng: &'a mut DetRng,
    stop: &'a mut bool,
}

impl<'a, S> Ctx<'a, S> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Schedules `f` to run at absolute time `at` (clamped to now).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> TimerId
    where
        F: FnOnce(&mut S, &mut Ctx<'_, S>) + Send + 'static,
    {
        self.core.schedule(at, Payload::Once(Box::new(f)))
    }

    /// Schedules `f` to run after `delay`.
    pub fn schedule_after<F>(&mut self, delay: SimDuration, f: F) -> TimerId
    where
        F: FnOnce(&mut S, &mut Ctx<'_, S>) + Send + 'static,
    {
        self.schedule_at(self.core.now + delay, f)
    }

    /// Schedules a handler event at absolute time `at` (clamped to now);
    /// the registered handler runs with `payload`. No allocation when
    /// the slab recycles a slot (the steady state).
    pub fn schedule_handler_at(&mut self, at: SimTime, h: HandlerId, payload: u64) -> TimerId {
        self.core.schedule(at, Payload::Handler(h, payload))
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

    /// Sequence number of the most recently scheduled event. Immediately
    /// after a `schedule_*` call this identifies that event for tie-order
    /// perturbation targeting ([`crate::tie::TieSwap`]).
    pub fn last_seq(&self) -> u64 {
        self.core.seq
    }

    /// Requests that the run loop stop after this event returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// A deterministic discrete-event engine over world state `S`.
pub struct Engine<S> {
    core: Core<S>,
    rng: DetRng,
    stop: bool,
    executed_total: u64,
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
                slab: Slab::new(),
                batch: Vec::new(),
                batch_pos: 0,
                batch_tick: 0,
                batch_live: false,
            },
            SchedulerKind::Heap => Sched::Heap {
                queue: BinaryHeap::new(),
                live_ids: HashSet::new(),
                cancelled: HashSet::new(),
                next_id: 0,
            },
        };
        Engine {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                live: 0,
                counters: EngineCounters::default(),
                tie: None,
                sched,
            },
            rng: DetRng::new(seed),
            stop: false,
            executed_total: 0,
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

    /// Total events executed over the engine's lifetime.
    pub fn executed_total(&self) -> u64 {
        self.executed_total
    }

    /// Engine-lifetime scheduling counters.
    pub fn counters(&self) -> EngineCounters {
        self.core.counters
    }

    /// Sequence number of the most recently scheduled event.
    pub fn last_seq(&self) -> u64 {
        self.core.seq
    }

    /// Enables (or disables) recording of `(at, seq)` per fired event.
    /// The log feeds [`crate::tie::ScheduleProbe::tie_groups`].
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
    /// returned id dispatch to it without boxing a fresh closure.
    pub fn register_handler<F>(&mut self, f: F) -> HandlerId
    where
        F: FnMut(&mut S, &mut Ctx<'_, S>, u64) + Send + 'static,
    {
        let id = u32::try_from(self.handlers.len()).expect("handler capacity");
        self.handlers.push(Some(Box::new(f)));
        HandlerId(id)
    }

    /// Schedules `f` at absolute time `at` from outside an event
    /// callback.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> TimerId
    where
        F: FnOnce(&mut S, &mut Ctx<'_, S>) + Send + 'static,
    {
        self.core.schedule(at, Payload::Once(Box::new(f)))
    }

    /// Schedules `f` after `delay` from outside an event callback.
    pub fn schedule_after<F>(&mut self, delay: SimDuration, f: F) -> TimerId
    where
        F: FnOnce(&mut S, &mut Ctx<'_, S>) + Send + 'static,
    {
        self.schedule_at(self.core.now + delay, f)
    }

    /// Schedules a handler event at absolute time `at`.
    pub fn schedule_handler_at(&mut self, at: SimTime, h: HandlerId, payload: u64) -> TimerId {
        self.core.schedule(at, Payload::Handler(h, payload))
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
            let (at, seq, payload) = match self.core.pop_next(deadline) {
                Pop::Drained => break RunOutcome::QueueDrained,
                Pop::Deadline => break RunOutcome::DeadlineReached,
                Pop::Fired(at, seq, payload) => (at, seq, payload),
            };
            debug_assert!(at >= self.core.now, "event queue went backwards");
            if let Some(log) = self.fire_log.as_mut() {
                log.push(FireRec {
                    at: at.as_nanos(),
                    seq,
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
            match payload {
                Payload::Once(f) => {
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        rng: &mut self.rng,
                        stop: &mut self.stop,
                    };
                    f(state, &mut ctx);
                }
                Payload::Handler(h, arg) => {
                    // Take the handler out for the call so it cannot
                    // alias the engine borrow, then put it back.
                    let mut f = self.handlers[h.0 as usize]
                        .take()
                        .expect("handler re-entered its own dispatch");
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        rng: &mut self.rng,
                        stop: &mut self.stop,
                    };
                    f(state, &mut ctx, arg);
                    self.handlers[h.0 as usize] = Some(f);
                }
            }
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
        self.executed_total += executed;
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

    fn both() -> [Engine<Vec<u32>>; 2] {
        [
            Engine::with_scheduler(1, SchedulerKind::Wheel),
            Engine::with_scheduler(1, SchedulerKind::Heap),
        ]
    }

    #[test]
    fn events_fire_in_time_order() {
        for mut eng in both() {
            eng.schedule_at(SimTime::from_secs(3), |s, _| s.push(3));
            eng.schedule_at(SimTime::from_secs(1), |s, _| s.push(1));
            eng.schedule_at(SimTime::from_secs(2), |s, _| s.push(2));
            let mut out = Vec::new();
            let stats = eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1, 2, 3]);
            assert_eq!(stats.executed, 3);
            assert_eq!(stats.outcome, RunOutcome::QueueDrained);
        }
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        for mut eng in both() {
            let t = SimTime::from_secs(1);
            for i in 0..10 {
                eng.schedule_at(t, move |s, _| s.push(i));
            }
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tie_swap_reorders_one_adjacent_pair_only() {
        use crate::tie::TieSwap;
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            // Stock tie order for seqs 1..=4 is [0, 1, 2, 3]; swapping at
            // seq 2 exchanges the events scheduled 2nd and 3rd.
            let spec = TieOrderSpec::with_swaps(vec![TieSwap { seq: 2, shift: 1 }]);
            let mut eng: Engine<Vec<u32>> = Engine::with_tie_order(1, kind, &spec);
            let t = SimTime::from_secs(1);
            for i in 0..4 {
                eng.schedule_at(t, move |s, _| s.push(i));
            }
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![0, 2, 1, 3]);
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
            let mut eng: Engine<Vec<u32>> = Engine::with_tie_order(1, kind, &spec);
            let t = SimTime::from_secs(1);
            for i in 0..6 {
                eng.schedule_at(t, move |s, _| s.push(i));
            }
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shuffled_ties_permute_deterministically_and_only_within_ties() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let run = |spec: &TieOrderSpec| {
                let mut eng: Engine<Vec<u32>> = Engine::with_tie_order(1, kind, spec);
                for i in 0..8 {
                    eng.schedule_at(SimTime::from_secs(1), move |s, _| s.push(i));
                }
                // A later, untied event must stay after every tie.
                eng.schedule_at(SimTime::from_secs(2), |s, _| s.push(99));
                let mut out = Vec::new();
                eng.run_to_completion(&mut out);
                out
            };
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
    fn fire_log_records_at_seq_in_fired_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new(1);
        eng.record_fires(true);
        let t = SimTime::from_secs(1);
        eng.schedule_at(t, |s, _| s.push(0));
        eng.schedule_at(t, |s, _| s.push(1));
        assert_eq!(eng.last_seq(), 2);
        eng.schedule_at(SimTime::from_secs(2), |s, _| s.push(2));
        let mut out = Vec::new();
        eng.run_to_completion(&mut out);
        let log = eng.take_fire_log();
        assert_eq!(
            log,
            vec![
                FireRec {
                    at: 1_000_000_000,
                    seq: 1
                },
                FireRec {
                    at: 1_000_000_000,
                    seq: 2
                },
                FireRec {
                    at: 2_000_000_000,
                    seq: 3
                },
            ]
        );
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new(1);
        eng.schedule_at(SimTime::from_secs(1), |s, ctx| {
            s.push(ctx.now().as_nanos());
            ctx.schedule_after(SimDuration::from_secs(2), |s, ctx| {
                s.push(ctx.now().as_nanos());
            });
        });
        let mut out = Vec::new();
        eng.run_to_completion(&mut out);
        assert_eq!(out, vec![1_000_000_000, 3_000_000_000]);
    }

    #[test]
    fn same_granule_scheduling_keeps_tie_order() {
        // An event scheduling a same-time follow-up must see it fire
        // within the same wheel granule, after already-queued ties.
        for mut eng in both() {
            let t = SimTime::from_secs(1);
            eng.schedule_at(t, |s: &mut Vec<u32>, ctx: &mut Ctx<'_, Vec<u32>>| {
                s.push(0);
                ctx.schedule_at(ctx.now(), |s, _| s.push(9));
            });
            eng.schedule_at(t, |s, _| s.push(1));
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![0, 1, 9]);
        }
    }

    #[test]
    fn deadline_stops_and_clamps_clock() {
        for mut eng in both() {
            eng.schedule_at(SimTime::from_secs(1), |s, _| s.push(1));
            eng.schedule_at(SimTime::from_secs(10), |s, _| s.push(10));
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
        for mut eng in both() {
            let a = SimTime::from_nanos(100);
            let b = SimTime::from_nanos(300);
            eng.schedule_at(a, |s, _| s.push(1));
            eng.schedule_at(b, |s, _| s.push(2));
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
        for mut eng in both() {
            eng.schedule_at(SimTime::from_secs(1), |s, ctx| {
                s.push(1);
                ctx.stop();
            });
            eng.schedule_at(SimTime::from_secs(2), |s, _| s.push(2));
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
        eng.schedule_at(SimTime::from_secs(5), |s, ctx| {
            // Attempt to schedule in the past; must fire at `now`.
            ctx.schedule_at(SimTime::from_secs(1), |s2, ctx2| {
                s2.push(ctx2.now().as_nanos());
            });
            s.push(ctx.now().as_nanos());
        });
        let mut out = Vec::new();
        eng.run_to_completion(&mut out);
        assert_eq!(out, vec![5_000_000_000, 5_000_000_000]);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> Vec<u64> {
            let mut eng: Engine<Vec<u64>> = Engine::new(seed);
            for _ in 0..5 {
                eng.schedule_at(SimTime::ZERO, |s, ctx| {
                    let d = SimDuration::from_nanos(ctx.rng().gen_range(1000));
                    ctx.schedule_after(d, move |s2, ctx2| s2.push(ctx2.now().as_nanos()));
                    s.push(d.as_nanos());
                });
            }
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            out
        }
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn executed_total_accumulates() {
        let mut eng: Engine<()> = Engine::new(1);
        eng.schedule_at(SimTime::from_secs(1), |_, _| {});
        eng.schedule_at(SimTime::from_secs(2), |_, _| {});
        eng.run_until(&mut (), SimTime::from_secs(1));
        assert_eq!(eng.executed_total(), 1);
        eng.run_to_completion(&mut ());
        assert_eq!(eng.executed_total(), 2);
    }

    #[test]
    fn cancel_removes_pending_events() {
        for mut eng in both() {
            let keep = eng.schedule_at(SimTime::from_secs(1), |s, _| s.push(1));
            let kill = eng.schedule_at(SimTime::from_secs(2), |s, _| s.push(2));
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

    #[test]
    fn cancel_from_within_an_event_callback() {
        for mut eng in both() {
            let victim = eng.schedule_at(SimTime::from_secs(5), |s, _| s.push(99));
            eng.schedule_at(SimTime::from_secs(1), move |s, ctx| {
                assert!(ctx.cancel(victim));
                s.push(1);
            });
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1]);
        }
    }

    #[test]
    fn cancelling_a_same_tick_event_skips_it() {
        // Cancel an event already pulled into the wheel's firing batch.
        for mut eng in both() {
            let t = SimTime::from_nanos(100);
            let victim = eng.schedule_at(t + SimDuration::from_nanos(50), |s: &mut Vec<u32>, _| {
                s.push(99)
            });
            eng.schedule_at(t, move |s, ctx| {
                assert!(ctx.cancel(victim));
                s.push(1);
            });
            let mut out = Vec::new();
            eng.run_to_completion(&mut out);
            assert_eq!(out, vec![1]);
            assert_eq!(eng.pending(), 0);
        }
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

    #[test]
    fn run_until_emits_an_engine_span_when_traced() {
        scalecheck_obs::install(scalecheck_obs::Tracer::new());
        let mut eng: Engine<u64> = Engine::new(1);
        for i in 0..5u64 {
            eng.schedule_at(SimTime::from_secs(i), |c, _| *c += 1);
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
        let mut eng: Engine<u64> = Engine::new(1);
        eng.schedule_at(SimTime::from_secs(1), |c, _| *c += 1);
        let mut count = 0u64;
        eng.run_to_completion(&mut count);
        assert!(scalecheck_obs::take().is_none());
    }

    #[test]
    fn wheel_and_heap_agree_on_a_mixed_workload() {
        fn run(kind: SchedulerKind) -> (Vec<(u64, u64)>, EngineCounters) {
            let mut eng: Engine<Vec<(u64, u64)>> = Engine::with_scheduler(7, kind);
            for i in 0..200u64 {
                let t = SimTime::from_nanos((i * 7_919_993) % 50_000_000);
                eng.schedule_at(t, move |s, ctx| {
                    s.push((ctx.now().as_nanos(), i));
                    if i % 3 == 0 {
                        let d = SimDuration::from_nanos(ctx.rng().gen_range(5_000_000));
                        ctx.schedule_after(d, move |s, ctx| {
                            s.push((ctx.now().as_nanos(), 1000 + i));
                        });
                    }
                });
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
