//! CPU and machine models.
//!
//! The paper's test setups differ in where compute runs ([`RunMode`]):
//!
//! * **Real-scale testing** — every node has its own machine, so compute
//!   blocks never contend across nodes (Figure 1a).
//! * **Basic colocation** — all nodes share one machine with a small number
//!   of cores; CPU-bound tasks queue behind each other and suffer
//!   context-switch overhead (Figure 1b).
//!
//! and in what the expensive blocks do, which is not a machine's
//! business: under PIL replay they become `sleep(t)` and never occupy a
//! core at all (Figure 1c).
//!
//! [`Machine`] implements a non-preemptive FIFO-per-core model: a submitted
//! task starts on the earliest-free core and holds it for its whole demand.
//! Context-switch cost grows with the multiprogramming level, reproducing
//! the §6 observation that thousands of colocated threads cause severe
//! context switching and queueing delay. An offline processor-sharing
//! model ([`ps_completions`]) is provided for ablating the scheduling
//! discipline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Identifies a machine within a [`MachinePark`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineId(pub usize);

/// Context-switch cost parameters.
#[derive(Clone, Copy, Debug)]
pub struct CtxSwitchModel {
    /// Fixed dispatch overhead per task.
    pub base: SimDuration,
    /// Additional overhead per unit of excess load (runnable tasks beyond
    /// the core count, normalized by the core count).
    pub per_excess_load: SimDuration,
}

impl CtxSwitchModel {
    /// No context-switch cost at all (useful for idealized baselines).
    pub const FREE: CtxSwitchModel = CtxSwitchModel {
        base: SimDuration::ZERO,
        per_excess_load: SimDuration::ZERO,
    };

    /// A commodity-OS-like default: 5 us dispatch, 20 us per excess-load
    /// unit (so 10x oversubscription adds ~0.2 ms per dispatch).
    pub fn commodity() -> Self {
        CtxSwitchModel {
            base: SimDuration::from_micros(5),
            per_excess_load: SimDuration::from_micros(20),
        }
    }

    fn overhead(&self, runnable: usize, cores: usize) -> SimDuration {
        let excess = runnable.saturating_sub(cores) as f64 / cores.max(1) as f64;
        self.base + self.per_excess_load.mul_f64(excess)
    }
}

/// Result of submitting a compute task to a machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuGrant {
    /// When the task begins executing (>= submission time).
    pub start: SimTime,
    /// When the task completes (start + overhead + demand).
    pub finish: SimTime,
    /// Queueing delay experienced (start - submission time).
    pub queue_delay: SimDuration,
}

/// A simulated machine with a fixed number of cores.
#[derive(Clone, Debug)]
pub struct Machine {
    cores: Vec<SimTime>,
    ctx_switch: CtxSwitchModel,
    in_flight: BinaryHeap<Reverse<SimTime>>,
    busy_ns: u128,
    created: SimTime,
    peak_runnable: usize,
}

impl Machine {
    /// Creates a machine with `cores` cores and the given context-switch
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, ctx_switch: CtxSwitchModel) -> Self {
        assert!(cores > 0, "a machine needs at least one core");
        Machine {
            cores: vec![SimTime::ZERO; cores],
            ctx_switch,
            in_flight: BinaryHeap::new(),
            busy_ns: 0,
            created: SimTime::ZERO,
            peak_runnable: 0,
        }
    }

    /// Submits a compute task of the given `demand` at time `now`; returns
    /// when it will start and finish. The caller is responsible for
    /// scheduling the completion event at `grant.finish`.
    pub fn submit(&mut self, now: SimTime, demand: SimDuration) -> CpuGrant {
        // Retire tasks that have finished by `now` to compute current load.
        while let Some(&Reverse(f)) = self.in_flight.peek() {
            if f <= now {
                self.in_flight.pop();
            } else {
                break;
            }
        }
        let runnable = self.in_flight.len() + 1;
        self.peak_runnable = self.peak_runnable.max(runnable);
        let overhead = self.ctx_switch.overhead(runnable, self.cores.len());

        // Earliest-free core (deterministic: lowest index wins ties).
        let (idx, &free_at) = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("at least one core");
        let start = now.max(free_at);
        let busy = overhead + demand;
        let finish = start + busy;
        self.cores[idx] = finish;
        self.in_flight.push(Reverse(finish));
        self.busy_ns += busy.as_nanos() as u128;
        let queue_delay = start.since(now);
        scalecheck_obs::metric(
            scalecheck_obs::Metric::CpuQueueDelay,
            queue_delay.as_nanos(),
        );
        CpuGrant {
            start,
            finish,
            queue_delay,
        }
    }

    /// Fraction of core-time spent busy since machine creation, in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.since(self.created).as_nanos() as u128 * self.cores.len() as u128;
        if elapsed == 0 {
            return 0.0;
        }
        (self.busy_ns as f64 / elapsed as f64).min(1.0)
    }

    /// Highest observed multiprogramming level.
    pub fn peak_runnable(&self) -> usize {
        self.peak_runnable
    }
}

/// Where a run's nodes compute: the first of a run's two arguments. The
/// second, what its PIL-replaced functions do (execute, record, or sleep
/// a recorded duration), is the run's PIL handle, not a mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunMode {
    /// Real-scale testing: every node has its own machine (Figure 1a).
    Real,
    /// Colocation: all nodes share one machine (Figure 1b, and Figure 1c
    /// when the run replays).
    Colo {
        /// Cores on the shared machine (the paper's Nome box has 16).
        cores: usize,
    },
}

impl RunMode {
    /// This deployment's machines for `nodes` nodes, every one with the
    /// `ctx_switch` model: Real, one two-core machine per node; Colo, one
    /// shared machine with `cores` cores (at least one).
    pub fn park(self, nodes: usize, ctx_switch: CtxSwitchModel) -> MachinePark {
        let machines = match self {
            RunMode::Real => vec![Machine::new(2, ctx_switch); nodes],
            RunMode::Colo { cores } => vec![Machine::new(cores.max(1), ctx_switch)],
        };
        MachinePark { machines }
    }

    /// The machine of [`RunMode::park`] that node `node` computes on.
    pub fn machine_of(self, node: usize) -> MachineId {
        match self {
            RunMode::Real => MachineId(node),
            RunMode::Colo { .. } => MachineId(0),
        }
    }
}

/// A fleet of machines, built by [`RunMode::park`].
#[derive(Clone, Debug, Default)]
pub struct MachinePark {
    machines: Vec<Machine>,
}

impl MachinePark {
    /// Shared access to a machine.
    pub fn get(&self, id: MachineId) -> &Machine {
        &self.machines[id.0]
    }

    /// Mutable access to a machine.
    pub fn get_mut(&mut self, id: MachineId) -> &mut Machine {
        &mut self.machines[id.0]
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the park has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Iterates over all machines.
    pub fn iter(&self) -> impl Iterator<Item = (MachineId, &Machine)> {
        self.machines
            .iter()
            .enumerate()
            .map(|(i, m)| (MachineId(i), m))
    }
}

/// Offline egalitarian processor-sharing completion times.
///
/// Given tasks as `(arrival, demand)` pairs, computes each task's
/// completion time when all active tasks share `cores` cores equally
/// (each task progresses at rate `min(1, cores/active)`). Used to ablate
/// the FIFO-per-core discipline used by [`Machine`].
pub fn ps_completions(tasks: &[(SimTime, SimDuration)], cores: usize) -> Vec<SimTime> {
    assert!(cores > 0);
    let n = tasks.len();
    let mut completions = vec![SimTime::ZERO; n];
    if n == 0 {
        return completions;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| tasks[i].0);

    // Active set: remaining work in "nanoseconds of service".
    let mut remaining: Vec<(usize, f64)> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now = tasks[order[0]].0.as_nanos() as f64;

    loop {
        // Admit arrivals at or before `now`.
        while next_arrival < n && (tasks[order[next_arrival]].0.as_nanos() as f64) <= now {
            let i = order[next_arrival];
            remaining.push((i, tasks[i].1.as_nanos() as f64));
            next_arrival += 1;
        }
        if remaining.is_empty() {
            if next_arrival >= n {
                break;
            }
            now = tasks[order[next_arrival]].0.as_nanos() as f64;
            continue;
        }
        let active = remaining.len();
        let rate = (cores as f64 / active as f64).min(1.0);
        // Time until first completion at the current rate.
        let min_rem = remaining
            .iter()
            .map(|&(_, r)| r)
            .fold(f64::INFINITY, f64::min);
        let t_complete = min_rem / rate;
        // Time until next arrival changes the active set.
        let t_arrival = if next_arrival < n {
            (tasks[order[next_arrival]].0.as_nanos() as f64) - now
        } else {
            f64::INFINITY
        };
        let dt = t_complete.min(t_arrival);
        for (_, r) in remaining.iter_mut() {
            *r -= rate * dt;
        }
        now += dt;
        remaining.retain(|&(i, r)| {
            if r <= 1e-6 {
                completions[i] = SimTime::from_nanos(now.round() as u64);
                false
            } else {
                true
            }
        });
    }
    completions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at_ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn uncontended_task_runs_immediately() {
        let mut m = Machine::new(2, CtxSwitchModel::FREE);
        let g = m.submit(at_ms(10), ms(5));
        assert_eq!(g.start, at_ms(10));
        assert_eq!(g.finish, at_ms(15));
        assert_eq!(g.queue_delay, SimDuration::ZERO);
    }

    #[test]
    fn one_core_serializes_n_tasks_to_n_times_t() {
        // The Figure 1b claim: N tasks of demand t on one core take N*t.
        let mut m = Machine::new(1, CtxSwitchModel::FREE);
        let n = 8;
        let mut last_finish = SimTime::ZERO;
        for _ in 0..n {
            let g = m.submit(SimTime::ZERO, ms(10));
            last_finish = g.finish;
        }
        assert_eq!(last_finish, at_ms(10 * n));
    }

    #[test]
    fn multiple_cores_run_in_parallel() {
        let mut m = Machine::new(4, CtxSwitchModel::FREE);
        let mut finishes = Vec::new();
        for _ in 0..4 {
            finishes.push(m.submit(SimTime::ZERO, ms(10)).finish);
        }
        assert!(finishes.iter().all(|&f| f == at_ms(10)));
        // Fifth task queues behind one of them.
        let g = m.submit(SimTime::ZERO, ms(10));
        assert_eq!(g.start, at_ms(10));
        assert_eq!(g.finish, at_ms(20));
    }

    #[test]
    fn context_switch_grows_with_load() {
        let cs = CtxSwitchModel {
            base: SimDuration::from_micros(10),
            per_excess_load: SimDuration::from_millis(1),
        };
        let mut m = Machine::new(1, cs);
        let g1 = m.submit(SimTime::ZERO, ms(1));
        // Second submission sees one in-flight task -> excess load 1.
        let g2 = m.submit(SimTime::ZERO, ms(1));
        let o1 = g1.finish.since(g1.start) - ms(1);
        let o2 = g2.finish.since(g2.start) - ms(1);
        assert!(o2 > o1, "overhead should grow with load: {o1} vs {o2}");
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut m = Machine::new(2, CtxSwitchModel::FREE);
        m.submit(SimTime::ZERO, ms(10));
        // One core busy 10ms of a 10ms window on a 2-core box -> 50%.
        let u = m.utilization(at_ms(10));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn queued_task_reports_its_delay_and_the_load_peak() {
        let mut m = Machine::new(1, CtxSwitchModel::FREE);
        assert_eq!(m.submit(SimTime::ZERO, ms(10)).queue_delay, ms(0));
        assert_eq!(m.submit(SimTime::ZERO, ms(10)).queue_delay, ms(10));
        assert_eq!(m.peak_runnable(), 2);
    }

    #[test]
    fn in_flight_retires_completed_tasks() {
        let cs = CtxSwitchModel {
            base: SimDuration::ZERO,
            per_excess_load: SimDuration::from_millis(1),
        };
        let mut m = Machine::new(1, cs);
        m.submit(SimTime::ZERO, ms(1));
        // Submitting long after completion sees zero load again.
        let g = m.submit(at_ms(100), ms(1));
        assert_eq!(g.finish, at_ms(101));
    }

    #[test]
    fn each_deployment_builds_its_park() {
        let mut real = RunMode::Real.park(3, CtxSwitchModel::FREE);
        assert_eq!(real.len(), 3);
        let a = RunMode::Real.machine_of(1);
        real.get_mut(a).submit(SimTime::ZERO, ms(1));
        real.get_mut(a).submit(SimTime::ZERO, ms(1));
        // Two cores: only the third task queues.
        let g = real.get_mut(a).submit(SimTime::ZERO, ms(1));
        assert_eq!(g.start, at_ms(1));
        assert_eq!(real.get(a).peak_runnable(), 3);
        assert_eq!(real.get(RunMode::Real.machine_of(2)).peak_runnable(), 0);
        let colo = RunMode::Colo { cores: 16 };
        assert_eq!(colo.park(3, CtxSwitchModel::FREE).len(), 1);
        assert_eq!(
            (colo.machine_of(0), colo.machine_of(2)),
            (MachineId(0), MachineId(0))
        );
        // Zero cores is clamped to one.
        let mut one = RunMode::Colo { cores: 0 }.park(3, CtxSwitchModel::FREE);
        let m = one.get_mut(MachineId(0));
        m.submit(SimTime::ZERO, ms(1));
        assert_eq!(m.submit(SimTime::ZERO, ms(1)).start, at_ms(1));
        assert_eq!(one.iter().count(), 1);
    }

    #[test]
    fn ps_single_task_is_demand() {
        let done = ps_completions(&[(SimTime::ZERO, ms(10))], 1);
        assert_eq!(done, vec![at_ms(10)]);
    }

    #[test]
    fn ps_two_tasks_share_one_core() {
        // Two equal tasks sharing one core both finish at 2*t.
        let done = ps_completions(&[(SimTime::ZERO, ms(10)), (SimTime::ZERO, ms(10))], 1);
        assert_eq!(done, vec![at_ms(20), at_ms(20)]);
    }

    #[test]
    fn ps_respects_arrivals_and_cores() {
        // Second task arrives at 5ms; with 2 cores there is no sharing.
        let done = ps_completions(&[(SimTime::ZERO, ms(10)), (at_ms(5), ms(10))], 2);
        assert_eq!(done, vec![at_ms(10), at_ms(15)]);
    }

    #[test]
    fn ps_empty_input() {
        assert!(ps_completions(&[], 4).is_empty());
    }
}
