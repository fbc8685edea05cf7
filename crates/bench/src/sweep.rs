//! The shared parallel sweep harness.
//!
//! Every figure/table command decomposes its work into independent
//! [`Cell`]s — one scenario under one deployment each, or the two cells
//! of a (Real, Colo, SC+PIL) point ([`triple_cells`]) — and hands them
//! to [`run_sweep`], which executes every one of them, each time, on a
//! pool of OS threads fed from one shared queue. Two properties hold
//! regardless of `--jobs`:
//!
//! * **Determinism** — cells may *complete* in any order, but results
//!   are assembled in submission (canonical) order, so everything the
//!   command prints on stdout is byte-identical to a `--jobs 1` run.
//! * **Progress** — per-cell start/finish/timing lines go to stderr
//!   (never stdout), so live feedback does not perturb captured
//!   artifacts.

use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::time::Instant;

use scalecheck::{run_real, scale_check, Triple, COLO_CORES};
use scalecheck_cluster::{RunReport, ScenarioConfig};

/// The sweep's worker-thread count: `--jobs N` if given, else all
/// cores.
pub fn jobs(flag: Option<NonZeroUsize>) -> usize {
    flag.or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
}

/// One independent unit of sweep work.
pub struct Cell<R> {
    /// Label for progress lines, e.g. `c3831 N=64 Real`.
    pub label: String,
    /// Executes the cell. Must build all state internally (own engine,
    /// own cluster) — it runs on an arbitrary worker thread.
    pub run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Cell<R> {
    /// Builds a cell from a label and a runner.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> R + Send + 'static) -> Self {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// The two cells of one (Real, Colo, SC+PIL) point: the Real run, and
/// the memoization run followed by the replay over its database,
/// returning `[colo, pil]` — the memoization run *is* the Colo run, so
/// a triple is three simulations, and the pair cell is exactly as long
/// as an SC+PIL cell on its own. The results of the two cells,
/// flattened, read Real, Colo, SC+PIL.
pub fn triple_cells(label: &str, cfg: &ScenarioConfig) -> [Cell<Vec<RunReport>>; 2] {
    let (real_cfg, pair_cfg) = (cfg.clone(), cfg.clone());
    [
        Cell::new(format!("{label} Real"), move || vec![run_real(&real_cfg)]),
        Cell::new(format!("{label} Colo+SC+PIL"), move || {
            scale_check(&pair_cfg, COLO_CORES).into_reports().into()
        }),
    ]
}

/// Runs one triple per `(label, scenario)` point — two cells each — and
/// returns them in point order.
pub fn run_triples(points: Vec<(String, ScenarioConfig)>, jobs: usize) -> Vec<Triple> {
    let cells = points
        .iter()
        .flat_map(|(label, cfg)| triple_cells(label, cfg))
        .collect();
    let mut out = run_sweep(cells, jobs).into_iter().flatten();
    let mut next = || out.next().expect("three reports per point");
    (0..points.len())
        .map(|_| Triple {
            real: next(),
            colo: next(),
            pil: next(),
        })
        .collect()
}

/// Runs every cell on up to `jobs` worker threads and returns the
/// results in submission order. Workers take the next unstarted cell
/// from one shared queue, so a long cell never holds up the short ones
/// queued behind it.
pub fn run_sweep<R: Send>(cells: Vec<Cell<R>>, jobs: usize) -> Vec<R> {
    let total = cells.len();
    let started = Instant::now();
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
    let queue = Mutex::new(cells.into_iter().enumerate());

    std::thread::scope(|scope| {
        for me in 0..jobs.min(total) {
            let (queue, slots) = (&queue, &slots);
            scope.spawn(move || loop {
                let Some((idx, cell)) = queue.lock().expect("queue lock poisoned").next() else {
                    break;
                };
                eprintln!("[sweep] (w{me}) {}/{total} {}: start", idx + 1, cell.label);
                let t0 = Instant::now();
                let result = (cell.run)();
                eprintln!(
                    "[sweep] (w{me}) {}/{total} {}: done in {:.2}s",
                    idx + 1,
                    cell.label,
                    t0.elapsed().as_secs_f64()
                );
                slots.lock().expect("slot lock poisoned")[idx] = Some(result);
            });
        }
    });

    eprintln!(
        "[sweep] {total} cells executed in {:.2}s",
        started.elapsed().as_secs_f64()
    );
    let slots = slots.into_inner().expect("slot lock poisoned");
    slots
        .into_iter()
        .map(|s| s.expect("every cell produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: u64) -> Vec<Cell<u64>> {
        (0..n)
            .map(|i| Cell::new(format!("sq {i}"), move || i * i))
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let want: Vec<u64> = (0..17).map(|i| i * i).collect();
        assert_eq!(run_sweep(squares(17), 4), want);
        assert_eq!(run_sweep(squares(17), 1), want);
        assert_eq!(run_sweep(squares(0), 4), Vec::<u64>::new());
    }
}
