//! The shared parallel sweep harness.
//!
//! Every figure/table binary decomposes its work into independent
//! [`Cell`]s — one `(scenario, mode)` experiment each — and hands them
//! to [`run_sweep`], which executes them on a work-stealing pool of OS
//! threads. Three properties hold regardless of `--jobs`:
//!
//! * **Determinism** — cells may *complete* in any order, but results
//!   are assembled in submission (canonical) order, so everything the
//!   binary prints on stdout is byte-identical to a `--jobs 1` run.
//! * **Caching** — each cell's full configuration is serialized and
//!   digested; the result is stored content-addressed under
//!   `results/cache/<digest>.json`. A warm-cache sweep executes zero
//!   cells. `--no-cache` bypasses both lookup and store.
//! * **Progress** — per-cell start/finish/timing lines go to stderr
//!   (never stdout), so live feedback does not perturb captured
//!   artifacts.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scalecheck::content_digest;
use scalecheck_cluster::RunReport;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// How a sweep executes: parallelism and caching.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads (`--jobs N`; default: all cores).
    pub jobs: usize,
    /// Whether to consult and fill the on-disk result cache
    /// (`--no-cache` disables).
    pub use_cache: bool,
    /// Where cached cell results live.
    pub cache_dir: PathBuf,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            use_cache: true,
            cache_dir: PathBuf::from(DEFAULT_CACHE_DIR),
        }
    }
}

impl SweepOptions {
    /// Parses `--jobs N` and `--no-cache` from an argument list.
    /// Defaults: all cores, cache on.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut opts = SweepOptions::default();
        if let Some(j) = crate::flag_value(args, "--jobs")? {
            let jobs: usize = j
                .parse()
                .map_err(|_| format!("--jobs expects a positive integer, got '{j}'"))?;
            if jobs == 0 {
                return Err("--jobs must be at least 1".to_string());
            }
            opts.jobs = jobs;
        }
        if crate::has_flag(args, "--no-cache") {
            opts.use_cache = false;
        }
        Ok(opts)
    }
}

/// One independent unit of sweep work.
pub struct Cell<R> {
    /// Label for progress lines, e.g. `c3831 N=64 Real`.
    pub label: String,
    /// The cell's *complete* configuration as a serializable value;
    /// its digest is the cache key, so it must capture everything that
    /// determines the result.
    pub key: serde_json::Value,
    /// Executes the cell. Must build all state internally (own engine,
    /// own cluster) — it runs on an arbitrary worker thread.
    pub run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Cell<R> {
    /// Builds a cell from a label, a serializable config, and a runner.
    /// The key is taken by value so call sites can clone a config into
    /// the key and move the original into the runner.
    pub fn new<K: Serialize>(
        label: impl Into<String>,
        key: K,
        run: impl FnOnce() -> R + Send + 'static,
    ) -> Self {
        Cell {
            label: label.into(),
            key: serde_json::to_value(&key).expect("cell key serializes"),
            run: Box::new(run),
        }
    }
}

/// Builds a cell that runs a core [`scalecheck::CellSpec`]: the spec's
/// serialized form is the cache key, its `run` is the work.
pub fn spec_cell(label: impl Into<String>, spec: scalecheck::CellSpec) -> Cell<RunReport> {
    Cell {
        label: label.into(),
        key: serde_json::to_value(&spec).expect("cell spec serializes"),
        run: Box::new(move || spec.run()),
    }
}

/// The outcome of a sweep: results in canonical order plus execution
/// accounting.
pub struct SweepOutcome<R> {
    /// One result per submitted cell, in submission order.
    pub results: Vec<R>,
    /// Cells actually executed this run.
    pub executed: usize,
    /// Cells served from the on-disk cache.
    pub cached: usize,
}

fn cache_path(dir: &Path, digest: &str) -> PathBuf {
    dir.join(format!("{digest}.json"))
}

/// Loads a cached result. Anything but the exact bytes this build would
/// have stored for the result — a truncated file, a report from a build
/// with other fields — is a miss: the cell re-executes and overwrites it.
fn cache_load<R: Serialize + DeserializeOwned>(dir: &Path, digest: &str) -> Option<R> {
    let text = std::fs::read_to_string(cache_path(dir, digest)).ok()?;
    let result: R = serde_json::from_str(&text).ok()?;
    (serde_json::to_string(&result).ok()? == text).then_some(result)
}

fn cache_store<R: Serialize>(dir: &Path, digest: &str, result: &R) {
    // Cache writes are best-effort: failure to persist must never fail
    // the sweep. Write-then-rename keeps concurrent writers safe.
    let Ok(json) = serde_json::to_string(result) else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!(".{digest}.tmp.{}", std::process::id()));
    let write = std::fs::File::create(&tmp).and_then(|mut f| f.write_all(json.as_bytes()));
    if write.is_ok() {
        let _ = std::fs::rename(&tmp, cache_path(dir, digest));
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

struct Job<R> {
    idx: usize,
    label: String,
    digest: Option<String>,
    run: Box<dyn FnOnce() -> R + Send>,
}

/// Runs `cells` under `opts` and returns their results in submission
/// order.
///
/// Cached cells are resolved up front on the calling thread; the rest
/// are distributed round-robin across per-worker deques. Each worker
/// drains its own deque front-to-back and, when empty, steals from the
/// back of the busiest sibling — long cells at the end of one deque
/// migrate to idle workers instead of serializing the tail.
pub fn run_sweep<R>(cells: Vec<Cell<R>>, opts: &SweepOptions) -> SweepOutcome<R>
where
    R: Serialize + DeserializeOwned + Send + 'static,
{
    let total = cells.len();
    let started = Instant::now();
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let mut cached = 0usize;
    let mut pending: Vec<Job<R>> = Vec::new();

    for (idx, cell) in cells.into_iter().enumerate() {
        let digest = opts.use_cache.then(|| content_digest(&cell.key));
        if let Some(d) = digest.as_deref() {
            if let Some(result) = cache_load::<R>(&opts.cache_dir, d) {
                eprintln!(
                    "[sweep] {}/{} {}: cache hit ({})",
                    idx + 1,
                    total,
                    cell.label,
                    &d[..12]
                );
                slots[idx] = Some(result);
                cached += 1;
                continue;
            }
        }
        pending.push(Job {
            idx,
            label: cell.label,
            digest,
            run: cell.run,
        });
    }

    let executed = pending.len();
    if executed > 0 {
        let workers = opts.jobs.min(executed).max(1);
        // Per-worker deques, round-robin seeded. Workers steal from the
        // back of sibling deques when their own runs dry.
        let queues: Vec<Arc<Mutex<VecDeque<Job<R>>>>> = (0..workers)
            .map(|_| Arc::new(Mutex::new(VecDeque::new())))
            .collect();
        for (i, job) in pending.into_iter().enumerate() {
            queues[i % workers]
                .lock()
                .expect("queue lock")
                .push_back(job);
        }

        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for me in 0..workers {
                let queues = queues.clone();
                let tx = tx.clone();
                let opts = opts.clone();
                scope.spawn(move || loop {
                    let job = {
                        let own = queues[me].lock().expect("queue lock").pop_front();
                        match own {
                            Some(j) => Some(j),
                            None => steal(&queues, me),
                        }
                    };
                    let Some(job) = job else { break };
                    eprintln!(
                        "[sweep] (w{me}) {}/{} {}: start",
                        job.idx + 1,
                        total,
                        job.label
                    );
                    let t0 = Instant::now();
                    let result = (job.run)();
                    eprintln!(
                        "[sweep] (w{me}) {}/{} {}: done in {:.2}s",
                        job.idx + 1,
                        total,
                        job.label,
                        t0.elapsed().as_secs_f64()
                    );
                    if let Some(d) = job.digest.as_deref() {
                        cache_store(&opts.cache_dir, d, &result);
                    }
                    if tx.send((job.idx, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (idx, result) in rx {
                slots[idx] = Some(result);
            }
        });
    }

    eprintln!(
        "[sweep] {total} cells: {executed} executed, {cached} cached in {:.2}s",
        started.elapsed().as_secs_f64()
    );
    SweepOutcome {
        results: slots
            .into_iter()
            .map(|s| s.expect("every cell produced a result"))
            .collect(),
        executed,
        cached,
    }
}

/// Steals a job from the back of the fullest sibling deque.
fn steal<R>(queues: &[Arc<Mutex<VecDeque<Job<R>>>>], me: usize) -> Option<Job<R>> {
    let victim = queues
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != me)
        .max_by_key(|(_, q)| q.lock().map(|q| q.len()).unwrap_or(0))?
        .0;
    queues[victim].lock().expect("queue lock").pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn opts(jobs: usize, dir: &Path) -> SweepOptions {
        SweepOptions {
            jobs,
            use_cache: true,
            cache_dir: dir.to_path_buf(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scalecheck-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Out {
        x: u64,
    }

    fn squares(n: u64) -> Vec<Cell<Out>> {
        (0..n)
            .map(|i| Cell::new(format!("sq {i}"), &("square", i), move || Out { x: i * i }))
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let dir = temp_dir("order");
        let out = run_sweep(squares(17), &opts(4, &dir));
        assert_eq!(out.executed, 17);
        assert_eq!(out.cached, 0);
        let xs: Vec<u64> = out.results.iter().map(|o| o.x).collect();
        assert_eq!(xs, (0..17).map(|i| i * i).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_cache_executes_zero_cells() {
        let dir = temp_dir("warm");
        let cold = run_sweep(squares(8), &opts(4, &dir));
        assert_eq!(cold.executed, 8);
        let warm = run_sweep(squares(8), &opts(4, &dir));
        assert_eq!(warm.executed, 0);
        assert_eq!(warm.cached, 8);
        assert_eq!(
            warm.results.iter().map(|o| o.x).collect::<Vec<_>>(),
            cold.results.iter().map(|o| o.x).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_bypasses_lookup_and_store() {
        let dir = temp_dir("nocache");
        let mut o = opts(2, &dir);
        o.use_cache = false;
        let out = run_sweep(squares(4), &o);
        assert_eq!(out.executed, 4);
        assert!(!dir.exists(), "no-cache sweep must not write a cache");
        let out2 = run_sweep(squares(4), &o);
        assert_eq!(out2.executed, 4, "no-cache sweep must not read a cache");
    }

    #[test]
    fn distinct_keys_get_distinct_digests() {
        let a = content_digest(&("square", 1u64));
        let b = content_digest(&("square", 2u64));
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn jobs_flag_parses_and_rejects_garbage() {
        let args: Vec<String> = ["--jobs", "3", "--no-cache"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = SweepOptions::from_args(&args).expect("valid flags");
        assert_eq!(o.jobs, 3);
        assert!(!o.use_cache);

        let bad: Vec<String> = ["--jobs", "many"].iter().map(|s| s.to_string()).collect();
        assert!(SweepOptions::from_args(&bad).is_err());
        let zero: Vec<String> = ["--jobs", "0"].iter().map(|s| s.to_string()).collect();
        assert!(SweepOptions::from_args(&zero).is_err());
    }
}
