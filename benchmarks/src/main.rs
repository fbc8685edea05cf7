//! Command line of the benchmark; see `USAGE`.

use std::time::Duration;

use scalecheck_benchmarks::child::{run_rep, run_replay};
use scalecheck_benchmarks::compare::compare;
use scalecheck_benchmarks::runner::{drive, since_spawn, suite, ChildMode};
use scalecheck_benchmarks::workloads::{Size, WorkloadId};

const USAGE: &str = "usage:
  scalecheck-benchmarks [--seed N] [--traced] [--smoke] [--out PATH]
      every workload, 5 fresh-process repetitions each (1 with --smoke); prints
      every metric by name and unit; --traced adds the per-layer metrics and
      writes benchmarks/out/trace_<workload>.json; exits 1 if any cell failed
  scalecheck-benchmarks --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one workload for about S seconds; the last line of output is one JSON
      object; exits 1 if any cell failed
  scalecheck-benchmarks --compare A.json B.json
      two --out documents against the benchmark's bounds; exits 1 if they differ
workloads: gossip_scale_512 verdict_c3831_160 traffic_real_64 trace_diverge_128";

fn usage(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, if the flag is present.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(v),
        None => usage(&format!("{flag} expects a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("bad value '{v}' for {flag}")))
    })
}

fn workload(name: &str) -> WorkloadId {
    WorkloadId::from_name(name).unwrap_or_else(|| usage(&format!("unknown workload '{name}'")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = parsed(&args, "--seed").unwrap_or(1);
    let smoke = args.iter().any(|a| a == "--smoke");
    let size = if smoke { Size::Smoke } else { Size::Full };

    let code = if let Some(i) = args.iter().position(|a| a == "--compare") {
        match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => compare(a, b),
            _ => usage("--compare expects two result files"),
        }
    } else if let Some(name) = value(&args, "--child") {
        // Internal: one repetition (or the layer replay) in this process.
        let mode = value(&args, "--mode")
            .and_then(ChildMode::from_name)
            .unwrap_or_else(|| usage("--child expects --mode plain|traced|replay"));
        let id = workload(name);
        let spawned_at = parsed(&args, "--spawned-at-ns");
        let result = match mode {
            ChildMode::Replay => run_replay(id, seed, size),
            mode => {
                let startup = spawned_at.map_or(Duration::ZERO, since_spawn);
                run_rep(id, seed, size, mode == ChildMode::Traced, startup)
            }
        };
        println!("{result}");
        0
    } else if let Some(name) = value(&args, "--workload") {
        let seconds: u64 = parsed(&args, "--seconds").unwrap_or(12);
        let trace = match value(&args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => usage(&format!("--trace expects 0 or 1, not '{other}'")),
        };
        drive(workload(name), seed, size, seconds, trace)
    } else {
        let traced = args.iter().any(|a| a == "--traced");
        suite(seed, size, traced, value(&args, "--out"))
    };
    std::process::exit(code);
}
