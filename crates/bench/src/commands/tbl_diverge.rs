//! Divergence-diagnosis table: where does colocated virtual time go?
//!
//! Reproduces §6's diagnosis narrative with traces instead of prose.
//! The same scenario runs under Real, Colo, and SC+PIL with full
//! observability tracing, then the divergence analyzer attributes the
//! colocated run's extra virtual time:
//!
//! * **Colo vs Real** — the calculation stage inflates (the shared
//!   machine queues and context-switches the O(n^3) recalculation),
//!   which is exactly the scale-dependent compute §6 says colocation
//!   distorts;
//! * **SC+PIL vs Real** — replacing the calculation with a PIL sleep
//!   removes the inflation: no category should exceed tolerance.

use crate::cli::{val, write_file, write_file_with, Args, Command, Failure, BUG, JOBS, SEED};
use crate::{jobs, run_triples};
use scalecheck::Deployment;
use scalecheck_cluster::ScenarioConfig;
use scalecheck_obs::Trace;

pub const COMMAND: Command = Command {
    name: "tbl_diverge",
    about: "S6: where colocated virtual time goes, from traced Real / Colo / SC+PIL runs",
    flags: &[
        BUG,
        val("--nodes", "N", "cluster size (default 128)"),
        SEED,
        val("--out", "PATH", "also write the table to PATH"),
        val("--trace-dir", "DIR", "dump the three Chrome traces here"),
        JOBS,
    ],
    run,
};

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let bug = args.value("--bug").unwrap_or("c3831");
    let n: usize = args.size("--nodes")?.unwrap_or(128);
    let seed: u64 = args.get("--seed")?.unwrap_or(1);

    let mut cfg = ScenarioConfig::bug(bug, n, seed).map_err(Failure::Usage)?;
    cfg.trace = scalecheck_obs::TraceConfig::enabled();

    let point = (format!("diverge {bug} N={n}"), cfg);
    let triple = run_triples(vec![point], jobs).pop().expect("one point");

    let traces = Deployment::ALL.map(|d| {
        let mut t = triple.get(d).obs.clone();
        t.meta.label = format!("{bug}@{n} {}", d.label());
        t
    });
    let [real, colo, scpil]: &[Trace; 3] = &traces;

    if let Some(dir) = args.value("--trace-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| Failure::Failed(format!("cannot create {dir}: {e}")))?;
        for (t, d) in traces.iter().zip(Deployment::ALL) {
            let path = format!("{dir}/{bug}_{n}_{}.json", d.label().to_lowercase());
            write_file_with(&path, |w| scalecheck_obs::write_chrome_json(t, w))?;
            eprintln!("[tbl_diverge] wrote {path}");
        }
    }

    let colo_report = scalecheck_obs::diverge(real, colo);
    let pil_report = scalecheck_obs::diverge(real, scpil);

    let mut text = String::new();
    text.push_str(&format!(
        "Divergence diagnosis: {bug} N={n} seed={seed} (§6 colocation distortion)\n"
    ));
    for d in Deployment::ALL {
        let r = triple.get(d);
        let e = &r.engine;
        text.push_str(&format!(
            "  {:<7} duration={:>6.0}s flaps={:<6} engine: scheduled={} fired={} cancelled={}\n",
            d.label(),
            r.duration.as_secs_f64(),
            r.total_flaps,
            e.scheduled,
            e.fired,
            e.cancelled,
        ));
    }
    text.push('\n');
    text.push_str(&colo_report.render());
    text.push('\n');
    text.push_str(&pil_report.render());

    let colo_ok = colo_report.top().is_some_and(|r| r.category == "calc");
    let pil_ok = !pil_report.diverged();
    text.push('\n');
    text.push_str(&format!(
        "colo-inflates-calc={} pil-within-tolerance={}\n",
        if colo_ok { "yes" } else { "NO" },
        if pil_ok { "yes" } else { "NO" },
    ));

    print!("{text}");
    if let Some(path) = args.value("--out") {
        write_file(path, &text)?;
        println!("wrote {path}");
    }

    if !colo_ok || !pil_ok {
        let msg = "error: divergence diagnosis did not match the paper's narrative";
        return Err(Failure::Failed(msg.into()));
    }
    Ok(())
}
