//! PIL replay of a scenario against a database `memoize` saved.

use std::path::Path;

use super::memoize::DB;
use super::run::{print_report, scenario, NODES};
use crate::cli::{Args, Command, Failure, BUG, SEED};
use scalecheck::COLO_CORES;
use scalecheck_cluster::{run_scenario, PendingWire, RunMode};
use scalecheck_memo::{MemoDb, Pil, Replay};

pub const COMMAND: Command = Command {
    name: "replay",
    about: "PIL replay of a scenario against a database `memoize` saved",
    flags: &[BUG, NODES, SEED, DB],
    run,
};

fn run(args: &Args) -> Result<(), Failure> {
    let (bug, n, cfg) = scenario(args)?;
    let db_path = args.value("--db").unwrap_or("memo.json");
    let db: MemoDb<PendingWire> = MemoDb::load(Path::new(db_path))
        .map_err(|e| Failure::Failed(format!("cannot load {db_path}: {e}")))?;
    let colo = RunMode::Colo { cores: COLO_CORES };
    let report = run_scenario(&cfg, colo, Pil::Replay(Replay::new(&db, None)));
    print_report(bug, n, "replay", &report);
    Ok(())
}
