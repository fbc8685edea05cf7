//! The one-time memoization (colocation) run of a scenario, persisted
//! as a database `replay` can be pointed at any number of times.

use std::path::Path;

use super::run::{print_report, scenario, NODES};
use crate::cli::{val, Args, Command, Failure, Flag, BUG, SEED};
use scalecheck::COLO_CORES;

pub const DB: Flag = val("--db", "PATH", "the database (default memo.json)");

pub const COMMAND: Command = Command {
    name: "memoize",
    about: "the one-time memoization run of a scenario, saved as a database for `replay`",
    flags: &[BUG, NODES, SEED, DB],
    run,
};

fn run(args: &Args) -> Result<(), Failure> {
    let (bug, n, cfg) = scenario(args)?;
    let db_path = args.value("--db").unwrap_or("memo.json");
    let memo = scalecheck::memoize(&cfg, COLO_CORES);
    print_report(bug, n, "memoize", &memo.report);
    let saved = memo.db.save(Path::new(db_path));
    saved.map_err(|e| Failure::Failed(format!("cannot write {db_path}: {e}")))?;
    println!("database: records={} -> {db_path}", memo.db.len());
    Ok(())
}
