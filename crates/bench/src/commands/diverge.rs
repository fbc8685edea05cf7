//! Loads two traces written by `run --trace-out` and attributes where
//! B's virtual time went relative to A. No scenario runs.

use crate::cli::{bare, read_file, Args, Command, Failure};

pub const COMMAND: Command = Command {
    name: "diverge",
    about: "diagnostic: attribute trace B's extra virtual time relative to trace A",
    flags: &[
        bare("TRACE_A", "the reference trace, from `run --trace-out`"),
        bare("TRACE_B", "the trace to explain"),
    ],
    run,
};

fn load(path: &str) -> Result<scalecheck_obs::Trace, Failure> {
    scalecheck_obs::from_chrome_json(&read_file(path)?)
        .map_err(|e| Failure::Failed(format!("cannot parse {path}: {e}")))
}

fn run(args: &Args) -> Result<(), Failure> {
    let a = load(args.value("TRACE_A").expect("required positional"))?;
    let b = load(args.value("TRACE_B").expect("required positional"))?;
    print!("{}", scalecheck_obs::diverge(&a, &b).render());
    Ok(())
}
