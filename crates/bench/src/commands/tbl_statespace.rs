//! Regenerates the §5 state-space argument: offline input sampling
//! would need to cover `(N^(N·P))²` message orderings, while recording
//! one run plus order determinism stores only what actually happened.

use crate::cli::{val, Args, Command, Failure};
use crate::print_row;
use scalecheck::{memoize, COLO_CORES};
use scalecheck_cluster::ScenarioConfig;
use scalecheck_memo::{log10_ordering_space, ordering_space_digits, savings_orders_of_magnitude};

pub const COMMAND: Command = Command {
    name: "tbl_statespace",
    about: "S5: the message-ordering state space vs what one recorded run stores",
    flags: &[
        val("--nodes", "N", "add a row: N nodes (default 256)"),
        val("--vnodes", "P", "... and P vnodes (default 256)"),
    ],
    run,
};

fn run(args: &Args) -> Result<(), Failure> {
    // u32: the ordering-space formulas multiply the two as u64.
    let asked: (Option<u32>, Option<u32>) = (args.get("--nodes")?, args.get("--vnodes")?);
    let mut points = vec![(10u64, 1u64), (32, 1), (64, 32), (256, 256), (500, 256)];
    if asked != (None, None) {
        points.push((asked.0.unwrap_or(256).into(), asked.1.unwrap_or(256).into()));
    }

    // The one live run: a memoization at N=32, reduced to the two
    // counts the table needs (records, ordered events).
    let n = 32;
    let cfg = ScenarioConfig::c3831(n, 1);
    let vnodes = cfg.vnodes;
    let memo = memoize(&cfg, COLO_CORES);
    let (records, ordered) = (memo.db.stats().recorded, memo.order.total() as u64);

    println!("The S5 state-space argument: orderings vs one recorded run\n");
    print_row(&["N", "P", "log10 |orderings|", "digits"], 18);
    for (n, p) in points {
        print_row(
            &[
                n.to_string(),
                p.to_string(),
                format!("{:.0}", log10_ordering_space(n, p)),
                ordering_space_digits(n, p).to_string(),
            ],
            18,
        );
    }

    // Ground the comparison in an actual memoization run.
    println!();
    println!(
        "one memoization run at N={n}: {records} input/output records, {ordered} ordered events"
    );
    println!(
        "savings vs exhaustive ordering coverage: ~10^{:.0} x",
        savings_orders_of_magnitude(n as u64, vnodes as u64, records.max(ordered))
    );
    println!();
    println!("covering all orderings offline is impossible; recording one observed");
    println!("run and enforcing its order during replay caps the space (S5).");
    Ok(())
}
