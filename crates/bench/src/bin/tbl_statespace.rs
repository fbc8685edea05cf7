//! Regenerates the §5 state-space argument: offline input sampling
//! would need to cover `(N^(N·P))²` message orderings, while recording
//! one run plus order determinism stores only what actually happened.
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin tbl_statespace
//! ```

use scalecheck::{memoize, COLO_CORES};
use scalecheck_bench::print_row;
use scalecheck_cluster::ScenarioConfig;
use scalecheck_memo::{log10_ordering_space, ordering_space_digits, savings_orders_of_magnitude};

fn main() {
    // The one live run: a memoization at N=32, reduced to the two
    // counts the table needs (records, ordered events).
    let n = 32;
    let cfg = ScenarioConfig::c3831(n, 1);
    let vnodes = cfg.vnodes;
    let memo = memoize(&cfg, COLO_CORES);
    let (records, ordered) = (memo.db.stats().recorded, memo.order.total() as u64);

    println!("The S5 state-space argument: orderings vs one recorded run\n");
    print_row(
        &[
            "N".into(),
            "P".into(),
            "log10 |orderings|".into(),
            "digits".into(),
        ],
        18,
    );
    for (n, p) in [(10u64, 1u64), (32, 1), (64, 32), (256, 256), (500, 256)] {
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
}
