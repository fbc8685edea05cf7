//! Regenerates the §2/§3 bug-study aggregates: per-system counts, the
//! 47 %/53 % root-cause split, fix times, and protocol diversity.

use crate::cli::{Args, Command, Failure};
use crate::print_row;
use scalecheck_bugstudy::{bugs, stats};

pub const COMMAND: Command = Command {
    name: "tbl_bugstudy",
    about: "S2-S3: the 38-bug study's per-system counts, root causes, fix times and protocols",
    flags: &[],
    run,
};

fn run(_: &Args) -> Result<(), Failure> {
    let all = bugs();
    let s = stats(&all);

    println!("The scalability-bug study (38 bugs; paper S2-S3)\n");

    println!("bugs per system (paper: 9 Cassandra, 5 Couchbase, 2 Hadoop, 9 HBase, 11 HDFS, 1 Riak, 1 Voldemort):");
    print_row(&["system", "bugs"], 12);
    for (sys, count) in &s.per_system {
        print_row(&[sys.clone(), count.to_string()], 12);
    }

    println!();
    println!(
        "root causes: {:.0}% scale-dependent CPU-intensive computation, {:.0}% serialized O(N) operations",
        s.cpu_fraction * 100.0,
        s.serialized_fraction * 100.0
    );
    println!(
        "time to fix: mean {:.0} days (~1 month), max {} days (~5 months)",
        s.mean_days_to_fix, s.max_days_to_fix
    );
    println!(
        "{} of {} bugs only manifest above 100 nodes — 100-node testing is not enough",
        s.manifest_above_100, s.total
    );

    println!();
    println!("protocols the bugs linger in (S3: 'diverse protocols'):");
    print_row(&["protocol", "bugs"], 14);
    for (proto, count) in &s.per_protocol {
        print_row(&[proto.clone(), count.to_string()], 14);
    }

    println!();
    println!("named Cassandra lineage (documented public issues):");
    for b in all.iter().filter(|b| !b.synthetic) {
        println!("  {:<16} {:?} — {}", b.id, b.protocol, b.symptom);
    }
    println!();
    println!(
        "note: the {} unnamed entries are representative synthetic records \
         reproducing the paper's aggregates (marked synthetic in the dataset).",
        all.iter().filter(|b| b.synthetic).count()
    );
    Ok(())
}
