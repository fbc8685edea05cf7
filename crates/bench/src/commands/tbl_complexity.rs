//! Regenerates the §2/§3 complexity claims: measured op counts and
//! virtual durations of every pending-range calculator version across
//! scales, with fitted growth exponents.

use crate::cli::{Args, Command, Failure, JOBS};
use crate::{jobs, print_row, run_sweep, Cell};
use scalecheck_cluster::calibrate::{
    ops_to_duration, NS_PER_OP_FRESH, NS_PER_OP_V1, NS_PER_OP_V2_VNODES,
};
use scalecheck_ring::{
    spread_tokens, FreshRingQuadratic, NodeId, NodeStatus, OpCounter, PendingRangeCalculator,
    RingTable, TopologyChange, V1Cubic, V2Quadratic, V3VnodeAware,
};

pub const COMMAND: Command = Command {
    name: "tbl_complexity",
    about: "S2-S3: op counts, durations and growth exponents of every pending-range calculator",
    flags: &[JOBS],
    run,
};

const SCALES: [u32; 4] = [32, 64, 128, 256];

fn ring_of(n: u32, p: usize) -> RingTable {
    let mut r = RingTable::new(3);
    for i in 0..n {
        r.add_node(NodeId(i), NodeStatus::Normal, spread_tokens(NodeId(i), p))
            .expect("fresh ring accepts distinct nodes");
    }
    r
}

fn ops(calc: &dyn PendingRangeCalculator, n: u32, p: usize) -> u64 {
    let ring = ring_of(n, p);
    let change = TopologyChange::Leave { node: NodeId(0) };
    let mut c = OpCounter::new();
    calc.calculate(&ring, &[change], &mut c);
    c.ops()
}

fn bootstrap_ops(n: u32) -> u64 {
    // C6127: fresh ring, all nodes joining at once (M = N).
    let ring = RingTable::new(3);
    let changes: Vec<TopologyChange> = (0..n)
        .map(|i| TopologyChange::Join {
            node: NodeId(i),
            tokens: spread_tokens(NodeId(i), 1),
        })
        .collect();
    let mut c = OpCounter::new();
    FreshRingQuadratic.calculate(&ring, &changes, &mut c);
    c.ops()
}

fn row_ops(version: &str, p: usize) -> Vec<u64> {
    SCALES
        .iter()
        .map(|&n| match version {
            "v1-cubic" => ops(&V1Cubic, n, p),
            "v2-quadratic" | "v2-quad+vnode" => ops(&V2Quadratic, n, p),
            "v3-vnode" => ops(&V3VnodeAware, n, p),
            "fresh-boot" => bootstrap_ops(n),
            other => unreachable!("unknown calculator row {other}"),
        })
        .collect()
}

fn exponent(o1: u64, o2: u64) -> f64 {
    (o2 as f64 / o1 as f64).log2()
}

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);

    let rows: [(&str, usize, u64); 5] = [
        ("v1-cubic", 1, NS_PER_OP_V1),
        ("v2-quadratic", 1, NS_PER_OP_V1),
        ("v2-quad+vnode", 32, NS_PER_OP_V2_VNODES),
        ("v3-vnode", 32, NS_PER_OP_V2_VNODES),
        ("fresh-boot", 1, NS_PER_OP_FRESH),
    ];

    // One cell per calculator version: its op counts at every scale.
    let cells: Vec<Cell<Vec<u64>>> = rows
        .iter()
        .map(|&(name, p, _)| Cell::new(format!("t-complexity {name}"), move || row_ops(name, p)))
        .collect();
    let out = run_sweep(cells, jobs);

    println!("Complexity of the pending-range calculator versions");
    println!("(ops for one topology change; duration via calibrated ns/op)\n");

    print_row(&["version", "P", "N=32", "N=64", "N=128", "N=256", "exp", "t@256"], 12);

    for ((name, p, ns), o) in rows.iter().zip(&out) {
        let exp = (exponent(o[0], o[1]) + exponent(o[1], o[2]) + exponent(o[2], o[3])) / 3.0;
        let t256 = ops_to_duration(o[3], *ns);
        print_row(
            &[
                (*name).into(),
                p.to_string(),
                o[0].to_string(),
                o[1].to_string(),
                o[2].to_string(),
                o[3].to_string(),
                format!("{exp:.2}"),
                format!("{t256}"),
            ],
            12,
        );
    }

    println!();
    println!("paper envelope check (S5): offending-block durations 0.001s-4s:");
    let d_lo = ops_to_duration(ops(&V1Cubic, 32, 1), NS_PER_OP_V1);
    let d_hi = ops_to_duration(ops(&V1Cubic, 256, 1), NS_PER_OP_V1);
    println!("  v1 ranges {d_lo} (N=32) .. {d_hi} (N=256)");
    Ok(())
}
