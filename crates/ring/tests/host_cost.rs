//! The harness's own scalability bug in the offending function, guarded:
//! a calculator bills the ops of its historical loops, the host must not
//! run them.
//!
//! Three leaves on a 2048-node ring bill V1 ≈ 3 · 2048³ = 25.7 G ops of
//! virtual time. Executed literally (V1's full-ring walk per range and
//! node, each step a scan of the distinct owners seen so far) the same
//! three leaves took 4.9 s at 256 nodes and 71 s at 512 in release on a
//! 2-vCPU container, ~15× per doubling: over an hour at 2048, and over
//! 5 s even at one host nanosecond per billed op. The calculators find
//! the same answer with early-exit walks and binary searches in under
//! 1 ms each there. The 100 ms budget per calculator sits over 50× above
//! that and over 50× below the literal loops; a calculator over budget
//! fails at the deadline instead of hanging the gate.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

use scalecheck_ring::{
    all_calculators, spread_tokens, NodeId, NodeStatus, OpCounter, RingTable, TopologyChange,
};

const NODES: u32 = 2048;
const BUDGET: Duration = Duration::from_millis(100);

#[test]
#[ignore = "release-only: a 2048-node ring; ci.sh runs this in release"]
fn three_leaves_at_2048_nodes_cost_milliseconds_not_hours() {
    let mut ring = RingTable::new(3);
    for i in 0..NODES {
        let id = NodeId(i);
        ring.add_node(id, NodeStatus::Normal, spread_tokens(id, 1))
            .unwrap();
    }
    let changes: Vec<TopologyChange> = [7, 700, 1400]
        .map(|i| TopologyChange::Leave { node: NodeId(i) })
        .to_vec();

    // The calculators run on a thread of their own so that one over
    // budget fails at the deadline; the thread is joined only when all
    // of them came back in time, and is otherwise left to the process.
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        for calc in all_calculators() {
            let mut ops = OpCounter::new();
            let t0 = Instant::now();
            let out = calc.calculate(&ring, &changes, &mut ops);
            let wall = t0.elapsed();
            tx.send((calc.name(), ops.ops(), out.len(), wall))
                .expect("the test thread waits for every calculator");
        }
    });
    for _ in 0..all_calculators().len() {
        let (name, ops, pending, wall) = match rx.recv_timeout(BUDGET) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => panic!("a calculator ran past its {BUDGET:?} budget"),
            Err(RecvTimeoutError::Disconnected) => panic!("the calculator thread panicked"),
        };
        eprintln!("{name}: {pending} pending ranges, {ops} ops billed in {wall:?}");
        assert!(pending > 0, "{name}: three leaves left nothing pending");
        assert!(
            wall <= BUDGET,
            "{name} took {wall:?} for {ops} billed ops (budget {BUDGET:?}): \
             is the host executing the historical loops again?"
        );
        if name == "v1-cubic" {
            let n = u64::from(NODES - 3);
            assert!(
                ops >= 3 * n * n * n,
                "v1 billed {ops} ops, not the cubic count"
            );
        }
    }
    worker.join().expect("the calculator thread panicked");
}
