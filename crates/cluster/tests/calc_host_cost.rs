//! The harness's own cost per pending-range invocation, guarded: an
//! invocation on an unchanged ring must cost the host O(change list),
//! not O(ring).
//!
//! While a join or leave is pending, every applied gossip that touches
//! the moving node recalculates on an unchanged ring view. Each such
//! call used to re-encode the whole view and FNV-hash it byte by byte
//! for its memo digest, O(N·P) per call. The digest now resumes the
//! hash state the ring caches after its canonical bytes, and the answer
//! comes from the execution cache.
//!
//! On a 2-vCPU container the 10,000 calls below took 920–930 ms when
//! each digest hashed the ring's ~43 KB of canonical bytes, and take
//! 2.7–2.9 ms now. The 100 ms budget sits over 30× above today's cost
//! and over 9× below the old one.

use std::time::{Duration, Instant};

use scalecheck_cluster::{CalcEngine, CalcVersion};
use scalecheck_memo::{MemoStats, Pil};
use scalecheck_ring::{spread_tokens, NodeId, NodeStatus, RingTable, TopologyChange};

const NODES: u32 = 2048;
const CALLS: u64 = 10_000;
const BUDGET: Duration = Duration::from_millis(100);

#[test]
#[ignore = "release-only: a 2048-node ring; ci.sh runs this in release"]
fn ten_thousand_calls_on_an_unchanged_ring_cost_milliseconds() {
    let mut ring = RingTable::new(3);
    for i in 0..NODES {
        let id = NodeId(i);
        ring.add_node(id, NodeStatus::Normal, spread_tokens(id, 1))
            .unwrap();
    }
    let leaver = NodeId(NODES / 2);
    ring.set_status(leaver, NodeStatus::Leaving).unwrap();
    let changes = [TopologyChange::Leave { node: leaver }];

    let mut engine = CalcEngine::new(CalcVersion::V1Cubic, 1);
    let t0 = Instant::now();
    for idx in 0..CALLS {
        let node = (idx % u64::from(NODES)) as u32;
        engine.calculate(&mut Pil::Execute, node, idx, &ring, &changes);
    }
    let wall = t0.elapsed();
    let stats = engine.stats(MemoStats::default());
    eprintln!("{CALLS} calls on a {NODES}-node ring in {wall:?}");
    assert_eq!(
        (stats.invocations, stats.executed, stats.exec_cache_hits),
        (CALLS, 1, CALLS - 1)
    );
    assert!(
        wall <= BUDGET,
        "{CALLS} calls on one unchanged {NODES}-node ring took {wall:?} (budget {BUDGET:?}): \
         is each call re-encoding and re-hashing the ring again?"
    );
}
