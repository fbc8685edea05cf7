//! Property-based tests over the core substrates: the invariants the
//! whole reproduction leans on.

use proptest::prelude::*;

mod model;

use scalecheck_memo::{digest_bytes, FnId, MemoDb, OrderDecision, OrderRecorder};
use scalecheck_ring::{
    all_calculators, NodeId, NodeStatus, OpCounter, PendingRangeCalculator, RingTable, Token,
    TopologyChange,
};
use scalecheck_sim::{ps_completions, CtxSwitchModel, DetRng, Machine, SimDuration, SimTime};

/// Builds a ring from (node, token) pairs with unique tokens.
fn ring_from(entries: &[(u32, Vec<u64>)]) -> RingTable {
    let mut ring = RingTable::new(3);
    let mut used = std::collections::HashSet::new();
    for (i, (id, tokens)) in entries.iter().enumerate() {
        let toks: Vec<Token> = tokens
            .iter()
            .filter(|t| used.insert(**t))
            .map(|&t| Token(t))
            .collect();
        if toks.is_empty() {
            continue;
        }
        let _ = ring.add_node(NodeId(*id + i as u32 * 10_000), NodeStatus::Normal, toks);
    }
    ring
}

fn topology_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u64>)>> {
    prop::collection::vec(
        (0u32..1000, prop::collection::vec(any::<u64>(), 1..4)),
        2..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every calculator version produces identical pending ranges on
    /// arbitrary topologies — the semantic-preserving-fix invariant.
    #[test]
    fn calculators_agree_on_random_topologies(
        entries in topology_strategy(),
        leaver_idx in 0usize..8,
        join_tokens in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let ring = ring_from(&entries);
        let nodes: Vec<NodeId> = ring.iter().map(|(id, _)| id).collect();
        prop_assume!(nodes.len() >= 2);
        let mut changes = vec![TopologyChange::Leave {
            node: nodes[leaver_idx % nodes.len()],
        }];
        // Also join a fresh node with tokens not already present.
        let fresh: Vec<Token> = join_tokens
            .iter()
            .map(|&t| Token(t))
            .filter(|t| ring.owner_of_token(*t).is_none())
            .collect();
        if !fresh.is_empty() {
            changes.push(TopologyChange::Join {
                node: NodeId(999_999),
                tokens: fresh,
            });
        }
        let mut outs = Vec::new();
        for calc in all_calculators() {
            let mut counter = OpCounter::new();
            outs.push(calc.calculate(&ring, &changes, &mut counter));
        }
        for w in outs.windows(2) {
            prop_assert_eq!(&w[0], &w[1]);
        }
    }

    /// Differential: each calculator returns what its literal loops in
    /// `tests/model/pending.rs` return and bills the ops they executed —
    /// with several prefixes of a mixed change list to recompute, rf
    /// above the distinct node count, points past the last token, and the
    /// empty current ring of a bootstrap from scratch (the fresh path).
    #[test]
    fn calculators_match_their_literal_models(
        nodes in prop::collection::vec(prop::collection::vec(any::<u64>(), 1..5), 2..13),
        rf in 1usize..6,
        fresh in any::<bool>(),
        changes in prop::collection::vec(
            (any::<bool>(), 0usize..16, prop::collection::vec(any::<u64>(), 1..5)),
            1..5,
        ),
    ) {
        use model::pending as literal;
        use scalecheck_ring::{FreshRingQuadratic, V1Cubic, V2Quadratic, V3VnodeAware};

        let mut used = std::collections::HashSet::new();
        let mut fresh_tokens = |tokens: &[u64]| -> Vec<Token> {
            tokens.iter().filter(|&&t| used.insert(t)).map(|&t| Token(t)).collect()
        };
        let mut ring = RingTable::new(rf);
        let mut members = Vec::new();
        for (i, tokens) in nodes.iter().enumerate() {
            let toks = fresh_tokens(tokens);
            let id = NodeId(i as u32);
            if fresh {
                // Never in the current map: every node joins below.
                ring.add_node(id, NodeStatus::Joining, toks).unwrap();
            } else if !toks.is_empty() {
                ring.add_node(id, NodeStatus::Normal, toks).unwrap();
                members.push(id);
            }
        }
        let changes: Vec<TopologyChange> = changes
            .iter()
            .enumerate()
            .map(|(j, (join, pick, tokens))| {
                if *join || fresh {
                    let node = NodeId(1000 + j as u32);
                    members.push(node);
                    TopologyChange::Join { node, tokens: fresh_tokens(tokens) }
                } else {
                    TopologyChange::Leave { node: members[pick % members.len()] }
                }
            })
            .collect();
        prop_assert_eq!(ring.current_token_map().is_empty(), fresh);

        let pairs: [(&dyn PendingRangeCalculator, &dyn PendingRangeCalculator); 4] = [
            (&V1Cubic, &literal::V1Cubic),
            (&V2Quadratic, &literal::V2Quadratic),
            (&V3VnodeAware, &literal::V3VnodeAware),
            (&FreshRingQuadratic, &literal::FreshRingQuadratic),
        ];
        for (calc, oracle) in pairs {
            let (mut ops, mut oracle_ops) = (OpCounter::new(), OpCounter::new());
            let out = calc.calculate(&ring, &changes, &mut ops);
            let want = oracle.calculate(&ring, &changes, &mut oracle_ops);
            prop_assert_eq!(&out, &want, "{} output", calc.name());
            prop_assert_eq!(ops.ops(), oracle_ops.ops(), "{} ops", calc.name());
        }
    }

    /// Pending endpoints never include nodes that are leaving the ring.
    #[test]
    fn pending_never_includes_the_leaver(
        entries in topology_strategy(),
        leaver_idx in 0usize..8,
    ) {
        let ring = ring_from(&entries);
        let nodes: Vec<NodeId> = ring.iter().map(|(id, _)| id).collect();
        prop_assume!(nodes.len() >= 2);
        let leaver = nodes[leaver_idx % nodes.len()];
        let changes = vec![TopologyChange::Leave { node: leaver }];
        let mut counter = OpCounter::new();
        let out = scalecheck_ring::V3VnodeAware
            .calculate(&ring, &changes, &mut counter);
        for (_, pend) in out {
            prop_assert!(!pend.contains(&leaver));
        }
    }

    /// The future token map is sorted, deduplicated, and excludes
    /// departed nodes.
    #[test]
    fn future_map_invariants(entries in topology_strategy(), leaver_idx in 0usize..8) {
        let ring = ring_from(&entries);
        let nodes: Vec<NodeId> = ring.iter().map(|(id, _)| id).collect();
        prop_assume!(!nodes.is_empty());
        let leaver = nodes[leaver_idx % nodes.len()];
        let map = ring
            .future_token_map(&[TopologyChange::Leave { node: leaver }])
            .expect("leave-only changes cannot introduce duplicate tokens");
        for w in map.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "sorted and unique");
        }
        prop_assert!(map.iter().all(|&(_, n)| n != leaver));
    }

    /// Memo DB round-trips arbitrary content through JSON.
    #[test]
    fn memo_db_json_round_trip(
        records in prop::collection::vec((any::<u64>(), any::<u32>(), 0u64..1_000_000), 0..20),
    ) {
        let mut db: MemoDb<Vec<u8>> = MemoDb::new();
        for (input, node, dur) in &records {
            db.record(
                *node,
                FnId(1),
                digest_bytes(&input.to_le_bytes()),
                input.to_le_bytes().to_vec(),
                SimDuration::from_nanos(*dur),
            );
        }
        let json = db.to_json().unwrap();
        let back: MemoDb<Vec<u8>> = MemoDb::from_json(&json).unwrap();
        prop_assert_eq!(back.len(), db.len());
        for (input, _, dur) in &records {
            let d = digest_bytes(&input.to_le_bytes());
            let rec = back.lookup(FnId(1), d);
            prop_assert!(rec.is_some());
            let rec = rec.unwrap();
            prop_assert_eq!(rec.output, input.to_le_bytes().to_vec());
            // Last write wins; duration belongs to *a* record of this input.
            prop_assert!(rec.duration.as_nanos() <= 1_000_000);
            let _ = dur;
        }
    }

    /// The order enforcer replays any recorded sequence in exactly the
    /// recorded order, regardless of the arrival permutation.
    #[test]
    fn order_enforcer_restores_recorded_order(
        keys in prop::collection::vec(any::<u64>(), 1..30),
        seed in any::<u64>(),
    ) {
        let mut unique = keys.clone();
        unique.sort_unstable();
        unique.dedup();
        let mut rec = OrderRecorder::new();
        for &k in &unique {
            rec.record(0, k);
        }
        let mut enf = rec.enforcer();
        // Arrivals in a random permutation; held messages wait.
        let mut arrivals = unique.clone();
        let mut rng = DetRng::new(seed);
        rng.shuffle(&mut arrivals);
        let mut held: Vec<u64> = Vec::new();
        let mut processed: Vec<u64> = Vec::new();
        for k in arrivals {
            match enf.classify(0, k) {
                OrderDecision::ProcessNow => {
                    enf.advance(0, k);
                    processed.push(k);
                    // Drain any held messages that are now due.
                    while let Some(exp) = enf.expected(0) {
                        let Some(pos) = held.iter().position(|&h| h == exp) else {
                            break;
                        };
                        let k2 = held.remove(pos);
                        enf.advance(0, k2);
                        processed.push(k2);
                    }
                }
                OrderDecision::HoldForLater => held.push(k),
                OrderDecision::NotInLog => processed.push(k),
            }
        }
        prop_assert_eq!(processed, unique);
        prop_assert!(held.is_empty());
        prop_assert_eq!(enf.out_of_log(), 0);
    }

    /// Deterministic RNG: forks are reproducible and shuffles are
    /// permutations.
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let root = DetRng::new(seed);
        let mut a = root.fork(stream);
        let mut b = root.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// FIFO-cores completion times are never earlier than an ideal
    /// processor-sharing schedule's *start* bound and the machine never
    /// loses work.
    #[test]
    fn fifo_machine_conserves_work(
        demands in prop::collection::vec(1u64..1_000, 1..40),
        cores in 1usize..8,
    ) {
        let mut machine = Machine::new(cores, CtxSwitchModel::FREE);
        let total: u64 = demands.iter().sum();
        let mut last = SimTime::ZERO;
        for &d in &demands {
            let g = machine.submit(SimTime::ZERO, SimDuration::from_nanos(d));
            last = last.max(g.finish);
        }
        // Work conservation: makespan is between total/cores and total.
        prop_assert!(last.as_nanos() >= total / cores as u64);
        prop_assert!(last.as_nanos() <= total);
        // Processor sharing finishes everything by `total/cores` too.
        let tasks: Vec<(SimTime, SimDuration)> = demands
            .iter()
            .map(|&d| (SimTime::ZERO, SimDuration::from_nanos(d)))
            .collect();
        let ps = ps_completions(&tasks, cores);
        let ps_last = ps.iter().max().unwrap().as_nanos();
        prop_assert!(ps_last >= total / cores as u64);
        prop_assert!(ps_last <= total + demands.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gossip convergence: after enough random pairwise exchanges,
    /// every node's endpoint map agrees on every peer's freshest state.
    #[test]
    fn gossip_rounds_converge_views(seed in any::<u64>(), n in 3usize..10) {
        use scalecheck_gossip::Gossiper;
        use scalecheck_gossip::Peer;

        let mut nodes: Vec<Gossiper<u32>> = (0..n)
            .map(|i| Gossiper::new(Peer(i as u32), 1, i as u32 * 100))
            .collect();
        for g in nodes.iter_mut() {
            g.beat();
        }
        let mut rng = DetRng::new(seed);
        // Random pairwise full rounds; 6*n*log(n) rounds is far more
        // than gossip needs to converge.
        let rounds = 6 * n * (usize::BITS - n.leading_zeros()) as usize;
        for _ in 0..rounds {
            let a = rng.gen_index(n);
            let mut b = rng.gen_index(n);
            if a == b {
                b = (b + 1) % n;
            }
            // SYN a->b, ACK b->a, ACK2 a->b.
            let syn = nodes[a].make_syn();
            let ack = nodes[b].handle_syn(&syn);
            let (_, ack2) = nodes[a].handle_ack(&ack);
            nodes[b].handle_ack2(&ack2);
        }
        // Everyone knows everyone's app payload.
        for g in &nodes {
            for i in 0..n {
                let st = g.endpoint(Peer(i as u32));
                prop_assert!(st.is_some(), "missing peer {i}");
                prop_assert_eq!(*st.unwrap().app, i as u32 * 100);
            }
        }
    }

    /// The event engine fires events in exactly nondecreasing time
    /// order regardless of scheduling order.
    #[test]
    fn engine_fires_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..100)) {
        use scalecheck_sim::Engine;
        let mut engine: Engine<Vec<u64>> = Engine::new(1);
        let stamp = engine.register_handler(|out: &mut Vec<u64>, ctx, _| {
            out.push(ctx.now().as_nanos());
        });
        for &t in &times {
            engine.schedule_handler_at(SimTime::from_nanos(t), stamp, 0);
        }
        let mut fired: Vec<u64> = Vec::new();
        engine.run_to_completion(&mut fired);
        prop_assert_eq!(fired.len(), times.len());
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, sorted);
    }

    /// Differential scheduler property: the timer wheel and the
    /// reference binary heap fire the same events at the same times in
    /// the same order, draw the same RNG sequence, and agree on which
    /// cancellations landed — for randomized schedule/cancel workloads
    /// including follow-ups scheduled from inside events.
    #[test]
    fn wheel_and_heap_schedulers_are_indistinguishable(
        ops in prop::collection::vec(
            // (delay_ns, kind%3: 0 spawning handler, 1 plain handler,
            //  2 schedule-then-cancel, spawn: follow-up from inside the
            //  event)
            (0u64..50_000_000, 0u8..3, any::<bool>()),
            1..60,
        ),
        seed in any::<u64>(),
    ) {
        use scalecheck_sim::{Engine, SchedulerKind};

        // (virtual now, event tag, rng draw at fire time)
        type SchedLog = Vec<(u64, u64, u64)>;
        /// The spawning handler's payload bit asking for a follow-up.
        const SPAWN: u64 = 1 << 63;
        let run = |kind: SchedulerKind| -> Result<
            (SchedLog, scalecheck_sim::EngineCounters),
            TestCaseError,
        > {
            let mut engine: Engine<SchedLog> = Engine::with_scheduler(seed, kind);
            let h = engine.register_handler(|log: &mut SchedLog, ctx, tag| {
                let draw = ctx.rng().next_u64();
                log.push((ctx.now().as_nanos(), tag, draw));
            });
            let spawner = engine.register_handler(move |log: &mut SchedLog, ctx, p| {
                let tag = p & !SPAWN;
                let draw = ctx.rng().next_u64();
                log.push((ctx.now().as_nanos(), tag, draw));
                if p & SPAWN != 0 {
                    let follow_up = SimDuration::from_nanos(1_000_003);
                    ctx.schedule_handler_after(follow_up, h, tag + 10_000);
                }
            });
            for (tag, &(delay, kind_op, spawn)) in ops.iter().enumerate() {
                let tag = tag as u64;
                let delay = SimDuration::from_nanos(delay);
                match kind_op {
                    0 => {
                        let p = if spawn { tag | SPAWN } else { tag };
                        engine.schedule_handler_after(delay, spawner, p);
                    }
                    1 => {
                        engine.schedule_handler_after(delay, h, tag);
                    }
                    _ => {
                        // Scheduled, then cancelled before running:
                        // must never fire and never perturb the rest.
                        let id = engine.schedule_handler_after(delay, h, tag + 20_000);
                        prop_assert!(engine.cancel(id), "fresh timer must cancel");
                        prop_assert!(!engine.cancel(id), "double cancel must fail");
                    }
                }
            }
            let mut log = SchedLog::new();
            engine.run_to_completion(&mut log);
            Ok((log, engine.counters()))
        };

        let (wheel_log, wheel_counters) = run(SchedulerKind::Wheel)?;
        let (heap_log, heap_counters) = run(SchedulerKind::Heap)?;
        prop_assert_eq!(&wheel_log, &heap_log);
        prop_assert!(
            wheel_log.iter().all(|&(_, tag, _)| tag < 20_000),
            "cancelled events must not fire"
        );
        // Schedule/fire/cancel accounting agrees; only the pool split
        // (a wheel-side implementation detail) may differ.
        prop_assert_eq!(wheel_counters.scheduled, heap_counters.scheduled);
        prop_assert_eq!(wheel_counters.fired, heap_counters.fired);
        prop_assert_eq!(wheel_counters.cancelled, heap_counters.cancelled);
        prop_assert_eq!(wheel_counters.pending(), 0);
        prop_assert_eq!(heap_counters.pending(), 0);
    }

    /// Differential tie-order property: a zero-shift swap spec, which
    /// *encodes* the identity permutation through the perturbed path,
    /// leaves a randomized tie-heavy workload byte-identical to the
    /// policy-free engine: same fire order, same per-event RNG draws, on
    /// both schedulers. This is what makes perturbed-path results
    /// comparable to stock baselines in the schedule explorer.
    #[test]
    fn identity_tie_policies_match_the_stock_engine(
        // Coarse times force plenty of same-timestamp ties.
        times in prop::collection::vec(0u64..40, 2..80),
        seed in any::<u64>(),
    ) {
        use scalecheck_sim::tie::{TieOrderSpec, TieSwap};
        use scalecheck_sim::{Engine, SchedulerKind, SimTime};

        type FireLog = Vec<(u64, u64, u64)>;
        let run = |kind: SchedulerKind, perturbed: bool| -> FireLog {
            let zero_shift = TieOrderSpec::with_swaps(
                (0..times.len()).map(|i| TieSwap { seq: i as u64 + 1, shift: 0 }).collect(),
            );
            let mut engine: Engine<FireLog> = if perturbed {
                Engine::with_tie_order(seed, kind, &zero_shift)
            } else {
                Engine::with_scheduler(seed, kind)
            };
            let h = engine.register_handler(|log: &mut FireLog, ctx, tag| {
                let draw = ctx.rng().next_u64();
                log.push((ctx.now().as_nanos(), tag, draw));
            });
            for (tag, &t) in times.iter().enumerate() {
                engine.schedule_handler_at(SimTime::from_nanos(t), h, tag as u64);
            }
            let mut log = FireLog::new();
            engine.run_to_completion(&mut log);
            log
        };

        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            prop_assert_eq!(run(kind, false), run(kind, true), "zero-shift swap spec diverged");
        }
    }

    /// Steady-state periodic handler timers recycle slab slots instead
    /// of allocating: after warm-up every schedule is a pool hit.
    #[test]
    fn steady_state_periodic_timers_run_allocation_free(
        lanes in 1usize..8,
        rounds in 16u64..200,
    ) {
        use scalecheck_sim::{Engine, HandlerId, SchedulerKind};

        struct World {
            left: u64,
            handler: Option<HandlerId>,
        }
        let mut engine: Engine<World> = Engine::with_scheduler(1, SchedulerKind::Wheel);
        let h = engine.register_handler(|w: &mut World, ctx, lane| {
            if w.left > 0 {
                w.left -= 1;
                let h = w.handler.expect("registered");
                ctx.schedule_handler_after(
                    SimDuration::from_micros(700 + lane * 13),
                    h,
                    lane,
                );
            }
        });
        let mut w = World { left: rounds, handler: Some(h) };
        for lane in 0..lanes as u64 {
            engine.schedule_handler_after(SimDuration::from_micros(lane + 1), h, lane);
        }
        engine.run_to_completion(&mut w);
        let c = engine.counters();
        // Each lane's very first schedule takes a fresh slab slot; every
        // steady-state reschedule reuses one — zero allocations/event.
        prop_assert_eq!(c.pool_misses, lanes as u64);
        prop_assert_eq!(c.pool_hits + c.pool_misses, c.scheduled);
        prop_assert!(c.pool_hits >= c.scheduled - lanes as u64);
        prop_assert_eq!(c.fired, c.scheduled);
    }

    /// φ never decreases while a peer stays silent, and resets after a
    /// fresh heartbeat.
    #[test]
    fn phi_is_monotone_in_silence(beats in 2u64..30, probe_gap in 1u64..50) {
        use scalecheck_gossip::PhiDetector;
        let mut d = PhiDetector::cassandra(SimDuration::from_secs(1));
        for s in 0..beats {
            d.heartbeat(SimTime::from_secs(s));
        }
        let base = SimTime::from_secs(beats);
        let p1 = d.phi(base);
        let p2 = d.phi(base + SimDuration::from_secs(probe_gap));
        let p3 = d.phi(base + SimDuration::from_secs(probe_gap * 2));
        prop_assert!(p1 <= p2 && p2 <= p3, "{p1} {p2} {p3}");
        d.heartbeat(base + SimDuration::from_secs(probe_gap * 2));
        let after = d.phi(base + SimDuration::from_secs(probe_gap * 2));
        prop_assert!(after <= p1.max(0.01));
    }

    /// Partitions are symmetric: while `A ⊁ B` holds, offers in *both*
    /// directions fail with the partition drop reason, and after the
    /// heal both directions deliver again.
    #[test]
    fn network_partitions_are_symmetric(
        pairs in prop::collection::vec((0u32..16, 0u32..16), 1..8),
        seed in any::<u64>(),
    ) {
        use scalecheck_net::{Addr, DropReason, Network, NetworkConfig};
        let mut net = Network::new(NetworkConfig {
            drop_probability: 0.0,
            ..NetworkConfig::default()
        });
        let mut rng = DetRng::new(seed);
        let now = SimTime::from_secs(1);
        for &(a, b) in pairs.iter().filter(|(a, b)| a != b) {
            net.partition(Addr(a), Addr(b));
            prop_assert_eq!(
                net.offer(now, &mut rng, Addr(a), Addr(b)).unwrap_err(),
                DropReason::Partitioned
            );
            prop_assert_eq!(
                net.offer(now, &mut rng, Addr(b), Addr(a)).unwrap_err(),
                DropReason::Partitioned
            );
            net.heal(Addr(a), Addr(b));
            prop_assert!(net.offer(now, &mut rng, Addr(b), Addr(a)).is_ok());
            prop_assert!(net.offer(now, &mut rng, Addr(a), Addr(b)).is_ok());
        }
    }

    /// Differential: the φ detector's O(1) running-sum mean is
    /// bit-identical to naively re-summing the window after every
    /// heartbeat.
    ///
    /// Exact `f64` equality (`to_bits`) is deliberate, not optimistic:
    /// the window stores intervals as integer nanoseconds and the
    /// running sum is a `u128`, so both paths add the *same integers*
    /// (where addition is exact and associative) and perform the single
    /// lossy int→float conversion through the same helper. Any drift
    /// here means the incremental bookkeeping diverged from the window
    /// contents — a real bug, not float noise.
    #[test]
    fn phi_running_sum_matches_naive_resum(
        gaps in prop::collection::vec(0u64..40_000_000_000, 1..1200),
    ) {
        use scalecheck_gossip::PhiDetector;
        let mut d = PhiDetector::cassandra(SimDuration::from_secs(1));
        let mut now = SimTime::ZERO;
        for &g in &gaps {
            // g == 0 exercises the ignored out-of-order/duplicate path;
            // large g exercises the max-interval filter; > 1000 beats
            // exercises window eviction.
            now += SimDuration::from_nanos(g);
            d.heartbeat(now);
            prop_assert_eq!(
                d.mean_interval().to_bits(),
                d.mean_interval_naive().to_bits()
            );
        }
    }

    /// Differential: the cached current-token-map is indistinguishable
    /// from rebuilding it from scratch, across arbitrary interleavings
    /// of topology mutations and ring snapshots (clones share the warm
    /// cache via `Arc`, so snapshot consistency is load-bearing).
    #[test]
    fn token_map_cache_is_transparent(
        entries in topology_strategy(),
        ops in prop::collection::vec((0u8..3, 0u32..100, any::<u64>()), 0..12),
    ) {
        let mut ring = ring_from(&entries);
        prop_assert_eq!(&*ring.current_token_map(), &ring.rebuild_current_token_map());
        for (kind, id, tok) in ops {
            match kind % 3 {
                0 => {
                    let _ = ring.add_node(NodeId(id), NodeStatus::Normal, vec![Token(tok)]);
                }
                1 => {
                    let _ = ring.set_status(NodeId(id), NodeStatus::Leaving);
                }
                _ => {
                    let _ = ring.remove_node(NodeId(id));
                }
            }
            prop_assert_eq!(&*ring.current_token_map(), &ring.rebuild_current_token_map());
            prop_assert_eq!(
                ring.has_pending_change(),
                ring.iter().any(|(_, st)| matches!(st.status, NodeStatus::Joining | NodeStatus::Leaving))
            );
            let snap = ring.clone();
            prop_assert_eq!(&*snap.current_token_map(), &snap.rebuild_current_token_map());
        }
    }

    /// Differential: a calculation's memo digest, which resumes the FNV
    /// state the ring caches after its canonical bytes, equals hashing
    /// the canonical ring and change list from scratch — across random
    /// interleavings of the three mutators (successful or not), clones
    /// taken with the cache cold or warm, and further mutation of the
    /// original after a clone. So every mutator resets the cache, and a
    /// clone neither carries a stale one nor sees its original move.
    #[test]
    fn calc_digest_cache_matches_hashing_from_scratch(
        nodes in prop::collection::vec(
            (0u32..12, prop::collection::vec(0u64..64, 1..4), 0u8..4),
            0..8,
        ),
        ops in prop::collection::vec((0u8..3, 0u32..12, 0u64..64, 0u8..4, 0u8..3), 0..24),
        changes in prop::collection::vec(
            (any::<bool>(), 0u32..16, prop::collection::vec(0u64..64, 0..3)),
            0..3,
        ),
    ) {
        use scalecheck_cluster::CalcEngine;
        let status = |s: u8| {
            use NodeStatus::*;
            [Normal, Joining, Leaving, Left][s as usize % 4]
        };
        let tokens = |t: Vec<u64>| t.into_iter().map(Token).collect::<Vec<_>>();
        let changes: Vec<TopologyChange> = changes
            .into_iter()
            .map(|(join, id, t)| match join {
                true => TopologyChange::Join { node: NodeId(id), tokens: tokens(t) },
                false => TopologyChange::Leave { node: NodeId(id) },
            })
            .collect();
        let mut ring = RingTable::new(3);
        for (id, t, s) in nodes {
            let _ = ring.add_node(NodeId(id), status(s), tokens(t));
        }
        // Every snapshot with the digest it had when it was taken.
        let mut snaps: Vec<(RingTable, scalecheck_memo::Digest128)> = Vec::new();
        for (kind, id, tok, s, snap) in ops {
            let _ = match kind {
                0 => ring.add_node(NodeId(id), status(s), vec![Token(tok)]),
                1 => ring.set_status(NodeId(id), status(s)),
                _ => ring.remove_node(NodeId(id)),
            };
            // Clone right after the mutation, with the cache as the
            // mutator left it (0) or warmed first (1), or not at all (2).
            if snap < 2 {
                let want = model::calc_digest_from_scratch(&ring, &changes);
                if snap == 1 {
                    prop_assert_eq!(CalcEngine::digest(&ring, &changes), want);
                }
                snaps.push((ring.clone(), want));
            }
            for list in [&changes[..], &[]] {
                prop_assert_eq!(
                    CalcEngine::digest(&ring, list),
                    model::calc_digest_from_scratch(&ring, list)
                );
            }
            for (snap, taken) in &snaps {
                prop_assert_eq!(CalcEngine::digest(snap, &changes), *taken);
            }
        }
    }

    /// Differential: `replicas_of`'s split walk (from the first token at
    /// or after the key to the end, then the head) resolves what the
    /// modulo walk it replaced did — for keys before, on and past the
    /// last token, on rings with fewer distinct current owners than `rf`
    /// (joiners own nothing yet), and on the empty ring.
    #[test]
    fn replica_walk_matches_the_modulo_walk(
        nodes in prop::collection::vec(
            (0u32..20, prop::collection::vec(0u64..1 << 20, 1..4), any::<bool>()),
            0..6,
        ),
        rf in 1usize..6,
        keys in prop::collection::vec(0u64..1 << 21, 1..8),
    ) {
        let mut ring = RingTable::new(rf);
        for (id, tokens, joining) in nodes {
            let status = if joining { NodeStatus::Joining } else { NodeStatus::Normal };
            let _ = ring.add_node(NodeId(id), status, tokens.into_iter().map(Token).collect());
        }
        let map = ring.current_token_map();
        let on_tokens = map.iter().map(|&(t, _)| t.0);
        let past_last = map.last().map_or(0, |&(t, _)| t.0 + 1);
        let mut got = Vec::new();
        for key in keys.into_iter().chain(on_tokens).chain([past_last, u64::MAX]) {
            ring.replicas_of(Token(key), &mut got);
            prop_assert_eq!(&got, &model::modulo_replicas(&map, rf, Token(key)));
        }
    }

    /// Differential: the tiled per-link FIFO clock store behaves exactly
    /// like a sparse `BTreeMap<(src, dst), clock>` model. Constant
    /// latency plus zero loss makes delivery times fully deterministic,
    /// so the model predicts every `deliver_at` to the nanosecond —
    /// including tile growth well past the old 1024-address dense cap
    /// and independence between links that share a tile.
    #[test]
    fn link_fifo_clocks_match_a_sparse_model(
        sends in prop::collection::vec((0u32..5_000, 0u32..5_000, 0u64..3_000_000), 1..200),
    ) {
        use scalecheck_net::{Addr, LatencyModel, Network, NetworkConfig};
        use std::collections::BTreeMap;
        let lat = 1_500_000u64; // 1.5 ms, constant
        let mut net = Network::new(NetworkConfig {
            drop_probability: 0.0,
            latency: LatencyModel::Constant(SimDuration::from_nanos(lat)),
        });
        let mut rng = DetRng::new(7);
        let mut model: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for (src, dst, advance) in sends {
            now += SimDuration::from_nanos(advance);
            let deliver_at = net
                .offer(now, &mut rng, Addr(src), Addr(dst))
                .expect("loss-free network never drops")
                .deliver_at;
            let clock = model.entry((src, dst)).or_insert(0);
            let raw = now.as_nanos() + lat;
            let expected = if raw <= *clock { *clock + 1 } else { raw };
            *clock = expected;
            prop_assert_eq!(deliver_at.as_nanos(), expected);
        }
    }

    /// Memory model conservation: any interleaving of allocations and
    /// frees keeps `in_use` equal to the running ledger and never
    /// exceeds capacity.
    #[test]
    fn memory_model_conserves(ops in prop::collection::vec((any::<bool>(), 1u64..1000), 1..50)) {
        use scalecheck_sim::MemoryModel;
        let mut m = MemoryModel::new(16 * 1024);
        let mut ledger: u64 = 0;
        for (is_alloc, size) in ops {
            if is_alloc {
                if m.alloc(size).is_ok() {
                    ledger += size;
                }
            } else {
                let take = size.min(ledger);
                m.free(take);
                ledger -= take;
            }
            prop_assert_eq!(m.in_use(), ledger);
            prop_assert!(m.in_use() <= m.capacity());
            prop_assert!(m.peak() >= m.in_use());
        }
    }
}

/// Peer ids for the dense-table differentials: a dense run, holes, a
/// neighbour pair far out, and ids past any plausible table — in no
/// particular order, because the tables must not care.
const PEER_IDS: [u32; 12] = [3, 0, 5000, 1, 64, 2, 4999, 65, 7, 300, 12, 77];

// Index-addressed tables against the tree-map models in `tests/model`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Differential: the column-layout `FailureDetector` is
    /// indistinguishable from one `PhiDetector` per peer in a
    /// `BTreeMap` — newly-dead lists (order included), every counter,
    /// every verdict and φ to the bit — over arbitrary interleavings of
    /// reports (late and early, i.e. skewed clocks), sweeps, forgets,
    /// resets and fault marks on sparse, out-of-order peer ids.
    #[test]
    fn dense_failure_detector_matches_the_tree_model(
        knobs in (0usize..6, 0usize..4),
        ops in prop::collection::vec((0u8..16, 0usize..12, 0u64..3_000_000_000), 1..400),
    ) {
        use model::TreeFailureDetector;
        use scalecheck_gossip::{FailureDetector, Peer};
        let threshold = [8.0, 5.0, 1.0, 0.3, 0.0, -1.0][knobs.0];
        let interval = SimDuration::from_nanos([1_000_000_000, 100_000_000, 2_500_000_000, 1][knobs.1]);
        let mut dense = FailureDetector::new(threshold, interval);
        let mut tree = TreeFailureDetector::new(threshold, interval);
        let mut now = SimTime::from_secs(10);
        for (kind, who, x) in ops {
            let peer = Peer(PEER_IDS[who]);
            match kind {
                // Reports dominate; `x` jitters the arrival stamp both
                // ways around `now` (a stale beat, a skewed-ahead one).
                0..=7 => {
                    now += SimDuration::from_nanos(x / 8);
                    let at = if kind == 0 {
                        SimTime::from_nanos(now.as_nanos().saturating_sub(x))
                    } else if kind == 1 {
                        now + SimDuration::from_nanos(x)
                    } else {
                        now
                    };
                    dense.report(peer, at);
                    tree.report(peer, at);
                }
                8 | 9 => {
                    now += SimDuration::from_nanos(x);
                    prop_assert_eq!(dense.interpret_all(now), tree.interpret_all(now));
                }
                10 => {
                    // A long silence, then a sweep: mass conviction.
                    now += SimDuration::from_nanos(x * 12);
                    prop_assert_eq!(dense.interpret_all(now), tree.interpret_all(now));
                }
                11 => {
                    dense.forget(peer);
                    tree.forget(peer);
                }
                12 | 13 => {
                    dense.set_fault_suspect(peer, kind == 12);
                    tree.set_fault_suspect(peer, kind == 12);
                }
                14 => {
                    dense.mark_all_fault_suspects();
                    tree.mark_all_fault_suspects();
                }
                _ => {
                    if x % 8 == 0 {
                        dense.reset_monitoring();
                        tree.reset_monitoring();
                    }
                }
            }
            prop_assert_eq!(dense.flaps(), tree.flaps);
            prop_assert_eq!(dense.recoveries(), tree.recoveries);
            prop_assert_eq!(dense.fault_attributed_flaps(), tree.fault_attributed);
            prop_assert_eq!(dense.monitored(), tree.monitored());
            prop_assert_eq!(dense.dead_peers(), tree.dead_peers());
            for id in PEER_IDS.into_iter().chain([6, 5001, u32::MAX]) {
                let p = Peer(id);
                prop_assert_eq!(dense.liveness(p), tree.liveness(p));
                prop_assert_eq!(
                    dense.phi(p, now).map(f64::to_bits),
                    tree.phi(p, now).map(f64::to_bits)
                );
            }
        }
    }

    /// Differential, past the window: the existing test above stops at
    /// 400 operations and so never fills a 1000-sample window. Here
    /// three peers beat round after round for 4000 rounds — each window
    /// fills and then evicts, the oldest sample recovered from the
    /// epoch log by walking to the peer's next arrival and over any
    /// outsize gap on the way, and the log trimmed behind the windows at
    /// each sweep — with at most two `forget`s / `reset_monitoring`s
    /// dropped in at random rounds (so some land on full windows, which
    /// must start again from the next arrival), skipped and late beats,
    /// outsize gaps (dropped samples) and the odd long silence
    /// (convictions, recoveries). The gossip interval decides how wide
    /// the samples are: at 1 s every sample fits 32 bits, at 40 s none
    /// does, at 2.5 s (`max_interval` 5 s, either side of 2³² ns ≈
    /// 4.29 s) both kinds share a window. Against
    /// `model::TreeFailureDetector`: φ to the bit, `interpret_all`
    /// lists, every counter, every round.
    #[test]
    fn failure_detector_ring_matches_the_tree_model_through_eviction(
        interval_idx in 0usize..3,
        rounds in prop::collection::vec((0u64..4000, (0u64..32, 0u64..32, 0u64..32)), 4000),
        disruptions in prop::collection::vec((0usize..4000, 0usize..4), 0..3),
    ) {
        use model::TreeFailureDetector;
        use scalecheck_gossip::{FailureDetector, Peer};
        const PEERS: [Peer; 3] = [Peer(0), Peer(2), Peer(9)];
        let interval_ms = [1_000, 2_500, 40_000][interval_idx];
        let interval = SimDuration::from_millis(interval_ms);
        let part = |num: u64, den: u64| SimDuration::from_nanos(interval.as_nanos() * num / den);
        let mut dense = FailureDetector::new(8.0, interval);
        let mut tree = TreeFailureDetector::new(8.0, interval);
        let mut now = SimTime::from_secs(3600);
        let mut evictions = 0u32;
        for (round, (step, actions)) in rounds.into_iter().enumerate() {
            for &(_, what) in disruptions.iter().filter(|d| d.0 == round) {
                match PEERS.get(what) {
                    Some(&peer) => {
                        dense.forget(peer);
                        tree.forget(peer);
                    }
                    None => {
                        dense.reset_monitoring();
                        tree.reset_monitoring();
                    }
                }
            }
            // 0.3–2.05 intervals (past 2 the sample is dropped as
            // outsize), one round in 200 a 30-interval silence.
            let step = if step < 20 { part(30, 1) } else { part(300 + step % 1750, 1000) };
            now += step;
            // Sweep before this round's beats, so a long step is seen
            // as the silence it is.
            prop_assert_eq!(dense.interpret_all(now), tree.interpret_all(now));
            for (peer, action) in PEERS.into_iter().zip([actions.0, actions.1, actions.2]) {
                let at = match action {
                    0 => continue,
                    1 => SimTime::from_nanos(now.as_nanos() - interval.as_nanos()),
                    jitter => now + part(jitter, 512),
                };
                if tree.samples(peer) == Some(1000) {
                    evictions += 1;
                }
                dense.report(peer, at);
                tree.report(peer, at);
            }
            let probe_at = now + part(1, 8);
            prop_assert_eq!(dense.flaps(), tree.flaps);
            prop_assert_eq!(dense.recoveries(), tree.recoveries);
            prop_assert_eq!(dense.fault_attributed_flaps(), tree.fault_attributed);
            prop_assert_eq!(dense.monitored(), tree.monitored());
            prop_assert_eq!(dense.dead_peers(), tree.dead_peers());
            for peer in PEERS {
                prop_assert_eq!(dense.liveness(peer), tree.liveness(peer));
                prop_assert_eq!(
                    dense.phi(peer, probe_at).map(f64::to_bits),
                    tree.phi(peer, probe_at).map(f64::to_bits),
                    "round {} peer {:?}", round, peer
                );
            }
        }
        // The case did what it is here for.
        prop_assert!(evictions > 500, "only {} reports into a full window", evictions);
        prop_assert!(tree.flaps > 0 && tree.recoveries > 0);
    }

    /// Differential: `FailureDetector::report_all` hands φ a body's
    /// heartbeats as one batch, and must be a `report` per peer in
    /// order. Against `model::TreeFailureDetector` fed one `report` per
    /// batch entry: bodies of up to seven entries, unsorted, some peers
    /// twice, over ids in three bitset words; first reports (at the
    /// start and after a `forget`), recoveries of convicted peers (a
    /// long silence now and then), bodies stamped before every peer's
    /// last arrival (all stale: nothing may move; that they open no
    /// epoch is a unit test of the detector's own), and enough rounds to
    /// fill every window and evict from it. φ to the bit, every counter
    /// and verdict, every round.
    #[test]
    fn batch_report_matches_the_tree_model(
        rounds in prop::collection::vec((0u64..4000, any::<u64>(), 0u8..24), 2000..2600),
    ) {
        use model::TreeFailureDetector;
        use scalecheck_gossip::{FailureDetector, Peer};
        const PEERS: [Peer; 6] = [Peer(63), Peer(0), Peer(130), Peer(2), Peer(64), Peer(9)];
        let interval = SimDuration::from_secs(1);
        let part = |num: u64, den: u64| SimDuration::from_nanos(interval.as_nanos() * num / den);
        let mut dense = FailureDetector::new(8.0, interval);
        let mut tree = TreeFailureDetector::new(8.0, interval);
        let mut now = SimTime::from_secs(3600);
        let mut body = Vec::new();
        let (mut evictions, mut all_stale) = (0u32, 0u32);
        for (round, (step, picks, what)) in rounds.into_iter().enumerate() {
            // 0.3–2.05 intervals, one round in 200 a 30-interval silence.
            now += if step < 20 { part(30, 1) } else { part(300 + step % 1750, 1000) };
            prop_assert_eq!(dense.interpret_all(now), tree.interpret_all(now));
            if what == 0 && step < 40 {
                let peer = PEERS[(picks % 6) as usize];
                dense.forget(peer);
                tree.forget(peer);
            }
            // Each peer with odds 7 in 8, rotated, one of them maybe
            // twice.
            body.clear();
            body.extend(
                (PEERS.iter().enumerate())
                    .filter(|&(k, _)| picks >> (3 * k) & 7 != 0)
                    .map(|(_, &peer)| peer),
            );
            if let len @ 1.. = body.len() {
                body.rotate_left((picks >> 18) as usize % len);
                if picks >> 24 & 1 != 0 {
                    body.push(body[(picks >> 25) as usize % len]);
                }
            }
            let at = if what == 1 {
                // Before the last round's arrivals: stale for everyone
                // monitored who was reported since.
                SimTime::from_nanos(now.as_nanos() - part(5, 1).as_nanos())
            } else {
                now
            };
            if what == 1 && body.iter().all(|&p| tree.liveness(p).is_some()) {
                all_stale += 1;
            }
            evictions += body.iter().filter(|&&p| tree.samples(p) == Some(1000)).count() as u32;
            dense.report_all(&body, at);
            for &peer in &body {
                tree.report(peer, at);
            }
            let probe_at = now + part(1, 8);
            prop_assert_eq!(dense.flaps(), tree.flaps);
            prop_assert_eq!(dense.recoveries(), tree.recoveries);
            prop_assert_eq!(dense.monitored(), tree.monitored());
            prop_assert_eq!(dense.dead_peers(), tree.dead_peers());
            for peer in PEERS {
                prop_assert_eq!(dense.liveness(peer), tree.liveness(peer));
                prop_assert_eq!(
                    dense.phi(peer, probe_at).map(f64::to_bits),
                    tree.phi(peer, probe_at).map(f64::to_bits),
                    "round {} peer {:?}", round, peer
                );
            }
        }
        // The case did what it is here for.
        prop_assert!(evictions > 100, "only {} reports into a full window", evictions);
        prop_assert!(all_stale > 0 && tree.flaps > 0 && tree.recoveries > 0);
    }

    /// Differential: a detector without the arrival-epoch log
    /// (`FailureDetector::without_log`, what a run's nodes start with)
    /// is the logging one (`FailureDetector::new`) until a window fills:
    /// `interpret_all` lists, every counter and verdict, φ to the bit,
    /// every round, over bodies reported as one batch (even rounds) or a
    /// `report` per peer (odd rounds), sweeps, long silences, forgets,
    /// resets, fault marks and stale bodies. It asks for the log exactly
    /// at the first report that would evict, as the tree model predicts
    /// it (a full window, a new arrival inside `max_interval`): after
    /// that report when it came alone, after its body when batched, and
    /// never before. Every case runs until it does.
    #[test]
    fn a_detector_without_the_log_is_the_logging_one_until_a_window_fills(
        interval_idx in 0usize..2,
        rounds in prop::collection::vec((0u64..4000, any::<u64>(), 0u8..24), 1600),
    ) {
        use model::TreeFailureDetector;
        use scalecheck_gossip::{FailureDetector, Peer};
        const PEERS: [Peer; 6] = [Peer(63), Peer(0), Peer(130), Peer(2), Peer(64), Peer(9)];
        let interval = SimDuration::from_millis([1_000, 2_500][interval_idx]);
        let part = |num: u64, den: u64| SimDuration::from_nanos(interval.as_nanos() * num / den);
        let mut logless = FailureDetector::without_log(8.0, interval);
        let mut logging = FailureDetector::new(8.0, interval);
        let mut tree = TreeFailureDetector::new(8.0, interval);
        let mut now = SimTime::from_secs(3600);
        let mut body = Vec::new();
        let mut filled = None;
        'rounds: for (round, (step, picks, what)) in rounds.into_iter().enumerate() {
            // 0.3–2.05 intervals, one round in 200 a 30-interval silence.
            now += if step < 20 { part(30, 1) } else { part(300 + step % 1750, 1000) };
            let swept = logless.interpret_all(now);
            prop_assert_eq!(&swept, &logging.interpret_all(now));
            prop_assert_eq!(swept, tree.interpret_all(now));
            let peer = PEERS[(picks % 6) as usize];
            match (what, step) {
                (0, ..40) => {
                    logless.forget(peer);
                    logging.forget(peer);
                    tree.forget(peer);
                }
                (2, ..4) if round < 200 => {
                    logless.reset_monitoring();
                    logging.reset_monitoring();
                    tree.reset_monitoring();
                }
                (3, ..40) => {
                    logless.set_fault_suspect(peer, step < 20);
                    logging.set_fault_suspect(peer, step < 20);
                    tree.set_fault_suspect(peer, step < 20);
                }
                (4, ..10) => {
                    logless.mark_all_fault_suspects();
                    logging.mark_all_fault_suspects();
                    tree.mark_all_fault_suspects();
                }
                _ => {}
            }
            body.clear();
            body.extend(
                (PEERS.iter().enumerate())
                    .filter(|&(k, _)| picks >> (3 * k) & 7 != 0)
                    .map(|(_, &peer)| peer),
            );
            if let len @ 1.. = body.len() {
                body.rotate_left((picks >> 18) as usize % len);
            }
            let at = if what == 1 {
                SimTime::from_nanos(now.as_nanos() - part(5, 1).as_nanos())
            } else {
                now
            };
            if round % 2 == 0 {
                let mut evicts = false;
                for &peer in &body {
                    evicts |= tree.would_evict(peer, at);
                    tree.report(peer, at);
                }
                logless.report_all(&body, at);
                logging.report_all(&body, at);
                prop_assert_eq!(logless.needs_log(), evicts, "round {}", round);
                if evicts {
                    filled = Some(round);
                    break 'rounds;
                }
            } else {
                for &peer in &body {
                    let evicts = tree.would_evict(peer, at);
                    tree.report(peer, at);
                    logless.report(peer, at);
                    logging.report(peer, at);
                    prop_assert_eq!(logless.needs_log(), evicts, "round {} {:?}", round, peer);
                    if evicts {
                        filled = Some(round);
                        break 'rounds;
                    }
                }
            }
            let probe_at = now + part(1, 8);
            prop_assert_eq!(logless.flaps(), logging.flaps());
            prop_assert_eq!(logless.recoveries(), logging.recoveries());
            prop_assert_eq!(logless.fault_attributed_flaps(), logging.fault_attributed_flaps());
            prop_assert_eq!(logless.monitored(), logging.monitored());
            prop_assert_eq!(logless.dead_peers(), logging.dead_peers());
            for peer in PEERS {
                prop_assert_eq!(logless.liveness(peer), logging.liveness(peer));
                prop_assert_eq!(
                    logless.phi(peer, probe_at).map(f64::to_bits),
                    logging.phi(peer, probe_at).map(f64::to_bits),
                    "round {} peer {:?}", round, peer
                );
            }
        }
        // The case did what it is here for.
        prop_assert!(filled.is_some(), "no window filled");
        prop_assert!(logging.flaps() > 0 && logging.recoveries() > 0);
    }

    /// Differential: the sweep's integer pre-filter never hides a
    /// conviction. Probed where it could: at sweep times within a few
    /// nanoseconds — and within an ulp of the float product — of
    /// `threshold × mean_floor × ln 10` after the last arrival, with
    /// the mean clamped to the floor (a burst of fast beats), above it,
    /// and with no samples at all. Thresholds ≤ 0 and a zero floor (1 ns
    /// gossip interval) are the cases where the filter must skip nobody.
    #[test]
    fn phi_sweep_prefilter_never_hides_a_conviction(
        threshold_milli in 0u64..20_000,
        knobs in (0usize..8, 0usize..6, 0usize..4),
        last_ns in 0u64..100_000_000_000,
    ) {
        use model::TreeFailureDetector;
        use scalecheck_gossip::{FailureDetector, Peer};
        let threshold = [
            threshold_milli as f64 / 1000.0,
            threshold_milli as f64 / 1000.0,
            8.0,
            8.0,
            f64::MIN_POSITIVE,
            0.0,
            -0.0,
            -3.5,
        ][knobs.0];
        let interval_ns = [1_000_000_000u64, 1_000_000_000, 137_000_001, 2, 1, 40_000_000_000][knobs.1];
        let interval = SimDuration::from_nanos(interval_ns);
        let mut dense = FailureDetector::new(threshold, interval);
        let mut tree = TreeFailureDetector::new(threshold, interval);
        // Beats ending at `last_ns`: none, a burst far under the floor,
        // on the nominal interval, or slow (but inside max_interval).
        let step = [0, interval_ns / 8, interval_ns, interval_ns + interval_ns / 2][knobs.2];
        let beats = if step == 0 { 0 } else { 12 };
        for (peer, shift) in [(Peer(3), 0), (Peer(5000), 1)] {
            for k in (0..=beats).rev() {
                let at = SimTime::from_nanos((last_ns + shift).saturating_sub(k * step));
                dense.report(peer, at);
                tree.report(peer, at);
            }
        }
        let floor_s = SimDuration::from_nanos(interval_ns / 2).as_secs_f64();
        let product = threshold * floor_s * std::f64::consts::LN_10 * 1e9;
        let mut probes = vec![0u64, 1];
        for around in [product, f64::from_bits(product.to_bits() + 1), f64::from_bits(product.to_bits().saturating_sub(1))] {
            let mid = around as u64; // Saturating; NaN and negatives are 0.
            for d in 0..4 {
                probes.push(mid.saturating_sub(d));
                probes.push(mid.saturating_add(d));
            }
        }
        for silence in probes {
            let at = SimTime::from_nanos(last_ns.saturating_add(silence));
            // Each probe sweeps a fresh copy: a conviction is sticky.
            let mut d = dense.clone();
            let got = d.interpret_all(at);
            let want: Vec<Peer> = [Peer(3), Peer(5000)]
                .into_iter()
                .filter(|&p| tree.phi(p, at).unwrap() > threshold)
                .collect();
            prop_assert_eq!(got, want, "threshold {} interval {} silence {}", threshold, interval_ns, silence);
        }
        // The models agree once the sweep really runs, too.
        let late = SimTime::from_nanos(last_ns.saturating_add(product as u64).saturating_add(interval_ns));
        prop_assert_eq!(dense.interpret_all(late), tree.interpret_all(late));
    }

    /// Differential: gossipers over the dense `EndpointMap` with bodies
    /// in words (peers in bits, clocks one word an entry), and the
    /// exchange they replaced (`model::gossip`: a `BTreeMap` view, `u64`
    /// clocks, `Vec` bodies of `(Peer, delta)` pairs), exchange the same
    /// SYN/ACK/ACK2 bodies entry by entry, order included, report
    /// identical `ApplyOutcome`s and hold identical views, round after
    /// round, across restarts, app updates, hearsay deltas that
    /// interleave full and heartbeat-only entries about peers nobody
    /// hosts and about the receiver itself, and an id space full of
    /// holes. Every body is gathered in one build space and every outcome
    /// reported in one `ApplyOutcome` that all nodes and steps share, as
    /// the runner does it. Among the SYNs are
    /// ones handled after their sender has moved on, and ones handled
    /// twice (a duplicate), with the ACK they draw also applied twice.
    #[test]
    fn dense_endpoint_map_matches_the_tree_model(
        n in 2usize..13,
        ops in prop::collection::vec((0u8..13, 0usize..12, 0usize..12, any::<u32>()), 1..160),
    ) {
        use model::gossip::{
            widen_deltas, widen_digests, widen_state, TreeGossiper, WideDelta, WideHeartbeat,
            WideState,
        };
        use scalecheck_gossip::{
            BodySpace, ApplyOutcome, Delta, EndpointState, Gossiper, HeartbeatState, Peer,
        };
        /// Two bodies, entry by entry.
        fn same_entries<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T], what: &str) -> Result<(), TestCaseError> {
            prop_assert_eq!(got.len(), want.len(), "{} entry count", what);
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert_eq!(g, w, "{} entry {}", what, i);
            }
            Ok(())
        }
        let mut space = BodySpace::default();
        let mut outcome = ApplyOutcome::default();
        let ids = &PEER_IDS[..n];
        let mut dense: Vec<Gossiper<u32>> =
            ids.iter().map(|&id| Gossiper::new(Peer(id), 1, id)).collect();
        let mut tree: Vec<TreeGossiper<u32>> =
            ids.iter().map(|&id| TreeGossiper::new(Peer(id), 1, id)).collect();
        for (kind, a, b, x) in ops {
            let (a, b) = (a % n, b % n);
            match kind {
                0..=4 | 12 if a != b => {
                    // The runner's path, or fresh build space.
                    let syn = if kind == 4 {
                        dense[a].make_syn()
                    } else {
                        dense[a].make_syn_in(&mut space)
                    };
                    let wide_syn = tree[a].make_syn();
                    same_entries(&widen_digests(&syn.digests()), &wide_syn.digests, "SYN")?;
                    prop_assert_eq!(syn.entries(), wide_syn.digests.len());
                    // A duplicate SYN draws the same ACK twice; the
                    // second applies to a view the first already moved.
                    let copies = if kind == 12 { 2 } else { 1 };
                    for _ in 0..copies {
                        // The runner's path, or fresh build space.
                        let ack = if kind == 4 {
                            dense[b].handle_syn(&syn.clone())
                        } else {
                            dense[b].handle_syn_in(&syn.clone(), &mut space)
                        };
                        let wide_ack = tree[b].handle_syn(&wide_syn);
                        same_entries(&widen_deltas(&ack.deltas()), &wide_ack.deltas, "ACK deltas")?;
                        same_entries(&widen_digests(&ack.requests()), &wide_ack.requests, "ACK requests")?;
                        prop_assert_eq!(ack.entries(), wide_ack.deltas.len() + wide_ack.requests.len());
                        let ack2 = if kind == 4 {
                            let (out_a, ack2) = dense[a].handle_ack(&ack);
                            outcome = out_a;
                            ack2
                        } else {
                            dense[a].handle_ack_in(&ack, &mut space, &mut outcome)
                        };
                        let (model_out_a, wide_ack2) = tree[a].handle_ack(&wide_ack);
                        prop_assert_eq!(&outcome, &model_out_a);
                        same_entries(&widen_deltas(&ack2.deltas()), &wide_ack2.deltas, "ACK2")?;
                        prop_assert_eq!(ack2.is_empty(), wide_ack2.deltas.is_empty());
                        let model_out_b = tree[b].handle_ack2(&wide_ack2);
                        if kind == 4 {
                            prop_assert_eq!(dense[b].handle_ack2(&ack2), model_out_b);
                        } else {
                            dense[b].handle_ack2_in(&ack2, &mut space, &mut outcome);
                            prop_assert_eq!(&outcome, &model_out_b);
                        }
                    }
                }
                5 if a != b => {
                    // A SYN handled after its sender moved on: it carries
                    // what the sender knew when it was built.
                    let syn = dense[a].make_syn();
                    let wide_syn = tree[a].make_syn();
                    dense[a].beat();
                    tree[a].beat();
                    dense[a].update_app(x);
                    tree[a].update_app(x);
                    same_entries(&widen_digests(&syn.digests()), &wide_syn.digests, "SYN (sender moved on)")?;
                    let ack = dense[b].handle_syn(&syn);
                    let wide_ack = tree[b].handle_syn(&wide_syn);
                    same_entries(&widen_deltas(&ack.deltas()), &wide_ack.deltas, "ACK deltas (sender moved on)")?;
                    same_entries(
                        &widen_digests(&ack.requests()),
                        &wide_ack.requests,
                        "ACK requests (sender moved on)",
                    )?;
                }
                6 | 7 => {
                    dense[a].beat();
                    tree[a].beat();
                }
                8 => {
                    dense[a].update_app(x);
                    tree[a].update_app(x);
                }
                9 => {
                    dense[a].restart();
                    tree[a].restart();
                }
                10 => {
                    // Hearsay: one to four entries, full states and bare
                    // heartbeats interleaved, about peers that host no
                    // gossiper (a bare heartbeat for a stranger is
                    // ignored), hosted peers, and the receiver itself
                    // (skipped).
                    let mut bits = x;
                    let mut take = |m: u32| {
                        let v = bits % m;
                        bits /= m;
                        v
                    };
                    let entries = 1 + take(4);
                    let (mut narrow, mut wide) = (Vec::new(), Vec::new());
                    for _ in 0..entries {
                        let peer = match take(3) {
                            0 => Peer([9, 6000, 66][take(3) as usize]),
                            1 => Peer(ids[a]),
                            _ => Peer(ids[take(n as u32) as usize]),
                        };
                        let (generation, version) = (1 + take(2), take(50));
                        let hb = HeartbeatState { generation, version };
                        let wide_hb = WideHeartbeat { generation: generation.into(), version: version.into() };
                        if take(2) == 0 {
                            narrow.push((peer, Delta::Heartbeat(hb)));
                            wide.push((peer, WideDelta::Heartbeat(wide_hb)));
                        } else {
                            let app_version = take(7);
                            narrow.push((peer, Delta::Full(EndpointState::new(hb, app_version, x))));
                            wide.push((peer, WideDelta::Full(WideState::new(wide_hb, app_version.into(), x))));
                        }
                    }
                    same_entries(&widen_deltas(&narrow), &wide, "hearsay")?;
                    prop_assert_eq!(dense[a].apply(&narrow), tree[a].apply(&wide));
                }
                11 => {
                    let peer = Peer(PEER_IDS[b]);
                    dense[a].seed_peer(peer, EndpointState::new(HeartbeatState::default(), 0, x));
                    tree[a].seed_peer(peer, WideState::new(WideHeartbeat::default(), 0, x));
                }
                _ => {}
            }
        }
        for (d, t) in dense.iter().zip(&tree) {
            let view: Vec<Peer> = d.endpoints().iter().map(|(p, _)| p).collect();
            prop_assert_eq!(&view, &t.known());
            for p in view.into_iter().chain([Peer(6), Peer(6001), Peer(u32::MAX)]) {
                prop_assert_eq!(d.endpoint(p).map(widen_state), t.endpoint(p).cloned());
            }
        }
    }

    /// Differential: bodies that queue carry what a flat copy taken when
    /// they were built carries (`model::gossip`'s `Vec` bodies, built in
    /// lockstep by tree-map gossipers), through everything that happens
    /// while they wait. SYNs, the ACKs they draw and the ACK2s those
    /// draw queue together; each step builds a body, handles one taken
    /// out of order (an ACK or ACK2 applies to its receiver, SYNs and
    /// ACKs draw the next body), drops one, duplicates one, or moves a
    /// sender on: a beat, a long silence (hundreds of beats, so a view's
    /// versions span more than a byte), an app update, a crash and
    /// restart, or a departure (a `Left`-style app update and no further
    /// sends). Bodies are built and read in one shared space, as the
    /// runner does. After every step, every queued body's entries equal
    /// its copy's.
    ///
    /// Every case starts with three bodies a one-byte clock cannot code
    /// alone, queued: an ACK carrying a zero request (for a peer its
    /// sender never heard of), a SYN whose versions span more than 254,
    /// and a SYN that mixes generations (its sender restarted, its peer
    /// did not).
    #[test]
    fn queued_bodies_carry_what_a_copy_would(
        n in 2usize..7,
        ops in prop::collection::vec((0u8..10, 0usize..6, 0usize..6, any::<u32>()), 1..120),
    ) {
        use model::gossip::{widen_deltas, widen_digests, TreeGossiper, WideAck, WideAck2, WideSyn};
        use scalecheck_gossip::{Ack, Ack2, BodySpace, Gossiper, Peer, Syn};
        enum Body {
            Syn(usize, usize, Syn, WideSyn),
            Ack(usize, usize, Ack<u32>, WideAck<u32>),
            Ack2(usize, Ack2<u32>, WideAck2<u32>),
        }
        fn check(body: &Body) -> Result<(), TestCaseError> {
            match body {
                Body::Syn(_, _, syn, wide) => {
                    prop_assert_eq!(widen_digests(&syn.digests()), wide.digests.clone());
                    prop_assert_eq!(syn.entries(), wide.digests.len());
                }
                Body::Ack(_, _, ack, wide) => {
                    prop_assert_eq!(widen_deltas(&ack.deltas()), wide.deltas.clone());
                    prop_assert_eq!(widen_digests(&ack.requests()), wide.requests.clone());
                    prop_assert_eq!(ack.entries(), wide.deltas.len() + wide.requests.len());
                }
                Body::Ack2(_, ack2, wide) => {
                    prop_assert_eq!(widen_deltas(&ack2.deltas()), wide.deltas.clone());
                    prop_assert_eq!(ack2.entries(), wide.deltas.len());
                }
            }
            Ok(())
        }
        let ids = &PEER_IDS[..n];
        let mut dense: Vec<Gossiper<u32>> =
            ids.iter().map(|&id| Gossiper::new(Peer(id), 1, id)).collect();
        let mut tree: Vec<TreeGossiper<u32>> =
            ids.iter().map(|&id| TreeGossiper::new(Peer(id), 1, id)).collect();
        let mut space = BodySpace::default();
        let mut outcome = scalecheck_gossip::ApplyOutcome::default();
        let mut departed = vec![false; n];
        let mut queue: Vec<Body> = Vec::new();

        // The escapes, queued up front. Node 1 goes quiet for 300
        // beats; node 0, which never heard of it, sends a SYN.
        for _ in 0..300 {
            dense[1].beat();
            tree[1].beat();
        }
        let (syn, wide_syn) = (dense[0].make_syn_in(&mut space), tree[0].make_syn());
        // Node 1's ACK asks for node 0 at a zero watermark.
        let ack = dense[1].handle_syn_in(&syn, &mut space);
        let wide_ack = tree[1].handle_syn(&wide_syn);
        prop_assert!(wide_ack.requests.iter().any(|d| (d.generation, d.max_version) == (0, 0)));
        queue.push(Body::Ack(1, 0, ack.clone(), wide_ack.clone()));
        let ack2 = dense[0].handle_ack_in(&ack, &mut space, &mut outcome);
        let (model_out, wide_ack2) = tree[0].handle_ack(&wide_ack);
        prop_assert_eq!(&outcome, &model_out);
        queue.push(Body::Ack2(1, ack2, wide_ack2));
        // Node 0 now knows itself at version 0 and node 1 at 300.
        let (syn, wide_syn) = (dense[0].make_syn_in(&mut space), tree[0].make_syn());
        let versions = wide_syn.digests.iter().map(|d| d.max_version);
        prop_assert!(versions.clone().max().unwrap() - versions.min().unwrap() > 254);
        queue.push(Body::Syn(0, 1, syn, wide_syn));
        // Node 0 restarts into generation 2; node 1 stays in 1.
        dense[0].restart();
        tree[0].restart();
        let (syn, wide_syn) = (dense[0].make_syn_in(&mut space), tree[0].make_syn());
        prop_assert!(wide_syn.digests.iter().any(|d| d.generation != wide_syn.digests[0].generation));
        queue.push(Body::Syn(0, 1, syn, wide_syn));
        for body in &queue {
            check(body)?;
        }

        for (kind, a, b, x) in ops {
            let (a, b) = (a % n, b % n);
            match kind {
                0 | 1 if a != b && !departed[a] => {
                    let syn = dense[a].make_syn_in(&mut space);
                    queue.push(Body::Syn(a, b, syn, tree[a].make_syn()));
                }
                2 | 3 if !queue.is_empty() => {
                    // Handle a body taken out of order.
                    match queue.remove(x as usize % queue.len()) {
                        Body::Syn(from, to, syn, wide) => {
                            let ack = dense[to].handle_syn_in(&syn, &mut space);
                            let wide_ack = tree[to].handle_syn(&wide);
                            queue.push(Body::Ack(to, from, ack, wide_ack));
                        }
                        Body::Ack(from, to, ack, wide) => {
                            let ack2 = dense[to].handle_ack_in(&ack, &mut space, &mut outcome);
                            let (model_out, wide_ack2) = tree[to].handle_ack(&wide);
                            prop_assert_eq!(&outcome, &model_out);
                            queue.push(Body::Ack2(from, ack2, wide_ack2));
                        }
                        Body::Ack2(to, ack2, wide) => {
                            dense[to].handle_ack2_in(&ack2, &mut space, &mut outcome);
                            prop_assert_eq!(&outcome, &tree[to].handle_ack2(&wide));
                        }
                    }
                }
                4 if !queue.is_empty() => {
                    queue.remove(x as usize % queue.len());
                }
                5 if !queue.is_empty() => {
                    let dup = match &queue[x as usize % queue.len()] {
                        Body::Syn(f, t, s, w) => Body::Syn(*f, *t, s.clone(), w.clone()),
                        Body::Ack(f, t, s, w) => Body::Ack(*f, *t, s.clone(), w.clone()),
                        Body::Ack2(t, s, w) => Body::Ack2(*t, s.clone(), w.clone()),
                    };
                    queue.push(dup);
                }
                6 => {
                    dense[a].beat();
                    tree[a].beat();
                }
                7 => {
                    // A crash and restart: a new generation.
                    dense[a].restart();
                    tree[a].restart();
                }
                8 => {
                    // An app update; one in four is a departure.
                    dense[a].update_app(x);
                    tree[a].update_app(x);
                    departed[a] |= x % 4 == 0;
                }
                9 => {
                    // A long silence: 255 to 510 beats.
                    for _ in 0..255 + x % 256 {
                        dense[a].beat();
                        tree[a].beat();
                    }
                }
                _ => {}
            }
            for body in &queue {
                check(body)?;
            }
        }
    }
}

/// Node ids the ring differential draws from, in no order: dense low
/// ids and a block near 5000, so a table holding both has ~5000 empty
/// slots below the block.
const RING_IDS: [u32; 16] = [3, 0, 5000, 1, 2, 4999, 7, 5, 12, 4, 6, 300, 9, 8, 4998, 10];
/// Tokens are drawn below this, so lists collide within and across
/// nodes.
const RING_TOKENS: u64 = 48;
const RING_STATUSES: [NodeStatus; 4] = [
    NodeStatus::Normal,
    NodeStatus::Joining,
    NodeStatus::Leaving,
    NodeStatus::Left,
];

/// Everything a ring view answers, dense against tree: every lookup,
/// the iteration, the owner of each token in `probes`, both token maps
/// (the cached one and the rebuilt one), a future map over `changes`
/// (errors included), the pending flag, the canonical bytes and the
/// cached hash state after them.
fn ring_matches_tree(
    dense: &RingTable,
    tree: &model::ring::TreeRingTable,
    probes: &[u64],
    changes: &[TopologyChange],
) -> Result<(), TestCaseError> {
    for id in RING_IDS.into_iter().chain([11, 5001, u32::MAX]) {
        let id = NodeId(id);
        prop_assert_eq!(
            dense.node(id).map(|st| (st.status, st.tokens.to_vec())),
            tree.node(id).map(|st| (st.status, st.tokens.clone())),
            "node({})",
            id
        );
    }
    let dense_entries: Vec<_> = dense
        .iter()
        .map(|(id, st)| (id, st.status, st.tokens.to_vec()))
        .collect();
    let tree_entries: Vec<_> = tree
        .iter()
        .map(|(id, st)| (id, st.status, st.tokens.clone()))
        .collect();
    prop_assert_eq!(dense_entries, tree_entries, "iter");
    for &t in probes {
        prop_assert_eq!(
            dense.owner_of_token(Token(t)),
            tree.owner_of_token(Token(t)),
            "owner_of_token({})",
            t
        );
    }
    let current = tree.current_token_map();
    prop_assert_eq!(&*dense.current_token_map(), &current, "current_token_map");
    prop_assert_eq!(
        dense.rebuild_current_token_map(),
        current,
        "rebuild_current_token_map"
    );
    prop_assert_eq!(
        dense.future_token_map(changes),
        tree.future_token_map(changes),
        "future_token_map"
    );
    prop_assert_eq!(
        dense.has_pending_change(),
        tree.has_pending_change(),
        "has_pending_change"
    );
    let (mut dense_bytes, mut tree_bytes) = (Vec::new(), Vec::new());
    dense.write_canonical(&mut dense_bytes);
    tree.write_canonical(&mut tree_bytes);
    prop_assert_eq!(&dense_bytes, &tree_bytes, "write_canonical");
    prop_assert_eq!(
        dense.canonical_hasher().finish(),
        digest_bytes(&tree_bytes),
        "canonical_hasher"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: the id-addressed `RingTable`, whose clones share
    /// each node's token list, is indistinguishable from the
    /// `BTreeMap` table it replaced (`model::ring`) over arbitrary
    /// `add_node`s (duplicate ids, tokens colliding within a list and
    /// across nodes, unsorted lists, ids out of order and ~5000 apart),
    /// `set_status`es and `remove_node`s of present and absent ids, and
    /// clones taken along the way. After every step the live table and
    /// every clone answer as their tree twins do — so mutating the
    /// original after a clone leaves the clone as it was.
    #[test]
    fn dense_ring_table_matches_the_tree_model(
        rf in 1usize..4,
        ops in prop::collection::vec(
            (
                0u8..10,
                0usize..RING_IDS.len(),
                0usize..4,
                prop::collection::vec(0..RING_TOKENS, 0..4),
                prop::collection::vec(
                    (any::<bool>(), 0usize..RING_IDS.len(), prop::collection::vec(0..RING_TOKENS, 0..3)),
                    0..4,
                ),
            ),
            1..80,
        ),
    ) {
        use model::ring::TreeRingTable;
        let mut dense = RingTable::new(rf);
        let mut tree = TreeRingTable::new(rf);
        let mut clones: Vec<(RingTable, TreeRingTable)> = Vec::new();
        for (kind, who, status, tokens, changes) in ops {
            let node = NodeId(RING_IDS[who]);
            let status = RING_STATUSES[status];
            // Ownership is asked of the tokens this step draws, one token
            // never drawn, and one past every draw.
            let probes: Vec<u64> = tokens
                .iter()
                .chain(changes.iter().flat_map(|c| &c.2))
                .copied()
                .chain([RING_TOKENS, u64::MAX])
                .collect();
            match kind {
                0..=3 => {
                    let tokens: Vec<Token> = tokens.into_iter().map(Token).collect();
                    prop_assert_eq!(
                        dense.add_node(node, status, tokens.clone()),
                        tree.add_node(node, status, tokens)
                    );
                }
                4 | 5 => prop_assert_eq!(dense.set_status(node, status), tree.set_status(node, status)),
                6 | 7 => prop_assert_eq!(dense.remove_node(node), tree.remove_node(node)),
                _ => {
                    if clones.len() < 4 {
                        clones.push((dense.clone(), tree.clone()));
                    }
                }
            }
            let changes: Vec<TopologyChange> = changes
                .into_iter()
                .map(|(join, who, tokens)| {
                    let node = NodeId(RING_IDS[who]);
                    if join {
                        TopologyChange::Join { node, tokens: tokens.into_iter().map(Token).collect() }
                    } else {
                        TopologyChange::Leave { node }
                    }
                })
                .collect();
            ring_matches_tree(&dense, &tree, &probes, &changes)?;
            for (dense_clone, tree_clone) in &clones {
                ring_matches_tree(dense_clone, tree_clone, &probes, &changes)?;
            }
        }
    }
}

/// Views in the copy-on-write differential.
const VIEWS: usize = 4;
/// Ids the views' writes name: few, so views often reach one state, and
/// one far apart from the rest.
const VIEW_IDS: [u32; 6] = [0, 1, 2, 3, 4, 40];

/// A view and its private twin answer alike: canonical bytes, pending
/// flag, current token map, and the replica sets of keys at, between and
/// past the tokens.
fn view_matches_private(
    view: &RingTable,
    private: &RingTable,
    k: usize,
) -> Result<(), TestCaseError> {
    let (mut shared_bytes, mut private_bytes) = (Vec::new(), Vec::new());
    view.write_canonical(&mut shared_bytes);
    private.write_canonical(&mut private_bytes);
    prop_assert_eq!(shared_bytes, private_bytes, "view {}: write_canonical", k);
    prop_assert_eq!(
        view.has_pending_change(),
        private.has_pending_change(),
        "view {}: has_pending_change",
        k
    );
    let map = private.current_token_map();
    prop_assert_eq!(
        &*view.current_token_map(),
        &*map,
        "view {}: current_token_map",
        k
    );
    let keys = map
        .iter()
        .flat_map(|&(t, _)| [t.0, t.0.wrapping_add(1)])
        .chain([0, u64::MAX]);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for key in keys {
        view.replicas_of(Token(key), &mut got);
        private.replicas_of(Token(key), &mut want);
        prop_assert_eq!(&got, &want, "view {}: replicas_of({})", k, key);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: K ring views that start as one shared table, each
    /// written copy-on-write (`Arc::make_mut`) and handed to one
    /// `ViewStore` after every write, answer as K private tables driven
    /// through the same writes (`model::views`). The writes interleave
    /// across views: `add_node`s of present and absent ids, with each
    /// id's own tokens or tokens that collide, `set_status`es and
    /// `remove_node`s. After every step each view matches its twin, so a
    /// write through one view never shows in another; and two views are
    /// one table exactly when their twins have equal contents, so views
    /// that reach one state merge.
    #[test]
    fn shared_ring_views_match_private_tables(
        start in 0u32..5,
        writes in prop::collection::vec(
            (
                0usize..VIEWS,
                0u8..10,
                0usize..VIEW_IDS.len(),
                0usize..4,
                prop::collection::vec(0u64..64, 1..3),
            ),
            1..120,
        ),
    ) {
        use model::views::{PrivateViews, ViewWrite};
        use scalecheck_ring::{spread_tokens, ViewStore};
        use std::sync::Arc;

        let mut table = RingTable::new(3);
        for id in 0..start {
            table
                .add_node(NodeId(id), NodeStatus::Normal, spread_tokens(NodeId(id), 2))
                .unwrap();
        }
        let mut private = PrivateViews::new(&table, VIEWS);
        let mut store = ViewStore::new();
        let mut table = Arc::new(table);
        store.share(&mut table);
        let mut views = vec![table; VIEWS];
        for (k, kind, who, status, tokens) in writes {
            let node = NodeId(VIEW_IDS[who]);
            let status = RING_STATUSES[status];
            let write = match kind {
                // One add in four draws tokens that may collide.
                0..=3 => ViewWrite::Add {
                    node,
                    status,
                    tokens: if kind > 0 {
                        spread_tokens(node, 2)
                    } else {
                        tokens.into_iter().map(Token).collect()
                    },
                },
                4..=6 => ViewWrite::SetStatus { node, status },
                _ => ViewWrite::Remove { node },
            };
            let got = write.apply(Arc::make_mut(&mut views[k]));
            prop_assert_eq!(got, private.apply(k, &write), "{:?} on view {}", write, k);
            store.share(&mut views[k]);
            for (k, (view, twin)) in views.iter().zip(&private.views).enumerate() {
                view_matches_private(view, twin, k)?;
            }
            // Contents are judged by the twins' canonical bytes.
            let contents: Vec<Vec<u8>> = private
                .views
                .iter()
                .map(|twin| {
                    let mut bytes = Vec::new();
                    twin.write_canonical(&mut bytes);
                    bytes
                })
                .collect();
            for a in 0..VIEWS {
                for b in a + 1..VIEWS {
                    prop_assert_eq!(
                        Arc::ptr_eq(&views[a], &views[b]),
                        contents[a] == contents[b],
                        "views {} and {}: one table exactly when equal",
                        a,
                        b
                    );
                }
            }
            let distinct: std::collections::BTreeSet<&Vec<u8>> = contents.iter().collect();
            prop_assert_eq!(store.live_tables(), distinct.len(), "live tables");
        }
    }
}

/// A trace built to crowd the exporter's ordering: timestamps from a
/// handful of values (one shared by begins, ends, instants and counters
/// alike), zero-length spans, the engine process, counters on every
/// tid, names without a label, integers of every width, and timestamps
/// at the top of their range. One seed in eight gives the empty trace.
fn crowded_trace(seed: u64) -> scalecheck_obs::Trace {
    use scalecheck_obs::{CounterSample, InstantEvent, SpanEvent, Trace, ENGINE_PID};
    let rng = &mut proptest::TestRng::new(seed);
    let mut trace = Trace::default();
    if rng.below(8) == 0 {
        return trace;
    }
    let tied = 1_000 * rng.below(5_000);
    // One trace in four also has timestamps with the top bit set, one of
    // them within a few ms of `u64::MAX` ns: every bit of a key's
    // timestamp half takes part in the order.
    let late = if rng.below(4) == 0 {
        [1 << 63, u64::MAX - 2_000_000]
    } else {
        [1 << 40, 1 << 41]
    };
    let times = [
        tied,
        tied,
        tied,
        tied + 1,
        0,
        999,
        1_234_567,
        late[0],
        late[1],
    ];
    // One trace in four spreads over ~8,000 tracks.
    let wide = rng.below(4) == 0;
    let mut pids = vec![0, 1, 2, 127, u64::from(ENGINE_PID), u64::from(u32::MAX)];
    if wide {
        pids.extend(3..2_000);
    }
    let tids = [0, 1, 2, 3];
    let mut pick = |from: &[u64]| from[rng.below(from.len() as u64) as usize];
    for _ in 0..pick(if wide { &[3_000] } else { &[0, 1, 5, 40] }) {
        trace.spans.push(SpanEvent {
            name: pick(&[0, 1, 2, 3, 5, 6, 11, 999, 65_535]) as u16,
            pid: pick(&pids) as u32,
            tid: pick(&tids) as u32,
            ts: pick(&times),
            dur: pick(&[0, 0, 1, 1_000, 1_234_567 - 999]),
            arg: pick(&[0, 9, 10, 99, 100, 123_456_789, u64::MAX]),
        });
    }
    for _ in 0..pick(&[0, 1, 6]) {
        trace.instants.push(InstantEvent {
            name: pick(&[7, 8, 9, 999]) as u16,
            pid: pick(&pids) as u32,
            tid: pick(&tids) as u32,
            ts: pick(&times),
            arg: pick(&[0, 7, u64::MAX]),
        });
    }
    for _ in 0..pick(&[0, 2, 12]) {
        trace.counters.push(CounterSample {
            // Stage utilization (labelled by tid), engine events, and a
            // name without a label.
            name: pick(&[11, 12, 999]) as u16,
            pid: pick(&pids) as u32,
            tid: pick(&tids) as u32,
            ts: pick(&times),
            value: pick(&[0, 1_000, u64::MAX]),
        });
    }
    trace.meta.label = "crowded \"trace\"".into();
    trace.meta.end_ns = pick(&[0, u64::MAX]);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Differential: `to_chrome_json`, which sorts compact
    /// `(ts, phase, place)` keys, writes every byte the exporter that
    /// stable-sorted whole rows wrote (`model::chrome`), and so does
    /// `write_chrome_json`, which hands them on a chunk at a time (the
    /// wide traces run to several chunks); the file reads back as the
    /// trace it came from.
    #[test]
    fn chrome_export_matches_the_row_sorting_model(seed in any::<u64>()) {
        let trace = crowded_trace(seed);
        let json = scalecheck_obs::to_chrome_json(&trace);
        prop_assert_eq!(&json, &model::chrome::to_chrome_json(&trace));
        let mut file = Vec::new();
        scalecheck_obs::write_chrome_json(&trace, &mut file).expect("a Vec takes every byte");
        prop_assert_eq!(file.as_slice(), json.as_bytes());
        let back = scalecheck_obs::from_chrome_json(&json);
        prop_assert_eq!(back.as_ref(), Ok(&trace));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: hdfslike's master bills each block report from a
    /// closed form; the literal block map in `tests/model/hdfs.rs`,
    /// preloaded with every datanode's blocks, executes the same reports
    /// in any order and must count exactly the billed ops, and hold as
    /// many blocks as the master says it tracks.
    #[test]
    fn block_report_bill_matches_the_literal_master(
        n in 1u32..24,
        blocks_per_node in 1usize..200,
        fixed in any::<bool>(),
        reporters in prop::collection::vec(any::<u32>(), 1..24),
    ) {
        use model::hdfs::{blocks_of, LiteralMaster, MasterOps};
        use scalecheck_hdfslike::{DnId, Master, ReportVersion};

        let version = if fixed { ReportVersion::IncrementalDiff } else { ReportVersion::FullRescan };
        let mut oracle = LiteralMaster::new(version);
        let mut master = Master::new(version, SimDuration::from_secs(60), blocks_per_node);
        for i in 0..n {
            oracle.preload(DnId(i), &blocks_of(DnId(i), blocks_per_node));
            master.register(DnId(i), SimTime::ZERO);
        }
        prop_assert_eq!(master.block_count(), oracle.block_count());
        for r in reporters {
            let dn = DnId(r % n);
            let mut ops = MasterOps::new();
            oracle.process_block_report(dn, &blocks_of(dn, blocks_per_node), &mut ops);
            prop_assert_eq!(master.report_ops(), ops.ops(), "{:?} report from {:?}", version, dn);
            prop_assert_eq!(master.block_count(), oracle.block_count());
        }
    }
}

// Full-cluster fault properties: each case is two complete simulation
// runs, so the case count stays tiny.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The fault determinism contract as a property: any `(scenario,
    /// storm plan, seed)` triple yields a byte-identical serialized
    /// FaultReport on every run.
    #[test]
    fn same_seed_fault_reports_are_byte_identical(seed in 0u64..1_000, tenths in 1u32..10) {
        use scalecheck::run_real;
        use scalecheck_cluster::{FaultPlan, ScenarioConfig};
        let mut cfg = ScenarioConfig::baseline(8, seed);
        cfg.faults = FaultPlan::storm(seed, 8, tenths as f64 / 10.0);
        let a = run_real(&cfg);
        let b = run_real(&cfg);
        prop_assert_eq!(
            serde_json::to_string(&a.faults).unwrap(),
            serde_json::to_string(&b.faults).unwrap()
        );
        prop_assert_eq!(a.total_flaps, b.total_flaps);
        prop_assert_eq!(a.messages_delivered, b.messages_delivered);
    }

    /// A fault crash followed by a restart never removes the node for
    /// good: the run settles, the restart is accounted, and any
    /// fault-attributed convictions are followed by recoveries once the
    /// restarted node gossips again.
    #[test]
    fn crash_restart_is_never_permanent(
        seed in 0u64..1_000,
        node in 1u32..7,
        down_secs in 25u64..40,
    ) {
        use scalecheck::run_real;
        use scalecheck_cluster::{FaultPlan, ScenarioConfig};
        let mut cfg = ScenarioConfig::baseline(8, seed);
        cfg.faults = FaultPlan::new()
            .crash(SimTime::from_secs(50), node)
            .restart(SimTime::from_secs(50 + down_secs), node);
        let r = run_real(&cfg);
        prop_assert!(r.quiesced, "restarted cluster must settle");
        prop_assert_eq!(r.faults.crashes, 1);
        prop_assert_eq!(r.faults.restarts, 1);
        prop_assert_eq!(
            r.faults.downtime.get(&node).copied(),
            Some(SimDuration::from_secs(down_secs))
        );
        if r.faults.attributed_flaps > 0 {
            prop_assert!(
                r.recoveries > 0,
                "convicted-then-restarted node must be re-learned"
            );
        }
    }
}
