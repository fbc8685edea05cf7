//! The PIL-safe / offending function finder (Figure 2, step b).
//!
//! Given a [`Program`], the analysis computes for every function:
//!
//! * its asymptotic **degree** (interprocedural: loops over `@scaledep`
//!   collections compose across call chains, as in C6127 where "O(N³)
//!   loops span 1000+ LOC across 9 functions");
//! * the **path conditions** (if-else predicates) required to reach each
//!   expensive term, so developers know which workload exercises it
//!   (C6127's last O(N²) loop runs only when bootstrapping from scratch);
//! * its **PIL-safety**: memoizable (no clock/RNG reads) and free of
//!   side effects (sends, disk I/O, locks).
//!
//! Functions that are scale-superlinear (`scale_order >= threshold`,
//! default 2) are **offending**; offending ∧ PIL-safe functions form the
//! instrumentation plan (step c), and offending-but-unsafe functions are
//! reported as warnings the developer must restructure.

use std::collections::{BTreeMap, BTreeSet};

use crate::complexity::Degree;
use crate::ir::{Program, Stmt};

/// Why a function is not PIL-safe.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EffectReason {
    /// Sends network messages.
    SendsMessages,
    /// Performs disk I/O.
    DiskIo,
    /// Acquires or releases locks (blocking).
    Locking,
    /// Reads the clock or RNG (output not memoizable).
    Nondeterminism,
    /// Participates in recursion (degree under-approximated).
    Recursive,
}

/// One maximal cost term of a function, with what it takes to reach it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Contribution {
    /// The growth term.
    pub degree: Degree,
    /// Branch predicates that must hold (prefixed `!` when the else arm
    /// is required).
    pub conditions: BTreeSet<String>,
    /// Call chain from the analyzed function down to the loop nest
    /// (empty when the loops are local).
    pub chain: Vec<String>,
}

/// Per-function analysis result.
#[derive(Clone, Debug)]
pub struct FuncReport {
    /// Function name.
    pub name: String,
    /// Upper-bound degree across all paths.
    pub degree: Degree,
    /// Whether the function may take the PIL.
    pub pil_safe: bool,
    /// Reasons it is unsafe (empty when `pil_safe`).
    pub effects: BTreeSet<EffectReason>,
    /// Whether the function is offending (scale-superlinear).
    pub offending: bool,
    /// Maximal cost terms with path conditions and call chains.
    pub contributions: Vec<Contribution>,
    /// Source LOC spanned by the function plus its maximal chain.
    pub span_loc: u32,
}

/// Whole-program finder output.
#[derive(Clone, Debug)]
pub struct FinderReport {
    /// Per-function reports.
    pub functions: BTreeMap<String, FuncReport>,
    /// Offending functions, most expensive first.
    pub offending: Vec<String>,
    /// Offending ∧ PIL-safe: instrument these (Figure 2 step c).
    pub instrumentation_plan: Vec<String>,
    /// Offending but not PIL-safe: must be restructured before PIL.
    pub unsafe_offenders: Vec<String>,
}

/// Finder configuration.
#[derive(Clone, Copy, Debug)]
pub struct FinderConfig {
    /// Minimum `scale_order` (polynomial degree in cluster size) to
    /// call a function offending. Default 2 (superlinear in cluster size). The §4
    /// footnote's "unexpected serializations of O(N) operations" are
    /// caught by lowering this to 1.
    pub offending_threshold: u32,
}

impl Default for FinderConfig {
    fn default() -> Self {
        FinderConfig {
            offending_threshold: 2,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Summary {
    contributions: Vec<Contribution>,
    effects: BTreeSet<EffectReason>,
}

/// Runs the finder over a validated program.
pub fn analyze(program: &Program, config: FinderConfig) -> FinderReport {
    let mut cache: BTreeMap<String, Summary> = BTreeMap::new();
    let mut visiting: BTreeSet<String> = BTreeSet::new();
    let names: Vec<String> = program.functions.keys().cloned().collect();
    for name in &names {
        summarize(program, name, &mut cache, &mut visiting);
    }

    let mut functions = BTreeMap::new();
    let mut offending = Vec::new();
    for name in &names {
        let summary = &cache[name];
        let degree = summary
            .contributions
            .iter()
            .fold(Degree::CONST, |acc, c| acc.join(c.degree));
        let is_offending = degree.scale_order() >= config.offending_threshold;
        let pil_safe = summary.effects.is_empty();
        let contributions = maximal(&summary.contributions);
        let span_loc = {
            let own = program.functions[name].loc;
            let chain_loc: u32 = contributions
                .iter()
                .flat_map(|c| c.chain.iter())
                .collect::<BTreeSet<_>>()
                .iter()
                .filter_map(|f| program.functions.get(*f).map(|x| x.loc))
                .sum();
            own + chain_loc
        };
        if is_offending {
            offending.push((name.clone(), degree));
        }
        functions.insert(
            name.clone(),
            FuncReport {
                name: name.clone(),
                degree,
                pil_safe,
                effects: summary.effects.clone(),
                offending: is_offending,
                contributions,
                span_loc,
            },
        );
    }

    offending.sort_by(|a, b| {
        (b.1.scale_order(), b.1.m, b.1.log, a.0.clone()).cmp(&(
            a.1.scale_order(),
            a.1.m,
            a.1.log,
            b.0.clone(),
        ))
    });
    let offending: Vec<String> = offending.into_iter().map(|(n, _)| n).collect();
    let instrumentation_plan: Vec<String> = offending
        .iter()
        .filter(|n| functions[*n].pil_safe)
        .cloned()
        .collect();
    let unsafe_offenders: Vec<String> = offending
        .iter()
        .filter(|n| !functions[*n].pil_safe)
        .cloned()
        .collect();

    FinderReport {
        functions,
        offending,
        instrumentation_plan,
        unsafe_offenders,
    }
}

fn summarize(
    program: &Program,
    name: &str,
    cache: &mut BTreeMap<String, Summary>,
    visiting: &mut BTreeSet<String>,
) -> Summary {
    if let Some(s) = cache.get(name) {
        return s.clone();
    }
    if visiting.contains(name) {
        // Recursion: under-approximate with a flagged constant.
        let mut s = Summary::default();
        s.effects.insert(EffectReason::Recursive);
        return s;
    }
    visiting.insert(name.to_string());
    let body = program
        .functions
        .get(name)
        .map(|f| f.body.clone())
        .unwrap_or_default();
    let s = analyze_body(program, &body, cache, visiting);
    visiting.remove(name);
    cache.insert(name.to_string(), s.clone());
    s
}

fn analyze_body(
    program: &Program,
    body: &[Stmt],
    cache: &mut BTreeMap<String, Summary>,
    visiting: &mut BTreeSet<String>,
) -> Summary {
    let mut out = Summary::default();
    for st in body {
        match st {
            Stmt::Loop { over, body } => {
                let size = collection_size(program, over);
                let inner = analyze_body(program, body, cache, visiting);
                out.effects.extend(inner.effects.iter().copied());
                // The loop's own iteration cost.
                if size.is_scale_dependent() || size.m > 0 {
                    out.contributions.push(Contribution {
                        degree: size,
                        conditions: BTreeSet::new(),
                        chain: Vec::new(),
                    });
                }
                // Nesting multiplies the body's terms.
                for c in inner.contributions {
                    out.contributions.push(Contribution {
                        degree: size.mul(c.degree),
                        conditions: c.conditions,
                        chain: c.chain,
                    });
                }
            }
            Stmt::Sort { over } => {
                let size = collection_size(program, over);
                if size.is_scale_dependent() || size.m > 0 {
                    out.contributions.push(Contribution {
                        degree: size.mul(Degree::new(0, 0, 0, 1)),
                        conditions: BTreeSet::new(),
                        chain: Vec::new(),
                    });
                }
            }
            Stmt::BinarySearch { over } => {
                let size = collection_size(program, over);
                if size.is_scale_dependent() || size.m > 0 {
                    out.contributions.push(Contribution {
                        degree: Degree::new(0, 0, 0, 1),
                        conditions: BTreeSet::new(),
                        chain: Vec::new(),
                    });
                }
            }
            Stmt::Call { callee } => {
                let inner = summarize(program, callee, cache, visiting);
                out.effects.extend(inner.effects.iter().copied());
                for c in inner.contributions {
                    let mut chain = vec![callee.clone()];
                    chain.extend(c.chain);
                    out.contributions.push(Contribution {
                        degree: c.degree,
                        conditions: c.conditions,
                        chain,
                    });
                }
            }
            Stmt::Branch {
                condition,
                then_body,
                else_body,
            } => {
                let t = analyze_body(program, then_body, cache, visiting);
                let e = analyze_body(program, else_body, cache, visiting);
                out.effects.extend(t.effects.iter().copied());
                out.effects.extend(e.effects.iter().copied());
                for (arm, prefix) in [(t, ""), (e, "!")] {
                    for mut c in arm.contributions {
                        c.conditions.insert(format!("{prefix}{condition}"));
                        out.contributions.push(c);
                    }
                }
            }
            Stmt::Compute => {}
            Stmt::SendMessage => {
                out.effects.insert(EffectReason::SendsMessages);
            }
            Stmt::DiskIo => {
                out.effects.insert(EffectReason::DiskIo);
            }
            Stmt::AcquireLock { .. } | Stmt::ReleaseLock { .. } => {
                out.effects.insert(EffectReason::Locking);
            }
            Stmt::ReadClock => {
                out.effects.insert(EffectReason::Nondeterminism);
            }
        }
    }
    out.contributions = maximal(&out.contributions);
    out
}

fn collection_size(program: &Program, name: &str) -> Degree {
    program
        .collections
        .get(name)
        .map(|c| {
            if c.scale_dep {
                c.size
            } else {
                Degree::CONST.join(c.size)
            }
        })
        .unwrap_or(Degree::CONST)
}

/// Keeps only contributions not dominated by another contribution with a
/// subset of its conditions (a dominated term can never be the reason a
/// function is offending).
fn maximal(contribs: &[Contribution]) -> Vec<Contribution> {
    let mut out: Vec<Contribution> = Vec::new();
    for c in contribs {
        if contribs.iter().any(|other| {
            !std::ptr::eq(other, c)
                && other.degree.dominates(c.degree)
                && other.degree != c.degree
                && other.conditions.is_subset(&c.conditions)
        }) {
            continue;
        }
        if !out
            .iter()
            .any(|o| o.degree == c.degree && o.conditions == c.conditions)
        {
            out.push(c.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;

    fn loop_over(c: &str, body: Vec<Stmt>) -> Stmt {
        Stmt::Loop {
            over: c.into(),
            body,
        }
    }

    fn ring_program() -> Program {
        let mut p = Program::new();
        p.collection("ring", true, Degree::ring());
        p.collection("changes", true, Degree::new(0, 0, 1, 0));
        p.collection("config", false, Degree::CONST);
        p
    }

    #[test]
    fn triple_nested_loop_is_cubic() {
        let mut p = ring_program();
        p.function(
            "update_ring",
            40,
            vec![loop_over(
                "ring",
                vec![loop_over(
                    "ring",
                    vec![loop_over("ring", vec![Stmt::Compute])],
                )],
            )],
        );
        let r = analyze(&p, FinderConfig::default());
        let f = &r.functions["update_ring"];
        assert_eq!(f.degree, Degree::new(3, 3, 0, 0));
        assert!(f.offending);
        assert!(f.pil_safe);
        assert_eq!(r.instrumentation_plan, vec!["update_ring".to_string()]);
    }

    #[test]
    fn loops_spanning_functions_compose() {
        // The C6127 pattern: the nest spans several functions.
        let mut p = ring_program();
        p.function("inner", 300, vec![loop_over("ring", vec![Stmt::Compute])]);
        p.function(
            "middle",
            400,
            vec![loop_over(
                "ring",
                vec![Stmt::Call {
                    callee: "inner".into(),
                }],
            )],
        );
        p.function(
            "outer",
            350,
            vec![loop_over(
                "changes",
                vec![loop_over(
                    "ring",
                    vec![Stmt::Call {
                        callee: "middle".into(),
                    }],
                )],
            )],
        );
        let r = analyze(&p, FinderConfig::default());
        let f = &r.functions["outer"];
        assert_eq!(f.degree, Degree::new(3, 3, 1, 0));
        assert!(f.offending);
        // The chain names the spanned functions.
        let chains: Vec<&Vec<String>> = f.contributions.iter().map(|c| &c.chain).collect();
        assert!(
            chains
                .iter()
                .any(|ch| ch.contains(&"middle".to_string()) && ch.contains(&"inner".to_string())),
            "chain should span middle->inner: {chains:?}"
        );
        // Span LOC covers the whole nest (350 + 400 + 300).
        assert_eq!(f.span_loc, 1050);
        // inner alone is only O(N·P): not offending at threshold 2.
        assert!(!r.functions["inner"].offending);
    }

    #[test]
    fn branch_conditions_reported() {
        // C6127: the quadratic loop only runs when bootstrapping from
        // scratch.
        let mut p = ring_program();
        p.function(
            "calc",
            100,
            vec![Stmt::Branch {
                condition: "bootstrap_from_scratch".into(),
                then_body: vec![loop_over(
                    "ring",
                    vec![loop_over("ring", vec![Stmt::Compute])],
                )],
                else_body: vec![loop_over("ring", vec![Stmt::Compute])],
            }],
        );
        let r = analyze(&p, FinderConfig::default());
        let f = &r.functions["calc"];
        assert!(f.offending);
        let quad = f
            .contributions
            .iter()
            .find(|c| c.degree == Degree::new(2, 2, 0, 0))
            .expect("quadratic term present");
        assert!(quad.conditions.contains("bootstrap_from_scratch"));
        // The linear term on the else path is dominated only under its
        // own conditions, so it survives with the negated condition.
        let lin = f
            .contributions
            .iter()
            .find(|c| c.degree == Degree::new(1, 1, 0, 0));
        assert!(lin.is_some_and(|c| c.conditions.contains("!bootstrap_from_scratch")));
    }

    #[test]
    fn side_effects_make_unsafe_offender() {
        let mut p = ring_program();
        p.function(
            "gossip_and_calc",
            50,
            vec![
                loop_over("ring", vec![loop_over("ring", vec![Stmt::Compute])]),
                Stmt::SendMessage,
            ],
        );
        let r = analyze(&p, FinderConfig::default());
        let f = &r.functions["gossip_and_calc"];
        assert!(f.offending);
        assert!(!f.pil_safe);
        assert!(f.effects.contains(&EffectReason::SendsMessages));
        assert_eq!(r.unsafe_offenders, vec!["gossip_and_calc".to_string()]);
        assert!(r.instrumentation_plan.is_empty());
    }

    #[test]
    fn effects_propagate_through_calls() {
        let mut p = ring_program();
        p.function("leaf_io", 5, vec![Stmt::DiskIo]);
        p.function(
            "wrapper",
            5,
            vec![
                loop_over("ring", vec![loop_over("ring", vec![Stmt::Compute])]),
                Stmt::Call {
                    callee: "leaf_io".into(),
                },
            ],
        );
        let r = analyze(&p, FinderConfig::default());
        assert!(!r.functions["wrapper"].pil_safe);
        assert!(r.functions["wrapper"]
            .effects
            .contains(&EffectReason::DiskIo));
    }

    #[test]
    fn locks_and_clock_are_flagged() {
        let mut p = ring_program();
        p.function(
            "locky",
            5,
            vec![
                Stmt::AcquireLock {
                    lock: "ring_lock".into(),
                },
                Stmt::ReleaseLock {
                    lock: "ring_lock".into(),
                },
                Stmt::ReadClock,
            ],
        );
        let r = analyze(&p, FinderConfig::default());
        let f = &r.functions["locky"];
        assert!(f.effects.contains(&EffectReason::Locking));
        assert!(f.effects.contains(&EffectReason::Nondeterminism));
    }

    #[test]
    fn non_scale_loops_are_not_offending() {
        let mut p = ring_program();
        p.function(
            "config_scan",
            5,
            vec![loop_over(
                "config",
                vec![loop_over("config", vec![Stmt::Compute])],
            )],
        );
        let r = analyze(&p, FinderConfig::default());
        assert!(!r.functions["config_scan"].offending);
        assert_eq!(r.functions["config_scan"].degree, Degree::CONST);
    }

    #[test]
    fn threshold_one_catches_linear_serializations() {
        // The §4 footnote: O(N) serializations are caught by lowering
        // the threshold.
        let mut p = ring_program();
        p.function("linear", 5, vec![loop_over("ring", vec![Stmt::Compute])]);
        let strict = analyze(
            &p,
            FinderConfig {
                offending_threshold: 1,
            },
        );
        let default = analyze(&p, FinderConfig::default());
        assert!(strict.functions["linear"].offending);
        assert!(!default.functions["linear"].offending);
    }

    #[test]
    fn recursion_is_flagged_not_looping_forever() {
        let mut p = ring_program();
        p.function("a", 5, vec![Stmt::Call { callee: "b".into() }]);
        p.function("b", 5, vec![Stmt::Call { callee: "a".into() }]);
        let r = analyze(&p, FinderConfig::default());
        assert!(r.functions["a"].effects.contains(&EffectReason::Recursive));
    }

    #[test]
    fn sort_contributes_log_factor() {
        let mut p = ring_program();
        p.function(
            "sorter",
            5,
            vec![loop_over(
                "ring",
                vec![Stmt::Sort {
                    over: "ring".into(),
                }],
            )],
        );
        let r = analyze(&p, FinderConfig::default());
        assert_eq!(r.functions["sorter"].degree, Degree::new(2, 2, 0, 1));
    }

    #[test]
    fn offending_sorted_most_expensive_first() {
        let mut p = ring_program();
        p.function(
            "quad",
            5,
            vec![loop_over(
                "ring",
                vec![loop_over("ring", vec![Stmt::Compute])],
            )],
        );
        p.function(
            "cubic",
            5,
            vec![loop_over(
                "ring",
                vec![loop_over(
                    "ring",
                    vec![loop_over("ring", vec![Stmt::Compute])],
                )],
            )],
        );
        let r = analyze(&p, FinderConfig::default());
        assert_eq!(r.offending, vec!["cubic".to_string(), "quad".to_string()]);
    }
}
