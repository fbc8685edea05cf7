//! Regenerates the §5/§7 finder claims: the offending-function finder
//! locates the scale-dependent loop nests (spanning functions, hidden
//! behind workload-specific branches), classifies PIL-safety, and
//! emits the instrumentation plan.

use crate::cli::{Args, Command, Failure};
use crate::print_row;
use scalecheck_pilfinder::{analyze, cluster_protocol_model, instrument, FinderConfig};

pub const COMMAND: Command = Command {
    name: "tbl_finder",
    about: "S5/S7: the offending-function finder's verdicts and instrumentation plan",
    flags: &[],
    run,
};

fn run(_: &Args) -> Result<(), Failure> {
    let program = cluster_protocol_model();
    program.validate().expect("model valid");
    let report = analyze(&program, FinderConfig::default());

    println!("Offending-function finder over the cluster protocol model (S5, S7)\n");
    print_row(&["function", "degree", "span-loc", "pil-safe", "why-not"], 28);
    for name in &report.offending {
        let f = &report.functions[name];
        let why = if f.pil_safe {
            "-".to_string()
        } else {
            f.effects
                .iter()
                .map(|e| format!("{e:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        print_row(
            &[
                f.name.clone(),
                f.degree.to_string(),
                f.span_loc.to_string(),
                f.pil_safe.to_string(),
                why,
            ],
            28,
        );
    }

    println!();
    println!("path conditions (C6127: branches only some workloads exercise):");
    for name in &report.offending {
        for c in &report.functions[name].contributions {
            if !c.conditions.is_empty() {
                println!(
                    "  {name}: {} requires {:?} via {:?}",
                    c.degree, c.conditions, c.chain
                );
            }
        }
    }

    println!();
    println!(
        "instrumentation plan (offending AND PIL-safe): {:?}",
        report.instrumentation_plan
    );
    println!(
        "offending but NOT PIL-safe (restructure first): {:?}",
        report.unsafe_offenders
    );

    // The C6127 span claim: the cubic nest spans many functions/LOC.
    let v1 = &report.functions["calculate_pending_ranges_v1"];
    let deepest = v1
        .contributions
        .iter()
        .map(|c| c.chain.len())
        .max()
        .unwrap_or(0);
    println!();
    println!(
        "C6127-style span: calculate_pending_ranges_v1 nest spans {} functions, {} LOC",
        deepest + 1,
        v1.span_loc
    );

    // Step c: auto-instrumentation of the plan.
    let instrumented = instrument(&program, &report).expect("instrumentable");
    println!();
    println!(
        "auto-instrumentation: {} functions wrapped with input/output/time          recording ({} -> {} functions, still valid: {})",
        report.instrumentation_plan.len(),
        program.functions.len(),
        instrumented.functions.len(),
        instrumented.validate().is_ok()
    );

    // The S4 footnote: lowering the threshold catches O(N) serializations.
    let strict = analyze(
        &program,
        FinderConfig {
            offending_threshold: 1,
        },
    );
    println!(
        "threshold=1 additionally flags {} linear functions (S4 footnote)",
        strict.offending.len() - report.offending.len()
    );
    Ok(())
}
