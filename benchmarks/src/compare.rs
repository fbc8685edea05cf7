//! `--compare A.json B.json`: two result documents of the suite, side by
//! side, against the bounds the benchmark fixed.

use serde_json::Value;

use crate::metrics::END_TO_END;
use crate::workloads::WorkloadId;

/// `setup_s` may grow by its bound or by this many seconds, whichever
/// is larger: three of the four workloads set up in milliseconds, where
/// a share of the median is noise.
const SETUP_FLOOR_S: f64 = 0.05;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?.get(name)
}

/// What must repeat exactly for one workload: the digest and the counts,
/// as printable `(name, value)` pairs.
fn exact_values(w: &Value) -> Vec<(String, String)> {
    let mut out = vec![(
        "sim_digest".to_string(),
        w.get("sim_digest")
            .map_or("null".to_string(), Value::to_string),
    )];
    for (name, v) in w.get("counts").and_then(Value::as_object).unwrap_or(&[]) {
        out.push((name.clone(), v.to_string()));
    }
    out
}

/// Prints, per workload and end-to-end metric, both medians, how much
/// worse B is than A, and the bound; flags breaches (for `setup_s` only
/// beyond [`SETUP_FLOOR_S`]); lists every exact
/// metric that differs at all. Returns the exit code: 1 on a breach, a
/// differing exact metric or a failed cell, 2 on unreadable input.
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut bad = false;
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<20} {:<13} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "B worse", "bound"
    );
    for id in WorkloadId::ALL {
        let name = id.name();
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            println!("{name}: missing from one side");
            bad = true;
            continue;
        };
        for (def, bound) in &END_TO_END {
            let med = |w: &Value| w.get("end_to_end")?.get(def.name)?.get("median")?.as_f64();
            let (Some(ma), Some(mb)) = (med(wa), med(wb)) else {
                println!("{name:<20} {:<13} no median on one side", def.name);
                bad = true;
                continue;
            };
            // All end-to-end metrics are lower-is-better.
            let floor = if def.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let breach = mb - ma > (bound * ma).max(floor);
            bad |= breach;
            let worse = if ma > 0.0 { (mb - ma) / ma } else { 0.0 };
            println!(
                "{name:<20} {:<13} {ma:>12.4} {mb:>12.4} {:>+8.2}% {:>6.0}%{}",
                def.name,
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" },
            );
        }
        for (side, w) in [("A", wa), ("B", wb)] {
            let failed = w
                .get("ops_failed")
                .and_then(Value::as_u64)
                .unwrap_or(u64::MAX);
            if failed != 0 {
                println!("{name}: {side} has ops_failed = {failed}");
                bad = true;
            }
        }
        let (ea, eb) = (exact_values(wa), exact_values(wb));
        for (metric, va) in &ea {
            let vb = eb
                .iter()
                .find(|(m, _)| m == metric)
                .map(|(_, v)| v.as_str());
            if vb != Some(va.as_str()) {
                println!(
                    "{name}: simulated behaviour changed: {metric} A = {va}, B = {}",
                    vb.unwrap_or("absent")
                );
                bad = true;
            }
        }
    }
    println!("{}", if bad { "DIFFERENT" } else { "AGREE" });
    i32::from(bad)
}
