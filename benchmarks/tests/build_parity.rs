//! The benchmark must time the program `cargo build --release` ships:
//! its `[profile.release]` has to equal the root manifest's.

use std::collections::BTreeMap;

/// The `key = value` entries of one TOML table, comments and blank
/// lines dropped. Enough TOML for a flat profile table.
fn table(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, value) = l.split_once('=').expect("key = value");
            (key.trim().to_string(), value.trim().to_string())
        })
        .collect()
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let here = env!("CARGO_MANIFEST_DIR");
    let read =
        |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let root = table(&read(format!("{here}/../Cargo.toml")), "[profile.release]");
    let mine = table(&read(format!("{here}/Cargo.toml")), "[profile.release]");
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        mine, root,
        "benchmarks/Cargo.toml [profile.release] must repeat the root's exactly"
    );
}

#[test]
fn table_parser_reads_only_the_named_table() {
    let text =
        "[a]\nx = 1\n\n# note\n[profile.release]\nlto = \"thin\" \ncodegen-units=1\n[b]\ny = 2\n";
    let t = table(text, "[profile.release]");
    assert_eq!(t.len(), 2);
    assert_eq!(t["lto"], "\"thin\"");
    assert_eq!(t["codegen-units"], "1");
    assert!(table(text, "[missing]").is_empty());
}
