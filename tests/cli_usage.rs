//! Hostile command lines end in the usage text and exit status 2 —
//! never a panic (ROADMAP item 4).

use std::process::Command;

#[test]
fn bad_arguments_exit_with_usage_not_a_panic() {
    let hostile: [&[&str]; 8] = [
        &["run", "--nodes", "abc"],
        &["run", "--seed", "x"],
        &["run", "--bug", "c9999", "--nodes", "8"],
        &["run", "--nodes", "8", "--mode", "warp"],
        &["memoize", "--nodes", "-3"],
        &["statespace", "--nodes", "x"],
        &["statespace", "--vnodes", "1e3"],
        &["frobnicate"],
    ];
    for args in hostile {
        let out = Command::new(env!("CARGO_BIN_EXE_scalecheck-cli"))
            .args(args)
            .output()
            .expect("spawn scalecheck-cli");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {err}");
        assert!(err.contains("usage:"), "{args:?} must print usage: {err}");
        assert!(!err.contains("panicked"), "{args:?} must not panic: {err}");
    }
}
