//! The one binary, end to end: hostile command lines end in the usage
//! text and exit status 2 — never a panic, never a silently different
//! cell (ROADMAP item 4) — and a sweep's stdout does not depend on
//! `--jobs`.

use std::process::{Command, Output};

use scalecheck_bench::cli::COMMANDS;

/// Runs `scalecheck-cli` on the words of `line`. The sweeps below that
/// would write artifacts are given `--no-write`, so the working
/// directory does not matter.
fn cli(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scalecheck-cli"))
        .args(line.split_whitespace())
        .output()
        .expect("spawn scalecheck-cli")
}

fn assert_usage_error(line: &str) {
    let out = cli(line);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "`{line}` must exit 2: {err}");
    assert!(err.contains("usage:"), "`{line}` must print usage: {err}");
    assert!(!err.contains("panicked"), "`{line}` must not panic: {err}");
}

const FIG3: &str = "fig3_flaps --bug c3831 --scales 8,12";
const SLO: &str = "tbl_slo --bugs c3831 --scales 8,12 --modes colo --no-write";

#[test]
fn bad_arguments_exit_with_usage_not_a_panic() {
    let hostile = [
        "run --nodes abc",
        "run --seed x",
        "run --bug c9999 --nodes 8",
        "run --nodes 8 --mode warp",
        "memoize --nodes -3",
        "tbl_statespace --nodes x",
        "tbl_statespace --vnodes 1e3",
        "frobnicate",
        "fig3_flaps --scales 8,12 --jobs banana",
        "fig3_flaps --scales 8,12 --jobs 0",
        "",
        // A typo used to run a different cell than the one asked for:
        // a Real run, the N=256 answer, the default sweep — and of a
        // flag given twice the first won, silently.
        "run --nodes 8 --mod colo",
        "tbl_statespace --node 3",
        "ext_hdfs --scale 16",
        &format!("{SLO} --scales 8"),
        // One deployment parser for every command: an unknown name, or
        // one outside a command's allowed set, is a usage error.
        "explore --cells race:40:1:warp",
        "tbl_scale --modes real",
        // A cluster of no nodes used to "quiesce with zero flaps".
        "run --nodes 0",
        "fig3_flaps --bug c3831 --scales 8,0",
        "tbl_baselines --target 0",
        "explore --cells race:0:1:real",
    ];
    for line in hostile {
        assert_usage_error(line);
    }

    // ... and a 0-node sweep wrote its row over the artifacts: it must
    // stop before running or writing anything.
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (json, table) = (format!("{dir}/scale0.json"), format!("{dir}/scale0.txt"));
    for path in [&json, &table] {
        let _ = std::fs::remove_file(path);
    }
    assert_usage_error(&format!(
        "tbl_scale --scales 0 --modes colo --json-out {json} --table-out {table}"
    ));
    for path in [&json, &table] {
        assert!(!std::path::Path::new(path).exists(), "{path} was written");
    }
}

/// Driven by `scalecheck-cli list`, so a new command is covered on
/// arrival.
#[test]
fn every_command_is_listed_once_and_rejects_what_it_does_not_declare() {
    let list = cli("list");
    assert!(list.status.success(), "list failed");
    let list = String::from_utf8(list.stdout).expect("list prints UTF-8");
    let listed: Vec<&str> = list.lines().filter_map(|l| l.split(' ').next()).collect();
    let declared: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    assert_eq!(listed, declared);

    for (i, command) in COMMANDS.iter().enumerate() {
        let name = command.name;
        assert!(!listed[..i].contains(&name), "{name} is listed twice");
        assert_usage_error(&format!("{name} --definitely-not-a-flag"));
        assert_usage_error(&format!("{name} stray positionals galore"));

        let help = cli(&format!("{name} --help"));
        assert_eq!(help.status.code(), Some(0), "{name} --help");
        let help = String::from_utf8_lossy(&help.stdout).into_owned();
        assert!(help.starts_with("usage:"), "{name} --help: {help}");

        // Positionals go first, so only the flag under test is wrong.
        let (flags, positionals): (Vec<_>, Vec<_>) =
            command.flags.iter().partition(|f| f.name.starts_with("--"));
        let base = positionals
            .iter()
            .fold(name.to_string(), |b, p| b + " " + p.name);
        for flag in flags {
            let flag_name = flag.name;
            assert!(help.contains(flag_name), "{name} --help omits {flag_name}");
            if flag.value.is_some() {
                assert_usage_error(&format!("{base} {flag_name}"));
                assert_usage_error(&format!("{base} {flag_name} 1 {flag_name} 1"));
            } else {
                assert_usage_error(&format!("{base} {flag_name} {flag_name}"));
            }
        }
    }
}

/// Parallel output must be byte-identical to serial: request logs,
/// histograms and flap counts must not depend on `--jobs`.
#[test]
fn sweeps_are_byte_identical_across_jobs() {
    for sweep in [FIG3, SLO] {
        let serial = cli(&format!("{sweep} --jobs 1"));
        assert!(serial.status.success(), "`{sweep} --jobs 1` failed");
        let parallel = cli(&format!("{sweep} --jobs 4"));
        assert!(parallel.status.success(), "`{sweep} --jobs 4` failed");
        assert_eq!(serial.stdout, parallel.stdout, "{sweep}");
        let table = String::from_utf8_lossy(&serial.stdout);
        // #Nodes is the first column of one table, the second of the other.
        let has_row = |n| {
            let is_row = |l: &str| l.split_whitespace().take(2).any(|w| w == n);
            table.lines().any(is_row)
        };
        let both = has_row("8") && has_row("12");
        assert!(both, "`{sweep}` must sweep both scales: {table}");
    }
}
