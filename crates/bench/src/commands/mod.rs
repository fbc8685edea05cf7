//! One module per `scalecheck-cli` command: its `COMMAND` declaration
//! (name, flags) next to the `run` that reads them.

use crate::cli::Command;

macro_rules! commands {
    ($($module:ident),* $(,)?) => {
        $(pub mod $module;)*

        /// The command table — `scalecheck-cli list` prints it, and
        /// README, DESIGN.md and `scripts/run_experiments.sh` point here.
        pub const COMMANDS: &[Command] = &[$($module::COMMAND),*];
    };
}

commands![
    fig1_testtime,
    fig3_flaps,
    tbl_baselines,
    tbl_bugstudy,
    tbl_colocation_limit,
    tbl_complexity,
    tbl_diverge,
    tbl_faults,
    tbl_finder,
    tbl_fix_ablation,
    tbl_memo_vs_replay,
    tbl_memory,
    tbl_scale,
    tbl_slo,
    tbl_statespace,
    ext_hdfs,
    explore,
    run,
    diverge,
    memoize,
    replay,
    list,
];
