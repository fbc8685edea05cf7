//! `scalecheck-cli` — the one command line of the reproduction. Every
//! figure, table and diagnostic is a command of
//! [`scalecheck_bench::cli::COMMANDS`]; `scalecheck-cli list` names them.

fn main() -> std::process::ExitCode {
    scalecheck_bench::cli::main()
}
