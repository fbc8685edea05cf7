//! The command table, one `name  about` line per command.

use crate::cli::{Args, Command, Failure};

pub const COMMAND: Command = Command {
    name: "list",
    about: "every command with its one-line description",
    flags: &[],
    run,
};

fn run(_: &Args) -> Result<(), Failure> {
    print!("{}", render());
    Ok(())
}

pub fn render() -> String {
    let line = |c: &Command| format!("{:<22}{}\n", c.name, c.about);
    super::COMMANDS.iter().map(line).collect()
}
