//! The one command line: `scalecheck-cli COMMAND [--flag [VALUE]]...`.
//!
//! Every paper artifact and diagnostic is a [`Command`] in
//! [`COMMANDS`]; its arguments are parsed once, here, against the flags
//! the command declares. Anything the declaration does not cover — an
//! unknown or repeated flag, a missing or malformed value, a stray
//! argument — is [`Failure::Usage`] (the generated usage text, exit 2),
//! never a silently different cell. Exit 1 is reserved for a command
//! that ran and [`Failure::Failed`].

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;

pub use crate::commands::COMMANDS;

/// One argument a command accepts. A `name` that starts with `--` is a
/// flag; any other is a required positional, filled in declared order.
pub struct Flag {
    pub name: &'static str,
    /// Placeholder of the flag's value in the usage text; `None` for a
    /// switch (and for positionals, whose `name` is the placeholder).
    pub value: Option<&'static str>,
    pub help: &'static str,
}

/// Declares a `--name VALUE` flag.
pub const fn val(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        help,
    }
}

/// Declares a bare `--name` switch, or a positional.
pub const fn bare(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        help,
    }
}

pub const JOBS: Flag = val("--jobs", "N", "sweep worker threads (default: all cores)");
pub const SEED: Flag = val("--seed", "N", "simulation seed (default 1)");
pub const BUG: Flag = val("--bug", "ID", "c3831|c3881|c5456|c6127 (default c3831)");

/// Why a command did not succeed.
#[derive(Debug)]
pub enum Failure {
    /// The command line is wrong: message and usage on stderr, exit 2.
    Usage(String),
    /// The command ran and a gate did not hold, or a file it was pointed
    /// at could not be read or written: message on stderr, exit 1.
    Failed(String),
}

/// Reads a file the command line named.
pub fn read_file(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::Failed(format!("cannot read {path}: {e}")))
}

/// Writes a file the command line named.
pub fn write_file(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), Failure> {
    std::fs::write(path, bytes).map_err(|e| Failure::Failed(format!("cannot write {path}: {e}")))
}

/// Creates `path` and has `write` fill it through a [`BufWriter`].
pub fn write_file_with(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), Failure> {
    let failed = |e: io::Error| Failure::Failed(format!("cannot write {path}: {e}"));
    let mut w = BufWriter::new(File::create(path).map_err(failed)?);
    write(&mut w).and_then(|()| w.flush()).map_err(failed)
}

/// One subcommand: a table, a figure or a diagnostic.
pub struct Command {
    pub name: &'static str,
    pub about: &'static str,
    pub flags: &'static [Flag],
    pub run: fn(&Args) -> Result<(), Failure>,
}

/// The usage text of one command, generated from its declaration.
pub fn usage(command: &Command) -> String {
    let mut synopsis = format!("usage: scalecheck-cli {}", command.name);
    let mut details = String::new();
    for f in command.flags {
        let shown = match f.value {
            Some(value) => format!("{} {value}", f.name),
            None => f.name.to_string(),
        };
        if f.name.starts_with("--") {
            synopsis += &format!(" [{shown}]");
        } else {
            synopsis += &format!(" {shown}");
        }
        details += &format!("  {shown:<22}{}\n", f.help);
    }
    format!("{synopsis}\n{}\n\n{details}", command.about)
}

/// A command's arguments, checked against its declared flags.
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `argv` (the words after the command name).
    pub fn parse(command: &'static Command, argv: &[String]) -> Result<Args, Failure> {
        let bad = |msg: String| Err(Failure::Usage(msg));
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut positionals = command.flags.iter().filter(|f| !f.name.starts_with("--"));
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let is_flag = word.starts_with("--");
            let declared = if is_flag {
                command.flags.iter().find(|f| f.name == word)
            } else {
                positionals.next()
            };
            let Some(flag) = declared else {
                let what = if is_flag {
                    "unknown flag"
                } else {
                    "unexpected argument"
                };
                return bad(format!("{what} '{word}'"));
            };
            if given.iter().any(|(name, _)| *name == flag.name) {
                return bad(format!("{word} given more than once"));
            }
            let value = match (is_flag, flag.value) {
                (false, _) => Some(word.clone()),
                (true, None) => None,
                (true, Some(_)) => match words.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return bad(format!("{word} expects a value")),
                },
            };
            given.push((flag.name, value));
        }
        if let Some(missing) = positionals.next() {
            return bad(format!("missing {}", missing.name));
        }
        Ok(Args { command, given })
    }

    fn find(&self, name: &str) -> Option<&Option<String>> {
        assert!(
            self.command.flags.iter().any(|f| f.name == name),
            "bug: `{}` reads {name} without declaring it",
            self.command.name
        );
        let hit = self.given.iter().find(|(given, _)| *given == name);
        hit.map(|(_, value)| value)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// The raw value of `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.find(name)?.as_deref()
    }

    /// The value of `name` as a `T`: `Ok(None)` if absent, a usage
    /// failure if malformed.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, Failure> {
        let parse = |raw: &str| {
            let bad = || Failure::Usage(format!("{name} got invalid value '{raw}'"));
            raw.parse().map_err(|_| bad())
        };
        self.value(name).map(parse).transpose()
    }

    /// The comma-separated value of `name` as a list of `T`.
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, Failure> {
        let parse = |x: &str| {
            let bad = || Failure::Usage(format!("{name} got invalid element '{}'", x.trim()));
            x.trim().parse().map_err(|_| bad())
        };
        let split = |raw: &str| raw.split(',').map(parse).collect();
        self.value(name).map(split).transpose()
    }

    /// The value of `name` as a cluster size: 0 is malformed, since a
    /// cluster of no nodes "runs" and reports nothing.
    pub fn size(&self, name: &str) -> Result<Option<usize>, Failure> {
        Ok(self.get::<NonZeroUsize>(name)?.map(NonZeroUsize::get))
    }

    /// The comma-separated value of `name` as cluster sizes (see
    /// [`Self::size`]).
    pub fn sizes(&self, name: &str) -> Result<Option<Vec<usize>>, Failure> {
        let sizes = self.list::<NonZeroUsize>(name)?;
        Ok(sizes.map(|v| v.into_iter().map(NonZeroUsize::get).collect()))
    }
}

/// `scalecheck-cli`'s `main`: dispatches `std::env::args` over
/// [`COMMANDS`].
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let overview = || {
        format!(
            "usage: scalecheck-cli COMMAND [--flag [VALUE]]...\n       \
             scalecheck-cli COMMAND --help\n\ncommands:\n{}",
            crate::commands::list::render()
        )
    };
    let command = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == *name));
    let help = argv.iter().any(|a| a == "--help");
    let outcome = match (command, argv.first()) {
        (Some(command), _) if help => {
            print!("{}", usage(command));
            Ok(())
        }
        (Some(command), _) => Args::parse(command, &argv[1..]).and_then(|a| (command.run)(&a)),
        (None, Some(first)) if first == "--help" => {
            print!("{}", overview());
            Ok(())
        }
        (None, Some(name)) => Err(Failure::Usage(format!("unknown command '{name}'"))),
        (None, None) => Err(Failure::Usage("missing command".into())),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Failed(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprint!("{}", command.map_or_else(overview, usage));
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: Command = Command {
        name: "demo",
        about: "a command for the parser tests",
        flags: &[
            val("--nodes", "N", "cluster size"),
            val("--scales", "N,N..", "cluster sizes"),
            bare("--smoke", "CI mode"),
            bare("TRACE", "a trace file"),
        ],
        run: |_| Ok(()),
    };

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split(' ').map(str::to_string).collect();
        Args::parse(&DEMO, &argv).map_err(|e| match e {
            Failure::Usage(msg) => msg,
            Failure::Failed(msg) => panic!("parsing cannot fail a gate: {msg}"),
        })
    }

    #[test]
    fn declared_arguments_parse_in_any_order() {
        let args = parse("--smoke t.json --scales 32,\t64,128 --nodes -3").expect("all declared");
        assert!(args.has("--smoke"));
        assert_eq!(args.value("TRACE"), Some("t.json"));
        let scales = args.list::<usize>("--scales");
        assert_eq!(scales.unwrap(), Some(vec![32, 64, 128]));
        assert_eq!(args.get::<i64>("--nodes").unwrap(), Some(-3));
        // Present but malformed is an error, absent is None.
        let malformed = args.get::<usize>("--nodes");
        assert!(matches!(malformed, Err(Failure::Usage(_))));
        let absent = parse("t.json").expect("flags are optional");
        assert!(!absent.has("--smoke"));
        assert_eq!(absent.get::<usize>("--nodes").unwrap(), None);
        assert_eq!(absent.list::<usize>("--scales").unwrap(), None);
    }

    #[test]
    fn everything_undeclared_is_a_usage_error() {
        let err = |line: &str| parse(line).err().expect("must be rejected");
        assert!(err("t.json --node 3").contains("unknown flag '--node'"));
        assert!(err("t.json --nodes 3 --nodes 4").contains("more than once"));
        assert!(err("t.json --smoke --smoke").contains("more than once"));
        assert!(err("t.json --nodes").contains("--nodes expects a value"));
        assert!(err("t.json --nodes --smoke").contains("--nodes expects a value"));
        assert!(err("t.json u.json").contains("unexpected argument 'u.json'"));
        assert!(err("--smoke").contains("missing TRACE"));
    }

    #[test]
    #[should_panic(expected = "reads --seed without declaring it")]
    fn reading_an_undeclared_flag_is_a_bug_not_an_absence() {
        parse("t.json").expect("parses").has("--seed");
    }

    /// Every `"--flag"` literal in a command's source file is a flag it
    /// reads, so it must be one the command declares: otherwise the
    /// parser rejects it before `run` can see it.
    #[test]
    fn every_flag_a_command_reads_is_declared() {
        for command in COMMANDS {
            let dir = env!("CARGO_MANIFEST_DIR");
            let path = format!("{dir}/src/commands/{}.rs", command.name);
            let source = std::fs::read_to_string(&path).expect("one file per command");
            for rest in source.split("\"--").skip(1) {
                let Some((name, _)) = rest.split_once('"') else {
                    continue;
                };
                let is_name = name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-');
                let declared = |f: &Flag| f.name.strip_prefix("--") == Some(name);
                assert!(
                    !is_name || command.flags.iter().any(declared),
                    "{path} reads --{name}, which `{}` does not declare",
                    command.name
                );
            }
        }
    }
}
