//! Command-line handling shared by the bench binaries: `--help` prints
//! the usage line and exits 0; a bad invocation (unknown flag, missing
//! or malformed value) prints the error and the usage line and exits 2.

use std::fmt::Display;
use std::str::FromStr;

/// Flag-by-flag reader over the process arguments.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    args: std::iter::Skip<std::env::Args>,
}

impl Cli {
    /// Reads the process arguments (after the program name).
    pub fn new(usage: &'static str) -> Cli {
        Cli { usage, args: std::env::args().skip(1) }
    }

    /// The next argument; `--help`/`-h` print the usage line and exit 0.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }

    /// Prints `msg` and the usage line, then exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("error: {msg}\n{}", self.usage);
        std::process::exit(2);
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| self.fail(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        self.parse(flag, &raw)
    }

    /// The comma-separated list following `flag` (blank entries dropped).
    pub fn list(&mut self, flag: &str) -> Vec<String> {
        parse_list(&self.value(flag))
    }

    /// The comma-separated list following `flag`, each entry parsed.
    pub fn parsed_list<T: FromStr>(&mut self, flag: &str) -> Vec<T> {
        self.list(flag).iter().map(|raw| self.parse(flag, raw)).collect()
    }

    /// `raw` parsed; `what` names it in the error.
    pub fn parse<T: FromStr>(&self, what: &str, raw: &str) -> T {
        raw.parse().unwrap_or_else(|_| self.fail(format!("{what}: cannot parse `{raw}`")))
    }
}

/// Splits a comma-separated list, trimming entries and dropping blanks.
fn parse_list(arg: &str) -> Vec<String> {
    arg.split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect()
}
