//! Shared command-line parsing for the experiment binaries.
//!
//! Every `exp_*` binary accepts the same surface:
//!
//! ```text
//! exp_<name> [tiny|small|full] [--csv] [--threads N] [--no-cache]
//! ```
//!
//! `exp_all` adds `--expect-cached` ([`parse_suite`]).
//! Unknown arguments are an error (usage on stderr, exit code 2) — a typo
//! must not silently fall back to the default scale.

use crate::planner::EXIT_USAGE;
use crate::runner::default_threads;
use ehs_workloads::Scale;

/// Options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Workload scale (positional `tiny` / `small` / `full`; default small).
    pub scale: Scale,
    /// Worker threads (`--threads N`; default all-but-one hardware thread).
    pub threads: usize,
    /// Emit CSV instead of the rendered table (`--csv`).
    pub csv: bool,
    /// Skip installing the persistent result cache (`--no-cache`).
    pub no_cache: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            threads: default_threads(),
            csv: false,
            no_cache: false,
        }
    }
}

/// A parse failure (or an explicit `--help` request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h`: print usage on stdout and exit 0.
    Help,
    /// Anything unparseable: print the message + usage on stderr, exit 2.
    Invalid(String),
}

/// The usage line for binary `name`.
pub fn usage(name: &str) -> String {
    format!("usage: {name} [tiny|small|full] [--csv] [--threads N] [--no-cache]")
}

/// Parses an argument list (without the leading program name).
pub fn parse<I>(args: I) -> Result<CliOptions, CliError>
where
    I: IntoIterator,
    I::Item: Into<String>,
{
    let mut opts = CliOptions::default();
    let mut args = args.into_iter().map(Into::into);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "tiny" => opts.scale = Scale::Tiny,
            "small" => opts.scale = Scale::Small,
            "full" => opts.scale = Scale::Full,
            "--csv" => opts.csv = true,
            "--no-cache" => opts.no_cache = true,
            "--threads" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::Invalid("--threads needs a value".into()))?;
                opts.threads =
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            CliError::Invalid(format!(
                                "--threads needs a positive integer, got {value:?}"
                            ))
                        })?;
            }
            "--help" | "-h" => return Err(CliError::Help),
            other => {
                return Err(CliError::Invalid(format!("unknown argument {other:?}")));
            }
        }
    }
    Ok(opts)
}

/// The full `exp_all` option surface: the shared [`CliOptions`] plus the
/// suite's check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteOptions {
    /// The options every experiment binary shares.
    pub cli: CliOptions,
    /// `--expect-cached`: fail unless the run was a pure cache replay.
    pub expect_cached: bool,
}

/// The usage line for `exp_all`.
pub fn suite_usage() -> String {
    format!("{} [--expect-cached]", usage("exp_all"))
}

/// Parses the `exp_all` argument list (without the leading program name):
/// the flag documented on [`SuiteOptions`], with everything else
/// delegated to [`parse`].
pub fn parse_suite<I>(args: I) -> Result<SuiteOptions, CliError>
where
    I: IntoIterator,
    I::Item: Into<String>,
{
    let mut rest: Vec<String> = Vec::new();
    let mut expect_cached = false;
    for arg in args.into_iter().map(Into::into) {
        match arg.as_str() {
            "--expect-cached" => expect_cached = true,
            _ => rest.push(arg),
        }
    }
    Ok(SuiteOptions {
        cli: parse(rest)?,
        expect_cached,
    })
}

/// Parses [`std::env::args`] with `parse` ([`parse`] or [`parse_suite`]);
/// prints `usage` and exits on `--help` (code 0) or any invalid argument
/// (code 2).
pub fn parse_or_exit<T>(
    usage: &str,
    parse: impl FnOnce(std::iter::Skip<std::env::Args>) -> Result<T, CliError>,
) -> T {
    match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(CliError::Help) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(CliError::Invalid(msg)) => {
            eprintln!("{msg}");
            eprintln!("{usage}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_experiment_defaults() {
        let opts = parse(Vec::<String>::new()).unwrap();
        assert_eq!(opts.scale, Scale::Small);
        assert_eq!(opts.threads, default_threads());
        assert!(!opts.csv);
        assert!(!opts.no_cache);
    }

    #[test]
    fn parses_every_flag() {
        let opts = parse(["tiny", "--csv", "--threads", "3", "--no-cache"]).unwrap();
        assert_eq!(opts.scale, Scale::Tiny);
        assert_eq!(opts.threads, 3);
        assert!(opts.csv);
        assert!(opts.no_cache);
    }

    #[test]
    fn last_scale_wins() {
        let opts = parse(["tiny", "full"]).unwrap();
        assert_eq!(opts.scale, Scale::Full);
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(matches!(parse(["smol"]), Err(CliError::Invalid(_))));
        assert!(matches!(parse(["--jobs", "4"]), Err(CliError::Invalid(_))));
    }

    #[test]
    fn rejects_bad_thread_counts() {
        assert!(matches!(parse(["--threads"]), Err(CliError::Invalid(_))));
        assert!(matches!(
            parse(["--threads", "0"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            parse(["--threads", "x"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn help_is_not_an_error_message() {
        assert_eq!(parse(["--help"]), Err(CliError::Help));
        assert_eq!(parse(["-h"]), Err(CliError::Help));
    }

    #[test]
    fn suite_parses_its_check() {
        let opts = parse_suite(["tiny"]).unwrap();
        assert_eq!(opts.cli.scale, Scale::Tiny);
        assert!(!opts.expect_cached);
        let opts = parse_suite(["--expect-cached", "--csv"]).unwrap();
        assert!(opts.expect_cached && opts.cli.csv);
    }

    #[test]
    fn suite_rejects_the_removed_fleet_flags() {
        for args in [
            &["--worker"][..],
            &["--finalize"],
            &["--wait", "5"],
            &["--verify", "ref"],
            &["--max-retries", "0"],
            &["--expect-resumable"],
            &["--bogus"],
        ] {
            assert!(
                matches!(parse_suite(args.iter().copied()), Err(CliError::Invalid(_))),
                "{args:?} must be rejected"
            );
        }
    }
}
