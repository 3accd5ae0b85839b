//! Shared command-line parsing for the experiment binaries.
//!
//! Every `exp_*` binary accepts the same surface:
//!
//! ```text
//! exp_<name> [tiny|small|full] [--csv] [--threads N] [--no-cache]
//! ```
//!
//! Unknown arguments are an error (usage on stderr, exit code 2) — a typo
//! must not silently fall back to the default scale.

use crate::experiments::ExperimentOptions;
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

impl CliOptions {
    /// The experiment-layer view of these options.
    pub fn experiment_options(&self) -> ExperimentOptions {
        ExperimentOptions {
            scale: self.scale,
            threads: self.threads,
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

/// How a `exp_all` invocation participates in a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetMode {
    /// Plan, run and report everything in this one process (the historical
    /// behavior). Compacts the shared journal at startup.
    Coordinator,
    /// Produce the deduplicated job set into the shared cache directory,
    /// writing no figures (`--worker`).
    Worker,
    /// Wait for the job set to be complete in the shared directory, then
    /// render and verify every figure (`--finalize`).
    Finalize,
}

/// The full `exp_all` option surface: the shared [`CliOptions`] plus the
/// fleet-mode flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteOptions {
    /// The options every experiment binary shares.
    pub cli: CliOptions,
    /// Fleet participation mode.
    pub mode: FleetMode,
    /// `--expect-cached`: fail unless the run was a pure cache replay.
    pub expect_cached: bool,
    /// `--expect-resumable`: fail if a journaled job re-simulated.
    pub expect_resumable: bool,
    /// `--wait SECS`: how long `--finalize` waits for completeness.
    pub wait: std::time::Duration,
    /// `--verify DIR`: reference directory for per-figure byte comparison.
    pub verify: Option<std::path::PathBuf>,
    /// `--max-retries N`: retry bound for `--worker`'s lease and store
    /// failures.
    pub max_retries: Option<u32>,
}

/// The usage line for `exp_all`.
pub fn suite_usage() -> String {
    format!(
        "{}\n       exp_all [scale] --worker | --finalize [--wait SECS] [--verify DIR] \
         [--max-retries N] [--expect-cached] [--expect-resumable]",
        usage("exp_all")
    )
}

/// Parses the `exp_all` argument list (without the leading program name):
/// the fleet flags documented on [`SuiteOptions`], with everything else
/// delegated to [`parse`].
pub fn parse_suite<I>(args: I) -> Result<SuiteOptions, CliError>
where
    I: IntoIterator,
    I::Item: Into<String>,
{
    let mut rest: Vec<String> = Vec::new();
    let mut worker = false;
    let mut finalize = false;
    let mut expect_cached = false;
    let mut expect_resumable = false;
    let mut wait = std::time::Duration::from_secs(60);
    let mut verify = None;
    let mut max_retries = None;
    let mut args = args.into_iter().map(Into::into);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .ok_or_else(|| CliError::Invalid(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--worker" => worker = true,
            "--finalize" => finalize = true,
            "--expect-cached" => expect_cached = true,
            "--expect-resumable" => expect_resumable = true,
            "--wait" => {
                let value = value_of("--wait")?;
                wait = value
                    .parse::<u64>()
                    .ok()
                    .map(std::time::Duration::from_secs)
                    .ok_or_else(|| {
                        CliError::Invalid(format!("--wait needs whole seconds, got {value:?}"))
                    })?;
            }
            "--verify" => verify = Some(std::path::PathBuf::from(value_of("--verify")?)),
            "--max-retries" => {
                let value = value_of("--max-retries")?;
                max_retries = Some(value.parse::<u32>().map_err(|_| {
                    CliError::Invalid(format!(
                        "--max-retries needs a non-negative integer, got {value:?}"
                    ))
                })?);
            }
            _ => rest.push(arg),
        }
    }
    let mode = match (worker, finalize) {
        (true, true) => {
            return Err(CliError::Invalid(
                "--finalize cannot combine with --worker".into(),
            ))
        }
        (true, false) => FleetMode::Worker,
        (false, true) => FleetMode::Finalize,
        (false, false) => FleetMode::Coordinator,
    };
    Ok(SuiteOptions {
        cli: parse(rest)?,
        mode,
        expect_cached,
        expect_resumable,
        wait,
        verify,
        max_retries,
    })
}

/// Parses [`std::env::args`] for binary `name`; prints usage and exits on
/// `--help` (code 0) or any invalid argument (code 2).
pub fn parse_or_exit(name: &str) -> CliOptions {
    match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(CliError::Help) => {
            println!("{}", usage(name));
            std::process::exit(0);
        }
        Err(CliError::Invalid(msg)) => {
            eprintln!("{msg}");
            eprintln!("{}", usage(name));
            std::process::exit(2);
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
    fn suite_defaults_to_coordinator_mode() {
        let opts = parse_suite(["tiny"]).unwrap();
        assert_eq!(opts.mode, FleetMode::Coordinator);
        assert_eq!(opts.cli.scale, Scale::Tiny);
        assert!(!opts.expect_cached && !opts.expect_resumable);
        assert_eq!(opts.wait, std::time::Duration::from_secs(60));
        assert_eq!(opts.verify, None);
        assert_eq!(opts.max_retries, None);
    }

    #[test]
    fn suite_parses_fleet_modes() {
        assert_eq!(parse_suite(["--worker"]).unwrap().mode, FleetMode::Worker);
        let fin = parse_suite(["--finalize", "--wait", "5", "--verify", "/tmp/ref"]).unwrap();
        assert_eq!(fin.mode, FleetMode::Finalize);
        assert_eq!(fin.wait, std::time::Duration::from_secs(5));
        assert_eq!(fin.verify, Some(std::path::PathBuf::from("/tmp/ref")));
        let retried = parse_suite(["--worker", "--max-retries", "0"]).unwrap();
        assert_eq!(retried.max_retries, Some(0));
    }

    #[test]
    fn suite_rejects_bad_fleet_flags() {
        assert!(matches!(
            parse_suite(["--finalize", "--worker"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(parse_suite(["--wait"]), Err(CliError::Invalid(_))));
        // Unknown arguments still fall through to the shared parser.
        assert!(matches!(
            parse_suite(["--bogus"]),
            Err(CliError::Invalid(_))
        ));
    }
}
