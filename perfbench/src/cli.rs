//! Command-line parsing. Every malformed input is rejected with a named
//! error; nothing falls back to a default silently.

use crate::workloads::{Size, WorkloadId};
use std::fmt;
use std::path::PathBuf;

/// The repository's canonical run seed.
pub const DEFAULT_SEED: u64 = 0xa5_2017;

/// Seconds measured per run when `--seconds` is absent.
pub const DEFAULT_SECONDS: u64 = 30;

/// Longest run `--seconds` accepts.
pub const MAX_SECONDS: u64 = 3600;

/// One measured run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its raw spans (JSON lines), if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// One measuring process of an untraced run (`measure`): how a run starts
/// the processes it measures in.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    pub size: Size,
}

/// Interleaved A/B sets of untraced runs of every workload at full size,
/// for judging steadiness.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyArgs {
    /// Runs per set and workload; round `r` uses seed `seed + r`.
    pub rounds: u64,
    pub seed: u64,
    pub seconds: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Measure(MeasureArgs),
    Steady(SteadyArgs),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    MissingWorkload,
    UnknownWorkload(String),
    BadSeed(String),
    BadSeconds(String),
    BadTrace(String),
    BadSize(String),
    BadRounds(String),
    TraceOutWithoutTrace,
    MissingValue(String),
    UnknownFlag(String),
    RepeatedFlag(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingWorkload => write!(
                f,
                "MissingWorkload: --workload is required (one of {})",
                WorkloadId::names()
            ),
            CliError::UnknownWorkload(w) => write!(
                f,
                "UnknownWorkload: `{w}` is not a workload (one of {})",
                WorkloadId::names()
            ),
            CliError::BadSeed(s) => write!(
                f,
                "BadSeed: `{s}` is not a u64 (decimal, or hex with a 0x prefix; `_` separators allowed)"
            ),
            CliError::BadSeconds(s) => {
                write!(f, "BadSeconds: `{s}` is not a whole number in 1..={MAX_SECONDS}")
            }
            CliError::BadTrace(s) => write!(f, "BadTrace: `{s}` is not 0 or 1"),
            CliError::BadSize(s) => write!(f, "BadSize: `{s}` is not `full` or `tiny`"),
            CliError::BadRounds(s) => write!(f, "BadRounds: `{s}` is not a whole number in 1..=100"),
            CliError::TraceOutWithoutTrace => {
                write!(f, "TraceOutWithoutTrace: --trace-out needs --trace 1")
            }
            CliError::MissingValue(flag) => write!(f, "MissingValue: {flag} needs a value"),
            CliError::UnknownFlag(flag) => write!(f, "UnknownFlag: `{flag}`"),
            CliError::RepeatedFlag(flag) => write!(f, "RepeatedFlag: {flag} given twice"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses a seed: decimal, or hexadecimal after `0x`, with optional `_`
/// digit separators (so the canonical `0xa5_2017` reads as written).
pub fn parse_seed(s: &str) -> Result<u64, CliError> {
    let bad = || CliError::BadSeed(s.to_string());
    let digits: String = s.chars().filter(|&c| c != '_').collect();
    if digits.is_empty() || s.starts_with('_') || s.ends_with('_') {
        return Err(bad());
    }
    let parsed = match digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        Some(hex) if !hex.is_empty() && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16)
        }
        Some(_) => return Err(bad()),
        None if digits.bytes().all(|b| b.is_ascii_digit()) => digits.parse(),
        None => return Err(bad()),
    };
    parsed.map_err(|_| bad())
}

fn parse_seconds(s: &str) -> Result<u64, CliError> {
    count_in(s, MAX_SECONDS).ok_or_else(|| CliError::BadSeconds(s.to_string()))
}

fn parse_trace(s: &str) -> Result<bool, CliError> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(CliError::BadTrace(s.to_string())),
    }
}

fn parse_size(s: &str) -> Result<Size, CliError> {
    [Size::Full, Size::Tiny]
        .into_iter()
        .find(|z| z.name() == s)
        .ok_or_else(|| CliError::BadSize(s.to_string()))
}

fn parse_workload(s: &str) -> Result<WorkloadId, CliError> {
    WorkloadId::parse(s).ok_or_else(|| CliError::UnknownWorkload(s.to_string()))
}

/// A whole number in `1..=max`, digits only.
fn count_in(s: &str, max: u64) -> Option<u64> {
    match s.parse::<u64>() {
        Ok(n) if (1..=max).contains(&n) && s.bytes().all(|b| b.is_ascii_digit()) => Some(n),
        _ => None,
    }
}

fn parse_rounds(s: &str) -> Result<u64, CliError> {
    count_in(s, 100).ok_or_else(|| CliError::BadRounds(s.to_string()))
}

/// Flag/value pairs, each flag at most once.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Splits `args` into flag/value pairs, accepting only `known` flags.
    fn parse(args: &[String], known: &[&str]) -> Result<Self, CliError> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") || !known.contains(&flag.as_str()) {
                return Err(CliError::UnknownFlag(flag.clone()));
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::MissingValue(flag.clone()))?;
            if pairs.iter().any(|(f, _)| f == flag) {
                return Err(CliError::RepeatedFlag(flag.clone()));
            }
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Self { pairs })
    }

    fn one(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn workload(&self) -> Result<WorkloadId, CliError> {
        parse_workload(self.one("--workload").ok_or(CliError::MissingWorkload)?)
    }

    fn seed(&self) -> Result<u64, CliError> {
        or_default(self.one("--seed"), DEFAULT_SEED, parse_seed)
    }

    fn seconds(&self) -> Result<u64, CliError> {
        or_default(self.one("--seconds"), DEFAULT_SECONDS, parse_seconds)
    }

    fn size(&self) -> Result<Size, CliError> {
        or_default(self.one("--size"), Size::Full, parse_size)
    }
}

fn or_default<T>(
    value: Option<&str>,
    default: T,
    parse: fn(&str) -> Result<T, CliError>,
) -> Result<T, CliError> {
    value.map_or(Ok(default), parse)
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    match args.first().map(String::as_str) {
        Some("steady") => {
            let flags = Flags::parse(&args[1..], &["--rounds", "--seed", "--seconds"])?;
            Ok(Command::Steady(SteadyArgs {
                rounds: or_default(flags.one("--rounds"), 5, parse_rounds)?,
                seed: flags.seed()?,
                seconds: flags.seconds()?,
            }))
        }
        Some("measure") => {
            let flags = Flags::parse(&args[1..], &["--workload", "--seed", "--size"])?;
            Ok(Command::Measure(MeasureArgs {
                workload: flags.workload()?,
                seed: flags.seed()?,
                size: flags.size()?,
            }))
        }
        _ => {
            let flags = Flags::parse(
                args,
                &[
                    "--workload",
                    "--seed",
                    "--seconds",
                    "--trace",
                    "--size",
                    "--trace-out",
                ],
            )?;
            let trace = or_default(flags.one("--trace"), false, parse_trace)?;
            let trace_out = flags.one("--trace-out").map(PathBuf::from);
            if trace_out.is_some() && !trace {
                return Err(CliError::TraceOutWithoutTrace);
            }
            Ok(Command::Run(RunArgs {
                workload: flags.workload()?,
                seed: flags.seed()?,
                seconds: flags.seconds()?,
                trace,
                size: flags.size()?,
                trace_out,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("0xa5_2017"), Ok(DEFAULT_SEED));
        assert_eq!(parse_seed("10821655"), Ok(DEFAULT_SEED));
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in [
            "",
            "-1",
            "abc",
            "0x",
            "0xg1",
            "1.5",
            "_1",
            "1_",
            " 7",
            "18446744073709551616",
        ] {
            assert_eq!(
                parse_seed(bad),
                Err(CliError::BadSeed(bad.into())),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn a_full_run_command_parses() {
        let cmd = parse(&args(
            "--workload tpcc_scan --seed 7 --seconds 10 --trace 1 --size tiny --trace-out s.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: WorkloadId::TpccScan,
                seed: 7,
                seconds: 10,
                trace: true,
                size: Size::Tiny,
                trace_out: Some(PathBuf::from("s.jsonl")),
            })
        );
    }

    #[test]
    fn defaults_apply_only_to_absent_flags() {
        let Command::Run(run) = parse(&args("--workload fleet_sharded")).unwrap() else {
            panic!("not a run");
        };
        assert_eq!(run.seed, DEFAULT_SEED);
        assert_eq!(run.seconds, DEFAULT_SECONDS);
        assert!(!run.trace);
        assert_eq!(run.size, Size::Full);
        assert_eq!(run.trace_out, None);
    }

    #[test]
    fn the_subcommands_parse() {
        assert_eq!(
            parse(&args(
                "measure --workload storm_cosched --seed 3 --size tiny"
            )),
            Ok(Command::Measure(MeasureArgs {
                workload: WorkloadId::StormCosched,
                seed: 3,
                size: Size::Tiny,
            }))
        );
        assert_eq!(
            parse(&args("steady --rounds 3 --seconds 9")),
            Ok(Command::Steady(SteadyArgs {
                rounds: 3,
                seed: DEFAULT_SEED,
                seconds: 9,
            }))
        );
    }

    #[test]
    fn malformed_inputs_are_named_errors() {
        let cases = [
            ("--seed 1", CliError::MissingWorkload),
            ("--workload nope", CliError::UnknownWorkload("nope".into())),
            (
                "--workload tpcc_scan --seed x1",
                CliError::BadSeed("x1".into()),
            ),
            (
                "--workload tpcc_scan --seconds 0",
                CliError::BadSeconds("0".into()),
            ),
            (
                "--workload tpcc_scan --seconds +5",
                CliError::BadSeconds("+5".into()),
            ),
            (
                "--workload tpcc_scan --trace 2",
                CliError::BadTrace("2".into()),
            ),
            (
                "--workload tpcc_scan --size huge",
                CliError::BadSize("huge".into()),
            ),
            (
                "--workload tpcc_scan --seed",
                CliError::MissingValue("--seed".into()),
            ),
            (
                "--workload tpcc_scan --bogus 1",
                CliError::UnknownFlag("--bogus".into()),
            ),
            (
                "--workload tpcc_scan stray",
                CliError::UnknownFlag("stray".into()),
            ),
            (
                "--workload tpcc_scan --workload fleet_sharded",
                CliError::RepeatedFlag("--workload".into()),
            ),
            (
                "--workload tpcc_scan --trace-out s.jsonl",
                CliError::TraceOutWithoutTrace,
            ),
            (
                "--workload tpcc_scan --trace 0 --trace-out s.jsonl",
                CliError::TraceOutWithoutTrace,
            ),
            ("measure --seed 1", CliError::MissingWorkload),
            (
                "measure --workload tpcc_scan --trace 1",
                CliError::UnknownFlag("--trace".into()),
            ),
            (
                "measure --workload tpcc_scan --seconds 5",
                CliError::UnknownFlag("--seconds".into()),
            ),
            ("steady --rounds 0", CliError::BadRounds("0".into())),
            ("steady --trace 1", CliError::UnknownFlag("--trace".into())),
            (
                "steady --workload tpcc_scan",
                CliError::UnknownFlag("--workload".into()),
            ),
            ("steady --size tiny", CliError::UnknownFlag("--size".into())),
        ];
        for (line, want) in cases {
            assert_eq!(parse(&args(line)), Err(want), "{line}");
        }
    }
}
