//! Hand-rolled argument parsing for the figure sweep (`all_figures`).

use crate::RunLengths;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage: all_figures [--quick] [--jobs N] [--figures figNN,figNN,...] [--no-traces]
                   [--telemetry] [--force]

  --quick          ~5x shorter warm-up/measurement windows (smoke runs)
  --jobs N, -j N   worker threads for the run pool
                   (default: the machine's available parallelism)
  --figures LIST   comma-separated figure subset (default: every figure)
  --no-traces      disable instruction-stream capture/replay (every run
                   generates its stream live; see also IPSIM_TRACE_DIR)
  --telemetry      collect interval samples and prefetch lifecycle events,
                   writing per-run artifacts under results/telemetry/
                   (see also IPSIM_TELEMETRY_DIR); results are unchanged
  --force          re-render every figure, bypassing the incremental
                   manifest (results/figures/manifest.tsv)
  --help           this text

  IPSIM_RUN_LENGTHS=WARM/MEASURE overrides the windows (beats --quick);
  the smoke hook CI and tests use to sweep with tiny instruction counts
";

/// Parsed harness arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Warm-up / measurement windows.
    pub lengths: RunLengths,
    /// Worker threads.
    pub workers: usize,
    /// Figure-subset filter (`--figures`).
    pub figures: Option<Vec<String>>,
    /// Whether to capture/replay instruction streams (`--no-traces`
    /// disables).
    pub traces: bool,
    /// Whether to collect telemetry and write per-run artifacts
    /// (`--telemetry` enables).
    pub telemetry: bool,
    /// Re-render every figure, bypassing the incremental manifest
    /// (`--force`).
    pub force: bool,
}

impl HarnessArgs {
    /// Parses an argument list (without the program name).
    pub fn parse<I, S>(args: I) -> Result<HarnessArgs, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = HarnessArgs {
            lengths: RunLengths::full(),
            workers: default_workers(),
            figures: None,
            traces: true,
            telemetry: false,
            force: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            match arg {
                "--quick" => out.lengths = RunLengths::quick(),
                "--no-traces" => out.traces = false,
                "--telemetry" => out.telemetry = true,
                "--force" => out.force = true,
                "--jobs" | "-j" => {
                    let v = args
                        .next()
                        .ok_or_else(|| format!("{arg} needs a value\n\n{USAGE}"))?;
                    out.workers = parse_workers(v.as_ref())?;
                }
                "--figures" => {
                    let v = args
                        .next()
                        .ok_or_else(|| format!("{arg} needs a value\n\n{USAGE}"))?;
                    out.figures = Some(parse_figures(v.as_ref())?);
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                _ => {
                    if let Some(v) = arg.strip_prefix("--jobs=") {
                        out.workers = parse_workers(v)?;
                    } else if let Some(v) = arg.strip_prefix("--figures=") {
                        out.figures = Some(parse_figures(v)?);
                    } else {
                        return Err(format!("unknown argument `{arg}`\n\n{USAGE}"));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with the usage text on error.
    /// `--help` prints the usage to stdout and exits 0.
    ///
    /// `$IPSIM_RUN_LENGTHS` (format `WARM/MEASURE`, instruction counts)
    /// overrides the windows last, beating `--quick`. This is the hook CI
    /// smoke sweeps and tests use to drive the real binaries with tiny
    /// windows.
    pub fn from_env_or_exit() -> HarnessArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let mut args = match HarnessArgs::parse(&argv) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        };
        match lengths_from_env() {
            Ok(Some(lengths)) => args.lengths = lengths,
            Ok(None) => {}
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
        args
    }
}

/// Environment variable overriding the run windows (`WARM/MEASURE`
/// instruction counts) for the figure sweep; see
/// [`HarnessArgs::from_env_or_exit`].
pub const LENGTHS_ENV: &str = "IPSIM_RUN_LENGTHS";

/// Parses a `WARM/MEASURE` lengths spec (e.g. `10000/20000`).
pub fn parse_lengths_spec(raw: &str) -> Result<RunLengths, String> {
    let err = || {
        format!(
            "{LENGTHS_ENV} must be WARM/MEASURE instruction counts \
             (e.g. 10000/20000), got `{raw}`"
        )
    };
    let (warm, measure) = raw.split_once('/').ok_or_else(err)?;
    let warm: u64 = warm.trim().parse().map_err(|_| err())?;
    let measure: u64 = measure.trim().parse().map_err(|_| err())?;
    if measure == 0 {
        return Err(err());
    }
    Ok(RunLengths { warm, measure })
}

/// The run-lengths override from `$IPSIM_RUN_LENGTHS`, if set and
/// non-empty. A malformed value is an error: a typo must not silently
/// run a multi-hour full-window sweep.
pub fn lengths_from_env() -> Result<Option<RunLengths>, String> {
    let Some(raw) = std::env::var_os(LENGTHS_ENV) else {
        return Ok(None);
    };
    let raw = raw.to_string_lossy();
    if raw.is_empty() {
        return Ok(None);
    }
    parse_lengths_spec(&raw).map(Some)
}

/// One worker per available hardware thread by default; the pool clamps to
/// the job count anyway.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse_workers(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "--jobs needs a positive integer, got `{v}`\n\n{USAGE}"
        )),
    }
}

/// A comma-separated figure list; blank items are dropped, and a list
/// with none left is an error rather than a sweep of zero figures.
fn parse_figures(v: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        return Err(format!(
            "--figures needs at least one figure name, got `{v}`\n\n{USAGE}"
        ));
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_flags() {
        let d = HarnessArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(d.lengths, RunLengths::full());
        assert!(d.workers >= 1);
        assert!(d.figures.is_none());
        assert!(d.traces);

        let t = HarnessArgs::parse(["--no-traces"]).unwrap();
        assert!(!t.traces);
        assert!(!t.telemetry);

        let tm = HarnessArgs::parse(["--telemetry"]).unwrap();
        assert!(tm.telemetry);

        let a = HarnessArgs::parse(["--quick", "--jobs", "4"]).unwrap();
        assert_eq!(a.lengths, RunLengths::quick());
        assert_eq!(a.workers, 4);

        let b = HarnessArgs::parse(["--jobs=8", "--figures=fig01, fig05"]).unwrap();
        assert_eq!(b.workers, 8);
        assert_eq!(
            b.figures,
            Some(vec!["fig01".to_string(), "fig05".to_string()])
        );

        let c = HarnessArgs::parse(["-j", "2"]).unwrap();
        assert_eq!(c.workers, 2);

        assert!(!d.force);
        assert!(HarnessArgs::parse(["--force"]).unwrap().force);
    }

    #[test]
    fn lengths_specs_parse_and_reject() {
        let l = parse_lengths_spec("10000/20000").unwrap();
        assert_eq!(l.warm, 10_000);
        assert_eq!(l.measure, 20_000);
        let zero_warm = parse_lengths_spec("0/500").unwrap();
        assert_eq!(zero_warm.warm, 0);
        for bad in ["", "10000", "10000/", "/20000", "a/b", "1000/0"] {
            assert!(parse_lengths_spec(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn errors_carry_usage() {
        for bad in [
            &["--jobs", "0"][..],
            &["--jobs", "x"],
            &["--wat"],
            &["--jobs"],
            &["--figures", ""],
            &["--figures", ","],
            &["--figures= , "],
            &["--shards", "2"],
            &["--shard-exec", "0/1"],
        ] {
            let err = HarnessArgs::parse(bad.iter().copied()).unwrap_err();
            assert!(err.contains("usage:"), "{err}");
        }
    }
}
