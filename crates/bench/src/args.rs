//! Minimal command-line argument handling shared by all experiment
//! binaries.
//!
//! Every binary accepts:
//!
//! * `--scale <f64>`   — dataset scale factor (default 0.5; 1.0 doubles
//!   users/items/interactions),
//! * `--seed <u64>`    — base RNG seed,
//! * `--quick`         — shrink everything hard for smoke runs,
//! * `--levels <usize>` — hierarchy depth override where applicable.
//!
//! Malformed input is a *usage error*: [`ExpArgs::parse`] prints the
//! problem and the usage line to stderr and exits with status 2 (the
//! conventional "bad invocation" code), never panicking with a
//! backtrace at the user.

/// The usage line shown by `--help` and on every usage error.
pub(crate) const USAGE: &str = "usage: <bin> [--scale F] [--seed N] [--levels L] [--quick]";

/// Parsed experiment arguments.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Dataset scale factor.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Smoke-test mode.
    pub quick: bool,
    /// Optional hierarchy-depth override.
    pub levels: Option<usize>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs { scale: 0.5, seed: 2020, quick: false, levels: None }
    }
}

impl ExpArgs {
    /// Parses `std::env::args()`. On malformed input, prints the error
    /// and usage to stderr and exits with status 2; `--help` prints
    /// usage and exits 0.
    pub fn parse() -> Self {
        match Self::try_from_iter(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(Help) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
        }
        .unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses from an explicit iterator without any process side
    /// effects. `Err(Help)` means `--help`/`-h` was given; the inner
    /// `Result` carries either the parsed arguments or a one-line
    /// description of the usage error.
    pub(crate) fn try_from_iter(
        args: impl IntoIterator<Item = String>,
    ) -> Result<Result<Self, String>, Help> {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => match value(&mut it, "--scale") {
                    Ok(v) => match v.parse::<f64>() {
                        Ok(s) if s.is_finite() && s > 0.0 => out.scale = s,
                        Ok(s) => {
                            return Ok(Err(format!(
                                "--scale must be a positive finite number, got `{s}`"
                            )))
                        }
                        Err(_) => {
                            return Ok(Err(format!("--scale needs a float, got `{v}`")))
                        }
                    },
                    Err(e) => return Ok(Err(e)),
                },
                "--seed" => match value(&mut it, "--seed") {
                    Ok(v) => match v.parse::<u64>() {
                        Ok(s) => out.seed = s,
                        Err(_) => {
                            return Ok(Err(format!(
                                "--seed needs a non-negative integer, got `{v}`"
                            )))
                        }
                    },
                    Err(e) => return Ok(Err(e)),
                },
                "--levels" => match value(&mut it, "--levels") {
                    Ok(v) => match v.parse::<usize>() {
                        Ok(l) if l > 0 => out.levels = Some(l),
                        Ok(_) => return Ok(Err("--levels must be at least 1".to_string())),
                        Err(_) => {
                            return Ok(Err(format!(
                                "--levels needs a positive integer, got `{v}`"
                            )))
                        }
                    },
                    Err(e) => return Ok(Err(e)),
                },
                "--quick" => out.quick = true,
                "--help" | "-h" => return Err(Help),
                other => return Ok(Err(format!("unknown argument `{other}`"))),
            }
        }
        if out.quick {
            out.scale = out.scale.min(0.1);
        }
        Ok(Ok(out))
    }
}

/// Marker for `--help`: not an error, but not parsed arguments either.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Help;

/// Pulls the value following a flag, or reports the flag as dangling.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Result<ExpArgs, String>, Help> {
        ExpArgs::try_from_iter(args.iter().map(|s| s.to_string()))
    }

    fn ok(args: &[&str]) -> ExpArgs {
        parse(args).expect("not help").expect("not a usage error")
    }

    fn err(args: &[&str]) -> String {
        parse(args).expect("not help").expect_err("expected a usage error")
    }

    #[test]
    fn defaults() {
        let a = ok(&[]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 2020);
        assert!(!a.quick);
        assert!(a.levels.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let a = ok(&["--scale", "2.0", "--seed", "7", "--levels", "4"]);
        assert_eq!(a.scale, 2.0);
        assert_eq!(a.seed, 7);
        assert_eq!(a.levels, Some(4));
    }

    #[test]
    fn quick_caps_scale() {
        let a = ok(&["--scale", "3.0", "--quick"]);
        assert!(a.quick);
        assert!(a.scale <= 0.1);
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(err(&["--bogus"]).contains("unknown argument `--bogus`"));
    }

    #[test]
    fn rejects_non_numeric_scale() {
        assert!(err(&["--scale", "big"]).contains("--scale needs a float"));
    }

    #[test]
    fn rejects_non_positive_scale() {
        assert!(err(&["--scale", "0"]).contains("positive"));
        assert!(err(&["--scale", "-1.5"]).contains("positive"));
        assert!(err(&["--scale", "inf"]).contains("positive finite"));
        assert!(err(&["--scale", "NaN"]).contains("positive finite"));
    }

    #[test]
    fn rejects_missing_scale_value() {
        assert!(err(&["--scale"]).contains("--scale needs a value"));
    }

    #[test]
    fn rejects_bad_seed() {
        assert!(err(&["--seed", "yes"]).contains("--seed needs a non-negative integer"));
        assert!(err(&["--seed", "-3"]).contains("--seed needs a non-negative integer"));
        assert!(err(&["--seed"]).contains("--seed needs a value"));
    }

    #[test]
    fn rejects_bad_levels() {
        assert!(err(&["--levels", "two"]).contains("--levels needs a positive integer"));
        assert!(err(&["--levels", "0"]).contains("at least 1"));
        assert!(err(&["--levels"]).contains("--levels needs a value"));
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["-h"]).is_err());
        // --help wins even after valid flags.
        assert!(parse(&["--scale", "1.0", "--help"]).is_err());
    }
}
