//! Minimal flag parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag`
/// options.
#[derive(Clone, Debug, Default)]
pub struct Opts {
    /// The subcommand (first non-flag argument).
    pub command: String,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    /// Parses an argument iterator (excluding the program name).
    ///
    /// Every `--key` followed by a non-`--` token is a valued option;
    /// `--key` followed by another option (or the end) is a boolean flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
        let mut out = Opts::default();
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name".into());
                }
                match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = it.next().unwrap();
                        if out.values.insert(key.to_string(), value).is_some() {
                            return Err(format!("--{key} given twice"));
                        }
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_empty() {
                out.command = arg;
            } else {
                return Err(format!("unexpected positional argument `{arg}`"));
            }
        }
        Ok(out)
    }

    /// A required string option.
    pub(crate) fn require(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional string option.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// An optional parsed option with a default.
    pub(crate) fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// True when the boolean flag was given.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects any option or flag not in `allowed`, so a typo'd flag
    /// fails loudly instead of being silently ignored.
    pub(crate) fn assert_known(&self, allowed: &[&str]) -> Result<(), String> {
        let given = self.values.keys().map(String::as_str).chain(self.flags.iter().map(String::as_str));
        for key in given {
            if !allowed.contains(&key) {
                return Err(format!("unknown option --{key} (try `hignn help`)"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_values_and_flags() {
        let o = parse(&["train", "--edges", "e.tsv", "--levels", "3", "--quiet"]).unwrap();
        assert_eq!(o.command, "train");
        assert_eq!(o.require("edges").unwrap(), "e.tsv");
        assert_eq!(o.get_or::<usize>("levels", 1).unwrap(), 3);
        assert!(o.flag("quiet"));
        assert!(!o.flag("verbose"));
    }

    #[test]
    fn defaults_and_errors() {
        let o = parse(&["stats"]).unwrap();
        assert_eq!(o.get_or::<f64>("alpha", 5.0).unwrap(), 5.0);
        assert!(o.require("edges").is_err());
        assert!(parse(&["x", "--k", "1", "--k", "2"]).is_err());
        assert!(parse(&["x", "stray", "positional"]).is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        let o = parse(&["train", "--edges", "e.tsv", "--levles", "3"]).unwrap();
        let err = o.assert_known(&["edges", "levels"]).unwrap_err();
        assert!(err.contains("levles"), "{err}");
        assert!(o.assert_known(&["edges", "levles"]).is_ok());
    }

    #[test]
    fn bad_parse_reports_key() {
        let o = parse(&["x", "--levels", "abc"]).unwrap();
        let err = o.get_or::<usize>("levels", 1).unwrap_err();
        assert!(err.contains("levels"), "{err}");
    }
}
