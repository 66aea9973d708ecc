//! A minimal `--key value` argument parser (no external dependency).

use std::collections::HashMap;

/// Options that take `true` or `false`.
const FLAGS: &[&str] = &["json", "resilient"];

/// Parsed command line: a subcommand and its `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (the first argument).
    pub command: String,
    /// `--key value` pairs (keys without the dashes).
    pub options: HashMap<String, String>,
}

impl Args {
    /// Parses an argument iterator (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a message when no subcommand is present, a `--key` is
    /// missing its value or given twice, or an argument is not an
    /// option.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut command = None;
        let mut options = HashMap::new();
        while let Some(a) = argv.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = argv
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                if options.insert(key.to_string(), value).is_some() {
                    return Err(format!("--{key} is given twice"));
                }
            } else if command.is_none() {
                command = Some(a);
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(Args {
            command: command.ok_or("no subcommand given")?,
            options,
        })
    }

    /// Checks that every option is one the subcommand reads (`allowed`)
    /// and that every flag is `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending option.
    pub fn check(&self, allowed: &[&str]) -> Result<(), String> {
        let mut keys: Vec<&String> = self.options.keys().collect();
        keys.sort();
        for key in keys {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("{} does not take --{key}", self.command));
            }
            let value = &self.options[key];
            if FLAGS.contains(&key.as_str()) && value != "true" && value != "false" {
                return Err(format!("--{key} takes true or false, not {value:?}"));
            }
        }
        Ok(())
    }

    /// An option as a string, with a default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// A flag: true only when given as `true`.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key, "false") == "true"
    }

    /// A numeric option.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// A required option.
    ///
    /// # Errors
    ///
    /// Returns a message when missing.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("run --trace t.hnpt --prefetcher cls --seed 7").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("trace", "x"), "t.hnpt");
        assert_eq!(a.get("prefetcher", "x"), "cls");
        assert_eq!(a.get_num::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.get_num::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn stray_or_repeated_arguments_are_errors() {
        let stray = parse("run trace.hnpt --prefetcher cls").unwrap_err();
        assert!(stray.contains("\"trace.hnpt\""), "{stray}");
        let twice = parse("run --seed 1 --seed 2").unwrap_err();
        assert!(twice.contains("--seed"), "{twice}");
    }

    #[test]
    fn check_names_an_unread_option_or_a_bad_flag() {
        let a = parse("run --trace t --capcity-frac 0.3").unwrap();
        let err = a.check(&["trace", "capacity-frac"]).unwrap_err();
        assert!(err.contains("--capcity-frac"), "{err}");
        let a = parse("faults --resilient yes").unwrap();
        let err = a.check(&["resilient"]).unwrap_err();
        assert!(err.contains("--resilient"), "{err}");
        let a = parse("faults --resilient false --json true").unwrap();
        assert!(a.check(&["resilient", "json"]).is_ok());
        assert!(!a.flag("resilient") && a.flag("json"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse("run --prefetcher").is_err());
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse("").is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse("run --seed banana").unwrap();
        assert!(a.get_num::<u64>("seed", 0).is_err());
    }

    #[test]
    fn require_reports_the_key() {
        let a = parse("run").unwrap();
        assert!(a.require("trace").unwrap_err().contains("--trace"));
    }
}
