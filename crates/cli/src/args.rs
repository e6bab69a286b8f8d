//! Minimal argument parsing (positional arguments plus `--flag value`
//! options), kept dependency-free.

use std::collections::HashMap;

/// Parsed command line: positionals in order, options by name.
#[derive(Debug, Default)]
pub struct Parsed {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

/// Splits `argv` into positionals and `--name value` / `-o value` options.
///
/// # Errors
///
/// Returns an error when an option is missing its value.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            let value = it
                .next()
                .ok_or_else(|| format!("option --{name} requires a value"))?
                .clone();
            out.options.insert(name.to_string(), value);
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// An option by name (without dashes).
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The names of every option given (without dashes), in no order.
    pub fn option_names(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }

    /// A parsed option with a default.
    pub fn option_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.option(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("cannot parse --{name} {v}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_options_mix() {
        let p = parse(&strs(&[
            "decompose",
            "C432",
            "--engine",
            "ec",
            "-o",
            "out.txt",
        ]))
        .unwrap();
        assert_eq!(p.positional(0), Some("decompose"));
        assert_eq!(p.positional(1), Some("C432"));
        assert_eq!(p.option("engine"), Some("ec"));
        assert_eq!(p.option("o"), Some("out.txt"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&strs(&["x", "--engine"])).is_err());
    }

    #[test]
    fn option_or_parses_with_default() {
        let p = parse(&strs(&["--k", "4"])).unwrap();
        assert_eq!(p.option_or("k", 3u8).unwrap(), 4);
        assert_eq!(p.option_or("alpha", 0.1f64).unwrap(), 0.1);
        assert!(p.option_or::<u8>("k", 0).is_ok());
        let bad = parse(&strs(&["--k", "x"])).unwrap();
        assert!(bad.option_or("k", 3u8).is_err());
    }
}
