//! Minimal `--flag value` argument parsing (no external dependency).

use std::collections::HashMap;

/// Parsed flags: `--key value` pairs plus bare `--switch`es.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses everything after subcommand `cmd`. `--key value` becomes a
    /// value; a `--key` followed by another flag (or nothing) becomes a
    /// switch. Errors on tokens that don't start with `--` and on any key
    /// not in `known` (the subcommand's declared flags).
    pub fn parse(argv: &[String], cmd: &str, known: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{tok}' (flags start with --)"))?;
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            if !known.contains(&key) {
                return Err(format!("unknown flag --{key} for {cmd}"));
            }
            let next_is_value = argv
                .get(i + 1)
                .map(|n| !n.starts_with("--"))
                .unwrap_or(false);
            if next_is_value {
                args.values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                args.switches.push(key.to_string());
                i += 1;
            }
        }
        Ok(args)
    }

    /// The value of a flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required flag's value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// A flag parsed to a type, with a default when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("cannot parse --{key} value '{v}'")),
        }
    }

    /// Whether a bare switch was passed.
    pub fn has_switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Parses `x,y` into a coordinate pair.
    pub fn get_point(&self, key: &str) -> Result<(f64, f64), String> {
        let raw = self.require(key)?;
        let parts: Vec<&str> = raw.split(',').collect();
        if parts.len() != 2 {
            return Err(format!("--{key} expects 'x,y', got '{raw}'"));
        }
        let x = parts[0]
            .trim()
            .parse()
            .map_err(|_| format!("bad x in --{key}"))?;
        let y = parts[1]
            .trim()
            .parse()
            .map_err(|_| format!("bad y in --{key}"))?;
        Ok((x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    const KNOWN: &[&str] = &["orders", "verbose", "out", "epochs", "from"];

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(&argv(s), "test", KNOWN)
    }

    #[test]
    fn parses_values_and_switches() {
        let a = parse(&["--orders", "100", "--verbose", "--out", "x.json"]).unwrap();
        assert_eq!(a.get("orders"), Some("100"));
        assert_eq!(a.get("out"), Some("x.json"));
        assert!(a.has_switch("verbose"));
        assert!(!a.has_switch("orders"));
    }

    #[test]
    fn rejects_non_flags() {
        assert!(parse(&["orders", "100"]).is_err());
    }

    #[test]
    fn typed_parsing_with_default() {
        let a = parse(&["--epochs", "7"]).unwrap();
        assert_eq!(a.get_parsed("epochs", 3usize).unwrap(), 7);
        assert_eq!(a.get_parsed("missing", 3usize).unwrap(), 3);
        assert!(a.get_parsed::<usize>("epochs", 0).is_ok());
        let b = parse(&["--epochs", "seven"]).unwrap();
        assert!(b.get_parsed::<usize>("epochs", 0).is_err());
    }

    #[test]
    fn point_parsing() {
        let a = parse(&["--from", "12.5,-3"]).unwrap();
        assert_eq!(a.get_point("from").unwrap(), (12.5, -3.0));
        let b = parse(&["--from", "12.5"]).unwrap();
        assert!(b.get_point("from").is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]).unwrap();
        assert!(a.require("data").unwrap_err().contains("--data"));
    }
}
