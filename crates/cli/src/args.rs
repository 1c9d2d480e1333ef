//! Tiny hand-rolled flag parser (no external dependency): `--key value`
//! pairs plus boolean `--flag`s, with typed accessors and an unknown-flag
//! check.

use std::collections::HashMap;

/// Parsed command-line flags.
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    used: std::cell::RefCell<Vec<String>>,
    finished: std::cell::Cell<bool>,
}

impl Args {
    /// Parses `argv` (already stripped of program name and subcommand).
    ///
    /// Tokens starting with `--` followed by a non-`--` token are key/value
    /// pairs; a `--token` followed by another `--token` (or the end) is a
    /// boolean flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found `{tok}`"))?;
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Args {
            values,
            flags,
            used: std::cell::RefCell::new(Vec::new()),
            finished: std::cell::Cell::new(false),
        })
    }

    /// Typed value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.used.borrow_mut().push(key.to_string());
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.used.borrow_mut().push(key.to_string());
        self.values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional string value.
    pub fn opt(&self, key: &str) -> Option<String> {
        self.used.borrow_mut().push(key.to_string());
        self.values.get(key).cloned()
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.used.borrow_mut().push(key.to_string());
        self.flags.iter().any(|f| f == key)
    }

    /// Errors on any flag the command has not consulted. Every command
    /// calls it after reading its flags and before doing any work.
    pub fn finish(&self) -> Result<(), String> {
        self.finished.set(true);
        let used = self.used.borrow();
        for k in self.values.keys().chain(self.flags.iter()) {
            if !used.iter().any(|u| u == k) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        Ok(())
    }

    /// `true` once [`Args::finish`] has run.
    pub fn finished(&self) -> bool {
        self.finished.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&argv("--p 8 --gantt --k 64")).unwrap();
        assert_eq!(a.get("p", 0usize).unwrap(), 8);
        assert_eq!(a.get("k", 0usize).unwrap(), 64);
        assert!(a.flag("gantt"));
        assert!(!a.flag("csv"));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.get("s", 16u64).unwrap(), 16);
    }

    #[test]
    fn rejects_unknown_flags() {
        let a = Args::parse(&argv("--bogus 1")).unwrap();
        let _ = a.get("p", 0usize);
        assert!(a.finish().is_err());
    }

    #[test]
    fn rejects_malformed_tokens() {
        assert!(Args::parse(&argv("p 8")).is_err());
    }

    #[test]
    fn require_and_opt() {
        let a = Args::parse(&argv("--out file.trace")).unwrap();
        assert_eq!(a.require("out").unwrap(), "file.trace");
        assert!(a.opt("missing").is_none());
        assert!(a.require("missing").is_err());
    }
}
