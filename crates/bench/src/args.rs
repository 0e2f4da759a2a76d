//! Shared command-line parsing for `gsdram-sim` and the experiment
//! registry. One [`Args`] value wraps an argv slice, so the same
//! lookups work on `std::env::args()` and on synthetic argument lists
//! in tests — and the flag grammar (`--name value`, `--flag`,
//! `--list a,b,c`) is defined in exactly one place.

/// A parsed argument list.
#[derive(Debug, Clone, Default)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Wraps the process arguments.
    pub fn from_env() -> Args {
        Args {
            argv: std::env::args().skip(1).collect(),
        }
    }

    /// Wraps an explicit argument list (tests, the registry driver).
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(argv: I) -> Args {
        Args {
            argv: argv.into_iter().map(Into::into).collect(),
        }
    }

    /// The first non-flag argument (e.g. the workload or experiment
    /// name), skipping values that belong to `--name value` pairs.
    pub fn positional(&self) -> Option<&str> {
        self.positional_at(0)
    }

    /// The `n`-th (0-based) non-flag argument — `positional_at(1)` is
    /// the experiment name in `sweep fig9 --serial` or
    /// `trace fig9 --out t.json`.
    pub fn positional_at(&self, n: usize) -> Option<&str> {
        self.walk()
            .filter(|&(flag, _)| !flag)
            .nth(n)
            .map(|(_, a)| a)
    }

    /// Every `--flag` given, in order, without the values of
    /// `--name value` pairs.
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.walk().filter(|&(flag, _)| flag).map(|(_, a)| a)
    }

    /// The arguments as `(is_flag, text)`, skipping each value that
    /// belongs to a `--name value` pair.
    fn walk(&self) -> impl Iterator<Item = (bool, &str)> {
        let mut it = self.argv.iter();
        std::iter::from_fn(move || {
            let a = it.next()?;
            let Some(flag) = a.strip_prefix("--") else {
                return Some((false, a.as_str()));
            };
            if !Self::BOOLEAN_FLAGS.contains(&flag) {
                it.next(); // this flag's value
            }
            Some((true, a.as_str()))
        })
    }

    /// Flags that take no value — needed so [`Args::positional`] can
    /// tell `--prefetch analytics` from `--tuples 4096`.
    const BOOLEAN_FLAGS: &'static [&'static str] = &[
        "prefetch",
        "impulse",
        "fcfs",
        "closed-row",
        "full",
        "serial",
        "list",
        "quiet",
        "hist",
        "all",
    ];

    /// `--name value` lookup.
    pub fn value(&self, name: &str) -> Option<String> {
        let mut it = self.argv.iter();
        while let Some(a) = it.next() {
            if a == name {
                return it.next().cloned();
            }
        }
        None
    }

    /// Numeric `--name value` with a default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `usize` variant of [`Args::u64`].
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.u64(name, default as u64) as usize
    }

    /// Boolean flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// Comma-separated `usize` list (`--sizes 32,64,128`).
    pub fn usize_list(&self, name: &str, default: &[usize]) -> Vec<usize> {
        self.value(name)
            .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
            .unwrap_or_else(|| default.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups() {
        let a = Args::new(["--tuples", "4096", "--prefetch", "--sizes", "32,64"]);
        assert_eq!(a.u64("--tuples", 1), 4096);
        assert_eq!(a.u64("--txns", 7), 7);
        assert!(a.flag("--prefetch"));
        assert!(!a.flag("--impulse"));
        assert_eq!(a.usize_list("--sizes", &[1]), vec![32, 64]);
        assert_eq!(a.usize_list("--other", &[1]), vec![1]);
    }

    #[test]
    fn positional_skips_flag_values() {
        let a = Args::new(["--tuples", "4096", "analytics", "--prefetch"]);
        assert_eq!(a.positional(), Some("analytics"));
        let b = Args::new(["sweep", "fig10"]);
        assert_eq!(b.positional(), Some("sweep"));
        assert_eq!(b.positional_at(1), Some("fig10"));
        assert_eq!(b.positional_at(2), None);
        let t = Args::new(["trace", "--out", "t.json", "fig9", "--hist"]);
        assert_eq!(t.positional_at(1), Some("fig9"));
        let c = Args::new(["--prefetch", "htap"]);
        assert_eq!(c.positional(), Some("htap"));
        assert_eq!(Args::new(["--tuples", "4096"]).positional(), None);
    }

    #[test]
    fn flags_skip_values() {
        let a = Args::new(["sweep", "fig9", "--txns", "200", "--serial", "--bogus", "3"]);
        assert_eq!(
            a.flags().collect::<Vec<_>>(),
            ["--txns", "--serial", "--bogus"]
        );
    }
}
