//! The `mdr` argv model: a subcommand accepts exactly the `--name` tokens
//! of its usage text in `commands::COMMANDS`, and every flag value is
//! parsed by its type's `FromStr`.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A CLI error with a user-facing message. Every `std::error::Error`
/// converts into one, so `?` applies to library results directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CliError(pub(crate) String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError(e.to_string())
    }
}

pub(crate) fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// A value in [0, 1]. Every θ (write fraction) and ω (control/data cost
/// ratio) flag parses through this one range check, so no out-of-range
/// value reaches the library's asserts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Unit(pub(crate) f64);

impl FromStr for Unit {
    type Err = CliError;

    fn from_str(s: &str) -> Result<Self, CliError> {
        let x: f64 = s.parse()?;
        if !(0.0..=1.0).contains(&x) {
            return err("must lie in [0, 1]");
        }
        Ok(Unit(x))
    }
}

/// A flag value type: parsed by `FromStr`, with a printable error.
pub(crate) trait Value: FromStr<Err: fmt::Display> {}

impl<T: FromStr<Err: fmt::Display>> Value for T {}

/// One subcommand's flags, checked against its usage text.
#[derive(Debug)]
pub(crate) struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv` — the subcommand, then `--flag value` pairs — and
    /// rejects any flag whose `--name` does not appear in `usage`,
    /// suggesting the nearest one that does.
    pub(crate) fn parse(argv: &[String], usage: &str) -> Result<Args, CliError> {
        let (command, rest) = argv
            .split_first()
            .map_or(("", argv), |(c, r)| (c.as_str(), r));
        let accepted: Vec<&str> = flags_in(usage).collect();
        let mut flags = BTreeMap::new();
        let mut rest = rest.iter();
        while let Some(key) = rest.next() {
            let Some(name) = key.strip_prefix("--") else {
                return err(format!("expected a --flag, got {key:?}"));
            };
            if !accepted.contains(&name) {
                let hint = nearest(name, &accepted)
                    .map(|near| format!("; did you mean --{near}?"))
                    .unwrap_or_default();
                return err(format!("unknown flag --{name} for `mdr {command}`{hint}"));
            }
            let Some(value) = rest.next() else {
                return err(format!("flag --{name} needs a value"));
            };
            if flags.insert(name.to_owned(), value.clone()).is_some() {
                return err(format!("duplicate flag --{name}"));
            }
        }
        Ok(Args { flags })
    }

    /// `--name`, parsed; `None` when absent.
    pub(crate) fn opt<T: Value>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.flags.get(name).map(|v| parsed(name, v)).transpose()
    }

    /// `--name`, parsed; an error when absent.
    pub(crate) fn req<T: Value>(&self, name: &str) -> Result<T, CliError> {
        self.opt(name)?
            .ok_or_else(|| CliError(format!("missing required flag --{name}")))
    }

    /// `--name`, parsed; `default` when absent.
    pub(crate) fn or<T: Value>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// `--name` as a comma-separated list, each item parsed; `None` when
    /// absent.
    pub(crate) fn list<T: Value>(&self, name: &str) -> Result<Option<Vec<T>>, CliError> {
        self.flags
            .get(name)
            .map(|raw| raw.split(',').map(|v| parsed(name, v.trim())).collect())
            .transpose()
    }

    /// `--name on` or `--name off`; off when absent.
    pub(crate) fn switch(&self, name: &str) -> Result<bool, CliError> {
        match self.flags.get(name).map(String::as_str) {
            None | Some("off") => Ok(false),
            Some("on") => Ok(true),
            Some(v) => err(format!(
                "invalid value {v:?} for --{name}: expected on or off"
            )),
        }
    }

    /// Rejects each of `flags` that was given unless `active`: they only
    /// act in the mode `mode` names, and must not be silently ignored
    /// outside it.
    pub(crate) fn only_if(&self, active: bool, mode: &str, flags: &[&str]) -> Result<(), CliError> {
        match flags
            .iter()
            .find(|f| !active && self.flags.contains_key(**f))
        {
            Some(flag) => err(format!("--{flag} requires {mode}")),
            None => Ok(()),
        }
    }
}

fn parsed<T: Value>(name: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|e| CliError(format!("invalid value {v:?} for --{name}: {e}")))
}

/// The `--name` tokens of a usage text.
fn flags_in(usage: &str) -> impl Iterator<Item = &str> {
    usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|word| word.strip_prefix("--"))
}

/// The accepted flag nearest to `name`, when one is within three edits.
fn nearest<'a>(name: &str, accepted: &[&'a str]) -> Option<&'a str> {
    accepted
        .iter()
        .map(|a| (edit_distance(name, a), *a))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, a)| a)
}

/// Levenshtein distance over chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = i;
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitute = diagonal + usize::from(ca != *cb);
            diagonal = row[j + 1];
            row[j + 1] = substitute.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "--policy <P> [--theta T] [--seed S] [--oracle on] [--thetas ...]";

    fn parse(argv: &[&str]) -> Result<Args, CliError> {
        let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
        Args::parse(&argv, USAGE)
    }

    #[test]
    fn args_parse() {
        let args = parse(&["simulate", "--policy", "SW9", "--theta", "0.3"]).unwrap();
        assert_eq!(
            args.req::<mdr_core::PolicySpec>("policy")
                .unwrap()
                .to_string(),
            "SW9"
        );
        assert_eq!(args.or("theta", Unit(0.5)).unwrap(), Unit(0.3));
        assert_eq!(args.or::<u64>("seed", 7).unwrap(), 7);
        assert_eq!(args.opt::<f64>("thetas").unwrap(), None);
        assert!(!args.switch("oracle").unwrap());
        let args = parse(&["sweep", "--thetas", "0.2, 0.8", "--oracle", "on"]).unwrap();
        assert_eq!(
            args.list::<Unit>("thetas").unwrap(),
            Some(vec![Unit(0.2), Unit(0.8)])
        );
        assert!(args.switch("oracle").unwrap());
        assert!(args.only_if(true, "x", &["oracle"]).is_ok());
        assert!(args.only_if(false, "x", &["seed"]).is_ok());
        assert_eq!(
            args.only_if(false, "--data-dir", &["seed", "oracle"]),
            err("--oracle requires --data-dir")
        );
    }

    #[test]
    fn args_errors() {
        let message = |argv: &[&str]| parse(argv).unwrap_err().0;
        assert!(parse(&["run", "--policy"]).is_err());
        assert!(parse(&["run", "stray"]).is_err());
        assert!(parse(&["run", "--seed", "1", "--seed", "2"]).is_err());
        assert_eq!(
            message(&["run", "--thta", "1"]),
            "unknown flag --thta for `mdr run`; did you mean --theta?"
        );
        assert_eq!(
            message(&["run", "--frobnicate", "1"]),
            "unknown flag --frobnicate for `mdr run`"
        );
        let args = parse(&["run", "--seed", "abc", "--theta", "1.5", "--oracle", "yes"]).unwrap();
        assert!(args.or::<u64>("seed", 0).is_err());
        assert!(args.req::<Unit>("theta").is_err(), "θ outside [0, 1]");
        assert!(args.req::<u64>("policy").is_err(), "missing");
        assert_eq!(
            args.switch("oracle"),
            err("invalid value \"yes\" for --oracle: expected on or off")
        );
        let args = parse(&["run", "--thetas", "0.1,x"]).unwrap();
        assert!(args.list::<Unit>("thetas").is_err());
        for bad in ["NaN", "-0.1", "inf"] {
            assert!(bad.parse::<Unit>().is_err(), "{bad}");
        }
    }

    #[test]
    fn usage_text_lists_the_flags() {
        let flags: Vec<&str> = flags_in(USAGE).collect();
        assert_eq!(flags, ["policy", "theta", "seed", "oracle", "thetas"]);
        assert_eq!(edit_distance("gate-pc", "gate-pct"), 1);
        assert_eq!(edit_distance("thread", "threads"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
