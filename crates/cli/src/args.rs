//! Minimal flag parsing (the workspace's dependency policy rules out an
//! argument-parsing crate; the grammar here is flat `--key value`).

use std::collections::BTreeMap;

/// A subcommand: its name, the flags it accepts (without the leading
/// `--`; any other `--key` is a usage error), and its entry point.
pub type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Parsed) -> Result<(), String>,
);

/// Parsed invocation: a subcommand, positional operands, and
/// `--key value` options.
#[derive(Debug, Default)]
pub struct Parsed {
    /// The subcommand (first bare argument).
    pub command: String,
    /// Bare words after the subcommand, in order (`neve trace
    /// v8.3-nested hypercall` carries two).
    pub positionals: Vec<String>,
    /// `--key value` pairs.
    pub options: BTreeMap<String, String>,
}

/// Flags that take no value (presence is the value). Everything else
/// follows the `--key value` grammar.
const BOOLEAN_FLAGS: &[&str] = &["no-cache", "json", "smoke", "guard", "fail-fast"];

/// Parses `argv` (without the program name) against `commands`.
///
/// # Errors
///
/// Rejects an unknown subcommand, a flag the subcommand does not
/// accept, and a dangling `--key` without a value (boolean flags
/// excepted). Bare words after the subcommand are collected as
/// positionals; each command decides how many it accepts.
pub fn parse<'c>(
    argv: &[String],
    commands: &'c [Command],
) -> Result<(&'c Command, Parsed), String> {
    let mut p = Parsed::default();
    let mut it = argv.iter();
    match it.next() {
        Some(cmd) if !cmd.starts_with("--") => p.command = cmd.clone(),
        Some(flag) => return Err(format!("expected a subcommand before {flag}")),
        None => p.command = "help".into(),
    }
    let Some(command) = commands.iter().find(|c| c.0 == p.command) else {
        return Err(format!("unknown subcommand `{}`", p.command));
    };
    let (name, flags, _) = command;
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            p.positionals.push(a.clone());
            continue;
        };
        if !flags.contains(&key) {
            let accepted: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
            return Err(format!(
                "`neve {name}` does not take --{key} (accepted: {})",
                if accepted.is_empty() {
                    "no flags".to_string()
                } else {
                    accepted.join(", ")
                }
            ));
        }
        if BOOLEAN_FLAGS.contains(&key) {
            p.options.insert(key.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("--{key} needs a value"));
        };
        p.options.insert(key.to_string(), value.clone());
    }
    Ok((command, p))
}

impl Parsed {
    /// The option `key` or `default`.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// The option `key` parsed as u64.
    ///
    /// # Errors
    ///
    /// Reports unparseable numbers.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: `{v}` is not a number")),
        }
    }

    /// True when a boolean flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn nop(_: &Parsed) -> Result<(), String> {
        Ok(())
    }

    const COMMANDS: &[Command] = &[
        ("help", &[], nop),
        ("micro", &["bench", "config", "iters"], nop),
        ("tables", &["jobs"], nop),
        ("faults", &["seed", "jobs", "smoke"], nop),
        ("trace", &["limit"], nop),
    ];

    fn parse(argv: &[String]) -> Result<Parsed, String> {
        super::parse(argv, COMMANDS).map(|(_, p)| p)
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let p = parse(&sv(&["micro", "--bench", "ipi", "--iters", "7"])).unwrap();
        assert_eq!(p.command, "micro");
        assert_eq!(p.get("bench", "x"), "ipi");
        assert_eq!(p.get_u64("iters", 1).unwrap(), 7);
        assert_eq!(p.get("config", "vm"), "vm");
    }

    #[test]
    fn empty_argv_means_help() {
        assert_eq!(parse(&[]).unwrap().command, "help");
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(parse(&sv(&["micro", "--bench"])).is_err());
        assert!(parse(&sv(&["--bench", "x"])).is_err());
    }

    #[test]
    fn collects_positionals_in_order() {
        let p = parse(&sv(&["trace", "v8.3-nested", "hypercall", "--limit", "50"])).unwrap();
        assert_eq!(p.command, "trace");
        assert_eq!(p.positionals, vec!["v8.3-nested", "hypercall"]);
        assert_eq!(p.get_u64("limit", 0).unwrap(), 50);
        assert!(parse(&sv(&["micro"])).unwrap().positionals.is_empty());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let p = parse(&sv(&["faults", "--smoke", "--jobs", "4"])).unwrap();
        assert!(p.has("smoke"));
        assert_eq!(p.get_u64("jobs", 1).unwrap(), 4);
        assert!(!parse(&sv(&["faults"])).unwrap().has("smoke"));
        // Trailing boolean flag is fine; trailing value flag is not.
        assert!(parse(&sv(&["faults", "--jobs", "2", "--smoke"])).is_ok());
        assert!(parse(&sv(&["faults", "--smoke", "--seed"])).is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        let p = parse(&sv(&["micro", "--iters", "many"])).unwrap();
        assert!(p.get_u64("iters", 1).is_err());
    }

    #[test]
    fn rejects_flags_the_subcommand_does_not_take() {
        // A typo is a usage error naming the flag and the accepted set,
        // not a silently ignored option.
        let err = parse(&sv(&["faults", "--jbos", "3"])).unwrap_err();
        assert!(err.contains("--jbos"), "{err}");
        assert!(err.contains("--seed, --jobs, --smoke"), "{err}");
        // A real flag of another subcommand is just as foreign here.
        assert!(parse(&sv(&["tables", "--iters", "3"])).is_err());
        assert!(parse(&sv(&["help", "--smoke"]))
            .unwrap_err()
            .contains("no flags"));
        assert!(parse(&sv(&["frobnicate"])).is_err());
    }
}
