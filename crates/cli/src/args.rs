//! A small, dependency-free argument parser for the CLI.

use std::collections::HashMap;

use approxhadoop_core::spec::{ApproxSpec, PilotSpec};

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional token).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// A CLI usage error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// `--key value` pairs become options; a `--key` followed by another
    /// `--…` token (or nothing) becomes a boolean flag.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, UsageError> {
        let mut args = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(UsageError("empty option name `--`".into()));
                }
                match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = it.next().expect("peeked");
                        args.options.insert(key.to_string(), value);
                    }
                    _ => args.flags.push(key.to_string()),
                }
            } else if args.command.is_empty() {
                args.command = tok;
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Typed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, UsageError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("invalid value for --{key}: `{v}`"))),
        }
    }

    /// Builds the [`ApproxSpec`] from `--drop`, `--sample`, `--target`,
    /// `--confidence`, `--pilot-tasks`, `--pilot-sample`.
    ///
    /// Precedence: `--target` selects target-error mode; otherwise any of
    /// `--drop`/`--sample` selects ratio mode; otherwise precise.
    /// `--confidence`, `--pilot-tasks` and `--pilot-sample` are
    /// target-mode options: without `--target` they are usage errors,
    /// since ratio mode always reports 95% intervals.
    pub fn approx_spec(&self) -> Result<ApproxSpec, UsageError> {
        if let Some(t) = self.get("target") {
            let confidence: f64 = self.get_parsed("confidence", 0.95)?;
            let target: f64 = t
                .trim_end_matches('%')
                .parse()
                .map_err(|_| UsageError(format!("invalid --target `{t}`")))?;
            // Accept either a fraction (0.01) or a percentage (1%).
            let target = if t.ends_with('%') {
                target / 100.0
            } else {
                target
            };
            let mut spec = ApproxSpec::Target {
                target: approxhadoop_core::spec::ErrorTarget::Relative(target),
                confidence,
                pilot: None,
            };
            if self.get("pilot-tasks").is_some() || self.get("pilot-sample").is_some() {
                spec = spec.with_pilot(PilotSpec {
                    tasks: self.get_parsed("pilot-tasks", 4usize)?,
                    sampling_ratio: self.get_parsed("pilot-sample", 0.01f64)?,
                });
            }
            return Ok(spec);
        }
        for key in ["confidence", "pilot-tasks", "pilot-sample"] {
            if self.get(key).is_some() || self.flag(key) {
                return Err(UsageError(format!(
                    "--{key} applies in target mode only: give --target too"
                )));
            }
        }
        let drop: f64 = self.get_parsed("drop", 0.0)?;
        let sample: f64 = self.get_parsed("sample", 1.0)?;
        // Reject out-of-range ratios here, at the user boundary: a typo'd
        // `--sample 0` used to be clamped deep in the sampler to a
        // 1-in-a-billion sample, yielding a garbage interval instead of
        // an error.
        if !(sample > 0.0 && sample <= 1.0) {
            return Err(UsageError(format!(
                "--sample must lie in (0, 1], got `{sample}`"
            )));
        }
        if !(0.0..1.0).contains(&drop) {
            return Err(UsageError(format!(
                "--drop must lie in [0, 1), got `{drop}`"
            )));
        }
        if drop == 0.0 && sample >= 1.0 {
            Ok(ApproxSpec::Precise)
        } else {
            Ok(ApproxSpec::ratios(drop, sample))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxhadoop_core::spec::ErrorTarget;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parses_command_positionals_options_flags() {
        let a = parse("run project-popularity --drop 0.25 --json --seed 7");
        assert_eq!(a.command, "run");
        assert_eq!(a.positional, vec!["project-popularity"]);
        assert_eq!(a.get("drop"), Some("0.25"));
        assert!(a.flag("json"));
        assert_eq!(a.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.get_parsed::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn default_spec_is_precise() {
        assert_eq!(parse("run x").approx_spec().unwrap(), ApproxSpec::Precise);
    }

    #[test]
    fn ratio_spec_from_options() {
        let s = parse("run x --drop 0.25 --sample 0.1")
            .approx_spec()
            .unwrap();
        assert_eq!(s, ApproxSpec::ratios(0.25, 0.1));
    }

    #[test]
    fn target_spec_accepts_percent_and_fraction() {
        let s = parse("run x --target 1%").approx_spec().unwrap();
        match s {
            ApproxSpec::Target {
                target: ErrorTarget::Relative(t),
                ..
            } => {
                assert!((t - 0.01).abs() < 1e-12)
            }
            _ => panic!("expected target spec"),
        }
        let s = parse("run x --target 0.05 --confidence 0.99")
            .approx_spec()
            .unwrap();
        match s {
            ApproxSpec::Target {
                target: ErrorTarget::Relative(t),
                confidence,
                ..
            } => {
                assert!((t - 0.05).abs() < 1e-12);
                assert!((confidence - 0.99).abs() < 1e-12);
            }
            _ => panic!("expected target spec"),
        }
    }

    #[test]
    fn pilot_options() {
        let s = parse("run x --target 1% --pilot-tasks 6 --pilot-sample 0.05")
            .approx_spec()
            .unwrap();
        match s {
            ApproxSpec::Target { pilot: Some(p), .. } => {
                assert_eq!(p.tasks, 6);
                assert!((p.sampling_ratio - 0.05).abs() < 1e-12);
            }
            _ => panic!("expected pilot"),
        }
    }

    #[test]
    fn target_mode_options_need_target() {
        for opt in [
            "--confidence 0.99",
            "--pilot-tasks 6",
            "--pilot-sample 0.05",
        ] {
            let key = opt.split_whitespace().next().unwrap();
            for mode in ["", "--sample 0.5", "--drop 0.2"] {
                let err = parse(&format!("run x {mode} {opt}"))
                    .approx_spec()
                    .unwrap_err();
                assert!(err.0.contains(key), "{opt} {mode}: {err}");
            }
            assert!(parse(&format!("run x --target 1% {opt}"))
                .approx_spec()
                .is_ok());
        }
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(parse("run x --target nope").approx_spec().is_err());
        let a = parse("run x --seed abc");
        assert!(a.get_parsed::<u64>("seed", 0).is_err());
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }

    #[test]
    fn out_of_range_ratios_are_rejected() {
        // Regression: `--sample 0` used to silently clamp to a 1e-9
        // sampling ratio instead of erroring out.
        assert!(parse("run x --sample 0").approx_spec().is_err());
        assert!(parse("run x --sample -0.5").approx_spec().is_err());
        assert!(parse("run x --sample 1.5").approx_spec().is_err());
        assert!(parse("run x --sample nan").approx_spec().is_err());
        assert!(parse("run x --drop 1").approx_spec().is_err());
        assert!(parse("run x --drop -0.1").approx_spec().is_err());
        // Boundary values stay accepted.
        assert_eq!(
            parse("run x --sample 1 --drop 0").approx_spec().unwrap(),
            ApproxSpec::Precise
        );
        assert_eq!(
            parse("run x --sample 0.01").approx_spec().unwrap(),
            ApproxSpec::ratios(0.0, 0.01)
        );
    }
}
