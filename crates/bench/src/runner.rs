//! Parallel Monte-Carlo repetition runner.
//!
//! Repetitions are embarrassingly parallel; this runner fans them out over
//! the available cores through [`gssl_runtime::Executor::map_tasks`]
//! (one claim per repetition) and collects results in repetition order.
//! On a single-core host it degrades to the sequential loop.

use gssl_runtime::Executor;

/// A failed repetition's message. Boxed errors are not `Send` in general,
/// so a repetition's error crosses the worker boundary as text.
#[derive(Debug)]
struct RepetitionFailed(String);

impl From<gssl_runtime::Error> for RepetitionFailed {
    fn from(e: gssl_runtime::Error) -> Self {
        RepetitionFailed(e.to_string())
    }
}

/// Runs `repetitions` independent evaluations of `f` (each receiving its
/// repetition index) across the available cores, preserving order.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing repetition; remaining
/// work is still drained (threads are joined) before returning.
pub fn average_over_repetitions<F>(
    repetitions: usize,
    f: F,
) -> Result<Vec<Vec<f64>>, Box<dyn std::error::Error>>
where
    F: Fn(usize) -> Result<Vec<f64>, Box<dyn std::error::Error>> + Sync,
{
    let indices: Vec<usize> = (0..repetitions).collect();
    Executor::with_available_parallelism()
        .map_tasks(&indices, |r, _| {
            f(r).map_err(|e| RepetitionFailed(e.to_string()))
        })
        .map_err(|e| e.0.into())
}

/// Parses a `--flag value` style argument list for the experiment
/// binaries: supported keys are returned via the accessor methods, and
/// unknown flags produce an error message listing the supported set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliArgs {
    /// Overridden repetition count, when given.
    pub repetitions: Option<usize>,
    /// Run the paper-scale grid instead of the scaled-down default.
    pub full: bool,
    /// Overridden base seed, when given.
    pub seed: Option<u64>,
}

impl CliArgs {
    /// Parses `std::env::args`-style strings (the program name must be
    /// stripped by the caller).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = CliArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--reps" => {
                    let value = iter.next().ok_or("--reps requires a value")?;
                    out.repetitions = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad --reps value: {value}"))?,
                    );
                }
                "--seed" => {
                    let value = iter.next().ok_or("--seed requires a value")?;
                    out.seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad --seed value: {value}"))?,
                    );
                }
                "--full" => out.full = true,
                "--help" | "-h" => return Err("usage: [--reps N] [--seed S] [--full]".to_owned()),
                other => return Err(format!("unknown flag {other}; try --help")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_repetitions_in_order() {
        let results = average_over_repetitions(5, |r| Ok(vec![r as f64])).unwrap();
        assert_eq!(results.len(), 5);
        for (r, v) in results.iter().enumerate() {
            assert_eq!(v[0], r as f64);
        }
    }

    #[test]
    fn zero_repetitions_is_empty() {
        let results = average_over_repetitions(0, |_| panic!("no repetition runs")).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn propagates_errors() {
        let result = average_over_repetitions(3, |r| {
            if r == 1 {
                Err("boom".into())
            } else {
                Ok(vec![0.0])
            }
        });
        assert!(result.is_err());
        assert!(result.unwrap_err().to_string().contains("boom"));
    }

    #[test]
    fn cli_parses_flags() {
        let args = CliArgs::parse(
            ["--reps", "12", "--seed", "99", "--full"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(args.repetitions, Some(12));
        assert_eq!(args.seed, Some(99));
        assert!(args.full);
    }

    #[test]
    fn cli_rejects_unknown_flags_and_bad_values() {
        assert!(CliArgs::parse(["--nope".to_owned()]).is_err());
        assert!(CliArgs::parse(["--reps".to_owned()]).is_err());
        assert!(CliArgs::parse(["--reps".to_owned(), "abc".to_owned()]).is_err());
        assert!(CliArgs::parse(["--help".to_owned()]).is_err());
        assert_eq!(CliArgs::parse([]).unwrap(), CliArgs::default());
    }
}
