//! Runs one workload of the gssl benchmark and prints what it measured.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <knn-pipeline|lattice-amg|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines (host, notes, every metric with its unit and
//! sample count, every check) come first; the last line is the JSON
//! result. The exit code is non-zero when a check fails.

use gssl_perfbench::{host, run, Options, Scale, Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let options = Options {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
    };
    Ok((workload.ok_or("--workload is required")?, options))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::describe());
    println!(
        "run    workload={} seed={} seconds={} trace={}",
        workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    let report = run(workload, &options);
    for line in report.human_lines() {
        println!("{line}");
    }
    let emitted = if options.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.json_line(emitted));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
