//! Statistical backing for the paper's headline claim: across paired
//! Monte-Carlo repetitions, is the hard criterion's RMSE significantly
//! smaller than each soft criterion's? Reports a paired t-test and an
//! exact sign test per (λ, n) cell. A test the cell has too few pairs for
//! prints `n/a` in its columns.

use gssl_bench::experiment::{SyntheticConfig, SYNTHETIC_LAMBDAS};
use gssl_bench::runner::CliArgs;
use gssl_datasets::synthetic::PaperModel;
use gssl_stats::inference::{paired_t_test, sign_test, wilcoxon_signed_rank};

/// One test's columns: `show` of its result, or `n/a` right-aligned in
/// each of the columns of `widths` when the cell has too few pairs for
/// the test. Any other error ends the run.
fn columns<T>(
    outcome: gssl_stats::Result<T>,
    widths: &[usize],
    show: impl FnOnce(T) -> String,
) -> gssl_stats::Result<String> {
    match outcome {
        Ok(result) => Ok(show(result)),
        Err(gssl_stats::Error::EmptyInput { .. }) => Ok(widths
            .iter()
            .map(|&width| format!("{:>width$}", "n/a"))
            .collect::<Vec<_>>()
            .join(" ")),
        Err(error) => Err(error),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let reps = args.repetitions.unwrap_or(40);
    let seed = args.seed.unwrap_or(31337);
    let n_grid: &[usize] = if args.full {
        &[30, 100, 300, 1000]
    } else {
        &[30, 100, 300]
    };

    println!("== Paired comparison: hard (λ=0) vs soft, Model 1, m = 30, {reps} reps ==\n");
    println!(
        "{:>6} {:>8} {:>14} {:>12} {:>14} {:>14} {:>14}",
        "n", "lambda", "mean ΔRMSE", "t-test p", "wins/losses", "sign-test p", "wilcoxon p"
    );

    for &n in n_grid {
        let config = SyntheticConfig {
            model: PaperModel::Linear,
            n_labeled: n,
            n_unlabeled: 30,
            lambdas: SYNTHETIC_LAMBDAS.to_vec(),
            repetitions: reps,
            seed,
        };
        // Collect per-repetition RMSE vectors (aligned with lambdas).
        let mut per_rep: Vec<Vec<f64>> = Vec::with_capacity(reps);
        for r in 0..reps {
            match config.run_once(r) {
                Ok(v) => per_rep.push(v),
                Err(error) => {
                    eprintln!("repetition {r} failed at n = {n}: {error}");
                    std::process::exit(1);
                }
            }
        }
        let hard: Vec<f64> = per_rep.iter().map(|v| v[0]).collect();
        for (k, &lambda) in SYNTHETIC_LAMBDAS.iter().enumerate().skip(1) {
            let soft: Vec<f64> = per_rep.iter().map(|v| v[k]).collect();
            let t = columns(paired_t_test(&hard, &soft), &[14, 12], |t| {
                format!("{:>14.5} {:>12.2e}", t.mean_difference, t.p_value)
            })?;
            let s = columns(sign_test(&hard, &soft), &[14, 14], |s| {
                format!("{:>8}/{:<5} {:>14.2e}", s.wins, s.losses, s.p_value)
            })?;
            let w = columns(wilcoxon_signed_rank(&hard, &soft), &[14], |w| {
                format!("{:>14.2e}", w.p_value)
            })?;
            println!("{n:>6} {lambda:>8} {t} {s} {w}");
        }
    }

    println!("\nNegative ΔRMSE means the hard criterion wins; small p-values mean");
    println!("the advantage is statistically significant across repetitions");
    println!("(wins counts repetitions where the SOFT criterion had larger error).");
    Ok(())
}
