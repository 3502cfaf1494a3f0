//! Demonstrates Proposition II.2 (the soft criterion's inconsistency) and
//! Proposition II.1 (soft → hard as λ → 0) numerically.
//!
//! For growing `n` the hard criterion's RMSE against the true regression
//! function shrinks (Theorem II.1) while the λ = ∞ mean predictor's RMSE
//! stalls at the spread of `q(X)` around `E[q(X)]` — the inconsistency.
//! A second sweep shows the soft solution converging to the hard one as
//! λ → 0 and to the mean predictor as λ → ∞.

use gssl::{HardCriterion, MeanPredictor, Problem, SoftCriterion};
use gssl_bench::runner::CliArgs;
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let reps = args.repetitions.unwrap_or(20);
    let seed = args.seed.unwrap_or(424242);
    let m = 30;

    println!("== Proposition II.2: hard is consistent, lambda = infinity is not ==");
    println!("(Model 1, m = {m}, {reps} repetitions per point)\n");
    println!("{:>6}  {:>12}  {:>12}", "n", "hard RMSE", "mean RMSE");
    let grid: &[usize] = if args.full {
        &[10, 30, 50, 100, 200, 300, 500, 800, 1000, 1500]
    } else {
        &[10, 30, 100, 300, 500]
    };
    for &n in grid {
        let (mut hard_sum, mut mean_sum) = (0.0, 0.0);
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed + rep as u64);
            let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng)?;
            let ssl = ds.arrange_prefix(n)?;
            let truth = ssl.hidden_truth.as_ref().ok_or("synthetic truth")?;
            let h = paper_rate(n, PAPER_DIM)?;
            let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h)?;
            let problem = Problem::new(w, ssl.labels.clone())?;
            let hard = HardCriterion::new().fit(&problem)?;
            let mean = MeanPredictor::new().fit(&problem)?;
            hard_sum += rmse(truth, hard.unlabeled())?;
            mean_sum += rmse(truth, mean.unlabeled())?;
        }
        println!(
            "{n:>6}  {:>12.4}  {:>12.4}",
            hard_sum / reps as f64,
            mean_sum / reps as f64
        );
    }
    println!("\nThe hard column shrinks with n; the mean column plateaus at the");
    println!("population spread of q(X) — the inconsistency of Proposition II.2.\n");

    println!("== Proposition II.1: soft -> hard as lambda -> 0 ==");
    let n = 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng)?;
    let ssl = ds.arrange_prefix(n)?;
    let h = paper_rate(n, PAPER_DIM)?;
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h)?;
    let problem = Problem::new(w, ssl.labels.clone())?;
    let hard = HardCriterion::new().fit(&problem)?;
    let mean = MeanPredictor::new().fit(&problem)?;
    println!(
        "{:>10}  {:>16}  {:>16}",
        "lambda", "gap to hard", "gap to mean"
    );
    for &lambda in &[10.0, 1.0, 0.1, 0.01, 0.001, 0.0001] {
        let soft = SoftCriterion::new(lambda)?.fit(&problem)?;
        let gap_hard: f64 = soft
            .unlabeled()
            .iter()
            .zip(hard.unlabeled())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let gap_mean: f64 = soft
            .unlabeled()
            .iter()
            .zip(mean.unlabeled())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        println!("{lambda:>10}  {gap_hard:>16.6}  {gap_mean:>16.6}");
    }
    println!("\ngap-to-hard vanishes as lambda -> 0 (Prop II.1); gap-to-mean");
    println!("vanishes as lambda grows (Prop II.2).");
    Ok(())
}
