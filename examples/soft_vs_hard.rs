//! Propositions II.1 and II.2 on one dataset: sweep λ from tiny to huge
//! and watch the soft criterion slide from the (consistent) hard solution
//! to the (inconsistent) constant labeled mean.
//!
//! ```text
//! cargo run --release --example soft_vs_hard
//! ```

use gssl::{HardCriterion, MeanPredictor, Problem, SoftCriterion};
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, m) = (150, 30);
    let mut rng = StdRng::seed_from_u64(99);
    let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng)?;
    let ssl = ds.arrange_prefix(n)?;
    let truth = ssl.hidden_truth.as_ref().ok_or("synthetic truth")?;

    let h = paper_rate(n, PAPER_DIM)?;
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h)?;
    let problem = Problem::new(w, ssl.labels.clone())?;

    let hard = HardCriterion::new().fit(&problem)?;
    let mean = MeanPredictor::new().fit(&problem)?;
    let hard_rmse = rmse(truth, hard.unlabeled())?;
    let mean_rmse = rmse(truth, mean.unlabeled())?;

    println!("n = {n}, m = {m}, Model 1, sigma = h_n = {h:.3}\n");
    println!(
        "{:>10}  {:>10}  {:>14}  {:>14}",
        "lambda", "RMSE", "max gap->hard", "max gap->mean"
    );
    println!(
        "{:>10}  {:>10.4}  {:>14}  {:>14}",
        "0 (hard)", hard_rmse, "0", "-"
    );
    for &lambda in &[1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 50.0, 500.0] {
        let soft = SoftCriterion::new(lambda)?.fit(&problem)?;
        let gap_hard = soft
            .unlabeled()
            .iter()
            .zip(hard.unlabeled())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let gap_mean = soft
            .unlabeled()
            .iter()
            .zip(mean.unlabeled())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{lambda:>10}  {:>10.4}  {gap_hard:>14.6}  {gap_mean:>14.6}",
            rmse(truth, soft.unlabeled())?
        );
    }
    println!(
        "{:>10}  {:>10.4}  {:>14}  {:>14}",
        "infinity", mean_rmse, "-", "0"
    );

    println!("\nReading: RMSE is smallest at the hard end (Prop II.1 / Thm II.1)");
    println!("and approaches the mean predictor's as λ grows (Prop II.2).");
    Ok(())
}
