//! A miniature of the paper's Figure 1: watch the hard criterion's RMSE
//! shrink as the labeled sample grows, while larger λ hurts at every n.
//!
//! ```text
//! cargo run --release --example consistency_study
//! ```

use gssl::{HardCriterion, Problem, SoftCriterion};
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = 30; // unlabeled points, fixed as in Figure 1
    let reps = 15;
    let lambdas = [0.0, 0.1, 5.0];

    println!("Model 1, m = {m}, {reps} repetitions; sigma = h_n = (log n / n)^(1/5)\n");
    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}",
        "n", "λ=0 (hard)", "λ=0.1", "λ=5"
    );

    for &n in &[20usize, 50, 100, 200, 400] {
        let mut sums = [0.0f64; 3];
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(1000 + rep);
            let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng)?;
            let ssl = ds.arrange_prefix(n)?;
            let truth = ssl.hidden_truth.as_ref().ok_or("synthetic truth")?;
            let h = paper_rate(n, PAPER_DIM)?;
            let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h)?;
            let problem = Problem::new(w, ssl.labels.clone())?;
            for (k, &lambda) in lambdas.iter().enumerate() {
                let scores = if lambda == 0.0 {
                    HardCriterion::new().fit(&problem)?
                } else {
                    SoftCriterion::new(lambda)?.fit(&problem)?
                };
                sums[k] += rmse(truth, scores.unlabeled())?;
            }
        }
        let avg = sums.map(|s| s / reps as f64);
        println!(
            "{n:>6}  {:>10.4}  {:>10.4}  {:>10.4}",
            avg[0], avg[1], avg[2]
        );
    }

    println!("\nExpected pattern (Theorem II.1 + Figure 1): each column falls");
    println!("with n, and the hard column stays below the soft ones.");
    Ok(())
}
