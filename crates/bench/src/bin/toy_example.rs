//! Executes the paper's Section III toy example: when every input is the
//! same constant, the Gaussian RBF similarity matrix is all-ones and the
//! hard criterion's closed form collapses to the labeled mean on every
//! unlabeled point — "the best solution one can expect".
//!
//! The binary prints the explicit `(D₂₂ − W₂₂)⁻¹` entries next to the
//! paper's closed form `(n+1)/(n(m+n))` / `1/(n(m+n))` and verifies the
//! resulting predictions.

use gssl::{HardCriterion, Problem};
use gssl_linalg::{inverse, Matrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5; // labeled
    let m = 3; // unlabeled
    let labels = vec![1.0, 0.0, 1.0, 1.0, 0.0];
    let label_mean: f64 = labels.iter().sum::<f64>() / n as f64;

    // All inputs identical => all pairwise distances 0 => w_ij ≡ 1.
    let w = Matrix::filled(n + m, n + m, 1.0);
    let problem = Problem::new(w, labels)?;

    println!("== Section III toy example: identical inputs ==");
    println!("n = {n} labeled, m = {m} unlabeled, label mean = {label_mean:.4}\n");

    let system = problem.unlabeled_system()?;
    let inv = inverse(&system)?;
    let nf = n as f64;
    let total = (n + m) as f64;
    println!("(D22 - W22)^-1 measured vs closed form:");
    let mut worst = 0.0f64;
    for a in 0..m {
        for b in 0..m {
            let expected = if a == b {
                (nf + 1.0) / (nf * total)
            } else {
                1.0 / (nf * total)
            };
            worst = worst.max((inv.get(a, b) - expected).abs());
        }
    }
    println!(
        "  diagonal:     {:.6} (paper: (n+1)/(n(m+n)) = {:.6})",
        inv.get(0, 0),
        (nf + 1.0) / (nf * total)
    );
    println!(
        "  off-diagonal: {:.6} (paper: 1/(n(m+n))     = {:.6})",
        inv.get(0, 1),
        1.0 / (nf * total)
    );
    println!("  max |measured - closed form| = {worst:.2e}\n");

    let scores = HardCriterion::new().fit(&problem)?;
    println!("hard-criterion predictions on unlabeled points:");
    for (a, &s) in scores.unlabeled().iter().enumerate() {
        println!("  f[n+{a}] = {s:.6} (expected label mean {label_mean:.6})");
    }
    let max_gap = scores
        .unlabeled()
        .iter()
        .map(|s| (s - label_mean).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |prediction - label mean| = {max_gap:.2e}");
    assert!(worst < 1e-10 && max_gap < 1e-10, "toy example check failed");
    println!("toy example verified ✓");
    Ok(())
}
