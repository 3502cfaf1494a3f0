//! The regression (continuous-response) path: recover `sin(2πx)` from
//! noisy labeled samples plus an unlabeled pool, and render the fit as an
//! ASCII strip chart.
//!
//! The paper's theory covers continuous responses too — `E[Y|X]` is the
//! regression function — and the hard criterion inherits Nadaraya–Watson's
//! consistency for it.
//!
//! ```text
//! cargo run --release --example regression_sinusoid
//! ```

use gssl::{HardCriterion, Problem};
use gssl_datasets::synthetic::sinusoidal_regression;
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, m) = (200, 60);
    let mut rng = StdRng::seed_from_u64(7);
    let ds = sinusoidal_regression(n + m, 0.25, &mut rng)?;
    let ssl = ds.arrange_prefix(n)?;
    let truth = ssl.hidden_truth.as_ref().ok_or("synthetic truth")?;

    let h = paper_rate(n, 1)?;
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h)?;
    let problem = Problem::new(w, ssl.labels.clone())?;
    let scores = HardCriterion::new().fit(&problem)?;

    let error = rmse(truth, scores.unlabeled())?;
    println!("recovered sin(2πx) from {n} noisy labels (noise σ = 0.25)");
    println!("RMSE against the true regression function on {m} unlabeled points: {error:.4}\n");

    // ASCII strip chart: x binned into 60 columns, '#' = prediction,
    // '.' = truth, rows span [-1.2, 1.2].
    let columns = 60;
    let rows = 15;
    let mut chart = vec![vec![' '; columns]; rows];
    let to_row = |v: f64| -> usize {
        let clamped = v.clamp(-1.2, 1.2);
        ((1.2 - clamped) / 2.4 * (rows as f64 - 1.0)).round() as usize
    };
    for (i, (&q, &f)) in truth.iter().zip(scores.unlabeled()).enumerate() {
        let x = ssl.inputs.get(n + i, 0);
        let col = ((x * (columns as f64 - 1.0)).round() as usize).min(columns - 1);
        chart[to_row(q)][col] = '.';
        chart[to_row(f)][col] = '#';
    }
    for row in &chart {
        let line: String = row.iter().collect();
        println!("|{line}|");
    }
    println!("  '#' = hard-criterion prediction, '.' = true sin(2πx)\n");

    assert!(error < 0.25, "fit should beat the noise level");
    println!("prediction error ({error:.3}) is below the label noise (0.25) ✓");
    Ok(())
}
