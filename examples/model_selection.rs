//! Practical bandwidth selection: sweep h, read the graph diagnostics,
//! and validate on held-out labels.
//!
//! The paper removes the λ tuning burden (use the hard criterion), but the
//! bandwidth still matters: too small strands vertices, too large
//! collapses scores to the labeled mean (see the `spike_formation`
//! experiment). This example shows the workflow a practitioner follows:
//! `GraphReport` warnings first, then small-validation accuracy.
//!
//! ```text
//! cargo run --release --example model_selection
//! ```

use gssl::{HardCriterion, Problem};
use gssl_datasets::synthetic::two_moons;
use gssl_graph::{affinity::affinity_matrix, GraphReport, Kernel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(15);
    let ds = two_moons(240, 0.07, &mut rng)?;
    // 12 labeled points (6 per moon), the rest unlabeled. Use 6 of the 12
    // as a validation set: fit on 6, score the held-out 6.
    let train: Vec<usize> = (0..3).flat_map(|k| [k * 20, 120 + k * 20]).collect();
    let validation: Vec<usize> = (0..3).flat_map(|k| [10 + k * 20, 130 + k * 20]).collect();

    println!("two moons, 240 points, 6 train + 6 validation labels\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12}  notes",
        "h", "components", "saturation", "val. acc"
    );

    let mut best: Option<(f64, f64)> = None;
    for &h in &[0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 3.0, 10.0] {
        // Arrange with only the 6 training labels revealed; the validation
        // points are "unlabeled" to the solver but we know their truth.
        let ssl = ds.arrange(&train)?;
        let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h)?;
        let report = GraphReport::compute(&w, 1e-9)?;

        let note = report
            .warnings()
            .first()
            .cloned()
            .unwrap_or_else(|| "ok".to_owned());
        let accuracy =
            match Problem::new(w, ssl.labels.clone()).and_then(|p| HardCriterion::new().fit(&p)) {
                Ok(scores) => {
                    // Locate validation points inside the arranged order.
                    let mut correct = 0;
                    for &v in &validation {
                        let row = ssl
                            .original_order
                            .iter()
                            .position(|&o| o == v)
                            .ok_or("validation point present")?;
                        let predicted = scores.all()[row] >= 0.5;
                        if predicted == (ds.targets()[v] > 0.5) {
                            correct += 1;
                        }
                    }
                    let acc = correct as f64 / validation.len() as f64;
                    if best.is_none_or(|(_, b)| acc > b) {
                        best = Some((h, acc));
                    }
                    format!("{acc:.2}")
                }
                Err(error) => format!("fit failed: {error}"),
            };
        println!(
            "{h:>8} {:>10} {:>12.3} {:>12}  {}",
            report.component_count,
            report.saturation,
            accuracy,
            truncate(&note, 48)
        );
    }

    let (h_best, acc_best) = best.ok_or("at least one bandwidth fits")?;
    println!("\nselected h = {h_best} (validation accuracy {acc_best:.2})");
    assert!(
        acc_best >= 0.99,
        "some bandwidth should solve the validation set"
    );
    Ok(())
}

fn truncate(text: &str, limit: usize) -> String {
    if text.len() <= limit {
        text.to_owned()
    } else {
        format!("{}…", &text[..limit])
    }
}
