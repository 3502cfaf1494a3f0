//! The matrix-free path at a scale where dense solves get painful: a kNN
//! graph over several thousand two-moons points, solved by the
//! policy-selected sparse backend (preconditioned CG or AMG, chosen from
//! the system's size and bandwidth) and by label propagation without
//! ever materializing a dense matrix.
//!
//! ```text
//! cargo run --release --example sparse_large_scale
//! ```

use gssl::{HardCriterion, HardSolver, LabelPropagation, Problem};
use gssl_datasets::synthetic::two_moons;
use gssl_graph::{knn_graph, Kernel, Symmetrization};
use gssl_linalg::{CsrMatrix, SolverPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total = 2000;
    let mut rng = StdRng::seed_from_u64(123);
    let ds = two_moons(total, 0.05, &mut rng)?;
    // One label per moon, mid-arc.
    let ssl = ds.arrange(&[total / 4, 3 * total / 4])?;

    let t0 = Instant::now();
    let graph = knn_graph(
        &ssl.inputs,
        12,
        Kernel::Gaussian,
        0.2,
        Symmetrization::Union,
    )?;
    println!(
        "kNN graph: {} vertices, {} edges ({:.1?}) — density {:.4}%",
        total,
        graph.nnz() / 2,
        t0.elapsed(),
        100.0 * graph.nnz() as f64 / (total * total) as f64
    );

    // The unified Problem holds the CSR graph directly; every criterion
    // below runs matrix-free on it.
    let problem = Problem::new(graph, ssl.labels.clone())?;
    let truth = ssl.hidden_targets_binary();

    // The solver policy inspects the Eq. 5 system's size and density and
    // picks the backend: dense direct for small or dense systems, AMG for
    // large sparse graphs like this one, whatever their bandwidth.
    let policy = SolverPolicy::default();
    let system: CsrMatrix = problem.unlabeled_system_csr()?;
    println!(
        "policy on the {}-dim system (bandwidth {}): {}",
        system.rows(),
        system.bandwidth(),
        policy.select_sparse(&system).as_str()
    );

    let t1 = Instant::now();
    let cg_scores = HardCriterion::new()
        .solver(HardSolver::Auto(policy))
        .fit(&problem)?;
    let cg_time = t1.elapsed();

    // Jacobi sweeps converge slowly on long chain-like manifolds (the
    // spectral gap is tiny), so this takes thousands of sweeps where CG
    // needs a few hundred matvecs — which is the point of the comparison.
    let t2 = Instant::now();
    let (prop_scores, sweeps) = LabelPropagation::new()
        .max_iterations(200_000)
        .tolerance(1e-8)
        .fit_with_iterations(&problem)?;
    let prop_time = t2.elapsed();

    let accuracy = |scores: &gssl::Scores| {
        scores
            .unlabeled_predictions(0.5)
            .iter()
            .zip(&truth)
            .filter(|(p, t)| p == t)
            .count() as f64
            / truth.len() as f64
    };

    println!(
        "policy-selected fit: {:.1?}, accuracy {:.2}%",
        cg_time,
        accuracy(&cg_scores) * 100.0
    );
    println!(
        "label propagation:   {:.1?} ({sweeps} sweeps), accuracy {:.2}%",
        prop_time,
        accuracy(&prop_scores) * 100.0
    );

    let gap = cg_scores
        .unlabeled()
        .iter()
        .zip(prop_scores.unlabeled())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max CG-vs-propagation gap: {gap:.2e}");

    assert!(
        accuracy(&cg_scores) > 0.95,
        "two moons at scale should solve"
    );
    println!("\n{total} points classified from 2 labels, no dense matrix built ✓");
    Ok(())
}
