//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Kernel family** — the paper's experiments use the Gaussian RBF,
//!    which violates the compact-support condition (ii) of Theorem II.1;
//!    the compactly supported kernels satisfy all three conditions. Does
//!    the choice matter in practice?
//! 2. **Bandwidth rule** — the paper's `(log n/n)^{1/d}` rate vs the
//!    median heuristic vs Silverman's rule.
//! 3. **Criterion variant** — hard vs Nadaraya–Watson vs LLGC (Zhou et
//!    al., the paper's reference \[12\]) vs the soft criterion.

use gssl::{
    HardCriterion, LocalGlobalConsistency, NadarayaWatson, PLaplacian, Problem, SoftCriterion,
    TransductiveModel,
};
use gssl_bench::runner::CliArgs;
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, Bandwidth, Kernel};
use gssl_stats::metrics::rmse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn average_rmse(
    kernel: Kernel,
    bandwidth: Bandwidth,
    model: &dyn TransductiveModel,
    n: usize,
    m: usize,
    reps: u64,
    seed: u64,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut total = 0.0;
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(seed + rep);
        let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng)?;
        let ssl = ds.arrange_prefix(n)?;
        let truth = ssl.hidden_truth.as_ref().ok_or("synthetic truth")?;
        let h = bandwidth.resolve(&ssl.inputs, Some(n))?;
        let w = affinity_matrix(&ssl.inputs, kernel, h)?;
        let problem = Problem::new(w, ssl.labels.clone())?;
        let scores = model.fit(&problem)?;
        total += rmse(truth, scores.unlabeled())?;
    }
    Ok(total / reps as f64)
}

fn run(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let reps = args.repetitions.unwrap_or(20) as u64;
    let seed = args.seed.unwrap_or(1357);
    let (n, m) = (200, 30);
    let hard = HardCriterion::new();

    println!("== Ablation 1: kernel family (hard criterion, n = {n}, m = {m}, {reps} reps) ==");
    println!(
        "{:>14} {:>12} {:>12} {:>22}",
        "kernel", "RMSE @ h_n", "RMSE @ 3h_n", "meets Thm II.1 (i-iii)"
    );
    let h_n = gssl_graph::bandwidth::paper_rate(n, PAPER_DIM)?;
    for kernel in Kernel::all() {
        // At the paper's bandwidth compact kernels may strand vertices
        // (their support is finite); report instead of aborting — that IS
        // a finding. At 3x the rate every kernel connects.
        let narrow = average_rmse(kernel, Bandwidth::Fixed(h_n), &hard, n, m, reps, seed)
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|_| "stranded".to_owned());
        let wide = average_rmse(kernel, Bandwidth::Fixed(3.0 * h_n), &hard, n, m, reps, seed)
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|_| "stranded".to_owned());
        println!(
            "{:>14} {:>12} {:>12} {:>22}",
            kernel.to_string(),
            narrow,
            wide,
            kernel.satisfies_consistency_conditions()
        );
    }

    println!("\n== Ablation 2: bandwidth rule (Gaussian, hard criterion) ==");
    println!("{:>18} {:>10}", "rule", "RMSE");
    let rules: [(&str, Bandwidth); 3] = [
        ("paper rate", Bandwidth::PaperRate),
        ("median heuristic", Bandwidth::MedianHeuristic),
        ("silverman", Bandwidth::Silverman),
    ];
    for (name, rule) in rules {
        let value = average_rmse(Kernel::Gaussian, rule, &hard, n, m, reps, seed)?;
        println!("{name:>18} {value:>10.4}");
    }

    println!("\n== Ablation 3: criterion variant (Gaussian, paper-rate bandwidth) ==");
    println!("{:>38} {:>10}", "criterion", "RMSE");
    let models: Vec<Box<dyn TransductiveModel>> = vec![
        Box::new(HardCriterion::new()),
        Box::new(NadarayaWatson::new()),
        Box::new(SoftCriterion::new(0.1)?),
        Box::new(SoftCriterion::new(5.0)?),
        Box::new(LocalGlobalConsistency::new(0.5)?),
        Box::new(LocalGlobalConsistency::new(0.99)?),
        Box::new(PLaplacian::new(1.5)?),
        Box::new(PLaplacian::new(3.0)?),
    ];
    for model in &models {
        let value = average_rmse(
            Kernel::Gaussian,
            Bandwidth::PaperRate,
            model.as_ref(),
            n,
            m,
            reps,
            seed,
        )?;
        println!("{:>38} {value:>10.4}", model.name());
    }

    println!("\nReading: (1) the Gaussian kernel's compact-support violation is");
    println!("harmless here — compact kernels behave comparably when their support");
    println!("covers enough neighbours, and strand vertices when it does not;");
    println!("(2) the paper-rate bandwidth is competitive with data-driven rules;");
    println!("(3) the hard criterion and Nadaraya–Watson track each other (the");
    println!("coupling of Theorem II.1), and heavily smoothed variants trail.");
    Ok(())
}

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Err(error) = run(&args) {
        eprintln!("ablation failed: {error}");
        std::process::exit(1);
    }
}
