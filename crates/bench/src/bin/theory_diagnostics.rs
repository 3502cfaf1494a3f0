//! Watches the quantities from the proof of Theorem II.1 converge: the
//! tiny-element bound `‖D₂₂⁻¹W₂₂‖_max`, the Neumann spectral radius, the
//! hard-vs-Nadaraya–Watson coupling gap, and the regime ratio
//! `m/(n h_n^d)` — all as functions of `n` (consistent regime) and of `m`
//! (the regime the paper conjectures inconsistent).

use gssl::theory::TheoryDiagnostics;
use gssl::Problem;
use gssl_bench::runner::CliArgs;
use gssl_datasets::synthetic::{paper_dataset, PaperModel, PAPER_DIM};
use gssl_graph::{affinity::affinity_matrix, bandwidth::paper_rate, Kernel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn diagnostics_for(
    n: usize,
    m: usize,
    seed: u64,
) -> Result<TheoryDiagnostics, Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = paper_dataset(PaperModel::Linear, n + m, &mut rng)?;
    let ssl = ds.arrange_prefix(n)?;
    let h = paper_rate(n, PAPER_DIM)?;
    let w = affinity_matrix(&ssl.inputs, Kernel::Gaussian, h)?;
    let problem = Problem::new(w, ssl.labels.clone())?;
    Ok(TheoryDiagnostics::compute(&problem, h, PAPER_DIM)?)
}

fn print_row(label: &str, d: &TheoryDiagnostics) {
    println!(
        "{label:>14}  {:>12.5}  {:>10.4}  {:>12.5}  {:>12.5}  {:>10.4}",
        d.substochastic_max,
        d.spectral_radius,
        d.coupling_gap_max,
        d.solution_gap_max,
        d.regime_ratio
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let seed = args.seed.unwrap_or(777);

    println!("== Theorem II.1 diagnostics (Model 1 inputs, Gaussian kernel) ==\n");
    println!(
        "{:>14}  {:>12}  {:>10}  {:>12}  {:>12}  {:>10}",
        "cell", "‖D22'W22‖max", "rho", "coupling", "hard-NW gap", "m/(n h^d)"
    );

    println!("\n-- consistent regime: m = 20 fixed, n grows --");
    let n_grid: &[usize] = if args.full {
        &[20, 50, 100, 200, 500, 1000, 2000]
    } else {
        &[20, 50, 100, 200, 500]
    };
    for &n in n_grid {
        let d = diagnostics_for(n, 20, seed)?;
        print_row(&format!("n={n}"), &d);
    }

    println!("\n-- conjectured-inconsistent regime: n = 100 fixed, m grows --");
    let m_grid: &[usize] = if args.full {
        &[10, 30, 100, 300, 600, 1000]
    } else {
        &[10, 30, 100, 300]
    };
    for &m in m_grid {
        let d = diagnostics_for(100, m, seed)?;
        print_row(&format!("m={m}"), &d);
    }

    println!("\nReading: every column shrinks down the first table (the proof's");
    println!("bounds bite as n grows) and the coupling/regime columns grow down");
    println!("the second (m outpacing n h^d breaks the argument).");
    Ok(())
}
