//! Criterion timings of single experiment repetitions for every figure —
//! the per-cell cost behind the `fig*` binaries.

#![allow(
    clippy::expect_used,
    reason = "a Criterion timing closure cannot return an error; a failed setup or iteration aborts the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gssl_bench::experiment::{CoilConfig, LabeledRatio, SyntheticConfig, SYNTHETIC_LAMBDAS};
use gssl_datasets::synthetic::PaperModel;

fn synthetic_cell(model: PaperModel, n: usize, m: usize) -> SyntheticConfig {
    SyntheticConfig {
        model,
        n_labeled: n,
        n_unlabeled: m,
        lambdas: SYNTHETIC_LAMBDAS.to_vec(),
        repetitions: 1,
        seed: 99,
    }
}

fn bench_fig1_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_repetition");
    group.sample_size(10);
    for &n in &[30usize, 100, 300] {
        let config = synthetic_cell(PaperModel::Linear, n, 30);
        group.bench_with_input(BenchmarkId::from_parameter(n), &config, |b, cfg| {
            b.iter(|| cfg.run_once(0).expect("repetition succeeds"));
        });
    }
    group.finish();
}

fn bench_fig2_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_repetition");
    group.sample_size(10);
    for &m in &[30usize, 100, 300] {
        let config = synthetic_cell(PaperModel::Linear, 100, m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &config, |b, cfg| {
            b.iter(|| cfg.run_once(0).expect("repetition succeeds"));
        });
    }
    group.finish();
}

fn bench_model2_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_fig4_model2_repetition");
    group.sample_size(10);
    // Model 2 shares Figure 1/2's pipeline; one representative cell each.
    let fig3 = synthetic_cell(PaperModel::Interaction, 100, 30);
    group.bench_function("fig3_n100_m30", |b| {
        b.iter(|| fig3.run_once(0).expect("repetition succeeds"));
    });
    let fig4 = synthetic_cell(PaperModel::Interaction, 100, 100);
    group.bench_function("fig4_n100_m100", |b| {
        b.iter(|| fig4.run_once(0).expect("repetition succeeds"));
    });
    group.finish();
}

fn bench_fig5_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_repetition");
    group.sample_size(10);
    for ratio in LabeledRatio::all() {
        let config = CoilConfig {
            images_per_class: 15,
            lambdas: vec![0.0, 0.1, 5.0],
            repetitions: 1,
            seed: 5,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(ratio.label()),
            &config,
            |b, cfg| {
                b.iter(|| cfg.run_once(ratio, 0).expect("repetition succeeds"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1_cells,
    bench_fig2_cells,
    bench_model2_cells,
    bench_fig5_cells
);
criterion_main!(benches);
