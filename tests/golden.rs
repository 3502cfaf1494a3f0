//! Golden digests: the output bits of the graph assembly, solver and
//! serving routes, pinned across commits.
//!
//! `tests/determinism.rs` pins bit identity across worker counts within
//! one build; this suite pins it against a committed record. Each route
//! runs on a small seeded input and is hashed with FNV-1a-64: a CSR over
//! its shape, row pointers, column ids and value bits; a dense matrix
//! over its entry bits; a solve over its output bits (and iteration
//! count); a symmetry check over its verdicts; a serving fit over its
//! scores and predictions.
//! The digests live in `tests/golden.digests`, one `name digest` pair per
//! line. A mismatch lists every changed, missing and new name, with the
//! old and new digest, and prints the full recomputed file.
//!
//! Changing `tests/golden.digests` declares a change of output bits. The
//! Gaussian weights call the platform's `f64::exp`, so the record holds
//! for one target and libm.

#![allow(
    clippy::expect_used,
    reason = "helpers outside #[test] functions build known-valid fixtures; a failure fails the test"
)]

use gssl::{
    Error, HardCriterion, HardSolver, LabelPropagation, OneVsRest, Problem, SoftCriterion,
    SweepKind, TransductiveModel,
};
use gssl_graph::affinity::{affinity_from_distances, affinity_matrix, pairwise_squared_distances};
use gssl_graph::{
    epsilon_graph, epsilon_graph_with, knn_graph, knn_graph_with, Kernel, KernelGraph,
    Symmetrization,
};
use gssl_linalg::{
    AmgCg, AmgOptions, CgOptions, CsrMatrix, Factorization, Matrix, SolverPolicy, SparseStrategy,
    Vector,
};
use gssl_runtime::Executor;
use gssl_serve::{EngineConfig, QueryPoint, ServingEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Worker counts every route that takes an executor runs at.
const WORKERS: [usize; 2] = [1, 4];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for x in xs {
            self.u64(x.to_bits());
        }
    }
}

/// Shape, row pointers, column ids, then value bits, through the public
/// row walk only.
fn csr_digest(m: &CsrMatrix) -> u64 {
    let mut h = Fnv::new();
    h.usize(m.rows());
    h.usize(m.cols());
    let mut end = 0;
    h.usize(end);
    for i in 0..m.rows() {
        end += m.row_iter(i).count();
        h.usize(end);
    }
    for i in 0..m.rows() {
        for (j, _) in m.row_iter(i) {
            h.usize(j);
        }
    }
    for i in 0..m.rows() {
        for (_, v) in m.row_iter(i) {
            h.u64(v.to_bits());
        }
    }
    h.0
}

fn bits_digest(xs: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.f64s(xs);
    h.0
}

/// A seeded cloud in the unit cube.
fn cloud(seed: u64, n: usize, d: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d).map(|_| rng.gen::<f64>()).collect();
    Matrix::from_vec(n, d, data).expect("cloud shape")
}

/// Values whose duplicate sums depend on summation order, signed zeros,
/// and values that cancel exactly.
const PALETTE: [f64; 8] = [1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 0.5, 3.25];

fn seeded_triplets(
    rng: &mut StdRng,
    rows: usize,
    cols: usize,
    count: usize,
) -> Vec<(usize, usize, f64)> {
    (0..count)
        .map(|_| {
            let v = if rng.gen_range(0..4usize) == 0 {
                rng.gen::<f64>() * 2.0 - 1.0
            } else {
                PALETTE[rng.gen_range(0..PALETTE.len())]
            };
            (rng.gen_range(0..rows), rng.gen_range(0..cols), v)
        })
        .collect()
}

/// The interior hard-criterion system of a `(side+2)²` 4-neighbor
/// lattice: seeded edge weights in `[0.5, 1.5)`, so Galerkin sums depend
/// on their order, and the boundary ring folded into the diagonal as
/// weight-one edges.
fn lattice_system(side: usize) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(0x601D_0006);
    let id = |r: usize, c: usize| (r - 1) * side + (c - 1);
    let n = side * side;
    let mut diagonal = vec![0.0; n];
    let mut triplets = Vec::new();
    for r in 1..=side {
        for c in 1..=side {
            let a = id(r, c);
            for (rr, cc) in [(r + 1, c), (r, c + 1)] {
                if rr <= side && cc <= side {
                    let w = 0.5 + rng.gen::<f64>();
                    let b = id(rr, cc);
                    triplets.push((a, b, -w));
                    triplets.push((b, a, -w));
                    diagonal[a] += w;
                    diagonal[b] += w;
                }
            }
            for (rr, cc) in [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)] {
                if !(1..=side).contains(&rr) || !(1..=side).contains(&cc) {
                    diagonal[a] += 1.0;
                }
            }
        }
    }
    triplets.extend(diagonal.iter().enumerate().map(|(a, &d)| (a, a, d)));
    CsrMatrix::from_triplets(n, n, &triplets).expect("lattice ids in range")
}

/// The kNN problem every solver route runs on: a Gaussian union graph
/// over 400 seeded points, one in ten labeled (labeled first).
fn knn_problem() -> Problem {
    let points = cloud(0x601D_0003, 400, 3);
    let graph =
        knn_graph(&points, 8, Kernel::Gaussian, 0.2, Symmetrization::Union).expect("knn graph");
    let labels: Vec<f64> = (0..40).map(|i| (i % 3) as f64 * 0.5).collect();
    Problem::new(graph, labels).expect("knn problem")
}

fn cg(tolerance: f64) -> CgOptions {
    CgOptions {
        max_iterations: 5_000,
        tolerance,
    }
}

/// Every route's digest, by name.
fn digests() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let mut put = |name: String, digest: u64| {
        assert!(
            out.insert(name.clone(), digest).is_none(),
            "duplicate {name}"
        );
    };

    // kNN graphs: brute force, then the spatial index at each worker count.
    let points = cloud(0x601D_0001, 300, 3);
    for (tag, sym) in [
        ("union", Symmetrization::Union),
        ("mutual", Symmetrization::Mutual),
    ] {
        let brute = knn_graph(&points, 7, Kernel::Gaussian, 0.15, sym).expect("knn");
        put(format!("knn.{tag}.brute"), csr_digest(&brute));
        for w in WORKERS {
            let ex = Executor::with_workers(w);
            let g = knn_graph_with(&points, 7, Kernel::Gaussian, 0.15, sym, &ex).expect("knn");
            put(format!("knn.{tag}.index.w{w}"), csr_digest(&g));
        }
    }

    // ε-graphs with a smooth and a compact kernel.
    let points = cloud(0x601D_0002, 250, 2);
    for (tag, kernel) in [("gaussian", Kernel::Gaussian), ("boxcar", Kernel::Boxcar)] {
        for w in WORKERS {
            let ex = Executor::with_workers(w);
            let g = epsilon_graph_with(&points, 0.12, kernel, 0.1, &ex).expect("epsilon graph");
            put(format!("epsilon.{tag}.w{w}"), csr_digest(&g));
        }
        let g = epsilon_graph(&points, 0.12, kernel, 0.1).expect("epsilon graph");
        put(format!("epsilon.{tag}.sequential"), csr_digest(&g));
    }

    // The Eq. 5 and Eq. 3 systems of the kNN problem.
    let problem = knn_problem();
    let eq5 = problem.unlabeled_system_csr().expect("eq5");
    put("system.eq5".to_owned(), csr_digest(&eq5));
    let eq3 = problem.soft_system_csr(0.7).expect("eq3");
    put("system.eq3".to_owned(), csr_digest(&eq3));

    // Seeded assembly, with duplicates and cancelling groups, and its
    // transpose; also the transpose of a graph.
    let mut rng = StdRng::seed_from_u64(0x601D_0004);
    let mut assembled = Fnv::new();
    let mut transposed = Fnv::new();
    for _ in 0..40 {
        let rows = rng.gen_range(1..12usize);
        let cols = rng.gen_range(1..15usize);
        let count = rng.gen_range(0..200usize);
        let triplets = seeded_triplets(&mut rng, rows, cols, count);
        let m = CsrMatrix::from_triplets(rows, cols, &triplets).expect("in range");
        assembled.u64(csr_digest(&m));
        transposed.u64(csr_digest(&m.transpose()));
    }
    let triplets = seeded_triplets(&mut rng, 500, 300, 20_000);
    let m = CsrMatrix::from_triplets(500, 300, &triplets).expect("in range");
    assembled.u64(csr_digest(&m));
    transposed.u64(csr_digest(&m.transpose()));
    put("from_triplets.seeded".to_owned(), assembled.0);
    put("transpose.seeded".to_owned(), transposed.0);
    put("transpose.eq5".to_owned(), csr_digest(&eq5.transpose()));

    // Symmetry verdicts on a fixed list of matrices and tolerances.
    let zero_stored = [(0, 1, 1.0), (0, 1, -1.0), (1, 0, 2.0)];
    type Triplets = Vec<(usize, usize, f64)>;
    let cases: Vec<(usize, usize, Triplets)> = vec![
        (2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]),
        (2, 2, vec![(0, 1, 1.0)]),
        (2, 2, vec![(0, 1, 1.0), (1, 0, 1.0 + 1e-10)]),
        (2, 2, zero_stored.to_vec()),
        (2, 2, vec![(0, 1, f64::NAN), (1, 0, f64::NAN)]),
        (2, 2, vec![(0, 1, f64::INFINITY), (1, 0, f64::INFINITY)]),
        (2, 2, vec![(0, 0, -0.0), (1, 1, 3.0)]),
        (
            3,
            3,
            vec![(0, 2, 1.0), (2, 0, 1.0), (1, 1, 1.0), (1, 2, 1e-12)],
        ),
        (2, 3, vec![(0, 1, 1.0)]),
        (0, 0, vec![]),
    ];
    let mut verdicts = Vec::new();
    for (rows, cols, triplets) in &cases {
        let m = CsrMatrix::from_triplets(*rows, *cols, triplets).expect("in range");
        for tol in [-1.0, 0.0, 1e-9, 1e-11, f64::NAN, f64::INFINITY] {
            verdicts.push(if m.is_symmetric(tol) { 1.0 } else { 0.0 });
        }
    }
    verdicts.push(if eq5.is_symmetric(1e-9) { 1.0 } else { 0.0 });
    put("is_symmetric.verdicts".to_owned(), bits_digest(&verdicts));

    // AMG-PCG on the 66×66 lattice (64² unknowns).
    let lattice = lattice_system(64);
    let mut rng = StdRng::seed_from_u64(0x601D_0005);
    let rhs = Vector::from(
        (0..lattice.rows())
            .map(|_| rng.gen::<f64>() - 0.5)
            .collect::<Vec<_>>(),
    );
    for w in WORKERS {
        let options = AmgOptions {
            cg: cg(1e-8),
            ..AmgOptions::default()
        };
        let amg =
            AmgCg::factor_sparse_with(&lattice, options, &Executor::with_workers(w)).expect("amg");
        let x = amg.solve(&rhs).expect("amg solve");
        let mut h = Fnv::new();
        h.f64s(x.as_slice());
        h.usize(amg.levels());
        h.usize(amg.last_iterations().unwrap_or(0));
        put(format!("amg.lattice66.w{w}"), h.0);
    }

    // AMG-PCG and the hard and soft fits on the kNN problem.
    let rhs = problem.unlabeled_rhs().expect("rhs");
    for w in WORKERS {
        let ex = Executor::with_workers(w);
        let options = AmgOptions {
            cg: cg(1e-10),
            ..AmgOptions::default()
        };
        let amg = AmgCg::factor_sparse_with(&eq5, options, &ex).expect("amg");
        let x = amg.solve(&rhs).expect("amg solve");
        let mut h = Fnv::new();
        h.f64s(x.as_slice());
        h.usize(amg.levels());
        h.usize(amg.last_iterations().unwrap_or(0));
        put(format!("amg.knn.w{w}"), h.0);

        let policy = SolverPolicy::with_cg(cg(1e-10)).with_executor(ex.clone());
        let hard = HardCriterion::new()
            .solver(HardSolver::Auto(policy.clone()))
            .with_executor(ex.clone())
            .fit(&problem)
            .expect("hard fit");
        put(format!("hard.knn.w{w}"), bits_digest(hard.all()));
        let soft = SoftCriterion::new(0.7)
            .expect("lambda")
            .policy(policy)
            .fit(&problem)
            .expect("soft fit");
        put(format!("soft.knn.w{w}"), bits_digest(soft.all()));
    }

    // Dense affinity assembly with a smooth and a compact kernel: the
    // free functions and the kernel graph, at each worker count.
    let points = cloud(0x601D_0007, 90, 3);
    let d2 = pairwise_squared_distances(&points).expect("distances");
    put("affinity.distances".to_owned(), bits_digest(d2.as_slice()));
    for (tag, kernel, h) in [
        ("gaussian", Kernel::Gaussian, 0.4),
        ("epanechnikov", Kernel::Epanechnikov, 0.35),
    ] {
        let w = affinity_from_distances(&d2, kernel, h).expect("affinity");
        put(
            format!("affinity.from_distances.{tag}"),
            bits_digest(w.as_slice()),
        );
        let w = affinity_matrix(&points, kernel, h).expect("affinity");
        put(format!("affinity.matrix.{tag}"), bits_digest(w.as_slice()));
        let graph = KernelGraph::fit(points.clone(), kernel, h).expect("graph");
        let w = graph.weights().expect("weights");
        put(
            format!("kernel_graph.weights.{tag}"),
            bits_digest(w.as_slice()),
        );
        for workers in WORKERS {
            let w = graph
                .weights_with(&Executor::with_workers(workers))
                .expect("weights");
            put(
                format!("kernel_graph.weights_with.{tag}.w{workers}"),
                bits_digest(w.as_slice()),
            );
        }
    }

    // Label propagation on a compact-kernel graph, whose dense weights
    // hold exact zeros, in both representations, and on the kNN graph;
    // both sweeps, hashing the scores and the sweep count.
    let points = cloud(0x601D_0008, 120, 2);
    let dense = affinity_matrix(&points, Kernel::Epanechnikov, 0.25).expect("affinity");
    let labels: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
    let problems = [
        (
            "dense",
            Problem::new(dense.clone(), labels.clone()).expect("problem"),
        ),
        (
            "csr",
            Problem::new(CsrMatrix::from_dense(&dense, 0.0), labels).expect("problem"),
        ),
        ("knn", knn_problem()),
    ];
    let sweeps = [
        ("jacobi", SweepKind::Simultaneous),
        ("gauss_seidel", SweepKind::InPlace),
    ];
    for (rep, problem) in &problems {
        for (tag, sweep) in sweeps {
            let (scores, sweeps_run) = LabelPropagation::new()
                .sweep(sweep)
                .fit_with_iterations(problem)
                .expect("propagation");
            let mut h = Fnv::new();
            h.f64s(scores.all());
            h.usize(sweeps_run);
            put(format!("propagation.{rep}.{tag}"), h.0);
        }
    }
    // An exhausted budget on CSR weights reports the residual of the
    // last iterate.
    for (tag, sweep) in sweeps {
        let outcome = LabelPropagation::new()
            .sweep(sweep)
            .max_iterations(7)
            .fit_with_iterations(&problems[2].1);
        let (iterations, residual) = match outcome {
            Err(Error::Linalg(gssl_linalg::Error::NotConverged {
                iterations,
                residual,
            })) => Some((iterations, residual)),
            _ => None,
        }
        .expect("an exhausted sweep budget");
        let mut h = Fnv::new();
        h.usize(iterations);
        h.u64(residual.to_bits());
        put(format!("propagation.knn.exhausted.{tag}"), h.0);
    }

    // The hard fit through the Jacobi-CG and propagation routes, on both
    // representations, and the multiclass fit over the dense weights.
    for workers in WORKERS {
        let ex = Executor::with_workers(workers);
        for (rep, problem) in &problems[..2] {
            let scores = hard_jacobi_cg(ex.clone()).fit(problem).expect("cg fit");
            put(
                format!("hard.jacobi_cg.{rep}.w{workers}"),
                bits_digest(scores.all()),
            );
        }
    }
    for (rep, problem) in &problems[..2] {
        for (tag, sweep) in sweeps {
            let scores = LabelPropagation::new()
                .sweep(sweep)
                .fit(problem)
                .expect("propagation fit");
            put(
                format!("hard.propagation.{rep}.{tag}"),
                bits_digest(scores.all()),
            );
        }
    }
    let classes: Vec<usize> = (0..20).map(|i| i % 3).collect();
    let scores = hard_jacobi_cg(Executor::Sequential)
        .fit_multiclass(&dense, &classes, 3)
        .expect("multiclass cg");
    put(
        "multiclass.jacobi_cg".to_owned(),
        bits_digest(scores.scores().as_slice()),
    );
    for (tag, sweep) in sweeps {
        let scores = OneVsRest::new(LabelPropagation::new().sweep(sweep), 3)
            .expect("three classes")
            .fit(&dense, &classes)
            .expect("multiclass propagation");
        put(
            format!("multiclass.propagation.{tag}"),
            bits_digest(scores.scores().as_slice()),
        );
    }

    // A one-shard serving fit at two workers: its fitted scores, then
    // out-of-sample predictions.
    let points = cloud(0x601D_0009, 150, 2);
    let labels: Vec<f64> = (0..30).map(|i| (i % 2) as f64).collect();
    for (tag, kernel, h) in [
        ("gaussian", Kernel::Gaussian, 0.3),
        ("epanechnikov", Kernel::Epanechnikov, 0.3),
    ] {
        let config = EngineConfig::new(kernel, h).workers(2);
        let engine = ServingEngine::fit(&points, &labels, config).expect("engine fit");
        let queries: Vec<QueryPoint> = cloud(0x601D_000A, 25, 2)
            .as_slice()
            .chunks(2)
            .map(|q| QueryPoint::new(q.to_vec()))
            .collect();
        let predictions = engine.predict_batch(&queries).expect("predictions");
        let mut h = Fnv::new();
        h.f64s(engine.scores().as_slice());
        for p in &predictions {
            h.usize(p.class);
            h.u64(p.score.to_bits());
            h.f64s(&p.per_class);
        }
        put(format!("serve.single.{tag}.w2"), h.0);
    }
    out
}

/// The hard criterion on the Jacobi-preconditioned CG route.
fn hard_jacobi_cg(executor: Executor) -> HardCriterion {
    HardCriterion::new()
        .solver(HardSolver::Auto(SolverPolicy {
            sparse: SparseStrategy::Jacobi,
            ..SolverPolicy::with_cg(cg(1e-10))
        }))
        .with_executor(executor)
}

fn render(digests: &BTreeMap<String, u64>) -> String {
    digests
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}\n"))
        .collect()
}

#[test]
fn output_bits_match_the_committed_digests() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden.digests");
    let got = digests();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut want = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut fields = line.split_whitespace();
        let (Some(name), Some(hex), None) = (fields.next(), fields.next(), fields.next()) else {
            panic!("malformed line in {}: {line:?}", path.display());
        };
        let digest = u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("malformed digest in {}: {line:?}", path.display()));
        want.insert(name.to_owned(), digest);
    }

    let mut problems = Vec::new();
    for (name, old) in &want {
        match got.get(name) {
            Some(new) if new == old => {}
            Some(new) => problems.push(format!("changed {name}: {old:016x} -> {new:016x}")),
            None => problems.push(format!("missing {name}: {old:016x} (route no longer run)")),
        }
    }
    for (name, new) in &got {
        if !want.contains_key(name) {
            problems.push(format!("new {name}: {new:016x} (not in the record)"));
        }
    }
    assert!(
        problems.is_empty(),
        "output bits differ from {}:\n  {}\n\nrecomputed file:\n{}",
        path.display(),
        problems.join("\n  "),
        render(&got)
    );
}
