//! Seeded input generators. Every input a workload consumes is made here,
//! before any clock starts, and depends only on the seed and the size.

use gssl_linalg::{CsrMatrix, Matrix};
use gssl_serve::QueryPoint;
use rand::dist::PoissonProcess;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Independent generator streams per input, so changing how one input is
/// drawn never shifts another.
fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Roberts' R3 low-discrepancy cloud of `n` points in the unit cube,
/// shifted by a seeded offset: well spread (unlike a single-multiplier
/// recurrence, which would collapse onto a line and flatter the tree) and
/// fully determined by the seed.
pub fn r3_cloud(n: usize, seed: u64) -> Matrix {
    const ALPHA: [f64; 3] = [
        0.819_172_513_396_164_4,
        0.671_043_606_703_789_2,
        0.549_700_477_901_936_5,
    ];
    let mut rng = stream(seed, 1);
    let offset: [f64; 3] = [rng.gen(), rng.gen(), rng.gen()];
    Matrix::from_fn(n, 3, |i, j| {
        (offset[j] + ALPHA[j] * (i as f64 + 1.0)).fract()
    })
}

/// Seeded binary labels for the first `count` vertices.
pub fn binary_labels(count: usize, seed: u64) -> Vec<f64> {
    let mut rng = stream(seed, 2);
    (0..count)
        .map(|_| f64::from(u8::from(rng.gen_bool(0.5))))
        .collect()
}

/// The hard-criterion lattice: a `(side+2)²` unit-weight 4-neighbor grid
/// whose boundary ring is labeled first, in ring order, with seeded arc
/// labels (the ring is cut at eight seeded points and each arc gets one
/// seeded value in `[0, 1)`). The interior follows in row-major order, so
/// the unlabeled system's CSR bandwidth equals `side`.
pub fn lattice(side: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let width = side + 2;
    let ring = 4 * (side + 1);
    // Ring walk: top row left to right, right column down, bottom row
    // right to left, left column up.
    let mut id = vec![usize::MAX; width * width];
    let mut next = 0;
    let mut visit = |r: usize, c: usize| {
        id[r * width + c] = next;
        next += 1;
    };
    for c in 0..width {
        visit(0, c);
    }
    for r in 1..width {
        visit(r, width - 1);
    }
    for c in (0..width - 1).rev() {
        visit(width - 1, c);
    }
    for r in (1..width - 1).rev() {
        visit(r, 0);
    }
    for r in 1..=side {
        for c in 1..=side {
            id[r * width + c] = ring + (r - 1) * side + (c - 1);
        }
    }
    let mut triplets = Vec::with_capacity(4 * width * width);
    for r in 0..width {
        for c in 0..width {
            let a = id[r * width + c];
            if c + 1 < width {
                let b = id[r * width + c + 1];
                triplets.push((a, b, 1.0));
                triplets.push((b, a, 1.0));
            }
            if r + 1 < width {
                let b = id[(r + 1) * width + c];
                triplets.push((a, b, 1.0));
                triplets.push((b, a, 1.0));
            }
        }
    }
    let n = width * width;
    let weights = CsrMatrix::from_triplets(n, n, &triplets).expect("lattice ids are in range");

    let mut rng = stream(seed, 3);
    let mut cuts: Vec<usize> = (0..8).map(|_| rng.gen_range(0..ring)).collect();
    cuts.sort_unstable();
    let values: Vec<f64> = (0..cuts.len()).map(|_| rng.gen::<f64>()).collect();
    let labels = (0..ring)
        .map(|p| {
            // Position p lies on the arc that starts at the last cut <= p
            // (wrapping to the last arc before the first cut).
            let arc = cuts.iter().rposition(|&c| c <= p).unwrap_or(cuts.len() - 1);
            values[arc]
        })
        .collect();
    (weights, labels)
}

/// Everything the serving workload consumes.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Fitted points, labeled first: node `i` lies in cluster `i % clusters`.
    pub points: Matrix,
    /// Labels of the first `2 · clusters` nodes: one 0 and one 1 per cluster.
    pub labels: Vec<f64>,
    /// Pool of in-cluster out-of-sample queries; arrival `k` asks `k % len`.
    pub queries: Vec<QueryPoint>,
    /// Query due times in seconds from the start of traffic (Poisson).
    pub arrivals: Vec<f64>,
    /// Label arrivals: (due time, unlabeled node, label), Poisson in time,
    /// distinct nodes.
    pub folds: Vec<(f64, usize, f64)>,
    /// Probe queries for the agreement and restore checks.
    pub probes: Vec<QueryPoint>,
}

/// Shape of the serving workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Number of well-separated clusters (one graph component each).
    pub clusters: usize,
    /// Nodes per cluster.
    pub per_cluster: usize,
    /// Query arrival rate (queries per second).
    pub query_rate: f64,
    /// Label arrival rate (labels per second).
    pub fold_rate: f64,
    /// Number of label arrivals; the traffic lasts until the last is due.
    pub folds: usize,
}

/// Center of cluster `c`: a grid with spacing 10, far beyond the kernel
/// support, so clusters never share an edge.
fn cluster_center(c: usize) -> (f64, f64) {
    (10.0 * (c % 4) as f64, 10.0 * (c / 4) as f64)
}

/// The cluster whose unit square holds the 2-D point `p`.
pub fn cluster_of(p: &[f64]) -> usize {
    let col = (p[0] / 10.0).floor() as usize;
    let row = (p[1] / 10.0).floor() as usize;
    4 * row + col
}

/// Seeded serving inputs: clusters of R2-jittered points in unit squares,
/// Poisson query and label arrivals, and seeded queries and fold targets.
pub fn serve_inputs(shape: ServeShape, seed: u64) -> ServeInputs {
    const ALPHA: [f64; 2] = [0.754_877_666_246_692_7, 0.569_840_290_998_053_2];
    let clusters = shape.clusters;
    let total = clusters * shape.per_cluster;
    let mut rng = stream(seed, 4);
    let offsets: Vec<[f64; 2]> = (0..clusters).map(|_| [rng.gen(), rng.gen()]).collect();
    let points = Matrix::from_fn(total, 2, |i, j| {
        let c = i % clusters;
        let k = (i / clusters) as f64 + 1.0;
        let center = cluster_center(c);
        let base = if j == 0 { center.0 } else { center.1 };
        base + (offsets[c][j] + ALPHA[j] * k).fract()
    });
    let labels = (0..clusters)
        .map(|_| f64::from(u8::from(rng.gen_bool(0.5))))
        .flat_map(|y| [y, 1.0 - y])
        .collect::<Vec<_>>();
    // Node i < 2·clusters lies in cluster i % clusters: reorder the pairs
    // so cluster c holds labels[2c] at node c and labels[2c+1] at node c+clusters.
    let labels: Vec<f64> = (0..2 * clusters)
        .map(|i| labels[2 * (i % clusters) + i / clusters])
        .collect();

    let mut rng = stream(seed, 5);
    let in_cluster = |rng: &mut StdRng| {
        let (cx, cy) = cluster_center(rng.gen_range(0..clusters));
        QueryPoint::new(vec![cx + rng.gen::<f64>(), cy + rng.gen::<f64>()])
    };
    let queries: Vec<QueryPoint> = (0..4096).map(|_| in_cluster(&mut rng)).collect();
    let probes: Vec<QueryPoint> = (0..64).map(|_| in_cluster(&mut rng)).collect();

    let mut rng = stream(seed, 6);
    let mut fold_process = PoissonProcess::new(shape.fold_rate);
    let fold_times: Vec<f64> = (0..shape.folds)
        .map(|_| fold_process.next_arrival(&mut rng))
        .collect();
    let horizon = fold_times.last().copied().unwrap_or(0.0);
    let mut nodes: Vec<usize> = (labels.len()..total).collect();
    nodes.shuffle(&mut rng);
    let folds = fold_times
        .iter()
        .zip(&nodes)
        .map(|(&t, &node)| (t, node, f64::from(u8::from(rng.gen_bool(0.5)))))
        .collect();

    let mut rng = stream(seed, 7);
    let arrivals = PoissonProcess::new(shape.query_rate).arrivals_until(&mut rng, horizon);
    ServeInputs {
        points,
        labels,
        queries,
        arrivals,
        folds,
        probes,
    }
}
