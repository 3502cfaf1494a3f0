//! Versioned binary snapshot/restore of a fitted [`ShardedEngine`].
//!
//! A snapshot captures everything a cold process needs to serve without
//! refitting: the engine configuration, the fitted points, the shard
//! plan, and — the expensive part — every shard's cached factorization
//! state (`system`, explicit `inverse`, `rhs`, `scores`, label
//! bookkeeping). Restore recomputes only the cheap `O(n²·d)` kernel
//! assembly (graph, weights, degrees, spatial index) and adopts the
//! cached factorizations verbatim, so restored predictions are
//! bitwise-identical to the snapshotted engine's and cold start skips
//! every `O(m³)` factorization.
//!
//! # Format
//!
//! Little-endian throughout. The layout is:
//!
//! ```text
//! magic  b"GSSLSNAP"                      8 bytes
//! version u32                             (currently 1)
//! config  kernel tag, bandwidth, criterion tag + lambda,
//!         refactor_every, residual_tolerance, workers,
//!         query-path tag + k
//! shape   multiclass flag, class_count, epoch, n_nodes, dim, k
//! points  n_nodes × dim f64
//! scores  n_nodes × k f64 (the published epoch's global plane)
//! shards  per shard: members, fit-time labeled count, then the
//!         shard state: labeled mask, targets, local unlabeled list,
//!         system, optional inverse, rhs, shard scores, update counter
//! trailer FNV-1a 64 checksum of all preceding bytes
//! ```
//!
//! Only the [`EngineSolver::Direct`] route is snapshottable: the policy
//! route's backend choice depends on a nine-field [`gssl_linalg`] policy
//! whose serialization is not stable, and its iterative backend keeps no
//! inverse to cache. Snapshotting an `Auto`-routed engine returns
//! [`Error::Snapshot`]. The version field gates every future layout
//! change: readers reject unknown versions instead of misparsing.

use crate::config::{EngineConfig, EngineSolver, QueryPath, ServeCriterion};
use crate::engine::ShardModel;
use crate::error::{Error, Result};
use crate::shard::ShardPlan;
use crate::sharded::ShardedEngine;
use gssl_graph::Kernel;
use gssl_linalg::Matrix;

/// Magic prefix identifying a serving-engine snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GSSLSNAP";
/// Current snapshot layout version.
pub const SNAPSHOT_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn matrix(&mut self, m: &Matrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                self.f64(m.get(i, j));
            }
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let checksum = fnv1a(&self.buf);
        self.u64(checksum);
        self.buf
    }
}

fn kernel_tag(kernel: Kernel) -> Result<u8> {
    match kernel {
        Kernel::Gaussian => Ok(0),
        Kernel::Epanechnikov => Ok(1),
        Kernel::Boxcar => Ok(2),
        Kernel::Triangular => Ok(3),
        Kernel::Tricube => Ok(4),
        Kernel::Quartic => Ok(5),
        other => Err(Error::Snapshot {
            message: format!("kernel {other:?} has no snapshot tag assigned"),
        }),
    }
}

fn kernel_from_tag(tag: u8) -> Result<Kernel> {
    match tag {
        0 => Ok(Kernel::Gaussian),
        1 => Ok(Kernel::Epanechnikov),
        2 => Ok(Kernel::Boxcar),
        3 => Ok(Kernel::Triangular),
        4 => Ok(Kernel::Tricube),
        5 => Ok(Kernel::Quartic),
        other => Err(Error::Snapshot {
            message: format!("unknown kernel tag {other}"),
        }),
    }
}

fn write_config(w: &mut Writer, config: &EngineConfig) -> Result<()> {
    if config.solver != EngineSolver::Direct {
        return Err(Error::Snapshot {
            message: "only EngineSolver::Direct engines are snapshottable \
                      (policy-routed backends keep no stable cached state)"
                .to_owned(),
        });
    }
    w.u8(kernel_tag(config.kernel)?);
    w.f64(config.bandwidth);
    match config.criterion {
        ServeCriterion::Hard => {
            w.u8(0);
            w.f64(0.0);
        }
        ServeCriterion::Soft { lambda } => {
            w.u8(1);
            w.f64(lambda);
        }
    }
    w.usize(config.refactor_every);
    w.f64(config.residual_tolerance);
    w.usize(config.workers);
    match config.query_path {
        QueryPath::Dense => {
            w.u8(0);
            w.usize(0);
        }
        QueryPath::KNearest { k } => {
            w.u8(1);
            w.usize(k);
        }
        QueryPath::WithinSupport => {
            w.u8(2);
            w.usize(0);
        }
    }
    Ok(())
}

fn write_shard(w: &mut Writer, shard: &ShardModel) {
    w.usize(shard.labeled.len());
    for &flag in &shard.labeled {
        w.u8(u8::from(flag));
    }
    w.matrix(&shard.targets);
    w.usize(shard.unlabeled.len());
    for &u in &shard.unlabeled {
        w.usize(u);
    }
    w.matrix(&shard.system);
    match &shard.inverse {
        Some(inv) => {
            w.u8(1);
            w.matrix(inv);
        }
        None => w.u8(0),
    }
    w.matrix(&shard.rhs);
    w.matrix(&shard.scores);
    w.usize(shard.updates_since_refactor);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(len).ok_or_else(|| Error::Snapshot {
            message: "length overflow while decoding".to_owned(),
        })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::Snapshot {
                message: format!(
                    "truncated snapshot: wanted {len} bytes at offset {}, have {}",
                    self.pos,
                    self.bytes.len()
                ),
            })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let raw = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(raw);
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64> {
        let raw = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(u64::from_le_bytes(arr))
    }

    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Error::Snapshot {
            message: format!("value {v} does not fit this platform's usize"),
        })
    }

    /// A length that will be used to size an allocation: additionally
    /// bounded by the remaining byte count so a corrupt header cannot
    /// request an absurd reservation.
    fn len(&mut self, elem_bytes: usize) -> Result<usize> {
        let v = self.usize()?;
        let remaining = self.bytes.len().saturating_sub(self.pos);
        if v.saturating_mul(elem_bytes.max(1)) > remaining {
            return Err(Error::Snapshot {
                message: format!("declared length {v} exceeds the {remaining} bytes remaining"),
            });
        }
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64> {
        let raw = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_le_bytes(arr))
    }

    fn matrix(&mut self) -> Result<Matrix> {
        let rows = self.len(8)?;
        let cols = self.len(8)?;
        let total = rows.checked_mul(cols).ok_or_else(|| Error::Snapshot {
            message: format!("matrix shape {rows}×{cols} overflows"),
        })?;
        if total.saturating_mul(8) > self.bytes.len().saturating_sub(self.pos) {
            return Err(Error::Snapshot {
                message: format!("matrix shape {rows}×{cols} exceeds remaining bytes"),
            });
        }
        let mut values = Vec::with_capacity(total);
        for _ in 0..total {
            values.push(self.f64()?);
        }
        Ok(Matrix::from_fn(rows, cols, |i, j| values[i * cols + j]))
    }
}

fn read_config(r: &mut Reader<'_>) -> Result<EngineConfig> {
    let kernel = kernel_from_tag(r.u8()?)?;
    let bandwidth = r.f64()?;
    let criterion_tag = r.u8()?;
    let lambda = r.f64()?;
    let criterion = match criterion_tag {
        0 => ServeCriterion::Hard,
        1 => ServeCriterion::Soft { lambda },
        other => {
            return Err(Error::Snapshot {
                message: format!("unknown criterion tag {other}"),
            });
        }
    };
    let refactor_every = r.usize()?;
    let residual_tolerance = r.f64()?;
    let workers = r.usize()?;
    let path_tag = r.u8()?;
    let k = r.usize()?;
    let query_path = match path_tag {
        0 => QueryPath::Dense,
        1 => QueryPath::KNearest { k },
        2 => QueryPath::WithinSupport,
        other => {
            return Err(Error::Snapshot {
                message: format!("unknown query-path tag {other}"),
            });
        }
    };
    Ok(EngineConfig {
        kernel,
        bandwidth,
        criterion,
        refactor_every,
        residual_tolerance,
        workers,
        solver: EngineSolver::Direct,
        query_path,
    })
}

/// Reads one shard record into a model over `points`, the shard's
/// members, and checks it before any fold can run on it.
fn read_shard(
    r: &mut Reader<'_>,
    points: Matrix,
    config: &EngineConfig,
    width: usize,
) -> Result<ShardModel> {
    let labeled_len = r.len(1)?;
    let mut labeled = Vec::with_capacity(labeled_len);
    for _ in 0..labeled_len {
        labeled.push(r.u8()? != 0);
    }
    let targets = r.matrix()?;
    let unlabeled_len = r.len(8)?;
    let mut unlabeled = Vec::with_capacity(unlabeled_len);
    for _ in 0..unlabeled_len {
        unlabeled.push(r.usize()?);
    }
    let system = r.matrix()?;
    let inverse = (r.u8()? != 0).then(|| r.matrix()).transpose()?;
    let rhs = r.matrix()?;
    let scores = r.matrix()?;
    let updates_since_refactor = r.usize()?;
    // The weights are assembled once the cached matrices are decoded, so
    // their block never coexists with the decoder's scratch copy.
    let weights = ShardModel::weights(points, config)?;
    let shard = ShardModel {
        // Same reduction as `Problem::degrees` on a dense weight matrix,
        // so restored degrees are bit-identical to the fitted ones.
        degrees: weights.row_sums(),
        weights,
        labeled,
        targets,
        unlabeled,
        system,
        inverse,
        rhs,
        scores,
        updates_since_refactor,
    };
    shard.check(config.criterion, width)?;
    Ok(shard)
}

impl ShardedEngine {
    /// Serializes the engine's full fitted state — configuration, points,
    /// shard plan, and every shard's cached factorization — into the
    /// versioned, checksummed binary layout described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] for engines whose state cannot be
    /// captured (any non-[`EngineSolver::Direct`] solver route).
    /// deterministic
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let model = self.current_model();
        let mut w = Writer::new();
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        write_config(&mut w, self.config())?;
        w.u8(u8::from(self.is_multiclass()));
        w.usize(self.class_count());
        w.u64(model.id);
        let points = self.graph().points();
        w.matrix(points);
        w.matrix(&model.scores);
        w.usize(self.plan().n_shards());
        for (shard, model) in self.plan().shards().iter().zip(&model.shards) {
            w.usize(shard.len());
            for &member in shard.members() {
                w.usize(member);
            }
            w.usize(shard.n_labeled());
            write_shard(&mut w, model);
        }
        Ok(w.finish())
    }

    /// Rehydrates an engine from [`ShardedEngine::snapshot`] bytes
    /// without performing a single factorization: only the kernel graph,
    /// weight matrix, degree vector and (if configured) spatial index are
    /// recomputed from the points. Restored predictions are
    /// bitwise-identical to the snapshotted engine's.
    ///
    /// The restored engine runs on at most the host's available
    /// parallelism, whatever worker count the snapshot stores;
    /// [`ShardedEngine::config`] keeps the stored count, so a re-snapshot
    /// writes the same bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] for a bad magic, unknown version,
    /// truncated stream, checksum mismatch, or internally inconsistent
    /// shard records.
    /// deterministic
    pub fn restore(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 {
            return Err(Error::Snapshot {
                message: format!("{} bytes is too short for a snapshot", bytes.len()),
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let mut expected = [0u8; 8];
        expected.copy_from_slice(trailer);
        let expected = u64::from_le_bytes(expected);
        let actual = fnv1a(body);
        if actual != expected {
            return Err(Error::Snapshot {
                message: format!(
                    "checksum mismatch: stored {expected:016x}, computed {actual:016x}"
                ),
            });
        }

        let mut r = Reader::new(body);
        if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(Error::Snapshot {
                message: "bad magic: not a serving-engine snapshot".to_owned(),
            });
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::Snapshot {
                message: format!(
                    "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
                ),
            });
        }
        let config = read_config(&mut r)?;
        config.validate()?;
        let multiclass = r.u8()? != 0;
        let class_count = r.usize()?;
        if class_count < 2 || (!multiclass && class_count != 2) {
            return Err(Error::Snapshot {
                message: format!("{class_count} classes for a multiclass flag of {multiclass}"),
            });
        }
        let width = if multiclass { class_count } else { 1 };
        let epoch = r.u64()?;
        let points = r.matrix()?;
        let scores = r.matrix()?;
        let n_nodes = points.rows();

        let n_shards = r.len(8)?;
        let mut shards = Vec::with_capacity(n_shards);
        let mut models = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let member_len = r.len(8)?;
            let mut members = Vec::with_capacity(member_len);
            for _ in 0..member_len {
                let member = r.usize()?;
                // Guard before any row extraction: in range, and strictly
                // ascending as `Shard::local_index_of`'s binary search
                // requires. `ShardPlan::from_parts` re-checks coverage
                // across shards at the end, but rows are pulled per shard
                // below, so the bound must hold here already.
                if member >= n_nodes {
                    return Err(Error::Snapshot {
                        message: format!("shard member {member} out of range for {n_nodes} nodes"),
                    });
                }
                if members.last().is_some_and(|&prev| prev >= member) {
                    return Err(Error::Snapshot {
                        message: format!("shard members are not strictly ascending at {member}"),
                    });
                }
                members.push(member);
            }
            let fit_labeled = r.usize()?;
            if fit_labeled > member_len {
                return Err(Error::Snapshot {
                    message: format!("{fit_labeled} fit-time labels for {member_len} members"),
                });
            }
            let shard = ShardPlan::shard_from_parts(members, fit_labeled);
            models.push(read_shard(
                &mut r,
                shard.extract_rows(&points),
                &config,
                width,
            )?);
            shards.push(shard);
        }
        if r.pos != body.len() {
            return Err(Error::Snapshot {
                message: format!(
                    "{} trailing bytes after the last shard record",
                    body.len() - r.pos
                ),
            });
        }
        let plan = ShardPlan::from_parts(shards, n_nodes)?;
        ShardedEngine::from_restored(
            &points,
            config,
            multiclass,
            class_count,
            plan,
            models,
            scores,
            epoch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::QueryPoint;
    use crate::ServingEngine;
    use gssl_linalg::SolverPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn two_cluster_points() -> Matrix {
        let coords = [0.0, 8.0, 0.5, 8.5, 0.9, 8.9];
        Matrix::from_fn(coords.len(), 1, |i, _| coords[i])
    }

    fn fitted() -> ShardedEngine {
        ShardedEngine::fit(
            &two_cluster_points(),
            &[0.0, 1.0],
            EngineConfig::new(Kernel::Epanechnikov, 1.5).workers(1),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let engine = fitted();
        engine.observe_label(2, 0.0).unwrap();
        let bytes = engine.snapshot().unwrap();
        let restored = ShardedEngine::restore(&bytes).unwrap();
        assert_eq!(restored.epoch(), engine.epoch());
        assert_eq!(restored.n_shards(), engine.n_shards());
        let a = engine.scores();
        let b = restored.scores();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(a.get(i, j).to_bits(), b.get(i, j).to_bits());
            }
        }
        // Keep queries inside the clusters' kernel support.
        let queries: Vec<QueryPoint> = (0..10)
            .map(|q| {
                let offset = if q % 2 == 0 { 0.0 } else { 8.0 };
                QueryPoint::new(vec![offset + 0.1 * q as f64])
            })
            .collect();
        assert_eq!(
            engine.predict_batch(&queries).unwrap(),
            restored.predict_batch(&queries).unwrap()
        );
        // Restored engines keep folding labels.
        restored.observe_label(4, 1.0).unwrap();
        assert_eq!(restored.epoch(), engine.epoch() + 1);
    }

    #[test]
    fn snapshot_rejects_policy_solver() {
        let engine = ShardedEngine::fit(
            &two_cluster_points(),
            &[0.0, 1.0],
            EngineConfig::new(Kernel::Epanechnikov, 1.5)
                .workers(1)
                .solver(EngineSolver::Auto(SolverPolicy::default())),
        )
        .unwrap();
        assert!(matches!(engine.snapshot(), Err(Error::Snapshot { .. })));
    }

    #[test]
    fn restore_rejects_corruption() {
        let engine = fitted();
        let bytes = engine.snapshot().unwrap();

        // Truncation.
        assert!(matches!(
            ShardedEngine::restore(&bytes[..bytes.len() / 2]),
            Err(Error::Snapshot { .. })
        ));
        assert!(matches!(
            ShardedEngine::restore(&[]),
            Err(Error::Snapshot { .. })
        ));

        // Bit flip in the body breaks the checksum.
        let mut flipped = bytes;
        flipped[40] ^= 0x5a;
        assert!(matches!(
            ShardedEngine::restore(&flipped),
            Err(Error::Snapshot { .. })
        ));

        // Bad magic (resealed so only the magic is wrong).
        let mut bad_magic = body_of(&engine);
        bad_magic[0] = b'X';
        assert!(matches!(
            ShardedEngine::restore(&reseal(bad_magic)),
            Err(Error::Snapshot { .. })
        ));

        // Unknown version, resealed.
        let mut bad_version = body_of(&engine);
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ShardedEngine::restore(&reseal(bad_version)),
            Err(Error::Snapshot { .. })
        ));
    }

    #[test]
    fn header_constants_are_stable() {
        let bytes = fitted().snapshot().unwrap();
        assert_eq!(&bytes[..8], b"GSSLSNAP");
        assert_eq!(
            u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            SNAPSHOT_VERSION
        );
    }

    /// A snapshot's bytes without the checksum trailer.
    fn body_of(engine: &ShardedEngine) -> Vec<u8> {
        let mut bytes = engine.snapshot().unwrap();
        bytes.truncate(bytes.len() - 8);
        bytes
    }

    /// Appends a fresh trailer so a mutated body reaches the parser:
    /// FNV-1a detects accidents, it does not authenticate.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&body).to_le_bytes();
        body.extend_from_slice(&sum);
        body
    }

    #[test]
    fn restore_rejects_a_class_count_the_targets_do_not_have() {
        // Byte 63 is the multiclass flag and bytes 64..72 the class count
        // (magic 8, version 4, then 51 bytes of config). A binary snapshot
        // resealed to claim three classes used to restore, then index
        // past its one target column on a class-2 fold.
        let mut body = body_of(&fitted());
        assert_eq!((body[63], &body[64..72]), (0, &2u64.to_le_bytes()[..]));
        body[63] = 1;
        body[64..72].copy_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            ShardedEngine::restore(&reseal(body)),
            Err(Error::Snapshot { .. })
        ));
    }

    #[test]
    fn restore_caps_a_stored_worker_count_at_the_host() {
        // Bytes 46..54 are the worker count (magic 8, version 4, then
        // kernel 1, bandwidth 8, criterion 1 + 8, refactor_every 8 and
        // residual tolerance 8). Restoring runs no predict and no fold,
        // so no thread starts here.
        let mut body = body_of(&fitted());
        assert_eq!(&body[46..54], &1u64.to_le_bytes()[..]);
        body[46..54].copy_from_slice(&u64::MAX.to_le_bytes());
        let restored = ShardedEngine::restore(&reseal(body.clone())).unwrap();
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert!(restored.workers() <= host, "{} workers", restored.workers());
        // The stored count survives, so a re-snapshot writes the same bytes.
        assert_eq!(restored.config().workers, usize::MAX);
        assert_eq!(body_of(&restored), body);
    }

    #[test]
    fn restore_rejects_an_unlabeled_index_outside_its_shard() {
        // Shard 0 holds nodes {0, 2, 4} with node 0 labeled, so its local
        // unlabeled list is [1, 2]. The list follows the header and epoch
        // (80 bytes), the 6 × 1 points and global scores (each with a
        // 16-byte shape), the shard count, the three members and their
        // count, the fit-time label count, the 3-byte mask and its
        // length, and the 3 × 1 targets; its length comes first.
        let at = 80 + 2 * (16 + 6 * 8) + 8 + 8 + 3 * 8 + 8 + 8 + 3 + (16 + 3 * 8);
        let mut body = body_of(&fitted());
        let list = [2u64, 1, 2].map(u64::to_le_bytes).concat();
        assert_eq!(&body[at..at + 24], &list[..]);
        // Local node 2 becomes 1000: restored, a fold into local node 1
        // used to read weight row 1000 of a 3 × 3 block.
        body[at + 16..at + 24].copy_from_slice(&1000u64.to_le_bytes());
        assert!(matches!(
            ShardedEngine::restore(&reseal(body)),
            Err(Error::Snapshot { .. })
        ));
    }

    /// Draws one corruption of `body` — a byte XOR, an 8-byte window
    /// overwritten with 0, 1, `u64::MAX` or a random value, or a
    /// truncation — and reseals it. Returns what it did and the bytes.
    fn mutate(rng: &mut StdRng, body: &[u8]) -> (String, Vec<u8>) {
        let mut out = body.to_vec();
        let what = match rng.gen_range(0..5usize) {
            0 | 1 => {
                let (at, mask) = (rng.gen_range(0..out.len()), rng.gen_range(1..256usize));
                out[at] ^= mask as u8;
                format!("xor byte {at} with {mask:#04x}")
            }
            2 | 3 => {
                let at = rng.gen_range(0..out.len() - 7);
                let value = [0, 1, u64::MAX, rng.gen()][rng.gen_range(0..4usize)];
                out[at..at + 8].copy_from_slice(&value.to_le_bytes());
                format!("write {value:#x} at byte {at}")
            }
            _ => {
                let len = rng.gen_range(0..out.len());
                out.truncate(len);
                format!("truncate to {len} bytes")
            }
        };
        (what, reseal(out))
    }

    /// Tries to fold a label into every node; errors are expected for
    /// nodes already labeled, and ignored.
    fn fold_every_node(engine: &ShardedEngine) {
        for node in 0..engine.n_nodes() {
            let _ = if engine.is_multiclass() {
                engine.observe_class_label(node, node % engine.class_count())
            } else {
                engine.observe_label(node, (node % 2) as f64)
            };
        }
    }

    /// Hard and soft binary engines over two components, a multiclass
    /// engine over three and a one-shard Gaussian engine, each at most 12
    /// nodes, snapshotted before and after folding every node but one.
    fn corpus() -> Vec<Vec<u8>> {
        let pair = two_cluster_points();
        let three = Matrix::from_fn(9, 1, |i, _| (i % 3) as f64 * 10.0 + (i / 3) as f64 * 0.4);
        let line = Matrix::from_fn(8, 1, |i, _| i as f64 * 0.3);
        let compact = EngineConfig::new(Kernel::Epanechnikov, 1.5).workers(1);
        let soft = compact
            .clone()
            .criterion(ServeCriterion::Soft { lambda: 0.5 })
            .query_path(QueryPath::WithinSupport);
        let gaussian = EngineConfig::new(Kernel::Gaussian, 0.8)
            .workers(2)
            .query_path(QueryPath::KNearest { k: 3 });
        let engines = [
            ShardedEngine::fit(&pair, &[0.0, 1.0], compact.clone()).unwrap(),
            ShardedEngine::fit(&pair, &[0.0, 1.0], soft).unwrap(),
            ShardedEngine::fit_multiclass(&three, &[0, 1, 2], 3, compact).unwrap(),
            ServingEngine::fit(&line, &[0.0, 1.0], gaussian).unwrap(),
        ];
        let mut bodies = Vec::new();
        for engine in engines {
            bodies.push(body_of(&engine));
            let last = engine.n_nodes() - 1;
            for node in engine.n_labeled()..last {
                if engine.is_multiclass() {
                    engine.observe_class_label(node, node % 3).unwrap();
                } else {
                    engine.observe_label(node, (node % 2) as f64).unwrap();
                }
            }
            bodies.push(body_of(&engine));
        }
        bodies
    }

    #[test]
    fn seeded_corruptions_restore_to_an_error_or_a_working_engine() {
        let corpus = corpus();
        let (mut restored, mut rejected) = (0, 0);
        for seed in 0..2400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let which = rng.gen_range(0..corpus.len());
            let (mutation, bytes) = mutate(&mut rng, &corpus[which]);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let Ok(engine) = ShardedEngine::restore(&bytes) else {
                    return false;
                };
                let queries: Vec<QueryPoint> = (0..4)
                    .map(|q| QueryPoint::new(vec![q as f64 * 2.9; engine.dim()]))
                    .collect();
                let _ = engine.predict_batch(&queries);
                fold_every_node(&engine);
                let _ = engine.snapshot();
                true
            }));
            match outcome {
                Ok(true) => restored += 1,
                Ok(false) => rejected += 1,
                Err(_) => panic!("seed {seed}: {mutation} of corpus snapshot {which} panicked"),
            }
        }
        // Both outcomes occur, so the engine path is exercised too.
        assert!(
            restored > 0 && rejected > 0,
            "{restored} restored, {rejected} rejected"
        );
    }
}
