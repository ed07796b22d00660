//! Streaming edge ingestion and incremental hierarchy maintenance.
//!
//! The paper's production story (Sec. III.D) assumes the graph keeps
//! growing: new users, new items, and new interactions arrive after the
//! expensive hierarchy was trained. This module implements the
//! steady-state half of that story:
//!
//! * **Inductive inference** for unseen vertices: a new node's level-1
//!   embedding is the weighted mean of the *trained* same-side rows two
//!   hops away — for a new item, the items it shares users with; for a
//!   new user, the users it shares items with — with each two-hop path
//!   contributing the product of its edge weights. Same-side means stay
//!   in the node's own embedding space (user and item embeddings are
//!   trained jointly but are not interchangeable), which is what makes
//!   the inferred rows rankable; chains of fresh nodes still resolve
//!   because the intermediate hop may itself be new. A node whose
//!   two-hop frontier contains no trained row falls back to the
//!   one-hop cross-side mean Cascade-BGNN motivates, and keeps a zero
//!   row only if even that is unresolvable.
//! * **Streaming cluster maintenance**: new nodes stream through the
//!   same MacQueen [`SequentialKMeans`] machinery the paper's
//!   single-pass clustering uses, resumed from the trained level-1
//!   cluster means and sizes ([`SequentialKMeans::from_state`]), so
//!   each arrival lands on an existing centroid and nudges it by the
//!   running-mean rule. Per-cluster **drift** (squared distance of the
//!   live centroid from its last committed position) is tracked, and
//!   when a cluster's drift crosses [`IngestConfig::drift_threshold`]
//!   only *that dirty subtree* is re-coarsened: its members are
//!   re-assigned against the live centroids (cost `O(|members|·k·d)`,
//!   never the full dataset) and the affected centroids are recommitted
//!   to exact member means.
//! * **A versioned delta format** (`HGHD` 2, the same
//!   [`crate::io`] container and frame decoder as the model) so a serving
//!   replica can catch up via [`apply_delta`] without a full reload. A
//!   delta carries only what a replica reads — the new edges, the
//!   arrivals (level-1 cluster and row) and the level-1 moves — so its
//!   size is linear in the batch, not the model.
//!   Deltas carry base and patched hierarchy fingerprints
//!   ([`hierarchy_fingerprint`]: a digest tree over what the model file
//!   stores). Applying a delta to the wrong base — or applying it twice —
//!   fails closed with [`HignnError::Corrupt`] before any mutation, and
//!   a patch whose result does not match the writer's fingerprint is
//!   rolled back, so a refused delta never leaves a trace.
//!
//! A batch costs what it carries, on both sides of the wire. The writer
//! grows its graph with `BipartiteGraph::append_edges` (an in-place
//! merge, bit-identical to rebuilding it with `from_edges`), and the
//! estimators scan packed centroids. Writer and replica each carry a
//! [`HierarchyDigest`], so the fingerprints hash only the arrivals' rows
//! and the level-1 assignments; the replica's serving state is patched
//! in place (`hignn_serve::ServeModel::apply_delta`).
//!
//! Upper-level embeddings `Z^{l+1}`, each level's coarse graph `G^l` and
//! the GraphSAGE weights stay as trained; that staleness is deliberate
//! (it is what makes ingestion cheap) and is measured by the `ingest`
//! bench as the incremental-vs-full-retrain link-prediction AUC gap. A
//! fine-tune that wants the grown chain rebuilds it from
//! [`IngestEngine::graph`] with `hignn_graph::coarsen`, one call per
//! level.

use crate::error::HignnError;
pub use crate::fingerprint::{hierarchy_fingerprint, HierarchyDigest};
use crate::io::{atomic_write, write_section, Container};
use crate::stack::Hierarchy;
use hignn_cluster::kmeans::mean_by_cluster;
use hignn_cluster::streaming::SequentialKMeans;
use hignn_graph::{Assignment, BipartiteGraph, Side};
use hignn_tensor::Matrix;
use std::io::{self, Write};
use std::path::Path;

/// Current delta format version.
pub(crate) const DELTA_FORMAT_VERSION: u32 = 2;
const DELTA: Container =
    Container { magic: b"HGHD", version: DELTA_FORMAT_VERSION, name: "delta" };

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------
// The delta format.

/// One newly arrived vertex: the level-1 cluster it was streamed into
/// and its inferred level-1 embedding row.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeArrival {
    /// Level-1 cluster id assigned at observe time (pre-move).
    pub cluster: u32,
    /// Inferred level-1 embedding (one row, level-1 width).
    pub embedding: Vec<f32>,
}

/// A versioned, self-validating patch from one hierarchy state to the
/// next — everything a replica needs to catch up without a full reload.
///
/// On disk (`HGHD` v2) it is the [`crate::io`] container, so truncation,
/// bit-flips, trailing bytes and other versions fail closed:
///
/// ```text
/// delta    := "HGHD" u32(version=2) section(header) section(edges)
///             section(arrivals) section(arrivals)   (users, then items)
///             section(moves) section(moves)         (users, then items)
/// section  := u64(payload_len) payload u32(crc32 of payload)
/// header   := u64(seq) u64(base_users) u64(base_items)
///             u64(base_fingerprint) u64(patched_fingerprint)
///             u64(num_new_users) u64(num_new_items)
///             u64(num_user_moves) u64(num_item_moves)
///             u64(num_new_edges)
/// edges    := (u32(user) u32(item) f32(weight))*
/// arrivals := u64(dim) (u32(cluster) f32^dim)*
/// moves    := (u32(vertex) u32(cluster))*
/// ```
///
/// No section scales with the model: a delta is
/// `176 + 12·edges + (4 + 4·dim)·arrivals + 8·moves` bytes. Coarse
/// graphs are not shipped — ingestion leaves them as trained.
#[derive(Clone, Debug)]
pub struct HierarchyDelta {
    /// Monotone sequence number (1 = first delta after the base model).
    pub seq: u64,
    /// Users in the base hierarchy this delta applies to.
    pub base_users: u64,
    /// Items in the base hierarchy this delta applies to.
    pub base_items: u64,
    /// [`hierarchy_fingerprint`] of the base hierarchy.
    pub base_fingerprint: u64,
    /// [`hierarchy_fingerprint`] of the patched hierarchy.
    pub patched_fingerprint: u64,
    /// Newly ingested edges, in post-extension id space (audit record;
    /// replicas patch structure from the fields below).
    pub new_edges: Vec<(u32, u32, f32)>,
    /// New users in id order (`base_users`, `base_users + 1`, ...).
    pub new_users: Vec<NodeArrival>,
    /// New items in id order.
    pub new_items: Vec<NodeArrival>,
    /// Level-1 user re-assignments `(vertex, new_cluster)` from the
    /// bounded re-coarsen, in application order.
    pub user_moves: Vec<(u32, u32)>,
    /// Level-1 item re-assignments.
    pub item_moves: Vec<(u32, u32)>,
}

fn write_u64_vec(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn arrivals_payload(arrivals: &[NodeArrival]) -> Vec<u8> {
    let dim = arrivals.first().map_or(0, |a| a.embedding.len());
    let mut buf = Vec::with_capacity(8 + arrivals.len() * (4 + dim * 4));
    write_u64_vec(&mut buf, dim as u64);
    for a in arrivals {
        buf.extend_from_slice(&a.cluster.to_le_bytes());
        for &v in &a.embedding {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

fn parse_arrivals(payload: &[u8], count: usize, what: &str) -> io::Result<Vec<NodeArrival>> {
    if payload.len() < 8 {
        return Err(bad_data(&format!("{what}: truncated arrival header")));
    }
    let dim = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
    let per = 4usize
        .checked_add(dim.checked_mul(4).ok_or_else(|| bad_data(&format!("{what}: huge dim")))?)
        .ok_or_else(|| bad_data(&format!("{what}: huge dim")))?;
    let expect = 8 + count
        .checked_mul(per)
        .ok_or_else(|| bad_data(&format!("{what}: huge arrival count")))?;
    if payload.len() != expect {
        return Err(bad_data(&format!(
            "{what}: payload is {} bytes, expected {expect} for {count} arrivals of dim {dim}",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    let mut pos = 8;
    for _ in 0..count {
        let cluster = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap());
        pos += 4;
        let mut embedding = Vec::with_capacity(dim);
        for _ in 0..dim {
            embedding.push(f32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()));
            pos += 4;
        }
        out.push(NodeArrival { cluster, embedding });
    }
    Ok(out)
}

fn moves_payload(moves: &[(u32, u32)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(moves.len() * 8);
    for &(v, c) in moves {
        buf.extend_from_slice(&v.to_le_bytes());
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

fn parse_moves(payload: &[u8], count: usize, what: &str) -> io::Result<Vec<(u32, u32)>> {
    let expect = count.checked_mul(8).ok_or_else(|| bad_data(&format!("{what}: huge count")))?;
    if payload.len() != expect {
        return Err(bad_data(&format!(
            "{what}: payload is {} bytes, expected {expect} for {count} moves",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for chunk in payload.chunks_exact(8) {
        out.push((
            u32::from_le_bytes(chunk[..4].try_into().unwrap()),
            u32::from_le_bytes(chunk[4..].try_into().unwrap()),
        ));
    }
    Ok(out)
}

fn edges_payload(edges: &[(u32, u32, f32)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(edges.len() * 12);
    for &(u, i, w) in edges {
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&i.to_le_bytes());
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

fn parse_edges(payload: &[u8], count: usize, what: &str) -> io::Result<Vec<(u32, u32, f32)>> {
    let expect = count.checked_mul(12).ok_or_else(|| bad_data(&format!("{what}: huge count")))?;
    if payload.len() != expect {
        return Err(bad_data(&format!(
            "{what}: payload is {} bytes, expected {expect} for {count} edges",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for chunk in payload.chunks_exact(12) {
        out.push((
            u32::from_le_bytes(chunk[..4].try_into().unwrap()),
            u32::from_le_bytes(chunk[4..8].try_into().unwrap()),
            f32::from_le_bytes(chunk[8..].try_into().unwrap()),
        ));
    }
    Ok(out)
}

/// Encodes a delta in the current (`HGHD` v2, CRC-framed) format.
pub fn write_delta<W: Write>(w: &mut W, d: &HierarchyDelta) -> io::Result<()> {
    DELTA.preamble(w)?;
    let mut header = Vec::with_capacity(80);
    for v in [
        d.seq,
        d.base_users,
        d.base_items,
        d.base_fingerprint,
        d.patched_fingerprint,
        d.new_users.len() as u64,
        d.new_items.len() as u64,
        d.user_moves.len() as u64,
        d.item_moves.len() as u64,
        d.new_edges.len() as u64,
    ] {
        write_u64_vec(&mut header, v);
    }
    write_section(w, &header)?;
    write_section(w, &edges_payload(&d.new_edges))?;
    write_section(w, &arrivals_payload(&d.new_users))?;
    write_section(w, &arrivals_payload(&d.new_items))?;
    write_section(w, &moves_payload(&d.user_moves))?;
    write_section(w, &moves_payload(&d.item_moves))
}

/// Decodes a delta from an in-memory image, CRC-verifying every section
/// before parsing it — truncation, bit-flips, and implausible lengths
/// all surface as `InvalidData`, never a panic or a silently wrong
/// patch.
pub fn read_delta_bytes(bytes: &[u8]) -> io::Result<HierarchyDelta> {
    let mut cursor = DELTA.open(bytes)?;
    let header = cursor.next_section("delta header")?;
    if header.len() != 80 {
        return Err(bad_data(&format!("delta header: expected 80 bytes, got {}", header.len())));
    }
    let word = |i: usize| u64::from_le_bytes(header[i * 8..(i + 1) * 8].try_into().unwrap());
    let seq = word(0);
    let base_users = word(1);
    let base_items = word(2);
    let base_fingerprint = word(3);
    let patched_fingerprint = word(4);
    let num_new_users = word(5) as usize;
    let num_new_items = word(6) as usize;
    let num_user_moves = word(7) as usize;
    let num_item_moves = word(8) as usize;
    let num_new_edges = word(9) as usize;
    let new_edges = parse_edges(cursor.next_section("delta edges")?, num_new_edges, "delta edges")?;
    let new_users =
        parse_arrivals(cursor.next_section("delta new users")?, num_new_users, "delta new users")?;
    let new_items =
        parse_arrivals(cursor.next_section("delta new items")?, num_new_items, "delta new items")?;
    let user_moves =
        parse_moves(cursor.next_section("delta user moves")?, num_user_moves, "delta user moves")?;
    let item_moves =
        parse_moves(cursor.next_section("delta item moves")?, num_item_moves, "delta item moves")?;
    cursor.finish()?;
    Ok(HierarchyDelta {
        seq,
        base_users,
        base_items,
        base_fingerprint,
        patched_fingerprint,
        new_edges,
        new_users,
        new_items,
        user_moves,
        item_moves,
    })
}

/// Saves a delta atomically (temp + fsync + rename, like model saves).
pub fn save_delta(path: impl AsRef<Path>, d: &HierarchyDelta) -> io::Result<()> {
    let mut bytes = Vec::new();
    write_delta(&mut bytes, d)?;
    atomic_write(path.as_ref(), &bytes)
}

/// Loads a delta from a file.
pub fn load_delta(path: impl AsRef<Path>) -> io::Result<HierarchyDelta> {
    let bytes = std::fs::read(path)?;
    read_delta_bytes(&bytes)
}

// ---------------------------------------------------------------------
// Applying a delta.

/// Keeps the first `rows` rows of `m` and appends one row per arrival.
fn resize_rows(m: &mut Matrix, rows: usize, arrivals: &[NodeArrival]) {
    let cols = m.cols();
    let mut data = std::mem::replace(m, Matrix::zeros(0, 0)).into_data();
    data.truncate(rows * cols);
    for a in arrivals {
        debug_assert_eq!(a.embedding.len(), cols);
        data.extend_from_slice(&a.embedding);
    }
    *m = Matrix::from_vec(rows + arrivals.len(), cols, data);
}

/// `base` extended by the arrivals' clusters, then the moves applied.
fn patched_assignment(
    base: &Assignment,
    arrivals: &[NodeArrival],
    moves: &[(u32, u32)],
) -> Assignment {
    let mut a: Vec<u32> = base.as_slice().to_vec();
    a.extend(arrivals.iter().map(|n| n.cluster));
    for &(v, c) in moves {
        a[v as usize] = c;
    }
    Assignment::new(a, base.num_clusters())
}

fn corrupt(detail: String) -> HignnError {
    HignnError::corrupt("delta", &detail)
}

/// Patches `h` in place with `delta` — the replica catch-up path.
///
/// The cheap checks run **before** any mutation: base user/item counts,
/// the base fingerprint (which also rejects a delta applied twice or out
/// of order, and a model of another depth), arrival dimensions and
/// cluster ranges, and move ranges. After patching, the result must
/// pass the assignment-chain validation and fingerprint to
/// `patched_fingerprint`, so a replica can never silently diverge from
/// the ingesting writer; if either fails the patch is rolled back. A
/// delta that fails any check therefore leaves `h` bit-for-bit as it was
/// and returns [`HignnError::Corrupt`].
pub fn apply_delta(h: &mut Hierarchy, delta: &HierarchyDelta) -> Result<(), HignnError> {
    apply_delta_to_base(h, &mut HierarchyDigest::new(h), delta)
}

/// [`apply_delta`] for a holder that carries `h`'s [`HierarchyDigest`]
/// from delta to delta, as a serving replica and [`IngestEngine`] do:
/// the base check reads the digest, and the patched check advances it
/// over the arrivals' rows and the level-1 assignments alone, so
/// neither hashes the whole model. `digest` must be paired with `h`
/// (see [`HierarchyDigest`]); it advances only when the patch is
/// accepted, so after a refusal both are as they were.
pub fn apply_delta_to_base(
    h: &mut Hierarchy,
    digest: &mut HierarchyDigest,
    delta: &HierarchyDelta,
) -> Result<(), HignnError> {
    let base_fingerprint = digest.value();
    // ---- read-only validation ----
    if delta.base_users != h.num_users() as u64 || delta.base_items != h.num_items() as u64 {
        return Err(corrupt(format!(
            "base shape mismatch: delta expects {}x{}, hierarchy has {}x{}",
            delta.base_users,
            delta.base_items,
            h.num_users(),
            h.num_items()
        )));
    }
    if base_fingerprint != delta.base_fingerprint {
        return Err(corrupt(format!(
            "base fingerprint mismatch (expected {:#018x}, hierarchy is {base_fingerprint:#018x}) — \
             wrong base model, or delta already applied / out of order",
            delta.base_fingerprint
        )));
    }
    let l0 = &h.levels()[0];
    let checks = [
        (&delta.new_users, l0.user_embeddings.cols(), l0.user_assignment.num_clusters(), "user"),
        (&delta.new_items, l0.item_embeddings.cols(), l0.item_assignment.num_clusters(), "item"),
    ];
    for (arrivals, dim, k, side) in checks {
        for (idx, a) in arrivals.iter().enumerate() {
            if a.embedding.len() != dim {
                return Err(corrupt(format!(
                    "new {side} {idx}: embedding dim {} != level-1 dim {dim}",
                    a.embedding.len()
                )));
            }
            if a.cluster as usize >= k {
                return Err(corrupt(format!(
                    "new {side} {idx}: cluster {} out of range (k = {k})",
                    a.cluster
                )));
            }
        }
    }
    let move_checks = [
        (&delta.user_moves, h.num_users() + delta.new_users.len(),
         l0.user_assignment.num_clusters(), "user"),
        (&delta.item_moves, h.num_items() + delta.new_items.len(),
         l0.item_assignment.num_clusters(), "item"),
    ];
    for (moves, n, k, side) in move_checks {
        for &(v, c) in moves.iter() {
            if v as usize >= n || c as usize >= k {
                return Err(corrupt(format!("{side} move ({v} -> {c}) out of range")));
            }
        }
    }
    // ---- mutation (mirrors the ingesting engine bit for bit) ----
    // The replaced assignments are kept, not dropped, so a late failure
    // can put them back.
    let (old_users, old_items) = (h.num_users(), h.num_items());
    let (levels, num_users, num_items) = h.parts_mut();
    let l0 = &mut levels[0];
    resize_rows(&mut l0.user_embeddings, old_users, &delta.new_users);
    resize_rows(&mut l0.item_embeddings, old_items, &delta.new_items);
    let patched_users =
        patched_assignment(&l0.user_assignment, &delta.new_users, &delta.user_moves);
    let patched_items =
        patched_assignment(&l0.item_assignment, &delta.new_items, &delta.item_moves);
    let old_user_assignment = std::mem::replace(&mut l0.user_assignment, patched_users);
    let old_item_assignment = std::mem::replace(&mut l0.item_assignment, patched_items);
    *num_users += delta.new_users.len();
    *num_items += delta.new_items.len();

    let verdict = h
        .validate()
        .map_err(|e| corrupt(format!("patched hierarchy invalid: {e}")))
        .and_then(|()| {
            let patched = digest.advanced(h);
            if patched.value() == delta.patched_fingerprint {
                *digest = patched;
                Ok(())
            } else {
                Err(corrupt(format!(
                    "patched fingerprint mismatch (delta says {:#018x}, got {:#018x})",
                    delta.patched_fingerprint,
                    patched.value()
                )))
            }
        });
    if verdict.is_err() {
        let (levels, num_users, num_items) = h.parts_mut();
        let l0 = &mut levels[0];
        l0.user_assignment = old_user_assignment;
        l0.item_assignment = old_item_assignment;
        resize_rows(&mut l0.user_embeddings, old_users, &[]);
        resize_rows(&mut l0.item_embeddings, old_items, &[]);
        *num_users = old_users;
        *num_items = old_items;
    }
    verdict
}

// ---------------------------------------------------------------------
// The ingesting engine.

/// Tuning knobs of the [`IngestEngine`].
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Squared-distance drift a level-1 centroid may accumulate (from
    /// its last committed position) before its cluster is marked dirty
    /// and re-coarsened. Embeddings are unit-norm under the default
    /// training config, so squared distances live in `[0, 4]`.
    /// `f32::INFINITY` disables re-coarsening.
    pub drift_threshold: f32,
    /// L2-normalise inferred embeddings — must match the training
    /// config's `normalize` (true under the default pipeline).
    pub normalize: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { drift_threshold: 0.05, normalize: true }
    }
}

/// What one [`IngestEngine::ingest`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestReport {
    /// New users appended.
    pub new_users: usize,
    /// New items appended.
    pub new_items: usize,
    /// Edges ingested.
    pub new_edges: usize,
    /// Users re-assigned by the bounded re-coarsen.
    pub moved_users: usize,
    /// Items re-assigned by the bounded re-coarsen.
    pub moved_items: usize,
    /// User clusters whose drift crossed the threshold.
    pub dirty_user_clusters: usize,
    /// Item clusters whose drift crossed the threshold.
    pub dirty_item_clusters: usize,
    /// Largest per-cluster user drift observed (squared distance).
    pub max_user_drift: f32,
    /// Largest per-cluster item drift observed.
    pub max_item_drift: f32,
    /// User clusters currently empty (reported, never auto-reseeded —
    /// serving needs stable cluster ids).
    pub dead_user_clusters: usize,
    /// Item clusters currently empty.
    pub dead_item_clusters: usize,
}

/// Per-side streaming state: the live MacQueen estimator plus each
/// centroid's last *committed* position (the drift baseline).
struct SideState {
    skm: SequentialKMeans,
    baseline: Matrix,
    /// Each centroid's drift from its baseline, refreshed whenever
    /// either moves — so a batch reads it instead of re-measuring all k.
    drift: Vec<f32>,
}

impl SideState {
    fn from_level(embeddings: &Matrix, assignment: &Assignment) -> SideState {
        // Exact member means in id order — identical whether the
        // hierarchy is fresh in memory or reloaded from disk, which is
        // what makes ingest-then-save ≡ save-then-ingest bitwise.
        let centroids =
            mean_by_cluster(embeddings, assignment.as_slice(), assignment.num_clusters());
        let counts = assignment.sizes();
        let k = centroids.rows();
        let mut side = SideState {
            baseline: centroids.clone(),
            skm: SequentialKMeans::from_state(centroids, counts),
            drift: vec![0.0; k],
        };
        (0..k).for_each(|c| side.refresh_drift(c));
        side
    }

    fn refresh_drift(&mut self, c: usize) {
        self.drift[c] = self.skm.centroids().row_sq_dist(c, self.baseline.row(c));
    }

    /// Streams one arrival into the estimator: its cluster.
    fn observe(&mut self, point: &[f32]) -> u32 {
        let c = self.skm.observe(point);
        self.refresh_drift(c as usize);
        c
    }
}

/// The writer side of streaming ingestion: owns the evolving hierarchy,
/// the full (finest) interaction graph, and the per-side streaming
/// cluster state. Each [`IngestEngine::ingest`] call appends a batch of
/// edges and emits the [`HierarchyDelta`] that brings a replica to the
/// same state.
pub struct IngestEngine {
    hierarchy: Hierarchy,
    graph: BipartiteGraph,
    cfg: IngestConfig,
    users: SideState,
    items: SideState,
    seq: u64,
    digest: HierarchyDigest,
}

impl IngestEngine {
    /// Builds an engine over a trained hierarchy and the finest-level
    /// interaction graph it was trained on.
    ///
    /// Fails with [`HignnError::Config`] if the graph shape does not
    /// match the hierarchy, or if the level-1 user and item embedding
    /// widths differ (cross-side neighbour-mean inference needs a
    /// shared space).
    pub fn new(
        hierarchy: Hierarchy,
        graph: BipartiteGraph,
        cfg: IngestConfig,
    ) -> Result<IngestEngine, HignnError> {
        if graph.num_left() != hierarchy.num_users() || graph.num_right() != hierarchy.num_items()
        {
            return Err(HignnError::Config(format!(
                "ingest: graph is {}x{} but hierarchy covers {}x{}",
                graph.num_left(),
                graph.num_right(),
                hierarchy.num_users(),
                hierarchy.num_items()
            )));
        }
        let l0 = &hierarchy.levels()[0];
        if l0.user_embeddings.cols() != l0.item_embeddings.cols() {
            return Err(HignnError::Config(format!(
                "ingest: level-1 user dim {} != item dim {} (shared space required)",
                l0.user_embeddings.cols(),
                l0.item_embeddings.cols()
            )));
        }
        let users = SideState::from_level(&l0.user_embeddings, &l0.user_assignment);
        let items = SideState::from_level(&l0.item_embeddings, &l0.item_assignment);
        let digest = HierarchyDigest::new(&hierarchy);
        Ok(IngestEngine { hierarchy, graph, cfg, users, items, seq: 0, digest })
    }

    /// The evolving hierarchy (read-only).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The evolving finest-level graph (read-only).
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Sequence number of the last emitted delta (0 before any ingest).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Ingests one append-only edge batch. Edge endpoints at or beyond
    /// the current user/item counts declare new vertices. Each side may
    /// grow by at most one vertex per edge in the batch: an id within
    /// that bound may leave a gap (a gap id that never appears in an
    /// edge becomes an isolated zero-embedding vertex), and an id past
    /// it is refused with [`HignnError::Config`] before anything
    /// changes, like a non-positive or non-finite weight.
    ///
    /// Returns what happened plus the [`HierarchyDelta`] that replays
    /// it on a replica of the pre-ingest hierarchy.
    pub fn ingest(
        &mut self,
        new_edges: &[(u32, u32, f32)],
    ) -> Result<(IngestReport, HierarchyDelta), HignnError> {
        let old_u = self.hierarchy.num_users();
        let old_i = self.hierarchy.num_items();
        let mut new_u = old_u;
        let mut new_i = old_i;
        for &(u, i, w) in new_edges {
            if !w.is_finite() || w <= 0.0 {
                return Err(HignnError::Config(format!(
                    "ingest: edge ({u}, {i}) has non-positive or non-finite weight {w}"
                )));
            }
            new_u = new_u.max(u as usize + 1);
            new_i = new_i.max(i as usize + 1);
        }
        for (side, old, new) in [("user", old_u, new_u), ("item", old_i, new_i)] {
            if new - old > new_edges.len() {
                return Err(HignnError::Config(format!(
                    "ingest: a batch of {} edges cannot add {} {side}s (id {} against {old} \
                     {side}s); a batch adds at most one vertex per edge on each side",
                    new_edges.len(),
                    new - old,
                    new - 1
                )));
            }
        }

        // Grow the finest graph in place, with the bits `from_edges`
        // gives the whole edge list (parallel edges fold in input order).
        self.graph.append_edges(new_u, new_i, new_edges);

        // Inductive level-1 embeddings for the new vertices: weighted
        // two-hop same-side means over the grown graph.
        let (user_rows, item_rows) = self.infer_new_embeddings(old_u, old_i, new_u, new_i);

        // Stream each new vertex through the MacQueen estimator in id
        // order (users first) — the cluster it lands in is its level-1
        // assignment; the observe nudges the live centroid and accrues
        // drift.
        let new_users: Vec<NodeArrival> = user_rows
            .into_iter()
            .map(|embedding| NodeArrival { cluster: self.users.observe(&embedding), embedding })
            .collect();
        let new_items: Vec<NodeArrival> = item_rows
            .into_iter()
            .map(|embedding| NodeArrival { cluster: self.items.observe(&embedding), embedding })
            .collect();

        // Patch level 1: append embeddings and assignments.
        let threshold = self.cfg.drift_threshold;
        let (levels, num_users, num_items) = self.hierarchy.parts_mut();
        let ku = levels[0].user_assignment.num_clusters();
        let ki = levels[0].item_assignment.num_clusters();
        resize_rows(&mut levels[0].user_embeddings, old_u, &new_users);
        resize_rows(&mut levels[0].item_embeddings, old_i, &new_items);
        let mut ua: Vec<u32> = levels[0].user_assignment.as_slice().to_vec();
        ua.extend(new_users.iter().map(|a| a.cluster));
        let mut ia: Vec<u32> = levels[0].item_assignment.as_slice().to_vec();
        ia.extend(new_items.iter().map(|a| a.cluster));

        // Bounded re-coarsen of dirty subtrees.
        let (user_moves, dirty_u, max_user_drift) = drift_recoarsen(
            &mut self.users,
            &levels[0].user_embeddings,
            &mut ua,
            threshold,
        );
        let (item_moves, dirty_i, max_item_drift) = drift_recoarsen(
            &mut self.items,
            &levels[0].item_embeddings,
            &mut ia,
            threshold,
        );
        levels[0].user_assignment = Assignment::new(ua, ku);
        levels[0].item_assignment = Assignment::new(ia, ki);
        *num_users = new_u;
        *num_items = new_i;
        // Every level's coarse graph G^l stays as trained, like the
        // frozen Z^{l+1} that was learned on it.

        self.hierarchy
            .validate()
            .map_err(|e| HignnError::corrupt("ingest", format!("patched hierarchy invalid: {e}")))?;
        let patched = self.digest.advanced(&self.hierarchy);
        let base_fingerprint = std::mem::replace(&mut self.digest, patched).value();
        self.seq += 1;

        let report = IngestReport {
            new_users: new_users.len(),
            new_items: new_items.len(),
            new_edges: new_edges.len(),
            moved_users: user_moves.len(),
            moved_items: item_moves.len(),
            dirty_user_clusters: dirty_u,
            dirty_item_clusters: dirty_i,
            max_user_drift,
            max_item_drift,
            dead_user_clusters: self.users.skm.dead_clusters().len(),
            dead_item_clusters: self.items.skm.dead_clusters().len(),
        };
        let delta = HierarchyDelta {
            seq: self.seq,
            base_users: old_u as u64,
            base_items: old_i as u64,
            base_fingerprint,
            patched_fingerprint: self.digest.value(),
            new_edges: new_edges.to_vec(),
            new_users,
            new_items,
            user_moves,
            item_moves,
        };
        Ok((report, delta))
    }

    /// Weighted two-hop same-side inference for new vertices (see
    /// module docs): a new node averages the *trained* same-side rows
    /// reachable through any neighbour, each path weighted by the
    /// product of its two edge weights. Falls back to the one-hop
    /// cross-side mean over trained rows when the two-hop frontier is
    /// empty; keeps a zero row only if both fail.
    fn infer_new_embeddings(
        &self,
        old_u: usize,
        old_i: usize,
        new_u: usize,
        new_i: usize,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let graph = &self.graph;
        let l0 = &self.hierarchy.levels()[0];
        let dim = l0.user_embeddings.cols();
        let normalize = self.cfg.normalize;
        let finish = |sum: Vec<f32>, wsum: f32| -> Option<Vec<f32>> {
            if wsum <= 0.0 {
                return None;
            }
            let mut row: Vec<f32> = sum.iter().map(|v| v / wsum).collect();
            if normalize {
                let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
                if norm > 0.0 {
                    for v in &mut row {
                        *v /= norm;
                    }
                }
            }
            Some(row)
        };
        let infer_side = |side: Side, old_same: usize, hi: usize, same: &Matrix, opp: &Matrix, old_opp: usize| -> Vec<Vec<f32>> {
            let across = match side {
                Side::Left => Side::Right,
                Side::Right => Side::Left,
            };
            (old_same..hi)
                .map(|v| {
                    let (nbrs, weights) = graph.neighbors(side, v);
                    let mut sum = vec![0f32; dim];
                    let mut wsum = 0f32;
                    for (&o, &w1) in nbrs.iter().zip(weights) {
                        let (nbrs2, weights2) = graph.neighbors(across, o as usize);
                        for (&s, &w2) in nbrs2.iter().zip(weights2) {
                            if (s as usize) < old_same {
                                let w = w1 * w2;
                                wsum += w;
                                for (dst, &x) in sum.iter_mut().zip(same.row(s as usize)) {
                                    *dst += w * x;
                                }
                            }
                        }
                    }
                    if let Some(row) = finish(sum, wsum) {
                        return row;
                    }
                    let mut sum = vec![0f32; dim];
                    let mut wsum = 0f32;
                    for (&o, &w) in nbrs.iter().zip(weights) {
                        if (o as usize) < old_opp {
                            wsum += w;
                            for (dst, &x) in sum.iter_mut().zip(opp.row(o as usize)) {
                                *dst += w * x;
                            }
                        }
                    }
                    finish(sum, wsum).unwrap_or_else(|| vec![0f32; dim])
                })
                .collect()
        };
        let user_rows =
            infer_side(Side::Left, old_u, new_u, &l0.user_embeddings, &l0.item_embeddings, old_i);
        let item_rows =
            infer_side(Side::Right, old_i, new_i, &l0.item_embeddings, &l0.user_embeddings, old_u);
        (user_rows, item_rows)
    }
}

/// Drift check + bounded re-coarsen for one side. Returns the moves
/// made (in application order), the number of dirty clusters, and the
/// maximum drift observed. Only members of dirty clusters are
/// re-assigned (`O(|dirty members| · k · d)`); affected centroids are
/// then recommitted to exact member means and their baselines reset.
/// Clusters emptied by moves stay at their last position with count 0
/// (dead — reported, never auto-reseeded, so cluster ids stay stable
/// for serving).
fn drift_recoarsen(
    side: &mut SideState,
    emb: &Matrix,
    assignment: &mut [u32],
    threshold: f32,
) -> (Vec<(u32, u32)>, usize, f32) {
    let k = side.skm.centroids().rows();
    let mut max_drift = 0f32;
    let mut dirty = vec![false; k];
    let mut num_dirty = 0usize;
    for (dirty_c, &d) in dirty.iter_mut().zip(&side.drift) {
        if d.is_finite() && d > max_drift {
            max_drift = d;
        }
        if d > threshold {
            *dirty_c = true;
            num_dirty += 1;
        }
    }
    let mut moves = Vec::new();
    if num_dirty == 0 {
        return (moves, 0, max_drift);
    }
    // Re-assign only dirty clusters' members, ascending id order.
    let mut affected = dirty.clone();
    for (v, slot) in assignment.iter_mut().enumerate() {
        let c = *slot as usize;
        if !dirty[c] {
            continue;
        }
        let nc = side.skm.assign(emb.row(v));
        if nc != *slot {
            moves.push((v as u32, nc));
            *slot = nc;
            affected[nc as usize] = true;
        }
    }
    // Recommit every affected centroid to the exact member mean
    // (accumulated in id order) and reset its drift baseline; a cluster
    // with no members left keeps its position with count 0.
    let d = emb.cols();
    let mut sums = vec![0f32; k * d];
    let mut counts = vec![0usize; k];
    for (v, &c) in assignment.iter().enumerate() {
        let c = c as usize;
        if !affected[c] {
            continue;
        }
        counts[c] += 1;
        for (s, &x) in sums[c * d..(c + 1) * d].iter_mut().zip(emb.row(v)) {
            *s += x;
        }
    }
    for c in 0..k {
        if !affected[c] {
            continue;
        }
        if counts[c] > 0 {
            let inv = 1.0 / counts[c] as f32;
            let row: Vec<f32> = sums[c * d..(c + 1) * d].iter().map(|&s| s * inv).collect();
            side.skm.set_center(c, &row, counts[c]);
        } else {
            let row = side.skm.centroids().row(c).to_vec();
            side.skm.set_center(c, &row, 0);
        }
        let committed = side.skm.centroids().row(c).to_vec();
        side.baseline.set_row(c, &committed);
        side.refresh_drift(c);
    }
    (moves, num_dirty, max_drift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_hierarchy_bytes, write_hierarchy};
    use crate::stack::Level;
    use hignn_graph::BipartiteGraph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Hand-built 2-level hierarchy: 2 users, 4 items, unit-norm-ish
    /// dyadic embeddings so means stay exact.
    fn tiny() -> (Hierarchy, BipartiteGraph) {
        let level1 = Level {
            user_embeddings: Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            item_embeddings: Matrix::from_vec(
                4,
                2,
                vec![1.0, 0.0, 0.5, 0.5, -1.0, 0.0, -0.5, -0.5],
            ),
            user_assignment: Assignment::new(vec![0, 1], 2),
            item_assignment: Assignment::new(vec![0, 0, 1, 1], 2),
            coarsened: BipartiteGraph::from_edges(
                2,
                2,
                vec![(0, 0, 2.0), (1, 1, 2.0)],
            ),
            epoch_losses: vec![],
        };
        let level2 = Level {
            user_embeddings: Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            item_embeddings: Matrix::from_vec(2, 2, vec![0.75, 0.25, -0.75, -0.25]),
            user_assignment: Assignment::new(vec![0, 0], 1),
            item_assignment: Assignment::new(vec![0, 0], 1),
            coarsened: BipartiteGraph::from_edges(1, 1, vec![(0, 0, 4.0)]),
            epoch_losses: vec![],
        };
        let h = Hierarchy::from_parts(vec![level1, level2], 2, 4).unwrap();
        let g = BipartiteGraph::from_edges(
            2,
            4,
            vec![(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)],
        );
        (h, g)
    }

    fn hierarchy_bytes(h: &Hierarchy) -> Vec<u8> {
        let mut buf = Vec::new();
        write_hierarchy(&mut buf, h).unwrap();
        buf
    }

    /// A small valid hierarchy drawn from `rng`: 1-3 levels, a handful
    /// of vertices, random embeddings, assignments, coarsened edges and
    /// loss histories.
    fn random_hierarchy(rng: &mut StdRng) -> Hierarchy {
        let dim = rng.gen_range(1..4usize);
        let (num_users, num_items) = (rng.gen_range(2..6usize), rng.gen_range(2..6usize));
        let (mut nu, mut ni) = (num_users, num_items);
        let mut levels = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let (ku, ki) = (rng.gen_range(1..=nu), rng.gen_range(1..=ni));
            let mut matrix = |rows: usize| {
                Matrix::from_vec(rows, dim, (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            };
            let (user_embeddings, item_embeddings) = (matrix(nu), matrix(ni));
            let mut assignment = |n: usize, k: usize| {
                Assignment::new((0..n).map(|_| rng.gen_range(0..k as u32)).collect(), k)
            };
            let (user_assignment, item_assignment) = (assignment(nu, ku), assignment(ni, ki));
            let edges: Vec<(u32, u32, f32)> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    (rng.gen_range(0..ku as u32), rng.gen_range(0..ki as u32), rng.gen_range(0.5..4.0))
                })
                .collect();
            levels.push(Level {
                user_embeddings,
                item_embeddings,
                user_assignment,
                item_assignment,
                coarsened: BipartiteGraph::from_edges(ku, ki, edges),
                epoch_losses: (0..rng.gen_range(0..3usize)).map(|_| rng.gen_range(0.0..5.0)).collect(),
            });
            (nu, ni) = (ku, ki);
        }
        Hierarchy::from_parts(levels, num_users, num_items).unwrap()
    }

    /// Every single-value change the fingerprint must notice, applied to
    /// `h` one at a time: one embedding bit in the first and last row of
    /// each matrix, one assignment entry, `num_clusters`, one coarsened
    /// weight bit and one endpoint, one loss value, one more loss, and
    /// the last user row moved to the front of the item matrix (same
    /// flat data, different shapes).
    fn single_mutations(h: &Hierarchy) -> Vec<(String, Hierarchy)> {
        let mut out = Vec::new();
        let mut push = |what: &str, edit: &dyn Fn(&mut Level)| {
            for l in 0..h.num_levels() {
                let mut m = h.clone();
                edit(&mut m.parts_mut().0[l]);
                out.push((format!("level {}: {what}", l + 1), m));
            }
        };
        let flip = |m: &mut Matrix, i: usize, j: usize| {
            m.set(i, j, f32::from_bits(m.get(i, j).to_bits() ^ 1));
        };
        push("first user row bit", &|lv| flip(&mut lv.user_embeddings, 0, 0));
        push("last user row bit", &|lv| {
            let (r, c) = lv.user_embeddings.shape();
            flip(&mut lv.user_embeddings, r - 1, c - 1);
        });
        push("first item row bit", &|lv| flip(&mut lv.item_embeddings, 0, 0));
        push("last item row bit", &|lv| {
            let (r, c) = lv.item_embeddings.shape();
            flip(&mut lv.item_embeddings, r - 1, c - 1);
        });
        // One more cluster, so the entry edit below always has a
        // different id to move to; alone it is the `num_clusters` case.
        let reassign = |lv: &mut Level, edit: &dyn Fn(&mut u32)| {
            let k = lv.user_assignment.num_clusters();
            let mut a = lv.user_assignment.as_slice().to_vec();
            edit(a.last_mut().unwrap());
            lv.user_assignment = Assignment::new(a, k + 1);
        };
        push("num_clusters", &|lv| reassign(lv, &|_| {}));
        push("assignment entry", &|lv| {
            let spare = lv.user_assignment.num_clusters() as u32;
            reassign(lv, &|c| *c = spare)
        });
        let regraph = |lv: &mut Level, edit: &dyn Fn(&mut (u32, u32, f32))| {
            let g = &lv.coarsened;
            let mut edges = g.edges().to_vec();
            edit(edges.last_mut().unwrap());
            lv.coarsened = BipartiteGraph::from_edges(g.num_left(), g.num_right() + 1, edges);
        };
        // `regraph` widens the right side so the endpoint edit has a
        // free vertex; the control below widens it and edits nothing.
        push("coarsened dims", &|lv| regraph(lv, &|_| {}));
        push("coarsened weight bit", &|lv| {
            regraph(lv, &|e| e.2 = f32::from_bits(e.2.to_bits() ^ 1))
        });
        push("coarsened endpoint", &|lv| {
            let free = lv.coarsened.num_right() as u32;
            regraph(lv, &|e| e.1 = free)
        });
        push("one more loss", &|lv| lv.epoch_losses.push(0.25));
        push("loss value", &|lv| {
            lv.epoch_losses.push(0.25);
            lv.epoch_losses[0] = f32::from_bits(lv.epoch_losses[0].to_bits() ^ 1);
        });
        push("user row moved to items", &|lv| {
            let dim = lv.user_embeddings.cols();
            let users = lv.user_embeddings.data();
            let (keep, moved) = users.split_at(users.len() - dim);
            let items = [moved, lv.item_embeddings.data()].concat();
            let (nu, ni) = (lv.user_embeddings.rows(), lv.item_embeddings.rows());
            lv.user_embeddings = Matrix::from_vec(nu - 1, dim, keep.to_vec());
            lv.item_embeddings = Matrix::from_vec(ni + 1, dim, items);
        });
        out
    }

    #[test]
    fn fingerprint_tracks_content() {
        let (h, _) = tiny();
        let fp = hierarchy_fingerprint(&h);
        assert_eq!(fp, hierarchy_fingerprint(&h), "deterministic");
        let bytes = hierarchy_bytes(&h);
        let reloaded = read_hierarchy_bytes(&bytes).unwrap();
        assert_eq!(fp, hierarchy_fingerprint(&reloaded), "stable across roundtrip");
        let mutated = single_mutations(&h);
        for (what, m) in &mutated {
            assert_ne!(hierarchy_fingerprint(m), fp, "{what} went unnoticed");
        }
        // Mutations differ from each other too, not just from the base:
        // an edit that rides on a widened graph or assignment must not
        // be noticed only through the widening.
        let mut fps: Vec<u64> = mutated.iter().map(|(_, m)| hierarchy_fingerprint(m)).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), mutated.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `fingerprint(a) == fingerprint(b)` ⇔ `a` and `b` serialise to
        /// the same bytes: over reloads, independent draws from a small
        /// seed space (so equal pairs occur), and every single mutation.
        #[test]
        fn fingerprint_equality_is_byte_equality(seed_a in 0u64..24, seed_b in 0u64..24) {
            let a = random_hierarchy(&mut StdRng::seed_from_u64(seed_a));
            let b = random_hierarchy(&mut StdRng::seed_from_u64(seed_b));
            let (fa, bytes_a) = (hierarchy_fingerprint(&a), hierarchy_bytes(&a));
            let reloaded = read_hierarchy_bytes(&bytes_a).unwrap();
            prop_assert_eq!(hierarchy_fingerprint(&reloaded), fa);
            prop_assert_eq!(hierarchy_fingerprint(&b) == fa, hierarchy_bytes(&b) == bytes_a);
            for (what, m) in single_mutations(&a) {
                prop_assert_eq!(
                    hierarchy_fingerprint(&m) == fa,
                    hierarchy_bytes(&m) == bytes_a,
                    "{}", what
                );
            }
        }
    }

    #[test]
    fn ingest_extends_and_delta_replays_bitwise() {
        let (h, g) = tiny();
        let mut replica = h.clone();
        let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
        // User 2 and items 4, 5 are new; user 2 buys old item 0 and the
        // new items; old user 1 also touches new item 4.
        let batch: Vec<(u32, u32, f32)> = vec![
            (2, 0, 1.0),
            (2, 4, 2.0),
            (2, 5, 1.0),
            (1, 4, 1.0),
        ];
        let (report, delta) = engine.ingest(&batch).unwrap();
        assert_eq!(report.new_users, 1);
        assert_eq!(report.new_items, 2);
        assert_eq!(delta.seq, 1);
        assert_eq!(engine.hierarchy().num_users(), 3);
        assert_eq!(engine.hierarchy().num_items(), 6);
        // New nodes have full hierarchical embeddings (chains resolve).
        assert_eq!(engine.hierarchy().hierarchical_user(2).len(), engine.hierarchy().user_dim());
        // Replica catches up via the delta, bit for bit.
        apply_delta(&mut replica, &delta).unwrap();
        assert_eq!(hierarchy_bytes(&replica), hierarchy_bytes(engine.hierarchy()));
    }

    #[test]
    fn delta_roundtrips_and_double_apply_is_rejected() {
        let (h, g) = tiny();
        let mut replica = h.clone();
        let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
        let (_, delta) = engine.ingest(&[(2, 4, 1.0), (2, 0, 1.0)]).unwrap();
        let mut bytes = Vec::new();
        write_delta(&mut bytes, &delta).unwrap();
        let back = read_delta_bytes(&bytes).unwrap();
        assert_eq!(back.seq, delta.seq);
        assert_eq!(back.new_users, delta.new_users);
        assert_eq!(back.new_items, delta.new_items);
        assert_eq!(back.user_moves, delta.user_moves);
        assert_eq!(back.new_edges, delta.new_edges);
        // Re-encoding the decoded delta is bitwise identical.
        let mut again = Vec::new();
        write_delta(&mut again, &back).unwrap();
        assert_eq!(bytes, again);

        apply_delta(&mut replica, &back).unwrap();
        let patched = hierarchy_bytes(&replica);
        // Applying the same delta again fails closed (here on the base
        // shape; same-shape double-applies die on the fingerprint) and
        // leaves the hierarchy untouched.
        let err = apply_delta(&mut replica, &back).unwrap_err();
        assert!(matches!(err, HignnError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("mismatch"), "{err}");
        assert_eq!(hierarchy_bytes(&replica), patched);
    }

    #[test]
    fn drift_threshold_triggers_bounded_recoarsen() {
        let (h, g) = tiny();
        // Tiny threshold: the very first arrivals should dirty their
        // clusters and trigger the re-coarsen path.
        let cfg = IngestConfig { drift_threshold: 1e-6, normalize: true };
        let mut replica = h.clone();
        let mut engine = IngestEngine::new(h, g, cfg).unwrap();
        let batch: Vec<(u32, u32, f32)> = vec![(2, 0, 1.0), (3, 1, 1.0), (2, 4, 1.0)];
        let (report, delta) = engine.ingest(&batch).unwrap();
        assert!(report.dirty_user_clusters > 0 || report.dirty_item_clusters > 0);
        assert!(report.max_user_drift > 0.0 || report.max_item_drift > 0.0);
        // The delta (including any moves) still replays bitwise.
        apply_delta(&mut replica, &delta).unwrap();
        assert_eq!(hierarchy_bytes(&replica), hierarchy_bytes(engine.hierarchy()));
    }

    #[test]
    fn sequential_deltas_have_monotone_seq_and_chain() {
        let (h, g) = tiny();
        let base = h.clone();
        let mut replica = h.clone();
        let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
        let batches: Vec<Vec<(u32, u32, f32)>> = vec![
            vec![(2, 0, 1.0)],
            vec![(2, 4, 1.0), (0, 4, 1.0)],
            vec![(3, 5, 1.0), (3, 0, 1.0)],
        ];
        let mut last_seq = 0;
        for batch in &batches {
            let (_, delta) = engine.ingest(batch).unwrap();
            assert_eq!(delta.seq, last_seq + 1, "monotone seq");
            last_seq = delta.seq;
            apply_delta(&mut replica, &delta).unwrap();
        }
        assert_eq!(hierarchy_bytes(&replica), hierarchy_bytes(engine.hierarchy()));
        // Every level's coarse graph is still the trained one, edge for
        // edge and weight bit for weight bit, on writer and replica.
        let edge_bits = |g: &BipartiteGraph| -> (usize, usize, Vec<(u32, u32, u32)>) {
            let edges = g.edges().iter().map(|&(u, i, w)| (u, i, w.to_bits())).collect();
            (g.num_left(), g.num_right(), edges)
        };
        for (l, trained) in base.levels().iter().enumerate() {
            let want = edge_bits(&trained.coarsened);
            let writer = &engine.hierarchy().levels()[l].coarsened;
            assert_eq!(edge_bits(writer), want, "writer, level {}", l + 1);
            assert_eq!(edge_bits(&replica.levels()[l].coarsened), want, "replica, level {}", l + 1);
        }
    }

    /// Encoded size of `d` under HGHD 2: preamble, six CRC-framed
    /// sections, an 80-byte header, a dim word per arrival section, and
    /// nothing that grows with the model.
    fn pinned_delta_len(d: &HierarchyDelta, dim: usize) -> usize {
        let arrivals = d.new_users.len() + d.new_items.len();
        let moves = d.user_moves.len() + d.item_moves.len();
        176 + 12 * d.new_edges.len() + (4 + 4 * dim) * arrivals + 8 * moves
    }

    #[test]
    fn delta_size_is_linear_in_the_batch() {
        let (h, g) = tiny();
        let dim = h.levels()[0].user_embeddings.cols();
        let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
        let batches: Vec<Vec<(u32, u32, f32)>> = vec![
            vec![],
            vec![(2, 0, 1.0), (3, 1, 1.0), (2, 4, 1.0)],
            vec![(0, 5, 1.0), (4, 2, 2.0)],
        ];
        let encoded_len = |d: &HierarchyDelta| {
            let mut bytes = Vec::new();
            write_delta(&mut bytes, d).unwrap();
            bytes.len()
        };
        let mut last = None;
        for batch in &batches {
            let (_, delta) = engine.ingest(batch).unwrap();
            assert_eq!(encoded_len(&delta), pinned_delta_len(&delta, dim), "delta {}", delta.seq);
            last = Some(delta);
        }
        // The tiny model moves nobody; the move sections are sized the
        // same way whatever their content.
        let mut moved = last.unwrap();
        moved.user_moves.push((0, 1));
        moved.item_moves.extend([(1, 1), (2, 0)]);
        assert_eq!(encoded_len(&moved), pinned_delta_len(&moved, dim));
    }

    #[test]
    fn corrupt_and_truncated_deltas_fail_closed() {
        let (h, g) = tiny();
        let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
        let (_, delta) = engine.ingest(&[(2, 4, 1.5), (0, 4, 1.0)]).unwrap();
        let mut clean = Vec::new();
        write_delta(&mut clean, &delta).unwrap();
        // Every spread single-byte flip is detected.
        for pos in (0..clean.len()).step_by(17) {
            let mut evil = clean.clone();
            evil[pos] ^= 0x40;
            assert!(read_delta_bytes(&evil).is_err(), "flip at byte {pos} went undetected");
        }
        // Every prefix truncation errors instead of panicking.
        for cut in (0..clean.len()).step_by(23) {
            assert!(read_delta_bytes(&clean[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Trailing garbage is rejected.
        let mut padded = clean.clone();
        padded.extend_from_slice(&[0u8; 7]);
        assert!(read_delta_bytes(&padded).is_err());
    }

    #[test]
    fn wrong_base_is_rejected_before_mutation() {
        let (h, g) = tiny();
        let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
        let (_, delta) = engine.ingest(&[(2, 0, 1.0)]).unwrap();
        // A hierarchy with different content (but same shape) must be
        // rejected by the fingerprint check, untouched.
        let (mut other, _) = tiny();
        {
            let (levels, _, _) = other.parts_mut();
            levels[0].user_embeddings.set(0, 0, 0.5);
        }
        let before = hierarchy_bytes(&other);
        let err = apply_delta(&mut other, &delta).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        assert_eq!(hierarchy_bytes(&other), before);
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn rejects_bad_weights_and_mismatched_graph() {
        let (h, g) = tiny();
        let mut engine = IngestEngine::new(h.clone(), g, IngestConfig::default()).unwrap();
        for w in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            let err = engine.ingest(&[(2, 0, w)]).unwrap_err();
            assert!(matches!(err, HignnError::Config(_)), "weight {w}: {err}");
        }
        let small = BipartiteGraph::from_edges(1, 1, vec![(0, 0, 1.0)]);
        let err = match IngestEngine::new(h, small, IngestConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("mismatched graph accepted"),
        };
        assert!(matches!(err, HignnError::Config(_)), "{err}");
    }

    #[test]
    fn save_then_ingest_equals_ingest_then_save() {
        let (h, g) = tiny();
        let batch: Vec<(u32, u32, f32)> = vec![(2, 4, 1.0), (2, 0, 2.0), (1, 5, 1.0)];
        // Path 1: ingest in memory, then serialise.
        let mut e1 = IngestEngine::new(h.clone(), g.clone(), IngestConfig::default()).unwrap();
        e1.ingest(&batch).unwrap();
        let bytes1 = hierarchy_bytes(e1.hierarchy());
        // Path 2: serialise, reload, then ingest.
        let reloaded = read_hierarchy_bytes(&hierarchy_bytes(&h)).unwrap();
        let mut e2 = IngestEngine::new(reloaded, g, IngestConfig::default()).unwrap();
        e2.ingest(&batch).unwrap();
        let bytes2 = hierarchy_bytes(e2.hierarchy());
        assert_eq!(bytes1, bytes2, "ingest-then-save must equal save-then-ingest bitwise");
    }

    #[test]
    fn delta_file_roundtrip_is_atomic_and_loadable() {
        let (h, g) = tiny();
        let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
        let (_, delta) = engine.ingest(&[(2, 0, 1.0)]).unwrap();
        let dir = std::env::temp_dir().join(format!("hignn_ingest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d1.hgd");
        save_delta(&path, &delta).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let back = load_delta(&path).unwrap();
        assert_eq!(back.seq, delta.seq);
        assert_eq!(back.patched_fingerprint, delta.patched_fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
