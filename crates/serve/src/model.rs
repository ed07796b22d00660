//! The read-only serving view of a trained hierarchy.

use crate::scorer::Scorer;
use hignn::error::HignnError;
use hignn::ingest::{HierarchyDelta, HierarchyDigest};
use hignn::io::read_hierarchy_bytes;
use hignn::stack::Hierarchy;
use hignn_tensor::Matrix;
use std::collections::HashMap;
use std::path::Path;

/// A trained HGHI model prepared for serving.
///
/// Loading decodes the file once (zero-copy CRC-verified sections, see
/// `hignn::io::read_hierarchy_bytes`) and precomputes everything a
/// request needs, so [`crate::engine`]'s per-request path only ever
/// reads borrowed rows:
///
/// * `user_features` / `item_features` — the paper's `z_u^H` / `z_i^H`
///   hierarchical embeddings for every original user and item;
/// * `node_reps[l-1]` — representative features for every tier-`l`
///   cluster node, recursively the mean of its children's features
///   (tier 0 = the exact leaf `z_i^H`). A node therefore carries its
///   *own* ancestor-chain components exactly (children share them) and
///   descendant summaries in the finer components;
/// * `children[l-1]` — the tier-`l-1` children of every tier-`l` node.
///
/// The struct is immutable after construction and `Sync`, so one model
/// serves any number of threads.
#[derive(Clone)]
pub struct ServeModel {
    hierarchy: Hierarchy,
    user_features: Matrix,
    item_features: Matrix,
    node_reps: Vec<Matrix>,
    children: Vec<Vec<Vec<u32>>>,
    scorer: Scorer,
    /// The hierarchy's digest once known: taken on the first delta,
    /// then advanced by every delta that applies. `apply_delta` is the
    /// only `&mut` path to `hierarchy`, so the two stay paired.
    digest: Option<HierarchyDigest>,
}

impl std::fmt::Debug for ServeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeModel")
            .field("num_users", &self.num_users())
            .field("num_items", &self.num_items())
            .field("num_levels", &self.num_levels())
            .field("scorer", &self.scorer)
            .finish_non_exhaustive()
    }
}

impl ServeModel {
    /// Loads a model file read-only and prepares it for serving with
    /// the given scorer seed.
    ///
    /// A truncated or CRC-corrupt file surfaces as
    /// [`HignnError::Corrupt`] (exit code 4); a missing or unreadable
    /// file as [`HignnError::Io`] (exit code 3). Never panics on bad
    /// bytes.
    pub fn load(path: impl AsRef<Path>, scorer_seed: u64) -> Result<ServeModel, HignnError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| HignnError::io_path(path, e))?;
        let hierarchy = read_hierarchy_bytes(&bytes).map_err(|e| HignnError::io_path(path, e))?;
        Ok(Self::from_hierarchy(hierarchy, scorer_seed))
    }

    /// Prepares an in-memory hierarchy for serving (the load path after
    /// decoding; also the entry point for tests and benches that train
    /// in process).
    pub fn from_hierarchy(hierarchy: Hierarchy, scorer_seed: u64) -> ServeModel {
        let user_features = hierarchy.hierarchical_users();
        let item_features = hierarchy.hierarchical_items();
        let num_levels = hierarchy.num_levels();
        let item_dim = hierarchy.item_dim();

        let mut children = Vec::with_capacity(num_levels);
        let mut node_reps: Vec<Matrix> = Vec::with_capacity(num_levels);
        for l in 0..num_levels {
            let assignment = &hierarchy.levels()[l].item_assignment;
            let members = assignment.members();
            // Representative feature of a tier-(l+1) node: the mean of
            // its children's representatives, accumulated in child-id
            // order (deterministic). Empty clusters keep a zero row.
            let finer: &Matrix = if l == 0 { &item_features } else { &node_reps[l - 1] };
            let mut reps = Matrix::zeros(members.len(), item_dim);
            for (node, kids) in members.iter().enumerate() {
                if kids.is_empty() {
                    continue;
                }
                let row = reps.row_mut(node);
                for &kid in kids {
                    for (acc, &v) in row.iter_mut().zip(finer.row(kid as usize)) {
                        *acc += v;
                    }
                }
                let inv = 1.0 / kids.len() as f32;
                for acc in row.iter_mut() {
                    *acc *= inv;
                }
            }
            node_reps.push(reps);
            children.push(members);
        }

        let scorer = Scorer::new(hierarchy.user_dim(), item_dim, scorer_seed);
        ServeModel {
            hierarchy,
            user_features,
            item_features,
            node_reps,
            children,
            scorer,
            digest: None,
        }
    }

    /// Number of users the model covers.
    pub fn num_users(&self) -> usize {
        self.hierarchy.num_users()
    }

    /// Number of items the model covers.
    pub fn num_items(&self) -> usize {
        self.hierarchy.num_items()
    }

    /// Number of hierarchy levels (= prunable tiers above the leaves).
    pub fn num_levels(&self) -> usize {
        self.hierarchy.num_levels()
    }

    /// The decoded hierarchy (read-only).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Precomputed `z_u^H` rows (`num_users x user_dim`).
    pub fn user_features(&self) -> &Matrix {
        &self.user_features
    }

    /// Precomputed `z_i^H` rows (`num_items x item_dim`).
    pub fn item_features(&self) -> &Matrix {
        &self.item_features
    }

    /// Representative features of tier-`l` nodes (1-based tier).
    pub fn node_reps(&self, l: usize) -> &Matrix {
        &self.node_reps[l - 1]
    }

    /// Children (at tier `l-1`) of every tier-`l` node (1-based tier;
    /// tier-0 children are original item ids).
    pub fn children(&self, l: usize) -> &[Vec<u32>] {
        &self.children[l - 1]
    }

    /// The ranking head.
    pub fn scorer(&self) -> &Scorer {
        &self.scorer
    }

    /// Catches this replica up to an ingesting writer by applying a
    /// [`HierarchyDelta`] **in place** — no file reload, no full
    /// feature recomputation, no full-model hash.
    ///
    /// The hierarchy patch itself is delegated to
    /// [`hignn::ingest::apply_delta_to_base`] (which checks the base
    /// before mutating and rolls the patch back if the result does not
    /// fingerprint to what the writer stated). Both checks read the
    /// model's [`HierarchyDigest`], taken once on the first delta and
    /// then advanced over each delta's arrival rows and level-1
    /// assignments, like the writer's. The precomputed serving state is
    /// then patched where the delta touched it:
    ///
    /// * `z^H` rows are appended for new vertices and recomputed only
    ///   for moved ones (an unmoved vertex's ancestor chain is
    ///   untouched, so its row is already exact);
    /// * tier-1 children lists stay sorted by id: an arrival is pushed
    ///   onto its cluster's list (its id exceeds every older one), and a
    ///   move takes the item out of one list and inserts it into
    ///   another; upper tiers are structurally frozen;
    /// * representative features are recomputed only for *dirty* tier-1
    ///   nodes (clusters that gained or lost a member), and dirtiness
    ///   propagates up the item tree.
    ///
    /// The result is bitwise identical to rebuilding the model from the
    /// patched hierarchy (asserted by the integration suite). On any
    /// error the model is untouched.
    pub fn apply_delta(&mut self, delta: &HierarchyDelta) -> Result<(), HignnError> {
        let old_users = self.hierarchy.num_users();
        let old_items = self.hierarchy.num_items();
        // The cluster each item move leaves, captured before the patch:
        // the item's previous move in this delta, else its arrival record
        // or base cluster. (`None` only for an out-of-range move, which
        // the patch below refuses.)
        let base_items = self.hierarchy.levels()[0].item_assignment.as_slice();
        let mut latest = HashMap::new();
        let move_from: Vec<Option<u32>> = delta
            .item_moves
            .iter()
            .map(|&(v, to)| {
                latest.insert(v, to).or_else(|| match (v as usize).checked_sub(old_items) {
                    None => Some(base_items[v as usize]),
                    Some(new) => delta.new_items.get(new).map(|a| a.cluster),
                })
            })
            .collect();

        let digest = self.digest.get_or_insert_with(|| HierarchyDigest::new(&self.hierarchy));
        hignn::ingest::apply_delta_to_base(&mut self.hierarchy, digest, delta)?;

        // --- z^H rows: append new vertices, recompute moved ones. ---
        let append_and_patch = |features: &mut Matrix,
                                old_n: usize,
                                new_n: usize,
                                moves: &[(u32, u32)],
                                row_of: &dyn Fn(usize) -> Vec<f32>| {
            let (rows, cols) = features.shape();
            debug_assert_eq!(rows, old_n);
            let mut data = std::mem::replace(features, Matrix::zeros(0, 0)).into_data();
            for v in old_n..new_n {
                data.extend_from_slice(&row_of(v));
            }
            let mut m = Matrix::from_vec(new_n, cols, data);
            for &(v, _) in moves {
                m.set_row(v as usize, &row_of(v as usize));
            }
            *features = m;
        };
        let h = &self.hierarchy;
        append_and_patch(
            &mut self.user_features,
            old_users,
            h.num_users(),
            &delta.user_moves,
            &|u| h.hierarchical_user(u),
        );
        append_and_patch(
            &mut self.item_features,
            old_items,
            h.num_items(),
            &delta.item_moves,
            &|i| h.hierarchical_item(i),
        );

        // --- Item tree: tier-1 membership changed; upper tiers are
        // structurally frozen. A tier-1 node is dirty if it gained an
        // arrival or was on either end of a move. ---
        let kids = &mut self.children[0];
        let mut dirty = vec![false; kids.len()];
        for (i, arrival) in (old_items as u32..).zip(&delta.new_items) {
            kids[arrival.cluster as usize].push(i);
            dirty[arrival.cluster as usize] = true;
        }
        for (&(v, to), from) in delta.item_moves.iter().zip(move_from) {
            let from = from.expect("moves are range-checked before the patch applies");
            let list = &mut kids[from as usize];
            let at = list.binary_search(&v).expect("children mirror the level-1 assignment");
            list.remove(at);
            let list = &mut kids[to as usize];
            let at = list.binary_search(&v).unwrap_err();
            list.insert(at, v);
            dirty[from as usize] = true;
            dirty[to as usize] = true;
        }
        // Recompute dirty representatives tier by tier, propagating
        // dirtiness through the (frozen) upper assignments. The
        // accumulation is the exact from-scratch loop, so clean and
        // dirty rows alike match a full rebuild bitwise.
        for l in 0..self.node_reps.len() {
            let (lower, upper) = self.node_reps.split_at_mut(l);
            let finer: &Matrix = if l == 0 { &self.item_features } else { &lower[l - 1] };
            let reps = &mut upper[0];
            for (node, is_dirty) in dirty.iter().enumerate() {
                if !is_dirty {
                    continue;
                }
                let kids = &self.children[l][node];
                let row = reps.row_mut(node);
                row.fill(0.0);
                if kids.is_empty() {
                    continue;
                }
                for &kid in kids {
                    for (acc, &v) in row.iter_mut().zip(finer.row(kid as usize)) {
                        *acc += v;
                    }
                }
                let inv = 1.0 / kids.len() as f32;
                for acc in row.iter_mut() {
                    *acc *= inv;
                }
            }
            if l + 1 < self.node_reps.len() {
                let parent_of = &self.hierarchy.levels()[l + 1].item_assignment;
                let mut up = vec![false; self.children[l + 1].len()];
                for (node, &is_dirty) in dirty.iter().enumerate() {
                    if is_dirty {
                        up[parent_of.cluster_of(node) as usize] = true;
                    }
                }
                dirty = up;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hignn::stack::Level;
    use hignn_graph::{Assignment, BipartiteGraph};

    /// A tiny hand-built 2-level hierarchy: 2 users, 4 items, item tree
    /// 4 leaves -> 2 tier-1 clusters -> 1 tier-2 root. All values
    /// dyadic so means are exact.
    fn tiny() -> Hierarchy {
        let level1 = Level {
            user_embeddings: Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            item_embeddings: Matrix::from_vec(
                4,
                2,
                vec![1.0, 0.0, 0.5, 0.5, -1.0, 0.0, -0.5, -0.5],
            ),
            user_assignment: Assignment::new(vec![0, 0], 1),
            item_assignment: Assignment::new(vec![0, 0, 1, 1], 2),
            coarsened: BipartiteGraph::from_edges(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]),
            epoch_losses: vec![],
        };
        let level2 = Level {
            user_embeddings: Matrix::from_vec(1, 2, vec![0.25, 0.25]),
            item_embeddings: Matrix::from_vec(2, 2, vec![0.75, 0.25, -0.75, -0.25]),
            user_assignment: Assignment::new(vec![0], 1),
            item_assignment: Assignment::new(vec![0, 0], 1),
            coarsened: BipartiteGraph::from_edges(1, 1, vec![(0, 0, 2.0)]),
            epoch_losses: vec![],
        };
        Hierarchy::from_parts(vec![level1, level2], 2, 4).unwrap()
    }

    #[test]
    fn representatives_are_descendant_means_with_exact_ancestor_chain() {
        let m = ServeModel::from_hierarchy(tiny(), 0);
        assert_eq!(m.num_levels(), 2);
        // Leaf features: z_i^H = [level-1 emb | tier-1 ancestor's level-2 emb].
        assert_eq!(m.item_features().row(0), &[1.0, 0.0, 0.75, 0.25]);
        assert_eq!(m.item_features().row(2), &[-1.0, 0.0, -0.75, -0.25]);
        // Tier-1 node 0 = mean of leaves 0,1; its level-2 component is
        // its own embedding (children share it).
        assert_eq!(m.node_reps(1).row(0), &[0.75, 0.25, 0.75, 0.25]);
        assert_eq!(m.node_reps(1).row(1), &[-0.75, -0.25, -0.75, -0.25]);
        // Tier-2 root = mean of the two tier-1 reps.
        assert_eq!(m.node_reps(2).row(0), &[0.0, 0.0, 0.0, 0.0]);
        // Children lists descend the tree.
        assert_eq!(m.children(1), &[vec![0, 1], vec![2, 3]]);
        assert_eq!(m.children(2), &[vec![0, 1]]);
    }

    #[test]
    fn load_roundtrip_and_corruption() {
        let h = tiny();
        let dir = std::env::temp_dir().join(format!("hignn_serve_model_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.hgh");
        hignn::io::save_hierarchy(&path, &h).unwrap();
        let m = ServeModel::load(&path, 3).unwrap();
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.num_items(), 4);

        // Corrupt one payload byte: structured Corrupt error, exit 4.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = ServeModel::load(&path, 3).unwrap_err();
        assert!(matches!(err, HignnError::Corrupt { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);

        // Missing file: I/O error, exit 3.
        let err = ServeModel::load(dir.join("absent.hgh"), 3).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
