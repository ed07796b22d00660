//! Workload definitions and seeded input generation.
//!
//! Everything the program under test receives — graph, features,
//! request stream, edge batches — is made here from the workload seed.

use crate::adapter::{self, DatasetKind, Edge, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Edges per streamed batch.
pub const BATCH_EDGES: usize = 32;
/// Items asked for per request, and the beam width they are served at.
pub const TOP_K: usize = 10;
pub const BEAM: usize = 16;

/// Seed of the dataset generator and of training, so of the model: the
/// repository's default. It is pinned, and `--seed` draws only what
/// arrives at a model — the request stream, the arrival order of the
/// held-out edges, the inputs of the layer probes — because the shape of
/// a trained hierarchy, and with it the rows a beam descent scores, moves
/// by a factor of two from one dataset or training seed to the next
/// (top-k p50 170–390 µs over ten seeds), which no regression bound
/// survives. Runs with different `--seed` serve one model under
/// different traffic.
pub const CORPUS_SEED: u64 = 2020;

/// Which phase of the lifecycle a workload spends `--seconds` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Train,
    Serve,
    Stream,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainDense,
    TrainSparseDeep,
    ServeTopk,
    StreamReplica,
}

/// Input shape and model depth of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub dataset: DatasetKind,
    pub scale: f64,
    pub levels: usize,
    pub epochs: usize,
    pub primary: Phase,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainDense,
        Workload::TrainSparseDeep,
        Workload::ServeTopk,
        Workload::StreamReplica,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDense => "train_dense",
            Workload::TrainSparseDeep => "train_sparse_deep",
            Workload::ServeTopk => "serve_topk",
            Workload::StreamReplica => "stream_replica",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        // Sized so that one `TrainSpec::run` takes 2–4 s on the 2-core
        // reference host: three repeats must fit in a run. The last
        // three share one input shape, so the serving and streaming
        // workloads run on the model `train_sparse_deep` times.
        let sparse = |primary| Spec {
            dataset: DatasetKind::Sparse,
            scale: 1.5,
            levels: 3,
            epochs: 1,
            primary,
        };
        match self {
            Workload::TrainDense => Spec {
                dataset: DatasetKind::Dense,
                scale: 0.25,
                levels: 2,
                epochs: 2,
                primary: Phase::Train,
            },
            Workload::TrainSparseDeep => sparse(Phase::Train),
            Workload::ServeTopk => sparse(Phase::Serve),
            Workload::StreamReplica => sparse(Phase::Stream),
        }
    }
}

/// The 90 % / 10 % split by vertex id: the top tenth of user ids and of
/// item ids are future arrivals.
pub struct Split {
    pub base_users: usize,
    pub base_items: usize,
    /// Edges among base vertices only.
    pub base_edges: Vec<Edge>,
    /// Every edge with at least one held-out endpoint.
    pub held_out: Vec<Edge>,
}

pub fn split_by_id(edges: &[Edge], num_users: usize, num_items: usize) -> Split {
    let base_users = (num_users * 9 / 10).max(2);
    let base_items = (num_items * 9 / 10).max(2);
    let (base_edges, held_out) = edges
        .iter()
        .partition(|&&(u, i, _)| (u as usize) < base_users && (i as usize) < base_items);
    Split {
        base_users,
        base_items,
        base_edges,
        held_out,
    }
}

/// Orders held-out edges as a stream of arrivals: seeded shuffle, then a
/// stable sort by how far into the held-out id range the edge's newest
/// endpoint lies, so new users and new items appear gradually and in id
/// order on both sides at once.
pub fn arrival_order(split: &Split, num_users: usize, num_items: usize, seed: u64) -> Vec<Edge> {
    let mut stream = split.held_out.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57AE_A11B);
    for n in (1..stream.len()).rev() {
        stream.swap(n, rng.gen_range(0..=n));
    }
    let new_users = (num_users - split.base_users).max(1) as u64;
    let new_items = (num_items - split.base_items).max(1) as u64;
    // Position in the held-out range as a fraction, cross-multiplied so
    // the two sides compare without division.
    stream.sort_by_key(|&(u, i, _)| {
        let au = (u as u64 + 1).saturating_sub(split.base_users as u64) * new_items;
        let ai = (i as u64 + 1).saturating_sub(split.base_items as u64) * new_users;
        au.max(ai)
    });
    stream
}

/// Everything one workload run feeds the program.
pub struct Inputs {
    pub base_users: usize,
    pub base_items: usize,
    pub base_edges: Vec<Edge>,
    /// Features of the base vertices.
    pub user_features: Matrix,
    pub item_features: Matrix,
    /// Ground-truth leaf topic of each base item.
    pub item_leaf: Vec<u32>,
    /// Held-out edges in arrival order; streamed in [`BATCH_EDGES`] chunks.
    pub stream: Vec<Edge>,
    /// Seconds spent inside the dataset generator.
    pub generate_s: f64,
}

pub fn build_inputs(spec: &Spec, seed: u64) -> Inputs {
    let t = std::time::Instant::now();
    let ds = adapter::generate(spec.dataset, spec.scale, CORPUS_SEED);
    let generate_s = t.elapsed().as_secs_f64();
    let split = split_by_id(&ds.edges, ds.num_users, ds.num_items);
    let stream = arrival_order(&split, ds.num_users, ds.num_items, seed);
    Inputs {
        base_users: split.base_users,
        base_items: split.base_items,
        user_features: adapter::row_prefix(&ds.user_features, split.base_users),
        item_features: adapter::row_prefix(&ds.item_features, split.base_items),
        item_leaf: ds.item_leaf[..split.base_items].to_vec(),
        base_edges: split.base_edges,
        stream,
        generate_s,
    }
}

/// `n` user ids drawn uniformly with replacement.
pub fn sample_users(rng: &mut StdRng, num_users: usize, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..num_users)).collect()
}

/// The RNG the request stream of a run is drawn from.
pub fn request_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5E21_7E0F)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec {
            scale: 0.05,
            ..Workload::ServeTopk.spec()
        }
    }

    fn bytes(edges: &[Edge]) -> Vec<u8> {
        edges
            .iter()
            .flat_map(|&(u, i, w)| [u.to_le_bytes(), i.to_le_bytes(), w.to_le_bytes()].concat())
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let inputs = |seed| build_inputs(&tiny(), seed);
        let (a, b, c) = (inputs(11), inputs(11), inputs(12));
        assert_eq!(bytes(&a.stream), bytes(&b.stream));
        assert_eq!(bytes(&a.base_edges), bytes(&b.base_edges));
        let batches = |x: &Inputs| x.stream.chunks(BATCH_EDGES).map(bytes).collect::<Vec<_>>();
        assert_eq!(batches(&a), batches(&b));
        // Another seed: the same graph, another batch split.
        assert_eq!(bytes(&a.base_edges), bytes(&c.base_edges));
        assert_ne!(batches(&a), batches(&c));

        let users = |seed| sample_users(&mut request_rng(seed), a.base_users, 500);
        assert_eq!(users(11), users(11));
        assert_ne!(users(11), users(12));
        assert!(users(11).iter().all(|&u| u < a.base_users));
    }

    #[test]
    fn split_keeps_held_out_endpoints_out_of_the_base_graph() {
        let ds = adapter::generate(tiny().dataset, tiny().scale, 5);
        let split = split_by_id(&ds.edges, ds.num_users, ds.num_items);
        assert_eq!(
            split.base_edges.len() + split.held_out.len(),
            ds.edges.len()
        );
        assert!(!split.held_out.is_empty());
        let in_base =
            |&(u, i, _): &Edge| (u as usize) < split.base_users && (i as usize) < split.base_items;
        assert!(split.base_edges.iter().all(in_base));
        assert!(!split.held_out.iter().any(in_base));

        // The stream is a reordering of the held-out edges.
        let mut stream = bytes(&arrival_order(&split, ds.num_users, ds.num_items, 5));
        let mut held = bytes(&split.held_out);
        assert_eq!(stream.len(), held.len());
        stream.sort_unstable();
        held.sort_unstable();
        assert_eq!(stream, held);
    }

    #[test]
    fn arrivals_are_ordered_by_newest_endpoint() {
        let split = Split {
            base_users: 10,
            base_items: 10,
            base_edges: vec![],
            held_out: vec![
                (19, 0, 1.0),
                (10, 3, 1.0),
                (2, 15, 1.0),
                (11, 18, 1.0),
                (0, 10, 1.0),
            ],
        };
        let order: Vec<(u32, u32)> = arrival_order(&split, 20, 20, 1)
            .iter()
            .map(|&(u, i, _)| (u, i))
            .collect();
        // (10,3) and (0,10) tie on the first held-out id; the shuffle orders them.
        assert_eq!(order[2..], [(2, 15), (11, 18), (19, 0)]);
        assert!(order[..2].contains(&(10, 3)) && order[..2].contains(&(0, 10)));
    }

    #[test]
    fn base_graph_matches_the_base_hierarchy() {
        let spec = tiny();
        let inputs = build_inputs(&spec, 4);
        let graph =
            adapter::graph_from_edges(inputs.base_users, inputs.base_items, &inputs.base_edges);
        let settings = adapter::TrainSettings {
            levels: 2,
            epochs: 1,
            seed: CORPUS_SEED,
        };
        let h = adapter::train(
            settings,
            1,
            &graph,
            &inputs.user_features,
            &inputs.item_features,
        )
        .unwrap();
        assert_eq!(
            adapter::hierarchy_shape(&h),
            (inputs.base_users, inputs.base_items)
        );
        assert_eq!(inputs.item_leaf.len(), inputs.base_items);
        // What `IngestEngine::new` requires; it refuses a mismatched pair.
        let mut writer = adapter::Writer::new(h, graph).unwrap();
        writer
            .ingest(&inputs.stream[..BATCH_EDGES.min(inputs.stream.len())])
            .unwrap();
    }
}
