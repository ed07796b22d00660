//! Scoped-thread data-parallel execution with deterministic reduction.
//!
//! [`ParallelExecutor`] is the workspace's single threading primitive:
//! a configurable worker count over `std::thread::scope` (no thread
//! pool, no extra dependencies — scoped threads borrow the caller's
//! data directly, so a `&ParamStore` is shared immutably with zero
//! copies).
//!
//! ## The determinism contract
//!
//! Every parallel operation in this workspace is built so that its
//! result is a function of the *logical decomposition* of the work
//! (shard/chunk boundaries), never of the *physical schedule* (how many
//! workers ran, or which worker picked up which unit). Concretely:
//!
//! * [`ParallelExecutor::map`] returns results **in index order**,
//!   whatever order workers finished in;
//! * [`ParallelExecutor::map_chunks`] takes an explicit chunk length
//!   chosen by the caller — chunk boundaries must never be derived from
//!   the worker count;
//! * [`reduce_gradients`] combines per-shard [`Gradients`] by a fixed
//!   pairwise tree over shard indices, so the floating-point summation
//!   order depends only on the shard count.
//!
//! Under that contract, an N-worker run is **bit-identical** to a
//! 1-worker run of the same decomposition: f32 addition is not
//! associative, but the addition order here never changes. This is what
//! lets a training checkpoint written at one thread count resume
//! byte-identically at any other.

use crate::param::Gradients;

/// A scoped-thread worker pool of fixed width.
///
/// Cheap to construct (spawns nothing until work is submitted) and
/// `Copy`-light to pass around by reference. Worker threads live only
/// for the duration of one `map` call, which keeps the borrow story
/// trivial and adds ~10µs of spawn overhead per call — negligible
/// against the multi-millisecond batches it is used for.
#[derive(Clone, Debug)]
pub struct ParallelExecutor {
    workers: usize,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::single()
    }
}

impl ParallelExecutor {
    /// An executor with exactly `workers` threads. Zero is clamped to
    /// one (callers that must *reject* zero, like the CLI, validate
    /// before constructing).
    pub fn new(workers: usize) -> Self {
        ParallelExecutor { workers: workers.max(1) }
    }

    /// A single-worker executor: runs everything on the calling thread.
    pub fn single() -> Self {
        ParallelExecutor { workers: 1 }
    }

    /// An executor sized to the machine
    /// (`std::thread::available_parallelism`, falling back to 1).
    pub fn available() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelExecutor { workers: n }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Returns this executor, or a single-worker one when `work` (an
    /// element count, e.g. rows × dim) is below [`MIN_PARALLEL_WORK`].
    ///
    /// Spawn + scheduling overhead is a few tens of microseconds per
    /// `map` call; below the threshold the serial path is strictly
    /// faster. Determinism is unaffected: chunk decomposition is
    /// identical at any worker count, so the serial fallback is
    /// bit-identical by the existing 1-vs-N contract.
    pub fn throttle(&self, work: usize) -> ParallelExecutor {
        if work < MIN_PARALLEL_WORK {
            ParallelExecutor::single()
        } else {
            self.clone()
        }
    }

    /// Runs `f(0), f(1), ..., f(n-1)` across the worker pool and
    /// returns the results **in index order**.
    ///
    /// Scheduling is [`ParallelExecutor::map_with`]'s: worker `w` runs
    /// indices `w, w + k, w + 2k, …`. With one worker (or one task)
    /// everything runs inline on the calling thread.
    ///
    /// # Panics
    /// If `f` panics: once every worker has stopped, a panicking
    /// worker's payload is re-raised on the calling thread.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // Zero-sized states: a `Vec<()>` never allocates.
        self.map_with(&mut vec![(); self.workers], n, |_, i| f(i))
    }

    /// [`ParallelExecutor::map`] where each worker owns one element of
    /// `states` for the whole call: index `i` runs as
    /// `f(&mut states[i % k], i)` with `k = min(workers, states.len())`,
    /// and worker `w` takes its indices in ascending order. The mapping
    /// depends only on `k`, never on timing, so a per-worker cache
    /// (a training buffer pool) sees the same work on every run.
    ///
    /// Results come back **in index order**; they never depend on `k`
    /// unless `f` lets a state change its result.
    ///
    /// # Panics
    /// If `states` is empty while `n > 0`, or if `f` panics (re-raised
    /// on the calling thread once every worker has stopped).
    pub fn map_with<S, T, F>(&self, states: &mut [S], n: usize, f: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        assert!(!states.is_empty(), "map_with: no worker state for {n} tasks");
        let k = self.workers.min(states.len());
        if k == 1 || n == 1 {
            let state = &mut states[0];
            return (0..n).map(|i| f(state, i)).collect();
        }
        let f = &f;
        let per_worker: Vec<Vec<T>> = std::thread::scope(|scope| {
            let workers: Vec<_> = states[..k]
                .iter_mut()
                .enumerate()
                .map(|(w, state)| {
                    scope.spawn(move || (w..n).step_by(k).map(|i| f(state, i)).collect())
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        // Interleave back: worker w's j-th result is index w + j*k.
        let mut iters: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
        (0..n)
            .map(|i| iters[i % k].next().expect("worker i % k ran index i"))
            .collect()
    }

    /// Splits `0..len` into consecutive chunks of `chunk_len` (the last
    /// may be shorter), runs `f(chunk_index, start..end)` for each, and
    /// returns the per-chunk results in chunk order.
    ///
    /// **Determinism:** pass a `chunk_len` that does not depend on the
    /// worker count. The same chunking then produces the same per-chunk
    /// results (and the same merge order) at any thread count.
    pub fn map_chunks<T, F>(&self, len: usize, chunk_len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    {
        assert!(chunk_len > 0, "map_chunks: chunk_len must be positive");
        let chunks = len.div_ceil(chunk_len);
        self.map(chunks, |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            f(c, start..end)
        })
    }
}

/// Chunk length used by the deterministic row-parallel kernels in this
/// workspace (matrix products, K-means assignment, exact inference).
///
/// Fixed forever: chunk boundaries are part of the numeric contract —
/// deriving them from the worker count would make results depend on
/// the machine. 256 rows is coarse enough that scheduling overhead is
/// noise and fine enough to load-balance the row counts HiGNN sees.
pub const ROW_CHUNK: usize = 256;

/// Minimum per-call work (in elements, e.g. rows × feature dim) below
/// which [`ParallelExecutor::throttle`] falls back to the serial path.
///
/// Chosen so the ~10–50µs of scoped-thread spawn/teardown per `map`
/// call stays well under 10% of the kernel time it parallelises: at
/// ~1ns per fused multiply-add, 256k elements ≈ 0.5–1ms of work.
pub(crate) const MIN_PARALLEL_WORK: usize = 1 << 18;

/// Reduces per-shard gradients by a fixed pairwise tree over shard
/// indices, summing every shard into `shards[0]`: round one adds shard 1
/// into 0, 3 into 2, …; round two adds 2 into 0, 6 into 4, …; rounds
/// repeat until shard 0 holds the total. No-op for no shards.
///
/// The tree shape — and therefore the f32 summation order — depends
/// only on `shards.len()`, never on thread count or completion order,
/// which is what makes N-thread training bit-identical to 1-thread
/// training. (A left fold over shard indices would be equally
/// deterministic; the tree keeps the reduction depth logarithmic so
/// rounding error does not accumulate linearly in the shard count.)
///
/// The other shards keep their (now partial-sum) buffers, so the caller
/// can return every shard's buffers to the pool that leased them.
pub fn reduce_gradients(shards: &mut [Gradients]) {
    let n = shards.len();
    let mut stride = 1;
    while stride < n {
        for lo in (0..n - stride).step_by(2 * stride) {
            let (head, tail) = shards.split_at_mut(lo + stride);
            head[lo].add_from(&mut tail[0]);
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::param::ParamStore;

    #[test]
    fn map_returns_index_order_at_any_width() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 4, 8] {
            let exec = ParallelExecutor::new(workers);
            let got = exec.map(37, |i| i * i);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn map_chunks_covers_range_exactly_once() {
        let exec = ParallelExecutor::new(3);
        let chunks = exec.map_chunks(10, 4, |c, r| (c, r.start, r.end));
        assert_eq!(chunks, vec![(0, 0, 4), (1, 4, 8), (2, 8, 10)]);
        // Empty input -> no chunks.
        assert!(exec.map_chunks(0, 4, |c, _| c).is_empty());
    }

    #[test]
    fn throttle_serializes_small_work_only() {
        let exec = ParallelExecutor::new(8);
        assert_eq!(exec.throttle(MIN_PARALLEL_WORK - 1).workers(), 1);
        assert_eq!(exec.throttle(MIN_PARALLEL_WORK).workers(), 8);
        assert_eq!(exec.throttle(0).workers(), 1);
    }

    #[test]
    fn map_with_gives_index_i_the_state_i_mod_k() {
        for (workers, states) in [(1, 3), (2, 2), (3, 5), (4, 2)] {
            let k = workers.min(states);
            let mut seen: Vec<Vec<usize>> = vec![Vec::new(); states];
            let got = ParallelExecutor::new(workers).map_with(&mut seen, 10, |s, i| {
                s.push(i);
                2 * i
            });
            assert_eq!(got, (0..10).map(|i| 2 * i).collect::<Vec<_>>());
            for (w, s) in seen.iter().enumerate() {
                let expected: Vec<usize> =
                    if w < k { (w..10).step_by(k).collect() } else { Vec::new() };
                assert_eq!(s, &expected, "workers {workers}, states {states}, state {w}");
            }
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(ParallelExecutor::new(0).workers(), 1);
        assert!(ParallelExecutor::available().workers() >= 1);
    }

    #[test]
    #[should_panic(expected = "task 3 failed")]
    fn a_panicking_task_propagates_its_payload() {
        ParallelExecutor::new(2).map(8, |i| {
            if i == 3 {
                panic!("task 3 failed");
            }
            i
        });
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Make early indices slow so later indices finish first.
        let exec = ParallelExecutor::new(4);
        let got = exec.map(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    fn shard_gradients(n: usize) -> (ParamStore, Vec<Gradients>) {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(1, 3));
        let b = store.add("b", Matrix::zeros(2, 2));
        let shards: Vec<Gradients> = (0..n)
            .map(|s| {
                let mut g = Gradients::new(&store);
                let v = (s + 1) as f32;
                g.accumulate_owned(a, Matrix::row_vector(&[v, 0.1 * v, -v]));
                if s % 2 == 0 {
                    g.accumulate_owned(b, Matrix::from_vec(2, 2, vec![v; 4]));
                }
                g
            })
            .collect();
        (store, shards)
    }

    #[test]
    fn tree_reduction_sums_all_shards() {
        let (store, mut shards) = shard_gradients(5);
        reduce_gradients(&mut shards);
        let total = &shards[0];
        let a = store.id("a").unwrap();
        let b = store.id("b").unwrap();
        // 1+2+3+4+5 = 15 on parameter a; shards 0, 2, 4 on b: 1+3+5 = 9.
        let ga = total.get(a).unwrap();
        assert!((ga.get(0, 0) - 15.0).abs() < 1e-6);
        assert!((ga.get(0, 2) + 15.0).abs() < 1e-6);
        let gb = total.get(b).unwrap();
        assert!((gb.get(1, 1) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn tree_reduction_is_deterministic_for_fixed_shard_count() {
        for n in [1usize, 2, 3, 7, 8] {
            let (_, mut a) = shard_gradients(n);
            let (_, mut b) = shard_gradients(n);
            reduce_gradients(&mut a);
            reduce_gradients(&mut b);
            for ((_, ga), (_, gb)) in a[0].iter().zip(b[0].iter()) {
                assert_eq!(ga.data(), gb.data(), "n = {n}");
            }
        }
    }

    #[test]
    fn empty_reduction_is_empty() {
        reduce_gradients(&mut []);
        let mut one = [Gradients::default()];
        reduce_gradients(&mut one);
        assert_eq!(one[0].iter().count(), 0);
    }

    /// The tree written as nested sums: halve the list, pairing
    /// neighbours, until one entry is left.
    fn nested_tree_sum(mut level: Vec<Vec<f32>>) -> Vec<f32> {
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [lo, hi] => lo.iter().zip(hi).map(|(a, b)| a + b).collect(),
                    [odd] => odd.clone(),
                    _ => unreachable!(),
                })
                .collect();
        }
        level.pop().unwrap_or_default()
    }

    #[test]
    fn in_place_reduction_adds_in_the_nested_tree_order() {
        // Values whose f32 sums depend on the grouping.
        let value =
            |s: usize, j: usize| ((s * 7 + j) as f32).sin() * 10f32.powi((s % 5) as i32 - 2);
        let row = |s: usize| (0..4).map(|j| value(s, j)).collect::<Vec<f32>>();
        for n in 1usize..=9 {
            let mut store = ParamStore::new();
            let a = store.add("a", Matrix::zeros(1, 4));
            let mut shards: Vec<Gradients> = (0..n)
                .map(|s| {
                    let mut g = Gradients::new(&store);
                    g.accumulate_owned(a, Matrix::row_vector(&row(s)));
                    g
                })
                .collect();
            let expected = nested_tree_sum((0..n).map(row).collect());
            reduce_gradients(&mut shards);
            let got = shards[0].get(a).unwrap().data();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn parallel_sum_matches_sequential_chunks() {
        // The pattern every deterministic kernel uses: fixed chunking,
        // per-chunk partials, merge in chunk order. Verify the partials
        // are the same computed at width 1 and width 4.
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        let partials = |workers: usize| -> Vec<f32> {
            ParallelExecutor::new(workers)
                .map_chunks(data.len(), ROW_CHUNK, |_, r| data[r].iter().sum::<f32>())
        };
        assert_eq!(partials(1), partials(4));
    }
}
