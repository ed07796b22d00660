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
//!
//! ## Panic isolation
//!
//! A panic inside one task must not lose the whole run (a multi-hour
//! hierarchy build at production scale *will* see the occasional
//! poisoned worker). [`ParallelExecutor::map`] therefore wraps every
//! task in `catch_unwind`: a panicking index is recorded, the surviving
//! workers keep draining the queue, and after the scope joins, each
//! failed index is **re-executed once** on the calling thread. Because
//! results are keyed by logical index — never by schedule — a retried
//! task is bitwise identical to one that never failed, so recovery
//! composes with the determinism contract above. A task that panics
//! again on re-execution is deterministic in its failure; its payload
//! is re-raised so the bug surfaces instead of looping.
//!
//! Result slots recover from mutex poisoning (`PoisonError::into_inner`)
//! rather than propagating it: the slot value is a plain `Option<T>`
//! written in one assignment, so a poisoned lock only means *some* task
//! panicked — the data inside is either `None` (re-execute) or a fully
//! written `Some` (use it).
//!
//! Callers must confine a task's side effects to state that a
//! re-execution fully rewrites (buffer pools that zero or overwrite
//! every leased buffer qualify; append-only logs do not).

use crate::param::Gradients;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Worker panics recovered by re-execution since process start, across
/// all executors. Observability surfaces this as `parallel.recovered_panics`;
/// tests use it to assert an injected panic actually fired.
static RECOVERED_PANICS: AtomicU64 = AtomicU64::new(0);

/// Total worker panics recovered by deterministic re-execution since
/// process start.
pub fn recovered_panics() -> u64 {
    RECOVERED_PANICS.load(Ordering::Relaxed)
}

/// Re-executes a task whose first run panicked. One retry: a second
/// panic is deterministic (same index, same inputs) and is re-raised.
fn reexecute<T, F>(f: &F, i: usize) -> T
where
    F: Fn(usize) -> T + Sync,
{
    RECOVERED_PANICS.fetch_add(1, Ordering::Relaxed);
    match catch_unwind(AssertUnwindSafe(|| f(i))) {
        Ok(value) => value,
        Err(payload) => resume_unwind(payload),
    }
}

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
    /// Work is distributed dynamically (an atomic cursor), so uneven
    /// task costs balance automatically; determinism is unaffected
    /// because results are keyed by index, not completion order. With
    /// one worker (or one task) everything runs inline on the calling
    /// thread.
    ///
    /// # Panics
    /// A panic inside `f` is isolated and the index re-executed once on
    /// the calling thread (see the module docs); only a task that
    /// panics *again* on re-execution propagates, with its original
    /// payload.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || n <= 1 {
            // Inline path: same isolation contract as the threaded one,
            // so a 1-worker run recovers from exactly the faults an
            // N-worker run does (the 1-vs-N bit-identity includes
            // recovery behaviour).
            return (0..n)
                .map(|i| match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(value) => value,
                    Err(_) => reexecute(&f, i),
                })
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Isolate the task: on panic the slot stays `None`
                    // and this worker keeps draining the queue; the
                    // index is re-executed after the scope joins.
                    if let Ok(value) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
                    }
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                // Poison recovery, not propagation: the slot holds a
                // plain Option written in a single assignment, so a
                // poisoned lock cannot hold a torn value.
                match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    Some(value) => value,
                    None => reexecute(&f, i),
                }
            })
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
pub const MIN_PARALLEL_WORK: usize = 1 << 18;

/// Reduces per-shard gradients by a fixed pairwise tree over shard
/// indices: round one merges shard 1 into 0, 3 into 2, …; rounds repeat
/// until one set remains. Returns an empty [`Gradients`] for no shards.
///
/// The tree shape — and therefore the f32 summation order — depends
/// only on `shards.len()`, never on thread count or completion order,
/// which is what makes N-thread training bit-identical to 1-thread
/// training. (A left fold over shard indices would be equally
/// deterministic; the tree keeps the reduction depth logarithmic so
/// rounding error does not accumulate linearly in the shard count.)
pub fn reduce_gradients(mut shards: Vec<Gradients>) -> Gradients {
    if shards.is_empty() {
        return Gradients::default();
    }
    let mut active = shards.len();
    while active > 1 {
        let half = active.div_ceil(2);
        for i in 0..active / 2 {
            // merge shard 2i+1 into 2i, compacting into slot i.
            let hi = std::mem::take(&mut shards[2 * i + 1]);
            shards[2 * i].merge_owned(hi);
            shards.swap(i, 2 * i);
        }
        if active % 2 == 1 {
            shards.swap(half - 1, active - 1);
        }
        active = half;
        shards.truncate(active);
    }
    shards.pop().expect("at least one shard remains")
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
    fn zero_workers_clamps_to_one() {
        assert_eq!(ParallelExecutor::new(0).workers(), 1);
        assert!(ParallelExecutor::available().workers() >= 1);
    }

    /// Runs `body` with the default panic hook silenced, so injected
    /// panics do not spam the test output. The hook and the
    /// [`recovered_panics`] counter are process-global, so every
    /// panic-injecting test runs one at a time behind this lock.
    fn quiet_panics<R>(body: impl FnOnce() -> R) -> R {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A test that failed inside `body` poisons the lock; it guards
        // no data, so the next test may still take it.
        let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn panicking_task_is_reexecuted_bitwise_identically() {
        use std::sync::atomic::AtomicBool;
        let expected: Vec<usize> = (0..37).map(|i| i * 3).collect();
        quiet_panics(|| {
            for workers in [1usize, 2, 4] {
                for victim in [0usize, 17, 36] {
                    let armed = AtomicBool::new(true);
                    let before = recovered_panics();
                    let got = ParallelExecutor::new(workers).map(37, |i| {
                        if i == victim && armed.swap(false, Ordering::Relaxed) {
                            panic!("injected worker panic at index {i}");
                        }
                        i * 3
                    });
                    assert_eq!(got, expected, "workers={workers} victim={victim}");
                    assert_eq!(
                        recovered_panics() - before,
                        1,
                        "exactly one recovery expected (workers={workers} victim={victim})"
                    );
                }
            }
        });
    }

    #[test]
    fn surviving_workers_finish_the_queue_after_a_panic() {
        use std::sync::atomic::AtomicBool;
        // One early injected panic at 4 workers must not lose any of the
        // remaining indices (the poisoned worker's queue share migrates).
        quiet_panics(|| {
            let armed = AtomicBool::new(true);
            let got = ParallelExecutor::new(4).map(64, |i| {
                if i == 1 && armed.swap(false, Ordering::Relaxed) {
                    panic!("early injected panic");
                }
                i
            });
            assert_eq!(got, (0..64).collect::<Vec<_>>());
        });
    }

    #[test]
    fn deterministic_panic_propagates_after_one_reexecution() {
        let attempts = AtomicUsize::new(0);
        let result = quiet_panics(|| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                ParallelExecutor::new(2).map(8, |i| {
                    if i == 3 {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        panic!("always fails");
                    }
                    i
                })
            }))
        });
        assert!(result.is_err(), "a deterministic panic must still surface");
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "initial attempt + one re-execution");
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
                g.accumulate(a, &Matrix::row_vector(&[v, 0.1 * v, -v]));
                if s % 2 == 0 {
                    g.accumulate(b, &Matrix::from_vec(2, 2, vec![v; 4]));
                }
                g
            })
            .collect();
        (store, shards)
    }

    #[test]
    fn tree_reduction_sums_all_shards() {
        let (store, shards) = shard_gradients(5);
        let total = reduce_gradients(shards);
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
            let (_, s1) = shard_gradients(n);
            let (_, s2) = shard_gradients(n);
            let a = reduce_gradients(s1);
            let b = reduce_gradients(s2);
            for ((_, ga), (_, gb)) in a.iter().zip(b.iter()) {
                assert_eq!(ga.data(), gb.data(), "n = {n}");
            }
        }
    }

    #[test]
    fn empty_reduction_is_empty() {
        let total = reduce_gradients(Vec::new());
        assert_eq!(total.iter().count(), 0);
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
