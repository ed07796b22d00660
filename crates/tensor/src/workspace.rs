//! Size-bucketed `f32` buffer pool for the training hot path.
//!
//! Every op on a [`crate::tape::Tape`] produces a fresh activation or
//! gradient matrix; without pooling that is one heap allocation per op
//! per minibatch, and the large deep-layer buffers (hundreds of KiB)
//! cross malloc's mmap threshold, costing page faults every batch. A
//! [`Workspace`] keeps recycled buffers in power-of-two capacity
//! buckets so a tape built with [`crate::tape::Tape::with_workspace`]
//! reaches a steady state where **no** per-minibatch allocation happens
//! in the forward/backward step after warmup.
//!
//! ## Determinism
//!
//! Pooling changes where bytes live, never what they are: leased
//! buffers are either zero-filled ([`Workspace::lease_zeroed`]) or
//! completely overwritten by the op that fills them, so a pooled tape
//! step is bitwise identical to a fresh-allocation tape step (asserted
//! by the differential-oracle suite).
//!
//! ## Lifecycle
//!
//! * [`Workspace::lease_zeroed`] / [`Workspace::lease_empty`] hand out a
//!   buffer (reusing a recycled one when the bucket has stock);
//! * [`Workspace::reclaim`] returns a buffer; caller-provided input
//!   matrices of arbitrary capacity mix with pooled ones on tape drop,
//!   so pool-shaped buffers are retained and others drop.
//!
//! Buckets retain at most [`MAX_PER_BUCKET`] buffers; everything beyond
//! that is freed, so the pool's footprint is bounded no matter how many
//! minibatches run through it. A workspace is single-threaded by design
//! (`RefCell`, `Send` but not `Sync`); data-parallel training gives
//! each executor worker its own workspace
//! ([`crate::parallel::ParallelExecutor::map_with`]), and the shards a
//! worker runs hand their gradient buffers back to it
//! ([`crate::Gradients::recycle_into`]) once the optimizer has stepped.

use std::cell::{Cell, RefCell};

/// Smallest bucket capacity handed out (tiny leases round up to this).
pub(crate) const MIN_BUCKET: usize = 8;

/// Maximum buffers retained per capacity bucket. A training pool holds
/// only buffers it allocated itself (the tape drops its callers'
/// inputs), so in steady state a bucket keeps what its worker had out
/// at once and this cap costs nothing; it must clear that live set.
/// A 1-thread worker at `--dim 8` has more than 64 buffers of the
/// 64-element class out at once (all 8 shards' gradients plus its
/// tape's), so 64 re-allocated every batch there.
pub(crate) const MAX_PER_BUCKET: usize = 128;

/// Maximum [`AlignedBuf`]s retained by [`Workspace::recycle_aligned`].
const MAX_ALIGNED: usize = 8;

/// `f32` lanes per aligned storage chunk (one cache line).
const CHUNK_LANES: usize = 16;

/// One 64-byte-aligned cache line of `f32` lanes. Size equals
/// alignment, so a `Vec<AlignedChunk>` is a contiguous, padding-free
/// `f32` carpet starting on a 64-byte boundary.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug)]
struct AlignedChunk([f32; CHUNK_LANES]);

/// A growable `f32` buffer whose storage is 64-byte aligned — the
/// alignment the SIMD kernels want for their packed panels
/// (`Vec<f32>` only guarantees 4 bytes). Backed by whole cache-line
/// chunks so the usual `Vec` grow/free machinery applies unchanged.
#[derive(Clone, Debug, Default)]
pub struct AlignedBuf {
    chunks: Vec<AlignedChunk>,
    len: usize,
}

impl AlignedBuf {
    /// Creates an empty buffer (no allocation).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Allocated capacity in `f32` elements.
    pub(crate) fn capacity(&self) -> usize {
        self.chunks.len() * CHUNK_LANES
    }

    /// Sets the logical length to `len`, growing storage as needed.
    /// Grown storage is zeroed once; **reused storage keeps stale
    /// contents** — this is for pack buffers that overwrite every
    /// element before reading any.
    pub(crate) fn resize_for_overwrite(&mut self, len: usize) {
        let chunks = len.div_ceil(CHUNK_LANES);
        if chunks > self.chunks.len() {
            self.chunks.resize(chunks, AlignedChunk([0.0; CHUNK_LANES]));
        }
        self.len = len;
    }

    /// The buffer as a 64-byte-aligned `f32` slice.
    pub(crate) fn as_slice(&self) -> &[f32] {
        // SAFETY: `chunks` is a contiguous array of `[f32; CHUNK_LANES]`
        // with size == alignment (no padding), and `len <= capacity`.
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr() as *const f32, self.len) }
    }

    /// The buffer as a mutable 64-byte-aligned `f32` slice.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`, with unique access through `&mut`.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr() as *mut f32, self.len) }
    }
}

/// One slot per power-of-two capacity class from [`MIN_BUCKET`] up to
/// the largest allocation representable in a `usize`.
const BUCKET_SLOTS: usize = (usize::BITS - MIN_BUCKET.trailing_zeros()) as usize;

/// A size-bucketed pool of reusable `Vec<f32>` buffers.
///
/// Buckets are a flat array indexed by the capacity class's log2 — the
/// lease/recycle hot path runs a couple of bit ops per call, never a
/// hash (a `HashMap<usize, _>` here put SipHash on every tape op).
#[derive(Debug)]
pub struct Workspace {
    buckets: RefCell<[Vec<Vec<f32>>; BUCKET_SLOTS]>,
    aligned: RefCell<Vec<AlignedBuf>>,
    leases: Cell<u64>,
    fresh: Cell<u64>,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace {
            buckets: RefCell::new(std::array::from_fn(|_| Vec::new())),
            aligned: RefCell::new(Vec::new()),
            leases: Cell::new(0),
            fresh: Cell::new(0),
        }
    }
}

/// The capacity class a lease of `len` elements is served from.
#[inline]
fn bucket_capacity(len: usize) -> usize {
    len.next_power_of_two().max(MIN_BUCKET)
}

/// The bucket slot serving pool-shaped `capacity` (a power of two
/// >= [`MIN_BUCKET`]).
#[inline]
fn bucket_index(capacity: usize) -> usize {
    debug_assert!(is_pool_shaped(capacity));
    (capacity.trailing_zeros() - MIN_BUCKET.trailing_zeros()) as usize
}

/// True when `capacity` is a capacity class this pool hands out.
#[inline]
fn is_pool_shaped(capacity: usize) -> bool {
    capacity >= MIN_BUCKET && capacity.is_power_of_two()
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn pop_bucket(&self, cap: usize) -> Option<Vec<f32>> {
        self.buckets.borrow_mut()[bucket_index(cap)].pop()
    }

    fn lease_raw(&self, len: usize) -> Vec<f32> {
        self.leases.set(self.leases.get() + 1);
        let cap = bucket_capacity(len);
        match self.pop_bucket(cap) {
            Some(v) => {
                debug_assert!(v.is_empty() && v.capacity() == cap);
                v
            }
            None => {
                self.fresh.set(self.fresh.get() + 1);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Leases a buffer of exactly `len` zeros.
    pub(crate) fn lease_zeroed(&self, len: usize) -> Vec<f32> {
        let mut v = self.lease_raw(len);
        v.resize(len, 0.0);
        v
    }

    /// Leases an empty buffer with capacity for at least `min_capacity`
    /// elements (for `extend_from_slice`-style fills that overwrite
    /// everything anyway — skips the zero fill).
    pub(crate) fn lease_empty(&self, min_capacity: usize) -> Vec<f32> {
        self.lease_raw(min_capacity)
    }

    /// Returns a buffer to the pool: pool-shaped buffers are retained (up
    /// to [`MAX_PER_BUCKET`] per bucket), anything else is simply dropped.
    pub(crate) fn reclaim(&self, mut v: Vec<f32>) {
        let cap = v.capacity();
        if !is_pool_shaped(cap) {
            return;
        }
        let mut buckets = self.buckets.borrow_mut();
        let bucket = &mut buckets[bucket_index(cap)];
        if bucket.len() < MAX_PER_BUCKET {
            v.clear();
            bucket.push(v);
        }
    }

    /// Leases a 64-byte-aligned buffer of logical length `len` whose
    /// contents are **unspecified** (the caller must overwrite every
    /// element before reading — this backs the matmul pack panels,
    /// which always do). Best-fit reuse from the aligned pool keeps the
    /// steady state allocation-free even when several panel sizes
    /// interleave.
    pub(crate) fn lease_aligned(&self, len: usize) -> AlignedBuf {
        self.leases.set(self.leases.get() + 1);
        let mut pool = self.aligned.borrow_mut();
        let pick = pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let mut buf = match pick {
            Some(i) => pool.swap_remove(i),
            None => {
                self.fresh.set(self.fresh.get() + 1);
                AlignedBuf::new()
            }
        };
        drop(pool);
        buf.resize_for_overwrite(len);
        buf
    }

    /// Returns an aligned buffer to the pool (retaining at most
    /// [`MAX_ALIGNED`]; overflow is simply dropped).
    pub(crate) fn recycle_aligned(&self, buf: AlignedBuf) {
        let mut pool = self.aligned.borrow_mut();
        if pool.len() < MAX_ALIGNED {
            pool.push(buf);
        }
    }

    /// Total leases served so far.
    pub(crate) fn leases(&self) -> u64 {
        self.leases.get()
    }

    /// Leases that had to allocate fresh memory (pool misses). Flat
    /// across minibatches once warmed up = zero steady-state allocation.
    pub(crate) fn fresh_allocs(&self) -> u64 {
        self.fresh.get()
    }

    /// Number of buffers currently retained, across all buckets and the
    /// aligned pool.
    pub(crate) fn retained_buffers(&self) -> usize {
        self.buckets.borrow().iter().map(Vec::len).sum::<usize>() + self.aligned.borrow().len()
    }

    /// Total capacity (in `f32` elements) currently retained.
    pub(crate) fn retained_elems(&self) -> usize {
        self.buckets.borrow().iter().flatten().map(Vec::capacity).sum::<usize>()
            + self.aligned.borrow().iter().map(AlignedBuf::capacity).sum::<usize>()
    }

    /// Point-in-time snapshot of the pool's usage counters, for
    /// observability surfacing (one struct instead of four getter
    /// calls, so callers can aggregate across per-shard pools).
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            leases: self.leases(),
            fresh_allocs: self.fresh_allocs(),
            retained_buffers: self.retained_buffers(),
            retained_elems: self.retained_elems(),
        }
    }
}

/// Usage counters captured from a [`Workspace`] by [`Workspace::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Total leases served.
    pub leases: u64,
    /// Leases that allocated fresh memory (pool misses).
    pub fresh_allocs: u64,
    /// Buffers currently retained across all buckets.
    pub retained_buffers: usize,
    /// Total retained capacity in `f32` elements.
    pub retained_elems: usize,
}

impl WorkspaceStats {
    /// Element-wise sum, for aggregating per-shard pools.
    pub fn merge(&self, other: &WorkspaceStats) -> WorkspaceStats {
        WorkspaceStats {
            leases: self.leases + other.leases,
            fresh_allocs: self.fresh_allocs + other.fresh_allocs,
            retained_buffers: self.retained_buffers + other.retained_buffers,
            retained_elems: self.retained_elems + other.retained_elems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycle_reuses_the_same_allocation() {
        let ws = Workspace::new();
        let v = ws.lease_zeroed(100);
        let ptr = v.as_ptr();
        ws.reclaim(v);
        let v2 = ws.lease_zeroed(100);
        assert_eq!(v2.as_ptr(), ptr, "recycled buffer was not reused");
        assert_eq!(v2.len(), 100);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(ws.leases(), 2);
        assert_eq!(ws.fresh_allocs(), 1, "second lease must be a pool hit");
    }

    #[test]
    fn stats_snapshot_matches_getters_and_merges() {
        let ws = Workspace::new();
        let v = ws.lease_zeroed(100);
        ws.reclaim(v);
        let s = ws.stats();
        assert_eq!(s.leases, ws.leases());
        assert_eq!(s.fresh_allocs, ws.fresh_allocs());
        assert_eq!(s.retained_buffers, ws.retained_buffers());
        assert_eq!(s.retained_elems, ws.retained_elems());
        let doubled = s.merge(&s);
        assert_eq!(doubled.leases, 2 * s.leases);
        assert_eq!(doubled.retained_elems, 2 * s.retained_elems);
    }

    #[test]
    fn different_sizes_share_a_bucket_by_capacity_class() {
        let ws = Workspace::new();
        let v = ws.lease_zeroed(100); // bucket 128
        ws.reclaim(v);
        let v2 = ws.lease_zeroed(120); // same bucket
        assert_eq!(ws.fresh_allocs(), 1);
        assert_eq!(v2.len(), 120);
    }

    #[test]
    fn pool_is_bounded_over_many_minibatches() {
        let ws = Workspace::new();
        for _ in 0..1000 {
            let a = ws.lease_zeroed(256);
            let b = ws.lease_empty(64);
            ws.reclaim(a);
            ws.reclaim(b);
        }
        assert!(ws.retained_buffers() <= 2, "pool grew: {}", ws.retained_buffers());
        assert_eq!(ws.fresh_allocs(), 2, "steady state must not allocate");
    }

    #[test]
    fn bucket_retention_is_capped() {
        let ws = Workspace::new();
        let many: Vec<_> = (0..2 * MAX_PER_BUCKET).map(|_| ws.lease_zeroed(64)).collect();
        for v in many {
            ws.reclaim(v);
        }
        assert_eq!(ws.retained_buffers(), MAX_PER_BUCKET);
    }

    #[test]
    fn reclaim_tolerates_foreign_buffers() {
        let ws = Workspace::new();
        ws.reclaim(vec![0.0f32; 100]); // silently dropped
        assert_eq!(ws.retained_buffers(), 0);
        ws.reclaim(Vec::with_capacity(64)); // pool-shaped: retained
        assert_eq!(ws.retained_buffers(), 1);
    }

    #[test]
    fn zero_length_lease_is_served() {
        let ws = Workspace::new();
        let v = ws.lease_zeroed(0);
        assert!(v.is_empty());
        ws.reclaim(v);
    }

    #[test]
    fn aligned_buf_is_64_byte_aligned_and_grows() {
        let mut b = AlignedBuf::new();
        assert!(b.as_slice().is_empty());
        b.resize_for_overwrite(37);
        assert_eq!(b.as_slice().len(), 37);
        assert!(b.capacity() >= 37);
        assert_eq!(b.as_slice().as_ptr() as usize % 64, 0, "storage must be 64-byte aligned");
        b.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| *v = i as f32);
        // Growing preserves the prefix and stays aligned.
        b.resize_for_overwrite(200);
        assert_eq!(b.as_slice()[36], 36.0);
        assert_eq!(b.as_slice().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn aligned_leases_reach_a_zero_alloc_steady_state() {
        let ws = Workspace::new();
        // Two interleaved panel sizes, as a backward pass produces.
        for _ in 0..100 {
            let a = ws.lease_aligned(512);
            let b = ws.lease_aligned(96);
            ws.recycle_aligned(a);
            ws.recycle_aligned(b);
        }
        assert_eq!(ws.fresh_allocs(), 2, "aligned steady state must not allocate");
        let s = ws.stats();
        assert_eq!(s.retained_buffers, 2);
        assert!(s.retained_elems >= 512 + 96);
    }

    #[test]
    fn aligned_pool_retention_is_capped() {
        let ws = Workspace::new();
        let many: Vec<_> = (0..2 * MAX_ALIGNED).map(|_| ws.lease_aligned(64)).collect();
        for b in many {
            ws.recycle_aligned(b);
        }
        assert_eq!(ws.retained_buffers(), MAX_ALIGNED);
    }
}
